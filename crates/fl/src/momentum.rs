//! Momentum-vector tracking (Eq. 1), used by the gradient-gap estimator.
//!
//! The paper's staleness metric predicts how far the global parameters will
//! have drifted while a device waits: `θ_{t+τ} = θ_t − η (1−β^{l_τ})/(1−β) v_t`
//! (Eq. 3). The momentum vector `v_t` is maintained here from the sequence of
//! global-model updates, exactly as Eq. (1) defines it:
//! `v_t = β v_{t−1} + (1 − β) s_t` where `s_t` is the latest gradient-like
//! step (the parameter change scaled by `1/η`).

use fedco_neural::model::ParamVector;
use fedco_neural::tensor::TensorError;

/// Tracks the exponentially weighted momentum of global-model movement.
#[derive(Debug, Clone, PartialEq)]
pub struct MomentumTracker {
    beta: f32,
    learning_rate: f32,
    velocity: Option<ParamVector>,
    updates: u64,
}

impl MomentumTracker {
    /// Creates a tracker with momentum coefficient `beta` (clamped into
    /// `[0, 0.999]`) and the learning rate `η` used by the clients.
    pub fn new(beta: f32, learning_rate: f32) -> Self {
        MomentumTracker {
            beta: beta.clamp(0.0, 0.999),
            learning_rate: learning_rate.max(f32::MIN_POSITIVE),
            velocity: None,
            updates: 0,
        }
    }

    /// The momentum coefficient `β`.
    pub fn beta(&self) -> f32 {
        self.beta
    }

    /// The learning rate `η`.
    pub fn learning_rate(&self) -> f32 {
        self.learning_rate
    }

    /// Number of updates observed.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// The current momentum vector `v_t`, or `None` before the first update.
    pub fn velocity(&self) -> Option<&ParamVector> {
        self.velocity.as_ref()
    }

    /// L2 norm of the current momentum vector (zero before any update).
    pub fn velocity_norm(&self) -> f32 {
        self.velocity.as_ref().map(|v| v.norm_l2()).unwrap_or(0.0)
    }

    /// Moves the global model to `merge(g, l)` element by element — `g` the
    /// current global value, `l` the uploaded one — and folds the implied
    /// step `s_t = (g − merged) / η` into `v_t` per Eq. (1), walking global,
    /// upload and velocity once and allocating nothing after the first
    /// update. Per element these are the operations, in the order, of merging
    /// into a copy, subtracting, scaling by `1/η` and observing the step as a
    /// vector (the `cloning` module keeps that form; every bit is held to it).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the two vectors (or the
    /// running velocity) have different lengths; nothing has moved then.
    pub fn observe_merge(
        &mut self,
        global: &mut ParamVector,
        local: &ParamVector,
        merge: impl Fn(f32, f32) -> f32,
    ) -> Result<(), TensorError> {
        if global.len() != local.len() {
            return Err(TensorError::ShapeMismatch {
                lhs: vec![global.len()],
                rhs: vec![local.len()],
                op: "momentum_observe",
            });
        }
        let per_lr = 1.0 / self.learning_rate;
        let pairs = global.values_mut().iter_mut().zip(local.values());
        self.fold_steps(pairs.map(|(g, &l)| {
            let merged = merge(*g, l);
            let step = (*g - merged) * per_lr;
            *g = merged;
            step
        }))
    }

    /// Observes a raw gradient-like step `s_t` directly.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the step length differs
    /// from the running velocity.
    pub fn observe_step(&mut self, step: &ParamVector) -> Result<(), TensorError> {
        self.fold_steps(step.values().iter().copied())
    }

    /// Eq. (1), in place: `v ← β·v + (1 − β)·s` over the steps as they are
    /// produced. A length mismatch is refused before the first one is.
    fn fold_steps(&mut self, steps: impl ExactSizeIterator<Item = f32>) -> Result<(), TensorError> {
        let (beta, gain) = (self.beta, 1.0 - self.beta);
        match &mut self.velocity {
            // v_1 = (1 - beta) * s_1  (v_0 = 0)
            None => self.velocity = Some(ParamVector::new(steps.map(|s| s * gain).collect())),
            Some(v) => {
                if v.len() != steps.len() {
                    return Err(TensorError::ShapeMismatch {
                        lhs: vec![v.len()],
                        rhs: vec![steps.len()],
                        op: "momentum_observe",
                    });
                }
                for (v, s) in v.values_mut().iter_mut().zip(steps) {
                    *v = *v * beta + gain * s;
                }
            }
        }
        self.updates += 1;
        Ok(())
    }
}

/// The copying forms [`MomentumTracker::observe_merge`] and the in-place
/// [`MomentumTracker::observe_step`] replaced — `ParamVector::{sub, scale}`
/// and the transition built from them — kept, bodies unchanged, as the oracle
/// of the `reference_bits` suite in `server.rs`.
#[cfg(test)]
pub(crate) mod cloning {
    use super::*;

    pub(crate) fn sub(a: &ParamVector, b: &ParamVector) -> Result<ParamVector, TensorError> {
        if a.len() != b.len() {
            return Err(TensorError::ShapeMismatch {
                lhs: vec![a.len()],
                rhs: vec![b.len()],
                op: "param_vector_sub",
            });
        }
        let (a, b) = (a.values().iter(), b.values());
        Ok(ParamVector::new(a.zip(b).map(|(a, b)| a - b).collect()))
    }

    pub(crate) fn scale(v: &ParamVector, factor: f32) -> ParamVector {
        ParamVector::new(v.values().iter().map(|v| v * factor).collect())
    }

    impl MomentumTracker {
        pub(crate) fn observe_transition(
            &mut self,
            old: &ParamVector,
            new: &ParamVector,
        ) -> Result<(), TensorError> {
            let step = scale(&sub(old, new)?, 1.0 / self.learning_rate);
            self.observe_step_cloning(&step)
        }

        fn observe_step_cloning(&mut self, step: &ParamVector) -> Result<(), TensorError> {
            match &mut self.velocity {
                None => {
                    // v_1 = (1 - beta) * s_1  (v_0 = 0)
                    self.velocity = Some(scale(step, 1.0 - self.beta));
                }
                Some(v) => {
                    if v.len() != step.len() {
                        return Err(TensorError::ShapeMismatch {
                            lhs: vec![v.len()],
                            rhs: vec![step.len()],
                            op: "momentum_observe",
                        });
                    }
                    let mut next = scale(v, self.beta);
                    next.add_scaled(step, 1.0 - self.beta)?;
                    *v = next;
                }
            }
            self.updates += 1;
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_update_initialises_velocity() {
        let mut m = MomentumTracker::new(0.9, 0.1);
        assert_eq!(m.velocity_norm(), 0.0);
        m.observe_step(&ParamVector::new(vec![1.0, 0.0])).unwrap();
        let v = m.velocity().unwrap();
        assert!((v.values()[0] - 0.1).abs() < 1e-6);
        assert_eq!(m.updates(), 1);
    }

    #[test]
    fn update_follows_eq1() {
        let mut m = MomentumTracker::new(0.5, 1.0);
        m.observe_step(&ParamVector::new(vec![1.0])).unwrap();
        // v1 = 0.5 * 1 = 0.5
        assert!((m.velocity().unwrap().values()[0] - 0.5).abs() < 1e-6);
        m.observe_step(&ParamVector::new(vec![1.0])).unwrap();
        // v2 = 0.5*0.5 + 0.5*1 = 0.75
        assert!((m.velocity().unwrap().values()[0] - 0.75).abs() < 1e-6);
        // Converges towards the steady-state step value 1.0.
        for _ in 0..20 {
            m.observe_step(&ParamVector::new(vec![1.0])).unwrap();
        }
        assert!((m.velocity().unwrap().values()[0] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn merge_moves_the_model_and_divides_the_step_by_the_learning_rate() {
        let mut m = MomentumTracker::new(0.0, 0.1);
        let mut global = ParamVector::new(vec![1.0, 1.0]);
        let new = ParamVector::new(vec![0.9, 1.1]);
        m.observe_merge(&mut global, &new, |_, l| l).unwrap();
        assert_eq!(global, new);
        let v = m.velocity().unwrap();
        // step = (old - new)/eta = [1.0, -1.0]; beta=0 keeps it as-is.
        assert!((v.values()[0] - 1.0).abs() < 1e-5);
        assert!((v.values()[1] + 1.0).abs() < 1e-5);
    }

    #[test]
    fn mismatched_lengths_error() {
        let mut m = MomentumTracker::new(0.9, 0.1);
        m.observe_step(&ParamVector::new(vec![1.0, 2.0])).unwrap();
        assert!(m.observe_step(&ParamVector::new(vec![1.0])).is_err());
        // Neither an upload nor a velocity of another length moves the model.
        let mut global = ParamVector::new(vec![1.0]);
        let two = ParamVector::new(vec![5.0, 6.0]);
        assert!(m.observe_merge(&mut global, &two, |_, l| l).is_err());
        assert!(m
            .observe_merge(&mut global, &ParamVector::new(vec![5.0]), |_, l| l)
            .is_err());
        assert_eq!(global.values(), &[1.0]);
        assert_eq!(m.updates(), 1);
    }

    #[test]
    fn accessors_clamp_their_knobs() {
        let m = MomentumTracker::new(2.0, 0.0);
        // beta clamped, lr floored above zero
        assert!(m.beta() <= 0.999);
        assert!(m.learning_rate() > 0.0);
        assert_eq!(m.updates(), 0);
        assert!(m.velocity().is_none());
    }
}
