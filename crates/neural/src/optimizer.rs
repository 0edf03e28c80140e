//! SGD with momentum (Eq. 1 of the paper), at a constant learning rate.

use crate::tensor::TensorError;

/// Configuration of the SGD optimiser.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SgdConfig {
    /// Learning rate `η`.
    pub learning_rate: f32,
    /// Momentum coefficient `β` of Eq. (1); zero disables momentum.
    pub momentum: f32,
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig {
            learning_rate: 0.01,
            momentum: 0.9,
        }
    }
}

/// SGD with (optional) momentum following the paper's Eq. (1):
///
/// ```text
/// v_t = β v_{t-1} + (1 - β) s_t
/// θ_t = θ_{t-1} - η v_t
/// ```
///
/// The momentum vector `v_t` is exposed because the gradient-gap estimator
/// (Eq. 3–4) needs it for linear weight prediction.
#[derive(Debug, Clone)]
pub struct Sgd {
    config: SgdConfig,
    velocity: Vec<f32>,
}

impl Sgd {
    /// Creates an optimiser with the given configuration.
    pub fn new(config: SgdConfig) -> Self {
        Sgd {
            config,
            velocity: Vec::new(),
        }
    }

    /// Creates an optimiser with the default configuration and a custom
    /// learning rate.
    pub fn with_learning_rate(learning_rate: f32) -> Self {
        Sgd::new(SgdConfig {
            learning_rate,
            ..SgdConfig::default()
        })
    }

    /// The momentum vector, one element per parameter; empty before the
    /// first step.
    pub fn velocity(&self) -> &[f32] {
        &self.velocity
    }

    /// Applies one optimisation step to the flat `params` given `grads`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the gradients, or the
    /// velocity of an earlier step, do not match the parameters in length.
    pub fn step(&mut self, params: &mut [f32], grads: &[f32]) -> Result<(), TensorError> {
        if self.velocity.is_empty() {
            self.velocity = vec![0.0; params.len()];
        }
        for other in [grads.len(), self.velocity.len()] {
            if other != params.len() {
                return Err(TensorError::ShapeMismatch {
                    lhs: vec![params.len()],
                    rhs: vec![other],
                    op: "sgd_step",
                });
            }
        }
        let SgdConfig {
            learning_rate: lr,
            momentum: beta,
        } = self.config;
        for ((p, &g), v) in params.iter_mut().zip(grads).zip(&mut self.velocity) {
            if beta > 0.0 {
                // v = beta * v + (1 - beta) * g   (Eq. 1)
                *v *= beta;
                *v += (1.0 - beta) * g;
            } else {
                *v = g;
            }
            *p += -lr * *v;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sgd(learning_rate: f32, momentum: f32) -> Sgd {
        Sgd::new(SgdConfig {
            learning_rate,
            momentum,
        })
    }

    #[test]
    fn plain_sgd_moves_against_gradient() {
        let mut opt = sgd(0.1, 0.0);
        let mut p = [1.0, -1.0];
        opt.step(&mut p, &[1.0, -2.0]).unwrap();
        assert!((p[0] - 0.9).abs() < 1e-6);
        assert!((p[1] + 0.8).abs() < 1e-6);
    }

    #[test]
    fn momentum_update_follows_eq1() {
        let mut opt = sgd(1.0, 0.5);
        let mut p = [0.0];
        // v1 = 0.5*0 + 0.5*1 = 0.5 ; p = -0.5
        opt.step(&mut p, &[1.0]).unwrap();
        assert!((p[0] + 0.5).abs() < 1e-6);
        assert!((opt.velocity()[0] - 0.5).abs() < 1e-6);
        // v2 = 0.5*0.5 + 0.5*1 = 0.75 ; p = -1.25
        opt.step(&mut p, &[1.0]).unwrap();
        assert!((p[0] + 1.25).abs() < 1e-6);
        assert!((opt.velocity()[0] - 0.75).abs() < 1e-6);
    }

    /// `Sgd::step` as it used to be spelt with whole-tensor operations, one
    /// parameter tensor at a time, at the constant learning-rate schedule's
    /// factor of 1.
    fn reference_step(config: &SgdConfig, v: &mut [f32], p: &mut [f32], g: &[f32]) {
        let factor = 1.0f32;
        let lr = config.learning_rate * factor;
        if config.momentum > 0.0 {
            v.iter_mut().for_each(|v| *v *= config.momentum);
            for (v, &g) in v.iter_mut().zip(g) {
                *v += (1.0 - config.momentum) * g;
            }
            for (p, &v) in p.iter_mut().zip(v.iter()) {
                *p += -lr * v;
            }
        } else {
            v.copy_from_slice(g);
            for (p, &g) in p.iter_mut().zip(g) {
                *p += -lr * g;
            }
        }
    }

    #[test]
    fn step_matches_reference_bits() {
        let bits = |t: &[f32]| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let values = |seed: f32| -> Vec<f32> {
            (0..37)
                .map(|i| (seed + i as f32 * 0.731).sin() * 0.9)
                .collect()
        };
        for momentum in [0.0, 0.9] {
            for learning_rate in [0.07, 0.05] {
                let config = SgdConfig {
                    learning_rate,
                    momentum,
                };
                let mut opt = Sgd::new(config);
                let mut p = values(0.3);
                // Two tensors of the old per-tensor walk, one flat buffer now.
                let (mut want_p, mut want_v) = (p.clone(), vec![0.0; p.len()]);
                for step in 0..4 {
                    let g = values(step as f32 + 1.0);
                    opt.step(&mut p, &g).unwrap();
                    let (p0, p1) = want_p.split_at_mut(30);
                    let (v0, v1) = want_v.split_at_mut(30);
                    reference_step(&config, v0, p0, &g[..30]);
                    reference_step(&config, v1, p1, &g[30..]);
                    assert_eq!(bits(&p), bits(&want_p), "b={momentum} lr={learning_rate}");
                    assert_eq!(bits(opt.velocity()), bits(&want_v), "velocity");
                }
            }
        }
    }

    #[test]
    fn mismatched_inputs_are_rejected() {
        let mut opt = Sgd::with_learning_rate(0.1);
        assert!(opt.step(&mut [1.0], &[1.0, 2.0]).is_err());
        opt.step(&mut [1.0], &[1.0]).unwrap();
        assert!(opt.step(&mut [1.0, 2.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn converges_on_quadratic() {
        // Minimise f(x) = (x - 3)^2 with gradient 2(x - 3).
        let mut opt = sgd(0.1, 0.9);
        let mut x = [-5.0];
        for _ in 0..200 {
            let g = [2.0 * (x[0] - 3.0)];
            opt.step(&mut x, &g).unwrap();
        }
        assert!((x[0] - 3.0).abs() < 0.05, "x = {}", x[0]);
    }
}
