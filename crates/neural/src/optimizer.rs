//! Optimisers: plain SGD and SGD with momentum (Eq. 1 of the paper).

use crate::tensor::{Tensor, TensorError};

/// Learning-rate schedules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LrSchedule {
    /// Constant learning rate.
    Constant,
    /// Step decay: multiply by `gamma` every `every` steps.
    StepDecay {
        /// Multiplicative decay factor applied at each step boundary.
        gamma: f32,
        /// Number of optimiser steps between decays.
        every: usize,
    },
    /// Inverse time decay: `lr / (1 + decay * step)`.
    InverseTime {
        /// Decay coefficient.
        decay: f32,
    },
}

impl LrSchedule {
    /// The learning rate multiplier after `step` optimiser steps.
    pub fn factor(&self, step: usize) -> f32 {
        match *self {
            LrSchedule::Constant => 1.0,
            LrSchedule::StepDecay { gamma, every } => {
                let k = step.checked_div(every).unwrap_or(0);
                gamma.powi(k as i32)
            }
            LrSchedule::InverseTime { decay } => 1.0 / (1.0 + decay * step as f32),
        }
    }
}

/// Configuration of the SGD optimiser.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SgdConfig {
    /// Base learning rate `η`.
    pub learning_rate: f32,
    /// Momentum coefficient `β` of Eq. (1); zero disables momentum.
    pub momentum: f32,
    /// L2 weight-decay coefficient.
    pub weight_decay: f32,
    /// Learning-rate schedule.
    pub schedule: LrSchedule,
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig {
            learning_rate: 0.01,
            momentum: 0.9,
            weight_decay: 0.0,
            schedule: LrSchedule::Constant,
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
/// The momentum vectors `v_t` are exposed because the gradient-gap estimator
/// (Eq. 3–4) needs them for linear weight prediction.
#[derive(Debug, Clone)]
pub struct Sgd {
    config: SgdConfig,
    velocities: Vec<Tensor>,
    step: usize,
}

impl Sgd {
    /// Creates an optimiser with the given configuration.
    pub fn new(config: SgdConfig) -> Self {
        Sgd {
            config,
            velocities: Vec::new(),
            step: 0,
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

    /// The optimiser configuration.
    pub fn config(&self) -> &SgdConfig {
        &self.config
    }

    /// Number of optimisation steps taken so far.
    pub fn step_count(&self) -> usize {
        self.step
    }

    /// The effective learning rate at the current step.
    pub fn current_learning_rate(&self) -> f32 {
        self.config.learning_rate * self.config.schedule.factor(self.step)
    }

    /// The current momentum vectors, one per parameter tensor, in the order
    /// the parameters were presented to [`Sgd::step`]. Empty before the first
    /// step.
    pub fn velocities(&self) -> &[Tensor] {
        &self.velocities
    }

    /// The momentum vectors flattened into a single vector (used by the
    /// gradient-gap estimator). Empty before the first step.
    pub fn velocity_flat(&self) -> Vec<f32> {
        let mut out = Vec::new();
        for v in &self.velocities {
            out.extend_from_slice(v.data());
        }
        out
    }

    /// Applies one optimisation step to `params` given `grads`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError`] if the number or shapes of the gradients do
    /// not match the parameters.
    pub fn step(
        &mut self,
        params: &mut [&mut Tensor],
        grads: &[&Tensor],
    ) -> Result<(), TensorError> {
        if params.len() != grads.len() {
            return Err(TensorError::ShapeMismatch {
                lhs: vec![params.len()],
                rhs: vec![grads.len()],
                op: "sgd_step_param_count",
            });
        }
        if self.velocities.is_empty() {
            self.velocities = params.iter().map(|p| Tensor::zeros(p.shape())).collect();
        }
        if self.velocities.len() != params.len() {
            return Err(TensorError::ShapeMismatch {
                lhs: vec![self.velocities.len()],
                rhs: vec![params.len()],
                op: "sgd_step_velocity_count",
            });
        }
        let lr = self.current_learning_rate();
        let (beta, decay) = (self.config.momentum, self.config.weight_decay);
        for ((param, grad), velocity) in params
            .iter_mut()
            .zip(grads.iter())
            .zip(self.velocities.iter_mut())
        {
            if param.shape() != grad.shape() || param.shape() != velocity.shape() {
                return Err(TensorError::ShapeMismatch {
                    lhs: param.shape().to_vec(),
                    rhs: grad.shape().to_vec(),
                    op: "sgd_step_shape",
                });
            }
            let elements = param.data_mut().iter_mut().zip(grad.data());
            for ((p, &g), v) in elements.zip(velocity.data_mut()) {
                // Effective gradient including weight decay.
                let g = if decay != 0.0 { g + decay * *p } else { g };
                if beta > 0.0 {
                    // v = beta * v + (1 - beta) * g   (Eq. 1)
                    *v *= beta;
                    *v += (1.0 - beta) * g;
                } else {
                    *v = g;
                }
                *p += -lr * *v;
            }
        }
        self.step += 1;
        Ok(())
    }

    /// Resets the momentum state and the step counter.
    pub fn reset(&mut self) {
        self.velocities.clear();
        self.step = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_sgd_moves_against_gradient() {
        let mut opt = Sgd::new(SgdConfig {
            learning_rate: 0.1,
            momentum: 0.0,
            weight_decay: 0.0,
            schedule: LrSchedule::Constant,
        });
        let mut p = Tensor::from_slice(&[1.0, -1.0]);
        let g = Tensor::from_slice(&[1.0, -2.0]);
        opt.step(&mut [&mut p], &[&g]).unwrap();
        assert!((p.data()[0] - 0.9).abs() < 1e-6);
        assert!((p.data()[1] + 0.8).abs() < 1e-6);
        assert_eq!(opt.step_count(), 1);
    }

    #[test]
    fn momentum_update_follows_eq1() {
        let mut opt = Sgd::new(SgdConfig {
            learning_rate: 1.0,
            momentum: 0.5,
            weight_decay: 0.0,
            schedule: LrSchedule::Constant,
        });
        let mut p = Tensor::from_slice(&[0.0]);
        let g = Tensor::from_slice(&[1.0]);
        // v1 = 0.5*0 + 0.5*1 = 0.5 ; p = -0.5
        opt.step(&mut [&mut p], &[&g]).unwrap();
        assert!((p.data()[0] + 0.5).abs() < 1e-6);
        assert!((opt.velocities()[0].data()[0] - 0.5).abs() < 1e-6);
        // v2 = 0.5*0.5 + 0.5*1 = 0.75 ; p = -1.25
        opt.step(&mut [&mut p], &[&g]).unwrap();
        assert!((p.data()[0] + 1.25).abs() < 1e-6);
        assert!((opt.velocities()[0].data()[0] - 0.75).abs() < 1e-6);
    }

    #[test]
    fn weight_decay_shrinks_parameters() {
        let mut opt = Sgd::new(SgdConfig {
            learning_rate: 0.1,
            momentum: 0.0,
            weight_decay: 1.0,
            schedule: LrSchedule::Constant,
        });
        let mut p = Tensor::from_slice(&[1.0]);
        let g = Tensor::from_slice(&[0.0]);
        opt.step(&mut [&mut p], &[&g]).unwrap();
        assert!((p.data()[0] - 0.9).abs() < 1e-6);
    }

    /// `Sgd::step` as it used to be spelt with whole-tensor operations.
    fn reference_step(config: &SgdConfig, v: &mut Tensor, p: &mut Tensor, grad: &Tensor) {
        let mut g = grad.clone();
        if config.weight_decay != 0.0 {
            g.add_scaled(p, config.weight_decay).unwrap();
        }
        if config.momentum > 0.0 {
            v.scale_in_place(config.momentum);
            v.add_scaled(&g, 1.0 - config.momentum).unwrap();
            p.add_scaled(v, -config.learning_rate).unwrap();
        } else {
            *v = g.clone();
            p.add_scaled(&g, -config.learning_rate).unwrap();
        }
    }

    #[test]
    fn step_matches_reference_bits() {
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let values = |seed: f32| -> Vec<f32> {
            (0..37)
                .map(|i| (seed + i as f32 * 0.731).sin() * 0.9)
                .collect()
        };
        for momentum in [0.0, 0.9] {
            for weight_decay in [0.0, 0.013] {
                let config = SgdConfig {
                    learning_rate: 0.07,
                    momentum,
                    weight_decay,
                    schedule: LrSchedule::Constant,
                };
                let mut opt = Sgd::new(config);
                let mut p = Tensor::from_slice(&values(0.3));
                let (mut want_p, mut want_v) = (p.clone(), Tensor::zeros(p.shape()));
                for step in 0..4 {
                    let g = Tensor::from_slice(&values(step as f32 + 1.0));
                    opt.step(&mut [&mut p], &[&g]).unwrap();
                    reference_step(&config, &mut want_v, &mut want_p, &g);
                    assert_eq!(bits(&p), bits(&want_p), "b={momentum} wd={weight_decay}");
                    assert_eq!(bits(&opt.velocities()[0]), bits(&want_v), "velocity");
                }
            }
        }
    }

    #[test]
    fn step_decay_schedule() {
        let s = LrSchedule::StepDecay {
            gamma: 0.5,
            every: 10,
        };
        assert_eq!(s.factor(0), 1.0);
        assert_eq!(s.factor(9), 1.0);
        assert_eq!(s.factor(10), 0.5);
        assert_eq!(s.factor(25), 0.25);
        let c = LrSchedule::Constant;
        assert_eq!(c.factor(1000), 1.0);
        let it = LrSchedule::InverseTime { decay: 1.0 };
        assert!((it.factor(1) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn velocity_flat_concatenates() {
        let mut opt = Sgd::with_learning_rate(0.1);
        let mut a = Tensor::from_slice(&[1.0, 2.0]);
        let mut b = Tensor::from_slice(&[3.0]);
        let ga = Tensor::from_slice(&[1.0, 1.0]);
        let gb = Tensor::from_slice(&[1.0]);
        opt.step(&mut [&mut a, &mut b], &[&ga, &gb]).unwrap();
        assert_eq!(opt.velocity_flat().len(), 3);
    }

    #[test]
    fn mismatched_inputs_are_rejected() {
        let mut opt = Sgd::with_learning_rate(0.1);
        let mut p = Tensor::from_slice(&[1.0]);
        let g_bad = Tensor::from_slice(&[1.0, 2.0]);
        assert!(opt.step(&mut [&mut p], &[&g_bad]).is_err());
        let g = Tensor::from_slice(&[1.0]);
        assert!(opt.step(&mut [&mut p], &[&g, &g]).is_err());
    }

    #[test]
    fn reset_clears_state() {
        let mut opt = Sgd::with_learning_rate(0.1);
        let mut p = Tensor::from_slice(&[1.0]);
        let g = Tensor::from_slice(&[1.0]);
        opt.step(&mut [&mut p], &[&g]).unwrap();
        opt.reset();
        assert_eq!(opt.step_count(), 0);
        assert!(opt.velocities().is_empty());
    }

    #[test]
    fn converges_on_quadratic() {
        // Minimise f(x) = (x - 3)^2 with gradient 2(x - 3).
        let mut opt = Sgd::new(SgdConfig {
            learning_rate: 0.1,
            momentum: 0.9,
            weight_decay: 0.0,
            schedule: LrSchedule::Constant,
        });
        let mut x = Tensor::from_slice(&[-5.0]);
        for _ in 0..200 {
            let g = Tensor::from_slice(&[2.0 * (x.data()[0] - 3.0)]);
            opt.step(&mut [&mut x], &[&g]).unwrap();
        }
        assert!((x.data()[0] - 3.0).abs() < 0.05, "x = {}", x.data()[0]);
    }
}
