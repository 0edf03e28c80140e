//! The parameter server.
//!
//! The paper's server is a small Python HTTP service: devices upload a 2.5 MB
//! model file after each local epoch and the server *replaces* its current
//! copy of the global model (ASync-SGD); for the Sync-SGD baseline the server
//! averages the parameters of all participants (FedAvg). The server also
//! supplies each device with its current lag, which is the only piece of
//! cross-device information the distributed online scheduler needs
//! (Algorithm 2, line 4).
//!
//! The server only stores and merges. Each apply returns the version it
//! produced, and the caller records what happened: the simulation engine
//! traces the merges and rounds of a run, the `fedco-server` core its pushes.

use std::sync::Mutex;

use fedco_neural::model::ParamVector;
use fedco_neural::tensor::TensorError;

use crate::aggregation::AsyncUpdateRule;
use crate::model_state::{LocalUpdate, ModelSnapshot, ModelVersion};
use crate::momentum::MomentumTracker;
use crate::staleness::Lag;

/// Statistics the server keeps about applied updates.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServerStats {
    /// Total number of asynchronous updates applied.
    pub async_updates: u64,
    /// Total number of synchronous aggregation rounds.
    pub sync_rounds: u64,
    /// Sum of lags of all applied asynchronous updates.
    pub total_lag: u64,
    /// Largest lag observed.
    pub max_lag: u64,
}

impl ServerStats {
    /// Mean lag over the applied asynchronous updates.
    pub fn mean_lag(&self) -> f64 {
        if self.async_updates == 0 {
            0.0
        } else {
            self.total_lag as f64 / self.async_updates as f64
        }
    }
}

/// A thread-safe parameter server.
#[derive(Debug)]
pub struct ParameterServer {
    inner: Mutex<ServerInner>,
}

#[derive(Debug)]
struct ServerInner {
    params: ParamVector,
    version: ModelVersion,
    momentum: MomentumTracker,
    stats: ServerStats,
}

impl ParameterServer {
    /// The single audited lock acquisition: the mutex is only poisoned if a
    /// holder panicked mid-update, after which the global model state is
    /// unreliable and propagating the panic is the only honest response.
    fn locked(&self) -> std::sync::MutexGuard<'_, ServerInner> {
        // fedco-audit: allow(panic-surface): poisoned lock means an update already panicked; propagate
        self.inner.lock().expect("server mutex poisoned")
    }

    /// Creates a server holding the initial global model.
    ///
    /// `rule` is the paper's replace-on-receive, the one rule there is.
    /// `learning_rate` and `beta` parameterise the momentum tracker used for
    /// weight prediction (Eq. 3); they should match the clients' optimiser.
    pub fn new(initial: ParamVector, rule: AsyncUpdateRule, learning_rate: f32, beta: f32) -> Self {
        let AsyncUpdateRule::Replace = rule;
        ParameterServer {
            inner: Mutex::new(ServerInner {
                params: initial,
                version: ModelVersion::INITIAL,
                momentum: MomentumTracker::new(beta, learning_rate),
                stats: ServerStats::default(),
            }),
        }
    }

    /// The current global version.
    pub fn version(&self) -> ModelVersion {
        self.locked().version
    }

    /// Downloads the current global model (what `FileDownloadService` does in
    /// the paper's implementation).
    pub fn download(&self) -> ModelSnapshot {
        let inner = self.locked();
        ModelSnapshot::new(inner.params.clone(), inner.version)
    }

    /// The L2 norm of the server-side momentum vector `v_t` (Eq. 1), used by
    /// devices to evaluate the gradient-gap prediction of Eq. (4).
    pub fn momentum_norm(&self) -> f32 {
        self.locked().momentum.velocity_norm()
    }

    /// Applies one asynchronous update (ASync-SGD): the global copy is
    /// replaced with the uploaded parameters and the version is bumped.
    ///
    /// Returns the lag the update experienced and the version it produced.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the uploaded vector has the
    /// wrong length.
    pub fn apply_async(&self, update: &LocalUpdate) -> Result<(Lag, ModelVersion), TensorError> {
        let mut inner = self.locked();
        if update.params.len() != inner.params.len() {
            return Err(TensorError::ShapeMismatch {
                lhs: vec![update.params.len()],
                rhs: vec![inner.params.len()],
                op: "server_apply_async",
            });
        }
        let lag = Lag::between(update.base_version, inner.version);
        let inner = &mut *inner;
        inner
            .momentum
            .observe_merge(&mut inner.params, &update.params, |_, l| l)?;
        inner.version = inner.version.next();
        inner.stats.async_updates += 1;
        inner.stats.total_lag += lag.value();
        inner.stats.max_lag = inner.stats.max_lag.max(lag.value());
        Ok((lag, inner.version))
    }

    /// Applies one synchronous aggregation round (FedAvg): the global model
    /// becomes the sample-weighted average of the submitted local models.
    /// Returns the version the round produced.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError`] when no updates are supplied or lengths
    /// mismatch.
    pub fn apply_sync_round(&self, updates: &[LocalUpdate]) -> Result<ModelVersion, TensorError> {
        if updates.is_empty() {
            return Err(TensorError::LengthMismatch {
                expected: 1,
                actual: 0,
            });
        }
        let weights: Vec<f32> = updates
            .iter()
            .map(|u| u.num_samples.max(1) as f32)
            .collect();
        let averaged = ParamVector::weighted_average(updates.iter().map(|u| &u.params), &weights)?;
        let mut inner = self.locked();
        if averaged.len() != inner.params.len() {
            return Err(TensorError::ShapeMismatch {
                lhs: vec![averaged.len()],
                rhs: vec![inner.params.len()],
                op: "server_apply_sync",
            });
        }
        let inner = &mut *inner;
        inner
            .momentum
            .observe_merge(&mut inner.params, &averaged, |_, a| a)?;
        inner.version = inner.version.next();
        inner.stats.sync_rounds += 1;
        Ok(inner.version)
    }

    /// A copy of the current statistics.
    pub fn stats(&self) -> ServerStats {
        self.locked().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn update(id: usize, params: Vec<f32>, base: ModelVersion, samples: usize) -> LocalUpdate {
        LocalUpdate {
            client_id: id,
            params: ParamVector::new(params),
            base_version: base,
            num_samples: samples,
            train_loss: 1.0,
            train_accuracy: 0.5,
        }
    }

    fn server() -> ParameterServer {
        ParameterServer::new(ParamVector::zeros(3), AsyncUpdateRule::Replace, 0.1, 0.9)
    }

    #[test]
    fn download_returns_initial_model() {
        let s = server();
        let snap = s.download();
        assert_eq!(snap.version, ModelVersion::INITIAL);
        assert_eq!(snap.params, ParamVector::zeros(3));
        assert_eq!(s.momentum_norm(), 0.0);
    }

    #[test]
    fn async_update_replaces_and_bumps_version() {
        let s = server();
        let base = s.version();
        let applied = s
            .apply_async(&update(0, vec![1.0, 2.0, 3.0], base, 10))
            .unwrap();
        assert_eq!(applied, (Lag::ZERO, ModelVersion(1)));
        assert_eq!(s.version(), ModelVersion(1));
        assert_eq!(s.download().params.values(), &[1.0, 2.0, 3.0]);
        assert!(s.momentum_norm() > 0.0);
    }

    #[test]
    fn lag_counts_interleaved_updates() {
        let s = server();
        let base_i = s.version();
        // Two other users (j, k) update while user i is waiting — Fig. 3.
        s.apply_async(&update(1, vec![1.0, 0.0, 0.0], s.version(), 10))
            .unwrap();
        s.apply_async(&update(2, vec![0.0, 1.0, 0.0], s.version(), 10))
            .unwrap();
        assert_eq!(Lag::between(base_i, s.version()), Lag(2));
        let applied_i = s
            .apply_async(&update(0, vec![0.0, 0.0, 1.0], base_i, 10))
            .unwrap();
        assert_eq!(applied_i, (Lag(2), ModelVersion(3)));
        let stats = s.stats();
        assert_eq!(stats.async_updates, 3);
        assert_eq!(stats.max_lag, 2);
        assert!((stats.mean_lag() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn sync_round_averages_by_samples() {
        let s = server();
        let base = s.version();
        let version = s
            .apply_sync_round(&[
                update(0, vec![0.0, 0.0, 0.0], base, 10),
                update(1, vec![4.0, 4.0, 4.0], base, 30),
            ])
            .unwrap();
        assert_eq!(s.download().params.values(), &[3.0, 3.0, 3.0]);
        assert_eq!(version, ModelVersion(1));
        assert_eq!(s.version(), ModelVersion(1));
        assert_eq!(s.stats().sync_rounds, 1);
    }

    #[test]
    fn empty_sync_round_is_rejected() {
        let s = server();
        assert!(s.apply_sync_round(&[]).is_err());
    }

    #[test]
    fn wrong_length_updates_are_rejected() {
        let s = server();
        let bad = update(0, vec![1.0], s.version(), 10);
        assert!(s.apply_async(&bad).is_err());
        assert!(s.apply_sync_round(&[bad]).is_err());
    }

    #[test]
    fn stats_default_mean_lag_is_zero() {
        assert_eq!(ServerStats::default().mean_lag(), 0.0);
    }

    /// The fused apply against the clone-based one it replaced. `ci.sh` runs
    /// this module in `--release` too: the fused loop only vectorises there.
    mod reference_bits {
        use super::*;
        use fedco_rng::rngs::SmallRng;
        use fedco_rng::{Rng, SeedableRng};

        /// The server as it applied updates before the fused pass — the global
        /// model cloned twice and the upload once, three more vectors for the
        /// momentum step — bodies unchanged: the oracle of `reference_bits`.
        struct CloningServer {
            params: ParamVector,
            version: ModelVersion,
            rule: AsyncUpdateRule,
            momentum: MomentumTracker,
            stats: ServerStats,
        }

        fn weighted_average_cloning(
            vectors: &[ParamVector],
            weights: &[f32],
        ) -> Result<ParamVector, TensorError> {
            if vectors.is_empty() || vectors.len() != weights.len() {
                return Err(TensorError::ShapeMismatch {
                    lhs: vec![vectors.len()],
                    rhs: vec![weights.len()],
                    op: "weighted_average",
                });
            }
            let total: f32 = weights.iter().sum();
            let mut out = ParamVector::zeros(vectors[0].len());
            for (v, &w) in vectors.iter().zip(weights) {
                out.add_scaled(
                    v,
                    if total > 0.0 {
                        w / total
                    } else {
                        1.0 / vectors.len() as f32
                    },
                )?;
            }
            Ok(out)
        }

        impl CloningServer {
            fn new(
                initial: ParamVector,
                rule: AsyncUpdateRule,
                learning_rate: f32,
                beta: f32,
            ) -> Self {
                CloningServer {
                    params: initial,
                    version: ModelVersion::INITIAL,
                    rule,
                    momentum: MomentumTracker::new(beta, learning_rate),
                    stats: ServerStats::default(),
                }
            }

            fn apply_async(&mut self, update: &LocalUpdate) -> Result<Lag, TensorError> {
                let inner = self;
                if update.params.len() != inner.params.len() {
                    return Err(TensorError::ShapeMismatch {
                        lhs: vec![update.params.len()],
                        rhs: vec![inner.params.len()],
                        op: "server_apply_async",
                    });
                }
                let lag = Lag::between(update.base_version, inner.version);
                let old = inner.params.clone();
                let new_params = inner.rule.merge(&inner.params, &update.params)?;
                inner.params = new_params;
                let new = inner.params.clone();
                inner.momentum.observe_transition(&old, &new)?;
                inner.version = inner.version.next();
                inner.stats.async_updates += 1;
                inner.stats.total_lag += lag.value();
                inner.stats.max_lag = inner.stats.max_lag.max(lag.value());
                Ok(lag)
            }

            fn apply_sync_round(&mut self, updates: &[LocalUpdate]) -> Result<(), TensorError> {
                if updates.is_empty() {
                    return Err(TensorError::LengthMismatch {
                        expected: 1,
                        actual: 0,
                    });
                }
                let vectors: Vec<ParamVector> = updates.iter().map(|u| u.params.clone()).collect();
                let weights: Vec<f32> = updates
                    .iter()
                    .map(|u| u.num_samples.max(1) as f32)
                    .collect();
                let averaged = weighted_average_cloning(&vectors, &weights)?;
                let inner = self;
                if averaged.len() != inner.params.len() {
                    return Err(TensorError::ShapeMismatch {
                        lhs: vec![averaged.len()],
                        rhs: vec![inner.params.len()],
                        op: "server_apply_sync",
                    });
                }
                let old = inner.params.clone();
                inner.params = averaged;
                let new = inner.params.clone();
                inner.momentum.observe_transition(&old, &new)?;
                inner.version = inner.version.next();
                inner.stats.sync_rounds += 1;
                Ok(())
            }
        }

        /// The bit pattern, with every NaN folded onto one: Rust leaves the sign
        /// and payload of a NaN *result* unspecified, and when an element's
        /// velocity is already NaN and its new step is `∞ − ∞` the same source
        /// expression yields `0x7fc00000` or `0xffc00000` by which operand the
        /// compiler happened to put first — in the oracle as much as here. Which
        /// elements are NaN, and every other bit, is exact.
        fn bits(x: f32) -> u32 {
            if x.is_nan() {
                f32::NAN.to_bits()
            } else {
                x.to_bits()
            }
        }

        /// Bit equality, naming the first element that differs.
        fn assert_same_bits(fused: &ParamVector, oracle: &ParamVector, what: &str) {
            assert_eq!(fused.len(), oracle.len(), "{what}: length");
            for (i, (&f, &o)) in fused.values().iter().zip(oracle.values()).enumerate() {
                let (f, o) = (bits(f), bits(o));
                assert_eq!(f, o, "{what}: element {i} is {f:#x}, the oracle has {o:#x}");
            }
        }

        /// Model, velocity and norm bit for bit; version and statistics equal.
        fn assert_same_state(fused: &ParameterServer, oracle: &CloningServer, what: &str) {
            let inner = fused.locked();
            assert_same_bits(&inner.params, &oracle.params, &format!("{what}: model"));
            match (inner.momentum.velocity(), oracle.momentum.velocity()) {
                (Some(fused), Some(oracle)) => {
                    assert_same_bits(fused, oracle, &format!("{what}: velocity"))
                }
                (fused, oracle) => assert_eq!(fused, oracle, "{what}: velocity"),
            }
            assert_eq!(
                bits(inner.momentum.velocity_norm()),
                bits(oracle.momentum.velocity_norm()),
                "{what}: momentum norm"
            );
            assert_eq!(inner.momentum.updates(), oracle.momentum.updates());
            assert_eq!(inner.version, oracle.version, "{what}: version");
            assert_eq!(inner.stats, oracle.stats, "{what}: stats");
        }

        /// Mostly ordinary weights, with every value class arithmetic treats
        /// specially mixed in: signed zeros, subnormals, infinities, NaN.
        fn awkward_values(rng: &mut SmallRng, len: usize) -> Vec<f32> {
            const SPECIAL: [f32; 8] = [
                0.0,
                -0.0,
                f32::MIN_POSITIVE / 2.0,
                -1.0e-41,
                f32::from_bits(1),
                f32::INFINITY,
                f32::NEG_INFINITY,
                f32::NAN,
            ];
            (0..len)
                .map(|_| {
                    if rng.gen_range(0..8usize) == 0 {
                        SPECIAL[rng.gen_range(0..SPECIAL.len())]
                    } else {
                        rng.gen_range(-2.0..2.0f32)
                    }
                })
                .collect()
        }

        const LENGTHS: [usize; 4] = [0, 1, 8, 3_418];

        #[test]
        fn apply_async_matches_the_cloning_server() {
            let mut rng = SmallRng::seed_from_u64(0xA5_1C);
            let rule = AsyncUpdateRule::Replace;
            for len in LENGTHS {
                let initial = ParamVector::new(awkward_values(&mut rng, len));
                let fused = ParameterServer::new(initial.clone(), rule, 0.01, 0.9);
                let mut oracle = CloningServer::new(initial, rule, 0.01, 0.9);
                // First and later updates, at lags 0, 1 and 9 once the server
                // has the history for them; every fourth upload is the model
                // the server already holds.
                for (k, want_lag) in [0u64, 0, 1, 9, 1, 0, 9, 9, 1, 0, 9, 9]
                    .into_iter()
                    .enumerate()
                {
                    let base = ModelVersion(oracle.version.0.saturating_sub(want_lag));
                    let params = if k % 4 == 3 {
                        oracle.params.values().to_vec()
                    } else {
                        awkward_values(&mut rng, len)
                    };
                    let upload = update(k, params, base, 32);
                    let what = format!("{rule:?} len {len} update {k}");
                    assert_eq!(
                        fused.apply_async(&upload),
                        oracle.apply_async(&upload).map(|lag| (lag, oracle.version)),
                        "{what}: lag"
                    );
                    assert_same_state(&fused, &oracle, &what);
                }
                assert_eq!(oracle.stats.max_lag, 9);
                let wrong = update(0, vec![1.0; len + 1], ModelVersion(0), 1);
                assert_eq!(
                    fused.apply_async(&wrong),
                    oracle.apply_async(&wrong).map(|lag| (lag, oracle.version))
                );
                assert!(fused.apply_async(&wrong).is_err());
                assert_same_state(&fused, &oracle, "after a refused upload");
            }
        }

        #[test]
        fn apply_sync_round_matches_the_cloning_server() {
            let mut rng = SmallRng::seed_from_u64(0x5C_0DE);
            for len in LENGTHS {
                let initial = ParamVector::new(awkward_values(&mut rng, len));
                let fused =
                    ParameterServer::new(initial.clone(), AsyncUpdateRule::Replace, 0.01, 0.9);
                let mut oracle = CloningServer::new(initial, AsyncUpdateRule::Replace, 0.01, 0.9);
                for (round, participants) in [1usize, 3, 2, 5].into_iter().enumerate() {
                    let updates: Vec<LocalUpdate> = (0..participants)
                        .map(|k| {
                            // A zero sample count is weighted as one.
                            let samples = rng.gen_range(0..64usize);
                            update(k, awkward_values(&mut rng, len), oracle.version, samples)
                        })
                        .collect();
                    assert_eq!(
                        fused.apply_sync_round(&updates),
                        oracle.apply_sync_round(&updates).map(|()| oracle.version)
                    );
                    assert_same_state(&fused, &oracle, &format!("len {len} round {round}"));
                    // An asynchronous update between rounds shares the velocity.
                    let upload = update(9, awkward_values(&mut rng, len), oracle.version, 8);
                    assert_eq!(
                        fused.apply_async(&upload),
                        oracle.apply_async(&upload).map(|lag| (lag, oracle.version))
                    );
                    assert_same_state(&fused, &oracle, &format!("len {len} after round {round}"));
                }
                let base = oracle.version;
                let ragged = [
                    update(0, vec![1.0; len], base, 4),
                    update(1, vec![1.0; len + 1], base, 4),
                ];
                let too_long = [update(0, vec![1.0; len + 2], base, 4)];
                for refused in [&ragged[..], &too_long[..], &[]] {
                    let err = fused.apply_sync_round(refused);
                    assert!(err.is_err());
                    assert_eq!(
                        err,
                        oracle.apply_sync_round(refused).map(|()| oracle.version)
                    );
                }
                assert_same_state(&fused, &oracle, "after refused rounds");
            }
        }

        #[test]
        fn an_unchanged_model_decays_to_the_same_subnormal_fixed_point() {
            // Re-applying the model the server holds makes every step zero, so
            // the velocity only decays: v <- 0.9 v, which in f32 stops at four
            // units of the last subnormal place (3.6 rounds back up to 4). The
            // fused loop must go through the same subnormals to the same point.
            let mut rng = SmallRng::seed_from_u64(7);
            let initial = ParamVector::zeros(8);
            let fused = ParameterServer::new(initial.clone(), AsyncUpdateRule::Replace, 0.01, 0.9);
            let mut oracle = CloningServer::new(initial, AsyncUpdateRule::Replace, 0.01, 0.9);
            let moved: Vec<f32> = (0..8).map(|_| rng.gen_range(0.5..2.0f32)).collect();
            for k in 0..1_400 {
                let upload = update(0, moved.clone(), oracle.version, 32);
                assert_eq!(
                    fused.apply_async(&upload),
                    oracle.apply_async(&upload).map(|lag| (lag, oracle.version))
                );
                if k % 100 == 0 {
                    assert_same_state(&fused, &oracle, &format!("repeat {k}"));
                }
            }
            assert_same_state(&fused, &oracle, "at the fixed point");
            let inner = fused.locked();
            let velocity = inner.momentum.velocity().expect("updates were applied");
            assert!(velocity.values().iter().all(|v| v.to_bits() == 0x8000_0004));
        }
    }
}
