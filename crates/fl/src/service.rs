//! The aggregation-service seam between the engine and a parameter server.
//!
//! The simulation engine only ever talks to the server through four calls —
//! download the model, query the momentum norm, apply an update (or a
//! synchronous round). [`ModelService`] captures exactly that surface so the
//! in-process [`ParameterServer`] and a remote service (the `fedco-server`
//! crate's wire-protocol client) are interchangeable: the engine is compiled
//! against the trait and a scenario can be replayed against a live service
//! bit-for-bit. The service only stores and merges; what a run records about
//! its merges and rounds, and how many it made, is the engine's.
//!
//! The engine reads the model once per version: it keeps one copy and
//! downloads it again only after it has applied an update or a round. That
//! holds because the engine is its service's only writer — nothing else moves
//! the version under it (the engine checks each returned version against its
//! own count in debug builds) — and a service swapped in through
//! `with_model_service` starts without a held copy.

use fedco_neural::tensor::TensorError;

use crate::model_state::{LocalUpdate, ModelSnapshot, ModelVersion};
use crate::server::ParameterServer;
use crate::staleness::Lag;

use fedco_neural::model::ParamVector;

use crate::aggregation::AsyncUpdateRule;

/// Everything needed to construct a [`ModelService`] equivalent to the
/// engine's default in-process [`ParameterServer`]. The engine hands this to
/// a service factory so a remote replacement starts from the same model and
/// momentum parameters as the server it displaces.
#[derive(Debug, Clone)]
pub struct ModelServiceInit {
    /// The initial global model.
    pub initial: ParamVector,
    /// The momentum tracker's learning rate (matches the clients').
    pub learning_rate: f32,
    /// The momentum tracker's decay factor β.
    pub momentum_beta: f32,
}

impl ModelServiceInit {
    /// Builds the default in-process server from this init.
    pub fn into_parameter_server(self) -> ParameterServer {
        ParameterServer::new(
            self.initial,
            AsyncUpdateRule::Replace,
            self.learning_rate,
            self.momentum_beta,
        )
    }
}

/// The aggregation surface the simulation engine requires of a parameter
/// server. Method signatures mirror [`ParameterServer`] exactly, so the
/// in-process server is the canonical implementation and every engine call
/// site is implementation-agnostic.
pub trait ModelService: Send + Sync + std::fmt::Debug {
    /// Downloads the current global model.
    fn download(&self) -> ModelSnapshot;

    /// The L2 norm of the server-side momentum vector (Eq. 1).
    fn momentum_norm(&self) -> f32;

    /// Applies one asynchronous update; returns the lag it experienced and
    /// the version it produced.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError`] when the uploaded vector has the wrong length.
    fn apply_async(&self, update: &LocalUpdate) -> Result<(Lag, ModelVersion), TensorError>;

    /// Applies one synchronous aggregation round (FedAvg); returns the
    /// version it produced.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError`] when no updates are supplied or lengths
    /// mismatch.
    fn apply_sync_round(&self, updates: &[LocalUpdate]) -> Result<ModelVersion, TensorError>;
}

impl ModelService for ParameterServer {
    fn download(&self) -> ModelSnapshot {
        ParameterServer::download(self)
    }

    fn momentum_norm(&self) -> f32 {
        ParameterServer::momentum_norm(self)
    }

    fn apply_async(&self, update: &LocalUpdate) -> Result<(Lag, ModelVersion), TensorError> {
        ParameterServer::apply_async(self, update)
    }

    fn apply_sync_round(&self, updates: &[LocalUpdate]) -> Result<ModelVersion, TensorError> {
        ParameterServer::apply_sync_round(self, updates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn init() -> ModelServiceInit {
        ModelServiceInit {
            initial: ParamVector::zeros(3),
            learning_rate: 0.1,
            momentum_beta: 0.9,
        }
    }

    #[test]
    fn parameter_server_behaves_identically_through_the_trait() {
        let direct = init().into_parameter_server();
        let boxed: Box<dyn ModelService> = Box::new(init().into_parameter_server());
        let update = LocalUpdate {
            client_id: 1,
            params: ParamVector::new(vec![1.0, 2.0, 3.0]),
            base_version: ModelVersion::INITIAL,
            num_samples: 10,
            train_loss: 1.0,
            train_accuracy: 0.5,
        };
        let applied_direct = direct.apply_async(&update).unwrap();
        let applied_boxed = boxed.apply_async(&update).unwrap();
        assert_eq!(applied_direct, applied_boxed);
        assert_eq!(direct.download(), boxed.download());
        assert_eq!(direct.momentum_norm(), boxed.momentum_norm());
    }
}
