//! A [`ModelService`] backed by a wire-protocol transport.
//!
//! [`RemoteModelService`] lets the simulation engine run against a live
//! `fedco-server` instead of its in-process [`ParameterServer`]: plug it in
//! through `Simulation::with_model_service` and every aggregation call
//! crosses the wire. Over the deterministic channel transport against an
//! inline-ingress core, the served run reproduces the batch run bit-for-bit
//! — the server-equivalence test pins that down.
//!
//! The trait's error type is [`TensorError`] (the engine's typed error
//! flow); wire-level failures have no representation there, and by the time
//! one occurs the global training state is unknown, so transport failures
//! propagate as panics — annotated below, and unreachable over the channel
//! transport, which cannot fail.
//!
//! [`ParameterServer`]: fedco_fl::ParameterServer

use std::sync::Mutex;

use fedco_fl::model_state::{LocalUpdate, ModelSnapshot, ModelVersion};
use fedco_fl::server::ServerStats;
use fedco_fl::service::ModelService;
use fedco_fl::staleness::Lag;
use fedco_neural::model::ParamVector;
use fedco_neural::tensor::TensorError;

use crate::protocol::{Message, Refusal, WireError, WireUpdate};
use crate::transport::Transport;

/// A parameter-server client speaking the wire protocol through any
/// [`Transport`].
#[derive(Debug)]
pub struct RemoteModelService {
    transport: Mutex<Box<dyn Transport>>,
    session: u64,
    model_len: usize,
}

impl RemoteModelService {
    /// Joins the server and opens the session all subsequent calls use.
    ///
    /// # Errors
    ///
    /// A refused join or transport failure surfaces as a [`WireError`].
    pub fn connect(mut transport: Box<dyn Transport>, client: u64) -> Result<Self, WireError> {
        match transport.request(&Message::Hello { client })? {
            Message::Welcome {
                session, model_len, ..
            } => Ok(RemoteModelService {
                transport: Mutex::new(transport),
                session,
                model_len: model_len as usize,
            }),
            Message::JoinRefused { reason } => Err(WireError::BadPayload(format!(
                "join refused: {}",
                reason.label()
            ))),
            other => Err(WireError::BadPayload(format!(
                "unexpected join reply `{}`",
                other.name()
            ))),
        }
    }

    /// The session this client was granted.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Sends a heartbeat; returns the server's logical tick.
    ///
    /// # Errors
    ///
    /// [`WireError`] on transport failure or an expired session.
    pub fn heartbeat(&self) -> Result<u64, WireError> {
        match self.request(&Message::Heartbeat {
            session: self.session,
        }) {
            Message::HeartbeatAck { tick } => Ok(tick),
            other => Err(WireError::BadPayload(format!(
                "unexpected heartbeat reply `{}`",
                other.name()
            ))),
        }
    }

    /// The server's aggregation statistics.
    ///
    /// # Errors
    ///
    /// [`WireError::BadPayload`] when the reply is not the statistics.
    pub fn stats(&self) -> Result<ServerStats, WireError> {
        match self.request(&Message::QueryStats) {
            Message::StatsIs {
                async_updates,
                sync_rounds,
                total_lag,
                max_lag,
            } => Ok(ServerStats {
                async_updates,
                sync_rounds,
                total_lag,
                max_lag,
            }),
            other => Err(WireError::BadPayload(format!(
                "unexpected stats reply `{}`",
                other.name()
            ))),
        }
    }

    /// Closes the session.
    ///
    /// # Errors
    ///
    /// [`WireError`] on transport failure.
    pub fn leave(mut self) -> Result<(), WireError> {
        let msg = Message::Leave {
            session: self.session,
        };
        // fedco-audit: allow(panic-surface): poisoned transport mutex means a request already panicked; propagate
        let t = self.transport.get_mut().expect("transport mutex poisoned");
        let reply = t.request(&msg)?;
        match reply {
            Message::LeaveOk | Message::PushRefused { .. } => Ok(()),
            other => Err(WireError::BadPayload(format!(
                "unexpected leave reply `{}`",
                other.name()
            ))),
        }
    }

    /// One request over the shared transport; transport failures are
    /// terminal for the engine seam (see the module docs).
    fn request(&self, msg: &Message) -> Message {
        // fedco-audit: allow(panic-surface): poisoned transport mutex means a request already panicked; propagate
        let mut transport = self.transport.lock().expect("transport mutex poisoned");
        match transport.request(msg) {
            Ok(reply) => reply,
            // fedco-audit: allow(panic-surface): wire failure mid-run leaves training state unknown; unreachable over the channel transport
            Err(e) => panic!("model-service transport failure on {}: {e}", msg.name()),
        }
    }
}

impl ModelService for RemoteModelService {
    fn download(&self) -> ModelSnapshot {
        match self.request(&Message::PullModel {
            session: self.session,
        }) {
            Message::Model { version, params } => {
                ModelSnapshot::new(ParamVector::new(params), ModelVersion(version))
            }
            // fedco-audit: allow(panic-surface): protocol violation by the server is terminal for the engine seam
            other => panic!("unexpected pull reply `{}`", other.name()),
        }
    }

    fn momentum_norm(&self) -> f32 {
        match self.request(&Message::QueryNorm) {
            Message::NormIs { bits } => f32::from_bits(bits),
            // fedco-audit: allow(panic-surface): protocol violation by the server is terminal for the engine seam
            other => panic!("unexpected norm reply `{}`", other.name()),
        }
    }

    fn apply_async(&self, update: &LocalUpdate) -> Result<(Lag, ModelVersion), TensorError> {
        let reply = self.request(&Message::PushUpdate {
            session: self.session,
            update: local_to_wire(update),
        });
        match reply {
            Message::PushApplied { lag, version } => Ok((Lag(lag), ModelVersion(version))),
            Message::PushRefused {
                reason: Refusal::WrongModelLen,
            } => Err(TensorError::ShapeMismatch {
                lhs: vec![update.params.len()],
                rhs: vec![self.model_len],
                op: "remote_apply_async",
            }),
            // Queued replies mean the server is not in inline-ingress mode —
            // a deployment mismatch for the engine seam, not a data error.
            // fedco-audit: allow(panic-surface): engine seam requires inline ingress; any other reply is a deployment misconfiguration
            other => panic!("unexpected push reply `{}`", other.name()),
        }
    }

    fn apply_sync_round(&self, updates: &[LocalUpdate]) -> Result<ModelVersion, TensorError> {
        let reply = self.request(&Message::PushRound {
            session: self.session,
            updates: updates.iter().map(local_to_wire).collect(),
        });
        match reply {
            Message::RoundOk { version } => Ok(ModelVersion(version)),
            Message::PushRefused {
                reason: Refusal::BadRequest,
            } => Err(TensorError::LengthMismatch {
                expected: 1,
                actual: 0,
            }),
            Message::PushRefused {
                reason: Refusal::WrongModelLen,
            } => Err(TensorError::ShapeMismatch {
                lhs: vec![updates.first().map_or(0, |u| u.params.len())],
                rhs: vec![self.model_len],
                op: "remote_apply_sync",
            }),
            // fedco-audit: allow(panic-surface): protocol violation by the server is terminal for the engine seam
            other => panic!("unexpected round reply `{}`", other.name()),
        }
    }
}

fn local_to_wire(update: &LocalUpdate) -> WireUpdate {
    WireUpdate {
        client: update.client_id as u64,
        base_version: update.base_version.0,
        num_samples: update.num_samples as u64,
        train_loss_bits: update.train_loss.to_bits(),
        train_accuracy_bits: update.train_accuracy.to_bits(),
        params: update.params.values().to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{ServerCore, ServerCoreConfig};
    use crate::transport::ChannelTransport;
    use std::sync::{Arc, Mutex as StdMutex};

    fn remote(len: usize) -> (RemoteModelService, Arc<StdMutex<ServerCore>>) {
        let core = Arc::new(StdMutex::new(ServerCore::new(
            ServerCoreConfig::inline_with_model(ParamVector::zeros(len)),
        )));
        let service =
            RemoteModelService::connect(Box::new(ChannelTransport::new(core.clone())), 0).unwrap();
        (service, core)
    }

    fn update(params: Vec<f32>) -> LocalUpdate {
        LocalUpdate {
            client_id: 0,
            params: ParamVector::new(params),
            base_version: ModelVersion::INITIAL,
            num_samples: 4,
            train_loss: 0.5,
            train_accuracy: 0.75,
        }
    }

    #[test]
    fn served_aggregation_matches_the_local_server_bit_for_bit() {
        use fedco_fl::aggregation::AsyncUpdateRule;
        use fedco_fl::ParameterServer;

        let (remote, _core) = remote(3);
        let local =
            ParameterServer::new(ParamVector::zeros(3), AsyncUpdateRule::Replace, 0.01, 0.9);
        for step in 0..5u32 {
            let u = update(vec![
                step as f32 * 0.25,
                -(step as f32),
                1.0 / (step + 1) as f32,
            ]);
            let applied_remote = remote.apply_async(&u).unwrap();
            let applied_local = local.apply_async(&u).unwrap();
            assert_eq!(applied_remote, applied_local);
        }
        let a = remote.download();
        let b = local.download();
        assert_eq!(a.version, b.version);
        for (x, y) in a.params.values().iter().zip(b.params.values()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(
            remote.momentum_norm().to_bits(),
            local.momentum_norm().to_bits()
        );
        assert_eq!(remote.stats().expect("stats reply"), local.stats());
    }

    #[test]
    fn wrong_length_and_empty_round_become_typed_tensor_errors() {
        let (remote, _core) = remote(3);
        assert!(matches!(
            remote.apply_async(&update(vec![1.0])),
            Err(TensorError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            remote.apply_sync_round(&[]),
            Err(TensorError::LengthMismatch { .. })
        ));
        let version = remote
            .apply_sync_round(&[update(vec![1.0, 2.0, 3.0])])
            .unwrap();
        assert_eq!(version, ModelVersion(1));
        assert_eq!(remote.stats().expect("stats reply").sync_rounds, 1);
    }

    /// Welcomes the client, then answers every other request with a norm.
    #[derive(Debug)]
    struct WrongStatsReply;

    impl Transport for WrongStatsReply {
        fn request(&mut self, msg: &Message) -> Result<Message, WireError> {
            Ok(match msg {
                Message::Hello { .. } => Message::Welcome {
                    session: 1,
                    model_version: 0,
                    model_len: 3,
                },
                _ => Message::NormIs { bits: 0 },
            })
        }
    }

    #[test]
    fn an_unexpected_stats_reply_is_a_typed_error() {
        let remote = RemoteModelService::connect(Box::new(WrongStatsReply), 0).unwrap();
        match remote.stats() {
            Err(WireError::BadPayload(why)) => assert!(why.contains("stats"), "{why}"),
            other => panic!("expected BadPayload, got {other:?}"),
        }
    }

    #[test]
    fn connect_surfaces_a_refused_join_and_leave_closes_the_session() {
        let core = Arc::new(StdMutex::new(ServerCore::new(ServerCoreConfig {
            session: crate::session::SessionConfig {
                heartbeat_timeout_ticks: 12,
                max_sessions: 1,
            },
            ..ServerCoreConfig::inline_with_model(ParamVector::zeros(2))
        })));
        let first =
            RemoteModelService::connect(Box::new(ChannelTransport::new(core.clone())), 1).unwrap();
        assert!(first.heartbeat().is_ok());
        let second = RemoteModelService::connect(Box::new(ChannelTransport::new(core.clone())), 2);
        assert!(second.is_err());
        first.leave().unwrap();
        assert_eq!(core.lock().unwrap().live_sessions(), 0);
        RemoteModelService::connect(Box::new(ChannelTransport::new(core.clone())), 2).unwrap();
    }
}
