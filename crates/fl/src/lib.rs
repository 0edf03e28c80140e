//! # fedco-fl
//!
//! Federated-learning substrate for the `fedco` reproduction of *"Energy
//! Minimization for Federated Asynchronous Learning on Battery-Powered
//! Mobile Devices via Application Co-running"* (ICDCS 2022).
//!
//! The crate provides the pieces the paper's system builds on top of:
//!
//! * a versioned [`ParameterServer`] with both the
//!   asynchronous replace-on-receive rule the paper implements and FedAvg
//!   aggregation for the Sync-SGD baseline,
//! * [`FlClient`] — an on-device trainer running local
//!   epochs of LeNet on its data shard, each a pure function of what the
//!   client captured for it, and the [`TrainingPool`] that computes them
//!   beside the simulation's slot loop,
//! * the staleness machinery of Section III: lag (Definition 1), gradient
//!   gap (Definition 2), momentum tracking (Eq. 1) and the linear weight
//!   prediction of Eq. (3)–(4),
//! * a transport model for the 2.5 MB model uploads.
//!
//! The users' data shards are the equal split of
//! [`Dataset::partition`](fedco_neural::data::Dataset::partition), the
//! paper's setting.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod aggregation;
pub mod client;
pub mod model_state;
pub mod momentum;
pub mod pool;
pub mod server;
pub mod service;
pub mod staleness;
pub mod transport;

pub use aggregation::AsyncUpdateRule;
pub use client::{ClientConfig, EpochOutcome, EpochTask, FlClient};
pub use model_state::{LocalUpdate, ModelSnapshot, ModelVersion};
pub use momentum::MomentumTracker;
pub use pool::TrainingPool;
pub use server::{ParameterServer, ServerStats};
pub use service::{ModelService, ModelServiceInit};
pub use staleness::{GradientGap, Lag, WeightPredictor};
pub use transport::{TransportModel, PAPER_MODEL_BYTES};
