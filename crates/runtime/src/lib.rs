//! # dtrain-runtime
//!
//! Real multi-threaded data-parallel training: the same seven algorithms
//! as the simulator (`dtrain-algos`), named by the same
//! [`dtrain_faults::Algo`], executed on OS threads over shared memory and
//! channels. Use this to actually train a model on a multi-core machine;
//! use the simulator when you need the paper's cluster timing model or
//! deterministic replay.
//!
//! ```
//! use std::sync::Arc;
//! use dtrain_data::{teacher_task, TeacherTaskConfig};
//! use dtrain_models::default_mlp;
//! use dtrain_runtime::{train_threaded, ThreadedConfig};
//!
//! let (train, test) = teacher_task(&TeacherTaskConfig {
//!     train_size: 512, test_size: 128, ..Default::default()
//! });
//! let train = Arc::new(train);
//! let report = train_threaded(
//!     || default_mlp(10, 7),
//!     &train,
//!     &test,
//!     &ThreadedConfig { workers: 2, epochs: 3, ..Default::default() },
//! );
//! assert!(report.final_accuracy > 0.1);
//! ```

pub mod adaptive;
pub mod backend;
pub mod collective;
mod engine;
pub mod hub;
mod strategy;
pub mod sync;
mod worker;

pub use adaptive::{train_adaptive, AdaptiveThreadedReport};
pub use backend::{BspOutcome, ExecBackend, PeerRequest, ReplyToken, RunPlan};
pub use collective::hier_bsp_exchange;
/// The algorithm vocabulary under its former real-path name, kept only for
/// `perf/`, which still spells it.
pub use dtrain_faults::Algo as Strategy;
pub use engine::{
    default_workers, train_threaded, train_threaded_observed, RuntimeFaultConfig, ThreadedConfig,
    ThreadedReport,
};
pub use hub::Hub;
pub use strategy::PsState;
pub use sync::ElasticBarrier;
pub use worker::{worker_body, WorkerOutcome};
