//! # dtrain-faults
//!
//! Deterministic fault injection for distributed-training experiments, and
//! the [`Algo`] vocabulary the simulator and both real paths share.

mod algo;
pub mod chaos;
mod checkpoint;
pub mod markers;
mod membership;
mod schedule;

pub use algo::Algo;
pub use chaos::{
    bursty_trace, busy_signals, jitter_trace, merge, straggle_ratio, wan_squeeze_trace, Adaptive,
    ChaosAction, ChaosSpec, ChaosTraceCfg, CtrlAction, CtrlPlan, CtrlSignals, DegradePolicy,
    SegmentReport,
};
pub use checkpoint::{CheckpointStore, WorkerCheckpoint, MAX_VERSIONS};
pub use membership::{ElasticConfig, ElasticRuntime, MembershipView};
pub use schedule::{FaultEvent, FaultKind, FaultPlan, FaultSchedule, RuntimeFaultSchedule};
