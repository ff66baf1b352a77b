//! # dtrain-faults
//!
//! Deterministic fault injection for distributed-training experiments.

pub mod chaos;
mod checkpoint;
pub mod markers;
mod membership;
mod schedule;

pub use chaos::{
    bursty_trace, busy_signals, jitter_trace, merge, straggle_ratio, wan_squeeze_trace, Adaptive,
    ChaosAction, ChaosSpec, ChaosTraceCfg, CtrlAction, CtrlPlan, CtrlSignals, DegradePolicy,
    SegmentReport,
};
pub use checkpoint::{CheckpointStore, WorkerCheckpoint, MAX_VERSIONS};
pub use membership::{is_connected, ElasticConfig, GangView, MemberState, MembershipView};
pub use schedule::{
    FaultEvent, FaultKind, FaultPlan, FaultSchedule, RecoveryPolicy, RuntimeFaultSchedule,
};
