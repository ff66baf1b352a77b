//! # dtrain-faults
//!
//! Deterministic fault injection for distributed-training experiments, and
//! what the simulator and both real paths share beneath it: the [`Algo`]
//! vocabulary, the membership view, and the server side of every exchange,
//! the [`Hub`] over one [`PsState`].

mod algo;
pub mod chaos;
mod checkpoint;
pub mod hub;
pub mod markers;
mod membership;
mod ps;
mod schedule;

pub use algo::Algo;
pub use chaos::{
    bursty_trace, busy_signals, jitter_trace, merge, straggle_ratio, wan_squeeze_trace, Adaptive,
    ChaosAction, ChaosSpec, ChaosTraceCfg, CtrlAction, CtrlPlan, CtrlSignals, DegradePolicy,
    SegmentReport,
};
pub use checkpoint::{CheckpointStore, WorkerCheckpoint, MAX_VERSIONS, PS_OWNER};
pub use hub::Hub;
pub use membership::{ElasticConfig, ElasticRuntime, MembershipView};
pub use ps::PsState;
pub use schedule::{FaultEvent, FaultKind, FaultPlan, FaultSchedule, RuntimeFaultSchedule};
