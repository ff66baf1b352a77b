//! # dtrain-algos
//!
//! The primary contribution of the reproduced paper, rebuilt in Rust: a
//! unified, fair implementation of seven distributed data-parallel training
//! algorithms —
//!
//! | centralized | decentralized |
//! |---|---|
//! | BSP (synchronous, + local aggregation) | AR-SGD (ring AllReduce) |
//! | ASP (asynchronous)                     | GoSGD (asymmetric gossip) |
//! | SSP (stale-synchronous, threshold *s*) | AD-PSGD (bipartite exchange) |
//! | EASGD (elastic averaging, period *τ*)  | |
//!
//! — plus the three optimization techniques (parameter sharding, wait-free
//! backpropagation, deep gradient compression), all running as deterministic
//! processes over the [`dtrain_desim`] kernel with the [`dtrain_cluster`]
//! network/GPU models. Runs are either *accuracy experiments* (real SGD on a
//! small model, virtual clock from the full-size profile) or *performance
//! experiments* (cost-only, full ResNet-50/VGG-16 profiles).
//!
//! Entry point: build a [`RunConfig`] and call [`run`].
//!
//! Inside: `runner` assembles a run; `exec` holds the messages, the
//! per-worker state, the one worker loop (`run_worker` over a `Body`) and
//! the one charged-send primitive (`WorkerCore::send`, with the table of
//! which site charges what); `centralized` is the PS process and `PsBody`,
//! the four centralized algorithms' steps; `decentralized` is `ArSgd`,
//! `GoSgd` and the two AD-PSGD roles; `collective` is the per-machine
//! engine of the hierarchical schedules.

pub mod adaptive;
mod centralized;
mod collective;
mod config;
pub mod cost;
mod decentralized;
mod exec;
mod runner;

pub use adaptive::{run_adaptive, AdaptiveRunOutput};
pub use config::{
    FaultConfig, OptimizationConfig, RealTraining, RunConfig, StopCondition, SyntheticTask,
};
pub use dtrain_faults::Algo;
pub use exec::{
    build_worker_cores, shard_tensor_indices, slice_set, unslice_set, GradData, Msg, Recorder,
    Snapshot, WorkerCore,
};
pub use runner::{run, run_observed, run_traced, EpochPoint, RunOutput};
