//! # dtrain-core
//!
//! The public face of **dtrain**, a Rust reproduction of *"An In-Depth
//! Analysis of Distributed Training of Deep Neural Networks"* (Ko, Choi,
//! Seo, Kim — IPDPS 2021): seven distributed training algorithms, three
//! optimization techniques, and the full evaluation harness, built on a
//! deterministic discrete-event cluster simulator with real SGD math for
//! the accuracy experiments.
//!
//! ## Quickstart
//!
//! ```
//! use dtrain_core::prelude::*;
//!
//! // Train the synthetic task with BSP on 4 simulated workers.
//! let cfg = presets::accuracy_run(
//!     Algo::Bsp,
//!     4,
//!     &presets::AccuracyScale { epochs: 3, train_size: 512, test_size: 128,
//!                               batch: 32, base_lr: 0.02, seed: 7 },
//! );
//! let out = run(&cfg);
//! assert!(out.final_accuracy.unwrap() > 0.1);
//! println!("BSP reached {:.3} in {:.1} virtual seconds",
//!          out.final_accuracy.unwrap(), out.end_time.as_secs_f64());
//! ```
//!
//! The `dtrain-study` runner (crate `dtrain-bench`) regenerates every table
//! and figure of the paper from the presets in [`presets`]; see
//! `EXPERIMENTS.md` at the repository root for the paper-vs-measured record.

pub mod chart;
pub mod presets;
pub mod report;

/// Everything a typical experiment needs, re-exported.
pub mod prelude {
    pub use crate::chart::{render_chart, Series};
    pub use crate::presets;
    pub use crate::report::{fmt_acc, fmt_secs, fmt_x, Table};
    pub use dtrain_algos::{
        run, run_observed, run_traced, Algo, EpochPoint, FaultConfig, OptimizationConfig,
        RealTraining, RunConfig, RunOutput, StopCondition,
    };
    pub use dtrain_cluster::{
        Breakdown, ClusterConfig, CollectiveSchedule, NetworkConfig, Phase, ShardPlan,
    };
    pub use dtrain_compress::DgcConfig;
    pub use dtrain_faults::{
        CheckpointStore, ElasticConfig, FaultEvent, FaultKind, FaultPlan, FaultSchedule,
        MembershipView,
    };
    pub use dtrain_models::{resnet50, vgg16, ModelProfile};
    pub use dtrain_obs::export::{canonical_trace, diff_canonical, perfetto_trace};
    pub use dtrain_obs::{Event, EventKind, ObsSink, Track, TrackHandle};
}

pub use dtrain_algos::{run, Algo, RunConfig, RunOutput};
pub use presets::{AccuracyScale, PaperModel};
pub use report::Table;
