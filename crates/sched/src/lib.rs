//! # dtrain-sched — multi-tenant gang scheduling for distributed training
//!
//! The paper studies one training job at a time; real clusters run many.
//! This crate closes that gap: a deterministic gang scheduler that places
//! N concurrent training jobs (mixed models, mixed algorithms, mixed
//! priorities) on one simulated cluster, with
//!
//! * **all-or-nothing gang admission** at each job's `min_machines`,
//! * **pluggable placement policies** ([`Policy::Pack`],
//!   [`Policy::Spread`], and the cost-model-informed
//!   [`Policy::Predictive`] built on [`dtrain_algos::cost`]),
//! * **priority preemption** that checkpoints victims through the real
//!   [`dtrain_faults::CheckpointStore`] path and resumes them via
//!   `restore_at_or_before`, and
//! * **elastic shrink/grow** at round boundaries.
//!
//! The load-bearing property, pinned by this crate's test suite: a job's
//! arithmetic is a fixed sequential stream of micro-steps, so its final
//! model is **bit-identical** regardless of how often it was preempted,
//! resumed, shrunk, or grown. See [`trainer`] for the construction and
//! `tests/invariants.rs` for the scheduler's safety properties (no
//! double-assigned machine, never below min gang, only strictly-lower
//! priorities preempted, every job completes).

pub mod job;
pub mod outcome;
pub mod policy;
pub mod scheduler;
pub mod sim;
pub mod trainer;

pub use job::{generate_trace, JobId, JobSpec, ModelKind, TraceConfig};
pub use outcome::{jain_index, study_metrics, JobOutcome, StudyMetrics};
pub use policy::{Policy, PREDICTIVE_GAIN};
pub use scheduler::{AuditEvent, Directive, SchedCore};
pub use sim::{run_scheduler, run_single_job, SchedRun};
pub use trainer::JobTrainer;
