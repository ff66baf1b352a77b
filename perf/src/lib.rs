//! `dtrain-perf`: the repo's benchmark. See `README.md` in this directory
//! for the workloads, the metrics and how to read the output.

pub mod catalog;
pub mod host;
pub mod json;
pub mod micro;
pub mod report;
pub mod runner;
pub mod spans;
pub mod stats;
pub mod timed_backend;
pub mod workloads;
