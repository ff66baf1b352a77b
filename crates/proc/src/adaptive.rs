//! Adaptive degradation controller, process path.
//!
//! The loop is [`CtrlPlan::drive`](dtrain_faults::CtrlPlan::drive), shared
//! with the simulator and the threaded path. A segment here is one
//! process cohort; the remainder adopts the probe's evaluated model
//! through [`ProcConfig::initial_params`] (workers pick it up via the
//! `HelloAck` snapshot they already apply — nothing new crosses the argv
//! boundary).
//!
//! Signals on this path:
//! - `straggle_ratio` — per-rank `busy_ms` shipped home in `RunComplete`
//!   (compute + iteration hooks, injected straggler sleeps included).
//! - `retry_rate` — session-resume takeovers per executed iteration; a
//!   chaos-squeezed link shows up here rather than in phase timings.
//! - `comm_fraction` — the share of wall time the mean rank spent *not*
//!   busy: exchange waits, server round-trips, reconnect backoff.
//!
//! Actions map to algorithms by `dtrain_faults::Algo::degraded`, as on the
//! threaded path and in the simulator.

use std::time::{Duration, Instant};

use dtrain_faults::{busy_signals, Adaptive, CtrlPlan, SegmentReport};
use dtrain_obs::ObsSink;

use crate::config::ProcConfig;
use crate::coordinator::{train_proc_observed, ProcError, ProcReport};

/// Outcome of an adaptive process-path run.
pub type AdaptiveProcReport = Adaptive<ProcReport>;

impl SegmentReport for ProcReport {
    type Accuracy = f32;
    fn final_accuracy(&self) -> f32 {
        self.final_accuracy
    }
}

/// [`train_proc_observed`](crate::coordinator::train_proc_observed) under
/// the adaptive degradation controller. `timeout` bounds each segment.
pub fn train_proc_adaptive(
    cfg: ProcConfig,
    ctrl: &CtrlPlan,
    timeout: Duration,
    sink: &ObsSink,
) -> Result<AdaptiveProcReport, ProcError> {
    let wall = Instant::now();
    let run_segment = |epochs, action, adopted: Option<&ProcReport>| {
        let mut seg = cfg.clone();
        seg.plan.epochs = epochs;
        seg.plan.strategy = cfg.plan.strategy.degraded(action);
        if let Some(probe) = adopted {
            seg.initial_params = Some(probe.final_params.clone());
        }
        train_proc_observed(seg, timeout, sink)
    };
    let signals = |probe: &ProcReport| {
        let busy: Vec<f64> = probe
            .per_worker
            .iter()
            .map(|s| s.busy_ms as f64 / 1000.0)
            .collect();
        busy_signals(
            &busy,
            probe.wall_time.as_secs_f64(),
            probe.retries,
            probe.total_iterations,
        )
    };
    let switch_ts = |_: &ProcReport| wall.elapsed().as_nanos() as u64;
    ctrl.drive(cfg.plan.epochs, sink, run_segment, signals, switch_ts)
}
