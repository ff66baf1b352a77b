//! Adaptive degradation controller, threaded path.
//!
//! The loop itself — probe, signals, verdict, `ctrl.switch` marker,
//! remainder with the probe's model adopted — is
//! [`CtrlPlan::drive`](dtrain_faults::CtrlPlan::drive), shared with the
//! simulator and the process path. This module supplies the threaded
//! segment, its signal source (per-worker busy times against wall time)
//! and its clock (wall nanoseconds since the adaptive run began).
//!
//! What each action means on the real paths is
//! [`Algo::degraded`](dtrain_faults::Algo::degraded): `SwitchToSsp`
//! applies only to a BSP probe; `EnableDgc` is recorded in the marker but
//! shared memory moves no bytes — the sim path is where DGC alters the run.
//!
//! Each segment restarts its LR schedule over its own epoch span — the
//! controller trades schedule continuity for strategy agility, exactly as
//! a restarted-with-adopted-weights run would.

use std::convert::Infallible;
use std::sync::Arc;
use std::time::Instant;

use dtrain_data::Dataset;
use dtrain_faults::{busy_signals, Adaptive, CtrlPlan, SegmentReport};
use dtrain_nn::Network;
use dtrain_obs::ObsSink;

use crate::engine::{train_threaded_observed, ThreadedConfig, ThreadedReport};

/// Outcome of an adaptive threaded run.
pub type AdaptiveThreadedReport = Adaptive<ThreadedReport>;

impl SegmentReport for ThreadedReport {
    type Accuracy = f32;
    fn final_accuracy(&self) -> f32 {
        self.final_accuracy
    }
}

/// [`train_threaded_observed`] under the adaptive degradation controller.
pub fn train_adaptive<F>(
    factory: F,
    train: &Arc<Dataset>,
    test: &Dataset,
    cfg: &ThreadedConfig,
    ctrl: &CtrlPlan,
    sink: &ObsSink,
) -> AdaptiveThreadedReport
where
    F: Fn() -> Network + Send + Sync,
{
    let wall = Instant::now();
    let run_segment = |epochs, action, adopted: Option<&ThreadedReport>| {
        let mut seg = cfg.clone();
        seg.epochs = epochs;
        seg.strategy = cfg.strategy.degraded(action);
        let build = || {
            let mut net = factory();
            if let Some(probe) = adopted {
                net.set_params(&probe.final_params);
            }
            net
        };
        Ok::<_, Infallible>(train_threaded_observed(build, train, test, &seg, sink))
    };
    let signals = |probe: &ThreadedReport| {
        let busy: Vec<f64> = probe
            .per_worker_busy
            .iter()
            .map(|d| d.as_secs_f64())
            .collect();
        busy_signals(&busy, probe.wall_time.as_secs_f64(), 0, 0)
    };
    let switch_ts = |_: &ThreadedReport| wall.elapsed().as_nanos() as u64;
    match ctrl.drive(cfg.epochs, sink, run_segment, signals, switch_ts) {
        Ok(report) => report,
        Err(never) => match never {},
    }
}
