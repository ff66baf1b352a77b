//! Adaptive degradation controller, simulator path.
//!
//! The loop — probe, signals, verdict, `ctrl.switch` marker, remainder
//! with the probe's trained parameters adopted as the starting weights —
//! is [`CtrlPlan::drive`], shared with the threaded and process paths.
//! Here the signals come from the probe's phase breakdowns and the marker
//! is stamped at the probe's own end time: all virtual time, so the whole
//! decision (and the trace) is bit-reproducible run over run.
//!
//! Degradations applied here:
//! - `SwitchToSsp` — [`Algo::degraded`](dtrain_faults::Algo::degraded), as
//!   on the real paths: BSP only, the remainder runs `Algo::Ssp` at the
//!   policy's staleness.
//! - `EnableDgc` — the simulator-only half: gradient-pushing algorithms
//!   (BSP/ASP/SSP/AR-SGD) run the remainder with `opts.dgc = Some(default)`.
//!
//! Each segment restarts its LR schedule over its own epoch span; the
//! carried state is the model, exactly as a stop-and-restart with adopted
//! weights would behave.

use std::convert::Infallible;

use dtrain_compress::DgcConfig;
use dtrain_faults::{straggle_ratio, Adaptive, CtrlAction, CtrlPlan, CtrlSignals, SegmentReport};
use dtrain_obs::{ObsSink, Phase};

use crate::config::{RunConfig, StopCondition};
use crate::runner::{run_observed, RunOutput};

/// Outcome of an adaptive simulated run.
pub type AdaptiveRunOutput = Adaptive<RunOutput>;

impl SegmentReport for RunOutput {
    type Accuracy = Option<f32>;
    fn final_accuracy(&self) -> Option<f32> {
        self.final_accuracy
    }
}

/// Distill controller signals from a finished simulated segment.
fn sim_signals(out: &RunOutput) -> CtrlSignals {
    let compute: Vec<f64> = out
        .per_worker_breakdown
        .iter()
        .map(|b| b.get(Phase::Compute).as_secs_f64())
        .collect();
    let b = &out.mean_breakdown;
    CtrlSignals {
        straggle_ratio: straggle_ratio(&compute),
        comm_fraction: b.fraction(Phase::Comm)
            + b.fraction(Phase::GlobalAgg)
            + b.fraction(Phase::LocalAgg),
        staleness: 0.0,
        retry_rate: 0.0,
    }
}

/// [`run_observed`](crate::runner::run_observed) under the adaptive
/// degradation controller. Requires an epoch stop condition; the probe
/// takes `ctrl.probe_epochs` of it.
pub fn run_adaptive(cfg: &RunConfig, ctrl: &CtrlPlan, sink: &ObsSink) -> AdaptiveRunOutput {
    let StopCondition::Epochs(epochs) = cfg.stop else {
        panic!("run_adaptive requires StopCondition::Epochs")
    };
    let run_segment = |epochs, action, adopted: Option<&RunOutput>| {
        let mut seg = cfg.clone();
        seg.stop = StopCondition::Epochs(epochs);
        seg.algo = cfg.algo.degraded(action);
        if action == CtrlAction::EnableDgc
            && cfg.algo.communicates_gradients()
            && seg.opts.dgc.is_none()
        {
            seg.opts.dgc = Some(DgcConfig::default());
        }
        let params = adopted.and_then(|probe| probe.final_params.clone());
        if let (Some(real), Some(params)) = (seg.real.as_mut(), params) {
            real.initial_params = Some(params);
        }
        Ok::<_, Infallible>(run_observed(&seg, sink))
    };
    let end_time = |probe: &RunOutput| probe.end_time.0;
    match ctrl.drive(epochs, sink, run_segment, sim_signals, end_time) {
        Ok(out) => out,
        Err(never) => match never {},
    }
}
