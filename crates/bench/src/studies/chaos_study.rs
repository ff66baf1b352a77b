//! Network-adversity study: the seven algorithms under three seeded link
//! scenarios — `clean`, `bursty` (Poisson cross-traffic bursts plus
//! ambient jitter), and `wan` (a sustained 50× inter-machine squeeze) —
//! each with the adaptive degradation controller off and on.
//!
//! The simulator is bit-deterministic, so every reported metric is exact
//! and the gate is regenerate-and-diff: a run rewrites the committed
//! `BENCH_010.json` in place, CI follows it with `git diff --exit-code`,
//! and any difference is a real change to the chaos trace generators, the
//! network model, or the controller. The study also self-checks two
//! acceptance bars: under the WAN squeeze the controller must trip BSP
//! (comm-bound probe → DGC on), and on a clean fabric it must *not* trip —
//! an idle controller may cost nothing.

use dtrain_algos::adaptive::run_adaptive;
use dtrain_algos::{
    run_observed, Algo, FaultConfig, OptimizationConfig, RealTraining, RunConfig, StopCondition,
    SyntheticTask,
};
use dtrain_cluster::{ClusterConfig, NetworkConfig};
use dtrain_core::report::Table;
use dtrain_data::TeacherTaskConfig;
use dtrain_desim::SimTime;
use dtrain_faults::{
    bursty_trace, jitter_trace, merge, wan_squeeze_trace, ChaosTraceCfg, CtrlAction, CtrlPlan,
};
use dtrain_models::resnet50;
use dtrain_obs::export::canonical_trace;
use dtrain_obs::ObsSink;

use crate::trajectory::{TrajRecord, Trajectory};
use crate::Artifact;

const STUDY_SEED: u64 = 17;
const MACHINES: usize = 4;

const ALGOS: [Algo; 7] = [
    Algo::Bsp,
    Algo::Asp,
    Algo::Ssp { staleness: 3 },
    Algo::Easgd {
        tau: 4,
        alpha: None,
    },
    Algo::ArSgd,
    Algo::GoSgd { p: 0.5 },
    Algo::AdPsgd,
];

const SCENARIOS: [&str; 3] = ["clean", "bursty", "wan"];

fn trace_cfg() -> ChaosTraceCfg {
    ChaosTraceCfg {
        seed: STUDY_SEED,
        machines: MACHINES,
        // Comfortably past the longest cell's virtual end time, so every
        // scenario shapes the whole run.
        horizon: SimTime::from_secs(60),
    }
}

/// A seeded adversity schedule for one scenario name (`None` = clean).
fn scenario_schedule(name: &str) -> Option<FaultConfig> {
    let schedule = match name {
        "clean" => return None,
        "bursty" => merge(&[
            bursty_trace(trace_cfg(), 6.0, SimTime::from_millis(300), 0.15),
            jitter_trace(trace_cfg(), SimTime::from_millis(500), 0.3),
        ]),
        "wan" => wan_squeeze_trace(trace_cfg(), SimTime::ZERO, SimTime::from_secs(60), 0.02),
        other => panic!("unknown scenario {other}"),
    };
    Some(FaultConfig {
        schedule,
        checkpoint_interval: 0,
        elastic: None,
    })
}

/// Four single-GPU machines on a 56 Gbps fabric, ResNet-50 cost profile,
/// real teacher-task math so the controller's parameter adoption is
/// exercised end to end.
fn cell_cfg(algo: Algo, scenario: &str, epochs: u64) -> RunConfig {
    let mut cluster = ClusterConfig::paper(NetworkConfig::FIFTY_SIX_GBPS);
    cluster.machines = MACHINES;
    cluster.gpus_per_machine = 1;
    RunConfig {
        algo,
        cluster,
        workers: 4,
        profile: resnet50(),
        batch: 128,
        opts: OptimizationConfig {
            // PS sharding only applies to the centralized algorithms.
            ps_shards: if algo.is_centralized() { 2 } else { 1 },
            ..Default::default()
        },
        stop: StopCondition::Epochs(epochs),
        faults: scenario_schedule(scenario),
        real: Some(RealTraining {
            task: SyntheticTask::Teacher(TeacherTaskConfig {
                train_size: 512,
                test_size: 128,
                ..Default::default()
            }),
            ..Default::default()
        }),
        seed: 11,
    }
}

fn ctrl(probe_epochs: u64) -> CtrlPlan {
    CtrlPlan {
        enabled: true,
        probe_epochs,
        ..Default::default()
    }
}

struct Cell {
    end_secs: f64,
    accuracy: f32,
    inter_bytes: u64,
    action: CtrlAction,
}

fn run_cell(algo: Algo, scenario: &str, epochs: u64, probe: Option<u64>) -> Cell {
    let cfg = cell_cfg(algo, scenario, epochs);
    match probe {
        None => {
            let out = run_observed(&cfg, &ObsSink::disabled());
            Cell {
                end_secs: out.end_time.as_secs_f64(),
                accuracy: out.final_accuracy.unwrap_or(0.0),
                inter_bytes: out.traffic.inter_bytes,
                action: CtrlAction::Stay,
            }
        }
        Some(probe_epochs) => {
            let out = run_adaptive(&cfg, &ctrl(probe_epochs), &ObsSink::disabled());
            Cell {
                end_secs: out.segments.iter().map(|s| s.end_time.as_secs_f64()).sum(),
                accuracy: out.final_accuracy().unwrap_or(0.0),
                inter_bytes: out.segments.iter().map(|s| s.traffic.inter_bytes).sum(),
                action: out.action,
            }
        }
    }
}

/// Run the matrix at training length; return the table and add the
/// trajectory records.
fn run_matrix(records: &mut Vec<TrajRecord>, divergences: &mut Vec<String>) -> Table {
    let (epochs, probe_epochs) = (6, 2);
    let mut table = Table::new(
        format!(
            "chaos matrix: {} algos x {} scenarios x ctrl off/on (seed {})",
            ALGOS.len(),
            SCENARIOS.len(),
            STUDY_SEED
        ),
        &[
            "algo", "scenario", "ctrl", "end_s", "acc", "inter_MB", "action",
        ],
    );
    for algo in ALGOS {
        for scenario in SCENARIOS {
            for ctrl_on in [false, true] {
                let cell = run_cell(algo, scenario, epochs, ctrl_on.then_some(probe_epochs));
                let ctrl_tag = if ctrl_on { "on" } else { "off" };
                table.push_row(vec![
                    algo.name().to_string(),
                    scenario.to_string(),
                    ctrl_tag.to_string(),
                    format!("{:.3}", cell.end_secs),
                    format!("{:.3}", cell.accuracy),
                    format!("{:.1}", cell.inter_bytes as f64 / 1e6),
                    format!("{:?}", cell.action),
                ]);
                records.push(TrajRecord {
                    name: format!(
                        "chaos_{}_{}_{}",
                        algo.name().to_lowercase().replace('-', ""),
                        scenario,
                        ctrl_tag
                    ),
                    machines: MACHINES,
                    value: cell.end_secs * 1e3,
                    unit: "ms",
                });

                // Acceptance bars, checked on the BSP rows: the
                // controller must trip under the WAN squeeze and must not
                // trip on a clean fabric.
                if algo == Algo::Bsp && ctrl_on {
                    match scenario {
                        "wan" if cell.action == CtrlAction::Stay => divergences.push(format!(
                            "acceptance: BSP under the WAN squeeze did not trip \
                             (action {:?})",
                            cell.action
                        )),
                        "clean" if cell.action != CtrlAction::Stay => divergences.push(format!(
                            "acceptance: BSP on a clean fabric tripped to {:?}",
                            cell.action
                        )),
                        _ => {}
                    }
                }
            }
        }
    }
    table
}

/// Same cell, run twice: trace and end time must be bit-identical.
fn determinism_self_check(epochs: u64, probe_epochs: u64, divergences: &mut Vec<String>) {
    let record = || {
        let sink = ObsSink::enabled();
        let out = run_adaptive(
            &cell_cfg(Algo::Bsp, "wan", epochs),
            &ctrl(probe_epochs),
            &sink,
        );
        let end = out.segments.last().expect("segments").end_time;
        (out.action, end, canonical_trace(&sink.snapshot()))
    };
    let (aa, ae, at) = record();
    let (ba, be, bt) = record();
    if aa != ba || ae != be {
        divergences.push("determinism: adaptive wan cell differs between identical runs".into());
    }
    if at != bt {
        divergences
            .push("determinism: adaptive wan cell trace differs between identical runs".into());
    }
}

pub fn artifacts() -> Vec<Artifact> {
    let mut records = Vec::new();
    let mut divergences = Vec::new();

    let table = run_matrix(&mut records, &mut divergences);
    determinism_self_check(3, 1, &mut divergences);

    let traj = Trajectory {
        meta: vec![
            ("seed", STUDY_SEED.to_string()),
            ("algos", ALGOS.len().to_string()),
        ],
        records,
        divergences,
    };
    vec![
        Artifact::csv("results/chaos/chaos_matrix.csv", table),
        Artifact::Trajectory("BENCH_010.json", traj),
    ]
}
