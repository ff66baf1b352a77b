//! Extension study: throughput resilience of the seven algorithms under
//! injected faults.
//!
//! The paper compares the algorithms on healthy clusters; this study asks
//! how each one degrades when the cluster misbehaves. A seeded
//! [`FaultPlan`] is expanded into crash / link-degradation / PS-outage
//! schedules at increasing rates, and each algorithm's throughput is
//! compared against its own healthy baseline. A second table uses
//! *permanent* crashes to expose the recovery policies: synchronous and
//! server-based algorithms lose the dead worker's iterations (rebuild /
//! drop-and-readmit), while the decentralized family coerces the loss to a
//! restart and completes everything. A third table runs the real-math
//! accuracy presets under crash-restarts (checkpoint rollback loses the
//! uncheckpointed updates) plus a straggler, asking what faults cost in
//! final accuracy rather than time.
//!
//! `fault_elastic` runs the elastic-vs-restart comparison on its own (see
//! [`elastic`]).

use dtrain_core::prelude::*;
use dtrain_core::presets::{accuracy_run, paper_cluster_run, AccuracyScale, PaperModel};
use dtrain_desim::SimTime;

use crate::Artifact;

const WORKERS: usize = 16;
const ITERS: u64 = 40;
const ALGOS: [(&str, Algo); 7] = [
    ("BSP", Algo::Bsp),
    ("AR-SGD", Algo::ArSgd),
    ("ASP", Algo::Asp),
    ("SSP(s=10)", Algo::Ssp { staleness: 10 }),
    (
        "EASGD(tau=4)",
        Algo::Easgd {
            tau: 4,
            alpha: None,
        },
    ),
    ("GoSGD(p=0.1)", Algo::GoSgd { p: 0.1 }),
    ("AD-PSGD", Algo::AdPsgd),
];

/// The cost-only cell every throughput table starts from. No local
/// aggregation: worker crashes are unsupported under the leader/follower
/// machine grouping, and the healthy baseline must use the same topology as
/// the faulted runs to be comparable.
fn cell_cfg(algo: Algo) -> RunConfig {
    let net = NetworkConfig::FIFTY_SIX_GBPS;
    paper_cluster_run(algo, PaperModel::ResNet50, WORKERS, net, ITERS, false, 97)
}

/// Expand a rate level into a concrete schedule over this run's horizon.
fn plan_faults(cfg: &RunConfig, horizon: SimTime, rate: f64) -> FaultConfig {
    let plan = FaultPlan {
        seed: 1309,
        horizon,
        expected_crashes: 2.0 * rate,
        restart_after: Some(SimTime::from_secs(2)),
        expected_link_faults: rate,
        degrade_factor: 0.2,
        degrade_duration: SimTime::from_nanos(horizon.as_nanos() / 8),
        expected_ps_failures: rate,
        ps_outage: SimTime::from_secs(1),
        stragglers: Vec::new(),
    };
    let ps_shards = if cfg.algo.is_centralized() {
        cfg.opts.ps_shards
    } else {
        0
    };
    FaultConfig {
        schedule: plan.generate(cfg.workers, cfg.cluster.machines, ps_shards),
        checkpoint_interval: 5,
        elastic: None,
    }
}

/// Elastic-vs-restart study (`fault_elastic`): the same one-permanent-loss plan
/// is run under the classic recovery policies (rebuild / drop-and-readmit /
/// coerced restart) and under elastic membership (evict, repair the
/// topology, keep going), for all seven algorithms. Elastic keeps every
/// survivor's iterations and finishes without replaying the dead worker's
/// work; a rejoin column shows the evictee re-entering at the current
/// round. Canonical traces of the elastic runs are written next to the CSV
/// so CI can archive the recovery choreography.
pub fn elastic() -> Vec<Artifact> {
    let (workers, iters) = (WORKERS, ITERS);
    let mut artifacts = Vec::new();
    let one_loss = |restart: Option<SimTime>| {
        FaultSchedule::new(vec![FaultEvent {
            at: SimTime::from_millis(200),
            kind: FaultKind::WorkerCrash {
                worker: 1,
                restart_after: restart,
            },
        }])
    };
    let faulted = |algo: Algo, restart: Option<SimTime>, elastic: bool| {
        let mut cfg = cell_cfg(algo);
        cfg.faults = Some(FaultConfig {
            schedule: one_loss(restart),
            checkpoint_interval: 5,
            elastic: elastic.then(ElasticConfig::default),
        });
        cfg
    };
    let mut table = Table::new(
        format!(
            "Fault study: elastic membership vs restart recovery after one \
             permanent worker loss ({workers} workers, ResNet-50, 56 Gbps)"
        ),
        &[
            "algorithm",
            "restart iters",
            "elastic iters",
            "of schedule",
            "time vs restart",
            "rejoin iters",
        ],
    );
    for (label, algo) in ALGOS {
        let view =
            MembershipView::from_schedule(&one_loss(None), workers, &ElasticConfig::default());
        let scheduled: u64 = (0..iters).map(|r| view.live_at(r).len() as u64).sum();
        let classic = run(&faulted(algo, None, false));
        let cfg = faulted(algo, None, true);
        let sink = ObsSink::enabled();
        let out = run_observed(&cfg, &sink);
        assert_eq!(
            out.total_iterations, scheduled,
            "{label}: elastic run must follow the live-cohort schedule"
        );
        let stem = label
            .to_lowercase()
            .replace(|c: char| !c.is_ascii_alphanumeric(), "_");
        artifacts.push(Artifact::Trace(
            format!("results/elastic/elastic_{stem}.trace"),
            canonical_trace(&sink.snapshot()),
        ));
        let rejoin = run(&faulted(algo, Some(SimTime::from_secs(2)), true));
        table.push_row(vec![
            label.to_string(),
            format!("{}", classic.total_iterations),
            format!("{}", out.total_iterations),
            format!(
                "{:.0}%",
                100.0 * out.total_iterations as f64 / scheduled as f64
            ),
            format!(
                "{:.2}x",
                out.end_time.as_secs_f64() / classic.end_time.as_secs_f64()
            ),
            format!("{}", rejoin.total_iterations),
        ]);
    }
    artifacts.push(Artifact::csv("results/elastic/fault_elastic.csv", table));
    artifacts
}

pub fn artifacts() -> Vec<Artifact> {
    let (workers, iters, algos) = (WORKERS, ITERS, ALGOS);
    let levels: [(&str, f64); 3] = [("light", 0.5), ("moderate", 1.5), ("heavy", 3.0)];

    // --- restartable faults: throughput retained vs the healthy baseline ---
    let mut tp_table = Table::new(
        format!(
            "Fault study: throughput retained under seeded crash/link/PS faults \
             ({workers} workers, ResNet-50, 56 Gbps, 2 s restarts)"
        ),
        &["algorithm", "healthy img/s", "light", "moderate", "heavy"],
    );
    for (label, algo) in &algos {
        let healthy = run(&cell_cfg(*algo));
        let mut row = vec![label.to_string(), format!("{:.0}", healthy.throughput)];
        for (_, rate) in &levels {
            let mut cfg = cell_cfg(*algo);
            cfg.faults = Some(plan_faults(&cfg, healthy.end_time, *rate));
            let faulted = run(&cfg);
            assert_eq!(
                faulted.total_iterations,
                workers as u64 * iters,
                "{label}: restartable faults must not lose iterations"
            );
            row.push(format!(
                "{:.0}%",
                100.0 * faulted.throughput / healthy.throughput
            ));
        }
        tp_table.push_row(row);
    }

    // --- permanent crash: what fraction of the work still completes? ---
    let mut loss_table = Table::new(
        format!(
            "Fault study: iterations completed after one permanent worker loss \
             ({workers} workers; decentralized algorithms coerce the loss to a restart)"
        ),
        &["algorithm", "completed", "of scheduled", "recovery"],
    );
    for (label, algo) in &algos {
        let mut cfg = cell_cfg(*algo);
        cfg.faults = Some(FaultConfig {
            schedule: FaultSchedule::new(vec![FaultEvent {
                at: SimTime::from_millis(200),
                kind: FaultKind::WorkerCrash {
                    worker: 1,
                    restart_after: None,
                },
            }]),
            checkpoint_interval: 5,
            elastic: None,
        });
        let out = run(&cfg);
        let scheduled = workers as u64 * iters;
        let policy = match algo {
            Algo::Bsp => "rebuild group",
            Algo::Ssp { .. } => "recompute staleness",
            Algo::Asp | Algo::Easgd { .. } => "drop and re-admit",
            Algo::ArSgd | Algo::GoSgd { .. } | Algo::AdPsgd => "coerced restart",
        };
        loss_table.push_row(vec![
            label.to_string(),
            format!("{}", out.total_iterations),
            format!(
                "{:.0}%",
                100.0 * out.total_iterations as f64 / scheduled as f64
            ),
            policy.to_string(),
        ]);
    }

    // --- accuracy side (real math): what do crash rollbacks cost? ---
    let scale = AccuracyScale::default();
    let acc_workers = 8;
    let mut acc_table = Table::new(
        format!(
            "Fault study: accuracy under two crash-restarts + one 2x straggler \
             ({acc_workers} workers, {} epochs, checkpoint every 10 iterations)",
            scale.epochs
        ),
        &["algorithm", "healthy", "faulted"],
    );
    for (label, algo) in &algos {
        let healthy = run(&accuracy_run(*algo, acc_workers, &scale));
        // pin the crashes to fractions of this algorithm's healthy runtime
        // so every algorithm loses work at comparable points in training
        let horizon = healthy.end_time;
        let at = |f: f64| SimTime::from_nanos((horizon.as_nanos() as f64 * f) as u64);
        let crash = |frac: f64, worker: usize| FaultEvent {
            at: at(frac),
            kind: FaultKind::WorkerCrash {
                worker,
                restart_after: Some(at(0.05)),
            },
        };
        let mut cfg = accuracy_run(*algo, acc_workers, &scale);
        cfg.faults = Some(FaultConfig {
            schedule: FaultSchedule::new(vec![
                crash(0.15, 1),
                crash(0.5, 5),
                FaultEvent {
                    at: SimTime::ZERO,
                    kind: FaultKind::Straggler {
                        worker: 2,
                        slowdown: 2.0,
                    },
                },
            ]),
            checkpoint_interval: 10,
            elastic: None,
        });
        let faulted = run(&cfg);
        acc_table.push_row(vec![
            label.to_string(),
            fmt_acc(healthy.final_accuracy.expect("accuracy")),
            fmt_acc(faulted.final_accuracy.expect("accuracy")),
        ]);
    }
    vec![
        Artifact::csv("results/fault_throughput.csv", tp_table),
        Artifact::csv("results/fault_permanent_loss.csv", loss_table),
        Artifact::csv("results/fault_accuracy.csv", acc_table),
    ]
}
