//! Extension study: stragglers' effect on throughput *and* accuracy.
//!
//! The paper attributes BSP's aggregation time to waiting (Fig. 3) and
//! motivates asynchrony as the remedy; this study quantifies the whole
//! trade-off by injecting a slow worker (a persistent
//! `FaultKind::Straggler` event from the fault-schedule DSL) and measuring
//! what each algorithm pays in throughput and what asynchrony costs in
//! accuracy when worker speeds diverge (the slow worker's gradients grow
//! stale).

use dtrain_core::prelude::*;
use dtrain_core::presets::PaperModel::ResNet50;
use dtrain_core::presets::{accuracy_run, paper_cluster_run, AccuracyScale};
use dtrain_desim::SimTime;

use crate::Artifact;

fn straggler_faults(worker: usize, slowdown: f64) -> FaultConfig {
    FaultConfig {
        schedule: FaultSchedule::new(vec![FaultEvent {
            at: SimTime::ZERO,
            kind: FaultKind::Straggler { worker, slowdown },
        }]),
        checkpoint_interval: 0,
        elastic: None,
    }
}

pub fn artifacts() -> Vec<Artifact> {
    let workers = 16;
    let iters = 30;
    let slowdown = 3.0;
    let algos: Vec<(&str, Algo)> = vec![
        ("BSP", Algo::Bsp),
        ("AR-SGD", Algo::ArSgd),
        ("ASP", Algo::Asp),
        ("SSP(s=10)", Algo::Ssp { staleness: 10 }),
        ("AD-PSGD", Algo::AdPsgd),
    ];

    // --- throughput side (cost model) ---
    let mut tp_table = Table::new(
        format!("Straggler study: throughput with one {slowdown}x-slow worker ({workers} workers, ResNet-50, 56 Gbps)"),
        &["algorithm", "healthy img/s", "straggler img/s", "retained"],
    );
    for (label, algo) in &algos {
        let mk = |straggle: bool| {
            let (net, bsp) = (NetworkConfig::FIFTY_SIX_GBPS, matches!(algo, Algo::Bsp));
            let mut cfg = paper_cluster_run(*algo, ResNet50, workers, net, iters, bsp, 41);
            cfg.faults = straggle.then(|| straggler_faults(1, slowdown));
            run(&cfg).throughput
        };
        let healthy = mk(false);
        let degraded = mk(true);
        tp_table.push_row(vec![
            label.to_string(),
            format!("{healthy:.0}"),
            format!("{degraded:.0}"),
            format!("{:.0}%", 100.0 * degraded / healthy),
        ]);
    }

    // --- accuracy side (real math): does heterogeneity hurt async algos? ---
    let scale = AccuracyScale::default();
    let acc_workers = 8;
    let mut acc_table = Table::new(
        format!("Straggler study: accuracy with one {slowdown}x-slow worker ({acc_workers} workers, {} epochs)", scale.epochs),
        &["algorithm", "homogeneous", "with straggler"],
    );
    for (label, algo) in &algos {
        let mk = |straggle: bool| {
            let mut cfg = accuracy_run(*algo, acc_workers, &scale);
            if straggle {
                cfg.faults = Some(straggler_faults(1, slowdown));
            }
            run(&cfg).final_accuracy.expect("accuracy")
        };
        acc_table.push_row(vec![
            label.to_string(),
            fmt_acc(mk(false)),
            fmt_acc(mk(true)),
        ]);
    }
    vec![
        Artifact::csv("results/straggler_throughput.csv", tp_table),
        Artifact::csv("results/straggler_accuracy.csv", acc_table),
    ]
}
