//! Table II — final top-1 accuracy of the seven algorithms at 24 workers.
//!
//! Paper values (ResNet-50 / ImageNet-1K, 90 epochs, 24 workers):
//! BSP 0.7511, ASP 0.7459, SSP(s=10) 0.6448, EASGD(τ=8) 0.4528,
//! AR-SGD ≈ BSP, GoSGD(p=0.01) 0.3938, AD-PSGD 0.7411.
//!
//! We train the synthetic teacher task with the same aggregation schedules
//! and a structurally identical LR schedule; the *ordering* and the
//! sync/async/intermittent gaps are the reproduction target (absolute
//! values differ — different task).

use dtrain_core::prelude::*;
use dtrain_core::presets::{accuracy_run, paper_algorithms, AccuracyScale};

use crate::Artifact;

pub fn artifacts() -> Vec<Artifact> {
    let scale = AccuracyScale::default();
    let workers = 24;

    let mut table = Table::new(
        format!(
            "Table II: final test accuracy, {workers} workers, {} epochs",
            scale.epochs
        ),
        &[
            "algorithm",
            "hyperparams",
            "accuracy",
            "drift",
            "virt-time(s)",
        ],
    );
    for algo in paper_algorithms() {
        let cfg = accuracy_run(algo, workers, &scale);
        let out = run(&cfg);
        let last = out.curve.last().expect("accuracy curve");
        table.push_row(vec![
            out.algo.clone(),
            hyper(algo),
            fmt_acc(out.final_accuracy.expect("final accuracy")),
            format!("{:.4}", last.drift),
            format!("{:.1}", out.end_time.as_secs_f64()),
        ]);
    }
    vec![Artifact::csv("results/table2_accuracy.csv", table)]
}

fn hyper(algo: Algo) -> String {
    match algo {
        Algo::Ssp { staleness } => format!("s={staleness}"),
        Algo::Easgd { tau, .. } => format!("tau={tau}"),
        Algo::GoSgd { p } => format!("p={p}"),
        _ => "-".into(),
    }
}
