//! Table IV — effect of Deep Gradient Compression on model accuracy for
//! BSP, ASP, SSP(s=3), SSP(s=10) at 24 workers.
//!
//! Paper values (without → with DGC): BSP 0.7511 → 0.7505, ASP 0.7459 →
//! 0.7440, SSP(3) 0.7282 → 0.7295, SSP(10) 0.6448 → 0.6542. The finding:
//! DGC is accuracy-neutral (sometimes slightly positive) while cutting
//! communicated gradient volume by ~1000×.

use dtrain_core::prelude::*;
use dtrain_core::presets::{accuracy_run, accuracy_run_with_dgc, AccuracyScale};

use crate::Artifact;

pub fn artifacts() -> Vec<Artifact> {
    let scale = AccuracyScale::default();
    let workers = 24;

    let configs: Vec<(&str, Algo)> = vec![
        ("BSP", Algo::Bsp),
        ("ASP", Algo::Asp),
        ("SSP s=3", Algo::Ssp { staleness: 3 }),
        ("SSP s=10", Algo::Ssp { staleness: 10 }),
    ];
    let mut table = Table::new(
        format!(
            "Table IV: effect of DGC on accuracy ({workers} workers, {} epochs)",
            scale.epochs
        ),
        &[
            "algorithm",
            "without DGC",
            "with DGC",
            "grad bytes w/o",
            "grad bytes w/",
        ],
    );
    for (label, algo) in configs {
        let plain = run(&accuracy_run(algo, workers, &scale));
        let dgc = run(&accuracy_run_with_dgc(algo, workers, &scale));
        table.push_row(vec![
            label.to_string(),
            fmt_acc(plain.final_accuracy.expect("plain accuracy")),
            fmt_acc(dgc.final_accuracy.expect("dgc accuracy")),
            format!("{:.1}G", plain.traffic.inter_bytes as f64 / 1e9),
            format!("{:.1}G", dgc.traffic.inter_bytes as f64 / 1e9),
        ]);
    }
    vec![Artifact::csv("results/table4_dgc_accuracy.csv", table)]
}
