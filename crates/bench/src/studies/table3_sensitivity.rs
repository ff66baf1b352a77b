//! Table III — accuracy of the asynchronous algorithms vs worker count and
//! hyperparameters: SSP s∈{3,10}, EASGD τ∈{4,8}, GoSGD p∈{1,0.1,0.01},
//! plus BSP (control), ASP, and AD-PSGD, at 4/8/16/24 workers.
//!
//! Paper trends to reproduce: BSP flat in worker count; every asynchronous
//! algorithm degrades as workers grow; larger s / larger τ / smaller p ⇒
//! worse; SSP(s=10) collapses at 24 workers; EASGD and GoSGD collapse
//! hardest.

use dtrain_core::prelude::*;
use dtrain_core::presets::{accuracy_run, AccuracyScale, TABLE3_WORKERS};

use crate::Artifact;

pub fn artifacts() -> Vec<Artifact> {
    let scale = AccuracyScale::default();

    let configs: Vec<(String, Algo)> = vec![
        ("BSP".into(), Algo::Bsp),
        ("ASP".into(), Algo::Asp),
        ("SSP s=3".into(), Algo::Ssp { staleness: 3 }),
        ("SSP s=10".into(), Algo::Ssp { staleness: 10 }),
        (
            "EASGD tau=4".into(),
            Algo::Easgd {
                tau: 4,
                alpha: None,
            },
        ),
        (
            "EASGD tau=8".into(),
            Algo::Easgd {
                tau: 8,
                alpha: None,
            },
        ),
        ("GoSGD p=1".into(), Algo::GoSgd { p: 1.0 }),
        ("GoSGD p=0.1".into(), Algo::GoSgd { p: 0.1 }),
        ("GoSGD p=0.01".into(), Algo::GoSgd { p: 0.01 }),
        ("AD-PSGD".into(), Algo::AdPsgd),
    ];

    let mut headers: Vec<String> = vec!["config".into()];
    headers.extend(TABLE3_WORKERS.iter().map(|w| format!("{w} workers")));
    let mut table = Table::new(
        format!(
            "Table III: test accuracy vs workers ({} epochs)",
            scale.epochs
        ),
        &headers.iter().map(String::as_str).collect::<Vec<_>>(),
    );

    for (label, algo) in configs {
        let mut row = vec![label];
        for &w in &TABLE3_WORKERS {
            let out = run(&accuracy_run(algo, w, &scale));
            row.push(fmt_acc(out.final_accuracy.expect("accuracy")));
        }
        table.push_row(row);
    }
    vec![Artifact::csv("results/table3_sensitivity.csv", table)]
}
