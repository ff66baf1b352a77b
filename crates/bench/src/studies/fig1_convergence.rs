//! Figure 1 — top-1 test error vs training epochs (a) and vs wall-clock
//! time (b) for all seven algorithms at 24 workers.
//!
//! The paper's reading: (a) BSP/AR-SGD converge best per epoch, ASP and
//! AD-PSGD close behind, SSP/EASGD/GoSGD visibly worse; (b) the
//! asynchronous algorithms (ASP, AD-PSGD) lead per unit *time* because they
//! skip synchronization waits. Our virtual clock comes from the ResNet-50
//! profile on the simulated 56 Gbps cluster.

use dtrain_core::prelude::*;
use dtrain_core::presets::{accuracy_run, paper_algorithms, AccuracyScale};

use crate::Artifact;

pub fn artifacts() -> Vec<Artifact> {
    let scale = AccuracyScale::default();
    let workers = 24;

    let mut per_epoch = Table::new(
        format!("Fig 1(a): top-1 test error vs epoch ({workers} workers)"),
        &[
            "epoch",
            "BSP",
            "ASP",
            "SSP(10)",
            "EASGD(8)",
            "AR-SGD",
            "GoSGD(.01)",
            "AD-PSGD",
        ],
    );
    let mut per_time = Table::new(
        "Fig 1(b): (virtual time s, top-1 error) series per algorithm",
        &["algorithm", "series (t:err)"],
    );

    let mut curves: Vec<(String, Vec<EpochPoint>)> = Vec::new();
    for algo in paper_algorithms() {
        let out = run(&accuracy_run(algo, workers, &scale));
        curves.push((out.algo.clone(), out.curve));
    }

    let epochs = curves.iter().map(|(_, c)| c.len()).max().unwrap_or(0);
    for e in 0..epochs {
        let mut row = vec![format!("{}", e + 1)];
        for (_, c) in &curves {
            row.push(
                c.get(e)
                    .map(|p| format!("{:.4}", p.test_error))
                    .unwrap_or_else(|| "-".into()),
            );
        }
        per_epoch.push_row(row);
    }
    for (name, c) in &curves {
        let series: Vec<String> = c
            .iter()
            .map(|p| format!("{:.0}:{:.3}", p.time.as_secs_f64(), p.test_error))
            .collect();
        per_time.push_row(vec![name.clone(), series.join(" ")]);
    }

    // Console renditions of the two panels.
    let epoch_series: Vec<Series> = curves
        .iter()
        .map(|(name, c)| {
            Series::new(
                name.clone(),
                c.iter()
                    .map(|p| (p.epoch as f64, p.test_error as f64))
                    .collect(),
            )
        })
        .collect();
    let epoch_chart = render_chart("Fig 1(a): error vs epoch", &epoch_series, 72, 18);
    let time_series: Vec<Series> = curves
        .iter()
        .map(|(name, c)| {
            Series::new(
                name.clone(),
                c.iter()
                    .map(|p| (p.time.as_secs_f64(), p.test_error as f64))
                    .collect(),
            )
        })
        .collect();
    let time_chart = render_chart("Fig 1(b): error vs virtual time (s)", &time_series, 72, 18);
    vec![
        Artifact::csv("results/fig1a_error_vs_epoch.csv", per_epoch),
        Artifact::csv("results/fig1b_error_vs_time.csv", per_time),
        Artifact::Note(epoch_chart),
        Artifact::Note(time_chart),
    ]
}
