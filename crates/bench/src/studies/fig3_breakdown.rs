//! Figure 3 — breakdown of a worker's training time into compute, local
//! aggregation, global aggregation (both including waiting), and
//! communication, for BSP / ASP / SSP at 24 workers, on both models and
//! both networks.
//!
//! Paper readings to reproduce: for BSP at 24 workers, aggregation is more
//! than half the time and is dominated by *waiting* (so bandwidth barely
//! helps); for ASP/SSP, communication exceeds half the time at 10 Gbps (PS
//! NIC bottleneck) and shrinks dramatically at 56 Gbps; VGG-16 shifts
//! everything toward aggregation/communication.

use dtrain_core::prelude::*;
use dtrain_core::presets::{breakdown_run, PaperModel};

use crate::Artifact;

pub fn artifacts() -> Vec<Artifact> {
    let iterations = 30;
    let algos: Vec<(&str, Algo)> = vec![
        ("BSP", Algo::Bsp),
        ("ASP", Algo::Asp),
        ("SSP(s=10)", Algo::Ssp { staleness: 10 }),
        ("AR-SGD", Algo::ArSgd),
    ];

    let mut table = Table::new(
        "Fig 3: per-worker time breakdown at 24 workers (% of iteration time)",
        &[
            "model",
            "network",
            "algorithm",
            "compute%",
            "local_agg%",
            "global_agg%",
            "comm%",
            "iter(s)",
        ],
    );
    for model in [PaperModel::ResNet50, PaperModel::Vgg16] {
        for net in [NetworkConfig::TEN_GBPS, NetworkConfig::FIFTY_SIX_GBPS] {
            for (label, algo) in &algos {
                let out = run(&breakdown_run(*algo, model, net, iterations));
                let b = out.mean_breakdown;
                let iters_per_worker = out.total_iterations as f64 / out.workers as f64;
                let iter_time = b.total().as_secs_f64() / iters_per_worker;
                table.push_row(vec![
                    model.name().into(),
                    format!("{:.0}G", net.bandwidth_gbps),
                    label.to_string(),
                    pct(&b, Phase::Compute),
                    pct(&b, Phase::LocalAgg),
                    pct(&b, Phase::GlobalAgg),
                    pct(&b, Phase::Comm),
                    format!("{iter_time:.3}"),
                ]);
            }
        }
    }
    vec![Artifact::csv("results/fig3_breakdown.csv", table)]
}

fn pct(b: &Breakdown, p: Phase) -> String {
    format!("{:.1}", 100.0 * b.fraction(p))
}
