//! Figure 2 — scalability (speedup vs one worker) of BSP, ASP, SSP,
//! AR-SGD, AD-PSGD for ResNet-50 and VGG-16 on 10 Gbps and 56 Gbps
//! networks, workers ∈ {1, 2, 4, 8, 16, 24}.
//!
//! Paper trends: BSP/AR-SGD scale steadily and barely notice bandwidth;
//! ASP/SSP are bandwidth-starved at 10 Gbps (PS bottleneck — worse than the
//! synchronous algorithms) and recover at 56 Gbps; AD-PSGD scales best;
//! everything scales worse on VGG-16 (5.8× the parameters; fc6 skews the
//! layer-wise shards).

use dtrain_core::prelude::*;
use dtrain_core::presets::{scalability_run, PaperModel, FIG2_WORKERS};

use crate::Artifact;

pub fn artifacts() -> Vec<Artifact> {
    let mut artifacts = Vec::new();
    let iterations = 30;
    let algos: Vec<(&str, Algo)> = vec![
        ("BSP", Algo::Bsp),
        ("ASP", Algo::Asp),
        ("SSP(s=10)", Algo::Ssp { staleness: 10 }),
        ("AR-SGD", Algo::ArSgd),
        ("AD-PSGD", Algo::AdPsgd),
    ];

    for model in [PaperModel::ResNet50, PaperModel::Vgg16] {
        for net in [NetworkConfig::TEN_GBPS, NetworkConfig::FIFTY_SIX_GBPS] {
            let mut headers: Vec<String> = vec!["algorithm".into()];
            headers.extend(FIG2_WORKERS.iter().map(|w| format!("{w}w")));
            let mut table = Table::new(
                format!(
                    "Fig 2: speedup, {} @ {:.0} Gbps (baseline: 1-worker throughput)",
                    model.name(),
                    net.bandwidth_gbps
                ),
                &headers.iter().map(String::as_str).collect::<Vec<_>>(),
            );
            // The paper's baseline is "the throughput of a single worker":
            // pure computation, no aggregation. A 1-worker AR-SGD run is
            // exactly that (its ring is empty), and it is the same for
            // every algorithm.
            let base_tp = run(&scalability_run(Algo::ArSgd, model, 1, net, iterations)).throughput;
            for (label, algo) in &algos {
                let mut row = vec![label.to_string()];
                for &w in &FIG2_WORKERS {
                    if matches!(algo, Algo::AdPsgd) && w < 2 {
                        row.push("1.00x".into());
                        continue;
                    }
                    let out = run(&scalability_run(*algo, model, w, net, iterations));
                    row.push(fmt_x(out.speedup_vs(base_tp)));
                }
                table.push_row(row);
            }
            let path = format!(
                "results/fig2_{}_{}gbps.csv",
                model.name().to_lowercase().replace('-', ""),
                net.bandwidth_gbps as u32
            );
            artifacts.push(Artifact::csv(path, table));
        }
    }
    artifacts
}
