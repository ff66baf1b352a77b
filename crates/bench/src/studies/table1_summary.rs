//! Table I — the paper's summary of communication complexity, verified
//! empirically: run each algorithm cost-only, count the bytes it actually
//! put on the wire, and compare to the closed form.
//!
//! Closed forms (per iteration, model size M, N workers, l GPUs/machine,
//! staleness s, period τ, gossip probability p):
//!
//! | algo    | complexity            |
//! |---------|-----------------------|
//! | BSP     | 2MN·(1/l) (local agg) |
//! | ASP     | 2MN                   |
//! | SSP     | (1 + 1/(s+1))·MN      |
//! | EASGD   | 2MN·(1/τ)             |
//! | AR-SGD  | ≈2MN (ring: 2M(N−1))  |
//! | GoSGD   | MN·p                  |
//! | AD-PSGD | MN                    |

use dtrain_core::prelude::*;
use dtrain_core::presets::{paper_cluster_run, PaperModel};

use crate::Artifact;

pub fn artifacts() -> Vec<Artifact> {
    let iters: u64 = 120;
    let workers = 24;
    let cluster = ClusterConfig::paper_with_workers(NetworkConfig::FIFTY_SIX_GBPS, workers);
    let l = cluster.gpus_per_machine as f64;
    let profile = PaperModel::ResNet50.profile();
    let m = profile.total_bytes() as f64;
    let n = workers as f64;

    let cases: Vec<(&str, Algo, bool, f64)> = vec![
        ("BSP (+local agg)", Algo::Bsp, true, 2.0 * m * n / l),
        ("ASP", Algo::Asp, false, 2.0 * m * n),
        // SSP: pushes MN; pulls MN/(s+1)-ish (we pull every s iterations)
        (
            "SSP (s=10)",
            Algo::Ssp { staleness: 10 },
            false,
            (1.0 + 1.0 / 11.0) * m * n,
        ),
        (
            "EASGD (tau=8)",
            Algo::Easgd {
                tau: 8,
                alpha: None,
            },
            false,
            2.0 * m * n / 8.0,
        ),
        ("AR-SGD", Algo::ArSgd, false, 2.0 * m * (n - 1.0)),
        ("GoSGD (p=0.1)", Algo::GoSgd { p: 0.1 }, false, m * n * 0.1),
        ("AD-PSGD", Algo::AdPsgd, false, m * n),
    ];

    let mut table = Table::new(
        format!("Table I: measured vs closed-form communication per iteration ({workers} workers)"),
        &["algorithm", "measured MB/iter", "formula MB/iter", "ratio"],
    );
    for (label, algo, local_agg, formula) in cases {
        let cfg = paper_cluster_run(
            algo,
            PaperModel::ResNet50,
            workers,
            NetworkConfig::FIFTY_SIX_GBPS,
            iters,
            local_agg,
            5,
        );
        let out = run(&cfg);
        // Aggregation traffic only: worker↔PS plus peer-to-peer. (Local
        // aggregation's intra-machine bytes are exactly what the 1/l factor
        // removes from the network, so they are excluded — as in Table I.)
        let agg = out.traffic.bytes_of(dtrain_cluster::TrafficClass::WorkerPs)
            + out.traffic.bytes_of(dtrain_cluster::TrafficClass::Peer);
        let per_iter = agg as f64 / iters as f64;
        table.push_row(vec![
            label.to_string(),
            format!("{:.1}", per_iter / 1e6),
            format!("{:.1}", formula / 1e6),
            format!("{:.2}", per_iter / formula),
        ]);
    }
    vec![
        Artifact::csv("results/table1_summary.csv", table),
        Artifact::Note(format!(
            "(model: ResNet-50, M = {:.1} MB; ratios near 1.00 confirm Table I's complexity column)",
            m / 1e6
        )),
    ]
}
