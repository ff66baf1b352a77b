//! Ablation benches for the design choices DESIGN.md §9 calls out:
//!
//! 1. BSP local aggregation on/off;
//! 2. layer-wise vs greedy-balanced parameter sharding (VGG-16's fc6 skew);
//! 3. AD-PSGD communication/computation overlap on/off;
//! 4. DGC component knock-outs (accumulation, momentum correction, factor
//!    masking) measured on real training accuracy.

use dtrain_core::prelude::*;
use dtrain_core::presets::PaperModel::{ResNet50, Vgg16};
use dtrain_core::presets::{accuracy_run, paper_cluster_run, AccuracyScale};

use crate::Artifact;

pub fn artifacts() -> Vec<Artifact> {
    let iters = 25;
    let workers = 24;
    vec![
        ablate_local_aggregation(workers, iters),
        ablate_sharding(workers, iters),
        ablate_overlap(workers, iters),
        ablate_dgc_components(),
    ]
}

/// The cost-only ablations run on the 10 Gbps paper cluster with this seed.
const NET: NetworkConfig = NetworkConfig::TEN_GBPS;
const SEED: u64 = 31;

fn ablate_local_aggregation(workers: usize, iters: u64) -> Artifact {
    let mut table = Table::new(
        format!("Ablation: BSP local aggregation ({workers} workers, ResNet-50, 10 Gbps)"),
        &["local aggregation", "img/s", "PS GB", "local-agg GB"],
    );
    for on in [false, true] {
        let cfg = paper_cluster_run(Algo::Bsp, ResNet50, workers, NET, iters, on, SEED);
        let out = run(&cfg);
        table.push_row(vec![
            if on { "on" } else { "off" }.into(),
            format!("{:.0}", out.throughput),
            format!(
                "{:.1}",
                out.traffic.bytes_of(dtrain_cluster::TrafficClass::WorkerPs) as f64 / 1e9
            ),
            format!(
                "{:.1}",
                out.traffic.bytes_of(dtrain_cluster::TrafficClass::LocalAgg) as f64 / 1e9
            ),
        ]);
    }
    Artifact::csv("results/ablation_local_agg.csv", table)
}

fn ablate_sharding(workers: usize, iters: u64) -> Artifact {
    let mut table = Table::new(
        format!("Ablation: shard placement for VGG-16 (ASP, {workers} workers, 10 Gbps)"),
        &["placement", "img/s", "shard imbalance"],
    );
    for balanced in [false, true] {
        let mut cfg = paper_cluster_run(Algo::Asp, Vgg16, workers, NET, iters, false, SEED);
        cfg.opts.balanced_sharding = balanced;
        let bytes: Vec<u64> = cfg.profile.layers.iter().map(|l| l.bytes()).collect();
        let plan = if balanced {
            ShardPlan::balanced(&bytes, cfg.opts.ps_shards)
        } else {
            ShardPlan::layer_wise(&bytes, cfg.opts.ps_shards)
        };
        let out = run(&cfg);
        table.push_row(vec![
            if balanced {
                "greedy-balanced"
            } else {
                "layer-wise (paper)"
            }
            .into(),
            format!("{:.0}", out.throughput),
            format!("{:.2}", plan.imbalance()),
        ]);
    }
    Artifact::csv("results/ablation_sharding.csv", table)
}

fn ablate_overlap(workers: usize, iters: u64) -> Artifact {
    let mut table = Table::new(
        format!("Ablation: AD-PSGD comm/compute overlap ({workers} workers, VGG-16, 10 Gbps)"),
        &["overlap", "img/s"],
    );
    for disable in [false, true] {
        let mut cfg = paper_cluster_run(Algo::AdPsgd, Vgg16, workers, NET, iters, false, SEED);
        cfg.opts.disable_overlap = disable;
        let out = run(&cfg);
        table.push_row(vec![
            if disable { "off" } else { "on (paper)" }.into(),
            format!("{:.0}", out.throughput),
        ]);
    }
    Artifact::csv("results/ablation_overlap.csv", table)
}

fn ablate_dgc_components() -> Artifact {
    let scale = AccuracyScale::default();
    let workers = 8;
    let mut table = Table::new(
        format!(
            "Ablation: DGC components (ASP, {workers} workers, real training, {} epochs)",
            scale.epochs
        ),
        &["variant", "final accuracy"],
    );
    // Reference: dense gradients.
    let dense = run(&accuracy_run(Algo::Asp, workers, &scale));
    table.push_row(vec![
        "dense (no DGC)".into(),
        fmt_acc(dense.final_accuracy.expect("dense")),
    ]);
    let iters_per_worker = scale.epochs * (scale.train_size / workers / scale.batch) as u64;
    let full = dtrain_core::presets::scaled_dgc(iters_per_worker);
    let variants: Vec<(&str, DgcConfig)> = vec![
        ("full DGC", full.clone()),
        (
            "no local accumulation",
            DgcConfig {
                local_accumulation: false,
                ..full.clone()
            },
        ),
        (
            "no momentum correction",
            DgcConfig {
                momentum_correction: false,
                ..full.clone()
            },
        ),
        (
            "no factor masking",
            DgcConfig {
                factor_masking: false,
                ..full.clone()
            },
        ),
        (
            "no warm-up",
            DgcConfig {
                warmup_schedule: vec![],
                ..full.clone()
            },
        ),
    ];
    for (label, dgc) in variants {
        let mut cfg = accuracy_run(Algo::Asp, workers, &scale);
        cfg.opts.dgc = Some(dgc);
        let out = run(&cfg);
        table.push_row(vec![
            label.into(),
            fmt_acc(out.final_accuracy.expect("variant accuracy")),
        ]);
    }
    Artifact::csv("results/ablation_dgc.csv", table)
}
