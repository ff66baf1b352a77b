//! Figure 4 — training throughput of the centralized algorithms with the
//! three optimizations applied cumulatively (none → +parameter sharding →
//! +wait-free BP → +DGC) at 8/16/24 workers, both models, both networks.
//!
//! Paper readings: sharding helps ASP/SSP more than BSP (local aggregation
//! already absorbed BSP's PS traffic); sharding helps ResNet-50 more than
//! VGG-16 (fc6 defeats layer-wise placement); wait-free BP is modest; DGC
//! is dramatic for ASP/SSP on bandwidth-starved configurations and makes
//! them scale almost linearly.
//!
//! `fig4_collective` is the schedule crossover study: AR-SGD under the flat
//! ring vs. the two-level hierarchical allreduce vs. the chunked pipelined
//! schedule, swept over machine counts and both models on the 10 Gbps
//! cluster (8 iterations over 1–16 machines, under a second). It reports
//! the crossover point (the smallest machine count where pipelined beats
//! the flat ring) per model and rewrites the committed `BENCH_008.json`.
//! Its self-check diverges if pipelined fails to beat flat for ResNet-50
//! at 8+ machines. `DTRAIN_TRACE=perfetto` also writes
//! `results/trace_fig4_collective.json`.

use dtrain_core::prelude::*;
use dtrain_core::presets::{collective_run, optimization_run, PaperModel};

use crate::trajectory::{TrajRecord, Trajectory};
use crate::Artifact;

/// The collective crossover study (see module docs).
pub fn collective() -> Vec<Artifact> {
    let iterations = 8;
    let machine_counts = [1, 2, 4, 8, 12, 16];
    let net = NetworkConfig::TEN_GBPS;
    let mut records: Vec<TrajRecord> = Vec::new();
    let mut divergences: Vec<String> = Vec::new();
    let mut notes = Vec::new();

    let mut table = Table::new(
        format!(
            "Fig 4 (collective): AR-SGD throughput (img/s) by schedule @ {:.0} Gbps",
            net.bandwidth_gbps
        ),
        &["model", "machines", "flat", "hier", "pipelined", "best"],
    );
    for model in [PaperModel::ResNet50, PaperModel::Vgg16] {
        let mut crossover: Option<usize> = None;
        for m in machine_counts {
            let mut row = vec![model.name().to_string(), m.to_string()];
            let mut times = Vec::new();
            for schedule in CollectiveSchedule::ALL {
                let out = run(&collective_run(model, m, net, schedule, iterations));
                row.push(format!("{:.0}", out.throughput));
                records.push(TrajRecord {
                    name: format!(
                        "arsgd_{}_{}",
                        schedule.name(),
                        model.name().to_lowercase().replace('-', "")
                    ),
                    machines: m,
                    value: out.end_time.as_secs_f64() * 1e3 / iterations as f64,
                    unit: "ms/iter",
                });
                times.push((schedule, out.end_time));
            }
            let (best, _) = times
                .iter()
                .min_by_key(|&&(_, t)| t)
                .copied()
                .expect("three schedules ran");
            row.push(best.name().to_string());
            table.push_row(row);
            let flat = times[0].1;
            let piped = times[2].1;
            if piped < flat && crossover.is_none() {
                crossover = Some(m);
            }
            // The acceptance bar: at ResNet-50 scale, the chunked
            // pipelined schedule must beat the flat ring once the
            // inter-machine ring dominates (8+ machines).
            if model == PaperModel::ResNet50 && m >= 8 && piped >= flat {
                divergences.push(format!(
                    "pipelined ({piped:?}) not faster than flat ({flat:?}) for {} at {m} machines",
                    model.name()
                ));
            }
        }
        notes.push(match crossover {
            Some(m) => format!(
                "crossover: pipelined beats flat for {} from {m} machine(s) (of {:?})",
                model.name(),
                machine_counts
            ),
            None => format!(
                "crossover: pipelined never beats flat for {} over {:?}",
                model.name(),
                machine_counts
            ),
        });
    }
    let mut artifacts = vec![Artifact::csv(
        "results/collective/fig4_collective.csv",
        table,
    )];
    artifacts.extend(notes.into_iter().map(Artifact::Note));

    // One observed run of the most interesting cell for the timeline:
    // every coll.* span/counter lands on real Perfetto tracks, so the
    // DESIGN.md §6 overlap diagram is readable straight off the trace.
    if std::env::var("DTRAIN_TRACE").is_ok_and(|v| v == "perfetto") {
        let m = *machine_counts.last().expect("non-empty sweep");
        let sink = ObsSink::enabled();
        let cfg = collective_run(
            PaperModel::ResNet50,
            m,
            net,
            CollectiveSchedule::Pipelined,
            iterations,
        );
        run_observed(&cfg, &sink);
        artifacts.push(Artifact::Trace(
            "results/trace_fig4_collective.json".into(),
            perfetto_trace(&sink.snapshot()),
        ));
    }

    artifacts.push(Artifact::Trajectory(
        "BENCH_008.json",
        Trajectory {
            meta: vec![("iterations", iterations.to_string())],
            records,
            divergences,
        },
    ));
    artifacts
}

/// The paper's original figure: cumulative optimization levels.
pub fn cumulative() -> Vec<Artifact> {
    let mut artifacts = Vec::new();
    let iterations = 25;
    let worker_counts: Vec<usize> = vec![8, 16, 24];
    let algos: Vec<(&str, Algo)> = vec![
        ("BSP", Algo::Bsp),
        ("ASP", Algo::Asp),
        ("SSP(s=10)", Algo::Ssp { staleness: 10 }),
    ];
    const LEVELS: [&str; 4] = ["none", "+shard", "+waitfree", "+dgc"];

    for model in [PaperModel::ResNet50, PaperModel::Vgg16] {
        for net in [NetworkConfig::TEN_GBPS, NetworkConfig::FIFTY_SIX_GBPS] {
            let mut table = Table::new(
                format!(
                    "Fig 4: throughput (img/s) with cumulative optimizations, {} @ {:.0} Gbps",
                    model.name(),
                    net.bandwidth_gbps
                ),
                &[
                    "algorithm",
                    "workers",
                    "none",
                    "+shard",
                    "+waitfree",
                    "+dgc",
                ],
            );
            for (label, algo) in &algos {
                for &w in &worker_counts {
                    let mut row = vec![label.to_string(), w.to_string()];
                    for level in 0..LEVELS.len() {
                        let out = run(&optimization_run(*algo, model, w, net, level, iterations));
                        row.push(format!("{:.0}", out.throughput));
                    }
                    table.push_row(row);
                }
            }
            let path = format!(
                "results/fig4_{}_{}gbps.csv",
                model.name().to_lowercase().replace('-', ""),
                net.bandwidth_gbps as u32
            );
            artifacts.push(Artifact::csv(path, table));
        }
    }
    artifacts
}
