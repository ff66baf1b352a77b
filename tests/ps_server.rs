//! Pins of the simulated parameter server's rarely taken paths, which no
//! other golden reaches: BSP replies over the double-binary-tree broadcast
//! (a non-flat `CollectiveSchedule` on a BSP run), elastic BSP rounds
//! force-closed at their barrier deadline by a live straggler (serial and
//! tree replies, late pushes passing through), a classic BSP run that
//! crashes one worker twice, and a real-math PS outage that rolls a shard
//! back to its checkpoint under BSP, ASP and EASGD, classic and elastic.
//!
//! `tests/golden/ps_server.digest` holds one line per cell: its name, the
//! event count and FNV-1a-64 of its canonical trace, and for real-math
//! cells FNV-1a-64 of the final parameters' bits. Each cell also asserts
//! the marker that proves it took the path it pins. A moved cell's trace
//! lands in `results/golden_diffs/`.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use dtrain_core::prelude::*;
use dtrain_core::presets::{accuracy_run, AccuracyScale};
use dtrain_desim::SimTime;
use dtrain_nn::ParamSet;

fn fnv1a64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn params_fnv(p: &ParamSet) -> u64 {
    fnv1a64(
        p.0.iter()
            .flat_map(|t| t.data().iter().flat_map(|v| v.to_bits().to_le_bytes())),
    )
}

/// `golden_traces.rs`'s cluster: 2 machines × 2 workers, ResNet-50 timing,
/// two PS shards, no local aggregation (so a BSP round has four members).
fn cost_cfg(iters: u64) -> RunConfig {
    let mut cluster = ClusterConfig::paper_with_workers(NetworkConfig::TEN_GBPS, 4);
    cluster.machines = 2;
    cluster.gpus_per_machine = 2;
    RunConfig {
        algo: Algo::Bsp,
        cluster,
        workers: 4,
        profile: resnet50(),
        batch: 64,
        opts: OptimizationConfig {
            ps_shards: 2,
            ..Default::default()
        },
        stop: StopCondition::Iterations(iters),
        faults: None,
        real: None,
        seed: 77,
    }
}

fn crash(at_ms: u64, restart_after: Option<SimTime>) -> FaultEvent {
    FaultEvent {
        at: SimTime::from_millis(at_ms),
        kind: FaultKind::WorkerCrash {
            worker: 1,
            restart_after,
        },
    }
}

fn faults(events: Vec<FaultEvent>, elastic: bool, every: u64) -> Option<FaultConfig> {
    Some(FaultConfig {
        schedule: FaultSchedule::new(events),
        checkpoint_interval: every,
        elastic: elastic.then(ElasticConfig::default),
    })
}

/// The cost-only cells, each with the trace names it must contain.
fn cost_cells() -> Vec<(&'static str, RunConfig, Vec<&'static str>)> {
    let restart = Some(SimTime::from_secs(2));
    let tree = |mut cfg: RunConfig| {
        cfg.opts.collective = CollectiveSchedule::Hier;
        cfg
    };
    // A 16x straggler computes ≈ 3 s past the others, more than the 2 s
    // barrier deadline: every round closes without it, and its push lands
    // late.
    let straggler = |mut cfg: RunConfig| {
        let slow = FaultEvent {
            at: SimTime::ZERO,
            kind: FaultKind::Straggler {
                worker: 1,
                slowdown: 16.0,
            },
        };
        cfg.faults = faults(vec![slow], true, 4);
        cfg
    };
    let mut twice_restart = cost_cfg(12);
    twice_restart.faults = faults(vec![crash(100, restart), crash(4000, restart)], false, 4);
    let mut twice_permanent = cost_cfg(12);
    twice_permanent.faults = faults(vec![crash(100, restart), crash(4000, None)], false, 4);
    vec![
        ("bsp_tree", tree(cost_cfg(3)), vec!["coll.tree_fanout"]),
        (
            "bsp_elastic_straggler",
            straggler(cost_cfg(6)),
            vec!["barrier.partial"],
        ),
        (
            "bsp_tree_elastic_straggler",
            straggler(tree(cost_cfg(6))),
            vec!["coll.tree_fanout", "barrier.partial"],
        ),
        (
            "bsp_classic_crash_twice_restart",
            twice_restart,
            vec!["fault.crash", "fault.restart"],
        ),
        (
            "bsp_classic_crash_twice_permanent",
            twice_permanent,
            vec!["fault.crash", "fault.restart"],
        ),
    ]
}

/// A 4-worker real-math teacher run of `algo` whose PS shard 0 goes dark
/// for a tenth of the healthy run, 3/7 of the way in, and the healthy run's
/// final parameters. Cadence and start are chosen so that the restore rolls
/// the shard back in every cell (asserted).
fn outage_cfg(algo: Algo, elastic: bool) -> (RunConfig, ParamSet) {
    let scale = AccuracyScale {
        epochs: 2,
        train_size: 512,
        test_size: 64,
        batch: 8,
        base_lr: 0.008,
        seed: 11,
    };
    let mut cfg = accuracy_run(algo, 4, &scale);
    let healthy = run(&cfg);
    let horizon = healthy.end_time.as_nanos();
    let outage = FaultEvent {
        at: SimTime::from_nanos(horizon * 3 / 7),
        kind: FaultKind::PsShardFail {
            shard: 0,
            outage: SimTime::from_nanos(horizon / 10),
        },
    };
    cfg.faults = faults(vec![outage], elastic, 5);
    (
        cfg,
        healthy.final_params.expect("a real-math run has a model"),
    )
}

fn real_cells() -> Vec<(String, RunConfig, ParamSet)> {
    let algos = [
        ("bsp", Algo::Bsp),
        ("asp", Algo::Asp),
        (
            "easgd",
            Algo::Easgd {
                tau: 2,
                alpha: None,
            },
        ),
    ];
    let mut cells = Vec::new();
    for (name, algo) in algos {
        for (mode, elastic) in [("classic", false), ("elastic", true)] {
            let (cfg, healthy) = outage_cfg(algo, elastic);
            cells.push((format!("{name}_ps_outage_{mode}"), cfg, healthy));
        }
    }
    cells
}

/// One observed run: its digest line, canonical trace and final model.
fn cell(name: &str, cfg: &RunConfig, must: &[&str]) -> (String, String, Option<ParamSet>) {
    let sink = ObsSink::enabled();
    let out = run_observed(cfg, &sink);
    assert_eq!(sink.dropped(), 0, "{name}: ring buffers overflowed");
    let events = sink.snapshot();
    let trace = canonical_trace(&events);
    for m in must {
        assert!(trace.contains(m), "{name}: trace lacks {m}");
    }
    let mut line = format!("{name} {} {:016x}", events.len(), fnv1a64(trace.bytes()));
    if let Some(p) = &out.final_params {
        write!(line, " {:016x}", params_fnv(p)).unwrap();
    }
    (line, trace, out.final_params)
}

#[test]
fn ps_server_paths_match_the_recorded_digest() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let path = root.join("tests/golden/ps_server.digest");
    let mut cells: Vec<(String, RunConfig, Vec<&str>)> = cost_cells()
        .into_iter()
        .map(|(n, c, m)| (n.to_string(), c, m))
        .collect();
    let mut healthy = Vec::new();
    for (name, cfg, params) in real_cells() {
        let restore = vec!["ckpt.restore", "fault.ps_outage"];
        cells.push((name.clone(), cfg, restore));
        healthy.push((name, params));
    }
    let mut digest = String::new();
    let mut traces = Vec::new();
    for (name, cfg, must) in &cells {
        let (line, trace, params) = cell(name, cfg, must);
        if let Some((_, h)) = healthy.iter().find(|(n, _)| n == name) {
            let p = params.expect("a real-math run has a model");
            assert!(p.max_abs_diff(h) > 0.0, "{name}: the restore moved nothing");
        }
        digest.push_str(&line);
        digest.push('\n');
        traces.push((name.clone(), line, trace));
    }
    // The second crash is honoured: worker 1 crashes twice in both cells.
    for (name, _, trace) in &traces {
        if name.starts_with("bsp_classic_crash_twice") {
            let crashes = trace
                .lines()
                .filter(|l| l.contains(" w1 ") && l.contains("fault.crash"))
                .count();
            assert_eq!(crashes, 2, "{name}: worker 1 should crash twice");
        }
    }
    if std::env::var("DTRAIN_BLESS").is_ok_and(|v| v == "1") {
        fs::write(&path, &digest).unwrap();
    }
    let want = fs::read_to_string(&path).expect("tests/golden/ps_server.digest is committed");
    let mut moved = Vec::new();
    for (name, line, trace) in &traces {
        if !want.lines().any(|l| l == line) {
            let dir = root.join("results/golden_diffs");
            fs::create_dir_all(&dir).unwrap();
            fs::write(dir.join(format!("{name}.trace")), trace).unwrap();
            moved.push(line.clone());
        }
    }
    assert!(
        moved.is_empty() && want == digest,
        "moved cells (traces in results/golden_diffs/):\n{}\nwant:\n{want}",
        moved.join("\n")
    );
}
