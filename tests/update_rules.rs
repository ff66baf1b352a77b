//! Bit pin of every algorithm's update rule: `tests/golden/update_rules.digest`
//! holds one FNV-1a-64 line of final-parameter bits per cell, so a change to
//! what an aggregation *does* (sum order, scaling, learning rate, merge
//! weights) shows as the exact lines it moved.
//!
//! The cells are the simulator's real-math teacher runs of all seven
//! algorithms at 4 workers, simulated BSP with local aggregation and with
//! DGC, five simulated loss-and-rejoin runs (BSP, SSP and the three
//! decentralized algorithms with worker 1 out for a window of rounds), and
//! the threaded runs whose arithmetic does not race: BSP, AR-SGD
//! and hierarchical BSP at 4 workers, ASP, SSP and EASGD at 1 worker. The
//! simulator cells are checked on every supported ISA tier; the threaded
//! cells run on the process-wide tier (`DTRAIN_SIMD`), since worker threads
//! do not inherit a `with_isa` scope.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use dtrain_core::prelude::*;
use dtrain_core::presets::{accuracy_run, accuracy_run_with_dgc, AccuracyScale};
use dtrain_data::{teacher_task, TeacherTaskConfig};
use dtrain_models::mlp_classifier;
use dtrain_nn::ParamSet;
use dtrain_runtime::{train_threaded, ThreadedConfig};
use dtrain_tensor::simd::{supported_isas, with_isa};

/// Every parameter's bit pattern, in order.
fn bits(p: &ParamSet) -> Vec<u32> {
    p.0.iter()
        .flat_map(|t| t.data().iter().map(|v| v.to_bits()))
        .collect()
}

/// FNV-1a-64 over the little-endian bit patterns of every parameter.
fn fnv1a64(p: &ParamSet) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for t in &p.0 {
        for b in t.data().iter().flat_map(|v| v.to_bits().to_le_bytes()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn scale() -> AccuracyScale {
    AccuracyScale {
        epochs: 2,
        train_size: 512,
        test_size: 64,
        batch: 8,
        base_lr: 0.008,
        seed: 11,
    }
}

/// Hyperparameters that exercise each rule inside a 2-epoch run.
fn algorithms() -> [(&'static str, Algo); 7] {
    [
        ("bsp", Algo::Bsp),
        ("asp", Algo::Asp),
        ("ssp", Algo::Ssp { staleness: 3 }),
        (
            "easgd",
            Algo::Easgd {
                tau: 2,
                alpha: None,
            },
        ),
        ("arsgd", Algo::ArSgd),
        ("gosgd", Algo::GoSgd { p: 0.5 }),
        ("adpsgd", Algo::AdPsgd),
    ]
}

fn sim_params(cfg: &RunConfig) -> ParamSet {
    run(cfg).final_params.expect("a real-math run has a model")
}

/// The simulator's lines, on the calling thread's ISA tier.
fn sim_digest() -> String {
    let mut out = String::new();
    for (name, algo) in algorithms() {
        let p = sim_params(&accuracy_run(algo, 4, &scale()));
        writeln!(out, "sim {name} {:016x}", fnv1a64(&p)).unwrap();
    }
    // Local aggregation over two machines of two: two leaders, each
    // pushing a sum of weight 2.
    let mut local = accuracy_run(Algo::Bsp, 4, &scale());
    local.opts.local_aggregation = true;
    local.cluster.gpus_per_machine = 2;
    local.cluster.machines = 2;
    writeln!(out, "sim bsp+local {:016x}", fnv1a64(&sim_params(&local))).unwrap();
    let dgc = accuracy_run_with_dgc(Algo::Bsp, 4, &scale());
    writeln!(out, "sim bsp+dgc {:016x}", fnv1a64(&sim_params(&dgc))).unwrap();
    for (name, algo) in algorithms() {
        if matches!(name, "bsp" | "ssp" | "arsgd" | "gosgd" | "adpsgd") {
            let p = sim_params(&with_rejoin(accuracy_run(algo, 4, &scale())));
            writeln!(out, "sim {name}+rejoin {:016x}", fnv1a64(&p)).unwrap();
        }
    }
    out
}

/// `cfg` under elastic membership with worker 1 out for rounds 5–19 of the
/// 32: it dies 1 s into `ElasticConfig`'s 200 ms rounds and comes back 3 s
/// later, so each rule's rejoin (server pull, SSP re-admission, checkpoint
/// restore, the round's parameters) reaches the final model.
fn with_rejoin(mut cfg: RunConfig) -> RunConfig {
    use dtrain_desim::SimTime;
    let elastic = ElasticConfig::default();
    let schedule = FaultSchedule::new(vec![FaultEvent {
        at: SimTime::from_secs(1),
        kind: FaultKind::WorkerCrash {
            worker: 1,
            restart_after: Some(SimTime::from_secs(3)),
        },
    }]);
    assert_eq!(
        MembershipView::from_schedule(&schedule, cfg.workers, &elastic),
        MembershipView::from_events(cfg.workers, &[(1, 5)], &[(1, 20)])
    );
    cfg.faults = Some(FaultConfig {
        schedule,
        checkpoint_interval: 4,
        elastic: Some(elastic),
    });
    cfg
}

/// A threaded teacher run's final parameters.
fn threaded_params(cfg: &ThreadedConfig) -> ParamSet {
    let task = TeacherTaskConfig {
        train_size: 512,
        test_size: 64,
        seed: 11,
        ..Default::default()
    };
    let (train, test) = teacher_task(&task);
    let factory = || mlp_classifier(task.input_dim, &[64, 32], task.num_classes, 7);
    train_threaded(factory, &Arc::new(train), &test, cfg).final_params
}

/// The threaded lines: only cells whose final model does not depend on
/// thread timing.
fn threaded_digest() -> String {
    let cells = [
        ("bsp", Algo::Bsp, 4, CollectiveSchedule::Flat),
        ("arsgd", Algo::ArSgd, 4, CollectiveSchedule::Flat),
        ("bsp+hier", Algo::Bsp, 4, CollectiveSchedule::Hier),
        ("asp", Algo::Asp, 1, CollectiveSchedule::Flat),
        (
            "ssp",
            Algo::Ssp { staleness: 3 },
            1,
            CollectiveSchedule::Flat,
        ),
        (
            "easgd",
            Algo::Easgd {
                tau: 2,
                alpha: None,
            },
            1,
            CollectiveSchedule::Flat,
        ),
    ];
    let mut out = String::new();
    for (name, strategy, workers, collective) in cells {
        let cfg = ThreadedConfig {
            workers,
            epochs: 2,
            batch: 8,
            strategy,
            seed: 5,
            collective,
            gpus_per_machine: 2,
            ..Default::default()
        };
        writeln!(out, "thr {name} {:016x}", fnv1a64(&threaded_params(&cfg))).unwrap();
    }
    out
}

/// The lines of `digest` that start with `prefix`, one string.
fn lines_of(digest: &str, prefix: &str) -> String {
    let lines: Vec<&str> = digest.lines().filter(|l| l.starts_with(prefix)).collect();
    lines.join("\n")
}

fn check_lines(want: &str, got: &str, at: &str) {
    for (line, (w, g)) in want.lines().zip(got.lines()).enumerate() {
        assert_eq!(w, g, "{} line {} at {at}", &w[..3], line + 1);
    }
    assert_eq!(want.lines().count(), got.lines().count(), "at {at}");
}

#[test]
fn update_rules_match_the_recorded_digest() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/update_rules.digest");
    if std::env::var("DTRAIN_BLESS").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, sim_digest() + &threaded_digest()).unwrap();
    }
    let want =
        std::fs::read_to_string(&path).expect("tests/golden/update_rules.digest is committed");
    let want_sim = lines_of(&want, "sim ");
    for isa in supported_isas() {
        check_lines(&want_sim, &with_isa(isa, sim_digest), isa.name());
    }
    let want_thr = lines_of(&want, "thr ");
    check_lines(&want_thr, &threaded_digest(), "the process-wide tier");
}

/// BSP and AR-SGD are one synchronous mean per round and differ only in
/// how it travels, so on the simulator — flat, no DGC, no local
/// aggregation, BSP's server sharded as `accuracy_run` shards it — they
/// end with the same parameters, bit for bit, on every ISA tier.
#[test]
fn simulated_bsp_and_arsgd_end_with_identical_parameters() {
    let bsp = accuracy_run(Algo::Bsp, 4, &scale());
    assert_eq!(bsp.opts.ps_shards, 2, "the preset shards BSP's server");
    let arsgd = accuracy_run(Algo::ArSgd, 4, &scale());
    for isa in supported_isas() {
        let (b, a) = with_isa(isa, || (sim_params(&bsp), sim_params(&arsgd)));
        assert!(
            bits(&b) == bits(&a),
            "BSP and AR-SGD differ at {}: max |Δ| = {:e}",
            isa.name(),
            b.max_abs_diff(&a)
        );
    }
}

/// SSP at staleness 0 with one worker refreshes its cache after every step
/// and resets its momentum with it. Under the additive table, where the
/// worker's own optimizer takes each step and the server only adds deltas,
/// no velocity survives a step, so the momentum setting cannot change a
/// bit. A server optimizer over raw gradients would carry it.
const SSP_EVERY_STEP: Algo = Algo::Ssp { staleness: 0 };

#[test]
fn threaded_ssp_at_staleness_zero_carries_no_momentum() {
    let at = |momentum| {
        threaded_params(&ThreadedConfig {
            workers: 1,
            epochs: 2,
            batch: 8,
            strategy: SSP_EVERY_STEP,
            momentum,
            seed: 5,
            ..Default::default()
        })
    };
    let (heavy, none) = (at(0.9), at(0.0));
    assert!(
        bits(&heavy) == bits(&none),
        "momentum 0.9 vs 0 differ: max |Δ| = {:e}",
        heavy.max_abs_diff(&none)
    );
}

#[test]
fn simulated_ssp_at_staleness_zero_carries_no_momentum() {
    let at = |momentum| {
        let mut cfg = accuracy_run(SSP_EVERY_STEP, 1, &scale());
        cfg.real.as_mut().unwrap().momentum = momentum;
        sim_params(&cfg)
    };
    let (heavy, none) = (at(0.9), at(0.0));
    assert!(
        bits(&heavy) == bits(&none),
        "momentum 0.9 vs 0 differ: max |Δ| = {:e}",
        heavy.max_abs_diff(&none)
    );
}
