//! Cross-path metric consistency: the simulator and the threaded runtime
//! observe the *same logical work* through the same obs vocabulary, so
//! their logical counters — payload bytes pushed and iterations executed —
//! must agree exactly for a synchronous algorithm on the same model and
//! schedule. (Timestamps differ by construction: SimTime vs wall clock.)
//!
//! Also pins the internal consistency of the simulator's own accounting:
//! the per-worker `Breakdown` totals must equal the sum of the phase spans
//! emitted on that worker's track — they are two views of one record call.

use std::sync::Arc;

use dtrain_core::prelude::*;
use dtrain_data::{teacher_task, TeacherTaskConfig};
use dtrain_models::mlp_classifier;
use dtrain_repro::runtime::{train_threaded_observed, ThreadedConfig};

const MODEL_SEED: u64 = 7;

fn tiny_task() -> TeacherTaskConfig {
    TeacherTaskConfig {
        train_size: 128,
        test_size: 32,
        seed: 11,
        ..Default::default()
    }
}

fn final_counter(events: &[Event], track: Track, name: &str) -> Option<i64> {
    events
        .iter()
        .rev()
        .filter(|e| e.track == track)
        .find_map(|e| match e.kind {
            EventKind::Counter { name: n, value } if n == name => Some(value),
            _ => None,
        })
}

fn count_iters(events: &[Event], track: Track) -> usize {
    events
        .iter()
        .filter(|e| e.track == track)
        .filter(|e| matches!(e.kind, EventKind::Enter { name: "iter", .. }))
        .count()
}

/// BSP, 2 workers, 8 iterations, identical MLP on both paths: the
/// cumulative `logical.bytes` counter and the iteration count per worker
/// must match exactly between simulator and threaded runtime.
#[test]
fn sim_and_threaded_agree_on_bsp_logical_metrics() {
    let task = tiny_task();
    let workers = 2usize;
    let batch = 16usize;
    let epochs = 2u64;
    // Per-worker: shard 64 samples / batch 16 = 4 iterations per epoch.
    let iters = epochs * (task.train_size as u64 / workers as u64 / batch as u64);

    // --- Simulator path ---
    let cfg = RunConfig {
        algo: Algo::Bsp,
        cluster: ClusterConfig::paper(NetworkConfig::TEN_GBPS),
        workers,
        profile: resnet50(),
        batch,
        opts: OptimizationConfig::default(),
        stop: StopCondition::Iterations(iters),
        real: Some(RealTraining {
            task: dtrain_algos::SyntheticTask::Teacher(task.clone()),
            batch,
            model_seed: MODEL_SEED,
            ..Default::default()
        }),
        seed: 5,
        faults: None,
    };
    let sim_sink = ObsSink::enabled();
    let out = run_observed(&cfg, &sim_sink);
    let sim_events = sim_sink.snapshot();

    // --- Threaded path, same model / data / schedule ---
    let (train, test) = teacher_task(&task);
    let train = Arc::new(train);
    let thr_sink = ObsSink::enabled();
    let report = train_threaded_observed(
        || mlp_classifier(task.input_dim, &[64, 32], task.num_classes, MODEL_SEED),
        &train,
        &test,
        &ThreadedConfig {
            workers,
            epochs,
            batch,
            strategy: Algo::Bsp,
            seed: 5,
            ..Default::default()
        },
        &thr_sink,
    );
    let thr_events = thr_sink.snapshot();

    let model_bytes = mlp_classifier(task.input_dim, &[64, 32], task.num_classes, MODEL_SEED)
        .get_params()
        .num_bytes();
    assert_eq!(out.total_iterations, report.total_iterations);
    for w in 0..workers {
        let track = Track::Worker(w as u16);
        let sim_bytes = final_counter(&sim_events, track, "logical.bytes")
            .unwrap_or_else(|| panic!("sim worker {w} emitted no logical.bytes"));
        let thr_bytes = final_counter(&thr_events, track, "logical.bytes")
            .unwrap_or_else(|| panic!("threaded worker {w} emitted no logical.bytes"));
        assert_eq!(
            sim_bytes, thr_bytes,
            "worker {w}: simulator pushed {sim_bytes} logical bytes, threaded {thr_bytes}"
        );
        // Both equal the analytic value: one full-model gradient per iteration.
        assert_eq!(sim_bytes as u64, iters * model_bytes);
        assert_eq!(
            count_iters(&sim_events, track),
            iters as usize,
            "sim worker {w} iteration count"
        );
        assert_eq!(
            count_iters(&thr_events, track),
            iters as usize,
            "threaded worker {w} iteration count"
        );
    }
}

/// Elastic membership must mean the same thing on both execution paths:
/// for one loss-and-rejoin plan, the simulator (virtual time) and the
/// threaded runtime (wall clock) must agree on the membership view, the
/// final live cohort, and the total iteration count — the live-cohort
/// schedule is path-independent.
#[test]
fn sim_and_threaded_agree_on_elastic_bsp_schedule() {
    use dtrain_repro::desim::SimTime;
    use dtrain_repro::faults::{
        ElasticConfig, ElasticRuntime, FaultEvent, FaultKind, FaultSchedule, MembershipView,
    };
    use dtrain_repro::runtime::{train_threaded, RuntimeFaultConfig};

    let workers = 4usize;
    let rounds = 12u64;

    // One plan: worker 1 dies at round 1 and rejoins at round 11. The sim
    // derives the view from a timed crash (100 ms into 200 ms rounds, back
    // 2 s later); the threaded path takes the view directly. One
    // `ElasticConfig` feeds both paths.
    let elastic = ElasticConfig::default();
    let schedule = FaultSchedule::new(vec![FaultEvent {
        at: SimTime::from_millis(100),
        kind: FaultKind::WorkerCrash {
            worker: 1,
            restart_after: Some(SimTime::from_secs(2)),
        },
    }]);
    let view = MembershipView::from_schedule(&schedule, workers, &elastic);
    assert_eq!(
        view,
        MembershipView::from_events(workers, &[(1, 1)], &[(1, 11)])
    );
    let scheduled: u64 = (0..rounds).map(|r| view.live_at(r).len() as u64).sum();

    // --- Simulator path ---
    let sim = run(&RunConfig {
        algo: Algo::Bsp,
        cluster: ClusterConfig::paper_with_workers(NetworkConfig::TEN_GBPS, workers),
        workers,
        profile: resnet50(),
        batch: 64,
        opts: OptimizationConfig::default(),
        stop: StopCondition::Iterations(rounds),
        real: None,
        seed: 5,
        faults: Some(FaultConfig {
            schedule,
            checkpoint_interval: 4,
            elastic: Some(elastic.clone()),
        }),
    });

    // --- Threaded path: 256 samples / 4 workers / batch 16 = 4 rounds per
    // epoch, 3 epochs = the same 12 rounds ---
    let task = TeacherTaskConfig {
        train_size: 256,
        test_size: 64,
        seed: 11,
        ..Default::default()
    };
    let (train, test) = teacher_task(&task);
    let train = Arc::new(train);
    let report = train_threaded(
        || mlp_classifier(task.input_dim, &[64, 32], task.num_classes, MODEL_SEED),
        &train,
        &test,
        &ThreadedConfig {
            workers,
            epochs: 3,
            batch: 16,
            strategy: Algo::Bsp,
            seed: 5,
            faults: Some(RuntimeFaultConfig {
                elastic: Some(ElasticRuntime {
                    view: Arc::new(view.clone()),
                    cfg: elastic,
                }),
                checkpoint_interval: 4,
                ..Default::default()
            }),
            ..Default::default()
        },
    );

    assert_eq!(
        sim.total_iterations, scheduled,
        "simulator must follow the live-cohort schedule"
    );
    assert_eq!(
        report.total_iterations, scheduled,
        "threaded runtime must follow the live-cohort schedule"
    );
    assert_eq!(report.restarts, 0);
    assert_eq!((report.evictions, report.rejoins), (1, 1));
    // Rejoin at round 11 means the final cohort is whole again on both paths.
    assert_eq!(view.live_at(rounds - 1), vec![0, 1, 2, 3]);
}

/// The rejoin plan the pins below share: 4 workers, 48 rounds (teacher task
/// 512/64, batch 8, 3 epochs), worker 1 dead at round 5 and back at round
/// 42, a checkpoint every 4 executed rounds. The simulator derives the view
/// from a timed crash (1.0 s into 200 ms rounds, back 7.4 s later); the
/// threaded path takes the view directly. Returns both runs' events.
fn rejoin_runs(algo: Algo) -> (Vec<Event>, Vec<Event>) {
    use dtrain_repro::desim::SimTime;
    use dtrain_repro::faults::{
        ElasticConfig, ElasticRuntime, FaultEvent, FaultKind, FaultSchedule, MembershipView,
    };
    use dtrain_repro::runtime::RuntimeFaultConfig;

    let (workers, batch, epochs) = (REJOIN_WORKERS, 8usize, 3u64);
    let task = rejoin_task();
    assert_eq!(
        epochs * (task.train_size / workers / batch) as u64,
        REJOIN_ROUNDS
    );

    let elastic = ElasticConfig::default();
    let schedule = FaultSchedule::new(vec![FaultEvent {
        at: SimTime::from_secs(1),
        kind: FaultKind::WorkerCrash {
            worker: 1,
            restart_after: Some(SimTime::from_millis(7_400)),
        },
    }]);
    let view = MembershipView::from_schedule(&schedule, workers, &elastic);
    assert_eq!(
        view,
        MembershipView::from_events(workers, &[(1, 5)], &[(1, 42)])
    );

    let sim_sink = ObsSink::enabled();
    run_observed(
        &RunConfig {
            algo,
            cluster: ClusterConfig::paper_with_workers(NetworkConfig::TEN_GBPS, workers),
            workers,
            profile: resnet50(),
            batch: 64,
            opts: OptimizationConfig::default(),
            stop: StopCondition::Epochs(epochs),
            real: Some(RealTraining {
                task: dtrain_algos::SyntheticTask::Teacher(task.clone()),
                batch,
                model_seed: MODEL_SEED,
                ..Default::default()
            }),
            seed: 11,
            faults: Some(FaultConfig {
                schedule,
                checkpoint_interval: 4,
                elastic: Some(elastic.clone()),
            }),
        },
        &sim_sink,
    );

    let (train, test) = teacher_task(&task);
    let thr_sink = ObsSink::enabled();
    train_threaded_observed(
        || mlp_classifier(task.input_dim, &[64, 32], task.num_classes, MODEL_SEED),
        &Arc::new(train),
        &test,
        &ThreadedConfig {
            workers,
            epochs,
            batch,
            strategy: algo,
            seed: 11,
            faults: Some(RuntimeFaultConfig {
                elastic: Some(ElasticRuntime {
                    view: Arc::new(view),
                    cfg: elastic,
                }),
                checkpoint_interval: 4,
                ..Default::default()
            }),
            ..Default::default()
        },
        &thr_sink,
    );
    (sim_sink.snapshot(), thr_sink.snapshot())
}

const REJOIN_WORKERS: usize = 4;
const REJOIN_ROUNDS: u64 = 48;

fn rejoin_task() -> TeacherTaskConfig {
    TeacherTaskConfig {
        train_size: 512,
        test_size: 64,
        seed: 11,
        ..Default::default()
    }
}

/// EASGD exchanges with the center every τ-th *round of the run* on both
/// paths, so a rank that sat rounds out rejoins on the cohort's cadence
/// rather than restarting its own count. EASGD τ = 4 under the rejoin plan:
/// worker 1 exchanges at rounds 3, 43 and 47 (three pushes); every other
/// worker at each of the twelve.
#[test]
fn sim_and_threaded_agree_on_an_easgd_rejoiners_exchanges() {
    let tau = 4u64;
    let (sim_events, thr_events) = rejoin_runs(Algo::Easgd { tau, alpha: None });
    let task = rejoin_task();
    let model_bytes = mlp_classifier(task.input_dim, &[64, 32], task.num_classes, MODEL_SEED)
        .get_params()
        .num_bytes() as i64;
    for w in 0..REJOIN_WORKERS {
        let track = Track::Worker(w as u16);
        let bytes = [&sim_events, &thr_events].map(|ev| {
            final_counter(ev, track, "logical.bytes")
                .unwrap_or_else(|| panic!("worker {w} emitted no logical.bytes"))
        });
        let exchanges = if w == 1 { 3 } else { REJOIN_ROUNDS / tau } as i64;
        assert_eq!(
            bytes,
            [exchanges * model_bytes; 2],
            "worker {w}: simulated / threaded logical bytes"
        );
    }
}

/// A GoSGD or AD-PSGD rejoiner has no server to pull from: on both paths it
/// resumes from its own last checkpoint (`Algo::restores_from_checkpoint`).
/// Under the rejoin plan worker 1 executed rounds 0–4 before it died, so it
/// restores the checkpoint of its 4th round, once, and executes 5 + 6
/// rounds; every other worker executes all 48.
#[test]
fn sim_and_threaded_restore_a_decentralized_rejoiner_from_its_checkpoint() {
    fn restores(events: &[Event], track: Track) -> Vec<i64> {
        let restore = |e: &Event| match e.kind {
            EventKind::Instant {
                name: "ckpt.restore",
                value,
            } => Some(value),
            _ => None,
        };
        events
            .iter()
            .filter(|e| e.track == track)
            .filter_map(restore)
            .collect()
    }
    for algo in [Algo::GoSgd { p: 0.5 }, Algo::AdPsgd] {
        let (sim_events, thr_events) = rejoin_runs(algo);
        let name = algo.name();
        for w in 0..REJOIN_WORKERS {
            let track = Track::Worker(w as u16);
            let (restored, rounds) = if w == 1 { (vec![4], 11) } else { (vec![], 48) };
            for (path, events) in [("simulator", &sim_events), ("threads", &thr_events)] {
                assert_eq!(
                    (restores(events, track), count_iters(events, track)),
                    (restored.clone(), rounds),
                    "{name}: worker {w}'s restores and executed rounds on the {path}"
                );
            }
        }
    }
}

/// The per-worker `Breakdown` the runner reports and the phase spans on the
/// worker's obs track are two projections of the same `record_at` calls:
/// per phase, the span durations must sum to the Breakdown total exactly.
#[test]
fn breakdown_totals_equal_span_sums() {
    for algo in [Algo::Bsp, Algo::Asp, Algo::ArSgd, Algo::AdPsgd] {
        let cfg = RunConfig {
            algo,
            cluster: ClusterConfig::paper(NetworkConfig::TEN_GBPS),
            workers: 4,
            profile: resnet50(),
            batch: 64,
            opts: OptimizationConfig {
                ps_shards: if algo.is_centralized() { 2 } else { 1 },
                local_aggregation: matches!(algo, Algo::Bsp),
                ..Default::default()
            },
            stop: StopCondition::Iterations(3),
            real: None,
            seed: 77,
            faults: None,
        };
        let sink = ObsSink::enabled();
        let out = run_observed(&cfg, &sink);
        let events = sink.snapshot();
        for (w, breakdown) in out.per_worker_breakdown.iter().enumerate() {
            let track = Track::Worker(w as u16);
            for phase in Phase::ALL {
                let span_sum: u64 = events
                    .iter()
                    .filter(|e| e.track == track)
                    .filter_map(|e| match e.kind {
                        EventKind::Span { name, dur, .. } if name == phase.name() => Some(dur),
                        _ => None,
                    })
                    .sum();
                assert_eq!(
                    span_sum,
                    breakdown.get(phase).as_nanos(),
                    "{}: worker {w} phase {} spans disagree with Breakdown",
                    algo.name(),
                    phase.name()
                );
            }
        }
    }
}

/// `run_observed` must be timing-passive: attaching a sink changes nothing
/// about the simulated run itself.
#[test]
fn observation_does_not_perturb_the_run() {
    let cfg = RunConfig {
        algo: Algo::Bsp,
        cluster: ClusterConfig::paper(NetworkConfig::TEN_GBPS),
        workers: 4,
        profile: resnet50(),
        batch: 64,
        opts: OptimizationConfig::default(),
        stop: StopCondition::Iterations(3),
        real: None,
        seed: 77,
        faults: None,
    };
    let plain = run(&cfg);
    let observed = run_observed(&cfg, &ObsSink::enabled());
    assert_eq!(plain.end_time, observed.end_time);
    assert_eq!(plain.total_iterations, observed.total_iterations);
    assert_eq!(plain.traffic.inter_bytes, observed.traffic.inter_bytes);
    assert_eq!(plain.traffic.intra_bytes, observed.traffic.intra_bytes);
}
