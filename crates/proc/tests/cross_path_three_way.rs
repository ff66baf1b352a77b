//! The three-way conformance pin: for each of the seven algorithms on the
//! same model, data, and schedule, the **simulator**, the **threaded
//! runtime**, and the **process path** (real OS processes over loopback
//! TCP) must agree exactly on the logical work — per-worker payload bytes
//! pushed and iterations executed — and, where the math is deterministic,
//! the two real-SGD paths must produce the same final model.
//!
//! This is the contract that makes the `ExecBackend` refactor safe: one
//! `Algo`, one `worker_body`, three transports, identical algorithm
//! semantics.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use dtrain_core::prelude::*;
use dtrain_core::presets::{accuracy_run, AccuracyScale};
use dtrain_data::{teacher_task, TeacherTaskConfig};
use dtrain_models::mlp_classifier;
use dtrain_nn::ParamSet;
use dtrain_proc::{train_proc_observed, ProcConfig};
use dtrain_runtime::{train_threaded_observed, RunPlan, ThreadedConfig};

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

fn param_bits(p: &ParamSet) -> Vec<u32> {
    p.0.iter()
        .flat_map(|t| t.data().iter().map(|x| x.to_bits()))
        .collect()
}

/// All seven algorithms, 2 workers, 2 epochs (8 iterations each), the
/// identical MLP on all three paths. At two workers every push schedule is
/// deterministic — ASP and SSP push every gradient, EASGD every τ-th
/// iteration, GoSGD at p = 1 shares with the one peer every iteration,
/// AD-PSGD's one active always pairs with its one passive — so per worker
/// the `logical.bytes` counter and the iteration count must be equal on
/// every path and equal to their analytic values, even where the arithmetic
/// races. AR-SGD runs BSP's round on the real paths, so its final model is
/// BSP's, bit for bit, on threads and on processes alike.
#[test]
fn sim_threaded_and_proc_agree_on_all_seven_algorithms() {
    let task = tiny_task();
    let (workers, batch, epochs) = (2usize, 16usize, 2u64);
    let iters = epochs * (task.train_size as u64 / workers as u64 / batch as u64);
    let (train, test) = teacher_task(&task);
    let train = Arc::new(train);
    let model_bytes = mlp_classifier(task.input_dim, &[64, 32], task.num_classes, MODEL_SEED)
        .get_params()
        .num_bytes();
    let mut synchronous_models = Vec::new();

    for algo in [
        Algo::Bsp,
        Algo::Asp,
        Algo::Ssp { staleness: 3 },
        Algo::Easgd {
            tau: 2,
            alpha: None,
        },
        Algo::ArSgd,
        Algo::GoSgd { p: 1.0 },
        Algo::AdPsgd,
    ] {
        let name = algo.name();
        let sim_sink = ObsSink::enabled();
        let sim = run_observed(
            &RunConfig {
                algo,
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
            },
            &sim_sink,
        );
        let thr_sink = ObsSink::enabled();
        let thr = train_threaded_observed(
            || mlp_classifier(task.input_dim, &[64, 32], task.num_classes, MODEL_SEED),
            &train,
            &test,
            &ThreadedConfig {
                workers,
                epochs,
                batch,
                strategy: algo,
                seed: 5,
                ..Default::default()
            },
            &thr_sink,
        );
        let proc_sink = ObsSink::enabled();
        let proc = train_proc_observed(
            ProcConfig {
                plan: RunPlan {
                    workers,
                    epochs,
                    batch,
                    strategy: algo,
                    seed: 5,
                    ..Default::default()
                },
                task: task.clone(),
                model_seed: MODEL_SEED,
                worker_exe: Some(PathBuf::from(env!("CARGO_BIN_EXE_dtrain-proc-worker"))),
                ..Default::default()
            },
            Duration::from_secs(120),
            &proc_sink,
        )
        .unwrap_or_else(|e| panic!("{name}: process-path run failed: {e}"));

        let totals = [
            sim.total_iterations,
            thr.total_iterations,
            proc.total_iterations,
        ];
        assert_eq!(
            totals,
            [workers as u64 * iters; 3],
            "{name}: sim/threads/proc"
        );
        // One model-sized payload per push: a gradient (BSP, ASP, SSP,
        // AR-SGD), the replica (EASGD, GoSGD, the AD-PSGD active's request)
        // or the midpoint (the AD-PSGD passive's answer to each request,
        // so the passive's bytes equal the active's).
        let pushes = match algo {
            Algo::Easgd { tau, .. } => iters / tau,
            _ => iters,
        };
        let events = [
            sim_sink.snapshot(),
            thr_sink.snapshot(),
            proc_sink.snapshot(),
        ];
        for w in 0..workers {
            let track = Track::Worker(w as u16);
            let bytes = events.each_ref().map(|ev| {
                final_counter(ev, track, "logical.bytes")
                    .unwrap_or_else(|| panic!("{name}: worker {w} emitted no logical.bytes"))
            });
            let expected = (pushes * model_bytes) as i64;
            assert_eq!(
                bytes, [expected; 3],
                "{name}: worker {w} sim/threads/proc bytes"
            );
            // Iteration spans stay in the worker process; its report counts.
            let counted = [
                count_iters(&events[0], track) as u64,
                count_iters(&events[1], track) as u64,
                proc.per_worker[w].iterations,
            ];
            assert_eq!(
                counted, [iters; 3],
                "{name}: worker {w} sim/threads/proc iterations"
            );
            assert_eq!(proc.per_worker[w].logical_bytes, expected as u64, "{name}");
        }
        if algo.is_synchronous() {
            synchronous_models.push((name, thr.final_params, proc.final_params));
        }
    }

    // BSP first, AR-SGD second: four bit-identical models.
    assert_eq!(synchronous_models.len(), 2);
    let (_, bsp_thr, _) = &synchronous_models[0];
    let bsp = param_bits(bsp_thr);
    for (name, thr, proc) in &synchronous_models {
        assert_eq!(param_bits(thr), bsp, "{name} on threads vs BSP on threads");
        assert_eq!(
            param_bits(proc),
            bsp,
            "{name} on processes vs BSP on threads"
        );
    }
}

/// BSP and AR-SGD end with one model on all three paths, at 1, 2 and 4
/// workers: every rank trains on the same data order everywhere (the
/// `Shard`'s), and every round is the hub's rank-ascending mean. The real
/// paths report the mean of their replicas, which is exact for identical
/// replicas at these counts, so the simulator's model must equal the
/// threaded and the process model bit for bit.
#[test]
fn sim_threaded_and_proc_end_bsp_and_arsgd_with_one_model() {
    let scale = AccuracyScale {
        epochs: 2,
        train_size: 512,
        test_size: 64,
        batch: 8,
        base_lr: 0.008,
        seed: 11,
    };
    let task = TeacherTaskConfig {
        train_size: scale.train_size,
        test_size: scale.test_size,
        seed: scale.seed,
        ..Default::default()
    };
    let (train, test) = teacher_task(&task);
    let train = Arc::new(train);
    for algo in [Algo::Bsp, Algo::ArSgd] {
        for workers in [1, 2, 4] {
            let cell = format!("{} at {workers} workers", algo.name());
            let sim = run(&accuracy_run(algo, workers, &scale))
                .final_params
                .expect("a real-math run has a model");
            let plan = RunPlan {
                workers,
                epochs: scale.epochs,
                batch: scale.batch,
                strategy: algo,
                base_lr: scale.base_lr,
                seed: scale.seed,
                ..Default::default()
            };
            let thr = train_threaded_observed(
                || mlp_classifier(task.input_dim, &[64, 32], task.num_classes, MODEL_SEED),
                &train,
                &test,
                &ThreadedConfig {
                    workers,
                    epochs: plan.epochs,
                    batch: plan.batch,
                    strategy: algo,
                    base_lr: plan.base_lr,
                    seed: plan.seed,
                    ..Default::default()
                },
                &ObsSink::disabled(),
            );
            let proc = train_proc_observed(
                ProcConfig {
                    plan,
                    task: task.clone(),
                    model_seed: MODEL_SEED,
                    worker_exe: Some(PathBuf::from(env!("CARGO_BIN_EXE_dtrain-proc-worker"))),
                    ..Default::default()
                },
                Duration::from_secs(120),
                &ObsSink::disabled(),
            )
            .unwrap_or_else(|e| panic!("{cell}: process-path run failed: {e}"));
            for (path, params) in [
                ("threads", &thr.final_params),
                ("processes", &proc.final_params),
            ] {
                assert!(
                    param_bits(params) == param_bits(&sim),
                    "{cell}: simulator vs {path}, max |Δ| = {:e}",
                    sim.max_abs_diff(params)
                );
            }
        }
    }
}

/// One machine-group rule: the simulator's BSP with local aggregation and
/// the real paths' hierarchical BSP group the ranks by
/// `dtrain_cluster::hier_groups` (machine `r / 2`, its lowest rank the
/// leader), sum each machine rank-ascending, and mean the leaders' partials
/// in one round. At 4 workers on 2 machines of 2 all three paths end with
/// one model, bit for bit (same task and run as the pin above).
#[test]
fn sim_local_aggregation_and_real_hier_bsp_end_with_one_model() {
    let scale = AccuracyScale {
        epochs: 2,
        train_size: 512,
        test_size: 64,
        batch: 8,
        base_lr: 0.008,
        seed: 11,
    };
    let task = TeacherTaskConfig {
        train_size: scale.train_size,
        test_size: scale.test_size,
        seed: scale.seed,
        ..Default::default()
    };
    let (train, test) = teacher_task(&task);
    let (workers, gpus_per_machine) = (4, 2);
    let mut cfg = accuracy_run(Algo::Bsp, workers, &scale);
    cfg.opts.local_aggregation = true;
    cfg.cluster.gpus_per_machine = gpus_per_machine;
    cfg.cluster.machines = workers / gpus_per_machine;
    let sim = run(&cfg).final_params.expect("a real-math run has a model");
    let plan = RunPlan {
        workers,
        epochs: scale.epochs,
        batch: scale.batch,
        strategy: Algo::Bsp,
        base_lr: scale.base_lr,
        seed: scale.seed,
        collective: CollectiveSchedule::Hier,
        gpus_per_machine,
        ..Default::default()
    };
    let thr = train_threaded_observed(
        || mlp_classifier(task.input_dim, &[64, 32], task.num_classes, MODEL_SEED),
        &Arc::new(train),
        &test,
        &ThreadedConfig {
            workers,
            epochs: plan.epochs,
            batch: plan.batch,
            strategy: Algo::Bsp,
            base_lr: plan.base_lr,
            seed: plan.seed,
            collective: plan.collective,
            gpus_per_machine,
            ..Default::default()
        },
        &ObsSink::disabled(),
    );
    let proc = train_proc_observed(
        ProcConfig {
            plan,
            task: task.clone(),
            model_seed: MODEL_SEED,
            worker_exe: Some(PathBuf::from(env!("CARGO_BIN_EXE_dtrain-proc-worker"))),
            ..Default::default()
        },
        Duration::from_secs(120),
        &ObsSink::disabled(),
    )
    .expect("process-path run");
    for (path, params) in [
        ("threads", &thr.final_params),
        ("processes", &proc.final_params),
    ] {
        assert!(
            param_bits(params) == param_bits(&sim),
            "simulator vs {path}, max |Δ| = {:e}",
            sim.max_abs_diff(params)
        );
    }
}

/// BSP, 2 workers, 8 iterations, identical MLP on all three paths.
#[test]
fn sim_threaded_and_proc_agree_on_bsp_logical_metrics() {
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
    let sim_out = run_observed(&cfg, &sim_sink);
    let sim_events = sim_sink.snapshot();

    // --- Threaded path ---
    let (train, test) = teacher_task(&task);
    let train = Arc::new(train);
    let thr_sink = ObsSink::enabled();
    let thr = train_threaded_observed(
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

    // --- Process path: real worker processes over loopback TCP ---
    let proc_sink = ObsSink::enabled();
    let proc = train_proc_observed(
        ProcConfig {
            plan: RunPlan {
                workers,
                epochs,
                batch,
                strategy: Algo::Bsp,
                seed: 5,
                ..Default::default()
            },
            task: task.clone(),
            model_seed: MODEL_SEED,
            worker_exe: Some(PathBuf::from(env!("CARGO_BIN_EXE_dtrain-proc-worker"))),
            ..Default::default()
        },
        Duration::from_secs(120),
        &proc_sink,
    )
    .expect("process-path run");
    let proc_events = proc_sink.snapshot();

    // Iteration counts: all three paths executed the same schedule.
    assert_eq!(sim_out.total_iterations, thr.total_iterations);
    assert_eq!(thr.total_iterations, proc.total_iterations);
    assert_eq!(proc.total_iterations, workers as u64 * iters);

    let model_bytes = mlp_classifier(task.input_dim, &[64, 32], task.num_classes, MODEL_SEED)
        .get_params()
        .num_bytes();
    for w in 0..workers {
        let track = Track::Worker(w as u16);
        let sim_bytes = final_counter(&sim_events, track, "logical.bytes")
            .unwrap_or_else(|| panic!("sim worker {w} emitted no logical.bytes"));
        let thr_bytes = final_counter(&thr_events, track, "logical.bytes")
            .unwrap_or_else(|| panic!("threaded worker {w} emitted no logical.bytes"));
        let proc_bytes = final_counter(&proc_events, track, "logical.bytes")
            .unwrap_or_else(|| panic!("proc worker {w} emitted no logical.bytes"));
        assert_eq!(sim_bytes, thr_bytes, "worker {w}: sim vs threaded bytes");
        assert_eq!(thr_bytes, proc_bytes, "worker {w}: threaded vs proc bytes");
        // And the analytic value: one full-model gradient per iteration.
        assert_eq!(proc_bytes as u64, iters * model_bytes);
        // The report's per-worker stats agree with the emitted counter.
        assert_eq!(proc.per_worker[w].logical_bytes, proc_bytes as u64);
        assert_eq!(proc.per_worker[w].iterations, iters);
    }

    // The two real-SGD paths run identical math over identical transports
    // (f32 bit patterns on the wire, rank-ordered aggregation), so the
    // final model — and therefore its eval — must match bit-for-bit.
    assert_eq!(
        thr.final_accuracy.to_bits(),
        proc.final_accuracy.to_bits(),
        "threaded acc {} vs proc acc {}",
        thr.final_accuracy,
        proc.final_accuracy
    );
    assert_eq!(
        thr.final_loss.to_bits(),
        proc.final_loss.to_bits(),
        "threaded loss {} vs proc loss {}",
        thr.final_loss,
        proc.final_loss
    );
}

/// The same bit-identity pin under the hierarchical schedules: threads and
/// processes execute the identical two-level summation tree (members sum
/// into leaders rank-ascending, the leader barrier means the partials
/// rank-ascending), so the final models must still match bit-for-bit —
/// and, since `Pipelined` is a timing refinement of `Hier` with the same
/// math, those two must agree with each other too.
#[test]
fn threaded_and_proc_agree_bitwise_under_hier_collectives() {
    let task = tiny_task();
    let workers = 4usize;
    let batch = 16usize;
    let epochs = 2u64;
    let (train, test) = teacher_task(&task);
    let train = Arc::new(train);

    let mut accs = Vec::new();
    for collective in [CollectiveSchedule::Hier, CollectiveSchedule::Pipelined] {
        let thr = train_threaded_observed(
            || mlp_classifier(task.input_dim, &[64, 32], task.num_classes, MODEL_SEED),
            &train,
            &test,
            &ThreadedConfig {
                workers,
                epochs,
                batch,
                strategy: Algo::Bsp,
                seed: 5,
                collective,
                gpus_per_machine: 2,
                ..Default::default()
            },
            &ObsSink::disabled(),
        );
        let proc = train_proc_observed(
            ProcConfig {
                plan: RunPlan {
                    workers,
                    epochs,
                    batch,
                    strategy: Algo::Bsp,
                    seed: 5,
                    collective,
                    gpus_per_machine: 2,
                    ..Default::default()
                },
                task: task.clone(),
                model_seed: MODEL_SEED,
                worker_exe: Some(PathBuf::from(env!("CARGO_BIN_EXE_dtrain-proc-worker"))),
                ..Default::default()
            },
            Duration::from_secs(120),
            &ObsSink::disabled(),
        )
        .expect("process-path run");

        let name = collective.name();
        assert_eq!(thr.total_iterations, proc.total_iterations, "{name}");
        assert_eq!(
            thr.final_accuracy.to_bits(),
            proc.final_accuracy.to_bits(),
            "{name}: threaded acc {} vs proc acc {}",
            thr.final_accuracy,
            proc.final_accuracy
        );
        assert_eq!(
            thr.final_loss.to_bits(),
            proc.final_loss.to_bits(),
            "{name}: threaded loss {} vs proc loss {}",
            thr.final_loss,
            proc.final_loss
        );
        assert!(thr.final_drift < 1e-5, "{name} drift {}", thr.final_drift);
        accs.push(thr.final_accuracy.to_bits());
    }
    assert_eq!(accs[0], accs[1], "hier and pipelined share the same math");
}

/// The server-side families beyond BSP: with a single worker there is one
/// pusher, so ASP, SSP and EASGD are deterministic on both real paths —
/// and since the threaded adapter and the coordinator's dispatch table
/// drive the same hub operations, the final parameters must match
/// bit-for-bit.
#[test]
fn threaded_and_proc_agree_bitwise_on_single_worker_server_strategies() {
    let task = tiny_task();
    let (workers, batch, epochs) = (1usize, 16usize, 2u64);
    let (train, test) = teacher_task(&task);
    let train = Arc::new(train);

    for strategy in [
        Algo::Asp,
        Algo::Ssp { staleness: 3 },
        Algo::Easgd {
            tau: 2,
            alpha: Some(0.25),
        },
    ] {
        let thr = train_threaded_observed(
            || mlp_classifier(task.input_dim, &[64, 32], task.num_classes, MODEL_SEED),
            &train,
            &test,
            &ThreadedConfig {
                workers,
                epochs,
                batch,
                strategy,
                seed: 5,
                ..Default::default()
            },
            &ObsSink::disabled(),
        );
        let proc = train_proc_observed(
            ProcConfig {
                plan: RunPlan {
                    workers,
                    epochs,
                    batch,
                    strategy,
                    seed: 5,
                    ..Default::default()
                },
                task: task.clone(),
                model_seed: MODEL_SEED,
                worker_exe: Some(PathBuf::from(env!("CARGO_BIN_EXE_dtrain-proc-worker"))),
                ..Default::default()
            },
            Duration::from_secs(120),
            &ObsSink::disabled(),
        )
        .expect("process-path run");

        let name = strategy.name();
        assert_eq!(thr.total_iterations, proc.total_iterations, "{name}");
        let bits = |p: &ParamSet| -> Vec<u32> {
            p.0.iter()
                .flat_map(|t| t.data().iter().map(|x| x.to_bits()))
                .collect()
        };
        assert_eq!(
            bits(&thr.final_params),
            bits(&proc.final_params),
            "{name}: threaded and proc final parameters differ"
        );
        assert_eq!(
            thr.final_loss.to_bits(),
            proc.final_loss.to_bits(),
            "{name}: threaded loss {} vs proc loss {}",
            thr.final_loss,
            proc.final_loss
        );
    }
}
