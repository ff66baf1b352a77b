//! The process execution path: train with real worker **OS processes**
//! talking to a coordinator over loopback TCP, then SIGKILL one of them
//! mid-run and watch the cohort shrink and keep converging.
//!
//! Run with:
//! ```text
//! cargo build --release -p dtrain-proc && \
//! cargo run --release --example proc_quickstart
//! ```
//! (The first command builds the `dtrain-proc-worker` binary the
//! coordinator spawns; the example locates it next to its own executable.)

use std::time::Duration;

use dtrain_data::TeacherTaskConfig;
use dtrain_obs::ObsSink;
use dtrain_repro::faults::Algo;
use dtrain_repro::proc::{ProcConfig, ProcRun};
use dtrain_repro::runtime::RunPlan;

fn main() {
    let cfg = ProcConfig {
        plan: RunPlan {
            workers: 4,
            epochs: 3,
            batch: 16,
            strategy: Algo::Bsp,
            seed: 5,
            ..Default::default()
        },
        task: TeacherTaskConfig {
            train_size: 512,
            test_size: 128,
            seed: 11,
            ..Default::default()
        },
        // Freeze rank 1 when it announces round 3, so the kill below lands
        // at a deterministic point in training.
        pause_at: Some((1, 3)),
        ..Default::default()
    };
    let rounds = cfg.plan.epochs * (cfg.task.train_size / cfg.plan.workers / cfg.plan.batch) as u64;

    let run = match ProcRun::launch(cfg, &ObsSink::disabled()) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("launch failed: {e}");
            eprintln!("hint: build the worker first: cargo build --release -p dtrain-proc");
            std::process::exit(1);
        }
    };
    println!(
        "spawned {} worker processes: {:?}",
        run.pids().len(),
        run.pids().iter().map(|&(_, pid)| pid).collect::<Vec<_>>()
    );

    let pid = run
        .kill_paused(Duration::from_secs(30))
        .expect("pause gate should trip");
    println!("SIGKILLed worker 1 (pid {pid}) after round 2; cohort shrinks to 3");

    let report = run.finish(Duration::from_secs(300)).expect("run finishes");
    println!(
        "\n{}: {} rounds/rank scheduled, {} iterations total (victim kept {})",
        report.strategy, rounds, report.total_iterations, report.per_worker[1].iterations
    );
    println!(
        "evictions={} partial_rounds={} accuracy={:.3} loss={:.3} wall={:.2?}",
        report.evictions,
        report.partial_rounds,
        report.final_accuracy,
        report.final_loss,
        report.wall_time
    );
}
