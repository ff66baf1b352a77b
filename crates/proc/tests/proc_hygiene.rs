//! Worker-process hygiene: whatever way a run ends — clean completion,
//! a SIGKILLed worker, or the coordinator handle being dropped mid-run —
//! no spawned child may outlive the coordinator (no orphans, no zombies).

use std::path::PathBuf;
use std::time::{Duration, Instant};

use dtrain_data::TeacherTaskConfig;
use dtrain_faults::Algo;
use dtrain_obs::ObsSink;
use dtrain_proc::{ProcConfig, ProcRun};
use dtrain_runtime::RunPlan;

fn cfg(epochs: u64) -> ProcConfig {
    ProcConfig {
        plan: RunPlan {
            workers: 4,
            epochs,
            batch: 16,
            strategy: Algo::Bsp,
            seed: 5,
            ..Default::default()
        },
        task: TeacherTaskConfig {
            train_size: 256,
            test_size: 32,
            seed: 11,
            ..Default::default()
        },
        worker_exe: Some(PathBuf::from(env!("CARGO_BIN_EXE_dtrain-proc-worker"))),
        ..Default::default()
    }
}

/// Is `pid` still a live dtrain worker? Checks the command line, not mere
/// `/proc` existence, so a recycled PID can't false-positive; a reaped
/// child has no `/proc` entry at all, and an unreaped zombie has an empty
/// cmdline — both count as "not leaked".
fn leaked(pid: u32) -> bool {
    std::fs::read(format!("/proc/{pid}/cmdline"))
        .map(|bytes| String::from_utf8_lossy(&bytes).contains("dtrain-proc-worker"))
        .unwrap_or(false)
}

fn assert_all_reaped(pids: &[(usize, u32)], context: &str) {
    // The kill is synchronous but give the kernel a moment to tear the
    // processes down on a loaded machine.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let alive: Vec<u32> = pids
            .iter()
            .filter(|&&(_, pid)| leaked(pid))
            .map(|&(_, pid)| pid)
            .collect();
        if alive.is_empty() {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{context}: leaked worker PIDs {alive:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// After a clean `finish`, every spawned PID is gone.
#[test]
fn finish_leaves_no_orphan_processes() {
    let run = ProcRun::launch(cfg(1), &ObsSink::disabled()).expect("launch");
    let pids = run.pids();
    assert_eq!(pids.len(), 4);
    run.finish(Duration::from_secs(120)).expect("finish");
    assert_all_reaped(&pids, "after finish");
}

/// Dropping the run handle mid-training (the panic / early-return path)
/// kills and reaps every child.
#[test]
fn drop_mid_run_kills_and_reaps_children() {
    // Enough epochs that the run is certainly still going when we drop.
    let run = ProcRun::launch(cfg(500), &ObsSink::disabled()).expect("launch");
    let pids = run.pids();
    assert_eq!(pids.len(), 4);
    // Let the workers actually connect and start training.
    std::thread::sleep(Duration::from_millis(300));
    drop(run);
    assert_all_reaped(&pids, "after drop");
}
