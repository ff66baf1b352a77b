//! The process path's checkpoint cadence. A rank saves a checkpoint only
//! when its rejoin would restore from one (GoSGD, AD-PSGD): every other
//! rejoiner pulls the server, so its saves would never be read. Where saves
//! are taken, they fall on the multiples of `checkpoint_interval` executed
//! rounds, and a rejoin replacement restores the latest through `CkptFetch`.

use std::path::PathBuf;
use std::time::Duration;

use dtrain_data::TeacherTaskConfig;
use dtrain_faults::Algo;
use dtrain_obs::{names, EventKind, ObsSink, Track};
use dtrain_proc::{train_proc_observed, ProcConfig, ProcRun, RejoinSpec};
use dtrain_runtime::RunPlan;

const TIMEOUT: Duration = Duration::from_secs(120);
const GATE: Duration = Duration::from_secs(30);

/// 4 workers, 256 samples / 4 / batch 16 = 4 rounds per epoch, 3 epochs
/// = 12 rounds per rank, a checkpoint directive every 2 executed rounds.
fn cfg(strategy: Algo) -> ProcConfig {
    ProcConfig {
        plan: RunPlan {
            workers: 4,
            epochs: 3,
            batch: 16,
            strategy,
            seed: 5,
            ..Default::default()
        },
        task: TeacherTaskConfig {
            train_size: 256,
            test_size: 32,
            seed: 11,
            ..Default::default()
        },
        model_seed: 7,
        checkpoint_interval: 2,
        worker_exe: Some(PathBuf::from(env!("CARGO_BIN_EXE_dtrain-proc-worker"))),
        ..Default::default()
    }
}

/// The values of the coordinator's `name` markers, ascending.
fn instants(sink: &ObsSink, name: &str) -> Vec<i64> {
    let mut values: Vec<i64> = sink
        .snapshot()
        .iter()
        .filter(|e| e.track == Track::Runtime(0))
        .filter_map(|e| match e.kind {
            EventKind::Instant { name: n, value } if n == name => Some(value),
            _ => None,
        })
        .collect();
    values.sort_unstable();
    values
}

/// A BSP rejoiner pulls the server's parameters, so no BSP rank is told to
/// save: a run with a 2-round cadence uploads no checkpoint at all.
#[test]
fn a_bsp_run_saves_no_checkpoint() {
    let sink = ObsSink::enabled();
    let report = train_proc_observed(cfg(Algo::Bsp), TIMEOUT, &sink).expect("bsp run");
    assert_eq!(report.total_iterations, 4 * 12);
    assert_eq!(instants(&sink, names::CKPT_SAVE), Vec::<i64>::new());
}

/// GoSGD has no server, so its ranks save every 2 executed rounds. Rank 1
/// is frozen by the pause gate as its heartbeat announces round 5 and
/// killed there, after saves at 2 and 4. Its replacement re-enters at
/// round 8, restores the round-4 checkpoint through `CkptFetch`, saves at
/// 10 and 12, and the iteration counts come out exact.
#[test]
fn gossip_saves_on_the_cadence_and_its_replacement_restores() {
    let mut cfg = cfg(Algo::GoSgd { p: 0.5 });
    cfg.pause_at = Some((1, 5));
    cfg.rejoin = Some(RejoinSpec {
        worker: 1,
        at_round: 8,
    });
    let sink = ObsSink::enabled();
    let run = ProcRun::launch(cfg, &sink).expect("launch");
    assert!(
        run.kill_paused(GATE).is_some(),
        "the gate never froze rank 1"
    );
    let report = run
        .finish(TIMEOUT)
        .expect("the run must finish after the kill");

    assert_eq!((report.evictions, report.rejoins), (1, 1));
    assert_eq!(
        report.per_worker[1].iterations,
        5 + 4,
        "rounds 0-4 and 8-11"
    );
    for w in [0, 2, 3] {
        assert_eq!(report.per_worker[w].iterations, 12, "survivor {w}");
    }
    assert_eq!(report.total_iterations, 3 * 12 + 5 + 4);

    let survivors = [2, 4, 6, 8, 10, 12].repeat(3);
    let mut saves = [survivors, vec![2, 4], vec![10, 12]].concat();
    saves.sort_unstable();
    assert_eq!(instants(&sink, names::CKPT_SAVE), saves);
    assert_eq!(instants(&sink, names::CKPT_RESTORE), vec![4]);
}
