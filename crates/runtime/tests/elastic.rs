//! Elastic membership on the threaded engine: permanent worker loss is
//! absorbed by skipping the dead rounds (no restart, barrier re-sized to
//! the live cohort), rejoiners re-enter at the current round with fresh
//! state, and the whole run finishes without deadlocking. Iteration counts
//! must match the live-cohort schedule exactly — the same contract the
//! simulator path is held to.

use std::sync::Arc;
use std::time::Duration;

use dtrain_data::{teacher_task, TeacherTaskConfig};
use dtrain_faults::{Algo, ElasticConfig, ElasticRuntime, MembershipView, RuntimeFaultSchedule};
use dtrain_models::default_mlp;
use dtrain_runtime::{train_threaded, RuntimeFaultConfig, ThreadedConfig, ThreadedReport};

const WORKERS: usize = 4;
const EPOCHS: u64 = 3;
/// 2048 samples / 4 workers / 32 batch.
const PER_EPOCH: u64 = 16;
const ROUNDS: u64 = EPOCHS * PER_EPOCH;

const STRATEGIES: [Algo; 7] = [
    Algo::Bsp,
    Algo::Asp,
    Algo::Ssp { staleness: 2 },
    Algo::Easgd {
        tau: 2,
        alpha: Some(0.25),
    },
    Algo::ArSgd,
    Algo::GoSgd { p: 0.3 },
    Algo::AdPsgd,
];

fn data() -> (Arc<dtrain_data::Dataset>, dtrain_data::Dataset) {
    let (train, test) = teacher_task(&TeacherTaskConfig {
        train_size: 2048,
        test_size: 512,
        seed: 11,
        ..Default::default()
    });
    (Arc::new(train), test)
}

fn elastic_run(strategy: Algo, view: MembershipView) -> ThreadedReport {
    elastic_run_with(strategy, view, RuntimeFaultSchedule::default())
}

fn elastic_run_with(
    strategy: Algo,
    view: MembershipView,
    schedule: RuntimeFaultSchedule,
) -> ThreadedReport {
    let (train, test) = data();
    train_threaded(
        || default_mlp(10, 7),
        &train,
        &test,
        &ThreadedConfig {
            workers: WORKERS,
            epochs: EPOCHS,
            strategy,
            faults: Some(RuntimeFaultConfig {
                schedule,
                elastic: Some(ElasticRuntime {
                    view: Arc::new(view),
                    cfg: ElasticConfig::default(),
                }),
                checkpoint_interval: 8,
                ..Default::default()
            }),
            ..Default::default()
        },
    )
}

/// Iterations the live-cohort schedule predicts: each round contributes
/// one iteration per live member.
fn scheduled(view: &MembershipView) -> u64 {
    (0..ROUNDS).map(|r| view.live_at(r).len() as u64).sum()
}

#[test]
fn permanent_loss_is_absorbed_without_restart() {
    // Worker 1 evicted at round 5: it contributes exactly 5 iterations,
    // the survivors contribute all of theirs, and nothing restarts.
    let view = MembershipView::from_events(WORKERS, &[(1, 5)], &[]);
    assert_eq!(scheduled(&view), (WORKERS as u64 - 1) * ROUNDS + 5);
    for strategy in STRATEGIES {
        let r = elastic_run(strategy, view.clone());
        assert_eq!(
            r.total_iterations,
            scheduled(&view),
            "{}: iteration count must match the live-cohort schedule",
            r.strategy
        );
        assert_eq!(
            r.restarts, 0,
            "{}: elastic loss must not restart",
            r.strategy
        );
        assert_eq!(r.evictions, 1, "{}", r.strategy);
        assert_eq!(r.rejoins, 0, "{}", r.strategy);
        assert!(
            r.final_loss.is_finite(),
            "{}: survivors' model must stay finite",
            r.strategy
        );
    }
}

#[test]
fn rejoin_reenters_at_the_current_round() {
    // Worker 1 dies at round 5 and rejoins at round 40: it contributes
    // 5 + (48 − 40) iterations, re-entering with fresh state.
    let view = MembershipView::from_events(WORKERS, &[(1, 5)], &[(1, 40)]);
    assert_eq!(
        scheduled(&view),
        (WORKERS as u64 - 1) * ROUNDS + 5 + (ROUNDS - 40)
    );
    for strategy in STRATEGIES {
        let r = elastic_run(strategy, view.clone());
        assert_eq!(
            r.total_iterations,
            scheduled(&view),
            "{}: rejoin must contribute exactly the rounds it is live",
            r.strategy
        );
        assert_eq!(r.evictions, 1, "{}", r.strategy);
        assert_eq!(r.rejoins, 1, "{}", r.strategy);
        assert!(r.final_loss.is_finite(), "{}", r.strategy);
    }
}

#[test]
fn elastic_bsp_makes_progress_under_watchdog() {
    // Deadlock gate: the barrier re-size plus rejoin must never wedge.
    // Run the loss-and-rejoin BSP plan on a worker thread and fail if it
    // does not complete within a generous wall-clock window.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let view = MembershipView::from_events(WORKERS, &[(1, 5)], &[(1, 40)]);
        let _ = tx.send(elastic_run(Algo::Bsp, view));
    });
    let r = rx
        .recv_timeout(Duration::from_secs(120))
        .expect("elastic BSP made no progress within the watchdog window");
    assert_eq!(r.total_iterations, (WORKERS as u64 - 1) * ROUNDS + 5 + 8);
    // The barrier keeps the live cohort in lockstep even across the
    // membership changes.
    assert!(r.final_drift < 1e-5, "BSP drift {}", r.final_drift);
}

#[test]
#[should_panic(expected = "schedule.crashes must be empty")]
fn crash_schedule_beside_a_view_is_refused() {
    // The view already says who dies when; an iteration-indexed crash list
    // beside it would be silently dropped, so the run refuses it.
    let view = MembershipView::from_events(WORKERS, &[(1, 5)], &[]);
    let schedule = RuntimeFaultSchedule {
        crashes: vec![(2, 8)],
        ..Default::default()
    };
    elastic_run_with(Algo::Bsp, view, schedule);
}
