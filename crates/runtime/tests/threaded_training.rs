//! End-to-end tests of the threaded engine: every strategy actually trains
//! a model across real OS threads.

use std::sync::Arc;

use dtrain_cluster::CollectiveSchedule;
use dtrain_data::{teacher_task, TeacherTaskConfig};
use dtrain_faults::Algo;
use dtrain_models::default_mlp;
use dtrain_runtime::{train_threaded, ThreadedConfig};

fn data() -> (Arc<dtrain_data::Dataset>, dtrain_data::Dataset) {
    let (train, test) = teacher_task(&TeacherTaskConfig {
        train_size: 2048,
        test_size: 512,
        seed: 11,
        ..Default::default()
    });
    (Arc::new(train), test)
}

fn run_strategy(strategy: Algo, workers: usize, epochs: u64) -> dtrain_runtime::ThreadedReport {
    let (train, test) = data();
    train_threaded(
        || default_mlp(10, 7),
        &train,
        &test,
        &ThreadedConfig {
            workers,
            epochs,
            strategy,
            ..Default::default()
        },
    )
}

#[test]
fn bsp_trains_and_replicas_agree() {
    let r = run_strategy(Algo::Bsp, 4, 10);
    assert!(r.final_accuracy > 0.45, "BSP accuracy {}", r.final_accuracy);
    assert!(r.final_drift < 1e-5, "BSP drift {}", r.final_drift);
    assert_eq!(r.total_iterations, 4 * 10 * 16);
}

#[test]
fn bsp_hier_trains_and_replicas_agree() {
    // The hierarchical schedule reshapes the reduction tree (leaders sum
    // their machine, then the leader barrier means the partials) but is
    // still one synchronous mean per round: same learning outcome, zero
    // replica drift, same iteration count.
    let (train, test) = data();
    for collective in [CollectiveSchedule::Hier, CollectiveSchedule::Pipelined] {
        let r = train_threaded(
            || default_mlp(10, 7),
            &train,
            &test,
            &ThreadedConfig {
                workers: 4,
                epochs: 10,
                strategy: Algo::Bsp,
                collective,
                gpus_per_machine: 2,
                ..Default::default()
            },
        );
        let name = collective.name();
        assert!(
            r.final_accuracy > 0.45,
            "{name} accuracy {}",
            r.final_accuracy
        );
        assert!(r.final_drift < 1e-5, "{name} drift {}", r.final_drift);
        assert_eq!(r.total_iterations, 4 * 10 * 16, "{name}");
    }
}

#[test]
fn asp_trains() {
    let r = run_strategy(Algo::Asp, 4, 10);
    assert!(r.final_accuracy > 0.4, "ASP accuracy {}", r.final_accuracy);
}

#[test]
fn ssp_trains_with_bounded_staleness() {
    let r = run_strategy(Algo::Ssp { staleness: 3 }, 4, 10);
    assert!(r.final_accuracy > 0.4, "SSP accuracy {}", r.final_accuracy);
}

#[test]
fn easgd_trains_and_drifts() {
    let r = run_strategy(
        Algo::Easgd {
            tau: 4,
            alpha: None,
        },
        4,
        10,
    );
    assert!(
        r.final_accuracy > 0.3,
        "EASGD accuracy {}",
        r.final_accuracy
    );
    assert!(r.final_drift > 1e-5, "EASGD replicas should differ");
}

#[test]
fn gossip_trains() {
    // Which shares reach a replica before its last step is up to the host
    // scheduler (on a loaded 2-vCPU host a worker can run its whole shard in
    // one time slice, and shares sent to a finished worker are dropped), so
    // GoSGD's accuracy after ten epochs is a distribution — 0.23–0.37 over
    // 400 runs with six CPU burners alongside, loss 1.8–2.3. No floor
    // inside that range holds for every interleaving; "it learned" does:
    // the loss ends below the untrained model's (3.5) and accuracy clears
    // twice chance (the untrained model scores 0.05).
    let (_, test) = data();
    let (x, y) = test.as_batch();
    let (untrained_loss, _) = default_mlp(10, 7).eval_batch(x, &y);
    let r = run_strategy(Algo::GoSgd { p: 0.5 }, 4, 10);
    assert!(
        r.final_loss < untrained_loss,
        "GoSGD loss {} vs untrained {untrained_loss}",
        r.final_loss
    );
    assert!(
        r.final_accuracy >= 0.2,
        "GoSGD accuracy {}",
        r.final_accuracy
    );
}

#[test]
fn adpsgd_trains() {
    let r = run_strategy(Algo::AdPsgd, 4, 10);
    assert!(
        r.final_accuracy > 0.35,
        "AD-PSGD accuracy {}",
        r.final_accuracy
    );
}

#[test]
fn single_worker_matches_sequential_sgd_shape() {
    let r = run_strategy(Algo::Bsp, 1, 10);
    assert!(
        r.final_accuracy > 0.45,
        "1-worker accuracy {}",
        r.final_accuracy
    );
    assert_eq!(r.final_drift, 0.0);
}

#[test]
fn more_workers_do_more_total_iterations_in_parallel() {
    // Not a timing assertion (CI noise); just that the partitioned work adds
    // up and wall time is recorded.
    let r = run_strategy(Algo::Asp, 8, 4);
    assert_eq!(r.total_iterations, 8 * 4 * 8);
    assert!(r.wall_time.as_nanos() > 0);
}

/// Start a one-epoch run of `strategy` on `workers` threads.
fn start(strategy: Algo, workers: usize) {
    let (train, test) = data();
    let _ = train_threaded(
        || default_mlp(10, 7),
        &train,
        &test,
        &ThreadedConfig {
            workers,
            epochs: 1,
            strategy,
            ..Default::default()
        },
    );
}

// Hyperparameters no worker can run with are refused before a thread
// starts, with `Algo::validate`'s message — not a run that never averages
// (EASGD τ = 0) or a worker that panics on an empty passive set.

#[test]
#[should_panic(expected = "EASGD communication period τ must be ≥ 1")]
fn easgd_without_a_period_is_refused() {
    start(
        Algo::Easgd {
            tau: 0,
            alpha: None,
        },
        2,
    );
}

#[test]
#[should_panic(expected = "GoSGD probability 1.5 out of [0,1]")]
fn gossip_probability_above_one_is_refused() {
    start(Algo::GoSgd { p: 1.5 }, 2);
}

#[test]
#[should_panic(expected = "GoSGD probability -0.5 out of [0,1]")]
fn gossip_probability_below_zero_is_refused() {
    start(Algo::GoSgd { p: -0.5 }, 2);
}

#[test]
#[should_panic(expected = "AD-PSGD needs ≥ 2 workers")]
fn lone_adpsgd_worker_is_refused() {
    start(Algo::AdPsgd, 1);
}

#[test]
#[should_panic(expected = "divide evenly")]
fn uneven_sharding_is_rejected() {
    let (train, test) = data();
    let _ = train_threaded(
        || default_mlp(10, 7),
        &train,
        &test,
        &ThreadedConfig {
            workers: 3,
            epochs: 1,
            ..Default::default()
        },
    );
}
