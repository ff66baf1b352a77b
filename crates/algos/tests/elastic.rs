//! Elastic membership through the simulator path: permanent worker loss
//! is absorbed by topology repair (no restart), late rejoin re-enters at
//! the current round, and PS-shard machine loss fails over to a surviving
//! machine. Iteration counts must match the live-cohort schedule exactly:
//! a worker that dies at the top of round `d` executed `d` iterations, and
//! one that rejoins at round `j` executes `d + (N - j)`.

use dtrain_algos::{run, Algo, FaultConfig, OptimizationConfig, RunConfig, StopCondition};
use dtrain_cluster::{ClusterConfig, NetworkConfig, TrafficClass};
use dtrain_desim::SimTime;
use dtrain_faults::{ElasticConfig, FaultEvent, FaultKind, FaultSchedule, MembershipView};
use dtrain_models::resnet50;

const WORKERS: usize = 4;
const ITERS: u64 = 12;

fn cfg(algo: Algo, events: Vec<FaultEvent>) -> RunConfig {
    RunConfig {
        algo,
        cluster: ClusterConfig::paper_with_workers(NetworkConfig::FIFTY_SIX_GBPS, WORKERS),
        workers: WORKERS,
        profile: resnet50(),
        batch: 128,
        opts: OptimizationConfig {
            ps_shards: if algo.is_centralized() { 2 } else { 1 },
            ..Default::default()
        },
        stop: StopCondition::Iterations(ITERS),
        faults: Some(FaultConfig {
            schedule: FaultSchedule::new(events),
            checkpoint_interval: 4,
            elastic: Some(ElasticConfig::default()),
        }),
        real: None,
        seed: 5,
    }
}

fn crash(at_ms: u64, worker: usize, restart: Option<SimTime>) -> FaultEvent {
    FaultEvent {
        at: SimTime::from_millis(at_ms),
        kind: FaultKind::WorkerCrash {
            worker,
            restart_after: restart,
        },
    }
}

/// Iterations the live-cohort schedule predicts for a run of `iters`
/// rounds under `view`: round 0..N, each live member contributes one.
fn scheduled_iterations(view: &MembershipView, iters: u64) -> u64 {
    (0..iters).map(|r| view.live_at(r).len() as u64).sum()
}

const ALL_SEVEN: [Algo; 7] = [
    Algo::Bsp,
    Algo::Asp,
    Algo::Ssp { staleness: 2 },
    Algo::Easgd {
        tau: 2,
        alpha: None,
    },
    Algo::ArSgd,
    Algo::GoSgd { p: 0.3 },
    Algo::AdPsgd,
];

#[test]
fn permanent_loss_is_absorbed_without_restart_all_seven() {
    // Crash at 100 ms → death round 1: the worker runs exactly one
    // iteration, survivors run all of theirs — nothing restarts.
    for algo in ALL_SEVEN {
        let c = cfg(algo, vec![crash(100, 1, None)]);
        let view = MembershipView::from_schedule(
            &c.faults.as_ref().unwrap().schedule,
            WORKERS,
            &ElasticConfig::default(),
        );
        let expect = scheduled_iterations(&view, ITERS);
        assert_eq!(expect, (WORKERS as u64 - 1) * ITERS + 1);
        let out = run(&c);
        assert_eq!(
            out.total_iterations, expect,
            "{}: iteration count must match the live-cohort schedule",
            out.algo
        );
    }
}

#[test]
fn rejoin_reenters_at_the_current_round_all_seven() {
    // Crash at 100 ms (death round 1), restart 2 s later → rejoin round
    // 11: the worker runs rounds 0 and 11 only.
    for algo in ALL_SEVEN {
        let c = cfg(algo, vec![crash(100, 1, Some(SimTime::from_secs(2)))]);
        let view = MembershipView::from_schedule(
            &c.faults.as_ref().unwrap().schedule,
            WORKERS,
            &ElasticConfig::default(),
        );
        assert_eq!(view.rejoin_round(1), Some(11));
        let expect = scheduled_iterations(&view, ITERS);
        assert_eq!(expect, (WORKERS as u64 - 1) * ITERS + 2);
        let out = run(&c);
        assert_eq!(
            out.total_iterations, expect,
            "{}: rejoin must contribute exactly the rounds it is live",
            out.algo
        );
    }
}

#[test]
fn ssp_rejoin_into_an_empty_cohort() {
    // Workers 1–3 are lost for good, then worker 0 dies and rejoins a
    // cohort of no one: SSP's gate re-admits its clock at 0, since no
    // other clock is live to set the bound.
    let mut events: Vec<FaultEvent> = (1..WORKERS).map(|w| crash(100, w, None)).collect();
    events.push(crash(300, 0, Some(SimTime::from_millis(400))));
    let c = cfg(Algo::Ssp { staleness: 2 }, events);
    let view = MembershipView::from_schedule(
        &c.faults.as_ref().unwrap().schedule,
        WORKERS,
        &ElasticConfig::default(),
    );
    let out = run(&c);
    assert_eq!(out.total_iterations, scheduled_iterations(&view, ITERS));
    assert_eq!(out.total_iterations, 13);
}

#[test]
fn adpsgd_absorbs_active_role_loss_and_rejoin() {
    // Worker 1 (the default victim elsewhere) is passive in AD-PSGD's
    // bipartite split; worker 2 is active. Cover the active role for both
    // the permanent-loss and the rejoin protocol.
    for restart in [None, Some(SimTime::from_secs(2))] {
        let c = cfg(Algo::AdPsgd, vec![crash(100, 2, restart)]);
        let view = MembershipView::from_schedule(
            &c.faults.as_ref().unwrap().schedule,
            WORKERS,
            &ElasticConfig::default(),
        );
        let out = run(&c);
        assert_eq!(
            out.total_iterations,
            scheduled_iterations(&view, ITERS),
            "active-role {} must follow the live-cohort schedule",
            if restart.is_some() { "rejoin" } else { "loss" }
        );
    }
}

#[test]
fn ps_shard_failover_moves_traffic_and_charges_recovery_bytes() {
    // Elastic PsShardFail is a machine loss: the shard re-homes to the
    // next machine and its state crosses the wire, which must show up as
    // extra inter-machine bytes relative to the same healthy run. Needs
    // ≥ 2 machines (8 workers) so there is somewhere to fail over to.
    let wide = |events: Vec<FaultEvent>| {
        let mut c = cfg(Algo::Asp, events);
        c.cluster = ClusterConfig::paper_with_workers(NetworkConfig::FIFTY_SIX_GBPS, 8);
        c.workers = 8;
        c
    };
    let healthy = run(&wide(vec![]));
    let failed = run(&wide(vec![FaultEvent {
        at: SimTime::from_millis(200),
        kind: FaultKind::PsShardFail {
            shard: 0,
            outage: SimTime::from_millis(300),
        },
    }]));
    assert_eq!(
        failed.total_iterations,
        8 * ITERS,
        "failover must not lose worker iterations"
    );
    // The recovery state transfer travels under TrafficClass::Other — the
    // healthy run has no control-plane traffic at all.
    let recovered = failed.traffic.bytes_of(TrafficClass::Other);
    let baseline = healthy.traffic.bytes_of(TrafficClass::Other);
    assert!(
        recovered > baseline,
        "state transfer must be visible in traffic: {recovered} vs {baseline}"
    );
}

#[test]
fn elastic_runs_are_deterministic() {
    for algo in ALL_SEVEN {
        let c = cfg(algo, vec![crash(100, 1, Some(SimTime::from_secs(2)))]);
        let (a, ta) = dtrain_algos::run_traced(&c);
        let (b, tb) = dtrain_algos::run_traced(&c);
        assert_eq!(a.total_iterations, b.total_iterations);
        assert_eq!(a.end_time, b.end_time);
        assert_eq!(ta, tb, "{}: elastic run must be bit-reproducible", a.algo);
    }
}
