//! Teardown robustness: whatever way a simulation ends — completion,
//! deadlock, limits, a process panic, or never being run at all — every
//! process must be unwound (or dropped unrun) and no state leaked. These
//! tests run many kernels in sequence; leaked stacks or threads would
//! accumulate and show up as resource exhaustion.

use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use dtrain_desim::{RunLimits, SimTime, Simulation, StopReason};

/// Count of live guard objects: incremented when a process is spawned, and
/// the drop runs when its closure (or the frame it moved into) is dropped.
struct Guard(Arc<AtomicUsize>);

impl Drop for Guard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

#[test]
fn deadlocked_processes_are_torn_down() {
    let live = Arc::new(AtomicUsize::new(0));
    for round in 0..20 {
        let mut sim: Simulation<()> = Simulation::new();
        for i in 0..5 {
            let live = Arc::clone(&live);
            live.fetch_add(1, Ordering::SeqCst);
            sim.spawn(format!("stuck{round}_{i}"), move |ctx| {
                let _guard = Guard(live);
                ctx.recv(); // nobody ever sends
            });
        }
        let stats = sim.run();
        assert_eq!(stats.reason, StopReason::Deadlock);
        assert_eq!(stats.blocked.len(), 5);
    }
    assert_eq!(
        live.load(Ordering::SeqCst),
        0,
        "all process closures must be dropped after teardown"
    );
}

#[test]
fn limit_reached_tears_down_holders() {
    let live = Arc::new(AtomicUsize::new(0));
    for _ in 0..20 {
        let mut sim: Simulation<()> = Simulation::new();
        for i in 0..4 {
            let live = Arc::clone(&live);
            live.fetch_add(1, Ordering::SeqCst);
            sim.spawn(format!("ticker{i}"), move |ctx| {
                let _guard = Guard(live);
                loop {
                    ctx.advance(SimTime::from_millis(1));
                }
            });
        }
        let stats = sim.run_with_limits(RunLimits {
            max_events: Some(50),
            ..Default::default()
        });
        assert_eq!(stats.reason, StopReason::LimitReached);
    }
    assert_eq!(live.load(Ordering::SeqCst), 0);
}

#[test]
fn panic_teardown_joins_survivors() {
    let live = Arc::new(AtomicUsize::new(0));
    for _ in 0..10 {
        let mut sim: Simulation<()> = Simulation::new();
        for i in 0..3 {
            let live = Arc::clone(&live);
            live.fetch_add(1, Ordering::SeqCst);
            sim.spawn(format!("victim{i}"), move |ctx| {
                let _guard = Guard(live);
                ctx.recv();
            });
        }
        {
            let live = Arc::clone(&live);
            live.fetch_add(1, Ordering::SeqCst);
            sim.spawn("bomber", move |ctx| {
                let _guard = Guard(live);
                ctx.advance(SimTime::from_millis(1));
                panic!("deliberate test panic");
            });
        }
        let result = panic::catch_unwind(panic::AssertUnwindSafe(|| sim.run()));
        assert!(result.is_err(), "the process panic must propagate");
    }
    assert_eq!(
        live.load(Ordering::SeqCst),
        0,
        "survivor processes must be joined even after a panic"
    );
}

#[test]
fn a_simulation_dropped_without_run_releases_every_body() {
    let live = Arc::new(AtomicUsize::new(0));
    for round in 0..20 {
        let mut sim: Simulation<()> = Simulation::new();
        for i in 0..5 {
            let guard = Guard(Arc::clone(&live));
            live.fetch_add(1, Ordering::SeqCst);
            sim.spawn(format!("unrun{round}_{i}"), move |ctx| {
                let _guard = guard;
                ctx.recv();
                unreachable!("the simulation is never run");
            });
        }
        assert_eq!(live.load(Ordering::SeqCst), 5);
        drop(sim);
        assert_eq!(
            live.load(Ordering::SeqCst),
            0,
            "dropping the simulation drops the bodies it never started"
        );
    }
}

/// A `recv_match` predicate runs under the kernel lock, so its panic
/// unwinds through the lock's guard. `run` still re-raises the body's own
/// panic, without an abort or a lock error in its place, and the same
/// thread then runs a fresh simulation.
#[test]
fn a_panicking_recv_match_predicate_reraises_its_own_message() {
    let mut sim: Simulation<u32> = Simulation::new();
    let picky = sim.spawn("picky", |ctx| {
        ctx.recv_match(|_| panic!("deliberate predicate panic"));
    });
    sim.spawn("sender", move |ctx| ctx.send(picky, SimTime::ZERO, 7));
    let err = panic::catch_unwind(panic::AssertUnwindSafe(|| sim.run()))
        .expect_err("the predicate's panic must reach run()'s caller");
    assert_eq!(
        err.downcast_ref::<&str>().copied(),
        Some("deliberate predicate panic")
    );

    let mut sim: Simulation<u32> = Simulation::new();
    sim.spawn("after", |ctx| ctx.advance(SimTime::from_millis(1)));
    let stats = sim.run();
    assert_eq!(stats.reason, StopReason::Completed);
    assert_eq!(stats.end_time, SimTime::from_millis(1));
}
