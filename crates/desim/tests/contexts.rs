//! What a process body may rely on from the thing it executes on — a
//! user-space context on the caller's thread, or (fallback targets, CI's
//! `--cfg desim_threads`) a parked thread: a full-size stack, the caller's
//! thread where contexts exist, clean unwinding whichever way a run ends,
//! and no trace of a body that never got to start.

use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use dtrain_desim::{Pid, SimTime, Simulation, StopReason};

/// The contract behind `desim.unpinned_slowdown` ≈ 1: the whole run is one
/// OS thread's work, and bodies see that thread's thread-locals.
#[cfg(all(target_arch = "x86_64", target_os = "linux", not(desim_threads)))]
#[test]
fn every_body_executes_on_the_thread_that_called_run() {
    use std::cell::Cell;
    thread_local! {
        static MARK: Cell<u32> = const { Cell::new(0) };
    }
    let caller = std::thread::current().id();
    MARK.with(|m| m.set(7));
    let mut sim: Simulation<u32> = Simulation::new();
    let seen = Arc::new(AtomicUsize::new(0));
    let check = move |seen: &AtomicUsize| {
        assert_eq!(std::thread::current().id(), caller);
        assert_eq!(MARK.with(Cell::get), 7, "the caller's thread-locals");
        seen.fetch_add(1, Ordering::SeqCst);
    };
    let rx = {
        let seen = Arc::clone(&seen);
        sim.spawn("rx", move |ctx| {
            check(&seen);
            ctx.recv();
            check(&seen);
        })
    };
    let seen2 = Arc::clone(&seen);
    sim.spawn("tx", move |ctx| {
        check(&seen2);
        ctx.advance(SimTime::from_millis(1));
        let seen3 = Arc::clone(&seen2);
        ctx.spawn("late", move |ctx2| {
            check(&seen3);
            ctx2.send(rx, SimTime::ZERO, 1);
        });
        check(&seen2);
    });
    assert_eq!(sim.run().reason, StopReason::Completed);
    assert_eq!(seen.load(Ordering::SeqCst), 5);
}

/// Consume stack until `target` bytes lie between `base` and the current
/// frame; returns the depth reached. Not a tail call, so frames stay live.
fn dive(base: usize, target: usize) -> usize {
    let pad = [0u8; 1024];
    let here = std::hint::black_box(&pad) as *const [u8; 1024] as usize;
    if base.saturating_sub(here) >= target {
        return 1;
    }
    1 + dive(base, target) + usize::from(std::hint::black_box(pad[0]))
}

#[test]
fn a_body_can_use_one_and_a_half_mebibytes_of_stack() {
    let mut sim: Simulation<()> = Simulation::new();
    let depth = Arc::new(AtomicUsize::new(0));
    let depth2 = Arc::clone(&depth);
    sim.spawn("deep", move |ctx| {
        ctx.advance(SimTime::from_millis(1)); // not only on a fresh stack
        let base = 0u8;
        let base = std::hint::black_box(&base) as *const u8 as usize;
        depth2.store(dive(base, 3 << 19), Ordering::SeqCst);
        ctx.advance(SimTime::from_millis(1));
    });
    sim.spawn("peer", |ctx| ctx.advance(SimTime::from_millis(5)));
    assert_eq!(sim.run().reason, StopReason::Completed);
    assert!(depth.load(Ordering::SeqCst) > 100);
}

/// Sets the flag to "dropped" when its owner — a body's captured state —
/// goes away; the body itself would set "ran".
struct Flag(Arc<Mutex<&'static str>>);

impl Drop for Flag {
    fn drop(&mut self) {
        *self.0.lock().unwrap() = "dropped";
    }
}

#[test]
fn a_victim_killed_before_its_first_resume_never_runs() {
    let mut sim: Simulation<()> = Simulation::new();
    let state = Arc::new(Mutex::new("pending"));
    let at_resume = Arc::new(Mutex::new("unset"));
    // Spawned first, so its t=0 resume is dispatched first; pids are dense,
    // so the victim spawned next is pid 1.
    let (state2, at_resume2) = (Arc::clone(&state), Arc::clone(&at_resume));
    sim.spawn("killer", move |ctx| {
        assert!(ctx.kill(Pid(1)));
        ctx.yield_now(); // the kill is reaped before this resume
        *at_resume2.lock().unwrap() = *state2.lock().unwrap();
    });
    let flag = Flag(Arc::clone(&state));
    let victim = sim.spawn("victim", move |_ctx| {
        *flag.0.lock().unwrap() = "ran";
    });
    assert_eq!(victim, Pid(1));
    let stats = sim.run();
    assert_eq!(stats.reason, StopReason::Completed);
    assert_eq!(stats.kills, 1);
    assert_eq!(
        *at_resume.lock().unwrap(),
        "dropped",
        "closure dropped at reap"
    );
    assert_eq!(*state.lock().unwrap(), "dropped", "and never run");
}

#[test]
fn a_simulation_can_run_inside_a_process_body() {
    let mut outer: Simulation<u64> = Simulation::new();
    let result = Arc::new(Mutex::new(Vec::new()));
    let result2 = Arc::clone(&result);
    let sink = outer.spawn("sink", move |ctx| {
        let end = ctx.recv();
        result2.lock().unwrap().push((ctx.now(), end));
    });
    outer.spawn("nests", move |ctx| {
        ctx.advance(SimTime::from_millis(2));
        let mut inner: Simulation<()> = Simulation::new();
        for i in 1..=3u64 {
            inner.spawn(format!("inner{i}"), move |ictx| {
                for _ in 0..4 {
                    ictx.advance(SimTime::from_micros(i));
                }
            });
        }
        // A deadlocked straggler: the inner teardown must unwind it without
        // disturbing the outer run.
        inner.spawn("stuck", |ictx| {
            ictx.recv();
        });
        let stats = inner.run();
        assert_eq!(stats.reason, StopReason::Deadlock);
        ctx.send(sink, SimTime::from_millis(1), stats.end_time.as_nanos());
        ctx.advance(SimTime::from_millis(5));
    });
    let stats = outer.run();
    assert_eq!(stats.reason, StopReason::Completed);
    assert_eq!(stats.end_time, SimTime::from_millis(7));
    assert_eq!(
        *result.lock().unwrap(),
        vec![(SimTime::from_millis(3), 12_000)]
    );
}

#[test]
fn a_body_panic_is_re_raised_after_the_parked_peers_unwound() {
    let mut sim: Simulation<()> = Simulation::new();
    let log = Arc::new(Mutex::new(Vec::new()));
    struct Note(Arc<Mutex<Vec<String>>>, &'static str);
    impl Drop for Note {
        fn drop(&mut self) {
            self.0.lock().unwrap().push(format!("{} unwound", self.1));
        }
    }
    for name in ["peer0", "peer1", "peer2"] {
        let log = Arc::clone(&log);
        sim.spawn(name, move |ctx| {
            let _note = Note(log, name);
            ctx.recv();
        });
    }
    sim.spawn("bomber", |ctx| {
        ctx.advance(SimTime::from_millis(1));
        panic!("deliberate test panic");
    });
    let caller = std::thread::current().id();
    let err = panic::catch_unwind(panic::AssertUnwindSafe(|| sim.run()))
        .expect_err("the body's panic must reach run()'s caller");
    assert_eq!(std::thread::current().id(), caller);
    assert_eq!(
        err.downcast_ref::<&str>().copied(),
        Some("deliberate test panic")
    );
    assert_eq!(
        *log.lock().unwrap(),
        ["peer0 unwound", "peer1 unwound", "peer2 unwound"],
        "peers are torn down, in pid order, before the panic is re-raised"
    );
}
