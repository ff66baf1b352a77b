//! Property-based tests for the DES kernel: determinism, clock monotonicity,
//! and message conservation under randomized process topologies.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use dtrain_desim::{Pid, SimTime, Simulation, StopReason, TraceRecord};
use proptest::prelude::*;

/// A randomized "workload program": each worker repeatedly advances by a
/// random-but-fixed delay, sends a token to a random-but-fixed peer and then
/// maybe yields, kills that peer or spawns a short-lived child — so the
/// rare hand-backs (reaping, mid-run spawn, same-instant ties) are exercised
/// alongside the common resume paths.
#[derive(Clone, Debug)]
struct Workload {
    /// (delay_ns, peer_choice, op) per step per worker; see `run_workload`
    /// for what each `op` does.
    steps: Vec<Vec<(u64, usize, u8)>>,
}

fn workload_strategy() -> impl Strategy<Value = Workload> {
    // 2..5 workers, each with 1..8 steps of (delay, peer index, op).
    prop::collection::vec(
        prop::collection::vec((0u64..5_000_000, 0usize..16, 0u8..12), 1..8),
        2..5,
    )
    .prop_map(|steps| Workload { steps })
}

/// Build and run the workload; return (trace, tokens received per worker,
/// end time).
fn run_workload(w: &Workload) -> (Vec<TraceRecord>, Vec<u64>, u64) {
    let n = w.steps.len();
    let mut sim: Simulation<u64> = Simulation::new();
    sim.enable_tracing();
    let counts = Arc::new(Mutex::new(vec![0u64; n]));
    // Counted as they happen: a killed worker never sends its later tokens.
    let sent = Arc::new(AtomicU64::new(0));

    // Spawn all workers first so pids are dense 0..n.
    for (i, steps) in w.steps.iter().cloned().enumerate() {
        let counts = Arc::clone(&counts);
        let sent = Arc::clone(&sent);
        sim.spawn(format!("w{i}"), move |ctx| {
            for &(delay, peer, op) in &steps {
                ctx.advance(SimTime::from_nanos(delay));
                let dst = Pid(peer % n);
                ctx.send(dst, SimTime::from_nanos(delay / 2 + 1), 1);
                sent.fetch_add(1, Ordering::Relaxed);
                match op {
                    0 | 1 => ctx.yield_now(),
                    2 if dst != ctx.pid() => {
                        ctx.kill(dst);
                        // The killer's own resume is the very next event.
                        ctx.yield_now();
                    }
                    3 => {
                        let sent = Arc::clone(&sent);
                        ctx.spawn("child", move |cctx| {
                            cctx.yield_now();
                            cctx.send(dst, SimTime::from_nanos(delay), 1);
                            sent.fetch_add(1, Ordering::Relaxed);
                            cctx.advance(SimTime::from_nanos(delay / 3));
                        });
                    }
                    _ => {}
                }
            }
            // Drain whatever already arrived, then exit; remaining messages
            // become dead letters, which we account for below.
            while let Some(v) = ctx.try_recv() {
                counts.lock().unwrap()[ctx.pid().index()] += v;
            }
        });
    }
    let stats = sim.run();
    assert_eq!(stats.reason, StopReason::Completed);
    let received: u64 = counts.lock().unwrap().iter().sum();
    let accounted = received + stats.dead_letters;
    let total_sent = sent.load(Ordering::Relaxed);
    if stats.kills == 0 {
        assert_eq!(
            accounted, total_sent,
            "every sent token is either received or a dead letter"
        );
    } else {
        // A kill discards the victim's mailbox: those tokens are in neither
        // bucket, but none may be counted twice.
        assert!(accounted <= total_sent, "{accounted} > {total_sent}");
    }
    let final_counts = counts.lock().unwrap().clone();
    (
        stats.trace.expect("tracing enabled"),
        final_counts,
        stats.end_time.as_nanos(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Same workload ⇒ bit-identical event trace, token counts, end time.
    #[test]
    fn kernel_is_deterministic(w in workload_strategy()) {
        let a = run_workload(&w);
        let b = run_workload(&w);
        prop_assert_eq!(a.0, b.0);
        prop_assert_eq!(a.1, b.1);
        prop_assert_eq!(a.2, b.2);
    }

    /// Event trace timestamps never go backwards.
    #[test]
    fn clock_is_monotonic(w in workload_strategy()) {
        let (trace, _, _) = run_workload(&w);
        for pair in trace.windows(2) {
            prop_assert!(pair[0].time <= pair[1].time);
        }
    }
}
