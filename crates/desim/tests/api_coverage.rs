//! Coverage tests for the kernel's less-traveled public API:
//! `advance_to`, `try_recv`, `mailbox_len`, dynamic fan-in patterns, and
//! larger process populations.

use std::sync::{Arc, Mutex};

use dtrain_desim::{Pid, SimTime, Simulation, StopReason};

#[test]
fn advance_to_is_absolute_and_idempotent() {
    let mut sim: Simulation<()> = Simulation::new();
    sim.spawn("p", |ctx| {
        ctx.advance_to(SimTime::from_secs(5));
        assert_eq!(ctx.now(), SimTime::from_secs(5));
        // moving to a past instant is a no-op
        ctx.advance_to(SimTime::from_secs(3));
        assert_eq!(ctx.now(), SimTime::from_secs(5));
        ctx.advance_to(SimTime::from_secs(5));
        assert_eq!(ctx.now(), SimTime::from_secs(5));
    });
    let stats = sim.run();
    assert_eq!(stats.reason, StopReason::Completed);
    assert_eq!(stats.end_time, SimTime::from_secs(5));
}

#[test]
fn try_recv_and_mailbox_len_observe_queue() {
    let mut sim: Simulation<u32> = Simulation::new();
    let seen = Arc::new(Mutex::new(Vec::new()));
    let seen2 = Arc::clone(&seen);
    let rx = sim.spawn("rx", move |ctx| {
        assert!(ctx.try_recv().is_none(), "mailbox starts empty");
        assert_eq!(ctx.mailbox_len(), 0);
        ctx.advance(SimTime::from_millis(10)); // let both sends land
        assert_eq!(ctx.mailbox_len(), 2);
        while let Some(v) = ctx.try_recv() {
            seen2.lock().unwrap().push(v);
        }
        assert_eq!(ctx.mailbox_len(), 0);
    });
    sim.spawn("tx", move |ctx| {
        ctx.send(rx, SimTime::from_millis(1), 1);
        ctx.send(rx, SimTime::from_millis(2), 2);
    });
    let stats = sim.run();
    assert_eq!(stats.reason, StopReason::Completed);
    assert_eq!(*seen.lock().unwrap(), vec![1, 2]);
}

#[test]
fn fan_in_of_many_processes_completes_in_order() {
    // 40 senders each fire 5 timestamped tokens at one sink; the sink must
    // observe globally nondecreasing virtual times.
    let n = 40usize;
    let mut sim: Simulation<u64> = Simulation::new();
    let times = Arc::new(Mutex::new(Vec::new()));
    let times2 = Arc::clone(&times);
    let sink = sim.spawn("sink", move |ctx| {
        for _ in 0..(n * 5) {
            let _ = ctx.recv();
            times2.lock().unwrap().push(ctx.now().as_nanos());
        }
    });
    for i in 0..n {
        sim.spawn(format!("tx{i}"), move |ctx| {
            for k in 0..5u64 {
                ctx.advance(SimTime::from_micros(13 + (i as u64 * 7 + k) % 31));
                ctx.send(sink, SimTime::from_micros(2), k);
            }
        });
    }
    let stats = sim.run();
    assert_eq!(stats.reason, StopReason::Completed);
    let ts = times.lock().unwrap();
    assert_eq!(ts.len(), n * 5);
    assert!(
        ts.windows(2).all(|w| w[0] <= w[1]),
        "sink saw time reversal"
    );
}

#[test]
fn pid_index_matches_spawn_order() {
    let mut sim: Simulation<()> = Simulation::new();
    for i in 0..5 {
        let pid = sim.spawn(format!("p{i}"), |_ctx| {});
        assert_eq!(pid, Pid(i));
        assert_eq!(pid.index(), i);
    }
    sim.run();
}

#[test]
fn limits_default_is_unlimited() {
    let mut sim: Simulation<()> = Simulation::new();
    sim.spawn("long", |ctx| {
        for _ in 0..10_000 {
            ctx.advance(SimTime::from_nanos(1));
        }
    });
    let stats = sim.run();
    assert_eq!(stats.reason, StopReason::Completed);
    assert_eq!(stats.events_processed, 10_001); // spawn resume + 10k holds
}
