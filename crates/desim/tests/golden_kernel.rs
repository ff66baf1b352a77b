//! Kernel golden fixture: one seeded 8-process program whose full
//! [`TraceRecord`] stream, application-level receive log and run summary
//! are pinned byte-for-byte in `tests/golden/kernel.trace`.
//!
//! The fixture was recorded with the scheduler-thread kernel this crate
//! started with (PR 12's commit) and has not been re-blessed since, so it
//! is what pins "same event order as before" for every later kernel: the
//! program leans on exactly the spots where a hand-off shortcut could
//! reorder things — `advance(0)` ties between processes, a process whose
//! next event is its own resume, `recv_match` leaving skipped messages
//! queued, `drain`, dead letters, `kill` followed by the killer's own
//! resume, a mid-run `spawn`, and a `max_events` stop with work pending.
//!
//! Re-record (only when the kernel's *documented* order changes):
//!
//! ```text
//! DTRAIN_BLESS=1 cargo test -p dtrain-desim --test golden_kernel
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use dtrain_desim::{Ctx, Pid, RunLimits, SimTime, Simulation};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 0x5EED_0013;
const MAX_EVENTS: u64 = 700;

type Log = Arc<Mutex<String>>;

fn note(log: &Log, ctx: &Ctx<u64>, what: &str, value: u64) {
    writeln!(
        log.lock().unwrap(),
        "log {} p{} {what} {value}",
        ctx.now().as_nanos(),
        ctx.pid().index()
    )
    .expect("write to String");
}

/// Delays drawn from a tiny set, so that equal timestamps (and therefore
/// sequence-number tie-breaks) are the rule, not the exception.
fn delay(rng: &mut SmallRng) -> SimTime {
    SimTime::from_micros([0, 0, 1, 2, 5][rng.gen_range(0..5usize)])
}

/// Build and run the fixture program; return its canonical text form.
fn record() -> String {
    let log: Log = Arc::new(Mutex::new(String::new()));
    let mut sim: Simulation<u64> = Simulation::new();
    sim.enable_tracing();

    // p0 — sink: selective receive (skipped messages stay queued), then a
    // drain of whatever was skipped, for a few rounds; exits early so late
    // tokens become dead letters.
    let sink = {
        let log = Arc::clone(&log);
        sim.spawn("sink", move |ctx| {
            for round in 0..6u64 {
                let m = ctx.recv_match(|m| m % 3 == round % 3);
                note(&log, &ctx, "match", m);
                ctx.yield_now();
                for m in ctx.drain() {
                    note(&log, &ctx, "drain", m);
                }
                ctx.advance(SimTime::from_micros(3));
            }
        })
    };

    // p1..p4 — workers: tie-heavy advances, sends to the sink, to each
    // other and to the process that ended early; opportunistic receives.
    for i in 1..=4u64 {
        let log = Arc::clone(&log);
        sim.spawn(format!("worker{i}"), move |ctx| {
            let mut rng = SmallRng::seed_from_u64(SEED + i);
            for step in 0..40u64 {
                ctx.advance(delay(&mut rng));
                let dst = match rng.gen_range(0..8u32) {
                    0..=3 => sink,
                    4 => Pid(5),
                    k => Pid(1 + (k as usize + i as usize) % 4),
                };
                ctx.send(dst, delay(&mut rng), i * 1000 + step);
                if step % 5 == 4 {
                    note(&log, &ctx, "mailbox", ctx.mailbox_len() as u64);
                    while let Some(m) = ctx.try_recv() {
                        note(&log, &ctx, "try", m);
                    }
                }
                if step == 20 && i == 2 {
                    // Block until a peer's token arrives.
                    let m = ctx.recv();
                    note(&log, &ctx, "recv", m);
                }
            }
        });
    }

    // p5 — ends at once: everything addressed to it is a dead letter.
    sim.spawn("ends-early", |_ctx| {});

    // p6 — victim: ticks forever until killed.
    let victim = {
        let log = Arc::clone(&log);
        sim.spawn("victim", move |ctx| loop {
            ctx.advance(SimTime::from_micros(4));
            note(&log, &ctx, "tick", 0);
        })
    };

    // p7 — chaos: kills the victim right before its own zero-delay resume,
    // respawns a replacement mid-run, kills a process blocked in `recv`,
    // then ticks forever so only `max_events` ends the run.
    {
        let log = Arc::clone(&log);
        sim.spawn("chaos", move |ctx| {
            ctx.advance(SimTime::from_micros(9));
            note(&log, &ctx, "kill", ctx.kill(victim) as u64);
            ctx.yield_now();
            note(&log, &ctx, "live", ctx.is_live(victim) as u64);
            ctx.send(victim, SimTime::ZERO, 7); // dead letter
            let log2 = Arc::clone(&log);
            let reborn = ctx.spawn("victim-reborn", move |rctx| {
                note(&log2, &rctx, "born", 0);
                rctx.send(sink, SimTime::ZERO, 9000);
                let m = rctx.recv(); // never satisfied: killed while blocked
                note(&log2, &rctx, "recv", m);
            });
            note(&log, &ctx, "spawned", reborn.index() as u64);
            ctx.advance(SimTime::from_micros(2));
            note(&log, &ctx, "kill", ctx.kill(reborn) as u64);
            note(&log, &ctx, "kill", ctx.kill(reborn) as u64); // already doomed
            let log3 = Arc::clone(&log);
            ctx.spawn("ticker", move |tctx| loop {
                tctx.advance(SimTime::from_micros(1));
                tctx.send(sink, SimTime::from_micros(1), 3);
                if tctx.now().as_nanos() % 50_000 == 0 {
                    note(&log3, &tctx, "tick", 1);
                }
            });
            loop {
                ctx.advance(SimTime::from_micros(7));
            }
        });
    }

    let stats = sim.run_with_limits(RunLimits {
        max_events: Some(MAX_EVENTS),
        ..Default::default()
    });

    let mut out = String::new();
    for r in stats.trace.as_ref().expect("tracing enabled") {
        writeln!(
            out,
            "ev {} p{} {}",
            r.time.as_nanos(),
            r.pid.index(),
            r.kind
        )
        .expect("write");
    }
    out.push_str(&log.lock().unwrap());
    writeln!(
        out,
        "end reason={:?} time={} events={} dead_letters={} kills={} blocked={:?}",
        stats.reason,
        stats.end_time.as_nanos(),
        stats.events_processed,
        stats.dead_letters,
        stats.kills,
        stats.blocked.iter().map(|p| p.index()).collect::<Vec<_>>()
    )
    .expect("write");
    out
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/kernel.trace")
}

#[test]
fn kernel_trace_matches_the_committed_fixture() {
    let got = record();
    let path = golden_path();
    if std::env::var("DTRAIN_BLESS").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("has parent")).expect("create golden dir");
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing kernel fixture {} ({e}); record it with DTRAIN_BLESS=1",
            path.display()
        )
    });
    if got != want {
        let line = got
            .lines()
            .zip(want.lines())
            .position(|(g, w)| g != w)
            .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
        panic!(
            "kernel trace diverges from {} at line {}:\n  got:  {:?}\n  want: {:?}",
            path.display(),
            line + 1,
            got.lines().nth(line),
            want.lines().nth(line)
        );
    }
}

/// The fixture is only worth pinning if it reaches the rare paths.
#[test]
fn fixture_covers_the_rare_paths() {
    let text = record();
    let has = |needle: &str| text.lines().any(|l| l.contains(needle));
    assert!(
        text.lines()
            .any(|l| l.starts_with("ev ") && l.ends_with(" 2")),
        "a kill"
    );
    assert!(
        text.lines()
            .any(|l| l.starts_with("ev ") && l.ends_with(" 3")),
        "a mid-run spawn"
    );
    assert!(has(" drain "), "drain returned skipped messages");
    assert!(has(" try "), "try_recv saw a message");
    assert!(has("reason=LimitReached"), "stopped by max_events");
    assert!(
        has(&format!("events={MAX_EVENTS} ")),
        "exactly max_events processed"
    );
    assert!(!has("dead_letters=0 "), "dead letters counted");
    assert!(has("kills=2 "), "both kills reaped");
    // Ties: at least one instant at which three or more resumes fire.
    let mut resumes_at = std::collections::BTreeMap::<&str, usize>::new();
    for l in text
        .lines()
        .filter(|l| l.starts_with("ev ") && l.ends_with(" 0"))
    {
        *resumes_at
            .entry(l.split(' ').nth(1).expect("time field"))
            .or_default() += 1;
    }
    assert!(
        resumes_at.values().any(|&n| n >= 3),
        "same-instant resume ties"
    );
}
