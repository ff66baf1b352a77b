//! The worker process: connect to the coordinator, run the shared
//! algorithm body over the process backend, report the outcome, exit.
//!
//! Spawned by the coordinator as
//! `dtrain-proc-worker --addr <host:port> --worker <rank> --cfg <packed>`.
//!
//! The replica is built with its shapes alone, every parameter zero, and
//! never He-initialised: the `HelloAck` hands it the coordinator's current
//! globals, which overwrite every parameter before the first step. The
//! coordinator draws the initial weights once, for the whole run.

use std::time::{Duration, Instant};

use dtrain_data::teacher_task;
use dtrain_models::zeroed_mlp;
use dtrain_obs::{ObsSink, Track};
use dtrain_proc::config::decode_worker_cfg;
use dtrain_proc::{LinkOpts, ProcBackend};
use dtrain_runtime::worker_body;

fn arg(name: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
    }
    None
}

fn main() {
    let addr = arg("--addr").unwrap_or_else(|| die("missing --addr"));
    let worker: usize = arg("--worker")
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| die("missing/bad --worker"));
    let cfg_str = arg("--cfg").unwrap_or_else(|| die("missing --cfg"));
    let wc = decode_worker_cfg(&cfg_str).unwrap_or_else(|e| die(&format!("bad --cfg: {e}")));

    let (train, _test) = teacher_task(&wc.task);
    let mut net = zeroed_mlp(wc.task.input_dim, &wc.hidden, wc.task.num_classes);
    let link = LinkOpts {
        reconnect_window: wc.reconnect_window,
        chaos: match wc.chaos_rank {
            Some(rank) if rank != worker => Default::default(),
            _ => wc.chaos,
        },
        straggle_ms: match wc.straggler {
            Some((rank, ms)) if rank == worker => ms,
            _ => 0,
        },
    };
    let mut backend = ProcBackend::connect(
        &addr,
        worker,
        wc.plan.momentum,
        wc.plan.weight_decay,
        20,
        Duration::from_millis(15),
        link,
    )
    .unwrap_or_else(|e| die(&format!("worker {worker}: connect to {addr} failed: {e}")));
    // Adopt the coordinator's current globals (its initial draw for a fresh
    // run; the live state for a rejoin replacement).
    net.set_params(backend.initial_params());

    // Worker-side events die with the process; the coordinator emits the
    // canonical trace. A noop sink keeps worker_body's obs calls free.
    let sink = ObsSink::disabled();
    let track = sink.track(Track::Worker(worker as u16));
    let outcome = worker_body(&mut backend, net, &train, &wc.plan, &track, Instant::now());
    backend
        .complete(
            outcome.iterations,
            outcome.logical_bytes,
            // Rounded up: a healthy rank's local work over a short run can
            // total under a millisecond, and a `busy_ms` of 0 would read as
            // an idle cohort (straggle ratio 1.0) to the adaptive controller.
            outcome.busy.as_micros().div_ceil(1000) as u64,
            outcome.params,
        )
        .unwrap_or_else(|e| die(&format!("worker {worker}: completion report failed: {e}")));
}

fn die(msg: &str) -> ! {
    eprintln!("dtrain-proc-worker: {msg}");
    std::process::exit(2);
}
