//! The benchmark's worker process for traced proc-path runs: the stock
//! `dtrain-proc-worker` glue (same argv, same calls, same order) with
//! `ProcBackend` wrapped in [`TimedBackend`] and `worker_body` handed a
//! recording obs track, so its set-up phases, `iter`/`compute` spans and
//! every backend primitive land in a span file the driver merges.
//!
//! Selected through `ProcConfig::worker_exe`; writes
//! `$PERF_SPAN_DIR/worker_<pid>.json` just before its completion report
//! (the coordinator reaps workers once the last one has reported, so
//! nothing after `complete` is guaranteed to run).

use std::path::PathBuf;
use std::time::Duration;

use dtrain_data::teacher_task;
use dtrain_models::mlp_classifier;
use dtrain_obs::{ObsSink, Track};
use dtrain_perf::spans::{compute_is_nn, to_rows, Clock, Recorder};
use dtrain_perf::timed_backend::TimedBackend;
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

    let mut rec = Recorder::on_track(worker as u32 + 1);
    let root = rec.open("worker process", "proc");
    let (_, (train, _test)) = rec.scope("data::teacher_task", "data", |_| teacher_task(&wc.task));
    let (_, mut net) = rec.scope("models::mlp_classifier", "nn", |_| {
        mlp_classifier(
            wc.task.input_dim,
            &wc.hidden,
            wc.task.num_classes,
            wc.model_seed,
        )
    });
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
    let (_, backend) = rec.scope("ProcBackend::connect", "proc", |_| {
        ProcBackend::connect(
            &addr,
            worker,
            wc.plan.momentum,
            wc.plan.weight_decay,
            20,
            Duration::from_millis(15),
            link,
        )
        .unwrap_or_else(|e| die(&format!("worker {worker}: connect to {addr} failed: {e}")))
    });
    net.set_params(&backend.initial_params().clone());

    // One event per iter enter/exit, compute span and byte counter.
    let per_iter = 4;
    let iters = wc.plan.epochs as usize * (wc.task.train_size / wc.plan.workers / wc.plan.batch);
    let sink = ObsSink::with_capacity(per_iter * iters + 64);
    let track = sink.track(Track::Worker(worker as u16));
    let mut backend = TimedBackend::new(backend, rec.clock());
    let body = rec.open("runtime::worker_body", "runtime");
    let outcome = worker_body(
        &mut backend,
        net,
        &train,
        &wc.plan,
        &track,
        rec.clock().anchor,
    );
    rec.close(body);
    rec.import_obs(
        &sink.snapshot(),
        body,
        Clock::Host,
        rec.clock().anchor_epoch,
        compute_is_nn("runtime"),
    );
    rec.insert_by_containment(backend.calls(), "proc", body);
    rec.close(root);
    if let Some(dir) = std::env::var_os("PERF_SPAN_DIR") {
        let path = PathBuf::from(dir).join(format!("worker_{}.json", std::process::id()));
        std::fs::write(&path, to_rows(rec.spans()).compact())
            .unwrap_or_else(|e| die(&format!("worker {worker}: write {}: {e}", path.display())));
    }

    backend
        .inner_mut()
        .complete(
            outcome.iterations,
            outcome.logical_bytes,
            outcome.busy.as_millis() as u64,
            outcome.params,
        )
        .unwrap_or_else(|e| die(&format!("worker {worker}: completion report failed: {e}")));
}

fn die(msg: &str) -> ! {
    eprintln!("perf-proc-worker: {msg}");
    std::process::exit(2);
}
