//! Running a workload: the measuring *child* process, and the parent that
//! spawns a few of them and folds their reports into metrics.
//!
//! One run of one workload is [`CHILDREN`] child processes, one after the
//! other. Each child sets up from scratch (so `setup_s` has several samples
//! and affinity, pools and allocator state never leak between workloads),
//! then repeats the workload for its share of the run's seconds. Every
//! timing metric is the median over all timed repeats of all children.

use std::collections::BTreeMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use serde_json::Value;

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::host;
use crate::json::J;
use crate::micro::Metrics;
use crate::spans::{breakdown, perfetto, Recorder, Span, HARNESS};
use crate::stats::{median, Latency};
use crate::workloads::{Repeat, WorkerExes, Workload};

/// Child processes per run: `setup_s` and `peak_rss_mb` have one sample per
/// child. Four children of 2.5 s each give every workload two or three
/// timed repeats per child at `run_seconds` = 10 — never a count that sits
/// on the edge between one and two (the first timed repeat of a child runs
/// a few percent slow, so a flipping count makes the median bimodal).
/// Smoke runs make do with one.
pub const CHILDREN: usize = 4;
const SMOKE_CHILDREN: usize = 1;

/// Where traces, breakdowns and results go, relative to the checkout root
/// (`run.sh` changes into it).
pub const OUT_DIR: &str = "perf/out";

/// Everything one run of one workload is asked to do.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Seconds of timed repeats, shared among the children.
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

pub fn worker_exes() -> Result<WorkerExes, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = me.parent().ok_or("current_exe has no parent")?;
    let exes = WorkerExes {
        stock: dir.join("dtrain-proc-worker"),
        timed: dir.join("perf-proc-worker"),
        span_dir: PathBuf::from(OUT_DIR).join(format!("spans_{}", std::process::id())),
    };
    for exe in [&exes.stock, &exes.timed] {
        if !exe.is_file() {
            return Err(format!(
                "{} is missing; run perf/run.sh, which builds it",
                exe.display()
            ));
        }
    }
    Ok(exes)
}

// --------------------------------------------------------------- child --

fn lat_json(l: &Option<Latency>) -> J {
    match l {
        None => J::Null,
        Some(l) => J::obj([
            ("n", J::Int(l.n as i64)),
            ("p50", J::Num(l.p50)),
            ("tail_pct", J::Num(l.tail.map_or(0.0, |t| t.0))),
            ("tail", J::Num(l.tail.map_or(l.p50, |t| t.1))),
        ]),
    }
}

fn repeat_json(traced: bool, r: &Repeat) -> J {
    J::obj([
        ("traced", J::Bool(traced)),
        ("wall_s", J::Num(r.wall_s)),
        ("scheduled", J::Int(r.scheduled_steps as i64)),
        ("executed", J::Int(r.executed_steps as i64)),
        ("disruptions", J::Int(r.disruptions as i64)),
        ("dropped", J::Int(r.dropped_events as i64)),
        ("logical_bytes", J::Int(r.logical_bytes as i64)),
        ("failures", J::strs(&r.failures)),
        (
            "digest",
            r.digest.map_or(J::Null, |d| J::str(format!("{d:016x}"))),
        ),
        (
            "legs",
            J::Arr(
                r.legs
                    .iter()
                    .map(|l| {
                        J::obj([
                            ("name", J::str(&l.name)),
                            ("run_wall_s", J::Num(l.run_wall_s)),
                            ("samples", J::Int(l.samples as i64)),
                            ("rounds", J::Int(l.rounds as i64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// What the spans of a child's traced repeats say, as JSON.
fn trace_json(spans: &[Span], repeats: &[(bool, Repeat)]) -> J {
    let b = breakdown(spans);
    let mut step_all = Vec::new();
    let mut step_leg: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut prims: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (_, r) in repeats.iter().filter(|(traced, _)| *traced) {
        for leg in &r.legs {
            step_all.extend_from_slice(&leg.step_us);
            step_leg
                .entry(&leg.name)
                .or_default()
                .extend_from_slice(&leg.step_us);
            for (name, us) in &leg.prims {
                prims.entry(name).or_default().extend_from_slice(us);
            }
        }
    }
    // Backend primitives per iteration and their share of it, on the
    // blocking worker track (proc workloads; zero elsewhere).
    let on_critical = |s: &&Span| Some(s.track) == b.critical_track;
    let iters: Vec<&Span> = spans
        .iter()
        .filter(on_critical)
        .filter(|s| s.name == "iter")
        .collect();
    let iter_ns: u64 = iters.iter().map(|s| s.dur_ns()).sum();
    let inside_iter = |s: &&Span| s.parent.is_some_and(|p| spans[p].name == "iter");
    let prim_calls = spans
        .iter()
        .filter(on_critical)
        .filter(inside_iter)
        .filter(|s| s.layer == "proc")
        .count();
    let share_of_iter = |name: &str| {
        let ns: u64 = spans
            .iter()
            .filter(on_critical)
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns())
            .sum();
        ns as f64 / iter_ns.max(1) as f64
    };
    let compute_ns: u64 = spans
        .iter()
        .filter(on_critical)
        .filter(|s| s.name == "compute")
        .map(|s| s.dur_ns())
        .sum();
    J::obj([
        ("spans", J::Int(spans.len() as i64)),
        ("wall_ns", J::Int(b.wall_ns as i64)),
        ("gap_ns", J::Int(b.gap_ns() as i64)),
        (
            "layers",
            J::obj(
                b.layers
                    .iter()
                    .map(|(l, ns)| (l.clone(), J::Int(*ns as i64))),
            ),
        ),
        (
            "names",
            J::Arr(
                b.names
                    .iter()
                    .map(|(l, n, ns)| J::Arr(vec![J::str(l), J::str(n), J::Int(*ns as i64)]))
                    .collect(),
            ),
        ),
        ("step", lat_json(&Latency::of(&step_all))),
        (
            "step_leg",
            J::obj(
                step_leg
                    .iter()
                    .map(|(k, v)| (k.to_string(), lat_json(&Latency::of(v)))),
            ),
        ),
        (
            "prims",
            J::obj(
                prims
                    .iter()
                    .map(|(k, v)| (k.to_string(), lat_json(&Latency::of(v)))),
            ),
        ),
        ("iters", J::Int(iters.len() as i64)),
        (
            "prims_per_iter",
            J::Num(prim_calls as f64 / iters.len().max(1) as f64),
        ),
        ("exchange_share", J::Num(share_of_iter("bsp_exchange"))),
        ("iter_end_share", J::Num(share_of_iter("iter_end"))),
        (
            "compute_ns_per_iter",
            J::Num(compute_ns as f64 / iters.len().max(1) as f64),
        ),
    ])
}

/// Body of one child process: set up, repeat for `opts.seconds`, report
/// as one JSON line on stdout. `t0_ns` is when the parent spawned it.
pub fn child(opts: &Options, index: usize, t0_ns: u64) -> Result<J, String> {
    let w = opts.workload;
    // Every workload runs on one CPU: the child pins itself before any
    // thread, pool or worker process exists, and they all inherit the mask.
    // The simulator runs one simulated process at a time, so one CPU is its
    // footprint, and unpinned it measures the host scheduler (see
    // `desim.unpinned_slowdown`). The real paths have two workers that wait
    // on each other every step; on a 2-vCPU shared host two busy workers
    // leave no CPU for anything else, so every other runnable thread, and
    // every slice the hypervisor takes from either vCPU, stalls both
    // (ten runs spread 4-28 % unpinned against 1-4 % on one CPU; README.md). Pinned,
    // a number is the CPU cost of a step along the whole path, hand-offs
    // included, which is what a later change to the code can move.
    let cpu = host::pin_to_one_cpu();
    let exes = worker_exes()?;
    if opts.trace {
        std::fs::create_dir_all(&exes.span_dir)
            .map_err(|e| format!("{}: {e}", exes.span_dir.display()))?;
        std::env::set_var("PERF_SPAN_DIR", &exes.span_dir);
    }
    let mut bench = w.build(opts.seed, opts.smoke, &exes);
    let warm = bench.warm_up();
    let setup_s = host::epoch_ns().saturating_sub(t0_ns) as f64 / 1e9;

    let mut rec = Recorder::new();
    let mut repeats: Vec<(bool, Repeat)> = Vec::new();
    // The first lap decides how many fit the budget (to the nearest whole
    // lap), so the count does not depend on where later laps happen to end.
    let mut laps = 1;
    let mut lap = 0;
    while lap < laps {
        let started = Instant::now();
        repeats.push((false, bench.repeat(None)));
        if opts.trace {
            // Untraced and traced repeats alternate, so drift over the run
            // hits both sides of obs.overhead_pct alike.
            rec.set_run(lap as u32);
            let (_, r) = rec.scope("repeat", HARNESS, |rec| bench.repeat(Some(rec)));
            repeats.push((true, r));
        }
        if lap == 0 {
            laps = (opts.seconds / started.elapsed().as_secs_f64())
                .round()
                .max(1.0) as usize;
        }
        lap += 1;
    }
    let facts = bench.facts();
    drop(bench);

    let mut doc = vec![
        ("workload", J::str(w.name())),
        ("index", J::Int(index as i64)),
        ("pinned_cpu", cpu.map_or(J::Null, |c| J::Int(c as i64))),
        ("setup_s", J::Num(setup_s)),
        ("warm_failures", J::strs(&warm.failures)),
        (
            "facts",
            J::obj([
                ("events", J::Int(facts.events as i64)),
                ("sim_wire_bytes", J::Int(facts.sim_wire_bytes as i64)),
                ("cost_err_pct_max", J::Num(facts.cost_err_pct_max)),
                (
                    "digest",
                    facts
                        .digest
                        .map_or(J::Null, |d| J::str(format!("{d:016x}"))),
                ),
            ]),
        ),
        (
            "repeats",
            J::Arr(repeats.iter().map(|(t, r)| repeat_json(*t, r)).collect()),
        ),
    ];
    if opts.trace {
        doc.push(("trace", trace_json(rec.spans(), &repeats)));
        if index == 0 {
            // One repeat is enough to look at; all of them would be tens of
            // megabytes on the exchange-bound workloads.
            let first: Vec<Span> = first_repeat(rec.spans());
            let path = Path::new(OUT_DIR).join(format!("trace_{}.json", w.name()));
            std::fs::write(&path, perfetto(&first).compact())
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        let _ = std::fs::remove_dir_all(&exes.span_dir);
    }
    doc.push(("peak_rss_mb", J::Num(host::peak_rss_mb())));
    Ok(J::obj(doc))
}

/// The spans of the first traced repeat, parent links re-based.
fn first_repeat(spans: &[Span]) -> Vec<Span> {
    let first = spans.first().map_or(0, |s| s.run_id);
    let keep: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].run_id == first)
        .collect();
    let new_id: BTreeMap<usize, usize> = keep.iter().enumerate().map(|(n, &o)| (o, n)).collect();
    keep.iter()
        .map(|&i| {
            let mut s = spans[i].clone();
            s.parent = s.parent.and_then(|p| new_id.get(&p).copied());
            s
        })
        .collect()
}

// -------------------------------------------------------------- parent --

/// Hard limit on one child; the driver allows a whole run 180 s.
const CHILD_DEADLINE: Duration = Duration::from_secs(100);

/// Spawn `perf <args>`, wait for it (killing it at `deadline`), and parse
/// the last line of its stdout as JSON.
fn spawn_self(args: &[String], deadline: Duration) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {args:?}: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout was piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        text
    });
    let started = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if started.elapsed() > deadline => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("{args:?}: no result within {deadline:?}; killed"));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(10)),
            Err(e) => break Err(format!("wait {args:?}: {e}")),
        }
    };
    let text = reader
        .join()
        .map_err(|_| "stdout reader panicked".to_string())?;
    let status = status?;
    if !status.success() {
        return Err(format!("{args:?}: exited with {status}"));
    }
    let last = text.lines().last().unwrap_or("");
    serde_json::from_str(last).map_err(|e| format!("{args:?}: unreadable result: {e:?}"))
}

/// The micro-timings, measured in a process of their own.
pub fn micro(seed: u64) -> Result<Metrics, String> {
    let doc = spawn_self(
        &["micro".into(), "--seed".into(), seed.to_string()],
        CHILD_DEADLINE,
    )?;
    let map = doc.as_object().ok_or("micro: result is not an object")?;
    map.iter()
        .map(|(k, v)| {
            Ok((
                k.clone(),
                v.as_f64()
                    .ok_or_else(|| format!("micro: {k} is not a number"))?,
            ))
        })
        .collect()
}

/// Median / tail of one leg's step latency, folded over the children.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LegStats {
    /// The leg's own wall time in ms, one sample per untraced repeat.
    pub run_ms: Vec<f64>,
    pub rounds: u64,
    pub step_p50_us: Option<f64>,
    pub step_tail_us: Option<f64>,
    pub step_tail_pct: Option<f64>,
}

/// One run of one workload, folded.
#[derive(Clone, Debug, Default)]
pub struct Measured {
    /// Every child ran on one CPU (false where pinning is unavailable).
    pub pinned: bool,
    /// Samples behind each end-to-end metric (untraced repeats; children
    /// for `setup_s` and `peak_rss_mb`).
    pub e2e: BTreeMap<&'static str, Vec<f64>>,
    /// Per-layer metrics (traced runs only).
    pub layers: Metrics,
    pub legs: BTreeMap<String, LegStats>,
    /// Traced proc runs: `(p50 us, tail us, tail percentile)` of each
    /// backend primitive the workers' `TimedBackend` timed.
    pub prims: BTreeMap<String, (f64, f64, f64)>,
    /// `(layer, span name, ns)` rows of the breakdown, summed over children.
    pub breakdown: Vec<(String, String, u64)>,
    pub breakdown_wall_ns: u64,
    pub breakdown_gap_ns: u64,
    /// Scheduled steps plus timed repeats plus children.
    pub attempted: u64,
    /// Steps not executed, disruptions, failed repeats, lost children.
    pub failed: u64,
    /// Every failed check, in words.
    pub failures: Vec<String>,
    /// Simulator workloads: the digest every repeat reproduced.
    pub digest: Option<String>,
    /// Percent of CPU time the hypervisor took away while the children ran.
    pub steal_pct: f64,
    /// Untraced and traced timed repeats folded.
    pub repeats: usize,
    pub traced_repeats: usize,
}

impl Measured {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

fn f(v: &Value) -> f64 {
    v.as_f64().unwrap_or(0.0)
}

fn u(v: &Value) -> u64 {
    v.as_u64().unwrap_or(0)
}

fn arr(v: &Value) -> &[Value] {
    v.as_array().map_or(&[], Vec::as_slice)
}

/// Run one workload: spawn the children, fold their reports. `calib` is
/// the micro-timing set a traced run reports beside its own numbers (and
/// needs for the modelled shares); traced runs measure it when not given.
pub fn measure(opts: &Options, calib: Option<&Metrics>) -> Measured {
    let mut out = Measured::default();
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        out.failures.push(format!("{OUT_DIR}: {e}"));
    }
    let mut reports = Vec::new();
    let ticks = host::cpu_ticks();
    let children = if opts.smoke { SMOKE_CHILDREN } else { CHILDREN };
    for index in 0..children {
        let args: Vec<String> = [
            "child",
            "--workload",
            opts.workload.name(),
            "--seed",
            &opts.seed.to_string(),
            "--seconds",
            &(opts.seconds / children as f64).to_string(),
            "--trace",
            if opts.trace { "1" } else { "0" },
            "--smoke",
            if opts.smoke { "1" } else { "0" },
            "--index",
            &index.to_string(),
            "--t0-ns",
            &host::epoch_ns().to_string(),
        ]
        .map(String::from)
        .to_vec();
        out.attempted += 1;
        match spawn_self(&args, CHILD_DEADLINE) {
            Ok(doc) => reports.push(doc),
            Err(e) => {
                out.failed += 1;
                out.failures.push(e);
            }
        }
    }
    fold(&mut out, &reports);
    out.steal_pct = host::steal_pct(ticks, host::cpu_ticks());
    if opts.trace && !reports.is_empty() {
        let measured;
        let calib = match calib {
            Some(c) => c,
            None => {
                measured = micro(opts.seed).unwrap_or_else(|e| {
                    out.failed += 1;
                    out.failures.push(e);
                    Metrics::new()
                });
                &measured
            }
        };
        fold_trace(&mut out, &reports, calib);
    }
    out
}

/// End-to-end samples, counts and checks from the children's reports.
fn fold(out: &mut Measured, reports: &[Value]) {
    let mut digests: Vec<String> = Vec::new();
    out.pinned = !reports.is_empty() && reports.iter().all(|d| d["pinned_cpu"].as_u64().is_some());
    for doc in reports {
        out.e2e
            .entry("setup_s")
            .or_default()
            .push(f(&doc["setup_s"]));
        out.e2e
            .entry("peak_rss_mb")
            .or_default()
            .push(f(&doc["peak_rss_mb"]));
        for fail in arr(&doc["warm_failures"]) {
            out.failures
                .push(format!("warm-up: {}", fail.as_str().unwrap_or("?")));
        }
        if let Some(d) = doc["facts"]["digest"].as_str() {
            digests.push(d.to_string());
        }
        for r in arr(&doc["repeats"]) {
            out.attempted += 1 + u(&r["scheduled"]);
            let missing = u(&r["scheduled"]).saturating_sub(u(&r["executed"]));
            let failures = arr(&r["failures"]);
            out.failed += missing + u(&r["disruptions"]) + u64::from(!failures.is_empty());
            if missing > 0 {
                out.failures
                    .push(format!("{missing} scheduled steps were not executed"));
            }
            if u(&r["disruptions"]) > 0 {
                out.failures.push(format!(
                    "{} evictions/retries/partial rounds",
                    u(&r["disruptions"])
                ));
            }
            out.failures
                .extend(failures.iter().filter_map(|v| v.as_str().map(String::from)));
            if let Some(d) = r["digest"].as_str() {
                digests.push(d.to_string());
            }
            if r["traced"].as_bool() == Some(true) {
                out.traced_repeats += 1;
                continue;
            }
            out.repeats += 1;
            let legs = arr(&r["legs"]);
            let run_wall: f64 = legs.iter().map(|l| f(&l["run_wall_s"])).sum();
            let samples: u64 = legs.iter().map(|l| u(&l["samples"])).sum();
            let rounds: u64 = legs.iter().map(|l| u(&l["rounds"])).sum();
            out.e2e.entry("wall_s").or_default().push(f(&r["wall_s"]));
            if run_wall > 0.0 {
                out.e2e
                    .entry("samples_per_s")
                    .or_default()
                    .push(samples as f64 / run_wall);
                out.e2e
                    .entry("round_ms")
                    .or_default()
                    .push(run_wall * 1e3 / rounds.max(1) as f64);
            }
            for l in legs {
                let leg = out
                    .legs
                    .entry(l["name"].as_str().unwrap_or("?").to_string())
                    .or_default();
                leg.run_ms.push(f(&l["run_wall_s"]) * 1e3);
                leg.rounds = u(&l["rounds"]);
            }
        }
    }
    digests.dedup();
    match digests.as_slice() {
        [] => {}
        [one] => out.digest = Some(one.clone()),
        many => {
            out.failed += 1;
            out.failures.push(format!(
                "simulator digests differ between repeats: {many:?}"
            ));
        }
    }
}

/// Per-layer metrics from the children's trace sections plus `calib`.
fn fold_trace(out: &mut Measured, reports: &[Value], calib: &Metrics) {
    let m = &mut out.layers;
    m.extend(calib.iter().map(|(k, v)| (k.clone(), *v)));
    m.insert("host.steal_pct".into(), out.steal_pct);
    let cal = |k: &str| calib.get(k).copied().unwrap_or(0.0);

    let walls = |traced: bool| -> Vec<f64> {
        reports
            .iter()
            .flat_map(|d| arr(&d["repeats"]))
            .filter(|r| r["traced"].as_bool() == Some(traced))
            .map(|r| f(&r["wall_s"]))
            .collect()
    };
    let (plain, traced) = (walls(false), walls(true));
    if plain.is_empty() || traced.is_empty() {
        return;
    }
    let (plain_s, traced_s) = (median(&plain), median(&traced));
    m.insert("trace.wall_ms".into(), traced_s * 1e3);
    m.insert(
        "obs.overhead_pct".into(),
        (traced_s - plain_s) / plain_s * 100.0,
    );

    let traces: Vec<&Value> = reports.iter().map(|d| &d["trace"]).collect();
    let sum = |key: &str| -> u64 { traces.iter().map(|t| u(&t[key])).sum() };
    let wall_ns = sum("wall_ns").max(1);
    m.insert("trace.spans".into(), sum("spans") as f64);
    let dropped: u64 = reports
        .iter()
        .flat_map(|d| arr(&d["repeats"]))
        .map(|r| u(&r["dropped"]))
        .sum();
    m.insert("obs.dropped_events".into(), dropped as f64);
    let disruptions: u64 = reports
        .iter()
        .flat_map(|d| arr(&d["repeats"]))
        .map(|r| u(&r["disruptions"]))
        .sum();
    m.insert("path.disruptions".into(), disruptions as f64);

    let layer_ns = |layer: &str| -> u64 { traces.iter().map(|t| u(&t["layers"][layer])).sum() };
    let repo_ns = wall_ns - sum("gap_ns").min(wall_ns) - layer_ns(HARNESS).min(wall_ns);
    m.insert(
        "trace.accounted_share".into(),
        repo_ns as f64 / wall_ns as f64,
    );
    for layer in ["nn", "runtime", "proc", "data", "algos"] {
        m.insert(
            format!("{layer}.wall_share"),
            layer_ns(layer) as f64 / wall_ns as f64,
        );
    }
    out.breakdown_wall_ns = wall_ns;
    out.breakdown_gap_ns = sum("gap_ns");
    let mut rows: BTreeMap<(String, String), u64> = BTreeMap::new();
    for t in &traces {
        for row in arr(&t["names"]) {
            let key = (
                row[0].as_str().unwrap_or("?").to_string(),
                row[1].as_str().unwrap_or("?").to_string(),
            );
            *rows.entry(key).or_default() += u(&row[2]);
        }
    }
    out.breakdown = rows.into_iter().map(|((l, n), ns)| (l, n, ns)).collect();
    out.breakdown
        .sort_by(|a, b| b.2.cmp(&a.2).then_with(|| (&a.0, &a.1).cmp(&(&b.0, &b.1))));

    // Step latency: each child reports its own median and tail; fold them
    // by median (raw samples stay in the children).
    let fold_lat = |pick: &dyn Fn(&Value) -> &Value| -> Option<(f64, f64, f64, u64)> {
        let lats: Vec<&Value> = traces
            .iter()
            .map(|t| pick(t))
            .filter(|l| !l.is_null())
            .collect();
        if lats.is_empty() {
            return None;
        }
        let col = |k: &str| lats.iter().map(|l| f(&l[k])).collect::<Vec<_>>();
        let pct = col("tail_pct").into_iter().fold(f64::INFINITY, f64::min);
        Some((
            median(&col("p50")),
            median(&col("tail")),
            pct,
            lats.iter().map(|l| u(&l["n"])).sum(),
        ))
    };
    if let Some((p50, tail, pct, n)) = fold_lat(&|t| &t["step"]) {
        m.insert("step.p50_us".into(), p50);
        m.insert("step.tail_us".into(), tail);
        m.insert("step.tail_pct".into(), pct);
        m.insert("step.samples".into(), n as f64);
    }
    let prim_names: Vec<String> = traces
        .iter()
        .filter_map(|t| t["prims"].as_object())
        .flat_map(|o| o.keys().cloned())
        .collect();
    for name in prim_names {
        if let Some((p50, tail, pct, _)) = fold_lat(&|t| &t["prims"][name.as_str()]) {
            out.prims.insert(name, (p50, tail, pct));
        }
    }
    let leg_names: Vec<String> = out.legs.keys().cloned().collect();
    for name in leg_names {
        if let Some((p50, tail, pct, _)) = fold_lat(&|t| &t["step_leg"][name.as_str()]) {
            let leg = out.legs.get_mut(&name).expect("leg exists");
            leg.step_p50_us = Some(p50);
            leg.step_tail_us = Some(tail);
            leg.step_tail_pct = Some(pct);
        }
    }

    // Simulator facts (exact) and the modelled kernel share.
    let facts = &reports[0]["facts"];
    let events = u(&facts["events"]) as f64;
    m.insert("desim.events".into(), events);
    m.insert("desim.events_per_s".into(), events / plain_s);
    m.insert(
        "desim.handoff_share".into(),
        events * cal("desim.handoff_ns") / (plain_s * 1e9),
    );
    m.insert(
        "cluster.sim_wire_bytes".into(),
        u(&facts["sim_wire_bytes"]) as f64,
    );
    m.insert(
        "algos.cost_err_pct_max".into(),
        f(&facts["cost_err_pct_max"]),
    );

    // Proc-path derived metrics (all zero off the proc path).
    let col = |k: &str| median(&traces.iter().map(|t| f(&t[k])).collect::<Vec<_>>());
    m.insert(
        "proc.rpcs_per_round".into(),
        col("prims_per_iter") * f64::from(u8::from(layer_ns("proc") > 0)),
    );
    m.insert("proc.exchange_share".into(), col("exchange_share"));
    m.insert("proc.iter_end_share".into(), col("iter_end_share"));
    let wire: Vec<(f64, f64, f64)> = reports
        .iter()
        .flat_map(|d| arr(&d["repeats"]))
        .filter(|r| r["traced"].as_bool() == Some(false) && u(&r["logical_bytes"]) > 0)
        .map(|r| {
            let legs = arr(&r["legs"]);
            let run: f64 = legs.iter().map(|l| f(&l["run_wall_s"])).sum();
            let rounds: u64 = legs.iter().map(|l| u(&l["rounds"])).sum();
            (u(&r["logical_bytes"]) as f64, run, rounds as f64)
        })
        .collect();
    if wire.is_empty() {
        m.insert("proc.wire_mb_per_s".into(), 0.0);
        m.insert("proc.round_accounted_share".into(), 0.0);
    } else {
        let mbps: Vec<f64> = wire.iter().map(|(b, s, _)| b / 1e6 / s).collect();
        m.insert("proc.wire_mb_per_s".into(), median(&mbps));
        // One round on a worker's blocking path: its compute, its gradient
        // frame up and the parameter frame down (each encoded once, decoded
        // once, CRC'd at both ends), and a small frame per RPC each way.
        let (bytes, _, rounds) = wire[0];
        let frame_mb = bytes / rounds / crate::workloads::REAL_WORKERS as f64 / 1e6;
        let per_mb_ns = 1e9
            * (1.0 / cal("proc.encode_mbps").max(1e-9)
                + 1.0 / cal("proc.decode_mbps").max(1e-9)
                + 2.0 / cal("proc.crc32_mbps").max(1e-9));
        let round_ns = median(&wire.iter().map(|(_, s, r)| s * 1e9 / r).collect::<Vec<_>>());
        let accounted = col("compute_ns_per_iter")
            + 2.0 * frame_mb * per_mb_ns
            + 2.0 * col("prims_per_iter") * cal("proc.frame_small_us") * 1e3;
        m.insert("proc.round_accounted_share".into(), accounted / round_ns);
    }
}

// -------------------------------------------------------------- output --

/// The one JSON object the driver reads from the last line of stdout.
pub fn contract_line(opts: &Options, r: &Measured) -> J {
    let metrics: Vec<(String, J)> = if opts.trace {
        PER_LAYER
            .iter()
            .map(|l| {
                let v = r.layers.get(l.name).copied().unwrap_or(0.0);
                (
                    l.name.to_string(),
                    J::obj([("value", J::Num(v)), ("unit", J::str(l.unit))]),
                )
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|e| {
                let v = r.e2e.get(e.name).map_or(0.0, |s| median(s));
                (
                    e.name.to_string(),
                    J::obj([("value", J::Num(v)), ("unit", J::str(e.unit))]),
                )
            })
            .collect()
    };
    J::obj([
        ("correct", J::Bool(r.correct())),
        ("attempted", J::Int(r.attempted.max(1) as i64)),
        ("failed", J::Int(r.failed as i64)),
        ("metrics", J::Obj(metrics)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Leg;

    fn report(setup: f64, repeats: Vec<(bool, Repeat)>, digest: Option<u64>) -> Value {
        let doc = J::obj([
            ("setup_s", J::Num(setup)),
            ("peak_rss_mb", J::Num(10.0)),
            ("warm_failures", J::Arr(vec![])),
            (
                "facts",
                J::obj([(
                    "digest",
                    digest.map_or(J::Null, |d| J::str(format!("{d:016x}"))),
                )]),
            ),
            (
                "repeats",
                J::Arr(repeats.iter().map(|(t, r)| repeat_json(*t, r)).collect()),
            ),
        ]);
        serde_json::from_str(&doc.compact()).expect("valid json")
    }

    fn repeat(wall: f64, run: f64, digest: Option<u64>) -> Repeat {
        Repeat {
            wall_s: wall,
            legs: vec![Leg {
                name: "bsp".into(),
                run_wall_s: run,
                samples: 1000,
                rounds: 50,
                ..Default::default()
            }],
            scheduled_steps: 100,
            executed_steps: 100,
            digest,
            ..Default::default()
        }
    }

    #[test]
    fn fold_takes_untraced_repeats_and_counts_attempts() {
        let mut out = Measured::default();
        let reports = vec![
            report(
                0.5,
                vec![
                    (false, repeat(1.0, 0.5, Some(7))),
                    (true, repeat(9.0, 9.0, Some(7))),
                ],
                Some(7),
            ),
            report(0.7, vec![(false, repeat(2.0, 1.0, Some(7)))], Some(7)),
        ];
        fold(&mut out, &reports);
        assert_eq!(out.e2e["wall_s"], vec![1.0, 2.0]);
        assert_eq!(out.e2e["samples_per_s"], vec![2000.0, 1000.0]);
        assert_eq!(out.e2e["round_ms"], vec![10.0, 20.0]);
        assert_eq!(out.e2e["setup_s"], vec![0.5, 0.7]);
        assert_eq!((out.repeats, out.traced_repeats), (2, 1));
        assert_eq!(out.attempted, 3 * 101);
        assert!(out.correct());
        assert_eq!(out.digest.as_deref(), Some("0000000000000007"));
        assert_eq!(out.legs["bsp"].run_ms, vec![500.0, 1000.0]);
    }

    #[test]
    fn fold_counts_missing_steps_disruptions_and_digest_mismatch() {
        let mut bad = repeat(1.0, 0.5, Some(8));
        bad.executed_steps = 97;
        bad.disruptions = 2;
        bad.failures.push("bsp: replicas drifted by 0.1".into());
        let mut out = Measured::default();
        fold(&mut out, &[report(0.5, vec![(false, bad)], Some(7))]);
        // 3 missing + 2 disruptions + 1 failed repeat + 1 digest mismatch
        assert_eq!(out.failed, 7);
        assert!(!out.correct());
        assert!(out.failed_share() > 0.0);
        assert_eq!(out.failures.len(), 4);
    }

    #[test]
    fn contract_line_has_exactly_the_contract_keys() {
        let opts = Options {
            workload: Workload::ThrCnn,
            seed: 1,
            seconds: 1.0,
            trace: false,
            smoke: true,
        };
        let mut r = Measured::default();
        for e in &END_TO_END {
            r.e2e.insert(e.name, vec![1.5, 2.5, 9.0]);
        }
        r.attempted = 10;
        let doc = serde_json::from_str(&contract_line(&opts, &r).compact()).expect("json");
        let keys: Vec<_> = doc.as_object().expect("object").keys().cloned().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(
            doc["metrics"].as_object().expect("metrics").len(),
            END_TO_END.len()
        );
        assert_eq!(doc["metrics"]["wall_s"]["value"].as_f64(), Some(2.5));
        assert_eq!(doc["metrics"]["setup_s"]["unit"].as_str(), Some("s"));
        let traced = Options {
            trace: true,
            ..opts
        };
        let doc = serde_json::from_str(&contract_line(&traced, &r).compact()).expect("json");
        assert_eq!(
            doc["metrics"].as_object().expect("metrics").len(),
            PER_LAYER.len()
        );
    }

    #[test]
    fn first_repeat_keeps_one_run_and_rebases_parents() {
        let mut rec = Recorder::new();
        for run in [4, 5] {
            rec.set_run(run);
            rec.scope("repeat", HARNESS, |r| r.scope("call", "proc", |_| ()));
        }
        let first = first_repeat(rec.spans());
        assert_eq!(first.len(), 2);
        assert!(first.iter().all(|s| s.run_id == 4));
        assert_eq!((first[0].parent, first[1].parent), (None, Some(0)));
    }
}
