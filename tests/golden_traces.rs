//! Golden-trace conformance suite: the canonical event trace of a small
//! pinned run of each of the seven algorithms is a committed artifact
//! (`tests/golden/<algo>.trace`). The simulator is deterministic, so any
//! divergence — an event appearing, disappearing, moving in time, or
//! changing order — is a semantic change to an algorithm, the cluster
//! model, or the observability layer, and must be a conscious decision.
//!
//! To re-record after an intentional change:
//!
//! ```sh
//! DTRAIN_BLESS=1 cargo test --test golden_traces
//! ```
//!
//! On failure, the first divergence (with context) is printed and the full
//! report is written to `results/golden_diffs/<file>.diff`.

use std::fs;
use std::path::PathBuf;

use dtrain_core::prelude::*;
use dtrain_models::resnet50;
use dtrain_obs::export::{diff_canonical, verify_stack_discipline};
use dtrain_obs::Event;

/// 2 machines x 2 workers each: small enough for readable traces, big
/// enough to exercise local aggregation, inter-machine NIC queues, and
/// multi-shard parameter servers.
fn golden_cluster() -> ClusterConfig {
    let mut c = ClusterConfig::paper_with_workers(NetworkConfig::TEN_GBPS, 4);
    c.machines = 2;
    c.gpus_per_machine = 2;
    c
}

fn golden_cfg(algo: Algo) -> RunConfig {
    RunConfig {
        algo,
        cluster: golden_cluster(),
        workers: 4,
        profile: resnet50(),
        batch: 64,
        opts: OptimizationConfig {
            ps_shards: if algo.is_centralized() { 2 } else { 1 },
            local_aggregation: matches!(algo, Algo::Bsp),
            ..Default::default()
        },
        stop: StopCondition::Iterations(3),
        faults: None,
        real: None,
        seed: 77,
    }
}

const ALGOS: [(&str, Algo); 7] = [
    ("bsp", Algo::Bsp),
    ("asp", Algo::Asp),
    ("ssp", Algo::Ssp { staleness: 2 }),
    (
        "easgd",
        Algo::Easgd {
            tau: 2,
            alpha: None,
        },
    ),
    ("arsgd", Algo::ArSgd),
    ("gosgd", Algo::GoSgd { p: 0.5 }),
    ("adpsgd", Algo::AdPsgd),
];

fn record(cfg: &RunConfig) -> Vec<Event> {
    let sink = ObsSink::enabled();
    let _ = run_observed(cfg, &sink);
    assert_eq!(sink.dropped(), 0, "ring buffers overflowed; raise capacity");
    sink.snapshot()
}

/// Well-formedness every golden run owes before it is compared, then its
/// canonical form.
fn canonical(name: &str, events: &[Event]) -> String {
    assert!(!events.is_empty(), "{name}: run produced no events");
    verify_stack_discipline(events)
        .unwrap_or_else(|e| panic!("{name}: malformed span nesting: {e}"));
    canonical_trace(events)
}

/// Canonical trace of one observed run of `cfg`, and its event count.
fn trace_of(name: &str, cfg: &RunConfig) -> (String, usize) {
    let events = record(cfg);
    (canonical(name, &events), events.len())
}

fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// Compare `got` with the committed `tests/golden/<file>` — or record it,
/// under `DTRAIN_BLESS=1`. A divergence comes back as its report, which is
/// also written to `results/golden_diffs/<file>.diff`.
fn check_golden(file: &str, got: &str) -> Result<(), String> {
    let path = repo_path("tests/golden").join(file);
    if std::env::var("DTRAIN_BLESS").is_ok_and(|v| v == "1") {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, got).unwrap();
        eprintln!("blessed {} ({} lines)", path.display(), got.lines().count());
        return Ok(());
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden file {}; record it with DTRAIN_BLESS=1 cargo test --test golden_traces",
            path.display()
        )
    });
    let Some(report) = diff_canonical(&expected, got) else {
        return Ok(());
    };
    let dir = repo_path("results/golden_diffs");
    fs::create_dir_all(&dir).unwrap();
    fs::write(dir.join(format!("{file}.diff")), &report).unwrap();
    Err(format!("== {file} ==\n{report}"))
}

#[test]
fn golden_traces_all_seven_algorithms() {
    let failures: Vec<String> = ALGOS
        .iter()
        .filter_map(|&(name, algo)| {
            let (got, _) = trace_of(name, &golden_cfg(algo));
            check_golden(&format!("{name}.trace"), &got).err()
        })
        .collect();
    assert!(
        failures.is_empty(),
        "golden trace divergence in {} of {} algorithms (full reports in results/golden_diffs/):\n\n{}",
        failures.len(),
        ALGOS.len(),
        failures.join("\n\n")
    );
}

/// One cell of the fault matrix: `golden_cfg` without local aggregation
/// (leader/follower machine aggregation has no crash-recovery path), 12
/// iterations, `victim` crashing at 100 ms.
fn fault_cell_cfg(
    algo: Algo,
    victim: usize,
    elastic: bool,
    restart_after: Option<dtrain_desim::SimTime>,
) -> RunConfig {
    use dtrain_desim::SimTime;
    use dtrain_faults::ElasticConfig;
    let mut cfg = golden_cfg(algo);
    cfg.opts.local_aggregation = false;
    cfg.stop = StopCondition::Iterations(12);
    cfg.faults = Some(FaultConfig {
        schedule: FaultSchedule::new(vec![FaultEvent {
            at: SimTime::from_millis(100),
            kind: FaultKind::WorkerCrash {
                worker: victim,
                restart_after,
            },
        }]),
        checkpoint_interval: 4,
        elastic: elastic.then(ElasticConfig::default),
    });
    cfg
}

/// BSP with a loss-and-rejoin plan: the fault matrix's
/// `bsp_v1_elastic_restart` cell, whose full trace `golden_fault_matrix`
/// pins as `elastic_bsp.trace`.
fn elastic_bsp_cfg() -> RunConfig {
    fault_cell_cfg(
        Algo::Bsp,
        1,
        true,
        Some(dtrain_desim::SimTime::from_secs(2)),
    )
}

/// The membership gate, crash fallback and adopt/rejoin path of *every*
/// body, pinned: 7 algorithms × victim ∈ {1, 2} (an AD-PSGD passive on
/// machine 0, an active on machine 1) × {elastic, classic} × {restart after
/// 2 s, permanent loss}. `fault_matrix.digest` carries one line per cell —
/// name, event count, 64-bit FNV-1a of the canonical trace; the seven
/// elastic loss-and-rejoin cells at victim 1 are also committed in full
/// (`elastic_<algo>.trace`) so a divergence there reads as a line diff. A
/// cell whose digest line moved leaves its trace in `results/golden_diffs/`.
#[test]
fn golden_fault_matrix() {
    fn fnv1a64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }
    let committed = fs::read_to_string(repo_path("tests/golden/fault_matrix.digest"));
    let committed = committed.unwrap_or_default();
    let mut digest = String::new();
    let mut failures: Vec<String> = Vec::new();
    for (name, algo) in ALGOS {
        for victim in [1, 2] {
            for (mode, elastic) in [("elastic", true), ("classic", false)] {
                for (fate, restart_after) in [
                    ("restart", Some(dtrain_desim::SimTime::from_secs(2))),
                    ("permanent", None),
                ] {
                    let cell = format!("{name}_v{victim}_{mode}_{fate}");
                    let cfg = fault_cell_cfg(algo, victim, elastic, restart_after);
                    let (got, events) = trace_of(&cell, &cfg);
                    let line = format!("{cell} {events} {:016x}", fnv1a64(got.as_bytes()));
                    if !committed.lines().any(|l| l == line) {
                        let dir = repo_path("results/golden_diffs");
                        fs::create_dir_all(&dir).unwrap();
                        fs::write(dir.join(format!("{cell}.trace")), &got).unwrap();
                    }
                    digest.push_str(&line);
                    digest.push('\n');
                    if victim == 1 && elastic && restart_after.is_some() {
                        failures.extend(check_golden(&format!("elastic_{name}.trace"), &got).err());
                    }
                }
            }
        }
    }
    failures.extend(check_golden("fault_matrix.digest", &digest).err());
    assert!(
        failures.is_empty(),
        "fault matrix diverged (moved cells' traces and reports in results/golden_diffs/):\n\n{}",
        failures.join("\n\n")
    );
}

/// A pinned *collective* run rides next to the fault-free traces: AR-SGD
/// under the chunked pipelined hierarchical schedule. Pinning it freezes
/// the whole two-level choreography — chunk streaming during backward, the
/// leader ring, the broadcast — plus the COLL_* marker vocabulary.
fn pipelined_arsgd_cfg() -> RunConfig {
    let mut cfg = golden_cfg(Algo::ArSgd);
    cfg.opts.wait_free_bp = true;
    cfg.opts.collective = CollectiveSchedule::Pipelined;
    cfg
}

#[test]
fn golden_trace_pipelined_arsgd() {
    let (got, _) = trace_of("arsgd_pipelined", &pipelined_arsgd_cfg());
    for name in [
        dtrain_obs::names::COLL_INTRA_REDUCE,
        dtrain_obs::names::COLL_INTER_RING,
        dtrain_obs::names::COLL_INTRA_BCAST,
        dtrain_obs::names::COLL_CHUNK_BYTES,
    ] {
        assert!(got.contains(name), "pipelined trace lacks {name}");
    }
    if let Err(report) = check_golden("arsgd_pipelined.trace", &got) {
        panic!("arsgd_pipelined golden trace diverged:\n{report}");
    }
}

/// Every elastic marker in the shared vocabulary shows up in a canonical
/// trace of the scenario that produces it, so the Perfetto timeline (and
/// any trace-driven tooling) can rely on the names.
#[test]
fn elastic_markers_appear_in_canonical_traces() {
    use dtrain_desim::SimTime;
    use dtrain_faults::ElasticConfig;

    // Loss + rejoin under BSP: eviction, the degraded round, re-entry.
    let trace = canonical_trace(&record(&elastic_bsp_cfg()));
    for name in ["member.evict", "member.rejoin", "barrier.partial"] {
        assert!(trace.contains(name), "BSP loss/rejoin trace lacks {name}");
    }

    // PS-shard machine loss under ASP: the shard re-homes.
    let trace = {
        let mut cfg = golden_cfg(Algo::Asp);
        cfg.stop = StopCondition::Iterations(12);
        cfg.faults = Some(FaultConfig {
            schedule: FaultSchedule::new(vec![FaultEvent {
                at: SimTime::from_millis(200),
                kind: FaultKind::PsShardFail {
                    shard: 0,
                    outage: SimTime::from_millis(300),
                },
            }]),
            checkpoint_interval: 4,
            elastic: Some(ElasticConfig::default()),
        });
        canonical_trace(&record(&cfg))
    };
    assert!(
        trace.contains("ps.shard_failover"),
        "PS-failover trace lacks ps.shard_failover"
    );

    // An absurdly tight transfer deadline: every transfer blows it and the
    // bounded retry loop stamps its attempts.
    let trace = {
        let mut cfg = golden_cfg(Algo::Bsp);
        cfg.opts.local_aggregation = false;
        cfg.faults = Some(FaultConfig {
            schedule: FaultSchedule::new(vec![]),
            checkpoint_interval: 4,
            elastic: Some(ElasticConfig {
                transfer_deadline: SimTime::from_nanos(1),
                ..Default::default()
            }),
        });
        canonical_trace(&record(&cfg))
    };
    assert!(
        trace.contains("net.retry"),
        "tight-deadline trace lacks net.retry"
    );
}

/// Timing passivity: kernel speed must be invisible to traces. The
/// simulated clock is driven by the layer profile, never by kernel
/// wall-clock, and every SIMD tier shares one reduction order — so a
/// real-math observed run executed on the portable scalar tier and on the
/// widest supported SIMD tier must produce a byte-identical canonical
/// trace, the same virtual end time, and bit-identical accuracy. This is
/// the regression fence that lets kernels get faster (or slower) without
/// ever re-blessing a golden trace.
///
/// `with_isa` is a thread-local scope, so the fence only holds if simulated
/// workers execute on the thread that opened it. They do where `desim`
/// switches contexts on the caller's thread; when processes were OS threads
/// both runs silently used the detected tier. The probe below asserts, from
/// inside a process body, that the scope (and `with_max_threads`, which
/// works the same way) is what the bodies see.
#[test]
fn kernel_speed_cannot_alter_golden_traces() {
    use dtrain_core::presets::{accuracy_run, AccuracyScale};
    use dtrain_tensor::parallel::{current_num_threads, with_max_threads};
    use dtrain_tensor::simd::{active_isa, supported_isas, with_isa, Isa};

    /// What one `desim` process body observes of its thread.
    fn seen_by_a_process_body() -> (std::thread::ThreadId, Isa, usize) {
        let seen = std::sync::Arc::new(std::sync::Mutex::new(None));
        let seen2 = std::sync::Arc::clone(&seen);
        let mut sim: dtrain_desim::Simulation<()> = dtrain_desim::Simulation::new();
        sim.spawn("probe", move |ctx| {
            ctx.advance(dtrain_desim::SimTime::from_nanos(1));
            let here = std::thread::current().id();
            *seen2.lock().expect("probe") = Some((here, active_isa(), current_num_threads()));
        });
        sim.run();
        let seen = seen.lock().expect("probe").take();
        seen.expect("the probe body ran")
    }

    let scale = AccuracyScale {
        epochs: 1,
        train_size: 128,
        test_size: 64,
        batch: 16,
        base_lr: 0.02,
        seed: 11,
    };
    let cfg = accuracy_run(Algo::Bsp, 2, &scale);
    let run_on = |isa: Isa| {
        with_isa(isa, || {
            let (thread, isa_seen, width_seen) = with_max_threads(1, seen_by_a_process_body);
            if thread == std::thread::current().id() {
                assert_eq!(isa_seen, isa, "with_isa must reach process bodies");
                assert_eq!(width_seen, 1, "with_max_threads must reach process bodies");
            } else {
                // Parked-thread fallback target: bodies cannot see the scope.
                eprintln!(
                    "note: desim bodies run on their own threads here; both runs use {isa_seen:?}"
                );
            }
            let sink = ObsSink::enabled();
            let out = run_observed(&cfg, &sink);
            (
                canonical_trace(&sink.snapshot()),
                out.end_time,
                out.final_accuracy.map(f32::to_bits),
            )
        })
    };
    let widest = *supported_isas().first().expect("scalar always supported");
    let (scalar_trace, scalar_end, scalar_acc) = run_on(Isa::Scalar);
    let (simd_trace, simd_end, simd_acc) = run_on(widest);
    assert_eq!(
        scalar_end, simd_end,
        "virtual end time depends on the kernel ISA"
    );
    assert_eq!(
        scalar_acc, simd_acc,
        "accuracy is not bit-identical across ISA tiers"
    );
    if let Some(report) = diff_canonical(&scalar_trace, &simd_trace) {
        panic!(
            "canonical trace differs between scalar and {} kernels:\n{report}",
            widest.name()
        );
    }
}

#[test]
fn traces_are_deterministic_across_runs() {
    let a = canonical_trace(&record(&golden_cfg(Algo::Bsp)));
    let b = canonical_trace(&record(&golden_cfg(Algo::Bsp)));
    assert_eq!(a, b, "two identical runs produced different traces");
}

/// Mutation test: the harness must catch a deliberate event reorder and
/// report the first divergent line readably.
#[test]
fn deliberate_reorder_fails_with_line_number() {
    let events = record(&golden_cfg(Algo::Asp));
    let reference = canonical_trace(&events);

    // Swap two adjacent events in the middle of the trace.
    let mut mutated = events.clone();
    let mid = mutated.len() / 2;
    mutated.swap(mid, mid + 1);
    let got = canonical_trace(&mutated);
    let report = diff_canonical(&reference, &got)
        .expect("a reordered trace must diverge from the reference");
    // +2: one for the header line, one for 1-based numbering.
    let expected_line = mid + 2;
    assert!(
        report.contains(&format!("line {expected_line}")),
        "divergence report should name line {expected_line}:\n{report}"
    );
    assert!(
        report.contains("expected") && report.contains("got"),
        "report should show both sides:\n{report}"
    );

    // Dropping an event is also caught.
    let mut truncated = events.clone();
    truncated.remove(mid);
    assert!(
        diff_canonical(&reference, &canonical_trace(&truncated)).is_some(),
        "a dropped event must diverge"
    );
}

/// The golden configuration exercises all four Fig.-3 phases somewhere in
/// the suite, plus iteration spans on every worker.
#[test]
fn golden_runs_cover_all_phases() {
    use dtrain_obs::EventKind;
    let mut seen: std::collections::BTreeSet<&'static str> = Default::default();
    for algo in [Algo::Bsp, Algo::AdPsgd] {
        for e in record(&golden_cfg(algo)) {
            if let EventKind::Span { name, .. } = e.kind {
                seen.insert(name);
            }
        }
    }
    for phase in Phase::ALL {
        assert!(
            seen.contains(phase.name()),
            "no {} span in the golden runs (saw {seen:?})",
            phase.name()
        );
    }
}
