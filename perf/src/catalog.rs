//! The metric catalogue: every metric the benchmark reports, with its
//! unit, direction, clock, and — for layer metrics — the end-to-end metric
//! and workload it is expected to move. `BENCHMARK.json` is generated from
//! this table ([`benchmark_json`]); `README.md` explains it.

use crate::json::J;
use crate::workloads::Workload;

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Which clock a value was read from. `Count` and `Virtual` values are
/// exact: they must be identical between two runs of one commit with one
/// seed. A count that depends on how many repeats fitted the time budget
/// (spans recorded, samples taken) is a `Host` value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClockKind {
    Host,
    Virtual,
    Count,
}

impl ClockKind {
    pub fn name(self) -> &'static str {
        match self {
            ClockKind::Host => "host",
            ClockKind::Virtual => "virtual",
            ClockKind::Count => "count",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

/// Bound of the three timing metrics. A bound is per metric, not per
/// workload, so the noisiest workload sets it: on this class of host (a
/// shared 2-vCPU VM), with every workload on one CPU, ten runs spread by
/// 0.5–1.6 % of their median in a quiet hour and by up to 7.3 %
/// (`proc_bulk`; 6 % `thr_sync`, 4 % the rest) in a busy one, and the medians
/// of two sets taken an hour apart differ by up to 6 %. A bound should be
/// three times the spread it has to see through; the contract allows 25 %.
const TIMING_BOUND: f64 = 0.25;

/// The end-to-end metrics, every one defined — and never zero — on every
/// workload, measured with tracing off on the host clock.
pub const END_TO_END: [EndToEnd; 5] = [
    // Median wall time of one timed repeat (proc: the whole train_proc
    // call, spawn and teardown included).
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: TIMING_BOUND,
    },
    // total_iterations × batch over the run's own wall time, summed over
    // the repeat's legs. On sim_sweep: simulated samples per host second,
    // i.e. desim events/s times an exact constant.
    EndToEnd {
        name: "samples_per_s",
        unit: "samples/s",
        better: Better::Higher,
        bound: TIMING_BOUND,
    },
    // The run's own wall time over the steps each worker took (proc:
    // ProcReport.wall_time / BSP rounds; sims: host ms per simulated round).
    EndToEnd {
        name: "round_ms",
        unit: "ms",
        better: Better::Lower,
        bound: TIMING_BOUND,
    },
    // VmHWM of the workload child process at exit.
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        // One 4.4 MB frame more or fewer alive at the peak is 5 % of
        // proc_bulk's coordinator, and ten runs spread by up to 8 %.
        bound: 0.25,
    },
    // Child start to first timed repeat: data generation, model build,
    // pool spin-up, the untimed warm-up repeat.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub clock: ClockKind,
    /// What it should move, as `metric@workload`, or what it is for.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    clock: ClockKind,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        clock,
        moves,
    }
}

use Better::{Higher, Lower};
use ClockKind::{Count, Host, Virtual};

const CNN: &str = "samples_per_s@thr_cnn, @sim_math";
const FLOOR: &str =
    "floor for round_ms@proc_rounds / samples_per_s@sim_sweep; normalises across machines";

/// Per-layer metrics a traced run reports. The first block comes from the
/// traced workload itself, the rest are the micro-timings of `micro.rs`.
pub const PER_LAYER: &[Layer] = &[
    // --- from the traced run of the workload ---
    layer("trace.wall_ms", "ms", Lower, Host, "wall_s of the same workload, traced"),
    layer("trace.spans", "count", Higher, Host, "how much of the run the trace sees"),
    layer("trace.accounted_share", "ratio", Higher, Host, "share of wall the breakdown charges to a repo crate"),
    layer("obs.overhead_pct", "%", Lower, Host, "traced vs untraced wall_s, interleaved; bounds what in-program tracing may cost"),
    layer("obs.dropped_events", "count", Lower, Count, "must be 0: a dropped event is a hole in the trace"),
    layer("step.p50_us", "us", Lower, Host, "round_ms of the same workload (sims: host time per simulated round, one sample per cell)"),
    layer("step.tail_us", "us", Lower, Host, "on synchronous legs the slow rank sets the round: moves round_ms before p50 does"),
    layer("step.tail_pct", "%", Higher, Host, "which percentile step.tail_us is: the highest with ten samples beyond it"),
    layer("step.samples", "count", Higher, Host, "sample count behind step.*"),
    layer("nn.wall_share", "ratio", Lower, Host, "samples_per_s@thr_cnn (dominant), @thr_sync, @proc_*"),
    layer("runtime.wall_share", "ratio", Lower, Host, "samples_per_s@thr_sync (dominant): barrier, PS lock, peer channels, clones"),
    layer("proc.wall_share", "ratio", Lower, Host, "round_ms@proc_rounds, @proc_bulk: RPCs, coordinator wait, spawn, teardown"),
    layer("proc.exchange_share", "ratio", Lower, Host, "bsp_exchange share of a worker's step on proc_*"),
    layer("proc.iter_end_share", "ratio", Lower, Host, "heartbeat RPC share of a worker's step on proc_*"),
    layer("data.wall_share", "ratio", Lower, Host, "setup_s and wall_s@proc_*: each worker process regenerates the task"),
    layer("algos.wall_share", "ratio", Lower, Host, "wall_s@sim_*: run() as a whole (desim + cluster + bodies; nn on sim_math)"),
    layer("desim.handoff_share", "ratio", Lower, Host, "events x desim.handoff_ns / wall: the accounted kernel share of sim_*"),
    layer("desim.events", "count", Lower, Count, "exact; a simulator-speed change must leave it identical"),
    layer("desim.events_per_s", "1/s", Higher, Host, "samples_per_s@sim_sweep (same thing per event)"),
    layer("cluster.sim_wire_bytes", "count", Lower, Virtual, "exact; a simulator-speed change must leave it identical"),
    layer("algos.cost_err_pct_max", "%", Lower, Virtual, "exact; cost::throughput vs the simulator over sim_sweep's cells (the model is otherwise unvalidated)"),
    layer("proc.rpcs_per_round", "count", Lower, Count, "round_ms@proc_rounds"),
    layer("proc.wire_mb_per_s", "MB/s", Higher, Host, "logical bytes / ProcReport.wall_time on proc_*"),
    layer("proc.round_accounted_share", "ratio", Higher, Host, "(compute + frames x codec cost at that size) / round_ms; the rest is coordinator + TCP + wait"),
    layer("path.disruptions", "count", Lower, Count, "must be 0: evictions, retries, partial rounds, restarts"),
    // --- host (calibration, not a repo layer) ---
    layer("host.steal_pct", "%", Lower, Host, "CPU time the hypervisor took from this run; above ~1 % the run measured the neighbours"),
    layer("host.parallelism", "count", Higher, Count, FLOOR),
    layer("host.memcpy_gbps", "GB/s", Higher, Host, FLOOR),
    layer("host.loopback_rtt_us", "us", Lower, Host, FLOOR),
    layer("host.thread_handoff_ns", "ns", Lower, Host, FLOOR),
    // --- tensor ---
    layer("tensor.gemm_gflops.conv0", "GFLOP/s", Higher, Host, CNN),
    layer("tensor.gemm_gflops.conv1", "GFLOP/s", Higher, Host, CNN),
    layer("tensor.gemm_gflops.dense0", "GFLOP/s", Higher, Host, CNN),
    layer("tensor.gemm_gflops.mlp1024", "GFLOP/s", Higher, Host, "round_ms@proc_bulk (compute part)"),
    layer("tensor.gemm_gflops.sq512", "GFLOP/s", Higher, Host, "kernel ceiling; no workload runs this shape"),
    layer("tensor.gemm512_speedup_2t", "ratio", Higher, Host, "0 = unmeasured (one-CPU host)"),
    layer("tensor.conv_fwd_us.conv1", "us", Lower, Host, CNN),
    layer("tensor.conv_bwd_us.conv1", "us", Lower, Host, CNN),
    layer("tensor.im2col_us.conv0", "us", Lower, Host, CNN),
    layer("tensor.maxpool_fwd_us.pool0", "us", Lower, Host, CNN),
    layer("tensor.simd_tier", "count", Higher, Count, "0 scalar, 1 AVX2, 2 AVX-512"),
    // --- nn ---
    layer("nn.fwd_us.conv0", "us", Lower, Host, CNN),
    layer("nn.bwd_us.conv0", "us", Lower, Host, CNN),
    layer("nn.fwd_us.relu0", "us", Lower, Host, CNN),
    layer("nn.bwd_us.relu0", "us", Lower, Host, CNN),
    layer("nn.fwd_us.pool0", "us", Lower, Host, CNN),
    layer("nn.bwd_us.pool0", "us", Lower, Host, CNN),
    layer("nn.fwd_us.conv1", "us", Lower, Host, CNN),
    layer("nn.bwd_us.conv1", "us", Lower, Host, CNN),
    layer("nn.fwd_us.relu1", "us", Lower, Host, CNN),
    layer("nn.bwd_us.relu1", "us", Lower, Host, CNN),
    layer("nn.fwd_us.pool1", "us", Lower, Host, CNN),
    layer("nn.bwd_us.pool1", "us", Lower, Host, CNN),
    layer("nn.fwd_us.flatten", "us", Lower, Host, CNN),
    layer("nn.bwd_us.flatten", "us", Lower, Host, CNN),
    layer("nn.fwd_us.dense0", "us", Lower, Host, CNN),
    layer("nn.bwd_us.dense0", "us", Lower, Host, CNN),
    layer("nn.train_batch_us.cnn", "us", Lower, Host, CNN),
    layer("nn.train_batch_us.mlp", "us", Lower, Host, "samples_per_s@thr_sync, round_ms@proc_rounds (compute part)"),
    layer("nn.train_batch_us.mlp1024", "us", Lower, Host, "round_ms@proc_bulk (compute part)"),
    layer("nn.layer_sum_share.cnn", "ratio", Higher, Host, "sum of layer fwd+bwd over train_batch: what the per-layer rows explain"),
    layer("nn.optim_step_us.cnn", "us", Lower, Host, CNN),
    layer("nn.params_roundtrip_us.mlp1024", "us", Lower, Host, "round_ms@proc_bulk"),
    layer("nn.scratch_reuse_ratio", "ratio", Higher, Host, "steady-state train_batch allocates nothing"),
    // --- data ---
    layer("data.gen_ms.teacher", "ms", Lower, Host, "setup_s@thr_sync, wall_s@proc_* (every worker process)"),
    layer("data.gen_ms.images", "ms", Lower, Host, "setup_s@thr_cnn, wall_s@sim_math (every cell)"),
    layer("data.gather_us.images", "us", Lower, Host, "samples_per_s@thr_cnn (small)"),
    // --- compress ---
    layer("compress.dgc_mbps", "MB/s", Higher, Host, "leg bsp_dgc of sim_math"),
    layer("compress.dgc_kept_share", "ratio", Lower, Count, "exact count ratio at 99.9 % sparsity"),
    // --- cluster ---
    layer("cluster.transfer_delay_ns", "ns", Lower, Host, "samples_per_s@sim_sweep"),
    // --- desim ---
    layer("desim.handoff_ns", "ns", Lower, Host, "samples_per_s@sim_sweep (dominant); < 3 % of sim_math"),
    layer("desim.advance_ns", "ns", Lower, Host, "samples_per_s@sim_sweep"),
    layer("desim.spawn_us", "us", Lower, Host, "wall_s@sim_sweep: 24+ processes per cell"),
    layer("desim.unpinned_slowdown", "ratio", Lower, Host, "the pinning finding: ~10 means unpinned runs measure the host scheduler; 0 = unmeasured"),
    // --- algos ---
    layer("algos.cost_ns_per_call", "ns", Lower, Host, "sched.study_wall_ms"),
    // --- runtime ---
    layer("runtime.ps_push_pull_us", "us", Lower, Host, "samples_per_s@thr_sync (asp leg)"),
    layer("runtime.barrier_roundtrip_us", "us", Lower, Host, "samples_per_s@thr_sync (bsp leg), round_ms@proc_rounds"),
    layer("runtime.single_worker_samples_per_s", "samples/s", Higher, Host, "plain single-worker baseline of the thr_cnn task"),
    layer("runtime.scaling_eff_2w", "ratio", Higher, Host, "2 workers over 2x the baseline; 0 = unmeasured (one-CPU host)"),
    // --- proc ---
    layer("proc.encode_mbps", "MB/s", Higher, Host, "round_ms@proc_bulk; should leave proc_rounds flat"),
    layer("proc.decode_mbps", "MB/s", Higher, Host, "round_ms@proc_bulk; should leave proc_rounds flat"),
    layer("proc.crc32_mbps", "MB/s", Higher, Host, "round_ms@proc_bulk; should leave proc_rounds flat"),
    layer("proc.frame_small_us", "us", Lower, Host, "round_ms@proc_rounds; should leave proc_bulk flat"),
    layer("proc.launch_ms", "ms", Lower, Host, "wall_s@proc_* (spawn part)"),
    // --- faults ---
    layer("faults.ckpt_save_us.mlp1024", "us", Lower, Host, "round_ms@proc_bulk (coordinator checkpoints every 10 rounds)"),
    layer("faults.ckpt_restore_us.mlp1024", "us", Lower, Host, "recovery paths only; no workload restores"),
    layer("faults.live_at_ns", "ns", Lower, Host, "per-iteration membership query on elastic runs"),
    // --- obs ---
    layer("obs.record_ns_enabled", "ns", Lower, Host, "obs.overhead_pct"),
    layer("obs.record_ns_disabled", "ns", Lower, Host, "every untraced run: the cost of a disabled sink"),
    // --- sched ---
    layer("sched.study_wall_ms", "ms", Lower, Host, "follows samples_per_s@sim_sweep; no workload of its own yet"),
];

/// The document the driver reads: exactly the contract's keys.
pub fn benchmark_json() -> J {
    J::obj([
        ("command", J::strs(["bash", "perf/run.sh"])),
        ("paths", J::strs(["perf"])),
        ("run_seconds", J::Int(RUN_SECONDS as i64)),
        (
            "workloads",
            J::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| J::obj([("name", J::str(w.name())), ("why", J::str(w.why()))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            J::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        J::obj([
                            ("name", J::str(m.name)),
                            ("unit", J::str(m.unit)),
                            ("better", J::str(m.better.name())),
                            ("bound", J::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            J::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        J::obj([
                            ("name", J::str(m.name)),
                            ("unit", J::str(m.unit)),
                            ("better", J::str(m.better.name())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn legal(s: &str, extra: &str, max: usize) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    /// The limits the driver refuses a `BENCHMARK.json` over.
    #[test]
    fn catalogue_respects_the_contract_limits() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names = BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(Workload::ALL.iter().map(|w| (w.name(), "count")))
        {
            assert!(legal(name, "_.-", 64), "name {name}");
            assert!(
                name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "name {name}"
            );
            assert!(legal(unit, "_/%.-", 16), "unit {unit} of {name}");
            assert!(names.insert(name), "{name} is used twice");
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }

    /// Writer round trip: the generated document parses back to exactly the
    /// catalogue, carries exactly the contract's keys, and is what is
    /// committed at the repository root.
    #[test]
    fn benchmark_json_round_trips_and_matches_the_committed_file() {
        let text = benchmark_json().pretty();
        assert!(text.len() < 64 * 1024);
        let doc = serde_json::from_str(&text).expect("writer emits valid JSON");
        let keys: Vec<&str> = doc
            .as_object()
            .expect("object")
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert_eq!(doc["run_seconds"].as_u64(), Some(RUN_SECONDS));
        assert_eq!(doc["paths"][0].as_str(), Some("perf"));
        let e2e = doc["end_to_end"].as_array().expect("array");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, want) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(got.as_object().expect("object").len(), 4);
            assert_eq!(got["name"].as_str(), Some(want.name));
            assert_eq!(got["unit"].as_str(), Some(want.unit));
            assert_eq!(got["better"].as_str(), Some(want.better.name()));
            assert_eq!(got["bound"].as_f64(), Some(want.bound));
        }
        let layers = doc["per_layer"].as_array().expect("array");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (got, want) in layers.iter().zip(PER_LAYER) {
            assert_eq!(got.as_object().expect("object").len(), 3);
            assert_eq!(got["name"].as_str(), Some(want.name));
            assert_eq!(got["unit"].as_str(), Some(want.unit));
            assert_eq!(got["better"].as_str(), Some(want.better.name()));
        }
        let workloads = doc["workloads"].as_array().expect("array");
        let names: Vec<_> = workloads
            .iter()
            .map(|w| w["name"].as_str().expect("name"))
            .collect();
        assert_eq!(names, Workload::ALL.map(Workload::name));

        let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(committed).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk, text,
            "regenerate with `perf catalog > BENCHMARK.json`"
        );
    }
}
