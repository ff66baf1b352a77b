//! What a human reads: the metric table on stdout, `results.json`,
//! `breakdown_<workload>.md`, and `perf compare`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde_json::Value;

use crate::catalog::{self, Better, END_TO_END};
use crate::json::J;
use crate::micro::Metrics;
use crate::runner::Measured;
use crate::stats::{median, Summary};
use crate::workloads::Workload;

/// `name value unit (clock)` for every metric of one run, one per line.
pub fn metric_table(w: Workload, r: &Measured, traced: bool) -> String {
    let mut out = String::new();
    if traced {
        for l in catalog::PER_LAYER {
            let v = r.layers.get(l.name).copied().unwrap_or(0.0);
            let _ = writeln!(
                out,
                "{:<12} {:<36} {:>16.6} {:<10} ({})",
                w.name(),
                l.name,
                v,
                l.unit,
                l.clock.name()
            );
        }
    } else {
        for e in &END_TO_END {
            if let Some(s) = r.e2e.get(e.name) {
                let s = Summary::of(s);
                let _ = writeln!(
                    out,
                    "{:<12} {:<36} {:>16.6} {:<10} (host)  n={} min={:.6} q1={:.6} q3={:.6} max={:.6}",
                    w.name(), e.name, s.median, e.unit, s.n, s.min, s.q1, s.q3, s.max
                );
            }
        }
        let _ = writeln!(
            out,
            "{:<12} {:<36} {:>16.6} {:<10} (host)",
            w.name(),
            "host.steal_pct",
            r.steal_pct,
            "%"
        );
    }
    let _ = writeln!(
        out,
        "{:<12} {:<36} {:>16.6} {:<10} (count) attempted={} failed={}",
        w.name(),
        "failed_share",
        r.failed_share(),
        "ratio",
        r.attempted,
        r.failed
    );
    if let Some(d) = &r.digest {
        let _ = writeln!(
            out,
            "{:<12} {:<36} {:>16} {:<10} (count)",
            w.name(),
            "sim_digest",
            d,
            "hex"
        );
    }
    for f in &r.failures {
        let _ = writeln!(out, "{:<12} CHECK FAILED: {f}", w.name());
    }
    out
}

fn summary_json(unit: &str, clock: &str, samples: &[f64]) -> J {
    let s = Summary::of(samples);
    J::obj([
        ("unit", J::str(unit)),
        ("clock", J::str(clock)),
        ("n", J::Int(s.n as i64)),
        ("min", J::Num(s.min)),
        ("q1", J::Num(s.q1)),
        ("median", J::Num(s.median)),
        ("q3", J::Num(s.q3)),
        ("max", J::Num(s.max)),
    ])
}

fn value_json(unit: &str, clock: &str, value: f64) -> J {
    J::obj([
        ("unit", J::str(unit)),
        ("clock", J::str(clock)),
        ("value", J::Num(value)),
    ])
}

/// One workload's section of `results.json`: its untraced and traced run.
pub fn workload_json(plain: &Measured, traced: &Measured, calib: &Metrics) -> J {
    let e2e = END_TO_END
        .iter()
        .filter_map(|e| Some((e.name, summary_json(e.unit, "host", plain.e2e.get(e.name)?))));
    // Micro-timings are reported once, under "calibration".
    let own = catalog::PER_LAYER
        .iter()
        .filter(|l| !calib.contains_key(l.name))
        .filter_map(|l| {
            Some((
                l.name.to_string(),
                value_json(l.unit, l.clock.name(), *traced.layers.get(l.name)?),
            ))
        });
    // Per-leg rows: wall time from the untraced run, step latency from the
    // traced one. README.md maps these to the names the issue used.
    let mut legs: Vec<(String, J)> = Vec::new();
    for (name, leg) in &plain.legs {
        legs.push((
            format!("leg.{name}.run_ms"),
            summary_json("ms", "host", &leg.run_ms),
        ));
        let steps_per_s = leg.rounds as f64 / (median(&leg.run_ms) / 1e3);
        legs.push((
            format!("leg.{name}.steps_per_s"),
            value_json("1/s", "host", steps_per_s),
        ));
        if let Some(t) = traced.legs.get(name) {
            if let (Some(p50), Some(tail), Some(pct)) =
                (t.step_p50_us, t.step_tail_us, t.step_tail_pct)
            {
                legs.push((
                    format!("leg.{name}.step_p50_us"),
                    value_json("us", "host", p50),
                ));
                legs.push((
                    format!("leg.{name}.step_tail_us"),
                    value_json("us", "host", tail),
                ));
                legs.push((
                    format!("leg.{name}.step_tail_pct"),
                    value_json("%", "host", pct),
                ));
            }
        }
    }
    for (name, (p50, tail, pct)) in &traced.prims {
        legs.push((
            format!("prim.{name}.p50_us"),
            value_json("us", "host", *p50),
        ));
        legs.push((
            format!("prim.{name}.tail_us"),
            value_json("us", "host", *tail),
        ));
        legs.push((
            format!("prim.{name}.tail_pct"),
            value_json("%", "host", *pct),
        ));
    }
    let failures: Vec<&String> = plain.failures.iter().chain(&traced.failures).collect();
    J::obj([
        ("pinned", J::Bool(plain.pinned)),
        ("steal_pct", J::Num(plain.steal_pct)),
        ("repeats", J::Int(plain.repeats as i64)),
        (
            "attempted",
            J::Int((plain.attempted + traced.attempted) as i64),
        ),
        ("failed", J::Int((plain.failed + traced.failed) as i64)),
        (
            "failed_share",
            J::Num(
                (plain.failed + traced.failed) as f64
                    / (plain.attempted + traced.attempted).max(1) as f64,
            ),
        ),
        ("checks_failed", J::strs(failures)),
        ("sim_digest", plain.digest.as_ref().map_or(J::Null, J::str)),
        ("end_to_end", J::obj(e2e)),
        ("per_layer", J::obj(own.chain(legs))),
    ])
}

/// `breakdown_<workload>.md`: layer self-times along the blocking path,
/// their sum, the end-to-end number, and the gap.
pub fn breakdown_md(w: Workload, plain: &Measured, traced: &Measured) -> String {
    let wall = traced.breakdown_wall_ns.max(1) as f64;
    let repeats = traced.traced_repeats.max(1) as f64;
    let per_repeat_ms = |ns: u64| ns as f64 / repeats / 1e6;
    let mut md = String::new();
    let _ = writeln!(md, "# Breakdown: `{}`\n", w.name());
    let _ = writeln!(
        md,
        "Self time of every span on the blocking path (the driver's track plus the busiest \
         worker track), per traced repeat, host clock. Layer = crate the time is charged to; \
         `perf` is the harness's own bookkeeping between calls.\n"
    );
    let _ = writeln!(md, "| layer | span | ms / repeat | share of wall |");
    let _ = writeln!(md, "|---|---|---:|---:|");
    let mut accounted = 0u64;
    for (layer, name, ns) in &traced.breakdown {
        accounted += ns;
        let _ = writeln!(
            md,
            "| `{layer}` | {name} | {:.3} | {:.1} % |",
            per_repeat_ms(*ns),
            *ns as f64 / wall * 100.0
        );
    }
    let gap = traced.breakdown_gap_ns;
    let _ = writeln!(
        md,
        "| | **sum of spans** | {:.3} | {:.1} % |",
        per_repeat_ms(accounted),
        accounted as f64 / wall * 100.0
    );
    let _ = writeln!(
        md,
        "| | **gap** (only a non-blocking worker was inside a span) | {:.3} | {:.1} % |",
        per_repeat_ms(gap),
        gap as f64 / wall * 100.0
    );
    let _ = writeln!(
        md,
        "| | **traced repeat, end to end** | {:.3} | 100 % |",
        per_repeat_ms(traced.breakdown_wall_ns)
    );
    if let Some(s) = plain.e2e.get("wall_s") {
        let _ = writeln!(
            md,
            "| | untraced `wall_s` (median of {}) | {:.3} | |",
            s.len(),
            median(s) * 1e3
        );
    }
    let get = |k: &str| traced.layers.get(k).copied().unwrap_or(0.0);
    let _ = writeln!(
        md,
        "\nAccounted to a repo crate: **{:.1} %** of wall.",
        get("trace.accounted_share") * 100.0
    );
    // What the outside view cannot split, said out loud.
    match w {
        Workload::SimSweep | Workload::SimMath => {
            let _ = writeln!(
                md,
                "\n`algos::run_observed` is one opaque call from outside: `desim`, `cluster` and the \
                 algorithm bodies (and on `sim_math` the real SGD) all run inside it. Modelled split: \
                 {:.0} desim events x `desim.handoff_ns` {:.0} ns = **{:.1} %** of untraced wall is kernel \
                 hand-off; the rest is `algos` + `cluster`{}. Splitting it for real needs spans inside \
                 the simulator (ROADMAP item 5d) — an open finding, not a measurement.",
                get("desim.events"),
                get("desim.handoff_ns"),
                get("desim.handoff_share") * 100.0,
                if w == Workload::SimMath { " + `nn`/`tensor`/`compress`" } else { "" },
            );
        }
        Workload::ThrCnn | Workload::ThrSync => {
            let _ = writeln!(
                md,
                "\n`iter` self time is everything `worker_body` does around `train_batch`: batch gather, \
                 gradient collection, the exchange primitive and its waiting. They cannot be told apart \
                 from outside the crate; `runtime.barrier_roundtrip_us` and `runtime.ps_push_pull_us` \
                 give the floor of the exchange part."
            );
        }
        Workload::ProcRounds | Workload::ProcBulk => {
            let _ = writeln!(
                md,
                "\n`bsp_exchange` and `iter_end` are whole RPCs as the worker sees them: encode, CRC, \
                 loopback TCP, coordinator dispatch, waiting for the other rank, decode. Codec cost at \
                 this frame size plus compute accounts for **{:.1} %** of a round \
                 (`proc.round_accounted_share`); the rest is coordinator + TCP + wait, visible only \
                 with spans inside the coordinator (ROADMAP items 4/5).",
                get("proc.round_accounted_share") * 100.0
            );
        }
    }
    md
}

// ------------------------------------------------------------- compare --

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The spread of either side is wider than the bound: the comparison
    /// cannot tell a change from noise.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: its median, its quartiles, and how uncertain
/// the median is, as a share of it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Side {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub spread: f64,
}

impl Side {
    /// From several results files (the A/B procedure's ten runs): the
    /// samples are the files' medians and the spread is their
    /// interquartile distance — run-to-run spread, measured.
    /// From one file: the file's own median and quartiles over its `n`
    /// repeats, and the spread of that *median* estimated as IQR / √n (the
    /// repeats' own IQR says how wide one repeat scatters, not how far the
    /// median of n of them can move).
    pub fn of(summaries: &[&Value]) -> Option<Side> {
        let g = |m: &Value, k: &str| m[k].as_f64();
        match summaries {
            [] => None,
            [m] => {
                let (median, q1, q3) = (g(m, "median")?, g(m, "q1")?, g(m, "q3")?);
                let n = g(m, "n")?.max(1.0);
                Some(Side {
                    median,
                    q1,
                    q3,
                    spread: (q3 - q1) / n.sqrt() / median.abs().max(f64::MIN_POSITIVE),
                })
            }
            many => {
                let medians: Vec<f64> = many.iter().filter_map(|m| g(m, "median")).collect();
                let s = Summary::of(&medians);
                Some(Side {
                    median: s.median,
                    q1: s.q1,
                    q3: s.q3,
                    spread: (s.q3 - s.q1) / s.median.abs().max(f64::MIN_POSITIVE),
                })
            }
        }
    }
}

pub fn verdict(a: Side, b: Side, better: Better, bound: f64) -> Verdict {
    if a.spread > bound || b.spread > bound {
        return Verdict::Unresolved;
    }
    // Positive = B is worse than A, as a share of A.
    let worse = match better {
        Better::Lower => (b.median - a.median) / a.median,
        Better::Higher => (a.median - b.median) / a.median,
    };
    if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

/// One row per (metric, workload) present on both sides: both medians with
/// quartiles, the ratio B/A with its base, and a verdict for the bounded
/// (end-to-end) metrics. Layer metrics get the ratio only; count- and
/// virtual-clock metrics and the simulator digest must be identical and
/// are flagged when they are not. Each side is one results file or
/// several (see [`Side::of`]). Returns the table and the number of rows
/// that are regressed, unresolved or not identical.
pub fn compare(a: &[Value], b: &[Value]) -> (String, usize) {
    let mut out = String::new();
    let mut bad = 0usize;
    let _ = writeln!(
        out,
        "{:<12} {:<34} {:>14} {:>24} {:>14} {:>24} {:>9}  verdict",
        "workload", "metric", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "B/A"
    );
    let empty = BTreeMap::new();
    let (Some(a0), Some(b0)) = (a.first(), b.first()) else {
        return (out, 0);
    };
    for (w, wa) in a0["workloads"].as_object().unwrap_or(&empty) {
        let wb = &b0["workloads"][w.as_str()];
        if wb.is_null() {
            continue;
        }
        for e in &END_TO_END {
            let pick = |files: &[Value]| -> Option<Side> {
                let found: Vec<&Value> = files
                    .iter()
                    .map(|f| &f["workloads"][w.as_str()]["end_to_end"][e.name])
                    .filter(|m| !m.is_null())
                    .collect();
                Side::of(&found)
            };
            let (Some(sa), Some(sb)) = (pick(a), pick(b)) else {
                continue;
            };
            let v = verdict(sa, sb, e.better, e.bound);
            bad += usize::from(matches!(v, Verdict::Regressed | Verdict::Unresolved));
            let _ = writeln!(
                out,
                "{:<12} {:<34} {:>14.6} {:>24} {:>14.6} {:>24} {:>9.4}  {} (bound {:.0} %, {} is better, base A)",
                w,
                e.name,
                sa.median,
                format!("[{:.6}, {:.6}]", sa.q1, sa.q3),
                sb.median,
                format!("[{:.6}, {:.6}]", sb.q1, sb.q3),
                sb.median / sa.median,
                v.name(),
                e.bound * 100.0,
                e.better.name()
            );
        }
        for (name, ma) in wa["per_layer"].as_object().unwrap_or(&empty) {
            let mb = &wb["per_layer"][name.as_str()];
            if mb.is_null() {
                continue;
            }
            let pick = |m: &Value| {
                m["value"]
                    .as_f64()
                    .or_else(|| m["median"].as_f64())
                    .unwrap_or(0.0)
            };
            let (va, vb) = (pick(ma), pick(mb));
            let exact = ma["clock"].as_str() != Some("host");
            let note = if exact && va != vb {
                bad += 1;
                "DIFFERS (exact metric)"
            } else if exact {
                "identical"
            } else {
                "ungated"
            };
            let ratio = if va == 0.0 { f64::NAN } else { vb / va };
            let _ = writeln!(
                out,
                "{w:<12} {name:<34} {va:>14.6} {:>24} {vb:>14.6} {:>24} {ratio:>9.4}  {note}",
                "", ""
            );
        }
        if wa["sim_digest"] != wb["sim_digest"] {
            bad += 1;
            let _ = writeln!(
                out,
                "{w:<12} sim_digest DIFFERS: {:?} vs {:?}",
                wa["sim_digest"].as_str(),
                wb["sim_digest"].as_str()
            );
        }
    }
    (out, bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(median: f64, spread: f64) -> Side {
        Side {
            median,
            q1: median * (1.0 - spread / 2.0),
            q3: median * (1.0 + spread / 2.0),
            spread,
        }
    }

    #[test]
    fn verdicts_use_the_bound_in_the_right_direction() {
        let tight = |m: f64| side(m, 0.02);
        // lower is better, bound 10 %
        assert_eq!(
            verdict(tight(1.0), tight(1.05), Better::Lower, 0.10),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(tight(1.0), tight(1.2), Better::Lower, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(tight(1.0), tight(0.8), Better::Lower, 0.10),
            Verdict::Improved
        );
        // higher is better: the same numbers flip
        assert_eq!(
            verdict(tight(1.0), tight(1.2), Better::Higher, 0.10),
            Verdict::Improved
        );
        assert_eq!(
            verdict(tight(1.0), tight(0.8), Better::Higher, 0.10),
            Verdict::Regressed
        );
        // a spread wider than the bound on either side resolves nothing
        let noisy = side(1.0, 0.2);
        assert_eq!(
            verdict(noisy, tight(2.0), Better::Lower, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(tight(1.0), noisy, Better::Lower, 0.10),
            Verdict::Unresolved
        );
    }

    fn summary(q1: f64, median: f64, q3: f64, n: i64) -> J {
        J::obj([
            ("median", J::Num(median)),
            ("q1", J::Num(q1)),
            ("q3", J::Num(q3)),
            ("n", J::Int(n)),
        ])
    }

    fn results(wall: [f64; 3], events: f64) -> Value {
        let doc = J::obj([(
            "workloads",
            J::obj([(
                "sim_sweep",
                J::obj([
                    ("sim_digest", J::str("abc")),
                    (
                        "end_to_end",
                        J::obj([("wall_s", summary(wall[0], wall[1], wall[2], 9))]),
                    ),
                    (
                        "per_layer",
                        J::obj([
                            (
                                "desim.events",
                                J::obj([("clock", J::str("count")), ("value", J::Num(events))]),
                            ),
                            (
                                "step.p50_us",
                                J::obj([("clock", J::str("host")), ("value", J::Num(3.0))]),
                            ),
                        ]),
                    ),
                ]),
            )]),
        )]);
        serde_json::from_str(&doc.compact()).expect("json")
    }

    #[test]
    fn one_file_spreads_by_root_n_and_many_files_by_their_medians() {
        let parse = |j: J| serde_json::from_str(&j.compact()).expect("json");
        // IQR 0.3 over n = 9 repeats: the median is known to 0.3/3 = 10 %.
        let one = parse(summary(0.85, 1.0, 1.15, 9));
        let s = Side::of(&[&one]).expect("side");
        assert_eq!((s.median, s.q1, s.q3), (1.0, 0.85, 1.15));
        assert!((s.spread - 0.1).abs() < 1e-12);
        // Five files: their medians are the samples.
        let files: Vec<Value> = [1.0, 1.1, 0.9, 1.05, 0.95]
            .iter()
            .map(|&m| parse(summary(0.0, m, 9.0, 3)))
            .collect();
        let refs: Vec<&Value> = files.iter().collect();
        let s = Side::of(&refs).expect("side");
        assert_eq!(s.median, 1.0);
        assert!((s.q1 - 0.925).abs() < 1e-12 && (s.q3 - 1.075).abs() < 1e-12);
        assert!((s.spread - 0.15).abs() < 1e-12);
        assert_eq!(Side::of(&[]), None);
    }

    #[test]
    fn compare_prints_a_row_per_metric_and_counts_bad_rows() {
        let a = [results([0.99, 1.0, 1.01], 100.0)];
        let (text, bad) = compare(&a, &a);
        assert_eq!(bad, 0, "{text}");
        assert!(text.contains("wall_s") && text.contains("unchanged"));
        assert!(text.contains("desim.events") && text.contains("identical"));
        assert!(text.contains("step.p50_us") && text.contains("ungated"));

        let slower = [results([1.29, 1.3, 1.31], 101.0)];
        let (text, bad) = compare(&a, &slower);
        assert_eq!(bad, 2, "{text}");
        assert!(text.contains("regressed"));
        assert!(text.contains("DIFFERS (exact metric)"));

        // Two files a side: the spread is between the files' medians.
        let pair = [
            results([0.99, 1.0, 1.01], 100.0),
            results([1.0, 1.4, 1.8], 100.0),
        ];
        let (text, bad) = compare(&pair, &pair);
        assert_eq!(bad, 1, "{text}");
        assert!(text.contains("unresolved"));
    }
}
