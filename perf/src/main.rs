//! `perf`: command-line front of the benchmark. `run.sh` builds and calls
//! it; see README.md for what each mode prints and writes.
//!
//! ```text
//! perf --workload W --seed N --seconds S --trace 0|1   one run, contract JSON on the last line
//! perf all [--seed N] [--seconds S] [--smoke] [--out F] every workload, untraced then traced
//! perf check [--seed N]                                  output checks only, smoke-sized
//! perf compare A.json[,A2..] B.json[,B2..]               row per (metric, workload) with verdicts
//! perf catalog                                           print BENCHMARK.json
//! perf child ... | perf micro ...                        internal: the measuring processes
//! ```

use std::process::{Command, ExitCode};

use dtrain_perf::catalog::{self, RUN_SECONDS};
use dtrain_perf::host;
use dtrain_perf::json::J;
use dtrain_perf::micro::{self, Metrics};
use dtrain_perf::report::{breakdown_md, compare, metric_table, workload_json};
use dtrain_perf::runner::{self, contract_line, measure, Options, OUT_DIR};
use dtrain_perf::workloads::Workload;

struct Args(Vec<String>);

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == flag)?;
        self.0.get(i + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for {flag}: {v}")),
        }
    }

    /// `--flag` alone, or `--flag 1`.
    fn on(&self, flag: &str) -> bool {
        match self.value(flag) {
            Some(v) => v != "0",
            None => self.0.iter().any(|a| a == flag),
        }
    }

    fn options(&self) -> Result<Options, String> {
        let name = self.value("--workload").ok_or("missing --workload")?;
        Ok(Options {
            workload: Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?,
            seed: self.parsed("--seed", 11)?,
            seconds: self.parsed("--seconds", RUN_SECONDS as f64)?,
            trace: self.on("--trace"),
            smoke: self.on("--smoke"),
        })
    }
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    let mode = args.0.first().map(String::as_str).unwrap_or("");
    let outcome = match mode {
        "child" => child(&args),
        "micro" => micro_mode(&args),
        "all" => all(&args),
        "check" => check(&args),
        "compare" => compare_mode(&args),
        "catalog" => {
            print!("{}", catalog::benchmark_json().pretty());
            Ok(true)
        }
        _ if args.value("--workload").is_some() => one(&args),
        _ => Err("usage: perf --workload W --seed N --seconds S --trace 0|1 | all | check | compare A B | catalog".into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::from(2)
        }
    }
}

/// The driver's entry: one workload, one run, contract JSON last.
fn one(args: &Args) -> Result<bool, String> {
    let opts = args.options()?;
    runner::worker_exes()?;
    let r = measure(&opts, None);
    print!("{}", metric_table(opts.workload, &r, opts.trace));
    println!("{}", contract_line(&opts, &r).compact());
    // A failed check is reported in the JSON (`correct: false`), not by
    // the exit code: the run itself completed.
    Ok(true)
}

fn child(args: &Args) -> Result<bool, String> {
    let opts = args.options()?;
    let doc = runner::child(
        &opts,
        args.parsed("--index", 0)?,
        args.parsed("--t0-ns", host::epoch_ns())?,
    )?;
    println!("{}", doc.compact());
    Ok(true)
}

fn micro_mode(args: &Args) -> Result<bool, String> {
    let exes = runner::worker_exes()?;
    let m = micro::run_all(args.parsed("--seed", 11)?, &exes);
    println!(
        "{}",
        J::obj(m.into_iter().map(|(k, v)| (k, J::Num(v)))).compact()
    );
    Ok(true)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Every workload, tracing off then on; results, traces and breakdowns
/// under `perf/out/`. Exits nonzero when any check failed.
fn all(args: &Args) -> Result<bool, String> {
    runner::worker_exes()?;
    let seed: u64 = args.parsed("--seed", 11)?;
    let smoke = args.on("--smoke");
    let seconds: f64 = args.parsed("--seconds", if smoke { 1.0 } else { RUN_SECONDS as f64 })?;
    let out_path = args
        .value("--out")
        .map_or_else(|| format!("{OUT_DIR}/results.json"), String::from);
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;

    let calib = runner::micro(seed)?;
    for l in catalog::PER_LAYER
        .iter()
        .filter(|l| calib.contains_key(l.name))
    {
        println!(
            "{:<12} {:<36} {:>16.6} {:<10} ({})",
            "calibration",
            l.name,
            calib[l.name],
            l.unit,
            l.clock.name()
        );
    }
    let mut ok = true;
    let mut sections = Vec::new();
    for w in Workload::ALL {
        let opts = Options {
            workload: w,
            seed,
            seconds,
            trace: false,
            smoke,
        };
        let plain = measure(&opts, None);
        print!("{}", metric_table(w, &plain, false));
        let traced = measure(
            &Options {
                trace: true,
                ..opts
            },
            Some(&calib),
        );
        print!("{}", metric_table(w, &traced, true));
        ok &= plain.correct() && traced.correct();
        let md = breakdown_md(w, &plain, &traced);
        let path = format!("{OUT_DIR}/breakdown_{}.md", w.name());
        std::fs::write(&path, md).map_err(|e| format!("{path}: {e}"))?;
        sections.push((w.name(), workload_json(&plain, &traced, &calib)));
    }
    let doc = J::obj([
        ("schema", J::Int(1)),
        ("claim", J::Null),
        ("seed", J::Int(seed as i64)),
        ("smoke", J::Bool(smoke)),
        ("run_seconds", J::Num(seconds)),
        (
            "host",
            J::obj([
                ("parallelism", J::Int(host::parallelism() as i64)),
                ("cpu_model", J::str(host::cpu_model())),
                ("rustc", J::str(command_line("rustc", &["-V"]))),
                (
                    "commit",
                    J::str(command_line("git", &["rev-parse", "HEAD"])),
                ),
                (
                    "simd_tier",
                    J::str(dtrain_tensor::simd::active_isa().name()),
                ),
                ("os", J::str(std::env::consts::OS)),
            ]),
        ),
        ("calibration", calibration_json(&calib)),
        ("workloads", J::obj(sections)),
    ]);
    std::fs::write(&out_path, doc.pretty()).map_err(|e| format!("{out_path}: {e}"))?;
    println!("results: {out_path}; traces and breakdowns: {OUT_DIR}/");
    println!(
        "{}",
        if ok {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        }
    );
    Ok(ok)
}

fn calibration_json(calib: &Metrics) -> J {
    J::obj(catalog::PER_LAYER.iter().filter_map(|l| {
        let v = *calib.get(l.name)?;
        Some((
            l.name,
            J::obj([
                ("unit", J::str(l.unit)),
                ("clock", J::str(l.clock.name())),
                ("value", J::Num(v)),
                ("moves", J::str(l.moves)),
            ]),
        ))
    }))
}

/// The output checks alone: every workload once at smoke size, traced
/// (which also exercises the untraced path, the two alternate).
fn check(args: &Args) -> Result<bool, String> {
    runner::worker_exes()?;
    let seed: u64 = args.parsed("--seed", 11)?;
    let none = Metrics::new();
    let mut ok = true;
    for w in Workload::ALL {
        let opts = Options {
            workload: w,
            seed,
            seconds: 1.0,
            trace: true,
            smoke: true,
        };
        let r = measure(&opts, Some(&none));
        println!(
            "{:<12} {} (attempted {}, failed {}{})",
            w.name(),
            if r.correct() { "ok" } else { "FAILED" },
            r.attempted,
            r.failed,
            r.digest
                .as_ref()
                .map_or(String::new(), |d| format!(", digest {d}")),
        );
        for f in &r.failures {
            println!("{:<12} CHECK FAILED: {f}", w.name());
        }
        ok &= r.correct();
    }
    Ok(ok)
}

fn compare_mode(args: &Args) -> Result<bool, String> {
    let [_, a, b] = args.0.as_slice() else {
        return Err("usage: perf compare A.json[,A2.json,...] B.json[,B2.json,...]".into());
    };
    let load = |list: &String| -> Result<Vec<serde_json::Value>, String> {
        list.split(',')
            .map(|p| {
                let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
                serde_json::from_str(&text).map_err(|e| format!("{p}: {e:?}"))
            })
            .collect()
    };
    let (text, bad) = compare(&load(a)?, &load(b)?);
    print!("{text}");
    println!("{bad} row(s) regressed, unresolved or not identical");
    Ok(bad == 0)
}
