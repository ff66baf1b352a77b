//! The committed trajectory files of the three virtual-time studies:
//! `BENCH_008.json` (`fig4_optimizations --collective`), `BENCH_009.json`
//! (`sched_study`) and `BENCH_010.json` (`chaos_study`).
//!
//! Every value in them is a *simulator output* — simulated milliseconds or
//! a ratio of them — not a timing of this code; wall-clock is `perf/`'s
//! job. The simulator is bit-deterministic, so the gate is the one the
//! `results/*.csv` have: a study rewrites its file in place and CI runs
//! `git diff --exit-code` on it. Any difference at all — a moved value, a
//! missing or extra record — is a change to the model and fails; an
//! intended one is re-blessed by committing the regenerated file.

use crate::HarnessOpts;

/// One model output of a study.
pub struct TrajRecord {
    pub name: String,
    /// Machines in the simulated cluster the value was taken on.
    pub machines: usize,
    pub value: f64,
    pub unit: &'static str,
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Render the trajectory document. `meta` entries are emitted verbatim as
/// top-level `"key": value` pairs, so values must already be valid JSON.
/// `divergences` are the study's failed self-checks (empty in a committed
/// file).
fn render_trajectory(
    study: &str,
    meta: &[(&str, String)],
    records: &[TrajRecord],
    divergences: &[String],
) -> String {
    let mut json = format!("{{\n  \"study\": \"{study}\",\n  \"clock\": \"virtual\",\n");
    for (k, v) in meta {
        json.push_str(&format!("  \"{k}\": {v},\n"));
    }
    json.push_str("  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"machines\": {}, \"value\": {:.6}, \"unit\": \"{}\"}}{}\n",
            json_escape(&r.name),
            r.machines,
            r.value,
            r.unit,
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"divergences\": [\n");
    for (i, d) in divergences.iter().enumerate() {
        json.push_str(&format!(
            "    \"{}\"{}\n",
            json_escape(d),
            if i + 1 < divergences.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    json
}

/// Take `--out PATH` off a study's argument list; `default` is the
/// committed file.
fn take_out_path(args: &mut Vec<String>, default: &str) -> String {
    let Some(i) = args.iter().position(|a| a == "--out") else {
        return default.to_string();
    };
    if i + 1 >= args.len() {
        eprintln!("--out requires a path argument");
        std::process::exit(2);
    }
    let path = args.remove(i + 1);
    args.remove(i);
    path
}

/// The head of every study's `main`: `--out PATH` (default: the committed
/// file the study rewrites) plus the common harness options.
pub fn study_args(mut args: Vec<String>, default_out: &str) -> (HarnessOpts, String) {
    let out = take_out_path(&mut args, default_out);
    (HarnessOpts::from_args(&args), out)
}

/// The tail of every study's `main`: write the trajectory to `out`
/// (creating parent directories), then exit nonzero if a self-check
/// diverged.
pub fn finish_study(
    study: &str,
    out: &str,
    meta: &[(&str, String)],
    records: &[TrajRecord],
    divergences: &[String],
) {
    if let Some(dir) = std::path::Path::new(out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(out, render_trajectory(study, meta, records, divergences))
        .expect("write trajectory");
    println!("wrote {out} ({} records)", records.len());
    if !divergences.is_empty() {
        eprintln!("{study}: self-check diverged:");
        for d in divergences {
            eprintln!("  {d}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_document_parses_back_with_every_field() {
        let records = [
            TrajRecord {
                name: "a_ms".into(),
                machines: 4,
                value: 1.25,
                unit: "ms",
            },
            TrajRecord {
                name: "b \"quoted\"".into(),
                machines: 12,
                value: 85.5,
                unit: "%",
            },
        ];
        let text = render_trajectory(
            "demo",
            &[("seed", "7".into())],
            &records,
            &["x \\ y".to_string()],
        );
        let doc = serde_json::from_str(&text).expect("valid JSON");
        let str_at = |key| doc.get_key(key).and_then(|v| v.as_str());
        assert_eq!(str_at("study"), Some("demo"));
        assert_eq!(str_at("clock"), Some("virtual"));
        assert_eq!(doc.get_key("seed").and_then(|v| v.as_u64()), Some(7));
        let recs = doc.get_key("records").and_then(|r| r.as_array()).unwrap();
        assert_eq!(recs.len(), 2);
        let b = &recs[1];
        assert_eq!(
            b.get_key("name").and_then(|v| v.as_str()),
            Some("b \"quoted\"")
        );
        assert_eq!(b.get_key("machines").and_then(|v| v.as_u64()), Some(12));
        assert_eq!(b.get_key("value").and_then(|v| v.as_f64()), Some(85.5));
        assert_eq!(b.get_key("unit").and_then(|v| v.as_str()), Some("%"));
        let div = doc.get_key("divergences").and_then(|d| d.as_array());
        assert_eq!(div.unwrap()[0].as_str(), Some("x \\ y"));
    }

    #[test]
    fn out_flag_is_taken_wherever_it_sits() {
        let mut args: Vec<String> = ["--csv", "d", "--out", "f.json", "--elastic"]
            .map(String::from)
            .to_vec();
        assert_eq!(take_out_path(&mut args, "BENCH.json"), "f.json");
        assert_eq!(args, ["--csv", "d", "--elastic"]);
        assert_eq!(take_out_path(&mut args, "BENCH.json"), "BENCH.json");
        assert_eq!(args, ["--csv", "d", "--elastic"]);
    }
}
