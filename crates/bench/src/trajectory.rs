//! The committed trajectory files of the three virtual-time studies:
//! `BENCH_008.json` (`fig4_collective`), `BENCH_009.json` (`sched_study`)
//! and `BENCH_010.json` (`chaos_study`).
//!
//! Every value in them is a *simulator output* — simulated milliseconds or
//! a ratio of them — not a timing of this code; wall-clock is `perf/`'s
//! job. The simulator is bit-deterministic, so the gate is the one the
//! `results/**/*.csv` have: `dtrain-study` rewrites the file in place and CI
//! runs `git diff --exit-code` on it. Any difference at all — a moved value,
//! a missing or extra record — is a change to the model and fails; an
//! intended one is re-blessed by committing the regenerated file.

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

/// A study's trajectory document.
pub struct Trajectory {
    /// Emitted verbatim as top-level `"key": value` pairs, so values must
    /// already be valid JSON.
    pub meta: Vec<(&'static str, String)>,
    pub records: Vec<TrajRecord>,
    /// The study's failed self-checks (empty in a committed file).
    pub divergences: Vec<String>,
}

impl Trajectory {
    /// Render the document of the study named `study`.
    pub fn render(&self, study: &str) -> String {
        let mut json = format!("{{\n  \"study\": \"{study}\",\n  \"clock\": \"virtual\",\n");
        for (k, v) in &self.meta {
            json.push_str(&format!("  \"{k}\": {v},\n"));
        }
        let records = self.records.iter().map(|r| {
            format!(
                "{{\"name\": \"{}\", \"machines\": {}, \"value\": {:.6}, \"unit\": \"{}\"}}",
                json_escape(&r.name),
                r.machines,
                r.value,
                r.unit
            )
        });
        let divergences = self
            .divergences
            .iter()
            .map(|d| format!("\"{}\"", json_escape(d)));
        json.push_str(&format!("  \"records\": [\n{}  ],\n", list(records)));
        json.push_str(&format!(
            "  \"divergences\": [\n{}  ]\n}}\n",
            list(divergences)
        ));
        json
    }
}

/// One item a line, indented, comma-separated.
fn list(items: impl Iterator<Item = String>) -> String {
    let lines: Vec<String> = items.map(|i| format!("    {i}")).collect();
    if lines.is_empty() {
        String::new()
    } else {
        lines.join(",\n") + "\n"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_document_parses_back_with_every_field() {
        let records = vec![
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
        let text = Trajectory {
            meta: vec![("seed", "7".into())],
            records,
            divergences: vec!["x \\ y".to_string()],
        }
        .render("demo");
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
}
