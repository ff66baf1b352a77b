//! The study runner behind `dtrain-study`.
//!
//! A [`Study`] is a registry entry: a name, plus a function that returns
//! its [`Artifact`]s. Each table and figure of the paper (see `DESIGN.md`
//! §3 for the index) and each extension study is one entry, at one scale —
//! the one whose files are committed. Every table and trajectory lands at a
//! fixed path relative to the repository root, so run the runner from
//! there: `dtrain-study <name>...` or `dtrain-study all`. The committed
//! files are exactly its output, and CI regenerates them all and fails on
//! any difference, missing file or uncommitted one.

use dtrain_core::report::Table;

pub mod trajectory;

mod studies {
    pub mod ablations;
    pub mod chaos_study;
    pub mod fault_study;
    pub mod fig1_convergence;
    pub mod fig2_scalability;
    pub mod fig3_breakdown;
    pub mod fig4_optimizations;
    pub mod sched_study;
    pub mod straggler_study;
    pub mod table1_summary;
    pub mod table2_accuracy;
    pub mod table3_sensitivity;
    pub mod table4_dgc_accuracy;
}

use studies::*;
use trajectory::Trajectory;

/// One output of a study; every path is relative to the repository root.
pub enum Artifact {
    /// Printed, and written as CSV at the path.
    Table(String, Table),
    /// A BENCH trajectory written at the path; its divergences fail the run.
    Trajectory(&'static str, Trajectory),
    /// A file that is written but not committed (a timeline trace).
    Trace(String, String),
    /// Printed only.
    Note(String),
}

impl Artifact {
    pub fn csv(path: impl Into<String>, table: Table) -> Self {
        Artifact::Table(path.into(), table)
    }
}

/// A registry entry.
pub struct Study {
    pub name: &'static str,
    pub run: fn() -> Vec<Artifact>,
}

impl Study {
    const fn new(name: &'static str, run: fn() -> Vec<Artifact>) -> Self {
        Study { name, run }
    }
}

/// Every study, in the order `all` runs them.
pub const STUDIES: &[Study] = &[
    Study::new("table1_summary", table1_summary::artifacts),
    Study::new("table2_accuracy", table2_accuracy::artifacts),
    Study::new("fig1_convergence", fig1_convergence::artifacts),
    Study::new("table3_sensitivity", table3_sensitivity::artifacts),
    Study::new("fig2_scalability", fig2_scalability::artifacts),
    Study::new("fig3_breakdown", fig3_breakdown::artifacts),
    Study::new("fig4_optimizations", fig4_optimizations::cumulative),
    Study::new("fig4_collective", fig4_optimizations::collective),
    Study::new("table4_dgc_accuracy", table4_dgc_accuracy::artifacts),
    Study::new("ablations", ablations::artifacts),
    Study::new("straggler_study", straggler_study::artifacts),
    Study::new("fault_study", fault_study::artifacts),
    Study::new("fault_elastic", fault_study::elastic),
    Study::new("sched_study", sched_study::artifacts),
    Study::new("chaos_study", chaos_study::artifacts),
];

/// The studies that `args` name, in argument order (`all` is every study).
/// An empty list or an unknown name is an error that says which.
pub fn select(args: &[String]) -> Result<Vec<&'static Study>, String> {
    if args.is_empty() {
        return Err("no study named".into());
    }
    let mut picked = Vec::new();
    for arg in args {
        if arg == "all" {
            picked.extend(STUDIES);
        } else {
            let study = STUDIES.iter().find(|s| s.name == arg);
            picked.push(study.ok_or_else(|| format!("unknown study: {arg}"))?);
        }
    }
    Ok(picked)
}

/// Print and write the artifacts of study `name` in order; returns the
/// divergences its trajectories carry.
pub fn emit(name: &str, artifacts: &[Artifact]) -> Vec<String> {
    let mut divergences = Vec::new();
    for artifact in artifacts {
        match artifact {
            Artifact::Table(path, table) => {
                println!("{}", table.render());
                write(path, &table.to_csv());
            }
            Artifact::Trajectory(path, traj) => {
                write(path, &traj.render(name));
                divergences.extend(traj.divergences.iter().cloned());
            }
            Artifact::Trace(path, text) => write(path, text),
            Artifact::Note(text) => println!("{text}"),
        }
    }
    divergences
}

/// Write `text` at `path`, creating its directory.
fn write(path: &str, text: &str) {
    let path = std::path::Path::new(path);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    }
    std::fs::write(path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    eprintln!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_none_is_all() {
        let mut names: Vec<_> = STUDIES.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), STUDIES.len(), "a name is registered twice");
        assert!(!names.contains(&"all"));
    }

    #[test]
    fn select_keeps_argument_order_and_expands_all() {
        let picked = select(&["chaos_study".into(), "all".into()]).unwrap();
        assert_eq!(picked[0].name, "chaos_study");
        assert_eq!(picked.len(), 1 + STUDIES.len());
    }
}
