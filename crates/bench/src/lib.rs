//! Shared helpers for the harness binaries.
//!
//! Each binary regenerates one table or figure of the paper (see
//! `DESIGN.md` §3 for the index) at one scale — the one whose CSVs are
//! committed under `results/` — and accepts `--csv DIR`: also write each
//! printed table as CSV under `DIR`.

use std::path::PathBuf;

use dtrain_core::report::Table;

pub mod trajectory;

/// Parsed common CLI options.
#[derive(Clone, Debug, Default)]
pub struct HarnessOpts {
    pub csv_dir: Option<PathBuf>,
}

impl HarnessOpts {
    /// Parse from the process arguments.
    pub fn from_env() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::from_args(&args)
    }

    /// Parse an explicit argument list (binaries with extra flags strip
    /// them first and pass the remainder here).
    pub fn from_args(args: &[String]) -> Self {
        let mut opts = HarnessOpts::default();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--csv" => {
                    i += 1;
                    match args.get(i) {
                        Some(dir) => opts.csv_dir = Some(PathBuf::from(dir)),
                        None => {
                            eprintln!("--csv requires a directory argument");
                            std::process::exit(2);
                        }
                    }
                }
                "--help" | "-h" => {
                    eprintln!("usage: [--csv DIR]");
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown argument: {other}");
                    std::process::exit(2);
                }
            }
            i += 1;
        }
        opts
    }

    /// Print the table and optionally persist it as CSV.
    pub fn emit(&self, table: &Table, file_stem: &str) {
        println!("{}", table.render());
        if let Some(dir) = &self.csv_dir {
            let path = dir.join(format!("{file_stem}.csv"));
            match table.write_csv(&path) {
                Ok(()) => eprintln!("wrote {}", path.display()),
                Err(e) => eprintln!("failed to write {}: {e}", path.display()),
            }
        }
    }
}
