//! `dtrain-study <name>...|all`: run the named studies in order, print their
//! tables and write their artifacts under the current directory (run it
//! from the repository root). Exits 2 on an empty or unknown name, listing
//! the registered ones, and 1 if a study's self-check diverged.

use dtrain_bench::{emit, select, STUDIES};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let studies = select(&args).unwrap_or_else(|e| {
        let names: Vec<_> = STUDIES.iter().map(|s| s.name).collect();
        eprintln!(
            "{e}\nusage: dtrain-study <name>...|all\nstudies: {}",
            names.join(" ")
        );
        std::process::exit(2);
    });
    let mut diverged = false;
    for study in studies {
        println!("=== {} ===", study.name);
        for d in emit(study.name, &(study.run)()) {
            eprintln!("{}: self-check diverged: {d}", study.name);
            diverged = true;
        }
    }
    if diverged {
        std::process::exit(1);
    }
}
