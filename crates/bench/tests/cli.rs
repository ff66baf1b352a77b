//! The runner's input: only registered study names (or `all`) run.

use std::process::Command;

use dtrain_bench::STUDIES;

fn study(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dtrain-study"))
        .args(args)
        .output()
        .expect("start dtrain-study");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn no_name_or_an_unknown_one_exits_2_and_lists_every_study() {
    for args in [&[][..], &["nope"], &["table1_summary", "--csv", "results"]] {
        let (code, stderr) = study(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        for s in STUDIES {
            assert!(stderr.contains(s.name), "{args:?} does not list {}", s.name);
        }
    }
}
