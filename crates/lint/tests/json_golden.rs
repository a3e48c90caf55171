//! Pin of `hic-lint --scale test --json`: every recorded inter-block app
//! under Base, Addr and Addr+L, with each report's checks, tracked
//! words, coverage counters and the optimizer's statistics. A change to
//! the lowering, the abstract memory or the optimizer that moves any
//! count shows up here as a byte diff.
//!
//! CI's `lint-suite` job diffs the CLI's stdout against the same file.
//! Re-pin only with a change that says why the document moves: copy the
//! document this test prints over `golden/scale_test.json`.

use std::process::Command;

const GOLDEN: &str = include_str!("golden/scale_test.json");

#[test]
fn scale_test_json_matches_the_golden() {
    let out = Command::new(env!("CARGO_BIN_EXE_hic-lint"))
        .args(["--scale", "test", "--json"])
        .output()
        .expect("hic-lint starts");
    assert!(out.status.success(), "hic-lint exited {}", out.status);
    let got = String::from_utf8(out.stdout).expect("hic-lint prints UTF-8");
    assert!(
        got == GOLDEN,
        "hic-lint --json drifted from golden/scale_test.json; got:\n{got}"
    );
}
