//! The perf gates' tolerance flags reject values that would switch the
//! gate off: with a NaN or infinite tolerance no `ratio > 1 + tolerance`
//! comparison is ever true, so `repro` must refuse NaN, infinities and
//! negative values with the usage error (exit 2) instead of passing a
//! regressed snapshot.

use std::path::PathBuf;
use std::process::{Command, Output};

const BAD_VALUES: [&str; 4] = ["NaN", "nan", "inf", "-1"];

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro")
}

/// A baseline snapshot and a copy with every timing ×10.
fn regressed_pair() -> (PathBuf, PathBuf) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("tolerance_flags");
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    let old = dir.join("old.json");
    let new = dir.join("new.json");
    std::fs::write(
        &old,
        r#"{"experiments": [{"experiment": "fig9", "seconds": 10.0}], "total_seconds": 10.0}"#,
    )
    .unwrap();
    std::fs::write(
        &new,
        r#"{"experiments": [{"experiment": "fig9", "seconds": 100.0}], "total_seconds": 100.0}"#,
    )
    .unwrap();
    (old, new)
}

fn assert_usage_error(out: &Output, what: &str) {
    assert_eq!(
        out.status.code(),
        Some(2),
        "{what} must be a usage error:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("finite number"), "{what}: {stderr}");
}

#[test]
fn perfdiff_rejects_non_finite_and_negative_tolerances() {
    let (old, new) = regressed_pair();
    let (old, new) = (old.to_str().unwrap(), new.to_str().unwrap());
    // Control: a finite tolerance fails the ×10 regression.
    let out = repro(&["perfdiff", old, new, "--tolerance", "0.5"]);
    assert_eq!(out.status.code(), Some(1), "×10 regression must fail");
    for bad in BAD_VALUES {
        let out = repro(&["perfdiff", old, new, "--tolerance", bad]);
        assert_usage_error(&out, &format!("--tolerance {bad}"));
    }
}

#[test]
fn selftime_rejects_non_finite_and_negative_tolerances() {
    // `list` exits at once, so a value that slipped through would show up
    // as exit 0 rather than starting a selftime run.
    for bad in BAD_VALUES {
        let out = repro(&["--selftime-tolerance", bad, "list"]);
        assert_usage_error(&out, &format!("--selftime-tolerance {bad}"));
    }
    let out = repro(&["--selftime-tolerance", "0.5", "list"]);
    assert!(out.status.success(), "a finite tolerance is accepted");
}
