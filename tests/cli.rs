//! End-to-end tests of the shared command-line policy in the root
//! binaries: a mistyped, repeated or stray argument exits with status 2
//! and names itself before anything is simulated.

use std::path::PathBuf;
use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .env_remove("T3D_PAR")
        .env_remove("T3D_SAN")
        .output()
        .expect("binary runs")
}

/// Asserts a usage error: exit status 2 with `culprit` on stderr.
fn assert_usage_error(out: &Output, culprit: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains(culprit), "{stderr}");
}

/// A fresh, empty scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn a_mistyped_perf_gate_fails_instead_of_skipping_the_compare() {
    let dir = scratch("cli-perf-compre");
    let d = dir.to_str().unwrap();
    let out = run(
        env!("CARGO_BIN_EXE_t3d-perf"),
        &[
            "micro",
            "--filter",
            "local.read.stream",
            "--compre",
            d,
            "--out",
            d,
        ],
    );
    assert_usage_error(&out, "unknown flag \"--compre\"");
    assert!(!dir.join("BENCH_micro.json").exists());
}

#[test]
fn a_repeated_perf_tolerance_is_rejected() {
    let dir = scratch("cli-perf-tol");
    let d = dir.to_str().unwrap();
    let out = run(
        env!("CARGO_BIN_EXE_t3d-perf"),
        &[
            "micro",
            "--filter",
            "local.read.stream",
            "--out",
            d,
            "--tol",
            "0",
            "--tol",
            "abc",
        ],
    );
    assert_usage_error(&out, "--tol is given more than once");
    assert!(!dir.join("BENCH_micro.json").exists());
}

#[test]
fn a_stray_lint_argument_is_rejected() {
    let out = run(env!("CARGO_BIN_EXE_t3d-lint"), &["seed", "1", "1", "extra"]);
    assert_usage_error(&out, "unexpected argument \"extra\"");
}

#[test]
fn an_unknown_sched_flag_is_rejected() {
    let out = run(env!("CARGO_BIN_EXE_t3d-sched"), &["gen", "--jobz", "3"]);
    assert_usage_error(&out, "--jobz");
}
