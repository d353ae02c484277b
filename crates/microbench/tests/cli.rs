//! End-to-end tests of the `t3d-bench` report binary.

use std::process::Command;

fn bench_cmd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_t3d-bench"))
}

#[test]
fn tab_prefetch_prints_the_breakdown() {
    let out = bench_cmd()
        .arg("tab-prefetch")
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("prefetch issue"));
    assert!(s.contains("round trip"));
}

#[test]
fn tab_sync_prints_paper_columns() {
    let out = bench_cmd().arg("tab-sync").output().expect("binary runs");
    assert!(out.status.success());
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("annex register update"));
    assert!(s.contains("25 us"));
}

#[test]
fn fast_fig6_runs() {
    let out = bench_cmd()
        .args(["fig6", "--fast"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("raw prefetch"));
    assert!(s.contains("Split-C get"));
}

#[test]
fn unknown_command_exits_nonzero() {
    let out = bench_cmd().arg("fig99").output().expect("binary runs");
    assert!(!out.status.success());
    let s = String::from_utf8_lossy(&out.stderr);
    assert!(s.contains("unknown command"));
}

#[test]
fn out_dir_receives_reports() {
    let dir = std::env::temp_dir().join(format!("t3d-bench-test-{}", std::process::id()));
    let out = bench_cmd()
        .args(["tab-prefetch", "--out", dir.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let report = std::fs::read_to_string(dir.join("tab-prefetch.txt")).expect("report written");
    assert!(report.contains("prefetch pop"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_mistyped_flag_or_stray_argument_exits_with_usage_status() {
    for (args, culprit) in [
        (["fig6", "--fats"], "unknown flag \"--fats\""),
        (["fig6", "junk"], "unexpected argument \"junk\""),
    ] {
        let out = bench_cmd().args(args).output().expect("binary runs");
        let s = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{s}");
        assert!(s.contains(culprit), "{s}");
    }
}
