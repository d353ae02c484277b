//! End-to-end tests of the `em3d` binary's input policy: a malformed
//! environment knob or flag value stops the run and names itself.

use std::process::{Command, Output};

/// A tiny run where the seed changes the table (20% remote edges).
const TINY: [&str; 8] = [
    "--pes",
    "2",
    "--nodes",
    "10",
    "--remote",
    "20",
    "--versions",
    "Simple",
];

/// Runs `em3d` with `args`, the two knobs cleared and then `env` set.
fn em3d(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_em3d"));
    cmd.args(args).env_remove("T3D_PAR").env_remove("T3D_SAN");
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn a_malformed_t3d_par_stops_the_run() {
    let out = em3d(&TINY, &[("T3D_PAR", "abc")]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("T3D_PAR=\"abc\""), "{}", stderr(&out));
}

#[test]
fn a_malformed_t3d_san_stops_the_run() {
    let out = em3d(&TINY, &[("T3D_SAN", "yes")]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("T3D_SAN=\"yes\""), "{}", stderr(&out));
}

#[test]
fn a_malformed_flag_value_exits_with_usage_status() {
    let out = em3d(&["--pes", "abc"], &[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--pes \"abc\""), "{}", stderr(&out));
    let out = em3d(&["--seed", "0xzz"], &[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--seed"), "{}", stderr(&out));
}

#[test]
fn a_hex_seed_means_the_same_number_as_decimal() {
    let run = |seed: Option<&str>| {
        let mut args = TINY.to_vec();
        if let Some(s) = seed {
            args.extend(["--seed", s]);
        }
        let out = em3d(&args, &[]);
        assert!(out.status.success(), "{}", stderr(&out));
        out.stdout
    };
    assert_eq!(run(Some("0x10")), run(Some("16")));
    let hex = run(Some("0xff"));
    assert_eq!(hex, run(Some("255")));
    // The seed is not silently replaced by the default (0xE3D, whose
    // table happens to match seed 16's on this tiny run).
    assert_ne!(hex, run(None));
}

#[test]
fn a_repeated_flag_exits_with_usage_status() {
    let mut args = TINY.to_vec();
    args.extend(["--pes", "abc"]);
    let out = em3d(&args, &[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("--pes is given more than once"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn an_unknown_flag_exits_with_usage_status() {
    let out = em3d(&["--pe", "4"], &[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("unknown flag \"--pe\""),
        "{}",
        stderr(&out)
    );
}

#[test]
fn stats_and_help_still_work() {
    let mut args = TINY.to_vec();
    args.push("--stats");
    let out = em3d(&args, &[]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(String::from_utf8_lossy(&out.stdout).contains("remote ops"));
    for help in ["--help", "-h"] {
        let out = em3d(&[help], &[]);
        assert!(out.status.success(), "{}", stderr(&out));
        assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: em3d"));
    }
}
