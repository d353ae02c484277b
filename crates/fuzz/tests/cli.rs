//! End-to-end tests of the `t3d-fuzz` command line.

use std::process::Command;

#[test]
fn a_repeated_flag_exits_with_usage_status() {
    let out = Command::new(env!("CARGO_BIN_EXE_t3d-fuzz"))
        .args(["--cases", "2", "--cases", "1"])
        .output()
        .expect("binary runs");
    let s = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{s}");
    assert!(s.contains("--cases is given more than once"), "{s}");
}
