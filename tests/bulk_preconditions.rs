//! Negative tests pinning the bulk-transfer precondition asserts: the
//! exact panic messages are part of the API surface (users debug
//! against them), so a reworded or relocated assert fails here.

use splitc::{GlobalPtr, SplitC};
use t3d_machine::{Cpu, Machine, MachineConfig};
use t3d_shell::blt::BltDirection;

fn runtime() -> (SplitC, u64) {
    let mut sc = SplitC::new(MachineConfig::t3d(2));
    let base = sc.alloc(64 * 8, 8);
    (sc, base)
}

#[test]
#[should_panic(expected = "bulk transfers move whole words")]
fn bulk_read_rejects_zero_length() {
    let (mut sc, base) = runtime();
    sc.on(0, |ctx| ctx.bulk_read(base, GlobalPtr::new(1, base), 0));
}

#[test]
#[should_panic(expected = "bulk transfers move whole words")]
fn bulk_read_rejects_misaligned_length() {
    let (mut sc, base) = runtime();
    sc.on(0, |ctx| ctx.bulk_read(base, GlobalPtr::new(1, base), 12));
}

#[test]
#[should_panic(expected = "bulk transfers move whole words")]
fn bulk_write_rejects_misaligned_length() {
    let (mut sc, base) = runtime();
    sc.on(0, |ctx| ctx.bulk_write(GlobalPtr::new(1, base), base, 7));
}

#[test]
#[should_panic(expected = "bulk transfers move whole words")]
fn bulk_get_rejects_zero_length() {
    let (mut sc, base) = runtime();
    sc.on(0, |ctx| ctx.bulk_get(base, GlobalPtr::new(1, base), 0));
}

#[test]
#[should_panic(expected = "bulk transfers move whole words")]
fn bulk_put_rejects_misaligned_length() {
    let (mut sc, base) = runtime();
    sc.on(0, |ctx| ctx.bulk_put(GlobalPtr::new(1, base), base, 4));
}

#[test]
#[should_panic(expected = "elements are whole words")]
fn strided_read_rejects_misaligned_elements() {
    let (mut sc, base) = runtime();
    sc.on(0, |ctx| {
        ctx.bulk_read_strided(base, GlobalPtr::new(1, base), 2, 12, 16)
    });
}

#[test]
#[should_panic(expected = "strided read must move data")]
fn strided_read_rejects_zero_count() {
    let (mut sc, base) = runtime();
    sc.on(0, |ctx| {
        ctx.bulk_read_strided(base, GlobalPtr::new(1, base), 0, 8, 16)
    });
}

#[test]
#[should_panic(expected = "strided write must move data")]
fn strided_write_rejects_zero_count() {
    let (mut sc, base) = runtime();
    sc.on(0, |ctx| {
        ctx.bulk_write_strided(GlobalPtr::new(1, base), base, 0, 8, 16)
    });
}

#[test]
#[should_panic(expected = "stride must not overlap elements")]
fn strided_read_rejects_zero_stride() {
    let (mut sc, base) = runtime();
    sc.on(0, |ctx| {
        ctx.bulk_read_strided(base, GlobalPtr::new(1, base), 2, 8, 0)
    });
}

#[test]
#[should_panic(expected = "stride must not overlap elements")]
fn strided_write_rejects_overlapping_windows() {
    let (mut sc, base) = runtime();
    sc.on(0, |ctx| {
        ctx.bulk_write_strided(GlobalPtr::new(1, base), base, 4, 16, 8)
    });
}

/// The machine-level BLT guards the same precondition independently of
/// the Split-C wrappers.
#[test]
#[should_panic(expected = "stride must not overlap elements")]
fn machine_strided_blt_rejects_overlapping_windows() {
    let mut m = Machine::new(MachineConfig::t3d(2));
    Cpu::new(&mut m, 0).blt_start_strided(BltDirection::Read, 0, 1, 0, 4, 16, 8);
}

#[test]
#[should_panic(expected = "strided BLT must move data")]
fn machine_strided_blt_rejects_zero_count() {
    let mut m = Machine::new(MachineConfig::t3d(2));
    Cpu::new(&mut m, 0).blt_start_strided(BltDirection::Read, 0, 1, 0, 0, 8, 8);
}
