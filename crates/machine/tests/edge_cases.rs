//! Edge-case and misuse tests for the machine layer: the places where a
//! compiler writer gets bitten.

use std::sync::atomic::{AtomicUsize, Ordering};
use t3d_machine::{Cpu, Machine, MachineConfig, OpKind, OpStats, PerfMode, PhaseDriver};
use t3d_shell::blt::BltDirection;
use t3d_shell::FuncCode;

fn machine(n: u32) -> Machine {
    Machine::new(MachineConfig::t3d(n))
}

#[test]
fn sub_word_remote_loads_work_within_a_line() {
    let mut m = machine(2);
    m.poke8(1, 0x100, 0x0807_0605_0403_0201);
    let mut cpu = Cpu::new(&mut m, 0);
    cpu.annex_set(1, 1, FuncCode::Uncached);
    let mut b4 = [0u8; 4];
    cpu.ld(cpu.va(1, 0x100), &mut b4);
    assert_eq!(u32::from_le_bytes(b4), 0x0403_0201);
    let mut b2 = [0u8; 2];
    cpu.ld(cpu.va(1, 0x104), &mut b2);
    assert_eq!(u16::from_le_bytes(b2), 0x0605);
}

#[test]
#[should_panic(expected = "must not cross a cache line")]
fn remote_load_across_a_line_panics() {
    let mut m = machine(2);
    let mut cpu = Cpu::new(&mut m, 0);
    cpu.annex_set(1, 1, FuncCode::Uncached);
    let mut buf = [0u8; 8];
    cpu.ld(cpu.va(1, 28), &mut buf);
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "not a load flavour")]
fn loading_through_a_swap_entry_panics_in_debug() {
    let mut m = machine(2);
    let mut cpu = Cpu::new(&mut m, 0);
    cpu.annex_set(1, 1, FuncCode::Swap);
    let _ = cpu.ld8(cpu.va(1, 0x100));
}

#[test]
#[cfg(not(debug_assertions))]
fn loading_through_a_swap_entry_reads_uncached_in_release() {
    // Defined behavior for the misuse: the access is performed as an
    // Uncached read (debug builds catch it with a debug_assert).
    let mut m = machine(2);
    m.poke8(1, 0x100, 31);
    let mut cpu = Cpu::new(&mut m, 0);
    cpu.annex_set(1, 1, FuncCode::Swap);
    assert_eq!(cpu.ld8(cpu.va(1, 0x100)), 31);
}

#[test]
#[should_panic(expected = "does not exist")]
fn annex_to_nonexistent_pe_panics() {
    let mut m = machine(2);
    Cpu::new(&mut m, 0).annex_set(1, 9, FuncCode::Uncached);
}

#[test]
fn multi_line_local_reads_cross_lines_fine() {
    let mut m = machine(1);
    for i in 0..16u64 {
        m.poke8(0, 0x200 + i * 8, i);
    }
    let mut buf = [0u8; 64];
    Cpu::new(&mut m, 0).ld(0x208, &mut buf); // crosses two line boundaries
    for (w, chunk) in buf.chunks(8).enumerate() {
        assert_eq!(u64::from_le_bytes(chunk.try_into().unwrap()), w as u64 + 1);
    }
}

#[test]
fn sub_word_stores_merge_into_the_word() {
    let mut m = machine(1);
    let mut cpu = Cpu::new(&mut m, 0);
    cpu.st8(0x300, 0);
    cpu.st(0x302, &[0xAB, 0xCD]);
    cpu.memory_barrier();
    assert_eq!(cpu.ld8(0x300), 0x0000_0000_CDAB_0000);
}

#[test]
fn va_split_roundtrip() {
    let m = machine(2);
    for idx in [0usize, 1, 17, 31] {
        for off in [0u64, 8, 0x7FF_FFF8] {
            let va = m.va(idx, off);
            assert_eq!(t3d_shell::annex::split_pa(va, m.offset_bits()), (idx, off));
        }
    }
}

#[test]
fn blt_zero_handle_waits_are_idempotent() {
    let mut m = machine(2);
    let mut cpu = Cpu::new(&mut m, 0);
    let h = cpu.blt_start(BltDirection::Read, 0x1000, 1, 0x2000, 64);
    cpu.blt_wait(h);
    let t = cpu.clock();
    cpu.blt_wait(h); // second wait is free
    assert_eq!(cpu.clock(), t);
}

#[test]
fn sharded_phase_on_a_single_node_machine() {
    let mut m = machine(1);
    let count = AtomicUsize::new(0);
    m.sharded_phase(PhaseDriver::from_env(), |cpu| {
        cpu.st8(0x10, 5);
        count.fetch_add(1, Ordering::Relaxed);
    });
    m.barrier_all();
    assert_eq!(count.into_inner(), 1);
    assert_eq!(m.peek8(0, 0x10), 5);
}

#[test]
fn cpu_handle_exposes_clock_in_ns() {
    let mut m = machine(1);
    let mut cpu = Cpu::new(&mut m, 0);
    cpu.advance(150);
    assert!((cpu.clock_ns() - 1000.0).abs() < 1.0, "150 cycles = 1 us");
}

#[test]
fn self_targeting_annex_goes_through_the_shell() {
    // An annex entry can name the issuing PE; the access loops through
    // the shell (and costs remote time) rather than the local path.
    let mut m = machine(2);
    m.poke8(0, 0x400, 77);
    let mut cpu = Cpu::new(&mut m, 0);
    cpu.annex_set(1, 0, FuncCode::Uncached);
    let t0 = cpu.clock();
    assert_eq!(cpu.ld8(cpu.va(1, 0x400)), 77);
    let cost = cpu.clock() - t0;
    assert!(cost > 50, "shell loop-back is not a local load: {cost} cy");
}

#[test]
fn barrier_requires_no_stragglers_in_flight() {
    // barrier_all fences every node, so a remote write issued just
    // before the barrier is visible just after it.
    let mut m = machine(4);
    let mut cpu = Cpu::new(&mut m, 2);
    cpu.annex_set(1, 3, FuncCode::Uncached);
    cpu.st8(cpu.va(1, 0x600), 9);
    m.barrier_all();
    assert_eq!(Cpu::new(&mut m, 3).ld8(0x600), 9);
}

#[test]
fn op_stats_track_every_category() {
    let mut m = machine(2);
    let mut cpu = Cpu::new(&mut m, 0);
    cpu.annex_set(1, 1, FuncCode::Uncached);
    cpu.st8(0x10, 1); // local store
    cpu.st8(cpu.va(1, 0x10), 1); // remote store
    let _ = cpu.ld8(0x10); // local load
    let _ = cpu.ld8(cpu.va(1, 0x10)); // remote load
    cpu.fetch(cpu.va(1, 0x20));
    cpu.memory_barrier();
    let _ = cpu.pop_prefetch();
    cpu.msg_send(1, [0; 4]);
    let _ = cpu.fetch_inc(1, 0);
    let s = m.op_stats(0);
    for kind in [
        OpKind::StLocal,
        OpKind::StRemote,
        OpKind::LdLocal,
        OpKind::LdRemote,
        OpKind::Fetch,
        OpKind::Pop,
        OpKind::Fence,
        OpKind::MsgSend,
        OpKind::FetchInc,
        OpKind::AnnexSet,
    ] {
        assert_eq!(s[kind], 1, "{kind:?}");
    }
    assert_eq!(s.remote_ops(), 4);
    // Restarting observation zeroes the counts.
    m.set_perf_mode(PerfMode::Off);
    assert_eq!(m.op_stats(0), OpStats::default());
}
