//! The parallel phase driver at the scale it is built for, and its
//! behaviour when a phase closure panics.
//!
//! `Par(n)` splits a phase by sub-cube across `n` threads. Unit tests
//! pin Seq/Par bit-identity on 4–8 PEs; here the same oracle runs on a
//! 1024-PE link-contended machine with the phase shapes of `t3d-perf
//! scale`: neighbour puts fenced and acked, then one round of the
//! butterfly message exchange.

use std::panic::{catch_unwind, AssertUnwindSafe};
use t3d_machine::shell::FuncCode;
use t3d_machine::{Cpu, Machine, MachineConfig, PerfMode, PerfReport, PhaseDriver};

/// Every PE stores eight words into its right neighbour, fences and
/// waits for the acks.
fn neighbour_puts(cpu: &mut Cpu) {
    let pe = cpu.pe();
    let right = ((pe + 1) % cpu.nodes()) as u32;
    cpu.annex_set(1, right, FuncCode::Uncached);
    for i in 0..8u64 {
        let va = cpu.va(1, 0x1000 + i * 8);
        cpu.st8(va, ((pe as u64) << 8) | i);
    }
    cpu.memory_barrier();
    cpu.wait_write_acks();
}

/// What a run leaves behind: every PE's clock, the checksum of the
/// written region and the attribution report.
type Outcome = (Vec<u64>, u64, PerfReport);

fn scale_phases(driver: PhaseDriver) -> Outcome {
    const ROUND: u32 = 3;
    let mut m = Machine::new(MachineConfig::t3d_link_contended(1024));
    m.set_perf_mode(PerfMode::Counters);
    m.sharded_phase(driver, neighbour_puts);
    m.barrier_all();
    m.sharded_phase(driver, |cpu| {
        let partner = cpu.pe() ^ (1 << ROUND);
        cpu.msg_send(partner, [cpu.pe() as u64, u64::from(ROUND), 0, 0]);
    });
    m.barrier_all();
    m.sharded_phase(driver, |cpu| {
        let msg = loop {
            match cpu.msg_receive() {
                Some(msg) => break msg,
                None => cpu.advance(1000),
            }
        };
        assert_eq!(
            msg.from as usize,
            cpu.pe() ^ (1 << ROUND),
            "butterfly partner"
        );
    });
    m.barrier_all();
    let clocks = (0..m.nodes()).map(|pe| m.clock(pe)).collect();
    (clocks, m.snapshot_region(0, 0x2000).fnv64(), m.perf())
}

#[test]
fn par_matches_seq_bit_for_bit_on_1024_link_contended_pes() {
    let seq = scale_phases(PhaseDriver::Seq);
    assert!(seq.0.iter().all(|&c| c > 0), "every PE ran");
    for threads in [2, 3] {
        let par = scale_phases(PhaseDriver::Par(threads));
        assert_eq!(par.0, seq.0, "clocks under Par({threads})");
        assert_eq!(par.1, seq.1, "region checksum under Par({threads})");
        assert!(par.2 == seq.2, "perf ledger under Par({threads})");
    }
}

#[test]
fn a_panicking_par_phase_leaves_every_pe_in_place() {
    let mut m = Machine::new(MachineConfig::t3d(64));
    for pe in 0..m.nodes() {
        Cpu::new(&mut m, pe).advance(1000 + 10 * pe as u64);
    }
    let before: Vec<u64> = (0..m.nodes()).map(|pe| m.clock(pe)).collect();
    let caught = catch_unwind(AssertUnwindSafe(|| {
        m.sharded_phase(PhaseDriver::Par(2), |cpu| {
            assert_ne!(cpu.pe(), 5, "PE 5 fails");
        });
    }));
    let msg = caught.expect_err("the phase panics");
    let msg = msg
        .downcast_ref::<String>()
        .expect("the closure's own message");
    assert!(msg.contains("PE 5 fails"), "{msg}");
    let after: Vec<u64> = (0..m.nodes()).map(|pe| m.clock(pe)).collect();
    assert_eq!(after, before, "each PE keeps its own clock");
    // The machine stays usable: a later phase runs on every PE.
    m.sharded_phase(PhaseDriver::Par(2), |cpu| cpu.advance(7));
    let later: Vec<u64> = (0..m.nodes()).map(|pe| m.clock(pe)).collect();
    assert_eq!(later, before.iter().map(|c| c + 7).collect::<Vec<_>>());
}
