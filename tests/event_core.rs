//! Regression pins for the closed-form waits.
//!
//! Each test stimulates exactly one wait class (plus one mixed
//! workload) and asserts two things:
//!
//! * **wait structure** — the machine counted at least the expected
//!   number of completions waited past (`events_fast_forwarded`), so
//!   every pending write-buffer entry, ack, prefetch head, BLT stream
//!   and barrier settle is accounted for;
//! * **pinned history** — the cycle totals and FNV fingerprints equal
//!   checked-in constants, so a timing-model change cannot slip in
//!   unnoticed.

use t3d_machine::{Cpu, Machine, MachineConfig, PerfMode};
use t3d_shell::blt::BltDirection;
use t3d_shell::FuncCode;

/// Node memory for the micro machines: traffic stays in the first
/// megabyte, checksummed below.
const NODE_MEM: usize = 2 << 20;
const SNAP_BYTES: u64 = 1 << 20;

fn machine(pes: u32) -> Machine {
    let mut m = Machine::new(MachineConfig::t3d_with_mem(pes, NODE_MEM));
    m.set_perf_mode(PerfMode::Counters);
    m
}

fn aim(cpu: &mut Cpu, target: u32) -> u64 {
    cpu.annex_set(1, target, FuncCode::Uncached);
    cpu.va(1, 0)
}

/// Runs `workload` on a fresh machine and returns it (for
/// wait-structure assertions) plus the `(clock-of-PE0, fnv)` pair for
/// pinning.
fn pinned(pes: u32, workload: impl Fn(&mut Machine)) -> (Machine, u64, u64) {
    let mut m = machine(pes);
    workload(&mut m);
    let fnv = m.snapshot_region(0, SNAP_BYTES).fnv64();
    let clock0 = m.clock(0);
    (m, clock0, fnv)
}

/// Sum of `events_fast_forwarded` over all PEs.
fn events_consumed(m: &Machine) -> u64 {
    (0..m.nodes())
        .map(|pe| m.event_stats(pe).events_fast_forwarded)
        .sum()
}

#[test]
fn barrier_only_fast_forwards_every_episode() {
    let (m, clock0, fnv) = pinned(4, |m| {
        for round in 0..8u64 {
            for pe in 0..4usize {
                Cpu::new(m, pe).advance(50 + (pe as u64) * 37 + round * 11);
            }
            m.barrier_all();
        }
    });
    // One barrier settle per PE per episode: 8 rounds x 4 PEs.
    assert!(
        events_consumed(&m) >= 32,
        "only {} events consumed",
        events_consumed(&m)
    );
    assert_eq!((clock0, fnv), PIN_BARRIER, "pinned history changed");
}

#[test]
fn ack_only_fast_forwards_every_arrival() {
    let (m, clock0, fnv) = pinned(2, |m| {
        let mut cpu = Cpu::new(m, 0);
        let base = aim(&mut cpu, 1);
        for i in 0..16u64 {
            cpu.st8(base + i * 64, i);
        }
        cpu.memory_barrier();
        cpu.wait_write_acks();
    });
    // One ack arrival per store at the status-bit spin, plus whatever
    // write-buffer entries were still pending at the fence (later
    // stores retire earlier entries inline, so only a tail remains).
    assert!(
        events_consumed(&m) >= 17,
        "only {} events consumed",
        events_consumed(&m)
    );
    assert_eq!((clock0, fnv), PIN_ACK, "pinned history changed");
}

#[test]
fn prefetch_only_fast_forwards_every_pop() {
    let (m, clock0, fnv) = pinned(2, |m| {
        let mut cpu = Cpu::new(m, 0);
        let base = aim(&mut cpu, 1);
        for g in 0..4u64 {
            for i in 0..4u64 {
                assert!(cpu.fetch(base + (g * 4 + i) * 64), "queue full");
            }
            cpu.memory_barrier();
            for _ in 0..4 {
                cpu.pop_prefetch().expect("fetched values must pop");
            }
        }
    });
    // At least the first pop of each group waits on the head's arrival.
    assert!(
        events_consumed(&m) >= 4,
        "only {} events consumed",
        events_consumed(&m)
    );
    assert_eq!((clock0, fnv), PIN_PREFETCH, "pinned history changed");
}

#[test]
fn blt_only_fast_forwards_the_completion() {
    let (m, clock0, fnv) = pinned(2, |m| {
        for i in 0..64u64 {
            m.poke_mem(0, 0x8000 + i * 8, &i.to_le_bytes());
        }
        let mut cpu = Cpu::new(m, 0);
        let h = cpu.blt_start(BltDirection::Write, 0x8000, 1, 0x8000, 512);
        cpu.blt_wait(h);
    });
    // The issuing PE waits on one BLT completion.
    assert!(
        events_consumed(&m) >= 1,
        "only {} events consumed",
        events_consumed(&m)
    );
    assert_eq!((clock0, fnv), PIN_BLT, "pinned history changed");
}

#[test]
fn mixed_workload_stays_bit_identical() {
    let (m, clock0, fnv) = pinned(4, |m| {
        let mut cpu = Cpu::new(m, 0);
        let base = aim(&mut cpu, 1);
        // Pipelined puts + fence + ack wait...
        for i in 0..8u64 {
            cpu.st8(base + i * 64, i);
        }
        cpu.memory_barrier();
        cpu.wait_write_acks();
        // ...a prefetch group...
        for i in 0..4u64 {
            assert!(cpu.fetch(base + 0x1000 + i * 64), "queue full");
        }
        cpu.memory_barrier();
        for _ in 0..4 {
            cpu.pop_prefetch().expect("fetched values must pop");
        }
        // ...a BLT to another node...
        let h = cpu.blt_start(BltDirection::Write, 0x4000, 2, 0x4000, 256);
        cpu.blt_wait(h);
        // ...and two skewed barriers.
        for pe in 0..4usize {
            Cpu::new(m, pe).advance(100 + pe as u64 * 53);
        }
        m.barrier_all();
        m.barrier_all();
    });
    // Eight ack arrivals, at least one write-buffer tail retirement,
    // one prefetch arrival, one BLT completion, and one barrier settle
    // per PE per episode.
    assert!(
        events_consumed(&m) >= 8 + 1 + 1 + 1 + 8,
        "only {} events consumed",
        events_consumed(&m)
    );
    assert_eq!((clock0, fnv), PIN_MIXED, "pinned history changed");
}

#[test]
fn cycle_skips_match_clock_motion() {
    // The cycles_fast_forwarded counter records clock motion past
    // pending completions: re-run the ack scenario and check the
    // counted cycles never exceed the elapsed virtual time.
    let mut m = machine(2);
    let mut cpu = Cpu::new(&mut m, 0);
    let base = aim(&mut cpu, 1);
    for i in 0..16u64 {
        cpu.st8(base + i * 64, i);
    }
    cpu.memory_barrier();
    cpu.wait_write_acks();
    let stats = m.event_stats(0);
    assert!(stats.events_fast_forwarded > 0);
    assert!(
        stats.cycles_fast_forwarded <= m.clock(0),
        "skipped {} of {} elapsed cycles",
        stats.cycles_fast_forwarded,
        m.clock(0)
    );
    assert!(
        stats.cycles_fast_forwarded > 0,
        "an ack-dominated workload must skip quiescent cycles"
    );
}

// Pinned (clock-of-PE0, FNV-of-first-MB) histories. The assertion
// failure message prints the fresh pair; update these constants only
// when the timing model changes on purpose.
const PIN_BARRIER: (u64, u64) = (2108, 4812219015355261989);
const PIN_ACK: (u64, u64) = (476, 8463033929407022817);
const PIN_PREFETCH: (u64, u64) = (813, 16839572663591385416);
const PIN_BLT: (u64, u64) = (28024, 3489526102737805157);
const PIN_MIXED: (u64, u64) = (28269, 9544468633610242897);
