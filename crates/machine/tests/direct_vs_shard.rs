//! Direct engine against sharded engine on one active PE.
//!
//! With a single active PE a sharded phase has nothing to reorder: its
//! copy-on-touch views start from the live state and no other shard
//! moves it. So the direct engine ([`Machine`]'s own methods) and the
//! only active shard of a `sharded_phase(Seq)` must agree on every
//! observable: each op's result and clock, every PE's clock, op and
//! wait counters, arrival log and perf ledger, the memory image, and
//! the DRAM-page, shell, link and fetch&increment state a follow-up
//! probe reads back.
//!
//! The op stream touches each mechanism once, including the paths where
//! the target is the issuer itself. Remote targets are fenced and acked
//! before they are read again, so no remote effect of the phase is
//! consumed inside it (the bulk-synchronous contract of sharded phases).

use t3d_machine::shell::blt::BltDirection;
use t3d_machine::shell::FuncCode;
use t3d_machine::{Cpu, Machine, MachineConfig, PerfMode, PhaseDriver};

const PES: u32 = 8;
/// The only PE that runs the op stream. On the 2×2×2 torus it is one
/// hop from PE 0 and PE 5, the PEs the busy-maker loads.
const ACTIVE: usize = 1;
/// Runs before the phase and leaves PE 0's and PE 5's shells and links
/// busy far beyond `ACTIVE`'s clock.
const BUSY_MAKER: usize = 3;
/// Bytes of each PE's memory the image checksum covers.
const IMAGE: u64 = 0x2_0000;

/// Every op of the T3D surface, once, from `ACTIVE`. Pushes each op's
/// result and the clock after it onto `seen`.
///
/// DRAM pages (16 KB, bank = page mod 4) are chosen so each remote
/// mechanism's last touch of a bank stays visible to the probe: PE 0
/// sees reads, stores and prefetches on page 0 and a strided scatter on
/// pages 2–3; PE 5 a cached read on page 1 and a strided gather on
/// pages 2–3; PE 6 ends on an uncached read of page 5.
fn op_stream(cpu: &mut Cpu, seen: &mut Vec<u64>) {
    let mut note = |cpu: &Cpu, v: u64| {
        seen.push(v);
        seen.push(cpu.clock());
    };
    // Annex entries: two busy remote PEs, a quiet one, and this PE.
    cpu.annex_set(1, 0, FuncCode::Uncached);
    cpu.annex_set(2, 5, FuncCode::Cached);
    cpu.annex_set(3, 6, FuncCode::Uncached);
    cpu.annex_set(4, ACTIVE as u32, FuncCode::Uncached);
    note(cpu, 0);

    // Fetch&increment first, so the tickets at the busy PEs queue behind
    // the busy-maker; then one on this PE.
    for (target, reg) in [(5, 1), (0, 0), (ACTIVE, 0)] {
        let v = cpu.fetch_inc(target, reg);
        note(cpu, v);
    }

    // Local loads and stores.
    cpu.st8(0x100, 11);
    let v = cpu.ld8(0x100);
    note(cpu, v);
    let v = cpu.ld8(0x4100);
    note(cpu, v);

    // Remote loads: uncached, cached (then a hit on the same line), and
    // through the annex entry naming this PE.
    for va in [
        cpu.va(1, 0x1000),
        cpu.va(1, 0x1008),
        cpu.va(2, 0x4000),
        cpu.va(2, 0x4008),
        cpu.va(4, 0x300),
        cpu.va(4, 0x4300),
    ] {
        let v = cpu.ld8(va);
        note(cpu, v);
    }

    // A forwarded read of this PE's own pending remote store.
    cpu.st8(cpu.va(3, 0x2000), 77);
    let v = cpu.ld8(cpu.va(3, 0x2000));
    note(cpu, v);

    // Remote stores (one line per target), status polls, fence, acks.
    cpu.st8(cpu.va(1, 0x3000), 1);
    cpu.st8(cpu.va(1, 0x3008), 2);
    cpu.st8(cpu.va(4, 0x3000), 3);
    let clear = cpu.poll_status();
    note(cpu, u64::from(clear));
    cpu.memory_barrier();
    let clear = cpu.poll_status();
    note(cpu, u64::from(clear));
    cpu.wait_write_acks();
    note(cpu, 0);

    // Prefetch from a busy PE, a quiet PE and this PE; fence; pop.
    for va in [cpu.va(1, 0x1100), cpu.va(3, 0x1100), cpu.va(4, 0x1100)] {
        let issued = cpu.fetch(va);
        note(cpu, u64::from(issued));
    }
    cpu.memory_barrier();
    for _ in 0..3 {
        let v = cpu.pop_prefetch().expect("three fetches departed");
        note(cpu, v);
    }

    // Contiguous BLT: read from PE 5, write to PE 0, to and from itself.
    for (dir, local, target, remote, bytes) in [
        (BltDirection::Read, 0x8000, 5, 0x4000, 256),
        (BltDirection::Write, 0x8000, 0, 0x9000, 256),
        (BltDirection::Write, 0x8000, ACTIVE, 0xA000, 64),
        (BltDirection::Read, 0xA800, ACTIVE, 0x8000, 64),
    ] {
        let h = cpu.blt_start(dir, local, target, remote, bytes);
        cpu.blt_wait(h);
        note(cpu, h.completion);
    }
    // Strided BLT: gather from PE 5, scatter to PE 0 and to itself.
    for (dir, local, target, remote) in [
        (BltDirection::Read, 0xB000, 5, 0x8000),
        (BltDirection::Write, 0xB000, 0, 0x8100),
        (BltDirection::Write, 0xB000, ACTIVE, 0x1_0000),
    ] {
        let h = cpu.blt_start_strided(dir, local, target, remote, 2, 8, 0x4000);
        cpu.blt_wait(h);
        note(cpu, h.completion);
    }

    // Messages to a busy PE and to itself; receive its own.
    cpu.msg_send(5, [1, 2, 3, 4]);
    cpu.msg_send(ACTIVE, [5, 6, 7, 8]);
    let got = cpu.msg_receive().expect("own message has arrived");
    note(cpu, got.words[0] + got.arrival);

    // A local atomic swap, then one through the annex naming itself.
    cpu.swap_load(42);
    let v = cpu.atomic_swap(0x500);
    note(cpu, v);
    cpu.annex_set(5, ACTIVE as u32, FuncCode::Swap);
    let v = cpu.atomic_swap(cpu.va(5, 0x508));
    note(cpu, v);

    cpu.advance(17);
    let v = cpu.ld8(cpu.va(3, 0x1_4100));
    note(cpu, v);
    // Leave a long BLT stream holding the route to PE 6, unwaited, and
    // a remote store in flight to PE 0.
    let h = cpu.blt_start(BltDirection::Write, 0x8000, 6, 0xE000, 4096);
    note(cpu, h.completion);
    cpu.st8(cpu.va(1, 0x3100), 9);
    note(cpu, 0);
}

/// A machine whose memory holds a distinct pattern on every PE, and
/// whose PE 0 and PE 5 shells and links `BUSY_MAKER` has just loaded.
fn prepared(cfg: MachineConfig) -> Machine {
    let mut m = Machine::new(cfg);
    m.set_perf_mode(PerfMode::Counters);
    for pe in 0..PES as usize {
        for i in 0..0x200u64 {
            let off = (i * 0x100) % IMAGE;
            m.poke8(pe, off, ((pe as u64) << 40) | off);
            m.poke8(pe, off + 0x4000, ((pe as u64) << 40) | off | 1);
        }
    }
    // PE 0 caches the line the op stream's BLT later deposits into.
    let _ = m.ld8(0, 0x9000);
    let mut cpu = Cpu::new(&mut m, BUSY_MAKER);
    cpu.advance(50_000);
    cpu.annex_set(1, 0, FuncCode::Uncached);
    cpu.annex_set(2, 5, FuncCode::Uncached);
    for i in 0..4u64 {
        let _ = cpu.ld8(cpu.va(1, 0x1_4000 + i * 0x40));
        let _ = cpu.ld8(cpu.va(2, 0x1_8000 + i * 0x40));
        cpu.st8(cpu.va(1, 0x1_C000 + i * 0x40), i);
        cpu.st8(cpu.va(2, 0x1_C000 + i * 0x40), i);
        let _ = cpu.fetch_inc(0, 1);
        let _ = cpu.fetch_inc(5, 0);
    }
    cpu.memory_barrier();
    cpu.wait_write_acks();
    let _ = cpu.blt_start(BltDirection::Write, 0x8000, 0, 0x1_0000, 2048);
    m
}

/// What the comparison reads off a machine after the op stream ran.
#[derive(Debug, PartialEq)]
struct Observed {
    seen: Vec<u64>,
    /// The follow-up probe, run from idle PEs before the barrier: each
    /// read's value and cost, each ticket.
    probe: Vec<u64>,
    clocks: Vec<u64>,
    ops: Vec<t3d_machine::OpStats>,
    events: Vec<t3d_machine::EventStats>,
    incoming: Vec<Vec<(u64, u64)>>,
    /// Open-page cost of every DRAM page the ops touch, per PE.
    dram: Vec<Vec<u64>>,
    finc: Vec<[u64; 2]>,
    perf: t3d_machine::PerfReport,
    image_fnv: u64,
    /// PE 5 receives the message after the barrier.
    msg: Option<t3d_machine::shell::Message>,
}

/// Reads DRAM-page, shell, link, cache and fetch&increment state back
/// through direct ops from PEs the phase left idle (their clocks are
/// still behind every busy shell and link), then barriers and records
/// the rest.
fn observe(mut m: Machine, seen: Vec<u64>) -> Observed {
    let mut probe = Vec::new();
    let dram = (0..PES as usize)
        .map(|pe| {
            let d = m.node(pe).port.dram();
            (0..8u64).map(|page| d.peek(page * 0x4000)).collect()
        })
        .collect();
    for (from, target, off) in [
        (7, 0, 0x1000),
        (2, 5, 0x4000),
        (4, 6, 0x2000),
        (0, 6, 0xE000),
    ] {
        m.annex_set(
            from,
            1,
            t3d_machine::shell::AnnexEntry {
                pe: target,
                func: FuncCode::Uncached,
            },
        );
        let t = m.clock(from);
        let v = m.ld8(from, m.va(1, off));
        probe.extend([v, m.clock(from) - t]);
    }
    let t = m.clock(0);
    let v = m.ld8(0, 0x9000);
    probe.extend([v, m.clock(0) - t]);
    for (from, target, reg) in [(6, 0, 0), (7, 5, 1), (4, ACTIVE, 0)] {
        let t = m.clock(from);
        let v = m.fetch_inc(from, target, reg);
        probe.extend([v, m.clock(from) - t]);
    }
    m.barrier_all();
    let n = PES as usize;
    let msg = m.msg_receive(5);
    Observed {
        seen,
        probe,
        clocks: (0..n).map(|pe| m.clock(pe)).collect(),
        ops: (0..n).map(|pe| m.op_stats(pe)).collect(),
        events: (0..n).map(|pe| m.event_stats(pe)).collect(),
        incoming: (0..n).map(|pe| m.node(pe).incoming.clone()).collect(),
        dram,
        finc: (0..n)
            .map(|pe| [m.node(pe).fetchinc.get(0), m.node(pe).fetchinc.get(1)])
            .collect(),
        perf: m.perf(),
        image_fnv: m.snapshot_region(0, IMAGE).fnv64(),
        msg,
    }
}

fn direct(cfg: MachineConfig) -> Observed {
    let mut m = prepared(cfg);
    let mut seen = Vec::new();
    op_stream(&mut Cpu::new(&mut m, ACTIVE), &mut seen);
    observe(m, seen)
}

fn sharded(cfg: MachineConfig) -> Observed {
    let mut m = prepared(cfg);
    let mut seen = vec![Vec::new(); PES as usize];
    m.sharded_phase_zip(PhaseDriver::Seq, &mut seen, |ops, pe, seen| {
        if pe == ACTIVE {
            op_stream(&mut Cpu::new(ops, pe), seen);
        }
    });
    let mine = std::mem::take(&mut seen[ACTIVE]);
    observe(m, mine)
}

fn assert_engines_agree(cfg: MachineConfig) {
    let (d, s) = (direct(cfg), sharded(cfg));
    assert_eq!(d.seen, s.seen, "op results and clocks");
    assert_eq!(d.probe, s.probe, "follow-up probe");
    assert_eq!(d.clocks, s.clocks, "clocks");
    assert_eq!(d.ops, s.ops, "op counters");
    assert_eq!(d.events, s.events, "event counters");
    assert_eq!(d.incoming, s.incoming, "arrival logs");
    assert_eq!(d.dram, s.dram, "DRAM page state");
    assert_eq!(d.finc, s.finc, "fetch&increment registers");
    assert_eq!(d.perf, s.perf, "perf ledgers and registry");
    assert_eq!(d.image_fnv, s.image_fnv, "memory image");
    assert_eq!(d.msg, s.msg, "delivered message");
    assert!(d.msg.is_some(), "the message to PE 5 arrives");
}

#[test]
fn one_active_pe_matches_direct_engine() {
    assert_engines_agree(MachineConfig::t3d(PES));
}

#[test]
fn one_active_pe_matches_direct_engine_under_contention() {
    let mut cfg = MachineConfig::t3d_link_contended(PES);
    cfg.contention = true;
    assert_engines_agree(cfg);
}
