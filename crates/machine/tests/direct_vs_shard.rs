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
    let _ = Cpu::new(&mut m, 0).ld8(0x9000);
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
        let mut cpu = Cpu::new(&mut m, from);
        cpu.annex_set(1, target, FuncCode::Uncached);
        let t = cpu.clock();
        let v = cpu.ld8(cpu.va(1, off));
        probe.extend([v, cpu.clock() - t]);
    }
    let mut cpu = Cpu::new(&mut m, 0);
    let t = cpu.clock();
    let v = cpu.ld8(0x9000);
    probe.extend([v, cpu.clock() - t]);
    for (from, target, reg) in [(6, 0, 0), (7, 5, 1), (4, ACTIVE, 0)] {
        let mut cpu = Cpu::new(&mut m, from);
        let t = cpu.clock();
        let v = cpu.fetch_inc(target, reg);
        probe.extend([v, cpu.clock() - t]);
    }
    m.barrier_all();
    let n = PES as usize;
    let msg = Cpu::new(&mut m, 5).msg_receive();
    Observed {
        seen,
        probe,
        clocks: (0..n).map(|pe| m.clock(pe)).collect(),
        ops: (0..n).map(|pe| m.op_stats(pe)).collect(),
        events: (0..n).map(|pe| m.event_stats(pe)).collect(),
        incoming: (0..n).map(|pe| m.node(pe).arrivals().to_vec()).collect(),
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
    m.sharded_phase_zip(PhaseDriver::Seq, &mut seen, |cpu, seen| {
        if cpu.pe() == ACTIVE {
            op_stream(cpu, seen);
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

// ---- BLT edge cases -------------------------------------------------

/// Bytes per arena chunk (the memory system commits memory in 64 KB
/// chunks on first write).
const CHUNK: u64 = 64 * 1024;
/// Bytes of each PE's memory the BLT cases cover: chunks 0, 1 and 3
/// hold a pattern, chunk 2 is never written before the BLT.
const BLT_SPAN: u64 = 4 * CHUNK;
/// The PE the BLT cases target when they are not self-BLTs.
const OTHER: usize = 6;

/// One BLT from `ACTIVE`: contiguous when `stride` is `None`.
#[derive(Debug, Clone, Copy)]
struct Blt {
    dir: BltDirection,
    local: u64,
    target: usize,
    remote: u64,
    /// Bytes (contiguous) or element bytes (strided).
    bytes: u64,
    /// `(count, stride_bytes)` of a strided BLT.
    stride: Option<(u64, u64)>,
}

const fn blt(dir: BltDirection, local: u64, target: usize, remote: u64, bytes: u64) -> Blt {
    Blt {
        dir,
        local,
        target,
        remote,
        bytes,
        stride: None,
    }
}

const fn strided(
    dir: BltDirection,
    local: u64,
    target: usize,
    remote: u64,
    elem: u64,
    count: u64,
    stride: u64,
) -> Blt {
    Blt {
        dir,
        local,
        target,
        remote,
        bytes: elem,
        stride: Some((count, stride)),
    }
}

use BltDirection::{Read, Write};

const BLT_CASES: [Blt; 18] = [
    // Self-BLTs whose ranges overlap, destination above and below the
    // source, in both directions, at word-congruent and odd distances.
    blt(Write, 0x1000, ACTIVE, 0x1013, 0x205),
    blt(Write, 0x1013, ACTIVE, 0x1000, 0x205),
    blt(Read, 0x2013, ACTIVE, 0x2000, 0x1F1),
    blt(Read, 0x2000, ACTIVE, 0x2013, 0x1F1),
    blt(Write, 0x3000, ACTIVE, 0x3008, 0x100),
    blt(Read, 0x3005, ACTIVE, 0x300D, 0x7B),
    // Self-BLT overlapping across a chunk boundary.
    blt(Write, 0xFF00, ACTIVE, 0xFF41, 0x203),
    // Unaligned offsets and lengths crossing a chunk boundary, at
    // unequal and at equal offsets within a word.
    blt(Write, 0xFFF3, OTHER, 0x1_FFED, 0x35),
    blt(Read, 0x1_FFF1, OTHER, 0xFFF9, 0x29),
    blt(Write, 0xFFFB, OTHER, 0x1_FFF3, 0x1_0011),
    blt(Read, 0x3_0003, OTHER, 0xFFFB, 0x2D),
    // A source range in a never-written chunk: zeros land (and the
    // destination chunk is committed either way).
    blt(Write, 0x2_0100, OTHER, 0x4001, 0x80),
    blt(Read, 0x5000, OTHER, 0x2_0FF8, 0x40),
    blt(Write, 0x1_FFC0, OTHER, 0x2_FFF0, 0x60),
    // Strided BLTs whose elements straddle chunk boundaries on either
    // side, and a strided self-BLT whose elements overlap the source.
    strided(Write, 0xFFF0, OTHER, 0xFFF4, 20, 3, CHUNK),
    strided(Read, 0x1_FFF8, OTHER, 0xFFEE, 20, 3, CHUNK),
    strided(Write, 0x5000, ACTIVE, 0x5004, 8, 6, 16),
    strided(Read, 0x6010, ACTIVE, 0x6000, 12, 5, 12),
];

/// The pattern byte at `off` on `pe` (zero in the never-written chunk).
fn pattern(pe: usize, off: u64) -> u8 {
    if off / CHUNK == 2 {
        0
    } else {
        (off.wrapping_mul(0x9E37_79B9) >> 7) as u8 ^ (pe as u8).wrapping_mul(37) | 1
    }
}

/// A machine whose chunks 0, 1 and 3 hold [`pattern`] on every PE.
fn patterned() -> Machine {
    let mut m = Machine::new(MachineConfig::t3d(PES));
    for pe in 0..PES as usize {
        for chunk in [0, 1, 3] {
            let base = chunk * CHUNK;
            let bytes: Vec<u8> = (base..base + CHUNK).map(|o| pattern(pe, o)).collect();
            m.poke_mem(pe, base, &bytes);
        }
    }
    m
}

/// A byte address: `(PE, offset)`.
type At = (usize, u64);

/// `(source, destination, bytes)` of each element the BLT moves, in
/// the order the engine moves them.
fn blt_moves(b: &Blt) -> Vec<(At, At, u64)> {
    let (count, stride) = b.stride.unwrap_or((1, b.bytes));
    (0..count)
        .map(|i| {
            let local = (ACTIVE, b.local + i * b.bytes);
            let remote = (b.target, b.remote + i * stride);
            match b.dir {
                Read => (remote, local, b.bytes),
                Write => (local, remote, b.bytes),
            }
        })
        .collect()
}

/// The memmove byte model: each element copied as if through a
/// temporary buffer.
fn blt_model(b: &Blt) -> Vec<Vec<u8>> {
    let mut mem: Vec<Vec<u8>> = (0..PES as usize)
        .map(|pe| (0..BLT_SPAN).map(|o| pattern(pe, o)).collect())
        .collect();
    for ((sp, so), (dp, doff), n) in blt_moves(b) {
        let tmp = mem[sp][so as usize..(so + n) as usize].to_vec();
        mem[dp][doff as usize..(doff + n) as usize].copy_from_slice(&tmp);
    }
    mem
}

/// The destination words read back through each PE's cache: the first
/// and last word of every element's destination, cached before the BLT.
fn cached_words(b: &Blt) -> Vec<(usize, u64)> {
    blt_moves(b)
        .into_iter()
        .flat_map(|(_, (pe, off), n)| [(pe, off & !7), (pe, (off + n - 1) & !7)])
        .collect()
}

/// What one engine leaves behind after one BLT case.
#[derive(Debug, PartialEq)]
struct BltRun {
    completion: u64,
    clocks: Vec<u64>,
    resident: Vec<usize>,
    image: Vec<Vec<u8>>,
    /// Values of [`cached_words`] loaded through the cache afterwards.
    reloaded: Vec<u64>,
}

fn start_blt(cpu: &mut Cpu, b: &Blt) -> u64 {
    let h = match b.stride {
        None => cpu.blt_start(b.dir, b.local, b.target, b.remote, b.bytes),
        Some((count, stride)) => {
            cpu.blt_start_strided(b.dir, b.local, b.target, b.remote, count, b.bytes, stride)
        }
    };
    cpu.blt_wait(h);
    h.completion
}

fn run_blt(b: &Blt, sharded: bool) -> BltRun {
    let mut m = patterned();
    let words = cached_words(b);
    for &(pe, off) in &words {
        let _ = Cpu::new(&mut m, pe).ld8(off);
    }
    let completion = if sharded {
        let mut out = vec![0u64; PES as usize];
        m.sharded_phase_zip(PhaseDriver::Seq, &mut out, |cpu, out| {
            if cpu.pe() == ACTIVE {
                *out = start_blt(cpu, b);
            }
        });
        out[ACTIVE]
    } else {
        start_blt(&mut Cpu::new(&mut m, ACTIVE), b)
    };
    let n = PES as usize;
    let reloaded = words
        .iter()
        .map(|&(pe, off)| Cpu::new(&mut m, pe).ld8(off))
        .collect();
    BltRun {
        completion,
        clocks: (0..n).map(|pe| m.clock(pe)).collect(),
        resident: (0..n)
            .map(|pe| m.node(pe).port.mem_arena().resident_bytes())
            .collect(),
        image: (0..n)
            .map(|pe| {
                let mut buf = vec![0u8; BLT_SPAN as usize];
                m.peek_mem(pe, 0, &mut buf);
                buf
            })
            .collect(),
        reloaded,
    }
}

#[test]
fn blt_edge_cases_agree_with_each_other_and_a_memmove_model() {
    for b in &BLT_CASES {
        let (d, s) = (run_blt(b, false), run_blt(b, true));
        let model = blt_model(b);
        for (pe, (got, want)) in d.image.iter().zip(&model).enumerate() {
            if let Some(i) = (0..BLT_SPAN as usize).find(|&i| got[i] != want[i]) {
                panic!(
                    "{b:?}: direct PE {pe} byte {i:#x} is {:#04x}, model {:#04x}",
                    got[i], want[i]
                );
            }
        }
        let want: Vec<u64> = cached_words(b)
            .iter()
            .map(|&(pe, off)| {
                let o = off as usize;
                u64::from_le_bytes(model[pe][o..o + 8].try_into().expect("word"))
            })
            .collect();
        assert_eq!(d.reloaded, want, "{b:?}: no stale cached copy survives");
        assert_eq!(d, s, "{b:?}: direct and sharded engines");
    }
}
