//! `scale-1024`: the four `t3d-perf scale` patterns on a 1024-PE T3D
//! with shell and link contention modelled.
//!
//! A pass runs four pattern groups, each on a freshly built machine
//! (the constructions are `setup_s`): neighbour puts and the butterfly
//! allreduce go through the sharded phase engine; the hot-spot
//! `fetch_inc` and the bisection BLT transpose are direct machine
//! calls. Repetitions are weighted so that phases and direct ops each
//! take about a third of the traced host time. `--seed` picks the
//! hot-spot target PE. Each group ends with a snapshot checksum of
//! every address the patterns write.

use t3d_machine::shell::blt::BltDirection;
use t3d_machine::shell::FuncCode;
use t3d_machine::{BltHandle, Machine, MachineConfig, PerfMode, PhaseDriver};

use crate::spans::{Profile, Spans};
use crate::{Ctx, Work};

/// PEs of the full-size machine.
const PES: u32 = 1024;
/// Bytes per PE the closing checksum covers: the neighbour words at
/// 0x1000 and the transpose landing zone ending at 0xA000.
const SNAP_BYTES: u64 = 0xA000;
/// Hot-spot rounds (one `fetch_inc` from every other PE) per repetition.
const HOTSPOT_ROUNDS: usize = 40;
/// Transpose bytes per PE per repetition.
const BLT_BYTES: u64 = 8192;

/// One pattern group: a fresh machine running one pattern `reps` times.
struct Group {
    name: &'static str,
    reps: u32,
    /// Runs repetition `rep` of the pattern against hot-spot target
    /// `target`; returns a value folded into the checks.
    run: fn(&mut Machine, &mut Spans, PhaseDriver, usize, u32) -> u64,
}

const GROUPS: [Group; 4] = [
    Group {
        name: "neighbor",
        reps: 4,
        run: neighbor,
    },
    Group {
        name: "allreduce",
        reps: PES.trailing_zeros(),
        run: allreduce,
    },
    Group {
        name: "hotspot",
        reps: 16,
        run: hotspot,
    },
    Group {
        name: "transpose",
        reps: 56,
        run: transpose,
    },
];

/// Simulated PE-cycles, snapshot checksum and pattern check value of
/// every group at the default seed.
pub const PINS: &[(&str, u64)] = &[
    ("allreduce.check", 0x2800),
    ("allreduce.fnv", 0xd68b1ac7c7b0f325),
    ("allreduce.pe_cycles", 0x2710000),
    ("hotspot.check", 0x31e6fe2140),
    ("hotspot.fnv", 0x87a2056f04d2b325),
    ("hotspot.pe_cycles", 0x31f6e0000),
    ("neighbor.check", 0x8000),
    ("neighbor.fnv", 0xa9752b6b6915af25),
    ("neighbor.pe_cycles", 0x144c00),
    ("transpose.check", 0x1c000000),
    ("transpose.fnv", 0x79e94fe1ba82b325),
    ("transpose.pe_cycles", 0xf6810000),
];

/// Ring exchange: every PE stores eight words into its right
/// neighbour, fences and waits for acks; returns the words stored.
fn neighbor(m: &mut Machine, sp: &mut Spans, d: PhaseDriver, _target: usize, _rep: u32) -> u64 {
    sp.time("machine.phase", || {
        m.sharded_phase(d, |cpu| {
            let pe = cpu.pe();
            let right = ((pe + 1) % cpu.nodes()) as u32;
            cpu.annex_set(1, right, FuncCode::Uncached);
            for i in 0..8u64 {
                let va = cpu.va(1, 0x1000 + i * 8);
                cpu.st8(va, ((pe as u64) << 8) | i);
            }
            cpu.memory_barrier();
            cpu.wait_write_acks();
        });
    });
    sp.time("machine.barrier", || m.barrier_all());
    8 * m.nodes() as u64
}

/// One round of the butterfly allreduce: pairwise message exchange
/// with partner `pe XOR 2^round`; returns the messages received.
fn allreduce(m: &mut Machine, sp: &mut Spans, d: PhaseDriver, _target: usize, round: u32) -> u64 {
    sp.time("machine.phase", || {
        m.sharded_phase(d, move |cpu| {
            let partner = cpu.pe() ^ (1usize << round);
            cpu.msg_send(partner, [cpu.pe() as u64, u64::from(round), 0, 0]);
        });
    });
    sp.time("machine.barrier", || m.barrier_all());
    sp.time("machine.phase", || {
        m.sharded_phase(d, |cpu| {
            let mut spins = 0;
            while cpu.msg_receive().is_none() {
                cpu.advance(1000);
                spins += 1;
                assert!(spins < 10_000, "allreduce message never arrived");
            }
        });
    });
    sp.time("machine.barrier", || m.barrier_all());
    m.nodes() as u64
}

/// Every other PE atomically increments one counter on the target PE,
/// [`HOTSPOT_ROUNDS`] times; returns the sum of the values fetched.
fn hotspot(m: &mut Machine, sp: &mut Spans, _d: PhaseDriver, target: usize, _rep: u32) -> u64 {
    let n = m.nodes();
    let sum = sp.time("machine.fetch_inc", || {
        (0..HOTSPOT_ROUNDS * n)
            .map(|i| i % n)
            .filter(|&pe| pe != target)
            .fold(0u64, |acc, pe| acc.wrapping_add(m.fetch_inc(pe, target, 0)))
    });
    sp.time("machine.barrier", || m.barrier_all());
    sum
}

/// Each PE bulk-writes 8 KB to the PE half the machine away, so every
/// stream crosses the bisection; returns the bytes moved.
fn transpose(m: &mut Machine, sp: &mut Spans, _d: PhaseDriver, _target: usize, _rep: u32) -> u64 {
    let n = m.nodes();
    sp.time("machine.blt", || {
        let handles: Vec<BltHandle> = (0..n)
            .map(|pe| {
                m.blt_start(
                    pe,
                    BltDirection::Write,
                    0x2000,
                    (pe + n / 2) % n,
                    0x8000,
                    BLT_BYTES,
                )
            })
            .collect();
        for (pe, h) in handles.into_iter().enumerate() {
            m.blt_wait(pe, h);
        }
    });
    sp.time("machine.barrier", || m.barrier_all());
    n as u64 * BLT_BYTES
}

/// Simulated cycles summed over every PE.
fn pe_cycles(m: &Machine) -> u64 {
    (0..m.nodes()).map(|pe| m.clock(pe)).sum()
}

/// The hot-spot target PE for a seed.
fn target_pe(seed: u64) -> usize {
    (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % PES as usize
}

/// One pass: every group once, each on a fresh machine.
pub fn pass(seed: u64, ctx: &mut Ctx) {
    let driver = PhaseDriver::Par(
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    );
    let target = target_pe(seed);
    for g in &GROUPS {
        let mut m = ctx.setup("machine.new", || {
            Machine::new(MachineConfig::t3d_link_contended(PES))
        });
        if ctx.traced() {
            m.set_perf_mode(PerfMode::Counters);
        }
        // Each repetition is a timed call; the group's checks run on a
        // closing snapshot call.
        let mut check = 0u64;
        let mut done_cycles = 0u64;
        for rep in 0..g.reps {
            ctx.call(
                &format!("{}.{rep}", g.name),
                |ctx| {
                    let c = (g.run)(&mut m, &mut ctx.spans, driver, target, rep);
                    (c, pe_cycles(&m))
                },
                |&(c, cycles), _| {
                    check = check.wrapping_add(c);
                    let w = Work {
                        pe_cycles: cycles - done_cycles,
                        jobs: 1,
                    };
                    done_cycles = cycles;
                    Ok(w)
                },
            );
        }
        ctx.call(
            &format!("{}.snapshot", g.name),
            |ctx| {
                let fnv = ctx.spans.time("machine.snapshot", || {
                    m.snapshot_region(0, SNAP_BYTES).fnv64()
                });
                (fnv, pe_cycles(&m))
            },
            |&(fnv, cycles), pins| {
                pins.check(&format!("{}.pe_cycles", g.name), cycles)?;
                pins.check(&format!("{}.fnv", g.name), fnv)?;
                pins.check(&format!("{}.check", g.name), check)?;
                Ok(Work {
                    pe_cycles: 0,
                    jobs: 0,
                })
            },
        );
        if ctx.traced() {
            ctx.absorb(&m.perf());
            let mut events = 0;
            let mut ff = 0;
            let mut resident = 0;
            for pe in 0..m.nodes() {
                let e = m.event_stats(pe);
                events += e.events_fast_forwarded;
                ff += e.cycles_fast_forwarded;
                resident += m.node(pe).port.mem_arena().resident_bytes();
            }
            ctx.count("event.events", events as f64);
            ctx.count("event.cycles_fast_forwarded", ff as f64);
            ctx.count("sim.pe_cycles", pe_cycles(&m) as f64);
            ctx.count_max("mem.arena_resident_bytes", resident as f64);
        }
        ctx.spans.time("machine.drop", || drop(m));
    }
}

/// The balance check of the traced run: sharded phases and direct ops
/// should each take about a third of the timed host time.
pub fn balance_line(workload: &str, profile: &Profile) -> Option<String> {
    if workload != "scale-1024" || profile.timed_s <= 0.0 {
        return None;
    }
    let timed = profile.timed_s / profile.passes as f64;
    let phase = profile.secs_per_pass("machine.phase") / timed;
    let direct =
        (profile.secs_per_pass("machine.fetch_inc") + profile.secs_per_pass("machine.blt")) / timed;
    let verdict = if phase >= 0.3 && direct >= 0.3 {
        "ok"
    } else {
        "FLAG: one side is under 30%"
    };
    Some(format!(
        "  balance: sharded phases {:.1}%, direct ops {:.1}% of timed time ({verdict})",
        100.0 * phase,
        100.0 * direct
    ))
}
