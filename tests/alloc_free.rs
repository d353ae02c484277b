//! Host-heap discipline of the memory-system op path.
//!
//! Loads and stores are the simulator's most common operations. In
//! steady state a local load that misses and fills L1, and a local store
//! that merges into or retires a write-buffer entry, must not touch the
//! host heap at all: the write buffer keeps its lines inline, its retire
//! sink and the outbox reuse their allocations, and line buffers live on
//! the stack. Remote loads and stores may allocate only where a log grows
//! (the target's arrival log, amortised doubling).
//!
//! The direct shell ops hold to the same rule: a link-contended
//! fetch&increment reads its route from the issuing PE's route memo,
//! sized once at the PE's first route and refilled in place when the
//! target changes, and a BLT lands its bytes arena to arena.
//!
//! The Split-C driver steps hold to it as well: entering a node with
//! `SplitC::on` borrows its runtime state in place, so a barrier, an
//! SPMD phase of reads, writes, puts, signaling stores and bulk puts,
//! and a tree collective cost no heap work per PE: the runtime's event
//! log stays off and empty unless recording or the sanitizer reads it.
//! A `storeSync` query scans the time-ordered arrival log in place, and
//! folding the log's passed prefix moves entries within it.
//!
//! Machine construction costs metadata per PE, never node memory: the
//! heap bytes per PE are the same at 8 and at 1024 PEs, and less than
//! one 64 KB arena region. A snapshot costs the nonzero span of each PE's
//! region plus a few words per PE, not the region's bytes, and the
//! streamed checksum of a region costs no heap at all.
//!
//! The binary installs a counting global allocator. Counts are kept per
//! thread, so the test harness's own threads do not disturb them.

use splitc::{GlobalPtr, SplitC};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use t3d_machine::shell::blt::BltDirection;
use t3d_machine::{Cpu, Machine, MachineConfig, OpKind, PerfMode};
use t3d_memsys::arena::REGION_BYTES;
use t3d_memsys::MemArena;
use t3d_shell::FuncCode;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static FREED: Cell<u64> = const { Cell::new(0) };
}

fn free(bytes: usize) {
    let _ = FREED.try_with(|c| c.set(c.get() + bytes as u64));
}

fn count(bytes: usize) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every method forwards to the system allocator unchanged; the
// counter is a const-initialised thread-local with no destructor, so
// bumping it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        free(layout.size());
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        free(layout.size());
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations made on this thread while `f` runs.
fn allocations(f: impl FnOnce()) -> u64 {
    allocated(f).0
}

/// Heap allocations and bytes allocated on this thread while `f` runs.
/// A reallocation counts its new size.
fn allocated(f: impl FnOnce()) -> (u64, u64) {
    let before = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    f();
    (
        ALLOCS.with(Cell::get) - before.0,
        BYTES.with(Cell::get) - before.1,
    )
}

/// 64 KB: eight times the 8 KB direct-mapped L1, so a 32-byte-stride
/// sweep misses and fills on every load.
const SWEEP: u64 = 64 * 1024;

/// One local op of the steady-state mix on PE 0, in groups of eight:
/// four loads sweep at line stride (every one an L1 miss and fill), then
/// four stores fill one line of a second region word by word, so stores
/// issued back to back merge into the youngest write-buffer entry, and
/// entries retire to memory while the loads advance the clock.
fn local_op(cpu: &mut Cpu, i: u64) {
    let (group, k) = (i / 8, i % 8);
    if k < 4 {
        let _ = cpu.ld8(((group * 4 + k) * 32) % SWEEP);
    } else {
        cpu.st8(SWEEP + (group * 32 + (k - 4) * 8) % SWEEP, i);
    }
}

fn machine() -> Machine {
    let mut m = Machine::new(MachineConfig::t3d(16));
    // Profiling off whatever the environment says: counters are state
    // this test does not measure.
    m.set_perf_mode(PerfMode::Off);
    m
}

#[test]
fn steady_state_local_loads_and_stores_never_allocate() {
    let mut m = machine();
    let mut cpu = Cpu::new(&mut m, 0);
    // Warm-up: one full pass over the store region (and four over the
    // load sweep) commits every arena chunk the mix touches and grows the
    // port's reusable buffers to their working size.
    for i in 0..(SWEEP / 32) * 8 {
        local_op(&mut cpu, i);
    }
    let before = cpu.node().port.stats();
    let n = 100_000u64;
    let groups = n / 8;
    let allocs = allocations(|| {
        for i in 0..n {
            local_op(&mut cpu, i);
        }
    });
    let stats = cpu.node().port.stats();
    let misses = stats.l1_misses - before.l1_misses;
    let merges = stats.wbuf_merges - before.wbuf_merges;
    assert_eq!(misses, n / 2, "every load missed and filled L1");
    assert!(merges >= groups, "stores merged: {merges}");
    println!("{misses} L1 fills, {merges} write-buffer merges");
    // Retired entries reached memory: the last store is visible once the
    // buffer drains.
    cpu.memory_barrier();
    let last = n - 1;
    assert_eq!(m.peek8(0, SWEEP + (last / 8 * 32 + 24) % SWEEP), last);
    assert_eq!(allocs, 0, "{n} steady-state local ops allocated");
}

#[test]
fn remote_loads_and_fenced_remote_stores_rarely_allocate() {
    let mut m = machine();
    let mut cpu = Cpu::new(&mut m, 0);
    cpu.annex_set(1, 1, FuncCode::Uncached);
    let op = |cpu: &mut Cpu, i: u64| {
        let va = cpu.va(1, (i * 8) % SWEEP);
        match i % 4 {
            0 | 1 => {
                let _ = cpu.ld8(va);
            }
            2 => cpu.st8(va, i),
            _ => {
                cpu.st8(va, i);
                cpu.memory_barrier();
            }
        }
    };
    for i in 0..10_000 {
        op(&mut cpu, i);
    }
    cpu.wait_write_acks();
    let n = 100_000u64;
    let allocs = allocations(|| {
        for i in 0..n {
            op(&mut cpu, i);
            if i % 1000 == 999 {
                cpu.wait_write_acks();
            }
        }
    });
    println!("{allocs} allocations over {n} remote ops");
    assert!(
        allocs * 1000 < n,
        "{allocs} allocations over {n} remote ops (limit: under 1 per 1,000)"
    );
    assert_eq!(m.node(0).ops[OpKind::StRemote], (10_000 + n) / 2);
}

/// A machine with torus-link and shell contention modelled.
fn link_contended(pes: u32) -> Machine {
    let mut m = Machine::new(MachineConfig::t3d_link_contended(pes));
    m.set_perf_mode(PerfMode::Off);
    m
}

#[test]
fn link_contended_fetch_inc_never_allocates() {
    let mut m = link_contended(64);
    let target = 37;
    let round = |m: &mut Machine| {
        (0..m.nodes())
            .filter(|&pe| pe != target)
            .fold(0u64, |acc, pe| {
                acc.wrapping_add(Cpu::new(m, pe).fetch_inc(target, 0))
            })
    };
    let _ = round(&mut m);
    let rounds = 50u64;
    let allocs = allocations(|| {
        for _ in 0..rounds {
            let _ = round(&mut m);
        }
    });
    assert_eq!(m.node(target).fetchinc.get(0), (rounds + 1) * 63);
    assert_eq!(allocs, 0, "{} fetch&increments allocated", rounds * 63);
}

#[test]
fn link_contended_fetch_inc_switching_target_never_allocates() {
    // Each PE alternates between two targets, so every op misses its
    // route memo and refills it from the torus; the warm-up round sizes
    // each PE's memo.
    let mut m = link_contended(64);
    let n = m.nodes();
    let round = |m: &mut Machine| {
        (0..n)
            .flat_map(|pe| [(pe, (pe + 1) % n), (pe, (pe + n / 2) % n)])
            .fold(0u64, |acc, (pe, target)| {
                acc.wrapping_add(Cpu::new(m, pe).fetch_inc(target, 0))
            })
    };
    let _ = round(&mut m);
    let rounds = 50u64;
    let allocs = allocations(|| {
        for _ in 0..rounds {
            let _ = round(&mut m);
        }
    });
    assert_eq!(m.node(1).fetchinc.get(0), (rounds + 1) * 2);
    assert_eq!(
        allocs,
        0,
        "{} target-switching fetch&increments allocated",
        rounds * 128
    );
}

#[test]
fn direct_contiguous_blts_never_allocate() {
    let mut m = link_contended(16);
    for pe in 0..16 {
        m.poke_mem(pe, 0x2000, &[pe as u8 + 1; 8192]);
    }
    for dir in [BltDirection::Write, BltDirection::Read] {
        let sweep = |m: &mut Machine| {
            for pe in 0..16 {
                let mut cpu = Cpu::new(m, pe);
                let h = cpu.blt_start(dir, 0x2000, (pe + 8) % 16, 0x8000, 8192);
                cpu.blt_wait(h);
            }
        };
        // The first sweep commits the landing chunks.
        sweep(&mut m);
        let allocs = allocations(|| {
            for _ in 0..20 {
                sweep(&mut m);
            }
        });
        assert_eq!(allocs, 0, "320 direct {dir:?} BLTs allocated");
    }
    assert_eq!(m.peek8(3, 0x8000), u64::from_le_bytes([12; 8]));
    assert_eq!(m.peek8(3, 0x2000), u64::from_le_bytes([4; 8]));
}

#[test]
fn splitc_driver_steps_never_allocate() {
    let mut sc = SplitC::new(MachineConfig::t3d(32));
    sc.machine().set_perf_mode(PerfMode::Off);
    let (off, scratch, data) = (sc.alloc(8, 8), sc.alloc(8, 8), sc.alloc(256, 8));
    for pe in 0..32 {
        sc.machine().poke8(pe, off, pe as u64 + 1);
    }
    let step = |sc: &mut SplitC| {
        sc.barrier();
        // One primitive of each family. The get table keeps its
        // capacity across drains. With recording and the sanitizer off,
        // the event log must not allocate either.
        sc.run_phase(|ctx| {
            let right = GlobalPtr::new(((ctx.pe() + 1) % ctx.nodes()) as u32, data);
            let v = ctx.read_u64(right);
            ctx.write_u64(right, v);
            ctx.put(right.local_add(8), v);
            ctx.get(data + 200, right.local_add(24));
            ctx.sync();
            ctx.store_u64(right.local_add(16), v);
            ctx.bulk_put(right.local_add(128), data + 64, 64);
        });
        sc.all_reduce_u64(off, scratch, u64::max)
    };
    // Warm-up grows the reusable buffers (acknowledgement trackers,
    // write-buffer sinks, arrival logs) to their working size.
    let _ = step(&mut sc);
    let mut allocs = 0;
    for _ in 0..20 {
        allocs += allocations(|| assert_eq!(step(&mut sc), 32));
    }
    // `T3D_SAN` switches the sanitizer on whatever the configuration
    // says, and its event logs do grow.
    if sc.sanitizer().is_none() {
        assert_eq!(allocs, 0, "20 barrier + phase + all-reduce steps allocated");
    }
}

#[test]
fn construction_heap_bytes_per_pe_do_not_grow_with_the_machine() {
    for (arm, cfg) in [
        ("plain", MachineConfig::t3d as fn(u32) -> _),
        ("link-contended", MachineConfig::t3d_link_contended),
    ] {
        let per_pe = |pes: u32| {
            let mut m = None;
            let (_, bytes) = allocated(|| m = Some(Machine::new(cfg(pes))));
            bytes / u64::from(pes)
        };
        let (small, big) = (per_pe(8), per_pe(1024));
        println!("{arm}: {small} heap bytes per PE at 8 PEs, {big} at 1024");
        assert!(
            big * 4 <= small * 5,
            "{arm}: {big} bytes per PE at 1024 PEs, over 1.25x the {small} at 8 PEs"
        );
        assert!(
            big < REGION_BYTES as u64,
            "{arm}: {big} bytes per PE, an arena region's worth or more"
        );
    }
}

/// Bytes each PE's snapshot region covers in the pins below: 40 KB.
const SNAP_REGION: u64 = 0xA000;

#[test]
fn snapshot_of_an_all_zero_region_costs_per_pe_not_per_byte() {
    const PES: u32 = 1024;
    let mut m = link_contended(PES);
    // Half the PEs have committed the region's chunk, holding zeros.
    for pe in (0..PES as usize).step_by(2) {
        m.poke_mem(pe, 0, &[0]);
    }
    let mut fnv = 0;
    let (allocs, bytes) = allocated(|| fnv = m.snapshot_region(0, SNAP_REGION).fnv64());
    println!("{allocs} allocations, {bytes} bytes for a {PES}-PE all-zero snapshot");
    let per_pe = bytes / u64::from(PES);
    assert!(
        per_pe <= 64,
        "{per_pe} bytes per PE allocated (the region is {SNAP_REGION} bytes)"
    );
    let zero = Machine::new(MachineConfig::t3d(PES)).snapshot_region(0, SNAP_REGION);
    assert_eq!(fnv, zero.fnv64());
}

#[test]
fn snapshot_after_a_neighbour_exchange_costs_the_written_spans() {
    const PES: usize = 1024;
    const SPAN: u64 = 64;
    let mut m = link_contended(PES as u32);
    // Each PE's right neighbour stores eight words into it, as the
    // scale sweep's ring exchange does.
    for pe in 0..PES {
        let mut cpu = Cpu::new(&mut m, pe);
        cpu.annex_set(1, ((pe + 1) % PES) as u32, FuncCode::Uncached);
        for i in 0..SPAN / 8 {
            let va = cpu.va(1, 0x1000 + i * 8);
            cpu.st8(va, ((pe as u64) << 8) | i | 1);
        }
        cpu.memory_barrier();
        cpu.wait_write_acks();
    }
    let mut snap = None;
    let (_, bytes) = allocated(|| snap = Some(m.snapshot_region(0, SNAP_REGION)));
    let snap = snap.expect("snapshot taken");
    println!("{bytes} bytes for a {PES}-PE snapshot of {SPAN} written bytes per PE");
    let per_pe = bytes / PES as u64;
    assert!(
        per_pe <= SPAN + 64,
        "{per_pe} bytes per PE allocated for {SPAN} written bytes per PE"
    );
    let left = PES - 1;
    assert_eq!(snap.word(0, 0x1000 / 8), ((left as u64) << 8) | 1);
}

#[test]
fn store_sync_arrival_queries_never_allocate() {
    let mut m = machine();
    let mut cpu = Cpu::new(&mut m, 0);
    cpu.annex_set(1, 1, FuncCode::Uncached);
    for i in 0..256u64 {
        let va = cpu.va(1, i * 8);
        cpu.st8(va, i);
    }
    cpu.memory_barrier();
    cpu.wait_write_acks();
    let logged: u64 = m.node(1).arrivals().map(|(_, b)| b).sum();
    assert_eq!(logged, 256 * 8);
    let mut last = None;
    let allocs = allocations(|| {
        for target in (0..=logged).step_by(8) {
            last = m.node(1).arrival_time_of(target);
        }
    });
    assert!(last.is_some(), "every logged byte arrived");
    assert_eq!(allocs, 0, "{} storeSync queries allocated", logged / 8 + 1);
}

#[test]
fn arrival_folds_never_allocate() {
    let mut m = machine();
    let mut cpu = Cpu::new(&mut m, 0);
    cpu.annex_set(1, 1, FuncCode::Uncached);
    for i in 0..256u64 {
        let va = cpu.va(1, i * 8);
        cpu.st8(va, i);
    }
    cpu.memory_barrier();
    cpu.wait_write_acks();
    let last = m.node(1).arrivals().last().expect("arrivals logged").0;
    // PE 1's clock walks past the arrivals in steps, folding each time.
    let allocs = allocations(|| {
        let mut cpu = Cpu::new(&mut m, 1);
        while cpu.clock() <= last {
            cpu.advance(16);
            cpu.fold_arrivals();
        }
    });
    assert_eq!(m.node(1).arrivals().count(), 1, "every arrival folded");
    assert_eq!(m.node(1).arrival_time_of(256 * 8), Some(last));
    assert_eq!(allocs, 0, "arrival folds allocated");
}

#[test]
fn streamed_region_checksum_never_allocates() {
    const PES: usize = 1024;
    let mut m = link_contended(PES as u32);
    for pe in (0..PES).step_by(3) {
        m.poke_mem(pe, 0x1000 + pe as u64 * 8, &[pe as u8 | 1; 24]);
    }
    let mut fnv = 0;
    let allocs = allocations(|| fnv = m.region_fnv64(0, SNAP_REGION));
    assert_eq!(fnv, m.snapshot_region(0, SNAP_REGION).fnv64());
    assert_eq!(allocs, 0, "a {PES}-PE streamed checksum allocated");
}

#[test]
fn a_dropped_arena_frees_every_byte_it_committed() {
    for writes in [
        &[][..],
        &[0][..],
        &[5, 1 << 20, (16 << 20) - 1],
        &[3 << 20, 7],
    ] {
        let freed = FREED.with(Cell::get);
        let (_, bytes) = allocated(|| {
            let a = MemArena::new(16 << 20);
            for &at in writes {
                a.set(at, 1);
            }
            drop(a);
        });
        let freed = FREED.with(Cell::get) - freed;
        assert_eq!(freed, bytes, "writes at {writes:?}");
    }
}
