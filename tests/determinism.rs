//! Whole-application determinism: identical inputs must give identical
//! virtual timing and values, run after run — the property that makes
//! simulator-based measurement meaningful.
//!
//! The second half of this file is the parallel-driver oracle: every
//! phase that runs through the sharded engine must be bit-identical —
//! values *and* per-PE virtual clocks — whether the shards run
//! sequentially ([`PhaseDriver::Seq`]) or on threads
//! ([`PhaseDriver::Par`]).

use em3d::{run_version, run_version_with, Em3dParams, Version};
use t3d_machine::{Machine, MachineConfig, PhaseDriver};
use t3d_microbench::probes::{local, sync};
use t3d_perf::{fnv1a, fnv1a_word, FNV_OFFSET};
use t3d_shell::blt::BltDirection;
use t3d_shell::FuncCode;

#[test]
fn em3d_runs_are_bit_identical() {
    for v in [
        Version::Simple,
        Version::Put,
        Version::Bulk,
        Version::StoreSync,
    ] {
        let a = run_version(4, Em3dParams::tiny(30.0), v);
        let b = run_version(4, Em3dParams::tiny(30.0), v);
        assert_eq!(
            a.cycles,
            b.cycles,
            "{}: cycle counts differ across runs",
            v.label()
        );
        assert_eq!(a.us_per_edge, b.us_per_edge);
        assert_eq!(a.ops, b.ops);
    }
}

#[test]
fn probe_surfaces_are_bit_identical() {
    let sizes = vec![4 * 1024, 64 * 1024];
    let a = local::read_profile(&sizes, 1 << 16);
    let b = local::read_profile(&sizes, 1 << 16);
    assert_eq!(a, b);
}

#[test]
fn sync_costs_are_bit_identical() {
    assert_eq!(sync::sync_costs(), sync::sync_costs());
}

// ---------------------------------------------------------------------
// Parallel-driver oracle: Seq and Par shards must agree exactly.
// ---------------------------------------------------------------------

#[test]
fn em3d_all_versions_parallel_matches_sequential_oracle() {
    let p = Em3dParams::tiny(40.0);
    for v in Version::all() {
        let seq = run_version_with(PhaseDriver::Seq, 4, p, v);
        let par = run_version_with(PhaseDriver::Par(4), 4, p, v);
        // Em3dResult equality covers values (verified against the host
        // reference inside run_version), cycle counts, op counters and
        // the per-PE clock fingerprint.
        assert_eq!(seq, par, "{}: drivers diverged", v.label());
        assert_eq!(
            seq.clock_fnv,
            par.clock_fnv,
            "{}: per-PE virtual clocks diverged",
            v.label()
        );
    }
}

/// Full state fingerprint: every PE's clock and a hash of its first 8
/// KiB of memory.
fn fingerprint(m: &Machine) -> Vec<u64> {
    let mut fp = Vec::new();
    for pe in 0..m.nodes() {
        fp.push(m.clock(pe));
        let mut buf = vec![0u8; 8192];
        m.peek_mem(pe, 0, &mut buf);
        fp.push(fnv1a(FNV_OFFSET, &buf));
    }
    fp
}

/// Remote-store + prefetch probe (the Figure 5/6 access patterns) as a
/// bulk-synchronous phase program.
fn store_prefetch_probe(driver: PhaseDriver) -> Vec<u64> {
    let mut m = Machine::new(MachineConfig::t3d(8));
    for _ in 0..3 {
        m.sharded_phase(driver, |cpu| {
            let right = ((cpu.pe() + 1) % cpu.nodes()) as u32;
            cpu.annex_set(1, right, FuncCode::Uncached);
            for i in 0..16u64 {
                cpu.st8(cpu.va(1, 0x1000 + i * 8), (cpu.pe() as u64) << i);
            }
            cpu.memory_barrier();
            cpu.wait_write_acks();
            for i in 0..4u64 {
                cpu.fetch(cpu.va(1, 0x2000 + i * 8));
            }
            for _ in 0..4 {
                let _ = cpu.pop_prefetch();
            }
        });
        m.barrier_all();
    }
    fingerprint(&m)
}

/// Hotspot probe: every PE takes fetch&increment tickets at PE 0 and
/// messages it — maximal cross-shard effect merging.
fn hotspot_probe(driver: PhaseDriver) -> Vec<u64> {
    let mut m = Machine::new(MachineConfig::t3d(8));
    m.sharded_phase(driver, |cpu| {
        let pe = cpu.pe();
        for k in 0..8u64 {
            let _ = cpu.fetch_inc(0, 0);
            cpu.msg_send(0, [pe as u64, k, 0, 0]);
        }
    });
    m.barrier_all();
    fingerprint(&m)
}

/// Bulk-transfer probe: BLT writes around a ring (the Figure 8
/// mechanism).
fn blt_ring_probe(driver: PhaseDriver) -> Vec<u64> {
    let mut m = Machine::new(MachineConfig::t3d(8));
    for pe in 0..8 {
        for i in 0..64u64 {
            m.poke8(pe, 0x4000 + i * 8, (pe as u64) * 100 + i);
        }
    }
    m.sharded_phase(driver, |cpu| {
        let right = (cpu.pe() + 1) % cpu.nodes();
        let h = cpu.blt_start(BltDirection::Write, 0x4000, right, 0x6000, 512);
        cpu.blt_wait(h);
    });
    m.barrier_all();
    fingerprint(&m)
}

#[test]
fn probe_programs_parallel_matches_sequential_oracle() {
    for probe in [store_prefetch_probe, hotspot_probe, blt_ring_probe] {
        let seq = probe(PhaseDriver::Seq);
        for threads in [2, 5, 8] {
            assert_eq!(
                seq,
                probe(PhaseDriver::Par(threads)),
                "probe diverged from the sequential oracle at {threads} threads"
            );
        }
    }
}

#[test]
fn hundred_parallel_phases_hash_stably() {
    // Loom-free stress: 100 communication-heavy parallel phases; the
    // rolling state hash after every phase must be identical across
    // full re-runs (and to the sequential oracle). Any scheduling
    // nondeterminism in the shard pool would shift at least one hash.
    let run = |driver: PhaseDriver| {
        let mut m = Machine::new(MachineConfig::t3d(8));
        let mut hashes = Vec::with_capacity(100);
        for round in 0..100u64 {
            m.sharded_phase(driver, |cpu| {
                let n = cpu.nodes();
                let stride = 1 + (round as usize % (n - 1));
                let peer = ((cpu.pe() + stride) % n) as u32;
                cpu.annex_set(1, peer, FuncCode::Uncached);
                cpu.st8(
                    cpu.va(1, 0x800 + (round % 32) * 8),
                    round << 8 | cpu.pe() as u64,
                );
                cpu.memory_barrier();
                let _ = cpu.fetch_inc(peer as usize, 1);
            });
            m.barrier_all();
            hashes.push(fingerprint(&m).into_iter().fold(FNV_OFFSET, fnv1a_word));
        }
        hashes
    };
    let first = run(PhaseDriver::Par(8));
    assert_eq!(first, run(PhaseDriver::Par(8)), "re-run shifted a hash");
    assert_eq!(first, run(PhaseDriver::Seq), "parallel diverged from Seq");
}
