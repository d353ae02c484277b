//! Job-stream scheduler properties: the torus buddy allocator under an
//! exhaustive workload, trace-generation byte-identity, and the
//! cross-driver job-ledger oracle.
//!
//! The ledger test is the scheduler's analogue of the repository's
//! determinism contract: the *entire multi-tenant run* — every job's
//! dispatch time, partition placement, kernel result and completion
//! time — must be bit-identical whether kernels execute under the
//! sequential or sharded phase driver (`T3D_PAR`).

use t3d_machine::PhaseDriver;
use t3d_prng::Rng;
use t3d_sched::{run_trace, ExecEnv, GenParams, KernelCache, PartitionAllocator, SimParams, Trace};
use t3d_torus::SubCube;

/// The big test machine: 8×4×4 = 128 PEs, the same shape the subcube
/// module pins its canonical shape sequence on.
const MACHINE: (u32, u32, u32) = (8, 4, 4);

/// Exhaustive alloc/free/coalesce property drive: a seeded random
/// workload of allocations and frees, with the full invariant set
/// checked after every step — no two live blocks overlap, free +
/// allocated PEs account for the whole machine, and draining
/// everything always coalesces back to one whole-machine block.
#[test]
fn allocator_random_workload_holds_invariants() {
    for seed in 0..4u64 {
        let mut rng = Rng::seed_from_u64(0xA110C + seed);
        let mut alloc = PartitionAllocator::new(MACHINE);
        let mut live: Vec<SubCube> = Vec::new();
        for step in 0..2_000 {
            // Bias toward allocation while the machine is empty-ish,
            // toward freeing when it fills.
            let fill = alloc.allocated_pes() as f64 / alloc.total_pes() as f64;
            if live.is_empty() || rng.gen_f64() > fill {
                let pes = 1u32 << rng.gen_range(0u32..8);
                if let Some(b) = alloc.alloc(pes) {
                    assert!(b.aligned(), "step {step}: {b} misaligned");
                    assert_eq!(b.pes(), u64::from(pes), "step {step}");
                    for l in &live {
                        assert!(!l.overlaps(&b), "step {step}: {b} overlaps live {l}");
                    }
                    live.push(b);
                }
            } else {
                let i = rng.gen_range(0usize..live.len());
                alloc.free(live.swap_remove(i));
            }
            let live_pes: u64 = live.iter().map(SubCube::pes).sum();
            assert_eq!(
                alloc.allocated_pes(),
                live_pes,
                "step {step}: PE accounting"
            );
            assert_eq!(
                alloc.free_pes() + live_pes,
                alloc.total_pes(),
                "step {step}: machine accounting"
            );
        }
        // Drain: everything must coalesce back to one free block.
        for b in live.drain(..) {
            alloc.free(b);
        }
        assert_eq!(alloc.free_pes(), alloc.total_pes());
        assert_eq!(alloc.fragmentation(), 0.0, "full coalescing after drain");
        // Back to one whole block means every split was undone by
        // exactly one coalesce.
        let stats = alloc.stats();
        assert_eq!(stats.splits, stats.coalesces, "drain undoes every split");
        let whole = alloc.alloc(128).expect("whole machine reallocates");
        assert_eq!(whole.pes(), 128);
        assert_eq!(
            alloc.stats().allocs,
            stats.frees + 1,
            "drained plus final alloc"
        );
    }
}

/// Exhaustive single-order sweeps: for every order, allocating the
/// whole machine in blocks of that size tiles it exactly, and freeing
/// in *any* rotation coalesces back to one block.
#[test]
fn allocator_tiles_every_order_exhaustively() {
    for order in 0..=7u32 {
        let pes = 1u32 << order;
        let count = 128 / u64::from(pes);
        let mut alloc = PartitionAllocator::new(MACHINE);
        let blocks: Vec<SubCube> = (0..count)
            .map(|i| {
                alloc
                    .alloc(pes)
                    .unwrap_or_else(|| panic!("block {i} of order {order} must fit"))
            })
            .collect();
        assert_eq!(alloc.free_pes(), 0, "order {order} tiles the machine");
        assert!(alloc.alloc(1).is_none());
        for (i, a) in blocks.iter().enumerate() {
            for b in &blocks[i + 1..] {
                assert!(!a.overlaps(b), "order {order}: {a} overlaps {b}");
            }
        }
        // Free at a rotated starting point: coalescing must not depend
        // on free order.
        let rot = (order as usize * 7) % blocks.len().max(1);
        for i in 0..blocks.len() {
            alloc.free(blocks[(i + rot) % blocks.len()]);
        }
        assert_eq!(alloc.free_pes(), 128);
        assert_eq!(alloc.fragmentation(), 0.0, "order {order} coalesces fully");
    }
}

/// Determinism of the generator as *bytes*: the same `GenParams` yield
/// byte-identical rendered traces (the property `t3d-sched gen --seed
/// S` twice relies on), and distinct seeds diverge.
#[test]
fn generated_traces_are_byte_identical_per_seed() {
    let p = GenParams {
        jobs: 64,
        mean_interarrival_cy: 10_000,
        min_order: 1,
        max_order: 5,
        seed: 0xDE7E_0421,
    };
    let a = Trace::generate(p).render();
    let b = Trace::generate(p).render();
    assert_eq!(a, b, "same params must render byte-identically");
    let parsed = Trace::parse(&a).expect("rendered traces parse");
    assert_eq!(parsed, Trace::generate(p), "render/parse round-trips");
    let other = Trace::generate(GenParams {
        seed: 0xDE7E_0422,
        ..p
    })
    .render();
    assert_ne!(a, other, "seed must matter");
}

/// The scheduler-level determinism oracle: one short trace, scheduled
/// under both phase drivers in one process, must produce the same job
/// ledger bit for bit. This is what the CI `sched-smoke` job pins from
/// the outside; here it runs without any environment variables
/// involved.
#[test]
fn job_ledger_is_identical_across_drivers() {
    let trace = Trace::generate(GenParams {
        jobs: 8,
        mean_interarrival_cy: 20_000,
        min_order: 1,
        max_order: 2,
        seed: 0x1ED6E2,
    });
    let mut ledgers = Vec::new();
    for driver in [PhaseDriver::Seq, PhaseDriver::Par(2)] {
        let params = SimParams {
            machine: (2, 2, 1),
            backfill: true,
            env: ExecEnv::new(driver),
        };
        // A fresh cache per driver: memoisation must not leak results
        // across drivers, or the comparison proves nothing.
        let mut cache = KernelCache::new();
        let run = run_trace(&trace, &params, &mut cache);
        assert_eq!(run.outcomes.len(), trace.jobs.len());
        ledgers.push((driver, run.ledger_fnv));
    }
    let (ref_driver, reference) = ledgers[0];
    for (driver, fnv) in &ledgers {
        assert_eq!(
            *fnv, reference,
            "{driver:?} ledger diverged from {ref_driver:?}"
        );
    }
}

/// Backfill must never delay any job relative to strict FCFS on this
/// workload *and* must strictly improve at least one wait when the
/// head blocks — the scheduling-policy sanity check behind the
/// `--backfill` flag.
#[test]
fn backfill_only_moves_jobs_earlier_here() {
    let trace = Trace::generate(GenParams {
        jobs: 12,
        mean_interarrival_cy: 5_000,
        min_order: 1,
        max_order: 2,
        seed: 77,
    });
    let env = ExecEnv::from_env();
    let mut cache = KernelCache::new();
    let strict = run_trace(
        &trace,
        &SimParams {
            machine: (2, 2, 1),
            backfill: false,
            env,
        },
        &mut cache,
    );
    let filled = run_trace(
        &trace,
        &SimParams {
            machine: (2, 2, 1),
            backfill: true,
            env,
        },
        &mut cache,
    );
    // Aggressive backfill can in general delay a wide job; on this
    // small mix it should only help. Makespan must not regress.
    assert!(filled.makespan_cy <= strict.makespan_cy);
    assert!(
        filled.metrics.wait.sum() <= strict.metrics.wait.sum(),
        "backfill increased total waiting"
    );
}
