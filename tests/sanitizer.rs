//! t3dsan corpus: every hazard from `tests/hazards.rs` must be flagged
//! with its expected kind, and properly synchronized programs must stay
//! silent — under both the sequential and parallel phase drivers.

use splitc::{AnnexPolicy, DiagKind, GlobalLock, GlobalPtr, SanitizeMode, SplitC, SplitcConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use t3d_machine::{Cpu, Machine, MachineConfig, PhaseDriver, Tracer};
use t3d_shell::FuncCode;

fn collect(nodes: u32) -> SplitC {
    let mut cfg = SplitcConfig::t3d();
    cfg.sanitize = SanitizeMode::Collect;
    SplitC::with_config(MachineConfig::t3d(nodes), cfg)
}

fn report(sc: &SplitC) -> splitc::Report {
    sc.san_report().expect("sanitizer is on")
}

// ---------------------------------------------------------------------
// Positive corpus: each documented hazard, with its expected kind.
// ---------------------------------------------------------------------

/// Section 5: a put nobody sync()ed, read by its target.
#[test]
fn unsynced_put_is_a_stale_store_read() {
    let mut sc = collect(2);
    let cell = sc.alloc(8, 8);
    sc.on(0, |ctx| ctx.put(GlobalPtr::new(1, cell), 7));
    sc.on(1, |ctx| {
        let _ = ctx.read_u64(GlobalPtr::new(1, cell));
    });
    let r = report(&sc);
    assert_eq!(r.kinds(), vec![DiagKind::StaleStoreRead]);
    assert!(r.diagnostics[0].detail.contains("sync()"), "{r:?}");
}

/// Section 7: a signaling store read before the target's storeSync.
#[test]
fn store_without_store_sync_is_flagged_and_store_sync_clears_it() {
    let mut sc = collect(2);
    let cell = sc.alloc(16, 8);
    sc.on(0, |ctx| {
        ctx.store_u64(GlobalPtr::new(1, cell), 1);
        ctx.ops().memory_barrier(); // flush so arrival is logged
    });
    sc.on(1, |ctx| {
        let _ = ctx.read_u64(GlobalPtr::new(1, cell)); // too early
    });
    assert_eq!(report(&sc).kinds(), vec![DiagKind::StaleStoreRead]);

    // The disciplined version stays at one diagnostic site.
    sc.on(1, |ctx| {
        ctx.store_sync(8);
        let _ = ctx.read_u64(GlobalPtr::new(1, cell));
    });
    assert_eq!(report(&sc).len(), 1, "{}", report(&sc).render_table());
}

/// Section 4.4: a cached line surviving the owner's update.
#[test]
fn stale_cached_line_is_flagged_until_flushed() {
    let mut sc = collect(2);
    let cell = sc.alloc(8, 8);
    sc.on(0, |ctx| {
        let _ = ctx.read_u64_cached(GlobalPtr::new(1, cell));
    });
    sc.on(1, |ctx| ctx.write_u64(GlobalPtr::new(1, cell), 11));
    sc.on(0, |ctx| {
        let _ = ctx.read_u64_cached(GlobalPtr::new(1, cell)); // stale line
    });
    let r = report(&sc);
    assert_eq!(r.kinds(), vec![DiagKind::StaleStoreRead]);
    assert!(r.diagnostics[0].detail.contains("flush_remote_line"));

    // Flush, re-read: no new site.
    sc.on(0, |ctx| {
        ctx.flush_remote_line(GlobalPtr::new(1, cell));
        let _ = ctx.read_u64_cached(GlobalPtr::new(1, cell));
    });
    assert_eq!(report(&sc).len(), 1);
}

/// Section 4.5: two PEs read-modify-write one word with no ordering.
#[test]
fn unordered_writes_to_one_word_are_conflicting_puts() {
    let mut sc = collect(4);
    let word = sc.alloc(8, 8);
    sc.on(1, |ctx| ctx.write_u64(GlobalPtr::new(0, word), 0xAA));
    sc.on(2, |ctx| ctx.write_u64(GlobalPtr::new(0, word), 0xBB00));
    assert_eq!(report(&sc).kinds(), vec![DiagKind::ConflictingPuts]);
}

/// Section 4.5 (the repair): the same updates through the AM-based byte
/// write are ordered by the queue and stay silent.
#[test]
fn byte_write_repair_is_silent() {
    let mut sc = collect(4);
    let word = sc.alloc(8, 8);
    sc.on(1, |ctx| ctx.byte_write(GlobalPtr::new(0, word), 0xAA));
    sc.on(2, |ctx| ctx.byte_write(GlobalPtr::new(0, word + 1), 0xBB));
    sc.barrier();
    assert_eq!(sc.machine().peek8(0, word), 0xBBAA);
    assert!(report(&sc).is_empty(), "{}", report(&sc).render_table());
}

/// Section 5: reading a get's landing word before sync().
#[test]
fn landing_word_read_before_sync_is_flagged() {
    let mut sc = collect(2);
    let src = sc.alloc(8, 8);
    let dst = sc.alloc(8, 8);
    sc.on(0, |ctx| {
        ctx.get(dst, GlobalPtr::new(1, src));
        let _ = ctx.read_u64(GlobalPtr::new(0, dst)); // undefined until sync
        ctx.sync();
    });
    assert_eq!(report(&sc).kinds(), vec![DiagKind::ReadBeforeGetSync]);
}

/// Section 5.2: a get completed after a store clobbered its source — the
/// popped value predates the store.
#[test]
fn store_to_a_bound_gets_source_is_prefetch_order_misuse() {
    let mut sc = collect(2);
    let src = sc.alloc(8, 8);
    let dst = sc.alloc(8, 8);
    sc.on(0, |ctx| {
        ctx.get(dst, GlobalPtr::new(1, src));
        ctx.put(GlobalPtr::new(1, src), 99); // spoils the bound get
        ctx.sync();
    });
    assert!(report(&sc).kinds().contains(&DiagKind::PrefetchOrderMisuse));
}

/// Section 3.4: the UnsafeMulti synonym trap, via the runtime's own
/// round-robin register allocation.
#[test]
fn unsafe_multi_policy_trips_the_synonym_hazard() {
    let mut cfg = SplitcConfig::t3d();
    cfg.annex_policy = AnnexPolicy::UnsafeMulti;
    cfg.sanitize = SanitizeMode::Collect;
    let mut sc = SplitC::with_config(MachineConfig::t3d(2), cfg);
    let cell = sc.alloc(8, 8);
    sc.on(0, |ctx| {
        ctx.store_u64(GlobalPtr::new(1, cell), 2); // buffered via reg a
        let _ = ctx.read_u64(GlobalPtr::new(1, cell)); // read via reg b
    });
    assert!(report(&sc).kinds().contains(&DiagKind::AnnexSynonymHazard));
}

/// The same program under the hashed policy maps PE 1 to one register:
/// no synonym (the store is still un-synced, which is a separate,
/// correctly-reported staleness).
#[test]
fn hashed_policy_never_trips_the_synonym_hazard() {
    let mut cfg = SplitcConfig::t3d();
    cfg.annex_policy = AnnexPolicy::HashedMulti;
    cfg.sanitize = SanitizeMode::Collect;
    let mut sc = SplitC::with_config(MachineConfig::t3d(8), cfg);
    let cell = sc.alloc(64, 8);
    sc.on(0, |ctx| {
        for t in 1..8u32 {
            ctx.write_u64(GlobalPtr::new(t, cell), t as u64);
            let _ = ctx.read_u64(GlobalPtr::new(t, cell));
        }
    });
    assert!(report(&sc).is_empty(), "{}", report(&sc).render_table());
}

/// Sections 4.3/4.5 at the machine level: the trace scan catches the
/// status-bit poll with buffered writes, the raw synonym access, and a
/// buffered local store read remotely.
#[test]
fn trace_scan_flags_the_raw_machine_hazards() {
    let mut m = Machine::new(MachineConfig::t3d(2));
    m.enable_trace(Tracer::env_cap(1024));
    Cpu::new(&mut m, 0).annex_set(1, 1, FuncCode::Uncached);
    Cpu::new(&mut m, 0).annex_set(2, 1, FuncCode::Uncached);
    Cpu::new(&mut m, 1).st8(0x200, 99); // PE 1 buffers a local store
    let mut cpu = Cpu::new(&mut m, 0);
    cpu.st8(cpu.va(1, 0x100), 7); // PE 0 buffers a remote store via reg 1
    let _ = cpu.poll_status(); // 4.3: poll without a fence
    let _ = cpu.ld8(cpu.va(2, 0x100)); // 3.4: read through the synonym
    let _ = cpu.ld8(cpu.va(1, 0x200)); // 4.5: sees PE 1's buffer bypass
    let r = t3dsan::trace_scan::scan_trace(&m);
    assert!(r.kinds().contains(&DiagKind::StaleStoreRead));
    assert!(r.kinds().contains(&DiagKind::AnnexSynonymHazard));
    assert!(r
        .diagnostics
        .iter()
        .any(|d| d.detail.contains("status bit")));
}

// ---------------------------------------------------------------------
// Panic mode and crash-consistency (the phase-abort satellite).
// ---------------------------------------------------------------------

/// Panic mode aborts at the phase boundary, after the node runtime has
/// been restored: pending counters drain and further phases run.
#[test]
fn panic_mode_abort_leaves_the_runtime_usable() {
    let mut cfg = SplitcConfig::t3d();
    cfg.sanitize = SanitizeMode::Panic;
    let mut sc = SplitC::with_config(MachineConfig::t3d(2), cfg);
    let src = sc.alloc(8, 8);
    let dst = sc.alloc(8, 8);
    let r = catch_unwind(AssertUnwindSafe(|| {
        sc.on(0, |ctx| {
            ctx.get(dst, GlobalPtr::new(1, src));
            let _ = ctx.read_u64(GlobalPtr::new(0, dst)); // hazard
        });
    }));
    let msg = *r
        .expect_err("panic mode must abort")
        .downcast::<String>()
        .unwrap();
    assert!(msg.contains("t3dsan"), "panic names the analyzer: {msg}");
    assert!(msg.contains("ReadBeforeGetSync"), "{msg}");

    // No poisoned shards: the interrupted get drains at the next sync
    // and a clean phase passes the next check.
    sc.on(0, |ctx| {
        ctx.sync();
        assert_eq!(ctx.gets_outstanding(), 0);
    });
    sc.barrier();
}

/// A user panic inside a phase body also restores the runtime before
/// propagating, under both `on` and the sharded phase engine.
#[test]
fn user_panics_leave_the_runtime_usable() {
    let mut sc = SplitC::new(MachineConfig::t3d(2));
    let cell = sc.alloc(8, 8);
    let r = catch_unwind(AssertUnwindSafe(|| {
        sc.on(0, |ctx| {
            ctx.put(GlobalPtr::new(1, cell), 1);
            panic!("user bug");
        })
    }));
    assert!(r.is_err());
    sc.on(0, |ctx| ctx.sync()); // the orphaned put completes
    assert_eq!(sc.machine().peek8(1, cell), 1);

    let r = catch_unwind(AssertUnwindSafe(|| {
        sc.par_phase_with(PhaseDriver::Seq, |ctx| {
            if ctx.pe() == 1 {
                panic!("user bug in a phase");
            }
        });
    }));
    assert!(r.is_err());
    // The runtime vector was restored: further phases execute.
    sc.par_phase_with(PhaseDriver::Seq, |ctx| {
        let _ = ctx.read_u64(GlobalPtr::new(1, cell));
    });
    sc.barrier();
}

// ---------------------------------------------------------------------
// Negative corpus + driver determinism.
// ---------------------------------------------------------------------

/// Properly synchronized split-phase traffic is silent under both
/// drivers.
#[test]
fn clean_programs_are_silent_under_both_drivers() {
    for driver in [PhaseDriver::Seq, PhaseDriver::Par(2)] {
        let mut cfg = SplitcConfig::t3d();
        cfg.sanitize = SanitizeMode::Collect;
        let mut sc = SplitC::with_config(MachineConfig::t3d(4), cfg);
        let cell = sc.alloc(4 * 8, 8);
        let dst = sc.alloc(4 * 8, 8);

        // puts + sync + barrier, then reads.
        sc.par_phase_with(driver, |ctx| {
            let right = ((ctx.pe() + 1) % ctx.nodes()) as u32;
            ctx.put(GlobalPtr::new(right, cell + ctx.pe() as u64 * 8), 7);
            ctx.sync();
        });
        sc.barrier();
        sc.par_phase_with(driver, |ctx| {
            let left = (ctx.pe() + ctx.nodes() - 1) % ctx.nodes();
            let gp = GlobalPtr::new(ctx.pe() as u32, cell + left as u64 * 8);
            assert_eq!(ctx.read_u64(gp), 7);
        });
        sc.barrier();

        // gets + sync, then the landing words.
        sc.par_phase_with(driver, |ctx| {
            let right = ((ctx.pe() + 1) % ctx.nodes()) as u32;
            let land = dst + ctx.pe() as u64 * 8;
            ctx.get(land, GlobalPtr::new(right, cell));
            ctx.sync();
            let _ = ctx.read_u64(GlobalPtr::new(ctx.pe() as u32, land));
        });
        sc.barrier();

        // signaling stores + allStoreSync, then reads.
        sc.par_phase_with(driver, |ctx| {
            let right = ((ctx.pe() + 1) % ctx.nodes()) as u32;
            ctx.store_u64(GlobalPtr::new(right, cell + ctx.pe() as u64 * 8), 9);
        });
        sc.all_store_sync();
        sc.par_phase_with(driver, |ctx| {
            let left = (ctx.pe() + ctx.nodes() - 1) % ctx.nodes();
            let gp = GlobalPtr::new(ctx.pe() as u32, cell + left as u64 * 8);
            assert_eq!(ctx.read_u64(gp), 9);
        });

        let r = report(&sc);
        assert!(r.is_empty(), "driver {driver:?}:\n{}", r.render_table());
        assert!(r.events_processed > 0, "the analyzer did see the events");
    }
}

/// Lock hand-off is a happens-before edge: serialized critical sections
/// over one word are not conflicting writes.
#[test]
fn lock_ordered_critical_sections_are_silent() {
    let mut sc = collect(4);
    let lock_off = sc.alloc(8, 8);
    let counter = sc.alloc(8, 8);
    let lock = GlobalLock::new(GlobalPtr::new(0, lock_off));
    for pe in 0..4 {
        sc.on(pe, |ctx| {
            assert!(ctx.lock_try_acquire(lock));
            let v = ctx.read_u64(GlobalPtr::new(0, counter));
            ctx.write_u64(GlobalPtr::new(0, counter), v + 1);
            ctx.lock_release(lock);
        });
    }
    assert_eq!(sc.machine().peek8(0, counter), 4);
    assert!(report(&sc).is_empty(), "{}", report(&sc).render_table());
}

/// The same unlocked counter updates ARE flagged: without the lock the
/// two writes race.
#[test]
fn unlocked_counter_updates_are_flagged() {
    let mut sc = collect(4);
    let counter = sc.alloc(8, 8);
    for pe in 0..2 {
        sc.on(pe, |ctx| {
            let v = ctx.read_u64(GlobalPtr::new(0, counter));
            ctx.write_u64(GlobalPtr::new(0, counter), v + 1);
        });
    }
    assert!(report(&sc).kinds().contains(&DiagKind::ConflictingPuts));
}

/// The sanitizer's verdict — and its rendered report, byte for byte —
/// is identical under the sequential and parallel phase drivers.
#[test]
fn hazard_reports_are_bit_identical_across_drivers() {
    let run = |driver: PhaseDriver| {
        let mut cfg = SplitcConfig::t3d();
        cfg.sanitize = SanitizeMode::Collect;
        let mut sc = SplitC::with_config(MachineConfig::t3d(4), cfg);
        let cell = sc.alloc(4 * 8, 8);
        // Every PE puts to its right neighbour; nobody syncs.
        sc.par_phase_with(driver, |ctx| {
            let right = ((ctx.pe() + 1) % ctx.nodes()) as u32;
            ctx.put(GlobalPtr::new(right, cell + ctx.pe() as u64 * 8), 1);
        });
        // Everyone reads the word its left neighbour targeted: stale.
        sc.par_phase_with(driver, |ctx| {
            let left = (ctx.pe() + ctx.nodes() - 1) % ctx.nodes();
            let gp = GlobalPtr::new(ctx.pe() as u32, cell + left as u64 * 8);
            let _ = ctx.read_u64(gp);
        });
        report(&sc).render_table()
    };
    let seq = run(PhaseDriver::Seq);
    assert!(seq.contains("StaleStoreRead"), "{seq}");
    for workers in [2, 3] {
        assert_eq!(seq, run(PhaseDriver::Par(workers)), "Par({workers})");
    }
}

/// `T3D_SAN` off by default: a config left at `Off` reports `None` and
/// the runtime carries no analyzer. (The env override is exercised by
/// the CI matrix, not here, to keep the test env-independent.)
#[test]
fn sanitizer_is_off_by_default() {
    if std::env::var("T3D_SAN").is_ok() {
        return; // the env fills in the default mode tested here
    }
    let mut sc = SplitC::new(MachineConfig::t3d(2));
    let cell = sc.alloc(8, 8);
    sc.on(0, |ctx| ctx.put(GlobalPtr::new(1, cell), 7));
    assert!(sc.san_report().is_none());
}
