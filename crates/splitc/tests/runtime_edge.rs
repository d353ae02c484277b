//! Edge-case tests for the Split-C runtime: mixed split-phase traffic,
//! policy switching, misuse detection.

use splitc::record::RtKind;
use splitc::{AnnexPolicy, GlobalPtr, RecEvent, ScOp, SplitC, SplitcConfig, SpreadArray};
use t3d_machine::{Cpu, MachineConfig};

fn sc(p: u32) -> SplitC {
    SplitC::new(MachineConfig::t3d(p))
}

#[test]
fn mixed_gets_puts_and_bulk_complete_at_one_sync() {
    let mut s = sc(4);
    let src = s.alloc(4096, 8);
    let dst = s.alloc(4096, 8);
    for i in 0..64u64 {
        s.machine().poke8(1, src + i * 8, 100 + i);
        s.machine().poke8(2, src + i * 8, 200 + i);
    }
    s.on(0, |ctx| {
        // Interleave everything before a single sync.
        for i in 0..8u64 {
            ctx.get(dst + i * 8, GlobalPtr::new(1, src + i * 8));
        }
        ctx.put(GlobalPtr::new(3, dst), 777);
        ctx.bulk_get(dst + 64, GlobalPtr::new(2, src), 256);
        for i in 8..16u64 {
            ctx.get(dst + i * 8 + 512, GlobalPtr::new(1, src + i * 8));
        }
        ctx.sync();
    });
    Cpu::new(s.machine(), 0).memory_barrier();
    for i in 0..8u64 {
        assert_eq!(s.machine().peek8(0, dst + i * 8), 100 + i, "first gets");
    }
    for i in 0..32u64 {
        assert_eq!(s.machine().peek8(0, dst + 64 + i * 8), 200 + i, "bulk get");
    }
    for i in 8..16u64 {
        assert_eq!(
            s.machine().peek8(0, dst + i * 8 + 512),
            100 + i,
            "later gets"
        );
    }
    assert_eq!(s.machine().peek8(3, dst), 777, "put landed");
}

#[test]
fn more_gets_than_queue_depth_in_one_burst() {
    let mut s = sc(2);
    let n = 100u64;
    let src = s.alloc(n * 8, 8);
    let dst = s.alloc(n * 8, 8);
    for i in 0..n {
        s.machine().poke8(1, src + i * 8, i * 3);
    }
    s.on(0, |ctx| {
        for i in 0..n {
            ctx.get(dst + i * 8, GlobalPtr::new(1, src + i * 8));
        }
        ctx.sync();
        assert_eq!(ctx.gets_outstanding(), 0);
    });
    Cpu::new(s.machine(), 0).memory_barrier();
    for i in 0..n {
        assert_eq!(s.machine().peek8(0, dst + i * 8), i * 3, "get {i}");
    }
}

#[test]
fn sync_with_nothing_outstanding_is_cheap_and_safe() {
    let mut s = sc(2);
    s.on(0, |ctx| {
        let t0 = ctx.clock();
        ctx.sync();
        assert!(ctx.clock() - t0 < 30, "empty sync is a fence + poll");
    });
}

#[test]
fn cached_policy_pays_once_per_target_run() {
    let mut cfg = SplitcConfig::t3d();
    cfg.annex_policy = AnnexPolicy::SingleRegisterCached;
    let mut s = SplitC::with_config(MachineConfig::t3d(4), cfg);
    let buf = s.alloc(512, 8);
    let (updates, skips) = s.on(0, |ctx| {
        for i in 0..8u64 {
            let _ = ctx.read_u64(GlobalPtr::new(1, buf + i * 8));
        }
        for i in 0..8u64 {
            let _ = ctx.read_u64(GlobalPtr::new(2, buf + i * 8));
        }
        (ctx.rt().annex.updates(), ctx.rt().annex.skips())
    });
    assert_eq!(updates, 2, "one update per target run");
    assert_eq!(skips, 14);
}

#[test]
fn spread_array_roundtrip_through_runtime() {
    let mut s = sc(4);
    let n = 64u64;
    let a = SpreadArray::new(s.alloc(n * 8 / 4 + 8, 8), 8, n, 4);
    s.on(0, |ctx| {
        for i in 0..n {
            ctx.write_u64(a.gptr(i), i * i);
        }
    });
    s.barrier();
    s.run_phase(|ctx| {
        for i in a.owned_by(ctx.pe() as u32) {
            assert_eq!(ctx.ops().ld8(a.gptr(i).addr()), i * i);
        }
    });
}

#[test]
fn store_bytes_pending_tracks_arrivals() {
    let mut s = sc(2);
    let buf = s.alloc(64, 8);
    s.on(0, |ctx| {
        for i in 0..4u64 {
            ctx.store_u64(GlobalPtr::new(1, buf + i * 8), i);
        }
        ctx.ops().memory_barrier();
    });
    s.on(1, |ctx| {
        // Advance past all arrivals, then observe.
        ctx.advance(100_000);
        assert_eq!(ctx.store_bytes_pending(), 32);
        ctx.store_sync(32);
        assert_eq!(ctx.store_bytes_pending(), 0);
    });
}

#[test]
#[should_panic(expected = "not registered")]
fn unregistered_handler_panics_at_dispatch() {
    let mut s = sc(2);
    s.on(0, |ctx| ctx.am_deposit(1, 99, [0, 0, 0, 0]));
    s.on(1, |ctx| {
        ctx.am_poll();
    });
}

#[test]
fn stats_count_per_operation_kind() {
    let mut s = sc(2);
    let buf = s.alloc(256, 8);
    s.record_ops(true);
    s.on(0, |ctx| {
        let _ = ctx.read_u64(GlobalPtr::new(1, buf));
        ctx.write_u64(GlobalPtr::new(1, buf), 1);
        ctx.get(buf + 8, GlobalPtr::new(1, buf));
        ctx.put(GlobalPtr::new(1, buf + 16), 2);
        ctx.store_u64(GlobalPtr::new(1, buf + 24), 3);
        ctx.bulk_read(buf + 32, GlobalPtr::new(1, buf), 64);
        ctx.sync();
    });
    let count = |pick: fn(&ScOp) -> bool| {
        s.event_log(0)
            .iter()
            .filter(|e| matches!(e.kind, RtKind::Rec(RecEvent::Op(op)) if pick(&op)))
            .count()
    };
    assert_eq!(count(|op| matches!(op, ScOp::ReadU64 { .. })), 1);
    assert_eq!(count(|op| matches!(op, ScOp::WriteU64 { .. })), 1);
    assert_eq!(count(|op| matches!(op, ScOp::Get { .. })), 1);
    assert_eq!(count(|op| matches!(op, ScOp::Put { .. })), 1);
    assert_eq!(count(|op| matches!(op, ScOp::StoreU64 { .. })), 1);
    assert_eq!(count(|op| matches!(op, ScOp::BulkRead { .. })), 1);
}

#[test]
fn collectives_compose_with_phases() {
    // Reduce a per-node value computed in a phase, then use the result
    // in the next phase.
    let mut s = sc(8);
    let val = s.alloc(8, 8);
    let scratch = s.alloc(8, 8);
    s.run_phase(|ctx| {
        let pe = ctx.pe();
        ctx.ops().st8(val, (pe as u64 + 1) * 7);
        ctx.ops().memory_barrier();
    });
    let sum = s.all_reduce_u64(val, scratch, |a, b| a + b);
    assert_eq!(sum, (1..=8u64).map(|i| i * 7).sum::<u64>());
    s.run_phase(|ctx| {
        assert_eq!(ctx.ops().ld8(val), sum, "every node holds the total");
    });
}
