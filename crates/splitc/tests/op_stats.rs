//! Audit of the runtime's event log: a program that issues a known
//! number of primitives must be logged exactly — every Split-C
//! primitive family (rw / getput / store / bulk / amq / lock) logs one
//! entry per primitive, and nothing is logged twice.

use splitc::record::RtKind;
use splitc::{GlobalLock, GlobalPtr, RecEvent, ScOp, SplitC};
use t3d_machine::MachineConfig;

/// Node `pe`'s logged primitives, counted per family: reads, writes,
/// gets, puts, stores, bulk ops, AM deposits, lock ops.
fn counts(sc: &SplitC, pe: usize) -> [u64; 8] {
    let mut n = [0u64; 8];
    for e in sc.event_log(pe) {
        let family = match e.kind {
            RtKind::CachedRead { .. } => 0,
            RtKind::Deposit { .. } => 6,
            RtKind::Rec(RecEvent::Op(op)) => match op {
                ScOp::ReadU64 { .. } => 0,
                ScOp::WriteU64 { .. } => 1,
                ScOp::Get { .. } => 2,
                ScOp::Put { .. } => 3,
                ScOp::StoreU64 { .. } => 4,
                ScOp::BulkRead { .. }
                | ScOp::BulkWrite { .. }
                | ScOp::BulkGet { .. }
                | ScOp::BulkPut { .. }
                | ScOp::BulkReadStrided { .. }
                | ScOp::BulkWriteStrided { .. } => 5,
                ScOp::AmAdd { .. } => 6,
                ScOp::LockTryAcquire { .. } | ScOp::LockRelease { .. } => 7,
                _ => continue,
            },
            _ => continue,
        };
        n[family] += 1;
    }
    n
}

#[test]
fn every_primitive_family_is_counted_exactly() {
    let mut sc = SplitC::new(MachineConfig::t3d(4));
    let lock_off = sc.alloc(8, 8);
    let cell = sc.alloc(256, 8);
    let scratch = sc.alloc(256, 8);
    let lock = GlobalLock::new(GlobalPtr::new(2, lock_off));
    sc.record_ops(true);
    for i in 0..8u64 {
        sc.machine().poke8(1, cell + i * 8, 10 + i);
    }

    sc.on(0, |ctx| {
        // rw: 3 reads (2 uncached + 1 cached), 2 writes.
        let a = ctx.read_u64(GlobalPtr::new(1, cell));
        let b = ctx.read_u64(GlobalPtr::new(1, cell + 8));
        let c = ctx.read_u64_cached(GlobalPtr::new(1, cell + 16));
        ctx.write_u64(GlobalPtr::new(1, scratch), a + b);
        ctx.write_u64(GlobalPtr::new(3, scratch), c);
        // getput: 3 gets, 2 puts, one sync (sync is completion, not an op).
        for i in 0..3u64 {
            ctx.get(scratch + 64 + i * 8, GlobalPtr::new(1, cell + i * 8));
        }
        ctx.put(GlobalPtr::new(3, scratch + 8), 7);
        ctx.put(GlobalPtr::new(3, scratch + 16), 8);
        ctx.sync();
        // store: 2 signaling stores.
        ctx.store_u64(GlobalPtr::new(1, scratch + 32), 1);
        ctx.store_u64(GlobalPtr::new(1, scratch + 40), 2);
        // bulk: 1 bulk_read + 1 bulk_put.
        ctx.bulk_read(scratch + 96, GlobalPtr::new(1, cell), 32);
        ctx.bulk_put(GlobalPtr::new(3, scratch + 64), scratch + 96, 32);
        ctx.sync();
        // amq: 1 deposit.
        ctx.am_deposit(1, splitc::runtime::AM_ADD_U64, [scratch + 48, 5, 0, 0]);
        // lock: acquire + release = 2 lock ops.
        assert!(ctx.lock_try_acquire(lock));
        ctx.lock_release(lock);
    });

    let [reads, writes, gets, puts, stores, bulk_ops, am_deposits, lock_ops] = counts(&sc, 0);
    assert_eq!(reads, 3, "read_u64/read_u64_cached");
    assert_eq!(writes, 2, "write_u64");
    assert_eq!(gets, 3, "get");
    assert_eq!(puts, 2, "put");
    assert_eq!(stores, 2, "store_u64");
    assert_eq!(bulk_ops, 2, "bulk_read + bulk_put");
    assert_eq!(am_deposits, 1, "am_deposit");
    assert_eq!(lock_ops, 2, "lock acquire + release");
    let total: u64 = counts(&sc, 0).iter().sum();
    assert_eq!(total, 17, "no primitive escapes the audit");

    // Nothing ran on the other nodes, so nothing may be counted there.
    for pe in 1..4 {
        let total: u64 = counts(&sc, pe).iter().sum();
        assert_eq!(total, 0, "PE {pe} issued nothing");
    }
}
