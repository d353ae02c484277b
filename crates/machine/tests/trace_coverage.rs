//! Op-record audit: every architectural operation a [`Cpu`] or the
//! [`Machine`] issues is recorded exactly once, under one [`OpKind`] —
//! one count, one latency sample (profiling on) and one op-log entry
//! (logging on) per invocation, on the direct engine and inside sharded
//! phases. No silent ops, and the three records agree.
//!
//! This pins the paths that once recorded nothing: remote loads
//! satisfied by a stale L1 line, `poll_status`, `blt_wait`, `annex_set`,
//! `swap_load` and the fuzzy barrier pair. The one pinned difference:
//! a failed pop and an empty receive perform no operation, so they are
//! counted and logged but not sampled.

use t3d_machine::oplog::targets;
use t3d_machine::shell::blt::BltDirection;
use t3d_machine::shell::FuncCode;
use t3d_machine::{Cpu, LogEntry, Machine, MachineConfig, OpKind, OpStats, PerfMode, PhaseDriver};

/// Log entries of `kind` acting on `target`.
fn logged(m: &Machine, kind: OpKind, target: u32) -> usize {
    targets(m.op_log())
        .filter(|(e, t)| e.op.kind() == Some(kind) && *t == target)
        .count()
}

/// `kind`'s three records over the whole machine: `(counted, sampled,
/// logged)`.
fn records(m: &Machine, kind: OpKind) -> (u64, u64, u64) {
    let counted = (0..m.nodes()).map(|pe| m.op_stats(pe)[kind]).sum();
    let sampled = (0..m.nodes())
        .map(|pe| m.node(pe).perf.hists().unwrap().get(kind).count())
        .sum();
    let logged = m.op_log().iter().filter(|e| e.op.kind() == Some(kind));
    (counted, sampled, logged.count() as u64)
}

/// A two-PE machine with profiling and logging both on.
fn recording_machine() -> Machine {
    let mut m = Machine::new(MachineConfig::t3d(2));
    m.set_perf_mode(PerfMode::Counters);
    m.log_ops(true);
    m
}

#[test]
fn every_op_is_counted_sampled_and_logged_exactly_once() {
    let mut m = recording_machine();
    let mut expected = 0usize;

    // Annex updates (3: two load flavours plus the swap flavour later).
    let mut cpu = Cpu::new(&mut m, 0);
    cpu.annex_set(1, 1, FuncCode::Uncached);
    cpu.annex_set(2, 1, FuncCode::Cached);
    cpu.annex_set(3, 1, FuncCode::Swap);
    expected += 3;
    assert_eq!(logged(&m, OpKind::AnnexSet, 1), 3);

    // Loads: local, remote uncached, remote cached (fill), and the
    // once-silent path — a remote load satisfied by the resident line.
    let mut cpu = Cpu::new(&mut m, 0);
    let _ = cpu.ld8(0x40);
    let _ = cpu.ld8(cpu.va(1, 0x100));
    let _ = cpu.ld8(cpu.va(2, 0x200));
    let _ = cpu.ld8(cpu.va(2, 0x200)); // L1 hit: early return must still record
    expected += 4;
    assert_eq!(logged(&m, OpKind::LdLocal, 0), 1);
    assert_eq!(
        logged(&m, OpKind::LdRemote, 1),
        3,
        "the L1-hit early return must record a remote load too"
    );

    // Stores: one local, one remote.
    let mut cpu = Cpu::new(&mut m, 0);
    cpu.st8(0x48, 7);
    cpu.st8(cpu.va(1, 0x108), 9);
    expected += 2;
    assert_eq!(logged(&m, OpKind::StLocal, 0), 1);
    assert_eq!(logged(&m, OpKind::StRemote, 1), 1);

    // Fence / status machinery.
    let mut cpu = Cpu::new(&mut m, 0);
    cpu.memory_barrier();
    let _ = cpu.poll_status();
    cpu.wait_write_acks();
    expected += 3;
    assert_eq!(logged(&m, OpKind::Fence, 0), 1);
    assert_eq!(logged(&m, OpKind::StatusPoll, 0), 1);
    assert_eq!(logged(&m, OpKind::AckWait, 0), 1);

    // Prefetch issue + pop (fence in between so the pop succeeds).
    let mut cpu = Cpu::new(&mut m, 0);
    assert!(cpu.fetch(cpu.va(1, 0x300)));
    cpu.memory_barrier();
    let _ = cpu.pop_prefetch().unwrap();
    expected += 3; // fetch + fence + pop
    assert_eq!(logged(&m, OpKind::Fetch, 1), 1);
    assert_eq!(logged(&m, OpKind::Pop, 0), 1);

    // BLT: start (contiguous + strided) and the completion waits.
    let mut cpu = Cpu::new(&mut m, 0);
    let h = cpu.blt_start(BltDirection::Write, 0x1000, 1, 0x2000, 256);
    cpu.blt_wait(h);
    let hs = cpu.blt_start_strided(BltDirection::Read, 0x3000, 1, 0x4000, 4, 8, 64);
    cpu.blt_wait(hs);
    expected += 4;
    assert_eq!(logged(&m, OpKind::BltStart, 1), 2);
    assert_eq!(
        logged(&m, OpKind::BltWait, 0),
        2,
        "BLT completion waits must be recorded"
    );

    // Messages (advance the receiver past the arrival time first).
    Cpu::new(&mut m, 0).msg_send(1, [1, 2, 3, 4]);
    let mut rx = Cpu::new(&mut m, 1);
    rx.advance(1_000_000);
    let _ = rx.msg_receive().unwrap();
    expected += 3; // the advance is logged too, under no kind
    assert_eq!(logged(&m, OpKind::MsgSend, 1), 1);
    assert_eq!(logged(&m, OpKind::MsgRecv, 1), 1);

    // Atomics: fetch&inc, swap-register load, atomic swap.
    let mut cpu = Cpu::new(&mut m, 0);
    let _ = cpu.fetch_inc(1, 0);
    cpu.swap_load(5);
    let _ = cpu.atomic_swap(cpu.va(3, 0x400));
    expected += 3;
    assert_eq!(logged(&m, OpKind::FetchInc, 1), 1);
    assert_eq!(logged(&m, OpKind::SwapLoad, 0), 1);
    assert_eq!(logged(&m, OpKind::Swap, 1), 1);

    // Fuzzy barrier: one start per node; the end is a barrier episode.
    m.fuzzy_barrier_start(0);
    m.fuzzy_barrier_start(1);
    m.fuzzy_barrier_end_all();
    expected += 4;
    assert_eq!(logged(&m, OpKind::BarrierStart, 0), 1);
    assert_eq!(logged(&m, OpKind::BarrierStart, 1), 1);
    assert_eq!(records(&m, OpKind::Barrier).2, 2);

    // Hardware barrier: fences every node (one fence each) and records
    // one barrier episode per node.
    m.barrier_all();
    expected += 4; // 2 fences + 2 barriers on a 2-node machine
    assert_eq!(records(&m, OpKind::Barrier).2, 4);
    assert_eq!(records(&m, OpKind::Fence).2, 4);

    // The whole stream is accounted for: nothing silent, nothing extra.
    assert_eq!(m.op_log().len(), expected, "{:#?}", m.op_log());

    // Every kind was issued, and its three records agree.
    for kind in OpKind::ALL {
        let (counted, sampled, logged) = records(&m, kind);
        assert!(counted > 0, "{kind:?} was never issued");
        assert_eq!((sampled, logged), (counted, counted), "{kind:?}");
    }
}

#[test]
fn failed_pop_and_empty_receive_are_counted_and_logged_but_not_sampled() {
    // A pop that returns NotDeparted/Empty and a receive that finds no
    // message perform no operation: the sample stays op-accurate by
    // leaving them out, while the count and the log keep every attempt
    // (the allreduce patterns spin on empty receives), each logged call
    // taking no cycles.
    let mut m = recording_machine();
    let mut cpu = Cpu::new(&mut m, 0);
    assert!(cpu.pop_prefetch().is_err());
    assert!(cpu.msg_receive().is_none());
    assert!(cpu.msg_receive().is_none());
    assert_eq!(records(&m, OpKind::Pop), (1, 0, 1));
    assert_eq!(records(&m, OpKind::MsgRecv), (2, 0, 2));
    assert!(m.op_log().iter().all(|e| e.cycles == 0));
    let ops = m.perf().registry;
    assert_eq!(ops.counter("ops.pop"), 1);
    assert_eq!(ops.counter("ops.msg.recv"), 2);
    assert!(ops.hist("lat.pop").is_none());
}

/// Every PE's op counts and the op log after a sharded phase of every
/// op kind a shard may issue, under `driver`; checks every kind's count
/// against its samples and log entries.
fn sharded_records(driver: PhaseDriver) -> (Vec<OpStats>, Vec<LogEntry>) {
    let mut m = Machine::new(MachineConfig::t3d(8));
    m.set_perf_mode(PerfMode::Counters);
    m.log_ops(true);
    m.sharded_phase(driver, |cpu| {
        let pe = cpu.pe();
        let right = (pe + 1) % cpu.nodes();
        cpu.annex_set(1, right as u32, FuncCode::Uncached);
        cpu.st8(0x40, pe as u64);
        cpu.st8(cpu.va(1, 0x100), pe as u64);
        let _ = cpu.ld8(0x40);
        let _ = cpu.ld8(cpu.va(1, 0x200));
        let _ = cpu.poll_status();
        cpu.memory_barrier();
        cpu.wait_write_acks();
        let _ = cpu.fetch(cpu.va(1, 0x300));
        cpu.memory_barrier();
        let _ = cpu.pop_prefetch();
        let _ = cpu.pop_prefetch(); // empty: counted only
        let h = cpu.blt_start(BltDirection::Read, 0x1000, right, 0x2000, 64);
        cpu.blt_wait(h);
        cpu.msg_send(right, [pe as u64; 4]);
        let _ = cpu.msg_receive(); // not yet arrived: counted only
        let _ = cpu.fetch_inc(right, 0);
        cpu.swap_load(pe as u64);
        let _ = cpu.atomic_swap(0x400); // a shard swaps only locally
    });
    for kind in OpKind::ALL {
        let (counted, sampled, logged) = records(&m, kind);
        // Per PE: one empty pop and one empty receive, never sampled.
        let empty = if matches!(kind, OpKind::Pop | OpKind::MsgRecv) {
            8
        } else {
            0
        };
        assert_eq!((sampled + empty, logged), (counted, counted), "{kind:?}");
    }
    let counts = (0..m.nodes()).map(|pe| m.op_stats(pe)).collect();
    (counts, m.op_log().to_vec())
}

#[test]
fn sharded_ops_are_recorded_identically_under_every_driver() {
    let (counts, log) = sharded_records(PhaseDriver::Seq);
    assert_eq!(counts[3][OpKind::Pop], 2, "the empty pop counts");
    assert_eq!(counts[3][OpKind::Fence], 2);
    assert_eq!(counts[3][OpKind::MsgRecv], 1, "the empty receive counts");
    // One phase entry, then every shard's calls in PE order.
    assert_eq!(log[0].op, t3d_machine::CpuOp::Phase(log.len() - 1));
    assert!(log[1..].windows(2).all(|w| w[0].pe <= w[1].pe));
    assert_eq!(log.iter().filter(|e| e.pe == 3).count(), 19);
    for driver in [PhaseDriver::Par(2), PhaseDriver::Par(3)] {
        assert_eq!(
            sharded_records(driver),
            (counts.clone(), log.clone()),
            "{driver:?}"
        );
    }
}
