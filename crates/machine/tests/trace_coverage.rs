//! Trace coverage audit: every architectural operation a [`Cpu`] or
//! the [`Machine`] issues must emit exactly one trace event per invocation — no silent ops.
//!
//! This pins the fixes for the paths that used to record nothing:
//! remote loads satisfied by a stale L1 line, `poll_status`, `blt_wait`,
//! `annex_set`, `swap_load` and the fuzzy barrier pair.

use t3d_machine::{Cpu, Machine, MachineConfig, TraceKind, Tracer};
use t3d_shell::blt::BltDirection;
use t3d_shell::FuncCode;

fn count(m: &Machine, f: impl Fn(TraceKind) -> bool) -> usize {
    m.tracer().events().filter(|e| f(e.kind)).count()
}

#[test]
fn every_architectural_op_emits_exactly_one_trace_event() {
    let mut m = Machine::new(MachineConfig::t3d(2));
    m.enable_trace(Tracer::env_cap(4096));
    let mut expected = 0usize;

    // Annex updates (3: two load flavours plus the swap flavour later).
    let mut cpu = Cpu::new(&mut m, 0);
    cpu.annex_set(1, 1, FuncCode::Uncached);
    cpu.annex_set(2, 1, FuncCode::Cached);
    cpu.annex_set(3, 1, FuncCode::Swap);
    expected += 3;
    assert_eq!(count(&m, |k| matches!(k, TraceKind::AnnexSet(1))), 3);

    // Loads: local, remote uncached, remote cached (fill), and the
    // once-silent path — a remote load satisfied by the resident line.
    let mut cpu = Cpu::new(&mut m, 0);
    let _ = cpu.ld8(0x40);
    let _ = cpu.ld8(cpu.va(1, 0x100));
    let _ = cpu.ld8(cpu.va(2, 0x200));
    let _ = cpu.ld8(cpu.va(2, 0x200)); // L1 hit: early return must still trace
    expected += 4;
    assert_eq!(count(&m, |k| matches!(k, TraceKind::LoadLocal)), 1);
    assert_eq!(
        count(&m, |k| matches!(k, TraceKind::LoadRemote(1))),
        3,
        "the L1-hit early return must emit a LoadRemote event too"
    );

    // Stores: one local, one remote.
    let mut cpu = Cpu::new(&mut m, 0);
    cpu.st8(0x48, 7);
    cpu.st8(cpu.va(1, 0x108), 9);
    expected += 2;
    assert_eq!(count(&m, |k| matches!(k, TraceKind::StoreLocal)), 1);
    assert_eq!(count(&m, |k| matches!(k, TraceKind::StoreRemote(1))), 1);

    // Fence / status machinery.
    let mut cpu = Cpu::new(&mut m, 0);
    cpu.memory_barrier();
    let _ = cpu.poll_status();
    cpu.wait_write_acks();
    expected += 3;
    assert_eq!(count(&m, |k| matches!(k, TraceKind::MemoryBarrier)), 1);
    assert_eq!(count(&m, |k| matches!(k, TraceKind::StatusPoll)), 1);
    assert_eq!(count(&m, |k| matches!(k, TraceKind::AckWait)), 1);

    // Prefetch issue + pop (fence in between so the pop succeeds).
    let mut cpu = Cpu::new(&mut m, 0);
    assert!(cpu.fetch(cpu.va(1, 0x300)));
    cpu.memory_barrier();
    let _ = cpu.pop_prefetch().unwrap();
    expected += 3; // fetch + mb + pop
    assert_eq!(count(&m, |k| matches!(k, TraceKind::Fetch(1))), 1);
    assert_eq!(count(&m, |k| matches!(k, TraceKind::Pop)), 1);

    // BLT: start (contiguous + strided) and the completion waits.
    let mut cpu = Cpu::new(&mut m, 0);
    let h = cpu.blt_start(BltDirection::Write, 0x1000, 1, 0x2000, 256);
    cpu.blt_wait(h);
    let hs = cpu.blt_start_strided(BltDirection::Read, 0x3000, 1, 0x4000, 4, 8, 64);
    cpu.blt_wait(hs);
    expected += 4;
    assert_eq!(count(&m, |k| matches!(k, TraceKind::Blt(1))), 2);
    assert_eq!(
        count(&m, |k| matches!(k, TraceKind::BltWait)),
        2,
        "BLT completion waits must be traced"
    );

    // Messages (advance the receiver past the arrival time first).
    Cpu::new(&mut m, 0).msg_send(1, [1, 2, 3, 4]);
    let mut rx = Cpu::new(&mut m, 1);
    rx.advance(1_000_000);
    let _ = rx.msg_receive().unwrap();
    expected += 2;
    assert_eq!(count(&m, |k| matches!(k, TraceKind::MsgSend(1))), 1);
    assert_eq!(count(&m, |k| matches!(k, TraceKind::MsgRecv)), 1);

    // Atomics: fetch&inc, swap-register load, atomic swap.
    let mut cpu = Cpu::new(&mut m, 0);
    let _ = cpu.fetch_inc(1, 0);
    cpu.swap_load(5);
    let _ = cpu.atomic_swap(cpu.va(3, 0x400));
    expected += 3;
    assert_eq!(count(&m, |k| matches!(k, TraceKind::FetchInc(1))), 1);
    assert_eq!(count(&m, |k| matches!(k, TraceKind::SwapLoad)), 1);
    assert_eq!(count(&m, |k| matches!(k, TraceKind::Swap(1))), 1);

    // Fuzzy barrier: one start per node, one end per node.
    m.fuzzy_barrier_start(0);
    m.fuzzy_barrier_start(1);
    m.fuzzy_barrier_end_all();
    expected += 4;
    assert_eq!(count(&m, |k| matches!(k, TraceKind::FuzzyBarrierStart)), 2);
    assert_eq!(count(&m, |k| matches!(k, TraceKind::FuzzyBarrierEnd)), 2);

    // Hardware barrier: fences every node (one MemoryBarrier each) and
    // records one Barrier episode per node.
    m.barrier_all();
    expected += 4; // 2 MemoryBarrier + 2 Barrier on a 2-node machine
    assert_eq!(count(&m, |k| matches!(k, TraceKind::Barrier)), 2);
    assert_eq!(count(&m, |k| matches!(k, TraceKind::MemoryBarrier)), 4);

    // The whole stream is accounted for: nothing silent, nothing extra.
    assert_eq!(m.tracer().dropped(), 0);
    assert_eq!(m.tracer().len(), expected, "{}", m.tracer().dump());
}

#[test]
fn failed_pop_is_not_an_architectural_completion() {
    // A pop that returns NotDeparted/Empty performs no operation; the
    // trace stays op-accurate by not recording it.
    let mut m = Machine::new(MachineConfig::t3d(2));
    m.enable_trace(Tracer::env_cap(64));
    assert!(Cpu::new(&mut m, 0).pop_prefetch().is_err());
    assert_eq!(count(&m, |k| matches!(k, TraceKind::Pop)), 0);
}
