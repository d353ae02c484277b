//! Integration tests for the semantic hazards the paper documents —
//! each one reproduced end-to-end through the public crate APIs.

use splitc::{AnnexPolicy, GlobalPtr, SplitC, SplitcConfig};
use t3d_machine::{Cpu, Machine, MachineConfig};
use t3d_shell::{FuncCode, PopError};

/// Section 3.4: with multiple annex registers naming one processor, the
/// write buffer admits stale reads through synonyms.
#[test]
fn synonym_stale_read_through_unsafe_multi_policy() {
    let mut cfg = SplitcConfig::t3d();
    cfg.annex_policy = AnnexPolicy::UnsafeMulti;
    let mut sc = SplitC::with_config(MachineConfig::t3d(2), cfg);
    let cell = sc.alloc(8, 8);
    sc.machine().poke8(1, cell, 1);

    // Raw machine sequence mirroring what compiled code would emit under
    // the unsafe policy: store via one register, load via another.
    let mut cpu = Cpu::new(sc.machine(), 0);
    cpu.annex_set(1, 1, FuncCode::Uncached);
    cpu.annex_set(2, 1, FuncCode::Uncached);
    cpu.st8(cpu.va(1, cell), 2);
    let through_synonym = cpu.ld8(cpu.va(2, cell));
    assert_eq!(through_synonym, 1, "stale value read through the synonym");
    // The same-register read forwards correctly.
    assert_eq!(cpu.ld8(cpu.va(1, cell)), 2);
}

/// Section 3.4 (the repair): the hashed multi-register policy maps each
/// PE to exactly one register, so synonyms never arise.
#[test]
fn hashed_policy_never_creates_synonyms() {
    let mut cfg = SplitcConfig::t3d();
    cfg.annex_policy = AnnexPolicy::HashedMulti;
    let mut sc = SplitC::with_config(MachineConfig::t3d(8), cfg);
    let cell = sc.alloc(64, 8);
    sc.on(0, |ctx| {
        for t in 1..8u32 {
            ctx.write_u64(GlobalPtr::new(t, cell), t as u64);
            let _ = ctx.read_u64(GlobalPtr::new(t, cell));
        }
    });
    for t in 1..8u32 {
        assert!(
            sc.machine().node(0).annex.synonyms_of(t).len() <= 1,
            "PE {t} must occupy at most one annex register"
        );
    }
}

/// Section 4.3: the remote-write status bit cannot see writes still in
/// the write buffer, so polling without a fence is wrong.
#[test]
fn status_bit_trap_requires_fence_before_poll() {
    let mut m = Machine::new(MachineConfig::t3d(2));
    let mut cpu = Cpu::new(&mut m, 0);
    cpu.annex_set(1, 1, FuncCode::Uncached);
    cpu.st8(cpu.va(1, 0x100), 7);
    assert!(
        cpu.poll_status(),
        "WRONG but faithful: the buffered write is invisible"
    );
    cpu.memory_barrier();
    assert!(
        !cpu.poll_status(),
        "after the fence the in-flight write is visible"
    );
    cpu.wait_write_acks();
    assert!(cpu.poll_status());
    assert_eq!(m.peek8(1, 0x100), 7);
}

/// Section 4.4: cached remote reads are incoherent; the compiler must
/// flush to see updates.
#[test]
fn cached_remote_reads_are_incoherent_until_flushed() {
    let mut sc = SplitC::new(MachineConfig::t3d(2));
    let cell = sc.alloc(8, 8);
    sc.machine().poke8(1, cell, 10);
    sc.on(0, |ctx| {
        assert_eq!(ctx.read_u64_cached(GlobalPtr::new(1, cell)), 10);
    });
    // The owner updates through its own (blocking) write.
    sc.on(1, |ctx| ctx.write_u64(GlobalPtr::new(1, cell), 11));
    sc.on(0, |ctx| {
        assert_eq!(
            ctx.read_u64_cached(GlobalPtr::new(1, cell)),
            10,
            "stale line survives the owner's update"
        );
        ctx.flush_remote_line(GlobalPtr::new(1, cell));
        assert_eq!(ctx.read_u64_cached(GlobalPtr::new(1, cell)), 11);
        // The uncached flavour never had the problem.
        ctx.flush_remote_line(GlobalPtr::new(1, cell));
        assert_eq!(ctx.read_u64(GlobalPtr::new(1, cell)), 11);
    });
}

/// Section 4.4: incoming remote writes flush the owner's cache line
/// (cache-invalidate mode), keeping the owner's reads coherent.
#[test]
fn remote_writes_invalidate_owner_cache() {
    let mut sc = SplitC::new(MachineConfig::t3d(2));
    let cell = sc.alloc(8, 8);
    sc.on(1, |ctx| {
        ctx.ops().st8(cell, 1);
        ctx.ops().memory_barrier();
        assert_eq!(ctx.ops().ld8(cell), 1, "line now cached locally");
    });
    sc.on(0, |ctx| ctx.write_u64(GlobalPtr::new(1, cell), 2));
    sc.on(1, |ctx| {
        assert_eq!(ctx.ops().ld8(cell), 2, "owner sees the remote write");
    });
}

/// Section 4.5: concurrent naive byte writes to one word clobber; the
/// AM-based byte write does not.
#[test]
fn byte_write_clobber_and_repair() {
    // Clobber: interleaved read-modify-writes from two nodes.
    let mut sc = SplitC::new(MachineConfig::t3d(4));
    let word = sc.alloc(8, 8);
    let w1 = sc.on(1, |ctx| {
        let w = ctx.read_u64(GlobalPtr::new(0, word));
        (w & !0xFF) | 0xAA
    });
    let w2 = sc.on(2, |ctx| {
        let w = ctx.read_u64(GlobalPtr::new(0, word));
        (w & !0xFF00) | 0xBB00
    });
    sc.on(1, |ctx| ctx.write_u64(GlobalPtr::new(0, word), w1));
    sc.on(2, |ctx| ctx.write_u64(GlobalPtr::new(0, word), w2));
    let clobbered = sc.machine().peek8(0, word);
    assert_eq!(clobbered, 0xBB00, "PE 1's byte was lost");

    // Repair: the same two updates through the AM-equivalent queue.
    let mut sc = SplitC::new(MachineConfig::t3d(4));
    let word = sc.alloc(8, 8);
    sc.on(1, |ctx| ctx.byte_write(GlobalPtr::new(0, word), 0xAA));
    sc.on(2, |ctx| ctx.byte_write(GlobalPtr::new(0, word + 1), 0xBB));
    sc.barrier();
    assert_eq!(sc.machine().peek8(0, word), 0xBBAA, "both bytes survive");
}

/// Section 4.5 (global-local consistency): a read through a local
/// pointer can overtake an earlier local write, and another processor
/// can observe the reordering.
#[test]
fn local_write_buffered_values_invisible_to_remote_readers() {
    let mut m = Machine::new(MachineConfig::t3d(2));
    // PE 1 writes locally (sits in its write buffer).
    Cpu::new(&mut m, 1).st8(0x200, 99);
    // PE 0 reads it remotely right away: the memory controller path does
    // not see PE 1's write buffer.
    let va = m.va(1, 0x200);
    Cpu::new(&mut m, 0).annex_set(1, 1, FuncCode::Uncached);
    assert_eq!(
        Cpu::new(&mut m, 0).ld8(va),
        0,
        "remote read bypassed the buffer"
    );
    // After PE 1 fences, the value is visible.
    Cpu::new(&mut m, 1).memory_barrier();
    assert_eq!(Cpu::new(&mut m, 0).ld8(va), 99);
}

/// Section 5.2: popping the prefetch queue before the fetch has left the
/// processor is invalid; fewer than 4 outstanding fetches require a
/// memory barrier.
#[test]
fn prefetch_pop_hazard_below_four_outstanding() {
    let mut m = Machine::new(MachineConfig::t3d(2));
    let mut cpu = Cpu::new(&mut m, 0);
    cpu.annex_set(1, 1, FuncCode::Uncached);
    for i in 0..3u64 {
        cpu.fetch(cpu.va(1, i * 8));
    }
    assert_eq!(cpu.pop_prefetch(), Err(PopError::NotDeparted));
    // The fourth fetch pushes the group out...
    cpu.fetch(cpu.va(1, 24));
    assert!(cpu.pop_prefetch().is_ok());
    // ...or a memory barrier does.
    cpu.fetch(cpu.va(1, 32)); // fifth fetch: pending departure again
    for _ in 0..3 {
        cpu.pop_prefetch().expect("departed pops succeed");
    }
    assert_eq!(cpu.pop_prefetch(), Err(PopError::NotDeparted));
    cpu.memory_barrier();
    assert!(cpu.pop_prefetch().is_ok());
    assert_eq!(cpu.node().prefetch.outstanding(), 0);
}
