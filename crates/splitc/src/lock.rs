//! Global locks built on the shell's atomic swap.
//!
//! The paper lists the atomic swap among the shell's synchronization
//! provisions (Section 1.2). The classic use is a test-and-set lock on
//! a word in the global address space: swap in a 1; the lock was ours
//! if the old value was 0.
//!
//! The deterministic phase-sequential driver cannot *spin* on a lock
//! held by a node that runs later in the same phase, so the API is
//! non-blocking: [`ScCtx::lock_try_acquire`] either takes the lock or
//! reports it busy, and programs structure retries across phases.

use crate::gptr::GlobalPtr;
use crate::op::ScOp;
use crate::runtime::ScCtx;
use t3d_shell::FuncCode;
use t3dsan::NO_REG;

/// A lock word in the global address space (0 = free, 1 = held).
///
/// # Example
///
/// ```
/// use splitc::{GlobalLock, GlobalPtr, SplitC};
/// use t3d_machine::MachineConfig;
///
/// let mut sc = SplitC::new(MachineConfig::t3d(4));
/// let lock = GlobalLock::new(GlobalPtr::new(0, sc.alloc(8, 8)));
/// sc.on(1, |ctx| {
///     assert!(ctx.lock_try_acquire(lock));
///     // ... critical section ...
///     ctx.lock_release(lock);
/// });
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalLock {
    word: GlobalPtr,
}

impl GlobalLock {
    /// Wraps an (allocated, zero-initialized) global word as a lock.
    pub fn new(word: GlobalPtr) -> Self {
        GlobalLock { word }
    }

    /// The lock word's location.
    pub fn word(&self) -> GlobalPtr {
        self.word
    }
}

impl ScCtx<'_> {
    /// Attempts to take `lock` with one atomic swap. Returns `true` on
    /// acquisition.
    pub fn lock_try_acquire(&mut self, lock: GlobalLock) -> bool {
        let e = self.log_op(ScOp::LockTryAcquire { word: lock.word() });
        let gp = lock.word();
        let va = if gp.pe() as usize == self.pe() {
            gp.addr()
        } else {
            let idx = self.rt.annex.ensure(&mut self.m, gp.pe(), FuncCode::Swap);
            self.m.va(idx, gp.addr())
        };
        self.m.swap_load(1);
        let acquired = self.m.atomic_swap(va) == 0;
        if acquired {
            self.done(e, NO_REG);
        }
        acquired
    }

    /// Releases `lock`.
    ///
    /// # Panics
    ///
    /// Panics if the lock was not held (releasing a free lock is a
    /// program bug this simulator surfaces immediately).
    pub fn lock_release(&mut self, lock: GlobalLock) {
        let e = self.log_op(ScOp::LockRelease { word: lock.word() });
        let gp = lock.word();
        let va = if gp.pe() as usize == self.pe() {
            gp.addr()
        } else {
            let idx = self.rt.annex.ensure(&mut self.m, gp.pe(), FuncCode::Swap);
            self.m.va(idx, gp.addr())
        };
        self.m.swap_load(0);
        let old = self.m.atomic_swap(va);
        assert_eq!(old, 1, "released a lock that was not held");
        self.done(e, NO_REG);
    }

    /// Whether `lock` is currently held (functional peek; no timing).
    ///
    /// # Panics
    ///
    /// Panics inside a sharded phase if the lock word lives on another
    /// PE: a shard sees only its own node.
    pub fn lock_is_held(&self, lock: GlobalLock) -> bool {
        let gp = lock.word();
        let mut b = [0u8; 8];
        self.m
            .node_of(gp.pe() as usize)
            .port
            .peek_mem(gp.addr(), &mut b);
        u64::from_le_bytes(b) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::SplitC;
    use t3d_machine::MachineConfig;

    fn setup() -> (SplitC, GlobalLock) {
        let mut sc = SplitC::new(MachineConfig::t3d(4));
        let off = sc.alloc(8, 8);
        (sc, GlobalLock::new(GlobalPtr::new(2, off)))
    }

    #[test]
    fn acquire_release_cycle() {
        let (mut sc, lock) = setup();
        sc.on(0, |ctx| {
            assert!(ctx.lock_try_acquire(lock));
            assert!(ctx.lock_is_held(lock));
            ctx.lock_release(lock);
            assert!(!ctx.lock_is_held(lock));
        });
    }

    #[test]
    fn contention_is_mutually_exclusive() {
        let (mut sc, lock) = setup();
        assert!(sc.on(0, |ctx| ctx.lock_try_acquire(lock)));
        assert!(
            !sc.on(1, |ctx| ctx.lock_try_acquire(lock)),
            "second taker fails"
        );
        assert!(!sc.on(3, |ctx| ctx.lock_try_acquire(lock)));
        sc.on(0, |ctx| ctx.lock_release(lock));
        assert!(sc.on(1, |ctx| ctx.lock_try_acquire(lock)), "free again");
    }

    #[test]
    fn acquisition_costs_an_atomic_roundtrip() {
        let (mut sc, lock) = setup();
        let cost = sc.on(0, |ctx| {
            let t0 = ctx.clock();
            ctx.lock_try_acquire(lock);
            ctx.clock() - t0
        });
        assert!(
            (100..300).contains(&cost),
            "lock acquire cost {cost} cy (~1 us)"
        );
    }

    #[test]
    #[should_panic(expected = "not held")]
    fn double_release_panics() {
        let (mut sc, lock) = setup();
        sc.on(0, |ctx| {
            ctx.lock_try_acquire(lock);
            ctx.lock_release(lock);
            ctx.lock_release(lock);
        });
    }

    #[test]
    fn lock_is_held_reads_another_pes_lock_live_in_run_phase() {
        // The lock word lives on PE 2; every PE, in node order, sees the
        // value PE 0 left in it, whatever PE it runs as.
        let (mut sc, lock) = setup();
        assert!(sc.on(0, |ctx| ctx.lock_try_acquire(lock)));
        let mut seen = Vec::new();
        sc.run_phase(|ctx| {
            seen.push(ctx.lock_is_held(lock));
            if ctx.pe() == 1 {
                ctx.machine().poke8(2, lock.word().addr(), 0);
            }
        });
        assert_eq!(seen, [true, true, false, false]);
    }

    #[test]
    #[should_panic(expected = "may only read its own node (got 2, shard owns 0)")]
    fn lock_is_held_on_another_pes_lock_panics_in_a_sharded_phase() {
        let (mut sc, lock) = setup();
        sc.par_phase_with(t3d_machine::PhaseDriver::Seq, |ctx| {
            if ctx.pe() == 0 {
                let _ = ctx.lock_is_held(lock);
            }
        });
    }

    #[test]
    fn critical_section_across_phases() {
        // A counter protected by the lock: each node increments once,
        // retrying in later phases if the lock was busy.
        let mut sc = SplitC::new(MachineConfig::t3d(4));
        let lock_off = sc.alloc(8, 8);
        let counter = sc.alloc(8, 8);
        let lock = GlobalLock::new(GlobalPtr::new(0, lock_off));
        let mut done = [false; 4];
        for _round in 0..8 {
            for (pe, done_flag) in done.iter_mut().enumerate() {
                if *done_flag {
                    continue;
                }
                *done_flag = sc.on(pe, |ctx| {
                    if !ctx.lock_try_acquire(lock) {
                        return false;
                    }
                    let v = ctx.read_u64(GlobalPtr::new(0, counter));
                    ctx.write_u64(GlobalPtr::new(0, counter), v + 1);
                    ctx.lock_release(lock);
                    true
                });
            }
            sc.barrier();
        }
        assert!(done.iter().all(|&d| d));
        assert_eq!(sc.machine().peek8(0, counter), 4);
    }
}
