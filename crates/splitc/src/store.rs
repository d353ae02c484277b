//! Signaling stores (Section 7).
//!
//! The `:=` operator stores a value into a global location with
//! *extremely weak* completion semantics: the issuer is not told when it
//! completes, enabling one-way, heavily pipelined communication.
//! Completion is detected either globally (`allStoreSync` — see
//! [`crate::SplitC::all_store_sync`]) for bulk-synchronous programs, or
//! locally (`storeSync(n)`, [`ScCtx::store_sync`]) — the receiver waits
//! until `n` bytes have been stored into its region — for message-driven
//! programs.
//!
//! The T3D has no store that avoids acknowledgement, so a store is
//! "essentially a put" whose completion wait is simply deferred; the
//! data-counting receiver side is built on the arrival log the machine
//! keeps for incoming remote writes.

use crate::gptr::GlobalPtr;
use crate::op::ScOp;
use crate::runtime::ScCtx;
use t3d_shell::FuncCode;
use t3dsan::NO_REG;

impl ScCtx<'_> {
    /// Signaling store of a 64-bit word (`*gp := value`). One-way: no
    /// completion wait here.
    ///
    /// # Example
    ///
    /// ```
    /// use splitc::{GlobalPtr, SplitC};
    /// use t3d_machine::MachineConfig;
    ///
    /// let mut sc = SplitC::new(MachineConfig::t3d(4));
    /// let cell = sc.alloc(8, 8);
    /// sc.run_phase(|ctx| {
    ///     let right = (ctx.pe() + 1) % ctx.nodes();
    ///     ctx.store_u64(GlobalPtr::new(right as u32, cell), 9);
    /// });
    /// sc.all_store_sync(); // bulk-synchronous completion
    /// assert_eq!(sc.machine().peek8(2, cell), 9);
    /// ```
    pub fn store_u64(&mut self, gp: GlobalPtr, value: u64) {
        let e = self.log_op(ScOp::StoreU64 { dst: gp, value });
        if gp.pe() as usize == self.pe() {
            self.m.st8(gp.addr(), value);
            self.m.advance(self.cfg.store_check_cy);
            self.done(e, NO_REG);
            return;
        }
        let idx = self
            .rt
            .annex
            .ensure(&mut self.m, gp.pe(), FuncCode::Uncached);
        let va = self.m.va(idx, gp.addr());
        self.m.st8(va, value);
        self.m.advance(self.cfg.store_check_cy);
        self.done(e, idx as u32);
    }

    /// `storeSync(bytes)`: returns once `bytes` further bytes (beyond
    /// any previously awaited) have been stored into this node's region
    /// of the address space. Supports message-driven execution.
    ///
    /// # Panics
    ///
    /// Panics if the data can never arrive (the senders have already
    /// executed and stored less than requested) — a deadlock in the
    /// program being simulated.
    pub fn store_sync(&mut self, bytes: u64) {
        let e = self.log_op(ScOp::StoreSync { bytes });
        let target = self.rt.store_watermark + bytes;
        let t = self.m.node().arrival_time_of(target).unwrap_or_else(|| {
            panic!(
                "storeSync deadlock on PE {}: waiting for {} bytes, fewer ever stored",
                self.pe(),
                target
            )
        });
        self.rt.store_watermark = target;
        let now = self.m.clock();
        let wait = t.saturating_sub(now);
        self.m.advance(wait + self.cfg.store_sync_check_cy);
        // Every arrival up to now is awaited or past: keep one epoch.
        self.m.fold_arrivals();
        self.done(e, NO_REG);
    }

    /// Bytes of store data that have arrived but not yet been awaited.
    pub fn store_bytes_pending(&self) -> u64 {
        let now = self.m.clock();
        self.m
            .node()
            .bytes_arrived_by(now)
            .saturating_sub(self.rt.store_watermark)
    }
}

#[cfg(test)]
mod tests {
    use crate::runtime::SplitC;
    use crate::GlobalPtr;
    use t3d_machine::MachineConfig;

    fn sc() -> SplitC {
        SplitC::new(MachineConfig::t3d(4))
    }

    #[test]
    fn stores_complete_by_all_store_sync() {
        let mut s = sc();
        let buf = s.alloc(4 * 8, 8);
        s.run_phase(|ctx| {
            let right = (ctx.pe() + 1) % ctx.nodes();
            let gp = GlobalPtr::new(right as u32, buf + ctx.pe() as u64 * 8);
            ctx.store_u64(gp, 500 + ctx.pe() as u64);
        });
        s.all_store_sync();
        s.run_phase(|ctx| {
            let left = (ctx.pe() + ctx.nodes() - 1) % ctx.nodes();
            let mine = GlobalPtr::new(ctx.pe() as u32, buf + left as u64 * 8);
            assert_eq!(ctx.read_u64(mine), 500 + left as u64);
        });
    }

    #[test]
    fn store_is_cheaper_than_blocking_write() {
        let mut s = sc();
        let buf = s.alloc(256 * 64, 8);
        let store_avg = s.on(0, |ctx| {
            ctx.store_u64(GlobalPtr::new(1, buf), 0); // warm
            let t0 = ctx.clock();
            for i in 1..=64u64 {
                ctx.store_u64(GlobalPtr::new(1, buf + i * 64), i);
            }
            (ctx.clock() - t0) as f64 / 64.0
        });
        let write_avg = s.on(2, |ctx| {
            ctx.write_u64(GlobalPtr::new(3, buf), 0); // warm
            let t0 = ctx.clock();
            for i in 1..=64u64 {
                ctx.write_u64(GlobalPtr::new(3, buf + i * 64), i);
            }
            (ctx.clock() - t0) as f64 / 64.0
        });
        assert!(
            store_avg * 2.0 < write_avg,
            "pipelined stores ({store_avg:.0} cy) should be far cheaper than \
             blocking writes ({write_avg:.0} cy)"
        );
    }

    #[test]
    fn store_sync_waits_for_the_counted_bytes() {
        let mut s = sc();
        let buf = s.alloc(64 * 8, 8);
        // PE 0 stores 4 words to PE 1.
        s.on(0, |ctx| {
            for i in 0..4u64 {
                ctx.store_u64(GlobalPtr::new(1, buf + i * 8), i);
            }
            // Flush them out so the arrivals get logged.
            ctx.ops().memory_barrier();
        });
        s.on(1, |ctx| {
            ctx.store_sync(32);
            assert!(ctx.clock() > 0, "waiting advanced the clock");
        });
    }

    #[test]
    #[should_panic(expected = "storeSync deadlock")]
    fn store_sync_detects_deadlock() {
        let mut s = sc();
        s.on(1, |ctx| ctx.store_sync(8));
    }

    #[test]
    fn successive_store_syncs_count_fresh_bytes() {
        let mut s = sc();
        let buf = s.alloc(64 * 8, 8);
        s.on(0, |ctx| {
            for i in 0..4u64 {
                ctx.store_u64(GlobalPtr::new(1, buf + i * 8), i);
            }
            ctx.ops().memory_barrier();
        });
        s.on(1, |ctx| {
            ctx.store_sync(16);
            ctx.store_sync(16);
            assert_eq!(ctx.store_bytes_pending(), 0);
        });
    }
}
