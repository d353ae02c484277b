//! Split-phase `get` and `put` (Section 5).
//!
//! `get` initiates a non-blocking fetch of a remote word into a local
//! address; `put` initiates a non-blocking write; `sync` waits for all
//! outstanding split-phase operations. On the T3D:
//!
//! * `get` maps onto the binding prefetch. Because the hardware queue is
//!   a FIFO with no addresses, the runtime keeps a table of target local
//!   addresses in issue order (10 cycles per entry) and drains it —
//!   fence, pop, 3-cycle local store — at `sync` or when 16 are
//!   outstanding.
//! * `put` is the non-blocking acknowledged store plus "a few additional
//!   checks"; `sync` fences and waits on the status bit. Average cost in
//!   a pipelined loop: ~45 cycles (300 ns), Figure 7.

use crate::gptr::GlobalPtr;
use crate::op::ScOp;
use crate::record::RtKind;
use crate::runtime::ScCtx;
use t3d_shell::FuncCode;
use t3dsan::NO_REG;

impl ScCtx<'_> {
    /// Split-phase read: initiates a fetch of `*gp` into local offset
    /// `local_off`. The local word is undefined until [`ScCtx::sync`].
    ///
    /// # Example
    ///
    /// ```
    /// use splitc::{GlobalPtr, SplitC};
    /// use t3d_machine::MachineConfig;
    ///
    /// let mut sc = SplitC::new(MachineConfig::t3d(2));
    /// let src = sc.alloc(8, 8);
    /// let dst = sc.alloc(8, 8);
    /// sc.machine().poke8(1, src, 42);
    /// sc.on(0, |ctx| {
    ///     ctx.get(dst, GlobalPtr::new(1, src));
    ///     ctx.sync(); // the prefetch completes here
    ///     assert_eq!(ctx.machine().peek8(0, dst), 42);
    /// });
    /// ```
    pub fn get(&mut self, local_off: u64, gp: GlobalPtr) {
        let e = self.log_op(ScOp::Get { local_off, src: gp });
        if gp.pe() as usize == self.pe() {
            // Local get degenerates to a copy.
            let v = self.m.ld8(gp.addr());
            self.m.st8(local_off, v);
            self.done(e, NO_REG);
            return;
        }
        // The hardware queue holds 16; drain when full, as the runtime
        // described in Section 5.4 does.
        if self.rt.pending_gets.len() == self.m.node().prefetch.depth() {
            self.drain_gets(true);
            // The auto-drain fences and pops but does not ack-wait: gets
            // complete, puts may still be in flight.
            let drain = self.log(RtKind::GetDrain);
            self.done(drain, NO_REG);
        }
        let idx = self
            .rt
            .annex
            .ensure(&mut self.m, gp.pe(), FuncCode::Uncached);
        let va = self.m.va(idx, gp.addr());
        let issued = self.m.fetch(va);
        debug_assert!(issued, "queue was drained above");
        self.m.advance(self.cfg.get_table_cy);
        self.rt.pending_gets.push(local_off);
        self.done(e, idx as u32);
    }

    /// Split-phase write: initiates a non-blocking store of `value` to
    /// `*gp`. Completion is awaited by [`ScCtx::sync`].
    ///
    /// # Example
    ///
    /// ```
    /// use splitc::{GlobalPtr, SplitC};
    /// use t3d_machine::MachineConfig;
    ///
    /// let mut sc = SplitC::new(MachineConfig::t3d(2));
    /// let cell = sc.alloc(128, 8);
    /// sc.on(0, |ctx| {
    ///     for i in 0..16 {
    ///         ctx.put(GlobalPtr::new(1, cell + i * 8), i); // pipelined
    ///     }
    ///     ctx.sync(); // one wait for all sixteen
    /// });
    /// assert_eq!(sc.machine().peek8(1, cell + 40), 5);
    /// ```
    pub fn put(&mut self, gp: GlobalPtr, value: u64) {
        let e = self.log_op(ScOp::Put { dst: gp, value });
        if gp.pe() as usize == self.pe() {
            self.m.st8(gp.addr(), value);
            self.m.advance(self.cfg.put_check_cy);
            self.done(e, NO_REG);
            return;
        }
        let idx = self
            .rt
            .annex
            .ensure(&mut self.m, gp.pe(), FuncCode::Uncached);
        let va = self.m.va(idx, gp.addr());
        self.m.st8(va, value);
        self.m.advance(self.cfg.put_check_cy);
        self.done(e, idx as u32);
    }

    /// Waits for every outstanding `get`, `put` and non-blocking bulk
    /// operation issued by this node.
    pub fn sync(&mut self) {
        let e = self.log_op(ScOp::Sync);
        self.drain_gets(false);
        // The fence performed in drain (or here, if no gets) pushes puts
        // out of the write buffer; then the status bit covers them.
        self.m.memory_barrier();
        self.m.wait_write_acks();
        // Outstanding non-blocking BLTs (bulk_get/bulk_put) also complete.
        let pending = std::mem::take(&mut self.rt.pending_blts);
        for completion in pending {
            let now = self.m.clock();
            if completion > now {
                self.m.advance(completion - now);
            }
        }
        self.done(e, NO_REG);
    }

    /// Fences and drains the get table: pops each prefetch in order and
    /// stores it to its recorded local address.
    pub(crate) fn drain_gets(&mut self, _auto: bool) {
        if self.rt.pending_gets.is_empty() {
            return;
        }
        self.m.memory_barrier();
        // Drained in place, so the table keeps its capacity.
        for local_off in self.rt.pending_gets.drain(..) {
            let v = self
                .m
                .pop_prefetch()
                .expect("gets were fenced, the queue must pop");
            // The 3-cycle local store that completes the get (the store
            // issue cost of the simulated write).
            self.m.st8(local_off, v);
        }
    }

    /// Number of gets outstanding (instrumentation).
    pub fn gets_outstanding(&self) -> usize {
        self.rt.pending_gets.len()
    }
}

#[cfg(test)]
mod tests {
    use crate::runtime::SplitC;
    use crate::GlobalPtr;
    use t3d_machine::MachineConfig;

    fn sc() -> SplitC {
        SplitC::new(MachineConfig::t3d(2))
    }

    #[test]
    fn get_sync_delivers_values() {
        let mut s = sc();
        let src = s.alloc(16 * 8, 8);
        let dst = s.alloc(16 * 8, 8);
        for i in 0..16u64 {
            s.machine().poke8(1, src + i * 8, 100 + i);
        }
        s.on(0, |ctx| {
            for i in 0..16u64 {
                ctx.get(dst + i * 8, GlobalPtr::new(1, src + i * 8));
            }
            ctx.sync();
            for i in 0..16u64 {
                assert_eq!(ctx.machine().peek8(0, dst + i * 8), 100 + i);
            }
        });
    }

    #[test]
    fn seventeenth_get_drains_automatically() {
        let mut s = sc();
        let src = s.alloc(32 * 8, 8);
        let dst = s.alloc(32 * 8, 8);
        s.on(0, |ctx| {
            for i in 0..17u64 {
                ctx.get(dst + i * 8, GlobalPtr::new(1, src + i * 8));
            }
            assert_eq!(ctx.gets_outstanding(), 1, "16 drained, 1 pending");
            ctx.sync();
            assert_eq!(ctx.gets_outstanding(), 0);
        });
    }

    #[test]
    fn pipelined_gets_beat_blocking_reads() {
        let mut s = sc();
        let src = s.alloc(16 * 8, 8);
        let dst = s.alloc(16 * 8, 8);
        let get_cost = s.on(0, |ctx| {
            let t0 = ctx.clock();
            for i in 0..16u64 {
                ctx.get(dst + i * 8, GlobalPtr::new(1, src + i * 8));
            }
            ctx.sync();
            ctx.clock() - t0
        });
        let mut s2 = sc();
        let src2 = s2.alloc(16 * 8, 8);
        let read_cost = s2.on(0, |ctx| {
            let t0 = ctx.clock();
            for i in 0..16u64 {
                let _ = ctx.read_u64(GlobalPtr::new(1, src2 + i * 8));
            }
            ctx.clock() - t0
        });
        assert!(
            get_cost < read_cost,
            "16 pipelined gets ({get_cost} cy) must beat 16 blocking reads ({read_cost} cy)"
        );
    }

    #[test]
    fn put_average_cost_is_about_45_cycles() {
        let mut s = sc();
        let dst = s.alloc(256 * 64, 8);
        let avg = s.on(0, |ctx| {
            // Warm up annex/TLB.
            ctx.put(GlobalPtr::new(1, dst), 0);
            let t0 = ctx.clock();
            let n = 128u64;
            for i in 1..=n {
                ctx.put(GlobalPtr::new(1, dst + i * 64), i);
            }
            (ctx.clock() - t0) as f64 / n as f64
        });
        assert!(
            (38.0..55.0).contains(&avg),
            "put average {avg} cy (paper: ~45)"
        );
    }

    #[test]
    fn puts_complete_at_sync() {
        let mut s = sc();
        let dst = s.alloc(64, 8);
        s.on(0, |ctx| {
            ctx.put(GlobalPtr::new(1, dst), 42);
            ctx.sync();
        });
        assert_eq!(s.machine().peek8(1, dst), 42);
    }

    #[test]
    fn local_get_and_put_work() {
        let mut s = sc();
        let a = s.alloc(8, 8);
        let b = s.alloc(8, 8);
        s.on(0, |ctx| {
            ctx.put(GlobalPtr::new(0, a), 7);
            ctx.sync();
            ctx.get(b, GlobalPtr::new(0, a));
            ctx.sync();
            assert_eq!(ctx.machine().peek8(0, b), 7);
        });
    }
}
