//! Blocking read and write (Section 4).
//!
//! The Split-C `read` appears on the right-hand side of an assignment
//! through a global pointer and blocks until the value arrives; `write`
//! blocks until the hardware acknowledgement returns. The study selects
//! *uncached* loads for read (cached loads would require a 23-cycle
//! flush to stay coherent, wiping out their bandwidth advantage) and the
//! acknowledged store, fenced and polled, for write.
//!
//! Composite costs land on the paper's measurements: read ≈ 128 cycles
//! (850 ns), write ≈ 147 cycles (981 ns), both dominated by the raw
//! remote access plus annex set-up.

use crate::gptr::GlobalPtr;
use crate::op::ScOp;
use crate::record::RtKind;
use crate::runtime::ScCtx;
use t3d_shell::FuncCode;
use t3dsan::NO_REG;

impl ScCtx<'_> {
    /// Blocking read of a 64-bit word through a global pointer.
    pub fn read_u64(&mut self, gp: GlobalPtr) -> u64 {
        let e = self.log_op(ScOp::ReadU64 { src: gp });
        if gp.pe() as usize == self.pe() {
            // Local region of the global space: an ordinary load.
            let v = self.m.ld8(gp.addr());
            self.done(e, NO_REG);
            return v;
        }
        let idx = self
            .rt
            .annex
            .ensure(&mut self.m, gp.pe(), FuncCode::Uncached);
        let va = self.m.va(idx, gp.addr());
        let v = self.m.ld8(va);
        self.m.advance(self.cfg.read_overhead_cy);
        self.done(e, idx as u32);
        v
    }

    /// Blocking read of a double.
    pub fn read_f64(&mut self, gp: GlobalPtr) -> f64 {
        f64::from_bits(self.read_u64(gp))
    }

    /// Blocking read through a *cached* remote load. Brings the whole
    /// 32-byte line into the local cache — incoherently. The caller (or
    /// compiler) is responsible for flushing before the line can go
    /// stale; see [`ScCtx::flush_remote_line`]. Kept public because the
    /// bulk-transfer comparison of Figure 8 needs it.
    pub fn read_u64_cached(&mut self, gp: GlobalPtr) -> u64 {
        let e = self.log(RtKind::CachedRead { src: gp });
        if gp.pe() as usize == self.pe() {
            let v = self.m.ld8(gp.addr());
            self.done(e, NO_REG);
            return v;
        }
        let idx = self.rt.annex.ensure(&mut self.m, gp.pe(), FuncCode::Cached);
        let va = self.m.va(idx, gp.addr());
        let v = self.m.ld8(va);
        self.m.advance(self.cfg.read_overhead_cy);
        self.done(e, idx as u32);
        v
    }

    /// Flushes the locally cached copy of a remote line (23 cycles —
    /// "equivalent to accessing main memory").
    pub fn flush_remote_line(&mut self, gp: GlobalPtr) {
        let e = self.log(RtKind::Flush { line: gp });
        // The line may be cached under whichever annex index was used;
        // with the single-register policies that is register 1.
        let idx = self.rt.annex.ensure(&mut self.m, gp.pe(), FuncCode::Cached);
        let va = self.m.va(idx, gp.addr());
        self.m.flush_line(va);
        self.done(e, NO_REG);
    }

    /// Blocking write of a 64-bit word through a global pointer. Waits
    /// for completion whether the target is local or remote, preserving
    /// the language's sequential-consistency story (Section 4.5 explains
    /// why the *local* wait matters too).
    pub fn write_u64(&mut self, gp: GlobalPtr, value: u64) {
        let e = self.log_op(ScOp::WriteU64 { dst: gp, value });
        if gp.pe() as usize == self.pe() {
            self.m.st8(gp.addr(), value);
            self.m.memory_barrier();
            self.done(e, NO_REG);
            return;
        }
        let idx = self
            .rt
            .annex
            .ensure(&mut self.m, gp.pe(), FuncCode::Uncached);
        let va = self.m.va(idx, gp.addr());
        self.m.st8(va, value);
        // The status bit cannot see writes still in the buffer: fence
        // first (the Section 4.3 subtlety), then poll.
        self.m.memory_barrier();
        self.m.wait_write_acks();
        self.m.advance(self.cfg.write_overhead_cy);
        self.done(e, idx as u32);
    }

    /// Blocking write of a double.
    pub fn write_f64(&mut self, gp: GlobalPtr, value: f64) {
        self.write_u64(gp, value.to_bits());
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
    fn remote_read_returns_value_and_costs_about_128_cycles() {
        let mut s = sc();
        let off = s.alloc(64, 8);
        s.machine().poke8(1, off, 777);
        let cost = s.on(0, |ctx| {
            let gp = GlobalPtr::new(1, off);
            let _ = ctx.read_u64(gp); // warm TLB
            let t0 = ctx.clock();
            assert_eq!(ctx.read_u64(gp.local_add(8)), 0);
            ctx.clock() - t0
        });
        assert!(
            (115..=140).contains(&cost),
            "Split-C remote read cost {cost} cy (paper: ~128)"
        );
    }

    #[test]
    fn remote_write_lands_and_costs_about_147_cycles() {
        let mut s = sc();
        let off = s.alloc(64, 8);
        let cost = s.on(0, |ctx| {
            let gp = GlobalPtr::new(1, off);
            ctx.write_u64(gp, 5); // warm TLB
            let t0 = ctx.clock();
            ctx.write_u64(gp.local_add(8), 6);
            ctx.clock() - t0
        });
        assert_eq!(s.machine().peek8(1, off + 8), 6);
        assert!(
            (130..=165).contains(&cost),
            "Split-C remote write cost {cost} cy (paper: ~147)"
        );
    }

    #[test]
    fn local_global_pointer_access_is_cheap() {
        let mut s = sc();
        let off = s.alloc(64, 8);
        s.on(0, |ctx| {
            let gp = GlobalPtr::new(0, off);
            ctx.write_u64(gp, 9);
            let t0 = ctx.clock();
            assert_eq!(ctx.read_u64(gp), 9);
            assert!(ctx.clock() - t0 < 30, "local path avoids the shell");
        });
    }

    #[test]
    fn cached_read_requires_flush_to_see_updates() {
        let mut s = sc();
        let off = s.alloc(64, 8);
        s.machine().poke8(1, off, 1);
        s.on(0, |ctx| {
            let gp = GlobalPtr::new(1, off);
            assert_eq!(ctx.read_u64_cached(gp), 1);
            ctx.machine().poke8(1, off, 2); // owner updates
            assert_eq!(ctx.read_u64_cached(gp), 1, "stale cached line");
            ctx.flush_remote_line(gp);
            assert_eq!(ctx.read_u64_cached(gp), 2);
        });
    }

    #[test]
    fn f64_roundtrip() {
        let mut s = sc();
        let off = s.alloc(8, 8);
        s.on(0, |ctx| {
            let gp = GlobalPtr::new(1, off);
            ctx.write_f64(gp, 2.5);
            assert_eq!(ctx.read_f64(gp), 2.5);
        });
    }
}
