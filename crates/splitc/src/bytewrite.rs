//! Byte writes: the Section 4.5 semantic mismatch, and its repair.
//!
//! The Alpha 21064 has no byte store; a byte write compiles to a
//! read-modify-write of the containing word. On a multiprocessor this is
//! a race: two processors updating *different bytes of the same word*
//! can clobber each other, and the load-locked/store-conditional pair
//! that would normally fix it "was consumed by annex manipulation".
//!
//! * [`ScCtx::byte_write_naive`] is the broken compilation — remote
//!   read, modify, remote write — kept so the hazard is reproducible.
//! * [`ScCtx::byte_write`] is the paper's repair: ship the update to the
//!   owning processor through the AM-equivalent queue, where it applies
//!   atomically (one writer: the owner).

use crate::gptr::GlobalPtr;
use crate::op::ScOp;
use crate::runtime::{ScCtx, AM_BYTE_WRITE, AM_WRITE_U32};

impl ScCtx<'_> {
    /// Correct byte write: applied atomically at the owner via the
    /// AM-equivalent queue. Takes effect when the owner polls (at the
    /// latest, the next [`crate::SplitC::barrier`]).
    pub fn byte_write(&mut self, gp: GlobalPtr, value: u8) {
        self.log_op(ScOp::ByteWrite { dst: gp, value });
        if gp.pe() as usize == self.pe() {
            // The owner can update its own byte without a race.
            let word_off = gp.addr() & !7;
            let shift = (gp.addr() & 7) * 8;
            let w = self.m.ld8(word_off);
            let w = (w & !(0xFFu64 << shift)) | ((value as u64) << shift);
            self.m.st8(word_off, w);
            return;
        }
        self.am_deposit(
            gp.pe() as usize,
            AM_BYTE_WRITE,
            [gp.addr(), value as u64, 0, 0],
        );
    }

    /// The broken compilation of a remote byte write: blocking read of
    /// the containing word, byte insert, blocking write back. Two nodes
    /// doing this to different bytes of one word can lose an update.
    pub fn byte_write_naive(&mut self, gp: GlobalPtr, value: u8) {
        let word = GlobalPtr::new(gp.pe(), gp.addr() & !7);
        let shift = (gp.addr() & 7) * 8;
        let w = self.read_u64(word);
        let w = (w & !(0xFFu64 << shift)) | ((value as u64) << shift);
        self.write_u64(word, w);
    }

    /// Blocking byte read (uncached word read + extract).
    pub fn byte_read(&mut self, gp: GlobalPtr) -> u8 {
        let word = GlobalPtr::new(gp.pe(), gp.addr() & !7);
        let shift = (gp.addr() & 7) * 8;
        (self.read_u64(word) >> shift) as u8
    }

    /// Correct 32-bit write: applied atomically at the owner via the
    /// AM-equivalent queue (like [`ScCtx::byte_write`], because the
    /// Alpha has no sub-64-bit stores).
    ///
    /// # Panics
    ///
    /// Panics if the address is not 4-byte aligned.
    pub fn write_u32(&mut self, gp: GlobalPtr, value: u32) {
        self.log_op(ScOp::WriteU32 { dst: gp, value });
        assert_eq!(gp.addr() % 4, 0, "u32 writes must be 4-byte aligned");
        if gp.pe() as usize == self.pe() {
            let word_off = gp.addr() & !7;
            let shift = (gp.addr() & 7) * 8;
            let w = self.m.ld8(word_off);
            let w = (w & !(0xFFFF_FFFFu64 << shift)) | ((value as u64) << shift);
            self.m.st8(word_off, w);
            return;
        }
        self.am_deposit(
            gp.pe() as usize,
            AM_WRITE_U32,
            [gp.addr(), value as u64, 0, 0],
        );
    }

    /// Blocking 32-bit read (uncached word read + extract).
    ///
    /// # Panics
    ///
    /// Panics if the address is not 4-byte aligned.
    pub fn read_u32(&mut self, gp: GlobalPtr) -> u32 {
        assert_eq!(gp.addr() % 4, 0, "u32 reads must be 4-byte aligned");
        let word = GlobalPtr::new(gp.pe(), gp.addr() & !7);
        let shift = (gp.addr() & 7) * 8;
        (self.read_u64(word) >> shift) as u32
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
    fn owner_byte_write_is_direct() {
        let mut s = sc();
        let buf = s.alloc(8, 8);
        s.on(0, |ctx| {
            ctx.byte_write(GlobalPtr::new(0, buf + 3), 0xAB);
            assert_eq!(ctx.byte_read(GlobalPtr::new(0, buf + 3)), 0xAB);
        });
    }

    #[test]
    fn naive_concurrent_byte_writes_clobber() {
        // Section 4.5: PEs 1 and 2 update different bytes of PE 0's word
        // "at the same time" (same phase, interleaved read-modify-write);
        // one update is lost.
        let mut s = sc();
        let buf = s.alloc(8, 8);
        // Interleave: both read the original word, then both write.
        let w1 = s.on(1, |ctx| {
            let w = ctx.read_u64(GlobalPtr::new(0, buf));
            (w & !0xFF) | 0x11
        });
        let w2 = s.on(2, |ctx| {
            let w = ctx.read_u64(GlobalPtr::new(0, buf));
            (w & !0xFF00) | 0x2200
        });
        s.on(1, |ctx| ctx.write_u64(GlobalPtr::new(0, buf), w1));
        s.on(2, |ctx| ctx.write_u64(GlobalPtr::new(0, buf), w2));
        s.barrier();
        let w = s.machine().peek8(0, buf);
        assert_ne!(
            w, 0x2211,
            "the interleaved read-modify-writes must NOT both survive"
        );
        assert_eq!(w, 0x2200, "PE 2's write clobbered PE 1's byte");
    }

    #[test]
    fn am_byte_writes_from_many_nodes_all_survive() {
        let mut s = sc();
        let buf = s.alloc(8, 8);
        s.run_phase(|ctx| {
            if ctx.pe() != 0 {
                let b = ctx.pe() as u64;
                ctx.byte_write(GlobalPtr::new(0, buf + b), 0x10 * b as u8);
            }
        });
        s.barrier();
        let w = s.machine().peek8(0, buf);
        assert_eq!(w & 0xFF, 0, "byte 0 untouched");
        assert_eq!((w >> 8) & 0xFF, 0x10);
        assert_eq!((w >> 16) & 0xFF, 0x20);
        assert_eq!(
            (w >> 24) & 0xFF,
            0x30,
            "all three concurrent byte writes survived"
        );
    }

    #[test]
    fn concurrent_u32_halves_both_survive() {
        let mut s = sc();
        let buf = s.alloc(8, 8);
        s.on(1, |ctx| ctx.write_u32(GlobalPtr::new(0, buf), 0x1111_2222));
        s.on(2, |ctx| {
            ctx.write_u32(GlobalPtr::new(0, buf + 4), 0x3333_4444)
        });
        s.barrier();
        assert_eq!(s.machine().peek8(0, buf), 0x3333_4444_1111_2222);
    }

    #[test]
    fn u32_roundtrip_and_alignment() {
        let mut s = sc();
        let buf = s.alloc(8, 8);
        s.on(0, |ctx| {
            ctx.write_u32(GlobalPtr::new(0, buf + 4), 77);
            assert_eq!(ctx.read_u32(GlobalPtr::new(0, buf + 4)), 77);
        });
        s.on(1, |ctx| ctx.write_u32(GlobalPtr::new(0, buf), 55));
        s.barrier();
        let got = s.on(2, |ctx| ctx.read_u32(GlobalPtr::new(0, buf)));
        assert_eq!(got, 55);
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn misaligned_u32_panics() {
        let mut s = sc();
        let buf = s.alloc(8, 8);
        s.on(0, |ctx| ctx.write_u32(GlobalPtr::new(1, buf + 2), 1));
    }

    #[test]
    fn byte_read_extracts_the_right_byte() {
        let mut s = sc();
        let buf = s.alloc(8, 8);
        s.machine().poke8(1, buf, 0x0807060504030201);
        s.on(0, |ctx| {
            for i in 0..8u64 {
                assert_eq!(ctx.byte_read(GlobalPtr::new(1, buf + i)), (i + 1) as u8);
            }
        });
    }
}
