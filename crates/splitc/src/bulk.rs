//! Bulk transfer (Section 6).
//!
//! Four mechanisms can move a block on the T3D — uncached reads, cached
//! reads, the prefetch queue and the BLT — and the paper micro-benchmarks
//! all four (Figure 8) to derive the Split-C policy implemented here:
//!
//! * `bulk_read`: an uncached read for 8 bytes; the prefetch queue up to
//!   the ~16 KB crossover; the BLT beyond it.
//! * `bulk_write`: non-blocking (merging) stores at every size — the
//!   paper finds them strictly superior to the BLT for writes.
//! * `bulk_get`: the prefetch loop below 7,900 bytes (what the BLT could
//!   read during its own 180 µs start-up), a *non-blocking* BLT beyond.
//! * `bulk_put`: non-blocking stores, completion at `sync`.
//!
//! The explicit per-mechanism functions (`bulk_read_uncached`, ...)
//! remain public because the Figure 8 comparison needs them.

use crate::gptr::GlobalPtr;
use crate::op::ScOp;
use crate::runtime::ScCtx;
use t3d_shell::blt::BltDirection;
use t3d_shell::FuncCode;
use t3dsan::{SanOp, WriteKind, NO_REG};

/// Cost of flushing the entire cache in one batched operation, cheaper
/// than per-line flushes beyond ~64 lines (the Figure 8 footnote's 8 KB
/// inflection for cached bulk reads).
const FULL_CACHE_FLUSH_CY: u64 = 1_500;

impl ScCtx<'_> {
    /// Blocking bulk read of `bytes` from `*src` into local memory at
    /// `local_off`, using the measured-best mechanism for the size.
    ///
    /// # Example
    ///
    /// ```
    /// use splitc::{GlobalPtr, SplitC};
    /// use t3d_machine::{Cpu, MachineConfig};
    ///
    /// let mut sc = SplitC::new(MachineConfig::t3d(2));
    /// let src = sc.alloc(1024, 8);
    /// let dst = sc.alloc(1024, 8);
    /// sc.machine().poke8(1, src + 512, 7);
    /// // 1 KB: the runtime picks the prefetch queue automatically.
    /// sc.on(0, |ctx| ctx.bulk_read(dst, GlobalPtr::new(1, src), 1024));
    /// Cpu::new(sc.machine(), 0).memory_barrier();
    /// assert_eq!(sc.machine().peek8(0, dst + 512), 7);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero or not a multiple of 8.
    pub fn bulk_read(&mut self, local_off: u64, src: GlobalPtr, bytes: u64) {
        self.rec(ScOp::BulkRead {
            local_off,
            src,
            bytes,
        });
        assert!(
            bytes > 0 && bytes.is_multiple_of(8),
            "bulk transfers move whole words"
        );
        self.rt.stats.bulk_ops += 1;
        if src.pe() as usize == self.pe() {
            self.local_copy(local_off, src.addr(), bytes);
        } else if bytes <= 8 {
            // Delegates to read_u64, which emits its own event.
            let v = self.read_u64(src);
            self.m.st8(local_off, v);
            return;
        } else if bytes < self.cfg.bulk_blt_read_min {
            self.bulk_read_prefetch(local_off, src, bytes);
        } else {
            self.bulk_read_blt(local_off, src, bytes);
        }
        self.san_emit(
            SanOp::Read {
                target: src.pe(),
                addr: src.addr(),
                len: bytes,
                reg: NO_REG,
            },
            "bulk_read",
        );
    }

    /// Blocking bulk write of `bytes` from local memory at `local_off`
    /// to `*dst` (non-blocking stores, then fence + acknowledge).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero or not a multiple of 8.
    pub fn bulk_write(&mut self, dst: GlobalPtr, local_off: u64, bytes: u64) {
        self.rec(ScOp::BulkWrite {
            dst,
            local_off,
            bytes,
        });
        assert!(
            bytes > 0 && bytes.is_multiple_of(8),
            "bulk transfers move whole words"
        );
        self.rt.stats.bulk_ops += 1;
        if dst.pe() as usize == self.pe() {
            self.local_copy(dst.addr(), local_off, bytes);
        } else {
            self.bulk_write_stores(dst, local_off, bytes);
            self.m.memory_barrier();
            self.m.wait_write_acks();
        }
        self.san_emit(
            SanOp::Write {
                target: dst.pe(),
                addr: dst.addr(),
                len: bytes,
                kind: WriteKind::Blocking,
                reg: NO_REG,
            },
            "bulk_write",
        );
    }

    /// Non-blocking bulk get: initiates the transfer; completion at
    /// [`ScCtx::sync`].
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero or not a multiple of 8.
    pub fn bulk_get(&mut self, local_off: u64, src: GlobalPtr, bytes: u64) {
        self.rec(ScOp::BulkGet {
            local_off,
            src,
            bytes,
        });
        assert!(
            bytes > 0 && bytes.is_multiple_of(8),
            "bulk transfers move whole words"
        );
        self.rt.stats.bulk_ops += 1;
        if src.pe() as usize == self.pe() {
            self.local_copy(local_off, src.addr(), bytes);
        } else if bytes < self.cfg.bulk_get_blt_min {
            // Below the BLT's own start-up budget: the prefetch loop is
            // faster even though it cannot truly overlap (16-deep queue).
            self.bulk_read_prefetch(local_off, src, bytes);
        } else {
            let h = self.m.blt_start(
                BltDirection::Read,
                local_off,
                src.pe() as usize,
                src.addr(),
                bytes,
            );
            self.rt.pending_blts.push(h.completion);
        }
        self.san_emit(
            SanOp::Read {
                target: src.pe(),
                addr: src.addr(),
                len: bytes,
                reg: NO_REG,
            },
            "bulk_get",
        );
    }

    /// Non-blocking bulk put: non-blocking stores; completion at
    /// [`ScCtx::sync`].
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero or not a multiple of 8.
    pub fn bulk_put(&mut self, dst: GlobalPtr, local_off: u64, bytes: u64) {
        self.rec(ScOp::BulkPut {
            dst,
            local_off,
            bytes,
        });
        assert!(
            bytes > 0 && bytes.is_multiple_of(8),
            "bulk transfers move whole words"
        );
        self.rt.stats.bulk_ops += 1;
        if dst.pe() as usize == self.pe() {
            self.local_copy(dst.addr(), local_off, bytes);
        } else {
            self.bulk_write_stores(dst, local_off, bytes);
        }
        self.san_emit(
            SanOp::Write {
                target: dst.pe(),
                addr: dst.addr(),
                len: bytes,
                kind: WriteKind::Put,
                reg: NO_REG,
            },
            "bulk_put",
        );
    }

    /// Strided bulk read: gathers `count` elements of `elem_bytes`
    /// spaced `stride_bytes` apart at the source into consecutive local
    /// memory — the strided-array capability of the BLT (Section 6.2).
    /// Uses the prefetch loop per element below the BLT crossover.
    ///
    /// # Panics
    ///
    /// Panics on zero sizes, non-multiple-of-8 element sizes, or a
    /// stride smaller than the element (overlapping windows).
    pub fn bulk_read_strided(
        &mut self,
        local_off: u64,
        src: GlobalPtr,
        count: u64,
        elem_bytes: u64,
        stride_bytes: u64,
    ) -> u64 {
        self.rec(ScOp::BulkReadStrided {
            local_off,
            src,
            count,
            elem_bytes,
            stride_bytes,
        });
        assert!(
            elem_bytes > 0 && elem_bytes.is_multiple_of(8),
            "elements are whole words"
        );
        assert!(count > 0, "strided read must move data");
        // Same precondition as the machine's BLT path, asserted here so
        // every transfer size rejects overlapping windows identically.
        assert!(
            stride_bytes >= elem_bytes,
            "stride must not overlap elements"
        );
        self.rt.stats.bulk_ops += 1;
        let total = count * elem_bytes;
        if src.pe() as usize == self.pe() {
            for i in 0..count {
                self.local_copy(
                    local_off + i * elem_bytes,
                    src.addr() + i * stride_bytes,
                    elem_bytes,
                );
            }
        } else if total < self.cfg.bulk_blt_read_min {
            for i in 0..count {
                self.bulk_read_prefetch(
                    local_off + i * elem_bytes,
                    GlobalPtr::new(src.pe(), src.addr() + i * stride_bytes),
                    elem_bytes,
                );
            }
        } else {
            let h = self.m.blt_start_strided(
                BltDirection::Read,
                local_off,
                src.pe() as usize,
                src.addr(),
                count,
                elem_bytes,
                stride_bytes,
            );
            self.m.blt_wait(h);
        }
        // Conservative span: the whole strided extent at the source.
        self.san_emit(
            SanOp::Read {
                target: src.pe(),
                addr: src.addr(),
                len: (count - 1) * stride_bytes + elem_bytes,
                reg: NO_REG,
            },
            "bulk_read_strided",
        );
        total
    }

    /// Strided bulk write: scatters consecutive local elements to
    /// positions `stride_bytes` apart at the destination.
    ///
    /// # Panics
    ///
    /// Panics on zero sizes, non-multiple-of-8 element sizes, or a
    /// stride smaller than the element (overlapping windows).
    pub fn bulk_write_strided(
        &mut self,
        dst: GlobalPtr,
        local_off: u64,
        count: u64,
        elem_bytes: u64,
        stride_bytes: u64,
    ) -> u64 {
        self.rec(ScOp::BulkWriteStrided {
            dst,
            local_off,
            count,
            elem_bytes,
            stride_bytes,
        });
        assert!(
            elem_bytes > 0 && elem_bytes.is_multiple_of(8),
            "elements are whole words"
        );
        assert!(count > 0, "strided write must move data");
        assert!(
            stride_bytes >= elem_bytes,
            "stride must not overlap elements"
        );
        self.rt.stats.bulk_ops += 1;
        let total = count * elem_bytes;
        if dst.pe() as usize == self.pe() {
            for i in 0..count {
                self.local_copy(
                    dst.addr() + i * stride_bytes,
                    local_off + i * elem_bytes,
                    elem_bytes,
                );
            }
        } else {
            // Stores win bulk writes at every size; strided stores simply
            // forgo the line merging.
            for i in 0..count {
                self.bulk_write_stores(
                    GlobalPtr::new(dst.pe(), dst.addr() + i * stride_bytes),
                    local_off + i * elem_bytes,
                    elem_bytes,
                );
            }
            self.m.memory_barrier();
            self.m.wait_write_acks();
        }
        self.san_emit(
            SanOp::Write {
                target: dst.pe(),
                addr: dst.addr(),
                len: (count - 1) * stride_bytes + elem_bytes,
                kind: WriteKind::Blocking,
                reg: NO_REG,
            },
            "bulk_write_strided",
        );
        total
    }

    // ------------------------------------------------------------------
    // Explicit mechanisms (the Figure 8 contenders)
    // ------------------------------------------------------------------

    /// Bulk read via one uncached load per word.
    pub fn bulk_read_uncached(&mut self, local_off: u64, src: GlobalPtr, bytes: u64) {
        let idx = self
            .rt
            .annex
            .ensure(&mut self.m, src.pe(), FuncCode::Uncached);
        for w in 0..bytes / 8 {
            let va = self.m.va(idx, src.addr() + w * 8);
            let v = self.m.ld8(va);
            self.m.st8(local_off + w * 8, v);
            self.m.advance(self.cfg.bulk_loop_cy);
        }
    }

    /// Bulk read via cached loads: one line fill serves four words, but
    /// every fetched line must be flushed to preserve coherence — per
    /// line below 8 KB, in one batched whole-cache flush at or above it
    /// (the Figure 8 footnote).
    pub fn bulk_read_cached(&mut self, local_off: u64, src: GlobalPtr, bytes: u64) {
        let idx = self
            .rt
            .annex
            .ensure(&mut self.m, src.pe(), FuncCode::Cached);
        let line = 32u64;
        let batched_flush = bytes >= 8 * 1024;
        let mut w = 0u64;
        while w * 8 < bytes {
            let va = self.m.va(idx, src.addr() + w * 8);
            let v = self.m.ld8(va);
            self.m.st8(local_off + w * 8, v);
            self.m.advance(self.cfg.bulk_loop_cy);
            let at_line_end = ((src.addr() + w * 8) % line == line - 8) || (w + 1) * 8 >= bytes;
            if at_line_end && !batched_flush {
                let cost = self.m.node_mut().port.flush_line(va);
                self.m.advance(cost);
            }
            w += 1;
        }
        if batched_flush {
            self.m.node_mut().port.l1_mut().invalidate_all();
            self.m.advance(FULL_CACHE_FLUSH_CY);
        }
    }

    /// Bulk read via the binding prefetch queue, pipelined 16 deep.
    pub fn bulk_read_prefetch(&mut self, local_off: u64, src: GlobalPtr, bytes: u64) {
        // Any gets already outstanding would interleave in the FIFO.
        self.drain_gets(true);
        let idx = self
            .rt
            .annex
            .ensure(&mut self.m, src.pe(), FuncCode::Uncached);
        let depth = self.m.node().prefetch.depth() as u64;
        let words = bytes / 8;
        let mut done = 0u64;
        while done < words {
            let group = depth.min(words - done);
            for i in 0..group {
                let va = self.m.va(idx, src.addr() + (done + i) * 8);
                let ok = self.m.fetch(va);
                debug_assert!(ok, "queue drained each group");
                self.m.advance(self.cfg.bulk_loop_cy);
            }
            self.m.memory_barrier();
            for i in 0..group {
                let v = self.m.pop_prefetch().expect("fenced group");
                self.m.st8(local_off + (done + i) * 8, v);
            }
            done += group;
        }
    }

    /// Bulk read via the block transfer engine (blocking).
    pub fn bulk_read_blt(&mut self, local_off: u64, src: GlobalPtr, bytes: u64) {
        let h = self.m.blt_start(
            BltDirection::Read,
            local_off,
            src.pe() as usize,
            src.addr(),
            bytes,
        );
        self.m.blt_wait(h);
    }

    /// Bulk write via non-blocking stores (write-merging batches whole
    /// lines through the shell at ~90 MB/s). Does not wait.
    pub fn bulk_write_stores(&mut self, dst: GlobalPtr, local_off: u64, bytes: u64) {
        let idx = self
            .rt
            .annex
            .ensure(&mut self.m, dst.pe(), FuncCode::Uncached);
        for w in 0..bytes / 8 {
            // Charge the local load of the source word.
            let va_local = local_off + w * 8;
            let v = self.m.ld8(va_local);
            debug_assert_eq!(v, self.m.peek8(va_local));
            let va = self.m.va(idx, dst.addr() + w * 8);
            self.m.st8(va, v);
            self.m.advance(self.cfg.bulk_loop_cy);
        }
    }

    /// Bulk write via the BLT (blocking) — measured *slower* than stores
    /// at every size; present for the Figure 8 comparison.
    pub fn bulk_write_blt(&mut self, dst: GlobalPtr, local_off: u64, bytes: u64) {
        self.m.memory_barrier(); // source words must be in memory
        let h = self.m.blt_start(
            BltDirection::Write,
            local_off,
            dst.pe() as usize,
            dst.addr(),
            bytes,
        );
        self.m.blt_wait(h);
    }

    /// Local memory-to-memory copy through the cache hierarchy.
    fn local_copy(&mut self, dst_off: u64, src_off: u64, bytes: u64) {
        for w in 0..bytes / 8 {
            let v = self.m.ld8(src_off + w * 8);
            self.m.st8(dst_off + w * 8, v);
            self.m.advance(self.cfg.bulk_loop_cy);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::runtime::SplitC;
    use crate::GlobalPtr;
    use t3d_machine::{Cpu, MachineConfig};

    fn sc() -> SplitC {
        SplitC::new(MachineConfig::t3d(2))
    }

    fn fill(s: &mut SplitC, pe: usize, off: u64, words: u64) {
        for w in 0..words {
            s.machine().poke8(pe, off + w * 8, 0xA000 + w);
        }
    }

    fn check(s: &mut SplitC, pe: usize, off: u64, words: u64) {
        Cpu::new(s.machine(), pe).memory_barrier(); // retire any buffered local stores
        for w in 0..words {
            assert_eq!(s.machine().peek8(pe, off + w * 8), 0xA000 + w, "word {w}");
        }
    }

    #[test]
    fn bulk_read_all_mechanisms_move_the_data() {
        for bytes in [8u64, 64, 1024, 32 * 1024] {
            let mut s = sc();
            let src = s.alloc(bytes, 8);
            let dst = s.alloc(bytes, 8);
            fill(&mut s, 1, src, bytes / 8);
            s.on(0, |ctx| ctx.bulk_read(dst, GlobalPtr::new(1, src), bytes));
            check(&mut s, 0, dst, bytes / 8);
        }
    }

    #[test]
    fn bulk_write_moves_the_data() {
        let mut s = sc();
        let src = s.alloc(4096, 8);
        let dst = s.alloc(4096, 8);
        fill(&mut s, 0, src, 512);
        s.on(0, |ctx| ctx.bulk_write(GlobalPtr::new(1, dst), src, 4096));
        check(&mut s, 1, dst, 512);
    }

    #[test]
    fn prefetch_beats_uncached_beyond_a_few_words() {
        let bytes = 1024u64;
        let mut s = sc();
        let src = s.alloc(bytes, 8);
        let dst = s.alloc(bytes, 8);
        let t_pf = s.on(0, |ctx| {
            let t0 = ctx.clock();
            ctx.bulk_read_prefetch(dst, GlobalPtr::new(1, src), bytes);
            ctx.clock() - t0
        });
        let mut s2 = sc();
        let src2 = s2.alloc(bytes, 8);
        let dst2 = s2.alloc(bytes, 8);
        let t_un = s2.on(0, |ctx| {
            let t0 = ctx.clock();
            ctx.bulk_read_uncached(dst2, GlobalPtr::new(1, src2), bytes);
            ctx.clock() - t0
        });
        assert!(t_pf < t_un / 2, "prefetch {t_pf} cy vs uncached {t_un} cy");
    }

    #[test]
    fn blt_wins_only_above_the_crossover() {
        for (bytes, blt_should_win) in [(8 * 1024u64, false), (64 * 1024, true)] {
            let mut s = sc();
            let src = s.alloc(bytes, 8);
            let dst = s.alloc(bytes, 8);
            let t_pf = s.on(0, |ctx| {
                let t0 = ctx.clock();
                ctx.bulk_read_prefetch(dst, GlobalPtr::new(1, src), bytes);
                ctx.clock() - t0
            });
            let mut s2 = sc();
            let src2 = s2.alloc(bytes, 8);
            let dst2 = s2.alloc(bytes, 8);
            let t_blt = s2.on(0, |ctx| {
                let t0 = ctx.clock();
                ctx.bulk_read_blt(dst2, GlobalPtr::new(1, src2), bytes);
                ctx.clock() - t0
            });
            assert_eq!(
                t_blt < t_pf,
                blt_should_win,
                "at {bytes} B: blt {t_blt} cy vs prefetch {t_pf} cy"
            );
        }
    }

    #[test]
    fn stores_beat_blt_for_writes_at_all_sizes() {
        for bytes in [1024u64, 16 * 1024, 128 * 1024] {
            let mut s = sc();
            let src = s.alloc(bytes, 8);
            let dst = s.alloc(bytes, 8);
            let t_st = s.on(0, |ctx| {
                let t0 = ctx.clock();
                ctx.bulk_write(GlobalPtr::new(1, dst), src, bytes);
                ctx.clock() - t0
            });
            let mut s2 = sc();
            let src2 = s2.alloc(bytes, 8);
            let dst2 = s2.alloc(bytes, 8);
            let t_blt = s2.on(0, |ctx| {
                let t0 = ctx.clock();
                ctx.bulk_write_blt(GlobalPtr::new(1, dst2), src2, bytes);
                ctx.clock() - t0
            });
            assert!(
                t_st < t_blt,
                "at {bytes} B: stores {t_st} cy must beat BLT {t_blt} cy"
            );
        }
    }

    #[test]
    fn bulk_get_is_nonblocking_above_crossover() {
        let bytes = 64 * 1024u64;
        let mut s = sc();
        let src = s.alloc(bytes, 8);
        let dst = s.alloc(bytes, 8);
        fill(&mut s, 1, src, bytes / 8);
        s.on(0, |ctx| {
            let t0 = ctx.clock();
            ctx.bulk_get(dst, GlobalPtr::new(1, src), bytes);
            let initiate = ctx.clock() - t0;
            // Only the OS start-up is charged at initiation.
            assert!(initiate < 30_000, "initiation cost {initiate} cy");
            ctx.sync();
            let total = ctx.clock() - t0;
            assert!(total > initiate, "sync waited for the DMA");
        });
        check(&mut s, 0, dst, bytes / 8);
    }

    #[test]
    fn bulk_put_completes_at_sync() {
        let mut s = sc();
        let src = s.alloc(1024, 8);
        let dst = s.alloc(1024, 8);
        fill(&mut s, 0, src, 128);
        s.on(0, |ctx| {
            ctx.bulk_put(GlobalPtr::new(1, dst), src, 1024);
            ctx.sync();
        });
        check(&mut s, 1, dst, 128);
    }

    #[test]
    fn cached_bulk_read_moves_data_with_flushes() {
        let mut s = sc();
        let bytes = 512u64;
        let src = s.alloc(bytes, 32);
        let dst = s.alloc(bytes, 32);
        fill(&mut s, 1, src, bytes / 8);
        s.on(0, |ctx| {
            ctx.bulk_read_cached(dst, GlobalPtr::new(1, src), bytes);
            // Nothing may remain cached: coherence was preserved.
            // (Lines of the *destination* may be cached; the remote
            // source lines must not be.)
        });
        check(&mut s, 0, dst, bytes / 8);
        // Updating the source and re-reading must see fresh data.
        s.machine().poke8(1, src, 1);
        s.on(0, |ctx| {
            assert_eq!(
                ctx.read_u64(GlobalPtr::new(1, src)),
                1,
                "no stale line survived"
            );
        });
    }

    #[test]
    fn strided_read_gathers_a_column() {
        let mut s = sc();
        // 16x16 matrix of words on PE 1, row-major.
        let mat = s.alloc(16 * 16 * 8, 8);
        let col = s.alloc(16 * 8, 8);
        for r in 0..16u64 {
            for c in 0..16u64 {
                s.machine().poke8(1, mat + (r * 16 + c) * 8, r * 16 + c);
            }
        }
        s.on(0, |ctx| {
            ctx.bulk_read_strided(col, GlobalPtr::new(1, mat + 5 * 8), 16, 8, 16 * 8);
        });
        Cpu::new(s.machine(), 0).memory_barrier();
        for r in 0..16u64 {
            assert_eq!(s.machine().peek8(0, col + r * 8), r * 16 + 5, "row {r}");
        }
    }

    #[test]
    fn strided_write_scatters_a_column() {
        let mut s = sc();
        let mat = s.alloc(16 * 16 * 8, 8);
        let col = s.alloc(16 * 8, 8);
        for r in 0..16u64 {
            s.machine().poke8(0, col + r * 8, 900 + r);
        }
        s.on(0, |ctx| {
            ctx.bulk_write_strided(GlobalPtr::new(1, mat + 2 * 8), col, 16, 8, 16 * 8);
        });
        for r in 0..16u64 {
            assert_eq!(
                s.machine().peek8(1, mat + (r * 16 + 2) * 8),
                900 + r,
                "row {r}"
            );
        }
    }

    #[test]
    fn large_strided_read_uses_the_blt() {
        let mut s = sc();
        let count = 4096u64;
        let src = s.alloc(count * 16, 8);
        let dst = s.alloc(count * 8, 8);
        s.on(0, |ctx| {
            let t0 = ctx.clock();
            ctx.bulk_read_strided(dst, GlobalPtr::new(1, src), count, 8, 16);
            let cost = ctx.clock() - t0;
            assert!(cost >= 27_000, "BLT start-up paid");
            assert_eq!(ctx.machine().op_stats(0).blts, 1, "one BLT invocation");
        });
    }

    #[test]
    #[should_panic(expected = "whole words")]
    fn unaligned_bulk_panics() {
        let mut s = sc();
        let src = s.alloc(16, 8);
        let dst = s.alloc(16, 8);
        s.on(0, |ctx| ctx.bulk_read(dst, GlobalPtr::new(1, src), 12));
    }
}
