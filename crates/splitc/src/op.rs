//! A first-class operation surface for driving the runtime uniformly.
//!
//! [`ScOp`] reifies every Split-C primitive — blocking read/write,
//! split-phase get/put/sync, signaling stores, bulk transfers, byte and
//! word sub-accesses, AM-queue traffic and locks — as one plain-data
//! enum, and [`ScCtx::exec_op`] executes any of them. Generated
//! programs (the `t3d-fuzz` differential fuzzer) and replay tooling use
//! this to compose the full primitive surface without a closure per op;
//! because `ScOp` is `Copy + Debug`, an op list *is* a self-contained,
//! printable reproducer.
//!
//! Two composite lock ops exist so that a statically-known op list can
//! express the conditional shapes locks are actually used in:
//! [`ScOp::LockGuardedWrite`] (try-acquire, write under the lock,
//! release — skipped wholesale when the lock is busy) and
//! [`ScOp::LockFreeIfHeld`] (release only when the word is held, so
//! replaying a shrunken list can never trip the "released a lock that
//! was not held" assertion).

use crate::gptr::GlobalPtr;
use crate::lock::GlobalLock;
use crate::runtime::{ScCtx, AM_ADD_U64};
use t3d_machine::MachineConfig;

/// One Split-C primitive invocation, as plain data.
///
/// Executed by [`ScCtx::exec_op`]; ops that produce a value return it as
/// `Some(u64)` (booleans widen to 0/1), pure effects return `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScOp {
    /// Charge `cycles` of local computation.
    Advance {
        /// Cycles to charge.
        cycles: u64,
    },
    /// Blocking read of a 64-bit word.
    ReadU64 {
        /// Word to read.
        src: GlobalPtr,
    },
    /// Blocking write of a 64-bit word.
    WriteU64 {
        /// Word to write.
        dst: GlobalPtr,
        /// Value stored.
        value: u64,
    },
    /// Read of an aligned 32-bit sub-word.
    ReadU32 {
        /// Location read (4-byte aligned).
        src: GlobalPtr,
    },
    /// Write of an aligned 32-bit sub-word (remote goes via the AM
    /// queue).
    WriteU32 {
        /// Location written (4-byte aligned).
        dst: GlobalPtr,
        /// Value stored.
        value: u32,
    },
    /// Read of a single byte.
    ByteRead {
        /// Byte read.
        src: GlobalPtr,
    },
    /// Correct byte write (remote goes via the AM queue).
    ByteWrite {
        /// Byte written.
        dst: GlobalPtr,
        /// Value stored.
        value: u8,
    },
    /// Split-phase get into `local_off`; completes at [`ScOp::Sync`].
    Get {
        /// Local landing offset.
        local_off: u64,
        /// Remote word fetched.
        src: GlobalPtr,
    },
    /// Split-phase put.
    Put {
        /// Word written.
        dst: GlobalPtr,
        /// Value stored.
        value: u64,
    },
    /// Completes all outstanding gets and puts of this PE.
    Sync,
    /// Signaling store (counts toward the target's `store_sync`).
    StoreU64 {
        /// Word written.
        dst: GlobalPtr,
        /// Value stored.
        value: u64,
    },
    /// Waits until `bytes` more store data has arrived here.
    StoreSync {
        /// Bytes of store traffic to wait for.
        bytes: u64,
    },
    /// Blocking bulk read.
    BulkRead {
        /// Local landing offset.
        local_off: u64,
        /// First remote word.
        src: GlobalPtr,
        /// Whole-word byte count.
        bytes: u64,
    },
    /// Blocking bulk write.
    BulkWrite {
        /// First remote word written.
        dst: GlobalPtr,
        /// Local source offset.
        local_off: u64,
        /// Whole-word byte count.
        bytes: u64,
    },
    /// Non-blocking bulk get; completes at [`ScOp::Sync`].
    BulkGet {
        /// Local landing offset.
        local_off: u64,
        /// First remote word.
        src: GlobalPtr,
        /// Whole-word byte count.
        bytes: u64,
    },
    /// Non-blocking bulk put; completes at [`ScOp::Sync`].
    BulkPut {
        /// First remote word written.
        dst: GlobalPtr,
        /// Local source offset.
        local_off: u64,
        /// Whole-word byte count.
        bytes: u64,
    },
    /// Strided bulk read (gather).
    BulkReadStrided {
        /// Local landing offset (elements packed densely).
        local_off: u64,
        /// First remote element.
        src: GlobalPtr,
        /// Number of elements.
        count: u64,
        /// Element size in bytes (whole words).
        elem_bytes: u64,
        /// Remote stride in bytes.
        stride_bytes: u64,
    },
    /// Strided bulk write (scatter).
    BulkWriteStrided {
        /// First remote element written.
        dst: GlobalPtr,
        /// Local source offset (elements packed densely).
        local_off: u64,
        /// Number of elements.
        count: u64,
        /// Element size in bytes (whole words).
        elem_bytes: u64,
        /// Remote stride in bytes.
        stride_bytes: u64,
    },
    /// AM-queue remote add: deposits an [`AM_ADD_U64`] message that adds
    /// `delta` to the word at `off` on `target_pe` when it polls.
    AmAdd {
        /// Queue owner.
        target_pe: u32,
        /// Local offset of the word on the target.
        off: u64,
        /// Added (wrapping) at dispatch time.
        delta: u64,
    },
    /// Polls this PE's AM queue; returns the number dispatched.
    AmPoll,
    /// Try-acquire of the lock at `word`; returns 1 when acquired.
    LockTryAcquire {
        /// The lock word.
        word: GlobalPtr,
    },
    /// Release of the lock at `word` (panics when not held).
    LockRelease {
        /// The lock word.
        word: GlobalPtr,
    },
    /// Functional probe of the lock word; returns 1 when held.
    LockIsHeld {
        /// The lock word.
        word: GlobalPtr,
    },
    /// Composite: try-acquire `word`; when acquired, write `value` to
    /// `dst` and release. Returns 1 when the write happened, 0 when the
    /// lock was busy.
    LockGuardedWrite {
        /// The lock word.
        word: GlobalPtr,
        /// Word written inside the critical section.
        dst: GlobalPtr,
        /// Value stored.
        value: u64,
    },
    /// Composite: release `word` only when it is currently held.
    /// Returns 1 when a release happened.
    LockFreeIfHeld {
        /// The lock word.
        word: GlobalPtr,
    },
}

/// A contiguous byte range on one PE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddrSpan {
    /// Owning PE.
    pub pe: u32,
    /// First byte (local address).
    pub addr: u64,
    /// Length in bytes.
    pub bytes: u64,
}

impl AddrSpan {
    /// Whether two spans share at least one byte on the same PE.
    pub fn overlaps(&self, other: &AddrSpan) -> bool {
        self.pe == other.pe
            && self.addr < other.addr + other.bytes
            && other.addr < self.addr + self.bytes
    }
}

/// The memory footprint of one [`ScOp`]: what it reads and what it
/// writes (may-write for conditional composites), plus whether any span
/// falls outside the machine.
///
/// Strided transfers report their whole remote span, gaps included —
/// the same conservative treatment the sanitizer's span events use.
/// Lock-word traffic contributes no spans: lock words are
/// synchronization state, and counting them as data would make every
/// contended critical section look like a data race.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpFootprint {
    /// Byte ranges the op reads.
    pub reads: Vec<AddrSpan>,
    /// Byte ranges the op writes (or may write).
    pub writes: Vec<AddrSpan>,
    /// Whether any span references a PE outside the machine or bytes
    /// past the end of a node's memory.
    pub oob: bool,
}

impl ScOp {
    /// The byte ranges this op touches when issued by `pe` on a machine
    /// shaped like `cfg` (exhaustive; see [`OpFootprint`]).
    pub fn touched_addrs(&self, pe: u32, cfg: &MachineConfig) -> OpFootprint {
        let mut fp = OpFootprint::default();
        let strided_span = |count: u64, elem: u64, stride: u64| -> Option<u64> {
            count
                .checked_sub(1)
                .and_then(|c| c.checked_mul(stride))
                .and_then(|s| s.checked_add(elem))
        };
        {
            let mut read =
                |p: u32, addr: u64, bytes: u64| fp.reads.push(AddrSpan { pe: p, addr, bytes });
            let mut write =
                |p: u32, addr: u64, bytes: u64| fp.writes.push(AddrSpan { pe: p, addr, bytes });
            match *self {
                ScOp::Advance { .. }
                | ScOp::Sync
                | ScOp::StoreSync { .. }
                | ScOp::AmPoll
                // Lock words are synchronization, not data (see above).
                | ScOp::LockTryAcquire { .. }
                | ScOp::LockRelease { .. }
                | ScOp::LockIsHeld { .. }
                | ScOp::LockFreeIfHeld { .. } => {}
                ScOp::ReadU64 { src } => read(src.pe(), src.addr(), 8),
                ScOp::ReadU32 { src } => read(src.pe(), src.addr(), 4),
                ScOp::ByteRead { src } => read(src.pe(), src.addr(), 1),
                ScOp::WriteU64 { dst, .. } | ScOp::Put { dst, .. } | ScOp::StoreU64 { dst, .. } => {
                    write(dst.pe(), dst.addr(), 8);
                }
                ScOp::WriteU32 { dst, .. } => write(dst.pe(), dst.addr(), 4),
                ScOp::ByteWrite { dst, .. } => write(dst.pe(), dst.addr(), 1),
                ScOp::Get { local_off, src } => {
                    read(src.pe(), src.addr(), 8);
                    write(pe, local_off, 8);
                }
                ScOp::BulkRead {
                    local_off,
                    src,
                    bytes,
                }
                | ScOp::BulkGet {
                    local_off,
                    src,
                    bytes,
                } => {
                    read(src.pe(), src.addr(), bytes);
                    write(pe, local_off, bytes);
                }
                ScOp::BulkWrite {
                    dst,
                    local_off,
                    bytes,
                }
                | ScOp::BulkPut {
                    dst,
                    local_off,
                    bytes,
                } => {
                    read(pe, local_off, bytes);
                    write(dst.pe(), dst.addr(), bytes);
                }
                ScOp::BulkReadStrided {
                    local_off,
                    src,
                    count,
                    elem_bytes,
                    stride_bytes,
                } => {
                    let span = strided_span(count, elem_bytes, stride_bytes);
                    read(src.pe(), src.addr(), span.unwrap_or(u64::MAX));
                    write(pe, local_off, count.saturating_mul(elem_bytes));
                }
                ScOp::BulkWriteStrided {
                    dst,
                    local_off,
                    count,
                    elem_bytes,
                    stride_bytes,
                } => {
                    let span = strided_span(count, elem_bytes, stride_bytes);
                    read(pe, local_off, count.saturating_mul(elem_bytes));
                    write(dst.pe(), dst.addr(), span.unwrap_or(u64::MAX));
                }
                ScOp::AmAdd { target_pe, off, .. } => {
                    // Fetched, added to, and rewritten when the target polls.
                    read(target_pe, off, 8);
                    write(target_pe, off, 8);
                }
                ScOp::LockGuardedWrite { dst, .. } => write(dst.pe(), dst.addr(), 8),
            }
        }
        let nodes = cfg.nodes();
        let mem = cfg.mem.mem_bytes as u64;
        fp.oob = fp
            .reads
            .iter()
            .chain(&fp.writes)
            .any(|s| s.pe >= nodes || s.addr.checked_add(s.bytes).is_none_or(|end| end > mem));
        fp
    }
}

impl ScCtx<'_> {
    /// Executes one [`ScOp`] on this PE, returning its value (if the
    /// primitive produces one).
    ///
    /// # Example
    ///
    /// ```
    /// use splitc::{GlobalPtr, ScOp, SplitC};
    /// use t3d_machine::MachineConfig;
    ///
    /// let mut sc = SplitC::new(MachineConfig::t3d(2));
    /// let cell = sc.alloc(8, 8);
    /// let gp = GlobalPtr::new(1, cell);
    /// sc.on(0, |ctx| {
    ///     ctx.exec_op(&ScOp::WriteU64 { dst: gp, value: 7 });
    ///     assert_eq!(ctx.exec_op(&ScOp::ReadU64 { src: gp }), Some(7));
    /// });
    /// ```
    pub fn exec_op(&mut self, op: &ScOp) -> Option<u64> {
        match *op {
            ScOp::Advance { cycles } => {
                self.advance(cycles);
                None
            }
            ScOp::ReadU64 { src } => Some(self.read_u64(src)),
            ScOp::WriteU64 { dst, value } => {
                self.write_u64(dst, value);
                None
            }
            ScOp::ReadU32 { src } => Some(self.read_u32(src) as u64),
            ScOp::WriteU32 { dst, value } => {
                self.write_u32(dst, value);
                None
            }
            ScOp::ByteRead { src } => Some(self.byte_read(src) as u64),
            ScOp::ByteWrite { dst, value } => {
                self.byte_write(dst, value);
                None
            }
            ScOp::Get { local_off, src } => {
                self.get(local_off, src);
                None
            }
            ScOp::Put { dst, value } => {
                self.put(dst, value);
                None
            }
            ScOp::Sync => {
                self.sync();
                None
            }
            ScOp::StoreU64 { dst, value } => {
                self.store_u64(dst, value);
                None
            }
            ScOp::StoreSync { bytes } => {
                self.store_sync(bytes);
                None
            }
            ScOp::BulkRead {
                local_off,
                src,
                bytes,
            } => {
                self.bulk_read(local_off, src, bytes);
                None
            }
            ScOp::BulkWrite {
                dst,
                local_off,
                bytes,
            } => {
                self.bulk_write(dst, local_off, bytes);
                None
            }
            ScOp::BulkGet {
                local_off,
                src,
                bytes,
            } => {
                self.bulk_get(local_off, src, bytes);
                None
            }
            ScOp::BulkPut {
                dst,
                local_off,
                bytes,
            } => {
                self.bulk_put(dst, local_off, bytes);
                None
            }
            ScOp::BulkReadStrided {
                local_off,
                src,
                count,
                elem_bytes,
                stride_bytes,
            } => {
                self.bulk_read_strided(local_off, src, count, elem_bytes, stride_bytes);
                None
            }
            ScOp::BulkWriteStrided {
                dst,
                local_off,
                count,
                elem_bytes,
                stride_bytes,
            } => {
                self.bulk_write_strided(dst, local_off, count, elem_bytes, stride_bytes);
                None
            }
            ScOp::AmAdd {
                target_pe,
                off,
                delta,
            } => {
                self.am_deposit(target_pe as usize, AM_ADD_U64, [off, delta, 0, 0]);
                None
            }
            ScOp::AmPoll => Some(self.am_poll() as u64),
            ScOp::LockTryAcquire { word } => {
                Some(self.lock_try_acquire(GlobalLock::new(word)) as u64)
            }
            ScOp::LockRelease { word } => {
                self.lock_release(GlobalLock::new(word));
                None
            }
            ScOp::LockIsHeld { word } => Some(self.lock_is_held(GlobalLock::new(word)) as u64),
            ScOp::LockGuardedWrite { word, dst, value } => {
                let lock = GlobalLock::new(word);
                if self.lock_try_acquire(lock) {
                    self.write_u64(dst, value);
                    self.lock_release(lock);
                    Some(1)
                } else {
                    Some(0)
                }
            }
            ScOp::LockFreeIfHeld { word } => {
                let lock = GlobalLock::new(word);
                if self.lock_is_held(lock) {
                    self.lock_release(lock);
                    Some(1)
                } else {
                    Some(0)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::SplitC;
    use t3d_machine::MachineConfig;

    fn sc() -> SplitC {
        SplitC::new(MachineConfig::t3d(4))
    }

    #[test]
    fn rw_ops_match_direct_calls() {
        let mut s = sc();
        let a = s.alloc(64, 8);
        let gp = GlobalPtr::new(1, a);
        s.on(0, |ctx| {
            ctx.exec_op(&ScOp::WriteU64 {
                dst: gp,
                value: 0x1122_3344_5566_7788,
            });
            assert_eq!(
                ctx.exec_op(&ScOp::ReadU64 { src: gp }),
                Some(0x1122_3344_5566_7788)
            );
            assert_eq!(ctx.exec_op(&ScOp::ReadU32 { src: gp }), Some(0x5566_7788));
            assert_eq!(ctx.exec_op(&ScOp::ByteRead { src: gp }), Some(0x88));
            ctx.exec_op(&ScOp::WriteU32 {
                dst: gp.local_add(4),
                value: 0xAABB_CCDD,
            });
            ctx.exec_op(&ScOp::ByteWrite {
                dst: gp,
                value: 0x99,
            });
        });
        s.barrier();
        assert_eq!(s.machine().peek8(1, a), 0xAABB_CCDD_5566_7799);
    }

    #[test]
    fn split_phase_and_store_ops() {
        let mut s = sc();
        let a = s.alloc(64, 8);
        s.machine().poke8(2, a, 424242);
        s.on(0, |ctx| {
            ctx.exec_op(&ScOp::Get {
                local_off: a + 8,
                src: GlobalPtr::new(2, a),
            });
            ctx.exec_op(&ScOp::Put {
                dst: GlobalPtr::new(3, a),
                value: 5,
            });
            ctx.exec_op(&ScOp::Sync);
            ctx.exec_op(&ScOp::StoreU64 {
                dst: GlobalPtr::new(1, a),
                value: 6,
            });
        });
        s.barrier();
        s.on(1, |ctx| ctx.exec_op(&ScOp::StoreSync { bytes: 8 }));
        assert_eq!(s.machine().peek8(0, a + 8), 424242);
        assert_eq!(s.machine().peek8(3, a), 5);
        assert_eq!(s.machine().peek8(1, a), 6);
    }

    #[test]
    fn bulk_ops_move_data() {
        let mut s = sc();
        let a = s.alloc(256, 8);
        for w in 0..4 {
            s.machine().poke8(1, a + w * 8, 100 + w);
        }
        s.on(0, |ctx| {
            ctx.exec_op(&ScOp::BulkRead {
                local_off: a,
                src: GlobalPtr::new(1, a),
                bytes: 32,
            });
            ctx.exec_op(&ScOp::BulkWrite {
                dst: GlobalPtr::new(2, a),
                local_off: a,
                bytes: 32,
            });
            ctx.exec_op(&ScOp::BulkGet {
                local_off: a + 64,
                src: GlobalPtr::new(1, a),
                bytes: 16,
            });
            ctx.exec_op(&ScOp::BulkPut {
                dst: GlobalPtr::new(3, a),
                local_off: a,
                bytes: 16,
            });
            ctx.exec_op(&ScOp::Sync);
            ctx.exec_op(&ScOp::BulkReadStrided {
                local_off: a + 128,
                src: GlobalPtr::new(1, a),
                count: 2,
                elem_bytes: 8,
                stride_bytes: 16,
            });
            ctx.exec_op(&ScOp::BulkWriteStrided {
                dst: GlobalPtr::new(2, a + 64),
                local_off: a,
                count: 2,
                elem_bytes: 8,
                stride_bytes: 24,
            });
        });
        s.barrier();
        for w in 0..4 {
            assert_eq!(s.machine().peek8(0, a + w * 8), 100 + w);
            assert_eq!(s.machine().peek8(2, a + w * 8), 100 + w);
        }
        assert_eq!(s.machine().peek8(0, a + 64), 100);
        assert_eq!(s.machine().peek8(0, a + 72), 101);
        assert_eq!(s.machine().peek8(3, a), 100);
        assert_eq!(s.machine().peek8(3, a + 8), 101);
        assert_eq!(s.machine().peek8(0, a + 128), 100);
        assert_eq!(s.machine().peek8(0, a + 136), 102);
        assert_eq!(s.machine().peek8(2, a + 64), 100);
        assert_eq!(s.machine().peek8(2, a + 88), 101);
    }

    #[test]
    fn am_and_lock_ops() {
        let mut s = sc();
        let a = s.alloc(64, 8);
        let lock_word = GlobalPtr::new(0, a + 8);
        s.on(1, |ctx| {
            ctx.exec_op(&ScOp::AmAdd {
                target_pe: 0,
                off: a,
                delta: 9,
            });
        });
        s.on(0, |ctx| {
            assert_eq!(ctx.exec_op(&ScOp::AmPoll), Some(1));
            assert_eq!(ctx.exec_op(&ScOp::LockIsHeld { word: lock_word }), Some(0));
            assert_eq!(
                ctx.exec_op(&ScOp::LockTryAcquire { word: lock_word }),
                Some(1)
            );
            assert_eq!(ctx.exec_op(&ScOp::LockIsHeld { word: lock_word }), Some(1));
            ctx.exec_op(&ScOp::LockRelease { word: lock_word });
        });
        assert_eq!(s.machine().peek8(0, a), 9);
    }

    #[test]
    fn composite_lock_ops_are_conditional() {
        let mut s = sc();
        let a = s.alloc(64, 8);
        let word = GlobalPtr::new(1, a);
        let dst = GlobalPtr::new(2, a + 8);
        // Free lock: guarded write goes through and releases.
        let r = s.on(0, |ctx| {
            ctx.exec_op(&ScOp::LockGuardedWrite {
                word,
                dst,
                value: 77,
            })
        });
        assert_eq!(r, Some(1));
        assert_eq!(s.machine().peek8(2, a + 8), 77);
        // Held lock: guarded write is skipped wholesale.
        s.on(3, |ctx| {
            assert_eq!(ctx.exec_op(&ScOp::LockTryAcquire { word }), Some(1))
        });
        let r = s.on(0, |ctx| {
            ctx.exec_op(&ScOp::LockGuardedWrite {
                word,
                dst,
                value: 1,
            })
        });
        assert_eq!(r, Some(0));
        assert_eq!(s.machine().peek8(2, a + 8), 77, "busy path wrote nothing");
        // Conditional free: releases once, then is a no-op.
        assert_eq!(
            s.on(0, |ctx| ctx.exec_op(&ScOp::LockFreeIfHeld { word })),
            Some(1)
        );
        assert_eq!(
            s.on(0, |ctx| ctx.exec_op(&ScOp::LockFreeIfHeld { word })),
            Some(0)
        );
    }

    /// One op per variant, covering the whole surface (the fixture for
    /// the touched_addrs() exhaustiveness test below).
    fn one_of_each() -> Vec<ScOp> {
        let gp = GlobalPtr::new(1, 0x100);
        vec![
            ScOp::Advance { cycles: 5 },
            ScOp::ReadU64 { src: gp },
            ScOp::WriteU64 { dst: gp, value: 1 },
            ScOp::ReadU32 { src: gp },
            ScOp::WriteU32 { dst: gp, value: 2 },
            ScOp::ByteRead { src: gp },
            ScOp::ByteWrite { dst: gp, value: 3 },
            ScOp::Get {
                local_off: 0x40,
                src: gp,
            },
            ScOp::Put { dst: gp, value: 4 },
            ScOp::Sync,
            ScOp::StoreU64 { dst: gp, value: 5 },
            ScOp::StoreSync { bytes: 8 },
            ScOp::BulkRead {
                local_off: 0x40,
                src: gp,
                bytes: 32,
            },
            ScOp::BulkWrite {
                dst: gp,
                local_off: 0x40,
                bytes: 32,
            },
            ScOp::BulkGet {
                local_off: 0x40,
                src: gp,
                bytes: 32,
            },
            ScOp::BulkPut {
                dst: gp,
                local_off: 0x40,
                bytes: 32,
            },
            ScOp::BulkReadStrided {
                local_off: 0x40,
                src: gp,
                count: 4,
                elem_bytes: 8,
                stride_bytes: 24,
            },
            ScOp::BulkWriteStrided {
                dst: gp,
                local_off: 0x40,
                count: 4,
                elem_bytes: 8,
                stride_bytes: 24,
            },
            ScOp::AmAdd {
                target_pe: 1,
                off: 0x100,
                delta: 6,
            },
            ScOp::AmPoll,
            ScOp::LockTryAcquire { word: gp },
            ScOp::LockRelease { word: gp },
            ScOp::LockIsHeld { word: gp },
            ScOp::LockGuardedWrite {
                word: gp,
                dst: GlobalPtr::new(2, 0x200),
                value: 7,
            },
            ScOp::LockFreeIfHeld { word: gp },
        ]
    }

    #[test]
    fn every_variant_has_a_footprint() {
        let cfg = MachineConfig::t3d(4);
        for op in one_of_each() {
            let fp = op.touched_addrs(0, &cfg);
            assert!(!fp.oob, "in-bounds fixture op flagged oob: {op:?}");
            match op {
                // Pure control / synchronization: no data spans.
                ScOp::Advance { .. }
                | ScOp::Sync
                | ScOp::StoreSync { .. }
                | ScOp::AmPoll
                | ScOp::LockTryAcquire { .. }
                | ScOp::LockRelease { .. }
                | ScOp::LockIsHeld { .. }
                | ScOp::LockFreeIfHeld { .. } => {
                    assert!(fp.reads.is_empty() && fp.writes.is_empty(), "{op:?}");
                }
                ScOp::ReadU64 { .. } | ScOp::ReadU32 { .. } | ScOp::ByteRead { .. } => {
                    assert!(!fp.reads.is_empty() && fp.writes.is_empty(), "{op:?}");
                }
                ScOp::WriteU64 { .. }
                | ScOp::WriteU32 { .. }
                | ScOp::ByteWrite { .. }
                | ScOp::Put { .. }
                | ScOp::StoreU64 { .. }
                | ScOp::LockGuardedWrite { .. } => {
                    assert!(fp.reads.is_empty() && !fp.writes.is_empty(), "{op:?}");
                }
                // Transfers and the AM add read one side, write the other.
                _ => {
                    assert!(!fp.reads.is_empty() && !fp.writes.is_empty(), "{op:?}");
                }
            }
        }
    }

    #[test]
    fn footprints_are_byte_accurate() {
        let cfg = MachineConfig::t3d(4);
        let gp = GlobalPtr::new(1, 0x100);
        let get = ScOp::Get {
            local_off: 0x40,
            src: gp,
        };
        let fp = get.touched_addrs(3, &cfg);
        assert_eq!(
            fp.reads,
            vec![AddrSpan {
                pe: 1,
                addr: 0x100,
                bytes: 8
            }]
        );
        assert_eq!(
            fp.writes,
            vec![AddrSpan {
                pe: 3,
                addr: 0x40,
                bytes: 8
            }],
            "landing is a write on the issuer"
        );
        // Strided spans cover the gaps (4 elems, stride 24, elem 8 → 80 B).
        let strided = ScOp::BulkReadStrided {
            local_off: 0x40,
            src: gp,
            count: 4,
            elem_bytes: 8,
            stride_bytes: 24,
        };
        let fp = strided.touched_addrs(0, &cfg);
        assert_eq!(fp.reads[0].bytes, 3 * 24 + 8);
        assert_eq!(fp.writes[0].bytes, 32, "landing is dense");
    }

    #[test]
    fn out_of_bounds_spans_are_flagged() {
        let cfg = MachineConfig::t3d(2);
        let mem = cfg.mem.mem_bytes as u64;
        let past_end = ScOp::ReadU64 {
            src: GlobalPtr::new(1, mem - 4),
        };
        assert!(
            past_end.touched_addrs(0, &cfg).oob,
            "read straddles the end"
        );
        let bad_pe = ScOp::WriteU64 {
            dst: GlobalPtr::new(7, 0x100),
            value: 0,
        };
        assert!(bad_pe.touched_addrs(0, &cfg).oob, "PE 7 of 2");
        let wrap = ScOp::BulkReadStrided {
            local_off: 0x40,
            src: GlobalPtr::new(1, 0x100),
            count: u64::MAX,
            elem_bytes: 8,
            stride_bytes: 8,
        };
        assert!(wrap.touched_addrs(0, &cfg).oob, "overflowing span is oob");
        let in_bounds = ScOp::ByteRead {
            src: GlobalPtr::new(1, mem - 1),
        };
        assert!(!in_bounds.touched_addrs(0, &cfg).oob, "last byte is fine");
    }

    #[test]
    fn advance_charges_time() {
        let mut s = sc();
        s.on(0, |ctx| {
            let t0 = ctx.clock();
            ctx.exec_op(&ScOp::Advance { cycles: 123 });
            assert_eq!(ctx.clock(), t0 + 123);
        });
    }
}
