//! The event vocabulary the analyzer consumes.
//!
//! The `splitc` runtime logs each primitive once, in its per-node event
//! log (no machine interaction — instrumentation never perturbs virtual
//! time). At phase boundaries it turns the new entries into
//! [`SanEvent`]s, merged by `(time, pe, seq)`, the same total order the
//! sharded phase engine imposes on its effect log.

/// Annex register index meaning "not tracked for this operation"
/// (bulk transfers resolve their registers inside the mechanism layer).
pub const NO_REG: u32 = u32::MAX;

/// What flavour of remote write an event describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    /// Blocking write (`write_u64`, `bulk_write`): fenced and
    /// acknowledged before the call returns — synced at birth.
    Blocking,
    /// Split-phase put: un-synced until the writer's `sync()`.
    Put,
    /// Signaling store: un-synced until the *target* counts it with
    /// `store_sync` (or everyone does with `all_store_sync`).
    Store,
}

/// One instrumented operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SanOp {
    /// Uncached (or local) data read of `[addr, addr+len)` on `target`.
    Read {
        /// PE whose memory is read.
        target: u32,
        /// Start offset in the target's memory.
        addr: u64,
        /// Bytes read.
        len: u64,
        /// Annex register used ([`NO_REG`] when untracked/local).
        reg: u32,
    },
    /// Cached remote read: fills (or hits) a line in the reader's L1.
    CachedRead {
        /// PE whose memory is read.
        target: u32,
        /// Start offset in the target's memory.
        addr: u64,
        /// Bytes read.
        len: u64,
        /// Annex register used.
        reg: u32,
    },
    /// Explicit flush of the reader's cached copy of `target`'s line.
    CacheFlush {
        /// PE whose line is flushed from the reader's cache.
        target: u32,
        /// Any offset within the flushed line.
        addr: u64,
    },
    /// Data write of `[addr, addr+len)` on `target`.
    Write {
        /// PE whose memory is written.
        target: u32,
        /// Start offset in the target's memory.
        addr: u64,
        /// Bytes written.
        len: u64,
        /// Completion discipline of the write.
        kind: WriteKind,
        /// Annex register used ([`NO_REG`] when untracked/local).
        reg: u32,
    },
    /// Split-phase get issue: binds `[addr, addr+len)` on `target` now,
    /// lands at local offset `local_off` by `sync()`.
    GetIssue {
        /// PE whose memory is read.
        target: u32,
        /// Source offset in the target's memory.
        addr: u64,
        /// Bytes bound.
        len: u64,
        /// Local landing offset.
        local_off: u64,
        /// Annex register used.
        reg: u32,
    },
    /// `sync()`: completes the issuer's outstanding gets, puts and
    /// bulk transfers (fence + ack wait).
    GetSync,
    /// Internal prefetch-queue drain at capacity (fence, no ack wait):
    /// outstanding gets land, but puts/stores stay un-synced.
    GetDrain,
    /// `store_sync`: the *target* has counted the signaling bytes
    /// aimed at it.
    StoreSyncWait,
    /// Atomic-message deposit into `target`'s queue (internally fenced
    /// and acknowledged).
    AmDeposit {
        /// PE whose message queue receives the deposit.
        target: u32,
    },
    /// `count` queued messages dispatched to handlers on this PE.
    AmDispatch {
        /// Messages handled by this poll.
        count: u64,
    },
    /// Successful lock acquisition (joins the releaser's history).
    LockAcquire {
        /// PE holding the lock word.
        target: u32,
        /// Lock word offset.
        addr: u64,
    },
    /// Lock release (publishes the holder's history).
    LockRelease {
        /// PE holding the lock word.
        target: u32,
        /// Lock word offset.
        addr: u64,
    },
}

/// One source-tagged, time-stamped event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SanEvent {
    /// Issuing PE.
    pub pe: u32,
    /// Issuer's virtual clock when the operation completed.
    pub time: u64,
    /// Per-PE sequence number (ties within one virtual time).
    pub seq: u64,
    /// The operation.
    pub op: SanOp,
    /// The runtime entry point that emitted it (e.g. `"read_u64"`).
    pub source: &'static str,
}
