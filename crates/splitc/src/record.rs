//! The runtime's event log: every primitive recorded once, read two
//! ways.
//!
//! Each node keeps one log ([`RtEvent`]s, in issue order). It is on
//! when either consumer asks for it: op recording
//! ([`crate::SplitC::record_ops`]) or the t3dsan sanitizer
//! ([`crate::SplitcConfig::sanitize`] / `T3D_SAN`). With both off, a
//! primitive pays a flag check at issue and one at completion, and the
//! log never allocates. Two views read the same entries:
//!
//! * **The recorded program** ([`crate::SplitC::take_op_log`]): each
//!   entry of kind [`RtKind::Rec`], in issue order. Global collectives
//!   ([`crate::SplitC::barrier`] / [`crate::SplitC::all_store_sync`])
//!   and phase ends append markers to *every* node's log. The result is
//!   a per-PE straight-line-with-barriers program — exactly the shape
//!   the `t3d-lint` static analyzer consumes — so any runnable workload
//!   (the EM3D versions, examples, user kernels) can be linted without
//!   a separate IR front-end.
//! * **The sanitizer's events** (`RtEvent::san_event`): each entry
//!   stamped with its completion clock and per-PE completion number,
//!   drained into the analyzer at every `on`/phase exit and merged
//!   across PEs by `(time, pe, seq)`.
//!
//! What each view sees:
//!
//! * **Leaf ops only.** Composites record their constituents: a
//!   [`ScOp::LockGuardedWrite`] executes as try-acquire / write /
//!   release and is recorded as those three leaves. A wrapper that
//!   delegates records before its delegate (`bulk_read` of 8 remote
//!   bytes before its `read_u64`, `byte_write` before its AM deposit),
//!   so the recorded program is a *superset* of the issued surface ops
//!   with identical memory footprints. The wrapper's entry is left
//!   unstamped: the delegate's event is the sanitizer's.
//! * **Runtime-only kinds.** Cached reads, line flushes, AM deposits
//!   with a handler other than [`crate::runtime::AM_ADD_U64`], AM
//!   dispatches and get-queue drains are sanitizer events only. `am_poll`
//!   logs only when it dispatched: the global barrier polls every queue
//!   on every node, and recording that would bury programs under
//!   collective bookkeeping. AM traffic is captured at the deposit side
//!   instead ([`ScOp::AmAdd`]).
//! * **Effects only.** A try-acquire that finds the lock busy is
//!   recorded but not stamped: it has no effect the sanitizer models.
//!   The same holds for a primitive that panics.
//!
//! Direct machine access (`ctx.machine()` / `ctx.ops()` peeks and
//! pokes) is below the runtime surface and is not logged.

use crate::gptr::GlobalPtr;
use crate::op::ScOp;
use t3dsan::{SanEvent, SanOp, WriteKind, NO_REG};

/// One entry of a node's recorded program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecEvent {
    /// A runtime primitive, as the op that reproduces it.
    Op(ScOp),
    /// The node participated in a global [`crate::SplitC::barrier`].
    Barrier,
    /// The node participated in a global
    /// [`crate::SplitC::all_store_sync`] (followed by its barrier).
    AllStoreSync,
    /// An SPMD phase ([`crate::SplitC::run_phase`] /
    /// [`crate::SplitC::par_phase`]) ended here. Phases are *sequenced*
    /// against each other — effects of an earlier phase are analyzed
    /// before any effect of a later one — without creating the
    /// happens-before edges a barrier does, which is exactly the
    /// distinction the static analyzer needs for barrier-free
    /// message-driven programs (the EM3D `storeSync` version).
    PhaseEnd,
}

/// What one log entry records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RtKind {
    /// A primitive or marker of the recorded program.
    Rec(RecEvent),
    /// `read_u64_cached` of the word at `src`.
    CachedRead {
        /// Word read.
        src: GlobalPtr,
    },
    /// `flush_remote_line` of the line holding `line`.
    Flush {
        /// Any address within the flushed line.
        line: GlobalPtr,
    },
    /// An AM deposit whose handler is not the plain-data add (the
    /// `byte_write`/`write_u32` repairs and user handlers).
    Deposit {
        /// Queue owner.
        target_pe: u32,
    },
    /// An `am_poll` that dispatched `count` messages.
    Dispatch {
        /// Messages handled.
        count: u64,
    },
    /// A get found the prefetch queue full and drained it first.
    GetDrain,
}

/// One primitive as the runtime executed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtEvent {
    /// What ran.
    pub kind: RtKind,
    /// Annex register the access went through ([`NO_REG`] when local
    /// or resolved inside the mechanism layer).
    pub(crate) reg: u32,
    /// `(clock, seq)` when the primitive completed: the issuer's clock
    /// and its per-PE completion number. `None` for an entry with no
    /// effect of its own (see the module docs).
    pub(crate) done: Option<(u64, u64)>,
}

impl RtEvent {
    /// The sanitizer's view of this entry, issued by `pe`: `None` when
    /// it is unstamped or recorded-program-only.
    pub(crate) fn san_event(&self, pe: u32) -> Option<SanEvent> {
        let (time, seq) = self.done?;
        let reg = self.reg;
        let read = |gp: GlobalPtr, len| SanOp::Read {
            target: gp.pe(),
            addr: gp.addr(),
            len,
            reg,
        };
        let write = |gp: GlobalPtr, len, kind| SanOp::Write {
            target: gp.pe(),
            addr: gp.addr(),
            len,
            kind,
            reg,
        };
        // Strided transfers: the whole extent at the remote side.
        let strided = |count: u64, elem: u64, stride: u64| (count - 1) * stride + elem;
        let (op, source) = match self.kind {
            RtKind::Rec(RecEvent::Op(op)) => match op {
                ScOp::ReadU64 { src } => (read(src, 8), "read_u64"),
                ScOp::WriteU64 { dst, .. } => (write(dst, 8, WriteKind::Blocking), "write_u64"),
                ScOp::Get { src, .. } if src.pe() == pe => (read(src, 8), "get"),
                ScOp::Get { local_off, src } => (
                    SanOp::GetIssue {
                        target: src.pe(),
                        addr: src.addr(),
                        len: 8,
                        local_off,
                        reg,
                    },
                    "get",
                ),
                ScOp::Put { dst, .. } => (write(dst, 8, WriteKind::Put), "put"),
                ScOp::Sync => (SanOp::GetSync, "sync"),
                ScOp::StoreU64 { dst, .. } => (write(dst, 8, WriteKind::Store), "store_u64"),
                ScOp::StoreSync { .. } => (SanOp::StoreSyncWait, "store_sync"),
                ScOp::BulkRead { src, bytes, .. } => (read(src, bytes), "bulk_read"),
                ScOp::BulkGet { src, bytes, .. } => (read(src, bytes), "bulk_get"),
                ScOp::BulkWrite { dst, bytes, .. } => {
                    (write(dst, bytes, WriteKind::Blocking), "bulk_write")
                }
                ScOp::BulkPut { dst, bytes, .. } => (write(dst, bytes, WriteKind::Put), "bulk_put"),
                ScOp::BulkReadStrided {
                    src,
                    count,
                    elem_bytes,
                    stride_bytes,
                    ..
                } => (
                    read(src, strided(count, elem_bytes, stride_bytes)),
                    "bulk_read_strided",
                ),
                ScOp::BulkWriteStrided {
                    dst,
                    count,
                    elem_bytes,
                    stride_bytes,
                    ..
                } => (
                    write(
                        dst,
                        strided(count, elem_bytes, stride_bytes),
                        WriteKind::Blocking,
                    ),
                    "bulk_write_strided",
                ),
                ScOp::AmAdd { target_pe, .. } => {
                    (SanOp::AmDeposit { target: target_pe }, "am_deposit")
                }
                ScOp::LockTryAcquire { word } => (
                    SanOp::LockAcquire {
                        target: word.pe(),
                        addr: word.addr(),
                    },
                    "lock_try_acquire",
                ),
                ScOp::LockRelease { word } => (
                    SanOp::LockRelease {
                        target: word.pe(),
                        addr: word.addr(),
                    },
                    "lock_release",
                ),
                _ => return None,
            },
            RtKind::Rec(_) => return None,
            RtKind::CachedRead { src } if src.pe() == pe => (read(src, 8), "read_u64_cached"),
            RtKind::CachedRead { src } => (
                SanOp::CachedRead {
                    target: src.pe(),
                    addr: src.addr(),
                    len: 8,
                    reg,
                },
                "read_u64_cached",
            ),
            RtKind::Flush { line } => (
                SanOp::CacheFlush {
                    target: line.pe(),
                    addr: line.addr(),
                },
                "flush_remote_line",
            ),
            RtKind::Deposit { target_pe } => (SanOp::AmDeposit { target: target_pe }, "am_deposit"),
            RtKind::Dispatch { count } => (SanOp::AmDispatch { count }, "am_poll"),
            RtKind::GetDrain => (SanOp::GetDrain, "get"),
        };
        Some(SanEvent {
            pe,
            time,
            seq,
            op,
            source,
        })
    }
}

/// Drains every node's new sanitizer events (index = PE) and merges
/// them by `(time, pe, seq)` — the same total order the sharded phase
/// engine imposes on its effect log, so sequential and parallel
/// drivers feed the analyzer an identical stream.
pub(crate) fn drain_merged<'a>(logs: impl Iterator<Item = &'a mut EventLog>) -> Vec<SanEvent> {
    let mut events = Vec::new();
    for (pe, log) in logs.enumerate() {
        log.drain_san(pe as u32, &mut events);
    }
    events.sort_unstable_by_key(|e| (e.time, e.pe, e.seq));
    events
}

/// A node's event log: off, and free, unless a consumer asked for it.
#[derive(Debug, Clone, Default)]
pub(crate) struct EventLog {
    /// Op recording is on: entries stay until `take_op_log`.
    pub(crate) record: bool,
    /// The sanitizer is on: entries are drained at every `on`/phase exit.
    pub(crate) sanitize: bool,
    pub(crate) events: Vec<RtEvent>,
    /// Entries already handed to the sanitizer.
    fed: usize,
    /// Completion numbers handed out so far.
    seq: u64,
}

impl EventLog {
    /// A log that records nothing until a consumer asks; `sanitize`
    /// says whether the sanitizer reads it.
    pub(crate) fn new(sanitize: bool) -> Self {
        EventLog {
            sanitize,
            ..EventLog::default()
        }
    }

    /// Appends `kind` unstamped; returns its index, or `None` when the
    /// log is off.
    #[inline]
    pub(crate) fn push(&mut self, kind: RtKind) -> Option<usize> {
        if !(self.record || self.sanitize) {
            return None;
        }
        self.events.push(RtEvent {
            kind,
            reg: NO_REG,
            done: None,
        });
        Some(self.events.len() - 1)
    }

    /// Marks entry `i` complete at `time`, through annex register `reg`.
    pub(crate) fn stamp(&mut self, i: usize, time: u64, reg: u32) {
        let seq = self.seq;
        self.seq += 1;
        let e = &mut self.events[i];
        e.reg = reg;
        e.done = Some((time, seq));
    }

    /// Appends a marker of the recorded program (the sanitizer ignores
    /// markers, so they are logged only while recording).
    pub(crate) fn mark(&mut self, marker: RecEvent) {
        if self.record {
            self.push(RtKind::Rec(marker));
        }
    }

    /// Appends the sanitizer events of the entries not yet fed to it.
    /// Entries the recorded program does not need are dropped.
    pub(crate) fn drain_san(&mut self, pe: u32, out: &mut Vec<SanEvent>) {
        out.extend(
            self.events[self.fed..]
                .iter()
                .filter_map(|e| e.san_event(pe)),
        );
        if self.record {
            self.fed = self.events.len();
        } else {
            self.events.truncate(self.fed);
        }
    }

    /// Takes the recorded program, emptying the log.
    pub(crate) fn take_recorded(&mut self) -> Vec<RecEvent> {
        self.fed = 0;
        self.events
            .drain(..)
            .filter_map(|e| match e.kind {
                RtKind::Rec(r) => Some(r),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::{drain_merged, EventLog, RecEvent, RtKind};
    use crate::{GlobalPtr, ScOp, SplitC};
    use t3d_machine::MachineConfig;
    use t3dsan::{SanOp, NO_REG};

    /// Logs a `sync` completing at `time` (sanitizer on).
    fn sync_at(log: &mut EventLog, time: u64) {
        let i = log.push(RtKind::Rec(RecEvent::Op(ScOp::Sync)));
        log.stamp(i.expect("the sanitizer reads this log"), time, NO_REG);
    }

    fn merged_keys(a: &mut EventLog, b: &mut EventLog) -> Vec<(u64, u32, u64)> {
        drain_merged([a, b].into_iter())
            .iter()
            .map(|e| (e.time, e.pe, e.seq))
            .collect()
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = EventLog::new(false);
        assert_eq!(log.push(RtKind::Rec(RecEvent::Op(ScOp::Sync))), None);
        assert!(log.events.is_empty());
    }

    #[test]
    fn merge_orders_by_time_then_pe_then_seq() {
        let (mut a, mut b) = (EventLog::new(true), EventLog::new(true));
        sync_at(&mut a, 20);
        sync_at(&mut a, 20);
        sync_at(&mut b, 10);
        let key = merged_keys(&mut a, &mut b);
        assert_eq!(key, vec![(10, 1, 0), (20, 0, 0), (20, 0, 1)]);
    }

    #[test]
    fn equal_times_merge_by_pe_before_seq() {
        // PE 1's event has the lower completion number; PE 0 still
        // goes first at the same time.
        let (mut a, mut b) = (EventLog::new(true), EventLog::new(true));
        sync_at(&mut a, 5);
        sync_at(&mut a, 30);
        sync_at(&mut b, 30);
        let key = merged_keys(&mut a, &mut b);
        assert_eq!(key, vec![(5, 0, 0), (30, 0, 1), (30, 1, 0)]);
        // Drained entries are not fed again.
        assert!(merged_keys(&mut a, &mut b).is_empty());
    }

    #[test]
    fn an_unread_log_records_nothing() {
        let mut sc = SplitC::new(MachineConfig::t3d(2));
        if sc.sanitizer().is_some() {
            return; // `T3D_SAN` is a reader
        }
        let cell = sc.alloc(8, 8);
        sc.on(0, |ctx| ctx.put(GlobalPtr::new(1, cell), 1));
        sc.barrier();
        assert!(sc.event_log(0).is_empty());
    }

    #[test]
    fn a_draining_get_logs_once_and_completes_after_its_drain() {
        let mut sc = SplitC::new(MachineConfig::t3d(2));
        sc.record_ops(true);
        let (src, dst) = (sc.alloc(17 * 8, 8), sc.alloc(17 * 8, 8));
        sc.on(0, |ctx| {
            for i in 0..17 {
                ctx.get(dst + i * 8, GlobalPtr::new(1, src + i * 8));
            }
        });
        // Issue order: the 17th get, then the drain it ran.
        let log = sc.event_log(0);
        assert_eq!(log.len(), 18);
        assert_eq!(log[17].kind, RtKind::GetDrain);
        // Completion order, as the sanitizer merges it: drain first.
        let mut events: Vec<_> = log.iter().filter_map(|e| e.san_event(0)).collect();
        events.sort_unstable_by_key(|e| (e.time, e.seq));
        let tail: Vec<SanOp> = events[15..].iter().map(|e| e.op).collect();
        assert!(
            matches!(
                tail[..],
                [
                    SanOp::GetIssue { .. },
                    SanOp::GetDrain,
                    SanOp::GetIssue { .. }
                ]
            ),
            "{tail:?}"
        );
        // The recorded program: 17 gets, no drain.
        assert_eq!(sc.take_op_log()[0].len(), 17);
        assert!(sc.event_log(0).is_empty());
    }
}
