//! The split-phase happens-before analyzer.
//!
//! State per PE: a vector clock, the set of annex-buffered (unfenced)
//! remote stores, the outstanding get FIFO and its local landing
//! ranges. State per address range: shadow write records carrying the
//! writer's clock snapshot and a synced bit. Sync edges join clocks;
//! reads and writes are checked against the shadow state.

use std::collections::{HashMap, HashSet, VecDeque};

use crate::clock::VectorClock;
use crate::event::{SanEvent, SanOp, WriteKind, NO_REG};
use crate::report::{DiagKind, Diagnostic, Report};
use crate::SanitizeMode;

/// A shadow record for one write's byte range.
#[derive(Debug, Clone)]
struct WriteRec {
    writer: u32,
    target: u32,
    addr: u64,
    len: u64,
    kind: WriteKind,
    /// Writer's own clock component at the write (the epoch).
    epoch: u64,
    /// Full clock snapshot (joined into the target at `store_sync`).
    vc: VectorClock,
    /// Whether the bytes are guaranteed visible to their target.
    synced: bool,
    /// Global ingest index (orders writes against cache fills/gets).
    idx: u64,
    source: &'static str,
    time: u64,
}

/// An annex-buffered store not yet fenced out of the write buffer.
#[derive(Debug, Clone, Copy)]
struct PendingStore {
    target: u32,
    reg: u32,
}

/// One outstanding split-phase get.
#[derive(Debug, Clone, Copy)]
struct GetRec {
    target: u32,
    addr: u64,
    len: u64,
    local_off: u64,
    idx: u64,
    time: u64,
    source: &'static str,
}

/// A line some PE brought into its L1 with a cached read.
#[derive(Debug, Clone, Copy)]
struct CachedLine {
    reader: u32,
    target: u32,
    line_addr: u64,
    /// Global ingest index of the fill: writes after it are invisible.
    fill_idx: u64,
}

fn overlap(a: u64, alen: u64, b: u64, blen: u64) -> bool {
    a < b + blen && b < a + alen
}

/// The happens-before analyzer (see the crate docs for the model).
#[derive(Debug, Clone)]
pub struct Sanitizer {
    mode: SanitizeMode,
    nodes: usize,
    line_bytes: u64,
    idx: u64,
    events_processed: u64,
    vc: Vec<VectorClock>,
    writes: Vec<WriteRec>,
    pending_annex: Vec<Vec<PendingStore>>,
    pending_gets: Vec<Vec<GetRec>>,
    cached: Vec<CachedLine>,
    am_vcs: Vec<VecDeque<VectorClock>>,
    locks: HashMap<(u32, u64), VectorClock>,
    diagnostics: Vec<Diagnostic>,
    seen: HashSet<(DiagKind, u32, u32, u64, &'static str)>,
    reported: usize,
}

impl Sanitizer {
    /// An analyzer over `nodes` PEs with 32-byte cache lines.
    pub fn new(nodes: usize, mode: SanitizeMode) -> Self {
        Sanitizer::with_line_bytes(nodes, mode, 32)
    }

    /// An analyzer with an explicit L1 line size.
    pub fn with_line_bytes(nodes: usize, mode: SanitizeMode, line_bytes: u64) -> Self {
        Sanitizer {
            mode,
            nodes,
            line_bytes,
            idx: 0,
            events_processed: 0,
            vc: (0..nodes).map(|_| VectorClock::new(nodes)).collect(),
            writes: Vec::new(),
            pending_annex: vec![Vec::new(); nodes],
            pending_gets: vec![Vec::new(); nodes],
            cached: Vec::new(),
            am_vcs: (0..nodes).map(|_| VecDeque::new()).collect(),
            locks: HashMap::new(),
            diagnostics: Vec::new(),
            seen: HashSet::new(),
            reported: 0,
        }
    }

    /// The behaviour mode in force.
    pub fn mode(&self) -> SanitizeMode {
        self.mode
    }

    /// Applies a batch of events already in analysis order.
    pub fn ingest(&mut self, events: impl IntoIterator<Item = SanEvent>) {
        for ev in events {
            self.apply(&ev);
        }
    }

    /// A machine-wide barrier (`barrier`/`all_store_sync`): fences every
    /// write buffer, makes every prior write visible, and joins all
    /// clocks.
    pub fn global_barrier(&mut self) {
        let mut joined = VectorClock::new(self.nodes);
        for c in &self.vc {
            joined.join(c);
        }
        for pe in 0..self.nodes {
            self.vc[pe] = joined.clone();
            self.vc[pe].tick(pe);
        }
        for w in &mut self.writes {
            w.synced = true;
        }
        for p in &mut self.pending_annex {
            p.clear();
        }
        // Outstanding gets survive: their values still sit in the
        // prefetch queue until the issuer's own sync().
    }

    /// The findings so far.
    pub fn report(&self) -> Report {
        Report {
            diagnostics: self.diagnostics.clone(),
            events_processed: self.events_processed,
        }
    }

    /// The raw diagnostics so far.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// In [`SanitizeMode::Panic`], panics if any diagnostic was found
    /// since the last check. Call only after runtime state is restored
    /// to a defined configuration.
    ///
    /// # Panics
    ///
    /// Panics with the rendered diagnostic(s) in panic mode.
    pub fn check(&mut self) {
        if self.mode != SanitizeMode::Panic || self.diagnostics.len() == self.reported {
            self.reported = self.diagnostics.len();
            return;
        }
        let fresh: Vec<String> = self.diagnostics[self.reported..]
            .iter()
            .map(|d| d.to_string())
            .collect();
        self.reported = self.diagnostics.len();
        panic!("t3dsan: {}", fresh.join("; "));
    }

    fn diag(
        &mut self,
        kind: DiagKind,
        ev: &SanEvent,
        target: u32,
        addr: u64,
        detail: impl FnOnce() -> String,
    ) {
        let key = (kind, ev.pe, target, addr, ev.source);
        if !self.seen.insert(key) {
            for d in &mut self.diagnostics {
                if (d.kind, d.pe, d.target, d.addr, d.source) == key {
                    d.count += 1;
                    return;
                }
            }
            return;
        }
        self.diagnostics.push(Diagnostic {
            kind,
            pe: ev.pe,
            target,
            addr,
            time: ev.time,
            source: ev.source,
            count: 1,
            detail: detail(),
        });
    }

    /// Synonym trap: any access to `target` through `reg` while this PE
    /// still has buffered stores to the same target through another
    /// register.
    fn check_synonym(&mut self, ev: &SanEvent, target: u32, addr: u64, reg: u32) {
        if reg == NO_REG || target == ev.pe {
            return;
        }
        let other = self.pending_annex[ev.pe as usize]
            .iter()
            .find(|p| p.target == target && p.reg != reg && p.reg != NO_REG)
            .map(|p| p.reg);
        if let Some(o) = other {
            self.diag(DiagKind::AnnexSynonymHazard, ev, target, addr, || {
                format!("annex reg {reg} while stores via reg {o} are still buffered")
            });
        }
    }

    /// Stale-data checks common to every read flavour.
    fn check_read(&mut self, ev: &SanEvent, target: u32, addr: u64, len: u64) {
        // Un-synced writes by someone else covering these bytes.
        let hit = self
            .writes
            .iter()
            .find(|w| {
                w.target == target
                    && !w.synced
                    && w.writer != ev.pe
                    && overlap(w.addr, w.len, addr, len)
            })
            .map(|w| (w.writer, w.kind, w.source));
        if let Some((writer, kind, src)) = hit {
            self.diag(DiagKind::StaleStoreRead, ev, target, addr, || {
                let fix = match kind {
                    WriteKind::Put => "writer has not sync()ed",
                    WriteKind::Store => "target has not store_sync()ed",
                    WriteKind::Blocking => "write still buffered",
                };
                format!("un-synced {src} by PE {writer} ({fix})")
            });
        }
        // A stale line in the reader's own L1: filled before a later
        // write to the same bytes (even a completed one).
        if target != ev.pe {
            let line = self
                .cached
                .iter()
                .find(|c| {
                    c.reader == ev.pe
                        && c.target == target
                        && overlap(c.line_addr, self.line_bytes, addr, len)
                })
                .copied();
            if let Some(c) = line {
                let newer = self
                    .writes
                    .iter()
                    .find(|w| {
                        w.target == target
                            && w.idx > c.fill_idx
                            && w.writer != ev.pe
                            && overlap(w.addr, w.len, addr, len)
                    })
                    .map(|w| (w.writer, w.source));
                if let Some((writer, src)) = newer {
                    self.diag(DiagKind::StaleStoreRead, ev, target, addr, || {
                        format!(
                            "cached line predates {src} by PE {writer} (flush_remote_line first)"
                        )
                    });
                }
            }
        }
        // Reading a get's landing word before sync().
        if target == ev.pe {
            let pending = self.pending_gets[ev.pe as usize]
                .iter()
                .find(|g| overlap(g.local_off, g.len, addr, len))
                .map(|g| (g.target, g.addr));
            if let Some((gt, ga)) = pending {
                self.diag(DiagKind::ReadBeforeGetSync, ev, target, addr, || {
                    format!("landing word of get from PE {gt} addr {ga:#x} read before sync()")
                });
            }
        }
    }

    fn apply(&mut self, ev: &SanEvent) {
        assert!((ev.pe as usize) < self.nodes, "event from unknown PE");
        self.events_processed += 1;
        self.idx += 1;
        let idx = self.idx;
        let pe = ev.pe as usize;
        self.vc[pe].tick(pe);
        match ev.op {
            SanOp::Read {
                target,
                addr,
                len,
                reg,
            } => {
                self.check_synonym(ev, target, addr, reg);
                self.check_read(ev, target, addr, len);
            }
            SanOp::CachedRead {
                target,
                addr,
                len,
                reg,
            } => {
                self.check_synonym(ev, target, addr, reg);
                self.check_read(ev, target, addr, len);
                let line_addr = addr & !(self.line_bytes - 1);
                let already = self
                    .cached
                    .iter()
                    .any(|c| c.reader == ev.pe && c.target == target && c.line_addr == line_addr);
                if !already {
                    self.cached.push(CachedLine {
                        reader: ev.pe,
                        target,
                        line_addr,
                        fill_idx: idx,
                    });
                }
            }
            SanOp::CacheFlush { target, addr } => {
                let line_addr = addr & !(self.line_bytes - 1);
                self.cached.retain(|c| {
                    !(c.reader == ev.pe && c.target == target && c.line_addr == line_addr)
                });
            }
            SanOp::Write {
                target,
                addr,
                len,
                kind,
                reg,
            } => {
                self.check_synonym(ev, target, addr, reg);
                // Unordered overlapping write by another PE?
                let conflict = self
                    .writes
                    .iter()
                    .find(|w| {
                        w.target == target
                            && w.writer != ev.pe
                            && overlap(w.addr, w.len, addr, len)
                            && self.vc[pe].get(w.writer as usize) < w.epoch
                    })
                    .map(|w| (w.writer, w.source));
                if let Some((writer, src)) = conflict {
                    self.diag(DiagKind::ConflictingPuts, ev, target, addr, || {
                        format!("unordered against {src} by PE {writer}: final bytes depend on arrival order")
                    });
                }
                // Replace happened-before records this write fully covers.
                let vc = &self.vc[pe];
                self.writes.retain(|w| {
                    !(w.target == target
                        && addr <= w.addr
                        && w.addr + w.len <= addr + len
                        && vc.get(w.writer as usize) >= w.epoch)
                });
                self.writes.push(WriteRec {
                    writer: ev.pe,
                    target,
                    addr,
                    len,
                    kind,
                    epoch: self.vc[pe].get(pe),
                    vc: self.vc[pe].clone(),
                    synced: kind == WriteKind::Blocking,
                    idx,
                    source: ev.source,
                    time: ev.time,
                });
                if kind == WriteKind::Blocking {
                    // The trailing fence + ack wait drains the buffer.
                    self.pending_annex[pe].clear();
                } else if target != ev.pe {
                    self.pending_annex[pe].push(PendingStore { target, reg });
                }
            }
            SanOp::GetIssue {
                target,
                addr,
                len,
                local_off,
                reg,
            } => {
                self.check_synonym(ev, target, addr, reg);
                self.check_read(ev, target, addr, len);
                self.pending_gets[pe].push(GetRec {
                    target,
                    addr,
                    len,
                    local_off,
                    idx,
                    time: ev.time,
                    source: ev.source,
                });
            }
            SanOp::GetSync | SanOp::GetDrain => {
                self.complete_gets(ev);
                if ev.op == SanOp::GetSync {
                    // Fence + ack wait: the issuer's own puts/stores land.
                    for w in &mut self.writes {
                        if w.writer == ev.pe {
                            w.synced = true;
                        }
                    }
                }
                self.pending_annex[pe].clear();
            }
            SanOp::StoreSyncWait => {
                let mut joined = VectorClock::new(self.nodes);
                let mut any = false;
                for w in &mut self.writes {
                    if w.target == ev.pe && w.kind == WriteKind::Store && !w.synced {
                        w.synced = true;
                        joined.join(&w.vc);
                        any = true;
                    }
                }
                if any {
                    self.vc[pe].join(&joined);
                }
            }
            SanOp::AmDeposit { target } => {
                let snap = self.vc[pe].clone();
                self.am_vcs[target as usize].push_back(snap);
                // The deposit protocol fences and waits for acks.
                for w in &mut self.writes {
                    if w.writer == ev.pe {
                        w.synced = true;
                    }
                }
                self.pending_annex[pe].clear();
            }
            SanOp::AmDispatch { count } => {
                for _ in 0..count {
                    if let Some(v) = self.am_vcs[pe].pop_front() {
                        self.vc[pe].join(&v);
                    }
                }
            }
            SanOp::LockAcquire { target, addr } => {
                if let Some(v) = self.locks.get(&(target, addr)) {
                    let v = v.clone();
                    self.vc[pe].join(&v);
                }
            }
            SanOp::LockRelease { target, addr } => {
                let snap = self.vc[pe].clone();
                self.locks
                    .entry((target, addr))
                    .and_modify(|v| v.join(&snap))
                    .or_insert(snap);
            }
        }
    }

    /// Completes the issuer's outstanding gets: checks each for an
    /// intervening write to its source, then retires them.
    fn complete_gets(&mut self, ev: &SanEvent) {
        let pe = ev.pe as usize;
        let gets = std::mem::take(&mut self.pending_gets[pe]);
        for g in &gets {
            let newer = self
                .writes
                .iter()
                .find(|w| {
                    w.target == g.target && w.idx > g.idx && overlap(w.addr, w.len, g.addr, g.len)
                })
                .map(|w| (w.writer, w.source, w.time));
            if let Some((writer, src, wt)) = newer {
                let gev = SanEvent {
                    pe: ev.pe,
                    time: ev.time,
                    seq: ev.seq,
                    op: ev.op,
                    source: g.source,
                };
                self.diag(DiagKind::PrefetchOrderMisuse, &gev, g.target, g.addr, || {
                    format!(
                        "get bound at t={} completed after {src} by PE {writer} at t={} wrote the source",
                        g.time, wt
                    )
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(pe: u32, time: u64, seq: u64, op: SanOp, source: &'static str) -> SanEvent {
        SanEvent {
            pe,
            time,
            seq,
            op,
            source,
        }
    }

    fn read(target: u32, addr: u64) -> SanOp {
        SanOp::Read {
            target,
            addr,
            len: 8,
            reg: 1,
        }
    }

    fn put(target: u32, addr: u64) -> SanOp {
        SanOp::Write {
            target,
            addr,
            len: 8,
            kind: WriteKind::Put,
            reg: 1,
        }
    }

    #[test]
    fn unsynced_put_read_is_stale() {
        let mut s = Sanitizer::new(2, SanitizeMode::Collect);
        s.ingest(vec![
            ev(0, 10, 0, put(1, 0x100), "put"),
            ev(1, 20, 0, read(1, 0x100), "read_u64"),
        ]);
        assert_eq!(s.report().kinds(), vec![DiagKind::StaleStoreRead]);
    }

    #[test]
    fn synced_put_read_is_clean() {
        let mut s = Sanitizer::new(2, SanitizeMode::Collect);
        s.ingest(vec![
            ev(0, 10, 0, put(1, 0x100), "put"),
            ev(0, 30, 1, SanOp::GetSync, "sync"),
        ]);
        s.global_barrier();
        s.ingest(vec![ev(1, 40, 0, read(1, 0x100), "read_u64")]);
        assert!(s.report().is_empty(), "{}", s.report().render_table());
    }

    #[test]
    fn concurrent_overlapping_puts_conflict_and_barrier_orders_them() {
        let mut s = Sanitizer::new(3, SanitizeMode::Collect);
        s.ingest(vec![
            ev(0, 10, 0, put(2, 0x100), "put"),
            ev(1, 10, 0, put(2, 0x104), "put"),
        ]);
        assert_eq!(s.report().kinds(), vec![DiagKind::ConflictingPuts]);
        // After a barrier a rewrite is ordered: no further findings.
        s.global_barrier();
        s.ingest(vec![ev(1, 50, 1, put(2, 0x100), "put")]);
        assert_eq!(s.report().len(), 1);
    }

    #[test]
    fn store_sync_edges_order_the_target() {
        let mut s = Sanitizer::new(2, SanitizeMode::Collect);
        let store = SanOp::Write {
            target: 1,
            addr: 0x200,
            len: 8,
            kind: WriteKind::Store,
            reg: 1,
        };
        s.ingest(vec![
            ev(0, 10, 0, store, "store_u64"),
            ev(1, 20, 0, SanOp::StoreSyncWait, "store_sync"),
            ev(1, 30, 1, read(1, 0x200), "read_u64"),
        ]);
        assert!(s.report().is_empty(), "{}", s.report().render_table());
    }

    #[test]
    fn landing_read_before_sync_is_flagged_and_cleared_by_sync() {
        let mut s = Sanitizer::new(2, SanitizeMode::Collect);
        let issue = SanOp::GetIssue {
            target: 1,
            addr: 0x300,
            len: 8,
            local_off: 0x40,
            reg: 1,
        };
        s.ingest(vec![
            ev(0, 10, 0, issue, "get"),
            ev(0, 20, 1, read(0, 0x40), "read_u64"),
        ]);
        assert_eq!(s.report().kinds(), vec![DiagKind::ReadBeforeGetSync]);
        s.ingest(vec![
            ev(0, 30, 2, SanOp::GetSync, "sync"),
            ev(0, 40, 3, read(0, 0x40), "read_u64"),
        ]);
        assert_eq!(s.report().len(), 1, "after sync the landing word is safe");
    }

    #[test]
    fn intervening_store_spoils_a_bound_get() {
        let mut s = Sanitizer::new(2, SanitizeMode::Collect);
        let issue = SanOp::GetIssue {
            target: 1,
            addr: 0x300,
            len: 8,
            local_off: 0x40,
            reg: 1,
        };
        s.ingest(vec![
            ev(0, 10, 0, issue, "get"),
            ev(0, 20, 1, put(1, 0x300), "put"),
            ev(0, 30, 2, SanOp::GetSync, "sync"),
        ]);
        assert!(s.report().kinds().contains(&DiagKind::PrefetchOrderMisuse));
    }

    #[test]
    fn synonym_access_during_buffered_store() {
        let mut s = Sanitizer::new(2, SanitizeMode::Collect);
        let store_r2 = SanOp::Write {
            target: 1,
            addr: 0x100,
            len: 8,
            kind: WriteKind::Store,
            reg: 2,
        };
        let read_r3 = SanOp::Read {
            target: 1,
            addr: 0x100,
            len: 8,
            reg: 3,
        };
        s.ingest(vec![
            ev(0, 10, 0, store_r2, "store_u64"),
            ev(0, 20, 1, read_r3, "read_u64"),
        ]);
        assert!(s.report().kinds().contains(&DiagKind::AnnexSynonymHazard));
    }

    #[test]
    fn cached_line_stale_after_owner_write_until_flushed() {
        let mut s = Sanitizer::new(2, SanitizeMode::Collect);
        let cread = SanOp::CachedRead {
            target: 1,
            addr: 0x100,
            len: 8,
            reg: 1,
        };
        let owner_write = SanOp::Write {
            target: 1,
            addr: 0x100,
            len: 8,
            kind: WriteKind::Blocking,
            reg: NO_REG,
        };
        s.ingest(vec![ev(0, 10, 0, cread, "read_u64_cached")]);
        s.ingest(vec![ev(1, 20, 0, owner_write, "write_u64")]);
        s.ingest(vec![ev(0, 30, 1, cread, "read_u64_cached")]);
        assert_eq!(s.report().kinds(), vec![DiagKind::StaleStoreRead]);
        // Flush, re-read: clean (the single site keeps count 1).
        s.ingest(vec![
            ev(
                0,
                40,
                2,
                SanOp::CacheFlush {
                    target: 1,
                    addr: 0x100,
                },
                "flush_remote_line",
            ),
            ev(0, 50, 3, cread, "read_u64_cached"),
        ]);
        let d = &s.report().diagnostics[0];
        assert_eq!((d.kind, d.count), (DiagKind::StaleStoreRead, 1));
    }

    #[test]
    fn am_deposit_dispatch_creates_an_edge() {
        let mut s = Sanitizer::new(2, SanitizeMode::Collect);
        s.ingest(vec![
            ev(0, 10, 0, put(1, 0x100), "put"),
            ev(0, 20, 1, SanOp::AmDeposit { target: 1 }, "am_deposit"),
            ev(1, 30, 0, SanOp::AmDispatch { count: 1 }, "am_poll"),
            ev(1, 40, 1, read(1, 0x100), "read_u64"),
        ]);
        assert!(
            s.report().is_empty(),
            "deposit fences the put and the edge orders the reader: {}",
            s.report().render_table()
        );
    }

    #[test]
    fn lock_transfer_orders_writes() {
        let mut s = Sanitizer::new(3, SanitizeMode::Collect);
        let w = |t, a| SanOp::Write {
            target: t,
            addr: a,
            len: 8,
            kind: WriteKind::Blocking,
            reg: 1,
        };
        s.ingest(vec![
            ev(
                0,
                10,
                0,
                SanOp::LockAcquire {
                    target: 2,
                    addr: 0x10,
                },
                "lock",
            ),
            ev(0, 20, 1, w(2, 0x100), "write_u64"),
            ev(
                0,
                30,
                2,
                SanOp::LockRelease {
                    target: 2,
                    addr: 0x10,
                },
                "unlock",
            ),
            ev(
                1,
                40,
                0,
                SanOp::LockAcquire {
                    target: 2,
                    addr: 0x10,
                },
                "lock",
            ),
            ev(1, 50, 1, w(2, 0x100), "write_u64"),
            ev(
                1,
                60,
                2,
                SanOp::LockRelease {
                    target: 2,
                    addr: 0x10,
                },
                "unlock",
            ),
        ]);
        assert!(s.report().is_empty(), "{}", s.report().render_table());
    }

    #[test]
    fn panic_mode_trips_on_check() {
        let mut s = Sanitizer::new(2, SanitizeMode::Panic);
        s.ingest(vec![
            ev(0, 10, 0, put(1, 0x100), "put"),
            ev(1, 20, 0, read(1, 0x100), "read_u64"),
        ]);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.check()));
        assert!(r.is_err(), "panic mode must abort on findings");
        // Already-reported findings do not trip twice.
        s.check();
    }

    #[test]
    fn duplicate_sites_fold_into_count() {
        let mut s = Sanitizer::new(2, SanitizeMode::Collect);
        s.ingest(vec![ev(0, 10, 0, put(1, 0x100), "put")]);
        for i in 0..3 {
            s.ingest(vec![ev(1, 20 + i, i, read(1, 0x100), "read_u64")]);
        }
        let rep = s.report();
        assert_eq!(rep.len(), 1);
        assert_eq!(rep.diagnostics[0].count, 3);
    }
}
