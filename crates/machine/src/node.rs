//! One node: Alpha core state, memory port and shell units.

use crate::config::MachineConfig;
use crate::oplog::LogEntry;
use std::ops::{Index, IndexMut};
use t3d_memsys::{MemArena, MemPort};
use t3d_perf::{CostClass, OpKind, PerfAccum, OP_KINDS};
use t3d_torus::Torus;

/// Counts of the operations a node has issued, one per [`OpKind`]
/// (instrumentation: the communication/computation breakdowns in the
/// application study). Indexed by kind: `stats[OpKind::LdRemote]`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStats {
    counts: [u64; OP_KINDS],
}

impl OpStats {
    /// Accumulates another node's counters into this one.
    pub fn accumulate(&mut self, other: &OpStats) {
        for (a, b) in self.counts.iter_mut().zip(other.counts) {
            *a += b;
        }
    }

    /// Remote communication operations of all kinds: remote loads and
    /// stores, prefetches, BLTs and atomics.
    pub fn remote_ops(&self) -> u64 {
        [
            OpKind::LdRemote,
            OpKind::StRemote,
            OpKind::Fetch,
            OpKind::BltStart,
            OpKind::FetchInc,
            OpKind::Swap,
        ]
        .into_iter()
        .map(|k| self[k])
        .sum()
    }
}

impl Index<OpKind> for OpStats {
    type Output = u64;
    fn index(&self, kind: OpKind) -> &u64 {
        &self.counts[kind.index()]
    }
}

impl IndexMut<OpKind> for OpStats {
    fn index_mut(&mut self, kind: OpKind) -> &mut u64 {
        &mut self.counts[kind.index()]
    }
}
use t3d_shell::{
    AckTracker, Annex, BltUnit, FetchIncRegs, MsgQueue, PopError, PrefetchUnit, SwapUnit,
};

/// Counters of the completions a PE's waits ran past. Deliberately
/// *not* part of the perf registry or report: they describe how the
/// waits resolved, not what the program cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventStats {
    /// Completions waited past: one per pending write-buffer entry or
    /// ack at a drain, one per prefetch head or BLT stream that had not
    /// yet arrived, one per barrier settle.
    pub events_fast_forwarded: u64,
    /// Cycles the clock advanced past those completions.
    pub cycles_fast_forwarded: u64,
}

impl EventStats {
    /// Records a wait starting at `now` that ran past `n` completions,
    /// the last of them due at `last_due`.
    pub(crate) fn wait(&mut self, n: u64, now: u64, last_due: u64) {
        self.events_fast_forwarded += n;
        self.cycles_fast_forwarded += last_due.saturating_sub(now);
    }

    /// Records a wait past one completion due at `due`, if it was still
    /// in the future at `now`.
    pub(crate) fn wait_one(&mut self, now: u64, due: u64) {
        if due > now {
            self.wait(1, now, due);
        }
    }
}

/// The hot scalar state of one PE, held in a struct-of-arrays arena on
/// the machine (`Vec<NodeHot>`) rather than inside the pointer-rich
/// [`Node`]. Whole-machine scans such as "max clock across PEs" stride
/// over these few words per PE instead of ~500-byte nodes, so a
/// 1024-PE machine's scan state stays cache-hot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeHot {
    /// Virtual time, in cycles.
    pub clock: u64,
    /// When this node's shell finishes servicing its current remote
    /// request (used only when contention modeling is on).
    pub shell_busy_until: u64,
}

/// One PE's memo of its last link-contended route: the target and the
/// dense ids of the links the dimension-order route to it crosses, in
/// order, exactly as [`Torus::link_runs`] yields them. A pure cache:
/// the route depends only on the torus and the two endpoints, which
/// stay fixed for a node's life, so a hit yields the links a fresh
/// derivation would.
#[derive(Debug, Default)]
pub(crate) struct RouteMemo {
    /// The PE the memoised route leads to; `None` before the first.
    target: Option<u32>,
    /// The route's link ids in `links[..len]`. Sized once, at the first
    /// refill, to the torus's longest route.
    links: Box<[u32]>,
    len: usize,
}

impl RouteMemo {
    /// Folds `f` over the links of the route `pe -> target`, in order,
    /// from `init`. When `target` differs from the memo's, the fold walks
    /// `torus.link_runs(pe, target)` and refills the memo as it goes, so
    /// a miss derives the route once, as a walk without a memo would.
    /// Only the first refill allocates.
    pub(crate) fn fold(
        &mut self,
        torus: &Torus,
        pe: u32,
        target: u32,
        init: u64,
        mut f: impl FnMut(u64, usize) -> u64,
    ) -> u64 {
        if self.target == Some(target) {
            return self.links().iter().fold(init, |acc, &l| f(acc, l as usize));
        }
        if self.links.is_empty() {
            assert!(
                u32::try_from(torus.num_links()).is_ok(),
                "link ids of a {}-node torus overflow u32",
                torus.nodes()
            );
            self.links = vec![0; torus.diameter() as usize].into_boxed_slice();
        }
        let (mut acc, mut len) = (init, 0);
        for run in torus.link_runs(pe, target).runs() {
            for l in run.links() {
                self.links[len] = l as u32;
                len += 1;
                acc = f(acc, l);
            }
        }
        (self.target, self.len) = (Some(target), len);
        acc
    }

    /// The memoised route's link ids, in order.
    pub(crate) fn links(&self) -> &[u32] {
        &self.links[..self.len]
    }
}

/// A processing element: memory system + shell units. The per-PE hot
/// scalars (clock, shell occupancy) live in the machine's [`NodeHot`]
/// arena.
#[derive(Debug)]
pub struct Node {
    /// Local memory system.
    pub port: MemPort,
    /// DTB Annex segment registers.
    pub annex: Annex,
    /// Binding prefetch queue.
    pub prefetch: PrefetchUnit,
    /// Outstanding-remote-write tracker (status bit).
    pub acks: AckTracker,
    /// Fetch&increment registers.
    pub fetchinc: FetchIncRegs,
    /// Atomic-swap operand register.
    pub swap: SwapUnit,
    /// User-level message queue (receive side).
    pub msgq: MsgQueue,
    /// Block transfer engine.
    pub blt: BltUnit,
    /// Log of remote-write arrivals in time order — the basis for
    /// Split-C `storeSync` (data-counting completion detection). Each
    /// entry is `(virtual time, running byte total)`: the bytes of that
    /// arrival and every one before it, so both arrival queries are
    /// binary searches. Split-C keeps it one epoch long by
    /// [folding](Self::fold_arrivals) each passed prefix into its last
    /// entry.
    incoming: Vec<(u64, u64)>,
    /// Operation counts, by kind.
    pub ops: OpStats,
    /// Cycle-attribution accumulator for costs the machine layer charges
    /// directly (shell, network, waits); the memory port keeps its own
    /// ledger for the costs it returns. Node-owned so the sharded phase
    /// engine carries it thread-privately.
    pub perf: PerfAccum,
    /// Completions this node's waits ran past.
    pub events: EventStats,
    /// This node's calls in the running sharded phase, while the machine
    /// logs ops; joined into the machine's log after the phase.
    pub(crate) oplog: Vec<LogEntry>,
    /// The route of this PE's last link-contended transfer, kept with
    /// the node so the direct engine, its shard and the phase merge's
    /// replay of its effects all reuse it (see `OpCore::link_contend`).
    pub(crate) route: RouteMemo,
}

impl Node {
    /// Creates a node with identity `pe`.
    pub fn new(cfg: &MachineConfig, pe: u32) -> Self {
        Node {
            port: MemPort::new(cfg.mem),
            annex: Annex::new(&cfg.shell, pe),
            prefetch: PrefetchUnit::new(&cfg.shell),
            acks: AckTracker::new(&cfg.shell),
            fetchinc: FetchIncRegs::new(),
            swap: SwapUnit::new(),
            msgq: MsgQueue::new(&cfg.shell, cfg.msg_mode),
            blt: BltUnit::new(&cfg.shell),
            incoming: Vec::new(),
            ops: OpStats::default(),
            perf: PerfAccum::default(),
            events: EventStats::default(),
            oplog: Vec::new(),
            route: RouteMemo::default(),
        }
    }

    /// Memory barrier at `hot.clock`: drains the write buffer in one
    /// closed form. The port ledger takes the `WbufDrain` credit.
    pub(crate) fn memory_barrier(&mut self, hot: &mut NodeHot) {
        let now = hot.clock;
        let (n, last) = self
            .port
            .wbuf_due_times()
            .fold((0, 0), |(n, last), due| (n + 1, last.max(due)));
        self.events.wait(n, now, last);
        hot.clock = now + self.port.memory_barrier(now);
    }

    /// Spins on the status bit until every outstanding write is acked:
    /// the wait to the last ack plus one final poll, all `AckWait`.
    pub(crate) fn wait_write_acks(&mut self, hot: &mut NodeHot) {
        let now = hot.clock;
        let pending = self.acks.pending_times().len() as u64;
        self.events
            .wait(pending, now, self.acks.clear_time().unwrap_or(0));
        let cost = self.acks.wait_clear(now);
        hot.clock = now + cost;
        self.perf.credit(CostClass::AckWait, cost);
    }

    /// Pops the prefetch queue at `hot.clock`, waiting for the head's
    /// data if it has not arrived. Returns the value.
    ///
    /// # Errors
    ///
    /// The conditions of [`PrefetchUnit::pop`], before any clock motion.
    pub(crate) fn pop_prefetch(&mut self, hot: &mut NodeHot) -> Result<u64, PopError> {
        let now = hot.clock;
        self.events.wait_one(now, self.prefetch.head_arrival()?);
        let (value, cost) = self.prefetch.pop(now)?;
        hot.clock = now + cost;
        self.perf.credit(CostClass::PrefetchWait, cost);
        Ok(value)
    }

    /// Joins a BLT stream that completes at `completion`; the cycles
    /// waited are all `BltWait`.
    pub(crate) fn blt_wait(&mut self, hot: &mut NodeHot, completion: u64) {
        let now = hot.clock;
        self.events.wait_one(now, completion);
        hot.clock = now.max(completion);
        self.perf.credit(CostClass::BltWait, hot.clock - now);
    }

    /// Writes `data` at `off` functionally and invalidates every L1 line
    /// it covers: DMA deposits and setup writes bypass the cache, so no
    /// stale copy may survive them.
    pub(crate) fn poke_and_invalidate(&mut self, off: u64, data: &[u8]) {
        self.port.poke_mem(off, data);
        self.port.l1_mut().invalidate_span(off, data.len() as u64);
    }

    /// Lands `len` bytes of `src` at `src_off` at `off` in this node's
    /// memory, arena to arena, and invalidates every L1 line they cover:
    /// [`poke_and_invalidate`](Self::poke_and_invalidate) for a BLT whose
    /// source is an arena. `src` may be this node's own arena; the copy
    /// is a memmove.
    pub(crate) fn deposit_from(&mut self, off: u64, src: &MemArena, src_off: u64, len: u64) {
        let arena = self.port.mem_arena();
        arena.copy_from(off, src, src_off, len as usize);
        self.port.l1_mut().invalidate_span(off, len);
    }

    /// Logs `bytes` of remote-write data arriving at virtual time `t`.
    /// Arrivals come nearly in time order, so the entry is placed by a
    /// search from the back, after every entry at or before `t`, and the
    /// running totals from there on grow by `bytes`.
    pub(crate) fn note_arrival(&mut self, t: u64, bytes: u64) {
        let at = self
            .incoming
            .iter()
            .rposition(|&(u, _)| u <= t)
            .map_or(0, |i| i + 1);
        let before = at.checked_sub(1).map_or(0, |i| self.incoming[i].1);
        self.incoming.insert(at, (t, before));
        self.incoming[at..].iter_mut().for_each(|e| e.1 += bytes);
    }

    /// Collapses every arrival at or before `upto` into the last of
    /// them, whose running total already counts the folded bytes. No
    /// query this node's owner makes at a clock of `upto` or later
    /// changes: a target inside the folded prefix is answered with a
    /// time at or before `upto`, which is already past, and an arrival
    /// noted later at an earlier time still goes in before the folded
    /// entry. Bookkeeping, not an op: nothing is counted or logged.
    pub(crate) fn fold_arrivals(&mut self, upto: u64) {
        let n = self.incoming.partition_point(|&(t, _)| t <= upto);
        if n > 1 {
            self.incoming.drain(..n - 1);
        }
    }

    /// The remote-write arrivals `(virtual time, bytes)` logged so far,
    /// in time order. After a [fold](crate::Cpu::fold_arrivals) one
    /// entry carries every folded arrival's bytes at the latest folded
    /// time.
    pub fn arrivals(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let totals = std::iter::once(0).chain(self.incoming.iter().map(|&(_, total)| total));
        self.incoming
            .iter()
            .zip(totals)
            .map(|(&(t, total), before)| (t, total - before))
    }

    /// Total bytes of remote-write data that had arrived by `now`. A
    /// `now` before a [folded](crate::Cpu::fold_arrivals) entry's time
    /// sees none of its bytes; the owner never asks at such a time.
    pub fn bytes_arrived_by(&self, now: u64) -> u64 {
        let n = self.incoming.partition_point(|&(t, _)| t <= now);
        n.checked_sub(1).map_or(0, |i| self.incoming[i].1)
    }

    /// Earliest virtual time at which cumulative arrivals reach
    /// `target_bytes`, if they ever do. A target inside a
    /// [folded](crate::Cpu::fold_arrivals) prefix is answered with the
    /// folded time, which is at or before the owner's clock.
    pub fn arrival_time_of(&self, target_bytes: u64) -> Option<u64> {
        if target_bytes == 0 {
            return Some(0);
        }
        let i = self
            .incoming
            .partition_point(|&(_, total)| total < target_bytes);
        self.incoming.get(i).map(|&(t, _)| t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use t3d_prng::Rng;
    use t3d_torus::TorusConfig;

    /// For every ordered pair of PEs, the memo folds over and keeps the
    /// links `link_runs` gives, on tori with extent-1, extent-2, odd and
    /// uneven rings. Each source visits its targets B, C, B in turn, so
    /// a memo that kept a stale route across a target change fails.
    #[test]
    fn route_memo_yields_the_link_runs_route() {
        for dims in [(4, 4, 2), (3, 5, 7), (2, 1, 9), (8, 1, 1), (16, 8, 8)] {
            let torus = Torus::new(TorusConfig { dims, hop_cy: 2.5 });
            let n = torus.nodes();
            let mut seen = Vec::new();
            for a in 0..n {
                let mut memo = RouteMemo::default();
                for b in (0..n).filter(|&b| b != a) {
                    let c = (b + 1..b + n).map(|c| c % n).find(|&c| c != a).unwrap_or(b);
                    for t in [b, c, b] {
                        seen.clear();
                        let sum = memo.fold(&torus, a, t, 7, |acc, l| {
                            seen.push(l);
                            acc + l as u64
                        });
                        let want = torus.link_runs(a, t);
                        assert!(want.links().eq(seen.iter().copied()), "{dims:?} {a}->{t}");
                        let kept = memo.links().iter().map(|&l| l as usize);
                        assert!(want.links().eq(kept), "{dims:?} {a}->{t} kept");
                        assert_eq!(sum, 7 + want.links().map(|l| l as u64).sum::<u64>());
                    }
                }
            }
        }
    }

    #[test]
    fn arrival_accounting() {
        let mut n = Node::new(&MachineConfig::t3d(2), 0);
        n.note_arrival(100, 8);
        n.note_arrival(50, 8);
        n.note_arrival(200, 16);
        assert_eq!(n.bytes_arrived_by(99), 8);
        assert_eq!(n.bytes_arrived_by(100), 16);
        assert_eq!(n.arrival_time_of(16), Some(100));
        assert_eq!(n.arrival_time_of(32), Some(200));
        assert_eq!(n.arrival_time_of(33), None);
        // The log stays in time order; a tie lands after the entries it
        // ties with.
        n.note_arrival(100, 4);
        let log: Vec<_> = n.arrivals().collect();
        assert_eq!(log, [(50, 8), (100, 8), (100, 4), (200, 16)]);
        assert_eq!(n.bytes_arrived_by(100), 20);
        assert_eq!(n.arrival_time_of(20), Some(100));
        assert_eq!(n.arrival_time_of(21), Some(200));
    }

    /// The running totals answer both queries exactly as a linear scan
    /// of the arrivals would, with arrivals out of order, tied in time,
    /// and of zero bytes.
    #[test]
    fn arrival_queries_match_a_linear_model() {
        Rng::cases(0xA221, 64, |_, rng| {
            let mut n = Node::new(&MachineConfig::t3d(2), 0);
            let mut model: Vec<(u64, u64)> = Vec::new();
            for _ in 0..rng.gen_range(0u32..40) {
                let (t, bytes) = (rng.gen_range(0u64..30), rng.gen_range(0u64..3) * 8);
                n.note_arrival(t, bytes);
                let at = model.partition_point(|&(u, _)| u <= t);
                model.insert(at, (t, bytes));
                assert_eq!(n.arrivals().collect::<Vec<_>>(), model);
                let total: u64 = model.iter().map(|&(_, b)| b).sum();
                for now in 0..32 {
                    let by: u64 = model
                        .iter()
                        .filter(|&&(u, _)| u <= now)
                        .map(|&(_, b)| b)
                        .sum();
                    assert_eq!(n.bytes_arrived_by(now), by);
                }
                for target in 0..=total + 1 {
                    let mut acc = 0;
                    let when = model.iter().find_map(|&(u, b)| {
                        acc += b;
                        (acc >= target).then_some(u)
                    });
                    let when = if target == 0 { Some(0) } else { when };
                    assert_eq!(n.arrival_time_of(target), when, "{target} in {model:?}");
                }
            }
        });
    }
}
