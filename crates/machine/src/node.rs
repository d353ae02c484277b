//! One node: Alpha core state, memory port and shell units.

use crate::config::MachineConfig;
use t3d_memsys::{MemArena, MemPort};
use t3d_perf::{CostClass, PerfAccum};

/// Counters of the operations a node has issued (instrumentation: the
/// communication/computation breakdowns in the application study).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Local loads.
    pub loads_local: u64,
    /// Remote (annex-translated) loads, cached or uncached.
    pub loads_remote: u64,
    /// Local stores.
    pub stores_local: u64,
    /// Remote stores.
    pub stores_remote: u64,
    /// Prefetch issues.
    pub fetches: u64,
    /// Prefetch queue pops.
    pub pops: u64,
    /// Memory barriers.
    pub memory_barriers: u64,
    /// BLT invocations (contiguous or strided).
    pub blts: u64,
    /// Messages sent.
    pub msgs_sent: u64,
    /// Messages received.
    pub msgs_received: u64,
    /// Atomic operations (fetch&increment, swap).
    pub atomics: u64,
    /// Acknowledgement waits (status-bit spins).
    pub ack_waits: u64,
}

impl OpStats {
    /// Accumulates another node's counters into this one.
    pub fn accumulate(&mut self, other: &OpStats) {
        self.loads_local += other.loads_local;
        self.loads_remote += other.loads_remote;
        self.stores_local += other.stores_local;
        self.stores_remote += other.stores_remote;
        self.fetches += other.fetches;
        self.pops += other.pops;
        self.memory_barriers += other.memory_barriers;
        self.blts += other.blts;
        self.msgs_sent += other.msgs_sent;
        self.msgs_received += other.msgs_received;
        self.atomics += other.atomics;
        self.ack_waits += other.ack_waits;
    }

    /// Remote communication operations of all kinds.
    pub fn remote_ops(&self) -> u64 {
        self.loads_remote + self.stores_remote + self.fetches + self.blts + self.atomics
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
    /// Log of remote-write arrivals `(virtual time, bytes)` in time
    /// order — the basis for Split-C `storeSync` (data-counting
    /// completion detection).
    incoming: Vec<(u64, u64)>,
    /// Operation counters.
    pub ops: OpStats,
    /// Cycle-attribution accumulator for costs the machine layer charges
    /// directly (shell, network, waits); the memory port keeps its own
    /// ledger for the costs it returns. Node-owned so the sharded phase
    /// engine carries it thread-privately.
    pub perf: PerfAccum,
    /// Completions this node's waits ran past.
    pub events: EventStats,
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
        }
    }

    /// Memory barrier at `hot.clock`: drains the write buffer in one
    /// closed form and returns the cost. The port ledger takes the
    /// `WbufDrain` credit.
    pub(crate) fn memory_barrier(&mut self, hot: &mut NodeHot) -> u64 {
        let now = hot.clock;
        let (n, last) = self
            .port
            .wbuf_due_times()
            .fold((0, 0), |(n, last), due| (n + 1, last.max(due)));
        self.events.wait(n, now, last);
        let cost = self.port.memory_barrier(now);
        hot.clock = now + cost;
        cost
    }

    /// Spins on the status bit until every outstanding write is acked:
    /// the wait to the last ack plus one final poll, all `AckWait`.
    pub(crate) fn wait_write_acks(&mut self, hot: &mut NodeHot) -> u64 {
        let now = hot.clock;
        let pending = self.acks.pending_times().len() as u64;
        self.events
            .wait(pending, now, self.acks.clear_time().unwrap_or(0));
        let cost = self.acks.wait_clear(now);
        hot.clock = now + cost;
        self.perf.credit(CostClass::AckWait, cost);
        cost
    }

    /// Pops the prefetch queue at `hot.clock`, waiting for the head's
    /// data if it has not arrived. Returns `(value, cost)`.
    ///
    /// # Errors
    ///
    /// The conditions of [`PrefetchUnit::pop`], before any clock motion.
    pub(crate) fn pop_prefetch(&mut self, hot: &mut NodeHot) -> Result<(u64, u64), PopError> {
        let now = hot.clock;
        self.events.wait_one(now, self.prefetch.head_arrival()?);
        let (value, cost) = self.prefetch.pop(now)?;
        hot.clock = now + cost;
        self.perf.credit(CostClass::PrefetchWait, cost);
        Ok((value, cost))
    }

    /// Joins a BLT stream that completes at `completion`; returns the
    /// cycles waited, all `BltWait`.
    pub(crate) fn blt_wait(&mut self, hot: &mut NodeHot, completion: u64) -> u64 {
        let now = hot.clock;
        self.events.wait_one(now, completion);
        hot.clock = now.max(completion);
        let waited = hot.clock - now;
        self.perf.credit(CostClass::BltWait, waited);
        waited
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
    /// search from the back, after every entry at or before `t`.
    pub(crate) fn note_arrival(&mut self, t: u64, bytes: u64) {
        let at = self
            .incoming
            .iter()
            .rposition(|&(u, _)| u <= t)
            .map_or(0, |i| i + 1);
        self.incoming.insert(at, (t, bytes));
    }

    /// Empties the arrival log (a new `storeSync` epoch).
    pub(crate) fn clear_arrivals(&mut self) {
        self.incoming.clear();
    }

    /// The remote-write arrivals `(virtual time, bytes)` logged so far,
    /// in time order.
    pub fn arrivals(&self) -> &[(u64, u64)] {
        &self.incoming
    }

    /// Total bytes of remote-write data that had arrived by `now`.
    pub fn bytes_arrived_by(&self, now: u64) -> u64 {
        self.incoming
            .iter()
            .take_while(|&&(t, _)| t <= now)
            .map(|&(_, b)| b)
            .sum()
    }

    /// Earliest virtual time at which cumulative arrivals reach
    /// `target_bytes`, if they ever do.
    pub fn arrival_time_of(&self, target_bytes: u64) -> Option<u64> {
        if target_bytes == 0 {
            return Some(0);
        }
        let mut acc = 0u64;
        self.incoming.iter().find_map(|&(t, b)| {
            acc += b;
            (acc >= target_bytes).then_some(t)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(n.arrivals(), [(50, 8), (100, 8), (100, 4), (200, 16)]);
        assert_eq!(n.bytes_arrived_by(100), 20);
        assert_eq!(n.arrival_time_of(20), Some(100));
        assert_eq!(n.arrival_time_of(21), Some(200));
    }
}
