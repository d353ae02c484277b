//! The node's memory port: L1 + write buffer + TLB (+ optional L2) in
//! front of page-mode DRAM and the actual memory array.
//!
//! [`MemPort`] is the single gateway between a simulated processor and its
//! local memory, exactly as the paper observes ("the memory system is the
//! primary gateway to the shell", Section 2). All the composite local
//! behaviours measured in Figures 1 and 2 — the 6.67 ns cached plateau,
//! the 145/205/264 ns DRAM plateaus, write-merging, the 35 ns steady-state
//! store cost and the full-buffer stall — emerge here from the component
//! models, with no curve-specific code.
//!
//! Physical addresses passed to the timed operations are *full* physical
//! addresses: on the T3D the DTB-Annex index occupies the bits above
//! [`MemConfig::offset_bits`]. The cache, write buffer and TLB key on the
//! full address (synonym semantics); DRAM and the memory array key on the
//! local offset only.

use crate::arena::MemArena;
use crate::cache::L1Cache;
use crate::config::MemConfig;
use crate::copy_bytes;
use std::collections::VecDeque;
use std::sync::Arc;
use t3d_perf::{CostClass, Ledger};

/// Counters of memory-system events (instrumentation for the gray-box
/// analyses: hit ratios, merge rates, stall rates).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortStats {
    /// L1 load hits.
    pub l1_hits: u64,
    /// L1 load misses.
    pub l1_misses: u64,
    /// L2 hits (workstation configuration only).
    pub l2_hits: u64,
    /// Stores that merged into a pending write-buffer entry.
    pub wbuf_merges: u64,
    /// Stores that stalled for a free write-buffer entry.
    pub wbuf_stalls: u64,
    /// TLB misses observed by this port's accesses.
    pub tlb_misses: u64,
}

use crate::dram::Dram;
use crate::l2::L2Cache;
use crate::tlb::Tlb;
use crate::wbuf::{RetireSink, Retired, WriteBuffer, WriteTarget, MAX_LINE};

/// The port's retire sink: a local entry commits straight to the arena
/// (the line only, never the rest of the inline array), a remote one
/// queues in the outbox.
struct Commit<'a> {
    mem: &'a MemArena,
    offset_mask: u64,
    line: usize,
    outbox: &'a mut VecDeque<Retired>,
}

impl RetireSink for Commit<'_> {
    #[inline]
    fn retire(&mut self, r: Retired) {
        match r.target {
            WriteTarget::Local => {
                let base = r.line_pa & self.offset_mask;
                self.mem.write_masked(base, &r.data[..self.line], r.mask);
            }
            WriteTarget::Remote(_) => self.outbox.push_back(r),
        }
    }
}

/// A node's complete local memory system, functional and timed.
///
/// # Example
///
/// ```
/// use t3d_memsys::{MemConfig, MemPort};
///
/// let mut port = MemPort::new(MemConfig::t3d());
/// let c1 = port.write(0, 0x2000, &7u64.to_le_bytes());
/// let mut buf = [0u8; 8];
/// let _ = port.read(c1, 0x2000, &mut buf);
/// assert_eq!(u64::from_le_bytes(buf), 7, "store forwards to the load");
/// ```
#[derive(Debug)]
pub struct MemPort {
    cfg: MemConfig,
    tlb: Tlb,
    l1: L1Cache,
    l2: Option<L2Cache>,
    wbuf: WriteBuffer,
    dram: Dram,
    mem: Arc<MemArena>,
    offset_mask: u64,
    /// Remote writes that have retired from the write buffer and await
    /// delivery by the machine layer, oldest first.
    outbox: VecDeque<Retired>,
    /// Cached [`WriteBuffer::next_due`] (`u64::MAX` when the buffer is
    /// empty). Every timed operation calls [`MemPort::apply_due`]; this
    /// cache lets that call return without touching the write buffer at
    /// all while nothing can be due — the common case between drains.
    /// Refreshed after every operation that mutates the buffer.
    wbuf_next_due: u64,
    stats: PortStats,
    /// Whether the attribution ledger collects (see [`MemPort::set_perf`]).
    perf_on: bool,
    /// Cycle attribution for the costs this port *returns* to its caller.
    /// The machine layer adds every returned cost to the PE clock, so
    /// crediting exactly the returned cycles here keeps the conservation
    /// invariant: port ledger + node ledger = elapsed clock.
    perf: Ledger,
}

impl MemPort {
    /// Creates a memory port with zero-filled memory.
    pub fn new(cfg: MemConfig) -> Self {
        assert!(
            (cfg.mem_bytes as u64) <= (1u64 << cfg.offset_bits.min(63)),
            "memory must fit in the local offset field"
        );
        MemPort {
            tlb: Tlb::new(cfg.tlb),
            l1: L1Cache::new(cfg.l1),
            l2: cfg.l2.map(L2Cache::new),
            wbuf: WriteBuffer::new(cfg.wbuf, cfg.l1.line),
            dram: Dram::new(cfg.dram),
            mem: Arc::new(MemArena::new(cfg.mem_bytes)),
            outbox: VecDeque::new(),
            wbuf_next_due: u64::MAX,
            stats: PortStats::default(),
            perf_on: false,
            perf: Ledger::default(),
            offset_mask: if cfg.offset_bits >= 64 {
                u64::MAX
            } else {
                (1u64 << cfg.offset_bits) - 1
            },
            cfg,
        }
    }

    /// The configuration this port was built with.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Local-memory offset named by a full physical address.
    #[inline]
    pub fn offset_of(&self, pa: u64) -> u64 {
        pa & self.offset_mask
    }

    #[inline]
    fn line_mask(&self) -> u64 {
        (self.cfg.l1.line as u64) - 1
    }

    #[inline]
    fn check_range(&self, pa: u64, len: usize) {
        let off = self.offset_of(pa) as usize;
        assert!(
            off + len <= self.mem.len(),
            "access at offset {off:#x} len {len} exceeds local memory ({} bytes)",
            self.mem.len()
        );
    }

    /// Reads `buf.len()` bytes at `pa` through the cache hierarchy,
    /// returning the cost in cycles.
    ///
    /// Reads bypass independent pending writes; bytes pending in the write
    /// buffer under the *same* full physical address are forwarded, but a
    /// synonym's bytes are not (the Section 3.4 hazard).
    ///
    /// # Panics
    ///
    /// Panics if the access exceeds local memory.
    pub fn read(&mut self, now: u64, pa: u64, buf: &mut [u8]) -> u64 {
        self.check_range(pa, buf.len());
        self.apply_due(now);
        let tlb_cost = self.tlb.access(pa);
        if tlb_cost > 0 {
            self.stats.tlb_misses += 1;
        }
        self.credit(CostClass::Tlb, tlb_cost);
        let mut cost = tlb_cost;
        let line = self.cfg.l1.line as u64;
        let mut done = 0usize;
        while done < buf.len() {
            let cur = pa + done as u64;
            let line_pa = cur & !self.line_mask();
            let off_in_line = (cur & self.line_mask()) as usize;
            let take = (buf.len() - done).min(self.cfg.l1.line - off_in_line);
            if let Some(data) = self.l1.lookup(cur) {
                copy_bytes(
                    &mut buf[done..done + take],
                    &data[off_in_line..off_in_line + take],
                );
                cost += self.cfg.l1.hit_cy;
                self.stats.l1_hits += 1;
                self.credit(CostClass::L1Hit, self.cfg.l1.hit_cy);
            } else {
                // L1 miss: go to L2 (workstation) or DRAM, fill the line.
                self.stats.l1_misses += 1;
                let l2_hit = self
                    .l2
                    .as_mut()
                    .map(|l2| (l2.access(cur), l2.config().hit_cy));
                if matches!(l2_hit, Some((true, _))) {
                    self.stats.l2_hits += 1;
                }
                cost += match l2_hit {
                    Some((true, hit_cy)) => {
                        self.credit(CostClass::L2Hit, hit_cy);
                        hit_cy
                    }
                    _ => {
                        let dram_cy = self.dram.access(self.offset_of(line_pa));
                        self.credit(self.classify_dram(dram_cy), dram_cy);
                        dram_cy
                    }
                };
                let mut fill = [0u8; MAX_LINE];
                let line_buf = &mut fill[..line as usize];
                self.mem.read(self.offset_of(line_pa), line_buf);
                // Same-PA pending stores forward into the fill.
                self.wbuf.forward(line_pa, line_buf);
                self.l1.fill(line_pa, line_buf);
                copy_bytes(
                    &mut buf[done..done + take],
                    &line_buf[off_in_line..off_in_line + take],
                );
            }
            done += take;
        }
        cost
    }

    /// Writes `bytes` at `pa` into local memory through the write buffer,
    /// returning the cost in cycles (issue plus any full-buffer stall).
    ///
    /// # Panics
    ///
    /// Panics if the access exceeds local memory or crosses a cache line.
    pub fn write(&mut self, now: u64, pa: u64, bytes: &[u8]) -> u64 {
        self.write_to(now, pa, bytes, WriteTarget::Local)
    }

    /// Writes `bytes` at `pa` with an explicit target (the machine layer
    /// uses this to route remote stores through the shell). Returns the
    /// processor cost; any *remote* entries that retire as a side effect
    /// are queued in the outbox (local retires are applied to memory
    /// internally).
    pub fn write_to(&mut self, now: u64, pa: u64, bytes: &[u8], target: WriteTarget) -> u64 {
        if matches!(target, WriteTarget::Local) {
            self.check_range(pa, bytes.len());
        }
        self.apply_due(now);
        let mut cost = self.tlb.access(pa);
        self.credit(CostClass::Tlb, cost);
        // Write-through: a store that hits updates the cached line in
        // place. (Remote stores do not touch the local cache.)
        if matches!(target, WriteTarget::Local) {
            self.l1.update(pa, bytes);
        }
        let dram_cy = match target {
            WriteTarget::Local => self.dram.access(self.offset_of(pa & !self.line_mask())),
            WriteTarget::Remote(_) => 0,
        };
        let (wbuf, mut sink) = self.wbuf_and_sink();
        let out = wbuf.push(now + cost, pa, bytes, target, dram_cy, &mut sink);
        self.refresh_next_due();
        if out.merged {
            self.stats.wbuf_merges += 1;
        }
        if out.cycles > self.cfg.wbuf.store_issue_cy {
            self.stats.wbuf_stalls += 1;
        }
        let issue = out.cycles.min(self.cfg.wbuf.store_issue_cy);
        self.credit(CostClass::WbufIssue, issue);
        self.credit(CostClass::WbufStall, out.cycles - issue);
        cost += out.cycles;
        cost
    }

    /// Issues a memory barrier: drains the write buffer and returns the
    /// cost in cycles. Retired remote entries land in the outbox.
    pub fn memory_barrier(&mut self, now: u64) -> u64 {
        let (wbuf, mut sink) = self.wbuf_and_sink();
        let cost = wbuf.drain_all(now, &mut sink);
        self.wbuf_next_due = u64::MAX;
        self.credit(CostClass::WbufDrain, cost);
        cost
    }

    /// Applies every write whose retire time has passed; remote entries
    /// land in the outbox.
    #[inline]
    pub fn apply_due(&mut self, now: u64) {
        if now < self.wbuf_next_due {
            return;
        }
        let (wbuf, mut sink) = self.wbuf_and_sink();
        wbuf.drain_due(now, &mut sink);
        self.refresh_next_due();
    }

    #[inline]
    fn refresh_next_due(&mut self) {
        self.wbuf_next_due = self.wbuf.next_due().unwrap_or(u64::MAX);
    }

    /// Takes the oldest remote write that has retired and not yet been
    /// taken; the machine layer delivers them to their target nodes in
    /// retire order. `None` (the common case) costs one length check.
    #[inline]
    pub fn pop_outbox(&mut self) -> Option<Retired> {
        self.outbox.pop_front()
    }

    /// The write buffer, and the sink its retirements go to.
    #[inline]
    fn wbuf_and_sink(&mut self) -> (&mut WriteBuffer, Commit<'_>) {
        let sink = Commit {
            mem: &self.mem,
            offset_mask: self.offset_mask,
            line: self.cfg.l1.line,
            outbox: &mut self.outbox,
        };
        (&mut self.wbuf, sink)
    }

    /// Charges one TLB translation for `pa` (the remote-access path
    /// translates through the local TLB before reaching the shell).
    #[inline]
    pub fn tlb_access(&mut self, pa: u64) -> u64 {
        let cost = self.tlb.access(pa);
        self.credit(CostClass::Tlb, cost);
        cost
    }

    /// Overlays bytes pending in the write buffer for exactly this full
    /// physical line address onto `line_buf`. Used by the machine layer
    /// to forward same-PA pending remote stores to remote reads.
    #[inline]
    pub fn forward_pending(&self, line_pa: u64, line_buf: &mut [u8]) -> bool {
        self.wbuf.forward(line_pa, line_buf)
    }

    /// Whether a write is pending for this full physical line address.
    #[inline]
    pub fn has_pending_line(&self, line_pa: u64) -> bool {
        self.wbuf.has_pending_line(line_pa)
    }

    /// Number of pending write-buffer entries.
    pub fn wbuf_pending(&self) -> usize {
        self.wbuf.pending()
    }

    /// Integer completion times of every pending write-buffer entry, in
    /// FIFO retire order (nondecreasing).
    pub fn wbuf_due_times(&self) -> impl Iterator<Item = u64> + '_ {
        self.wbuf.due_times()
    }

    /// Services a read request arriving from a *remote* node: reads
    /// straight from DRAM (never this node's cache or write buffer — the
    /// shell path goes to the memory controller) and returns the DRAM
    /// cost in cycles.
    ///
    /// # Panics
    ///
    /// Panics if the access exceeds local memory.
    pub fn service_remote_read(&mut self, offset: u64, buf: &mut [u8]) -> u64 {
        assert!(
            offset as usize + buf.len() <= self.mem.len(),
            "remote read beyond local memory"
        );
        let cost = self.dram.access(offset);
        self.mem.read(offset, buf);
        cost
    }

    /// Services a write arriving from a remote node: updates memory and —
    /// in the cache-invalidate mode the Split-C implementation must run in
    /// (Section 4.4) — blindly flushes the corresponding local cache line.
    /// Returns the DRAM cost in cycles.
    ///
    /// # Panics
    ///
    /// Panics if the access exceeds local memory.
    pub fn service_remote_write(&mut self, offset: u64, bytes: &[u8], mask: Option<u64>) -> u64 {
        assert!(
            offset as usize + bytes.len() <= self.mem.len(),
            "remote write beyond local memory"
        );
        let cost = self.dram.access(offset);
        match mask {
            None => self.mem.write(offset, bytes),
            Some(m) => self.mem.write_masked(offset, bytes, m),
        }
        // Cache-invalidate mode: flush the line whether or not it is
        // cached (a "spurious" flush when it is not).
        self.l1.invalidate(offset);
        cost
    }

    /// Installs a line fetched from a remote node into the local L1 under
    /// its full (annex-bearing) physical address. Used by cached remote
    /// reads; such lines are *not* kept coherent by any hardware.
    pub fn install_remote_line(&mut self, pa: u64, data: &[u8]) {
        self.l1.fill(pa & !self.line_mask(), data);
    }

    /// Flushes one local cache line (the explicit flush the compiler must
    /// emit after cached remote reads). Returns the paper's measured cost
    /// of 23 cycles — "equivalent to accessing main memory".
    pub fn flush_line(&mut self, pa: u64) -> u64 {
        self.l1.invalidate(pa);
        23
    }

    /// Reads bytes functionally (no timing, no cache effects). Test and
    /// setup helper.
    pub fn peek_mem(&self, offset: u64, buf: &mut [u8]) {
        self.mem.read(offset, buf);
    }

    /// Writes bytes functionally (no timing, no cache effects), flushing
    /// any stale cached copy. Test and setup helper.
    pub fn poke_mem(&mut self, offset: u64, bytes: &[u8]) {
        self.mem.write(offset, bytes);
    }

    /// Shared handle to the raw memory bytes. The sharded phase engine
    /// clones this `Arc` so remote reads can observe other nodes' memory
    /// while each node's timing state stays thread-private.
    #[inline]
    pub fn mem_arena(&self) -> &Arc<MemArena> {
        &self.mem
    }

    /// The L1 cache (for instrumentation and tests).
    #[inline]
    pub fn l1(&self) -> &L1Cache {
        &self.l1
    }

    /// Mutable access to the L1 cache (whole-cache flushes etc.).
    pub fn l1_mut(&mut self) -> &mut L1Cache {
        &mut self.l1
    }

    /// The TLB (for instrumentation and tests).
    pub fn tlb(&self) -> &Tlb {
        &self.tlb
    }

    /// The DRAM model (for instrumentation and tests).
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    /// Mutable DRAM access (the shell's BLT and remote-service paths
    /// charge DRAM time directly).
    #[inline]
    pub fn dram_mut(&mut self) -> &mut Dram {
        &mut self.dram
    }

    #[inline]
    fn credit(&mut self, class: CostClass, cycles: u64) {
        if self.perf_on && cycles > 0 {
            self.perf.add(class, cycles);
        }
    }

    /// Classifies a cost returned by [`Dram::access`] against the
    /// configured plateau values. `Dram::access` returns exactly one of
    /// the three configured costs, so equality is a faithful decode;
    /// `bank_busy` is checked first in case configurations alias values.
    #[inline]
    fn classify_dram(&self, cy: u64) -> CostClass {
        let d = &self.cfg.dram;
        if cy == d.bank_busy_cy {
            CostClass::DramBankBusy
        } else if cy == d.page_miss_cy {
            CostClass::DramPageMiss
        } else {
            CostClass::DramPageHit
        }
    }

    /// Switches attribution collection on or off, clearing the ledger
    /// either way. The machine layer drives this from its perf mode.
    pub fn set_perf(&mut self, on: bool) {
        self.perf_on = on;
        self.perf.clear();
    }

    /// The cycle-attribution ledger for costs this port has returned
    /// since [`MemPort::set_perf`] last ran.
    pub fn perf_ledger(&self) -> &Ledger {
        &self.perf
    }

    /// The event counters accumulated so far.
    pub fn stats(&self) -> PortStats {
        self.stats
    }
}

impl Clone for MemPort {
    /// Deep copy: the clone gets its **own** memory arena. Ports are
    /// never implicitly aliased; explicit cross-thread sharing goes
    /// through [`MemPort::mem_arena`].
    fn clone(&self) -> Self {
        MemPort {
            cfg: self.cfg,
            tlb: self.tlb.clone(),
            l1: self.l1.clone(),
            l2: self.l2.clone(),
            wbuf: self.wbuf.clone(),
            dram: self.dram,
            mem: Arc::new(self.mem.deep_clone()),
            offset_mask: self.offset_mask,
            outbox: self.outbox.clone(),
            wbuf_next_due: self.wbuf_next_due,
            stats: self.stats,
            perf_on: self.perf_on,
            perf: self.perf,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn port() -> MemPort {
        MemPort::new(MemConfig::t3d())
    }

    #[test]
    fn cold_read_pays_dram_then_hits() {
        let mut p = port();
        let mut buf = [0u8; 8];
        let c0 = p.read(0, 0x4000, &mut buf);
        assert!(c0 >= 22);
        let c1 = p.read(c0, 0x4008, &mut buf);
        assert_eq!(c1, 1, "same line now cached");
    }

    #[test]
    fn store_then_load_same_pa_forwards() {
        let mut p = port();
        let c = p.write(0, 0x5000, &0xDEADBEEFu64.to_le_bytes());
        let mut buf = [0u8; 8];
        p.read(c, 0x5000, &mut buf);
        assert_eq!(u64::from_le_bytes(buf), 0xDEADBEEF);
    }

    #[test]
    fn synonym_read_sees_stale_memory() {
        // The Section 3.4 hazard: a write in the buffer under one PA is
        // invisible to a read under a synonym PA.
        let mut p = port();
        p.poke_mem(0x6000, &1u64.to_le_bytes());
        let annex_bit = 1u64 << 27;
        let c = p.write(0, 0x6000, &2u64.to_le_bytes());
        let mut buf = [0u8; 8];
        p.read(c, 0x6000 | annex_bit, &mut buf);
        assert_eq!(u64::from_le_bytes(buf), 1, "synonym read must be stale");
        // After a memory barrier the write is visible to everyone.
        let mb = p.memory_barrier(c);
        let mut buf = [0u8; 8];
        // The stale line cached under the synonym must be flushed first
        // (direct-mapped: the barrier does not invalidate it, but a fresh
        // synonym read after invalidation sees memory).
        p.l1_mut().invalidate(0x6000 | annex_bit);
        p.read(c + mb, 0x6000 | annex_bit, &mut buf);
        assert_eq!(u64::from_le_bytes(buf), 2);
    }

    #[test]
    fn write_hit_updates_cache_line() {
        let mut p = port();
        let mut buf = [0u8; 8];
        let mut now = p.read(0, 0x7000, &mut buf); // allocate line
        now += p.write(now, 0x7000, &9u64.to_le_bytes());
        let c = p.read(now, 0x7000, &mut buf);
        assert_eq!(c, 1, "read hits the updated line");
        assert_eq!(u64::from_le_bytes(buf), 9);
    }

    #[test]
    fn write_miss_does_not_allocate() {
        let mut p = port();
        let now = p.write(0, 0x8000, &1u64.to_le_bytes());
        assert!(!p.l1().contains(0x8000));
        let mut buf = [0u8; 8];
        let c = p.read(now, 0x8000, &mut buf);
        assert!(c >= 22, "read after write-miss still misses");
        assert_eq!(u64::from_le_bytes(buf), 1, "but forwards the pending value");
    }

    #[test]
    fn remote_write_service_invalidates_cached_line() {
        let mut p = port();
        let mut buf = [0u8; 8];
        let now = p.read(0, 0x9000, &mut buf); // cache the line
        assert!(p.l1().contains(0x9000));
        p.service_remote_write(0x9000, &5u64.to_le_bytes(), None);
        assert!(!p.l1().contains(0x9000), "cache-invalidate mode flushed it");
        p.read(now + 100, 0x9000, &mut buf);
        assert_eq!(u64::from_le_bytes(buf), 5);
    }

    #[test]
    fn remote_read_service_bypasses_cache_and_wbuf() {
        let mut p = port();
        p.poke_mem(0xA000, &3u64.to_le_bytes());
        p.write(0, 0xA000, &4u64.to_le_bytes()); // pending in wbuf
        let mut buf = [0u8; 8];
        let cost = p.service_remote_read(0xA000, &mut buf);
        assert!(cost >= 22);
        assert_eq!(
            u64::from_le_bytes(buf),
            3,
            "remote sees memory, not the buffer"
        );
    }

    #[test]
    fn install_remote_line_goes_stale_when_owner_updates() {
        let mut p = port();
        let remote_pa = (3u64 << 27) | 0x100;
        p.install_remote_line(remote_pa, &[7u8; 32]);
        let mut buf = [0u8; 8];
        let warm = p.read(0, remote_pa, &mut buf); // warms the TLB entry
        let c = p.read(warm, remote_pa, &mut buf);
        assert_eq!(c, 1, "cached remote line hits locally");
        assert_eq!(buf[0], 7, "value is the (possibly stale) cached copy");
    }

    #[test]
    fn streaming_large_array_shows_memory_plateau() {
        // Miniature Figure 1: 64 KB array, 32 B stride -> every access a
        // page-hit DRAM miss (~22 cycles + hit cost).
        let mut p = port();
        let mut now = 0u64;
        let n = 2048u64;
        // Warm pass (allocates nothing useful: array >> cache).
        for i in 0..n {
            let mut b = [0u8; 8];
            now += p.read(now, i * 32, &mut b);
        }
        let start = now;
        for i in 0..n {
            let mut b = [0u8; 8];
            now += p.read(now, i * 32, &mut b);
        }
        let avg = (now - start) as f64 / n as f64;
        assert!((21.0..25.0).contains(&avg), "average miss cost {avg} cy");
    }

    #[test]
    fn small_array_fits_in_cache_at_one_cycle() {
        let mut p = port();
        let mut now = 0u64;
        for _ in 0..2 {
            for i in 0..256u64 {
                let mut b = [0u8; 8];
                now += p.read(now, i * 32, &mut b); // 8 KB working set
            }
        }
        // Second pass must have been all hits.
        let mut cost = 0;
        for i in 0..256u64 {
            let mut b = [0u8; 8];
            cost += p.read(now + cost, i * 32, &mut b);
        }
        assert_eq!(cost, 256, "one cycle per cached read");
    }

    #[test]
    fn apply_due_retires_exactly_at_the_buffered_completion() {
        // The port caches the write buffer's next-due time to skip the
        // drain call between events; the cache must not delay retirement.
        let mut p = port();
        let _ = p.write(0, 0xC000, &7u64.to_le_bytes());
        assert_eq!(p.wbuf_pending(), 1);
        let mut t = 0;
        while p.wbuf_pending() > 0 {
            t += 1;
            p.apply_due(t);
            assert!(t < 1000, "entry never retired");
        }
        let mut buf = [0u8; 8];
        p.peek_mem(0xC000, &mut buf);
        assert_eq!(u64::from_le_bytes(buf), 7, "retired write reached memory");
    }

    #[test]
    fn stats_track_hits_misses_merges_and_stalls() {
        let mut p = port();
        let mut now = 0u64;
        // Stride-8 sweep of 2 KB: 1 miss + 3 hits per 32 B line.
        for i in 0..256u64 {
            let mut b = [0u8; 8];
            now += p.read(now, i * 8, &mut b);
        }
        let s = p.stats();
        assert_eq!(s.l1_misses, 64);
        assert_eq!(s.l1_hits, 192);
        // Same-line stores merge (issue outpaces nothing: no stalls)...
        for i in 0..64u64 {
            now += p.write(now, 0x4000 + i * 8, &[1; 8]);
        }
        let merges = p.stats().wbuf_merges - s.wbuf_merges;
        assert!(merges >= 24, "merges: {merges}");
        // ...while distinct-line bursts outpace the retire pipeline and
        // stall for entries.
        let s = p.stats();
        for i in 0..64u64 {
            now += p.write(now, 0x8000 + i * 64, &[1; 8]);
        }
        assert_eq!(p.stats().wbuf_merges, s.wbuf_merges);
        let stalls = p.stats().wbuf_stalls - s.wbuf_stalls;
        assert!(stalls > 0, "stalls: {stalls}");
    }

    #[test]
    fn perf_ledger_conserves_returned_costs() {
        let mut p = port();
        p.set_perf(true);
        let mut now = 0u64;
        let mut total = 0u64;
        // Reads: misses and hits, both DRAM plateaus.
        for i in 0..256u64 {
            let mut b = [0u8; 8];
            let c = p.read(now, i * 8, &mut b);
            now += c;
            total += c;
        }
        // Stores: merges, steady issue and full-buffer stalls.
        for i in 0..64u64 {
            let c = p.write(now, 0x8000 + i * 64, &[1; 8]);
            now += c;
            total += c;
        }
        let c = p.memory_barrier(now);
        now += c;
        total += c;
        total += p.tlb_access(0xC000);
        let l = *p.perf_ledger();
        assert_eq!(l.total(), total, "every returned cycle is attributed");
        assert!(l.get(CostClass::L1Hit) > 0);
        assert!(l.get(CostClass::DramPageHit) > 0);
        assert!(l.get(CostClass::DramPageMiss) > 0);
        assert!(l.get(CostClass::WbufIssue) > 0);
        assert!(l.get(CostClass::WbufStall) > 0);
        assert!(l.get(CostClass::WbufDrain) > 0);
        // Off by default: a fresh port ignores everything.
        let mut q = port();
        let mut b = [0u8; 8];
        let _ = q.read(0, 0x100, &mut b);
        assert_eq!(q.perf_ledger().total(), 0);
        let _ = now;
    }

    #[test]
    #[should_panic(expected = "exceeds local memory")]
    fn out_of_range_read_panics() {
        let mut p = port();
        let mut buf = [0u8; 8];
        p.read(0, (1 << 27) - 4, &mut buf);
    }
}
