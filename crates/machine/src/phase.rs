//! Sharded bulk-synchronous phases: run every PE of a phase concurrently
//! with results bit-identical to running them one after another.
//!
//! # The model
//!
//! The direct engine ([`Machine`]) interleaves remote effects eagerly: a
//! remote store charges the target's DRAM the moment the source's write
//! buffer retires it. That is simple and exact, but it serializes the
//! phase — node 1's closure cannot run until node 0's has finished
//! mutating the shared machine.
//!
//! The sharded engine splits a phase into independent *shards*. Each
//! shard ([`PhasePe`]) owns its node's entire state — caches, write
//! buffer, DRAM timing, clock, prefetch queue — plus a private
//! *copy-on-touch* view of every other node's DRAM timing, shell
//! occupancy and fetch&increment registers and of the link-occupancy
//! clocks. The view is a small overlay over one phase-entry snapshot
//! shared by all shards: the first time a shard touches a remote node or
//! link, that entry is copied into the shard's overlay and evolves
//! there; reads of untouched entries go straight to the snapshot. A
//! shard sees exactly what a full private copy would show, but setting
//! one up costs nothing per PE of the machine. During the phase a
//! shard:
//!
//! * mutates only its own node,
//! * reads other nodes' memory bytes through shared [`MemArena`] handles
//!   (safe: the BSP contract below),
//! * computes remote *timing* against its private view, and
//! * appends outbound effects — remote stores, DRAM touches, message
//!   deliveries, fetch&increment bumps, BLT deposits — to a per-shard
//!   log stamped with virtual time.
//!
//! When every shard has run, the logs are merged in deterministic order
//! — `(virtual time, source PE, issue sequence)` — and applied to the
//! real nodes. Because each shard's execution depends only on the phase
//! entry state, and the merge order is a pure function of the logs, the
//! result is **bit-identical whether the shards run sequentially or on
//! any number of threads**. [`PhaseDriver::Seq`] is therefore a true
//! oracle for [`PhaseDriver::Par`].
//!
//! # The contract
//!
//! The engine is exact for programs that follow the bulk-synchronous
//! discipline the paper's benchmarks use (and [`crate::Spmd`] assumes):
//! within a phase, no node may read a location that another node writes
//! in the same phase — communication produced in phase *k* is consumed
//! in phase *k + 1*, after a barrier. Under that contract the sharded
//! engine differs from the direct engine only in second-order timing
//! (a shard sees other nodes' DRAM-page and shell-occupancy state as of
//! phase start rather than live). Those deviations are deterministic and
//! identical under both sharded drivers.
//!
//! Two operations are deliberately restricted inside a sharded phase:
//! `atomic_swap` on a *remote* PE panics (swap-based locks serialize by
//! nature; take them through [`Machine`] directly), and a remote
//! `fetch_inc` returns the phase-start value plus this shard's own
//! increments — concurrent increments from *other* shards are merged
//! afterwards, so tickets are only unique per shard within one phase.

use crate::config::MachineConfig;
use crate::cpu::Cpu;
use crate::machine::{link_occupancy_cy, BltHandle, Machine};
use crate::node::{Node, NodeHot, OpStats};
use crate::ops::MachineOps;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;
use t3d_memsys::{Dram, MemArena, RemoteSink, WriteTarget, MAX_LINE};
use t3d_perf::{CostClass, OpKind};
use t3d_shell::blt::BltDirection;
use t3d_shell::{AnnexEntry, FetchIncRegs, FuncCode, Message, PopError};
use t3d_torus::{subcube, Torus};

/// Which execution engine drives a sharded phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseDriver {
    /// Run the shards one after another on the calling thread (the
    /// determinism oracle).
    Seq,
    /// Run the shards on up to this many worker threads. `Par(1)` uses
    /// the sequential path; results are identical for every value.
    Par(usize),
}

impl PhaseDriver {
    /// Selects a driver from the `T3D_PAR` environment variable:
    ///
    /// * unset or `1` — parallel, one thread per available core;
    /// * `0` — sequential (shards still run through the sharded engine,
    ///   so results match the parallel driver bit for bit);
    /// * `N > 1` — parallel with `N` threads.
    ///
    /// Unparsable values fall back to the parallel default.
    pub fn from_env() -> Self {
        match std::env::var("T3D_PAR") {
            Err(_) => PhaseDriver::Par(Self::auto_threads()),
            Ok(s) => match s.trim() {
                "0" => PhaseDriver::Seq,
                "" | "1" => PhaseDriver::Par(Self::auto_threads()),
                n => PhaseDriver::Par(n.parse().unwrap_or_else(|_| Self::auto_threads())),
            },
        }
    }

    fn auto_threads() -> usize {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }

    fn threads_for(self, pes: usize) -> usize {
        match self {
            PhaseDriver::Seq => 1,
            PhaseDriver::Par(n) => n.clamp(1, pes.max(1)),
        }
    }
}

/// An outbound effect recorded by a shard, applied at merge time.
#[derive(Debug)]
enum Effect {
    /// A retired remote write: service the target's DRAM, update memory
    /// under the mask, invalidate the covered cache line, and log the
    /// data arrival `(time, bytes)` for `storeSync`. The line is carried
    /// inline, like the write-buffer entry it retired from; only its
    /// first `line` bytes are applied.
    Write {
        off: u64,
        data: [u8; MAX_LINE],
        mask: u64,
        arrival: (u64, u64),
    },
    /// A functional deposit (BLT): write bytes and invalidate covered
    /// lines, no DRAM timing.
    Poke { off: u64, data: Vec<u8> },
    /// Replay of a remote read's DRAM access (page-state evolution).
    DramTouch { off: u64 },
    /// A message delivery into the target's queue.
    Msg(Message),
    /// A fetch&increment bump of the target's register.
    FetchInc { reg: usize },
    /// Pure link-occupancy replay with no node-side effect (BLT reads:
    /// the stream holds its route but deposits locally).
    LinkReserve,
}

/// An [`Effect`] with the time that orders it in the merge. The rest of
/// its merge key — issuing PE and issue order — is where it sits: shard
/// `src`'s log, position `seq` (see [`MergeKey`]).
#[derive(Debug)]
struct TimedEffect {
    /// Virtual time at which the effect reaches the target.
    time: u64,
    /// Target PE.
    target: u32,
    /// Shell-occupancy replay `(ready, occupancy_cy)` for contention
    /// modeling, when the effect occupies the target's shell.
    busy: Option<(u64, u64)>,
    /// Link-occupancy replay `(ready, occupancy_cy)` for link-contention
    /// modeling: at merge time the dimension-order route `src -> target`
    /// is re-reserved against the global link clocks.
    link: Option<(u64, u64)>,
    eff: Effect,
}

/// Multiplicative (Fibonacci) hashing for the small integer keys — PE
/// and link ids — of a shard's overlays: one multiply per lookup.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A shard's copy-on-touch entries over one [`PhaseShared`] snapshot
/// table, keyed by PE or link id.
type Overlay<V> = HashMap<usize, V, BuildHasherDefault<IdHasher>>;

/// Read-only state shared by every shard of one phase.
struct PhaseShared {
    cfg: MachineConfig,
    torus: Torus,
    /// Every node's memory bytes (shared, interior-mutable).
    mems: Vec<Arc<MemArena>>,
    /// Phase-start snapshot of every node's DRAM timing state.
    dram: Vec<Dram>,
    /// Phase-start snapshot of every node's shell occupancy.
    busy: Vec<u64>,
    /// Phase-start snapshot of the per-link occupancy clocks.
    links: Vec<u64>,
    /// Phase-start snapshot of every node's fetch&increment registers.
    finc: Vec<FetchIncRegs>,
}

impl PhaseShared {
    fn capture(
        cfg: &MachineConfig,
        torus: &Torus,
        nodes: &[Node],
        hot: &[NodeHot],
        links: &[u64],
    ) -> Self {
        PhaseShared {
            cfg: *cfg,
            torus: torus.clone(),
            mems: nodes
                .iter()
                .map(|n| Arc::clone(n.port.mem_arena()))
                .collect(),
            dram: nodes.iter().map(|n| n.port.dram().clone()).collect(),
            busy: hot.iter().map(|h| h.shell_busy_until).collect(),
            links: links.to_vec(),
            finc: nodes.iter().map(|n| n.fetchinc.clone()).collect(),
        }
    }
}

/// One PE's shard of a sharded phase: a [`MachineOps`] backend that owns
/// its node exclusively and logs outbound effects.
///
/// All operations must name this shard's own PE (except the explicit
/// `target_pe` of `fetch_inc`, BLT transfers and `msg_send`, and
/// annex-translated loads and stores, which are the point).
pub struct PhasePe<'a> {
    pe: usize,
    node: &'a mut Node,
    /// This PE's hot scalars (clock, shell occupancy), owned exclusively
    /// for the phase like the node itself.
    hot: &'a mut NodeHot,
    sh: &'a PhaseShared,
    /// Private evolution of the remote nodes' DRAM timing this shard has
    /// touched, each seeded from the phase-start snapshot on first touch.
    rdram: Overlay<Dram>,
    /// Private evolution of the remote shell occupancies touched.
    rbusy: Overlay<u64>,
    /// Private evolution of the link-occupancy clocks touched.
    rlink: Overlay<u64>,
    /// This shard's own increments of remote fetch&increment registers.
    finc_bumps: Overlay<[u64; 2]>,
    /// Outbound effects in issue order.
    effects: Vec<TimedEffect>,
}

impl<'a> PhasePe<'a> {
    fn new(pe: usize, node: &'a mut Node, hot: &'a mut NodeHot, sh: &'a PhaseShared) -> Self {
        PhasePe {
            pe,
            node,
            hot,
            sh,
            rdram: Overlay::default(),
            rbusy: Overlay::default(),
            rlink: Overlay::default(),
            finc_bumps: Overlay::default(),
            effects: Vec::new(),
        }
    }

    /// This shard's view of remote `target`'s DRAM timing, for an access:
    /// copied from the phase-start snapshot on first touch.
    fn rdram_mut(&mut self, target: usize) -> &mut Dram {
        let sh = self.sh;
        self.rdram
            .entry(target)
            .or_insert_with(|| sh.dram[target].clone())
    }

    /// This shard's view of remote `target`'s DRAM timing, for a peek:
    /// the overlay entry if touched, else the snapshot (nothing copied).
    fn rdram(&self, target: usize) -> &Dram {
        self.rdram.get(&target).unwrap_or(&self.sh.dram[target])
    }

    #[inline]
    fn own(&self, pe: usize) {
        assert_eq!(
            pe, self.pe,
            "a sharded phase closure may only drive its own PE (got {pe}, shard owns {})",
            self.pe
        );
    }

    fn split(&self, va: u64) -> (usize, u64) {
        t3d_shell::annex::split_pa(va, self.sh.cfg.mem.offset_bits)
    }

    fn line_mask(&self) -> u64 {
        self.sh.cfg.mem.l1.line as u64 - 1
    }

    /// Mirrors `Machine::rtt_cy`: exactly twice the rounded one-way
    /// latency (not the rounded double), keeping Seq/Par bit-identical.
    fn rtt(&self, b: usize) -> u64 {
        2 * self.one_way(b)
    }

    fn one_way(&self, b: usize) -> u64 {
        self.sh.torus.one_way_cy(self.pe as u32, b as u32).round() as u64
    }

    /// The shard-local mirror of `Machine::contend`: queueing against the
    /// real occupancy for this shard's own shell, against the private
    /// view for a remote one.
    fn contend(&mut self, target: usize, ready: u64, occupancy_cy: u64) -> u64 {
        if !self.sh.cfg.contention {
            return 0;
        }
        let busy = if target == self.pe {
            &mut self.hot.shell_busy_until
        } else {
            self.rbusy.entry(target).or_insert(self.sh.busy[target])
        };
        let start = ready.max(*busy);
        *busy = start + occupancy_cy;
        start - ready
    }

    /// The shard-local mirror of `Machine::link_contend`: queueing on the
    /// dimension-order route against the private view of the phase-start
    /// link clocks. The reservation is replayed against the global link
    /// clocks at merge time via [`TimedEffect::link`].
    fn link_contend(&mut self, target: usize, ready: u64, occupancy_cy: u64) -> u64 {
        if !self.sh.cfg.link_contention || target == self.pe {
            return 0;
        }
        let links = &self.sh.links;
        let walk = self.sh.torus.walk(self.pe as u32, target as u32);
        let start = walk.clone().fold(ready, |s, (_, l)| {
            s.max(*self.rlink.get(&l).unwrap_or(&links[l]))
        });
        for (_, l) in walk {
            self.rlink.insert(l, start + occupancy_cy);
        }
        start - ready
    }

    fn push(
        &mut self,
        time: u64,
        target: usize,
        busy: Option<(u64, u64)>,
        link: Option<(u64, u64)>,
        eff: Effect,
    ) {
        self.effects.push(TimedEffect {
            time,
            target: target as u32,
            busy,
            link,
            eff,
        });
    }

    /// Reads target memory bytes functionally: own port for the own PE,
    /// the shared arena for a remote one.
    fn read_target_mem(&self, target: usize, off: u64, buf: &mut [u8]) {
        if target == self.pe {
            self.node.port.peek_mem(off, buf);
        } else {
            self.sh.mems[target].read(off, buf);
        }
    }

    fn poke_own(&mut self, off: u64, data: &[u8]) {
        self.node.port.poke_mem(off, data);
        let line = self.sh.cfg.mem.l1.line as u64;
        let mut a = off & !self.line_mask();
        while a < off + data.len() as u64 {
            self.node.port.l1_mut().invalidate(a);
            a += line;
        }
    }

    /// The shard-side mirror of `Machine::deliver_outbox`: remote writes
    /// retired by this node's write buffer become merge effects (the ack
    /// is registered source-side immediately, with the delivery timing
    /// computed against the private target snapshots).
    fn flush_outbox(&mut self) {
        let line = self.sh.cfg.mem.l1.line;
        while let Some(r) = self.node.port.pop_outbox() {
            let WriteTarget::Remote(sink) = r.target else {
                unreachable!("outbox only carries remote writes")
            };
            let target = sink.pe as usize;
            let bytes = r.mask.count_ones() as u64;
            if target == self.pe {
                let dram = self.node.port.service_remote_write(
                    sink.remote_line_pa,
                    &r.data[..line],
                    Some(r.mask),
                );
                let queue = self.contend(target, r.completion + sink.ack_rtt_cy / 2, dram + 5);
                let arrival = r.completion + sink.ack_rtt_cy / 2 + dram + queue;
                let ack = r.completion + sink.ack_rtt_cy + dram + queue;
                self.node.incoming.push((arrival, bytes));
                self.node.acks.expect_ack(ack);
            } else {
                let dram = self.rdram_mut(target).access(sink.remote_line_pa);
                let ready = r.completion + sink.ack_rtt_cy / 2;
                let lqueue = self.link_contend(target, ready, link_occupancy_cy(bytes));
                let queue = self.contend(target, ready + lqueue, dram + 5);
                let arrival = ready + lqueue + dram + queue;
                let ack = r.completion + sink.ack_rtt_cy + lqueue + dram + queue;
                self.push(
                    arrival,
                    target,
                    Some((ready + lqueue, dram + 5)),
                    Some((ready, link_occupancy_cy(bytes))),
                    Effect::Write {
                        off: sink.remote_line_pa,
                        data: r.data,
                        mask: r.mask,
                        arrival: (arrival, bytes),
                    },
                );
                self.node.acks.expect_ack(ack);
            }
        }
    }

    fn into_effects(self) -> Vec<TimedEffect> {
        self.effects
    }
}

impl MachineOps for PhasePe<'_> {
    fn nodes(&self) -> usize {
        self.sh.mems.len()
    }

    fn cycle_ns(&self) -> f64 {
        self.sh.cfg.cycle_ns()
    }

    fn offset_bits(&self) -> u32 {
        self.sh.cfg.mem.offset_bits
    }

    fn node(&self, pe: usize) -> &Node {
        self.own(pe);
        self.node
    }

    fn node_mut(&mut self, pe: usize) -> &mut Node {
        self.own(pe);
        self.node
    }

    fn clock(&self, pe: usize) -> u64 {
        self.own(pe);
        self.hot.clock
    }

    fn advance(&mut self, pe: usize, cycles: u64) {
        self.own(pe);
        self.hot.clock += cycles;
        self.node.perf.credit(CostClass::Compute, cycles);
    }

    fn annex_set(&mut self, pe: usize, idx: usize, entry: AnnexEntry) {
        self.own(pe);
        assert!(
            (entry.pe as usize) < self.sh.mems.len(),
            "annex target PE {} does not exist",
            entry.pe
        );
        let cost = self.node.annex.update(idx, entry);
        self.hot.clock += cost;
        self.node.perf.credit(CostClass::AnnexUpdate, cost);
    }

    fn annex_entry(&self, pe: usize, idx: usize) -> AnnexEntry {
        self.own(pe);
        self.node.annex.entry(idx)
    }

    fn ld(&mut self, pe: usize, va: u64, buf: &mut [u8]) {
        self.own(pe);
        let (aidx, off) = self.split(va);
        if aidx == 0 {
            self.node.ops.loads_local += 1;
            let now = self.hot.clock;
            let cost = self.node.port.read(now, va, buf);
            self.hot.clock = now + cost;
            self.node.perf.sample(OpKind::LdLocal, cost);
            self.flush_outbox();
            return;
        }
        let line_pa = va & !self.line_mask();
        assert!(
            (va - line_pa) as usize + buf.len() <= self.sh.cfg.mem.l1.line,
            "remote load must not cross a cache line"
        );
        self.node.ops.loads_remote += 1;
        let entry = self.node.annex.entry(aidx);
        let target = entry.pe as usize;
        let now = self.hot.clock;
        self.node.port.apply_due(now);
        self.flush_outbox();

        let mut cost = self.node.port.tlb_access(va);
        if let Some(line) = self.node.port.l1().lookup(va) {
            let o = (va - line_pa) as usize;
            buf.copy_from_slice(&line[o..o + buf.len()]);
            self.hot.clock = now + cost + self.sh.cfg.mem.l1.hit_cy;
            let hit = self.sh.cfg.mem.l1.hit_cy;
            self.node.perf.credit(CostClass::L1Hit, hit);
            self.node.perf.sample(OpKind::LdRemote, cost + hit);
            return;
        }
        let shell = self.sh.cfg.shell;
        if entry.func == FuncCode::Cached {
            let line_off = off & !self.line_mask();
            let mut line = [0u8; MAX_LINE];
            let line_buf = &mut line[..self.sh.cfg.mem.l1.line];
            let occ = link_occupancy_cy(self.sh.cfg.mem.l1.line as u64);
            let (dram, queue, lqueue);
            if target == self.pe {
                dram = self.node.port.service_remote_read(line_off, line_buf);
                let ready = now + cost + shell.remote_read_shell_cy / 2 + self.one_way(target);
                lqueue = self.link_contend(target, ready, occ);
                queue = self.contend(target, ready + lqueue, dram + 5);
            } else {
                dram = self.rdram_mut(target).access(line_off);
                self.sh.mems[target].read(line_off, line_buf);
                let ready = now + cost + shell.remote_read_shell_cy / 2 + self.one_way(target);
                lqueue = self.link_contend(target, ready, occ);
                queue = self.contend(target, ready + lqueue, dram + 5);
                self.push(
                    ready,
                    target,
                    Some((ready + lqueue, dram + 5)),
                    Some((ready, occ)),
                    Effect::DramTouch { off: line_off },
                );
            }
            cost += shell.remote_read_shell_cy
                + shell.cached_read_extra_cy
                + self.rtt(target)
                + dram
                + queue
                + lqueue;
            let launch = shell.remote_read_shell_cy + shell.cached_read_extra_cy;
            let rtt = self.rtt(target);
            let p = &mut self.node.perf;
            p.credit(CostClass::ShellLaunch, launch);
            p.credit(CostClass::NetHop, rtt);
            p.credit(CostClass::RemoteDram, dram);
            p.credit(CostClass::Contention, queue + lqueue);
            if self.node.port.has_pending_line(line_pa) {
                self.node.port.forward_pending(line_pa, line_buf);
            }
            self.node.port.install_remote_line(line_pa, line_buf);
            let o = (va - line_pa) as usize;
            buf.copy_from_slice(&line_buf[o..o + buf.len()]);
        } else {
            debug_assert!(
                entry.func == FuncCode::Uncached,
                "annex function code {:?} is not a load flavour",
                entry.func
            );
            let occ = link_occupancy_cy(buf.len() as u64);
            let (dram, queue, lqueue);
            if target == self.pe {
                dram = self.node.port.service_remote_read(off, buf);
                let ready = now + cost + shell.remote_read_shell_cy / 2 + self.one_way(target);
                lqueue = self.link_contend(target, ready, occ);
                queue = self.contend(target, ready + lqueue, dram + 5);
            } else {
                dram = self.rdram_mut(target).access(off);
                self.sh.mems[target].read(off, buf);
                let ready = now + cost + shell.remote_read_shell_cy / 2 + self.one_way(target);
                lqueue = self.link_contend(target, ready, occ);
                queue = self.contend(target, ready + lqueue, dram + 5);
                self.push(
                    ready,
                    target,
                    Some((ready + lqueue, dram + 5)),
                    Some((ready, occ)),
                    Effect::DramTouch { off },
                );
            }
            cost += shell.remote_read_shell_cy + self.rtt(target) + dram + queue + lqueue;
            let rtt = self.rtt(target);
            let p = &mut self.node.perf;
            p.credit(CostClass::ShellLaunch, shell.remote_read_shell_cy);
            p.credit(CostClass::NetHop, rtt);
            p.credit(CostClass::RemoteDram, dram);
            p.credit(CostClass::Contention, queue + lqueue);
            // Our own pending stores to the same full PA forward.
            if self.node.port.has_pending_line(line_pa) {
                let mut line = [0u8; MAX_LINE];
                let line_buf = &mut line[..self.sh.cfg.mem.l1.line];
                let line_off = off & !self.line_mask();
                self.read_target_mem(target, line_off, line_buf);
                self.node.port.forward_pending(line_pa, line_buf);
                let o = (va - line_pa) as usize;
                buf.copy_from_slice(&line_buf[o..o + buf.len()]);
            }
        }
        self.hot.clock = now + cost;
        self.node.perf.sample(OpKind::LdRemote, cost);
    }

    fn st(&mut self, pe: usize, va: u64, bytes: &[u8]) {
        self.own(pe);
        let (aidx, off) = self.split(va);
        let now = self.hot.clock;
        let cost = if aidx == 0 {
            self.node.ops.stores_local += 1;
            self.node.port.write(now, va, bytes)
        } else {
            self.node.ops.stores_remote += 1;
            let entry = self.node.annex.entry(aidx);
            let target = entry.pe as usize;
            assert!(
                target < self.sh.mems.len(),
                "store to nonexistent PE {target}"
            );
            let line_off = off & !self.line_mask();
            let page_cy = if target == self.pe {
                self.node.port.dram().peek(line_off)
            } else {
                self.rdram(target).peek(line_off)
            };
            let page_penalty = page_cy.saturating_sub(self.sh.cfg.mem.dram.page_hit_cy);
            let sink = RemoteSink {
                pe: entry.pe,
                remote_line_pa: line_off,
                base_cy: self.sh.cfg.shell.remote_write_base_cy + page_penalty,
                per_word_cy: self.sh.cfg.shell.remote_write_word_cy,
                ack_rtt_cy: self.sh.cfg.shell.write_ack_rtt_cy + self.rtt(target),
            };
            self.node
                .port
                .write_to(now, va, bytes, WriteTarget::Remote(sink))
        };
        self.hot.clock = now + cost;
        let kind_op = if aidx == 0 {
            OpKind::StLocal
        } else {
            OpKind::StRemote
        };
        self.node.perf.sample(kind_op, cost);
        self.flush_outbox();
    }

    fn memory_barrier(&mut self, pe: usize) {
        self.own(pe);
        self.node.ops.memory_barriers += 1;
        let cost = self.node.memory_barrier(self.hot);
        self.node.perf.sample(OpKind::Fence, cost);
        let t = self.hot.clock;
        self.node.prefetch.note_memory_barrier(t);
        self.flush_outbox();
    }

    fn poll_status(&mut self, pe: usize) -> bool {
        self.own(pe);
        let now = self.hot.clock;
        let (clear, cost) = self.node.acks.poll(now);
        self.hot.clock = now + cost;
        self.node.perf.credit(CostClass::AckWait, cost);
        clear
    }

    fn wait_write_acks(&mut self, pe: usize) {
        self.own(pe);
        self.node.ops.ack_waits += 1;
        let cost = self.node.wait_write_acks(self.hot);
        self.node.perf.sample(OpKind::AckWait, cost);
    }

    fn fetch(&mut self, pe: usize, va: u64) -> bool {
        self.own(pe);
        self.node.ops.fetches += 1;
        let (aidx, off) = self.split(va);
        let target = if aidx == 0 {
            pe
        } else {
            self.node.annex.entry(aidx).pe as usize
        };
        let now = self.hot.clock;
        let tlb = self.node.port.tlb_access(va);
        let mut buf = [0u8; 8];
        let dram;
        if target == self.pe {
            let clk = self.hot.clock;
            self.node.port.apply_due(clk);
            self.flush_outbox();
            dram = self.node.port.service_remote_read(off, &mut buf);
        } else {
            dram = self.rdram_mut(target).access(off);
            self.sh.mems[target].read(off, &mut buf);
        }
        let ready = now + tlb + self.sh.cfg.shell.prefetch_net_cy / 2 + self.one_way(target);
        let lqueue = self.link_contend(target, ready, link_occupancy_cy(8));
        let queue = self.contend(target, ready + lqueue, dram + 5);
        if target != self.pe {
            self.push(
                ready,
                target,
                Some((ready + lqueue, dram + 5)),
                Some((ready, link_occupancy_cy(8))),
                Effect::DramTouch { off },
            );
        }
        let latency = self.sh.cfg.shell.prefetch_net_cy + self.rtt(target) + dram + queue + lqueue;
        match self
            .node
            .prefetch
            .issue(now + tlb, u64::from_le_bytes(buf), latency)
        {
            Some(c) => {
                self.hot.clock = now + tlb + c;
                self.node.perf.credit(CostClass::PrefetchIssue, c);
                self.node.perf.sample(OpKind::Fetch, tlb + c);
                true
            }
            None => {
                self.hot.clock = now + tlb;
                self.node.perf.sample(OpKind::Fetch, tlb);
                false
            }
        }
    }

    fn pop_prefetch(&mut self, pe: usize) -> Result<u64, PopError> {
        self.own(pe);
        self.node.ops.pops += 1;
        let (value, cost) = self.node.pop_prefetch(self.hot)?;
        self.node.perf.sample(OpKind::Pop, cost);
        Ok(value)
    }

    fn blt_start(
        &mut self,
        pe: usize,
        dir: BltDirection,
        local_off: u64,
        target_pe: usize,
        remote_off: u64,
        bytes: u64,
    ) -> BltHandle {
        self.own(pe);
        self.node.ops.blts += 1;
        let mut data = vec![0u8; bytes as usize];
        let now = self.hot.clock;
        let timing = self.node.blt.start(now, dir, bytes);
        // The DMA stream holds its route from the moment it starts
        // injecting (after the OS startup stall) until the last byte.
        let inject = now + timing.startup_cy;
        let occ = link_occupancy_cy(bytes);
        let lqueue = self.link_contend(target_pe, inject, occ);
        let completion = now + timing.total_cy() + lqueue;
        match dir {
            BltDirection::Read => {
                self.read_target_mem(target_pe, remote_off, &mut data);
                self.poke_own(local_off, &data);
                if self.sh.cfg.link_contention && target_pe != self.pe {
                    self.push(
                        inject,
                        target_pe,
                        None,
                        Some((inject, occ)),
                        Effect::LinkReserve,
                    );
                }
            }
            BltDirection::Write => {
                self.node.port.peek_mem(local_off, &mut data);
                if target_pe == self.pe {
                    self.poke_own(remote_off, &data);
                } else {
                    self.push(
                        completion,
                        target_pe,
                        None,
                        Some((inject, occ)),
                        Effect::Poke {
                            off: remote_off,
                            data,
                        },
                    );
                }
            }
        }
        self.hot.clock = now + timing.startup_cy;
        self.node
            .perf
            .credit(CostClass::BltStartup, timing.startup_cy);
        self.node.perf.sample(OpKind::BltStart, timing.startup_cy);
        BltHandle {
            completion,
            startup_cy: timing.startup_cy,
            stream_cy: timing.stream_cy,
        }
    }

    fn blt_start_strided(
        &mut self,
        pe: usize,
        dir: BltDirection,
        local_off: u64,
        target_pe: usize,
        remote_off: u64,
        count: u64,
        elem_bytes: u64,
        stride_bytes: u64,
    ) -> BltHandle {
        self.own(pe);
        self.node.ops.blts += 1;
        assert!(count > 0 && elem_bytes > 0, "strided BLT must move data");
        assert!(
            stride_bytes >= elem_bytes,
            "stride must not overlap elements"
        );
        let now = self.hot.clock;
        let mut elem = vec![0u8; elem_bytes as usize];
        let mut extra = 0u64;
        let mut deposits: Vec<(u64, Vec<u8>)> = Vec::new();
        for i in 0..count {
            let r_off = remote_off + i * stride_bytes;
            let l_off = local_off + i * elem_bytes;
            match dir {
                BltDirection::Read => {
                    self.read_target_mem(target_pe, r_off, &mut elem);
                    self.poke_own(l_off, &elem);
                }
                BltDirection::Write => {
                    self.node.port.peek_mem(l_off, &mut elem);
                    if target_pe == self.pe {
                        self.poke_own(r_off, &elem);
                    } else {
                        deposits.push((r_off, elem.clone()));
                    }
                }
            }
            let line = r_off & !self.line_mask();
            let dram = if target_pe == self.pe {
                self.node.port.dram_mut().access(line)
            } else {
                let d = self.rdram_mut(target_pe).access(line);
                self.push(now, target_pe, None, None, Effect::DramTouch { off: line });
                d
            };
            extra += dram.saturating_sub(self.sh.cfg.mem.dram.page_hit_cy);
        }
        let timing = self.node.blt.start(now, dir, count * elem_bytes);
        let inject = now + timing.startup_cy;
        let occ = link_occupancy_cy(count * elem_bytes);
        let lqueue = self.link_contend(target_pe, inject, occ);
        let completion = now + timing.total_cy() + extra + lqueue;
        if self.sh.cfg.link_contention && target_pe != self.pe {
            self.push(
                inject,
                target_pe,
                None,
                Some((inject, occ)),
                Effect::LinkReserve,
            );
        }
        for (off, data) in deposits {
            self.push(
                completion,
                target_pe,
                None,
                None,
                Effect::Poke { off, data },
            );
        }
        self.hot.clock = now + timing.startup_cy;
        self.node
            .perf
            .credit(CostClass::BltStartup, timing.startup_cy);
        self.node.perf.sample(OpKind::BltStart, timing.startup_cy);
        BltHandle {
            completion,
            startup_cy: timing.startup_cy,
            stream_cy: timing.stream_cy + extra,
        }
    }

    fn blt_wait(&mut self, pe: usize, handle: BltHandle) {
        self.own(pe);
        let waited = self.node.blt_wait(self.hot, handle.completion);
        self.node.perf.sample(OpKind::BltWait, waited);
    }

    fn msg_send(&mut self, pe: usize, dst: usize, words: [u64; 4]) {
        self.own(pe);
        self.node.ops.msgs_sent += 1;
        self.hot.clock += self.sh.cfg.shell.msg_send_cy;
        let send_cy = self.sh.cfg.shell.msg_send_cy;
        self.node.perf.credit(CostClass::MsgSend, send_cy);
        self.node.perf.sample(OpKind::MsgSend, send_cy);
        let sent = self.hot.clock;
        let lqueue = self.link_contend(dst, sent, link_occupancy_cy(32));
        let arrival = sent + lqueue + self.one_way(dst);
        let msg = Message {
            from: pe as u32,
            words,
            arrival,
        };
        if dst == self.pe {
            self.node.msgq.deliver(msg);
        } else {
            self.push(
                arrival,
                dst,
                None,
                Some((sent, link_occupancy_cy(32))),
                Effect::Msg(msg),
            );
        }
    }

    fn msg_receive(&mut self, pe: usize) -> Option<Message> {
        self.own(pe);
        let now = self.hot.clock;
        self.node.ops.msgs_received += 1;
        let (msg, cost) = self.node.msgq.receive(now)?;
        self.hot.clock = now + cost;
        self.node.perf.credit(CostClass::MsgRecv, cost);
        self.node.perf.sample(OpKind::MsgRecv, cost);
        Some(msg)
    }

    fn fetch_inc(&mut self, pe: usize, target_pe: usize, reg: usize) -> u64 {
        self.own(pe);
        self.node.ops.atomics += 1;
        let now = self.hot.clock;
        let shell = self.sh.cfg.shell;
        let one_way = self.one_way(target_pe);
        let rtt = 2 * one_way;
        let ready = now + shell.remote_read_shell_cy / 2 + one_way;
        let lqueue = self.link_contend(target_pe, ready, link_occupancy_cy(8));
        let queue = self.contend(target_pe, ready + lqueue, 20);
        let cost = shell.remote_read_shell_cy + rtt + shell.amo_extra_cy + queue + lqueue;
        self.hot.clock += cost;
        let p = &mut self.node.perf;
        p.credit(CostClass::ShellLaunch, shell.remote_read_shell_cy);
        p.credit(CostClass::NetHop, rtt);
        p.credit(CostClass::Amo, shell.amo_extra_cy);
        p.credit(CostClass::Contention, queue + lqueue);
        p.sample(OpKind::FetchInc, cost);
        if target_pe == self.pe {
            self.node.fetchinc.fetch_inc(reg)
        } else {
            let bumps = self.finc_bumps.entry(target_pe).or_default();
            let value = self.sh.finc[target_pe].get(reg) + bumps[reg];
            bumps[reg] += 1;
            self.push(
                ready,
                target_pe,
                Some((ready + lqueue, 20)),
                Some((ready, link_occupancy_cy(8))),
                Effect::FetchInc { reg },
            );
            value
        }
    }

    fn swap_load(&mut self, pe: usize, value: u64) {
        self.own(pe);
        self.node.swap.load(value);
    }

    fn atomic_swap(&mut self, pe: usize, va: u64) -> u64 {
        self.own(pe);
        self.node.ops.atomics += 1;
        let (aidx, off) = self.split(va);
        let target = if aidx == 0 {
            pe
        } else {
            let entry = self.node.annex.entry(aidx);
            assert_eq!(
                entry.func,
                FuncCode::Swap,
                "annex entry must select the swap flavour"
            );
            entry.pe as usize
        };
        assert_eq!(
            target, self.pe,
            "atomic_swap on a remote PE is not supported inside a sharded phase \
             (swap-based locks serialize; take them through the direct engine)"
        );
        let clk = self.hot.clock;
        self.node.port.apply_due(clk);
        self.flush_outbox();
        let mut buf = [0u8; 8];
        let dram = self.node.port.service_remote_read(off, &mut buf);
        let old_mem = u64::from_le_bytes(buf);
        let to_mem = self.node.swap.exchange(old_mem);
        self.node
            .port
            .service_remote_write(off, &to_mem.to_le_bytes(), None);
        let now = self.hot.clock;
        let shell = self.sh.cfg.shell;
        let ready = now + shell.remote_read_shell_cy / 2 + self.one_way(target);
        let lqueue = self.link_contend(target, ready, link_occupancy_cy(8));
        let queue = self.contend(target, ready + lqueue, dram + 20);
        let cost = shell.remote_read_shell_cy
            + self.rtt(target)
            + shell.amo_extra_cy
            + dram
            + queue
            + lqueue;
        self.hot.clock += cost;
        let rtt = self.rtt(target);
        let p = &mut self.node.perf;
        p.credit(CostClass::ShellLaunch, shell.remote_read_shell_cy);
        p.credit(CostClass::NetHop, rtt);
        p.credit(CostClass::Amo, shell.amo_extra_cy);
        p.credit(CostClass::RemoteDram, dram);
        p.credit(CostClass::Contention, queue + lqueue);
        p.sample(OpKind::Swap, cost);
        old_mem
    }

    fn peek_mem(&self, pe: usize, off: u64, buf: &mut [u8]) {
        self.read_target_mem(pe, off, buf);
    }

    fn poke_mem(&mut self, pe: usize, off: u64, bytes: &[u8]) {
        assert_eq!(
            pe, self.pe,
            "poke_mem on a remote PE is not supported inside a sharded phase \
             (it could not invalidate the target's cache deterministically)"
        );
        self.poke_own(off, bytes);
    }

    fn op_stats(&self, pe: usize) -> OpStats {
        self.own(pe);
        self.node.ops
    }

    fn arrival_time_of(&self, pe: usize, target_bytes: u64) -> Option<u64> {
        self.own(pe);
        self.node.arrival_time_of(target_bytes)
    }

    fn clear_incoming(&mut self, pe: usize) {
        self.own(pe);
        self.node.incoming.clear();
    }

    fn as_machine(&mut self) -> Option<&mut Machine> {
        None
    }
}

fn run_shard<T>(
    pe: usize,
    node: &mut Node,
    hot: &mut NodeHot,
    sh: &PhaseShared,
    state: &mut T,
    f: &(impl Fn(&mut dyn MachineOps, usize, &mut T) + Sync),
) -> Vec<TimedEffect> {
    let mut shard = PhasePe::new(pe, node, hot, sh);
    f(&mut shard, pe, state);
    shard.into_effects()
}

/// Reorders `items` in place so position `i` holds the element that was
/// at `order[i]` (cycle-walking swaps, no scratch buffer of `T`).
fn permute_in_place<T>(items: &mut [T], order: &[usize]) {
    debug_assert_eq!(items.len(), order.len());
    let mut visited = vec![false; order.len()];
    for start in 0..order.len() {
        if visited[start] {
            continue;
        }
        let mut i = start;
        loop {
            visited[i] = true;
            let next = order[i];
            if next == start {
                break;
            }
            items.swap(i, next);
            i = next;
        }
    }
}

/// Merge key of one effect: `(time, src, seq)`, where `seq` is the
/// effect's position in shard `src`'s log — its issue order. The key is
/// unique and locates its effect, so the merge sorts these 16-byte keys
/// and never moves the effect records themselves.
type MergeKey = (u64, u32, u32);

/// The deterministic merge order of one phase's effects: every effect's
/// key, sorted. `logs[pe]` is shard `pe`'s log in issue order.
fn merge_order(logs: &[Vec<TimedEffect>]) -> Vec<MergeKey> {
    let mut keys = Vec::with_capacity(logs.iter().map(Vec::len).sum());
    for (pe, log) in logs.iter().enumerate() {
        let src = u32::try_from(pe).expect("PE id fits u32");
        let n = u32::try_from(log.len()).expect("shard log length fits u32");
        keys.extend(log.iter().zip(0..n).map(|(e, seq)| (e.time, src, seq)));
    }
    keys.sort_unstable();
    debug_assert!(
        keys.windows(2).all(|w| w[0] < w[1]),
        "merge keys must be strictly increasing"
    );
    keys
}

/// Runs the shards on `threads` workers and returns every shard's effect
/// log, indexed by PE.
fn run_parallel<T: Send>(
    nodes: &mut [Node],
    hot: &mut [NodeHot],
    states: &mut [T],
    sh: &PhaseShared,
    threads: usize,
    f: &(impl Fn(&mut dyn MachineOps, usize, &mut T) + Sync),
) -> Vec<Vec<TimedEffect>> {
    // Partition the torus into canonical sub-cubes — the same shapes the
    // gang scheduler allocates — and give each worker one sub-cube. A
    // worker's PEs are topological neighbours, so the snapshot lines its
    // shards touch stay hot within one worker instead of striding the
    // whole machine. The node/hot/state arrays are permuted into
    // sub-cube order for the duration of the phase (merge keys carry
    // real PE ids, so the permutation cannot affect results).
    let blocks = subcube::partition(sh.torus.config().dims, threads);
    let order: Vec<usize> = blocks
        .iter()
        .flat_map(|b| b.coords().into_iter().map(|c| sh.torus.node_of(c) as usize))
        .collect();
    debug_assert_eq!(order.len(), nodes.len());
    permute_in_place(nodes, &order);
    permute_in_place(hot, &order);
    permute_in_place(states, &order);
    let mut logs: Vec<Vec<TimedEffect>> = Vec::with_capacity(order.len());
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        let mut node_rest = &mut *nodes;
        let mut hot_rest = &mut *hot;
        let mut state_rest = &mut *states;
        let mut base = 0usize;
        for b in &blocks {
            let take = b.pes() as usize;
            let (nchunk, nrest) = node_rest.split_at_mut(take);
            let (hchunk, hrest) = hot_rest.split_at_mut(take);
            let (schunk, srest) = state_rest.split_at_mut(take);
            node_rest = nrest;
            hot_rest = hrest;
            state_rest = srest;
            let pes = &order[base..base + take];
            base += take;
            handles.push(s.spawn(move || {
                nchunk
                    .iter_mut()
                    .zip(hchunk.iter_mut())
                    .zip(schunk.iter_mut())
                    .zip(pes.iter())
                    .map(|(((node, hot), state), &pe)| run_shard(pe, node, hot, sh, state, f))
                    .collect::<Vec<_>>()
            }));
        }
        for h in handles {
            match h.join() {
                Ok(v) => logs.extend(v),
                Err(e) => std::panic::resume_unwind(e),
            }
        }
    });
    let mut inv = vec![0usize; order.len()];
    for (i, &o) in order.iter().enumerate() {
        inv[o] = i;
    }
    permute_in_place(nodes, &inv);
    permute_in_place(hot, &inv);
    permute_in_place(states, &inv);
    permute_in_place(&mut logs, &inv);
    logs
}

impl Machine {
    /// Runs one sharded SPMD phase: the closure runs once per PE against
    /// a [`Cpu`] bound to that PE's shard, sequentially or on threads
    /// per `driver` — the results are bit-identical either way.
    ///
    /// See the [module docs](self) for the execution model and the
    /// bulk-synchronous contract phase closures must follow.
    pub fn sharded_phase(&mut self, driver: PhaseDriver, f: impl Fn(&mut Cpu) + Sync) {
        let mut unit = vec![(); self.nodes()];
        self.sharded_phase_zip(driver, &mut unit, |ops, pe, ()| {
            let mut cpu = Cpu::new(ops, pe);
            f(&mut cpu);
        });
    }

    /// Runs one sharded SPMD phase with per-PE state: `states[pe]` is
    /// handed to the closure alongside PE `pe`'s shard. This is the
    /// building block runtimes (Split-C) use to carry their own per-node
    /// structures through a parallel phase.
    ///
    /// # Panics
    ///
    /// Panics if `states.len()` differs from the number of PEs.
    pub fn sharded_phase_zip<T: Send>(
        &mut self,
        driver: PhaseDriver,
        states: &mut [T],
        f: impl Fn(&mut dyn MachineOps, usize, &mut T) + Sync,
    ) {
        let n = self.nodes();
        assert_eq!(
            states.len(),
            n,
            "need exactly one state per PE ({} for {n} PEs)",
            states.len()
        );
        self.normalize_for_phase();
        let logs = {
            let (cfg, torus, nodes, hot, links) = self.phase_parts();
            let sh = PhaseShared::capture(cfg, torus, nodes, hot, links);
            let threads = driver.threads_for(n);
            if threads <= 1 {
                nodes
                    .iter_mut()
                    .zip(hot.iter_mut())
                    .zip(states.iter_mut())
                    .enumerate()
                    .map(|(pe, ((node, hot), state))| run_shard(pe, node, hot, &sh, state, &f))
                    .collect()
            } else {
                run_parallel(nodes, hot, states, &sh, threads, &f)
            }
        };
        self.apply_effects(&logs, &merge_order(&logs));
    }

    /// Applies the shards' effects to the real nodes in merge order
    /// (`keys`, from [`merge_order`]). Consecutive effects for the same
    /// target are applied as one run against a single node borrow, so a
    /// burst of effects landing on one PE (the common shape after the
    /// `(time, src, seq)` sort) resolves the node once per run instead
    /// of once per effect.
    fn apply_effects(&mut self, logs: &[Vec<TimedEffect>], keys: &[MergeKey]) {
        let contention = self.config().contention;
        let link_contention = self.config().link_contention;
        let line = self.config().mem.l1.line;
        let effect = |&(_, src, seq): &MergeKey| &logs[src as usize][seq as usize];
        for run in keys.chunk_by(|a, b| effect(a).target == effect(b).target) {
            let t = effect(&run[0]).target as usize;
            if link_contention {
                for key in run {
                    if let Some((ready, occ)) = effect(key).link {
                        self.replay_link(key.1 as usize, t, ready, occ);
                    }
                }
            }
            let (node, hot) = self.node_and_hot_mut(t);
            for key in run {
                apply_effect(node, hot, effect(key), line, contention);
            }
        }
    }
}

/// Applies one merged shard effect to its target node.
fn apply_effect(
    node: &mut Node,
    hot: &mut NodeHot,
    e: &TimedEffect,
    line: usize,
    contention: bool,
) {
    match &e.eff {
        Effect::Write {
            off,
            data,
            mask,
            arrival,
        } => {
            let _ = node
                .port
                .service_remote_write(*off, &data[..line], Some(*mask));
            node.incoming.push(*arrival);
        }
        Effect::Poke { off, data } => {
            node.port.poke_mem(*off, data);
            let line = line as u64;
            let mut a = off & !(line - 1);
            while a < off + data.len() as u64 {
                node.port.l1_mut().invalidate(a);
                a += line;
            }
        }
        Effect::DramTouch { off } => {
            let _ = node.port.dram_mut().access(*off);
        }
        Effect::Msg(msg) => node.msgq.deliver(*msg),
        Effect::FetchInc { reg } => {
            let _ = node.fetchinc.fetch_inc(*reg);
        }
        Effect::LinkReserve => {}
    }
    if contention {
        if let Some((ready, occ)) = e.busy {
            let start = ready.max(hot.shell_busy_until);
            hot.shell_busy_until = start + occ;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    fn fingerprint(m: &Machine) -> Vec<u64> {
        let mut fp = Vec::new();
        for pe in 0..m.nodes() {
            fp.push(m.clock(pe));
            let mut buf = vec![0u8; 4096];
            m.peek_mem(pe, 0, &mut buf);
            fp.push(buf.iter().fold(0u64, |h, &b| {
                h.wrapping_mul(1099511628211).wrapping_add(b as u64)
            }));
        }
        fp
    }

    /// A communication-heavy phase body: every PE stores a word to its
    /// right neighbour, fences, and reads a word from its left.
    fn exchange(cpu: &mut Cpu) {
        let pe = cpu.pe();
        let n = cpu.nodes();
        let right = ((pe + 1) % n) as u32;
        cpu.annex_set(1, right, t3d_shell::FuncCode::Uncached);
        let va = cpu.va(1, 0x1000);
        cpu.st8(va, (pe as u64) << 8);
        cpu.memory_barrier();
        cpu.wait_write_acks();
        cpu.annex_set(1, right, t3d_shell::FuncCode::Uncached);
        let _ = cpu.ld8(cpu.va(1, 0x2000));
    }

    #[test]
    fn seq_and_par_shards_are_bit_identical() {
        let run = |driver: PhaseDriver| {
            let mut m = Machine::new(MachineConfig::t3d(8));
            for _ in 0..3 {
                m.sharded_phase(driver, exchange);
                m.barrier_all();
            }
            fingerprint(&m)
        };
        let seq = run(PhaseDriver::Seq);
        for threads in [2, 3, 8] {
            assert_eq!(
                seq,
                run(PhaseDriver::Par(threads)),
                "parallel shards with {threads} threads diverged from the oracle"
            );
        }
    }

    #[test]
    fn link_contended_shards_stay_bit_identical() {
        // Link-contention timing rides the same effect-merge machinery:
        // queueing is computed against the phase-start link snapshot in
        // each shard and replayed at merge, so Seq remains a bit-exact
        // oracle for Par at any thread count.
        let run = |driver: PhaseDriver| {
            let mut cfg = MachineConfig::t3d(8);
            cfg.link_contention = true;
            let mut m = Machine::new(cfg);
            for _ in 0..2 {
                m.sharded_phase(driver, exchange);
                m.barrier_all();
            }
            fingerprint(&m)
        };
        let seq = run(PhaseDriver::Seq);
        for threads in [2, 3, 8] {
            assert_eq!(
                seq,
                run(PhaseDriver::Par(threads)),
                "link-contended shards with {threads} threads diverged"
            );
        }
    }

    #[test]
    fn sharded_writes_land_after_merge() {
        let mut m = Machine::new(MachineConfig::t3d(4));
        m.sharded_phase(PhaseDriver::Par(4), |cpu| {
            let right = ((cpu.pe() + 1) % cpu.nodes()) as u32;
            cpu.annex_set(1, right, t3d_shell::FuncCode::Uncached);
            let va = cpu.va(1, 0x500);
            cpu.st8(va, 7000 + cpu.pe() as u64);
            cpu.memory_barrier();
            cpu.wait_write_acks();
        });
        for pe in 0..4usize {
            let left = (pe + 3) % 4;
            assert_eq!(m.peek8(pe, 0x500), 7000 + left as u64);
        }
    }

    #[test]
    fn sharded_messages_and_fetch_inc_merge() {
        let mut m = Machine::new(MachineConfig::t3d(4));
        m.sharded_phase(PhaseDriver::Par(2), |cpu| {
            let pe = cpu.pe();
            if pe != 0 {
                // Everyone takes a ticket at PE 0 and messages it.
                let _ = cpu.fetch_inc(0, 0);
                cpu.msg_send(0, [pe as u64, 0, 0, 0]);
            }
        });
        assert_eq!(m.node(0).fetchinc.get(0), 3, "three merged increments");
        m.advance(0, 1_000_000);
        let mut froms = Vec::new();
        while let Some(msg) = m.msg_receive(0) {
            froms.push(msg.from);
        }
        froms.sort_unstable();
        assert_eq!(froms, vec![1, 2, 3]);
    }

    #[test]
    fn sharded_phase_matches_on_fetch_and_blt() {
        let body = |cpu: &mut Cpu| {
            let pe = cpu.pe();
            let n = cpu.nodes();
            let right = ((pe + 1) % n) as u32;
            cpu.annex_set(1, right, t3d_shell::FuncCode::Uncached);
            for i in 0..4u64 {
                cpu.fetch(cpu.va(1, 0x3000 + i * 8));
            }
            cpu.memory_barrier();
            for _ in 0..4 {
                let _ = cpu.pop_prefetch();
            }
            let h = cpu.blt_start(
                t3d_shell::blt::BltDirection::Write,
                0x4000,
                right as usize,
                0x5000,
                256,
            );
            cpu.blt_wait(h);
        };
        let run = |driver: PhaseDriver| {
            let mut m = Machine::new(MachineConfig::t3d(4));
            for pe in 0..4 {
                for i in 0..32u64 {
                    m.poke8(pe, 0x4000 + i * 8, (pe as u64) * 1000 + i);
                }
            }
            m.sharded_phase(driver, body);
            m.barrier_all();
            fingerprint(&m)
        };
        assert_eq!(run(PhaseDriver::Seq), run(PhaseDriver::Par(4)));
    }

    /// Per-shard observations of [`isolation_phase`]: two remote load
    /// costs and two fetch&increment tickets.
    type Seen = [u64; 4];

    /// PEs 2 and 3 of a 4-PE (2×2×1) machine with shell and link
    /// contention each warm their TLB with a load from PE 0's bank 1,
    /// then load twice from one closed DRAM page on PE 0's bank 0 and
    /// take two tickets from PE 0's fetch&increment register 0 (5 at
    /// phase entry). Only the PEs in `active` run the body. Their routes
    /// to PE 0 share the (0,1,0)→(0,0,0) link.
    fn isolation_phase(driver: PhaseDriver, active: &[usize]) -> (Vec<Seen>, Vec<u64>) {
        let mut m = Machine::new(MachineConfig::t3d_link_contended(4));
        for _ in 0..5 {
            let _ = m.fetch_inc(1, 0, 0);
        }
        m.barrier_all();
        let mut seen = vec![Seen::default(); 4];
        m.sharded_phase_zip(driver, &mut seen, |ops, pe, seen| {
            if !active.contains(&pe) {
                return;
            }
            let mut cpu = Cpu::new(ops, pe);
            cpu.annex_set(1, 0, t3d_shell::FuncCode::Uncached);
            let _ = cpu.ld8(cpu.va(1, 0x4100));
            for (i, off) in [0x1000u64, 0x1008].into_iter().enumerate() {
                let t = cpu.clock();
                let _ = cpu.ld8(cpu.va(1, off));
                seen[i] = cpu.clock() - t;
            }
            seen[2] = cpu.fetch_inc(0, 0);
            seen[3] = cpu.fetch_inc(0, 0);
        });
        m.barrier_all();
        assert_eq!(
            m.node(0).fetchinc.get(0),
            5 + 2 * active.len() as u64,
            "every shard's tickets merge into the register"
        );
        (seen, fingerprint(&m))
    }

    #[test]
    fn shards_see_phase_entry_state_and_their_own_touches() {
        let dram = MachineConfig::t3d(4).mem.dram;
        let (both, fp) = isolation_phase(PhaseDriver::Seq, &[2, 3]);
        for pe in [2usize, 3] {
            let [first, second, t1, t2] = both[pe];
            // The second access sees the shard's own first one: the page
            // it opened, with no queueing behind its own reservations.
            assert_eq!(
                first - second,
                dram.page_miss_cy - dram.page_hit_cy,
                "PE {pe}: second load must hit the page the first opened"
            );
            assert_eq!((t1, t2), (5, 6), "PE {pe}: entry value, then its own bump");
            // The first access sees phase-entry state only: the shard
            // observes exactly what it observes running alone, whatever
            // the other shard touched first.
            let (alone, _) = isolation_phase(PhaseDriver::Seq, &[pe]);
            assert_eq!(both[pe], alone[pe], "PE {pe} saw another shard's touches");
        }
        assert_eq!(
            isolation_phase(PhaseDriver::Par(2), &[2, 3]),
            (both, fp),
            "Seq and Par(2) must give identical observations, clocks and memory"
        );
    }

    fn link_reserve(time: u64) -> TimedEffect {
        TimedEffect {
            time,
            target: 0,
            busy: None,
            link: None,
            eff: Effect::LinkReserve,
        }
    }

    #[test]
    fn merge_order_breaks_time_ties_by_source_then_issue_order() {
        // Three shard logs whose times tie across sources and, within a
        // source, across issue order. The keys must come out exactly in
        // the order a stable sort of the records by (time, src, seq)
        // gives.
        let times: [&[u64]; 3] = [&[5, 3, 5, 5], &[5, 5, 1], &[3, 5, 3, 9]];
        let logs: Vec<Vec<TimedEffect>> = times
            .iter()
            .map(|ts| ts.iter().map(|&t| link_reserve(t)).collect())
            .collect();
        let mut expect: Vec<(u64, u32, u32)> = Vec::new();
        for (src, ts) in times.iter().enumerate() {
            for (seq, &t) in ts.iter().enumerate() {
                expect.push((t, src as u32, seq as u32));
            }
        }
        expect.sort_by_key(|&(t, src, seq)| (t, src, seq));
        assert_eq!(merge_order(&logs), expect);
        assert_eq!(
            merge_order(&logs)[..4],
            [(1, 1, 2), (3, 0, 1), (3, 2, 0), (3, 2, 2)]
        );
    }

    /// PEs 1 and 2 — one hop from PE 0 each, with equal clocks — deposit
    /// overlapping strided BLT windows into PE 0 at the same time: every
    /// DRAM touch of one transfer ties on `(time, src)`, and the two
    /// transfers tie on `time`.
    fn tied_deposits(cpu: &mut Cpu) {
        let pe = cpu.pe();
        if pe == 1 || pe == 2 {
            for i in 0..8u64 {
                cpu.poke8(0x4000 + i * 8, (pe as u64) << 32 | i);
            }
            let h = cpu.blt_start_strided(
                t3d_shell::blt::BltDirection::Write,
                0x4000,
                0,
                0x6000,
                8,
                8,
                64,
            );
            cpu.blt_wait(h);
        }
    }

    #[test]
    fn tied_merge_keys_apply_identically_under_seq_and_par() {
        // The body really produces both kinds of tie.
        let mut m = Machine::new(MachineConfig::t3d(4));
        let logs = {
            let (cfg, torus, nodes, hot, links) = m.phase_parts();
            let sh = PhaseShared::capture(cfg, torus, nodes, hot, links);
            let f = |ops: &mut dyn MachineOps, pe: usize, (): &mut ()| {
                tied_deposits(&mut Cpu::new(ops, pe));
            };
            nodes
                .iter_mut()
                .zip(hot.iter_mut())
                .enumerate()
                .map(|(pe, (node, hot))| run_shard(pe, node, hot, &sh, &mut (), &f))
                .collect::<Vec<_>>()
        };
        let keys = merge_order(&logs);
        let tie_across_sources = keys
            .windows(2)
            .any(|w| w[0].0 == w[1].0 && w[0].1 != w[1].1);
        let tie_within_source = keys
            .windows(2)
            .any(|w| (w[0].0, w[0].1) == (w[1].0, w[1].1));
        assert!(tie_across_sources && tie_within_source, "{keys:?}");

        let run = |driver: PhaseDriver| {
            let mut m = Machine::new(MachineConfig::t3d(4));
            m.sharded_phase(driver, tied_deposits);
            m.barrier_all();
            let last: Vec<u64> = (0..8).map(|i| m.peek8(0, 0x6000 + i * 64)).collect();
            (fingerprint(&m), last)
        };
        let (seq, last) = run(PhaseDriver::Seq);
        assert_eq!((seq.clone(), last.clone()), run(PhaseDriver::Par(2)));
        // At equal time the higher source applies last, so PE 2 wins.
        assert_eq!(last, (0..8).map(|i| 2 << 32 | i).collect::<Vec<u64>>());
    }

    #[test]
    #[should_panic(expected = "may only drive its own PE")]
    fn shard_rejects_foreign_pe() {
        let mut m = Machine::new(MachineConfig::t3d(2));
        m.sharded_phase(PhaseDriver::Seq, |cpu| {
            if cpu.pe() == 0 {
                let _ = cpu.ops().clock(1);
            }
        });
    }

    #[test]
    fn driver_from_env_parses() {
        // No env mutation (tests run threaded): just exercise the
        // constructors and clamping.
        assert_eq!(PhaseDriver::Seq.threads_for(8), 1);
        assert_eq!(PhaseDriver::Par(0).threads_for(8), 1);
        assert_eq!(PhaseDriver::Par(64).threads_for(8), 8);
        assert_eq!(PhaseDriver::Par(3).threads_for(8), 3);
    }
}
