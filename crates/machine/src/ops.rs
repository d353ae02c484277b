//! The one op core both execution backends run.
//!
//! Every op — loads, stores, fences, prefetch, BLT, messages, atomics —
//! has exactly one body: a provided method of the crate-private
//! `OpCore` trait. [`Cpu`](crate::Cpu), the per-PE handle probes and
//! the Split-C runtime program against, holds `&mut dyn OpCore` and
//! calls it once per op. [`Machine`] calls it directly too, for its
//! barriers' fences and the three ops `perfbench` issues by a named
//! PE. A backend hands the core the state it may act on now and a
//! *remote-target policy*, which answers only "what happens at a PE
//! other than the issuer". The issuer's own node is acted on at once
//! under both.
//!
//! * **Live** — [`Machine`], the direct engine — acts on the target
//!   now: before a read it applies the target's due writes and delivers
//!   its outbox, it queues on the real shell and link clocks, services
//!   target DRAM, deposits data and messages, bumps the real
//!   fetch&increment register and performs a remote swap. Node closures
//!   run strictly one after another.
//! * **Logged** — [`PhasePe`](crate::phase::PhasePe), one PE's shard of
//!   a sharded phase — prices the target against copy-on-touch overlays
//!   of the phase-entry state and records each remote consequence as a
//!   `TimedEffect`; the phase merge applies the logs in a
//!   deterministic order. Shards are independent, so a phase can run
//!   its PEs on parallel threads bit-identically to running them in
//!   turn. This policy is where sharded-phase timing deviates from the
//!   direct engine (EXPERIMENTS.md, deviation 7).

use crate::config::MachineConfig;
use crate::machine::{BltHandle, Machine};
use crate::node::{Node, NodeHot};
use crate::oplog::{CpuOp, LogEntry};
use std::sync::Arc;
use t3d_memsys::{round_u64, Dram, MemArena, RemoteSink, WriteTarget, MAX_LINE};
use t3d_perf::{CostClass, OpKind};
use t3d_shell::blt::BltDirection;
use t3d_shell::{AnnexEntry, FuncCode, Message, PopError};
use t3d_torus::Torus;

/// Cycles a transfer of `bytes` occupies each link of its route: the
/// T3D moves two bytes per link per cycle, and even a one-byte request
/// holds the link for a cycle.
pub(crate) fn link_occupancy_cy(bytes: u64) -> u64 {
    bytes.div_ceil(2).max(1)
}

/// What an op leaves at a PE other than its issuer.
#[derive(Debug)]
pub(crate) enum Effect {
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
    /// A logged BLT deposit: write bytes and invalidate covered lines,
    /// no DRAM timing.
    Poke { off: u64, data: Vec<u8> },
    /// A remote read's DRAM access (page-state evolution).
    DramTouch { off: u64 },
    /// A message delivery into the target's queue.
    Msg(Message),
    /// A fetch&increment bump of the target's register.
    FetchInc { reg: usize },
    /// Pure link occupancy with no node-side effect (BLT reads: the
    /// stream holds its route but deposits locally).
    LinkReserve,
}

impl Effect {
    /// Lands the effect's deposit on its target: the write's arrival
    /// record, the BLT data, the message. DRAM, shell, link and
    /// fetch&increment state are priced apart from this — against a live
    /// target as the op runs, at the phase merge for a logged one.
    pub(crate) fn deposit(&self, node: &mut Node) {
        match self {
            Effect::Write {
                arrival: (t, bytes),
                ..
            } => node.note_arrival(*t, *bytes),
            Effect::Poke { off, data } => node.poke_and_invalidate(*off, data),
            Effect::Msg(msg) => node.msgq.deliver(*msg),
            Effect::DramTouch { .. } | Effect::FetchInc { .. } | Effect::LinkReserve => {}
        }
    }
}

/// An [`Effect`] with the time it reaches its target and the occupancy
/// it replays there. In a shard's log the time orders it in the phase
/// merge; the rest of its merge key — issuing PE and issue order — is
/// where it sits (shard `src`'s log, position `seq`).
#[derive(Debug)]
pub(crate) struct TimedEffect {
    /// Virtual time at which the effect reaches the target.
    pub(crate) time: u64,
    /// Target PE.
    pub(crate) target: u32,
    /// Shell-occupancy replay `(ready, occupancy_cy)` for contention
    /// modeling, when the effect occupies the target's shell.
    pub(crate) busy: Option<(u64, u64)>,
    /// Link-occupancy replay `(ready, occupancy_cy)` for link-contention
    /// modeling: the dimension-order route `src -> target` is reserved
    /// again against the global link clocks.
    pub(crate) link: Option<(u64, u64)>,
    /// What lands.
    pub(crate) eff: Effect,
}

/// A BLT write's deposit: `len` bytes of the issuer's memory at `src`
/// land at `dst` on `target`, reaching it at `time`. `link` is the
/// stream's link reservation `(inject, occupancy_cy)` when the deposit
/// carries it.
pub(crate) struct Deposit {
    pub(crate) target: usize,
    pub(crate) dst: u64,
    pub(crate) src: u64,
    pub(crate) len: u64,
    pub(crate) time: u64,
    pub(crate) link: Option<(u64, u64)>,
}

/// The one op core: every op's body, written once over a backend's
/// state and its remote-target policy (see the [module docs](self)).
///
/// The core never holds a node across a policy call — a `Live` read of
/// a remote target delivers that target's outbox, which can land writes
/// back in the issuer's node — so it reaches nodes through
/// [`parts`](Self::parts) afresh on each access.
pub(crate) trait OpCore {
    // ---- the state the core runs against --------------------------------

    /// The machine configuration.
    fn cfg(&self) -> &MachineConfig;
    /// The torus geometry.
    fn torus(&self) -> &Torus;
    /// Number of PEs.
    fn pe_count(&self) -> usize;
    /// A node and its hot record, to act on now: any PE under `Live`,
    /// only the shard's own under `Logged`.
    fn parts(&mut self, pe: usize) -> (&mut Node, &mut NodeHot);
    /// A node and its hot record, read-only: any PE under `Live`; under
    /// `Logged`, the shard's own, and a panic for any other.
    fn part(&self, pe: usize) -> (&Node, &NodeHot);
    /// The whole machine, when this backend is the direct engine.
    fn as_machine(&mut self) -> Option<&mut Machine> {
        None
    }
    /// Occupancy-until clock of directed link `l`.
    fn link_busy(&self, l: usize) -> u64;
    /// Sets directed link `l`'s occupancy-until clock.
    fn set_link_busy(&mut self, l: usize, until: u64);
    /// The op log calls append to: the machine's under `Live` (none
    /// while logging is off), the shard node's under `Logged` (read only
    /// while the phase logs).
    fn op_log(&mut self) -> Option<&mut Vec<LogEntry>>;

    // ---- the remote-target policy: `target` is never the issuer ---------

    /// `target`'s shell occupancy-until clock.
    fn remote_busy(&mut self, target: usize) -> &mut u64;
    /// `target`'s DRAM timing.
    fn remote_dram(&mut self, target: usize) -> &mut Dram;
    /// `target`'s memory bytes, to read functionally.
    fn remote_arena(&self, target: usize) -> &Arc<MemArena>;
    /// Serves a read request at `target`; returns its DRAM cycles.
    fn remote_read(&mut self, target: usize, off: u64, buf: &mut [u8]) -> u64;
    /// Serves a retired remote write at `target`; returns its DRAM
    /// cycles.
    fn remote_write(&mut self, target: usize, off: u64, data: &[u8], mask: u64) -> u64;
    /// Takes a ticket from `target`'s fetch&increment register `reg`.
    fn remote_fetch_inc(&mut self, target: usize, reg: usize) -> u64;
    /// Exchanges `pe`'s swap register with the word at `target`'s `off`;
    /// returns the old memory word and its DRAM cycles.
    fn remote_swap(&mut self, pe: usize, target: usize, off: u64) -> (u64, u64);
    /// Lands an effect on its target.
    fn remote_effect(&mut self, e: TimedEffect);
    /// Lands a BLT deposit of `pe`'s bytes on its target: at once,
    /// arena to arena, under `Live`; as a logged [`Effect::Poke`] of the
    /// bytes under `Logged`.
    fn remote_deposit(&mut self, pe: usize, d: Deposit);

    // ---- shared mechanisms ----------------------------------------------

    /// Applies `target`'s due writes and delivers its outbox, so a read
    /// of its memory sees them.
    fn settle(&mut self, target: usize) {
        let (node, hot) = self.parts(target);
        node.port.apply_due(hot.clock);
        self.deliver_outbox(target);
    }

    /// Serves a read request at a node acted on now.
    fn read_live(&mut self, target: usize, off: u64, buf: &mut [u8]) -> u64 {
        self.settle(target);
        self.parts(target).0.port.service_remote_read(off, buf)
    }

    /// An atomic swap at a node acted on now.
    fn swap_live(&mut self, pe: usize, target: usize, off: u64) -> (u64, u64) {
        let mut buf = [0u8; 8];
        let dram = self.read_live(target, off, &mut buf);
        let old_mem = u64::from_le_bytes(buf);
        let to_mem = self.parts(pe).0.swap.exchange(old_mem);
        let port = &mut self.parts(target).0.port;
        port.service_remote_write(off, &to_mem.to_le_bytes(), None);
        (old_mem, dram)
    }

    /// `target`'s shell clock as `pe` sees it.
    fn busy(&mut self, pe: usize, target: usize) -> &mut u64 {
        if target == pe {
            &mut self.parts(pe).1.shell_busy_until
        } else {
            self.remote_busy(target)
        }
    }

    /// `target`'s DRAM timing as `pe` sees it.
    fn dram(&mut self, pe: usize, target: usize) -> &mut Dram {
        if target == pe {
            self.parts(pe).0.port.dram_mut()
        } else {
            self.remote_dram(target)
        }
    }

    /// `target`'s memory bytes as `pe` sees them.
    fn arena(&mut self, pe: usize, target: usize) -> Arc<MemArena> {
        Arc::clone(if target == pe {
            self.parts(pe).0.port.mem_arena()
        } else {
            self.remote_arena(target)
        })
    }

    /// Lands a BLT deposit of `pe`'s: on its own node at once, elsewhere
    /// by the policy.
    fn deposit(&mut self, pe: usize, d: Deposit) {
        if d.target == pe {
            let src = self.arena(pe, pe);
            self.parts(pe).0.deposit_from(d.dst, &src, d.src, d.len);
        } else {
            self.remote_deposit(pe, d);
        }
    }

    /// Lands an effect of `pe`'s op: on its own node at once, elsewhere
    /// by the policy.
    fn effect(&mut self, pe: usize, e: TimedEffect) {
        if e.target as usize == pe {
            e.eff.deposit(self.parts(pe).0);
        } else {
            self.remote_effect(e);
        }
    }

    /// Integer one-way latency `a -> b`. A round trip is charged as
    /// exactly twice this, even when the fractional one-way lands on a
    /// half cycle (2.5 rounds to 3, and the round trip is 6, not
    /// `5.0.round()`); each op computes it once and doubles it.
    fn one_way(&self, a: usize, b: usize) -> u64 {
        round_u64(self.torus().one_way_cy(a as u32, b as u32))
    }

    /// Queueing delay at `target`'s shell for a request from `pe` that
    /// becomes eligible at `ready` and occupies the shell for
    /// `occupancy_cy`. Zero unless contention modeling is enabled.
    fn contend(&mut self, pe: usize, target: usize, ready: u64, occupancy_cy: u64) -> u64 {
        if !self.cfg().contention {
            return 0;
        }
        let busy = self.busy(pe, target);
        let start = ready.max(*busy);
        *busy = start + occupancy_cy;
        start - ready
    }

    /// Queueing delay on the dimension-order route `pe -> target` for a
    /// transfer that reaches the network at `ready` and occupies each
    /// route link for `occupancy_cy` (its bytes at two per cycle). The
    /// transfer waits for the hottest link of its route to clear, then
    /// holds every link of the route until it finishes: one pass over
    /// the route's links takes the max of their clocks, a second sets
    /// them. The links come from the issuer's route memo, which derives
    /// them from [`Torus::link_runs`] only when the target changes. The
    /// memo is taken out of `pe`'s node for the two passes and put back,
    /// so nothing allocates. Zero unless link contention modeling is
    /// enabled.
    fn link_contend(&mut self, pe: usize, target: usize, ready: u64, occupancy_cy: u64) -> u64 {
        if !self.cfg().link_contention || pe == target {
            return 0;
        }
        let mut memo = std::mem::take(&mut self.parts(pe).0.route);
        let start = memo.fold(self.torus(), pe as u32, target as u32, ready, |s, l| {
            s.max(self.link_busy(l))
        });
        for &l in memo.links() {
            self.set_link_busy(l as usize, start + occupancy_cy);
        }
        self.parts(pe).0.route = memo;
        start - ready
    }

    /// Serves a read of `buf.len()` bytes at `target`'s `off` whose
    /// request reaches the network at `ready`: DRAM, then link and shell
    /// queueing. Returns `(dram, queueing)` cycles.
    fn serve_read(
        &mut self,
        pe: usize,
        target: usize,
        off: u64,
        buf: &mut [u8],
        ready: u64,
    ) -> (u64, u64) {
        let occ = link_occupancy_cy(buf.len() as u64);
        let dram = if target == pe {
            self.read_live(target, off, buf)
        } else {
            self.remote_read(target, off, buf)
        };
        let lqueue = self.link_contend(pe, target, ready, occ);
        let queue = self.contend(pe, target, ready + lqueue, dram + 5);
        self.effect(
            pe,
            TimedEffect {
                time: ready,
                target: target as u32,
                busy: Some((ready + lqueue, dram + 5)),
                link: Some((ready, occ)),
                eff: Effect::DramTouch { off },
            },
        );
        (dram, queue + lqueue)
    }

    /// Delivers the remote writes `pe`'s write buffer has retired,
    /// charging target DRAM and scheduling acknowledgements. Returns at
    /// once when nothing has retired (almost every op).
    fn deliver_outbox(&mut self, pe: usize) {
        let line = self.cfg().mem.l1.line;
        while let Some(r) = self.parts(pe).0.port.pop_outbox() {
            let WriteTarget::Remote(sink) = r.target else {
                unreachable!("outbox only carries remote writes")
            };
            let (target, off) = (sink.pe as usize, sink.remote_line_pa);
            let dram = if target == pe {
                let port = &mut self.parts(pe).0.port;
                port.service_remote_write(off, &r.data[..line], Some(r.mask))
            } else {
                self.remote_write(target, off, &r.data[..line], r.mask)
            };
            let bytes = u64::from(r.mask.count_ones());
            let occ = link_occupancy_cy(bytes);
            let ready = r.completion + sink.ack_rtt_cy / 2;
            let lqueue = self.link_contend(pe, target, ready, occ);
            let queue = self.contend(pe, target, ready + lqueue, dram + 5);
            let arrival = ready + lqueue + dram + queue;
            let ack = r.completion + sink.ack_rtt_cy + lqueue + dram + queue;
            self.effect(
                pe,
                TimedEffect {
                    time: arrival,
                    target: sink.pe,
                    busy: Some((ready + lqueue, dram + 5)),
                    link: Some((ready, occ)),
                    eff: Effect::Write {
                        off,
                        data: r.data,
                        mask: r.mask,
                        arrival: (arrival, bytes),
                    },
                },
            );
            self.parts(pe).0.acks.expect_ack(ack);
        }
    }

    /// Records an op of `pe`'s that retired having begun at `start`, the
    /// one place an op is recorded: it counts the op under `kind` and,
    /// when profiling is on, samples `kind`'s latency lane with the
    /// cycles since `start`.
    #[inline]
    fn retire(&mut self, pe: usize, kind: OpKind, start: u64) {
        let (node, hot) = self.parts(pe);
        node.ops[kind] += 1;
        node.perf.sample(kind, hot.clock - start);
    }

    /// Logs a call of `pe`'s that began at `start`, while the machine
    /// logs (see [`crate::oplog`]).
    fn log_op(&mut self, pe: usize, op: CpuOp, start: u64) {
        let cycles = self.parts(pe).1.clock - start;
        if let Some(log) = self.op_log() {
            log.push(LogEntry {
                pe: pe as u32,
                op,
                start,
                cycles,
            });
        }
    }

    /// Records an op of `pe`'s that found nothing to do (a pop of an
    /// empty or unready queue, a receive with no message): it counts
    /// under `kind` but is not sampled.
    fn retire_empty(&mut self, pe: usize, kind: OpKind) {
        self.parts(pe).0.ops[kind] += 1;
    }

    /// Times the round trip of an atomic op `pe` sends `target` now,
    /// whose memory side takes `dram` cycles (0 for fetch&increment,
    /// served from a shell register): advances `pe`'s clock by the whole
    /// of it and credits the parts. Returns when the request reaches the
    /// network and how long it queued for its route.
    fn amo_round_trip(&mut self, pe: usize, target: usize, dram: u64) -> (u64, u64) {
        let shell = self.cfg().shell;
        let now = self.parts(pe).1.clock;
        let one_way = self.one_way(pe, target);
        let rtt = 2 * one_way;
        let ready = now + shell.remote_read_shell_cy / 2 + one_way;
        let lqueue = self.link_contend(pe, target, ready, link_occupancy_cy(8));
        let queue = self.contend(pe, target, ready + lqueue, dram + 20);
        let (node, hot) = self.parts(pe);
        hot.clock += shell.remote_read_shell_cy + rtt + shell.amo_extra_cy + dram + queue + lqueue;
        let p = &mut node.perf;
        p.credit(CostClass::ShellLaunch, shell.remote_read_shell_cy);
        p.credit(CostClass::NetHop, rtt);
        p.credit(CostClass::Amo, shell.amo_extra_cy);
        p.credit(CostClass::RemoteDram, dram);
        p.credit(CostClass::Contention, queue + lqueue);
        (ready, lqueue)
    }

    // ---- the ops ----------------------------------------------------------

    /// See [`crate::Cpu::advance`].
    fn advance(&mut self, pe: usize, cycles: u64) {
        let (node, hot) = self.parts(pe);
        hot.clock += cycles;
        node.perf.credit(CostClass::Compute, cycles);
    }

    /// See [`crate::Cpu::annex_set`].
    fn annex_set(&mut self, pe: usize, idx: usize, entry: AnnexEntry) {
        let target = entry.pe;
        assert!(
            (target as usize) < self.pe_count(),
            "annex target PE {target} does not exist"
        );
        let (node, hot) = self.parts(pe);
        let now = hot.clock;
        let cost = node.annex.update(idx, entry);
        hot.clock += cost;
        node.perf.credit(CostClass::AnnexUpdate, cost);
        self.retire(pe, OpKind::AnnexSet, now);
    }

    /// See [`crate::Cpu::ld`].
    fn ld(&mut self, pe: usize, va: u64, buf: &mut [u8]) {
        let (aidx, off) = t3d_shell::annex::split_pa(va, self.cfg().mem.offset_bits);
        let l1 = self.cfg().mem.l1;
        if aidx == 0 {
            let (node, hot) = self.parts(pe);
            let now = hot.clock;
            hot.clock = now + node.port.read(now, va, buf);
            self.deliver_outbox(pe);
            self.retire(pe, OpKind::LdLocal, now);
            return;
        }
        let line_mask = l1.line as u64 - 1;
        let line_pa = va & !line_mask;
        assert!(
            (va - line_pa) as usize + buf.len() <= l1.line,
            "remote load must not cross a cache line"
        );
        let (node, hot) = self.parts(pe);
        let entry = node.annex.entry(aidx);
        let target = entry.pe as usize;
        let now = hot.clock;
        // Push out anything due, so our own earlier stores can land.
        node.port.apply_due(now);
        self.deliver_outbox(pe);

        let (node, hot) = self.parts(pe);
        let mut cost = node.port.tlb_access(va);
        // A line previously brought over by a cached read may satisfy
        // this load entirely locally (and possibly stale!).
        if let Some(line) = node.port.l1().lookup(va) {
            let o = (va - line_pa) as usize;
            buf.copy_from_slice(&line[o..o + buf.len()]);
            hot.clock = now + cost + l1.hit_cy;
            node.perf.credit(CostClass::L1Hit, l1.hit_cy);
            self.retire(pe, OpKind::LdRemote, now);
            return;
        }
        let shell = self.cfg().shell;
        let cached = entry.func == FuncCode::Cached;
        debug_assert!(
            cached || entry.func == FuncCode::Uncached,
            "annex function code {:?} is not a load flavour",
            entry.func
        );
        let line_off = off & !line_mask;
        let mut line = [0u8; MAX_LINE];
        let line_buf = &mut line[..l1.line];
        // A cached read brings the whole line over; an uncached one just
        // the bytes asked for.
        let (req_off, req, launch) = if cached {
            let launch = shell.remote_read_shell_cy + shell.cached_read_extra_cy;
            (line_off, &mut *line_buf, launch)
        } else {
            (off, &mut *buf, shell.remote_read_shell_cy)
        };
        let one_way = self.one_way(pe, target);
        let ready = now + cost + shell.remote_read_shell_cy / 2 + one_way;
        let (dram, queue) = self.serve_read(pe, target, req_off, req, ready);
        let rtt = 2 * one_way;
        cost += launch + rtt + dram + queue;
        let p = &mut self.parts(pe).0.perf;
        p.credit(CostClass::ShellLaunch, launch);
        p.credit(CostClass::NetHop, rtt);
        p.credit(CostClass::RemoteDram, dram);
        p.credit(CostClass::Contention, queue);
        let o = (va - line_pa) as usize;
        if cached {
            let port = &mut self.parts(pe).0.port;
            if port.has_pending_line(line_pa) {
                port.forward_pending(line_pa, line_buf);
            }
            port.install_remote_line(line_pa, line_buf);
            buf.copy_from_slice(&line_buf[o..o + buf.len()]);
        } else if self.parts(pe).0.port.has_pending_line(line_pa) {
            // Our own pending stores to the same full PA forward.
            self.arena(pe, target).read(line_off, line_buf);
            self.parts(pe).0.port.forward_pending(line_pa, line_buf);
            buf.copy_from_slice(&line_buf[o..o + buf.len()]);
        }
        self.parts(pe).1.clock = now + cost;
        self.retire(pe, OpKind::LdRemote, now);
    }

    /// See [`crate::Cpu::st`].
    fn st(&mut self, pe: usize, va: u64, bytes: &[u8]) {
        let (aidx, off) = t3d_shell::annex::split_pa(va, self.cfg().mem.offset_bits);
        let (node, hot) = self.parts(pe);
        let now = hot.clock;
        let (cost, kind) = if aidx == 0 {
            (node.port.write(now, va, bytes), OpKind::StLocal)
        } else {
            let entry = node.annex.entry(aidx);
            let target = entry.pe as usize;
            assert!(target < self.pe_count(), "store to nonexistent PE {target}");
            let cfg = self.cfg();
            let (shell, page_hit_cy) = (cfg.shell, cfg.mem.dram.page_hit_cy);
            // Off-page accesses at the target slow the injection stream:
            // the Figure 7 sensitivity at 16 KB strides.
            let line_off = off & !(cfg.mem.l1.line as u64 - 1);
            let page_penalty = self
                .dram(pe, target)
                .peek(line_off)
                .saturating_sub(page_hit_cy);
            let sink = RemoteSink {
                pe: entry.pe,
                remote_line_pa: line_off,
                base_cy: shell.remote_write_base_cy + page_penalty,
                per_word_cy: shell.remote_write_word_cy,
                ack_rtt_cy: shell.write_ack_rtt_cy + 2 * self.one_way(pe, target),
            };
            let port = &mut self.parts(pe).0.port;
            let cost = port.write_to(now, va, bytes, WriteTarget::Remote(sink));
            (cost, OpKind::StRemote)
        };
        self.parts(pe).1.clock = now + cost;
        self.deliver_outbox(pe);
        self.retire(pe, kind, now);
    }

    /// See [`crate::Cpu::memory_barrier`].
    fn memory_barrier(&mut self, pe: usize) {
        let (node, hot) = self.parts(pe);
        let now = hot.clock;
        node.memory_barrier(hot);
        node.prefetch.note_memory_barrier(hot.clock);
        self.deliver_outbox(pe);
        self.retire(pe, OpKind::Fence, now);
    }

    /// See [`crate::Cpu::poll_status`].
    fn poll_status(&mut self, pe: usize) -> bool {
        let (node, hot) = self.parts(pe);
        let now = hot.clock;
        let (clear, cost) = node.acks.poll(now);
        hot.clock = now + cost;
        node.perf.credit(CostClass::AckWait, cost);
        self.retire(pe, OpKind::StatusPoll, now);
        clear
    }

    /// See [`crate::Cpu::wait_write_acks`].
    fn wait_write_acks(&mut self, pe: usize) {
        let (node, hot) = self.parts(pe);
        let now = hot.clock;
        node.wait_write_acks(hot);
        self.retire(pe, OpKind::AckWait, now);
    }

    /// See [`crate::Cpu::fetch`].
    fn fetch(&mut self, pe: usize, va: u64) -> bool {
        let (aidx, off) = t3d_shell::annex::split_pa(va, self.cfg().mem.offset_bits);
        let (node, hot) = self.parts(pe);
        // Register 0 names this PE.
        let target = node.annex.entry(aidx).pe as usize;
        let now = hot.clock;
        let tlb = node.port.tlb_access(va);
        let net = self.cfg().shell.prefetch_net_cy;
        let one_way = self.one_way(pe, target);
        let ready = now + tlb + net / 2 + one_way;
        let mut buf = [0u8; 8];
        let (dram, queue) = self.serve_read(pe, target, off, &mut buf, ready);
        let latency = net + 2 * one_way + dram + queue;
        let (node, hot) = self.parts(pe);
        // A full queue issues nothing and costs only the TLB access.
        let issued = node
            .prefetch
            .issue(now + tlb, u64::from_le_bytes(buf), latency);
        hot.clock = now + tlb + issued.unwrap_or(0);
        node.perf
            .credit(CostClass::PrefetchIssue, issued.unwrap_or(0));
        self.retire(pe, OpKind::Fetch, now);
        issued.is_some()
    }

    /// See [`crate::Cpu::pop_prefetch`].
    fn pop_prefetch(&mut self, pe: usize) -> Result<u64, PopError> {
        let (node, hot) = self.parts(pe);
        let now = hot.clock;
        let popped = node.pop_prefetch(hot);
        if popped.is_ok() {
            self.retire(pe, OpKind::Pop, now);
        } else {
            self.retire_empty(pe, OpKind::Pop);
        }
        popped
    }

    /// See [`crate::Cpu::blt_start`].
    fn blt_start(
        &mut self,
        pe: usize,
        dir: BltDirection,
        local_off: u64,
        target: usize,
        remote_off: u64,
        bytes: u64,
    ) -> BltHandle {
        let (node, hot) = self.parts(pe);
        let now = hot.clock;
        let timing = node.blt.start(now, dir, bytes);
        // The DMA stream holds its route from the moment it starts
        // injecting (after the OS startup stall) until the last byte.
        let inject = now + timing.startup_cy;
        let occ = link_occupancy_cy(bytes);
        let lqueue = self.link_contend(pe, target, inject, occ);
        let completion = now + timing.total_cy() + lqueue;
        match dir {
            BltDirection::Read => {
                let src = self.arena(pe, target);
                let node = self.parts(pe).0;
                node.deposit_from(local_off, &src, remote_off, bytes);
                if self.cfg().link_contention {
                    self.effect(pe, link_reserve(target, inject, occ));
                }
            }
            BltDirection::Write => self.deposit(
                pe,
                Deposit {
                    target,
                    dst: remote_off,
                    src: local_off,
                    len: bytes,
                    time: completion,
                    link: Some((inject, occ)),
                },
            ),
        }
        self.blt_started(pe, now, timing.startup_cy);
        BltHandle {
            completion,
            startup_cy: timing.startup_cy,
            stream_cy: timing.stream_cy,
        }
    }

    /// See [`crate::Cpu::blt_start_strided`].
    #[allow(clippy::too_many_arguments)]
    fn blt_start_strided(
        &mut self,
        pe: usize,
        dir: BltDirection,
        local_off: u64,
        target: usize,
        remote_off: u64,
        count: u64,
        elem_bytes: u64,
        stride_bytes: u64,
    ) -> BltHandle {
        assert!(count > 0 && elem_bytes > 0, "strided BLT must move data");
        assert!(
            stride_bytes >= elem_bytes,
            "stride must not overlap elements"
        );
        let now = self.parts(pe).1.clock;
        let line_mask = self.cfg().mem.l1.line as u64 - 1;
        let page_hit_cy = self.cfg().mem.dram.page_hit_cy;
        // Strided access defeats the remote controller's open page when
        // the stride crosses DRAM pages; charge it element by element.
        let mut extra = 0u64;
        for i in 0..count {
            let line = (remote_off + i * stride_bytes) & !line_mask;
            let dram = self.dram(pe, target).access(line);
            let touch = TimedEffect {
                time: now,
                target: target as u32,
                busy: None,
                link: None,
                eff: Effect::DramTouch { off: line },
            };
            self.effect(pe, touch);
            extra += dram.saturating_sub(page_hit_cy);
        }
        let timing = self.parts(pe).0.blt.start(now, dir, count * elem_bytes);
        let inject = now + timing.startup_cy;
        let occ = link_occupancy_cy(count * elem_bytes);
        let lqueue = self.link_contend(pe, target, inject, occ);
        let completion = now + timing.total_cy() + extra + lqueue;
        if self.cfg().link_contention {
            self.effect(pe, link_reserve(target, inject, occ));
        }
        let elems = (0..count).map(|i| (local_off + i * elem_bytes, remote_off + i * stride_bytes));
        match dir {
            BltDirection::Read => {
                let src = self.arena(pe, target);
                let node = self.parts(pe).0;
                for (l_off, r_off) in elems {
                    node.deposit_from(l_off, &src, r_off, elem_bytes);
                }
            }
            BltDirection::Write => {
                for (l_off, r_off) in elems {
                    let d = Deposit {
                        target,
                        dst: r_off,
                        src: l_off,
                        len: elem_bytes,
                        time: completion,
                        link: None,
                    };
                    self.deposit(pe, d);
                }
            }
        }
        self.blt_started(pe, now, timing.startup_cy);
        BltHandle {
            completion,
            startup_cy: timing.startup_cy,
            stream_cy: timing.stream_cy + extra,
        }
    }

    /// Stalls `pe` for a BLT's OS startup, all `BltStartup`.
    fn blt_started(&mut self, pe: usize, now: u64, startup: u64) {
        let (node, hot) = self.parts(pe);
        hot.clock = now + startup;
        node.perf.credit(CostClass::BltStartup, startup);
        self.retire(pe, OpKind::BltStart, now);
    }

    /// See [`crate::Cpu::blt_wait`].
    fn blt_wait(&mut self, pe: usize, handle: BltHandle) {
        let (node, hot) = self.parts(pe);
        let now = hot.clock;
        node.blt_wait(hot, handle.completion);
        self.retire(pe, OpKind::BltWait, now);
    }

    /// See [`crate::Cpu::msg_send`].
    fn msg_send(&mut self, pe: usize, dst: usize, words: [u64; 4]) {
        let send_cy = self.cfg().shell.msg_send_cy;
        let (node, hot) = self.parts(pe);
        let now = hot.clock;
        hot.clock += send_cy;
        node.perf.credit(CostClass::MsgSend, send_cy);
        let sent = hot.clock;
        let occ = link_occupancy_cy(32);
        let lqueue = self.link_contend(pe, dst, sent, occ);
        let arrival = sent + lqueue + self.one_way(pe, dst);
        let msg = Message {
            from: pe as u32,
            words,
            arrival,
        };
        let e = TimedEffect {
            time: arrival,
            target: dst as u32,
            busy: None,
            link: Some((sent, occ)),
            eff: Effect::Msg(msg),
        };
        self.effect(pe, e);
        self.retire(pe, OpKind::MsgSend, now);
    }

    /// See [`crate::Cpu::msg_receive`].
    fn msg_receive(&mut self, pe: usize) -> Option<Message> {
        let (node, hot) = self.parts(pe);
        let now = hot.clock;
        let Some((msg, cost)) = node.msgq.receive(now) else {
            self.retire_empty(pe, OpKind::MsgRecv);
            return None;
        };
        hot.clock = now + cost;
        node.perf.credit(CostClass::MsgRecv, cost);
        self.retire(pe, OpKind::MsgRecv, now);
        Some(msg)
    }

    /// See [`crate::Cpu::fetch_inc`].
    fn fetch_inc(&mut self, pe: usize, target: usize, reg: usize) -> u64 {
        let now = self.parts(pe).1.clock;
        let (ready, lqueue) = self.amo_round_trip(pe, target, 0);
        let ticket = if target == pe {
            self.parts(pe).0.fetchinc.fetch_inc(reg)
        } else {
            self.remote_fetch_inc(target, reg)
        };
        let e = TimedEffect {
            time: ready,
            target: target as u32,
            busy: Some((ready + lqueue, 20)),
            link: Some((ready, link_occupancy_cy(8))),
            eff: Effect::FetchInc { reg },
        };
        self.effect(pe, e);
        self.retire(pe, OpKind::FetchInc, now);
        ticket
    }

    /// See [`crate::Cpu::swap_load`].
    fn swap_load(&mut self, pe: usize, value: u64) {
        let (node, hot) = self.parts(pe);
        let now = hot.clock;
        node.swap.load(value);
        self.retire(pe, OpKind::SwapLoad, now);
    }

    /// See [`crate::Cpu::atomic_swap`].
    fn atomic_swap(&mut self, pe: usize, va: u64) -> u64 {
        let (aidx, off) = t3d_shell::annex::split_pa(va, self.cfg().mem.offset_bits);
        // Register 0 names this PE; any other must select the swap flavour.
        let entry = self.parts(pe).0.annex.entry(aidx);
        let swap = aidx == 0 || entry.func == FuncCode::Swap;
        assert!(swap, "annex entry must select the swap flavour");
        let target = entry.pe as usize;
        let (old_mem, dram) = if target == pe {
            self.swap_live(pe, target, off)
        } else {
            self.remote_swap(pe, target, off)
        };
        let now = self.parts(pe).1.clock;
        self.amo_round_trip(pe, target, dram);
        self.retire(pe, OpKind::Swap, now);
        old_mem
    }
}

/// A BLT stream's link reservation towards `target` from `inject`.
fn link_reserve(target: usize, inject: u64, occ: u64) -> TimedEffect {
    TimedEffect {
        time: inject,
        target: target as u32,
        busy: None,
        link: Some((inject, occ)),
        eff: Effect::LinkReserve,
    }
}
