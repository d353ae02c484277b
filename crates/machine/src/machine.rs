//! The machine: N nodes wired through the shell and torus, in
//! deterministic virtual time.

use crate::config::MachineConfig;
use crate::cpu::Cpu;
use crate::node::{EventStats, Node, NodeHot, OpStats};
use crate::oplog::{targets, CpuOp, LogEntry};
use crate::ops::{Deposit, OpCore, TimedEffect};
use std::sync::Arc;
use t3d_memsys::{Dram, MemArena};
use t3d_perf::{
    chrome_trace, CostClass, Ledger, OpHists, OpKind, PePerf, PerfMode, PerfReport, PhaseLog,
    Registry, Span,
};
use t3d_shell::blt::BltDirection;
use t3d_shell::BarrierUnit;
use t3d_torus::Torus;

/// Error from [`Machine::try_new`]: the torus construction and the
/// sub-cube machinery (shard partition, buddy allocation) require a
/// power-of-two node count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineSizeError {
    nodes: u32,
}

impl std::fmt::Display for MachineSizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "machine size must be a power of two >= 1, got {} nodes",
            self.nodes
        )
    }
}

impl std::error::Error for MachineSizeError {}

/// Handle to an in-flight BLT transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BltHandle {
    /// Virtual time at which the DMA completes.
    pub completion: u64,
    /// Cycles the initiating processor was stalled in the OS invocation.
    pub startup_cy: u64,
    /// Cycles of overlappable DMA streaming.
    pub stream_cy: u64,
}

/// The `ops.*` registry counters [`Machine::perf`] reports, each the sum
/// of its kinds' counts. Kinds absent here (annex sets, status polls,
/// swap-register loads, BLT waits, barriers) are counted per node and
/// sampled, but report no `ops.*` counter.
const OPS_COUNTERS: [(&str, &[OpKind]); 12] = [
    ("ops.ld.local", &[OpKind::LdLocal]),
    ("ops.ld.remote", &[OpKind::LdRemote]),
    ("ops.st.local", &[OpKind::StLocal]),
    ("ops.st.remote", &[OpKind::StRemote]),
    ("ops.fetch", &[OpKind::Fetch]),
    ("ops.pop", &[OpKind::Pop]),
    ("ops.fence", &[OpKind::Fence]),
    ("ops.blt", &[OpKind::BltStart]),
    ("ops.msg.send", &[OpKind::MsgSend]),
    ("ops.msg.recv", &[OpKind::MsgRecv]),
    ("ops.atomic", &[OpKind::FetchInc, OpKind::Swap]),
    ("ops.ack.wait", &[OpKind::AckWait]),
];

/// The simulated CRAY-T3D.
#[derive(Debug)]
pub struct Machine {
    cfg: MachineConfig,
    torus: Torus,
    nodes: Vec<Node>,
    /// Struct-of-arrays hot state: one small record per PE (clock, shell
    /// occupancy) so the whole-machine scans stay on contiguous cache
    /// lines.
    hot: Vec<NodeHot>,
    /// Per-directed-link occupancy-until clocks (indexed by
    /// [`Torus::link_id`]); all zero unless `cfg.link_contention`.
    link_busy: Vec<u64>,
    barrier: BarrierUnit,
    /// The op log, while logging is on (see [`crate::oplog`]).
    pub(crate) log: Option<Vec<LogEntry>>,
    perf_mode: PerfMode,
    phase_log: PhaseLog,
    /// Every PE's sharded-phase effect log, kept empty between phases so
    /// its capacity carries over (sized on the first sharded phase).
    pub(crate) phase_logs: Vec<Vec<TimedEffect>>,
}

impl Machine {
    /// Builds a machine from a configuration, with profiling off (see
    /// [`Machine::set_perf_mode`]).
    ///
    /// # Panics
    ///
    /// Panics if the node count is not a power of two ≥ 1 (see
    /// [`Machine::try_new`] for the non-panicking form).
    pub fn new(cfg: MachineConfig) -> Self {
        Self::try_new(cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a machine from a configuration, rejecting node counts that
    /// are not a power of two ≥ 1 with a typed error instead of a
    /// downstream panic in the torus or sub-cube machinery.
    pub fn try_new(cfg: MachineConfig) -> Result<Self, MachineSizeError> {
        let n_cfg = cfg.nodes();
        if n_cfg == 0 || !n_cfg.is_power_of_two() {
            return Err(MachineSizeError { nodes: n_cfg });
        }
        let torus = Torus::new(cfg.torus);
        let n = torus.nodes();
        Ok(Machine {
            nodes: (0..n).map(|pe| Node::new(&cfg, pe)).collect(),
            hot: vec![NodeHot::default(); n as usize],
            link_busy: vec![0; torus.num_links()],
            barrier: BarrierUnit::new(&cfg.shell, n as usize),
            torus,
            cfg,
            log: None,
            perf_mode: PerfMode::Off,
            phase_log: PhaseLog::default(),
            phase_logs: Vec::new(),
        })
    }

    /// The configuration this machine was built with.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Number of processing elements.
    pub fn nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The torus geometry.
    pub fn torus(&self) -> &Torus {
        &self.torus
    }

    /// Immutable access to a node (instrumentation and tests).
    pub fn node(&self, pe: usize) -> &Node {
        &self.nodes[pe]
    }

    /// Nanoseconds per cycle.
    pub fn cycle_ns(&self) -> f64 {
        self.cfg.cycle_ns()
    }

    /// A node's virtual time, in cycles.
    pub fn clock(&self, pe: usize) -> u64 {
        self.hot[pe].clock
    }

    /// Number of physical-address bits forming the local offset.
    pub fn offset_bits(&self) -> u32 {
        self.cfg.mem.offset_bits
    }

    /// Builds a virtual address from an annex index and local offset.
    pub fn va(&self, annex_idx: usize, offset: u64) -> u64 {
        t3d_shell::annex::pa_with_annex(offset, annex_idx, self.offset_bits())
    }

    /// Starts logging every call (see [`crate::oplog`]), keeping any
    /// entries logged so far, or stops and drops the log.
    pub fn log_ops(&mut self, on: bool) {
        self.log = on.then(|| self.log.take().unwrap_or_default());
    }

    /// The op log: every call since logging started, in issue order
    /// (empty while logging is off).
    pub fn op_log(&self) -> &[LogEntry] {
        self.log.as_deref().unwrap_or_default()
    }

    /// Completions `pe`'s waits have run past, and the cycles its clock
    /// advanced past them.
    pub fn event_stats(&self, pe: usize) -> EventStats {
        self.nodes[pe].events
    }

    // ------------------------------------------------------------------
    // Ops by a named PE: only what `perfbench` calls; the rest are `Cpu`'s
    // ------------------------------------------------------------------

    /// [`Cpu::fetch_inc`] as `pe`; kept for `perfbench`'s scale workload.
    pub fn fetch_inc(&mut self, pe: usize, target_pe: usize, reg: usize) -> u64 {
        Cpu::new(self, pe).fetch_inc(target_pe, reg)
    }

    /// [`Cpu::blt_start`] as `pe`; kept for `perfbench`'s scale workload.
    pub fn blt_start(
        &mut self,
        pe: usize,
        dir: BltDirection,
        local_off: u64,
        target_pe: usize,
        remote_off: u64,
        bytes: u64,
    ) -> BltHandle {
        Cpu::new(self, pe).blt_start(dir, local_off, target_pe, remote_off, bytes)
    }

    /// [`Cpu::blt_wait`] as `pe`; kept for `perfbench`'s scale workload.
    pub fn blt_wait(&mut self, pe: usize, handle: BltHandle) {
        Cpu::new(self, pe).blt_wait(handle);
    }

    // ------------------------------------------------------------------
    // Barriers
    // ------------------------------------------------------------------

    /// Global hardware barrier: aligns every node's clock to the last
    /// arrival plus the wire latency (plus start/end instruction costs).
    /// All pending writes are fenced first, as `allStoreSync` requires.
    pub fn barrier_all(&mut self) {
        for pe in 0..self.nodes.len() {
            Cpu::new(self, pe).memory_barrier();
        }
        self.barrier_wire();
    }

    /// [`Machine::barrier_all`] after its fences: every node arrives,
    /// and every clock aligns to the wire's settle time.
    pub(crate) fn barrier_wire(&mut self) {
        for pe in 0..self.nodes.len() {
            let t = self.hot[pe].clock + self.cfg.shell.barrier_start_cy;
            self.barrier.start(pe, t);
        }
        let done = self.barrier.completion_time().expect("all nodes arrived");
        self.barrier.reset();
        let overhead = self.cfg.shell.barrier_start_cy + self.cfg.shell.barrier_end_cy;
        for pe in 0..self.nodes.len() {
            let start = self.hot[pe].clock;
            // The wire settles at `done` ≥ every arrival ≥ this clock.
            self.nodes[pe].events.wait(1, start, done);
            self.hot[pe].clock = done + self.cfg.shell.barrier_end_cy;
            let delta = self.hot[pe].clock - start;
            let p = &mut self.nodes[pe].perf;
            p.credit(CostClass::BarrierOverhead, overhead);
            p.credit(CostClass::BarrierWait, delta - overhead);
            self.retire(pe, OpKind::Barrier, start);
            self.log_op(pe, CpuOp::Barrier, start);
        }
    }

    // ------------------------------------------------------------------
    // Fuzzy barrier (Section 7.5)
    // ------------------------------------------------------------------

    /// Executes the start-barrier instruction: announces arrival on the
    /// global-OR wire and returns immediately — the processor may keep
    /// doing useful work before [`Machine::fuzzy_barrier_end_all`].
    ///
    /// # Panics
    ///
    /// Panics if this node already started the current episode.
    pub fn fuzzy_barrier_start(&mut self, pe: usize) {
        let (now, start_cy) = (self.hot[pe].clock, self.cfg.shell.barrier_start_cy);
        self.hot[pe].clock = now + start_cy;
        self.nodes[pe]
            .perf
            .credit(CostClass::BarrierOverhead, start_cy);
        self.barrier.start(pe, now + start_cy);
        self.retire(pe, OpKind::BarrierStart, now);
        self.log_op(pe, CpuOp::BarrierStart, now);
    }

    /// Completes the fuzzy barrier for *all* nodes (driver-level: every
    /// node must have executed start-barrier). Each node's clock
    /// advances only if the wire settled after its own work finished —
    /// work placed between start and end is overlapped with the wait.
    ///
    /// # Panics
    ///
    /// Panics if some node has not executed start-barrier.
    pub fn fuzzy_barrier_end_all(&mut self) {
        let done = self
            .barrier
            .completion_time()
            .expect("every node must start-barrier before end-barrier");
        self.barrier.reset();
        for pe in 0..self.nodes.len() {
            let start = self.hot[pe].clock;
            self.nodes[pe].events.wait(1, start, done);
            let aligned = start.max(done);
            self.hot[pe].clock = aligned + self.cfg.shell.barrier_end_cy;
            let end_cy = self.cfg.shell.barrier_end_cy;
            let p = &mut self.nodes[pe].perf;
            p.credit(CostClass::BarrierOverhead, end_cy);
            p.credit(CostClass::BarrierWait, aligned - start);
            self.retire(pe, OpKind::Barrier, start);
            self.log_op(pe, CpuOp::BarrierEnd, start);
        }
    }

    // ------------------------------------------------------------------
    // Functional helpers
    // ------------------------------------------------------------------

    /// Reads a node's memory functionally (no timing).
    pub fn peek_mem(&self, pe: usize, off: u64, buf: &mut [u8]) {
        self.nodes[pe].port.peek_mem(off, buf);
    }

    /// Writes a node's memory functionally (no timing); flushes any
    /// cached copy so the value is authoritative.
    pub fn poke_mem(&mut self, pe: usize, off: u64, bytes: &[u8]) {
        Cpu::new(self, pe).poke_mem(off, bytes);
    }

    /// Reads a u64 functionally.
    pub fn peek8(&self, pe: usize, off: u64) -> u64 {
        let mut b = [0u8; 8];
        self.peek_mem(pe, off, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a u64 functionally.
    pub fn poke8(&mut self, pe: usize, off: u64, v: u64) {
        self.poke_mem(pe, off, &v.to_le_bytes());
    }

    /// A node's operation counts.
    pub fn op_stats(&self, pe: usize) -> OpStats {
        self.nodes[pe].ops
    }

    // ------------------------------------------------------------------
    // Profiling (t3d-perf)
    // ------------------------------------------------------------------

    /// The profiling mode in force.
    pub fn perf_mode(&self) -> PerfMode {
        self.perf_mode
    }

    /// Sets the profiling mode, restarting collection: every PE's
    /// ledgers and histograms clear and rebase at its current clock, its
    /// op counts zero, and the phase log empties. Attribution is pure
    /// observation — no virtual time changes.
    pub fn set_perf_mode(&mut self, mode: PerfMode) {
        self.perf_mode = mode;
        let on = mode.counters();
        for (node, hot) in self.nodes.iter_mut().zip(&self.hot) {
            node.perf.restart(on, hot.clock);
            node.port.set_perf(on);
            node.ops = OpStats::default();
        }
        self.phase_log.clear();
    }

    /// All PEs' attribution ledgers (node + memory port) merged.
    fn merged_perf_ledger(&self) -> Ledger {
        let mut out = Ledger::default();
        for node in &self.nodes {
            out.merge(&node.perf.ledger);
            out.merge(node.port.perf_ledger());
        }
        out
    }

    /// The reference clock for phase spans: the maximum PE clock (a
    /// contiguous scan over the hot arena).
    fn perf_ref_clock(&self) -> u64 {
        self.hot.iter().map(|h| h.clock).max().unwrap_or(0)
    }

    /// Opens a named phase in the perf report (no-op unless profiling).
    /// Phases are flat: beginning a phase ends any open one.
    pub fn perf_begin_phase(&mut self, label: &str) {
        if self.perf_mode.counters() {
            let (now, snap) = (self.perf_ref_clock(), self.merged_perf_ledger());
            self.phase_log.begin(label, now, snap);
        }
    }

    /// Closes the open phase (no-op unless profiling / nothing is open).
    pub fn perf_end_phase(&mut self) {
        if self.perf_mode.counters() {
            let (now, snap) = (self.perf_ref_clock(), self.merged_perf_ledger());
            self.phase_log.end(now, snap);
        }
    }

    /// Assembles the perf report: per-PE attribution (node + memory-port
    /// ledgers), per-phase attribution, and the metrics registry
    /// (operation counters, memory-system counters, latency histograms).
    /// Deterministic: PEs are visited in order and the registry sorts by
    /// name, so Seq and Par phase-driver runs report bit-identically.
    pub fn perf(&self) -> PerfReport {
        let mut pes = Vec::with_capacity(self.nodes.len());
        let mut registry = Registry::default();
        let mut hists = OpHists::default();
        let mut wbuf_pending = 0i64;
        for (pe, node) in self.nodes.iter().enumerate() {
            let mut ledger = node.perf.ledger;
            ledger.merge(node.port.perf_ledger());
            pes.push(PePerf {
                pe,
                elapsed: self.hot[pe].clock.saturating_sub(node.perf.base_clock),
                ledger,
            });
            if let Some(h) = node.perf.hists() {
                hists.merge(h);
            }
            for (name, kinds) in OPS_COUNTERS {
                registry.count(name, kinds.iter().map(|&k| node.ops[k]).sum());
            }
            let mem = node.port.stats();
            registry.count("mem.l1.hits", mem.l1_hits);
            registry.count("mem.l1.misses", mem.l1_misses);
            registry.count("mem.l2.hits", mem.l2_hits);
            registry.count("mem.wbuf.merges", mem.wbuf_merges);
            registry.count("mem.wbuf.stalls", mem.wbuf_stalls);
            registry.count("mem.tlb.misses", mem.tlb_misses);
            wbuf_pending += node.port.wbuf_pending() as i64;
        }
        registry.count("barrier.episodes", self.barrier.episodes());
        registry.gauge("wbuf.pending", wbuf_pending);
        for kind in OpKind::ALL {
            let h = hists.get(kind);
            if h.count() > 0 {
                registry.observe_hist(&format!("lat.{}", kind.label()), h);
            }
        }
        PerfReport {
            mode: self.perf_mode,
            pes,
            phases: self.phase_log.records().to_vec(),
            registry,
        }
    }

    /// Exports a `chrome://tracing` timeline: one row per PE with a
    /// slice per logged op (see [`Machine::log_ops`]), labelled with its
    /// kind and, for an op on another PE, `->target`, plus a
    /// machine-wide row (tid 10000) carrying the named phase spans.
    /// Returns pretty-printed Chrome-trace JSON.
    pub fn perf_chrome_trace(&self) -> String {
        let mut spans: Vec<Span> = targets(self.op_log())
            .filter_map(|(e, target)| {
                let kind = e.op.kind()?.label();
                let to = (target != e.pe).then(|| format!("->{target}"));
                let to = to.unwrap_or_default();
                Some(Span {
                    name: format!("{kind}{to}"),
                    cat: "event".to_string(),
                    tid: u64::from(e.pe),
                    start: e.start,
                    dur: e.cycles,
                })
            })
            .collect();
        for rec in self.phase_log.records() {
            for &(start, end) in &rec.spans {
                spans.push(Span {
                    name: rec.label.clone(),
                    cat: "phase".to_string(),
                    tid: 10_000,
                    start,
                    dur: end - start,
                });
            }
        }
        chrome_trace(&spans).render_pretty()
    }

    /// Pushes every write already due out of each node's write buffer and
    /// delivers it, through the direct-engine path. The sharded phase
    /// driver calls this before splitting the machine into shards so no
    /// pre-phase state is pending when the shards start.
    pub(crate) fn normalize_for_phase(&mut self) {
        for pe in 0..self.nodes.len() {
            self.settle(pe);
        }
    }

    /// Joins a sharded phase that began when PE 0's clock read `start`
    /// into the op log, while logging: the phase entry, then every
    /// shard's calls in PE order.
    pub(crate) fn log_phase(&mut self, start: u64) {
        if self.log.is_some() {
            let calls = self.nodes.iter().map(|node| node.oplog.len()).sum();
            self.log_op(0, CpuOp::Phase(calls), start);
            let log = self.log.as_mut().expect("logging");
            self.nodes
                .iter_mut()
                .for_each(|node| log.append(&mut node.oplog));
        }
    }

    /// Split borrow of the pieces the sharded phase driver needs: the
    /// configuration and torus (shared, read-only), the node and hot
    /// arrays (split per-PE across shards), and the link-occupancy
    /// clocks (snapshotted read-only; shards queue privately).
    pub(crate) fn phase_parts(
        &mut self,
    ) -> (&MachineConfig, &Torus, &mut [Node], &mut [NodeHot], &[u64]) {
        (
            &self.cfg,
            &self.torus,
            &mut self.nodes,
            &mut self.hot,
            &self.link_busy,
        )
    }
}

/// The `Live` policy: every node is the machine's own, acted on now.
impl OpCore for Machine {
    fn cfg(&self) -> &MachineConfig {
        &self.cfg
    }
    fn torus(&self) -> &Torus {
        &self.torus
    }
    fn pe_count(&self) -> usize {
        self.nodes.len()
    }
    fn parts(&mut self, pe: usize) -> (&mut Node, &mut NodeHot) {
        (&mut self.nodes[pe], &mut self.hot[pe])
    }
    fn part(&self, pe: usize) -> (&Node, &NodeHot) {
        (&self.nodes[pe], &self.hot[pe])
    }
    fn as_machine(&mut self) -> Option<&mut Machine> {
        Some(self)
    }
    fn link_busy(&self, l: usize) -> u64 {
        self.link_busy[l]
    }
    fn set_link_busy(&mut self, l: usize, until: u64) {
        self.link_busy[l] = until;
    }
    fn op_log(&mut self) -> Option<&mut Vec<LogEntry>> {
        self.log.as_mut()
    }
    fn remote_busy(&mut self, target: usize) -> &mut u64 {
        &mut self.hot[target].shell_busy_until
    }
    fn remote_dram(&mut self, target: usize) -> &mut Dram {
        self.nodes[target].port.dram_mut()
    }
    fn remote_arena(&self, target: usize) -> &Arc<MemArena> {
        self.nodes[target].port.mem_arena()
    }
    fn remote_read(&mut self, target: usize, off: u64, buf: &mut [u8]) -> u64 {
        self.read_live(target, off, buf)
    }
    fn remote_write(&mut self, target: usize, off: u64, data: &[u8], mask: u64) -> u64 {
        self.nodes[target]
            .port
            .service_remote_write(off, data, Some(mask))
    }
    fn remote_fetch_inc(&mut self, target: usize, reg: usize) -> u64 {
        self.nodes[target].fetchinc.fetch_inc(reg)
    }
    fn remote_swap(&mut self, pe: usize, target: usize, off: u64) -> (u64, u64) {
        self.swap_live(pe, target, off)
    }
    fn remote_effect(&mut self, e: TimedEffect) {
        e.eff.deposit(&mut self.nodes[e.target as usize]);
    }
    fn remote_deposit(&mut self, pe: usize, d: Deposit) {
        let src = Arc::clone(self.nodes[pe].port.mem_arena());
        self.nodes[d.target].deposit_from(d.dst, &src, d.src, d.len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::Cpu;
    use t3d_memsys::arena::GRANULE_BYTES;
    use t3d_shell::{FuncCode, PopError};

    fn machine2() -> Machine {
        Machine::new(MachineConfig::t3d(2))
    }

    #[test]
    fn local_load_store_roundtrip() {
        let mut m = machine2();
        let mut cpu = Cpu::new(&mut m, 0);
        cpu.st8(0x1000, 77);
        assert_eq!(cpu.ld8(0x1000), 77);
    }

    #[test]
    fn rtt_is_twice_rounded_one_way_for_all_pairs() {
        // 2x2x2 torus: hop_cy = 2.5 puts odd hop counts on half cycles,
        // exactly where rounding the doubled latency used to diverge
        // from doubling the rounded one-way (1 hop: one-way 2.5 -> 3,
        // a round trip must be 6, not 5.0.round() = 5). Every remote op
        // now writes its round trip out as `2 * one_way`; pin the
        // adjacent-pair value the rest of the calibration suite builds
        // on.
        let m = Machine::new(MachineConfig::t3d(8));
        assert_eq!(m.cfg.torus.dims, (2, 2, 2));
        assert_eq!(m.one_way(0, 1), 3);
    }

    #[test]
    fn uncached_remote_read_costs_about_91_cycles() {
        let mut m = machine2();
        m.poke8(1, 0x2000, 5);
        let mut cpu = Cpu::new(&mut m, 0);
        cpu.annex_set(1, 1, FuncCode::Uncached);
        // Warm the TLB so we measure the steady-state cost the paper plots.
        let _ = cpu.ld8(cpu.va(1, 0x2008));
        let t0 = cpu.clock();
        let v = cpu.ld8(cpu.va(1, 0x2000));
        let cost = cpu.clock() - t0;
        assert_eq!(v, 5);
        assert!(
            (85..=97).contains(&cost),
            "uncached adjacent remote read cost {cost} cy (paper: ~91)"
        );
    }

    #[test]
    fn cached_remote_read_costs_more_but_then_hits() {
        let mut m = machine2();
        m.poke8(1, 0x3000, 9);
        m.poke8(1, 0x3008, 10);
        let mut cpu = Cpu::new(&mut m, 0);
        cpu.annex_set(1, 1, FuncCode::Cached);
        let _ = cpu.ld8(cpu.va(1, 0x4000)); // TLB warm
        let t0 = cpu.clock();
        assert_eq!(cpu.ld8(cpu.va(1, 0x3000)), 9);
        let first = cpu.clock() - t0;
        assert!(
            (105..=125).contains(&first),
            "cached adjacent remote read cost {first} cy (paper: ~114)"
        );
        let t1 = cpu.clock();
        assert_eq!(
            cpu.ld8(cpu.va(1, 0x3008)),
            10,
            "next word came with the line"
        );
        assert_eq!(cpu.clock() - t1, 1, "line hit");
    }

    #[test]
    fn cached_remote_line_goes_stale() {
        let mut m = machine2();
        m.poke8(1, 0x3000, 1);
        let va = m.va(1, 0x3000);
        Cpu::new(&mut m, 0).annex_set(1, 1, FuncCode::Cached);
        assert_eq!(Cpu::new(&mut m, 0).ld8(va), 1);
        // Owner updates its memory; no coherence traffic.
        let mut owner = Cpu::new(&mut m, 1);
        owner.st8(0x3000, 2);
        owner.memory_barrier();
        let mut cpu = Cpu::new(&mut m, 0);
        assert_eq!(cpu.ld8(va), 1, "stale cached copy");
        // Explicit flush (23 cycles) makes the next read fresh.
        let t0 = cpu.clock();
        cpu.flush_line(va);
        assert_eq!(cpu.clock() - t0, 23);
        assert_eq!(cpu.ld8(va), 2);
    }

    #[test]
    fn blocking_remote_write_costs_about_130_cycles() {
        let mut m = machine2();
        let mut cpu = Cpu::new(&mut m, 0);
        cpu.annex_set(1, 1, FuncCode::Uncached);
        let va = cpu.va(1, 0x5000);
        // Warm TLB.
        cpu.st8(va, 1);
        cpu.memory_barrier();
        cpu.wait_write_acks();
        let t0 = cpu.clock();
        cpu.st8(va, 42);
        cpu.memory_barrier();
        cpu.wait_write_acks();
        let cost = cpu.clock() - t0;
        assert!(
            (120..=140).contains(&cost),
            "blocking remote write cost {cost} cy (paper: ~130)"
        );
        assert_eq!(m.peek8(1, 0x5000), 42);
    }

    #[test]
    fn nonblocking_remote_write_sustains_17_cycles() {
        let mut m = machine2();
        let mut cpu = Cpu::new(&mut m, 0);
        cpu.annex_set(1, 1, FuncCode::Uncached);
        let t0 = cpu.clock();
        let n = 128u64;
        for i in 0..n {
            cpu.st8(cpu.va(1, 0x8000 + i * 64), i);
        }
        let avg = (cpu.clock() - t0) as f64 / n as f64;
        assert!(
            (15.0..20.0).contains(&avg),
            "non-blocking remote write interval {avg} cy (paper: ~17)"
        );
    }

    #[test]
    fn status_bit_invisible_to_buffered_writes() {
        // Section 4.3: poll without fencing sees a clear bit even though
        // a write sits in the buffer.
        let mut m = machine2();
        let mut cpu = Cpu::new(&mut m, 0);
        cpu.annex_set(1, 1, FuncCode::Uncached);
        cpu.st8(cpu.va(1, 0x6000), 1);
        assert!(
            cpu.poll_status(),
            "bit appears clear: the write is still buffered"
        );
        cpu.memory_barrier();
        assert!(
            !cpu.poll_status(),
            "after the fence the write is visible in flight"
        );
    }

    #[test]
    fn prefetch_roundtrip() {
        let mut m = machine2();
        m.poke8(1, 0x7000, 123);
        let mut cpu = Cpu::new(&mut m, 0);
        cpu.annex_set(1, 1, FuncCode::Uncached);
        assert!(cpu.fetch(cpu.va(1, 0x7000)));
        cpu.memory_barrier();
        assert_eq!(cpu.pop_prefetch(), Ok(123));
    }

    #[test]
    fn prefetch_pop_without_fence_is_a_hazard() {
        let mut m = machine2();
        let mut cpu = Cpu::new(&mut m, 0);
        cpu.annex_set(1, 1, FuncCode::Uncached);
        cpu.fetch(cpu.va(1, 0x7000));
        assert_eq!(cpu.pop_prefetch(), Err(PopError::NotDeparted));
    }

    #[test]
    fn blt_moves_data_and_charges_startup() {
        let mut m = machine2();
        for i in 0..64u64 {
            m.poke8(1, 0x9000 + i * 8, i);
        }
        let mut cpu = Cpu::new(&mut m, 0);
        let t0 = cpu.clock();
        let h = cpu.blt_start(BltDirection::Read, 0xA000, 1, 0x9000, 512);
        assert!(
            cpu.clock() - t0 >= 27_000,
            "OS invocation stalls the processor"
        );
        cpu.blt_wait(h);
        for i in 0..64u64 {
            assert_eq!(m.peek8(0, 0xA000 + i * 8), i);
        }
    }

    #[test]
    fn strided_blt_gathers_columns() {
        let mut m = machine2();
        // A 8x8 matrix of u64 on PE 1, row-major; gather column 3.
        for r in 0..8u64 {
            for c in 0..8u64 {
                m.poke8(1, 0x4000 + (r * 8 + c) * 8, r * 100 + c);
            }
        }
        let mut cpu = Cpu::new(&mut m, 0);
        let h = cpu.blt_start_strided(
            BltDirection::Read,
            0x5000,
            1,
            0x4000 + 3 * 8,
            8,  // count
            8,  // elem bytes
            64, // stride: one row
        );
        cpu.blt_wait(h);
        for r in 0..8u64 {
            assert_eq!(m.peek8(0, 0x5000 + r * 8), r * 100 + 3, "row {r}");
        }
        assert!(h.startup_cy >= 27_000, "still an OS invocation");
    }

    #[test]
    fn strided_blt_scatter_writes() {
        let mut m = machine2();
        for i in 0..4u64 {
            m.poke8(0, 0x6000 + i * 8, 7 + i);
        }
        let mut cpu = Cpu::new(&mut m, 0);
        let h = cpu.blt_start_strided(BltDirection::Write, 0x6000, 1, 0x7000, 4, 8, 256);
        cpu.blt_wait(h);
        for i in 0..4u64 {
            assert_eq!(m.peek8(1, 0x7000 + i * 256), 7 + i);
        }
    }

    #[test]
    fn strided_blt_page_misses_slow_the_stream() {
        let mut m = machine2();
        let contiguous =
            Cpu::new(&mut m, 0).blt_start_strided(BltDirection::Read, 0x1000, 1, 0x0, 64, 8, 8);
        let mut m2 = machine2();
        let strided = Cpu::new(&mut m2, 0).blt_start_strided(
            BltDirection::Read,
            0x1000,
            1,
            0x0,
            64,
            8,
            16 * 1024,
        );
        assert!(
            strided.stream_cy > contiguous.stream_cy,
            "page-missing stride streams slower: {} vs {}",
            strided.stream_cy,
            contiguous.stream_cy
        );
    }

    #[test]
    fn message_send_receive() {
        let mut m = machine2();
        Cpu::new(&mut m, 0).msg_send(1, [1, 2, 3, 4]);
        // Receiver polls; arrival takes network time.
        let mut rx = Cpu::new(&mut m, 1);
        rx.advance(200);
        let msg = rx.msg_receive().expect("message arrived");
        assert_eq!(msg.words, [1, 2, 3, 4]);
        assert_eq!(msg.from, 0);
    }

    #[test]
    fn message_receive_costs_the_interrupt() {
        let mut m = machine2();
        Cpu::new(&mut m, 0).msg_send(1, [0; 4]);
        let mut rx = Cpu::new(&mut m, 1);
        rx.advance(1000);
        let t0 = rx.clock();
        rx.msg_receive().unwrap();
        assert!(rx.clock() - t0 >= 3750, "25 us interrupt");
    }

    #[test]
    fn handler_mode_charges_the_dispatch_switch() {
        let mut cfg = MachineConfig::t3d(2);
        cfg.msg_mode = t3d_shell::ReceiveMode::Handler;
        let mut m = Machine::new(cfg);
        Cpu::new(&mut m, 0).msg_send(1, [0; 4]);
        let mut rx = Cpu::new(&mut m, 1);
        rx.advance(1_000);
        let t0 = rx.clock();
        rx.msg_receive().unwrap();
        assert!(
            rx.clock() - t0 >= 3_750 + 4_950,
            "interrupt + handler switch charged"
        );
    }

    #[test]
    fn fetch_inc_is_remote_and_atomic() {
        let mut m = machine2();
        let mut cpu = Cpu::new(&mut m, 0);
        assert_eq!(cpu.fetch_inc(1, 0), 0);
        assert_eq!(cpu.fetch_inc(1, 0), 1);
        assert_eq!(
            Cpu::new(&mut m, 1).fetch_inc(1, 0),
            2,
            "owner sees the same counter"
        );
        let mut cpu = Cpu::new(&mut m, 0);
        let t0 = cpu.clock();
        cpu.fetch_inc(1, 1);
        let cost = cpu.clock() - t0;
        assert!(
            (100..200).contains(&cost),
            "f&i cost {cost} cy (paper: ~1 us incl. overheads)"
        );
    }

    #[test]
    fn atomic_swap_exchanges() {
        let mut m = machine2();
        m.poke8(1, 0xB000, 5);
        let mut cpu = Cpu::new(&mut m, 0);
        cpu.annex_set(1, 1, FuncCode::Swap);
        cpu.swap_load(9);
        let old = cpu.atomic_swap(cpu.va(1, 0xB000));
        assert_eq!(old, 5);
        assert_eq!(m.peek8(1, 0xB000), 9);
    }

    #[test]
    fn fuzzy_barrier_overlaps_work() {
        // Plain barrier: arrive, wait, then do 2000 cycles of work.
        let mut m = machine2();
        Cpu::new(&mut m, 0).advance(100);
        Cpu::new(&mut m, 1).advance(3_000); // the straggler
        m.barrier_all();
        Cpu::new(&mut m, 0).advance(2_000);
        let plain = m.clock(0);

        // Fuzzy barrier: announce arrival, do the 2000 cycles while the
        // straggler arrives, then complete.
        let mut m = machine2();
        Cpu::new(&mut m, 0).advance(100);
        Cpu::new(&mut m, 1).advance(3_000);
        m.fuzzy_barrier_start(0);
        m.fuzzy_barrier_start(1);
        Cpu::new(&mut m, 0).advance(2_000); // overlapped with the wait
        m.fuzzy_barrier_end_all();
        let fuzzy = m.clock(0);

        assert!(
            fuzzy + 1_500 < plain,
            "fuzzy barrier hides the overlapped work: {fuzzy} vs {plain} cy"
        );
    }

    #[test]
    fn fuzzy_barrier_lets_each_node_pass_once_the_wire_settles() {
        // Node `pe` arrives after 1000 * pe cycles of work, fences,
        // starts the barrier and does 500 cycles of overlappable work.
        let mut m = Machine::new(MachineConfig::t3d(4));
        for pe in 0..4 {
            Cpu::new(&mut m, pe).advance(1000 * pe as u64);
        }
        for pe in 0..4 {
            Cpu::new(&mut m, pe).memory_barrier();
            m.fuzzy_barrier_start(pe);
            Cpu::new(&mut m, pe).advance(500);
        }
        m.fuzzy_barrier_end_all();
        let clocks: Vec<u64> = (0..4).map(|pe| m.clock(pe)).collect();
        // Unlike a plain barrier, the fuzzy barrier does NOT align the
        // clocks: each node merely cannot pass before the wire settled
        // (last arrival ~3009 + 50). The fast nodes' overlapped work is
        // hidden inside the wait.
        let settle = 3_000 + 4 + 5 + 50;
        assert!(clocks.iter().all(|&c| c >= settle), "{clocks:?}");
        assert!(
            clocks[0] < clocks[3],
            "fast node exits near the wire settle, straggler later: {clocks:?}"
        );
        assert!(
            clocks[3] >= 3_500 && clocks[3] < 3_600,
            "straggler clock {}",
            clocks[3]
        );
    }

    #[test]
    #[should_panic(expected = "start-barrier before end-barrier")]
    fn fuzzy_end_requires_all_starts() {
        let mut m = machine2();
        m.fuzzy_barrier_start(0);
        m.fuzzy_barrier_end_all();
    }

    #[test]
    fn barrier_aligns_clocks() {
        let mut m = machine2();
        Cpu::new(&mut m, 0).advance(100);
        Cpu::new(&mut m, 1).advance(5000);
        m.barrier_all();
        assert_eq!(m.clock(0), m.clock(1));
        assert!(m.clock(0) >= 5000 + 50);
        assert_eq!(m.perf().registry.counter("barrier.episodes"), 1);
    }

    #[test]
    fn log_records_the_operation_stream() {
        let mut m = machine2();
        m.log_ops(true);
        let mut cpu = Cpu::new(&mut m, 0);
        cpu.annex_set(1, 1, FuncCode::Uncached);
        cpu.st8(cpu.va(1, 0x100), 1);
        cpu.memory_barrier();
        cpu.wait_write_acks();
        let _ = cpu.ld8(cpu.va(1, 0x100));
        let kinds: Vec<(Option<OpKind>, u32)> = targets(m.op_log())
            .map(|(e, target)| (e.op.kind(), target))
            .collect();
        let expect = [
            (OpKind::AnnexSet, 1),
            (OpKind::StRemote, 1),
            (OpKind::Fence, 0),
            (OpKind::AckWait, 0),
            (OpKind::LdRemote, 1),
        ];
        assert_eq!(kinds, expect.map(|(k, t)| (Some(k), t)));
        assert!(m.op_log().iter().map(|e| e.cycles).sum::<u64>() > 0);
        assert!(m.perf_chrome_trace().contains("st.remote->1"));
        m.log_ops(false);
        assert!(m.op_log().is_empty());
    }

    #[test]
    fn logging_off_records_nothing() {
        let mut m = machine2();
        Cpu::new(&mut m, 0).st8(0x40, 1);
        assert!(m.op_log().is_empty());
    }

    #[test]
    fn contention_serializes_a_hot_spot() {
        // All nodes fetch&increment PE 0's counter at the same virtual
        // time: with contention on, the later requests queue.
        let run = |contend: bool| -> u64 {
            let cfg = if contend {
                MachineConfig::t3d_contended(8)
            } else {
                MachineConfig::t3d(8)
            };
            let mut m = Machine::new(cfg);
            for pe in 1..8 {
                let _ = Cpu::new(&mut m, pe).fetch_inc(0, 0);
            }
            (1..8).map(|pe| m.clock(pe)).max().unwrap()
        };
        let free = run(false);
        let contended = run(true);
        assert!(
            contended > free + 100,
            "hot-spot queueing must show: {contended} vs {free} cy"
        );
        // The counter still counts correctly either way.
    }

    #[test]
    fn contention_off_by_default_changes_nothing() {
        let mut m = machine2();
        let mut cpu = Cpu::new(&mut m, 0);
        cpu.annex_set(1, 1, FuncCode::Uncached);
        let _ = cpu.ld8(cpu.va(1, 0x2008));
        let t0 = cpu.clock();
        let _ = cpu.ld8(cpu.va(1, 0x2000));
        let cost = cpu.clock() - t0;
        assert!((85..=97).contains(&cost), "calibration intact: {cost} cy");
    }

    #[test]
    fn write_buffer_synonym_hazard_end_to_end() {
        // Two annex entries name PE 1; a store through one is invisible
        // to an immediately following load through the other.
        let mut m = machine2();
        m.poke8(1, 0xC000, 1);
        let mut cpu = Cpu::new(&mut m, 0);
        cpu.annex_set(1, 1, FuncCode::Uncached);
        cpu.annex_set(2, 1, FuncCode::Uncached);
        cpu.st8(cpu.va(1, 0xC000), 2);
        let stale = cpu.ld8(cpu.va(2, 0xC000));
        assert_eq!(stale, 1, "synonym read bypassed the buffered store");
        // Same-annex read forwards correctly.
        let fresh = cpu.ld8(cpu.va(1, 0xC000));
        assert_eq!(fresh, 2);
        // After fencing and acknowledgement everything agrees.
        cpu.memory_barrier();
        cpu.wait_write_acks();
        assert_eq!(cpu.ld8(cpu.va(2, 0xC000)), 2);
    }

    #[test]
    fn store_arrivals_logged_for_store_sync() {
        let mut m = machine2();
        let mut cpu = Cpu::new(&mut m, 0);
        cpu.annex_set(1, 1, FuncCode::Uncached);
        for i in 0..4u64 {
            cpu.st8(cpu.va(1, 0xD000 + i * 64), i);
        }
        cpu.memory_barrier();
        let t = m.node(1).arrival_time_of(32).expect("32 bytes arrived");
        assert!(t > 0);
        assert_eq!(m.node(1).arrival_time_of(33), None);
    }

    #[test]
    fn non_power_of_two_machine_is_rejected() {
        let err = Machine::try_new(MachineConfig::t3d(24)).unwrap_err();
        assert_eq!(
            err.to_string(),
            "machine size must be a power of two >= 1, got 24 nodes"
        );
        for n in [1u32, 2, 8, 64, 1024] {
            assert!(Machine::try_new(MachineConfig::t3d(n)).is_ok());
        }
    }

    #[test]
    #[should_panic(expected = "machine size must be a power of two >= 1, got 24 nodes")]
    fn new_panics_on_non_power_of_two() {
        let _ = Machine::new(MachineConfig::t3d(24));
    }

    #[test]
    fn fresh_machine_commits_no_node_memory() {
        // Construction must not touch the demand-committed arenas: a
        // 1024-PE machine with 16 MB nodes is a 16 GB address space but
        // a metadata-sized allocation until programs store to it.
        for cfg in [
            MachineConfig::t3d(64),
            MachineConfig::t3d(1024),
            MachineConfig::t3d_link_contended(1024),
        ] {
            let m = Machine::new(cfg);
            for pe in 0..m.nodes() {
                let resident = m.node(pe).port.mem_arena().resident_bytes();
                assert_eq!(resident, 0, "PE {pe} of {} committed memory", m.nodes());
            }
        }
    }

    #[test]
    fn a_store_and_a_blt_per_pe_commit_two_granules_each() {
        // Node memory is committed in 8 KB granules: one word stored at
        // 0x1000 and one 8 KB BLT landing at 0x8000 cost each PE two
        // granules (16 MB over 1024 PEs), not the 64 KB region both
        // addresses share.
        let mut m = Machine::new(MachineConfig::t3d_link_contended(1024));
        let n = m.nodes();
        for pe in 0..n {
            let mut cpu = Cpu::new(&mut m, pe);
            cpu.st8(0x1000, pe as u64 + 1);
            cpu.memory_barrier();
            let h = cpu.blt_start(BltDirection::Write, 0x2000, (pe + n / 2) % n, 0x8000, 8192);
            cpu.blt_wait(h);
        }
        let total: usize = (0..n)
            .map(|pe| m.node(pe).port.mem_arena().resident_bytes())
            .sum();
        assert!(
            total <= n * 2 * GRANULE_BYTES,
            "{total} bytes committed on {n} PEs"
        );
        assert_eq!(m.peek8(n - 1, 0x1000), n as u64);
    }

    #[test]
    fn a_direct_transpose_lands_every_word() {
        // Every PE bulk-writes a pattern of its own to the PE half the
        // machine away, all injected at once so the streams stack on
        // shared links. Each landing word must carry its sender's
        // pattern, and each node commits just its source and landing
        // granules.
        let mut m = Machine::new(MachineConfig::t3d_link_contended(64));
        let n = m.nodes();
        let word = |pe: usize, w: u64| (pe as u64 + 1) << 32 | w;
        for pe in 0..n {
            let src: Vec<u8> = (0..1024).flat_map(|w| word(pe, w).to_le_bytes()).collect();
            m.poke_mem(pe, 0x2000, &src);
        }
        let handles: Vec<_> = (0..n)
            .map(|pe| {
                let to = (pe + n / 2) % n;
                Cpu::new(&mut m, pe).blt_start(BltDirection::Write, 0x2000, to, 0x8000, 8192)
            })
            .collect();
        for (pe, h) in handles.into_iter().enumerate() {
            Cpu::new(&mut m, pe).blt_wait(h);
        }
        m.barrier_all();
        for pe in 0..n {
            let from = (pe + n / 2) % n;
            for w in 0..1024 {
                let got = m.peek8(pe, 0x8000 + 8 * w);
                assert_eq!(got, word(from, w), "PE {pe} word {w}");
            }
            assert_eq!(m.peek8(pe, 0x7FF8), 0, "PE {pe} below the landing zone");
            assert_eq!(m.peek8(pe, 0xA000), 0, "PE {pe} above the landing zone");
            let resident = m.node(pe).port.mem_arena().resident_bytes();
            assert_eq!(resident, 2 * GRANULE_BYTES, "PE {pe}");
        }
    }

    #[test]
    fn link_contention_is_free_for_a_lone_sender() {
        // With one PE sending, every route link is idle at `ready`:
        // the queueing term is zero and the clocks match the
        // uncontended machine exactly.
        let run = |link: bool| {
            let mut cfg = MachineConfig::t3d(8);
            cfg.link_contention = link;
            let mut m = Machine::new(cfg);
            let mut cpu = Cpu::new(&mut m, 0);
            cpu.annex_set(1, 7, FuncCode::Uncached);
            for i in 0..4u64 {
                cpu.st8(cpu.va(1, 0x2000 + i * 8), i);
            }
            cpu.memory_barrier();
            cpu.wait_write_acks();
            let _ = cpu.ld8(cpu.va(1, 0x2000));
            let _ = cpu.fetch_inc(7, 0);
            cpu.clock()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn link_clocks_match_a_hop_by_hop_route_model() {
        // After a mix of direct hot-spot fetch&increments, BLT transposes
        // and butterfly messages, every link clock equals a model that
        // walks each op's route hop by hop (`Torus::route` and
        // `step_link_id`). Each PE's target changes from pattern to
        // pattern and repeats within the hot spot, so the route memo
        // both misses and hits.
        use crate::ops::link_occupancy_cy;
        let mut m = Machine::new(MachineConfig::t3d_link_contended(64));
        let (n, hot, shell) = (m.nodes(), 37, m.config().shell);
        let mut model = vec![0u64; m.torus().num_links()];
        let mut queued = 0;
        let mut reserve = |m: &Machine, pe: usize, target: usize, ready: u64, occ: u64| {
            let t = m.torus();
            let route = t.route(pe as u32, target as u32);
            let links: Vec<usize> = route
                .windows(2)
                .map(|w| t.step_link_id(w[0], w[1]))
                .collect();
            let start = links.iter().fold(ready, |s, &l| s.max(model[l]));
            for &l in &links {
                model[l] = start + occ;
            }
            queued += start - ready;
        };
        for round in 0..6 {
            for pe in (0..2 * n).map(|i| i % n).filter(|&pe| pe != hot) {
                let ready = m.clock(pe) + shell.remote_read_shell_cy / 2 + m.one_way(pe, hot);
                let _ = Cpu::new(&mut m, pe).fetch_inc(hot, 0);
                reserve(&m, pe, hot, ready, link_occupancy_cy(8));
            }
            for pe in 0..n {
                let (to, now) = ((pe + n / 2) % n, m.clock(pe));
                let h =
                    Cpu::new(&mut m, pe).blt_start(BltDirection::Write, 0x2000, to, 0x8000, 512);
                reserve(&m, pe, to, now + h.startup_cy, link_occupancy_cy(512));
                Cpu::new(&mut m, pe).blt_wait(h);
            }
            for pe in 0..n {
                let (to, sent) = (pe ^ (1 << round), m.clock(pe) + shell.msg_send_cy);
                Cpu::new(&mut m, pe).msg_send(to, [pe as u64, round, 0, 0]);
                reserve(&m, pe, to, sent, link_occupancy_cy(32));
            }
        }
        assert!(queued > 0, "the mix never queued on a link");
        assert_eq!(m.link_busy, model);
    }

    #[test]
    fn link_contention_queues_streams_sharing_a_link() {
        // On the (2, 2, 2) torus both 5 → 0 and 7 → 0 dimension-order
        // routes finish over the Z link (0,0,1) → (0,0,0); two
        // simultaneous 2 KB BLT streams must serialize on it (1024 cy
        // of occupancy each at two bytes per cycle).
        let run = |link: bool| {
            let mut cfg = MachineConfig::t3d(8);
            cfg.link_contention = link;
            let mut m = Machine::new(cfg);
            let h5 = Cpu::new(&mut m, 5).blt_start(BltDirection::Write, 0x1000, 0, 0x8000, 2048);
            let h7 = Cpu::new(&mut m, 7).blt_start(BltDirection::Write, 0x1000, 0, 0x9000, 2048);
            Cpu::new(&mut m, 5).blt_wait(h5);
            Cpu::new(&mut m, 7).blt_wait(h7);
            m.clock(5).max(m.clock(7))
        };
        let free = run(false);
        let queued = run(true);
        assert!(
            queued >= free + 1000,
            "shared final link must queue the second stream: {queued} vs {free} cy"
        );
    }

    #[test]
    fn remote_write_invalidate_keeps_owner_coherent() {
        let mut m = machine2();
        // Owner caches its own line.
        m.poke8(1, 0xE000, 1);
        assert_eq!(Cpu::new(&mut m, 1).ld8(0xE000), 1);
        // Remote write arrives; owner's next read must see it.
        let mut cpu = Cpu::new(&mut m, 0);
        cpu.annex_set(1, 1, FuncCode::Uncached);
        cpu.st8(cpu.va(1, 0xE000), 2);
        cpu.memory_barrier();
        cpu.wait_write_acks();
        assert_eq!(
            Cpu::new(&mut m, 1).ld8(0xE000),
            2,
            "cache-invalidate mode flushed the line"
        );
    }
}
