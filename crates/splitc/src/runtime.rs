//! The Split-C runtime proper: per-node state, the SPMD driver, the
//! symmetric heap and the global barrier.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use crate::annex::AnnexState;
use crate::config::SplitcConfig;
use crate::op::ScOp;
use crate::record::{RecEvent, RecLog};
use t3d_machine::{Cpu, Machine, MachineConfig, PhaseDriver};
use t3dsan::{Report, SanEvent, SanLog, SanOp, SanitizeMode, Sanitizer};

/// An Active-Message-equivalent handler: runs at the *receiving* node,
/// through that node's [`Cpu`] (on the whole machine in direct mode, on
/// the node's own shard in a sharded phase). Arguments are the four
/// payload words.
pub type AmHandler = fn(&mut Cpu, [u64; 4]);

/// Reserved handler id: write one byte (`args = [offset, value, 0, 0]`).
/// This is the paper's correct byte-write (Section 4.5 / 7.4).
pub const AM_BYTE_WRITE: u64 = 0;
/// Reserved handler id: add to a 64-bit word (`args = [offset, delta]`).
pub const AM_ADD_U64: u64 = 1;
/// Reserved handler id: write a 32-bit word (`args = [offset, value]`) —
/// the same partial-word repair as byte writes (Section 4.5), since the
/// Alpha has no sub-64-bit stores either way.
pub const AM_WRITE_U32: u64 = 2;
/// First handler id available to applications.
pub const AM_USER_BASE: u64 = 8;

/// Bytes per AM-equivalent queue slot (seq, handler, four args). Every
/// deposit moves this many bytes of remote-write traffic to the target,
/// which the static analyzer counts toward the `storeSync` watermark.
pub const AM_SLOT_BYTES: u64 = 48;

/// Per-node runtime state.
#[derive(Debug, Clone)]
pub struct NodeRt {
    /// Annex register management.
    pub annex: AnnexState,
    /// Target local addresses of outstanding gets, in issue order — the
    /// runtime table of Section 5.4.
    pub pending_gets: Vec<u64>,
    /// Bytes of arrived store data already consumed by `store_sync`.
    pub store_watermark: u64,
    /// Completion times of outstanding non-blocking BLT transfers.
    pub pending_blts: Vec<u64>,
    /// Messages consumed from this node's AM-equivalent queue.
    pub am_consumed: u64,
    /// Operation counters (instrumentation).
    pub stats: RtStats,
    /// Sanitizer event log (empty and free when the sanitizer is off).
    pub(crate) san: SanLog,
    /// Recorded op stream (empty and free when recording is off).
    pub(crate) rec: RecLog,
}

/// Operation counters for one node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RtStats {
    /// Blocking reads issued.
    pub reads: u64,
    /// Blocking writes issued.
    pub writes: u64,
    /// Gets issued.
    pub gets: u64,
    /// Puts issued.
    pub puts: u64,
    /// Signaling stores issued.
    pub stores: u64,
    /// Bulk operations issued.
    pub bulk_ops: u64,
    /// AM-equivalent deposits issued.
    pub am_deposits: u64,
    /// Lock operations issued (acquire attempts and releases).
    pub lock_ops: u64,
}

impl RtStats {
    /// Total runtime primitives issued, across every counter. Useful for
    /// auditing that no primitive escapes instrumentation: a program that
    /// issues a known number of operations must see exactly that total.
    pub fn total(&self) -> u64 {
        self.reads
            + self.writes
            + self.gets
            + self.puts
            + self.stores
            + self.bulk_ops
            + self.am_deposits
            + self.lock_ops
    }
}

impl NodeRt {
    fn new(cfg: &SplitcConfig, annex_registers: usize) -> Self {
        NodeRt {
            annex: AnnexState::new(cfg.annex_policy, annex_registers),
            pending_gets: Vec::new(),
            store_watermark: 0,
            pending_blts: Vec::new(),
            am_consumed: 0,
            stats: RtStats::default(),
            san: SanLog::new(cfg.sanitize.is_on()),
            rec: RecLog::default(),
        }
    }
}

/// The Split-C program environment: a machine plus runtime state, a
/// symmetric heap and the SPMD phase driver.
#[derive(Debug)]
pub struct SplitC {
    pub(crate) m: Machine,
    pub(crate) cfg: SplitcConfig,
    rts: Vec<NodeRt>,
    handlers: Vec<Option<AmHandler>>,
    alloc_next: u64,
    am_region: u64,
    san: Option<Sanitizer>,
}

impl SplitC {
    /// Builds a runtime over a freshly constructed machine with the
    /// default (paper) Split-C configuration.
    pub fn new(mcfg: MachineConfig) -> Self {
        Self::with_config(mcfg, SplitcConfig::t3d())
    }

    /// Builds a runtime with an explicit Split-C configuration. The
    /// `T3D_SAN` environment variable overrides `cfg.sanitize`
    /// (`1`/`collect`, `2`/`panic`, `0`/`off`).
    pub fn with_config(mcfg: MachineConfig, cfg: SplitcConfig) -> Self {
        let mut cfg = cfg;
        cfg.sanitize = SanitizeMode::effective(cfg.sanitize);
        let m = Machine::new(mcfg);
        let n = m.nodes();
        let annex_regs = mcfg.shell.annex_entries;
        let am_region = mcfg.mem.mem_bytes as u64 - cfg.am_slots * AM_SLOT_BYTES;
        let mut handlers: Vec<Option<AmHandler>> = vec![None; AM_USER_BASE as usize];
        handlers[AM_BYTE_WRITE as usize] = Some(|cpu, args| {
            cpu.poke_mem(args[0], &[args[1] as u8]);
        });
        handlers[AM_ADD_U64 as usize] = Some(|cpu, args| {
            let v = cpu.peek8(args[0]).wrapping_add(args[1]);
            cpu.poke8(args[0], v);
        });
        handlers[AM_WRITE_U32 as usize] = Some(|cpu, args| {
            cpu.poke_mem(args[0], &(args[1] as u32).to_le_bytes());
        });
        let san = cfg
            .sanitize
            .is_on()
            .then(|| Sanitizer::with_line_bytes(n, cfg.sanitize, mcfg.mem.l1.line as u64));
        SplitC {
            rts: (0..n).map(|_| NodeRt::new(&cfg, annex_regs)).collect(),
            handlers,
            alloc_next: 0x100, // leave a null page
            am_region,
            cfg,
            m,
            san,
        }
    }

    /// The Split-C configuration in force.
    pub fn config(&self) -> &SplitcConfig {
        &self.cfg
    }

    /// The underlying machine.
    pub fn machine(&mut self) -> &mut Machine {
        &mut self.m
    }

    /// Immutable machine access.
    pub fn machine_ref(&self) -> &Machine {
        &self.m
    }

    /// Number of processors.
    pub fn nodes(&self) -> usize {
        self.m.nodes()
    }

    /// Base offset of the AM-equivalent queue region (instrumentation).
    pub fn am_region(&self) -> u64 {
        self.am_region
    }

    /// Allocates `bytes` at the same local offset on *every* node (the
    /// symmetric heap backing spread arrays and statics). Returns the
    /// offset.
    ///
    /// # Panics
    ///
    /// Panics if the heap would collide with the AM queue region, or if
    /// `align` is not a power of two.
    pub fn alloc(&mut self, bytes: u64, align: u64) -> u64 {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let base = (self.alloc_next + align - 1) & !(align - 1);
        assert!(
            base + bytes <= self.am_region,
            "symmetric heap exhausted: {} + {} > {}",
            base,
            bytes,
            self.am_region
        );
        self.alloc_next = base + bytes;
        base
    }

    /// Registers an application AM-equivalent handler under `id`
    /// (≥ [`AM_USER_BASE`]). Returns the id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is reserved or already taken.
    pub fn register_handler(&mut self, id: u64, handler: AmHandler) -> u64 {
        assert!(
            id >= AM_USER_BASE,
            "handler ids below {AM_USER_BASE} are reserved"
        );
        let idx = id as usize;
        if self.handlers.len() <= idx {
            self.handlers.resize(idx + 1, None);
        }
        assert!(
            self.handlers[idx].is_none(),
            "handler {id} already registered"
        );
        self.handlers[idx] = Some(handler);
        id
    }

    /// Runs one SPMD phase: the closure executes once per node in node
    /// order, against a [`ScCtx`].
    pub fn run_phase<F: FnMut(&mut ScCtx)>(&mut self, mut f: F) {
        for pe in 0..self.m.nodes() {
            self.on(pe, |ctx| f(ctx));
        }
        for rt in &mut self.rts {
            rt.rec.push(RecEvent::PhaseEnd);
        }
    }

    /// Runs one SPMD phase through the sharded engine, with the driver
    /// chosen by the `T3D_PAR` environment variable (see
    /// [`PhaseDriver::from_env`]): nodes execute concurrently on a
    /// thread pool, bit-identical to the sequential shard order.
    ///
    /// Unlike [`SplitC::run_phase`], the closure is `Fn + Sync` and may
    /// not use [`ScCtx::machine`] — only the per-node Split-C
    /// operations. See the `t3d_machine::phase` docs for the
    /// bulk-synchronous contract phase bodies must follow.
    pub fn par_phase(&mut self, f: impl Fn(&mut ScCtx) + Sync) {
        self.par_phase_with(PhaseDriver::from_env(), f);
    }

    /// [`SplitC::par_phase`] with an explicit driver (e.g.
    /// [`PhaseDriver::Seq`] as the determinism oracle).
    /// Panics from phase bodies (and the sanitizer's panic mode)
    /// propagate only after the per-node runtime state is restored: the
    /// runtime stays in a defined state, usable for further phases.
    pub fn par_phase_with(&mut self, driver: PhaseDriver, f: impl Fn(&mut ScCtx) + Sync) {
        let mut rts = std::mem::take(&mut self.rts);
        let result = {
            let cfg = &self.cfg;
            let handlers = &self.handlers;
            let am_region = self.am_region;
            let m = &mut self.m;
            let rts = &mut rts;
            catch_unwind(AssertUnwindSafe(move || {
                m.sharded_phase_zip(driver, rts, |cpu, rt| {
                    let mut ctx = ScCtx {
                        m: cpu.reborrow(),
                        rt,
                        cfg,
                        handlers,
                        am_region,
                    };
                    f(&mut ctx);
                });
            }))
        };
        self.rts = rts;
        for rt in &mut self.rts {
            rt.rec.push(RecEvent::PhaseEnd);
        }
        self.drain_san_logs();
        match result {
            Ok(()) => self.san_check(),
            Err(p) => resume_unwind(p),
        }
    }

    /// Runs a closure as node `pe` (single-node probes and setup).
    ///
    /// The closure works on the node's runtime state in place, so a call
    /// costs no allocation: the SPMD driver calls this once per PE on
    /// every [`run_phase`](Self::run_phase), barrier and collective step.
    /// Panics from the closure (and the sanitizer's panic mode)
    /// propagate only after the unwind is caught and the sanitizer logs
    /// are drained — the runtime stays usable, with every counter where
    /// the program actually got.
    pub fn on<R>(&mut self, pe: usize, f: impl FnOnce(&mut ScCtx) -> R) -> R {
        let result = {
            let mut ctx = ScCtx {
                m: Cpu::new(&mut self.m, pe),
                rt: &mut self.rts[pe],
                cfg: &self.cfg,
                handlers: &self.handlers,
                am_region: self.am_region,
            };
            catch_unwind(AssertUnwindSafe(move || f(&mut ctx)))
        };
        self.drain_san_logs();
        match result {
            Ok(r) => {
                self.san_check();
                r
            }
            Err(p) => resume_unwind(p),
        }
    }

    /// Enables or disables op recording on every node (see the
    /// [`crate::record`] module docs). Enabling does not clear an
    /// existing log; use [`SplitC::take_op_log`] to drain it.
    pub fn record_ops(&mut self, on: bool) {
        for rt in &mut self.rts {
            rt.rec.enabled = on;
        }
    }

    /// Drains and returns every node's recorded stream (index = PE).
    pub fn take_op_log(&mut self) -> Vec<Vec<RecEvent>> {
        self.rts
            .iter_mut()
            .map(|rt| std::mem::take(&mut rt.rec.events))
            .collect()
    }

    /// Global barrier: drains every node's AM-equivalent queue (so
    /// deposited handlers run), fences all writes and aligns all clocks.
    pub fn barrier(&mut self) {
        for rt in &mut self.rts {
            rt.rec.push(RecEvent::Barrier);
        }
        for pe in 0..self.m.nodes() {
            self.on(pe, |ctx| ctx.am_poll());
        }
        self.m.barrier_all();
        if let Some(san) = &mut self.san {
            san.global_barrier();
            san.check();
        }
    }

    /// `all_store_sync`: returns when all stores issued before it have
    /// completed, machine-wide (Section 7.1) — a fence plus
    /// acknowledgement wait on every node, then the hardware barrier.
    pub fn all_store_sync(&mut self) {
        for rt in &mut self.rts {
            rt.rec.push(RecEvent::AllStoreSync);
        }
        for pe in 0..self.m.nodes() {
            let mut cpu = Cpu::new(&mut self.m, pe);
            cpu.memory_barrier();
            cpu.wait_write_acks();
            cpu.advance(self.cfg.store_sync_check_cy);
        }
        self.barrier();
    }

    /// Drains every node's sanitizer event log into the analyzer,
    /// merged by `(time, pe, seq)` — the same total order the sharded
    /// phase engine imposes on its effect log, so sequential and
    /// parallel drivers analyze an identical stream.
    fn drain_san_logs(&mut self) {
        if let Some(san) = &mut self.san {
            let logs: Vec<Vec<SanEvent>> = self.rts.iter_mut().map(|rt| rt.san.drain()).collect();
            san.ingest_logs(logs);
        }
    }

    /// In panic mode, aborts on findings not yet reported (the runtime
    /// is in a defined state by the time this runs).
    fn san_check(&mut self) {
        if let Some(san) = &mut self.san {
            san.check();
        }
    }

    /// The hazard analyzer's findings so far, or `None` when the
    /// sanitizer is off. Call after draining phases (findings are
    /// ingested at `on`/phase exits and barriers).
    pub fn san_report(&self) -> Option<Report> {
        self.san.as_ref().map(|s| s.report())
    }

    /// The analyzer itself (`None` when off).
    pub fn sanitizer(&self) -> Option<&Sanitizer> {
        self.san.as_ref()
    }

    /// A node's operation counters.
    pub fn stats(&self, pe: usize) -> RtStats {
        self.rts[pe].stats
    }

    /// The maximum clock across nodes (elapsed virtual time).
    pub fn max_clock(&self) -> u64 {
        (0..self.m.nodes())
            .map(|pe| self.m.clock(pe))
            .max()
            .unwrap_or(0)
    }
}

/// The per-node Split-C execution context: what a compiled Split-C
/// function body sees.
pub struct ScCtx<'a> {
    pub(crate) m: Cpu<'a>,
    pub(crate) rt: &'a mut NodeRt,
    pub(crate) cfg: &'a SplitcConfig,
    pub(crate) handlers: &'a [Option<AmHandler>],
    pub(crate) am_region: u64,
}

impl<'a> ScCtx<'a> {
    /// This node's id (`MYPROC` in Split-C).
    pub fn pe(&self) -> usize {
        self.m.pe()
    }

    /// Number of processors (`PROCS` in Split-C).
    pub fn nodes(&self) -> usize {
        self.m.nodes()
    }

    /// This node's virtual time in cycles.
    pub fn clock(&self) -> u64 {
        self.m.clock()
    }

    /// This node's virtual time in nanoseconds.
    pub fn clock_ns(&self) -> f64 {
        self.m.clock_ns()
    }

    /// Charges local computation cycles.
    pub fn advance(&mut self, cycles: u64) {
        self.m.advance(cycles);
    }

    /// The underlying machine (escape hatch for probes).
    ///
    /// # Panics
    ///
    /// Panics inside a sharded phase ([`SplitC::par_phase`]), where
    /// whole-machine access would break shard isolation; use the per-op
    /// methods instead.
    pub fn machine(&mut self) -> &mut Machine {
        self.m.machine()
    }

    /// This node's [`Cpu`]: machine ops issued as this node.
    pub fn ops(&mut self) -> &mut Cpu<'a> {
        &mut self.m
    }

    /// The runtime state of this node (instrumentation).
    pub fn rt(&self) -> &NodeRt {
        self.rt
    }

    /// Records one sanitizer event stamped with this node's clock
    /// (free when the sanitizer is off; never touches the machine).
    pub(crate) fn san_emit(&mut self, op: SanOp, source: &'static str) {
        if self.rt.san.is_enabled() {
            let t = self.m.clock();
            self.rt.san.push(self.pe() as u32, t, op, source);
        }
    }

    /// Records one op on this node's stream (free when recording is
    /// off). Called at the entry of every leaf runtime primitive.
    #[inline]
    pub(crate) fn rec(&mut self, op: ScOp) {
        self.rt.rec.push(RecEvent::Op(op));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sc() -> SplitC {
        SplitC::new(MachineConfig::t3d(4))
    }

    #[test]
    fn alloc_is_symmetric_and_aligned() {
        let mut s = sc();
        let a = s.alloc(100, 8);
        let b = s.alloc(8, 64);
        assert_eq!(a % 8, 0);
        assert_eq!(b % 64, 0);
        assert!(b >= a + 100);
    }

    #[test]
    #[should_panic(expected = "symmetric heap exhausted")]
    fn alloc_cannot_reach_am_region() {
        let mut s = sc();
        let huge = s.m.config().mem.mem_bytes as u64;
        s.alloc(huge, 8);
    }

    #[test]
    fn run_phase_visits_all_nodes_in_order() {
        let mut s = sc();
        let mut seen = Vec::new();
        s.run_phase(|ctx| seen.push(ctx.pe()));
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn on_returns_a_value() {
        let mut s = sc();
        let v = s.on(2, |ctx| ctx.pe() * 10);
        assert_eq!(v, 20);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn reserved_handler_ids_rejected() {
        let mut s = sc();
        s.register_handler(0, |_, _| {});
    }

    #[test]
    fn par_phase_matches_its_sequential_oracle() {
        use crate::gptr::GlobalPtr;
        let run = |driver: PhaseDriver| {
            let mut s = sc();
            let buf = s.alloc(64, 8);
            let mut out = Vec::new();
            s.par_phase_with(driver, |ctx| {
                let right = ((ctx.pe() + 1) % ctx.nodes()) as u32;
                ctx.put(GlobalPtr::new(right, buf), 500 + ctx.pe() as u64);
                ctx.sync();
            });
            s.barrier();
            s.run_phase(|ctx| {
                let left = (ctx.pe() + ctx.nodes() - 1) % ctx.nodes();
                let pe = ctx.pe();
                assert_eq!(ctx.machine().peek8(pe, buf), 500 + left as u64);
            });
            for pe in 0..4 {
                out.push(s.machine_ref().clock(pe));
            }
            out
        };
        assert_eq!(run(PhaseDriver::Seq), run(PhaseDriver::Par(4)));
    }

    #[test]
    #[should_panic(expected = "not available inside a sharded phase")]
    fn whole_machine_access_is_denied_in_a_sharded_phase() {
        let mut s = sc();
        s.par_phase_with(PhaseDriver::Seq, |ctx| {
            if ctx.pe() == 0 {
                let _ = ctx.machine();
            }
        });
    }

    #[test]
    fn barrier_aligns_clocks() {
        let mut s = sc();
        s.run_phase(|ctx| ctx.advance(ctx.pe() as u64 * 100));
        s.barrier();
        let clocks: Vec<u64> = (0..4).map(|pe| s.machine_ref().clock(pe)).collect();
        assert!(clocks.windows(2).all(|w| w[0] == w[1]));
    }
}
