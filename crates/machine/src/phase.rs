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
//! No op is written here. A shard runs the one op core of
//! `ops.rs` — the same bodies the direct engine runs — and
//! [`PhasePe`] supplies only its state and the core's `Logged`
//! remote-target policy: price a remote target against the overlays and
//! log a `TimedEffect`. The phase closure reaches its shard through a
//! [`Cpu`] the driver binds to the shard's own PE, so it cannot issue
//! ops as another PE. Sharded phases record no per-op
//! [`TraceKind`](crate::TraceKind) events: the tracer belongs to the
//! machine, which a shard cannot reach.
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
//! discipline the paper's benchmarks use (and Split-C's phase driver
//! assumes):
//! within a phase, no node may read a location that another node writes
//! in the same phase — communication produced in phase *k* is consumed
//! in phase *k + 1*, after a barrier. Under that contract the sharded
//! engine differs from the direct engine only in second-order timing
//! (a shard sees other nodes' DRAM-page and shell-occupancy state as of
//! phase start rather than live). Those deviations live in the `Logged`
//! policy alone; they are deterministic and identical under both
//! sharded drivers. With one active PE there is nothing to deviate, and
//! `tests/direct_vs_shard.rs` pins the two engines equal.
//!
//! Three accesses panic inside a sharded phase: `atomic_swap` on a
//! *remote* PE (swap-based locks serialize by nature; take them through
//! [`Machine`] directly), [`Cpu::machine`], and a read of another PE's
//! node ([`Cpu::node_of`]). A remote `fetch_inc` returns the
//! phase-start value plus this shard's own increments — concurrent
//! increments from *other* shards are merged afterwards, so tickets are
//! only unique per shard within one phase.

use crate::config::MachineConfig;
use crate::cpu::Cpu;
use crate::machine::Machine;
use crate::node::{Node, NodeHot};
use crate::ops::{Deposit, Effect, OpCore, TimedEffect};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;
use t3d_memsys::{Dram, MemArena};
use t3d_shell::FetchIncRegs;
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

/// One PE's shard of a sharded phase: it owns its node exclusively and
/// runs the op core under the `Logged` policy. The phase closure drives
/// it through a [`Cpu`] bound to the shard's PE.
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
}

/// The `Logged` policy: a remote target is priced against this shard's
/// copy-on-touch overlays of the phase-entry snapshot, and every effect
/// on it is logged for the merge.
impl OpCore for PhasePe<'_> {
    fn cfg(&self) -> &MachineConfig {
        &self.sh.cfg
    }
    fn torus(&self) -> &Torus {
        &self.sh.torus
    }
    fn pe_count(&self) -> usize {
        self.sh.mems.len()
    }
    fn parts(&mut self, pe: usize) -> (&mut Node, &mut NodeHot) {
        debug_assert_eq!(pe, self.pe, "a shard acts on its own node only");
        (self.node, self.hot)
    }
    fn part(&self, pe: usize) -> (&Node, &NodeHot) {
        assert_eq!(
            pe, self.pe,
            "a sharded phase closure may only read its own node (got {pe}, shard owns {})",
            self.pe
        );
        (self.node, self.hot)
    }
    fn link_busy(&self, l: usize) -> u64 {
        self.rlink.get(&l).copied().unwrap_or(self.sh.links[l])
    }
    fn set_link_busy(&mut self, l: usize, until: u64) {
        self.rlink.insert(l, until);
    }
    fn remote_busy(&mut self, target: usize) -> &mut u64 {
        self.rbusy.entry(target).or_insert(self.sh.busy[target])
    }
    fn remote_dram(&mut self, target: usize) -> &mut Dram {
        let sh = self.sh;
        self.rdram
            .entry(target)
            .or_insert_with(|| sh.dram[target].clone())
    }
    fn remote_arena(&self, target: usize) -> &Arc<MemArena> {
        &self.sh.mems[target]
    }
    fn remote_read(&mut self, target: usize, off: u64, buf: &mut [u8]) -> u64 {
        let dram = self.remote_dram(target).access(off);
        self.sh.mems[target].read(off, buf);
        dram
    }
    fn remote_write(&mut self, target: usize, off: u64, _data: &[u8], _mask: u64) -> u64 {
        self.remote_dram(target).access(off)
    }
    fn remote_fetch_inc(&mut self, target: usize, reg: usize) -> u64 {
        let bumps = self.finc_bumps.entry(target).or_default();
        let ticket = self.sh.finc[target].get(reg) + bumps[reg];
        bumps[reg] += 1;
        ticket
    }
    fn remote_swap(&mut self, _pe: usize, _target: usize, _off: u64) -> (u64, u64) {
        panic!(
            "atomic_swap on a remote PE is not supported inside a sharded phase \
             (swap-based locks serialize; take them through the direct engine)"
        )
    }
    fn remote_effect(&mut self, e: TimedEffect) {
        self.effects.push(e);
    }
    fn remote_deposit(&mut self, _pe: usize, d: Deposit) {
        let mut data = vec![0u8; d.len as usize];
        self.node.port.peek_mem(d.src, &mut data);
        self.effects.push(TimedEffect {
            time: d.time,
            target: d.target as u32,
            busy: None,
            link: d.link,
            eff: Effect::Poke { off: d.dst, data },
        });
    }
}

fn run_shard<T>(
    pe: usize,
    node: &mut Node,
    hot: &mut NodeHot,
    sh: &PhaseShared,
    state: &mut T,
    f: &(impl Fn(&mut Cpu, &mut T) + Sync),
) -> Vec<TimedEffect> {
    let mut shard = PhasePe::new(pe, node, hot, sh);
    f(&mut Cpu { m: &mut shard, pe }, state);
    shard.effects
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
    f: &(impl Fn(&mut Cpu, &mut T) + Sync),
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
        self.sharded_phase_zip(driver, &mut unit, |cpu, ()| f(cpu));
    }

    /// Runs one sharded SPMD phase with per-PE state: `states[pe]` is
    /// handed to the closure alongside the [`Cpu`] of PE `pe`'s shard.
    /// This is the building block runtimes (Split-C) use to carry their
    /// own per-node structures through a parallel phase.
    ///
    /// # Panics
    ///
    /// Panics if `states.len()` differs from the number of PEs.
    pub fn sharded_phase_zip<T: Send>(
        &mut self,
        driver: PhaseDriver,
        states: &mut [T],
        f: impl Fn(&mut Cpu, &mut T) + Sync,
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
                        let _ = OpCore::link_contend(self, key.1 as usize, t, ready, occ);
                    }
                }
            }
            let (node, hot) = OpCore::parts(self, t);
            for key in run {
                apply_effect(node, hot, effect(key), line, contention);
            }
        }
    }
}

/// Applies one merged shard effect to its target node: the DRAM,
/// fetch&increment and shell-occupancy replay the shard priced against
/// its overlays, then the deposit.
fn apply_effect(
    node: &mut Node,
    hot: &mut NodeHot,
    e: &TimedEffect,
    line: usize,
    contention: bool,
) {
    match &e.eff {
        Effect::Write {
            off, data, mask, ..
        } => {
            let _ = node
                .port
                .service_remote_write(*off, &data[..line], Some(*mask));
        }
        Effect::DramTouch { off } => {
            let _ = node.port.dram_mut().access(*off);
        }
        Effect::FetchInc { reg } => {
            let _ = node.fetchinc.fetch_inc(*reg);
        }
        Effect::Poke { .. } | Effect::Msg(_) | Effect::LinkReserve => {}
    }
    e.eff.deposit(node);
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
        let mut cpu = Cpu::new(&mut m, 0);
        cpu.advance(1_000_000);
        let mut froms = Vec::new();
        while let Some(msg) = cpu.msg_receive() {
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
        let mut cpu = Cpu::new(&mut m, 1);
        for _ in 0..5 {
            let _ = cpu.fetch_inc(0, 0);
        }
        m.barrier_all();
        let mut seen = vec![Seen::default(); 4];
        m.sharded_phase_zip(driver, &mut seen, |cpu, seen| {
            if !active.contains(&cpu.pe()) {
                return;
            }
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
            let f = |cpu: &mut Cpu, (): &mut ()| tied_deposits(cpu);
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

    /// Runs `f` as PE 0 of a 2-PE sharded phase, with PE 1's swap word
    /// at 0x100 reachable through annex register 1.
    fn shard_of_pe0(f: impl Fn(&mut Cpu) + Sync) {
        let mut m = Machine::new(MachineConfig::t3d(2));
        m.sharded_phase(PhaseDriver::Seq, |cpu| {
            if cpu.pe() == 0 {
                cpu.annex_set(1, 1, t3d_shell::FuncCode::Swap);
                f(cpu);
            }
        });
    }

    #[test]
    #[should_panic(expected = "whole-machine access is not available inside a sharded phase")]
    fn shard_denies_whole_machine_access() {
        shard_of_pe0(|cpu| {
            let _ = cpu.machine();
        });
    }

    #[test]
    #[should_panic(expected = "atomic_swap on a remote PE is not supported inside a sharded phase")]
    fn shard_denies_remote_swap() {
        shard_of_pe0(|cpu| {
            let _ = cpu.atomic_swap(cpu.va(1, 0x100));
        });
    }

    #[test]
    #[should_panic(expected = "may only read its own node (got 1, shard owns 0)")]
    fn shard_denies_foreign_node_reads() {
        shard_of_pe0(|cpu| {
            let _ = cpu.node_of(1);
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
