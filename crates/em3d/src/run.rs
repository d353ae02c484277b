//! The six EM3D versions and the Figure 9 sweep.
//!
//! All versions compute bit-identical values (verified against a host
//! reference on every run); they differ only in *how* remote H/E values
//! reach the consumer, which is the whole point of the study.

use crate::graph::{Em3dGraph, Em3dParams, Endpoint};
use splitc::{GlobalPtr, RecEvent, Report, SanitizeMode, SplitC, SplitcConfig};
use t3d_machine::{MachineConfig, OpStats, PerfMode, PerfReport, PhaseDriver};

/// Which optimization level to run (Section 8, in paper order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Version {
    /// Blocking read per edge, duplicates re-fetched.
    Simple,
    /// Ghost nodes + separated phases (blocking ghost fill).
    Bundle,
    /// Bundle plus unrolled/software-pipelined compute.
    Unroll,
    /// Ghost fill pipelined with split-phase gets.
    Get,
    /// Producers push ghost values with puts.
    Put,
    /// Per-destination gather + one bulk transfer per source.
    Bulk,
    /// Extension beyond the paper's six: message-driven execution —
    /// producers push with one-way signaling stores and consumers wait
    /// with `storeSync`, eliding the global barrier (Section 7.1's
    /// second completion style).
    StoreSync,
}

impl Version {
    /// All versions including the message-driven extension.
    pub fn all() -> [Version; 7] {
        [
            Version::Simple,
            Version::Bundle,
            Version::Unroll,
            Version::Get,
            Version::Put,
            Version::Bulk,
            Version::StoreSync,
        ]
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Version::Simple => "Simple",
            Version::Bundle => "Bundle",
            Version::Unroll => "Unroll",
            Version::Get => "Get",
            Version::Put => "Put",
            Version::Bulk => "Bulk",
            Version::StoreSync => "StoreSync",
        }
    }

    /// Per-edge loop overhead (cycles) of the compute phase. `Simple`
    /// pays naive gcc codegen; `Bundle` separates communication from
    /// computation, which alone improves the generated loop; the
    /// remaining versions add unrolling and software pipelining.
    fn loop_cy(self) -> u64 {
        match self {
            Version::Simple => 20,
            Version::Bundle => 14,
            _ => 8,
        }
    }
}

/// Cycles charged for the two floating-point operations per edge (the
/// multiply-add chain is not dual-issued with the loads on the 21064).
const FLOP_CY: u64 = 24;
/// Per-node bookkeeping (index load, final store setup).
const NODE_CY: u64 = 10;

/// Result of one EM3D run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Em3dResult {
    /// Average time per edge, microseconds (the Figure 9 y-axis).
    pub us_per_edge: f64,
    /// Total edges processed per PE over the measured steps.
    pub edges: u64,
    /// Elapsed virtual cycles over the measured steps.
    pub cycles: u64,
    /// Machine-wide operation counters over the measured steps (the
    /// communication breakdown behind the curve).
    pub ops: OpStats,
    /// FNV-1a hash of the per-PE virtual clocks at the end of the
    /// measured steps (before the verification fence) — a determinism
    /// fingerprint: two runs agree on every node's timing iff the
    /// hashes match.
    pub clock_fnv: u64,
    /// FNV-1a checksum over the settled working set and virtual clocks
    /// after the post-measurement fence (via `Machine::region_fnv64`)
    /// — the state fingerprint the throughput bench gates on, so a
    /// fast-but-wrong engine fails the run.
    pub mem_fnv: u64,
}

/// One source's contiguous slice of a consumer's ghost region.
#[derive(Debug, Clone)]
struct BulkRegion {
    src: u32,
    first_slot: u64,
    /// H/E indices at the source, in slot order.
    indices: Vec<u32>,
    /// Byte offset of this slice in the source's send buffer.
    src_off: u64,
}

/// Communication plan for one half step (E-update or H-update).
#[derive(Debug, Clone)]
struct HalfPlan {
    /// Consumer PE -> ghost slot of each edge, in `deps` order (node by
    /// node, edge by edge); [`LOCAL_EDGE`] for an edge to a local node.
    edge_slot: Vec<Vec<u32>>,
    /// Consumer PE -> regions grouped by source.
    regions: Vec<Vec<BulkRegion>>,
    /// Producer PE -> (consumer, my index, consumer slot).
    push_list: Vec<Vec<(u32, u32, u64)>>,
    /// Producer PE -> (consumer, my send-buffer byte offset, indices).
    gather_list: Vec<Vec<(u32, u64, Vec<u32>)>>,
}

/// [`HalfPlan::edge_slot`] entry of an edge whose endpoint is local.
const LOCAL_EDGE: u32 = u32::MAX;

impl HalfPlan {
    fn build(deps: &[Vec<Vec<Endpoint>>], nprocs: u32) -> Self {
        let n = nprocs as usize;
        // Ghost slot of each endpoint (`pe * npp + idx`) of the consumer
        // being planned, or `UNSEEN`; reset after each consumer, as are
        // the per-source lists, so both are allocated once.
        const UNSEEN: u32 = u32::MAX;
        let npp = deps.iter().map(Vec::len).max().unwrap_or(0);
        let mut slot_of = vec![UNSEEN; n * npp];
        let mut per_src: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut edge_slot = Vec::with_capacity(n);
        let mut regions: Vec<Vec<BulkRegion>> = vec![Vec::new(); n];
        for c in 0..n {
            // Unique remote endpoints, grouped by source PE, first-seen
            // order within each source.
            for ep in deps[c].iter().flatten() {
                let key = ep.pe as usize * npp + ep.idx as usize;
                if ep.pe as usize != c && slot_of[key] == UNSEEN {
                    slot_of[key] = 0;
                    per_src[ep.pe as usize].push(ep.idx);
                }
            }
            let mut slot = 0u64;
            for (s, indices) in per_src.iter().enumerate() {
                if indices.is_empty() {
                    continue;
                }
                for (k, &idx) in indices.iter().enumerate() {
                    let ghost = u32::try_from(slot + k as u64).expect("ghost slot fits u32");
                    slot_of[s * npp + idx as usize] = ghost;
                }
                regions[c].push(BulkRegion {
                    src: s as u32,
                    first_slot: slot,
                    src_off: 0, // fixed up below
                    indices: indices.clone(),
                });
                slot += indices.len() as u64;
            }
            edge_slot.push(
                deps[c]
                    .iter()
                    .flatten()
                    .map(|ep| {
                        if ep.pe as usize == c {
                            LOCAL_EDGE
                        } else {
                            slot_of[ep.pe as usize * npp + ep.idx as usize]
                        }
                    })
                    .collect(),
            );
            for (s, indices) in per_src.iter_mut().enumerate() {
                for &idx in indices.iter() {
                    slot_of[s * npp + idx as usize] = UNSEEN;
                }
                indices.clear();
            }
        }
        // Send-buffer offsets at each source: consumers in PE order.
        let mut send_cursor = vec![0u64; n];
        for consumer_regions in &mut regions {
            for r in consumer_regions.iter_mut() {
                r.src_off = send_cursor[r.src as usize];
                send_cursor[r.src as usize] += r.indices.len() as u64 * 8;
            }
        }
        // Producer-side views.
        let mut push_list: Vec<Vec<(u32, u32, u64)>> = vec![Vec::new(); n];
        let mut gather_list: Vec<Vec<(u32, u64, Vec<u32>)>> = vec![Vec::new(); n];
        for (c, consumer_regions) in regions.iter().enumerate() {
            for r in consumer_regions {
                for (k, idx) in r.indices.iter().enumerate() {
                    push_list[r.src as usize].push((c as u32, *idx, r.first_slot + k as u64));
                }
                gather_list[r.src as usize].push((c as u32, r.src_off, r.indices.clone()));
            }
        }
        HalfPlan {
            edge_slot,
            regions,
            push_list,
            gather_list,
        }
    }
}

/// Symmetric memory layout.
#[derive(Debug, Clone, Copy)]
struct Layout {
    e_vals: u64,
    h_vals: u64,
    e_w: u64,
    h_w: u64,
    /// Adjacency lists: one packed endpoint word per edge, loaded during
    /// the compute phase exactly as the pointer-based graph walk does.
    e_adj: u64,
    h_adj: u64,
    ghost_h: u64,
    ghost_e: u64,
    send: u64,
}

fn initial_e(p: usize, i: usize) -> f64 {
    (p as f64 * 1000.0 + i as f64) * 1.0e-3 + 1.0
}

fn initial_h(p: usize, i: usize) -> f64 {
    (p as f64 * 1000.0 + i as f64) * 2.0e-3 + 2.0
}

fn weight(j: usize) -> f64 {
    1.0 / (j as f64 + 2.0)
}

fn pack_endpoint(ep: Endpoint) -> u64 {
    ((ep.pe as u64) << 32) | ep.idx as u64
}

/// Host reference: runs `steps` leapfrog steps and returns the final E
/// and H values per PE.
#[allow(clippy::needless_range_loop)] // index-parallel updates read clearest
fn reference(g: &Em3dGraph, steps: usize) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let n = g.nprocs as usize;
    let npp = g.params.nodes_per_pe;
    let mut e: Vec<Vec<f64>> = (0..n)
        .map(|p| (0..npp).map(|i| initial_e(p, i)).collect())
        .collect();
    let mut h: Vec<Vec<f64>> = (0..n)
        .map(|p| (0..npp).map(|i| initial_h(p, i)).collect())
        .collect();
    for _ in 0..steps {
        let mut e2 = e.clone();
        for p in 0..n {
            for i in 0..npp {
                let mut acc = 0.0;
                for (j, ep) in g.e_deps[p][i].iter().enumerate() {
                    acc += weight(j) * h[ep.pe as usize][ep.idx as usize];
                }
                e2[p][i] = acc;
            }
        }
        e = e2;
        let mut h2 = h.clone();
        for p in 0..n {
            for i in 0..npp {
                let mut acc = 0.0;
                for (j, ep) in g.h_deps[p][i].iter().enumerate() {
                    acc += weight(j) * e[ep.pe as usize][ep.idx as usize];
                }
                h2[p][i] = acc;
            }
        }
        h = h2;
    }
    (e, h)
}

/// One half step of the leapfrog: the E half reads H values and
/// updates E, the H half the reverse. Both run the same phase sequence
/// over their own slice of the [`Layout`].
struct Half<'a> {
    /// Profiler label of the communication phases.
    comm: &'static str,
    /// Profiler label of the compute phase.
    compute: &'static str,
    plan: HalfPlan,
    /// Per PE, per updated node: the endpoints it reads.
    deps: &'a [Vec<Vec<Endpoint>>],
    /// Values this half updates.
    dst: u64,
    /// Values it reads, locally or from their owners.
    src: u64,
    weights: u64,
    adj: u64,
    /// Where the remote `src` values are cached on the consumer.
    ghost: u64,
    send: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CommPhase {
    Push,
    Pull,
}

/// Fills the ghost region for one half step on one node, using the
/// version's communication mechanism.
fn fill_ghosts(ctx: &mut splitc::ScCtx<'_>, version: Version, h: &Half, phase: CommPhase) {
    let pe = ctx.pe();
    match (version, phase) {
        (Version::Bundle | Version::Unroll, CommPhase::Pull) => {
            for regions in &h.plan.regions[pe] {
                for (k, idx) in regions.indices.iter().enumerate() {
                    let gp = GlobalPtr::new(regions.src, h.src + *idx as u64 * 8);
                    let v = ctx.read_u64(gp);
                    ctx.ops()
                        .st8(h.ghost + (regions.first_slot + k as u64) * 8, v);
                }
            }
        }
        (Version::Get, CommPhase::Pull) => {
            for regions in &h.plan.regions[pe] {
                for (k, idx) in regions.indices.iter().enumerate() {
                    let gp = GlobalPtr::new(regions.src, h.src + *idx as u64 * 8);
                    ctx.get(h.ghost + (regions.first_slot + k as u64) * 8, gp);
                }
            }
            ctx.sync();
        }
        (Version::Put, CommPhase::Push) => {
            for &(consumer, my_idx, slot) in &h.plan.push_list[pe] {
                let v = ctx.ops().ld8(h.src + my_idx as u64 * 8);
                ctx.put(GlobalPtr::new(consumer, h.ghost + slot * 8), v);
            }
            ctx.sync();
        }
        (Version::StoreSync, CommPhase::Push) => {
            // One-way signaling stores: no acknowledgement wait, just a
            // fence so everything leaves the processor (and gets its
            // arrival logged at the consumers).
            for &(consumer, my_idx, slot) in &h.plan.push_list[pe] {
                let v = ctx.ops().ld8(h.src + my_idx as u64 * 8);
                ctx.store_u64(GlobalPtr::new(consumer, h.ghost + slot * 8), v);
            }
            ctx.ops().memory_barrier();
        }
        (Version::StoreSync, CommPhase::Pull) => {
            // Message-driven completion: wait for exactly the ghost
            // bytes this half step owes us.
            let expected: u64 = h.plan.regions[pe]
                .iter()
                .map(|r| r.indices.len() as u64 * 8)
                .sum();
            ctx.store_sync(expected);
        }
        (Version::Bulk, CommPhase::Push) => {
            // Gather values destined for each consumer into the send
            // buffer (local copies).
            for (_, src_off, indices) in &h.plan.gather_list[pe] {
                for (k, idx) in indices.iter().enumerate() {
                    let v = ctx.ops().ld8(h.src + *idx as u64 * 8);
                    ctx.ops().st8(h.send + src_off + k as u64 * 8, v);
                }
            }
            ctx.ops().memory_barrier();
        }
        (Version::Bulk, CommPhase::Pull) => {
            for region in &h.plan.regions[pe] {
                let bytes = region.indices.len() as u64 * 8;
                ctx.bulk_get(
                    h.ghost + region.first_slot * 8,
                    GlobalPtr::new(region.src, h.send + region.src_off),
                    bytes,
                );
            }
            ctx.sync();
        }
        _ => {}
    }
}

/// One compute half step on one node: update `h.dst` from neighbour
/// values (`h.src` locally, ghosts or blocking reads remotely).
fn compute_half(ctx: &mut splitc::ScCtx<'_>, version: Version, h: &Half) {
    let pe = ctx.pe();
    let mut slots = h.plan.edge_slot[pe].iter();
    for (i, node) in h.deps[pe].iter().enumerate() {
        let mut acc = 0.0f64;
        ctx.advance(NODE_CY);
        for (j, ep) in node.iter().enumerate() {
            let slot = *slots.next().expect("one slot per edge");
            // The graph is pointer-based: each edge costs a load of the
            // neighbour's (packed) global pointer from the edge list.
            let packed = ctx.ops().ld8(h.adj + (i * node.len() + j) as u64 * 8);
            debug_assert_eq!(packed, pack_endpoint(*ep), "adjacency list layout");
            let w = f64::from_bits(ctx.ops().ld8(h.weights + (i * node.len() + j) as u64 * 8));
            let v = if ep.pe as usize == pe {
                f64::from_bits(ctx.ops().ld8(h.src + ep.idx as u64 * 8))
            } else if version == Version::Simple {
                f64::from_bits(ctx.read_u64(GlobalPtr::new(ep.pe, h.src + ep.idx as u64 * 8)))
            } else {
                debug_assert_ne!(slot, LOCAL_EDGE);
                f64::from_bits(ctx.ops().ld8(h.ghost + u64::from(slot) * 8))
            };
            acc += w * v;
            ctx.advance(FLOP_CY + version.loop_cy());
        }
        ctx.ops().st8(h.dst + i as u64 * 8, acc.to_bits());
    }
}

/// Runs one EM3D version on `nprocs` simulated processors and returns
/// the timing result. Values are verified against a host reference —
/// every version must compute the same answer.
///
/// Phases execute through the sharded engine, with the sequential or
/// parallel driver chosen by the `T3D_PAR` environment variable (see
/// [`PhaseDriver::from_env`]). Results are bit-identical under every
/// driver.
///
/// # Panics
///
/// Panics if the simulated values diverge from the reference (a bug in
/// the runtime under test, which is the point of the check).
pub fn run_version(nprocs: u32, params: Em3dParams, version: Version) -> Em3dResult {
    run_version_with(PhaseDriver::from_env(), nprocs, params, version)
}

/// [`run_version`] with an explicit phase driver ([`PhaseDriver::Seq`]
/// is the determinism oracle for [`PhaseDriver::Par`]).
pub fn run_version_with(
    driver: PhaseDriver,
    nprocs: u32,
    params: Em3dParams,
    version: Version,
) -> Em3dResult {
    run_version_inner(driver, nprocs, params, version, Opts::default()).0
}

/// [`run_version_profiled`] with the opt-in contention models
/// enabled (target-shell queueing plus per-link occupancy on every
/// dimension-order route, as in
/// [`MachineConfig::t3d_link_contended`]). The contended arm of the
/// `t3d-perf scale` sweep; values still verify against the host
/// reference — contention reshapes time, never data.
pub fn run_version_profiled_contended(
    driver: PhaseDriver,
    nprocs: u32,
    params: Em3dParams,
    version: Version,
) -> (Em3dResult, PerfReport) {
    let opts = Opts {
        profile: true,
        contended: true,
        ..Opts::default()
    };
    let (r, p, _, _) = run_version_inner(driver, nprocs, params, version, opts);
    (r, p.expect("profiling was requested"))
}

/// [`run_version_with`] under sanitizer mode `sanitize` (`T3D_SAN`
/// fills in [`SanitizeMode::Off`]), with op recording when `record` is
/// set: every runtime primitive the version issues (plus phase and
/// barrier markers) is captured as per-PE [`RecEvent`] streams, the
/// input `t3d-lint` analyzes. Returns the streams (empty when not
/// recording) and the sanitizer's report (`None` when it is off). The
/// result is bit-identical to an unobserved run, and both are views of
/// the runtime's one event log, so neither depends on the other being
/// on.
pub fn run_version_observed(
    driver: PhaseDriver,
    nprocs: u32,
    params: Em3dParams,
    version: Version,
    record: bool,
    sanitize: SanitizeMode,
) -> (Em3dResult, Vec<Vec<RecEvent>>, Option<Report>) {
    let opts = Opts {
        record,
        sanitize,
        ..Opts::default()
    };
    let (r, _, log, report) = run_version_inner(driver, nprocs, params, version, opts);
    (r, log, report)
}

/// [`run_version_with`], with cycle attribution: the measured steps run
/// under [`PerfMode::Counters`] (rebased after the warm-up step, so the
/// report covers exactly the timed region), with the comm and compute
/// halves marked as named phases. Attribution is pure observation — the
/// returned [`Em3dResult`] is bit-identical to an unprofiled run.
pub fn run_version_profiled(
    driver: PhaseDriver,
    nprocs: u32,
    params: Em3dParams,
    version: Version,
) -> (Em3dResult, PerfReport) {
    let opts = Opts {
        profile: true,
        ..Opts::default()
    };
    let (r, p, _, _) = run_version_inner(driver, nprocs, params, version, opts);
    (r, p.expect("profiling was requested"))
}

/// What a run observes besides its result.
#[derive(Debug, Clone, Copy, Default)]
struct Opts {
    /// Attribute cycles to cost classes.
    profile: bool,
    /// Record the op streams.
    record: bool,
    /// Model target-shell and link contention.
    contended: bool,
    /// Sanitizer mode (`T3D_SAN` fills in `Off`).
    sanitize: SanitizeMode,
}

fn run_version_inner(
    driver: PhaseDriver,
    nprocs: u32,
    params: Em3dParams,
    version: Version,
    opts: Opts,
) -> (
    Em3dResult,
    Option<PerfReport>,
    Vec<Vec<RecEvent>>,
    Option<Report>,
) {
    let Opts {
        profile,
        record,
        contended,
        sanitize,
    } = opts;
    let g = Em3dGraph::generate(params, nprocs);
    let mut cfg = MachineConfig::t3d_with_mem(nprocs, 4 * 1024 * 1024);
    if contended {
        cfg.contention = true;
        cfg.link_contention = true;
    }
    let scfg = SplitcConfig {
        sanitize,
        ..SplitcConfig::t3d()
    };
    let mut sc = SplitC::with_config(cfg, scfg);
    sc.record_ops(record);
    let npp = params.nodes_per_pe as u64;
    let deg = params.degree as u64;
    let layout = Layout {
        e_vals: sc.alloc(npp * 8, 8),
        h_vals: sc.alloc(npp * 8, 8),
        e_w: sc.alloc(npp * deg * 8, 8),
        h_w: sc.alloc(npp * deg * 8, 8),
        e_adj: sc.alloc(npp * deg * 8, 8),
        h_adj: sc.alloc(npp * deg * 8, 8),
        ghost_h: sc.alloc(npp * deg * 8, 8),
        ghost_e: sc.alloc(npp * deg * 8, 8),
        send: sc.alloc(npp * deg * 8, 8),
    };

    // Initialize values, weights and the in-memory adjacency lists.
    for p in 0..nprocs as usize {
        for i in 0..params.nodes_per_pe {
            sc.machine()
                .poke8(p, layout.e_vals + i as u64 * 8, initial_e(p, i).to_bits());
            sc.machine()
                .poke8(p, layout.h_vals + i as u64 * 8, initial_h(p, i).to_bits());
            for j in 0..params.degree {
                let w = weight(j).to_bits();
                let off = (i * params.degree + j) as u64 * 8;
                sc.machine().poke8(p, layout.e_w + off, w);
                sc.machine().poke8(p, layout.h_w + off, w);
                let e_ep = g.e_deps[p][i][j];
                let h_ep = g.h_deps[p][i][j];
                sc.machine()
                    .poke8(p, layout.e_adj + off, pack_endpoint(e_ep));
                sc.machine()
                    .poke8(p, layout.h_adj + off, pack_endpoint(h_ep));
            }
        }
    }

    // E half first (H values flow to E consumers), then H.
    let halves = [
        Half {
            comm: "comm.e",
            compute: "compute.e",
            plan: HalfPlan::build(&g.e_deps, nprocs),
            deps: &g.e_deps,
            dst: layout.e_vals,
            src: layout.h_vals,
            weights: layout.e_w,
            adj: layout.e_adj,
            ghost: layout.ghost_h,
            send: layout.send,
        },
        Half {
            comm: "comm.h",
            compute: "compute.h",
            plan: HalfPlan::build(&g.h_deps, nprocs),
            deps: &g.h_deps,
            dst: layout.h_vals,
            src: layout.e_vals,
            weights: layout.h_w,
            adj: layout.h_adj,
            ghost: layout.ghost_e,
            send: layout.send,
        },
    ];
    // Phase markers for the profiler (no-ops unless profiling is on).
    let mark = |sc: &mut SplitC, label: &str| {
        if profile {
            sc.machine().perf_begin_phase(label);
        }
    };
    let step = |sc: &mut SplitC| {
        for h in &halves {
            mark(sc, h.comm);
            if version == Version::StoreSync {
                // Message-driven: no global barriers inside the step.
                sc.par_phase_with(driver, |ctx| fill_ghosts(ctx, version, h, CommPhase::Push));
                mark(sc, h.compute);
                sc.par_phase_with(driver, |ctx| {
                    fill_ghosts(ctx, version, h, CommPhase::Pull);
                    compute_half(ctx, version, h);
                });
                continue;
            }
            if matches!(version, Version::Put | Version::Bulk) {
                sc.par_phase_with(driver, |ctx| fill_ghosts(ctx, version, h, CommPhase::Push));
                sc.barrier();
            }
            sc.par_phase_with(driver, |ctx| fill_ghosts(ctx, version, h, CommPhase::Pull));
            sc.barrier();
            mark(sc, h.compute);
            sc.par_phase_with(driver, |ctx| compute_half(ctx, version, h));
            sc.barrier();
        }
    };

    // Warm-up step, then measured steps. Restarting observation here
    // zeroes the op counts and rebases attribution, so both cover
    // exactly the measured region (the warm-up step is excluded).
    step(&mut sc);
    let mode = if profile {
        PerfMode::Counters
    } else {
        PerfMode::Off
    };
    sc.machine().set_perf_mode(mode);
    let t0 = sc.max_clock();
    for _ in 0..params.steps {
        step(&mut sc);
    }
    let report = if profile {
        sc.machine().perf_end_phase();
        Some(sc.machine_ref().perf())
    } else {
        None
    };
    let cycles = sc.max_clock() - t0;
    let clock_fnv = (0..nprocs as usize)
        .map(|pe| sc.machine_ref().clock(pe))
        .fold(t3d_perf::FNV_OFFSET, t3d_perf::fnv1a_word);
    let mut ops = OpStats::default();
    for pe in 0..nprocs as usize {
        ops.accumulate(&sc.machine_ref().node(pe).ops);
    }

    // Fence everything (outside the timed region) so the verification
    // below reads settled memory — the message-driven version never
    // barriers on its own.
    sc.barrier();

    // State fingerprint over the whole working set (the send buffer is
    // the last allocation, so the region covers every layout field).
    let snap_end = layout.send + npp * deg * 8;
    let mem_fnv = sc.machine_ref().region_fnv64(0, snap_end);

    // Verify against the host reference (warm-up + measured steps).
    let (e_ref, h_ref) = reference(&g, params.steps + 1);
    for p in 0..nprocs as usize {
        for i in 0..params.nodes_per_pe {
            let e = f64::from_bits(sc.machine().peek8(p, layout.e_vals + i as u64 * 8));
            let h = f64::from_bits(sc.machine().peek8(p, layout.h_vals + i as u64 * 8));
            assert_eq!(
                e,
                e_ref[p][i],
                "{}: E[{p}][{i}] diverged from reference",
                version.label()
            );
            assert_eq!(
                h,
                h_ref[p][i],
                "{}: H[{p}][{i}] diverged from reference",
                version.label()
            );
        }
    }

    // Negative sanitizer corpus: every EM3D version is properly
    // synchronized, so a run with `T3D_SAN` set must report nothing.
    let san_report = sc.san_report();
    if let Some(report) = &san_report {
        assert!(
            report.is_empty(),
            "{}: sanitizer flagged a correct program:\n{}",
            version.label(),
            report.render_table()
        );
    }

    let edges = params.edges_per_step_per_pe() * params.steps as u64;
    let op_log = if record { sc.take_op_log() } else { Vec::new() };
    (
        Em3dResult {
            us_per_edge: cycles as f64 * 6.666_666_666_666_667e-3 / edges as f64,
            edges,
            cycles,
            ops,
            clock_fnv,
            mem_fnv,
        },
        report,
        op_log,
        san_report,
    )
}

/// Scaling study: µs per edge as the machine grows at fixed per-PE
/// problem size (the paper's "scaling both problem and machine size"
/// framing). Returns `(pes, us/edge)` per machine size.
pub fn scaling_sweep(pes_list: &[u32], base: Em3dParams, version: Version) -> Vec<(u32, f64)> {
    pes_list
        .iter()
        .map(|&pes| (pes, run_version(pes, base, version).us_per_edge))
        .collect()
}

/// Figure 9: µs per edge for every version over a sweep of remote-edge
/// percentages. Returns `(version label, Vec<(pct, us/edge)>)`.
pub fn fig9_sweep(nprocs: u32, base: Em3dParams, pcts: &[f64]) -> Vec<(String, Vec<(f64, f64)>)> {
    Version::all()
        .iter()
        .map(|&v| {
            let pts = pcts
                .iter()
                .map(|&pct| {
                    let mut p = base;
                    p.pct_remote = pct;
                    (pct, run_version(nprocs, p, v).us_per_edge)
                })
                .collect();
            (v.label().to_string(), pts)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const NPROCS: u32 = 4;

    #[test]
    fn all_versions_compute_the_reference_answer() {
        // run_version panics internally on divergence; exercising every
        // version at a communication-heavy setting is the assertion.
        for v in Version::all() {
            let r = run_version(NPROCS, Em3dParams::tiny(50.0), v);
            assert!(r.us_per_edge > 0.0, "{} produced a timing", v.label());
        }
    }

    #[test]
    fn multi_step_runs_stay_correct() {
        // Three leapfrog steps: the reference check inside run_version
        // verifies every intermediate half-step fed the next correctly.
        let mut p = Em3dParams::tiny(30.0);
        p.steps = 3;
        for v in [Version::Simple, Version::Put, Version::StoreSync] {
            let r = run_version(NPROCS, p, v);
            assert!(r.edges == p.edges_per_step_per_pe() * 3);
        }
    }

    #[test]
    fn local_only_all_optimized_versions_tie() {
        let base = run_version(NPROCS, Em3dParams::tiny(0.0), Version::Unroll).us_per_edge;
        for v in [Version::Get, Version::Put, Version::Bulk] {
            let r = run_version(NPROCS, Em3dParams::tiny(0.0), v).us_per_edge;
            assert!(
                (r - base).abs() / base < 0.05,
                "{} at 0% remote: {r:.3} vs Unroll {base:.3} us/edge",
                v.label()
            );
        }
    }

    #[test]
    fn paper_ordering_at_heavy_communication() {
        let p = Em3dParams::tiny(40.0);
        let us = |v| run_version(NPROCS, p, v).us_per_edge;
        let simple = us(Version::Simple);
        let bundle = us(Version::Bundle);
        let unroll = us(Version::Unroll);
        let get = us(Version::Get);
        let put = us(Version::Put);
        let bulk = us(Version::Bulk);
        assert!(
            bundle < simple,
            "ghost caching helps: {bundle:.3} < {simple:.3}"
        );
        assert!(
            unroll < bundle,
            "unrolling helps: {unroll:.3} < {bundle:.3}"
        );
        assert!(get < unroll, "pipelined gets help: {get:.3} < {unroll:.3}");
        assert!(put < get, "puts beat gets: {put:.3} < {get:.3}");
        assert!(bulk < put, "bulk beats puts: {bulk:.3} < {put:.3}");
    }

    #[test]
    fn op_breakdown_matches_each_versions_mechanism() {
        use t3d_machine::OpKind::*;
        let p = Em3dParams::tiny(50.0);
        let simple = run_version(NPROCS, p, Version::Simple).ops;
        assert!(simple[LdRemote] > 0, "Simple reads remotely per edge");
        assert_eq!(simple[Fetch], 0);
        assert_eq!(simple[BltStart], 0);

        let get = run_version(NPROCS, p, Version::Get).ops;
        assert!(get[Fetch] > 0, "Get pipelines through the prefetch queue");
        assert_eq!(get[Fetch], get[Pop], "every fetch gets popped");

        let put = run_version(NPROCS, p, Version::Put).ops;
        assert!(put[StRemote] > 0);
        assert_eq!(put[LdRemote], 0, "Put never issues a remote read");

        let bulk = run_version(NPROCS, p, Version::Bulk).ops;
        assert!(
            bulk[Fetch] > 0 || bulk[BltStart] > 0,
            "Bulk moves ghosts with prefetch loops or the BLT"
        );

        let ss = run_version(NPROCS, p, Version::StoreSync).ops;
        assert_eq!(ss[AckWait], 0, "one-way stores never wait for acks");
    }

    #[test]
    fn store_sync_version_is_correct_and_competitive() {
        let p = Em3dParams::tiny(40.0);
        let ss = run_version(NPROCS, p, Version::StoreSync).us_per_edge;
        let put = run_version(NPROCS, p, Version::Put).us_per_edge;
        // Message-driven execution elides the global barrier; it should
        // be at least in Put's neighbourhood.
        assert!(
            ss < put * 1.15,
            "StoreSync {ss:.3} us/edge should be competitive with Put {put:.3}"
        );
    }

    #[test]
    fn weak_scaling_is_mild_for_bulk() {
        // Fixed per-PE work and remote fraction: growing the machine
        // only adds network distance, so us/edge should grow slowly.
        let sweep = scaling_sweep(&[2, 8, 32], Em3dParams::tiny(20.0), Version::Bulk);
        let (small, large) = (sweep[0].1, sweep[2].1);
        assert!(
            large < small * 1.6,
            "bulk version scales: {small:.3} at 2 PEs vs {large:.3} at 32 PEs"
        );
        // Bulk stays absolutely faster than Simple at every size, even
        // though its per-source transfers fragment as the machine grows
        // (a real effect: 31 small gets instead of 1 large one).
        let simple = scaling_sweep(&[2, 32], Em3dParams::tiny(20.0), Version::Simple);
        assert!(sweep[0].1 < simple[0].1, "Bulk wins at 2 PEs");
        assert!(sweep[2].1 < simple[1].1, "Bulk wins at 32 PEs");
    }

    #[test]
    fn cost_rises_with_remote_fraction() {
        let lo = run_version(NPROCS, Em3dParams::tiny(0.0), Version::Get).us_per_edge;
        let hi = run_version(NPROCS, Em3dParams::tiny(60.0), Version::Get).us_per_edge;
        assert!(hi > lo, "more remote edges cost more: {lo:.3} -> {hi:.3}");
    }

    #[test]
    fn simple_blows_up_with_remote_edges() {
        let local = run_version(NPROCS, Em3dParams::tiny(0.0), Version::Simple).us_per_edge;
        let remote = run_version(NPROCS, Em3dParams::tiny(60.0), Version::Simple).us_per_edge;
        assert!(
            remote > local * 2.0,
            "blocking reads dominate: {local:.3} -> {remote:.3}"
        );
    }
}
