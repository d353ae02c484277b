//! The kernel registry: every payload a scheduled job can run.
//!
//! Three of the kernels are the repository examples promoted into
//! library functions — the examples remain as thin self-checking
//! wrappers over these — and the rest are the EM3D versions from
//! `crates/em3d`. Every kernel:
//!
//! * builds its own right-sized simulated machine for the job's PE
//!   count (the scheduler charges the kernel's virtual cycles back
//!   into the job-stream clock);
//! * **self-checks** its numerical result against a host reference and
//!   panics on divergence (a wrong simulator never posts a timing);
//! * is bit-deterministic in `(pe_count, size, seed)` under both phase
//!   drivers, which is what makes the scheduler's job ledger
//!   reproducible and kernel-run memoisation
//!   ([`crate::sim::KernelCache`]) sound.

use em3d::{run_version_with, Em3dParams, Version};
use splitc::{GlobalPtr, SplitC};
use t3d_machine::{Cpu, MachineConfig, PhaseDriver};
use t3d_prng::Rng;

use crate::metrics::{fnv1a, FNV_OFFSET};

/// Node memory for kernel machines: none of the kernels at scheduler
/// sizes touches more than a few hundred kilobytes per PE, and smaller
/// arenas make machine construction (the host-side cost of every job
/// launch) proportionally cheaper.
const KERNEL_MEM_BYTES: usize = 2 * 1024 * 1024;

/// Execution environment a kernel runs under: which phase driver.
/// Threading it explicitly (instead of re-reading the environment) lets
/// one process run both halves of the Seq/Par differential.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecEnv {
    /// Sequential or sharded-parallel phase driver.
    pub driver: PhaseDriver,
}

impl ExecEnv {
    /// The environment-selected default (`T3D_PAR`).
    pub fn from_env() -> ExecEnv {
        ExecEnv {
            driver: PhaseDriver::from_env(),
        }
    }

    /// An explicit environment.
    pub fn new(driver: PhaseDriver) -> ExecEnv {
        ExecEnv { driver }
    }
}

impl Default for ExecEnv {
    fn default() -> Self {
        Self::from_env()
    }
}

/// How the stencil's ghost-cell halo travels (the three strategies the
/// `stencil` example compares).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StencilComm {
    /// Blocking remote writes (the naive port).
    Write,
    /// Signaling stores + `allStoreSync` (the paper's Section 7
    /// recommendation).
    Store,
    /// Bulk transfer of the halo.
    Bulk,
}

impl StencilComm {
    /// All strategies, naive first.
    pub fn all() -> [StencilComm; 3] {
        [StencilComm::Write, StencilComm::Store, StencilComm::Bulk]
    }

    fn tag(self) -> &'static str {
        match self {
            StencilComm::Write => "write",
            StencilComm::Store => "store",
            StencilComm::Bulk => "bulk",
        }
    }
}

/// A job payload: which program the scheduled partition runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// One EM3D version (`crates/em3d`), `size` = E/H nodes per PE.
    Em3d(Version),
    /// 1-D Jacobi stencil with ghost exchange, `size` = cells per PE.
    Stencil(StencilComm),
    /// Distributed sample sort, `size` = keys per PE.
    SampleSort,
    /// Conjugate-gradient Poisson solve, `size` = rows per PE.
    Cg,
}

/// What a kernel run produced: the figures the scheduler consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelRun {
    /// Elapsed virtual cycles on the job's machine — the job's service
    /// time, charged into the job-stream clock.
    pub cycles: u64,
    /// FNV-1a fingerprint of the kernel's numerical result (field
    /// values, sorted keys, solution vector, or EM3D's memory
    /// checksum) — determinism evidence carried into the job ledger.
    pub result_fnv: u64,
}

impl Kernel {
    /// The default kernel zoo the trace generator samples from: a mix
    /// of communication-bound (EM3D versions, all-to-all sample sort)
    /// and compute-leaning (stencil, CG) payloads.
    pub fn zoo() -> &'static [Kernel] {
        &[
            Kernel::Em3d(Version::Simple),
            Kernel::Em3d(Version::Get),
            Kernel::Em3d(Version::Put),
            Kernel::Em3d(Version::Bulk),
            Kernel::Em3d(Version::StoreSync),
            Kernel::Stencil(StencilComm::Store),
            Kernel::Stencil(StencilComm::Bulk),
            Kernel::SampleSort,
            Kernel::Cg,
        ]
    }

    /// Stable name, the kernel's key in trace JSON.
    pub fn name(self) -> String {
        match self {
            Kernel::Em3d(v) => format!("em3d.{}", v.label()),
            Kernel::Stencil(c) => format!("stencil.{}", c.tag()),
            Kernel::SampleSort => "sample_sort".to_string(),
            Kernel::Cg => "cg".to_string(),
        }
    }

    /// Parses a [`Kernel::name`] back. `None` on unknown names.
    pub fn parse(name: &str) -> Option<Kernel> {
        if let Some(v) = name.strip_prefix("em3d.") {
            return Version::all()
                .into_iter()
                .find(|k| k.label() == v)
                .map(Kernel::Em3d);
        }
        if let Some(c) = name.strip_prefix("stencil.") {
            return StencilComm::all()
                .into_iter()
                .find(|k| k.tag() == c)
                .map(Kernel::Stencil);
        }
        match name {
            "sample_sort" => Some(Kernel::SampleSort),
            "cg" => Some(Kernel::Cg),
            _ => None,
        }
    }

    /// A reasonable default `size` for this kernel in generated traces
    /// (the generator perturbs around it).
    pub fn default_size(self) -> u64 {
        match self {
            Kernel::Em3d(_) => 32,
            Kernel::Stencil(_) => 256,
            Kernel::SampleSort => 256,
            Kernel::Cg => 12,
        }
    }

    /// Runs the kernel on a fresh `pe_count`-PE machine and returns its
    /// service time and result fingerprint.
    ///
    /// # Panics
    ///
    /// Panics if the kernel's self-check fails — every kernel verifies
    /// its numerical result against a host reference.
    pub fn run(self, env: ExecEnv, pe_count: u32, size: u64, seed: u64) -> KernelRun {
        assert!(pe_count >= 2, "kernels need at least two PEs");
        match self {
            Kernel::Em3d(v) => {
                let mut params = Em3dParams::tiny(20.0);
                params.nodes_per_pe = size.max(4) as usize;
                params.seed = seed;
                // run_version verifies against the host reference
                // internally and panics on divergence.
                let r = run_version_with(env.driver, pe_count, params, v);
                KernelRun {
                    cycles: r.cycles,
                    result_fnv: r.mem_fnv,
                }
            }
            Kernel::Stencil(comm) => run_stencil(env, pe_count, size.max(4), 3, seed, comm).run,
            Kernel::SampleSort => run_sample_sort(pe_count, size.max(16), seed).run,
            Kernel::Cg => run_cg(pe_count, size.max(4), seed).run,
        }
    }
}

fn kernel_machine(pe_count: u32) -> MachineConfig {
    MachineConfig::t3d_with_mem(pe_count, KERNEL_MEM_BYTES)
}

/// Result of a [`run_stencil`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StencilOut {
    /// Cycles and field fingerprint.
    pub run: KernelRun,
    /// Elapsed virtual microseconds.
    pub us: f64,
    /// Sum of the final field (identical across strategies).
    pub field_sum: f64,
}

/// The 1-D Jacobi stencil with ghost-cell exchange (the `stencil`
/// example's engine, promoted). Each PE owns `cells` cells of a global
/// array seeded with a spike plus `seed`-derived noise; every step it
/// exchanges boundary cells with its ring neighbours via `comm` and
/// relaxes its block. All three strategies compute a bit-identical
/// field — the example asserts exactly that across [`StencilComm`].
///
/// # Panics
///
/// Panics if the field leaves the finite range (a runtime bug).
pub fn run_stencil(
    env: ExecEnv,
    pe_count: u32,
    cells: u64,
    steps: usize,
    seed: u64,
    comm: StencilComm,
) -> StencilOut {
    let mut sc = SplitC::new(kernel_machine(pe_count));
    let nodes = pe_count as usize;
    // Block plus one ghost cell on each side.
    let cell_base = sc.alloc((cells + 2) * 8, 8);

    // Initialize: seeded noise everywhere, a spike on PE 0.
    let mut rng = Rng::seed_from_u64(seed);
    for p in 0..nodes {
        sc.machine().poke8(p, cell_base, 0f64.to_bits());
        sc.machine()
            .poke8(p, cell_base + (cells + 1) * 8, 0f64.to_bits());
        for i in 1..=cells {
            let v = rng.gen_f64();
            sc.machine().poke8(p, cell_base + i * 8, v.to_bits());
        }
    }
    sc.machine().poke8(0, cell_base + 8, 1000f64.to_bits());

    for _ in 0..steps {
        // Exchange: send my first/last interior cells to the
        // neighbours' ghost slots.
        sc.par_phase_with(env.driver, |ctx| {
            let pe = ctx.pe();
            let left = (pe + nodes - 1) % nodes;
            let right = (pe + 1) % nodes;
            let my_first = cell_base + 8;
            let my_last = cell_base + cells * 8;
            let left_ghost_at_right = cell_base; // their [0] is my last
            let right_ghost_at_left = cell_base + (cells + 1) * 8;
            match comm {
                StencilComm::Write => {
                    let v = ctx.ops().ld8(my_last);
                    ctx.write_u64(GlobalPtr::new(right as u32, left_ghost_at_right), v);
                    let v = ctx.ops().ld8(my_first);
                    ctx.write_u64(GlobalPtr::new(left as u32, right_ghost_at_left), v);
                }
                StencilComm::Store => {
                    let v = ctx.ops().ld8(my_last);
                    ctx.store_u64(GlobalPtr::new(right as u32, left_ghost_at_right), v);
                    let v = ctx.ops().ld8(my_first);
                    ctx.store_u64(GlobalPtr::new(left as u32, right_ghost_at_left), v);
                }
                StencilComm::Bulk => {
                    ctx.bulk_put(
                        GlobalPtr::new(right as u32, left_ghost_at_right),
                        my_last,
                        8,
                    );
                    ctx.bulk_put(
                        GlobalPtr::new(left as u32, right_ghost_at_left),
                        my_first,
                        8,
                    );
                    ctx.sync();
                }
            }
        });
        match comm {
            StencilComm::Store => sc.all_store_sync(),
            _ => sc.barrier(),
        }

        // Relax: new[i] = (old[i-1] + old[i+1]) / 2, in place with a
        // rolling previous value.
        sc.par_phase_with(env.driver, |ctx| {
            let mut prev = f64::from_bits(ctx.ops().ld8(cell_base));
            for i in 1..=cells {
                let here = f64::from_bits(ctx.ops().ld8(cell_base + i * 8));
                let next = f64::from_bits(ctx.ops().ld8(cell_base + (i + 1) * 8));
                let new = 0.5 * (prev + next);
                prev = here;
                ctx.ops().st8(cell_base + i * 8, new.to_bits());
                ctx.advance(8); // FP add + multiply
            }
        });
        sc.barrier();
    }

    // Self-check + fingerprint over the final field.
    let mut total = 0.0;
    let mut fnv = FNV_OFFSET;
    for p in 0..nodes {
        for i in 1..=cells {
            let bits = sc.machine().peek8(p, cell_base + i * 8);
            total += f64::from_bits(bits);
            fnv = fnv1a(fnv, &bits.to_le_bytes());
        }
    }
    assert!(total.is_finite(), "stencil field diverged");
    let us = sc.max_clock() as f64 * sc.machine_ref().cycle_ns() / 1000.0;
    StencilOut {
        run: KernelRun {
            cycles: sc.max_clock(),
            result_fnv: fnv,
        },
        us,
        field_sum: total,
    }
}

/// Cycles charged for a host-side comparison sort of `n` keys (local
/// compute the simulator does not execute instruction by instruction).
fn sort_cost(n: u64) -> u64 {
    // ~12 cycles per comparison, n log2 n comparisons.
    12 * n * (64 - n.leading_zeros() as u64)
}

/// Result of a [`run_sample_sort`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleSortOut {
    /// Cycles and sorted-key fingerprint.
    pub run: KernelRun,
    /// Total keys sorted.
    pub keys: u64,
    /// Elapsed virtual microseconds.
    pub us: f64,
}

/// Distributed sample sort (the `sample_sort` example's engine,
/// promoted): local sorts, regular sampling to PE 0, splitter
/// broadcast with signaling stores, one bulk put per destination for
/// the all-to-all redistribution, final local sorts.
///
/// # Panics
///
/// Panics if the result is not a globally sorted permutation of the
/// input (verified against a host reference on every run).
pub fn run_sample_sort(pe_count: u32, keys_per_pe: u64, seed: u64) -> SampleSortOut {
    const OVERSAMPLE: u64 = 8;
    let p_u64 = u64::from(pe_count);
    let mut sc = SplitC::new(kernel_machine(pe_count));
    let keys = sc.alloc(keys_per_pe * 8, 8);
    // Receive region: worst-case skew margin.
    let recv_cap = keys_per_pe * 4;
    let recv = sc.alloc(recv_cap * 8, 8);
    let samples = sc.alloc(p_u64 * OVERSAMPLE * 8, 8); // at PE 0
    let splitters = sc.alloc(p_u64 * 8, 8); // broadcast to all
    let counts = sc.alloc(p_u64 * p_u64 * 8, 8); // [src][dst] at PE 0

    // Generate keys.
    for pe in 0..pe_count as usize {
        let mut rng = Rng::seed_from_u64(seed.wrapping_add(pe as u64));
        for i in 0..keys_per_pe {
            sc.machine()
                .poke8(pe, keys + i * 8, rng.gen_range(0..1_000_000));
        }
    }

    // Phase 1: local sort + regular sampling to PE 0.
    sc.run_phase(|ctx| {
        let pe = ctx.pe();
        let mut local: Vec<u64> = (0..keys_per_pe)
            .map(|i| ctx.ops().ld8(keys + i * 8))
            .collect();
        local.sort_unstable();
        ctx.advance(sort_cost(keys_per_pe));
        for (i, k) in local.iter().enumerate() {
            ctx.ops().st8(keys + i as u64 * 8, *k);
        }
        // Regular samples.
        for s in 0..OVERSAMPLE {
            let idx = s * keys_per_pe / OVERSAMPLE;
            let slot = pe as u64 * OVERSAMPLE + s;
            ctx.store_u64(GlobalPtr::new(0, samples + slot * 8), local[idx as usize]);
        }
    });
    sc.all_store_sync();

    // Phase 2: PE 0 picks splitters, broadcasts.
    sc.on(0, |ctx| {
        let n = p_u64 * OVERSAMPLE;
        let mut all: Vec<u64> = (0..n).map(|i| ctx.ops().ld8(samples + i * 8)).collect();
        all.sort_unstable();
        ctx.advance(sort_cost(n));
        for d in 1..p_u64 {
            let splitter = all[(d * n / p_u64) as usize];
            for target in 0..pe_count {
                ctx.store_u64(GlobalPtr::new(target, splitters + d * 8), splitter);
            }
        }
    });
    sc.all_store_sync();

    // Phase 3: partition, publish counts, then all-to-all bulk puts.
    sc.run_phase(|ctx| {
        let pe = ctx.pe();
        let splits: Vec<u64> = (1..p_u64)
            .map(|d| ctx.ops().ld8(splitters + d * 8))
            .collect();
        let mut c = vec![0u64; pe_count as usize];
        for i in 0..keys_per_pe {
            let k = ctx.ops().ld8(keys + i * 8);
            let dst = splits.partition_point(|&s| s <= k);
            c[dst] += 1;
            ctx.advance(6);
        }
        for (dst, n) in c.iter().enumerate() {
            let slot = pe as u64 * p_u64 + dst as u64;
            ctx.store_u64(GlobalPtr::new(0, counts + slot * 8), *n);
        }
    });
    sc.all_store_sync();
    // PE 0 computes per-destination receive offsets and broadcasts them
    // back as (src, dst) start slots.
    let offsets = sc.alloc(p_u64 * p_u64 * 8, 8);
    sc.on(0, |ctx| {
        for dst in 0..p_u64 {
            let mut cursor = 0u64;
            for src in 0..p_u64 {
                let n = ctx.ops().ld8(counts + (src * p_u64 + dst) * 8);
                for target in 0..pe_count {
                    ctx.store_u64(
                        GlobalPtr::new(target, offsets + (src * p_u64 + dst) * 8),
                        cursor,
                    );
                }
                cursor += n;
                assert!(cursor <= recv_cap, "receive region overflow");
            }
        }
    });
    sc.all_store_sync();

    sc.run_phase(|ctx| {
        let pe = ctx.pe();
        let splits: Vec<u64> = (1..p_u64)
            .map(|d| ctx.ops().ld8(splitters + d * 8))
            .collect();
        // Keys are sorted, so each destination's partition is one
        // contiguous run: one bulk_put per destination.
        let mut start = 0u64;
        for dst in 0..p_u64 {
            let mut end = start;
            while end < keys_per_pe {
                let k = ctx.ops().ld8(keys + end * 8);
                if splits.partition_point(|&s| s <= k) as u64 != dst {
                    break;
                }
                end += 1;
            }
            if end > start {
                let slot = ctx.ops().ld8(offsets + (pe as u64 * p_u64 + dst) * 8);
                ctx.bulk_put(
                    GlobalPtr::new(dst as u32, recv + slot * 8),
                    keys + start * 8,
                    (end - start) * 8,
                );
            }
            start = end;
        }
        ctx.sync();
    });
    sc.barrier();

    // Phase 4: final local sorts + verification against the host
    // reference (the regenerated input multiset).
    let mut boundaries = Vec::new();
    let mut total = Vec::new();
    for pe in 0..pe_count as usize {
        // How many keys landed here: recomputed from the counts matrix.
        let mut n = 0u64;
        for src in 0..p_u64 {
            n += sc
                .machine()
                .peek8(0, counts + (src * p_u64 + pe as u64) * 8);
        }
        let mut mine: Vec<u64> = (0..n)
            .map(|i| sc.machine().peek8(pe, recv + i * 8))
            .collect();
        mine.sort_unstable();
        Cpu::new(sc.machine(), pe).advance(sort_cost(n.max(1)));
        if let (Some(first), Some(last)) = (mine.first(), mine.last()) {
            boundaries.push((*first, *last));
        }
        total.extend(mine);
    }
    // Global order: each PE's range sits below the next PE's.
    for w in boundaries.windows(2) {
        assert!(w[0].1 <= w[1].0, "inter-PE order violated: {w:?}");
    }
    // Permutation check: the multiset of keys is preserved.
    let mut expected: Vec<u64> = (0..pe_count as usize)
        .flat_map(|pe| {
            let mut rng = Rng::seed_from_u64(seed.wrapping_add(pe as u64));
            (0..keys_per_pe).map(move |_| rng.gen_range(0..1_000_000))
        })
        .collect();
    expected.sort_unstable();
    total.sort_unstable();
    assert_eq!(total, expected, "sample sort must be a sorting permutation");

    let mut fnv = FNV_OFFSET;
    for k in &total {
        fnv = fnv1a(fnv, &k.to_le_bytes());
    }
    let us = sc.max_clock() as f64 * sc.machine_ref().cycle_ns() / 1000.0;
    SampleSortOut {
        run: KernelRun {
            cycles: sc.max_clock(),
            result_fnv: fnv,
        },
        keys: p_u64 * keys_per_pe,
        us,
    }
}

/// Result of a [`run_cg`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgOut {
    /// Cycles and solution fingerprint.
    pub run: KernelRun,
    /// Iterations to convergence.
    pub iters: usize,
    /// Maximum relative error against the direct (Thomas-algorithm)
    /// host solution.
    pub max_rel_err: f64,
    /// Elapsed virtual milliseconds.
    pub ms: f64,
}

/// Distributed conjugate gradient on the 1-D Poisson problem (the
/// `cg_solver` example's engine, promoted): halo exchange with
/// signaling stores, global dot products via all-reduce, block-row
/// distribution of the tridiagonal Laplacian. The right-hand side is
/// seeded noise; the converged solution is verified against a direct
/// host solve (Thomas algorithm) of the same system.
///
/// # Panics
///
/// Panics if CG fails to converge or diverges from the direct solve.
pub fn run_cg(pe_count: u32, local_n: u64, seed: u64) -> CgOut {
    let n_total = u64::from(pe_count) * local_n;
    let max_iters = 3 * n_total as usize + 20;
    let mut sc = SplitC::new(kernel_machine(pe_count));
    let x = sc.alloc(local_n * 8, 8);
    let r = sc.alloc(local_n * 8, 8);
    // p with 2 halo cells: [halo_lo][local_n cells][halo_hi]
    let p = sc.alloc((local_n + 2) * 8, 8);
    let ap = sc.alloc(local_n * 8, 8);
    let scalar = sc.alloc(8, 8);
    let scratch = sc.alloc(8, 8);

    // b = seeded noise in [1, 2); x0 = 0; r = b; p = r.
    let mut rng = Rng::seed_from_u64(seed);
    let mut b_host = Vec::with_capacity(n_total as usize);
    for pe in 0..pe_count as usize {
        for i in 0..local_n {
            let b = 1.0 + rng.gen_f64();
            b_host.push(b);
            sc.machine().poke8(pe, x + i * 8, 0f64.to_bits());
            sc.machine().poke8(pe, r + i * 8, b.to_bits());
            sc.machine().poke8(pe, p + (i + 1) * 8, b.to_bits());
        }
        sc.machine().poke8(pe, p, 0f64.to_bits());
        sc.machine()
            .poke8(pe, p + (local_n + 1) * 8, 0f64.to_bits());
    }

    let halo_exchange = |sc: &mut SplitC| {
        let p_cells = p + 8; // first interior cell
        sc.run_phase(|ctx| {
            let pe = ctx.pe();
            if pe > 0 {
                let first = ctx.ops().ld8(p_cells);
                ctx.store_u64(GlobalPtr::new(pe as u32 - 1, p + (local_n + 1) * 8), first);
            }
            if pe + 1 < ctx.nodes() {
                let last = ctx.ops().ld8(p_cells + (local_n - 1) * 8);
                ctx.store_u64(GlobalPtr::new(pe as u32 + 1, p), last);
            }
        });
        sc.all_store_sync();
    };

    // ap = A * p (tridiagonal Laplacian), using the fresh halo.
    let matvec = |sc: &mut SplitC| {
        sc.run_phase(|ctx| {
            let pe = ctx.pe();
            let first_global = pe as u64 * local_n;
            for i in 0..local_n {
                let here = f64::from_bits(ctx.ops().ld8(p + (i + 1) * 8));
                let lo = if first_global + i == 0 {
                    0.0
                } else {
                    f64::from_bits(ctx.ops().ld8(p + i * 8))
                };
                let hi = if first_global + i == n_total - 1 {
                    0.0
                } else {
                    f64::from_bits(ctx.ops().ld8(p + (i + 2) * 8))
                };
                let val = 2.0 * here - lo - hi;
                ctx.ops().st8(ap + i * 8, val.to_bits());
                ctx.advance(20); // two FP adds + multiply + loop
            }
        });
        sc.barrier();
    };

    // Global dot product of two local arrays via all-reduce.
    let dot = |sc: &mut SplitC, a_off: u64, a_stride_halo: bool, b_off: u64| -> f64 {
        sc.run_phase(|ctx| {
            let mut acc = 0.0;
            for i in 0..local_n {
                let a_idx = if a_stride_halo { (i + 1) * 8 } else { i * 8 };
                let a = f64::from_bits(ctx.ops().ld8(a_off + a_idx));
                let b = f64::from_bits(ctx.ops().ld8(b_off + i * 8));
                acc += a * b;
                ctx.advance(16);
            }
            ctx.ops().st8(scalar, acc.to_bits());
            ctx.ops().memory_barrier();
        });
        let bits = sc.all_reduce_u64(scalar, scratch, |a, b| {
            (f64::from_bits(a) + f64::from_bits(b)).to_bits()
        });
        f64::from_bits(bits)
    };

    let bb = b_host.iter().map(|b| b * b).sum::<f64>();
    let tol = 1e-10 * bb.sqrt();
    let mut rr = dot(&mut sc, r, false, r);
    let mut iters = 0;
    while rr.sqrt() > tol && iters < max_iters {
        halo_exchange(&mut sc);
        matvec(&mut sc);
        let pap = dot(&mut sc, p, true, ap);
        let alpha = rr / pap;
        sc.run_phase(|ctx| {
            for i in 0..local_n {
                let xv = f64::from_bits(ctx.ops().ld8(x + i * 8));
                let pi = f64::from_bits(ctx.ops().ld8(p + (i + 1) * 8));
                let rv = f64::from_bits(ctx.ops().ld8(r + i * 8));
                let apv = f64::from_bits(ctx.ops().ld8(ap + i * 8));
                ctx.ops().st8(x + i * 8, (xv + alpha * pi).to_bits());
                ctx.ops().st8(r + i * 8, (rv - alpha * apv).to_bits());
                ctx.advance(24);
            }
        });
        sc.barrier();
        let rr_new = dot(&mut sc, r, false, r);
        let beta = rr_new / rr;
        rr = rr_new;
        sc.run_phase(|ctx| {
            for i in 0..local_n {
                let rv = f64::from_bits(ctx.ops().ld8(r + i * 8));
                let pi = f64::from_bits(ctx.ops().ld8(p + (i + 1) * 8));
                ctx.ops().st8(p + (i + 1) * 8, (rv + beta * pi).to_bits());
                ctx.advance(16);
            }
        });
        sc.barrier();
        iters += 1;
    }
    assert!(
        rr.sqrt() <= tol,
        "CG failed to converge in {max_iters} iterations (residual {:.2e})",
        rr.sqrt()
    );

    // Verify against the direct host solve of the same tridiagonal
    // system (Thomas algorithm).
    let x_ref = thomas_tridiag(&b_host);
    let scale = x_ref.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1.0);
    let mut max_rel_err = 0.0f64;
    let mut fnv = FNV_OFFSET;
    for pe in 0..pe_count as usize {
        for i in 0..local_n {
            let gi = pe as u64 * local_n + i;
            let bits = sc.machine().peek8(pe, x + i * 8);
            let got = f64::from_bits(bits);
            max_rel_err = max_rel_err.max((got - x_ref[gi as usize]).abs() / scale);
            fnv = fnv1a(fnv, &bits.to_le_bytes());
        }
    }
    assert!(
        max_rel_err < 1e-6,
        "CG diverged from the direct solve (max rel err {max_rel_err:.2e})"
    );
    let ms = sc.max_clock() as f64 * sc.machine_ref().cycle_ns() / 1.0e6;
    CgOut {
        run: KernelRun {
            cycles: sc.max_clock(),
            result_fnv: fnv,
        },
        iters,
        max_rel_err,
        ms,
    }
}

/// Direct solve of the `[-1, 2, -1]` tridiagonal system (the host
/// reference for [`run_cg`]).
fn thomas_tridiag(b: &[f64]) -> Vec<f64> {
    let n = b.len();
    let mut c_prime = vec![0.0; n];
    let mut d_prime = vec![0.0; n];
    c_prime[0] = -1.0 / 2.0;
    d_prime[0] = b[0] / 2.0;
    // Sub-diagonal a = -1, so the usual `- a * prev` terms are `+ prev`.
    for i in 1..n {
        let m = 2.0 + c_prime[i - 1];
        c_prime[i] = -1.0 / m;
        d_prime[i] = (b[i] + d_prime[i - 1]) / m;
    }
    let mut x = vec![0.0; n];
    x[n - 1] = d_prime[n - 1];
    for i in (0..n - 1).rev() {
        x[i] = d_prime[i] - c_prime[i] * x[i + 1];
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_names_round_trip() {
        for k in Kernel::zoo() {
            assert_eq!(Kernel::parse(&k.name()), Some(*k), "{}", k.name());
        }
        assert_eq!(
            Kernel::parse("em3d.Bulk"),
            Some(Kernel::Em3d(Version::Bulk))
        );
        assert_eq!(Kernel::parse("nope"), None);
        assert_eq!(Kernel::parse("em3d.Nope"), None);
        assert_eq!(Kernel::parse("stencil.nope"), None);
    }

    #[test]
    fn thomas_solves_the_poisson_problem() {
        // b = 1 has the closed form x_i = (i+1)(n-i)/2.
        let n = 64;
        let x = thomas_tridiag(&vec![1.0; n]);
        for (i, &v) in x.iter().enumerate() {
            let expect = (i as f64 + 1.0) * (n as f64 - i as f64) / 2.0;
            assert!(
                (v - expect).abs() < 1e-8 * expect,
                "x[{i}] = {v} != {expect}"
            );
        }
    }

    #[test]
    fn stencil_strategies_agree_bitwise() {
        let env = ExecEnv::from_env();
        let runs: Vec<StencilOut> = StencilComm::all()
            .into_iter()
            .map(|c| run_stencil(env, 4, 32, 2, 7, c))
            .collect();
        for w in runs.windows(2) {
            assert_eq!(
                w[0].run.result_fnv, w[1].run.result_fnv,
                "strategies must compute the same field"
            );
        }
        // The halo strategies genuinely differ in timing.
        assert_ne!(runs[0].run.cycles, runs[1].run.cycles);
    }

    #[test]
    fn sample_sort_and_cg_self_check() {
        let sort = run_sample_sort(4, 64, 11);
        assert_eq!(sort.keys, 256);
        assert!(sort.run.cycles > 0);
        let cg = run_cg(4, 8, 11);
        assert!(cg.iters > 0 && cg.max_rel_err < 1e-6);
    }

    #[test]
    fn kernel_runs_are_deterministic() {
        let env = ExecEnv::from_env();
        for k in [
            Kernel::Em3d(Version::Put),
            Kernel::Stencil(StencilComm::Store),
            Kernel::SampleSort,
            Kernel::Cg,
        ] {
            let a = k.run(env, 4, k.default_size() / 4, 3);
            let b = k.run(env, 4, k.default_size() / 4, 3);
            assert_eq!(a, b, "{} must be deterministic", k.name());
            let c = k.run(env, 4, k.default_size() / 4, 4);
            assert_ne!(
                a.result_fnv,
                c.result_fnv,
                "{} must depend on its seed",
                k.name()
            );
        }
    }
}
