//! `sched-stream`: a generated job stream scheduled on an 8×8×4 T3D.
//!
//! `Trace::generate` makes 160 jobs of 2–32 PEs; they are scheduled on
//! the machine with backfill, the sequential phase driver and a fresh
//! (cold) `KernelCache`, so every job builds its own small machine and
//! runs a real Split-C kernel. The job mix is one fixed generator draw;
//! `--seed` sets every job's input data. A set-up sample is generating
//! the stream plus a construction probe: one right-sized machine per
//! job, built through the same public constructor the kernels use.
//!
//! A pass splits that work into timed calls: it runs the jobs' kernels,
//! eight jobs per call, through a fresh `KernelCache` with
//! `KernelCache::run` (every job misses, exactly as inside a cold
//! `run_trace`), then schedules the
//! trace with `run_trace` against the now-warm cache, which leaves only
//! the scheduler itself in the last call. Together that is the work of
//! `run_trace` with a cold cache, in pieces short enough to time
//! against the host-speed reference. The job ledger, checked at the
//! end, chains every job's cycles and result.

use std::hint::black_box;

use t3d_machine::{Machine, MachineConfig, PhaseDriver};
use t3d_sched::{run_trace, ExecEnv, GenParams, Kernel, KernelCache, SimParams, Trace};

use crate::{Ctx, Work};

/// Jobs per generated trace.
const JOBS: u32 = 160;
/// Consecutive jobs per timed call (about 0.2 s of host time).
const JOBS_PER_CALL: usize = 8;
/// The machine the stream is scheduled on (256 PEs).
const MACHINE: (u32, u32, u32) = (8, 8, 4);
/// Mean gap between arrivals, in cycles: about 1.4× what the machine
/// can serve, so a queue builds and backfill and allocator fit failures
/// come into play.
const MEAN_INTERARRIVAL_CY: u64 = 8_000;
/// Node memory of the scheduler's kernel machines.
const KERNEL_NODE_MEM: usize = 2 << 20;

/// A kernel family: its layer span and its per-layer metric.
pub struct Family {
    /// Span around the family's kernel runs.
    pub span: &'static str,
    /// Per-layer metric of its host time.
    pub metric: &'static str,
}

/// The kernel families of the zoo.
pub const FAMILIES: [Family; 4] = [
    Family {
        span: "sched.kernel.em3d",
        metric: "sched.kernel.em3d_s",
    },
    Family {
        span: "sched.kernel.stencil",
        metric: "sched.kernel.stencil_s",
    },
    Family {
        span: "sched.kernel.sample_sort",
        metric: "sched.kernel.sample_sort_s",
    },
    Family {
        span: "sched.kernel.cg",
        metric: "sched.kernel.cg_s",
    },
];

fn family(k: Kernel) -> &'static Family {
    match k {
        Kernel::Em3d(_) => &FAMILIES[0],
        Kernel::Stencil(_) => &FAMILIES[1],
        Kernel::SampleSort => &FAMILIES[2],
        Kernel::Cg => &FAMILIES[3],
    }
}

/// Job-ledger fingerprint and simulated PE-cycles at the default seed.
pub const PINS: &[(&str, u64)] = &[
    ("sched.ledger_fnv", 0x1eaa6f3ffbf16a44),
    ("sched.pe_cycles", 0x1b7145ee),
];

/// The job mix: one fixed draw of the generator. Every seed schedules
/// the same kernels, sizes, PE counts and arrivals, so runs at
/// different seeds compare like with like.
const MIX_SEED: u64 = 0x5EED;
/// Set-up samples per pass.
const SETUP_SAMPLES: usize = 5;

fn gen(seed: u64) -> Trace {
    Trace::generate(GenParams {
        jobs: JOBS,
        min_order: 1,
        max_order: 5,
        mean_interarrival_cy: MEAN_INTERARRIVAL_CY,
        seed,
    })
}

/// The stream for `seed`: the fixed mix, with each job's input-data
/// seed taken from the generator's draw at `seed`.
fn stream(seed: u64) -> Trace {
    let mut trace = gen(MIX_SEED);
    for (job, data) in trace.jobs.iter_mut().zip(gen(seed).jobs) {
        job.seed = data.seed;
    }
    trace
}

/// One pass: the whole stream once.
pub fn pass(seed: u64, ctx: &mut Ctx) {
    let mut trace = Trace::default();
    for _ in 0..SETUP_SAMPLES {
        trace = ctx.setup("sched.setup_probe", || {
            let trace = stream(seed);
            for job in &trace.jobs {
                black_box(Machine::new(MachineConfig::t3d_with_mem(
                    job.pe_count,
                    KERNEL_NODE_MEM,
                )));
            }
            trace
        });
    }
    let params = SimParams {
        machine: MACHINE,
        backfill: true,
        env: ExecEnv {
            driver: PhaseDriver::Seq,
            ..ExecEnv::from_env()
        },
    };
    let mut cache = KernelCache::new();
    for (i, chunk) in trace.jobs.chunks(JOBS_PER_CALL).enumerate() {
        ctx.call(
            &format!("sched.jobs.{i}"),
            |ctx| {
                chunk
                    .iter()
                    .map(|job| {
                        let pes = job.pe_count.next_power_of_two();
                        let r = ctx
                            .spans
                            .time(family(job.kernel).span, || cache.run(params.env, job, pes));
                        r.cycles * u64::from(pes)
                    })
                    .sum::<u64>()
            },
            |&pe_cycles, _| {
                Ok(Work {
                    pe_cycles,
                    jobs: chunk.len() as u64,
                })
            },
        );
    }
    ctx.count("sched.cache.hits", cache.hits() as f64);
    ctx.count("sched.cache.attempts", f64::from(JOBS));
    ctx.call(
        "sched.run_trace",
        |ctx| {
            let run = ctx
                .spans
                .time("sched.run_trace", || run_trace(&trace, &params, &mut cache));
            ctx.count(
                "sched.alloc.fit_failures",
                run.alloc_stats.fit_failures as f64,
            );
            ctx.count("sched.alloc.allocs", run.alloc_stats.allocs as f64);
            run
        },
        |run, pins| {
            let pe_cycles: u64 = run
                .outcomes
                .iter()
                .map(|o| o.run_cy() * o.block.pes())
                .sum();
            pins.check("sched.ledger_fnv", run.ledger_fnv)?;
            pins.check("sched.pe_cycles", pe_cycles)?;
            Ok(Work {
                pe_cycles: 0,
                jobs: 0,
            })
        },
    );
}
