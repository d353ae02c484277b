//! `t3d-sched` — the multi-tenant job-stream harness.
//!
//! Drives the gang scheduler in `crates/sched`: generates synthetic
//! job traces, schedules them onto torus partitions of a simulated
//! T3D, and sweeps offered load to produce the checked-in saturation
//! curve `BENCH_sched.json` (schema `t3d-sched-v1`).
//!
//! Usage:
//!
//! ```text
//! t3d-sched gen [--jobs N] [--mean-gap CY] [--seed S]
//!               [--min-order K] [--max-order K] [--out FILE]
//! t3d-sched run TRACE.json [--machine XxYxZ] [--backfill]
//! t3d-sched sweep [--jobs N] [--seed S] [--machine XxYxZ | --pes N]
//!                 [--backfill] [--out DIR] [--compare DIR] [--tol F]
//! t3d-sched compare OLD.json NEW.json [--tol F]
//! ```
//!
//! `gen` writes a `t3d-sched-trace-v1` trace; `run` schedules one and
//! prints the per-job ledger (ending with the ledger FNV fingerprint
//! the CI smoke job compares across `T3D_PAR`); `sweep`
//! runs the same job bodies at a ladder of offered loads and writes
//! `BENCH_sched.json`, optionally comparing against a baseline
//! directory (exit non-zero on regression). `sweep --pes N` sizes the
//! machine from a PE count instead of explicit extents, using the same
//! near-cubic factorisation every other harness in the workspace uses
//! (`--pes 256` → an 8x8x4 torus), so the saturation ladder runs on
//! full-size sub-machines without hand-picking dims. Everything is
//! virtual-time deterministic: the same seed yields byte-identical
//! traces and bit-identical ledgers under both phase drivers.
//!
//! Seeds are decimal or `0x` hex. An unknown or repeated flag, a
//! malformed value or a stray argument exits with status 2.

use std::process::ExitCode;

use t3d_perf::cli;
use t3d_sched::{
    compare, run_trace, ExecEnv, GenParams, HistSummary, KernelCache, SchedDoc, SimParams,
    SweepPoint, Trace,
};

/// The sweep's offered-load ladder: from a quiet machine to well past
/// saturation (gang scheduling plus power-of-two rounding caps
/// achievable utilization well below 1, so the knee sits early).
const LOADS: [f64; 6] = [0.25, 0.5, 0.75, 1.0, 2.0, 4.0];

fn parse_machine(text: &str) -> Result<(u32, u32, u32), String> {
    let parts: Vec<&str> = text.split('x').collect();
    if parts.len() != 3 {
        return Err(format!("machine must be XxYxZ, got {text:?}"));
    }
    let ext = |i: usize| -> Result<u32, String> {
        parts[i]
            .parse()
            .map_err(|e| format!("bad machine extent {:?}: {e}", parts[i]))
    };
    Ok((ext(0)?, ext(1)?, ext(2)?))
}

fn cmd_gen(argv: &[String]) -> Result<(), String> {
    let values = [
        "--jobs",
        "--mean-gap",
        "--seed",
        "--min-order",
        "--max-order",
        "--out",
    ];
    let args = cli::parse(argv, &values, &[])?;
    args.positionals(0)?;
    let d = GenParams::default();
    let p = GenParams {
        jobs: args.value("--jobs")?.unwrap_or(d.jobs),
        mean_interarrival_cy: args.value("--mean-gap")?.unwrap_or(d.mean_interarrival_cy),
        min_order: args.value("--min-order")?.unwrap_or(d.min_order),
        max_order: args.value("--max-order")?.unwrap_or(d.max_order),
        seed: args
            .value_with("--seed", cli::parse_seed)?
            .unwrap_or(d.seed),
    };
    let out = args.get("--out");
    let trace = Trace::generate(p);
    let mut text = trace.render();
    text.push('\n');
    match out {
        Some(path) => {
            std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
            println!(
                "wrote {path}: {} jobs, trace fingerprint {:#018x}",
                trace.jobs.len(),
                trace.fingerprint()
            );
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn cmd_run(argv: &[String]) -> Result<(), String> {
    let args = cli::parse(argv, &["--machine"], &["--backfill"])?;
    let machine = args
        .value_with("--machine", parse_machine)?
        .unwrap_or((4, 4, 2));
    let backfill = args.has("--backfill");
    let [path] = args.positionals(1)? else {
        return Err("usage: t3d-sched run TRACE.json [--machine XxYxZ] [--backfill]".to_string());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let trace = Trace::parse(&text)?;
    let params = SimParams {
        machine,
        backfill,
        env: ExecEnv::from_env(),
    };
    let mut cache = KernelCache::new();
    let run = run_trace(&trace, &params, &mut cache);

    println!(
        "{} jobs on a {}x{}x{} machine ({}, {:?} driver)",
        trace.jobs.len(),
        machine.0,
        machine.1,
        machine.2,
        if backfill { "backfill" } else { "strict FCFS" },
        params.env.driver,
    );
    println!(
        "{:>4} {:<16} {:>4} {:>12} {:>12} {:>12} {:>12}  block",
        "job", "kernel", "pes", "arrival", "wait", "run", "finish"
    );
    for o in &run.outcomes {
        let job = &trace.jobs[o.job_id as usize];
        println!(
            "{:>4} {:<16} {:>4} {:>12} {:>12} {:>12} {:>12}  {}",
            o.job_id,
            job.kernel.name(),
            job.pe_count,
            o.arrival_cy,
            o.wait_cy(),
            o.run_cy(),
            o.finish_cy,
            o.block,
        );
    }
    let machine_pes = u64::from(machine.0) * u64::from(machine.1) * u64::from(machine.2);
    let t = HistSummary::of(&run.metrics.turnaround);
    let w = HistSummary::of(&run.metrics.wait);
    println!(
        "makespan {} cy, utilization {:.3}, queue mean {:.2} max {}",
        run.makespan_cy,
        run.utilization(machine_pes),
        run.metrics.queue_mean(run.makespan_cy),
        run.metrics.queue_max,
    );
    println!(
        "wait p50/p95/p99 {}/{}/{} cy, turnaround p50/p95/p99 {}/{}/{} cy",
        w.p50, w.p95, w.p99, t.p50, t.p95, t.p99
    );
    println!(
        "alloc: {} allocs, {} splits, {} coalesces, {} fit failures; \
         kernel cache {} runs {} hits",
        run.alloc_stats.allocs,
        run.alloc_stats.splits,
        run.alloc_stats.coalesces,
        run.alloc_stats.fit_failures,
        cache.misses(),
        cache.hits(),
    );
    println!("ledger_fnv {:#018x}", run.ledger_fnv);
    Ok(())
}

/// Runs the saturation sweep: the same seeded job bodies replayed at
/// each target load, with the mean inter-arrival gap calibrated from
/// the jobs' actual (memoised) service demands.
fn run_sweep(machine: (u32, u32, u32), jobs: u32, seed: u64, backfill: bool) -> SchedDoc {
    let env = ExecEnv::from_env();
    let machine_pes = u64::from(machine.0) * u64::from(machine.1) * u64::from(machine.2);
    println!(
        "sweep: {}x{}x{} machine ({machine_pes} PEs), {jobs} jobs per point, seed {seed:#x}, {}",
        machine.0,
        machine.1,
        machine.2,
        if backfill { "backfill" } else { "strict FCFS" },
    );
    let mut cache = KernelCache::new();

    // Job bodies depend only on the seed: `Trace::generate` draws one
    // gap sample per job regardless of the mean, so regenerating with
    // a different mean gap rescales arrivals while keeping every
    // (kernel, pes, size, seed) body identical — which is what lets
    // one kernel cache serve the whole ladder.
    let probe = Trace::generate(GenParams {
        jobs,
        seed,
        ..GenParams::default()
    });
    // Prime the cache and measure mean demand (PE-cycles per job).
    let mut demand_pe_cy = 0u64;
    for job in &probe.jobs {
        let pes = u64::from(job.pe_count).next_power_of_two();
        let r = cache.run(env, job, pes as u32);
        demand_pe_cy += pes * r.cycles;
    }
    let mean_demand = demand_pe_cy as f64 / f64::from(jobs);

    let mut points = Vec::new();
    for load in LOADS {
        // Offered load = (mean demand / mean gap) / machine PEs.
        let gap = (mean_demand / (load * machine_pes as f64)).round() as u64;
        let trace = Trace::generate(GenParams {
            jobs,
            mean_interarrival_cy: gap.max(2),
            seed,
            ..GenParams::default()
        });
        let params = SimParams {
            machine,
            backfill,
            env,
        };
        let run = run_trace(&trace, &params, &mut cache);
        let point = SweepPoint {
            load,
            mean_interarrival_cy: gap.max(2),
            jobs,
            wait: HistSummary::of(&run.metrics.wait),
            run: HistSummary::of(&run.metrics.run),
            turnaround: HistSummary::of(&run.metrics.turnaround),
            utilization: run.utilization(machine_pes),
            queue_mean: run.metrics.queue_mean(run.makespan_cy),
            queue_max: run.metrics.queue_max,
            makespan_cy: run.makespan_cy,
            ledger_fnv: run.ledger_fnv,
        };
        println!(
            "load {:>4.2}: gap {:>9} cy, util {:.3}, turnaround p50/p99 {}/{} cy, \
             queue mean {:>5.2} max {:>2}, ledger {:#018x}",
            point.load,
            point.mean_interarrival_cy,
            point.utilization,
            point.turnaround.p50,
            point.turnaround.p99,
            point.queue_mean,
            point.queue_max,
            point.ledger_fnv,
        );
        points.push(point);
    }
    println!(
        "kernel cache: {} distinct runs, {} hits across {} load points",
        cache.misses(),
        cache.hits(),
        LOADS.len()
    );
    SchedDoc {
        machine,
        seed,
        backfill,
        points,
    }
}

fn cmd_sweep(argv: &[String]) -> Result<bool, String> {
    let values = [
        "--machine",
        "--pes",
        "--jobs",
        "--seed",
        "--tol",
        "--out",
        "--compare",
    ];
    let args = cli::parse(argv, &values, &["--backfill"])?;
    args.positionals(0)?;
    let pes_dims = |v: &str| {
        let pes: u32 = v.parse().map_err(|e| format!("{e}"))?;
        // The partition allocator buddies over power-of-two extents,
        // so the PE count must be one too; the near-cubic
        // factorisation then yields power-of-two extents.
        if !pes.is_power_of_two() {
            return Err("must be a power of two".to_string());
        }
        Ok(t3d_torus::TorusConfig::for_nodes(pes).dims)
    };
    let machine = match (
        args.value_with("--machine", parse_machine)?,
        args.value_with("--pes", pes_dims)?,
    ) {
        (Some(_), Some(_)) => {
            return Err("--machine and --pes are mutually exclusive".to_string());
        }
        (m, p) => m.or(p).unwrap_or((4, 4, 2)),
    };
    let jobs = args.value("--jobs")?.unwrap_or(96u32);
    let seed = args
        .value_with("--seed", cli::parse_seed)?
        .unwrap_or(0x5EED);
    let tol = args.value("--tol")?.unwrap_or(0.25f64);
    let backfill = args.has("--backfill");
    let out = std::path::Path::new(args.get("--out").unwrap_or("."));
    let compare_dir = args.get("--compare");

    let doc = run_sweep(machine, jobs, seed, backfill);
    let path = out.join("BENCH_sched.json");
    let mut text = doc.render();
    text.push('\n');
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "wrote {} ({} load points)",
        path.display(),
        doc.points.len()
    );

    if let Some(dir) = compare_dir {
        let base_path = std::path::Path::new(dir).join("BENCH_sched.json");
        let base_text = std::fs::read_to_string(&base_path)
            .map_err(|e| format!("cannot read baseline {}: {e}", base_path.display()))?;
        let baseline = SchedDoc::parse(&base_text)?;
        let problems = compare(&baseline, &doc, tol);
        if problems.is_empty() {
            println!("sched: within {:.0}% of baseline", tol * 100.0);
        } else {
            for p in &problems {
                eprintln!("REGRESSION [sched]: {p}");
            }
            return Ok(false);
        }
    }
    Ok(true)
}

fn cmd_compare(argv: &[String]) -> Result<bool, String> {
    let args = cli::parse(argv, &["--tol"], &[])?;
    let tol = args.value("--tol")?.unwrap_or(0.25f64);
    let [old_path, new_path] = args.positionals(2)? else {
        return Err("usage: t3d-sched compare OLD.json NEW.json [--tol F]".to_string());
    };
    let read = |p: &str| -> Result<SchedDoc, String> {
        SchedDoc::parse(&std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?)
    };
    let (old, new) = (read(old_path)?, read(new_path)?);
    let problems = compare(&old, &new, tol);
    if problems.is_empty() {
        println!(
            "OK: {} load points within {:.0}% of baseline",
            new.points.len(),
            tol * 100.0
        );
        return Ok(true);
    }
    for p in &problems {
        eprintln!("REGRESSION: {p}");
    }
    Ok(false)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("usage: t3d-sched <gen|run|sweep|compare> [flags]");
        return ExitCode::from(2);
    };
    let result = match cmd.as_str() {
        "gen" => cmd_gen(rest).map(|()| true),
        "run" => cmd_run(rest).map(|()| true),
        "sweep" => cmd_sweep(rest),
        "compare" => cmd_compare(rest),
        other => {
            eprintln!("unknown command {other:?}; expected gen, run, sweep or compare");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => cli::usage_error("t3d-sched", &e),
    }
}
