//! Host-time benchmark of the T3D simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload em3d|scale-1024|sched-stream --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs passes of one workload until `--seconds` have elapsed, checks
//! every timed call's simulated totals and fingerprints, and prints one
//! JSON object as the last line of standard output: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics (plus a layer table
//! above the JSON) with `--trace 1`. `--self-test` corrupts one pin and
//! exits 0 only if the failure is counted. See `perfbench/README.md`.

mod check;
mod em3d_wl;
mod reference;
mod scale_wl;
mod sched_wl;
mod spans;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use check::Pins;
use reference::Reference;
use spans::{Profile, Spans};
use t3d_perf::json::Value;
use t3d_perf::PerfReport;

/// The seed every workload's pins were taken at.
pub const DEFAULT_SEED: u64 = 1;

/// Simulated work a timed call completed.
#[derive(Debug, Clone, Copy)]
pub struct Work {
    /// Simulated cycles summed over the machine's PEs.
    pub pe_cycles: u64,
    /// Programs run to completion (EM3D versions, pattern runs, jobs).
    pub jobs: u64,
}

#[derive(Debug)]
struct CallRecord {
    name: String,
    /// Seconds at the reference speed (see [`reference`]).
    secs: f64,
    work: Option<Work>,
}

#[derive(Debug, Default)]
struct PassRecord {
    calls: Vec<CallRecord>,
    /// Seconds at the reference speed of each set-up sample.
    setup: Vec<f64>,
}

impl PassRecord {
    /// Seconds at the reference speed in timed calls.
    fn timed_s(&self) -> f64 {
        self.calls.iter().map(|c| c.secs).sum()
    }
}

/// What a workload's pass sees: the span recorder, the pins, the
/// per-layer counters and the failure tally.
pub struct Ctx {
    /// Span recorder (disabled in end-to-end runs).
    pub spans: Spans,
    pins: Pins,
    counters: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
    pass: PassRecord,
    reference: Reference,
}

impl Ctx {
    fn new(traced: bool, pins: Pins) -> Ctx {
        Ctx {
            spans: Spans::new(traced),
            pins,
            counters: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            pass: PassRecord::default(),
            reference: Reference::new(),
        }
    }

    /// Whether this pass collects per-layer data.
    pub fn traced(&self) -> bool {
        self.spans.enabled()
    }

    /// Runs one set-up sample: `setup_s` is the median of their times
    /// at the reference speed.
    pub fn setup<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let before = self.reference.sample();
        let t = Instant::now();
        let out = self.spans.time(name, f);
        let secs = t.elapsed().as_secs_f64();
        let after = self.reference.sample();
        self.pass
            .setup
            .push(reference::normalise(secs, before, after));
        out
    }

    /// Runs one timed call and checks its result. A panic in `run` or
    /// an `Err` from `verify` counts as a failed operation; the pass
    /// goes on either way. Only `run` is timed.
    pub fn call<T>(
        &mut self,
        name: &str,
        run: impl FnOnce(&mut Ctx) -> T,
        verify: impl FnOnce(&T, &mut Pins) -> Result<Work, String>,
    ) {
        self.attempted += 1;
        let before = self.reference.sample();
        let depth = self.spans.depth();
        self.spans.open(&format!("bench.{name}"));
        let t = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| run(self)));
        let secs = t.elapsed().as_secs_f64();
        self.spans.close_to(depth);
        let after = self.reference.sample();
        let checked = match out {
            Ok(v) => verify(&v, &mut self.pins),
            Err(_) => Err("panicked".to_string()),
        };
        let work = match checked {
            Ok(w) => Some(w),
            Err(e) => {
                self.failed += 1;
                eprintln!("FAILED {name}: {e}");
                None
            }
        };
        self.pass.calls.push(CallRecord {
            name: name.to_string(),
            secs: reference::normalise(secs, before, after),
            work,
        });
    }

    /// Adds `v` to a per-layer counter (traced passes only).
    pub fn count(&mut self, name: &str, v: f64) {
        if self.traced() {
            *self.counters.entry(name.to_string()).or_default() += v;
        }
    }

    /// Raises a per-layer high-water mark (traced passes only).
    pub fn count_max(&mut self, name: &str, v: f64) {
        if self.traced() {
            let c = self.counters.entry(name.to_string()).or_default();
            *c = c.max(v);
        }
    }

    /// Adds a perf report's counters and waiting cycles.
    pub fn absorb(&mut self, report: &PerfReport) {
        for (name, v) in report.registry.counters() {
            if LAYER_COUNTERS.contains(&name) || name.starts_with("ops.") {
                self.count(name, v as f64);
            }
            if name.starts_with("ops.") {
                self.count("ops.total", v as f64);
            }
        }
        for (class, cy) in report.merged().entries() {
            let key = format!("ledger.{}_cy", class.label().replace('-', "_"));
            if LEDGER_METRICS.contains(&key.as_str()) {
                self.count(&key, cy as f64);
            }
        }
    }
}

/// Registry counters reported per layer besides `ops.*`.
const LAYER_COUNTERS: [&str; 4] = [
    "mem.wbuf.merges",
    "mem.wbuf.stalls",
    "mem.tlb.misses",
    "barrier.episodes",
];

/// Ledger classes reported per layer, as metric names.
const LEDGER_METRICS: [&str; 7] = [
    "ledger.contention_cy",
    "ledger.net_hop_cy",
    "ledger.wbuf_stall_cy",
    "ledger.barrier_wait_cy",
    "ledger.ack_wait_cy",
    "ledger.prefetch_wait_cy",
    "ledger.blt_wait_cy",
];

/// One workload: its name, its pins at [`DEFAULT_SEED`], and one pass.
struct WorkloadDef {
    name: &'static str,
    pins: &'static [(&'static str, u64)],
    pass: fn(u64, &mut Ctx),
}

const WORKLOADS: [WorkloadDef; 3] = [
    WorkloadDef {
        name: "em3d",
        pins: em3d_wl::PINS,
        pass: em3d_wl::pass,
    },
    WorkloadDef {
        name: "scale-1024",
        pins: scale_wl::PINS,
        pass: scale_wl::pass,
    },
    WorkloadDef {
        name: "sched-stream",
        pins: sched_wl::PINS,
        pass: sched_wl::pass,
    },
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                };
            }
            "--self-test" => args.self_test = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err(format!(
            "--seconds must be in (0, 120], got {}",
            args.seconds
        ));
    }
    Ok(args)
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Runs one pass under a root span and returns its record.
fn one_pass(def: &WorkloadDef, seed: u64, ctx: &mut Ctx, run: u32) -> PassRecord {
    ctx.spans.set_run(run);
    ctx.pass = PassRecord::default();
    ctx.spans.open("pass");
    (def.pass)(seed, ctx);
    ctx.spans.close_to(0);
    std::mem::take(&mut ctx.pass)
}

/// Runs passes until `seconds` have elapsed (at least one). Returns
/// them with the peak RSS in MB at the end of the first pass: one whole
/// run of the workload. Later passes add only allocator fragmentation,
/// which grows with the number of passes and so with host speed.
fn passes_for(def: &WorkloadDef, seed: u64, ctx: &mut Ctx, seconds: f64) -> (Vec<PassRecord>, f64) {
    let start = Instant::now();
    let mut out = vec![one_pass(def, seed, ctx, 0)];
    let rss = peak_rss_mb();
    while start.elapsed().as_secs_f64() < seconds {
        let run = u32::try_from(out.len()).unwrap_or(u32::MAX);
        out.push(one_pass(def, seed, ctx, run));
    }
    (out, rss)
}

/// The traced run: an untraced warm-up pass, then traced and untraced
/// passes in turn until `seconds` have elapsed (at least one of each).
/// Returns the median timed seconds of the traced and untraced passes;
/// their ratio is the tracing overhead. Only traced passes record spans
/// and counters.
fn traced_passes(def: &WorkloadDef, seed: u64, ctx: &mut Ctx, seconds: f64) -> (f64, f64) {
    ctx.spans.set_enabled(false);
    one_pass(def, seed, ctx, 0);
    let start = Instant::now();
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    while traced.is_empty() || untraced.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let on = traced.len() <= untraced.len();
        ctx.spans.set_enabled(on);
        let run = u32::try_from(traced.len()).unwrap_or(u32::MAX);
        let t = one_pass(def, seed, ctx, run).timed_s();
        if on {
            traced.push(t)
        } else {
            untraced.push(t)
        }
    }
    ctx.spans.set_enabled(true);
    (median(traced), median(untraced))
}

/// Peak resident set of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

type Metric = (&'static str, f64, &'static str);

/// The end-to-end metrics. All times are seconds at the reference
/// speed. Each call's time is its median over the passes in which it
/// succeeded; the rates divide the calls' simulated work by the sum of
/// those medians. `setup_s` is the median of every set-up sample.
fn end_to_end(passes: &[PassRecord], peak_rss_mb: f64) -> Vec<Metric> {
    let mut secs: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut work: BTreeMap<&str, Work> = BTreeMap::new();
    for p in passes {
        for c in &p.calls {
            if let Some(w) = c.work {
                secs.entry(&c.name).or_default().push(c.secs);
                work.insert(&c.name, w);
            }
        }
    }
    let host_s: f64 = secs.into_values().map(median).sum();
    let pe_cycles: f64 = work.values().map(|w| w.pe_cycles as f64).sum();
    let jobs: f64 = work.values().map(|w| w.jobs as f64).sum();
    let rate = |x: f64| if host_s > 0.0 { x / host_s } else { 0.0 };
    vec![
        ("sim_rate", rate(pe_cycles) / 1e6, "Mcycles/s"),
        (
            "setup_s",
            median(
                passes
                    .iter()
                    .flat_map(|p| p.setup.iter().copied())
                    .collect(),
            ),
            "s",
        ),
        ("peak_rss_mb", peak_rss_mb, "MB"),
        ("jobs_per_s", rate(jobs), "jobs/s"),
    ]
}

/// The per-layer metrics of a traced run. Every workload reports every
/// metric; a layer a workload does not reach reads 0.
fn per_layer(profile: &Profile, counters: &BTreeMap<String, f64>, overhead: f64) -> Vec<Metric> {
    let passes = profile.passes as f64;
    let c = |name: &str| counters.get(name).copied().unwrap_or(0.0) / passes;
    let s = |name: &str| profile.secs_per_pass(name);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let phase_calls = profile.calls_per_pass("machine.phase");
    let em3d_s: f64 = em3d_wl::VERSIONS
        .iter()
        .map(|v| s(&em3d_wl::span_name(*v)))
        .sum();
    let mut out: Vec<Metric> = vec![
        ("machine.phase_s", s("machine.phase"), "s"),
        ("machine.phase_calls", phase_calls, "count"),
        (
            "machine.phase_ms_per_call",
            ratio(1e3 * s("machine.phase"), phase_calls),
            "ms",
        ),
        ("machine.barrier_s", s("machine.barrier"), "s"),
        ("machine.fetch_inc_s", s("machine.fetch_inc"), "s"),
        ("machine.blt_s", s("machine.blt"), "s"),
        ("machine.new_s", s("machine.new"), "s"),
        ("machine.snapshot_s", s("machine.snapshot"), "s"),
        (
            "mem.arena_resident_mb",
            counters
                .get("mem.arena_resident_bytes")
                .copied()
                .unwrap_or(0.0)
                / 1048576.0,
            "MB",
        ),
        ("event.events", c("event.events"), "count"),
        (
            "event.ff_share",
            ratio(c("event.cycles_fast_forwarded"), c("sim.pe_cycles")),
            "ratio",
        ),
        ("em3d.ns_per_op", ratio(1e9 * em3d_s, c("ops.total")), "ns"),
        ("sched.run_trace_s", s("sched.run_trace"), "s"),
        (
            "sched.cache_hit_ratio",
            ratio(c("sched.cache.hits"), c("sched.cache.attempts")),
            "ratio",
        ),
        (
            "sched.fit_failure_ratio",
            ratio(c("sched.alloc.fit_failures"), c("sched.alloc.allocs")),
            "ratio",
        ),
        ("trace.coverage", profile.coverage(), "ratio"),
        ("trace.overhead", overhead, "ratio"),
    ];
    for v in em3d_wl::VERSIONS {
        out.push((em3d_wl::metric_name(v), s(&em3d_wl::span_name(v)), "s"));
    }
    for k in sched_wl::FAMILIES {
        out.push((k.metric, s(k.span), "s"));
    }
    for name in OP_METRICS
        .iter()
        .chain(&LAYER_COUNTERS)
        .chain(&LEDGER_METRICS)
    {
        let unit = if name.starts_with("ledger.") {
            "cycles"
        } else {
            "count"
        };
        out.push((name, c(name), unit));
    }
    out
}

/// Op counters reported per layer.
const OP_METRICS: [&str; 9] = [
    "ops.ld.local",
    "ops.st.local",
    "ops.ld.remote",
    "ops.st.remote",
    "ops.fetch",
    "ops.pop",
    "ops.msg.send",
    "ops.blt",
    "ops.atomic",
];

fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let m = metrics
        .iter()
        .map(|&(name, value, unit)| {
            (
                name,
                Value::obj(vec![
                    ("value", Value::Float(value)),
                    ("unit", Value::Str(unit.to_string())),
                ]),
            )
        })
        .collect();
    Value::obj(vec![
        ("correct", Value::Bool(failed == 0)),
        (
            "attempted",
            Value::Int(i64::try_from(attempted).unwrap_or(i64::MAX)),
        ),
        (
            "failed",
            Value::Int(i64::try_from(failed).unwrap_or(i64::MAX)),
        ),
        ("metrics", Value::obj(m)),
    ])
    .render()
}

/// Writes the traced run's spans under `perfbench/out/`.
fn write_spans(spans: &Spans, workload: &str, seed: u64) -> std::io::Result<String> {
    let dir = std::path::Path::new("perfbench").join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{workload}-seed{seed}.json"));
    std::fs::write(&path, spans.to_json().render())?;
    Ok(path.display().to_string())
}

fn self_test(def: &WorkloadDef) -> bool {
    let mut pins = Pins::pinned(def.pins);
    let key = pins.first_key().expect("every workload pins something");
    pins.corrupt(&key);
    let mut ctx = Ctx::new(false, pins);
    one_pass(def, DEFAULT_SEED, &mut ctx, 0);
    println!(
        "self-test {}: corrupted pin {key}: {} of {} calls failed",
        def.name, ctx.failed, ctx.attempted
    );
    ctx.failed >= 1
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(def) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("perfbench: --workload must be one of {names:?}");
        return ExitCode::from(2);
    };
    if args.self_test {
        return if self_test(def) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let pins = if args.seed == DEFAULT_SEED {
        Pins::pinned(def.pins)
    } else {
        Pins::learned()
    };
    let mut ctx = Ctx::new(args.trace, pins);
    let metrics = if args.trace {
        let (traced, untraced) = traced_passes(def, args.seed, &mut ctx, args.seconds);
        let overhead = if untraced > 0.0 {
            traced / untraced - 1.0
        } else {
            0.0
        };
        let profile = ctx.spans.profile();
        print!("{}", profile.render(def.name));
        if let Some(line) = scale_wl::balance_line(def.name, &profile) {
            println!("{line}");
        }
        println!(
            "  tracing overhead: {:+.1}% of the untraced pass",
            100.0 * overhead
        );
        match write_spans(&ctx.spans, def.name, args.seed) {
            Ok(path) => println!("  spans written to {path}"),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
        per_layer(&profile, &ctx.counters, overhead)
    } else {
        let (passes, rss) = passes_for(def, args.seed, &mut ctx, args.seconds);
        end_to_end(&passes, rss)
    };
    println!("{}", result_json(ctx.attempted, ctx.failed, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn work(_: &u64, _: &mut Pins) -> Result<Work, String> {
        Ok(Work {
            pe_cycles: 1,
            jobs: 1,
        })
    }

    #[test]
    fn panics_and_mismatches_count_as_failures_and_the_pass_goes_on() {
        let mut ctx = Ctx::new(false, Pins::pinned(&[("x", 7)]));
        ctx.call("boom", |_| -> u64 { panic!("injected") }, work);
        ctx.call(
            "wrong",
            |_| 8u64,
            |v, pins| {
                pins.check("x", *v)?;
                work(v, pins)
            },
        );
        ctx.call("fine", |_| 7u64, work);
        assert_eq!((ctx.attempted, ctx.failed), (3, 2));
        let pass = std::mem::take(&mut ctx.pass);
        assert_eq!(pass.calls.len(), 3);
        assert!(pass.calls[2].work.is_some());
    }

    #[test]
    fn rates_and_setup_use_medians() {
        let call = |name: &str, secs: f64| CallRecord {
            name: name.to_string(),
            secs,
            work: Some(Work {
                pe_cycles: 2_000_000,
                jobs: 1,
            }),
        };
        let passes: Vec<PassRecord> = [1.0, 3.0, 1.0]
            .iter()
            .map(|&s| PassRecord {
                calls: vec![call("a", s)],
                setup: vec![s, 2.0 * s],
            })
            .collect();
        let m = end_to_end(&passes, 1.0);
        let get = |n: &str| m.iter().find(|x| x.0 == n).expect("metric").1;
        assert!((get("sim_rate") - 2.0).abs() < 1e-12);
        assert!((get("jobs_per_s") - 1.0).abs() < 1e-12);
        assert!((get("setup_s") - 2.0).abs() < 1e-12);
    }
}
