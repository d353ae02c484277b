//! `t3d-lint` — static analysis of Split-C programs for the simulated
//! CRAY-T3D.
//!
//! Lints per-PE op streams — recorded from a real run or lowered from a
//! fuzzer program — for the correctness hazards `t3dsan` detects
//! dynamically (`T3D-H…`) and for machine-parameterized performance
//! advisories (`T3D-P…`): BLT crossovers, DRAM page/bank conflicts,
//! write-buffer thrashing and prefetch-queue misuse.
//!
//! Usage:
//!
//! ```text
//! t3d-lint [--json] [--out FILE] em3d [VERSION|all]
//! t3d-lint [--json] [--out FILE] corpus [SEEDS.txt]
//! t3d-lint [--json] [--out FILE] seed SEED [CASES]
//! t3d-lint [--json] [--out FILE] demo
//! ```
//!
//! `em3d` records each EM3D version's op stream (a real simulated run
//! with op recording on) and lints it — the repository's negative
//! corpus, clean of hazard rules by construction. `corpus` replays the
//! checked-in fuzz corpus (default `crates/fuzz/corpus/seeds.txt`)
//! through the generator and lints every program. `seed` lints the
//! program(s) a single master seed denotes. `demo` lints a small
//! program written to trip both hazard and advisory rules.
//!
//! `--json` prints one JSON document (schema `t3d-lint-v1`) instead of
//! the aligned tables; `--out FILE` writes that document to `FILE` as
//! well. Exit status: 0 when every linted program is hazard-free
//! (advisories allowed), 1 when any hazard rule fired, 2 on usage
//! errors (an unknown or repeated flag, a missing value or a stray
//! argument).

use std::process::ExitCode;

use em3d::{run_version_observed, Em3dParams, Version};
use splitc::{GlobalPtr, SanitizeMode, ScOp, SplitcConfig};
use t3d_fuzz::{case_seed, lint_case, parse_seed, program_for_seed};
use t3d_lint::{lint, LintProgram, LintReport};
use t3d_machine::{MachineConfig, PhaseDriver};
use t3d_perf::cli;
use t3d_perf::json::Value;

/// One linted program: a display name plus its report.
struct Entry {
    name: String,
    report: LintReport,
}

fn lint_em3d(which: &str) -> Result<Vec<Entry>, String> {
    let versions: Vec<Version> = if which == "all" {
        Version::all().to_vec()
    } else {
        match Version::all()
            .into_iter()
            .find(|v| v.label().eq_ignore_ascii_case(which))
        {
            Some(v) => vec![v],
            None => {
                return Err(format!(
                    "unknown EM3D version {which:?}; expected all or one of {:?}",
                    Version::all().map(|v| v.label())
                ))
            }
        }
    };
    let nprocs = 4;
    let params = Em3dParams::tiny(30.0);
    let mcfg = MachineConfig::t3d_with_mem(nprocs, 4 * 1024 * 1024);
    let scfg = SplitcConfig::t3d();
    Ok(versions
        .into_iter()
        .map(|v| {
            let driver = PhaseDriver::from_env();
            let (_, streams, _) =
                run_version_observed(driver, nprocs, params, v, true, SanitizeMode::Off);
            let report = lint(&LintProgram::from_recorded(streams), &mcfg, &scfg);
            Entry {
                name: format!("em3d.{}", v.label()),
                report,
            }
        })
        .collect())
}

/// Parses the corpus file format: one `master-seed case-count` pair per
/// line, `#` comments and blank lines ignored.
fn corpus_lines(text: &str) -> Result<Vec<(u64, usize)>, String> {
    let mut out = Vec::new();
    for (no, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let (Some(seed), Some(count)) = (it.next(), it.next()) else {
            return Err(format!("line {}: expected `seed count`", no + 1));
        };
        let count: usize = count
            .parse()
            .map_err(|e| format!("line {}: bad count {count:?}: {e}", no + 1))?;
        out.push((parse_seed(seed), count));
    }
    Ok(out)
}

fn lint_corpus(path: &str) -> Result<Vec<Entry>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut entries = Vec::new();
    for (master, count) in corpus_lines(&text)? {
        for case in 0..count {
            let seed = case_seed(master, case);
            entries.push(Entry {
                name: format!("corpus.{seed:#x}"),
                report: lint_case(&program_for_seed(seed), 0x100),
            });
        }
    }
    Ok(entries)
}

fn lint_seed(seed: u64, cases: usize) -> Vec<Entry> {
    (0..cases)
        .map(|case| {
            let s = case_seed(seed, case);
            Entry {
                name: format!("seed.{s:#x}"),
                report: lint_case(&program_for_seed(s), 0x100),
            }
        })
        .collect()
}

/// A two-PE program written to trip H001, H004 and P003: the issuer
/// reads a get's landing slot before the sync, both PEs put to the same
/// remote word, and PE0 scatters sub-word writes across distinct cache
/// lines faster than the four-entry write buffer can retire them.
fn demo_program() -> LintProgram {
    let mut lp = LintProgram::new(2);
    let base = 0x100u64;
    // H001: read the landing slot while the get is still in flight.
    lp.push(
        0,
        ScOp::Get {
            local_off: base,
            src: GlobalPtr::new(1, base + 64),
        },
    );
    lp.push(
        0,
        ScOp::ReadU64 {
            src: GlobalPtr::new(0, base),
        },
    );
    lp.push(0, ScOp::Sync);
    // H004: both PEs put to PE1's word at base+128 in the same phase.
    lp.push(
        0,
        ScOp::Put {
            dst: GlobalPtr::new(1, base + 128),
            value: 1,
        },
    );
    lp.push(
        1,
        ScOp::Put {
            dst: GlobalPtr::new(1, base + 128),
            value: 2,
        },
    );
    lp.push(0, ScOp::Sync);
    lp.push(1, ScOp::Sync);
    // P003: sub-word writes to 8 distinct lines back to back.
    for i in 0..8u64 {
        lp.push(
            1,
            ScOp::ByteWrite {
                dst: GlobalPtr::new(1, base + 512 + i * 256),
                value: i as u8,
            },
        );
    }
    lp.push_all(splitc::RecEvent::Barrier);
    lp
}

fn lint_demo() -> Vec<Entry> {
    let mcfg = MachineConfig::t3d(2);
    let scfg = SplitcConfig::t3d();
    vec![Entry {
        name: "demo".to_string(),
        report: lint(&demo_program(), &mcfg, &scfg),
    }]
}

fn doc(entries: &[Entry]) -> Value {
    let hazards: i64 = entries
        .iter()
        .map(|e| e.report.hazards().len() as i64)
        .sum();
    Value::obj(vec![
        ("schema", Value::Str("t3d-lint-v1".to_string())),
        ("programs", Value::Int(entries.len() as i64)),
        ("hazard_sites", Value::Int(hazards)),
        (
            "entries",
            Value::Arr(
                entries
                    .iter()
                    .map(|e| {
                        Value::obj(vec![
                            ("name", Value::Str(e.name.clone())),
                            ("report", e.report.to_json()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

const USAGE: &str = "usage: t3d-lint [--json] [--out FILE] <em3d [VERSION|all] | corpus [SEEDS.txt] | seed SEED [CASES] | demo>";

/// Lints the programs the command line names.
fn lint_command(args: &cli::Args) -> Result<Vec<Entry>, String> {
    let max = match args.command() {
        Some("seed") => 3,
        Some("demo") => 1,
        _ => 2,
    };
    match args
        .positionals(max)?
        .iter()
        .map(String::as_str)
        .collect::<Vec<_>>()[..]
    {
        ["em3d"] => lint_em3d("all"),
        ["em3d", which] => lint_em3d(which),
        ["corpus"] => lint_corpus("crates/fuzz/corpus/seeds.txt"),
        ["corpus", path] => lint_corpus(path),
        ["seed", seed] => Ok(lint_seed(parse_seed(seed), 1)),
        ["seed", seed, cases] => match cases.parse() {
            Ok(n) if n > 0 => Ok(lint_seed(parse_seed(seed), n)),
            _ => Err(format!("CASES {cases:?} is not a positive integer")),
        },
        ["demo"] => Ok(lint_demo()),
        _ => Err(USAGE.to_string()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = cli::parse(&argv, &["--out"], &["--json"])
        .unwrap_or_else(|e| cli::usage_error("t3d-lint", &e));
    let json = args.has("--json");
    let out = args.get("--out");
    let entries = lint_command(&args).unwrap_or_else(|e| cli::usage_error("t3d-lint", &e));

    let document = doc(&entries);
    if json {
        println!("{}", document.render_pretty());
    } else {
        for e in &entries {
            // Clean programs print one summary line; findings print the
            // full table.
            if e.report.is_empty() {
                println!("{}: clean ({} events)", e.name, e.report.events_processed);
            } else {
                println!("=== {} ===\n{}", e.name, e.report.render_table());
            }
        }
    }
    if let Some(path) = out {
        let mut text = document.render_pretty();
        text.push('\n');
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        if json {
            eprintln!("wrote {path}");
        } else {
            println!("wrote {path}");
        }
    }

    let hazard_programs = entries
        .iter()
        .filter(|e| !e.report.is_hazard_free())
        .count();
    if hazard_programs > 0 {
        eprintln!(
            "FAIL: {hazard_programs} of {} program(s) have hazards",
            entries.len()
        );
        ExitCode::FAILURE
    } else {
        // In --json mode stdout is the document; keep it parseable.
        let ok = format!("ok: {} program(s) hazard-free", entries.len());
        if json {
            eprintln!("{ok}");
        } else {
            println!("{ok}");
        }
        ExitCode::SUCCESS
    }
}
