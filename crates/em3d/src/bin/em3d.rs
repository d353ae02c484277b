//! `em3d` — run the EM3D application study from the command line.
//!
//! ```sh
//! em3d [--pes N] [--nodes N] [--degree D] [--steps S] [--seed X]
//!      [--remote P1,P2,...] [--versions V1,V2,...] [--stats]
//! ```
//!
//! Defaults reproduce a reduced Figure 9; `--pes 32 --nodes 500
//! --degree 20` is the paper's configuration. `--seed` takes a decimal
//! or `0x`-prefixed hex number. An unknown or repeated flag, or a
//! malformed flag value, exits with status 2 and names the flag.

use em3d::{run_version, Em3dParams, Version};
use std::collections::HashMap;

/// Reports a bad command line and exits with status 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("em3d: {msg} (see --help)");
    std::process::exit(2);
}

/// Flags that take a value.
const VALUE_FLAGS: [&str; 7] = [
    "--pes",
    "--nodes",
    "--degree",
    "--steps",
    "--seed",
    "--remote",
    "--versions",
];

/// The command line as flag -> value (`""` for `--stats`).
type Flags<'a> = HashMap<&'a str, &'a str>;

/// Reads the command line; an unknown or repeated flag, or a missing
/// value, is a usage error.
fn parse_args(args: &[String]) -> Flags<'_> {
    let mut flags = HashMap::new();
    let mut it = args.iter().map(String::as_str);
    while let Some(flag) = it.next() {
        let value = if flag == "--stats" {
            ""
        } else if VALUE_FLAGS.contains(&flag) {
            it.next()
                .unwrap_or_else(|| usage_error(&format!("{flag} needs a value")))
        } else {
            usage_error(&format!("unknown flag {flag:?}"))
        };
        if flags.insert(flag, value).is_some() {
            usage_error(&format!("{flag} is given more than once"));
        }
    }
    flags
}

fn parse_flag<T: std::str::FromStr>(flags: &Flags, flag: &str, default: T) -> T {
    match flags.get(flag) {
        None => default,
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| usage_error(&format!("{flag} {v:?} is not a number"))),
    }
}

/// `--seed`, decimal or `0x`-prefixed hex.
fn parse_seed(flags: &Flags, default: u64) -> u64 {
    let Some(v) = flags.get("--seed") else {
        return default;
    };
    match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => v.parse().ok(),
    }
    .unwrap_or_else(|| usage_error(&format!("--seed {v:?} is not a decimal or 0x-hex number")))
}

fn parse_list<'a>(flags: &Flags<'a>, flag: &str, default: &'a str) -> Vec<&'a str> {
    flags
        .get(flag)
        .copied()
        .unwrap_or(default)
        .split(',')
        .map(str::trim)
        .collect()
}

fn version_by_name(name: &str) -> Option<Version> {
    Version::all()
        .into_iter()
        .find(|v| v.label().eq_ignore_ascii_case(name))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "usage: em3d [--pes N] [--nodes N] [--degree D] [--steps S] [--seed X|0xX]\n\
             \x20           [--remote P1,P2,...] [--versions Simple,Bundle,...] [--stats]\n\
             versions: {}",
            Version::all().map(|v| v.label()).join(", ")
        );
        return;
    }
    let flags = parse_args(&args);
    let pes: u32 = parse_flag(&flags, "--pes", 8);
    let base = Em3dParams {
        nodes_per_pe: parse_flag(&flags, "--nodes", 100),
        degree: parse_flag(&flags, "--degree", 10),
        pct_remote: 0.0,
        steps: parse_flag(&flags, "--steps", 1),
        seed: parse_seed(&flags, 0xE3D),
    };
    let pcts: Vec<f64> = parse_list(&flags, "--remote", "0,5,10,20,40")
        .iter()
        .map(|s| {
            s.parse()
                .unwrap_or_else(|_| usage_error(&format!("--remote {s:?} is not a number")))
        })
        .collect();
    let versions: Vec<Version> = parse_list(
        &flags,
        "--versions",
        "Simple,Bundle,Unroll,Get,Put,Bulk,StoreSync",
    )
    .iter()
    .map(|s| version_by_name(s).unwrap_or_else(|| usage_error(&format!("unknown version `{s}`"))))
    .collect();

    let show_stats = flags.contains_key("--stats");
    println!(
        "EM3D: {pes} PEs, {} nodes/PE, degree {}, {} step(s) (us per edge)\n",
        base.nodes_per_pe, base.degree, base.steps
    );
    print!("{:>9}", "% remote");
    for v in &versions {
        print!("{:>10}", v.label());
    }
    println!();
    for &pct in &pcts {
        print!("{pct:>9.0}");
        let mut stats = Vec::new();
        for &v in &versions {
            let mut p = base;
            p.pct_remote = pct;
            let r = run_version(pes, p, v);
            print!("{:>10.3}", r.us_per_edge);
            stats.push((v, r.ops));
        }
        println!();
        if show_stats {
            for (v, ops) in stats {
                println!(
                    "          {:>10}: remote ops {} (loads {}, stores {}, fetches {}, blts {}), barriers via {} fences",
                    v.label(),
                    ops.remote_ops(),
                    ops.loads_remote,
                    ops.stores_remote,
                    ops.fetches,
                    ops.blts,
                    ops.memory_barriers,
                );
            }
        }
    }
}
