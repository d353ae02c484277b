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
use t3d_perf::{cli, OpKind};

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

/// What a command line asks for.
struct Run {
    pes: u32,
    base: Em3dParams,
    pcts: Vec<f64>,
    versions: Vec<Version>,
    show_stats: bool,
}

fn parse_run(argv: &[String]) -> Result<Run, String> {
    let args = cli::parse(argv, &VALUE_FLAGS, &["--stats"])?;
    args.positionals(0)?;
    let list = |flag, default| args.get(flag).unwrap_or(default).split(',').map(str::trim);
    Ok(Run {
        pes: args.value("--pes")?.unwrap_or(8),
        base: Em3dParams {
            nodes_per_pe: args.value("--nodes")?.unwrap_or(100),
            degree: args.value("--degree")?.unwrap_or(10),
            pct_remote: 0.0,
            steps: args.value("--steps")?.unwrap_or(1),
            seed: args.value_with("--seed", cli::parse_seed)?.unwrap_or(0xE3D),
        },
        pcts: list("--remote", "0,5,10,20,40")
            .map(|s| {
                s.parse()
                    .map_err(|_| format!("--remote {s:?} is not a number"))
            })
            .collect::<Result<_, _>>()?,
        versions: list("--versions", "Simple,Bundle,Unroll,Get,Put,Bulk,StoreSync")
            .map(|s| version_by_name(s).ok_or_else(|| format!("unknown version `{s}`")))
            .collect::<Result<_, _>>()?,
        show_stats: args.has("--stats"),
    })
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
    let Run {
        pes,
        base,
        pcts,
        versions,
        show_stats,
    } = parse_run(&args).unwrap_or_else(|e| cli::usage_error("em3d", &format!("{e} (see --help)")));
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
                    ops[OpKind::LdRemote],
                    ops[OpKind::StRemote],
                    ops[OpKind::Fetch],
                    ops[OpKind::BltStart],
                    ops[OpKind::Fence],
                );
            }
        }
    }
}
