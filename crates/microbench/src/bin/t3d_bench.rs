//! `t3d-bench` — regenerates every table and figure of the paper as a
//! text report.
//!
//! Usage: `t3d-bench [fig1|fig2|fig4|fig5|fig6|fig7|fig8|fig9|tab-local|tab-prefetch|tab-sync|tab-mpp|ablations|hotspot|all] [--fast] [--out DIR] [--csv]`
//!
//! `--fast` shrinks the sweeps (for CI); `--out DIR` additionally writes
//! each report to `DIR/<name>.txt`; `--csv` (with `--out`) also writes
//! machine-readable CSV for the figure data. An unknown or repeated
//! flag, or an argument beyond the one command, exits with status 2.

use std::fmt::Write as _;
use std::io::Write as _;

use em3d::{fig9_sweep, Em3dParams};
use t3d_microbench::probes::{bulk, local, prefetch, put, remote, sync};
use t3d_microbench::report::{series_table, Series};
use t3d_microbench::{analysis, probes};
use t3d_perf::cli;

struct Opts {
    fast: bool,
    out: Option<std::path::PathBuf>,
    csv: bool,
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let parsed = cli::parse(&argv, &["--out"], &["--fast", "--csv"]).and_then(|args| {
        let cmd = args.positionals(1)?.first().cloned();
        let opts = Opts {
            fast: args.has("--fast"),
            out: args.value("--out")?,
            csv: args.has("--csv"),
        };
        Ok((cmd, opts))
    });
    let (cmd, opts) = parsed.unwrap_or_else(|e| cli::usage_error("t3d-bench", &e));
    let cmd = cmd.as_deref().unwrap_or("all");
    let known = [
        "fig1",
        "fig2",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "tab-local",
        "tab-prefetch",
        "tab-sync",
        "tab-mpp",
        "ablations",
        "hotspot",
        "all",
    ];
    if !known.contains(&cmd) {
        let msg = format!("unknown command `{cmd}`; one of: {}", known.join(", "));
        cli::usage_error("t3d-bench", &msg);
    }
    let run = |name: &str| cmd == name || cmd == "all";

    if run("fig1") {
        emit(&opts, "fig1", &fig1(&opts));
        let sizes = local_sizes(&opts);
        emit_csv(
            &opts,
            "fig1_t3d",
            &local::read_profile(&sizes, u64::MAX).to_csv(),
        );
        emit_csv(
            &opts,
            "fig1_workstation",
            &local::workstation_read_profile(&sizes, u64::MAX).to_csv(),
        );
    }
    if run("fig2") {
        emit(&opts, "fig2", &fig2(&opts));
        emit_csv(
            &opts,
            "fig2",
            &local::write_profile(&local_sizes(&opts), u64::MAX).to_csv(),
        );
    }
    if run("fig4") {
        emit(&opts, "fig4", &fig4(&opts));
    }
    if run("fig5") {
        emit(&opts, "fig5", &fig5(&opts));
    }
    if run("fig6") {
        emit(&opts, "fig6", &fig6());
        emit_csv(
            &opts,
            "fig6",
            &t3d_microbench::report::series_csv("group", &prefetch::group_sweep()),
        );
    }
    if run("fig7") {
        emit(&opts, "fig7", &fig7(&opts));
    }
    if run("fig8") {
        emit(&opts, "fig8", &fig8(&opts));
        if opts.csv {
            let sizes = bulk::default_transfer_sizes();
            emit_csv(
                &opts,
                "fig8_read",
                &t3d_microbench::report::series_csv("bytes", &bulk::read_bandwidth(&sizes)),
            );
            emit_csv(
                &opts,
                "fig8_write",
                &t3d_microbench::report::series_csv("bytes", &bulk::write_bandwidth(&sizes)),
            );
        }
    }
    if run("fig9") {
        emit(&opts, "fig9", &fig9(&opts));
    }
    if run("tab-local") {
        emit(&opts, "tab-local", &tab_local(&opts));
    }
    if run("tab-prefetch") {
        emit(
            &opts,
            "tab-prefetch",
            &prefetch::cost_breakdown().to_string(),
        );
    }
    if run("tab-sync") {
        emit(&opts, "tab-sync", &sync::sync_table().to_string());
    }
    if run("tab-mpp") {
        emit(&opts, "tab-mpp", &remote::mpp_comparison().to_string());
    }
    if run("hotspot") {
        let series = t3d_microbench::probes::hotspot::hotspot_sweep();
        let mut body = series_table(
            "Hot spot: per-op fetch&increment cost (cycles) vs requesters",
            "requesters",
            &series,
        )
        .to_string();
        body.push_str(&t3d_microbench::report::ascii_plot(
            "\nshape (cycles vs requesters):",
            &series,
            48,
            10,
        ));
        emit(&opts, "hotspot", &body);
    }
    if run("ablations") {
        let body: String = t3d_microbench::probes::ablation::ablation_tables()
            .iter()
            .map(|t| format!("{t}\n"))
            .collect();
        emit(&opts, "ablations", &body);
    }
}

fn emit(opts: &Opts, name: &str, body: &str) {
    println!("{body}");
    if let Some(dir) = &opts.out {
        std::fs::create_dir_all(dir).expect("create output dir");
        let path = dir.join(format!("{name}.txt"));
        let mut f = std::fs::File::create(&path).expect("create report file");
        f.write_all(body.as_bytes()).expect("write report");
        eprintln!("wrote {}", path.display());
    }
}

/// Writes machine-readable CSV next to the text report (with `--csv`
/// and `--out`).
fn emit_csv(opts: &Opts, name: &str, csv: &str) {
    if !opts.csv {
        return;
    }
    let Some(dir) = &opts.out else { return };
    std::fs::create_dir_all(dir).expect("create output dir");
    let path = dir.join(format!("{name}.csv"));
    std::fs::write(&path, csv).expect("write csv");
    eprintln!("wrote {}", path.display());
}

fn local_sizes(opts: &Opts) -> Vec<u64> {
    if opts.fast {
        vec![4 * 1024, 8 * 1024, 16 * 1024, 64 * 1024, 256 * 1024]
    } else {
        probes::default_sizes()
    }
}

fn remote_sizes(opts: &Opts) -> Vec<u64> {
    if opts.fast {
        vec![64 * 1024]
    } else {
        vec![64 * 1024, 256 * 1024, 1024 * 1024]
    }
}

fn fig1(opts: &Opts) -> String {
    let sizes = local_sizes(opts);
    let mut s = String::new();
    let _ = writeln!(s, "{}", local::read_profile(&sizes, u64::MAX).to_table());
    let _ = writeln!(
        s,
        "{}",
        local::workstation_read_profile(&sizes, u64::MAX).to_table()
    );
    s
}

fn fig2(opts: &Opts) -> String {
    local::write_profile(&local_sizes(opts), u64::MAX)
        .to_table()
        .to_string()
}

fn fig4(opts: &Opts) -> String {
    let sizes = remote_sizes(opts);
    let mut s = String::new();
    for p in remote::read_profiles(&sizes, u64::MAX) {
        let _ = writeln!(s, "{}", p.to_table());
    }
    let (points, per_hop) = remote::hop_sweep();
    let _ = writeln!(s, "Uncached read latency vs hop distance (4x4x4 torus):");
    for (h, ns) in points {
        let _ = writeln!(s, "  {h} hops: {ns:.0} ns");
    }
    let _ = writeln!(
        s,
        "  fitted one-way per-hop cost: {per_hop:.1} cycles ({:.0} ns; paper: 2-3 cy / 13-20 ns)",
        per_hop * 6.67
    );
    s
}

fn fig5(opts: &Opts) -> String {
    let sizes = remote_sizes(opts);
    let mut s = String::new();
    for p in remote::write_profiles(&sizes, u64::MAX) {
        let _ = writeln!(s, "{}", p.to_table());
    }
    s
}

fn fig6() -> String {
    let series = prefetch::group_sweep();
    let mut s = series_table(
        "Prefetch group sweep (avg ns per element)",
        "group",
        &series,
    )
    .to_string();
    s.push_str(&t3d_microbench::report::ascii_plot(
        "\nshape (ns vs group size):",
        &series,
        48,
        12,
    ));
    s
}

fn fig7(opts: &Opts) -> String {
    let sizes = remote_sizes(opts);
    let mut s = String::new();
    for p in put::nonblocking_profiles(&sizes, u64::MAX) {
        let _ = writeln!(s, "{}", p.to_table());
    }
    s
}

fn fig8(opts: &Opts) -> String {
    let sizes = if opts.fast {
        vec![8, 32, 64, 128, 1024, 8 * 1024, 32 * 1024, 128 * 1024]
    } else {
        bulk::default_transfer_sizes()
    };
    let mut s = String::new();
    let reads = bulk::read_bandwidth(&sizes);
    let _ = writeln!(
        s,
        "{}",
        series_table("Bulk READ bandwidth (MB/s)", "bytes", &reads)
    );
    let writes = bulk::write_bandwidth(&sizes);
    let _ = writeln!(
        s,
        "{}",
        series_table("Bulk WRITE bandwidth (MB/s)", "bytes", &writes)
    );
    let _ = writeln!(s, "Best read mechanism by size:");
    for &n in &sizes {
        let _ = writeln!(s, "  {:>8} B: {}", n, bulk::best_read_mechanism(&reads, n));
    }
    s
}

fn fig9(opts: &Opts) -> String {
    let (nprocs, params, pcts): (u32, Em3dParams, Vec<f64>) = if opts.fast {
        (4, Em3dParams::tiny(0.0), vec![0.0, 10.0, 40.0])
    } else {
        (
            32,
            Em3dParams::paper(0.0),
            vec![0.0, 2.0, 5.0, 10.0, 20.0, 40.0],
        )
    };
    let sweep = fig9_sweep(nprocs, params, &pcts);
    let series: Vec<Series> = sweep
        .into_iter()
        .map(|(label, pts)| Series {
            label,
            points: pts.into_iter().map(|(pct, us)| (pct as u64, us)).collect(),
        })
        .collect();
    series_table(
        &format!(
            "EM3D: us per edge vs % remote edges ({nprocs} PEs, {} nodes/PE, degree {})",
            params.nodes_per_pe, params.degree
        ),
        "% remote",
        &series,
    )
    .to_string()
}

fn tab_local(opts: &Opts) -> String {
    let sizes = local_sizes(opts);
    let read = local::read_profile(&sizes, u64::MAX);
    let write = local::write_profile(&sizes, u64::MAX);
    let params = analysis::infer_local_params(&read, &write);
    let mut s = analysis::local_params_table(&params).to_string();
    // Streaming bandwidth needs an array beyond every cache level of
    // both machines (the workstation has a 512 KB L2).
    let big = vec![2 * 1024 * 1024u64];
    let _ = writeln!(
        s,
        "\nT3D streaming bandwidth: {:.0} MB/s (paper: ~220)",
        analysis::stream_bandwidth_mb(&local::read_profile(&big, 64))
    );
    let _ = writeln!(
        s,
        "Workstation streaming bandwidth: {:.0} MB/s (paper: ~half the T3D)",
        analysis::stream_bandwidth_mb(&local::workstation_read_profile(&big, 64))
    );
    s
}
