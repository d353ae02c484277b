//! `em3d`: the paper's Figure-9 application, all seven versions.
//!
//! Each version runs through `run_version_with` on 16 PEs with the
//! paper's graph (500 nodes of degree 20 per PE, 30% remote edges) for
//! two measured steps. `--seed` sets the graph seed. The call includes
//! the program's own set-up (graph, machine, initial values) and its
//! verification against the host reference, so both count toward
//! `sim_rate`. A set-up sample is a construction probe: the benchmark
//! builds the same graph and the same 16-PE machine that every call
//! starts with, through the same public constructors.

use std::hint::black_box;

use em3d::{run_version_profiled, run_version_with, Em3dGraph, Em3dParams, Version};
use t3d_machine::{Machine, MachineConfig, PhaseDriver};

use crate::{Ctx, Work};

/// PEs of the EM3D machine (the paper's Figure 9 runs).
const PES: u32 = 16;
/// Node memory `run_version_with` gives its machines.
const NODE_MEM: usize = 4 << 20;

/// The versions, in paper order plus the message-driven extension.
pub const VERSIONS: [Version; 7] = [
    Version::Simple,
    Version::Bundle,
    Version::Unroll,
    Version::Get,
    Version::Put,
    Version::Bulk,
    Version::StoreSync,
];

/// Simulated cycles and settled-memory checksum of every version at
/// the default seed.
pub const PINS: &[(&str, u64)] = &[
    ("em3d.bulk.cycles", 0x2a3098),
    ("em3d.bulk.mem_fnv", 0x4d1d280ef53d15c4),
    ("em3d.bundle.cycles", 0x3d49da),
    ("em3d.bundle.mem_fnv", 0x547cf30c4d5c77ef),
    ("em3d.get.cycles", 0x2e2764),
    ("em3d.get.mem_fnv", 0x367f8b6cf2b8317f),
    ("em3d.put.cycles", 0x2ba200),
    ("em3d.put.mem_fnv", 0xbc2633a782587bef),
    ("em3d.simple.cycles", 0x40ddea),
    ("em3d.simple.mem_fnv", 0xfa19042d9ddd2e00),
    ("em3d.storesync.cycles", 0x2b6664),
    ("em3d.storesync.mem_fnv", 0x2933939b0acc623f),
    ("em3d.unroll.cycles", 0x39a05a),
    ("em3d.unroll.mem_fnv", 0xa77580db0f9cbbef),
];

fn params(seed: u64) -> Em3dParams {
    let mut p = Em3dParams::paper(30.0);
    p.steps = 2;
    p.seed = seed;
    p
}

/// The layer span around one version's run.
pub fn span_name(v: Version) -> String {
    format!("em3d.{}", v.label().to_ascii_lowercase())
}

/// The per-layer metric of one version's host time.
pub fn metric_name(v: Version) -> &'static str {
    match v {
        Version::Simple => "em3d.simple_s",
        Version::Bundle => "em3d.bundle_s",
        Version::Unroll => "em3d.unroll_s",
        Version::Get => "em3d.get_s",
        Version::Put => "em3d.put_s",
        Version::Bulk => "em3d.bulk_s",
        Version::StoreSync => "em3d.storesync_s",
    }
}

/// One pass: every version once.
pub fn pass(seed: u64, ctx: &mut Ctx) {
    let params = params(seed);
    for v in VERSIONS {
        ctx.setup("em3d.setup_probe", || {
            black_box(Em3dGraph::generate(params, PES));
            black_box(Machine::new(MachineConfig::t3d_with_mem(PES, NODE_MEM)));
        });
        let name = span_name(v);
        ctx.call(
            &name,
            |ctx| {
                if ctx.traced() {
                    let (r, report) = ctx.spans.time(&name, || {
                        run_version_profiled(PhaseDriver::Seq, PES, params, v)
                    });
                    ctx.absorb(&report);
                    r
                } else {
                    run_version_with(PhaseDriver::Seq, PES, params, v)
                }
            },
            |r, pins| {
                pins.check(&format!("{name}.cycles"), r.cycles)?;
                pins.check(&format!("{name}.mem_fnv"), r.mem_fnv)?;
                Ok(Work {
                    pe_cycles: r.cycles * u64::from(PES),
                    jobs: 1,
                })
            },
        );
    }
}
