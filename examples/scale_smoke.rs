//! Scale smoke check: a 256-PE EM3D instance, uncontended and
//! contended, reduced to one `ledger_fnv` line.
//!
//! ```sh
//! cargo run --release --example scale_smoke
//! ```
//!
//! The `scale-smoke` CI job runs this under `T3D_PAR=0` and `T3D_PAR=1`
//! and requires both to print the *same* line: the phase driver must be
//! invisible in every clock, memory byte and ledger of a full-size
//! sub-machine, with the opt-in contention models both off and on.
//! (The contended arm pins its own timing: link queueing is
//! deterministic too, it just models a different machine.)

use em3d::{run_version_profiled, run_version_profiled_contended, Em3dParams, Version};
use t3d_machine::PhaseDriver;

/// Byte-step FNV-1a over a stream of words — the same chaining idiom
/// the scheduler's `ledger_fnv` uses.
fn fnv_chain(words: &[u64]) -> u64 {
    let fold = |h, w: &u64| t3d_perf::fnv1a(h, &w.to_le_bytes());
    words.iter().fold(t3d_perf::FNV_OFFSET, fold)
}

fn main() {
    let driver = PhaseDriver::from_env();
    let params = Em3dParams::tiny(30.0);
    let mut words = Vec::new();
    for contended in [false, true] {
        let (r, p) = if contended {
            run_version_profiled_contended(driver, 256, params, Version::Bulk)
        } else {
            run_version_profiled(driver, 256, params, Version::Bulk)
        };
        words.extend([r.mem_fnv, r.clock_fnv, r.cycles, r.edges, p.total()]);
        println!(
            "em3d 256 PEs contended={contended}: {} cycles, mem_fnv {:#018x}",
            r.cycles, r.mem_fnv
        );
    }
    println!("ledger_fnv {:#018x}", fnv_chain(&words));
}
