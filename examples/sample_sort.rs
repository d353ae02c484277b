//! Distributed sample sort — the classic Split-C application, exercising
//! the whole runtime: signaling stores for control, bulk puts for the
//! all-to-all redistribution, barriers between phases.
//!
//! 1. Each PE sorts its local keys.
//! 2. Regular samples go to PE 0, which picks P−1 splitters and
//!    broadcasts them with stores.
//! 3. Counts are exchanged, offsets computed, and every PE bulk-puts its
//!    partitions to their destination PEs.
//! 4. Each PE sorts its received keys; the result is globally sorted.
//!
//! The sort itself lives in `t3d_sched::kernels::run_sample_sort` (it is
//! also a job payload for the `t3d-sched` gang scheduler) and verifies
//! on every run that its output is a globally sorted permutation of the
//! input; this example is a thin wrapper.
//!
//! ```sh
//! cargo run --release --example sample_sort
//! ```

use t3d_sched::kernels::run_sample_sort;

const P: u32 = 8;
const KEYS_PER_PE: u64 = 512;
const SEED: u64 = 99;

fn main() {
    let out = run_sample_sort(P, KEYS_PER_PE, SEED);
    assert_eq!(out.keys, u64::from(P) * KEYS_PER_PE);
    println!(
        "sample sort: {} keys over {P} PEs in {:.0} us (verified globally sorted)",
        out.keys, out.us
    );
}
