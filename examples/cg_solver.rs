//! Distributed conjugate gradient on the simulated T3D: a full numeric
//! solver built from the Split-C runtime — halo exchange with signaling
//! stores, global dot products with all-reduce collectives, local
//! compute through the simulated memory system.
//!
//! Solves the 1-D Poisson problem `A x = b` with the tridiagonal
//! Laplacian (2 on the diagonal, −1 off), block-row distributed. The
//! solver lives in `t3d_sched::kernels::run_cg` (it is also a job
//! payload for the `t3d-sched` gang scheduler) and checks its converged
//! solution against a direct host solve (Thomas algorithm) on every
//! run; this example is a thin wrapper.
//!
//! ```sh
//! cargo run --release --example cg_solver
//! ```

use t3d_sched::kernels::run_cg;

const P: u32 = 8;
const LOCAL_N: u64 = 128; // rows per node
const SEED: u64 = 0xC6;

fn main() {
    let out = run_cg(P, LOCAL_N, SEED);
    println!(
        "CG on {}-point Poisson over {P} PEs: {} iterations, \
         max rel. error {:.2e}, {:.2} ms virtual time",
        u64::from(P) * LOCAL_N,
        out.iters,
        out.max_rel_err,
        out.ms
    );
    assert!(
        out.max_rel_err < 1e-6,
        "CG must converge to the direct solution"
    );
}
