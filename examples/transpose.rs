//! Distributed matrix transpose — the classic strided-access workload
//! the BLT's strided mode (Section 6.2) exists for.
//!
//! An N×N matrix of doubles is distributed by block-rows over the
//! processors. Each node assembles its block-row of the transpose by
//! fetching one column-block from every other node. Three strategies:
//!
//! * element-wise blocking reads (the naive port),
//! * per-element split-phase gets (pipelined),
//! * strided BLT gathers (one invocation per source block).
//!
//! ```sh
//! cargo run --release --example transpose
//! ```

use splitc::{GlobalPtr, SplitC};
use t3d_machine::MachineConfig;

const P: u32 = 4; // processors
const N: u64 = 64; // matrix dimension (rows = N, block rows of N/P)

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Strategy {
    Reads,
    Gets,
    StridedBlt,
}

/// Row-major offset of (r, c) within a block of `rows` x N.
fn off(base: u64, r: u64, c: u64) -> u64 {
    base + (r * N + c) * 8
}

fn run(strategy: Strategy) -> (f64, u64) {
    let rows = N / P as u64; // rows per node
    let mut sc = SplitC::new(MachineConfig::t3d(P));
    let a = sc.alloc(rows * N * 8, 8); // my block of A
    let t = sc.alloc(rows * N * 8, 8); // my block of A^T

    // A[r][c] = r * N + c, globally.
    for pe in 0..P as u64 {
        for r in 0..rows {
            for c in 0..N {
                let global_r = pe * rows + r;
                sc.machine()
                    .poke8(pe as usize, off(a, r, c), global_r * N + c);
            }
        }
    }

    sc.run_phase(|ctx| {
        let me = ctx.pe() as u64;
        // I own transpose rows me*rows .. (me+1)*rows, i.e. columns
        // me*rows.. of A. Fetch from every source block-row.
        for src in 0..ctx.nodes() as u64 {
            for tr in 0..rows {
                let a_col = me * rows + tr; // column of A = my transpose row
                match strategy {
                    Strategy::Reads => {
                        for sr in 0..rows {
                            let gp = GlobalPtr::new(src as u32, off(a, sr, a_col));
                            let v = ctx.read_u64(gp);
                            ctx.ops().st8(off(t, tr, src * rows + sr), v);
                        }
                    }
                    Strategy::Gets => {
                        for sr in 0..rows {
                            let gp = GlobalPtr::new(src as u32, off(a, sr, a_col));
                            ctx.get(off(t, tr, src * rows + sr), gp);
                        }
                        ctx.sync();
                    }
                    Strategy::StridedBlt => {
                        // One strided gather: `rows` elements, one per
                        // source row, N*8 apart.
                        ctx.bulk_read_strided(
                            off(t, tr, src * rows),
                            GlobalPtr::new(src as u32, off(a, 0, a_col)),
                            rows,
                            8,
                            N * 8,
                        );
                    }
                }
            }
        }
    });
    sc.barrier();

    // Verify: T[r][c] must equal A[c][r] = c * N + r.
    let mut errors = 0u64;
    for pe in 0..P as u64 {
        for r in 0..rows {
            for c in 0..N {
                let global_r = pe * rows + r;
                let got = sc.machine().peek8(pe as usize, off(t, r, c));
                if got != c * N + global_r {
                    errors += 1;
                }
            }
        }
    }
    let us = sc.max_clock() as f64 / 150.0;
    (us, errors)
}

fn main() {
    println!("{N}x{N} matrix transpose over {P} PEs\n");
    for s in [Strategy::Reads, Strategy::Gets, Strategy::StridedBlt] {
        let (us, errors) = run(s);
        assert_eq!(errors, 0, "{s:?} produced a wrong transpose");
        println!("{s:?}: {us:>10.1} us, verified");
    }
    println!(
        "\n(pipelined gets beat blocking reads; the strided BLT pays its\n\
         180 us invocation per block and per-element page misses, the\n\
         trade-off Section 6 quantifies)"
    );
}
