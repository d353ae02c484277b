//! Synthetic bipartite EM3D graphs.
//!
//! The paper's inputs: 500 nodes per processor, degree 20, with the
//! communication load scaled by the fraction of edges that cross
//! processors. The graph *structure* lives host-side (it is the
//! program's pointer structure); the *values and weights* live in
//! simulated memory and are accessed through the Split-C runtime, so
//! every cache and communication effect is charged.

use t3d_prng::Rng;

/// Graph generation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Em3dParams {
    /// E (and H) nodes per processor (paper: 500).
    pub nodes_per_pe: usize,
    /// Edges per node (paper: 20).
    pub degree: usize,
    /// Percentage of edges that cross processors (0–100).
    pub pct_remote: f64,
    /// Leapfrog steps to run (each step updates E then H).
    pub steps: usize,
    /// RNG seed for the synthetic graph.
    pub seed: u64,
}

impl Em3dParams {
    /// The paper's configuration: 500 nodes of degree 20 per processor.
    pub fn paper(pct_remote: f64) -> Self {
        Em3dParams {
            nodes_per_pe: 500,
            degree: 20,
            pct_remote,
            steps: 1,
            seed: 0xE3D,
        }
    }

    /// A miniature configuration for tests.
    pub fn tiny(pct_remote: f64) -> Self {
        Em3dParams {
            nodes_per_pe: 40,
            degree: 5,
            pct_remote,
            steps: 1,
            seed: 7,
        }
    }

    /// Edges traversed per processor per full step (both halves).
    pub fn edges_per_step_per_pe(&self) -> u64 {
        2 * (self.nodes_per_pe * self.degree) as u64
    }
}

/// An edge endpoint: which processor owns the neighbour, and its index
/// in the owner's value array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Endpoint {
    /// Owning processor.
    pub pe: u32,
    /// Index within the owner's E or H array.
    pub idx: u32,
}

/// The bipartite dependency structure, per processor.
#[derive(Debug, Clone)]
pub struct Em3dGraph {
    /// Parameters it was generated with.
    pub params: Em3dParams,
    /// Number of processors.
    pub nprocs: u32,
    /// `e_deps[p][i]` — the H endpoints that E node `i` on PE `p` reads.
    pub e_deps: Vec<Vec<Vec<Endpoint>>>,
    /// `h_deps[p][i]` — the E endpoints that H node `i` on PE `p` reads.
    pub h_deps: Vec<Vec<Vec<Endpoint>>>,
}

impl Em3dGraph {
    /// Generates the synthetic graph.
    ///
    /// # Panics
    ///
    /// Panics if `pct_remote` is outside 0–100, or if a remote edge is
    /// requested on a single-processor machine.
    pub fn generate(params: Em3dParams, nprocs: u32) -> Self {
        assert!(
            (0.0..=100.0).contains(&params.pct_remote),
            "pct_remote must be a percentage"
        );
        assert!(
            params.pct_remote == 0.0 || nprocs > 1,
            "remote edges need more than one processor"
        );
        let mut rng = Rng::seed_from_u64(params.seed);
        let mut gen_side = |_side: u8| {
            (0..nprocs)
                .map(|p| {
                    (0..params.nodes_per_pe)
                        .map(|_| {
                            (0..params.degree)
                                .map(|_| {
                                    let remote = rng.gen_range(0.0..100.0) < params.pct_remote;
                                    let pe = if remote {
                                        let mut t = rng.gen_range(0..nprocs - 1);
                                        if t >= p {
                                            t += 1;
                                        }
                                        t
                                    } else {
                                        p
                                    };
                                    Endpoint {
                                        pe,
                                        idx: rng.gen_range(0..params.nodes_per_pe as u32),
                                    }
                                })
                                .collect()
                        })
                        .collect()
                })
                .collect()
        };
        let e_deps = gen_side(0);
        let h_deps = gen_side(1);
        Em3dGraph {
            params,
            nprocs,
            e_deps,
            h_deps,
        }
    }

    /// Fraction of edges that actually cross processors (sanity metric).
    pub fn measured_remote_fraction(&self) -> f64 {
        let mut remote = 0u64;
        let mut total = 0u64;
        for (p, nodes) in self
            .e_deps
            .iter()
            .enumerate()
            .chain(self.h_deps.iter().enumerate())
        {
            for deps in nodes {
                for ep in deps {
                    total += 1;
                    if ep.pe as usize != p {
                        remote += 1;
                    }
                }
            }
        }
        remote as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = Em3dGraph::generate(Em3dParams::tiny(20.0), 4);
        let b = Em3dGraph::generate(Em3dParams::tiny(20.0), 4);
        assert_eq!(a.e_deps[0][0], b.e_deps[0][0]);
        assert_eq!(a.h_deps[3][5], b.h_deps[3][5]);
    }

    #[test]
    fn remote_fraction_tracks_parameter() {
        for pct in [0.0, 10.0, 50.0, 100.0] {
            let g = Em3dGraph::generate(Em3dParams::paper(pct), 8);
            let measured = g.measured_remote_fraction() * 100.0;
            assert!(
                (measured - pct).abs() < 3.0,
                "requested {pct}%, generated {measured:.1}%"
            );
        }
    }

    #[test]
    fn remote_edges_never_point_home() {
        let g = Em3dGraph::generate(Em3dParams::tiny(100.0), 4);
        for (p, nodes) in g.e_deps.iter().enumerate() {
            for deps in nodes {
                for ep in deps {
                    assert_ne!(ep.pe as usize, p, "100% remote graph has no local edges");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "percentage")]
    fn bad_percentage_panics() {
        Em3dGraph::generate(Em3dParams::tiny(150.0), 4);
    }
}
