//! 3-D torus interconnect model for the CRAY-T3D reproduction.
//!
//! The T3D network is a 3-D torus of processing-element pairs with
//! dimension-order (X then Y then Z) routing. The paper measures the
//! network contribution to remote latency as "roughly a 13 to 20 ns
//! (2–3 cycle) cost per hop" (Section 4.2); all of its other probes run
//! between *adjacent* nodes. This crate provides the geometry: node ↔
//! coordinate mapping, minimal wraparound hop counts, the dimension-order
//! route itself with the directed-link ids link contention is charged
//! on, and the canonical sub-cube partitions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod subcube;

pub use subcube::SubCube;

use std::sync::Arc;

/// A position in the torus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Coord {
    /// X position.
    pub x: u32,
    /// Y position.
    pub y: u32,
    /// Z position.
    pub z: u32,
}

impl std::fmt::Display for Coord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({},{},{})", self.x, self.y, self.z)
    }
}

/// Torus geometry and per-hop cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TorusConfig {
    /// Extent in each dimension.
    pub dims: (u32, u32, u32),
    /// Network cost per hop per direction, in cycles (the paper measures
    /// 2–3; we use 2.5).
    pub hop_cy: f64,
}

impl TorusConfig {
    /// A torus with near-cubic dimensions for `nodes` processors.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn for_nodes(nodes: u32) -> Self {
        assert!(nodes > 0, "torus must have at least one node");
        // Factor into three near-equal power-of-two-friendly dimensions.
        let mut dims = (1u32, 1u32, 1u32);
        let mut rem = nodes;
        let mut axis = 0;
        while rem > 1 {
            let f = smallest_factor(rem);
            match axis % 3 {
                0 => dims.0 *= f,
                1 => dims.1 *= f,
                _ => dims.2 *= f,
            }
            rem /= f;
            axis += 1;
        }
        TorusConfig { dims, hop_cy: 2.5 }
    }
}

fn smallest_factor(n: u32) -> u32 {
    for f in 2..=n {
        if n.is_multiple_of(f) {
            return f;
        }
    }
    n
}

impl Default for TorusConfig {
    fn default() -> Self {
        TorusConfig {
            dims: (2, 1, 1),
            hop_cy: 2.5,
        }
    }
}

/// The torus: geometry plus routing.
///
/// # Example
///
/// ```
/// use t3d_torus::{Torus, TorusConfig};
///
/// let t = Torus::new(TorusConfig { dims: (4, 4, 2), hop_cy: 2.5 });
/// assert_eq!(t.nodes(), 32);
/// assert_eq!(t.hops(0, 1), 1);
/// // Wraparound: node 0 to node 3 along a ring of 4 is one hop the
/// // other way.
/// assert_eq!(t.hops(0, 3), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Torus {
    cfg: TorusConfig,
    /// Coordinate of every node, by id: a load in place of the
    /// divisions. Shared, so a clone does not allocate.
    coords: Arc<[Coord]>,
}

impl Torus {
    /// Creates a torus and its per-node coordinate table.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero, or if the node count exceeds
    /// `u32::MAX`.
    pub fn new(cfg: TorusConfig) -> Self {
        let (nx, ny, nz) = cfg.dims;
        assert!(
            nx > 0 && ny > 0 && nz > 0,
            "all torus dimensions must be positive"
        );
        let nodes = nx.checked_mul(ny).and_then(|p| p.checked_mul(nz));
        let nodes = nodes.unwrap_or_else(|| panic!("torus {:?} has too many nodes", cfg.dims));
        let coords = (0..nodes)
            .map(|n| Coord {
                x: n % nx,
                y: n / nx % ny,
                z: n / (nx * ny),
            })
            .collect();
        Torus { cfg, coords }
    }

    /// The configuration this torus was built with.
    pub fn config(&self) -> &TorusConfig {
        &self.cfg
    }

    /// Total number of nodes.
    pub fn nodes(&self) -> u32 {
        self.coords.len() as u32
    }

    /// Coordinate of a node id (X varies fastest).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[inline]
    pub fn coord_of(&self, node: u32) -> Coord {
        match self.coords.get(node as usize) {
            Some(&c) => c,
            None => panic!("node {node} out of range"),
        }
    }

    /// Node id of a coordinate.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of range.
    pub fn node_of(&self, c: Coord) -> u32 {
        let (nx, ny, nz) = self.cfg.dims;
        assert!(
            c.x < nx && c.y < ny && c.z < nz,
            "coordinate {c} out of range"
        );
        c.x + nx * (c.y + ny * c.z)
    }

    #[inline]
    fn ring_dist(extent: u32, a: u32, b: u32) -> u32 {
        let d = a.abs_diff(b);
        d.min(extent - d)
    }

    /// Minimal hop count between two nodes (dimension-order routing on a
    /// torus is minimal in each dimension independently).
    #[inline]
    pub fn hops(&self, a: u32, b: u32) -> u32 {
        let ca = self.coord_of(a);
        let cb = self.coord_of(b);
        let (nx, ny, nz) = self.cfg.dims;
        Self::ring_dist(nx, ca.x, cb.x)
            + Self::ring_dist(ny, ca.y, cb.y)
            + Self::ring_dist(nz, ca.z, cb.z)
    }

    /// The longest minimal route, in hops: half of each extent, rounded
    /// down, summed over the three dimensions.
    pub fn diameter(&self) -> u32 {
        let (nx, ny, nz) = self.cfg.dims;
        nx / 2 + ny / 2 + nz / 2
    }

    /// One-way network cost between two nodes, in (fractional) cycles.
    #[inline]
    pub fn one_way_cy(&self, a: u32, b: u32) -> f64 {
        self.hops(a, b) as f64 * self.cfg.hop_cy
    }

    /// The dimension-order route from `a` to `b`, inclusive of both
    /// endpoints: each hop of [`link_runs`](Self::link_runs) steps from
    /// the node its link leaves to the next node along the link's ring.
    pub fn route(&self, a: u32, b: u32) -> Vec<Coord> {
        let dims = [self.cfg.dims.0, self.cfg.dims.1, self.cfg.dims.2];
        let mut route = vec![self.coord_of(a)];
        for l in self.link_runs(a, b).links() {
            let Coord { x, y, z } = self.coord_of((l / 6) as u32);
            let (mut c, d) = ([x, y, z], l % 6 / 2);
            let e = dims[d];
            c[d] = (if l % 2 == 1 { c[d] + e - 1 } else { c[d] + 1 }) % e;
            route.push(Coord {
                x: c[0],
                y: c[1],
                z: c[2],
            });
        }
        route
    }

    /// The dense ids of the links the dimension-order route from `a` to
    /// `b` crosses, in order, without allocating. X is resolved first,
    /// then Y, then Z, each the shorter way around its ring (ties go
    /// plus, so an extent-2 ring always steps plus). The hops along one
    /// ring cross links one node stride apart, so each ring's links are
    /// at most two arithmetic runs, split where the route wraps; the
    /// runs hold exactly [`hops`](Self::hops)`(a, b)` links, each equal
    /// to [`step_link_id`](Self::step_link_id) of its hop.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range.
    #[inline]
    pub fn link_runs(&self, a: u32, b: u32) -> LinkRuns {
        let (ca, cb) = (self.coord_of(a), self.coord_of(b));
        let (nx, ny, nz) = self.cfg.dims;
        let mut out = LinkRuns::default();
        let mut node = a;
        let rings = [
            (nx, 1, ca.x, cb.x),
            (ny, nx, ca.y, cb.y),
            (nz, nx * ny, ca.z, cb.z),
        ];
        for (d, (e, stride, v, t)) in rings.into_iter().enumerate() {
            if v == t {
                continue;
            }
            let fwd = if t > v { t - v } else { t + e - v };
            let minus = fwd > e - fwd;
            // Hops in all, hops before the ring wraps, and the
            // coordinate it wraps to.
            let (hops, before, wrap) = if minus {
                (e - fwd, v + 1, e - 1)
            } else {
                (fwd, e - v, 0)
            };
            let base = node - v * stride;
            let link = |c: u32| (base + c * stride) as usize * 6 + d * 2 + usize::from(minus);
            let step = 6 * stride as isize * if minus { -1 } else { 1 };
            out.push(link(v), step, hops.min(before));
            if hops > before {
                out.push(link(wrap), step, hops - before);
            }
            node = base + t * stride;
        }
        out
    }

    /// Number of directed links: six per node (±X, ±Y, ±Z). Dense link
    /// ids from [`link_id`](Self::link_id) index `0..num_links()`.
    pub fn num_links(&self) -> usize {
        self.nodes() as usize * 6
    }

    /// Dense id of the directed link leaving `c` along dimension `dim`
    /// (0 = X, 1 = Y, 2 = Z) in direction `dir` (0 = plus, 1 = minus):
    /// `node_of(c) * 6 + dim * 2 + dir`. Deterministic and
    /// hash-free, so per-link accounting can use a flat array.
    ///
    /// # Panics
    ///
    /// Panics if `dim > 2`, `dir > 1`, or `c` is out of range.
    pub fn link_id(&self, c: Coord, dim: usize, dir: usize) -> usize {
        assert!(dim < 3, "dimension {dim} out of range");
        assert!(dir < 2, "direction {dir} out of range");
        self.node_of(c) as usize * 6 + dim * 2 + dir
    }

    /// The dense link id of one adjacent route step `a → b` (as produced
    /// by consecutive [`route`](Self::route) entries). On an extent-2
    /// ring both directions are the same physical wire; the step is
    /// canonicalized to the plus direction.
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` are not adjacent along exactly one
    /// dimension.
    pub fn step_link_id(&self, a: Coord, b: Coord) -> usize {
        let (nx, ny, nz) = self.cfg.dims;
        let (dim, dir) = if a.x != b.x {
            assert!(a.y == b.y && a.z == b.z, "step {a} -> {b} moves two dims");
            (0, usize::from((a.x + 1) % nx != b.x))
        } else if a.y != b.y {
            assert!(a.z == b.z, "step {a} -> {b} moves two dims");
            (1, usize::from((a.y + 1) % ny != b.y))
        } else {
            assert!(a.z != b.z, "step {a} -> {b} does not move");
            (2, usize::from((a.z + 1) % nz != b.z))
        };
        self.link_id(a, dim, dir)
    }

    /// A neighbour of `node` at exactly one hop (used by the adjacent-node
    /// probes, which mirror the paper's measurement setup).
    ///
    /// # Panics
    ///
    /// Panics if the torus has a single node.
    pub fn adjacent(&self, node: u32) -> u32 {
        assert!(self.nodes() > 1, "single-node torus has no neighbour");
        let c = self.coord_of(node);
        let (nx, ny, _) = self.cfg.dims;
        let n = if nx > 1 {
            Coord {
                x: (c.x + 1) % nx,
                ..c
            }
        } else if ny > 1 {
            Coord {
                y: (c.y + 1) % ny,
                ..c
            }
        } else {
            Coord {
                z: (c.z + 1) % self.cfg.dims.2,
                ..c
            }
        };
        self.node_of(n)
    }
}

/// One arithmetic run of directed link ids along a ring of a route:
/// `first`, `first + step`, … (`count` ids in all). A hop along a ring
/// moves one node stride, so `step` is `±6·stride`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkRun {
    /// The first link id.
    pub first: usize,
    /// The distance between consecutive link ids.
    pub step: isize,
    /// Number of links.
    pub count: u32,
}

impl LinkRun {
    /// The run's link ids, in route order.
    #[inline]
    pub fn links(self) -> impl Iterator<Item = usize> {
        (0..self.count as isize).map(move |i| self.first.wrapping_add_signed(i * self.step))
    }
}

/// The links of one dimension-order route, from
/// [`Torus::link_runs`]: at most two runs per dimension, held inline.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkRuns {
    runs: [LinkRun; 6],
    len: usize,
}

impl LinkRuns {
    fn push(&mut self, first: usize, step: isize, count: u32) {
        self.runs[self.len] = LinkRun { first, step, count };
        self.len += 1;
    }

    /// The runs, in route order.
    pub fn runs(&self) -> &[LinkRun] {
        &self.runs[..self.len]
    }

    /// Every link id of the route, in order.
    #[inline]
    pub fn links(&self) -> impl Iterator<Item = usize> + '_ {
        self.runs().iter().flat_map(|r| r.links())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn torus32() -> Torus {
        Torus::new(TorusConfig {
            dims: (4, 4, 2),
            hop_cy: 2.5,
        })
    }

    #[test]
    fn coord_roundtrip() {
        let t = torus32();
        for n in 0..t.nodes() {
            assert_eq!(t.node_of(t.coord_of(n)), n);
        }
    }

    #[test]
    fn hops_symmetric_and_zero_on_self() {
        let t = torus32();
        for a in 0..t.nodes() {
            assert_eq!(t.hops(a, a), 0);
            for b in 0..t.nodes() {
                assert_eq!(t.hops(a, b), t.hops(b, a));
            }
        }
    }

    #[test]
    fn wraparound_shortens_paths() {
        let t = Torus::new(TorusConfig {
            dims: (8, 1, 1),
            hop_cy: 2.5,
        });
        assert_eq!(t.hops(0, 7), 1);
        assert_eq!(t.hops(0, 4), 4, "antipodal distance on a ring of 8");
    }

    #[test]
    fn max_diameter_is_sum_of_half_extents() {
        for dims in [(4, 4, 2), (3, 5, 7), (2, 1, 9), (8, 1, 1)] {
            let t = Torus::new(TorusConfig { dims, hop_cy: 2.5 });
            let max = (0..t.nodes())
                .flat_map(|a| (0..t.nodes()).map(move |b| (a, b)))
                .map(|(a, b)| t.hops(a, b))
                .max()
                .unwrap();
            assert_eq!(max, dims.0 / 2 + dims.1 / 2 + dims.2 / 2, "{dims:?}");
            assert_eq!(t.diameter(), max, "{dims:?}");
        }
    }

    #[test]
    fn route_length_matches_hops_and_is_dimension_ordered() {
        let t = torus32();
        for a in [0u32, 5, 13, 31] {
            for b in [0u32, 1, 17, 30] {
                let r = t.route(a, b);
                assert_eq!(r.len() as u32, t.hops(a, b) + 1);
                assert_eq!(r[0], t.coord_of(a));
                assert_eq!(*r.last().unwrap(), t.coord_of(b));
                // Dimension order: once Y changes, X must be final; once Z
                // changes, X and Y must be final.
                let dst = t.coord_of(b);
                let mut y_moved = false;
                let mut z_moved = false;
                for w in r.windows(2) {
                    let (p, q) = (w[0], w[1]);
                    if p.y != q.y {
                        y_moved = true;
                        assert_eq!(p.x, dst.x, "X settled before Y moves");
                    }
                    if p.z != q.z {
                        z_moved = true;
                        assert_eq!(p.x, dst.x);
                        assert_eq!(p.y, dst.y, "Y settled before Z moves");
                    }
                    if y_moved && p.x != q.x {
                        panic!("X moved after Y");
                    }
                    if z_moved && (p.x != q.x || p.y != q.y) {
                        panic!("X or Y moved after Z");
                    }
                }
            }
        }
    }

    #[test]
    fn adjacent_is_one_hop() {
        let t = torus32();
        for n in 0..t.nodes() {
            assert_eq!(t.hops(n, t.adjacent(n)), 1);
        }
    }

    #[test]
    fn network_cost_is_2_5_cycles_per_hop() {
        let t = torus32();
        assert_eq!(t.one_way_cy(0, 1), 2.5);
    }

    #[test]
    fn for_nodes_builds_exact_sizes() {
        for n in [1u32, 2, 8, 27, 32, 64, 100, 128] {
            let cfg = TorusConfig::for_nodes(n);
            let t = Torus::new(cfg);
            assert_eq!(t.nodes(), n, "for_nodes({n}) gave dims {:?}", cfg.dims);
        }
    }

    /// The table agrees with the division formula, and round-trips
    /// through `node_of`, on tori whose extents are not powers of two.
    #[test]
    fn coordinate_table_matches_division() {
        for dims in [(3, 5, 7), (13, 1, 1), (1, 6, 1), (2, 1, 9)] {
            let t = Torus::new(TorusConfig { dims, hop_cy: 2.5 });
            let (nx, ny, nz) = dims;
            assert_eq!(t.nodes(), nx * ny * nz);
            for n in 0..t.nodes() {
                let c = t.coord_of(n);
                assert_eq!((c.x, c.y, c.z), (n % nx, n / nx % ny, n / (nx * ny)));
                assert_eq!(t.node_of(c), n, "{dims:?}");
            }
        }
    }

    #[test]
    fn link_runs_split_only_at_a_wrap() {
        let t = torus32();
        for a in 0..t.nodes() {
            for b in 0..t.nodes() {
                let runs = t.link_runs(a, b);
                assert!(runs.runs().iter().all(|r| r.count > 0), "{a} -> {b}");
            }
        }
        // On a ring of 8, 1 -> 6 goes minus through the wrap (leaving
        // x = 1 and 0, then 7), and 6 -> 1 goes plus (6 and 7, then 0).
        let ring = Torus::new(TorusConfig {
            dims: (8, 1, 1),
            hop_cy: 2.5,
        });
        let run = |first, step, count| LinkRun { first, step, count };
        assert_eq!(ring.link_runs(1, 6).runs(), [run(7, -6, 2), run(43, -6, 1)]);
        assert_eq!(ring.link_runs(6, 1).runs(), [run(36, 6, 2), run(0, 6, 1)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_node_panics() {
        torus32().coord_of(32);
    }
}
