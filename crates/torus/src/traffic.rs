//! Per-link traffic accounting.
//!
//! The paper's bulk-transfer study (Section 6) reasons about sustained
//! bandwidth; [`TrafficMatrix`] lets benches and tests account bytes per
//! directed link along dimension-order routes, e.g. to verify that the
//! EM3D communication volume scales with the remote-edge fraction.
//!
//! Counts live in a dense `Vec<u64>` indexed by
//! [`Torus::link_id`](crate::Torus::link_id) — no hashing on the
//! accounting path, and iteration order (hence `hottest_link`
//! tie-breaking) is the deterministic link-id order.

use crate::{Coord, Torus};

/// Accumulates bytes carried by each directed link.
///
/// # Example
///
/// ```
/// use t3d_torus::{Torus, TorusConfig, TrafficMatrix};
///
/// let t = Torus::new(TorusConfig { dims: (4, 1, 1), hop_cy: 2.5 });
/// let mut tm = TrafficMatrix::new();
/// tm.record(&t, 0, 2, 64);
/// assert_eq!(tm.total_bytes(), 128, "two hops times 64 bytes");
/// ```
#[derive(Debug, Clone, Default)]
pub struct TrafficMatrix {
    /// Bytes per directed link, indexed by dense link id. Sized on
    /// first record.
    links: Vec<u64>,
    messages: u64,
}

impl TrafficMatrix {
    /// Creates an empty traffic matrix.
    pub fn new() -> Self {
        TrafficMatrix::default()
    }

    /// Records `bytes` flowing from `src` to `dst` along the
    /// dimension-order route.
    pub fn record(&mut self, torus: &Torus, src: u32, dst: u32, bytes: u64) {
        if self.links.is_empty() {
            self.links = vec![0; torus.num_links()];
        }
        self.messages += 1;
        for (_, link) in torus.walk(src, dst) {
            self.links[link] += bytes;
        }
    }

    /// Bytes carried by the directed link `a -> b` (adjacent
    /// coordinates), zero if untouched.
    pub fn link_bytes(&self, torus: &Torus, a: Coord, b: Coord) -> u64 {
        self.links
            .get(torus.step_link_id(a, b))
            .copied()
            .unwrap_or(0)
    }

    /// Bytes carried by a dense link id, zero if untouched.
    pub fn link_id_bytes(&self, id: usize) -> u64 {
        self.links.get(id).copied().unwrap_or(0)
    }

    /// Sum of bytes over all links (bytes × hops).
    pub fn total_bytes(&self) -> u64 {
        self.links.iter().sum()
    }

    /// Every link with nonzero traffic, in ascending link-id order.
    pub fn loaded_links(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.links
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b > 0)
            .map(|(i, &b)| (i, b))
    }

    /// The most heavily loaded link and its byte count, if any traffic
    /// was recorded. Ties break to the **lowest link id** — a fixed,
    /// host-independent order (node id, then dimension X<Y<Z, then
    /// direction +<−), pinned by test.
    pub fn hottest_link(&self, torus: &Torus) -> Option<((Coord, Coord), u64)> {
        let (id, &bytes) = self
            .links
            .iter()
            .enumerate()
            .max_by(|(ia, a), (ib, b)| a.cmp(b).then(ib.cmp(ia)))?;
        if bytes == 0 {
            return None;
        }
        Some((torus.link_endpoints(id), bytes))
    }

    /// Number of messages recorded.
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Clears all recorded traffic.
    pub fn clear(&mut self) {
        self.links.clear();
        self.messages = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TorusConfig;

    #[test]
    fn self_traffic_touches_no_links() {
        let t = Torus::new(TorusConfig {
            dims: (4, 1, 1),
            hop_cy: 2.5,
        });
        let mut tm = TrafficMatrix::new();
        tm.record(&t, 1, 1, 1024);
        assert_eq!(tm.total_bytes(), 0);
        assert_eq!(tm.messages(), 1);
    }

    #[test]
    fn hottest_link_found() {
        let t = Torus::new(TorusConfig {
            dims: (4, 1, 1),
            hop_cy: 2.5,
        });
        let mut tm = TrafficMatrix::new();
        tm.record(&t, 0, 1, 10);
        tm.record(&t, 0, 1, 10);
        tm.record(&t, 1, 2, 5);
        let ((a, b), bytes) = tm.hottest_link(&t).unwrap();
        assert_eq!((a, b), (t.coord_of(0), t.coord_of(1)));
        assert_eq!(bytes, 20);
    }

    #[test]
    fn hottest_link_ties_break_to_lowest_link_id() {
        // Two links with identical load: node 0's +X and node 1's +X.
        // The winner must be the lower link id (node 0), every run.
        let t = Torus::new(TorusConfig {
            dims: (4, 1, 1),
            hop_cy: 2.5,
        });
        let mut tm = TrafficMatrix::new();
        tm.record(&t, 1, 2, 10);
        tm.record(&t, 0, 1, 10);
        let ((a, b), bytes) = tm.hottest_link(&t).unwrap();
        assert_eq!((a, b), (t.coord_of(0), t.coord_of(1)));
        assert_eq!(bytes, 10);
        // And on a tie within one node, +X (dir 0) beats −X (dir 1):
        // on a ring of 4, 0→1 is +X and 0→3 is −X.
        let mut tm = TrafficMatrix::new();
        tm.record(&t, 0, 3, 7);
        tm.record(&t, 0, 1, 7);
        let ((a, b), _) = tm.hottest_link(&t).unwrap();
        assert_eq!((a, b), (t.coord_of(0), t.coord_of(1)), "+X wins the tie");
    }

    #[test]
    fn link_accounting_is_dense_and_queryable_by_id() {
        let t = Torus::new(TorusConfig {
            dims: (4, 2, 2),
            hop_cy: 2.5,
        });
        let mut tm = TrafficMatrix::new();
        tm.record(&t, 0, 1, 64);
        let id = t.link_id(t.coord_of(0), 0, 0);
        assert_eq!(tm.link_id_bytes(id), 64);
        assert_eq!(tm.link_bytes(&t, t.coord_of(0), t.coord_of(1)), 64);
        let loaded: Vec<(usize, u64)> = tm.loaded_links().collect();
        assert_eq!(loaded, vec![(id, 64)]);
    }

    #[test]
    fn all_to_all_personalized_4x4x4_pins_per_link_bytes() {
        // The worst-case pattern of the paper's network section: every
        // PE sends a personalized 8 B payload to every other PE.
        // Dimension-order routing with the plus-direction tie-break
        // (`fwd <= bwd` on a 4-ary ring) loads every +dim link with
        // exactly 384 B and every −dim link with 128 B.
        let t = Torus::new(TorusConfig {
            dims: (4, 4, 4),
            hop_cy: 2.5,
        });
        let mut tm = TrafficMatrix::new();
        for a in 0..64 {
            for b in 0..64 {
                if a != b {
                    tm.record(&t, a, b, 8);
                }
            }
        }
        for node in 0..64 {
            let c = t.coord_of(node);
            for dim in 0..3 {
                assert_eq!(
                    tm.link_id_bytes(t.link_id(c, dim, 0)),
                    384,
                    "+dim {dim} link out of {c:?}"
                );
                assert_eq!(
                    tm.link_id_bytes(t.link_id(c, dim, 1)),
                    128,
                    "−dim {dim} link out of {c:?}"
                );
            }
        }
        assert_eq!(tm.total_bytes(), 98_304, "64 PEs × 63 peers × 8 B × hops");
        assert_eq!(tm.messages(), 64 * 63);
        // All 192 +dim links tie at 384 B; the winner is pinned to the
        // lowest link id — node 0's +X.
        let ((a, b), bytes) = tm.hottest_link(&t).unwrap();
        assert_eq!(bytes, 384);
        assert_eq!((a, b), (t.coord_of(0), t.coord_of(1)));
    }

    #[test]
    fn clear_resets() {
        let t = Torus::new(TorusConfig {
            dims: (2, 1, 1),
            hop_cy: 2.5,
        });
        let mut tm = TrafficMatrix::new();
        tm.record(&t, 0, 1, 10);
        tm.clear();
        assert_eq!(tm.total_bytes(), 0);
        assert_eq!(tm.messages(), 0);
        assert!(tm.hottest_link(&t).is_none());
    }
}
