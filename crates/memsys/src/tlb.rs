//! TLB model with configurable page size and LRU replacement.
//!
//! The paper's Figure 1 analysis shows that the T3D exhibits *no*
//! TLB-attributable latency rise — the designers chose very large pages —
//! while the DEC workstation shows a clear inflection at a stride of 8 KB
//! (its page size). Both behaviours fall out of this one model under the
//! two configurations in [`crate::config`].
//!
//! Because the DTB-Annex index occupies high virtual-address bits on the
//! T3D, remote segments occupy TLB entries of their own; with huge pages,
//! 32 entries comfortably cover all 32 annex segments, which is how the
//! paper resolves its concern in Section 3.4.

use crate::config::TlbConfig;

/// An LRU TLB.
///
/// # Example
///
/// ```
/// use t3d_memsys::{MemConfig, Tlb};
///
/// let mut tlb = Tlb::new(MemConfig::dec_workstation().tlb);
/// assert!(tlb.access(0) > 0, "cold access misses");
/// assert_eq!(tlb.access(4096), 0, "same 8 KB page hits");
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    cfg: TlbConfig,
    /// `log2(page_bytes)` when the page size is a power of two, so the
    /// page number is a shift; `None` falls back to a division.
    page_shift: Option<u32>,
    /// Resident page numbers, most recently used last.
    pages: Vec<u64>,
    misses: u64,
    hits: u64,
}

impl Tlb {
    /// Creates an empty TLB.
    pub fn new(cfg: TlbConfig) -> Self {
        assert!(cfg.entries > 0, "TLB must have at least one entry");
        Tlb {
            cfg,
            page_shift: cfg
                .page_bytes
                .is_power_of_two()
                .then(|| cfg.page_bytes.trailing_zeros()),
            pages: Vec::with_capacity(cfg.entries),
            misses: 0,
            hits: 0,
        }
    }

    /// The configuration this TLB was built with.
    pub fn config(&self) -> &TlbConfig {
        &self.cfg
    }

    /// Page number containing the given address.
    #[inline]
    pub fn page_of(&self, pa: u64) -> u64 {
        match self.page_shift {
            Some(shift) => pa >> shift,
            None => pa / self.cfg.page_bytes,
        }
    }

    /// Translates one access, returning its cost in cycles (0 on a hit,
    /// [`TlbConfig::miss_cy`] on a miss).
    #[inline]
    pub fn access(&mut self, pa: u64) -> u64 {
        let page = self.page_of(pa);
        // Most accesses repeat the last page. It is already the most
        // recently used entry, so the hit leaves the LRU order as it is.
        if self.pages.last() == Some(&page) {
            self.hits += 1;
            return 0;
        }
        self.access_lru(page)
    }

    /// [`access`](Self::access) of a page other than the most recent:
    /// the LRU scan, out of line so the common hit inlines small.
    #[inline(never)]
    fn access_lru(&mut self, page: u64) -> u64 {
        if let Some(pos) = self.pages.iter().position(|&p| p == page) {
            self.pages.remove(pos);
            self.pages.push(page);
            self.hits += 1;
            0
        } else {
            if self.pages.len() == self.cfg.entries {
                self.pages.remove(0);
            }
            self.pages.push(page);
            self.misses += 1;
            self.cfg.miss_cy
        }
    }

    /// Total misses observed.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total hits observed.
    pub fn hits(&self) -> u64 {
        self.hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemConfig;

    #[test]
    fn t3d_huge_pages_make_misses_negligible() {
        let mut tlb = Tlb::new(MemConfig::t3d().tlb);
        // Stream over 8 MB — the largest array in Figure 1 — at 8 KB stride.
        let mut cost = 0;
        for i in 0..1024u64 {
            cost += tlb.access(i * 8192);
        }
        // 8 MB / 4 MB pages = 2 compulsory misses only.
        assert_eq!(tlb.misses(), 2);
        assert_eq!(cost, 2 * MemConfig::t3d().tlb.miss_cy);
    }

    #[test]
    fn workstation_pages_thrash_at_large_stride() {
        let cfg = MemConfig::dec_workstation().tlb;
        let mut tlb = Tlb::new(cfg);
        // 64 pages touched round-robin exceed the 32 entries: every access
        // misses, which is the 8 KB-stride inflection in Figure 1 (right).
        for round in 0..3 {
            for i in 0..64u64 {
                let cost = tlb.access(i * cfg.page_bytes);
                if round > 0 {
                    assert_eq!(cost, cfg.miss_cy, "LRU thrash must miss every time");
                }
            }
        }
    }

    #[test]
    fn small_strides_amortize_misses() {
        let cfg = MemConfig::dec_workstation().tlb;
        let mut tlb = Tlb::new(cfg);
        for i in 0..1024u64 {
            tlb.access(i * 32); // 256 accesses per page
        }
        assert_eq!(tlb.misses(), 4, "only compulsory misses");
        assert_eq!(tlb.hits(), 1020);
    }

    #[test]
    fn lru_keeps_hot_page() {
        let mut tlb = Tlb::new(TlbConfig {
            entries: 2,
            page_bytes: 4096,
            miss_cy: 10,
        });
        tlb.access(0); // page 0
        tlb.access(4096); // page 1
        tlb.access(0); // touch page 0 again
        tlb.access(8192); // page 2 evicts page 1 (LRU)
        assert_eq!(tlb.access(0), 0, "page 0 survived");
        assert_eq!(tlb.access(4096), 10, "page 1 was evicted");
    }

    /// Runs a mixed access sequence (repeats of the last page, hits on
    /// older pages, capacity misses) through a 4-entry TLB with the given
    /// page size and returns the cost of each access.
    fn mixed_costs(page_bytes: u64) -> (Vec<u64>, Tlb) {
        let mut tlb = Tlb::new(TlbConfig {
            entries: 4,
            page_bytes,
            miss_cy: 7,
        });
        // Pages named by index; each access lands mid-page.
        let seq = [0u64, 0, 1, 1, 0, 2, 3, 3, 4, 1, 0, 0, 5, 2, 4, 4, 1, 3];
        let costs = seq
            .iter()
            .map(|&p| tlb.access(p * page_bytes + page_bytes / 2))
            .collect();
        (costs, tlb)
    }

    #[test]
    fn mixed_sequence_pins_counters_and_eviction() {
        // Expected LRU trace (MRU last), identical at every page size:
        //  0 m [0] · 0 h · 1 m [0 1] · 1 h · 0 h [1 0] · 2 m [1 0 2]
        //  3 m [1 0 2 3] · 3 h · 4 m evicts 1 [0 2 3 4] · 1 m evicts 0
        //  [2 3 4 1] · 0 m evicts 2 [3 4 1 0] · 0 h · 5 m evicts 3
        //  [4 1 0 5] · 2 m evicts 4 [1 0 5 2] · 4 m evicts 1 [0 5 2 4]
        //  · 4 h · 1 m evicts 0 [5 2 4 1] · 3 m evicts 5 [2 4 1 3]
        let expect = [7, 0, 7, 0, 0, 7, 7, 0, 7, 7, 7, 0, 7, 7, 7, 0, 7, 7];
        let dec = MemConfig::dec_workstation().tlb.page_bytes;
        let t3d = MemConfig::t3d().tlb.page_bytes;
        for page_bytes in [3000, dec, t3d] {
            let (costs, tlb) = mixed_costs(page_bytes);
            assert_eq!(costs, expect, "page size {page_bytes}");
            assert_eq!(
                (tlb.hits(), tlb.misses()),
                (6, 12),
                "page size {page_bytes}"
            );
            assert_eq!(tlb.pages, [2, 4, 1, 3], "page size {page_bytes}");
        }
    }

    #[test]
    fn page_of_shifts_or_divides() {
        let mut cfg = MemConfig::t3d().tlb;
        let t3d = Tlb::new(cfg);
        assert_eq!(t3d.page_of(cfg.page_bytes * 3 + 1), 3);
        cfg.page_bytes = 3000;
        let odd = Tlb::new(cfg);
        assert_eq!(odd.page_of(5999), 1);
        assert_eq!(odd.page_of(6000), 2);
    }
}
