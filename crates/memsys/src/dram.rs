//! Page-mode DRAM with interleaved banks.
//!
//! The T3D node's memory controller keeps one DRAM page "open" per bank.
//! An access that hits the open page of its bank costs
//! [`DramConfig::page_hit_cy`]; an access that must open a new page costs
//! [`DramConfig::page_miss_cy`]; and a new-page access that lands on the
//! *same bank as the immediately preceding access* cannot overlap the
//! precharge and pays the full memory-cycle time
//! [`DramConfig::bank_busy_cy`].
//!
//! With the T3D parameters this reproduces the three latency plateaus the
//! paper measures in Figure 1: 145 ns for in-page accesses, 205 ns for
//! strides of 16 KB and above (every access off-page, banks rotating), and
//! 264 ns at 64 KB strides (every access off-page on the same bank).

use crate::config::DramConfig;

/// The most banks a [`Dram`] models. The open-page table is an inline
/// array of this length, so copying a DRAM's timing state (as a sharded
/// phase's entry snapshot does for every node) never touches the heap.
pub const MAX_BANKS: usize = 8;

/// Stateful page-mode DRAM timing model.
///
/// # Example
///
/// ```
/// use t3d_memsys::{Dram, MemConfig};
///
/// let cfg = MemConfig::t3d().dram;
/// let mut dram = Dram::new(cfg);
/// // Cold access opens a page on a fresh bank.
/// assert_eq!(dram.access(0), cfg.page_miss_cy);
/// // Second access to the same page hits it.
/// assert_eq!(dram.access(8), cfg.page_hit_cy);
/// // 64 KB away: same bank, different page -> full memory cycle.
/// assert_eq!(dram.access(64 * 1024), cfg.bank_busy_cy);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Dram {
    cfg: DramConfig,
    /// Open page id per bank (`None` until first touched); entries past
    /// `cfg.banks` stay `None`.
    open: [Option<u64>; MAX_BANKS],
    /// Bank used by the most recent access.
    last_bank: Option<u64>,
    /// `log2(page_bytes)` when the page size is a power of two (it is in
    /// every shipped configuration), so the per-access decode is a shift
    /// instead of a division.
    page_shift: Option<u32>,
    /// `banks - 1` when the bank count is a power of two.
    bank_mask: Option<u64>,
}

impl Dram {
    /// Creates a DRAM model with all pages closed.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.banks` is zero or above [`MAX_BANKS`].
    pub fn new(cfg: DramConfig) -> Self {
        assert!(
            (1..=MAX_BANKS as u64).contains(&cfg.banks),
            "DRAM bank count must be 1..={MAX_BANKS}, got {}",
            cfg.banks
        );
        Dram {
            open: [None; MAX_BANKS],
            last_bank: None,
            page_shift: (cfg.page_bytes.is_power_of_two()).then(|| cfg.page_bytes.trailing_zeros()),
            bank_mask: (cfg.banks.is_power_of_two()).then(|| cfg.banks - 1),
            cfg,
        }
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Decodes a physical address to `(page, bank)` in one pass.
    #[inline]
    fn decode(&self, pa: u64) -> (u64, u64) {
        let page = match self.page_shift {
            Some(s) => pa >> s,
            None => pa / self.cfg.page_bytes,
        };
        let bank = match self.bank_mask {
            Some(m) => page & m,
            None => page % self.cfg.banks,
        };
        (page, bank)
    }

    /// Bank addressed by a physical address.
    pub fn bank_of(&self, pa: u64) -> u64 {
        self.decode(pa).1
    }

    /// DRAM page id addressed by a physical address.
    pub fn page_of(&self, pa: u64) -> u64 {
        self.decode(pa).0
    }

    /// Performs one access and returns its cost in cycles, updating the
    /// open-page and last-bank state.
    #[inline]
    pub fn access(&mut self, pa: u64) -> u64 {
        let (page, bank) = self.decode(pa);
        let open = self.open[bank as usize];
        let cost = if open == Some(page) {
            self.cfg.page_hit_cy
        } else if self.last_bank == Some(bank) {
            self.cfg.bank_busy_cy
        } else {
            self.cfg.page_miss_cy
        };
        self.open[bank as usize] = Some(page);
        self.last_bank = Some(bank);
        cost
    }

    /// Cost the next access to `pa` *would* pay, without changing state.
    #[inline]
    pub fn peek(&self, pa: u64) -> u64 {
        let (page, bank) = self.decode(pa);
        if self.open[bank as usize] == Some(page) {
            self.cfg.page_hit_cy
        } else if self.last_bank == Some(bank) {
            self.cfg.bank_busy_cy
        } else {
            self.cfg.page_miss_cy
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemConfig;

    fn dram() -> Dram {
        Dram::new(MemConfig::t3d().dram)
    }

    #[test]
    fn sequential_accesses_hit_open_page() {
        let mut d = dram();
        d.access(0);
        for i in 1..100 {
            assert_eq!(
                d.access(i * 32),
                22,
                "sequential access {i} should page-hit"
            );
        }
    }

    #[test]
    fn stride_16k_misses_page_every_access_on_rotating_banks() {
        let mut d = dram();
        d.access(0);
        for i in 1..16 {
            assert_eq!(d.access(i * 16 * 1024), 31, "16 KB stride access {i}");
        }
    }

    #[test]
    fn stride_64k_hits_same_bank_every_access() {
        let mut d = dram();
        d.access(0);
        for i in 1..16 {
            assert_eq!(d.access(i * 64 * 1024), 40, "64 KB stride access {i}");
        }
    }

    #[test]
    fn stride_32k_alternates_banks_and_avoids_worst_case() {
        let mut d = dram();
        d.access(0);
        for i in 1..16 {
            assert_eq!(d.access(i * 32 * 1024), 31, "32 KB stride access {i}");
        }
    }

    #[test]
    fn reopening_a_closed_page_costs_a_miss() {
        let mut d = dram();
        d.access(0);
        d.access(16 * 1024); // bank 1
        d.access(4 * 16 * 1024); // bank 0 again, new page: closes page 0
        d.access(16 * 1024 + 8); // bank 1 page hit, moves last-bank off 0
        assert_eq!(
            d.peek(0),
            31,
            "original page was closed by the bank-0 access"
        );
    }

    #[test]
    fn peek_does_not_change_state() {
        let mut d = dram();
        d.access(0);
        let before = d;
        let _ = d.peek(123456);
        assert_eq!(d.open, before.open);
        assert_eq!(d.last_bank, before.last_bank);
    }

    #[test]
    fn bank_mapping_interleaves_at_page_granularity() {
        let d = dram();
        assert_eq!(d.bank_of(0), 0);
        assert_eq!(d.bank_of(16 * 1024), 1);
        assert_eq!(d.bank_of(32 * 1024), 2);
        assert_eq!(d.bank_of(48 * 1024), 3);
        assert_eq!(d.bank_of(64 * 1024), 0);
    }

    #[test]
    fn decode_falls_back_to_division_for_odd_geometries() {
        // No shipped configuration uses these, but the fast shift/mask
        // decode must not be load-bearing: a 3-bank, 3000-byte-page DRAM
        // still maps addresses by plain division.
        let mut cfg = MemConfig::t3d().dram;
        cfg.page_bytes = 3000;
        cfg.banks = 3;
        let d = Dram::new(cfg);
        for pa in [0u64, 2999, 3000, 8999, 9000, 123_456] {
            assert_eq!(d.page_of(pa), pa / 3000, "page of {pa}");
            assert_eq!(d.bank_of(pa), (pa / 3000) % 3, "bank of {pa}");
        }
    }

    #[test]
    #[should_panic(expected = "DRAM bank count must be 1..=8, got 9")]
    fn bank_counts_beyond_the_inline_table_are_rejected() {
        let mut cfg = MemConfig::t3d().dram;
        cfg.banks = 9;
        let _ = Dram::new(cfg);
    }
}
