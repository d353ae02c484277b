//! The DTB Annex: external segment registers extending the 21064's
//! physical address space.
//!
//! The 21064 can only generate 32-bit physical addresses — far too few
//! bits to name every byte on a 2048-node machine. The T3D therefore
//! performs a second level of translation: five bits of the physical
//! address index one of 32 *Annex* registers, each holding a target
//! processor number and a *function code* that selects the flavour of
//! remote access (cached, uncached, atomic swap, fetch&increment).
//! Annex register 0 always refers to the local processor. Registers are
//! updated from user code with the load-locked/store-conditional
//! sequence at a measured cost of 23 cycles (Section 3.2).
//!
//! Because the annex index sits in the *high* bits of the physical
//! address, two annex entries naming the same processor create physical
//! *synonyms* — distinct physical addresses for one memory location.
//! The cache tolerates them (direct-mapped, index from low bits); the
//! write buffer does not (see `t3d-memsys::wbuf`).

use crate::config::ShellConfig;

/// Flavour of remote access selected by an annex entry's function code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FuncCode {
    /// Uncached remote read / ordinary remote write.
    #[default]
    Uncached,
    /// Cached remote read: fills a local L1 line (incoherently).
    Cached,
    /// Atomic swap with the shell swap register.
    Swap,
    /// Fetch&increment on the target's F&I registers.
    FetchInc,
}

/// One annex register: target PE plus function code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AnnexEntry {
    /// Target processing element.
    pub pe: u32,
    /// Access flavour.
    pub func: FuncCode,
}

/// The 32-entry DTB Annex of one node.
///
/// # Example
///
/// ```
/// use t3d_shell::{Annex, AnnexEntry, FuncCode, ShellConfig};
///
/// let mut annex = Annex::new(&ShellConfig::t3d(), 0);
/// let cost = annex.update(1, AnnexEntry { pe: 7, func: FuncCode::Uncached });
/// assert_eq!(cost, 23);
/// assert_eq!(annex.entry(1).pe, 7);
/// assert_eq!(annex.entry(0).pe, 0, "entry 0 is pinned to the local PE");
/// ```
#[derive(Debug, Clone)]
pub struct Annex {
    entries: Vec<AnnexEntry>,
    update_cy: u64,
    updates: u64,
}

impl Annex {
    /// Creates an annex whose entry 0 names `local_pe`.
    pub fn new(cfg: &ShellConfig, local_pe: u32) -> Self {
        let mut entries = vec![AnnexEntry::default(); cfg.annex_entries];
        entries[0] = AnnexEntry {
            pe: local_pe,
            func: FuncCode::Uncached,
        };
        Annex {
            entries,
            update_cy: cfg.annex_update_cy,
            updates: 0,
        }
    }

    /// Number of registers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the annex has no registers (never true for a real shell).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Reads a register.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline]
    pub fn entry(&self, idx: usize) -> AnnexEntry {
        self.entries[idx]
    }

    /// Updates a register via the store-conditional sequence, returning
    /// the 23-cycle cost.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is 0 (pinned to the local PE) or out of range.
    pub fn update(&mut self, idx: usize, entry: AnnexEntry) -> u64 {
        assert!(
            idx != 0,
            "annex entry 0 always refers to the local processor"
        );
        assert!(idx < self.entries.len(), "annex index {idx} out of range");
        self.entries[idx] = entry;
        self.updates += 1;
        self.update_cy
    }

    /// Total updates performed (instrumentation: the paper argues the
    /// 23-cycle update is cheap enough that one register suffices).
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Returns the indices (excluding 0) currently naming `pe` — i.e. the
    /// synonym set for that processor.
    pub fn synonyms_of(&self, pe: u32) -> Vec<usize> {
        self.entries
            .iter()
            .enumerate()
            .skip(1)
            .filter(|(_, e)| e.pe == pe)
            .map(|(i, _)| i)
            .collect()
    }
}

/// Packs an annex index into the high bits of a physical address whose
/// local offset occupies `offset_bits` bits.
pub fn pa_with_annex(offset: u64, annex_idx: usize, offset_bits: u32) -> u64 {
    debug_assert!(offset < (1 << offset_bits), "offset overflows the PA field");
    offset | ((annex_idx as u64) << offset_bits)
}

/// Extracts `(annex_idx, offset)` from a physical address.
#[inline]
pub fn split_pa(pa: u64, offset_bits: u32) -> (usize, u64) {
    ((pa >> offset_bits) as usize, pa & ((1 << offset_bits) - 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn annex() -> Annex {
        Annex::new(&ShellConfig::t3d(), 3)
    }

    #[test]
    fn entry_zero_is_local() {
        let a = annex();
        assert_eq!(a.entry(0).pe, 3);
    }

    #[test]
    #[should_panic(expected = "entry 0")]
    fn updating_entry_zero_panics() {
        annex().update(0, AnnexEntry::default());
    }

    #[test]
    fn update_costs_23_and_counts() {
        let mut a = annex();
        assert_eq!(
            a.update(
                5,
                AnnexEntry {
                    pe: 9,
                    func: FuncCode::Cached
                }
            ),
            23
        );
        assert_eq!(a.updates(), 1);
        assert_eq!(
            a.entry(5),
            AnnexEntry {
                pe: 9,
                func: FuncCode::Cached
            }
        );
    }

    #[test]
    fn synonyms_detected() {
        let mut a = annex();
        a.update(
            1,
            AnnexEntry {
                pe: 7,
                func: FuncCode::Uncached,
            },
        );
        a.update(
            2,
            AnnexEntry {
                pe: 7,
                func: FuncCode::Cached,
            },
        );
        a.update(
            3,
            AnnexEntry {
                pe: 8,
                func: FuncCode::Uncached,
            },
        );
        assert_eq!(a.synonyms_of(7), vec![1, 2]);
        assert_eq!(a.synonyms_of(8), vec![3]);
        assert!(a.synonyms_of(42).is_empty());
    }

    #[test]
    fn pa_pack_unpack_roundtrip() {
        let pa = pa_with_annex(0x123456, 17, 27);
        assert_eq!(split_pa(pa, 27), (17, 0x123456));
    }

    #[test]
    fn annex_index_lands_in_high_bits() {
        // Two synonyms differ only above bit 27 — the property the
        // direct-mapped cache relies on and the write buffer trips over.
        let a = pa_with_annex(0x100, 1, 27);
        let b = pa_with_annex(0x100, 2, 27);
        assert_eq!(a & ((1 << 27) - 1), b & ((1 << 27) - 1));
        assert_ne!(a, b);
    }
}
