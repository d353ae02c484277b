//! Board-level second-level cache (DEC workstation configuration only).
//!
//! The T3D deliberately omits an L2 so that vector-style streaming codes
//! get the full DRAM bandwidth (Section 2.2); the DEC Alpha workstation
//! used as the Figure 1 comparison machine has a 512 KB direct-mapped L2.
//! Because the workstation configuration is used only for local read/write
//! probes (where write-through keeps every level consistent), this model
//! tracks tags and timing but not data.

use crate::config::L2Config;

/// Direct-mapped, tags-only L2 timing model.
///
/// # Example
///
/// ```
/// use t3d_memsys::{L2Cache, MemConfig};
///
/// let cfg = MemConfig::dec_workstation().l2.unwrap();
/// let mut l2 = L2Cache::new(cfg);
/// assert!(!l2.access(0x1000), "cold miss");
/// assert!(l2.access(0x1008), "line now resident");
/// ```
#[derive(Debug, Clone)]
pub struct L2Cache {
    cfg: L2Config,
    tags: Vec<Option<u64>>,
    line_shift: u32,
    index_mask: u64,
}

impl L2Cache {
    /// Creates an empty L2.
    ///
    /// # Panics
    ///
    /// Panics if capacity or line size is not a power of two.
    pub fn new(cfg: L2Config) -> Self {
        assert!(
            cfg.bytes.is_power_of_two(),
            "L2 capacity must be a power of two"
        );
        assert!(cfg.line.is_power_of_two(), "L2 line must be a power of two");
        let nlines = cfg.bytes / cfg.line;
        L2Cache {
            cfg,
            tags: vec![None; nlines],
            line_shift: cfg.line.trailing_zeros(),
            index_mask: (nlines - 1) as u64,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &L2Config {
        &self.cfg
    }

    /// Accesses `pa`: returns `true` on a hit; on a miss the line is
    /// allocated (evicting any conflicting line).
    pub fn access(&mut self, pa: u64) -> bool {
        let tag = pa >> self.line_shift;
        let idx = ((pa >> self.line_shift) & self.index_mask) as usize;
        if self.tags[idx] == Some(tag) {
            true
        } else {
            self.tags[idx] = Some(tag);
            false
        }
    }

    /// Whether `pa`'s line is resident, without allocating.
    pub fn contains(&self, pa: u64) -> bool {
        let tag = pa >> self.line_shift;
        let idx = ((pa >> self.line_shift) & self.index_mask) as usize;
        self.tags[idx] == Some(tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemConfig;

    fn l2() -> L2Cache {
        L2Cache::new(MemConfig::dec_workstation().l2.unwrap())
    }

    #[test]
    fn working_set_within_capacity_hits_after_warmup() {
        let mut c = l2();
        let n = 256 * 1024u64; // 256 KB fits in 512 KB
        let mut a = 0;
        while a < n {
            c.access(a);
            a += 32;
        }
        let mut a = 0;
        while a < n {
            assert!(c.access(a), "warm access at {a} must hit");
            a += 32;
        }
    }

    #[test]
    fn working_set_beyond_capacity_thrashes() {
        let mut c = l2();
        let n = 1024 * 1024u64; // 1 MB exceeds 512 KB direct-mapped
        for round in 0..2 {
            let mut a = 0;
            while a < n {
                let hit = c.access(a);
                if round == 1 {
                    assert!(!hit, "direct-mapped 1 MB sweep must always miss");
                }
                a += 32;
            }
        }
    }

    #[test]
    fn contains_does_not_allocate() {
        let mut c = l2();
        assert!(!c.contains(64));
        assert!(!c.contains(64), "still absent");
        c.access(64);
        assert!(c.contains(64));
    }
}
