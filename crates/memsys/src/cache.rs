//! Direct-mapped, write-through, read-allocate L1 data cache with data.
//!
//! The Alpha 21064's 8 KB on-chip data cache is direct-mapped with 32-byte
//! lines, write-through and read-allocate (stores that miss do not
//! allocate). Lines carry real bytes because the T3D caches *remote* data
//! without hardware coherence: a cached remote line can go stale when its
//! owner updates memory, and the paper's compiler analysis (Section 4.4)
//! hinges on exactly that behaviour being observable.
//!
//! Tags cover the *full* physical address, including the DTB-Annex index
//! bits in the high part of the address. Because the index is taken from
//! the low bits and the cache is direct-mapped, two annex synonyms always
//! map to the same line — which is why, as the paper notes in Section 3.4,
//! caching does not admit synonym inconsistencies (the write buffer does).

use crate::config::L1Config;
use crate::copy_bytes;

/// Direct-mapped L1 data cache holding real bytes.
///
/// Line storage is one flat allocation (line `i` at
/// `i * line_bytes..`), with tags and valid bits in parallel vectors —
/// three allocations per cache instead of one per line, which is what
/// keeps constructing the thousand caches of a 1024-PE machine cheap.
///
/// # Example
///
/// ```
/// use t3d_memsys::{L1Cache, MemConfig};
///
/// let mut l1 = L1Cache::new(MemConfig::t3d().l1);
/// assert!(l1.lookup(0x100).is_none());
/// l1.fill(0x100, &[7u8; 32]);
/// assert_eq!(l1.lookup(0x108).unwrap()[8], 7);
/// ```
#[derive(Debug, Clone)]
pub struct L1Cache {
    cfg: L1Config,
    /// `tags[i]` is meaningful iff `valid[i]`.
    tags: Vec<u64>,
    valid: Vec<bool>,
    /// Number of set `valid` bits.
    resident: usize,
    /// All line data, flat; line `i` occupies `i * cfg.line..(i + 1) * cfg.line`.
    data: Vec<u8>,
    line_shift: u32,
    index_mask: u64,
}

impl L1Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the configured capacity or line size is not a power of
    /// two, or if the line size does not divide the capacity.
    pub fn new(cfg: L1Config) -> Self {
        assert!(
            cfg.bytes.is_power_of_two(),
            "cache capacity must be a power of two"
        );
        assert!(
            cfg.line.is_power_of_two(),
            "cache line must be a power of two"
        );
        let nlines = cfg.bytes / cfg.line;
        assert!(nlines > 0, "cache must have at least one line");
        L1Cache {
            cfg,
            tags: vec![0; nlines],
            valid: vec![false; nlines],
            resident: 0,
            data: vec![0; nlines * cfg.line],
            line_shift: cfg.line.trailing_zeros(),
            index_mask: (nlines - 1) as u64,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &L1Config {
        &self.cfg
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> usize {
        self.cfg.line
    }

    /// Physical address of the start of the line containing `pa`.
    #[inline]
    pub fn line_base(&self, pa: u64) -> u64 {
        pa & !((self.cfg.line as u64) - 1)
    }

    #[inline]
    fn index(&self, pa: u64) -> usize {
        ((pa >> self.line_shift) & self.index_mask) as usize
    }

    #[inline]
    fn tag(&self, pa: u64) -> u64 {
        pa >> self.line_shift
    }

    /// Byte range of line `idx` in the flat data arena.
    #[inline]
    fn span(&self, idx: usize) -> std::ops::Range<usize> {
        idx * self.cfg.line..(idx + 1) * self.cfg.line
    }

    /// Returns the line data if `pa`'s line is resident.
    #[inline]
    pub fn lookup(&self, pa: u64) -> Option<&[u8]> {
        let idx = self.index(pa);
        (self.valid[idx] && self.tags[idx] == self.tag(pa)).then(|| &self.data[self.span(idx)])
    }

    /// Whether `pa`'s line is resident (tag match on the full address).
    pub fn contains(&self, pa: u64) -> bool {
        self.lookup(pa).is_some()
    }

    /// Installs a line (read allocation), evicting whatever shared its
    /// index. `data` must be exactly one line.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly one line long.
    #[inline]
    pub fn fill(&mut self, pa: u64, data: &[u8]) {
        assert_eq!(data.len(), self.cfg.line, "fill must supply one full line");
        let tag = self.tag(pa);
        let idx = self.index(pa);
        self.resident += usize::from(!self.valid[idx]);
        self.valid[idx] = true;
        self.tags[idx] = tag;
        let span = self.span(idx);
        self.data[span].copy_from_slice(data);
    }

    /// Write-through update: if the line is resident, update its bytes in
    /// place (stores that miss do not allocate). Returns whether it hit.
    #[inline]
    pub fn update(&mut self, pa: u64, bytes: &[u8]) -> bool {
        let tag = self.tag(pa);
        let idx = self.index(pa);
        let off = (pa & ((self.cfg.line as u64) - 1)) as usize;
        assert!(
            off + bytes.len() <= self.cfg.line,
            "update must not cross a line boundary"
        );
        if self.valid[idx] && self.tags[idx] == tag {
            let base = idx * self.cfg.line + off;
            copy_bytes(&mut self.data[base..base + bytes.len()], bytes);
            true
        } else {
            false
        }
    }

    /// Flushes (invalidates) the line containing `pa`, if resident.
    ///
    /// Used both by the explicit cache-line flush the compiler must emit
    /// after cached remote reads, and by the shell's cache-invalidate mode
    /// on incoming remote writes.
    #[inline]
    pub fn invalidate(&mut self, pa: u64) -> bool {
        let tag = self.tag(pa);
        let idx = self.index(pa);
        if self.valid[idx] && self.tags[idx] == tag {
            self.valid[idx] = false;
            self.resident -= 1;
            true
        } else {
            false
        }
    }

    /// Flushes every resident line that `pa..pa + len` covers, the
    /// DMA-deposit form of [`invalidate`](Self::invalidate). An empty
    /// cache (a DMA target's usual state) returns without reading a line.
    pub fn invalidate_span(&mut self, pa: u64, len: u64) {
        if len == 0 || self.resident == 0 {
            return;
        }
        let (first, last) = (self.tag(pa), self.tag(pa + len - 1));
        for tag in first..=last {
            let idx = (tag & self.index_mask) as usize;
            if self.valid[idx] && self.tags[idx] == tag {
                self.valid[idx] = false;
                self.resident -= 1;
            }
        }
    }

    /// Invalidates every line (whole-cache flush, used by the batched
    /// flush that makes bulk cached reads cheaper above 8 KB).
    pub fn invalidate_all(&mut self) {
        self.valid.fill(false);
        self.resident = 0;
    }

    /// Number of currently valid lines.
    pub fn valid_lines(&self) -> usize {
        self.resident
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemConfig;

    fn cache() -> L1Cache {
        L1Cache::new(MemConfig::t3d().l1)
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = cache();
        assert!(!c.contains(0x40));
        c.fill(0x40, &[1; 32]);
        assert!(c.contains(0x40));
        assert!(c.contains(0x5f), "whole line resident");
        assert!(!c.contains(0x60), "next line not resident");
    }

    #[test]
    fn direct_mapped_conflict_evicts() {
        let mut c = cache();
        let way_apart = 8 * 1024; // capacity: same index, different tag
        c.fill(0x80, &[1; 32]);
        c.fill(0x80 + way_apart, &[2; 32]);
        assert!(!c.contains(0x80), "conflicting fill evicted the first line");
        assert!(c.contains(0x80 + way_apart));
    }

    #[test]
    fn annex_synonyms_map_to_the_same_line() {
        // Synonyms differ only in high (annex) bits, so they share an
        // index; a direct-mapped cache can hold at most one of them.
        let mut c = cache();
        let annex_bit = 1u64 << 27;
        c.fill(0x100, &[1; 32]);
        c.fill(0x100 | annex_bit, &[2; 32]);
        assert!(!c.contains(0x100));
        assert!(c.contains(0x100 | annex_bit));
    }

    #[test]
    fn update_hits_only_resident_lines() {
        let mut c = cache();
        assert!(!c.update(0x200, &[9; 8]), "write miss does not allocate");
        c.fill(0x200, &[0; 32]);
        assert!(c.update(0x208, &[9; 8]));
        assert_eq!(&c.lookup(0x200).unwrap()[8..16], &[9; 8]);
    }

    #[test]
    fn invalidate_single_and_all() {
        let mut c = cache();
        c.fill(0x0, &[0; 32]);
        c.fill(0x20, &[0; 32]);
        assert!(c.invalidate(0x0));
        assert!(!c.invalidate(0x0), "second invalidate is a no-op");
        assert_eq!(c.valid_lines(), 1);
        c.invalidate_all();
        assert_eq!(c.valid_lines(), 0);
    }

    #[test]
    #[should_panic(expected = "one full line")]
    fn fill_requires_full_line() {
        let mut c = cache();
        c.fill(0, &[0; 8]);
    }

    #[test]
    #[should_panic(expected = "line boundary")]
    fn update_must_not_cross_lines() {
        let mut c = cache();
        c.fill(0, &[0; 32]);
        c.update(28, &[0; 8]);
    }

    #[test]
    fn span_invalidation_matches_line_by_line() {
        let cfg = MemConfig::t3d().l1;
        let line = cfg.line as u64;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for case in 0..400 {
            let mut a = L1Cache::new(cfg);
            for _ in 0..300 {
                a.fill(next() % (1 << 20), &vec![1; cfg.line]);
            }
            let mut b = a.clone();
            let pa = next() % (1 << 20);
            let len = match case % 3 {
                0 => next() % 100,
                1 => next() % (2 * cfg.bytes as u64),
                _ => cfg.bytes as u64 - line + next() % (2 * line),
            };
            a.invalidate_span(pa, len);
            let mut at = pa & !(line - 1);
            while at < pa + len {
                b.invalidate(at);
                at += line;
            }
            assert_eq!(a.valid, b.valid, "case {case}: {len} bytes at {pa:#x}");
            let valid = a.valid.iter().filter(|&&v| v).count();
            assert_eq!(a.valid_lines(), valid, "case {case}: resident count");
        }
    }
}
