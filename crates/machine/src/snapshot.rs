//! Deterministic memory/clock snapshots for differential checking.
//!
//! A [`MemSnapshot`] captures one region of every node's memory plus the
//! per-node virtual clocks, all functionally (no timing charged, caches
//! untouched). Two snapshots of the same region compare with
//! [`MemSnapshot::diff`], which reports the *first* divergence — the
//! anchor the `t3d-fuzz` differential harness shrinks failures around.
//!
//! A snapshot costs the nonzero data it holds, not nodes × region: each
//! node's capture keeps only the words from the first to the last one
//! holding a nonzero byte, found by scanning the arena's committed
//! granules ([`MemArena::nonzero_span`](t3d_memsys::MemArena::nonzero_span));
//! a node whose region lies in uncommitted granules costs nothing. The
//! checksum folds each run of `k` zero words in as one multiply by the
//! FNV prime to the `k`th power — FNV-1a over a zero word is a multiply
//! by the prime — so every value matches the dense hash bit for bit.
//! [`Machine::region_fnv64`] computes the same checksum without the
//! capture, streaming each node's span through a stack buffer, for
//! callers that only hash.
//!
//! [`Machine::corrupt_byte`] is the matching fault-injection hook: it
//! flips one settled byte, exactly what a bug in the sharded phase
//! engine's effect-log merge would look like, so the harness can prove
//! its oracle actually detects (and its shrinker minimizes) a
//! single-byte divergence.

use crate::machine::Machine;
use t3d_perf::{fnv1a_word, FNV_OFFSET, FNV_PRIME};

/// Bytes per checksum word.
const WORD: usize = 8;

/// A functional capture of `[base, base + bytes)` on every node, plus
/// the virtual clocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemSnapshot {
    base: u64,
    /// Bytes captured per node.
    len: usize,
    clocks: Vec<u64>,
    mem: Vec<Capture>,
}

/// One node's captured region: zero outside `data`, which starts
/// `start` bytes in (a whole number of words) and runs from the first
/// to the last word holding a nonzero byte — empty, at `start` 0, if
/// there is none. The form is canonical, so two captures hold the same
/// bytes iff they are equal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Capture {
    start: usize,
    data: Vec<u8>,
}

impl Capture {
    /// Byte `i` of the region.
    fn byte(&self, i: usize) -> u8 {
        i.checked_sub(self.start)
            .and_then(|j| self.data.get(j))
            .copied()
            .unwrap_or(0)
    }

    /// The region bytes `data` covers.
    fn span(&self) -> std::ops::Range<usize> {
        self.start..self.start + self.data.len()
    }
}

/// FNV-1a over one node's region, fed its nonzero span in address
/// order: the zero words around the span fold in without being visited.
/// Both [`MemSnapshot::fnv64`] and [`Machine::region_fnv64`] hash
/// through it.
struct RegionHash {
    h: u64,
    /// Words in the region.
    words: usize,
    /// Words hashed so far.
    next: usize,
}

impl RegionHash {
    fn new(h: u64, words: usize) -> Self {
        RegionHash { h, words, next: 0 }
    }

    /// Hashes `data` as the region's bytes from word `at` on, after the
    /// zero words up to it; a short final word is zero-padded.
    fn bytes(&mut self, at: usize, data: &[u8]) {
        let mut h = fold_zero_words(self.h, at - self.next);
        let mut chunks = data.chunks_exact(WORD);
        for w in &mut chunks {
            h = fnv1a_word(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut w = [0u8; WORD];
            w[..rem.len()].copy_from_slice(rem);
            h = fnv1a_word(h, u64::from_le_bytes(w));
        }
        self.h = h;
        self.next = at + data.len().div_ceil(WORD);
    }

    /// The hash after the zero words to the region's end.
    fn finish(self) -> u64 {
        fold_zero_words(self.h, self.words - self.next)
    }
}

/// `h` after FNV-1a over `k` zero words: `h * prime^k`.
fn fold_zero_words(mut h: u64, mut k: usize) -> u64 {
    let mut p = FNV_PRIME;
    while k > 0 {
        if k & 1 == 1 {
            h = h.wrapping_mul(p);
        }
        p = p.wrapping_mul(p);
        k >>= 1;
    }
    h
}

/// The first divergence between two snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotDiff {
    /// Virtual clocks disagree on a node.
    Clock {
        /// The diverging node.
        pe: usize,
        /// Clock in the first snapshot.
        a: u64,
        /// Clock in the second snapshot.
        b: u64,
    },
    /// A memory byte disagrees on a node.
    Byte {
        /// The diverging node.
        pe: usize,
        /// Absolute local offset of the byte.
        off: u64,
        /// Value in the first snapshot.
        a: u8,
        /// Value in the second snapshot.
        b: u8,
    },
}

impl std::fmt::Display for SnapshotDiff {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            SnapshotDiff::Clock { pe, a, b } => {
                write!(f, "PE {pe}: clock {a} vs {b}")
            }
            SnapshotDiff::Byte { pe, off, a, b } => {
                write!(f, "PE {pe}: byte at {off:#x} is {a:#04x} vs {b:#04x}")
            }
        }
    }
}

impl MemSnapshot {
    /// First local offset captured.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Captured word `w` of one node: the little-endian value of the
    /// eight bytes at `base + 8 * w`, zero-padded past the region's end.
    ///
    /// # Panics
    ///
    /// Panics if the word starts outside the region.
    pub fn word(&self, pe: usize, w: usize) -> u64 {
        let at = w * WORD;
        assert!(
            at < self.len,
            "word {w} starts outside the {}-byte region",
            self.len
        );
        let c = &self.mem[pe];
        let mut bytes = [0u8; WORD];
        // `start` is a whole number of words, so a word lies wholly
        // before, within or after the captured data.
        if let Some(rest) = at.checked_sub(c.start).and_then(|i| c.data.get(i..)) {
            let n = rest.len().min(WORD);
            bytes[..n].copy_from_slice(&rest[..n]);
        }
        u64::from_le_bytes(bytes)
    }

    /// Captured virtual clock of one node.
    pub fn clock(&self, pe: usize) -> u64 {
        self.clocks[pe]
    }

    /// The first divergence from `other` — clocks first (they order the
    /// nodes' virtual time), then memory bytes in address order.
    ///
    /// # Panics
    ///
    /// Panics if the snapshots cover different shapes (node count,
    /// base, or length).
    pub fn diff(&self, other: &MemSnapshot) -> Option<SnapshotDiff> {
        assert_eq!(self.base, other.base, "snapshots cover the same region");
        assert_eq!(self.mem.len(), other.mem.len(), "same node count");
        for (pe, (&a, &b)) in self.clocks.iter().zip(&other.clocks).enumerate() {
            if a != b {
                return Some(SnapshotDiff::Clock { pe, a, b });
            }
        }
        self.mem_diff(other)
    }

    /// FNV-1a fingerprint of the snapshot: every node's captured bytes
    /// in PE order, then every virtual clock. Two snapshots of the same
    /// region hash equal iff [`MemSnapshot::diff`] finds no divergence,
    /// so the single `u64` stands in for a full comparison when only a
    /// determinism verdict is needed (the throughput bench records it so
    /// a fast-but-wrong engine fails the run).
    ///
    /// The hash runs over little-endian 64-bit *words* of each node's
    /// region (a zero-padded final word if the length is not a multiple
    /// of eight), then the clocks, with the word step of
    /// [`t3d_perf::fnv1a_word`], as the EM3D clock fingerprint does.
    /// Word granularity keeps the hash one multiply per eight bytes, and
    /// the zero words around each node's captured data fold in without
    /// being visited (see the [module docs](self)).
    pub fn fnv64(&self) -> u64 {
        let words = self.len.div_ceil(WORD);
        let h = self.mem.iter().fold(FNV_OFFSET, |h, c| {
            let mut r = RegionHash::new(h, words);
            r.bytes(c.start / WORD, &c.data);
            r.finish()
        });
        self.clocks.iter().fold(h, |h, &c| fnv1a_word(h, c))
    }

    /// Like [`MemSnapshot::diff`] but ignoring clocks — the comparison
    /// against a reference model that has no notion of virtual time.
    pub fn mem_diff(&self, other: &MemSnapshot) -> Option<SnapshotDiff> {
        assert_eq!(self.base, other.base, "snapshots cover the same region");
        assert_eq!(self.len, other.len, "same region length");
        for (pe, (ca, cb)) in self.mem.iter().zip(&other.mem).enumerate() {
            // Outside both captures' data every byte is zero.
            let (sa, sb) = (ca.span(), cb.span());
            let lo = match (sa.is_empty(), sb.is_empty()) {
                (true, _) => sb.start,
                (_, true) => sa.start,
                _ => sa.start.min(sb.start),
            };
            for i in lo..sa.end.max(sb.end) {
                let (a, b) = (ca.byte(i), cb.byte(i));
                if a != b {
                    return Some(SnapshotDiff::Byte {
                        pe,
                        off: self.base + i as u64,
                        a,
                        b,
                    });
                }
            }
        }
        None
    }
}

impl Machine {
    /// Functionally captures `[base, base + bytes)` on every node plus
    /// the virtual clocks. Charges no time and perturbs no caches, so
    /// snapshotting is invisible to the simulation. Each node's capture
    /// costs the span of its region holding nonzero bytes.
    ///
    /// # Panics
    ///
    /// Panics if the region exceeds a node's memory.
    pub fn snapshot_region(&self, base: u64, bytes: u64) -> MemSnapshot {
        let len = bytes as usize;
        let n = self.nodes();
        let mem = (0..n)
            .map(|pe| {
                let Some(span) = self.captured_span(pe, base, len) else {
                    return Capture::default();
                };
                let mut data = vec![0u8; span.len()];
                self.node(pe)
                    .port
                    .mem_arena()
                    .read(base + span.start as u64, &mut data);
                Capture {
                    start: span.start,
                    data,
                }
            })
            .collect();
        MemSnapshot {
            base,
            len,
            clocks: (0..n).map(|pe| self.clock(pe)).collect(),
            mem,
        }
    }

    /// `self.snapshot_region(base, bytes).fnv64()`, without the copy:
    /// each node's captured span streams from its arena through a stack
    /// buffer into the same fold, so the checksum allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if the region exceeds a node's memory.
    pub fn region_fnv64(&self, base: u64, bytes: u64) -> u64 {
        const PIECE: usize = 2048;
        let len = bytes as usize;
        let words = len.div_ceil(WORD);
        let mut buf = [0u8; PIECE];
        let h = (0..self.nodes()).fold(FNV_OFFSET, |h, pe| {
            let mut r = RegionHash::new(h, words);
            if let Some(span) = self.captured_span(pe, base, len) {
                let arena = self.node(pe).port.mem_arena();
                for at in span.clone().step_by(PIECE) {
                    let piece = &mut buf[..PIECE.min(span.end - at)];
                    arena.read(base + at as u64, piece);
                    r.bytes(at / WORD, piece);
                }
            }
            r.finish()
        });
        (0..self.nodes()).fold(h, |h, pe| fnv1a_word(h, self.clock(pe)))
    }

    /// The bytes of `[base, base + len)` a capture of `pe` holds, relative
    /// to `base`: whole words from the first to the last one with a
    /// nonzero byte, cut at the region's end; `None` if all are zero.
    fn captured_span(&self, pe: usize, base: u64, len: usize) -> Option<std::ops::Range<usize>> {
        let nz = self.node(pe).port.mem_arena().nonzero_span(base, len)?;
        let start = (nz.start - base) as usize / WORD * WORD;
        let end = ((nz.end - base) as usize).next_multiple_of(WORD).min(len);
        Some(start..end)
    }

    /// Fault-injection hook: flips every bit of the byte at `off` on
    /// `pe` (functionally, flushing any cached copy). Differential
    /// harnesses use this to prove their memory-equivalence oracle
    /// detects a single corrupted byte.
    pub fn corrupt_byte(&mut self, pe: usize, off: u64) {
        let mut b = [0u8; 1];
        self.peek_mem(pe, off, &mut b);
        self.poke_mem(pe, off, &[b[0] ^ 0xFF]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use crate::cpu::Cpu;

    /// A node's captured bytes, read back word by word through
    /// [`MemSnapshot::word`].
    trait Bytes {
        fn mem(&self, pe: usize) -> Vec<u8>;
    }

    impl Bytes for MemSnapshot {
        fn mem(&self, pe: usize) -> Vec<u8> {
            let words = self.len.div_ceil(WORD);
            let mut bytes: Vec<u8> = (0..words)
                .flat_map(|w| self.word(pe, w).to_le_bytes())
                .collect();
            bytes.truncate(self.len);
            bytes
        }
    }

    #[test]
    fn identical_machines_have_no_diff() {
        let m = Machine::new(MachineConfig::t3d(4));
        let a = m.snapshot_region(0x100, 64);
        let b = m.snapshot_region(0x100, 64);
        assert_eq!(a.diff(&b), None);
        assert_eq!(a.base(), 0x100);
        assert_eq!(a.mem(0).len(), 64);
    }

    #[test]
    fn a_byte_change_is_found_at_its_offset() {
        let mut m = Machine::new(MachineConfig::t3d(2));
        let a = m.snapshot_region(0x100, 64);
        m.poke_mem(1, 0x120, &[0xAB]);
        let b = m.snapshot_region(0x100, 64);
        assert_eq!(
            a.mem_diff(&b),
            Some(SnapshotDiff::Byte {
                pe: 1,
                off: 0x120,
                a: 0,
                b: 0xAB
            })
        );
        // diff() reports it too (clocks are equal).
        assert_eq!(
            a.diff(&b),
            Some(SnapshotDiff::Byte {
                pe: 1,
                off: 0x120,
                a: 0,
                b: 0xAB
            })
        );
    }

    #[test]
    fn fresh_machine_snapshot_fnv_is_pinned() {
        // Guards the arena's zeroed-allocation fast path: a fresh
        // machine's entire memory (and clocks) must hash exactly as it
        // did under element-wise zero initialization.
        let cfg = MachineConfig::t3d(2);
        let bytes = cfg.mem.mem_bytes as u64;
        let m = Machine::new(cfg);
        assert_eq!(m.snapshot_region(0, bytes).fnv64(), 0xbf38_e16e_e1eb_6fed);
    }

    #[test]
    fn clock_divergence_is_reported_before_memory() {
        let mut m = Machine::new(MachineConfig::t3d(2));
        let a = m.snapshot_region(0x100, 8);
        Cpu::new(&mut m, 0).advance(10);
        m.poke_mem(0, 0x100, &[1]);
        let b = m.snapshot_region(0x100, 8);
        assert_eq!(a.diff(&b), Some(SnapshotDiff::Clock { pe: 0, a: 0, b: 10 }));
        assert!(matches!(a.mem_diff(&b), Some(SnapshotDiff::Byte { .. })));
    }

    #[test]
    fn corrupt_byte_flips_and_is_visible() {
        let mut m = Machine::new(MachineConfig::t3d(2));
        m.poke_mem(0, 0x140, &[0x0F]);
        m.corrupt_byte(0, 0x140);
        let mut b = [0u8; 1];
        m.peek_mem(0, 0x140, &mut b);
        assert_eq!(b[0], 0xF0);
    }

    #[test]
    fn fnv64_tracks_diff_and_sees_every_byte() {
        // Odd region length exercises the zero-padded tail word.
        let m = Machine::new(MachineConfig::t3d(2));
        let a = m.snapshot_region(0x100, 61);
        assert_eq!(
            a.fnv64(),
            m.snapshot_region(0x100, 61).fnv64(),
            "identical snapshots hash equal"
        );
        // Any single corrupted byte in the region changes the hash —
        // including one in the final partial word.
        for off in [0x100u64, 0x120, 0x100 + 60] {
            let mut mm = Machine::new(MachineConfig::t3d(2));
            mm.corrupt_byte(1, off);
            let b = mm.snapshot_region(0x100, 61);
            assert!(a.diff(&b).is_some());
            assert_ne!(a.fnv64(), b.fnv64(), "byte at {off:#x} must change hash");
        }
        // Clocks feed the hash too.
        let mut mc = Machine::new(MachineConfig::t3d(2));
        Cpu::new(&mut mc, 0).advance(1);
        assert_ne!(a.fnv64(), mc.snapshot_region(0x100, 61).fnv64());
    }

    #[test]
    fn diff_renders_readably() {
        let d = SnapshotDiff::Byte {
            pe: 3,
            off: 0x108,
            a: 1,
            b: 2,
        };
        assert_eq!(d.to_string(), "PE 3: byte at 0x108 is 0x01 vs 0x02");
        let c = SnapshotDiff::Clock { pe: 1, a: 5, b: 6 };
        assert_eq!(c.to_string(), "PE 1: clock 5 vs 6");
    }

    /// A 64 KB span of node memory: one arena region, covering whole
    /// commit granules, so its edges are granule edges.
    const CHUNK: u64 = 64 * 1024;

    /// FNV-1a over the dense region bytes in 8-byte little-endian words
    /// (the last zero-padded), then the clocks: the checksum as
    /// documented, computed here from `peek_mem` bytes.
    fn dense_fnv(mems: &[Vec<u8>], clocks: &[u64]) -> u64 {
        let mut h = FNV_OFFSET;
        let mut step = |w: u64| h = fnv1a_word(h, w);
        for m in mems {
            for c in m.chunks(8) {
                let mut w = [0u8; 8];
                w[..c.len()].copy_from_slice(c);
                step(u64::from_le_bytes(w));
            }
        }
        for &c in clocks {
            step(c);
        }
        h
    }

    /// The first byte at which two dense images differ.
    fn dense_diff(base: u64, a: &[Vec<u8>], b: &[Vec<u8>]) -> Option<SnapshotDiff> {
        a.iter().zip(b).enumerate().find_map(|(pe, (ma, mb))| {
            let i = (0..ma.len()).find(|&i| ma[i] != mb[i])?;
            Some(SnapshotDiff::Byte {
                pe,
                off: base + i as u64,
                a: ma[i],
                b: mb[i],
            })
        })
    }

    fn dense(m: &Machine, base: u64, len: u64) -> Vec<Vec<u8>> {
        (0..m.nodes())
            .map(|pe| {
                let mut buf = vec![0u8; len as usize];
                m.peek_mem(pe, base, &mut buf);
                buf
            })
            .collect()
    }

    #[test]
    fn snapshots_of_sparse_images_match_dense_checksums_and_diffs() {
        let mut x = 0x5DEE_CE66_D1CE_4E5Bu64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mem = 4 * CHUNK;
        for case in 0..300 {
            let base = match case % 3 {
                0 => 0,
                1 => next() % 24,
                _ => next() % (2 * CHUNK),
            };
            let len = match case % 4 {
                0 => next() % 64,
                1 => (next() % (mem - base)).min(3 * CHUNK),
                _ => (next() % 300).min(mem - base),
            };
            let end = base + len;
            let mut m = Machine::new(MachineConfig::t3d_with_mem(4, mem as usize));
            // PE 0 untouched; PE 1 holds committed zeros over the whole
            // region; PEs 2 and 3 hold nonzero words at granule edges, at the
            // region's first and last bytes and at random places.
            if len > 0 {
                m.poke_mem(1, base, &vec![0; len as usize]);
            }
            let mut spots = vec![CHUNK - 1, CHUNK, 2 * CHUNK - 8, 3 * CHUNK];
            if len > 0 {
                spots.extend([base, end - 1, base + next() % len]);
            }
            for pe in 2..4 {
                for &at in &spots {
                    if next() % 3 != 0 && at < mem {
                        m.poke_mem(pe, at, &[next() as u8 | 1]);
                    }
                }
                Cpu::new(&mut m, pe).advance(next() % 100);
            }
            let a = m.snapshot_region(base, len);
            let da = dense(&m, base, len);
            let clocks: Vec<u64> = (0..4).map(|pe| m.clock(pe)).collect();
            assert_eq!(a.fnv64(), dense_fnv(&da, &clocks), "case {case}: checksum");
            assert_eq!(
                m.region_fnv64(base, len),
                a.fnv64(),
                "case {case}: streamed"
            );
            for (pe, d) in da.iter().enumerate() {
                assert_eq!(a.mem(pe), &d[..], "case {case}: PE {pe} bytes");
            }
            // A second image: one byte changed (to zero or not), anywhere
            // in the region, on any PE.
            let mut m2 = Machine::new(MachineConfig::t3d_with_mem(4, mem as usize));
            for (pe, d) in da.iter().enumerate() {
                if !d.is_empty() {
                    m2.poke_mem(pe, base, d);
                }
                Cpu::new(&mut m2, pe).advance(clocks[pe]);
            }
            if len > 0 && case % 5 != 0 {
                let (pe, at) = ((next() % 4) as usize, base + next() % len);
                let v = if next() % 2 == 0 { 0 } else { next() as u8 };
                m2.poke_mem(pe, at, &[v]);
            }
            let b = m2.snapshot_region(base, len);
            let db = dense(&m2, base, len);
            let want = dense_diff(base, &da, &db);
            assert_eq!(a.mem_diff(&b), want, "case {case}: first divergence");
            assert_eq!(a.diff(&b), want, "case {case}: diff (equal clocks)");
            assert_eq!(a == b, want.is_none(), "case {case}: equality");
            assert_eq!(a.fnv64() == b.fnv64(), want.is_none(), "case {case}");
        }
    }

    /// The streamed checksum equals the snapshot's over random sparse
    /// images on 1, 16 and 1,024 PEs: writes at granule and region
    /// edges and at random places, granules left uncommitted, committed
    /// zeros, unaligned bases and lengths, spans longer than the stream's
    /// buffer, and nonzero clocks.
    #[test]
    fn streamed_checksums_match_snapshot_checksums() {
        use t3d_memsys::arena::GRANULE_BYTES;
        use t3d_prng::Rng;
        let mem = 4 * CHUNK;
        for (pes, cases) in [(1u32, 60), (16, 30), (1024, 4)] {
            Rng::cases(0x5EED ^ u64::from(pes), cases, |case, rng| {
                let mut m = Machine::new(MachineConfig::t3d_with_mem(pes, mem as usize));
                let base = match case % 3 {
                    0 => 0,
                    1 => rng.gen_range(0..24u64),
                    _ => rng.gen_range(0..2 * CHUNK),
                };
                let len = match case % 4 {
                    0 => rng.gen_range(0..64u64),
                    1 => rng.gen_range(0..mem - base).min(3 * CHUNK),
                    _ => rng.gen_range(0..9000u64).min(mem - base),
                };
                let g = GRANULE_BYTES as u64;
                let edges = [
                    g - 1,
                    g,
                    3 * g - 3,
                    CHUNK - 1,
                    CHUNK,
                    2 * CHUNK + 5,
                    3 * CHUNK,
                ];
                for pe in 0..pes as usize {
                    match rng.gen_range(0..4u32) {
                        // Untouched: every granule uncommitted.
                        0 => {}
                        // Committed zeros.
                        1 => m.poke_mem(pe, base, &vec![0; len.min(300) as usize]),
                        _ => {
                            for &at in &edges {
                                if rng.gen_range(0..3u32) != 0 {
                                    m.poke_mem(pe, at, &[rng.gen_range(1..256u32) as u8]);
                                }
                            }
                            for _ in 0..rng.gen_range(0..6u32) {
                                let at = base + rng.gen_range(0..len.max(1));
                                m.poke_mem(pe, at.min(mem - 1), &[rng.gen_range(0..256u32) as u8]);
                            }
                        }
                    }
                    if rng.gen_range(0..2u32) == 1 {
                        Cpu::new(&mut m, pe).advance(rng.gen_range(1..1000u64));
                    }
                }
                let want = m.snapshot_region(base, len).fnv64();
                assert_eq!(m.region_fnv64(base, len), want, "{pes} PEs, case {case}");
            });
        }
    }
}
