//! Deterministic memory/clock snapshots for differential checking.
//!
//! A [`MemSnapshot`] captures one region of every node's memory plus the
//! per-node virtual clocks, all functionally (no timing charged, caches
//! untouched). Two snapshots of the same region compare with
//! [`MemSnapshot::diff`], which reports the *first* divergence — the
//! anchor the `t3d-fuzz` differential harness shrinks failures around.
//!
//! [`Machine::corrupt_byte`] is the matching fault-injection hook: it
//! flips one settled byte, exactly what a bug in the sharded phase
//! engine's effect-log merge would look like, so the harness can prove
//! its oracle actually detects (and its shrinker minimizes) a
//! single-byte divergence.

use crate::machine::Machine;

/// A functional capture of `[base, base + bytes)` on every node, plus
/// the virtual clocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemSnapshot {
    base: u64,
    clocks: Vec<u64>,
    mem: Vec<Vec<u8>>,
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

    /// Captured bytes of one node.
    pub fn mem(&self, pe: usize) -> &[u8] {
        &self.mem[pe]
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
    /// of eight), then the clocks, using the same FNV-1a parameters as
    /// the EM3D clock fingerprint. Word granularity keeps the hash one
    /// multiply per eight bytes — snapshots cover megabytes, and the
    /// byte-serial variant dominated the throughput bench's host time.
    pub fn fnv64(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut step = |word: u64| {
            h = (h ^ word).wrapping_mul(0x100_0000_01b3);
        };
        for bytes in &self.mem {
            let mut chunks = bytes.chunks_exact(8);
            for c in &mut chunks {
                step(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
            }
            let rem = chunks.remainder();
            if !rem.is_empty() {
                let mut w = [0u8; 8];
                w[..rem.len()].copy_from_slice(rem);
                step(u64::from_le_bytes(w));
            }
        }
        for &c in &self.clocks {
            step(c);
        }
        h
    }

    /// Like [`MemSnapshot::diff`] but ignoring clocks — the comparison
    /// against a reference model that has no notion of virtual time.
    pub fn mem_diff(&self, other: &MemSnapshot) -> Option<SnapshotDiff> {
        assert_eq!(self.base, other.base, "snapshots cover the same region");
        for (pe, (ma, mb)) in self.mem.iter().zip(&other.mem).enumerate() {
            assert_eq!(ma.len(), mb.len(), "same region length");
            for (i, (&a, &b)) in ma.iter().zip(mb).enumerate() {
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
    /// snapshotting is invisible to the simulation.
    pub fn snapshot_region(&self, base: u64, bytes: u64) -> MemSnapshot {
        let n = self.nodes();
        let mut mem = Vec::with_capacity(n);
        let mut clocks = Vec::with_capacity(n);
        for pe in 0..n {
            let mut buf = vec![0u8; bytes as usize];
            self.peek_mem(pe, base, &mut buf);
            mem.push(buf);
            clocks.push(self.clock(pe));
        }
        MemSnapshot { base, clocks, mem }
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
        m.advance(0, 10);
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
        mc.advance(0, 1);
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

    /// Bytes per arena chunk (the unit memory is committed in).
    const CHUNK: u64 = 64 * 1024;

    /// FNV-1a over the dense region bytes in 8-byte little-endian words
    /// (the last zero-padded), then the clocks: the checksum as
    /// documented, computed here from `peek_mem` bytes.
    fn dense_fnv(mems: &[Vec<u8>], clocks: &[u64]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut step = |w: u64| h = (h ^ w).wrapping_mul(0x100_0000_01b3);
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
            // region; PEs 2 and 3 hold nonzero words at chunk edges, at the
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
                m.advance(pe, next() % 100);
            }
            let a = m.snapshot_region(base, len);
            let da = dense(&m, base, len);
            let clocks: Vec<u64> = (0..4).map(|pe| m.clock(pe)).collect();
            assert_eq!(a.fnv64(), dense_fnv(&da, &clocks), "case {case}: checksum");
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
                m2.advance(pe, clocks[pe]);
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
}
