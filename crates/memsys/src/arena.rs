//! The backing bytes of one node's local memory, shareable across
//! threads.
//!
//! During a sharded (parallel) phase, each processing element's thread
//! owns its node's caches, write buffer and DRAM timing state
//! exclusively, but *remote reads must still observe other nodes' memory
//! bytes*. [`MemArena`] makes that possible: the bytes live in
//! little-endian `AtomicU64` word cells accessed with `Relaxed` ordering,
//! so a port can hand out `Arc` clones of its arena to every other
//! shard.
//!
//! Word cells make bulk traffic cheap: an aligned span (a BLT deposit, a
//! cache-line fill, a snapshot checksum) moves eight bytes per atomic
//! load or store. Only a span's unaligned head and tail, and masked
//! writes that select part of a word, touch a word partially; those are
//! atomic read-modify-writes that replace exactly the selected bytes, so
//! two threads writing different bytes of one word both land.
//!
//! Two queries serve the bulk paths without a host buffer the size of
//! the span. [`MemArena::copy_from`] moves bytes from one arena (or
//! this one) to another, word cell to word cell when both offsets sit
//! at the same position within a word: a BLT deposit costs its bytes
//! once. [`MemArena::nonzero_span`] finds the first and last nonzero
//! byte of a range reading only committed chunks, so a snapshot stores
//! and hashes that span and treats the rest as zero.
//!
//! The arena is **demand-chunked**: the byte space is divided into
//! fixed-size chunks that are allocated lazily, zero-filled, on first
//! write. A fresh 16 MB arena is a table of empty [`OnceLock`] slots —
//! a few hundred bytes — so constructing a 1024-PE machine does not
//! eagerly commit gigabytes. Reads of untouched chunks observe zeros,
//! exactly as an eager zeroed allocation would, and a snapshot skips
//! them without reading, so `snapshot_region`/`fnv64` checksums are
//! bit-identical to a dense pass and cost only the committed bytes.
//!
//! Relaxed atomics compile to plain loads and stores on every platform
//! we care about; there is no synchronization cost on the hot path.
//! Determinism is *not* provided by this type — it comes from the
//! sharded phase contract (a location written by its owner during a
//! phase must not be read remotely in the same phase), enforced by
//! convention and checked by the determinism oracle tests. Chunk
//! *initialization* is thread-safe regardless: `OnceLock` guarantees a
//! single zeroed allocation wins even under racing first writes.

use std::alloc::{alloc_zeroed, handle_alloc_error, Layout};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Bytes per lazily-allocated chunk. 64 KB: big enough that chunk-table
/// indexing is invisible next to DRAM-model costs, small enough that a
/// microbenchmark touching one page commits one chunk, not a node's
/// whole memory. A multiple of the word size, so no word straddles two
/// chunks.
pub const CHUNK_BYTES: usize = 64 * 1024;

/// Bytes per word cell.
const WORD: usize = 8;

/// `SPREAD[m]` sets byte `i` of a word to `0xFF` for every set bit `i`
/// of the byte-select mask `m`.
const SPREAD: [u64; 256] = {
    let mut t = [0u64; 256];
    let mut m = 0;
    while m < 256 {
        let mut i = 0;
        while i < WORD {
            if m >> i & 1 != 0 {
                t[m] |= 0xFF << (8 * i);
            }
            i += 1;
        }
        m += 1;
    }
    t
};

/// Allocates `words` zeroed word cells.
///
/// The memory comes from `alloc_zeroed` rather than from initializing
/// each atomic cell: the allocator satisfies it from the OS's pre-zeroed
/// pages (calloc fast path), so a chunk's untouched pages are never
/// committed.
#[allow(unsafe_code)]
fn zeroed_words(words: usize) -> Box<[AtomicU64]> {
    assert!(words > 0, "chunks are never empty");
    let layout = Layout::array::<AtomicU64>(words).expect("chunk layout");
    // SAFETY: `layout` has non-zero size (asserted above). All-zero bits
    // are a valid `AtomicU64` (it has the bit validity of `u64`), so the
    // zeroed allocation is `words` initialized cells. The pointer was
    // allocated by the global allocator with exactly the layout of
    // `[AtomicU64; words]`, which is what `Box<[AtomicU64]>` frees with,
    // and ownership passes straight into the box.
    unsafe {
        let ptr = alloc_zeroed(layout).cast::<AtomicU64>();
        if ptr.is_null() {
            handle_alloc_error(layout);
        }
        Box::from_raw(std::ptr::slice_from_raw_parts_mut(ptr, words))
    }
}

/// Copies bytes `co..co + out.len()` of one chunk's cells into `out`:
/// an unaligned head word, whole words, then a tail word.
#[inline]
fn read_cells(cells: &[AtomicU64], co: usize, out: &mut [u8]) {
    let load = |c: &AtomicU64| c.load(Ordering::Relaxed).to_le_bytes();
    let (head, rest) = out.split_at_mut((co.wrapping_neg() % WORD).min(out.len()));
    if !head.is_empty() {
        let b = co % WORD;
        head.copy_from_slice(&load(&cells[co / WORD])[b..b + head.len()]);
    }
    let (first, n) = (co.div_ceil(WORD), rest.len() / WORD);
    let (body, tail) = rest.split_at_mut(n * WORD);
    for (d, c) in body.chunks_exact_mut(WORD).zip(&cells[first..first + n]) {
        d.copy_from_slice(&load(c));
    }
    if !tail.is_empty() {
        tail.copy_from_slice(&load(&cells[first + n])[..tail.len()]);
    }
}

/// Writes `src` over bytes `co..co + src.len()` of one chunk's cells:
/// an unaligned head word, whole-word stores, then a tail word.
#[inline]
fn write_cells(cells: &[AtomicU64], co: usize, src: &[u8]) {
    let (head, rest) = src.split_at((co.wrapping_neg() % WORD).min(src.len()));
    if !head.is_empty() {
        store_bytes(&cells[co / WORD], co % WORD, head, low_bits(head.len()));
    }
    let (first, n) = (co.div_ceil(WORD), rest.len() / WORD);
    let (body, tail) = rest.split_at(n * WORD);
    for (s, c) in body.chunks_exact(WORD).zip(&cells[first..first + n]) {
        c.store(
            u64::from_le_bytes(s.try_into().expect("whole word")),
            Ordering::Relaxed,
        );
    }
    if !tail.is_empty() {
        store_bytes(&cells[first + n], 0, tail, low_bits(tail.len()));
    }
}

/// A byte-select mask with the low `n` bits set (`n <= 8`).
#[inline]
fn low_bits(n: usize) -> u8 {
    (u16::MAX >> (16 - n)) as u8
}

/// Writes the bytes of `src` selected by `sel` (bit `k` → `src[k]`; no
/// bit at or above `src.len()` set) into `cell` starting at byte `b`.
#[inline]
fn store_bytes(cell: &AtomicU64, b: usize, src: &[u8], sel: u8) {
    let mut bytes = [0u8; WORD];
    bytes[b..b + src.len()].copy_from_slice(src);
    store_masked(
        cell,
        u64::from_le_bytes(bytes),
        SPREAD[sel as usize] << (8 * b),
    );
}

/// Writes the bytes of `value` that `mask` selects (`0xFF` per byte)
/// into `cell`. A whole word is one store; a partial word is one atomic
/// read-modify-write that leaves every other byte as it is, even when
/// another thread writes those bytes concurrently.
#[inline]
fn store_masked(cell: &AtomicU64, value: u64, mask: u64) {
    if mask == u64::MAX {
        cell.store(value, Ordering::Relaxed);
        return;
    }
    let value = value & mask;
    let _ = cell.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |old| {
        Some(old & !mask | value)
    });
}

/// The mask selecting bytes `lo..hi` of a word (`lo < hi <= 8`).
fn byte_range_mask(lo: usize, hi: usize) -> u64 {
    u64::MAX >> (64 - 8 * (hi - lo)) << (8 * lo)
}

/// Copies `n` bytes from `src` cells at byte `so` to `dst` cells at byte
/// `dco`, where `so` and `dco` sit at the same position within a word: a
/// masked head word, whole-word moves, then a masked tail word. A `None`
/// source is an uncommitted chunk and reads as zeros. Words move in
/// ascending order, so a source above an overlapping destination in the
/// same cells is read before it is overwritten.
fn copy_cells(dst: &[AtomicU64], dco: usize, src: Option<&[AtomicU64]>, so: usize, n: usize) {
    debug_assert_eq!(dco % WORD, so % WORD);
    let word = |i: usize| src.map_or(0, |c| c[i].load(Ordering::Relaxed));
    let (mut d, mut s, mut left) = (dco / WORD, so / WORD, n);
    let b = dco % WORD;
    if b != 0 {
        let h = (WORD - b).min(left);
        store_masked(&dst[d], word(s), byte_range_mask(b, b + h));
        (d, s, left) = (d + 1, s + 1, left - h);
    }
    while left >= WORD {
        dst[d].store(word(s), Ordering::Relaxed);
        (d, s, left) = (d + 1, s + 1, left - WORD);
    }
    if left > 0 {
        store_masked(&dst[d], word(s), byte_range_mask(0, left));
    }
}

/// A fixed-size, zero-initialized byte array with interior mutability
/// and demand-allocated backing chunks of word cells.
#[derive(Debug)]
pub struct MemArena {
    len: usize,
    chunks: Box<[OnceLock<Box<[AtomicU64]>>]>,
}

impl MemArena {
    /// Creates an arena of `len` zeroed bytes. No chunk is allocated
    /// until first written; reads of unallocated chunks return zeros.
    pub fn new(len: usize) -> Self {
        let n = len.div_ceil(CHUNK_BYTES);
        let chunks = (0..n).map(|_| OnceLock::new()).collect();
        MemArena { len, chunks }
    }

    /// Size in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes actually committed to allocated chunks — the demand-paged
    /// footprint, as opposed to [`len`](Self::len), the addressable
    /// size.
    pub fn resident_bytes(&self) -> usize {
        (0..self.chunks.len())
            .filter(|&i| self.chunks[i].get().is_some())
            .map(|i| self.chunk_len(i))
            .sum()
    }

    /// The byte length of chunk `i` (the last chunk may be short).
    #[inline]
    fn chunk_len(&self, i: usize) -> usize {
        CHUNK_BYTES.min(self.len - i * CHUNK_BYTES)
    }

    /// The chunk backing byte `i * CHUNK_BYTES`, allocating it (zeroed)
    /// on first use. A short tail chunk rounds up to whole words; the
    /// padding bytes past [`len`](Self::len) are never addressed.
    #[inline]
    fn chunk_mut(&self, i: usize) -> &[AtomicU64] {
        self.chunks[i].get_or_init(|| zeroed_words(self.chunk_len(i).div_ceil(WORD)))
    }

    /// Splits `off..off + len` at chunk boundaries and calls `f` with
    /// each piece's chunk index, offset within the chunk and range
    /// within the span.
    #[inline]
    fn spans(&self, off: usize, len: usize, mut f: impl FnMut(usize, usize, Range<usize>)) {
        let mut done = 0;
        while done < len {
            let pos = off + done;
            let (ci, co) = (pos / CHUNK_BYTES, pos % CHUNK_BYTES);
            let span = (len - done).min(self.chunk_len(ci) - co);
            f(ci, co, done..done + span);
            done += span;
        }
    }

    /// Copies `buf.len()` bytes starting at `offset` into `buf`.
    ///
    /// # Panics
    ///
    /// Panics if the span exceeds the arena.
    #[inline]
    pub fn read(&self, offset: u64, buf: &mut [u8]) {
        let off = offset as usize;
        assert!(
            off + buf.len() <= self.len,
            "read of {}..{} exceeds arena of {} bytes",
            off,
            off + buf.len(),
            self.len
        );
        self.spans(off, buf.len(), |ci, co, r| {
            let out = &mut buf[r];
            match self.chunks[ci].get() {
                Some(cells) => read_cells(cells, co, out),
                None => out.fill(0),
            }
        });
    }

    /// Reads one byte.
    pub fn get(&self, offset: u64) -> u8 {
        let mut b = [0u8; 1];
        self.read(offset, &mut b);
        b[0]
    }

    /// Writes `bytes` starting at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if the span exceeds the arena.
    pub fn write(&self, offset: u64, bytes: &[u8]) {
        let off = offset as usize;
        assert!(
            off + bytes.len() <= self.len,
            "write of {}..{} exceeds arena of {} bytes",
            off,
            off + bytes.len(),
            self.len
        );
        self.spans(off, bytes.len(), |ci, co, r| {
            write_cells(self.chunk_mut(ci), co, &bytes[r]);
        });
    }

    /// Writes one byte.
    pub fn set(&self, offset: u64, byte: u8) {
        self.write(offset, &[byte]);
    }

    /// Writes the bytes of `bytes` selected by the low bits of `mask`
    /// (bit `i` set → byte `i` written).
    ///
    /// # Panics
    ///
    /// Panics if the span exceeds the arena or `bytes` is longer than
    /// the 64 bytes a mask can select.
    pub fn write_masked(&self, offset: u64, bytes: &[u8], mask: u64) {
        let off = offset as usize;
        assert!(
            off + bytes.len() <= self.len,
            "masked write of {}..{} exceeds arena of {} bytes",
            off,
            off + bytes.len(),
            self.len
        );
        assert!(bytes.len() <= 64, "a mask selects at most 64 bytes");
        // One chunk lookup per piece (a write-buffer line never straddles
        // a chunk, so one per line), and only for a piece the mask
        // selects bytes of; then word by word, a fully selected word as
        // one plain store.
        self.spans(off, bytes.len(), |ci, co, r| {
            let sel_piece = (mask >> r.start) & (u64::MAX >> (64 - r.len()));
            if sel_piece == 0 {
                return;
            }
            let cells = self.chunk_mut(ci);
            let src = &bytes[r];
            let mut i = 0;
            while i < src.len() {
                let pos = co + i;
                let b = pos % WORD;
                let n = (WORD - b).min(src.len() - i);
                let sel = (sel_piece >> i) as u8 & low_bits(n);
                if sel == u8::MAX {
                    let word = src[i..i + WORD].try_into().expect("whole word");
                    cells[pos / WORD].store(u64::from_le_bytes(word), Ordering::Relaxed);
                } else if sel != 0 {
                    store_bytes(&cells[pos / WORD], b, &src[i..i + n], sel);
                }
                i += n;
            }
        });
    }

    /// Copies `len` bytes of `src` starting at `src_offset` to
    /// `offset` in this arena, with the result of a copy through a
    /// temporary buffer (memmove): `src` may be this very arena, with
    /// overlapping ranges. Commits exactly the chunks
    /// [`write`](Self::write) of the same span would.
    ///
    /// When the two offsets sit at the same position within a word, the
    /// bytes move word cell to word cell; otherwise they pass through a
    /// small stack buffer. Either way nothing is allocated but
    /// destination chunks.
    ///
    /// # Panics
    ///
    /// Panics if either span exceeds its arena.
    pub fn copy_from(&self, offset: u64, src: &MemArena, src_offset: u64, len: usize) {
        let (d, s) = (offset as usize, src_offset as usize);
        assert!(
            d + len <= self.len && s + len <= src.len,
            "copy of {len} bytes from {s} to {d} exceeds an arena ({} and {} bytes)",
            src.len,
            self.len
        );
        // Ascending order is a memmove unless the destination overlaps
        // the source from above.
        let descending = std::ptr::eq(self, src) && s < d && d < s + len;
        if d % WORD == s % WORD && !descending {
            let mut done = 0;
            while done < len {
                let (dp, sp) = (d + done, s + done);
                let (dci, dco) = (dp / CHUNK_BYTES, dp % CHUNK_BYTES);
                let (sci, sco) = (sp / CHUNK_BYTES, sp % CHUNK_BYTES);
                let n = (len - done)
                    .min(self.chunk_len(dci) - dco)
                    .min(src.chunk_len(sci) - sco);
                let cells = src.chunks[sci].get().map(|c| &c[..]);
                copy_cells(self.chunk_mut(dci), dco, cells, sco, n);
                done += n;
            }
            return;
        }
        const PIECE: usize = 256;
        let mut buf = [0u8; PIECE];
        let pieces = len.div_ceil(PIECE);
        for k in 0..pieces {
            let at = PIECE * if descending { pieces - 1 - k } else { k };
            let piece = &mut buf[..PIECE.min(len - at)];
            src.read((s + at) as u64, piece);
            self.write((d + at) as u64, piece);
        }
    }

    /// The shortest span holding every nonzero byte of
    /// `offset..offset + len`, or `None` if they are all zero. Only
    /// committed chunks are read: an uncommitted chunk is zero without
    /// looking.
    ///
    /// # Panics
    ///
    /// Panics if the span exceeds the arena.
    pub fn nonzero_span(&self, offset: u64, len: usize) -> Option<Range<u64>> {
        let off = offset as usize;
        assert!(
            off + len <= self.len,
            "scan of {}..{} exceeds arena of {} bytes",
            off,
            off + len,
            self.len
        );
        let mut span: Option<Range<usize>> = None;
        self.spans(off, len, |ci, co, r| {
            let Some(cells) = self.chunks[ci].get() else {
                return;
            };
            let end = co + r.len();
            let (w0, w1) = (co / WORD, end.div_ceil(WORD));
            // Word `w` with any bytes outside `co..end` cleared.
            let word = |w: usize| {
                let mut v = cells[w].load(Ordering::Relaxed);
                if w == w0 {
                    v &= u64::MAX << (8 * (co % WORD));
                }
                if w + 1 == w1 && end % WORD != 0 {
                    v &= u64::MAX >> (8 * (WORD - end % WORD));
                }
                v
            };
            let Some(first) = (w0..w1).find(|&w| word(w) != 0) else {
                return;
            };
            let last = (first..w1).rev().find(|&w| word(w) != 0).unwrap_or(first);
            let at = ci * CHUNK_BYTES;
            let lo = at + first * WORD + word(first).trailing_zeros() as usize / 8;
            let hi = at + (last + 1) * WORD - word(last).leading_zeros() as usize / 8;
            span = Some(span.as_ref().map_or(lo, |s| s.start)..hi);
        });
        span.map(|s| s.start as u64..s.end as u64)
    }

    /// A deep copy with the same contents (used by `MemPort::clone`).
    /// Only chunks the source has committed are allocated in the copy,
    /// so cloning a mostly-untouched arena stays cheap.
    pub fn deep_clone(&self) -> Self {
        let clone = MemArena::new(self.len);
        for (i, slot) in self.chunks.iter().enumerate() {
            if let Some(src) = slot.get() {
                let dst = clone.chunk_mut(i);
                for (d, s) in dst.iter().zip(src.iter()) {
                    d.store(s.load(Ordering::Relaxed), Ordering::Relaxed);
                }
            }
        }
        clone
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_arena_reads_all_zero() {
        // Pins the demand-zeroed contract: a fresh arena must be
        // indistinguishable from the old eager zeroed allocation.
        let a = MemArena::new(4096 + 3); // odd size: no alignment luck
        let mut buf = vec![0xAAu8; a.len()];
        a.read(0, &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
        assert_eq!(a.get(4096 + 2), 0);
    }

    #[test]
    fn fresh_arena_commits_nothing() {
        let a = MemArena::new(16 << 20);
        assert_eq!(a.resident_bytes(), 0, "construction allocates no chunks");
        let mut buf = [0u8; 64];
        a.read(1 << 20, &mut buf);
        assert_eq!(a.resident_bytes(), 0, "reads allocate no chunks");
        a.set(1 << 20, 1);
        assert_eq!(
            a.resident_bytes(),
            CHUNK_BYTES,
            "first write commits one chunk"
        );
    }

    #[test]
    fn read_write_roundtrip() {
        let a = MemArena::new(64);
        a.write(8, &[1, 2, 3, 4]);
        let mut buf = [0u8; 4];
        a.read(8, &mut buf);
        assert_eq!(buf, [1, 2, 3, 4]);
        assert_eq!(a.get(9), 2);
    }

    #[test]
    fn spans_crossing_chunk_boundaries_roundtrip() {
        let a = MemArena::new(3 * CHUNK_BYTES + 7);
        let off = CHUNK_BYTES as u64 - 3; // straddles chunks 0 and 1
        let data: Vec<u8> = (0..16u8).collect();
        a.write(off, &data);
        let mut buf = [0u8; 16];
        a.read(off, &mut buf);
        assert_eq!(&buf[..], &data[..]);
        // A long read over committed, uncommitted and short-tail chunks.
        let mut all = vec![0xAAu8; a.len()];
        a.read(0, &mut all);
        assert_eq!(&all[CHUNK_BYTES - 3..CHUNK_BYTES + 13], &data[..]);
        assert!(all[..CHUNK_BYTES - 3].iter().all(|&b| b == 0));
        assert!(all[CHUNK_BYTES + 13..].iter().all(|&b| b == 0));
    }

    #[test]
    fn short_tail_chunk_is_addressable() {
        let a = MemArena::new(2 * CHUNK_BYTES + 5);
        a.write(2 * CHUNK_BYTES as u64, &[9, 8, 7, 6, 5]);
        assert_eq!(a.get(2 * CHUNK_BYTES as u64 + 4), 5);
        assert_eq!(a.resident_bytes(), 5, "tail chunk is allocated short");
    }

    #[test]
    fn masked_write_touches_selected_bytes_only() {
        let a = MemArena::new(16);
        a.write(0, &[0xFF; 8]);
        a.write_masked(0, &[0u8; 8], 0b0101_0101);
        let mut buf = [0u8; 8];
        a.read(0, &mut buf);
        assert_eq!(buf, [0, 0xFF, 0, 0xFF, 0, 0xFF, 0, 0xFF]);
    }

    #[test]
    fn deep_clone_is_independent() {
        let a = MemArena::new(8);
        a.set(0, 7);
        let b = a.deep_clone();
        a.set(0, 9);
        assert_eq!(b.get(0), 7);
        assert_eq!(a.get(0), 9);
    }

    #[test]
    fn deep_clone_copies_only_committed_chunks() {
        let a = MemArena::new(4 * CHUNK_BYTES);
        a.set(3 * CHUNK_BYTES as u64, 42);
        let b = a.deep_clone();
        assert_eq!(b.resident_bytes(), CHUNK_BYTES);
        assert_eq!(b.get(3 * CHUNK_BYTES as u64), 42);
        assert_eq!(b.get(0), 0);
    }

    #[test]
    fn shared_across_threads() {
        let a = std::sync::Arc::new(MemArena::new(1024));
        std::thread::scope(|s| {
            for t in 0..4u8 {
                let a = std::sync::Arc::clone(&a);
                s.spawn(move || {
                    // Disjoint spans per thread: the sharded-phase contract.
                    a.write(t as u64 * 256, &[t + 1; 256]);
                });
            }
        });
        for t in 0..4u8 {
            assert_eq!(a.get(t as u64 * 256 + 100), t + 1);
        }
    }

    #[test]
    fn racing_first_writes_to_one_chunk_all_land() {
        // OnceLock must arbitrate racing chunk initializations.
        let a = std::sync::Arc::new(MemArena::new(CHUNK_BYTES));
        std::thread::scope(|s| {
            for t in 0..8u8 {
                let a = std::sync::Arc::clone(&a);
                s.spawn(move || {
                    a.write(t as u64 * 128, &[t + 1; 128]);
                });
            }
        });
        for t in 0..8u8 {
            assert_eq!(a.get(t as u64 * 128 + 64), t + 1);
        }
        assert_eq!(a.resident_bytes(), CHUNK_BYTES);
    }

    #[test]
    #[should_panic(expected = "exceeds arena")]
    fn out_of_bounds_write_panics() {
        let a = MemArena::new(16);
        a.write(10, &[0u8; 8]);
    }

    /// A byte-array reference model of the arena.
    fn model_read(a: &MemArena) -> Vec<u8> {
        let mut all = vec![0u8; a.len()];
        a.read(0, &mut all);
        all
    }

    #[test]
    fn unaligned_heads_and_tails_leave_neighbours_alone() {
        for off in 0..8u64 {
            for len in 0..20usize {
                let a = MemArena::new(64);
                a.write(0, &[0xAA; 64]);
                let data: Vec<u8> = (1..=len as u8).collect();
                a.write(off + 16, &data);
                let mut want = vec![0xAAu8; 64];
                want[off as usize + 16..off as usize + 16 + len].copy_from_slice(&data);
                assert_eq!(model_read(&a), want, "write at +{off}, {len} bytes");
                let mut got = vec![0u8; len];
                a.read(off + 16, &mut got);
                assert_eq!(got, data, "read at +{off}, {len} bytes");
            }
        }
    }

    #[test]
    fn masked_writes_within_one_word_replace_selected_bytes() {
        let a = MemArena::new(32);
        a.write(0, &[0x11; 32]);
        // Offset 5, 12 bytes: bytes 5..8 of word 0, all of word 1, byte
        // 0 of word 2; the mask selects a ragged subset of each.
        let data: Vec<u8> = (0xE0..0xECu8).collect();
        let mask = 0b1010_0110_1101u64;
        a.write_masked(5, &data, mask);
        let mut want = vec![0x11u8; 32];
        for (i, &b) in data.iter().enumerate() {
            if mask >> i & 1 != 0 {
                want[5 + i] = b;
            }
        }
        assert_eq!(model_read(&a), want);
        // An empty mask writes nothing and commits nothing new.
        let b = MemArena::new(CHUNK_BYTES);
        b.write_masked(3, &[9; 8], 0);
        assert_eq!(b.get(3), 0);
    }

    #[test]
    fn spans_crossing_a_chunk_at_an_odd_offset() {
        let a = MemArena::new(2 * CHUNK_BYTES);
        let off = CHUNK_BYTES as u64 - 5;
        let data: Vec<u8> = (1..=19u8).collect();
        a.write(off, &data);
        let mut buf = [0u8; 19];
        a.read(off, &mut buf);
        assert_eq!(&buf[..], &data[..]);
        // A masked write straddling the same boundary.
        a.write_masked(off + 1, &[0xF0; 8], 0b1001_0110);
        let mut want = data.clone();
        for i in [1usize, 2, 4, 7] {
            want[1 + i] = 0xF0;
        }
        a.read(off, &mut buf);
        assert_eq!(&buf[..], &want[..]);
        assert_eq!(a.resident_bytes(), 2 * CHUNK_BYTES);
    }

    #[test]
    fn tail_chunk_shorter_than_a_word_multiple() {
        let len = CHUNK_BYTES + 13;
        let a = MemArena::new(len);
        let data: Vec<u8> = (100..113u8).collect();
        a.write(CHUNK_BYTES as u64, &data);
        assert_eq!(
            a.resident_bytes(),
            13,
            "tail chunk counts its bytes, not its words"
        );
        let mut buf = [0u8; 13];
        a.read(CHUNK_BYTES as u64, &mut buf);
        assert_eq!(&buf[..], &data[..]);
        a.set(len as u64 - 1, 0x7F);
        assert_eq!(a.get(len as u64 - 1), 0x7F);
        assert_eq!(a.get(len as u64 - 2), 111);
        let c = a.deep_clone();
        assert_eq!(model_read(&c), model_read(&a));
        assert_eq!(c.resident_bytes(), 13);
    }

    #[test]
    fn threads_writing_different_bytes_of_one_word_all_land() {
        // Partial-word writes are read-modify-writes on a shared cell; a
        // plain load-then-store would let one thread's write erase the
        // other's. Every thread owns one byte of word 0 and keeps
        // rewriting it; each byte must end at its thread's last value.
        const ROUNDS: u32 = 20_000;
        let a = std::sync::Arc::new(MemArena::new(64));
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let a = std::sync::Arc::clone(&a);
                s.spawn(move || {
                    for r in 0..ROUNDS {
                        let v = (r % 251) as u8 ^ t as u8;
                        if r % 2 == 0 {
                            a.set(t, v);
                        } else {
                            a.write_masked(0, &[v; 8], 1 << t);
                        }
                    }
                });
            }
        });
        for t in 0..8u64 {
            assert_eq!(a.get(t), ((ROUNDS - 1) % 251) as u8 ^ t as u8, "byte {t}");
        }
    }

    #[test]
    fn random_spans_match_a_byte_model() {
        let len = 2 * CHUNK_BYTES + 29;
        let a = MemArena::new(len);
        let mut model = vec![0u8; len];
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for i in 0..2000 {
            let n = (next() % 70) as usize;
            let off = (next() as usize) % (len - n + 1);
            let data: Vec<u8> = (0..n).map(|_| next() as u8).collect();
            if i % 2 == 0 || n > 64 {
                a.write(off as u64, &data);
                model[off..off + n].copy_from_slice(&data);
            } else {
                let mask = next();
                a.write_masked(off as u64, &data, mask);
                for (k, &b) in data.iter().enumerate() {
                    if mask >> k & 1 != 0 {
                        model[off + k] = b;
                    }
                }
            }
            let r = (next() % 90) as usize;
            let roff = (next() as usize) % (len - r + 1);
            let mut buf = vec![0u8; r];
            a.read(roff as u64, &mut buf);
            assert_eq!(buf, model[roff..roff + r], "op {i}");
        }
        assert_eq!(model_read(&a), model);
    }

    #[test]
    fn copies_match_a_memmove_model_and_commit_like_writes() {
        let len = 3 * CHUNK_BYTES + 29;
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for case in 0..600 {
            // Chunk 1 of the source arena is never written.
            let (a, b) = (MemArena::new(len), MemArena::new(len));
            for (arena, base) in [(&a, 0), (&a, 2 * CHUNK_BYTES), (&b, CHUNK_BYTES)] {
                let data: Vec<u8> = (0..CHUNK_BYTES).map(|_| next() as u8).collect();
                arena.write(base as u64, &data[..CHUNK_BYTES.min(len - base)]);
            }
            let n = match case % 3 {
                0 => (next() % 40) as usize,
                1 => (next() % 700) as usize,
                _ => (next() as usize) % (CHUNK_BYTES + 100),
            };
            let s = (next() as usize) % (len - n + 1);
            let d = if case % 4 == 0 {
                // Near the source: overlapping, word-congruent or not.
                (s + (next() % 33) as usize).saturating_sub(16).min(len - n)
            } else {
                (next() as usize) % (len - n + 1)
            };
            let same = case % 2 == 0;
            let dst = if same { &a } else { &b };
            let mut want = model_read(dst);
            let src_bytes = model_read(&a);
            want[d..d + n].copy_from_slice(&src_bytes[s..s + n]);
            let written = MemArena::new(len);
            for (i, slot) in dst.chunks.iter().enumerate() {
                if slot.get().is_some() {
                    written.set((i * CHUNK_BYTES) as u64, 0);
                }
            }
            written.write(d as u64, &vec![0; n]);
            dst.copy_from(d as u64, &a, s as u64, n);
            assert_eq!(model_read(dst), want, "case {case}: {n} bytes {s} -> {d}");
            assert_eq!(
                dst.resident_bytes(),
                written.resident_bytes(),
                "case {case}: commits what a write would"
            );
        }
    }

    #[test]
    fn nonzero_span_finds_the_outermost_nonzero_bytes() {
        let len = 3 * CHUNK_BYTES + 13;
        let a = MemArena::new(len);
        assert_eq!(a.nonzero_span(0, len), None, "fresh arena");
        a.write(CHUNK_BYTES as u64, &[0; 64]);
        assert_eq!(a.nonzero_span(0, len), None, "a committed chunk of zeros");
        a.set(CHUNK_BYTES as u64 + 5, 1);
        a.set(2 * CHUNK_BYTES as u64 + 2, 7);
        let (lo, hi) = (CHUNK_BYTES as u64 + 5, 2 * CHUNK_BYTES as u64 + 3);
        assert_eq!(a.nonzero_span(0, len), Some(lo..hi));
        // Windows that cut through the nonzero bytes' words.
        assert_eq!(a.nonzero_span(lo, 1), Some(lo..lo + 1));
        assert_eq!(a.nonzero_span(lo + 1, (hi - lo - 2) as usize), None);
        assert_eq!(a.nonzero_span(lo - 3, 9), Some(lo..lo + 1));
        a.set(len as u64 - 1, 9);
        assert_eq!(a.nonzero_span(3, len - 3), Some(lo..len as u64));
        assert_eq!(
            a.resident_bytes(),
            2 * CHUNK_BYTES + 13,
            "scans commit nothing"
        );
    }
}
