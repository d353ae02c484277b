//! The Alpha 21064 four-entry merging write buffer.
//!
//! Stores are non-blocking on the 21064: they enter a four-entry write
//! buffer, each entry one cache line (32 B) wide, and retire to memory in
//! FIFO order through a pipelined memory path. Consecutive stores to the
//! same line *merge* into one entry (Section 2.3 of the paper derives both
//! the merge behaviour and the entry count of 4 from the write-latency
//! profile).
//!
//! Two properties of this buffer drive compiler decisions in the paper:
//!
//! * **Reads can bypass writes.** A load is matched against pending
//!   entries by *full physical address* (which on the T3D includes the
//!   DTB-Annex index bits). Two annex synonyms — different physical
//!   addresses naming the same memory location — therefore do not match,
//!   and a read can observe the stale memory value while the newer value
//!   sits in the buffer (Section 3.4). This module reproduces that hazard
//!   byte-for-byte.
//! * **Remote stores retire more slowly than local ones** and acknowledge
//!   asynchronously, which is what makes the non-blocking remote write the
//!   fastest communication primitive on the machine (Section 5.3).
//!
//! Time inside the buffer is tracked in fractional cycles so that the
//! pipelined retire interval (DRAM cost / 4) reproduces the measured
//! 35 ns steady-state store cost. They round up to whole cycles through
//! [`ceil_u64`], which is exact for any virtual time below 2^52 cycles
//! and calls no library routine.
//!
//! # Storage
//!
//! Stores are the most common operation in the simulator, so the buffer
//! does no heap work per store. Each entry keeps its line *inline* as a
//! `[u8; MAX_LINE]` array: [`MAX_LINE`] is 64 bytes, the widest line the
//! 64-bit per-byte valid mask can describe, and only the first `line`
//! bytes of it are ever used. Entries that retire are handed, oldest
//! first, to a [`RetireSink`] the *caller* supplies: the memory port's
//! sink commits local entries straight to its arena and queues remote
//! ones, and a `Vec<Retired>` sink collects them. So
//! [`WriteBuffer::push`], [`WriteBuffer::drain_due`] and
//! [`WriteBuffer::drain_all`] allocate nothing of their own. Consumers
//! of a [`Retired`] slice its data to the configured line
//! (`&r.data[..line]`) before committing it.

use crate::config::WbufConfig;
use crate::{ceil_u64, copy_bytes};
use std::collections::VecDeque;

/// The widest cache line a write buffer supports: one valid bit per byte
/// must fit the 64-bit mask. Entries and retirements store their line
/// inline at this size.
pub const MAX_LINE: usize = 64;

/// Byte mask covering `len` bytes from byte `off` of a line
/// (`1 <= len`, `off + len <= 64`). A full 64-byte span is `u64::MAX`:
/// the shift never reaches 64.
#[inline]
fn span_mask(off: usize, len: usize) -> u64 {
    debug_assert!(len >= 1 && off + len <= MAX_LINE);
    (u64::MAX >> (MAX_LINE - len)) << off
}

/// Where a buffered write is headed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteTarget {
    /// Local memory on this node.
    Local,
    /// A remote node, via the shell.
    Remote(RemoteSink),
}

/// Destination and cost parameters for a buffered *remote* write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteSink {
    /// Destination processing element.
    pub pe: u32,
    /// Line-aligned physical address in the destination's local memory.
    pub remote_line_pa: u64,
    /// Fixed part of the shell injection interval, in cycles.
    pub base_cy: u64,
    /// Per-64-bit-word part of the injection interval, in cycles.
    pub per_word_cy: u64,
    /// Cycles from injection until the hardware acknowledgement returns
    /// and decrements the outstanding-writes counter.
    pub ack_rtt_cy: u64,
}

impl RemoteSink {
    /// Injection interval for an entry carrying `words` valid quadwords.
    #[inline]
    pub fn interval_cy(&self, words: u64) -> u64 {
        self.base_cy + self.per_word_cy * words
    }
}

/// Where a [`WriteBuffer`] hands the entries it retires, in FIFO order.
pub trait RetireSink {
    /// Takes one retired entry.
    fn retire(&mut self, r: Retired);
}

/// Collects retirements, appended after whatever the vector holds.
impl RetireSink for Vec<Retired> {
    #[inline]
    fn retire(&mut self, r: Retired) {
        self.push(r);
    }
}

/// A write that has retired from the buffer.
#[derive(Debug, Clone, Copy)]
pub struct Retired {
    /// Line-aligned physical address the entry was buffered under.
    pub line_pa: u64,
    /// Per-byte valid mask within the line.
    pub mask: u64,
    /// The line, stored inline: only the first `line` bytes belong to it,
    /// and of those only bytes with a set mask bit are meaningful.
    /// Commit `&data[..line]`, never the whole array.
    pub data: [u8; MAX_LINE],
    /// Destination of the write.
    pub target: WriteTarget,
    /// Virtual time (cycles) at which the entry left the buffer.
    pub completion: u64,
}

#[derive(Debug, Clone)]
struct Entry {
    line_pa: u64,
    mask: u64,
    data: [u8; MAX_LINE],
    target: WriteTarget,
    /// Earliest time the retire pipeline could begin serving this entry
    /// (issue time or the predecessor's completion, whichever is later) —
    /// fixed at push so merges cannot jump the FIFO.
    base: f64,
    /// Interval this entry occupies the retire pipeline.
    interval: f64,
    /// Time the entry finishes retiring.
    completion: f64,
}

impl Entry {
    fn words(&self, line: usize) -> u64 {
        let mut words = 0;
        for q in 0..(line / 8) {
            if (self.mask >> (q * 8)) & 0xFF != 0 {
                words += 1;
            }
        }
        words.max(1)
    }

    fn retire(self) -> Retired {
        Retired {
            line_pa: self.line_pa,
            mask: self.mask,
            data: self.data,
            target: self.target,
            completion: ceil_u64(self.completion),
        }
    }
}

/// Outcome of pushing a store into the buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PushOutcome {
    /// Cycles the store cost the issuing processor (issue + any stall for
    /// a free entry).
    pub cycles: u64,
    /// Whether the store merged into an existing entry.
    pub merged: bool,
}

/// The four-entry merging write buffer.
///
/// # Example
///
/// ```
/// use t3d_memsys::{MemConfig, WriteBuffer, WriteTarget};
///
/// let cfg = MemConfig::t3d();
/// let mut wb = WriteBuffer::new(cfg.wbuf, cfg.l1.line);
/// // Retirements land in a caller-owned sink (here a `Vec`).
/// let mut retired = Vec::new();
/// // Two stores to the same 32 B line merge into one entry.
/// wb.push(0, 0x100, &[1u8; 8], WriteTarget::Local, 22, &mut retired);
/// let out = wb.push(3, 0x108, &[2u8; 8], WriteTarget::Local, 22, &mut retired);
/// assert!(out.merged);
/// assert_eq!(wb.pending(), 1);
/// assert!(retired.is_empty(), "nothing has retired yet");
/// ```
#[derive(Debug, Clone)]
pub struct WriteBuffer {
    cfg: WbufConfig,
    line: usize,
    entries: VecDeque<Entry>,
    /// Completion time of the most recently scheduled entry (the retire
    /// pipeline is strictly FIFO).
    pipe_tail: f64,
}

impl WriteBuffer {
    /// Creates an empty buffer for `line`-byte cache lines.
    pub fn new(cfg: WbufConfig, line: usize) -> Self {
        assert!(line <= MAX_LINE, "line size must fit the 64-bit byte mask");
        WriteBuffer {
            cfg,
            line,
            entries: VecDeque::new(),
            pipe_tail: 0.0,
        }
    }

    /// Number of entries currently pending.
    pub fn pending(&self) -> usize {
        self.entries.len()
    }

    /// Whether any entry is pending for exactly this full physical line
    /// address (annex bits included).
    #[inline]
    pub fn has_pending_line(&self, line_pa: u64) -> bool {
        self.entries.iter().any(|e| e.line_pa == line_pa)
    }

    /// Completion time of the last pending entry, if any.
    pub fn drain_time(&self) -> Option<u64> {
        self.entries.back().map(|e| ceil_u64(e.completion))
    }

    /// Earliest cycle at which [`WriteBuffer::drain_due`] could retire
    /// anything, if an entry is pending. The retire pipeline is FIFO, so
    /// this is the head's completion; for integer `now`,
    /// `now >= next_due()` exactly when the head is due (`⌈c⌉ <= now` iff
    /// `c <= now`). The port caches this to skip the drain call on the
    /// per-operation fast path.
    #[inline]
    pub fn next_due(&self) -> Option<u64> {
        self.entries.front().map(|e| ceil_u64(e.completion))
    }

    /// Integer completion times of every pending entry, in FIFO (retire)
    /// order. The pipeline is strictly FIFO, so the sequence is
    /// nondecreasing, and each value is exactly the
    /// `completion` the entry will carry when it retires through
    /// [`WriteBuffer::drain_due`] or [`WriteBuffer::drain_all`].
    pub fn due_times(&self) -> impl Iterator<Item = u64> + '_ {
        self.entries.iter().map(|e| ceil_u64(e.completion))
    }

    #[inline]
    fn line_base(&self, pa: u64) -> u64 {
        pa & !((self.line as u64) - 1)
    }

    /// Pushes a store of `bytes` at physical address `pa`.
    ///
    /// `local_dram_cy` is the DRAM service cost the entry will pay when it
    /// retires locally (ignored for remote targets, whose interval comes
    /// from their [`RemoteSink`]). Returns the processor-visible cost; an
    /// entry forced out to make room goes to `retired`.
    ///
    /// # Panics
    ///
    /// Panics if the store crosses a line boundary or is empty.
    pub fn push(
        &mut self,
        now: u64,
        pa: u64,
        bytes: &[u8],
        target: WriteTarget,
        local_dram_cy: u64,
        retired: &mut impl RetireSink,
    ) -> PushOutcome {
        assert!(!bytes.is_empty(), "store must carry at least one byte");
        let line_pa = self.line_base(pa);
        let off = (pa - line_pa) as usize;
        let end = off + bytes.len();
        assert!(end <= self.line, "store must not cross a line boundary");

        let mut cost = self.cfg.store_issue_cy;
        let tnow = now as f64;

        // Write merging: the youngest entry can absorb the store if it is
        // for the same line and destination and is still in the buffer.
        let can_merge = self.cfg.merge
            && self.entries.back().is_some_and(|tail| {
                tail.line_pa == line_pa && tail.target == target && tail.completion > tnow
            });
        if can_merge {
            let line = self.line;
            let tail = self.entries.back_mut().expect("tail exists");
            copy_bytes(&mut tail.data[off..end], bytes);
            tail.mask |= span_mask(off, bytes.len());
            if let WriteTarget::Remote(sink) = tail.target {
                // A wider entry takes longer to inject through the shell.
                tail.interval = sink.interval_cy(tail.words(line)) as f64;
                tail.completion = tail.base + tail.interval;
                self.pipe_tail = tail.completion;
            }
            return PushOutcome {
                cycles: cost,
                merged: true,
            };
        }

        // Stall for a free entry, retiring the head if the buffer is full.
        if self.entries.len() == self.cfg.entries {
            let head_done = self.entries.front().expect("buffer full").completion;
            if head_done > tnow {
                cost += ceil_u64(head_done - tnow);
            }
            let head = self.entries.pop_front().expect("buffer full");
            retired.retire(head.retire());
        }

        let issue = (now + cost) as f64;
        let mut data = [0u8; MAX_LINE];
        copy_bytes(&mut data[off..end], bytes);
        let interval = match target {
            WriteTarget::Local => local_dram_cy as f64 / self.cfg.pipeline as f64,
            WriteTarget::Remote(sink) => {
                let words = bytes.len().div_ceil(8).max(1) as u64;
                sink.interval_cy(words) as f64
            }
        };
        let base = issue.max(self.pipe_tail);
        let completion = base + interval;
        self.pipe_tail = completion;
        self.entries.push_back(Entry {
            line_pa,
            mask: span_mask(off, bytes.len()),
            data,
            target,
            base,
            interval,
            completion,
        });
        PushOutcome {
            cycles: cost,
            merged: false,
        }
    }

    /// Retires every entry whose completion time is at or before `now`,
    /// handing them to `retired` in FIFO order.
    pub fn drain_due(&mut self, now: u64, retired: &mut impl RetireSink) {
        while let Some(head) = self.entries.front() {
            if head.completion > now as f64 {
                break;
            }
            let e = self.entries.pop_front().expect("head exists");
            retired.retire(e.retire());
        }
    }

    /// Drains the whole buffer (memory-barrier semantics): hands every
    /// entry to `retired` in FIFO order and returns the cost in cycles to
    /// the issuing processor (barrier issue + wait for the last entry).
    pub fn drain_all(&mut self, now: u64, retired: &mut impl RetireSink) -> u64 {
        let mut cost = self.cfg.mb_issue_cy;
        if let Some(last) = self.entries.back() {
            if last.completion > now as f64 {
                cost += ceil_u64(last.completion - now as f64);
            }
        }
        for e in self.entries.drain(..) {
            retired.retire(e.retire());
        }
        cost
    }

    /// Read forwarding: overlays every pending byte for exactly this full
    /// physical line address onto `line_buf` (oldest entries first).
    ///
    /// Annex synonyms have *different* physical addresses and therefore do
    /// not forward — which is precisely the stale-read hazard of
    /// Section 3.4.
    pub fn forward(&self, line_pa: u64, line_buf: &mut [u8]) -> bool {
        let mut any = false;
        for e in &self.entries {
            if e.line_pa == line_pa {
                for (i, b) in line_buf.iter_mut().enumerate().take(self.line) {
                    if e.mask & (1 << i) != 0 {
                        *b = e.data[i];
                    }
                }
                any = true;
            }
        }
        any
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemConfig;

    fn wbuf() -> WriteBuffer {
        let cfg = MemConfig::t3d();
        WriteBuffer::new(cfg.wbuf, cfg.l1.line)
    }

    fn sink() -> RemoteSink {
        RemoteSink {
            pe: 1,
            remote_line_pa: 0x100,
            base_cy: 5,
            per_word_cy: 12,
            ack_rtt_cy: 60,
        }
    }

    #[test]
    fn stores_to_one_line_merge() {
        let mut wb = wbuf();
        let mut r = Vec::new();
        for i in 0..4u64 {
            let out = wb.push(
                i,
                0x100 + i * 8,
                &[i as u8; 8],
                WriteTarget::Local,
                22,
                &mut r,
            );
            assert_eq!(out.merged, i != 0);
        }
        assert_eq!(wb.pending(), 1);
        assert!(r.is_empty());
    }

    #[test]
    fn back_to_back_same_line_stores_average_three_cycles() {
        // The 20 ns small-stride plateau of Figure 2: at issue pace, every
        // other store merges and none stall, so the average cost is the
        // 3-cycle issue cost.
        let mut wb = wbuf();
        let mut r = Vec::new();
        let mut now = 0u64;
        let n = 256u64;
        for i in 0..n {
            let pa = (i / 4) * 32 + (i % 4) * 8;
            now += wb
                .push(now, pa, &[1; 8], WriteTarget::Local, 22, &mut r)
                .cycles;
        }
        let avg = now as f64 / n as f64;
        assert!(
            (2.5..4.0).contains(&avg),
            "small-stride store cost {avg} cy"
        );
    }

    #[test]
    fn distinct_lines_occupy_distinct_entries() {
        let mut wb = wbuf();
        let mut r = Vec::new();
        for i in 0..4u64 {
            wb.push(i, 0x100 + i * 32, &[1; 8], WriteTarget::Local, 22, &mut r);
        }
        assert_eq!(wb.pending(), 4);
    }

    #[test]
    fn full_buffer_stalls_until_head_retires() {
        let mut wb = wbuf();
        let mut r = Vec::new();
        for i in 0..4u64 {
            wb.push(i, i * 64, &[1; 8], WriteTarget::Local, 22, &mut r);
        }
        let out = wb.push(4, 4 * 64, &[1; 8], WriteTarget::Local, 22, &mut r);
        assert_eq!(r.len(), 1, "head was forced out");
        assert_eq!(r[0].line_pa, 0, "the oldest entry retires first");
        assert!(
            out.cycles > MemConfig::t3d().wbuf.store_issue_cy,
            "store stalled"
        );
    }

    #[test]
    fn steady_state_local_interval_is_quarter_dram_cost() {
        // With back-to-back stores to distinct lines, throughput is
        // limited to one entry per dram/4 = 5.5 cycles: the 35 ns plateau
        // in Figure 2.
        let mut wb = wbuf();
        let mut r = Vec::new();
        let mut now = 0u64;
        let n = 64u64;
        for i in 0..n {
            now += wb
                .push(now, i * 64, &[1; 8], WriteTarget::Local, 22, &mut r)
                .cycles;
        }
        let avg = now as f64 / n as f64;
        assert!(
            (5.0..7.0).contains(&avg),
            "steady-state store cost {avg} cy"
        );
    }

    #[test]
    fn remote_single_word_interval_is_17_cycles() {
        let mut wb = wbuf();
        let mut r = Vec::new();
        let mut now = 0u64;
        let n = 64u64;
        for i in 0..n {
            let target = WriteTarget::Remote(sink());
            now += wb.push(now, i * 64, &[1; 8], target, 22, &mut r).cycles;
        }
        let avg = now as f64 / n as f64;
        assert!(
            (16.0..19.0).contains(&avg),
            "steady-state remote store cost {avg} cy"
        );
    }

    #[test]
    fn merged_remote_line_is_cheaper_per_word_than_four_singles() {
        // 4 merged words: 5 + 12*4 = 53 cy per line = ~90 MB/s;
        // 4 single-word entries: 4 * 17 = 68 cy.
        let s = sink();
        assert!(s.interval_cy(4) < 4 * s.interval_cy(1));
    }

    #[test]
    fn forward_matches_only_exact_physical_line() {
        let mut wb = wbuf();
        wb.push(0, 0x100, &[7; 8], WriteTarget::Local, 22, &mut Vec::new());
        let mut buf = [0u8; 32];
        assert!(wb.forward(0x100, &mut buf));
        assert_eq!(buf[0], 7);
        let mut buf2 = [0u8; 32];
        let synonym = 0x100 | (1 << 27); // same location, different annex bits
        assert!(!wb.forward(synonym, &mut buf2), "synonym must NOT forward");
        assert_eq!(buf2[0], 0, "synonym read sees stale bytes");
    }

    #[test]
    fn forward_overlays_youngest_value() {
        let mut wb = wbuf();
        let mut r = Vec::new();
        wb.push(0, 0x100, &[1; 8], WriteTarget::Local, 22, &mut r);
        // A second, non-mergeable write to the same line (force by filling
        // with a different target) — emulate by draining merge window:
        // push to another line in between.
        wb.push(1, 0x200, &[9; 8], WriteTarget::Local, 22, &mut r);
        wb.push(2, 0x100, &[2; 8], WriteTarget::Local, 22, &mut r);
        let mut buf = [0u8; 32];
        wb.forward(0x100, &mut buf);
        assert_eq!(buf[0], 2, "youngest pending value wins");
    }

    #[test]
    fn drain_all_reports_cost_and_empties() {
        let mut wb = wbuf();
        let mut r = Vec::new();
        for i in 0..4u64 {
            wb.push(i, i * 64, &[1; 8], WriteTarget::Local, 22, &mut r);
        }
        let cost = wb.drain_all(4, &mut r);
        assert_eq!(r.len(), 4);
        assert!(cost > MemConfig::t3d().wbuf.mb_issue_cy);
        assert_eq!(wb.pending(), 0);
        // Barrier on an empty buffer costs just the issue.
        r.clear();
        let cost = wb.drain_all(100, &mut r);
        assert!(r.is_empty());
        assert_eq!(cost, MemConfig::t3d().wbuf.mb_issue_cy);
    }

    #[test]
    fn drains_append_to_the_sink() {
        // The sink is the caller's: retirements are appended after
        // whatever it already holds, never replacing it.
        let mut wb = wbuf();
        let mut r = Vec::new();
        wb.push(0, 0, &[1; 8], WriteTarget::Local, 22, &mut r);
        wb.drain_due(1000, &mut r);
        wb.push(1000, 64, &[2; 8], WriteTarget::Local, 22, &mut r);
        wb.drain_all(1000, &mut r);
        let lines: Vec<u64> = r.iter().map(|e| e.line_pa).collect();
        assert_eq!(lines, [0, 64]);
    }

    #[test]
    fn drain_due_respects_completion_times() {
        let mut wb = wbuf();
        let mut r = Vec::new();
        wb.push(0, 0, &[1; 8], WriteTarget::Local, 22, &mut r);
        wb.drain_due(0, &mut r);
        assert!(r.is_empty(), "not yet complete");
        wb.drain_due(1000, &mut r);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn next_due_agrees_with_drain_due_at_the_boundary() {
        let mut wb = wbuf();
        let mut r = Vec::new();
        assert_eq!(wb.next_due(), None, "empty buffer has nothing due");
        wb.push(0, 0, &[1; 8], WriteTarget::Local, 22, &mut r);
        let due = wb.next_due().expect("one entry pending");
        wb.drain_due(due - 1, &mut r);
        assert!(r.is_empty(), "one cycle early nothing retires");
        wb.drain_due(due, &mut r);
        assert_eq!(r.len(), 1, "at next_due the head retires");
        assert_eq!(r[0].completion, due);
        assert_eq!(wb.next_due(), None);
    }

    #[test]
    fn merging_remote_entry_extends_interval() {
        let mut wb = wbuf();
        let mut r = Vec::new();
        wb.push(0, 0x100, &[1; 8], WriteTarget::Remote(sink()), 22, &mut r);
        let t1 = wb.drain_time().unwrap();
        wb.push(1, 0x108, &[2; 8], WriteTarget::Remote(sink()), 22, &mut r);
        let t2 = wb.drain_time().unwrap();
        assert_eq!(wb.pending(), 1, "merged");
        assert!(t2 > t1, "wider entry takes longer to inject");
    }

    #[test]
    fn merging_can_be_disabled() {
        let mut cfg = MemConfig::t3d();
        cfg.wbuf.merge = false;
        let mut wb = WriteBuffer::new(cfg.wbuf, cfg.l1.line);
        let mut r = Vec::new();
        wb.push(0, 0x100, &[1; 8], WriteTarget::Local, 22, &mut r);
        let out = wb.push(1, 0x108, &[2; 8], WriteTarget::Local, 22, &mut r);
        assert!(!out.merged, "ablated buffer never merges");
        assert_eq!(wb.pending(), 2);
    }

    #[test]
    #[should_panic(expected = "line boundary")]
    fn push_across_line_panics() {
        let mut wb = wbuf();
        wb.push(0, 28, &[0; 8], WriteTarget::Local, 22, &mut Vec::new());
    }

    #[test]
    fn span_masks_cover_exactly_the_span() {
        assert_eq!(span_mask(0, 1), 1);
        assert_eq!(span_mask(3, 2), 0b11000);
        assert_eq!(span_mask(24, 8), 0xFF << 24);
        assert_eq!(span_mask(63, 1), 1 << 63);
        assert_eq!(span_mask(0, 64), u64::MAX);
        assert_eq!(span_mask(32, 32), u64::MAX << 32);
    }

    #[test]
    fn store_ending_exactly_at_the_line_end() {
        let mut wb = wbuf();
        let mut r = Vec::new();
        wb.push(0, 0x118, &[5; 8], WriteTarget::Local, 22, &mut r);
        wb.drain_all(0, &mut r);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].line_pa, 0x100);
        assert_eq!(r[0].mask, 0xFF << 24, "the last eight bytes of the line");
        assert_eq!(r[0].data[24..32], [5; 8]);
        assert_eq!(r[0].data[..24], [0; 24]);
    }

    #[test]
    fn full_line_store_on_a_64_byte_line() {
        let cfg = MemConfig::t3d();
        let mut wb = WriteBuffer::new(cfg.wbuf, 64);
        let mut r = Vec::new();
        let line: Vec<u8> = (1..=64).collect();
        wb.push(0, 0x1C0, &line, WriteTarget::Local, 22, &mut r);
        // A merge of a second full-line store must keep the full mask.
        let out = wb.push(1, 0x1C0, &[9; 64], WriteTarget::Local, 22, &mut r);
        assert!(out.merged);
        wb.drain_all(1, &mut r);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].mask, u64::MAX);
        assert_eq!(r[0].data, [9; 64]);
    }

    #[test]
    fn merge_after_a_partial_retire() {
        // Three lines queued; the first retires on its own, then a store
        // to the still-pending tail line merges into it, and the retired
        // entry is unaffected.
        let mut wb = wbuf();
        let mut r = Vec::new();
        wb.push(0, 0x000, &[1; 8], WriteTarget::Local, 22, &mut r);
        wb.push(1, 0x100, &[2; 8], WriteTarget::Local, 22, &mut r);
        wb.push(2, 0x200, &[3; 8], WriteTarget::Local, 22, &mut r);
        let first = wb.next_due().unwrap();
        wb.drain_due(first, &mut r);
        assert_eq!(r.len(), 1, "only the head has completed");
        assert_eq!(wb.pending(), 2);
        let out = wb.push(first, 0x208, &[4; 8], WriteTarget::Local, 22, &mut r);
        assert!(out.merged, "the tail is still in the buffer");
        wb.drain_all(first, &mut r);
        let got: Vec<(u64, u64)> = r.iter().map(|e| (e.line_pa, e.mask)).collect();
        assert_eq!(got, [(0x000, 0xFF), (0x100, 0xFF), (0x200, 0xFFFF)]);
        assert_eq!(r[2].data[..16], [[3u8; 8], [4u8; 8]].concat()[..]);
        assert_eq!(r[0].data[..8], [1; 8], "retired data kept its bytes");
    }

    /// One model entry: the line as optional bytes, plus its timing.
    struct ModelEntry {
        line_pa: u64,
        bytes: Vec<Option<u8>>,
        target: WriteTarget,
        base: f64,
        completion: f64,
    }

    /// The four-entry buffer written byte by byte, with the timing rules
    /// spelled out plainly.
    struct Model {
        cfg: WbufConfig,
        line: usize,
        entries: VecDeque<ModelEntry>,
        pipe_tail: f64,
        retired: Vec<(u64, u64, Vec<u8>, u64)>,
    }

    impl Model {
        fn retire(&mut self, e: ModelEntry) {
            let mut mask = 0u64;
            let mut data = vec![0u8; self.line];
            for (i, b) in e.bytes.iter().enumerate() {
                if let Some(b) = b {
                    mask |= 1u64 << i;
                    data[i] = *b;
                }
            }
            let done = e.completion.ceil() as u64;
            self.retired.push((e.line_pa, mask, data, done));
        }

        fn words(&self, bytes: &[Option<u8>]) -> u64 {
            let w = bytes.chunks(8).filter(|q| q.iter().any(Option::is_some));
            (w.count() as u64).max(1)
        }

        fn push(&mut self, now: u64, pa: u64, bytes: &[u8], target: WriteTarget) -> (u64, bool) {
            let line_pa = pa / self.line as u64 * self.line as u64;
            let off = (pa - line_pa) as usize;
            let mut cost = self.cfg.store_issue_cy;
            let tnow = now as f64;
            let merge = self.cfg.merge
                && self.entries.back().is_some_and(|t| {
                    t.line_pa == line_pa && t.target == target && t.completion > tnow
                });
            if merge {
                let mut tail = self.entries.pop_back().unwrap();
                for (i, b) in bytes.iter().enumerate() {
                    tail.bytes[off + i] = Some(*b);
                }
                if let WriteTarget::Remote(s) = target {
                    tail.completion = tail.base + s.interval_cy(self.words(&tail.bytes)) as f64;
                    self.pipe_tail = tail.completion;
                }
                self.entries.push_back(tail);
                return (cost, true);
            }
            if self.entries.len() == self.cfg.entries {
                let head = self.entries.pop_front().unwrap();
                if head.completion > tnow {
                    cost += (head.completion - tnow).ceil() as u64;
                }
                self.retire(head);
            }
            let mut line = vec![None; self.line];
            for (i, b) in bytes.iter().enumerate() {
                line[off + i] = Some(*b);
            }
            let interval = match target {
                WriteTarget::Local => 22.0 / self.cfg.pipeline as f64,
                WriteTarget::Remote(s) => s.interval_cy(bytes.len().div_ceil(8) as u64) as f64,
            };
            let base = ((now + cost) as f64).max(self.pipe_tail);
            self.pipe_tail = base + interval;
            self.entries.push_back(ModelEntry {
                line_pa,
                bytes: line,
                target,
                base,
                completion: base + interval,
            });
            (cost, false)
        }

        fn drain_due(&mut self, now: u64) {
            while self
                .entries
                .front()
                .is_some_and(|e| e.completion <= now as f64)
            {
                let e = self.entries.pop_front().unwrap();
                self.retire(e);
            }
        }

        fn drain_all(&mut self, now: u64) -> u64 {
            let wait = self
                .entries
                .back()
                .map_or(0, |e| (e.completion - now as f64).max(0.0).ceil() as u64);
            while let Some(e) = self.entries.pop_front() {
                self.retire(e);
            }
            self.cfg.mb_issue_cy + wait
        }
    }

    #[test]
    fn random_pushes_and_drains_match_a_byte_model() {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for (line, merge) in [(32usize, true), (64, true), (32, false)] {
            let mut cfg = MemConfig::t3d().wbuf;
            cfg.merge = merge;
            let mut wb = WriteBuffer::new(cfg, line);
            let mut model = Model {
                cfg,
                line,
                entries: VecDeque::new(),
                pipe_tail: 0.0,
                retired: Vec::new(),
            };
            let mut got = Vec::new();
            let mut now = 0u64;
            for step in 0..4000 {
                now += next() % 12;
                match next() % 10 {
                    0..=6 => {
                        let off = (next() as usize) % line;
                        let len = 1 + (next() as usize) % (line - off);
                        let pa = (next() % 6) * line as u64 + off as u64;
                        let bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
                        let target = if next() % 3 == 0 {
                            WriteTarget::Remote(sink())
                        } else {
                            WriteTarget::Local
                        };
                        let out = wb.push(now, pa, &bytes, target, 22, &mut got);
                        let (cost, merged) = model.push(now, pa, &bytes, target);
                        assert_eq!((out.cycles, out.merged), (cost, merged), "step {step}");
                        now += out.cycles;
                    }
                    7 | 8 => {
                        wb.drain_due(now, &mut got);
                        model.drain_due(now);
                    }
                    _ => {
                        let cost = wb.drain_all(now, &mut got);
                        assert_eq!(cost, model.drain_all(now), "step {step}");
                        now += cost;
                    }
                }
                assert_eq!(wb.pending(), model.entries.len(), "step {step}");
            }
            wb.drain_all(now, &mut got);
            model.drain_all(now);
            assert_eq!(got.len(), model.retired.len());
            for (k, (r, m)) in got.iter().zip(&model.retired).enumerate() {
                let (line_pa, mask, data, done) = m;
                assert_eq!(
                    (r.line_pa, r.mask, r.completion),
                    (*line_pa, *mask, *done),
                    "retirement {k} (line {line}, merge {merge})"
                );
                for (i, b) in data.iter().enumerate() {
                    if mask >> i & 1 != 0 {
                        assert_eq!(r.data[i], *b, "retirement {k} byte {i}");
                    }
                }
            }
        }
    }
}
