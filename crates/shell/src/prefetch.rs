//! The binding prefetch queue.
//!
//! The Alpha `fetch` instruction is a hint; the T3D shell interprets it
//! as a *binding* prefetch: the addressed remote word is fetched into a
//! 16-entry off-chip FIFO, which the processor pops with loads from a
//! memory-mapped address. Section 5.2 of the paper decomposes the cost:
//! issue 4 cycles, network round trip 80 cycles, pop 23 cycles — so a
//! single prefetch is *slower* than a blocking read, but a group of 16
//! pipelines the network and hides almost all remote latency (31 cycles
//! per element).
//!
//! A subtle hazard the paper documents: the fetch request is placed in
//! the *write buffer*, so until enough traffic pushes it out (we model
//! the paper's threshold of 4) or a memory barrier is issued, the
//! request has not left the processor and popping the queue is invalid.
//! [`PrefetchUnit::pop`] returns [`PopError::NotDeparted`] in that case,
//! which is exactly the bug a compiler writer must avoid.

use crate::config::ShellConfig;
use std::collections::VecDeque;

/// Why a pop could not complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PopError {
    /// The queue has no outstanding prefetches.
    Empty,
    /// The oldest prefetch is still sitting in the write buffer: a
    /// memory barrier (or more traffic) is required before popping.
    NotDeparted,
}

impl std::fmt::Display for PopError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PopError::Empty => write!(f, "prefetch queue is empty"),
            PopError::NotDeparted => {
                write!(
                    f,
                    "prefetch has not left the processor (memory barrier required)"
                )
            }
        }
    }
}

impl std::error::Error for PopError {}

#[derive(Debug, Clone)]
struct Slot {
    /// Value bound by the prefetch (bound at issue in this simulator).
    data: u64,
    /// Remote latency after departure: network round trip + remote DRAM.
    latency_cy: u64,
    /// When the fetch left the processor, if it has.
    departed: Option<u64>,
}

/// The 16-entry binding prefetch FIFO of one node.
///
/// # Example
///
/// ```
/// use t3d_shell::{PrefetchUnit, ShellConfig};
///
/// let cfg = ShellConfig::t3d();
/// let mut pf = PrefetchUnit::new(&cfg);
/// let issue = pf.issue(0, 42, 80).unwrap();
/// assert_eq!(issue, cfg.prefetch_issue_cy);
/// // Fewer than 4 outstanding: must fence before popping.
/// assert!(pf.pop(10).is_err());
/// pf.note_memory_barrier(10);
/// let (value, cost) = pf.pop(10).unwrap();
/// assert_eq!(value, 42);
/// assert!(cost >= cfg.prefetch_pop_cy);
/// ```
#[derive(Debug, Clone)]
pub struct PrefetchUnit {
    slots: VecDeque<Slot>,
    depth: usize,
    depart_threshold: usize,
    issue_cy: u64,
    pop_cy: u64,
}

impl PrefetchUnit {
    /// Creates an empty prefetch unit.
    pub fn new(cfg: &ShellConfig) -> Self {
        PrefetchUnit {
            slots: VecDeque::with_capacity(cfg.prefetch_depth),
            depth: cfg.prefetch_depth,
            depart_threshold: cfg.prefetch_depart_threshold,
            issue_cy: cfg.prefetch_issue_cy,
            pop_cy: cfg.prefetch_pop_cy,
        }
    }

    /// Outstanding prefetches.
    pub fn outstanding(&self) -> usize {
        self.slots.len()
    }

    /// Queue capacity (16 on the T3D).
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Issues a prefetch binding `data`, whose post-departure latency
    /// (network round trip + remote DRAM) is `latency_cy`. Returns the
    /// issue cost, or `None` if the queue is full (the runtime must
    /// drain before issuing more).
    pub fn issue(&mut self, now: u64, data: u64, latency_cy: u64) -> Option<u64> {
        if self.slots.len() == self.depth {
            return None;
        }
        self.slots.push_back(Slot {
            data,
            latency_cy,
            departed: None,
        });
        // Write-buffer pressure pushes pending fetches out once enough
        // accumulate.
        let undeparted = self.slots.iter().filter(|s| s.departed.is_none()).count();
        if undeparted >= self.depart_threshold {
            let t = now + self.issue_cy;
            for s in self.slots.iter_mut().filter(|s| s.departed.is_none()) {
                s.departed = Some(t);
            }
        }
        Some(self.issue_cy)
    }

    /// A memory barrier flushes any fetches still in the write buffer.
    #[inline]
    pub fn note_memory_barrier(&mut self, now: u64) {
        for s in self.slots.iter_mut().filter(|s| s.departed.is_none()) {
            s.departed = Some(now);
        }
    }

    /// Arrival time of the oldest prefetch (departure + remote latency),
    /// without popping it: a [`PrefetchUnit::pop`] at or after this time
    /// costs exactly the off-chip pop.
    ///
    /// # Errors
    ///
    /// The same conditions as [`PrefetchUnit::pop`]: [`PopError::Empty`]
    /// if nothing is outstanding, [`PopError::NotDeparted`] if the
    /// oldest fetch is still in the write buffer.
    pub fn head_arrival(&self) -> Result<u64, PopError> {
        let head = self.slots.front().ok_or(PopError::Empty)?;
        let departed = head.departed.ok_or(PopError::NotDeparted)?;
        Ok(departed + head.latency_cy)
    }

    /// Pops the oldest prefetch: returns its bound value and the cost in
    /// cycles (wait-for-arrival, if any, plus the 23-cycle off-chip pop).
    ///
    /// # Errors
    ///
    /// [`PopError::Empty`] if nothing is outstanding;
    /// [`PopError::NotDeparted`] if the oldest fetch is still in the
    /// write buffer — the hazard Section 5.2 warns about.
    pub fn pop(&mut self, now: u64) -> Result<(u64, u64), PopError> {
        let head = self.slots.front().ok_or(PopError::Empty)?;
        let departed = head.departed.ok_or(PopError::NotDeparted)?;
        let arrival = departed + head.latency_cy;
        let wait = arrival.saturating_sub(now);
        let slot = self.slots.pop_front().expect("head exists");
        Ok((slot.data, wait + self.pop_cy))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> PrefetchUnit {
        PrefetchUnit::new(&ShellConfig::t3d())
    }

    #[test]
    fn pop_empty_errors() {
        let mut pf = unit();
        assert_eq!(pf.pop(0), Err(PopError::Empty));
    }

    #[test]
    fn pop_before_departure_errors() {
        let mut pf = unit();
        pf.issue(0, 1, 80);
        assert_eq!(pf.pop(100), Err(PopError::NotDeparted));
    }

    #[test]
    fn memory_barrier_enables_pop() {
        let mut pf = unit();
        pf.issue(0, 7, 80);
        pf.note_memory_barrier(4);
        let (v, cost) = pf.pop(4).unwrap();
        assert_eq!(v, 7);
        // Wait (80) + pop (23).
        assert_eq!(cost, 80 + 23);
    }

    #[test]
    fn four_outstanding_depart_automatically() {
        let mut pf = unit();
        let mut now = 0;
        for i in 0..4u64 {
            now += pf.issue(now, i, 80).unwrap();
        }
        let (v, _) = pf.pop(now).unwrap();
        assert_eq!(v, 0, "FIFO order");
    }

    #[test]
    fn queue_full_rejects() {
        let mut pf = unit();
        for i in 0..16u64 {
            assert!(pf.issue(0, i, 80).is_some());
        }
        assert!(pf.issue(0, 99, 80).is_none());
        assert_eq!(pf.outstanding(), 16);
    }

    #[test]
    fn pipelined_group_of_16_hides_latency() {
        // The Figure 6 effect: 16 prefetches then 16 pops cost ~31
        // cycles per element, against ~111 for a single prefetch.
        let cfg = ShellConfig::t3d();
        let mut pf = PrefetchUnit::new(&cfg);
        let mut now = 0u64;
        for i in 0..16u64 {
            now += pf.issue(now, i, 80).unwrap();
        }
        for _ in 0..16 {
            let (_, cost) = pf.pop(now).unwrap();
            now += cost;
        }
        let per_elem = now as f64 / 16.0;
        assert!(
            (28.0..36.0).contains(&per_elem),
            "pipelined prefetch cost {per_elem} cy/element"
        );

        // Single prefetch with mandatory barrier: ~111 cycles.
        let mut pf = PrefetchUnit::new(&cfg);
        let mut t = pf.issue(0, 0, 80).unwrap();
        t += 4; // memory barrier issue
        pf.note_memory_barrier(t);
        let (_, cost) = pf.pop(t).unwrap();
        t += cost;
        assert!((100..120).contains(&t), "single prefetch cost {t} cy");
    }

    #[test]
    fn later_fetches_depart_with_later_groups() {
        let mut pf = unit();
        for i in 0..4u64 {
            pf.issue(i, i, 80);
        }
        pf.issue(100, 4, 80); // fifth: undeparted again
        for _ in 0..4 {
            pf.pop(200).unwrap();
        }
        assert_eq!(pf.pop(200), Err(PopError::NotDeparted));
    }
}
