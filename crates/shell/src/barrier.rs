//! The global-OR "fuzzy" hardware barrier.
//!
//! The T3D provides dedicated global-AND/OR wires. The barrier is *fuzzy*
//! (Section 7.5): a `start-barrier` instruction announces arrival, the
//! processor may keep doing useful work, and an `end-barrier` completes
//! the synchronization and resets the global-OR bit for reuse. The paper
//! emphasizes that this composes well with remote memory access — unlike
//! the native barriers of other platforms of the era.
//!
//! [`BarrierUnit`] tracks one barrier episode across `n` participants in
//! virtual time; the machine layer owns one per machine.

use crate::config::ShellConfig;

/// One global barrier wire shared by all nodes.
///
/// # Example
///
/// ```
/// use t3d_shell::{BarrierUnit, ShellConfig};
///
/// let mut b = BarrierUnit::new(&ShellConfig::t3d(), 2);
/// b.start(0, 100);
/// b.start(1, 250);
/// // Both arrived by 250; the wire settles 50 cycles later.
/// assert_eq!(b.completion_time().unwrap(), 300);
/// ```
#[derive(Debug, Clone)]
pub struct BarrierUnit {
    arrivals: Vec<Option<u64>>,
    barrier_cy: u64,
    episodes: u64,
}

impl BarrierUnit {
    /// Creates a barrier for `nodes` participants.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(cfg: &ShellConfig, nodes: usize) -> Self {
        assert!(nodes > 0, "barrier needs at least one participant");
        BarrierUnit {
            arrivals: vec![None; nodes],
            barrier_cy: cfg.barrier_cy,
            episodes: 0,
        }
    }

    /// Node `pe` executes start-barrier at time `now`.
    ///
    /// # Panics
    ///
    /// Panics if `pe` is out of range or already arrived this episode.
    pub fn start(&mut self, pe: usize, now: u64) {
        assert!(pe < self.arrivals.len(), "PE {pe} out of range");
        assert!(
            self.arrivals[pe].is_none(),
            "PE {pe} already executed start-barrier this episode"
        );
        self.arrivals[pe] = Some(now);
    }

    /// Whether every participant has arrived.
    pub fn all_arrived(&self) -> bool {
        self.arrivals.iter().all(Option::is_some)
    }

    /// Virtual time at which the barrier wire settles: the last arrival
    /// plus the wire latency. `None` until everyone has arrived.
    pub fn completion_time(&self) -> Option<u64> {
        if !self.all_arrived() {
            return None;
        }
        let last = self
            .arrivals
            .iter()
            .map(|a| a.expect("all arrived"))
            .max()?;
        Some(last + self.barrier_cy)
    }

    /// Resets the episode (the end-barrier of the last participant).
    ///
    /// # Panics
    ///
    /// Panics if not all participants arrived.
    pub fn reset(&mut self) {
        assert!(self.all_arrived(), "cannot reset an incomplete barrier");
        for a in &mut self.arrivals {
            *a = None;
        }
        self.episodes += 1;
    }

    /// Completed barrier episodes.
    pub fn episodes(&self) -> u64 {
        self.episodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(n: usize) -> BarrierUnit {
        BarrierUnit::new(&ShellConfig::t3d(), n)
    }

    #[test]
    fn completion_is_last_arrival_plus_wire() {
        let mut b = unit(4);
        for (pe, t) in [(0, 10), (1, 500), (2, 20), (3, 30)] {
            b.start(pe, t);
        }
        assert_eq!(b.completion_time(), Some(550));
    }

    #[test]
    fn incomplete_barrier_has_no_completion() {
        let mut b = unit(2);
        b.start(0, 10);
        assert_eq!(b.completion_time(), None);
        assert!(!b.all_arrived());
    }

    #[test]
    fn reset_enables_reuse() {
        let mut b = unit(2);
        b.start(0, 1);
        b.start(1, 2);
        b.reset();
        assert_eq!(b.episodes(), 1);
        b.start(0, 100);
        b.start(1, 200);
        assert_eq!(b.completion_time(), Some(250));
    }

    #[test]
    #[should_panic(expected = "already executed start-barrier")]
    fn double_start_panics() {
        let mut b = unit(2);
        b.start(0, 1);
        b.start(0, 2);
    }

    #[test]
    #[should_panic(expected = "incomplete barrier")]
    fn premature_reset_panics() {
        let mut b = unit(2);
        b.start(0, 1);
        b.reset();
    }
}
