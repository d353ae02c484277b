//! A host-speed reference: a fixed loop that shares no code with the
//! simulator.
//!
//! On a shared host the core's speed drifts by ±20% within seconds, as
//! co-tenants come and go. The drift is common to everything running on
//! the core at that moment. So a timer takes a reference sample right
//! before and right after a timed call, and scales the call's host time
//! by [`NOMINAL_S`] over the mean of the two samples. That reports it in
//! seconds at the reference speed.
//!
//! `perfbench/src/reference.rs` holds the same loop; the benchmark
//! keeps its own copy until it switches to this one.

use std::hint::black_box;
use std::time::Instant;

/// Entries in the reference table (2 MB: a working set the size of a
/// simulated machine's hot state, larger than L2).
const TABLE: usize = 1 << 18;
/// Read-modify-write steps per sample.
const STEPS: usize = 200_000;
/// One sample's typical duration on a 2.1 GHz Xeon KVM guest core. It
/// only sets the scale: normalised seconds equal host seconds when the
/// host runs at that speed.
pub const NOMINAL_S: f64 = 0.8e-3;

/// The reference loop and its table.
pub struct Reference {
    table: Vec<u64>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference::new()
    }
}

impl Reference {
    /// A reference with a fresh table.
    pub fn new() -> Reference {
        Reference {
            table: (0..TABLE as u64).collect(),
        }
    }

    /// Times one sample. The table is swept first, so the sample times
    /// the core, not whatever the preceding call left in the caches.
    pub fn sample(&mut self) -> f64 {
        black_box(self.table.iter().fold(0u64, |a, &x| a ^ x));
        let t = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & (TABLE - 1);
            self.table[i] = self.table[i].wrapping_mul(31).wrapping_add(x);
        }
        black_box(&self.table);
        t.elapsed().as_secs_f64()
    }

    /// Runs `f` between two reference samples and returns its result
    /// with its host time in seconds at the reference speed.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let before = self.sample();
        let t = Instant::now();
        let out = f();
        let secs = t.elapsed().as_secs_f64();
        let after = self.sample();
        (out, normalise(secs, before, after))
    }
}

/// `secs` of host time taken between reference samples of `before` and
/// `after` seconds, converted to seconds at the reference speed.
pub fn normalise(secs: f64, before: f64, after: f64) -> f64 {
    secs * NOMINAL_S / ((before + after) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalised_time_is_host_time_at_the_nominal_speed() {
        assert_eq!(normalise(2.0, NOMINAL_S, NOMINAL_S), 2.0);
        // A core running at half speed halves the normalised time.
        assert_eq!(normalise(2.0, 2.0 * NOMINAL_S, 2.0 * NOMINAL_S), 1.0);
    }

    #[test]
    fn timing_returns_the_result_and_a_positive_time() {
        let mut r = Reference::new();
        let (v, secs) = r.time(|| 6 * 7);
        assert_eq!(v, 42);
        assert!(secs >= 0.0 && secs.is_finite());
    }
}
