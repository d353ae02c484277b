//! A host-speed reference: a fixed loop that shares no code with the
//! simulator.
//!
//! On a shared host the core's speed drifts by ±20% within seconds, as
//! co-tenants come and go. The drift is common to everything running on
//! the core at that moment. So the benchmark takes a reference sample
//! right before and right after every timed call and set-up sample, and
//! scales the call's host time by [`NOMINAL_S`] over the mean of the
//! two samples. That reports it in seconds at the reference speed.

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
}

/// `secs` of host time taken between reference samples of `before` and
/// `after` seconds, converted to seconds at the reference speed.
pub fn normalise(secs: f64, before: f64, after: f64) -> f64 {
    secs * NOMINAL_S / ((before + after) / 2.0)
}
