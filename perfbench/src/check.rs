//! Correctness bookkeeping: pinned simulated totals and fingerprints.
//!
//! At a workload's default seed every checked value is pinned in the
//! source; at any other seed the first observation of a value becomes
//! the expectation, so every later pass (and the traced run) must agree
//! with it.

use std::collections::BTreeMap;

/// Expected values by key.
#[derive(Debug, Clone)]
pub struct Pins {
    expected: BTreeMap<String, u64>,
    /// Pinned tables reject keys they do not list; learned ones adopt
    /// the first value seen.
    pinned: bool,
}

impl Pins {
    /// Expectations fixed in advance (a workload's default seed).
    pub fn pinned(table: &[(&str, u64)]) -> Pins {
        Pins {
            expected: table.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
            pinned: true,
        }
    }

    /// Expectations learned from the first observation of each key.
    pub fn learned() -> Pins {
        Pins {
            expected: BTreeMap::new(),
            pinned: false,
        }
    }

    /// Flips the low bit of one pinned value (the self-test).
    ///
    /// # Panics
    ///
    /// Panics if `key` is not pinned.
    pub fn corrupt(&mut self, key: &str) {
        let v = self
            .expected
            .get_mut(key)
            .unwrap_or_else(|| panic!("no pin named {key}"));
        *v ^= 1;
    }

    /// The first pinned key (the one the self-test corrupts).
    pub fn first_key(&self) -> Option<String> {
        self.expected.keys().next().cloned()
    }

    /// Checks `got` against the expectation for `key`.
    pub fn check(&mut self, key: &str, got: u64) -> Result<(), String> {
        match self.expected.get(key) {
            Some(&want) if want == got => Ok(()),
            Some(&want) => Err(format!("{key}: got {got:#x}, pinned {want:#x}")),
            None if self.pinned => Err(format!("{key}: got {got:#x}, no pin")),
            None => {
                self.expected.insert(key.to_string(), got);
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_values_must_match_and_be_listed() {
        let mut p = Pins::pinned(&[("a", 5)]);
        assert!(p.check("a", 5).is_ok());
        assert!(p.check("a", 4).is_err());
        assert!(p.check("b", 1).is_err());
        p.corrupt("a");
        assert!(p.check("a", 5).is_err());
    }

    #[test]
    fn learned_values_must_repeat() {
        let mut p = Pins::learned();
        assert!(p.check("a", 7).is_ok());
        assert!(p.check("a", 7).is_ok());
        assert!(p.check("a", 8).is_err());
    }
}
