//! t3dsan — a happens-before hazard analyzer for the simulated T3D.
//!
//! The paper's central correctness lesson (§3.4, §4) is that the T3D
//! shell shifts synchronization onto the *compiler*: a get whose
//! `sync()` never ran, a signaling store read before `storeSync`, or
//! two annex registers naming the same PE all silently return stale
//! data. The machine reproduces those hazards; this crate *detects*
//! them.
//!
//! Two front ends feed one diagnostic vocabulary ([`DiagKind`]):
//!
//! * The **split-phase analyzer** ([`Sanitizer`]) consumes source-tagged
//!   events ([`SanEvent`]) that the `splitc` runtime derives from its
//!   per-node event log.
//!   It maintains one vector clock per PE, advanced on every operation
//!   and joined across the sync edges the paper names — get `sync()`,
//!   `storeSync`/`allStoreSync`, barriers, AM deposit→dispatch pairs and
//!   lock transfer — plus shadow write records per address range. Reads
//!   are checked against un-synced or vector-clock-concurrent writes.
//! * The **trace scanner** ([`trace_scan::scan_trace`]) runs the same
//!   checks straight over the machine's op log
//!   (`t3d_machine::oplog`), with each access's exact byte span —
//!   useful for raw shell programs that never go through the runtime.
//!
//! Enable it through `SplitcConfig::sanitize` or the `T3D_SAN`
//! environment variable (`1`/`collect` to collect, `2`/`panic` to abort
//! on the first finding; any other non-empty value panics). The runtime
//! merges the per-PE events by `(time, pe, seq)` — the same discipline
//! the sharded phase engine uses for its effect log — so sequential and
//! parallel phase drivers produce bit-identical reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analyzer;
mod clock;
mod event;
mod report;
pub mod trace_scan;

pub use analyzer::Sanitizer;
pub use clock::VectorClock;
pub use event::{SanEvent, SanOp, WriteKind, NO_REG};
pub use report::{DiagKind, Diagnostic, Report};

/// How the sanitizer behaves when wired into a runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SanitizeMode {
    /// No instrumentation, no analysis (zero overhead).
    #[default]
    Off,
    /// Analyze and collect diagnostics; never interrupt the program.
    Collect,
    /// Analyze and panic on the first diagnostic (after the machine has
    /// been left in a defined state).
    Panic,
}

impl SanitizeMode {
    /// Parses the `T3D_SAN` environment variable (any case, surrounding
    /// whitespace ignored): `0`/`off` → [`Off`], `1`/`collect` →
    /// [`Collect`], `2`/`panic` → [`Panic`]. Returns `None` when unset or
    /// empty.
    ///
    /// # Panics
    ///
    /// On any other value, naming the variable, the value and the
    /// accepted values: a mistyped knob must not silently leave the
    /// sanitizer off.
    ///
    /// [`Off`]: SanitizeMode::Off
    /// [`Collect`]: SanitizeMode::Collect
    /// [`Panic`]: SanitizeMode::Panic
    pub fn from_env() -> Option<SanitizeMode> {
        let value = std::env::var_os("T3D_SAN").map(|v| v.to_string_lossy().into_owned());
        Self::from_knob(value.as_deref())
    }

    /// [`SanitizeMode::from_env`] on an explicit value (`None` = unset).
    fn from_knob(value: Option<&str>) -> Option<SanitizeMode> {
        let raw = value.unwrap_or("");
        match raw.trim().to_ascii_lowercase().as_str() {
            "" => None,
            "0" | "off" => Some(SanitizeMode::Off),
            "1" | "collect" => Some(SanitizeMode::Collect),
            "2" | "panic" => Some(SanitizeMode::Panic),
            _ => panic!(
                "T3D_SAN={raw:?} is not recognised; expected unset, empty, \
                 0/off, 1/collect or 2/panic"
            ),
        }
    }

    /// The mode in force. A program that picked a mode explicitly keeps
    /// it; the `T3D_SAN` environment variable fills in the default
    /// ([`SanitizeMode::Off`]), so an env knob can switch on the
    /// sanitizer suite-wide without silently demoting a deliberate
    /// `Panic` (or promoting a hazard-replay `Collect`) configuration.
    pub fn effective(configured: SanitizeMode) -> SanitizeMode {
        match configured {
            SanitizeMode::Off => SanitizeMode::from_env().unwrap_or(SanitizeMode::Off),
            explicit => explicit,
        }
    }

    /// Whether events should be recorded at all.
    pub fn is_on(self) -> bool {
        self != SanitizeMode::Off
    }
}

#[cfg(test)]
mod tests {
    use super::SanitizeMode::{self, Collect, Off, Panic};

    #[test]
    fn mode_knob_accepts_every_documented_value() {
        assert_eq!(SanitizeMode::from_knob(None), None);
        assert_eq!(SanitizeMode::from_knob(Some("")), None);
        for (values, mode) in [
            (["0", "off", "OFF"], Off),
            (["1", "collect", "Collect"], Collect),
            (["2", "panic", " PANIC "], Panic),
        ] {
            for v in values {
                assert_eq!(SanitizeMode::from_knob(Some(v)), Some(mode), "{v:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "T3D_SAN=\"yes\" is not recognised; expected unset, empty, 0/off")]
    fn mode_knob_rejects_garbage() {
        SanitizeMode::from_knob(Some("yes"));
    }
}
