//! t3d-perf — the observability layer of the T3D reproduction.
//!
//! The paper's whole method is *attribution*: decomposing every observed
//! latency into cache, write-buffer, DRAM-page, shell-launch and
//! network-hop components so the compiler knows where cycles go. The
//! simulator computes all of those costs internally; this crate keeps
//! the breakdown instead of throwing it away.
//!
//! Three pieces, all deterministic:
//!
//! * a **cycle-attribution ledger** ([`Ledger`]): every timing decision
//!   in the memory system, shell and torus credits its cycles to a typed
//!   [`CostClass`], accumulated per PE and per phase. The conservation
//!   invariant — the sum of all buckets equals the elapsed virtual
//!   cycles — is pinned by tests;
//! * a **metrics registry** ([`Registry`]): named counters, gauges and
//!   log₂-bucketed latency histograms ([`Hist`], with p50/p95/p99),
//!   assembled per PE and merged in PE order so sequential and parallel
//!   phase drivers produce bit-identical reports;
//! * **exporters**: a rendered text report ([`PerfReport::render`]),
//!   machine-readable JSON ([`json`]), a `chrome://tracing` timeline
//!   ([`chrome`]) and the `BENCH_*.json` perf-trajectory documents with
//!   a tolerance-based regression comparator ([`mod@bench`]).
//!
//! Attribution is pure observation: crediting a ledger never changes a
//! clock, so `T3D_PERF=0` runs are bit-identical to an uninstrumented
//! build, and `T3D_PERF>=1` runs report bit-identically under both
//! `T3D_PAR` drivers (each PE's ledger lives in node-owned state that
//! the sharded phase engine already keeps thread-private).
//!
//! Host time is the one thing here that is not deterministic. Host-time
//! gates scale it by a fixed loop timed just before and after
//! ([`mod@reference`]), so a co-tenant slowing the core does not read as a
//! regression.
//!
//! This crate is a leaf: it depends on nothing, so every layer of the
//! simulator (memsys, machine, splitc, em3d) can feed it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod chrome;
pub mod hist;
pub mod json;
pub mod ledger;
pub mod reference;
pub mod registry;
pub mod report;
pub mod throughput;

pub use bench::{compare, BenchDoc, BenchEntry};
pub use chrome::{chrome_trace, Span};
pub use hist::Hist;
pub use ledger::{CostClass, Ledger, OpHists, OpKind, PerfAccum, COST_CLASSES, OP_KINDS};
pub use reference::Reference;
pub use registry::Registry;
pub use report::{PePerf, PerfReport, PhaseLog, PhaseRecord};
pub use throughput::{
    measure, measure_split, RunSample, SplitSample, Stat, Throughput, ThroughputSpec,
};

/// How much observability a run collects. Mirrors the `T3D_SAN`
/// precedent: an environment knob (`T3D_PERF`) fills in the default,
/// explicit configuration wins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PerfMode {
    /// No collection (zero overhead beyond one branch per credit site).
    #[default]
    Off,
    /// Cycle-attribution ledgers, counters and histograms.
    Counters,
    /// Counters plus the event timeline (the machine's tracer is
    /// enabled so a Chrome trace can be exported).
    Timeline,
}

impl PerfMode {
    /// Parses the `T3D_PERF` environment variable: `0`/`off` → [`Off`],
    /// `1`/`counters` → [`Counters`], `2`/`timeline` → [`Timeline`].
    /// Returns `None` when unset or unrecognized.
    ///
    /// [`Off`]: PerfMode::Off
    /// [`Counters`]: PerfMode::Counters
    /// [`Timeline`]: PerfMode::Timeline
    pub fn from_env() -> Option<PerfMode> {
        match std::env::var("T3D_PERF")
            .ok()?
            .to_ascii_lowercase()
            .as_str()
        {
            "0" | "off" => Some(PerfMode::Off),
            "1" | "counters" => Some(PerfMode::Counters),
            "2" | "timeline" => Some(PerfMode::Timeline),
            _ => None,
        }
    }

    /// The mode in force: a deliberate configuration keeps its choice,
    /// the `T3D_PERF` environment variable fills in the default
    /// ([`PerfMode::Off`]) so profiling can be switched on suite-wide.
    pub fn effective(configured: PerfMode) -> PerfMode {
        match configured {
            PerfMode::Off => Self::from_env().unwrap_or(PerfMode::Off),
            set => set,
        }
    }

    /// Whether ledgers, counters and histograms are collected.
    pub fn counters(self) -> bool {
        self != PerfMode::Off
    }

    /// Whether the event timeline is collected too.
    pub fn timeline(self) -> bool {
        self == PerfMode::Timeline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_mode_wins_over_default() {
        assert_eq!(PerfMode::effective(PerfMode::Counters), PerfMode::Counters);
        assert_eq!(PerfMode::effective(PerfMode::Timeline), PerfMode::Timeline);
    }

    #[test]
    fn mode_predicates() {
        assert!(!PerfMode::Off.counters());
        assert!(PerfMode::Counters.counters());
        assert!(!PerfMode::Counters.timeline());
        assert!(PerfMode::Timeline.counters());
        assert!(PerfMode::Timeline.timeline());
    }
}
