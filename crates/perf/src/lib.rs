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
//! clock, so runs in [`PerfMode::Off`] (the default) are bit-identical
//! to an uninstrumented build, and [`PerfMode::Counters`] runs report
//! bit-identically under both `T3D_PAR` drivers (each PE's ledger lives
//! in node-owned state that the sharded phase engine already keeps
//! thread-private).
//!
//! The crate also holds [`cli`], the strict command-line parser every
//! workspace binary shares.
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
pub mod cli;
pub mod fnv;
pub mod hist;
pub mod json;
pub mod ledger;
pub mod reference;
pub mod registry;
pub mod report;
pub mod throughput;

pub use bench::{compare, BenchDoc, BenchEntry};
pub use chrome::{chrome_trace, Span};
pub use fnv::{fnv1a, fnv1a_word, FNV_OFFSET, FNV_PRIME};
pub use hist::Hist;
pub use ledger::{CostClass, Ledger, OpHists, OpKind, PerfAccum, COST_CLASSES, OP_KINDS};
pub use reference::Reference;
pub use registry::Registry;
pub use report::{PePerf, PerfReport, PhaseLog, PhaseRecord};
pub use throughput::{
    measure, measure_split, RunSample, SplitSample, Stat, Throughput, ThroughputSpec,
};

/// How much observability a run collects. A machine starts in
/// [`PerfMode::Off`]; code that wants counters asks for them
/// explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PerfMode {
    /// No collection (zero overhead beyond one branch per credit site).
    #[default]
    Off,
    /// Cycle-attribution ledgers, counters and histograms.
    Counters,
}

impl PerfMode {
    /// Whether ledgers, counters and histograms are collected.
    pub fn counters(self) -> bool {
        self != PerfMode::Off
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_predicates() {
        assert!(!PerfMode::Off.counters());
        assert!(PerfMode::Counters.counters());
    }
}
