//! Functional + cycle-timing model of the CRAY-T3D local node memory system.
//!
//! This crate models the memory hierarchy that sits underneath the T3D
//! "shell": the DEC Alpha 21064's on-chip direct-mapped, write-through,
//! read-allocate L1 data cache; its four-entry merging write buffer; the
//! Cray-designed page-mode DRAM subsystem with four interleaved banks and
//! *no* second-level cache; and the TLB (huge pages on the T3D). A second
//! configuration models the DEC Alpha *workstation* used as the comparison
//! machine in Figure 1 of the paper (512 KB L2, 8 KB pages).
//!
//! The model is *functional as well as timed*: memory, cache lines and
//! write-buffer entries carry real bytes, so the semantic hazards the paper
//! documents (write-buffer synonym staleness, incoherent cached remote
//! lines) are observable as values, not just as costs.
//!
//! All timing is deterministic virtual time measured in CPU cycles
//! (150 MHz, 6.67 ns on the T3D). The caller owns the clock and passes
//! `now` into each operation; operations return the number of cycles they
//! consumed.
//!
//! # Example
//!
//! ```
//! use t3d_memsys::{MemConfig, MemPort, WriteTarget};
//!
//! let mut port = MemPort::new(MemConfig::t3d());
//! let mut now = 0u64;
//! // A cold read misses the L1 and pays the full DRAM access (~22 cycles).
//! let mut buf = [0u8; 8];
//! let cost = port.read(now, 0x1000, &mut buf);
//! assert!(cost >= port.config().dram.page_hit_cy);
//! now += cost;
//! // The second read of the same line hits in the cache (1 cycle).
//! let cost = port.read(now, 0x1008, &mut buf);
//! assert_eq!(cost, port.config().l1.hit_cy);
//! ```

// `deny` rather than `forbid`: the arena carries the crate's one
// audited `#[allow(unsafe_code)]` block (a zeroed `alloc_zeroed`
// allocation boxed as `[AtomicU64]`, which keeps chunk allocation on
// the calloc fast path). Everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod cache;
pub mod config;
pub mod dram;
pub mod l2;
pub mod port;
pub mod tlb;
pub mod wbuf;

pub use arena::MemArena;
pub use cache::L1Cache;
pub use config::{DramConfig, L2Config, MemConfig, TlbConfig, WbufConfig, CYCLE_NS};
pub use dram::Dram;
pub use l2::L2Cache;
pub use port::{MemPort, PortStats};
pub use tlb::Tlb;
pub use wbuf::{RemoteSink, Retired, WriteBuffer, WriteTarget, MAX_LINE};

/// Converts a cycle count to nanoseconds at the given clock (MHz).
///
/// ```
/// assert!((t3d_memsys::cycles_to_ns(150, 150.0) - 1000.0).abs() < 1e-9);
/// ```
pub fn cycles_to_ns(cycles: u64, clock_mhz: f64) -> f64 {
    cycles as f64 * 1000.0 / clock_mhz
}

/// Converts nanoseconds to (rounded) cycles at the given clock (MHz).
///
/// ```
/// assert_eq!(t3d_memsys::ns_to_cycles(1000.0, 150.0), 150);
/// ```
pub fn ns_to_cycles(ns: f64, clock_mhz: f64) -> u64 {
    (ns * clock_mhz / 1000.0).round() as u64
}
