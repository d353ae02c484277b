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
// allocation boxed as `[AtomicU64]`, which keeps granule allocation on
// calloc). Everything else stays unsafe-free.
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
pub use wbuf::{RemoteSink, RetireSink, Retired, WriteBuffer, WriteTarget, MAX_LINE};

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

/// `dst.copy_from_slice(src)`, with the 8-byte word — nearly every
/// load and store — moved as one fixed-size copy rather than through a
/// `memcpy` call for a length known only at run time.
///
/// # Panics
///
/// Panics if the lengths differ.
#[inline]
pub(crate) fn copy_bytes(dst: &mut [u8], src: &[u8]) {
    match (
        <&mut [u8; 8]>::try_from(&mut *dst),
        <&[u8; 8]>::try_from(src),
    ) {
        (Ok(d), Ok(s)) => *d = *s,
        _ => dst.copy_from_slice(src),
    }
}

/// `x.ceil() as u64`, computed without a call into libm.
///
/// Baseline x86-64 has no rounding instruction, so `f64::ceil` is a
/// library call; the write buffer rounds a completion time on every
/// store that reaches it. Exact for finite `0 <= x < 2^52`, where the
/// truncation and the conversion back are both exact.
///
/// ```
/// assert_eq!(t3d_memsys::ceil_u64(2.25), 3);
/// assert_eq!(t3d_memsys::ceil_u64(3.0), 3);
/// ```
#[inline]
pub fn ceil_u64(x: f64) -> u64 {
    let t = x as u64;
    t + u64::from((t as f64) < x)
}

/// `x.round() as u64` (halves away from zero), computed without a call
/// into libm; see [`ceil_u64`]. Exact for finite `0 <= x < 2^52`: the
/// fraction `x - trunc(x)` is then representable, so comparing it with
/// one half is exact.
///
/// ```
/// assert_eq!(t3d_memsys::round_u64(2.5), 3);
/// assert_eq!(t3d_memsys::round_u64(2.49), 2);
/// ```
#[inline]
pub fn round_u64(x: f64) -> u64 {
    let t = x as u64;
    t + u64::from(x - t as f64 >= 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Values at and around integers, halves and the top of the domain,
    /// one ulp either side of each.
    fn probes() -> Vec<f64> {
        let mut v = vec![0.0, f64::MIN_POSITIVE];
        let ks = (0..64u64).chain([1 << 20, (1 << 51) - 1, (1 << 52) - 2]);
        for k in ks {
            for base in [k as f64, k as f64 + 0.5, k as f64 + 0.25] {
                v.extend([base.next_down(), base, base.next_up()]);
            }
        }
        v.push((1u64 << 52) as f64 - 0.5);
        v.push(((1u64 << 52) as f64).next_down());
        v.retain(|&x| (0.0..(1u64 << 52) as f64).contains(&x));
        v
    }

    #[test]
    fn ceil_matches_libm_on_the_domain() {
        for x in probes() {
            assert_eq!(ceil_u64(x), x.ceil() as u64, "ceil({x:e})");
        }
    }

    #[test]
    fn round_matches_libm_on_the_domain() {
        for x in probes() {
            assert_eq!(round_u64(x), x.round() as u64, "round({x:e})");
        }
    }
}
