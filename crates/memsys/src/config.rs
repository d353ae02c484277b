//! Configuration of the simulated memory hierarchy.
//!
//! Two stock configurations are provided, matching the two machines the
//! paper profiles in Section 2:
//!
//! * [`MemConfig::t3d`] — the CRAY-T3D node: 8 KB direct-mapped L1,
//!   no L2, fast page-mode DRAM (145 ns), huge pages (no TLB cost in
//!   practice).
//! * [`MemConfig::dec_workstation`] — the DEC Alpha workstation used as
//!   the comparison machine in Figure 1: same 21064 core and L1, plus a
//!   512 KB L2 and a conventional 8 KB-page TLB, but slower main memory
//!   (300 ns).
//!
//! The *primitive* numbers here are the bottom-most measurements reported
//! by the paper; everything else the paper reports is emergent from the
//! mechanisms in this crate.

/// Nanoseconds per cycle on the 150 MHz Alpha 21064 used by the T3D.
pub const CYCLE_NS: f64 = 1000.0 / 150.0;

/// Geometry and hit cost of the on-chip L1 data cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L1Config {
    /// Total capacity in bytes (8 KB on the 21064).
    pub bytes: usize,
    /// Line size in bytes (32 B on the 21064).
    pub line: usize,
    /// Average cost of a load hit, in cycles.
    pub hit_cy: u64,
}

/// Timing of the page-mode DRAM subsystem behind the caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Bytes covered by one DRAM page (and one bank-interleave chunk).
    ///
    /// The paper infers 16 KB: "strides of 16 KB or greater result in
    /// off-page DRAM accesses with each subsequent load".
    pub page_bytes: u64,
    /// Number of interleaved banks (4 on the T3D node; at most
    /// [`MAX_BANKS`](crate::dram::MAX_BANKS)).
    pub banks: u64,
    /// Cost in cycles of an access that hits the open page (22 cy /
    /// 145 ns on the T3D).
    pub page_hit_cy: u64,
    /// Cost of an access that misses the open page but lands on a
    /// different bank than the previous access (31 cy / 205 ns).
    pub page_miss_cy: u64,
    /// Cost of an access that misses the open page on the *same* bank as
    /// the previous access, exposing the full memory-cycle time
    /// (40 cy / 264 ns).
    pub bank_busy_cy: u64,
}

/// TLB geometry and miss cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Number of data-TLB entries (32 on the 21064).
    pub entries: usize,
    /// Page size in bytes. The T3D uses huge pages (we model 4 MB, which
    /// makes TLB misses unobservable, as the paper found); the DEC
    /// workstation uses 8 KB pages.
    pub page_bytes: u64,
    /// Cost of a TLB miss, in cycles.
    pub miss_cy: u64,
}

/// Optional board-level L2 cache (present only on the DEC workstation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Config {
    /// Total capacity in bytes (512 KB on the workstation).
    pub bytes: usize,
    /// Line size in bytes.
    pub line: usize,
    /// Cost of an L2 hit, in cycles.
    pub hit_cy: u64,
}

/// Write buffer geometry and costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WbufConfig {
    /// Number of entries (4 on the 21064, each one cache line wide).
    pub entries: usize,
    /// Cycles to issue a store that finds buffer space (or merges).
    pub store_issue_cy: u64,
    /// Depth of the memory pipeline draining the buffer: in steady state
    /// one local entry retires every `dram_cost / pipeline` cycles. The
    /// paper derives the value 4 from the 145 ns / 35 ns ratio.
    pub pipeline: u64,
    /// Issue cost of a memory-barrier instruction (4 cy, from the
    /// prefetch cost breakdown in Section 5.2).
    pub mb_issue_cy: u64,
    /// Whether stores to the same line merge into one entry (true on
    /// the real 21064; disable for the merging ablation).
    pub merge: bool,
}

/// Complete configuration of a node's local memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemConfig {
    /// Clock rate in MHz (150 on both machines modeled).
    pub clock_mhz: u64,
    /// L1 data cache.
    pub l1: L1Config,
    /// Optional second-level cache.
    pub l2: Option<L2Config>,
    /// Write buffer.
    pub wbuf: WbufConfig,
    /// DRAM subsystem.
    pub dram: DramConfig,
    /// TLB.
    pub tlb: TlbConfig,
    /// Size of the node's local memory in bytes.
    pub mem_bytes: usize,
    /// Number of low physical-address bits that form the local memory
    /// offset; bits above them carry the DTB-Annex index (27 on the T3D,
    /// giving the 128 MB per-segment regions described in Section 3.2).
    pub offset_bits: u32,
}

impl MemConfig {
    /// The CRAY-T3D node configuration (Section 2 of the paper).
    pub fn t3d() -> Self {
        MemConfig {
            clock_mhz: 150,
            l1: L1Config {
                bytes: 8 * 1024,
                line: 32,
                hit_cy: 1,
            },
            l2: None,
            wbuf: WbufConfig {
                entries: 4,
                store_issue_cy: 3,
                pipeline: 4,
                mb_issue_cy: 4,
                merge: true,
            },
            dram: DramConfig {
                page_bytes: 16 * 1024,
                banks: 4,
                page_hit_cy: 22,
                page_miss_cy: 31,
                bank_busy_cy: 40,
            },
            tlb: TlbConfig {
                entries: 32,
                page_bytes: 4 * 1024 * 1024,
                miss_cy: 25,
            },
            mem_bytes: 16 * 1024 * 1024,
            offset_bits: 27,
        }
    }

    /// The DEC Alpha workstation configuration used as the Figure 1
    /// comparison machine: same 21064 core, plus a 512 KB L2, 8 KB pages
    /// and 300 ns (45 cycle) main memory.
    pub fn dec_workstation() -> Self {
        MemConfig {
            clock_mhz: 150,
            l1: L1Config {
                bytes: 8 * 1024,
                line: 32,
                hit_cy: 1,
            },
            l2: Some(L2Config {
                bytes: 512 * 1024,
                line: 32,
                hit_cy: 10,
            }),
            wbuf: WbufConfig {
                entries: 4,
                store_issue_cy: 3,
                pipeline: 4,
                mb_issue_cy: 4,
                merge: true,
            },
            dram: DramConfig {
                page_bytes: 16 * 1024,
                banks: 4,
                page_hit_cy: 45,
                page_miss_cy: 54,
                bank_busy_cy: 63,
            },
            tlb: TlbConfig {
                entries: 32,
                page_bytes: 8 * 1024,
                miss_cy: 25,
            },
            mem_bytes: 16 * 1024 * 1024,
            offset_bits: 32,
        }
    }

    /// Nanoseconds per cycle for this configuration.
    pub fn cycle_ns(&self) -> f64 {
        1000.0 / self.clock_mhz as f64
    }
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig::t3d()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t3d_matches_published_geometry() {
        let c = MemConfig::t3d();
        assert_eq!(c.l1.bytes, 8192);
        assert_eq!(c.l1.line, 32);
        assert!(c.l2.is_none());
        assert_eq!(c.wbuf.entries, 4);
        assert_eq!(c.dram.page_hit_cy, 22); // 145 ns
        assert_eq!(c.dram.bank_busy_cy, 40); // 264 ns worst case
    }

    #[test]
    fn workstation_has_l2_and_small_pages() {
        let c = MemConfig::dec_workstation();
        assert_eq!(c.l2.unwrap().bytes, 512 * 1024);
        assert_eq!(c.tlb.page_bytes, 8 * 1024);
        assert_eq!(c.dram.page_hit_cy, 45); // 300 ns
    }

    #[test]
    fn cycle_ns_is_6_67_at_150mhz() {
        let c = MemConfig::t3d();
        assert!((c.cycle_ns() - 6.6667).abs() < 1e-3);
    }
}
