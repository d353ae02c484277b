//! Figures 1 and 2: local read and write latency profiles.
//!
//! The Saavedra-style sawtooth probe: step through an array of a given
//! size at a given stride and report the average latency per access.
//! Inflection points in the resulting surface reveal the cache size,
//! line size, DRAM page behaviour, bank count, TLB (on the workstation)
//! and write-buffer depth — all *inferred*, exactly as the paper infers
//! them from the real machine.

use crate::probes::{all_strides, strides_for};
use crate::report::StrideProfile;
use t3d_machine::{Cpu, Machine, MachineConfig};

/// Which memory operation the probe performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// 8-byte loads.
    Read,
    /// 8-byte stores.
    Write,
}

/// Runs the sawtooth probe for one (size, stride) cell and returns the
/// average latency in cycles.
fn probe_cell(m: &mut Machine, op: Op, size: u64, stride: u64) -> f64 {
    m.reset_timing();
    let mut cpu = Cpu::new(m, 0);
    // Two passes: the first warms caches/TLB, the second is measured —
    // the probe's analogue of the paper's repetition loop with overhead
    // subtracted.
    for pass in 0..2 {
        let t0 = cpu.clock();
        let mut accesses = 0u64;
        let mut a = 0u64;
        while a < size {
            match op {
                Op::Read => {
                    let _ = cpu.ld8(a);
                }
                Op::Write => cpu.st8(a, a),
            }
            accesses += 1;
            a += stride;
        }
        if pass == 1 {
            return (cpu.clock() - t0) as f64 / accesses as f64;
        }
    }
    unreachable!("second pass returns");
}

/// The Figure 1 / Figure 2 surface for a machine configuration.
///
/// `cap_stride` bounds the largest stride probed (use `u64::MAX` for the
/// full paper sweep).
pub fn profile(cfg: MachineConfig, op: Op, sizes: &[u64], cap_stride: u64) -> StrideProfile {
    let mut m = Machine::new(cfg);
    let cycle_ns = m.cycle_ns();
    let strides = all_strides(sizes, cap_stride);
    let mut avg_ns = Vec::new();
    for &size in sizes {
        let valid = strides_for(size, cap_stride);
        let row = strides
            .iter()
            .map(|&st| {
                valid
                    .contains(&st)
                    .then(|| probe_cell(&mut m, op, size, st) * cycle_ns)
            })
            .collect();
        avg_ns.push(row);
    }
    StrideProfile {
        label: format!(
            "{} local {}",
            if cfg.mem.l2.is_some() {
                "DEC workstation"
            } else {
                "T3D"
            },
            if op == Op::Read { "read" } else { "write" },
        ),
        sizes: sizes.to_vec(),
        strides,
        avg_ns,
    }
}

/// Figure 1, left: the T3D local read profile.
pub fn read_profile(sizes: &[u64], cap_stride: u64) -> StrideProfile {
    profile(MachineConfig::t3d(1), Op::Read, sizes, cap_stride)
}

/// Figure 1, right: the DEC workstation read profile.
pub fn workstation_read_profile(sizes: &[u64], cap_stride: u64) -> StrideProfile {
    profile(
        MachineConfig::dec_workstation(),
        Op::Read,
        sizes,
        cap_stride,
    )
}

/// Figure 2: the T3D local write profile.
pub fn write_profile(sizes: &[u64], cap_stride: u64) -> StrideProfile {
    profile(MachineConfig::t3d(1), Op::Write, sizes, cap_stride)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_sizes() -> Vec<u64> {
        vec![4 * 1024, 8 * 1024, 16 * 1024, 64 * 1024, 256 * 1024]
    }

    #[test]
    fn cached_plateau_is_one_cycle() {
        let p = read_profile(&small_sizes(), 1 << 20);
        for stride in [8, 16, 32, 64] {
            let ns = p.at(4 * 1024, stride).unwrap();
            assert!(
                (6.0..8.0).contains(&ns),
                "4 KB array at stride {stride}: {ns} ns (expect ~6.67)"
            );
        }
        let ns = p.at(8 * 1024, 8).unwrap();
        assert!((6.0..8.0).contains(&ns), "8 KB array still fits: {ns} ns");
    }

    #[test]
    fn memory_plateau_is_145ns() {
        let p = read_profile(&small_sizes(), 1 << 20);
        let ns = p.at(64 * 1024, 32).unwrap();
        assert!(
            (140.0..160.0).contains(&ns),
            "line-stride miss: {ns} ns (expect ~145)"
        );
    }

    #[test]
    fn off_page_plateau_is_205ns_and_same_bank_is_264ns() {
        let p = read_profile(&[256 * 1024], 1 << 20);
        let off_page = p.at(256 * 1024, 16 * 1024).unwrap();
        assert!(
            (195.0..225.0).contains(&off_page),
            "16 KB stride: {off_page} ns (expect ~205)"
        );
        let same_bank = p.at(256 * 1024, 64 * 1024).unwrap();
        assert!(
            (250.0..285.0).contains(&same_bank),
            "64 KB stride: {same_bank} ns (expect ~264)"
        );
        assert!(same_bank > off_page, "the 64 KB stride is the worst case");
    }

    #[test]
    fn intermediate_strides_interpolate() {
        // At stride 8 with a big array: one miss per 4 accesses.
        let p = read_profile(&[64 * 1024], 1 << 20);
        let ns8 = p.at(64 * 1024, 8).unwrap();
        let ns32 = p.at(64 * 1024, 32).unwrap();
        assert!(ns8 < ns32 / 2.0, "stride 8 amortizes the line fill");
    }

    #[test]
    fn workstation_shows_l2_and_slower_memory() {
        let ws = workstation_read_profile(&[64 * 1024, 2 * 1024 * 1024], 1 << 21);
        let t3d = read_profile(&[64 * 1024, 2 * 1024 * 1024], 1 << 21);
        // 64 KB fits the workstation L2 but not the T3D's absent one.
        let ws_l2 = ws.at(64 * 1024, 32).unwrap();
        let t3d_mem = t3d.at(64 * 1024, 32).unwrap();
        assert!(
            ws_l2 < t3d_mem,
            "L2 hit {ws_l2} ns beats T3D memory {t3d_mem} ns"
        );
        // 2 MB busts the L2: the workstation's memory is ~2x slower.
        let ws_mem = ws.at(2 * 1024 * 1024, 32).unwrap();
        assert!(
            ws_mem > 280.0,
            "workstation main memory {ws_mem} ns (expect ~300)"
        );
        assert!(ws_mem > t3d.at(2 * 1024 * 1024, 32).unwrap() * 1.7);
    }

    #[test]
    fn workstation_tlb_inflection_at_8k_stride() {
        // 2 MB array, strides 4K vs 8K: at 8 KB every access is a fresh
        // page and the 32-entry TLB thrashes.
        let ws = workstation_read_profile(&[2 * 1024 * 1024], 1 << 21);
        let s4k = ws.at(2 * 1024 * 1024, 4 * 1024).unwrap();
        let s8k = ws.at(2 * 1024 * 1024, 8 * 1024).unwrap();
        assert!(
            s8k > s4k + 50.0,
            "TLB inflection: 4K stride {s4k} ns vs 8K stride {s8k} ns"
        );
    }

    #[test]
    fn t3d_has_no_tlb_inflection() {
        let p = read_profile(&[2 * 1024 * 1024], 1 << 21);
        let s4k = p.at(2 * 1024 * 1024, 4 * 1024).unwrap();
        let s8k = p.at(2 * 1024 * 1024, 8 * 1024).unwrap();
        assert!(
            (s8k - s4k).abs() < 30.0,
            "huge pages: 4K {s4k} ns vs 8K {s8k} ns should be close"
        );
    }

    #[test]
    fn write_small_stride_is_20ns_and_line_stride_is_35ns() {
        let p = write_profile(&[64 * 1024], 1 << 20);
        let small = p.at(64 * 1024, 8).unwrap();
        assert!(
            (15.0..28.0).contains(&small),
            "merged writes: {small} ns (expect ~20)"
        );
        let line = p.at(64 * 1024, 32).unwrap();
        assert!(
            (30.0..45.0).contains(&line),
            "line-stride writes: {line} ns (expect ~35)"
        );
    }

    #[test]
    fn write_off_page_inflection_at_16k_stride() {
        let p = write_profile(&[256 * 1024], 1 << 20);
        let line = p.at(256 * 1024, 32).unwrap();
        let off = p.at(256 * 1024, 16 * 1024).unwrap();
        assert!(
            off > line + 5.0,
            "off-page writes slower: {line} -> {off} ns"
        );
    }

    #[test]
    fn writes_are_much_cheaper_than_reads_when_missing() {
        let w = write_profile(&[64 * 1024], 1 << 20);
        let r = read_profile(&[64 * 1024], 1 << 20);
        let wn = w.at(64 * 1024, 32).unwrap();
        let rn = r.at(64 * 1024, 32).unwrap();
        assert!(
            wn * 3.0 < rn,
            "write buffer hides latency: write {wn} vs read {rn} ns"
        );
    }
}
