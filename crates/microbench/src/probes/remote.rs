//! Figures 4 and 5: remote read and write latency profiles.
//!
//! The local sawtooth probe re-aimed at an adjacent node's memory, in
//! each of the machine's read flavours (uncached, cached) and write
//! forms (blocking raw, Split-C read/write with annex set-up and
//! language overheads).

use crate::probes::{all_strides, strides_for};
use crate::report::StrideProfile;
use splitc::{GlobalPtr, SplitC};
use t3d_machine::{Cpu, Machine, MachineConfig};
use t3d_shell::{FuncCode, ShellConfig};

/// One remote probe flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemoteOp {
    /// Raw uncached remote loads.
    UncachedRead,
    /// Raw cached remote loads (line fills, incoherent).
    CachedRead,
    /// The Split-C blocking read (annex set-up + uncached load +
    /// overheads).
    SplitcRead,
    /// Raw blocking remote write (store + fence + status poll).
    BlockingWrite,
    /// The Split-C blocking write.
    SplitcWrite,
}

impl RemoteOp {
    fn label(self) -> &'static str {
        match self {
            RemoteOp::UncachedRead => "uncached read",
            RemoteOp::CachedRead => "cached read",
            RemoteOp::SplitcRead => "Split-C read",
            RemoteOp::BlockingWrite => "blocking write",
            RemoteOp::SplitcWrite => "Split-C write",
        }
    }
}

fn probe_raw_cell(op: RemoteOp, size: u64, stride: u64) -> f64 {
    let mut m = Machine::new(MachineConfig::t3d(2));
    let func = if op == RemoteOp::CachedRead {
        FuncCode::Cached
    } else {
        FuncCode::Uncached
    };
    let mut cpu = Cpu::new(&mut m, 0);
    cpu.annex_set(1, 1, func);
    for pass in 0..2 {
        // Cached reads must not be satisfied by the previous pass's
        // lines: flush, as the real probe effectively does by sizing.
        if op == RemoteOp::CachedRead {
            cpu.invalidate_l1();
        }
        let t0 = cpu.clock();
        let mut accesses = 0u64;
        let mut a = 0u64;
        while a < size {
            let va = cpu.va(1, a);
            match op {
                RemoteOp::UncachedRead | RemoteOp::CachedRead => {
                    let _ = cpu.ld8(va);
                }
                RemoteOp::BlockingWrite => {
                    cpu.st8(va, a);
                    cpu.memory_barrier();
                    cpu.wait_write_acks();
                }
                _ => unreachable!("Split-C flavours use probe_splitc_cell"),
            }
            accesses += 1;
            a += stride;
        }
        if pass == 1 {
            return (cpu.clock() - t0) as f64 / accesses as f64;
        }
    }
    unreachable!()
}

fn probe_splitc_cell(op: RemoteOp, size: u64, stride: u64) -> f64 {
    let mut sc = SplitC::new(MachineConfig::t3d(2));
    for pass in 0..2 {
        let r = sc.on(0, |ctx| {
            let t0 = ctx.clock();
            let mut accesses = 0u64;
            let mut a = 0u64;
            while a < size {
                let gp = GlobalPtr::new(1, a);
                match op {
                    RemoteOp::SplitcRead => {
                        let _ = ctx.read_u64(gp);
                    }
                    RemoteOp::SplitcWrite => ctx.write_u64(gp, a),
                    _ => unreachable!("raw flavours use probe_raw_cell"),
                }
                accesses += 1;
                a += stride;
            }
            (ctx.clock() - t0) as f64 / accesses as f64
        });
        if pass == 1 {
            return r;
        }
    }
    unreachable!()
}

/// Runs one remote profile over a (size, stride) grid, each cell on a
/// fresh two-node T3D.
pub fn profile(op: RemoteOp, sizes: &[u64], cap_stride: u64) -> StrideProfile {
    let cycle_ns = MachineConfig::t3d(2).cycle_ns();
    let strides = all_strides(sizes, cap_stride);
    let probe = match op {
        RemoteOp::SplitcRead | RemoteOp::SplitcWrite => probe_splitc_cell,
        _ => probe_raw_cell,
    };
    let mut avg_ns = Vec::new();
    for &size in sizes {
        let valid = strides_for(size, cap_stride);
        let row = strides
            .iter()
            .map(|&st| valid.contains(&st).then(|| probe(op, size, st) * cycle_ns))
            .collect();
        avg_ns.push(row);
    }
    StrideProfile {
        label: format!("remote {}", op.label()),
        sizes: sizes.to_vec(),
        strides,
        avg_ns,
    }
}

/// Figure 4: the three read flavours.
pub fn read_profiles(sizes: &[u64], cap_stride: u64) -> Vec<StrideProfile> {
    vec![
        profile(RemoteOp::UncachedRead, sizes, cap_stride),
        profile(RemoteOp::CachedRead, sizes, cap_stride),
        profile(RemoteOp::SplitcRead, sizes, cap_stride),
    ]
}

/// Figure 5: the two blocking write flavours.
pub fn write_profiles(sizes: &[u64], cap_stride: u64) -> Vec<StrideProfile> {
    vec![
        profile(RemoteOp::BlockingWrite, sizes, cap_stride),
        profile(RemoteOp::SplitcWrite, sizes, cap_stride),
    ]
}

/// Section 4.2's per-hop measurement: uncached read latency versus hop
/// distance on a 4x4x4 torus ("measuring the additional latency through
/// the network reveals roughly a 13 to 20 ns (2-3 cycle) cost per hop").
/// Returns `(hops, avg ns)` and the fitted per-hop one-way cost in
/// cycles.
pub fn hop_sweep() -> (Vec<(u64, f64)>, f64) {
    let cfg = MachineConfig::t3d(64); // 4x4x4
    let mut points = Vec::new();
    let max_hops = 6u32; // diameter of a 4x4x4 torus
    for hops in 1..=max_hops {
        let mut m = Machine::new(cfg);
        // Find a node at exactly this distance.
        let target = (0..64u32)
            .find(|&n| m.torus().hops(0, n) == hops)
            .expect("4x4x4 torus has all distances up to 6");
        let mut cpu = Cpu::new(&mut m, 0);
        cpu.annex_set(1, target, FuncCode::Uncached);
        let _ = cpu.ld8(cpu.va(1, 8)); // TLB warm
        let t0 = cpu.clock();
        let n = 16u64;
        for i in 0..n {
            let _ = cpu.ld8(cpu.va(1, 0x1000 + i * 32));
        }
        let avg = (cpu.clock() - t0) as f64 / n as f64 * m.cycle_ns();
        points.push((hops as u64, avg));
    }
    // Least-squares slope of latency (cycles) vs hops, halved for the
    // one-way per-hop cost (the probe sees a round trip).
    let (n, cycle_ns) = (points.len() as f64, cfg.cycle_ns());
    let sx: f64 = points.iter().map(|(h, _)| *h as f64).sum();
    let sy: f64 = points.iter().map(|(_, ns)| ns / cycle_ns).sum();
    let sxy: f64 = points.iter().map(|(h, ns)| *h as f64 * ns / cycle_ns).sum();
    let sxx: f64 = points.iter().map(|(h, _)| (*h as f64).powi(2)).sum();
    let slope_rt = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    (points, slope_rt / 2.0)
}

/// Section 4.2's cross-machine comparison: the T3D's remote read against
/// contemporary large-scale shared-memory machines. DASH and KSR1 are
/// modeled as equivalent-latency shells (their remote fill paths cost
/// ~3 µs and ~7.5 µs respectively, per the paper's citation \[23\]).
pub fn mpp_comparison() -> crate::report::Table {
    let mut rows = Vec::new();
    let mut measure = |label: &str, shell_cy: u64, paper: &str| {
        let mut cfg = MachineConfig::t3d(2);
        cfg.shell.remote_read_shell_cy = shell_cy;
        let mut m = Machine::new(cfg);
        let mut cpu = Cpu::new(&mut m, 0);
        cpu.annex_set(1, 1, FuncCode::Uncached);
        let _ = cpu.ld8(cpu.va(1, 8)); // TLB warm
        let t0 = cpu.clock();
        let _ = cpu.ld8(cpu.va(1, 0));
        let ns = (cpu.clock() - t0) as f64 * m.cycle_ns();
        rows.push(vec![
            label.to_string(),
            format!("{:.2} us", ns / 1000.0),
            paper.to_string(),
        ]);
    };
    measure(
        "CRAY-T3D",
        ShellConfig::t3d().remote_read_shell_cy,
        "~0.61 us",
    );
    measure("DASH (equivalent shell)", 423, "~3 us");
    measure("KSR1 (equivalent shell)", 1_098, "~7.5 us");
    crate::report::Table {
        title: "Remote read latency across MPPs (Section 4.2)".into(),
        headers: vec!["machine".into(), "measured".into(), "paper".into()],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIZES: &[u64] = &[64 * 1024];

    #[test]
    fn uncached_read_is_about_610ns() {
        let p = profile(RemoteOp::UncachedRead, SIZES, 1 << 20);
        let ns = p.at(64 * 1024, 64).unwrap();
        assert!(
            (560.0..680.0).contains(&ns),
            "uncached remote read {ns} ns (paper: ~610)"
        );
    }

    #[test]
    fn cached_read_is_about_765ns_at_line_stride() {
        let p = profile(RemoteOp::CachedRead, SIZES, 1 << 20);
        let ns = p.at(64 * 1024, 32).unwrap();
        assert!(
            (700.0..850.0).contains(&ns),
            "cached remote read {ns} ns (paper: ~765)"
        );
    }

    #[test]
    fn cached_read_amortizes_at_small_strides() {
        // Strides 8/16: the line prefetches the next 3 (or 1) accesses.
        let p = profile(RemoteOp::CachedRead, SIZES, 1 << 20);
        let s8 = p.at(64 * 1024, 8).unwrap();
        let s32 = p.at(64 * 1024, 32).unwrap();
        assert!(
            s8 < s32 / 2.5,
            "stride 8 ({s8} ns) amortizes the fill ({s32} ns)"
        );
    }

    #[test]
    fn splitc_read_is_about_850ns() {
        let p = profile(RemoteOp::SplitcRead, SIZES, 1 << 20);
        let ns = p.at(64 * 1024, 64).unwrap();
        assert!(
            (780.0..950.0).contains(&ns),
            "Split-C read {ns} ns (paper: ~850)"
        );
    }

    #[test]
    fn remote_off_page_adds_about_100ns() {
        let p = profile(RemoteOp::UncachedRead, &[256 * 1024], 1 << 20);
        let on_page = p.at(256 * 1024, 64).unwrap();
        let off_page = p.at(256 * 1024, 16 * 1024).unwrap();
        let delta = off_page - on_page;
        assert!(
            (40.0..130.0).contains(&delta),
            "off-page remote penalty {delta} ns (paper: ~100)"
        );
    }

    #[test]
    fn blocking_write_is_about_850ns() {
        let p = profile(RemoteOp::BlockingWrite, SIZES, 1 << 20);
        let ns = p.at(64 * 1024, 64).unwrap();
        assert!(
            (760.0..950.0).contains(&ns),
            "blocking remote write {ns} ns (paper: ~850)"
        );
    }

    #[test]
    fn splitc_write_is_about_981ns() {
        let p = profile(RemoteOp::SplitcWrite, SIZES, 1 << 20);
        let ns = p.at(64 * 1024, 64).unwrap();
        assert!(
            (880.0..1100.0).contains(&ns),
            "Split-C write {ns} ns (paper: ~981)"
        );
    }

    #[test]
    fn per_hop_cost_is_two_to_three_cycles() {
        let (points, per_hop_cy) = hop_sweep();
        assert_eq!(points.len(), 6);
        // Latency must rise monotonically with distance.
        for w in points.windows(2) {
            assert!(w[1].1 > w[0].1, "latency grows with hops: {points:?}");
        }
        assert!(
            (2.0..=3.0).contains(&per_hop_cy),
            "fitted per-hop cost {per_hop_cy:.2} cy (paper: 2-3)"
        );
    }

    #[test]
    fn mpp_comparison_ranks_the_machines() {
        let t = mpp_comparison();
        let us: Vec<f64> = t
            .rows
            .iter()
            .map(|r| r[1].trim_end_matches(" us").parse().unwrap())
            .collect();
        assert!(us[0] < 1.0, "T3D under a microsecond: {} us", us[0]);
        assert!(
            (2.5..3.5).contains(&us[1]),
            "DASH-equivalent ~3 us: {} us",
            us[1]
        );
        assert!(
            (7.0..8.0).contains(&us[2]),
            "KSR-equivalent ~7.5 us: {} us",
            us[2]
        );
        assert!(us[0] < us[1] && us[1] < us[2]);
    }

    #[test]
    fn remote_read_is_three_to_four_times_local_miss() {
        // The paper's headline: remote access < 1 us, only 3-4x a local
        // cache miss.
        let remote = profile(RemoteOp::UncachedRead, SIZES, 1 << 20)
            .at(64 * 1024, 64)
            .unwrap();
        let local = crate::probes::local::read_profile(SIZES, 1 << 20)
            .at(64 * 1024, 64)
            .unwrap();
        let ratio = remote / local;
        assert!((3.0..5.0).contains(&ratio), "remote/local ratio {ratio:.1}");
    }
}
