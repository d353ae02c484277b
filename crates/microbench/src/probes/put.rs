//! Figure 7: non-blocking remote writes and the Split-C `put`.
//!
//! The familiar sawtooth probe issuing *non-blocking* remote stores:
//! below 32-byte strides the write buffer merges; beyond, the shell's
//! ~17-cycle (115 ns) injection interval governs; at 16 KB strides the
//! remote DRAM page misses show through. The Split-C `put` adds annex
//! set-up and its completion checks for an average around 300 ns.

use crate::probes::{all_strides, strides_for};
use crate::report::StrideProfile;
use splitc::{GlobalPtr, SplitC};
use t3d_machine::{Cpu, Machine, MachineConfig};
use t3d_shell::FuncCode;

fn probe_raw(m: &mut Machine, size: u64, stride: u64) -> f64 {
    m.reset_timing();
    let mut cpu = Cpu::new(m, 0);
    cpu.annex_set(1, 1, FuncCode::Uncached);
    for pass in 0..2 {
        let t0 = cpu.clock();
        let mut accesses = 0u64;
        let mut a = 0u64;
        while a < size {
            cpu.st8(cpu.va(1, a), a);
            accesses += 1;
            a += stride;
        }
        if pass == 1 {
            return (cpu.clock() - t0) as f64 / accesses as f64;
        }
        // Let the burst drain before the measured pass.
        cpu.memory_barrier();
        cpu.wait_write_acks();
    }
    unreachable!()
}

fn probe_put(sc: &mut SplitC, size: u64, stride: u64) -> f64 {
    sc.machine().reset_timing();
    for pass in 0..2 {
        let r = sc.on(0, |ctx| {
            let t0 = ctx.clock();
            let mut accesses = 0u64;
            let mut a = 0u64;
            while a < size {
                ctx.put(GlobalPtr::new(1, a), a);
                accesses += 1;
                a += stride;
            }
            let avg = (ctx.clock() - t0) as f64 / accesses as f64;
            ctx.sync();
            avg
        });
        if pass == 1 {
            return r;
        }
    }
    unreachable!()
}

/// Figure 7: the non-blocking store profile and the Split-C put profile.
pub fn nonblocking_profiles(sizes: &[u64], cap_stride: u64) -> Vec<StrideProfile> {
    let cycle_ns = MachineConfig::t3d(2).cycle_ns();
    let strides = all_strides(sizes, cap_stride);
    let mut m = Machine::new(MachineConfig::t3d(2));
    let mut sc = SplitC::new(MachineConfig::t3d(2));
    let mut raw_rows = Vec::new();
    let mut put_rows = Vec::new();
    for &size in sizes {
        let valid = strides_for(size, cap_stride);
        raw_rows.push(
            strides
                .iter()
                .map(|&st| {
                    valid
                        .contains(&st)
                        .then(|| probe_raw(&mut m, size, st) * cycle_ns)
                })
                .collect(),
        );
        put_rows.push(
            strides
                .iter()
                .map(|&st| {
                    valid
                        .contains(&st)
                        .then(|| probe_put(&mut sc, size, st) * cycle_ns)
                })
                .collect(),
        );
    }
    vec![
        StrideProfile {
            label: "non-blocking remote write".into(),
            sizes: sizes.to_vec(),
            strides: strides.clone(),
            avg_ns: raw_rows,
        },
        StrideProfile {
            label: "Split-C put".into(),
            sizes: sizes.to_vec(),
            strides,
            avg_ns: put_rows,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_state_is_about_115ns_per_write() {
        let p = &nonblocking_profiles(&[64 * 1024], 1 << 20)[0];
        let ns = p.at(64 * 1024, 64).unwrap();
        assert!(
            (100.0..135.0).contains(&ns),
            "non-blocking write {ns} ns (paper: ~115)"
        );
    }

    #[test]
    fn write_merging_below_line_stride() {
        let p = &nonblocking_profiles(&[64 * 1024], 1 << 20)[0];
        let s8 = p.at(64 * 1024, 8).unwrap();
        let s64 = p.at(64 * 1024, 64).unwrap();
        // Merged lines move 32 B per 53-cycle injection (13.25 cy/word)
        // against 17 cy for unmerged single words.
        assert!(
            s8 < s64 * 0.85,
            "merged writes {s8} ns vs unmerged {s64} ns"
        );
    }

    #[test]
    fn remote_page_misses_show_at_16k_stride() {
        let p = &nonblocking_profiles(&[256 * 1024], 1 << 20)[0];
        let line = p.at(256 * 1024, 64).unwrap();
        let off = p.at(256 * 1024, 16 * 1024).unwrap();
        assert!(off > line, "off-page {off} ns above steady {line} ns");
    }

    #[test]
    fn put_averages_about_300ns() {
        let p = &nonblocking_profiles(&[64 * 1024], 1 << 20)[1];
        let ns = p.at(64 * 1024, 64).unwrap();
        assert!(
            (250.0..360.0).contains(&ns),
            "Split-C put {ns} ns (paper: ~300)"
        );
    }

    #[test]
    fn put_is_well_below_blocking_write() {
        let put = nonblocking_profiles(&[64 * 1024], 1 << 20)[1]
            .at(64 * 1024, 64)
            .unwrap();
        let write = crate::probes::remote::profile(
            crate::probes::remote::RemoteOp::SplitcWrite,
            &[64 * 1024],
            1 << 20,
        )
        .at(64 * 1024, 64)
        .unwrap();
        assert!(
            put * 2.0 < write,
            "put {put} ns vs blocking write {write} ns"
        );
    }
}
