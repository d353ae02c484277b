//! Hot-spot contention probe (extension).
//!
//! The paper's probes run with a single active processor, so target-side
//! contention never shows. Applications are not so polite: all-to-one
//! communication (reductions, shared counters) serializes through the
//! target's shell and memory controller. With the machine's contention
//! model enabled, this probe measures how per-operation cost grows with
//! the number of simultaneous requesters, for fetch&increment (the
//! N-to-1 queue allocator of Section 7.4) and for remote stores.

use crate::report::Series;
use t3d_machine::{Cpu, Machine, MachineConfig};
use t3d_shell::FuncCode;

/// Average cost (cycles) per fetch&increment when `requesters` nodes hit
/// PE 0's register simultaneously.
pub fn fetch_inc_hotspot_cost(requesters: u32, contention: bool) -> f64 {
    // Machines are power-of-two sized; surplus PEs sit idle.
    let nodes = (requesters + 1).next_power_of_two();
    let cfg = if contention {
        MachineConfig::t3d_contended(nodes)
    } else {
        MachineConfig::t3d(nodes)
    };
    let mut m = Machine::new(cfg);
    let per_node = 8u64;
    for pe in 1..=requesters as usize {
        let mut cpu = Cpu::new(&mut m, pe);
        for _ in 0..per_node {
            let _ = cpu.fetch_inc(0, 0);
        }
    }
    let worst = (1..=requesters as usize)
        .map(|pe| m.clock(pe))
        .max()
        .unwrap_or(0);
    worst as f64 / per_node as f64
}

/// Average cost per blocking store when `requesters` nodes write to PE 0
/// versus each writing to a distinct target.
pub fn store_hotspot_cost(requesters: u32, all_to_one: bool) -> f64 {
    // Machines are power-of-two sized; surplus PEs sit idle.
    let nodes = (requesters + 1).next_power_of_two();
    let mut m = Machine::new(MachineConfig::t3d_contended(nodes));
    let per_node = 8u64;
    for pe in 1..=requesters as usize {
        let target = if all_to_one {
            0
        } else {
            (pe + 1) % nodes as usize
        };
        let mut cpu = Cpu::new(&mut m, pe);
        cpu.annex_set(1, target as u32, FuncCode::Uncached);
        for i in 0..per_node {
            let va = cpu.va(1, 0x1000 + (pe as u64) * 4096 + i * 64);
            cpu.st8(va, i);
        }
        cpu.memory_barrier();
        cpu.wait_write_acks();
    }
    let worst = (1..=requesters as usize)
        .map(|pe| m.clock(pe))
        .max()
        .unwrap_or(0);
    worst as f64 / per_node as f64
}

/// The hot-spot sweep: per-op fetch&increment cost vs requester count,
/// with and without contention modeling.
pub fn hotspot_sweep() -> Vec<Series> {
    let counts = [1u32, 2, 4, 8, 16, 31];
    vec![
        Series {
            label: "f&i, contended shell".into(),
            points: counts
                .iter()
                .map(|&r| (r as u64, fetch_inc_hotspot_cost(r, true)))
                .collect(),
        },
        Series {
            label: "f&i, ideal shell".into(),
            points: counts
                .iter()
                .map(|&r| (r as u64, fetch_inc_hotspot_cost(r, false)))
                .collect(),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hotspot_grows_with_requesters_only_under_contention() {
        // Compare at the same machine size, so network distance (which
        // grows with the torus) cancels out.
        let ideal_16 = fetch_inc_hotspot_cost(16, false);
        let real_16 = fetch_inc_hotspot_cost(16, true);
        assert!(
            real_16 > ideal_16 * 1.5,
            "contended hot spot queues: {ideal_16:.0} -> {real_16:.0} cy"
        );
        // With a single requester, contention modeling changes nothing.
        let ideal_1 = fetch_inc_hotspot_cost(1, false);
        let real_1 = fetch_inc_hotspot_cost(1, true);
        assert_eq!(ideal_1, real_1, "one requester never queues");
    }

    #[test]
    fn all_to_one_stores_cost_more_than_spread_stores() {
        let one = store_hotspot_cost(8, true);
        let spread = store_hotspot_cost(8, false);
        assert!(
            one > spread,
            "hot-spot stores {one:.0} cy vs spread {spread:.0} cy"
        );
    }

    #[test]
    fn sweep_has_both_series() {
        let s = hotspot_sweep();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].points.len(), s[1].points.len());
    }
}
