//! Figure 6 and the Section 5.2 cost breakdown: the binding prefetch.
//!
//! The probe issues a *group* of prefetches, fences if the group is
//! smaller than the write-buffer push-out threshold, pops the queue and
//! stores the results locally. Average latency per element falls from
//! ~740 ns for a single prefetch to ~210 ns at the full queue depth of
//! 16 — the pipelining the paper credits with hiding 75% of remote
//! latency. The Split-C `get` adds table management (10 cycles) and
//! annex set-up on top.

use crate::report::{Series, Table};
use splitc::{GlobalPtr, SplitC};
use t3d_machine::{Cpu, Machine, MachineConfig};
use t3d_shell::FuncCode;

/// Average per-element cost (ns) of a raw prefetch group of size `g`.
pub fn raw_group_cost(m: &mut Machine, g: usize) -> f64 {
    m.reset_timing();
    let mut cpu = Cpu::new(m, 0);
    cpu.annex_set(1, 1, FuncCode::Uncached);
    // Warm the TLB for the remote segment.
    let _ = cpu.ld8(cpu.va(1, 0));
    let t0 = cpu.clock();
    for i in 0..g {
        let ok = cpu.fetch(cpu.va(1, (i as u64) * 8));
        assert!(ok, "group must fit the 16-entry queue");
    }
    cpu.memory_barrier();
    for i in 0..g {
        let v = cpu.pop_prefetch().expect("fenced");
        cpu.st8(0x10_0000 + (i as u64) * 8, v);
    }
    (cpu.clock() - t0) as f64 / g as f64 * m.cycle_ns()
}

/// Average per-element cost (ns) of a Split-C `get` group of size `g`.
pub fn splitc_group_cost(sc: &mut SplitC, g: usize) -> f64 {
    sc.machine().reset_timing();
    sc.on(0, |ctx| {
        // Warm TLB.
        let _ = ctx.read_u64(GlobalPtr::new(1, 0));
        let t0 = ctx.clock();
        for i in 0..g {
            ctx.get(
                0x10_0000 + (i as u64) * 8,
                GlobalPtr::new(1, (i as u64) * 8),
            );
        }
        ctx.sync();
        (ctx.clock() - t0) as f64 / g as f64 * 6.666_666_666_666_667
    })
}

/// Average cost (ns) of `g` blocking uncached reads (the Figure 6
/// reference line).
pub fn blocking_group_cost(m: &mut Machine, g: usize) -> f64 {
    m.reset_timing();
    let mut cpu = Cpu::new(m, 0);
    cpu.annex_set(1, 1, FuncCode::Uncached);
    let _ = cpu.ld8(cpu.va(1, 0));
    let t0 = cpu.clock();
    for i in 0..g {
        let v = cpu.ld8(cpu.va(1, (i as u64) * 8));
        cpu.st8(0x10_0000 + (i as u64) * 8, v);
    }
    (cpu.clock() - t0) as f64 / g as f64 * m.cycle_ns()
}

/// Figure 6: per-element latency vs group size for raw prefetch,
/// Split-C `get`, and blocking reads.
pub fn group_sweep() -> Vec<Series> {
    let mut m = Machine::new(MachineConfig::t3d(2));
    let mut sc = SplitC::new(MachineConfig::t3d(2));
    let mut raw = Vec::new();
    let mut get = Vec::new();
    let mut blocking = Vec::new();
    for g in 1..=16usize {
        raw.push((g as u64, raw_group_cost(&mut m, g)));
        get.push((g as u64, splitc_group_cost(&mut sc, g)));
        blocking.push((g as u64, blocking_group_cost(&mut m, g)));
    }
    vec![
        Series {
            label: "raw prefetch".into(),
            points: raw,
        },
        Series {
            label: "Split-C get".into(),
            points: get,
        },
        Series {
            label: "blocking read".into(),
            points: blocking,
        },
    ]
}

/// The Section 5.2 cost breakdown table: issue, memory barrier, round
/// trip, pop — measured from the simulated mechanisms.
pub fn cost_breakdown() -> Table {
    let mut m = Machine::new(MachineConfig::t3d(2));
    let mut cpu = Cpu::new(&mut m, 0);
    cpu.annex_set(1, 1, FuncCode::Uncached);
    let _ = cpu.ld8(cpu.va(1, 0)); // warm TLB

    let t0 = cpu.clock();
    cpu.fetch(cpu.va(1, 8));
    let issue = cpu.clock() - t0;

    let t0 = cpu.clock();
    cpu.memory_barrier();
    let mb = cpu.clock() - t0;

    let t0 = cpu.clock();
    let _ = cpu.pop_prefetch().expect("fenced");
    let pop_plus_wait = cpu.clock() - t0;

    // Pop cost alone: pop immediately after the data must have arrived.
    cpu.fetch(cpu.va(1, 16));
    cpu.memory_barrier();
    cpu.advance(10_000);
    let t0 = cpu.clock();
    let _ = cpu.pop_prefetch().expect("arrived long ago");
    let pop = cpu.clock() - t0;

    let round_trip = pop_plus_wait - pop;
    Table {
        title: "Prefetch cost breakdown (Section 5.2; paper: 4 / 4 / 80 / 23 cycles)".into(),
        headers: vec!["component".into(), "cycles".into()],
        rows: vec![
            vec!["prefetch issue".into(), issue.to_string()],
            vec!["memory barrier".into(), mb.to_string()],
            vec!["round trip".into(), round_trip.to_string()],
            vec!["prefetch pop".into(), pop.to_string()],
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_prefetch_slower_than_blocking_read_by_about_15_cycles() {
        let mut m = Machine::new(MachineConfig::t3d(2));
        let pf = raw_group_cost(&mut m, 1);
        let bl = blocking_group_cost(&mut m, 1);
        let delta_cy = (pf - bl) / m.cycle_ns();
        assert!(
            (5.0..35.0).contains(&delta_cy),
            "single prefetch is {delta_cy:.0} cy over a blocking read (paper: ~15)"
        );
    }

    #[test]
    fn group_of_16_costs_about_31_cycles_per_element() {
        let mut m = Machine::new(MachineConfig::t3d(2));
        let ns = raw_group_cost(&mut m, 16);
        let cy = ns / m.cycle_ns();
        assert!(
            (27.0..36.0).contains(&cy),
            "pipelined prefetch {cy:.0} cy (paper: 31)"
        );
    }

    #[test]
    fn latency_mostly_hidden_by_group_16() {
        let mut m = Machine::new(MachineConfig::t3d(2));
        let single = raw_group_cost(&mut m, 1);
        let full = raw_group_cost(&mut m, 16);
        assert!(
            full < single * 0.4,
            "group of 16 ({full:.0} ns) hides most of single-prefetch latency ({single:.0} ns)"
        );
    }

    #[test]
    fn sweep_is_monotone_decreasing_overall() {
        let series = group_sweep();
        let raw = &series[0];
        assert!(raw.points[0].1 > raw.points[15].1 * 2.0);
        // Split-C get sits above raw prefetch at every group size.
        let get = &series[1];
        for (i, (g, ns)) in get.points.iter().enumerate() {
            assert!(
                *ns > raw.points[i].1,
                "get ({ns:.0} ns) above raw ({:.0} ns) at group {g}",
                raw.points[i].1
            );
        }
    }

    #[test]
    fn breakdown_matches_published_components() {
        let t = cost_breakdown();
        let get = |name: &str| -> i64 {
            t.rows
                .iter()
                .find(|r| r[0] == name)
                .map(|r| r[1].parse().unwrap())
                .expect("row exists")
        };
        assert_eq!(get("prefetch issue"), 4);
        assert_eq!(get("memory barrier"), 4);
        assert_eq!(get("prefetch pop"), 23);
        let rt = get("round trip");
        assert!((70..=95).contains(&rt), "round trip {rt} cy (paper: 80)");
    }
}
