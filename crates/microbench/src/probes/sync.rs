//! The Section 7 synchronization and messaging cost table.
//!
//! Direct probes of every synchronization mechanism: annex update, the
//! native message queue (cheap send, 25 µs interrupt receive, +33 µs
//! handler dispatch), remote fetch&increment, atomic swap, the
//! AM-equivalent queue built from them (deposit 2.9 µs, dispatch
//! 1.5 µs), and the hardware fuzzy barrier.

use crate::report::Table;
use splitc::runtime::AM_ADD_U64;
use splitc::SplitC;
use t3d_machine::{Cpu, Machine, MachineConfig};
use t3d_shell::{FuncCode, MsgQueue, ReceiveMode};

/// One measured cost line.
#[derive(Debug, Clone, PartialEq)]
pub struct SyncCost {
    /// Mechanism name.
    pub name: String,
    /// Measured cost in cycles.
    pub cycles: u64,
    /// The paper's reported value, as printed in Section 7 (for the
    /// side-by-side table).
    pub paper: &'static str,
}

/// Measures every Section 7 mechanism.
pub fn sync_costs() -> Vec<SyncCost> {
    let mut out = Vec::new();
    let mut m = Machine::new(MachineConfig::t3d(2));

    // Annex update.
    let t0 = m.clock(0);
    Cpu::new(&mut m, 0).annex_set(1, 1, FuncCode::Uncached);
    out.push(SyncCost {
        name: "annex register update".into(),
        cycles: m.clock(0) - t0,
        paper: "23 cy",
    });

    // Message send.
    let t0 = m.clock(0);
    Cpu::new(&mut m, 0).msg_send(1, [1, 2, 3, 4]);
    out.push(SyncCost {
        name: "message send (PAL)".into(),
        cycles: m.clock(0) - t0,
        paper: "122 cy (813 ns)",
    });

    // Message receive (interrupt only).
    Cpu::new(&mut m, 1).advance(10_000);
    let t0 = m.clock(1);
    Cpu::new(&mut m, 1).msg_receive().expect("delivered");
    out.push(SyncCost {
        name: "message receive interrupt".into(),
        cycles: m.clock(1) - t0,
        paper: "3750 cy (25 us)",
    });

    // Handler dispatch mode: interrupt + switch.
    {
        let cfg = m.config().shell;
        let mut q = MsgQueue::new(&cfg, ReceiveMode::Handler);
        q.deliver(t3d_shell::Message {
            from: 0,
            words: [0; 4],
            arrival: 0,
        });
        let (_, cost) = q.receive(0).expect("delivered");
        out.push(SyncCost {
            name: "message receive + handler switch".into(),
            cycles: cost,
            paper: "8700 cy (25+33 us)",
        });
    }

    // Remote fetch&increment.
    let t0 = m.clock(0);
    let _ = Cpu::new(&mut m, 0).fetch_inc(1, 0);
    out.push(SyncCost {
        name: "remote fetch&increment".into(),
        cycles: m.clock(0) - t0,
        paper: "~150 cy (~1 us)",
    });

    // Atomic swap.
    let mut cpu = Cpu::new(&mut m, 0);
    cpu.annex_set(2, 1, FuncCode::Swap);
    cpu.swap_load(7);
    let va = cpu.va(2, 0x100);
    let t0 = cpu.clock();
    let _ = cpu.atomic_swap(va);
    out.push(SyncCost {
        name: "atomic swap".into(),
        cycles: cpu.clock() - t0,
        paper: "~remote read",
    });

    // Hardware barrier past last arrival.
    {
        let mut m2 = Machine::new(MachineConfig::t3d(2));
        Cpu::new(&mut m2, 0).advance(1_000);
        Cpu::new(&mut m2, 1).advance(1_000);
        m2.barrier_all();
        out.push(SyncCost {
            name: "hardware barrier (past last arrival)".into(),
            cycles: m2.clock(0) - 1_000,
            paper: "fast (~100s ns)",
        });
    }

    // Fuzzy barrier: how much overlapped work hides in the wait.
    {
        let mut m2 = Machine::new(MachineConfig::t3d(2));
        Cpu::new(&mut m2, 1).advance(2_000); // straggler
        m2.fuzzy_barrier_start(0);
        m2.fuzzy_barrier_start(1);
        Cpu::new(&mut m2, 0).advance(1_500); // overlapped work on the early arriver
        m2.fuzzy_barrier_end_all();
        // Cost to the early node beyond the straggler's arrival:
        let overhead = m2.clock(0).saturating_sub(2_000);
        out.push(SyncCost {
            name: "fuzzy barrier (1500 cy overlapped work hidden)".into(),
            cycles: overhead,
            paper: "start/end split",
        });
    }

    // AM-equivalent deposit and dispatch.
    {
        let mut sc = SplitC::new(MachineConfig::t3d(2));
        let cell = sc.alloc(8, 8);
        sc.on(0, |ctx| ctx.am_deposit(1, AM_ADD_U64, [cell, 1, 0, 0])); // warm
        sc.on(1, |ctx| {
            ctx.am_poll();
        });
        let dep = sc.on(0, |ctx| {
            let t0 = ctx.clock();
            ctx.am_deposit(1, AM_ADD_U64, [cell, 1, 0, 0]);
            ctx.clock() - t0
        });
        out.push(SyncCost {
            name: "AM-equivalent deposit (5 words)".into(),
            cycles: dep,
            paper: "435 cy (2.9 us)",
        });
        let disp = sc.on(1, |ctx| {
            let t0 = ctx.clock();
            ctx.am_poll();
            ctx.clock() - t0
        });
        out.push(SyncCost {
            name: "AM-equivalent dispatch + access".into(),
            cycles: disp,
            paper: "225 cy (1.5 us)",
        });
    }

    out
}

/// Renders the Section 7 table.
pub fn sync_table() -> Table {
    let costs = sync_costs();
    Table {
        title: "Synchronization & messaging costs (Section 7)".into(),
        headers: vec![
            "mechanism".into(),
            "measured (cy)".into(),
            "measured (us)".into(),
            "paper".into(),
        ],
        rows: costs
            .iter()
            .map(|c| {
                vec![
                    c.name.clone(),
                    c.cycles.to_string(),
                    format!("{:.2}", c.cycles as f64 / 150.0),
                    c.paper.to_string(),
                ]
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost_of(name: &str) -> u64 {
        sync_costs()
            .into_iter()
            .find(|c| c.name.contains(name))
            .map(|c| c.cycles)
            .expect("mechanism probed")
    }

    #[test]
    fn exact_published_costs() {
        assert_eq!(cost_of("annex"), 23);
        assert_eq!(cost_of("message send"), 122);
        assert_eq!(cost_of("receive interrupt"), 3750);
        assert_eq!(cost_of("handler switch"), 3750 + 4950);
    }

    #[test]
    fn fetch_inc_is_about_a_microsecond() {
        let cy = cost_of("fetch&increment");
        assert!((100..=200).contains(&cy), "f&i {cy} cy");
    }

    #[test]
    fn am_deposit_near_2_9_us_and_dispatch_near_1_5_us() {
        let dep = cost_of("deposit");
        let disp = cost_of("dispatch");
        assert!((300..=600).contains(&dep), "deposit {dep} cy (paper 435)");
        assert!(
            (120..=380).contains(&disp),
            "dispatch {disp} cy (paper 225)"
        );
    }

    #[test]
    fn fuzzy_barrier_hides_overlapped_work() {
        let cy = cost_of("fuzzy barrier");
        assert!(
            cy < 200,
            "1500 cycles of work hid inside the wait (overhead {cy} cy)"
        );
    }

    #[test]
    fn am_queue_receive_is_far_cheaper_than_interrupt() {
        // The Section 7 conclusion in one assertion.
        assert!(cost_of("dispatch") * 10 < cost_of("receive interrupt"));
    }

    #[test]
    fn table_renders_all_rows() {
        let t = sync_table();
        assert_eq!(t.rows.len(), sync_costs().len());
        assert!(t.to_string().contains("annex"));
    }
}
