//! The Active-Message-equivalent remote queue (Section 7.4).
//!
//! The native message queue's receive side costs a 25 µs interrupt, so
//! the paper constructs message passing out of the *fast* shell
//! primitives instead: a fetch&increment on the target allocates a slot
//! in an N-to-1 queue in the target's memory, the sender stores the
//! five-word message (handler id + four arguments) into the slot, and
//! the receiver polls. The measured costs — ~2.9 µs to deposit, ~1.5 µs
//! to dispatch — make this "the full power of poll-based Active
//! Messages", and it is the substrate for correct byte writes and for
//! message-driven `store_sync` notification.
//!
//! Queue slot layout (48 bytes): `[seq, handler, a0, a1, a2, a3]`. The
//! sequence word is written *last*, and its value (ticket + 1) is unique
//! across queue wrap-arounds, so a slot is readable exactly when its
//! sequence matches.

use crate::op::ScOp;
use crate::record::RtKind;
use crate::runtime::{ScCtx, AM_ADD_U64, AM_SLOT_BYTES};
use t3d_shell::FuncCode;
use t3dsan::NO_REG;

impl ScCtx<'_> {
    /// Deposits an AM-equivalent message for `target_pe`: handler `id`
    /// with four argument words. The handler runs when the target polls
    /// (explicitly via [`ScCtx::am_poll`], or at the next
    /// [`crate::SplitC::barrier`]).
    ///
    /// # Panics
    ///
    /// Panics if `target_pe` does not exist.
    pub fn am_deposit(&mut self, target_pe: usize, id: u64, args: [u64; 4]) {
        // Only the plain-data add is an op of the recorded program; the
        // byte/u32 repairs are recorded by their issuing wrappers, and
        // those and user handlers log a sanitizer-only deposit.
        let e = if id == AM_ADD_U64 {
            self.log_op(ScOp::AmAdd {
                target_pe: target_pe as u32,
                off: args[0],
                delta: args[1],
            })
        } else {
            self.log(RtKind::Deposit {
                target_pe: target_pe as u32,
            })
        };
        assert!(target_pe < self.m.nodes(), "PE {target_pe} out of range");
        // Allocate a slot with the target's fetch&increment register 0.
        let ticket = self.m.fetch_inc(target_pe, 0);
        let slot = ticket % self.cfg.am_slots;
        let base = self.am_region + slot * AM_SLOT_BYTES;
        if target_pe == self.pe() {
            // Local deposit: plain stores.
            self.m.st8(base + 8, id);
            for (i, a) in args.iter().enumerate() {
                self.m.st8(base + 16 + i as u64 * 8, *a);
            }
            self.m.st8(base, ticket + 1);
            self.m.memory_barrier();
        } else {
            let idx = self
                .rt
                .annex
                .ensure(&mut self.m, target_pe as u32, FuncCode::Uncached);
            self.m.st8(self.m.va(idx, base + 8), id);
            for (i, a) in args.iter().enumerate() {
                self.m.st8(self.m.va(idx, base + 16 + i as u64 * 8), *a);
            }
            // Data words must be visible before the sequence word.
            self.m.memory_barrier();
            self.m.wait_write_acks();
            self.m.st8(self.m.va(idx, base), ticket + 1);
            self.m.memory_barrier();
            self.m.wait_write_acks();
        }
        self.m.advance(self.cfg.am_deposit_overhead_cy);
        self.done(e, NO_REG);
    }

    /// Polls this node's queue, dispatching every message present.
    /// Returns the number dispatched.
    ///
    /// # Panics
    ///
    /// Panics if a message names an unregistered handler.
    pub fn am_poll(&mut self) -> usize {
        let mut dispatched = 0;
        loop {
            let next = self.rt.am_consumed;
            let slot = next % self.cfg.am_slots;
            let base = self.am_region + slot * AM_SLOT_BYTES;
            // The poll is an ordinary (cached) load of the seq word; an
            // arriving store flushes the line, so the next poll re-reads
            // memory.
            let seq = self.m.ld8(base);
            if seq != next + 1 {
                // A slot overwritten by a wrapped-around later ticket
                // means deposits outran the polls: the queue overflowed.
                assert!(
                    seq <= next || !(seq - 1 - next).is_multiple_of(self.cfg.am_slots),
                    "AM-equivalent queue on PE {} overflowed: {} slots,                      expected seq {} found {} (poll more often or enlarge                      SplitcConfig::am_slots)",
                    self.pe(),
                    self.cfg.am_slots,
                    next + 1,
                    seq
                );
                break;
            }
            let id = self.m.ld8(base + 8);
            let mut args = [0u64; 4];
            for (i, a) in args.iter_mut().enumerate() {
                *a = self.m.ld8(base + 16 + i as u64 * 8);
            }
            self.rt.am_consumed += 1;
            self.m.advance(self.cfg.am_dispatch_overhead_cy);
            let handler = self
                .handlers
                .get(id as usize)
                .and_then(|h| *h)
                .unwrap_or_else(|| panic!("AM handler {id} not registered"));
            handler(&mut self.m, args);
            dispatched += 1;
        }
        if dispatched > 0 {
            let e = self.log(RtKind::Dispatch {
                count: dispatched as u64,
            });
            self.done(e, NO_REG);
        }
        dispatched
    }

    /// Messages this node has consumed from its queue.
    pub fn am_consumed(&self) -> u64 {
        self.rt.am_consumed
    }
}

#[cfg(test)]
mod tests {
    use crate::runtime::{SplitC, AM_ADD_U64, AM_USER_BASE};
    use t3d_machine::MachineConfig;
    use t3d_machine::PhaseDriver;

    fn sc() -> SplitC {
        SplitC::new(MachineConfig::t3d(4))
    }

    #[test]
    fn deposit_and_poll_runs_the_handler() {
        let mut s = sc();
        let cell = s.alloc(8, 8);
        s.on(0, |ctx| ctx.am_deposit(1, AM_ADD_U64, [cell, 5, 0, 0]));
        let n = s.on(1, |ctx| ctx.am_poll());
        assert_eq!(n, 1);
        assert_eq!(s.machine().peek8(1, cell), 5);
    }

    #[test]
    fn barrier_drains_queues() {
        let mut s = sc();
        let cell = s.alloc(8, 8);
        s.run_phase(|ctx| {
            let right = (ctx.pe() + 1) % ctx.nodes();
            ctx.am_deposit(right, AM_ADD_U64, [cell, 1, 0, 0]);
        });
        s.barrier();
        for pe in 0..4 {
            assert_eq!(s.machine().peek8(pe, cell), 1, "PE {pe} got its increment");
        }
    }

    #[test]
    fn many_deposits_from_many_senders_all_arrive() {
        let mut s = sc();
        let cell = s.alloc(8, 8);
        for round in 0..8 {
            let _ = round;
            s.run_phase(|ctx| {
                if ctx.pe() != 3 {
                    ctx.am_deposit(3, AM_ADD_U64, [cell, 1, 0, 0]);
                }
            });
        }
        s.barrier();
        assert_eq!(s.machine().peek8(3, cell), 24, "8 rounds x 3 senders");
    }

    #[test]
    fn deposit_costs_about_2_9_us() {
        let mut s = sc();
        let cell = s.alloc(8, 8);
        let cost = s.on(0, |ctx| {
            ctx.am_deposit(1, AM_ADD_U64, [cell, 1, 0, 0]); // warm
            let t0 = ctx.clock();
            ctx.am_deposit(1, AM_ADD_U64, [cell, 1, 0, 0]);
            ctx.clock() - t0
        });
        let us = cost as f64 * 6.667e-3;
        assert!(
            (2.0..4.0).contains(&us),
            "AM deposit cost {us:.2} us (paper: 2.9)"
        );
    }

    #[test]
    fn dispatch_costs_about_1_5_us() {
        let mut s = sc();
        let cell = s.alloc(8, 8);
        s.on(0, |ctx| ctx.am_deposit(1, AM_ADD_U64, [cell, 1, 0, 0]));
        let cost = s.on(1, |ctx| {
            let t0 = ctx.clock();
            ctx.am_poll();
            ctx.clock() - t0
        });
        let us = cost as f64 * 6.667e-3;
        assert!(
            (0.8..2.5).contains(&us),
            "AM dispatch cost {us:.2} us (paper: 1.5)"
        );
    }

    #[test]
    fn user_handlers_dispatch() {
        let mut s = sc();
        let cell = s.alloc(8, 8);
        let id = s.register_handler(AM_USER_BASE, |cpu, args| {
            cpu.poke8(args[0], args[1] * args[2]);
        });
        s.on(2, |ctx| ctx.am_deposit(0, id, [cell, 6, 7, 0]));
        s.on(0, |ctx| ctx.am_poll());
        assert_eq!(s.machine().peek8(0, cell), 42);
    }

    #[test]
    fn user_handlers_dispatch_in_sharded_phases() {
        // Every PE deposits to its right neighbour in one sharded phase
        // and polls in the next, so each handler runs on the receiving
        // PE's shard, through that shard's `Cpu`.
        let run = |driver: PhaseDriver| {
            let mut s = sc();
            let cell = s.alloc(8, 8);
            let id = s.register_handler(AM_USER_BASE, |cpu, args| {
                let v = cpu.peek8(args[0]) + args[1] * (cpu.pe() as u64 + 1);
                cpu.poke8(args[0], v);
                cpu.advance(args[1]);
            });
            s.par_phase_with(driver, |ctx| {
                let right = (ctx.pe() + 1) % ctx.nodes();
                ctx.am_deposit(right, id, [cell, 10 + ctx.pe() as u64, 0, 0]);
            });
            s.par_phase_with(driver, |ctx| assert_eq!(ctx.am_poll(), 1));
            let n = s.nodes();
            let cells: Vec<u64> = (0..n).map(|pe| s.machine().peek8(pe, cell)).collect();
            let clocks: Vec<u64> = (0..n).map(|pe| s.machine_ref().clock(pe)).collect();
            (cells, clocks)
        };
        let (cells, clocks) = run(PhaseDriver::Seq);
        let left = |pe: u64| (pe + 3) % 4;
        let want: Vec<u64> = (0..4).map(|pe| (10 + left(pe)) * (pe + 1)).collect();
        assert_eq!(cells, want, "each PE's handler ran on its own node");
        assert_eq!(
            (cells, clocks),
            run(PhaseDriver::Par(2)),
            "Seq and Par(2) must give identical memory and clocks"
        );
    }

    #[test]
    #[should_panic(expected = "overflowed")]
    fn queue_overflow_is_detected() {
        let mut s = SplitC::new(MachineConfig::t3d(2));
        let cell = s.alloc(8, 8);
        s.on(0, |ctx| {
            for _ in 0..300 {
                ctx.am_deposit(1, AM_ADD_U64, [cell, 1, 0, 0]);
            }
        });
        s.on(1, |ctx| {
            ctx.am_poll();
        });
    }

    #[test]
    fn empty_poll_is_cheap_and_returns_zero() {
        let mut s = sc();
        let n = s.on(0, |ctx| ctx.am_poll());
        assert_eq!(n, 0);
    }
}
