//! Automatic reproducer minimization.
//!
//! Given a failing case, [`shrink`] repeats two passes to a fixpoint
//! (or an oracle-call budget): structural deletion — whole phases, then
//! per-phase action chunks halving down to singles — and operand
//! simplification, which rewrites surviving actions toward the smallest
//! equivalent form (`value → 1`, `words → 1`, `stride → 1`, …).
//!
//! Every candidate is re-lowered from scratch, so trailing `Sync`s and
//! `StoreSync` byte counts are always consistent with the surviving
//! actions — a shrunk program is well formed by construction, and every
//! simplification keeps spans inside their originally zoned extents, so
//! a zone-disciplined program stays disciplined while it shrinks.

use crate::harness::{check_case, Fault};
use crate::program::{ActionKind, Program, Terminator};

/// Oracle calls a default [`shrink`] may spend.
pub const DEFAULT_BUDGET: usize = 400;

/// Minimizes `prog` while `check_case(_, threads, fault)` keeps
/// failing. Returns the smallest failing program found within `budget`
/// oracle calls.
pub fn shrink(prog: &Program, threads: usize, fault: Option<Fault>, budget: usize) -> Program {
    let mut best = prog.clone();
    let mut calls = budget;
    let still_fails = |cand: &Program, calls: &mut usize| -> bool {
        if *calls == 0 {
            return false;
        }
        *calls -= 1;
        check_case(cand, threads, fault).is_some()
    };
    loop {
        let before = size_of(&best);

        // Pass 1a: drop whole phases (keep at least one so the fault
        // self-test still has a terminator to corrupt after).
        let mut i = 0;
        while best.phases.len() > 1 && i < best.phases.len() {
            let mut cand = best.clone();
            cand.phases.remove(i);
            if still_fails(&cand, &mut calls) {
                best = cand;
            } else {
                i += 1;
            }
        }

        // Pass 1b: per phase, delete action chunks, halving the chunk
        // size down to single actions.
        for pi in 0..best.phases.len() {
            let mut chunk = best.phases[pi].actions.len().div_ceil(2).max(1);
            loop {
                let mut start = 0;
                while start < best.phases[pi].actions.len() {
                    let end = (start + chunk).min(best.phases[pi].actions.len());
                    let mut cand = best.clone();
                    cand.phases[pi].actions.drain(start..end);
                    if still_fails(&cand, &mut calls) {
                        best = cand;
                    } else {
                        start = end;
                    }
                }
                if chunk == 1 {
                    break;
                }
                chunk = (chunk / 2).max(1);
            }
        }

        // Pass 2: simplify operands and phase attributes in place.
        for pi in 0..best.phases.len() {
            if best.phases[pi].terminator != Terminator::Barrier {
                let mut cand = best.clone();
                cand.phases[pi].terminator = Terminator::Barrier;
                if still_fails(&cand, &mut calls) {
                    best = cand;
                }
            }
            if best.phases[pi].await_stores {
                let mut cand = best.clone();
                cand.phases[pi].await_stores = false;
                if still_fails(&cand, &mut calls) {
                    best = cand;
                }
            }
            for ai in 0..best.phases[pi].actions.len() {
                for simpler in simpler_kinds(best.phases[pi].actions[ai].kind) {
                    let mut cand = best.clone();
                    cand.phases[pi].actions[ai].kind = simpler;
                    if still_fails(&cand, &mut calls) {
                        best = cand;
                        break;
                    }
                }
            }
        }

        if calls == 0 || size_of(&best) == before {
            return best;
        }
    }
}

/// Size metric driving the fixpoint: structure first, then operand
/// magnitude via the debug rendering's length.
fn size_of(p: &Program) -> (usize, usize, usize) {
    (p.phases.len(), p.action_count(), format!("{p:?}").len())
}

/// Strictly-simpler variants of one action, most aggressive first.
/// Every rewrite keeps the touched span inside the original's, so zone
/// discipline survives shrinking.
fn simpler_kinds(kind: ActionKind) -> Vec<ActionKind> {
    use ActionKind::*;
    let mut out = Vec::new();
    match kind {
        Advance { cycles } if cycles > 1 => out.push(Advance { cycles: 1 }),
        Write { dst, value } if value != 1 => out.push(Write { dst, value: 1 }),
        Put { dst, value } if value != 1 => out.push(Put { dst, value: 1 }),
        Store { dst, value } if value != 1 => out.push(Store { dst, value: 1 }),
        WriteU32 { dst, hi, value } => {
            if value != 1 {
                out.push(WriteU32 { dst, hi, value: 1 });
            }
            if hi {
                out.push(WriteU32 {
                    dst,
                    hi: false,
                    value,
                });
            }
        }
        ByteWrite { dst, byte, value } => {
            if value != 1 {
                out.push(ByteWrite {
                    dst,
                    byte,
                    value: 1,
                });
            }
            if byte != 0 {
                out.push(ByteWrite {
                    dst,
                    byte: 0,
                    value,
                });
            }
        }
        ReadU32 { src, hi } if hi => out.push(ReadU32 { src, hi: false }),
        ByteRead { src, byte } if byte != 0 => out.push(ByteRead { src, byte: 0 }),
        BulkRead { src, words, land } if words > 1 => out.push(BulkRead {
            src,
            words: 1,
            land,
        }),
        BulkGet { src, words, land } if words > 1 => out.push(BulkGet {
            src,
            words: 1,
            land,
        }),
        BulkWrite { dst, words, from } if words > 1 => out.push(BulkWrite {
            dst,
            words: 1,
            from,
        }),
        BulkPut { dst, words, from } if words > 1 => out.push(BulkPut {
            dst,
            words: 1,
            from,
        }),
        BulkReadStrided {
            src,
            count,
            stride,
            land,
        } => {
            if count > 2 {
                out.push(BulkReadStrided {
                    src,
                    count: 2,
                    stride,
                    land,
                });
            }
            if stride > 1 {
                out.push(BulkReadStrided {
                    src,
                    count,
                    stride: 1,
                    land,
                });
            }
        }
        BulkWriteStrided {
            dst,
            count,
            stride,
            from,
        } => {
            if count > 2 {
                out.push(BulkWriteStrided {
                    dst,
                    count: 2,
                    stride,
                    from,
                });
            }
            if stride > 1 {
                out.push(BulkWriteStrided {
                    dst,
                    count,
                    stride: 1,
                    from,
                });
            }
        }
        AmAdd { dst, delta } if delta != 1 => out.push(AmAdd { dst, delta: 1 }),
        LockGuardedWrite {
            lock,
            dst_pe,
            value,
        } if value != 1 => {
            out.push(LockGuardedWrite {
                lock,
                dst_pe,
                value: 1,
            });
        }
        _ => {}
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Action, Cell, Phase, PhaseKind};

    fn noisy_prog() -> Program {
        let mut phases = Vec::new();
        for i in 0..4 {
            phases.push(Phase {
                kind: PhaseKind::Sharded,
                terminator: if i == 2 {
                    Terminator::AllStoreSync
                } else {
                    Terminator::Barrier
                },
                await_stores: i > 0,
                actions: vec![
                    Action {
                        pe: 0,
                        kind: ActionKind::Store {
                            dst: Cell { pe: 1, slot: i },
                            value: 0xDEAD + i,
                        },
                    },
                    Action {
                        pe: 1,
                        kind: ActionKind::Put {
                            dst: Cell { pe: 0, slot: 4 + i },
                            value: 77,
                        },
                    },
                    Action {
                        pe: 1,
                        kind: ActionKind::AmAdd {
                            dst: Cell { pe: 0, slot: 8 + i },
                            delta: 1000,
                        },
                    },
                ],
            });
        }
        Program {
            nodes: 2,
            slots: 16,
            locks: 1,
            phases,
        }
    }

    #[test]
    fn an_injected_fault_shrinks_to_almost_nothing() {
        let p = noisy_prog();
        let fault = Fault {
            phase: 3,
            write: 0,
            byte: 1,
        };
        assert!(
            check_case(&p, 2, Some(fault)).is_some(),
            "fault must reproduce"
        );
        let small = shrink(&p, 2, Some(fault), DEFAULT_BUDGET);
        assert!(
            check_case(&small, 2, Some(fault)).is_some(),
            "shrunk case still fails"
        );
        assert_eq!(small.phases.len(), 1, "one phase survives");
        assert_eq!(
            small.action_count(),
            1,
            "one remote write survives: {small:?}"
        );
        let ops: usize = small.lower(0x1000).iter().map(|p| p.op_count()).sum();
        assert!(
            (1..=12).contains(&ops),
            "lowered ops within the acceptance bound: {ops}"
        );
    }

    #[test]
    fn simplification_reduces_operands() {
        use ActionKind::*;
        let k = Store {
            dst: Cell { pe: 1, slot: 0 },
            value: 0xFFFF,
        };
        assert_eq!(
            simpler_kinds(k),
            vec![Store {
                dst: Cell { pe: 1, slot: 0 },
                value: 1
            }]
        );
        let s = BulkWriteStrided {
            dst: Cell { pe: 1, slot: 0 },
            count: 5,
            stride: 3,
            from: 0,
        };
        assert_eq!(simpler_kinds(s).len(), 2, "count and stride variants");
        assert!(simpler_kinds(Read {
            src: Cell { pe: 0, slot: 0 }
        })
        .is_empty());
    }

    #[test]
    fn shrink_respects_the_budget() {
        let p = noisy_prog();
        let fault = Fault {
            phase: 0,
            write: 0,
            byte: 0,
        };
        // Zero budget: nothing shrinks, input returned unchanged.
        let same = shrink(&p, 2, Some(fault), 0);
        assert_eq!(same, p);
    }
}
