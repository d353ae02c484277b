//! Executes a program three ways and compares.
//!
//! One [`run_program`] call builds a fresh `SplitC` (allocation is
//! deterministic, so every run sees the same region base), lowers the
//! program, executes it under the given phase driver — sharded phases
//! through `par_phase_with`, direct phases as sequential `on` calls —
//! and snapshots memory *and* virtual clocks at every terminator. The
//! sanitizer runs in `Collect` mode on every execution regardless of
//! `T3D_SAN` (generated programs are clean by construction, so any
//! diagnostic is a finding).
//!
//! [`check_case`] is the oracle: Seq and Par drivers must agree
//! bit-identically on memory, clocks, results, phase count, op
//! counters, attribution ledgers and sanitizer findings; both must
//! agree with
//! the flat reference model's memory at every barrier and its predicted
//! results; and the sanitizer report must be empty. The optional
//! [`Fault`] flips one byte of a word the Par run wrote remotely —
//! exactly what a lost or misapplied merged effect would look like — to
//! prove the oracle and shrinker bite.

use crate::program::{ActionKind, Cell, LoweredPhase, Phase, Program, Terminator, WORD};
use crate::refmodel::{interpret, RefOutcome};
use splitc::{SplitC, SplitcConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use t3d_machine::{MachineConfig, MemSnapshot, OpStats, PerfMode, PerfReport, PhaseDriver};
use t3dsan::SanitizeMode;

/// Fault injection: after the terminator of a phase that writes on
/// another PE, flip every bit of one byte of a word it wrote there. A
/// program with no remote write is left alone, so the fault depends on
/// the program the way a merge bug does, and a shrunk reproducer must
/// keep the write it corrupts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// Which of the phases with a remote write is hit (mod their count).
    pub phase: usize,
    /// Which of that phase's remote writes is hit (mod their count).
    pub write: usize,
    /// Byte within the written word (mod 8).
    pub byte: u64,
}

impl Fault {
    /// Where the fault lands in `prog`: the phase after whose
    /// terminator it strikes, and the word and byte it flips. `None`
    /// if no phase writes remotely.
    fn site(&self, prog: &Program) -> Option<(usize, Cell, u64)> {
        let hit: Vec<(usize, Vec<Cell>)> = prog
            .phases
            .iter()
            .map(remote_writes)
            .enumerate()
            .filter(|(_, writes)| !writes.is_empty())
            .collect();
        let (phase, writes) = hit.get(self.phase % hit.len().max(1))?;
        Some((*phase, writes[self.write % writes.len()], self.byte % WORD))
    }
}

/// The first word of every remote write in `phase`, in action order.
fn remote_writes(phase: &Phase) -> Vec<Cell> {
    use ActionKind::*;
    phase
        .actions
        .iter()
        .filter_map(|a| {
            let dst = match a.kind {
                Write { dst, .. }
                | WriteU32 { dst, .. }
                | ByteWrite { dst, .. }
                | Put { dst, .. }
                | Store { dst, .. }
                | BulkWrite { dst, .. }
                | BulkPut { dst, .. }
                | BulkWriteStrided { dst, .. }
                | AmAdd { dst, .. } => dst,
                LockGuardedWrite { lock, dst_pe, .. } => Cell {
                    pe: dst_pe,
                    slot: u64::from(lock),
                },
                _ => return None,
            };
            (dst.pe != a.pe).then_some(dst)
        })
        .collect()
}

/// What one execution produced.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Memory + clock snapshot at each phase terminator.
    pub snaps: Vec<MemSnapshot>,
    /// Per PE: results of value-producing ops, in issue order.
    pub results: Vec<Vec<u64>>,
    /// Sanitizer findings (rendered kinds; empty = clean).
    pub san: Vec<String>,
    /// Region base the program was lowered at (deterministic; the
    /// static analyzer lints the same lowering).
    pub base: u64,
    /// Per-PE operation counters at program end.
    pub ops: Vec<OpStats>,
    /// The cycle-attribution report (collected on every run; the
    /// Seq/Par oracle compares ledgers bit-for-bit).
    pub perf: PerfReport,
}

/// Runs `prog` under `driver`, optionally injecting `fault` (the
/// self-test hook). Returns the run record, or the panic message if the
/// runtime rejected the program.
pub fn run_program(
    prog: &Program,
    driver: PhaseDriver,
    fault: Option<Fault>,
) -> Result<RunRecord, String> {
    let result = catch_unwind(AssertUnwindSafe(|| run_program_inner(prog, driver, fault)));
    result.map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic".to_string()
        }
    })
}

fn run_program_inner(prog: &Program, driver: PhaseDriver, fault: Option<Fault>) -> RunRecord {
    let n = prog.nodes as usize;
    let cfg = SplitcConfig {
        sanitize: SanitizeMode::Collect,
        ..SplitcConfig::t3d()
    };
    let mut sc = SplitC::with_config(MachineConfig::t3d(prog.nodes), cfg);
    sc.machine().set_perf_mode(PerfMode::Counters);
    let base = sc.alloc(prog.region_bytes(), 8);
    let lowered = prog.lower(base);
    let results: Vec<Mutex<Vec<u64>>> = (0..n).map(|_| Mutex::new(Vec::new())).collect();
    let mut snaps = Vec::with_capacity(lowered.len());
    let site = fault.and_then(|f| f.site(prog));
    for (i, phase) in lowered.iter().enumerate() {
        let terminator = match phase {
            LoweredPhase::Sharded { ops, terminator } => {
                sc.par_phase_with(driver, |ctx| {
                    let pe = ctx.pe();
                    let mut local = Vec::new();
                    for op in &ops[pe] {
                        if let Some(v) = ctx.exec_op(op) {
                            local.push(v);
                        }
                    }
                    if !local.is_empty() {
                        results[pe].lock().unwrap().extend(local);
                    }
                });
                *terminator
            }
            LoweredPhase::Direct { ops, terminator } => {
                for (pe, op) in ops {
                    if let Some(v) = sc.on(*pe as usize, |ctx| ctx.exec_op(op)) {
                        results[*pe as usize].lock().unwrap().push(v);
                    }
                }
                *terminator
            }
        };
        match terminator {
            Terminator::Barrier => sc.barrier(),
            Terminator::AllStoreSync => sc.all_store_sync(),
        }
        if let Some((_, c, byte)) = site.filter(|s| s.0 == i) {
            sc.machine()
                .corrupt_byte(c.pe as usize, base + c.slot * WORD + byte);
        }
        snaps.push(sc.machine_ref().snapshot_region(base, prog.region_bytes()));
    }
    let san = sc
        .san_report()
        .map(|r| r.kinds().iter().map(|k| format!("{k:?}")).collect())
        .unwrap_or_default();
    let ops = (0..n).map(|pe| sc.machine_ref().op_stats(pe)).collect();
    let perf = sc.machine_ref().perf();
    RunRecord {
        snaps,
        results: results
            .into_iter()
            .map(|m| m.into_inner().unwrap())
            .collect(),
        san,
        base,
        ops,
        perf,
    }
}

/// First mismatch between a machine snapshot and the reference model's
/// per-PE word arrays for one phase.
fn ref_mismatch(snap: &MemSnapshot, ref_mem: &[Vec<u64>]) -> Option<String> {
    for (pe, words) in ref_mem.iter().enumerate() {
        for (w, &expect) in words.iter().enumerate() {
            let got = snap.word(pe, w);
            if got != expect {
                return Some(format!(
                    "PE {pe} word {w}: machine {got:#x} vs reference {expect:#x}"
                ));
            }
        }
    }
    None
}

/// The full differential oracle. Returns `None` when the case is clean,
/// or a description of the first divergence.
pub fn check_case(prog: &Program, threads: usize, fault: Option<Fault>) -> Option<String> {
    let seq = run_program(prog, PhaseDriver::Seq, None);
    let par = run_program(prog, PhaseDriver::Par(threads), fault);
    let (seq, par) = match (seq, par) {
        (Err(e), _) => return Some(format!("panic under Seq driver: {e}")),
        (_, Err(e)) => return Some(format!("panic under Par driver: {e}")),
        (Ok(s), Ok(p)) => (s, p),
    };
    // (a) Seq and Par are bit-identical in every recorded dimension.
    if let Some(d) = seq_par_divergence(&seq, &par) {
        return Some(d);
    }
    // (b) Both agree with the flat reference model at every barrier.
    let RefOutcome {
        phase_mems,
        results,
    } = interpret(prog);
    for (i, (snap, ref_mem)) in seq.snaps.iter().zip(&phase_mems).enumerate() {
        if let Some(d) = ref_mismatch(snap, ref_mem) {
            return Some(format!("reference divergence at phase {i}: {d}"));
        }
    }
    if seq.results != results {
        return Some(format!(
            "reference result divergence: machine {:?} vs reference {:?}",
            seq.results, results
        ));
    }
    // (c) Zone-disciplined programs are sanitizer-clean.
    if !seq.san.is_empty() || !par.san.is_empty() {
        return Some(format!(
            "sanitizer findings on a clean-by-construction program: {:?}",
            if seq.san.is_empty() {
                &par.san
            } else {
                &seq.san
            }
        ));
    }
    // (d) The static analyzer agrees the program is hazard-free
    // (advisories are fine — the generator trips BLT crossovers on
    // purpose).
    let report = crate::lintbridge::lint_case(prog, seq.base);
    if !report.is_hazard_free() {
        return Some(format!(
            "static hazards on a clean-by-construction program:\n{}",
            report.render_table()
        ));
    }
    None
}

/// The first divergence between a Seq run and a Par run of one program,
/// or `None` if they are bit-identical in every recorded dimension:
/// snapshots (memory AND virtual clocks), phase count, op results,
/// per-PE operation counters, the full attribution report, and the
/// sanitizer findings.
fn seq_par_divergence(seq: &RunRecord, par: &RunRecord) -> Option<String> {
    for (i, (a, b)) in seq.snaps.iter().zip(&par.snaps).enumerate() {
        if let Some(d) = a.diff(b) {
            return Some(format!("Seq/Par divergence at phase {i}: {d}"));
        }
    }
    if seq.snaps.len() != par.snaps.len() {
        return Some(format!(
            "Seq/Par phase count divergence: {} vs {}",
            seq.snaps.len(),
            par.snaps.len()
        ));
    }
    if seq.results != par.results {
        return Some(format!(
            "Seq/Par result divergence: {:?} vs {:?}",
            seq.results, par.results
        ));
    }
    if seq.ops != par.ops {
        return Some(format!(
            "Seq/Par op-counter divergence: {:?} vs {:?}",
            seq.ops, par.ops
        ));
    }
    if seq.perf != par.perf {
        return Some("Seq/Par attribution ledger divergence".to_string());
    }
    if seq.san != par.san {
        return Some(format!(
            "Seq/Par sanitizer divergence: {:?} vs {:?}",
            seq.san, par.san
        ));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Action, PhaseKind};
    use t3d_machine::OpKind;

    fn two_phase_prog() -> Program {
        Program {
            // 4 nodes (power-of-two machines only); PE 3 stays idle.
            nodes: 4,
            slots: 12,
            locks: 2,
            phases: vec![
                Phase {
                    kind: PhaseKind::Sharded,
                    terminator: Terminator::Barrier,
                    await_stores: false,
                    actions: vec![
                        Action {
                            pe: 0,
                            kind: ActionKind::Store {
                                dst: Cell { pe: 1, slot: 3 },
                                value: 41,
                            },
                        },
                        Action {
                            pe: 1,
                            kind: ActionKind::Put {
                                dst: Cell { pe: 2, slot: 4 },
                                value: 42,
                            },
                        },
                        Action {
                            pe: 2,
                            kind: ActionKind::Get {
                                src: Cell { pe: 0, slot: 0 },
                                land: 5,
                            },
                        },
                        Action {
                            pe: 0,
                            kind: ActionKind::AmAdd {
                                dst: Cell { pe: 2, slot: 6 },
                                delta: 7,
                            },
                        },
                    ],
                },
                Phase {
                    kind: PhaseKind::Direct,
                    terminator: Terminator::AllStoreSync,
                    await_stores: true,
                    actions: vec![
                        Action {
                            pe: 1,
                            kind: ActionKind::Read {
                                src: Cell { pe: 1, slot: 3 },
                            },
                        },
                        Action {
                            pe: 0,
                            kind: ActionKind::LockGuardedWrite {
                                lock: 1,
                                dst_pe: 2,
                                value: 9,
                            },
                        },
                        Action {
                            pe: 2,
                            kind: ActionKind::Read {
                                src: Cell { pe: 2, slot: 6 },
                            },
                        },
                    ],
                },
            ],
        }
    }

    #[test]
    fn a_clean_program_passes_the_full_oracle() {
        assert_eq!(check_case(&two_phase_prog(), 2, None), None);
    }

    #[test]
    fn seq_par_comparison_covers_phase_count_and_op_counters() {
        let p = two_phase_prog();
        let seq = run_program(&p, PhaseDriver::Seq, None).unwrap();
        assert_eq!(seq_par_divergence(&seq, &seq.clone()), None);

        let mut fewer_phases = seq.clone();
        fewer_phases.snaps.pop();
        let d = seq_par_divergence(&seq, &fewer_phases);
        assert!(d.is_some_and(|m| m.contains("phase count")));

        let mut one_more_load = seq.clone();
        one_more_load.ops[0][OpKind::LdLocal] += 1;
        let d = seq_par_divergence(&seq, &one_more_load);
        assert!(d.is_some_and(|m| m.contains("op-counter")));
    }

    #[test]
    fn the_reference_model_agrees_with_the_machine() {
        let p = two_phase_prog();
        let run = run_program(&p, PhaseDriver::Seq, None).unwrap();
        assert_eq!(run.results[1], vec![41], "store visible after barrier");
        assert_eq!(run.results[2], vec![7], "AM add landed at the barrier");
        assert_eq!(run.results[0], vec![1], "lock was free");
        assert!(run.san.is_empty(), "sanitizer clean: {:?}", run.san);
    }

    #[test]
    fn an_injected_fault_is_caught() {
        let p = two_phase_prog();
        let fault = Fault {
            phase: 0,
            write: 0,
            byte: 3,
        };
        let failure = check_case(&p, 2, Some(fault));
        assert!(failure.is_some(), "flipped byte must be detected");
        let msg = failure.unwrap();
        assert!(msg.contains("divergence"), "{msg}");
        assert!(msg.contains("PE 1"), "the Store's target is hit: {msg}");
    }

    #[test]
    fn faults_hit_only_words_written_remotely() {
        let p = two_phase_prog();
        // Phase 0 writes PE 1 (Store), PE 2 (Put) and PE 2 (AmAdd);
        // its Get writes only locally.
        assert_eq!(
            remote_writes(&p.phases[0]),
            [
                Cell { pe: 1, slot: 3 },
                Cell { pe: 2, slot: 4 },
                Cell { pe: 2, slot: 6 }
            ]
        );
        // With the remote writes gone, the fault has nothing to hit.
        let mut quiet = p.clone();
        quiet.phases.truncate(1);
        quiet.phases[0]
            .actions
            .retain(|a| matches!(a.kind, ActionKind::Get { .. }));
        let fault = Fault {
            phase: 0,
            write: 0,
            byte: 0,
        };
        assert_eq!(fault.site(&quiet), None);
        assert_eq!(check_case(&quiet, 2, Some(fault)), None);
    }

    #[test]
    fn fault_indices_wrap_over_the_remote_writes() {
        let p = two_phase_prog();
        // Both phases write remotely; the last one's only remote write
        // is PE 0's lock-guarded write of group cell 1 on PE 2.
        let fault = Fault {
            phase: 99,
            write: 5,
            byte: 9,
        };
        assert_eq!(fault.site(&p), Some((1, Cell { pe: 2, slot: 1 }, 1)));
        assert!(check_case(&p, 2, Some(fault)).is_some());
    }

    #[test]
    fn empty_programs_are_clean() {
        let p = Program {
            nodes: 2,
            slots: 4,
            locks: 1,
            phases: vec![Phase {
                kind: PhaseKind::Sharded,
                terminator: Terminator::Barrier,
                await_stores: false,
                actions: vec![],
            }],
        };
        assert_eq!(check_case(&p, 2, None), None);
    }
}
