//! A hazard scan straight over the machine's op log.
//!
//! Raw shell programs (no `splitc` runtime) still leave a full record
//! in the machine's [op log](t3d_machine::oplog): one
//! [`LogEntry`](t3d_machine::LogEntry) per call, on the direct engine
//! and inside sharded phases, with its arguments and so its exact byte
//! span. This pass walks it with write-buffer shadow state: which
//! stores each PE still has buffered (cleared by its fences, ack waits
//! and barriers, hardware or fuzzy), which prefetches are outstanding,
//! and every store's position in the log. It reports the same
//! [`DiagKind`] vocabulary as the split-phase analyzer. Two accesses
//! conflict when their byte spans on the same PE overlap.
//!
//! # Example
//!
//! ```
//! use t3d_machine::{Cpu, Machine, MachineConfig};
//! use t3d_shell::FuncCode;
//!
//! let mut m = Machine::new(MachineConfig::t3d(2));
//! m.log_ops(true);
//! // Store to PE 1 through annex register 1, read it back through
//! // register 2 without a fence: the synonym trap.
//! let mut cpu = Cpu::new(&mut m, 0);
//! cpu.annex_set(1, 1, FuncCode::Uncached);
//! cpu.annex_set(2, 1, FuncCode::Uncached);
//! cpu.st8(cpu.va(1, 0x100), 7);
//! let _ = cpu.ld8(cpu.va(2, 0x100));
//! let report = t3dsan::trace_scan::scan_trace(&m);
//! assert_eq!(report.kinds(), vec![t3dsan::DiagKind::AnnexSynonymHazard]);
//! ```

use std::collections::VecDeque;
use std::ops::Range;
use t3d_machine::oplog::targets;
use t3d_machine::{CpuOp, Machine, OpKind};

use crate::report::{DiagKind, Diagnostic, Report};

/// A store still in its writer's write buffer.
struct Pending {
    writer: u32,
    target: u32,
    reg: usize,
    span: Range<u64>,
}

/// Whether two byte spans share a byte.
fn overlap(a: &Range<u64>, b: &Range<u64>) -> bool {
    a.start < b.end && b.start < a.end
}

/// Folds `d` into the diagnostics: a repeat at the same site counts.
fn report(diagnostics: &mut Vec<Diagnostic>, d: Diagnostic) {
    let site = |x: &Diagnostic| (x.kind, x.pe, x.target, x.addr);
    match diagnostics.iter_mut().find(|x| site(x) == site(&d)) {
        Some(x) => x.count += 1,
        None => diagnostics.push(d),
    }
}

/// Scans `m`'s op log for hazards (see the module docs).
pub fn scan_trace(m: &Machine) -> Report {
    let mut pending: Vec<Pending> = Vec::new();
    // Every store: (target, span, log position).
    let mut history: Vec<(u32, Range<u64>, usize)> = Vec::new();
    // Each PE's outstanding prefetches: (target, span, log position).
    let mut fetches = vec![VecDeque::new(); m.nodes()];
    let mut diagnostics = Vec::new();
    let log = m.op_log();
    for (idx, (e, t)) in targets(log).enumerate() {
        let pe = e.pe;
        let mut diag = |kind, target, addr, source, detail| {
            let d = Diagnostic {
                kind,
                pe,
                target,
                addr,
                time: e.start,
                source,
                count: 1,
                detail,
            };
            report(&mut diagnostics, d);
        };
        match &e.op {
            CpuOp::St(va, data) => {
                let span = va.off..va.off + data.len() as u64;
                history.push((t, span.clone(), idx));
                pending.push(Pending {
                    writer: pe,
                    target: t,
                    reg: va.annex,
                    span,
                });
            }
            CpuOp::Ld(va, len) => {
                let span = va.off..va.off + *len as u64;
                let hit = |p: &&Pending| p.target == t && overlap(&p.span, &span);
                let mut hits = pending.iter().filter(hit);
                if let Some(p) = hits.clone().find(|p| p.writer == pe && p.reg != va.annex) {
                    let why = format!(
                        "load via annex reg {} while a store via reg {} is buffered",
                        va.annex, p.reg
                    );
                    diag(DiagKind::AnnexSynonymHazard, t, va.off, "ld", why);
                }
                if let Some(p) = hits.find(|p| p.writer != pe) {
                    let why = format!("PE {} still has a store to these bytes buffered", p.writer);
                    diag(DiagKind::StaleStoreRead, t, va.off, "ld", why);
                }
            }
            CpuOp::StatusPoll if pending.iter().any(|p| p.writer == pe && p.target != pe) => {
                let why = "status bit polled with writes still in the write buffer (fence first)";
                diag(DiagKind::StaleStoreRead, pe, 0, "poll_status", why.into());
            }
            CpuOp::Fetch(va) => fetches[pe as usize].push_back((t, va.off..va.off + 8, idx)),
            // A pop that took no cycles found nothing to pop.
            CpuOp::Pop if e.cycles > 0 => {
                let Some((target, span, at)) = fetches[pe as usize].pop_front() else {
                    continue;
                };
                let later = |h: &&(u32, Range<u64>, usize)| {
                    h.0 == target && h.2 > at && overlap(&h.1, &span)
                };
                if let Some((_, _, store)) = history.iter().find(later) {
                    let why =
                        format!("popped value was bound before the store at log position {store}");
                    diag(
                        DiagKind::PrefetchOrderMisuse,
                        target,
                        span.start,
                        "pop_prefetch",
                        why,
                    );
                }
            }
            op if matches!(
                op.kind(),
                Some(OpKind::Fence | OpKind::AckWait | OpKind::Barrier)
            ) =>
            {
                pending.retain(|p| p.writer != pe);
            }
            _ => {}
        }
    }
    Report {
        diagnostics,
        events_processed: log.len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use t3d_machine::{Cpu, MachineConfig};
    use t3d_shell::FuncCode;

    fn machine2() -> Machine {
        let mut m = Machine::new(MachineConfig::t3d(2));
        m.log_ops(true);
        m
    }

    /// PE 0's handle, with annex register 1 pointed at PE 1.
    fn aimed(m: &mut Machine) -> Cpu<'_> {
        let mut cpu = Cpu::new(m, 0);
        cpu.annex_set(1, 1, FuncCode::Uncached);
        cpu
    }

    #[test]
    fn fenced_remote_traffic_is_clean() {
        let mut m = machine2();
        let mut cpu = aimed(&mut m);
        cpu.st8(cpu.va(1, 0x100), 7);
        cpu.memory_barrier();
        cpu.wait_write_acks();
        let _ = cpu.ld8(cpu.va(1, 0x100));
        assert!(scan_trace(&m).is_empty());
    }

    #[test]
    fn status_poll_before_fence_is_flagged() {
        let mut m = machine2();
        let mut cpu = aimed(&mut m);
        cpu.st8(cpu.va(1, 0x100), 7);
        let _ = cpu.poll_status();
        let r = scan_trace(&m);
        assert_eq!(r.kinds(), vec![DiagKind::StaleStoreRead]);
        assert!(r.diagnostics[0].detail.contains("status bit"));
    }

    #[test]
    fn buffered_local_store_read_remotely_is_flagged() {
        let mut m = machine2();
        Cpu::new(&mut m, 1).st8(0x200, 9); // PE 1 buffers a local store
        let mut cpu = aimed(&mut m);
        let _ = cpu.ld8(cpu.va(1, 0x200));
        assert_eq!(scan_trace(&m).kinds(), vec![DiagKind::StaleStoreRead]);
    }

    #[test]
    fn pop_after_store_to_source_is_flagged() {
        let mut m = machine2();
        let mut cpu = aimed(&mut m);
        assert!(cpu.fetch(cpu.va(1, 0x300)));
        cpu.st8(cpu.va(1, 0x300), 1);
        cpu.memory_barrier();
        let _ = cpu.pop_prefetch();
        let r = scan_trace(&m);
        assert!(r.kinds().contains(&DiagKind::PrefetchOrderMisuse));
    }

    #[test]
    fn synonym_accesses_to_disjoint_bytes_are_clean() {
        // One byte stored via register 1 and one byte loaded 4 bytes
        // further via register 2, both naming PE 1: the load cannot see
        // a stale copy of bytes it does not share with the store.
        let mut m = machine2();
        let mut cpu = aimed(&mut m);
        cpu.annex_set(2, 1, FuncCode::Uncached);
        cpu.st(cpu.va(1, 0x100), &[7]);
        cpu.ld(cpu.va(2, 0x104), &mut [0]);
        assert!(scan_trace(&m).is_empty());
        let mut cpu = Cpu::new(&mut m, 0);
        cpu.ld(cpu.va(2, 0x100), &mut [0]);
        assert_eq!(scan_trace(&m).kinds(), vec![DiagKind::AnnexSynonymHazard]);
    }

    #[test]
    fn a_load_inside_a_wide_buffered_store_is_flagged() {
        // PE 1 buffers a 16-byte store; PE 0 loads its second word.
        let mut m = machine2();
        Cpu::new(&mut m, 1).st(0x200, &[9; 16]);
        let mut cpu = aimed(&mut m);
        let _ = cpu.ld8(cpu.va(1, 0x208));
        let r = scan_trace(&m);
        assert_eq!(r.kinds(), vec![DiagKind::StaleStoreRead]);
        assert_eq!(r.diagnostics[0].addr, 0x208);
    }

    #[test]
    fn sharded_phases_are_scanned() {
        // Inside a phase, PE 1 leaves a store to PE 0 buffered and polls.
        let mut m = machine2();
        m.sharded_phase(t3d_machine::PhaseDriver::Seq, |cpu| {
            if cpu.pe() == 1 {
                cpu.annex_set(1, 0, FuncCode::Uncached);
                cpu.st8(cpu.va(1, 0x100), 1);
                let _ = cpu.poll_status();
            }
        });
        let r = scan_trace(&m);
        assert_eq!(r.kinds(), vec![DiagKind::StaleStoreRead]);
        assert_eq!((r.diagnostics[0].pe, r.events_processed), (1, 4));
    }
}
