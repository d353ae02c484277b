//! A coarse hazard scan straight over the machine's architectural
//! trace.
//!
//! Raw shell programs (no `splitc` runtime) still leave a full record
//! in [`t3d_machine::Tracer`]: one [`TraceEvent`](t3d_machine::TraceEvent)
//! per op, named by the machine's one op vocabulary, [`OpKind`], with
//! the PE it acts on. This pass walks it with write-buffer shadow
//! state: which stores each PE still has buffered (cleared by its
//! fences, ack waits and barriers, hardware or fuzzy), which prefetches
//! are outstanding, and every store's position in the stream. It
//! reports the same [`DiagKind`] vocabulary as the split-phase
//! analyzer, with 8-byte access granularity (the trace does not carry
//! lengths — a documented imprecision).
//!
//! # Example
//!
//! ```
//! use t3d_machine::{Cpu, Machine, MachineConfig, OpKind};
//! use t3d_shell::FuncCode;
//!
//! let mut m = Machine::new(MachineConfig::t3d(2));
//! m.enable_trace(256);
//! // Store to PE 1 through annex register 1, read it back through
//! // register 2 without a fence: the synonym trap.
//! let mut cpu = Cpu::new(&mut m, 0);
//! cpu.annex_set(1, 1, FuncCode::Uncached);
//! cpu.annex_set(2, 1, FuncCode::Uncached);
//! cpu.st8(cpu.va(1, 0x100), 7);
//! let _ = cpu.ld8(cpu.va(2, 0x100));
//! let stream: Vec<_> = m.tracer().events().map(|e| (e.kind, e.target)).collect();
//! assert_eq!(stream[2..], [(OpKind::StRemote, 1), (OpKind::LdRemote, 1)]);
//! let report = t3dsan::trace_scan::scan_trace(&m);
//! assert_eq!(report.kinds(), vec![t3dsan::DiagKind::AnnexSynonymHazard]);
//! ```

use t3d_machine::{Machine, OpKind};

use crate::report::{DiagKind, Diagnostic, Report};

/// Width assumed for every traced access (the trace has no lengths).
const ACCESS_BYTES: u64 = 8;

struct PendingStore {
    writer: u32,
    target: u32,
    off: u64,
    reg: usize,
}

struct StoreHist {
    target: u32,
    off: u64,
    idx: u64,
}

struct Fetch {
    target: u32,
    off: u64,
    idx: u64,
}

fn overlap(a: u64, b: u64) -> bool {
    a < b + ACCESS_BYTES && b < a + ACCESS_BYTES
}

/// Scans `m`'s recorded trace for hazards (see the module docs).
pub fn scan_trace(m: &Machine) -> Report {
    let mut pending: Vec<PendingStore> = Vec::new();
    let mut history: Vec<StoreHist> = Vec::new();
    let mut fetches: Vec<Vec<Fetch>> = (0..m.nodes()).map(|_| Vec::new()).collect();
    let mut diagnostics: Vec<Diagnostic> = Vec::new();
    let mut events = 0u64;

    let diag = |diagnostics: &mut Vec<Diagnostic>,
                kind: DiagKind,
                pe: u32,
                target: u32,
                addr: u64,
                time: u64,
                source: &'static str,
                detail: String| {
        for d in diagnostics.iter_mut() {
            if d.kind == kind && d.pe == pe && d.target == target && d.addr == addr {
                d.count += 1;
                return;
            }
        }
        diagnostics.push(Diagnostic {
            kind,
            pe,
            target,
            addr,
            time,
            source,
            count: 1,
            detail,
        });
    };

    for (i, e) in m.tracer().events().enumerate() {
        events += 1;
        let idx = i as u64;
        let (pe, t) = (e.pe, e.target);
        match e.kind {
            OpKind::StRemote => {
                let (reg, off) = m.split_va(e.addr);
                pending.push(PendingStore {
                    writer: pe,
                    target: t,
                    off,
                    reg,
                });
                history.push(StoreHist {
                    target: t,
                    off,
                    idx,
                });
            }
            OpKind::StLocal => {
                pending.push(PendingStore {
                    writer: pe,
                    target: pe,
                    off: e.addr,
                    reg: 0,
                });
                history.push(StoreHist {
                    target: pe,
                    off: e.addr,
                    idx,
                });
            }
            OpKind::Fence | OpKind::AckWait | OpKind::Barrier => {
                pending.retain(|p| p.writer != pe);
            }
            OpKind::LdRemote => {
                let (reg, off) = m.split_va(e.addr);
                if let Some(p) = pending
                    .iter()
                    .find(|p| p.writer == pe && p.target == t && p.reg != reg)
                {
                    diag(
                        &mut diagnostics,
                        DiagKind::AnnexSynonymHazard,
                        pe,
                        t,
                        off,
                        e.start,
                        "ld",
                        format!(
                            "load via annex reg {reg} while stores via reg {} are buffered",
                            p.reg
                        ),
                    );
                }
                if let Some(p) = pending
                    .iter()
                    .find(|p| p.target == t && p.writer != pe && overlap(p.off, off))
                {
                    diag(
                        &mut diagnostics,
                        DiagKind::StaleStoreRead,
                        pe,
                        t,
                        off,
                        e.start,
                        "ld",
                        format!("PE {} still has a store to these bytes buffered", p.writer),
                    );
                }
            }
            OpKind::LdLocal => {
                if let Some(p) = pending
                    .iter()
                    .find(|p| p.target == pe && p.writer != pe && overlap(p.off, e.addr))
                {
                    diag(
                        &mut diagnostics,
                        DiagKind::StaleStoreRead,
                        pe,
                        pe,
                        e.addr,
                        e.start,
                        "ld",
                        format!("PE {} still has a store to these bytes buffered", p.writer),
                    );
                }
            }
            OpKind::StatusPoll if pending.iter().any(|p| p.writer == pe && p.target != pe) => {
                diag(
                    &mut diagnostics,
                    DiagKind::StaleStoreRead,
                    pe,
                    pe,
                    0,
                    e.start,
                    "poll_status",
                    "status bit polled with writes still in the write buffer (fence first)".into(),
                );
            }
            OpKind::Fetch => {
                let (_, off) = m.split_va(e.addr);
                fetches[pe as usize].push(Fetch {
                    target: t,
                    off,
                    idx,
                });
            }
            OpKind::Pop if !fetches[pe as usize].is_empty() => {
                let f = fetches[pe as usize].remove(0);
                if let Some(h) = history
                    .iter()
                    .find(|h| h.target == f.target && h.idx > f.idx && overlap(h.off, f.off))
                {
                    diag(
                        &mut diagnostics,
                        DiagKind::PrefetchOrderMisuse,
                        pe,
                        f.target,
                        f.off,
                        e.start,
                        "pop_prefetch",
                        format!(
                            "popped value was bound before the store at stream position {}",
                            h.idx
                        ),
                    );
                }
            }
            _ => {}
        }
    }
    Report {
        diagnostics,
        events_processed: events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use t3d_machine::{Cpu, MachineConfig};
    use t3d_shell::FuncCode;

    fn machine2() -> Machine {
        let mut m = Machine::new(MachineConfig::t3d(2));
        m.enable_trace(1024);
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
}
