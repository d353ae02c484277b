//! Optional event tracing.
//!
//! When enabled, the machine records every architectural operation with
//! its issuing node, target PE, virtual start time and cost — the
//! simulator equivalent of the logic-analyzer traces a gray-box study
//! leans on when a probe's numbers look wrong. An event is named by the
//! same [`OpKind`] the op is counted and latency-sampled under: each op
//! records all three in one place. Tracing is off by default, costs
//! nothing when off, and covers direct-engine ops only (sharded phases
//! are not traced).

use std::collections::VecDeque;
use t3d_perf::OpKind;

/// One recorded operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Issuing node.
    pub pe: u32,
    /// Operation kind.
    pub kind: OpKind,
    /// The PE the operation acts on: the remote node of a remote load,
    /// store, prefetch, BLT, message or atomic, or the annex register's
    /// new target; the issuer itself otherwise.
    pub target: u32,
    /// Address operand (virtual address, offset or register index; 0
    /// where meaningless).
    pub addr: u64,
    /// Node clock when the operation began.
    pub start: u64,
    /// Cycles the operation cost the issuing node.
    pub cycles: u64,
}

impl TraceEvent {
    /// Short text label: the kind's label, plus `->target` when the
    /// operation acts on another PE (used by the dump and the
    /// Chrome-trace export).
    pub fn label(&self) -> String {
        if self.target == self.pe {
            self.kind.label().to_string()
        } else {
            format!("{}->{}", self.kind.label(), self.target)
        }
    }
}

/// A bounded trace buffer (oldest events drop when full).
///
/// # Example
///
/// ```
/// use t3d_machine::{Cpu, Machine, MachineConfig, OpKind};
///
/// let mut m = Machine::new(MachineConfig::t3d(2));
/// m.enable_trace(128);
/// let mut cpu = Cpu::new(&mut m, 0);
/// cpu.st8(0x40, 7);
/// cpu.memory_barrier();
/// let kinds: Vec<OpKind> = m.tracer().events().map(|e| e.kind).collect();
/// assert_eq!(kinds, [OpKind::StLocal, OpKind::Fence]);
/// assert!(m.tracer().dump().contains("fence"));
/// print!("{}", m.tracer().dump());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    enabled: bool,
    cap: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl Tracer {
    /// Enables tracing with space for `cap` events. Events held beyond
    /// a smaller new capacity drop, oldest first, and count as dropped.
    pub(crate) fn enable(&mut self, cap: usize) {
        assert!(cap > 0, "trace buffer needs capacity");
        self.enabled = true;
        self.cap = cap;
        let excess = self.events.len().saturating_sub(cap);
        self.events.drain(..excess);
        self.dropped += excess as u64;
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records an event (no-op when disabled).
    pub(crate) fn record(&mut self, ev: TraceEvent) {
        if !self.enabled {
            return;
        }
        if self.events.len() == self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }

    /// The recorded events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of recorded events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events dropped because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Clears the buffer and the drop counter.
    pub fn clear(&mut self) {
        self.events.clear();
        self.dropped = 0;
    }

    /// Renders the trace as text: a header with the buffer state (so a
    /// truncated trace announces itself up front), then one line per
    /// event.
    pub fn dump(&self) -> String {
        let mut out = format!(
            "trace: {} events held, {} dropped (cap {})\n",
            self.events.len(),
            self.dropped,
            self.cap
        );
        for e in &self.events {
            out.push_str(&format!(
                "[{:>10}] PE{:<3} {:<16} addr={:#010x} cost={} cy\n",
                e.start,
                e.pe,
                e.label(),
                e.addr,
                e.cycles
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(pe: u32, start: u64) -> TraceEvent {
        TraceEvent {
            pe,
            kind: OpKind::LdLocal,
            target: pe,
            addr: 0x40,
            start,
            cycles: 1,
        }
    }

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::default();
        t.record(ev(0, 0));
        assert!(t.is_empty());
    }

    #[test]
    fn bounded_buffer_drops_oldest() {
        let mut t = Tracer::default();
        t.enable(3);
        for i in 0..5 {
            t.record(ev(0, i));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        assert_eq!(
            t.events().next().unwrap().start,
            2,
            "oldest surviving event"
        );
    }

    #[test]
    fn dump_is_readable() {
        let mut t = Tracer::default();
        t.enable(8);
        t.record(TraceEvent {
            pe: 1,
            kind: OpKind::FetchInc,
            target: 0,
            addr: 0,
            start: 100,
            cycles: 109,
        });
        let d = t.dump();
        assert!(d.contains("PE1"));
        assert!(d.contains("fetch-inc->0"));
        assert!(d.contains("cost=109"));
        assert!(
            d.starts_with("trace: 1 events held, 0 dropped (cap 8)"),
            "header announces buffer state: {d}"
        );
    }

    #[test]
    fn dump_header_reports_drops() {
        let mut t = Tracer::default();
        t.enable(2);
        for i in 0..5 {
            t.record(ev(0, i));
        }
        assert!(t
            .dump()
            .starts_with("trace: 2 events held, 3 dropped (cap 2)"));
    }

    #[test]
    fn shrinking_the_capacity_trims_the_buffer() {
        let mut t = Tracer::default();
        t.enable(64);
        for i in 0..10 {
            t.record(ev(0, i));
        }
        t.enable(4);
        assert_eq!((t.len(), t.dropped()), (4, 6));
        assert_eq!(t.events().next().unwrap().start, 6, "oldest drop first");
        t.record(ev(0, 10));
        assert_eq!((t.len(), t.dropped()), (4, 7));
    }

    #[test]
    fn clear_resets() {
        let mut t = Tracer::default();
        t.enable(1);
        t.record(ev(0, 0));
        t.record(ev(0, 1));
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
    }
}
