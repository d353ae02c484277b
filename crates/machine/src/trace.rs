//! Optional event tracing.
//!
//! When enabled, the machine records every architectural operation with
//! its issuing node, virtual start time and cost — the simulator
//! equivalent of the logic-analyzer traces a gray-box study leans on
//! when a probe's numbers look wrong. Tracing is off by default and
//! costs nothing when off.

use std::collections::VecDeque;

/// What kind of operation an event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// Local load.
    LoadLocal,
    /// Remote load via the annex (target PE attached).
    LoadRemote(u32),
    /// Local store.
    StoreLocal,
    /// Remote store via the annex.
    StoreRemote(u32),
    /// Memory barrier.
    MemoryBarrier,
    /// Prefetch issue.
    Fetch(u32),
    /// Prefetch queue pop.
    Pop,
    /// Acknowledgement wait (status-bit spin).
    AckWait,
    /// BLT invocation.
    Blt(u32),
    /// Message send.
    MsgSend(u32),
    /// Message receive (interrupt).
    MsgRecv,
    /// Fetch&increment.
    FetchInc(u32),
    /// Atomic swap.
    Swap(u32),
    /// Swap-buffer readback after an atomic swap.
    SwapLoad,
    /// Global barrier episode.
    Barrier,
    /// Write-ack status-bit poll (non-blocking).
    StatusPoll,
    /// BLT completion wait.
    BltWait,
    /// DTB annex register write (target PE attached).
    AnnexSet(u32),
    /// Fuzzy barrier arrival (work may continue until the wait).
    FuzzyBarrierStart,
    /// Fuzzy barrier completion wait.
    FuzzyBarrierEnd,
}

impl TraceKind {
    /// Short text label (used by the dump and the Chrome-trace export).
    pub fn label(self) -> String {
        match self {
            TraceKind::LoadLocal => "ld.local".into(),
            TraceKind::LoadRemote(t) => format!("ld.remote->{t}"),
            TraceKind::StoreLocal => "st.local".into(),
            TraceKind::StoreRemote(t) => format!("st.remote->{t}"),
            TraceKind::MemoryBarrier => "mb".into(),
            TraceKind::Fetch(t) => format!("fetch->{t}"),
            TraceKind::Pop => "pop".into(),
            TraceKind::AckWait => "ack.wait".into(),
            TraceKind::Blt(t) => format!("blt->{t}"),
            TraceKind::MsgSend(t) => format!("msg.send->{t}"),
            TraceKind::MsgRecv => "msg.recv".into(),
            TraceKind::FetchInc(t) => format!("f&i->{t}"),
            TraceKind::Swap(t) => format!("swap->{t}"),
            TraceKind::SwapLoad => "swap.load".into(),
            TraceKind::Barrier => "barrier".into(),
            TraceKind::StatusPoll => "status.poll".into(),
            TraceKind::BltWait => "blt.wait".into(),
            TraceKind::AnnexSet(t) => format!("annex.set->{t}"),
            TraceKind::FuzzyBarrierStart => "fbar.start".into(),
            TraceKind::FuzzyBarrierEnd => "fbar.end".into(),
        }
    }
}

/// One recorded operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Issuing node.
    pub pe: u32,
    /// Operation kind.
    pub kind: TraceKind,
    /// Address operand (virtual address or offset; 0 where meaningless).
    pub addr: u64,
    /// Node clock when the operation began.
    pub start: u64,
    /// Cycles the operation cost the issuing node.
    pub cycles: u64,
}

/// A bounded trace buffer (oldest events drop when full).
///
/// # Example
///
/// ```
/// use t3d_machine::{Cpu, Machine, MachineConfig};
///
/// let mut m = Machine::new(MachineConfig::t3d(2));
/// m.enable_trace(128);
/// let mut cpu = Cpu::new(&mut m, 0);
/// cpu.st8(0x40, 7);
/// cpu.memory_barrier();
/// assert_eq!(m.tracer().len(), 2);
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
    /// Trace-buffer capacity from the `T3D_TRACE_CAP` environment
    /// variable, or `fallback` when unset. Enable sites pass their old
    /// hard-coded capacity as the fallback, so long runs can widen the
    /// buffer without a rebuild.
    ///
    /// # Panics
    ///
    /// A set-but-broken knob panics instead of silently falling back:
    /// `T3D_TRACE_CAP=abc` or `=0` is a misconfiguration the user must
    /// see, matching the other env-knob conventions.
    pub fn env_cap(fallback: usize) -> usize {
        Self::cap_from(std::env::var("T3D_TRACE_CAP").ok().as_deref(), fallback)
    }

    /// [`Tracer::env_cap`] with the variable's value passed explicitly
    /// (`None` = unset), so the policy is testable without mutating the
    /// process environment under threaded tests.
    pub fn cap_from(value: Option<&str>, fallback: usize) -> usize {
        let Some(raw) = value else {
            return fallback;
        };
        match raw.trim().parse::<usize>() {
            Ok(cap) if cap > 0 => cap,
            _ => panic!(
                "T3D_TRACE_CAP={raw:?} is not a positive event count; \
                 unset it or pass an integer >= 1"
            ),
        }
    }

    /// Enables tracing with space for `cap` events.
    pub fn enable(&mut self, cap: usize) {
        assert!(cap > 0, "trace buffer needs capacity");
        self.enabled = true;
        self.cap = cap;
    }

    /// Disables tracing (the buffer is kept).
    pub fn disable(&mut self) {
        self.enabled = false;
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records an event (no-op when disabled).
    pub fn record(&mut self, ev: TraceEvent) {
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
                e.kind.label(),
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
            kind: TraceKind::LoadLocal,
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
            kind: TraceKind::FetchInc(0),
            addr: 0,
            start: 100,
            cycles: 109,
        });
        let d = t.dump();
        assert!(d.contains("PE1"));
        assert!(d.contains("f&i->0"));
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
    fn env_cap_falls_back_when_unset() {
        // The suite never sets T3D_TRACE_CAP (tests run threaded, so the
        // live env path is exercised against the unset default only;
        // the set paths go through cap_from below).
        assert_eq!(Tracer::env_cap(4096), 4096);
        assert_eq!(Tracer::cap_from(None, 4096), 4096);
    }

    #[test]
    fn cap_from_accepts_positive_integers() {
        assert_eq!(Tracer::cap_from(Some("128"), 4096), 128);
        assert_eq!(Tracer::cap_from(Some("  7 "), 4096), 7);
    }

    #[test]
    #[should_panic(expected = "T3D_TRACE_CAP=\"abc\"")]
    fn cap_from_rejects_garbage_loudly() {
        Tracer::cap_from(Some("abc"), 4096);
    }

    #[test]
    #[should_panic(expected = "T3D_TRACE_CAP=\"0\"")]
    fn cap_from_rejects_zero_loudly() {
        Tracer::cap_from(Some("0"), 4096);
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
