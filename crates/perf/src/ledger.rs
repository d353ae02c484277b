//! The cycle-attribution ledger: typed cost classes and per-PE
//! accumulators.

use crate::hist::Hist;

/// Number of [`CostClass`] variants (the ledger's bucket count).
pub const COST_CLASSES: usize = 25;

/// Where a cycle went. Every clock advance in the simulator credits
/// exactly one class, so per-PE bucket sums equal elapsed virtual time
/// (the conservation invariant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CostClass {
    /// Explicitly charged computation (`advance`), including runtime
    /// loop overheads and modeled FLOPs.
    Compute,
    /// DTB-Annex register updates (23 cy each).
    AnnexUpdate,
    /// TLB translation cycles (misses; hits are free).
    Tlb,
    /// L1 cache hits.
    L1Hit,
    /// L2 cache hits (workstation configuration only).
    L2Hit,
    /// Local DRAM accesses that hit the open page.
    DramPageHit,
    /// Local DRAM accesses that opened a new page on an idle bank.
    DramPageMiss,
    /// Local DRAM accesses that opened a new page on the busy bank.
    DramBankBusy,
    /// Write-buffer store issue (the steady-state store cost).
    WbufIssue,
    /// Stalls waiting for a free write-buffer entry.
    WbufStall,
    /// Memory-barrier drains of the write buffer.
    WbufDrain,
    /// Shell request launch overhead (remote read/write engines, plus
    /// the cached-read line-fill extra).
    ShellLaunch,
    /// Torus wire time (round trips and one-way hops).
    NetHop,
    /// DRAM time at the *remote* node, paid by the requester.
    RemoteDram,
    /// Queueing at a busy remote shell (contention modeling).
    Contention,
    /// Spinning on the remote-write status bit (polls and waits).
    AckWait,
    /// Prefetch-queue issue slots.
    PrefetchIssue,
    /// Prefetch-queue pops, including waiting for data to arrive.
    PrefetchWait,
    /// BLT OS-invocation start-up stalls (~180 µs).
    BltStartup,
    /// Waiting for an outstanding BLT stream to complete.
    BltWait,
    /// Message-send PAL calls.
    MsgSend,
    /// Message-receive interrupts (and handler dispatch).
    MsgRecv,
    /// Atomic-operation extra latency (fetch&inc, swap).
    Amo,
    /// Barrier instruction overhead (start + end costs).
    BarrierOverhead,
    /// Waiting at a barrier for the last arrival.
    BarrierWait,
}

impl CostClass {
    /// Every class, in ledger order.
    pub const ALL: [CostClass; COST_CLASSES] = [
        CostClass::Compute,
        CostClass::AnnexUpdate,
        CostClass::Tlb,
        CostClass::L1Hit,
        CostClass::L2Hit,
        CostClass::DramPageHit,
        CostClass::DramPageMiss,
        CostClass::DramBankBusy,
        CostClass::WbufIssue,
        CostClass::WbufStall,
        CostClass::WbufDrain,
        CostClass::ShellLaunch,
        CostClass::NetHop,
        CostClass::RemoteDram,
        CostClass::Contention,
        CostClass::AckWait,
        CostClass::PrefetchIssue,
        CostClass::PrefetchWait,
        CostClass::BltStartup,
        CostClass::BltWait,
        CostClass::MsgSend,
        CostClass::MsgRecv,
        CostClass::Amo,
        CostClass::BarrierOverhead,
        CostClass::BarrierWait,
    ];

    /// Stable kebab-case label (report and JSON key).
    pub fn label(self) -> &'static str {
        match self {
            CostClass::Compute => "compute",
            CostClass::AnnexUpdate => "annex-update",
            CostClass::Tlb => "tlb",
            CostClass::L1Hit => "l1-hit",
            CostClass::L2Hit => "l2-hit",
            CostClass::DramPageHit => "dram-page-hit",
            CostClass::DramPageMiss => "dram-page-miss",
            CostClass::DramBankBusy => "dram-bank-busy",
            CostClass::WbufIssue => "wbuf-issue",
            CostClass::WbufStall => "wbuf-stall",
            CostClass::WbufDrain => "wbuf-drain",
            CostClass::ShellLaunch => "shell-launch",
            CostClass::NetHop => "net-hop",
            CostClass::RemoteDram => "remote-dram",
            CostClass::Contention => "contention",
            CostClass::AckWait => "ack-wait",
            CostClass::PrefetchIssue => "prefetch-issue",
            CostClass::PrefetchWait => "prefetch-wait",
            CostClass::BltStartup => "blt-startup",
            CostClass::BltWait => "blt-wait",
            CostClass::MsgSend => "msg-send",
            CostClass::MsgRecv => "msg-recv",
            CostClass::Amo => "amo",
            CostClass::BarrierOverhead => "barrier-overhead",
            CostClass::BarrierWait => "barrier-wait",
        }
    }

    /// Whether this class is part of the *remote access* budget — the
    /// cycles a PE spends on communication rather than local work (the
    /// Figure 9 story told via attribution).
    pub fn is_remote(self) -> bool {
        matches!(
            self,
            CostClass::ShellLaunch
                | CostClass::NetHop
                | CostClass::RemoteDram
                | CostClass::Contention
                | CostClass::AckWait
                | CostClass::PrefetchIssue
                | CostClass::PrefetchWait
                | CostClass::BltStartup
                | CostClass::BltWait
                | CostClass::Amo
        )
    }

    fn index(self) -> usize {
        Self::ALL.iter().position(|&c| c == self).unwrap()
    }
}

/// A fixed-size cycle ledger: one bucket per [`CostClass`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ledger {
    cy: [u64; COST_CLASSES],
}

impl Default for Ledger {
    fn default() -> Self {
        Ledger {
            cy: [0; COST_CLASSES],
        }
    }
}

impl Ledger {
    /// Credits `cycles` to `class`.
    #[inline]
    pub fn add(&mut self, class: CostClass, cycles: u64) {
        self.cy[class.index()] += cycles;
    }

    /// Cycles credited to `class` so far.
    pub fn get(&self, class: CostClass) -> u64 {
        self.cy[class.index()]
    }

    /// Sum over every bucket. Under the conservation invariant this
    /// equals the PE's elapsed virtual cycles since enablement.
    pub fn total(&self) -> u64 {
        self.cy.iter().sum()
    }

    /// Sum over the remote-access classes (see [`CostClass::is_remote`]).
    pub fn remote_total(&self) -> u64 {
        CostClass::ALL
            .iter()
            .filter(|c| c.is_remote())
            .map(|&c| self.get(c))
            .sum()
    }

    /// Adds another ledger bucket-wise.
    pub fn merge(&mut self, other: &Ledger) {
        for (a, b) in self.cy.iter_mut().zip(other.cy.iter()) {
            *a += b;
        }
    }

    /// Bucket-wise difference `self - earlier` (the attribution of the
    /// interval between two snapshots). Saturates at zero, though under
    /// monotone accumulation the difference is exact.
    pub fn since(&self, earlier: &Ledger) -> Ledger {
        let mut out = Ledger::default();
        for (i, (a, b)) in self.cy.iter().zip(earlier.cy.iter()).enumerate() {
            out.cy[i] = a.saturating_sub(*b);
        }
        out
    }

    /// Non-zero buckets, in ledger order.
    pub fn entries(&self) -> impl Iterator<Item = (CostClass, u64)> + '_ {
        CostClass::ALL
            .iter()
            .map(|&c| (c, self.get(c)))
            .filter(|&(_, cy)| cy > 0)
    }

    /// Non-zero buckets, largest first (label as tiebreaker, so the
    /// order is deterministic).
    pub fn ranked(&self) -> Vec<(CostClass, u64)> {
        let mut v: Vec<_> = self.entries().collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.label().cmp(b.0.label())));
        v
    }

    /// Clears every bucket.
    pub fn clear(&mut self) {
        self.cy = [0; COST_CLASSES];
    }
}

/// Number of [`OpKind`] variants (latency-histogram lanes).
pub const OP_KINDS: usize = 19;

/// The machine's op vocabulary: every architectural operation a PE
/// issues is one of these kinds, and is counted, sampled into its
/// latency lane and traced under it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Local load.
    LdLocal,
    /// Remote (annex-translated) load.
    LdRemote,
    /// Local store.
    StLocal,
    /// Remote store (issue cost; the latency is asynchronous).
    StRemote,
    /// Memory barrier.
    Fence,
    /// Write-acknowledgement wait.
    AckWait,
    /// Prefetch issue.
    Fetch,
    /// Prefetch-queue pop.
    Pop,
    /// Fetch&increment.
    FetchInc,
    /// Atomic swap.
    Swap,
    /// Message send.
    MsgSend,
    /// Message receive.
    MsgRecv,
    /// BLT start (OS invocation).
    BltStart,
    /// BLT completion wait.
    BltWait,
    /// Global barrier episode, hardware or fuzzy (the fuzzy barrier's
    /// completion wait).
    Barrier,
    /// DTB annex register write.
    AnnexSet,
    /// Write-ack status-bit poll (non-blocking).
    StatusPoll,
    /// Swap-register load ahead of an atomic swap.
    SwapLoad,
    /// Fuzzy-barrier arrival (work may continue until the wait).
    BarrierStart,
}

impl OpKind {
    /// Every kind, in lane order (declaration order).
    pub const ALL: [OpKind; OP_KINDS] = [
        OpKind::LdLocal,
        OpKind::LdRemote,
        OpKind::StLocal,
        OpKind::StRemote,
        OpKind::Fence,
        OpKind::AckWait,
        OpKind::Fetch,
        OpKind::Pop,
        OpKind::FetchInc,
        OpKind::Swap,
        OpKind::MsgSend,
        OpKind::MsgRecv,
        OpKind::BltStart,
        OpKind::BltWait,
        OpKind::Barrier,
        OpKind::AnnexSet,
        OpKind::StatusPoll,
        OpKind::SwapLoad,
        OpKind::BarrierStart,
    ];

    /// Stable label: the registry key (`lat.` prefix added by the
    /// report builder) and the trace label.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::LdLocal => "ld.local",
            OpKind::LdRemote => "ld.remote",
            OpKind::StLocal => "st.local",
            OpKind::StRemote => "st.remote",
            OpKind::Fence => "fence",
            OpKind::AckWait => "ack.wait",
            OpKind::Fetch => "fetch",
            OpKind::Pop => "pop",
            OpKind::FetchInc => "fetch-inc",
            OpKind::Swap => "swap",
            OpKind::MsgSend => "msg.send",
            OpKind::MsgRecv => "msg.recv",
            OpKind::BltStart => "blt.start",
            OpKind::BltWait => "blt.wait",
            OpKind::Barrier => "barrier",
            OpKind::AnnexSet => "annex.set",
            OpKind::StatusPoll => "status.poll",
            OpKind::SwapLoad => "swap.load",
            OpKind::BarrierStart => "fbar.start",
        }
    }

    /// The kind's lane: its position in [`OpKind::ALL`].
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Per-op-kind latency histograms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpHists {
    lanes: [Hist; OP_KINDS],
}

impl Default for OpHists {
    fn default() -> Self {
        OpHists {
            lanes: [Hist::default(); OP_KINDS],
        }
    }
}

impl OpHists {
    /// Records one operation's cost.
    #[inline]
    pub fn record(&mut self, kind: OpKind, cycles: u64) {
        self.lanes[kind.index()].record(cycles);
    }

    /// The histogram for one kind.
    pub fn get(&self, kind: OpKind) -> &Hist {
        &self.lanes[kind.index()]
    }

    /// Merges another set lane-wise.
    pub fn merge(&mut self, other: &OpHists) {
        for (a, b) in self.lanes.iter_mut().zip(other.lanes.iter()) {
            a.merge(b);
        }
    }

    /// Clears every lane.
    pub fn clear(&mut self) {
        self.lanes = [Hist::default(); OP_KINDS];
    }
}

/// A PE's perf accumulator: the attribution baseline, the ledger and
/// the latency histograms. Owned by node state so the sharded phase
/// engine carries it thread-privately — sequential and parallel drivers
/// accumulate identically.
///
/// The histograms are most of its size (about 10 KB a PE), so they are
/// held only while collection is on, and their presence is the on/off
/// gate: an unprofiled machine builds and runs without them.
#[derive(Debug, Clone, Default)]
pub struct PerfAccum {
    /// The PE's clock when collection was (re)enabled; elapsed =
    /// clock − base.
    pub base_clock: u64,
    /// The attribution ledger.
    pub ledger: Ledger,
    hists: Option<Box<OpHists>>,
}

impl PerfAccum {
    /// Whether credits and samples are collected.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.hists.is_some()
    }

    /// The per-op latency histograms, while collection is on.
    pub fn hists(&self) -> Option<&OpHists> {
        self.hists.as_deref()
    }

    /// Credits cycles to a class (no-op when off or zero).
    #[inline]
    pub fn credit(&mut self, class: CostClass, cycles: u64) {
        if self.is_on() && cycles > 0 {
            self.ledger.add(class, cycles);
        }
    }

    /// Records one operation's total cost (no-op when off).
    #[inline]
    pub fn sample(&mut self, kind: OpKind, cycles: u64) {
        if let Some(hists) = &mut self.hists {
            hists.record(kind, cycles);
        }
    }

    /// (Re)starts collection with a fresh ledger and histograms,
    /// baselined at `clock`; `on = false` stops collection, clears the
    /// ledger and drops the histograms.
    pub fn restart(&mut self, on: bool, clock: u64) {
        self.base_clock = clock;
        self.ledger.clear();
        match (&mut self.hists, on) {
            (Some(hists), true) => hists.clear(),
            (hists, _) => *hists = on.then(Box::default),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_class_has_a_distinct_label_and_index() {
        let mut labels: Vec<&str> = CostClass::ALL.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), COST_CLASSES);
        for (i, c) in CostClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn op_kind_lanes_follow_all_and_labels_are_distinct() {
        let mut labels: Vec<&str> = OpKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), OP_KINDS);
        for (i, k) in OpKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }

    #[test]
    fn ledger_arithmetic() {
        let mut a = Ledger::default();
        a.add(CostClass::Compute, 10);
        a.add(CostClass::NetHop, 5);
        let snap = a;
        a.add(CostClass::NetHop, 7);
        assert_eq!(a.total(), 22);
        assert_eq!(a.since(&snap).get(CostClass::NetHop), 7);
        assert_eq!(a.since(&snap).total(), 7);
        assert_eq!(a.remote_total(), 12);
        let mut b = Ledger::default();
        b.merge(&a);
        b.merge(&a);
        assert_eq!(b.total(), 44);
        assert_eq!(a.ranked()[0].0, CostClass::NetHop);
    }

    #[test]
    fn accum_gates_on_flag() {
        let mut p = PerfAccum::default();
        p.credit(CostClass::Compute, 5);
        p.sample(OpKind::LdLocal, 5);
        assert_eq!(p.ledger.total(), 0);
        assert!(p.hists().is_none());
        p.restart(true, 100);
        p.credit(CostClass::Compute, 5);
        p.sample(OpKind::LdLocal, 5);
        assert_eq!(p.ledger.total(), 5);
        assert_eq!(p.base_clock, 100);
        assert_eq!(p.hists().unwrap().get(OpKind::LdLocal).count(), 1);
        p.restart(true, 200);
        assert_eq!(p.hists().unwrap().get(OpKind::LdLocal).count(), 0);
        p.restart(false, 300);
        assert!(!p.is_on() && p.hists().is_none());
    }
}
