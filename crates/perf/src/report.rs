//! Assembled perf reports: per-PE attribution, per-phase attribution,
//! and the metrics registry, with text and JSON renderings.

use crate::json::Value;
use crate::ledger::Ledger;
use crate::registry::Registry;
use crate::PerfMode;

/// One PE's share of the report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PePerf {
    /// The PE number.
    pub pe: usize,
    /// Virtual cycles elapsed on this PE since collection (re)started.
    pub elapsed: u64,
    /// Where those cycles went (node + memory-port ledgers merged).
    pub ledger: Ledger,
}

/// Attribution for one named phase, merged over all its occurrences.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseRecord {
    /// The phase label.
    pub label: String,
    /// How many times a phase with this label ran.
    pub occurrences: u64,
    /// Total cycles spent across occurrences (per the reference clock
    /// handed to [`PhaseLog::begin`]/[`PhaseLog::end`]).
    pub cycles: u64,
    /// Attribution of those cycles (ledger delta across the phase,
    /// summed over all PEs and occurrences).
    pub ledger: Ledger,
    /// `(start, end)` reference-clock spans, one per occurrence, in
    /// execution order (feeds the Chrome-trace exporter).
    pub spans: Vec<(u64, u64)>,
}

#[derive(Debug)]
struct OpenPhase {
    label: String,
    start: u64,
    snap: Ledger,
}

/// A flat (non-nesting) log of named phases.
///
/// The machine layer calls [`begin`](PhaseLog::begin) /
/// [`end`](PhaseLog::end) with its reference clock (the max PE clock)
/// and a snapshot of the merged all-PE ledger; the log stores the delta.
/// Beginning a phase while one is open implicitly ends the open one, so
/// sloppy instrumentation degrades gracefully instead of panicking.
#[derive(Debug, Default)]
pub struct PhaseLog {
    open: Option<OpenPhase>,
    records: Vec<PhaseRecord>,
}

impl PhaseLog {
    /// Opens a phase at reference clock `now` with the current merged
    /// ledger `snapshot`. Ends any phase still open.
    pub fn begin(&mut self, label: &str, now: u64, snapshot: Ledger) {
        if self.open.is_some() {
            self.end(now, snapshot);
        }
        self.open = Some(OpenPhase {
            label: label.to_string(),
            start: now,
            snap: snapshot,
        });
    }

    /// Closes the open phase at reference clock `now`, crediting it the
    /// ledger delta since its `begin` snapshot. No-op when nothing is
    /// open. Records with the same label merge.
    pub fn end(&mut self, now: u64, snapshot: Ledger) {
        let Some(open) = self.open.take() else {
            return;
        };
        let delta = snapshot.since(&open.snap);
        let cycles = now.saturating_sub(open.start);
        match self.records.iter_mut().find(|r| r.label == open.label) {
            Some(r) => {
                r.occurrences += 1;
                r.cycles += cycles;
                r.ledger.merge(&delta);
                r.spans.push((open.start, now));
            }
            None => self.records.push(PhaseRecord {
                label: open.label,
                occurrences: 1,
                cycles,
                ledger: delta,
                spans: vec![(open.start, now)],
            }),
        }
    }

    /// Whether a phase is currently open.
    pub fn is_open(&self) -> bool {
        self.open.is_some()
    }

    /// The completed records, in first-occurrence order.
    pub fn records(&self) -> &[PhaseRecord] {
        &self.records
    }

    /// Drops everything, including any open phase.
    pub fn clear(&mut self) {
        self.open = None;
        self.records.clear();
    }
}

/// A complete perf report for one machine, assembled by
/// `Machine::perf()`.
///
/// Everything inside is deterministic: PEs are listed in PE order, the
/// registry sorts by name, and ledgers rank with a label tiebreak — so
/// sequential and parallel phase-driver runs render bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// The collection mode the report was taken under.
    pub mode: PerfMode,
    /// Per-PE elapsed cycles and attribution.
    pub pes: Vec<PePerf>,
    /// Per-phase attribution (empty when the program marked no phases).
    pub phases: Vec<PhaseRecord>,
    /// Named counters, gauges and latency histograms.
    pub registry: Registry,
}

impl PerfReport {
    /// All PEs' ledgers merged into one.
    pub fn merged(&self) -> Ledger {
        let mut out = Ledger::default();
        for pe in &self.pes {
            out.merge(&pe.ledger);
        }
        out
    }

    /// Total attributed cycles across all PEs (equals the sum of per-PE
    /// elapsed cycles under the conservation invariant).
    pub fn total(&self) -> u64 {
        self.merged().total()
    }

    /// Fraction of attributed cycles spent in remote-access classes
    /// (0.0 when nothing was attributed).
    pub fn remote_share(&self) -> f64 {
        let m = self.merged();
        let total = m.total();
        if total == 0 {
            0.0
        } else {
            m.remote_total() as f64 / total as f64
        }
    }

    /// Renders the human-readable report.
    pub fn render(&self) -> String {
        let mode = match self.mode {
            PerfMode::Off => "off",
            PerfMode::Counters => "counters",
        };
        let mut out = String::new();
        out.push_str(&format!(
            "t3d-perf report (mode: {mode}, pes: {})\n",
            self.pes.len()
        ));
        let merged = self.merged();
        out.push_str(&format!(
            "attributed: {} cycles across {} PEs (remote share {:.1}%)\n",
            merged.total(),
            self.pes.len(),
            self.remote_share() * 100.0
        ));
        out.push_str(&render_ledger(&merged, "  "));
        if !self.phases.is_empty() {
            out.push_str("phases:\n");
            for p in &self.phases {
                out.push_str(&format!(
                    "  {} (x{}, {} cycles):\n",
                    p.label, p.occurrences, p.cycles
                ));
                out.push_str(&render_ledger(&p.ledger, "    "));
            }
        }
        let reg = self.registry.render();
        if !reg.is_empty() {
            out.push_str(&reg);
        }
        out
    }

    /// Exports the report as a JSON object.
    pub fn to_json(&self) -> Value {
        let mode = match self.mode {
            PerfMode::Off => "off",
            PerfMode::Counters => "counters",
        };
        let pes = Value::Arr(
            self.pes
                .iter()
                .map(|p| {
                    Value::obj(vec![
                        ("pe", Value::Int(p.pe as i64)),
                        ("elapsed", Value::Int(p.elapsed as i64)),
                        ("attribution", ledger_json(&p.ledger)),
                    ])
                })
                .collect(),
        );
        let phases = Value::Arr(
            self.phases
                .iter()
                .map(|p| {
                    Value::obj(vec![
                        ("label", Value::Str(p.label.clone())),
                        ("occurrences", Value::Int(p.occurrences as i64)),
                        ("cycles", Value::Int(p.cycles as i64)),
                        ("attribution", ledger_json(&p.ledger)),
                        (
                            "spans",
                            Value::Arr(
                                p.spans
                                    .iter()
                                    .map(|&(s, e)| {
                                        Value::Arr(vec![Value::Int(s as i64), Value::Int(e as i64)])
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        );
        Value::obj(vec![
            ("mode", Value::Str(mode.to_string())),
            ("total_cycles", Value::Int(self.total() as i64)),
            ("pes", pes),
            ("phases", phases),
            ("registry", self.registry.to_json()),
        ])
    }
}

/// Renders a ledger as ranked `label cycles percent` lines.
pub fn render_ledger(ledger: &Ledger, indent: &str) -> String {
    let total = ledger.total();
    let mut out = String::new();
    for (class, cy) in ledger.ranked() {
        let pct = if total == 0 {
            0.0
        } else {
            cy as f64 / total as f64 * 100.0
        };
        out.push_str(&format!(
            "{indent}{:<18} {cy:>12}  {pct:>5.1}%\n",
            class.label()
        ));
    }
    out
}

/// Exports a ledger's non-zero buckets as a JSON object keyed by class
/// label, in ledger order (BTreeMap re-sorts by label — still
/// deterministic).
pub fn ledger_json(ledger: &Ledger) -> Value {
    Value::Obj(
        ledger
            .entries()
            .map(|(c, cy)| (c.label().to_string(), Value::Int(cy as i64)))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::CostClass;

    fn ledger(pairs: &[(CostClass, u64)]) -> Ledger {
        let mut l = Ledger::default();
        for &(c, cy) in pairs {
            l.add(c, cy);
        }
        l
    }

    #[test]
    fn phase_log_merges_by_label() {
        let mut log = PhaseLog::default();
        let mut snap = Ledger::default();
        log.begin("push", 0, snap);
        snap.add(CostClass::NetHop, 10);
        log.end(100, snap);
        log.begin("pull", 100, snap);
        snap.add(CostClass::Compute, 5);
        log.end(150, snap);
        log.begin("push", 150, snap);
        snap.add(CostClass::NetHop, 7);
        log.end(250, snap);
        let recs = log.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].label, "push");
        assert_eq!(recs[0].occurrences, 2);
        assert_eq!(recs[0].cycles, 200);
        assert_eq!(recs[0].ledger.get(CostClass::NetHop), 17);
        assert_eq!(recs[0].spans, vec![(0, 100), (150, 250)]);
        assert_eq!(recs[1].label, "pull");
        assert_eq!(recs[1].ledger.get(CostClass::Compute), 5);
    }

    #[test]
    fn begin_while_open_closes_implicitly() {
        let mut log = PhaseLog::default();
        let snap = Ledger::default();
        log.begin("a", 0, snap);
        log.begin("b", 50, snap);
        assert!(log.is_open());
        log.end(80, snap);
        assert_eq!(log.records().len(), 2);
        assert_eq!(log.records()[0].cycles, 50);
        assert_eq!(log.records()[1].cycles, 30);
        // end with nothing open is a quiet no-op
        log.end(90, snap);
        assert_eq!(log.records().len(), 2);
    }

    #[test]
    fn report_merges_and_renders() {
        let report = PerfReport {
            mode: PerfMode::Counters,
            pes: vec![
                PePerf {
                    pe: 0,
                    elapsed: 30,
                    ledger: ledger(&[(CostClass::Compute, 20), (CostClass::NetHop, 10)]),
                },
                PePerf {
                    pe: 1,
                    elapsed: 10,
                    ledger: ledger(&[(CostClass::NetHop, 10)]),
                },
            ],
            phases: vec![],
            registry: Registry::default(),
        };
        assert_eq!(report.total(), 40);
        assert_eq!(report.merged().get(CostClass::NetHop), 20);
        assert!((report.remote_share() - 0.5).abs() < 1e-12);
        let text = report.render();
        assert!(text.contains("net-hop"));
        assert!(text.contains("50.0%"));
        let js = report.to_json();
        assert_eq!(js.get("total_cycles").unwrap().as_i64(), Some(40));
    }
}
