//! Perf-trajectory bench documents (`BENCH_*.json`) and the regression
//! comparator.
//!
//! Two kinds of figures live in a document, compared with two
//! disciplines:
//!
//! * **virtual** figures (cycle totals, attribution, determinism
//!   checksums) are bit-deterministic. Checksums compare *strictly*;
//!   cycle totals carry a tolerance only to absorb deliberate
//!   timing-model changes;
//! * **host** figures (the `throughput` block: sim-cycles/sec and
//!   ops/sec) vary run to run and machine to machine, so they compare
//!   with a separate, generous regression tolerance and never byte
//!   equality. No raw wall-clock is written into baselines.

use std::collections::BTreeMap;

use crate::json::{parse, Value};
use crate::throughput::{Stat, Throughput};

/// Document schema tag, bumped on incompatible layout changes. Only
/// this schema parses.
pub const BENCH_SCHEMA: &str = "t3d-perf-bench-v2";

/// One benchmark's record.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Stable benchmark name (the compare key).
    pub name: String,
    /// Total virtual cycles — the strictly compared figure of merit.
    pub cycles: u64,
    /// Cycle attribution by cost-class label (non-zero classes only).
    pub attribution: BTreeMap<String, u64>,
    /// Extra derived metrics (e.g. `us_per_edge`), informational.
    pub extras: BTreeMap<String, f64>,
    /// Host-throughput measurement. The checksum inside compares
    /// strictly; the rates compare with the host tolerance.
    pub throughput: Throughput,
}

/// A suite of benchmark records.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDoc {
    /// Suite name (`"em3d"`, `"micro"`).
    pub suite: String,
    /// The entries, in run order.
    pub entries: Vec<BenchEntry>,
}

fn stat_json(s: &Stat) -> Value {
    Value::obj(vec![
        ("mean", Value::Float(s.mean)),
        ("stddev", Value::Float(s.stddev)),
    ])
}

fn stat_from(v: Option<&Value>) -> Stat {
    let Some(v) = v else {
        return Stat::default();
    };
    Stat {
        mean: v.get("mean").and_then(|x| x.as_f64()).unwrap_or(0.0),
        stddev: v.get("stddev").and_then(|x| x.as_f64()).unwrap_or(0.0),
    }
}

fn throughput_json(t: &Throughput) -> Value {
    let mut fields = vec![
        ("cycles_per_sec", stat_json(&t.cycles_per_sec)),
        ("ops_per_sec", stat_json(&t.ops_per_sec)),
        ("sim_cycles", Value::Int(t.sim_cycles as i64)),
        ("sim_ops", Value::Int(t.sim_ops as i64)),
        // Hex string: FNV checksums use the full u64 range, which a
        // JSON i64 cannot carry.
        ("checksum", Value::Str(format!("{:#018x}", t.checksum))),
        ("runs", Value::Int(t.runs as i64)),
        ("warmup", Value::Int(t.warmup as i64)),
    ];
    // Additive v2 field: setup seconds per run, present only when the
    // benchmark was measured with the setup/simulation split. Documents
    // without it parse back as `setup: None`.
    if let Some(setup) = &t.setup {
        fields.push(("setup", stat_json(setup)));
    }
    Value::obj(fields)
}

fn throughput_from(v: &Value) -> Result<Throughput, String> {
    let checksum_text = v
        .get("checksum")
        .and_then(|c| c.as_str())
        .ok_or("throughput block missing checksum")?;
    let digits = checksum_text.strip_prefix("0x").unwrap_or(checksum_text);
    let checksum = u64::from_str_radix(digits, 16)
        .map_err(|e| format!("bad throughput checksum {checksum_text:?}: {e}"))?;
    let int = |key: &str| v.get(key).and_then(|x| x.as_i64()).unwrap_or(0);
    Ok(Throughput {
        cycles_per_sec: stat_from(v.get("cycles_per_sec")),
        ops_per_sec: stat_from(v.get("ops_per_sec")),
        sim_cycles: int("sim_cycles") as u64,
        sim_ops: int("sim_ops") as u64,
        checksum,
        runs: int("runs") as u32,
        warmup: int("warmup") as u32,
        setup: v.get("setup").map(|s| stat_from(Some(s))),
    })
}

impl BenchDoc {
    /// An empty document for `suite`.
    pub fn new(suite: &str) -> BenchDoc {
        BenchDoc {
            suite: suite.to_string(),
            entries: Vec::new(),
        }
    }

    /// Looks up an entry by name.
    pub fn entry(&self, name: &str) -> Option<&BenchEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Exports the document as JSON (always the current schema).
    pub fn to_json(&self) -> Value {
        let entries = self
            .entries
            .iter()
            .map(|e| {
                Value::obj(vec![
                    ("name", Value::Str(e.name.clone())),
                    ("cycles", Value::Int(e.cycles as i64)),
                    (
                        "attribution",
                        Value::Obj(
                            e.attribution
                                .iter()
                                .map(|(k, &v)| (k.clone(), Value::Int(v as i64)))
                                .collect(),
                        ),
                    ),
                    (
                        "extras",
                        Value::Obj(
                            e.extras
                                .iter()
                                .map(|(k, &v)| (k.clone(), Value::Float(v)))
                                .collect(),
                        ),
                    ),
                    ("throughput", throughput_json(&e.throughput)),
                ])
            })
            .collect();
        Value::obj(vec![
            ("schema", Value::Str(BENCH_SCHEMA.to_string())),
            ("suite", Value::Str(self.suite.clone())),
            ("entries", Value::Arr(entries)),
        ])
    }

    /// Parses a document previously produced by [`BenchDoc::to_json`].
    /// Rejects any other schema and any entry without a throughput
    /// block.
    pub fn from_json(text: &str) -> Result<BenchDoc, String> {
        let v = parse(text)?;
        let schema = v
            .get("schema")
            .and_then(|s| s.as_str())
            .ok_or("missing schema")?;
        if schema != BENCH_SCHEMA {
            return Err(format!(
                "schema mismatch: found {schema:?}, expected {BENCH_SCHEMA:?}"
            ));
        }
        let suite = v
            .get("suite")
            .and_then(|s| s.as_str())
            .ok_or("missing suite")?
            .to_string();
        let mut entries = Vec::new();
        for e in v
            .get("entries")
            .and_then(|a| a.as_arr())
            .ok_or("missing entries")?
        {
            let name = e
                .get("name")
                .and_then(|s| s.as_str())
                .ok_or("entry missing name")?
                .to_string();
            let cycles = e
                .get("cycles")
                .and_then(|c| c.as_i64())
                .ok_or("entry missing cycles")? as u64;
            let mut attribution = BTreeMap::new();
            if let Some(m) = e.get("attribution").and_then(|a| a.as_obj()) {
                for (k, v) in m {
                    attribution.insert(k.clone(), v.as_i64().unwrap_or(0) as u64);
                }
            }
            let mut extras = BTreeMap::new();
            if let Some(m) = e.get("extras").and_then(|a| a.as_obj()) {
                for (k, v) in m {
                    extras.insert(k.clone(), v.as_f64().unwrap_or(0.0));
                }
            }
            let throughput = throughput_from(
                e.get("throughput")
                    .ok_or_else(|| format!("entry {name:?} missing throughput"))?,
            )?;
            entries.push(BenchEntry {
                name,
                cycles,
                attribution,
                extras,
                throughput,
            });
        }
        Ok(BenchDoc { suite, entries })
    }
}

/// Compares a fresh run against a baseline. Returns one message per
/// problem; empty result = pass.
///
/// Four gates, in decreasing strictness:
///
/// * an entry present in the baseline but missing from the new run
///   always fails;
/// * **checksums** must match exactly — they are virtual-state
///   fingerprints, so any difference means the engine computed
///   something else;
/// * **cycles** and **every attribution class** (the union of both
///   sides' classes, a missing class counting as zero) may move by at
///   most `tol` of the baseline value in *either* direction (fractional,
///   e.g. `0.25` = ±25%). Virtual cycles are deterministic, so a drop is
///   as suspicious as a rise — a dropped charge or a cost moved between
///   classes is a behaviour change. At `tol = 0` both checks are exact;
/// * **host rates** (`cycles_per_sec` mean) may drop to no less than
///   `1 - host_tol` of the baseline mean — host timing is noisy and
///   machine-dependent, so `host_tol` should be generous (e.g. `0.5`).
///   A faster host rate never fails.
///
/// Brand-new entries never fail.
pub fn compare(baseline: &BenchDoc, fresh: &BenchDoc, tol: f64, host_tol: f64) -> Vec<String> {
    let mut problems = Vec::new();
    for old in &baseline.entries {
        let Some(new) = fresh.entry(&old.name) else {
            problems.push(format!(
                "{}: present in baseline but missing from new run",
                old.name
            ));
            continue;
        };
        if let Some(drift) = drift(old.cycles, new.cycles, tol) {
            problems.push(format!("{}: {drift} cycles", old.name));
        }
        let classes: std::collections::BTreeSet<&String> = old
            .attribution
            .keys()
            .chain(new.attribution.keys())
            .collect();
        for class in classes {
            let cy = |e: &BenchEntry| e.attribution.get(class).copied().unwrap_or(0);
            if let Some(drift) = drift(cy(old), cy(new), tol) {
                problems.push(format!("{}: attribution {class} {drift}", old.name));
            }
        }
        let (ot, nt) = (&old.throughput, &new.throughput);
        if ot.checksum != nt.checksum {
            problems.push(format!(
                "{}: determinism checksum {:#018x} -> {:#018x} (strict; the \
                 engine's virtual state diverged from the baseline)",
                old.name, ot.checksum, nt.checksum
            ));
        }
        let floor = ot.cycles_per_sec.mean * (1.0 - host_tol);
        if nt.cycles_per_sec.mean < floor {
            problems.push(format!(
                "{}: host throughput {:.3e} -> {:.3e} sim-cycles/sec \
                 (below {:.0}% of baseline)",
                old.name,
                ot.cycles_per_sec.mean,
                nt.cycles_per_sec.mean,
                (1.0 - host_tol) * 100.0
            ));
        }
    }
    problems
}

/// `Some("old -> new (±x% outside ±tol%)")` when a virtual figure moved
/// by more than `tol` of its baseline value, in either direction.
fn drift(old: u64, new: u64, tol: f64) -> Option<String> {
    if old.abs_diff(new) as f64 <= old as f64 * tol {
        return None;
    }
    let change = if old == 0 {
        "new".to_string()
    } else {
        format!("{:+.1}%", (new as f64 / old as f64 - 1.0) * 100.0)
    };
    Some(format!(
        "{old} -> {new} ({change} outside ±{:.1}%)",
        tol * 100.0
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn throughput(cy_rate: f64, checksum: u64) -> Throughput {
        Throughput {
            cycles_per_sec: Stat {
                mean: cy_rate,
                stddev: cy_rate * 0.01,
            },
            ops_per_sec: Stat {
                mean: cy_rate / 10.0,
                stddev: 0.0,
            },
            sim_cycles: 1000,
            sim_ops: 100,
            checksum,
            runs: 3,
            warmup: 1,
            setup: Some(Stat {
                mean: 0.002,
                stddev: 0.0001,
            }),
        }
    }

    fn entry(name: &str, cycles: u64) -> BenchEntry {
        BenchEntry {
            name: name.to_string(),
            cycles,
            attribution: [("compute".to_string(), cycles)].into_iter().collect(),
            extras: [("us_per_edge".to_string(), 1.5)].into_iter().collect(),
            throughput: throughput(1.0e8, 0xFEED_FACE_CAFE_BEEF),
        }
    }

    #[test]
    fn document_round_trips() {
        let mut doc = BenchDoc::new("micro");
        doc.entries.push(entry("remote.read.uncached", 912));
        doc.entries.push(entry("sync.barrier", 400));
        // Throughput blocks measured without the setup split round-trip
        // too.
        let mut nosetup = entry("no.setup", 9);
        nosetup.throughput.setup = None;
        doc.entries.push(nosetup);
        let text = doc.to_json().render_pretty();
        let back = BenchDoc::from_json(&text).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn checksum_survives_full_u64_range() {
        let mut doc = BenchDoc::new("micro");
        let mut e = entry("a", 1);
        e.throughput.checksum = u64::MAX;
        doc.entries.push(e);
        let back = BenchDoc::from_json(&doc.to_json().render_pretty()).unwrap();
        assert_eq!(back.entries[0].throughput.checksum, u64::MAX);
    }

    #[test]
    fn the_committed_v2_nosetup_fixture_parses_and_compares() {
        // The last v2 document written before the throughput block grew
        // its `setup` field, checked in verbatim as the migration
        // fixture: it must keep parsing — with `setup` absent mapping to
        // `None` — and serve as a baseline without tripping any gate.
        let doc = BenchDoc::from_json(include_str!("../fixtures/BENCH_micro_v2_nosetup.json"))
            .expect("v2-nosetup fixture parses");
        assert_eq!(doc.suite, "micro");
        assert_eq!(doc.entries.len(), 13);
        assert!(doc.entries.iter().all(|e| e.throughput.setup.is_none()));
        assert!(compare(&doc, &doc, 0.25, 0.5).is_empty());
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        // The retired v1 schema included.
        for schema in ["other", "t3d-perf-bench-v1"] {
            let text = format!("{{\"schema\":\"{schema}\",\"suite\":\"x\",\"entries\":[]}}");
            let err = BenchDoc::from_json(&text).unwrap_err();
            assert!(err.contains("schema mismatch"), "{err}");
        }
    }

    #[test]
    fn compare_flags_regressions_and_missing_entries() {
        let mut base = BenchDoc::new("micro");
        base.entries.push(entry("a", 1000));
        base.entries.push(entry("b", 1000));
        base.entries.push(entry("gone", 10));
        let mut fresh = BenchDoc::new("micro");
        fresh.entries.push(entry("a", 1200)); // within +25%
        fresh.entries.push(entry("b", 1300)); // over +25%
        fresh.entries.push(entry("brand-new", 1)); // never a failure
        let problems = compare(&base, &fresh, 0.25, 0.5);
        // `b` fails on its cycles and on its one attribution class.
        assert_eq!(problems.len(), 3, "{problems:?}");
        assert!(problems.iter().any(|p| p.starts_with("b: 1000 -> 1300")));
        assert!(problems.iter().any(|p| p.starts_with("b: attribution")));
        assert!(problems.iter().any(|p| p.starts_with("gone:")));
        let mut fixed = fresh.clone();
        fixed.entries[1] = entry("b", 900);
        fixed.entries.push(entry("gone", 10));
        assert!(compare(&base, &fixed, 0.25, 0.5).is_empty());
    }

    #[test]
    fn compare_fails_a_cycle_decrease() {
        let mut base = BenchDoc::new("micro");
        base.entries.push(entry("a", 1000));
        let mut fresh = BenchDoc::new("micro");
        fresh.entries.push(entry("a", 700)); // -30%: outside ±25%
        let problems = compare(&base, &fresh, 0.25, 0.5);
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(problems[0].starts_with("a: 1000 -> 700 (-30.0% outside"));
        fresh.entries[0] = entry("a", 800); // -20%: inside
        assert!(compare(&base, &fresh, 0.25, 0.5).is_empty());
        // At tol 0 a one-cycle drop fails.
        fresh.entries[0] = entry("a", 999);
        assert!(!compare(&base, &fresh, 0.0, 0.5).is_empty());
        assert!(compare(&base, &base, 0.0, 0.5).is_empty());
    }

    #[test]
    fn compare_fails_a_cycle_shift_between_classes() {
        let mut base = BenchDoc::new("micro");
        let mut a = entry("a", 1000);
        a.attribution = [("compute".to_string(), 600), ("net_hop".to_string(), 400)]
            .into_iter()
            .collect();
        base.entries.push(a.clone());
        // Same total, 100 cycles moved from compute to net_hop.
        let mut shifted = a;
        shifted.attribution = [("compute".to_string(), 500), ("net_hop".to_string(), 500)]
            .into_iter()
            .collect();
        let fresh = BenchDoc {
            suite: "micro".to_string(),
            entries: vec![shifted],
        };
        let problems = compare(&base, &fresh, 0.1, 0.5);
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(problems[0].starts_with("a: attribution compute 600 -> 500"));
        assert!(problems[1].starts_with("a: attribution net_hop 400 -> 500"));
        // Inside a 25% tolerance both classes pass; exact at tol 0 fails.
        assert!(compare(&base, &fresh, 0.25, 0.5).is_empty());
        assert_eq!(compare(&base, &fresh, 0.0, 0.5).len(), 2);
    }

    #[test]
    fn compare_fails_a_class_appearing_or_disappearing() {
        let mut base = BenchDoc::new("micro");
        base.entries.push(entry("a", 1000));
        let mut fresh = base.clone();
        fresh.entries[0]
            .attribution
            .insert("contention".to_string(), 1);
        let problems = compare(&base, &fresh, 0.5, 0.5);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].starts_with("a: attribution contention 0 -> 1 (new"));
        // The same class missing from the fresh run fails the other way.
        let problems = compare(&fresh, &base, 0.5, 0.5);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].starts_with("a: attribution contention 1 -> 0"));
    }

    #[test]
    fn compare_gates_checksums_strictly() {
        let mut base = BenchDoc::new("micro");
        base.entries.push(entry("a", 1000));
        let mut fresh = base.clone();
        fresh.entries[0].throughput.checksum ^= 1;
        let problems = compare(&base, &fresh, 0.25, 0.5);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("determinism checksum"));
    }

    #[test]
    fn compare_tolerates_host_noise_but_not_collapse() {
        let mut base = BenchDoc::new("micro");
        base.entries.push(entry("a", 1000));
        // 40% slower: inside a 50% host tolerance.
        let mut noisy = base.clone();
        noisy.entries[0].throughput.cycles_per_sec.mean = 0.6e8;
        assert!(compare(&base, &noisy, 0.25, 0.5).is_empty());
        // 60% slower: outside it.
        let mut slow = base.clone();
        slow.entries[0].throughput.cycles_per_sec.mean = 0.4e8;
        let problems = compare(&base, &slow, 0.25, 0.5);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("host throughput"));
    }

    #[test]
    fn an_entry_without_throughput_fails_to_parse() {
        let text = "{\"schema\":\"t3d-perf-bench-v2\",\"suite\":\"micro\",\"entries\":[\
                    {\"name\":\"a\",\"cycles\":912,\
                    \"attribution\":{\"compute\":912},\"extras\":{}}]}";
        let err = BenchDoc::from_json(text).unwrap_err();
        assert_eq!(err, "entry \"a\" missing throughput");
    }
}
