//! A named-metrics registry: counters, gauges and histograms.

use std::collections::BTreeMap;

use crate::hist::Hist;
use crate::json::Value;

/// A deterministic registry of named metrics.
///
/// All maps are `BTreeMap`s, so iteration, rendering and JSON export are
/// ordered by name regardless of insertion order. The machine layer
/// assembles a registry per report in PE order, which makes Seq and Par
/// phase-driver runs produce bit-identical registries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    hists: BTreeMap<String, Hist>,
}

impl Registry {
    /// Adds `v` to the named counter (creating it at zero).
    pub fn count(&mut self, name: &str, v: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += v;
    }

    /// Sets the named gauge to `v`.
    pub fn gauge(&mut self, name: &str, v: i64) {
        self.gauges.insert(name.to_string(), v);
    }

    /// Records a sample into the named histogram (creating it empty).
    pub fn observe(&mut self, name: &str, v: u64) {
        self.hists.entry(name.to_string()).or_default().record(v);
    }

    /// Merges a whole histogram into the named histogram.
    pub fn observe_hist(&mut self, name: &str, h: &Hist) {
        self.hists.entry(name.to_string()).or_default().merge(h);
    }

    /// Reads a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Reads a histogram.
    pub fn hist(&self, name: &str) -> Option<&Hist> {
        self.hists.get(name)
    }

    /// All counters, ordered by name.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All gauges, ordered by name.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, i64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All histograms, ordered by name.
    pub fn hists(&self) -> impl Iterator<Item = (&str, &Hist)> {
        self.hists.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Merges another registry: counters add, gauges overwrite,
    /// histograms merge bucket-wise.
    pub fn merge(&mut self, other: &Registry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.hists {
            self.hists.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Renders a fixed-width text listing.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (k, v) in &self.counters {
                out.push_str(&format!("  {k:<28} {v}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (k, v) in &self.gauges {
                out.push_str(&format!("  {k:<28} {v}\n"));
            }
        }
        if !self.hists.is_empty() {
            out.push_str("histograms:                    count    mean     p50     p95     p99\n");
            for (k, h) in &self.hists {
                out.push_str(&format!(
                    "  {k:<28} {:>6} {:>7.1} {:>7} {:>7} {:>7}\n",
                    h.count(),
                    h.mean(),
                    h.p50(),
                    h.p95(),
                    h.p99()
                ));
            }
        }
        out
    }

    /// Exports the registry as a JSON object.
    pub fn to_json(&self) -> Value {
        let counters = Value::Obj(
            self.counters
                .iter()
                .map(|(k, &v)| (k.clone(), Value::Int(v as i64)))
                .collect(),
        );
        let gauges = Value::Obj(
            self.gauges
                .iter()
                .map(|(k, &v)| (k.clone(), Value::Int(v)))
                .collect(),
        );
        let hists = Value::Obj(
            self.hists
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        Value::obj(vec![
                            ("count", Value::Int(h.count() as i64)),
                            ("sum", Value::Int(h.sum() as i64)),
                            ("p50", Value::Int(h.p50() as i64)),
                            ("p95", Value::Int(h.p95() as i64)),
                            ("p99", Value::Int(h.p99() as i64)),
                            (
                                "buckets",
                                Value::Arr(
                                    h.buckets()
                                        .map(|(hi, c)| {
                                            Value::Arr(vec![
                                                Value::Int(hi.min(i64::MAX as u64) as i64),
                                                Value::Int(c as i64),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ]),
                    )
                })
                .collect(),
        );
        Value::obj(vec![
            ("counters", counters),
            ("gauges", gauges),
            ("histograms", hists),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_merge() {
        let mut a = Registry::default();
        a.count("ops.reads", 3);
        a.count("ops.reads", 2);
        a.gauge("wbuf.pending", 4);
        a.observe("lat.ld.remote", 91);
        let mut b = Registry::default();
        b.count("ops.reads", 10);
        b.gauge("wbuf.pending", 7);
        b.observe("lat.ld.remote", 87);
        a.merge(&b);
        assert_eq!(a.counter("ops.reads"), 15);
        assert_eq!(a.gauges().collect::<Vec<_>>(), [("wbuf.pending", 7)]);
        assert_eq!(a.hist("lat.ld.remote").unwrap().count(), 2);
    }

    #[test]
    fn render_and_json_are_ordered() {
        let mut r = Registry::default();
        r.count("z.last", 1);
        r.count("a.first", 2);
        let text = r.render();
        assert!(text.find("a.first").unwrap() < text.find("z.last").unwrap());
        let js = r.to_json().render();
        assert!(js.find("a.first").unwrap() < js.find("z.last").unwrap());
    }
}
