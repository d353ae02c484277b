//! Chrome-trace (`chrome://tracing` / Perfetto) timeline export.
//!
//! Virtual cycles map 1:1 onto the trace's microsecond timestamps: one
//! simulated cycle renders as one "µs", which keeps the timeline's
//! relative geometry exact without inventing a wall-clock mapping.

use crate::json::Value;

/// One complete (`"ph":"X"`) span on the timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Event name shown on the slice.
    pub name: String,
    /// Category (Chrome lets the viewer filter on it); e.g. `"event"`
    /// for op-log slices, `"phase"` for program phases.
    pub cat: String,
    /// Track id: the PE number for per-PE rows, or a large sentinel for
    /// machine-wide rows (phases, barriers).
    pub tid: u64,
    /// Start time in virtual cycles.
    pub start: u64,
    /// Duration in virtual cycles (instant events render as 1 so they
    /// stay visible).
    pub dur: u64,
}

/// Builds a Chrome-trace JSON document from spans.
pub fn chrome_trace(spans: &[Span]) -> Value {
    let events = spans
        .iter()
        .map(|s| {
            Value::obj(vec![
                ("name", Value::Str(s.name.clone())),
                ("cat", Value::Str(s.cat.clone())),
                ("ph", Value::Str("X".to_string())),
                ("ts", Value::Int(s.start as i64)),
                ("dur", Value::Int(s.dur.max(1) as i64)),
                ("pid", Value::Int(0)),
                ("tid", Value::Int(s.tid as i64)),
            ])
        })
        .collect();
    Value::obj(vec![
        ("traceEvents", Value::Arr(events)),
        ("displayTimeUnit", Value::Str("ms".to_string())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emits_complete_events() {
        let doc = chrome_trace(&[
            Span {
                name: "ld.remote".into(),
                cat: "event".into(),
                tid: 3,
                start: 120,
                dur: 0,
            },
            Span {
                name: "push".into(),
                cat: "phase".into(),
                tid: 10_000,
                start: 0,
                dur: 500,
            },
        ]);
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("X"));
        // zero-duration events are widened to stay visible
        assert_eq!(events[0].get("dur").unwrap().as_i64(), Some(1));
        assert_eq!(events[1].get("tid").unwrap().as_i64(), Some(10_000));
        // the document must parse back (it is written to disk verbatim)
        assert!(crate::json::parse(&doc.render_pretty()).is_ok());
    }
}
