//! Host-time spans around the public calls the benchmark makes.
//!
//! A span records its name, start, end, the span that was open when it
//! started (its parent) and the pass it belongs to (the run id). Spans
//! stay in memory and are written out once, when the benchmark ends.
//! The recorder is disabled in end-to-end runs, where opening and
//! closing a span does nothing.
//!
//! Span names follow one convention: `pass` is a pass's root, `bench.*`
//! is a timed call (a unit of work whose result is checked), and every
//! other name is a layer of the simulator (`machine.*`, `em3d.*`,
//! `sched.*`). Time inside a `bench.*` span that no layer span covers
//! is reported as unaccounted.

use std::collections::BTreeMap;
use std::time::Instant;

use t3d_perf::json::Value;

/// One finished (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer or call name.
    pub name: String,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in the same clock (equal to `start_ns` while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The pass the span belongs to.
    pub run: u32,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// The in-memory span recorder.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    run: u32,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder; a disabled one records nothing.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            epoch: Instant::now(),
            run: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts recording on or off (the traced run's untraced baseline
    /// pass runs with the recorder off).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Sets the run id of spans opened from now on.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open one.
    pub fn open(&mut self, name: &str) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            run: self.run,
        });
        self.stack.push(self.spans.len() - 1);
    }

    /// Number of open spans.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Closes open spans until `depth` remain (one after a normal
    /// call; more after a panic unwound through nested spans).
    pub fn close_to(&mut self, depth: usize) {
        let now = self.now_ns();
        while self.stack.len() > depth {
            let i = self.stack.pop().expect("stack is non-empty");
            self.spans[i].end_ns = now;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let depth = self.depth();
        self.open(name);
        let out = f();
        self.close_to(depth);
        out
    }

    /// Every span, as a JSON array.
    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Value::obj(vec![
                        ("name", Value::Str(s.name.clone())),
                        ("start_ns", Value::Int(to_i64(s.start_ns))),
                        ("end_ns", Value::Int(to_i64(s.end_ns))),
                        (
                            "parent",
                            s.parent
                                .map_or(Value::Null, |p| Value::Int(to_i64(p as u64))),
                        ),
                        ("run", Value::Int(i64::from(s.run))),
                    ])
                })
                .collect(),
        )
    }

    /// Aggregates the recorded spans into a per-layer profile.
    pub fn profile(&self) -> Profile {
        let mut child_s = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_s[p] += s.secs();
            }
        }
        let mut runs = std::collections::BTreeSet::new();
        let mut layers: BTreeMap<String, Layer> = BTreeMap::new();
        let mut timed_s = 0.0;
        let mut pass_s = 0.0;
        let mut unaccounted_s = 0.0;
        for (i, s) in self.spans.iter().enumerate() {
            runs.insert(s.run);
            let own = s.secs() - child_s[i];
            if s.name == "pass" {
                pass_s += s.secs();
            } else if s.name.starts_with("bench.") {
                timed_s += s.secs();
                unaccounted_s += own;
            } else {
                let l = layers.entry(s.name.clone()).or_default();
                l.calls += 1;
                l.total_s += s.secs();
                l.self_s += own;
            }
        }
        Profile {
            passes: runs.len().max(1),
            layers,
            pass_s,
            timed_s,
            unaccounted_s,
        }
    }
}

fn to_i64(v: u64) -> i64 {
    i64::try_from(v).unwrap_or(i64::MAX)
}

/// One layer's totals over every traced pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layer {
    /// Spans recorded.
    pub calls: u64,
    /// Seconds inside the layer's spans.
    pub total_s: f64,
    /// Those seconds minus the time its child spans cover.
    pub self_s: f64,
}

/// The per-layer view of a traced run.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Passes the spans came from.
    pub passes: usize,
    /// Layers by name.
    pub layers: BTreeMap<String, Layer>,
    /// Seconds in pass roots.
    pub pass_s: f64,
    /// Seconds in timed calls.
    pub timed_s: f64,
    /// Seconds inside timed calls that no layer span covers.
    pub unaccounted_s: f64,
}

impl Profile {
    /// A layer's seconds per pass (0 when it never ran).
    pub fn secs_per_pass(&self, name: &str) -> f64 {
        self.layers
            .get(name)
            .map_or(0.0, |l| l.total_s / self.passes as f64)
    }

    /// A layer's spans per pass (0 when it never ran).
    pub fn calls_per_pass(&self, name: &str) -> f64 {
        self.layers
            .get(name)
            .map_or(0.0, |l| l.calls as f64 / self.passes as f64)
    }

    /// Share of timed host time that layer spans cover.
    pub fn coverage(&self) -> f64 {
        if self.timed_s > 0.0 {
            1.0 - self.unaccounted_s / self.timed_s
        } else {
            0.0
        }
    }

    /// The layer table, one row per layer, per pass.
    pub fn render(&self, workload: &str) -> String {
        let per = |s: f64| s / self.passes as f64;
        let share = |s: f64| {
            if self.timed_s > 0.0 {
                100.0 * s / self.timed_s
            } else {
                0.0
            }
        };
        let mut rows: Vec<(&String, &Layer)> = self.layers.iter().collect();
        rows.sort_by(|a, b| b.1.self_s.total_cmp(&a.1.self_s).then(a.0.cmp(b.0)));
        let mut out = format!(
            "layer table: {workload}, {} traced pass(es), {:.3} s/pass, {:.3} s/pass in timed calls\n",
            self.passes,
            per(self.pass_s),
            per(self.timed_s)
        );
        out.push_str(&format!(
            "  {:<26} {:>10} {:>11} {:>11} {:>9}\n",
            "layer", "calls/pass", "s/pass", "self s/pass", "% timed"
        ));
        for (name, l) in rows {
            out.push_str(&format!(
                "  {:<26} {:>10.1} {:>11.4} {:>11.4} {:>8.1}%\n",
                name,
                l.calls as f64 / self.passes as f64,
                per(l.total_s),
                per(l.self_s),
                share(l.self_s)
            ));
        }
        let flag = if self.coverage() < 0.9 {
            "  <-- FLAG: layer spans cover less than 90% of timed time"
        } else {
            ""
        };
        out.push_str(&format!(
            "  {:<26} {:>10} {:>11} {:>11.4} {:>8.1}%{flag}\n",
            "(unaccounted)",
            "",
            "",
            per(self.unaccounted_s),
            share(self.unaccounted_s)
        ));
        out.push_str(&format!(
            "  coverage: {:.1}% of timed host time is inside layer spans\n",
            100.0 * self.coverage()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_unaccounted_is_bench_self_time() {
        let mut s = Spans::new(true);
        s.open("pass");
        s.open("bench.x");
        s.time("machine.phase", || {
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        s.close_to(1);
        s.close_to(0);
        let p = s.profile();
        assert_eq!(p.passes, 1);
        assert_eq!(p.layers["machine.phase"].calls, 1);
        assert!(p.secs_per_pass("machine.phase") >= 0.005);
        assert!(p.unaccounted_s >= 0.0 && p.unaccounted_s < p.timed_s);
        assert!(p.coverage() > 0.5);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::new(false);
        s.open("pass");
        s.time("machine.phase", || ());
        s.close_to(0);
        assert_eq!(s.depth(), 0);
        assert!(s.profile().layers.is_empty());
    }
}
