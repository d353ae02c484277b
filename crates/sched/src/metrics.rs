//! Per-job and fleet-level scheduling metrics.
//!
//! Wait, run and turnaround times go into the log₂ [`Hist`]ograms from
//! `t3d-perf` — the same bucket-resolution percentiles the micro-probe
//! suite reports, so a saturation curve's p99 means the same thing as a
//! latency probe's p99. Utilization and queue depth are time-weighted
//! integrals accumulated between scheduler events.

use t3d_perf::hist::Hist;

/// The byte-step FNV-1a the scheduler chains every job's ledger entry
/// through, from [`FNV_OFFSET`], to fingerprint the whole run.
pub use t3d_perf::{fnv1a, FNV_OFFSET};

/// A histogram compressed to the figures a BENCH document keeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistSummary {
    /// Median (bucket upper bound), cycles.
    pub p50: u64,
    /// 95th percentile, cycles.
    pub p95: u64,
    /// 99th percentile, cycles.
    pub p99: u64,
    /// Exact mean, cycles.
    pub mean: f64,
}

impl HistSummary {
    /// Summarises a histogram. An empty histogram summarises to all
    /// zeros (the [`Hist::percentile`] empty convention).
    pub fn of(h: &Hist) -> HistSummary {
        HistSummary {
            p50: h.p50(),
            p95: h.p95(),
            p99: h.p99(),
            mean: h.mean(),
        }
    }
}

/// Fleet-level metrics accumulated over one trace run.
#[derive(Debug, Clone, Default)]
pub struct FleetMetrics {
    /// Per-job queue wait (arrival → dispatch), cycles.
    pub wait: Hist,
    /// Per-job service time (dispatch → completion), cycles.
    pub run: Hist,
    /// Per-job turnaround (arrival → completion), cycles.
    pub turnaround: Hist,
    /// PE-cycles spent running jobs (the utilization numerator).
    busy_pe_cy: u128,
    /// Queue-depth integral: Σ depth × dt over the run.
    queue_cy: u128,
    /// Highest queue depth observed.
    pub queue_max: u64,
}

impl FleetMetrics {
    /// Records one completed job.
    pub fn record_job(&mut self, wait_cy: u64, run_cy: u64) {
        self.wait.record(wait_cy);
        self.run.record(run_cy);
        self.turnaround.record(wait_cy + run_cy);
    }

    /// Accounts an interval of `dt` cycles during which `busy_pes` PEs
    /// were running jobs and `queued` jobs were waiting.
    pub fn account_interval(&mut self, dt: u64, busy_pes: u64, queued: u64) {
        self.busy_pe_cy += u128::from(dt) * u128::from(busy_pes);
        self.queue_cy += u128::from(dt) * u128::from(queued);
        self.queue_max = self.queue_max.max(queued);
    }

    /// Machine utilization over a run of `makespan_cy` cycles on
    /// `machine_pes` PEs: busy PE-cycles over available PE-cycles.
    pub fn utilization(&self, machine_pes: u64, makespan_cy: u64) -> f64 {
        let avail = u128::from(machine_pes) * u128::from(makespan_cy);
        if avail == 0 {
            0.0
        } else {
            self.busy_pe_cy as f64 / avail as f64
        }
    }

    /// Time-averaged queue depth over a run of `makespan_cy` cycles.
    pub fn queue_mean(&self, makespan_cy: u64) -> f64 {
        if makespan_cy == 0 {
            0.0
        } else {
            self.queue_cy as f64 / makespan_cy as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_and_queue_depth_are_time_weighted() {
        let mut m = FleetMetrics::default();
        // 100 cycles fully busy on 4 PEs with 2 queued, then 100 idle.
        m.account_interval(100, 4, 2);
        m.account_interval(100, 0, 0);
        assert!((m.utilization(4, 200) - 0.5).abs() < 1e-12);
        assert!((m.queue_mean(200) - 1.0).abs() < 1e-12);
        assert_eq!(m.queue_max, 2);
    }

    #[test]
    fn empty_hist_summary_is_zero() {
        let s = HistSummary::of(&Hist::default());
        assert_eq!((s.p50, s.p95, s.p99), (0, 0, 0));
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn record_job_feeds_all_three_hists() {
        let mut m = FleetMetrics::default();
        m.record_job(100, 900);
        assert_eq!(m.wait.count(), 1);
        assert_eq!(m.run.count(), 1);
        assert_eq!(m.turnaround.sum(), 1000);
    }
}
