//! The benchmark's arithmetic: percentile selection, due-time latency,
//! the knee search, layer shares and glue, and failure fractions. Kept
//! free of I/O so every rule here is unit-tested.

use std::time::Duration;

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `p`% of the sample at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// One-based nearest rank of the `p`-th percentile in `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie beyond the `p`-th percentile's rank.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Whether `n` samples support reporting the `p`-th percentile: at
/// least [`MIN_BEYOND`] samples lie beyond it.
pub fn supports(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_BEYOND
}

/// Sorts a copy of `values` ascending (NaN-free input assumed).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    v
}

/// Median; the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of an empty sample");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Plans per second over a set of plan times in milliseconds: a sweep's
/// own times, or each cell's best time in a run.
pub fn rate_per_s(plan_ms: &[f64]) -> f64 {
    share(plan_ms.len() as f64 * 1e3, plan_ms.iter().sum())
}

/// Latency of a request in milliseconds, timed from `origin`. In an
/// open loop that is when the request was *due* — not when the generator
/// got round to sending it — so a stall also charges the requests it
/// delayed; in a closed loop it is the send.
pub fn latency_ms(origin: Duration, done: Duration) -> f64 {
    done.saturating_sub(origin).as_secs_f64() * 1e3
}

/// How late the generator sent a request, in milliseconds.
pub fn lag_ms(due: Duration, sent: Duration) -> f64 {
    sent.saturating_sub(due).as_secs_f64() * 1e3
}

/// Whether another whole sweep still fits in the window, judging by the
/// mean sweep so far. At least one sweep always runs.
pub fn another_sweep_fits(sweeps: u64, elapsed: Duration, window: Duration) -> bool {
    sweeps == 0 || elapsed + elapsed.div_f64(sweeps as f64) <= window
}

/// One rung of the rate ladder, as measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Due-time p99 latency of the rung's answered requests, ms.
    pub p99_ms: f64,
    /// Requests shed, failed or left unanswered.
    pub missed: usize,
    /// Whether the queue kept growing through the rung.
    pub backlog_growing: bool,
}

impl Rung {
    /// Whether the rung meets the latency limit: no missed request, no
    /// growing backlog, p99 at or under `limit_ms`.
    pub fn passes(&self, limit_ms: f64) -> bool {
        self.missed == 0 && !self.backlog_growing && self.p99_ms <= limit_ms
    }
}

/// Whether a rung's backlog grew: the median latency of its last
/// quarter of requests (in due order) is more than twice that of its
/// first quarter and above a quarter of the limit. A stable queue keeps
/// the two quarters alike; an overloaded one drifts upward.
pub fn backlog_growing(latencies_in_due_order: &[f64], limit_ms: f64) -> bool {
    let n = latencies_in_due_order.len();
    if n < 8 {
        return false;
    }
    let q = n / 4;
    let first = median(&latencies_in_due_order[..q]);
    let last = median(&latencies_in_due_order[n - q..]);
    last > 2.0 * first && last > 0.25 * limit_ms
}

/// The knee: the highest offered rate that meets the latency limit.
///
/// `rungs` are in ascending rate order, measured until the first rung
/// that fails. When that failing rung failed on latency alone, the knee
/// is interpolated linearly in p99 between it and the last passing rung,
/// so the estimate moves smoothly instead of jumping a whole rung; a rung
/// that shed, failed or built a backlog gives no such credit. No passing
/// rung gives 0.
pub fn knee(rungs: &[Rung], limit_ms: f64) -> f64 {
    let mut best: Option<&Rung> = None;
    for rung in rungs {
        if rung.passes(limit_ms) {
            best = Some(rung);
            continue;
        }
        let Some(pass) = best else { return 0.0 };
        if rung.missed == 0 && !rung.backlog_growing && rung.p99_ms > pass.p99_ms {
            let t = (limit_ms - pass.p99_ms) / (rung.p99_ms - pass.p99_ms);
            return pass.rate + t.clamp(0.0, 1.0) * (rung.rate - pass.rate);
        }
        return pass.rate;
    }
    best.map_or(0.0, |r| r.rate)
}

/// `part` as a share of `whole`; 0 for an empty whole.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// What a call spent outside the layers timed inside it: its wall time
/// minus the sum of the layers' times. Signed, because the layers are
/// timed in separate calls and can sum past the whole by noise.
pub fn glue(total: f64, layers: &[f64]) -> f64 {
    total - layers.iter().sum::<f64>()
}

/// Failure fraction with its base: operations that failed, were shed or
/// violated a check, over every operation attempted.
pub fn fail_frac(failed: u64, attempted: u64) -> f64 {
    assert!(failed <= attempted, "more failures than attempts");
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ascending(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ascending(100);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        let v = ascending(7);
        assert_eq!(percentile(&v, 50.0), 4.0);
        assert_eq!(percentile(&v, 90.0), 7.0);
    }

    #[test]
    fn percentile_support_depends_on_the_sample_count() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert!(supports(100, 90.0));
        assert!(!supports(99, 90.0));
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
        assert!(!supports(0, 50.0));
        assert!(supports(20, 50.0));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn rate_counts_plans_per_second_of_planning_time() {
        // Three plans in 250 ms of planning: 12 per second.
        assert!((rate_per_s(&[50.0, 100.0, 100.0]) - 12.0).abs() < 1e-9);
        assert_eq!(rate_per_s(&[]), 0.0);
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        let due = Duration::from_millis(100);
        // Sent 30 ms late, answered 5 ms after sending: 35 ms.
        let sent = Duration::from_millis(130);
        let done = Duration::from_millis(135);
        assert!((latency_ms(due, done) - 35.0).abs() < 1e-9);
        assert!((lag_ms(due, sent) - 30.0).abs() < 1e-9);
        // Early completion cannot go negative.
        assert_eq!(latency_ms(done, due), 0.0);
    }

    #[test]
    fn sweeps_stop_before_overrunning_the_window() {
        let s = Duration::from_secs;
        assert!(another_sweep_fits(0, s(30), s(20)));
        // Three sweeps in 15 s: a fourth ends at 20 s, a fifth at 25 s.
        assert!(another_sweep_fits(3, s(15), s(20)));
        assert!(!another_sweep_fits(4, s(20), s(20)));
    }

    fn rung(rate: f64, p99_ms: f64) -> Rung {
        Rung {
            rate,
            p99_ms,
            missed: 0,
            backlog_growing: false,
        }
    }

    #[test]
    fn knee_interpolates_between_the_last_pass_and_first_latency_miss() {
        let rungs = [rung(100.0, 2.0), rung(200.0, 4.0), rung(300.0, 14.0)];
        // Limit 9 ms sits halfway from 4 to 14 ms: halfway from 200 to 300.
        assert!((knee(&rungs, 9.0) - 250.0).abs() < 1e-9);
        // Every rung passes: the top rate.
        assert_eq!(knee(&rungs, 20.0), 300.0);
        // The first rung fails: no knee.
        assert_eq!(knee(&rungs, 1.0), 0.0);
    }

    #[test]
    fn knee_gives_no_credit_for_sheds_or_backlog() {
        let mut shed = rung(300.0, 5.0);
        shed.missed = 3;
        assert_eq!(
            knee(&[rung(100.0, 2.0), rung(200.0, 4.0), shed], 9.0),
            200.0
        );
        let mut growing = rung(300.0, 12.0);
        growing.backlog_growing = true;
        assert_eq!(knee(&[rung(200.0, 4.0), growing], 9.0), 200.0);
    }

    #[test]
    fn backlog_detection_needs_a_drift_past_a_floor() {
        let flat: Vec<f64> = (0..40).map(|i| 1.0 + (i % 3) as f64 * 0.1).collect();
        assert!(!backlog_growing(&flat, 10.0));
        let rising: Vec<f64> = (0..40).map(|i| 1.0 + i as f64).collect();
        assert!(backlog_growing(&rising, 10.0));
        // A doubling that stays far under the limit is noise, not backlog.
        let small: Vec<f64> = (0..40).map(|i| 0.1 + 0.01 * i as f64).collect();
        assert!(!backlog_growing(&small, 10.0));
    }

    #[test]
    fn layer_share_and_glue() {
        assert!((share(8.0, 10.0) - 0.8).abs() < 1e-12);
        assert_eq!(share(1.0, 0.0), 0.0);
        assert!((glue(10.0, &[3.0, 4.0, 2.5]) - 0.5).abs() < 1e-12);
        assert!(glue(10.0, &[6.0, 5.0]) < 0.0);
    }

    #[test]
    fn fail_frac_counts_against_every_attempt() {
        assert_eq!(fail_frac(0, 50), 0.0);
        assert!((fail_frac(5, 50) - 0.1).abs() < 1e-12);
        assert_eq!(fail_frac(0, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "more failures than attempts")]
    fn fail_frac_rejects_an_impossible_base() {
        fail_frac(3, 2);
    }
}
