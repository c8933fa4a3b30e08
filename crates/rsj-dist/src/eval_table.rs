//! The process-wide discretization cache (system S22) plus a standalone
//! grid evaluator.
//!
//! The discretized DP calls `discretize` for every solve over a given
//! `(distribution, scheme, n, ε)` tuple — previously re-running the
//! special functions (`ln Γ`, incomplete gamma/beta inverses, …) at every
//! grid point on every visit. The [`discretize_eval`] cache shares one
//! [`DiscretizedEval`] across solver instances, experiment steps and
//! worker threads. An entry holds exactly what the solver reads: the
//! discretization itself plus its [`TailEntry`] — the survival and exact
//! conditional mean at the last support point `v_n`, which seed the DP's
//! unbounded-tail extension. Both tail values are direct calls, so they
//! are bit-for-bit what the solver would compute itself.
//!
//! [`EvalTable`] is a standalone evaluator over an arbitrary grid and is
//! off the plan path: the cache does not build one.
//!
//! ## Exactness
//!
//! `cdf`/`survival` table entries are the distribution's own values at
//! the grid points — bit-for-bit what a direct call returns. The
//! conditional-mean column is exact (one adaptive quadrature) at the
//! **last** grid point, where it equals the cache's [`TailEntry`], and a
//! trapezoid-of-survival approximation at interior points, clearly
//! documented for callers that can tolerate it.

use crate::discrete::{discretize, DiscreteDistribution, DiscretizationScheme};
use crate::error::{DistError, Result};
use crate::traits::ContinuousDistribution;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Distribution evaluations precomputed over a fixed grid of points.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalTable {
    points: Vec<f64>,
    cdf: Vec<f64>,
    survival: Vec<f64>,
    cond_mean: Vec<f64>,
}

impl EvalTable {
    /// Evaluates `dist` at each of the strictly increasing `points`.
    ///
    /// Cost: one `cdf_batch` + one `survival_batch` sweep over the grid
    /// (values bit-identical to per-point `cdf`/`survival` calls) plus a
    /// single adaptive quadrature for the tail beyond the last point.
    pub fn build(dist: &dyn ContinuousDistribution, points: Vec<f64>) -> Result<Self> {
        if points.is_empty() {
            return Err(DistError::DegenerateSample {
                reason: "empty evaluation grid",
            });
        }
        let mut prev = f64::NEG_INFINITY;
        for &p in &points {
            if !p.is_finite() || p <= prev {
                return Err(DistError::InvalidParameter {
                    name: "points",
                    value: p,
                    requirement: "must be finite and strictly increasing",
                });
            }
            prev = p;
        }
        let n = points.len();
        // Batch evaluation: one virtual dispatch per column instead of one
        // per grid point, with values bit-identical to per-point calls
        // (the `cdf_batch`/`survival_batch` contract, enforced by
        // `table_matches_direct_calls_bit_for_bit` below).
        let mut cdf = vec![0.0; n];
        dist.cdf_batch(&points, &mut cdf);
        let mut survival = vec![0.0; n];
        dist.survival_batch(&points, &mut survival);

        // Conditional means, back to front. The last entry is the exact
        // `E[X | X > v_n]` (one quadrature inside the default trait
        // implementation); interior entries reuse that tail and integrate
        // the survival function between grid points with the trapezoid
        // rule, so they carry O(Δt²) discretization error.
        let mut cond_mean = vec![0.0; n];
        let last = n - 1;
        let (exact_last, mut tail_integral) = if survival[last] > 0.0 {
            let cm = dist.conditional_mean_above(points[last]);
            (cm, (cm - points[last]) * survival[last])
        } else {
            (points[last], 0.0)
        };
        cond_mean[last] = exact_last;
        for i in (0..last).rev() {
            tail_integral += 0.5 * (survival[i] + survival[i + 1]) * (points[i + 1] - points[i]);
            cond_mean[i] = if survival[i] > 0.0 {
                points[i] + tail_integral / survival[i]
            } else {
                points[i]
            };
        }
        Ok(EvalTable {
            points,
            cdf,
            survival,
            cond_mean,
        })
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the grid is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The grid points, strictly increasing.
    pub fn points(&self) -> &[f64] {
        &self.points
    }

    /// `F(pᵢ)` for each grid point — exact distribution values.
    pub fn cdf(&self) -> &[f64] {
        &self.cdf
    }

    /// `P(X ≥ pᵢ)` for each grid point — exact distribution values.
    pub fn survival(&self) -> &[f64] {
        &self.survival
    }

    /// `E[X | X > pᵢ]` for each grid point: exact at the last point,
    /// trapezoid-approximate at interior points (see type docs).
    pub fn cond_mean(&self) -> &[f64] {
        &self.cond_mean
    }
}

/// The distribution's survival and exact conditional mean at the last
/// support point `v_n` of a discretization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailEntry {
    /// `P(X ≥ v_n)`.
    pub survival: f64,
    /// `E[X | X > v_n]`, or `v_n` itself when `survival` is zero.
    pub cond_mean: f64,
}

/// A discretization paired with its tail entry — the unit the
/// process-wide cache shares between solvers.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscretizedEval {
    /// The §4.2.1 discrete law (identical to what [`discretize`] returns).
    pub discrete: DiscreteDistribution,
    /// Survival and conditional mean at the last support point `v_n`.
    pub tail: TailEntry,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    dist: String,
    scheme: DiscretizationScheme,
    n: usize,
    epsilon_bits: u64,
}

/// Bound on cached entries. Each entry holds the discretization's two
/// `n`-length vectors plus a two-value tail entry (n ≤ a few thousand in
/// practice); 128 entries is a generous working set for a full
/// experiment suite. On overflow the map is cleared — a crude but
/// branch-free eviction that can only cost recomputation.
const CACHE_CAPACITY: usize = 128;

static CACHE: OnceLock<Mutex<HashMap<CacheKey, Arc<DiscretizedEval>>>> = OnceLock::new();
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

/// How the most recent [`discretize_eval`] call on this thread obtained
/// its entry. A per-thread side channel (like `rsj-core`'s DP-path
/// attribution) so solve explanations can say "warm" or "cold" without
/// racing other threads' cache traffic the way global hit/miss deltas
/// would.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalTableSource {
    /// Served from the process-wide cache (warm).
    CacheHit,
    /// Discretized and evaluated fresh (cold); the entry was then cached
    /// if the distribution has a faithful cache key.
    Built,
}

impl EvalTableSource {
    /// Short stable label for trace args and CLI output.
    pub fn as_str(self) -> &'static str {
        match self {
            EvalTableSource::CacheHit => "warm",
            EvalTableSource::Built => "cold",
        }
    }
}

thread_local! {
    static LAST_EVAL_SOURCE: std::cell::Cell<Option<EvalTableSource>> =
        const { std::cell::Cell::new(None) };
}

/// Discards any previously recorded source so a following
/// [`last_eval_source`] cannot read attribution left over from an
/// earlier, unrelated solve on this thread.
pub fn clear_last_eval_source() {
    LAST_EVAL_SOURCE.with(|c| c.set(None));
}

/// The source recorded by the most recent [`discretize_eval`] call on
/// this thread, without clearing it; `None` when none has run since
/// [`clear_last_eval_source`] (e.g. a closed-form heuristic that never
/// discretizes).
pub fn last_eval_source() -> Option<EvalTableSource> {
    LAST_EVAL_SOURCE.with(|c| c.get())
}

fn record_eval_source(source: EvalTableSource) {
    LAST_EVAL_SOURCE.with(|c| c.set(Some(source)));
}

fn cache() -> &'static Mutex<HashMap<CacheKey, Arc<DiscretizedEval>>> {
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Discretizes `dist` (same semantics as [`discretize`]) and evaluates
/// its [`TailEntry`] at the last support point, memoized process-wide by
/// `(dist.cache_key(), scheme, n, epsilon)`.
///
/// Distributions without a faithful [`ContinuousDistribution::cache_key`]
/// are computed fresh on every call (correctness first). Concurrent
/// misses on the same key may compute the entry twice; both arrive at
/// identical values, and one wins the insert.
pub fn discretize_eval(
    dist: &dyn ContinuousDistribution,
    scheme: DiscretizationScheme,
    n: usize,
    epsilon: f64,
) -> Result<Arc<DiscretizedEval>> {
    let key = dist.cache_key().map(|dist| CacheKey {
        dist,
        scheme,
        n,
        epsilon_bits: epsilon.to_bits(),
    });
    if let Some(key) = &key {
        if let Some(hit) = cache().lock().expect("eval cache lock").get(key) {
            HITS.fetch_add(1, Ordering::Relaxed);
            record_eval_source(EvalTableSource::CacheHit);
            return Ok(Arc::clone(hit));
        }
        MISSES.fetch_add(1, Ordering::Relaxed);
    }
    record_eval_source(EvalTableSource::Built);

    let discrete = discretize(dist, scheme, n, epsilon)?;
    // Direct calls, bit-identical to the last entry of an `EvalTable`
    // over the same support.
    let v_n = *discrete
        .values()
        .last()
        .expect("discretizations are non-empty");
    let survival = dist.survival(v_n);
    let cond_mean = if survival > 0.0 {
        dist.conditional_mean_above(v_n)
    } else {
        v_n
    };
    let tail = TailEntry {
        survival,
        cond_mean,
    };
    let entry = Arc::new(DiscretizedEval { discrete, tail });

    if let Some(key) = key {
        let mut map = cache().lock().expect("eval cache lock");
        if map.len() >= CACHE_CAPACITY {
            map.clear();
        }
        map.entry(key).or_insert_with(|| Arc::clone(&entry));
    }
    Ok(entry)
}

/// `(hits, misses)` of the process-wide discretization cache since start
/// (or the last reset). Exported by the benchmark binaries next to their
/// timings.
pub fn eval_cache_stats() -> (u64, u64) {
    (HITS.load(Ordering::Relaxed), MISSES.load(Ordering::Relaxed))
}

/// Empties the cache and zeroes the hit/miss counters. Benchmarks call
/// this between timed solves so warm-cache and cold-cache timings stay
/// distinguishable.
pub fn clear_eval_cache() {
    cache().lock().expect("eval cache lock").clear();
    HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::continuous::{Exponential, LogNormal, Uniform};

    /// Held by every test that touches the process-wide cache, so one
    /// test's lookups and clears never land inside another's hit/miss
    /// accounting under parallel libtest.
    static GLOBAL_CACHE: Mutex<()> = Mutex::new(());

    fn lock_cache() -> std::sync::MutexGuard<'static, ()> {
        GLOBAL_CACHE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn table_matches_direct_calls_bit_for_bit() {
        let d = LogNormal::new(3.0, 0.5).unwrap();
        let points: Vec<f64> = (1..=50).map(|i| i as f64).collect();
        let t = EvalTable::build(&d, points.clone()).unwrap();
        for (i, &p) in points.iter().enumerate() {
            assert_eq!(t.cdf()[i].to_bits(), d.cdf(p).to_bits());
            assert_eq!(t.survival()[i].to_bits(), d.survival(p).to_bits());
        }
        // The last conditional mean is the exact quadrature value.
        assert_eq!(
            t.cond_mean()[49].to_bits(),
            d.conditional_mean_above(50.0).to_bits()
        );
    }

    #[test]
    fn cache_entry_is_the_discretization_plus_direct_tail_calls() {
        let _guard = lock_cache();
        for (name, spec) in crate::DistSpec::paper_table1() {
            let d = spec.build().unwrap();
            for scheme in [
                DiscretizationScheme::EqualTime,
                DiscretizationScheme::EqualProbability,
            ] {
                let e = discretize_eval(d.as_ref(), scheme, 200, 1e-7).unwrap();
                let reference = discretize(d.as_ref(), scheme, 200, 1e-7).unwrap();
                assert_eq!(e.discrete, reference, "{name}/{scheme:?}");
                let v_n = *reference.values().last().unwrap();
                let survival = d.survival(v_n);
                assert_eq!(e.tail.survival.to_bits(), survival.to_bits(), "{name}");
                // Bounded laws end at the support's upper end, where no
                // mass remains and the entry is v_n itself.
                let cond_mean = if survival > 0.0 {
                    d.conditional_mean_above(v_n)
                } else {
                    assert!(d.support().is_bounded(), "{name}: no mass beyond v_n");
                    v_n
                };
                assert_eq!(e.tail.cond_mean.to_bits(), cond_mean.to_bits(), "{name}");
                // The standalone table's last entry agrees bit for bit.
                let t = EvalTable::build(d.as_ref(), reference.values().to_vec()).unwrap();
                let last = t.len() - 1;
                assert_eq!(t.survival()[last].to_bits(), e.tail.survival.to_bits());
                assert_eq!(t.cond_mean()[last].to_bits(), e.tail.cond_mean.to_bits());
            }
        }
    }

    #[test]
    fn interior_cond_means_approximate_the_exact_values() {
        let d = Exponential::new(0.5).unwrap();
        let points: Vec<f64> = (1..=2000).map(|i| i as f64 * 0.01).collect();
        let t = EvalTable::build(&d, points.clone()).unwrap();
        for i in (0..2000).step_by(137) {
            let exact = d.conditional_mean_above(points[i]);
            let approx = t.cond_mean()[i];
            assert!(
                (approx - exact).abs() / exact < 1e-4,
                "point {}: approx {approx} vs exact {exact}",
                points[i]
            );
        }
    }

    #[test]
    fn bounded_support_endpoint_is_handled() {
        let d = Uniform::new(10.0, 20.0).unwrap();
        let t = EvalTable::build(&d, vec![10.0, 15.0, 20.0]).unwrap();
        assert_eq!(t.survival()[2], 0.0);
        assert_eq!(t.cond_mean()[2], 20.0);
        // E[X | X > 15] = 17.5 for the uniform.
        assert!((t.cond_mean()[1] - 17.5).abs() < 1e-9);
    }

    #[test]
    fn rejects_bad_grids() {
        let d = Exponential::new(1.0).unwrap();
        assert!(EvalTable::build(&d, vec![]).is_err());
        assert!(EvalTable::build(&d, vec![1.0, 1.0]).is_err());
        assert!(EvalTable::build(&d, vec![2.0, 1.0]).is_err());
        assert!(EvalTable::build(&d, vec![1.0, f64::NAN]).is_err());
    }

    #[test]
    fn cache_shares_entries_and_counts_hits() {
        let _guard = lock_cache();
        clear_eval_cache();
        let d = LogNormal::new(1.25, 0.4).unwrap();
        let a = discretize_eval(&d, DiscretizationScheme::EqualProbability, 64, 1e-7).unwrap();
        let b = discretize_eval(&d, DiscretizationScheme::EqualProbability, 64, 1e-7).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the cache");
        let (hits, misses) = eval_cache_stats();
        assert_eq!((hits, misses), (1, 1));

        // Different scheme / n / epsilon are distinct entries.
        let c = discretize_eval(&d, DiscretizationScheme::EqualTime, 64, 1e-7).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        let reference = discretize(&d, DiscretizationScheme::EqualProbability, 64, 1e-7).unwrap();
        assert_eq!(a.discrete, reference, "cached law must equal discretize()");
        clear_eval_cache();
    }

    #[test]
    fn uncacheable_distributions_are_computed_fresh() {
        let _guard = lock_cache();
        clear_eval_cache();
        let samples: Vec<f64> = (1..=200).map(|i| i as f64 * 0.1).collect();
        let d = crate::interpolated::InterpolatedEmpirical::from_samples(&samples).unwrap();
        assert!(d.cache_key().is_none());
        let a = discretize_eval(&d, DiscretizationScheme::EqualProbability, 32, 1e-7).unwrap();
        let b = discretize_eval(&d, DiscretizationScheme::EqualProbability, 32, 1e-7).unwrap();
        assert!(!Arc::ptr_eq(&a, &b), "no faithful key → no sharing");
        assert_eq!(a.discrete, b.discrete);
        let (hits, _) = eval_cache_stats();
        assert_eq!(hits, 0);
        clear_eval_cache();
    }
}
