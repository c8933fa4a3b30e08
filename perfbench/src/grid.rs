//! `cold_grid_n1k`: offline `Planner::plan` over the paper's Table 1
//! laws × {equal_time, equal_probability} at n = 10³, ε = 1e-7,
//! RESERVATIONONLY cost, the DP solver with default settings and the
//! default `rsj-par` pool. Closed loop, one caller thread; the eval
//! cache is cleared before every plan, so every plan is cold — as every
//! `rsj plan` CLI call is. The seed shuffles the cell order of each
//! sweep; the cells themselves are the paper's.
//!
//! The host alternates, for tens of seconds at a time, between a fast
//! mode and one where the same plans take up to ~1.6× longer, in CPU
//! time as in wall time. Medians land wherever a run's mix of modes puts
//! them; each cell's *best* plan in the window does not. So
//! `ops_per_cpu_s` is the rate of a sweep made of each cell's best plan,
//! in the planning thread's CPU time (at n = 10³ the pool never forks,
//! so that thread does all the work), and `setup_s` is the best set-up
//! sample; the medians and wall-clock plan-time percentiles go to the
//! record.
//!
//! The traced run also probes the same cells at n = 10⁴, where the
//! monotone DP declines on four of them and the exact O(n²) pass is the
//! only place the `rsj-par` pool forks. Timed end to end, that pass
//! spread by half its median between runs of the same code on a 2-vCPU
//! host, so it is a per-layer probe, not a workload.

use std::time::{Duration, Instant};

use reservation_strategies::{Plan, PlanRequest, Planner};
use rsj_core::{
    expected_cost_analytic, last_dp_path, optimal_discrete, optimal_discrete_exact_par,
    optimal_discrete_par, DpPath, SolverSpec,
};
use rsj_dist::{
    clear_eval_cache, discretize, discretize_eval, eval_cache_stats, DiscretizationScheme,
    DistSpec, EvalTable,
};
use rsj_par::Parallelism;

use crate::spans::Spans;
use crate::stats::{self, median, percentile, share, sorted};
use crate::{cpu_s, json_num, json_str, CpuClock, Outcome};

/// The paper's truncation quantile.
const EPSILON: f64 = 1e-7;

/// Grid size of the traced run's DP-cliff and pool probe.
const PROBE_N: usize = 10_000;

/// Set-up samples, spread evenly over the window so they meet the same
/// host modes as the sweeps; `setup_s` is the best of them, for the same
/// reason `ops_per_cpu_s` takes each cell's best plan (their median goes
/// to the record). Each sample builds the sweep's planners
/// `SETUP_BUILDS` times and reports the mean per build.
const SETUP_SAMPLES: usize = 15;
const SETUP_BUILDS: u32 = 500;

/// One Table 1 law under one discretization scheme.
struct Cell {
    label: String,
    scheme: DiscretizationScheme,
    n: usize,
    request: PlanRequest,
}

fn table1_cells(n: usize) -> Vec<Cell> {
    let mut out = Vec::new();
    for (law, spec) in DistSpec::paper_table1() {
        for scheme in [
            DiscretizationScheme::EqualTime,
            DiscretizationScheme::EqualProbability,
        ] {
            let solver = SolverSpec::Dp {
                scheme,
                n,
                epsilon: EPSILON,
                monotone: true,
            };
            out.push(Cell {
                label: format!("{law}/{scheme}"),
                scheme,
                n,
                request: PlanRequest::new(spec.clone()).with_solver(solver),
            });
        }
    }
    out
}

/// SplitMix64: a small seeded generator for the benchmark's inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The seeded visiting order of one sweep.
fn sweep_order(len: usize, seed: u64, sweep: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ sweep.wrapping_mul(0x2545_f491_4f6c_dd1d));
    let mut order: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

/// One sweep's plan times, in the sweep's order.
struct SweepTimes {
    /// Wall-clock ms per plan.
    wall_ms: Vec<f64>,
    /// The planning thread's CPU ms per plan.
    cpu_ms: Vec<f64>,
    /// Plans that fell back to the exact O(n²) pass.
    fallbacks: u64,
}

/// Plans one sweep in `order`, each plan from a cold eval cache.
fn sweep(planners: &[Planner], order: &[usize], tally: &mut Tally) -> SweepTimes {
    let mut times = SweepTimes {
        wall_ms: Vec::with_capacity(order.len()),
        cpu_ms: Vec::with_capacity(order.len()),
        fallbacks: 0,
    };
    for &i in order {
        clear_eval_cache();
        let cpu = cpu_s(CpuClock::Thread);
        let t = Instant::now();
        let plan = std::hint::black_box(planners[i].plan());
        times.wall_ms.push(t.elapsed().as_secs_f64() * 1e3);
        times.cpu_ms.push((cpu_s(CpuClock::Thread) - cpu) * 1e3);
        times.fallbacks += u64::from(last_dp_path() == Some(DpPath::ExactDeclined));
        tally.add(i, plan);
    }
    times
}

/// Mean seconds per build of every cell's planner, over `SETUP_BUILDS`
/// builds.
fn time_setup(cells: &[Cell]) -> f64 {
    let t = Instant::now();
    for _ in 0..SETUP_BUILDS {
        std::hint::black_box(build_planners(cells));
    }
    t.elapsed().as_secs_f64() / f64::from(SETUP_BUILDS)
}

fn build_planners(cells: &[Cell]) -> Vec<Planner> {
    cells
        .iter()
        .map(|c| {
            c.request
                .planner()
                .unwrap_or_else(|e| panic!("Table 1 cell {} is invalid: {e}", c.label))
        })
        .collect()
}

/// Checks one plan on its own: a strictly increasing ladder whose cost
/// is at least the omniscient cost.
fn plan_is_valid(plan: &Plan) -> bool {
    !plan.sequence.is_empty()
        && plan.sequence.windows(2).all(|w| w[0] < w[1])
        && plan.normalized_cost.is_finite()
        && plan.normalized_cost >= 1.0
}

/// The oracle check, outside every timed window: on the cell's
/// discretization the plan's ladder must start with exactly the exact
/// O(n²) pass's solution. Both the DP and the oracle end at the last
/// support point, and the ladder is strictly increasing, so a matching
/// prefix means the DP solution is bit-identical to the oracle's. The
/// oracle runs serially: it is bit-identical at any thread count.
fn matches_oracle(cell: &Cell, planner: &Planner, plan: &Plan) -> Result<bool, String> {
    let dist = planner.distribution();
    let cost = planner.cost_model();
    let eval = discretize_eval(dist, cell.scheme, cell.n, EPSILON).map_err(|e| e.to_string())?;
    let exact = optimal_discrete_exact_par(&eval.discrete, cost, &Parallelism::serial())
        .map_err(|e| e.to_string())?;
    Ok(plan.sequence.len() >= exact.values.len()
        && exact
            .values
            .iter()
            .zip(&plan.sequence)
            .all(|(x, y)| x.to_bits() == y.to_bits()))
}

/// Plans of the timed window, checked against each other.
struct Tally {
    attempted: u64,
    failed: u64,
    /// The first plan of each cell; later sweeps must repeat its digest.
    first: Vec<Option<Plan>>,
}

impl Tally {
    fn new(cells: usize) -> Self {
        Self {
            attempted: 0,
            failed: 0,
            first: vec![None; cells],
        }
    }

    fn add(&mut self, cell: usize, out: Result<Plan, reservation_strategies::RsjError>) {
        self.attempted += 1;
        let ok = match out {
            Err(_) => false,
            Ok(plan) => match &self.first[cell] {
                Some(first) => plan.digest == first.digest && plan.sequence == first.sequence,
                None => {
                    let valid = plan_is_valid(&plan);
                    self.first[cell] = Some(plan);
                    valid
                }
            },
        };
        if !ok {
            self.failed += 1;
        }
    }

    /// Runs the oracle on every cell that produced a plan; a cell that
    /// never produced one already counts as failed.
    fn check_oracle(&mut self, cells: &[Cell], planners: &[Planner]) {
        for (i, cell) in cells.iter().enumerate() {
            let Some(plan) = &self.first[i] else { continue };
            self.attempted += 1;
            match matches_oracle(cell, &planners[i], plan) {
                Ok(true) => {}
                Ok(false) => {
                    eprintln!("perfbench: {} differs from the exact DP oracle", cell.label);
                    self.failed += 1;
                }
                Err(e) => {
                    eprintln!("perfbench: oracle check of {} failed: {e}", cell.label);
                    self.failed += 1;
                }
            }
        }
    }

    fn finish(self, out: &mut Outcome) {
        out.attempted = self.attempted;
        out.failed = self.failed;
        out.correct = self.failed == 0 && self.attempted > 0;
    }
}

pub fn run(n: usize, seed: u64, window: Duration, trace: bool) -> Outcome {
    let cells = table1_cells(n);
    let mut out = Outcome::default();
    out.note("n", n.to_string());
    out.note("epsilon", json_num(EPSILON));
    out.note("cells", cells.len().to_string());
    if trace {
        traced(&cells, seed, window, &mut out);
    } else {
        untraced(&cells, seed, window, &mut out);
    }
    out
}

fn untraced(cells: &[Cell], seed: u64, window: Duration, out: &mut Outcome) {
    rsj_obs::set_metrics_enabled(false);
    let planners = build_planners(cells);
    let mut tally = Tally::new(cells.len());
    let mut setup = Vec::with_capacity(SETUP_SAMPLES);
    let mut plan_ms = Vec::new();
    let mut best_cpu_ms = vec![f64::INFINITY; cells.len()];
    let mut fallbacks = Vec::new();
    let mut sweep_rates = Vec::new();
    let started = Instant::now();
    let mut sweeps = 0u64;
    while stats::another_sweep_fits(sweeps, started.elapsed(), window) {
        let due = window.mul_f64(setup.len() as f64 / SETUP_SAMPLES as f64);
        if setup.len() < SETUP_SAMPLES && started.elapsed() >= due {
            setup.push(time_setup(cells));
        }
        let order = sweep_order(cells.len(), seed, sweeps);
        let times = sweep(&planners, &order, &mut tally);
        for (&i, &t) in order.iter().zip(&times.cpu_ms) {
            best_cpu_ms[i] = best_cpu_ms[i].min(t);
        }
        fallbacks.push(times.fallbacks);
        sweep_rates.push(stats::rate_per_s(&times.wall_ms));
        plan_ms.extend(times.wall_ms);
        sweeps += 1;
    }
    let window_s = started.elapsed().as_secs_f64();
    tally.check_oracle(cells, &planners);
    tally.finish(out);

    let sorted_ms = sorted(&plan_ms);
    let best_rate = stats::rate_per_s(&best_cpu_ms);
    let best_setup = setup.iter().copied().fold(f64::INFINITY, f64::min);
    out.set("setup_s", best_setup);
    out.set("ops_per_cpu_s", best_rate);
    out.note("sweeps", sweeps.to_string());
    out.note("plans", plan_ms.len().to_string());
    out.note("setup_samples", setup.len().to_string());
    out.note("window_s", json_num(window_s));
    out.note(
        "dp_exact_fallbacks_per_sweep",
        format!(
            r#"{{"min": {}, "max": {}}}"#,
            fallbacks.iter().min().expect("at least one sweep"),
            fallbacks.iter().max().expect("at least one sweep")
        ),
    );
    out.note(
        "named",
        crate::named_json(&[
            ("plans_per_cpu_s_best_cells", best_rate, "1/s"),
            ("plans_per_s", median(&sweep_rates), "1/s"),
            ("plan_ms_p50", median(&plan_ms), "ms"),
            ("plan_ms_p90", percentile(&sorted_ms, 90.0), "ms"),
            ("plan_ms_p99", percentile(&sorted_ms, 99.0), "ms"),
            ("setup_s_best", best_setup, "s"),
            ("setup_s_median", median(&setup), "s"),
        ]),
    );
}

/// Per-cell layer times of one traced visit, in ms.
#[derive(Default, Clone, Copy)]
struct LayerTimes {
    plan: f64,
    build: f64,
    discretize: f64,
    eval_table: f64,
    dp: f64,
    tail: f64,
    score: f64,
}

fn traced(cells: &[Cell], seed: u64, window: Duration, out: &mut Outcome) {
    let planners = build_planners(cells);
    let mut tally = Tally::new(cells.len());
    let evals = rsj_obs::global_registry().counter("rsj_core_dp_monotone_evals_total");
    let mut spans = Spans::new();
    let mut visits: Vec<LayerTimes> = Vec::new();
    let mut sweep_counts = Vec::new();
    let mut untraced_ms = 0.0;
    let mut untraced_plans = 0u64;
    let mut op = 0u64;
    let mut sweeps = 0u64;
    let started = Instant::now();
    // Each round is an untraced reference sweep (for the tracing
    // overhead) followed by a traced sweep, so drift hits both alike.
    while stats::another_sweep_fits(sweeps, started.elapsed(), window) {
        rsj_obs::set_metrics_enabled(false);
        let order = sweep_order(cells.len(), seed, 2 * sweeps);
        let times = sweep(&planners, &order, &mut tally);
        untraced_ms += times.wall_ms.iter().sum::<f64>();
        untraced_plans += times.wall_ms.len() as u64;

        // Traced sweep: global metrics on, every layer call in a span.
        rsj_obs::set_metrics_enabled(true);
        let (mut points, mut fallbacks, mut monotone_evals) = (0u64, 0u64, 0u64);
        let (mut hits, mut lookups) = (0u64, 0u64);
        for i in sweep_order(cells.len(), seed, 2 * sweeps + 1) {
            op += 1;
            let cell = &cells[i];
            let root_idx = spans.begin("bench.cell", op, None);
            let root = Some(root_idx);
            let mut t = LayerTimes::default();
            clear_eval_cache();
            let planner;
            (planner, t.build) = spans.time("planner.build", op, root, || cell.request.planner());
            let planner = planner.expect("Table 1 cell is valid");
            let evals_before = evals.get();
            let plan;
            (plan, t.plan) = spans.time("planner.plan", op, root, || planner.plan());
            monotone_evals += evals.get() - evals_before;
            let (h, m) = eval_cache_stats();
            hits += h;
            lookups += h + m;
            fallbacks += u64::from(last_dp_path() == Some(DpPath::ExactDeclined));
            tally.add(i, plan);

            // The same plan, layer by layer, from a cold cache.
            clear_eval_cache();
            let dist = planner.distribution();
            let cost = planner.cost_model();
            let discrete;
            (discrete, t.discretize) = spans.time("rsj-dist.discretize", op, root, || {
                discretize(dist, cell.scheme, cell.n, EPSILON)
            });
            let discrete = discrete.expect("discretize a Table 1 law");
            points += discrete.len() as u64;
            (_, t.eval_table) = spans.time("rsj-dist.eval_table", op, root, || {
                EvalTable::build(dist, discrete.values().to_vec())
            });
            (_, t.dp) = spans.time("rsj-core.dp", op, root, || {
                optimal_discrete(&discrete, cost)
            });
            // Tail extension: the whole strategy on a warm table, minus
            // the DP it repeats.
            let strategy = planner.solver_spec().build().expect("DP spec builds");
            discretize_eval(dist, cell.scheme, cell.n, EPSILON).expect("warm the table");
            let (seq, sequence_ms) = spans.time("rsj-core.sequence_warm", op, root, || {
                strategy.sequence(dist, cost)
            });
            t.tail = sequence_ms - t.dp;
            let seq = seq.expect("DP sequence");
            (_, t.score) = spans.time("rsj-core.score", op, root, || {
                (
                    expected_cost_analytic(&seq, dist, cost),
                    cost.omniscient(dist),
                )
            });
            spans.end(root_idx);
            visits.push(t);
        }
        sweep_counts.push((points, fallbacks, monotone_evals, hits, lookups));
        sweeps += 1;
    }
    rsj_obs::set_metrics_enabled(false);

    // The probe at n = 10⁴: the cells whose monotone gate declines
    // there, then their exact pass serial over the default pool.
    let probe_cells = table1_cells(PROBE_N);
    let probe_planners = build_planners(&probe_cells);
    let mut fallback_cells = Vec::new();
    for (cell, planner) in probe_cells.iter().zip(&probe_planners) {
        let dist = planner.distribution();
        let eval = discretize_eval(dist, cell.scheme, cell.n, EPSILON).expect("probe cell");
        optimal_discrete_par(&eval.discrete, planner.cost_model(), &Parallelism::serial())
            .expect("probe DP");
        if last_dp_path() == Some(DpPath::ExactDeclined) {
            fallback_cells.push((cell, planner, eval));
        }
    }
    let (mut serial_ms, mut pool_ms) = (0.0, 0.0);
    for (_, planner, eval) in &fallback_cells {
        let cost = planner.cost_model();
        serial_ms += spans
            .time("rsj-par.exact_serial", 0, None, || {
                optimal_discrete_exact_par(&eval.discrete, cost, &Parallelism::serial())
            })
            .1;
        pool_ms += spans
            .time("rsj-par.exact_pool", 0, None, || {
                optimal_discrete_exact_par(&eval.discrete, cost, &Parallelism::current())
            })
            .1;
    }

    tally.check_oracle(cells, &planners);
    tally.finish(out);

    let sum = |f: fn(&LayerTimes) -> f64| visits.iter().map(f).sum::<f64>();
    let plans = visits.len() as f64;
    let plan = sum(|t| t.plan);
    let layers = [
        sum(|t| t.discretize),
        sum(|t| t.eval_table),
        sum(|t| t.dp),
        sum(|t| t.tail),
        sum(|t| t.score),
    ];
    let glue = stats::glue(plan, &layers);
    let [discretize_ms, eval_table_ms, dp_ms, tail_ms, score_ms] = layers;
    out.set("planner.plans", plans);
    out.set("planner.plan_ms", plan / plans);
    out.set("planner.build_ms", sum(|t| t.build) / plans);
    out.set("planner.glue_ms", glue / plans);
    out.set("planner.glue_share", share(glue, plan));
    out.set("rsj-dist.discretize_ms", discretize_ms / plans);
    out.set("rsj-dist.eval_table_ms", eval_table_ms / plans);
    out.set("rsj-dist.share", share(discretize_ms + eval_table_ms, plan));
    out.set("rsj-core.dp_ms", dp_ms / plans);
    out.set("rsj-core.dp_share", share(dp_ms, plan));
    out.set("rsj-core.tail_ms", tail_ms / plans);
    out.set("rsj-core.tail_share", share(tail_ms, plan));
    out.set("rsj-core.score_ms", score_ms / plans);
    out.set("rsj-core.score_share", share(score_ms, plan));
    // Counts repeat exactly from sweep to sweep; report the first.
    let (points, fallbacks, monotone_evals, hits, lookups) = sweep_counts[0];
    out.set("rsj-dist.grid_points", points as f64);
    out.set(
        "rsj-dist.eval_cache_hit_ratio",
        share(hits as f64, lookups as f64),
    );
    out.set("rsj-dist.eval_cache_lookups", lookups as f64);
    out.set("rsj-core.dp_exact_fallbacks", fallbacks as f64);
    out.set(
        "rsj-core.dp_exact_fallbacks_n10k",
        fallback_cells.len() as f64,
    );
    out.set("rsj-core.dp_monotone_evals", monotone_evals as f64);
    out.set("rsj-par.exact_pool_speedup", share(serial_ms, pool_ms));
    let traced_per_plan = plan / plans;
    let untraced_per_plan = untraced_ms / untraced_plans as f64;
    out.set(
        "rsj-obs.trace_overhead",
        share(traced_per_plan, untraced_per_plan),
    );
    out.note("rounds", sweeps.to_string());
    out.note(
        "counts_per_sweep",
        format!(
            "[{}]",
            sweep_counts
                .iter()
                .map(|c| format!(
                    r#"{{"grid_points": {}, "dp_exact_fallbacks": {}, "dp_monotone_evals": {}, "eval_cache_hits": {}, "eval_cache_misses": {}}}"#,
                    c.0, c.1, c.2, c.3, c.4 - c.3
                ))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    );
    out.note(
        "fallback_cells_n10k",
        format!(
            "[{}]",
            fallback_cells
                .iter()
                .map(|(cell, _, _)| json_str(&cell.label))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    );
    out.note(
        "exact_pool_ms",
        format!(
            r#"{{"serial": {}, "pool": {}, "base_cells": {}}}"#,
            json_num(serial_ms),
            json_num(pool_ms),
            fallback_cells.len()
        ),
    );
    out.note("untraced_plan_ms_mean", json_num(untraced_per_plan));
    let path = crate::out_dir().join(format!("spans-cold_grid_n{}-{seed}.jsonl", cells[0].n));
    match spans.write(&path) {
        Ok(()) => out.note("spans", json_str(&path.display().to_string())),
        Err(e) => eprintln!("perfbench: could not write spans: {e}"),
    }
}
