//! The repository benchmark: one command, two workloads, every output
//! checked.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold_grid_n1k|served_mix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` is a separate run that times the calls into each layer
//! from the benchmark's own code and prints the per-layer metrics. The
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the line before it is a record
//! of the host and workload. Spans from a traced run are written to
//! `perfbench/out/`. Any failed check makes the command exit non-zero.

mod grid;
mod served;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

/// End-to-end metrics, printed by every workload's untraced run. The
/// same names carry each workload's own user-visible numbers; the
/// record line repeats them, with the wall-clock rates, latencies and
/// open-loop figures that are too noisy to gate, under the workload's
/// own names.
///
/// The rate is gated per CPU-second of the thread doing the planning,
/// not per wall-clock second: the shared host at times steals a fifth of
/// a vCPU, which cut the served mix's wall-clock rate by a third while
/// its rate per CPU-second held.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_cpu_s", "1/s"),
];

/// Per-layer metrics, printed by every workload's traced run. A layer
/// that is not on a workload's path reads 0 there.
const PER_LAYER: &[(&str, &str)] = &[
    ("planner.plans", "count"),
    ("planner.plan_ms", "ms"),
    ("planner.build_ms", "ms"),
    ("planner.glue_ms", "ms"),
    ("planner.glue_share", "frac"),
    ("rsj-dist.discretize_ms", "ms"),
    ("rsj-dist.eval_table_ms", "ms"),
    ("rsj-dist.share", "frac"),
    ("rsj-dist.grid_points", "count"),
    ("rsj-dist.eval_cache_hit_ratio", "frac"),
    ("rsj-dist.eval_cache_lookups", "count"),
    ("rsj-core.dp_ms", "ms"),
    ("rsj-core.dp_share", "frac"),
    ("rsj-core.dp_exact_fallbacks", "count"),
    ("rsj-core.dp_exact_fallbacks_n10k", "count"),
    ("rsj-core.dp_monotone_evals", "count"),
    ("rsj-core.tail_ms", "ms"),
    ("rsj-core.tail_share", "frac"),
    ("rsj-core.score_ms", "ms"),
    ("rsj-core.score_share", "frac"),
    ("rsj-par.threads", "count"),
    ("rsj-par.exact_pool_speedup", "ratio"),
    ("rsj-serve.requests", "count"),
    ("rsj-serve.decode_ms.p50", "ms"),
    ("rsj-serve.decode_ms.p99", "ms"),
    ("rsj-serve.pipeline_wait_ms.p50", "ms"),
    ("rsj-serve.pipeline_wait_ms.p99", "ms"),
    ("rsj-serve.queue_wait_ms.p50", "ms"),
    ("rsj-serve.queue_wait_ms.p99", "ms"),
    ("rsj-serve.solve_ms.p50", "ms"),
    ("rsj-serve.solve_ms.p99", "ms"),
    ("rsj-serve.solve_share", "frac"),
    ("rsj-serve.journal_append_ms.p50", "ms"),
    ("rsj-serve.journal_append_ms.p99", "ms"),
    ("rsj-serve.journal_share", "frac"),
    ("rsj-serve.encode_write_ms.p50", "ms"),
    ("rsj-serve.encode_write_ms.p99", "ms"),
    ("rsj-serve.cache_hit_ratio", "frac"),
    ("rsj-serve.cache_lookups", "count"),
    ("rsj-serve.singleflight_joins", "count"),
    ("rsj-serve.solver_invocations", "count"),
    ("rsj-serve.journal_appends", "count"),
    ("rsj-serve.snapshots", "count"),
    ("rsj-serve.shed_overloaded", "count"),
    ("rsj-serve.shed_deadline", "count"),
    ("rsj-serve.batch_frames", "count"),
    ("rsj-serve.batch_frame_ms.p50", "ms"),
    ("rsj-serve.client_overhead_ms.p50", "ms"),
    ("rsj-serve.recovery_ms", "ms"),
    ("rsj-serve.recovered_records", "count"),
    ("rsj-obs.trace_overhead", "ratio"),
    ("gen.lag_ms_p99", "ms"),
    ("gen.valid", "flag"),
    ("host.nproc", "count"),
];

const WORKLOADS: &[&str] = &["cold_grid_n1k", "served_mix"];

/// What a workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Operations attempted, checks included.
    pub attempted: u64,
    /// Operations that failed, were shed, or violated a check.
    pub failed: u64,
    /// Measured values by metric name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Workload-specific facts for the record line, as JSON values.
    pub record: Vec<(String, String)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, key: impl Into<String>, json_value: impl Into<String>) {
        self.record.push((key.into(), json_value.into()));
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.unwrap_or(30);
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Where traced runs write their spans and the served workload keeps
/// its journal: inside the benchmark's own directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(all, steal)` CPU ticks of the host so far, from `/proc/stat`. The
/// steal share over a run says how much of the machine other tenants
/// took while it ran; timings from a run with a high share are suspect.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((ticks.iter().sum(), *ticks.get(7)?))
}

/// Which CPU clock [`cpu_s`] reads.
#[derive(Clone, Copy)]
pub enum CpuClock {
    /// Every thread of the process, those that have exited included.
    Process,
    /// The calling thread.
    Thread,
}

/// CPU seconds consumed so far on `clock`: time the kernel ran the
/// process or thread, without the time the host stole from the vCPU or
/// the thread waited to run.
pub fn cpu_s(clock: CpuClock) -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: std::os::raw::c_long,
        tv_nsec: std::os::raw::c_long,
    }
    extern "C" {
        fn clock_gettime(clock_id: std::os::raw::c_int, tp: *mut Timespec) -> std::os::raw::c_int;
    }
    // CLOCK_PROCESS_CPUTIME_ID and CLOCK_THREAD_CPUTIME_ID on Linux.
    let id = match clock {
        CpuClock::Process => 2,
        CpuClock::Thread => 3,
    };
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, exclusively borrowed `struct timespec`;
    // both clock ids always exist on Linux, so the call cannot fail.
    let rc = unsafe { clock_gettime(id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(0, |n| n.get())
}

/// A JSON string literal (the record's keys and labels are plain ASCII).
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// A JSON number; non-finite values (which no metric should produce)
/// become 0 so the line stays parseable.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A JSON object of named metrics, each `{"value": …, "unit": …}`.
pub fn named_json(metrics: &[(&str, f64, &str)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                r#"{}: {{"value": {}, "unit": {}}}"#,
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let seconds = Duration::from_secs(args.seconds);
    let cpu_before = cpu_ticks();
    let mut outcome = match args.workload.as_str() {
        "cold_grid_n1k" => grid::run(1_000, args.seed, seconds, args.trace),
        "served_mix" => served::run(args.seed, seconds, args.trace),
        _ => unreachable!("workload validated in parse_args"),
    };
    let steal = match (cpu_before, cpu_ticks()) {
        (Some(a), Some(b)) => stats::share(
            b.1.saturating_sub(a.1) as f64,
            b.0.saturating_sub(a.0) as f64,
        ),
        _ => 0.0,
    };
    if args.trace {
        outcome.set(
            "rsj-par.threads",
            rsj_par::Parallelism::current().threads() as f64,
        );
        outcome.set("host.nproc", nproc() as f64);
    } else if !outcome.metrics.contains_key("peak_rss_mb") {
        outcome.set("peak_rss_mb", peak_rss_mb());
    }

    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let metrics: Vec<(&str, f64, &str)> = table
        .iter()
        .map(|&(name, unit)| {
            let value = match outcome.metrics.get(name) {
                Some(v) => *v,
                None if args.trace => 0.0,
                None => panic!("workload {} did not measure {name}", args.workload),
            };
            (name, value, unit)
        })
        .collect();

    let mut record = vec![
        ("workload".to_string(), json_str(&args.workload)),
        ("seed".to_string(), args.seed.to_string()),
        ("seconds".to_string(), args.seconds.to_string()),
        ("trace".to_string(), (args.trace as u8).to_string()),
        ("nproc".to_string(), nproc().to_string()),
        (
            "rsj_par_threads".to_string(),
            rsj_par::Parallelism::current().threads().to_string(),
        ),
        (
            "fail_frac".to_string(),
            json_num(stats::fail_frac(outcome.failed, outcome.attempted)),
        ),
        ("host_steal_frac".to_string(), json_num(steal)),
    ];
    record.append(&mut outcome.record);
    let record: Vec<String> = record
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    println!("{{\"record\": {{{}}}}}", record.join(", "));
    println!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {}}}"#,
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        named_json(&metrics)
    );
    if !outcome.correct {
        std::process::exit(1);
    }
}
