//! `served_mix`: an in-process `rsj-serve` server — one solver worker,
//! durability on at the default snapshot cadence, plan cache on — driven
//! by one generator thread over at most two pipelined connections.
//!
//! The mix is all n = 10³ DP: repeats of recent requests (plan-cache
//! hits), misses that jitter only the cost over an already-built eval
//! table, misses on a new law (cold discretization + eval table), and v2
//! `plan_batch` frames of eight cost-jitter items.
//!
//! Set-up is a restart that recovers a journal pre-filled in an untimed
//! phase. The measured phases, in order:
//!
//! 1. unloaded — a closed loop, one request at a time;
//! 2. open loop at the fixed rates [`RATES`], Poisson arrivals, each
//!    request timed from its due time;
//! 3. the rate ladder above them, until a rung misses [`LIMIT_MS`]: the
//!    knee.
//!
//! Saturated bursts — closed loops keeping both connections full — run
//! after the unloaded phase, after each rate and after the ladder. The
//! gated `ops_per_cpu_s` is the median burst's answered requests per
//! CPU-second of the server's one solver worker — the capacity that
//! worker would have if it never waited for a vCPU. On a shared 2-vCPU
//! host the wall-clock capacity fell by a third while the host stole a
//! fifth of a vCPU, and the whole process's rate per CPU-second, which
//! also counts the generator and the reactor, spread 0.18 of its median
//! over five runs of the same code where the worker's spread under 0.05
//! over ten. Both, with each burst's wall-clock rate, are recorded.
//! Spread over the run, ten short bursts spread half as much from run to
//! run as one long phase did.
//!
//! `setup_s` is the best restart: the host alternates for tens of
//! seconds between a fast and a slower mode (see `grid`), and the best of
//! the restarts meets the fast one. Latencies, open-loop tails and the
//! knee swing with that mode and with steal, so they are recorded by
//! name, not gated.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind as IoErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use reservation_strategies::PlanRequest;
use rsj_core::{CostModel, SolverSpec};
use rsj_dist::{eval_cache_stats, DiscretizationScheme, DistSpec};
use rsj_serve::{
    BatchItem, Client, DurabilityConfig, Request, Response, Server, ServerConfig, ShutdownHandle,
};

use crate::grid::Rng;
use crate::stats::{self, median, percentile, share, sorted, Rung};
use crate::{cpu_s, json_num, CpuClock, Outcome};

/// The three fixed open-loop rates, requests per second: 25/50/75% of
/// the mix's saturated closed-loop capacity (median ~1850 requests/s
/// over five seeds on a 2-vCPU x86-64 host, one server worker) when the
/// rates were chosen. Frozen: never rescaled.
const RATES: [f64; 3] = [460.0, 925.0, 1390.0];

/// Rungs above `RATES[2]` probed for the knee, in ascending order.
const LADDER: [f64; 12] = [
    1460.0, 1535.0, 1610.0, 1685.0, 1760.0, 1835.0, 1910.0, 1985.0, 2060.0, 2135.0, 2210.0, 2285.0,
];

/// The p99 latency limit the knee is searched against, ms.
const LIMIT_MS: f64 = 100.0;

/// Operations in the unloaded closed loop and in each saturated burst:
/// a fixed amount of work (about 3.5 s and 0.55 s at the capacity the
/// rates were chosen from), so the benchmark's own buffers do not grow
/// with speed.
const UNLOADED_OPS: usize = 6000;
const BURST_OPS: usize = 1000;

/// Saturated bursts run at each of the five stops (after the unloaded
/// phase, after each rate, after the ladder).
const BURSTS_PER_STOP: usize = 2;

/// Shares of the window: each open-loop rate and each ladder rung.
const PHASE_SHARE: [f64; 3] = [0.20, 0.12, 0.10];
const RUNG_SHARE: f64 = 0.04;

/// Requests outstanding per connection in the saturating closed loop.
const SATURATED_DEPTH: usize = 8;

/// Untimed closed-loop operations that fill the journal before set-up.
const PREFILL_OPS: usize = 400;

/// Restarts measured for `setup_s` (their best); the last one keeps
/// serving.
const SETUP_RESTARTS: usize = 15;

/// Generator lag (p99, ms) above which the open loop counts as invalid:
/// a tenth of the latency limit.
const MAX_LAG_P99_MS: f64 = 0.1 * LIMIT_MS;

/// How long after its last due time a phase waits for answers.
const DRAIN: Duration = Duration::from_secs(5);

const N: usize = 1000;
const EPSILON: f64 = 1e-7;

/// Trace ring size of the traced server: holds the longest phase.
const TRACE_BUFFER: usize = 8192;

// ---------------------------------------------------------------- mix

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Kind {
    Repeat,
    CostJitter,
    NewLaw,
    Batch,
}

/// One operation of the mix: a singleton plan or a batch frame.
#[derive(Debug, Clone)]
struct Op {
    kind: Kind,
    items: Vec<PlanRequest>,
}

/// The seeded request mix. Sampling is stratified so that every seed
/// gets the same composition: kinds are dealt from a shuffled deck of
/// [`DECK`], and new laws cycle through the families and schemes in a
/// fixed order; the seed draws the order, parameters and costs.
struct Mix {
    rng: Rng,
    deck: Vec<Kind>,
    laws_made: usize,
    /// Recently introduced laws, whose eval tables the server has built.
    laws: VecDeque<(DistSpec, DiscretizationScheme)>,
    /// Recently sent singleton requests, candidates for repeats.
    recent: VecDeque<PlanRequest>,
}

/// Twenty operations: 6 repeats, 9 cost jitters, 4 new laws, 1 batch.
const DECK: [(Kind, usize); 4] = [
    (Kind::Repeat, 6),
    (Kind::CostJitter, 9),
    (Kind::NewLaw, 4),
    (Kind::Batch, 1),
];

const RECENT_LAWS: usize = 16;
const RECENT_REQUESTS: usize = 64;

fn dp(scheme: DiscretizationScheme) -> SolverSpec {
    SolverSpec::Dp {
        scheme,
        n: N,
        epsilon: EPSILON,
        monotone: true,
    }
}

impl Mix {
    fn new(seed: u64) -> Self {
        Self {
            rng: Rng::new(seed ^ 0x5e4d_5e4d),
            deck: Vec::new(),
            laws_made: 0,
            laws: VecDeque::new(),
            recent: VecDeque::new(),
        }
    }

    fn law(&mut self, family: usize) -> DistSpec {
        let r = &mut self.rng;
        match family {
            0 => DistSpec::Exponential {
                lambda: r.range(0.2, 2.0),
            },
            1 => DistSpec::Weibull {
                lambda: r.range(0.5, 2.0),
                kappa: r.range(0.6, 2.5),
            },
            2 => DistSpec::Gamma {
                alpha: r.range(1.0, 4.0),
                beta: r.range(0.5, 3.0),
            },
            3 => DistSpec::LogNormal {
                mu: r.range(1.0, 4.0),
                sigma: r.range(0.2, 1.0),
            },
            4 => DistSpec::TruncatedNormal {
                mu: r.range(4.0, 10.0),
                sigma: r.range(0.5, 2.5),
                a: 0.0,
            },
            5 => DistSpec::Pareto {
                nu: r.range(0.5, 2.0),
                alpha: r.range(2.5, 4.0),
            },
            6 => {
                let a = r.range(0.0, 10.0);
                DistSpec::Uniform {
                    a,
                    b: a + r.range(1.0, 20.0),
                }
            }
            7 => DistSpec::Beta {
                alpha: r.range(1.0, 4.0),
                beta: r.range(1.0, 4.0),
            },
            _ => {
                let l = r.range(0.5, 2.0);
                DistSpec::BoundedPareto {
                    l,
                    h: l * r.range(5.0, 30.0),
                    alpha: r.range(1.5, 3.0),
                }
            }
        }
    }

    fn cost(&mut self) -> CostModel {
        CostModel {
            alpha: self.rng.range(0.5, 2.0),
            beta: self.rng.range(0.0, 1.0),
            gamma: self.rng.range(0.0, 1.0),
        }
    }

    fn new_law(&mut self) -> PlanRequest {
        let (family, round) = (self.laws_made % 9, self.laws_made / 9);
        self.laws_made += 1;
        let spec = self.law(family);
        let scheme = if round % 2 == 0 {
            DiscretizationScheme::EqualTime
        } else {
            DiscretizationScheme::EqualProbability
        };
        if self.laws.len() == RECENT_LAWS {
            self.laws.pop_front();
        }
        self.laws.push_back((spec.clone(), scheme));
        PlanRequest::new(spec).with_solver(dp(scheme))
    }

    /// A new cost over a recent law; there must be one.
    fn jitter(&mut self) -> PlanRequest {
        let (spec, scheme) = self.laws[self.rng.below(self.laws.len())].clone();
        let cost = self.cost();
        PlanRequest::new(spec)
            .with_solver(dp(scheme))
            .with_cost(cost)
    }

    fn remember(&mut self, request: &PlanRequest) {
        if self.recent.len() == RECENT_REQUESTS {
            self.recent.pop_front();
        }
        self.recent.push_back(request.clone());
    }

    /// 30% repeats, 45% cost jitters, 20% new laws, 5% batches of 8.
    fn next(&mut self) -> Op {
        if self.deck.is_empty() {
            for (kind, count) in DECK {
                self.deck.extend(std::iter::repeat_n(kind, count));
            }
            for i in (1..self.deck.len()).rev() {
                self.deck.swap(i, self.rng.below(i + 1));
            }
        }
        let kind = self.deck.pop().expect("deck refilled");
        let (kind, items) = match kind {
            Kind::Repeat if !self.recent.is_empty() => {
                let i = self.rng.below(self.recent.len());
                (Kind::Repeat, vec![self.recent[i].clone()])
            }
            Kind::CostJitter if !self.laws.is_empty() => (Kind::CostJitter, vec![self.jitter()]),
            Kind::Batch if !self.laws.is_empty() => {
                (Kind::Batch, (0..8).map(|_| self.jitter()).collect())
            }
            _ => (Kind::NewLaw, vec![self.new_law()]),
        };
        if kind != Kind::Batch {
            self.remember(&items[0]);
        }
        Op { kind, items }
    }
}

fn request_of(op: &Op, trace_id: Option<String>) -> Request {
    let mut request = if op.kind == Kind::Batch {
        Request::plan_batch(op.items.clone())
    } else {
        let item = &op.items[0];
        Request::Plan {
            v: rsj_serve::PROTOCOL_VERSION,
            distribution: item.distribution.clone(),
            cost: item.cost,
            solver: item.solver.clone(),
            seed: None,
            simulate: None,
            deadline_ms: None,
            trace_id: None,
            trace: false,
        }
    };
    if let Some(id) = trace_id {
        request = request.with_trace_id(id);
    }
    request
}

// ------------------------------------------------------------- server

struct Running {
    addr: SocketAddr,
    shutdown: ShutdownHandle,
    join: std::thread::JoinHandle<std::io::Result<()>>,
}

fn server_config(dir: &Path, trace_buffer: usize) -> ServerConfig {
    ServerConfig {
        workers: 1,
        // Long open-loop runs must never hit `too_many_requests`.
        max_requests_per_conn: usize::MAX,
        durability: Some(DurabilityConfig::new(dir)),
        trace_buffer,
        ..ServerConfig::default()
    }
}

fn start(dir: &Path, trace_buffer: usize) -> Running {
    let server = Server::bind(server_config(dir, trace_buffer)).expect("bind the server");
    let addr = server.local_addr();
    let shutdown = server.shutdown_handle();
    let join = std::thread::Builder::new()
        .name("perfbench-server".into())
        .spawn(move || server.run())
        .expect("spawn the server thread");
    Running {
        addr,
        shutdown,
        join,
    }
}

fn stop(running: Running) {
    running.shutdown.signal();
    running
        .join
        .join()
        .expect("server thread panicked")
        .expect("server run failed");
}

/// Starts a server over `dir` and waits until it is ready: recovery
/// done, queue below its watermark. Returns it with the time taken.
fn start_ready(dir: &Path, trace_buffer: usize) -> (Running, Duration) {
    let t = Instant::now();
    let running = start(dir, trace_buffer);
    let mut client = Client::connect(running.addr).expect("connect to the server");
    while !client.ready().expect("readiness probe") {
        std::thread::sleep(Duration::from_micros(100));
    }
    (running, t.elapsed())
}

/// Counters from the server's `metrics` op (Prometheus text).
fn counters(addr: SocketAddr) -> HashMap<String, f64> {
    let mut client = Client::connect(addr).expect("connect for metrics");
    let text = client.metrics().expect("metrics op");
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.trim().to_string(), value.trim().parse().ok()?))
        })
        .collect()
}

// ---------------------------------------------------------- open loop

/// One scheduled operation.
struct Planned {
    due: Duration,
    op: Op,
    line: Vec<u8>,
    trace_id: Option<String>,
}

/// What happened to one scheduled operation.
#[derive(Default, Clone)]
struct Sent {
    sent: Option<Duration>,
    done: Option<Duration>,
    response: Option<String>,
}

/// Draws operations from the mix and encodes them for the wire.
struct Source<'a> {
    mix: &'a mut Mix,
    arrivals: Rng,
    /// Tag every request with a trace id (traced runs).
    traced: bool,
    next_id: u64,
}

impl Source<'_> {
    fn planned(&mut self, due: Duration) -> Planned {
        let op = self.mix.next();
        let trace_id = self.traced.then(|| {
            self.next_id += 1;
            format!("pb{}", self.next_id)
        });
        let mut line = serde_json::to_string(&request_of(&op, trace_id.clone()))
            .expect("encode request")
            .into_bytes();
        line.push(b'\n');
        Planned {
            due,
            op,
            line,
            trace_id,
        }
    }

    /// Poisson arrivals at `rate` per second for `duration`. Encoding
    /// happens here, before the phase starts.
    fn poisson(&mut self, rate: f64, duration: Duration) -> Vec<Planned> {
        let mut out = Vec::new();
        let mut t = 0.0;
        loop {
            t += -(1.0 - self.arrivals.unit()).ln() / rate;
            if t >= duration.as_secs_f64() {
                return out;
            }
            out.push(self.planned(Duration::from_secs_f64(t)));
        }
    }

    /// `count` operations for a closed loop, which sends them in order.
    fn backlog(&mut self, count: usize) -> Vec<Planned> {
        (0..count).map(|_| self.planned(Duration::ZERO)).collect()
    }
}

/// One pipelined connection of the generator.
struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    inbuf: Vec<u8>,
    pending: VecDeque<usize>,
    open: bool,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect the generator");
        stream.set_nodelay(true).expect("TCP_NODELAY");
        stream.set_nonblocking(true).expect("nonblocking socket");
        Self {
            stream,
            out: Vec::new(),
            out_pos: 0,
            inbuf: Vec::new(),
            pending: VecDeque::new(),
            open: true,
        }
    }

    fn flush(&mut self) {
        while self.open && self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => self.open = false,
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == IoErrorKind::WouldBlock => break,
                Err(e) if e.kind() == IoErrorKind::Interrupted => {}
                Err(_) => self.open = false,
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
    }

    /// Reads what is available and completes answered operations.
    fn read(&mut self, t0: Instant, sent: &mut [Sent]) {
        let mut chunk = [0u8; 64 * 1024];
        while self.open {
            match self.stream.read(&mut chunk) {
                Ok(0) => self.open = false,
                Ok(n) => {
                    let now = t0.elapsed();
                    self.inbuf.extend_from_slice(&chunk[..n]);
                    while let Some(pos) = self.inbuf.iter().position(|b| *b == b'\n') {
                        let line: Vec<u8> = self.inbuf.drain(..=pos).collect();
                        let Some(idx) = self.pending.pop_front() else {
                            self.open = false;
                            break;
                        };
                        sent[idx].done = Some(now);
                        sent[idx].response = Some(String::from_utf8_lossy(&line).into_owned());
                    }
                }
                Err(e) if e.kind() == IoErrorKind::WouldBlock => break,
                Err(e) if e.kind() == IoErrorKind::Interrupted => {}
                Err(_) => self.open = false,
            }
        }
    }
}

/// Waits until one of the connections is readable (or writable, when
/// it has bytes queued) or `timeout` passes, with sub-millisecond
/// resolution so sends leave on time.
fn wait(conns: &[Conn], timeout: Duration) {
    #[repr(C)]
    struct PollFd {
        fd: std::os::raw::c_int,
        events: std::os::raw::c_short,
        revents: std::os::raw::c_short,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: std::os::raw::c_long,
        tv_nsec: std::os::raw::c_long,
    }
    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: std::os::raw::c_ulong,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> std::os::raw::c_int;
    }
    const POLLIN: std::os::raw::c_short = 0x1;
    const POLLOUT: std::os::raw::c_short = 0x4;
    let mut fds: Vec<PollFd> = conns
        .iter()
        .filter(|c| c.open)
        .map(|c| PollFd {
            fd: c.stream.as_raw_fd(),
            events: POLLIN | if c.out.is_empty() { 0 } else { POLLOUT },
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: timeout.as_secs() as std::os::raw::c_long,
        tv_nsec: timeout.subsec_nanos() as std::os::raw::c_long,
    };
    // SAFETY: `fds` is a live, exclusively borrowed array of `fds.len()`
    // `struct pollfd`-layout entries over open sockets owned by `conns`;
    // `ts` is a valid `struct timespec`; a null sigmask is allowed. The
    // result only says whether something is ready, and every socket is
    // nonblocking, so an error or early return is harmless.
    unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as std::os::raw::c_ulong,
            &ts,
            std::ptr::null(),
        );
    }
}

/// How a phase paces its sends.
#[derive(Clone, Copy)]
enum Pace {
    /// Each operation is sent at its due time, whatever is outstanding.
    Open,
    /// At most `depth` operations outstanding per connection, the next
    /// sent as soon as a slot frees.
    Closed { depth: usize },
}

/// Sends `plan` over `conns` and collects the answers. Operations go to
/// the open connection with fewer outstanding requests. Returns what
/// happened to each operation and how long the phase took.
fn drive(conns: &mut [Conn], plan: &[Planned], pace: Pace) -> (Vec<Sent>, Duration) {
    let mut sent = vec![Sent::default(); plan.len()];
    let t0 = Instant::now();
    let mut next = 0;
    let mut last_send = Duration::ZERO;
    loop {
        let now = t0.elapsed();
        while next < plan.len() {
            let Some(c) = (0..conns.len())
                .filter(|&c| conns[c].open)
                .min_by_key(|&c| conns[c].pending.len())
            else {
                break;
            };
            let ready = match pace {
                Pace::Open => plan[next].due <= now,
                Pace::Closed { depth } => conns[c].pending.len() < depth,
            };
            if !ready {
                break;
            }
            let conn = &mut conns[c];
            conn.out.extend_from_slice(&plan[next].line);
            conn.pending.push_back(next);
            last_send = t0.elapsed();
            sent[next].sent = Some(last_send);
            next += 1;
        }
        for conn in conns.iter_mut() {
            conn.flush();
            conn.read(t0, &mut sent);
        }
        let outstanding: usize = conns
            .iter()
            .filter(|c| c.open)
            .map(|c| c.pending.len())
            .sum();
        let issuing = next < plan.len();
        if !issuing && outstanding == 0 {
            break;
        }
        if (!issuing && t0.elapsed() > last_send + DRAIN) || conns.iter().all(|c| !c.open) {
            break;
        }
        let timeout = match pace {
            Pace::Open if next < plan.len() => plan[next].due.saturating_sub(t0.elapsed()),
            // A closed loop with a free slot sends again at once.
            Pace::Closed { depth }
                if issuing && conns.iter().any(|c| c.open && c.pending.len() < depth) =>
            {
                continue
            }
            _ => Duration::from_millis(5),
        };
        wait(conns, timeout.min(Duration::from_millis(5)));
    }
    for conn in conns.iter_mut() {
        conn.pending.clear();
    }
    (sent, t0.elapsed())
}

// ------------------------------------------------------------ results

/// One successfully planned item, for the offline digest check.
struct Served {
    request: PlanRequest,
    digest: String,
}

/// A phase's outcome.
struct PhaseResult {
    /// Offered rate of an open-loop phase; 0 for a closed loop.
    rate: f64,
    /// Answered operations per second of phase time.
    throughput: f64,
    /// Answered operations per CPU-second the process spent in the phase.
    ops_per_cpu_s: f64,
    /// Answered operations per CPU-second of the server's solver workers.
    ops_per_worker_cpu_s: f64,
    ops: usize,
    items: u64,
    failed_items: u64,
    /// Latency of answered, successful operations in send order: from
    /// the due time in an open loop, from the send in a closed one.
    latencies: Vec<f64>,
    lag_ms: Vec<f64>,
    /// Client round trip (sent → answered) by trace id, ms.
    round_trips: HashMap<String, f64>,
    served: Vec<Served>,
}

impl PhaseResult {
    fn p(&self, q: f64) -> f64 {
        if self.latencies.is_empty() {
            return f64::INFINITY;
        }
        percentile(&sorted(&self.latencies), q)
    }

    fn median(&self) -> f64 {
        if self.latencies.is_empty() {
            return f64::INFINITY;
        }
        median(&self.latencies)
    }

    fn rung(&self) -> Rung {
        Rung {
            rate: self.rate,
            p99_ms: self.p(99.0),
            missed: self.failed_items as usize,
            backlog_growing: stats::backlog_growing(&self.latencies, LIMIT_MS),
        }
    }
}

fn evaluate(
    pace: Pace,
    rate: f64,
    plan: &[Planned],
    sent: Vec<Sent>,
    took: Duration,
) -> PhaseResult {
    let answered = sent.iter().filter(|s| s.done.is_some()).count();
    let mut r = PhaseResult {
        rate,
        throughput: answered as f64 / took.as_secs_f64(),
        ops_per_cpu_s: 0.0,
        ops_per_worker_cpu_s: 0.0,
        ops: 0,
        items: 0,
        failed_items: 0,
        latencies: Vec::with_capacity(plan.len()),
        lag_ms: Vec::with_capacity(plan.len()),
        round_trips: HashMap::new(),
        served: Vec::new(),
    };
    for (p, s) in plan.iter().zip(sent) {
        let origin = match pace {
            Pace::Closed { .. } => s.sent,
            Pace::Open => {
                if let Some(at) = s.sent {
                    r.lag_ms.push(stats::lag_ms(p.due, at));
                }
                Some(p.due)
            }
        };
        let items = p.op.items.len() as u64;
        r.ops += 1;
        r.items += items;
        let (Some(origin), Some(done), Some(line)) = (origin, s.done, s.response) else {
            r.failed_items += items;
            continue;
        };
        let ok = match serde_json::from_str::<Response>(line.trim()) {
            Ok(Response::Plan { plan: got, .. }) if p.op.kind != Kind::Batch => {
                r.served.push(Served {
                    request: p.op.items[0].clone(),
                    digest: got.digest,
                });
                true
            }
            Ok(Response::PlanBatch { results, .. }) if results.len() == p.op.items.len() => {
                let mut all = true;
                for (item, result) in p.op.items.iter().zip(results) {
                    match result {
                        BatchItem::Plan { plan: got, .. } => r.served.push(Served {
                            request: item.clone(),
                            digest: got.digest,
                        }),
                        BatchItem::Error { .. } => {
                            r.failed_items += 1;
                            all = false;
                        }
                    }
                }
                all
            }
            other => {
                if let Ok(Response::Error { kind, message, .. }) = &other {
                    eprintln!("perfbench: {:?} failed: {kind}: {message}", p.op.kind);
                }
                r.failed_items += items;
                false
            }
        };
        if ok {
            r.latencies.push(stats::latency_ms(origin, done));
            if let (Some(id), Some(at)) = (&p.trace_id, s.sent) {
                r.round_trips
                    .insert(id.clone(), done.saturating_sub(at).as_secs_f64() * 1e3);
            }
        }
    }
    r
}

/// Every served plan must carry the digest of an offline
/// `Planner::plan` of the same request. Returns the violations.
fn check_digests(served: &[&Served]) -> u64 {
    let mut offline: HashMap<String, Option<String>> = HashMap::new();
    let mut violations = 0;
    for s in served {
        let key = serde_json::to_string(&s.request).expect("encode request");
        let want = offline.entry(key).or_insert_with(|| {
            s.request
                .planner()
                .and_then(|p| p.plan())
                .ok()
                .map(|p| p.digest)
        });
        if want.as_deref() != Some(s.digest.as_str()) {
            violations += 1;
        }
    }
    violations
}

// ----------------------------------------------------------------- run

fn stage_ms(records: &[rsj_obs::TimelineRecord], name: &str) -> Vec<f64> {
    records
        .iter()
        .filter_map(|r| r.stage_us(name))
        .map(|us| us as f64 / 1e3)
        .collect()
}

fn p(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        percentile(&sorted(values), q)
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

struct Workdir(PathBuf);

impl Drop for Workdir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// CPU seconds the server's solver worker threads have run so far, from
/// each thread's `schedstat` (run time in ns).
fn worker_cpu_s() -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    tasks
        .flatten()
        .filter(|t| {
            std::fs::read_to_string(t.path().join("comm"))
                .is_ok_and(|name| name.starts_with("rsj-serve-work"))
        })
        .filter_map(|t| {
            let stat = std::fs::read_to_string(t.path().join("schedstat")).ok()?;
            stat.split_whitespace().next()?.parse::<f64>().ok()
        })
        .sum::<f64>()
        * 1e-9
}

/// `BURSTS_PER_STOP` saturated bursts of `BURST_OPS` operations, each a
/// closed loop that keeps both connections `SATURATED_DEPTH` deep.
fn bursts(addr: SocketAddr, source: &mut Source, into: &mut Vec<PhaseResult>) {
    let pace = Pace::Closed {
        depth: SATURATED_DEPTH,
    };
    for _ in 0..BURSTS_PER_STOP {
        let plan = source.backlog(BURST_OPS);
        into.push(run_phase(addr, &plan, pace, 0.0));
    }
}

/// Runs one phase on fresh connections: two, or one for the unloaded
/// closed loop.
fn run_phase(addr: SocketAddr, plan: &[Planned], pace: Pace, rate: f64) -> PhaseResult {
    let conns = match pace {
        Pace::Closed { depth: 1 } => 1,
        _ => 2,
    };
    let mut conns: Vec<Conn> = (0..conns).map(|_| Conn::connect(addr)).collect();
    let cpu = cpu_s(CpuClock::Process);
    let worker = worker_cpu_s();
    let (sent, took) = drive(&mut conns, plan, pace);
    let cpu = cpu_s(CpuClock::Process) - cpu;
    let worker = worker_cpu_s() - worker;
    let mut result = evaluate(pace, rate, plan, sent, took);
    let answered = result.throughput * took.as_secs_f64();
    result.ops_per_cpu_s = share(answered, cpu);
    result.ops_per_worker_cpu_s = share(answered, worker);
    result
}

/// The timelines of the last `count` requests, from the `trace` op.
fn timelines(addr: SocketAddr, count: usize) -> Vec<rsj_obs::TimelineRecord> {
    let mut client = Client::connect(addr).expect("connect for trace");
    client.set_max_response_bytes(1 << 30);
    client.trace(Some(count), None, None).expect("trace op")
}

pub fn run(seed: u64, window: Duration, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let dir = Workdir(crate::out_dir().join(format!("served-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&dir.0);
    std::fs::create_dir_all(&dir.0).expect("create the journal directory");
    let mut mix = Mix::new(seed);
    let mut source = Source {
        mix: &mut mix,
        arrivals: Rng::new(seed ^ 0xa881_7a15),
        traced: false,
        next_id: 0,
    };
    let unloaded_pace = Pace::Closed { depth: 1 };

    // Untimed prefill: fill the journal and the plan cache.
    let prefill = {
        let (running, _) = start_ready(&dir.0, 0);
        let plan = source.backlog(PREFILL_OPS);
        let prefill = run_phase(running.addr, &plan, unloaded_pace, 0.0);
        stop(running);
        prefill
    };

    // Set-up: restarts that recover the pre-filled journal.
    let mut setup = Vec::new();
    let mut running = None;
    for i in 0..SETUP_RESTARTS {
        let (r, took) = start_ready(&dir.0, 0);
        setup.push(took.as_secs_f64());
        if i + 1 < SETUP_RESTARTS {
            stop(r);
        } else {
            running = Some(r);
        }
    }
    let mut running = running.expect("a running server");

    let mut phases: Vec<PhaseResult> = Vec::new();
    let mut traced_records: Vec<rsj_obs::TimelineRecord> = Vec::new();
    let mut recovery = None;
    let mut before = HashMap::new();
    let mut eval_before = (0, 0);
    let mut untraced_p50 = 0.0;
    let mut untraced_reference = None;
    if trace {
        // An untraced reference, then a traced server for the phases.
        let plan = source.backlog(UNLOADED_OPS);
        let reference = run_phase(running.addr, &plan, unloaded_pace, 0.0);
        untraced_p50 = reference.median();
        untraced_reference = Some(reference);
        stop(running);
        running = start_ready(&dir.0, TRACE_BUFFER).0;
        let mut client = Client::connect(running.addr).expect("connect for health");
        recovery = client.health().expect("health op").recovery;
        before = counters(running.addr);
        eval_before = eval_cache_stats();
        source.traced = true;
    }

    // Unloaded: one request at a time on one connection.
    let plan = source.backlog(UNLOADED_OPS);
    let unloaded = run_phase(running.addr, &plan, unloaded_pace, 0.0);
    if trace {
        traced_records.extend(timelines(running.addr, unloaded.ops));
    }
    drop(plan);

    // Saturated bursts for the capacity, in the untraced run only.
    let mut saturated: Vec<PhaseResult> = Vec::new();
    if !trace {
        bursts(running.addr, &mut source, &mut saturated);
    }

    // Open loop at the three fixed rates.
    for (&rate, &share_of_window) in RATES.iter().zip(&PHASE_SHARE) {
        let plan = source.poisson(rate, window.mul_f64(share_of_window));
        let phase = run_phase(running.addr, &plan, Pace::Open, rate);
        if trace {
            traced_records.extend(timelines(running.addr, phase.ops));
        } else {
            bursts(running.addr, &mut source, &mut saturated);
        }
        phases.push(phase);
    }
    // Peak memory of the server and its load, before the ladder's
    // overload probes (whose length varies) can add to it.
    let peak_rss_after_rates = crate::peak_rss_mb();

    // The knee: climb the ladder until a rung misses the limit.
    let mut rungs: Vec<Rung> = phases.iter().map(PhaseResult::rung).collect();
    let mut ladder: Vec<PhaseResult> = Vec::new();
    if !trace && rungs.iter().all(|r| r.passes(LIMIT_MS)) {
        for &rate in &LADDER {
            let plan = source.poisson(rate, window.mul_f64(RUNG_SHARE));
            let phase = run_phase(running.addr, &plan, Pace::Open, rate);
            let rung = phase.rung();
            rungs.push(rung);
            ladder.push(phase);
            if !rung.passes(LIMIT_MS) {
                break;
            }
        }
    }
    if !trace {
        bursts(running.addr, &mut source, &mut saturated);
    }
    let after = if trace {
        counters(running.addr)
    } else {
        HashMap::new()
    };
    let eval_after = eval_cache_stats();
    stop(running);

    // Every phase counts towards attempted and failed; the ladder's
    // deliberate overload only through the digest check.
    let mut measured: Vec<&PhaseResult> = vec![&prefill, &unloaded];
    measured.extend(untraced_reference.iter());
    measured.extend(saturated.iter());
    measured.extend(phases.iter());
    // Checks, outside the timed phases: every served plan, prefill and
    // ladder included, against the offline planner.
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for phase in &measured {
        attempted += phase.items;
        failed += phase.failed_items;
    }
    let served: Vec<&Served> = measured
        .iter()
        .copied()
        .chain(&ladder)
        .flat_map(|phase| &phase.served)
        .collect();
    let violations = check_digests(&served);
    attempted += served.len() as u64;
    failed += violations;
    if violations > 0 {
        eprintln!("perfbench: {violations} served plans differ from the offline planner");
    }
    out.attempted = attempted;
    out.failed = failed;
    out.correct = failed == 0 && attempted > 0;

    let lag: Vec<f64> = phases
        .iter()
        .flat_map(|p| p.lag_ms.iter().copied())
        .collect();
    let lag_p99 = p(&lag, 99.0);
    let valid = lag_p99 <= MAX_LAG_P99_MS;
    if !valid {
        eprintln!(
            "perfbench: generator fell behind (lag p99 {lag_p99:.3} ms); open-loop latencies are suspect"
        );
    }
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| x.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    };
    out.note("rates_rps", format!("[{}]", list(&RATES)));
    out.note("ladder_rps", format!("[{}]", list(&LADDER)));
    out.note("latency_limit_ms", json_num(LIMIT_MS));
    out.note("gen_lag_ms_p99", json_num(lag_p99));
    out.note("gen_valid", valid.to_string());
    out.note("checked_plans", served.len().to_string());
    let phase_json = |name: &str, ph: &PhaseResult| {
        format!(
            r#"{{"phase": "{name}", "rate": {}, "ops": {}, "items": {}, "failed_items": {}, "answered_ok": {}, "throughput_per_s": {}, "ops_per_cpu_s": {}, "ops_per_worker_cpu_s": {}, "p50_ms": {}, "p99_ms": {}, "p99_supported": {}, "backlog_growing": {}}}"#,
            ph.rate,
            ph.ops,
            ph.items,
            ph.failed_items,
            ph.latencies.len(),
            json_num(ph.throughput),
            json_num(ph.ops_per_cpu_s),
            json_num(ph.ops_per_worker_cpu_s),
            json_num(ph.median()),
            json_num(ph.p(99.0)),
            stats::supports(ph.latencies.len(), 99.0),
            stats::backlog_growing(&ph.latencies, LIMIT_MS)
        )
    };
    let mut rows = vec![phase_json("unloaded", &unloaded)];
    rows.extend(saturated.iter().map(|ph| phase_json("saturated", ph)));
    rows.extend(
        phases
            .iter()
            .zip(["r1", "r2", "r3"])
            .map(|(ph, name)| phase_json(name, ph)),
    );
    rows.extend(ladder.iter().map(|ph| phase_json("rung", ph)));
    out.note("phases", format!("[{}]", rows.join(", ")));

    if !trace {
        let knee = stats::knee(&rungs, LIMIT_MS);
        let rates: Vec<f64> = saturated.iter().map(|ph| ph.throughput).collect();
        let capacity = median(&rates);
        let per_cpu: Vec<f64> = saturated.iter().map(|ph| ph.ops_per_cpu_s).collect();
        let per_worker_cpu: Vec<f64> = saturated.iter().map(|ph| ph.ops_per_worker_cpu_s).collect();
        let best_setup = setup.iter().copied().fold(f64::INFINITY, f64::min);
        out.set("setup_s", best_setup);
        out.set("peak_rss_mb", peak_rss_after_rates);
        out.set("ops_per_cpu_s", median(&per_worker_cpu));
        let named = [
            ("served_p50_ms.r1", phases[0].median(), "ms"),
            ("served_p99_ms.r1", phases[0].p(99.0), "ms"),
            ("served_p50_ms.r2", phases[1].median(), "ms"),
            ("served_p99_ms.r2", phases[1].p(99.0), "ms"),
            ("served_p50_ms.r3", phases[2].median(), "ms"),
            ("served_p99_ms.r3", phases[2].p(99.0), "ms"),
            ("served_knee_rps", knee, "1/s"),
            (
                "served_ops_per_worker_cpu_s",
                median(&per_worker_cpu),
                "1/s",
            ),
            ("served_ops_per_process_cpu_s", median(&per_cpu), "1/s"),
            ("served_capacity_rps", capacity, "1/s"),
            (
                "served_capacity_rps_best",
                rates.iter().copied().fold(0.0, f64::max),
                "1/s",
            ),
            ("served_unloaded_p50_ms", unloaded.median(), "ms"),
            ("served_unloaded_p99_ms", unloaded.p(99.0), "ms"),
            ("setup_s_best", best_setup, "s"),
            ("setup_s_median", median(&setup), "s"),
        ];
        out.note("named", crate::named_json(&named));
        return out;
    }

    // Per-layer numbers from the server's own timelines and counters.
    let recs = &traced_records;
    let plans: Vec<&rsj_obs::TimelineRecord> = recs.iter().filter(|r| r.op == "plan").collect();
    let batches: Vec<&rsj_obs::TimelineRecord> =
        recs.iter().filter(|r| r.op == "plan_batch").collect();
    let decode = stage_ms(recs, "decode");
    let queue = stage_ms(recs, "queue_wait");
    let solve = stage_ms(recs, "solve");
    let score = stage_ms(recs, "score");
    let build = stage_ms(recs, "build");
    let journal = stage_ms(recs, "journal_append");
    let encode_write: Vec<f64> = recs
        .iter()
        .map(|r| {
            (r.stage_us("encode").unwrap_or(0) + r.stage_us("write").unwrap_or(0)) as f64 / 1e3
        })
        .collect();
    // Time a pipelined line waited in the reactor before decoding.
    let pipeline: Vec<f64> = recs
        .iter()
        .filter_map(|r| r.stages.iter().find(|s| s.name == "decode"))
        .map(|s| s.start_us as f64 / 1e3)
        .collect();
    let total_ms: f64 = recs.iter().map(|r| r.total_us as f64 / 1e3).sum();
    let batch_ms: Vec<f64> = batches.iter().map(|r| r.total_us as f64 / 1e3).collect();
    let mut overhead = Vec::new();
    let round_trips: HashMap<&String, f64> = measured
        .iter()
        .flat_map(|ph| ph.round_trips.iter())
        .map(|(k, v)| (k, *v))
        .collect();
    for r in recs {
        if let Some(rt) = round_trips.get(&r.trace_id) {
            overhead.push(rt - r.total_us as f64 / 1e3);
        }
    }
    let delta = |name: &str| {
        after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
    };
    let hits = delta("rsj_serve_cache_hits_total");
    let misses = delta("rsj_serve_cache_misses_total");
    let eval_hits = eval_after.0.saturating_sub(eval_before.0) as f64;
    let eval_lookups =
        (eval_after.0 + eval_after.1).saturating_sub(eval_before.0 + eval_before.1) as f64;
    let solved: Vec<f64> = plans
        .iter()
        .filter_map(|r| Some((r.stage_us("solve")? + r.stage_us("score")?) as f64 / 1e3))
        .collect();

    out.set("planner.plans", solved.len() as f64);
    out.set("planner.plan_ms", mean(&solved));
    out.set("planner.build_ms", mean(&build));
    out.set(
        "rsj-dist.eval_cache_hit_ratio",
        share(eval_hits, eval_lookups),
    );
    out.set("rsj-dist.eval_cache_lookups", eval_lookups);
    out.set("rsj-core.score_ms", mean(&score));
    out.set("rsj-core.score_share", share(score.iter().sum(), total_ms));
    out.set("rsj-serve.requests", recs.len() as f64);
    let timed: [(&'static str, &'static str, &[f64]); 6] = [
        (
            "rsj-serve.decode_ms.p50",
            "rsj-serve.decode_ms.p99",
            &decode,
        ),
        (
            "rsj-serve.pipeline_wait_ms.p50",
            "rsj-serve.pipeline_wait_ms.p99",
            &pipeline,
        ),
        (
            "rsj-serve.queue_wait_ms.p50",
            "rsj-serve.queue_wait_ms.p99",
            &queue,
        ),
        ("rsj-serve.solve_ms.p50", "rsj-serve.solve_ms.p99", &solve),
        (
            "rsj-serve.journal_append_ms.p50",
            "rsj-serve.journal_append_ms.p99",
            &journal,
        ),
        (
            "rsj-serve.encode_write_ms.p50",
            "rsj-serve.encode_write_ms.p99",
            &encode_write,
        ),
    ];
    for (p50, p99, values) in timed {
        out.set(p50, p(values, 50.0));
        out.set(p99, p(values, 99.0));
    }
    out.set("rsj-serve.solve_share", share(solve.iter().sum(), total_ms));
    out.set(
        "rsj-serve.journal_share",
        share(journal.iter().sum(), total_ms),
    );
    out.set("rsj-serve.cache_hit_ratio", share(hits, hits + misses));
    out.set("rsj-serve.cache_lookups", hits + misses);
    out.set(
        "rsj-serve.singleflight_joins",
        delta("rsj_serve_singleflight_coalesced_total"),
    );
    out.set(
        "rsj-serve.solver_invocations",
        delta("rsj_serve_solver_invocations_total"),
    );
    out.set(
        "rsj-serve.journal_appends",
        delta("rsj_serve_journal_appends_total"),
    );
    out.set("rsj-serve.snapshots", delta("rsj_serve_snapshots_total"));
    out.set("rsj-serve.shed_overloaded", delta("rsj_serve_shed_total"));
    out.set(
        "rsj-serve.shed_deadline",
        delta("rsj_serve_deadline_exceeded_total"),
    );
    out.set("rsj-serve.batch_frames", batches.len() as f64);
    out.set("rsj-serve.batch_frame_ms.p50", p(&batch_ms, 50.0));
    out.set("rsj-serve.client_overhead_ms.p50", p(&overhead, 50.0));
    if let Some(rec) = &recovery {
        out.set("rsj-serve.recovery_ms", rec.wall_seconds * 1e3);
        out.set("rsj-serve.recovered_records", rec.recovered_records as f64);
    }
    out.set(
        "rsj-obs.trace_overhead",
        share(unloaded.median(), untraced_p50),
    );
    out.set("gen.lag_ms_p99", lag_p99);
    out.set("gen.valid", f64::from(u8::from(valid)));
    out.note("traced_timelines", recs.len().to_string());
    out.note("untraced_unloaded_p50_ms", json_num(untraced_p50));
    let path = crate::out_dir().join(format!("timelines-served_mix-{seed}.jsonl"));
    match write_timelines(&path, recs) {
        Ok(()) => out.note("timelines", crate::json_str(&path.display().to_string())),
        Err(e) => eprintln!("perfbench: could not write timelines: {e}"),
    }
    out
}

/// Writes the server's request timelines, one JSON object per line.
fn write_timelines(path: &Path, records: &[rsj_obs::TimelineRecord]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for record in records {
        let line = serde_json::to_string(record).map_err(std::io::Error::other)?;
        writeln!(out, "{line}")?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_seed_deals_the_same_composition() {
        for seed in [1, 2, 3] {
            let mut mix = Mix::new(seed);
            // The first deck makes the laws and requests the rest reuse.
            for _ in 0..20 {
                mix.next();
            }
            let mut counts: HashMap<Kind, usize> = HashMap::new();
            for _ in 0..200 {
                *counts.entry(mix.next().kind).or_default() += 1;
            }
            for (kind, per_deck) in DECK {
                assert_eq!(counts[&kind], per_deck * 10, "seed {seed}: {kind:?}");
            }
        }
    }

    #[test]
    fn batches_carry_eight_cost_jitters_over_recent_laws() {
        let mut mix = Mix::new(7);
        let batch = (0..400)
            .map(|_| mix.next())
            .find(|op| op.kind == Kind::Batch)
            .expect("a batch in 400 operations");
        assert_eq!(batch.items.len(), 8);
        assert!(batch.items.iter().all(|item| item.cost.is_some()));
    }
}
