//! The zero-cost guarantee, asserted: with no subscriber installed and
//! metrics disabled, instrumented code paths allocate nothing, print
//! nothing, and record nothing.

use rsj_obs::{Level, MemorySink};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Subscriber/metrics state is process-global; the tests in this file
/// serialize on this lock so they cannot observe each other's setup.
static GLOBAL_STATE: Mutex<()> = Mutex::new(());

/// Takes [`GLOBAL_STATE`] even if a sibling test panicked while holding
/// it, so one failure is reported once instead of cascading.
fn lock_global_state() -> MutexGuard<'static, ()> {
    GLOBAL_STATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Counts allocations so tests can assert a region performed none. Only
/// allocations made by a thread inside [`count_allocations`] are counted:
/// libtest's other threads (sibling tests, output capture, the harness's
/// own bookkeeping) allocate concurrently and must not land in the
/// measured window.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // `const` init with a `Copy` type: no lazy registration or destructor,
    // so reading it from inside the allocator never allocates itself.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.try_with(Cell::get).unwrap_or(false) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Runs `f` on the calling thread and returns its result together with
/// the number of allocations that thread made meanwhile.
fn count_allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let result = f();
    COUNTING.with(|c| c.set(false));
    (result, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// A stand-in for an instrumented hot path: a timed span, leveled events
/// with formatting arguments, guarded registry calls, and a per-request
/// timeline (disabled unless request tracing is on).
fn instrumented_work(iterations: u64) -> f64 {
    let _span = rsj_obs::span!("noop_test", "noop_test_wall_seconds");
    let epoch = std::time::Instant::now();
    let mut timeline = rsj_obs::Timeline::begin_if_enabled(epoch);
    let mut acc = 0.0;
    for i in 0..iterations {
        // Formatting here would allocate; the macros must skip it.
        rsj_obs::debug!("iteration {} acc {}", i, acc);
        rsj_obs::trace!("fine-grained {}", i);
        acc += timeline.time("noop_stage", || (i as f64).sqrt());
        if rsj_obs::metrics_enabled() {
            rsj_obs::global_registry()
                .histogram("noop_test_values")
                .observe(acc);
        }
    }
    timeline.record_span("noop_span", epoch, epoch);
    if rsj_obs::metrics_enabled() {
        rsj_obs::global_registry()
            .counter("noop_test_iterations")
            .add(iterations);
    }
    // A disabled timeline yields no record (and allocated nothing on the
    // way here).
    assert!(timeline.finish("noop").is_some() == rsj_obs::request_tracing_enabled());
    acc
}

#[test]
fn disabled_observability_does_not_allocate_or_record() {
    let _guard = lock_global_state();
    // Process-global state: make the disabled state explicit rather than
    // assuming test ordering.
    rsj_obs::init(None);
    rsj_obs::set_metrics_enabled(false);
    rsj_obs::set_request_tracing(false);

    // Warm up once so lazily initialized runtime structures (thread-local
    // registration, etc.) don't count against the measured region.
    std::hint::black_box(instrumented_work(10));

    let (result, allocated) = count_allocations(|| std::hint::black_box(instrumented_work(10_000)));

    assert!(result > 0.0);
    assert_eq!(allocated, 0, "disabled instrumentation must not allocate");
    assert!(
        !rsj_obs::global_registry()
            .names()
            .iter()
            .any(|n| n.starts_with("noop_test")),
        "disabled instrumentation must not create metrics"
    );
}

#[test]
fn disabled_tracing_emits_nothing_to_a_sink_installed_later() {
    let _guard = lock_global_state();
    // Events emitted while disabled are gone: installing a sink afterwards
    // must observe an empty world, proving nothing was buffered.
    rsj_obs::init(None);
    std::hint::black_box(instrumented_work(100));

    let sink = Arc::new(MemorySink::new(Level::Trace));
    rsj_obs::set_subscriber(sink.clone());
    assert!(sink.events().is_empty());

    // And with the sink live, the same code does report.
    std::hint::black_box(instrumented_work(3));
    assert!(!sink.events().is_empty(), "live sink must receive events");
    assert!(
        sink.events()
            .iter()
            .any(|e| e.starts_with("[TRACE noop_zero_cost] noop_test: ")),
        "live sink must receive the span's exit line"
    );
    rsj_obs::clear_subscriber();
}

#[test]
fn request_tracing_toggle_gates_timeline_capture() {
    let _guard = lock_global_state();
    rsj_obs::set_request_tracing(false);
    let off = rsj_obs::Timeline::begin_if_enabled(std::time::Instant::now());
    assert!(!off.is_enabled());
    assert!(off.finish("noop").is_none());

    rsj_obs::set_request_tracing(true);
    let mut on = rsj_obs::Timeline::begin_if_enabled(std::time::Instant::now());
    assert!(on.is_enabled());
    on.time("stage_a", || ());
    let record = on.finish("noop").expect("enabled timeline yields a record");
    assert_eq!(record.op, "noop");
    assert!(record.stage_us("stage_a").is_some());
    rsj_obs::set_request_tracing(false);
}
