//! Zero-overhead guarantee: with `RLCX_TRACE=off` the span API must not
//! allocate on the hot path — an inert guard is returned and dropped with
//! no heap traffic.
//!
//! This lives in its own test binary because it installs a counting
//! `#[global_allocator]` and pins the trace level for the whole process;
//! sharing a binary with other observability tests would race on both.
//!
//! The counter is process-wide on purpose: allocations made on worker
//! threads must count too. That rules out the default test harness, whose
//! own threads spawn and report other tests while one test is measuring
//! and so land in its window. The binary is therefore built with
//! `harness = false`: [`main`] warms the worker pool, then runs the checks
//! one after another on the main thread, and prints libtest-style lines
//! (`test <name> ... ok`) so runners see the same test names as before.

use rlcx::obs::{self, TraceLevel};
use std::alloc::{GlobalAlloc, Layout, System};
use std::panic::{self, UnwindSafe};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Every check of this binary, in name order (the order libtest runs them
/// in with one test thread).
const TESTS: [(&str, fn()); 7] = [
    (
        "adaptive_step_loop_does_not_allocate",
        adaptive_step_loop_does_not_allocate,
    ),
    (
        "disabled_spans_do_not_allocate",
        disabled_spans_do_not_allocate,
    ),
    ("enabled_spans_do_allocate", enabled_spans_do_allocate),
    (
        "sharded_metrics_are_allocation_free_and_bounded",
        sharded_metrics_are_allocation_free_and_bounded,
    ),
    (
        "sharded_metrics_scale_across_threads_without_allocating",
        sharded_metrics_scale_across_threads_without_allocating,
    ),
    (
        "transient_step_loop_does_not_allocate",
        transient_step_loop_does_not_allocate,
    ),
    (
        "warm_kernel_fill_block_does_not_allocate",
        warm_kernel_fill_block_does_not_allocate,
    ),
];

/// The libtest command-line subset this harness honours: name filters
/// (substring, or whole-name with `--exact`), `--skip`, `--list`,
/// `--ignored` (nothing here is ignored) and `-q`/`--quiet` or
/// `--format terse|pretty`. Other flags, such as `--test-threads`, are
/// accepted and have no effect: the checks always run serially.
struct Args {
    filters: Vec<String>,
    skips: Vec<String>,
    exact: bool,
    list: bool,
    ignored_only: bool,
    terse: bool,
}

impl Args {
    fn parse() -> Args {
        let mut args = Args {
            filters: Vec::new(),
            skips: Vec::new(),
            exact: false,
            list: false,
            ignored_only: false,
            terse: false,
        };
        let mut it = std::env::args().skip(1);
        while let Some(arg) = it.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((f, v)) if f.starts_with("--") => (f.to_string(), Some(v.to_string())),
                _ => (arg.clone(), None),
            };
            let mut value = |inline: Option<String>| inline.or_else(|| it.next());
            match flag.as_str() {
                "--exact" => args.exact = true,
                "--list" => args.list = true,
                "--ignored" => args.ignored_only = true,
                "-q" | "--quiet" => args.terse = true,
                "--format" => args.terse = value(inline).as_deref() == Some("terse"),
                "--skip" => args.skips.extend(value(inline)),
                "--test-threads" | "--color" | "--logfile" | "--shuffle-seed" | "-Z" => {
                    value(inline);
                }
                f if f.starts_with('-') => {}
                _ => args.filters.push(arg),
            }
        }
        args
    }

    fn selects(&self, name: &str) -> bool {
        let hit = |f: &String| {
            if self.exact {
                name == f
            } else {
                name.contains(f.as_str())
            }
        };
        (self.filters.is_empty() || self.filters.iter().any(hit)) && !self.skips.iter().any(hit)
    }
}

fn main() -> ExitCode {
    let args = Args::parse();
    let selected: Vec<(&str, fn())> = TESTS
        .into_iter()
        .filter(|&(name, _)| !args.ignored_only && args.selects(name))
        .collect();
    let filtered_out = TESTS.len() - selected.len();
    if args.list {
        for (name, _) in &selected {
            println!("{name}: test");
        }
        if !args.terse {
            println!("\n{} tests, 0 benchmarks", selected.len());
        }
        return ExitCode::SUCCESS;
    }

    // Spawn the worker pool before any measurement: thread start-up
    // allocates, and later checks dispatch onto these workers.
    let _ = rlcx::numeric::par_map_threads(4, 64, |i| i);

    let plural = if selected.len() == 1 { "" } else { "s" };
    println!("\nrunning {} test{plural}", selected.len());
    let start = Instant::now();
    let mut failed = Vec::new();
    for (name, check) in &selected {
        let ok = run_check(*check);
        if args.terse {
            print!("{}", if ok { '.' } else { 'F' });
        } else {
            println!("test {name} ... {}", if ok { "ok" } else { "FAILED" });
        }
        if !ok {
            failed.push(*name);
        }
    }
    if args.terse {
        println!();
    }
    if !failed.is_empty() {
        println!("\nfailures:");
        for name in &failed {
            println!("    {name}");
        }
    }
    if !args.terse || !failed.is_empty() {
        println!();
    }
    println!(
        "test result: {}. {} passed; {} failed; 0 ignored; 0 measured; {} filtered out; \
         finished in {:.2}s\n",
        if failed.is_empty() { "ok" } else { "FAILED" },
        selected.len() - failed.len(),
        failed.len(),
        filtered_out,
        start.elapsed().as_secs_f64()
    );
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(101)
    }
}

/// Runs one check, reporting a panic (failed assertion) as `false`; the
/// panic message itself goes to stderr through the default hook.
fn run_check(check: impl FnOnce() + UnwindSafe) -> bool {
    let ok = panic::catch_unwind(check).is_ok();
    obs::set_trace_level(TraceLevel::Off);
    ok
}

fn disabled_spans_do_not_allocate() {
    obs::set_trace_level(TraceLevel::Off);

    // Warm the thread-local span stack and any lazily-initialized state so
    // one-time setup costs are not charged to the measured region.
    for _ in 0..4 {
        let _s = obs::span("obs.warmup");
    }

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..10_000 {
        let _outer = obs::span("obs.hot");
        let _inner = obs::span("obs.hot.nested");
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "RLCX_TRACE=off spans must be allocation-free"
    );
}

/// The transient per-step loop must be heap-allocation-free on both
/// solver backends. Proof by invariance: the result buffers are sized
/// up front with `with_capacity` (one allocation each, regardless of
/// length), so if the step loop itself never allocates, a 500-step run
/// performs *exactly* as many allocations as a 50-step run of the same
/// fresh circuit. Any per-step `Vec`, boxing, or map insert would make
/// the counts diverge by hundreds.
fn transient_step_loop_does_not_allocate() {
    use rlcx::spice::{Netlist, SolverEngine, Transient, Waveform, GROUND};

    obs::set_trace_level(TraceLevel::Off);

    fn ladder(sections: usize) -> Netlist {
        let mut nl = Netlist::new();
        let inp = nl.node("in");
        nl.vsource("V", inp, GROUND, Waveform::ramp(0.0, 1.0, 0.0, 20e-12))
            .unwrap();
        let mut prev = inp;
        for i in 0..sections {
            let mid = nl.node(format!("m{i}"));
            let out = nl.node(format!("n{i}"));
            nl.resistor(&format!("R{i}"), prev, mid, 10.0).unwrap();
            nl.inductor(&format!("L{i}"), mid, out, 0.5e-9).unwrap();
            nl.capacitor(&format!("C{i}"), out, GROUND, 20e-15).unwrap();
            prev = out;
        }
        nl
    }

    fn allocs_for_run(engine: SolverEngine, steps: usize) -> u64 {
        // 30 sections → 92 unknowns, comfortably past SPARSE_CUTOVER so
        // `Sparse` exercises the real sparse path at scale.
        let nl = ladder(30);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let res = Transient::new(&nl)
            .engine(engine)
            .timestep(1e-12)
            .duration(steps as f64 * 1e-12)
            .run()
            .unwrap();
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        assert_eq!(res.time().len(), steps + 1);
        after - before
    }

    for engine in [SolverEngine::Dense, SolverEngine::Sparse] {
        // Warm one-time lazy state (metric name registration, etc.) so it
        // is not charged to either measured run.
        let _ = allocs_for_run(engine, 8);
        let short = allocs_for_run(engine, 50);
        let long = allocs_for_run(engine, 500);
        assert_eq!(
            short, long,
            "{engine:?}: allocation count must not grow with step count"
        );
    }
}

/// The adaptive engine's accepted-step hot loop (attempt, LTE estimate,
/// restamp + numeric-only refactorization on step-size changes) must be
/// heap-free too. Same invariance argument as above: a 4× longer window
/// takes ~4× the accepted steps, so any per-step allocation would make
/// the counts diverge.
fn adaptive_step_loop_does_not_allocate() {
    use rlcx::spice::{
        AdaptiveOptions, Netlist, SolverEngine, Stepping, Transient, Waveform, GROUND,
    };

    obs::set_trace_level(TraceLevel::Off);

    fn ladder(sections: usize) -> Netlist {
        let mut nl = Netlist::new();
        let inp = nl.node("in");
        nl.vsource("V", inp, GROUND, Waveform::ramp(0.0, 1.0, 0.0, 20e-12))
            .unwrap();
        let mut prev = inp;
        for i in 0..sections {
            let mid = nl.node(format!("m{i}"));
            let out = nl.node(format!("n{i}"));
            nl.resistor(&format!("R{i}"), prev, mid, 10.0).unwrap();
            nl.inductor(&format!("L{i}"), mid, out, 0.5e-9).unwrap();
            nl.capacitor(&format!("C{i}"), out, GROUND, 20e-15).unwrap();
            prev = out;
        }
        nl
    }

    fn allocs_for_run(engine: SolverEngine, window_ps: usize) -> u64 {
        let nl = ladder(30);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let res = Transient::new(&nl)
            .engine(engine)
            .timestep(1e-12)
            .duration(window_ps as f64 * 1e-12)
            .stepping(Stepping::Adaptive(AdaptiveOptions::default()))
            .run()
            .unwrap();
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        assert!(res.steps_accepted() > 0);
        after - before
    }

    for engine in [SolverEngine::Dense, SolverEngine::Sparse] {
        let _ = allocs_for_run(engine, 16); // warm lazy metric state
        let short = allocs_for_run(engine, 200);
        let long = allocs_for_run(engine, 800);
        assert_eq!(
            short, long,
            "{engine:?}: adaptive allocation count must not grow with step count"
        );
    }
}

/// The sharded metric store (PR 7): after a metric's first touch interns
/// its name and lazily allocates the histogram buckets, the hot path —
/// counter adds and histogram observes — is pure atomic arithmetic.
/// Asserted both with tracing off and with tracing on (the metric path is
/// independent of the span level), plus a generous wall-clock bound per
/// operation to catch accidental lock convoys.
fn sharded_metrics_are_allocation_free_and_bounded() {
    for level in [TraceLevel::Off, TraceLevel::Summary] {
        obs::set_trace_level(level);
        // Warm: intern the names, allocate the bucket arrays, register the
        // series channel — all one-time costs.
        for i in 0..8 {
            obs::counter_add("obs.overhead.counter", 1);
            obs::observe("obs.overhead.hist", 1.5 + i as f64);
            obs::series_push("obs.overhead.series", i as f64, 0.5);
        }

        let ops = 10_000u64;
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let t0 = std::time::Instant::now();
        for i in 0..ops {
            obs::counter_add("obs.overhead.counter", 1);
            obs::observe("obs.overhead.hist", (i % 97) as f64 + 0.5);
            obs::series_push("obs.overhead.series", i as f64, (i % 7) as f64);
        }
        let elapsed = t0.elapsed();
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        assert_eq!(
            after - before,
            0,
            "{level:?}: warmed counter/observe/series_push must be allocation-free"
        );
        // 3 recordings per loop iteration; 5 µs per recording is ~100×
        // headroom over the measured cost, while still catching a
        // pathological global lock on the hot path.
        let per_op = elapsed.as_secs_f64() / (3 * ops) as f64;
        assert!(
            per_op < 5e-6,
            "{level:?}: {:.2} µs per metric op exceeds the 5 µs bound",
            per_op * 1e6
        );
    }
    obs::set_trace_level(TraceLevel::Off);

    // The recorded data survived the measurement loops intact.
    assert!(obs::counter_value("obs.overhead.counter") >= 2 * 10_000);
    let p99 = obs::quantile("obs.overhead.hist", 0.99).expect("histogram populated");
    assert!(p99 > 0.0 && p99 <= 97.0, "p99 = {p99}");
}

/// Contended sharded counting: many threads hammering one counter must
/// stay allocation-free after warmup on every participating thread (each
/// thread's first touch claims its shard slot; afterwards it is a single
/// atomic add).
fn sharded_metrics_scale_across_threads_without_allocating() {
    obs::set_trace_level(TraceLevel::Off);

    let threads = 4;
    let per_thread = 5_000u64;
    let barrier = std::sync::Barrier::new(threads);
    let before = obs::counter_value("obs.overhead.mt");
    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for _ in 0..threads {
            joins.push(scope.spawn(|| {
                // Per-thread warmup: shard claim + thread-ordinal init.
                obs::counter_add("obs.overhead.mt", 0);
                obs::observe("obs.overhead.mt.hist", 1.0);
                barrier.wait();
                let a0 = ALLOCATIONS.load(Ordering::Relaxed);
                for i in 0..per_thread {
                    obs::counter_add("obs.overhead.mt", 1);
                    obs::observe("obs.overhead.mt.hist", (i % 13) as f64 + 1.0);
                }
                ALLOCATIONS.load(Ordering::Relaxed) - a0
            }));
        }
        // Allocation deltas are global, so concurrent threads can observe
        // each other's heap traffic only if some thread allocates at all:
        // require the *sum* to be zero, which pins every thread to zero.
        let total: u64 = joins.into_iter().map(|j| j.join().unwrap()).sum();
        assert_eq!(total, 0, "contended metric path must be allocation-free");
    });
    assert_eq!(
        obs::counter_value("obs.overhead.mt") - before,
        threads as u64 * per_thread,
        "no sample may be lost under contention"
    );
}

/// `KernelCache::fill_block` (PR 10) reuses one thread-local scratch —
/// the pending-key position map, the SoA geometry lanes and the value
/// buffer — across calls, so a warm-cache fill is pure hash lookups into
/// the sharded store. Proof by invariance: after warmup, a short and a 3×
/// longer fill sequence must allocate identically, and both must be zero.
fn warm_kernel_fill_block_does_not_allocate() {
    use rlcx::geom::{Axis, Bar, Point3};
    use rlcx::peec::fastop::KernelCache;

    obs::set_trace_level(TraceLevel::Off);

    let fils: Vec<Bar> = (0..24)
        .map(|i| {
            Bar::new(
                Point3::new(0.0, (i % 6) as f64 * 1.5, 10.0 + (i / 6) as f64 * 1.2),
                Axis::X,
                1000.0,
                0.9,
                0.8,
            )
            .unwrap()
        })
        .collect();
    let rows: Vec<usize> = (0..12).collect();
    let cols: Vec<usize> = (6..24).collect();
    let kernel = KernelCache::new(1000.0);
    let mut out = vec![0.0f64; rows.len() * cols.len()];

    let mut allocs_for = |fills: usize| -> u64 {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for _ in 0..fills {
            kernel.fill_block(&fils, &rows, &cols, &mut out);
        }
        ALLOCATIONS.load(Ordering::Relaxed) - before
    };

    // Warmup: the first fill computes and caches every distinct entry and
    // grows the thread-local scratch to block size.
    let _ = allocs_for(2);
    let short = allocs_for(5);
    let long = allocs_for(15);
    assert_eq!(
        short, long,
        "warm fill_block allocation count must not grow with call count"
    );
    assert_eq!(short, 0, "warm fill_block must be allocation-free");
}

/// Enabling tracing does allocate (records are stored) — a sanity check
/// that the counter itself works, so the zero above is meaningful.
fn enabled_spans_do_allocate() {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    obs::set_trace_level(TraceLevel::Summary);
    for _ in 0..64 {
        let _s = obs::span("obs.enabled");
    }
    obs::set_trace_level(TraceLevel::Off);
    obs::take_spans();
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert!(
        after > before,
        "allocation counter must observe span records"
    );
}
