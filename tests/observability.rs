//! The observability layer tested through the public facade: span nesting
//! across real extraction work, metric accumulation under multi-threaded
//! characterization, and run-report JSON round-trips.
//!
//! Trace level and metrics are process-global; tests that flip the level
//! serialize through [`level_lock`], and all metric assertions are deltas
//! against a before-snapshot so concurrently running tests cannot break
//! them.

use rlcx::core::TableBuilder;
use rlcx::geom::Stackup;
use rlcx::obs::{self, RunReport, TraceLevel};
use rlcx::peec::{MeshSpec, SolverBackend};
use std::sync::{Mutex, MutexGuard};

fn level_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn small_builder() -> TableBuilder {
    TableBuilder::new(Stackup::hp_six_metal_copper(), 5)
        .unwrap()
        .widths(vec![2.0, 5.0])
        .spacings(vec![0.5, 1.0])
        .lengths(vec![200.0, 400.0])
        .mesh(MeshSpec::new(2, 1))
}

/// A table build under `Summary` records the characterization span tree
/// with correct nesting: `table.build` as the root, the per-stage spans
/// below it, and the PEEC solve spans below those (on worker threads the
/// solver spans are thread-local roots, so only depth-0 paths are
/// guaranteed for them).
#[test]
fn table_build_records_nested_spans() {
    let _guard = level_lock();
    obs::set_trace_level(TraceLevel::Summary);
    obs::take_spans();
    small_builder().build().unwrap();
    obs::set_trace_level(TraceLevel::Off);
    let spans = obs::take_spans();

    let build = spans
        .iter()
        .find(|s| s.path == "table.build")
        .expect("root span recorded");
    assert_eq!(build.depth, 0);
    for stage in ["table.self", "table.mutual", "table.loop"] {
        let path = format!("table.build/{stage}");
        let s = spans
            .iter()
            .find(|s| s.path == path)
            .unwrap_or_else(|| panic!("stage span {path} recorded"));
        assert_eq!(s.depth, 1);
        assert!(s.duration <= build.duration, "{path} within the root span");
    }
    // The PEEC solves run inside the stages (possibly on worker threads).
    assert!(
        spans.iter().any(|s| s.path.ends_with("peec.solve")),
        "solver spans recorded"
    );
    // Span ordering: completion order puts children before their parent.
    let build_pos = spans.iter().position(|s| s.path == "table.build").unwrap();
    let self_pos = spans
        .iter()
        .position(|s| s.path == "table.build/table.self")
        .unwrap();
    assert!(self_pos < build_pos, "children complete before the parent");
}

/// Runs `f` under `Summary` and returns the paths of the spans it recorded.
/// The caller holds [`level_lock`].
fn recorded_span_paths(f: impl FnOnce()) -> Vec<String> {
    obs::set_trace_level(TraceLevel::Summary);
    obs::take_spans();
    f();
    obs::set_trace_level(TraceLevel::Off);
    obs::take_spans().into_iter().map(|s| s.path).collect()
}

/// One impedance solve times each of its stages under `peec.solve`, with
/// the same span names on both backends.
#[test]
fn impedance_solve_records_every_stage_span() {
    use rlcx::geom::units::RHO_COPPER;
    use rlcx::geom::{Axis, Bar, Point3};
    use rlcx::peec::{Conductor, PartialSystem};

    let _guard = level_lock();
    let sys: PartialSystem = [(-12.0, 10.0), (0.0, 4.0), (6.0, 10.0)]
        .into_iter()
        .map(|(y, w)| {
            let bar = Bar::new(Point3::new(0.0, y, 9.4), Axis::X, 1000.0, w, 2.0).unwrap();
            Conductor::new(bar, RHO_COPPER).unwrap()
        })
        .collect();
    for backend in [SolverBackend::Dense, SolverBackend::Iterative] {
        let paths = recorded_span_paths(|| {
            sys.impedance_at_with_backend(3.2e9, |_| MeshSpec::new(2, 2), backend)
                .unwrap();
        });
        for stage in ["mesh", "assemble", "factor", "reduce"] {
            let path = format!("peec.solve/peec.{stage}");
            assert!(paths.contains(&path), "{backend:?}: missing span {path}");
        }
    }
}

/// The persistent-cache build times its probe, the characterization and
/// the store on a miss, and only the probe on a hit.
#[test]
fn cached_build_records_probe_build_and_store_spans() {
    let _guard = level_lock();
    let dir = std::env::temp_dir().join(format!("rlcx_obs_cache_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let cold =
        recorded_span_paths(|| assert!(!small_builder().build_cached(&dir).unwrap().cache_hit));
    for path in ["cache.probe", "table.build", "cache.store"] {
        assert!(
            cold.iter().any(|p| p == path),
            "cold build: missing span {path}"
        );
    }
    let warm =
        recorded_span_paths(|| assert!(small_builder().build_cached(&dir).unwrap().cache_hit));
    assert!(
        warm.iter().any(|p| p == "cache.probe"),
        "warm build probes the cache"
    );
    assert!(
        !warm.iter().any(|p| p == "table.build"),
        "warm build must not characterize"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Metrics accumulate across worker threads: a characterization forced to
/// `RLCX_THREADS=4` must count every grid point and every PEEC solve, and
/// the solve counter grows by at least the point count.
#[test]
fn metrics_accumulate_across_threads() {
    let _guard = level_lock();
    std::env::set_var("RLCX_THREADS", "4");
    let solves_before = obs::counter_value("peec.solves");
    let self_points_before = obs::counter_value("table.points.self");
    small_builder().build().unwrap();
    std::env::remove_var("RLCX_THREADS");

    // 2 widths × 2 lengths self points; every point is one PEEC solve and
    // the mutual/loop sweeps add more.
    assert!(
        obs::counter_value("table.points.self") >= self_points_before + 4,
        "self grid points counted"
    );
    assert!(
        obs::counter_value("peec.solves") >= solves_before + 4,
        "solver invocations counted across worker threads"
    );
    match obs::metric_value("threads.used") {
        Some(obs::MetricValue::Gauge(t)) => assert!(t >= 1.0),
        other => panic!("threads.used gauge missing: {other:?}"),
    }
    // The spline self-check gauge is published at every build and must be
    // tiny: interpolating splines reproduce their knots to round-off.
    match obs::metric_value("spline.max_resid") {
        Some(obs::MetricValue::Gauge(r)) => assert!(r < 1e-9, "knot residual {r}"),
        other => panic!("spline.max_resid gauge missing: {other:?}"),
    }
}

/// A build publishes its GMD memo's hit and miss totals once, from the
/// memo's shard counters. The length axis repeats every cross-section
/// pair, so lookups must hit more often than they miss.
#[test]
fn table_build_publishes_gmd_memo_counters() {
    let _guard = level_lock();
    let hits_before = obs::counter_value("table.gmd.hits");
    let misses_before = obs::counter_value("table.gmd.misses");
    small_builder().build().unwrap();
    let hits = obs::counter_value("table.gmd.hits") - hits_before;
    let misses = obs::counter_value("table.gmd.misses") - misses_before;
    assert!(misses > 0, "a cold build computes some GMDs");
    assert!(
        hits > misses,
        "memo hits {hits} must exceed misses {misses}"
    );
}

/// A report built from a real run (figures + samples + metrics + spans)
/// survives the JSON round-trip losslessly.
#[test]
fn run_report_round_trips_through_json() {
    let _guard = level_lock();
    obs::set_trace_level(TraceLevel::Summary);
    obs::take_spans();
    small_builder().build().unwrap();
    obs::set_trace_level(TraceLevel::Off);

    let mut report = RunReport::new("observability_test");
    report.figure("self_l.max_rel_err", 0.0123);
    report.sample("lookup", 1.5e-6, 1.1e-6, 10);
    report.finish();
    assert!(!report.metrics.is_empty(), "metric snapshot captured");
    assert!(
        report.spans.iter().any(|s| s.path == "table.build"),
        "span summary captured"
    );

    let parsed = RunReport::from_json(&report.to_json()).unwrap();
    assert_eq!(parsed, report);
    assert_eq!(parsed.figure_value("self_l.max_rel_err"), Some(0.0123));
    let build = parsed.spans.iter().find(|s| s.path == "table.build");
    assert!(build.is_some_and(|s| s.count >= 1 && s.total_s > 0.0));
}

/// The flight recorder through the facade: an adaptive transient run must
/// leave `(t, h)`, `(t, lte)` and accept/reject traces in the series
/// channels, and a sparse factorization must leave a fill-per-column
/// trace — the RunReport v2 payload for every CI-gated experiment.
#[test]
fn adaptive_run_records_series_channels() {
    use rlcx::spice::{
        AdaptiveOptions, Netlist, SolverEngine, Stepping, Transient, Waveform, GROUND,
    };

    // Serialized via level_lock: this test calls `finish()`, which honors
    // RLCX_TRACE_OUT — the env-driven export test must not interleave.
    let _guard = level_lock();
    let mut nl = Netlist::new();
    let inp = nl.node("in");
    nl.vsource("V", inp, GROUND, Waveform::ramp(0.0, 1.0, 0.0, 20e-12))
        .unwrap();
    let mut prev = inp;
    for i in 0..20 {
        let mid = nl.node(format!("m{i}"));
        let out = nl.node(format!("n{i}"));
        nl.resistor(&format!("R{i}"), prev, mid, 10.0).unwrap();
        nl.inductor(&format!("L{i}"), mid, out, 0.5e-9).unwrap();
        nl.capacitor(&format!("C{i}"), out, GROUND, 20e-15).unwrap();
        prev = out;
    }
    let pushed_before = |name: &str| {
        obs::series_snapshot()
            .iter()
            .find(|s| s.name == name)
            .map_or(0, |s| s.pushed)
    };
    let (h0, lte0, acc0, fill0) = (
        pushed_before("transient.h"),
        pushed_before("transient.lte"),
        pushed_before("transient.accept"),
        pushed_before("sparse.lu.colfill"),
    );
    let res = Transient::new(&nl)
        .engine(SolverEngine::Sparse)
        .timestep(1e-12)
        .duration(300e-12)
        .stepping(Stepping::Adaptive(AdaptiveOptions::default()))
        .run()
        .unwrap();
    let accepted = res.steps_accepted() as u64;
    assert!(accepted > 0);

    let snap = obs::series_snapshot();
    let channel = |name: &str| {
        snap.iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("channel {name} missing"))
    };
    assert!(channel("transient.h").pushed >= h0 + accepted);
    assert!(channel("transient.lte").pushed >= lte0 + accepted);
    assert!(channel("transient.accept").pushed >= acc0 + accepted);
    assert!(
        channel("sparse.lu.colfill").pushed > fill0,
        "sparse factorization must trace its fill"
    );
    // Step sizes are positive and time is monotone over the retained tail.
    let h = channel("transient.h");
    assert!(h.points.iter().all(|&(_, hv)| hv > 0.0));
    assert!(h.points.windows(2).all(|w| w[0].0 <= w[1].0));
    // Accept/reject is a 0/1 channel.
    assert!(channel("transient.accept")
        .points
        .iter()
        .all(|&(_, v)| v == 0.0 || v == 1.0));

    // The channels land in a v2 report and survive the round-trip.
    let mut report = RunReport::new("observability_series_test");
    report.finish();
    assert!(report.series.iter().any(|s| s.name == "transient.h"));
    let parsed = RunReport::from_json(&report.to_json()).unwrap();
    assert_eq!(parsed.series, report.series);
}

/// `write_chrome_trace` output is valid Chrome `traceEvents` JSON: re-parse
/// the file and replay every thread track, asserting non-decreasing
/// timestamps and strictly matched, properly nested B/E pairs.
#[test]
fn chrome_trace_export_is_valid_and_nested() {
    let _guard = level_lock();
    obs::set_trace_level(TraceLevel::Summary);
    obs::take_spans();
    // Real nested work on the main thread plus a worker-thread span.
    {
        let _outer = obs::span("chrome.test.outer");
        {
            let _inner = obs::span("chrome.test.inner");
            let _leaf = obs::span("chrome.test.leaf");
        }
        let _sibling = obs::span("chrome.test.sibling");
    }
    std::thread::spawn(|| {
        let _w = obs::span("chrome.test.worker");
    })
    .join()
    .unwrap();
    obs::set_trace_level(TraceLevel::Off);
    let spans = obs::take_spans();
    assert!(spans.len() >= 5, "all test spans recorded");

    let path = std::env::temp_dir().join(format!("rlcx_chrome_{}.json", std::process::id()));
    obs::write_chrome_trace(
        &path,
        &spans,
        &[("demo.count".into(), obs::MetricValue::Counter(2))],
    )
    .unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let doc = obs::Json::parse(&text).expect("trace file is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(obs::Json::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty());

    let mut tids: Vec<u64> = events
        .iter()
        .filter_map(|e| e.get("tid").and_then(obs::Json::as_u64))
        .collect();
    tids.sort_unstable();
    tids.dedup();
    assert!(tids.len() >= 2, "main + worker thread tracks");

    let mut b_seen = 0usize;
    for tid in tids {
        let mut last_ts = f64::NEG_INFINITY;
        let mut stack: Vec<String> = Vec::new();
        for e in events {
            if e.get("tid").and_then(obs::Json::as_u64) != Some(tid) {
                continue;
            }
            let ph = e.get("ph").and_then(obs::Json::as_str).expect("ph");
            if ph == "M" {
                continue;
            }
            let ts = e.get("ts").and_then(obs::Json::as_f64).expect("ts");
            assert!(ts >= last_ts, "timestamps non-decreasing per tid");
            last_ts = ts;
            let name = e.get("name").and_then(obs::Json::as_str).expect("name");
            match ph {
                "B" => {
                    b_seen += 1;
                    stack.push(name.to_string());
                }
                "E" => {
                    assert_eq!(
                        stack.pop().as_deref(),
                        Some(name),
                        "E must close the innermost open B"
                    );
                }
                "C" => {}
                other => panic!("unexpected phase {other}"),
            }
        }
        assert!(stack.is_empty(), "every B on tid {tid} closed by an E");
    }
    assert!(b_seen >= 5, "every span became a B/E pair");
    // The counter track made it in.
    assert!(events.iter().any(|e| {
        e.get("ph").and_then(obs::Json::as_str) == Some("C")
            && e.get("name").and_then(obs::Json::as_str) == Some("demo.count")
    }));
}

/// `RLCX_TRACE_OUT` is honored end-to-end by `RunReport::finish`.
#[test]
fn finish_exports_chrome_trace_when_env_is_set() {
    let _guard = level_lock();
    let path = std::env::temp_dir().join(format!("rlcx_finish_trace_{}.json", std::process::id()));
    std::env::set_var("RLCX_TRACE_OUT", &path);
    obs::set_trace_level(TraceLevel::Summary);
    obs::take_spans();
    {
        let _s = obs::span("chrome.finish.test");
    }
    obs::set_trace_level(TraceLevel::Off);
    let mut report = RunReport::new("finish_trace_test");
    report.finish();
    std::env::remove_var("RLCX_TRACE_OUT");

    let text = std::fs::read_to_string(&path).expect("finish wrote the chrome trace");
    std::fs::remove_file(&path).ok();
    let doc = obs::Json::parse(&text).unwrap();
    assert!(doc
        .get("traceEvents")
        .and_then(obs::Json::as_array)
        .is_some_and(|events| events
            .iter()
            .any(|e| e.get("name").and_then(obs::Json::as_str) == Some("chrome.finish.test"))));
}

/// The persistent worker pool (PR 10) publishes its dispatch metrics:
/// the task counter, the per-dispatch queue-depth histogram, the
/// steal/idle worker counters and the claimant-width gauge — the same
/// plumbing the fast-operator build and matvec paths dispatch through.
#[test]
fn pool_dispatches_publish_metrics() {
    use rlcx::numeric::{par_map, pool, with_thread_count};
    use std::time::Duration;

    let _guard = level_lock();
    let tasks_before = obs::counter_value("pool.tasks");
    let steal_before = obs::counter_value("pool.steal");

    // Sleeping tasks hold the job open long enough that the woken pool
    // workers provably claim a share; retry a few dispatches in case the
    // scheduler lets the caller drain an entire job alone.
    let mut rounds = 0u64;
    loop {
        pool::run(64, 4, |_| std::thread::sleep(Duration::from_millis(1)));
        rounds += 1;
        if obs::counter_value("pool.steal") > steal_before || rounds >= 50 {
            break;
        }
    }
    assert!(
        obs::counter_value("pool.tasks") >= tasks_before + 64 * rounds,
        "every dispatched task index is counted"
    );
    assert!(
        obs::counter_value("pool.steal") > steal_before,
        "pool workers claimed a share of the sleeping tasks"
    );
    assert!(
        obs::metric_value("pool.idle").is_some(),
        "idle counter registered at worker spawn"
    );
    match obs::metric_value("pool.queue.depth") {
        Some(obs::MetricValue::Histogram { count, max, .. }) => {
            assert!(max >= 64.0, "queue depth saw the 64-task dispatches");
            assert!(count >= rounds, "one depth sample per dispatch");
        }
        other => panic!("pool.queue.depth histogram missing: {other:?}"),
    }

    // The parallel map dispatches through the same pool and stamps the
    // claimant width on the shared gauge.
    with_thread_count(3, || {
        let out = par_map(128, |i| i * i);
        assert_eq!(out[127], 127 * 127);
    });
    match obs::metric_value("threads.used") {
        Some(obs::MetricValue::Gauge(t)) => assert_eq!(t, 3.0),
        other => panic!("threads.used gauge missing: {other:?}"),
    }
}

/// A PRIMA reduction publishes its macromodel health metrics: the
/// reduced-order and unstable-pole gauges and the Arnoldi deflation
/// counter (which must at least exist afterwards, deflated or not).
#[test]
fn reduction_publishes_mor_metrics() {
    use rlcx::spice::reduce::{Reduce, ReductionOrder};
    use rlcx::spice::{Netlist, Waveform, GROUND};

    let mut nl = Netlist::new();
    let inp = nl.node("in");
    nl.vsource("Vin", inp, GROUND, Waveform::ramp(0.0, 1.0, 0.0, 10e-12))
        .unwrap();
    let mut prev = inp;
    for i in 0..6 {
        let out = nl.node(format!("n{i}"));
        nl.resistor(&format!("R{i}"), prev, out, 10.0).unwrap();
        nl.capacitor(&format!("C{i}"), out, GROUND, 10e-15).unwrap();
        prev = out;
    }
    let deflations_before = obs::counter_value("mor.arnoldi.deflations");
    let model = Reduce::new(&nl)
        .order(ReductionOrder::new(5))
        .output("n5")
        .run()
        .unwrap();
    match obs::metric_value("mor.order") {
        Some(m) => assert_eq!(m.as_f64(), model.order() as f64),
        None => panic!("mor.order gauge missing"),
    }
    match obs::metric_value("mor.poles.unstable") {
        Some(m) => assert_eq!(m.as_f64(), 0.0),
        None => panic!("mor.poles.unstable gauge missing"),
    }
    assert!(
        obs::counter_value("mor.arnoldi.deflations")
            >= deflations_before + model.deflations() as u64,
        "deflation counter did not accumulate"
    );
}
