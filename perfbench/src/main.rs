//! The rlcx benchmark: the paper's characterize → extract → simulate/reduce
//! pipeline as four closed-loop workloads with one client each.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <characterize|skew_transient|skew_reduced|fieldsolve|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the traced
//! decomposition and prints the per-layer metrics. The last line of
//! standard output is the JSON result.

mod characterize;
mod fieldsolve;
mod host;
mod ops;
mod skew;
mod speed;
mod stats;
mod trace;

use ops::{Op, Workload};
use rlcx_clocktree::SkewReport;
use rlcx_core::{ClocktreeExtractor, InductanceTables};
use rlcx_numeric::obs::{self, MetricValue};
use rlcx_numeric::parallel::with_thread_count;
use rlcx_numeric::CMatrix;
use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::time::Instant;

/// Set-up runs at least this many times and for at least
/// [`SETUP_MIN_S`]; `setup_s` is the median repetition. The time floor
/// gives the cheap set-ups (about 0.08 s) a dozen samples.
const SETUP_MIN_REPS: usize = 3;
/// Least summed wall time of the set-up repetitions (s).
const SETUP_MIN_S: f64 = 1.0;
/// Repository tolerance on reduced-vs-transient delay (s).
const REDUCED_DELAY_TOL: f64 = 0.1e-12;
/// Repository tolerance on iterative-vs-dense PEEC agreement.
const BACKEND_TOL: f64 = 1e-9;
/// Largest field solve the dense reference is run on.
const DENSE_REF_MAX_FILAMENTS: usize = 900;
/// Seed of the reference round. `ref_err` is taken on this fixed round
/// rather than on the run's own ops: the worst error over a handful of
/// seeded ops swings by ±50 % between seeds (GMRES stopping points, spline
/// cell sizes, step-size aliasing), which would drown any real accuracy
/// change. The run's own ops are checked op by op instead.
const REF_SEED: u64 = 0;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && Workload::parse(&workload).is_none() {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <characterize|skew_transient|skew_reduced|fieldsolve|all> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workloads: Vec<Workload> = match Workload::parse(&args.workload) {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let mut all_correct = true;
    for (i, &w) in workloads.iter().enumerate() {
        if i > 0 {
            host::reset_peak_rss();
        }
        println!(
            "# workload {} seed {} seconds {} trace {}",
            w.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        println!("# host {}", host::fingerprint(threads));
        let result = with_thread_count(threads, || run_workload(w, &args, threads));
        all_correct &= result.correct;
        println!("{}", result.json());
    }
    if !all_correct {
        eprintln!("error: some op failed its checks");
    }
}

/// A workload's set-up product: the extractor over the characterized
/// tables for the skew workloads, nothing otherwise.
type Ctx = Option<ClocktreeExtractor>;

/// An op's result.
enum Outcome {
    Tables(Box<InductanceTables>),
    Skew(SkewReport),
    Z(CMatrix),
}

impl Outcome {
    fn bits(&self) -> Vec<u64> {
        match self {
            Outcome::Tables(t) => characterize::bits(t),
            Outcome::Skew(r) => skew::bits(r),
            Outcome::Z(z) => fieldsolve::bits(z),
        }
    }
}

fn extractor(ctx: &Ctx) -> Result<&ClocktreeExtractor, String> {
    ctx.as_ref()
        .ok_or_else(|| "skew workloads need characterized tables".into())
}

fn engine(w: Workload) -> skew::Engine {
    if w == Workload::SkewReduced {
        skew::Engine::reduced()
    } else {
        skew::Engine::transient()
    }
}

/// A workload's set-up product, its op list and the set-up times (s):
/// normalized to nominal host speed, and raw wall clock.
type Setup = (Ctx, Vec<Vec<Op>>, Vec<f64>, Vec<f64>);

/// Set-up, repeated as [`SETUP_MIN_REPS`] and [`SETUP_MIN_S`] ask: table
/// characterization for the skew workloads; otherwise generating the op
/// list plus one fixed warm-up op that starts the worker pool and the
/// lazily built quadrature rules. Each repetition is normalized by the host
/// speed probed just before and just after it.
fn setup(w: Workload, seed: u64) -> Result<Setup, String> {
    let (mut times, mut raw) = (Vec::new(), Vec::new());
    let mut last = None;
    while raw.len() < SETUP_MIN_REPS || raw.iter().sum::<f64>() < SETUP_MIN_S {
        let before = speed::probe_median();
        let t0 = Instant::now();
        let rounds = ops::generate(w, seed);
        let ctx = match w {
            Workload::Characterize => characterize::warmup().map(|()| None)?,
            Workload::Fieldsolve => fieldsolve::warmup().map(|()| None)?,
            Workload::SkewTransient | Workload::SkewReduced => Some(skew::setup()?),
        };
        let wall = t0.elapsed().as_secs_f64();
        let host = 0.5 * (before + speed::probe_median());
        times.push(wall * speed::NOMINAL_S / host);
        raw.push(wall);
        last = Some((ctx, rounds));
    }
    let (ctx, rounds) = last.expect("at least one set-up repetition");
    Ok((ctx, rounds, times, raw))
}

/// The facade call of one op.
fn run_facade(w: Workload, ctx: &Ctx, op: &Op) -> Result<Outcome, String> {
    match op {
        Op::Char(j) => characterize::facade(j).map(|t| Outcome::Tables(Box::new(t))),
        Op::Skew(q) => skew::facade(extractor(ctx)?, q, engine(w)).map(Outcome::Skew),
        Op::Field(f) => fieldsolve::facade(f).map(Outcome::Z),
    }
}

/// Checks one op's outcome. `unstable_poles` is the reduced-model pole
/// count observed for it (0 on paths without a reduction).
fn check(op: &Op, out: &Outcome, unstable_poles: usize) -> Result<(), String> {
    match (op, out) {
        (Op::Char(j), Outcome::Tables(t)) => characterize::check(j, t),
        (Op::Skew(q), Outcome::Skew(r)) => skew::check(q, r, unstable_poles),
        (Op::Field(f), Outcome::Z(z)) => fieldsolve::check(f, z),
        _ => Err("outcome does not match the op".into()),
    }
}

/// One executed op.
#[derive(Debug, Clone)]
struct OpRecord {
    kind: &'static str,
    /// Midpoint of the op, in seconds since the loop started.
    at: f64,
    wall: f64,
    ok: bool,
}

/// Wall-clock cap of a closed loop, as a multiple of its budget.
const MAX_WALL_FACTOR: f64 = 2.0;

/// Closed loop over whole rounds: the next op starts when the previous one
/// returns, after a host speed probe at most every [`speed::PERIOD_S`]. A
/// new round starts only while the loop time so far plus its mean per round
/// fits in `budget`, both at nominal host speed, so the op count does not
/// follow the host's phase; the first round always runs, and none starts
/// after [`MAX_WALL_FACTOR`] × `budget` of wall clock. `exec` runs one op
/// and returns its timed wall and whether it passed.
fn closed_loop(
    rounds: &[Vec<Op>],
    budget: f64,
    mut exec: impl FnMut(usize, &Op) -> (f64, bool),
) -> (Vec<OpRecord>, speed::Track) {
    let mut records = Vec::new();
    let mut track = speed::Track::default();
    let t0 = Instant::now();
    let (mut spent, mut last) = (0.0f64, 0.0f64);
    let mut index = 0;
    for (r, round) in rounds.iter().enumerate() {
        if r > 0 && (spent + spent / r as f64 > budget || last > MAX_WALL_FACTOR * budget) {
            break;
        }
        for op in round {
            track.maybe_probe(t0.elapsed().as_secs_f64());
            let start = t0.elapsed().as_secs_f64();
            let (wall, ok) = exec(index, op);
            records.push(OpRecord {
                kind: op.kind(),
                at: start + 0.5 * wall,
                wall,
                ok,
            });
            index += 1;
        }
        let now = t0.elapsed().as_secs_f64();
        spent += (now - last) * speed::NOMINAL_S / track.around(now);
        last = now;
    }
    track.push(t0.elapsed().as_secs_f64(), speed::probe());
    (records, track)
}

/// The gauge `name`, or 0.
fn gauge(name: &str) -> f64 {
    match obs::metric_value(name) {
        Some(MetricValue::Gauge(v)) => v,
        _ => 0.0,
    }
}

fn counter(name: &str) -> f64 {
    obs::counter_value(name) as f64
}

/// Times and checks one facade op.
fn timed_facade(w: Workload, ctx: &Ctx, op: &Op) -> (f64, Result<Outcome, String>) {
    let t0 = Instant::now();
    let out = run_facade(w, ctx, op);
    let wall = t0.elapsed().as_secs_f64();
    let out = out.and_then(|o| {
        let unstable = if w == Workload::SkewReduced {
            gauge("mor.poles.unstable") as usize
        } else {
            0
        };
        check(op, &o, unstable).map(|()| o)
    });
    (wall, out)
}

/// A metric as printed.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

struct WorkloadResult {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

impl WorkloadResult {
    fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "{}{}: {{\"value\": {v:?}, \"unit\": {}}}",
                if i > 0 { ", " } else { "" },
                host::quote(&m.name),
                host::quote(m.unit)
            );
        }
        s.push_str("}}");
        s
    }
}

fn run_workload(w: Workload, args: &Args, threads: usize) -> WorkloadResult {
    let (ctx, rounds, setup_times, setup_raw) = match setup(w, args.seed) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: set-up failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "# oplist_hash {:016x} ({} rounds generated)",
        ops::list_hash(&rounds),
        rounds.len()
    );
    println!("# setup_s runs {setup_times:?} (raw wall clock {setup_raw:?})");
    if args.trace {
        traced_run(w, args, threads, &ctx, &rounds)
    } else {
        e2e_run(w, args, &ctx, &rounds, stats::median(&setup_times))
    }
}

/// Prints the op-kind shares of `records`.
fn print_mix(records: &[OpRecord]) {
    let mut by_kind: BTreeMap<&str, usize> = BTreeMap::new();
    for r in records {
        *by_kind.entry(r.kind).or_default() += 1;
    }
    let mix: Vec<String> = by_kind
        .iter()
        .map(|(k, n)| {
            format!(
                "{k}={:.1}%",
                100.0 * *n as f64 / records.len().max(1) as f64
            )
        })
        .collect();
    println!("# op mix ({} ops): {}", records.len(), mix.join(" "));
    let p50: Vec<String> = by_kind
        .keys()
        .map(|k| {
            let walls: Vec<f64> = records
                .iter()
                .filter(|r| r.kind == *k && r.ok)
                .map(|r| r.wall)
                .collect();
            format!("{k}={:.3}", 1e3 * stats::median(&walls))
        })
        .collect();
    println!("# op p50 ms by kind (raw wall clock): {}", p50.join(" "));
}

fn e2e_run(
    w: Workload,
    args: &Args,
    ctx: &Ctx,
    rounds: &[Vec<Op>],
    setup_s: f64,
) -> WorkloadResult {
    let (records, track) = closed_loop(rounds, args.seconds, |i, op| {
        let (wall, out) = timed_facade(w, ctx, op);
        if let Err(e) = &out {
            eprintln!("op {i} ({}) failed: {e}", op.kind());
        }
        (wall, out.is_ok())
    });
    print_mix(&records);
    let reference = reference_round(w, ctx);
    println!(
        "# ref_err over {} ops of the reference round (seed {REF_SEED}): {:e}",
        reference.measured, reference.worst
    );
    e2e_result(&records, &track, setup_s, host::peak_rss_mb(), &reference)
}

/// The op-time figures of `walls` (s) that passed: ops per second of summed
/// op time, median and tail (s).
fn op_times(records: &[OpRecord], walls: &[f64]) -> (f64, f64, stats::Tail) {
    let passed: Vec<f64> = records
        .iter()
        .zip(walls)
        .filter(|(r, _)| r.ok)
        .map(|(_, &w)| w)
        .collect();
    let timed: f64 = walls.iter().sum();
    (
        passed.len() as f64 / timed,
        stats::median(&passed),
        stats::tail(&passed),
    )
}

/// The end-to-end figures of a run. Op times are normalized by the host
/// speed `track` measured around each op (see [`speed`]); the raw
/// wall-clock figures are printed. An op that errored or failed a check
/// counts in `failed` and is left out of every latency figure.
fn e2e_result(
    records: &[OpRecord],
    track: &speed::Track,
    setup_s: f64,
    peak_rss_mb: f64,
    reference: &Reference,
) -> WorkloadResult {
    let attempted = records.len();
    let passed = records.iter().filter(|r| r.ok).count();
    let raw: Vec<f64> = records.iter().map(|r| r.wall).collect();
    let normalized: Vec<f64> = records
        .iter()
        .map(|r| r.wall * speed::NOMINAL_S / track.around(r.at))
        .collect();
    let (raw_rate, raw_p50, raw_tail) = op_times(records, &raw);
    let (rate, p50, tail) = op_times(records, &normalized);
    println!(
        "# host probe median {:.4} ms over {} samples; raw wall clock: ops_per_s {raw_rate:.4} \
         op_p50_ms {:.4} op_tail_ms {:.4}",
        1e3 * track.median(),
        track.len(),
        1e3 * raw_p50,
        1e3 * raw_tail.value
    );
    println!(
        "# op_tail_ms is p{} ({} of {} samples beyond it)",
        tail.percentile, tail.beyond, passed
    );
    println!(
        "# fail_ratio {}",
        (attempted - passed) as f64 / attempted as f64
    );
    let metrics = vec![
        metric("setup_s", "s", setup_s),
        metric("ops_per_s", "1/s", rate),
        metric("op_p50_ms", "ms", 1e3 * p50),
        metric("op_tail_ms", "ms", 1e3 * tail.value),
        metric("pass_ratio", "1", passed as f64 / attempted as f64),
        metric("peak_rss_mb", "MB", peak_rss_mb),
        metric("ref_err", "1", reference.worst),
    ];
    let failed = attempted - passed + reference.failed;
    WorkloadResult {
        correct: failed == 0 && reference.measured > 0,
        attempted,
        failed,
        metrics,
    }
}

/// Outcome of the reference round.
struct Reference {
    /// Worst relative error against the workload's reference.
    worst: f64,
    /// Ops measured against the reference.
    measured: usize,
    /// Ops that failed a check or the repository's tolerance.
    failed: usize,
}

/// Runs the reference round through the facade and measures each op
/// against its workload's reference: a direct field solve at table-cell
/// midpoints (`characterize`), the half-timestep transient
/// (`skew_transient`), the transient path (`skew_reduced`), and the dense
/// backend on solves of at most [`DENSE_REF_MAX_FILAMENTS`] filaments
/// (`fieldsolve`).
fn reference_round(w: Workload, ctx: &Ctx) -> Reference {
    let (mut worst, mut measured, mut failed) = (0.0f64, 0usize, 0usize);
    for op in &ops::generate(w, REF_SEED)[0] {
        let res = timed_facade(w, ctx, op).1.and_then(|out| match (op, &out) {
            (Op::Char(j), Outcome::Tables(t)) => characterize::reference_error(j, t).map(Some),
            (Op::Skew(q), Outcome::Skew(r)) => {
                let reference = match w {
                    Workload::SkewReduced => skew::Engine::transient(),
                    _ => skew::Engine {
                        timestep: 0.5 * skew::Engine::transient().timestep,
                        ..skew::Engine::transient()
                    },
                };
                let (rel, abs) = skew::reference_error(extractor(ctx)?, q, r, reference)?;
                if w == Workload::SkewReduced && abs > REDUCED_DELAY_TOL {
                    return Err(format!(
                        "reduced delay off the transient by {:.4} ps",
                        abs * 1e12
                    ));
                }
                Ok(Some(rel))
            }
            (Op::Field(f), Outcome::Z(z)) => {
                let n = fieldsolve::filaments(f);
                if n < rlcx_peec::iterative_cutover() || n > DENSE_REF_MAX_FILAMENTS {
                    return Ok(None);
                }
                let e = fieldsolve::reference_error(f, z)?;
                if e > BACKEND_TOL {
                    return Err(format!("iterative off dense by {e:e}"));
                }
                Ok(Some(e))
            }
            _ => Err("outcome does not match the op".into()),
        });
        match res {
            Ok(Some(e)) => {
                worst = worst.max(e);
                measured += 1;
            }
            Ok(None) => {}
            Err(e) => {
                eprintln!("reference op ({}) failed: {e}", op.kind());
                failed += 1;
            }
        }
    }
    Reference {
        worst,
        measured,
        failed,
    }
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// Per-layer accumulation over the traced phase.
#[derive(Default)]
struct Layers {
    ops: usize,
    /// Op wall minus probe time, summed.
    wall: f64,
    /// Self time of the caller thread's spans, summed.
    covered: f64,
    busy: BTreeMap<&'static str, f64>,
    calls: BTreeMap<&'static str, usize>,
    solve_ms: Vec<f64>,
    far_mem_f64: f64,
    probe: skew::StageProbe,
}

impl Layers {
    fn absorb(&mut self, wall: f64, caller: u64, recs: &[trace::Record]) {
        self.ops += 1;
        self.wall += wall;
        for (r, self_s) in trace::self_times(recs) {
            if r.thread == caller {
                self.covered += self_s;
            }
            *self.busy.entry(r.name).or_default() += r.duration();
            *self.calls.entry(r.name).or_default() += 1;
            if r.name == "peec.solve" {
                self.solve_ms.push(1e3 * r.duration());
            }
            if r.name == "clocktree" {
                // Self time: the path accumulation itself.
                *self.busy.entry("clocktree.self").or_default() += self_s;
            }
        }
        self.far_mem_f64 = self.far_mem_f64.max(gauge("fastop.far.mem.f64"));
    }

    fn per_op(&self, v: f64) -> f64 {
        v / self.ops.max(1) as f64
    }

    fn busy(&self, name: &str) -> f64 {
        self.per_op(self.busy.get(name).copied().unwrap_or(0.0))
    }

    fn calls(&self, name: &str) -> f64 {
        self.per_op(self.calls.get(name).copied().unwrap_or(0) as f64)
    }
}

fn traced_op(
    w: Workload,
    ctx: &Ctx,
    op: &Op,
    probe: &mut skew::StageProbe,
) -> Result<Outcome, String> {
    match op {
        Op::Char(j) => characterize::decomposed(j).map(|t| Outcome::Tables(Box::new(t))),
        Op::Skew(q) => skew::decomposed(extractor(ctx)?, q, engine(w), probe).map(Outcome::Skew),
        Op::Field(f) => fieldsolve::decomposed(f).map(Outcome::Z),
    }
}

fn hist(name: &str, q: f64) -> f64 {
    match obs::metric_value(name) {
        Some(MetricValue::Histogram { max, .. }) if q >= 1.0 => max,
        Some(MetricValue::Histogram { .. }) => obs::quantile(name, q).unwrap_or(0.0),
        _ => 0.0,
    }
}

/// Program counters read around every decomposed op.
const COUNTERS: [&str; 9] = [
    "peec.filaments",
    "peec.solves",
    "peec.solves.iterative",
    "fastop.kernel.hits",
    "fastop.kernel.misses",
    "pool.tasks",
    "pool.steal",
    "pool.idle",
    "sparse.lu.flops",
];

/// The traced run. Every op runs twice, back to back: through the facade
/// untraced (its wall time feeds the per-kind latencies), then decomposed
/// with spans; the two results must be bit-identical, and the paired wall
/// times give the tracing overhead. The first round then runs again at
/// `threads` and at one thread, op by op, for the parallel efficiency.
fn traced_run(
    w: Workload,
    args: &Args,
    threads: usize,
    ctx: &Ctx,
    rounds: &[Vec<Op>],
) -> WorkloadResult {
    let mut failed = 0usize;
    let mut mismatches = 0usize;
    obs::reset_metrics();
    trace::drain();
    let caller = trace::thread_id();
    let mut layers = Layers::default();
    let mut deltas = [0.0f64; COUNTERS.len()];
    let mut traced_wall = 0.0f64;
    let (untraced, _) = closed_loop(rounds, args.seconds, |i, op| {
        let (wall, facade) = timed_facade(w, ctx, op);
        let before = COUNTERS.map(counter);
        let probe_before = layers.probe.probe_s;
        trace::set_enabled(true);
        let t0 = Instant::now();
        let out = traced_op(w, ctx, op, &mut layers.probe);
        let traced = t0.elapsed().as_secs_f64() - (layers.probe.probe_s - probe_before);
        trace::set_enabled(false);
        for (d, (name, b)) in deltas.iter_mut().zip(COUNTERS.iter().zip(before)) {
            *d += counter(name) - b;
        }
        layers.absorb(traced, caller, &trace::drain());
        traced_wall += traced;
        let decomposed = out.and_then(|o| check(op, &o, layers.probe.unstable).map(|()| o));
        match (facade, decomposed) {
            (Ok(f), Ok(d)) => {
                if f.bits() != d.bits() {
                    eprintln!(
                        "traced op {i} ({}) is not bit-identical to the facade",
                        op.kind()
                    );
                    mismatches += 1;
                }
                (wall, true)
            }
            (f, d) => {
                if let Err(e) = f.and(d) {
                    eprintln!("op {i} ({}) failed: {e}", op.kind());
                }
                (wall, false)
            }
        }
    });
    print_mix(&untraced);
    failed += untraced.iter().filter(|r| !r.ok).count();
    println!(
        "# bit-identity: {} of {} decomposed ops match the facade",
        untraced.len() - failed - mismatches,
        untraced.len() - failed
    );
    let counted = |name: &str| {
        deltas[COUNTERS
            .iter()
            .position(|c| *c == name)
            .expect("listed counter")]
    };
    let (solves, iterative) = (counted("peec.solves"), counted("peec.solves.iterative"));
    let (hits, misses) = (
        counted("fastop.kernel.hits"),
        counted("fastop.kernel.misses"),
    );
    let program = [
        ("peec.filaments", layers.per_op(counted("peec.filaments"))),
        (
            "peec.kernel.hit_ratio",
            if hits + misses > 0.0 {
                hits / (hits + misses)
            } else {
                0.0
            },
        ),
        ("peec.gmres.iters.p50", hist("gmres.iters", 0.5)),
        ("peec.gmres.iters.max", hist("gmres.iters", 1.0)),
        ("peec.h2.rank.p99", hist("h2.basis.rank", 0.99)),
        (
            "peec.dense_share",
            if solves > 0.0 {
                1.0 - iterative / solves
            } else {
                0.0
            },
        ),
        ("numeric.pool.tasks", layers.per_op(counted("pool.tasks"))),
        ("numeric.pool.steal", layers.per_op(counted("pool.steal"))),
        ("numeric.pool.idle", layers.per_op(counted("pool.idle"))),
        (
            "numeric.sparse.lu.flops",
            layers.per_op(counted("sparse.lu.flops")),
        ),
    ];

    // The first round at `threads` and at one thread, op by op.
    let (mut t_n, mut t_1) = (0.0f64, 0.0f64);
    for op in &rounds[0] {
        let t0 = Instant::now();
        let many = run_facade(w, ctx, op);
        t_n += t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let one = with_thread_count(1, || run_facade(w, ctx, op));
        t_1 += t0.elapsed().as_secs_f64();
        if many.is_err() || one.is_err() {
            failed += 1;
        }
    }
    let par_efficiency = t_1 / (t_n * threads as f64);
    println!(
        "# par_efficiency: t1 {t_1:.4} s, t{threads} {t_n:.4} s over {} ops",
        rounds[0].len()
    );

    let probe = &layers.probe;
    let stages = probe.dims.len();
    let mut seen = HashSet::new();
    let repeats = probe.hashes.iter().filter(|h| !seen.insert(**h)).count();
    let dims: Vec<f64> = probe.dims.iter().map(|&d| d as f64).collect();
    let lookups: Vec<f64> = probe.lookups.clone();
    let orders: Vec<f64> = probe.orders.iter().map(|&o| o as f64).collect();
    let share = |num: usize, den: usize| {
        if den > 0 {
            num as f64 / den as f64
        } else {
            0.0
        }
    };
    let or0 = |v: f64| if v.is_finite() { v } else { 0.0 };

    let mut metrics = vec![
        metric("peec.solve.busy_s", "s/op", layers.busy("peec.solve")),
        metric("peec.solve.calls", "1/op", layers.calls("peec.solve")),
        metric(
            "peec.solve.p50_ms",
            "ms",
            or0(stats::median(&layers.solve_ms)),
        ),
    ];
    for (name, v) in program {
        let unit = match name {
            "peec.filaments"
            | "numeric.pool.tasks"
            | "numeric.pool.steal"
            | "numeric.pool.idle"
            | "numeric.sparse.lu.flops" => "1/op",
            _ => "1",
        };
        metrics.push(metric(name, unit, v));
    }
    metrics.extend([
        metric("peec.far_mem_mb", "MB", layers.far_mem_f64 * 8.0 / 1e6),
        metric("numeric.par_efficiency", "1", par_efficiency),
        metric("numeric.mor.order", "1", or0(stats::median(&orders))),
        metric("numeric.mor.poles.unstable", "count", probe.unstable as f64),
        metric("geom.busy_s", "s/op", layers.busy("geom")),
        metric("core.netlist.busy_s", "s/op", layers.busy("core.netlist")),
        metric("core.netlist.calls", "1/op", layers.calls("core.netlist")),
        metric(
            "core.lookup.p50_us",
            "us",
            or0(1e6 * stats::median(&lookups)),
        ),
        metric("core.table.fit_s", "s/op", layers.busy("core.table.fit")),
        metric("cap.sample.busy_s", "s/op", layers.busy("cap.sample")),
        metric(
            "spice.transient.busy_s",
            "s/op",
            layers.busy("spice.transient"),
        ),
        metric(
            "spice.transient.calls",
            "1/op",
            layers.calls("spice.transient"),
        ),
        metric("spice.steps", "1/op", layers.per_op(probe.steps as f64)),
        metric("spice.mna.dim.p50", "1", or0(stats::median(&dims))),
        metric(
            "spice.sparse_share",
            "1",
            share(
                probe
                    .dims
                    .iter()
                    .filter(|&&d| d >= rlcx_spice::SPARSE_CUTOVER)
                    .count(),
                stages,
            ),
        ),
        metric("spice.measure.busy_s", "s/op", layers.busy("spice.measure")),
        metric("spice.reduce.busy_s", "s/op", layers.busy("spice.reduce")),
        metric("spice.query.busy_s", "s/op", layers.busy("spice.query")),
        metric(
            "spice.stage.repeat_share",
            "1",
            share(repeats, probe.hashes.len()),
        ),
        metric("clocktree.self_s", "s/op", layers.busy("clocktree.self")),
        metric("clocktree.stages", "1/op", layers.per_op(stages as f64)),
    ]);
    for kind in ops::KINDS {
        let walls: Vec<f64> = untraced
            .iter()
            .filter(|r| r.kind == kind && r.ok)
            .map(|r| r.wall)
            .collect();
        metrics.push(metric(
            format!("op.{kind}.p50_ms"),
            "ms",
            or0(1e3 * stats::median(&walls)),
        ));
    }
    metrics.extend([
        metric("trace.coverage", "1", layers.covered / layers.wall),
        metric(
            "trace.overhead",
            "1",
            traced_wall / untraced.iter().map(|r| r.wall).sum::<f64>() - 1.0,
        ),
    ]);
    let attempted = untraced.len();
    WorkloadResult {
        correct: failed == 0 && mismatches == 0,
        attempted,
        failed: failed + mismatches,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ops::{Cross, FieldGeom, FieldOp, SkewKind, SkewOp};
    use rlcx_core::{LoopLTable, MutualLTable, SelfLTable};
    use rlcx_geom::ShieldConfig;
    use rlcx_numeric::Complex;

    fn field_op() -> Op {
        Op::Field(FieldOp {
            kind: "cpw",
            geom: FieldGeom::Coplanar {
                traces: vec![(0.0, 5.0), (6.0, 10.0), (17.0, 5.0)],
            },
            length: 1000.0,
            thickness: 2.0,
            mesh: (2, 2),
            strip_mesh: (1, 1),
            frequency: 3.2e9,
        })
    }

    fn z(asym: f64, diag_re: f64) -> Outcome {
        let mut m = CMatrix::zeros(3, 3);
        for i in 0..3 {
            for j in 0..3 {
                m[(i, j)] = if i == j {
                    Complex::new(diag_re, 10.0)
                } else {
                    Complex::new(0.1, 3.0)
                };
            }
        }
        m[(0, 1)] = Complex::new(0.1 + asym, 3.0);
        Outcome::Z(m)
    }

    fn skew_op(kind: SkewKind) -> Op {
        Op::Skew(SkewOp {
            kind,
            depth: 1,
            span: 8000.0,
            sections: 1,
            strong: true,
            crosses: vec![Cross {
                signal: 5.0,
                ground: 5.0,
                spacing: 2.0,
                plane: false,
            }],
            mc_seed: 1,
            nominal_l: true,
        })
    }

    fn report(delays: Vec<f64>) -> Outcome {
        let insertion_delay = delays.iter().sum::<f64>() / delays.len() as f64;
        Outcome::Skew(SkewReport {
            sink_delays: delays,
            insertion_delay,
        })
    }

    fn char_op() -> Op {
        Op::Char(ops::CharJob {
            kind: "grid_small",
            layer: 5,
            rise: 100e-12,
            mesh: (1, 1),
            widths: vec![1.0, 2.0],
            spacings: vec![1.0, 2.0],
            lengths: vec![100.0, 200.0],
            shields: vec![ShieldConfig::Coplanar],
        })
    }

    /// Tables over 2 widths × 2 spacings × 2 lengths with self L `l`,
    /// mutual L `m` at every point.
    fn tables(l: [[f64; 2]; 2], m: f64) -> Outcome {
        let (w, s, len) = (vec![1.0, 2.0], vec![1.0, 2.0], vec![100.0, 200.0]);
        let self_l = SelfLTable::from_grid(
            w.clone(),
            len.clone(),
            l.iter().map(|r| r.to_vec()).collect(),
        )
        .unwrap();
        let grid = vec![vec![vec![vec![m, 2.0 * m]; 2]; 2]; 2];
        let mutual = MutualLTable::from_grid(w.clone(), s, len.clone(), grid).unwrap();
        let rows = vec![vec![1e-10, 2e-10]; 2];
        let lp =
            LoopLTable::from_grid(ShieldConfig::Coplanar, 1.0, 1.0, w, len, rows.clone(), rows)
                .unwrap();
        Outcome::Tables(Box::new(InductanceTables::new(
            self_l,
            mutual,
            vec![lp],
            3.2e9,
        )))
    }

    #[test]
    fn good_outputs_pass_their_checks() {
        assert_eq!(check(&field_op(), &z(0.0, 1.0), 0), Ok(()));
        let d = vec![100e-12; 4];
        assert_eq!(check(&skew_op(SkewKind::Nominal), &report(d), 0), Ok(()));
        assert_eq!(
            check(
                &char_op(),
                &tables([[1e-10, 2e-10], [1.2e-10, 2.4e-10]], 1e-11),
                0
            ),
            Ok(())
        );
    }

    #[test]
    fn injected_bad_outputs_fail_their_checks() {
        // Z: non-reciprocal, non-positive real diagonal.
        assert!(check(&field_op(), &z(1e-3, 1.0), 0).is_err());
        assert!(check(&field_op(), &z(0.0, -1.0), 0).is_err());
        // Skew: a NaN delay, skew on a symmetric tree, an unstable pole,
        // a Monte-Carlo run without spread, a wrong sink count.
        let nominal = skew_op(SkewKind::Nominal);
        assert!(check(
            &nominal,
            &report(vec![100e-12, f64::NAN, 100e-12, 100e-12]),
            0
        )
        .is_err());
        assert!(check(
            &nominal,
            &report(vec![100e-12, 101e-12, 100e-12, 100e-12]),
            0
        )
        .is_err());
        assert!(check(&nominal, &report(vec![100e-12; 4]), 1).is_err());
        assert!(check(&skew_op(SkewKind::MonteCarlo), &report(vec![100e-12; 4]), 0).is_err());
        assert!(check(&nominal, &report(vec![100e-12; 3]), 0).is_err());
        // Tables: self L falling with length, |M| ≥ √(L₁L₂).
        assert!(check(
            &char_op(),
            &tables([[2e-10, 1e-10], [1.2e-10, 2.4e-10]], 1e-11),
            0
        )
        .is_err());
        assert!(check(
            &char_op(),
            &tables([[1e-10, 2e-10], [1.2e-10, 2.4e-10]], 1.5e-10),
            0
        )
        .is_err());
        // An outcome of the wrong kind.
        assert!(check(&field_op(), &report(vec![100e-12; 4]), 0).is_err());
    }

    #[test]
    fn a_failed_op_counts_in_the_failures_and_not_in_latency() {
        let op = field_op();
        let rounds = vec![vec![op.clone(), op.clone(), op]];
        // The middle op returns a non-reciprocal Z and is the slowest.
        let outcomes = [z(0.0, 1.0), z(1e-3, 1.0), z(0.0, 1.0)];
        let walls = [0.001, 0.100, 0.003];
        let (records, _) = closed_loop(&rounds, 1e9, |i, op| {
            (walls[i], check(op, &outcomes[i], 0).is_ok())
        });
        // A host at the nominal speed: normalized times equal wall times.
        let mut nominal = speed::Track::default();
        nominal.push(0.0, speed::NOMINAL_S);
        let reference = Reference {
            worst: 1e-12,
            measured: 1,
            failed: 0,
        };
        let r = e2e_result(&records, &nominal, 0.5, 10.0, &reference);
        assert_eq!((r.attempted, r.failed, r.correct), (3, 1, false));
        let value = |name: &str| r.metrics.iter().find(|m| m.name == name).map(|m| m.value);
        assert_eq!(value("op_p50_ms"), Some(2.0));
        assert_eq!(value("pass_ratio"), Some(2.0 / 3.0));
        assert_eq!(value("ops_per_s"), Some(2.0 / 0.104));
        // A failed reference op also makes the run incorrect.
        let bad_ref = Reference {
            failed: 1,
            ..reference
        };
        let clean: Vec<OpRecord> = records.iter().filter(|r| r.ok).cloned().collect();
        let r = e2e_result(&clean, &nominal, 0.5, 10.0, &bad_ref);
        assert_eq!((r.failed, r.correct), (1, false));
    }

    #[test]
    fn op_times_are_normalized_by_the_host_speed_around_them() {
        // An op takes 2 ms while the probe takes 2 ms, then 1 ms once the
        // host is twice as fast: every op reads as long as one probe at
        // nominal speed.
        let mut track = speed::Track::default();
        let records: Vec<OpRecord> = (0..20)
            .map(|i| {
                let (at, wall) = if i < 10 {
                    (0.1 * f64::from(i), 2e-3)
                } else {
                    (10.0 + 0.1 * f64::from(i), 1e-3)
                };
                track.push(at, wall);
                OpRecord {
                    kind: "cpw",
                    at,
                    wall,
                    ok: true,
                }
            })
            .collect();
        let reference = Reference {
            worst: 1e-12,
            measured: 1,
            failed: 0,
        };
        let r = e2e_result(&records, &track, 0.5, 10.0, &reference);
        let value = |name: &str| {
            r.metrics
                .iter()
                .find(|m| m.name == name)
                .map_or(f64::NAN, |m| m.value)
        };
        let nominal_ms = 1e3 * speed::NOMINAL_S;
        assert!((value("op_p50_ms") - nominal_ms).abs() < 1e-12);
        assert!((value("op_tail_ms") - nominal_ms).abs() < 1e-12);
        assert!((value("ops_per_s") - 1e3 / nominal_ms).abs() < 1e-9);
    }

    #[test]
    fn closed_loop_runs_whole_rounds_only() {
        let rounds = ops::generate(Workload::Fieldsolve, 1);
        let mut calls = 0;
        let (records, _) = closed_loop(&rounds, 1e-12, |_, _| {
            calls += 1;
            (0.0, true)
        });
        assert_eq!(records.len(), rounds[0].len());
        assert_eq!(calls, rounds[0].len());
    }

    #[test]
    fn arguments_are_validated() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let ok = parse("--workload fieldsolve --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!((ok.seed, ok.seconds, ok.trace), (3, 10.0, true));
        assert!(parse("--workload nope --seed 3 --seconds 10 --trace 0").is_err());
        assert!(parse("--workload all --seed x --seconds 10 --trace 0").is_err());
        assert!(parse("--workload all --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload all --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse("--seed 1 --seconds 1").is_err());
    }
}
