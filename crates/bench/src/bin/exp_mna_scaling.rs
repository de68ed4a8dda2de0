//! E10 (engine scaling) — dense vs sparse MNA, from one clock stage to
//! a whole clocktree.
//!
//! The transient and AC engines share one MNA formulation and factor it
//! with the fill-reducing sparse LU; dense LU (O(n³)) is kept as an
//! oracle. Clocktree matrices are nearly tree-structured, so sparse
//! factor + solve should scale almost linearly while dense blows up
//! cubically. This experiment sweeps H-tree depth, times both backends on
//! identical netlists and checks they agree to solver precision. It then
//! times both on single buffer stages at the sizes the skew flow actually
//! simulates (9–75 unknowns), as the median of interleaved runs: the
//! evidence that sparse is the right engine even there, so no size-based
//! dense cutover exists.
//!
//! Gated figures (`ci/thresholds/exp_mna_scaling.json`):
//! * `figures.agree.trans.max_rel_err` / `figures.agree.ac.max_rel_err` —
//!   backend agreement on transient trajectories and AC transfer curves,
//! * `figures.speedup.factor_step_total` — sparse advantage at the
//!   deepest tree both engines run,
//! * `figures.sparse.fill_ratio` — LU fill stays near the tree bound,
//! * `figures.mna.nnz_per_unknown` — assembled pattern stays sparse,
//! * `metrics.lu.factor.n.p99` / `series.sparse.lu.colfill.pushed` — the
//!   factorization work counts stay near their committed values.
//!
//! The stage sweep's `figures.trans.{dense,sparse}.s.dim{N}` are
//! report-only: wall-clock times measure the host as much as the code.

use rlcx::geom::HTree;
use rlcx::numeric::stats::percentile;
use rlcx::obs::{self, MetricValue};
use rlcx::spice::{
    ac::{Ac, Sweep},
    Netlist, SolverEngine, Transient, Waveform, GROUND,
};
use std::time::Instant;

/// Sections per H-tree branch: enough to resolve wave behaviour without
/// exploding the element count.
const SECTIONS: usize = 3;
/// Transient horizon: 80 steps at 1 ps.
const TIMESTEP: f64 = 1e-12;
const DURATION: f64 = 80e-12;

/// Builds a depth-`depth` buffered H-tree RLC netlist: a ramp source and
/// driver resistor at the root, two child branches per node, each branch a
/// chain of `SECTIONS` RLC sections whose element values halve per level
/// (children are half as long), and a load capacitor at every leaf.
/// Returns the netlist and one representative sink node name.
fn h_tree(depth: usize) -> (Netlist, String) {
    let mut nl = Netlist::new();
    let root = nl.node("root");
    nl.vsource("Vdrv", root, GROUND, Waveform::ramp(0.0, 1.0, 0.0, 20e-12))
        .expect("vsource");
    let drv = nl.node("drv");
    nl.resistor("Rdrv", root, drv, 30.0).expect("driver R");

    let mut frontier = vec![drv];
    let mut id = 0usize;
    let mut sink = String::new();
    for level in 0..depth {
        let scale = 0.5f64.powi(level as i32);
        let secs = SECTIONS as f64;
        let (r, l, c) = (
            4.0 * scale / secs,
            0.5e-9 * scale / secs,
            20e-15 * scale / secs,
        );
        let mut next = Vec::with_capacity(frontier.len() * 2);
        for parent in std::mem::take(&mut frontier) {
            for _ in 0..2 {
                let mut prev = parent;
                for _ in 0..SECTIONS {
                    id += 1;
                    let mid = nl.node(format!("m{id}"));
                    let out = nl.node(format!("n{id}"));
                    nl.resistor(&format!("R{id}"), prev, mid, r).expect("R");
                    nl.inductor(&format!("L{id}"), mid, out, l).expect("L");
                    nl.capacitor(&format!("C{id}"), out, GROUND, c).expect("C");
                    prev = out;
                }
                next.push(prev);
                sink = format!("n{id}");
            }
        }
        frontier = next;
    }
    for (k, &leaf) in frontier.iter().enumerate() {
        nl.capacitor(&format!("Cload{k}"), leaf, GROUND, 5e-15)
            .expect("load C");
    }
    (nl, sink)
}

/// Builds one level-0 buffer stage of a 4 mm H-tree (trunk plus four
/// arms) the way `TreeNetlistBuilder` does: a ramped 40 Ω driver, each
/// edge split into `sections` π-sections (series R, plus L when `rlc`),
/// and 20 fF buffer loads at the arm tips. Element values come from a
/// fixed per-µm model of a 5 µm copper wire rather than extraction
/// tables, so the run times (and counts) only the MNA layer. The stage has `3 + 6·sections` unknowns RC-only and
/// `3 + 18·sections` with inductance.
fn h_stage(sections: usize, rlc: bool) -> (Netlist, String) {
    const R_PER_UM: f64 = 1.7e-3;
    const L_PER_UM: f64 = 0.5e-12;
    const C_PER_UM: f64 = 0.2e-15;
    let tree = HTree::new(1, 4000.0)
        .expect("valid span")
        .iter()
        .next()
        .expect("one level")
        .stage_tree();
    let mut nl = Netlist::new();
    let drv_in = nl.node("drv_in");
    nl.vsource(
        "Vdrv",
        drv_in,
        GROUND,
        Waveform::ramp(0.0, 1.8, 0.0, 100e-12),
    )
    .expect("vsource");
    let root = nl.node("t0");
    nl.resistor("Rdrv", drv_in, root, 40.0).expect("driver R");
    for (e, edge) in tree.edges().iter().enumerate() {
        let len = tree.edge_length(e) / sections as f64;
        let (r, l, c_half) = (R_PER_UM * len, L_PER_UM * len, 0.5 * C_PER_UM * len);
        let mut from = nl.node(format!("t{}", edge.from));
        for s in 0..sections {
            let to = if s + 1 == sections {
                nl.node(format!("t{}", edge.to))
            } else {
                nl.node(format!("e{e}s{s}"))
            };
            nl.capacitor(&format!("C{e}s{s}a"), from, GROUND, c_half)
                .expect("C");
            if rlc {
                let mid = nl.node(format!("e{e}s{s}m"));
                nl.resistor(&format!("R{e}s{s}"), from, mid, r).expect("R");
                nl.inductor(&format!("L{e}s{s}"), mid, to, l).expect("L");
            } else {
                nl.resistor(&format!("R{e}s{s}"), from, to, r).expect("R");
            }
            nl.capacitor(&format!("C{e}s{s}b"), to, GROUND, c_half)
                .expect("C");
            from = to;
        }
    }
    let leaves = tree.leaves();
    for &leaf in &leaves {
        let node = nl.node(format!("t{leaf}"));
        nl.capacitor(&format!("Cload{leaf}"), node, GROUND, 20e-15)
            .expect("load C");
    }
    (nl, format!("t{}", leaves[0]))
}

/// Runs the transient on one backend, returning (sink trajectory, seconds).
fn run_transient(
    nl: &Netlist,
    sink: &str,
    engine: SolverEngine,
    timestep: f64,
    duration: f64,
) -> (Vec<f64>, f64) {
    let t0 = Instant::now();
    let res = Transient::new(nl)
        .engine(engine)
        .timestep(timestep)
        .duration(duration)
        .run()
        .expect("transient");
    let secs = t0.elapsed().as_secs_f64();
    (res.voltage(sink).expect("sink trace").to_vec(), secs)
}

/// Max relative disagreement, normalized by max(|reference|, 1) so deeply
/// attenuated samples compare at roundoff against the 1 V drive.
fn max_rel_err(reference: &[f64], other: &[f64]) -> f64 {
    reference
        .iter()
        .zip(other)
        .map(|(d, s)| (d - s).abs() / d.abs().max(1.0))
        .fold(0.0, f64::max)
}

fn main() {
    println!("E10: dense vs sparse MNA engine scaling on H-trees");
    println!("===================================================");
    let mut report = rlcx_bench::report("exp_mna_scaling");

    let dense_depths = [3usize, 4, 5, 6];
    let sparse_only_depths = [7usize, 8];
    let mut agree_trans = 0.0f64;
    let mut speedup_deepest = 0.0f64;

    println!(
        "\n{:>6} {:>8} {:>12} {:>12} {:>9} {:>12}",
        "depth", "dim", "dense (ms)", "sparse (ms)", "speedup", "max rel err"
    );
    for &depth in &dense_depths {
        let (nl, sink) = h_tree(depth);
        let (vd, td) = run_transient(&nl, &sink, SolverEngine::Dense, TIMESTEP, DURATION);
        let (vs, ts) = run_transient(&nl, &sink, SolverEngine::Sparse, TIMESTEP, DURATION);
        let dim = obs::metric_value("spice.mna.dim")
            .map(|m| m.as_f64())
            .unwrap_or(f64::NAN);
        let err = max_rel_err(&vd, &vs);
        agree_trans = agree_trans.max(err);
        let speedup = td / ts;
        speedup_deepest = speedup; // last iteration = deepest shared depth
        println!(
            "{depth:>6} {dim:>8.0} {:>12.3} {:>12.3} {speedup:>8.1}x {err:>12.2e}",
            td * 1e3,
            ts * 1e3
        );
        report.figure(format!("trans.dense.s.depth{depth}"), td);
        report.figure(format!("trans.sparse.s.depth{depth}"), ts);
    }
    for &depth in &sparse_only_depths {
        let (nl, sink) = h_tree(depth);
        let (_, ts) = run_transient(&nl, &sink, SolverEngine::Sparse, TIMESTEP, DURATION);
        let dim = obs::metric_value("spice.mna.dim")
            .map(|m| m.as_f64())
            .unwrap_or(f64::NAN);
        println!(
            "{depth:>6} {dim:>8.0} {:>12} {:>12.3} {:>9} {:>12}",
            "—",
            ts * 1e3,
            "—",
            "—"
        );
        report.figure(format!("trans.sparse.s.depth{depth}"), ts);
    }

    // Pattern statistics from the deepest sparse assembly just run.
    let nnz = obs::metric_value("spice.mna.nnz")
        .map(|m| m.as_f64())
        .unwrap_or(f64::NAN);
    let dim = obs::metric_value("spice.mna.dim")
        .map(|m| m.as_f64())
        .unwrap_or(f64::NAN);
    let fill = match obs::metric_value("sparse.lu.fill") {
        Some(MetricValue::Histogram { max, .. }) => max,
        _ => f64::NAN,
    };

    // One buffer stage at the sizes the skew flow simulates, on its time
    // axis (0.5 ps steps over 3 ns). Dense and sparse runs alternate so
    // host drift hits both alike; each figure is a median.
    const STAGE_REPS: usize = 11;
    println!(
        "\nclock stages (median of {STAGE_REPS} interleaved runs, 6000 steps)\n{:>6} {:>5} {:>12} {:>12} {:>9} {:>12}",
        "dim", "kind", "dense (ms)", "sparse (ms)", "speedup", "max rel err"
    );
    for (sections, rlc) in [(1, false), (2, false), (1, true), (2, true), (4, true)] {
        let (nl, sink) = h_stage(sections, rlc);
        let dim = nl.node_count() - 1 + nl.inductor_count() + 1;
        let (mut td, mut ts) = (Vec::new(), Vec::new());
        let mut err = 0.0f64;
        for _ in 0..STAGE_REPS {
            let (vd, d) = run_transient(&nl, &sink, SolverEngine::Dense, 0.5e-12, 3e-9);
            let (vs, s) = run_transient(&nl, &sink, SolverEngine::Sparse, 0.5e-12, 3e-9);
            err = err.max(max_rel_err(&vd, &vs));
            td.push(d);
            ts.push(s);
        }
        let (td, ts) = (percentile(&td, 50.0), percentile(&ts, 50.0));
        agree_trans = agree_trans.max(err);
        println!(
            "{dim:>6} {:>5} {:>12.3} {:>12.3} {:>8.2}x {err:>12.2e}",
            if rlc { "RLC" } else { "RC" },
            td * 1e3,
            ts * 1e3,
            td / ts
        );
        report.figure(format!("trans.dense.s.dim{dim}"), td);
        report.figure(format!("trans.sparse.s.dim{dim}"), ts);
    }

    // AC backend agreement at a mid-size depth; the sparse path refactors
    // numerically per frequency on a frozen symbolic pattern.
    let ac_depth = 4usize;
    let (nl, sink) = h_tree(ac_depth);
    let sweep = Sweep::log(1e8, 5e10, 12);
    let ac = |engine: SolverEngine| {
        Ac::new(&nl)
            .sweep(sweep)
            .engine(engine)
            .run()
            .expect("ac sweep")
    };
    let ac_dense = ac(SolverEngine::Dense);
    let ac_sparse = ac(SolverEngine::Sparse);
    let agree_ac = ac_dense
        .voltage(&sink)
        .expect("sink")
        .iter()
        .zip(ac_sparse.voltage(&sink).expect("sink"))
        .map(|(d, s)| (*d - *s).abs() / d.abs().max(1.0))
        .fold(0.0, f64::max);

    println!("\ntransient backend agreement: {agree_trans:.2e} max rel err");
    println!("AC backend agreement (depth {ac_depth}, 12 pts): {agree_ac:.2e} max rel err");
    println!(
        "sparse speedup at depth {}: {speedup_deepest:.1}x",
        dense_depths[dense_depths.len() - 1]
    );
    println!(
        "deepest tree: {nnz:.0} nonzeros / {dim:.0} unknowns = {:.2} per row, LU fill {fill:.2}x",
        nnz / dim
    );
    println!(
        "→ tree-structured MNA stays O(n) under minimum-degree ordering; dense factor does not."
    );

    report.figure("agree.trans.max_rel_err", agree_trans);
    report.figure("agree.ac.max_rel_err", agree_ac);
    report.figure("speedup.factor_step_total", speedup_deepest);
    report.figure("sparse.fill_ratio", fill);
    report.figure("mna.nnz_per_unknown", nnz / dim);
    rlcx_bench::finish_report(report);
}
