//! E10 (engine scaling) — dense vs sparse MNA as the clocktree grows.
//!
//! The transient and AC engines share one MNA formulation but can factor
//! it densely (O(n³)) or with the fill-reducing sparse LU. Clocktree
//! matrices are nearly tree-structured, so sparse factor + solve should
//! scale almost linearly while dense blows up cubically. This experiment
//! sweeps H-tree depth, times both backends on identical netlists, checks
//! they agree to solver precision, and records the crossover evidence the
//! `SPARSE_CUTOVER` constant claims.
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

/// Runs the transient on one backend, returning (sink trajectory, seconds).
fn run_transient(nl: &Netlist, sink: &str, engine: SolverEngine) -> (Vec<f64>, f64) {
    let t0 = Instant::now();
    let res = Transient::new(nl)
        .engine(engine)
        .timestep(TIMESTEP)
        .duration(DURATION)
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
        let (vd, td) = run_transient(&nl, &sink, SolverEngine::Dense);
        let (vs, ts) = run_transient(&nl, &sink, SolverEngine::Sparse);
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
        let (_, ts) = run_transient(&nl, &sink, SolverEngine::Sparse);
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
