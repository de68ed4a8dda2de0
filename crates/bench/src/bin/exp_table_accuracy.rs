//! E6 — the headline "efficient yet accurate": table + bi-cubic spline
//! lookup versus a direct field solve, in accuracy and speed.
//!
//! Random geometries inside (and slightly outside) the characterized grid:
//! relative error of the table lookup against a fresh PEEC solve, and the
//! wall-clock ratio between a lookup and a solve. The tables come through
//! the persistent cache, so the run also reports the cold-build stage
//! breakdown (or the warm-cache load time on repeat runs).

use rlcx::geom::units::RHO_COPPER;
use rlcx::geom::{Axis, Bar, Point3};
use rlcx::numeric::rng::{SplitMix64, UniformRng};
use rlcx::peec::{Conductor, MeshSpec, PartialSystem};
use rlcx_bench::{stackup, F_SIG};
use std::time::Instant;

fn direct_self(w: f64, len: f64, mesh: MeshSpec) -> f64 {
    let layer = stackup();
    let layer = layer.layer(rlcx_bench::CLOCK_LAYER).expect("layer");
    let bar = Bar::new(
        Point3::new(0.0, 0.0, layer.z_bottom()),
        Axis::X,
        len,
        w,
        layer.thickness(),
    )
    .expect("bar");
    let sys: PartialSystem = [Conductor::new(bar, RHO_COPPER).expect("rho")]
        .into_iter()
        .collect();
    let (_, l) = sys.rl_at(F_SIG, mesh).expect("solve");
    l[(0, 0)]
}

fn direct_mutual(w1: f64, w2: f64, s: f64, len: f64, mesh: MeshSpec) -> f64 {
    let layer = stackup();
    let layer = layer.layer(rlcx_bench::CLOCK_LAYER).expect("layer");
    let z = layer.z_bottom();
    let a = Bar::new(
        Point3::new(0.0, 0.0, z),
        Axis::X,
        len,
        w1,
        layer.thickness(),
    )
    .expect("bar");
    let b = Bar::new(
        Point3::new(0.0, w1 + s, z),
        Axis::X,
        len,
        w2,
        layer.thickness(),
    )
    .expect("bar");
    let sys: PartialSystem = [
        Conductor::new(a, RHO_COPPER).expect("rho"),
        Conductor::new(b, RHO_COPPER).expect("rho"),
    ]
    .into_iter()
    .collect();
    let (_, l) = sys.rl_at(F_SIG, mesh).expect("solve");
    l[(0, 1)]
}

fn main() {
    println!("E6: table lookup vs direct field solve — accuracy and speed");
    println!("============================================================");
    let mut report = rlcx_bench::report("exp_table_accuracy");
    let t0 = Instant::now();
    let build = rlcx_bench::experiment_tables_cached();
    let t_build = t0.elapsed();
    println!(
        "table characterization: {:.2} s ({})\n",
        t_build.as_secs_f64(),
        if build.cache_hit {
            "warm cache — solver skipped"
        } else {
            "cold — full solve"
        }
    );
    report.note("cache", if build.cache_hit { "hit" } else { "miss" });
    report.figure("table.build_s", t_build.as_secs_f64());
    let tables = build.tables;

    let mesh = MeshSpec::new(3, 2);
    let mut rng = SplitMix64::new(2000);
    let n = 40;

    // Self-L accuracy.
    let mut worst: f64 = 0.0;
    let mut mean = 0.0;
    for _ in 0..n {
        let w = rng.uniform(1.0, 20.0);
        let len = rng.uniform(100.0, 6400.0);
        let table = tables.self_l.lookup(w, len);
        let direct = direct_self(w, len, mesh);
        let rel = (table - direct).abs() / direct;
        worst = worst.max(rel);
        mean += rel / n as f64;
    }
    println!(
        "self-L over {n} random in-grid points: mean err {:.2}%, worst {:.2}%",
        mean * 100.0,
        worst * 100.0
    );
    report.figure("self_l.mean_rel_err", mean);
    report.figure("self_l.max_rel_err", worst);

    // Mutual-L accuracy.
    let mut worst_m: f64 = 0.0;
    let mut mean_m = 0.0;
    for _ in 0..n {
        let w1 = rng.uniform(1.0, 20.0);
        let w2 = rng.uniform(1.0, 20.0);
        let s = rng.uniform(0.5, 5.0);
        let len = rng.uniform(100.0, 6400.0);
        let table = tables.mutual_l.lookup(w1, w2, s, len);
        let direct = direct_mutual(w1, w2, s, len, mesh);
        let rel = (table - direct).abs() / direct;
        worst_m = worst_m.max(rel);
        mean_m += rel / n as f64;
    }
    println!(
        "mutual-L over {n} random in-grid points: mean err {:.2}%, worst {:.2}%",
        mean_m * 100.0,
        worst_m * 100.0
    );
    report.figure("mutual_l.mean_rel_err", mean_m);
    report.figure("mutual_l.max_rel_err", worst_m);

    // Extrapolation sanity just beyond the grid (paper: spline extrapolates).
    let l_in = tables.self_l.lookup(20.0, 6400.0);
    let l_out = tables.self_l.lookup(20.0, 7400.0);
    let direct_out = direct_self(20.0, 7400.0, mesh);
    println!(
        "extrapolation to 7400 um: table {:.4} nH vs direct {:.4} nH ({:.2}% err; grid edge was {:.4} nH)",
        l_out * 1e9,
        direct_out * 1e9,
        (l_out - direct_out).abs() / direct_out * 100.0,
        l_in * 1e9
    );
    report.figure(
        "self_l.extrapolation_rel_err",
        (l_out - direct_out).abs() / direct_out,
    );

    // Speed: lookups vs direct solves.
    let m = 20_000;
    let t0 = Instant::now();
    let mut acc = 0.0;
    for i in 0..m {
        let w = 1.0 + (i % 19) as f64;
        let len = 100.0 + (i % 6300) as f64;
        acc += tables.self_l.lookup(w, len);
    }
    let t_lookup = t0.elapsed().as_secs_f64() / m as f64;
    let t0 = Instant::now();
    let k = 10;
    for i in 0..k {
        acc += direct_mutual(5.0, 5.0 + i as f64, 1.0, 3200.0, mesh);
    }
    let t_solve = t0.elapsed().as_secs_f64() / k as f64;
    println!(
        "\nlookup: {:.2} us/query; direct 2-trace solve: {:.2} ms → speedup {:.0}x (checksum {:.3e})",
        t_lookup * 1e6,
        t_solve * 1e3,
        t_solve / t_lookup,
        acc
    );
    report.figure("lookup.us_per_query", t_lookup * 1e6);
    report.figure("solve.ms_per_solve", t_solve * 1e3);
    report.figure("lookup.speedup", t_solve / t_lookup);
    rlcx_bench::finish_report(report);
}
