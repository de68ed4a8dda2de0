//! `characterize`: cold table builds, checks and the table-vs-solver
//! reference.

use crate::ops::CharJob;
use crate::trace::span;
use rlcx_core::{InductanceTables, LoopLTable, MutualLTable, SelfLTable, TableBuilder};
use rlcx_geom::{Axis, Bar, Block, Point3, ShieldConfig, Stackup};
use rlcx_numeric::par_map;
use rlcx_numeric::parallel::balanced_index;
use rlcx_peec::{BlockExtractor, Conductor, MeshSpec, PartialSystem, SolverBackend};

/// Plane strips and loop geometry: the `TableBuilder` defaults, which the
/// facade path leaves unchanged.
const PLANE_STRIPS: usize = 10;
const GROUND_WIDTH_RATIO: f64 = 1.0;
const LOOP_SPACING: f64 = 1.0;

fn stackup() -> Stackup {
    Stackup::hp_six_metal_copper()
}

fn mesh(job: &CharJob) -> MeshSpec {
    MeshSpec::new(job.mesh.0, job.mesh.1)
}

/// The facade op: one cold `TableBuilder::build()`.
pub fn facade(job: &CharJob) -> Result<InductanceTables, String> {
    TableBuilder::new(stackup(), job.layer)
        .and_then(|b| {
            b.widths(job.widths.clone())
                .spacings(job.spacings.clone())
                .lengths(job.lengths.clone())
                .shields(job.shields.clone())
                .mesh(mesh(job))
                .frequency(job.frequency())
                .build()
        })
        .map_err(|e| e.to_string())
}

/// The same build decomposed into the public calls the builder makes:
/// per-point `peec` solves fanned out over the worker pool, then the
/// `from_grid` fits.
pub fn decomposed(job: &CharJob) -> Result<InductanceTables, String> {
    let stack = stackup();
    let layer = stack.layer(job.layer).map_err(|e| e.to_string())?;
    let (rho, t, z) = (layer.resistivity(), layer.thickness(), layer.z_bottom());
    let (f, mesh) = (job.frequency(), mesh(job));
    let (nw, ns, nl) = (job.widths.len(), job.spacings.len(), job.lengths.len());

    let self_points = span("peec.sweep", || {
        par_map(nw * nl, |p| {
            span("peec.solve", || {
                let bar = Bar::new(
                    Point3::new(0.0, 0.0, z),
                    Axis::X,
                    job.lengths[p % nl],
                    job.widths[p / nl],
                    t,
                )
                .map_err(|e| e.to_string())?;
                let sys: PartialSystem = [Conductor::new(bar, rho).map_err(|e| e.to_string())?]
                    .into_iter()
                    .collect();
                let (_, l) = sys
                    .rl_at_backend(f, mesh, SolverBackend::Auto)
                    .map_err(|e| e.to_string())?;
                Ok::<f64, String>(l[(0, 0)])
            })
        })
    });
    let self_grid = rows(self_points, nl)?;
    let self_l = span("core.table.fit", || {
        SelfLTable::from_grid(job.widths.clone(), job.lengths.clone(), self_grid)
    })
    .map_err(|e| e.to_string())?;

    let pairs: Vec<(usize, usize)> = (0..nw).flat_map(|i| (i..nw).map(move |j| (i, j))).collect();
    // The builder interleaves the mutual sweep through `balanced_index` so
    // every worker draws a mix of cheap and expensive solves.
    let n_mutual = pairs.len() * ns * nl;
    let mutual_points = span("peec.sweep", || {
        par_map(n_mutual, |k| {
            span("peec.solve", || {
                let p = balanced_index(k, n_mutual);
                let (i, j) = pairs[p / (ns * nl)];
                let (s, len) = (job.spacings[p / nl % ns], job.lengths[p % nl]);
                let a = Bar::new(Point3::new(0.0, 0.0, z), Axis::X, len, job.widths[i], t);
                let b = Bar::new(
                    Point3::new(0.0, job.widths[i] + s, z),
                    Axis::X,
                    len,
                    job.widths[j],
                    t,
                );
                let sys: PartialSystem = [a, b]
                    .into_iter()
                    .map(|bar| {
                        Conductor::new(bar.map_err(|e| e.to_string())?, rho)
                            .map_err(|e| e.to_string())
                    })
                    .collect::<Result<_, String>>()?;
                let (_, l) = sys
                    .rl_at_backend(f, mesh, SolverBackend::Auto)
                    .map_err(|e| e.to_string())?;
                Ok::<(usize, f64), String>((p, l[(0, 1)]))
            })
        })
    });
    let mut points = vec![0.0f64; n_mutual];
    for item in mutual_points {
        let (p, v) = item?;
        points[p] = v;
    }
    let mut mutual_grid = vec![vec![Vec::<Vec<f64>>::new(); nw]; nw];
    for (k, &(i, j)) in pairs.iter().enumerate() {
        let per_spacing: Vec<Vec<f64>> = (0..ns)
            .map(|s| points[(k * ns + s) * nl..(k * ns + s + 1) * nl].to_vec())
            .collect();
        mutual_grid[i][j] = per_spacing.clone();
        mutual_grid[j][i] = per_spacing;
    }
    let mutual_l = span("core.table.fit", || {
        MutualLTable::from_grid(
            job.widths.clone(),
            job.spacings.clone(),
            job.lengths.clone(),
            mutual_grid,
        )
    })
    .map_err(|e| e.to_string())?;

    let extractor = BlockExtractor::new(stack.clone(), job.layer)
        .map_err(|e| e.to_string())?
        .frequency(f)
        .mesh(mesh)
        .plane_strips(PLANE_STRIPS)
        .backend(SolverBackend::Auto);
    let mut loops = Vec::with_capacity(job.shields.len());
    for &shield in &job.shields {
        let loop_points = span("peec.sweep", || {
            par_map(nw * nl, |p| {
                span("peec.solve", || {
                    let w = job.widths[p / nl];
                    let block = Block::coplanar_waveguide(
                        job.lengths[p % nl],
                        w,
                        w * GROUND_WIDTH_RATIO,
                        LOOP_SPACING,
                    )
                    .map_err(|e| e.to_string())?
                    .with_shield(shield);
                    let out = extractor.extract(&block).map_err(|e| e.to_string())?;
                    Ok::<(f64, f64), String>((out.loop_l[(0, 0)], out.loop_r[(0, 0)]))
                })
            })
        });
        let grid = rows(loop_points, nl)?;
        let l = grid
            .iter()
            .map(|r| r.iter().map(|p| p.0).collect())
            .collect();
        let r = grid
            .iter()
            .map(|r| r.iter().map(|p| p.1).collect())
            .collect();
        loops.push(
            span("core.table.fit", || {
                LoopLTable::from_grid(
                    shield,
                    GROUND_WIDTH_RATIO,
                    LOOP_SPACING,
                    job.widths.clone(),
                    job.lengths.clone(),
                    l,
                    r,
                )
            })
            .map_err(|e| e.to_string())?,
        );
    }
    Ok(InductanceTables::new(self_l, mutual_l, loops, f))
}

fn rows<T>(points: Vec<Result<T, String>>, per_row: usize) -> Result<Vec<Vec<T>>, String> {
    let mut it = points.into_iter();
    let mut out = Vec::new();
    loop {
        let row: Vec<T> = it.by_ref().take(per_row).collect::<Result<_, _>>()?;
        if row.is_empty() {
            return Ok(out);
        }
        out.push(row);
    }
}

/// Every characterized number, as bits, for the bit-identity assertion.
pub fn bits(t: &InductanceTables) -> Vec<u64> {
    let mut out = vec![t.frequency.to_bits()];
    out.extend(t.self_l.grid().iter().flatten().map(|v| v.to_bits()));
    out.extend(
        t.mutual_l
            .grid()
            .iter()
            .flatten()
            .flatten()
            .flatten()
            .map(|v| v.to_bits()),
    );
    for lt in t.loop_tables() {
        out.extend(lt.l_grid().iter().flatten().map(|v| v.to_bits()));
        out.extend(lt.r_grid().iter().flatten().map(|v| v.to_bits()));
    }
    out
}

/// Output checks: finite positive values, every table increasing in
/// length, and |M| < √(L₁L₂) for every mutual entry.
pub fn check(job: &CharJob, t: &InductanceTables) -> Result<(), String> {
    let increasing = |what: &str, row: &[f64]| -> Result<(), String> {
        if row.iter().any(|v| !(v.is_finite() && *v > 0.0)) {
            return Err(format!(
                "{what}: non-positive or non-finite entry in {row:?}"
            ));
        }
        if row.windows(2).any(|p| p[1] <= p[0]) {
            return Err(format!("{what}: not increasing in length: {row:?}"));
        }
        Ok(())
    };
    let self_grid = t.self_l.grid();
    if self_grid.len() != job.widths.len() {
        return Err("self table has the wrong number of widths".into());
    }
    for row in self_grid {
        increasing("self L", row)?;
    }
    for (i, by_w2) in t.mutual_l.grid().iter().enumerate() {
        for (j, by_s) in by_w2.iter().enumerate() {
            for row in by_s {
                increasing("mutual L", row)?;
                for (k, m) in row.iter().enumerate() {
                    let bound = (self_grid[i][k] * self_grid[j][k]).sqrt();
                    if m.abs() >= bound {
                        return Err(format!("|M| = {m} ≥ √(L₁L₂) = {bound} at w{i}, w{j}, l{k}"));
                    }
                }
            }
        }
    }
    if t.loop_tables().len() != job.shields.len() {
        return Err("missing loop table".into());
    }
    for lt in t.loop_tables() {
        for row in lt.l_grid() {
            increasing("loop L", row)?;
        }
        for row in lt.r_grid() {
            increasing("loop R", row)?;
        }
    }
    Ok(())
}

/// Reference check: the table's spline lookup at the midpoints of every
/// (width, length) cell against a direct solve there, for the self table
/// and the coplanar loop table; plus a direct solve at one grid knot,
/// which must equal the stored value exactly. Returns the worst relative
/// lookup error.
pub fn reference_error(job: &CharJob, t: &InductanceTables) -> Result<f64, String> {
    let stack = stackup();
    let layer = stack.layer(job.layer).map_err(|e| e.to_string())?;
    let (rho, th, z) = (layer.resistivity(), layer.thickness(), layer.z_bottom());
    let (f, mesh) = (job.frequency(), mesh(job));
    let direct_self = |w: f64, len: f64| -> Result<f64, String> {
        let bar =
            Bar::new(Point3::new(0.0, 0.0, z), Axis::X, len, w, th).map_err(|e| e.to_string())?;
        let sys: PartialSystem = [Conductor::new(bar, rho).map_err(|e| e.to_string())?]
            .into_iter()
            .collect();
        let (_, l) = sys
            .rl_at_backend(f, mesh, SolverBackend::Auto)
            .map_err(|e| e.to_string())?;
        Ok(l[(0, 0)])
    };
    let knot = direct_self(job.widths[0], job.lengths[0])?;
    if knot.to_bits() != t.self_l.grid()[0][0].to_bits() {
        return Err(format!(
            "direct solve {knot} differs from the stored knot {}",
            t.self_l.grid()[0][0]
        ));
    }
    let extractor = BlockExtractor::new(stack.clone(), job.layer)
        .map_err(|e| e.to_string())?
        .frequency(f)
        .mesh(mesh)
        .plane_strips(PLANE_STRIPS);
    let coplanar = t
        .loop_table(ShieldConfig::Coplanar)
        .map_err(|e| e.to_string())?;
    let mut worst = 0.0f64;
    for wp in job.widths.windows(2) {
        for lp in job.lengths.windows(2) {
            let (w, len) = (0.5 * (wp[0] + wp[1]), 0.5 * (lp[0] + lp[1]));
            let direct = direct_self(w, len)?;
            worst = worst.max((t.self_l.lookup(w, len) - direct).abs() / direct);
            let block = Block::coplanar_waveguide(len, w, w * GROUND_WIDTH_RATIO, LOOP_SPACING)
                .map_err(|e| e.to_string())?;
            let direct = extractor.extract(&block).map_err(|e| e.to_string())?.loop_l[(0, 0)];
            worst = worst.max((coplanar.lookup_l(w, len) - direct).abs() / direct);
        }
    }
    Ok(worst)
}

/// Fixed warm-up job run during set-up: starts the worker pool and fills
/// the process-wide quadrature rules before anything is timed.
pub fn warmup() -> Result<(), String> {
    facade(&CharJob {
        kind: "grid_fine",
        layer: 5,
        rise: 100e-12,
        mesh: (3, 2),
        widths: vec![2.0, 5.0, 10.0],
        spacings: vec![0.5, 1.0, 2.0],
        lengths: vec![200.0, 800.0, 1600.0, 6400.0],
        shields: vec![ShieldConfig::Coplanar, ShieldConfig::PlaneBelow],
    })
    .map(|_| ())
}
