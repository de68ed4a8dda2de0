//! `fieldsolve`: multi-port filament impedance solves on the automatic
//! backend, checked for reciprocity and passivity and against the dense
//! backend.

use crate::ops::{FieldGeom, FieldOp};
use crate::trace::span;
use rlcx_geom::units::RHO_COPPER;
use rlcx_geom::{Axis, Bar, Point3};
use rlcx_numeric::CMatrix;
use rlcx_peec::{Conductor, MeshSpec, PartialSystem, SolverBackend};

/// Height of the trace layer (µm).
const TRACE_Z: f64 = 10.0;

/// The op's conductors; the first `traces` are meshed with the trace mesh,
/// the rest (plane strips) with the strip mesh.
pub fn system(op: &FieldOp) -> Result<(PartialSystem, usize), String> {
    let bar = |y: f64, z: f64, w: f64| -> Result<Conductor, String> {
        let b = Bar::new(Point3::new(0.0, y, z), Axis::X, op.length, w, op.thickness)
            .map_err(|e| e.to_string())?;
        Conductor::new(b, RHO_COPPER).map_err(|e| e.to_string())
    };
    let mut sys = PartialSystem::new();
    let traces = match &op.geom {
        FieldGeom::Coplanar { traces } | FieldGeom::Bundle { traces } => traces,
        FieldGeom::Microstrip { traces, .. } => traces,
    };
    for &(y, w) in traces {
        sys.push(bar(y, TRACE_Z, w)?);
    }
    if let FieldGeom::Microstrip {
        plane_width,
        strips,
        height,
        ..
    } = op.geom
    {
        let strip_w = plane_width / strips as f64;
        let z = TRACE_Z - height - op.thickness;
        for k in 0..strips {
            sys.push(bar(k as f64 * strip_w, z, strip_w)?);
        }
    }
    Ok((sys, traces.len()))
}

/// Total filaments of the op.
pub fn filaments(op: &FieldOp) -> usize {
    let (t, s) = (op.mesh.0 * op.mesh.1, op.strip_mesh.0 * op.strip_mesh.1);
    match &op.geom {
        FieldGeom::Coplanar { traces } | FieldGeom::Bundle { traces } => traces.len() * t,
        FieldGeom::Microstrip { traces, strips, .. } => traces.len() * t + strips * s,
    }
}

fn solve(
    op: &FieldOp,
    sys: &PartialSystem,
    traces: usize,
    backend: SolverBackend,
) -> Result<CMatrix, String> {
    let (mesh, strip) = (
        MeshSpec::new(op.mesh.0, op.mesh.1),
        MeshSpec::new(op.strip_mesh.0, op.strip_mesh.1),
    );
    sys.impedance_at_with_backend(
        op.frequency,
        |i| if i < traces { mesh } else { strip },
        backend,
    )
    .map_err(|e| e.to_string())
}

/// The facade op: build the conductors, solve on `SolverBackend::Auto`.
pub fn facade(op: &FieldOp) -> Result<CMatrix, String> {
    let (sys, traces) = system(op)?;
    solve(op, &sys, traces, SolverBackend::Auto)
}

/// The same op with its two layers spanned.
pub fn decomposed(op: &FieldOp) -> Result<CMatrix, String> {
    let (sys, traces) = span("geom", || system(op))?;
    span("peec.solve", || {
        solve(op, &sys, traces, SolverBackend::Auto)
    })
}

/// Every entry, as bits, for the bit-identity assertion.
pub fn bits(z: &CMatrix) -> Vec<u64> {
    let mut out = Vec::with_capacity(2 * z.rows() * z.cols());
    for i in 0..z.rows() {
        for j in 0..z.cols() {
            out.push(z[(i, j)].re.to_bits());
            out.push(z[(i, j)].im.to_bits());
        }
    }
    out
}

/// Reciprocity tolerance relative to the largest entry: the iterative
/// backend agrees with dense to 1e-9, so an asymmetry beyond it is a fault.
const RECIPROCITY_TOL: f64 = 1e-9;

/// Output checks: square with one port per conductor, all entries finite,
/// reciprocal (Z = Zᵀ) and with a positive real diagonal.
pub fn check(op: &FieldOp, z: &CMatrix) -> Result<(), String> {
    let (sys, _) = system(op)?;
    let n = sys.len();
    if z.rows() != n || z.cols() != n {
        return Err(format!("Z is {}×{} for {n} conductors", z.rows(), z.cols()));
    }
    let mut scale = 0.0f64;
    for i in 0..n {
        for j in 0..n {
            let v = z[(i, j)];
            if !(v.re.is_finite() && v.im.is_finite()) {
                return Err(format!("non-finite Z[{i},{j}]"));
            }
            scale = scale.max(v.abs());
        }
    }
    for i in 0..n {
        if z[(i, i)].re <= 0.0 {
            return Err(format!("Re Z[{i},{i}] = {} is not positive", z[(i, i)].re));
        }
        for j in 0..i {
            let asym = (z[(i, j)] - z[(j, i)]).abs() / scale;
            if asym > RECIPROCITY_TOL {
                return Err(format!("Z not reciprocal at ({i},{j}): {asym:e}"));
            }
        }
    }
    Ok(())
}

/// Worst entry difference against the dense backend, relative to the
/// largest dense entry.
pub fn reference_error(op: &FieldOp, z: &CMatrix) -> Result<f64, String> {
    let (sys, traces) = system(op)?;
    let dense = solve(op, &sys, traces, SolverBackend::Dense)?;
    let mut scale = 0.0f64;
    let mut err = 0.0f64;
    for i in 0..dense.rows() {
        for j in 0..dense.cols() {
            scale = scale.max(dense[(i, j)].abs());
        }
    }
    for i in 0..dense.rows() {
        for j in 0..dense.cols() {
            err = err.max((dense[(i, j)] - z[(i, j)]).abs() / scale);
        }
    }
    Ok(err)
}

/// Fixed warm-up solve run during set-up: starts the worker pool and fills
/// the process-wide quadrature rules before anything is timed.
pub fn warmup() -> Result<(), String> {
    facade(&FieldOp {
        kind: "cpw",
        geom: FieldGeom::Coplanar {
            traces: vec![(0.0, 5.0), (6.0, 10.0), (17.0, 5.0)],
        },
        length: 1000.0,
        thickness: 2.0,
        mesh: (12, 12),
        strip_mesh: (1, 1),
        frequency: 3.2e9,
    })
    .map(|_| ())
}
