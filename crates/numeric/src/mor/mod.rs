//! PRIMA-style passive model-order reduction.
//!
//! A clocktree is characterized once and then queried millions of times;
//! this module shrinks the MNA system `(G + sC)x = Bu`, `y = Lᵀx` to a
//! small congruence-projected model that answers those queries in closed
//! form:
//!
//! * [`block_arnoldi`] — a block Arnoldi process on `A = K⁻¹C` (with
//!   `K = G + s₀C`) that builds an orthonormal basis `V` of the Krylov
//!   space, with two-pass modified Gram–Schmidt reorthogonalization and
//!   deflation of rank-deficient block columns,
//! * [`project`] — the PRIMA congruence transform `Ĉ = VᵀCV`,
//!   `Ĝ = VᵀGV`, `B̂ = VᵀB`, `L̂ = VᵀL` into a [`ReducedSystem`]. When
//!   `C ⪰ 0` and `G + Gᵀ ⪰ 0` (the passive MNA form the spice layer
//!   exports), the congruence preserves both properties, so the reduced
//!   model is passive *by construction* — no post-hoc pole flipping,
//! * [`ReducedSystem::pole_residue`] — a dense eigensolve of the reduced
//!   pencil ([`eig`]) that converts the state-space macromodel into a
//!   [`PoleResidueModel`], whose piecewise-linear-input responses are
//!   analytic (the `response` module): 50 % delay and slew come from a bisection
//!   on an exact expression, not from time stepping.
//!
//! Moment matching: with `q` Arnoldi vectors the projection matches the
//! first `q` block moments of the transfer function about `s₀`
//! (single-input PRIMA matches one moment per basis vector); callers that
//! need the first `2q` moments matched build the basis with `2q` vectors.

pub mod eig;
mod response;

pub use response::{PoleResidueModel, Pwl};

use crate::lu::{CLuDecomposition, LuDecomposition};
use crate::{obs, CMatrix, Complex, CscMatrix, Matrix, NumericError, Result};

/// An orthonormal Krylov basis produced by [`block_arnoldi`].
#[derive(Debug, Clone)]
pub struct ArnoldiBasis {
    /// Basis vectors (columns of `V`), each of full-system length.
    pub vectors: Vec<Vec<f64>>,
    /// Number of candidate columns dropped as linearly dependent.
    pub deflations: usize,
}

impl ArnoldiBasis {
    /// Number of basis vectors (the reduced order).
    pub fn order(&self) -> usize {
        self.vectors.len()
    }

    /// Largest off-identity entry of `VᵀV` — the orthonormality defect.
    pub fn orthonormality_defect(&self) -> f64 {
        let k = self.vectors.len();
        let mut worst: f64 = 0.0;
        for i in 0..k {
            for j in i..k {
                let d = dot(&self.vectors[i], &self.vectors[j]);
                let target = if i == j { 1.0 } else { 0.0 };
                worst = worst.max((d - target).abs());
            }
        }
        worst
    }
}

/// Relative storage energy `|x*Ĉx|/‖Ĉ‖` below which an eigenmode of the
/// reduced pencil is classified as storage-free (instantaneous) in
/// [`ReducedSystem::pole_residue`]. Physical modes keep storage energies
/// many orders above this (≳1e−6 relative on clocktree pencils) while
/// the round-off images of ideal-source constraint rows sit at ≲1e−15,
/// so the split is unambiguous.
pub const C_NULLSPACE_REL: f64 = 1e-12;

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Builds an orthonormal basis of the block Krylov space
/// `span{R, AR, A²R, …}` where `R` is the `start` block and `apply`
/// computes `w = A·v` (for PRIMA, `A = (G + s₀C)⁻¹C` via a sparse-LU
/// solve). Stops at `max_order` vectors or on breakdown (an entire block
/// deflates), whichever comes first.
///
/// Each candidate is orthogonalized against the accepted basis with two
/// passes of modified Gram–Schmidt; a candidate whose norm collapses
/// below `defl_tol` times its pre-orthogonalization norm (or that is
/// exactly zero, e.g. a rank-deficient column of `B`) is deflated rather
/// than normalized, so dependent inputs never panic or poison the basis.
/// Deflations are counted on the `mor.arnoldi.deflations` metric.
///
/// # Errors
///
/// * [`NumericError::InvalidArgument`] for an empty start block,
///   mismatched column lengths, or `max_order == 0`.
/// * [`NumericError::InsufficientData`] if every start column deflates
///   (a structurally zero input).
/// * Propagates errors from `apply`.
pub fn block_arnoldi<F>(
    start: &[Vec<f64>],
    mut apply: F,
    max_order: usize,
    defl_tol: f64,
) -> Result<ArnoldiBasis>
where
    F: FnMut(&[f64], &mut [f64]) -> Result<()>,
{
    let n = match start.first() {
        Some(c) => c.len(),
        None => {
            return Err(NumericError::InvalidArgument {
                what: "empty Arnoldi start block".into(),
            })
        }
    };
    if n == 0 || start.iter().any(|c| c.len() != n) {
        return Err(NumericError::InvalidArgument {
            what: "Arnoldi start columns must share a positive length".into(),
        });
    }
    if max_order == 0 {
        return Err(NumericError::InvalidArgument {
            what: "reduction order must be at least 1".into(),
        });
    }
    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(max_order);
    let mut deflations = 0usize;
    let mut block: Vec<Vec<f64>> = start.to_vec();
    while !block.is_empty() && basis.len() < max_order {
        let mut survivors: Vec<usize> = Vec::with_capacity(block.len());
        for mut w in block.drain(..) {
            let orig = norm(&w);
            if orig <= 0.0 || !orig.is_finite() {
                deflations += 1;
                obs::series_push("mor.deflation", basis.len() as f64, 0.0);
                continue;
            }
            for _ in 0..2 {
                for v in &basis {
                    let h = dot(v, &w);
                    for (wi, vi) in w.iter_mut().zip(v) {
                        *wi -= h * vi;
                    }
                }
            }
            let nrm = norm(&w);
            if nrm <= defl_tol * orig {
                deflations += 1;
                obs::series_push("mor.deflation", basis.len() as f64, nrm / orig);
                continue;
            }
            let inv = 1.0 / nrm;
            w.iter_mut().for_each(|x| *x *= inv);
            basis.push(w);
            // Orthogonalization survival ratio per accepted basis vector:
            // values near defl_tol flag a nearly-dependent Krylov direction.
            obs::series_push("mor.ortho", basis.len() as f64, nrm / orig);
            survivors.push(basis.len() - 1);
            if basis.len() == max_order {
                break;
            }
        }
        if basis.len() >= max_order {
            break;
        }
        // Next block: one operator application per surviving direction.
        let mut next = Vec::with_capacity(survivors.len());
        for &vi in &survivors {
            let mut w = vec![0.0; n];
            apply(&basis[vi], &mut w)?;
            next.push(w);
        }
        block = next;
    }
    obs::counter_add("mor.arnoldi.deflations", deflations as u64);
    if basis.is_empty() {
        return Err(NumericError::InsufficientData {
            what: "Arnoldi start block (all columns deflated)".into(),
            needed: 1,
            got: 0,
        });
    }
    Ok(ArnoldiBasis {
        vectors: basis,
        deflations,
    })
}

/// A PRIMA-projected descriptor system `(Ĝ + sĈ)x̂ = B̂u`, `ŷ = L̂ᵀx̂`.
#[derive(Debug, Clone)]
pub struct ReducedSystem {
    /// Reduced storage matrix `Ĉ = VᵀCV` (k×k).
    pub c: Matrix,
    /// Reduced conductance matrix `Ĝ = VᵀGV` (k×k).
    pub g: Matrix,
    /// Reduced input map `B̂ = VᵀB` (k×m).
    pub b: Matrix,
    /// Reduced output map `L̂ = VᵀL` (k×p).
    pub l: Matrix,
    /// Expansion frequency the Krylov space was built about (rad/s).
    pub s0: f64,
}

/// Projects the full sparse descriptor system onto an Arnoldi basis:
/// `Ĉ = VᵀCV`, `Ĝ = VᵀGV`, `B̂ = VᵀB`, `L̂ = VᵀL`. Publishes the reduced
/// order on the `mor.order` gauge.
///
/// # Errors
///
/// Returns [`NumericError::DimensionMismatch`] when the matrices and the
/// basis disagree on the full-system dimension.
pub fn project(
    basis: &ArnoldiBasis,
    c: &CscMatrix<f64>,
    g: &CscMatrix<f64>,
    b: &Matrix,
    l: &Matrix,
    s0: f64,
) -> Result<ReducedSystem> {
    let n = basis.vectors.first().map_or(0, Vec::len);
    let k = basis.order();
    let shapes_ok = c.nrows() == n
        && c.ncols() == n
        && g.nrows() == n
        && g.ncols() == n
        && b.rows() == n
        && l.rows() == n;
    if !shapes_ok {
        return Err(NumericError::DimensionMismatch {
            expected: format!("{n}x{n} C/G and {n}-row B/L"),
            found: format!(
                "C {}x{}, G {}x{}, B {}x{}, L {}x{}",
                c.nrows(),
                c.ncols(),
                g.nrows(),
                g.ncols(),
                b.rows(),
                b.cols(),
                l.rows(),
                l.cols()
            ),
        });
    }
    let mut chat = Matrix::zeros(k, k);
    let mut ghat = Matrix::zeros(k, k);
    for j in 0..k {
        let cv = c.mul_vec(&basis.vectors[j])?;
        let gv = g.mul_vec(&basis.vectors[j])?;
        for i in 0..k {
            chat[(i, j)] = dot(&basis.vectors[i], &cv);
            ghat[(i, j)] = dot(&basis.vectors[i], &gv);
        }
    }
    let mut bhat = Matrix::zeros(k, b.cols());
    let mut lhat = Matrix::zeros(k, l.cols());
    for i in 0..k {
        let v = &basis.vectors[i];
        for jm in 0..b.cols() {
            bhat[(i, jm)] = (0..n).map(|r| v[r] * b[(r, jm)]).sum();
        }
        for jp in 0..l.cols() {
            lhat[(i, jp)] = (0..n).map(|r| v[r] * l[(r, jp)]).sum();
        }
    }
    obs::gauge_set("mor.order", k as f64);
    Ok(ReducedSystem {
        c: chat,
        g: ghat,
        b: bhat,
        l: lhat,
        s0,
    })
}

impl ReducedSystem {
    /// Reduced order (number of retained states).
    pub fn order(&self) -> usize {
        self.c.rows()
    }

    /// Number of inputs.
    pub fn inputs(&self) -> usize {
        self.b.cols()
    }

    /// Number of outputs.
    pub fn outputs(&self) -> usize {
        self.l.cols()
    }

    /// Evaluates the p×m transfer matrix `Ĥ(s) = L̂ᵀ(Ĝ + sĈ)⁻¹B̂`.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::Singular`] when `Ĝ + sĈ` is singular
    /// (`s` exactly on a pole).
    pub fn transfer(&self, s: Complex) -> Result<CMatrix> {
        self.resolvent_product(s, &self.l)
    }

    /// Evaluates the m×m input admittance `Ŷ(s) = B̂ᵀ(Ĝ + sĈ)⁻¹B̂`.
    ///
    /// For the passive MNA form (inputs stamped so that `uᵀy` is the
    /// power delivered into the network), `Re{Ŷ(jω)} ≥ 0` is the
    /// positive-realness certificate the test suite sweeps.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::Singular`] when `Ĝ + sĈ` is singular.
    pub fn admittance(&self, s: Complex) -> Result<CMatrix> {
        self.resolvent_product(s, &self.b)
    }

    fn resolvent_product(&self, s: Complex, out_map: &Matrix) -> Result<CMatrix> {
        let k = self.order();
        let mut a = CMatrix::zeros(k, k);
        for i in 0..k {
            for j in 0..k {
                a[(i, j)] = Complex::from_real(self.g[(i, j)]) + s.scale(self.c[(i, j)]);
            }
        }
        let lu = CLuDecomposition::new(&a)?;
        let m = self.b.cols();
        let p = out_map.cols();
        let mut h = CMatrix::zeros(p, m);
        let mut rhs = vec![Complex::ZERO; k];
        let mut x = vec![Complex::ZERO; k];
        for jm in 0..m {
            for (i, r) in rhs.iter_mut().enumerate() {
                *r = Complex::from_real(self.b[(i, jm)]);
            }
            lu.solve_into(&rhs, &mut x)?;
            for jp in 0..p {
                h[(jp, jm)] = (0..k).map(|r| x[r].scale(out_map[(r, jp)])).sum();
            }
        }
        Ok(h)
    }

    /// First `count` block moments of the transfer function about `s₀`:
    /// `mⱼ = L̂ᵀ(K̂⁻¹Ĉ)ʲK̂⁻¹B̂` with `K̂ = Ĝ + s₀Ĉ` (signs of the
    /// `(s − s₀)ʲ` expansion dropped — the full-system computation in the
    /// verification suite uses the identical convention, so the
    /// comparison is sign-free).
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::Singular`] when `K̂` is singular.
    pub fn moments(&self, count: usize) -> Result<Vec<Matrix>> {
        let k = self.order();
        let mut khat = self.g.clone();
        for i in 0..k {
            for j in 0..k {
                khat[(i, j)] += self.s0 * self.c[(i, j)];
            }
        }
        let lu = LuDecomposition::new(&khat)?;
        let mut r = lu.solve_matrix(&self.b)?;
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let mut m = Matrix::zeros(self.outputs(), self.inputs());
            for jp in 0..self.outputs() {
                for jm in 0..self.inputs() {
                    m[(jp, jm)] = (0..k).map(|i| self.l[(i, jp)] * r[(i, jm)]).sum();
                }
            }
            out.push(m);
            r = lu.solve_matrix(&self.c.mul(&r)?)?;
        }
        Ok(out)
    }

    /// Diagonalizes the reduced pencil into a pole/residue transfer view.
    ///
    /// With `K̂ = Ĝ + s₀Ĉ` and `A = K̂⁻¹Ĉ = X·diag(μ)·X⁻¹`, each
    /// eigenvalue `μᵢ` contributes a pole `pᵢ = s₀ − 1/μᵢ` with residue
    /// `(L̂ᵀxᵢ)(X⁻¹K̂⁻¹B̂)ᵢ/μᵢ` — *unless* the mode is storage-free.
    /// Modes with `|μ|` at numerical zero, or whose eigenvector carries
    /// no physical storage energy (`|xᵢ*Ĉxᵢ|` below [`C_NULLSPACE_REL`]
    /// relative to `‖Ĉ‖`), are instantaneous and fold into the
    /// feedthrough matrix. The storage-energy test is what keeps MNA
    /// pencils with ideal-source constraint rows well-posed: those rows
    /// carry zero storage *and* purely skew conductance, so their
    /// projected pencil eigenvalues are 0/0 — round-off places them
    /// anywhere, including the right half-plane — while every genuine
    /// mode, even a THz resonance, keeps a storage energy many orders
    /// above round-off. The count of right-half-plane poles among the
    /// retained modes is published on the `mor.poles.unstable` gauge —
    /// zero for a passive projection up to eigensolve round-off.
    ///
    /// # Errors
    ///
    /// * [`NumericError::Singular`] when `K̂` is singular or the
    ///   eigenvector matrix is defective to working precision.
    /// * [`NumericError::DidNotConverge`] if the QR iteration stalls.
    pub fn pole_residue(&self) -> Result<PoleResidueModel> {
        let k = self.order();
        let p = self.outputs();
        let m = self.inputs();
        let mut khat = self.g.clone();
        for i in 0..k {
            for j in 0..k {
                khat[(i, j)] += self.s0 * self.c[(i, j)];
            }
        }
        let klu = LuDecomposition::new(&khat)?;
        let a = klu.solve_matrix(&self.c)?;
        let eigen = eig::eigen_dense(&a)?;
        let kb = klu.solve_matrix(&self.b)?;
        // W = X⁻¹·K̂⁻¹B̂ (k×m), solved column by column.
        let xlu = CLuDecomposition::new(&eigen.vectors)?;
        let mut w = CMatrix::zeros(k, m);
        let mut rhs = vec![Complex::ZERO; k];
        let mut x = vec![Complex::ZERO; k];
        for jm in 0..m {
            for i in 0..k {
                rhs[i] = Complex::from_real(kb[(i, jm)]);
            }
            xlu.solve_into(&rhs, &mut x)?;
            for i in 0..k {
                w[(i, jm)] = x[i];
            }
        }
        // L̂ᵀX (p×k).
        let mut ltx = CMatrix::zeros(p, k);
        for jp in 0..p {
            for i in 0..k {
                ltx[(jp, i)] = (0..k)
                    .map(|r| eigen.vectors[(r, i)].scale(self.l[(r, jp)]))
                    .sum();
            }
        }
        let mu_max = eigen.values.iter().map(|v| v.abs()).fold(0.0, f64::max);
        let cut = mu_max * 1e-12;
        // Storage energy |x*Ĉx| per unit eigenvector, relative to ‖Ĉ‖.
        let cscale = self
            .c
            .as_slice()
            .iter()
            .fold(0.0f64, |acc, v| acc.max(v.abs()))
            .max(f64::MIN_POSITIVE);
        let storage_energy = |i: usize| -> f64 {
            let mut e = Complex::ZERO;
            for r in 0..k {
                let mut row = Complex::ZERO;
                for cidx in 0..k {
                    row += eigen.vectors[(cidx, i)].scale(self.c[(r, cidx)]);
                }
                e += eigen.vectors[(r, i)].conj() * row;
            }
            e.abs() / cscale
        };
        let mut poles = Vec::new();
        let mut residues = Vec::new();
        let mut feedthrough = Matrix::zeros(p, m);
        for (i, &mu) in eigen.values.iter().enumerate() {
            if mu.abs() <= cut || storage_energy(i) <= C_NULLSPACE_REL {
                // Instantaneous mode: 1/(1 + (s−s₀)μ) → 1 as μ → 0.
                for jp in 0..p {
                    for jm in 0..m {
                        feedthrough[(jp, jm)] += (ltx[(jp, i)] * w[(i, jm)]).re;
                    }
                }
                continue;
            }
            let pole = Complex::from_real(self.s0) - mu.recip();
            let mut res = CMatrix::zeros(p, m);
            let inv_mu = mu.recip();
            for jp in 0..p {
                for jm in 0..m {
                    res[(jp, jm)] = ltx[(jp, i)] * w[(i, jm)] * inv_mu;
                }
            }
            poles.push(pole);
            residues.push(res);
        }
        let unstable = poles
            .iter()
            .filter(|pl| pl.re > 1e-6 * pl.abs().max(1.0))
            .count();
        obs::gauge_set("mor.poles.unstable", unstable as f64);
        Ok(PoleResidueModel::from_parts(
            poles,
            residues,
            feedthrough,
            unstable,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::TripletBuilder;

    /// A uniform grounded RC ladder driven through its first node:
    /// passive-form `G` (resistor conductances + source incidence with the
    /// branch row negated), diagonal `C`, input on the source branch row.
    fn rc_ladder(n: usize, r: f64, c: f64) -> (CscMatrix<f64>, CscMatrix<f64>, Matrix, Matrix) {
        // Unknowns: node voltages 0..n, then the source branch current.
        let dim = n + 1;
        let mut gt = TripletBuilder::new(dim, dim);
        let mut ct = TripletBuilder::new(dim, dim);
        let g = 1.0 / r;
        for i in 0..n {
            gt.add(i, i, g);
            if i + 1 < n {
                gt.add(i + 1, i + 1, g);
                gt.add(i, i + 1, -g);
                gt.add(i + 1, i, -g);
            }
            ct.add(i, i, c);
        }
        // Source from node 0 to ground, branch row negated for passivity.
        gt.add(0, n, 1.0);
        gt.add(n, 0, -1.0);
        let mut b = Matrix::zeros(dim, 1);
        b[(n, 0)] = -1.0;
        let mut l = Matrix::zeros(dim, 1);
        l[(n - 1, 0)] = 1.0; // far-end node voltage
        (ct.build(), gt.build(), b, l)
    }

    fn prima_basis(
        c: &CscMatrix<f64>,
        g: &CscMatrix<f64>,
        b: &Matrix,
        s0: f64,
        order: usize,
    ) -> ArnoldiBasis {
        let dim = g.nrows();
        let mut kt = TripletBuilder::new(dim, dim);
        for j in 0..dim {
            for (&i, &v) in g.col_rows(j).iter().zip(g.col_values(j)) {
                kt.add(i, j, v);
            }
            for (&i, &v) in c.col_rows(j).iter().zip(c.col_values(j)) {
                kt.add(i, j, s0 * v);
            }
        }
        let klu = crate::SparseLu::factor(&kt.build()).unwrap();
        let mut start = Vec::new();
        for jm in 0..b.cols() {
            let col: Vec<f64> = (0..dim).map(|i| b[(i, jm)]).collect();
            start.push(klu.solve(&col).unwrap());
        }
        block_arnoldi(
            &start,
            |v, w| {
                let cv = c.mul_vec(v)?;
                let mut scratch = vec![0.0; dim];
                klu.solve_into(&cv, &mut scratch, w)?;
                Ok(())
            },
            order,
            1e-10,
        )
        .unwrap()
    }

    #[test]
    fn arnoldi_basis_is_orthonormal_to_machine_precision() {
        let (c, g, b, _l) = rc_ladder(30, 10.0, 1e-14);
        let basis = prima_basis(&c, &g, &b, 1e10, 12);
        assert_eq!(basis.order(), 12);
        assert!(
            basis.orthonormality_defect() <= 1e-12,
            "defect {}",
            basis.orthonormality_defect()
        );
    }

    #[test]
    fn rank_deficient_start_block_deflates_without_panic() {
        let (c, g, b, _l) = rc_ladder(10, 10.0, 1e-14);
        let dim = g.nrows();
        let col: Vec<f64> = (0..dim).map(|i| b[(i, 0)]).collect();
        // Duplicate column + an exactly zero column: both must deflate.
        let start = vec![col.clone(), col.clone(), vec![0.0; dim]];
        let basis = block_arnoldi(
            &start,
            |v, w| {
                let cv = c.mul_vec(v)?;
                w.copy_from_slice(&cv);
                Ok(())
            },
            6,
            1e-10,
        )
        .unwrap();
        assert!(basis.deflations >= 2, "deflations {}", basis.deflations);
        assert!(basis.orthonormality_defect() <= 1e-12);
    }

    #[test]
    fn all_zero_start_block_is_an_error() {
        let err = block_arnoldi(&[vec![0.0; 4]], |_v, _w| Ok(()), 3, 1e-10).unwrap_err();
        assert!(matches!(err, NumericError::InsufficientData { .. }));
    }

    #[test]
    fn breakdown_stops_early_with_exact_subspace() {
        // A = I: the Krylov space is 1-dimensional; asking for order 5
        // must stop after one vector instead of looping or panicking.
        let start = vec![vec![1.0, 2.0, 3.0]];
        let basis = block_arnoldi(
            &start,
            |v, w| {
                w.copy_from_slice(v);
                Ok(())
            },
            5,
            1e-10,
        )
        .unwrap();
        assert_eq!(basis.order(), 1);
    }

    #[test]
    fn full_order_projection_reproduces_the_transfer_function() {
        let n = 8;
        let (c, g, b, l) = rc_ladder(n, 25.0, 2e-14);
        let s0 = 5e9;
        let basis = prima_basis(&c, &g, &b, s0, n + 1);
        let sys = project(&basis, &c, &g, &b, &l, s0).unwrap();
        // Full-order reduction is a change of basis: transfer must agree
        // with the unreduced solve at an arbitrary frequency.
        let s = Complex::new(0.0, 2.0 * std::f64::consts::PI * 3.2e9);
        let dim = g.nrows();
        let mut a = CMatrix::zeros(dim, dim);
        for j in 0..dim {
            for (&i, &v) in g.col_rows(j).iter().zip(g.col_values(j)) {
                a[(i, j)] += Complex::from_real(v);
            }
            for (&i, &v) in c.col_rows(j).iter().zip(c.col_values(j)) {
                a[(i, j)] += s.scale(v);
            }
        }
        let rhs: Vec<Complex> = (0..dim).map(|i| Complex::from_real(b[(i, 0)])).collect();
        let x = CLuDecomposition::new(&a).unwrap().solve(&rhs).unwrap();
        let h_full: Complex = (0..dim).map(|i| x[i].scale(l[(i, 0)])).sum();
        let h_red = sys.transfer(s).unwrap()[(0, 0)];
        assert!(
            (h_full - h_red).abs() <= 1e-9 * h_full.abs().max(1e-30),
            "full {h_full} vs reduced {h_red}"
        );
    }

    #[test]
    fn pole_residue_view_matches_the_state_space_transfer() {
        let (c, g, b, l) = rc_ladder(12, 40.0, 1e-14);
        let s0 = 1e10;
        let basis = prima_basis(&c, &g, &b, s0, 8);
        let sys = project(&basis, &c, &g, &b, &l, s0).unwrap();
        let pr = sys.pole_residue().unwrap();
        assert_eq!(pr.unstable_count(), 0);
        for pole in pr.poles() {
            assert!(pole.re < 0.0, "pole {pole} not in the open LHP");
        }
        for &f in &[1e8, 1e9, 3.2e9, 2e10] {
            let s = Complex::from_imag(2.0 * std::f64::consts::PI * f);
            let direct = sys.transfer(s).unwrap()[(0, 0)];
            let via_pr = pr.transfer(s)[(0, 0)];
            assert!(
                (direct - via_pr).abs() <= 1e-8 * direct.abs().max(1e-30),
                "f={f}: {direct} vs {via_pr}"
            );
        }
    }

    #[test]
    fn single_state_rc_has_the_analytic_pole_and_residue() {
        // H(s) = 1/(g + sc): pole −g/c, residue 1/c.
        let g = 1e-3;
        let c = 1e-15;
        let mut ct = TripletBuilder::new(1, 1);
        ct.add(0, 0, c);
        let mut gt = TripletBuilder::new(1, 1);
        gt.add(0, 0, g);
        let mut b = Matrix::zeros(1, 1);
        b[(0, 0)] = 1.0;
        let basis = ArnoldiBasis {
            vectors: vec![vec![1.0]],
            deflations: 0,
        };
        let sys = project(&basis, &ct.build(), &gt.build(), &b, &b.clone(), 0.0).unwrap();
        let pr = sys.pole_residue().unwrap();
        assert_eq!(pr.poles().len(), 1);
        let pole = pr.poles()[0];
        assert!((pole.re + g / c).abs() <= 1e-3 * (g / c));
        assert!(pole.im.abs() <= 1e-6 * (g / c));
    }

    #[test]
    fn moments_of_a_full_order_model_match_direct_recursion() {
        let n = 6;
        let (c, g, b, l) = rc_ladder(n, 15.0, 3e-14);
        let s0 = 2e10;
        let basis = prima_basis(&c, &g, &b, s0, n + 1);
        let sys = project(&basis, &c, &g, &b, &l, s0).unwrap();
        let red = sys.moments(4).unwrap();
        // Direct full-system recursion with the same convention.
        let dim = g.nrows();
        let mut kt = TripletBuilder::new(dim, dim);
        for j in 0..dim {
            for (&i, &v) in g.col_rows(j).iter().zip(g.col_values(j)) {
                kt.add(i, j, v);
            }
            for (&i, &v) in c.col_rows(j).iter().zip(c.col_values(j)) {
                kt.add(i, j, s0 * v);
            }
        }
        let klu = crate::SparseLu::factor(&kt.build()).unwrap();
        let bcol: Vec<f64> = (0..dim).map(|i| b[(i, 0)]).collect();
        let mut r = klu.solve(&bcol).unwrap();
        for (j, mr) in red.iter().enumerate() {
            let full: f64 = (0..dim).map(|i| l[(i, 0)] * r[i]).sum();
            let rel = (full - mr[(0, 0)]).abs() / full.abs().max(1e-300);
            assert!(
                rel <= 1e-8,
                "moment {j}: full {full} vs reduced {}",
                mr[(0, 0)]
            );
            r = klu.solve(&c.mul_vec(&r).unwrap()).unwrap();
        }
    }
}
