//! Shared MNA structure, element stamping, and solver-engine selection.
//!
//! The transient and AC engines solve the same modified-nodal-analysis
//! system; only the element admittances differ (companion conductances
//! `kC`/`kL` in the time domain, `jωC`/`jωL` in the frequency domain).
//! This module owns everything they share:
//!
//! * `MnaLayout` — the unknown layout: non-ground node voltages first,
//!   then one branch current per inductor / voltage source in element
//!   order. This is the single place that computes `node_count() - 1`;
//!   ground is pre-interned by `Netlist::new`, so the subtraction can
//!   never underflow.
//! * `stamp_mna` — one generic stamping pass, parameterized over the
//!   scalar type and the per-element admittance maps, emitting
//!   `(row, col, value)` contributions into whatever backing store the
//!   caller provides (dense matrix or sparse triplet builder).
//! * [`SolverEngine`] — the dense/sparse backend choice, with an `Auto`
//!   mode that switches to sparse once the system outgrows the dense
//!   factorization's cache-friendly sweet spot.
//! * `RealFactor` — the factored real system (`f64`) behind the
//!   transient engine and its DC operating point, wrapping either a
//!   dense [`LuDecomposition`] or a [`SparseLu`].

use crate::netlist::{Element, Netlist, NodeId};
use crate::Result;
use crate::SpiceError;
use rlcx_numeric::lu::LuDecomposition;
use rlcx_numeric::sparse::{Scalar, SparseLu, TripletBuilder};
use rlcx_numeric::{condest, obs, CscMatrix, Matrix, NumericError};

/// Which linear-solver backend an analysis runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverEngine {
    /// Pick by system size: sparse at or above [`SPARSE_CUTOVER`]
    /// unknowns, dense below.
    #[default]
    Auto,
    /// Dense LU regardless of size.
    Dense,
    /// Sparse LU regardless of size.
    Sparse,
}

/// [`SolverEngine::Auto`] switches to the sparse engine at this many MNA
/// unknowns. Below it, the dense factorization's tight loops win over the
/// sparse solver's indirection; see `exp_mna_scaling` for the measured
/// crossover.
pub const SPARSE_CUTOVER: usize = 48;

impl SolverEngine {
    pub(crate) fn is_sparse(self, dim: usize) -> bool {
        match self {
            SolverEngine::Auto => dim >= SPARSE_CUTOVER,
            SolverEngine::Dense => false,
            SolverEngine::Sparse => true,
        }
    }
}

/// Unknown layout of the MNA system: node voltages for every non-ground
/// node (in interning order), then one branch-current unknown per
/// inductor and voltage source (in element order).
#[derive(Debug, Clone)]
pub(crate) struct MnaLayout {
    /// Non-ground node count.
    pub nv: usize,
    /// Total unknowns: `nv` plus the branch count.
    pub dim: usize,
    /// Element index → branch row, for inductors and sources.
    branch_of: Vec<Option<usize>>,
    /// Branch element indices in row order.
    pub branch_elems: Vec<usize>,
}

impl MnaLayout {
    /// Builds the layout for a netlist.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::BadSimParams`] if the circuit has no
    /// unknowns at all.
    pub fn new(nl: &Netlist) -> Result<Self> {
        // Ground is pre-interned by `Netlist::new`, so `node_count()` is
        // at least 1 and this subtraction cannot underflow — the one
        // shared home of that invariant.
        let nv = nl.node_count() - 1;
        let mut branch_of = vec![None; nl.elements.len()];
        let mut branch_elems = Vec::new();
        for (ei, e) in nl.elements.iter().enumerate() {
            if matches!(e, Element::Inductor { .. } | Element::VSource { .. }) {
                branch_of[ei] = Some(nv + branch_elems.len());
                branch_elems.push(ei);
            }
        }
        let dim = nv + branch_elems.len();
        if dim == 0 {
            return Err(SpiceError::BadSimParams {
                what: "empty circuit".into(),
            });
        }
        Ok(MnaLayout {
            nv,
            dim,
            branch_of,
            branch_elems,
        })
    }

    /// Unknown index of a node's voltage, or `None` for ground.
    pub fn var(n: NodeId) -> Option<usize> {
        (n.0 > 0).then(|| n.0 - 1)
    }

    /// Branch row of an inductor or voltage source element.
    ///
    /// # Panics
    ///
    /// Panics if `ei` is not a branch element — an internal invariant,
    /// not a data error.
    pub fn branch(&self, ei: usize) -> usize {
        self.branch_of[ei].expect("element carries a branch current")
    }
}

/// Stamps the full MNA matrix through `emit(row, col, value)`.
///
/// `y_cap` maps a capacitance to its admittance stamp, `z_ind` an
/// inductance to its branch-row impedance term (emitted negated), and
/// `z_mut` a mutual inductance likewise. The emission order is fixed
/// (elements in netlist order, then mutual couplings), so sparse callers
/// can replay the stamp sequence against a slot map from
/// [`TripletBuilder::build_with_map`].
pub(crate) fn stamp_mna<T: Scalar>(
    nl: &Netlist,
    layout: &MnaLayout,
    y_cap: impl Fn(f64) -> T,
    z_ind: impl Fn(f64) -> T,
    z_mut: impl Fn(f64) -> T,
    mut emit: impl FnMut(usize, usize, T),
) {
    for (ei, e) in nl.elements.iter().enumerate() {
        match e {
            Element::Resistor { p, n, ohms, .. } => {
                let g = T::from_f64(1.0 / ohms);
                stamp_admittance(&mut emit, MnaLayout::var(*p), MnaLayout::var(*n), g);
            }
            Element::Capacitor { p, n, farads, .. } => {
                stamp_admittance(
                    &mut emit,
                    MnaLayout::var(*p),
                    MnaLayout::var(*n),
                    y_cap(*farads),
                );
            }
            Element::Inductor { p, n, henries, .. } => {
                let row = layout.branch(ei);
                stamp_branch(&mut emit, MnaLayout::var(*p), MnaLayout::var(*n), row);
                emit(row, row, -z_ind(*henries));
            }
            Element::VSource { p, n, .. } => {
                let row = layout.branch(ei);
                stamp_branch(&mut emit, MnaLayout::var(*p), MnaLayout::var(*n), row);
            }
        }
    }
    for m in &nl.mutuals {
        let ra = layout.branch(nl.inductors[m.a.0]);
        let rb = layout.branch(nl.inductors[m.b.0]);
        let term = z_mut(m.m);
        emit(ra, rb, -term);
        emit(rb, ra, -term);
    }
}

/// Two-terminal admittance stamp (conductance pattern).
fn stamp_admittance<T: Scalar>(
    emit: &mut impl FnMut(usize, usize, T),
    p: Option<usize>,
    n: Option<usize>,
    y: T,
) {
    if let Some(ip) = p {
        emit(ip, ip, y);
    }
    if let Some(in_) = n {
        emit(in_, in_, y);
    }
    if let (Some(ip), Some(in_)) = (p, n) {
        emit(ip, in_, -y);
        emit(in_, ip, -y);
    }
}

/// Branch-current incidence stamp (±1 pattern) for inductors and sources.
fn stamp_branch<T: Scalar>(
    emit: &mut impl FnMut(usize, usize, T),
    p: Option<usize>,
    n: Option<usize>,
    row: usize,
) {
    if let Some(ip) = p {
        emit(ip, row, T::ONE);
        emit(row, ip, T::ONE);
    }
    if let Some(in_) = n {
        emit(in_, row, -T::ONE);
        emit(row, in_, -T::ONE);
    }
}

/// Translates a factorization error through the structural diagnoser;
/// `dense` means the failing pivot maps 1:1 onto an MNA unknown.
fn diagnose(nl: &Netlist, layout: &MnaLayout, e: NumericError, dense: bool) -> SpiceError {
    let pivot = match (dense, &e) {
        (true, NumericError::Singular { pivot }) => Some(*pivot),
        _ => None,
    };
    crate::diagnose::diagnose_singular(nl, layout, e, pivot)
}

/// A factored real MNA system behind either solver backend. The
/// assembled matrix is retained alongside the factorization so residuals
/// (iterative refinement) and the one-norm (condition estimation) stay
/// available after factoring.
pub(crate) enum RealFactor {
    Dense {
        a: Matrix,
        lu: LuDecomposition,
    },
    Sparse {
        a: CscMatrix<f64>,
        lu: Box<SparseLu<f64>>,
    },
}

impl RealFactor {
    /// Assembles and factors the MNA matrix. `gmin`, when positive, adds
    /// a leak conductance on every node diagonal (the DC operating point
    /// uses it to pin nodes isolated by open capacitors).
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::SingularMna`] (with the structural culprit
    /// named when identifiable) or [`SpiceError::Numeric`] if the matrix
    /// is singular.
    pub fn assemble(
        nl: &Netlist,
        layout: &MnaLayout,
        sparse: bool,
        gmin: f64,
        y_cap: impl Fn(f64) -> f64,
        z_ind: impl Fn(f64) -> f64,
        z_mut: impl Fn(f64) -> f64,
    ) -> Result<Self> {
        let dim = layout.dim;
        if sparse {
            let mut tb = TripletBuilder::new(dim, dim);
            if gmin > 0.0 {
                for i in 0..layout.nv {
                    tb.add(i, i, gmin);
                }
            }
            stamp_mna(nl, layout, y_cap, z_ind, z_mut, |i, j, v| tb.add(i, j, v));
            let a = tb.build();
            obs::gauge_set("spice.mna.nnz", a.nnz() as f64);
            let lu = SparseLu::factor(&a).map_err(|e| diagnose(nl, layout, e, false))?;
            Ok(RealFactor::Sparse {
                a,
                lu: Box::new(lu),
            })
        } else {
            let mut a = Matrix::zeros(dim, dim);
            if gmin > 0.0 {
                for i in 0..layout.nv {
                    a[(i, i)] += gmin;
                }
            }
            stamp_mna(nl, layout, y_cap, z_ind, z_mut, |i, j, v| a[(i, j)] += v);
            let lu = LuDecomposition::new(&a).map_err(|e| diagnose(nl, layout, e, true))?;
            Ok(RealFactor::Dense { a, lu })
        }
    }

    /// Dimension of the factored system.
    pub fn dim(&self) -> usize {
        match self {
            RealFactor::Dense { lu, .. } => lu.dim(),
            RealFactor::Sparse { lu, .. } => lu.dim(),
        }
    }

    /// Solves into caller buffers; `scratch` is only used by the sparse
    /// backend, but both backends leave `x` holding the solution without
    /// allocating.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::Numeric`] on buffer-length mismatch.
    pub fn solve_into(&self, b: &[f64], scratch: &mut [f64], x: &mut [f64]) -> Result<()> {
        match self {
            RealFactor::Dense { lu, .. } => lu.solve_into(b, x)?,
            RealFactor::Sparse { lu, .. } => lu.solve_into(b, scratch, x)?,
        }
        Ok(())
    }

    /// Allocating convenience wrapper over [`RealFactor::solve_into`].
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::Numeric`] on length mismatch.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut scratch = vec![0.0; b.len()];
        let mut x = vec![0.0; b.len()];
        self.solve_into(b, &mut scratch, &mut x)?;
        Ok(x)
    }

    /// `y = A·x` against the retained (unfactored) matrix values;
    /// allocation-free.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        match self {
            RealFactor::Dense { a, .. } => {
                for (i, yi) in y.iter_mut().enumerate() {
                    *yi = a.row(i).iter().zip(x).map(|(aij, xj)| aij * xj).sum();
                }
            }
            RealFactor::Sparse { a, .. } => {
                y.iter_mut().for_each(|v| *v = 0.0);
                for (j, &xj) in x.iter().enumerate() {
                    if xj != 0.0 {
                        for (&r, &v) in a.col_rows(j).iter().zip(a.col_values(j)) {
                            y[r] += v * xj;
                        }
                    }
                }
            }
        }
    }

    /// One-norm `‖A‖₁` of the assembled matrix (max column abs-sum).
    pub fn norm1(&self) -> f64 {
        match self {
            RealFactor::Dense { a, .. } => {
                let n = a.cols();
                (0..n)
                    .map(|j| (0..n).map(|i| a[(i, j)].abs()).sum::<f64>())
                    .fold(0.0, f64::max)
            }
            RealFactor::Sparse { a, .. } => (0..a.ncols())
                .map(|j| a.col_values(j).iter().map(|v| v.abs()).sum::<f64>())
                .fold(0.0, f64::max),
        }
    }

    /// One-norm condition estimate `‖A‖₁·est(‖A⁻¹‖₁)` via Hager's
    /// algorithm — a handful of extra solves against the factorization.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::Numeric`] if an internal solve fails
    /// (should not happen on a valid factorization).
    pub fn cond_est(&self) -> Result<f64> {
        let n = self.dim();
        let mut s1 = vec![0.0; n];
        let mut s2 = vec![0.0; n];
        let inv_est = condest::onenorm_inv_est(
            n,
            |b, x| match self {
                RealFactor::Dense { lu, .. } => lu.solve_into(b, x),
                RealFactor::Sparse { lu, .. } => lu.solve_into(b, &mut s1, x),
            },
            |b, x| match self {
                RealFactor::Dense { lu, .. } => lu.solve_transposed_into(b, &mut s2, x),
                RealFactor::Sparse { lu, .. } => lu.solve_transposed_into(b, &mut s2, x),
            },
        )?;
        Ok(self.norm1() * inv_est)
    }

    /// Solves `A·x = b` and polishes the solution with up to `iters`
    /// rounds of iterative refinement against the retained matrix.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::Numeric`] on length mismatch.
    pub fn solve_refined(&self, b: &[f64], iters: usize) -> Result<Vec<f64>> {
        let n = b.len();
        let mut x = self.solve(b)?;
        let mut r = vec![0.0; n];
        let mut dx = vec![0.0; n];
        let mut s = vec![0.0; n];
        for _ in 0..iters {
            let residual = condest::refine_step(
                b,
                &mut x,
                |v, y| self.matvec_into(v, y),
                |rr, d| match self {
                    RealFactor::Dense { lu, .. } => lu.solve_into(rr, d),
                    RealFactor::Sparse { lu, .. } => lu.solve_into(rr, &mut s, d),
                },
                &mut r,
                &mut dx,
            )?;
            if residual == 0.0 {
                break;
            }
        }
        Ok(x)
    }
}

/// A re-stampable, re-factorable real MNA system for step-size-varying
/// transient integration.
///
/// The matrix *pattern* is fixed at construction (element topology never
/// changes); only the companion conductances `kC = kc·C` / `kL = kl·L`
/// depend on the step size. [`VarFactor::ensure`] re-stamps values in
/// place and re-runs the numeric factorization only — the sparse
/// symbolic analysis (ordering + fill) from construction is reused via
/// [`SparseLu::refactor`], and the dense path eliminates in place via
/// [`LuDecomposition::refactor`]. Neither allocates on the fast path,
/// which keeps the adaptive engine's accepted-step loop heap-free.
pub(crate) struct VarFactor {
    factor: RealFactor,
    /// Emission-order → value-slot map for the sparse replay; empty for
    /// dense.
    slot_map: Vec<usize>,
    /// `(kc, kl)` the current numeric factorization was stamped with.
    key: (f64, f64),
}

impl VarFactor {
    /// Stamps and factors the system for companion coefficients
    /// `(kc, kl)`.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::SingularMna`] / [`SpiceError::Numeric`] on
    /// a singular system (see [`RealFactor::assemble`]).
    pub fn new(nl: &Netlist, layout: &MnaLayout, sparse: bool, kc: f64, kl: f64) -> Result<Self> {
        let dim = layout.dim;
        if sparse {
            let mut tb = TripletBuilder::new(dim, dim);
            stamp_mna(
                nl,
                layout,
                |c| kc * c,
                |l| kl * l,
                |m| kl * m,
                |i, j, v| tb.add(i, j, v),
            );
            let (a, slot_map) = tb.build_with_map();
            obs::gauge_set("spice.mna.nnz", a.nnz() as f64);
            let lu = SparseLu::factor(&a).map_err(|e| diagnose(nl, layout, e, false))?;
            Ok(VarFactor {
                factor: RealFactor::Sparse {
                    a,
                    lu: Box::new(lu),
                },
                slot_map,
                key: (kc, kl),
            })
        } else {
            let factor =
                RealFactor::assemble(nl, layout, false, 0.0, |c| kc * c, |l| kl * l, |m| kl * m)?;
            Ok(VarFactor {
                factor,
                slot_map: Vec::new(),
                key: (kc, kl),
            })
        }
    }

    /// Makes the factorization current for `(kc, kl)`: a no-op when the
    /// coefficients match the cached key, otherwise an in-place restamp
    /// plus numeric-only refactorization (no heap allocation unless the
    /// sparse backend must fall back to re-pivoting).
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::SingularMna`] / [`SpiceError::Numeric`] if
    /// the refactorization breaks down; the factor must not be used for
    /// solves afterwards.
    pub fn ensure(&mut self, nl: &Netlist, layout: &MnaLayout, kc: f64, kl: f64) -> Result<()> {
        if self.key == (kc, kl) {
            return Ok(());
        }
        let VarFactor {
            factor, slot_map, ..
        } = self;
        match factor {
            RealFactor::Dense { a, lu } => {
                a.as_mut_slice().iter_mut().for_each(|v| *v = 0.0);
                stamp_mna(
                    nl,
                    layout,
                    |c| kc * c,
                    |l| kl * l,
                    |m| kl * m,
                    |i, j, v| a[(i, j)] += v,
                );
                lu.refactor(a).map_err(|e| diagnose(nl, layout, e, true))?;
            }
            RealFactor::Sparse { a, lu } => {
                a.zero_values();
                {
                    let values = a.values_mut();
                    let mut k = 0usize;
                    stamp_mna(
                        nl,
                        layout,
                        |c| kc * c,
                        |l| kl * l,
                        |m| kl * m,
                        |_, _, v| {
                            values[slot_map[k]] += v;
                            k += 1;
                        },
                    );
                }
                lu.refactor(a).map_err(|e| diagnose(nl, layout, e, false))?;
            }
        }
        self.key = (kc, kl);
        Ok(())
    }

    /// Solves against the current factorization; allocation-free.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::Numeric`] on buffer-length mismatch.
    pub fn solve_into(&self, b: &[f64], scratch: &mut [f64], x: &mut [f64]) -> Result<()> {
        self.factor.solve_into(b, scratch, x)
    }

    /// The underlying factored system (condition estimation, refinement).
    pub fn factor(&self) -> &RealFactor {
        &self.factor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::GROUND;
    use crate::waveform::Waveform;

    fn rlc_netlist() -> Netlist {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.vsource("V", a, GROUND, Waveform::Dc(1.0)).unwrap();
        nl.resistor("R", a, b, 10.0).unwrap();
        let l1 = nl.inductor("L1", b, GROUND, 1e-9).unwrap();
        let l2 = nl.inductor("L2", a, GROUND, 2e-9).unwrap();
        nl.mutual("K", l1, l2, 0.5e-9).unwrap();
        nl.capacitor("C", b, GROUND, 1e-12).unwrap();
        nl
    }

    #[test]
    fn layout_orders_nodes_then_branches() {
        let nl = rlc_netlist();
        let layout = MnaLayout::new(&nl).unwrap();
        assert_eq!(layout.nv, 2);
        assert_eq!(layout.dim, 5); // 2 nodes + V + L1 + L2
        assert_eq!(layout.branch_elems.len(), 3);
        // Branch rows follow element order: V, L1, L2.
        assert_eq!(layout.branch(0), 2);
        assert_eq!(MnaLayout::var(GROUND), None);
    }

    #[test]
    fn empty_circuit_is_rejected() {
        let nl = Netlist::new();
        assert!(matches!(
            MnaLayout::new(&nl),
            Err(SpiceError::BadSimParams { .. })
        ));
    }

    #[test]
    fn dense_and_sparse_stamps_agree() {
        let nl = rlc_netlist();
        let layout = MnaLayout::new(&nl).unwrap();
        let dim = layout.dim;
        let mut dense = Matrix::zeros(dim, dim);
        stamp_mna(
            &nl,
            &layout,
            |c| 2e12 * c,
            |l| 2e12 * l,
            |m| 2e12 * m,
            |i, j, v| dense[(i, j)] += v,
        );
        let mut tb = TripletBuilder::new(dim, dim);
        stamp_mna(
            &nl,
            &layout,
            |c| 2e12 * c,
            |l| 2e12 * l,
            |m| 2e12 * m,
            |i, j, v| tb.add(i, j, v),
        );
        let a = tb.build();
        for i in 0..dim {
            for j in 0..dim {
                assert_eq!(dense[(i, j)], a.get(i, j), "entry ({i}, {j})");
            }
        }
    }

    #[test]
    fn engine_selection_cutover() {
        assert!(!SolverEngine::Auto.is_sparse(SPARSE_CUTOVER - 1));
        assert!(SolverEngine::Auto.is_sparse(SPARSE_CUTOVER));
        assert!(!SolverEngine::Dense.is_sparse(10_000));
        assert!(SolverEngine::Sparse.is_sparse(2));
    }
}
