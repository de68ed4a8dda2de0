//! Conductor-level partial extraction: the [`PartialSystem`].
//!
//! A [`PartialSystem`] holds a set of conductors and produces
//!
//! * the DC partial-inductance matrix `Lp` (Foundations 1 & 2 territory),
//! * DC resistances, and
//! * the frequency-dependent conductor impedance matrix `Z(ω)` including
//!   skin and proximity effects, via the volume-filament solve.

use crate::fastop::{
    self, BlockDiagPrecond, FastOpOptions, FastZOperator, KernelCache, SolverBackend,
};
use crate::gmd::GmdMemo;
use crate::mesh::MeshSpec;
use crate::partial::{dc_resistance, mutual_partial_memo, self_partial};
use crate::{PeecError, Result};
use rlcx_geom::Bar;
use rlcx_numeric::lu::CLuDecomposition;
use rlcx_numeric::obs;
use rlcx_numeric::parallel::{balanced_index, par_map_threads, thread_count};
use rlcx_numeric::{CMatrix, Complex, Matrix};

/// One conductor of a [`PartialSystem`]: a bar plus its resistivity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Conductor {
    /// Geometry of the conductor.
    pub bar: Bar,
    /// Resistivity in Ω·m.
    pub rho: f64,
}

impl Conductor {
    /// Creates a conductor.
    ///
    /// # Errors
    ///
    /// Returns [`PeecError::InvalidParameter`] for a non-positive
    /// resistivity.
    pub fn new(bar: Bar, rho: f64) -> Result<Self> {
        if !(rho > 0.0 && rho.is_finite()) {
            return Err(PeecError::InvalidParameter {
                what: format!("resistivity must be positive, got {rho}"),
            });
        }
        Ok(Conductor { bar, rho })
    }
}

/// A system of conductors to extract together.
///
/// # Example
///
/// ```
/// use rlcx_geom::{Axis, Bar, Point3};
/// use rlcx_geom::units::RHO_COPPER;
/// use rlcx_peec::{Conductor, PartialSystem};
///
/// # fn main() -> Result<(), rlcx_peec::PeecError> {
/// let mut sys = PartialSystem::new();
/// for y in [0.0, 6.0] {
///     let bar = Bar::new(Point3::new(0.0, y, 10.0), Axis::X, 1000.0, 5.0, 2.0)?;
///     sys.push(Conductor::new(bar, RHO_COPPER)?);
/// }
/// let lp = sys.lp_matrix();
/// assert!(lp[(0, 1)] > 0.0 && lp[(0, 1)] < lp[(0, 0)]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct PartialSystem {
    conductors: Vec<Conductor>,
}

impl PartialSystem {
    /// Creates an empty system.
    pub fn new() -> Self {
        PartialSystem {
            conductors: Vec::new(),
        }
    }

    /// Adds a conductor, returning its index.
    pub fn push(&mut self, c: Conductor) -> usize {
        self.conductors.push(c);
        self.conductors.len() - 1
    }

    /// Number of conductors.
    pub fn len(&self) -> usize {
        self.conductors.len()
    }

    /// Returns `true` when the system has no conductors.
    pub fn is_empty(&self) -> bool {
        self.conductors.is_empty()
    }

    /// Borrows the conductors.
    pub fn conductors(&self) -> &[Conductor] {
        &self.conductors
    }

    /// DC partial-inductance matrix (H): `Lp[i][i]` from the self formula,
    /// `Lp[i][j]` from the mutual formula (zero for orthogonal pairs).
    ///
    /// Each upper-triangle entry is an independent GMD quadrature, so the
    /// rows are assembled on [`thread_count`] scoped threads; the result is
    /// bit-identical to the serial loop (see
    /// [`PartialSystem::lp_matrix_with_threads`]).
    pub fn lp_matrix(&self) -> Matrix {
        self.lp_matrix_with_threads(thread_count())
    }

    /// [`PartialSystem::lp_matrix`] with an explicit thread count.
    ///
    /// Every entry is computed by the same pure function regardless of
    /// sharding, so any two thread counts produce bit-identical matrices —
    /// the determinism tests compare `lp_matrix_with_threads(1)` against
    /// `lp_matrix_with_threads(n)` exactly.
    pub fn lp_matrix_with_threads(&self, threads: usize) -> Matrix {
        self.lp_matrix_memo(threads, None)
    }

    /// [`PartialSystem::lp_matrix_with_threads`] with the mutual GMDs taken
    /// from `memo` when one is given — bit-identical either way.
    pub(crate) fn lp_matrix_memo(&self, threads: usize, memo: Option<&GmdMemo>) -> Matrix {
        let _span = obs::span("peec.lp_matrix");
        let n = self.len();
        obs::counter_add("peec.lp.conductors", n as u64);
        let rows = par_map_threads(threads, n, |k| {
            let i = balanced_index(k, n);
            // Entries (i, i..n) of the upper triangle.
            let mut row = vec![0.0; n - i];
            row[0] = self_partial(&self.conductors[i].bar);
            for j in (i + 1)..n {
                let (a, b) = (&self.conductors[i].bar, &self.conductors[j].bar);
                row[j - i] = mutual_partial_memo(a, b, memo);
            }
            (i, row)
        });
        let mut lp = Matrix::zeros(n, n);
        for (i, row) in rows {
            for (offset, m) in row.into_iter().enumerate() {
                let j = i + offset;
                lp[(i, j)] = m;
                lp[(j, i)] = m;
            }
        }
        lp
    }

    /// DC resistances (Ω), one per conductor.
    pub fn dc_resistances(&self) -> Vec<f64> {
        self.conductors
            .iter()
            .map(|c| dc_resistance(&c.bar, c.rho))
            .collect()
    }

    /// Conductor-level complex impedance matrix `Z(ω)` (Ω) at frequency `f`
    /// (Hz), including skin/proximity effect through an `mesh`-filament
    /// decomposition of every conductor.
    ///
    /// All conductors must be parallel with identical axial spans (they
    /// share end planes, as in a block cross-section); this is the
    /// configuration the paper's tables are characterized in.
    ///
    /// # Errors
    ///
    /// * [`PeecError::IncompatibleConductors`] if spans or axes differ,
    /// * [`PeecError::InvalidParameter`] for a non-positive frequency,
    /// * [`PeecError::Numeric`] if the filament system is singular.
    pub fn impedance_at(&self, f: f64, mesh: MeshSpec) -> Result<CMatrix> {
        self.impedance_at_with(f, |_| mesh)
    }

    /// Like [`PartialSystem::impedance_at`] but with a per-conductor mesh
    /// (e.g. fine meshes on signal traces, single filaments on wide ground-
    /// plane strips whose current distribution the strip decomposition
    /// already resolves).
    ///
    /// Uses [`SolverBackend::Auto`]: dense below
    /// [`crate::fastop::ITERATIVE_CUTOVER`] filaments, the matrix-free
    /// GMRES path above.
    ///
    /// # Errors
    ///
    /// Same as [`PartialSystem::impedance_at`].
    pub fn impedance_at_with(
        &self,
        f: f64,
        mesh_for: impl Fn(usize) -> MeshSpec,
    ) -> Result<CMatrix> {
        self.impedance_at_with_backend(f, mesh_for, SolverBackend::Auto)
    }

    /// [`PartialSystem::impedance_at_with`] with an explicit
    /// [`SolverBackend`].
    ///
    /// # Errors
    ///
    /// Same as [`PartialSystem::impedance_at`]; the iterative backend can
    /// additionally fail with
    /// [`rlcx_numeric::NumericError::DidNotConverge`] (wrapped in
    /// [`PeecError::Numeric`]) if GMRES exhausts its iteration budget.
    pub fn impedance_at_with_backend(
        &self,
        f: f64,
        mesh_for: impl Fn(usize) -> MeshSpec,
        backend: SolverBackend,
    ) -> Result<CMatrix> {
        self.impedance_at_memo(f, mesh_for, backend, None)
    }

    /// The one impedance solve behind every entry point:
    /// [`PartialSystem::impedance_at_with_backend`] with the dense filament
    /// fill taking its mutual GMDs from `memo` when one is given (see
    /// [`GmdMemo`]); the result is bit-identical either way. The iterative
    /// backend does not consult the memo — it has its own per-solve
    /// [`KernelCache`].
    ///
    /// Each stage runs under its own span, named alike on both backends:
    /// `peec.mesh`, `peec.assemble` (dense fill / fast-operator build),
    /// `peec.factor` (dense LU inverse / block-preconditioner LUs) and
    /// `peec.reduce` (admittance collapse; on the iterative path this
    /// includes the GMRES solves), all nested under `peec.solve`.
    ///
    /// # Errors
    ///
    /// Same as [`PartialSystem::impedance_at_with_backend`].
    pub(crate) fn impedance_at_memo(
        &self,
        f: f64,
        mesh_for: impl Fn(usize) -> MeshSpec,
        backend: SolverBackend,
        memo: Option<&GmdMemo>,
    ) -> Result<CMatrix> {
        if !(f > 0.0 && f.is_finite()) {
            return Err(PeecError::InvalidParameter {
                what: format!("frequency must be positive, got {f}"),
            });
        }
        if self.is_empty() {
            return Ok(CMatrix::zeros(0, 0));
        }
        let first = &self.conductors[0].bar;
        for c in &self.conductors[1..] {
            if c.bar.axis() != first.axis() || c.bar.axial_span() != first.axial_span() {
                return Err(PeecError::IncompatibleConductors {
                    what: "frequency-dependent solve needs parallel conductors sharing axial spans"
                        .into(),
                });
            }
        }
        let _solve_span = obs::span("peec.solve");
        obs::counter_add("peec.solves", 1);
        let (fils, owner, rhos) = obs::with_span("peec.mesh", || self.meshed_filaments(mesh_for));
        obs::counter_add("peec.filaments", fils.len() as u64);
        let omega = 2.0 * std::f64::consts::PI * f;
        if backend.is_iterative(fils.len()) {
            return self.impedance_iterative(&fils, &owner, &rhos, omega);
        }
        let zf = obs::with_span("peec.assemble", || {
            filament_z_matrix(&fils, &rhos, omega, thread_count(), memo)
        });
        // Filaments of one conductor are in parallel between shared end
        // nodes: Y_cond = A Z_f⁻¹ Aᵀ with A the ownership incidence matrix.
        let yf = obs::with_span("peec.factor", || CLuDecomposition::new(&zf)?.inverse())?;
        let _reduce_span = obs::span("peec.reduce");
        let n = self.len();
        let nf = fils.len();
        let mut ycond = CMatrix::zeros(n, n);
        for i in 0..nf {
            for j in 0..nf {
                ycond[(owner[i], owner[j])] += yf[(i, j)];
            }
        }
        Ok(CLuDecomposition::new(&ycond)?.inverse()?)
    }

    /// The matrix-free path: kernel-cached hierarchical operator,
    /// per-conductor block preconditioner, one GMRES solve per conductor.
    fn impedance_iterative(
        &self,
        fils: &[Bar],
        owner: &[usize],
        rhos: &[f64],
        omega: f64,
    ) -> Result<CMatrix> {
        obs::counter_add("peec.solves.iterative", 1);
        // Every filament shares the conductors' common axial span, so the
        // kernel cache key never needs the axial coordinate.
        let kernel = KernelCache::new(self.conductors[0].bar.length());
        let op = obs::with_span("peec.assemble", || {
            FastZOperator::new(fils, rhos, omega, &kernel, &FastOpOptions::default())
        });
        let pre = obs::with_span("peec.factor", || {
            BlockDiagPrecond::new(fils, rhos, owner, self.len(), omega, &kernel)
        })?;
        let _reduce_span = obs::span("peec.reduce");
        let ycond = fastop::conductor_admittance(&op, &pre, owner, self.len())?;
        Ok(CLuDecomposition::new(&ycond)?.inverse()?)
    }

    /// Meshes every conductor into filaments, returning the filament bars,
    /// the owning conductor index of each filament, and its resistivity.
    ///
    /// The resistivity is a per-conductor constant, computed once and
    /// replicated across that conductor's filaments (it used to be pushed
    /// filament-by-filament, re-reading the conductor each time).
    fn meshed_filaments(
        &self,
        mesh_for: impl Fn(usize) -> MeshSpec,
    ) -> (Vec<Bar>, Vec<usize>, Vec<f64>) {
        let mut fils: Vec<Bar> = Vec::new();
        let mut owner: Vec<usize> = Vec::new();
        let mut rhos: Vec<f64> = Vec::new();
        for (ci, c) in self.conductors.iter().enumerate() {
            let conductor_fils = mesh_for(ci).filaments(&c.bar);
            let count = conductor_fils.len();
            let rho = c.rho;
            fils.extend(conductor_fils);
            owner.extend(std::iter::repeat_n(ci, count));
            rhos.extend(std::iter::repeat_n(rho, count));
        }
        (fils, owner, rhos)
    }

    /// Per-filament complex currents when the conductors carry the given
    /// net currents at frequency `f` — the introspection view of skin and
    /// proximity effects. Returns `(filament, current)` pairs in
    /// conductor-then-mesh order; the filaments of each conductor sum to
    /// its requested net current.
    ///
    /// # Errors
    ///
    /// * [`PeecError::BadIndex`] if `conductor_currents.len() != self.len()`,
    /// * the same errors as [`PartialSystem::impedance_at`].
    pub fn filament_currents(
        &self,
        f: f64,
        mesh: MeshSpec,
        conductor_currents: &[Complex],
    ) -> Result<Vec<(Bar, Complex)>> {
        if conductor_currents.len() != self.len() {
            return Err(PeecError::BadIndex {
                what: format!(
                    "need {} conductor currents, got {}",
                    self.len(),
                    conductor_currents.len()
                ),
            });
        }
        // Conductor voltages for the requested currents, then filament
        // currents I_f = Z_f⁻¹ Aᵀ V (the same math as impedance_at, kept
        // explicit here because we need the intermediate).
        if !(f > 0.0 && f.is_finite()) {
            return Err(PeecError::InvalidParameter {
                what: format!("frequency must be positive, got {f}"),
            });
        }
        let z_cond = self.impedance_at(f, mesh)?;
        let v = z_cond.mul_vec(conductor_currents)?;
        let (fils, owner, rhos) = self.meshed_filaments(|_| mesh);
        let omega = 2.0 * std::f64::consts::PI * f;
        let zf = filament_z_matrix(&fils, &rhos, omega, thread_count(), None);
        let rhs: Vec<Complex> = owner.iter().map(|&ci| v[ci]).collect();
        let i_f = CLuDecomposition::new(&zf)?.solve(&rhs)?;
        Ok(fils.into_iter().zip(i_f).collect())
    }

    /// Effective resistance and inductance matrices at frequency `f`:
    /// `R(ω) = Re Z`, `L(ω) = Im Z / ω`.
    ///
    /// # Errors
    ///
    /// Propagates [`PartialSystem::impedance_at`] errors.
    pub fn rl_at(&self, f: f64, mesh: MeshSpec) -> Result<(Matrix, Matrix)> {
        self.rl_at_backend(f, mesh, SolverBackend::Auto)
    }

    /// [`PartialSystem::rl_at`] with an explicit [`SolverBackend`].
    ///
    /// # Errors
    ///
    /// Propagates [`PartialSystem::impedance_at_with_backend`] errors.
    pub fn rl_at_backend(
        &self,
        f: f64,
        mesh: MeshSpec,
        backend: SolverBackend,
    ) -> Result<(Matrix, Matrix)> {
        self.rl_at_memo(f, mesh, backend, None)
    }

    /// [`PartialSystem::rl_at_backend`] with the dense filament fill taking
    /// its mutual GMDs from `memo` when one is given (see [`GmdMemo`]); the
    /// result is bit-identical either way.
    ///
    /// # Errors
    ///
    /// Propagates [`PartialSystem::impedance_at_with_backend`] errors.
    pub fn rl_at_memo(
        &self,
        f: f64,
        mesh: MeshSpec,
        backend: SolverBackend,
        memo: Option<&GmdMemo>,
    ) -> Result<(Matrix, Matrix)> {
        let z = self.impedance_at_memo(f, |_| mesh, backend, memo)?;
        let omega = 2.0 * std::f64::consts::PI * f;
        let n = z.rows();
        let mut r = Matrix::zeros(n, n);
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                r[(i, j)] = z[(i, j)].re;
                l[(i, j)] = z[(i, j)].im / omega;
            }
        }
        Ok((r, l))
    }
}

/// Filament impedance matrix `Z_f = R_f + jω Lp_f`, assembled row-by-row on
/// `threads` scoped threads.
///
/// The upper-triangle rows are independent pure computations (each entry is
/// one GMD quadrature), so the fill is sharded with the same balanced,
/// deterministic row interleaving as [`PartialSystem::lp_matrix_with_threads`]
/// — the matrix is bit-identical for every thread count, with or without a
/// GMD `memo`.
fn filament_z_matrix(
    fils: &[Bar],
    rhos: &[f64],
    omega: f64,
    threads: usize,
    memo: Option<&GmdMemo>,
) -> CMatrix {
    let nf = fils.len();
    let rows = par_map_threads(threads, nf, |k| {
        let i = balanced_index(k, nf);
        let mut row = vec![Complex::ZERO; nf - i];
        row[0] = Complex::new(
            dc_resistance(&fils[i], rhos[i]),
            omega * self_partial(&fils[i]),
        );
        for j in (i + 1)..nf {
            row[j - i] = Complex::from_imag(omega * mutual_partial_memo(&fils[i], &fils[j], memo));
        }
        (i, row)
    });
    let mut zf = CMatrix::zeros(nf, nf);
    for (i, row) in rows {
        for (offset, m) in row.into_iter().enumerate() {
            let j = i + offset;
            zf[(i, j)] = m;
            zf[(j, i)] = m;
        }
    }
    zf
}

impl Extend<Conductor> for PartialSystem {
    fn extend<T: IntoIterator<Item = Conductor>>(&mut self, iter: T) {
        self.conductors.extend(iter);
    }
}

impl FromIterator<Conductor> for PartialSystem {
    fn from_iter<T: IntoIterator<Item = Conductor>>(iter: T) -> Self {
        PartialSystem {
            conductors: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlcx_geom::units::RHO_COPPER;
    use rlcx_geom::{Axis, Point3};
    use rlcx_numeric::cholesky::is_positive_definite;

    fn cpw_system(len: f64) -> PartialSystem {
        // G(5) - 1 - S(10) - 1 - G(5), 2 µm thick, like Figure 1.
        let mut sys = PartialSystem::new();
        for (y, w) in [(0.0, 5.0), (6.0, 10.0), (17.0, 5.0)] {
            let bar = Bar::new(Point3::new(0.0, y, 10.0), Axis::X, len, w, 2.0).unwrap();
            sys.push(Conductor::new(bar, RHO_COPPER).unwrap());
        }
        sys
    }

    #[test]
    fn lp_matrix_is_spd_and_symmetric() {
        let sys = cpw_system(1000.0);
        let lp = sys.lp_matrix();
        assert!(lp.symmetry_defect() < 1e-12);
        assert!(is_positive_definite(&lp));
        // Mutuals are positive and below the smaller self term.
        assert!(lp[(0, 1)] > 0.0);
        assert!(lp[(0, 1)] < lp[(0, 0)].min(lp[(1, 1)]));
    }

    #[test]
    fn dc_resistances_match_formula() {
        let sys = cpw_system(6000.0);
        let r = sys.dc_resistances();
        assert!((r[1] - 5.16).abs() < 0.05); // 10 µm × 2 µm signal
        assert!((r[0] - 10.32).abs() < 0.1); // 5 µm grounds: double
    }

    #[test]
    fn impedance_reduces_to_dc_at_low_frequency() {
        let sys = cpw_system(1000.0);
        let z = sys.impedance_at(1e3, MeshSpec::new(2, 2)).unwrap();
        let r_dc = sys.dc_resistances();
        for i in 0..3 {
            assert!((z[(i, i)].re - r_dc[i]).abs() / r_dc[i] < 1e-3);
        }
        // L(low f) matches the DC partial matrix.
        let lp = sys.lp_matrix();
        let omega = 2.0 * std::f64::consts::PI * 1e3;
        for i in 0..3 {
            for j in 0..3 {
                let l_eff = z[(i, j)].im / omega;
                assert!(
                    (l_eff - lp[(i, j)]).abs() / lp[(i, j)] < 0.02,
                    "({i},{j}): {l_eff} vs {}",
                    lp[(i, j)]
                );
            }
        }
    }

    #[test]
    fn skin_effect_raises_r_and_lowers_l() {
        let sys = cpw_system(2000.0);
        let mesh = MeshSpec::new(5, 3);
        let (r_lo, l_lo) = sys.rl_at(1e6, mesh).unwrap();
        let (r_hi, l_hi) = sys.rl_at(2e10, mesh).unwrap();
        assert!(
            r_hi[(1, 1)] > r_lo[(1, 1)] * 1.02,
            "AC resistance should rise: {} vs {}",
            r_hi[(1, 1)],
            r_lo[(1, 1)]
        );
        assert!(
            l_hi[(1, 1)] < l_lo[(1, 1)],
            "internal inductance should shrink: {} vs {}",
            l_hi[(1, 1)],
            l_lo[(1, 1)]
        );
    }

    #[test]
    fn impedance_rejects_mismatched_spans() {
        let mut sys = cpw_system(1000.0);
        let bar = Bar::new(Point3::new(10.0, 40.0, 10.0), Axis::X, 990.0, 5.0, 2.0).unwrap();
        sys.push(Conductor::new(bar, RHO_COPPER).unwrap());
        assert!(matches!(
            sys.impedance_at(1e9, MeshSpec::single()),
            Err(PeecError::IncompatibleConductors { .. })
        ));
    }

    #[test]
    fn impedance_rejects_bad_frequency() {
        let sys = cpw_system(1000.0);
        assert!(sys.impedance_at(0.0, MeshSpec::single()).is_err());
        assert!(sys.impedance_at(f64::NAN, MeshSpec::single()).is_err());
    }

    #[test]
    fn empty_system_yields_empty_matrices() {
        let sys = PartialSystem::new();
        assert!(sys.is_empty());
        assert_eq!(sys.lp_matrix().rows(), 0);
        assert_eq!(sys.impedance_at(1e9, MeshSpec::single()).unwrap().rows(), 0);
    }

    #[test]
    fn filament_currents_sum_to_conductor_currents() {
        let sys = cpw_system(1000.0);
        let mesh = MeshSpec::new(3, 2);
        // Signal carries +1 A, grounds return −0.5 A each.
        let currents = [
            Complex::from_real(-0.5),
            Complex::ONE,
            Complex::from_real(-0.5),
        ];
        let per_fil = sys.filament_currents(3.2e9, mesh, &currents).unwrap();
        assert_eq!(per_fil.len(), 3 * mesh.filament_count());
        for (ci, expect) in currents.iter().enumerate() {
            let total: Complex = per_fil
                [ci * mesh.filament_count()..(ci + 1) * mesh.filament_count()]
                .iter()
                .map(|(_, i)| *i)
                .sum();
            assert!((total - *expect).abs() < 1e-9, "conductor {ci}: {total}");
        }
    }

    #[test]
    fn proximity_crowds_current_toward_the_return() {
        // Two parallel conductors, go and return, at high frequency: the
        // signal filaments nearest the return carry more current than the
        // far filaments. At low frequency the distribution is uniform.
        let mut sys = PartialSystem::new();
        for y in [0.0, 12.0] {
            let bar = Bar::new(Point3::new(0.0, y, 10.0), Axis::X, 2000.0, 10.0, 2.0).unwrap();
            sys.push(Conductor::new(bar, RHO_COPPER).unwrap());
        }
        let mesh = MeshSpec::new(5, 1);
        let currents = [Complex::ONE, Complex::from_real(-1.0)];
        let ratio_at = |f: f64| {
            let per_fil = sys.filament_currents(f, mesh, &currents).unwrap();
            // Conductor 0 spans y ∈ [0, 10]; its last filament (y ≈ 8–10)
            // is nearest the return at y = 12.
            let near = per_fil[4].1.abs();
            let far = per_fil[0].1.abs();
            near / far
        };
        let low = ratio_at(1e5);
        let high = ratio_at(2e10);
        assert!((low - 1.0).abs() < 0.05, "uniform at DC: {low}");
        assert!(high > 1.3, "crowding at high f: {high}");
    }

    #[test]
    fn filament_currents_validates_inputs() {
        let sys = cpw_system(500.0);
        assert!(sys
            .filament_currents(3.2e9, MeshSpec::single(), &[Complex::ONE])
            .is_err());
        assert!(sys
            .filament_currents(-1.0, MeshSpec::single(), &[Complex::ONE; 3])
            .is_err());
    }

    #[test]
    fn balanced_index_is_a_permutation() {
        // The interleave now lives in rlcx_numeric::parallel; this keeps
        // the solver-level contract pinned from this crate too.
        for n in [1, 2, 3, 8, 17] {
            let mut seen: Vec<usize> = (0..n).map(|k| balanced_index(k, n)).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..n).collect::<Vec<_>>(), "n={n}");
        }
    }

    #[test]
    fn lp_matrix_is_thread_count_invariant() {
        let mut sys = PartialSystem::new();
        for i in 0..9 {
            let bar = Bar::new(
                Point3::new(0.0, 8.0 * i as f64, 10.0),
                Axis::X,
                800.0,
                4.0,
                2.0,
            )
            .unwrap();
            sys.push(Conductor::new(bar, RHO_COPPER).unwrap());
        }
        let serial = sys.lp_matrix_with_threads(1);
        for threads in [2, 3, 8, 32] {
            let par = sys.lp_matrix_with_threads(threads);
            for i in 0..sys.len() {
                for j in 0..sys.len() {
                    assert_eq!(
                        serial[(i, j)].to_bits(),
                        par[(i, j)].to_bits(),
                        "threads={threads}, entry ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn meshed_filaments_rho_precompute_regression() {
        // Satellite bugfix regression: precomputing rho once per conductor
        // must leave filament counts and resistances exactly as the old
        // per-filament push produced them.
        let sys = cpw_system(1200.0);
        let mesh = MeshSpec::new(4, 3);
        let (fils, owner, rhos) = sys.meshed_filaments(|_| mesh);
        assert_eq!(fils.len(), 3 * mesh.filament_count());
        assert_eq!(owner.len(), fils.len());
        assert_eq!(rhos.len(), fils.len());
        for (k, (fil, (&ci, &rho))) in fils.iter().zip(owner.iter().zip(&rhos)).enumerate() {
            // Reference semantics: one rho per filament, read off its owner.
            let expect = sys.conductors()[ci].rho;
            assert_eq!(rho.to_bits(), expect.to_bits(), "filament {k}");
            let r = dc_resistance(fil, rho);
            let r_old = dc_resistance(fil, sys.conductors()[k / mesh.filament_count()].rho);
            assert_eq!(r.to_bits(), r_old.to_bits(), "filament {k} resistance");
        }
    }

    #[test]
    fn iterative_backend_matches_dense_on_cpw() {
        let sys = cpw_system(1500.0);
        let mesh = MeshSpec::new(4, 3);
        let f = 3.2e9;
        let zd = sys
            .impedance_at_with_backend(f, |_| mesh, SolverBackend::Dense)
            .unwrap();
        let zi = sys
            .impedance_at_with_backend(f, |_| mesh, SolverBackend::Iterative)
            .unwrap();
        let scale = (0..3)
            .flat_map(|i| (0..3).map(move |j| (i, j)))
            .map(|(i, j)| zd[(i, j)].abs())
            .fold(0.0, f64::max);
        for i in 0..3 {
            for j in 0..3 {
                let err = (zd[(i, j)] - zi[(i, j)]).abs();
                assert!(
                    err <= 1e-9 * scale,
                    "({i},{j}): dense {} vs iterative {}",
                    zd[(i, j)],
                    zi[(i, j)]
                );
            }
        }
    }

    #[test]
    fn auto_backend_is_dense_below_cutover() {
        // The default path must stay bit-identical to the historical dense
        // solve for every system below the cutover.
        let sys = cpw_system(900.0);
        let mesh = MeshSpec::new(3, 2);
        assert!(3 * mesh.filament_count() < crate::fastop::ITERATIVE_CUTOVER);
        let z_auto = sys.impedance_at(2e9, mesh).unwrap();
        let z_dense = sys
            .impedance_at_with_backend(2e9, |_| mesh, SolverBackend::Dense)
            .unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(z_auto[(i, j)].re.to_bits(), z_dense[(i, j)].re.to_bits());
                assert_eq!(z_auto[(i, j)].im.to_bits(), z_dense[(i, j)].im.to_bits());
            }
        }
    }

    #[test]
    fn conductor_rejects_bad_resistivity() {
        let bar = Bar::new(Point3::default(), Axis::X, 10.0, 1.0, 1.0).unwrap();
        assert!(Conductor::new(bar, 0.0).is_err());
        assert!(Conductor::new(bar, -1.0).is_err());
    }

    #[test]
    fn from_iterator_collects() {
        let bar = Bar::new(Point3::default(), Axis::X, 10.0, 1.0, 1.0).unwrap();
        let sys: PartialSystem =
            std::iter::repeat_with(|| Conductor::new(bar, RHO_COPPER).unwrap())
                .take(3)
                .enumerate()
                .map(|(i, c)| {
                    Conductor::new(c.bar.translated(0.0, 5.0 * i as f64, 0.0), c.rho).unwrap()
                })
                .collect();
        assert_eq!(sys.len(), 3);
    }
}
