//! Loop-inductance reduction and block-level extraction.
//!
//! The paper extends Foundations 1 & 2 to structures with local ground
//! planes by working with **loop** rather than partial inductance: the
//! ground plane(s) and the AC-ground traces are *merged with the far-end
//! sink nodes of the traces* into a common return. [`loop_impedance`]
//! performs exactly that reduction on a conductor-level impedance matrix,
//! and [`BlockExtractor`] packages the whole flow — place a [`Block`] in a
//! stackup, mesh the plane(s) into return strips, run the filament solve at
//! the significant frequency, reduce — which is what the table builder in
//! `rlcx-core` calls for every grid point.

use crate::fastop::SolverBackend;
use crate::gmd::GmdMemo;
use crate::mesh::MeshSpec;
use crate::solver::{Conductor, PartialSystem};
use crate::{PeecError, Result};
use rlcx_geom::{Axis, Bar, Block, Point3, ShieldConfig, Stackup};
use rlcx_numeric::lu::CLuDecomposition;
use rlcx_numeric::{thread_count, CMatrix, Complex, Matrix};

/// Loop impedance matrix over the signal conductors, with the ground
/// conductors as a merged return.
///
/// Model: every signal `i` runs from its near-end port to a **common far
/// node**; every ground conductor connects the far node back to the common
/// near-end reference. Exciting signal `k` with unit current and solving
/// KCL at the far node yields column `k` of `Z_loop`.
///
/// For one signal and one ground this reduces to the textbook
/// `Z_loop = Z_ss + Z_gg − 2 Z_sg`.
///
/// # Errors
///
/// * [`PeecError::BadPartition`] if `signals` or `grounds` is empty, they
///   overlap, or contain out-of-range/duplicate indices,
/// * [`PeecError::Numeric`] if the ground subsystem is singular.
pub fn loop_impedance(z: &CMatrix, signals: &[usize], grounds: &[usize]) -> Result<CMatrix> {
    let n = z.rows();
    if signals.is_empty() || grounds.is_empty() {
        return Err(PeecError::BadPartition {
            what: "need at least one signal and one ground".into(),
        });
    }
    let mut seen = vec![false; n];
    for &i in signals.iter().chain(grounds) {
        if i >= n {
            return Err(PeecError::BadPartition {
                what: format!("index {i} out of range ({n})"),
            });
        }
        if seen[i] {
            return Err(PeecError::BadPartition {
                what: format!("index {i} appears twice"),
            });
        }
        seen[i] = true;
    }
    // Only the ground-ground block is ever factored, so it is the only
    // submatrix materialized; the signal rows/columns are read straight out
    // of `z` through the index lists, and the per-column buffers are hoisted
    // out of the loop and refilled in place. Entry-for-entry this performs
    // the same arithmetic as the submatrix formulation — results are
    // bit-identical, just without the three signal-block copies.
    let zgg = z.submatrix(grounds, grounds);
    let ng = grounds.len();
    let ns = signals.len();
    let lu = CLuDecomposition::new(&zgg)?;
    // w = Z_GG⁻¹ · 1 and q_k = Z_GG⁻¹ · (Z_GS e_k).
    let ones = vec![Complex::ONE; ng];
    let w = lu.solve(&ones)?;
    let w_sum: Complex = w.iter().copied().sum();
    let mut out = CMatrix::zeros(ns, ns);
    let mut zgs_col = vec![Complex::ZERO; ng];
    let mut q = vec![Complex::ZERO; ng];
    let mut ig = vec![Complex::ZERO; ng];
    for (k, &sk) in signals.iter().enumerate() {
        for (col, &g) in zgs_col.iter_mut().zip(grounds) {
            *col = z[(g, sk)];
        }
        lu.solve_into(&zgs_col, &mut q)?;
        let q_sum: Complex = q.iter().copied().sum();
        // KCL at the merged far node: 1ᵀ I_G = −1ᵀ I_S = −1.
        let v_far = (Complex::ONE - q_sum) / w_sum;
        // Ground currents: I_G = −V_far·w − q.
        for ((gi, &wi), &qi) in ig.iter_mut().zip(&w).zip(&*q) {
            *gi = -(v_far * wi) - qi;
        }
        // Port voltages: V_port = V_far + Z_SS e_k + Z_SG I_G.
        for (i, &si) in signals.iter().enumerate() {
            let mut v = v_far + z[(si, sk)];
            for (&g, &igg) in grounds.iter().zip(&ig) {
                v += z[(si, g)] * igg;
            }
            out[(i, k)] = v;
        }
    }
    Ok(out)
}

/// Splits a loop impedance matrix into `(R_loop, L_loop)` at angular
/// frequency `omega`.
///
/// # Panics
///
/// Panics if `omega` is not positive.
pub fn loop_rl(z_loop: &CMatrix, omega: f64) -> (Matrix, Matrix) {
    assert!(omega > 0.0, "angular frequency must be positive");
    let n = z_loop.rows();
    let mut r = Matrix::zeros(n, n);
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            r[(i, j)] = z_loop[(i, j)].re;
            l[(i, j)] = z_loop[(i, j)].im / omega;
        }
    }
    (r, l)
}

/// A local ground plane to be meshed into return strips.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlaneSpec {
    /// Height of the plane's bottom face (µm).
    pub z_bottom: f64,
    /// Plane metal thickness (µm).
    pub thickness: f64,
    /// Transverse coordinate of the plane's left edge (µm).
    pub transverse_origin: f64,
    /// Total plane width (µm).
    pub width: f64,
    /// Number of strips the plane is meshed into.
    pub strips: usize,
    /// Plane resistivity (Ω·m).
    pub rho: f64,
}

impl PlaneSpec {
    /// Meshes the plane into `strips` parallel bars along `axis` spanning
    /// `[axial_origin, axial_origin + length]`.
    pub fn to_bars(&self, axis: Axis, axial_origin: f64, length: f64) -> Vec<Bar> {
        let n = self.strips.max(1);
        let sw = self.width / n as f64;
        (0..n)
            .map(|i| {
                let t = self.transverse_origin + i as f64 * sw;
                let origin = match axis {
                    Axis::X => Point3::new(axial_origin, t, self.z_bottom),
                    Axis::Y => Point3::new(t, axial_origin, self.z_bottom),
                };
                Bar::new(origin, axis, length, sw, self.thickness)
                    .expect("plane dimensions positive")
            })
            .collect()
    }
}

/// Result of a block extraction.
#[derive(Debug, Clone)]
pub struct BlockExtraction {
    /// DC partial-inductance matrix over the block's traces (H),
    /// T1..Tn order — what Foundations 1 & 2 are stated about.
    pub lp: Matrix,
    /// DC resistance per trace (Ω).
    pub r_dc: Vec<f64>,
    /// Loop resistance matrix over the **signal** traces (Ω) at the
    /// extraction frequency.
    pub loop_r: Matrix,
    /// Loop inductance matrix over the **signal** traces (H) at the
    /// extraction frequency — the quantity the paper stores in its
    /// microstrip/stripline tables.
    pub loop_l: Matrix,
    /// The extraction frequency (Hz).
    pub frequency: f64,
}

/// Extracts [`Block`]s placed in a [`Stackup`] layer — the substitute for
/// "invoke Raphael RI3 on the structure".
///
/// The extractor owns everything that is *not* per-block: the stackup, the
/// layer, the significant frequency, filament mesh density and plane
/// meshing parameters. [`BlockExtractor::extract`] then maps a block to a
/// [`BlockExtraction`].
#[derive(Debug, Clone)]
pub struct BlockExtractor {
    stackup: Stackup,
    layer_index: usize,
    frequency: f64,
    mesh: MeshSpec,
    plane_margin_factor: f64,
    plane_strips: Option<usize>,
    backend: SolverBackend,
}

impl BlockExtractor {
    /// Creates an extractor for blocks routed in `layer_index` of `stackup`,
    /// with defaults: 3.2 GHz significant frequency (100 ps edges), a 3×2
    /// filament mesh, plane margin factor 1.0 and 12 plane strips.
    ///
    /// # Errors
    ///
    /// Returns [`PeecError::Geometry`] if the layer does not exist.
    pub fn new(stackup: Stackup, layer_index: usize) -> Result<Self> {
        stackup.layer(layer_index)?;
        Ok(BlockExtractor {
            stackup,
            layer_index,
            frequency: 3.2e9,
            mesh: MeshSpec::default(),
            plane_margin_factor: 1.0,
            plane_strips: None,
            backend: SolverBackend::Auto,
        })
    }

    /// Sets the extraction (significant) frequency in Hz.
    #[must_use]
    pub fn frequency(mut self, f: f64) -> Self {
        self.frequency = f;
        self
    }

    /// Sets the filament mesh used for every trace.
    #[must_use]
    pub fn mesh(mut self, mesh: MeshSpec) -> Self {
        self.mesh = mesh;
        self
    }

    /// Sets how far the meshed plane extends beyond each side of the block,
    /// as a multiple of the block's total width.
    #[must_use]
    pub fn plane_margin_factor(mut self, factor: f64) -> Self {
        self.plane_margin_factor = factor;
        self
    }

    /// Sets the number of strips each ground plane is meshed into.
    ///
    /// When not set explicitly, the extractor uses 12 strips on the dense
    /// default path, and 24 when the [`SolverBackend::Iterative`] fast path
    /// is requested — the matrix-free solve makes the finer plane
    /// resolution affordable.
    #[must_use]
    pub fn plane_strips(mut self, strips: usize) -> Self {
        self.plane_strips = Some(strips.max(1));
        self
    }

    /// Selects the filament-level solver backend used by [`extract`].
    ///
    /// [`extract`]: BlockExtractor::extract
    #[must_use]
    pub fn backend(mut self, backend: SolverBackend) -> Self {
        self.backend = backend;
        self
    }

    /// The plane strip count [`extract`] will actually use: the explicit
    /// setting if any, otherwise 24 for the iterative backend and 12 for
    /// dense/auto.
    ///
    /// [`extract`]: BlockExtractor::extract
    pub fn effective_plane_strips(&self) -> usize {
        match (self.plane_strips, self.backend) {
            (Some(strips), _) => strips,
            (None, SolverBackend::Iterative) => 24,
            (None, _) => 12,
        }
    }

    /// The extraction frequency (Hz).
    pub fn extraction_frequency(&self) -> f64 {
        self.frequency
    }

    /// Borrows the stackup.
    pub fn stackup(&self) -> &Stackup {
        &self.stackup
    }

    /// Extracts a block: materialize traces in the layer, mesh the plane(s)
    /// demanded by the block's [`ShieldConfig`], run the filament solve at
    /// the significant frequency, and reduce to loop R/L over the signal
    /// traces with AC-ground traces (+ plane strips) as the merged return.
    ///
    /// # Errors
    ///
    /// * [`PeecError::Geometry`] if a required plane layer (N±2) does not
    ///   exist in the stackup,
    /// * solver errors propagated from the filament solve.
    pub fn extract(&self, block: &Block) -> Result<BlockExtraction> {
        self.extract_memo(block, None)
    }

    /// [`BlockExtractor::extract`] with the partial-inductance matrix and
    /// the dense filament solve taking their mutual GMDs from `memo` when
    /// one is given (see [`GmdMemo`]). Bit-identical either way; the table
    /// builder shares one memo across every block of a characterization.
    ///
    /// # Errors
    ///
    /// Same as [`BlockExtractor::extract`].
    pub fn extract_memo(&self, block: &Block, memo: Option<&GmdMemo>) -> Result<BlockExtraction> {
        let _span = rlcx_numeric::obs::span("peec.block_extract");
        rlcx_numeric::obs::counter_add("peec.block_extracts", 1);
        let layer = self.stackup.layer(self.layer_index)?;
        let trace_bars = block.to_bars(layer, Axis::X, 0.0, 0.0);
        let rho = layer.resistivity();

        // Trace-only partial extraction (Foundations 1 & 2 live here).
        let trace_sys: PartialSystem = trace_bars
            .iter()
            .map(|&bar| Conductor::new(bar, rho).expect("validated rho"))
            .collect();
        let lp = trace_sys.lp_matrix_memo(thread_count(), memo);
        let r_dc = trace_sys.dc_resistances();

        // Full system: traces + plane strips (if any).
        let mut sys = trace_sys;
        let n_traces = block.trace_count();
        let mut grounds: Vec<usize> = block.ground_indices();
        let plane_width = block.total_width() * (1.0 + 2.0 * self.plane_margin_factor);
        let plane_t0 = -block.total_width() * self.plane_margin_factor;
        let strips = self.effective_plane_strips();
        let add_plane = |sys: &mut PartialSystem, plane_layer: &rlcx_geom::Layer| {
            let spec = PlaneSpec {
                z_bottom: plane_layer.z_bottom(),
                thickness: plane_layer.thickness(),
                transverse_origin: plane_t0,
                width: plane_width,
                strips,
                rho: plane_layer.resistivity(),
            };
            for bar in spec.to_bars(Axis::X, 0.0, block.length()) {
                sys.push(Conductor::new(bar, spec.rho).expect("validated rho"));
            }
        };
        match block.shield() {
            ShieldConfig::Coplanar => {}
            ShieldConfig::PlaneBelow => {
                let pl = self.plane_layer(self.layer_index, -2)?;
                add_plane(&mut sys, &pl);
            }
            ShieldConfig::PlaneAbove => {
                let pl = self.plane_layer(self.layer_index, 2)?;
                add_plane(&mut sys, &pl);
            }
            ShieldConfig::PlaneBoth => {
                let below = self.plane_layer(self.layer_index, -2)?;
                add_plane(&mut sys, &below);
                let above = self.plane_layer(self.layer_index, 2)?;
                add_plane(&mut sys, &above);
            }
        }
        grounds.extend(n_traces..sys.len());

        // Traces get the configured filament mesh; plane strips stay single
        // filaments (the strip decomposition already resolves the plane's
        // transverse current distribution).
        let mesh = self.mesh;
        let z = sys.impedance_at_memo(
            self.frequency,
            |ci| {
                if ci < n_traces {
                    mesh
                } else {
                    MeshSpec::single()
                }
            },
            self.backend,
            memo,
        )?;
        let signals = block.signal_indices();
        let z_loop = loop_impedance(&z, &signals, &grounds)?;
        let omega = 2.0 * std::f64::consts::PI * self.frequency;
        let (loop_r, loop_l) = loop_rl(&z_loop, omega);
        Ok(BlockExtraction {
            lp,
            r_dc,
            loop_r,
            loop_l,
            frequency: self.frequency,
        })
    }

    fn plane_layer(&self, base: usize, offset: isize) -> Result<rlcx_geom::Layer> {
        let idx = base as isize + offset;
        if idx < 0 {
            return Err(PeecError::Geometry(rlcx_geom::GeomError::UnknownLayer {
                index: 0,
                available: self.stackup.layer_count(),
            }));
        }
        Ok(self.stackup.layer(idx as usize)?.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlcx_geom::units::RHO_COPPER;

    fn two_wire_z(ls: f64, lg: f64, m: f64, rs: f64, rg: f64, omega: f64) -> CMatrix {
        let mut z = CMatrix::zeros(2, 2);
        z[(0, 0)] = Complex::new(rs, omega * ls);
        z[(1, 1)] = Complex::new(rg, omega * lg);
        z[(0, 1)] = Complex::from_imag(omega * m);
        z[(1, 0)] = z[(0, 1)];
        z
    }

    #[test]
    fn one_signal_one_ground_is_textbook() {
        let (ls, lg, m) = (1.0e-9, 1.2e-9, 0.4e-9);
        let (rs, rg) = (2.0, 3.0);
        let omega = 2.0 * std::f64::consts::PI * 1e9;
        let z = two_wire_z(ls, lg, m, rs, rg, omega);
        let zl = loop_impedance(&z, &[0], &[1]).unwrap();
        let (r, l) = loop_rl(&zl, omega);
        assert!((l[(0, 0)] - (ls + lg - 2.0 * m)).abs() / (ls + lg) < 1e-12);
        assert!((r[(0, 0)] - (rs + rg)).abs() < 1e-9);
    }

    #[test]
    fn two_identical_grounds_halve_the_return_contribution() {
        // Signal 0, grounds 1 and 2 identical and uncoupled from each other:
        // returns split evenly → L_loop = Ls + Lg/2 − 2M.
        let omega = 1e10;
        let (ls, lg, m) = (1.0e-9, 1.0e-9, 0.3e-9);
        let mut z = CMatrix::zeros(3, 3);
        z[(0, 0)] = Complex::from_imag(omega * ls);
        z[(1, 1)] = Complex::from_imag(omega * lg);
        z[(2, 2)] = Complex::from_imag(omega * lg);
        z[(0, 1)] = Complex::from_imag(omega * m);
        z[(1, 0)] = z[(0, 1)];
        z[(0, 2)] = Complex::from_imag(omega * m);
        z[(2, 0)] = z[(0, 2)];
        let zl = loop_impedance(&z, &[0], &[1, 2]).unwrap();
        let l = zl[(0, 0)].im / omega;
        assert!((l - (ls + lg / 2.0 - 2.0 * m)).abs() / ls < 1e-12);
    }

    #[test]
    fn partition_validation() {
        let z = CMatrix::identity(3);
        assert!(matches!(
            loop_impedance(&z, &[], &[1]),
            Err(PeecError::BadPartition { .. })
        ));
        assert!(loop_impedance(&z, &[0], &[]).is_err());
        assert!(loop_impedance(&z, &[0], &[0]).is_err()); // overlap
        assert!(loop_impedance(&z, &[0], &[7]).is_err()); // out of range
    }

    #[test]
    fn loop_matrix_is_symmetric_for_symmetric_input() {
        // Two signals between two grounds, symmetric placement.
        let omega = 1e10;
        let mut z = CMatrix::zeros(4, 4);
        let l = [1.0e-9, 1.0e-9, 1.1e-9, 1.1e-9]; // g, g, s, s
        for i in 0..4 {
            z[(i, i)] = Complex::from_imag(omega * l[i]);
        }
        let pairs = [
            ((0, 1), 0.2e-9),
            ((0, 2), 0.4e-9),
            ((0, 3), 0.3e-9),
            ((1, 2), 0.3e-9),
            ((1, 3), 0.4e-9),
            ((2, 3), 0.5e-9),
        ];
        for ((i, j), m) in pairs {
            z[(i, j)] = Complex::from_imag(omega * m);
            z[(j, i)] = z[(i, j)];
        }
        let zl = loop_impedance(&z, &[2, 3], &[0, 1]).unwrap();
        assert!((zl[(0, 1)] - zl[(1, 0)]).abs() < 1e-12 * zl[(0, 0)].abs());
        // Diagonals equal by the symmetric construction.
        assert!((zl[(0, 0)] - zl[(1, 1)]).abs() < 1e-9 * zl[(0, 0)].abs());
    }

    #[test]
    fn plane_spec_meshes_into_strips() {
        let spec = PlaneSpec {
            z_bottom: 3.0,
            thickness: 0.5,
            transverse_origin: -10.0,
            width: 40.0,
            strips: 8,
            rho: RHO_COPPER,
        };
        let bars = spec.to_bars(Axis::X, 0.0, 500.0);
        assert_eq!(bars.len(), 8);
        let total: f64 = bars.iter().map(Bar::width).sum();
        assert!((total - 40.0).abs() < 1e-9);
        assert_eq!(bars[0].transverse_span().0, -10.0);
        assert_eq!(bars[7].transverse_span().1, 30.0);
        for b in &bars {
            assert_eq!(b.vertical_span(), (3.0, 3.5));
            assert_eq!(b.length(), 500.0);
        }
    }

    #[test]
    fn extractor_cpw_loop_l_in_physical_band() {
        let stackup = Stackup::hp_six_metal_copper();
        let block = Block::coplanar_waveguide(1000.0, 10.0, 5.0, 1.0).unwrap();
        let ex = BlockExtractor::new(stackup, 5).unwrap().frequency(3.2e9);
        let out = ex.extract(&block).unwrap();
        // CPW loop inductance: a few hundred pH per mm.
        let l = out.loop_l[(0, 0)];
        assert!(l > 0.1e-9 && l < 1.5e-9, "L_loop = {l}");
        assert!(out.loop_r[(0, 0)] > 0.0);
        assert_eq!(out.lp.rows(), 3);
        assert_eq!(out.r_dc.len(), 3);
    }

    #[test]
    fn plane_below_reduces_loop_inductance() {
        let stackup = Stackup::hp_six_metal_copper();
        let cpw = Block::coplanar_waveguide(1000.0, 10.0, 5.0, 1.0).unwrap();
        let ms = cpw.with_shield(ShieldConfig::PlaneBelow);
        let ex = BlockExtractor::new(stackup, 5).unwrap().frequency(3.2e9);
        let l_cpw = ex.extract(&cpw).unwrap().loop_l[(0, 0)];
        let l_ms = ex.extract(&ms).unwrap().loop_l[(0, 0)];
        assert!(
            l_ms < l_cpw,
            "a nearby plane must shrink the loop: {l_ms} vs {l_cpw}"
        );
    }

    #[test]
    fn extractor_rejects_missing_plane_layer() {
        let stackup = Stackup::hp_six_metal_copper();
        // Layer 0 has no layer −2 below.
        let block = Block::coplanar_waveguide(500.0, 2.0, 2.0, 1.0)
            .unwrap()
            .with_shield(ShieldConfig::PlaneBelow);
        let ex = BlockExtractor::new(stackup, 0).unwrap();
        assert!(ex.extract(&block).is_err());
    }

    #[test]
    fn extractor_rejects_missing_layer() {
        assert!(BlockExtractor::new(Stackup::hp_six_metal_copper(), 11).is_err());
    }
}
