//! Table characterization: driving the field solver over geometry grids.
//!
//! This is the "pre-compute inductance tables" half of the paper's method
//! (Section III): for each layer, run the 3-D solver — our PEEC engine in
//! place of Raphael RI3 — at the significant frequency over grids of widths,
//! spacings and lengths, and store the results for spline lookup.
//!
//! "Only 2-trace subproblems need to be solved, because results to 1-trace
//! subproblems are parts of results to 2-trace subproblems" — we still
//! characterize the self table from 1-trace solves because our solver makes
//! them equally cheap, and it keeps the self table exact for isolated wide
//! traces.

use crate::cache::TableCache;
use crate::table::{InductanceTables, LoopLTable, MutualLTable, SelfLTable};
use crate::Result;
use rlcx_geom::{Axis, Bar, Block, Point3, ShieldConfig, Stackup};
use rlcx_numeric::obs;
use rlcx_numeric::parallel::{balanced_index, par_map};
use rlcx_peec::{BlockExtractor, Conductor, GmdMemo, MeshSpec, PartialSystem, SolverBackend};
use std::fmt::Write as _;
use std::path::Path;

/// Builds [`InductanceTables`] for one routing layer of a stackup.
///
/// # Example
///
/// See the crate-level example.
#[derive(Debug, Clone)]
pub struct TableBuilder {
    stackup: Stackup,
    layer_index: usize,
    frequency: f64,
    mesh: MeshSpec,
    widths: Vec<f64>,
    spacings: Vec<f64>,
    lengths: Vec<f64>,
    shields: Vec<ShieldConfig>,
    ground_width_ratio: f64,
    loop_spacing: f64,
    plane_strips: usize,
    backend: SolverBackend,
}

impl TableBuilder {
    /// Creates a builder with representative defaults for a late-1990s
    /// clock layer: widths {1, 2, 5, 10, 20} µm, spacings {0.5, 1, 2, 5} µm,
    /// lengths {100 … 6400} µm (doubling), 3.2 GHz significant frequency,
    /// coplanar loop table only, equal-width grounds at 1 µm.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CoreError::Geometry`] if the layer does not exist.
    pub fn new(stackup: Stackup, layer_index: usize) -> Result<Self> {
        stackup.layer(layer_index)?;
        Ok(TableBuilder {
            stackup,
            layer_index,
            frequency: 3.2e9,
            mesh: MeshSpec::default(),
            widths: vec![1.0, 2.0, 5.0, 10.0, 20.0],
            spacings: vec![0.5, 1.0, 2.0, 5.0],
            lengths: vec![100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0, 6400.0],
            shields: vec![ShieldConfig::Coplanar],
            ground_width_ratio: 1.0,
            loop_spacing: 1.0,
            plane_strips: 10,
            backend: SolverBackend::Auto,
        })
    }

    /// Sets the characterization (significant) frequency (Hz).
    #[must_use]
    pub fn frequency(mut self, f: f64) -> Self {
        self.frequency = f;
        self
    }

    /// Sets the filament mesh used for traces during characterization.
    #[must_use]
    pub fn mesh(mut self, mesh: MeshSpec) -> Self {
        self.mesh = mesh;
        self
    }

    /// Sets the width axis (µm, strictly increasing).
    #[must_use]
    pub fn widths(mut self, widths: Vec<f64>) -> Self {
        self.widths = widths;
        self
    }

    /// Sets the spacing axis for the mutual table (µm).
    #[must_use]
    pub fn spacings(mut self, spacings: Vec<f64>) -> Self {
        self.spacings = spacings;
        self
    }

    /// Sets the length axis (µm).
    #[must_use]
    pub fn lengths(mut self, lengths: Vec<f64>) -> Self {
        self.lengths = lengths;
        self
    }

    /// Sets which shield configurations get loop tables.
    #[must_use]
    pub fn shields(mut self, shields: Vec<ShieldConfig>) -> Self {
        self.shields = shields;
        self
    }

    /// Sets the ground-to-signal width ratio of the loop characterization
    /// structure (≥ 1 per the paper's shielding rule).
    #[must_use]
    pub fn ground_width_ratio(mut self, ratio: f64) -> Self {
        self.ground_width_ratio = ratio;
        self
    }

    /// Sets the signal-to-ground spacing of the loop structure (µm).
    #[must_use]
    pub fn loop_spacing(mut self, spacing: f64) -> Self {
        self.loop_spacing = spacing;
        self
    }

    /// Sets the number of strips ground planes are meshed into.
    #[must_use]
    pub fn plane_strips(mut self, strips: usize) -> Self {
        self.plane_strips = strips.max(1);
        self
    }

    /// Selects the filament-level solver backend every characterization
    /// solve runs on. The default [`SolverBackend::Auto`] picks dense below
    /// the matrix-free cutover, so characterization results are unchanged
    /// unless a table is built with meshes large enough to benefit.
    #[must_use]
    pub fn backend(mut self, backend: SolverBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Runs the characterization and assembles the tables.
    ///
    /// Every grid point is an independent PEEC solve, so the three sweeps
    /// (self, mutual, loop) each fan out over the flattened point list via
    /// [`par_map`]; results land back in grid order, so the tables are
    /// identical to a serial sweep.
    ///
    /// All solves of one build share a [`GmdMemo`]: the cross-section GMD
    /// of a filament pair does not depend on length, and the mesh and
    /// transverse coordinates repeat along the length axis, so most of the
    /// near-field quadratures are computed once per build instead of once
    /// per solve. Memoized values carry the same bits as computed ones, so
    /// the tables are identical to un-memoized solves. The memo is dropped
    /// when the build returns; its hit and miss totals are published as the
    /// `table.gmd.hits` and `table.gmd.misses` counters.
    ///
    /// # Errors
    ///
    /// Propagates solver errors; returns [`crate::CoreError::BadAxis`] for invalid
    /// axes.
    pub fn build(&self) -> Result<InductanceTables> {
        let _span = obs::span("table.build");
        let memo = GmdMemo::new();
        let built = self.characterize(&memo);
        let (hits, misses) = memo.stats();
        obs::counter_add("table.gmd.hits", hits);
        obs::counter_add("table.gmd.misses", misses);
        built
    }

    /// The three sweeps of [`TableBuilder::build`], sharing `memo`, each
    /// under its own span (`table.self`, `table.mutual`, `table.loop`).
    fn characterize(&self, memo: &GmdMemo) -> Result<InductanceTables> {
        let self_l = obs::with_span("table.self", || self.characterize_self(memo))?;
        let mutual_l = obs::with_span("table.mutual", || self.characterize_mutual(memo))?;
        let loop_tables = obs::with_span("table.loop", || self.characterize_loops(memo))?;
        let tables = InductanceTables::new(self_l, mutual_l, loop_tables, self.frequency);
        obs::gauge_set("spline.max_resid", self_table_knot_residual(&tables.self_l));
        Ok(tables)
    }

    /// Self table: 1-trace solves at the significant frequency, one grid
    /// point per parallel work item.
    fn characterize_self(&self, memo: &GmdMemo) -> Result<SelfLTable> {
        let layer = self.stackup.layer(self.layer_index)?;
        let (rho, t, z) = (layer.resistivity(), layer.thickness(), layer.z_bottom());
        let nl = self.lengths.len();
        let n_points = self.widths.len() * nl;
        obs::counter_add("table.points.self", n_points as u64);
        let points = par_map(n_points, |p| -> Result<f64> {
            let (w, len) = (self.widths[p / nl], self.lengths[p % nl]);
            let bar = Bar::new(Point3::new(0.0, 0.0, z), Axis::X, len, w, t)?;
            let sys: PartialSystem = [Conductor::new(bar, rho)?].into_iter().collect();
            let (_, l) = sys.rl_at_memo(self.frequency, self.mesh, self.backend, Some(memo))?;
            Ok(l[(0, 0)])
        });
        let mut self_grid = Vec::with_capacity(self.widths.len());
        let mut it = points.into_iter();
        for _ in 0..self.widths.len() {
            self_grid.push(it.by_ref().take(nl).collect::<Result<Vec<f64>>>()?);
        }
        SelfLTable::from_grid(self.widths.clone(), self.lengths.clone(), self_grid)
    }

    /// Mutual table: 2-trace solves, symmetric in the width pair — only the
    /// `i ≤ j` pairs are solved, flattened with spacing × length into the
    /// parallel point list, then mirrored.
    fn characterize_mutual(&self, memo: &GmdMemo) -> Result<MutualLTable> {
        let layer = self.stackup.layer(self.layer_index)?;
        let (rho, t, z) = (layer.resistivity(), layer.thickness(), layer.z_bottom());
        let nw = self.widths.len();
        let (ns, nl) = (self.spacings.len(), self.lengths.len());
        let pairs: Vec<(usize, usize)> =
            (0..nw).flat_map(|i| (i..nw).map(move |j| (i, j))).collect();
        let n_points = pairs.len() * ns * nl;
        obs::counter_add("table.points.mutual", n_points as u64);
        // Solve cost grows superlinearly with the length axis, and the flat
        // point list keeps all long-trace points adjacent — interleave work
        // items through `balanced_index` so every worker draws a mix of
        // cheap and expensive solves, then scatter back into grid order.
        let interleaved = par_map(n_points, |k| -> Result<(usize, f64)> {
            let p = balanced_index(k, n_points);
            let (i, j) = pairs[p / (ns * nl)];
            let s = self.spacings[p / nl % ns];
            let len = self.lengths[p % nl];
            let a = Bar::new(Point3::new(0.0, 0.0, z), Axis::X, len, self.widths[i], t)?;
            let b = Bar::new(
                Point3::new(0.0, self.widths[i] + s, z),
                Axis::X,
                len,
                self.widths[j],
                t,
            )?;
            let sys: PartialSystem = [Conductor::new(a, rho)?, Conductor::new(b, rho)?]
                .into_iter()
                .collect();
            let (_, l) = sys.rl_at_memo(self.frequency, self.mesh, self.backend, Some(memo))?;
            Ok((p, l[(0, 1)]))
        });
        let mut points = vec![0.0f64; n_points];
        for item in interleaved {
            let (p, v) = item?;
            points[p] = v;
        }
        let mut mutual_grid = vec![vec![Vec::<Vec<f64>>::new(); nw]; nw];
        let mut it = points.into_iter();
        for &(i, j) in &pairs {
            let mut per_spacing = Vec::with_capacity(ns);
            for _ in 0..ns {
                per_spacing.push(it.by_ref().take(nl).collect::<Vec<f64>>());
            }
            mutual_grid[i][j] = per_spacing.clone();
            mutual_grid[j][i] = per_spacing;
        }
        MutualLTable::from_grid(
            self.widths.clone(),
            self.spacings.clone(),
            self.lengths.clone(),
            mutual_grid,
        )
    }

    /// Loop tables: full G-S-G (+ plane) block extraction per config, one
    /// (width, length) grid point per parallel work item.
    fn characterize_loops(&self, memo: &GmdMemo) -> Result<Vec<LoopLTable>> {
        let extractor = BlockExtractor::new(self.stackup.clone(), self.layer_index)?
            .frequency(self.frequency)
            .mesh(self.mesh)
            .plane_strips(self.plane_strips)
            .backend(self.backend);
        let nl = self.lengths.len();
        let mut loop_tables = Vec::with_capacity(self.shields.len());
        for &shield in &self.shields {
            let n_points = self.widths.len() * nl;
            obs::counter_add("table.points.loop", n_points as u64);
            let points = par_map(n_points, |p| -> Result<(f64, f64)> {
                let (w, len) = (self.widths[p / nl], self.lengths[p % nl]);
                let block = Block::coplanar_waveguide(
                    len,
                    w,
                    w * self.ground_width_ratio,
                    self.loop_spacing,
                )?
                .with_shield(shield);
                let out = extractor.extract_memo(&block, Some(memo))?;
                Ok((out.loop_l[(0, 0)], out.loop_r[(0, 0)]))
            });
            let mut l_grid = Vec::with_capacity(self.widths.len());
            let mut r_grid = Vec::with_capacity(self.widths.len());
            let mut it = points.into_iter();
            for _ in 0..self.widths.len() {
                let rl: Vec<(f64, f64)> = it.by_ref().take(nl).collect::<Result<_>>()?;
                l_grid.push(rl.iter().map(|&(l, _)| l).collect());
                r_grid.push(rl.iter().map(|&(_, r)| r).collect());
            }
            loop_tables.push(LoopLTable::from_grid(
                shield,
                self.ground_width_ratio,
                self.loop_spacing,
                self.widths.clone(),
                self.lengths.clone(),
                l_grid,
                r_grid,
            )?);
        }
        Ok(loop_tables)
    }

    /// Content-hash key identifying this characterization: any change to
    /// the stackup, target layer, frequency, mesh, axes, shield set or loop
    /// geometry changes the key. Used by [`TableBuilder::build_cached`] to
    /// decide whether a stored table file is still valid.
    pub fn cache_key(&self) -> String {
        // A canonical description of every input the solves depend on.
        // f64s are rendered as exact bit patterns so "close" configurations
        // can never collide.
        let mut desc = String::from("rlcx-table-cache v1\n");
        let _ = writeln!(desc, "eps_r {:016x}", self.stackup.eps_r().to_bits());
        for layer in &self.stackup {
            let _ = writeln!(
                desc,
                "layer {} {:016x} {:016x} {:016x}",
                layer.name(),
                layer.z_bottom().to_bits(),
                layer.thickness().to_bits(),
                layer.resistivity().to_bits()
            );
        }
        let _ = writeln!(desc, "layer_index {}", self.layer_index);
        let _ = writeln!(desc, "frequency {:016x}", self.frequency.to_bits());
        let _ = writeln!(desc, "mesh {} {}", self.mesh.nw(), self.mesh.nt());
        for (name, axis) in [
            ("widths", &self.widths),
            ("spacings", &self.spacings),
            ("lengths", &self.lengths),
        ] {
            let _ = write!(desc, "{name}");
            for v in axis {
                let _ = write!(desc, " {:016x}", v.to_bits());
            }
            desc.push('\n');
        }
        let _ = write!(desc, "shields");
        for &s in &self.shields {
            let _ = write!(desc, " {}", crate::io::shield_name(s));
        }
        desc.push('\n');
        let _ = writeln!(
            desc,
            "ground_width_ratio {:016x}",
            self.ground_width_ratio.to_bits()
        );
        let _ = writeln!(desc, "loop_spacing {:016x}", self.loop_spacing.to_bits());
        let _ = writeln!(desc, "plane_strips {}", self.plane_strips);
        let _ = writeln!(desc, "backend {}", self.backend.name());
        if self.backend != SolverBackend::Dense {
            // The fast-operator numerics changed when the H² far field and
            // batched kernels landed; invalidate tables that may have been
            // characterized through the pre-H² iterative path. Dense-backend
            // tables are bit-identical across that change and keep their key.
            let _ = writeln!(desc, "fastop h2-v2");
        }
        format!("{:016x}", crate::cache::fnv1a64(desc.as_bytes()))
    }

    /// Builds the tables through the persistent cache in `dir`: on a key
    /// hit the stored tables are loaded and the field solver never runs; on
    /// a miss (no file, version/key mismatch, or corrupt file) the tables
    /// are characterized as in [`TableBuilder::build`] and stored.
    ///
    /// # Errors
    ///
    /// Same as [`TableBuilder::build`], plus an error if the cache file
    /// cannot be written. A corrupt or stale cache file is not an error —
    /// it is silently rebuilt.
    pub fn build_cached(&self, dir: impl AsRef<Path>) -> Result<CachedBuild> {
        let cache = TableCache::new(dir);
        let key = self.cache_key();
        match cache.lookup(&key) {
            Ok(tables) => Ok(CachedBuild {
                tables,
                cache_hit: true,
                miss_reason: None,
            }),
            Err(reason) => {
                let tables = self.build()?;
                cache.store(&key, &tables)?;
                Ok(CachedBuild {
                    tables,
                    cache_hit: false,
                    miss_reason: Some(reason),
                })
            }
        }
    }
}

/// The outcome of [`TableBuilder::build_cached`].
#[derive(Debug, Clone)]
pub struct CachedBuild {
    /// The characterized (or cache-loaded) tables.
    pub tables: InductanceTables,
    /// True when the tables came from the cache and no solve ran.
    pub cache_hit: bool,
    /// On a miss, why the probe failed (`None` on a hit).
    pub miss_reason: Option<crate::cache::CacheMiss>,
}

/// Worst relative disagreement between the self table's spline lookup and
/// its own knot values. Interpolating splines should reproduce their knots
/// to round-off; a large residual flags a broken fit, so the value is
/// published as the `spline.max_resid` gauge at every build.
fn self_table_knot_residual(table: &SelfLTable) -> f64 {
    let mut max_resid = 0.0f64;
    for (i, &w) in table.widths().iter().enumerate() {
        for (j, &len) in table.lengths().iter().enumerate() {
            let truth = table.grid()[i][j];
            let resid = (table.lookup(w, len) - truth).abs() / truth.abs().max(f64::MIN_POSITIVE);
            max_resid = max_resid.max(resid);
        }
    }
    max_resid
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CoreError;
    use rlcx_peec::partial::self_partial_ruehli;

    fn small_builder() -> TableBuilder {
        TableBuilder::new(Stackup::hp_six_metal_copper(), 5)
            .unwrap()
            .widths(vec![2.0, 5.0, 10.0])
            .spacings(vec![0.5, 1.0, 2.0])
            .lengths(vec![200.0, 400.0, 800.0])
            .mesh(MeshSpec::new(2, 1))
    }

    #[test]
    fn build_small_tables_and_lookup() {
        let tables = small_builder().build().unwrap();
        // Self table values track the closed form at low-ish frequency to
        // within the skin-effect correction (a few percent).
        let l_tab = tables.self_l.lookup(5.0, 400.0);
        let l_ruehli = self_partial_ruehli(400.0, 5.0, 2.0);
        assert!(
            (l_tab - l_ruehli).abs() / l_ruehli < 0.08,
            "{l_tab} vs {l_ruehli}"
        );
        // Mutual lookup is positive and below self.
        let m = tables.mutual_l.lookup(5.0, 5.0, 1.0, 400.0);
        assert!(m > 0.0 && m < l_tab);
        // Loop table present for the default coplanar config.
        let lt = tables.loop_table(ShieldConfig::Coplanar).unwrap();
        let l_loop = lt.lookup_l(5.0, 400.0);
        assert!(l_loop > 0.0);
        // Loop L exceeds the *partial* self L minus mutual couplings — in
        // fact for a CPW, L_loop ≈ Ls + Lg/2 − 2M: check the physical band.
        assert!(
            l_loop < 2.0 * l_tab && l_loop > 0.1 * l_tab,
            "L_loop = {l_loop}"
        );
    }

    #[test]
    fn interpolation_matches_direct_solve_between_grid_points() {
        let tables = small_builder().build().unwrap();
        // Direct 1-trace solve at an off-grid point.
        let stack = Stackup::hp_six_metal_copper();
        let layer = stack.layer(5).unwrap();
        let bar = Bar::new(
            Point3::new(0.0, 0.0, layer.z_bottom()),
            Axis::X,
            600.0,
            7.0,
            layer.thickness(),
        )
        .unwrap();
        let sys: PartialSystem = [Conductor::new(bar, layer.resistivity()).unwrap()]
            .into_iter()
            .collect();
        let (_, l) = sys.rl_at(3.2e9, MeshSpec::new(2, 1)).unwrap();
        let direct = l[(0, 0)];
        let table = tables.self_l.lookup(7.0, 600.0);
        let rel = (table - direct).abs() / direct;
        assert!(rel < 0.03, "table {table} vs direct {direct}: rel {rel}");
    }

    #[test]
    fn loop_tables_for_multiple_shields() {
        let tables = small_builder()
            .shields(vec![ShieldConfig::Coplanar, ShieldConfig::PlaneBelow])
            .plane_strips(6)
            .build()
            .unwrap();
        let cpw = tables.loop_table(ShieldConfig::Coplanar).unwrap();
        let ms = tables.loop_table(ShieldConfig::PlaneBelow).unwrap();
        for &w in &[2.0, 5.0, 10.0] {
            for &len in &[200.0, 400.0, 800.0] {
                let ratio = ms.lookup_l(w, len) / cpw.lookup_l(w, len);
                // The plane can never raise loop L materially; for wide
                // signals (whose in-layer grounds are no tighter than the
                // plane) it must clearly reduce it.
                assert!(
                    ratio < 1.01,
                    "plane raised loop L at w={w}, len={len}: {ratio}"
                );
                if w >= 5.0 {
                    assert!(
                        ratio < 0.95,
                        "plane should help wide signals: w={w}, len={len}, {ratio}"
                    );
                }
            }
        }
    }

    #[test]
    fn bad_axes_are_rejected_at_build() {
        let b = small_builder().widths(vec![5.0]);
        assert!(matches!(b.build(), Err(CoreError::BadAxis { .. })));
        let b = small_builder().lengths(vec![400.0, 200.0]);
        assert!(b.build().is_err());
    }

    #[test]
    fn missing_layer_rejected() {
        assert!(TableBuilder::new(Stackup::hp_six_metal_copper(), 10).is_err());
    }

    #[test]
    fn superlinearity_preserved_by_table() {
        let tables = small_builder().build().unwrap();
        let l1 = tables.self_l.lookup(10.0, 400.0);
        let l2 = tables.self_l.lookup(10.0, 800.0);
        assert!(
            l2 / l1 > 2.05,
            "table should preserve super-linear growth: {}",
            l2 / l1
        );
    }
}
