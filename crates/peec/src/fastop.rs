//! Matrix-free fast PEEC operator: translation-invariance kernel caching,
//! hierarchical low-rank far-field compression (flat ACA or H² nested
//! bases) and a block-diagonal preconditioner for the GMRES solve path.
//!
//! The dense path in [`crate::solver`] assembles the full `n × n` filament
//! impedance matrix (`n²` GMD quadratures) and factors it (`n³`). This
//! module replaces both costs for large meshes:
//!
//! * **Kernel caching** ([`KernelCache`]) — a uniform filament mesh of
//!   parallel equal-span conductors contains only `O(#distinct offsets)`
//!   geometrically distinct pairs. Partial-inductance values are memoized
//!   by the canonicalized relative placement `(w1, t1, w2, t2, dt, dz)`,
//!   collapsing the `O(n²)` quadratures of the dense assembly to the few
//!   thousand distinct ones. Block fills go through
//!   [`KernelCache::fill_block`], which batches every missing quadrature
//!   into one [`crate::partial::mutual_partial_batch`] call so the hot
//!   4-D GMD loop runs over contiguous SoA lanes.
//! * **Near/far splitting** ([`FastZOperator`]) — a bisection cluster
//!   tree over cross-section centers partitions the interaction matrix;
//!   blocks whose clusters are well separated (gap ≥ η·max diam) are
//!   compressed, everything else stays exact. Two far-field
//!   representations exist, selected by [`Compression`]:
//!   [`Compression::FlatAca`] gives every admissible block its own
//!   low-rank `U·Vᵀ` factor by adaptive cross approximation (`O(n log n)`
//!   far memory), while the default [`Compression::H2`] routes admissible
//!   pairs whose gap also clears `4×` the largest cross-section dimension
//!   (so every filament pair is in the far GMD branch) into an H²
//!   structure with *nested* per-cluster bases and tiny skeleton coupling
//!   matrices — see the `h2` module — dropping far-field memory and matvec
//!   cost toward `O(n)`. Admissible pairs too close for the all-far
//!   guarantee keep the flat ACA treatment. The operator then applies
//!   `Z·x = R∘x + jω(Lp·x)` without ever forming `Lp`.
//! * **Preconditioning** ([`BlockDiagPrecond`]) — the per-conductor
//!   diagonal blocks of `Z` (the dominant couplings) are factored exactly
//!   with [`CLuDecomposition`] and applied as a right preconditioner, so
//!   GMRES converges in tens of iterations and minimizes the *true*
//!   residual.
//!
//! [`SolverBackend`] selects between this path and the dense one;
//! [`SolverBackend::Auto`] keeps dense below [`iterative_cutover`]
//! filaments (default [`ITERATIVE_CUTOVER`], overridable via the
//! `RLCX_PEEC_CUTOVER` environment variable) so all pre-existing results
//! stay bit-identical.
//!
//! Metrics: `fastop.kernel.hits` / `fastop.kernel.misses` and
//! `aca.rank_cap.hits` (counters), `aca.rank` / `h2.basis.rank`
//! (histograms), `fastop.near.blocks` / `fastop.far.blocks` /
//! `fastop.dense.fallbacks` / `fastop.far.mem.f64` (gauges), the
//! `aca.rank` / `h2.rank` series channels, and `gmres.iters` (histogram,
//! one observation per Krylov solve).

use crate::gmd;
use crate::h2;
use crate::memo::{self, ShardedMemo};
use crate::partial::{
    dc_resistance, mutual_partial_batch, mutual_partial_relative, self_partial, PairGeom,
};
use crate::{PeecError, Result};
use rlcx_geom::Bar;
use rlcx_numeric::gmres::{gmres, GmresOptions, LinearOperator};
use rlcx_numeric::lu::CLuDecomposition;
use rlcx_numeric::pool::{self, SendPtr};
use rlcx_numeric::{obs, par_map, thread_count, CMatrix, Complex};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::OnceLock;

/// Which engine [`crate::PartialSystem`] uses for the filament-level solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverBackend {
    /// Always assemble and factor the dense filament matrix.
    Dense,
    /// Always use the matrix-free GMRES path.
    Iterative,
    /// Dense below [`iterative_cutover`] filaments (bit-identical to the
    /// pre-existing dense results), iterative above.
    #[default]
    Auto,
}

/// Default filament count at which [`SolverBackend::Auto`] switches to the
/// iterative path. Below this the dense LU is fast and its results are the
/// historical reference; above it the O(n³) factor dominates and the
/// Krylov path wins. Override per process with the `RLCX_PEEC_CUTOVER`
/// environment variable — see [`iterative_cutover`].
pub const ITERATIVE_CUTOVER: usize = 420;

/// The effective [`SolverBackend::Auto`] cutover: `RLCX_PEEC_CUTOVER` when
/// set to a positive integer, [`ITERATIVE_CUTOVER`] otherwise. The batched
/// kernels shift the dense/iterative crossover per machine, so deployments
/// can tune it without a rebuild. Invalid values warn once on stderr and
/// fall back to the default; the variable is read once per process.
pub fn iterative_cutover() -> usize {
    static CUTOVER: OnceLock<usize> = OnceLock::new();
    *CUTOVER.get_or_init(|| cutover_from(std::env::var("RLCX_PEEC_CUTOVER").ok().as_deref()))
}

/// Pure parsing core of [`iterative_cutover`]: `None` or an empty string
/// means "unset", anything that is not a positive integer is rejected with
/// a warning.
fn cutover_from(raw: Option<&str>) -> usize {
    let Some(s) = raw else {
        return ITERATIVE_CUTOVER;
    };
    let trimmed = s.trim();
    if trimmed.is_empty() {
        return ITERATIVE_CUTOVER;
    }
    match trimmed.parse::<usize>() {
        Ok(v) if v >= 1 => v,
        _ => {
            eprintln!(
                "rlcx: ignoring invalid RLCX_PEEC_CUTOVER={s:?} \
                 (expected a positive integer); using default {ITERATIVE_CUTOVER}"
            );
            ITERATIVE_CUTOVER
        }
    }
}

impl SolverBackend {
    /// Resolves the backend choice for a system of `n_filaments`.
    pub fn is_iterative(self, n_filaments: usize) -> bool {
        match self {
            SolverBackend::Dense => false,
            SolverBackend::Iterative => true,
            SolverBackend::Auto => n_filaments >= iterative_cutover(),
        }
    }

    /// Stable lowercase name, used in cache keys and reports.
    pub fn name(self) -> &'static str {
        match self {
            SolverBackend::Dense => "dense",
            SolverBackend::Iterative => "iterative",
            SolverBackend::Auto => "auto",
        }
    }
}

/// Far-field representation used by [`FastZOperator`] for admissible
/// cluster pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Compression {
    /// Flat H-matrix: every admissible block stores its own ACA `U·Vᵀ`
    /// factor.
    FlatAca,
    /// H² nested bases: one skeleton basis per cluster (children reused
    /// through transfer operators) plus small per-pair coupling matrices;
    /// admissible pairs that fail the stricter all-far-branch test stay on
    /// the flat ACA path.
    #[default]
    H2,
}

/// Tuning knobs for [`FastZOperator`].
#[derive(Debug, Clone, Copy)]
pub struct FastOpOptions {
    /// Cluster-tree leaf size (filaments per undivided cluster).
    pub leaf_size: usize,
    /// Admissibility parameter: clusters are far when their bounding-box
    /// gap is at least `eta ×` the larger box diameter.
    pub eta: f64,
    /// ACA / H² skeleton stopping tolerance relative to the estimated
    /// block (or sampled far-field) norm.
    pub aca_tol: f64,
    /// Rank cap per far block and per H² cluster basis; ACA blocks that
    /// fail to converge within it fall back to exact storage.
    pub max_rank: usize,
    /// Far-field representation for admissible pairs.
    pub compression: Compression,
    /// Far-field sample budget per cluster for the H² skeleton build.
    pub h2_sample_cap: usize,
}

impl Default for FastOpOptions {
    fn default() -> Self {
        FastOpOptions {
            leaf_size: 48,
            eta: 1.0,
            aca_tol: 1e-10,
            max_rank: 96,
            compression: Compression::H2,
            h2_sample_cap: 256,
        }
    }
}

impl FastOpOptions {
    /// Default options with the flat-ACA far field (the pre-H² behaviour).
    pub fn flat_aca() -> Self {
        FastOpOptions {
            compression: Compression::FlatAca,
            ..FastOpOptions::default()
        }
    }
}

/// Memoizes partial-inductance kernel evaluations by relative placement.
///
/// Valid for filament meshes in which every filament shares one axial span
/// (the configuration [`crate::PartialSystem`] enforces for frequency
/// solves): the mutual partial inductance of a pair then depends only on
/// the two cross-sections and their transverse/vertical offset. Keys are
/// the raw `f64` bit patterns of `(w1, t1, w2, t2, dt, dz)` canonicalized
/// under pair swap (`(w2, t2, w1, t1, −dt, −dz)` describes the same pair),
/// so each distinct geometry is evaluated exactly once and always in the
/// same orientation — lookups are deterministic to the bit.
///
/// The key carries a seventh element: the near/far GMD branch taken from
/// [`gmd::cross_section_is_far`] on the actual bars. Regular meshes place
/// pairs exactly at the 4× threshold, where absolute and relative center
/// distances can round to opposite sides; deciding the branch the same way
/// the dense path does (and caching per branch) keeps the memoized kernel
/// within quadrature round-off of [`crate::partial::mutual_partial`]
/// instead of picking up the ~1e-3 far-field approximation jump.
///
/// # Concurrency
///
/// The cache is shared by reference across the parallel operator build.
/// Its maps are the crate's sharded memo (also behind
/// [`crate::gmd::GmdMemo`]): 16 mutex shards selected by a deterministic
/// hash of the key, so tasks filling different blocks contend only when
/// their keys collide mod the shard count. The shard count is fixed —
/// independent of `RLCX_THREADS` — and every cached value is a pure
/// function of its key, so the stored bits (and anything computed from
/// them) are identical for any thread count even when two tasks race the
/// first touch of a key. Only the hit/miss *counters* can differ under
/// such a race (both tasks count a miss); they are diagnostics, not part
/// of the deterministic contract. On the serial path the accounting is
/// exactly the historical one.
pub struct KernelCache {
    length_um: f64,
    selves: ShardedMemo<2>,
    mutuals: ShardedMemo<7>,
}

/// Reusable scratch of [`KernelCache::fill_block`], thread-local so the
/// hot near-field path stops rebuilding its `pending_pos` HashMap (and
/// friends) on every call: after warm-up a fully-cached fill performs no
/// heap allocation at all (`tests/obs_overhead.rs` asserts this).
struct FillScratch {
    pending: Vec<([u64; 7], PairGeom)>,
    pending_pos: HashMap<[u64; 7], usize>,
    slots: Vec<(usize, usize)>,
    geoms: Vec<PairGeom>,
    vals: Vec<f64>,
}

thread_local! {
    static FILL_SCRATCH: RefCell<FillScratch> = RefCell::new(FillScratch {
        pending: Vec::new(),
        pending_pos: HashMap::new(),
        slots: Vec::new(),
        geoms: Vec::new(),
        vals: Vec::new(),
    });
}

/// Maps `-0.0` to `+0.0` before taking bits so the two zero encodings
/// cannot split one geometric key in two.
#[inline]
fn key_bits(x: f64) -> u64 {
    (x + 0.0).to_bits()
}

/// Canonical cache key and evaluation geometry of a filament pair: the
/// lexicographically smaller of the two swap-equivalent keys, so the
/// cached bits are independent of encounter order.
fn canonical_mutual(a: &Bar, b: &Bar) -> ([u64; 7], PairGeom) {
    let (ta, _) = a.transverse_span();
    let (za, _) = a.vertical_span();
    let (tb, _) = b.transverse_span();
    let (zb, _) = b.vertical_span();
    let fwd = (
        a.width(),
        a.thickness(),
        b.width(),
        b.thickness(),
        tb - ta,
        zb - za,
    );
    let rev = (fwd.2, fwd.3, fwd.0, fwd.1, -fwd.4, -fwd.5);
    let far = gmd::cross_section_is_far(a, b);
    let keyed = |g: (f64, f64, f64, f64, f64, f64)| {
        [
            key_bits(g.0),
            key_bits(g.1),
            key_bits(g.2),
            key_bits(g.3),
            key_bits(g.4),
            key_bits(g.5),
            far as u64,
        ]
    };
    let (kf, kr) = (keyed(fwd), keyed(rev));
    let (key, g) = if kr < kf { (kr, rev) } else { (kf, fwd) };
    (
        key,
        PairGeom {
            w1: g.0,
            t1: g.1,
            w2: g.2,
            t2: g.3,
            dt: g.4,
            dz: g.5,
            far,
        },
    )
}

impl KernelCache {
    /// Creates a cache for filaments of shared length `length_um` (µm).
    pub fn new(length_um: f64) -> Self {
        KernelCache {
            length_um,
            selves: ShardedMemo::default(),
            mutuals: ShardedMemo::default(),
        }
    }

    /// Shared axial span (µm) this cache evaluates kernels for.
    pub fn length_um(&self) -> f64 {
        self.length_um
    }

    /// Partial self inductance (H) of a filament, memoized by its
    /// cross-section. Identical bits to [`self_partial`] — the formula is
    /// already translation-invariant.
    pub fn self_l(&self, fil: &Bar) -> f64 {
        let key = [key_bits(fil.width()), key_bits(fil.thickness())];
        self.selves.get_or_insert_with(key, || self_partial(fil))
    }

    /// Partial mutual inductance (H) between two filaments of the mesh,
    /// memoized by canonicalized relative placement.
    pub fn mutual_l(&self, a: &Bar, b: &Bar) -> f64 {
        let (key, g) = canonical_mutual(a, b);
        self.mutuals.get_or_insert_with(key, || {
            mutual_partial_relative(self.length_um, g.w1, g.t1, g.w2, g.t2, g.dt, g.dz, g.far)
        })
    }

    /// Lp kernel entry for filaments `i`, `j` of `fils` (self on the
    /// diagonal). Single-entry counterpart of [`KernelCache::fill_block`].
    pub fn entry(&self, fils: &[Bar], i: usize, j: usize) -> f64 {
        if i == j {
            self.self_l(&fils[i])
        } else {
            self.mutual_l(&fils[i], &fils[j])
        }
    }

    /// Fills the row-major `rows × cols` kernel block into `out`, batching
    /// every *distinct missing* geometry into one
    /// [`mutual_partial_batch`] call so the 4-D GMD quadratures run over
    /// contiguous SoA lanes instead of one scalar call per entry.
    ///
    /// Values and (serial) hit/miss accounting are identical to looping
    /// [`KernelCache::entry`] over the block in row-major order: the first
    /// encounter of a missing geometry counts as the miss, duplicates
    /// within the same fill count as hits, and the batched quadrature is
    /// bit-identical to the scalar one. Scratch state is thread-local and
    /// reused across calls, so a fully-cached fill does not allocate.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `out.len() != rows.len() * cols.len()`.
    pub fn fill_block(&self, fils: &[Bar], rows: &[usize], cols: &[usize], out: &mut [f64]) {
        debug_assert_eq!(out.len(), rows.len() * cols.len());
        FILL_SCRATCH
            .with(|cell| self.fill_block_with(fils, rows, cols, out, &mut cell.borrow_mut()));
    }

    fn fill_block_with(
        &self,
        fils: &[Bar],
        rows: &[usize],
        cols: &[usize],
        out: &mut [f64],
        scratch: &mut FillScratch,
    ) {
        let nc = cols.len();
        // Distinct geometries to evaluate, in first-encounter order, and
        // the out slots each one scatters to. Clearing keeps capacity.
        scratch.pending.clear();
        scratch.pending_pos.clear();
        scratch.slots.clear();
        // Hit/miss deltas per shard, flushed once at the end so the scan
        // takes each shard lock O(1) times instead of O(entries).
        let mut delta = [(0u64, 0u64); memo::SHARDS];
        for (a, &i) in rows.iter().enumerate() {
            for (b, &j) in cols.iter().enumerate() {
                let o = a * nc + b;
                if i == j {
                    out[o] = self.self_l(&fils[i]);
                    continue;
                }
                let (key, g) = canonical_mutual(&fils[i], &fils[j]);
                let si = memo::shard_of(&key);
                if let Some(v) = self.mutuals.peek(si, &key) {
                    delta[si].0 += 1;
                    out[o] = v;
                } else if let Some(&pi) = scratch.pending_pos.get(&key) {
                    delta[si].0 += 1;
                    scratch.slots.push((o, pi));
                } else {
                    delta[si].1 += 1;
                    let pi = scratch.pending.len();
                    scratch.pending_pos.insert(key, pi);
                    scratch.pending.push((key, g));
                    scratch.slots.push((o, pi));
                }
            }
        }
        self.mutuals.count(&delta);
        if scratch.pending.is_empty() {
            return;
        }
        scratch.geoms.clear();
        scratch
            .geoms
            .extend(scratch.pending.iter().map(|&(_, g)| g));
        scratch.vals.clear();
        scratch.vals.resize(scratch.geoms.len(), 0.0);
        mutual_partial_batch(self.length_um, &scratch.geoms, &mut scratch.vals);
        for ((key, _), &v) in scratch.pending.iter().zip(&scratch.vals) {
            self.mutuals.insert(*key, v);
        }
        for &(o, pi) in scratch.slots.iter() {
            out[o] = scratch.vals[pi];
        }
    }

    /// `(hits, misses)` counters accumulated so far, summed over the
    /// shards in fixed shard order.
    pub fn stats(&self) -> (u64, u64) {
        let (sh, sm) = self.selves.stats();
        let (mh, mm) = self.mutuals.stats();
        (sh + mh, sm + mm)
    }

    /// Number of distinct kernel evaluations stored.
    pub fn distinct(&self) -> usize {
        self.selves.len() + self.mutuals.len()
    }
}

/// One node of the flattened [`ClusterTree`]: a contiguous `perm` range
/// with its cross-section bounding box `(tmin, tmax, zmin, zmax)`, the
/// largest member cross-section dimension (for the all-far-branch H²
/// admissibility test) and the depth in the tree.
pub(crate) struct ClusterNode {
    start: usize,
    end: usize,
    bbox: [f64; 4],
    smax: f64,
    level: usize,
    children: Option<(usize, usize)>,
}

/// Bisection cluster tree over filament cross-section centers, flattened
/// into a permutation plus an array of nodes. Node ids are allocated
/// parent-before-children, so ascending id order is a valid top-down
/// traversal and descending order a valid bottom-up one — the invariant
/// the H² upward/downward passes rely on.
pub(crate) struct ClusterTree {
    perm: Vec<usize>,
    nodes: Vec<ClusterNode>,
}

impl ClusterTree {
    /// Builds the tree for centers `pts` with per-filament maximum
    /// cross-section dimensions `dims`. Median split along the longer box
    /// side; ties broken by index so the tree is deterministic for any
    /// input order (and identical to the recursive per-vector splits it
    /// replaces).
    fn build(pts: &[(f64, f64)], dims: &[f64], leaf_size: usize) -> Self {
        let mut tree = ClusterTree {
            perm: (0..pts.len()).collect(),
            nodes: Vec::new(),
        };
        tree.build_node(0, pts.len(), 0, pts, dims, leaf_size.max(1));
        tree
    }

    fn build_node(
        &mut self,
        start: usize,
        end: usize,
        level: usize,
        pts: &[(f64, f64)],
        dims: &[f64],
        leaf_size: usize,
    ) -> usize {
        let mut bbox = [
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let mut smax = 0.0f64;
        for &i in &self.perm[start..end] {
            let (t, z) = pts[i];
            bbox[0] = bbox[0].min(t);
            bbox[1] = bbox[1].max(t);
            bbox[2] = bbox[2].min(z);
            bbox[3] = bbox[3].max(z);
            smax = smax.max(dims[i]);
        }
        let id = self.nodes.len();
        self.nodes.push(ClusterNode {
            start,
            end,
            bbox,
            smax,
            level,
            children: None,
        });
        if end - start > leaf_size {
            let along_t = (bbox[1] - bbox[0]) >= (bbox[3] - bbox[2]);
            self.perm[start..end].sort_unstable_by(|&a, &b| {
                let ka = if along_t { pts[a].0 } else { pts[a].1 };
                let kb = if along_t { pts[b].0 } else { pts[b].1 };
                ka.total_cmp(&kb).then(a.cmp(&b))
            });
            let mid = start + (end - start) / 2;
            let l = self.build_node(start, mid, level + 1, pts, dims, leaf_size);
            let r = self.build_node(mid, end, level + 1, pts, dims, leaf_size);
            self.nodes[id].children = Some((l, r));
        }
        id
    }

    /// Number of nodes (root included).
    pub(crate) fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Filament indices of cluster `c`, in tree order.
    pub(crate) fn indices(&self, c: usize) -> &[usize] {
        &self.perm[self.nodes[c].start..self.nodes[c].end]
    }

    /// Child node ids of `c`, `None` for leaves.
    pub(crate) fn children(&self, c: usize) -> Option<(usize, usize)> {
        self.nodes[c].children
    }

    /// Depth of `c` (root is 0).
    pub(crate) fn level(&self, c: usize) -> usize {
        self.nodes[c].level
    }

    fn len(&self, c: usize) -> usize {
        self.nodes[c].end - self.nodes[c].start
    }

    fn diameter(&self, c: usize) -> f64 {
        let b = &self.nodes[c].bbox;
        (b[1] - b[0]).hypot(b[3] - b[2])
    }

    fn gap(&self, a: usize, b: usize) -> f64 {
        let (ba, bb) = (&self.nodes[a].bbox, &self.nodes[b].bbox);
        let gap = |lo1: f64, hi1: f64, lo2: f64, hi2: f64| (lo2 - hi1).max(lo1 - hi2).max(0.0);
        gap(ba[0], ba[1], bb[0], bb[1]).hypot(gap(ba[2], ba[3], bb[2], bb[3]))
    }

    fn smax(&self, c: usize) -> f64 {
        self.nodes[c].smax
    }
}

/// Exact block: `k[(ri, cj)]` in row-major over `rows × cols`. Diagonal
/// blocks (`diag`) have `rows == cols` and include the self terms;
/// off-diagonal blocks are applied together with their transpose.
struct NearBlock {
    rows: Vec<usize>,
    cols: Vec<usize>,
    k: Vec<f64>,
    diag: bool,
}

/// Low-rank far block `K ≈ Σ_r u_r v_rᵀ`, `u` stored rank-major over rows
/// and `v` rank-major over cols. Applied together with its transpose.
struct FarBlock {
    rows: Vec<usize>,
    cols: Vec<usize>,
    u: Vec<f64>,
    v: Vec<f64>,
    rank: usize,
}

/// Build/compression statistics of a [`FastZOperator`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FastOpStats {
    /// Kernel-cache hits during assembly.
    pub kernel_hits: u64,
    /// Kernel-cache misses (distinct quadratures actually evaluated).
    pub kernel_misses: u64,
    /// Largest ACA rank over all flat far blocks.
    pub max_rank: usize,
    /// Exact blocks stored.
    pub near_blocks: usize,
    /// Flat-ACA compressed blocks stored.
    pub far_blocks: usize,
    /// ACA runs that reached the rank cap (whether or not the final step
    /// converged).
    pub rank_cap_hits: usize,
    /// Admissible blocks that failed to converge within the rank cap and
    /// were stored exactly.
    pub dense_fallbacks: usize,
    /// Fraction of the full `n²` interaction pairs covered by compressed
    /// (flat or H²) far blocks.
    pub compressed_fraction: f64,
    /// Total `f64`s stored by the far field (flat `U`/`V` factors plus H²
    /// bases, transfers and couplings).
    pub far_mem_f64: usize,
    /// Admissible pairs stored as H² couplings.
    pub h2_couplings: usize,
    /// Largest H² cluster-basis rank.
    pub h2_max_rank: usize,
    /// `f64`s stored by the H² part alone.
    pub h2_mem_f64: usize,
}

/// The matrix-free filament impedance operator `Z = diag(R) + jω·Lp`.
pub struct FastZOperator {
    n: usize,
    omega: f64,
    r: Vec<f64>,
    tree: ClusterTree,
    near: Vec<NearBlock>,
    far: Vec<FarBlock>,
    h2: Option<h2::H2Field>,
    stats: FastOpStats,
}

impl FastZOperator {
    /// Assembles the operator for filaments `fils` (shared axial span) with
    /// resistivities `rhos` at angular frequency `omega`, reusing (and
    /// filling) `kernel` for every partial-inductance evaluation.
    ///
    /// The build is parallel over independent units of work — leaf
    /// diagonal blocks, inadmissible near pairs, admissible ACA pairs,
    /// and the H² level passes — sharded by block/cluster index, with
    /// every result scattered back in index order. Each unit is a pure
    /// computation (kernel values are pure functions of their keys), so
    /// the assembled operator is bit-identical for any `RLCX_THREADS`.
    pub fn new(
        fils: &[Bar],
        rhos: &[f64],
        omega: f64,
        kernel: &KernelCache,
        opts: &FastOpOptions,
    ) -> Self {
        let n = fils.len();
        let r: Vec<f64> = fils
            .iter()
            .zip(rhos)
            .map(|(f, &rho)| dc_resistance(f, rho))
            .collect();
        let pts: Vec<(f64, f64)> = fils
            .iter()
            .map(|f| {
                let (t0, t1) = f.transverse_span();
                let (z0, z1) = f.vertical_span();
                (0.5 * (t0 + t1), 0.5 * (z0 + z1))
            })
            .collect();
        let dims: Vec<f64> = fils.iter().map(|f| f.width().max(f.thickness())).collect();
        let tree = ClusterTree::build(&pts, &dims, opts.leaf_size);

        let mut diag_leaves: Vec<usize> = Vec::new();
        let mut near_pairs: Vec<(usize, usize)> = Vec::new();
        let mut far_pairs: Vec<(usize, usize)> = Vec::new();
        let mut h2_pairs: Vec<(usize, usize)> = Vec::new();
        collect_diag(
            &tree,
            0,
            opts,
            &mut diag_leaves,
            &mut near_pairs,
            &mut far_pairs,
            &mut h2_pairs,
        );

        let hits0 = kernel.stats();
        let mut stats = FastOpStats::default();
        // Exact leaf diagonal blocks: one independent fill per leaf,
        // collected in leaf-index order.
        let mut near: Vec<NearBlock> = par_map(diag_leaves.len(), |di| {
            let idx = tree.indices(diag_leaves[di]);
            let m = idx.len();
            let mut k = vec![0.0; m * m];
            kernel.fill_block(fils, idx, idx, &mut k);
            NearBlock {
                rows: idx.to_vec(),
                cols: idx.to_vec(),
                k,
                diag: true,
            }
        });
        // Inadmissible off-diagonal pairs: exact, one block per pair.
        near.extend(par_map(near_pairs.len(), |pi| {
            let (a, b) = near_pairs[pi];
            dense_block(tree.indices(a), tree.indices(b), fils, kernel)
        }));
        // Admissible pairs: ACA per pair in parallel, then a serial
        // post-pass in pair-index order for the order-sensitive pieces —
        // stats accumulation and the obs pushes — so metrics and series
        // steps come out exactly as the serial build emitted them.
        let aca_blocks: Vec<(Option<FarBlock>, bool)> = par_map(far_pairs.len(), |pi| {
            let (a, b) = far_pairs[pi];
            aca_block(tree.indices(a), tree.indices(b), fils, kernel, opts)
        });
        let mut far = Vec::new();
        let mut far_covered = 0usize;
        for ((block, capped), &(a, b)) in aca_blocks.into_iter().zip(&far_pairs) {
            if capped {
                stats.rank_cap_hits += 1;
            }
            match block {
                Some(fb) => {
                    stats.max_rank = stats.max_rank.max(fb.rank);
                    obs::observe("aca.rank", fb.rank as f64);
                    obs::series_push("aca.rank", far.len() as f64, fb.rank as f64);
                    far_covered += fb.rows.len() * fb.cols.len();
                    stats.far_mem_f64 += fb.rank * (fb.rows.len() + fb.cols.len());
                    far.push(fb);
                }
                None => {
                    stats.dense_fallbacks += 1;
                    near.push(dense_block(tree.indices(a), tree.indices(b), fils, kernel));
                }
            }
        }
        let h2_field = if h2_pairs.is_empty() {
            None
        } else {
            let params = h2::H2Params {
                tol: opts.aca_tol,
                max_rank: opts.max_rank,
                sample_cap: opts.h2_sample_cap.max(1),
            };
            let field = h2::build(&tree, &h2_pairs, &pts, kernel.length_um(), &params);
            for &(a, b) in &h2_pairs {
                far_covered += tree.len(a) * tree.len(b);
            }
            stats.h2_couplings = field.coupling_count();
            stats.h2_max_rank = field.max_rank;
            stats.h2_mem_f64 = field.mem_f64;
            stats.far_mem_f64 += field.mem_f64;
            Some(field)
        };
        let (h1, m1) = kernel.stats();
        stats.kernel_hits = h1 - hits0.0;
        stats.kernel_misses = m1 - hits0.1;
        stats.near_blocks = near.len();
        stats.far_blocks = far.len();
        stats.compressed_fraction = if n == 0 {
            0.0
        } else {
            // Off-diagonal far blocks cover their transpose too.
            (2 * far_covered) as f64 / (n * n) as f64
        };
        obs::counter_add("fastop.kernel.hits", stats.kernel_hits);
        obs::counter_add("fastop.kernel.misses", stats.kernel_misses);
        obs::counter_add("aca.rank_cap.hits", stats.rank_cap_hits as u64);
        obs::gauge_set("fastop.near.blocks", stats.near_blocks as f64);
        obs::gauge_set("fastop.far.blocks", stats.far_blocks as f64);
        obs::gauge_set("fastop.dense.fallbacks", stats.dense_fallbacks as f64);
        obs::gauge_set("fastop.far.mem.f64", stats.far_mem_f64 as f64);

        FastZOperator {
            n,
            omega,
            r,
            tree,
            near,
            far,
            h2: h2_field,
            stats,
        }
    }

    /// Build/compression statistics.
    pub fn stats(&self) -> &FastOpStats {
        &self.stats
    }

    /// Per-filament series resistances (Ω).
    pub fn resistances(&self) -> &[f64] {
        &self.r
    }
}

fn dense_block(rows: &[usize], cols: &[usize], fils: &[Bar], kernel: &KernelCache) -> NearBlock {
    let mut k = vec![0.0; rows.len() * cols.len()];
    kernel.fill_block(fils, rows, cols, &mut k);
    NearBlock {
        rows: rows.to_vec(),
        cols: cols.to_vec(),
        k,
        diag: false,
    }
}

/// Walks the diagonal of the block cluster tree, collecting exact leaf
/// diagonal blocks and delegating off-diagonal pairs to [`collect_pair`].
#[allow(clippy::too_many_arguments)]
fn collect_diag(
    tree: &ClusterTree,
    c: usize,
    opts: &FastOpOptions,
    diag: &mut Vec<usize>,
    near: &mut Vec<(usize, usize)>,
    far: &mut Vec<(usize, usize)>,
    h2: &mut Vec<(usize, usize)>,
) {
    match tree.children(c) {
        None => diag.push(c),
        Some((l, r)) => {
            collect_diag(tree, l, opts, diag, near, far, h2);
            collect_diag(tree, r, opts, diag, near, far, h2);
            collect_pair(tree, l, r, opts, near, far, h2);
        }
    }
}

/// Partitions an off-diagonal cluster pair into admissible (far) and
/// inadmissible-leaf (near) blocks. Pairs are only ever generated in one
/// orientation; the apply loop adds the transpose contribution.
///
/// Admissible pairs whose gap also *strictly* clears `4×` the largest
/// member cross-section dimension go to the H² list when enabled: the
/// center distance of every filament pair in such a block then exceeds the
/// [`gmd::cross_section_is_far`] threshold, so the whole block lives in
/// the smooth far-branch kernel the nested bases are built on. Admissible
/// pairs without that guarantee keep the flat ACA treatment.
#[allow(clippy::too_many_arguments)]
fn collect_pair(
    tree: &ClusterTree,
    a: usize,
    b: usize,
    opts: &FastOpOptions,
    near: &mut Vec<(usize, usize)>,
    far: &mut Vec<(usize, usize)>,
    h2: &mut Vec<(usize, usize)>,
) {
    let gap = tree.gap(a, b);
    let admissible = gap >= opts.eta * tree.diameter(a).max(tree.diameter(b))
        && tree.len(a).min(tree.len(b)) >= 16;
    if admissible {
        let all_far = gap > 4.0 * tree.smax(a).max(tree.smax(b));
        if opts.compression == Compression::H2 && all_far {
            h2.push((a, b));
        } else {
            far.push((a, b));
        }
        return;
    }
    match (tree.children(a), tree.children(b)) {
        (None, None) => near.push((a, b)),
        (Some((a1, a2)), None) => {
            collect_pair(tree, a1, b, opts, near, far, h2);
            collect_pair(tree, a2, b, opts, near, far, h2);
        }
        (None, Some((b1, b2))) => {
            collect_pair(tree, a, b1, opts, near, far, h2);
            collect_pair(tree, a, b2, opts, near, far, h2);
        }
        (Some((a1, a2)), Some((b1, b2))) => {
            collect_pair(tree, a1, b1, opts, near, far, h2);
            collect_pair(tree, a1, b2, opts, near, far, h2);
            collect_pair(tree, a2, b1, opts, near, far, h2);
            collect_pair(tree, a2, b2, opts, near, far, h2);
        }
    }
}

/// Compresses the `rows × cols` kernel block with partially pivoted ACA.
/// Returns `(None, _)` when the block fails to reach `aca_tol` within
/// `max_rank` terms (the caller stores it exactly instead); the second
/// element reports whether the run reached the rank cap at all.
fn aca_block(
    rows: &[usize],
    cols: &[usize],
    fils: &[Bar],
    kernel: &KernelCache,
    opts: &FastOpOptions,
) -> (Option<FarBlock>, bool) {
    let (nr, nc) = (rows.len(), cols.len());
    let max_rank = opts.max_rank.min(nr.min(nc));
    let mut us: Vec<Vec<f64>> = Vec::new();
    let mut vs: Vec<Vec<f64>> = Vec::new();
    let mut row_used = vec![false; nr];
    let mut norm2_est = 0.0f64;
    let mut i_star = 0usize;
    let mut converged = false;
    let mut rrow = vec![0.0f64; nc];
    let mut ucol = vec![0.0f64; nr];

    while us.len() < max_rank {
        // Residual of the pivot row.
        kernel.fill_block(fils, &rows[i_star..i_star + 1], cols, &mut rrow);
        for (u, v) in us.iter().zip(&vs) {
            let ui = u[i_star];
            for (rj, vj) in rrow.iter_mut().zip(v) {
                *rj -= ui * vj;
            }
        }
        row_used[i_star] = true;
        let (j_star, pivot) = rrow
            .iter()
            .enumerate()
            .max_by(|x, y| x.1.abs().total_cmp(&y.1.abs()))
            .map(|(j, &p)| (j, p))
            .unwrap_or((0, 0.0));
        if pivot.abs() < 1e-300 {
            // Degenerate pivot row; try the next unused one.
            match row_used.iter().position(|&u| !u) {
                Some(next) => {
                    i_star = next;
                    continue;
                }
                None => {
                    converged = true;
                    break;
                }
            }
        }
        let v: Vec<f64> = rrow.iter().map(|&r| r / pivot).collect();
        kernel.fill_block(fils, rows, &cols[j_star..j_star + 1], &mut ucol);
        let mut u = ucol.clone();
        for (uk, vk) in us.iter().zip(&vs) {
            let vj = vk[j_star];
            for (ui, uki) in u.iter_mut().zip(uk) {
                *ui -= vj * uki;
            }
        }
        let unorm2: f64 = u.iter().map(|x| x * x).sum();
        let vnorm2: f64 = v.iter().map(|x| x * x).sum();
        let mut cross = 0.0;
        for (uk, vk) in us.iter().zip(&vs) {
            let du: f64 = u.iter().zip(uk).map(|(x, y)| x * y).sum();
            let dv: f64 = v.iter().zip(vk).map(|(x, y)| x * y).sum();
            cross += du * dv;
        }
        norm2_est = (norm2_est + unorm2 * vnorm2 + 2.0 * cross).max(0.0);
        let step = (unorm2 * vnorm2).sqrt();
        us.push(u);
        vs.push(v);
        if step <= opts.aca_tol * norm2_est.sqrt() {
            converged = true;
            break;
        }
        // Next pivot row: largest |u| entry among unused rows.
        let last_u = us.last().expect("just pushed");
        let Some(next) = (0..nr)
            .filter(|&i| !row_used[i])
            .max_by(|&x, &y| last_u[x].abs().total_cmp(&last_u[y].abs()))
        else {
            // Ran out of unused pivot rows before converging (not a rank
            // cap hit).
            return (None, false);
        };
        i_star = next;
    }
    let capped = us.len() >= max_rank;
    if !converged {
        return (None, capped);
    }
    let rank = us.len();
    let mut u = vec![0.0; rank * nr];
    let mut v = vec![0.0; rank * nc];
    for (k, (uk, vk)) in us.iter().zip(&vs).enumerate() {
        u[k * nr..(k + 1) * nr].copy_from_slice(uk);
        v[k * nc..(k + 1) * nc].copy_from_slice(vk);
    }
    (
        Some(FarBlock {
            rows: rows.to_vec(),
            cols: cols.to_vec(),
            u,
            v,
            rank,
        }),
        capped,
    )
}

/// Fixed number of partial accumulation vectors in the parallel apply.
/// Deliberately *not* derived from the thread count: block→shard
/// assignment (`block index mod APPLY_SHARDS`) and the shard-order
/// reduction fix the f64 addition order, so the matvec bits never change
/// with `RLCX_THREADS`.
const APPLY_SHARDS: usize = 16;

impl LinearOperator<Complex> for FastZOperator {
    fn dim(&self) -> usize {
        self.n
    }

    /// `y = R∘x + jω·(Lp·x)` with `Lp` applied block-wise: exact blocks
    /// (and their transposes), `U(Vᵀx)` for flat-compressed blocks, and
    /// the H² upward/coupling/downward passes for nested-basis pairs.
    ///
    /// Parallel and deterministic: every near/far block accumulates into
    /// the partial vector of shard `block_index % APPLY_SHARDS` (blocks
    /// within a shard in index order), the H² field produces its own
    /// contribution, and the final combine reduces the partials per
    /// element in fixed shard order — identical bits for 1 or N threads.
    fn apply(&self, x: &[Complex], y: &mut [Complex]) {
        let threads = thread_count();
        let ws: Vec<Vec<Complex>> = par_map(APPLY_SHARDS, |s| {
            let mut w = vec![Complex::ZERO; self.n];
            for (bi, blk) in self.near.iter().enumerate() {
                if bi % APPLY_SHARDS != s {
                    continue;
                }
                let nc = blk.cols.len();
                for (ri, &i) in blk.rows.iter().enumerate() {
                    let krow = &blk.k[ri * nc..(ri + 1) * nc];
                    let mut acc = Complex::ZERO;
                    for (kij, &j) in krow.iter().zip(&blk.cols) {
                        acc += x[j] * *kij;
                    }
                    w[i] += acc;
                    if !blk.diag {
                        let xi = x[i];
                        for (kij, &j) in krow.iter().zip(&blk.cols) {
                            w[j] += xi * *kij;
                        }
                    }
                }
            }
            for (bi, blk) in self.far.iter().enumerate() {
                if bi % APPLY_SHARDS != s {
                    continue;
                }
                let (nr, nc) = (blk.rows.len(), blk.cols.len());
                for k in 0..blk.rank {
                    let vk = &blk.v[k * nc..(k + 1) * nc];
                    let uk = &blk.u[k * nr..(k + 1) * nr];
                    let mut t = Complex::ZERO;
                    for (vj, &j) in vk.iter().zip(&blk.cols) {
                        t += x[j] * *vj;
                    }
                    for (ui, &i) in uk.iter().zip(&blk.rows) {
                        w[i] += t * *ui;
                    }
                    // Transpose contribution.
                    let mut s = Complex::ZERO;
                    for (ui, &i) in uk.iter().zip(&blk.rows) {
                        s += x[i] * *ui;
                    }
                    for (vj, &j) in vk.iter().zip(&blk.cols) {
                        w[j] += s * *vj;
                    }
                }
            }
            w
        });
        let wh2: Option<Vec<Complex>> = self.h2.as_ref().map(|h2| {
            let mut w = vec![Complex::ZERO; self.n];
            h2.apply(&self.tree, x, &mut w);
            w
        });
        // Elementwise reduce + combine over disjoint index ranges; the
        // per-element sum runs shard 0, 1, …, then H² — a fixed order.
        let chunk = self.n.div_ceil(APPLY_SHARDS).max(1);
        let y_ptr = SendPtr::new(y.as_mut_ptr());
        pool::run(self.n.div_ceil(chunk), threads, |c| {
            let base = c * chunk;
            let end = (base + chunk).min(self.n);
            for i in base..end {
                let mut wi = Complex::ZERO;
                for w in &ws {
                    wi += w[i];
                }
                if let Some(wh) = &wh2 {
                    wi += wh[i];
                }
                let v =
                    x[i].scale(self.r[i]) + Complex::new(-self.omega * wi.im, self.omega * wi.re);
                // SAFETY: chunk `c` exclusively owns `y[base..end)`.
                unsafe { *y_ptr.get().add(i) = v };
            }
        });
    }
}

/// Exact per-conductor diagonal blocks of `Z`, LU-factored, applied as a
/// right preconditioner `M⁻¹`.
pub struct BlockDiagPrecond {
    blocks: Vec<(Vec<usize>, CLuDecomposition)>,
    n: usize,
}

impl BlockDiagPrecond {
    /// Factors the diagonal block of every conductor (`owner` maps each
    /// filament to its conductor, `0..n_cond`), one parallel task per
    /// conductor; each block's fill and LU are serial within the task, so
    /// the factors are bit-identical for any thread count.
    ///
    /// # Errors
    ///
    /// [`PeecError::Numeric`] if a conductor block is singular.
    pub fn new(
        fils: &[Bar],
        rhos: &[f64],
        owner: &[usize],
        n_cond: usize,
        omega: f64,
        kernel: &KernelCache,
    ) -> Result<Self> {
        let factor = |ci: usize| -> Result<(Vec<usize>, CLuDecomposition)> {
            let idx: Vec<usize> = (0..fils.len()).filter(|&i| owner[i] == ci).collect();
            let m = idx.len();
            let mut k = vec![0.0; m * m];
            kernel.fill_block(fils, &idx, &idx, &mut k);
            let mut z = CMatrix::zeros(m, m);
            for (a, &i) in idx.iter().enumerate() {
                for b in 0..m {
                    z[(a, b)] = if a == b {
                        Complex::new(dc_resistance(&fils[i], rhos[i]), omega * k[a * m + a])
                    } else {
                        Complex::from_imag(omega * k[a * m + b])
                    };
                }
            }
            Ok((idx, CLuDecomposition::new(&z)?))
        };
        let mut blocks = Vec::with_capacity(n_cond);
        for built in par_map(n_cond, factor) {
            blocks.push(built?);
        }
        Ok(BlockDiagPrecond {
            blocks,
            n: fils.len(),
        })
    }

    /// `y = M⁻¹·x` (block-wise gather / solve / scatter).
    pub fn solve_into(&self, x: &[Complex], y: &mut [Complex]) {
        for (idx, lu) in &self.blocks {
            let xb: Vec<Complex> = idx.iter().map(|&i| x[i]).collect();
            let mut yb = vec![Complex::ZERO; idx.len()];
            lu.solve_into(&xb, &mut yb)
                .expect("factored block solve cannot fail on matching dims");
            for (&i, &v) in idx.iter().zip(&yb) {
                y[i] = v;
            }
        }
    }
}

/// The right-preconditioned operator `x ↦ Z·(M⁻¹·x)` GMRES iterates on.
struct RightPreconditioned<'a> {
    z: &'a FastZOperator,
    m: &'a BlockDiagPrecond,
}

impl LinearOperator<Complex> for RightPreconditioned<'_> {
    fn dim(&self) -> usize {
        self.z.dim()
    }
    fn apply(&self, x: &[Complex], y: &mut [Complex]) {
        let mut t = vec![Complex::ZERO; x.len()];
        self.m.solve_into(x, &mut t);
        self.z.apply(&t, y);
    }
}

/// Krylov tolerances used by the iterative impedance path: tight enough
/// that backend disagreement stays below 1e-9 relative.
pub fn impedance_gmres_options() -> GmresOptions {
    GmresOptions {
        restart: 100,
        max_iterations: 2000,
        rel_tol: 1e-12,
        abs_tol: 0.0,
    }
}

/// Conductor-level admittance `Y = A·Z⁻¹·Aᵀ` via one preconditioned GMRES
/// solve per conductor (`A` is the filament-ownership incidence matrix):
/// column `j` of `Z⁻¹·Aᵀ` is the filament current vector under a unit
/// voltage on conductor `j`, and summing it per conductor gives `Y`'s
/// column `j`.
///
/// # Errors
///
/// [`PeecError::Numeric`] with
/// [`rlcx_numeric::NumericError::DidNotConverge`] if any solve exhausts
/// its iteration budget.
pub fn conductor_admittance(
    op: &FastZOperator,
    pre: &BlockDiagPrecond,
    owner: &[usize],
    n_cond: usize,
) -> Result<CMatrix> {
    let n = op.dim();
    debug_assert_eq!(owner.len(), n);
    debug_assert_eq!(pre.n, n);
    let sys = RightPreconditioned { z: op, m: pre };
    let opts = impedance_gmres_options();
    let mut y = CMatrix::zeros(n_cond, n_cond);
    for cj in 0..n_cond {
        let rhs: Vec<Complex> = owner
            .iter()
            .map(|&ci| {
                if ci == cj {
                    Complex::ONE
                } else {
                    Complex::ZERO
                }
            })
            .collect();
        let sol = gmres(&sys, &rhs, None, &opts)
            .map_err(PeecError::from)?
            .into_converged()
            .map_err(PeecError::from)?;
        // Un-precondition: the iterate solves Z·M⁻¹·u = b, so x = M⁻¹·u.
        let mut x = vec![Complex::ZERO; n];
        pre.solve_into(&sol.x, &mut x);
        for (i, xi) in x.iter().enumerate() {
            y[(owner[i], cj)] += *xi;
        }
    }
    Ok(y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlcx_geom::units::RHO_COPPER;
    use rlcx_geom::{Axis, Point3};

    /// A grid of well-separated filament clusters for ACA behaviour tests:
    /// two 6×6 filament bundles `sep` µm apart.
    fn two_bundles(sep: f64) -> (Vec<Bar>, Vec<f64>) {
        let mut fils = Vec::new();
        for base in [0.0, sep] {
            for i in 0..6 {
                for j in 0..6 {
                    let b = Bar::new(
                        Point3::new(0.0, base + i as f64 * 1.0, 10.0 + j as f64 * 1.0),
                        Axis::X,
                        1000.0,
                        0.9,
                        0.9,
                    )
                    .unwrap();
                    fils.push(b);
                }
            }
        }
        let rhos = vec![RHO_COPPER; fils.len()];
        (fils, rhos)
    }

    fn centers_and_dims(fils: &[Bar]) -> (Vec<(f64, f64)>, Vec<f64>) {
        let pts = fils
            .iter()
            .map(|f| {
                let (t0, t1) = f.transverse_span();
                let (z0, z1) = f.vertical_span();
                (0.5 * (t0 + t1), 0.5 * (z0 + z1))
            })
            .collect();
        let dims = fils.iter().map(|f| f.width().max(f.thickness())).collect();
        (pts, dims)
    }

    /// Dense reference `Z` for a filament set, assembled the way the dense
    /// solver path does.
    fn dense_z(fils: &[Bar], rhos: &[f64], omega: f64) -> CMatrix {
        let n = fils.len();
        let mut z = CMatrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                z[(i, j)] = if i == j {
                    Complex::new(
                        dc_resistance(&fils[i], rhos[i]),
                        omega * self_partial(&fils[i]),
                    )
                } else {
                    Complex::from_imag(omega * crate::partial::mutual_partial(&fils[i], &fils[j]))
                };
            }
        }
        z
    }

    #[test]
    fn kernel_cache_collapses_uniform_mesh_pairs() {
        let (fils, _) = two_bundles(100.0);
        let kernel = KernelCache::new(1000.0);
        for i in 0..fils.len() {
            for j in 0..fils.len() {
                kernel.entry(&fils, i, j);
            }
        }
        let (hits, misses) = kernel.stats();
        // 72 filaments → 5184 lookups but only O(#offsets) distinct
        // geometries: a 6×6 bundle pair has far fewer distinct offsets
        // than pairs.
        assert_eq!(hits + misses, 72 * 72);
        assert!(
            kernel.distinct() < 600,
            "expected heavy memoization, got {} distinct",
            kernel.distinct()
        );
        assert!(hits > 9 * misses, "hit rate too low: {hits} vs {misses}");
    }

    #[test]
    fn kernel_cache_matches_direct_evaluation() {
        let (fils, _) = two_bundles(40.0);
        let kernel = KernelCache::new(1000.0);
        for (i, a) in fils.iter().enumerate().step_by(7) {
            for (j, b) in fils.iter().enumerate().step_by(5) {
                if i == j {
                    continue;
                }
                let cached = kernel.mutual_l(a, b);
                let direct = crate::partial::mutual_partial(a, b);
                let rel = (cached - direct).abs() / direct.abs();
                assert!(rel < 1e-11, "({i},{j}): {cached} vs {direct}");
            }
        }
    }

    #[test]
    fn fill_block_matches_scalar_entries_bitwise() {
        // The batched block fill must reproduce the scalar entry loop to
        // the bit — values, hit/miss accounting and all.
        let (fils, _) = two_bundles(12.0);
        let rows: Vec<usize> = (0..24).collect();
        let cols: Vec<usize> = (12..60).collect(); // overlaps rows → self terms
        let scalar = KernelCache::new(1000.0);
        let mut reference = vec![0.0; rows.len() * cols.len()];
        for (a, &i) in rows.iter().enumerate() {
            for (b, &j) in cols.iter().enumerate() {
                reference[a * cols.len() + b] = scalar.entry(&fils, i, j);
            }
        }
        let batched = KernelCache::new(1000.0);
        let mut block = vec![0.0; rows.len() * cols.len()];
        batched.fill_block(&fils, &rows, &cols, &mut block);
        for (o, (b, r)) in block.iter().zip(&reference).enumerate() {
            assert_eq!(b.to_bits(), r.to_bits(), "entry {o}: {b} vs {r}");
        }
        assert_eq!(batched.stats(), scalar.stats(), "hit/miss accounting");
        assert_eq!(batched.distinct(), scalar.distinct());
    }

    #[test]
    fn aca_rank_stays_small_for_well_separated_clusters() {
        // Satellite: rank growth sanity. Two 36-filament bundles at
        // increasing separation — the interaction becomes smoother, so the
        // ACA rank must stay far below min(nr, nc) = 36 and shrink (weakly)
        // with distance.
        let opts = FastOpOptions::default();
        let mut last_rank = usize::MAX - 2;
        for sep in [40.0, 160.0, 640.0] {
            let (fils, _) = two_bundles(sep);
            let (pts, dims) = centers_and_dims(&fils);
            let tree = ClusterTree::build(&pts, &dims, 36);
            let (a, b) = tree.children(0).expect("72 points split once");
            assert_eq!(tree.len(a), 36);
            assert!(tree.gap(a, b) >= tree.diameter(a).max(tree.diameter(b)));
            let kernel = KernelCache::new(1000.0);
            let (fb, capped) = aca_block(tree.indices(a), tree.indices(b), &fils, &kernel, &opts);
            let fb = fb.expect("ACA must converge");
            assert!(!capped);
            assert!(fb.rank <= 18, "sep {sep}: rank {} too large", fb.rank);
            assert!(
                fb.rank <= last_rank + 2,
                "rank should not grow with separation"
            );
            last_rank = fb.rank;

            // And the factorization reproduces the block to tolerance.
            let mut worst = 0.0f64;
            let mut scale = 0.0f64;
            for (ri, &i) in fb.rows.iter().enumerate() {
                for (cj, &j) in fb.cols.iter().enumerate() {
                    let exact = kernel.entry(&fils, i, j);
                    let mut approx = 0.0;
                    for k in 0..fb.rank {
                        approx += fb.u[k * 36 + ri] * fb.v[k * 36 + cj];
                    }
                    worst = worst.max((exact - approx).abs());
                    scale = scale.max(exact.abs());
                }
            }
            assert!(
                worst <= 1e-6 * scale,
                "sep {sep}: ACA error {worst:.3e} vs scale {scale:.3e}"
            );
        }
    }

    #[test]
    fn fast_operator_matches_dense_apply() {
        // Default options → H² far field. The bundles sit 30 µm apart with
        // 0.9 µm cross-sections, so the admissible pair clears the 4×
        // all-far test and must be stored as H² couplings.
        let (fils, rhos) = two_bundles(30.0);
        let omega = 2.0 * std::f64::consts::PI * 3.2e9;
        let kernel = KernelCache::new(1000.0);
        let op = FastZOperator::new(&fils, &rhos, omega, &kernel, &FastOpOptions::default());
        assert!(
            op.stats().h2_couplings > 0,
            "expected the far pair on the H² path"
        );
        let z = dense_z(&fils, &rhos, omega);
        let n = fils.len();
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.71).cos()))
            .collect();
        let mut y_fast = vec![Complex::ZERO; n];
        let mut y_dense = vec![Complex::ZERO; n];
        op.apply(&x, &mut y_fast);
        z.apply(&x, &mut y_dense);
        let scale = y_dense.iter().map(|v| v.abs()).fold(0.0, f64::max);
        for (f, d) in y_fast.iter().zip(&y_dense) {
            assert!((*f - *d).abs() <= 1e-9 * scale, "{f} vs {d}");
        }
    }

    #[test]
    fn flat_aca_operator_matches_dense_apply() {
        // The pre-H² far field stays available and correct.
        let (fils, rhos) = two_bundles(30.0);
        let omega = 2.0 * std::f64::consts::PI * 3.2e9;
        let kernel = KernelCache::new(1000.0);
        let op = FastZOperator::new(&fils, &rhos, omega, &kernel, &FastOpOptions::flat_aca());
        assert_eq!(op.stats().h2_couplings, 0);
        assert!(op.stats().far_blocks > 0);
        let z = dense_z(&fils, &rhos, omega);
        let n = fils.len();
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.53).cos(), (i as f64 * 0.29).sin()))
            .collect();
        let mut y_fast = vec![Complex::ZERO; n];
        let mut y_dense = vec![Complex::ZERO; n];
        op.apply(&x, &mut y_fast);
        z.apply(&x, &mut y_dense);
        let scale = y_dense.iter().map(|v| v.abs()).fold(0.0, f64::max);
        for (f, d) in y_fast.iter().zip(&y_dense) {
            assert!((*f - *d).abs() <= 1e-9 * scale, "{f} vs {d}");
        }
    }

    #[test]
    fn h2_memory_beats_flat_aca_on_far_field() {
        // The point of nested bases: fewer stored f64s for the same far
        // field. Four bundles in a row give several admissible pairs.
        let mut fils = Vec::new();
        for base in [0.0, 30.0, 60.0, 90.0] {
            for i in 0..6 {
                for j in 0..6 {
                    fils.push(
                        Bar::new(
                            Point3::new(0.0, base + i as f64, 10.0 + j as f64),
                            Axis::X,
                            1000.0,
                            0.9,
                            0.9,
                        )
                        .unwrap(),
                    );
                }
            }
        }
        let rhos = vec![RHO_COPPER; fils.len()];
        let omega = 2.0 * std::f64::consts::PI * 3.2e9;
        let k1 = KernelCache::new(1000.0);
        let h2_op = FastZOperator::new(&fils, &rhos, omega, &k1, &FastOpOptions::default());
        let k2 = KernelCache::new(1000.0);
        let flat_op = FastZOperator::new(&fils, &rhos, omega, &k2, &FastOpOptions::flat_aca());
        assert!(h2_op.stats().h2_couplings > 0);
        assert!(
            h2_op.stats().far_mem_f64 < flat_op.stats().far_mem_f64,
            "H² {} f64 vs flat {} f64",
            h2_op.stats().far_mem_f64,
            flat_op.stats().far_mem_f64
        );
    }

    #[test]
    fn backend_cutover_policy() {
        assert!(!SolverBackend::Dense.is_iterative(100_000));
        assert!(SolverBackend::Iterative.is_iterative(4));
        assert!(!SolverBackend::Auto.is_iterative(ITERATIVE_CUTOVER - 1));
        assert!(SolverBackend::Auto.is_iterative(ITERATIVE_CUTOVER));
        assert_eq!(SolverBackend::Auto.name(), "auto");
    }

    #[test]
    fn cutover_env_parsing() {
        assert_eq!(cutover_from(None), ITERATIVE_CUTOVER);
        assert_eq!(cutover_from(Some("")), ITERATIVE_CUTOVER);
        assert_eq!(cutover_from(Some("  ")), ITERATIVE_CUTOVER);
        assert_eq!(cutover_from(Some("64")), 64);
        assert_eq!(cutover_from(Some(" 1000 ")), 1000);
        assert_eq!(cutover_from(Some("0")), ITERATIVE_CUTOVER);
        assert_eq!(cutover_from(Some("-5")), ITERATIVE_CUTOVER);
        assert_eq!(cutover_from(Some("fast")), ITERATIVE_CUTOVER);
        assert_eq!(cutover_from(Some("4.2e3")), ITERATIVE_CUTOVER);
    }

    #[test]
    fn cluster_tree_partitions_and_orders_nodes() {
        let (fils, _) = two_bundles(25.0);
        let (pts, dims) = centers_and_dims(&fils);
        let tree = ClusterTree::build(&pts, &dims, 8);
        // Parent-before-children id order, contiguous child ranges.
        for c in 0..tree.node_count() {
            if let Some((l, r)) = tree.children(c) {
                assert!(l > c && r > l, "node order: {c} -> ({l}, {r})");
                assert_eq!(tree.nodes[l].start, tree.nodes[c].start);
                assert_eq!(tree.nodes[l].end, tree.nodes[r].start);
                assert_eq!(tree.nodes[r].end, tree.nodes[c].end);
                assert_eq!(tree.level(l), tree.level(c) + 1);
            } else {
                assert!(tree.len(c) <= 8);
            }
        }
        // The root permutation is a permutation of 0..n.
        let mut seen = tree.indices(0).to_vec();
        seen.sort_unstable();
        assert_eq!(seen, (0..fils.len()).collect::<Vec<_>>());
        // Every cluster's smax is the grid filament dimension.
        assert_eq!(tree.smax(0), 0.9);
    }
}
