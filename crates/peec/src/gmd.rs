//! Geometric mean distances (GMD) between conductor cross-sections.
//!
//! The Neumann mutual-inductance integral between two parallel conductors of
//! rectangular cross-section reduces to the *filament* formula evaluated at
//! the geometric mean distance of the two cross-sections:
//! `ln g = (1/(A₁A₂)) ∬∬ ln r dA₁ dA₂`.
//!
//! For well-separated sections the GMD is essentially the center distance;
//! for close sections (spacing comparable to the width — exactly the regime
//! of minimum-pitch clock shields) the difference matters, so we integrate
//! numerically.

use crate::memo::ShardedMemo;
use rlcx_geom::Bar;
use rlcx_numeric::quadrature::integrate_4d;

/// Self-GMD of a rectangular cross-section `w × t`, using the classical
/// approximation `g ≈ 0.2235 (w + t)` (exact for the thin-strip and square
/// limits to within ~1 %; it is the distance underlying Ruehli's self
/// partial-inductance formula).
///
/// # Panics
///
/// Panics (in debug builds) if `w` or `t` is not positive.
#[inline]
pub fn self_gmd(w: f64, t: f64) -> f64 {
    debug_assert!(w > 0.0 && t > 0.0, "cross-section must be positive");
    0.2235 * (w + t)
}

/// Numerically integrated GMD between two rectangles in the cross-section
/// plane: rectangle 1 spans `u ∈ [u1, u1+w1]`, `v ∈ [v1, v1+t1]`; rectangle 2
/// likewise. `order` is the Gauss–Legendre order per dimension.
///
/// The rectangles must be disjoint (the integrand is singular on overlap).
///
/// # Panics
///
/// Panics if `order == 0`.
#[allow(clippy::too_many_arguments)]
pub fn mutual_gmd(
    (u1, w1): (f64, f64),
    (v1, t1): (f64, f64),
    (u2, w2): (f64, f64),
    (v2, t2): (f64, f64),
    order: usize,
) -> f64 {
    let area = w1 * t1 * w2 * t2;
    let integral = integrate_4d(
        |a1, b1, a2, b2| {
            let du = a1 - a2;
            let dv = b1 - b2;
            let r2 = du * du + dv * dv;
            // Guard the (measure-zero) touching-corner case.
            if r2 < 1e-30 {
                0.0
            } else {
                0.5 * r2.ln()
            }
        },
        ((u1, u1 + w1), (v1, v1 + t1)),
        ((u2, u2 + w2), (v2, v2 + t2)),
        order,
    );
    (integral / area).exp()
}

/// GMD between the cross-sections of two parallel bars, choosing between the
/// numerical integral (close spacing) and the center-distance approximation
/// (far spacing, where the relative error of the approximation is < 0.1 %).
///
/// # Panics
///
/// Panics if the bars are not parallel.
pub fn bar_gmd(a: &Bar, b: &Bar) -> f64 {
    assert!(a.is_parallel(b), "GMD requires parallel bars");
    if cross_section_is_far(a, b) {
        return a.cross_section_distance(b);
    }
    let (ta, _) = a.transverse_span();
    let (za, _) = a.vertical_span();
    let (tb, _) = b.transverse_span();
    let (zb, _) = b.vertical_span();
    mutual_gmd(
        (ta, a.width()),
        (za, a.thickness()),
        (tb, b.width()),
        (zb, b.thickness()),
        8,
    )
}

/// The GMD (µm) the partial-mutual formula uses for two parallel bars:
/// the self-GMD of the shared cross-section when the bars are collinear
/// (their cross-section centers coincide), [`bar_gmd`] otherwise.
///
/// # Panics
///
/// Panics if the bars are not parallel.
pub fn pair_gmd(a: &Bar, b: &Bar) -> f64 {
    let scale = a
        .width()
        .max(a.thickness())
        .max(b.width())
        .max(b.thickness());
    let center = a.cross_section_distance(b);
    if center < 1e-9 * scale.max(1.0) {
        // Collinear segments sharing a cross-section: use its self-GMD.
        self_gmd(
            0.5 * (a.width() + b.width()),
            0.5 * (a.thickness() + b.thickness()),
        )
    } else {
        bar_gmd(a, b)
    }
}

/// A memo of [`pair_gmd`] keyed on the exact bits of both cross-sections
/// in absolute coordinates — `(transverse lo, z lo, width, thickness)` of
/// each bar, in argument order.
///
/// The GMD does not depend on length or axial position, so one memo can
/// serve every solve of a table characterization: the filament mesh and
/// every transverse coordinate repeat across the length axis (and largely
/// across spacings and tables). Each value is produced by [`pair_gmd`] on
/// the same inputs as an un-memoized solve would use, so memoized results
/// are bit-identical for any thread count or lookup order. Relative keys
/// would not be: the absolute-coordinate quadrature differs from
/// [`relative_gmd`] in the last ULPs.
///
/// The key omits the axis, so only parallel bars may be looked up. Storage
/// is the crate's sharded memo (the one behind
/// [`crate::fastop::KernelCache`]); drop the memo to release it.
#[derive(Default)]
pub struct GmdMemo {
    map: ShardedMemo<8>,
}

impl GmdMemo {
    /// An empty memo.
    pub fn new() -> Self {
        GmdMemo::default()
    }

    /// [`pair_gmd`] of two parallel bars, computed on first use.
    pub fn pair_gmd(&self, a: &Bar, b: &Bar) -> f64 {
        debug_assert!(a.is_parallel(b), "GMD memo requires parallel bars");
        let (ta, _) = a.transverse_span();
        let (za, _) = a.vertical_span();
        let (tb, _) = b.transverse_span();
        let (zb, _) = b.vertical_span();
        let key = [
            ta,
            za,
            a.width(),
            a.thickness(),
            tb,
            zb,
            b.width(),
            b.thickness(),
        ]
        .map(f64::to_bits);
        self.map.get_or_insert_with(key, || pair_gmd(a, b))
    }

    /// `(hits, misses)` of [`GmdMemo::pair_gmd`] so far.
    pub fn stats(&self) -> (u64, u64) {
        self.map.stats()
    }
}

/// [`bar_gmd`]'s near/far classification as a standalone predicate: far
/// when the center distance exceeds 4× the largest cross-section
/// dimension.
///
/// Regular filament meshes routinely place pairs *exactly at* this
/// threshold (the center distance is an integer multiple of the filament
/// pitch), where the absolute-coordinate center in [`bar_gmd`] and the
/// relative-coordinate center in [`relative_gmd`] can round to opposite
/// sides of the comparison — and the two branches differ by up to the
/// far-field approximation error (~1e-3). Any code that must reproduce
/// [`bar_gmd`]'s values (the fast-operator kernel cache) therefore takes
/// the branch from this predicate on the actual bars and forces it via
/// [`relative_gmd_with`], instead of re-deciding from relative offsets.
pub fn cross_section_is_far(a: &Bar, b: &Bar) -> bool {
    let center = a.cross_section_distance(b);
    let scale = a
        .width()
        .max(a.thickness())
        .max(b.width())
        .max(b.thickness());
    center > 4.0 * scale
}

/// GMD of two rectangular cross-sections given in *relative* coordinates:
/// rectangle 1 is anchored at the origin (`w1 × t1`), rectangle 2 at offset
/// `(dt, dz)` (`w2 × t2`). Same near/far policy as [`bar_gmd`] — center
/// distance beyond `4×` the largest dimension, numerical integral at
/// order 8 otherwise.
///
/// Because the quadrature always runs in origin-anchored coordinates, the
/// result depends only on the relative placement — two filament pairs with
/// the same cross-sections and offset produce the *same bits*, which is
/// what the fast-operator kernel cache memoizes on. [`bar_gmd`] evaluates
/// the same integral in absolute coordinates and can differ from this in
/// the last few ULPs; the dense path keeps using [`bar_gmd`] so its
/// results stay bit-identical.
pub fn relative_gmd(w1: f64, t1: f64, w2: f64, t2: f64, dt: f64, dz: f64) -> f64 {
    let cx = dt + 0.5 * (w2 - w1);
    let cz = dz + 0.5 * (t2 - t1);
    let center = cx.hypot(cz);
    let scale = w1.max(t1).max(w2).max(t2);
    relative_gmd_with(w1, t1, w2, t2, dt, dz, center > 4.0 * scale)
}

/// [`relative_gmd`] with the near/far branch decided by the caller — see
/// [`cross_section_is_far`] for why borderline pairs must inherit the
/// branch from the absolute-coordinate test rather than re-deriving it.
pub fn relative_gmd_with(w1: f64, t1: f64, w2: f64, t2: f64, dt: f64, dz: f64, far: bool) -> f64 {
    if far {
        let cx = dt + 0.5 * (w2 - w1);
        let cz = dz + 0.5 * (t2 - t1);
        return cx.hypot(cz);
    }
    mutual_gmd((0.0, w1), (0.0, t1), (dt, w2), (dz, t2), 8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlcx_geom::{Axis, Point3};

    #[test]
    fn relative_gmd_matches_bar_gmd_closely() {
        // Same geometry through both entry points: absolute-coordinate
        // bar_gmd vs origin-anchored relative_gmd agree to quadrature
        // round-off (they evaluate the same integral at shifted nodes).
        let a = Bar::new(Point3::new(0.0, 3.0, 7.0), Axis::X, 100.0, 5.0, 2.0).unwrap();
        let b = Bar::new(Point3::new(0.0, 9.5, 7.0), Axis::X, 100.0, 10.0, 2.0).unwrap();
        let g_abs = bar_gmd(&a, &b);
        let g_rel = relative_gmd(5.0, 2.0, 10.0, 2.0, 6.5, 0.0);
        assert!((g_abs - g_rel).abs() / g_abs < 1e-12, "{g_abs} vs {g_rel}");
    }

    #[test]
    fn relative_gmd_is_translation_invariant_to_the_bit() {
        // The whole point: the same relative placement gives the same bits
        // no matter where the pair sits in absolute space (there is no
        // absolute space in the arguments at all — this asserts that the
        // far-field branch also only sees relative quantities).
        let g1 = relative_gmd(1.0, 2.0, 3.0, 2.0, 10.0, -4.0);
        let g2 = relative_gmd(1.0, 2.0, 3.0, 2.0, 10.0, -4.0);
        assert_eq!(g1.to_bits(), g2.to_bits());
    }

    #[test]
    fn self_gmd_of_square() {
        // Classical: self-GMD of a square of side a is ≈ 0.44705 a.
        let g = self_gmd(1.0, 1.0);
        assert!((g - 0.447).abs() < 0.01);
    }

    #[test]
    fn mutual_gmd_approaches_center_distance_when_far() {
        // Two 1×1 squares 20 apart: GMD ≈ 20 to high accuracy.
        let g = mutual_gmd((0.0, 1.0), (0.0, 1.0), (20.0, 1.0), (0.0, 1.0), 8);
        assert!((g - 20.0).abs() / 20.0 < 1e-3, "g = {g}");
    }

    #[test]
    fn mutual_gmd_exceeds_center_distance_for_coplanar_close_pair() {
        // Two coplanar 1×1 squares with small gap: the classical result is
        // that the GMD of two side-by-side squares slightly exceeds... in
        // fact for squares at center distance d the GMD is slightly *less*
        // than d for d barely above touching; we only check it is finite,
        // positive, and within a sane band around the center distance.
        let g = mutual_gmd((0.0, 1.0), (0.0, 1.0), (1.2, 1.0), (0.0, 1.0), 12);
        let center = 1.2 + 0.5 - 0.5; // center-to-center = 1.2 + ... = 1.2? centers at 0.5 and 1.7 → 1.2
        assert!(g > 0.8 * center && g < 1.2 * center, "g = {g}");
    }

    #[test]
    fn grover_tabulated_equal_squares() {
        // Grover (Ch. 3): for two equal squares of side a at center distance
        // d = 2a, ln(GMD/d) ≈ small correction; GMD/d should be within 2 %.
        let g = mutual_gmd((0.0, 1.0), (0.0, 1.0), (2.0, 1.0), (0.0, 1.0), 12);
        assert!((g / 2.0 - 1.0).abs() < 0.02, "g = {g}");
    }

    #[test]
    fn bar_gmd_far_uses_center_distance() {
        let a = Bar::new(Point3::new(0.0, 0.0, 0.0), Axis::X, 100.0, 1.0, 1.0).unwrap();
        let b = Bar::new(Point3::new(0.0, 50.0, 0.0), Axis::X, 100.0, 1.0, 1.0).unwrap();
        assert_eq!(bar_gmd(&a, &b), a.cross_section_distance(&b));
    }

    #[test]
    fn bar_gmd_close_is_numerical_and_sane() {
        let a = Bar::new(Point3::new(0.0, 0.0, 0.0), Axis::X, 100.0, 5.0, 2.0).unwrap();
        let b = Bar::new(Point3::new(0.0, 6.0, 0.0), Axis::X, 100.0, 10.0, 2.0).unwrap();
        let g = bar_gmd(&a, &b);
        let center = a.cross_section_distance(&b);
        assert!(
            g > 0.0 && (g / center - 1.0).abs() < 0.25,
            "g = {g}, c = {center}"
        );
    }

    #[test]
    fn gmd_is_symmetric() {
        let a = Bar::new(Point3::new(0.0, 0.0, 0.0), Axis::X, 100.0, 3.0, 2.0).unwrap();
        let b = Bar::new(Point3::new(0.0, 4.0, 1.0), Axis::X, 100.0, 2.0, 1.0).unwrap();
        assert!((bar_gmd(&a, &b) - bar_gmd(&b, &a)).abs() < 1e-9);
    }

    #[test]
    fn gmd_converges_with_order() {
        let g8 = mutual_gmd((0.0, 1.0), (0.0, 1.0), (1.5, 1.0), (0.0, 1.0), 8);
        let g16 = mutual_gmd((0.0, 1.0), (0.0, 1.0), (1.5, 1.0), (0.0, 1.0), 16);
        assert!((g8 - g16).abs() / g16 < 1e-3);
    }
}
