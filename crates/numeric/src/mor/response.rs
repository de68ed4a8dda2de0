//! Closed-form time-domain responses of a pole/residue macromodel.
//!
//! Every stimulus the simulator supports is piecewise-linear, so the
//! zero-state response of a pole term `r/(s − p)` is an exact sum of
//! exponential kernels — one per slope change and one per jump of the
//! input. Delay and slew queries then reduce to bisection on an analytic
//! expression; no time stepping, no truncation error, no step-size knob.

use crate::{CMatrix, Complex, Matrix, NumericError, Result};

/// A piecewise-linear signal `u(t)`, zero before its first breakpoint.
///
/// Repeated abscissae encode jumps (the later value wins at the shared
/// instant), and the signal holds its last value forever. A first point
/// with a nonzero value is itself a jump from the implicit zero state.
#[derive(Debug, Clone)]
pub struct Pwl {
    points: Vec<(f64, f64)>,
    /// `(t, Δslope, Δjump)` decomposition used by the response kernels.
    events: Vec<(f64, f64, f64)>,
}

impl Pwl {
    /// Builds a piecewise-linear signal from `(time, value)` points.
    ///
    /// # Errors
    ///
    /// * [`NumericError::InsufficientData`] for an empty point list.
    /// * [`NumericError::InvalidArgument`] for non-finite entries.
    /// * [`NumericError::NotMonotonic`] for decreasing times.
    pub fn new(points: Vec<(f64, f64)>) -> Result<Self> {
        if points.is_empty() {
            return Err(NumericError::InsufficientData {
                what: "piecewise-linear points".into(),
                needed: 1,
                got: 0,
            });
        }
        for (i, &(t, v)) in points.iter().enumerate() {
            if !t.is_finite() || !v.is_finite() {
                return Err(NumericError::InvalidArgument {
                    what: format!("non-finite PWL point ({t}, {v})"),
                });
            }
            if i > 0 && t < points[i - 1].0 {
                return Err(NumericError::NotMonotonic { index: i });
            }
        }
        let mut events: Vec<(f64, f64, f64)> = Vec::new();
        let mut push = |t: f64, dslope: f64, djump: f64| {
            if dslope == 0.0 && djump == 0.0 {
                return;
            }
            match events.last_mut() {
                Some(last) if last.0 == t => {
                    last.1 += dslope;
                    last.2 += djump;
                }
                _ => events.push((t, dslope, djump)),
            }
        };
        // The signal is zero before the first point: entering it is a jump.
        push(points[0].0, 0.0, points[0].1);
        let mut slope = 0.0;
        for w in points.windows(2) {
            let (t0, v0) = w[0];
            let (t1, v1) = w[1];
            if t1 > t0 {
                let s = (v1 - v0) / (t1 - t0);
                push(t0, s - slope, 0.0);
                slope = s;
            } else {
                push(t0, 0.0, v1 - v0);
            }
        }
        // Hold the final value: cancel the last slope.
        push(points[points.len() - 1].0, -slope, 0.0);
        Ok(Pwl { points, events })
    }

    /// Signal value at `t` (zero before the first point, held after the
    /// last; at a jump instant the post-jump value applies).
    pub fn value(&self, t: f64) -> f64 {
        if t < self.points[0].0 {
            return 0.0;
        }
        // Last index with time ≤ t, preferring the latest duplicate.
        let mut k = match self
            .points
            .binary_search_by(|p| p.0.partial_cmp(&t).expect("finite PWL times"))
        {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        while k + 1 < self.points.len() && self.points[k + 1].0 <= t {
            k += 1;
        }
        if k + 1 < self.points.len() && self.points[k + 1].0 > self.points[k].0 {
            let (t0, v0) = self.points[k];
            let (t1, v1) = self.points[k + 1];
            v0 + (v1 - v0) * (t - t0) / (t1 - t0)
        } else {
            self.points[k].1
        }
    }

    /// Time of the last breakpoint.
    pub fn end_time(&self) -> f64 {
        self.points[self.points.len() - 1].0
    }

    /// First time the signal reaches `threshold`, by exact segment-wise
    /// interpolation (jumps cross instantaneously).
    pub fn cross(&self, threshold: f64) -> Option<f64> {
        let mut prev = (self.points[0].0, 0.0f64);
        for &(t, v) in &self.points {
            let (t0, v0) = prev;
            if (v0 - threshold) * (v - threshold) <= 0.0 && (v0 != v || v0 == threshold) {
                if v0 == threshold {
                    return Some(t0);
                }
                if t > t0 && v != v0 {
                    return Some(t0 + (threshold - v0) / (v - v0) * (t - t0));
                }
                return Some(t);
            }
            prev = (t, v);
        }
        None
    }

    fn events(&self) -> &[(f64, f64, f64)] {
        &self.events
    }
}

fn cexp(z: Complex) -> Complex {
    let e = z.re.exp();
    Complex::new(e * z.im.cos(), e * z.im.sin())
}

/// `∫₀ᵀ e^{p(T−x)} dx` — response kernel of a unit jump at `T` ago.
fn step_kernel(p: Complex, t: f64) -> Complex {
    if t <= 0.0 {
        return Complex::ZERO;
    }
    let z = p.scale(t);
    if z.abs() < 1e-3 {
        // T·(1 + z/2 + z²/6 + z³/24 + z⁴/120), Horner form: the direct
        // expression cancels catastrophically for |z| → 0.
        let mut acc = z.scale(1.0 / 120.0) + Complex::from_real(1.0 / 24.0);
        acc = acc * z + Complex::from_real(1.0 / 6.0);
        acc = acc * z + Complex::from_real(0.5);
        acc = acc * z + Complex::ONE;
        acc.scale(t)
    } else {
        (cexp(z) - Complex::ONE) * p.recip()
    }
}

/// `∫₀ᵀ e^{p(T−x)}·x dx` — response kernel of a unit slope change.
fn ramp_kernel(p: Complex, t: f64) -> Complex {
    if t <= 0.0 {
        return Complex::ZERO;
    }
    let z = p.scale(t);
    if z.abs() < 1e-3 {
        // T²·(1/2 + z/6 + z²/24 + z³/120 + z⁴/720).
        let mut acc = z.scale(1.0 / 720.0) + Complex::from_real(1.0 / 120.0);
        acc = acc * z + Complex::from_real(1.0 / 24.0);
        acc = acc * z + Complex::from_real(1.0 / 6.0);
        acc = acc * z + Complex::from_real(0.5);
        acc.scale(t * t)
    } else {
        let pr = p.recip();
        (cexp(z) - Complex::ONE) * pr * pr - pr.scale(t)
    }
}

/// A transfer matrix in pole/residue form:
/// `H(s) = Σᵢ Rᵢ/(s − pᵢ) + D`, with closed-form PWL responses.
#[derive(Debug, Clone)]
pub struct PoleResidueModel {
    poles: Vec<Complex>,
    /// Per-pole residue matrix, p×m each.
    residues: Vec<CMatrix>,
    /// Instantaneous feedthrough, p×m.
    feedthrough: Matrix,
    unstable: usize,
}

impl PoleResidueModel {
    pub(super) fn from_parts(
        poles: Vec<Complex>,
        residues: Vec<CMatrix>,
        feedthrough: Matrix,
        unstable: usize,
    ) -> Self {
        PoleResidueModel {
            poles,
            residues,
            feedthrough,
            unstable,
        }
    }

    /// Finite poles of the model.
    pub fn poles(&self) -> &[Complex] {
        &self.poles
    }

    /// Number of outputs.
    pub fn outputs(&self) -> usize {
        self.feedthrough.rows()
    }

    /// Number of inputs.
    pub fn inputs(&self) -> usize {
        self.feedthrough.cols()
    }

    /// Poles whose real part is positive beyond eigensolve round-off.
    pub fn unstable_count(&self) -> usize {
        self.unstable
    }

    /// Evaluates `H(s)` from the pole/residue form.
    pub fn transfer(&self, s: Complex) -> CMatrix {
        let p = self.outputs();
        let m = self.inputs();
        let mut h = CMatrix::zeros(p, m);
        for jp in 0..p {
            for jm in 0..m {
                h[(jp, jm)] = Complex::from_real(self.feedthrough[(jp, jm)]);
            }
        }
        for (pole, res) in self.poles.iter().zip(&self.residues) {
            let denom = (s - *pole).recip();
            for jp in 0..p {
                for jm in 0..m {
                    h[(jp, jm)] += res[(jp, jm)] * denom;
                }
            }
        }
        h
    }

    /// Zero-state response of one output at time `t` to per-input
    /// piecewise-linear stimuli, evaluated in closed form.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DimensionMismatch`] for a bad output
    /// index or a stimulus count that differs from the input count.
    pub fn response(&self, output: usize, inputs: &[Pwl], t: f64) -> Result<f64> {
        if output >= self.outputs() || inputs.len() != self.inputs() {
            return Err(NumericError::DimensionMismatch {
                expected: format!("output < {} and {} stimuli", self.outputs(), self.inputs()),
                found: format!("output {}, {} stimuli", output, inputs.len()),
            });
        }
        let mut y = 0.0;
        for (jm, u) in inputs.iter().enumerate() {
            y += self.feedthrough[(output, jm)] * u.value(t);
        }
        let mut acc = Complex::ZERO;
        for (pole, res) in self.poles.iter().zip(&self.residues) {
            for (jm, u) in inputs.iter().enumerate() {
                let r = res[(output, jm)];
                if r.re == 0.0 && r.im == 0.0 {
                    continue;
                }
                let mut conv = Complex::ZERO;
                for &(te, dslope, djump) in u.events() {
                    let tau = t - te;
                    if tau <= 0.0 {
                        break;
                    }
                    if dslope != 0.0 {
                        conv += ramp_kernel(*pole, tau).scale(dslope);
                    }
                    if djump != 0.0 {
                        conv += step_kernel(*pole, tau).scale(djump);
                    }
                }
                acc += r * conv;
            }
        }
        Ok(y + acc.re)
    }

    /// First time the closed-form response of `output` crosses
    /// `threshold` within `[0, horizon]`: a scan over
    /// `CROSS_SCAN_SAMPLES` points brackets the crossing, bisection
    /// polishes it. Returns `Ok(None)` when the response never crosses.
    ///
    /// # Errors
    ///
    /// As [`PoleResidueModel::response`].
    pub fn cross_time(
        &self,
        output: usize,
        inputs: &[Pwl],
        threshold: f64,
        horizon: f64,
    ) -> Result<Option<f64>> {
        let y0 = self.response(output, inputs, 0.0)?;
        let s0 = y0 - threshold;
        if s0 == 0.0 {
            return Ok(Some(0.0));
        }
        let n = CROSS_SCAN_SAMPLES;
        let mut t_prev = 0.0;
        let mut s_prev = s0;
        for k in 1..=n {
            let t = horizon * (k as f64) / (n as f64);
            let s = self.response(output, inputs, t)? - threshold;
            if s == 0.0 {
                return Ok(Some(t));
            }
            if (s_prev > 0.0) != (s > 0.0) {
                let (mut a, mut b) = (t_prev, t);
                let mut sa = s_prev;
                for _ in 0..80 {
                    let mid = 0.5 * (a + b);
                    let sm = self.response(output, inputs, mid)? - threshold;
                    if sm == 0.0 {
                        return Ok(Some(mid));
                    }
                    if (sa > 0.0) == (sm > 0.0) {
                        a = mid;
                        sa = sm;
                    } else {
                        b = mid;
                    }
                }
                return Ok(Some(0.5 * (a + b)));
            }
            t_prev = t;
            s_prev = s;
        }
        Ok(None)
    }
}

/// Scan resolution of [`PoleResidueModel::cross_time`]: fine enough that
/// ringing periods of the clocktree macromodels (tens of picoseconds
/// over nanosecond horizons) cannot hide a first crossing.
pub const CROSS_SCAN_SAMPLES: usize = 2048;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pwl_value_interpolates_and_holds() {
        let u = Pwl::new(vec![(0.0, 0.0), (1.0, 2.0), (3.0, 2.0)]).unwrap();
        assert_eq!(u.value(-1.0), 0.0);
        assert_eq!(u.value(0.5), 1.0);
        assert_eq!(u.value(2.0), 2.0);
        assert_eq!(u.value(10.0), 2.0);
        assert_eq!(u.end_time(), 3.0);
    }

    #[test]
    fn pwl_jump_takes_post_value() {
        let u = Pwl::new(vec![(0.0, 0.0), (1.0, 0.0), (1.0, 5.0), (2.0, 5.0)]).unwrap();
        assert_eq!(u.value(0.999), 0.0);
        assert_eq!(u.value(1.0), 5.0);
        assert_eq!(u.cross(2.5), Some(1.0));
    }

    #[test]
    fn pwl_cross_is_exact_on_a_ramp() {
        let u = Pwl::new(vec![(0.0, 0.0), (4.0, 2.0)]).unwrap();
        assert_eq!(u.cross(1.0), Some(2.0));
        assert_eq!(u.cross(5.0), None);
    }

    #[test]
    fn pwl_rejects_bad_input() {
        assert!(Pwl::new(vec![]).is_err());
        assert!(Pwl::new(vec![(0.0, f64::NAN)]).is_err());
        assert!(Pwl::new(vec![(1.0, 0.0), (0.5, 1.0)]).is_err());
    }

    #[test]
    fn kernels_are_continuous_across_the_series_cutover() {
        for p in [
            Complex::new(-1.0, 0.0),
            Complex::new(-0.3, 2.0),
            Complex::new(0.0, 1.0),
        ] {
            // Just inside the series branch (|z| < 1e-3) the truncated
            // series must agree with the direct expression evaluated at
            // the same time — the branches meet smoothly.
            let t_series = 0.99e-3 / p.abs().max(1e-300);
            let z = p.scale(t_series);
            let direct_step = (cexp(z) - Complex::ONE) * p.recip();
            let pr = p.recip();
            let direct_ramp = (cexp(z) - Complex::ONE) * pr * pr - pr.scale(t_series);
            for (f, direct, name) in [
                (
                    step_kernel as fn(Complex, f64) -> Complex,
                    direct_step,
                    "step",
                ),
                (
                    ramp_kernel as fn(Complex, f64) -> Complex,
                    direct_ramp,
                    "ramp",
                ),
            ] {
                let a = f(p, t_series);
                let rel = (a - direct).abs() / a.abs().max(1e-300);
                assert!(rel < 1e-9, "{name} series vs direct at cutover: {rel}");
                // And against a midpoint Riemann sum as ground truth.
                let t = 2.0 / p.abs().max(1.0);
                let n = 20_000;
                let dt = t / n as f64;
                let mut sum_step = Complex::ZERO;
                let mut sum_ramp = Complex::ZERO;
                for k in 0..n {
                    let x = (k as f64 + 0.5) * dt;
                    let e = cexp(p.scale(t - x));
                    sum_step += e.scale(dt);
                    sum_ramp += e.scale(x * dt);
                }
                let es = (f(p, t) - if name == "step" { sum_step } else { sum_ramp }).abs();
                let scale = if name == "step" {
                    sum_step.abs()
                } else {
                    sum_ramp.abs()
                };
                assert!(es < 1e-4 * scale.max(1e-300), "{name} kernel off: {es}");
            }
        }
    }

    fn single_pole(pole: Complex, residue: Complex) -> PoleResidueModel {
        let mut r = CMatrix::zeros(1, 1);
        r[(0, 0)] = residue;
        PoleResidueModel::from_parts(vec![pole], vec![r], Matrix::zeros(1, 1), 0)
    }

    #[test]
    fn first_order_step_response_is_analytic() {
        // H(s) = a/(s + a) → step response 1 − e^{−at}.
        let a = 2.0e9;
        let m = single_pole(Complex::from_real(-a), Complex::from_real(a));
        let u = Pwl::new(vec![(0.0, 1.0)]).unwrap();
        for &t in &[1e-10, 5e-10, 2e-9] {
            let y = m.response(0, std::slice::from_ref(&u), t).unwrap();
            let exact = 1.0 - (-a * t).exp();
            assert!((y - exact).abs() < 1e-12, "t={t}: {y} vs {exact}");
        }
        // 50 % crossing at ln(2)/a.
        let t50 = m
            .cross_time(0, std::slice::from_ref(&u), 0.5, 5.0 / a)
            .unwrap()
            .unwrap();
        assert!((t50 - 2.0f64.ln() / a).abs() < 1e-15 / a * 1e3);
    }

    #[test]
    fn ramp_input_response_matches_quadrature() {
        // Underdamped pair: H(s) = r/(s−p) + r̄/(s−p̄).
        let p = Complex::new(-5e8, 6e9);
        let r = Complex::new(2.5e8, -1e8);
        let mut res = CMatrix::zeros(1, 1);
        res[(0, 0)] = r;
        let mut res_conj = CMatrix::zeros(1, 1);
        res_conj[(0, 0)] = r.conj();
        let m = PoleResidueModel::from_parts(
            vec![p, p.conj()],
            vec![res, res_conj],
            Matrix::zeros(1, 1),
            0,
        );
        let rise = 5e-11;
        let u = Pwl::new(vec![(0.0, 0.0), (rise, 1.0)]).unwrap();
        let t = 3e-10;
        let y = m.response(0, std::slice::from_ref(&u), t).unwrap();
        // Ground truth by midpoint quadrature of the convolution.
        let n = 200_000;
        let dt = t / n as f64;
        let mut sum = Complex::ZERO;
        for k in 0..n {
            let x = (k as f64 + 0.5) * dt;
            let uval = if x < rise { x / rise } else { 1.0 };
            sum += (cexp(p.scale(t - x)) * r + cexp(p.conj().scale(t - x)) * r.conj())
                .scale(uval * dt);
        }
        assert!(
            (y - sum.re).abs() < 1e-6 * sum.re.abs().max(1e-12),
            "{y} vs {}",
            sum.re
        );
    }

    #[test]
    fn feedthrough_passes_the_input_through() {
        let mut d = Matrix::zeros(1, 1);
        d[(0, 0)] = 0.25;
        let m = PoleResidueModel::from_parts(vec![], vec![], d, 0);
        let u = Pwl::new(vec![(0.0, 0.0), (1.0, 4.0)]).unwrap();
        assert_eq!(m.response(0, std::slice::from_ref(&u), 0.5).unwrap(), 0.5);
    }

    #[test]
    fn response_rejects_mismatched_shapes() {
        let m = single_pole(Complex::from_real(-1.0), Complex::ONE);
        let u = Pwl::new(vec![(0.0, 1.0)]).unwrap();
        assert!(m.response(1, std::slice::from_ref(&u), 0.1).is_err());
        assert!(m.response(0, &[], 0.1).is_err());
    }
}
