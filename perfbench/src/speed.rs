//! Host speed: a fixed probe timed between ops, by which op times are
//! normalized.
//!
//! The benchmark host is a small slice of a shared machine whose speed
//! follows its neighbours' load: the same op list ran 1.7× slower in one
//! phase than in another a minute later, and a whole run can fall in one
//! phase, so no averaging inside a run removes it. The probe — float
//! formatting and parsing plus small allocating Gram–Schmidt sweeps — is
//! benchmark code that calls nothing in the program: its time follows the
//! host's phase but no change to the program. Of the kernels tried (dense
//! LU, pointer chasing, strided reads, allocation, `BTreeMap` churn, float
//! formatting, Gram–Schmidt) this pair tracked the skew ops' time across
//! phases best. Each op's wall time is divided by the median probe time
//! around it and multiplied by [`NOMINAL_S`]: op times read as on a host
//! where one probe takes 1 ms.

use crate::stats;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Probe time the normalized figures are expressed at (s).
pub const NOMINAL_S: f64 = 1e-3;
/// Least time between two probes (s).
pub const PERIOD_S: f64 = 0.1;
/// Probe samples whose median gives the host speed around an op.
const NEAREST: usize = 9;

/// One probe: returns its wall time (s).
pub fn probe() -> f64 {
    let t0 = Instant::now();
    let mut text = String::new();
    let mut acc = 0.0f64;
    for i in 0..black_box(1500usize) {
        text.clear();
        let v = (i as f64).sqrt() * 1.234567e-12 + 3.3;
        let _ = write!(text, "R{} n{} n{} {:e}", i, i % 97, i % 89, v);
        for token in text.split_whitespace() {
            acc += token.parse::<f64>().unwrap_or(token.len() as f64);
        }
    }
    let n = black_box(24usize);
    for rep in 0..12 {
        let mut basis: Vec<Vec<f64>> = Vec::with_capacity(n);
        for j in 0..n {
            let mut v: Vec<f64> = (0..3 * n)
                .map(|i| ((i * 7 + j * 13 + rep) % 17) as f64 + if i == j { 5.0 } else { 0.0 })
                .collect();
            for u in &basis {
                let d: f64 = u.iter().zip(&v).map(|(a, b)| a * b).sum();
                v.iter_mut().zip(u).for_each(|(a, b)| *a -= d * b);
            }
            let norm = v.iter().map(|a| a * a).sum::<f64>().sqrt();
            v.iter_mut().for_each(|a| *a /= norm);
            basis.push(v);
        }
        acc += basis[n - 1][0];
    }
    black_box(acc);
    t0.elapsed().as_secs_f64()
}

/// Median of three probes (s).
pub fn probe_median() -> f64 {
    stats::median(&[probe(), probe(), probe()])
}

/// Probe samples of one run: `(time since the run started, probe time)`.
#[derive(Debug, Default)]
pub struct Track {
    samples: Vec<(f64, f64)>,
}

impl Track {
    /// Probes when at least [`PERIOD_S`] has passed since the last probe
    /// (or none was taken yet); `now` is the time since the run started.
    pub fn maybe_probe(&mut self, now: f64) {
        if self
            .samples
            .last()
            .is_none_or(|&(t, _)| now - t >= PERIOD_S)
        {
            self.push(now, probe());
        }
    }

    /// Records a probe time taken at `at`.
    pub fn push(&mut self, at: f64, probe_s: f64) {
        self.samples.push((at, probe_s));
    }

    /// Median probe time of the [`NEAREST`] samples closest to `at`; NaN
    /// when there is none.
    pub fn around(&self, at: f64) -> f64 {
        let mut near: Vec<&(f64, f64)> = self.samples.iter().collect();
        near.sort_by(|a, b| (a.0 - at).abs().total_cmp(&(b.0 - at).abs()));
        let times: Vec<f64> = near.iter().take(NEAREST).map(|s| s.1).collect();
        stats::median(&times)
    }

    /// Median probe time over the run.
    pub fn median(&self) -> f64 {
        stats::median(&self.samples.iter().map(|s| s.1).collect::<Vec<_>>())
    }

    /// Probe samples taken.
    pub fn len(&self) -> usize {
        self.samples.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_takes_time() {
        assert!(probe() > 0.0);
    }

    #[test]
    fn around_takes_the_median_of_the_nearest_samples() {
        let mut t = Track::default();
        // A slow phase (2 ms probes) for the first second, then a fast one.
        for i in 0..10 {
            t.push(0.1 * f64::from(i), 2e-3);
        }
        for i in 10..30 {
            t.push(0.1 * f64::from(i), 1e-3);
        }
        assert_eq!(t.around(0.2), 2e-3);
        assert_eq!(t.around(2.5), 1e-3);
        assert_eq!(t.median(), 1e-3);
        assert!(Track::default().around(1.0).is_nan());
    }

    #[test]
    fn probes_are_spaced_by_the_period() {
        let mut t = Track::default();
        for step in 0..10 {
            t.maybe_probe(0.03 * f64::from(step));
        }
        // At 0, 0.12, 0.24 s.
        assert_eq!(t.len(), 3);
    }
}
