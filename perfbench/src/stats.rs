//! Order statistics used by every reported figure.

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median (mean of the two middle values for an even count); NaN when
/// empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let s = sorted(samples);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Percentile rungs tried for the tail figure, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The tail figure: the highest percentile of [`TAIL_LADDER`] whose
/// nearest-rank value still has at least [`TAIL_MIN_BEYOND`] samples above
/// its rank. Standard rungs rather than the exact rank `n − 10`: on
/// thousands of ops that rank sits among sporadic scheduler stalls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (50 when no rung qualifies).
    pub percentile: f64,
    /// The nearest-rank value at that percentile.
    pub value: f64,
    /// Samples ranked beyond it.
    pub beyond: usize,
}

/// See [`Tail`]. With fewer than `2 * TAIL_MIN_BEYOND` samples no rung
/// qualifies and the median rung is reported with its (short) count.
pub fn tail(samples: &[f64]) -> Tail {
    let s = sorted(samples);
    let n = s.len();
    if n == 0 {
        return Tail {
            percentile: 50.0,
            value: f64::NAN,
            beyond: 0,
        };
    }
    let at = |p: f64| {
        let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
        Tail {
            percentile: p,
            value: s[rank - 1],
            beyond: n - rank,
        }
    };
    TAIL_LADDER
        .iter()
        .map(|&p| at(p))
        .find(|t| t.beyond >= TAIL_MIN_BEYOND)
        .unwrap_or_else(|| at(50.0))
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// 64-bit FNV-1a, the hash the op list and stage netlists are keyed by.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_picks_the_highest_rung_with_ten_samples_beyond() {
        // 1..=1000: p99 has rank 990 and exactly 10 samples beyond it.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(
            tail(&v),
            Tail {
                percentile: 99.0,
                value: 990.0,
                beyond: 10
            }
        );
        // 999 samples: p99 rank 990 leaves only 9 beyond, so p95 it is.
        let t = tail(&v[..999]);
        assert_eq!((t.percentile, t.value, t.beyond), (95.0, 950.0, 49));
        // 100 samples: p90 is rank 90 with 10 beyond.
        let t = tail(&v[..100]);
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 90.0, 10));
    }

    #[test]
    fn tail_ignores_input_order_and_reports_short_counts() {
        let mut v: Vec<f64> = (1..=40).map(f64::from).collect();
        v.reverse();
        let t = tail(&v);
        assert_eq!((t.percentile, t.value, t.beyond), (75.0, 30.0, 10));
        let short = tail(&[5.0, 1.0, 3.0]);
        assert_eq!(
            (short.percentile, short.value, short.beyond),
            (50.0, 3.0, 1)
        );
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
