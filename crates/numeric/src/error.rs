use std::fmt;

/// Error type for all fallible numeric operations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NumericError {
    /// A matrix (or matrix pair) had a shape incompatible with the operation.
    DimensionMismatch {
        /// What the operation expected, e.g. `"square matrix"`.
        expected: String,
        /// What it actually received, e.g. `"3x4"`.
        found: String,
    },
    /// Factorization failed because the matrix is singular (or not positive
    /// definite for Cholesky) to working precision.
    Singular {
        /// Index at which the factorization broke down. The LU
        /// factorizations report the column of the input matrix that had
        /// no usable pivot (sparse LU maps its elimination order back).
        pivot: usize,
    },
    /// An input slice was empty or too short for the requested operation.
    InsufficientData {
        /// Human-readable description of the offending input.
        what: String,
        /// Minimum number of points/elements required.
        needed: usize,
        /// Number actually provided.
        got: usize,
    },
    /// Interpolation abscissae were not strictly increasing.
    NotMonotonic {
        /// Index of the first out-of-order element.
        index: usize,
    },
    /// A scalar argument was out of its legal domain (e.g. non-positive
    /// length fed to a formula that takes logarithms).
    InvalidArgument {
        /// Description of the violated precondition.
        what: String,
    },
    /// An iterative method exhausted its iteration budget without reaching
    /// the requested tolerance.
    DidNotConverge {
        /// Iterations performed before giving up.
        iterations: usize,
        /// Residual norm at the final iterate.
        residual: f64,
    },
}

impl fmt::Display for NumericError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumericError::DimensionMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, found {found}")
            }
            NumericError::Singular { pivot } => {
                write!(
                    f,
                    "matrix is singular to working precision at pivot {pivot}"
                )
            }
            NumericError::InsufficientData { what, needed, got } => {
                write!(
                    f,
                    "insufficient data for {what}: need at least {needed}, got {got}"
                )
            }
            NumericError::NotMonotonic { index } => {
                write!(f, "abscissae not strictly increasing at index {index}")
            }
            NumericError::InvalidArgument { what } => {
                write!(f, "invalid argument: {what}")
            }
            NumericError::DidNotConverge {
                iterations,
                residual,
            } => {
                write!(
                    f,
                    "iteration did not converge after {iterations} iterations (residual {residual:.3e})"
                )
            }
        }
    }
}

impl std::error::Error for NumericError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errors = [
            NumericError::DimensionMismatch {
                expected: "square".into(),
                found: "2x3".into(),
            },
            NumericError::Singular { pivot: 1 },
            NumericError::InsufficientData {
                what: "spline".into(),
                needed: 3,
                got: 1,
            },
            NumericError::NotMonotonic { index: 4 },
            NumericError::InvalidArgument {
                what: "negative length".into(),
            },
            NumericError::DidNotConverge {
                iterations: 100,
                residual: 1e-3,
            },
        ];
        for e in errors {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase());
            assert!(!msg.ends_with('.'));
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NumericError>();
    }
}
