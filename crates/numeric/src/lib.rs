//! Dense numerics for the `rlcx` extraction toolkit.
//!
//! This crate provides the numerical substrate the field solver, the table
//! interpolation layer and the circuit simulator are built on:
//!
//! * [`Complex`] — a minimal `f64` complex number (the PEEC impedance solve
//!   works on `Z = R + jωL`),
//! * [`Matrix`] / [`CMatrix`] — dense row-major real/complex matrices,
//! * [`lu`] — LU factorization with partial pivoting (real and complex) and
//!   the derived solve/inverse/determinant operations, plus in-place
//!   refactorization and transposed solves,
//! * [`condest`] — Hager one-norm condition estimation and iterative
//!   refinement over solve callbacks (dense or sparse),
//! * [`gmres`](mod@gmres) — restarted GMRES over `f64`/[`Complex`] with a matrix-free
//!   [`gmres::LinearOperator`] trait, the Krylov engine behind the fast
//!   PEEC solve path,
//! * [`mor`] — PRIMA-style passive model-order reduction: block-Arnoldi
//!   moment matching, congruence projection, a dense eigensolver for the
//!   reduced pencil and closed-form pole/residue delay queries,
//! * [`sparse`] — triplet→CSC sparse matrices, a fill-reducing
//!   minimum-degree ordering and a symbolic/numeric-split sparse LU
//!   ([`sparse::SparseLu`]) that the MNA circuit solves run on,
//! * [`cholesky`] — Cholesky factorization for symmetric positive-definite
//!   systems (partial-inductance matrices are SPD),
//! * [`spline`] — natural cubic and bi-cubic spline interpolation in the
//!   style of *Numerical Recipes* (`spline`/`splint`, `splie2`/`splin2`),
//!   which is the interpolation scheme the paper prescribes for table lookup,
//! * [`quadrature`] — Gauss–Legendre quadrature used to evaluate geometric
//!   mean distances between conductor cross-sections,
//! * [`stats`] — summary statistics and normal sampling for the statistical
//!   RC / process-variation experiments,
//! * [`parallel`] — a dependency-free parallel map with deterministic
//!   index sharding (`RLCX_THREADS` overrides the thread count), executed
//!   on [`pool`], a persistent process-wide worker pool cheap enough to
//!   dispatch per GMRES matvec,
//! * [`rng`] — a seedable SplitMix64 generator so the workspace never
//!   needs an external `rand` crate,
//! * [`obs`] — the `rlcx-obs` observability layer: nestable tracing spans
//!   (`RLCX_TRACE=off|summary|verbose`), the one per-stage clock of the
//!   workspace, a global metrics registry and machine-readable JSON run
//!   reports ([`obs::RunReport`]).
//!
//! # Example
//!
//! ```
//! use rlcx_numeric::{Matrix, lu::LuDecomposition};
//!
//! # fn main() -> Result<(), rlcx_numeric::NumericError> {
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])?;
//! let lu = LuDecomposition::new(&a)?;
//! let x = lu.solve(&[1.0, 2.0])?;
//! assert!((4.0 * x[0] + 1.0 * x[1] - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

pub mod cholesky;
pub mod complex;
pub mod condest;
pub mod gmres;
pub mod lu;
pub mod matrix;
pub mod mor;
pub mod obs;
pub mod parallel;
pub mod pool;
pub mod quadrature;
pub mod rng;
pub mod sparse;
pub mod spline;
pub mod stats;

mod error;

pub use complex::Complex;
pub use error::NumericError;
pub use gmres::{gmres, GmresOptions, GmresSolution, LinearOperator};
pub use matrix::{CMatrix, Matrix};
pub use parallel::{balanced_index, par_map, par_map_threads, thread_count, with_thread_count};
pub use rng::{SplitMix64, UniformRng};
pub use sparse::{CscMatrix, SparseLu, TripletBuilder};

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, NumericError>;
