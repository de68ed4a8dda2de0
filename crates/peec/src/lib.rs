//! PEEC field solver — the Raphael RI3 / FastHenry substitute.
//!
//! The paper pre-characterizes inductance tables by invoking the 3-D
//! extractor Raphael RI3 on one- and two-trace subproblems. This crate is a
//! from-scratch PEEC (Partial Element Equivalent Circuit) solver providing
//! the same capabilities for rectangular on-chip conductors:
//!
//! * [`partial`] — closed-form partial self/mutual inductance of rectangular
//!   bars (Neumann integral with geometric-mean-distance cross-sections) and
//!   DC resistance,
//! * [`gmd`] — numerical geometric mean distances via Gauss–Legendre
//!   quadrature,
//! * [`mesh`] — volume-filament decomposition for skin/proximity effect at
//!   the significant frequency `0.32/t_r`,
//! * [`solver`] — [`PartialSystem`]: conductor-level `R(ω)`/`L(ω)` from the
//!   filament-level complex impedance solve,
//! * [`fastop`] — the matrix-free fast path behind [`SolverBackend`]:
//!   batched translation-invariance kernel caching, cluster-tree near/far
//!   splitting with an H² nested-basis far field (flat ACA for blocks not
//!   strictly beyond the GMD far threshold), and a block-diagonal
//!   preconditioner for the `rlcx_numeric::gmres` Krylov solve,
//! * [`loop_l`] — loop-inductance reduction with the paper's *merged ground
//!   node at the far end* convention, plus ground-plane strip meshing and
//!   the [`BlockExtractor`] convenience layer used by the table builder,
//! * [`network`] — a complex-frequency branch network (AC MNA) used to solve
//!   whole interconnect *trees* flat, the reference the linear-cascading
//!   experiment (Table I) compares against,
//! * [`tree_solver`] — assembles a [`rlcx_geom::SegmentTree`] of three-wire
//!   segments into such a network and reports its driving-point loop
//!   inductance.
//!
//! # Example: Figure 1's coplanar waveguide
//!
//! ```
//! use rlcx_geom::{Block, Stackup};
//! use rlcx_peec::BlockExtractor;
//!
//! # fn main() -> Result<(), rlcx_peec::PeecError> {
//! let stackup = Stackup::hp_six_metal_copper();
//! let block = Block::coplanar_waveguide(1000.0, 10.0, 5.0, 1.0)?;
//! let extractor = BlockExtractor::new(stackup, 5)?.frequency(3.2e9);
//! let result = extractor.extract(&block)?;
//! // One signal trace → a 1×1 loop-inductance matrix, order ~0.5 nH/mm.
//! assert!(result.loop_l[(0, 0)] > 0.1e-9 && result.loop_l[(0, 0)] < 2e-9);
//! # Ok(())
//! # }
//! ```

pub mod fastop;
pub mod gmd;
mod h2;
pub mod loop_l;
mod memo;
pub mod mesh;
pub mod network;
pub mod partial;
pub mod solver;
pub mod tree_solver;

mod error;

pub use error::PeecError;
pub use fastop::{iterative_cutover, Compression, FastOpOptions, SolverBackend, ITERATIVE_CUTOVER};
pub use gmd::GmdMemo;
pub use loop_l::{BlockExtraction, BlockExtractor, PlaneSpec};
pub use mesh::MeshSpec;
pub use network::{AcNetwork, Branch};
pub use solver::{Conductor, PartialSystem};
pub use tree_solver::FlatTreeSolver;

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, PeecError>;
