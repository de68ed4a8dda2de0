//! Table-based inductance extraction and clocktree RLC netlist formulation —
//! the paper's primary contribution.
//!
//! The methodology, end to end:
//!
//! 1. **Problem reduction** (paper Section II): by Foundations 1 and 2, an
//!    *n*-trace inductance extraction reduces — without loss of accuracy —
//!    to 1-trace subproblems (self Lp) and 2-trace subproblems (mutual Lp).
//!    With local ground planes in layers N±2, the same reduction holds for
//!    **loop** inductance with the plane merged into the return.
//! 2. **Table pre-characterization** (Section III): run the field solver
//!    (our `rlcx-peec`, standing in for Raphael RI3) at the *significant
//!    frequency* `0.32/t_r` over a geometry grid; store
//!    * self L over (width, length) — [`SelfLTable`],
//!    * mutual L over (w1, w2, spacing, length) — [`MutualLTable`],
//!    * loop L/R for shielded configurations over (width, length) —
//!      [`LoopLTable`].
//! 3. **Table lookup** with bi-cubic spline interpolation/extrapolation
//!    (Numerical Recipes), at microseconds per query instead of a field
//!    solve.
//! 4. **Linear cascading** (Section IV): a signal guarded by same-or-wider
//!    ground wires cascades — the tree's loop inductance is the
//!    series/parallel combination of per-segment loop inductances.
//! 5. **RLC netlist formulation** (Section V): per clocktree segment, series
//!    R (analytic) and series loop L (table), shunt C as π halves
//!    (pre-characterized capacitance), cascaded along the tree between
//!    buffer levels — [`SegmentRlc`] and [`TreeNetlistBuilder`].
//!
//! # Example
//!
//! ```
//! use rlcx_core::{ClocktreeExtractor, TableBuilder};
//! use rlcx_geom::{Block, Stackup};
//!
//! # fn main() -> Result<(), rlcx_core::CoreError> {
//! let stackup = Stackup::hp_six_metal_copper();
//! // Characterize small tables for the top (clock) layer at 3.2 GHz.
//! let tables = TableBuilder::new(stackup.clone(), 5)?
//!     .widths(vec![2.0, 5.0, 10.0])
//!     .lengths(vec![250.0, 500.0, 1000.0, 2000.0])
//!     .build()?;
//! let extractor = ClocktreeExtractor::new(stackup, 5, tables)?;
//! let segment = Block::coplanar_waveguide(800.0, 5.0, 5.0, 1.0)?;
//! let rlc = extractor.extract_segment(&segment)?;
//! assert!(rlc.l > 0.05e-9 && rlc.l < 1.0e-9);
//! # Ok(())
//! # }
//! ```

pub mod builder;
pub mod bus;
pub mod extractor;
pub mod io;
pub mod segment;
pub mod table;

mod error;

pub use builder::TableBuilder;
pub use bus::{BusNetlistBuilder, BusRlc, WireDrive};
pub use error::CoreError;
pub use extractor::{ClocktreeExtractor, TreeNetlistBuilder, TreeRlcNetlist};
pub use segment::SegmentRlc;
pub use table::{InductanceTables, LoopLTable, MutualLTable, SelfLTable};

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, CoreError>;
