//! # vlsi-place
//!
//! Row-based standard-cell placement model and the multiobjective cost
//! functions of the paper (Section 2):
//!
//! * [`Placement`] — a legal row-based placement of a
//!   [`Netlist`](vlsi_netlist::Netlist): every cell sits in exactly one row,
//!   cells within a row are packed left-to-right without overlap,
//! * [`wirelength`] — interconnect length estimation per net (single-trunk
//!   Steiner approximation, with half-perimeter as a cheaper alternative),
//! * [`CostEvaluator`] — wirelength, power, delay and width costs, with
//!   incremental per-net/per-path updates used heavily by the SimE allocation
//!   operator,
//! * [`kernel`] — the allocation-free hot path: [`TrialScorer`] (scratch-space
//!   trial scoring with a counting median instead of a sort) and
//!   [`NetLengthCache`] (dirty-net delta re-evaluation across iterations),
//!   both bitwise identical to the [`cost`] oracle,
//! * [`fuzzy`] — the fuzzy membership functions and aggregation that fold the
//!   three objectives into the scalar quality measure `µ(s) ∈ [0, 1]`,
//! * [`goodness`] — the per-cell multiobjective goodness `gᵢ = Oᵢ/Cᵢ` that
//!   drives SimE selection.
//!
//! The cost definitions follow Section 2 of the paper and its reference \[9\]
//! (Sait & Khan, *Engineering Applications of AI*, 2003): wirelength is the
//! sum of per-net Steiner estimates, power is switching-probability-weighted
//! wirelength, delay is the maximum path delay over a set of extracted
//! critical paths, and layout width is constrained to `(1 + α) · w_avg`.

#![warn(missing_docs)]

pub mod bounds;
pub mod cost;
pub mod fuzzy;
pub mod goodness;
pub mod interchange;
pub mod kernel;
pub mod layout;
pub mod wirelength;

pub use cost::{CostBreakdown, CostEvaluator, Objectives, TimingModel};
pub use fuzzy::{FuzzyConfig, FuzzyLevel};
pub use goodness::{GoodnessEvaluator, GoodnessVector};
pub use interchange::{placement_from_pl, placement_to_pl, rows_to_scl, PlConvertError};
pub use kernel::{NetLengthCache, TrialScorer};
pub use layout::{Placement, PlacementError, Slot};
pub use wirelength::{hpwl, single_trunk_steiner, WirelengthModel};

/// Convenience prelude bringing the common placement types into scope.
pub mod prelude {
    pub use crate::cost::{CostBreakdown, CostEvaluator, Objectives, TimingModel};
    pub use crate::fuzzy::FuzzyConfig;
    pub use crate::goodness::GoodnessEvaluator;
    pub use crate::kernel::{NetLengthCache, TrialScorer};
    pub use crate::layout::{Placement, Slot};
    pub use crate::wirelength::WirelengthModel;
}
