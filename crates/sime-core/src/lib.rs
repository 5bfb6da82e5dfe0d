//! # sime-core
//!
//! Serial Simulated Evolution (SimE) for multiobjective VLSI standard-cell
//! placement — the algorithm of Figure 1 in the paper.
//!
//! SimE evolves a *single* solution through three operators applied once per
//! iteration:
//!
//! 1. **Evaluation** ([`SimEEngine::evaluate`]) — compute the goodness
//!    `gᵢ = Oᵢ / Cᵢ ∈ [0, 1]` of every cell (see
//!    [`vlsi_place::goodness`]).
//! 2. **Selection** ([`selection`]) — probabilistically pick the ill-placed
//!    cells: cell `i` joins the selection set `S` when
//!    `Random > min(gᵢ + B, 1)`. The non-determinism is what lets SimE escape
//!    local minima.
//! 3. **Allocation** ([`allocation`]) — remove the selected cells and
//!    re-insert them one at a time at their best-fit slot (the paper's
//!    *sorted individual best fit*), which is where ~98 % of the runtime goes
//!    (Section 4 of the paper).
//!
//! [`SimEEngine`] ties the three operators together with stopping criteria,
//! per-iteration statistics and an operator-level profile
//! ([`profile::ProfileReport`]) that reproduces the paper's Section 4
//! measurement. The individual operators are public because the parallel
//! strategies in `sime-parallel` recombine them in different ways (Type I
//! distributes evaluation, Type II runs the whole loop on row subsets,
//! Type III runs many full loops that exchange solutions).

#![warn(missing_docs)]

pub mod allocation;
pub mod engine;
pub mod profile;
pub mod selection;

pub use allocation::{AllocScratch, AllocationConfig, AllocationStats};
pub use engine::{
    IterationStats, SimEConfig, SimEEngine, SimEResult, SimEScratch, StoppingCriteria,
};
pub use profile::{Phase, ProfileReport};
pub use selection::{select, SelectionScheme};

/// Convenience prelude bringing the common SimE types into scope.
pub mod prelude {
    pub use crate::allocation::{AllocScratch, AllocationConfig};
    pub use crate::engine::{SimEConfig, SimEEngine, SimEResult, SimEScratch, StoppingCriteria};
    pub use crate::profile::ProfileReport;
    pub use crate::selection::SelectionScheme;
}
