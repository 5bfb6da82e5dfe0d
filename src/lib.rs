//! # sime-placement
//!
//! A Rust reproduction of *"Evaluating Parallel Simulated Evolution
//! Strategies for VLSI Cell Placement"* (Sait, Ali & Zaidi, IPDPS 2006).
//!
//! This facade crate re-exports the whole workspace so that applications can
//! depend on a single crate:
//!
//! * [`netlist`] — circuit model, synthetic ISCAS-89-like benchmark suite,
//!   Bookshelf interchange ([`vlsi_netlist`]),
//! * [`place`] — row-based placement, multiobjective cost functions and the
//!   fuzzy quality measure µ(s) ([`vlsi_place`]),
//! * [`sime`] — the serial Simulated Evolution engine ([`sime_core`]),
//! * [`cluster`] — the modeled cluster timeline and the worker pool behind
//!   the threaded backend ([`cluster_sim`]),
//! * [`parallel`] — the Type I / II / III parallel strategies
//!   ([`sime_parallel`]),
//! * [`baselines`] — SA / GA / TS comparison placers ([`metaheuristics`]).
//!
//! ## Quickstart
//!
//! ```
//! use sime_placement::prelude::*;
//! use std::sync::Arc;
//!
//! // A small synthetic circuit (the named paper circuits are also available
//! // through `paper_circuit(PaperCircuit::S1196)` etc.).
//! let netlist = Arc::new(
//!     CircuitGenerator::new(GeneratorConfig::sized("quick", 120, 1)).generate(),
//! );
//!
//! // Serial SimE with the paper's default operators, 20 iterations.
//! let config = SimEConfig::paper_defaults(Objectives::WirelengthPower, 8, 20);
//! let engine = SimEEngine::new(netlist, config);
//! let result = engine.run();
//! assert!(result.best_mu() > 0.0 && result.best_mu() <= 1.0);
//! ```

#![warn(missing_docs)]

pub use cluster_sim as cluster;
pub use metaheuristics as baselines;
pub use sime_core as sime;
pub use sime_parallel as parallel;
pub use vlsi_netlist as netlist;
pub use vlsi_place as place;

/// One-stop prelude bringing the most frequently used types of every
/// sub-crate into scope.
pub mod prelude {
    pub use cluster_sim::prelude::*;
    pub use metaheuristics::prelude::*;
    pub use sime_core::prelude::*;
    pub use sime_parallel::prelude::*;
    pub use vlsi_netlist::prelude::*;
    pub use vlsi_place::prelude::*;
}
