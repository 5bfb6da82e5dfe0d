//! # vlsi-netlist
//!
//! Netlist model for the sime-placement workspace.
//!
//! This crate provides the circuit substrate that the placement cost model
//! (`vlsi-place`) and the Simulated Evolution engine (`sime-core`) operate
//! on:
//!
//! * [`Cell`], [`Net`] and [`Netlist`] — an immutable gate-level circuit graph
//!   with fan-in / fan-out queries, stored in flat arrays: `Copy` cell and
//!   net records, one name arena, one sink arena and two CSR adjacency
//!   tables, with no heap allocation per cell or net (see
//!   [`Netlist`]'s layout section),
//! * [`paths`] — extraction of long combinational paths used by the delay cost,
//! * [`generator`] — a deterministic, seeded synthetic circuit generator that
//!   produces ISCAS-89-like circuits (levelised DAGs with realistic fanout and
//!   switching-probability distributions),
//! * [`bench_suite`] — the five named circuits used throughout the paper
//!   (`s1196`, `s1488`, `s1494`, `s1238`, `s3330`) regenerated with the paper's
//!   published cell counts, plus the extended scaling tier (`s5378`, `s9234`,
//!   `s13207`, `s15850`) behind the uniform [`bench_suite::SuiteCircuit`]
//!   handle,
//! * [`bookshelf`] — a Bookshelf-style `.nodes`/`.nets` on-disk interchange
//!   (UCLA-format core plus `#` annotations for the attributes the plain
//!   format lacks), so circuits can be dumped, shipped and reloaded instead
//!   of regenerated.
//!
//! The original paper evaluates on ISCAS-89 benchmark circuits. Those netlists
//! are not redistributable here, so [`bench_suite`] builds synthetic stand-ins
//! matched to the published cell counts and to typical ISCAS-89 connectivity
//! statistics (average fanout ≈ 2–3, a small population of high-fanout nets,
//! 10–20 % sequential elements). See `DESIGN.md` §2 (S1) for the substitution
//! argument.

#![warn(missing_docs)]

mod cell;
mod net;
mod netlist;

pub mod bench_suite;
pub mod bookshelf;
pub mod generator;
pub mod paths;

pub use cell::{Cell, CellId, CellKind};
pub use net::{Net, NetId};
pub use netlist::{Netlist, NetlistBuilder, NetlistError, NetlistStats};

/// Convenience prelude bringing the common netlist types into scope.
pub mod prelude {
    pub use crate::bench_suite::{
        extended_circuit, paper_circuit, ExtendedCircuit, PaperCircuit, SuiteCircuit,
    };
    pub use crate::bookshelf::{
        load_bookshelf, parse_bookshelf, save_bookshelf, write_bookshelf, BookshelfPair,
    };
    pub use crate::generator::{CircuitGenerator, GeneratorConfig};
    pub use crate::paths::{extract_paths, Path, PathExtractionConfig};
    pub use crate::{Cell, CellId, CellKind, Net, NetId, Netlist, NetlistBuilder};
}
