//! # cluster-sim
//!
//! A simulated message-passing cluster.
//!
//! The paper's experiments run on a dedicated cluster of eight 2 GHz
//! Pentium-4 machines connected by fast Ethernet, programmed with MPICH 1.2.5.
//! Neither the cluster nor a production MPI binding is available in this
//! reproduction, so this crate provides the two pieces the parallel SimE
//! strategies actually need:
//!
//! * [`timeline::ClusterTimeline`] — a **virtual-time accountant**. The
//!   strategy implementations execute their per-rank computation locally (the
//!   results are bit-exact with a real distributed run because the algorithms
//!   are deterministic given their RNG streams) and charge every unit of
//!   computation and every message to per-rank virtual clocks. Computation is
//!   priced by a calibrated [`machine::ComputeModel`]; messages are priced by
//!   a [`network::NetworkModel`] with fast-Ethernet defaults. The resulting
//!   makespan is the *modeled runtime* reported in the reproduced tables —
//!   this is what captures the paper's central finding that fast-Ethernet
//!   communication overheads erase the gains of Type I parallelization.
//!
//! * [`comm::WorkerPool`] — a persistent pool of OS worker threads, each
//!   fed through its own work lane, with results merged back **in
//!   submission order**. This is the backend seam the `sime-parallel` crate's
//!   `Threaded` execution backend builds on: strategies execute their
//!   per-rank work as pool tasks for real shared-memory parallelism while the
//!   [`timeline::ClusterTimeline`] keeps accounting the *modeled* cluster
//!   cost of the same schedule, so both backends report identical modeled
//!   runtimes and bitwise-identical search results.
//!
//! The substitution argument is recorded in `DESIGN.md` (S4); the backend
//! determinism contract lives in `DESIGN.md` §4.

#![warn(missing_docs)]

pub mod comm;
pub mod machine;
pub mod network;
pub mod timeline;

pub use comm::WorkerPool;
pub use machine::{ComputeModel, Workload};
pub use network::NetworkModel;
pub use timeline::{ClusterConfig, ClusterTimeline, CommStats};

/// Convenience prelude bringing the common cluster-simulation types into scope.
pub mod prelude {
    pub use crate::comm::WorkerPool;
    pub use crate::machine::{ComputeModel, Workload};
    pub use crate::network::NetworkModel;
    pub use crate::timeline::{ClusterConfig, ClusterTimeline, CommStats};
}
