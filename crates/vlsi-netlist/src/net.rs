//! Nets (signal interconnections) and their identifiers.

use crate::CellId;
use serde::{Deserialize, Serialize};

/// Index of a net inside a [`crate::Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NetId(pub u32);

impl NetId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for NetId {
    fn from(v: u32) -> Self {
        NetId(v)
    }
}

impl From<usize> for NetId {
    fn from(v: usize) -> Self {
        NetId(v as u32)
    }
}

impl std::fmt::Display for NetId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A net: one driver cell and one or more sink cells.
///
/// The wirelength cost estimates the interconnect length of the net from the
/// placed positions of its driver and sinks; the power cost weights that
/// length with the net's switching probability `S_i`; the delay cost uses the
/// net's interconnect delay on critical paths.
///
/// A net holds only its driver and probability: 16 bytes, `Copy`, no heap.
/// Its name and its sinks live in the owning [`crate::Netlist`]'s arenas
/// ([`crate::Netlist::net_name`], [`crate::Netlist::sinks`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Net {
    /// The cell driving this net.
    pub driver: CellId,
    /// Switching probability `S_i ∈ [0, 1]` used by the power cost.
    pub switching_prob: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cell, Netlist, NetlistBuilder};

    /// One net driven by cell 7 with sinks 1 and 2.
    fn fanout_of_two() -> Netlist {
        let mut b = NetlistBuilder::new("net_test");
        for i in 0..8 {
            b.add_cell(&format!("c{i}"), Cell::logic(1));
        }
        b.add_net("n0", CellId(7), &[CellId(1), CellId(2)], 0.5);
        b.build().unwrap()
    }

    #[test]
    fn pin_count_counts_driver_and_sinks() {
        assert_eq!(fanout_of_two().pin_count(NetId(0)), 3);
    }

    #[test]
    fn connected_cells_yields_driver_first() {
        let nl = fanout_of_two();
        let cells: Vec<_> = nl.connected_cells(NetId(0)).collect();
        assert_eq!(cells, vec![CellId(7), CellId(1), CellId(2)]);
    }

    #[test]
    fn net_id_display() {
        assert_eq!(NetId(3).to_string(), "n3");
        assert_eq!(NetId::from(3usize).index(), 3);
    }

    #[test]
    fn a_net_is_16_bytes() {
        assert!(std::mem::size_of::<Net>() <= 16);
    }
}
