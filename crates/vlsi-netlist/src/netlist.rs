//! The immutable circuit graph and its builder.

use crate::{Cell, CellId, CellKind, Net, NetId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Errors produced while constructing or validating a [`Netlist`].
#[derive(Debug, Clone, PartialEq)]
pub enum NetlistError {
    /// A net references a cell id that does not exist.
    DanglingCell {
        /// Name of the offending net.
        net: String,
        /// The out-of-range cell id.
        cell: CellId,
    },
    /// Two cells share the same instance name.
    DuplicateCellName(String),
    /// Two nets share the same name.
    DuplicateNetName(String),
    /// A net has no sinks.
    EmptyNet(String),
    /// A net's switching probability is outside `[0, 1]`.
    InvalidSwitchingProbability {
        /// Name of the offending net.
        net: String,
        /// The invalid probability value.
        value: f64,
    },
    /// A cell has zero width; every cell must occupy at least one layout unit.
    ZeroWidthCell(String),
}

impl std::fmt::Display for NetlistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetlistError::DanglingCell { net, cell } => {
                write!(f, "net `{net}` references unknown cell {cell}")
            }
            NetlistError::DuplicateCellName(n) => write!(f, "duplicate cell name `{n}`"),
            NetlistError::DuplicateNetName(n) => write!(f, "duplicate net name `{n}`"),
            NetlistError::EmptyNet(n) => write!(f, "net `{n}` has no sinks"),
            NetlistError::InvalidSwitchingProbability { net, value } => {
                write!(
                    f,
                    "net `{net}` has switching probability {value} outside [0,1]"
                )
            }
            NetlistError::ZeroWidthCell(n) => write!(f, "cell `{n}` has zero width"),
        }
    }
}

impl std::error::Error for NetlistError {}

/// Summary statistics of a netlist, used by the benchmark suite and reports.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetlistStats {
    /// Number of cells.
    pub cells: usize,
    /// Number of nets.
    pub nets: usize,
    /// Total number of pins (sum of pin counts over all nets).
    pub pins: usize,
    /// Average net fanout (sinks per net).
    pub avg_fanout: f64,
    /// Maximum net fanout.
    pub max_fanout: usize,
    /// Number of sequential cells (flip-flops).
    pub flip_flops: usize,
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of primary outputs.
    pub outputs: usize,
    /// Sum of all cell widths (layout units).
    pub total_cell_width: u64,
    /// Number of macro blocks ([`CellKind::Macro`]).
    pub macros: usize,
    /// Number of fixed (pre-placed) cells of any kind.
    pub fixed_cells: usize,
    /// Sum of the widths of movable cells only — the area row packing
    /// actually distributes.
    pub movable_cell_width: u64,
}

/// An immutable gate-level circuit: cells, nets and derived connectivity.
///
/// Construct through [`NetlistBuilder`], the [generator](crate::generator) or
/// the [Bookshelf parser](crate::bookshelf). The derived fan-in / fan-out
/// tables are built once at construction so that the placement cost functions
/// can traverse connectivity without hashing.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Netlist {
    name: String,
    cells: Vec<Cell>,
    nets: Vec<Net>,
    /// CSR cell→nets adjacency: the nets of cell `c` occupy
    /// `cell_net_arena[cell_net_offsets[c] .. cell_net_offsets[c + 1]]`,
    /// fan-in nets first, then driven nets; `cell_net_split[c]` is the arena
    /// index where the driven nets start. One flat arena keeps the hot
    /// traversals of the placement cost kernels cache-friendly and
    /// allocation-free.
    cell_net_offsets: Vec<u32>,
    cell_net_split: Vec<u32>,
    cell_net_arena: Vec<NetId>,
    /// CSR net→cells adjacency: the distinct cells connected to net `n`
    /// (sorted by id, duplicates removed) occupy
    /// `net_cell_arena[net_cell_offsets[n] .. net_cell_offsets[n + 1]]`.
    net_cell_offsets: Vec<u32>,
    net_cell_arena: Vec<CellId>,
}

impl Netlist {
    /// Circuit name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of cells.
    #[inline]
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Number of nets.
    #[inline]
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// All cells, indexed by [`CellId`].
    #[inline]
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// All nets, indexed by [`NetId`].
    #[inline]
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// The cell with the given id.
    #[inline]
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// The net with the given id.
    #[inline]
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// Iterator over all cell ids.
    pub fn cell_ids(&self) -> impl Iterator<Item = CellId> + '_ {
        (0..self.cells.len() as u32).map(CellId)
    }

    /// Iterator over all net ids.
    pub fn net_ids(&self) -> impl Iterator<Item = NetId> + '_ {
        (0..self.nets.len() as u32).map(NetId)
    }

    /// Nets driven by `cell`.
    #[inline]
    pub fn nets_driven_by(&self, cell: CellId) -> &[NetId] {
        let i = cell.index();
        &self.cell_net_arena[self.cell_net_split[i] as usize..self.cell_net_offsets[i + 1] as usize]
    }

    /// Nets for which `cell` is a sink (the cell's fan-in nets).
    #[inline]
    pub fn nets_feeding(&self, cell: CellId) -> &[NetId] {
        let i = cell.index();
        &self.cell_net_arena[self.cell_net_offsets[i] as usize..self.cell_net_split[i] as usize]
    }

    /// All nets touching `cell` in either role (fan-in first, then driven),
    /// as one contiguous slice of the flat adjacency arena.
    #[inline]
    pub fn nets_of_cell(&self, cell: CellId) -> &[NetId] {
        let i = cell.index();
        &self.cell_net_arena
            [self.cell_net_offsets[i] as usize..self.cell_net_offsets[i + 1] as usize]
    }

    /// The distinct cells connected to `net`, sorted by cell id. This is the
    /// canonical pin order used by every cost kernel (naive and scratch-space
    /// alike), so the two evaluation paths sum pin contributions in the same
    /// order and stay bitwise identical.
    #[inline]
    pub fn net_cells(&self, net: NetId) -> &[CellId] {
        let i = net.index();
        &self.net_cell_arena
            [self.net_cell_offsets[i] as usize..self.net_cell_offsets[i + 1] as usize]
    }

    /// Cells that drive the fan-in nets of `cell` (its logical predecessors).
    pub fn fanin_cells(&self, cell: CellId) -> Vec<CellId> {
        let mut out: Vec<CellId> = self
            .nets_feeding(cell)
            .iter()
            .map(|&n| self.net(n).driver)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Cells fed by the nets driven by `cell` (its logical successors).
    pub fn fanout_cells(&self, cell: CellId) -> Vec<CellId> {
        let mut out: Vec<CellId> = self
            .nets_driven_by(cell)
            .iter()
            .flat_map(|&n| self.net(n).sinks.iter().copied())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Looks up a cell by instance name. Linear scan; intended for tests and
    /// the text-format parser, not hot paths.
    pub fn cell_by_name(&self, name: &str) -> Option<CellId> {
        self.cells
            .iter()
            .position(|c| c.name == name)
            .map(CellId::from)
    }

    /// Looks up a net by name. Linear scan.
    pub fn net_by_name(&self, name: &str) -> Option<NetId> {
        self.nets
            .iter()
            .position(|n| n.name == name)
            .map(NetId::from)
    }

    /// Summary statistics.
    pub fn stats(&self) -> NetlistStats {
        let pins: usize = self.nets.iter().map(Net::pin_count).sum();
        let total_sinks: usize = self.nets.iter().map(|n| n.sinks.len()).sum();
        NetlistStats {
            cells: self.cells.len(),
            nets: self.nets.len(),
            pins,
            avg_fanout: if self.nets.is_empty() {
                0.0
            } else {
                total_sinks as f64 / self.nets.len() as f64
            },
            max_fanout: self.nets.iter().map(|n| n.sinks.len()).max().unwrap_or(0),
            flip_flops: self
                .cells
                .iter()
                .filter(|c| c.kind == CellKind::FlipFlop)
                .count(),
            inputs: self
                .cells
                .iter()
                .filter(|c| c.kind == CellKind::Input)
                .count(),
            outputs: self
                .cells
                .iter()
                .filter(|c| c.kind == CellKind::Output)
                .count(),
            total_cell_width: self.cells.iter().map(|c| c.width as u64).sum(),
            macros: self
                .cells
                .iter()
                .filter(|c| c.kind == CellKind::Macro)
                .count(),
            fixed_cells: self.cells.iter().filter(|c| c.fixed).count(),
            movable_cell_width: self
                .cells
                .iter()
                .filter(|c| c.is_movable())
                .map(|c| c.width as u64)
                .sum(),
        }
    }

    /// `true` when the circuit carries at least one fixed (pre-placed) cell —
    /// the mixed-size tier. Pure standard-cell circuits return `false` and
    /// follow the exact code paths they always did.
    pub fn has_fixed_cells(&self) -> bool {
        self.cells.iter().any(|c| c.fixed)
    }
}

/// Incremental builder for [`Netlist`].
#[derive(Debug, Default, Clone)]
pub struct NetlistBuilder {
    name: String,
    cells: Vec<Cell>,
    nets: Vec<Net>,
}

impl NetlistBuilder {
    /// Starts a new netlist with the given circuit name.
    pub fn new(name: impl Into<String>) -> Self {
        NetlistBuilder {
            name: name.into(),
            cells: Vec::new(),
            nets: Vec::new(),
        }
    }

    /// Number of cells added so far.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Number of nets added so far.
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// Adds a cell and returns its id.
    pub fn add_cell(&mut self, cell: Cell) -> CellId {
        let id = CellId::from(self.cells.len());
        self.cells.push(cell);
        id
    }

    /// Adds a net and returns its id.
    pub fn add_net(&mut self, net: Net) -> NetId {
        let id = NetId::from(self.nets.len());
        self.nets.push(net);
        id
    }

    /// Validates the accumulated circuit and builds the immutable [`Netlist`].
    pub fn build(self) -> Result<Netlist, NetlistError> {
        let NetlistBuilder { name, cells, nets } = self;

        let mut seen_cells: HashMap<&str, ()> = HashMap::with_capacity(cells.len());
        for c in &cells {
            if c.width == 0 {
                return Err(NetlistError::ZeroWidthCell(c.name.clone()));
            }
            if seen_cells.insert(c.name.as_str(), ()).is_some() {
                return Err(NetlistError::DuplicateCellName(c.name.clone()));
            }
        }
        let mut seen_nets: HashMap<&str, ()> = HashMap::with_capacity(nets.len());
        for n in &nets {
            if seen_nets.insert(n.name.as_str(), ()).is_some() {
                return Err(NetlistError::DuplicateNetName(n.name.clone()));
            }
            if n.sinks.is_empty() {
                return Err(NetlistError::EmptyNet(n.name.clone()));
            }
            if !(0.0..=1.0).contains(&n.switching_prob) {
                return Err(NetlistError::InvalidSwitchingProbability {
                    net: n.name.clone(),
                    value: n.switching_prob,
                });
            }
            for cell in n.connected_cells() {
                if cell.index() >= cells.len() {
                    return Err(NetlistError::DanglingCell {
                        net: n.name.clone(),
                        cell,
                    });
                }
            }
        }

        let mut cell_out_nets = vec![Vec::new(); cells.len()];
        let mut cell_in_nets = vec![Vec::new(); cells.len()];
        for (i, n) in nets.iter().enumerate() {
            let nid = NetId::from(i);
            cell_out_nets[n.driver.index()].push(nid);
            for &s in &n.sinks {
                // A cell may appear several times as sink of the same net in a
                // degenerate netlist; record it once.
                if cell_in_nets[s.index()].last() != Some(&nid) {
                    cell_in_nets[s.index()].push(nid);
                }
            }
        }

        // Flatten the per-cell net lists into one CSR arena (fan-in nets
        // first, then driven nets, preserving net-id order within each role).
        let mut cell_net_offsets = Vec::with_capacity(cells.len() + 1);
        let mut cell_net_split = Vec::with_capacity(cells.len());
        let mut cell_net_arena =
            Vec::with_capacity(cell_in_nets.iter().map(Vec::len).sum::<usize>() + nets.len());
        cell_net_offsets.push(0u32);
        for (ins, outs) in cell_in_nets.iter().zip(cell_out_nets.iter()) {
            cell_net_arena.extend_from_slice(ins);
            cell_net_split.push(cell_net_arena.len() as u32);
            cell_net_arena.extend_from_slice(outs);
            cell_net_offsets.push(cell_net_arena.len() as u32);
        }

        // CSR net→cells arena: distinct connected cells per net, sorted by
        // id. This is the pin order every wirelength kernel iterates in.
        let mut net_cell_offsets = Vec::with_capacity(nets.len() + 1);
        let mut net_cell_arena = Vec::new();
        net_cell_offsets.push(0u32);
        let mut scratch: Vec<CellId> = Vec::new();
        for n in &nets {
            scratch.clear();
            scratch.extend(n.connected_cells());
            scratch.sort_unstable();
            scratch.dedup();
            net_cell_arena.extend_from_slice(&scratch);
            net_cell_offsets.push(net_cell_arena.len() as u32);
        }

        Ok(Netlist {
            name,
            cells,
            nets,
            cell_net_offsets,
            cell_net_split,
            cell_net_arena,
            net_cell_offsets,
            net_cell_arena,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Netlist {
        // in0 -> g0 -> g1 -> out0, plus a second net from g0 to out0.
        let mut b = NetlistBuilder::new("tiny");
        let i0 = b.add_cell(Cell::new("in0", CellKind::Input, 1, 0.0));
        let g0 = b.add_cell(Cell::logic("g0", 2));
        let g1 = b.add_cell(Cell::logic("g1", 3));
        let o0 = b.add_cell(Cell::new("out0", CellKind::Output, 1, 0.0));
        b.add_net(Net::new("n0", i0, vec![g0], 0.5));
        b.add_net(Net::new("n1", g0, vec![g1, o0], 0.3));
        b.add_net(Net::new("n2", g1, vec![o0], 0.2));
        b.build().unwrap()
    }

    #[test]
    fn builds_and_queries_connectivity() {
        let nl = tiny();
        assert_eq!(nl.num_cells(), 4);
        assert_eq!(nl.num_nets(), 3);
        let g0 = nl.cell_by_name("g0").unwrap();
        let g1 = nl.cell_by_name("g1").unwrap();
        let o0 = nl.cell_by_name("out0").unwrap();
        assert_eq!(nl.nets_driven_by(g0), &[NetId(1)]);
        assert_eq!(nl.nets_feeding(g0), &[NetId(0)]);
        assert_eq!(nl.fanout_cells(g0), vec![g1, o0]);
        assert_eq!(nl.fanin_cells(o0), vec![g0, g1]);
    }

    #[test]
    fn csr_adjacency_matches_role_queries() {
        let nl = tiny();
        for cell in nl.cell_ids() {
            let combined: Vec<NetId> = nl
                .nets_feeding(cell)
                .iter()
                .chain(nl.nets_driven_by(cell))
                .copied()
                .collect();
            assert_eq!(nl.nets_of_cell(cell), combined.as_slice());
        }
        for net in nl.net_ids() {
            let mut expected: Vec<CellId> = nl.net(net).connected_cells().collect();
            expected.sort_unstable();
            expected.dedup();
            assert_eq!(nl.net_cells(net), expected.as_slice());
        }
        let g0 = nl.cell_by_name("g0").unwrap();
        assert_eq!(nl.nets_of_cell(g0), &[NetId(0), NetId(1)]);
    }

    #[test]
    fn stats_are_consistent() {
        let nl = tiny();
        let s = nl.stats();
        assert_eq!(s.cells, 4);
        assert_eq!(s.nets, 3);
        assert_eq!(s.pins, 2 + 3 + 2);
        assert_eq!(s.inputs, 1);
        assert_eq!(s.outputs, 1);
        assert_eq!(s.flip_flops, 0);
        assert_eq!(s.max_fanout, 2);
        assert_eq!(s.total_cell_width, 1 + 2 + 3 + 1);
        assert!((s.avg_fanout - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_duplicate_cell_names() {
        let mut b = NetlistBuilder::new("dup");
        b.add_cell(Cell::logic("x", 1));
        b.add_cell(Cell::logic("x", 1));
        assert_eq!(
            b.build().unwrap_err(),
            NetlistError::DuplicateCellName("x".into())
        );
    }

    #[test]
    fn rejects_duplicate_net_names() {
        let mut b = NetlistBuilder::new("dup");
        let a = b.add_cell(Cell::logic("a", 1));
        let c = b.add_cell(Cell::logic("b", 1));
        b.add_net(Net::new("n", a, vec![c], 0.1));
        b.add_net(Net::new("n", c, vec![a], 0.1));
        assert_eq!(
            b.build().unwrap_err(),
            NetlistError::DuplicateNetName("n".into())
        );
    }

    #[test]
    fn rejects_dangling_cell_reference() {
        let mut b = NetlistBuilder::new("dangling");
        let a = b.add_cell(Cell::logic("a", 1));
        b.add_net(Net::new("n", a, vec![CellId(99)], 0.1));
        assert!(matches!(
            b.build().unwrap_err(),
            NetlistError::DanglingCell { .. }
        ));
    }

    #[test]
    fn rejects_empty_net() {
        let mut b = NetlistBuilder::new("empty");
        let a = b.add_cell(Cell::logic("a", 1));
        b.add_net(Net::new("n", a, vec![], 0.1));
        assert_eq!(b.build().unwrap_err(), NetlistError::EmptyNet("n".into()));
    }

    #[test]
    fn rejects_bad_switching_probability() {
        let mut b = NetlistBuilder::new("prob");
        let a = b.add_cell(Cell::logic("a", 1));
        let c = b.add_cell(Cell::logic("b", 1));
        b.add_net(Net::new("n", a, vec![c], 1.5));
        assert!(matches!(
            b.build().unwrap_err(),
            NetlistError::InvalidSwitchingProbability { .. }
        ));
    }

    #[test]
    fn rejects_zero_width_cell() {
        let mut b = NetlistBuilder::new("zero");
        b.add_cell(Cell::logic("a", 0));
        assert_eq!(
            b.build().unwrap_err(),
            NetlistError::ZeroWidthCell("a".into())
        );
    }

    #[test]
    fn error_display_is_informative() {
        let e = NetlistError::EmptyNet("foo".into());
        assert!(e.to_string().contains("foo"));
    }
}
