//! The immutable circuit graph and its builder.

use crate::{Cell, CellId, CellKind, Net, NetId};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

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
///
/// # Layout
///
/// Everything lives in a few flat arrays; no cell or net owns a heap
/// allocation:
///
/// * `cells` / `nets` — one [`Cell`] (24 bytes) per cell and one [`Net`]
///   (16 bytes) per net, `Copy` attribute records indexed by id;
/// * one name arena — every cell name, then every net name, back to back in
///   a single `String`, with a `u32` end offset per name
///   ([`Netlist::cell_name`], [`Netlist::net_name`]);
/// * one sink arena — the sinks of every net in net order, each net's sinks
///   in the order they were added, duplicates included, with a `u32` end
///   offset per net ([`Netlist::sinks`]);
/// * two CSR adjacency tables derived from those: cell→nets
///   ([`Netlist::nets_of_cell`]) and net→distinct cells
///   ([`Netlist::net_cells`]).
///
/// An s15850 netlist (10,306 cells) takes about 1.1 MiB this way.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Netlist {
    name: String,
    cells: Vec<Cell>,
    nets: Vec<Net>,
    /// Name arena: the names of cells `0..n`, then of nets `0..m`. Name `i`
    /// (cell `i`, or net `i - n`) is `names[span(name_ends, i)]`.
    names: String,
    name_ends: Vec<u32>,
    /// Sink arena: the sinks of net `i` are `sink_arena[span(sink_ends, i)]`.
    sink_ends: Vec<u32>,
    sink_arena: Vec<CellId>,
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

/// Arena range of entry `i` in a table of end offsets: entry `i` starts
/// where entry `i - 1` ends.
#[inline]
fn span(ends: &[u32], i: usize) -> std::ops::Range<usize> {
    let start = if i == 0 { 0 } else { ends[i - 1] as usize };
    start..ends[i] as usize
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

    /// Instance name of a cell (unique within the netlist).
    #[inline]
    pub fn cell_name(&self, id: CellId) -> &str {
        &self.names[span(&self.name_ends, id.index())]
    }

    /// Name of a net (unique within the netlist).
    #[inline]
    pub fn net_name(&self, id: NetId) -> &str {
        &self.names[span(&self.name_ends, self.cells.len() + id.index())]
    }

    /// Cells reading `net` (its fan-out), in the order they were added.
    /// Never empty; a cell listed twice stays listed twice.
    #[inline]
    pub fn sinks(&self, net: NetId) -> &[CellId] {
        &self.sink_arena[span(&self.sink_ends, net.index())]
    }

    /// Every pin of `net`: the driver first, then the sinks in order.
    pub fn connected_cells(&self, net: NetId) -> impl Iterator<Item = CellId> + '_ {
        std::iter::once(self.net(net).driver).chain(self.sinks(net).iter().copied())
    }

    /// Number of pins on `net` (driver + sinks).
    #[inline]
    pub fn pin_count(&self, net: NetId) -> usize {
        1 + self.sinks(net).len()
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
            .flat_map(|&n| self.sinks(n).iter().copied())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Looks up a cell by instance name. Linear scan; intended for tests and
    /// the text-format parser, not hot paths.
    pub fn cell_by_name(&self, name: &str) -> Option<CellId> {
        self.cell_ids().find(|&c| self.cell_name(c) == name)
    }

    /// Looks up a net by name. Linear scan.
    pub fn net_by_name(&self, name: &str) -> Option<NetId> {
        self.net_ids().find(|&n| self.net_name(n) == name)
    }

    /// Summary statistics.
    pub fn stats(&self) -> NetlistStats {
        let total_sinks = self.sink_arena.len();
        NetlistStats {
            cells: self.cells.len(),
            nets: self.nets.len(),
            pins: self.nets.len() + total_sinks,
            avg_fanout: if self.nets.is_empty() {
                0.0
            } else {
                total_sinks as f64 / self.nets.len() as f64
            },
            max_fanout: self
                .net_ids()
                .map(|n| self.sinks(n).len())
                .max()
                .unwrap_or(0),
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

/// Incremental builder for [`Netlist`]. Names and sinks are appended to flat
/// arenas as cells and nets arrive, so building allocates per arena, not per
/// cell or net.
#[derive(Debug, Default, Clone)]
pub struct NetlistBuilder {
    pub(crate) name: String,
    cells: Vec<Cell>,
    cell_names: String,
    cell_name_ends: Vec<u32>,
    nets: Vec<Net>,
    net_names: String,
    net_name_ends: Vec<u32>,
    sink_ends: Vec<u32>,
    sink_arena: Vec<CellId>,
}

/// Appends `name` to a name arena and records its end offset.
fn push_name(text: &mut String, ends: &mut Vec<u32>, name: &str) {
    text.push_str(name);
    ends.push(u32::try_from(text.len()).expect("name arena exceeds 4 GiB"));
}

impl NetlistBuilder {
    /// Starts a new netlist with the given circuit name.
    pub fn new(name: impl Into<String>) -> Self {
        NetlistBuilder {
            name: name.into(),
            ..Self::default()
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

    /// Adds a cell with its instance name and returns its id.
    pub fn add_cell(&mut self, name: &str, cell: Cell) -> CellId {
        let id = CellId::from(self.cells.len());
        push_name(&mut self.cell_names, &mut self.cell_name_ends, name);
        self.cells.push(cell);
        id
    }

    /// Adds a net — its name, driver, sinks (kept in the given order,
    /// duplicates included) and switching probability — and returns its id.
    pub fn add_net(
        &mut self,
        name: &str,
        driver: CellId,
        sinks: &[CellId],
        switching_prob: f64,
    ) -> NetId {
        let id = NetId::from(self.nets.len());
        push_name(&mut self.net_names, &mut self.net_name_ends, name);
        self.sink_arena.extend_from_slice(sinks);
        self.sink_ends.push(self.sink_arena.len() as u32);
        self.nets.push(Net {
            driver,
            switching_prob,
        });
        id
    }

    /// Validates the accumulated circuit and builds the immutable [`Netlist`].
    pub fn build(self) -> Result<Netlist, NetlistError> {
        let NetlistBuilder {
            name,
            mut cells,
            cell_names,
            cell_name_ends,
            mut nets,
            net_names,
            net_name_ends,
            mut sink_ends,
            mut sink_arena,
        } = self;
        let cell_name = |i: usize| &cell_names[span(&cell_name_ends, i)];
        let net_name = |i: usize| &net_names[span(&net_name_ends, i)];

        {
            let mut seen: HashSet<&str> = HashSet::with_capacity(cells.len());
            for (i, c) in cells.iter().enumerate() {
                if c.width == 0 {
                    return Err(NetlistError::ZeroWidthCell(cell_name(i).to_string()));
                }
                if !seen.insert(cell_name(i)) {
                    return Err(NetlistError::DuplicateCellName(cell_name(i).to_string()));
                }
            }
        }
        {
            let mut seen: HashSet<&str> = HashSet::with_capacity(nets.len());
            for (i, n) in nets.iter().enumerate() {
                let sinks = &sink_arena[span(&sink_ends, i)];
                if !seen.insert(net_name(i)) {
                    return Err(NetlistError::DuplicateNetName(net_name(i).to_string()));
                }
                if sinks.is_empty() {
                    return Err(NetlistError::EmptyNet(net_name(i).to_string()));
                }
                if !(0.0..=1.0).contains(&n.switching_prob) {
                    return Err(NetlistError::InvalidSwitchingProbability {
                        net: net_name(i).to_string(),
                        value: n.switching_prob,
                    });
                }
                for &cell in std::iter::once(&n.driver).chain(sinks) {
                    if cell.index() >= cells.len() {
                        return Err(NetlistError::DanglingCell {
                            net: net_name(i).to_string(),
                            cell,
                        });
                    }
                }
            }
        }

        // One name arena, cells first, at its exact size.
        let mut names = String::with_capacity(cell_names.len() + net_names.len());
        names.push_str(&cell_names);
        names.push_str(&net_names);
        let mut name_ends = Vec::with_capacity(cell_name_ends.len() + net_name_ends.len());
        name_ends.extend_from_slice(&cell_name_ends);
        let shift = cell_names.len() as u32;
        name_ends.extend(net_name_ends.iter().map(|&end| end + shift));
        drop((cell_names, cell_name_ends, net_names, net_name_ends));
        cells.shrink_to_fit();
        nets.shrink_to_fit();
        sink_ends.shrink_to_fit();
        sink_arena.shrink_to_fit();

        // CSR cell→nets arena by counting: per cell, its fan-in nets (a
        // cell listed several times as a sink of one net counts once), then
        // its driven nets, each role in net-id order.
        let n = cells.len();
        let mut fanin = vec![0u32; n];
        let mut driven = vec![0u32; n];
        let mut last_net = vec![u32::MAX; n];
        for (i, net) in nets.iter().enumerate() {
            driven[net.driver.index()] += 1;
            for &s in &sink_arena[span(&sink_ends, i)] {
                if last_net[s.index()] != i as u32 {
                    last_net[s.index()] = i as u32;
                    fanin[s.index()] += 1;
                }
            }
        }
        let mut cell_net_offsets = Vec::with_capacity(n + 1);
        let mut cell_net_split = Vec::with_capacity(n);
        cell_net_offsets.push(0u32);
        let mut end = 0u32;
        for c in 0..n {
            // `fanin` and `driven` become the write cursors of each role.
            let start = end;
            cell_net_split.push(start + fanin[c]);
            end = start + fanin[c] + driven[c];
            cell_net_offsets.push(end);
            fanin[c] = start;
            driven[c] = cell_net_split[c];
        }
        drop(last_net);
        let mut cell_net_arena = vec![NetId(0); end as usize];
        for (i, net) in nets.iter().enumerate() {
            let nid = NetId::from(i);
            let d = net.driver.index();
            cell_net_arena[driven[d] as usize] = nid;
            driven[d] += 1;
            for &s in &sink_arena[span(&sink_ends, i)] {
                let at = fanin[s.index()] as usize;
                if at == cell_net_offsets[s.index()] as usize || cell_net_arena[at - 1] != nid {
                    cell_net_arena[at] = nid;
                    fanin[s.index()] += 1;
                }
            }
        }
        drop((fanin, driven));

        // CSR net→cells arena: distinct connected cells per net, sorted by
        // id. This is the pin order every wirelength kernel iterates in.
        let mut net_cell_offsets = Vec::with_capacity(nets.len() + 1);
        let mut net_cell_arena = Vec::with_capacity(nets.len() + sink_arena.len());
        net_cell_offsets.push(0u32);
        let mut scratch: Vec<CellId> = Vec::new();
        for (i, net) in nets.iter().enumerate() {
            scratch.clear();
            scratch.push(net.driver);
            scratch.extend_from_slice(&sink_arena[span(&sink_ends, i)]);
            scratch.sort_unstable();
            scratch.dedup();
            net_cell_arena.extend_from_slice(&scratch);
            net_cell_offsets.push(net_cell_arena.len() as u32);
        }
        net_cell_arena.shrink_to_fit();

        Ok(Netlist {
            name,
            cells,
            nets,
            names,
            name_ends,
            sink_ends,
            sink_arena,
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
        let i0 = b.add_cell("in0", Cell::new(CellKind::Input, 1, 0.0));
        let g0 = b.add_cell("g0", Cell::logic(2));
        let g1 = b.add_cell("g1", Cell::logic(3));
        let o0 = b.add_cell("out0", Cell::new(CellKind::Output, 1, 0.0));
        b.add_net("n0", i0, &[g0], 0.5);
        b.add_net("n1", g0, &[g1, o0], 0.3);
        b.add_net("n2", g1, &[o0], 0.2);
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
            let mut expected: Vec<CellId> = nl.connected_cells(net).collect();
            expected.sort_unstable();
            expected.dedup();
            assert_eq!(nl.net_cells(net), expected.as_slice());
        }
        let g0 = nl.cell_by_name("g0").unwrap();
        assert_eq!(nl.nets_of_cell(g0), &[NetId(0), NetId(1)]);
    }

    #[test]
    fn names_and_sinks_come_back_from_their_arenas() {
        let nl = tiny();
        let cell_names: Vec<&str> = nl.cell_ids().map(|c| nl.cell_name(c)).collect();
        assert_eq!(cell_names, ["in0", "g0", "g1", "out0"]);
        let net_names: Vec<&str> = nl.net_ids().map(|n| nl.net_name(n)).collect();
        assert_eq!(net_names, ["n0", "n1", "n2"]);
        assert_eq!(nl.sinks(NetId(1)), &[CellId(2), CellId(3)]);
        assert_eq!(nl.pin_count(NetId(1)), 3);
        assert_eq!(nl.net_by_name("n2"), Some(NetId(2)));
        assert_eq!(nl.cell_by_name("n2"), None);
    }

    #[test]
    fn duplicate_sinks_are_kept_in_order_but_counted_once_in_the_csr() {
        // Net `n` lists `b` twice and its own driver `a` as a sink.
        let mut b = NetlistBuilder::new("dups");
        let a = b.add_cell("a", Cell::logic(1));
        let c = b.add_cell("b", Cell::logic(1));
        b.add_net("n", a, &[c, a, c], 0.5);
        b.add_net("m", c, &[a], 0.5);
        let nl = b.build().unwrap();
        assert_eq!(nl.sinks(NetId(0)), &[c, a, c]);
        assert_eq!(
            nl.connected_cells(NetId(0)).collect::<Vec<_>>(),
            [a, c, a, c]
        );
        assert_eq!(nl.net_cells(NetId(0)), &[a, c]);
        assert_eq!(nl.nets_feeding(c), &[NetId(0)]);
        assert_eq!(nl.nets_driven_by(c), &[NetId(1)]);
        assert_eq!(nl.nets_of_cell(a), &[NetId(0), NetId(1), NetId(0)]);
        assert_eq!(nl.stats().pins, 4 + 2);
    }

    #[test]
    fn the_first_invalid_entry_in_build_order_is_reported() {
        // Cells are checked before nets, each in id order, and a zero width
        // before a duplicate name of the same cell.
        let mut b = NetlistBuilder::new("order");
        let a = b.add_cell("a", Cell::logic(1));
        b.add_cell("b", Cell::logic(1));
        b.add_cell("a", Cell::logic(0));
        b.add_cell("b", Cell::logic(1));
        b.add_net("n", a, &[], 0.1);
        assert_eq!(
            b.clone().build().unwrap_err(),
            NetlistError::ZeroWidthCell("a".into())
        );

        let mut b = NetlistBuilder::new("order");
        let a = b.add_cell("a", Cell::logic(1));
        let c = b.add_cell("c", Cell::logic(1));
        b.add_net("n", a, &[c], 0.1);
        b.add_net("m", a, &[CellId(7)], 2.0);
        b.add_net("n", a, &[], 0.1);
        assert_eq!(
            b.build().unwrap_err(),
            NetlistError::InvalidSwitchingProbability {
                net: "m".into(),
                value: 2.0
            }
        );
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
        b.add_cell("x", Cell::logic(1));
        b.add_cell("x", Cell::logic(1));
        assert_eq!(
            b.build().unwrap_err(),
            NetlistError::DuplicateCellName("x".into())
        );
    }

    #[test]
    fn rejects_duplicate_net_names() {
        let mut b = NetlistBuilder::new("dup");
        let a = b.add_cell("a", Cell::logic(1));
        let c = b.add_cell("b", Cell::logic(1));
        b.add_net("n", a, &[c], 0.1);
        b.add_net("n", c, &[a], 0.1);
        assert_eq!(
            b.build().unwrap_err(),
            NetlistError::DuplicateNetName("n".into())
        );
    }

    #[test]
    fn rejects_dangling_cell_reference() {
        let mut b = NetlistBuilder::new("dangling");
        let a = b.add_cell("a", Cell::logic(1));
        b.add_net("n", a, &[CellId(99)], 0.1);
        assert!(matches!(
            b.build().unwrap_err(),
            NetlistError::DanglingCell { .. }
        ));
    }

    #[test]
    fn rejects_empty_net() {
        let mut b = NetlistBuilder::new("empty");
        let a = b.add_cell("a", Cell::logic(1));
        b.add_net("n", a, &[], 0.1);
        assert_eq!(b.build().unwrap_err(), NetlistError::EmptyNet("n".into()));
    }

    #[test]
    fn rejects_bad_switching_probability() {
        let mut b = NetlistBuilder::new("prob");
        let a = b.add_cell("a", Cell::logic(1));
        let c = b.add_cell("b", Cell::logic(1));
        b.add_net("n", a, &[c], 1.5);
        assert!(matches!(
            b.build().unwrap_err(),
            NetlistError::InvalidSwitchingProbability { .. }
        ));
    }

    #[test]
    fn rejects_zero_width_cell() {
        let mut b = NetlistBuilder::new("zero");
        b.add_cell("a", Cell::logic(0));
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
