//! Standard cells and their identifiers.

use serde::{Deserialize, Serialize};

/// Index of a cell inside a [`crate::Netlist`].
///
/// Cell ids are dense: a netlist with `n` cells uses ids `0..n`. The id is a
/// `u32` to keep per-cell bookkeeping structures compact (the paper's largest
/// circuit, `s3330`, has 1561 cells; real designs reach a few million).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CellId(pub u32);

impl CellId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for CellId {
    fn from(v: u32) -> Self {
        CellId(v)
    }
}

impl From<usize> for CellId {
    fn from(v: usize) -> Self {
        CellId(v as u32)
    }
}

impl std::fmt::Display for CellId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Functional class of a cell.
///
/// The placement engine only needs to distinguish movable logic from the
/// sequential boundary (flip-flops terminate combinational paths) and from the
/// I/O pads (path sources / sinks). The paper treats every standard cell as a
/// movable element; the mixed-size extension adds [`CellKind::Macro`] blocks
/// and a per-cell [`Cell::fixed`] flag for pre-placed pads and macros.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CellKind {
    /// Primary input pad (drives a net, no fan-in).
    Input,
    /// Primary output pad (terminates a net, no fan-out).
    Output,
    /// Combinational logic gate.
    Logic,
    /// Sequential element; terminates and restarts combinational paths.
    FlipFlop,
    /// A hard macro block (RAM, analog block, …). Macros span
    /// [`Cell::height`] rows and are pre-placed: the generator always marks
    /// them [`Cell::fixed`], and the placement layer treats their footprint
    /// as a blocked span that row packing flows around.
    Macro,
}

impl CellKind {
    /// `true` for cells that start a combinational path (inputs and flip-flop
    /// outputs).
    #[inline]
    pub fn is_path_source(self) -> bool {
        matches!(self, CellKind::Input | CellKind::FlipFlop)
    }

    /// `true` for cells that end a combinational path (outputs and flip-flop
    /// inputs).
    #[inline]
    pub fn is_path_sink(self) -> bool {
        matches!(self, CellKind::Output | CellKind::FlipFlop)
    }

    /// Short mnemonic used by the Bookshelf `.nodes` annotations.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CellKind::Input => "in",
            CellKind::Output => "out",
            CellKind::Logic => "logic",
            CellKind::FlipFlop => "ff",
            CellKind::Macro => "macro",
        }
    }

    /// Parses the mnemonic produced by [`CellKind::mnemonic`].
    pub fn from_mnemonic(s: &str) -> Option<Self> {
        match s {
            "in" => Some(CellKind::Input),
            "out" => Some(CellKind::Output),
            "logic" => Some(CellKind::Logic),
            "ff" => Some(CellKind::FlipFlop),
            "macro" => Some(CellKind::Macro),
            _ => None,
        }
    }
}

/// A cell of the placement problem: a movable standard cell by default, or —
/// with `height > 1` and/or `fixed` — a macro block or pre-placed pad of the
/// mixed-size extension.
///
/// A cell holds only its attributes: 24 bytes, `Copy`, no heap. Its
/// instance name lives in the owning [`crate::Netlist`]'s name arena
/// ([`crate::Netlist::cell_name`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Cell {
    /// Functional class.
    pub kind: CellKind,
    /// Cell width in layout units. Standard cells share a common height, so
    /// only the width matters for row packing and the width constraint.
    pub width: u32,
    /// Intrinsic switching delay `CD_i` of the cell (nanoseconds). Technology
    /// dependent and independent of placement; used by the delay cost.
    pub switching_delay: f64,
    /// Footprint height in rows. Standard cells are 1 row tall; macros span
    /// several. Heights above 1 are only meaningful together with `fixed`
    /// (the allocation operator never moves multi-row footprints).
    pub height: u32,
    /// `true` for pre-placed cells (pad rings, macro blocks). Fixed cells
    /// never enter the selection set and their footprint is excluded from the
    /// row packing of movable cells.
    pub fixed: bool,
}

impl Cell {
    /// Creates a logic cell of the given width with a default switching
    /// delay of 0.1 ns.
    pub fn logic(width: u32) -> Self {
        Cell::new(CellKind::Logic, width, 0.1)
    }

    /// Creates a movable single-row cell of an arbitrary kind.
    pub fn new(kind: CellKind, width: u32, switching_delay: f64) -> Self {
        Cell {
            kind,
            width,
            switching_delay,
            height: 1,
            fixed: false,
        }
    }

    /// Creates a fixed macro block spanning `height` rows.
    pub fn macro_block(width: u32, height: u32, switching_delay: f64) -> Self {
        Cell {
            kind: CellKind::Macro,
            width,
            switching_delay,
            height: height.max(1),
            fixed: true,
        }
    }

    /// Returns the cell with its `fixed` flag set — used for pad rings.
    pub fn pinned(mut self) -> Self {
        self.fixed = true;
        self
    }

    /// `true` when the cell participates in row packing (not fixed).
    #[inline]
    pub fn is_movable(&self) -> bool {
        !self.fixed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_id_roundtrips_through_usize() {
        let id = CellId::from(42usize);
        assert_eq!(id.index(), 42);
        assert_eq!(CellId::from(42u32), id);
        assert_eq!(id.to_string(), "c42");
    }

    #[test]
    fn kind_mnemonics_roundtrip() {
        for kind in [
            CellKind::Input,
            CellKind::Output,
            CellKind::Logic,
            CellKind::FlipFlop,
            CellKind::Macro,
        ] {
            assert_eq!(CellKind::from_mnemonic(kind.mnemonic()), Some(kind));
        }
        assert_eq!(CellKind::from_mnemonic("bogus"), None);
    }

    #[test]
    fn path_boundary_classification() {
        assert!(CellKind::Input.is_path_source());
        assert!(CellKind::FlipFlop.is_path_source());
        assert!(!CellKind::Logic.is_path_source());
        assert!(CellKind::Output.is_path_sink());
        assert!(CellKind::FlipFlop.is_path_sink());
        assert!(!CellKind::Input.is_path_sink());
    }

    #[test]
    fn logic_constructor_defaults() {
        let c = Cell::logic(4);
        assert_eq!(c.kind, CellKind::Logic);
        assert_eq!(c.width, 4);
        assert!(c.switching_delay > 0.0);
        assert_eq!(c.height, 1);
        assert!(!c.fixed);
        assert!(c.is_movable());
    }

    #[test]
    fn macro_and_pinned_constructors() {
        let m = Cell::macro_block(40, 3, 0.2);
        assert_eq!(m.kind, CellKind::Macro);
        assert_eq!(m.height, 3);
        assert!(m.fixed);
        assert!(!m.is_movable());
        // Heights are clamped to at least one row.
        assert_eq!(Cell::macro_block(4, 0, 0.1).height, 1);

        let pad = Cell::new(CellKind::Input, 1, 0.0).pinned();
        assert_eq!(pad.height, 1);
        assert!(pad.fixed);
    }

    #[test]
    fn a_cell_is_24_bytes() {
        assert!(std::mem::size_of::<Cell>() <= 24);
    }
}
