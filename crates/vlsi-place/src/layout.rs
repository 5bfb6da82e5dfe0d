//! Row-based standard-cell placement.
//!
//! A placement assigns every cell of a netlist to a *slot*: a row index and an
//! ordinal position within that row. Cells in a row are packed left-to-right
//! with no overlap, so the x coordinate of a cell is the sum of the widths of
//! the cells to its left; the y coordinate is the row index times the common
//! row height. This is the layout model used by the SimE allocation operator
//! ("sorted individual best fit" inserts a cell at the best slot) and by the
//! Type II row-wise domain decomposition.
//!
//! # Mixed-size layouts
//!
//! Fixed cells (pad rings, multi-row macro blocks) never enter the packed
//! rows. Their positions are a *deterministic function of the netlist*: pads
//! line up at negative x outside the packing region, macros become **blocked
//! spans** — per-row intervals that row packing flows around, exactly as if
//! an invisible cell occupied them. Every constructor derives this fixed
//! layout from the netlist, so two placements of the same circuit always
//! agree on where the fixed cells sit (which is what lets a `.pl` round-trip
//! validate fixed positions instead of trusting the file). Circuits without
//! fixed cells have no blocked spans and pack bitwise identically to the
//! original gap-free model.

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use vlsi_netlist::{CellId, CellKind, Netlist};

/// Source of unique placement identities (see [`Placement::uid`]). Identity
/// only gates cache reuse — it never influences the search — so a process-wide
/// atomic does not affect determinism.
static PLACEMENT_UID: AtomicU64 = AtomicU64::new(1);

fn next_placement_uid() -> u64 {
    PLACEMENT_UID.fetch_add(1, Ordering::Relaxed)
}

/// Height of a placement row in layout units. Standard cells share a common
/// height, so the value only scales the vertical component of wirelength.
pub const ROW_HEIGHT: f64 = 8.0;

/// A position a cell can occupy: a row and an insertion index within the row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Slot {
    /// Row index, `0 ..< num_rows`.
    pub row: usize,
    /// Ordinal position within the row (0 = leftmost).
    pub index: usize,
}

/// Errors reported by placement validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacementError {
    /// A cell appears in no row.
    MissingCell(CellId),
    /// A cell appears more than once.
    DuplicateCell(CellId),
    /// The recorded row of a cell disagrees with the row lists.
    InconsistentRow(CellId),
    /// A fixed cell (pad, macro) appears inside a packed row.
    FixedCellInRow(CellId),
    /// The placement has a different number of cells than the netlist.
    CellCountMismatch {
        /// Cells in the placement.
        placed: usize,
        /// Cells in the netlist.
        expected: usize,
    },
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::MissingCell(c) => write!(f, "cell {c} is not placed"),
            PlacementError::DuplicateCell(c) => write!(f, "cell {c} is placed more than once"),
            PlacementError::InconsistentRow(c) => {
                write!(f, "cell {c} row bookkeeping is inconsistent")
            }
            PlacementError::FixedCellInRow(c) => {
                write!(f, "fixed cell {c} appears inside a packed row")
            }
            PlacementError::CellCountMismatch { placed, expected } => {
                write!(f, "placement has {placed} cells, netlist has {expected}")
            }
        }
    }
}

impl std::error::Error for PlacementError {}

/// A legal row-based placement of all cells of a netlist.
///
/// The structure keeps per-cell cached coordinates so that cost evaluation is
/// cheap; a mutation updates the changed part of a row's caches (a suffix
/// shift, or a suffix repack on rows with blocked spans).
/// Note: deliberately **not** `Serialize`/`Deserialize`. The `uid` field
/// must be unique per live object (incremental caches key on it), so a
/// derived round-trip that restored a stored uid verbatim could alias two
/// placements and make [`crate::kernel::NetLengthCache`] skip rows that
/// actually changed. If persistence is ever needed, serialize the row lists
/// and rebuild through [`Placement::from_rows`], which assigns a fresh uid.
#[derive(Debug)]
pub struct Placement {
    /// Cells of each row, in left-to-right order.
    rows: Vec<Vec<CellId>>,
    /// Cached coordinates of each cell (centre x, row, ordinal in the row),
    /// one record per cell so a row update touches one cache line per cell.
    coords: Vec<CellCoord>,
    /// Cached width of each cell (copied from the netlist to avoid lookups).
    cell_width: Vec<u32>,
    /// Total movable width of each row (fixed cells are not row members).
    row_width: Vec<u64>,
    /// `true` for cells that are pre-placed and excluded from the rows.
    fixed: Vec<bool>,
    /// Per-row blocked intervals `[lo, hi)` (macro footprints), sorted by
    /// start and pairwise disjoint. Row packing flows around them.
    blocked: Vec<Vec<(f64, f64)>>,
    /// Packing cursor after the last movable cell of each row — the row's
    /// right extent, including any gaps forced by blocked spans.
    row_extent: Vec<f64>,
    /// Total width of all movable cells (denominator of `avg_row_width`).
    movable_total_width: u64,
    /// Unique identity of this placement object; refreshed on clone so
    /// incremental caches keyed on a placement never confuse two objects that
    /// share a mutation history (e.g. per-rank clones in Type II).
    uid: u64,
    /// Monotone mutation counter; bumped once per mutated row.
    epoch: u64,
    /// For each row, the `epoch` at which it last changed. An incremental
    /// cost cache is valid for a row iff it has seen this epoch.
    row_epoch: Vec<u64>,
}

impl Clone for Placement {
    fn clone(&self) -> Self {
        Placement {
            rows: self.rows.clone(),
            coords: self.coords.clone(),
            cell_width: self.cell_width.clone(),
            row_width: self.row_width.clone(),
            fixed: self.fixed.clone(),
            blocked: self.blocked.clone(),
            row_extent: self.row_extent.clone(),
            movable_total_width: self.movable_total_width,
            uid: next_placement_uid(),
            epoch: self.epoch,
            row_epoch: self.row_epoch.clone(),
        }
    }
}

impl Placement {
    /// Creates a placement by dealing cells round-robin into `num_rows` rows
    /// in cell-id order. Deterministic; mainly useful for tests.
    pub fn round_robin(netlist: &Netlist, num_rows: usize) -> Self {
        assert!(num_rows > 0, "a placement needs at least one row");
        let order: Vec<CellId> = netlist.cell_ids().collect();
        Self::from_order(netlist, num_rows, &order)
    }

    /// Creates a random initial placement: cells are shuffled and dealt into
    /// rows so that row widths stay balanced.
    pub fn random<R: Rng + ?Sized>(netlist: &Netlist, num_rows: usize, rng: &mut R) -> Self {
        assert!(num_rows > 0, "a placement needs at least one row");
        let mut order: Vec<CellId> = netlist.cell_ids().collect();
        order.shuffle(rng);
        Self::from_order(netlist, num_rows, &order)
    }

    /// Builds a placement by dealing `order` into rows, always appending to
    /// the currently narrowest row (greedy width balancing). Fixed cells in
    /// `order` are skipped — their positions come from the deterministic
    /// fixed layout, never from the deal.
    pub fn from_order(netlist: &Netlist, num_rows: usize, order: &[CellId]) -> Self {
        assert!(num_rows > 0, "a placement needs at least one row");
        let mut p = Placement::empty(netlist, num_rows);
        for &cell in order {
            if p.fixed[cell.index()] {
                continue;
            }
            let row = (0..num_rows)
                .min_by_key(|&r| p.row_width[r])
                .expect("num_rows > 0");
            p.rows[row].push(cell);
            p.row_width[row] += p.cell_width[cell.index()] as u64;
        }
        for r in 0..num_rows {
            p.rebuild_row_x_from(r, 0);
        }
        p
    }

    /// Shared constructor core: an all-rows-empty placement with the fixed
    /// layout (pad positions, macro blocked spans) already derived from the
    /// netlist.
    fn empty(netlist: &Netlist, num_rows: usize) -> Self {
        let n = netlist.num_cells();
        let (positions, blocked) = default_fixed_layout(netlist, num_rows);
        let movable_total_width = netlist
            .cells()
            .iter()
            .filter(|c| !c.fixed)
            .map(|c| c.width as u64)
            .sum();
        let mut p = Placement {
            rows: vec![Vec::with_capacity(n / num_rows + 1); num_rows],
            coords: vec![CellCoord::default(); n],
            cell_width: netlist.cells().iter().map(|c| c.width).collect(),
            row_width: vec![0; num_rows],
            fixed: netlist.cells().iter().map(|c| c.fixed).collect(),
            blocked,
            row_extent: vec![0.0; num_rows],
            movable_total_width,
            uid: next_placement_uid(),
            epoch: 0,
            row_epoch: vec![0; num_rows],
        };
        for (cell, x, row) in positions {
            p.coords[cell.index()] = CellCoord { x, row, index: 0 };
        }
        p
    }

    /// Rebuilds a placement from explicit per-row cell orderings (used by the
    /// Type II domain decomposition when merging the partial placements
    /// returned by the slaves).
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty. Call [`Placement::validate`] afterwards to
    /// check that every cell appears exactly once.
    pub fn from_rows(netlist: &Netlist, rows: Vec<Vec<CellId>>) -> Self {
        assert!(!rows.is_empty(), "a placement needs at least one row");
        let mut p = Placement::empty(netlist, rows.len());
        p.rows = rows;
        for r in 0..p.rows.len() {
            let cells = std::mem::take(&mut p.rows[r]);
            p.row_width[r] = cells.iter().map(|c| p.cell_width[c.index()] as u64).sum();
            p.rows[r] = cells;
            p.rebuild_row_x_from(r, 0);
        }
        p
    }

    /// Number of rows.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of placed cells.
    pub fn num_cells(&self) -> usize {
        self.coords.len()
    }

    /// The cells of a row in left-to-right order.
    #[inline]
    pub fn row(&self, row: usize) -> &[CellId] {
        &self.rows[row]
    }

    /// Row currently containing `cell`.
    #[inline]
    pub fn row_of(&self, cell: CellId) -> usize {
        self.coords[cell.index()].row as usize
    }

    /// Ordinal index of `cell` within its row. O(1): the ordinal is cached
    /// per cell and maintained by the same row walk that refreshes the x
    /// coordinates, because `slot_of`/`trial_position` sit under the
    /// allocation trial loop.
    #[inline]
    pub fn index_in_row(&self, cell: CellId) -> usize {
        let idx = self.coords[cell.index()].index as usize;
        // Always-on fail-fast, like the linear scan this replaced: an
        // unplaced cell (e.g. a double remove_cell) must panic here, not
        // silently evict whichever cell sits at its stale cached ordinal.
        // O(1), negligible next to the O(row) mutations that call this.
        assert_eq!(
            self.rows[self.row_of(cell)].get(idx).copied(),
            Some(cell),
            "cell {cell} is not placed at its cached ordinal"
        );
        idx
    }

    /// Slot currently occupied by `cell`.
    pub fn slot_of(&self, cell: CellId) -> Slot {
        Slot {
            row: self.row_of(cell),
            index: self.index_in_row(cell),
        }
    }

    /// Cached centre x coordinate of `cell` (the first component of
    /// [`Placement::position`], without recomputing the y coordinate).
    #[inline]
    pub fn x_of(&self, cell: CellId) -> f64 {
        self.coords[cell.index()].x
    }

    /// Cached left edge of `cell` (`x_of - width / 2`). Cell widths are
    /// integers, so this is an exact integer-valued double: the insertion
    /// boundary in front of the cell, equal to the cumulative width sum on
    /// rows without blocked spans.
    #[inline]
    pub fn left_edge(&self, cell: CellId) -> f64 {
        self.coords[cell.index()].x - self.cell_width[cell.index()] as f64 / 2.0
    }

    /// Centre coordinates of `cell` in layout units.
    #[inline]
    pub fn position(&self, cell: CellId) -> (f64, f64) {
        let c = self.coords[cell.index()];
        (c.x, (c.row as f64 + 0.5) * ROW_HEIGHT)
    }

    /// Total movable width of `row` (blocked spans and fixed cells excluded).
    #[inline]
    pub fn row_width(&self, row: usize) -> u64 {
        self.row_width[row]
    }

    /// Right extent of `row`: the packing cursor after its last movable
    /// cell, including any gaps forced by blocked spans. Equals
    /// [`Placement::row_width`] exactly when the row has no blocked spans.
    #[inline]
    pub fn row_extent(&self, row: usize) -> f64 {
        self.row_extent[row]
    }

    /// `true` when `cell` is pre-placed (pad, macro) and excluded from the
    /// packed rows.
    #[inline]
    pub fn is_fixed(&self, cell: CellId) -> bool {
        self.fixed[cell.index()]
    }

    /// The blocked intervals `[lo, hi)` of `row`, sorted by start and
    /// pairwise disjoint (macro footprints the packing flows around).
    #[inline]
    pub fn blocked_spans(&self, row: usize) -> &[(f64, f64)] {
        &self.blocked[row]
    }

    /// Maximum row width — the layout `Width` used by the width constraint.
    pub fn width(&self) -> u64 {
        self.row_width.iter().copied().max().unwrap_or(0)
    }

    /// Average row width `w_avg = Σ movable cell widths / num_rows`, the
    /// minimum possible layout width. Fixed cells sit outside the packed
    /// rows, so they do not count against the width constraint.
    #[inline]
    pub fn avg_row_width(&self) -> f64 {
        self.movable_total_width as f64 / self.num_rows() as f64
    }

    /// `true` if the layout width satisfies `Width − w_avg ≤ α · w_avg`.
    pub fn width_within(&self, alpha: f64) -> bool {
        (self.width() as f64) <= (1.0 + alpha) * self.avg_row_width()
    }

    /// Removes `cell` from its row and returns the slot it occupied.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is fixed — fixed cells are never row members.
    pub fn remove_cell(&mut self, cell: CellId) -> Slot {
        assert!(
            !self.fixed[cell.index()],
            "fixed cell {cell} cannot be moved"
        );
        let slot = self.slot_of(cell);
        self.rows[slot.row].remove(slot.index);
        self.row_width[slot.row] -= self.cell_width[cell.index()] as u64;
        // The removed cell keeps its last coordinates (see
        // `kernel::NetLengthCache` on ripped-up cells).
        self.update_row(slot.row, slot.index, slot.index);
        slot
    }

    /// Inserts a previously removed `cell` at `slot`. The insertion index is
    /// clamped to the current row length.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is fixed — fixed cells are never row members.
    pub fn insert_cell(&mut self, cell: CellId, slot: Slot) {
        assert!(
            !self.fixed[cell.index()],
            "fixed cell {cell} cannot be moved"
        );
        let index = slot.index.min(self.rows[slot.row].len());
        self.rows[slot.row].insert(index, cell);
        self.row_width[slot.row] += self.cell_width[cell.index()] as u64;
        self.update_row(slot.row, index, index + 1);
    }

    /// Moves `cell` to `slot` (remove + insert).
    pub fn move_cell(&mut self, cell: CellId, slot: Slot) {
        self.remove_cell(cell);
        self.insert_cell(cell, slot);
    }

    /// Swaps the slots of two cells (a classical SA/TS/GA move).
    ///
    /// # Panics
    ///
    /// Panics if either cell is fixed — fixed cells are never row members.
    pub fn swap_cells(&mut self, a: CellId, b: CellId) {
        assert!(
            !self.fixed[a.index()] && !self.fixed[b.index()],
            "fixed cells cannot be swapped"
        );
        if a == b {
            return;
        }
        let sa = self.slot_of(a);
        let sb = self.slot_of(b);
        self.rows[sa.row][sa.index] = b;
        self.rows[sb.row][sb.index] = a;
        if sa.row == sb.row {
            let (lo, hi) = (sa.index.min(sb.index), sa.index.max(sb.index));
            self.update_row(sa.row, lo, hi + 1);
        } else {
            let wa = self.cell_width[a.index()] as u64;
            let wb = self.cell_width[b.index()] as u64;
            self.row_width[sa.row] = self.row_width[sa.row] - wa + wb;
            self.row_width[sb.row] = self.row_width[sb.row] - wb + wa;
            self.update_row(sa.row, sa.index, sa.index + 1);
            self.update_row(sb.row, sb.index, sb.index + 1);
        }
    }

    /// Hypothetical centre position of `cell` if it were inserted at `slot`,
    /// without modifying the placement. Used by allocation to evaluate trial
    /// positions cheaply. The cell must currently be *removed* from the
    /// placement for the returned x coordinate to be exact; if it is still
    /// placed in the same row the estimate ignores its own width.
    #[inline]
    pub fn trial_position(&self, cell: CellId, slot: Slot) -> (f64, f64) {
        let row = &self.rows[slot.row];
        let index = slot.index.min(row.len());
        // O(1) via the cached centre coordinate of the left neighbour: its
        // right edge is the insertion point (advanced past any blocked span
        // the cell would overlap). Cell widths are integers, so every
        // centre/edge is an exact half-integer double and this matches a
        // from-scratch prefix-sum repack bit for bit.
        let x = cursor_before(&self.coords, &self.cell_width, row, index);
        let w = self.cell_width[cell.index()] as f64;
        let x = next_free(&self.blocked[slot.row], x, w);
        (x + w / 2.0, (slot.row as f64 + 0.5) * ROW_HEIGHT)
    }

    /// Number of insertion slots currently available in `row` (one more than
    /// the number of cells in it).
    pub fn slots_in_row(&self, row: usize) -> usize {
        self.rows[row].len() + 1
    }

    /// Checks structural invariants against the netlist: every cell placed
    /// exactly once, bookkeeping consistent.
    pub fn validate(&self, netlist: &Netlist) -> Result<(), PlacementError> {
        if self.coords.len() != netlist.num_cells() {
            return Err(PlacementError::CellCountMismatch {
                placed: self.coords.len(),
                expected: netlist.num_cells(),
            });
        }
        let mut seen = vec![false; netlist.num_cells()];
        for (r, row) in self.rows.iter().enumerate() {
            let mut width = 0u64;
            for (i, &cell) in row.iter().enumerate() {
                if self.fixed[cell.index()] {
                    return Err(PlacementError::FixedCellInRow(cell));
                }
                if seen[cell.index()] {
                    return Err(PlacementError::DuplicateCell(cell));
                }
                seen[cell.index()] = true;
                let coord = self.coords[cell.index()];
                if coord.row as usize != r || coord.index as usize != i {
                    return Err(PlacementError::InconsistentRow(cell));
                }
                width += self.cell_width[cell.index()] as u64;
            }
            if width != self.row_width[r] {
                // Row width bookkeeping is internal; treat divergence as an
                // inconsistent row on the first cell of the row (or a
                // mismatch if the row is empty, which cannot happen when
                // width differs from 0).
                if let Some(&first) = row.first() {
                    return Err(PlacementError::InconsistentRow(first));
                }
            }
        }
        for (i, &s) in seen.iter().enumerate() {
            if !s && !self.fixed[i] {
                return Err(PlacementError::MissingCell(CellId::from(i)));
            }
        }
        Ok(())
    }

    /// Identity of this placement object. Fresh per construction and per
    /// clone; incremental caches use it to detect that they are looking at a
    /// different placement than the one they were synchronised with.
    #[inline]
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// The epoch at which `row` last changed (monotone across the whole
    /// placement). Together with [`Placement::uid`] this is the invalidation
    /// signal for incremental net-length caches: a row's cells can only move
    /// (x or y) through a row mutation, which bumps this value.
    #[inline]
    pub fn row_epoch(&self, row: usize) -> u64 {
        self.row_epoch[row]
    }

    /// Re-derives the cached coordinates of `row` after a mutation that
    /// rewrote its ordinals `start..end` (and possibly the row length), and
    /// records the mutation in the row's epoch. Cells left of `start` keep
    /// their coordinates.
    ///
    /// On a row without blocked spans the cells `start..end` are packed from
    /// the left neighbour's right edge and every later cell moves by the
    /// same distance, so the suffix is *shifted* rather than re-packed.
    /// Cell widths are integers, so every left edge is an exact
    /// integer-valued double and the shifted coordinates equal a
    /// from-scratch prefix-sum repack bit for bit. A row with blocked spans
    /// re-packs its whole suffix instead, because a shifted cell may newly
    /// overlap (or clear) a span.
    fn update_row(&mut self, row: usize, start: usize, end: usize) {
        if !self.blocked[row].is_empty() {
            self.rebuild_row_x_from(row, start);
            return;
        }
        let cells = &self.rows[row];
        let widths = &self.cell_width;
        let coords = &mut self.coords;
        let mut x = cursor_before(coords, widths, cells, start);
        for (i, &cell) in cells.iter().enumerate().take(end).skip(start) {
            let w = widths[cell.index()] as f64;
            coords[cell.index()] = CellCoord {
                x: x + w / 2.0,
                row: row as u32,
                index: i as u32,
            };
            x += w;
        }
        if let Some(&first) = cells.get(end) {
            // The suffix moves as a block: its distance and ordinal offset
            // are read off its first cell.
            let old = coords[first.index()];
            let shift = x - (old.x - widths[first.index()] as f64 / 2.0);
            if shift != 0.0 || old.index as usize != end {
                for (i, &cell) in cells.iter().enumerate().skip(end) {
                    let coord = &mut coords[cell.index()];
                    coord.x += shift;
                    coord.index = i as u32;
                }
            }
        }
        self.row_extent[row] = self.row_width[row] as f64;
        self.bump_epoch(row);
    }

    /// Re-packs the cached coordinates of `row` from ordinal `start` on,
    /// resuming from the (untouched) left neighbour's right edge and flowing
    /// around blocked spans. Left edges are exact cumulative integer sums in
    /// doubles, so the resumed prefix sum reproduces a from-zero rebuild bit
    /// for bit. Records the mutation in the row's epoch regardless of
    /// `start`.
    fn rebuild_row_x_from(&mut self, row: usize, start: usize) {
        let cells = &self.rows[row];
        let widths = &self.cell_width;
        let coords = &mut self.coords;
        let start = start.min(cells.len());
        let mut x = cursor_before(coords, widths, cells, start);
        for (i, &cell) in cells.iter().enumerate().skip(start) {
            let w = widths[cell.index()] as f64;
            let left = next_free(&self.blocked[row], x, w);
            coords[cell.index()] = CellCoord {
                x: left + w / 2.0,
                row: row as u32,
                index: i as u32,
            };
            x = left + w;
        }
        self.row_extent[row] = x;
        self.bump_epoch(row);
    }

    /// Records a mutation of `row` in the placement and row epochs.
    fn bump_epoch(&mut self, row: usize) {
        self.epoch += 1;
        self.row_epoch[row] = self.epoch;
    }
}

/// Cached coordinates of one cell. A removed cell keeps its last record.
#[derive(Debug, Clone, Copy, Default)]
struct CellCoord {
    /// Centre x coordinate.
    x: f64,
    /// Row holding the cell.
    row: u32,
    /// Ordinal of the cell within its row.
    index: u32,
}

/// The packing cursor in front of ordinal `index` of a row's `cells`: the
/// right edge of the cell at `index - 1`, or 0 at the row start.
#[inline]
fn cursor_before(coords: &[CellCoord], widths: &[u32], cells: &[CellId], index: usize) -> f64 {
    match index.checked_sub(1) {
        None => 0.0,
        Some(prev) => {
            let prev = cells[prev].index();
            coords[prev].x + widths[prev] as f64 / 2.0
        }
    }
}

/// Advances `x` to the smallest left edge `>= x` where a cell of `width`
/// avoids every blocked interval. `blocked` is sorted by start and pairwise
/// disjoint; with no intervals the cursor is returned unchanged, which keeps
/// fixed-free circuits bitwise identical to the gap-free packing.
#[inline]
fn next_free(blocked: &[(f64, f64)], mut x: f64, width: f64) -> f64 {
    for &(lo, hi) in blocked {
        if x + width <= lo {
            break;
        }
        if x < hi {
            x = hi;
        }
    }
    x
}

/// Clearance between the pad ring and the packing region (x = 0).
const PAD_CLEARANCE: f64 = 8.0;

/// Spacing between successive macro blocks sharing a row, so their footprints
/// stay distinct intervals (narrow movable cells may pack into the gap).
const MACRO_GAP: u64 = 4;

/// Per fixed cell its `(cell, centre x, pin row)`, plus the per-row blocked
/// intervals macro footprints carve out of the packing region.
type FixedLayout = (Vec<(CellId, f64, u32)>, Vec<Vec<(f64, f64)>>);

/// Derives the deterministic fixed layout of a circuit: per fixed cell its
/// `(cell, centre x, pin row)`, plus the per-row blocked intervals macro
/// footprints carve out of the packing region.
///
/// Pads (fixed single-row non-macro cells) line up at negative x, dealt
/// round-robin across rows in cell-id order. Macros stagger down the rows —
/// the `j`-th macro of height `h` occupies rows `(j·h) mod (num_rows−h+1)`
/// onward — flush against the previous macro in those rows (plus a small
/// gap); their net pin sits on the middle row of the band. The layout is a
/// pure function of `(netlist, num_rows)`, so every placement of a circuit
/// agrees on it.
fn default_fixed_layout(netlist: &Netlist, num_rows: usize) -> FixedLayout {
    let mut positions = Vec::new();
    let mut blocked: Vec<Vec<(f64, f64)>> = vec![Vec::new(); num_rows];
    let mut pad_cursor: Vec<u64> = vec![0; num_rows];
    let mut macro_cursor: Vec<u64> = vec![0; num_rows];
    let mut pads = 0usize;
    let mut macros = 0usize;
    for (i, cell) in netlist.cells().iter().enumerate() {
        if !cell.fixed {
            continue;
        }
        let id = CellId::from(i);
        let w = cell.width as u64;
        if cell.height <= 1 && cell.kind != CellKind::Macro {
            // Pad ring: parked left of the packing region.
            let row = pads % num_rows;
            let cx = -(PAD_CLEARANCE + pad_cursor[row] as f64 + cell.width as f64 / 2.0);
            pad_cursor[row] += w;
            positions.push((id, cx, row as u32));
            pads += 1;
        } else {
            // Macro block: a blocked span across `h` consecutive rows.
            let h = (cell.height as usize).min(num_rows);
            let band = (macros * h) % (num_rows - h + 1);
            let left = (band..band + h)
                .map(|r| macro_cursor[r])
                .max()
                .expect("h >= 1");
            for r in band..band + h {
                blocked[r].push((left as f64, (left + w) as f64));
                macro_cursor[r] = left + w + MACRO_GAP;
            }
            let pin_row = (band + h / 2).min(num_rows - 1) as u32;
            positions.push((id, left as f64 + cell.width as f64 / 2.0, pin_row));
            macros += 1;
        }
    }
    (positions, blocked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use vlsi_netlist::generator::{CircuitGenerator, GeneratorConfig};

    fn netlist() -> Netlist {
        CircuitGenerator::new(GeneratorConfig::sized("layout_test", 120, 3)).generate()
    }

    fn mixed_netlist() -> Netlist {
        use vlsi_netlist::generator::MixedSizeSpec;
        let cfg = GeneratorConfig::sized("layout_mixed", 160, 7).with_mixed(MixedSizeSpec {
            num_macros: 3,
            macro_height: 3,
            pad_ring: true,
        });
        CircuitGenerator::new(cfg).generate()
    }

    #[test]
    fn round_robin_places_every_cell_once() {
        let nl = netlist();
        let p = Placement::round_robin(&nl, 7);
        p.validate(&nl).unwrap();
        assert_eq!(p.num_rows(), 7);
        let placed: usize = (0..7).map(|r| p.row(r).len()).sum();
        assert_eq!(placed, nl.num_cells());
    }

    #[test]
    fn random_placement_is_legal_and_balanced() {
        let nl = netlist();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let p = Placement::random(&nl, 6, &mut rng);
        p.validate(&nl).unwrap();
        let widths: Vec<u64> = (0..6).map(|r| p.row_width(r)).collect();
        let max = *widths.iter().max().unwrap() as f64;
        let min = *widths.iter().min().unwrap() as f64;
        assert!(
            max - min <= 16.0,
            "greedy balancing should keep rows within one max cell width: {widths:?}"
        );
    }

    #[test]
    fn positions_reflect_row_packing() {
        let nl = netlist();
        let p = Placement::round_robin(&nl, 5);
        for r in 0..p.num_rows() {
            let mut x = 0.0;
            for &cell in p.row(r) {
                let w = nl.cell(cell).width as f64;
                let (cx, cy) = p.position(cell);
                assert!((cx - (x + w / 2.0)).abs() < 1e-9);
                assert!((cy - (r as f64 + 0.5) * ROW_HEIGHT).abs() < 1e-9);
                x += w;
            }
            assert_eq!(x as u64, p.row_width(r));
        }
    }

    #[test]
    fn remove_insert_roundtrip_preserves_legality() {
        let nl = netlist();
        let mut p = Placement::round_robin(&nl, 5);
        let cell = CellId(10);
        let slot = p.remove_cell(cell);
        assert!(p.validate(&nl).is_err(), "cell is temporarily missing");
        p.insert_cell(cell, slot);
        p.validate(&nl).unwrap();
    }

    #[test]
    fn move_cell_relocates() {
        let nl = netlist();
        let mut p = Placement::round_robin(&nl, 5);
        let cell = CellId(3);
        let target = Slot { row: 4, index: 0 };
        p.move_cell(cell, target);
        p.validate(&nl).unwrap();
        assert_eq!(p.row_of(cell), 4);
        assert_eq!(p.index_in_row(cell), 0);
    }

    #[test]
    fn swap_cells_across_rows_updates_widths() {
        let nl = netlist();
        let mut p = Placement::round_robin(&nl, 5);
        // find two cells in different rows with different widths
        let a = p.row(0)[0];
        let b = p.row(1)[0];
        let before: u64 = (0..5).map(|r| p.row_width(r)).sum();
        p.swap_cells(a, b);
        p.validate(&nl).unwrap();
        assert_eq!(p.row_of(a), 1);
        assert_eq!(p.row_of(b), 0);
        let after: u64 = (0..5).map(|r| p.row_width(r)).sum();
        assert_eq!(before, after, "total width is conserved by swaps");
    }

    #[test]
    fn swap_with_self_is_a_noop() {
        let nl = netlist();
        let mut p = Placement::round_robin(&nl, 5);
        let a = p.row(0)[0];
        let before = p.clone();
        p.swap_cells(a, a);
        assert_eq!(p.row_of(a), before.row_of(a));
        assert_eq!(p.index_in_row(a), before.index_in_row(a));
    }

    #[test]
    fn trial_position_matches_actual_insertion() {
        let nl = netlist();
        let mut p = Placement::round_robin(&nl, 5);
        let cell = p.row(2)[1];
        p.remove_cell(cell);
        let slot = Slot { row: 3, index: 2 };
        let predicted = p.trial_position(cell, slot);
        p.insert_cell(cell, slot);
        let actual = p.position(cell);
        assert!((predicted.0 - actual.0).abs() < 1e-9);
        assert!((predicted.1 - actual.1).abs() < 1e-9);
    }

    #[test]
    fn width_constraint_helper() {
        let nl = netlist();
        let p = Placement::round_robin(&nl, 5);
        // Round-robin in id order is not balanced by width, but with alpha
        // large enough the constraint always holds.
        assert!(p.width_within(10.0));
        assert!(p.width() as f64 >= p.avg_row_width());
    }

    #[test]
    fn from_rows_roundtrips_an_existing_placement() {
        let nl = netlist();
        let p = Placement::round_robin(&nl, 6);
        let rows: Vec<Vec<CellId>> = (0..6).map(|r| p.row(r).to_vec()).collect();
        let q = Placement::from_rows(&nl, rows);
        q.validate(&nl).unwrap();
        for c in nl.cell_ids() {
            assert_eq!(p.row_of(c), q.row_of(c));
            assert_eq!(p.position(c), q.position(c));
        }
        assert_eq!(p.width(), q.width());
    }

    #[test]
    fn fixed_cells_stay_out_of_rows_and_packing_avoids_blocked_spans() {
        let nl = mixed_netlist();
        let p = Placement::round_robin(&nl, 6);
        p.validate(&nl).unwrap();
        // Only movable cells are dealt into rows.
        let placed: usize = (0..6).map(|r| p.row(r).len()).sum();
        let movable = nl.cells().iter().filter(|c| !c.fixed).count();
        assert!(movable < nl.num_cells(), "circuit has fixed cells");
        assert_eq!(placed, movable);
        // Movable cells never overlap a blocked span, and the row extent
        // accounts for the packing gaps the spans force.
        let mut spans_seen = 0;
        for r in 0..p.num_rows() {
            spans_seen += p.blocked_spans(r).len();
            for &cell in p.row(r) {
                let w = nl.cell(cell).width as f64;
                let left = p.x_of(cell) - w / 2.0;
                for &(lo, hi) in p.blocked_spans(r) {
                    assert!(
                        left + w <= lo || left >= hi,
                        "cell {cell} [{left}, {}) overlaps blocked [{lo}, {hi}) in row {r}",
                        left + w
                    );
                }
            }
            assert!(p.row_extent(r) >= p.row_width(r) as f64);
        }
        assert!(spans_seen > 0, "macros produce blocked spans");
        // Pads park left of the packing region; macros sit inside it.
        for (i, c) in nl.cells().iter().enumerate() {
            let id = CellId::from(i);
            assert_eq!(p.is_fixed(id), c.fixed);
            if c.fixed && c.kind != vlsi_netlist::CellKind::Macro {
                assert!(p.x_of(id) < 0.0, "pad {id} must sit at negative x");
            }
            if c.kind == vlsi_netlist::CellKind::Macro {
                assert!(p.x_of(id) >= 0.0);
            }
        }
    }

    #[test]
    fn fixed_layout_is_identical_across_constructors() {
        let nl = mixed_netlist();
        let a = Placement::round_robin(&nl, 6);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let b = Placement::random(&nl, 6, &mut rng);
        for (i, c) in nl.cells().iter().enumerate() {
            if c.fixed {
                let id = CellId::from(i);
                assert_eq!(a.position(id), b.position(id));
            }
        }
        for r in 0..6 {
            assert_eq!(a.blocked_spans(r), b.blocked_spans(r));
        }
    }

    #[test]
    fn trial_position_matches_insertion_around_blocked_spans() {
        let nl = mixed_netlist();
        let mut p = Placement::round_robin(&nl, 6);
        let row = (0..6)
            .find(|&r| !p.blocked_spans(r).is_empty())
            .expect("some row is blocked");
        for index in 0..p.slots_in_row(row).min(12) {
            let cell = p.row((row + 1) % 6)[0];
            p.remove_cell(cell);
            let predicted = p.trial_position(cell, Slot { row, index });
            p.insert_cell(cell, Slot { row, index });
            let actual = p.position(cell);
            assert_eq!(predicted.0.to_bits(), actual.0.to_bits());
            assert_eq!(predicted.1.to_bits(), actual.1.to_bits());
            p.move_cell(
                cell,
                Slot {
                    row: (row + 1) % 6,
                    index: 0,
                },
            );
        }
    }

    #[test]
    fn suffix_rebuild_matches_full_rebuild_with_blocked_spans() {
        let nl = mixed_netlist();
        let mut p = Placement::round_robin(&nl, 6);
        let row = (0..6)
            .find(|&r| !p.blocked_spans(r).is_empty())
            .expect("some row is blocked");
        let cell = p.row(row)[p.row(row).len() / 2];
        p.move_cell(cell, Slot { row, index: 0 });
        let rows: Vec<Vec<CellId>> = (0..6).map(|r| p.row(r).to_vec()).collect();
        let q = Placement::from_rows(&nl, rows);
        for c in nl.cell_ids() {
            assert_eq!(p.position(c).0.to_bits(), q.position(c).0.to_bits());
            assert_eq!(p.position(c).1.to_bits(), q.position(c).1.to_bits());
        }
        for r in 0..6 {
            assert_eq!(p.row_extent(r).to_bits(), q.row_extent(r).to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "cannot be moved")]
    fn moving_a_fixed_cell_panics() {
        let nl = mixed_netlist();
        let fixed = nl
            .cell_ids()
            .find(|&c| nl.cell(c).fixed)
            .expect("circuit has fixed cells");
        let mut p = Placement::round_robin(&nl, 6);
        p.remove_cell(fixed);
    }

    #[test]
    fn pure_circuits_have_no_blocked_spans_and_full_extent() {
        let nl = netlist();
        let p = Placement::round_robin(&nl, 5);
        for r in 0..5 {
            assert!(p.blocked_spans(r).is_empty());
            assert_eq!(p.row_extent(r).to_bits(), (p.row_width(r) as f64).to_bits());
        }
    }

    #[test]
    fn validate_detects_duplicates_and_missing() {
        let nl = netlist();
        let mut p = Placement::round_robin(&nl, 4);
        let cell = p.row(0)[0];
        p.remove_cell(cell);
        assert_eq!(
            p.validate(&nl).unwrap_err(),
            PlacementError::MissingCell(cell)
        );
        // Insert twice to create a duplicate.
        p.insert_cell(cell, Slot { row: 0, index: 0 });
        p.rows[1].push(cell);
        assert_eq!(
            p.validate(&nl).unwrap_err(),
            PlacementError::DuplicateCell(cell)
        );
    }
}
