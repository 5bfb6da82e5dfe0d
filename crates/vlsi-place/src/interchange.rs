//! Converters between [`Placement`] and the Bookshelf `.pl`/`.scl` layout
//! files of [`vlsi_netlist::bookshelf`].
//!
//! The netlist crate owns the file formats (it has no placement dependency),
//! so the entries it parses are plain data; this module gives them meaning:
//!
//! * [`placement_to_pl`] — one [`PlEntry`] per cell, left edge / row bottom
//!   as exact integers.
//! * [`placement_from_pl`] — rebuilds a [`Placement`] from parsed entries.
//!   Movable cells are grouped by row and repacked in x order; **fixed**
//!   cells are *validated*, not trusted: their positions are always the
//!   deterministic function of the netlist (see [`crate::layout`]), and a
//!   `.pl` that disagrees is rejected. This keeps every placement of a
//!   circuit — freshly constructed, warm-started, or merged by the Type II
//!   decomposition — in agreement about where pads and macros sit.
//! * [`rows_to_scl`] — the row geometry as `.scl` [`CoreRow`] records.
//!
//! Because the writer emits integers and the reader repacks rows with the
//! same prefix-sum/blocked-span walk the placement itself uses, a whole
//! layout round-trips **byte-identically**: `write(parse(write(p))) ==
//! write(p)` for all four files, and the rebuilt placement reproduces every
//! cached coordinate bit for bit.

use crate::layout::{Placement, ROW_HEIGHT};
use std::collections::HashMap;
use vlsi_netlist::bookshelf::{CoreRow, PlEntry};
use vlsi_netlist::{CellId, Netlist};

/// Errors produced by [`placement_from_pl`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlConvertError {
    /// A `.pl` entry names a cell the netlist does not contain.
    UnknownCell(String),
    /// A cell appears more than once in the `.pl`.
    DuplicateEntry(String),
    /// A netlist cell has no `.pl` entry.
    MissingCell(String),
    /// The `/FIXED` attribute disagrees with the netlist's fixed flag.
    FixedFlagMismatch(String),
    /// A fixed cell's recorded position disagrees with the deterministic
    /// fixed layout derived from the netlist.
    FixedPositionMismatch {
        /// Cell name.
        name: String,
        /// Position the fixed layout derives, `(x, y)` in layout units.
        expected: (i64, i64),
        /// Position the `.pl` records.
        got: (i64, i64),
    },
    /// A movable cell's y coordinate is not the bottom of a valid row.
    BadRow {
        /// Cell name.
        name: String,
        /// The offending y coordinate.
        y: i64,
    },
}

impl std::fmt::Display for PlConvertError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlConvertError::UnknownCell(n) => write!(f, ".pl names unknown cell `{n}`"),
            PlConvertError::DuplicateEntry(n) => write!(f, ".pl places cell `{n}` twice"),
            PlConvertError::MissingCell(n) => write!(f, ".pl is missing cell `{n}`"),
            PlConvertError::FixedFlagMismatch(n) => {
                write!(
                    f,
                    ".pl /FIXED attribute of `{n}` disagrees with the netlist"
                )
            }
            PlConvertError::FixedPositionMismatch {
                name,
                expected,
                got,
            } => write!(
                f,
                "fixed cell `{name}` must sit at {expected:?} per the netlist's \
                 deterministic fixed layout, .pl records {got:?}"
            ),
            PlConvertError::BadRow { name, y } => {
                write!(f, "cell `{name}` y = {y} is not the bottom of a valid row")
            }
        }
    }
}

impl std::error::Error for PlConvertError {}

/// Integer left edge / row bottom of `cell` — the coordinates a `.pl` line
/// records. Exact: widths are integers and rows pack on integer edges.
fn pl_coordinates(netlist: &Netlist, placement: &Placement, cell: CellId) -> (i64, i64) {
    let w = netlist.cell(cell).width as f64;
    let x = placement.x_of(cell) - w / 2.0;
    (
        x as i64,
        (placement.row_of(cell) as i64) * ROW_HEIGHT as i64,
    )
}

/// Serialises a placement as `.pl` entries, one per cell in id order.
pub fn placement_to_pl(netlist: &Netlist, placement: &Placement) -> Vec<PlEntry> {
    netlist
        .cell_ids()
        .map(|id| {
            let (x, y) = pl_coordinates(netlist, placement, id);
            PlEntry {
                name: netlist.cell_name(id).to_string(),
                x,
                y,
                fixed: netlist.cell(id).fixed,
            }
        })
        .collect()
}

/// Rebuilds a [`Placement`] from `.pl` entries.
///
/// Movable cells are grouped into rows by `y` and ordered by `x` (ties by
/// cell id); each row is then repacked by the placement's own blocked-span
/// walk, so entries written by [`placement_to_pl`] reproduce the original
/// coordinates bit for bit. Fixed cells are validated against the netlist's
/// deterministic fixed layout and rejected on any disagreement.
pub fn placement_from_pl(
    netlist: &Netlist,
    num_rows: usize,
    entries: &[PlEntry],
) -> Result<Placement, PlConvertError> {
    let row_h = ROW_HEIGHT as i64;
    let by_name: HashMap<&str, CellId> = netlist
        .cell_ids()
        .map(|id| (netlist.cell_name(id), id))
        .collect();

    let mut seen = vec![false; netlist.num_cells()];
    let mut rows: Vec<Vec<(i64, CellId)>> = vec![Vec::new(); num_rows];
    let mut fixed_entries: Vec<(CellId, i64, i64)> = Vec::new();
    for e in entries {
        let id = *by_name
            .get(e.name.as_str())
            .ok_or_else(|| PlConvertError::UnknownCell(e.name.clone()))?;
        if std::mem::replace(&mut seen[id.index()], true) {
            return Err(PlConvertError::DuplicateEntry(e.name.clone()));
        }
        let cell = netlist.cell(id);
        if cell.fixed != e.fixed {
            return Err(PlConvertError::FixedFlagMismatch(e.name.clone()));
        }
        if cell.fixed {
            fixed_entries.push((id, e.x, e.y));
            continue;
        }
        let row = e.y / row_h;
        if e.y % row_h != 0 || !(0..num_rows as i64).contains(&row) {
            return Err(PlConvertError::BadRow {
                name: e.name.clone(),
                y: e.y,
            });
        }
        rows[row as usize].push((e.x, id));
    }
    if let Some(i) = seen.iter().position(|&s| !s) {
        return Err(PlConvertError::MissingCell(
            netlist.cell_name(CellId::from(i)).to_string(),
        ));
    }

    let rows: Vec<Vec<CellId>> = rows
        .into_iter()
        .map(|mut row| {
            row.sort_by_key(|&(x, id)| (x, id));
            row.into_iter().map(|(_, id)| id).collect()
        })
        .collect();
    let placement = Placement::from_rows(netlist, rows);

    // Fixed positions are derived, never loaded: the file must agree.
    for (id, x, y) in fixed_entries {
        let expected = pl_coordinates(netlist, &placement, id);
        if expected != (x, y) {
            return Err(PlConvertError::FixedPositionMismatch {
                name: netlist.cell_name(id).to_string(),
                expected,
                got: (x, y),
            });
        }
    }
    Ok(placement)
}

/// Serialises the row geometry of a placement as `.scl` records: one
/// [`CoreRow`] per row, 1-unit sites, `NumSites` covering both the packed
/// extent and any blocked span that reaches past it.
pub fn rows_to_scl(placement: &Placement) -> Vec<CoreRow> {
    (0..placement.num_rows())
        .map(|r| {
            let blocked_end = placement.blocked_spans(r).last().map_or(0.0, |&(_, hi)| hi);
            CoreRow {
                coordinate: (r as i64) * ROW_HEIGHT as i64,
                height: ROW_HEIGHT as i64,
                sitewidth: 1,
                subrow_origin: 0,
                num_sites: placement.row_extent(r).max(blocked_end) as i64,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlsi_netlist::bench_suite::{mixed_circuit, MixedCircuit};
    use vlsi_netlist::bookshelf::{
        parse_bookshelf, parse_pl, parse_scl, write_bookshelf, write_pl, write_scl,
    };

    fn layout() -> (Netlist, Placement, usize) {
        let nl = mixed_circuit(MixedCircuit::Mix600);
        let rows = MixedCircuit::Mix600.num_rows();
        let p = Placement::round_robin(&nl, rows);
        (nl, p, rows)
    }

    #[test]
    fn placement_roundtrips_through_pl_bit_for_bit() {
        let (nl, p, rows) = layout();
        let entries = placement_to_pl(&nl, &p);
        let q = placement_from_pl(&nl, rows, &entries).unwrap();
        q.validate(&nl).unwrap();
        for c in nl.cell_ids() {
            assert_eq!(p.position(c).0.to_bits(), q.position(c).0.to_bits());
            assert_eq!(p.position(c).1.to_bits(), q.position(c).1.to_bits());
        }
    }

    #[test]
    fn whole_layout_roundtrips_byte_identically() {
        // The acceptance gate of the mixed-size PR: a layout dumped through
        // all four Bookshelf files and reloaded writes back the exact same
        // bytes for each of them.
        let (nl, p, rows) = layout();
        let pair = write_bookshelf(&nl);
        let pl = write_pl(&placement_to_pl(&nl, &p));
        let scl = write_scl(&rows_to_scl(&p));

        let nl2 = parse_bookshelf(&pair.nodes, &pair.nets).unwrap();
        let geometry = parse_scl(&scl).unwrap();
        assert_eq!(geometry.len(), rows);
        let p2 = placement_from_pl(&nl2, geometry.len(), &parse_pl(&pl).unwrap()).unwrap();

        assert_eq!(write_bookshelf(&nl2), pair);
        assert_eq!(write_pl(&placement_to_pl(&nl2, &p2)), pl);
        assert_eq!(write_scl(&rows_to_scl(&p2)), scl);
    }

    #[test]
    fn fixed_positions_are_validated_not_loaded() {
        let (nl, p, rows) = layout();
        let mut entries = placement_to_pl(&nl, &p);
        let victim = entries
            .iter_mut()
            .find(|e| e.fixed)
            .expect("mixed circuit has fixed cells");
        victim.x += 1;
        let err = placement_from_pl(&nl, rows, &entries).unwrap_err();
        assert!(
            matches!(err, PlConvertError::FixedPositionMismatch { .. }),
            "{err}"
        );
    }

    #[test]
    fn pl_errors_cover_missing_unknown_and_flags() {
        let (nl, p, rows) = layout();
        let entries = placement_to_pl(&nl, &p);

        let mut missing = entries.clone();
        missing.pop();
        assert!(matches!(
            placement_from_pl(&nl, rows, &missing).unwrap_err(),
            PlConvertError::MissingCell(_)
        ));

        let mut unknown = entries.clone();
        unknown[0].name = "ghost".into();
        assert!(matches!(
            placement_from_pl(&nl, rows, &unknown).unwrap_err(),
            PlConvertError::UnknownCell(_)
        ));

        let mut dup = entries.clone();
        let copy = dup[5].clone();
        *dup.last_mut().unwrap() = copy;
        assert!(matches!(
            placement_from_pl(&nl, rows, &dup).unwrap_err(),
            PlConvertError::DuplicateEntry(_)
        ));

        let mut flag = entries.clone();
        let movable = flag.iter_mut().find(|e| !e.fixed).unwrap();
        movable.fixed = true;
        assert!(matches!(
            placement_from_pl(&nl, rows, &flag).unwrap_err(),
            PlConvertError::FixedFlagMismatch(_)
        ));

        let mut bad_row = entries;
        let movable = bad_row.iter_mut().find(|e| !e.fixed).unwrap();
        movable.y = 7;
        assert!(matches!(
            placement_from_pl(&nl, rows, &bad_row).unwrap_err(),
            PlConvertError::BadRow { .. }
        ));
    }

    #[test]
    fn scl_records_cover_blocked_spans() {
        let (_, p, rows) = layout();
        let scl = rows_to_scl(&p);
        assert_eq!(scl.len(), rows);
        for (r, rec) in scl.iter().enumerate() {
            assert_eq!(rec.coordinate, (r as i64) * ROW_HEIGHT as i64);
            assert_eq!(rec.height, ROW_HEIGHT as i64);
            assert!(rec.num_sites as f64 >= p.row_extent(r));
            for &(_, hi) in p.blocked_spans(r) {
                assert!(rec.num_sites as f64 >= hi);
            }
        }
    }
}
