//! The SimE Allocation operator.
//!
//! Allocation takes the selection set `S` and the partial solution `Φp`
//! (the placement with the selected cells ripped up) and re-inserts each
//! selected cell, trying to improve the solution without being too greedy
//! (Section 3). The paper uses the *sorted individual best fit* method:
//! the selected cells are sorted and each is placed, one at a time, at the
//! trial slot with the lowest cost over its incident nets.
//!
//! Profiling in Section 4 of the paper attributes ~98 % of the serial runtime
//! to this operator, because every cell examines every insertion slot of the
//! layout (each of which requires re-estimating the lengths of the cell's
//! nets). That observation drives all three parallelization strategies, so
//! this module reports detailed work counts ([`AllocationStats`]) that the
//! cluster simulation uses to charge virtual compute time.
//!
//! This module implements the paper's method as *windowed* best fit: each
//! cell examines a bounded window of slots around its optimal position (the
//! median of its connected cells) rather than every slot of the layout, and
//! takes the best of those.
//!
//! Allocation treats the layout-width constraint as hard: a cell is only
//! offered rows whose movable width stays within `(1 + α) · w_avg` once the
//! cell is added. The rows are filtered before candidates are enumerated, so
//! the monotone-branch search stays bitwise equal to the exhaustive scan.

use serde::{Deserialize, Serialize};
use vlsi_netlist::CellId;
use vlsi_place::cost::CostEvaluator;
use vlsi_place::kernel::TrialScorer;
use vlsi_place::layout::{Placement, Slot};

/// Maximum number of candidate slots examined per cell, spread over the
/// rows nearest the cell's optimal row.
const BEST_FIT_WINDOW: usize = 48;

/// Number of rows (the fitting allowed rows nearest the optimal row) a
/// cell's candidate window spans.
const BEST_FIT_ROWS: usize = 3;

/// Reusable buffers for the allocation operator. Everything the former
/// implementation allocated per cell (row orderings, row windows, the
/// median buffers of the windowed search) and per *slot* (the pin buffer and
/// Steiner sort inside trial scoring, now owned by the embedded
/// [`TrialScorer`]) lives here, so a full allocation pass performs no heap
/// allocation. One instance per worker thread.
#[derive(Debug, Clone, Default)]
pub struct AllocScratch {
    /// The allocation-free trial scorer (shared with the engine's evaluation
    /// step, which uses it to refresh the net-length cache).
    pub scorer: TrialScorer,
    /// Allowed target rows of the current allocation call, ascending and
    /// duplicate-free (the nearest-row merge's input).
    sorted_rows: Vec<usize>,
    /// The current cell's candidate window, one entry per row.
    windows: Vec<RowWindow>,
    /// Connected-cell x coordinates (windowed search median).
    xs: Vec<f64>,
    /// Connected-cell y coordinates (windowed search median).
    ys: Vec<f64>,
    /// Allowed rows nearest the optimal y, nearest first (windowed search).
    rows_by_distance: Vec<usize>,
    /// Per-row counts of the summary-derived y median of the windowed
    /// search (all zero between calls).
    row_counts: Vec<u32>,
    /// Per-net vertical terms of the row run being scanned.
    vertical: Vec<f64>,
}

impl AllocScratch {
    /// Sets the allowed rows of one allocation call: `allowed` (or every
    /// row when `allowed` is empty), sorted ascending with duplicate entries
    /// dropped. Duplicated allowed rows would otherwise emit the same
    /// `(row, index)` slot twice and double-charge the
    /// `net_evaluations` / `trial_positions` work counts.
    fn set_allowed_rows(&mut self, num_rows: usize, allowed: &[usize]) {
        self.sorted_rows.clear();
        if allowed.is_empty() {
            self.sorted_rows.extend(0..num_rows);
        } else {
            self.sorted_rows.extend_from_slice(allowed);
            self.sorted_rows.sort_unstable();
            self.sorted_rows.dedup();
        }
    }
}

/// Configuration of the allocation operator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AllocationConfig {
    /// Enable the monotone-branch trial search (and the summary-derived
    /// windowed candidate search it feeds): along each row run it scores
    /// only the candidates that can hold the argmin, using that the score is
    /// non-increasing up to the smallest other-pin `max_x` and
    /// non-decreasing from the largest other-pin `min_x`. The argmin and its
    /// first-index tie-break — and therefore every placement, trajectory and
    /// work count — stay bitwise identical to the exhaustive scan; `false`
    /// forces the exhaustive scan through the reference scorer (A/B
    /// baseline and oracle of the differential tests).
    pub bound_pruning: bool,
}

impl Default for AllocationConfig {
    fn default() -> Self {
        AllocationConfig {
            bound_pruning: true,
        }
    }
}

/// Work performed by one allocation call; the cluster simulation charges
/// virtual compute time proportional to `net_evaluations`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AllocationStats {
    /// Number of cells re-inserted.
    pub cells_allocated: usize,
    /// Number of candidate slots examined.
    pub trial_positions: usize,
    /// Number of per-net length estimations performed while scoring slots.
    pub net_evaluations: usize,
}

impl AllocationStats {
    /// Accumulates another stats record into this one.
    pub fn merge(&mut self, other: &AllocationStats) {
        self.cells_allocated += other.cells_allocated;
        self.trial_positions += other.trial_positions;
        self.net_evaluations += other.net_evaluations;
    }
}

/// The width budget of one cell's allocation: a row can take the cell iff
/// its movable width plus the cell's stays within `(1 + α) · w_avg`, where
/// `α` is the fuzzy width-constraint ratio and `w_avg` the average row width.
/// Rows are compared by [`Placement::row_width`], which excludes blocked
/// spans and fixed cells.
#[derive(Debug, Clone, Copy)]
struct RowBudget {
    limit: f64,
    width: u64,
}

impl RowBudget {
    /// The budget of `cell` under `placement`.
    fn new(evaluator: &CostEvaluator, placement: &Placement, cell: CellId) -> Self {
        RowBudget {
            limit: (1.0 + evaluator.fuzzy().alpha_width) * placement.avg_row_width(),
            width: evaluator.netlist().cell(cell).width as u64,
        }
    }

    /// `true` when `row` can take the cell without exceeding the limit.
    #[inline]
    fn fits(&self, placement: &Placement, row: usize) -> bool {
        (placement.row_width(row) + self.width) as f64 <= self.limit
    }
}

/// The fallback row when no allowed row fits: the least-filled one, the
/// lowest index breaking ties.
fn least_filled(placement: &Placement, rows: &[usize]) -> usize {
    rows.iter()
        .copied()
        .min_by_key(|&row| (placement.row_width(row), row))
        .expect("at least one allowed row")
}

/// Sorts the selection set for allocation: cells with the lowest goodness
/// (i.e. the worst placed) are allocated first, ties broken by cell id for
/// determinism. This is the "sorted" part of sorted individual best fit.
pub fn sort_selection(selected: &mut [CellId], goodness: &[f64]) {
    selected.sort_by(|&a, &b| {
        goodness[a.index()]
            .partial_cmp(&goodness[b.index()])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
}

/// Re-inserts the already-removed cell `cell` into `placement` at the best
/// slot of its candidate window, restricted to `allowed_rows` (all rows
/// when empty). Returns the number of slots examined and net evaluations
/// performed.
///
/// The caller is responsible for having removed `cell` from the placement
/// (allocation operates on the partial solution `Φp`).
pub fn allocate_cell(
    evaluator: &CostEvaluator,
    scratch: &mut AllocScratch,
    placement: &mut Placement,
    cell: CellId,
    config: &AllocationConfig,
    allowed_rows: &[usize],
) -> AllocationStats {
    scratch.set_allowed_rows(placement.num_rows(), allowed_rows);
    allocate_cell_inner(evaluator, scratch, placement, cell, config)
}

/// The shared body of [`allocate_cell`] and [`allocate_all`]; the caller has
/// set the allowed rows in `scratch` (once per call, not per cell).
fn allocate_cell_inner(
    evaluator: &CostEvaluator,
    scratch: &mut AllocScratch,
    placement: &mut Placement,
    cell: CellId,
    config: &AllocationConfig,
) -> AllocationStats {
    let nets_of_cell = evaluator.netlist().nets_of_cell(cell).len();

    // One pass over the cell's pins up front; every candidate slot below is
    // then scored from the per-net summaries. The pass runs before the
    // window is laid out because the windowed search derives its optimal
    // position from the same summaries instead of re-walking the CSR.
    scratch.scorer.prepare_cell(evaluator, placement, cell);

    // Lay out the candidate window in the allowed rows the cell fits in.
    let budget = RowBudget::new(evaluator, placement, cell);
    windowed_candidates(evaluator, placement, cell, config, &budget, scratch);

    let windows = &scratch.windows;
    let best = scan_windows(
        evaluator,
        placement,
        cell,
        &scratch.scorer,
        windows,
        config.bound_pruning,
        &mut scratch.vertical,
    );
    // Every window holds at least one slot; its first one stands in when
    // nothing scored below infinity.
    let slot = best.unwrap_or(Slot {
        row: windows[0].row,
        index: windows[0].first,
    });
    // The nominal work counts charge every slot of the window whether or not
    // the search skipped individual scores: they feed the modeled cluster
    // time and the cross-config stats-equality tests, and the *algorithmic*
    // work of the operator is unchanged.
    let trial_positions: usize = windows.iter().map(|w| w.count).sum();
    let stats = AllocationStats {
        cells_allocated: 1,
        trial_positions,
        net_evaluations: trial_positions * nets_of_cell,
    };
    placement.insert_cell(cell, slot);
    stats
}

/// One row's share of a cell's candidate window: the insertion indices
/// `first .. first + count` of `row`, which ascend in x.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RowWindow {
    row: usize,
    first: usize,
    count: usize,
}

/// First index of `lo..hi` at which `pred` turns false (`hi` when it never
/// does); `pred` must hold on a prefix of the range and fail on the rest.
/// The index-range form of `slice::partition_point`.
fn partition_point(mut lo: usize, mut hi: usize, mut pred: impl FnMut(usize) -> bool) -> usize {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Scans the slots of `windows`, in window order and ascending index within
/// each, with the strictly-less argmin and returns the best one (`None` when
/// nothing scored below infinity).
///
/// With `prune` set, the scan scores each window's slots through per-net
/// vertical constants prepared once per window
/// (`PreparedSummaries::prepare_row`), bit-identical to the full score.
/// Along a window the score is non-increasing for `x ≤ a` and
/// non-decreasing for `x ≥ b`, component-wise, where
/// `(a, b) = monotone_branches()` (see DESIGN.md §3a). So each window:
///
/// * scores only the last slot with `x ≤ a`. When it strictly beats the
///   incumbent, every slot of that prefix scoring the same is a contiguous
///   block ending there, and a binary search finds its first index — the
///   pick of a linear first-wins scan;
/// * walks the slots with `a < x < b`;
/// * stops after the first slot with `x ≥ b`: no later one can strictly
///   beat it.
///
/// The argmin, and with it every placement and trajectory, is bitwise
/// identical to the exhaustive scan; under `debug_assertions` every scan
/// re-runs the exhaustive one through the reference scorer and asserts so.
fn scan_windows(
    evaluator: &CostEvaluator,
    placement: &Placement,
    cell: CellId,
    scorer: &TrialScorer,
    windows: &[RowWindow],
    prune: bool,
    vertical: &mut Vec<f64>,
) -> Option<Slot> {
    let exhaustive = || {
        let mut best_score = f64::INFINITY;
        let mut best = None;
        for w in windows {
            for index in w.first..w.first + w.count {
                let slot = Slot { row: w.row, index };
                let pos = placement.trial_position(cell, slot);
                let score = evaluator.allocation_score(&scorer.prepared_cost_at(pos));
                if score < best_score {
                    best_score = score;
                    best = Some(slot);
                }
            }
        }
        best
    };
    if !prune {
        return exhaustive();
    }

    let view = scorer.prepared_summaries();
    let (a, b) = view.monotone_branches();
    let mut best_score = f64::INFINITY;
    let mut best = None;
    for &RowWindow { row, first, count } in windows {
        let end = first + count;
        let x_of = |index: usize| placement.trial_position(cell, Slot { row, index }).0;
        view.prepare_row(row as u32, vertical);
        let score_at = |x: f64| evaluator.allocation_score(&view.cost_at_in_row(x, vertical));
        // The window's non-increasing prefix: the slots with x ≤ a.
        let prefix = partition_point(first, end, |i| x_of(i) <= a);
        let mut walk_from = prefix;
        if prefix > first {
            let x = x_of(prefix - 1);
            let score = score_at(x);
            if score < best_score {
                best_score = score;
                let index = partition_point(first, prefix - 1, |i| score_at(x_of(i)) > score);
                best = Some(Slot { row, index });
            }
            if x >= b {
                // The prefix already reached the non-decreasing suffix.
                walk_from = end;
            }
        }
        for index in walk_from..end {
            let x = x_of(index);
            let score = score_at(x);
            if score < best_score {
                best_score = score;
                best = Some(Slot { row, index });
            }
            if x >= b {
                break;
            }
        }
    }
    debug_assert_eq!(
        best,
        exhaustive(),
        "monotone-branch search diverged from the exhaustive scan"
    );
    best
}

/// The candidate window of windowed best fit, written to `scratch.windows`
/// as one [`RowWindow`] per row: the cell's optimal position is the median
/// of the positions of the other cells it connects to; candidates are the
/// insertion indices closest to that x coordinate in the [`BEST_FIT_ROWS`]
/// allowed rows closest to the optimal row that fit the cell (the
/// least-filled allowed row when none does), capped at [`BEST_FIT_WINDOW`]
/// slots in total: the rows are taken nearest first and the row that
/// crosses the cap is cut short, which is where truncating the
/// concatenated slot list would cut it. The window keeps the per-cell
/// allocation cost independent of the layout size, which is what makes the
/// paper's Type II per-iteration speed-up roughly proportional to the
/// processor count.
///
/// The nearest rows come from one outward merge over the sorted allowed rows
/// that skips the rows over budget ([`nearest_rows`]). With
/// `config.bound_pruning` the optimal position comes straight from the
/// prepared per-net summaries (one CSR walk, already performed) instead of a
/// fresh gather-and-sort, and the per-row insertion index from a walk over
/// the rows' exact cached left edges ([`first_edge_at_or_above`]) — both
/// bitwise identical to the legacy path, which is kept as the `false` branch
/// (the A/B baseline).
fn windowed_candidates(
    evaluator: &CostEvaluator,
    placement: &Placement,
    cell: CellId,
    config: &AllocationConfig,
    budget: &RowBudget,
    scratch: &mut AllocScratch,
) {
    let netlist = evaluator.netlist();

    let AllocScratch {
        scorer,
        sorted_rows,
        windows,
        xs,
        ys,
        rows_by_distance,
        row_counts,
        ..
    } = scratch;
    windows.clear();

    let (opt_x, opt_y) = if config.bound_pruning {
        scorer
            .prepared_summaries()
            .median_position(xs, row_counts)
            .unwrap_or_else(|| placement.position(cell))
    } else {
        // Legacy gather: median of connected-cell coordinates via sort.
        xs.clear();
        ys.clear();
        for &net in netlist.nets_of_cell(cell) {
            for &other in evaluator.net_cells(net) {
                if other == cell {
                    continue;
                }
                let (x, y) = placement.position(other);
                xs.push(x);
                ys.push(y);
            }
        }
        if xs.is_empty() {
            placement.position(cell)
        } else {
            xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            ys.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            (xs[xs.len() / 2], ys[ys.len() / 2])
        }
    };

    // Rows nearest the optimal y that fit the cell, limited to
    // `BEST_FIT_ROWS`. The allowed rows are deduplicated, so the per-row
    // windows below cannot emit the same slot twice.
    nearest_rows(
        sorted_rows,
        opt_y,
        BEST_FIT_ROWS,
        |row| budget.fits(placement, row),
        rows_by_distance,
    );
    if rows_by_distance.is_empty() {
        rows_by_distance.push(least_filled(placement, sorted_rows));
    }

    let per_row = (BEST_FIT_WINDOW / rows_by_distance.len()).max(1);
    let mut room = BEST_FIT_WINDOW;
    for &row in rows_by_distance.iter() {
        let cells_in_row = placement.row(row);
        let len = cells_in_row.len();
        let best_index = if config.bound_pruning {
            // Boundary i is cell i's exact left edge (`x_of - width/2`, an
            // exact integer equal to the legacy cumulative-width sum),
            // boundary `len` the row's right extent (which accounts for gaps
            // forced by blocked macro spans). Cell widths are positive
            // (`Netlist` rejects zero-width cells), so boundaries strictly
            // increase: the winner is the first boundary ≥ opt_x or its left
            // neighbour, and a tie resolves to the left one — the legacy
            // scan's first-wins rule.
            let end_edge = placement.row_extent(row);
            let boundary = |i: usize| {
                if i < len {
                    placement.left_edge(cells_in_row[i])
                } else {
                    end_edge
                }
            };
            let j = first_edge_at_or_above(placement, row, opt_x);
            let jb = if j == len && end_edge < opt_x {
                len + 1
            } else {
                j
            };
            let best = if jb == 0 {
                0
            } else if jb == len + 1 {
                len
            } else {
                let d_left = opt_x - boundary(jb - 1);
                let d_right = boundary(jb) - opt_x;
                if d_right < d_left {
                    jb
                } else {
                    jb - 1
                }
            };
            debug_assert!(best == 0 || boundary(best - 1) < boundary(best));
            best
        } else {
            // Legacy: linear scan over the row's insertion boundaries. Each
            // cell's cached left edge equals the old cumulative-width sum on
            // gap-free rows bit for bit, and — unlike a running sum — stays
            // correct when blocked macro spans force packing gaps.
            let mut best_index = len;
            let mut best_dist = f64::INFINITY;
            for (i, &c) in cells_in_row.iter().enumerate() {
                let d = (placement.left_edge(c) - opt_x).abs();
                if d < best_dist {
                    best_dist = d;
                    best_index = i;
                }
            }
            if (placement.row_extent(row) - opt_x).abs() < best_dist {
                best_index = len;
            }
            best_index
        };
        // Take indices around the best one.
        let half = per_row / 2;
        let lo = best_index.saturating_sub(half);
        let hi = (best_index + half.max(1)).min(len);
        let count = (hi - lo + 1).min(room);
        room -= count;
        windows.push(RowWindow {
            row,
            first: lo,
            count,
        });
    }
}

/// Index of the first cell in `row` whose left edge is `≥ opt_x` (the row's
/// length when there is none) — `partition_point` over the row's left
/// edges, without its dependent probes. Left edges never decrease along a
/// row, so walking from the proportional guess `⌊opt_x / extent · len⌋` to
/// the first edge `≥ opt_x` is exact, and short when the row's cells have
/// similar widths.
fn first_edge_at_or_above(placement: &Placement, row: usize, opt_x: f64) -> usize {
    let cells = placement.row(row);
    let len = cells.len();
    let edge = |i: usize| placement.left_edge(cells[i]);
    // `as` saturates: a guess below 0 (or NaN from an empty row) becomes 0.
    let mut j = ((opt_x / placement.row_extent(row) * len as f64) as usize).min(len);
    // At most one of the two walks moves: after a step right, edge(j - 1)
    // is below opt_x.
    while j < len && edge(j) < opt_x {
        j += 1;
    }
    while j > 0 && edge(j - 1) >= opt_x {
        j -= 1;
    }
    debug_assert_eq!(
        j,
        cells.partition_point(|&c| placement.left_edge(c) < opt_x)
    );
    j
}

/// Writes the (at most) `k` rows of `sorted_rows` (ascending, duplicate-free)
/// that satisfy `fits` and lie nearest to `opt_y` into `out`, in ascending
/// `(distance, row)` order — the prefix a filter and a full sort by that key
/// would produce. Row centres increase with the row index, so distances fall
/// up to the first row centred at or above `opt_y` and rise after it.
/// Walking outward from that split, skipping rows that do not fit, two rows
/// on one side never tie (distinct rows sit at least a row height apart),
/// and a tie across the split goes to the left, smaller row — the sort's
/// tie-break. O(k + log n + skipped rows) per cell instead of a pass over
/// every allowed row.
fn nearest_rows(
    sorted_rows: &[usize],
    opt_y: f64,
    k: usize,
    fits: impl Fn(usize) -> bool,
    out: &mut Vec<usize>,
) {
    out.clear();
    let centre = |row: usize| (row as f64 + 0.5) * row_height();
    // Index of the nearest fitting row left of `end` / at or right of `start`.
    let left_of = |end: usize| sorted_rows[..end].iter().rposition(|&row| fits(row));
    let right_of = |start: usize| {
        sorted_rows[start..]
            .iter()
            .position(|&row| fits(row))
            .map(|i| start + i)
    };
    let split = sorted_rows.partition_point(|&row| centre(row) < opt_y);
    let mut left = left_of(split);
    let mut right = right_of(split);
    let distance = |i: usize| (centre(sorted_rows[i]) - opt_y).abs();
    while out.len() < k {
        match (left, right) {
            (Some(l), r) if r.is_none_or(|r| distance(l) <= distance(r)) => {
                out.push(sorted_rows[l]);
                left = left_of(l);
            }
            (_, Some(r)) => {
                out.push(sorted_rows[r]);
                right = right_of(r + 1);
            }
            // Neither side has a fitting row left.
            _ => break,
        }
    }
}

/// Row height re-exported for the windowed candidate search (kept here so the
/// allocation module does not depend on layout internals beyond the public
/// constant).
#[inline]
pub(crate) fn row_height() -> f64 {
    vlsi_place::layout::ROW_HEIGHT
}

/// Runs the full allocation step: sorts `selected`, removes every selected
/// cell from the placement, and re-inserts them one at a time with
/// [`allocate_cell`]. `allowed_rows` restricts the target rows (used by the
/// Type II row decomposition); pass an empty slice to allow every row.
pub fn allocate_all(
    evaluator: &CostEvaluator,
    scratch: &mut AllocScratch,
    placement: &mut Placement,
    selected: &mut [CellId],
    goodness: &[f64],
    config: &AllocationConfig,
    allowed_rows: &[usize],
) -> AllocationStats {
    sort_selection(selected, goodness);
    // Rip up all selected cells first: allocation operates on the partial
    // solution, exactly as in Figure 1 of the paper.
    for &cell in selected.iter() {
        placement.remove_cell(cell);
    }
    scratch.set_allowed_rows(placement.num_rows(), allowed_rows);
    let mut stats = AllocationStats::default();
    for &cell in selected.iter() {
        let s = allocate_cell_inner(evaluator, scratch, placement, cell, config);
        stats.merge(&s);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::sync::Arc;
    use vlsi_netlist::generator::{CircuitGenerator, GeneratorConfig};
    use vlsi_place::cost::Objectives;
    use vlsi_place::goodness::GoodnessEvaluator;

    fn setup() -> (CostEvaluator, GoodnessEvaluator, Placement) {
        let nl = Arc::new(
            CircuitGenerator::new(GeneratorConfig::sized("alloc_test", 140, 17)).generate(),
        );
        let eval = CostEvaluator::new(Arc::clone(&nl), Objectives::WirelengthPower);
        let placement = Placement::round_robin(&nl, 8);
        (eval.clone(), GoodnessEvaluator::new(eval), placement)
    }

    #[test]
    fn sort_selection_puts_worst_cells_first() {
        let goodness = vec![0.9, 0.1, 0.5, 0.1];
        let mut selected = vec![CellId(0), CellId(2), CellId(3), CellId(1)];
        sort_selection(&mut selected, &goodness);
        assert_eq!(selected, vec![CellId(1), CellId(3), CellId(2), CellId(0)]);
    }

    #[test]
    fn allocation_preserves_placement_legality() {
        let (eval, ge, mut placement) = setup();
        let nl = eval.netlist().clone();
        let goodness = ge.all_goodness(&placement);
        let mut selected: Vec<CellId> = nl.cell_ids().take(30).collect();
        allocate_all(
            &eval,
            &mut AllocScratch::default(),
            &mut placement,
            &mut selected,
            &goodness,
            &AllocationConfig::default(),
            &[],
        );
        placement.validate(&nl).unwrap();
    }

    #[test]
    fn best_fit_does_not_worsen_a_single_cell_much() {
        // Re-allocating a single cell with windowed best fit keeps the cost
        // of its incident nets within a small tolerance of its previous
        // cost: the window surrounds the cell's optimal (median) position,
        // and the trial estimate can differ from the realised cost only by
        // the row shift caused by the cell's own width (other cells in the
        // target row slide by at most the cell width when it is inserted).
        let (eval, _, mut placement) = setup();
        let nl = eval.netlist().clone();
        let cell = nl
            .cell_ids()
            .find(|&c| nl.nets_of_cell(c).len() >= 2)
            .unwrap();
        let before = eval.allocation_score(&eval.cell_cost(&placement, cell));
        let slack = nl.cell(cell).width as f64 * 2.0 * nl.nets_of_cell(cell).len() as f64;
        placement.remove_cell(cell);
        allocate_cell(
            &eval,
            &mut AllocScratch::default(),
            &mut placement,
            cell,
            &AllocationConfig::default(),
            &[],
        );
        let after = eval.allocation_score(&eval.cell_cost(&placement, cell));
        assert!(
            after <= before + slack,
            "best fit must not noticeably worsen the cell: before {before}, after {after}"
        );
        placement.validate(&nl).unwrap();
    }

    #[test]
    fn allocation_respects_allowed_rows() {
        let (eval, ge, mut placement) = setup();
        let nl = eval.netlist().clone();
        let goodness = ge.all_goodness(&placement);
        let mut selected: Vec<CellId> = nl.cell_ids().take(40).collect();
        let allowed = vec![2usize, 3];
        allocate_all(
            &eval,
            &mut AllocScratch::default(),
            &mut placement,
            &mut selected,
            &goodness,
            &AllocationConfig::default(),
            &allowed,
        );
        placement.validate(&nl).unwrap();
        for cell in nl.cell_ids().take(40) {
            assert!(
                allowed.contains(&placement.row_of(cell)),
                "cell {cell} ended in row {}",
                placement.row_of(cell)
            );
        }
    }

    #[test]
    fn stats_count_work() {
        let (eval, ge, mut placement) = setup();
        let nl = eval.netlist().clone();
        let goodness = ge.all_goodness(&placement);
        let mut selected: Vec<CellId> = nl.cell_ids().take(10).collect();
        let stats = allocate_all(
            &eval,
            &mut AllocScratch::default(),
            &mut placement,
            &mut selected,
            &goodness,
            &AllocationConfig::default(),
            &[],
        );
        assert_eq!(stats.cells_allocated, 10);
        assert!(stats.trial_positions >= 10 * placement.num_rows());
        assert!(stats.net_evaluations >= stats.trial_positions);
    }

    #[test]
    fn duplicate_allowed_rows_do_not_double_charge_stats() {
        // Regression: overlapping/duplicated allowed-rows input used to emit
        // the same (row, index) candidate several times, inflating the
        // trial_positions / net_evaluations work counts the cluster
        // simulation charges for. The candidate set must depend only on the
        // *set* of allowed rows.
        let (eval, _, placement) = setup();
        let nl = eval.netlist().clone();
        let cell = nl
            .cell_ids()
            .find(|&c| nl.nets_of_cell(c).len() >= 2)
            .unwrap();
        let run = |allowed: &[usize]| {
            let mut p = placement.clone();
            let mut scratch = AllocScratch::default();
            p.remove_cell(cell);
            let stats = allocate_cell(
                &eval,
                &mut scratch,
                &mut p,
                cell,
                &AllocationConfig::default(),
                allowed,
            );
            (stats, p.slot_of(cell))
        };
        let (clean, slot_clean) = run(&[2, 3, 4]);
        let (dup, slot_dup) = run(&[2, 3, 2, 4, 3, 2]);
        assert_eq!(
            clean.trial_positions, dup.trial_positions,
            "duplicated rows must not add trial positions"
        );
        assert_eq!(clean.net_evaluations, dup.net_evaluations);
        assert_eq!(slot_clean, slot_dup, "same best slot");
    }

    #[test]
    fn nearest_rows_matches_the_sort_by_distance_then_row() {
        // Differential: the outward merge must return exactly the rows, in
        // exactly the order, of deduplicating the allowed list, dropping the
        // rows that do not fit, sorting the rest by (distance to opt_y, row)
        // and truncating to k.
        let oracle = |allowed: &[usize], fits: &[bool], num_rows: usize, opt_y: f64, k: usize| {
            let mut rows: Vec<usize> = Vec::new();
            if allowed.is_empty() {
                rows.extend(0..num_rows);
            } else {
                for &row in allowed {
                    if !rows.contains(&row) {
                        rows.push(row);
                    }
                }
            }
            rows.retain(|&row| fits[row]);
            let dist = |r: usize| ((r as f64 + 0.5) * row_height() - opt_y).abs();
            rows.sort_by(|&a, &b| dist(a).partial_cmp(&dist(b)).unwrap().then(a.cmp(&b)));
            rows.truncate(k);
            rows
        };
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let num_rows = 23;
        let mut scratch = AllocScratch::default();
        let mut out = Vec::new();
        for case in 0..2000 {
            let allowed: Vec<usize> = match case % 4 {
                // Full layout.
                0 => Vec::new(),
                // Unsorted distinct rows.
                1 => {
                    let mut rows: Vec<usize> = (0..num_rows).collect();
                    rows.shuffle(&mut rng);
                    rows.truncate(rng.gen_range(1..num_rows));
                    rows
                }
                // Duplicated rows.
                2 => (0..rng.gen_range(1..12))
                    .map(|_| rng.gen_range(0..num_rows))
                    .collect(),
                // A single row.
                _ => vec![rng.gen_range(0..num_rows)],
            };
            // Lattice centres (the engine's case), exact midpoints between
            // rows (cross-split ties) and arbitrary values, in and outside
            // the layout.
            let span = (num_rows as f64 + 4.0) * row_height();
            let opt_y = match case % 3 {
                0 => (rng.gen_range(0..num_rows) as f64 + 0.5) * row_height(),
                1 => rng.gen_range(0..=num_rows) as f64 * row_height(),
                _ => rng.gen::<f64>() * span - 2.0 * row_height(),
            };
            let k = rng.gen_range(1..6);
            // Every row fits, a random share fits, or (rarely) none does.
            let fit_share = [1.0, 0.7, 0.3, 0.0][case % 7 % 4];
            let fits: Vec<bool> = (0..num_rows)
                .map(|_| rng.gen::<f64>() < fit_share)
                .collect();
            scratch.set_allowed_rows(num_rows, &allowed);
            nearest_rows(&scratch.sorted_rows, opt_y, k, |row| fits[row], &mut out);
            assert_eq!(
                out,
                oracle(&allowed, &fits, num_rows, opt_y, k),
                "allowed {allowed:?}, fits {fits:?}, opt_y {opt_y}, k {k}"
            );
        }
    }

    /// A generated circuit with fixed pads and `num_macros` macros three rows
    /// high (blocked spans in several rows).
    fn blocked_span_netlist(name: &str, num_macros: usize) -> Arc<vlsi_netlist::Netlist> {
        use vlsi_netlist::generator::MixedSizeSpec;
        let nl = Arc::new(
            CircuitGenerator::new(GeneratorConfig::sized(name, 220, 23).with_mixed(
                MixedSizeSpec {
                    num_macros,
                    macro_height: 3,
                    pad_ring: true,
                },
            ))
            .generate(),
        );
        assert!(nl.has_fixed_cells());
        nl
    }

    #[test]
    fn bound_pruning_is_bitwise_identical_to_full_scan() {
        // The §3a search invariant, end to end: the searched scan must
        // produce the same placement and the same nominal work counts as the
        // legacy full scan. (In debug builds the scan additionally re-runs
        // the exhaustive scan and asserts the same argmin.)
        let nl = Arc::new(
            CircuitGenerator::new(GeneratorConfig::sized("alloc_prune_test", 260, 31)).generate(),
        );
        for objectives in [
            Objectives::WirelengthPower,
            Objectives::WirelengthPowerDelay,
        ] {
            let eval = CostEvaluator::new(Arc::clone(&nl), objectives);
            let ge = GoodnessEvaluator::new(eval.clone());
            let placement = Placement::round_robin(&nl, 7);
            let goodness = ge.all_goodness(&placement);
            let run = |bound_pruning: bool| {
                let mut p = placement.clone();
                let mut selected: Vec<CellId> = nl.cell_ids().take(80).collect();
                let stats = allocate_all(
                    &eval,
                    &mut AllocScratch::default(),
                    &mut p,
                    &mut selected,
                    &goodness,
                    &AllocationConfig { bound_pruning },
                    &[],
                );
                (stats, p)
            };
            let (legacy_stats, legacy_placement) = run(false);
            let (pruned_stats, pruned_placement) = run(true);
            assert_eq!(
                legacy_stats, pruned_stats,
                "{objectives:?}: nominal work counts must not change"
            );
            for row in 0..legacy_placement.num_rows() {
                assert_eq!(
                    legacy_placement.row(row),
                    pruned_placement.row(row),
                    "{objectives:?}: pruning must be bitwise invisible"
                );
            }
        }
    }

    #[test]
    fn blocked_span_allocation_matches_exhaustive_oracle() {
        // Mixed-size differential: on a circuit with fixed pads and
        // multi-row macros (blocked spans in several rows) the searched
        // windowed scan must pick the same slots, produce the same nominal
        // work counts and leave the same placement as the exhaustive
        // full-scan oracle — and neither may ever move a fixed cell.
        let nl = blocked_span_netlist("alloc_blocked_test", 3);
        for objectives in [
            Objectives::WirelengthPower,
            Objectives::WirelengthPowerDelay,
        ] {
            let eval = CostEvaluator::new(Arc::clone(&nl), objectives);
            let ge = GoodnessEvaluator::new(eval.clone());
            let placement = Placement::round_robin(&nl, 9);
            assert!(
                (0..9).any(|r| !placement.blocked_spans(r).is_empty()),
                "the macro layout must actually block spans"
            );
            let goodness = ge.all_goodness(&placement);
            let run = |bound_pruning: bool| {
                let mut p = placement.clone();
                let mut selected: Vec<CellId> = nl
                    .cell_ids()
                    .filter(|&c| !nl.cell(c).fixed)
                    .take(80)
                    .collect();
                let stats = allocate_all(
                    &eval,
                    &mut AllocScratch::default(),
                    &mut p,
                    &mut selected,
                    &goodness,
                    &AllocationConfig { bound_pruning },
                    &[],
                );
                (stats, p)
            };
            let (oracle_stats, oracle_placement) = run(false);
            let (pruned_stats, pruned_placement) = run(true);
            assert_eq!(
                oracle_stats, pruned_stats,
                "{objectives:?}: nominal work counts must not change"
            );
            for row in 0..oracle_placement.num_rows() {
                assert_eq!(
                    oracle_placement.row(row),
                    pruned_placement.row(row),
                    "{objectives:?}: pruning must be bitwise invisible"
                );
            }
            for c in nl.cell_ids().filter(|&c| nl.cell(c).fixed) {
                assert_eq!(
                    pruned_placement.x_of(c).to_bits(),
                    placement.x_of(c).to_bits(),
                    "{objectives:?}: fixed cell moved"
                );
            }
            pruned_placement.validate(&nl).unwrap();
        }
    }

    #[test]
    fn pruned_scan_matches_full_scan_over_every_slot() {
        // Long runs for the monotone-branch search: the windowed operator
        // hands `scan_windows` windows of at most a few dozen slots, so here
        // each prepared cell is scanned over every slot of every row. The
        // searched argmin must equal the exhaustive one, on a generated
        // circuit and on a mixed-size one whose blocked spans give
        // consecutive slots the same x. All three branches must fire: a
        // binary-searched prefix (x ≤ a) of several candidates, walked
        // candidates (a < x < b) and candidates skipped after the first
        // x ≥ b — and a shared x must fall inside a searched prefix.
        let plain = Arc::new(
            CircuitGenerator::new(GeneratorConfig::sized("alloc_long_runs", 180, 37)).generate(),
        );
        let circuits = [
            (plain, 7),
            (blocked_span_netlist("alloc_long_runs_mixed", 6), 9),
        ];
        let (mut searched, mut walked, mut skipped, mut shared_x) = (0, 0, 0, 0);
        for (nl, num_rows) in circuits {
            for objectives in [
                Objectives::WirelengthPower,
                Objectives::WirelengthPowerDelay,
            ] {
                let eval = CostEvaluator::new(Arc::clone(&nl), objectives);
                let mut scratch = AllocScratch::default();
                let mut placement = Placement::round_robin(&nl, num_rows);
                let mut vertical = Vec::new();
                for cell in nl.cell_ids().filter(|&c| !nl.cell(c).fixed).step_by(3) {
                    let slot = placement.slot_of(cell);
                    placement.remove_cell(cell);
                    scratch.scorer.prepare_cell(&eval, &placement, cell);
                    let windows: Vec<RowWindow> = (0..num_rows)
                        .map(|row| RowWindow {
                            row,
                            first: 0,
                            count: placement.slots_in_row(row),
                        })
                        .collect();
                    let mut scan = |prune: bool| {
                        scan_windows(
                            &eval,
                            &placement,
                            cell,
                            &scratch.scorer,
                            &windows,
                            prune,
                            &mut vertical,
                        )
                    };
                    let full = scan(false);
                    assert!(full.is_some());
                    assert_eq!(
                        scan(true),
                        full,
                        "{}/{objectives:?}: cell {cell}",
                        nl.name()
                    );
                    let (a, b) = scratch.scorer.prepared_summaries().monotone_branches();
                    for row in 0..num_rows {
                        let xs: Vec<f64> = (0..placement.slots_in_row(row))
                            .map(|index| placement.trial_position(cell, Slot { row, index }).0)
                            .collect();
                        let prefix = xs.iter().filter(|&&x| x <= a).count();
                        searched += usize::from(prefix >= 2);
                        walked += xs.iter().filter(|&&x| a < x && x < b).count();
                        if let Some(first) = xs.iter().position(|&x| x > a && x >= b) {
                            skipped += xs.len() - first - 1;
                        }
                        shared_x += xs[..prefix].windows(2).filter(|w| w[0] == w[1]).count();
                    }
                    placement.insert_cell(cell, slot);
                }
                placement.validate(&nl).unwrap();
            }
        }
        assert!(
            searched > 0 && walked > 0 && skipped > 0 && shared_x > 0,
            "searched prefixes {searched}, walked {walked}, skipped {skipped}, \
             shared x in a prefix {shared_x}"
        );
    }

    /// The slot list windowed best fit examined before it became row
    /// windows, built independently: the sort-based median of the connected
    /// cells, the fitting rows sorted by `(distance, row)`, a linear scan
    /// for each row's nearest boundary, and the concatenated per-row index
    /// ranges truncated to `BEST_FIT_WINDOW`. Also returns the untruncated
    /// length of each row's range.
    fn reference_slot_list(
        eval: &CostEvaluator,
        placement: &Placement,
        cell: CellId,
    ) -> (Vec<Slot>, Vec<usize>) {
        let (mut xs, mut ys) = (Vec::new(), Vec::new());
        for &net in eval.netlist().nets_of_cell(cell) {
            for &other in eval.net_cells(net).iter().filter(|&&c| c != cell) {
                let (x, y) = placement.position(other);
                xs.push(x);
                ys.push(y);
            }
        }
        let (opt_x, opt_y) = if xs.is_empty() {
            placement.position(cell)
        } else {
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            ys.sort_by(|a, b| a.partial_cmp(b).unwrap());
            (xs[xs.len() / 2], ys[ys.len() / 2])
        };
        let limit = (1.0 + eval.fuzzy().alpha_width) * placement.avg_row_width();
        let width = eval.netlist().cell(cell).width as u64;
        let all_rows: Vec<usize> = (0..placement.num_rows()).collect();
        let mut rows: Vec<usize> = all_rows
            .iter()
            .copied()
            .filter(|&r| (placement.row_width(r) + width) as f64 <= limit)
            .collect();
        let dist = |r: usize| ((r as f64 + 0.5) * row_height() - opt_y).abs();
        rows.sort_by(|&a, &b| dist(a).partial_cmp(&dist(b)).unwrap().then(a.cmp(&b)));
        rows.truncate(BEST_FIT_ROWS);
        if rows.is_empty() {
            rows.push(least_filled(placement, &all_rows));
        }
        let per_row = (BEST_FIT_WINDOW / rows.len()).max(1);
        let (mut list, mut lengths) = (Vec::new(), Vec::new());
        for row in rows {
            let cells = placement.row(row);
            let boundaries = cells
                .iter()
                .map(|&c| placement.left_edge(c))
                .chain([placement.row_extent(row)]);
            let mut best = (f64::INFINITY, 0);
            for (i, edge) in boundaries.enumerate() {
                if (edge - opt_x).abs() < best.0 {
                    best = ((edge - opt_x).abs(), i);
                }
            }
            let half = per_row / 2;
            let lo = best.1.saturating_sub(half);
            let hi = (best.1 + half.max(1)).min(cells.len());
            list.extend((lo..=hi).map(|index| Slot { row, index }));
            lengths.push(hi - lo + 1);
        }
        list.truncate(BEST_FIT_WINDOW);
        (list, lengths)
    }

    #[test]
    fn row_windows_match_the_materialised_slot_list() {
        // Every movable cell of a generated circuit and of mix600 (blocked
        // spans) is ripped up and re-allocated in turn. The windowed scan's
        // slot and nominal counts must equal the first-wins argmin of the
        // naive oracle over the old materialised slot list. Among the cells
        // there must be lists whose third row brought 17 slots and was cut
        // by the truncation to 48.
        use vlsi_netlist::bench_suite::{mixed_circuit, MixedCircuit};
        let plain = Arc::new(
            CircuitGenerator::new(GeneratorConfig::sized("alloc_windows", 300, 41)).generate(),
        );
        let circuits = [
            (plain, 7),
            (
                Arc::new(mixed_circuit(MixedCircuit::Mix600)),
                MixedCircuit::Mix600.num_rows(),
            ),
        ];
        for (nl, num_rows) in circuits {
            let eval = CostEvaluator::new(Arc::clone(&nl), Objectives::WirelengthPowerDelay);
            let mut scratch = AllocScratch::default();
            let mut placement = Placement::round_robin(&nl, num_rows);
            let mut third_row_cut = 0;
            for cell in nl.cell_ids().filter(|&c| !nl.cell(c).fixed) {
                placement.remove_cell(cell);
                let (list, lengths) = reference_slot_list(&eval, &placement, cell);
                let cut = lengths.iter().sum::<usize>() > BEST_FIT_WINDOW;
                third_row_cut += usize::from(lengths.len() == 3 && lengths[2] == 17 && cut);
                let mut expected = (f64::INFINITY, list[0]);
                for &slot in &list {
                    let pos = placement.trial_position(cell, slot);
                    let score = eval.allocation_score(&eval.cell_cost_at(&placement, cell, pos));
                    if score < expected.0 {
                        expected = (score, slot);
                    }
                }
                let stats = allocate_cell(
                    &eval,
                    &mut scratch,
                    &mut placement,
                    cell,
                    &AllocationConfig::default(),
                    &[],
                );
                assert_eq!(
                    placement.slot_of(cell),
                    expected.1,
                    "{}: cell {cell}",
                    nl.name()
                );
                assert_eq!(
                    stats.trial_positions,
                    list.len(),
                    "{}: cell {cell}",
                    nl.name()
                );
                assert_eq!(
                    stats.net_evaluations,
                    list.len() * nl.nets_of_cell(cell).len()
                );
            }
            placement.validate(&nl).unwrap();
            assert!(third_row_cut > 0, "{}: no truncated third row", nl.name());
        }
    }

    #[test]
    fn boundary_walk_matches_partition_point_on_every_row() {
        // The windowed search's row walk against the binary search it
        // replaces, on every row of s1196 and of mix600 (whose blocked
        // spans open gaps between left edges), plus one emptied row.
        // Probes: below 0, past the row extent, on every left edge, and at
        // the half-integers around each edge.
        use vlsi_netlist::bench_suite::{MixedCircuit, PaperCircuit, SuiteCircuit};
        for circuit in [
            SuiteCircuit::Paper(PaperCircuit::S1196),
            SuiteCircuit::Mixed(MixedCircuit::Mix600),
        ] {
            let nl = circuit.generate();
            let mut placement = Placement::round_robin(&nl, circuit.num_rows());
            let emptied = circuit.num_rows() - 1;
            for cell in placement.row(emptied).to_vec() {
                placement.remove_cell(cell);
            }
            assert!(placement.row(emptied).is_empty());
            if circuit.is_mixed() {
                assert!((0..circuit.num_rows()).any(|r| !placement.blocked_spans(r).is_empty()));
            }
            for row in 0..placement.num_rows() {
                let cells = placement.row(row);
                let extent = placement.row_extent(row);
                let mut probes = vec![-7.5, -0.5, 0.0, extent, extent + 0.5, extent + 1e3];
                for &c in cells {
                    let edge = placement.left_edge(c);
                    probes.extend([edge - 0.5, edge, edge + 0.5]);
                }
                for opt_x in probes {
                    assert_eq!(
                        first_edge_at_or_above(&placement, row, opt_x),
                        cells.partition_point(|&c| placement.left_edge(c) < opt_x),
                        "{circuit}: row {row}, opt_x {opt_x}"
                    );
                }
            }
        }
    }

    #[test]
    fn merge_accumulates() {
        let mut a = AllocationStats {
            cells_allocated: 1,
            trial_positions: 10,
            net_evaluations: 30,
        };
        a.merge(&AllocationStats {
            cells_allocated: 2,
            trial_positions: 5,
            net_evaluations: 15,
        });
        assert_eq!(a.cells_allocated, 3);
        assert_eq!(a.trial_positions, 15);
        assert_eq!(a.net_evaluations, 45);
    }
}
