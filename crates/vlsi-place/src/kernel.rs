//! Allocation-free incremental cost kernel.
//!
//! The SimE allocation operator scores thousands of trial positions per
//! iteration, and each score needs the estimated length of every net incident
//! to the moved cell. The reference implementations in [`crate::cost`] pay a
//! heap allocation per net (the pin buffer) and an `O(p log p)` sort per
//! Steiner estimate (the median pin y). This module provides the equivalent
//! hot path with zero allocations per call. Like the oracle, it prices the
//! single-trunk Steiner estimate of [`crate::wirelength`] and nothing else:
//!
//! * [`TrialScorer`] owns reusable scratch buffers and prices a net in one
//!   gather: the x extent is folded as the pins are read, the
//!   single-trunk-Steiner median row comes from a rank count (per-row
//!   counting for large nets) instead of a sort — cell y coordinates are
//!   discrete row-lattice points — and the branches are summed as an integer
//!   row count times [`ROW_HEIGHT`].
//! * [`PreparedSummaries`], its view over one ripped-up cell, scores the
//!   allocation candidates. Each candidate row's vertical term comes from
//!   order statistics of the other pins' sorted rows in `O(1)` per net
//!   ([`PreparedSummaries::prepare_row`]); the cell's median position comes
//!   from a rank count over x and per-row counting over y, without a sort.
//!   [`PreparedSummaries::monotone_branches`] bounds the x ranges on which
//!   every net's length only falls or only grows, which lets the allocation
//!   scan skip candidates without scoring them.
//!   [`TrialScorer::prepared_cost_at`] prices each net from its other pins'
//!   sorted rows directly, the independent reference the scan cross-checks
//!   against under `debug_assertions`.
//! * [`OptimumScorer`] serves the goodness pass: one gather per incident net
//!   and the same order statistics, without what only allocation needs.
//! * [`NetLengthCache`] keeps the per-net length vector of a placement alive
//!   across SimE iterations and re-evaluates only the nets with a pin whose
//!   coordinates changed since the last refresh, found through the
//!   placement's per-row mutation epochs. A net none of whose pins changed
//!   row re-prices its trunk only; after a pass that changed every row, every
//!   net is re-priced in net order instead.
//!
//! # Bitwise determinism
//!
//! These structures are drop-in replacements for the naive path at the bit
//! level: pins are visited in the same canonical order (the netlist's sorted
//! CSR `net_cells` arena), partial sums are accumulated in the same order,
//! every vertical term is an exact integer multiple of [`ROW_HEIGHT`], and
//! the counting and rank-count medians select exactly the element the
//! sort-based median picks. `tests/kernel_differential.rs` asserts `==` (not
//! approximate equality) against the [`crate::cost::CostEvaluator`] oracle
//! across random placements and mutation sequences.
//!
//! # Cache invalidation invariants
//!
//! [`NetLengthCache::refresh`] is exact as long as cell coordinates only
//! change through [`Placement`] methods (each of which bumps the epoch of
//! every row it changes):
//!
//! * cached entries are keyed on [`Placement::uid`]; evaluating a *different*
//!   placement object (including clones, which take a fresh uid) triggers a
//!   full recompute,
//! * a net is re-evaluated iff one of its pins changed `(x, row)` since the
//!   last refresh. A net's length is a pure function of its pins'
//!   coordinates, so every skipped net keeps a bit-identical length,
//! * a net's length is `trunk + vertical`, where the trunk (max x − min x)
//!   reads the pins' x and the vertical term (the Steiner branch sum) their
//!   rows only. A re-evaluated net is re-priced in full iff one of
//!   its pins' rows differs from its snapshot; otherwise only its trunk is
//!   recomputed and added to the vertical term cached at its last full
//!   re-price (every net is re-priced in full on a full refresh). Both terms
//!   are exact, so the sum equals the oracle's length bit for bit,
//! * moved pins are found by walking only the rows whose
//!   [`Placement::row_epoch`] advanced: a cell's coordinates only change
//!   through a mutation of the row it ends up in, and each visited cell is
//!   compared with the `(x bits, row)` snapshot the cache took of it at its
//!   last refresh (every cell is snapshotted on a full refresh),
//! * a cell that is ripped up (`remove_cell`) keeps its last coordinates, so
//!   nets that reference it mid-allocation evaluate exactly as the oracle
//!   does; its eventual re-insertion dirties the target row, where the walk
//!   compares it with its snapshot and restores freshness,
//! * when every row's epoch advanced, the refresh re-snapshots every cell and
//!   re-prices every net in full, in net order, exactly as a full refresh
//!   does, keeping the placement association and the full-refresh count.

use crate::cost::{CellCost, CostEvaluator};
use crate::layout::{Placement, ROW_HEIGHT};
use vlsi_netlist::{CellId, NetId, Netlist};

/// Maps a row-lattice y coordinate (`(row + 0.5) * ROW_HEIGHT`) back to its
/// row index. Exact for every row index the layout can produce, because the
/// lattice values are exact doubles.
#[inline]
fn row_of_lattice_y(y: f64) -> u32 {
    let row = (y / ROW_HEIGHT - 0.5).round();
    debug_assert!(
        ((row + 0.5) * ROW_HEIGHT - y).abs() == 0.0,
        "y = {y} is not a row-lattice coordinate"
    );
    row as u32
}

/// Precomputed summary of one net incident to a prepared cell: everything
/// about the *other* pins that trial scoring needs, so each candidate row's
/// vertical term costs `O(1)` per net instead of `O(pins)`.
///
/// The summaries rely on two exactness facts that make the reductions
/// order-independent (and therefore bit-compatible with the oracle's
/// pin-order loops): `f64::min`/`f64::max` are commutative for finite values,
/// and every vertical distance is an exact multiple of [`ROW_HEIGHT`] (cell x
/// coordinates are exact half-integers, y coordinates exact lattice points),
/// so the branch sums incur no rounding in any summation order — they equal
/// an integer row count times [`ROW_HEIGHT`].
#[derive(Debug, Clone, Copy)]
struct NetSummary {
    /// Total pin count of the net, including the prepared cell.
    total_pins: u32,
    /// Extent of the other pins' x coordinates.
    min_x: f64,
    max_x: f64,
    /// Order statistics of the other pins' sorted rows `r` behind the `O(1)`
    /// single-trunk-Steiner vertical term (see [`steiner_vertical`]), with
    /// `k = total_pins / 2` the merged median index: `lo = r[k - 1]`,
    /// `hi = r[k]` (`u32::MAX` when `k` indexes past the other pins),
    /// `s_lo = Σ |r − lo|` and `slope = 2k − others`.
    lo: u32,
    hi: u32,
    slope: u32,
    s_lo: u64,
    /// Range of the other pins' sorted rows in the scorer's `pin_rows`.
    rows_start: u32,
    rows_end: u32,
    /// Net switching probability (power weight).
    switching_prob: f64,
    /// Whether the net lies on a stored critical path.
    critical: bool,
}

/// Single-trunk-Steiner vertical term of net `s` with the prepared cell in
/// `row`, in `O(1)`. The merged median row is `m = clamp(row, lo, hi)`: the
/// extra pin shifts the other pins' order statistics by at most one place.
/// Moving the trunk from `lo` up to `m` changes the other pins' branch sum
/// by `slope` rows per row (`k` pins lie at or below `lo`, `others − k` at or
/// above `hi`), and the cell's own branch adds `|row − m|`. Every term is an
/// exact integer, so the product with [`ROW_HEIGHT`] equals the per-pin
/// branch sum of the oracle bit for bit.
#[inline]
fn steiner_vertical(s: &NetSummary, row: u32) -> f64 {
    let m = row.clamp(s.lo, s.hi);
    let rows = s.s_lo + u64::from(m - s.lo) * u64::from(s.slope) + u64::from(row.abs_diff(m));
    rows as f64 * ROW_HEIGHT
}

/// Row holding the `k`-th (0-based) smallest pin row among the ascending
/// `rows` merged with one extra pin at `extra_row`: the merged sequence is
/// the rows below `extra_row`, then the extra pin, then the rest. Equivalent
/// to sorting all pin ys ascending and taking index `k`, which is what the
/// sort-based oracle median does.
fn merged_median_row(rows: &[u32], extra_row: u32, k: usize) -> u32 {
    let below = rows.partition_point(|&r| r < extra_row);
    match k.cmp(&below) {
        std::cmp::Ordering::Less => rows[k],
        std::cmp::Ordering::Equal => extra_row,
        std::cmp::Ordering::Greater => rows[k - 1],
    }
}

/// Inputs up to this length take [`rank_select`], quadratic but branch-free
/// and short for a typical cell's few nets of few pins or a typical net's
/// few pins; longer ones a selection or counting fallback.
const RANK_COUNT_MAX: usize = 32;

/// The `k`-th smallest (0-based) of `values` by a branch-free rank count:
/// the element with `#less ≤ k < #less + #equal`. Equal values are
/// interchangeable, so this is the value `values` sorted ascending holds at
/// index `k`. Quadratic; meant for inputs up to [`RANK_COUNT_MAX`].
fn rank_select<T: Copy + PartialOrd>(values: &[T], k: usize) -> T {
    debug_assert!(k < values.len());
    for &x in values {
        let (mut less, mut equal) = (0usize, 0usize);
        for &y in values {
            less += usize::from(y < x);
            equal += usize::from(y == x);
        }
        if less <= k && k < less + equal {
            return x;
        }
    }
    unreachable!("some element has rank k < len");
}

/// The `k`-th smallest (0-based) of `xs` — the value `xs` sorted ascending
/// holds at index `k`. Pin x's are finite and never `-0.0`, so equal values
/// share bits and any element of the right rank is the sorted one. Up to
/// [`RANK_COUNT_MAX`] values [`rank_select`] finds it; longer inputs are
/// copied into `scratch` and selected with
/// `select_nth_unstable_by(f64::total_cmp)`.
fn kth_smallest(xs: &[f64], k: usize, scratch: &mut Vec<f64>) -> f64 {
    debug_assert!(k < xs.len());
    if xs.len() <= RANK_COUNT_MAX {
        return rank_select(xs, k);
    }
    scratch.clear();
    scratch.extend_from_slice(xs);
    *scratch.select_nth_unstable_by(k, f64::total_cmp).1
}

/// The `k`-th smallest (0-based) of `rows`, found by counting: rows are
/// small integers, so one pass fills per-row counts and a walk over the
/// counted span finds the row whose cumulative count first exceeds `k`.
/// `counts` is indexed by row and grown on demand; it must be all zero on
/// entry and is all zero again on return.
fn kth_smallest_row(rows: &[u32], k: usize, counts: &mut Vec<u32>) -> u32 {
    debug_assert!(k < rows.len());
    let (mut lo, mut hi) = (u32::MAX, 0u32);
    for &r in rows {
        lo = lo.min(r);
        hi = hi.max(r);
    }
    if hi as usize >= counts.len() {
        counts.resize(hi as usize + 1, 0);
    }
    for &r in rows {
        counts[r as usize] += 1;
    }
    let mut acc = 0usize;
    let mut median = hi;
    for r in lo..=hi {
        acc += counts[r as usize] as usize;
        if acc > k {
            median = r;
            break;
        }
    }
    for &r in rows {
        counts[r as usize] = 0;
    }
    median
}

/// Reusable, allocation-free scorer for net lengths and allocation trial
/// positions. One instance per worker thread; the buffers grow to the largest
/// net once and are reused for every subsequent call.
#[derive(Debug, Clone, Default)]
pub struct TrialScorer {
    /// Pin rows of the net being scored, in canonical pin order (its x
    /// extent is folded during the same gather).
    rows: Vec<u32>,
    /// Per-row pin counts of the counting median above [`RANK_COUNT_MAX`]
    /// pins; all zero between calls (see [`kth_smallest_row`]).
    row_counts: Vec<u32>,
    /// Per-incident-net summaries of the currently prepared cell.
    prepared: Vec<NetSummary>,
    /// Flat arena of every *other* pin's x coordinate gathered during the
    /// last prepare, in canonical (net, pin) walk order — one entry per
    /// incidence, duplicates included, exactly the multiset the legacy
    /// windowed-candidate gather produced.
    pin_xs: Vec<f64>,
    /// The rows of the same pins, one entry per incidence; each net's range
    /// is sorted ascending.
    pin_rows: Vec<u32>,
}

impl TrialScorer {
    /// Creates a scorer. Every evaluator prices the same single-trunk
    /// Steiner model, so the scorer reads nothing from `_evaluator` and this
    /// is [`TrialScorer::default`]. It keeps its signature because the
    /// `placebench` trial probe calls it.
    pub fn for_evaluator(_evaluator: &CostEvaluator) -> Self {
        Self::default()
    }

    /// `(length, vertical)` of `net` under `placement`: the length is
    /// bitwise identical to [`CostEvaluator::net_length`], and the vertical
    /// term depends only on the pins' rows (see [`TrialScorer::estimate`]).
    fn net_length_parts(
        &mut self,
        evaluator: &CostEvaluator,
        placement: &Placement,
        net: NetId,
    ) -> (f64, f64) {
        let cells = evaluator.net_cells(net);
        if cells.len() < 2 {
            return (0.0, 0.0);
        }
        self.rows.clear();
        let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
        for &c in cells {
            let x = placement.x_of(c);
            min_x = min_x.min(x);
            max_x = max_x.max(x);
            self.rows.push(placement.row_of(c) as u32);
        }
        self.estimate(max_x - min_x)
    }

    /// Precomputes per-net summaries of the *other* pins of every net
    /// incident to `cell` — their x extent, their sorted rows and the row
    /// order statistics — so that candidate positions are scored without
    /// re-walking the CSR. On top of what the goodness pass gathers
    /// ([`OptimumScorer`]) it records which nets lie on a critical path. The
    /// summaries stay valid while no cell other than `cell` moves — exactly
    /// the situation inside one allocation trial loop, where `cell` is ripped
    /// up and only hypothetically placed.
    pub fn prepare_cell(&mut self, evaluator: &CostEvaluator, placement: &Placement, cell: CellId) {
        self.prepared.clear();
        self.pin_xs.clear();
        self.pin_rows.clear();
        for &net in evaluator.netlist().nets_of_cell(cell) {
            let mut s = summarize_net(
                evaluator,
                placement,
                cell,
                net,
                &mut self.pin_xs,
                &mut self.pin_rows,
            );
            s.critical = evaluator.net_is_critical(net);
            self.prepared.push(s);
        }
    }

    /// Borrowed view over the summaries of the last
    /// [`TrialScorer::prepare_cell`], exposing the row-hoisted scorer, the
    /// monotone branches and the median position. Valid under the same
    /// conditions as [`TrialScorer::prepared_cost_at`].
    #[inline]
    pub fn prepared_summaries(&self) -> PreparedSummaries<'_> {
        PreparedSummaries {
            prepared: &self.prepared,
            xs: &self.pin_xs,
            rows: &self.pin_rows,
        }
    }

    /// Cost of the prepared cell's nets if the cell sat at `pos` (a
    /// row-lattice position). Requires a preceding
    /// [`TrialScorer::prepare_cell`] for this cell under the current
    /// placement; bitwise identical to [`CostEvaluator::cell_cost_at`].
    pub fn prepared_cost_at(&self, pos: (f64, f64)) -> CellCost {
        summaries_cost_at(&self.prepared, &self.pin_rows, pos)
    }

    /// `(length, vertical)` of the gathered pins, given their horizontal
    /// extent `trunk` (max x − min x) and their rows in `rows`. The vertical
    /// term is the single-trunk-Steiner branch sum, an integer row count
    /// times [`ROW_HEIGHT`] and so exact (see [`steiner_vertical`]); the
    /// trunk is an exact difference of half-integers, so `trunk + vertical`
    /// is the oracle's length bit for bit. The trunk row is the `n / 2`-th
    /// smallest row — the oracle's `sorted_ys[n / 2]` — found by a rank count
    /// up to [`RANK_COUNT_MAX`] pins and by per-row counting above it.
    fn estimate(&mut self, trunk: f64) -> (f64, f64) {
        let rows = &self.rows;
        debug_assert!(rows.len() >= 2);
        let k = rows.len() / 2;
        let median = if rows.len() <= RANK_COUNT_MAX {
            rank_select(rows, k)
        } else {
            kth_smallest_row(rows, k, &mut self.row_counts)
        };
        let vertical_rows: u64 = rows.iter().map(|&r| u64::from(r.abs_diff(median))).sum();
        let vertical = vertical_rows as f64 * ROW_HEIGHT;
        (trunk + vertical, vertical)
    }
}

/// Reusable, allocation-free scorer of the two sides of a cell's
/// wirelength and power goodness ratio — the kernel of the SimE Evaluation
/// pass. One walk per incident net gathers the other pins and sums the
/// cell's actual cost; the optimal cost is then priced at the other pins'
/// median with `O(1)` per net. Unlike [`TrialScorer::prepare_cell`] it does
/// not look up the critical flags, which only allocation reads. One instance
/// per worker thread.
#[derive(Debug, Clone, Default)]
pub struct OptimumScorer {
    prepared: Vec<NetSummary>,
    pin_xs: Vec<f64>,
    pin_rows: Vec<u32>,
    xs_scratch: Vec<f64>,
    /// All-zero between calls (see [`kth_smallest_row`]).
    row_counts: Vec<u32>,
    vertical: Vec<f64>,
}

impl OptimumScorer {
    /// `(optimal, actual)` incident-net cost of `cell`. `optimal` (`Oᵢ`) is
    /// the cost with the cell at the median of the other pins' positions —
    /// zero when it connects to no other pin — bitwise equal to
    /// [`CostEvaluator::cell_cost_at`] at the sort-based median. `actual`
    /// (`Cᵢ`) sums `net_lengths` (the per-net lengths of `placement`) over
    /// the same nets, in net order. Neither computes the critical
    /// wirelength, which goodness does not read: it is zero in both.
    pub fn optimal_and_actual(
        &mut self,
        evaluator: &CostEvaluator,
        placement: &Placement,
        cell: CellId,
        net_lengths: &[f64],
    ) -> (CellCost, CellCost) {
        self.prepared.clear();
        self.pin_xs.clear();
        self.pin_rows.clear();
        let mut actual = CellCost::default();
        for &net in evaluator.netlist().nets_of_cell(cell) {
            let s = summarize_net(
                evaluator,
                placement,
                cell,
                net,
                &mut self.pin_xs,
                &mut self.pin_rows,
            );
            let len = net_lengths[net.index()];
            actual.wirelength += len;
            actual.power += len * s.switching_prob;
            self.prepared.push(s);
        }
        let view = PreparedSummaries {
            prepared: &self.prepared,
            xs: &self.pin_xs,
            rows: &self.pin_rows,
        };
        let optimal = match view.median_x_row(&mut self.xs_scratch, &mut self.row_counts) {
            Some((x, row)) => {
                view.prepare_row(row, &mut self.vertical);
                view.cost_at_in_row(x, &self.vertical)
            }
            None => CellCost::default(),
        };
        (optimal, actual)
    }
}

/// Gathers the other pins of `net` (every pin but `cell`): appends their x
/// coordinates to `pin_xs` in canonical pin order and their rows, sorted, to
/// `pin_rows`, and returns the net's summary with `critical` false, which
/// only [`TrialScorer::prepare_cell`] sets.
fn summarize_net(
    evaluator: &CostEvaluator,
    placement: &Placement,
    cell: CellId,
    net: NetId,
    pin_xs: &mut Vec<f64>,
    pin_rows: &mut Vec<u32>,
) -> NetSummary {
    let cells = evaluator.net_cells(net);
    let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
    let rows_start = pin_rows.len();
    for &c in cells {
        if c == cell {
            continue;
        }
        let x = placement.x_of(c);
        pin_xs.push(x);
        min_x = min_x.min(x);
        max_x = max_x.max(x);
        pin_rows.push(placement.row_of(c) as u32);
    }
    let rows = &mut pin_rows[rows_start..];
    rows.sort_unstable();
    let (mut lo, mut hi, mut slope, mut s_lo) = (0u32, u32::MAX, 0u32, 0u64);
    if cells.len() >= 2 && !rows.is_empty() {
        // Net pins are distinct, so the other pins are all pins but one and
        // `1 ≤ k ≤ others`.
        debug_assert_eq!(rows.len() + 1, cells.len());
        let k = cells.len() / 2;
        lo = rows[k - 1];
        hi = rows.get(k).copied().unwrap_or(u32::MAX);
        slope = (2 * k - rows.len()) as u32;
        s_lo = rows.iter().map(|&r| u64::from(r.abs_diff(lo))).sum();
    }
    NetSummary {
        total_pins: cells.len() as u32,
        min_x,
        max_x,
        lo,
        hi,
        slope,
        s_lo,
        rows_start: rows_start as u32,
        rows_end: pin_rows.len() as u32,
        switching_prob: evaluator.netlist().net(net).switching_prob,
        critical: false,
    }
}

/// Scores one candidate position against a set of per-net summaries — the
/// body of [`TrialScorer::prepared_cost_at`].
fn summaries_cost_at(prepared: &[NetSummary], pin_rows: &[u32], pos: (f64, f64)) -> CellCost {
    let row = row_of_lattice_y(pos.1);
    let mut cost = CellCost::default();
    for s in prepared {
        if s.total_pins < 2 {
            continue;
        }
        let min_x = s.min_x.min(pos.0);
        let max_x = s.max_x.max(pos.0);
        // One branch per pin from its row to the merged median row: an
        // integer row count, so the product with ROW_HEIGHT is the oracle's
        // pin-order sum bit for bit.
        let rows = &pin_rows[s.rows_start as usize..s.rows_end as usize];
        let m = merged_median_row(rows, row, s.total_pins as usize / 2);
        let branches: u64 = rows
            .iter()
            .chain([&row])
            .map(|&r| u64::from(r.abs_diff(m)))
            .sum();
        let len = (max_x - min_x) + branches as f64 * ROW_HEIGHT;
        cost.wirelength += len;
        cost.power += len * s.switching_prob;
        if s.critical {
            cost.critical_wirelength += len;
        }
    }
    cost
}

/// Borrowed view over the per-net summaries of the cell a [`TrialScorer`]
/// last prepared: the row-hoisted exact score, the score's monotone branches
/// and the median position that the allocation operator's trial scan builds
/// on.
///
/// # Row-hoisted scoring
///
/// At a fixed candidate row each net's vertical (branch) contribution is a
/// constant — only the horizontal trunk depends on the candidate `x`.
/// [`PreparedSummaries::prepare_row`] computes those per-net constants once,
/// in `O(1)` per net from the other pins' row order statistics (with
/// `k = total_pins / 2`, the merged median is `clamp(row, r[k - 1], r[k])`
/// and the branch sum is linear in it between those two rows), bit-identical to the per-pin branch sum of the reference
/// scorer [`TrialScorer::prepared_cost_at`].
/// [`PreparedSummaries::cost_at_in_row`] then scores each candidate of the
/// row in a handful of flops, still bit-identical to the full score.
///
/// # Monotone branches
///
/// Within a row a net's length is `trunk(x) + vertical`, and
/// `trunk(x) = max(max_x, x) − min(min_x, x)` falls for `x ≤ min_x`, is flat
/// on `[min_x, max_x]` and grows for `x ≥ max_x`. With `(a, b)` from
/// [`PreparedSummaries::monotone_branches`] every net's length is therefore
/// non-increasing in `x` for `x ≤ a` and non-decreasing for `x ≥ b`, exactly
/// in computed arithmetic too (the operands are exact half-integers and
/// [`ROW_HEIGHT`] multiples). [`PreparedSummaries::cost_at_in_row`] folds the
/// lengths into a [`CellCost`] with additions and multiplications by
/// non-negative switching probabilities, in net order; IEEE-754
/// round-to-nearest is monotone in each operand, so the folded score follows
/// component-wise, and so does `CostEvaluator::allocation_score`.
#[derive(Debug, Clone, Copy)]
pub struct PreparedSummaries<'a> {
    prepared: &'a [NetSummary],
    xs: &'a [f64],
    rows: &'a [u32],
}

impl<'a> PreparedSummaries<'a> {
    /// Median position `(opt_x, opt_y)` of the other pins, bitwise identical
    /// to sorting the gathered x and y vectors and taking index `len / 2` —
    /// the optimum the windowed allocation strategy centres its window on.
    /// Returns `None` when the cell has no connected pins. Neither median
    /// sorts: x comes from a branch-free rank count (a selection above 32
    /// values), the row from per-row counting. `xs_scratch` is caller
    /// scratch (contents irrelevant); `row_counts` must be all zero and is
    /// all zero again on return.
    #[inline]
    pub fn median_position(
        &self,
        xs_scratch: &mut Vec<f64>,
        row_counts: &mut Vec<u32>,
    ) -> Option<(f64, f64)> {
        self.median_x_row(xs_scratch, row_counts)
            .map(|(x, row)| (x, (row as f64 + 0.5) * ROW_HEIGHT))
    }

    /// [`PreparedSummaries::median_position`] with the row index in place of
    /// its lattice y (the row lattice is monotone in the row index, so the
    /// `k`-th smallest row holds `sorted_ys[k]`).
    fn median_x_row(
        &self,
        xs_scratch: &mut Vec<f64>,
        row_counts: &mut Vec<u32>,
    ) -> Option<(f64, u32)> {
        if self.xs.is_empty() {
            return None;
        }
        let k = self.xs.len() / 2;
        Some((
            kth_smallest(self.xs, k, xs_scratch),
            kth_smallest_row(self.rows, k, row_counts),
        ))
    }

    /// Fills `vertical` with each prepared net's vertical (branch)
    /// contribution to the score of **any** candidate in `row` — one entry
    /// per net, in net order, with unscoreable nets as `0.0`. Each constant
    /// is `O(1)` per net (the Steiner branch sum from the other pins' order
    /// statistics) and bit-identical to the per-pin branch sum of the full score, so
    /// [`PreparedSummaries::cost_at_in_row`] over these constants reproduces
    /// [`TrialScorer::prepared_cost_at`] exactly. Compute once per
    /// contiguous same-row candidate run.
    #[inline]
    pub fn prepare_row(&self, row: u32, vertical: &mut Vec<f64>) {
        vertical.clear();
        vertical.extend(self.prepared.iter().map(|s| {
            if s.total_pins < 2 {
                0.0
            } else {
                steiner_vertical(s, row)
            }
        }));
    }

    /// Exact score of a candidate at horizontal position `x` in the row
    /// `vertical` was prepared for: per net the exact merged trunk span plus
    /// the hoisted vertical constant, folded like the full score — bitwise
    /// identical to [`TrialScorer::prepared_cost_at`] at the same position,
    /// at a fraction of the cost (no median or branch sum per candidate).
    #[inline]
    pub fn cost_at_in_row(&self, x: f64, vertical: &[f64]) -> CellCost {
        debug_assert_eq!(vertical.len(), self.prepared.len());
        let mut cost = CellCost::default();
        for (s, &v) in self.prepared.iter().zip(vertical) {
            if s.total_pins < 2 {
                continue;
            }
            let min_x = s.min_x.min(x);
            let max_x = s.max_x.max(x);
            let len = (max_x - min_x) + v;
            cost.wirelength += len;
            cost.power += len * s.switching_prob;
            if s.critical {
                cost.critical_wirelength += len;
            }
        }
        cost
    }

    /// The monotone branches `(a, b)` of the score along a row: `a` is the
    /// smallest and `b` the largest of, respectively, the other pins' `max_x`
    /// and `min_x` over the nets of at least two pins (`(inf, -inf)` when
    /// there is none). For `x ≤ a` every net's trunk is non-increasing in
    /// `x`, for `x ≥ b` non-decreasing (see the type-level docs).
    #[inline]
    pub fn monotone_branches(&self) -> (f64, f64) {
        let (mut a, mut b) = (f64::INFINITY, f64::NEG_INFINITY);
        for s in self.prepared.iter().filter(|s| s.total_pins >= 2) {
            a = a.min(s.max_x);
            b = b.max(s.min_x);
        }
        (a, b)
    }
}

/// Incremental per-net length vector for one evolving placement.
///
/// [`NetLengthCache::refresh`] returns the same vector
/// [`CostEvaluator::net_lengths`] would, but after the first (full) refresh
/// of a placement object it re-evaluates only the nets with a pin whose
/// coordinates changed. A net's length is `trunk + vertical`: the trunk is
/// its pins' horizontal extent, the vertical term (the Steiner branch sum)
/// depends on their rows alone. The cache keeps each net's
/// vertical term from its last full re-price, so a net whose moved pins all
/// stayed in their rows — the neighbours a swap or relocate slides along a
/// row — is re-priced by recomputing its trunk only. When every row changed
/// since the last refresh, as after an allocation pass over all rows, the
/// cache instead re-prices every net in net order, which is cheaper than
/// walking every row for moved pins. See the module docs for the exact
/// invalidation invariants.
#[derive(Debug, Clone, Default)]
pub struct NetLengthCache {
    lengths: Vec<f64>,
    /// Per-net vertical term of the last full re-price of the net.
    vertical: Vec<f64>,
    /// `uid` of the placement the cache is synchronised with (0 = none).
    placement_uid: u64,
    /// Per-row epochs at the last refresh.
    row_epoch_seen: Vec<u64>,
    /// Per-cell `(x bits, row)` at the last refresh that visited the cell.
    cell_seen: Vec<(u64, u32)>,
    /// Per-net visit stamp of the current delta pass (avoids re-evaluating a
    /// net with several moved pins).
    net_stamp: Vec<u32>,
    /// Per-net stamp of the last delta pass in which a pin of the net
    /// changed row: equal to `stamp` iff the net needs a full re-price.
    net_row_stamp: Vec<u32>,
    stamp: u32,
    /// Reusable dirty-net list for the monolithic [`NetLengthCache::refresh`].
    dirty_scratch: Vec<NetId>,
    full_refreshes: u64,
    delta_refreshes: u64,
    nets_recomputed: u64,
    nets_trunk_only: u64,
}

impl NetLengthCache {
    /// Creates an empty (unsynchronised) cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops the association with any placement; the next refresh recomputes
    /// every net.
    pub fn invalidate(&mut self) {
        self.placement_uid = 0;
    }

    /// The cached net lengths from the last [`NetLengthCache::refresh`].
    pub fn lengths(&self) -> &[f64] {
        &self.lengths
    }

    /// Number of full refreshes performed: the first refresh of each
    /// placement object and the first after each
    /// [`NetLengthCache::invalidate`]. The in-order re-price after every row
    /// changed also re-prices every net, but counts as a delta refresh.
    pub fn full_refreshes(&self) -> u64 {
        self.full_refreshes
    }

    /// Number of delta refreshes that re-evaluated at least one net,
    /// in-order re-prices of every net included.
    pub fn delta_refreshes(&self) -> u64 {
        self.delta_refreshes
    }

    /// Number of individual net re-evaluations performed by delta refreshes,
    /// full and trunk-only alike (`num_nets` per in-order re-price).
    pub fn nets_recomputed(&self) -> u64 {
        self.nets_recomputed
    }

    /// How many of [`NetLengthCache::nets_recomputed`] recomputed only the
    /// trunk, because none of the net's pins changed row.
    pub fn nets_trunk_only(&self) -> u64 {
        self.nets_trunk_only
    }

    /// Brings the cache in sync with `placement` and returns the per-net
    /// lengths, bitwise identical to [`CostEvaluator::net_lengths`].
    pub fn refresh(
        &mut self,
        evaluator: &CostEvaluator,
        scorer: &mut TrialScorer,
        placement: &Placement,
    ) -> &[f64] {
        let mut dirty = std::mem::take(&mut self.dirty_scratch);
        let all_in_full = self.plan_refresh(evaluator, placement, &mut dirty);
        for &net in &dirty {
            let i = net.index();
            if all_in_full || self.net_row_stamp[i] == self.stamp {
                let (length, vertical) = scorer.net_length_parts(evaluator, placement, net);
                self.lengths[i] = length;
                self.vertical[i] = vertical;
            } else {
                self.lengths[i] = net_trunk(evaluator, placement, net) + self.vertical[i];
                self.nets_trunk_only += 1;
            }
        }
        self.dirty_scratch = dirty;
        &self.lengths
    }

    /// The bookkeeping half of [`NetLengthCache::refresh`]: advances the row
    /// epochs, cell snapshots, net stamps, placement uid and work counters,
    /// and fills `dirty` with the nets whose lengths must be recomputed, each
    /// at most once. Returns whether every one of them is re-priced in full.
    ///
    /// * A new placement object (or one after [`NetLengthCache::invalidate`])
    ///   takes a full refresh: every net, re-priced in full.
    /// * When every row's epoch advanced since the last refresh — an
    ///   allocation pass over all rows does that — walking the rows would
    ///   visit every cell anyway, so the pass re-snapshots every cell and
    ///   re-prices every net in full, in net order, as a full refresh does.
    ///   It counts as a delta refresh that re-priced every net.
    /// * Otherwise the delta pass walks the rows whose epoch advanced and
    ///   lists only the nets with a pin whose coordinates changed, stamping
    ///   `net_row_stamp` of every net with a pin that changed row.
    fn plan_refresh(
        &mut self,
        evaluator: &CostEvaluator,
        placement: &Placement,
        dirty: &mut Vec<NetId>,
    ) -> bool {
        dirty.clear();
        let netlist = evaluator.netlist();
        let num_nets = netlist.num_nets();
        let num_rows = placement.num_rows();
        let full = self.placement_uid != placement.uid()
            || self.lengths.len() != num_nets
            || self.row_epoch_seen.len() != num_rows;
        let in_order =
            !full && (0..num_rows).all(|r| placement.row_epoch(r) != self.row_epoch_seen[r]);
        if full {
            self.lengths.clear();
            self.lengths.resize(num_nets, 0.0);
            self.vertical.clear();
            self.vertical.resize(num_nets, 0.0);
            dirty.extend(netlist.net_ids());
            self.snapshot(netlist, placement);
            self.reset_stamps(num_nets);
            self.stamp = 0;
            self.placement_uid = placement.uid();
            self.full_refreshes += 1;
        } else if in_order {
            dirty.extend(netlist.net_ids());
            self.snapshot(netlist, placement);
            self.delta_refreshes += 1;
            self.nets_recomputed += num_nets as u64;
        } else {
            self.stamp = self.stamp.wrapping_add(1);
            if self.stamp == 0 {
                self.reset_stamps(num_nets);
                self.stamp = 1;
            }
            for r in 0..num_rows {
                let epoch = placement.row_epoch(r);
                if epoch == self.row_epoch_seen[r] {
                    continue;
                }
                self.row_epoch_seen[r] = epoch;
                for &c in placement.row(r) {
                    let coords = pin_coords(placement, c);
                    let seen = &mut self.cell_seen[c.index()];
                    if *seen == coords {
                        continue;
                    }
                    let row_changed = seen.1 != coords.1;
                    *seen = coords;
                    for &net in netlist.nets_of_cell(c) {
                        let i = net.index();
                        if self.net_stamp[i] != self.stamp {
                            self.net_stamp[i] = self.stamp;
                            dirty.push(net);
                        }
                        if row_changed {
                            self.net_row_stamp[i] = self.stamp;
                        }
                    }
                }
            }
            if !dirty.is_empty() {
                self.delta_refreshes += 1;
            }
            self.nets_recomputed += dirty.len() as u64;
        }
        full || in_order
    }

    /// Records every row's epoch and every cell's coordinates as seen.
    fn snapshot(&mut self, netlist: &Netlist, placement: &Placement) {
        self.row_epoch_seen.clear();
        self.row_epoch_seen
            .extend((0..placement.num_rows()).map(|r| placement.row_epoch(r)));
        self.cell_seen.clear();
        self.cell_seen
            .extend(netlist.cell_ids().map(|c| pin_coords(placement, c)));
    }

    /// Zeroes both per-net stamp vectors, sized to `num_nets`.
    fn reset_stamps(&mut self, num_nets: usize) {
        for stamps in [&mut self.net_stamp, &mut self.net_row_stamp] {
            stamps.clear();
            stamps.resize(num_nets, 0);
        }
    }
}

/// Horizontal extent (max x − min x) of `net`'s pins, the trunk half of its
/// length; zero for a net of fewer than two pins, like the length itself.
fn net_trunk(evaluator: &CostEvaluator, placement: &Placement, net: NetId) -> f64 {
    let cells = evaluator.net_cells(net);
    if cells.len() < 2 {
        return 0.0;
    }
    let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
    for &c in cells {
        let x = placement.x_of(c);
        min_x = min_x.min(x);
        max_x = max_x.max(x);
    }
    max_x - min_x
}

/// The coordinates a net length reads from `cell`, in the exact form the
/// cache compares them: the x bits and the row.
#[inline]
fn pin_coords(placement: &Placement, cell: CellId) -> (u64, u32) {
    (
        placement.x_of(cell).to_bits(),
        placement.row_of(cell) as u32,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Objectives;
    use crate::layout::Slot;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::sync::Arc;
    use vlsi_netlist::generator::{CircuitGenerator, GeneratorConfig};

    fn setup() -> (CostEvaluator, Placement) {
        let nl = Arc::new(
            CircuitGenerator::new(GeneratorConfig::sized("kernel_test", 170, 29)).generate(),
        );
        let eval = CostEvaluator::new(Arc::clone(&nl), Objectives::WirelengthPowerDelay);
        let placement = Placement::round_robin(&nl, 9);
        (eval, placement)
    }

    #[test]
    fn scorer_matches_oracle_net_lengths_bitwise() {
        // The cache's full re-price: the length is the oracle's, and the
        // trunk plus the vertical term it keeps is the oracle's too, which
        // is what makes the trunk-only re-price exact.
        let (eval, placement) = setup();
        let mut scorer = TrialScorer::for_evaluator(&eval);
        for net in eval.netlist().net_ids() {
            let naive = eval.net_length(&placement, net);
            let (length, vertical) = scorer.net_length_parts(&eval, &placement, net);
            let trunk = net_trunk(&eval, &placement, net);
            assert_eq!(naive.to_bits(), length.to_bits(), "net {net}");
            assert_eq!(naive.to_bits(), (trunk + vertical).to_bits(), "net {net}");
        }
    }

    #[test]
    fn prepared_scorer_is_shareable_across_threads() {
        // A prepared scorer lives in per-rank scratch that travels between
        // pool threads; its prepared state must be readable through
        // `&TrialScorer` (Sync) and produce the same bits from every thread.
        fn assert_sync<T: Sync>() {}
        assert_sync::<TrialScorer>();

        let (eval, mut placement) = setup();
        let cell = eval
            .netlist()
            .cell_ids()
            .max_by_key(|&c| eval.netlist().nets_of_cell(c).len())
            .unwrap();
        placement.remove_cell(cell);
        let mut scorer = TrialScorer::for_evaluator(&eval);
        scorer.prepare_cell(&eval, &placement, cell);
        let positions: Vec<(f64, f64)> = (0..placement.num_rows())
            .map(|row| placement.trial_position(cell, Slot { row, index: 0 }))
            .collect();
        let serial: Vec<CellCost> = positions
            .iter()
            .map(|&p| scorer.prepared_cost_at(p))
            .collect();
        let shared = &scorer;
        let parallel: Vec<CellCost> = std::thread::scope(|scope| {
            positions
                .iter()
                .map(|&p| scope.spawn(move || shared.prepared_cost_at(p)))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.wirelength.to_bits(), b.wirelength.to_bits());
            assert_eq!(a.power.to_bits(), b.power.to_bits());
            assert_eq!(
                a.critical_wirelength.to_bits(),
                b.critical_wirelength.to_bits()
            );
        }
    }

    #[test]
    fn scorer_matches_oracle_trial_scores_bitwise() {
        // The scorer allocation runs per slot: the row's hoisted vertical
        // terms plus the slot's trunk.
        let (eval, mut placement) = setup();
        let mut scorer = TrialScorer::for_evaluator(&eval);
        let mut vertical = Vec::new();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..50 {
            let cell = vlsi_netlist::CellId(rng.gen_range(0..eval.netlist().num_cells() as u32));
            let row = rng.gen_range(0..placement.num_rows());
            let index = rng.gen_range(0..placement.row(row).len() + 1);
            placement.remove_cell(cell);
            let pos = placement.trial_position(cell, Slot { row, index });
            let naive = eval.cell_cost_at(&placement, cell, pos);
            scorer.prepare_cell(&eval, &placement, cell);
            let view = scorer.prepared_summaries();
            view.prepare_row(row as u32, &mut vertical);
            let fast = view.cost_at_in_row(pos.0, &vertical);
            assert_eq!(naive.wirelength.to_bits(), fast.wirelength.to_bits());
            assert_eq!(naive.power.to_bits(), fast.power.to_bits());
            assert_eq!(
                naive.critical_wirelength.to_bits(),
                fast.critical_wirelength.to_bits()
            );
            placement.insert_cell(cell, Slot { row, index });
        }
    }

    #[test]
    fn prepared_scoring_matches_oracle_bitwise() {
        let (eval, mut placement) = setup();
        let mut scorer = TrialScorer::for_evaluator(&eval);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for _ in 0..40 {
            let cell = vlsi_netlist::CellId(rng.gen_range(0..eval.netlist().num_cells() as u32));
            placement.remove_cell(cell);
            scorer.prepare_cell(&eval, &placement, cell);
            let back = placement.num_rows() - 1;
            for _ in 0..8 {
                let row = rng.gen_range(0..placement.num_rows());
                let index = rng.gen_range(0..placement.row(row).len() + 1);
                let pos = placement.trial_position(cell, Slot { row, index });
                let naive = eval.cell_cost_at(&placement, cell, pos);
                let fast = scorer.prepared_cost_at(pos);
                assert_eq!(naive.wirelength.to_bits(), fast.wirelength.to_bits());
                assert_eq!(naive.power.to_bits(), fast.power.to_bits());
                assert_eq!(
                    naive.critical_wirelength.to_bits(),
                    fast.critical_wirelength.to_bits()
                );
            }
            placement.insert_cell(
                cell,
                Slot {
                    row: back,
                    index: 0,
                },
            );
        }
    }

    #[test]
    fn cache_delta_refresh_matches_full_recompute() {
        let (eval, mut placement) = setup();
        let mut scorer = TrialScorer::for_evaluator(&eval);
        let mut cache = NetLengthCache::new();
        cache.refresh(&eval, &mut scorer, &placement);
        assert_eq!(cache.full_refreshes(), 1);

        let mut rng = ChaCha8Rng::seed_from_u64(9);
        for round in 0..20 {
            let cell = vlsi_netlist::CellId(rng.gen_range(0..eval.netlist().num_cells() as u32));
            let row = rng.gen_range(0..placement.num_rows());
            let index = rng.gen_range(0..placement.row(row).len() + 1);
            placement.move_cell(cell, Slot { row, index });
            let cached = cache.refresh(&eval, &mut scorer, &placement).to_vec();
            let oracle = eval.net_lengths(&placement);
            for (n, (a, b)) in cached.iter().zip(oracle.iter()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "round {round} net {n}");
            }
        }
        assert_eq!(
            cache.full_refreshes(),
            1,
            "mutations must take the delta path"
        );
        assert!(cache.delta_refreshes() > 0);
    }

    #[test]
    fn cache_fully_recomputes_for_clones() {
        let (eval, placement) = setup();
        let mut scorer = TrialScorer::for_evaluator(&eval);
        let mut cache = NetLengthCache::new();
        cache.refresh(&eval, &mut scorer, &placement);
        let clone = placement.clone();
        assert_ne!(placement.uid(), clone.uid());
        cache.refresh(&eval, &mut scorer, &clone);
        assert_eq!(cache.full_refreshes(), 2);
    }

    #[test]
    fn unchanged_placement_refreshes_for_free() {
        let (eval, placement) = setup();
        let mut scorer = TrialScorer::for_evaluator(&eval);
        let mut cache = NetLengthCache::new();
        cache.refresh(&eval, &mut scorer, &placement);
        let before = cache.nets_recomputed();
        cache.refresh(&eval, &mut scorer, &placement);
        assert_eq!(cache.nets_recomputed(), before);
        assert_eq!(cache.full_refreshes(), 1);
    }

    /// Every cell's `(x bits, row)`, the coordinates a net length reads.
    fn coordinate_snapshot(placement: &Placement) -> Vec<(u64, usize)> {
        (0..placement.num_cells())
            .map(|i| {
                let c = CellId::from(i);
                (placement.x_of(c).to_bits(), placement.row_of(c))
            })
            .collect()
    }

    #[test]
    fn undone_move_reprices_nothing() {
        // A move and its undo advance the epochs of the rows they touch but
        // leave every pin where it was, so the next refresh has nothing to
        // re-price.
        let (eval, mut placement) = setup();
        let mut scorer = TrialScorer::for_evaluator(&eval);
        let mut cache = NetLengthCache::new();
        cache.refresh(&eval, &mut scorer, &placement);
        let before = cache.nets_recomputed();
        let (a, b) = (CellId(3), CellId(150));
        assert_ne!(placement.row_of(a), placement.row_of(b));
        placement.swap_cells(a, b);
        placement.swap_cells(a, b);
        let back = placement.slot_of(a);
        placement.move_cell(a, Slot { row: 0, index: 2 });
        placement.move_cell(a, back);
        let cached = cache.refresh(&eval, &mut scorer, &placement).to_vec();
        assert_eq!(cache.nets_recomputed(), before);
        assert_eq!(cache.full_refreshes(), 1);
        for (a, b) in cached.iter().zip(&eval.net_lengths(&placement)) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn delta_refresh_reprices_exactly_the_nets_with_a_moved_pin() {
        use vlsi_netlist::generator::MixedSizeSpec;
        let plain = GeneratorConfig::sized("kernel_delta", 170, 29);
        let blocked =
            GeneratorConfig::sized("kernel_delta_blocked", 200, 31).with_mixed(MixedSizeSpec {
                num_macros: 3,
                macro_height: 3,
                pad_ring: true,
            });
        for cfg in [plain, blocked] {
            let nl = Arc::new(CircuitGenerator::new(cfg).generate());
            let eval = CostEvaluator::new(Arc::clone(&nl), Objectives::WirelengthPowerDelay);
            let mut placement = Placement::round_robin(&nl, 9);
            let has_spans = (0..9).any(|r| !placement.blocked_spans(r).is_empty());
            assert_eq!(has_spans, nl.has_fixed_cells());
            let movable: Vec<CellId> = nl.cell_ids().filter(|&c| !placement.is_fixed(c)).collect();
            let mut scorer = TrialScorer::for_evaluator(&eval);
            let mut cache = NetLengthCache::new();
            cache.refresh(&eval, &mut scorer, &placement);
            let mut rng = ChaCha8Rng::seed_from_u64(17);
            for round in 0..60 {
                let old = coordinate_snapshot(&placement);
                for _ in 0..rng.gen_range(1..4) {
                    let a = movable[rng.gen_range(0..movable.len())];
                    if rng.gen_bool(0.5) {
                        let b = movable[rng.gen_range(0..movable.len())];
                        placement.swap_cells(a, b);
                    } else {
                        let row = rng.gen_range(0..placement.num_rows());
                        let index = rng.gen_range(0..placement.slots_in_row(row));
                        placement.move_cell(a, Slot { row, index });
                    }
                }
                let new = coordinate_snapshot(&placement);
                let count = |changed: &dyn Fn(usize) -> bool| {
                    nl.net_ids()
                        .filter(|&net| eval.net_cells(net).iter().any(|c| changed(c.index())))
                        .count() as u64
                };
                let moved = count(&|i| old[i] != new[i]);
                let rerouted = count(&|i| old[i].1 != new[i].1);
                let before = (cache.nets_recomputed(), cache.nets_trunk_only());
                let cached = cache.refresh(&eval, &mut scorer, &placement).to_vec();
                assert_eq!(cache.nets_recomputed() - before.0, moved, "round {round}");
                assert_eq!(
                    cache.nets_trunk_only() - before.1,
                    moved - rerouted,
                    "round {round}: trunk-only iff no pin changed row"
                );
                for (n, (a, b)) in cached.iter().zip(&eval.net_lengths(&placement)).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "round {round} net {n}");
                }
            }
            assert_eq!(cache.full_refreshes(), 1);
        }
    }

    #[test]
    fn stamp_wrap_around_keeps_the_next_delta_refresh_exact() {
        let (eval, mut placement) = setup();
        let mut scorer = TrialScorer::for_evaluator(&eval);
        let mut cache = NetLengthCache::new();
        cache.refresh(&eval, &mut scorer, &placement);
        // Markers left by earlier passes: every net looks visited and
        // re-routed at stamp 1, and the next pass wraps the stamp round.
        cache.net_stamp.fill(1);
        cache.net_row_stamp.fill(1);
        cache.stamp = u32::MAX;
        // A swap inside one row moves pins along the row only, so every
        // net it dirties is a trunk-only re-price — unless a stale
        // "re-routed" marker survived the wrap.
        let row = placement.row(0);
        let (a, b) = (row[0], row[row.len() - 1]);
        placement.swap_cells(a, b);
        let cached = cache.refresh(&eval, &mut scorer, &placement).to_vec();
        assert_eq!(cache.stamp, 1);
        assert!(
            cache.nets_recomputed() > 0,
            "stale visit stamps hid dirty nets"
        );
        assert_eq!(cache.nets_trunk_only(), cache.nets_recomputed());
        for (n, (a, b)) in cached.iter().zip(&eval.net_lengths(&placement)).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "net {n}");
        }
    }

    #[test]
    fn prepared_branches_are_monotone_and_median_matches_sort() {
        // The §3a search invariant: along every slot of a row, the reference
        // score never rises while x ≤ a and never falls once x ≥ b,
        // component-wise, and the summary-derived median position is
        // bit-identical to the sort-based gather it replaces.
        let (eval, mut placement) = setup();
        let mut scorer = TrialScorer::for_evaluator(&eval);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut xs_scratch = Vec::new();
        let mut row_counts = Vec::new();
        for _ in 0..40 {
            let cell = vlsi_netlist::CellId(rng.gen_range(0..eval.netlist().num_cells() as u32));
            placement.remove_cell(cell);
            scorer.prepare_cell(&eval, &placement, cell);
            let view = scorer.prepared_summaries();

            let mut gx = Vec::new();
            let mut gy = Vec::new();
            for &net in eval.netlist().nets_of_cell(cell) {
                for &other in eval.net_cells(net) {
                    if other == cell {
                        continue;
                    }
                    let (x, y) = placement.position(other);
                    gx.push(x);
                    gy.push(y);
                }
            }
            match view.median_position(&mut xs_scratch, &mut row_counts) {
                Some((opt_x, opt_y)) => {
                    gx.sort_by(|a, b| a.partial_cmp(b).unwrap());
                    gy.sort_by(|a, b| a.partial_cmp(b).unwrap());
                    assert_eq!(opt_x.to_bits(), gx[gx.len() / 2].to_bits());
                    assert_eq!(opt_y.to_bits(), gy[gy.len() / 2].to_bits());
                }
                None => assert!(gx.is_empty()),
            }

            let le = |a: &CellCost, b: &CellCost| {
                a.wirelength <= b.wirelength
                    && a.power <= b.power
                    && a.critical_wirelength <= b.critical_wirelength
            };
            let (a, b) = view.monotone_branches();
            for row in 0..placement.num_rows() {
                let positions: Vec<(f64, f64)> = (0..placement.slots_in_row(row))
                    .map(|index| placement.trial_position(cell, Slot { row, index }))
                    .collect();
                for pair in positions.windows(2) {
                    let (p, q) = (pair[0], pair[1]);
                    assert!(p.0 <= q.0, "slots ascend in x");
                    let (cp, cq) = (scorer.prepared_cost_at(p), scorer.prepared_cost_at(q));
                    if q.0 <= a {
                        assert!(le(&cq, &cp), "score rose at x {} ≤ a {a}", q.0);
                    }
                    if p.0 >= b {
                        assert!(le(&cp, &cq), "score fell at x {} ≥ b {b}", p.0);
                    }
                }
            }
            placement.insert_cell(
                cell,
                Slot {
                    row: placement.num_rows() - 1,
                    index: 0,
                },
            );
        }
    }

    #[test]
    fn order_statistics_match_sort_at_every_rank() {
        // Every length from 1 to 80 (both sides of the rank-count /
        // selection split at RANK_COUNT_MAX), values drawn from a few
        // distinct half-integers so ties are heavy, every k.
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let mut scratch = Vec::new();
        let mut counts = Vec::new();
        for len in 1..=80usize {
            for distinct in [1u32, 3, 9, 200] {
                let rows: Vec<u32> = (0..len).map(|_| rng.gen_range(0..distinct) * 3).collect();
                let xs: Vec<f64> = rows.iter().map(|&r| r as f64 * 2.5 + 0.5).collect();
                let mut sorted_rows = rows.clone();
                sorted_rows.sort_unstable();
                let mut sorted_xs = xs.clone();
                sorted_xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
                for k in 0..len {
                    assert_eq!(
                        kth_smallest(&xs, k, &mut scratch).to_bits(),
                        sorted_xs[k].to_bits(),
                        "len {len}, distinct {distinct}, k {k}"
                    );
                    assert_eq!(
                        kth_smallest_row(&rows, k, &mut counts),
                        sorted_rows[k],
                        "len {len}, distinct {distinct}, k {k}"
                    );
                    assert!(counts.iter().all(|&c| c == 0), "row counts left dirty");
                }
            }
        }
    }

    #[test]
    fn median_position_matches_sort_past_the_rank_count_limit() {
        // A cell with more other pins than the rank count handles takes the
        // selection fallback for x; its median must still be the sort's.
        let nl = Arc::new(
            CircuitGenerator::new(GeneratorConfig::sized("kernel_wide", 600, 5)).generate(),
        );
        let eval = CostEvaluator::new(Arc::clone(&nl), Objectives::WirelengthPower);
        let mut placement = Placement::random(&nl, 12, &mut ChaCha8Rng::seed_from_u64(5));
        let others = |c: CellId| -> usize {
            nl.nets_of_cell(c)
                .iter()
                .map(|&n| eval.net_cells(n).len() - 1)
                .sum()
        };
        let cell = nl.cell_ids().max_by_key(|&c| others(c)).unwrap();
        assert!(others(cell) > RANK_COUNT_MAX, "{} other pins", others(cell));
        placement.remove_cell(cell);
        let mut scorer = TrialScorer::for_evaluator(&eval);
        scorer.prepare_cell(&eval, &placement, cell);
        let (mut gx, mut gy) = (Vec::new(), Vec::new());
        for &net in nl.nets_of_cell(cell) {
            for &other in eval.net_cells(net).iter().filter(|&&c| c != cell) {
                let (x, y) = placement.position(other);
                gx.push(x);
                gy.push(y);
            }
        }
        gx.sort_by(|a, b| a.partial_cmp(b).unwrap());
        gy.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut counts = Vec::new();
        let (opt_x, opt_y) = scorer
            .prepared_summaries()
            .median_position(&mut Vec::new(), &mut counts)
            .unwrap();
        assert_eq!(opt_x.to_bits(), gx[gx.len() / 2].to_bits());
        assert_eq!(opt_y.to_bits(), gy[gy.len() / 2].to_bits());
        assert!(counts.iter().all(|&c| c == 0), "row counts left dirty");
    }

    #[test]
    fn net_summary_fits_one_cache_line() {
        assert_eq!(std::mem::size_of::<NetSummary>(), 64);
    }

    #[test]
    fn row_lattice_roundtrip_is_exact() {
        for row in 0u32..4096 {
            let y = (row as f64 + 0.5) * ROW_HEIGHT;
            assert_eq!(row_of_lattice_y(y), row);
        }
    }
}
