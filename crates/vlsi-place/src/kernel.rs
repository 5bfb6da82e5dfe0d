//! Allocation-free incremental cost kernel.
//!
//! The SimE allocation operator scores thousands of trial positions per
//! iteration, and each score needs the estimated length of every net incident
//! to the moved cell. The reference implementations in [`crate::cost`] pay a
//! heap allocation per net (the pin buffer) and an `O(p log p)` sort per
//! Steiner estimate (the median pin y). This module provides the equivalent
//! hot path with zero allocations per call:
//!
//! * [`TrialScorer`] owns reusable scratch buffers and computes the
//!   single-trunk-Steiner median by *per-row counting* — cell y coordinates
//!   are discrete multiples of [`ROW_HEIGHT`], so a counting pass over the
//!   pin rows finds the median without sorting.
//! * [`PreparedSummaries`], its view over one ripped-up cell, scores the
//!   allocation candidates. Each candidate row's vertical term comes from
//!   order statistics of the other pins' sorted rows in `O(1)` per net
//!   ([`PreparedSummaries::prepare_row`]); the cell's median position comes
//!   from a rank count over x and per-row counting over y, without a sort.
//!   [`TrialScorer::prepared_cost_at`] keeps the `O(distinct rows)` histogram
//!   walk as the independent reference the pruned scan cross-checks against
//!   under `debug_assertions`.
//! * [`OptimumScorer`] serves the goodness pass: one gather per incident net
//!   and the same order statistics, without what only allocation needs.
//! * [`NetLengthCache`] keeps the per-net length vector of a placement alive
//!   across SimE iterations and re-evaluates only the nets with a pin whose
//!   coordinates changed since the last refresh, found through the
//!   placement's per-row mutation epochs.
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
//! * moved pins are found by walking only the rows whose
//!   [`Placement::row_epoch`] advanced: a cell's coordinates only change
//!   through a mutation of the row it ends up in, and each visited cell is
//!   compared with the `(x bits, row)` snapshot the cache took of it at its
//!   last refresh (every cell is snapshotted on a full refresh),
//! * a cell that is ripped up (`remove_cell`) keeps its last coordinates, so
//!   nets that reference it mid-allocation evaluate exactly as the oracle
//!   does; its eventual re-insertion dirties the target row, where the walk
//!   compares it with its snapshot and restores freshness.

use crate::cost::{CellCost, CostEvaluator};
use crate::layout::{Placement, ROW_HEIGHT};
use crate::wirelength::WirelengthModel;
use vlsi_netlist::{CellId, NetId};

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
    /// Extent of the other pins' rows.
    min_row: u32,
    max_row: u32,
    /// Order statistics of the other pins' sorted rows `r` behind the `O(1)`
    /// single-trunk-Steiner vertical term (see [`steiner_vertical`]), with
    /// `k = total_pins / 2` the merged median index: `lo = r[k - 1]`,
    /// `hi = r[k]` (`u32::MAX` when `k` indexes past the other pins),
    /// `s_lo = Σ |r − lo|` and `slope = 2k − others`.
    lo: u32,
    hi: u32,
    slope: u32,
    s_lo: u64,
    /// Range of this net's `(row, count)` histogram in the scorer's arena
    /// (empty in the goodness pass, which never walks it).
    hist_start: u32,
    hist_end: u32,
    /// Net switching probability (power weight).
    switching_prob: f64,
    /// Whether the net lies on a stored critical path.
    critical: bool,
    /// Minimum vertical contribution of this net over every candidate row
    /// inside the other pins' row extent, under the prepare-time wirelength
    /// model. For half-perimeter this is `(max_row - min_row) * ROW_HEIGHT`
    /// (exact); for single-trunk Steiner it is the other pins' branch sum at
    /// their own upper median, which lower-bounds the merged branch sum for
    /// *any* trunk row the full score can pick. Exact multiple of
    /// [`ROW_HEIGHT`]. Candidate rows outside the extent additionally pay a
    /// `gap * ROW_HEIGHT` term (see [`PreparedSummaries::bound_floor`]).
    min_branch: f64,
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

/// Row holding the `k`-th (0-based) smallest pin y among a sorted-by-row
/// `(row, count)` histogram merged with one extra pin at `extra_row`.
/// Equivalent to sorting all pin ys ascending and taking index `k`, which is
/// what the sort-based oracle median does.
///
/// The walk is split in three phases around the merge point of the extra pin
/// (entries strictly below it, the merge point itself, the rest), so the two
/// hot loops carry no per-entry "is the extra pin still pending" branch —
/// this is the counting-median inner loop of every Steiner trial score.
fn merged_median_row(hist: &[(u32, u32)], extra_row: u32, k: usize) -> u32 {
    let mut acc = 0usize;
    let mut i = 0usize;
    // Phase 1: histogram entries strictly below the extra pin's row.
    while i < hist.len() && hist[i].0 < extra_row {
        acc += hist[i].1 as usize;
        if acc > k {
            return hist[i].0;
        }
        i += 1;
    }
    // Merge point: the extra pin joins the walk here. When it shares a row
    // with the next entry the answer for both is that same row, so checking
    // after each addition preserves the merged order exactly.
    acc += 1;
    if acc > k {
        return extra_row;
    }
    if i < hist.len() && hist[i].0 == extra_row {
        acc += hist[i].1 as usize;
        if acc > k {
            return extra_row;
        }
        i += 1;
    }
    // Phase 3: the remaining entries, all above the extra pin.
    while i < hist.len() {
        acc += hist[i].1 as usize;
        if acc > k {
            return hist[i].0;
        }
        i += 1;
    }
    // Only reachable when k indexes past the merged multiset, which the
    // scorer never produces (k = total_pins / 2 < total_pins).
    if cfg!(debug_assertions) {
        unreachable!("k must index into the merged pin multiset");
    }
    extra_row
}

/// Inputs up to this length take [`kth_smallest`]'s rank count, quadratic
/// but branch-free and short for a typical cell's few nets of few pins;
/// longer ones its selection fallback.
const RANK_COUNT_MAX: usize = 32;

/// The `k`-th smallest (0-based) of `xs` — the value `xs` sorted ascending
/// holds at index `k`. Pin x's are finite and never `-0.0`, so equal values
/// share bits and any element of the right rank is the sorted one. Up to
/// [`RANK_COUNT_MAX`] values a branch-free rank count finds the element with
/// `#less ≤ k < #less + #equal`; longer inputs are copied into `scratch`
/// and selected with `select_nth_unstable_by(f64::total_cmp)`.
fn kth_smallest(xs: &[f64], k: usize, scratch: &mut Vec<f64>) -> f64 {
    debug_assert!(k < xs.len());
    if xs.len() <= RANK_COUNT_MAX {
        for &x in xs {
            let (mut less, mut equal) = (0usize, 0usize);
            for &y in xs {
                less += usize::from(y < x);
                equal += usize::from(y == x);
            }
            if less <= k && k < less + equal {
                return x;
            }
        }
        unreachable!("some element has rank k < len");
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
#[derive(Debug, Clone)]
pub struct TrialScorer {
    model: WirelengthModel,
    /// Pin x coordinates of the net being scored, in canonical pin order.
    xs: Vec<f64>,
    /// Pin row indices, parallel to `xs`.
    rows: Vec<u32>,
    /// Per-row pin counts used by the counting median; indexed by row,
    /// grown on demand, cleared after every estimate.
    row_counts: Vec<u32>,
    /// Per-incident-net summaries of the currently prepared cell.
    prepared: Vec<NetSummary>,
    /// Flat `(row, count)` histogram arena for the prepared summaries,
    /// sorted by row within each net's range.
    hist: Vec<(u32, u32)>,
    /// Flat arena of every *other* pin's x coordinate gathered during the
    /// last prepare, in canonical (net, pin) walk order — one entry per
    /// incidence, duplicates included, exactly the multiset the legacy
    /// windowed-candidate gather produced.
    pin_xs: Vec<f64>,
    /// The rows of the same pins, one entry per incidence; each net's range
    /// is sorted ascending (the histogram is its run-length encoding).
    pin_rows: Vec<u32>,
}

impl TrialScorer {
    /// Creates a scorer for the given wirelength model.
    pub fn new(model: WirelengthModel) -> Self {
        TrialScorer {
            model,
            xs: Vec::with_capacity(16),
            rows: Vec::with_capacity(16),
            row_counts: Vec::new(),
            prepared: Vec::new(),
            hist: Vec::new(),
            pin_xs: Vec::new(),
            pin_rows: Vec::new(),
        }
    }

    /// Creates a scorer matching an evaluator's wirelength model.
    pub fn for_evaluator(evaluator: &CostEvaluator) -> Self {
        Self::new(evaluator.wirelength_model())
    }

    /// The wirelength model this scorer computes.
    pub fn model(&self) -> WirelengthModel {
        self.model
    }

    /// Estimated length of `net` under `placement`. Bitwise identical to
    /// [`CostEvaluator::net_length`], without the per-call allocation/sort.
    pub fn net_length(
        &mut self,
        evaluator: &CostEvaluator,
        placement: &Placement,
        net: NetId,
    ) -> f64 {
        let cells = evaluator.net_cells(net);
        if cells.len() < 2 {
            return 0.0;
        }
        self.xs.clear();
        self.rows.clear();
        for &c in cells {
            self.xs.push(placement.x_of(c));
            self.rows.push(placement.row_of(c) as u32);
        }
        self.estimate()
    }

    /// Estimated length of `net` with the position of `cell` overridden to
    /// `pos` (a row-lattice position, as produced by
    /// [`Placement::trial_position`]). Bitwise identical to
    /// [`CostEvaluator::net_length_with_override`].
    pub fn net_length_with_override(
        &mut self,
        evaluator: &CostEvaluator,
        placement: &Placement,
        net: NetId,
        cell: CellId,
        pos: (f64, f64),
    ) -> f64 {
        let cells = evaluator.net_cells(net);
        if cells.len() < 2 {
            return 0.0;
        }
        let override_row = row_of_lattice_y(pos.1);
        self.xs.clear();
        self.rows.clear();
        for &c in cells {
            if c == cell {
                self.xs.push(pos.0);
                self.rows.push(override_row);
            } else {
                self.xs.push(placement.x_of(c));
                self.rows.push(placement.row_of(c) as u32);
            }
        }
        self.estimate()
    }

    /// Cost of the nets incident to `cell` if it sat at `pos`. Bitwise
    /// identical to [`CostEvaluator::cell_cost_at`]; this is the inner loop
    /// of allocation trial scoring.
    pub fn cell_cost_at(
        &mut self,
        evaluator: &CostEvaluator,
        placement: &Placement,
        cell: CellId,
        pos: (f64, f64),
    ) -> CellCost {
        let netlist = evaluator.netlist();
        let mut cost = CellCost::default();
        for &net in netlist.nets_of_cell(cell) {
            let len = self.net_length_with_override(evaluator, placement, net, cell, pos);
            cost.wirelength += len;
            cost.power += len * netlist.net(net).switching_prob;
            if evaluator.net_is_critical(net) {
                cost.critical_wirelength += len;
            }
        }
        cost
    }

    /// Precomputes per-net summaries of the *other* pins of every net
    /// incident to `cell`, so that subsequent
    /// [`TrialScorer::prepared_cost_at`] calls score a candidate position in
    /// `O(distinct rows)` per net instead of re-walking every pin. The
    /// summaries stay valid while no cell other than `cell` moves — exactly
    /// the situation inside one allocation trial loop, where `cell` is ripped
    /// up and only hypothetically placed.
    pub fn prepare_cell(&mut self, evaluator: &CostEvaluator, placement: &Placement, cell: CellId) {
        build_cell_summaries(
            evaluator,
            placement,
            cell,
            self.model,
            &mut self.prepared,
            &mut self.hist,
            &mut self.pin_xs,
            &mut self.pin_rows,
        );
    }

    /// Borrowed view over the summaries of the last
    /// [`TrialScorer::prepare_cell`], exposing the candidate lower-bound and
    /// median-position machinery. Valid under the same conditions as
    /// [`TrialScorer::prepared_cost_at`].
    pub fn prepared_summaries(&self) -> PreparedSummaries<'_> {
        PreparedSummaries {
            model: self.model,
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
        summaries_cost_at(&self.prepared, &self.hist, self.model, pos)
    }

    /// Estimates the gathered pins (`xs`/`rows`) under the scorer's model.
    fn estimate(&mut self) -> f64 {
        let n = self.xs.len();
        if n < 2 {
            return 0.0;
        }
        let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
        for &x in &self.xs {
            min_x = min_x.min(x);
            max_x = max_x.max(x);
        }
        let (mut min_row, mut max_row) = (u32::MAX, 0u32);
        for &r in &self.rows {
            min_row = min_row.min(r);
            max_row = max_row.max(r);
        }
        match self.model {
            WirelengthModel::HalfPerimeter => {
                let min_y = (min_row as f64 + 0.5) * ROW_HEIGHT;
                let max_y = (max_row as f64 + 0.5) * ROW_HEIGHT;
                (max_x - min_x) + (max_y - min_y)
            }
            WirelengthModel::SingleTrunkSteiner => {
                // Counting median over the discrete rows: the sort-based
                // oracle picks sorted_ys[n / 2], i.e. the (n/2)-th smallest
                // (0-based); the first row whose cumulative count exceeds
                // n / 2 holds exactly that element.
                if max_row as usize >= self.row_counts.len() {
                    self.row_counts.resize(max_row as usize + 1, 0);
                }
                for &r in &self.rows {
                    self.row_counts[r as usize] += 1;
                }
                let k = n / 2;
                let mut acc = 0usize;
                let mut median_row = max_row;
                for r in min_row..=max_row {
                    acc += self.row_counts[r as usize] as usize;
                    if acc > k {
                        median_row = r;
                        break;
                    }
                }
                for r in min_row..=max_row {
                    self.row_counts[r as usize] = 0;
                }
                let trunk_y = (median_row as f64 + 0.5) * ROW_HEIGHT;
                let trunk = max_x - min_x;
                let mut branches = 0.0f64;
                for &r in &self.rows {
                    branches += ((r as f64 + 0.5) * ROW_HEIGHT - trunk_y).abs();
                }
                trunk + branches
            }
        }
    }
}

/// Reusable, allocation-free scorer of the two sides of a cell's
/// wirelength and power goodness ratio — the kernel of the SimE Evaluation
/// pass. One walk per incident net gathers the other pins and sums the
/// cell's actual cost; the optimal cost is then priced at the other pins'
/// median with `O(1)` per net. Unlike [`TrialScorer::prepare_cell`] it builds
/// none of what only allocation needs (row histograms, `min_branch`,
/// critical flags). One instance per worker thread.
#[derive(Debug, Clone)]
pub struct OptimumScorer {
    model: WirelengthModel,
    prepared: Vec<NetSummary>,
    pin_xs: Vec<f64>,
    pin_rows: Vec<u32>,
    xs_scratch: Vec<f64>,
    /// All-zero between calls (see [`kth_smallest_row`]).
    row_counts: Vec<u32>,
    vertical: Vec<f64>,
}

impl OptimumScorer {
    /// Creates a scorer matching an evaluator's wirelength model.
    pub fn for_evaluator(evaluator: &CostEvaluator) -> Self {
        OptimumScorer {
            model: evaluator.wirelength_model(),
            prepared: Vec::new(),
            pin_xs: Vec::new(),
            pin_rows: Vec::new(),
            xs_scratch: Vec::new(),
            row_counts: Vec::new(),
            vertical: Vec::new(),
        }
    }

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
            model: self.model,
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
/// `pin_rows`, and returns the net's summary without the allocation-only
/// parts (an empty histogram range, `min_branch` 0, `critical` false), which
/// [`build_cell_summaries`] adds.
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
    let (min_row, max_row) = match (rows.first(), rows.last()) {
        (Some(&lo), Some(&hi)) => (lo, hi),
        _ => (u32::MAX, 0u32),
    };
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
        min_row,
        max_row,
        lo,
        hi,
        slope,
        s_lo,
        hist_start: 0,
        hist_end: 0,
        switching_prob: evaluator.netlist().net(net).switching_prob,
        critical: false,
        min_branch: 0.0,
    }
}

/// Builds the per-net summaries of `cell`'s incident nets into
/// `prepared`/`hist`. The body of [`TrialScorer::prepare_cell`]; a pure
/// function of the *other* pins' positions.
///
/// Also fills `pin_xs` with every other pin's x coordinate in canonical
/// walk order (the legacy windowed-candidate gather multiset) and `pin_rows`
/// with their rows, sorted within each net. On top of [`summarize_net`] it
/// adds the allocation-only parts: each net's `(row, count)` histogram (the
/// run-length encoding of its sorted rows, walked only by the reference
/// scorer [`TrialScorer::prepared_cost_at`]), `min_branch` and the critical
/// flag.
#[allow(clippy::too_many_arguments)]
fn build_cell_summaries(
    evaluator: &CostEvaluator,
    placement: &Placement,
    cell: CellId,
    model: WirelengthModel,
    prepared: &mut Vec<NetSummary>,
    hist: &mut Vec<(u32, u32)>,
    pin_xs: &mut Vec<f64>,
    pin_rows: &mut Vec<u32>,
) {
    prepared.clear();
    hist.clear();
    pin_xs.clear();
    pin_rows.clear();
    for &net in evaluator.netlist().nets_of_cell(cell) {
        let rows_start = pin_rows.len();
        let mut s = summarize_net(evaluator, placement, cell, net, pin_xs, pin_rows);
        let rows = &pin_rows[rows_start..];
        s.hist_start = hist.len() as u32;
        for &r in rows {
            match hist[s.hist_start as usize..].last_mut() {
                Some((last, count)) if *last == r => *count += 1,
                _ => hist.push((r, 1)),
            }
        }
        s.hist_end = hist.len() as u32;
        s.critical = evaluator.net_is_critical(net);
        if s.total_pins >= 2 && !rows.is_empty() {
            s.min_branch = match model {
                WirelengthModel::HalfPerimeter => (s.max_row - s.min_row) as f64 * ROW_HEIGHT,
                WirelengthModel::SingleTrunkSteiner => {
                    // Branch sum of the other pins at their own upper median
                    // m* = r[others / 2]: any trunk row m the merged median
                    // can pick satisfies Σ|r_p − m| ≥ Σ|r_p − m*| because a
                    // median minimises the sum of absolute deviations.
                    let m = rows[rows.len() / 2];
                    let sum: u64 = rows.iter().map(|&r| u64::from(r.abs_diff(m))).sum();
                    sum as f64 * ROW_HEIGHT
                }
            };
        }
        prepared.push(s);
    }
}

/// Scores one candidate position against a set of per-net summaries — the
/// body of [`TrialScorer::prepared_cost_at`].
fn summaries_cost_at(
    prepared: &[NetSummary],
    hist_arena: &[(u32, u32)],
    model: WirelengthModel,
    pos: (f64, f64),
) -> CellCost {
    let row = row_of_lattice_y(pos.1);
    let mut cost = CellCost::default();
    for s in prepared {
        if s.total_pins < 2 {
            continue;
        }
        let min_x = s.min_x.min(pos.0);
        let max_x = s.max_x.max(pos.0);
        let min_row = s.min_row.min(row);
        let max_row = s.max_row.max(row);
        let len = match model {
            WirelengthModel::HalfPerimeter => {
                (max_x - min_x) + (max_row - min_row) as f64 * ROW_HEIGHT
            }
            WirelengthModel::SingleTrunkSteiner => {
                let hist = &hist_arena[s.hist_start as usize..s.hist_end as usize];
                let median_row = merged_median_row(hist, row, s.total_pins as usize / 2);
                // All vertical distances are exact multiples of ROW_HEIGHT,
                // so this reduction is exact and matches the oracle's
                // pin-order sum bit for bit. The |r - median| walk is split
                // at the median (hist is row-sorted), which drops the
                // per-entry abs; the split is exact because negating an
                // exact product only flips the sign bit.
                let m = median_row as f64;
                let split = hist.partition_point(|&(r, _)| r < median_row);
                let mut branches = 0.0f64;
                for &(r, c) in &hist[..split] {
                    branches += c as f64 * ((m - r as f64) * ROW_HEIGHT);
                }
                for &(r, c) in &hist[split..] {
                    branches += c as f64 * ((r as f64 - m) * ROW_HEIGHT);
                }
                branches += ((row as f64 - m) * ROW_HEIGHT).abs();
                (max_x - min_x) + branches
            }
        };
        cost.wirelength += len;
        cost.power += len * s.switching_prob;
        if s.critical {
            cost.critical_wirelength += len;
        }
    }
    cost
}

/// Borrowed view over the per-net summaries of the cell a [`TrialScorer`]
/// last prepared, exposing the candidate
/// **score lower bound** and the median-position machinery that the
/// allocation operator's pruned trial scan builds on.
///
/// # Bound validity (the §3a pruning invariant)
///
/// For a candidate position `(x, row)` each net's *length* lower bound
/// decomposes into three exact, independently-valid parts:
///
/// * horizontal: `trunk(x) = (max(max_x, x) - min(min_x, x)) =
///   trunk_min + max(0, min_x - x) + max(0, x - max_x)` — the *exact*
///   horizontal span, not an estimate;
/// * vertical floor: the summary's precomputed `min_branch` plus
///   `gap(row) * ROW_HEIGHT` where `gap = max(0, min_row - row,
///   row - max_row)` — a lower bound on the model's vertical term for any
///   trunk row;
/// * every operand is an exact double (half-integer x, `ROW_HEIGHT`
///   multiples vertically), so the per-net length bound `lb_net` is exact
///   and satisfies `lb_net ≤ len_net` as real numbers *and* as doubles.
///
/// The bound methods then fold `lb_net` into a [`CellCost`] with **the same
/// per-net accumulation the full score uses** (`wirelength += lb`,
/// `power += lb * switching_prob`, `critical += lb`, in net order). Since
/// IEEE-754 multiplication by a non-negative factor and round-to-nearest
/// addition are monotone, term-wise domination in identical accumulation
/// order carries through every rounding step:
/// `bound.cmp ≤ cost.cmp` for each component, hence
/// `allocation_score(bound) ≤ allocation_score(cost)` for the full score of
/// the same candidate. A strict `bound > best_so_far` comparison can never
/// prune the true argmin.
///
/// [`PreparedSummaries::exit_bound_at`] additionally lower-bounds *every*
/// candidate at `x' ≥ x` in the same row (per net: the increasing branch of
/// the hinge when `x` already passed `max_x`, the row floor otherwise),
/// which the scan uses for early row exit over sorted-by-x candidates.
/// Beyond the bounds, the view exposes the **row-hoisted exact score**: at a
/// fixed candidate row, each net's vertical (branch) contribution is a
/// constant — only the horizontal trunk depends on the candidate `x`.
/// [`PreparedSummaries::prepare_row`] computes those per-net constants once,
/// in `O(1)` per net from the other pins' row order statistics (for
/// single-trunk Steiner: with `k = total_pins / 2`, the merged median is
/// `clamp(row, r[k - 1], r[k])` and the branch sum is linear in it between
/// those two rows), bit-identical to the histogram walk the full
/// per-candidate scorer [`TrialScorer::prepared_cost_at`] performs, which
/// stays as the independent reference. [`PreparedSummaries::cost_at_in_row`]
/// then scores each candidate of the row in a handful of flops, still
/// bit-identical to the full score.
#[derive(Debug, Clone, Copy)]
pub struct PreparedSummaries<'a> {
    model: WirelengthModel,
    prepared: &'a [NetSummary],
    xs: &'a [f64],
    rows: &'a [u32],
}

/// Per-net length lower bound at candidate row `row`, independent of the
/// horizontal position: exact trunk minimum plus the vertical floor.
#[inline]
fn net_floor_len(s: &NetSummary, row: u32) -> f64 {
    let gap = if row < s.min_row {
        s.min_row - row
    } else {
        row.saturating_sub(s.max_row)
    };
    (s.max_x - s.min_x) + s.min_branch + gap as f64 * ROW_HEIGHT
}

/// Folds one net's length bound into `cost` exactly the way
/// [`summaries_cost_at`] folds the net's true length — same operations, same
/// order, so term-wise `lb ≤ len` survives rounding component-wise.
#[inline]
fn fold_net_bound(cost: &mut CellCost, s: &NetSummary, lb: f64) {
    cost.wirelength += lb;
    cost.power += lb * s.switching_prob;
    if s.critical {
        cost.critical_wirelength += lb;
    }
}

impl<'a> PreparedSummaries<'a> {
    /// Every other pin's x coordinate of the prepared cell's nets, one entry
    /// per incidence in canonical (net, pin) order — the exact multiset the
    /// legacy windowed-candidate gather assembled by re-walking the CSR.
    pub fn other_pin_xs(&self) -> &'a [f64] {
        self.xs
    }

    /// Median position `(opt_x, opt_y)` of the other pins, bitwise identical
    /// to sorting the gathered x and y vectors and taking index `len / 2` —
    /// the optimum the windowed allocation strategy centres its window on.
    /// Returns `None` when the cell has no connected pins. Neither median
    /// sorts: x comes from a branch-free rank count (a selection above 32
    /// values), the row from per-row counting. `xs_scratch` is caller
    /// scratch (contents irrelevant); `row_counts` must be all zero and is
    /// all zero again on return.
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

    /// Row-dependent, position-independent floor of the score bound: each
    /// scoreable net contributes `trunk_min + min_branch + gap(row) *
    /// ROW_HEIGHT`, folded per net exactly like the full score. Every
    /// candidate in `row` costs at least this much component-wise; compute
    /// it once per row run.
    pub fn bound_floor(&self, row: u32) -> CellCost {
        let mut cost = CellCost::default();
        for s in self.prepared {
            if s.total_pins < 2 || s.min_row == u32::MAX {
                continue;
            }
            fold_net_bound(&mut cost, s, net_floor_len(s, row));
        }
        cost
    }

    /// Score lower bound for a candidate at `(x, row)`: per net the floor
    /// length plus the exact horizontal extension of the trunk, folded like
    /// the full score. Component-wise `≤` the full [`CellCost`] of the same
    /// candidate (see the type-level invariant), so
    /// `allocation_score(bound) ≤ allocation_score(cost)`.
    pub fn bound_at(&self, x: f64, row: u32) -> CellCost {
        let mut cost = CellCost::default();
        for s in self.prepared {
            if s.total_pins < 2 || s.min_row == u32::MAX {
                continue;
            }
            let mut lb = net_floor_len(s, row);
            if x < s.min_x {
                lb += s.min_x - x;
            } else if x > s.max_x {
                lb += x - s.max_x;
            }
            fold_net_bound(&mut cost, s, lb);
        }
        cost
    }

    /// Fills `vertical` with each prepared net's vertical (branch)
    /// contribution to the score of **any** candidate in `row` — one entry
    /// per net, in net order, with unscoreable nets as `0.0`. Each constant
    /// is `O(1)` per net (the half-perimeter row span, or the single-trunk
    /// Steiner branch sum from the other pins' order statistics) and
    /// bit-identical to
    /// the histogram walk of the full score, so
    /// [`PreparedSummaries::cost_at_in_row`] over these constants reproduces
    /// [`TrialScorer::prepared_cost_at`] exactly. Compute once per
    /// contiguous same-row candidate run.
    pub fn prepare_row(&self, row: u32, vertical: &mut Vec<f64>) {
        vertical.clear();
        vertical.extend(self.prepared.iter().map(|s| {
            if s.total_pins < 2 {
                return 0.0;
            }
            match self.model {
                WirelengthModel::HalfPerimeter => {
                    let min_row = s.min_row.min(row);
                    let max_row = s.max_row.max(row);
                    (max_row - min_row) as f64 * ROW_HEIGHT
                }
                WirelengthModel::SingleTrunkSteiner => steiner_vertical(s, row),
            }
        }));
    }

    /// Exact score of a candidate at horizontal position `x` in the row
    /// `vertical` was prepared for: per net the exact merged trunk span plus
    /// the hoisted vertical constant, folded like the full score — bitwise
    /// identical to [`TrialScorer::prepared_cost_at`] at the same position,
    /// at a fraction of the cost (no median walk per candidate).
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

    /// Maximum other-pin x over the scoreable nets (`-inf` when there is
    /// none). For candidates at `x ≥ max_other_x` every net's trunk is on
    /// its increasing branch, so the exact score is non-decreasing in `x`
    /// (term-wise, hence component-wise through the fold) — the scan uses
    /// this for its monotone tail exit over sorted-by-x runs.
    pub fn max_other_x(&self) -> f64 {
        let mut max_x = f64::NEG_INFINITY;
        for s in self.prepared {
            if s.total_pins < 2 || s.min_row == u32::MAX {
                continue;
            }
            max_x = max_x.max(s.max_x);
        }
        max_x
    }

    /// Score lower bound valid for **every** candidate at `x' ≥ x` in `row`
    /// — the early-row-exit bound for ascending-x candidate runs. Per net:
    /// once `x ≥ max_x` the net's hinge is on its increasing branch, so its
    /// bound at any `x' ≥ x` is at least its bound at `x` (exact reals,
    /// exact doubles); otherwise the row floor applies. Folded in the same
    /// net order as the full score, so the component-wise domination chain
    /// `exit_bound_at(x) ≤ bound_at(x') ≤ cost(x')` survives rounding.
    pub fn exit_bound_at(&self, x: f64, row: u32) -> CellCost {
        let mut cost = CellCost::default();
        for s in self.prepared {
            if s.total_pins < 2 || s.min_row == u32::MAX {
                continue;
            }
            let mut lb = net_floor_len(s, row);
            if x >= s.max_x {
                lb += x - s.max_x;
            }
            fold_net_bound(&mut cost, s, lb);
        }
        cost
    }
}

/// Incremental per-net length vector for one evolving placement.
///
/// [`NetLengthCache::refresh`] returns the same vector
/// [`CostEvaluator::net_lengths`] would, but after the first (full) refresh
/// of a placement object it re-evaluates only the nets with a pin whose
/// coordinates changed. See the module docs for the exact invalidation
/// invariants.
#[derive(Debug, Clone, Default)]
pub struct NetLengthCache {
    lengths: Vec<f64>,
    /// `uid` of the placement the cache is synchronised with (0 = none).
    placement_uid: u64,
    /// Per-row epochs at the last refresh.
    row_epoch_seen: Vec<u64>,
    /// Per-cell `(x bits, row)` at the last refresh that visited the cell.
    cell_seen: Vec<(u64, u32)>,
    /// Per-net visit stamp of the current delta pass (avoids re-evaluating a
    /// net with several moved pins).
    net_stamp: Vec<u32>,
    stamp: u32,
    /// Reusable dirty-net list for the monolithic [`NetLengthCache::refresh`].
    dirty_scratch: Vec<NetId>,
    full_refreshes: u64,
    delta_refreshes: u64,
    nets_recomputed: u64,
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

    /// Number of full (every-net) refreshes performed.
    pub fn full_refreshes(&self) -> u64 {
        self.full_refreshes
    }

    /// Number of delta refreshes that re-evaluated at least one net.
    pub fn delta_refreshes(&self) -> u64 {
        self.delta_refreshes
    }

    /// Number of individual net re-evaluations performed by delta refreshes.
    pub fn nets_recomputed(&self) -> u64 {
        self.nets_recomputed
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
        self.plan_refresh(evaluator, placement, &mut dirty);
        for &net in &dirty {
            let length = scorer.net_length(evaluator, placement, net);
            self.lengths[net.index()] = length;
        }
        self.dirty_scratch = dirty;
        &self.lengths
    }

    /// The bookkeeping half of [`NetLengthCache::refresh`]: advances the row
    /// epochs, cell snapshots, net stamps, placement uid and work counters,
    /// and fills `dirty` with the nets whose lengths must be recomputed —
    /// every net on a full refresh, only the nets with a pin whose
    /// coordinates changed on a delta refresh. Each net appears at most once.
    fn plan_refresh(
        &mut self,
        evaluator: &CostEvaluator,
        placement: &Placement,
        dirty: &mut Vec<NetId>,
    ) {
        dirty.clear();
        let netlist = evaluator.netlist();
        let num_nets = netlist.num_nets();
        let num_rows = placement.num_rows();
        let full = self.placement_uid != placement.uid()
            || self.lengths.len() != num_nets
            || self.row_epoch_seen.len() != num_rows;
        if full {
            self.lengths.clear();
            self.lengths.resize(num_nets, 0.0);
            dirty.extend(netlist.net_ids());
            self.row_epoch_seen.clear();
            self.row_epoch_seen
                .extend((0..num_rows).map(|r| placement.row_epoch(r)));
            self.cell_seen.clear();
            self.cell_seen
                .extend(netlist.cell_ids().map(|c| pin_coords(placement, c)));
            self.net_stamp.clear();
            self.net_stamp.resize(num_nets, 0);
            self.stamp = 0;
            self.placement_uid = placement.uid();
            self.full_refreshes += 1;
        } else {
            self.stamp = self.stamp.wrapping_add(1);
            if self.stamp == 0 {
                self.net_stamp.iter_mut().for_each(|s| *s = 0);
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
                    *seen = coords;
                    for &net in netlist.nets_of_cell(c) {
                        let i = net.index();
                        if self.net_stamp[i] != self.stamp {
                            self.net_stamp[i] = self.stamp;
                            dirty.push(net);
                        }
                    }
                }
            }
            if !dirty.is_empty() {
                self.delta_refreshes += 1;
            }
            self.nets_recomputed += dirty.len() as u64;
        }
    }
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

    fn setup(model: WirelengthModel) -> (CostEvaluator, Placement) {
        let nl = Arc::new(
            CircuitGenerator::new(GeneratorConfig::sized("kernel_test", 170, 29)).generate(),
        );
        let eval = CostEvaluator::with_models(
            Arc::clone(&nl),
            Objectives::WirelengthPowerDelay,
            model,
            Default::default(),
            Default::default(),
            Default::default(),
        );
        let placement = Placement::round_robin(&nl, 9);
        (eval, placement)
    }

    #[test]
    fn scorer_matches_oracle_net_lengths_bitwise() {
        for model in [
            WirelengthModel::SingleTrunkSteiner,
            WirelengthModel::HalfPerimeter,
        ] {
            let (eval, placement) = setup(model);
            let mut scorer = TrialScorer::for_evaluator(&eval);
            for net in eval.netlist().net_ids() {
                let naive = eval.net_length(&placement, net);
                let kernel = scorer.net_length(&eval, &placement, net);
                assert_eq!(naive.to_bits(), kernel.to_bits(), "{model:?} net {net}");
            }
        }
    }

    #[test]
    fn prepared_scorer_is_shareable_across_threads() {
        // A prepared scorer lives in per-rank scratch that travels between
        // pool threads; its prepared state must be readable through
        // `&TrialScorer` (Sync) and produce the same bits from every thread.
        fn assert_sync<T: Sync>() {}
        assert_sync::<TrialScorer>();

        let (eval, mut placement) = setup(WirelengthModel::SingleTrunkSteiner);
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
        let (eval, mut placement) = setup(WirelengthModel::SingleTrunkSteiner);
        let mut scorer = TrialScorer::for_evaluator(&eval);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..50 {
            let cell = vlsi_netlist::CellId(rng.gen_range(0..eval.netlist().num_cells() as u32));
            let row = rng.gen_range(0..placement.num_rows());
            let index = rng.gen_range(0..placement.row(row).len() + 1);
            placement.remove_cell(cell);
            let pos = placement.trial_position(cell, Slot { row, index });
            let naive = eval.cell_cost_at(&placement, cell, pos);
            let fast = scorer.cell_cost_at(&eval, &placement, cell, pos);
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
        for model in [
            WirelengthModel::SingleTrunkSteiner,
            WirelengthModel::HalfPerimeter,
        ] {
            let (eval, mut placement) = setup(model);
            let mut scorer = TrialScorer::for_evaluator(&eval);
            let mut rng = ChaCha8Rng::seed_from_u64(7);
            for _ in 0..40 {
                let cell =
                    vlsi_netlist::CellId(rng.gen_range(0..eval.netlist().num_cells() as u32));
                placement.remove_cell(cell);
                scorer.prepare_cell(&eval, &placement, cell);
                let back = placement.num_rows() - 1;
                for _ in 0..8 {
                    let row = rng.gen_range(0..placement.num_rows());
                    let index = rng.gen_range(0..placement.row(row).len() + 1);
                    let pos = placement.trial_position(cell, Slot { row, index });
                    let naive = eval.cell_cost_at(&placement, cell, pos);
                    let fast = scorer.prepared_cost_at(pos);
                    assert_eq!(
                        naive.wirelength.to_bits(),
                        fast.wirelength.to_bits(),
                        "{model:?}"
                    );
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
    }

    #[test]
    fn cache_delta_refresh_matches_full_recompute() {
        let (eval, mut placement) = setup(WirelengthModel::SingleTrunkSteiner);
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
        let (eval, placement) = setup(WirelengthModel::HalfPerimeter);
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
        let (eval, placement) = setup(WirelengthModel::SingleTrunkSteiner);
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
        let (eval, mut placement) = setup(WirelengthModel::SingleTrunkSteiner);
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
                let moved = nl
                    .net_ids()
                    .filter(|&net| {
                        eval.net_cells(net)
                            .iter()
                            .any(|c| old[c.index()] != new[c.index()])
                    })
                    .count() as u64;
                let before = cache.nets_recomputed();
                let cached = cache.refresh(&eval, &mut scorer, &placement).to_vec();
                assert_eq!(cache.nets_recomputed() - before, moved, "round {round}");
                for (n, (a, b)) in cached.iter().zip(&eval.net_lengths(&placement)).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "round {round} net {n}");
                }
            }
            assert_eq!(cache.full_refreshes(), 1);
        }
    }

    #[test]
    fn prepared_bound_is_a_true_lower_bound_and_median_matches_sort() {
        // The §3a pruning invariant: for every candidate position,
        // bound_at ≤ the full score's wirelength (no rounding slack), the
        // per-row floor ≤ the bound, and the summary-derived median position
        // is bit-identical to the sort-based gather it replaces.
        for model in [
            WirelengthModel::SingleTrunkSteiner,
            WirelengthModel::HalfPerimeter,
        ] {
            let (eval, mut placement) = setup(model);
            let mut scorer = TrialScorer::for_evaluator(&eval);
            let mut rng = ChaCha8Rng::seed_from_u64(11);
            let mut xs_scratch = Vec::new();
            let mut row_counts = Vec::new();
            for _ in 0..40 {
                let cell =
                    vlsi_netlist::CellId(rng.gen_range(0..eval.netlist().num_cells() as u32));
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
                        assert_eq!(opt_x.to_bits(), gx[gx.len() / 2].to_bits(), "{model:?}");
                        assert_eq!(opt_y.to_bits(), gy[gy.len() / 2].to_bits(), "{model:?}");
                    }
                    None => assert!(gx.is_empty()),
                }

                let le = |a: &CellCost, b: &CellCost| {
                    a.wirelength <= b.wirelength
                        && a.power <= b.power
                        && a.critical_wirelength <= b.critical_wirelength
                };
                for _ in 0..12 {
                    let row = rng.gen_range(0..placement.num_rows());
                    let index = rng.gen_range(0..placement.row(row).len() + 1);
                    let pos = placement.trial_position(cell, Slot { row, index });
                    let floor = view.bound_floor(row as u32);
                    let bound = view.bound_at(pos.0, row as u32);
                    let cost = scorer.prepared_cost_at(pos);
                    assert!(le(&floor, &bound), "{model:?}: floor above bound");
                    assert!(le(&bound, &cost), "{model:?}: bound above cost");
                    // The exit bound must stay below the bound of every
                    // position at x' ≥ x in the same row.
                    let exit = view.exit_bound_at(pos.0, row as u32);
                    assert!(le(&exit, &bound), "{model:?}: exit above own bound");
                    for dx in [0.0, 0.5, 3.0, 1e4] {
                        let later = view.bound_at(pos.0 + dx, row as u32);
                        assert!(le(&exit, &later), "{model:?}: exit above later bound");
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
    fn row_lattice_roundtrip_is_exact() {
        for row in 0u32..4096 {
            let y = (row as f64 + 0.5) * ROW_HEIGHT;
            assert_eq!(row_of_lattice_y(y), row);
        }
    }
}
