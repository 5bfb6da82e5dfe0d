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
//! * [`NetLengthCache`] keeps the per-net length vector of a placement alive
//!   across SimE iterations and re-evaluates only the nets *dirtied* since
//!   the last refresh, using the placement's per-row mutation epochs.
//!
//! # Bitwise determinism
//!
//! Both structures are drop-in replacements for the naive path at the bit
//! level: pins are visited in the same canonical order (the netlist's sorted
//! CSR `net_cells` arena), partial sums are accumulated in the same order,
//! and the counting median selects exactly the element the sort-based median
//! picks. `tests/kernel_differential.rs` asserts `==` (not approximate
//! equality) against the [`crate::cost::CostEvaluator`] oracle across random
//! placements and mutation sequences.
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
//! * a net is re-evaluated iff it touches a cell of a row whose
//!   [`Placement::row_epoch`] advanced since the last refresh,
//! * a cell that is ripped up (`remove_cell`) keeps its last coordinates, so
//!   nets that reference it mid-allocation evaluate exactly as the oracle
//!   does; its eventual re-insertion dirties the target row and restores
//!   freshness.

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
/// about the *other* pins that trial scoring needs, so each candidate slot is
/// scored in `O(distinct rows)` instead of `O(pins)`.
///
/// The summaries rely on two exactness facts that make the reductions
/// order-independent (and therefore bit-compatible with the oracle's
/// pin-order loops): `f64::min`/`f64::max` are commutative for finite values,
/// and every vertical distance is an exact multiple of [`ROW_HEIGHT`] (cell x
/// coordinates are exact half-integers, y coordinates exact lattice points),
/// so the branch sums incur no rounding in any summation order.
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
    /// Range of this net's `(row, count)` histogram in the scorer's arena.
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
    /// their own counting upper median, which lower-bounds the merged branch
    /// sum for *any* trunk row the full score can pick. Exact multiple of
    /// [`ROW_HEIGHT`]. Candidate rows outside the extent additionally pay a
    /// `gap * ROW_HEIGHT` term (see [`PreparedSummaries::bound_floor`]).
    min_branch: f64,
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
            &mut self.row_counts,
            &mut self.prepared,
            &mut self.hist,
            &mut self.pin_xs,
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
            hist: &self.hist,
            xs: &self.pin_xs,
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

/// Builds the per-net summaries of `cell`'s incident nets into
/// `prepared`/`hist`, using `row_counts` as the per-row counting scratch
/// (left all-zero afterwards). The body of [`TrialScorer::prepare_cell`];
/// a pure function of the *other* pins' positions.
///
/// Also fills `pin_xs` with every other pin's x coordinate in canonical
/// walk order (the legacy windowed-candidate gather multiset) and computes
/// each net's `min_branch` — both byproducts of the walk the pass already
/// performs.
#[allow(clippy::too_many_arguments)]
fn build_cell_summaries(
    evaluator: &CostEvaluator,
    placement: &Placement,
    cell: CellId,
    model: WirelengthModel,
    row_counts: &mut Vec<u32>,
    prepared: &mut Vec<NetSummary>,
    hist: &mut Vec<(u32, u32)>,
    pin_xs: &mut Vec<f64>,
) {
    let netlist = evaluator.netlist();
    prepared.clear();
    hist.clear();
    pin_xs.clear();
    for &net in netlist.nets_of_cell(cell) {
        let cells = evaluator.net_cells(net);
        let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut min_row, mut max_row) = (u32::MAX, 0u32);
        let mut others = 0usize;
        for &c in cells {
            if c == cell {
                continue;
            }
            let x = placement.x_of(c);
            pin_xs.push(x);
            min_x = min_x.min(x);
            max_x = max_x.max(x);
            let r = placement.row_of(c) as u32;
            min_row = min_row.min(r);
            max_row = max_row.max(r);
            if r as usize >= row_counts.len() {
                row_counts.resize(r as usize + 1, 0);
            }
            row_counts[r as usize] += 1;
            others += 1;
        }
        let hist_start = hist.len() as u32;
        if min_row != u32::MAX {
            for r in min_row..=max_row {
                let c = row_counts[r as usize];
                if c > 0 {
                    hist.push((r, c));
                    row_counts[r as usize] = 0;
                }
            }
        }
        let mut min_branch = 0.0f64;
        if cells.len() >= 2 && min_row != u32::MAX {
            min_branch = match model {
                WirelengthModel::HalfPerimeter => (max_row - min_row) as f64 * ROW_HEIGHT,
                WirelengthModel::SingleTrunkSteiner => {
                    // Branch sum of the other pins at their own counting
                    // upper median m* (k = others / 2): any trunk row m the
                    // merged median can pick satisfies Σ|r_p − m| ≥ Σ|r_p −
                    // m*| because a weighted median minimises the sum of
                    // absolute deviations. Every term is an exact multiple
                    // of ROW_HEIGHT, so the sum is exact.
                    let h = &hist[hist_start as usize..];
                    let k = others / 2;
                    let mut acc = 0usize;
                    let mut m = max_row;
                    for &(r, c) in h {
                        acc += c as usize;
                        if acc > k {
                            m = r;
                            break;
                        }
                    }
                    let mf = m as f64;
                    let mut sum = 0.0f64;
                    for &(r, c) in h {
                        let d = if r < m {
                            (mf - r as f64) * ROW_HEIGHT
                        } else {
                            (r as f64 - mf) * ROW_HEIGHT
                        };
                        sum += c as f64 * d;
                    }
                    sum
                }
            };
        }
        prepared.push(NetSummary {
            total_pins: cells.len() as u32,
            min_x,
            max_x,
            min_row,
            max_row,
            hist_start,
            hist_end: hist.len() as u32,
            switching_prob: netlist.net(net).switching_prob,
            critical: evaluator.net_is_critical(net),
            min_branch,
        });
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
/// [`PreparedSummaries::prepare_row`] computes those per-net constants once
/// (bit-identical to the walk the full per-candidate scorer performs)
/// and [`PreparedSummaries::cost_at_in_row`] then scores each candidate of
/// the row in a handful of flops, still bit-identical to the full score.
#[derive(Debug, Clone, Copy)]
pub struct PreparedSummaries<'a> {
    model: WirelengthModel,
    prepared: &'a [NetSummary],
    hist: &'a [(u32, u32)],
    xs: &'a [f64],
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
    /// Returns `None` when the cell has no connected pins. `xs_scratch` and
    /// `row_counts` are caller scratch (contents irrelevant; `row_counts`
    /// is left all-zero).
    pub fn median_position(
        &self,
        xs_scratch: &mut Vec<f64>,
        row_counts: &mut Vec<u32>,
    ) -> Option<(f64, f64)> {
        if self.xs.is_empty() {
            return None;
        }
        let k = self.xs.len() / 2;
        xs_scratch.clear();
        xs_scratch.extend_from_slice(self.xs);
        // k-th smallest: the same *value* sort_by + index k selects, and all
        // pin x's are positive finite doubles, so equal values share bits.
        let (_, &mut opt_x, _) = xs_scratch
            .select_nth_unstable_by(k, |a, b| a.partial_cmp(b).expect("pin x must be finite"));
        // Counting median over the merged per-net row histograms: the row
        // lattice is monotone in the row index, so the first row whose
        // cumulative merged count exceeds k holds sorted_ys[k].
        let (mut min_row, mut max_row) = (u32::MAX, 0u32);
        for s in self.prepared {
            for &(r, c) in &self.hist[s.hist_start as usize..s.hist_end as usize] {
                if r as usize >= row_counts.len() {
                    row_counts.resize(r as usize + 1, 0);
                }
                row_counts[r as usize] += c;
                min_row = min_row.min(r);
                max_row = max_row.max(r);
            }
        }
        let mut acc = 0usize;
        let mut median_row = max_row;
        for r in min_row..=max_row {
            acc += row_counts[r as usize] as usize;
            if acc > k {
                median_row = r;
                break;
            }
        }
        for r in min_row..=max_row {
            row_counts[r as usize] = 0;
        }
        Some((opt_x, (median_row as f64 + 0.5) * ROW_HEIGHT))
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
    /// per net, in net order, with unscoreable nets as `0.0`. The walk is
    /// bit-identical to the per-candidate walk of the full score, so
    /// [`PreparedSummaries::cost_at_in_row`] over these constants reproduces
    /// [`TrialScorer::prepared_cost_at`] exactly. Compute once per
    /// contiguous same-row candidate run.
    pub fn prepare_row(&self, row: u32, vertical: &mut Vec<f64>) {
        vertical.clear();
        for s in self.prepared {
            if s.total_pins < 2 {
                vertical.push(0.0);
                continue;
            }
            let v = match self.model {
                WirelengthModel::HalfPerimeter => {
                    let min_row = s.min_row.min(row);
                    let max_row = s.max_row.max(row);
                    (max_row - min_row) as f64 * ROW_HEIGHT
                }
                WirelengthModel::SingleTrunkSteiner => {
                    let hist = &self.hist[s.hist_start as usize..s.hist_end as usize];
                    let median_row = merged_median_row(hist, row, s.total_pins as usize / 2);
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
                    branches
                }
            };
            vertical.push(v);
        }
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
/// of a placement object it re-evaluates only the nets touching rows whose
/// epoch advanced. See the module docs for the exact invalidation invariants.
#[derive(Debug, Clone, Default)]
pub struct NetLengthCache {
    lengths: Vec<f64>,
    /// `uid` of the placement the cache is synchronised with (0 = none).
    placement_uid: u64,
    /// Per-row epochs at the last refresh.
    row_epoch_seen: Vec<u64>,
    /// Per-net visit stamp of the current delta pass (avoids re-evaluating a
    /// net reachable from several dirty rows).
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

    /// Phase 1 of a split refresh: advances all cache bookkeeping (row
    /// epochs, net stamps, placement uid, the work counters) and fills
    /// `dirty` with the nets whose lengths must be recomputed — every net on
    /// a full refresh (returns `true`), only the nets touching changed rows
    /// on a delta refresh (`false`). Each net appears at most once.
    ///
    /// The caller *must* complete the plan by computing each listed net's
    /// length against the same placement and handing the results to
    /// [`NetLengthCache::store_length`] before the next refresh — per-net
    /// length is a pure function of the placement, so the completed vector
    /// is bitwise identical to a monolithic [`NetLengthCache::refresh`].
    pub fn plan_refresh(
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
        if full {
            self.lengths.clear();
            self.lengths.resize(num_nets, 0.0);
            dirty.extend(netlist.net_ids());
            self.row_epoch_seen.clear();
            self.row_epoch_seen
                .extend((0..num_rows).map(|r| placement.row_epoch(r)));
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
        full
    }

    /// Phase 2 of a split refresh: records one computed net length. `net`
    /// must come from the current [`NetLengthCache::plan_refresh`] plan.
    #[inline]
    pub fn store_length(&mut self, net: NetId, length: f64) {
        self.lengths[net.index()] = length;
    }
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
    fn row_lattice_roundtrip_is_exact() {
        for row in 0u32..4096 {
            let y = (row as f64 + 0.5) * ROW_HEIGHT;
            assert_eq!(row_of_lattice_y(y), row);
        }
    }
}
