//! Property-based tests for the placement model and cost functions.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use vlsi_netlist::generator::{CircuitGenerator, GeneratorConfig, MixedSizeSpec};
use vlsi_netlist::{CellId, Netlist};
use vlsi_place::prelude::*;
use vlsi_place::wirelength::{hpwl, single_trunk_steiner};
use vlsi_place::{FuzzyConfig, GoodnessScratch};

fn arb_netlist() -> impl Strategy<Value = (Arc<Netlist>, u64)> {
    (80usize..260, any::<u64>()).prop_map(|(cells, seed)| {
        let cfg = GeneratorConfig::sized(format!("prop_{seed}"), cells, seed);
        (Arc::new(CircuitGenerator::new(cfg).generate()), seed)
    })
}

/// A fixed-free circuit, or (`mixed`) one with a pad ring and multi-row
/// macros, whose placements have blocked spans.
fn arb_maybe_mixed_netlist() -> impl Strategy<Value = (Arc<Netlist>, u64, bool)> {
    (80usize..260, any::<u64>(), any::<bool>()).prop_map(|(cells, seed, mixed)| {
        let mut cfg = GeneratorConfig::sized(format!("prop_rows_{seed}"), cells, seed);
        if mixed {
            cfg = cfg.with_mixed(MixedSizeSpec {
                num_macros: 3,
                macro_height: 3,
                pad_ring: true,
            });
        }
        (Arc::new(CircuitGenerator::new(cfg).generate()), seed, mixed)
    })
}

/// Asserts that every cached coordinate of `p` equals a from-scratch
/// `Placement::from_rows` rebuild of its row lists bit for bit. `removed`
/// is a ripped-up cell, whose stale coordinates the rebuild does not know.
fn assert_matches_rebuild(netlist: &Netlist, p: &Placement, removed: Option<CellId>) {
    let rows: Vec<Vec<CellId>> = (0..p.num_rows()).map(|r| p.row(r).to_vec()).collect();
    let q = Placement::from_rows(netlist, rows);
    for cell in netlist.cell_ids().filter(|&c| Some(c) != removed) {
        assert_eq!(
            p.x_of(cell).to_bits(),
            q.x_of(cell).to_bits(),
            "x of {cell}"
        );
        assert_eq!(p.row_of(cell), q.row_of(cell), "row of {cell}");
        if !p.is_fixed(cell) {
            assert_eq!(
                p.index_in_row(cell),
                q.index_in_row(cell),
                "index of {cell}"
            );
        }
    }
    for r in 0..p.num_rows() {
        assert_eq!(
            p.row_extent(r).to_bits(),
            q.row_extent(r).to_bits(),
            "extent of row {r}"
        );
        assert_eq!(p.row_width(r), q.row_width(r), "width of row {r}");
    }
}

/// Asserts that exactly the rows in `touched` advanced their epoch since
/// `before` was taken.
fn assert_epochs_advanced(p: &Placement, before: &[u64], touched: &[usize]) {
    for (r, &epoch) in before.iter().enumerate() {
        if touched.contains(&r) {
            assert!(p.row_epoch(r) > epoch, "touched row {r} kept its epoch");
        } else {
            assert_eq!(p.row_epoch(r), epoch, "untouched row {r} changed its epoch");
        }
    }
}

fn epochs(p: &Placement) -> Vec<u64> {
    (0..p.num_rows()).map(|r| p.row_epoch(r)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// The incremental row updates (suffix shifts on rows without blocked
    /// spans, suffix repacks on rows with them) leave every cell's cached
    /// x, row and ordinal and every row's extent exactly where a fresh
    /// rebuild puts them, and advance the epoch of exactly the rows they
    /// change.
    #[test]
    fn row_updates_match_a_fresh_rebuild(
        (netlist, seed, mixed) in arb_maybe_mixed_netlist(),
        rows in 4usize..12,
        ops in prop::collection::vec((0u8..4, any::<u64>()), 1..60),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut p = Placement::random(&netlist, rows, &mut rng);
        assert_eq!(mixed, (0..rows).any(|r| !p.blocked_spans(r).is_empty()));
        let movable: Vec<CellId> = netlist.cell_ids().filter(|&c| !p.is_fixed(c)).collect();
        let m = movable.len();
        for (op, r) in ops {
            let cell = movable[(r as usize) % m];
            let row = (r as usize / m) % rows;
            let pick = r as usize / m / rows;
            let before = epochs(&p);
            match op {
                0 => {
                    let slot = p.remove_cell(cell);
                    assert_epochs_advanced(&p, &before, &[slot.row]);
                    assert_matches_rebuild(&netlist, &p, Some(cell));
                    let before = epochs(&p);
                    let index = pick % (p.row(row).len() + 1);
                    p.insert_cell(cell, Slot { row, index });
                    assert_epochs_advanced(&p, &before, &[row]);
                }
                1 => {
                    let from = p.row_of(cell);
                    let index = pick % (p.row(row).len() + 1);
                    p.move_cell(cell, Slot { row, index });
                    assert_epochs_advanced(&p, &before, &[from, row]);
                }
                2 => {
                    let other = movable[pick % m];
                    let touched = if other == cell {
                        vec![]
                    } else {
                        vec![p.row_of(cell), p.row_of(other)]
                    };
                    p.swap_cells(cell, other);
                    assert_epochs_advanced(&p, &before, &touched);
                }
                _ => {
                    // A swap inside one row: the in-between cells move.
                    let here = p.row_of(cell);
                    let other = p.row(here)[pick % p.row(here).len()];
                    let touched = if other == cell { vec![] } else { vec![here] };
                    p.swap_cells(cell, other);
                    assert_epochs_advanced(&p, &before, &touched);
                }
            }
            assert_matches_rebuild(&netlist, &p, None);
        }
        p.validate(&netlist).unwrap();
    }

    /// Random placements are always legal and survive a random sequence of
    /// remove/insert/move/swap operations.
    #[test]
    fn placement_operations_preserve_legality(
        (netlist, seed) in arb_netlist(),
        rows in 4usize..12,
        ops in prop::collection::vec((0u8..4, any::<u64>()), 1..60),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut p = Placement::random(&netlist, rows, &mut rng);
        p.validate(&netlist).unwrap();
        let n = netlist.num_cells();
        for (op, r) in ops {
            let cell = vlsi_netlist::CellId::from((r as usize) % n);
            let row = (r as usize / n) % rows;
            let index = (r as usize / n / rows) % (p.row(row).len() + 1);
            match op {
                0 => {
                    let slot = p.remove_cell(cell);
                    p.insert_cell(cell, slot);
                }
                1 => p.move_cell(cell, Slot { row, index }),
                2 => {
                    let other = vlsi_netlist::CellId::from((r as usize / 7) % n);
                    p.swap_cells(cell, other);
                }
                _ => {
                    let slot = p.remove_cell(cell);
                    p.insert_cell(cell, Slot { row: slot.row, index: index.min(p.row(slot.row).len()) });
                }
            }
            p.validate(&netlist).unwrap();
        }
        // Total width is invariant under all operations.
        let total: u64 = (0..rows).map(|r| p.row_width(r)).sum();
        let expected: u64 = netlist.cells().iter().map(|c| c.width as u64).sum();
        prop_assert_eq!(total, expected);
    }

    /// The Steiner estimate is always at least the horizontal span and at
    /// least half the HPWL, and both estimators are translation invariant.
    #[test]
    fn wirelength_estimator_invariants(
        pins in prop::collection::vec((0.0f64..500.0, 0.0f64..200.0), 2..12),
        dx in -100.0f64..100.0,
        dy in -100.0f64..100.0,
    ) {
        let st = single_trunk_steiner(&pins);
        let hp = hpwl(&pins);
        prop_assert!(st >= 0.0 && hp >= 0.0);
        prop_assert!(st + 1e-9 >= hp / 2.0);
        // A tree connecting all pins can never be shorter than the bounding
        // box half-perimeter divided by 2; in fact single-trunk >= max span.
        let span_x = pins.iter().map(|p| p.0).fold(f64::NEG_INFINITY, f64::max)
            - pins.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
        prop_assert!(st + 1e-9 >= span_x);
        let shifted: Vec<_> = pins.iter().map(|&(x, y)| (x + dx, y + dy)).collect();
        prop_assert!((single_trunk_steiner(&shifted) - st).abs() < 1e-6);
        prop_assert!((hpwl(&shifted) - hp).abs() < 1e-6);
    }

    /// Cost evaluation produces finite, bound-respecting values and a quality
    /// measure in [0, 1] for arbitrary circuits and placements.
    #[test]
    fn evaluation_respects_bounds((netlist, seed) in arb_netlist(), rows in 4usize..12) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xABCD);
        let placement = Placement::random(&netlist, rows, &mut rng);
        for objectives in [Objectives::WirelengthPower, Objectives::WirelengthPowerDelay] {
            let eval = CostEvaluator::new(Arc::clone(&netlist), objectives);
            let b = eval.evaluate(&placement);
            prop_assert!(b.wirelength.is_finite() && b.wirelength >= 0.0);
            prop_assert!(b.power >= 0.0 && b.power <= b.wirelength + 1e-9);
            prop_assert!(b.wirelength + 1e-9 >= eval.bounds().wirelength_lower);
            prop_assert!((0.0..=1.0).contains(&b.mu));
            if objectives.includes_delay() && !eval.paths().is_empty() {
                prop_assert!(b.delay + 1e-9 >= eval.bounds().delay_lower);
            }
        }
    }

    /// Per-cell goodness is always within [0, 1], the kernel pass matches the
    /// oracle bit for bit, and cells whose nets cost nothing score ~1.
    #[test]
    fn goodness_is_bounded((netlist, seed) in arb_netlist(), rows in 4usize..10) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x1234);
        let placement = Placement::random(&netlist, rows, &mut rng);
        let eval = CostEvaluator::new(Arc::clone(&netlist), Objectives::WirelengthPowerDelay);
        let ge = GoodnessEvaluator::new(eval);
        let all = ge.all_goodness(&placement);
        prop_assert_eq!(all.len(), netlist.num_cells());
        for &g in &all {
            prop_assert!((0.0..=1.0).contains(&g));
        }
        let lengths = ge.evaluator().net_lengths(&placement);
        let mut scratch = GoodnessScratch::default();
        let mut kernel = Vec::new();
        ge.all_goodness_with(&mut scratch, &placement, &lengths, &[], &mut kernel);
        for (a, b) in all.iter().zip(&kernel) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        let ideal = vec![0.0; netlist.num_nets()];
        ge.all_goodness_with(&mut scratch, &placement, &ideal, &[], &mut kernel);
        for &g in &kernel {
            prop_assert!(g > 0.99, "goodness at zero cost must be ~1, got {g}");
        }
    }

    /// Fuzzy membership is monotone non-increasing in cost and the aggregate
    /// never exceeds the best individual membership by more than the mean
    /// component allows.
    #[test]
    fn fuzzy_membership_monotone(lb in 1.0f64..1000.0, goal in 1.1f64..4.0, steps in 2usize..40) {
        let mut last = 1.0;
        for i in 0..steps {
            let cost = lb * (1.0 + i as f64 * 0.2);
            let m = FuzzyConfig::membership(cost, lb, goal);
            prop_assert!(m <= last + 1e-12);
            prop_assert!((0.0..=1.0).contains(&m));
            last = m;
        }
    }

    /// Trial positions predicted by the layout agree with actually performing
    /// the insertion, for arbitrary target slots.
    #[test]
    fn trial_position_is_exact((netlist, seed) in arb_netlist(), rows in 3usize..9, pick in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xFEED);
        let mut p = Placement::random(&netlist, rows, &mut rng);
        let cell = vlsi_netlist::CellId::from((pick as usize) % netlist.num_cells());
        p.remove_cell(cell);
        let row = (pick as usize / 3) % rows;
        let index = (pick as usize / 17) % (p.row(row).len() + 1);
        let slot = Slot { row, index };
        let predicted = p.trial_position(cell, slot);
        p.insert_cell(cell, slot);
        let actual = p.position(cell);
        prop_assert!((predicted.0 - actual.0).abs() < 1e-9);
        prop_assert!((predicted.1 - actual.1).abs() < 1e-9);
        p.validate(&netlist).unwrap();
    }
}
