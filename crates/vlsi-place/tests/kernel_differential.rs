//! Differential property tests: the allocation-free kernel
//! ([`TrialScorer`], [`NetLengthCache`], the goodness pass) must be
//! **bit-identical** to the naive [`CostEvaluator`] oracle — not
//! approximately equal — across random circuits, random placements, random
//! rip-up/re-insert sequences and both [`Objectives`] variants. Bit identity
//! is what lets the engine run on the kernel while keeping every seeded
//! trajectory of the paper-reproduction tables unchanged.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use vlsi_netlist::generator::{CircuitGenerator, GeneratorConfig};
use vlsi_netlist::{CellId, Netlist};
use vlsi_place::cost::{CellCost, CostEvaluator, Objectives};
use vlsi_place::goodness::{GoodnessEvaluator, GoodnessScratch};
use vlsi_place::kernel::{NetLengthCache, TrialScorer};
use vlsi_place::layout::{Placement, Slot};

fn arb_netlist() -> impl Strategy<Value = (Arc<Netlist>, u64)> {
    (80usize..220, any::<u64>()).prop_map(|(cells, seed)| {
        let cfg = GeneratorConfig::sized(format!("kdiff_{seed}"), cells, seed);
        (Arc::new(CircuitGenerator::new(cfg).generate()), seed)
    })
}

fn evaluator(netlist: &Arc<Netlist>, objectives: Objectives) -> CostEvaluator {
    CostEvaluator::new(Arc::clone(netlist), objectives)
}
const OBJECTIVES: [Objectives; 2] = [
    Objectives::WirelengthPower,
    Objectives::WirelengthPowerDelay,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Cached net lengths track the naive evaluator bit-for-bit through an
    /// arbitrary sequence of rip-up/re-insert and move operations, under both
    /// objective sets.
    #[test]
    fn cache_is_bit_identical_through_mutations(
        (netlist, seed) in arb_netlist(),
        rows in 4usize..10,
        steps in 4usize..24,
    ) {
        for objectives in OBJECTIVES {
            let eval = evaluator(&netlist, objectives);
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xC0FFEE);
            let mut placement = Placement::random(&netlist, rows, &mut rng);
            let mut scorer = TrialScorer::for_evaluator(&eval);
            let mut cache = NetLengthCache::new();
            for _ in 0..steps {
                // Random rip-up / re-insert of a batch of cells, like the
                // allocation operator performs.
                let batch = rng.gen_range(1..5usize);
                let mut cells: Vec<CellId> = Vec::new();
                for _ in 0..batch {
                    let c = CellId(rng.gen_range(0..netlist.num_cells() as u32));
                    if !cells.contains(&c) {
                        cells.push(c);
                    }
                }
                for &c in &cells {
                    placement.remove_cell(c);
                }
                for &c in &cells {
                    let row = rng.gen_range(0..rows);
                    let index = rng.gen_range(0..placement.row(row).len() + 1);
                    placement.insert_cell(c, Slot { row, index });
                }
                let cached = cache.refresh(&eval, &mut scorer, &placement);
                let oracle = eval.net_lengths(&placement);
                prop_assert_eq!(cached.len(), oracle.len());
                for (a, b) in cached.iter().zip(oracle.iter()) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            prop_assert_eq!(cache.full_refreshes(), 1);
        }
    }

    /// A refresh after a pass that changed every row — the allocation
    /// operator's rip-up of a selection spanning all rows followed by its
    /// re-insertion — re-prices every net in net order: the lengths equal
    /// the oracle's to the bit, `nets_recomputed` grows by the net count,
    /// no net takes the trunk-only path and the pass is not a full refresh.
    /// A swap inside one row follows each such pass: its delta refresh must
    /// re-price exactly the nets with a moved pin, which holds only if the
    /// pass re-snapshotted every cell.
    #[test]
    fn refresh_after_every_row_changed_reprices_every_net(
        (netlist, seed) in arb_netlist(),
        rows in 3usize..10,
        rounds in 1usize..5,
    ) {
        let eval = evaluator(&netlist, Objectives::WirelengthPowerDelay);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xA110C);
        let mut placement = Placement::random(&netlist, rows, &mut rng);
        let mut scorer = TrialScorer::for_evaluator(&eval);
        let mut cache = NetLengthCache::new();
        cache.refresh(&eval, &mut scorer, &placement);
        for _ in 0..rounds {
            // One cell of every row, plus a random share of the rest.
            let mut selected: Vec<CellId> = (0..rows)
                .filter(|&r| !placement.row(r).is_empty())
                .map(|r| placement.row(r)[rng.gen_range(0..placement.row(r).len())])
                .collect();
            for c in netlist.cell_ids() {
                if !selected.contains(&c) && rng.gen_bool(0.3) {
                    selected.push(c);
                }
            }
            let epochs: Vec<u64> = (0..rows).map(|r| placement.row_epoch(r)).collect();
            for &c in &selected {
                placement.remove_cell(c);
            }
            for &c in &selected {
                let row = rng.gen_range(0..rows);
                let index = rng.gen_range(0..placement.slots_in_row(row));
                placement.insert_cell(c, Slot { row, index });
            }
            prop_assert!((0..rows).all(|r| placement.row_epoch(r) != epochs[r]));
            let before = (cache.nets_recomputed(), cache.nets_trunk_only());
            let cached = cache.refresh(&eval, &mut scorer, &placement);
            for (a, b) in cached.iter().zip(&eval.net_lengths(&placement)) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            prop_assert_eq!(
                cache.nets_recomputed() - before.0,
                netlist.num_nets() as u64
            );
            prop_assert_eq!(cache.nets_trunk_only(), before.1);

            let row = rng.gen_range(0..rows);
            let cells = placement.row(row).to_vec();
            if cells.len() < 2 {
                continue;
            }
            let (a, b) = (cells[0], cells[rng.gen_range(1..cells.len())]);
            let old: Vec<f64> = cells.iter().map(|&c| placement.x_of(c)).collect();
            placement.swap_cells(a, b);
            let moved: Vec<CellId> = cells
                .iter()
                .zip(&old)
                .filter(|&(&c, &x)| placement.x_of(c).to_bits() != x.to_bits())
                .map(|(&c, _)| c)
                .collect();
            let dirty = netlist
                .net_ids()
                .filter(|&net| eval.net_cells(net).iter().any(|c| moved.contains(c)))
                .count() as u64;
            let before = cache.nets_recomputed();
            let cached = cache.refresh(&eval, &mut scorer, &placement);
            for (a, b) in cached.iter().zip(&eval.net_lengths(&placement)) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            prop_assert_eq!(cache.nets_recomputed() - before, dirty);
        }
        prop_assert_eq!(cache.full_refreshes(), 1);
    }

    /// Kernel trial scoring agrees with the naive `cell_cost_at` oracle to
    /// the bit for arbitrary trial slots of a ripped-up movable cell, on
    /// generated circuits and on mixed-size mix600: both the reference
    /// scorer `prepared_cost_at` and the scorer allocation runs per slot,
    /// `prepare_row` + `cost_at_in_row`.
    #[test]
    fn trial_scoring_is_bit_identical(
        (netlist, seed) in arb_netlist(),
        rows in 4usize..10,
        picks in prop::collection::vec(any::<u64>(), 1..12),
    ) {
        use vlsi_netlist::bench_suite::{mixed_circuit, MixedCircuit};
        let mix = Arc::new(mixed_circuit(MixedCircuit::Mix600));
        for (netlist, rows) in [(netlist, rows), (mix, MixedCircuit::Mix600.num_rows())] {
            let movable: Vec<CellId> = netlist
                .cell_ids()
                .filter(|&c| !netlist.cell(c).fixed)
                .collect();
            for objectives in OBJECTIVES {
                let eval = evaluator(&netlist, objectives);
                let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xBEEF);
                let mut placement = Placement::random(&netlist, rows, &mut rng);
                let mut scorer = TrialScorer::for_evaluator(&eval);
                let mut vertical = Vec::new();
                for &pick in &picks {
                    let cell = movable[(pick % movable.len() as u64) as usize];
                    let home = placement.remove_cell(cell);
                    scorer.prepare_cell(&eval, &placement, cell);
                    let view = scorer.prepared_summaries();
                    for probe in 0..4u64 {
                        let h = pick.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(probe);
                        let row = (h as usize) % rows;
                        let index = (h as usize / rows) % placement.slots_in_row(row);
                        let pos = placement.trial_position(cell, Slot { row, index });
                        let naive = eval.cell_cost_at(&placement, cell, pos);
                        let prepared = scorer.prepared_cost_at(pos);
                        view.prepare_row(row as u32, &mut vertical);
                        let hoisted = view.cost_at_in_row(pos.0, &vertical);
                        for fast in [prepared, hoisted] {
                            for (a, b) in [
                                (naive.wirelength, fast.wirelength),
                                (naive.power, fast.power),
                                (naive.critical_wirelength, fast.critical_wirelength),
                            ] {
                                prop_assert_eq!(a.to_bits(), b.to_bits());
                            }
                        }
                    }
                    placement.insert_cell(cell, home);
                }
            }
        }
    }

    /// The invariants behind the allocation scan's monotone-branch search
    /// (DESIGN.md §3a), pinned against the reference scorer: for arbitrary
    /// ripped-up cells and rows, (a) along the row's slots the row-hoisted
    /// score never rises while x ≤ a and never falls once x ≥ b,
    /// component-wise, and (b) the row-hoisted score equals the full
    /// prepared score bit for bit — on generated circuits and on mixed-size
    /// mix600, under both objective sets.
    #[test]
    fn pruned_scan_bounds_and_hoisted_scores_match_exhaustive(
        (netlist, seed) in arb_netlist(),
        rows in 4usize..10,
        picks in prop::collection::vec(any::<u64>(), 1..8),
    ) {
        use vlsi_netlist::bench_suite::{mixed_circuit, MixedCircuit};
        let mix = Arc::new(mixed_circuit(MixedCircuit::Mix600));
        for (netlist, rows) in [(netlist, rows), (mix, MixedCircuit::Mix600.num_rows())] {
            for objectives in OBJECTIVES {
                let eval = evaluator(&netlist, objectives);
                check_monotone_branches(&eval, rows, seed ^ 0xABCD, &picks);
            }
        }
    }

    /// The trunk-only re-price of nets whose pins only slid along their rows
    /// stays bit-identical to the oracle through the SA/TS move mix — swaps
    /// inside a row and across rows, moves inside a row, and a relocate
    /// undone before the next refresh — on generated circuits, and both the
    /// trunk-only and the full path fire.
    #[test]
    fn trunk_only_refresh_is_bit_identical_through_row_slides(
        (netlist, seed) in arb_netlist(),
        rows in 3usize..9,
        steps in 8usize..32,
    ) {
        let eval = evaluator(&netlist, Objectives::WirelengthPowerDelay);
        drive_row_slides(&eval, rows, seed ^ 0x51DE, steps);
    }

    /// The same on mixed-size mix600, whose blocked spans re-pack the row
    /// suffix behind a moved cell around fixed macros.
    #[test]
    fn trunk_only_refresh_is_bit_identical_on_blocked_rows(seed in any::<u64>()) {
        use vlsi_netlist::bench_suite::{mixed_circuit, MixedCircuit};
        let netlist = Arc::new(mixed_circuit(MixedCircuit::Mix600));
        let eval = evaluator(&netlist, Objectives::WirelengthPowerDelay);
        drive_row_slides(&eval, MixedCircuit::Mix600.num_rows(), seed, 24);
    }

    /// A fresh cache's first (full) refresh equals the oracle's
    /// `net_length` for every net of a random placement, net by net.
    #[test]
    fn net_lengths_are_bit_identical((netlist, seed) in arb_netlist(), rows in 3usize..9) {
        let eval = evaluator(&netlist, Objectives::WirelengthPower);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xFACE);
        let placement = Placement::random(&netlist, rows, &mut rng);
        let mut scorer = TrialScorer::for_evaluator(&eval);
        let mut cache = NetLengthCache::new();
        let cached = cache.refresh(&eval, &mut scorer, &placement);
        prop_assert_eq!(cached.len(), netlist.num_nets());
        for net in netlist.net_ids() {
            let naive = eval.net_length(&placement, net);
            prop_assert_eq!(naive.to_bits(), cached[net.index()].to_bits());
        }
        prop_assert_eq!(cache.full_refreshes(), 1);
    }

    /// The engine's goodness pass (`all_goodness_with` on cached lengths)
    /// equals the sort-based oracle `all_goodness` to the bit on every
    /// evaluated cell, without a mask and under a Type II-style mask that
    /// freezes fixed cells and every other row, on generated circuits and
    /// on mixed-size mix600, under both objective sets.
    #[test]
    fn goodness_pass_is_bit_identical((netlist, seed) in arb_netlist(), rows in 3usize..9) {
        use vlsi_netlist::bench_suite::{mixed_circuit, MixedCircuit};
        let mix = Arc::new(mixed_circuit(MixedCircuit::Mix600));
        for (netlist, rows) in [(netlist, rows), (mix, MixedCircuit::Mix600.num_rows())] {
            for objectives in OBJECTIVES {
                let goodness = GoodnessEvaluator::new(evaluator(&netlist, objectives));
                let eval = goodness.evaluator();
                let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x600D);
                let placement = Placement::random(&netlist, rows, &mut rng);
                let mut cache = NetLengthCache::new();
                let lengths = cache
                    .refresh(eval, &mut TrialScorer::for_evaluator(eval), &placement)
                    .to_vec();
                let oracle = goodness.all_goodness(&placement);
                let striped: Vec<bool> = netlist
                    .cell_ids()
                    .map(|c| placement.is_fixed(c) || placement.row_of(c) % 2 == 1)
                    .collect();
                let mut scratch = GoodnessScratch::default();
                let mut pass = Vec::new();
                for frozen in [&[][..], &striped[..]] {
                    goodness.all_goodness_with(&mut scratch, &placement, &lengths, frozen, &mut pass);
                    prop_assert_eq!(pass.len(), oracle.len());
                    for c in netlist.cell_ids().filter(|c| frozen.is_empty() || !frozen[c.index()]) {
                        prop_assert_eq!(pass[c.index()].to_bits(), oracle[c.index()].to_bits());
                    }
                }
            }
        }
    }
}

/// The row-hoisted score (`prepare_row`'s O(1) vertical term +
/// `cost_at_in_row`) equals the reference per-pin branch sum of
/// `prepared_cost_at` to the bit for every candidate row of every movable
/// cell — rows inside and outside the other pins' extent, past the layout's
/// last row too — on a random s1196 placement and on mixed-size mix600.
/// The circuits must contain 2-pin nets, nets
/// whose other pins share one row, and nets with even and odd pin counts,
/// the cases an off-by-one in the order statistics would miss.
#[test]
fn hoisted_vertical_term_matches_the_reference_scorer_on_every_row() {
    use vlsi_netlist::bench_suite::{MixedCircuit, PaperCircuit, SuiteCircuit};
    for circuit in [
        SuiteCircuit::Paper(PaperCircuit::S1196),
        SuiteCircuit::Mixed(MixedCircuit::Mix600),
    ] {
        let netlist = Arc::new(circuit.generate());
        let rows = circuit.num_rows();
        let (mut two_pin, mut one_row, mut even, mut odd) = (false, false, false, false);
        let eval = evaluator(&netlist, Objectives::WirelengthPowerDelay);
        let mut rng = ChaCha8Rng::seed_from_u64(0x5EED);
        let mut placement = Placement::random(&netlist, rows, &mut rng);
        let mut scorer = TrialScorer::for_evaluator(&eval);
        let mut vertical = Vec::new();
        for cell in netlist.cell_ids().filter(|&c| !netlist.cell(c).fixed) {
            let home = placement.remove_cell(cell);
            for &net in netlist.nets_of_cell(cell) {
                let pins = eval.net_cells(net);
                two_pin |= pins.len() == 2;
                even |= pins.len().is_multiple_of(2);
                odd |= !pins.len().is_multiple_of(2);
                let mut other_rows = pins
                    .iter()
                    .filter(|&&c| c != cell)
                    .map(|&c| placement.row_of(c));
                let first = other_rows.next();
                one_row |= pins.len() > 2 && other_rows.all(|r| Some(r) == first);
            }
            scorer.prepare_cell(&eval, &placement, cell);
            let view = scorer.prepared_summaries();
            for row in 0..rows + 3 {
                view.prepare_row(row as u32, &mut vertical);
                let y = (row as f64 + 0.5) * vlsi_place::layout::ROW_HEIGHT;
                for x in [0.5, placement.x_of(cell), 1e4 + 0.5] {
                    let exact = scorer.prepared_cost_at((x, y));
                    let hoisted = view.cost_at_in_row(x, &vertical);
                    for (a, b) in [
                        (exact.wirelength, hoisted.wirelength),
                        (exact.power, hoisted.power),
                        (exact.critical_wirelength, hoisted.critical_wirelength),
                    ] {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "{circuit}: cell {cell} row {row} x {x}"
                        );
                    }
                }
            }
            placement.insert_cell(cell, home);
        }
        assert!(
            two_pin && one_row && even && odd,
            "{circuit}: 2-pin {two_pin}, one-row {one_row}, even {even}, odd {odd}"
        );
    }
}

/// Rips up the movable cell each of `picks` names in a random placement and
/// walks every slot of a row it names, in ascending x: the row-hoisted score
/// must equal `prepared_cost_at` to the bit and be component-wise
/// non-increasing up to `a` and non-decreasing from `b`, where
/// `(a, b) = monotone_branches()`.
fn check_monotone_branches(eval: &CostEvaluator, rows: usize, seed: u64, picks: &[u64]) {
    let netlist = eval.netlist();
    let le = |p: &CellCost, q: &CellCost| {
        p.wirelength <= q.wirelength
            && p.power <= q.power
            && p.critical_wirelength <= q.critical_wirelength
    };
    let movable: Vec<CellId> = netlist
        .cell_ids()
        .filter(|&c| !netlist.cell(c).fixed)
        .collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut placement = Placement::random(netlist, rows, &mut rng);
    let mut scorer = TrialScorer::for_evaluator(eval);
    let mut vertical: Vec<f64> = Vec::new();
    for &pick in picks {
        let cell = movable[(pick % movable.len() as u64) as usize];
        let home = placement.remove_cell(cell);
        scorer.prepare_cell(eval, &placement, cell);
        let view = scorer.prepared_summaries();
        let (a, b) = view.monotone_branches();
        let row = (pick.wrapping_mul(0x9E3779B97F4A7C15) >> 32) as usize % rows;
        view.prepare_row(row as u32, &mut vertical);
        let mut last: Option<(f64, CellCost)> = None;
        for index in 0..placement.slots_in_row(row) {
            let pos = placement.trial_position(cell, Slot { row, index });
            let hoisted = view.cost_at_in_row(pos.0, &vertical);
            let exact = scorer.prepared_cost_at(pos);
            for (h, e) in [
                (hoisted.wirelength, exact.wirelength),
                (hoisted.power, exact.power),
                (hoisted.critical_wirelength, exact.critical_wirelength),
            ] {
                assert_eq!(
                    h.to_bits(),
                    e.to_bits(),
                    "cell {cell} row {row} x {}",
                    pos.0
                );
            }
            if let Some((x, prev)) = last {
                assert!(x <= pos.0, "slots ascend in x");
                if pos.0 <= a {
                    assert!(le(&hoisted, &prev), "score rose at x {} ≤ a {a}", pos.0);
                }
                if x >= b {
                    assert!(le(&prev, &hoisted), "score fell at x {} ≥ b {b}", pos.0);
                }
            }
            last = Some((pos.0, hoisted));
        }
        placement.insert_cell(cell, home);
    }
}

/// Applies `steps` SA/TS-style mutations to a random placement, cycling
/// through a swap inside one row, a swap across rows, a move inside a row
/// and a relocate followed by its undo, and refreshes a [`NetLengthCache`]
/// after each; every refresh must equal `eval.net_lengths` to the bit.
/// Asserts that both the trunk-only and the full re-price fired.
fn drive_row_slides(eval: &CostEvaluator, rows: usize, seed: u64, steps: usize) {
    let netlist = eval.netlist();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut placement = Placement::random(netlist, rows, &mut rng);
    let movable: Vec<CellId> = netlist
        .cell_ids()
        .filter(|&c| !placement.is_fixed(c))
        .collect();
    let mut scorer = TrialScorer::for_evaluator(eval);
    let mut cache = NetLengthCache::new();
    cache.refresh(eval, &mut scorer, &placement);
    for step in 0..steps {
        let a = movable[rng.gen_range(0..movable.len())];
        let row = placement.row_of(a);
        // A movable cell other than `a`, inside `a`'s row or outside it.
        let mut mate = |same_row: bool, placement: &Placement| {
            let mates: Vec<CellId> = movable
                .iter()
                .copied()
                .filter(|&c| c != a && (placement.row_of(c) == row) == same_row)
                .collect();
            (!mates.is_empty()).then(|| mates[rng.gen_range(0..mates.len())])
        };
        match step % 4 {
            0 | 1 => {
                if let Some(b) = mate(step % 4 == 0, &placement) {
                    placement.swap_cells(a, b);
                }
            }
            2 => {
                let index = rng.gen_range(0..placement.row(row).len());
                placement.move_cell(a, Slot { row, index });
            }
            _ => {
                let home = placement.slot_of(a);
                let to = rng.gen_range(0..rows);
                let index = rng.gen_range(0..placement.slots_in_row(to));
                placement.move_cell(a, Slot { row: to, index });
                placement.move_cell(a, home);
            }
        }
        let cached = cache.refresh(eval, &mut scorer, &placement);
        let oracle = eval.net_lengths(&placement);
        for (n, (x, y)) in cached.iter().zip(&oracle).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "step {step} net {n}");
        }
    }
    assert_eq!(cache.full_refreshes(), 1);
    let trunk_only = cache.nets_trunk_only();
    let full = cache.nets_recomputed() - trunk_only;
    assert!(
        trunk_only > 0 && full > 0,
        "trunk-only {trunk_only}, full {full}"
    );
}
