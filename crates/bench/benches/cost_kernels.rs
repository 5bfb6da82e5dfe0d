//! Criterion microbenchmarks of the cost-model kernels: the per-net
//! wirelength estimators, full-placement evaluation and per-cell goodness.
//! These are the kernels whose relative costs drive the Section 4 profile.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;
use vlsi_netlist::bench_suite::{paper_circuit, PaperCircuit};
use vlsi_netlist::CellId;
use vlsi_place::cost::{CostEvaluator, Objectives};
use vlsi_place::goodness::{GoodnessEvaluator, GoodnessScratch};
use vlsi_place::kernel::{NetLengthCache, TrialScorer};
use vlsi_place::layout::{Placement, Slot};
use vlsi_place::wirelength::{hpwl, single_trunk_steiner};

fn bench_estimators(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let pins: Vec<(f64, f64)> = (0..8)
        .map(|_| {
            (
                rand::Rng::gen_range(&mut rng, 0.0..500.0),
                rand::Rng::gen_range(&mut rng, 0.0..120.0),
            )
        })
        .collect();
    let mut group = c.benchmark_group("wirelength_estimators");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(50);
    group.bench_function("single_trunk_steiner_8pin", |b| {
        b.iter(|| black_box(single_trunk_steiner(black_box(&pins))))
    });
    group.bench_function("hpwl_8pin", |b| {
        b.iter(|| black_box(hpwl(black_box(&pins))))
    });
    group.finish();
}

fn bench_full_evaluation(c: &mut Criterion) {
    let netlist = Arc::new(paper_circuit(PaperCircuit::S1196));
    let mut group = c.benchmark_group("full_evaluation_s1196");
    group
        .measurement_time(Duration::from_secs(3))
        .sample_size(30);
    for objectives in [
        Objectives::WirelengthPower,
        Objectives::WirelengthPowerDelay,
    ] {
        let evaluator = CostEvaluator::new(Arc::clone(&netlist), objectives);
        let placement = Placement::round_robin(&netlist, PaperCircuit::S1196.num_rows());
        group.bench_function(objectives.label(), |b| {
            b.iter(|| black_box(evaluator.evaluate(black_box(&placement))))
        });
    }
    group.finish();
}

fn bench_goodness(c: &mut Criterion) {
    let netlist = Arc::new(paper_circuit(PaperCircuit::S1196));
    let evaluator = CostEvaluator::new(Arc::clone(&netlist), Objectives::WirelengthPowerDelay);
    let goodness = GoodnessEvaluator::new(evaluator.clone());
    let placement = Placement::round_robin(&netlist, PaperCircuit::S1196.num_rows());
    let mut group = c.benchmark_group("goodness_s1196");
    group
        .measurement_time(Duration::from_secs(3))
        .sample_size(30);
    let lengths = evaluator.net_lengths(&placement);
    let mut scratch = GoodnessScratch::for_evaluator(&evaluator);
    let mut out = Vec::new();
    group.bench_function("all_cells", |b| {
        b.iter(|| {
            goodness.all_goodness_with(&mut scratch, &placement, &lengths, &[], &mut out);
            black_box(out.len())
        })
    });
    group.finish();
}

/// Naive-vs-kernel head-to-head (the PR 2 speedup claim, reproducible with
/// `cargo bench -p bench --bench cost_kernels -- naive_vs_kernel`):
/// trial scoring of one cell over a window of slots, a full net-length
/// evaluation, and a delta re-evaluation after k cell moves.
fn bench_naive_vs_kernel(c: &mut Criterion) {
    let netlist = Arc::new(paper_circuit(PaperCircuit::S1196));
    let evaluator = CostEvaluator::new(Arc::clone(&netlist), Objectives::WirelengthPower);
    let rows = PaperCircuit::S1196.num_rows();
    let placement = Placement::round_robin(&netlist, rows);
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let cell = netlist
        .cell_ids()
        .max_by_key(|&c| netlist.nets_of_cell(c).len())
        .unwrap();
    let slots: Vec<Slot> = (0..48)
        .map(|_| {
            let row = rng.gen_range(0..rows);
            Slot {
                row,
                index: rng.gen_range(0..placement.row(row).len() + 1),
            }
        })
        .collect();

    let mut group = c.benchmark_group("naive_vs_kernel_s1196");
    group
        .measurement_time(Duration::from_secs(2))
        .sample_size(30);

    // -- Trial scoring: one ripped-up cell scored at 48 candidate slots.
    let mut ripped = placement.clone();
    ripped.remove_cell(cell);
    group.bench_function("trial_scoring_48slots/naive", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for &slot in &slots {
                let pos = ripped.trial_position(cell, slot);
                acc += evaluator.cell_cost_at(&ripped, cell, pos).wirelength;
            }
            black_box(acc)
        })
    });
    group.bench_function("trial_scoring_48slots/kernel", |b| {
        let mut scorer = TrialScorer::for_evaluator(&evaluator);
        b.iter(|| {
            let mut acc = 0.0;
            scorer.prepare_cell(&evaluator, &ripped, cell);
            for &slot in &slots {
                let pos = ripped.trial_position(cell, slot);
                acc += scorer.prepared_cost_at(pos).wirelength;
            }
            black_box(acc)
        })
    });

    // -- Full evaluation of every net length.
    group.bench_function("full_net_lengths/naive", |b| {
        b.iter(|| black_box(evaluator.net_lengths(black_box(&placement))))
    });
    group.bench_function("full_net_lengths/kernel", |b| {
        let mut scorer = TrialScorer::for_evaluator(&evaluator);
        b.iter_batched(
            NetLengthCache::new,
            |mut cache| {
                cache.refresh(&evaluator, &mut scorer, &placement);
                black_box(cache.lengths().len())
            },
            BatchSize::SmallInput,
        )
    });

    // -- Delta evaluation: k = 8 cell moves, then re-evaluate all lengths.
    let moves: Vec<(CellId, Slot)> = (0..8)
        .map(|i| {
            let c = CellId((i * 37) % netlist.num_cells() as u32);
            let row = (i as usize * 3) % rows;
            (c, Slot { row, index: 0 })
        })
        .collect();
    group.bench_function("delta_after_8_moves/naive", |b| {
        b.iter_batched(
            || placement.clone(),
            |mut p| {
                for &(c, s) in &moves {
                    p.move_cell(c, s);
                }
                black_box(evaluator.net_lengths(&p))
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("delta_after_8_moves/kernel", |b| {
        b.iter_batched(
            || {
                // Untimed: sync a cache with a fresh clone of the placement.
                let p = placement.clone();
                let mut scorer = TrialScorer::for_evaluator(&evaluator);
                let mut cache = NetLengthCache::new();
                cache.refresh(&evaluator, &mut scorer, &p);
                (p, cache, scorer)
            },
            |(mut p, mut cache, mut scorer)| {
                for &(c, s) in &moves {
                    p.move_cell(c, s);
                }
                cache.refresh(&evaluator, &mut scorer, &p);
                black_box(cache.lengths().len())
            },
            BatchSize::SmallInput,
        )
    });

    group.finish();
}

criterion_group!(
    benches,
    bench_estimators,
    bench_full_evaluation,
    bench_goodness,
    bench_naive_vs_kernel
);
criterion_main!(benches);
