//! Criterion benchmarks of the three parallel strategies (wall-clock cost of
//! a short run of each, plus the serial engine for reference). These measure
//! the *host* execution cost of the strategy simulations — the reproduced
//! cluster runtimes come from the virtual-time model and are reported by the
//! table binaries instead.

use cluster_sim::timeline::ClusterConfig;
use criterion::{criterion_group, criterion_main, Criterion};
use sime_core::engine::{SimEConfig, SimEEngine};
use sime_parallel::control::FreeRun;
use sime_parallel::exec::Modeled;
use sime_parallel::type1::{run_type1, Type1Config};
use sime_parallel::type2::{run_type2, RowPattern, Type2Config};
use sime_parallel::type3::{run_type3, Type3Config};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;
use vlsi_netlist::generator::{CircuitGenerator, GeneratorConfig};
use vlsi_place::cost::Objectives;

const ITERATIONS: usize = 10;

fn strategies(c: &mut Criterion) {
    let netlist = Arc::new(
        CircuitGenerator::new(GeneratorConfig::sized("bench_parallel", 200, 21)).generate(),
    );
    let config = SimEConfig::paper_defaults(Objectives::WirelengthPower, 10, ITERATIONS);
    let engine = SimEEngine::new(netlist, config);

    let mut group = c.benchmark_group("parallel_strategies_200cells_10iter");
    group
        .measurement_time(Duration::from_secs(4))
        .sample_size(10);

    group.bench_function("serial", |b| b.iter(|| black_box(engine.run())));

    group.bench_function("type1_p4", |b| {
        b.iter(|| {
            black_box(run_type1(
                &engine,
                ClusterConfig::paper_cluster(4),
                Type1Config {
                    ranks: 4,
                    iterations: ITERATIONS,
                },
                &Modeled,
                &FreeRun,
            ))
        })
    });

    group.bench_function("type2_random_p4", |b| {
        b.iter(|| {
            black_box(run_type2(
                &engine,
                ClusterConfig::paper_cluster(4),
                Type2Config {
                    ranks: 4,
                    iterations: ITERATIONS,
                    pattern: RowPattern::Random,
                },
                &Modeled,
                &FreeRun,
            ))
        })
    });

    group.bench_function("type3_p4_retry5", |b| {
        b.iter(|| {
            black_box(run_type3(
                &engine,
                ClusterConfig::paper_cluster(4),
                Type3Config {
                    ranks: 4,
                    iterations: ITERATIONS,
                    retry_threshold: 5,
                },
                &Modeled,
                &FreeRun,
            ))
        })
    });

    group.finish();
}

criterion_group!(benches, strategies);
criterion_main!(benches);
