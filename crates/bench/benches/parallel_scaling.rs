//! Experiment E8 — host wall-clock scaling of the `Threaded` execution
//! backend versus the `Modeled` (inline) backend, at 1/2/4 OS workers.
//!
//! This measures *real* shared-memory parallelism, not the virtual-time
//! model: the modeled cluster runtimes of the reproduced tables are identical
//! across backends by the determinism contract (`DESIGN.md` §4); what the
//! threaded backend buys is wall-clock, and only on hosts with enough cores.
//! Type III is the headline workload (its `p − 1` full SimE iterations per
//! generation are embarrassingly parallel); Type II adds a domain-decomposed
//! workload whose tasks are ~1/p of an iteration each.
//!
//! `perf_report` runs the same matrix at reduced scale and emits
//! `BENCH_PR3.json` with the measured speedups plus the host's available
//! parallelism, so CI archives the scaling trajectory per run.

use cluster_sim::timeline::ClusterConfig;
use criterion::{criterion_group, criterion_main, Criterion};
use sime_core::engine::{SimEConfig, SimEEngine};
use sime_parallel::control::FreeRun;
use sime_parallel::exec::{ExecBackend, Modeled, Threaded};
use sime_parallel::type2::{run_type2, RowPattern, Type2Config};
use sime_parallel::type3::{run_type3, Type3Config};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;
use vlsi_netlist::bench_suite::{paper_circuit, PaperCircuit};
use vlsi_place::cost::Objectives;

const ITERATIONS: usize = 8;

fn scaling(c: &mut Criterion) {
    let circuit = PaperCircuit::S1196;
    let netlist = Arc::new(paper_circuit(circuit));
    let config =
        SimEConfig::paper_defaults(Objectives::WirelengthPower, circuit.num_rows(), ITERATIONS);
    let engine = SimEEngine::new(netlist, config);

    let mut group = c.benchmark_group("parallel_scaling_s1196");
    group
        .measurement_time(Duration::from_secs(4))
        .sample_size(10);

    let backends: Vec<(&str, Box<dyn ExecBackend>)> = vec![
        ("modeled", Box::new(Modeled)),
        ("threaded_w1", Box::new(Threaded::new(1))),
        ("threaded_w2", Box::new(Threaded::new(2))),
        ("threaded_w4", Box::new(Threaded::new(4))),
    ];

    for (label, backend) in &backends {
        group.bench_function(format!("type3_p5/{label}"), |b| {
            b.iter(|| {
                black_box(run_type3(
                    &engine,
                    ClusterConfig::paper_cluster(5),
                    Type3Config {
                        ranks: 5,
                        iterations: ITERATIONS,
                        retry_threshold: 5,
                    },
                    backend.as_ref(),
                    &FreeRun,
                ))
            })
        });
    }

    for (label, backend) in &backends {
        group.bench_function(format!("type2_random_p4/{label}"), |b| {
            b.iter(|| {
                black_box(run_type2(
                    &engine,
                    ClusterConfig::paper_cluster(4),
                    Type2Config {
                        ranks: 4,
                        iterations: ITERATIONS,
                        pattern: RowPattern::Random,
                    },
                    backend.as_ref(),
                    &FreeRun,
                ))
            })
        });
    }

    group.finish();
}

criterion_group!(benches, scaling);
criterion_main!(benches);
