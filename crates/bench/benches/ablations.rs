//! Ablation benches for the design choices DESIGN.md calls out: refinement
//! strategy, partitioner, communication schedule, message-size bound,
//! processor count, and Repartition-S flavour. Each reports the *virtual*
//! cluster makespan of the end-to-end pipeline (returned value) while
//! criterion tracks host wall time.

use aa_bench::workload::community_vertex_batch;
use aa_core::{
    AdditionStrategy, AnytimeEngine, EngineConfig, PartitionerKind, Refinement, RepartitionMode,
};
use aa_graph::generators;
use aa_logp::LogPParams;
use aa_runtime::ExchangeMode;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

const N: usize = 600;
const SEED: u64 = 0xAB1A;

fn run_static(config: EngineConfig) -> f64 {
    let g = generators::barabasi_albert(N, 2, 1, SEED);
    let mut e = AnytimeEngine::new(g, config);
    e.initialize();
    e.run_to_convergence(96);
    assert!(e.is_converged());
    e.makespan_us()
}

/// WorklistRelax vs PivotPass refinement (the papers' Floyd–Warshall option).
fn ablation_recombination(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_recombination");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(800));
    for refinement in [Refinement::WorklistRelax, Refinement::PivotPass] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{refinement:?}")),
            &refinement,
            |b, &refinement| {
                b.iter(|| {
                    run_static(EngineConfig {
                        num_procs: 8,
                        refinement,
                        ..Default::default()
                    })
                });
            },
        );
    }
    group.finish();
}

/// Domain-decomposition partitioner quality → end-to-end cost.
fn ablation_partitioner(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_partitioner");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(800));
    for kind in [
        PartitionerKind::Multilevel,
        PartitionerKind::BfsGrow,
        PartitionerKind::RoundRobin,
        PartitionerKind::Hash,
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{kind:?}")),
            &kind,
            |b, &kind| {
                b.iter(|| {
                    run_static(EngineConfig {
                        num_procs: 8,
                        partitioner: kind,
                        ..Default::default()
                    })
                });
            },
        );
    }
    group.finish();
}

/// The papers' serialized one-message-at-a-time schedule vs round-based
/// pairwise exchange.
fn ablation_exchange_schedule(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_exchange_schedule");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(800));
    for mode in [ExchangeMode::Serialized, ExchangeMode::RoundBased] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{mode:?}")),
            &mode,
            |b, &mode| {
                b.iter(|| {
                    run_static(EngineConfig {
                        num_procs: 8,
                        exchange: mode,
                        ..Default::default()
                    })
                });
            },
        );
    }
    group.finish();
}

/// Bounded message size `M` ("chosen such that the network remains lightly
/// loaded"): sweep the cap.
fn ablation_msg_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_msg_size");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(800));
    for kib in [4usize, 64, 1024] {
        group.bench_with_input(BenchmarkId::from_parameter(kib), &kib, |b, &kib| {
            b.iter(|| {
                run_static(EngineConfig {
                    num_procs: 8,
                    logp: LogPParams {
                        max_msg_bytes: kib * 1024,
                        ..LogPParams::ethernet_1gbe()
                    },
                    ..Default::default()
                })
            });
        });
    }
    group.finish();
}

/// Static-analysis scaling with the processor count.
fn ablation_proc_count(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_proc_count");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(800));
    for p in [2usize, 4, 8, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(p), &p, |b, &p| {
            b.iter(|| {
                run_static(EngineConfig {
                    num_procs: p,
                    ..Default::default()
                })
            });
        });
    }
    group.finish();
}

/// Repartition-S flavour: ParMETIS-style adaptive multilevel vs full fresh
/// repartition (label-remapped) vs flat refinement.
fn ablation_repartition_mode(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_repartition_mode");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_millis(800));
    for mode in [
        RepartitionMode::AdaptiveMultilevel,
        RepartitionMode::FullRemap,
        RepartitionMode::Adaptive,
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{mode:?}")),
            &mode,
            |b, &mode| {
                b.iter(|| {
                    let g = generators::barabasi_albert(N, 2, 1, SEED);
                    let mut e = AnytimeEngine::new(
                        g,
                        EngineConfig {
                            num_procs: 8,
                            repartition: mode,
                            ..Default::default()
                        },
                    );
                    e.initialize();
                    e.run_to_convergence(64);
                    let batch = community_vertex_batch(e.graph(), 30, SEED ^ 1);
                    e.add_vertices(&batch, AdditionStrategy::RepartitionS);
                    e.run_to_convergence(96);
                    assert!(e.is_converged());
                    e.makespan_us()
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    ablations,
    ablation_recombination,
    ablation_partitioner,
    ablation_exchange_schedule,
    ablation_msg_size,
    ablation_proc_count,
    ablation_repartition_mode
);
criterion_main!(ablations);
