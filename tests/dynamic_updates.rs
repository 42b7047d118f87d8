//! Integration tests for the "anywhere" half: long mixed sequences of
//! dynamic updates interleaved with recombination steps must always converge
//! to exactly the oracle APSP of the final graph.

use aa_core::{
    AdditionStrategy, AnytimeEngine, Endpoint, EngineConfig, PartitionerKind, RepartitionMode,
    VertexBatch,
};
use aa_graph::{algo, generators, VertexId};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

fn engine(n: usize, procs: usize, seed: u64) -> AnytimeEngine {
    let graph = generators::barabasi_albert(n, 2, 3, seed);
    let mut e = AnytimeEngine::new(
        graph,
        EngineConfig {
            num_procs: procs,
            seed,
            ..Default::default()
        },
    );
    e.initialize();
    e
}

fn assert_oracle(engine: &AnytimeEngine) {
    let dense = engine.distances_dense();
    let oracle = algo::apsp_dijkstra(engine.graph());
    for v in 0..engine.graph().capacity() {
        if engine.graph().is_alive(v as VertexId) {
            assert_eq!(dense[v], oracle[v], "row {v} differs from oracle");
        }
    }
}

fn random_batch(existing: &aa_graph::Graph, count: usize, seed: u64) -> VertexBatch {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let ids: Vec<VertexId> = existing.vertices().collect();
    let mut batch = VertexBatch::new(count);
    for i in 0..count {
        if i > 0 && rng.gen_bool(0.5) {
            batch.connect(i, Endpoint::New(rng.gen_range(0..i)), rng.gen_range(1..4));
        }
        batch.connect(
            i,
            Endpoint::Existing(ids[rng.gen_range(0..ids.len())]),
            rng.gen_range(1..4),
        );
    }
    batch
}

#[test]
fn long_mixed_update_sequence_matches_oracle() {
    let mut e = engine(70, 4, 21);
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    e.run_to_convergence(64);
    for round in 0..12u64 {
        match round % 4 {
            0 => {
                // A couple of random new edges between live vertices.
                let ids: Vec<VertexId> = e.graph().vertices().collect();
                for _ in 0..2 {
                    let u = ids[rng.gen_range(0..ids.len())];
                    let v = ids[rng.gen_range(0..ids.len())];
                    if u != v {
                        e.add_edge(u, v, rng.gen_range(1..5));
                    }
                }
            }
            1 => {
                // Delete a random existing edge.
                let edges: Vec<_> = e.graph().edges().collect();
                let (u, v, _) = edges[rng.gen_range(0..edges.len())];
                assert!(e.delete_edge(u, v));
            }
            2 => {
                // A small vertex batch via alternating strategies.
                let strategy = if round % 8 == 2 {
                    AdditionStrategy::RoundRobinPs
                } else {
                    AdditionStrategy::CutEdgePs
                };
                let batch = random_batch(e.graph(), 3, 1000 + round);
                e.add_vertices(&batch, strategy);
            }
            _ => {
                // Change a random edge weight (up or down).
                let edges: Vec<_> = e.graph().edges().collect();
                let (u, v, w) = edges[rng.gen_range(0..edges.len())];
                let new_w = if rng.gen_bool(0.5) {
                    w + 2
                } else {
                    (w - 1).max(1)
                };
                e.change_edge_weight(u, v, new_w);
            }
        }
        e.rc_step(); // keep the analysis flowing between updates
    }
    e.run_to_convergence(128);
    assert!(e.is_converged());
    assert_oracle(&e);
    e.check_invariants().unwrap();
}

#[test]
fn vertex_deletions_interleaved_with_additions() {
    let mut e = engine(60, 4, 23);
    e.run_to_convergence(64);
    for round in 0..4u64 {
        let batch = random_batch(e.graph(), 4, 2000 + round);
        e.add_vertices(&batch, AdditionStrategy::RoundRobinPs);
        e.rc_step();
        let victim = e
            .graph()
            .vertices()
            .nth((round as usize * 7) % e.graph().vertex_count())
            .unwrap();
        e.delete_vertex(victim);
        e.rc_step();
    }
    e.run_to_convergence(128);
    assert!(e.is_converged());
    assert_oracle(&e);
    e.check_invariants().unwrap();
}

#[test]
fn repartition_modes_all_converge_to_oracle() {
    for mode in [
        RepartitionMode::AdaptiveMultilevel,
        RepartitionMode::FullRemap,
        RepartitionMode::Adaptive,
    ] {
        let graph = generators::barabasi_albert(60, 2, 2, 25);
        let mut e = AnytimeEngine::new(
            graph,
            EngineConfig {
                num_procs: 4,
                repartition: mode,
                ..Default::default()
            },
        );
        e.initialize();
        e.run_to_convergence(64);
        let batch = random_batch(e.graph(), 10, 31);
        e.add_vertices(&batch, AdditionStrategy::RepartitionS);
        e.run_to_convergence(96);
        assert!(e.is_converged(), "{mode:?} did not converge");
        assert_oracle(&e);
        e.check_invariants().unwrap();
    }
}

#[test]
fn repeated_repartitions_stay_consistent() {
    let mut e = engine(50, 4, 27);
    e.run_to_convergence(64);
    for round in 0..5u64 {
        let batch = random_batch(e.graph(), 5, 3000 + round);
        e.add_vertices(&batch, AdditionStrategy::RepartitionS);
        e.rc_step();
    }
    e.run_to_convergence(128);
    assert_oracle(&e);
    e.check_invariants().unwrap();
    assert_eq!(e.graph().vertex_count(), 75);
}

/// Migration in the middle of recombination: the moved rows meet new local
/// neighbours while their latest improvements are still in flight, so the
/// receiving rank must settle them against each other before relying on
/// the worklist again.
#[test]
fn rebalance_mid_convergence_matches_oracle() {
    for seed in [0u64, 5, 6, 11] {
        let n = 40 + (seed as usize % 5) * 20;
        let graph = if seed % 2 == 0 {
            generators::barabasi_albert(n, 2, 3, seed)
        } else {
            generators::erdos_renyi_gnm(n, n * 2, 4, seed)
        };
        let mut e = AnytimeEngine::new(
            graph,
            EngineConfig {
                num_procs: 4,
                seed,
                partitioner: PartitionerKind::RoundRobin,
                ..Default::default()
            },
        );
        e.initialize();
        e.rc_step();
        e.rc_step();
        assert!(e.rebalance() > 0, "seed {seed}: nothing migrated");
        e.run_to_convergence(200);
        assert!(e.is_converged(), "seed {seed} did not converge");
        assert_oracle(&e);
        e.check_invariants().unwrap();
    }
}

#[test]
fn restart_and_incremental_agree_after_identical_updates() {
    let batch = random_batch(&generators::barabasi_albert(50, 2, 3, 29), 6, 41);
    let mut incremental = engine(50, 4, 29);
    incremental.run_to_convergence(64);
    incremental.add_vertices(&batch, AdditionStrategy::CutEdgePs);
    incremental.run_to_convergence(96);

    let mut restarted = engine(50, 4, 29);
    restarted.run_to_convergence(64);
    restarted.add_vertices(&batch, AdditionStrategy::BaselineRestart);
    restarted.run_to_convergence(96);

    assert_eq!(
        incremental.distances_dense(),
        restarted.distances_dense(),
        "incremental and restart must agree on the final distances"
    );
}

#[test]
fn update_rejections_leave_state_intact() {
    let mut e = engine(40, 3, 31);
    e.run_to_convergence(64);
    let before = e.distances_dense();
    // All of these are no-ops.
    let (u, v, w) = e.graph().edges().next().unwrap();
    assert!(!e.add_edge(u, v, 9), "duplicate edge");
    assert!(!e.delete_edge(0, 0), "self loop never exists");
    assert!(!e.change_edge_weight(u, v, w), "same weight");
    assert_eq!(e.distances_dense(), before);
    assert!(e.is_converged());
}

#[test]
fn dynamic_closeness_tracks_graph_evolution() {
    // Adding a shortcut edge to a peripheral vertex must raise its closeness.
    let mut e = engine(80, 4, 33);
    e.run_to_convergence(64);
    let snap_before = e.snapshot();
    let hub = snap_before.top_k(1)[0].0;
    // Most peripheral live vertex: lowest non-zero closeness.
    let periph = e
        .graph()
        .vertices()
        .filter(|&v| v != hub)
        .min_by(|&a, &b| {
            snap_before.closeness[a as usize]
                .partial_cmp(&snap_before.closeness[b as usize])
                .unwrap()
        })
        .unwrap();
    e.add_edge(periph, hub, 1);
    e.run_to_convergence(64);
    let snap_after = e.snapshot();
    assert!(
        snap_after.closeness[periph as usize] > snap_before.closeness[periph as usize],
        "a shortcut to the hub must raise closeness: {} -> {}",
        snap_before.closeness[periph as usize],
        snap_after.closeness[periph as usize]
    );
}
