//! `static-rmat12`: one analysis of an R-MAT graph, from `initialize()`
//! through `rc_step()` until converged, then `snapshot()`.
//!
//! Stresses partition, initial approximation and the RC kernel at full
//! size; ingest, durable, query and serve do no work.

use crate::oracle::{check_ranking, Oracle};
use crate::stats::{imbalance, peak_rss_mb, reset_peak_rss};
use crate::trace::Tracer;
use crate::{engine_config, rmat_graph, step_budget, Pass, Size, PROCS, TOP_K};
use aa_core::AnytimeEngine;
use aa_logp::Phase;
use aa_partition::quality::edge_cut;
use std::time::Instant;

/// A built, uninitialized engine over the workload's graph.
pub fn setup(size: &Size, seed: u64) -> AnytimeEngine {
    AnytimeEngine::new(rmat_graph(size.static_scale, seed), engine_config(seed))
}

/// One analysis: set-up, the timed analysis, then the oracle gates.
pub fn pass(size: &Size, seed: u64, t: &mut Tracer, oracle: &mut Oracle, id: u64) -> Pass {
    let mut out = Pass::default();
    reset_peak_rss();
    let t_setup = Instant::now();
    let mut engine = setup(size, seed);
    out.setup_s = t_setup.elapsed().as_secs_f64();

    // The partitioner the engine will call inside `initialize`, called
    // once on its own so its time shows as a layer of its own.
    if t.enabled() {
        let cfg = engine.config().clone();
        t.span("partition.partition", id, || {
            cfg.partitioner
                .build(cfg.seed)
                .partition(engine.graph(), PROCS)
        });
    }

    let root = t.begin("bench.analysis", id);
    let t0 = Instant::now();
    t.span("core.initialize", id, || engine.initialize());
    let mut steps = 0u64;
    while !engine.is_converged() && steps < step_budget() as u64 {
        steps += 1;
        t.span("core.rc_step", steps, || engine.rc_step());
    }
    let snapshot = t.span("core.snapshot", id, || engine.snapshot());
    out.wall_s = t0.elapsed().as_secs_f64();
    t.end(root);
    out.peak_rss_mb = peak_rss_mb();
    out.latency_ms.push(out.wall_s * 1e3);
    out.work = 1.0;
    out.attempted = 1;

    let ledger = engine.cluster().ledger();
    let rc = ledger.phase(Phase::Recombination);
    let graph = engine.graph();
    out.graph = (graph.vertex_count(), graph.edge_count());
    out.layer.insert(
        "partition.edge_cut",
        edge_cut(graph, engine.partition()) as f64,
    );
    out.layer.insert("core.rc_steps", steps as f64);
    out.layer.insert("runtime.rc_bytes", rc.bytes as f64);
    out.layer.insert("runtime.rc_messages", rc.messages as f64);
    out.layer.insert(
        "runtime.update_bytes",
        ledger.phase(Phase::DynamicUpdate).bytes as f64,
    );
    out.layer.insert(
        "runtime.compute_imbalance",
        imbalance(engine.cluster().compute_us_by_rank()),
    );
    out.layer
        .insert("logp.makespan_s", engine.makespan_us() / 1e6);
    for (k, v) in [
        ("core.rc_steps", steps.to_string()),
        ("runtime.rc_bytes", rc.bytes.to_string()),
        ("runtime.rc_messages", rc.messages.to_string()),
    ] {
        out.fingerprint.insert(k, v);
    }

    // Gates, outside the timed region.
    if !engine.is_converged() {
        out.fail(format!("no convergence within {} steps", step_budget()));
    }
    let dense = engine.distances_dense();
    let final_graph = engine.graph().clone();
    drop(engine);
    match oracle.check(&final_graph, &dense, TOP_K) {
        Ok((want, apsp_ms)) => {
            out.apsp_ms = apsp_ms;
            out.layer
                .insert("static.oracle_ratio", out.wall_s * 1e3 / apsp_ms);
            if let Err(e) = check_ranking(&snapshot.top_k(TOP_K), &want) {
                out.fail(format!("static snapshot ranking: {e}"));
            }
        }
        Err(e) => out.fail(format!("static distances: {e}")),
    }
    out
}
