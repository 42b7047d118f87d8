//! `churn-rmat10`: the write path. Set-up converges an R-MAT graph; the
//! timed region replays `aa_bench::ingest::churn_ops` through the ingest
//! pipeline. Each flush group-commits the WAL on disk, flushes, runs
//! `rc_step` until converged, publishes a snapshot and lets the top-k
//! tracker observe it.
//!
//! Stresses deletion invalidation and reseed, vertex-addition placement,
//! coalescing and the WAL; initial approximation does no work and RC is
//! incremental.

use crate::oracle::{check_ranking, same_graph, Oracle};
use crate::stats::{peak_rss_mb, reset_peak_rss};
use crate::trace::Tracer;
use crate::{engine_config, rmat_graph, step_budget, work_dir, Pass, Size, TOP_K};
use aa_bench::ingest::churn_ops;
use aa_core::AnytimeEngine;
use aa_durable::{DiskStorage, DurabilityConfig, DurableLog};
use aa_graph::Graph;
use aa_ingest::{DrainPolicy, IngestConfig, IngestPipeline, UpdateOp};
use aa_logp::{Phase, PhaseStats};
use aa_query::{TopKConfig, TopKTracker};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A converged engine, its update schedule, and an empty WAL in a fresh
/// directory that is removed on drop.
pub struct Setup {
    /// The base graph the schedule was generated against.
    pub base: Graph,
    /// The update schedule to replay.
    pub ops: Vec<UpdateOp>,
    /// Converged engine over `base`, bound feed on.
    pub engine: AnytimeEngine,
    /// Top-k tracker that has observed the converged state.
    pub tracker: TopKTracker,
    /// Ingest pipeline draining every `churn_batch` raw ops.
    pub pipeline: IngestPipeline,
    /// WAL storage root.
    pub storage: DiskStorage,
    /// The WAL.
    pub log: DurableLog,
    dir: PathBuf,
}

impl Drop for Setup {
    fn drop(&mut self) {
        // Best effort: a leftover scratch directory is harmless.
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Builds the converged engine, schedule, pipeline and WAL for one pass.
pub fn setup(size: &Size, seed: u64) -> Result<Setup, String> {
    let base = rmat_graph(size.churn_scale, seed);
    let ops = churn_ops(&base, size.churn_ops, seed);
    let mut engine = AnytimeEngine::new(base.clone(), engine_config(seed));
    engine.enable_bound_feed();
    engine.initialize();
    engine.run_to_convergence(step_budget());
    if !engine.is_converged() {
        return Err("base graph did not converge".to_string());
    }
    let mut tracker = TopKTracker::new(TopKConfig {
        k: TOP_K,
        ..TopKConfig::default()
    });
    let frame = engine.publish_snapshot();
    let deltas = engine.drain_bound_deltas();
    tracker.observe(&frame, engine.graph(), &deltas);
    let pipeline = IngestPipeline::new(IngestConfig {
        policy: DrainPolicy::SizeTriggered(size.churn_batch),
        ..IngestConfig::default()
    })?;
    // One directory per set-up, also when set-ups run side by side.
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let tag = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = work_dir().join(format!("wal-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut storage =
        DiskStorage::open(&dir).map_err(|e| format!("open {}: {e}", dir.display()))?;
    let log = DurableLog::open(&mut storage, 1, DurabilityConfig::default())
        .map_err(|e| format!("open wal: {e}"))?;
    Ok(Setup {
        base,
        ops,
        engine,
        tracker,
        pipeline,
        storage,
        log,
        dir,
    })
}

fn minus(a: PhaseStats, b: PhaseStats) -> PhaseStats {
    PhaseStats {
        messages: a.messages - b.messages,
        bytes: a.bytes - b.bytes,
        ..PhaseStats::default()
    }
}

/// Per-replay tallies the flush cycle updates.
#[derive(Default)]
struct Tally {
    steps: u64,
    fresh_ms: Vec<f64>,
    pruned: Vec<f64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

/// One flush: WAL group commit, pipeline flush, reconvergence, publish and
/// top-k observe. Freshness runs from the commit to the observation.
fn flush_cycle(s: &mut Setup, t: &mut Tracer, id: u64, tally: &mut Tally) {
    let root = t.begin("bench.flush", id);
    let t0 = Instant::now();
    tally.attempted += 1;
    let Setup {
        engine,
        tracker,
        pipeline,
        storage,
        log,
        ..
    } = s;
    if let Err(e) = t.span("durable.commit", id, || log.commit(storage)) {
        let dropped = pipeline.abort_pending();
        tally.failed += 1 + dropped as u64;
        tally.errors.push(format!("wal commit {id}: {e}"));
    }
    if let Err(e) = t.span("ingest.flush", id, || pipeline.flush(engine)) {
        tally.failed += 1;
        tally.errors.push(format!("flush {id}: {e}"));
    }
    let mut steps = 0;
    while !engine.is_converged() && steps < step_budget() {
        steps += 1;
        tally.steps += 1;
        t.span("core.rc_step", tally.steps, || engine.rc_step());
    }
    if !engine.is_converged() {
        tally.failed += 1;
        tally.errors.push(format!("flush {id}: no reconvergence"));
    }
    let frame = t.span("core.publish", id, || engine.publish_snapshot());
    let deltas = t.span("core.drain_bound_deltas", id, || {
        engine.drain_bound_deltas()
    });
    t.span("query.observe", id, || {
        tracker.observe(&frame, engine.graph(), &deltas)
    });
    tally.fresh_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    tally.pruned.push(tracker.pruned_fraction());
    t.end(root);
}

/// One replay: set-up, the timed replay, then the oracle gates.
pub fn pass(size: &Size, seed: u64, t: &mut Tracer, oracle: &mut Oracle, id: u64) -> Pass {
    let mut out = Pass::default();
    reset_peak_rss();
    let t_setup = Instant::now();
    let mut s = match setup(size, seed) {
        Ok(s) => s,
        Err(e) => {
            out.attempted = 1;
            out.fail(format!("churn setup: {e}"));
            return out;
        }
    };
    out.setup_s = t_setup.elapsed().as_secs_f64();
    let before = s.engine.cluster().ledger().clone();
    let makespan_before = s.engine.makespan_us();

    let mut tally = Tally::default();
    let ops = std::mem::take(&mut s.ops);
    let root = t.begin("bench.replay", id);
    let t0 = Instant::now();
    let mut flushes = 0u64;
    for (i, op) in ops.iter().enumerate() {
        tally.attempted += 1;
        let pushed = t.span("ingest.push", i as u64, || {
            s.pipeline.push(&s.engine, op.clone())
        });
        match pushed {
            Ok(o) if o.admission.is_admitted() => {
                if o.enqueued {
                    t.span("durable.append", i as u64, || s.log.append(op));
                }
            }
            Ok(_) => tally.failed += 1,
            Err(e) => {
                tally.failed += 1;
                tally.errors.push(format!("op {i} rejected: {e}"));
            }
        }
        let pending = s.pipeline.pending_ops();
        let outstanding = s.engine.outstanding_rows();
        if s.pipeline
            .config()
            .policy
            .should_flush(pending, 0, outstanding)
        {
            flush_cycle(&mut s, t, flushes, &mut tally);
            flushes += 1;
        }
    }
    if s.pipeline.pending_ops() > 0 {
        flush_cycle(&mut s, t, flushes, &mut tally);
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    t.end(root);
    out.peak_rss_mb = peak_rss_mb();
    out.latency_ms = tally.fresh_ms;
    out.work = ops.len() as f64;
    out.attempted = tally.attempted;
    out.failed = tally.failed;
    out.errors = tally.errors;

    let ledger = s.engine.cluster().ledger();
    let rc = minus(
        ledger.phase(Phase::Recombination),
        before.phase(Phase::Recombination),
    );
    let update = minus(
        ledger.phase(Phase::DynamicUpdate),
        before.phase(Phase::DynamicUpdate),
    );
    let stats = s.pipeline.stats();
    let wal_bytes = s
        .log
        .metrics_registry()
        .counter_value("aa_wal_bytes_total", &[]);
    let pruned = tally.pruned.iter().sum::<f64>() / tally.pruned.len().max(1) as f64;
    let graph = s.engine.graph();
    out.graph = (graph.vertex_count(), graph.edge_count());
    for (k, v) in [
        ("core.rc_steps", tally.steps as f64),
        ("runtime.rc_bytes", rc.bytes as f64),
        ("runtime.rc_messages", rc.messages as f64),
        ("runtime.update_bytes", update.bytes as f64),
        (
            "logp.makespan_s",
            (s.engine.makespan_us() - makespan_before) / 1e6,
        ),
        ("ingest.flushes", stats.flushes as f64),
        ("ingest.coalesce_ratio", stats.coalesce_ratio()),
        ("durable.wal_bytes", wal_bytes as f64),
        ("query.pruned_fraction", pruned),
    ] {
        out.layer.insert(k, v);
    }
    for (k, v) in [
        ("core.rc_steps", tally.steps.to_string()),
        ("runtime.rc_bytes", rc.bytes.to_string()),
        ("runtime.rc_messages", rc.messages.to_string()),
        ("ingest.flushes", stats.flushes.to_string()),
        ("ingest.coalesce_ratio", stats.coalesce_ratio().to_string()),
        ("durable.wal_bytes", wal_bytes.to_string()),
    ] {
        out.fingerprint.insert(k, v);
    }

    // Gates, outside the timed region: every op landed, distances are the
    // oracle's, and the tracker's top-k is the oracle's ranking.
    let mut shadow = s.base.clone();
    for op in &ops {
        apply(&mut shadow, op);
    }
    if !same_graph(&shadow, s.engine.graph()) {
        out.fail("churn: engine graph differs from the replayed schedule".to_string());
    }
    let dense = s.engine.distances_dense();
    let final_graph = s.engine.graph().clone();
    let answer = s.tracker.answer(TOP_K);
    drop(s);
    match oracle.check(&final_graph, &dense, TOP_K) {
        Ok((want, apsp_ms)) => {
            out.apsp_ms = apsp_ms;
            match answer {
                Some(a) if a.is_exact() => {
                    if let Err(e) = check_ranking(&a.members, &want) {
                        out.fail(format!("churn top-k: {e}"));
                    }
                }
                other => out.fail(format!("churn top-k not exact at the end: {other:?}")),
            }
        }
        Err(e) => out.fail(format!("churn distances: {e}")),
    }
    out
}

/// Applies one schedule op to a plain graph, the way the schedule's
/// generator tracked it.
fn apply(g: &mut Graph, op: &UpdateOp) {
    match op {
        UpdateOp::AddEdge(u, v, w) => {
            g.add_edge(*u, *v, *w);
        }
        UpdateOp::DeleteEdge(u, v) => {
            g.remove_edge(*u, *v);
        }
        UpdateOp::Reweight(u, v, w) => {
            g.set_edge_weight(*u, *v, *w);
        }
        UpdateOp::AddVertex { anchors } => {
            let id = g.add_vertex();
            for &(a, w) in anchors {
                g.add_edge(id, a, w);
            }
        }
        UpdateOp::DeleteVertex(v) => {
            g.remove_vertex(*v);
        }
    }
}
