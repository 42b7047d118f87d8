//! `serve-rmat10`: reads beside writes. The resident server runs with
//! `ServeConfig::default()` and no durability; `LoadGen` offers one request
//! per client per turn, and each client waits for its reply before the next
//! turn (a closed loop). After the last turn the server is drained.
//!
//! Stresses admission, snapshot publication, top-k observation and read
//! service, with one `rc_step` per turn; writes flush only when the default
//! drain target fills, so the read tail shows how long a flush stalls reads.

use crate::oracle::{check_ranking, Oracle};
use crate::stats::{peak_rss_mb, reset_peak_rss};
use crate::trace::Tracer;
use crate::{engine_config, rmat_graph, step_budget, Pass, Size, TOP_K};
use aa_core::AnytimeEngine;
use aa_logp::Phase;
use aa_serve::{
    ClientOp, LoadGen, ReadKind, ReadOutcome, ReadValue, ServeConfig, Server, WorkloadConfig,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// A server over a converged engine, and the load generator.
pub fn setup(size: &Size, seed: u64) -> Result<(Server, LoadGen), String> {
    let mut engine = AnytimeEngine::new(rmat_graph(size.serve_scale, seed), engine_config(seed));
    engine.initialize();
    engine.run_to_convergence(step_budget());
    if !engine.is_converged() {
        return Err("base graph did not converge".to_string());
    }
    let server = Server::new(engine, ServeConfig::default())?;
    let gen = LoadGen::new(WorkloadConfig {
        seed: seed ^ 0x5e47e,
        offered_per_turn: size.serve_clients,
        read_fraction: 0.8,
        topk_read_mix: 0.7,
        top_k: TOP_K,
    });
    Ok((server, gen))
}

/// Reads awaiting their turn, and what resolved reads showed.
#[derive(Default)]
struct Reads {
    submitted: BTreeMap<u64, Instant>,
    latency_ms: Vec<f64>,
    topk_exact: u64,
    topk_anytime: u64,
    failed: u64,
}

impl Reads {
    /// Resolves the outcomes of a turn that ended at `end`. A shed read
    /// misses every latency limit.
    fn resolve(&mut self, outcomes: &[ReadOutcome], end: Instant) {
        for o in outcomes {
            let Some(t0) = self.submitted.remove(&o.id()) else {
                continue;
            };
            match o {
                ReadOutcome::Served { value, .. } => {
                    self.latency_ms.push((end - t0).as_secs_f64() * 1e3);
                    if let ReadValue::TopK(answer) = value {
                        if answer.is_exact() {
                            self.topk_exact += 1;
                        } else {
                            self.topk_anytime += 1;
                        }
                    }
                }
                ReadOutcome::Shed { .. } => {
                    self.latency_ms.push(f64::MAX);
                    self.failed += 1;
                }
            }
        }
    }
}

/// One closed loop: set-up, the timed turns and drain, then the gates.
pub fn pass(size: &Size, seed: u64, t: &mut Tracer, oracle: &mut Oracle, id: u64) -> Pass {
    let mut out = Pass::default();
    reset_peak_rss();
    let t_setup = Instant::now();
    let (mut server, mut gen) = match setup(size, seed) {
        Ok(s) => s,
        Err(e) => {
            out.attempted = 1;
            out.fail(format!("serve setup: {e}"));
            return out;
        }
    };
    out.setup_s = t_setup.elapsed().as_secs_f64();
    let before = server.engine().cluster().ledger().clone();
    let steps_before = server.engine().rc_steps();

    let mut reads = Reads::default();
    let mut flush_turns = 0u64;
    let mut read_index = 0u64;
    let root = t.begin("bench.serve_loop", id);
    let t0 = Instant::now();
    for turn in 0..size.serve_turns as u64 {
        let ops = t.span("serve.loadgen", turn, || gen.turn_ops(server.engine()));
        for op in ops {
            out.attempted += 1;
            match op {
                ClientOp::Read(kind) => {
                    let submitted = Instant::now();
                    let ticket =
                        t.span("serve.submit_read", read_index, || server.submit_read(kind));
                    read_index += 1;
                    if ticket.admission.is_admitted() {
                        reads.submitted.insert(ticket.id, submitted);
                    } else {
                        reads.latency_ms.push(f64::MAX);
                        reads.failed += 1;
                    }
                }
                ClientOp::Write(op) => {
                    let outcome = t.span("serve.submit_write", turn, || server.submit_write(op));
                    if !outcome.is_admitted() {
                        out.failed += 1;
                    }
                }
            }
        }
        match t.span("serve.turn", turn, || server.turn()) {
            Ok(report) => {
                reads.resolve(&report.served, Instant::now());
                flush_turns += u64::from(report.flushed.is_some());
            }
            Err(e) => out.fail(format!("turn {turn}: {e}")),
        }
    }
    // Drain one turn at a time so each read resolves at its own turn's end;
    // the last call flushes leftover writes and reconverges.
    let mut drains = 0u64;
    while server.read_queue_depth() > 0 && drains < step_budget() as u64 {
        drains += 1;
        match t.span("serve.drain", drains, || server.drain(1)) {
            Ok(served) => reads.resolve(&served, Instant::now()),
            Err(e) => out.fail(format!("drain: {e}")),
        }
    }
    match t.span("serve.drain", drains + 1, || server.drain(step_budget())) {
        Ok(served) => reads.resolve(&served, Instant::now()),
        Err(e) => out.fail(format!("drain: {e}")),
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    t.end(root);
    out.peak_rss_mb = peak_rss_mb();
    if !reads.submitted.is_empty() {
        out.fail(format!("{} reads never resolved", reads.submitted.len()));
    }

    let stats = server.stats();
    let ingest = server.ingest_stats();
    let engine = server.engine();
    let ledger = engine.cluster().ledger();
    let rc = ledger.phase(Phase::Recombination);
    let rc_before = before.phase(Phase::Recombination);
    let update_bytes =
        ledger.phase(Phase::DynamicUpdate).bytes - before.phase(Phase::DynamicUpdate).bytes;
    let rc_steps = (engine.rc_steps() - steps_before) as u64;
    let topk_answers = reads.topk_exact + reads.topk_anytime;
    out.graph = (engine.graph().vertex_count(), engine.graph().edge_count());
    for (k, v) in [
        ("core.rc_steps", rc_steps as f64),
        ("runtime.rc_bytes", (rc.bytes - rc_before.bytes) as f64),
        (
            "runtime.rc_messages",
            (rc.messages - rc_before.messages) as f64,
        ),
        ("runtime.update_bytes", update_bytes as f64),
        ("ingest.flushes", ingest.flushes as f64),
        ("ingest.coalesce_ratio", ingest.coalesce_ratio()),
        (
            "query.pruned_fraction",
            server.topk_tracker().pruned_fraction(),
        ),
        ("serve.flush_turns", flush_turns as f64),
        ("serve.degraded_turns", stats.degraded_turns as f64),
        ("serve.reads_served", stats.reads_served as f64),
        ("serve.topk_exact", reads.topk_exact as f64),
        ("serve.topk_anytime", reads.topk_anytime as f64),
        (
            "serve.topk_exact_ratio",
            reads.topk_exact as f64 / topk_answers.max(1) as f64,
        ),
    ] {
        out.layer.insert(k, v);
    }
    for (k, v) in [
        ("core.rc_steps", rc_steps),
        ("runtime.rc_bytes", rc.bytes - rc_before.bytes),
        ("runtime.rc_messages", rc.messages - rc_before.messages),
        ("ingest.flushes", ingest.flushes),
        ("serve.reads_served", stats.reads_served),
        ("serve.topk_exact", reads.topk_exact),
        ("serve.topk_anytime", reads.topk_anytime),
    ] {
        out.fingerprint.insert(k, v.to_string());
    }
    out.fingerprint
        .insert("ingest.coalesce_ratio", ingest.coalesce_ratio().to_string());
    out.work = stats.reads_served as f64;
    out.failed += reads.failed;
    out.latency_ms = reads.latency_ms;

    // Gates, outside the timed region: one more top-k read on the drained
    // server must be exact and equal the oracle's ranking, and the
    // distances must be the oracle's.
    let ticket = server.submit_read(ReadKind::TopK(TOP_K));
    let last = match server.turn() {
        Ok(report) => report.served.into_iter().find(|o| o.id() == ticket.id),
        Err(e) => {
            out.fail(format!("final turn: {e}"));
            None
        }
    };
    let dense = server.engine().distances_dense();
    let final_graph = server.engine().graph().clone();
    drop(server);
    match oracle.check(&final_graph, &dense, TOP_K) {
        Ok((want, apsp_ms)) => {
            out.apsp_ms = apsp_ms;
            match last {
                Some(ReadOutcome::Served {
                    value: ReadValue::TopK(answer),
                    ..
                }) if answer.is_exact() => {
                    if let Err(e) = check_ranking(&answer.members, &want) {
                        out.fail(format!("serve top-k: {e}"));
                    }
                }
                other => out.fail(format!("serve final top-k read not exact: {other:?}")),
            }
        }
        Err(e) => out.fail(format!("serve distances: {e}")),
    }
    out
}
