//! Wall-clock benchmark of the anytime-anywhere closeness engine.
//!
//! Three workloads drive the repository's crates through their public
//! items, from outside, in one process on the threads backend:
//!
//! * `static-rmat12` — one analysis of an R-MAT scale-12 graph, from
//!   `initialize()` to the converged snapshot ([`static_rmat`]);
//! * `churn-rmat10` — the write path: a replayed update schedule through the
//!   ingest pipeline, WAL, reconvergence and top-k observation
//!   ([`churn`]);
//! * `serve-rmat10` — reads beside writes: a closed loop of 32 clients
//!   against the resident server ([`serve`]).
//!
//! Every pass is checked against the sequential APSP oracle outside its
//! timed region ([`oracle`]); [`run`] repeats passes for the requested
//! number of seconds and folds them into the metrics [`report`] prints.

pub mod churn;
pub mod inputs;
pub mod oracle;
pub mod report;
pub mod run;
pub mod serve;
pub mod static_rmat;
pub mod stats;
pub mod trace;

use aa_core::EngineConfig;
use aa_graph::rmat::{rmat, RmatParams};
use aa_graph::Graph;
use aa_runtime::BackendKind;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Virtual ranks `P` every workload partitions into.
pub const PROCS: usize = 16;
/// Worker threads of the threads backend.
pub const WORKERS: usize = 2;
/// The k of every top-k tracker and read.
pub const TOP_K: usize = 10;

/// The workloads, by the names results cite.
pub const WORKLOADS: [&str; 3] = ["static-rmat12", "churn-rmat10", "serve-rmat10"];

/// Input sizes. [`Size::FULL`] is the benchmark; tests use smaller ones.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// R-MAT scale of the static analysis graph.
    pub static_scale: u32,
    /// R-MAT scale of the churn base graph.
    pub churn_scale: u32,
    /// Ops in the churn schedule.
    pub churn_ops: usize,
    /// Raw ops per churn flush (the `SizeTriggered` drain target).
    pub churn_batch: usize,
    /// R-MAT scale of the serve base graph.
    pub serve_scale: u32,
    /// Closed-loop turns before the drain.
    pub serve_turns: usize,
    /// Requests per turn: one per client, each waiting for its reply.
    pub serve_clients: usize,
}

impl Size {
    /// The sizes the benchmark runs.
    pub const FULL: Size = Size {
        static_scale: 12,
        churn_scale: 10,
        churn_ops: 512,
        churn_batch: 8,
        serve_scale: 10,
        serve_turns: 128,
        serve_clients: 32,
    };

    /// R-MAT scale of `workload`'s graphs.
    pub fn scale(&self, workload: &str) -> u32 {
        match workload {
            "static-rmat12" => self.static_scale,
            "churn-rmat10" => self.churn_scale,
            _ => self.serve_scale,
        }
    }
}

/// An R-MAT graph with `2^scale` vertices, edge factor 4, weights 1..=4.
pub fn rmat_graph(scale: u32, seed: u64) -> Graph {
    let n = 1usize << scale;
    rmat(scale, n * 4, RmatParams::default(), 4, seed)
}

/// Engine configuration shared by every workload: threads backend with
/// [`WORKERS`] workers over [`PROCS`] virtual ranks.
pub fn engine_config(seed: u64) -> EngineConfig {
    EngineConfig {
        num_procs: PROCS,
        seed,
        backend: BackendKind::Threads,
        threads: WORKERS,
        ..Default::default()
    }
}

/// Recombination steps allowed before a reconvergence counts as failed.
pub fn step_budget() -> usize {
    16 * PROCS + 64
}

/// Directory for the benchmark's own scratch files and traces: under the
/// cargo target directory, so it stays inside the checkout and ignored.
pub fn work_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"))
        .join("perfbench")
}

/// What one pass of a workload measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Seed of the input this pass ran.
    pub input: u64,
    /// Set-up wall time: graph generation, initial convergence, server or
    /// log construction.
    pub setup_s: f64,
    /// Wall time of the timed region.
    pub wall_s: f64,
    /// End-to-end latency samples in ms (time to exact, freshness per
    /// flush, or per read); a shed request is `f64::MAX`.
    pub latency_ms: Vec<f64>,
    /// Units of work finished in the timed region (analyses, schedule ops,
    /// reads served).
    pub work: f64,
    /// Operations attempted and failed.
    pub attempted: u64,
    /// Shed or rejected requests, failed commits, and failed gates.
    pub failed: u64,
    /// Gate failures, one message each.
    pub errors: Vec<String>,
    /// `VmHWM` at the end of the timed region, in MB.
    pub peak_rss_mb: f64,
    /// Per-layer values the pass read from the layers (counts, ratios).
    pub layer: BTreeMap<&'static str, f64>,
    /// Counts that must repeat exactly for a seed.
    pub fingerprint: BTreeMap<&'static str, String>,
    /// Final graph size (vertices, edges).
    pub graph: (usize, usize),
    /// `apsp_dijkstra` wall time on the final graph, ms.
    pub apsp_ms: f64,
}

impl Pass {
    /// Records a gate failure: it fails the run and counts as one failed
    /// operation.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.errors.push(msg);
    }
}
