//! Folds a [`Run`] into the benchmark's metrics and prints them.
//!
//! Every workload prints every metric, so the end-to-end metrics carry
//! workload-neutral names; the report line before the result also gives
//! them under the names the workloads define (`static.time_to_exact_s`,
//! `churn.fresh_p90_ms`, `serve.read_p99_ms`, ...). Per-layer values of a
//! layer the workload bypasses read 0.

use crate::run::Run;
use crate::stats::{max, median, nproc, peak_rss_mb, quantile};
use crate::Pass;
use crate::{PROCS, WORKERS};
use std::collections::BTreeMap;

/// End-to-end metrics: name and unit, in print order.
pub const END_TO_END: [(&str, &str); 4] = [
    ("latency_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics: name and unit, in print order.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("partition.partition_ms", "ms"),
    ("partition.edge_cut", "count"),
    ("partition.hung_inputs", "count"),
    ("core.initialize_ms", "ms"),
    ("core.rc_step_ms_p50", "ms"),
    ("core.rc_step_ms_max", "ms"),
    ("core.rc_steps", "count"),
    ("core.snapshot_ms", "ms"),
    ("core.publish_ms", "ms"),
    ("runtime.rc_bytes", "B"),
    ("runtime.rc_messages", "count"),
    ("runtime.update_bytes", "B"),
    ("runtime.compute_imbalance", "ratio"),
    ("logp.makespan_s", "s"),
    ("graph.apsp_dijkstra_ms", "ms"),
    ("static.oracle_ratio", "ratio"),
    ("ingest.push_us_p50", "us"),
    ("ingest.flush_ms_p50", "ms"),
    ("ingest.flush_ms_p90", "ms"),
    ("ingest.coalesce_ratio", "ratio"),
    ("ingest.flushes", "count"),
    ("durable.commit_ms_p50", "ms"),
    ("durable.wal_bytes", "B"),
    ("query.observe_ms_p50", "ms"),
    ("query.pruned_fraction", "ratio"),
    ("serve.submit_us_p50", "us"),
    ("serve.turn_ms_p50", "ms"),
    ("serve.turn_ms_p99", "ms"),
    ("serve.flush_turns", "count"),
    ("serve.degraded_turns", "count"),
    ("serve.reads_served", "count"),
    ("serve.topk_exact", "count"),
    ("serve.topk_anytime", "count"),
    ("serve.topk_exact_ratio", "ratio"),
    ("partition.self_ms", "ms"),
    ("core.self_ms", "ms"),
    ("ingest.self_ms", "ms"),
    ("durable.self_ms", "ms"),
    ("query.self_ms", "ms"),
    ("serve.self_ms", "ms"),
    ("bench.self_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// The quantile reported as a workload's latency tail: the highest with at
/// least ten samples beyond it at the workload's sample count per run
/// (~256 flushes, ~15k reads).
fn tail_quantile(workload: &str) -> Option<f64> {
    match workload {
        "churn-rmat10" => Some(0.90),
        "serve-rmat10" => Some(0.99),
        _ => None,
    }
}

/// Latency samples of every untraced pass, pooled.
fn latency_samples(run: &Run) -> Vec<f64> {
    run.passes_traced(false)
        .flat_map(|p| p.latency_ms.iter().copied())
        .collect()
}

/// End-to-end metrics, from the untraced passes only.
///
/// No central latency is among them: serve-rmat10 read latencies have two
/// modes of similar weight (converged turns under 1 ms, turns still
/// reconverging after a flush several times slower), so their median jumps
/// between the modes from one input to the next, and any lower quantile is
/// a sub-millisecond time that moves with host speed more than any bound
/// allows. The workloads' medians are printed in the report line instead
/// (see [`named`]). The tail is a pooled quantile; throughput and peak RSS
/// are medians over passes. A static pass gives one sample, so its tail is
/// the median time of the slowest of the run's inputs.
pub fn end_to_end(run: &Run) -> BTreeMap<&'static str, f64> {
    let untraced: Vec<&Pass> = run.passes_traced(false).collect();
    let latency = latency_samples(run);
    let per_pass =
        |f: &dyn Fn(&Pass) -> f64| median(&untraced.iter().map(|p| f(p)).collect::<Vec<_>>());
    let tail = match tail_quantile(&run.workload) {
        Some(q) => quantile(&latency, q),
        None => {
            let mut by_input: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
            for p in &untraced {
                by_input
                    .entry(p.input)
                    .or_default()
                    .extend(p.latency_ms.iter().copied());
            }
            by_input.values().map(|t| median(t)).fold(0.0, f64::max)
        }
    };
    BTreeMap::from([
        ("latency_tail_ms", tail),
        (
            "throughput_per_s",
            per_pass(&|p| p.work / p.wall_s.max(f64::MIN_POSITIVE)),
        ),
        ("peak_rss_mb", per_pass(&|p| p.peak_rss_mb)),
        ("setup_s", median(&run.setup_s)),
    ])
}

/// The end-to-end metrics under the names the workload defines, with the
/// medians those names promise.
pub fn named(run: &Run, e2e: &BTreeMap<&'static str, f64>) -> Vec<(String, f64, &'static str)> {
    let m = |k: &str| e2e[k];
    let p50 = median(&latency_samples(run));
    let mut out: Vec<(String, f64, &'static str)> = match run.workload.as_str() {
        "static-rmat12" => vec![("static.time_to_exact_s".into(), p50 / 1e3, "s")],
        "churn-rmat10" => vec![
            ("churn.updates_per_s".into(), m("throughput_per_s"), "1/s"),
            ("churn.fresh_p50_ms".into(), p50, "ms"),
            ("churn.fresh_p90_ms".into(), m("latency_tail_ms"), "ms"),
        ],
        _ => vec![
            ("serve.read_p50_ms".into(), p50, "ms"),
            ("serve.read_p99_ms".into(), m("latency_tail_ms"), "ms"),
            ("serve.reads_per_s".into(), m("throughput_per_s"), "1/s"),
        ],
    };
    out.push(("setup_s".into(), m("setup_s"), "s"));
    out.push(("peak_rss_mb".into(), m("peak_rss_mb"), "MB"));
    out
}

/// Per-layer metrics, from the traced passes only.
pub fn per_layer(run: &Run) -> BTreeMap<&'static str, f64> {
    let t = &run.tracer;
    let traced: Vec<_> = run.passes_traced(true).collect();
    let untraced: Vec<_> = run.passes_traced(false).collect();
    let passes = traced.len().max(1) as f64;
    let mut out: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|&(k, _)| (k, 0.0)).collect();
    // Values read from the layers: the mean over traced passes (counts are
    // identical across passes; gauges such as makespan are not).
    for p in &traced {
        for (k, v) in &p.layer {
            *out.entry(k).or_insert(0.0) += v / passes;
        }
    }
    out.insert(
        "graph.apsp_dijkstra_ms",
        run.passes.first().map_or(0.0, |p| p.apsp_ms),
    );
    let d = |name: &str| t.durations_ms(name);
    let rc_steps = d("core.rc_step");
    let mut submits = d("serve.submit_read");
    submits.extend(d("serve.submit_write"));
    let turns = d("serve.turn");
    for (k, v) in [
        ("partition.partition_ms", median(&d("partition.partition"))),
        ("core.initialize_ms", median(&d("core.initialize"))),
        ("core.rc_step_ms_p50", median(&rc_steps)),
        ("core.rc_step_ms_max", max(&rc_steps)),
        ("core.snapshot_ms", median(&d("core.snapshot"))),
        ("core.publish_ms", median(&d("core.publish"))),
        ("ingest.push_us_p50", median(&d("ingest.push")) * 1e3),
        ("ingest.flush_ms_p50", median(&d("ingest.flush"))),
        ("ingest.flush_ms_p90", quantile(&d("ingest.flush"), 0.90)),
        ("durable.commit_ms_p50", median(&d("durable.commit"))),
        ("query.observe_ms_p50", median(&d("query.observe"))),
        ("serve.submit_us_p50", median(&submits) * 1e3),
        ("serve.turn_ms_p50", median(&turns)),
        ("serve.turn_ms_p99", quantile(&turns, 0.99)),
        ("trace.spans", t.spans().len() as f64 / passes),
        ("partition.hung_inputs", run.hung_inputs.len() as f64),
    ] {
        out.insert(k, v);
    }
    for (layer, ms) in t.self_ms_by_layer() {
        let key = match layer {
            "partition" => "partition.self_ms",
            "core" => "core.self_ms",
            "ingest" => "ingest.self_ms",
            "durable" => "durable.self_ms",
            "query" => "query.self_ms",
            "serve" => "serve.self_ms",
            _ => "bench.self_ms",
        };
        *out.entry(key).or_insert(0.0) += ms / passes;
    }
    // Tracing overhead: the traced passes' timed region against the
    // untraced passes' of the same run.
    let wall = |ps: &[&Pass]| median(&ps.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let base = wall(&untraced);
    if base > 0.0 {
        out.insert("trace.overhead_pct", (wall(&traced) / base - 1.0) * 100.0);
    }
    out
}

/// A JSON number with all its digits: plain decimal below 1e15, exponent
/// form above (where plain decimal would print every integer digit).
fn num(x: f64) -> String {
    if !x.is_finite() {
        format!("{:e}", f64::MAX)
    } else if x.abs() < 1e15 {
        format!("{x}")
    } else {
        format!("{x:e}")
    }
}

fn metrics_json<'a>(items: impl Iterator<Item = (&'a str, f64, &'a str)>) -> String {
    let body: Vec<String> = items
        .map(|(k, v, unit)| format!("\"{k}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", num(v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn strings_json<'a>(items: impl Iterator<Item = (&'a str, String)>) -> String {
    let body: Vec<String> = items.map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", body.join(", "))
}

fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The report line: host and graph context, the workload's named metrics,
/// sample counts, the count fingerprint and any gate failures.
pub fn report_line(run: &Run, trace_file: Option<&str>) -> String {
    let e2e = end_to_end(run);
    let first = run.passes.first();
    let (vertices, edges) = first.map_or((0, 0), |p| p.graph);
    let context = strings_json(
        [
            ("nproc", nproc().to_string()),
            ("backend", quote("threads")),
            ("workers", WORKERS.to_string()),
            ("procs", PROCS.to_string()),
            ("process_peak_rss_mb", num(peak_rss_mb())),
            ("vertices", vertices.to_string()),
            ("edges", edges.to_string()),
            (
                "graph.apsp_dijkstra_ms",
                num(first.map_or(0.0, |p| p.apsp_ms)),
            ),
        ]
        .into_iter(),
    );
    let named = named(run, &e2e);
    let named = metrics_json(named.iter().map(|(k, v, u)| (k.as_str(), *v, *u)));
    let samples: usize = run.passes_traced(false).map(|p| p.latency_ms.len()).sum();
    let fingerprint = strings_json(
        first
            .map(|p| p.fingerprint.clone())
            .unwrap_or_default()
            .into_iter(),
    );
    let errors: Vec<String> = run.errors().iter().map(|e| quote(e)).collect();
    let pass_wall_s: Vec<String> = run.passes.iter().map(|p| num(p.wall_s)).collect();
    let pass_rss: Vec<String> = run.passes.iter().map(|p| num(p.peak_rss_mb)).collect();
    let list = |xs: &[u64]| xs.iter().map(u64::to_string).collect::<Vec<_>>().join(", ");
    format!(
        "{{\"report\": {{\"workload\": {}, \"seed\": {}, \"passes\": {}, \"traced_passes\": {}, \
         \"inputs\": [{}], \"hung_inputs\": [{}], \"pass_wall_s\": [{}], \"pass_peak_rss_mb\": [{}], \"latency_samples\": {samples}, \"context\": {context}, \
         \"named\": {named}, \
         \"fingerprint\": {fingerprint}, \"trace_file\": {}, \"errors\": [{}]}}}}",
        quote(&run.workload),
        run.seed,
        run.passes.len(),
        run.passes_traced(true).count(),
        list(&run.inputs),
        list(&run.hung_inputs),
        pass_wall_s.join(", "),
        pass_rss.join(", "),
        trace_file.map_or("null".to_string(), quote),
        errors.join(", ")
    )
}

/// The result line the benchmark contract asks for, and whether the run
/// was correct.
pub fn result_line(run: &Run, trace: bool) -> (String, bool) {
    let correct = run.errors().is_empty();
    let attempted: u64 = run.passes.iter().map(|p| p.attempted).sum();
    let failed: u64 = run.passes.iter().map(|p| p.failed).sum::<u64>()
        + u64::from(!correct && run.passes.iter().all(|p| p.failed == 0));
    let metrics = if trace {
        let m = per_layer(run);
        metrics_json(PER_LAYER.iter().map(|&(k, unit)| (k, m[k], unit)))
    } else {
        let m = end_to_end(run);
        metrics_json(END_TO_END.iter().map(|&(k, unit)| (k, m[k], unit)))
    };
    (
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {metrics}}}",
            attempted.max(1)
        ),
        correct,
    )
}
