//! The benchmark's own checks, on small inputs: a seed's counts repeat
//! exactly, a second seed passes every gate, and a traced run reports every
//! per-layer metric.

use perfbench::report::{end_to_end, per_layer, result_line, END_TO_END, PER_LAYER};
use perfbench::run::run;
use perfbench::Size;
use std::path::Path;

fn exe() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_perfbench"))
}

const SMALL: Size = Size {
    static_scale: 8,
    churn_scale: 7,
    churn_ops: 128,
    churn_batch: 8,
    serve_scale: 7,
    serve_turns: 24,
    serve_clients: 32,
};

fn same_seed_same_counts(workload: &str) {
    let a = run(workload, &SMALL, 1, 0.0, false, exe()).expect("first run");
    let b = run(workload, &SMALL, 1, 0.0, false, exe()).expect("second run");
    assert_eq!(a.errors(), Vec::<String>::new(), "{workload} seed 1 gates");
    assert!(!a.passes[0].fingerprint.is_empty());
    assert_eq!(
        a.passes[0].fingerprint, b.passes[0].fingerprint,
        "{workload}: counts differ between runs of seed 1"
    );
    let c = run(workload, &SMALL, 2, 0.0, false, exe()).expect("second seed");
    assert_eq!(c.errors(), Vec::<String>::new(), "{workload} seed 2 gates");
    let e2e = end_to_end(&c);
    for (name, _) in END_TO_END {
        assert!(e2e[name] > 0.0, "{workload}: {name} is {}", e2e[name]);
    }
    let (line, correct) = result_line(&c, false);
    assert!(correct);
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
}

#[test]
fn static_counts_repeat_and_second_seed_passes() {
    same_seed_same_counts("static-rmat12");
}

#[test]
fn churn_counts_repeat_and_second_seed_passes() {
    same_seed_same_counts("churn-rmat10");
}

#[test]
fn serve_counts_repeat_and_second_seed_passes() {
    same_seed_same_counts("serve-rmat10");
}

#[test]
fn traced_run_times_every_layer_it_calls() {
    let expect: [(&str, &[&str]); 3] = [
        (
            "static-rmat12",
            &[
                "partition.partition_ms",
                "core.initialize_ms",
                "core.rc_step_ms_p50",
                "core.snapshot_ms",
                "partition.self_ms",
                "core.self_ms",
            ],
        ),
        (
            "churn-rmat10",
            &[
                "core.rc_step_ms_p50",
                "core.publish_ms",
                "ingest.push_us_p50",
                "ingest.flush_ms_p50",
                "durable.commit_ms_p50",
                "query.observe_ms_p50",
                "ingest.self_ms",
                "durable.self_ms",
                "query.self_ms",
            ],
        ),
        (
            "serve-rmat10",
            &["serve.submit_us_p50", "serve.turn_ms_p50", "serve.self_ms"],
        ),
    ];
    for (workload, layers) in expect {
        let r = run(workload, &SMALL, 3, 0.0, true, exe()).expect("traced run");
        assert_eq!(r.errors(), Vec::<String>::new(), "{workload} gates");
        assert_eq!(r.passes_traced(true).count(), 1);
        assert_eq!(r.passes_traced(false).count(), 1);
        let m = per_layer(&r);
        assert_eq!(m.len(), PER_LAYER.len(), "{workload}: {m:?}");
        for name in layers {
            assert!(m[name] > 0.0, "{workload}: {name} is {}", m[name]);
        }
        assert!(m["bench.self_ms"] >= 0.0);
        let spans = r.tracer.spans();
        assert!(spans.iter().all(|s| s.end_us >= s.start_us));
        assert!(spans.iter().any(|s| s.parent.is_some()));
    }
}
