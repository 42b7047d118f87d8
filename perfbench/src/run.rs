//! Repeats passes of one workload for the requested time and keeps what
//! they measured.

use crate::inputs::{self, INPUTS};
use crate::oracle::Oracle;
use crate::trace::Tracer;
use crate::{churn, serve, static_rmat, Pass, Size};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Set-up timings per run at least, so `setup_s` is a median.
pub const SETUP_SAMPLES: usize = 5;

/// Everything one run measured.
#[derive(Debug)]
pub struct Run {
    /// The workload's name.
    pub workload: String,
    /// The seed every input was made from.
    pub seed: u64,
    /// Input seeds the passes cycle through.
    pub inputs: Vec<u64>,
    /// Candidate input seeds skipped because partitioning their graph hung.
    pub hung_inputs: Vec<u64>,
    /// Passes in the order they ran.
    pub passes: Vec<Pass>,
    /// Whether each pass was traced. In a traced run untraced and traced
    /// passes alternate, so the overhead compares like with like.
    pub traced: Vec<bool>,
    /// Set-up times of every pass plus extra set-ups, seconds.
    pub setup_s: Vec<f64>,
    /// Spans of the traced passes.
    pub tracer: Tracer,
}

impl Run {
    /// Passes that were (`true`) or were not (`false`) traced.
    pub fn passes_traced(&self, traced: bool) -> impl Iterator<Item = &Pass> {
        self.passes
            .iter()
            .zip(&self.traced)
            .filter(move |(_, &t)| t == traced)
            .map(|(p, _)| p)
    }

    /// Gate failures of every pass, plus counts that differ between two
    /// passes over the same input.
    pub fn errors(&self) -> Vec<String> {
        let mut errors: Vec<String> = self.passes.iter().flat_map(|p| p.errors.clone()).collect();
        let mut first: BTreeMap<u64, (usize, &Pass)> = BTreeMap::new();
        for (i, p) in self.passes.iter().enumerate() {
            let (j, earlier) = *first.entry(p.input).or_insert((i, p));
            if p.fingerprint != earlier.fingerprint {
                errors.push(format!(
                    "pass {i} counts {:?} differ from pass {j} {:?} on input {}",
                    p.fingerprint, earlier.fingerprint, p.input
                ));
            }
        }
        errors
    }
}

fn one_pass(
    workload: &str,
    size: &Size,
    seed: u64,
    t: &mut Tracer,
    oracle: &mut Oracle,
    id: u64,
) -> Pass {
    match workload {
        "static-rmat12" => static_rmat::pass(size, seed, t, oracle, id),
        "churn-rmat10" => churn::pass(size, seed, t, oracle, id),
        _ => serve::pass(size, seed, t, oracle, id),
    }
}

/// Times one set-up of `workload` and throws the result away.
fn setup_only(workload: &str, size: &Size, seed: u64) -> Result<f64, String> {
    let t = Instant::now();
    match workload {
        "static-rmat12" => drop(static_rmat::setup(size, seed)),
        "churn-rmat10" => drop(churn::setup(size, seed)?),
        _ => drop(serve::setup(size, seed)?),
    }
    Ok(t.elapsed().as_secs_f64())
}

/// Runs passes of `workload` until `seconds` have passed (at least one;
/// at least one untraced and one traced when `trace` is set). `exe` is the
/// benchmark binary, which screens the inputs (see [`inputs`]).
pub fn run(
    workload: &str,
    size: &Size,
    seed: u64,
    seconds: f64,
    trace: bool,
    exe: &Path,
) -> Result<Run, String> {
    if !crate::WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload '{workload}' (expected one of {})",
            crate::WORKLOADS.join(", ")
        ));
    }
    let (input_seeds, hung_inputs) = inputs::choose(exe, size.scale(workload), seed)?;
    let mut tracer = Tracer::new(false);
    let mut oracle = Oracle::default();
    let mut passes = Vec::new();
    let mut traced = Vec::new();
    let min_passes = if trace { 2 } else { 1 };
    let start = Instant::now();
    while passes.len() < min_passes || start.elapsed().as_secs_f64() < seconds {
        // A traced run measures each input untraced, then traced, so the
        // overhead compares passes over the same graph.
        let id = passes.len();
        let on = trace && id % 2 == 1;
        let round = if trace { id / 2 } else { id };
        let input = input_seeds[round % INPUTS];
        tracer.set_enabled(on);
        let mut pass = one_pass(workload, size, input, &mut tracer, &mut oracle, id as u64);
        pass.input = input;
        tracer.set_enabled(false);
        let failed = !pass.errors.is_empty();
        passes.push(pass);
        traced.push(on);
        if failed {
            break;
        }
    }
    let mut setup_s: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    while setup_s.len() < SETUP_SAMPLES {
        let input = input_seeds[setup_s.len() % INPUTS];
        setup_s.push(setup_only(workload, size, input)?);
    }
    Ok(Run {
        workload: workload.to_string(),
        seed,
        inputs: input_seeds,
        hung_inputs,
        passes,
        traced,
        setup_s,
        tracer,
    })
}
