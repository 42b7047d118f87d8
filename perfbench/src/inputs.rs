//! Which graphs a run measures.
//!
//! A run cycles through [`INPUTS`] graphs made from its seed. The
//! repository's multilevel partitioner (`aa_partition::MultilevelKWay`)
//! never returns on some R-MAT graphs: its initial partition keeps
//! re-offering a fresh seed vertex that would overflow the part being
//! grown. Such a graph would stall a run for good, and a spinning thread
//! cannot be stopped from inside the process. So each candidate graph is
//! first partitioned in a child process under a time limit; candidates that
//! do not finish are skipped and listed in the report
//! (`partition.hung_inputs`), which keeps the defect visible.

use crate::{engine_config, rmat_graph, PROCS};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Distinct inputs a run cycles through: pass `i` runs input `i % INPUTS`,
/// so a run's medians cover several graphs, and every pass after the first
/// round repeats an input and must reproduce its counts.
pub const INPUTS: usize = 4;
/// Candidate input seeds per run seed; runs of different seeds never share
/// a candidate.
pub const CANDIDATES: u64 = 16;
/// Time a candidate's partition may take before it counts as hung; a
/// finishing partition of these graphs takes well under a second.
pub const PROBE_LIMIT: Duration = Duration::from_secs(5);

/// The argument that makes the benchmark binary partition one graph and
/// exit: `--probe-partition <scale> <input seed>`.
pub const PROBE_FLAG: &str = "--probe-partition";

/// Partitions the graph of `(scale, input)` the way `initialize` would.
pub fn probe_partition(scale: u32, input: u64) {
    let g = rmat_graph(scale, input);
    let cfg = engine_config(input);
    std::hint::black_box(cfg.partitioner.build(cfg.seed).partition(&g, PROCS));
}

/// Whether `probe_partition(scale, input)`, run by `exe` in a child process,
/// finishes within [`PROBE_LIMIT`]. A child that does not is killed and
/// waited for.
fn partition_finishes(exe: &Path, scale: u32, input: u64) -> Result<bool, String> {
    let mut child = Command::new(exe)
        .args([PROBE_FLAG, &scale.to_string(), &input.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    let start = Instant::now();
    loop {
        match child.try_wait() {
            Ok(Some(status)) if status.success() => return Ok(true),
            Ok(Some(status)) => return Err(format!("partition probe of input {input}: {status}")),
            Ok(None) if start.elapsed() < PROBE_LIMIT => {
                std::thread::sleep(Duration::from_millis(5))
            }
            Ok(None) => {
                let _ = child.kill();
                child.wait().map_err(|e| format!("wait for probe: {e}"))?;
                return Ok(false);
            }
            Err(e) => return Err(format!("wait for probe: {e}")),
        }
    }
}

/// The run's inputs: the first [`INPUTS`] candidate seeds of `seed` whose
/// graph partitions, and the candidates skipped because it hung.
pub fn choose(exe: &Path, scale: u32, seed: u64) -> Result<(Vec<u64>, Vec<u64>), String> {
    let mut good = Vec::new();
    let mut hung = Vec::new();
    let first = seed.wrapping_mul(CANDIDATES);
    for input in (0..CANDIDATES).map(|j| first.wrapping_add(j)) {
        if good.len() == INPUTS {
            break;
        }
        if partition_finishes(exe, scale, input)? {
            good.push(input);
        } else {
            hung.push(input);
        }
    }
    if good.len() < INPUTS {
        return Err(format!(
            "only {} of {CANDIDATES} candidate graphs partition (hung: {hung:?})",
            good.len()
        ));
    }
    Ok((good, hung))
}
