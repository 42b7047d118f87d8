//! Pins the recombination trajectory of one deep-propagating run.
//!
//! R-MAT scale 9 (512 vertices, edge factor 4) on P = 16 ranks of the sim
//! backend with the default partitioner: its long local chains make the
//! worklist do real work in every step, unlike the shallow Barabási–Albert
//! run behind the progress golden. A data-plane change that keeps the
//! fixed point and the dirty sets must leave every constant below as it
//! is: the step count, the Recombination bytes and messages, and the sum
//! of all distance estimates after initialization and after every step.

use aa_core::{AnytimeEngine, EngineConfig};
use aa_graph::rmat::{rmat, RmatParams};
use aa_graph::INF;
use aa_logp::Phase;

/// R-MAT seed whose graph the default multilevel partitioner splits.
const SEED: u64 = 3;

/// `(sum of finite estimates, number of INF estimates)` over every row.
fn estimate_sums(e: &AnytimeEngine) -> (u64, u64) {
    let mut sum = 0u64;
    let mut unreached = 0u64;
    for row in e.distances_dense() {
        for d in row {
            if d == INF {
                unreached += 1;
            } else {
                sum += u64::from(d);
            }
        }
    }
    (sum, unreached)
}

#[test]
fn rmat9_trajectory_is_pinned() {
    let g = rmat(9, 4 << 9, RmatParams::default(), 4, SEED);
    let mut e = AnytimeEngine::new(
        g,
        EngineConfig {
            num_procs: 16,
            seed: SEED,
            ..Default::default()
        },
    );
    e.initialize();
    let mut sums = vec![estimate_sums(&e)];
    while !e.rc_step() {
        sums.push(estimate_sums(&e));
        assert!(e.rc_steps() < 200, "no convergence");
    }
    sums.push(estimate_sums(&e));
    let rc = e.cluster().ledger().phase(Phase::Recombination);
    let got = (e.rc_steps(), rc.bytes, rc.messages, sums);
    let want = (
        7,
        7_017_794,
        1_791,
        vec![
            (319_002, 220_572),
            (867_473, 115_450),
            (826_519, 102_178),
            (808_260, 102_032),
            (807_068, 102_032),
            (807_024, 102_032),
            (807_022, 102_032),
            (807_022, 102_032),
        ],
    );
    assert_eq!(got, want);
}
