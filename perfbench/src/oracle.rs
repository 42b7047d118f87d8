//! Correctness gates: the engine's final state against the sequential
//! oracle `aa_graph::algo::apsp_dijkstra` on the same graph.

use aa_graph::algo::{apsp_dijkstra, closeness_from_distances};
use aa_graph::{Graph, VertexId, Weight};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// What the oracle said about one graph: a hash of its distance matrix
/// (taken after a full bit-for-bit comparison), its top-k ranking, and how
/// long `apsp_dijkstra` took.
#[derive(Debug, Clone)]
struct Verdict {
    dist_hash: u64,
    ranking: Vec<(VertexId, f64)>,
    apsp_ms: f64,
}

/// Runs `apsp_dijkstra` once per distinct graph. The first check of a graph
/// compares every entry; later checks of the same graph compare a hash of
/// the engine's matrix with the hash of the oracle's, so repeated passes
/// neither recompute the oracle nor keep its matrix in memory.
#[derive(Debug, Default)]
pub struct Oracle {
    seen: HashMap<u64, Verdict>,
}

impl Oracle {
    /// Checks the engine's dense distances over `g` against the oracle and
    /// returns the oracle's top-`k` ranking and `apsp_dijkstra` time in ms.
    pub fn check(
        &mut self,
        g: &Graph,
        engine: &[Vec<Weight>],
        k: usize,
    ) -> Result<(Vec<(VertexId, f64)>, f64), String> {
        let key = graph_key(g);
        if let Some(v) = self.seen.get(&key) {
            if matrix_hash(engine) != v.dist_hash {
                // Name the entry: recompute and compare in full.
                check_distances(engine, &apsp_dijkstra(g))?;
            }
            return Ok((v.ranking.clone(), v.apsp_ms));
        }
        let t = Instant::now();
        let want = apsp_dijkstra(g);
        let apsp_ms = t.elapsed().as_secs_f64() * 1e3;
        check_distances(engine, &want)?;
        let verdict = Verdict {
            dist_hash: matrix_hash(&want),
            ranking: ranking(g, &want, k),
            apsp_ms,
        };
        self.seen.insert(key, verdict.clone());
        Ok((verdict.ranking, apsp_ms))
    }
}

fn matrix_hash(m: &[Vec<Weight>]) -> u64 {
    let mut h = DefaultHasher::new();
    m.hash(&mut h);
    h.finish()
}

/// Hash of the graph's slots, liveness and weighted edges.
fn graph_key(g: &Graph) -> u64 {
    let mut h = DefaultHasher::new();
    g.capacity().hash(&mut h);
    for v in 0..g.capacity() as VertexId {
        g.is_alive(v).hash(&mut h);
    }
    let mut edges: Vec<_> = g.edges().collect();
    edges.sort_unstable();
    edges.hash(&mut h);
    h.finish()
}

/// Whether two graphs have the same slots, live vertices and weighted
/// edges.
pub fn same_graph(a: &Graph, b: &Graph) -> bool {
    graph_key(a) == graph_key(b)
}

/// Bit-identical comparison of the engine's dense distances with the
/// oracle's; names the first differing entry.
pub fn check_distances(engine: &[Vec<Weight>], oracle: &[Vec<Weight>]) -> Result<(), String> {
    if engine.len() != oracle.len() {
        return Err(format!(
            "distance matrix has {} rows, oracle {}",
            engine.len(),
            oracle.len()
        ));
    }
    for (u, (got, want)) in engine.iter().zip(oracle).enumerate() {
        if got != want {
            let v = got
                .iter()
                .zip(want)
                .position(|(a, b)| a != b)
                .unwrap_or(got.len().min(want.len()));
            return Err(format!(
                "d({u}, {v}) = {:?}, oracle {:?}",
                got.get(v),
                want.get(v)
            ));
        }
    }
    Ok(())
}

/// The oracle's top-`k` by closeness: score descending, ties by lower id.
pub fn ranking(g: &Graph, dist: &[Vec<Weight>], k: usize) -> Vec<(VertexId, f64)> {
    let mut ranked: Vec<(VertexId, f64)> = g
        .vertices()
        .map(|v| (v, closeness_from_distances(&dist[v as usize], v)))
        .filter(|&(_, c)| c > 0.0)
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked.truncate(k);
    ranked
}

/// Bit-identical comparison of a top-k answer with the oracle's ranking.
pub fn check_ranking(got: &[(VertexId, f64)], want: &[(VertexId, f64)]) -> Result<(), String> {
    let same = got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits());
    if same {
        Ok(())
    } else {
        Err(format!("top-k {got:?}, oracle {want:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aa_graph::generators;

    #[test]
    fn oracle_agrees_with_itself_and_flags_a_difference() {
        let g = generators::barabasi_albert(40, 2, 1, 3);
        let want = apsp_dijkstra(&g);
        let mut o = Oracle::default();
        let (top, _) = o.check(&g, &want, 5).expect("first check");
        assert_eq!(top.len(), 5);
        assert_eq!(top, ranking(&g, &want, 5));
        assert!(o.check(&g, &want, 5).is_ok(), "cached check");
        let mut bad = want.clone();
        bad[3][5] += 1;
        assert!(o.check(&g, &bad, 5).unwrap_err().contains("d(3, 5)"));
        assert!(Oracle::default().check(&g, &bad, 5).is_err());
        assert!(check_ranking(&top, &top).is_ok());
        assert!(check_ranking(&top[..4], &top).is_err());
        assert!(same_graph(&g, &g.clone()));
    }
}
