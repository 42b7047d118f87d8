//! Per-processor state: the local sub-graph view and its distance vectors.
//!
//! Following the papers, processor `p_i` holds `G_i = (V_i ∪ B_i, E_i)` where
//! `V_i` are its owned (local) vertices, `E_i` the edges with at least one
//! endpoint in `V_i`, and `B_i` the *external boundary vertices* — endpoints
//! of cut edges owned elsewhere, which "act as bridges that connect the
//! neighbouring sub-graphs". External vertices appear in the adjacency view
//! but are never expanded: their own neighbourhoods are unknown here.

use crate::dv::{relax_cols, relax_row, relax_row_tracked, DistanceMatrix};
use aa_graph::{Graph, VertexId, Weight, INF};
use aa_partition::Partition;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};

/// A boundary-row update on the wire: the full distance vector on first
/// contact, or only the entries that changed since the last send — the
/// papers' "it is sufficient to send only the updated values of the boundary
/// DVs" optimization.
#[derive(Debug, Clone)]
pub enum RowUpdate {
    /// The complete row (first send to a given processor).
    Full(Vec<Weight>),
    /// Changed `(column, new_value)` pairs since the receiver's copy.
    Delta(Vec<(u32, Weight)>),
}

impl RowUpdate {
    /// Wire size in bytes (4-byte vertex id header + payload).
    pub fn bytes(&self) -> usize {
        4 + match self {
            RowUpdate::Full(row) => 4 * row.len(),
            RowUpdate::Delta(d) => 8 * d.len(),
        }
    }
}

/// The changed `(column, value)` pairs between a previously sent snapshot and
/// the current row (entries that decreased; increases only happen through
/// deletion invalidation, which resets both sides consistently). Columns
/// past the end of the snapshot are new and always included.
pub fn diff_rows(snapshot: &[Weight], current: &[Weight]) -> Vec<(u32, Weight)> {
    let mut out = Vec::new();
    for (i, (&c, &s)) in current.iter().zip(snapshot).enumerate() {
        if c < s {
            // aa-lint: allow(AA05, i indexes a distance row whose length is bounded by the u32 vertex-id space)
            out.push((i as u32, c));
        }
    }
    for (i, &c) in current.iter().enumerate().skip(snapshot.len()) {
        // aa-lint: allow(AA05, i indexes a distance row whose length is bounded by the u32 vertex-id space)
        out.push((i as u32, c));
    }
    out
}

/// Overwrites `dst` with `src`, in place when the lengths agree.
fn copy_row(dst: &mut Vec<Weight>, src: &[Weight]) {
    if dst.len() == src.len() {
        dst.copy_from_slice(src);
    } else {
        dst.clear();
        dst.extend_from_slice(src);
    }
}

/// A boundary-row send whose delivery receipt came back negative: the
/// network dropped it and it awaits retransmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outstanding {
    /// Failed delivery attempts so far (≥ 1).
    pub attempts: u32,
    /// Earliest recombination step at which the next retransmit may go out.
    pub next_step: u64,
}

/// Longest backoff between retransmits of the same row, in rc steps.
pub const RETRY_BACKOFF_CAP: u64 = 8;

/// Backoff delay before the next retransmit after `attempts` failed
/// deliveries: 1, 2, 4, then capped at [`RETRY_BACKOFF_CAP`] steps. The
/// retry count itself is unbounded — min-merge delivery is idempotent, so
/// retrying forever is safe, and capping the *interval* keeps the expected
/// time-to-convergence finite for any drop rate below 1.
pub fn retry_backoff(attempts: u32) -> u64 {
    1u64 << (attempts.saturating_sub(1)).min(3)
}

/// Reusable scratch of [`ProcState::propagate_worklist`]: the FIFO of
/// queued rows and, per queued row, the columns that decreased since its
/// last pop. Indexed by distance-matrix row index; empty between calls.
#[derive(Debug, Clone, Default)]
pub(crate) struct Worklist {
    queue: VecDeque<VertexId>,
    /// Per row: waiting in `queue`.
    queued: Vec<bool>,
    /// Per row: relax every column on the next pop (caller seeds, and rows
    /// whose column list outgrew [`Self::limit`]).
    dense: Vec<bool>,
    /// Per row: columns decreased since the last pop, in first-change order.
    cols: Vec<Vec<u32>>,
    /// Row-major bitset over `(row, column)` deduplicating `cols`.
    seen: Vec<u64>,
    /// `u64` words per row in `seen`.
    words: usize,
    /// Column-list length past which a row turns dense.
    limit: usize,
}

impl Worklist {
    /// Sizes the scratch for `rows` rows of `cols` columns. Every flag, list
    /// and bit is clear between calls, so re-sizing needs no wipe.
    fn begin(&mut self, rows: usize, cols: usize) {
        self.words = cols.div_ceil(64);
        self.limit = (cols / 16).max(1);
        self.queued.resize(rows, false);
        self.dense.resize(rows, false);
        self.cols.resize(rows, Vec::new());
        self.seen.resize(rows * self.words, 0);
    }

    /// Queues row `ri` (vertex `v`) if it is not already waiting.
    // aa-lint: allow(AA07, row indices come from DistanceMatrix::index_of and begin() sized every table to the row count)
    fn enqueue(&mut self, ri: usize, v: VertexId) {
        if !self.queued[ri] {
            self.queued[ri] = true;
            self.queue.push_back(v);
        }
    }

    /// Records that column `t` of row `ri` decreased.
    // aa-lint: allow(AA07, row indices come from DistanceMatrix::index_of, columns are below the column count begin() sized seen for)
    fn record(&mut self, ri: usize, t: u32) {
        if self.dense[ri] {
            return;
        }
        let w = ri * self.words + (t / 64) as usize;
        let bit = 1u64 << (t % 64);
        if self.seen[w] & bit != 0 {
            return;
        }
        self.seen[w] |= bit;
        self.cols[ri].push(t);
        if self.cols[ri].len() > self.limit {
            self.make_dense(ri);
        }
    }

    /// Switches row `ri` to a dense relax on its next pop.
    // aa-lint: allow(AA07, row indices come from DistanceMatrix::index_of and begin() sized every table to the row count)
    fn make_dense(&mut self, ri: usize) {
        self.dense[ri] = true;
        clear_seen(&mut self.seen, ri * self.words, &self.cols[ri]);
        self.cols[ri].clear();
    }

    /// Pops row `ri`: moves its columns into `out` and clears its state.
    /// Returns whether the pop is dense.
    // aa-lint: allow(AA07, row indices come from DistanceMatrix::index_of and begin() sized every table to the row count)
    fn pop(&mut self, ri: usize, out: &mut Vec<u32>) -> bool {
        self.queued[ri] = false;
        out.clear();
        std::mem::swap(out, &mut self.cols[ri]);
        clear_seen(&mut self.seen, ri * self.words, out);
        std::mem::replace(&mut self.dense[ri], false)
    }
}

/// Clears the bits of columns `cols` in the `seen` row starting at word
/// `base`.
// aa-lint: allow(AA07, base is a row start inside seen and listed columns were recorded below the column count begin() sized seen for)
fn clear_seen(seen: &mut [u64], base: usize, cols: &[u32]) {
    for &t in cols {
        seen[base + (t / 64) as usize] &= !(1u64 << (t % 64));
    }
}

/// State of one virtual processor.
#[derive(Debug, Clone)]
pub struct ProcState {
    /// This processor's rank.
    pub rank: usize,
    /// Adjacency view: populated for local vertices (all their edges) and for
    /// external boundary vertices (only their edges to local vertices).
    pub adj: Vec<Vec<(VertexId, Weight)>>,
    /// Whether each vertex id slot is owned here.
    pub is_local: Vec<bool>,
    /// Distance vectors of owned vertices.
    pub dv: DistanceMatrix,
    /// Cached DV rows of external boundary vertices, as last received.
    pub ext_rows: HashMap<VertexId, Vec<Weight>>,
    /// Owned vertices whose rows changed since they were last sent.
    pub dirty: HashSet<VertexId>,
    /// Per boundary row: copy of the row as last sent (delta baseline).
    pub sent_snapshot: HashMap<VertexId, Vec<Weight>>,
    /// Per boundary row: processors that already hold a copy (and can
    /// therefore accept deltas). Under the ack-based protocol a destination
    /// joins this set only once a delivery receipt confirms it actually
    /// received the row.
    pub sent_to: HashMap<VertexId, HashSet<usize>>,
    /// Sends that were dropped by the (faulty) network and must be
    /// retransmitted, keyed by `(row, destination rank)`. Always empty on a
    /// fault-free cluster. A processor may not vote "no more updates" while
    /// this is non-empty — undelivered rows count as in-flight work.
    pub outstanding: HashMap<(VertexId, usize), Outstanding>,
    /// A pivot pass improved something last step, so another pass is owed
    /// even if no new boundary rows arrive (PivotPass refinement only).
    pub(crate) pivot_pending: bool,
    /// Scratch of [`Self::propagate_worklist`], kept to reuse its buffers.
    pub(crate) worklist: Worklist,
}

impl ProcState {
    /// Creates an empty processor state for a graph with `capacity` id slots.
    pub fn new(rank: usize, capacity: usize) -> Self {
        ProcState {
            rank,
            adj: vec![Vec::new(); capacity],
            is_local: vec![false; capacity],
            dv: DistanceMatrix::new(capacity),
            ext_rows: HashMap::new(),
            dirty: HashSet::new(),
            sent_snapshot: HashMap::new(),
            sent_to: HashMap::new(),
            outstanding: HashMap::new(),
            pivot_pending: false,
            worklist: Worklist::default(),
        }
    }

    /// This rank's termination vote: dirty rows, an owed pivot pass or an
    /// unacknowledged send are pending work.
    pub(crate) fn has_pending_work(&self) -> bool {
        !self.dirty.is_empty() || self.pivot_pending || !self.outstanding.is_empty()
    }

    /// Forgets all delta baselines (used when ownership changes under the
    /// receivers, e.g. repartitioning): the next send of every row is full.
    /// Pending retransmits are dropped too — callers re-dirty every affected
    /// row, so the data goes out again as full rows.
    pub fn reset_send_state(&mut self) {
        self.sent_snapshot.clear();
        self.sent_to.clear();
        self.outstanding.clear();
    }

    /// Re-aligns every delta baseline with the current row values. Only
    /// sound at quiescence (no dirty rows, no outstanding retransmits),
    /// where every receiver's cached copy equals the current row. Retransmit
    /// acks deliberately leave the baseline at an older (pointwise larger)
    /// snapshot; the deletion barrier calls this before invalidation so both
    /// sides of the baseline see identical values. A no-op on fault-free
    /// runs.
    pub fn sync_snapshots_to_rows(&mut self) {
        debug_assert!(self.outstanding.is_empty() && self.dirty.is_empty());
        // aa-lint: allow(AA04, per-key overwrite; the result is identical for every visit order)
        for (&u, snapshot) in self.sent_snapshot.iter_mut() {
            if self.dv.has_row(u) {
                copy_row(snapshot, self.dv.row(u));
            }
        }
    }

    /// Sets `u`'s delta baseline to its current row, in place when one
    /// exists.
    pub fn refresh_snapshot(&mut self, u: VertexId) {
        let row = self.dv.row(u);
        match self.sent_snapshot.get_mut(&u) {
            Some(snapshot) => copy_row(snapshot, row),
            None => {
                self.sent_snapshot.insert(u, row.to_vec());
            }
        }
    }

    /// Builds the update message for row `u` towards processor `dst`, or
    /// `None` if `dst` is already up to date. Does not record the send: the
    /// settle stage does, once the receipts are back.
    pub fn build_row_update(&self, u: VertexId, dst: usize) -> Option<RowUpdate> {
        self.build_row_updates(u, &[dst]).pop().flatten()
    }

    /// [`Self::build_row_update`] for each of `dsts`, in order. The delta
    /// against the baseline is computed once and shared by every
    /// destination that already holds the row.
    pub fn build_row_updates(&self, u: VertexId, dsts: &[usize]) -> Vec<Option<RowUpdate>> {
        let row = self.dv.row(u);
        let holders = self.sent_to.get(&u);
        let mut delta: Option<Vec<(u32, Weight)>> = None;
        dsts.iter()
            .map(|dst| {
                if !holders.is_some_and(|s| s.contains(dst)) {
                    return Some(RowUpdate::Full(row.to_vec()));
                }
                let delta = delta.get_or_insert_with(|| {
                    let snapshot = self
                        .sent_snapshot
                        .get(&u)
                        // aa-lint: allow(AA01, the settle stage gives a row its baseline on its first send, before any destination joins sent_to, so membership in sent_to implies the snapshot)
                        .expect("snapshot exists for sent row");
                    diff_rows(snapshot, row)
                });
                (!delta.is_empty()).then(|| RowUpdate::Delta(delta.clone()))
            })
            .collect()
    }

    /// Rebuilds the adjacency view and locality flags from the world graph
    /// and a partition. Does **not** touch the distance matrix or caches —
    /// callers decide what survives (everything after initial decomposition,
    /// migrated rows after repartitioning).
    // aa-lint: allow(AA07, vertex ids are allocated below world capacity and every table here (adj, is_local, dist rows) is sized to that capacity at rebuild/extend time)
    pub fn rebuild_view(&mut self, world: &Graph, partition: &Partition) {
        let cap = world.capacity();
        self.adj = vec![Vec::new(); cap];
        self.is_local = vec![false; cap];
        for v in world.vertices() {
            if partition.part_of(v) == Some(self.rank) {
                self.is_local[v as usize] = true;
            }
        }
        for v in world.vertices() {
            if !self.is_local[v as usize] {
                continue;
            }
            for &(u, w) in world.neighbors(v) {
                self.adj[v as usize].push((u, w));
                if !self.is_local[u as usize] {
                    // External boundary vertex: record only its local edges.
                    self.adj[u as usize].push((v, w));
                }
            }
        }
        // Local-local edges got pushed once from each side already; external
        // entries were pushed from the local side only. Nothing to dedup: the
        // loop above adds each (local, local) edge to both lists exactly once
        // and each (local, external) edge to both lists exactly once.
    }

    /// Whether local vertex `u` has a cut edge (is a local boundary vertex).
    // aa-lint: allow(AA07, vertex ids are allocated below world capacity and every table here (adj, is_local, dist rows) is sized to that capacity at rebuild/extend time)
    pub fn is_boundary(&self, u: VertexId) -> bool {
        self.adj[u as usize]
            .iter()
            .any(|&(v, _)| !self.is_local[v as usize])
    }

    /// The distinct owner ranks of `u`'s external neighbours.
    // aa-lint: allow(AA07, vertex ids are allocated below world capacity and every table here (adj, is_local, dist rows) is sized to that capacity at rebuild/extend time)
    pub fn neighbor_ranks(&self, u: VertexId, partition: &Partition) -> Vec<usize> {
        let mut ranks: Vec<usize> = self.adj[u as usize]
            .iter()
            .filter(|&&(v, _)| !self.is_local[v as usize])
            .filter_map(|&(v, _)| partition.part_of(v))
            .collect();
        ranks.sort_unstable();
        ranks.dedup();
        ranks
    }

    /// Records an edge in the adjacency view if at least one endpoint is
    /// local. Mirrors [`Self::rebuild_view`]'s shape.
    // aa-lint: allow(AA07, vertex ids are allocated below world capacity and every table here (adj, is_local, dist rows) is sized to that capacity at rebuild/extend time)
    pub fn view_add_edge(&mut self, u: VertexId, v: VertexId, w: Weight) {
        if !self.is_local[u as usize] && !self.is_local[v as usize] {
            return;
        }
        self.adj[u as usize].push((v, w));
        self.adj[v as usize].push((u, w));
    }

    /// Removes an edge from the adjacency view (no-op if absent).
    // aa-lint: allow(AA07, vertex ids are allocated below world capacity and every table here (adj, is_local, dist rows) is sized to that capacity at rebuild/extend time)
    pub fn view_remove_edge(&mut self, u: VertexId, v: VertexId) {
        if let Some(p) = self.adj[u as usize].iter().position(|&(x, _)| x == v) {
            self.adj[u as usize].swap_remove(p);
        }
        if let Some(p) = self.adj[v as usize].iter().position(|&(x, _)| x == u) {
            self.adj[v as usize].swap_remove(p);
        }
    }

    /// Grows all capacity-indexed structures to `new_cap` slots.
    pub fn extend_capacity(&mut self, new_cap: usize) {
        if new_cap <= self.adj.len() {
            return;
        }
        self.adj.resize(new_cap, Vec::new());
        self.is_local.resize(new_cap, false);
        self.dv.extend_cols(new_cap);
        // aa-lint: allow(AA04, independent per-row resize; no cross-row state, order cannot leak)
        for row in self.ext_rows.values_mut() {
            row.resize(new_cap, INF);
        }
        // aa-lint: allow(AA04, independent per-row resize; no cross-row state, order cannot leak)
        for row in self.sent_snapshot.values_mut() {
            row.resize(new_cap, INF);
        }
    }

    /// Applies a received boundary-row update: replaces or patches the cached
    /// copy, then relaxes the adjacent local rows. Returns worklist seeds.
    ///
    /// A delta relaxes the neighbours on *every* delta entry, not only on
    /// entries that lower the cache: the broadcast paths of dynamic updates
    /// overwrite cached rows without relaxing their neighbours, and the next
    /// delta from the owner (taken against its older baseline) is what
    /// carries those columns to them.
    // aa-lint: allow(AA07, delta columns index a row resized to world capacity first, and senders share the same world whose capacity every processor extends before exchanging)
    pub fn apply_row_update(&mut self, v: VertexId, update: RowUpdate) -> Vec<VertexId> {
        match update {
            RowUpdate::Full(row) => self.apply_external_row(v, row),
            RowUpdate::Delta(delta) => {
                let cap = self.adj.len();
                let row = self.ext_rows.entry(v).or_insert_with(|| vec![INF; cap]);
                row.resize(cap, INF);
                for &(col, val) in &delta {
                    if val < row[col as usize] {
                        row[col as usize] = val;
                    }
                }
                let mut seeds = Vec::new();
                for &(u, w) in &self.adj[v as usize] {
                    if !self.is_local[u as usize] {
                        continue;
                    }
                    let dst = self.dv.row_mut(u);
                    let mut changed = false;
                    for &(col, _) in &delta {
                        let t = col as usize;
                        let cand = row[t].saturating_add(w);
                        if cand < dst[t] {
                            dst[t] = cand;
                            changed = true;
                        }
                    }
                    if changed {
                        seeds.push(u);
                        self.dirty.insert(u);
                    }
                }
                seeds
            }
        }
    }

    /// Dijkstra from `source` restricted to the local sub-graph: local
    /// vertices are expanded, external boundary vertices are reached but not
    /// expanded. Returns a full-width distance row.
    // aa-lint: allow(AA07, vertex ids are allocated below world capacity and every table here (adj, is_local, dist rows) is sized to that capacity at rebuild/extend time)
    pub fn local_dijkstra(&self, source: VertexId) -> Vec<Weight> {
        let mut dist = vec![INF; self.adj.len()];
        dist[source as usize] = 0;
        let mut heap = BinaryHeap::new();
        heap.push(Reverse((0u32, source)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            if !self.is_local[u as usize] {
                continue; // external: reachable, not expandable
            }
            for &(v, w) in &self.adj[u as usize] {
                let nd = d.saturating_add(w);
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    heap.push(Reverse((nd, v)));
                }
            }
        }
        dist
    }

    /// Initial approximation: computes the local-sub-graph APSP rows for all
    /// owned vertices by local Dijkstra and installs them as the distance
    /// vectors. Marks every row dirty. Ranks run this in parallel through
    /// the cluster's per-rank stage (the papers' intra-node threading level).
    // aa-lint: allow(AA07, sources come from the matrix's own vertex list and Dijkstra rows are full-width by construction)
    pub fn initial_approximation(&mut self) {
        for s in self.dv.vertices().to_vec() {
            let row = self.local_dijkstra(s);
            let dst = self.dv.row_mut(s);
            dst.copy_from_slice(&row[..dst.len()]);
            self.dirty.insert(s);
        }
    }

    /// Stores a received external boundary row and relaxes the adjacent local
    /// rows. Returns the local vertices whose rows improved (worklist seeds).
    // aa-lint: allow(AA07, vertex ids are allocated below world capacity and every table here (adj, is_local, dist rows) is sized to that capacity at rebuild/extend time — short external rows are resized to capacity before any read)
    pub fn apply_external_row(&mut self, v: VertexId, row: Vec<Weight>) -> Vec<VertexId> {
        let mut seeds = Vec::new();
        // The sender's column count can momentarily trail ours mid-batch;
        // pad defensively.
        let mut row = row;
        row.resize(self.adj.len(), INF);
        for &(u, w) in &self.adj[v as usize] {
            if self.is_local[u as usize] && self.dv.relax_with_external(u, &row, w) {
                seeds.push(u);
                self.dirty.insert(u);
            }
        }
        self.ext_rows.insert(v, row);
        seeds
    }

    /// Label-correcting propagation over local edges from the given seeds
    /// until the local fixed point. Marks improved rows dirty. Returns
    /// whether anything changed.
    ///
    /// Column-sparse: a seed relaxes its local neighbours on every column at
    /// its first pop; any later pop relaxes them only on the columns that
    /// decreased since the row's previous pop. This reaches the same fixed
    /// point (and dirty set) as re-relaxing whole rows provided every row
    /// written outside this worklist is either passed as a seed or already
    /// consistent with its local neighbours — the invariant every caller
    /// keeps (the seed/pull invariant in DESIGN.md).
    // aa-lint: allow(AA07, vertex ids are allocated below world capacity and every table here (adj, is_local, dist rows) is sized to that capacity at rebuild/extend time)
    pub fn propagate_worklist(&mut self, seeds: Vec<VertexId>) -> bool {
        let wl = &mut self.worklist;
        wl.begin(self.dv.row_count(), self.dv.col_count());
        for s in seeds {
            if let Some(ri) = self.dv.index_of(s) {
                wl.dense[ri] = true;
                wl.enqueue(ri, s);
            }
        }
        let mut popped = Vec::new();
        let mut changed = false;
        while let Some(v) = wl.queue.pop_front() {
            let Some(vi) = self.dv.index_of(v) else {
                continue;
            };
            let dense = wl.pop(vi, &mut popped);
            for &(u, w) in &self.adj[v as usize] {
                if !self.is_local[u as usize] {
                    continue;
                }
                let Some(ui) = self.dv.index_of(u) else {
                    continue;
                };
                let Some((dst, src)) = self.dv.pair_mut(u, v) else {
                    continue;
                };
                let mut hit = false;
                let on_change = |t| {
                    hit = true;
                    wl.record(ui, t);
                };
                if dense {
                    relax_row_tracked(dst, src, w, on_change);
                } else {
                    relax_cols(dst, src, w, &popped, on_change);
                }
                if hit {
                    changed = true;
                    self.dirty.insert(u);
                    wl.enqueue(ui, u);
                }
            }
        }
        changed
    }

    /// Re-establishes the local fixed point after rows were created,
    /// restored or moved outside the worklist (migration, checkpoint
    /// restore): pulls every row through the cached external rows, then
    /// propagates densely from every row. Returns whether anything changed.
    pub fn restore_local_fixpoint(&mut self) -> bool {
        let rows = self.dv.vertices().to_vec();
        let mut changed = false;
        for &u in &rows {
            changed |= self.relax_from_cache(u);
        }
        self.propagate_worklist(rows) || changed
    }

    /// Pulls row `u` through the rows of all its neighbours: local rows
    /// held here and cached external rows. Marks dirty on change. A row
    /// created outside the worklist calls this before being seeded.
    // aa-lint: allow(AA07, vertex ids are allocated below world capacity and every table here (adj, is_local, dist rows) is sized to that capacity at rebuild/extend time)
    pub fn pull_row(&mut self, u: VertexId) -> bool {
        let mut changed = self.relax_from_cache(u);
        for &(x, w) in &self.adj[u as usize] {
            if let Some((dst, src)) = self.dv.pair_mut(u, x) {
                changed |= relax_row(dst, src, w);
            }
        }
        if changed {
            self.dirty.insert(u);
        }
        changed
    }

    /// The papers' Floyd–Warshall refinement variant: one pass relaxing every
    /// owned row through every local *boundary* pivot (`D[u][*] = min(D[u][*],
    /// D[u][l] + D[l][*])`). Marks improved rows dirty. Returns whether
    /// anything changed.
    // aa-lint: allow(AA07, pivots and rows both come from the matrix's own vertex list and row width equals capacity, so row(u)[l] is in range)
    pub fn pivot_pass(&mut self) -> bool {
        let pivots: Vec<VertexId> = self
            .dv
            .vertices()
            .iter()
            .copied()
            .filter(|&l| self.is_boundary(l))
            .collect();
        let rows: Vec<VertexId> = self.dv.vertices().to_vec();
        let mut changed = false;
        for &l in &pivots {
            for &u in &rows {
                if u == l {
                    continue;
                }
                let offset = self.dv.row(u)[l as usize];
                if offset != INF && self.dv.relax_rows(u, l, offset) {
                    changed = true;
                    self.dirty.insert(u);
                }
            }
        }
        changed
    }

    /// Re-relaxes local vertex `u` through all cached external rows of its
    /// external neighbours (used after deletion invalidation). Returns
    /// whether the row improved.
    // aa-lint: allow(AA07, vertex ids are allocated below world capacity and every table here (adj, is_local, dist rows) is sized to that capacity at rebuild/extend time)
    pub fn relax_from_cache(&mut self, u: VertexId) -> bool {
        let mut changed = false;
        for &(b, w) in &self.adj[u as usize] {
            if self.is_local[b as usize] {
                continue;
            }
            if let Some(row) = self.ext_rows.get(&b) {
                changed |= self.dv.relax_with_external(u, row, w);
            }
        }
        if changed {
            self.dirty.insert(u);
        }
        changed
    }

    /// Min-merges a freshly computed local-Dijkstra row into `u`'s stored row
    /// (used when reseeding after invalidation). Marks dirty on change.
    pub fn merge_row_min(&mut self, u: VertexId, fresh: &[Weight]) -> bool {
        let dst = self.dv.row_mut(u);
        let mut changed = false;
        for (d, &f) in dst.iter_mut().zip(fresh) {
            if f < *d {
                *d = f;
                changed = true;
            }
        }
        if changed {
            self.dirty.insert(u);
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aa_graph::generators;
    use aa_partition::{Partitioner, RoundRobinPartitioner};

    /// Path 0-1-2-3 split as {0,1} | {2,3}.
    fn split_path() -> (Graph, Partition, ProcState, ProcState) {
        let g = generators::path(4);
        let mut part = Partition::unassigned(4, 2);
        part.assign(0, 0);
        part.assign(1, 0);
        part.assign(2, 1);
        part.assign(3, 1);
        let mut p0 = ProcState::new(0, 4);
        let mut p1 = ProcState::new(1, 4);
        p0.rebuild_view(&g, &part);
        p1.rebuild_view(&g, &part);
        for v in [0u32, 1] {
            p0.dv.add_row(v);
        }
        for v in [2u32, 3] {
            p1.dv.add_row(v);
        }
        (g, part, p0, p1)
    }

    /// Row `u` as the settle stage leaves a send to exactly `dsts` that
    /// every one of them acked.
    fn mark_sent(ps: &mut ProcState, u: VertexId, dsts: &[usize]) {
        ps.refresh_snapshot(u);
        ps.sent_to.insert(u, dsts.iter().copied().collect());
    }

    #[test]
    fn view_contains_local_and_boundary_edges() {
        let (_, _, p0, p1) = split_path();
        assert!(p0.is_local[0] && p0.is_local[1]);
        assert!(!p0.is_local[2]);
        // p0 sees edge 1-2 from both sides, but nothing about 2-3.
        assert_eq!(p0.adj[1], vec![(0, 1), (2, 1)]);
        assert_eq!(p0.adj[2], vec![(1, 1)]);
        assert!(p0.adj[3].is_empty());
        assert!(p1.adj[0].is_empty());
    }

    #[test]
    fn boundary_detection() {
        let (_, part, p0, _) = split_path();
        assert!(!p0.is_boundary(0));
        assert!(p0.is_boundary(1));
        assert_eq!(p0.neighbor_ranks(1, &part), vec![1]);
        assert!(p0.neighbor_ranks(0, &part).is_empty());
    }

    #[test]
    fn local_dijkstra_stops_at_external_vertices() {
        let (_, _, p0, _) = split_path();
        let d = p0.local_dijkstra(0);
        assert_eq!(d[0], 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], 2, "external boundary vertex is reachable");
        assert_eq!(d[3], INF, "but not expanded");
    }

    #[test]
    fn initial_approximation_fills_rows_and_dirties() {
        let (_, _, mut p0, _) = split_path();
        p0.initial_approximation();
        assert_eq!(p0.dv.row(0), &[0, 1, 2, INF]);
        assert_eq!(p0.dv.row(1), &[1, 0, 1, INF]);
        assert_eq!(p0.dirty.len(), 2);
    }

    #[test]
    fn external_row_application_relaxes_neighbors() {
        let (_, _, mut p0, mut p1) = split_path();
        p0.initial_approximation();
        p1.initial_approximation();
        // p1 sends row of vertex 2 to p0.
        let row2 = p1.dv.row(2).to_vec();
        p0.dirty.clear();
        let seeds = p0.apply_external_row(2, row2);
        assert_eq!(seeds, vec![1]);
        assert_eq!(p0.dv.row(1), &[1, 0, 1, 2]);
        // Worklist propagation carries it to vertex 0.
        p0.propagate_worklist(seeds);
        assert_eq!(p0.dv.row(0), &[0, 1, 2, 3]);
        assert!(p0.dirty.contains(&0) && p0.dirty.contains(&1));
    }

    #[test]
    fn pivot_pass_spreads_boundary_knowledge() {
        let (_, _, mut p0, mut p1) = split_path();
        p0.initial_approximation();
        p1.initial_approximation();
        let row2 = p1.dv.row(2).to_vec();
        p0.apply_external_row(2, row2);
        // Row 1 now knows d(1,3)=2; a pivot pass through boundary vertex 1
        // must teach row 0.
        assert!(p0.pivot_pass());
        assert_eq!(p0.dv.row(0)[3], 3);
        assert!(!p0.pivot_pass(), "second pass is a fixed point");
    }

    #[test]
    fn view_edge_updates() {
        let (_, _, mut p0, _) = split_path();
        p0.view_add_edge(0, 3, 5); // 3 is external: recorded from both sides
        assert!(p0.adj[0].contains(&(3, 5)));
        assert!(p0.adj[3].contains(&(0, 5)));
        p0.view_remove_edge(0, 3);
        assert!(!p0.adj[0].contains(&(3, 5)));
        assert!(p0.adj[3].is_empty());
        // Edge fully external to this proc: ignored.
        p0.view_add_edge(2, 3, 1);
        assert!(p0.adj[2].iter().all(|&(x, _)| x != 3));
    }

    #[test]
    fn extend_capacity_grows_everything() {
        let (_, _, mut p0, _) = split_path();
        p0.initial_approximation();
        p0.ext_rows.insert(2, vec![2, 1, 0, 1]);
        p0.extend_capacity(6);
        assert_eq!(p0.adj.len(), 6);
        assert_eq!(p0.dv.col_count(), 6);
        assert_eq!(p0.dv.row(0)[5], INF);
        assert_eq!(p0.ext_rows[&2].len(), 6);
    }

    #[test]
    fn relax_from_cache_uses_stored_rows() {
        let (_, _, mut p0, mut p1) = split_path();
        p0.initial_approximation();
        p1.initial_approximation();
        let row2 = p1.dv.row(2).to_vec();
        p0.apply_external_row(2, row2);
        // Wipe row 1's knowledge of vertex 3 and recover it from the cache.
        p0.dv.row_mut(1)[3] = INF;
        p0.dirty.clear();
        assert!(p0.relax_from_cache(1));
        assert_eq!(p0.dv.row(1)[3], 2);
        assert!(p0.dirty.contains(&1));
    }

    #[test]
    fn merge_row_min_takes_pointwise_minimum() {
        let (_, _, mut p0, _) = split_path();
        p0.initial_approximation();
        p0.dv.row_mut(0)[1] = INF;
        assert!(p0.merge_row_min(0, &[9, 1, 9, 9]));
        assert_eq!(p0.dv.row(0), &[0, 1, 2, 9]);
        assert!(!p0.merge_row_min(0, &[9, 9, 9, 9]));
    }

    #[test]
    fn diff_rows_reports_decreases_and_new_columns() {
        assert_eq!(diff_rows(&[5, 3, INF], &[5, 2, INF]), vec![(1, 2)]);
        assert_eq!(
            diff_rows(&[5], &[5, 7]),
            vec![(1, 7)],
            "grown column counts as new"
        );
        assert!(diff_rows(&[5, 3], &[5, 3]).is_empty());
    }

    #[test]
    fn row_update_bytes() {
        assert_eq!(RowUpdate::Full(vec![1, 2, 3]).bytes(), 4 + 12);
        assert_eq!(RowUpdate::Delta(vec![(0, 1), (5, 2)]).bytes(), 4 + 16);
    }

    #[test]
    fn first_send_is_full_then_delta() {
        let (_, _, mut p0, _) = split_path();
        p0.initial_approximation();
        let upd = p0.build_row_update(1, 1).unwrap();
        assert!(matches!(upd, RowUpdate::Full(_)));
        mark_sent(&mut p0, 1, &[1]);
        assert!(
            p0.build_row_update(1, 1).is_none(),
            "unchanged row sends nothing"
        );
        // Improve one entry: next update is a one-entry delta.
        p0.dv.row_mut(1)[3] = 2;
        match p0.build_row_update(1, 1).unwrap() {
            RowUpdate::Delta(d) => assert_eq!(d, vec![(3, 2)]),
            other => panic!("expected delta, got {other:?}"),
        }
        // A new destination still gets the full row.
        assert!(matches!(
            p0.build_row_update(1, 0).unwrap(),
            RowUpdate::Full(_)
        ));
    }

    #[test]
    fn missed_destination_gets_a_full_row() {
        let (_, _, mut p0, _) = split_path();
        p0.initial_approximation();
        mark_sent(&mut p0, 1, &[1, 0]);
        p0.dv.row_mut(1)[3] = 2;
        mark_sent(&mut p0, 1, &[1]); // rank 0 missed this update
        assert!(
            matches!(p0.build_row_update(1, 0).unwrap(), RowUpdate::Full(_)),
            "a rank that missed an update must get a full row"
        );
        assert!(p0.build_row_update(1, 1).is_none());
    }

    #[test]
    fn apply_delta_patches_cache_and_relaxes() {
        let (_, _, mut p0, mut p1) = split_path();
        p0.initial_approximation();
        p1.initial_approximation();
        let row2 = p1.dv.row(2).to_vec();
        p0.apply_external_row(2, row2);
        // p1 learns d(2,0) = 2 and ships only the delta.
        p1.dv.row_mut(2)[0] = 2;
        let seeds = p0.apply_row_update(2, RowUpdate::Delta(vec![(0, 2)]));
        assert_eq!(p0.ext_rows[&2][0], 2);
        assert_eq!(
            seeds,
            Vec::<VertexId>::new(),
            "no local row improves from this"
        );
        // A useful delta: d(2,3) drops to 1 (already known) then d(2,3)=0 fake
        // improvement must relax local vertex 1.
        let seeds = p0.apply_row_update(2, RowUpdate::Delta(vec![(3, 0)]));
        assert_eq!(seeds, vec![1]);
        assert_eq!(p0.dv.row(1)[3], 1);
    }

    #[test]
    fn delta_relaxes_neighbours_on_entries_the_cache_already_holds() {
        let (_, _, mut p0, mut p1) = split_path();
        p0.initial_approximation();
        p1.initial_approximation();
        p0.apply_external_row(2, p1.dv.row(2).to_vec());
        p0.propagate_worklist(vec![1]);
        assert_eq!(p0.dv.row(1)[3], 2);
        // A dynamic-update broadcast lowers the cached row in place without
        // relaxing vertex 2's local neighbour ...
        p0.ext_rows.get_mut(&2).unwrap()[3] = 0;
        p0.dirty.clear();
        // ... and the owner's next delta carries exactly the new value.
        let seeds = p0.apply_row_update(2, RowUpdate::Delta(vec![(3, 0)]));
        assert_eq!(seeds, vec![1], "the neighbour is relaxed on that entry");
        assert_eq!(p0.dv.row(1)[3], 1);
        assert!(p0.dirty.contains(&1));
    }

    /// Reference propagation: a full-row FIFO worklist in which every pop
    /// re-relaxes the popped row's neighbours on every column.
    fn propagate_reference(ps: &mut ProcState, seeds: Vec<VertexId>) -> bool {
        let mut changed = false;
        let mut queue: VecDeque<VertexId> = seeds.into();
        let mut queued: HashSet<VertexId> = queue.iter().copied().collect();
        while let Some(v) = queue.pop_front() {
            queued.remove(&v);
            for &(u, w) in ps.adj[v as usize].clone().iter() {
                if !ps.is_local[u as usize] {
                    continue;
                }
                if ps.dv.relax_rows(u, v, w) {
                    changed = true;
                    ps.dirty.insert(u);
                    if queued.insert(u) {
                        queue.push_back(u);
                    }
                }
            }
        }
        changed
    }

    #[test]
    fn sparse_propagation_matches_full_row_reference() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x5EED);
        for case in 0..60u64 {
            // A random view: rank 0 owns about a third of the vertices, the
            // rest are owned elsewhere and show up as boundary vertices.
            let n: usize = rng.gen_range(8..120);
            let m = n * rng.gen_range(1..4usize);
            let g = generators::erdos_renyi_gnm(n, m, 5, case);
            let mut part = Partition::unassigned(n, 3);
            for v in 0..n as VertexId {
                part.assign(v, rng.gen_range(0..3));
            }
            let mut ps = ProcState::new(0, n);
            ps.rebuild_view(&g, &part);
            for v in 0..n as VertexId {
                if ps.is_local[v as usize] {
                    ps.dv.add_row(v);
                }
            }
            if ps.dv.row_count() == 0 {
                continue;
            }
            ps.initial_approximation();
            // Cached external rows reach the local rows, as in a first
            // recombination step, and settle to a consistent state.
            let mut seeds = Vec::new();
            for b in 0..n as VertexId {
                if !ps.is_local[b as usize] && !ps.adj[b as usize].is_empty() {
                    let row: Vec<Weight> = (0..n)
                        .map(|_| {
                            if rng.gen_bool(0.7) {
                                rng.gen_range(0..30)
                            } else {
                                INF
                            }
                        })
                        .collect();
                    seeds.extend(ps.apply_external_row(b, row));
                }
            }
            ps.propagate_worklist(seeds);
            // Random decreases written outside the worklist: those rows are
            // seeds, joined by a few rows that did not change.
            let rows = ps.dv.vertices().to_vec();
            let mut seeds = Vec::new();
            for _ in 0..rng.gen_range(1..6) {
                let x = rows[rng.gen_range(0..rows.len())];
                for _ in 0..rng.gen_range(1..8) {
                    let t = rng.gen_range(0..n);
                    let row = ps.dv.row_mut(x);
                    row[t] = row[t].min(rng.gen_range(0..10));
                }
                seeds.push(x);
            }
            for _ in 0..rng.gen_range(0..3) {
                seeds.push(rows[rng.gen_range(0..rows.len())]);
            }
            ps.dirty.clear();
            let mut reference = ps.clone();
            let want = propagate_reference(&mut reference, seeds.clone());
            let got = ps.propagate_worklist(seeds);
            assert_eq!(got, want, "case {case}: changed flag");
            for &x in &rows {
                assert_eq!(ps.dv.row(x), reference.dv.row(x), "case {case}: row {x}");
            }
            assert_eq!(ps.dirty, reference.dirty, "case {case}: dirty set");
        }
    }

    #[test]
    fn apply_delta_without_cache_starts_from_inf() {
        let (_, _, mut p0, _) = split_path();
        p0.initial_approximation();
        let seeds = p0.apply_row_update(2, RowUpdate::Delta(vec![(3, 1)]));
        assert_eq!(p0.ext_rows[&2][3], 1);
        assert_eq!(p0.ext_rows[&2][0], INF);
        assert_eq!(seeds, vec![1], "local 1 learns d(1,3) = 2");
        assert_eq!(p0.dv.row(1)[3], 2);
    }

    #[test]
    fn reset_send_state_forces_full_rows() {
        let (_, _, mut p0, _) = split_path();
        p0.initial_approximation();
        mark_sent(&mut p0, 1, &[1]);
        p0.reset_send_state();
        assert!(matches!(
            p0.build_row_update(1, 1).unwrap(),
            RowUpdate::Full(_)
        ));
    }

    #[test]
    fn rebuild_view_with_real_partitioner() {
        let g = generators::barabasi_albert(60, 2, 1, 3);
        let part = RoundRobinPartitioner.partition(&g, 4);
        for rank in 0..4 {
            let mut ps = ProcState::new(rank, g.capacity());
            ps.rebuild_view(&g, &part);
            // Every local vertex has its full world adjacency.
            for v in g.vertices() {
                if part.part_of(v) == Some(rank) {
                    assert_eq!(ps.adj[v as usize].len(), g.degree(v));
                }
            }
        }
    }
}
