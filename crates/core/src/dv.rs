//! Distance vectors and the distance matrix owned by one virtual processor.
//!
//! Every processor stores one **distance vector** (DV) per vertex it owns:
//! the current shortest-path estimates from that vertex to *every* vertex id
//! slot in the graph. Estimates start at `INF` and only ever decrease
//! (except during deletion invalidation), which is the anytime property's
//! backbone. Columns grow when vertices are added (the papers' amortized
//! doubling analysis applies — `Vec` growth is exactly that), and whole rows
//! migrate between processors during repartitioning.

use aa_graph::{VertexId, Weight, INF};

/// Relaxes `dst[t] = min(dst[t], src[t] + offset)` for every column.
/// Returns whether any entry decreased. `INF` saturates.
#[inline]
pub fn relax_row(dst: &mut [Weight], src: &[Weight], offset: Weight) -> bool {
    let mut changed = false;
    relax_row_tracked(dst, src, offset, |_| changed = true);
    changed
}

/// [`relax_row`] that also reports every decreased column to `on_change`.
/// Scans in fixed-width chunks: a chunk with no improvement (the common
/// case) costs one branch-free, vectorizable compare and no stores.
#[inline]
pub fn relax_row_tracked(
    dst: &mut [Weight],
    src: &[Weight],
    offset: Weight,
    mut on_change: impl FnMut(u32),
) {
    debug_assert_eq!(dst.len(), src.len());
    const CHUNK: usize = 16;
    for (ci, (dc, sc)) in dst.chunks_mut(CHUNK).zip(src.chunks(CHUNK)).enumerate() {
        let hit = dc
            .iter()
            .zip(sc)
            .fold(false, |acc, (&d, &s)| acc | (s.saturating_add(offset) < d));
        if !hit {
            continue;
        }
        for (i, (d, &s)) in dc.iter_mut().zip(sc).enumerate() {
            let cand = s.saturating_add(offset);
            if cand < *d {
                *d = cand;
                // aa-lint: allow(AA05, the column indexes a distance row whose length is bounded by the u32 vertex-id space)
                on_change((ci * CHUNK + i) as u32);
            }
        }
    }
}

/// [`relax_row`] restricted to the columns in `cols`, reporting every
/// decreased column to `on_change`. Columns outside the rows are skipped.
#[inline]
pub fn relax_cols(
    dst: &mut [Weight],
    src: &[Weight],
    offset: Weight,
    cols: &[u32],
    mut on_change: impl FnMut(u32),
) {
    for &t in cols {
        let (Some(d), Some(&s)) = (dst.get_mut(t as usize), src.get(t as usize)) else {
            continue;
        };
        let cand = s.saturating_add(offset);
        if cand < *d {
            *d = cand;
            on_change(t);
        }
    }
}

/// The distance vectors of one processor's owned vertices.
#[derive(Debug, Clone, Default)]
pub struct DistanceMatrix {
    rows: Vec<Vec<Weight>>,
    /// Global vertex id of each row.
    vertex_of_row: Vec<VertexId>,
    /// Row index of each global vertex id slot (`u32::MAX` if not owned here).
    row_of: Vec<u32>,
    cols: usize,
}

const NO_ROW: u32 = u32::MAX;

impl DistanceMatrix {
    /// Creates an empty matrix with `cols` columns (one per vertex id slot).
    pub fn new(cols: usize) -> Self {
        DistanceMatrix {
            rows: Vec::new(),
            vertex_of_row: Vec::new(),
            row_of: vec![NO_ROW; cols],
            cols,
        }
    }

    /// Number of owned rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns (vertex id slots).
    pub fn col_count(&self) -> usize {
        self.cols
    }

    /// Whether this matrix owns a row for vertex `v`.
    // aa-lint: allow(AA07, the index is range-checked by the && short-circuit on the same line)
    pub fn has_row(&self, v: VertexId) -> bool {
        (v as usize) < self.row_of.len() && self.row_of[v as usize] != NO_ROW
    }

    /// Adds a row for vertex `v`, initialized to `INF` except `row[v] = 0`.
    ///
    /// # Panics
    /// Panics if `v` already has a row or lies outside the column range.
    // aa-lint: allow(AA07, documented-panic constructor — the asserts above every index state the contract and fire before any index can miss)
    pub fn add_row(&mut self, v: VertexId) {
        assert!((v as usize) < self.cols, "vertex {v} outside column range");
        assert!(!self.has_row(v), "vertex {v} already has a row");
        let mut row = vec![INF; self.cols];
        row[v as usize] = 0;
        // aa-lint: allow(AA05, row count is bounded by the u32 vertex-id space)
        self.row_of[v as usize] = self.rows.len() as u32;
        self.rows.push(row);
        self.vertex_of_row.push(v);
    }

    /// Inserts a row with explicit contents (used for migration).
    // aa-lint: allow(AA07, documented-panic constructor — same assert-first contract as add_row)
    pub fn insert_row(&mut self, v: VertexId, mut row: Vec<Weight>) {
        assert!((v as usize) < self.cols, "vertex {v} outside column range");
        assert!(!self.has_row(v), "vertex {v} already has a row");
        // A migrated row may predate recent column extensions.
        assert!(row.len() <= self.cols, "row longer than column count");
        row.resize(self.cols, INF);
        // aa-lint: allow(AA05, row count is bounded by the u32 vertex-id space)
        self.row_of[v as usize] = self.rows.len() as u32;
        self.rows.push(row);
        self.vertex_of_row.push(v);
    }

    /// Removes and returns the row of vertex `v` (used for migration).
    // aa-lint: allow(AA07, migration path — the NO_ROW assert fires before the swap_remove indexes and row_of covers every id the owning engine hands in)
    pub fn take_row(&mut self, v: VertexId) -> Vec<Weight> {
        let idx = self.row_of[v as usize];
        assert!(idx != NO_ROW, "vertex {v} has no row here");
        let idx = idx as usize;
        let row = self.rows.swap_remove(idx);
        self.vertex_of_row.swap_remove(idx);
        self.row_of[v as usize] = NO_ROW;
        if idx < self.rows.len() {
            let moved = self.vertex_of_row[idx];
            // aa-lint: allow(AA05, idx indexes the row table, bounded by the u32 vertex-id space)
            self.row_of[moved as usize] = idx as u32;
        }
        row
    }

    /// Grows the column space to `new_cols`, filling new entries with `INF`.
    /// No-op if `new_cols <= col_count()`.
    pub fn extend_cols(&mut self, new_cols: usize) {
        if new_cols <= self.cols {
            return;
        }
        for row in &mut self.rows {
            row.resize(new_cols, INF);
        }
        self.row_of.resize(new_cols, NO_ROW);
        self.cols = new_cols;
    }

    /// The distance vector of vertex `v`.
    ///
    /// # Panics
    /// Panics if `v` has no row here.
    // aa-lint: allow(AA07, documented-panic accessor — callers hold the has_row/ownership invariant and the assert names the violation)
    pub fn row(&self, v: VertexId) -> &[Weight] {
        let idx = self.row_of[v as usize];
        assert!(idx != NO_ROW, "vertex {v} has no row here");
        &self.rows[idx as usize]
    }

    /// Mutable distance vector of vertex `v`.
    // aa-lint: allow(AA07, documented-panic accessor — same contract as row)
    pub fn row_mut(&mut self, v: VertexId) -> &mut [Weight] {
        let idx = self.row_of[v as usize];
        assert!(idx != NO_ROW, "vertex {v} has no row here");
        &mut self.rows[idx as usize]
    }

    /// Owned vertices in row order.
    pub fn vertices(&self) -> &[VertexId] {
        &self.vertex_of_row
    }

    /// Row index of vertex `v`, or `None` if `v` has no row here. Indices
    /// are dense in `0..row_count()` and stable until a row is taken.
    pub fn index_of(&self, v: VertexId) -> Option<usize> {
        match self.row_of.get(v as usize) {
            Some(&idx) if idx != NO_ROW => Some(idx as usize),
            _ => None,
        }
    }

    /// The row of `dst` (mutable) beside the row of `src`, or `None` if
    /// either has no row here or both name the same row.
    // aa-lint: allow(AA07, both indices come from index_of and are below rows.len(); split_at_mut offsets derive from them)
    pub fn pair_mut(&mut self, dst: VertexId, src: VertexId) -> Option<(&mut [Weight], &[Weight])> {
        let (di, si) = (self.index_of(dst)?, self.index_of(src)?);
        if di == si {
            return None;
        }
        let (lo, hi) = (di.min(si), di.max(si));
        let (a, b) = self.rows.split_at_mut(hi);
        let (lo_row, hi_row) = (&mut a[lo], &mut b[0]);
        Some(if di < si {
            (lo_row.as_mut_slice(), hi_row.as_slice())
        } else {
            (hi_row.as_mut_slice(), lo_row.as_slice())
        })
    }

    /// `dst_row[t] = min(dst_row[t], src_row[t] + offset)` where both rows
    /// live in this matrix. Returns whether anything changed; a self-relax is
    /// a no-op.
    ///
    /// # Panics
    /// Panics if either vertex has no row here.
    // aa-lint: allow(AA07, documented-panic accessor — callers hold the ownership invariant and the assert names the violation)
    pub fn relax_rows(&mut self, dst: VertexId, src: VertexId, offset: Weight) -> bool {
        assert!(
            self.has_row(dst) && self.has_row(src),
            "both rows must be owned here"
        );
        match self.pair_mut(dst, src) {
            Some((dst_row, src_row)) => relax_row(dst_row, src_row, offset),
            None => false,
        }
    }

    /// Relaxes the row of `dst` against an external row slice.
    pub fn relax_with_external(
        &mut self,
        dst: VertexId,
        src_row: &[Weight],
        offset: Weight,
    ) -> bool {
        relax_row(self.row_mut(dst), src_row, offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relax_row_basics() {
        let mut dst = vec![10, INF, 3, INF];
        let src = vec![1, 2, INF, INF];
        assert!(relax_row(&mut dst, &src, 5));
        assert_eq!(dst, vec![6, 7, 3, INF]);
        // Second pass changes nothing.
        assert!(!relax_row(&mut dst, &src, 5));
    }

    #[test]
    fn relax_row_saturates_at_inf() {
        let mut dst = vec![INF];
        let src = vec![INF];
        assert!(!relax_row(&mut dst, &src, 100), "INF + x must stay INF");
        assert_eq!(dst, vec![INF]);
        let mut dst2 = vec![INF];
        // Saturation caps the candidate at INF, which is never an improvement.
        assert!(!relax_row(&mut dst2, &[u32::MAX - 1], 100));
        assert_eq!(dst2, vec![INF]);
    }

    #[test]
    fn tracked_and_column_relaxes_report_changes() {
        let src = vec![1; 40];
        let mut dst = vec![5; 40];
        dst[3] = 0;
        let mut seen = Vec::new();
        relax_row_tracked(&mut dst, &src, 2, |t| seen.push(t));
        let want: Vec<u32> = (0..40).filter(|&t| t != 3).collect();
        assert_eq!(seen, want);
        assert!(dst
            .iter()
            .enumerate()
            .all(|(t, &d)| d == if t == 3 { 0 } else { 3 }));
        let mut dst = vec![5, 5, 5];
        let mut seen = Vec::new();
        relax_cols(&mut dst, &[1, 9, 1], 1, &[1, 2, 7], |t| seen.push(t));
        assert_eq!(dst, vec![5, 5, 2], "only listed columns move");
        assert_eq!(seen, vec![2]);
    }

    #[test]
    fn add_row_initializes_identity() {
        let mut m = DistanceMatrix::new(4);
        m.add_row(2);
        assert!(m.has_row(2));
        assert_eq!(m.row(2), &[INF, INF, 0, INF]);
        assert_eq!(m.row_count(), 1);
        assert_eq!(m.vertices(), &[2]);
    }

    #[test]
    #[should_panic(expected = "already has a row")]
    fn duplicate_row_rejected() {
        let mut m = DistanceMatrix::new(2);
        m.add_row(0);
        m.add_row(0);
    }

    #[test]
    fn take_row_fixes_swapped_index() {
        let mut m = DistanceMatrix::new(3);
        m.add_row(0);
        m.add_row(1);
        m.add_row(2);
        let r = m.take_row(0); // row 2 swaps into slot 0
        assert_eq!(r[0], 0);
        assert!(!m.has_row(0));
        assert_eq!(m.row(2)[2], 0, "swapped row still reachable");
        assert_eq!(m.row(1)[1], 0);
        assert_eq!(m.row_count(), 2);
    }

    #[test]
    fn migration_roundtrip() {
        let mut a = DistanceMatrix::new(3);
        a.add_row(1);
        a.row_mut(1)[0] = 7;
        let row = a.take_row(1);
        let mut b = DistanceMatrix::new(3);
        b.insert_row(1, row);
        assert_eq!(b.row(1), &[7, 0, INF]);
    }

    #[test]
    fn insert_row_pads_short_rows() {
        let mut m = DistanceMatrix::new(5);
        m.insert_row(0, vec![0, 1, 2]);
        assert_eq!(m.row(0), &[0, 1, 2, INF, INF]);
    }

    #[test]
    fn extend_cols_pads_with_inf() {
        let mut m = DistanceMatrix::new(2);
        m.add_row(1);
        m.extend_cols(4);
        assert_eq!(m.col_count(), 4);
        assert_eq!(m.row(1), &[INF, 0, INF, INF]);
        m.add_row(3);
        assert_eq!(m.row(3)[3], 0);
        m.extend_cols(3); // shrink request is a no-op
        assert_eq!(m.col_count(), 4);
    }

    #[test]
    fn relax_rows_internal() {
        let mut m = DistanceMatrix::new(3);
        m.add_row(0);
        m.add_row(1);
        m.row_mut(1)[2] = 4;
        assert!(m.relax_rows(0, 1, 1)); // d(0,*) <= 1 + d(1,*)
        assert_eq!(m.row(0), &[0, 1, 5]);
        assert!(!m.relax_rows(0, 0, 1), "self relax is a no-op");
        // Reverse direction with the dst stored after src.
        assert!(m.relax_rows(1, 0, 1));
        assert_eq!(m.row(1)[0], 1);
    }

    #[test]
    fn relax_with_external_row() {
        let mut m = DistanceMatrix::new(3);
        m.add_row(0);
        let ext = vec![2, 0, 9];
        assert!(m.relax_with_external(0, &ext, 3));
        assert_eq!(m.row(0), &[0, 3, 12]);
    }
}
