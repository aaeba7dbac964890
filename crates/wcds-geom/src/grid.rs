use crate::Point;
use std::collections::HashMap;

/// A uniform spatial hash over a point set for radius queries.
///
/// Cells have side length equal to the query radius, so a query only has
/// to inspect the 3×3 block of cells around the query point. Building the
/// index is `O(n)`; each query is `O(k)` in the number of candidates in
/// those nine cells. Constructing a unit-disk graph with it is
/// `O(n + |E|)` expected instead of the naive `O(n²)`.
///
/// The index stores point *indices* into the slice it was built from; the
/// caller keeps ownership of the coordinates and passes the same slice to
/// the query methods (checked by length in debug builds).
///
/// # Examples
///
/// ```
/// use wcds_geom::{GridIndex, Point};
///
/// let pts = vec![Point::new(0.0, 0.0), Point::new(0.5, 0.0), Point::new(3.0, 3.0)];
/// let idx = GridIndex::build(&pts, 1.0);
/// let mut near = idx.neighbors_within(&pts, pts[0], 1.0);
/// near.sort_unstable();
/// assert_eq!(near, vec![0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct GridIndex {
    cell: f64,
    len: usize,
    cells: HashMap<(i64, i64), Vec<usize>>,
}

impl GridIndex {
    /// Builds an index over `points` with cell size `cell`.
    ///
    /// `cell` should equal the largest radius you intend to query with;
    /// larger radii still return correct results only via
    /// [`GridIndex::neighbors_within`]'s fallback scan, which is slower.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is not strictly positive and finite.
    pub fn build(points: &[Point], cell: f64) -> Self {
        assert!(cell.is_finite() && cell > 0.0, "cell size must be positive and finite");
        let mut cells: HashMap<(i64, i64), Vec<usize>> = HashMap::new();
        for (i, p) in points.iter().enumerate() {
            cells.entry(Self::key(cell, *p)).or_default().push(i);
        }
        Self { cell, len: points.len(), cells }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The cell of `p`. The float-to-int casts saturate, so every
    /// coordinate at or beyond ±2^63 cells shares the border key.
    #[inline]
    fn key(cell: f64, p: Point) -> (i64, i64) {
        ((p.x / cell).floor() as i64, (p.y / cell).floor() as i64)
    }

    /// Indices of all points within distance `r` of `center` (inclusive),
    /// including `center` itself if it is one of the indexed points.
    ///
    /// `points` must be the slice the index was built from.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `points.len()` differs from the build-time
    /// length.
    pub fn neighbors_within(&self, points: &[Point], center: Point, r: f64) -> Vec<usize> {
        debug_assert_eq!(points.len(), self.len, "index/point-set mismatch");
        let mut out = Vec::new();
        self.for_each_within(points, center, r, |i| out.push(i));
        out
    }

    /// Visits the index of every point within distance `r` of `center`.
    ///
    /// Visit order is deterministic for a fixed build (cells are scanned in
    /// row-major block order, points in insertion order within a cell).
    pub fn for_each_within<F: FnMut(usize)>(&self, points: &[Point], center: Point, r: f64, mut f: F) {
        debug_assert_eq!(points.len(), self.len, "index/point-set mismatch");
        let reach = (r / self.cell).ceil() as i64;
        let (cx, cy) = Self::key(self.cell, center);
        let r2 = r * r;
        // keys saturate at ±2^63 for huge coordinates, so the window
        // must saturate too: a wrapped range would be empty
        for gx in cx.saturating_sub(reach)..=cx.saturating_add(reach) {
            for gy in cy.saturating_sub(reach)..=cy.saturating_add(reach) {
                if let Some(bucket) = self.cells.get(&(gx, gy)) {
                    for &i in bucket {
                        if points[i].distance_squared(center) <= r2 {
                            f(i);
                        }
                    }
                }
            }
        }
    }

    /// Appends the next point index (`len()`) at position `p`, returning it.
    ///
    /// The caller must push `p` onto its point slice at the same time so the
    /// index and the coordinates stay in lockstep.
    pub fn push(&mut self, p: Point) -> usize {
        let i = self.len;
        self.cells.entry(Self::key(self.cell, p)).or_default().push(i);
        self.len += 1;
        i
    }

    /// Moves indexed point `i` from `old` to `new`, rebucketing it.
    ///
    /// `old` must be the position `i` currently occupies in the caller's
    /// slice; same-cell moves are free. Bucket order is not preserved
    /// (callers that need determinism must canonicalize query results).
    pub fn relocate(&mut self, i: usize, old: Point, new: Point) {
        debug_assert!(i < self.len, "relocate of unindexed point {i}");
        let from = Self::key(self.cell, old);
        let to = Self::key(self.cell, new);
        if from == to {
            return;
        }
        let mut now_empty = false;
        if let Some(bucket) = self.cells.get_mut(&from) {
            if let Some(pos) = bucket.iter().position(|&j| j == i) {
                bucket.swap_remove(pos);
            }
            now_empty = bucket.is_empty();
        }
        if now_empty {
            self.cells.remove(&from);
        }
        self.cells.entry(to).or_default().push(i);
    }
}

/// A batched, immutable spatial index: the counting-sort counterpart of
/// [`GridIndex`].
///
/// Where `GridIndex` hashes each point into a `HashMap` bucket (one heap
/// allocation per occupied cell, a hash probe per insert and per query
/// cell), `DenseGrid` lays the same cells out flat: integer cell
/// coordinates over the point set's bounding box, one counting pass, a
/// prefix sum, and one fill pass into a single `slots` array. Each slot
/// keeps its point's coordinates beside its index, so a scan reads
/// memory in order instead of indexing the caller's points at random.
/// Building is two linear scans with zero hashing; a query walks the
/// 3×3 block as contiguous slices, and
/// [`DenseGrid::for_each_close_pair`] enumerates every pair within one
/// cell size in cell order. This is the index behind the large-`n`
/// static UDG build — [`GridIndex`] remains the right structure when
/// the point set mutates (`push`/`relocate`).
///
/// The cell array is dense over the bounding box, so memory is
/// `O(cells)`, not `O(occupied cells)`: callers should prefer
/// [`GridIndex`] when the deployment is a sparse scatter over a huge
/// extent.
///
/// # Examples
///
/// ```
/// use wcds_geom::{DenseGrid, Point};
///
/// let pts = vec![Point::new(0.0, 0.0), Point::new(0.5, 0.0), Point::new(3.0, 3.0)];
/// let idx = DenseGrid::build(&pts, 1.0);
/// let mut near = Vec::new();
/// idx.for_each_within(pts[0], 1.0, |i| near.push(i));
/// near.sort_unstable();
/// assert_eq!(near, vec![0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct DenseGrid {
    cell: f64,
    min_x: f64,
    min_y: f64,
    /// Grid dimensions; `gx * gy` cells cover the bounding box, and cell
    /// `(cx, cy)` is number `cx * gy + cy`, so a column's cells are
    /// adjacent in `slots`.
    gx: usize,
    gy: usize,
    /// CSR over cells: cell `c` owns `slots[offsets[c]..offsets[c + 1]]`.
    offsets: Vec<u32>,
    /// Point indices grouped by cell, in input order within each cell,
    /// each with its coordinates.
    slots: Vec<(u32, Point)>,
}

impl DenseGrid {
    /// Builds the index over `points` with cell size `cell` (two linear
    /// passes, no hashing).
    ///
    /// # Panics
    ///
    /// Panics if `cell` is not strictly positive and finite, if the
    /// point count exceeds `u32::MAX`, or if the bounding box spans more
    /// cells than one `Vec<u32>` can hold (about 2^61; points at ±1e300
    /// with unit cells do), in every build profile.
    pub fn build(points: &[Point], cell: f64) -> Self {
        assert!(cell.is_finite() && cell > 0.0, "cell size must be positive and finite");
        assert!(points.len() <= u32::MAX as usize, "point indices must fit u32");
        if points.is_empty() {
            return Self {
                cell,
                min_x: 0.0,
                min_y: 0.0,
                gx: 0,
                gy: 0,
                offsets: vec![0],
                slots: Vec::new(),
            };
        }
        let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
        let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for p in points {
            min_x = min_x.min(p.x);
            min_y = min_y.min(p.y);
            max_x = max_x.max(p.x);
            max_y = max_y.max(p.y);
        }
        // count the cells in f64, so a huge extent is rejected before any
        // integer arithmetic can overflow: `offsets` holds one `u32` per
        // cell plus one, and a product that rounds below the bound (2^61
        // in f64) is below it by more than that one
        let span = |lo: f64, hi: f64| ((hi - lo) / cell).floor().max(0.0) + 1.0;
        let (span_x, span_y) = (span(min_x, max_x), span(min_y, max_y));
        let max_cells = (isize::MAX as usize / std::mem::size_of::<u32>()) as f64;
        assert!(
            span_x * span_y < max_cells,
            "a grid of {span_x} x {span_y} cells exceeds one Vec<u32>"
        );
        let (gx, gy) = (span_x as usize, span_y as usize);
        let cell_of = |p: &Point| -> usize {
            // points exactly on the max boundary clamp into the last
            // row/column; queries over-scan by one cell, so clamped
            // points are still always found
            let cx = (((p.x - min_x) / cell) as usize).min(gx - 1);
            let cy = (((p.y - min_y) / cell) as usize).min(gy - 1);
            cx * gy + cy
        };
        let mut offsets = vec![0u32; gx * gy + 1];
        for p in points {
            offsets[cell_of(p) + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut cursor: Vec<u32> = offsets[..gx * gy].to_vec();
        let mut slots = vec![(0u32, Point::origin()); points.len()];
        for (i, p) in points.iter().enumerate() {
            let c = cell_of(p);
            slots[cursor[c] as usize] = (i as u32, *p);
            cursor[c] += 1;
        }
        Self { cell, min_x, min_y, gx, gy, offsets, slots }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The slots of cells `first..=last` of one column, which are
    /// adjacent in `slots` (empty if a cell is out of range).
    fn run(&self, first: usize, last: usize) -> &[(u32, Point)] {
        let from = self.offsets.get(first).map_or(0, |&o| o as usize);
        let to = self.offsets.get(last + 1).map_or(0, |&o| o as usize);
        self.slots.get(from..to).unwrap_or_default()
    }

    /// Visits the index of every point within distance `r` of `center`
    /// (inclusive), including `center` itself if indexed.
    ///
    /// Visit order is deterministic for a fixed build: cells in
    /// row-major block order, points in input order within a cell.
    /// `center` may lie outside the bounding box (the scan window clamps
    /// to it).
    pub fn for_each_within<F: FnMut(usize)>(&self, center: Point, r: f64, mut f: F) {
        if self.slots.is_empty() {
            return;
        }
        let reach = (r / self.cell).ceil() as i64;
        let cx = ((center.x - self.min_x) / self.cell).floor() as i64;
        let cy = ((center.y - self.min_y) / self.cell).floor() as i64;
        let x0 = cx.saturating_sub(reach).max(0);
        let x1 = cx.saturating_add(reach).min(self.gx as i64 - 1);
        let y0 = cy.saturating_sub(reach).max(0);
        let y1 = cy.saturating_add(reach).min(self.gy as i64 - 1);
        if y0 > y1 {
            return;
        }
        let r2 = r * r;
        for bx in x0..=x1 {
            let column = bx as usize * self.gy;
            for &(i, p) in self.run(column + y0 as usize, column + y1 as usize) {
                if p.distance_squared(center) <= r2 {
                    f(i as usize);
                }
            }
        }
    }

    /// Visits every unordered pair of indexed points at most one cell
    /// size apart (inclusive) exactly once, as `(i, j)` in the order
    /// their slots are met, `i` first.
    ///
    /// The scan runs in cell order and checks each cell against its
    /// own later slots, the cell above it and the three cells of the
    /// next column — the half of the 3×3 block that covers each pair of
    /// neighbouring cells once. The distance test is
    /// [`Point::distance_squared`] against the squared cell size, the
    /// test [`DenseGrid::for_each_within`] applies at radius `cell`, so
    /// the pairs are exactly the ones those queries find.
    pub fn for_each_close_pair<F: FnMut(u32, u32)>(&self, mut f: F) {
        let r2 = self.cell * self.cell;
        let mut scan = |i: u32, p: Point, run: &[(u32, Point)]| {
            for &(j, q) in run {
                if q.distance_squared(p) <= r2 {
                    f(i, j);
                }
            }
        };
        let (gx, gy) = (self.gx, self.gy);
        for cx in 0..gx {
            for cy in 0..gy {
                let c = cx * gy + cy;
                let own = self.run(c, c).len();
                // this cell's slots, then the cell above it
                let mut rest = self.run(c, if cy + 1 < gy { c + 1 } else { c });
                let right = if cx + 1 < gx {
                    let next = c + gy;
                    let first = if cy > 0 { next - 1 } else { next };
                    self.run(first, if cy + 1 < gy { next + 1 } else { next })
                } else {
                    &[]
                };
                for _ in 0..own {
                    let Some((&(i, p), later)) = rest.split_first() else { break };
                    scan(i, p, later);
                    scan(i, p, right);
                    rest = later;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy;

    fn brute_force(points: &[Point], center: Point, r: f64) -> Vec<usize> {
        let mut v: Vec<usize> =
            (0..points.len()).filter(|&i| points[i].within(center, r)).collect();
        v.sort_unstable();
        v
    }

    /// Sorted indices `DenseGrid::for_each_within` visits.
    fn dense_within(idx: &DenseGrid, center: Point, r: f64) -> Vec<usize> {
        let mut v = Vec::new();
        idx.for_each_within(center, r, |i| v.push(i));
        v.sort_unstable();
        v
    }

    #[test]
    fn matches_brute_force_on_random_points() {
        let pts = deploy::uniform(300, 8.0, 8.0, 7);
        let idx = GridIndex::build(&pts, 1.0);
        for probe in 0..pts.len() {
            let mut got = idx.neighbors_within(&pts, pts[probe], 1.0);
            got.sort_unstable();
            assert_eq!(got, brute_force(&pts, pts[probe], 1.0), "probe {probe}");
        }
    }

    #[test]
    fn larger_radius_than_cell_still_correct() {
        let pts = deploy::uniform(200, 5.0, 5.0, 11);
        let idx = GridIndex::build(&pts, 1.0);
        let mut got = idx.neighbors_within(&pts, pts[0], 2.5);
        got.sort_unstable();
        assert_eq!(got, brute_force(&pts, pts[0], 2.5));
    }

    #[test]
    fn query_point_not_in_set() {
        let pts = vec![Point::new(0.2, 0.2), Point::new(5.0, 5.0)];
        let idx = GridIndex::build(&pts, 1.0);
        assert_eq!(idx.neighbors_within(&pts, Point::origin(), 1.0), vec![0]);
    }

    #[test]
    fn empty_index() {
        let pts: Vec<Point> = vec![];
        let idx = GridIndex::build(&pts, 1.0);
        assert!(idx.is_empty());
        assert!(idx.neighbors_within(&pts, Point::origin(), 1.0).is_empty());
    }

    #[test]
    fn negative_coordinates_supported() {
        let pts = vec![Point::new(-0.5, -0.5), Point::new(-1.2, -0.6), Point::new(2.0, 2.0)];
        let idx = GridIndex::build(&pts, 1.0);
        let mut got = idx.neighbors_within(&pts, pts[0], 1.0);
        got.sort_unstable();
        assert_eq!(got, vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cell_panics() {
        let _ = GridIndex::build(&[], 0.0);
    }

    #[test]
    fn push_and_relocate_match_fresh_build() {
        let mut pts = deploy::uniform(120, 5.0, 5.0, 19);
        let mut idx = GridIndex::build(&pts, 1.0);
        // append a few points, then shove some around (including cross-cell)
        for k in 0..10 {
            let p = Point::new(0.37 * k as f64, 4.9 - 0.41 * k as f64);
            let i = idx.push(p);
            pts.push(p);
            assert_eq!(i, pts.len() - 1);
        }
        for k in 0..40 {
            let i = (k * 7) % pts.len();
            let old = pts[i];
            let new = Point::new(old.y * 0.9 + 0.1, (old.x + 1.3) % 5.0);
            idx.relocate(i, old, new);
            pts[i] = new;
        }
        assert_eq!(idx.len(), pts.len());
        let fresh = GridIndex::build(&pts, 1.0);
        for probe in 0..pts.len() {
            let mut got = idx.neighbors_within(&pts, pts[probe], 1.0);
            got.sort_unstable();
            let mut want = fresh.neighbors_within(&pts, pts[probe], 1.0);
            want.sort_unstable();
            assert_eq!(got, want, "probe {probe}");
            assert_eq!(got, brute_force(&pts, pts[probe], 1.0), "probe {probe}");
        }
    }

    #[test]
    fn boundary_distance_is_inclusive() {
        let pts = vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)];
        let idx = GridIndex::build(&pts, 1.0);
        assert_eq!(idx.neighbors_within(&pts, pts[0], 1.0).len(), 2);
    }

    #[test]
    fn huge_coordinates_share_the_saturated_cell() {
        // past |x| = 2^63 cells every key saturates to the border key;
        // the query window must saturate with it, not wrap to nothing
        let pts = vec![
            Point::new(1e300, 0.0),
            Point::new(1e300, 0.5),
            Point::new(-1e300, 0.0),
            Point::new(-1e300, 0.9),
            Point::new(0.0, 0.0),
        ];
        let idx = GridIndex::build(&pts, 1.0);
        for probe in 0..pts.len() {
            let mut got = idx.neighbors_within(&pts, pts[probe], 1.0);
            got.sort_unstable();
            assert_eq!(got, brute_force(&pts, pts[probe], 1.0), "probe {probe}");
        }
        let dense = DenseGrid::build(&pts[4..], 1.0);
        assert_eq!(dense_within(&dense, Point::new(1e300, -1e300), 1.0), []);
    }

    #[test]
    #[should_panic(expected = "exceeds one Vec<u32>")]
    fn dense_extent_past_every_cell_count_panics() {
        // 2e300 unit cells across: the cell count must be rejected in
        // f64 before it can overflow `usize`
        let _ = DenseGrid::build(&[Point::new(-1e300, 0.0), Point::new(1e300, 0.0)], 1.0);
    }

    #[test]
    fn dense_matches_brute_force_on_random_points() {
        let pts = deploy::uniform(300, 8.0, 8.0, 7);
        let idx = DenseGrid::build(&pts, 1.0);
        for probe in 0..pts.len() {
            let mut got = Vec::new();
            idx.for_each_within(pts[probe], 1.0, |i| got.push(i));
            got.sort_unstable();
            assert_eq!(got, brute_force(&pts, pts[probe], 1.0), "probe {probe}");
        }
    }

    #[test]
    fn dense_and_hash_indices_agree_everywhere() {
        // same candidate sets for every probe, including off-grid
        // centers and radii exceeding the cell size
        for seed in [3, 19, 57] {
            let pts = deploy::uniform(250, 7.0, 5.0, seed);
            let dense = DenseGrid::build(&pts, 1.0);
            let hash = GridIndex::build(&pts, 1.0);
            let probes = [
                Point::new(-2.0, 3.0),
                Point::new(8.5, -1.0),
                Point::new(3.5, 2.5),
                pts[0],
                pts[249],
            ];
            for (k, &c) in probes.iter().enumerate() {
                for r in [0.7, 1.0, 2.3] {
                    let mut a = Vec::new();
                    dense.for_each_within(c, r, |i| a.push(i));
                    a.sort_unstable();
                    let mut b = hash.neighbors_within(&pts, c, r);
                    b.sort_unstable();
                    assert_eq!(a, b, "seed {seed} probe {k} r {r}");
                }
            }
        }
    }

    #[test]
    fn dense_boundary_points_are_found() {
        // points exactly on the bounding-box maxima clamp into the last
        // cell; queries centered there must still see them
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(3.0, 2.0), // max corner
            Point::new(3.0, 0.0),
            Point::new(0.0, 2.0),
            Point::new(1.5, 1.0),
        ];
        let idx = DenseGrid::build(&pts, 1.0);
        for (i, &p) in pts.iter().enumerate() {
            let mut got = Vec::new();
            idx.for_each_within(p, 1.0, |j| got.push(j));
            assert!(got.contains(&i), "point {i} not found at its own position");
        }
        assert_eq!(dense_within(&idx, Point::new(3.0, 2.0), 1.0), [1]);
    }

    #[test]
    fn dense_empty_and_degenerate() {
        let empty = DenseGrid::build(&[], 1.0);
        assert!(empty.is_empty());
        assert_eq!(dense_within(&empty, Point::origin(), 5.0), []);
        // all points coincident: one cell, everything within any radius
        let pts = vec![Point::new(2.0, 2.0); 17];
        let idx = DenseGrid::build(&pts, 1.0);
        assert_eq!((idx.gx, idx.gy), (1, 1));
        assert_eq!(dense_within(&idx, pts[0], 0.5), (0..17).collect::<Vec<_>>());
    }

    #[test]
    fn dense_negative_coordinates_supported() {
        let pts = vec![Point::new(-0.5, -0.5), Point::new(-1.2, -0.6), Point::new(2.0, 2.0)];
        let idx = DenseGrid::build(&pts, 1.0);
        let mut got = Vec::new();
        idx.for_each_within(pts[0], 1.0, |i| got.push(i));
        got.sort_unstable();
        assert_eq!(got, vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn dense_zero_cell_panics() {
        let _ = DenseGrid::build(&[], 0.0);
    }

    #[test]
    fn dense_visit_order_is_stable() {
        // two builds over the same input produce the same visit sequence
        let pts = deploy::uniform(120, 5.0, 5.0, 23);
        let a = DenseGrid::build(&pts, 1.0);
        let b = DenseGrid::build(&pts, 1.0);
        for probe in (0..pts.len()).step_by(11) {
            let mut va = Vec::new();
            a.for_each_within(pts[probe], 1.0, |i| va.push(i));
            let mut vb = Vec::new();
            b.for_each_within(pts[probe], 1.0, |i| vb.push(i));
            assert_eq!(va, vb, "probe {probe}");
        }
    }
}
