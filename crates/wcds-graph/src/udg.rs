use crate::{Graph, GraphBuilder, NodeId};
use wcds_geom::{DenseGrid, GridIndex, Point};

/// A unit-disk graph: node positions plus the induced adjacency.
///
/// Two nodes are adjacent iff their Euclidean distance is at most the
/// transmission `radius` (the paper normalises `radius = 1`). Positions
/// are retained because *analysis* (geometric dilation, Lemma 2 packing
/// checks) needs them — but the distributed protocols never see them: the
/// paper's spanners are "position-less", and [`crate::Graph`] handed to a
/// protocol carries adjacency only.
///
/// # Examples
///
/// ```
/// use wcds_geom::Point;
/// use wcds_graph::UnitDiskGraph;
///
/// let udg = UnitDiskGraph::build(
///     vec![Point::new(0.0, 0.0), Point::new(0.8, 0.0), Point::new(2.0, 0.0)],
///     1.0,
/// );
/// assert!(udg.graph().has_edge(0, 1));
/// assert!(!udg.graph().has_edge(0, 2));
/// ```
#[derive(Debug, Clone)]
pub struct UnitDiskGraph {
    points: Vec<Point>,
    radius: f64,
    graph: Graph,
}

impl UnitDiskGraph {
    /// Builds the UDG over `points` with transmission range `radius`.
    ///
    /// Runs in `O(n + |E|)` expected time on one thread, using a spatial
    /// index; small deployments take a direct pairwise scan instead.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is not strictly positive and finite.
    pub fn build(points: Vec<Point>, radius: f64) -> Self {
        assert!(radius.is_finite() && radius > 0.0, "radius must be positive and finite");
        let (w, h) = bounding_extent(&points);
        let n = points.len();
        let graph = if grid_is_overkill(n, radius, w, h) {
            direct_scan(&points, radius)
        } else if dense_grid_wasteful(n, radius, w, h) {
            grid_scan(&points, radius)
        } else {
            dense_scan(&points, radius)
        };
        Self { radius, graph, points }
    }

    /// Builds a **toroidal** UDG: distances wrap around a
    /// `width × height` torus, eliminating boundary effects.
    ///
    /// Useful for measuring packing constants (Lemmas 1–2) without the
    /// thinner-at-the-border bias of a square region. Note that the
    /// retained `points` remain plain plane coordinates, so *geometric*
    /// analyses (edge lengths, dilation) are *not* torus-aware — use
    /// this constructor for structural experiments only.
    ///
    /// Runs in `O(n + |E|)` expected: coordinates are wrapped into the
    /// fundamental domain `[0, width) × [0, height)` (torus adjacency is
    /// translation-invariant), then the same spatial hash as
    /// [`UnitDiskGraph::build`] answers each node's query from the 3×3
    /// block of wrapped translates.
    ///
    /// # Panics
    ///
    /// Panics if `radius`, `width`, or `height` is not positive and
    /// finite, or if `radius` exceeds half of either dimension (the
    /// wrap metric would degenerate).
    pub fn build_torus(points: Vec<Point>, radius: f64, width: f64, height: f64) -> Self {
        assert!(radius.is_finite() && radius > 0.0, "radius must be positive and finite");
        assert!(width.is_finite() && width > 0.0 && height.is_finite() && height > 0.0);
        assert!(
            radius <= width / 2.0 && radius <= height / 2.0,
            "radius must be at most half each torus dimension"
        );
        let canon: Vec<Point> = points
            .iter()
            .map(|p| Point::new(p.x.rem_euclid(width), p.y.rem_euclid(height)))
            .collect();
        let graph = if grid_is_overkill(canon.len(), radius, width, height) {
            torus_direct_scan(&canon, radius, width, height)
        } else {
            torus_grid_scan(&canon, radius, width, height)
        };
        Self { radius, graph, points }
    }

    /// The adjacency structure (what a distributed protocol may see).
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The node positions (analysis only).
    #[inline]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Position of node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn point(&self, u: NodeId) -> Point {
        self.points[u]
    }

    /// The transmission radius the graph was built with.
    #[inline]
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.points.len()
    }

    /// Euclidean length of edge `(u, v)`.
    ///
    /// # Panics
    ///
    /// Panics if `(u, v)` is not an edge of the graph.
    pub fn edge_length(&self, u: NodeId, v: NodeId) -> f64 {
        assert!(self.graph.has_edge(u, v), "({u}, {v}) is not an edge");
        self.points[u].distance(self.points[v])
    }

    /// Total Euclidean length of all edges.
    pub fn total_edge_length(&self) -> f64 {
        self.graph
            .edges()
            .iter()
            .map(|e| {
                let (u, v) = e.endpoints();
                self.points[u].distance(self.points[v])
            })
            .sum()
    }

    /// Decomposes the UDG into `(points, radius, graph)`.
    ///
    /// Handoff for [`crate::DynamicUdg`], which owns the same state plus
    /// a live spatial index.
    pub fn into_parts(self) -> (Vec<Point>, f64, Graph) {
        (self.points, self.radius, self.graph)
    }

    /// Rebuilds the UDG after nodes have moved (same radius).
    ///
    /// # Panics
    ///
    /// Panics if the new point count differs from the old one (node ids
    /// must stay stable across a motion step; use [`UnitDiskGraph::build`]
    /// for joins/leaves).
    pub fn rebuilt_with(&self, points: Vec<Point>) -> Self {
        assert_eq!(points.len(), self.points.len(), "motion step must preserve node count");
        Self::build(points, self.radius)
    }
}

/// Tuning point of [`grid_is_overkill`]: the effective number of
/// pairwise distance checks at which the direct scan stops paying off,
/// calibrated on `BENCH_construction`'s measured grid/naive crossover
/// (n ≈ 1–2k at the benchmark densities).
const DIRECT_SCAN_BREAK_EVEN: f64 = 600.0;

/// Occupancy heuristic: should a UDG build skip the spatial hash?
///
/// The grid pays one hash insertion plus a 3×3-block probe per node; the
/// direct scan pays `n²/2` distance checks. When the region spans many
/// cells (sparse occupancy, `n / cells` small) the grid's per-node hash
/// overhead dominates until `n` is well into the thousands, and when it
/// spans almost none (`cells ≤ 18`) the grid probes nearly all pairs
/// anyway — in both regimes the branch-free direct scan wins. Comparing
/// the direct cost against the grid's expected candidate work
/// (`≈ 9n²/cells` pair checks) captures both ends with one inequality.
fn grid_is_overkill(n: usize, radius: f64, width: f64, height: f64) -> bool {
    (n as f64) * (0.5 - 9.0 / covering_cells(radius, width, height)).max(0.0) < DIRECT_SCAN_BREAK_EVEN
}

/// Number of radius-sized grid cells covering a `width × height` extent.
fn covering_cells(radius: f64, width: f64, height: f64) -> f64 {
    (width / radius).ceil().max(1.0) * (height / radius).ceil().max(1.0)
}

/// Should a static build avoid [`DenseGrid`]'s dense cell array?
///
/// The dense index allocates every bounding-box cell; a sparse scatter
/// over a huge extent (cells ≫ points) would spend more on empty cells
/// than the hash index spends on buckets. Past a few cells per point the
/// hash wins on memory and loses nothing measurable on speed.
fn dense_grid_wasteful(n: usize, radius: f64, width: f64, height: f64) -> bool {
    covering_cells(radius, width, height) > 4.0 * n as f64 + 64.0
}

/// Extent `(width, height)` of the bounding box of `points`.
fn bounding_extent(points: &[Point]) -> (f64, f64) {
    let mut min = (f64::INFINITY, f64::INFINITY);
    let mut max = (f64::NEG_INFINITY, f64::NEG_INFINITY);
    for p in points {
        min = (min.0.min(p.x), min.1.min(p.y));
        max = (max.0.max(p.x), max.1.max(p.y));
    }
    ((max.0 - min.0).max(0.0), (max.1 - min.1).max(0.0))
}

/// The spatial-hash UDG builder (`O(n + |E|)` expected) — the fallback
/// for sparse scatters where [`DenseGrid`]'s cell array would be mostly
/// empty cells.
fn grid_scan(points: &[Point], radius: f64) -> Graph {
    let index = GridIndex::build(points, radius);
    let mut b = GraphBuilder::new(points.len());
    for u in 0..points.len() {
        index.for_each_within(points, points[u], radius, |v| {
            if u < v {
                b.add_edge(u, v);
            }
        });
    }
    b.build()
}

/// The dense UDG builder, straight into one CSR: a [`DenseGrid`] index
/// enumerates every pair within `radius` once, in cell order; degrees
/// are counted, prefix-summed into the row offsets, both ends of each
/// pair scattered into one `targets` array, and every row sorted. The
/// rows are then the sorted neighbour sets, so the CSR is
/// byte-identical to [`GraphBuilder`]'s.
fn dense_scan(points: &[Point], radius: f64) -> Graph {
    let index = DenseGrid::build(points, radius);
    let mut pairs: Vec<(u32, u32)> = Vec::new();
    index.for_each_close_pair(|i, j| pairs.push((i, j)));
    drop(index);
    assert!(pairs.len() * 2 <= u32::MAX as usize, "graph too large for u32 CSR offsets");
    let mut offsets = vec![0u32; points.len() + 1];
    for &(i, j) in &pairs {
        for end in [i, j] {
            if let Some(count) = offsets.get_mut(end as usize + 1) {
                *count += 1;
            }
        }
    }
    let mut total = 0;
    for offset in &mut offsets {
        total += *offset;
        *offset = total;
    }
    let mut cursor = offsets.clone();
    let mut targets = vec![0u32; pairs.len() * 2];
    for &(i, j) in &pairs {
        for (from, to) in [(i, j), (j, i)] {
            if let Some(at) = cursor.get_mut(from as usize) {
                if let Some(slot) = targets.get_mut(*at as usize) {
                    *slot = to;
                }
                *at += 1;
            }
        }
    }
    for bounds in offsets.windows(2) {
        if let &[from, to] = bounds {
            if let Some(row) = targets.get_mut(from as usize..to as usize) {
                row.sort_unstable();
            }
        }
    }
    Graph::from_rows(offsets, targets, pairs.len())
}

/// The pairwise UDG builder (`O(n²)`, but branch-predictable and
/// allocation-free per pair — faster below the occupancy crossover).
fn direct_scan(points: &[Point], radius: f64) -> Graph {
    let r2 = radius * radius;
    let mut b = GraphBuilder::new(points.len());
    for u in 0..points.len() {
        for v in (u + 1)..points.len() {
            if points[u].distance_squared(points[v]) <= r2 {
                b.add_edge(u, v);
            }
        }
    }
    b.build()
}

/// The indexed torus builder over canonicalised coordinates: batched
/// [`DenseGrid`] normally, spatial hash for sparse scatters.
fn torus_grid_scan(canon: &[Point], radius: f64, width: f64, height: f64) -> Graph {
    if dense_grid_wasteful(canon.len(), radius, width, height) {
        let index = GridIndex::build(canon, radius);
        torus_scan_impl(canon, radius, width, height, |q, f| {
            index.for_each_within(canon, q, radius, f)
        })
    } else {
        let index = DenseGrid::build(canon, radius);
        torus_scan_impl(canon, radius, width, height, |q, f| index.for_each_within(q, radius, f))
    }
}

/// The translate-query torus scan, generic over the spatial index.
fn torus_scan_impl(
    canon: &[Point],
    radius: f64,
    width: f64,
    height: f64,
    query: impl Fn(Point, &mut dyn FnMut(usize)),
) -> Graph {
    let mut b = GraphBuilder::new(canon.len());
    for (u, p) in canon.iter().enumerate() {
        // radius ≤ min(width, height) / 2 ⇒ the nearest wrapped copy
        // of any neighbor lies in one of nine translates of u — but a
        // translate can only score a hit when u sits within `radius`
        // of the corresponding border (a query at x − width reaches
        // canonical coordinates ≤ x − width + radius, which is < 0
        // unless x ≥ width − radius, and symmetrically for the other
        // three). Interior nodes therefore issue a single query; the
        // builder dedups hits that qualify under several translates.
        let (x, y) = (p.x, p.y);
        let mut dxs = [0.0; 2];
        let mut nx = 1;
        if x < radius {
            dxs[1] = width;
            nx = 2;
        } else if x >= width - radius {
            dxs[1] = -width;
            nx = 2;
        }
        let mut dys = [0.0; 2];
        let mut ny = 1;
        if y < radius {
            dys[1] = height;
            ny = 2;
        } else if y >= height - radius {
            dys[1] = -height;
            ny = 2;
        }
        for &dx in &dxs[..nx] {
            for &dy in &dys[..ny] {
                let q = Point::new(x + dx, y + dy);
                query(q, &mut |v| {
                    if u < v {
                        b.add_edge(u, v);
                    }
                });
            }
        }
    }
    b.build()
}

/// The pairwise torus builder: min-wrap metric over all pairs.
fn torus_direct_scan(canon: &[Point], radius: f64, width: f64, height: f64) -> Graph {
    let r2 = radius * radius;
    let mut b = GraphBuilder::new(canon.len());
    for u in 0..canon.len() {
        for v in (u + 1)..canon.len() {
            let dx = (canon[u].x - canon[v].x).abs();
            let dy = (canon[u].y - canon[v].y).abs();
            let dx = dx.min(width - dx);
            let dy = dy.min(height - dy);
            if dx * dx + dy * dy <= r2 {
                b.add_edge(u, v);
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcds_geom::deploy;

    #[test]
    fn adjacency_matches_brute_force() {
        let pts = deploy::uniform(200, 6.0, 6.0, 13);
        let udg = UnitDiskGraph::build(pts.clone(), 1.0);
        for u in 0..pts.len() {
            for v in (u + 1)..pts.len() {
                assert_eq!(
                    udg.graph().has_edge(u, v),
                    pts[u].within(pts[v], 1.0),
                    "pair ({u}, {v})"
                );
            }
        }
    }

    #[test]
    fn radius_is_inclusive() {
        let udg =
            UnitDiskGraph::build(vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)], 1.0);
        assert!(udg.graph().has_edge(0, 1));
    }

    #[test]
    fn non_unit_radius_supported() {
        let pts = vec![Point::new(0.0, 0.0), Point::new(1.5, 0.0)];
        assert!(!UnitDiskGraph::build(pts.clone(), 1.0).graph().has_edge(0, 1));
        assert!(UnitDiskGraph::build(pts, 2.0).graph().has_edge(0, 1));
    }

    #[test]
    fn edge_length_is_euclidean() {
        let udg =
            UnitDiskGraph::build(vec![Point::new(0.0, 0.0), Point::new(0.6, 0.8)], 1.0);
        assert!((udg.edge_length(0, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "not an edge")]
    fn edge_length_panics_for_non_edge() {
        let udg =
            UnitDiskGraph::build(vec![Point::new(0.0, 0.0), Point::new(3.0, 0.0)], 1.0);
        let _ = udg.edge_length(0, 1);
    }

    #[test]
    fn chain_topology_is_a_path() {
        let udg = UnitDiskGraph::build(deploy::chain(10, 0.9), 1.0);
        assert_eq!(udg.graph().edge_count(), 9);
        assert_eq!(udg.graph().degree(0), 1);
        assert_eq!(udg.graph().degree(5), 2);
    }

    #[test]
    fn dense_cluster_is_complete() {
        // 8 points inside a disk of diameter < 1 form a clique.
        let pts = deploy::gaussian_blob(8, 1.0, 1.0, 0.05, 21);
        let udg = UnitDiskGraph::build(pts, 1.0);
        assert_eq!(udg.graph().edge_count(), 8 * 7 / 2);
    }

    #[test]
    fn rebuild_preserves_radius_and_count() {
        let pts = deploy::uniform(50, 4.0, 4.0, 2);
        let udg = UnitDiskGraph::build(pts, 1.0);
        let moved = deploy::perturb(udg.points(), wcds_geom::BoundingBox::with_size(4.0, 4.0), 0.1, 3);
        let udg2 = udg.rebuilt_with(moved);
        assert_eq!(udg2.node_count(), 50);
        assert_eq!(udg2.radius(), 1.0);
    }

    #[test]
    fn torus_wraps_across_borders() {
        // two points near opposite vertical borders of a 10-wide torus
        let pts = vec![Point::new(0.2, 5.0), Point::new(9.9, 5.0)];
        let flat = UnitDiskGraph::build(pts.clone(), 1.0);
        assert!(!flat.graph().has_edge(0, 1));
        let torus = UnitDiskGraph::build_torus(pts, 1.0, 10.0, 10.0);
        assert!(torus.graph().has_edge(0, 1), "wrap distance 0.3 must connect");
    }

    #[test]
    fn torus_is_superset_of_flat_adjacency() {
        let pts = deploy::uniform(120, 6.0, 6.0, 8);
        let flat = UnitDiskGraph::build(pts.clone(), 1.0);
        let torus = UnitDiskGraph::build_torus(pts, 1.0, 6.0, 6.0);
        for e in flat.graph().edges() {
            let (u, v) = e.endpoints();
            assert!(torus.graph().has_edge(u, v), "torus lost flat edge ({u},{v})");
        }
        assert!(torus.graph().edge_count() >= flat.graph().edge_count());
    }

    #[test]
    fn torus_grid_matches_brute_force() {
        // the pre-grid O(n²) reference: min-wrap metric, all pairs
        let torus_dist2 = |a: Point, b: Point, w: f64, h: f64| -> f64 {
            let dx = (a.x - b.x).abs();
            let dy = (a.y - b.y).abs();
            let dx = dx.min(w - dx);
            let dy = dy.min(h - dy);
            dx * dx + dy * dy
        };
        for seed in [1, 9, 42, 1234] {
            let (w, h) = (5.0, 4.0);
            let pts = deploy::uniform(160, w, h, seed);
            let mut reference = GraphBuilder::new(pts.len());
            for u in 0..pts.len() {
                for v in (u + 1)..pts.len() {
                    if torus_dist2(pts[u], pts[v], w, h) <= 1.0 {
                        reference.add_edge(u, v);
                    }
                }
            }
            let torus = UnitDiskGraph::build_torus(pts, 1.0, w, h);
            assert_eq!(*torus.graph(), reference.build(), "seed {seed}");
        }
    }

    #[test]
    fn torus_radius_at_exactly_half_dimension() {
        // r = width/2: a neighbor can qualify under two translates at
        // once; the builder must dedup, not double-add
        let pts = vec![Point::new(0.0, 1.0), Point::new(1.0, 1.0), Point::new(0.5, 1.0)];
        let torus = UnitDiskGraph::build_torus(pts, 1.0, 2.0, 2.0);
        assert_eq!(torus.graph().edge_count(), 3);
    }

    #[test]
    #[should_panic(expected = "half each torus dimension")]
    fn torus_rejects_oversized_radius() {
        let _ = UnitDiskGraph::build_torus(vec![Point::origin()], 2.0, 3.0, 3.0);
    }

    #[test]
    fn total_edge_length_sums_edges() {
        let udg = UnitDiskGraph::build(deploy::chain(4, 0.5), 1.0);
        // chain(4, 0.5): edges 0-1,1-2,2-3 at 0.5 plus 0-2,1-3 at 1.0
        assert!((udg.total_edge_length() - (3.0 * 0.5 + 2.0 * 1.0)).abs() < 1e-9);
    }

    #[test]
    fn grid_and_direct_builders_are_identical() {
        // straddle the occupancy threshold on both sides: the three code
        // paths must be observationally equivalent everywhere
        for (n, side, seed) in [(150, 4.0, 5), (400, 12.0, 6), (900, 30.0, 7)] {
            let pts = deploy::uniform(n, side, side, seed);
            let want = direct_scan(&pts, 1.0);
            assert_eq!(grid_scan(&pts, 1.0), want, "flat hash n={n} side={side}");
            assert_eq!(dense_scan(&pts, 1.0), want, "flat dense n={n} side={side}");
            assert_eq!(
                torus_grid_scan(&pts, 1.0, side, side),
                torus_direct_scan(&pts, 1.0, side, side),
                "torus n={n} side={side}"
            );
        }
    }

    /// Layouts that stress the dense build's cell arithmetic at radius
    /// `r`: pairs exactly `r` apart on the axes (a lattice on the cell
    /// boundaries) and on 3-4-5 diagonals (a rotated lattice reaching
    /// into negative coordinates), coincident points, one-row and
    /// one-column extents, and negative and far-offset scatters.
    fn adversarial_layouts(r: f64) -> Vec<(&'static str, Vec<Point>)> {
        let jitter = deploy::uniform(150, 9.0 * r, 7.0 * r, 3);
        let lattice = (0..12)
            .flat_map(|i| (0..9).map(move |j| Point::new(i as f64 * r, j as f64 * r)))
            .collect();
        let diagonal = (0..10i32)
            .flat_map(|i| (0..10i32).map(move |j| (i, j)))
            .map(|(i, j)| {
                let (a, b) = (f64::from(3 * i - 4 * j), f64::from(4 * i + 3 * j));
                Point::new(a * r / 5.0, b * r / 5.0)
            })
            .collect();
        let coincident = jitter.iter().take(40).flat_map(|&p| [p, p, p]).collect();
        let steps = deploy::uniform(120, 1.2 * r, 1.0, 4);
        let mut x = 0.0;
        let row: Vec<Point> = steps
            .iter()
            .enumerate()
            .map(|(k, q)| {
                x += if k % 5 == 0 { r } else { q.x };
                Point::new(x, 2.0 * r)
            })
            .collect();
        let column = row.iter().map(|p| Point::new(-r, p.x)).collect();
        let negative = jitter.iter().map(|p| Point::new(p.x - 50.5 * r, p.y - 20.25 * r)).collect();
        let offset = jitter.iter().map(|p| Point::new(1e6 + p.x, 1e6 + p.y)).collect();
        let mixed = jitter
            .iter()
            .copied()
            .chain((0..40).map(|k| Point::new(k as f64 * r / 4.0, r)))
            .collect();
        vec![
            ("axis lattice", lattice),
            ("3-4-5 lattice", diagonal),
            ("coincident", coincident),
            ("one row", row),
            ("one column", column),
            ("negative", negative),
            ("offset 1e6", offset),
            ("lattice over jitter", mixed),
        ]
    }

    #[test]
    fn dense_build_matches_direct_scan_on_adversarial_layouts() {
        // small inputs never reach the dense path through `build`, so
        // call it directly
        for r in [0.5, 1.0, 2.5] {
            for (name, pts) in adversarial_layouts(r) {
                assert_eq!(dense_scan(&pts, r), direct_scan(&pts, r), "{name} at r = {r}");
            }
        }
    }

    #[test]
    fn far_points_keep_their_edges_on_the_hash_path() {
        // two points 0.5 apart at x = 1e300 share the saturated cell key
        let mut pts = deploy::uniform(2000, 40.0, 40.0, 41);
        pts.extend([Point::new(1e300, 0.0), Point::new(1e300, 0.5)]);
        let (w, h) = bounding_extent(&pts);
        assert!(
            dense_grid_wasteful(pts.len(), 1.0, w, h) && !grid_is_overkill(pts.len(), 1.0, w, h)
        );
        let udg = UnitDiskGraph::build(pts.clone(), 1.0);
        assert!(udg.graph().has_edge(2000, 2001));
        assert_eq!(*udg.graph(), direct_scan(&pts, 1.0));
    }

    #[test]
    fn sparse_scatter_takes_the_hash_index() {
        // huge extent, few points per cell: dense cell array would be
        // ~99% empty — the heuristic must route to the hash fallback
        assert!(dense_grid_wasteful(2000, 1.0, 400.0, 400.0));
        assert!(!dense_grid_wasteful(100_000, 1.0, 170.0, 170.0));
        // and the fallback stays correct
        let pts = deploy::uniform(3000, 300.0, 300.0, 31);
        let built = UnitDiskGraph::build(pts.clone(), 1.0);
        assert_eq!(*built.graph(), grid_scan(&pts, 1.0));
    }

    #[test]
    fn occupancy_heuristic_tracks_both_regimes() {
        // small or sparse deployments take the direct scan...
        assert!(grid_is_overkill(500, 1.0, 10.0, 10.0));
        assert!(grid_is_overkill(1000, 1.0, 200.0, 200.0));
        // ...a dense blob occupying a handful of cells always does...
        assert!(grid_is_overkill(100_000, 1.0, 2.0, 2.0));
        // ...and big well-spread deployments keep the grid
        assert!(!grid_is_overkill(5000, 1.0, 22.0, 22.0));
        assert!(!grid_is_overkill(100_000, 1.0, 100.0, 100.0));
    }

    #[test]
    fn empty_and_singleton() {
        let empty = UnitDiskGraph::build(vec![], 1.0);
        assert_eq!(empty.node_count(), 0);
        let single = UnitDiskGraph::build(vec![Point::origin()], 1.0);
        assert_eq!(single.graph().edge_count(), 0);
    }
}
