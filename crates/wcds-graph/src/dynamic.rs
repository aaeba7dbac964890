//! A unit-disk graph under churn: `O(Δ)` topology deltas.
//!
//! [`crate::UnitDiskGraph`] is immutable — under mobility the old flow
//! was clone-all-points → rebuild spatial hash → rebuild CSR, `O(n+|E|)`
//! per mutation no matter how local the disturbance. [`DynamicUdg`]
//! keeps the [`GridIndex`] **alive across mutations** and derives each
//! edge delta from only the disturbed cells: a move inspects the moved
//! node's old adjacency row plus one 3×3-block probe at its new
//! position; a join probes once and appends; only a leave (id
//! compaction renames every node above the leaver) rebuilds the index.
//! The CSR is then spliced in place through [`Graph::spliced`] /
//! [`Graph::compacted_without`], which re-merge only the touched
//! adjacency rows and bulk-copy the rest.
//!
//! Every mutation returns a [`TopoDelta`] — the changed edges plus the
//! *seed* nodes whose incident edge set changed — which is exactly what
//! the 3-hop-bounded WCDS repair in `wcds-core::maintenance` consumes.
//! In debug builds each splice is checked against a from-scratch
//! [`crate::UnitDiskGraph::build`]; release-mode tests exercise the same
//! oracle through [`DynamicUdg::rebuilt_graph`].

use crate::{Graph, NodeId, UnitDiskGraph};
use wcds_geom::{GridIndex, Point};

/// The edge delta of one topology mutation.
///
/// Edge lists are canonical `(u, v)` with `u < v`, sorted ascending.
/// All ids are in the **post-mutation** id space, except
/// [`DynamicUdg::remove_node`]'s `removed` list: the vanished node has
/// no post-mutation id, so those edges are reported in the pre-removal
/// space (`seeds` is still post-mutation).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TopoDelta {
    /// Edges that appeared.
    pub added: Vec<(NodeId, NodeId)>,
    /// Edges that vanished.
    pub removed: Vec<(NodeId, NodeId)>,
    /// Nodes whose incident edge set changed (every endpoint of every
    /// changed edge, plus a joined node even when it arrives isolated),
    /// sorted ascending.
    pub seeds: Vec<NodeId>,
}

impl TopoDelta {
    /// Whether the mutation changed any adjacency.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

/// A unit-disk graph that mutates in `O(Δ)` instead of rebuilding.
///
/// # Examples
///
/// ```
/// use wcds_geom::Point;
/// use wcds_graph::DynamicUdg;
///
/// let mut udg = DynamicUdg::new(
///     vec![Point::new(0.0, 0.0), Point::new(0.8, 0.0), Point::new(2.0, 0.0)],
///     1.0,
/// );
/// assert!(udg.graph().has_edge(0, 1));
/// let delta = udg.move_node(1, Point::new(1.6, 0.0));
/// assert_eq!(delta.removed, vec![(0, 1)]);
/// assert_eq!(delta.added, vec![(1, 2)]);
/// assert_eq!(udg.graph(), &udg.rebuilt_graph());
/// ```
#[derive(Debug, Clone)]
pub struct DynamicUdg {
    points: Vec<Point>,
    radius: f64,
    index: GridIndex,
    graph: Graph,
}

impl DynamicUdg {
    /// Builds the initial state from a deployment.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is not strictly positive and finite.
    pub fn new(points: Vec<Point>, radius: f64) -> Self {
        Self::from_udg(UnitDiskGraph::build(points, radius))
    }

    /// Adopts an already-built static UDG, adding the live index.
    pub fn from_udg(udg: UnitDiskGraph) -> Self {
        let (points, radius, graph) = udg.into_parts();
        let index = GridIndex::build(&points, radius);
        Self { points, radius, index, graph }
    }

    /// The current adjacency structure.
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The current node positions.
    #[inline]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// The transmission radius.
    #[inline]
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.points.len()
    }

    /// Moves node `u` to `p`, splicing the edge delta into the CSR.
    ///
    /// Cost: `u`'s old adjacency row + one grid probe at `p` + the
    /// splice (`O(Δ)` row merges over a bulk-copied CSR).
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range or `p` has a non-finite coordinate.
    pub fn move_node(&mut self, u: NodeId, p: Point) -> TopoDelta {
        assert!(u < self.points.len(), "move of out-of-range node {u}");
        assert!(p.x.is_finite() && p.y.is_finite(), "non-finite position for node {u}");
        let old_pos = self.points.get(u).copied().unwrap_or(p);
        self.index.relocate(u, old_pos, p);
        if let Some(slot) = self.points.get_mut(u) {
            *slot = p;
        }
        let old_row: Vec<NodeId> = self.graph.adj(u).collect();
        let new_row = self.probe(p, Some(u));
        let (gained, lost) = sorted_diff(&new_row, &old_row);
        if gained.is_empty() && lost.is_empty() {
            return TopoDelta::default();
        }
        let mut added: Vec<(NodeId, NodeId)> = gained.iter().map(|&v| canonical(u, v)).collect();
        let mut removed: Vec<(NodeId, NodeId)> = lost.iter().map(|&v| canonical(u, v)).collect();
        added.sort_unstable();
        removed.sort_unstable();
        let mut seeds: Vec<NodeId> = gained.iter().chain(&lost).copied().collect();
        seeds.push(u);
        seeds.sort_unstable();
        self.graph = self.graph.spliced(self.points.len(), &added, &removed);
        self.debug_check_against_rebuild();
        TopoDelta { added, removed, seeds }
    }

    /// Moves several nodes at once, splicing the **net** edge delta into
    /// the CSR with a single row-merge pass. Later moves of the same
    /// node win; intra-batch toggles (a later move undoing an earlier
    /// one) cancel. The resulting topology is identical to applying
    /// [`DynamicUdg::move_node`] per entry, but the `O(n + |E|)` CSR
    /// splice is paid once per batch instead of once per move.
    ///
    /// `seeds` lists the endpoints of the net-changed edges only — a
    /// move that lands where it started (or whose edges all survive)
    /// contributes nothing, matching what a delta-driven repair needs.
    ///
    /// # Panics
    ///
    /// Panics if a node id is out of range or a position has a
    /// non-finite coordinate.
    pub fn move_nodes(&mut self, moves: &[(NodeId, Point)]) -> TopoDelta {
        // first pass: settle every position (last write wins) while
        // snapshotting each moved node's pre-batch adjacency row once
        let mut old_rows: std::collections::BTreeMap<NodeId, Vec<NodeId>> =
            std::collections::BTreeMap::new();
        for &(u, p) in moves {
            assert!(u < self.points.len(), "move of out-of-range node {u}");
            assert!(p.x.is_finite() && p.y.is_finite(), "non-finite position for node {u}");
            old_rows.entry(u).or_insert_with(|| self.graph.adj(u).collect());
            let old_pos = self.points.get(u).copied().unwrap_or(p);
            self.index.relocate(u, old_pos, p);
            if let Some(slot) = self.points.get_mut(u) {
                *slot = p;
            }
        }
        // second pass: diff each moved node's final-configuration row
        // against its snapshot. An edge between two moved endpoints
        // shows up in both diffs with the same verdict (both rows are
        // probed against final positions), so dedup below suffices.
        let mut added: Vec<(NodeId, NodeId)> = Vec::new();
        let mut removed: Vec<(NodeId, NodeId)> = Vec::new();
        for (&u, old_row) in &old_rows {
            let pos = self.points.get(u).copied();
            let Some(pos) = pos else { continue };
            let new_row = self.probe(pos, Some(u));
            let (gained, lost) = sorted_diff(&new_row, old_row);
            added.extend(gained.into_iter().map(|v| canonical(u, v)));
            removed.extend(lost.into_iter().map(|v| canonical(u, v)));
        }
        added.sort_unstable();
        added.dedup();
        removed.sort_unstable();
        removed.dedup();
        if added.is_empty() && removed.is_empty() {
            return TopoDelta::default();
        }
        let mut seeds: Vec<NodeId> =
            added.iter().chain(&removed).flat_map(|&(a, b)| [a, b]).collect();
        seeds.sort_unstable();
        seeds.dedup();
        self.graph = self.graph.spliced(self.points.len(), &added, &removed);
        self.debug_check_against_rebuild();
        TopoDelta { added, removed, seeds }
    }

    /// Adds a node at `p`; it receives the next id `n`. Returns the id
    /// and the delta. Appending keeps every existing row's sorted order:
    /// the new id is the maximum, so it lands at row ends.
    ///
    /// # Panics
    ///
    /// Panics if `p` has a non-finite coordinate.
    pub fn add_node(&mut self, p: Point) -> (NodeId, TopoDelta) {
        assert!(p.x.is_finite() && p.y.is_finite(), "non-finite position for joiner");
        let n = self.points.len();
        let neighbors = self.probe(p, None);
        self.index.push(p);
        self.points.push(p);
        let added: Vec<(NodeId, NodeId)> = neighbors.iter().map(|&v| (v, n)).collect();
        let mut seeds = neighbors;
        seeds.push(n);
        self.graph = self.graph.spliced(n + 1, &added, &[]);
        self.debug_check_against_rebuild();
        (n, TopoDelta { added, removed: Vec::new(), seeds })
    }

    /// Removes node `u`. **Ids above `u` shift down by one** (the
    /// maintenance layer's id-compaction rule). The spatial index is
    /// rebuilt (`O(n)` — every stored index changes name), and the CSR
    /// is compacted in one remap pass.
    ///
    /// `removed` lists `u`'s vanished edges in the pre-removal id space;
    /// `seeds` holds `u`'s former neighbors under their new ids.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn remove_node(&mut self, u: NodeId) -> TopoDelta {
        assert!(u < self.points.len(), "removal of out-of-range node {u}");
        let old_row: Vec<NodeId> = self.graph.adj(u).collect();
        let mut removed: Vec<(NodeId, NodeId)> =
            old_row.iter().map(|&v| canonical(u, v)).collect();
        removed.sort_unstable();
        self.points.remove(u);
        self.index = GridIndex::build(&self.points, self.radius);
        self.graph = self.graph.compacted_without(u);
        // the monotone shift preserves the row's ascending order
        let seeds: Vec<NodeId> =
            old_row.iter().map(|&v| if v > u { v - 1 } else { v }).collect();
        self.debug_check_against_rebuild();
        TopoDelta { added: Vec::new(), removed, seeds }
    }

    /// From-scratch rebuild of the current topology — the splice oracle.
    /// Tests assert `udg.graph() == &udg.rebuilt_graph()` after
    /// mutations (debug builds additionally check it after every one).
    pub fn rebuilt_graph(&self) -> Graph {
        let (_, _, graph) = UnitDiskGraph::build(self.points.clone(), self.radius).into_parts();
        graph
    }

    /// Sorted ids of all current points within `radius` of `p`,
    /// excluding `skip`.
    fn probe(&self, p: Point, skip: Option<NodeId>) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.index.for_each_within(&self.points, p, self.radius, |v| {
            if Some(v) != skip {
                out.push(v);
            }
        });
        out.sort_unstable();
        out
    }

    #[inline]
    fn debug_check_against_rebuild(&self) {
        debug_assert_eq!(
            self.graph,
            self.rebuilt_graph(),
            "spliced CSR diverged from a from-scratch build"
        );
    }
}

/// Canonical `(min, max)` edge representation.
#[inline]
fn canonical(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Symmetric difference of two sorted id lists: `(only in new, only in
/// old)`, each sorted.
fn sorted_diff(new_list: &[NodeId], old_list: &[NodeId]) -> (Vec<NodeId>, Vec<NodeId>) {
    let mut gained = Vec::new();
    let mut lost = Vec::new();
    let mut ni = new_list.iter().copied().peekable();
    let mut oi = old_list.iter().copied().peekable();
    loop {
        match (ni.peek().copied(), oi.peek().copied()) {
            (Some(a), Some(b)) => {
                if a == b {
                    ni.next();
                    oi.next();
                } else if a < b {
                    gained.push(a);
                    ni.next();
                } else {
                    lost.push(b);
                    oi.next();
                }
            }
            (Some(a), None) => {
                gained.push(a);
                ni.next();
            }
            (None, Some(b)) => {
                lost.push(b);
                oi.next();
            }
            (None, None) => break,
        }
    }
    (gained, lost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcds_geom::deploy;
    use wcds_rng::{ChaCha12Rng, Rng};

    fn assert_matches_rebuild(udg: &DynamicUdg) {
        // release-mode oracle: the spliced CSR equals a from-scratch
        // build byte for byte (not just debug_assert coverage)
        assert_eq!(udg.graph(), &udg.rebuilt_graph());
    }

    #[test]
    fn moves_splice_exactly() {
        let mut udg = DynamicUdg::new(deploy::uniform(150, 5.0, 5.0, 11), 1.0);
        let mut rng = ChaCha12Rng::seed_from_u64(4);
        for _ in 0..60 {
            let u = rng.gen_range(0..udg.node_count());
            let p = Point::new(rng.gen::<f64>() * 5.0, rng.gen::<f64>() * 5.0);
            let delta = udg.move_node(u, p);
            assert_matches_rebuild(&udg);
            for &(a, b) in &delta.added {
                assert!(udg.graph().has_edge(a, b));
                assert!(delta.seeds.binary_search(&a).is_ok());
                assert!(delta.seeds.binary_search(&b).is_ok());
            }
            for &(a, b) in &delta.removed {
                assert!(!udg.graph().has_edge(a, b));
            }
        }
    }

    #[test]
    fn noop_move_yields_empty_delta() {
        let mut udg = DynamicUdg::new(deploy::uniform(60, 4.0, 4.0, 3), 1.0);
        let p = udg.points()[5];
        let delta = udg.move_node(5, p);
        assert!(delta.is_empty());
        assert!(delta.seeds.is_empty());
        assert_matches_rebuild(&udg);
    }

    #[test]
    fn joins_append_and_leaves_compact() {
        let mut udg = DynamicUdg::new(deploy::uniform(80, 4.0, 4.0, 9), 1.0);
        let mut rng = ChaCha12Rng::seed_from_u64(31);
        for step in 0..40 {
            if step % 3 == 2 && udg.node_count() > 10 {
                let u = rng.gen_range(0..udg.node_count());
                let deg = udg.graph().degree(u);
                let delta = udg.remove_node(u);
                assert_eq!(delta.removed.len(), deg);
                assert_eq!(delta.seeds.len(), deg);
            } else {
                let p = Point::new(rng.gen::<f64>() * 4.0, rng.gen::<f64>() * 4.0);
                let (id, delta) = udg.add_node(p);
                assert_eq!(id, udg.node_count() - 1);
                assert!(delta.seeds.contains(&id));
                assert_eq!(delta.added.len(), udg.graph().degree(id));
            }
            assert_matches_rebuild(&udg);
        }
    }

    #[test]
    fn isolated_join_still_seeds_itself() {
        let mut udg = DynamicUdg::new(deploy::uniform(30, 3.0, 3.0, 5), 1.0);
        let (id, delta) = udg.add_node(Point::new(100.0, 100.0));
        assert!(delta.is_empty());
        assert_eq!(delta.seeds, vec![id]);
        assert_matches_rebuild(&udg);
    }

    #[test]
    fn disconnecting_and_reconnecting_moves() {
        let mut udg = DynamicUdg::new(deploy::chain(6, 0.9), 1.0);
        let home = udg.points()[3];
        let away = udg.move_node(3, Point::new(50.0, 50.0));
        assert_eq!(away.added, vec![]);
        assert_eq!(away.removed.len(), 2);
        assert_matches_rebuild(&udg);
        let back = udg.move_node(3, home);
        assert_eq!(back.added.len(), 2);
        assert!(back.removed.is_empty());
        assert_matches_rebuild(&udg);
    }

    #[test]
    fn moves_to_huge_coordinates_keep_their_edges() {
        // cell keys saturate at ±2^63 past |x| = 9.2e18; the probe
        // window must saturate with them instead of wrapping empty
        let mut udg = DynamicUdg::new(
            vec![
                Point::new(1e300, 0.0),
                Point::new(1e300, 0.5),
                Point::new(0.0, 0.0),
                Point::new(-1e300, 0.0),
                Point::new(0.5, 0.0),
            ],
            1.0,
        );
        assert!(udg.graph().has_edge(0, 1));
        for (u, p) in [
            (0, Point::new(1e300, 0.1)),
            (4, Point::new(-1e300, 0.7)),
            (2, Point::new(1e300, 0.9)),
            (0, Point::new(-1e300, -0.2)),
        ] {
            udg.move_node(u, p);
            assert_matches_rebuild(&udg);
        }
        assert!(udg.graph().has_edge(1, 2) && udg.graph().has_edge(0, 3));
    }

    #[test]
    fn mirrors_the_static_builder_from_any_start() {
        let udg = DynamicUdg::new(deploy::uniform(500, 10.0, 10.0, 77), 1.0);
        assert_matches_rebuild(&udg);
    }
}
