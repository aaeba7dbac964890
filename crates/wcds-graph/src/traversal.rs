//! Breadth-first traversals and connectivity.
//!
//! Hop distances are the paper's `h_G(u, v)` ("minimum number of hops in
//! `G`"); everything here is `O(n + |E|)`. Every search except the
//! reference [`bfs_tree`] and [`connected_components`] fills a
//! [`BallTree`], at radius `u32::MAX` when it is unbounded.

use crate::{parallel, Graph, NodeId};
use std::collections::VecDeque;

/// Hop distance from `source` to every node.
///
/// Unreachable nodes get `None`.
///
/// # Examples
///
/// ```
/// use wcds_graph::{traversal, Graph};
///
/// let g = Graph::from_edges(4, [(0, 1), (1, 2)]);
/// let d = traversal::bfs_distances(&g, 0);
/// assert_eq!(d[2], Some(2));
/// assert_eq!(d[3], None);
/// ```
pub fn bfs_distances(g: &Graph, source: NodeId) -> Vec<Option<u32>> {
    multi_source_bfs(g, std::iter::once(source))
}

/// Hop distance from the *nearest* of several sources to every node.
///
/// Used for "distance between complementary subsets" checks (Lemma 3 /
/// Theorem 4): run a multi-source BFS from subset `A` and inspect the
/// distance at subset `B`'s nodes.
pub fn multi_source_bfs<I>(g: &Graph, sources: I) -> Vec<Option<u32>>
where
    I: IntoIterator<Item = NodeId>,
{
    let mut ball = BallTree::default();
    ball.fill(g, sources, u32::MAX);
    g.nodes().map(|v| ball.hop(v)).collect()
}

/// BFS with parent pointers: returns `(distances, parents)`.
///
/// `parents[source]` is `None`; so is every unreachable node's.
pub fn bfs_tree(g: &Graph, source: NodeId) -> (Vec<Option<u32>>, Vec<Option<NodeId>>) {
    let mut dist = vec![None; g.node_count()];
    let mut parent = vec![None; g.node_count()];
    let mut q = VecDeque::new();
    dist[source] = Some(0);
    q.push_back(source);
    while let Some(u) = q.pop_front() {
        let du = dist[u].expect("queued nodes have distances");
        for v in g.adj(u) {
            if dist[v].is_none() {
                dist[v] = Some(du + 1);
                parent[v] = Some(u);
                q.push_back(v);
            }
        }
    }
    (dist, parent)
}

/// Hop mark of a node outside the current [`BallTree`].
const UNSEEN: u32 = u32::MAX;

/// A reusable [`bfs_tree`] truncated at a radius: the ball of nodes
/// within `radius` hops of a set of sources, with their hops, parents
/// and visit order.
///
/// Every 3-hop search in the workspace fills one: the backbone router's
/// dominator links and the broadcast plan's spanning tree (one source
/// per dominator), Algorithm II's bridge rule (one source per MIS
/// anchor), a maintenance repair's region (every disturbed node at once)
/// and the heads a router patch refreshes (every spanner-delta endpoint
/// at once). The unbounded searches fill one at radius `u32::MAX`:
/// [`multi_source_bfs`] and everything built on it, [`is_connected`],
/// [`eccentricities`] and [`crate::shortest_path::all_pairs_hops`].
/// With one source, hops and parents are **identical** to the full
/// tree's for every node in the ball: the frontier is expanded in the
/// same FIFO order, neighbours in adjacency order, and a node keeps the
/// first parent that discovers it. With several, the sources are
/// the first layer in the order given (a repeated source counts once),
/// and each hop is the distance to the nearest source.
///
/// The arrays are allocated once, grown to the largest graph filled so
/// far, and each [`fill`](Self::fill) resets only the previous ball
/// through its visit list, so a sweep over many sources costs
/// `O(Σ ball)` instead of `O(sources · n)`.
///
/// # Examples
///
/// ```
/// use wcds_graph::{generators, traversal::BallTree};
///
/// let g = generators::path(6);
/// let mut ball = BallTree::default();
/// ball.fill(&g, [2], 2);
/// assert_eq!(ball.order(), &[2, 1, 3, 0, 4]);
/// assert_eq!(ball.hop(4), Some(2));
/// assert_eq!(ball.parent(4), Some(3));
/// assert_eq!(ball.interior(4), Some(vec![3]));
/// assert_eq!(ball.hop(5), None);
/// ball.fill(&g, [0, 5], 1);
/// assert_eq!(ball.order(), &[0, 5, 1, 4]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BallTree {
    /// Per node, its hop from the nearest source (or [`UNSEEN`]) and the
    /// node that discovered it, in one slot so a probe touches one
    /// cache line. The parent is meaningful only inside the ball.
    slots: Vec<(u32, u32)>,
    /// The ball in visit order, the sources first; also the BFS queue.
    order: Vec<NodeId>,
}

impl BallTree {
    /// Replaces the ball with the nodes within `radius` hops of the
    /// nearest of `sources` in `g`.
    ///
    /// # Panics
    ///
    /// Panics if a source is out of range.
    pub fn fill<I>(&mut self, g: &Graph, sources: I, radius: u32)
    where
        I: IntoIterator<Item = NodeId>,
    {
        let n = g.node_count();
        for &v in &self.order {
            if let Some(slot) = self.slots.get_mut(v) {
                slot.0 = UNSEEN;
            }
        }
        self.order.clear();
        if self.slots.len() < n {
            self.slots.resize(n, (UNSEEN, 0));
        }
        for s in sources {
            assert!(s < n, "source {s} out of range for {n} nodes");
            if let Some(slot) = self.slots.get_mut(s) {
                if slot.0 == UNSEEN {
                    slot.0 = 0;
                    self.order.push(s);
                }
            }
        }
        let mut next = 0;
        while let Some(&u) = self.order.get(next) {
            next += 1;
            let du = self.slots.get(u).map_or(UNSEEN, |slot| slot.0);
            // FIFO order is hop-monotone: the rest of the queue is
            // already on the rim
            if du >= radius {
                break;
            }
            for v in g.adj(u) {
                if let Some(slot) = self.slots.get_mut(v) {
                    if slot.0 == UNSEEN {
                        *slot = (du + 1, u as u32);
                        self.order.push(v);
                    }
                }
            }
        }
    }

    /// The ball in BFS visit order: the sources, then each hop layer in
    /// discovery order. Empty before the first fill.
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Hop distance of `v` from the nearest source, `None` outside the
    /// ball.
    pub fn hop(&self, v: NodeId) -> Option<u32> {
        self.slots.get(v).map(|slot| slot.0).filter(|&h| h != UNSEEN)
    }

    /// The tree parent of `v`: `None` for a source and outside the
    /// ball.
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        match self.hop(v)? {
            0 => None,
            _ => self.slots.get(v).map(|slot| slot.1 as NodeId),
        }
    }

    /// The nodes strictly between `v`'s source and `v` on the tree
    /// path, in path order (empty for a source and its neighbours);
    /// `None` outside the ball.
    pub fn interior(&self, v: NodeId) -> Option<Vec<NodeId>> {
        let hops = self.hop(v)?;
        let mut path = Vec::new();
        let mut cur = v;
        for _ in 1..hops {
            cur = self.slots.get(cur)?.1 as NodeId;
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }
}

/// Reconstructs the path `source → target` from BFS parent pointers.
///
/// Returns `None` if `target` was unreachable.
pub fn path_from_parents(
    parents: &[Option<NodeId>],
    source: NodeId,
    target: NodeId,
) -> Option<Vec<NodeId>> {
    if source == target {
        return Some(vec![source]);
    }
    parents[target]?;
    let mut path = vec![target];
    let mut cur = target;
    while cur != source {
        cur = parents[cur]?;
        path.push(cur);
    }
    path.reverse();
    Some(path)
}

/// Hop distance between two nodes, `None` if disconnected.
pub fn hop_distance(g: &Graph, u: NodeId, v: NodeId) -> Option<u32> {
    bfs_distances(g, u)[v]
}

/// Shortest hop distance between two *node sets* (the paper's
/// complementary-subset distance). `None` if no path crosses.
pub fn set_distance(g: &Graph, a: &[NodeId], b: &[NodeId]) -> Option<u32> {
    let dist = multi_source_bfs(g, a.iter().copied());
    b.iter().filter_map(|&v| dist[v]).min()
}

/// Connected components, each sorted ascending; components ordered by
/// their smallest node.
pub fn connected_components(g: &Graph) -> Vec<Vec<NodeId>> {
    let mut seen = vec![false; g.node_count()];
    let mut comps = Vec::new();
    for start in g.nodes() {
        if seen[start] {
            continue;
        }
        let mut comp = Vec::new();
        let mut q = VecDeque::from([start]);
        seen[start] = true;
        while let Some(u) = q.pop_front() {
            comp.push(u);
            for v in g.adj(u) {
                if !seen[v] {
                    seen[v] = true;
                    q.push_back(v);
                }
            }
        }
        comp.sort_unstable();
        comps.push(comp);
    }
    comps
}

/// Whether the whole graph is connected: one search from node 0
/// reaches every node.
///
/// The empty graph and singletons count as connected, matching the usual
/// convention (the paper implicitly assumes a connected network).
pub fn is_connected(g: &Graph) -> bool {
    if g.node_count() == 0 {
        return true;
    }
    let mut ball = BallTree::default();
    ball.fill(g, [0], u32::MAX);
    ball.order().len() == g.node_count()
}

/// Whether a node subset is connected *in the subgraph it induces*.
pub fn is_connected_subset(g: &Graph, s: &[NodeId]) -> bool {
    if s.len() <= 1 {
        return true;
    }
    let induced = g.induced(s);
    let dist = bfs_distances(&induced, s[0]);
    s.iter().all(|&u| dist[u].is_some())
}

/// Per-node hop eccentricities; `None` marks a node that cannot reach
/// the whole graph.
///
/// Fills one [`BallTree`] per node on [`parallel::threads`] workers (one
/// tree per worker): the eccentricity is the hop of the last node in
/// visit order. The result is a pure per-source map, so thread count
/// cannot affect it.
pub fn eccentricities(g: &Graph) -> Vec<Option<u32>> {
    eccentricities_with_threads(g, parallel::threads())
}

/// [`eccentricities`] with an explicit worker count (testing hook; the
/// result is identical for every `nthreads`).
pub fn eccentricities_with_threads(g: &Graph, nthreads: usize) -> Vec<Option<u32>> {
    let n = g.node_count();
    parallel::map_indices(nthreads, n, BallTree::default, |ball, u| {
        ball.fill(g, [u], u32::MAX);
        // FIFO order is hop-monotone: the last node is the farthest
        let order = ball.order();
        let &last = order.last().filter(|_| order.len() == n)?;
        ball.hop(last)
    })
}

/// Graph eccentricity-based diameter in hops (`None` if disconnected or
/// empty).
pub fn diameter(g: &Graph) -> Option<u32> {
    if g.node_count() == 0 {
        return None;
    }
    eccentricities(g).into_iter().try_fold(0, |best, ecc| Some(best.max(ecc?)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn bfs_distances_on_path() {
        let g = generators::path(5);
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
    }

    #[test]
    fn bfs_unreachable_is_none() {
        let g = Graph::from_edges(4, [(0, 1)]);
        let d = bfs_distances(&g, 0);
        assert_eq!(d[2], None);
        assert_eq!(d[3], None);
    }

    #[test]
    fn multi_source_takes_nearest() {
        let g = generators::path(7);
        let d = multi_source_bfs(&g, [0, 6]);
        assert_eq!(d[3], Some(3));
        assert_eq!(d[5], Some(1));
    }

    #[test]
    fn bfs_tree_parents_reconstruct_shortest_paths() {
        let g = generators::cycle(6);
        let (dist, parents) = bfs_tree(&g, 0);
        let p = path_from_parents(&parents, 0, 3).unwrap();
        assert_eq!(p.len() as u32 - 1, dist[3].unwrap());
        assert_eq!(p.first(), Some(&0));
        assert_eq!(p.last(), Some(&3));
        for w in p.windows(2) {
            assert!(g.has_edge(w[0], w[1]));
        }
    }

    /// The FIFO visit order of the unbounded BFS behind `bfs_tree`: the
    /// source, then each dequeued node's children in ascending id, the
    /// order its sorted adjacency discovers them in.
    fn fifo_order(source: NodeId, parents: &[Option<NodeId>]) -> Vec<NodeId> {
        let mut children = vec![Vec::new(); parents.len()];
        for (v, p) in parents.iter().enumerate() {
            if let Some(p) = *p {
                children[p].push(v);
            }
        }
        let mut order = vec![source];
        let mut next = 0;
        while let Some(&u) = order.get(next) {
            next += 1;
            order.extend_from_slice(&children[u]);
        }
        order
    }

    #[test]
    fn bounded_tree_matches_full_tree_inside_the_ball() {
        // one scratch for every fill, alternating a larger and a smaller
        // graph, so a hop or parent left over from an earlier ball shows
        let big = generators::connected_gnp(80, 0.06, 17);
        let small = generators::connected_gnp(30, 0.12, 5);
        let mut ball = BallTree::default();
        for source in [0, 11, 29, 42, 79] {
            for g in [&big, &small] {
                if source >= g.node_count() {
                    continue;
                }
                let (full_d, full_p) = bfs_tree(g, source);
                let full_order = fifo_order(source, &full_p);
                for radius in 0..5 {
                    ball.fill(g, [source], radius);
                    let within = |v: &NodeId| full_d[*v].is_some_and(|d| d <= radius);
                    let expected: Vec<NodeId> =
                        full_order.iter().copied().filter(within).collect();
                    let ctx = format!("n {} src {source} r {radius}", g.node_count());
                    assert_eq!(ball.order(), &expected[..], "{ctx}: visit order");
                    for v in 0..big.node_count() {
                        if v < g.node_count() && within(&v) {
                            assert_eq!(ball.hop(v), full_d[v], "{ctx} node {v}");
                            assert_eq!(ball.parent(v), full_p[v], "{ctx} node {v}");
                            let path = path_from_parents(&full_p, source, v).unwrap();
                            let interior = path[1..].split_last().map_or(&[][..], |(_, i)| i);
                            let got = ball.interior(v);
                            assert_eq!(got.as_deref(), Some(interior), "{ctx} node {v}");
                        } else {
                            assert_eq!(ball.hop(v), None, "{ctx} node {v}");
                            assert_eq!(ball.parent(v), None, "{ctx} node {v}");
                            assert_eq!(ball.interior(v), None, "{ctx} node {v}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn ball_tree_rejects_an_out_of_range_source() {
        BallTree::default().fill(&generators::path(3), [0, 3], 2);
    }

    #[test]
    fn multi_source_ball_matches_multi_source_bfs_within_radius() {
        // one scratch for every fill, alternating a larger and a smaller
        // graph, so a hop left over from an earlier ball shows; sources
        // come unsorted and repeated
        let big = generators::connected_gnp(120, 0.04, 23);
        let small = generators::connected_gnp(40, 0.1, 9);
        let mut ball = BallTree::default();
        let source_sets: [&[NodeId]; 4] = [&[0, 17, 91], &[5, 5, 12, 5], &[39, 2, 110, 2], &[]];
        for (sources, g) in source_sets.iter().flat_map(|&s| [(s, &big), (s, &small)]) {
            let sources: Vec<NodeId> =
                sources.iter().copied().filter(|&s| s < g.node_count()).collect();
            let mut seen = std::collections::HashSet::new();
            let distinct: Vec<NodeId> =
                sources.iter().copied().filter(|&s| seen.insert(s)).collect();
            // the nearest source's hop, from one reference tree per source
            let trees: Vec<_> = distinct.iter().map(|&s| bfs_tree(g, s).0).collect();
            let full: Vec<Option<u32>> =
                g.nodes().map(|v| trees.iter().filter_map(|d| d[v]).min()).collect();
            let got = multi_source_bfs(g, sources.iter().copied());
            assert_eq!(got, full, "n {} sources {sources:?}", g.node_count());
            for radius in 0..5 {
                ball.fill(g, sources.iter().copied(), radius);
                let ctx = format!("n {} sources {sources:?} r {radius}", g.node_count());
                let order = ball.order();
                assert_eq!(&order[..distinct.len()], &distinct[..], "{ctx}: sources first");
                assert!(order.windows(2).all(|w| ball.hop(w[0]) <= ball.hop(w[1])), "{ctx}");
                let mut members = order.to_vec();
                members.sort_unstable();
                members.dedup();
                assert_eq!(members.len(), order.len(), "{ctx}: a node visited twice");
                let within = |v: usize| full.get(v).copied().flatten().filter(|&d| d <= radius);
                assert_eq!(order.len(), (0..big.node_count()).filter_map(within).count(), "{ctx}");
                for v in 0..big.node_count() {
                    assert_eq!(ball.hop(v), within(v), "{ctx} node {v}");
                    if let Some(p) = ball.parent(v) {
                        assert!(g.has_edge(p, v), "{ctx} node {v}: parent not adjacent");
                        assert_eq!(ball.hop(p).map(|d| d + 1), within(v), "{ctx} node {v}");
                    } else {
                        assert!(within(v).is_none_or(|d| d == 0), "{ctx} node {v}: no parent");
                    }
                }
            }
        }
    }

    #[test]
    fn path_to_self_is_singleton() {
        let g = generators::path(3);
        let (_, parents) = bfs_tree(&g, 1);
        assert_eq!(path_from_parents(&parents, 1, 1), Some(vec![1]));
    }

    #[test]
    fn path_to_unreachable_is_none() {
        let g = Graph::from_edges(3, [(0, 1)]);
        let (_, parents) = bfs_tree(&g, 0);
        assert_eq!(path_from_parents(&parents, 0, 2), None);
    }

    #[test]
    fn hop_distance_is_symmetric() {
        let g = generators::cycle(8);
        assert_eq!(hop_distance(&g, 1, 5), hop_distance(&g, 5, 1));
        assert_eq!(hop_distance(&g, 1, 5), Some(4));
    }

    #[test]
    fn set_distance_between_cut_halves() {
        let g = generators::path(6);
        assert_eq!(set_distance(&g, &[0, 1], &[4, 5]), Some(3));
        assert_eq!(set_distance(&g, &[0], &[1]), Some(1));
        assert_eq!(set_distance(&g, &[2], &[2]), Some(0));
    }

    #[test]
    fn components_partition_nodes() {
        let g = Graph::from_edges(6, [(0, 1), (2, 3), (3, 4)]);
        let comps = connected_components(&g);
        assert_eq!(comps, vec![vec![0, 1], vec![2, 3, 4], vec![5]]);
    }

    #[test]
    fn connectivity_predicates() {
        assert!(is_connected(&generators::path(4)));
        assert!(!is_connected(&Graph::from_edges(3, [(0, 1)])));
        assert!(is_connected(&Graph::empty(0)));
        assert!(is_connected(&Graph::empty(1)));
    }

    #[test]
    fn connected_subset_uses_induced_edges_only() {
        // path 0-1-2: {0,2} is not connected even though both touch node 1
        let g = generators::path(3);
        assert!(!is_connected_subset(&g, &[0, 2]));
        assert!(is_connected_subset(&g, &[0, 1, 2]));
        assert!(is_connected_subset(&g, &[1]));
        assert!(is_connected_subset(&g, &[]));
    }

    #[test]
    fn diameter_of_known_graphs() {
        assert_eq!(diameter(&generators::path(5)), Some(4));
        assert_eq!(diameter(&generators::cycle(6)), Some(3));
        assert_eq!(diameter(&generators::complete(4)), Some(1));
        assert_eq!(diameter(&Graph::from_edges(3, [(0, 1)])), None);
        assert_eq!(diameter(&Graph::empty(0)), None);
        assert_eq!(diameter(&Graph::empty(1)), Some(0));
    }

    #[test]
    fn eccentricities_on_path_and_disconnected() {
        let g = generators::path(5);
        assert_eq!(
            eccentricities(&g),
            vec![Some(4), Some(3), Some(2), Some(3), Some(4)]
        );
        let split = Graph::from_edges(3, [(0, 1)]);
        assert_eq!(eccentricities(&split), vec![None, None, None]);
    }

    #[test]
    fn eccentricities_agree_across_thread_counts() {
        let g = generators::connected_gnp(70, 0.07, 11);
        let serial = eccentricities_with_threads(&g, 1);
        for nthreads in [2, 4, 70] {
            assert_eq!(eccentricities_with_threads(&g, nthreads), serial, "{nthreads}");
        }
    }
}
