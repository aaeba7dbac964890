//! Weighted and hop-count shortest paths.
//!
//! The paper distinguishes (§3):
//!
//! * `h_G(u, v)` — minimum **hops** between `u` and `v` in `G`
//!   ([`crate::traversal::bfs_distances`]);
//! * `ℓ_G(u, v)` — total **Euclidean length** of a minimum-distance path
//!   in `G` ([`geometric_distances`], a Dijkstra over edge lengths);
//! * `ℓ_G'(u, v)` — worst-case length of a minimum-hop path in the
//!   spanner. Since every UDG edge has length ≤ 1, any minimum-hop path
//!   of `h` hops has length ≤ `h`; [`min_hop_max_length`] computes the
//!   exact maximum over all minimum-hop paths for tight measurements.

use crate::traversal::BallTree;
use crate::{parallel, CsrWeights, Graph, NodeId, SearchScratch};
use wcds_geom::Point;

/// Dijkstra over arbitrary non-negative edge weights.
///
/// `weight(u, v)` is called for each relaxed edge and must be symmetric,
/// finite, and non-negative. Returns per-node distance (`None` if
/// unreachable).
///
/// # Panics
///
/// Panics if a weight is negative or non-finite.
pub fn dijkstra<W>(g: &Graph, source: NodeId, weight: W) -> Vec<Option<f64>>
where
    W: FnMut(NodeId, NodeId) -> f64,
{
    let mut scratch = SearchScratch::for_graph(g);
    scratch.dijkstra(g, source, weight);
    scratch.lens_to_vec(g.node_count())
}

/// Dijkstra over Euclidean edge lengths: the paper's `ℓ_G(u, ·)`.
///
/// `points[i]` must be the position of node `i`.
pub fn geometric_distances(g: &Graph, points: &[Point], source: NodeId) -> Vec<Option<f64>> {
    dijkstra(g, source, |u, v| points[u].distance(points[v]))
}

/// For every node `v`: the **maximum** Euclidean length over all
/// *minimum-hop* paths `source → v`.
///
/// This is the paper's `ℓ_G'(u, v)` ("the maximum total length of the
/// minimum-hop paths"): a routing layer that minimises hops may pick any
/// minimum-hop path, so the guarantee must cover the longest one. Runs a
/// BFS layering followed by a DAG longest-path pass over the shortest-path
/// DAG — `O(n + |E|)`. The BFS visit order *is* a topological order of
/// that DAG, so no sort is needed.
pub fn min_hop_max_length(g: &Graph, points: &[Point], source: NodeId) -> Vec<Option<f64>> {
    let mut scratch = SearchScratch::for_graph(g);
    let weights = CsrWeights::euclidean(g, points);
    scratch.min_hop_max_length_covering(g, &weights, source, g.node_count());
    scratch.lens_to_vec(g.node_count())
}

/// All-pairs hop distances as a dense matrix (`n` BFS runs, `O(n·(n+|E|))`).
///
/// Entry `[u][v]` is `None` when `v` is unreachable from `u`. The rows
/// run on [`parallel::threads`] workers, each filling one [`BallTree`]
/// per row; each row is a pure per-source map, so thread count cannot
/// affect the matrix.
pub fn all_pairs_hops(g: &Graph) -> Vec<Vec<Option<u32>>> {
    parallel::map_indices(parallel::threads(), g.node_count(), BallTree::default, |ball, u| {
        ball.fill(g, [u], u32::MAX);
        g.nodes().map(|v| ball.hop(v)).collect()
    })
}

/// All-pairs geometric distances (`n` Dijkstra runs, parallel like
/// [`all_pairs_hops`]).
pub fn all_pairs_geometric(g: &Graph, points: &[Point]) -> Vec<Vec<Option<f64>>> {
    let n = g.node_count();
    parallel::map_indices(parallel::threads(), n, || SearchScratch::new(n), |scratch, u| {
        scratch.dijkstra(g, u, |a, b| points[a].distance(points[b]));
        scratch.lens_to_vec(n)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::UnitDiskGraph;
    use wcds_geom::deploy;

    #[test]
    fn dijkstra_matches_bfs_on_unit_weights() {
        let g = generators::connected_gnp(60, 0.08, 3);
        let d_w = dijkstra(&g, 0, |_, _| 1.0);
        let d_h = crate::traversal::bfs_distances(&g, 0);
        for u in g.nodes() {
            assert_eq!(d_w[u].map(|x| x.round() as u32), d_h[u], "node {u}");
        }
    }

    #[test]
    fn dijkstra_prefers_cheap_detour() {
        // 0-1 heavy direct edge, 0-2-1 light detour
        let g = Graph::from_edges(3, [(0, 1), (0, 2), (2, 1)]);
        let d = dijkstra(&g, 0, |u, v| if (u.min(v), u.max(v)) == (0, 1) { 10.0 } else { 1.0 });
        assert_eq!(d[1], Some(2.0));
    }

    #[test]
    fn dijkstra_unreachable_is_none() {
        let g = Graph::from_edges(3, [(0, 1)]);
        let d = dijkstra(&g, 0, |_, _| 1.0);
        assert_eq!(d[2], None);
    }

    #[test]
    #[should_panic(expected = "invalid edge weight")]
    fn dijkstra_rejects_negative_weights() {
        let g = generators::path(3);
        let _ = dijkstra(&g, 0, |_, _| -1.0);
    }

    #[test]
    fn geometric_distance_on_chain() {
        let udg = UnitDiskGraph::build(deploy::chain(5, 0.9), 1.0);
        let d = geometric_distances(udg.graph(), udg.points(), 0);
        assert!((d[4].unwrap() - 3.6).abs() < 1e-9);
    }

    #[test]
    fn geometric_never_below_euclidean() {
        let udg = UnitDiskGraph::build(deploy::uniform(80, 5.0, 5.0, 17), 1.0);
        let d = geometric_distances(udg.graph(), udg.points(), 0);
        for v in udg.graph().nodes() {
            if let Some(dv) = d[v] {
                let straight = udg.point(0).distance(udg.point(v));
                assert!(dv >= straight - 1e-9, "ℓ_G({v}) = {dv} < |0v| = {straight}");
            }
        }
    }

    #[test]
    fn min_hop_max_length_bounded_by_hops() {
        // every UDG edge has length ≤ radius, so max length ≤ hops · radius
        let udg = UnitDiskGraph::build(deploy::uniform(120, 6.0, 6.0, 9), 1.0);
        let hops = crate::traversal::bfs_distances(udg.graph(), 0);
        let lens = min_hop_max_length(udg.graph(), udg.points(), 0);
        for v in udg.graph().nodes() {
            match (hops[v], lens[v]) {
                (Some(h), Some(l)) => assert!(l <= h as f64 + 1e-9, "node {v}: {l} > {h}"),
                (None, None) => {}
                other => panic!("reachability mismatch at {v}: {other:?}"),
            }
        }
    }

    #[test]
    fn min_hop_max_length_picks_longest_tied_path() {
        // two 2-hop paths 0→3: via 1 (short legs) and via 2 (long legs)
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(0.5, 0.1),  // node 1: short detour
            Point::new(0.5, -0.8), // node 2: long detour
            Point::new(1.0, 0.0),
        ];
        let g = Graph::from_edges(4, [(0, 1), (1, 3), (0, 2), (2, 3)]);
        let lens = min_hop_max_length(&g, &pts, 0);
        let via1 = pts[0].distance(pts[1]) + pts[1].distance(pts[3]);
        let via2 = pts[0].distance(pts[2]) + pts[2].distance(pts[3]);
        assert!(via2 > via1);
        assert!((lens[3].unwrap() - via2).abs() < 1e-12);
    }

    #[test]
    fn all_pairs_hops_symmetric() {
        let g = generators::connected_gnp(25, 0.15, 8);
        let m = all_pairs_hops(&g);
        for u in g.nodes() {
            assert_eq!(m[u][u], Some(0));
            for v in g.nodes() {
                assert_eq!(m[u][v], m[v][u]);
            }
        }
    }

    #[test]
    fn all_pairs_geometric_symmetric() {
        let udg = UnitDiskGraph::build(deploy::uniform(30, 3.0, 3.0, 4), 1.0);
        let m = all_pairs_geometric(udg.graph(), udg.points());
        for u in udg.graph().nodes() {
            for v in udg.graph().nodes() {
                match (m[u][v], m[v][u]) {
                    (Some(a), Some(b)) => assert!((a - b).abs() < 1e-9),
                    (None, None) => {}
                    other => panic!("asymmetry at ({u}, {v}): {other:?}"),
                }
            }
        }
    }
}
