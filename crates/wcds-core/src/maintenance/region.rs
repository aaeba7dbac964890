//! Region-scoped repair primitives: the 3-hop-bounded machinery behind
//! [`super::MaintainedWcds`].
//!
//! The repair's region itself — the radius-3 ball around the disturbed
//! nodes — is one multi-source fill of a [`BallTree`], the same search
//! the bridge rule below runs once per MIS anchor. Around it:
//!
//! * [`distances_to_targets`] — a radius-bounded BFS that stops at its
//!   last target, kept in a sparse map sized by the nodes it reaches;
//! * [`cascade_mis`] — restores the *lexicographic-first* MIS (the set
//!   greedy `StaticId` construction produces) after an edge delta, via
//!   an ascending-id worklist fixpoint seeded at the disturbed nodes;
//! * [`contributions_for`] — the per-MIS-node share of Algorithm II's
//!   bridge rule, read off one radius-3 BFS tree, and [`bridge_union`],
//!   which merges the shares in id order.
//!
//! Why the worklist restores exactly the greedy MIS: under a static-id
//! ranking, `u` is black iff no neighbor `v < u` is black — a unique
//! fixpoint. The heap pops ascending ids and every push made while
//! processing `u` targets an id above `u`, so pops are non-decreasing:
//! when `u` is decided, every smaller id's membership is already final.
//! A node's decision can only change if its own edge set changed (it is
//! a seed) or a smaller neighbor flipped (the flip pushes it), so the
//! fixpoint reached equals a from-scratch greedy run.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap, HashSet, VecDeque};
use wcds_graph::traversal::BallTree;
use wcds_graph::{Graph, NodeId};

/// Hop distances from `sources` to the nodes of `targets`, scanning no
/// farther than `radius` — the BFS stops the moment the last target is
/// assigned, so on dense graphs it touches a few hop layers instead of
/// the whole `radius`-ball. Distances in the returned map are exact;
/// targets beyond `radius` (or unreachable) are absent.
pub(crate) fn distances_to_targets<I>(
    g: &Graph,
    sources: I,
    targets: &BTreeSet<NodeId>,
    radius: u32,
) -> HashMap<NodeId, u32>
where
    I: IntoIterator<Item = NodeId>,
{
    let mut dist: HashMap<NodeId, u32> = HashMap::new();
    let mut queue: VecDeque<(NodeId, u32)> = VecDeque::new();
    let mut remaining = targets.len();
    for s in sources {
        if s < g.node_count() {
            if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(s) {
                e.insert(0);
                queue.push_back((s, 0));
                if targets.contains(&s) {
                    remaining -= 1;
                }
            }
        }
    }
    while remaining > 0 {
        let Some((u, du)) = queue.pop_front() else { break };
        if du == radius {
            continue;
        }
        for v in g.adj(u) {
            if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(v) {
                e.insert(du + 1);
                queue.push_back((v, du + 1));
                if targets.contains(&v) {
                    remaining -= 1;
                    if remaining == 0 {
                        break;
                    }
                }
            }
        }
    }
    dist
}

/// Repairs `mis` to the lexicographic-first MIS of `g` after a topology
/// delta, and returns the nodes whose membership flipped (ascending).
///
/// Caller contract: before the call, `mis` is the lex-first MIS of the
/// pre-delta graph, and `seeds` contains every node whose incident edge
/// set changed (both in the post-delta id space — when the delta renamed
/// nodes, the caller has already applied the order-preserving remap to
/// `mis`, which commutes with greedy construction).
pub(crate) fn cascade_mis(g: &Graph, mis: &mut BTreeSet<NodeId>, seeds: &[NodeId]) -> Vec<NodeId> {
    let mut heap: BinaryHeap<Reverse<NodeId>> = seeds.iter().copied().map(Reverse).collect();
    let mut done: HashSet<NodeId> = HashSet::new();
    let mut flipped = Vec::new();
    while let Some(Reverse(u)) = heap.pop() {
        if u >= g.node_count() || !done.insert(u) {
            continue;
        }
        let desired = !g.adj(u).any(|v| v < u && mis.contains(&v));
        if desired == mis.contains(&u) {
            continue;
        }
        if desired {
            mis.insert(u);
        } else {
            mis.remove(&u);
        }
        flipped.push(u);
        for v in g.adj(u) {
            // pops are non-decreasing, so v > u has not been decided yet
            if v > u {
                heap.push(Reverse(v));
            }
        }
    }
    // pops were already ascending; flipped inherits the order
    debug_assert!(flipped.windows(2).all(|w| w.first() < w.last()));
    flipped
}

/// Algorithm II's bridge rule restricted to the pairs anchored at MIS
/// node `u`: for every MIS node `w > u` at hop distance exactly 3, the
/// smallest neighbor `v` of `u` with `hop(v, w) == 2`. Matches
/// `crate::algo2::select_additional_dominators` pair for pair, but runs
/// on `u`'s radius-3 ball (`O(|ball(u, 3)|)`, not `O(n + |E|)`). MIS
/// membership is a predicate, so batch callers can pass an `O(1)`
/// bitmap; `ball` is refilled, so a sweep over many anchors shares
/// one allocation.
///
/// The bridge is `w`'s grandparent in the ball's BFS tree, on any
/// graph. Adjacency is sorted, so the hop-1 nodes are dequeued in
/// ascending id: a hop-2 node's parent is its smallest hop-1
/// neighbour, and the hop-2 nodes enter the queue in non-decreasing
/// parent order. `w`'s parent is the first hop-2 node adjacent to `w`,
/// so its grandparent is the smallest parent of a hop-2 neighbour of
/// `w`. A common neighbour of `v ∈ N(u)` and `w` sits at hop 2, so
/// those parents are exactly the `v ∈ N(u)` with `hop(v, w) == 2`.
pub(crate) fn contributions_for(
    ball: &mut BallTree,
    g: &Graph,
    in_mis: impl Fn(NodeId) -> bool,
    u: NodeId,
) -> BTreeSet<NodeId> {
    ball.fill(g, [u], 3);
    // visit order is hop-monotone: hop 3 is the tail. The parent calls
    // name their type so the workspace call graph links them to
    // `BallTree` alone.
    let ball = &*ball;
    ball.order()
        .iter()
        .rev()
        .take_while(|&&w| ball.hop(w) == Some(3))
        .filter(|&&w| w > u && in_mis(w))
        .filter_map(|&w| BallTree::parent(ball, w).and_then(|x| BallTree::parent(ball, x)))
        .collect()
}

/// The union of per-anchor bridge sets on an `n`-node graph, in
/// ascending id order: a membership mask marked set by set, then read
/// out in id order.
pub(crate) fn bridge_union(
    n: usize,
    sets: impl IntoIterator<Item = BTreeSet<NodeId>>,
) -> Vec<NodeId> {
    let mut member = vec![false; n];
    for v in sets.into_iter().flatten() {
        if let Some(m) = member.get_mut(v) {
            *m = true;
        }
    }
    member.iter().enumerate().filter_map(|(v, &m)| m.then_some(v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo2::{select_additional_dominators, select_additional_dominators_reference};
    use crate::mis::{greedy_mis, RankingMode};
    use wcds_geom::deploy;
    use wcds_graph::{generators, traversal, UnitDiskGraph};
    use wcds_rng::{ChaCha12Rng, Rng};

    fn lex_mis(g: &Graph) -> BTreeSet<NodeId> {
        greedy_mis(g, RankingMode::StaticId).into_iter().collect()
    }

    #[test]
    fn cascade_reaches_the_greedy_fixpoint_from_scratch() {
        // seeding every node must reproduce greedy construction exactly,
        // even starting from an empty (wrong) membership
        let g = generators::gnp(120, 0.06, 5);
        let mut mis = BTreeSet::new();
        let seeds: Vec<NodeId> = g.nodes().collect();
        cascade_mis(&g, &mut mis, &seeds);
        assert_eq!(mis, lex_mis(&g));
    }

    #[test]
    fn cascade_tracks_greedy_across_random_moves() {
        let mut udg = wcds_graph::DynamicUdg::new(deploy::uniform(180, 5.0, 5.0, 21), 1.0);
        let mut mis = lex_mis(udg.graph());
        let mut rng = ChaCha12Rng::seed_from_u64(77);
        for _ in 0..80 {
            let u = rng.gen_range(0..udg.node_count());
            let p = wcds_geom::Point::new(rng.gen::<f64>() * 5.0, rng.gen::<f64>() * 5.0);
            let delta = udg.move_node(u, p);
            let flipped = cascade_mis(udg.graph(), &mut mis, &delta.seeds);
            assert_eq!(mis, lex_mis(udg.graph()), "cascade diverged (flipped {flipped:?})");
            for &f in &flipped {
                // a flip is either a seed or reachable from one through
                // the ascending chain — never an untouched far node
                assert!(f >= delta.seeds.first().copied().unwrap_or(0));
            }
        }
    }

    #[test]
    fn edge_removal_promotes_the_freed_node() {
        // path 0-1-2: lex MIS {0, 2}; drop edge (0, 1) and node 1 must
        // join, which in turn evicts 2 — exactly what a fresh greedy run
        // decides ({0, 1}), reached through the ascending chain
        let g3 = generators::path(3);
        let mut mis: BTreeSet<NodeId> = lex_mis(&g3);
        let g2 = {
            let mut b = wcds_graph::GraphBuilder::new(3);
            b.add_edge(1, 2);
            b.build()
        };
        let flipped = cascade_mis(&g2, &mut mis, &[0, 1]);
        assert_eq!(flipped, vec![1, 2]);
        assert_eq!(mis, lex_mis(&g2));
        assert_eq!(mis.iter().copied().collect::<Vec<_>>(), vec![0, 1]);
    }

    /// Algorithm II's rule for one anchor by brute force: a full BFS
    /// from `u` finds its 3-hop MIS partners `w > u`, and one from each
    /// `w` picks the smallest `v ∈ N(u)` with `hop(v, w) == 2`.
    fn per_pair_reference(g: &Graph, mis: &[NodeId], u: NodeId) -> BTreeSet<NodeId> {
        let from_u = traversal::bfs_distances(g, u);
        mis.iter()
            .filter(|&&w| w > u && from_u[w] == Some(3))
            .map(|&w| {
                let from_w = traversal::bfs_distances(g, w);
                g.adj(u).find(|&v| from_w[v] == Some(2)).expect("a (1, 2) intermediate")
            })
            .collect()
    }

    #[test]
    fn every_anchor_matches_the_per_pair_reference() {
        let disconnected = generators::gnp(90, 0.03, 2);
        assert!(!traversal::is_connected(&disconnected));
        let udg = UnitDiskGraph::build(deploy::uniform(220, 7.0, 7.0, 9), 1.0);
        let graphs = [
            ("connected_gnp", generators::connected_gnp(70, 0.06, 4)),
            ("path", generators::path(23)),
            ("caterpillar", generators::caterpillar(12, 2)),
            ("disconnected gnp", disconnected),
            ("udg", udg.graph().clone()),
        ];
        let mut ball = BallTree::default();
        let mut bridged_anchors = 0;
        for (name, g) in &graphs {
            for mode in [RankingMode::StaticId, RankingMode::DegreeId] {
                let mis = greedy_mis(g, mode);
                let in_mis = g.membership(&mis);
                for &u in &mis {
                    let got = contributions_for(&mut ball, g, |w| in_mis[w], u);
                    assert_eq!(got, per_pair_reference(g, &mis, u), "{name} {mode:?} anchor {u}");
                    bridged_anchors += usize::from(!got.is_empty());
                }
            }
        }
        assert!(bridged_anchors > 20, "only {bridged_anchors} anchors had a 3-hop partner");
    }

    #[test]
    fn contributions_union_equals_the_global_selection() {
        for seed in [3, 14, 60] {
            let udg = UnitDiskGraph::build(deploy::uniform(160, 7.0, 7.0, seed), 1.0);
            let g = udg.graph();
            let mis = greedy_mis(g, RankingMode::StaticId);
            // the per-anchor sets the maintenance engine keeps, as its
            // constructor's sweep computes them
            let per_anchor = crate::partition::bridge_contributions(g, &mis, 2);
            let anchors: Vec<NodeId> = per_anchor.iter().map(|(u, _)| *u).collect();
            assert_eq!(anchors, mis);
            let union: Vec<NodeId> = per_anchor
                .into_iter()
                .flat_map(|(_, set)| set)
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect();
            // against the full-BFS oracle (independent derivation) and
            // the production bounded-local path (shared machinery)
            assert_eq!(union, select_additional_dominators_reference(g, &mis));
            assert_eq!(union, select_additional_dominators(g, &mis));
        }
    }
}
