//! Domination, independence, and weak-connectivity predicates.
//!
//! These are the paper's §1–2 definitions, implemented as checkable
//! predicates so every construction in the workspace can be *verified*
//! rather than trusted:
//!
//! * a set `S` is **dominating** if every node is in `S` or adjacent to a
//!   node of `S`;
//! * `S` is **independent** if no two nodes of `S` are adjacent;
//! * a **maximal independent set** admits no independent proper superset
//!   (equivalently: it is independent *and* dominating);
//! * `S` is a **weakly-connected dominating set** (WCDS) if it is
//!   dominating and the subgraph *weakly induced* by `S` — all edges with
//!   at least one endpoint in `S` — is connected.

use crate::{traversal, Graph, NodeId};

/// Whether `s` dominates `g`: every node is in `s` or has a neighbor in it.
///
/// The empty set dominates only the empty graph.
///
/// # Examples
///
/// ```
/// use wcds_graph::{domination, generators};
///
/// let g = generators::star(5);
/// assert!(domination::is_dominating_set(&g, &[0]));
/// assert!(!domination::is_dominating_set(&g, &[1]));
/// ```
pub fn is_dominating_set(g: &Graph, s: &[NodeId]) -> bool {
    let in_s = g.membership(s);
    g.nodes().all(|u| in_s[u] || g.adj(u).any(|v| in_s[v]))
}

/// Whether `s` is an independent set (pairwise non-adjacent).
pub fn is_independent_set(g: &Graph, s: &[NodeId]) -> bool {
    let in_s = g.membership(s);
    s.iter().all(|&u| g.adj(u).all(|v| !in_s[v]))
}

/// Whether `s` is a **maximal** independent set.
///
/// Uses the textbook equivalence (paper §2): an independent set is
/// maximal iff it is also dominating.
pub fn is_maximal_independent_set(g: &Graph, s: &[NodeId]) -> bool {
    is_independent_set(g, s) && is_dominating_set(g, s)
}

/// Whether `s` is a **connected** dominating set: dominating, and the
/// subgraph induced by `s` is connected.
pub fn is_connected_dominating_set(g: &Graph, s: &[NodeId]) -> bool {
    is_dominating_set(g, s) && traversal::is_connected_subset(g, s)
}

/// Whether `s` is a **weakly-connected** dominating set.
///
/// The weakly induced subgraph `G' = (V, E')`, `E' = {(u,v) ∈ E : u ∈ s
/// or v ∈ s}`, must be connected *over the nodes it touches*: every node
/// covered by `s` must be reachable from every other within `G'`.
/// Isolated nodes of `g` itself are tolerated only if `g` is just those
/// nodes (a dominating set of a graph with an isolated node must contain
/// it).
///
/// One search of `g` from `s[0]` that follows only the edges of `G'`
/// decides it, without building `G'`: `s` is a WCDS exactly when the
/// search reaches every node. A node outside `s` is reached only along
/// an edge from a node of `s`, so reaching every node implies
/// domination; conversely a WCDS dominates every node, so each one
/// touches `G'` and sits in the one component that holds `s`.
///
/// # Panics
///
/// Panics if a node of `s` is out of range.
pub fn is_weakly_connected_dominating_set(g: &Graph, s: &[NodeId]) -> bool {
    let in_s = g.membership(s);
    let Some(&root) = s.first() else { return g.node_count() == 0 };
    let member = |v: NodeId| in_s.get(v).copied().unwrap_or(false);
    let mut seen = g.membership(&[root]);
    let mut queue = vec![root];
    let mut next = 0;
    while let Some(&x) = queue.get(next) {
        next += 1;
        let x_in_s = member(x);
        for y in g.adj(x) {
            if let Some(seen_y) = seen.get_mut(y) {
                if !*seen_y && (x_in_s || member(y)) {
                    *seen_y = true;
                    queue.push(y);
                }
            }
        }
    }
    queue.len() == g.node_count()
}

/// The number of nodes of `s` adjacent to `u` (not counting `u` itself).
pub fn dominator_count(g: &Graph, s: &[NodeId], u: NodeId) -> usize {
    let in_s = g.membership(s);
    g.adj(u).filter(|&v| in_s[v]).count()
}

/// Nodes not in `s` and with no neighbor in `s` (witnesses that `s` fails
/// to dominate). Empty iff `s` dominates.
pub fn undominated_nodes(g: &Graph, s: &[NodeId]) -> Vec<NodeId> {
    let in_s = g.membership(s);
    g.nodes()
        .filter(|&u| !in_s[u] && !g.adj(u).any(|v| in_s[v]))
        .collect()
}

/// Whether every node **outside** `s` has at least `m` neighbors in
/// `s` (the *m-fold domination* condition of Zhang et al.'s connected
/// m-fold dominating sets). Members of `s` are exempt: a dominator
/// covers itself by being in the backbone.
///
/// # Examples
///
/// ```
/// use wcds_graph::{domination, generators};
///
/// // C4: each node has both neighbors in the opposite pair
/// let g = generators::cycle(4);
/// assert!(domination::m_fold_coverage(&g, &[0, 2], 2));
/// assert!(!domination::m_fold_coverage(&g, &[0], 2));
/// ```
pub fn m_fold_coverage(g: &Graph, s: &[NodeId], m: usize) -> bool {
    m_fold_deficient_nodes(g, s, m).is_empty()
}

/// Nodes outside `s` with fewer than `m` neighbors in `s` (witnesses
/// that `s` fails m-fold coverage). Empty iff [`m_fold_coverage`] holds.
pub fn m_fold_deficient_nodes(g: &Graph, s: &[NodeId], m: usize) -> Vec<NodeId> {
    let in_s = g.membership(s);
    g.nodes()
        .filter(|&u| !in_s[u] && g.adj(u).filter(|&v| in_s[v]).count() < m)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn star_center_dominates() {
        let g = generators::star(6);
        assert!(is_dominating_set(&g, &[0]));
        assert!(undominated_nodes(&g, &[0]).is_empty());
    }

    #[test]
    fn star_leaf_does_not_dominate() {
        let g = generators::star(6);
        assert!(!is_dominating_set(&g, &[1]));
        assert_eq!(undominated_nodes(&g, &[1]).len(), 5);
    }

    #[test]
    fn empty_set_dominates_only_empty_graph() {
        assert!(is_dominating_set(&Graph::empty(0), &[]));
        assert!(!is_dominating_set(&Graph::empty(1), &[]));
    }

    #[test]
    fn independence_on_path() {
        let g = generators::path(5);
        assert!(is_independent_set(&g, &[0, 2, 4]));
        assert!(!is_independent_set(&g, &[0, 1]));
        assert!(is_independent_set(&g, &[]));
        assert!(is_independent_set(&g, &[3]));
    }

    #[test]
    fn mis_is_independent_and_dominating() {
        let g = generators::path(5);
        assert!(is_maximal_independent_set(&g, &[0, 2, 4]));
        // {0, 3} is independent and dominating hence maximal
        assert!(is_maximal_independent_set(&g, &[1, 3]) == is_dominating_set(&g, &[1, 3]));
        // {0, 4} is independent but not dominating (node 2 uncovered)
        assert!(!is_maximal_independent_set(&g, &[0, 4]));
    }

    #[test]
    fn cds_requires_induced_connectivity() {
        let g = generators::path(5);
        // {1, 3} dominates but 1-3 not adjacent → not CDS
        assert!(is_dominating_set(&g, &[1, 3]));
        assert!(!is_connected_dominating_set(&g, &[1, 3]));
        assert!(is_connected_dominating_set(&g, &[1, 2, 3]));
    }

    #[test]
    fn wcds_weaker_than_cds() {
        let g = generators::path(5);
        // {1, 3}: weakly induced edges 0-1,1-2,2-3,3-4 → connected → WCDS
        assert!(is_weakly_connected_dominating_set(&g, &[1, 3]));
        assert!(!is_connected_dominating_set(&g, &[1, 3]));
    }

    #[test]
    fn wcds_fails_when_weak_graph_splits() {
        // two disjoint edges: {0} dominates only its half
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]);
        assert!(!is_weakly_connected_dominating_set(&g, &[0]));
        // {0, 2} dominates but the weak graph has two components
        assert!(is_dominating_set(&g, &[0, 2]));
        assert!(!is_weakly_connected_dominating_set(&g, &[0, 2]));
    }

    #[test]
    fn paper_figure2_wcds() {
        // Two star centers joined through one shared gray node: the paper's
        // Figure 2 example of a WCDS {1, 2} that is not a CDS.
        let g = Graph::from_edges(
            9,
            [(0, 2), (1, 2), (0, 3), (0, 4), (0, 5), (1, 6), (1, 7), (1, 8)],
        );
        assert!(is_weakly_connected_dominating_set(&g, &[0, 1]));
        assert!(!is_connected_dominating_set(&g, &[0, 1]));
        assert!(is_maximal_independent_set(&g, &[0, 1]));
    }

    #[test]
    fn dominator_count_matches_lemma1_setup() {
        let g = generators::star(4);
        assert_eq!(dominator_count(&g, &[1, 2, 3], 0), 3);
        assert_eq!(dominator_count(&g, &[0], 2), 1);
        assert_eq!(dominator_count(&g, &[2], 1), 0);
    }

    #[test]
    fn whole_vertex_set_is_wcds_of_connected_graph() {
        let g = generators::connected_gnp(30, 0.1, 5);
        let all: Vec<NodeId> = g.nodes().collect();
        assert!(is_weakly_connected_dominating_set(&g, &all));
    }

    #[test]
    fn singleton_graph_cases() {
        let g = Graph::empty(1);
        assert!(is_dominating_set(&g, &[0]));
        assert!(is_weakly_connected_dominating_set(&g, &[0]));
        assert!(is_connected_dominating_set(&g, &[0]));
    }
}
