//! Graph substrate for the WCDS workspace.
//!
//! The paper models a wireless ad hoc network as a **unit-disk graph**
//! (UDG): nodes are points in the plane, and two nodes are adjacent iff
//! their Euclidean distance is at most one. Everything the paper's
//! algorithms and proofs need on top of that is implemented here, from
//! scratch:
//!
//! * [`Graph`] — a compact undirected simple graph in CSR (compressed
//!   sparse row) layout: one flat offset array plus one flat target
//!   array, so a node's neighbor list is a contiguous sorted slice;
//! * [`UnitDiskGraph`] — points + the induced [`Graph`], built in
//!   `O(n + |E|)` with a spatial hash (or a direct scan below the
//!   occupancy crossover);
//! * [`DynamicUdg`] — the same state kept mutable: moves/joins/leaves
//!   produce `O(Δ)` edge deltas against a live spatial index and splice
//!   the CSR instead of rebuilding it;
//! * [`traversal`] — BFS, hop distances, connected components, and the
//!   reusable (optionally radius-bounded) search tree
//!   [`traversal::BallTree`] that every hop search outside the dilation
//!   sweep fills;
//! * [`shortest_path`] — Dijkstra, hop-count and geometric-length APSP;
//! * [`SearchScratch`] — the dilation sweep's reusable epoch-stamped
//!   search state (hop, min-hop max-length and Dijkstra kernels), so
//!   its per-source searches run without per-source allocation;
//! * [`parallel`] — a dependency-free per-source parallel engine whose
//!   width `WCDS_THREADS` picks at run time (1 when unset);
//! * [`spanning`] — rooted BFS spanning trees with levels (the paper's
//!   level-based ranking substrate);
//! * [`domination`] — dominating-set / independence / weak-connectivity
//!   predicates (Definitions in §1–2 of the paper);
//! * [`generators`] — abstract (non-geometric) graph families for tests;
//! * [`io`] — a plain-text edge-list format for artifacts and debugging.
//!
//! # Examples
//!
//! ```
//! use wcds_geom::deploy;
//! use wcds_graph::{traversal, UnitDiskGraph};
//!
//! let udg = UnitDiskGraph::build(deploy::uniform(100, 5.0, 5.0, 7), 1.0);
//! let comps = traversal::connected_components(udg.graph());
//! assert_eq!(comps.iter().map(|c| c.len()).sum::<usize>(), 100);
//! ```

pub mod connectivity;
pub mod domination;
mod dynamic;
pub mod generators;
pub mod metrics;
mod graph;
pub mod io;
pub mod parallel;
// one of the workspace's two sanctioned `unsafe` islands (the other is
// `wcds-service::sys`): the dilation sweep's bounds-check-free CSR
// kernels, whose index invariants are proved at construction (workspace
// policy denies unsafe_code everywhere else — DESIGN.md §9.6)
#[allow(unsafe_code)]
mod scratch;
pub mod shortest_path;
pub mod spanning;
pub mod traversal;
mod udg;

pub use dynamic::{DynamicUdg, TopoDelta};
pub use graph::{Graph, GraphBuilder};
pub use scratch::{CsrWeights, SearchScratch};
pub use udg::UnitDiskGraph;

/// Index of a node within a [`Graph`].
///
/// Nodes are dense indices `0..n`; algorithms in this workspace carry any
/// richer identity (protocol IDs, ranks) in side tables keyed by `NodeId`.
pub type NodeId = usize;

/// An undirected edge, stored with endpoints in ascending order.
///
/// # Examples
///
/// ```
/// use wcds_graph::Edge;
///
/// assert_eq!(Edge::new(5, 2), Edge::new(2, 5));
/// assert_eq!(Edge::new(5, 2).endpoints(), (2, 5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Edge {
    u: NodeId,
    v: NodeId,
}

impl Edge {
    /// Creates an edge; endpoint order is normalised.
    ///
    /// # Panics
    ///
    /// Panics if `u == v` (self-loops are not representable; the UDG model
    /// has none).
    #[inline]
    pub fn new(u: NodeId, v: NodeId) -> Self {
        assert_ne!(u, v, "self-loop edge ({u}, {u})");
        if u < v {
            Self { u, v }
        } else {
            Self { u: v, v: u }
        }
    }

    /// The endpoints in ascending order.
    #[inline]
    pub fn endpoints(self) -> (NodeId, NodeId) {
        (self.u, self.v)
    }

    /// Whether `x` is one of the endpoints.
    #[inline]
    pub fn touches(self, x: NodeId) -> bool {
        self.u == x || self.v == x
    }

    /// The endpoint that is not `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not an endpoint.
    #[inline]
    pub fn other(self, x: NodeId) -> NodeId {
        if x == self.u {
            self.v
        } else if x == self.v {
            self.u
        } else {
            panic!("node {x} is not an endpoint of {self:?}")
        }
    }
}

#[cfg(test)]
mod edge_tests {
    use super::Edge;

    #[test]
    fn normalisation_makes_edges_order_free() {
        assert_eq!(Edge::new(3, 1), Edge::new(1, 3));
    }

    #[test]
    fn other_returns_opposite_endpoint() {
        let e = Edge::new(4, 9);
        assert_eq!(e.other(4), 9);
        assert_eq!(e.other(9), 4);
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn other_panics_for_non_endpoint() {
        let _ = Edge::new(1, 2).other(3);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        let _ = Edge::new(7, 7);
    }

    #[test]
    fn touches_both_endpoints_only() {
        let e = Edge::new(0, 5);
        assert!(e.touches(0));
        assert!(e.touches(5));
        assert!(!e.touches(3));
    }
}
