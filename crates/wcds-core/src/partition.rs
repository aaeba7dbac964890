//! Algorithm II with a threaded bridge sweep, for city-scale inputs.
//!
//! From-scratch construction at n = 100k–1M cannot afford the quadratic
//! bridge search. Of Algorithm II's two phases, only the bridge phase
//! pays for a second core (EXPERIMENTS.md T9i):
//!
//! * **MIS phase** — the lowest-ID-among-white-neighbours rule, whose
//!   centralized form is one ascending greedy scan
//!   ([`greedy_mis`] under [`RankingMode::StaticId`]).
//! * **Bridge phase** — Algorithm II's 3-hop rule decomposes over MIS
//!   anchors (each pair `(u, w)` is charged to its smaller endpoint),
//!   so anchors are swept in parallel on the dependency-free thread
//!   engine in [`wcds_graph::parallel`], each worker with its own
//!   [`BallTree`], and the per-anchor contributions are unioned
//!   serially through one membership mask.
//!
//! The sweep is **thread-count invariant by construction**: workers own
//! disjoint output slots and the reduction is serial in a fixed order.
//! On top of that, at n ≤ [`ORACLE_MAX_NODES`] it is asserted — in
//! release builds too — equal to the sequential
//! [`select_additional_dominators`].

use crate::algo2::select_additional_dominators;
use crate::maintenance::region::{bridge_union, contributions_for};
use crate::mis::{greedy_mis, RankingMode};
use crate::{ConstructionResult, Wcds, WcdsConstruction};
use std::collections::BTreeSet;
use wcds_graph::traversal::BallTree;
use wcds_graph::{parallel, Graph, NodeId, UnitDiskGraph};

/// Largest input on which the construction cross-checks its threaded
/// bridge sweep against the sequential one (always, including release
/// builds). Beyond this the check would dominate the run it is
/// guarding.
pub const ORACLE_MAX_NODES: usize = 5000;

/// Algorithm II with the bridge phase swept over worker threads.
///
/// Produces bit-for-bit the [`AlgorithmTwo`](crate::algo2::AlgorithmTwo)
/// output (same MIS, same additional dominators, same spanner) for any
/// thread count.
///
/// # Examples
///
/// ```
/// use wcds_core::partition::PartitionedTwo;
/// use wcds_core::WcdsConstruction;
/// use wcds_geom::deploy;
/// use wcds_graph::UnitDiskGraph;
///
/// let udg = UnitDiskGraph::build(deploy::uniform(400, 10.0, 10.0, 7), 1.0);
/// let result = PartitionedTwo::new().construct(udg.graph());
/// assert!(result.wcds.is_valid(udg.graph()));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct PartitionedTwo {
    nthreads: Option<usize>,
}

impl PartitionedTwo {
    /// The construction using [`parallel::threads`] workers.
    pub fn new() -> Self {
        Self { nthreads: None }
    }

    /// The construction pinned to `nthreads` workers (`0` is clamped to
    /// 1). Output does not depend on the choice.
    pub fn with_threads(nthreads: usize) -> Self {
        Self { nthreads: Some(nthreads.max(1)) }
    }

    /// Returns `(mis, additional)` like
    /// [`AlgorithmTwo::construct_parts`](crate::algo2::AlgorithmTwo::construct_parts).
    pub fn construct_parts(&self, udg: &UnitDiskGraph) -> (Vec<NodeId>, Vec<NodeId>) {
        self.parts(udg.graph())
    }

    fn parts(&self, g: &Graph) -> (Vec<NodeId>, Vec<NodeId>) {
        let nthreads = self.nthreads.unwrap_or_else(parallel::threads);
        let mis = greedy_mis(g, RankingMode::StaticId);
        let per_anchor = bridge_contributions(g, &mis, nthreads);
        let additional = bridge_union(g.node_count(), per_anchor.into_iter().map(|(_, set)| set));
        if g.node_count() <= ORACLE_MAX_NODES {
            assert_eq!(
                additional,
                select_additional_dominators(g, &mis),
                "threaded bridge sweep diverged from the sequential one"
            );
        }
        (mis, additional)
    }
}

impl WcdsConstruction for PartitionedTwo {
    fn construct(&self, g: &Graph) -> ConstructionResult {
        let (mis, additional) = self.parts(g);
        let wcds = Wcds::new(mis, additional);
        let spanner = wcds.weakly_induced_subgraph(g);
        ConstructionResult { wcds, spanner }
    }

    fn name(&self) -> &'static str {
        "algorithm-2-partitioned"
    }
}

/// Per-anchor bridge contributions, in ascending anchor order: Algorithm
/// II's bridge rule decomposed over the MIS anchors. Each anchor's set
/// is computed on a worker with its own [`BallTree`]; the rule is
/// per-pair deterministic, so the list is thread-count invariant.
pub(crate) fn bridge_contributions(
    g: &Graph,
    mis: &[NodeId],
    nthreads: usize,
) -> Vec<(NodeId, BTreeSet<NodeId>)> {
    let in_mis = g.membership(mis);
    let is_mis = |w: NodeId| in_mis.get(w).copied().unwrap_or(false);
    parallel::map_indices(nthreads, mis.len(), BallTree::default, |ball, i| {
        // i < mis.len() from map_indices, so the default never appears
        mis.get(i).map(|&u| (u, contributions_for(ball, g, is_mis, u))).unwrap_or_default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo2::AlgorithmTwo;
    use wcds_geom::deploy;

    // the oracle assert inside construct_parts IS the correctness
    // check; these tests exercise it across inputs and thread counts
    // (the dedicated cross-seed sweep lives in
    // tests/partition_equivalence.rs at the workspace root)

    #[test]
    fn matches_sequential_for_every_thread_count() {
        let udg = UnitDiskGraph::build(deploy::uniform(600, 12.0, 12.0, 3), 1.0);
        let seq = AlgorithmTwo::new().construct_parts(udg.graph());
        for nthreads in [1, 2, 3, 8] {
            let got = PartitionedTwo::with_threads(nthreads).construct_parts(&udg);
            assert_eq!(got, seq, "nthreads {nthreads}");
        }
    }

    #[test]
    fn degenerate_layouts() {
        // empty
        let empty = UnitDiskGraph::build(Vec::new(), 1.0);
        assert_eq!(PartitionedTwo::new().construct_parts(&empty), (vec![], vec![]));
        // all points coincident (zero-extent bounding box)
        let pts = vec![wcds_geom::Point::new(2.0, 2.0); 40];
        let udg = UnitDiskGraph::build(pts, 1.0);
        let (mis, additional) = PartitionedTwo::new().construct_parts(&udg);
        assert_eq!(mis, vec![0], "a clique keeps only its smallest id");
        assert!(additional.is_empty());
        // collinear points (zero height)
        let pts: Vec<_> = (0..50).map(|i| wcds_geom::Point::new(i as f64 * 0.9, 1.0)).collect();
        let udg = UnitDiskGraph::build(pts, 1.0);
        let got = PartitionedTwo::new().construct_parts(&udg);
        assert_eq!(got, AlgorithmTwo::new().construct_parts(udg.graph()));
    }
}
