//! Weakly-connected dominating sets and position-less sparse spanners.
//!
//! This crate implements the primary contribution of
//! *Alzoubi, Wan, Frieder — ICDCS 2003*:
//!
//! * [`mis`] — maximal-independent-set machinery with pluggable ranking
//!   (§2 of the paper): static ID, dynamic `(degree, id)`, and the
//!   level-based `(tree level, id)` rank;
//! * [`ranking`] — rank types and the spanning-tree level assignment;
//! * [`algo1`] — **Algorithm I**: level-ranked MIS = WCDS with
//!   approximation ratio 5; centralized reference plus the full
//!   three-phase distributed protocol (leader election, level
//!   calculation, color marking);
//! * [`algo2`] — **Algorithm II**: fully localized; arbitrary MIS +
//!   additional dominators closing every 3-hop gap, `O(n)` time and
//!   messages, spanner with topological dilation 3 / geometric dilation
//!   6; centralized reference plus the full distributed protocol;
//! * [`election`] — distributed leader election + spanning-tree
//!   construction (the substrate Algorithm I's first phase needs);
//! * [`wcds`] — the verified [`Wcds`] output type;
//! * [`spanner`] — weakly-induced spanner extraction and sparseness
//!   accounting (Theorems 8 and 10);
//! * [`dilation`] — topological/geometric dilation measurement
//!   (Lemma 6, Theorem 11);
//! * [`properties`] — checkable forms of the structural lemmas
//!   (Lemmas 1–3, Theorem 4);
//! * [`maintenance`] — WCDS maintenance under mobility (the paper's
//!   §4.2 extension), with 3-hop repair locality;
//! * [`partition`] — Algorithm II with its bridge sweep threaded per
//!   MIS anchor, for city-scale inputs (n = 100k–1M), byte-identical
//!   to the sequential construction;
//! * [`resilient`] — (k, m)-resilient backbones: layered residual
//!   re-runs of the MIS/bridge machinery give m-fold coverage, and
//!   connector augmentation raises the induced core to k-connectivity
//!   (the fault-tolerance generalization of ROADMAP item 4);
//! * [`postprocess`] — redundant-dominator pruning (the engineering
//!   side of the paper's "the bound … may be improved" remark);
//! * [`audit`] — one-stop backbone quality report combining all of the
//!   above.
//!
//! # Examples
//!
//! ```
//! use wcds_core::algo1::AlgorithmOne;
//! use wcds_core::algo2::AlgorithmTwo;
//! use wcds_core::WcdsConstruction;
//! use wcds_geom::deploy;
//! use wcds_graph::UnitDiskGraph;
//!
//! let udg = UnitDiskGraph::build(deploy::uniform(150, 6.0, 6.0, 3), 1.0);
//! for algo in [
//!     &AlgorithmOne::new() as &dyn WcdsConstruction,
//!     &AlgorithmTwo::new() as &dyn WcdsConstruction,
//! ] {
//!     let result = algo.construct(udg.graph());
//!     assert!(result.wcds.is_valid(udg.graph()), "{} built an invalid WCDS", algo.name());
//! }
//! ```

pub mod algo1;
pub mod algo2;
pub mod audit;
pub mod dilation;
pub mod election;
pub mod maintenance;
pub mod mis;
pub mod partition;
pub mod postprocess;
pub mod properties;
pub mod ranking;
pub mod resilient;
pub mod spanner;
pub mod wcds;

pub use wcds::Wcds;
use wcds_graph::Graph;

/// The output of a WCDS construction: the dominator set and the sparse
/// spanner it weakly induces.
#[derive(Debug, Clone)]
pub struct ConstructionResult {
    /// The weakly-connected dominating set (with its MIS/additional
    /// partition).
    pub wcds: Wcds,
    /// The weakly induced subgraph `G' = (V, E')` — the paper's
    /// position-less sparse spanner.
    pub spanner: Graph,
}

/// A WCDS construction algorithm (centralized view).
///
/// Both of the paper's algorithms, and every baseline, implement this so
/// experiments can sweep over algorithms uniformly. Distributed variants
/// live in the `distributed` submodules of [`algo1`] and [`algo2`] and
/// produce the same `ConstructionResult` plus message/time reports.
pub trait WcdsConstruction {
    /// Runs the construction on a connected graph.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `g` is disconnected (the paper
    /// assumes a connected network; check with
    /// [`wcds_graph::traversal::is_connected`] first).
    fn construct(&self, g: &Graph) -> ConstructionResult;

    /// A short display name ("algorithm-1", "greedy-wcds", …).
    fn name(&self) -> &'static str;
}
