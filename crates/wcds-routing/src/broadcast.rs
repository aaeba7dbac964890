//! Backbone broadcast versus blind flooding.
//!
//! §1: "the number of nodes responsible for routing and broadcasting
//! can be reduced to the number of nodes in the backbone". With a
//! *weakly*-connected backbone the dominators alone cannot relay (two
//! dominators may be two hops apart), so the forwarding set is the WCDS
//! plus one gray gateway per dominator-graph spanning-tree edge that
//! needs one — still `Θ(|U|)` nodes, far below the `n` transmissions of
//! blind flooding.

use std::collections::VecDeque;
use wcds_core::Wcds;
use wcds_graph::traversal::BallTree;
use wcds_graph::{Graph, NodeId};

/// A precomputed broadcast forwarding set for a WCDS backbone.
///
/// # Examples
///
/// ```
/// use wcds_core::algo2::AlgorithmTwo;
/// use wcds_core::WcdsConstruction;
/// use wcds_graph::generators;
/// use wcds_routing::BroadcastPlan;
///
/// // a star: the backbone is just the hub, so a broadcast costs two
/// // transmissions (leaf + hub) instead of nine (flooding)
/// let g = generators::star(8);
/// let result = AlgorithmTwo::new().construct(&g);
/// let plan = BroadcastPlan::for_wcds(&g, &result.wcds);
/// let outcome = plan.simulate(&g, 1);
/// assert!(outcome.full_coverage);
/// assert_eq!(outcome.transmissions, 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BroadcastPlan {
    /// Per node of the graph the plan was built for, whether it
    /// retransmits.
    is_forwarder: Vec<bool>,
    /// Number of forwarders: the `true` entries of `is_forwarder`.
    count: usize,
}

/// The result of simulating one broadcast.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BroadcastOutcome {
    /// Whether every node of the graph received the message.
    pub full_coverage: bool,
    /// Number of transmissions performed (source + forwarding
    /// retransmissions that were reached).
    pub transmissions: usize,
    /// Nodes that never received the message (empty on full coverage).
    pub uncovered: Vec<NodeId>,
}

impl BroadcastPlan {
    /// Every node forwards: blind flooding.
    pub fn flooding(g: &Graph) -> Self {
        Self { is_forwarder: vec![true; g.node_count()], count: g.node_count() }
    }

    /// Backbone forwarding: the WCDS plus the gateways of one
    /// dominator-graph spanning tree (dominator pairs at spanner
    /// distance ≤ 3 — the paper's algorithms need only distance-2
    /// links, but a general valid WCDS may need 3).
    ///
    /// # Panics
    ///
    /// Panics if `wcds` is not a valid WCDS of `g`.
    pub fn for_wcds(g: &Graph, wcds: &Wcds) -> Self {
        assert!(wcds.is_valid(g), "broadcast plan requires a valid WCDS");
        Self::for_backbone(&wcds.weakly_induced_subgraph(g), wcds)
    }

    /// Same plan as [`Self::for_wcds`], built from a precomputed
    /// weakly-induced spanner. Callers that already hold the spanner
    /// (the service bundle caches it) skip its reconstruction and the
    /// validity re-check; `spanner` must be
    /// `wcds.weakly_induced_subgraph(g)` for a graph on which `wcds`
    /// is valid.
    ///
    /// The spanning tree grows breadth-first over the dominator graph
    /// from the smallest dominator. Each dequeued dominator fills one
    /// reusable radius-3 [`BallTree`] and adopts the dominators of its
    /// ball not yet in the tree, in ascending id; a dominator 2 or 3
    /// hops away adds the interior of its BFS path as gateways. Only
    /// dominators dequeued before the tree spans every dominator fill a
    /// ball, so a plan costs `O(Σ ball)`, with no `O(n)` allocation or
    /// scan per dominator.
    ///
    /// # Panics
    ///
    /// Panics if the dominators are not mutually reachable within
    /// spanner distance 3 — the case when `wcds` is not a valid WCDS
    /// of the graph `spanner` came from.
    pub fn for_backbone(spanner: &Graph, wcds: &Wcds) -> Self {
        let mut plan = Self { is_forwarder: vec![false; spanner.node_count()], count: 0 };
        let doms = wcds.nodes();
        for &d in doms {
            plan.mark(d);
        }
        let Some(&root) = doms.first().filter(|_| doms.len() > 1) else { return plan };
        // dominators not yet in the spanning tree
        let mut pending = vec![false; spanner.node_count()];
        for &d in doms {
            if let Some(p) = pending.get_mut(d) {
                *p = d != root;
            }
        }
        let mut joined = 1;
        let mut frontier = VecDeque::from([root]);
        let mut ball = BallTree::default();
        let mut adopted = Vec::new();
        while joined < doms.len() {
            let Some(cur) = frontier.pop_front() else { break };
            ball.fill(spanner, [cur], 3);
            adopted.clear();
            adopted.extend(ball.order().iter().copied().filter(|&v| pending.get(v) == Some(&true)));
            // the ball lists them by hop; the tree adopts them by id
            adopted.sort_unstable();
            for &next in &adopted {
                if let Some(p) = pending.get_mut(next) {
                    *p = false;
                }
                joined += 1;
                frontier.push_back(next);
                for gateway in ball.interior(next).unwrap_or_default() {
                    plan.mark(gateway);
                }
            }
        }
        assert_eq!(
            joined,
            doms.len(),
            "dominator graph at radius 3 must be connected for a valid WCDS"
        );
        plan
    }

    /// Adds `v` to the forwarding set.
    fn mark(&mut self, v: NodeId) {
        if let Some(f) = self.is_forwarder.get_mut(v) {
            if !*f {
                *f = true;
                self.count += 1;
            }
        }
    }

    /// Whether `v` retransmits.
    fn forwards(&self, v: NodeId) -> bool {
        self.is_forwarder.get(v) == Some(&true)
    }

    /// The forwarding set, ascending.
    pub fn forwarders(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.is_forwarder.iter().enumerate().filter(|&(_, &f)| f).map(|(v, _)| v)
    }

    /// Size of the forwarding set.
    pub fn forwarder_count(&self) -> usize {
        self.count
    }

    /// Simulates a broadcast from `source`: the source transmits, then
    /// every forwarder retransmits once upon first reception.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range.
    pub fn simulate(&self, g: &Graph, source: NodeId) -> BroadcastOutcome {
        assert!(source < g.node_count(), "source out of range");
        let mut informed = vec![false; g.node_count()];
        let mut transmissions = 0;
        // a node is queued only on its first reception, so at most once
        let mut queue = VecDeque::from([source]);
        if let Some(s) = informed.get_mut(source) {
            *s = true;
        }
        while let Some(u) = queue.pop_front() {
            transmissions += 1;
            for v in g.adj(u) {
                if let Some(seen) = informed.get_mut(v) {
                    if !*seen {
                        *seen = true;
                        if self.forwards(v) {
                            queue.push_back(v);
                        }
                    }
                }
            }
        }
        let uncovered: Vec<NodeId> =
            informed.iter().enumerate().filter(|&(_, &i)| !i).map(|(u, _)| u).collect();
        BroadcastOutcome { full_coverage: uncovered.is_empty(), transmissions, uncovered }
    }
}

/// The broadcast as a real distributed protocol: the source transmits,
/// and a node retransmits on first reception iff it is in the
/// forwarding set. Equivalent to [`BroadcastPlan::simulate`] but run on
/// the message-passing simulator, so schedules, faults, and message
/// accounting all apply.
#[derive(Debug)]
pub struct BroadcastNode {
    forwarder: bool,
    source: bool,
    informed: bool,
}

impl BroadcastNode {
    /// A node of the broadcast protocol.
    pub fn new(forwarder: bool, source: bool) -> Self {
        Self { forwarder, source, informed: false }
    }

    /// Whether the message reached this node.
    pub fn informed(&self) -> bool {
        self.informed
    }
}

impl wcds_sim::Protocol for BroadcastNode {
    type Message = ();

    fn on_start(&mut self, ctx: &mut wcds_sim::Context<'_, ()>) {
        if self.source {
            self.informed = true;
            ctx.broadcast(());
        }
    }

    fn on_message(&mut self, _from: usize, _msg: (), ctx: &mut wcds_sim::Context<'_, ()>) {
        if !self.informed {
            self.informed = true;
            if self.forwarder {
                ctx.broadcast(());
            }
        }
    }

    fn message_kind(_msg: &()) -> &'static str {
        "DATA"
    }
}

impl BroadcastPlan {
    /// Runs the broadcast as a distributed protocol under `schedule`.
    ///
    /// Returns the outcome plus the simulator report (rounds, message
    /// accounting). The transmission count equals
    /// [`BroadcastPlan::simulate`]'s under a fault-free schedule.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range or the protocol fails to
    /// quiesce.
    pub fn run_distributed(
        &self,
        g: &Graph,
        source: NodeId,
        schedule: wcds_sim::Schedule,
    ) -> (BroadcastOutcome, wcds_sim::SimReport) {
        assert!(source < g.node_count(), "source out of range");
        let mut sim = wcds_sim::Simulator::new(g, |u| {
            BroadcastNode::new(self.forwards(u), u == source)
        });
        let report = sim.run(schedule).expect("broadcast quiesces");
        let uncovered: Vec<NodeId> =
            g.nodes().filter(|&u| !sim.node(u).informed()).collect();
        let outcome = BroadcastOutcome {
            full_coverage: uncovered.is_empty(),
            transmissions: report.messages.total() as usize,
            uncovered,
        };
        (outcome, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use wcds_core::algo1::AlgorithmOne;
    use wcds_core::algo2::AlgorithmTwo;
    use wcds_core::resilient::{ResilientBackbone, ResilientParams};
    use wcds_core::WcdsConstruction;
    use wcds_geom::deploy;
    use wcds_graph::{generators, traversal, UnitDiskGraph};

    /// The plan's forwarders as first written: per dequeued dominator a
    /// full BFS tree cut at 3 hops, then a scan of every dominator in
    /// ascending id — the oracle the ball-local plan must equal.
    fn reference_forwarders(spanner: &Graph, wcds: &Wcds) -> BTreeSet<NodeId> {
        let mut forwarders: BTreeSet<NodeId> = wcds.nodes().iter().copied().collect();
        if wcds.len() <= 1 {
            return forwarders;
        }
        let doms = wcds.nodes();
        let mut in_tree: BTreeSet<NodeId> = [doms[0]].into();
        let mut frontier = VecDeque::from([doms[0]]);
        while in_tree.len() < doms.len() {
            let Some(cur) = frontier.pop_front() else { break };
            let (dist, parents) = traversal::bfs_tree(spanner, cur);
            for &next in doms {
                if in_tree.contains(&next) || dist[next].is_none_or(|d| d > 3) {
                    continue;
                }
                in_tree.insert(next);
                frontier.push_back(next);
                let path = traversal::path_from_parents(&parents, cur, next).unwrap();
                forwarders.extend(&path[1..path.len() - 1]);
            }
        }
        assert_eq!(in_tree.len(), doms.len(), "reference: disconnected dominator graph");
        forwarders
    }

    /// Builds the plan for `wcds` on `g` and demands it equal the
    /// reference; returns the forwarder count.
    fn assert_plan_matches_reference(g: &Graph, wcds: &Wcds, what: &str) -> usize {
        let plan = BroadcastPlan::for_wcds(g, wcds);
        let reference = reference_forwarders(&wcds.weakly_induced_subgraph(g), wcds);
        assert_eq!(plan.forwarders().collect::<BTreeSet<_>>(), reference, "{what}");
        assert_eq!(plan.forwarder_count(), reference.len(), "{what}");
        plan.forwarder_count()
    }

    /// Connected uniform unit-disk graphs at about 12 neighbours a node.
    fn connected_udgs(sizes: &[usize], seeds: std::ops::Range<u64>) -> Vec<(String, Graph)> {
        let mut out = Vec::new();
        for &n in sizes {
            let side = (n as f64 * std::f64::consts::PI / 12.0).sqrt();
            for seed in seeds.clone() {
                let udg = UnitDiskGraph::build(deploy::uniform(n, side, side, seed), 1.0);
                if traversal::is_connected(udg.graph()) {
                    out.push((format!("n {n} seed {seed}"), udg.graph().clone()));
                }
            }
        }
        out
    }

    #[test]
    fn plan_equals_the_reference_on_udg_backbones() {
        let udgs = connected_udgs(&[300, 1000, 2000], 0..3);
        assert!(udgs.len() >= 6, "only {} connected instances", udgs.len());
        for (what, g) in &udgs {
            let two = AlgorithmTwo::new().construct(g).wcds;
            assert_plan_matches_reference(g, &two, &format!("algorithm II, {what}"));
        }
        for (what, g) in udgs.iter().take(3) {
            let one = AlgorithmOne::new().construct(g).wcds;
            assert_plan_matches_reference(g, &one, &format!("algorithm I, {what}"));
        }
    }

    #[test]
    fn plan_equals_the_reference_on_gnp_and_hardened_backbones() {
        for (n, p, seed) in [(40, 0.1, 3), (120, 0.04, 1), (300, 0.02, 7)] {
            let g = generators::connected_gnp(n, p, seed);
            let two = AlgorithmTwo::new().construct(&g).wcds;
            assert_plan_matches_reference(&g, &two, &format!("gnp {n} algorithm II"));
            let one = AlgorithmOne::new().construct(&g).wcds;
            assert_plan_matches_reference(&g, &one, &format!("gnp {n} algorithm I"));
        }
        let (_, g) = connected_udgs(&[400], 0..1).pop().expect("a connected instance");
        let hardened = ResilientBackbone::construct(&g, ResilientParams::new(2, 2).unwrap());
        let merged = hardened.merged_wcds();
        assert!(merged.is_valid(&g));
        assert_plan_matches_reference(&g, &merged, "hardened (2, 2)");
    }

    #[test]
    fn plan_equals_the_reference_with_one_or_two_dominators() {
        let star = generators::star(8);
        let hub = Wcds::from_mis(vec![0]);
        assert_eq!(assert_plan_matches_reference(&star, &hub, "one dominator"), 1);
        // two heads two hops apart need their gateway; adjacent ones don't
        let path = generators::path(3);
        let apart = Wcds::from_mis(vec![0, 2]);
        assert_eq!(assert_plan_matches_reference(&path, &apart, "two heads"), 3);
        let adjacent = Wcds::new(vec![1], vec![2]);
        assert_eq!(assert_plan_matches_reference(&path, &adjacent, "head and bridge"), 2);
    }

    #[test]
    #[should_panic(expected = "must be connected")]
    fn plan_panics_on_a_disconnected_dominator_graph() {
        let g = generators::path(7);
        let far = Wcds::from_mis(vec![0, 6]);
        BroadcastPlan::for_backbone(&far.weakly_induced_subgraph(&g), &far);
    }

    #[test]
    fn flooding_covers_with_n_transmissions() {
        let g = generators::connected_gnp(30, 0.12, 1);
        let out = BroadcastPlan::flooding(&g).simulate(&g, 0);
        assert!(out.full_coverage);
        assert_eq!(out.transmissions, 30);
    }

    #[test]
    fn backbone_broadcast_covers_from_any_source() {
        let g = generators::connected_gnp(40, 0.1, 3);
        let result = AlgorithmTwo::new().construct(&g);
        let plan = BroadcastPlan::for_wcds(&g, &result.wcds);
        for source in [0, 13, 39] {
            let out = plan.simulate(&g, source);
            assert!(out.full_coverage, "source {source}: uncovered {:?}", out.uncovered);
        }
    }

    #[test]
    fn backbone_beats_flooding_on_dense_udgs() {
        for seed in 0..4 {
            let udg = UnitDiskGraph::build(deploy::uniform(250, 6.0, 6.0, seed), 1.0);
            if !traversal::is_connected(udg.graph()) {
                continue;
            }
            let result = AlgorithmTwo::new().construct(udg.graph());
            let plan = BroadcastPlan::for_wcds(udg.graph(), &result.wcds);
            let backbone = plan.simulate(udg.graph(), 0);
            let flood = BroadcastPlan::flooding(udg.graph()).simulate(udg.graph(), 0);
            assert!(backbone.full_coverage);
            assert!(
                backbone.transmissions * 2 < flood.transmissions,
                "seed {seed}: backbone {} vs flood {}",
                backbone.transmissions,
                flood.transmissions
            );
        }
    }

    #[test]
    fn works_for_algorithm1_backbones_too() {
        let g = generators::connected_gnp(35, 0.12, 7);
        let result = AlgorithmOne::new().construct(&g);
        let plan = BroadcastPlan::for_wcds(&g, &result.wcds);
        let out = plan.simulate(&g, 5);
        assert!(out.full_coverage, "uncovered: {:?}", out.uncovered);
    }

    #[test]
    fn transmissions_bounded_by_forwarders_plus_source() {
        let g = generators::connected_gnp(45, 0.09, 9);
        let result = AlgorithmTwo::new().construct(&g);
        let plan = BroadcastPlan::for_wcds(&g, &result.wcds);
        let out = plan.simulate(&g, 0);
        assert!(out.transmissions <= plan.forwarder_count() + 1);
    }

    #[test]
    fn distributed_broadcast_matches_analytic_simulation() {
        let g = generators::connected_gnp(50, 0.09, 5);
        let result = AlgorithmTwo::new().construct(&g);
        let plan = BroadcastPlan::for_wcds(&g, &result.wcds);
        let analytic = plan.simulate(&g, 3);
        let (distributed, report) =
            plan.run_distributed(&g, 3, wcds_sim::Schedule::synchronous());
        assert!(distributed.full_coverage);
        assert_eq!(distributed.transmissions, analytic.transmissions);
        assert_eq!(report.messages.of_kind("DATA") as usize, analytic.transmissions);
    }

    #[test]
    fn distributed_broadcast_covers_under_async_schedules() {
        let g = generators::connected_gnp(40, 0.1, 8);
        let result = AlgorithmTwo::new().construct(&g);
        let plan = BroadcastPlan::for_wcds(&g, &result.wcds);
        for seed in 0..6 {
            let (out, _) = plan.run_distributed(&g, 0, wcds_sim::Schedule::asynchronous(seed));
            assert!(out.full_coverage, "seed {seed}: {:?}", out.uncovered);
        }
    }

    #[test]
    fn singleton_broadcast() {
        let g = Graph::empty(1);
        let w = Wcds::from_mis(vec![0]);
        let plan = BroadcastPlan::for_wcds(&g, &w);
        let out = plan.simulate(&g, 0);
        assert!(out.full_coverage);
        assert_eq!(out.transmissions, 1);
    }
}
