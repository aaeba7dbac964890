//! WCDS maintenance under mobility (§4.2's extension).
//!
//! The paper sketches the maintenance strategy and defers the details to
//! a follow-up: "the key technique … is to maintain the MIS in the
//! unit-disk graph at all times, and to maintain information about all
//! MIS-dominators within three-hop distance … the algorithm can be
//! applied locally, and the nodes that get affected are within three-hop
//! distance."
//!
//! [`MaintainedWcds`] implements exactly that contract, and does it
//! incrementally end to end:
//!
//! * the topology lives in a [`DynamicUdg`] — every move/join/leave
//!   yields an `O(Δ)` [`TopoDelta`](wcds_graph::TopoDelta) and splices the CSR instead of
//!   rebuilding it;
//! * the MIS is repaired by the ascending-id cascade in `region`,
//!   seeded at the delta's disturbed nodes, which restores the exact
//!   lexicographic-first MIS a from-scratch greedy run would build;
//! * additional dominators are kept as per-MIS-node *contribution sets*
//!   with bridge refcounts, so only MIS nodes inside the 3-hop ball
//!   around the disturbance re-derive their bridges
//!   ([`select_additional_dominators_in`]); the union stays equal to
//!   Algorithm II's global selection at all times;
//! * every repair returns a [`RepairReport`] whose *locality radius* —
//!   the per-stage propagation distance of the repair (disturbed edges
//!   → MIS flips, then disturbance ∪ flips → dominator-status changes)
//!   — lets experiments verify the paper's 3-hop locality claim, plus
//!   touched-node/edge counters sizing the repaired region.
//!
//! Why the 3-hop ball suffices for bridges: the disturbed set `D`
//! (delta seeds ∪ MIS flips) contains every endpoint of every changed
//! edge and every membership change, so any shortest path can be
//! truncated at its first `D`-vertex — distances *from* `D` agree in
//! the old and new graphs. An MIS node `u` with `hop(D, u) ≥ 4` has an
//! identical radius-3 ball (members, distances, memberships) in both
//! graphs, and Algorithm II's pair rule for `u` reads nothing else.

use crate::Wcds;
use std::collections::{BTreeMap, BTreeSet};
use wcds_geom::Point;
use wcds_graph::{DynamicUdg, Graph, NodeId};

pub(crate) mod region;
pub use region::select_additional_dominators_in;

/// How far the locality scan looks before calling a changed node
/// unreachable from the disturbance (reported as `u32::MAX`). Repairs
/// land within 3–4 hops; 8 leaves slack to *observe* a violation of the
/// locality claim rather than mask it.
const LOCALITY_SCAN_RADIUS: u32 = 8;

/// A WCDS kept valid across node motion, joins, and departures.
///
/// # Examples
///
/// ```
/// use wcds_core::maintenance::MaintainedWcds;
/// use wcds_geom::{deploy, Point};
///
/// let mut net = MaintainedWcds::new(deploy::uniform(80, 4.0, 4.0, 1), 1.0);
/// assert!(net.wcds().is_valid(net.graph()));
/// let report = net.apply_join(Point::new(2.0, 2.0));
/// assert!(net.wcds().is_valid(net.graph()));
/// assert!(report.affected.contains(&80));
/// ```
#[derive(Debug, Clone)]
pub struct MaintainedWcds {
    udg: DynamicUdg,
    mis: BTreeSet<NodeId>,
    /// MIS node → the bridges its 3-hop pairs selected (only non-empty
    /// sets are stored).
    contrib: BTreeMap<NodeId, BTreeSet<NodeId>>,
    /// Bridge → number of MIS nodes whose contribution set contains it.
    /// The key set *is* the additional-dominator set.
    bridge_refs: BTreeMap<NodeId, u32>,
    /// Workers for repair-internal parallel sweeps (contribution-set
    /// recomputation fans out per anchor above
    /// [`PARALLEL_REPAIR_THRESHOLD`]). Results are identical for every
    /// value — the per-anchor sets are computed read-only and merged in
    /// ascending key order.
    threads: usize,
}

/// Below this many refresh anchors a repair stays on the calling thread:
/// typical single-mutation repairs touch a handful of MIS nodes and the
/// spawn cost would dominate. Batched drift ticks routinely disturb
/// hundreds of anchors and cross this comfortably.
const PARALLEL_REPAIR_THRESHOLD: usize = 16;

/// What one repair changed, how far from the disturbance, and how much
/// of the graph it had to look at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RepairReport {
    /// Nodes whose incident edge set changed (the disturbance).
    pub affected: Vec<NodeId>,
    /// Nodes that became dominators (of either kind).
    pub promoted: Vec<NodeId>,
    /// Nodes that stopped being dominators.
    pub demoted: Vec<NodeId>,
    /// Nodes that stayed dominators but switched kind (MIS head ↔
    /// bridge). The dominator *set* is unchanged for these, yet every
    /// head-derived artifact (clusterheads, routing tables) is stale —
    /// a cache consumer must treat a role swap exactly like a
    /// promotion. See [`RepairReport::changed`].
    pub role_changes: Vec<NodeId>,
    /// How far the repair's effects propagated (hop distance in the new
    /// graph), measured per repair stage: the farthest MIS flip from
    /// the disturbed edge endpoints, and the farthest dominator
    /// promotion/demotion from the disturbance *including* those flips
    /// (a flipped MIS node is itself part of the disturbance the
    /// bridge-selection layer reacts to). The maximum of the two is the
    /// paper's §4.2 "affected within three-hop distance" quantity;
    /// `None` when no membership or status changed, or nothing was
    /// disturbed.
    pub locality_radius: Option<u32>,
    /// Net edges the mutation created (canonical `(u, v)` with `u < v`,
    /// ascending; intra-batch add/remove pairs cancel).
    pub edges_added: Vec<(NodeId, NodeId)>,
    /// Net edges the mutation destroyed. For a leave these are reported
    /// in the pre-removal id space (the vanished node has no new id).
    pub edges_removed: Vec<(NodeId, NodeId)>,
    /// Nodes inside the repaired region (the 3-hop ball around the
    /// disturbed set); every node the repair examined is counted.
    pub touched_nodes: usize,
    /// Total degree over the touched nodes — edge endpoints the repair
    /// may have scanned.
    pub touched_edges: usize,
}

impl RepairReport {
    /// Whether the repair changed any dominator status — membership
    /// (`promoted` / `demoted`) **or** kind (`role_changes`). This is
    /// exactly `wcds_before != wcds_after` over the MIS/bridge
    /// partition: a repair may swap a bridge into the MIS while a
    /// nearby head drops to bridge, leaving the dominator *union*
    /// intact — a union-only diff would call that "unchanged" and let
    /// a cache patch routing state against the wrong head set.
    pub fn changed(&self) -> bool {
        !self.promoted.is_empty()
            || !self.demoted.is_empty()
            || !self.role_changes.is_empty()
    }
}

/// Snapshot of the dominator partition a repair is diffed against,
/// taken in the id space the repair will report in.
struct Baseline {
    mis: BTreeSet<NodeId>,
    bridges: BTreeSet<NodeId>,
}

impl MaintainedWcds {
    /// Builds the initial WCDS (Algorithm II's construction) over a
    /// deployment, using [`wcds_graph::parallel::threads()`] workers for
    /// the from-scratch bridge sweep.
    pub fn new(points: Vec<Point>, radius: f64) -> Self {
        Self::with_threads(points, radius, wcds_graph::parallel::threads())
    }

    /// [`MaintainedWcds::new`] with an explicit worker count for the
    /// initial construction. The from-scratch pass runs the same
    /// greedy MIS and threaded per-anchor bridge sweep as
    /// [`crate::partition::PartitionedTwo`], so a 100k-node deployment
    /// comes up in seconds instead of minutes; subsequent repairs are
    /// incremental and fan their refresh sweeps out over the same
    /// worker count (see [`MaintainedWcds::set_threads`]). The
    /// resulting state is identical for every `nthreads`.
    pub fn with_threads(points: Vec<Point>, radius: f64, nthreads: usize) -> Self {
        let udg = DynamicUdg::new(points, radius);
        let mis_vec = crate::mis::greedy_mis(udg.graph(), crate::mis::RankingMode::StaticId);
        let per_anchor =
            crate::partition::bridge_contributions(udg.graph(), &mis_vec, nthreads.max(1));
        let mis: BTreeSet<NodeId> = mis_vec.into_iter().collect();
        let mut contrib = BTreeMap::new();
        let mut bridge_refs: BTreeMap<NodeId, u32> = BTreeMap::new();
        for (u, set) in per_anchor {
            if set.is_empty() {
                continue;
            }
            for &b in &set {
                *bridge_refs.entry(b).or_insert(0) += 1;
            }
            contrib.insert(u, set);
        }
        let net = Self { udg, mis, contrib, bridge_refs, threads: nthreads.max(1) };
        net.debug_check_against_global();
        net
    }

    /// Sets the worker count for repair-internal parallel sweeps. Has no
    /// effect on results — only on how many threads a large repair's
    /// contribution recomputation fans out over.
    pub fn set_threads(&mut self, nthreads: usize) {
        self.threads = nthreads.max(1);
    }

    /// The repair worker count (see [`MaintainedWcds::set_threads`]).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The current topology.
    pub fn graph(&self) -> &Graph {
        self.udg.graph()
    }

    /// The current node positions.
    pub fn points(&self) -> &[Point] {
        self.udg.points()
    }

    /// The current WCDS.
    pub fn wcds(&self) -> Wcds {
        Wcds::new(self.mis.iter().copied().collect(), self.bridge_refs.keys().copied().collect())
    }

    /// Moves the listed nodes and repairs the WCDS. The whole batch is
    /// spliced into the CSR in one row-merge pass
    /// ([`DynamicUdg::move_nodes`]); the repair is seeded with the
    /// endpoints of the *net* edge delta (a later move undoing an
    /// earlier one cancels).
    ///
    /// # Panics
    ///
    /// Panics if a node id is out of range.
    pub fn apply_motion(&mut self, moves: &[(NodeId, Point)]) -> RepairReport {
        let before = self.baseline();
        let delta = self.udg.move_nodes(moves);
        self.repair(&delta.seeds, before, delta.added, delta.removed)
    }

    /// Adds a node (it receives the next id `n`) and repairs.
    pub fn apply_join(&mut self, p: Point) -> RepairReport {
        let before = self.baseline();
        let (_, delta) = self.udg.add_node(p);
        self.repair(&delta.seeds, before, delta.added, Vec::new())
    }

    /// Removes node `u`. **Ids above `u` shift down by one** (positions
    /// are compacted); dominator sets are remapped before repair. The
    /// remap is order-preserving, so it commutes with the id-ranked
    /// greedy construction and the bridge rule.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn apply_leave(&mut self, u: NodeId) -> RepairReport {
        let dropped = self.contrib.remove(&u);
        let delta = self.udg.remove_node(u);
        let remap = |x: NodeId| if x > u { x - 1 } else { x };
        self.mis = self.mis.iter().copied().filter(|&x| x != u).map(remap).collect();
        self.contrib = self
            .contrib
            .iter()
            .map(|(&k, set)| {
                let set: BTreeSet<NodeId> =
                    set.iter().copied().filter(|&b| b != u).map(remap).collect();
                (remap(k), set)
            })
            .filter(|(_, set)| !set.is_empty())
            .collect();
        self.bridge_refs = self
            .bridge_refs
            .iter()
            .filter(|&(&b, _)| b != u)
            .map(|(&b, &c)| (remap(b), c))
            .collect();
        // status baseline in the new id space, before the leaver's own
        // contributions are released (mirrors what a reader saw last)
        let before = self.baseline();
        for b in dropped.into_iter().flatten() {
            release_bridge(&mut self.bridge_refs, remap(b));
        }
        self.repair(&delta.seeds, before, Vec::new(), delta.removed)
    }

    /// Delta-driven repair: cascade the MIS from the seeds, then refresh
    /// contribution sets for MIS nodes inside the 3-hop ball around the
    /// disturbance (seeds ∪ flips).
    fn repair(
        &mut self,
        seeds: &[NodeId],
        before: Baseline,
        edges_added: Vec<(NodeId, NodeId)>,
        edges_removed: Vec<(NodeId, NodeId)>,
    ) -> RepairReport {
        let g = self.udg.graph();
        let flipped = region::cascade_mis(g, &mut self.mis, seeds);
        let mut dirty: BTreeSet<NodeId> = seeds.iter().copied().collect();
        dirty.extend(flipped.iter().copied());
        let ball = region::bounded_ball(g, dirty.iter().copied(), 3);
        if ball.len() * 2 >= g.node_count() {
            // dense repair: the ball covers most of the graph, so the
            // per-anchor diff/merge below degenerates to a global pass
            // that still pays set-diff bookkeeping per key. Rebuild the
            // contribution state wholesale with the constructor's
            // threaded sweep instead — per-anchor sets are a pure
            // function of (graph, MIS, anchor), so anchors outside the
            // ball recompute to their old values and the result is
            // identical to the incremental path (debug-asserted below).
            let mis_vec: Vec<NodeId> = self.mis.iter().copied().collect();
            let per_anchor =
                crate::partition::bridge_contributions(g, &mis_vec, self.threads);
            self.contrib.clear();
            self.bridge_refs.clear();
            for (u, set) in per_anchor {
                if set.is_empty() {
                    continue;
                }
                for &b in &set {
                    *self.bridge_refs.entry(b).or_insert(0) += 1;
                }
                self.contrib.insert(u, set);
            }
        } else {
            // refresh every current-MIS node in the ball, plus every old
            // contribution key in it (covers nodes that just left the MIS)
            let keys: Vec<NodeId> = ball
                .keys()
                .copied()
                .filter(|k| self.mis.contains(k) || self.contrib.contains_key(k))
                .collect();
            // per-anchor sets are a read-only function of (graph, MIS,
            // anchor), so they can be computed on any number of workers; the
            // refcount/contrib merge below stays serial in ascending key
            // order, making the result thread-count-invariant
            let workers =
                if keys.len() >= PARALLEL_REPAIR_THRESHOLD { self.threads } else { 1 };
            let mut new_sets: Vec<BTreeSet<NodeId>> = vec![BTreeSet::new(); keys.len()];
            {
                let mis = &self.mis;
                let nodes = g.node_count();
                wcds_graph::parallel::map_indices_with(
                    workers,
                    &mut new_sets,
                    || region::BallScratch::new(nodes),
                    |scratch, i| {
                        let k = keys[i];
                        if mis.contains(&k) {
                            region::contributions_for_with(scratch, g, mis, k)
                        } else {
                            BTreeSet::new()
                        }
                    },
                );
            }
            for (&k, new_set) in keys.iter().zip(new_sets) {
                let old_set = self.contrib.remove(&k).unwrap_or_default();
                if new_set == old_set {
                    if !old_set.is_empty() {
                        self.contrib.insert(k, old_set);
                    }
                    continue;
                }
                for &b in old_set.difference(&new_set) {
                    release_bridge(&mut self.bridge_refs, b);
                }
                for &b in new_set.difference(&old_set) {
                    *self.bridge_refs.entry(b).or_insert(0) += 1;
                }
                if !new_set.is_empty() {
                    self.contrib.insert(k, new_set);
                }
            }
        }

        let after = self.dominators();
        let before_union: BTreeSet<NodeId> =
            before.mis.union(&before.bridges).copied().collect();
        let promoted: Vec<NodeId> = after.difference(&before_union).copied().collect();
        let demoted: Vec<NodeId> = before_union.difference(&after).copied().collect();
        // dominators whose *kind* flipped while the union kept them: a
        // bridge absorbed into the MIS as a nearby head drops to bridge
        // is invisible to the union diff yet invalidates every
        // head-derived artifact downstream
        let bridges_after: BTreeSet<NodeId> = self.bridge_refs.keys().copied().collect();
        let role_changes: Vec<NodeId> = before
            .mis
            .symmetric_difference(&self.mis)
            .chain(before.bridges.symmetric_difference(&bridges_after))
            .copied()
            .filter(|u| {
                promoted.binary_search(u).is_err() && demoted.binary_search(u).is_err()
            })
            .collect::<BTreeSet<NodeId>>()
            .into_iter()
            .collect();
        let affected: Vec<NodeId> = seeds.to_vec();
        let locality_radius = if affected.is_empty() {
            None
        } else {
            let g = self.udg.graph();
            // stage one: how far the MIS cascade ran from the disturbed
            // edge endpoints (no flips → nothing to measure, no scan)
            let cascade = if flipped.is_empty() {
                None
            } else {
                let targets: BTreeSet<NodeId> = flipped.iter().copied().collect();
                let from_seeds = region::distances_to_targets(
                    g,
                    affected.iter().copied(),
                    &targets,
                    LOCALITY_SCAN_RADIUS,
                );
                flipped
                    .iter()
                    .map(|u| from_seeds.get(u).copied().unwrap_or(u32::MAX))
                    .max()
            };
            // stage two: how far dominator-status changes sit from the
            // disturbance including those flips (a flipped MIS node is
            // itself part of the disturbance the bridge layer sees)
            let status = if promoted.is_empty() && demoted.is_empty() && role_changes.is_empty()
            {
                None
            } else {
                let targets: BTreeSet<NodeId> = promoted
                    .iter()
                    .chain(&demoted)
                    .chain(&role_changes)
                    .copied()
                    .collect();
                let from_dirty = region::distances_to_targets(
                    g,
                    dirty.iter().copied(),
                    &targets,
                    LOCALITY_SCAN_RADIUS,
                );
                targets
                    .iter()
                    .map(|u| from_dirty.get(u).copied().unwrap_or(u32::MAX))
                    .max()
            };
            cascade.max(status)
        };
        let touched_nodes = ball.len();
        let touched_edges = ball.keys().map(|&u| self.udg.graph().degree(u)).sum();
        self.debug_check_against_global();
        RepairReport {
            affected,
            promoted,
            demoted,
            role_changes,
            locality_radius,
            edges_added,
            edges_removed,
            touched_nodes,
            touched_edges,
        }
    }

    /// Current dominator set: MIS ∪ referenced bridges.
    fn dominators(&self) -> BTreeSet<NodeId> {
        self.mis.iter().chain(self.bridge_refs.keys()).copied().collect()
    }

    fn baseline(&self) -> Baseline {
        Baseline {
            mis: self.mis.clone(),
            bridges: self.bridge_refs.keys().copied().collect(),
        }
    }

    /// Debug-build oracle: incremental state must equal a from-scratch
    /// Algorithm II run after every mutation.
    #[cfg(debug_assertions)]
    fn debug_check_against_global(&self) {
        let g = self.udg.graph();
        let fresh_mis = crate::mis::greedy_mis(g, crate::mis::RankingMode::StaticId);
        let mis: Vec<NodeId> = self.mis.iter().copied().collect();
        debug_assert_eq!(mis, fresh_mis, "cascade diverged from greedy MIS");
        let additional: Vec<NodeId> = self.bridge_refs.keys().copied().collect();
        debug_assert_eq!(
            additional,
            crate::algo2::select_additional_dominators(g, &fresh_mis),
            "bridge refcounts diverged from Algorithm II's selection"
        );
        let refs: BTreeMap<NodeId, u32> = self.contrib.values().flatten().fold(
            BTreeMap::new(),
            |mut acc, &b| {
                *acc.entry(b).or_insert(0) += 1;
                acc
            },
        );
        debug_assert_eq!(refs, self.bridge_refs, "refcounts out of sync with contributions");
    }

    #[cfg(not(debug_assertions))]
    fn debug_check_against_global(&self) {}
}

/// Drops one reference to bridge `b`, deleting the entry at zero.
fn release_bridge(refs: &mut BTreeMap<NodeId, u32>, b: NodeId) {
    let gone = match refs.get_mut(&b) {
        Some(c) => {
            *c -= 1;
            *c == 0
        }
        None => {
            debug_assert!(false, "released an unreferenced bridge {b}");
            false
        }
    };
    if gone {
        refs.remove(&b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcds_geom::{deploy, BoundingBox};
    use wcds_graph::domination;

    fn assert_valid(net: &MaintainedWcds) {
        let w = net.wcds();
        assert!(
            domination::is_independent_set(net.graph(), w.mis_dominators()),
            "MIS part lost independence"
        );
        assert!(
            domination::is_dominating_set(net.graph(), w.mis_dominators()),
            "MIS part lost domination"
        );
        // full weak connectivity is only defined when the network itself
        // is connected (motion can legitimately partition a UDG)
        if wcds_graph::traversal::is_connected(net.graph()) {
            assert!(w.is_valid(net.graph()), "invalid WCDS after repair: {w}");
        }
    }

    #[test]
    fn initial_construction_is_valid() {
        let net = MaintainedWcds::new(deploy::uniform(120, 5.0, 5.0, 2), 1.0);
        assert_valid(&net);
    }

    #[test]
    fn initial_construction_matches_algorithm_two() {
        let net = MaintainedWcds::new(deploy::uniform(140, 5.0, 5.0, 8), 1.0);
        let (mis, additional) =
            crate::algo2::AlgorithmTwo::new().construct_parts(net.graph());
        let w = net.wcds();
        assert_eq!(w.mis_dominators(), &mis[..]);
        assert_eq!(w.additional_dominators(), &additional[..]);
    }

    #[test]
    fn noop_motion_changes_nothing() {
        let mut net = MaintainedWcds::new(deploy::uniform(60, 4.0, 4.0, 3), 1.0);
        let before = net.wcds();
        let p0 = net.points()[0];
        let report = net.apply_motion(&[(0, p0)]);
        assert!(!report.changed());
        assert!(report.affected.is_empty());
        assert_eq!(report.touched_nodes, 0);
        assert!(report.edges_added.is_empty() && report.edges_removed.is_empty());
        assert_eq!(net.wcds(), before);
    }

    #[test]
    fn small_motions_keep_validity_over_a_trace() {
        let region = BoundingBox::with_size(5.0, 5.0);
        let mut net = MaintainedWcds::new(deploy::uniform(100, 5.0, 5.0, 4), 1.0);
        for step in 0..15 {
            let moved = deploy::perturb(net.points(), region, 0.15, step);
            let moves: Vec<(NodeId, Point)> = moved.iter().copied().enumerate().collect();
            net.apply_motion(&moves);
            assert_valid(&net);
        }
    }

    #[test]
    fn single_node_motion_has_local_repairs() {
        let mut net = MaintainedWcds::new(deploy::uniform(150, 6.0, 6.0, 5), 1.0);
        let mut max_radius = 0;
        for step in 0..20 {
            let u = (step * 7) % 150;
            let old = net.points()[u];
            let target = Point::new((old.x + 0.4).min(6.0), old.y);
            let report = net.apply_motion(&[(u, target)]);
            assert_valid(&net);
            if let Some(r) = report.locality_radius {
                max_radius = max_radius.max(r);
            }
            if report.affected.is_empty() {
                assert_eq!(report.touched_nodes, 0);
            } else {
                assert!(report.touched_nodes > 0);
                assert!(report.touched_nodes < 150, "repair touched the whole graph");
            }
        }
        // paper's claim: affected nodes are within three-hop distance;
        // bridge re-selection can ripple one hop further
        assert!(max_radius <= 4, "repair radius {max_radius} exceeds 3-hop locality (+1)");
    }

    #[test]
    fn join_in_empty_area_becomes_dominator() {
        // one far-away joiner must dominate itself
        let mut net = MaintainedWcds::new(deploy::uniform(50, 3.0, 3.0, 6), 1.0);
        let report = net.apply_join(Point::new(50.0, 50.0));
        assert!(report.promoted.contains(&50));
        let w = net.wcds();
        assert!(w.contains(50));
        assert!(domination::is_dominating_set(net.graph(), w.nodes()));
    }

    #[test]
    fn join_next_to_dominator_stays_gray() {
        let mut net = MaintainedWcds::new(deploy::chain(5, 0.9), 1.0);
        // MIS of the chain with index ids: {0, 2, 4}
        assert_eq!(net.wcds().mis_dominators(), &[0, 2, 4]);
        let p2 = net.points()[2];
        let report = net.apply_join(Point::new(p2.x + 0.1, p2.y));
        assert!(!report.promoted.contains(&5));
        assert_valid(&net);
    }

    #[test]
    fn leave_of_dominator_promotes_uncovered_neighbor() {
        let mut net = MaintainedWcds::new(deploy::chain(4, 0.9), 1.0);
        assert_eq!(net.wcds().mis_dominators(), &[0, 2]);
        // remove dominator 2; old node 3 (new id 2) is left isolated and
        // must promote itself
        let report = net.apply_leave(2);
        assert_valid(&net);
        assert!(report.promoted.contains(&2), "report: {report:?}");
        assert!(net.wcds().contains(2));
    }

    #[test]
    fn leave_of_gray_node_is_cheap() {
        let mut net = MaintainedWcds::new(deploy::chain(7, 0.9), 1.0);
        let report = net.apply_leave(1);
        assert_valid(&net);
        // old dominators 2,4,6 are now 1,3,5; node 0 keeps its status;
        // chain split is bridged by... 0 alone dominates 0; 1(old 2)
        // dominates old 3; set stays dominating, maybe unchanged
        assert!(report.demoted.is_empty() || net.wcds().is_valid(net.graph()));
    }

    #[test]
    fn churn_sequence_stays_valid() {
        let region = BoundingBox::with_size(4.0, 4.0);
        let mut net = MaintainedWcds::new(deploy::uniform(60, 4.0, 4.0, 7), 1.0);
        for step in 0u64..10 {
            match step % 3 {
                0 => {
                    let moved = deploy::perturb(net.points(), region, 0.2, 100 + step);
                    let moves: Vec<(NodeId, Point)> =
                        moved.iter().copied().enumerate().collect();
                    net.apply_motion(&moves);
                }
                1 => {
                    let _ = net.apply_join(Point::new(
                        (step as f64 * 0.37) % 4.0,
                        (step as f64 * 0.61) % 4.0,
                    ));
                }
                _ => {
                    let victim = (step as usize * 11) % net.graph().node_count();
                    let _ = net.apply_leave(victim);
                }
            }
            assert_valid(&net);
        }
    }

    #[test]
    fn touched_region_is_a_small_fraction_on_big_graphs() {
        let mut net = MaintainedWcds::new(deploy::uniform(800, 16.0, 16.0, 13), 1.0);
        let n = net.graph().node_count();
        for step in 0..10 {
            let u = (step * 67) % n;
            let old = net.points()[u];
            let target = Point::new((old.x + 0.5).min(16.0), old.y);
            let report = net.apply_motion(&[(u, target)]);
            assert!(
                report.touched_nodes * 4 < n,
                "step {step}: touched {} of {n} nodes",
                report.touched_nodes
            );
        }
    }
}

pub mod distributed;
