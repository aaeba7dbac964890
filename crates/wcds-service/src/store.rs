//! Epoch-cached topology store.
//!
//! Named topologies live in one name map behind an `RwLock`: a lookup
//! clones the entry's `Arc` under the read lock, and create/drop take
//! the write lock only to insert or remove. Each topology carries:
//!
//! * a **mutation epoch**: a per-topology atomic, 0 at ingest,
//!   advanced once per applied maintenance mutation (join / leave /
//!   move, executed by `wcds_core::maintenance::MaintainedWcds`) in
//!   commit order while the topology write lock is held;
//! * a **published artifact bundle** — Algorithm II WCDS, the
//!   weakly-induced spanner, clusterhead routing tables, and the
//!   backbone broadcast plan (itself derived only on the first
//!   broadcast query) — stamped with the epoch it was built at and
//!   kept in its own `RwLock`ed slot, apart from the topology lock,
//!   so readers never block on a repair.
//!
//! A query whose published bundle is stamped with the current epoch is
//! a **cache hit** and is served entirely from that bundle: it takes
//! the slot's read lock only to clone the `Arc`, and never the
//! topology lock, so it completes while a repair holds that lock
//! (`cache_hit_reads_complete_while_a_repair_holds_the_topology_lock`).
//! A stale stamp sends the query to the topology write lock, where it
//! double-checks the slot, rebuilds if still stale, and republishes.
//!
//! **The write rule.** The slot is written only while the topology
//! write lock is held: `Entry::publish` takes the write guard as its
//! witness. Every publish — rebuild, patch, harden, heal — therefore
//! happens in the same hold as the epoch it is stamped with, and a
//! mutation advances the epoch and publishes its patch in one hold, so
//! it linearizes at its epoch advance. With one writer at a time,
//! freshness is one comparison: the served bundle's own epoch against
//! one load of the epoch atomic (DESIGN.md §8.3a).
//!
//! Mutations serialize on the topology write lock: [`Store::mutate`]
//! and [`Store::mutate_batch`] validate and apply under one hold of
//! it, so a rejected batch applies nothing and the epoch order is the
//! commit order. A batch (a drift tick) coalesces each maximal run of
//! moves into a single `apply_motion` worklist pass (one cascade over
//! the union of the disturbed regions, refresh sweeps fanned out on
//! the parallel engine). Hit / miss / rebuild counters are atomics so
//! the read path never needs a write lock.

use crate::protocol::{ErrorCode, Mutation, TopologyStats};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use wcds_core::algo2::AlgorithmTwo;
use wcds_core::maintenance::{MaintainedWcds, RepairReport};
use wcds_core::resilient::{ResilientBackbone, ResilientParams};
use wcds_core::Wcds;
use wcds_geom::Point;
use wcds_graph::{io, traversal, Graph, NodeId};
use wcds_routing::{BackboneRouter, BroadcastPlan};

/// Unit-disk radius used when a payload carries positions.
pub const UDG_RADIUS: f64 = 1.0;

/// A store-level failure, carrying the wire error category.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreError {
    /// Machine-readable category (maps onto the wire protocol).
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for StoreError {}

fn err(code: ErrorCode, message: impl Into<String>) -> StoreError {
    StoreError { code, message: message.into() }
}

/// Acquires a read lock, mapping poisoning (a thread panicked while
/// holding the write lock, so the protected state may be torn) to a
/// typed `Internal` error instead of propagating the panic.
fn read_guard<T>(lock: &RwLock<T>) -> Result<RwLockReadGuard<'_, T>, StoreError> {
    lock.read().map_err(|_| err(ErrorCode::Internal, "lock poisoned by a panicked writer"))
}

/// Write-lock counterpart of [`read_guard`].
fn write_guard<T>(lock: &RwLock<T>) -> Result<RwLockWriteGuard<'_, T>, StoreError> {
    lock.write().map_err(|_| err(ErrorCode::Internal, "lock poisoned by a panicked writer"))
}

/// The cached artifact bundle: everything a query needs, derived from
/// one topology snapshot.
#[derive(Debug)]
pub struct Bundle {
    /// Epoch of the topology snapshot this bundle was built from.
    pub epoch: u64,
    /// The exact graph snapshot the bundle was built from (same
    /// epoch). When the bundle is fresh this *is* the live graph, so
    /// broadcast/stats can serve from it without touching the topology
    /// lock.
    pub graph: Arc<Graph>,
    /// The WCDS (Algorithm II construction, maintained under mutation).
    pub wcds: Wcds,
    /// The weakly-induced spanner.
    pub spanner: Graph,
    /// Clusterhead routing tables over the spanner.
    pub router: BackboneRouter,
    /// Whether a broadcast plan exists at this epoch (the topology is
    /// connected and the WCDS weakly valid) — mobility can legitimately
    /// partition a unit-disk graph. Checked eagerly; the plan itself is
    /// derived lazily (see [`Bundle::plan`]).
    broadcastable: bool,
    /// Present when the bundle holds a (k, m)-resilient backbone (the
    /// topology was hardened): `wcds` is then the merged multi-layer
    /// dominating set.
    pub resilient: Option<ResilientSummary>,
    /// Lazily derived broadcast plan, cached after the first use.
    plan: OnceLock<BroadcastPlan>,
}

/// Summary of the resilient construction backing a hardened bundle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResilientSummary {
    /// The (k, m) target the backbone was built for.
    pub params: ResilientParams,
    /// Core connectivity the construction actually achieved (≤ `k`;
    /// lower only when the host graph falls short).
    pub achieved_k: u32,
    /// Number of disjoint coverage layers.
    pub layers: u64,
    /// Connector dominators added for k-connectivity.
    pub connectors: u64,
}

impl Bundle {
    /// The backbone broadcast plan for this epoch, or `None` when the
    /// topology was disconnected (or the WCDS invalid) at build time.
    ///
    /// Derived from the bundle's own cached spanner on first call and
    /// memoized, so mutations and route/stats queries never pay for
    /// plan construction — only the first broadcast query after a
    /// topology change does. The result is identical to building the
    /// plan eagerly at bundle-construction time: the spanner and WCDS
    /// it derives from are this epoch's.
    pub fn plan(&self) -> Option<&BroadcastPlan> {
        self.broadcastable.then(|| {
            self.plan.get_or_init(|| BroadcastPlan::for_backbone(&self.spanner, &self.wcds))
        })
    }
}

/// Adjacency plus (for mobile topologies) the maintenance state.
#[derive(Debug)]
enum Body {
    /// Edge-only ingest: immutable, WCDS built from the graph alone.
    Static(Graph),
    /// Position-carrying ingest: mutable through §4.2 maintenance.
    Mobile(MaintainedWcds),
}

impl Body {
    fn graph(&self) -> &Graph {
        match self {
            Body::Static(g) => g,
            Body::Mobile(m) => m.graph(),
        }
    }

    fn wcds(&self) -> Wcds {
        match self {
            // same deterministic rule as MaintainedWcds::new, so static
            // and mobile topologies answer identically at epoch 0
            Body::Static(g) => {
                let (mis, additional) = AlgorithmTwo::new().construct_parts(g);
                Wcds::new(mis, additional)
            }
            Body::Mobile(m) => m.wcds(),
        }
    }
}

#[derive(Debug)]
struct Topology {
    body: Body,
    /// `Some` once the topology has been hardened: every bundle build
    /// then produces a (k, m)-resilient backbone instead of the plain
    /// Algorithm II construction.
    resilience: Option<ResilientParams>,
    /// Whether a `Leave` has been applied since the published bundle
    /// was built. A leave renames every id above the victim, so the
    /// stale bundle's id-keyed state is meaningless and degraded
    /// serving must not touch it. Written only under the topology
    /// write lock.
    leave_since_bundle: bool,
}

/// What a bundle build derives its dominating set from. Snapshotting
/// this (plus a graph copy) under the read lock lets the expensive
/// build itself run without holding any lock (see [`Store::heal`]).
enum ArtifactSource {
    /// The maintained / statically derived plain WCDS.
    Plain(Wcds),
    /// Rebuild the (k, m)-resilient backbone from scratch.
    Resilient(ResilientParams),
}

/// Builds the full artifact bundle for one topology snapshot, from
/// scratch (no reuse of any stale bundle). Free function on purpose:
/// callable with or without a lock held.
fn build_artifacts(g: &Graph, source: &ArtifactSource, epoch: u64) -> Arc<Bundle> {
    let (wcds, resilient) = match source {
        ArtifactSource::Plain(w) => (w.clone(), None),
        ArtifactSource::Resilient(params) => {
            let b = ResilientBackbone::construct(g, *params);
            let summary = ResilientSummary {
                params: *params,
                achieved_k: b.achieved_connectivity(),
                layers: b.layers().len() as u64,
                connectors: b.connectors().len() as u64,
            };
            (b.merged_wcds(), Some(summary))
        }
    };
    let router = BackboneRouter::build(g, &wcds);
    let spanner = router.spanner().clone();
    let broadcastable = traversal::is_connected(g) && wcds.is_valid(g);
    Arc::new(Bundle {
        epoch,
        graph: Arc::new(g.clone()),
        wcds,
        spanner,
        router,
        broadcastable,
        resilient,
        plan: OnceLock::new(),
    })
}

impl Topology {
    fn artifact_source(&self) -> ArtifactSource {
        match self.resilience {
            Some(params) => ArtifactSource::Resilient(params),
            None => ArtifactSource::Plain(self.body.wcds()),
        }
    }

    /// Builds the artifact bundle from the current snapshot, from
    /// scratch (no reuse of the stale bundle), stamped `epoch`.
    fn build_bundle(&self, epoch: u64) -> Arc<Bundle> {
        build_artifacts(self.body.graph(), &self.artifact_source(), epoch)
    }
}

/// One stored topology: maintained state behind its own `RwLock`, the
/// published bundle in a separate `RwLock`ed slot (so readers never
/// block on a repair), and counters outside both.
///
/// **Lock discipline:** the slot lock is a leaf — its guard is held
/// only to clone or swap the `Arc`, and nothing is acquired under it.
/// The one nesting is topology → slot: a writer holding the topology
/// write lock loads and publishes the slot. No code takes the topology
/// lock while holding the slot's, so the order is acyclic
/// (`wcds-analyze`'s lock-order analysis checks it).
#[derive(Debug)]
struct Entry {
    topo: RwLock<Topology>,
    /// Mutation epoch: 0 at ingest, advanced once per applied mutation
    /// (in commit order) while the topology write lock is held —
    /// so it is frozen under that lock, and lock-free to read.
    epoch: AtomicU64,
    /// The published artifact bundle. Written only through
    /// [`Entry::publish`], under the topology write lock; its guard is
    /// held only to clone or swap the `Arc`.
    published: RwLock<Option<Arc<Bundle>>>,
    /// Whether the topology ingested with positions (immutable after
    /// create; mirrored here so stats never needs the topology lock).
    mobile: bool,
    /// Hardening target mirrors (0 = not hardened), written under the
    /// topology write lock in `harden`, read lock-free by stats.
    hardened_k: AtomicU64,
    hardened_m: AtomicU64,
    /// Published-slot loads ([`Entry::load_published`]): every read
    /// that cloned the published bundle.
    snapshot_reads: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    rebuilds: AtomicU64,
    /// Routes served from a fresh bundle.
    routes_ok: AtomicU64,
    /// Routes served over a stale resilient backbone (degraded mode).
    routes_degraded: AtomicU64,
    /// Route queries answered `Degraded` (no surviving path).
    routes_unreachable: AtomicU64,
    /// Background heals that installed a fresh bundle.
    heals: AtomicU64,
    /// Guards against stacking heal threads: only one in flight.
    healing: AtomicBool,
    /// Mutations received through [`Store::mutate_batch`].
    batched_mutations: AtomicU64,
}

impl Entry {
    fn new(topo: Topology) -> Self {
        let mobile = matches!(topo.body, Body::Mobile(_));
        Self {
            topo: RwLock::new(topo),
            epoch: AtomicU64::new(0),
            published: RwLock::new(None),
            mobile,
            hardened_k: AtomicU64::new(0),
            hardened_m: AtomicU64::new(0),
            snapshot_reads: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            rebuilds: AtomicU64::new(0),
            routes_ok: AtomicU64::new(0),
            routes_degraded: AtomicU64::new(0),
            routes_unreachable: AtomicU64::new(0),
            heals: AtomicU64::new(0),
            healing: AtomicBool::new(false),
            batched_mutations: AtomicU64::new(0),
        }
    }

    /// Clones the published bundle out of its slot, counting the load.
    /// Every serving path goes through here, so the `snapshot_reads`
    /// statistic is engine-independent (both the worker pool and the
    /// event loop execute this same code). The slot only ever holds a
    /// whole `Option<Arc<Bundle>>`, so a poisoned guard is still sound
    /// to read.
    fn load_published(&self) -> Option<Arc<Bundle>> {
        self.snapshot_reads.fetch_add(1, Ordering::Relaxed);
        self.published.read().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// The freshness check every read shares: the published bundle when
    /// its own epoch equals one load of the epoch atomic, taken after
    /// the slot load. Publishes happen only under the topology write
    /// lock, so a match means the bundle was current at that load — an
    /// instant inside the caller's request.
    fn fresh(&self) -> Option<Arc<Bundle>> {
        self.load_published().filter(|b| b.epoch == self.epoch.load(Ordering::Acquire))
    }

    /// Counter-free form of [`Entry::fresh`]: peeks at the slot without
    /// cloning or counting.
    fn is_fresh(&self) -> bool {
        let slot = self.published.read().unwrap_or_else(PoisonError::into_inner);
        slot.as_ref().is_some_and(|b| b.epoch == self.epoch.load(Ordering::Acquire))
    }

    /// Installs `bundle` as the published bundle. The topology write
    /// guard is the witness that the caller holds this entry's write
    /// lock, so no publish can race another publish or an epoch
    /// advance. Returns the displaced bundle for the caller to drop
    /// after releasing the guard, so freeing a large router never
    /// lengthens the hold.
    fn publish(
        &self,
        _held: &RwLockWriteGuard<'_, Topology>,
        bundle: Arc<Bundle>,
    ) -> Option<Arc<Bundle>> {
        self.published.write().unwrap_or_else(PoisonError::into_inner).replace(bundle)
    }

    /// The bundle for the current epoch, plus whether it was a cache
    /// hit. A miss takes the topology write lock, which freezes the
    /// epoch, and double-checks the slot: a racing query may have
    /// published this epoch while this one waited. Only a slot still
    /// stale is rebuilt, so each epoch is rebuilt at most once.
    fn current(&self) -> Result<(Arc<Bundle>, bool), StoreError> {
        if let Some(b) = self.fresh() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((b, true));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut topo = write_guard(&self.topo)?;
        if let Some(b) = self.fresh() {
            return Ok((b, false));
        }
        self.rebuilds.fetch_add(1, Ordering::Relaxed);
        let bundle = topo.build_bundle(self.epoch.load(Ordering::Acquire));
        topo.leave_since_bundle = false;
        let displaced = self.publish(&topo, Arc::clone(&bundle));
        drop(topo);
        drop(displaced);
        Ok((bundle, false))
    }
}

/// Outcome of a route query: a served path, or an honest account of a
/// partitioned (sub)network instead of a generic error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteOutcome {
    /// A backbone route, inclusive of both endpoints; every hop is an
    /// edge of the **current** graph even in degraded mode.
    Path(Vec<NodeId>),
    /// No surviving path; `unreachable` counts the nodes the source
    /// cannot currently reach.
    Degraded {
        /// Nodes out of the source's reach.
        unreachable: u32,
    },
}

/// Outcome of a broadcast query (mirrors [`RouteOutcome`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BroadcastOutcome {
    /// The broadcast covered the source's component.
    Done {
        /// Retransmitting nodes.
        forwarders: u64,
        /// Nodes reached.
        informed: u64,
    },
    /// The topology is partitioned; no plan exists.
    Degraded {
        /// Nodes out of the source's reach.
        unreachable: u32,
    },
}

/// Summary returned by [`Store::harden`] (maps onto
/// `Response::Hardened`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HardenOutcome {
    /// Target connectivity.
    pub k: u64,
    /// Target coverage multiplicity.
    pub m: u64,
    /// Core connectivity actually achieved (≤ `k`).
    pub achieved_k: u64,
    /// Total dominator count of the resilient backbone.
    pub dominators: u64,
    /// Spanner edge count of the resilient backbone.
    pub spanner_edges: u64,
    /// Epoch the hardened bundle was built at.
    pub epoch: u64,
}

/// Summary returned by [`Store::mutate_batch`] (maps onto
/// `Response::BatchMutated`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Epoch after the whole batch: a batch of `applied` mutations
    /// returning epoch `e` occupied epochs `e − applied + 1 ..= e`.
    pub epoch: u64,
    /// Mutations applied (the full batch on success).
    pub applied: u64,
    /// Total dominator promotions across the batch's repairs.
    pub promoted: u64,
    /// Total dominator demotions across the batch's repairs.
    pub demoted: u64,
    /// Always 0, kept for wire compatibility: no admission queue exists,
    /// and time spent waiting for the topology lock is service time.
    pub lease_wait_us: u64,
}

/// Saturating `usize → u32` for unreachable-node counts.
fn narrow_count(n: usize) -> u32 {
    u32::try_from(n).unwrap_or(u32::MAX)
}

/// The "topology is static" rejection shared by every mutation path.
fn static_err(name: &str) -> StoreError {
    err(
        ErrorCode::Unsupported,
        format!("topology `{name}` is static (ingested without positions)"),
    )
}

fn oob_err(node: NodeId, n: usize) -> StoreError {
    err(ErrorCode::OutOfRange, format!("node {node} ≥ n = {n}"))
}

/// Rejects a `Move` or `Join` to a NaN or infinite coordinate before
/// it reaches the dynamic graph, which asserts finite positions while
/// the topology write lock is held.
fn check_finite(mutation: &Mutation) -> Result<(), StoreError> {
    match *mutation {
        Mutation::Join { x, y } | Mutation::Move { x, y, .. }
            if !(x.is_finite() && y.is_finite()) =>
        {
            Err(err(ErrorCode::BadPayload, format!("non-finite coordinate ({x}, {y})")))
        }
        _ => Ok(()),
    }
}

/// Checks every coordinate in a batch for finiteness and every id
/// against a running node count — a join adds a node, a leave removes
/// one — so each id means what it would mean in a serial replay of the
/// batch. The caller holds the topology write lock that applies the
/// batch, so a rejected batch applies nothing.
fn validate_batch(mutations: &[Mutation], mut n: usize) -> Result<(), StoreError> {
    for mu in mutations {
        check_finite(mu)?;
        match *mu {
            Mutation::Join { .. } => n += 1,
            Mutation::Leave { node } | Mutation::Move { node, .. } if node >= n => {
                return Err(oob_err(node, n));
            }
            Mutation::Leave { .. } => n -= 1,
            Mutation::Move { .. } => {}
        }
    }
    Ok(())
}

/// Splits a batch into maximal `Move` runs (each coalesced into one
/// repair) and single `Join` / `Leave` barriers (membership changes
/// alter the id space, so they serialize).
fn segments(mutations: &[Mutation]) -> Vec<&[Mutation]> {
    let mut out = Vec::new();
    let mut rest = mutations;
    while !rest.is_empty() {
        let run = rest.iter().take_while(|m| matches!(m, Mutation::Move { .. })).count();
        let take = run.max(1);
        let Some((seg, tail)) = rest.get(..take).zip(rest.get(take..)) else {
            break; // unreachable: take ≤ rest.len()
        };
        out.push(seg);
        rest = tail;
    }
    out
}

/// Splices a fresh bundle out of `prior` after a dominator-preserving
/// repair: WCDS carried over, router patched from the repair's net
/// edge delta, broadcast plan reset to its lazy unset state.
/// Byte-identical to a from-scratch build (release-asserted by the
/// store tests).
fn patch_bundle(g: &Graph, prior: &Bundle, report: &RepairReport, epoch: u64) -> Arc<Bundle> {
    let wcds = prior.wcds.clone();
    let router = prior.router.patched(g, &wcds, &report.edges_added, &report.edges_removed);
    let spanner = router.spanner().clone();
    let broadcastable = traversal::is_connected(g) && wcds.is_valid(g);
    Arc::new(Bundle {
        epoch,
        graph: Arc::new(g.clone()),
        wcds,
        spanner,
        router,
        broadcastable,
        resilient: None,
        plan: OnceLock::new(),
    })
}

/// Validates and applies one mutation under the topology write lock.
/// Returns the post-mutation epoch, the repair report, and the bundle
/// the mutation displaced from the published slot (for the caller to
/// drop once the lock is released).
///
/// The prior bundle is loaded inside the same hold that advances the
/// epoch, so it is exactly the published one. When the repair
/// preserved every dominator and that bundle was current, the patched
/// bundle is built first, then the epoch advances and the patch is
/// published in the same hold: no read can find the new epoch without
/// its patch once the hold ends.
fn apply_one(
    entry: &Entry,
    name: &str,
    mutation: &Mutation,
) -> Result<(u64, RepairReport, Option<Arc<Bundle>>), StoreError> {
    let mut topo = write_guard(&entry.topo)?;
    let prior = entry.load_published();
    let t = &mut *topo;
    let resilience = t.resilience;
    let n = t.body.graph().node_count();
    let Body::Mobile(m) = &mut t.body else {
        return Err(static_err(name));
    };
    check_finite(mutation)?;
    let report = match *mutation {
        Mutation::Join { x, y } => m.apply_join(Point::new(x, y)),
        Mutation::Leave { node } => {
            if node >= n {
                return Err(oob_err(node, n));
            }
            m.apply_leave(node)
        }
        Mutation::Move { node, x, y } => {
            if node >= n {
                return Err(oob_err(node, n));
            }
            m.apply_motion(&[(node, Point::new(x, y))])
        }
    };
    let epoch = entry.epoch.load(Ordering::Acquire) + 1;
    let is_leave = matches!(*mutation, Mutation::Leave { .. });
    if is_leave {
        t.leave_since_bundle = true;
    }
    // a leave renames every id above the victim, which would invalidate
    // all id-keyed router state — let it rebuild. Hardened bundles also
    // rebuild: a plain repair report says nothing about the upper
    // coverage layers or connectors.
    let patch = prior
        .filter(|b| {
            b.epoch + 1 == epoch && resilience.is_none() && !report.changed() && !is_leave
        })
        .map(|b| patch_bundle(t.body.graph(), &b, &report, epoch));
    entry.epoch.store(epoch, Ordering::Release);
    let displaced = patch.and_then(|b| entry.publish(&topo, b));
    Ok((epoch, report, displaced))
}

/// Validates a batch and applies it under one hold of the topology
/// write lock, walking its segments in order: each `Move` run is
/// coalesced into **one** `apply_motion` repair (one worklist pass over
/// the union of the run's disturbed regions); `Join` / `Leave`
/// segments apply singly. Maintains a running patched-bundle chain
/// (dropped on dominator churn, a leave, or a hardened topology) so a
/// quiet batch still leaves the cache hot.
///
/// The epoch advances once, after the last segment, and the chain is
/// published right after in the same hold, so the whole batch
/// linearizes at that advance. Returns the outcome and the displaced
/// bundle, as [`apply_one`] does.
fn apply_batch(
    entry: &Entry,
    name: &str,
    mutations: &[Mutation],
) -> Result<(BatchOutcome, Option<Arc<Bundle>>), StoreError> {
    let mut topo = write_guard(&entry.topo)?;
    let prior = entry.load_published();
    let t = &mut *topo;
    let resilience = t.resilience;
    let Body::Mobile(m) = &mut t.body else {
        return Err(static_err(name));
    };
    validate_batch(mutations, m.graph().node_count())?;
    let mut epoch = entry.epoch.load(Ordering::Acquire);
    // the chain invariant: `chain` is Some(b) only while b.epoch equals
    // the running epoch, i.e. the bundle is exactly current
    let mut chain = prior.filter(|b| b.epoch == epoch && resilience.is_none());
    let mut promoted = 0u64;
    let mut demoted = 0u64;
    let mut leave_seen = false;
    for seg in segments(mutations) {
        match seg.first() {
            Some(Mutation::Move { .. }) => {
                // the maintained state is a pure function of the final
                // positions (release-asserted against serial replay),
                // so the whole run coalesces into ONE worklist repair
                // over the union of its disturbed regions
                let moves: Vec<(NodeId, Point)> = seg
                    .iter()
                    .filter_map(|mu| match *mu {
                        Mutation::Move { node, x, y } => Some((node, Point::new(x, y))),
                        _ => None,
                    })
                    .collect();
                let report = m.apply_motion(&moves);
                epoch += moves.len() as u64;
                promoted += report.promoted.len() as u64;
                demoted += report.demoted.len() as u64;
                chain = chain
                    .filter(|_| !report.changed())
                    .map(|b| patch_bundle(m.graph(), &b, &report, epoch));
            }
            Some(&Mutation::Join { x, y }) => {
                let report = m.apply_join(Point::new(x, y));
                epoch += 1;
                promoted += report.promoted.len() as u64;
                demoted += report.demoted.len() as u64;
                chain = chain
                    .filter(|_| !report.changed())
                    .map(|b| patch_bundle(m.graph(), &b, &report, epoch));
            }
            Some(&Mutation::Leave { node }) => {
                let report = m.apply_leave(node);
                epoch += 1;
                promoted += report.promoted.len() as u64;
                demoted += report.demoted.len() as u64;
                leave_seen = true;
                chain = None; // id compaction invalidates id-keyed state
            }
            None => {}
        }
    }
    if leave_seen {
        t.leave_since_bundle = true;
    }
    entry.epoch.store(epoch, Ordering::Release);
    let displaced = chain.and_then(|b| entry.publish(&topo, b));
    let outcome = BatchOutcome {
        epoch,
        applied: mutations.len() as u64,
        promoted,
        demoted,
        lease_wait_us: 0,
    };
    Ok((outcome, displaced))
}

/// Serves a route over the **surviving backbone**: a BFS over the stale
/// resilient spanner restricted to edges the live graph still has, so
/// every hop of a returned path is valid *now*. Pure function of its
/// arguments — the caller holds (only) the topology read lock.
///
/// Nodes that joined after the bundle was built have no spanner entry;
/// they are served only by the direct-edge shortcut.
fn surviving_backbone_route(
    g: &Graph,
    bundle: &Bundle,
    from: NodeId,
    to: NodeId,
) -> RouteOutcome {
    if from == to {
        return RouteOutcome::Path(vec![from]);
    }
    if g.has_edge(from, to) {
        return RouteOutcome::Path(vec![from, to]);
    }
    let n = bundle.spanner.node_count();
    let mut parent: Vec<usize> = vec![usize::MAX; n];
    let mut queue = VecDeque::new();
    let mut reached = 0usize;
    if from < n {
        if let Some(p) = parent.get_mut(from) {
            *p = from;
        }
        queue.push_back(from);
        reached = 1;
    }
    while let Some(u) = queue.pop_front() {
        for v in bundle.spanner.adj(u) {
            // out-of-range defaults to 0 ≠ MAX, i.e. "already visited"
            if parent.get(v).copied().unwrap_or(0) != usize::MAX || !g.has_edge(u, v) {
                continue;
            }
            if let Some(p) = parent.get_mut(v) {
                *p = u;
            }
            reached += 1;
            if v == to {
                let mut path = vec![to];
                let mut cur = to;
                while cur != from {
                    cur = parent.get(cur).copied().unwrap_or(from);
                    path.push(cur);
                }
                path.reverse();
                return RouteOutcome::Path(path);
            }
            queue.push_back(v);
        }
    }
    RouteOutcome::Degraded { unreachable: narrow_count(g.node_count().saturating_sub(reached)) }
}

/// Checks both route endpoints against `g`'s node range.
fn check_nodes(g: &Graph, from: NodeId, to: NodeId) -> Result<(), StoreError> {
    let n = g.node_count();
    [from, to].into_iter().find(|&u| u >= n).map_or(Ok(()), |u| Err(oob_err(u, n)))
}

/// Serves a route wholly from `bundle`, which was current at some
/// instant of this request, so its node-id space (and its graph
/// snapshot) is the live one at that instant. Never takes the topology
/// lock.
fn route_over(
    entry: &Entry,
    bundle: &Bundle,
    from: NodeId,
    to: NodeId,
) -> Result<RouteOutcome, StoreError> {
    check_nodes(&bundle.graph, from, to)?;
    match bundle.router.route(from, to) {
        Some(path) => {
            entry.routes_ok.fetch_add(1, Ordering::Relaxed);
            Ok(RouteOutcome::Path(path))
        }
        None => {
            // the spanner preserves component structure, so its
            // component sizes are the graph's
            let reached = traversal::bfs_distances(&bundle.spanner, from)
                .iter()
                .filter(|d| d.is_some())
                .count();
            entry.routes_unreachable.fetch_add(1, Ordering::Relaxed);
            let n = bundle.graph.node_count();
            Ok(RouteOutcome::Degraded { unreachable: narrow_count(n.saturating_sub(reached)) })
        }
    }
}

/// Simulates a broadcast over `bundle` and its own graph snapshot.
fn broadcast_from(bundle: &Bundle, source: NodeId) -> Result<BroadcastOutcome, StoreError> {
    let g = &*bundle.graph;
    if source >= g.node_count() {
        return Err(oob_err(source, g.node_count()));
    }
    match bundle.plan() {
        Some(plan) => {
            let outcome = plan.simulate(g, source);
            let informed = g.node_count() - outcome.uncovered.len();
            Ok(BroadcastOutcome::Done {
                forwarders: plan.forwarder_count() as u64,
                informed: informed as u64,
            })
        }
        None => {
            let reached = traversal::bfs_distances(g, source)
                .iter()
                .filter(|d| d.is_some())
                .count();
            Ok(BroadcastOutcome::Degraded {
                unreachable: narrow_count(g.node_count() - reached),
            })
        }
    }
}

/// Serving-engine diagnostics, shared across every clone of one store
/// lineage and reported through `stats` (engine-level, not
/// per-topology). The readiness event loop writes these; the
/// worker-pool engine leaves them at zero.
#[derive(Debug, Default)]
pub struct ServiceCounters {
    /// Readiness-loop syscalls issued by the serving engine (epoll
    /// waits + ctls, reads, writes, accepts, waker nudges).
    pub syscalls: AtomicU64,
    /// Deepest request pipeline observed on one connection: complete
    /// frames decoded from a single readiness wake.
    pub pipeline_depth_max: AtomicU64,
}

/// The topology store. Cheap to clone (`Arc` inside); one instance is
/// shared by every server worker.
#[derive(Debug, Clone, Default)]
pub struct Store {
    topologies: Arc<RwLock<HashMap<String, Arc<Entry>>>>,
    service: Arc<ServiceCounters>,
}

impl Store {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The engine-level serving counters (shared by every clone).
    pub fn service(&self) -> &Arc<ServiceCounters> {
        &self.service
    }

    /// Counter-free freshness peek: `true` when `name` exists and its
    /// published bundle is stamped with the current epoch. The event
    /// loop uses this to decide whether a read can be answered inline
    /// on the loop thread; purely advisory — a racing mutation can
    /// stale the entry right after, and the full request path
    /// re-checks.
    pub fn is_fresh(&self, name: &str) -> bool {
        let entry = self.topologies.read().ok().and_then(|map| map.get(name).cloned());
        entry.is_some_and(|e| e.is_fresh())
    }

    fn entry(&self, name: &str) -> Result<Arc<Entry>, StoreError> {
        read_guard(&self.topologies)?
            .get(name)
            .cloned()
            .ok_or_else(|| err(ErrorCode::NotFound, format!("no topology `{name}`")))
    }

    /// Ingests a topology from `wcds_graph::io` text. Payloads with
    /// positions become mobile; edge-only payloads are static.
    ///
    /// # Errors
    ///
    /// `BadPayload` on unparsable text, `AlreadyExists` on a name
    /// collision.
    pub fn create(&self, name: &str, payload: &str) -> Result<(u64, u64, bool), StoreError> {
        let doc = io::from_text(payload)
            .map_err(|e| err(ErrorCode::BadPayload, format!("payload: {e}")))?;
        let body = match doc.points {
            Some(points) => Body::Mobile(MaintainedWcds::new(points, UDG_RADIUS)),
            None => Body::Static(doc.graph),
        };
        let (n, m) = (body.graph().node_count() as u64, body.graph().edge_count() as u64);
        let mobile = matches!(body, Body::Mobile(_));
        let entry = Arc::new(Entry::new(Topology {
            body,
            resilience: None,
            leave_since_bundle: false,
        }));
        // parsed and built above, outside the lock; a rejected entry is
        // dropped after the guard (locals drop in reverse order)
        let mut map = write_guard(&self.topologies)?;
        if map.contains_key(name) {
            return Err(err(ErrorCode::AlreadyExists, format!("topology `{name}` exists")));
        }
        map.insert(name.to_string(), entry);
        Ok((n, m, mobile))
    }

    /// The current topology as `wcds_graph::io` text (with positions
    /// when mobile).
    ///
    /// # Errors
    ///
    /// `NotFound` for an unknown name.
    pub fn export(&self, name: &str) -> Result<String, StoreError> {
        let entry = self.entry(name)?;
        let topo = read_guard(&entry.topo)?;
        Ok(match &topo.body {
            Body::Static(g) => io::to_text(g, None),
            Body::Mobile(m) => io::to_text(m.graph(), Some(m.points())),
        })
    }

    /// Returns the artifact bundle for the topology's **current**
    /// epoch, building it if the cached one is missing or stale, plus
    /// whether this call was a cache hit. The bundle's epoch equals the
    /// topology's epoch at some instant during the call, and concurrent
    /// callers on one stale epoch share a single rebuild.
    ///
    /// # Errors
    ///
    /// `NotFound` for an unknown name.
    pub fn bundle(&self, name: &str) -> Result<(Arc<Bundle>, bool), StoreError> {
        self.entry(name)?.current()
    }

    /// Applies one maintenance mutation, advancing the epoch.
    ///
    /// The mutation is validated and applied under the topology write
    /// lock, so mutations of one topology commit one at a time, in the
    /// order they win that lock; the returned epoch is the mutation's
    /// position in that order.
    ///
    /// When the repair left every dominator in place (the common case
    /// for small motions and absorbed joins) and the published bundle
    /// was current, the bundle is **patched**: the WCDS is carried
    /// over, the router is spliced through [`BackboneRouter::patched`]
    /// from the repair's net edge delta, and the broadcast plan resets
    /// to its lazy unset state. The patch is published in the same
    /// write-lock hold that advances the epoch, so the next query is a
    /// cache hit with artifacts byte-identical to a from-scratch
    /// rebuild, however reads interleave. Otherwise (dominator churn, a
    /// leave's id compaction, or an already-stale bundle) the published
    /// bundle is left in place and queries rebuild lazily on the epoch
    /// mismatch.
    ///
    /// # Errors
    ///
    /// `NotFound`, `Unsupported` (static topology), `OutOfRange`, or
    /// `BadPayload` (a non-finite coordinate).
    pub fn mutate(&self, name: &str, mutation: &Mutation) -> Result<(u64, RepairReport), StoreError> {
        let entry = self.entry(name)?;
        let (epoch, report, displaced) = apply_one(&entry, name, mutation)?;
        drop(displaced);
        Ok((epoch, report))
    }

    /// Applies a whole mutation batch (a drift tick) under **one** hold
    /// of the topology write lock, coalescing its repairs.
    ///
    /// The batch is validated under the same lock that applies it,
    /// before anything is applied — all-or-nothing, ids interpreted in
    /// batch order exactly as a serial replay would. Maximal `Move`
    /// runs are applied as **one** `apply_motion` call — a single
    /// cascade worklist pass over the union of the run's disturbed
    /// regions with the refresh sweeps fanned out on the parallel
    /// engine. (The maintained state is a pure function of the final
    /// positions, so one coalesced pass is byte-identical to serial
    /// application.) `Join` / `Leave` mutations are their own
    /// single-mutation barriers (they change the id space). The epoch
    /// advances by the batch's size in one step at the end of the
    /// hold, so a batch of `k` returning epoch `e` occupied epochs
    /// `e − k + 1 ..= e`, readers see either none of the batch or all
    /// of it, and the final state is byte-identical to applying the
    /// same mutations serially in that order.
    ///
    /// # Errors
    ///
    /// `NotFound`, `Unsupported` (static topology), `OutOfRange` (any
    /// invalid id in the batch), or `BadPayload` (any non-finite
    /// coordinate); a rejected batch applies nothing.
    pub fn mutate_batch(
        &self,
        name: &str,
        mutations: &[Mutation],
    ) -> Result<BatchOutcome, StoreError> {
        let entry = self.entry(name)?;
        entry.batched_mutations.fetch_add(mutations.len() as u64, Ordering::Relaxed);
        if mutations.is_empty() {
            return Ok(BatchOutcome {
                epoch: entry.epoch.load(Ordering::Acquire),
                applied: 0,
                promoted: 0,
                demoted: 0,
                lease_wait_us: 0,
            });
        }
        let (outcome, displaced) = apply_batch(&entry, name, mutations)?;
        drop(displaced);
        Ok(outcome)
    }

    /// Full statistics for one topology. Builds the bundle if stale, so
    /// the WCDS/spanner numbers always describe the current epoch;
    /// `cached` reports whether the bundle was already fresh.
    ///
    /// # Errors
    ///
    /// `NotFound` for an unknown name.
    pub fn stats(&self, name: &str) -> Result<TopologyStats, StoreError> {
        let entry = self.entry(name)?;
        let (bundle, cached) = entry.current()?;
        Ok(self.stats_for(&entry, &bundle, cached))
    }

    /// Assembles the stats row from a current-epoch bundle and the
    /// entry's atomic counters/mirrors.
    fn stats_for(&self, entry: &Entry, bundle: &Bundle, cached: bool) -> TopologyStats {
        TopologyStats {
            nodes: bundle.graph.node_count() as u64,
            edges: bundle.graph.edge_count() as u64,
            epoch: bundle.epoch,
            mobile: entry.mobile,
            cached,
            mis: bundle.wcds.mis_dominators().len() as u64,
            bridges: bundle.wcds.additional_dominators().len() as u64,
            spanner_edges: bundle.spanner.edge_count() as u64,
            cache_hits: entry.hits.load(Ordering::Relaxed),
            cache_misses: entry.misses.load(Ordering::Relaxed),
            rebuilds: entry.rebuilds.load(Ordering::Relaxed),
            hardened_k: entry.hardened_k.load(Ordering::Relaxed),
            hardened_m: entry.hardened_m.load(Ordering::Relaxed),
            achieved_k: bundle.resilient.map_or(0, |r| u64::from(r.achieved_k)),
            routes_ok: entry.routes_ok.load(Ordering::Relaxed),
            routes_degraded: entry.routes_degraded.load(Ordering::Relaxed),
            routes_unreachable: entry.routes_unreachable.load(Ordering::Relaxed),
            heals: entry.heals.load(Ordering::Relaxed),
            lease_waits: 0,
            lease_conflicts: 0,
            batched_mutations: entry.batched_mutations.load(Ordering::Relaxed),
            // every applied mutation advances the epoch, and repairs
            // run one at a time under the topology write lock
            concurrent_repairs_max: u64::from(bundle.epoch > 0),
            snapshot_reads: entry.snapshot_reads.load(Ordering::Relaxed),
            pipeline_depth_max: self.service.pipeline_depth_max.load(Ordering::Relaxed),
            syscalls: self.service.syscalls.load(Ordering::Relaxed),
        }
    }

    /// Upgrades the topology to a (k, m)-resilient backbone and builds
    /// the hardened bundle eagerly. From here on every rebuild — lazy,
    /// eager, or healing — reconstructs the resilient backbone, and
    /// stale-bundle route queries are served in **degraded mode** over
    /// the surviving layers instead of blocking on a rebuild.
    ///
    /// # Errors
    ///
    /// `NotFound` for an unknown name, `OutOfRange` for k or m outside
    /// `1..=wcds_core::resilient::MAX_FOLD`.
    pub fn harden(&self, name: &str, k: u64, m: u64) -> Result<HardenOutcome, StoreError> {
        let narrow = |v: u64| u32::try_from(v).unwrap_or(u32::MAX);
        let params = ResilientParams::new(narrow(k), narrow(m))
            .map_err(|e| err(ErrorCode::OutOfRange, e.to_string()))?;
        let entry = self.entry(name)?;
        let mut topo = write_guard(&entry.topo)?;
        topo.resilience = Some(params);
        // atomic stats mirrors, written under the same write lock
        // that guards `resilience` itself
        entry.hardened_k.store(u64::from(params.k), Ordering::Relaxed);
        entry.hardened_m.store(u64::from(params.m), Ordering::Relaxed);
        entry.rebuilds.fetch_add(1, Ordering::Relaxed);
        let bundle = topo.build_bundle(entry.epoch.load(Ordering::Acquire));
        topo.leave_since_bundle = false;
        // same-epoch replacement: the hardened bundle displaces the
        // plain one at the unchanged epoch
        let displaced = entry.publish(&topo, Arc::clone(&bundle));
        drop(topo);
        drop(displaced);
        match bundle.resilient {
            Some(s) => Ok(HardenOutcome {
                k: u64::from(params.k),
                m: u64::from(params.m),
                achieved_k: u64::from(s.achieved_k),
                dominators: (bundle.wcds.mis_dominators().len()
                    + bundle.wcds.additional_dominators().len()) as u64,
                spanner_edges: bundle.spanner.edge_count() as u64,
                epoch: bundle.epoch,
            }),
            None => Err(err(ErrorCode::Internal, "hardened bundle lost its summary")),
        }
    }

    /// Routes `from → to` over the cached backbone.
    ///
    /// Freshness tiers:
    ///
    /// * **fresh bundle** — routed from the cached tables (cache hit);
    /// * **stale bundle, hardened topology** — served **degraded**:
    ///   a BFS over the stale resilient spanner restricted to edges the
    ///   live graph still has. Runs entirely under the read lock (the
    ///   read path never rebuilds, never blocks on the write lock) and
    ///   kicks off a background heal;
    /// * **stale bundle, plain topology** — synchronous rebuild, as
    ///   before.
    ///
    /// An unreachable destination yields `Ok(RouteOutcome::Degraded)`
    /// (with the count of nodes out of the source's reach), not an
    /// error: a partitioned network is a state to report, not a request
    /// defect.
    ///
    /// # Errors
    ///
    /// `NotFound` or `OutOfRange`.
    pub fn route(
        &self,
        name: &str,
        from: NodeId,
        to: NodeId,
    ) -> Result<RouteOutcome, StoreError> {
        let entry = self.entry(name)?;
        if let Some(b) = entry.fresh() {
            // cache hit: served wholly from the bundle, no topology lock
            let outcome = route_over(&entry, &b, from, to)?;
            entry.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(outcome);
        }
        if let Some(outcome) = self.route_degraded(&entry, name, from, to)? {
            return Ok(outcome);
        }
        let (bundle, _) = entry.current()?;
        route_over(&entry, &bundle, from, to)
    }

    /// The degraded tier of [`Store::route`]: on a stale hardened
    /// topology with no leave since its bundle, routes over the
    /// surviving backbone under the topology read lock and kicks off a
    /// background heal. `None` sends the caller to the rebuild path.
    fn route_degraded(
        &self,
        entry: &Arc<Entry>,
        name: &str,
        from: NodeId,
        to: NodeId,
    ) -> Result<Option<RouteOutcome>, StoreError> {
        let outcome = {
            let topo = read_guard(&entry.topo)?;
            let g = topo.body.graph();
            check_nodes(g, from, to)?;
            if topo.resilience.is_none() || topo.leave_since_bundle {
                return Ok(None);
            }
            // the slot and the epoch are frozen under the topology
            // lock; a clear leave_since_bundle vouches for the id space
            // of the bundle published now
            match entry.load_published() {
                Some(b) if b.epoch != entry.epoch.load(Ordering::Acquire) => {
                    surviving_backbone_route(g, &b, from, to)
                }
                _ => return Ok(None),
            }
        };
        let counter = match outcome {
            RouteOutcome::Path(_) => &entry.routes_degraded,
            RouteOutcome::Degraded { .. } => &entry.routes_unreachable,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        self.spawn_heal(entry, name);
        Ok(Some(outcome))
    }

    /// Simulates a backbone broadcast from `source`.
    ///
    /// A partitioned topology yields
    /// `Ok(BroadcastOutcome::Degraded { unreachable })` — the number of
    /// nodes outside the source's component — instead of the old
    /// generic `Unsupported` "is partitioned" error.
    ///
    /// # Errors
    ///
    /// `NotFound` or `OutOfRange`.
    pub fn broadcast(
        &self,
        name: &str,
        source: NodeId,
    ) -> Result<BroadcastOutcome, StoreError> {
        let (bundle, _) = self.entry(name)?.current()?;
        broadcast_from(&bundle, source)
    }

    /// Spawns (at most one) background heal thread for `entry`.
    fn spawn_heal(&self, entry: &Arc<Entry>, name: &str) {
        if entry
            .healing
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return; // a heal is already in flight
        }
        let store = self.clone();
        let entry = Arc::clone(entry);
        let name = name.to_string();
        std::thread::spawn(move || {
            if store.heal(&name).unwrap_or(false) {
                entry.heals.fetch_add(1, Ordering::Relaxed);
            }
            entry.healing.store(false, Ordering::Release);
        });
    }

    /// One healing pass: snapshot the topology under the read lock,
    /// build fresh artifacts **outside any lock**, then install them
    /// under the write lock only if the epoch is unchanged and the slot
    /// is still stale — a read may have rebuilt this epoch during the
    /// off-lock build, and installing again would rebuild it twice.
    /// Retries a bounded number of times under sustained mutation
    /// pressure; reads keep degrading meanwhile.
    ///
    /// Returns whether a fresh bundle was installed.
    ///
    /// # Errors
    ///
    /// `NotFound` if the topology was dropped mid-heal, `Internal` on a
    /// poisoned lock.
    pub fn heal(&self, name: &str) -> Result<bool, StoreError> {
        for _ in 0..3 {
            let entry = self.entry(name)?;
            let (epoch, graph, source) = {
                let topo = read_guard(&entry.topo)?;
                // the slot and the epoch are frozen here: both change
                // only under the topology *write* lock
                if entry.is_fresh() {
                    return Ok(false); // someone else already rebuilt
                }
                (
                    entry.epoch.load(Ordering::Acquire),
                    topo.body.graph().clone(),
                    topo.artifact_source(),
                )
            };
            let bundle = build_artifacts(&graph, &source, epoch);
            let mut topo = write_guard(&entry.topo)?;
            if entry.is_fresh() {
                return Ok(false);
            }
            if entry.epoch.load(Ordering::Acquire) == epoch {
                entry.rebuilds.fetch_add(1, Ordering::Relaxed);
                topo.leave_since_bundle = false;
                let displaced = entry.publish(&topo, bundle);
                drop(topo);
                drop(displaced);
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Sorted names of all stored topologies.
    ///
    /// # Errors
    ///
    /// `Internal` on a poisoned name-map lock.
    pub fn list(&self) -> Result<Vec<String>, StoreError> {
        let mut names: Vec<String> = read_guard(&self.topologies)?.keys().cloned().collect();
        names.sort();
        Ok(names)
    }

    /// Removes a topology.
    ///
    /// # Errors
    ///
    /// `NotFound` for an unknown name.
    pub fn drop_topology(&self, name: &str) -> Result<(), StoreError> {
        let removed = write_guard(&self.topologies)?.remove(name);
        // the map guard died with the statement above, so a last
        // reference to the entry is freed outside the lock
        removed
            .map(drop)
            .ok_or_else(|| err(ErrorCode::NotFound, format!("no topology `{name}`")))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use wcds_geom::deploy;
    use wcds_graph::UnitDiskGraph;

    fn payload(n: usize, side: f64, seed: u64) -> String {
        let udg = UnitDiskGraph::build(deploy::uniform(n, side, side, seed), UDG_RADIUS);
        io::to_text(udg.graph(), Some(udg.points()))
    }

    #[test]
    fn create_query_drop_lifecycle() {
        let store = Store::new();
        let (n, m, mobile) = store.create("a", &payload(60, 4.0, 1)).unwrap();
        assert_eq!(n, 60);
        assert!(m > 0);
        assert!(mobile);
        assert_eq!(store.list().unwrap(), vec!["a".to_string()]);
        assert_eq!(store.create("a", &payload(10, 3.0, 2)).unwrap_err().code, ErrorCode::AlreadyExists);
        let stats = store.stats("a").unwrap();
        assert_eq!(stats.epoch, 0);
        assert!(!stats.cached, "first stats call builds the bundle");
        assert!(store.stats("a").unwrap().cached, "second call hits");
        store.drop_topology("a").unwrap();
        assert_eq!(store.stats("a").unwrap_err().code, ErrorCode::NotFound);
        assert_eq!(store.drop_topology("a").unwrap_err().code, ErrorCode::NotFound);
    }

    #[test]
    fn static_topologies_reject_mutation() {
        let store = Store::new();
        store.create("s", "nodes 3\nedge 0 1\nedge 1 2\n").unwrap();
        assert!(!store.stats("s").unwrap().mobile);
        let e = store.mutate("s", &Mutation::Join { x: 0.0, y: 0.0 }).unwrap_err();
        assert_eq!(e.code, ErrorCode::Unsupported);
        // queries still work
        assert_eq!(store.route("s", 0, 2).unwrap(), RouteOutcome::Path(vec![0, 1, 2]));
    }

    #[test]
    fn bad_payload_and_range_errors() {
        let store = Store::new();
        assert_eq!(store.create("x", "bogus 1\n").unwrap_err().code, ErrorCode::BadPayload);
        store.create("x", &payload(30, 3.0, 4)).unwrap();
        assert_eq!(store.route("x", 0, 999).unwrap_err().code, ErrorCode::OutOfRange);
        assert_eq!(
            store.mutate("x", &Mutation::Leave { node: 999 }).unwrap_err().code,
            ErrorCode::OutOfRange
        );
        assert_eq!(
            store.broadcast("x", 999).unwrap_err().code,
            ErrorCode::OutOfRange
        );
    }

    /// Satellite: interleave mutations with cached route queries; every
    /// post-mutation response must equal a from-scratch rebuild
    /// byte-for-byte, and no rebuild may happen between mutations.
    #[test]
    fn epoch_invalidation_matches_from_scratch_rebuild() {
        let store = Store::new();
        let initial = payload(80, 4.0, 7);
        store.create("net", &initial).unwrap();

        // the from-scratch oracle replays the same mutation log through
        // a private MaintainedWcds, fully outside the store and its
        // cache, and rebuilds fresh artifacts at every step
        let doc = io::from_text(&initial).unwrap();
        let mut oracle = MaintainedWcds::new(doc.points.expect("mobile payload"), UDG_RADIUS);

        let mutations = [
            Mutation::Join { x: 2.0, y: 2.0 },
            Mutation::Move { node: 5, x: 1.0, y: 1.0 },
            Mutation::Leave { node: 11 },
            Mutation::Join { x: 0.5, y: 3.5 },
            Mutation::Move { node: 40, x: 3.9, y: 0.1 },
        ];
        let pairs: &[(NodeId, NodeId)] = &[(0, 70), (3, 55), (12, 66), (7, 33)];

        for (step, mutation) in mutations.iter().enumerate() {
            let (epoch, _) = store.mutate("net", mutation).unwrap();
            assert_eq!(epoch, step as u64 + 1);
            match *mutation {
                Mutation::Join { x, y } => {
                    oracle.apply_join(Point::new(x, y));
                }
                Mutation::Leave { node } => {
                    oracle.apply_leave(node);
                }
                Mutation::Move { node, x, y } => {
                    oracle.apply_motion(&[(node, Point::new(x, y))]);
                }
            }

            // (a) byte-for-byte: exported topology and served routes
            // equal the from-scratch rebuild
            assert_eq!(
                store.export("net").unwrap(),
                io::to_text(oracle.graph(), Some(oracle.points())),
                "step {step}: topology diverged from replay"
            );
            let oracle_router = BackboneRouter::build(oracle.graph(), &oracle.wcds());
            let before = store.stats("net").unwrap().rebuilds;
            for &(s, t) in pairs {
                let n = oracle.graph().node_count();
                if s >= n || t >= n {
                    continue;
                }
                let served = match store.route("net", s, t) {
                    Ok(RouteOutcome::Path(p)) => Some(p),
                    _ => None,
                };
                let fresh = oracle_router.route(s, t);
                assert_eq!(served, fresh, "step {step}: route {s}→{t} diverged from rebuild");
            }

            // (b) exactly one rebuild per mutation (triggered by the
            // stats call above), then pure cache hits
            let after = store.stats("net").unwrap();
            assert!(
                after.rebuilds <= before + 1,
                "step {step}: {} rebuilds for one mutation",
                after.rebuilds - before
            );
            let r0 = after.rebuilds;
            for &(s, t) in pairs {
                let _ = store.route("net", s, t);
            }
            assert_eq!(
                store.stats("net").unwrap().rebuilds,
                r0,
                "step {step}: rebuild occurred with no intervening mutation"
            );
        }
        let final_stats = store.stats("net").unwrap();
        assert_eq!(final_stats.epoch, mutations.len() as u64);
        assert!(final_stats.cache_hits > 0);
    }

    /// Tentpole: mutations that leave the dominator set intact must
    /// patch the cached bundle in place — no rebuild ever fires, the
    /// next query is a cache hit, and every patched artifact (WCDS,
    /// router, spanner, broadcast plan) is byte-identical to a
    /// from-scratch build on the post-mutation graph.
    #[test]
    fn stable_backbone_mutations_patch_without_rebuild() {
        let store = Store::new();
        let initial = payload(80, 4.0, 7);
        store.create("net", &initial).unwrap();
        let doc = io::from_text(&initial).unwrap();
        let mut oracle = MaintainedWcds::new(doc.points.expect("mobile payload"), UDG_RADIUS);

        // warm the cache
        let mut expected_rebuilds = 1;
        assert_eq!(store.stats("net").unwrap().rebuilds, expected_rebuilds);

        let mut patched = 0;
        for u in 0..oracle.graph().node_count() {
            // a tiny nudge: usually disturbs no edges, and almost never
            // the dominator set
            let p = oracle.points()[u];
            let q = Point::new((p.x + 0.02).min(4.0), p.y);
            let report = oracle.apply_motion(&[(u, q)]);
            store.mutate("net", &Mutation::Move { node: u, x: q.x, y: q.y }).unwrap();

            let stats = store.stats("net").unwrap();
            if report.changed() {
                // dominator churn: lazy rebuild path (the stats call
                // above performed it)
                expected_rebuilds += 1;
                assert_eq!(stats.rebuilds, expected_rebuilds, "move {u}: rebuild miscount");
                continue;
            }
            patched += 1;
            assert!(stats.cached, "move {u}: patched bundle should be a cache hit");
            assert_eq!(stats.rebuilds, expected_rebuilds, "move {u}: patch must not rebuild");

            // byte-identical to from-scratch artifacts
            let (bundle, hit) = store.bundle("net").unwrap();
            assert!(hit);
            let g = oracle.graph();
            let wcds = oracle.wcds();
            assert_eq!(bundle.wcds, wcds, "move {u}: WCDS diverged");
            assert_eq!(bundle.spanner, wcds.weakly_induced_subgraph(g), "move {u}: spanner");
            assert_eq!(bundle.router, BackboneRouter::build(g, &wcds), "move {u}: router");
            let fresh_plan = (traversal::is_connected(g) && wcds.is_valid(g))
                .then(|| BroadcastPlan::for_wcds(g, &wcds));
            assert_eq!(bundle.plan(), fresh_plan.as_ref(), "move {u}: broadcast plan");
        }
        assert!(patched >= 40, "only {patched} patched mutations — trace too churny");

        // joins absorbed by an existing dominator also patch
        let before = store.stats("net").unwrap().rebuilds;
        let mut join_patches = 0;
        for i in 0..10 {
            let target = oracle.points()[i * 7 % oracle.graph().node_count()];
            let q = Point::new((target.x + 0.05).min(4.0), target.y);
            let report = oracle.apply_join(q);
            store.mutate("net", &Mutation::Join { x: q.x, y: q.y }).unwrap();
            if !report.changed() {
                join_patches += 1;
                let (bundle, hit) = store.bundle("net").unwrap();
                assert!(hit, "join {i}: patched bundle should hit");
                assert_eq!(bundle.wcds, oracle.wcds(), "join {i}: WCDS diverged");
                assert_eq!(
                    bundle.router,
                    BackboneRouter::build(oracle.graph(), &oracle.wcds()),
                    "join {i}: router"
                );
            } else {
                let _ = store.stats("net").unwrap();
            }
        }
        assert!(join_patches >= 5, "only {join_patches} absorbed joins");
        // leaves always take the lazy-rebuild path (id compaction)
        oracle.apply_leave(0);
        store.mutate("net", &Mutation::Leave { node: 0 }).unwrap();
        let stats = store.stats("net").unwrap();
        assert!(!stats.cached || stats.rebuilds > before, "leave must not patch");
        assert_eq!(
            store.export("net").unwrap(),
            io::to_text(oracle.graph(), Some(oracle.points()))
        );
    }

    /// The maintained WCDS after a mutation sequence equals what a
    /// serial replay of the same log produces (single-threaded sanity
    /// half of the concurrency satellite; the threaded version lives in
    /// the server tests).
    #[test]
    fn export_replay_reproduces_state() {
        let store = Store::new();
        let initial = payload(50, 3.5, 9);
        store.create("net", &initial).unwrap();
        let log = [
            Mutation::Join { x: 1.0, y: 2.0 },
            Mutation::Leave { node: 3 },
            Mutation::Move { node: 20, x: 0.2, y: 0.3 },
        ];
        for m in &log {
            store.mutate("net", m).unwrap();
        }
        let doc = io::from_text(&initial).unwrap();
        let mut replay = MaintainedWcds::new(doc.points.unwrap(), UDG_RADIUS);
        for m in &log {
            match *m {
                Mutation::Join { x, y } => {
                    replay.apply_join(Point::new(x, y));
                }
                Mutation::Leave { node } => {
                    replay.apply_leave(node);
                }
                Mutation::Move { node, x, y } => {
                    replay.apply_motion(&[(node, Point::new(x, y))]);
                }
            }
        }
        assert_eq!(
            store.export("net").unwrap(),
            io::to_text(replay.graph(), Some(replay.points()))
        );
    }

    /// Satellite: a partitioned topology answers route/broadcast with a
    /// typed `Degraded { unreachable }` outcome, not a generic error.
    #[test]
    fn partitioned_topologies_report_reach_deficit() {
        let store = Store::new();
        // two components: {0, 1} and {2, 3, 4}
        store.create("p", "nodes 5\nedge 0 1\nedge 2 3\nedge 3 4\n").unwrap();
        assert_eq!(
            store.broadcast("p", 0).unwrap(),
            BroadcastOutcome::Degraded { unreachable: 3 }
        );
        assert_eq!(
            store.broadcast("p", 2).unwrap(),
            BroadcastOutcome::Degraded { unreachable: 2 }
        );
        assert_eq!(
            store.route("p", 0, 3).unwrap(),
            RouteOutcome::Degraded { unreachable: 3 }
        );
        // same-component routes still work
        assert_eq!(store.route("p", 2, 4).unwrap(), RouteOutcome::Path(vec![2, 3, 4]));
        let stats = store.stats("p").unwrap();
        assert_eq!(stats.routes_unreachable, 1);
        assert_eq!(stats.routes_ok, 1);
    }

    #[test]
    fn harden_validates_params() {
        let store = Store::new();
        store.create("h", &payload(40, 3.5, 2)).unwrap();
        assert_eq!(store.harden("h", 0, 1).unwrap_err().code, ErrorCode::OutOfRange);
        assert_eq!(store.harden("h", 1, 9).unwrap_err().code, ErrorCode::OutOfRange);
        assert_eq!(store.harden("missing", 2, 2).unwrap_err().code, ErrorCode::NotFound);
        let out = store.harden("h", 2, 2).unwrap();
        assert_eq!((out.k, out.m), (2, 2));
        assert!(out.achieved_k >= 1 && out.achieved_k <= 2);
        assert!(out.dominators > 0);
    }

    /// Tentpole (service layer): hardening swaps the bundle to the
    /// merged resilient backbone; killing a dominator is then served in
    /// degraded mode under the read lock, and an explicit heal restores
    /// artifacts byte-identical to a from-scratch resilient build.
    #[test]
    fn hardened_topology_serves_degraded_and_heals() {
        let store = Store::new();
        let initial = payload(80, 4.0, 7);
        store.create("net", &initial).unwrap();
        let plain_stats = store.stats("net").unwrap();
        let out = store.harden("net", 2, 2).unwrap();
        assert!(
            out.dominators > plain_stats.mis + plain_stats.bridges,
            "a (2,2) backbone must be strictly larger than the plain WCDS"
        );
        let stats = store.stats("net").unwrap();
        assert!(stats.cached, "harden builds eagerly; stats must hit");
        assert_eq!((stats.hardened_k, stats.hardened_m), (2, 2));
        assert_eq!(stats.achieved_k, out.achieved_k);

        // fresh routes come off the hardened tables
        let RouteOutcome::Path(_) = store.route("net", 0, 70).unwrap() else {
            panic!("fresh hardened route failed");
        };

        // kill a dominator: move it out of radio range of everyone
        let (bundle, _) = store.bundle("net").unwrap();
        let dead = bundle.wcds.mis_dominators()[0];
        store
            .mutate("net", &Mutation::Move { node: dead, x: 1000.0, y: 1000.0 })
            .unwrap();

        // stale + hardened ⇒ degraded serving off the old bundle. The
        // background heal races the later route calls, so only the
        // *first* post-kill route is deterministically degraded; later
        // ones may already be fresh (both are valid service).
        let doc = io::from_text(&store.export("net").unwrap()).unwrap();
        let g = doc.graph;
        let mut served = 0;
        let mut first_seen = false;
        for (s, t) in [(0, 70), (3, 55), (12, 66), (7, 33)] {
            if s == dead || t == dead {
                continue;
            }
            match store.route("net", s, t).unwrap() {
                RouteOutcome::Path(path) => {
                    served += 1;
                    assert_eq!(path.first(), Some(&s));
                    assert_eq!(path.last(), Some(&t));
                    for w in path.windows(2) {
                        assert!(
                            g.has_edge(w[0], w[1]),
                            "degraded hop {}→{} is not a live edge",
                            w[0],
                            w[1]
                        );
                    }
                }
                RouteOutcome::Degraded { unreachable } => {
                    // the dead node itself is out of reach
                    assert!(unreachable >= 1);
                }
            }
            if !first_seen {
                first_seen = true;
                let entry = store.entry("net").unwrap();
                let degraded = entry.routes_degraded.load(Ordering::Relaxed)
                    + entry.routes_unreachable.load(Ordering::Relaxed);
                assert!(
                    degraded >= 1,
                    "first post-kill route must be served degraded, not rebuilt inline"
                );
            }
        }
        assert!(served >= 3, "only {served} post-kill routes served");

        // an explicit heal installs artifacts byte-identical to a
        // from-scratch resilient build on the live graph
        while store.heal("net").unwrap() {}
        let (healed, hit) = store.bundle("net").unwrap();
        assert!(hit, "healed bundle must be fresh");
        let oracle = ResilientBackbone::construct(&g, ResilientParams::new(2, 2).unwrap());
        assert_eq!(healed.wcds, oracle.merged_wcds(), "healed WCDS diverged from oracle");
        assert_eq!(
            healed.router,
            BackboneRouter::build(&g, &oracle.merged_wcds()),
            "healed router diverged from oracle"
        );
    }

    /// Readers never wait for a repair: with another thread holding
    /// the topology write lock (as a mutation does while it repairs),
    /// a cache-hit route, broadcast, stats and bundle all complete.
    /// A blocked reader fails the test on the timeout instead of
    /// hanging it.
    #[test]
    fn cache_hit_reads_complete_while_a_repair_holds_the_topology_lock() {
        use std::sync::mpsc;
        use std::time::Duration;

        let store = Store::new();
        store.create("z", &payload(60, 4.0, 3)).unwrap();
        // first stats call takes the miss path and publishes the bundle
        let warm = store.stats("z").unwrap();
        assert!(!warm.cached);
        let entry = store.entry("z").unwrap();
        let repair = entry.topo.write().unwrap();

        let (tx, rx) = mpsc::channel();
        let reader = store.clone();
        let handle = std::thread::spawn(move || {
            let stats = reader.stats("z").unwrap();
            let route = reader.route("z", 0, 59).unwrap();
            let broadcast = reader.broadcast("z", 0).unwrap();
            let (_, hit) = reader.bundle("z").unwrap();
            tx.send((stats, route, broadcast, hit)).unwrap();
        });
        let served = rx.recv_timeout(Duration::from_secs(20));
        drop(repair);
        handle.join().unwrap();
        let (stats, route, broadcast, hit) =
            served.expect("a cache-hit read blocked behind the topology write lock");
        assert!(stats.cached && hit, "the reads must be cache hits");
        assert!(matches!(route, RouteOutcome::Path(_) | RouteOutcome::Degraded { .. }));
        assert!(matches!(
            broadcast,
            BroadcastOutcome::Done { .. } | BroadcastOutcome::Degraded { .. }
        ));
        // every hit cloned the published bundle out of its slot
        assert!(store.stats("z").unwrap().snapshot_reads >= warm.snapshot_reads + 4);
    }

    /// The nudge trace of `stable_backbone_mutations_patch_without_rebuild`
    /// (every node moved 0.02 units along x), run forth, back and forth
    /// again, `per_call` moves per store call, while a reader thread
    /// calls `Store::bundle` in a loop. The store may rebuild only for
    /// the warm-up and once per call with dominator churn, and every
    /// bundle served must be stamped between the epochs loaded just
    /// before and just after its call.
    fn nudge_trace_beside_a_hot_reader(per_call: usize) {
        use std::sync::atomic::AtomicBool;

        let store = Store::new();
        let initial = payload(80, 4.0, 7);
        store.create("net", &initial).unwrap();
        let doc = io::from_text(&initial).unwrap();
        let mut oracle = MaintainedWcds::new(doc.points.expect("mobile payload"), UDG_RADIUS);
        store.bundle("net").unwrap();
        let entry = store.entry("net").unwrap();

        let done = Arc::new(AtomicBool::new(false));
        let reader = {
            let (store, entry, done) = (store.clone(), Arc::clone(&entry), Arc::clone(&done));
            std::thread::spawn(move || {
                let mut calls = 0u64;
                while !done.load(Ordering::Acquire) {
                    let before = entry.epoch.load(Ordering::Acquire);
                    let (bundle, _) = store.bundle("net").unwrap();
                    let after = entry.epoch.load(Ordering::Acquire);
                    assert!(
                        (before..=after).contains(&bundle.epoch),
                        "served epoch {} outside [{before}, {after}]",
                        bundle.epoch
                    );
                    calls += 1;
                }
                calls
            })
        };

        let mut churned = 0u64;
        let mut store_calls = 0u64;
        for dx in [0.02, -0.02, 0.02] {
            let moves: Vec<Mutation> = oracle
                .points()
                .iter()
                .enumerate()
                .map(|(node, p)| Mutation::Move { node, x: (p.x + dx).clamp(0.0, 4.0), y: p.y })
                .collect();
            for chunk in moves.chunks(per_call) {
                store_calls += 1;
                let motion: Vec<(NodeId, Point)> = chunk
                    .iter()
                    .filter_map(|mu| match *mu {
                        Mutation::Move { node, x, y } => Some((node, Point::new(x, y))),
                        _ => None,
                    })
                    .collect();
                churned += u64::from(oracle.apply_motion(&motion).changed());
                match chunk {
                    [one] => {
                        store.mutate("net", one).unwrap();
                    }
                    _ => {
                        store.mutate_batch("net", chunk).unwrap();
                    }
                }
                // let a reader queued on the write lock in before the
                // next call: the interleaving in which a mutation could
                // see a bundle published since it last looked
                std::thread::yield_now();
            }
        }
        done.store(true, Ordering::Release);
        let calls = reader.join().unwrap();
        let rebuilds = entry.rebuilds.load(Ordering::Relaxed);
        assert!(
            rebuilds <= 1 + churned,
            "{rebuilds} rebuilds for {churned} churned of {store_calls} store calls \
             ({calls} reads)"
        );
        assert!(churned * 2 < store_calls, "trace too churny: {churned} of {store_calls}");
        let (bundle, _) = store.bundle("net").unwrap();
        assert_eq!(bundle.wcds, oracle.wcds());
        assert_eq!(bundle.router, BackboneRouter::build(oracle.graph(), &oracle.wcds()));
    }

    /// A hot reader must not turn patchable mutations into rebuilds:
    /// the prior bundle is loaded, and the patch published, in the
    /// write-lock hold that advances the epoch.
    #[test]
    fn a_hot_reader_leaves_patchable_mutations_patching() {
        nudge_trace_beside_a_hot_reader(1);
    }

    /// The batch form of the hot-reader trace: two moves per
    /// `mutate_batch` call.
    #[test]
    fn a_hot_reader_leaves_patchable_batches_patching() {
        nudge_trace_beside_a_hot_reader(2);
    }

    /// The double check: eight readers released together on a stale
    /// bundle queue on the write lock, one rebuilds, and the rest find
    /// its bundle in the slot.
    #[test]
    fn racing_readers_of_a_stale_bundle_share_one_rebuild() {
        use std::sync::Barrier;

        let store = Store::new();
        store.create("net", &payload(300, 8.0, 5)).unwrap();
        store.bundle("net").unwrap();
        let entry = store.entry("net").unwrap();
        for round in 0..5 {
            // a leave never patches: the bundle goes stale
            store.mutate("net", &Mutation::Leave { node: round }).unwrap();
            let before = entry.rebuilds.load(Ordering::Relaxed);
            let barrier = Arc::new(Barrier::new(8));
            let readers: Vec<_> = (0..8)
                .map(|_| {
                    let (store, barrier) = (store.clone(), Arc::clone(&barrier));
                    std::thread::spawn(move || {
                        barrier.wait();
                        store.bundle("net").unwrap().0
                    })
                })
                .collect();
            let served: Vec<Arc<Bundle>> =
                readers.into_iter().map(|h| h.join().unwrap()).collect();
            assert_eq!(
                entry.rebuilds.load(Ordering::Relaxed),
                before + 1,
                "round {round}: one stale epoch, one rebuild"
            );
            assert!(
                served.iter().all(|b| Arc::ptr_eq(b, &served[0])),
                "round {round}: every reader must get the one rebuilt bundle"
            );
        }
    }

    /// `heal` builds off-lock; a read that rebuilds the same epoch
    /// meanwhile must make heal's install a no-op, not a second
    /// rebuild of that epoch. The two calls swap threads every round,
    /// so whichever thread leaves the barrier first, heal takes its
    /// snapshot first in half of the rounds.
    #[test]
    fn heal_racing_a_read_rebuilds_each_epoch_once() {
        use std::sync::Barrier;

        fn call(store: &Store, heal: bool) {
            if heal {
                store.heal("net").unwrap();
            } else {
                store.bundle("net").unwrap();
            }
        }

        let store = Store::new();
        let initial = payload(120, 5.0, 7);
        store.create("net", &initial).unwrap();
        store.harden("net", 2, 2).unwrap();
        let points = io::from_text(&initial).unwrap().points.expect("mobile payload");
        let entry = store.entry("net").unwrap();
        for (round, p) in points.iter().enumerate().take(24) {
            // a hardened topology never patches: every move goes stale
            let nudge = Mutation::Move { node: round, x: (p.x + 0.02).min(5.0), y: p.y };
            let (epoch, _) = store.mutate("net", &nudge).unwrap();
            let before = entry.rebuilds.load(Ordering::Relaxed);
            let barrier = Arc::new(Barrier::new(2));
            let heal_here = round % 2 == 0;
            let other = {
                let (store, barrier) = (store.clone(), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    barrier.wait();
                    call(&store, !heal_here);
                })
            };
            barrier.wait();
            call(&store, heal_here);
            other.join().unwrap();
            assert_eq!(
                entry.rebuilds.load(Ordering::Relaxed),
                before + 1,
                "round {round}: epoch {epoch} rebuilt more than once"
            );
            let (bundle, hit) = store.bundle("net").unwrap();
            assert!(hit && bundle.epoch == epoch, "round {round}: epoch {epoch} not published");
        }
    }
}
