//! Clusterhead unicast routing over the weakly-induced spanner.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, OnceLock};
use wcds_core::Wcds;
use wcds_graph::traversal::{self, BallTree};
use wcds_graph::{Graph, NodeId};

/// A clusterhead router built from a WCDS.
///
/// Structure (§4.2 of the paper):
///
/// * every node is assigned a **clusterhead** — its smallest-ID adjacent
///   MIS dominator (MIS dominators are their own clusterheads);
/// * the **dominator graph** links MIS dominators that are ≤ 3 hops
///   apart *through the spanner*, remembering the gateway nodes of one
///   shortest black path (the `2HopDomList` / `3HopDomList` state);
/// * per-dominator **routing tables** give, for every destination
///   dominator, the next dominator on a shortest dominator-level path
///   (lowest-index first hop among ties). They are filled on demand,
///   64 destinations per sweep, so a build costs `O(heads + links)`.
///
/// A packet from `s` to `t` travels `s → head(s) ⇝ head(t) → t`, with
/// each dominator-to-dominator leg expanded through its recorded
/// gateways. Adjacent pairs short-circuit to the direct edge, as the
/// paper prescribes.
///
/// # Examples
///
/// ```
/// use wcds_core::algo2::AlgorithmTwo;
/// use wcds_core::WcdsConstruction;
/// use wcds_graph::generators;
/// use wcds_routing::BackboneRouter;
///
/// let g = generators::path(9);
/// let result = AlgorithmTwo::new().construct(&g);
/// let router = BackboneRouter::build(&g, &result.wcds);
/// let path = router.route(0, 8).expect("connected");
/// assert_eq!(path.first(), Some(&0));
/// assert_eq!(path.last(), Some(&8));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackboneRouter {
    /// The weakly-induced spanner, behind an `Arc` so a holder of the
    /// router can publish it beside the router without a copy.
    spanner: Arc<Graph>,
    clusterhead: Vec<Option<NodeId>>,
    /// dominator → (neighbor dominator → interior gateway nodes of one
    /// shortest black path)
    dom_links: BTreeMap<NodeId, BTreeMap<NodeId, Vec<NodeId>>>,
    /// Sorted dominator ids — the head-index space of `hops`.
    heads: Vec<NodeId>,
    /// The per-dominator routing tables, derived from `dom_links` on
    /// demand: the dominator graph is indexed at build time, and each
    /// batch of 64 destinations fills its first-hop columns on the
    /// first route that needs one (see [`FirstHops`]).
    hops: FirstHops,
    /// The graph the router was built or patched for, shared like
    /// `spanner`; the direct-hop shortcut reads its edges.
    graph: Arc<Graph>,
}

/// First-hop sentinel: no dominator-level route.
const UNREACHABLE: u32 = u32::MAX;

/// Destinations per first-hop column block: one bit of a `u64` lane
/// mask each in the sweep that fills the block.
const LANES: usize = 64;

impl BackboneRouter {
    /// Builds the router state from a WCDS of `g`.
    ///
    /// # Panics
    ///
    /// Panics if the WCDS is invalid for `g` (every node must have an
    /// adjacent MIS dominator or be one).
    pub fn build(g: &Graph, wcds: &Wcds) -> Self {
        let spanner = Arc::new(wcds.weakly_induced_subgraph(g));
        let heads = wcds.mis_dominators();
        let is_head = g.membership(heads);

        // clusterhead assignment: self, else smallest adjacent head
        let clusterhead: Vec<Option<NodeId>> = g
            .nodes()
            .map(|u| {
                if is_head[u] {
                    Some(u)
                } else {
                    g.adj(u).find(|&v| is_head[v])
                }
            })
            .collect();
        assert!(
            g.nodes().all(|u| clusterhead[u].is_some()),
            "WCDS does not dominate the graph"
        );

        // dominator adjacency through the spanner: radius-3 BFS from
        // each head, keeping heads at distance ≤ 3 with the path interior
        let mut ball = BallTree::default();
        let dom_links: BTreeMap<NodeId, BTreeMap<NodeId, Vec<NodeId>>> = heads
            .iter()
            .map(|&h| (h, head_links(&mut ball, &spanner, &is_head, h)))
            .collect();
        let (heads, hops) = FirstHops::index(&dom_links);

        Self { spanner, clusterhead, dom_links, heads, hops, graph: Arc::new(g.clone()) }
    }

    /// Rebuilds the router after a topology delta that did **not**
    /// change the dominator sets, reusing everything outside the
    /// disturbed region. Byte-identical to `build(g, wcds)`
    /// (debug-asserted here, release-asserted in tests):
    ///
    /// * the spanner CSR is spliced with the delta edges touching the
    ///   (unchanged) WCDS;
    /// * clusterheads are re-derived only for delta endpoints — every
    ///   other node feeds the assignment rule identical inputs;
    /// * dominator links are re-derived only for heads within spanner
    ///   distance 3 of a spanner-delta endpoint: distances *from* the
    ///   endpoint set agree across the splice (truncate any path at its
    ///   first endpoint), so a farther head's radius-3 ball — and its
    ///   deterministic bounded BFS tree — is unchanged;
    /// * the dominator graph is re-indexed from the links, and its
    ///   first-hop columns start unfilled, as after `build`.
    ///
    /// `added`/`removed` are the graph edge delta in the post-mutation
    /// id space; `g` may have one more node than the router was built
    /// for (a join), never fewer.
    ///
    /// # Panics
    ///
    /// Panics if `wcds` stopped dominating `g`, or if the delta
    /// contradicts the recorded spanner (both mean the caller's
    /// "dominators unchanged" promise was broken).
    pub fn patched(
        &self,
        g: &Graph,
        wcds: &Wcds,
        added: &[(NodeId, NodeId)],
        removed: &[(NodeId, NodeId)],
    ) -> Self {
        let heads = wcds.mis_dominators();
        let is_head = g.membership(heads);
        let in_wcds = g.membership(wcds.nodes());

        let touches_wcds =
            |&(a, b): &(NodeId, NodeId)| in_wcds[a] || in_wcds[b];
        let s_added: Vec<(NodeId, NodeId)> =
            added.iter().filter(|e| touches_wcds(e)).copied().collect();
        let s_removed: Vec<(NodeId, NodeId)> =
            removed.iter().filter(|e| touches_wcds(e)).copied().collect();
        let spanner = Arc::new(self.spanner.spliced(g.node_count(), &s_added, &s_removed));
        debug_assert_eq!(
            *spanner,
            wcds.weakly_induced_subgraph(g),
            "spliced spanner diverged from the weakly-induced subgraph"
        );

        let mut clusterhead = self.clusterhead.clone();
        clusterhead.resize(g.node_count(), None);
        let endpoints: std::collections::BTreeSet<NodeId> =
            added.iter().chain(removed).flat_map(|&(a, b)| [a, b]).collect();
        for &u in &endpoints {
            clusterhead[u] = if is_head[u] {
                Some(u)
            } else {
                g.adj(u).find(|&v| is_head[v])
            };
        }
        assert!(
            g.nodes().all(|u| clusterhead[u].is_some()),
            "WCDS does not dominate the graph"
        );

        // heads beyond spanner distance 3 of the spanner delta keep
        // their links verbatim; the rest are the heads in the radius-3
        // ball around its endpoints
        let mut dom_links = self.dom_links.clone();
        let mut ball = BallTree::default();
        let s_endpoints = s_added.iter().chain(&s_removed).flat_map(|&(a, b)| [a, b]);
        ball.fill(&spanner, s_endpoints, 3);
        let stale: Vec<NodeId> =
            ball.order().iter().copied().filter(|&v| is_head.get(v) == Some(&true)).collect();
        for h in stale {
            dom_links.insert(h, head_links(&mut ball, &spanner, &is_head, h));
        }
        let (heads, hops) = FirstHops::index(&dom_links);

        let graph = Arc::new(g.clone());
        let patched = Self { spanner, clusterhead, dom_links, heads, hops, graph };
        debug_assert_eq!(patched, Self::build(g, wcds), "patched router diverged");
        patched
    }

    /// The weakly-induced spanner the router routes over.
    pub fn spanner(&self) -> &Arc<Graph> {
        &self.spanner
    }

    /// The graph the router was built or patched for.
    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// The clusterhead of node `u`. Total: an out-of-range or
    /// somehow-unassigned node is its own clusterhead (such a route
    /// then reports unreachable rather than killing the worker).
    pub fn clusterhead(&self, u: NodeId) -> NodeId {
        debug_assert!(u < self.clusterhead.len(), "node {u} out of range");
        self.clusterhead.get(u).copied().flatten().unwrap_or(u)
    }

    /// Routing-table size (number of destination entries) at dominator
    /// `h` — every other dominator of its dominator-graph component —
    /// or `None` if `h` is not a dominator.
    pub fn table_size(&self, h: NodeId) -> Option<usize> {
        let hi = self.heads.binary_search(&h).ok()?;
        self.hops.reach.get(hi).map(|&r| r as usize)
    }

    /// Total routing-state entries across all dominators.
    pub fn total_state(&self) -> usize {
        self.hops.reach.iter().map(|&r| r as usize).sum::<usize>()
            + self.dom_links.values().map(|l| l.values().map(|g| g.len() + 1).sum::<usize>()).sum::<usize>()
    }

    /// Routes a packet from `s` to `t`, returning the node path
    /// (inclusive of both ends).
    ///
    /// Returns `None` when the backbone has no dominator-level route
    /// (disconnected network).
    ///
    /// The first route toward a destination batch after a build or
    /// patch fills that batch's first-hop block (one bit-parallel BFS
    /// over the dominator graph); later routes into the batch only read
    /// it, and concurrent first routes wait for one fill.
    ///
    /// # Panics
    ///
    /// Panics if `s` or `t` is out of range.
    pub fn route(&self, s: NodeId, t: NodeId) -> Option<Vec<NodeId>> {
        if s == t {
            return Some(vec![s]);
        }
        // adjacent pairs use the direct edge (paper: "a single hop")
        if self.graph.has_edge(s, t) {
            return Some(vec![s, t]);
        }
        let hs = self.clusterhead(s);
        let ht = self.clusterhead(t);
        let mut path = vec![s];
        if hs != s {
            path.push(hs);
        }
        // dominator chain hs ⇝ ht, every hop read from ht's column
        let ti = self.heads.binary_search(&ht).ok()?;
        let mut ci = self.heads.binary_search(&hs).ok()?;
        if ci != ti {
            let column = self.hops.column(ti)?;
            let mut cur = hs;
            while ci != ti {
                let hop = column.hop(ci)?;
                if hop == UNREACHABLE {
                    return None;
                }
                let next = *self.heads.get(hop as usize)?;
                path.extend_from_slice(self.dom_links.get(&cur)?.get(&next)?);
                path.push(next);
                (ci, cur) = (hop as usize, next);
            }
        }
        if ht != t {
            path.push(t);
        }
        // collapse accidental duplicates (e.g. s adjacent to a gateway)
        path.dedup();
        // the destination can appear mid-path as a gateway of the
        // dominator chain; deliver at the first visit
        if let Some(pos) = path.iter().position(|&x| x == t) {
            path.truncate(pos + 1);
        }
        Some(path)
    }

    /// Checks a route only uses spanner edges (except the permitted
    /// direct first hop between adjacent endpoints).
    pub fn route_uses_spanner(&self, path: &[NodeId]) -> bool {
        if path.len() == 2 {
            return self.graph.has_edge(path[0], path[1]);
        }
        path.windows(2).all(|w| self.spanner.has_edge(w[0], w[1]))
    }

    /// Measures the stretch of routing between `s` and `t`: routed hops
    /// divided by shortest-path hops in `G`. `None` if unroutable.
    pub fn stretch(&self, g: &Graph, s: NodeId, t: NodeId) -> Option<f64> {
        let routed = self.route(s, t)?.len() as f64 - 1.0;
        let shortest = traversal::hop_distance(g, s, t)? as f64;
        if shortest == 0.0 {
            return Some(1.0);
        }
        Some(routed / shortest)
    }
}

/// One head's spanner links: every other head at spanner distance ≤ 3,
/// with the interior gateway nodes of the BFS tree path to it.
///
/// `ball` is filled with `h`'s radius-3 ball, and only the heads among
/// its members (`is_head`) are read. The tree keeps FIFO order and the
/// first-discovered parent, so each gateway path is the one a full
/// [`traversal::bfs_tree`] from `h` records.
fn head_links(
    ball: &mut BallTree,
    spanner: &Graph,
    is_head: &[bool],
    h: NodeId,
) -> BTreeMap<NodeId, Vec<NodeId>> {
    ball.fill(spanner, [h], 3);
    // inserted one by one: collecting would buffer and sort a `Vec` per
    // head, which raised the service set-up's peak RSS
    let mut links = BTreeMap::new();
    for &v in ball.order() {
        if v != h && is_head.get(v) == Some(&true) {
            if let Some(interior) = ball.interior(v) {
                links.insert(v, interior);
            }
        }
    }
    links
}

/// Dominator-level routing tables, filled on demand.
///
/// Destinations are split into batches of [`LANES`], and each batch
/// owns one block that the first route toward any of its destinations
/// fills with a bit-parallel multi-source BFS over the [`DomGraph`]
/// (MS-BFS, Then et al., VLDB 2015): a build costs `O(heads + links)`,
/// and a tick's bundle serves routes after one batch instead of after
/// the whole `|heads|²` table.
///
/// A head first reached for destination `j` at level `ℓ` takes as its
/// hop the **lowest-index neighbour** whose level-`ℓ−1` frontier holds
/// `j`. That is exactly the entry a per-source FIFO BFS records:
/// its queue stays ordered by first-hop index within each level, so a
/// node inherits the smallest first hop among its previous-level
/// neighbours, i.e. the lowest-index neighbour of the source on a
/// shortest path. Distances are symmetric (the spanner is undirected,
/// so dominator links are mutual), which lets one sweep from the
/// destinations stand in for a BFS from every source.
#[derive(Debug, Clone)]
struct FirstHops {
    graph: DomGraph,
    /// Heads in batch order: batch `b` holds the destinations
    /// `order[64·b..64·b + 64]` (see [`DomGraph::balls`]).
    order: Vec<u32>,
    /// Position of each head in `order`: batch `rank / 64`, lane
    /// `rank % 64`.
    rank: Vec<u32>,
    /// Per head, its routing-table size (see [`DomGraph::reach`]).
    reach: Vec<u32>,
    /// One block per batch of `w ≤ 64` destinations: entry `s·w + lane`
    /// is the head index of the next dominator from head `s` toward the
    /// batch's destination in `lane` ([`UNREACHABLE`] when no
    /// dominator-level path exists, and on the diagonal). Source-major,
    /// so the sweep's writes for one head share a few cache lines.
    blocks: Box<[OnceLock<Box<[u32]>>]>,
}

/// Equal when the dominator graphs are: every other field, the blocks
/// included, is a function of it, and whether a block has been filled
/// yet is not part of the value.
impl PartialEq for FirstHops {
    fn eq(&self, other: &Self) -> bool {
        self.graph == other.graph
    }
}

impl Eq for FirstHops {}

/// The dominator graph in head-index space, as a CSR whose rows are
/// ascending: the tie-break order of the first-hop rule.
#[derive(Debug, Clone, PartialEq, Eq)]
struct DomGraph {
    /// Head `i`'s neighbours are `targets[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<usize>,
    targets: Vec<u32>,
}

impl DomGraph {
    fn new(heads: &[NodeId], dom_links: &BTreeMap<NodeId, BTreeMap<NodeId, Vec<NodeId>>>) -> Self {
        let mut offsets = Vec::with_capacity(heads.len() + 1);
        let mut targets = Vec::new();
        offsets.push(0);
        for links in dom_links.values() {
            debug_assert!(
                links.keys().all(|nb| heads.binary_search(nb).is_ok()),
                "link target is not a head"
            );
            // sorted keys map to ascending indices
            targets.extend(links.keys().filter_map(|nb| heads.binary_search(nb).ok()).map(|i| i as u32));
            offsets.push(targets.len());
        }
        Self { offsets, targets }
    }

    /// Number of heads.
    fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Dominator neighbours of head `i`, ascending.
    fn neighbours(&self, i: u32) -> &[u32] {
        let i = i as usize;
        match (self.offsets.get(i), self.offsets.get(i + 1)) {
            (Some(&lo), Some(&hi)) => self.targets.get(lo..hi).unwrap_or_default(),
            _ => &[],
        }
    }

    /// Orders the heads into batches of [`LANES`], each grown as a BFS
    /// ball over the heads not yet placed, seeded at the lowest unplaced
    /// index (and reseeded there when a ball runs dry before the batch
    /// is full). Nearby destinations reach any head at nearly the same
    /// level, so a batch's sweep revisits each head on few levels.
    fn balls(&self) -> Vec<u32> {
        let mut placed = vec![false; self.len()];
        let mut order = Vec::with_capacity(self.len());
        let mut queue = VecDeque::new();
        for seed in 0..self.len() as u32 {
            queue.push_back(seed);
            while let Some(u) = queue.pop_front() {
                match placed.get_mut(u as usize) {
                    Some(p) if !*p => *p = true,
                    _ => continue,
                }
                order.push(u);
                if order.len() % LANES == 0 {
                    // the batch is full: the next one grows its own ball
                    queue.clear();
                } else {
                    queue.extend(self.neighbours(u));
                }
            }
        }
        order
    }

    /// Per head, `|component| − 1`: the destinations its table holds an
    /// entry for.
    fn reach(&self) -> Vec<u32> {
        let mut component = vec![u32::MAX; self.len()];
        let mut sizes: Vec<u32> = Vec::new();
        let mut stack = Vec::new();
        for seed in 0..self.len() as u32 {
            let id = sizes.len() as u32;
            let mut size = 0;
            stack.push(seed);
            while let Some(u) = stack.pop() {
                match component.get_mut(u as usize) {
                    Some(c) if *c == u32::MAX => *c = id,
                    _ => continue,
                }
                size += 1;
                stack.extend(self.neighbours(u));
            }
            if size > 0 {
                sizes.push(size);
            }
        }
        component.iter().map(|&c| sizes.get(c as usize).map_or(0, |&s| s - 1)).collect()
    }
}

/// One destination's first hops inside its batch block.
struct Column<'a> {
    block: &'a [u32],
    /// Destinations in the batch.
    width: usize,
    lane: usize,
}

impl Column<'_> {
    /// The head index of the next dominator from head `s`.
    fn hop(&self, s: usize) -> Option<u32> {
        self.block.get(s * self.width + self.lane).copied()
    }
}

/// Per-head lane masks of one [`FirstHops::fill`] sweep.
#[derive(Clone, Copy, Default)]
struct Lanes {
    /// Destinations that have reached this head.
    seen: u64,
    /// Destinations that reached this head at the previous level: the
    /// frontier being expanded.
    frontier: u64,
    /// Destinations reaching this head at the level being expanded.
    fresh: u64,
}

impl FirstHops {
    /// Indexes the dominator graph of `dom_links`: returns the sorted
    /// head list and the unfilled tables over it.
    fn index(dom_links: &BTreeMap<NodeId, BTreeMap<NodeId, Vec<NodeId>>>) -> (Vec<NodeId>, Self) {
        let heads: Vec<NodeId> = dom_links.keys().copied().collect();
        assert!(heads.len() < UNREACHABLE as usize, "head count overflows the hop tables");
        let graph = DomGraph::new(&heads, dom_links);
        let order = graph.balls();
        let mut rank = vec![0; heads.len()];
        for (pos, &h) in order.iter().enumerate() {
            if let Some(r) = rank.get_mut(h as usize) {
                *r = pos as u32;
            }
        }
        let hops = Self {
            reach: graph.reach(),
            blocks: (0..heads.len().div_ceil(LANES)).map(|_| OnceLock::new()).collect(),
            graph,
            order,
            rank,
        };
        (heads, hops)
    }

    /// The first-hop column toward head `dest`; fills `dest`'s batch
    /// on first use.
    fn column(&self, dest: usize) -> Option<Column<'_>> {
        let rank = *self.rank.get(dest)? as usize;
        let (batch, lane) = (rank / LANES, rank % LANES);
        let block = self.blocks.get(batch)?.get_or_init(|| self.fill(batch));
        Some(Column { block, width: block.len() / self.graph.len(), lane })
    }

    /// One multi-source BFS from the destinations of `batch`, one lane
    /// bit each, over the dominator graph; returns the batch's block.
    /// Each level first pushes the frontier's lanes to unseen
    /// neighbours, then gives every newly reached (head, lane) the
    /// lowest-index neighbour on that lane's previous frontier.
    fn fill(&self, batch: usize) -> Box<[u32]> {
        let k = self.graph.len();
        let dests = self.order.chunks(LANES).nth(batch).unwrap_or_default();
        let mut hops = vec![UNREACHABLE; dests.len() * k];
        let mut lanes = vec![Lanes::default(); k];
        let mut current: Vec<u32> = Vec::new();
        let mut reached: Vec<u32> = Vec::new();
        for (lane, &d) in dests.iter().enumerate() {
            if let Some(l) = lanes.get_mut(d as usize) {
                l.seen = 1 << lane;
                l.frontier = 1 << lane;
                current.push(d);
            }
        }
        while !current.is_empty() {
            for &u in &current {
                let spread = lanes.get(u as usize).map_or(0, |l| l.frontier);
                for &v in self.graph.neighbours(u) {
                    let Some(l) = lanes.get_mut(v as usize) else { continue };
                    let new = spread & !l.seen;
                    if new != 0 {
                        if l.fresh == 0 {
                            reached.push(v);
                        }
                        l.fresh |= new;
                    }
                }
            }
            for &v in &reached {
                let fresh = lanes.get(v as usize).map_or(0, |l| l.fresh);
                let mut pending = fresh;
                for &u in self.graph.neighbours(v) {
                    let mut hit = pending & lanes.get(u as usize).map_or(0, |l| l.frontier);
                    pending &= !hit;
                    while hit != 0 {
                        let lane = hit.trailing_zeros() as usize;
                        hit &= hit - 1;
                        if let Some(h) = hops.get_mut(v as usize * dests.len() + lane) {
                            *h = u;
                        }
                    }
                    if pending == 0 {
                        break;
                    }
                }
                if let Some(l) = lanes.get_mut(v as usize) {
                    l.seen |= fresh;
                }
            }
            for &u in &current {
                if let Some(l) = lanes.get_mut(u as usize) {
                    l.frontier = 0;
                }
            }
            for &v in &reached {
                if let Some(l) = lanes.get_mut(v as usize) {
                    l.frontier = l.fresh;
                    l.fresh = 0;
                }
            }
            std::mem::swap(&mut current, &mut reached);
            reached.clear();
        }
        hops.into_boxed_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcds_core::algo2::AlgorithmTwo;
    use wcds_core::WcdsConstruction;
    use wcds_geom::deploy;
    use wcds_graph::{generators, UnitDiskGraph};

    fn router_for(g: &Graph) -> BackboneRouter {
        let result = AlgorithmTwo::new().construct(g);
        BackboneRouter::build(g, &result.wcds)
    }

    /// Reference dominator-level tables: one FIFO BFS per source head
    /// over the links, recording the first dominator hop toward every
    /// destination. Returns the sorted head list and the flat row-major
    /// first-hop matrix (`UNREACHABLE` off the backbone and on the
    /// diagonal) — the eager table the lazy column blocks must equal.
    fn dominator_tables(
        dom_links: &BTreeMap<NodeId, BTreeMap<NodeId, Vec<NodeId>>>,
    ) -> (Vec<NodeId>, Vec<u32>) {
        let heads: Vec<NodeId> = dom_links.keys().copied().collect();
        let k = heads.len();
        let adj: Vec<Vec<u32>> = heads
            .iter()
            .map(|h| dom_links[h].keys().map(|nb| heads.binary_search(nb).unwrap() as u32).collect())
            .collect();
        let mut next_hop = vec![UNREACHABLE; k * k];
        let mut queue = VecDeque::new();
        for hi in 0..k {
            let row = &mut next_hop[hi * k..(hi + 1) * k];
            queue.clear();
            queue.push_back(hi as u32);
            row[hi] = hi as u32; // sentinel: the source is its own hop
            while let Some(cur) = queue.pop_front() {
                for &nb in &adj[cur as usize] {
                    if row[nb as usize] == UNREACHABLE {
                        row[nb as usize] = if cur as usize == hi { nb } else { row[cur as usize] };
                        queue.push_back(nb);
                    }
                }
            }
            row[hi] = UNREACHABLE; // the diagonal carries no entry
        }
        (heads, next_hop)
    }

    /// The pre-lazy `route`: the dominator chain walked through the
    /// reference matrix.
    fn reference_route(
        router: &BackboneRouter,
        next_hop: &[u32],
        s: NodeId,
        t: NodeId,
    ) -> Option<Vec<NodeId>> {
        if s == t {
            return Some(vec![s]);
        }
        if router.graph.has_edge(s, t) {
            return Some(vec![s, t]);
        }
        let (hs, ht) = (router.clusterhead(s), router.clusterhead(t));
        let mut path = vec![s];
        if hs != s {
            path.push(hs);
        }
        let ti = router.heads.binary_search(&ht).ok()?;
        let k = router.heads.len();
        let mut cur = hs;
        while cur != ht {
            let ci = router.heads.binary_search(&cur).ok()?;
            let hop = next_hop[ci * k + ti];
            if hop == UNREACHABLE {
                return None;
            }
            let next = router.heads[hop as usize];
            path.extend_from_slice(&router.dom_links[&cur][&next]);
            path.push(next);
            cur = next;
        }
        if ht != t {
            path.push(t);
        }
        path.dedup();
        if let Some(pos) = path.iter().position(|&x| x == t) {
            path.truncate(pos + 1);
        }
        Some(path)
    }

    /// Demands every first hop, every table size, the total state and
    /// the routes of `router` equal the reference tables'. Returns the
    /// number of unreachable off-diagonal (source, destination) pairs.
    fn assert_matches_reference(router: &BackboneRouter) -> usize {
        let (heads, next_hop) = dominator_tables(&router.dom_links);
        assert_eq!(heads, router.heads);
        let k = heads.len();
        for d in 0..k {
            let column = router.hops.column(d).expect("every head has a column");
            for s in 0..k {
                assert_eq!(column.hop(s), Some(next_hop[s * k + d]), "first hop {s} → {d} of {k} heads");
            }
            assert_eq!(column.hop(k), None);
        }
        let mut entries = 0;
        for (s, &h) in heads.iter().enumerate() {
            let row = next_hop[s * k..(s + 1) * k].iter().filter(|&&x| x != UNREACHABLE).count();
            assert_eq!(router.table_size(h), Some(row), "table size of head {h}");
            entries += row;
        }
        let links: usize =
            router.dom_links.values().flat_map(|l| l.values()).map(|g| g.len() + 1).sum();
        assert_eq!(router.total_state(), entries + links);
        // every route on small graphs, a strided sample on large ones
        let n = router.clusterhead.len();
        let stride = n / 160 + 1;
        for s in (0..n).step_by(stride) {
            for t in (0..n).step_by(stride) {
                assert_eq!(router.route(s, t), reference_route(router, &next_hop, s, t), "{s} → {t}");
            }
        }
        k * k.saturating_sub(1) - entries
    }

    /// Demands every head's links equal those read off an unbounded
    /// BFS tree from it: the other heads at spanner distance ≤ 3, each
    /// with the interior of its tree path.
    fn assert_links_match_full_trees(router: &BackboneRouter) {
        for &h in &router.heads {
            let (dist, parents) = traversal::bfs_tree(&router.spanner, h);
            let expected: BTreeMap<NodeId, Vec<NodeId>> = router
                .heads
                .iter()
                .filter(|&&o| o != h && dist[o].is_some_and(|d| d <= 3))
                .map(|&o| {
                    let path = traversal::path_from_parents(&parents, h, o).unwrap();
                    (o, path[1..path.len() - 1].to_vec())
                })
                .collect();
            assert_eq!(router.dom_links[&h], expected, "links of head {h}");
        }
    }

    /// A graph whose MIS is exactly the `skeleton`'s nodes (ids
    /// `0..h`): every head keeps a private leaf, and each skeleton edge
    /// becomes a gateway path — one connector (a 2-hop link) on even
    /// edges, two on odd ones, the second an additional dominator so
    /// the 3-hop link runs over the spanner. The dominator graph is the
    /// skeleton.
    fn head_graph(skeleton: &Graph) -> (Graph, Wcds) {
        let h = skeleton.node_count();
        let mut edges: Vec<(NodeId, NodeId)> = (0..h).map(|u| (u, h + u)).collect();
        let mut additional = Vec::new();
        let mut next = 2 * h;
        for (i, e) in skeleton.edges().into_iter().enumerate() {
            let (a, b) = e.endpoints();
            if i % 2 == 0 {
                edges.extend([(a, next), (next, b)]);
                next += 1;
            } else {
                edges.extend([(a, next), (next, next + 1), (next + 1, b)]);
                additional.push(next + 1);
                next += 2;
            }
        }
        (Graph::from_edges(next, edges), Wcds::new((0..h).collect(), additional))
    }

    #[test]
    fn lazy_tables_equal_the_reference_on_batch_edges() {
        for h in [1, 63, 64, 65, 129] {
            let (g, wcds) = head_graph(&generators::connected_gnp(h, (3.0 / h as f64).min(1.0), h as u64));
            let router = BackboneRouter::build(&g, &wcds);
            assert_eq!(router.heads.len(), h);
            assert_eq!(router.hops.blocks.len(), h.div_ceil(LANES));
            assert_eq!(assert_matches_reference(&router), 0, "{h} heads: connected backbone");
        }
    }

    #[test]
    fn lazy_tables_equal_the_reference_on_udg_backbones() {
        for seed in 0..3 {
            let udg = UnitDiskGraph::build(deploy::uniform(400, 11.0, 11.0, seed), 1.0);
            let router = router_for(udg.graph());
            assert!(router.heads.len() > LANES, "seed {seed}: one batch only");
            assert_matches_reference(&router);
        }
    }

    #[test]
    fn links_equal_full_bfs_trees_on_udg_and_gnp_routers() {
        for seed in 0..3 {
            let udg = UnitDiskGraph::build(deploy::uniform(400, 11.0, 11.0, seed), 1.0);
            assert_links_match_full_trees(&router_for(udg.graph()));
        }
        for (n, p, seed) in [(60, 0.08, 21), (200, 0.03, 4)] {
            assert_links_match_full_trees(&router_for(&generators::connected_gnp(n, p, seed)));
        }
        let (g, wcds) = head_graph(&generators::connected_gnp(65, 3.0 / 65.0, 65));
        assert_links_match_full_trees(&BackboneRouter::build(&g, &wcds));
    }

    #[test]
    fn lazy_tables_equal_the_reference_on_a_disconnected_backbone() {
        let (g, wcds) = head_graph(&generators::gnp(90, 0.025, 4));
        let router = BackboneRouter::build(&g, &wcds);
        let unreachable = assert_matches_reference(&router);
        assert!(unreachable > 0, "the dominator graph is connected");
        assert!(router.heads.iter().any(|&h| router.table_size(h) == Some(0)), "no isolated head");
        let k = router.heads.len();
        let cut = (0..k)
            .flat_map(|s| (0..k).map(move |d| (s, d)))
            .find(|&(s, d)| s != d && router.hops.column(d).unwrap().hop(s) == Some(UNREACHABLE))
            .unwrap();
        assert_eq!(router.route(router.heads[cut.0], router.heads[cut.1]), None);
    }

    #[test]
    fn racing_first_routes_fill_each_batch_once_and_agree() {
        let (g, wcds) = head_graph(&generators::connected_gnp(70, 0.04, 8));
        let n = g.node_count();
        let route_all = |router: &BackboneRouter| -> Vec<Option<Vec<NodeId>>> {
            (0..n).flat_map(|s| (0..n).map(move |t| (s, t))).map(|(s, t)| router.route(s, t)).collect()
        };
        let serial = BackboneRouter::build(&g, &wcds);
        let expected = route_all(&serial);
        let cold = std::sync::Arc::new(BackboneRouter::build(&g, &wcds));
        assert!(cold.hops.blocks.len() > 1 && cold.hops.blocks.iter().all(|b| b.get().is_none()));
        let start = std::sync::Barrier::new(2);
        let runs: Vec<_> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let (router, start) = (std::sync::Arc::clone(&cold), &start);
                    // same order on both threads: they meet every cold
                    // batch at about the same time
                    scope.spawn(move || {
                        start.wait();
                        route_all(&router)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for run in &runs {
            assert!(*run == expected, "a racing run diverged from the single-threaded one");
        }
        assert!(cold.hops.blocks.iter().all(|b| b.get().is_some()));
        assert_eq!(*cold, serial);
    }

    #[test]
    fn clusterheads_are_adjacent_dominators() {
        let g = generators::connected_gnp(40, 0.1, 1);
        let result = AlgorithmTwo::new().construct(&g);
        let router = BackboneRouter::build(&g, &result.wcds);
        let heads = result.wcds.mis_dominators();
        for u in g.nodes() {
            let h = router.clusterhead(u);
            assert!(heads.contains(&h));
            assert!(h == u || g.has_edge(u, h));
        }
    }

    #[test]
    fn routes_exist_and_are_walks_in_g() {
        let g = generators::connected_gnp(40, 0.1, 5);
        let router = router_for(&g);
        for s in 0..10 {
            for t in 30..40 {
                let path = router.route(s, t).expect("connected network routes");
                assert_eq!(*path.first().unwrap(), s);
                assert_eq!(*path.last().unwrap(), t);
                for w in path.windows(2) {
                    assert!(g.has_edge(w[0], w[1]), "non-edge in route {path:?}");
                }
            }
        }
    }

    #[test]
    fn routes_use_spanner_edges() {
        let g = generators::connected_gnp(50, 0.08, 9);
        let router = router_for(&g);
        for s in [0, 7, 13] {
            for t in [44, 31, 22] {
                let path = router.route(s, t).unwrap();
                assert!(router.route_uses_spanner(&path), "route {path:?} leaves the spanner");
            }
        }
    }

    #[test]
    fn self_and_neighbor_routes_are_trivial() {
        let g = generators::path(5);
        let router = router_for(&g);
        assert_eq!(router.route(2, 2), Some(vec![2]));
        assert_eq!(router.route(1, 2), Some(vec![1, 2]));
    }

    #[test]
    fn stretch_is_bounded_on_udgs() {
        for seed in 0..4 {
            let udg = UnitDiskGraph::build(deploy::uniform(120, 6.0, 6.0, seed), 1.0);
            if !traversal::is_connected(udg.graph()) {
                continue;
            }
            let router = router_for(udg.graph());
            let mut worst: f64 = 1.0;
            for s in (0..120).step_by(17) {
                for t in (0..120).step_by(13) {
                    if s == t || udg.graph().has_edge(s, t) {
                        continue;
                    }
                    let st = router.stretch(udg.graph(), s, t).expect("routable");
                    worst = worst.max(st);
                }
            }
            // clusterhead routing pays ≤ 3 spanner hops per graph hop
            // plus the two end legs: hops ≤ 3h + 5, so stretch ≤ 5.5 at
            // h = 2 and below 4 for longer routes
            assert!(worst <= 5.5, "seed {seed}: worst stretch {worst}");
        }
    }

    #[test]
    fn table_sizes_scale_with_dominator_count() {
        let g = generators::connected_gnp(60, 0.07, 2);
        let result = AlgorithmTwo::new().construct(&g);
        let router = BackboneRouter::build(&g, &result.wcds);
        let heads = result.wcds.mis_dominators();
        for &h in heads {
            let size = router.table_size(h).unwrap();
            assert!(size < heads.len());
        }
        assert!(router.table_size(heads.len() + 1000).is_none() || heads.contains(&(heads.len() + 1000)));
        assert!(router.total_state() > 0 || heads.len() <= 1);
    }

    #[test]
    fn routes_visit_the_destination_exactly_once() {
        let g = generators::connected_gnp(60, 0.08, 21);
        let router = router_for(&g);
        for s in 0..12 {
            for t in 40..60 {
                let path = router.route(s, t).unwrap();
                assert_eq!(path.iter().filter(|&&x| x == t).count(), 1, "path {path:?}");
                assert_eq!(*path.last().unwrap(), t);
            }
        }
    }

    #[test]
    fn routing_on_star_goes_through_center() {
        let g = generators::star(6);
        let router = router_for(&g);
        let path = router.route(1, 4).unwrap();
        assert_eq!(path, vec![1, 0, 4]);
    }

    #[test]
    fn patched_router_equals_a_fresh_build_across_moves() {
        // drift nodes through a dynamic UDG; whenever the WCDS survives a
        // move, patch the router and demand byte-identity with a rebuild
        let mut udg = wcds_graph::DynamicUdg::new(deploy::uniform(150, 5.0, 5.0, 3), 1.0);
        let mut result = AlgorithmTwo::new().construct(udg.graph());
        let mut router = BackboneRouter::build(udg.graph(), &result.wcds);
        let mut patches = 0;
        for step in 0..40usize {
            let u = (step * 13) % udg.node_count();
            let p = udg.points()[u];
            let dx = if step % 2 == 0 { 0.3 } else { -0.3 };
            let delta =
                udg.move_node(u, wcds_geom::Point::new((p.x + dx).clamp(0.0, 5.0), p.y));
            let fresh = AlgorithmTwo::new().construct(udg.graph());
            if fresh.wcds == result.wcds {
                router = router.patched(udg.graph(), &result.wcds, &delta.added, &delta.removed);
                // release-mode identity, not just the debug_assert inside
                assert_eq!(router, BackboneRouter::build(udg.graph(), &result.wcds));
                assert_links_match_full_trees(&router);
                if patches % 4 == 0 {
                    assert_matches_reference(&router);
                }
                patches += 1;
            } else {
                result = fresh;
                router = BackboneRouter::build(udg.graph(), &result.wcds);
            }
        }
        assert!(patches >= 10, "only {patches} patchable moves in the trace");
    }

    #[test]
    fn patched_router_handles_joins() {
        let mut udg = wcds_graph::DynamicUdg::new(deploy::uniform(120, 4.0, 4.0, 11), 1.0);
        let mut result = AlgorithmTwo::new().construct(udg.graph());
        let mut router = BackboneRouter::build(udg.graph(), &result.wcds);
        let mut patches = 0;
        for step in 0..20usize {
            let p = wcds_geom::Point::new(
                (step as f64 * 0.61) % 4.0,
                (step as f64 * 0.37) % 4.0,
            );
            let (_, delta) = udg.add_node(p);
            let fresh = AlgorithmTwo::new().construct(udg.graph());
            if fresh.wcds == result.wcds {
                router = router.patched(udg.graph(), &result.wcds, &delta.added, &delta.removed);
                assert_eq!(router, BackboneRouter::build(udg.graph(), &result.wcds));
                assert_links_match_full_trees(&router);
                patches += 1;
            } else {
                result = fresh;
                router = BackboneRouter::build(udg.graph(), &result.wcds);
            }
        }
        assert!(patches >= 5, "only {patches} patchable joins in the trace");
    }
}
