use crate::{Edge, NodeId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A compact undirected simple graph over nodes `0..n`.
///
/// Adjacency is stored in **compressed sparse row** (CSR) form: one flat
/// `targets` array holding every adjacency list back to back, and an
/// `offsets` array marking where each node's slice begins. A node's
/// neighbors are therefore a contiguous, cache-resident slice — the
/// traversal kernels (BFS sweeps, Dijkstra, the dilation engine) walk
/// memory linearly instead of chasing one heap allocation per node.
///
/// Both arrays are `u32`: node ids and half-edge counts must fit
/// `u32::MAX` (the builder asserts), which halves adjacency bandwidth
/// versus pointer-width ids and keeps a one-million-node, average-degree
/// eleven topology under 100 MB. Callers that index with a neighbor use
/// [`Graph::adj`], which widens to [`NodeId`] on the fly.
///
/// Adjacency lists are kept **sorted**, which gives deterministic
/// iteration everywhere (important: distributed runs must be replayable)
/// and `O(log d)` adjacency tests.
///
/// `Graph` is immutable once built; construct one with [`GraphBuilder`],
/// [`Graph::from_edges`], or a generator from [`crate::generators`].
/// Mutation under churn (mobility) is handled by rebuilding — UDG
/// construction is `O(n + |E|)`, so rebuild cost never dominates.
///
/// # Examples
///
/// ```
/// use wcds_graph::Graph;
///
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
/// assert_eq!(g.degree(1), 2);
/// assert!(g.has_edge(2, 1));
/// assert_eq!(g.neighbors(2), &[1, 3]);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    /// `offsets[u]..offsets[u + 1]` indexes `u`'s slice of `targets`;
    /// length `n + 1`. `u32` keeps the row index half the width of a
    /// pointer — the arrays must fit `2|E| ≤ u32::MAX` half-edges, which
    /// the builder asserts.
    offsets: Vec<u32>,
    /// All adjacency lists concatenated, each sorted ascending. The sole
    /// copy, narrow: ids fit `u32` by the builder's assert.
    targets: Vec<u32>,
    edge_count: usize,
}

impl Graph {
    /// An edgeless graph on `n` nodes.
    pub fn empty(n: usize) -> Self {
        Self { offsets: vec![0; n + 1], targets: Vec::new(), edge_count: 0 }
    }

    /// Builds a graph on `n` nodes from an edge iterator.
    ///
    /// Duplicate edges (in either orientation) are collapsed.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n` or an edge is a self-loop.
    pub fn from_edges<I>(n: usize, edges: I) -> Self
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
    {
        let mut b = GraphBuilder::new(n);
        for (u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Iterator over all node ids `0..n`.
    pub fn nodes(&self) -> std::ops::Range<NodeId> {
        0..self.node_count()
    }

    /// The sorted neighbor list of `u`, as one contiguous CSR slice of
    /// narrow `u32` ids.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[u32] {
        &self.targets[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }

    /// The sorted neighbors of `u` widened to [`NodeId`], for call sites
    /// that index arrays with them.
    #[inline]
    pub fn adj(
        &self,
        u: NodeId,
    ) -> impl DoubleEndedIterator<Item = NodeId> + ExactSizeIterator + '_ {
        self.neighbors(u).iter().map(|&v| v as NodeId)
    }

    /// Degree of `u`.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        (self.offsets[u + 1] - self.offsets[u]) as usize
    }

    /// The raw CSR arrays `(offsets, targets)`, both `u32`.
    ///
    /// `offsets` has `n + 1` entries; node `u`'s neighbors occupy
    /// `targets[offsets[u] as usize..offsets[u + 1] as usize]`. Exposed
    /// for benchmark introspection and bulk kernels; everything else
    /// should go through [`Graph::neighbors`].
    #[inline]
    pub fn csr32(&self) -> (&[u32], &[u32]) {
        (&self.offsets, &self.targets)
    }

    /// Maximum degree `Δ` over all nodes (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.offsets.windows(2).map(|w| (w[1] - w[0]) as usize).max().unwrap_or(0)
    }

    /// Average degree `2|E|/n` (0 for the empty graph).
    pub fn avg_degree(&self) -> f64 {
        if self.node_count() == 0 {
            0.0
        } else {
            2.0 * self.edge_count as f64 / self.node_count() as f64
        }
    }

    /// Whether `u` and `v` are adjacent.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        u != v && self.neighbors(u).binary_search(&(v as u32)).is_ok()
    }

    /// All edges, each reported once with `u < v`, in ascending order.
    pub fn edges(&self) -> Vec<Edge> {
        let mut out = Vec::with_capacity(self.edge_count);
        for u in self.nodes() {
            for v in self.adj(u) {
                if u < v {
                    out.push(Edge::new(u, v));
                }
            }
        }
        out
    }

    /// The subgraph containing only the given edges, on the same node set.
    ///
    /// # Panics
    ///
    /// Panics if an edge is not present in `self`.
    pub fn edge_subgraph<I>(&self, edges: I) -> Graph
    where
        I: IntoIterator<Item = Edge>,
    {
        let mut b = GraphBuilder::new(self.node_count());
        for e in edges {
            let (u, v) = e.endpoints();
            assert!(self.has_edge(u, v), "edge ({u}, {v}) not in graph");
            b.add_edge(u, v);
        }
        b.build()
    }

    /// The *weakly induced* subgraph of a node set `s`: same nodes, but
    /// only the edges with **at least one endpoint in `s`** (the paper's
    /// `G' = (V, E')`).
    ///
    /// # Examples
    ///
    /// ```
    /// use wcds_graph::Graph;
    ///
    /// // path 0-1-2-3; weakly inducing on {1} keeps edges 0-1 and 1-2.
    /// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
    /// let w = g.weakly_induced(&[1]);
    /// assert_eq!(w.edge_count(), 2);
    /// assert!(!w.has_edge(2, 3));
    /// ```
    pub fn weakly_induced(&self, s: &[NodeId]) -> Graph {
        let in_s = self.membership(s);
        self.filtered_rows(|u, v| in_s[u] || in_s[v])
    }

    /// The subgraph *induced* by node set `s`: edges with **both**
    /// endpoints in `s`. The node set is unchanged (non-members become
    /// isolated), so ids remain comparable across graphs.
    pub fn induced(&self, s: &[NodeId]) -> Graph {
        let in_s = self.membership(s);
        self.filtered_rows(|u, v| in_s[u] && in_s[v])
    }

    /// The subgraph keeping exactly the edges `(u, v)` with
    /// `keep(u, v)` true. `keep` must be symmetric. Filters the CSR rows
    /// directly — each output row is a subsequence of a sorted input
    /// row, so no re-sort (and no intermediate edge list) is needed.
    fn filtered_rows(&self, keep: impl Fn(NodeId, NodeId) -> bool) -> Graph {
        let n = self.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut targets = Vec::new();
        for u in 0..n {
            for &v in self.neighbors(u) {
                if keep(u, v as NodeId) {
                    targets.push(v);
                }
            }
            offsets.push(targets.len() as u32);
        }
        let edge_count = targets.len() / 2;
        Graph { offsets, targets, edge_count }
    }

    /// A membership bitmap for a node list.
    ///
    /// # Panics
    ///
    /// Panics if a listed node is out of range.
    pub fn membership(&self, s: &[NodeId]) -> Vec<bool> {
        let mut m = vec![false; self.node_count()];
        for &u in s {
            m[u] = true;
        }
        m
    }

    /// The union of this graph's edges with `other`'s (same node count).
    ///
    /// # Panics
    ///
    /// Panics if node counts differ.
    pub fn union(&self, other: &Graph) -> Graph {
        assert_eq!(self.node_count(), other.node_count(), "node count mismatch");
        let mut set: BTreeSet<Edge> = self.edges().into_iter().collect();
        set.extend(other.edges());
        let mut b = GraphBuilder::new(self.node_count());
        for e in set {
            let (u, v) = e.endpoints();
            b.add_edge(u, v);
        }
        b.build()
    }

    /// Whether `sub`'s edge set is a subset of this graph's.
    pub fn contains_subgraph(&self, sub: &Graph) -> bool {
        sub.node_count() == self.node_count()
            && sub.edges().iter().all(|e| {
                let (u, v) = e.endpoints();
                self.has_edge(u, v)
            })
    }

    /// Assembles a graph from CSR rows (spliced, compacted or built
    /// pair by pair), re-validating the row invariants in debug builds.
    pub(crate) fn from_rows(offsets: Vec<u32>, targets: Vec<u32>, edge_count: usize) -> Graph {
        debug_assert_eq!(offsets.last().map(|&o| o as usize), Some(targets.len()));
        debug_assert_eq!(targets.len(), edge_count * 2);
        debug_assert!(offsets.windows(2).all(|w| {
            let row = &targets[w[0] as usize..w[1] as usize];
            row.windows(2).all(|p| p[0] < p[1])
        }));
        Graph { offsets, targets, edge_count }
    }

    /// A copy of `self` on `n_new` nodes with `added` edges inserted and
    /// `removed` edges deleted — the incremental-mutation fast path.
    ///
    /// `n_new` is the old node count or one more (a splice can append one
    /// node; dropping one is [`Graph::compacted_without`]'s job). Edge
    /// lists are canonical `(u, v)` with `u < v`. Untouched adjacency
    /// rows are copied as bulk spans; only rows incident to a delta edge
    /// are re-merged, preserving the sorted-targets invariant, so the
    /// cost is `O(n + |E|)` worth of `memcpy` plus `O(|Δ| log |Δ|)` of
    /// actual merging — no hashing, no re-sorting of the edge list.
    ///
    /// # Panics
    ///
    /// Panics if `n_new` is out of the allowed range, an endpoint is out
    /// of range, or an edge list is non-canonical. Debug builds also
    /// verify each added edge was absent and each removed edge present.
    pub fn spliced(
        &self,
        n_new: usize,
        added: &[(NodeId, NodeId)],
        removed: &[(NodeId, NodeId)],
    ) -> Graph {
        let n_old = self.node_count();
        assert!(
            n_old == n_new || n_old + 1 == n_new,
            "splice may append at most one node ({n_old} -> {n_new})"
        );
        // group the delta per incident row, both orientations
        let mut patch: BTreeMap<NodeId, (Vec<u32>, Vec<u32>)> = BTreeMap::new();
        for &(u, v) in added {
            assert!(u < v && v < n_new, "added edge ({u}, {v}) not canonical in-range");
            patch.entry(u).or_default().0.push(v as u32);
            patch.entry(v).or_default().0.push(u as u32);
        }
        for &(u, v) in removed {
            assert!(u < v && v < n_old, "removed edge ({u}, {v}) not canonical in-range");
            patch.entry(u).or_default().1.push(v as u32);
            patch.entry(v).or_default().1.push(u as u32);
        }
        for (adds, dels) in patch.values_mut() {
            adds.sort_unstable();
            dels.sort_unstable();
        }
        debug_assert!(
            self.edge_count + added.len() >= removed.len(),
            "removed edges exceed the edge count"
        );
        let edge_count =
            self.edge_count.saturating_add(added.len()).saturating_sub(removed.len());
        assert!(edge_count * 2 <= u32::MAX as usize, "graph too large for u32 CSR offsets");

        let mut offsets = Vec::with_capacity(n_new + 1);
        offsets.push(0u32);
        let mut targets: Vec<u32> = Vec::with_capacity(edge_count * 2);
        let mut row_cursor = 0; // next row still to emit
        let copy_span = |from: usize, to: usize, targets: &mut Vec<u32>, offsets: &mut Vec<u32>| {
            if from >= to {
                return;
            }
            let base = targets.len() as u32;
            let old_base = self.offsets[from];
            targets.extend_from_slice(
                &self.targets[old_base as usize..self.offsets[to] as usize],
            );
            offsets.extend((from + 1..=to).map(|r| base + (self.offsets[r] - old_base)));
        };
        for (&w, (adds, dels)) in &patch {
            copy_span(row_cursor, w.min(n_old), &mut targets, &mut offsets);
            let old_row: &[u32] = if w < n_old { self.neighbors(w) } else { &[] };
            merge_row(old_row, adds, dels, &mut targets);
            offsets.push(targets.len() as u32);
            row_cursor = w + 1;
        }
        copy_span(row_cursor, n_old, &mut targets, &mut offsets);
        offsets.resize(n_new + 1, targets.len() as u32); // appended node with no patch
        Self::from_rows(offsets, targets, edge_count)
    }

    /// A copy of `self` without node `u`: its incident edges vanish and
    /// every id above `u` shifts down by one (the maintenance layer's
    /// id-compaction rule for departures). Rows stay sorted because the
    /// shift is monotone. `O(n + |E|)`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn compacted_without(&self, u: NodeId) -> Graph {
        let n = self.node_count();
        assert!(u < n, "compaction of out-of-range node {u} (n = {n})");
        let victim = u as u32;
        let deg_u = self.degree(u);
        let mut offsets = Vec::with_capacity(n);
        offsets.push(0u32);
        let mut targets = Vec::with_capacity(self.targets.len() - 2 * deg_u);
        for w in self.nodes() {
            if w == u {
                continue;
            }
            for &v in self.neighbors(w) {
                if v != victim {
                    targets.push(if v > victim { v - 1 } else { v });
                }
            }
            offsets.push(targets.len() as u32);
        }
        Self::from_rows(offsets, targets, self.edge_count - deg_u)
    }
}

/// Merges one sorted adjacency row with its sorted add/remove deltas.
fn merge_row(old: &[u32], adds: &[u32], dels: &[u32], out: &mut Vec<u32>) {
    let mut ai = 0;
    let mut di = 0;
    for &v in old {
        while ai < adds.len() && adds[ai] < v {
            out.push(adds[ai]);
            ai += 1;
        }
        debug_assert!(ai >= adds.len() || adds[ai] != v, "added edge already present at {v}");
        if di < dels.len() && dels[di] == v {
            di += 1;
            continue;
        }
        out.push(v);
    }
    out.extend_from_slice(&adds[ai..]);
    debug_assert_eq!(di, dels.len(), "removed edge missing from row");
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("nodes", &self.node_count())
            .field("edges", &self.edge_count)
            .finish()
    }
}

/// Incremental builder for [`Graph`].
///
/// Deduplicates edges and keeps adjacency sorted on
/// [`GraphBuilder::build`].
///
/// # Examples
///
/// ```
/// use wcds_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1);
/// b.add_edge(1, 0); // duplicate, collapsed
/// let g = b.build();
/// assert_eq!(g.edge_count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    /// Canonical `(u, v)` pairs, `u < v`, as narrow as the CSR.
    edges: Vec<(u32, u32)>,
}

impl GraphBuilder {
    /// A builder for a graph on `n` nodes.
    pub fn new(n: usize) -> Self {
        Self { n, edges: Vec::new() }
    }

    /// Adds an undirected edge; duplicates are collapsed at build time.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range endpoints, self-loops, or ids beyond
    /// `u32::MAX`.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> &mut Self {
        assert!(u < self.n && v < self.n, "edge ({u}, {v}) out of range for n = {}", self.n);
        assert_ne!(u, v, "self-loop ({u}, {u})");
        let (lo, hi) = if u < v { (u, v) } else { (v, u) };
        assert!(hi <= u32::MAX as usize, "node ids must fit u32: n = {}", self.n);
        self.edges.push((lo as u32, hi as u32));
        self
    }

    /// Finalises the graph into CSR form.
    ///
    /// Edges added in strictly ascending order (as [`Graph::edges`]
    /// lists them) are scattered as they are; any other order is sorted
    /// and deduplicated on a copy first.
    pub fn build(&self) -> Graph {
        if ascends_strictly(&self.edges) {
            scatter(self.n, &self.edges)
        } else {
            Graph::from_pairs(self.n, self.edges.clone())
        }
    }
}

impl Graph {
    /// The graph on `n` nodes of canonical pairs `(u, v)`, `u < v < n`,
    /// in any order and with repeats. The pairs are sorted and
    /// deduplicated in place, and not at all when they already ascend
    /// strictly, which is how [`crate::io::to_text`] writes them.
    ///
    /// # Panics
    ///
    /// Panics if `n` or twice the distinct pair count exceeds
    /// `u32::MAX`.
    pub(crate) fn from_pairs(n: usize, mut pairs: Vec<(u32, u32)>) -> Graph {
        if !ascends_strictly(&pairs) {
            pairs.sort_unstable();
            pairs.dedup();
        }
        scatter(n, &pairs)
    }
}

fn ascends_strictly(pairs: &[(u32, u32)]) -> bool {
    pairs.is_sorted_by(|a, b| a < b)
}

/// The CSR of strictly ascending canonical pairs: one counting pass
/// sizes the rows, one fill pass writes them. The fill walks the pairs
/// once, appending `v` to row `u` and `u` to row `v`; row `w` therefore
/// receives first its smaller neighbors (ascending, from pairs
/// `(y, w)`) and then its larger ones (ascending, from pairs `(w, x)`),
/// so every row comes out sorted without a per-row sort. Callers
/// range-check the pairs.
fn scatter(n: usize, pairs: &[(u32, u32)]) -> Graph {
    debug_assert!(pairs.iter().all(|&(u, v)| u < v && (v as usize) < n));
    assert!(
        pairs.len() * 2 <= u32::MAX as usize,
        "graph too large for u32 CSR offsets: {} edges",
        pairs.len()
    );
    assert!(n <= u32::MAX as usize, "node ids must fit u32: n = {n}");
    let mut offsets = vec![0u32; n + 1];
    for &(u, v) in pairs {
        for end in [u, v] {
            if let Some(count) = offsets.get_mut(end as usize + 1) {
                *count += 1;
            }
        }
    }
    let mut total = 0;
    for offset in &mut offsets {
        total += *offset;
        *offset = total;
    }
    let mut cursor = offsets.clone();
    let mut targets = vec![0u32; pairs.len() * 2];
    for &(u, v) in pairs {
        for (from, to) in [(u, v), (v, u)] {
            if let Some(at) = cursor.get_mut(from as usize) {
                if let Some(slot) = targets.get_mut(*at as usize) {
                    *slot = to;
                }
                *at += 1;
            }
        }
    }
    Graph::from_rows(offsets, targets, pairs.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> Graph {
        Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn counts_and_degrees() {
        let g = path4();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.max_degree(), 2);
        assert!((g.avg_degree() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.avg_degree(), 0.0);
        assert!(g.edges().is_empty());
    }

    #[test]
    fn zero_node_graph() {
        let g = Graph::empty(0);
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.avg_degree(), 0.0);
    }

    #[test]
    fn has_edge_is_symmetric_and_irreflexive() {
        let g = path4();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert!(!g.has_edge(2, 2));
    }

    #[test]
    fn duplicate_edges_collapse() {
        let g = Graph::from_edges(3, [(0, 1), (1, 0), (0, 1)]);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn neighbors_are_sorted() {
        let g = Graph::from_edges(5, [(2, 4), (2, 0), (2, 3), (2, 1)]);
        assert_eq!(g.neighbors(2), &[0, 1, 3, 4]);
    }

    #[test]
    fn adj_widens_to_node_ids() {
        let g = Graph::from_edges(5, [(2, 4), (2, 0), (2, 3)]);
        let wide: Vec<NodeId> = g.adj(2).collect();
        assert_eq!(wide, vec![0, 3, 4]);
    }

    #[test]
    fn edges_listed_once_ascending() {
        let g = path4();
        let es = g.edges();
        assert_eq!(es.len(), 3);
        assert_eq!(es[0].endpoints(), (0, 1));
        assert_eq!(es[2].endpoints(), (2, 3));
    }

    #[test]
    fn weakly_induced_keeps_incident_edges_only() {
        // star center 0 with leaves 1..4 plus leaf-leaf edge (3,4)
        let g = Graph::from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4), (3, 4)]);
        let w = g.weakly_induced(&[0]);
        assert_eq!(w.edge_count(), 4);
        assert!(!w.has_edge(3, 4));
        assert_eq!(w.node_count(), 5);
    }

    #[test]
    fn weakly_induced_of_all_nodes_is_identity() {
        let g = path4();
        let all: Vec<_> = g.nodes().collect();
        assert_eq!(g.weakly_induced(&all), g);
    }

    #[test]
    fn weakly_induced_matches_builder_reference() {
        // the CSR row filter must reproduce the builder path bit for bit
        let n = 30;
        let edges = scrambled_edges(n, 80, 11);
        let g = Graph::from_edges(n, edges.iter().copied());
        let s: Vec<NodeId> = (0..n).step_by(3).collect();
        let in_s = g.membership(&s);
        let mut b = GraphBuilder::new(n);
        for &(u, v) in &edges {
            if in_s[u] || in_s[v] {
                b.add_edge(u, v);
            }
        }
        assert_eq!(g.weakly_induced(&s), b.build());
    }

    #[test]
    fn induced_requires_both_endpoints() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]);
        let h = g.induced(&[0, 1, 2]);
        assert_eq!(h.edge_count(), 2);
        assert!(h.has_edge(0, 1) && h.has_edge(1, 2));
        assert!(!h.has_edge(2, 3) && !h.has_edge(3, 0));
    }

    #[test]
    fn union_merges_edge_sets() {
        let a = Graph::from_edges(3, [(0, 1)]);
        let b = Graph::from_edges(3, [(1, 2), (0, 1)]);
        let u = a.union(&b);
        assert_eq!(u.edge_count(), 2);
    }

    #[test]
    fn contains_subgraph_checks_edges() {
        let g = path4();
        let sub = Graph::from_edges(4, [(0, 1)]);
        assert!(g.contains_subgraph(&sub));
        let not_sub = Graph::from_edges(4, [(0, 3)]);
        assert!(!g.contains_subgraph(&not_sub));
    }

    #[test]
    fn edge_subgraph_roundtrip() {
        let g = path4();
        let same = g.edge_subgraph(g.edges());
        assert_eq!(same, g);
    }

    #[test]
    #[should_panic(expected = "not in graph")]
    fn edge_subgraph_rejects_foreign_edges() {
        let _ = path4().edge_subgraph([Edge::new(0, 3)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn builder_rejects_out_of_range() {
        GraphBuilder::new(2).add_edge(0, 2);
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", path4()).is_empty());
    }

    /// Pseudo-random edge set over `n` nodes (deterministic LCG).
    fn scrambled_edges(n: usize, count: usize, seed: u64) -> BTreeSet<(NodeId, NodeId)> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut edges = BTreeSet::new();
        while edges.len() < count {
            let u = next() % n;
            let v = next() % n;
            if u != v {
                edges.insert((u.min(v), u.max(v)));
            }
        }
        edges
    }

    #[test]
    fn spliced_matches_from_scratch_build() {
        let n = 40;
        let edges = scrambled_edges(n, 120, 7);
        let g = Graph::from_edges(n, edges.iter().copied());
        // remove every 5th existing edge, add fresh non-edges
        let removed: Vec<_> = edges.iter().copied().step_by(5).collect();
        let added: Vec<_> = scrambled_edges(n, 200, 8)
            .into_iter()
            .filter(|e| !edges.contains(e))
            .take(25)
            .collect();
        let spliced = g.spliced(n, &added, &removed);
        let mut want = edges.clone();
        for e in &removed {
            want.remove(e);
        }
        want.extend(added.iter().copied());
        assert_eq!(spliced, Graph::from_edges(n, want.iter().copied()));
        assert_eq!(spliced.edge_count(), want.len());
    }

    #[test]
    fn spliced_can_append_a_node() {
        let g = path4();
        let joined = g.spliced(5, &[(1, 4), (3, 4)], &[]);
        assert_eq!(joined, Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (1, 4), (3, 4)]));
        let isolated = g.spliced(5, &[], &[]);
        assert_eq!(isolated.node_count(), 5);
        assert_eq!(isolated.degree(4), 0);
        assert_eq!(isolated.edge_count(), 3);
    }

    #[test]
    fn spliced_with_empty_delta_is_identity() {
        let g = path4();
        assert_eq!(g.spliced(4, &[], &[]), g);
    }

    #[test]
    #[should_panic(expected = "at most one node")]
    fn spliced_rejects_node_drops() {
        let _ = path4().spliced(3, &[], &[]);
    }

    #[test]
    fn compacted_without_shifts_ids_down() {
        let n = 30;
        let edges = scrambled_edges(n, 90, 3);
        let g = Graph::from_edges(n, edges.iter().copied());
        for victim in [0, 7, 29] {
            let compacted = g.compacted_without(victim);
            let remapped = edges
                .iter()
                .copied()
                .filter(|&(u, v)| u != victim && v != victim)
                .map(|(u, v)| {
                    (if u > victim { u - 1 } else { u }, if v > victim { v - 1 } else { v })
                });
            assert_eq!(compacted, Graph::from_edges(n - 1, remapped), "victim {victim}");
        }
    }
}
