//! Reusable, epoch-stamped search state for all-sources sweeps.
//!
//! Per-source BFS/Dijkstra over the same graph dominates the workspace's
//! measurement paths (dilation, eccentricity, APSP). Allocating and
//! zeroing fresh `Vec`s for every source costs `O(n)` per source even
//! when a search touches a handful of nodes; [`SearchScratch`] keeps the
//! arrays alive across sources and resets them by bumping an **epoch
//! stamp** instead of clearing — a per-source reset is `O(1)`, and only
//! entries actually written during a search are ever observable.
//!
//! Two further hot-path choices, both invisible through the API:
//!
//! * stamps and values live in one `(stamp, value)` slot array, so a
//!   random-access probe during a relaxation touches one cache line,
//!   not two;
//! * Dijkstra over precomputed [`CsrWeights`] uses a **calendar queue**
//!   (ring of distance buckets of width `max_weight / 8`) instead of a
//!   binary heap. With non-negative bounded weights the label-correcting
//!   bucket scan settles the same fixed point `dist[v] = min over paths
//!   of the float path sum` as heap Dijkstra — IEEE addition of
//!   non-negatives is monotone, so the two produce bit-identical
//!   distance arrays — while replacing `O(log n)` sift steps with `O(1)`
//!   pushes and pops.
//!
//! The scratch holds one hop array and one length array, so a single
//! instance supports one BFS *and* one Dijkstra/DAG pass over the same
//! source concurrently (the dilation engine runs exactly that pair per
//! graph). Use two scratches to sweep two graphs side by side.

use crate::{Graph, NodeId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use wcds_geom::Point;

/// Hints the CPU to pull `p`'s cache line toward L1. A no-op off
/// x86_64; never a memory access in the language sense.
#[inline(always)]
fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch is a pure performance hint with no observable
    // memory effects; it is architecturally valid for any address.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p as *const i8)
    };
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// A `T`-valued array whose entries are valid only if their stamp
/// matches the current epoch; `reset` is `O(1)` (one epoch bump).
#[derive(Debug, Clone)]
struct EpochArray<T> {
    epoch: u32,
    slots: Vec<(u32, T)>,
}

impl<T: Copy + Default> EpochArray<T> {
    fn new(n: usize) -> Self {
        Self { epoch: 1, slots: vec![(0, T::default()); n] }
    }

    fn len(&self) -> usize {
        self.slots.len()
    }

    fn resize(&mut self, n: usize) {
        self.slots.resize(n, (0, T::default()));
    }

    /// Invalidates every entry. `O(1)` except once every `u32::MAX`
    /// resets, when the stamps must be rewound.
    fn reset(&mut self) {
        if self.epoch == u32::MAX {
            for s in &mut self.slots {
                s.0 = 0;
            }
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    #[inline]
    fn set(&mut self, i: usize, v: T) {
        self.slots[i] = (self.epoch, v);
    }

    #[inline]
    fn get(&self, i: usize) -> Option<T> {
        let (stamp, v) = self.slots[i];
        (stamp == self.epoch).then_some(v)
    }

    #[inline]
    fn is_set(&self, i: usize) -> bool {
        self.slots[i].0 == self.epoch
    }

}

/// A max-heap entry ordered so the smallest distance pops first.
#[derive(Debug, Clone, PartialEq)]
struct HeapEntry {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so BinaryHeap (a max-heap) yields the minimum distance;
        // distances are finite (asserted at insertion) — a NaN would
        // only misorder the heap, never panic.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Per-edge weights aligned with a graph's CSR target array, validated
/// once at construction so relaxation loops run assert-free.
///
/// Entry `i` weighs the edge whose head is `targets[i]` in
/// [`Graph::csr32`]. Both directions of an undirected edge carry their
/// own (equal) entry.
#[derive(Debug, Clone)]
pub struct CsrWeights {
    values: Vec<f64>,
    max: f64,
}

impl CsrWeights {
    /// Euclidean edge lengths: `points[i]` is the position of node `i`.
    pub fn euclidean(g: &Graph, points: &[Point]) -> Self {
        assert_eq!(points.len(), g.node_count(), "one point per node required");
        Self::from_fn(g, |u, v| points[u].distance(points[v]))
    }

    /// Arbitrary symmetric weights from `weight(u, v)`.
    ///
    /// # Panics
    ///
    /// Panics if any weight is negative or non-finite.
    pub fn from_fn(g: &Graph, mut weight: impl FnMut(NodeId, NodeId) -> f64) -> Self {
        let (offsets, targets) = g.csr32();
        let mut values = Vec::with_capacity(targets.len());
        let mut max = 0.0f64;
        for u in 0..g.node_count() {
            for &v in &targets[offsets[u] as usize..offsets[u + 1] as usize] {
                let w = weight(u, v as NodeId);
                assert!(w.is_finite() && w >= 0.0, "invalid edge weight {w} on ({u}, {v})");
                max = max.max(w);
                values.push(w);
            }
        }
        Self { values, max }
    }

    /// The flat weight array (CSR edge-slot order).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The largest weight.
    pub fn max_weight(&self) -> f64 {
        self.max
    }
}

/// Ring-bucket count for the calendar queue: the active distance window
/// spans `max_weight`, i.e. `BUCKETS_PER_MAX` buckets plus slack for
/// boundary rounding. The ring is the next power of two so the cursor
/// wraps with a mask instead of a division.
const BUCKETS_PER_MAX: usize = 32;
const RING: usize = 64;

/// Reusable state for repeated single-source searches over graphs of up
/// to a fixed node count.
///
/// One scratch concurrently holds the result of one hop search
/// ([`SearchScratch::bfs`] / [`SearchScratch::min_hop_max_length`]) and
/// one length search ([`SearchScratch::dijkstra`] /
/// [`SearchScratch::geometric`] / the DAG pass of
/// `min_hop_max_length`); starting a new search of either kind
/// invalidates only that kind's previous result.
///
/// # Examples
///
/// ```
/// use wcds_graph::{Graph, SearchScratch};
///
/// let g = Graph::from_edges(4, [(0, 1), (1, 2)]);
/// let mut s = SearchScratch::for_graph(&g);
/// s.bfs(&g, 0);
/// assert_eq!(s.hop(2), Some(2));
/// assert_eq!(s.hop(3), None);
/// s.bfs(&g, 2); // O(1) reset, arrays reused
/// assert_eq!(s.hop(0), Some(2));
/// ```
#[derive(Debug, Clone)]
pub struct SearchScratch {
    hops: EpochArray<u32>,
    /// Length results keyed by `f64::INFINITY` = unreached. Unlike
    /// `hops` this is sentinel- rather than epoch-stamped: an `f64`
    /// value plus a stamp pads the slot to 16 bytes and doubles the
    /// cache pressure of every random relaxation probe, while the
    /// sequential `fill(INFINITY)` reset costs ~`n` streamed bytes —
    /// noise next to the search it precedes.
    lens: Vec<f64>,
    /// BFS queue; after a search it holds the visit order (sorted by
    /// layer, ties by discovery order).
    queue: Vec<NodeId>,
    heap: BinaryHeap<HeapEntry>,
    /// Calendar-queue ring for [`SearchScratch::dijkstra_weighted`].
    buckets: Vec<Vec<(f64, u32)>>,
    /// Drain buffer: the current bucket is swapped out and expanded as a
    /// batch, so the stale checks of a whole batch are independent loads
    /// instead of a pop → check → expand dependency chain.
    spill: Vec<(f64, u32)>,
}

impl SearchScratch {
    /// Scratch for graphs of up to `n` nodes.
    pub fn new(n: usize) -> Self {
        Self {
            hops: EpochArray::new(n),
            lens: vec![f64::INFINITY; n],
            queue: Vec::with_capacity(n),
            heap: BinaryHeap::new(),
            buckets: vec![Vec::new(); RING],
            spill: Vec::new(),
        }
    }

    /// Scratch sized for `g`.
    pub fn for_graph(g: &Graph) -> Self {
        Self::new(g.node_count())
    }

    /// Grows the scratch to cover `n` nodes (no-op if already large
    /// enough). Invalidates previous results.
    pub fn ensure(&mut self, n: usize) {
        if self.hops.len() < n {
            self.hops.resize(n);
            self.lens.resize(n, f64::INFINITY);
        }
        self.hops.reset();
        self.lens.fill(f64::INFINITY);
    }

    /// Single-source BFS; afterwards [`SearchScratch::hop`] reports hop
    /// distances and [`SearchScratch::visit_order`] the traversal order.
    pub fn bfs(&mut self, g: &Graph, source: NodeId) {
        self.multi_bfs(g, std::iter::once(source));
    }

    /// [`SearchScratch::bfs`] that may stop early once every *reachable*
    /// node with id `>= min_id` has its final hop distance (a BFS hop is
    /// final at discovery). All-sources pair sweeps that consume only
    /// pairs `(source, v ≥ min_id)` skip the tail of each traversal;
    /// passing `min_id = 0` still requires discovering every reachable
    /// node and so degenerates to a full BFS.
    ///
    /// After an early stop, hops of nodes `< min_id` may be missing even
    /// when reachable, and [`SearchScratch::visit_order`] covers only
    /// the discovered prefix. `hop(v) == None` for `v >= min_id` still
    /// means exactly "unreachable" — the stop happens only once no such
    /// node is outstanding.
    pub fn bfs_covering(&mut self, g: &Graph, source: NodeId, min_id: NodeId) {
        assert!(g.node_count() <= self.hops.len(), "scratch too small");
        let n = g.node_count();
        self.hops.reset();
        self.queue.clear();
        self.hops.set(source, 0);
        self.queue.push(source);
        let mut remaining = n - min_id.min(n) - usize::from(source >= min_id);
        if remaining == 0 {
            return;
        }
        let (offsets, targets) = g.csr32();
        let epoch = self.hops.epoch;
        let slots = self.hops.slots.as_mut_slice();
        let queue = &mut self.queue;
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            // SAFETY: as in `multi_bfs` — queue entries and CSR targets
            // are node ids `< n <= slots.len()`, offsets bound targets.
            let du = unsafe { slots.get_unchecked(u).1 };
            let (s, e) = unsafe {
                (*offsets.get_unchecked(u) as usize, *offsets.get_unchecked(u + 1) as usize)
            };
            for i in s..e {
                let v = unsafe { *targets.get_unchecked(i) } as usize;
                let slot = unsafe { slots.get_unchecked_mut(v) };
                if slot.0 != epoch {
                    *slot = (epoch, du + 1);
                    queue.push(v);
                    if v >= min_id {
                        remaining -= 1;
                        if remaining == 0 {
                            return;
                        }
                    }
                }
            }
        }
    }

    /// Multi-source BFS from the nearest of several sources.
    pub fn multi_bfs<I>(&mut self, g: &Graph, sources: I)
    where
        I: IntoIterator<Item = NodeId>,
    {
        assert!(g.node_count() <= self.hops.len(), "scratch too small");
        self.hops.reset();
        self.queue.clear();
        for s in sources {
            if !self.hops.is_set(s) {
                self.hops.set(s, 0);
                self.queue.push(s);
            }
        }
        let (offsets, targets) = g.csr32();
        let epoch = self.hops.epoch;
        let slots = self.hops.slots.as_mut_slice();
        let queue = &mut self.queue;
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            // SAFETY: queue entries and CSR targets are node ids
            // `< node_count <= slots.len()` (asserted above); `u + 1 <
            // offsets.len()` and offsets bound `targets` by CSR
            // construction.
            let du = unsafe { slots.get_unchecked(u).1 };
            let (s, e) = unsafe {
                (*offsets.get_unchecked(u) as usize, *offsets.get_unchecked(u + 1) as usize)
            };
            for i in s..e {
                let v = unsafe { *targets.get_unchecked(i) } as usize;
                let slot = unsafe { slots.get_unchecked_mut(v) };
                if slot.0 != epoch {
                    *slot = (epoch, du + 1);
                    queue.push(v);
                }
            }
        }
    }

    /// Hop distance of `v` from the last BFS's source(s), `None` if
    /// unreachable.
    #[inline]
    pub fn hop(&self, v: NodeId) -> Option<u32> {
        self.hops.get(v)
    }

    /// Nodes reached by the last hop search, in visit order (layer by
    /// layer, discovery order within a layer).
    #[inline]
    pub fn visit_order(&self) -> &[NodeId] {
        &self.queue
    }

    /// Dijkstra from `source` over non-negative symmetric edge weights;
    /// afterwards [`SearchScratch::len_of`] reports distances.
    ///
    /// For repeated sweeps over the same graph, precompute the weights
    /// once and use the faster [`SearchScratch::dijkstra_weighted`].
    ///
    /// # Panics
    ///
    /// Panics if a weight is negative or non-finite.
    pub fn dijkstra<W>(&mut self, g: &Graph, source: NodeId, mut weight: W)
    where
        W: FnMut(NodeId, NodeId) -> f64,
    {
        assert!(g.node_count() <= self.lens.len(), "scratch too small");
        self.lens.fill(f64::INFINITY);
        self.heap.clear();
        self.lens[source] = 0.0;
        self.heap.push(HeapEntry { dist: 0.0, node: source });
        while let Some(HeapEntry { dist: du, node: u }) = self.heap.pop() {
            if self.lens[u] < du {
                continue; // stale entry
            }
            for v in g.adj(u) {
                let w = weight(u, v);
                assert!(w.is_finite() && w >= 0.0, "invalid edge weight {w} on ({u}, {v})");
                let cand = du + w;
                if cand < self.lens[v] {
                    self.lens[v] = cand;
                    self.heap.push(HeapEntry { dist: cand, node: v });
                }
            }
        }
    }

    /// Dijkstra over weights precomputed with [`CsrWeights`], using the
    /// calendar queue. Produces bit-identical distances to
    /// [`SearchScratch::dijkstra`] with the same weights (see the module
    /// docs for why), at a fraction of the queue cost.
    pub fn dijkstra_weighted(&mut self, g: &Graph, weights: &CsrWeights, source: NodeId) {
        self.dijkstra_weighted_radius(g, weights, source, f64::INFINITY);
    }

    /// [`SearchScratch::dijkstra_weighted`] that may stop once every
    /// node within distance `radius` of the source is settled.
    ///
    /// Distances of nodes `v` with `dist(source, v) <= radius` are
    /// **final and bit-identical** to a full run: buckets are drained in
    /// order, so when the cursor passes the bucket containing `radius`,
    /// every shorter path has been fully relaxed (the standard Dial /
    /// delta-stepping invariant — entry bucketing uses the same rounding
    /// as the cutoff, and IEEE multiply is monotone). Nodes beyond the
    /// radius may be unreached (`None`) or carry a not-yet-final
    /// overestimate, so callers must only read nodes they can certify
    /// are within `radius`. Pass `f64::INFINITY` for an ordinary full
    /// search.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is NaN.
    pub fn dijkstra_weighted_radius(
        &mut self,
        g: &Graph,
        weights: &CsrWeights,
        source: NodeId,
        radius: f64,
    ) {
        assert!(g.node_count() <= self.lens.len(), "scratch too small");
        assert_eq!(weights.values.len(), g.csr32().1.len(), "weights/graph mismatch");
        assert!(!radius.is_nan(), "radius must not be NaN");
        self.lens.fill(f64::INFINITY);
        let (offsets, targets) = g.csr32();
        let w = weights.values.as_slice();
        // bucket width: max weight spans BUCKETS_PER_MAX buckets; a
        // zero-weight graph degenerates to a plain FIFO in bucket 0
        let delta = if weights.max > 0.0 { weights.max / BUCKETS_PER_MAX as f64 } else { 1.0 };
        let inv_delta = 1.0 / delta;
        let mut spill = std::mem::take(&mut self.spill);
        let lens = self.lens.as_mut_slice();
        let buckets = self.buckets.as_mut_slice();
        for b in buckets.iter_mut() {
            b.clear();
        }
        lens[source] = 0.0;
        buckets[0].push((0.0, source as u32));
        // last bucket that can hold a path of length <= radius, under
        // the same `(d * inv_delta) as u64` rounding pushes use (the
        // saturating cast maps an infinite radius to u64::MAX)
        let k_stop = (radius * inv_delta) as u64;
        let mut live = 1usize;
        let mut k = 0u64; // absolute index of the current bucket
        while live > 0 {
            if buckets[k as usize & (RING - 1)].is_empty() {
                k += 1;
                if k > k_stop {
                    break; // everything within `radius` is settled
                }
                continue;
            }
            // Drain the whole bucket as a batch: the batch's stale
            // checks become independent loads (no pop → check → expand
            // chain), and upcoming expansions can be prefetched.
            // Entries this batch pushes back into bucket `k` land in
            // the (empty) swapped-in vector and are drained before the
            // cursor advances, exactly as per-entry popping would.
            std::mem::swap(&mut buckets[k as usize & (RING - 1)], &mut spill);
            live -= spill.len();
            for j in 0..spill.len() {
                // SAFETY: bucket entries and CSR targets are node ids
                // `< node_count <= lens.len()` (asserted above); offsets
                // bound `targets`, `w` has `targets`' length (asserted
                // above), masked ring indices are `< RING ==
                // buckets.len()`, and `j + 2` is bounds-checked before
                // the prefetch address computation (a prefetch itself
                // has no memory effects either way).
                let (du, u) = unsafe { *spill.get_unchecked(j) };
                if j + 2 < spill.len() {
                    let ahead = unsafe { spill.get_unchecked(j + 2) }.1 as usize;
                    prefetch(unsafe { lens.as_ptr().add(ahead) });
                    prefetch(unsafe { offsets.as_ptr().add(ahead) });
                }
                let u = u as usize;
                if unsafe { *lens.get_unchecked(u) } < du {
                    continue; // improved since pushed
                }
                let (s, e) = unsafe {
                    (*offsets.get_unchecked(u) as usize, *offsets.get_unchecked(u + 1) as usize)
                };
                for i in s..e {
                    let v = unsafe { *targets.get_unchecked(i) } as usize;
                    let cand = du + unsafe { *w.get_unchecked(i) };
                    let slot = unsafe { lens.get_unchecked_mut(v) };
                    if cand < *slot {
                        *slot = cand;
                        // cand ≥ du ⇒ its bucket is ≥ k mathematically;
                        // the max() guards the float-rounding boundary
                        // case, which would otherwise park the entry
                        // behind the cursor and hang the drain loop
                        let kb = ((cand * inv_delta) as u64).max(k);
                        unsafe { buckets.get_unchecked_mut(kb as usize & (RING - 1)) }
                            .push((cand, v as u32));
                        live += 1;
                    }
                }
            }
            spill.clear();
        }
        self.spill = spill;
    }

    /// Dijkstra over Euclidean edge lengths: the paper's `ℓ_G(u, ·)`.
    pub fn geometric(&mut self, g: &Graph, points: &[Point], source: NodeId) {
        self.dijkstra(g, source, |u, v| points[u].distance(points[v]));
    }

    /// For every node: the **maximum** Euclidean length over all
    /// *minimum-hop* paths from `source` (the paper's `ℓ_G'(u, ·)`).
    ///
    /// Fills both results: hop distances (as after
    /// [`SearchScratch::bfs`]) and lengths (as after
    /// [`SearchScratch::dijkstra`]). The BFS visit order doubles as the
    /// topological order of the shortest-path DAG, so no sort is needed.
    pub fn min_hop_max_length(&mut self, g: &Graph, points: &[Point], source: NodeId) {
        let weights = CsrWeights::euclidean(g, points);
        self.min_hop_max_length_weighted(g, &weights, source);
    }

    /// [`SearchScratch::min_hop_max_length`] over precomputed weights
    /// (`ℓ_G'` generalised to arbitrary non-negative lengths).
    ///
    /// Runs the BFS and the DAG relaxation **fused in one pass**: when
    /// `u` is dequeued every layer-`h(u)−1` predecessor has already been
    /// dequeued (BFS pops whole layers in order), so `u`'s length is
    /// final and can be propagated to layer `h(u)+1` immediately. The
    /// relaxations happen in the same order as the two-pass version
    /// (dequeue order = visit order, rows in CSR order), so the results
    /// are bit-identical.
    pub fn min_hop_max_length_weighted(
        &mut self,
        g: &Graph,
        weights: &CsrWeights,
        source: NodeId,
    ) {
        // min_id = n: no node qualifies for the early stop, full drain
        self.min_hop_core(g, weights, source, g.node_count());
    }

    /// [`SearchScratch::min_hop_max_length_weighted`] that may stop
    /// early once every reachable node with id `>= min_id` has final
    /// results. Unlike plain BFS, the max-length value of a node is
    /// final only when the node is **dequeued** (all its previous-layer
    /// predecessors have relaxed it), so the stop triggers on dequeues.
    /// The same caveats as [`SearchScratch::bfs_covering`] apply to
    /// nodes `< min_id`.
    pub fn min_hop_max_length_covering(
        &mut self,
        g: &Graph,
        weights: &CsrWeights,
        source: NodeId,
        min_id: NodeId,
    ) {
        self.min_hop_core(g, weights, source, min_id);
    }

    fn min_hop_core(&mut self, g: &Graph, weights: &CsrWeights, source: NodeId, min_id: usize) {
        assert!(g.node_count() <= self.hops.len(), "scratch too small");
        assert_eq!(weights.values.len(), g.csr32().1.len(), "weights/graph mismatch");
        let (offsets, targets) = g.csr32();
        let w = weights.values.as_slice();
        self.hops.reset();
        self.lens.fill(f64::INFINITY);
        self.queue.clear();
        self.hops.set(source, 0);
        self.lens[source] = 0.0;
        self.queue.push(source);
        let hop_epoch = self.hops.epoch;
        let slots = self.hops.slots.as_mut_slice();
        let lens = self.lens.as_mut_slice();
        let queue = &mut self.queue;
        let mut remaining = g.node_count() - min_id.min(g.node_count());
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            if u >= min_id {
                // u's length is final at dequeue; once the last id of
                // interest is final, the rest of the sweep is unused
                remaining -= 1;
                if remaining == 0 {
                    return;
                }
            }
            // SAFETY: queue entries and CSR targets are node ids
            // `< node_count <= slots.len()` (asserted above); offsets
            // bound `targets`, and `w` has `targets`' length (asserted
            // above).
            let du = unsafe { slots.get_unchecked(u).1 };
            let lu = unsafe { *lens.get_unchecked(u) };
            // an already-visited neighbor one layer further down has
            // exactly this slot content
            let next_layer = (hop_epoch, du + 1);
            let (s, e) = unsafe {
                (*offsets.get_unchecked(u) as usize, *offsets.get_unchecked(u + 1) as usize)
            };
            for i in s..e {
                let v = unsafe { *targets.get_unchecked(i) } as usize;
                let wv = unsafe { *w.get_unchecked(i) };
                let hop_slot = unsafe { slots.get_unchecked_mut(v) };
                if hop_slot.0 != hop_epoch {
                    *hop_slot = next_layer;
                    unsafe { *lens.get_unchecked_mut(v) = lu + wv };
                    queue.push(v);
                } else {
                    // Branchless max-update: whether v sits one layer
                    // down and whether the candidate wins are both
                    // data-dependent coin flips, so a conditional jump
                    // here mispredicts constantly; a select plus an
                    // unconditional store does not.
                    let cand = lu + wv;
                    let len_slot = unsafe { lens.get_unchecked_mut(v) };
                    let upd = (*hop_slot == next_layer) & (cand > *len_slot);
                    *len_slot = if upd { cand } else { *len_slot };
                }
            }
        }
    }

    /// Length distance of `v` from the last length search's source,
    /// `None` if unreachable.
    #[inline]
    pub fn len_of(&self, v: NodeId) -> Option<f64> {
        let l = self.lens[v];
        (l != f64::INFINITY).then_some(l)
    }

    /// Copies the hop results into the allocating `Vec<Option<u32>>`
    /// shape used by the public traversal API.
    pub fn hops_to_vec(&self, n: usize) -> Vec<Option<u32>> {
        (0..n).map(|v| self.hops.get(v)).collect()
    }

    /// Copies the length results into the allocating `Vec<Option<f64>>`
    /// shape used by the public shortest-path API.
    pub fn lens_to_vec(&self, n: usize) -> Vec<Option<f64>> {
        (0..n).map(|v| self.len_of(v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn bfs_matches_public_api_across_reuse() {
        let g = generators::connected_gnp(80, 0.06, 5);
        let mut s = SearchScratch::for_graph(&g);
        for src in [0, 17, 63, 0, 41] {
            s.bfs(&g, src);
            let want = crate::traversal::bfs_distances(&g, src);
            for v in g.nodes() {
                assert_eq!(s.hop(v), want[v], "source {src}, node {v}");
            }
        }
    }

    #[test]
    fn visit_order_is_layer_monotone() {
        let g = generators::connected_gnp(60, 0.1, 2);
        let mut s = SearchScratch::for_graph(&g);
        s.bfs(&g, 3);
        let order = s.visit_order();
        assert_eq!(order.len(), 60, "connected graph fully visited");
        for w in order.windows(2) {
            assert!(s.hop(w[0]).unwrap() <= s.hop(w[1]).unwrap());
        }
    }

    #[test]
    fn bfs_and_dijkstra_coexist_in_one_scratch() {
        let g = generators::cycle(9);
        let mut s = SearchScratch::for_graph(&g);
        s.bfs(&g, 0);
        s.dijkstra(&g, 0, |_, _| 2.5);
        for v in g.nodes() {
            // both result sets remain readable
            assert_eq!(s.len_of(v), s.hop(v).map(|h| h as f64 * 2.5), "node {v}");
        }
    }

    #[test]
    fn unreachable_nodes_stay_unset_after_reuse() {
        let g = Graph::from_edges(5, [(0, 1), (2, 3)]);
        let mut s = SearchScratch::for_graph(&g);
        s.bfs(&g, 0);
        assert_eq!(s.hop(2), None);
        s.bfs(&g, 2);
        // stale entries from the previous epoch must not leak
        assert_eq!(s.hop(0), None);
        assert_eq!(s.hop(4), None);
        assert_eq!(s.hop(3), Some(1));
    }

    #[test]
    fn epoch_wrap_resets_cleanly() {
        let g = generators::path(4);
        let mut s = SearchScratch::for_graph(&g);
        // force the wrap path
        s.hops.epoch = u32::MAX - 1;
        s.bfs(&g, 0); // epoch -> MAX
        assert_eq!(s.hop(3), Some(3));
        s.bfs(&g, 3); // wraps
        assert_eq!(s.hop(0), Some(3));
        assert_eq!(s.hop(3), Some(0));
    }

    #[test]
    fn scratch_grows_on_demand() {
        let small = generators::path(3);
        let big = generators::path(50);
        let mut s = SearchScratch::for_graph(&small);
        s.bfs(&small, 0);
        s.ensure(big.node_count());
        s.bfs(&big, 0);
        assert_eq!(s.hop(49), Some(49));
    }

    #[test]
    fn csr_weights_align_with_rows() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (0, 3)]);
        let w = CsrWeights::from_fn(&g, |u, v| (u + v) as f64);
        let (offsets, targets) = g.csr32();
        for u in g.nodes() {
            let row = offsets[u] as usize..offsets[u + 1] as usize;
            for (&weight, &v) in w.values()[row.clone()].iter().zip(&targets[row]) {
                assert_eq!(weight, (u + v as usize) as f64);
            }
        }
        assert_eq!(w.max_weight(), 3.0);
    }

    #[test]
    #[should_panic(expected = "invalid edge weight")]
    fn csr_weights_reject_negative() {
        let g = generators::path(3);
        let _ = CsrWeights::from_fn(&g, |_, _| -1.0);
    }

    #[test]
    fn bucket_dijkstra_bit_identical_to_heap() {
        // random weighted graphs: the calendar queue must reproduce the
        // heap's distance array exactly, not approximately
        for seed in 0..12u64 {
            let g = generators::connected_gnp(70, 0.08, seed);
            // deterministic pseudo-random weights in (0, 1]
            let wf = |u: usize, v: usize| {
                let h = (u.min(v) * 31 + u.max(v)) as u64 ^ (seed << 7);
                let x = h.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11;
                (x as f64 / (1u64 << 53) as f64).max(1e-6)
            };
            let weights = CsrWeights::from_fn(&g, wf);
            let mut a = SearchScratch::for_graph(&g);
            let mut b = SearchScratch::for_graph(&g);
            for src in [0usize, 33, 69] {
                a.dijkstra(&g, src, wf);
                b.dijkstra_weighted(&g, &weights, src);
                for v in g.nodes() {
                    assert_eq!(
                        a.len_of(v).map(f64::to_bits),
                        b.len_of(v).map(f64::to_bits),
                        "seed {seed}, source {src}, node {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn bucket_dijkstra_handles_zero_and_equal_weights() {
        let g = generators::cycle(10);
        let zero = CsrWeights::from_fn(&g, |_, _| 0.0);
        let mut s = SearchScratch::for_graph(&g);
        s.dijkstra_weighted(&g, &zero, 0);
        for v in g.nodes() {
            assert_eq!(s.len_of(v), Some(0.0), "node {v}");
        }
        let unit = CsrWeights::from_fn(&g, |_, _| 1.0);
        s.dijkstra_weighted(&g, &unit, 0);
        assert_eq!(s.len_of(5), Some(5.0));
        assert_eq!(s.len_of(9), Some(1.0));
    }

    #[test]
    fn radius_bounded_dijkstra_is_final_within_radius() {
        // every node whose full-search distance is <= radius must carry
        // exactly that distance (bitwise) after the bounded search
        for seed in 0..8u64 {
            let g = generators::connected_gnp(80, 0.07, seed);
            let wf = |u: usize, v: usize| {
                let h = (u.min(v) * 37 + u.max(v)) as u64 ^ (seed << 9);
                let x = h.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11;
                (x as f64 / (1u64 << 53) as f64).max(1e-6)
            };
            let weights = CsrWeights::from_fn(&g, wf);
            let mut full = SearchScratch::for_graph(&g);
            full.dijkstra_weighted(&g, &weights, 0);
            let want = full.lens_to_vec(g.node_count());
            let max_d = want.iter().flatten().fold(0.0f64, |a, &b| a.max(b));
            let mut bounded = SearchScratch::for_graph(&g);
            for radius in [0.0, max_d * 0.3, max_d * 0.7, max_d, f64::INFINITY] {
                bounded.dijkstra_weighted_radius(&g, &weights, 0, radius);
                for v in g.nodes() {
                    if let Some(d) = want[v] {
                        if d <= radius {
                            assert_eq!(
                                bounded.len_of(v).map(f64::to_bits),
                                Some(d.to_bits()),
                                "seed {seed}, radius {radius}, node {v}"
                            );
                        } else if let Some(got) = bounded.len_of(v) {
                            // beyond the radius only overestimates may appear
                            assert!(got >= d, "seed {seed}, radius {radius}, node {v}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn radius_zero_still_settles_the_source() {
        let g = generators::path(5);
        let unit = CsrWeights::from_fn(&g, |_, _| 1.0);
        let mut s = SearchScratch::for_graph(&g);
        s.dijkstra_weighted_radius(&g, &unit, 2, 0.0);
        assert_eq!(s.len_of(2), Some(0.0));
    }

    #[test]
    fn radius_dijkstra_with_unreachable_nodes() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (3, 4)]);
        let unit = CsrWeights::from_fn(&g, |_, _| 1.0);
        let mut s = SearchScratch::for_graph(&g);
        s.dijkstra_weighted_radius(&g, &unit, 0, f64::INFINITY);
        assert_eq!(s.len_of(2), Some(2.0));
        assert_eq!(s.len_of(3), None);
        s.dijkstra_weighted_radius(&g, &unit, 0, 1.0);
        assert_eq!(s.len_of(1), Some(1.0));
        assert_eq!(s.len_of(4), None);
    }

    #[test]
    fn covering_bfs_matches_full_bfs_on_covered_ids() {
        for seed in 0..8u64 {
            let g = generators::connected_gnp(60, 0.08, seed);
            let mut full = SearchScratch::for_graph(&g);
            let mut cov = SearchScratch::for_graph(&g);
            for src in [0usize, 29, 59] {
                full.bfs(&g, src);
                for min_id in [0usize, src, 30, 59] {
                    cov.bfs_covering(&g, src, min_id);
                    for v in min_id..g.node_count() {
                        assert_eq!(
                            cov.hop(v),
                            full.hop(v),
                            "seed {seed}, src {src}, min_id {min_id}, node {v}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn covering_bfs_on_disconnected_graph() {
        let g = Graph::from_edges(6, [(0, 1), (1, 2), (4, 5)]);
        let mut s = SearchScratch::for_graph(&g);
        s.bfs_covering(&g, 0, 3);
        // ids >= 3 in the source's component don't exist; the sweep must
        // terminate and report the reachable ones it saw correctly
        assert_eq!(s.hop(4), None);
        assert_eq!(s.hop(5), None);
    }

    #[test]
    fn covering_min_hop_matches_full_on_covered_ids() {
        use wcds_geom::deploy;
        for seed in 0..6u64 {
            let pts = deploy::uniform(70, 4.5, 4.5, seed);
            let udg = crate::UnitDiskGraph::build(pts, 1.0);
            let g = udg.graph();
            let weights = CsrWeights::euclidean(g, udg.points());
            let mut full = SearchScratch::for_graph(g);
            let mut cov = SearchScratch::for_graph(g);
            for src in [0usize, 35, 69] {
                full.min_hop_max_length_weighted(g, &weights, src);
                for min_id in [0usize, src, 40] {
                    cov.min_hop_max_length_covering(g, &weights, src, min_id);
                    for v in min_id..g.node_count() {
                        assert_eq!(
                            cov.len_of(v).map(f64::to_bits),
                            full.len_of(v).map(f64::to_bits),
                            "seed {seed}, src {src}, min_id {min_id}, node {v}"
                        );
                        assert_eq!(cov.hop(v), full.hop(v), "hops: seed {seed}, node {v}");
                    }
                }
            }
        }
    }

    #[test]
    fn weighted_min_hop_matches_closure_version() {
        use wcds_geom::deploy;
        let pts = deploy::uniform(90, 5.0, 5.0, 4);
        let udg = crate::UnitDiskGraph::build(pts, 1.0);
        let g = udg.graph();
        let weights = CsrWeights::euclidean(g, udg.points());
        let mut s = SearchScratch::for_graph(g);
        for src in [0usize, 44, 89] {
            s.min_hop_max_length_weighted(g, &weights, src);
            let fast = s.lens_to_vec(g.node_count());
            let want = crate::shortest_path::min_hop_max_length(g, udg.points(), src);
            assert_eq!(
                fast.iter().map(|x| x.map(f64::to_bits)).collect::<Vec<_>>(),
                want.iter().map(|x| x.map(f64::to_bits)).collect::<Vec<_>>(),
                "source {src}"
            );
        }
    }
}
