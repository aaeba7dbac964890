//! Topological and geometric dilation of a spanner (§3, Theorem 11).
//!
//! For a spanner `G'` of `G` and non-adjacent `u, v`:
//!
//! * **topological dilation** compares minimum hop counts:
//!   `h'(u, v)` vs `h(u, v)`; Theorem 11 proves `h' ≤ 3h + 2` for
//!   Algorithm II's spanner;
//! * **geometric dilation** compares the worst-case Euclidean length of
//!   a *minimum-hop* path in `G'` against the length of a
//!   minimum-distance path in `G`; Lemma 6 turns the affine hop bound
//!   `h' ≤ αh + β` into `ℓ' < 2αℓ + 2α + β`, giving `ℓ' ≤ 6ℓ + 5`.
//!
//! [`DilationReport::measure`] computes the exact maxima over all
//! non-adjacent connected pairs (an `O(n·(n+|E|))` sweep of BFS /
//! Dijkstra / shortest-path-DAG passes), plus the affine-bound checks
//! with their worst witnesses.
//!
//! The sweep is per-source parallel (the `rayon` feature; see
//! [`wcds_graph::parallel`]): each source yields an independent partial
//! over its pairs, and the partials are folded **serially in source
//! order** with the same strict-improvement comparisons a serial scan
//! performs — so the report is byte-identical whatever the thread count.

use wcds_graph::{parallel, CsrWeights, Graph, NodeId, SearchScratch};
use wcds_geom::Point;

/// Worst-case pair evidence for one dilation metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorstPair {
    /// One endpoint.
    pub u: NodeId,
    /// Other endpoint.
    pub v: NodeId,
    /// Metric value in the base graph `G`.
    pub in_graph: f64,
    /// Metric value in the spanner `G'`.
    pub in_spanner: f64,
}

/// Per-source accumulator of one `measure` worker (pairs `(u, v > u)`
/// for a single `u`).
#[derive(Debug, Clone, Default)]
struct SourcePartial {
    topological: Option<WorstPair>,
    geometric: Option<WorstPair>,
    topo_slack: Option<f64>,
    geo_slack: Option<f64>,
    /// First `(u, v)` the spanner disconnects while `G` connects it —
    /// reported by panic from the fold, on the caller's thread.
    disconnected: Option<(NodeId, NodeId)>,
}

/// Sources measured exactly (full Dijkstra, no filtering) before the
/// sweep, to seed [`GeoThresholds`] with achieved values.
const GEO_PREPASS_SOURCES: usize = 8;

/// Relative margin for the squared filter comparisons: a pair is only
/// skipped when its bound holds with this much room, so float rounding
/// in the squared test can never skip a pair whose real ratio/slack
/// ties or beats the current extreme.
const GEO_FILTER_MARGIN: f64 = 1e-6;

/// Certified lower bound on the final worst geometric ratio and upper
/// bound on the final worst geometric slack — values some earlier pair
/// *achieved*, so the true extremes are at least this extreme.
///
/// They license skipping `ℓ_G(u, v)` for pairs that provably cannot
/// improve either metric. Two facts make cheap per-pair bounds
/// available *before* running Dijkstra in `G`:
///
/// * `ℓ_G(u, v) ≥ |uv|` — every `G`-path is at least the straight-line
///   distance (triangle inequality);
/// * `ℓ_G(u, v) ≤ ℓ_{G'}(u, v)` — `G' ⊆ G`, so the spanner's min-hop
///   path is also a `G`-path, and the minimum over all `G`-paths can
///   only be shorter.
///
/// Hence `ℓ'/ℓ_G ≤ ℓ'/|uv|`: if even that overestimate is strictly
/// below the achieved ratio, the pair cannot set a new maximum. And
/// `6ℓ_G + 5 − ℓ' ≥ 6|uv| + 5 − ℓ'`: if that underestimate is strictly
/// above the achieved slack, the pair cannot set a new minimum. Both
/// tests compare squares (no per-pair sqrt) with [`GEO_FILTER_MARGIN`]
/// slop, so a skip implies the *strict* real inequality. Skipped pairs
/// therefore change neither the extreme values nor their first-achiever
/// witnesses, keeping the filtered report byte-identical to the
/// unfiltered one. The thresholds are fixed before the parallel sweep
/// starts, so the skip set is deterministic and thread-count
/// independent.
#[derive(Debug, Clone, Copy, Default)]
struct GeoThresholds {
    /// An achieved `ℓ'/ℓ_G` ratio (`None` until any pair qualifies).
    ratio: Option<f64>,
    /// An achieved `6ℓ_G + 5 − ℓ'` slack.
    slack: Option<f64>,
}

impl GeoThresholds {
    /// Tightens the thresholds with the extremes a prepass source
    /// achieved.
    fn absorb(&mut self, p: &SourcePartial) {
        if let Some(w) = p.geometric {
            let r = w.in_spanner / w.in_graph;
            if self.ratio.is_none_or(|t| r > t) {
                self.ratio = Some(r);
            }
        }
        if let Some(s) = p.geo_slack {
            if self.slack.is_none_or(|t| s < t) {
                self.slack = Some(s);
            }
        }
    }
}

/// Serial fold of per-source partials in source order: replicates
/// exactly the decisions a single-threaded u-then-v scan would make
/// (strict improvement only), so parallel and serial reports are
/// byte-identical.
///
/// # Panics
///
/// Panics if any partial recorded a pair the spanner disconnects.
fn fold_partials(partials: Vec<SourcePartial>) -> DilationReport {
    let mut topological: Option<WorstPair> = None;
    let mut geometric: Option<WorstPair> = None;
    let mut topo_slack: Option<f64> = None;
    let mut geo_slack: Option<f64> = None;
    for p in partials {
        if let Some((u, v)) = p.disconnected {
            panic!("spanner disconnects pair ({u}, {v}) that G connects");
        }
        if let Some(w) = p.topological {
            let r = w.in_spanner / w.in_graph;
            if topological.is_none_or(|b| r > b.in_spanner / b.in_graph) {
                topological = Some(w);
            }
        }
        if let Some(s) = p.topo_slack {
            if topo_slack.is_none_or(|b| s < b) {
                topo_slack = Some(s);
            }
        }
        if let Some(w) = p.geometric {
            let r = w.in_spanner / w.in_graph;
            if geometric.is_none_or(|b| r > b.in_spanner / b.in_graph) {
                geometric = Some(w);
            }
        }
        if let Some(s) = p.geo_slack {
            if geo_slack.is_none_or(|b| s < b) {
                geo_slack = Some(s);
            }
        }
    }
    DilationReport { topological, geometric, topo_bound_slack: topo_slack, geo_bound_slack: geo_slack }
}

/// One source's share of [`DilationReport::measure`]: hop metrics for
/// all pairs `(u, v > u)` — or all pairs `(u, v ≠ u)` when `all_pairs`
/// is set (the sampled estimator, where `u`'s pairs with unsampled
/// `v < u` would otherwise never be seen) — geometric metrics via a
/// radius-bounded Dijkstra restricted to the pairs [`GeoThresholds`]
/// cannot rule out.
///
/// `needed` is caller-owned scratch (cleared here) listing `(v, ℓ')`
/// for the surviving pairs.
#[allow(clippy::too_many_arguments)] // private kernel; bundling into a struct would just rename the list
fn measure_source(
    g: &Graph,
    spanner: &Graph,
    points: &[Point],
    len_g: &CsrWeights,
    len_s: &CsrWeights,
    sg: &mut SearchScratch,
    ss: &mut SearchScratch,
    needed: &mut Vec<(NodeId, f64)>,
    u: NodeId,
    thr: GeoThresholds,
    all_pairs: bool,
) -> SourcePartial {
    let n = g.node_count();
    // sg: hops + geometric lengths in G; ss: min-hop max lengths (and
    // spanner hops) in G'. Only pairs with id ≥ cover are consumed, so
    // the hop sweeps may stop once those ids are final.
    let cover = if all_pairs { 0 } else { u };
    sg.bfs_covering(g, u, cover);
    ss.min_hop_max_length_covering(spanner, len_s, u, cover);

    let mut p = SourcePartial::default();
    needed.clear();
    let mut radius = 0.0f64;
    // ratio test `ℓ'² < t²·|uv|²·(1 − margin)` with the threshold square
    // hoisted out of the pair loop.
    let ratio_tt = thr.ratio.map(|t| t * t * (1.0 - GEO_FILTER_MARGIN));
    let start = if all_pairs { 0 } else { u + 1 };
    for v in start..n {
        if v == u {
            continue;
        }
        let Some(hg) = sg.hop(v) else { continue };
        if hg <= 1 {
            continue; // adjacent or identical: dilation undefined
        }
        let Some(hs) = ss.hop(v) else {
            // record, don't panic: worker panics lose their message
            // crossing the thread::scope join
            if p.disconnected.is_none() {
                p.disconnected = Some((u, v));
            }
            continue;
        };
        let ls = ss.len_of(v).expect("hop-connected in spanner");

        let topo_ratio = hs as f64 / hg as f64;
        if p.topological.is_none_or(|w| topo_ratio > w.in_spanner / w.in_graph) {
            p.topological = Some(WorstPair { u, v, in_graph: hg as f64, in_spanner: hs as f64 });
        }
        let slack_t = (3 * hg + 2) as f64 - hs as f64;
        if p.topo_slack.is_none_or(|s| slack_t < s) {
            p.topo_slack = Some(slack_t);
        }

        // Can this pair move either geometric extreme? `d2 = |uv|²`;
        // skip only when both metrics are strictly safe.
        let d2 = points[u].distance_squared(points[v]);
        let ratio_safe = ratio_tt.is_some_and(|tt| ls * ls < tt * d2);
        let slack_safe = thr.slack.is_some_and(|t| {
            // slack ≥ 6|uv| + 5 − ℓ' > t  ⟺  |uv| > q := (t − 5 + ℓ')/6
            let q = (t - 5.0 + ls) / 6.0;
            q < 0.0 || d2 > q * q * (1.0 + GEO_FILTER_MARGIN)
        });
        if !(ratio_safe && slack_safe) {
            needed.push((v, ls));
            // ℓ_G ≤ ℓ', so every needed distance is final within ℓ'.
            if ls > radius {
                radius = ls;
            }
        }
    }

    sg.dijkstra_weighted_radius(g, len_g, u, radius);
    for &(v, ls) in needed.iter() {
        let lg = sg.len_of(v).expect("hop-connected implies length-connected");
        let geo_ratio = ls / lg;
        if p.geometric.is_none_or(|w| geo_ratio > w.in_spanner / w.in_graph) {
            p.geometric = Some(WorstPair { u, v, in_graph: lg, in_spanner: ls });
        }
        let slack_g = 6.0 * lg + 5.0 - ls;
        if p.geo_slack.is_none_or(|s| slack_g < s) {
            p.geo_slack = Some(slack_g);
        }
    }
    p
}

/// Dilation measurements of a spanner against its base graph.
#[derive(Debug, Clone, PartialEq)]
pub struct DilationReport {
    /// Maximum of `h'(u,v) / h(u,v)` over non-adjacent pairs, with its
    /// witness. `None` when no non-adjacent pair exists.
    pub topological: Option<WorstPair>,
    /// Maximum of `ℓ'(u,v) / ℓ(u,v)` (worst min-hop path length in `G'`
    /// vs min-distance path in `G`), with witness.
    pub geometric: Option<WorstPair>,
    /// Maximum slack of `3h + 2 − h'` — nonnegative iff Theorem 11's
    /// topological bound holds; the stored pair minimises the slack.
    pub topo_bound_slack: Option<f64>,
    /// Maximum slack of `6ℓ + 5 − ℓ'` — nonnegative iff Theorem 11's
    /// geometric bound holds.
    pub geo_bound_slack: Option<f64>,
}

impl DilationReport {
    /// Measures dilation of `spanner` over `g` with node positions
    /// `points` (used for the geometric metric).
    ///
    /// Only pairs that are **non-adjacent in `g`** and connected in both
    /// graphs participate, per the paper's definitions.
    ///
    /// # Panics
    ///
    /// Panics if the graphs differ in node count, `points` is the wrong
    /// length, or the spanner disconnects a pair `g` connects (a spanner
    /// must preserve connectivity).
    pub fn measure(g: &Graph, spanner: &Graph, points: &[Point]) -> Self {
        Self::measure_with_threads(g, spanner, points, parallel::threads())
    }

    /// [`DilationReport::measure`] with an explicit worker count.
    ///
    /// Exposed so determinism can be tested without feature flags: the
    /// report is identical for every `nthreads`, because per-source
    /// partials are folded serially in source order.
    pub fn measure_with_threads(
        g: &Graph,
        spanner: &Graph,
        points: &[Point],
        nthreads: usize,
    ) -> Self {
        assert_eq!(g.node_count(), spanner.node_count(), "node count mismatch");
        assert_eq!(points.len(), g.node_count(), "one point per node required");
        let n = g.node_count();
        // Shared per-graph precomputation, read-only across workers:
        // edge lengths aligned to CSR slots, so the relaxation loops
        // run without sqrt or point loads.
        let len_g = CsrWeights::euclidean(g, points);
        let len_s = CsrWeights::euclidean(spanner, points);

        // Exact pre-pass: the first few sources run unfiltered, and the
        // worst ratio/slack they achieve become certified thresholds
        // for every later source (see [`GeoThresholds`]). Its partials
        // join the fold like any other source's.
        let prepass = n.min(GEO_PREPASS_SOURCES);
        let mut thr = GeoThresholds::default();
        let mut partials = Vec::with_capacity(n);
        {
            let mut sg = SearchScratch::new(n);
            let mut ss = SearchScratch::new(n);
            let mut needed = Vec::new();
            for u in 0..prepass {
                let p = measure_source(
                    g,
                    spanner,
                    points,
                    &len_g,
                    &len_s,
                    &mut sg,
                    &mut ss,
                    &mut needed,
                    u,
                    GeoThresholds::default(),
                    false,
                );
                thr.absorb(&p);
                partials.push(p);
            }
        }

        partials.extend(parallel::map_indices(
            nthreads,
            n - prepass,
            || (SearchScratch::new(n), SearchScratch::new(n), Vec::new()),
            |(sg, ss, needed), i| {
                measure_source(
                    g,
                    spanner,
                    points,
                    &len_g,
                    &len_s,
                    sg,
                    ss,
                    needed,
                    prepass + i,
                    thr,
                    false,
                )
            },
        ));

        fold_partials(partials)
    }

    /// The maximum topological dilation ratio (1.0 when no pair
    /// qualifies).
    pub fn topological_ratio(&self) -> f64 {
        self.topological.map_or(1.0, |w| w.in_spanner / w.in_graph)
    }

    /// The maximum geometric dilation ratio (1.0 when no pair
    /// qualifies).
    pub fn geometric_ratio(&self) -> f64 {
        self.geometric.map_or(1.0, |w| w.in_spanner / w.in_graph)
    }

    /// Whether Theorem 11's affine bound `h' ≤ 3h + 2` held for every
    /// measured pair.
    pub fn satisfies_topological_bound(&self) -> bool {
        self.topo_bound_slack.is_none_or(|s| s >= 0.0)
    }

    /// Whether Theorem 11's affine bound `ℓ' ≤ 6ℓ + 5` held for every
    /// measured pair.
    pub fn satisfies_geometric_bound(&self) -> bool {
        self.geo_bound_slack.is_none_or(|s| s >= -1e-9)
    }
}

/// A **certified sampled** dilation estimate for instances too large for
/// the exact `O(n·(n+|E|))` sweep (n = 100k–1M).
///
/// The estimator picks `sources_sampled` sources spread evenly over the
/// id space (rotated by a seed) and measures each of their pairs
/// **exactly** — the same per-source kernel as
/// [`DilationReport::measure`], including the certified `ℓ_G ≥ |uv|`
/// straight-line lower bound that lets a source skip the `G`-Dijkstra
/// for pairs which provably cannot move the extremes (see
/// `GeoThresholds`). No pair is ever approximated: a pair is either
/// swept exactly or not covered at all. The result is therefore
/// **one-sided certified**:
///
/// * `report.topological_ratio()` and `report.geometric_ratio()` are
///   *achieved* values — lower bounds on the true maxima;
/// * `report.topo_bound_slack` / `report.geo_bound_slack` are upper
///   bounds on the true minimum slacks, so a *violation* of a Theorem 11
///   bound found on the sample disproves the bound outright.
///
/// `exact` reports whether the sample covered every source (then the
/// report equals the full measurement), and `pair_coverage` reports the
/// fraction of unordered node pairs with at least one sampled endpoint
/// — the measured share of the pair population.
#[derive(Debug, Clone, PartialEq)]
pub struct DilationEstimate {
    /// Extremes over the covered pair set (exact on those pairs).
    pub report: DilationReport,
    /// Number of distinct sources swept.
    pub sources_sampled: usize,
    /// Node count of the instance.
    pub node_count: usize,
    /// Whether every source was swept (the estimate *is* the exact
    /// measurement).
    pub exact: bool,
    /// Fraction of unordered node pairs with a sampled endpoint, in
    /// `(0, 1]`.
    pub pair_coverage: f64,
}

impl DilationEstimate {
    /// Sampled dilation of `spanner` over `g` with at most `max_sources`
    /// sources, using [`parallel::threads`] workers.
    ///
    /// `seed` rotates which sources are picked; the choice is otherwise
    /// a deterministic even spread over the id space. When
    /// `max_sources ≥ n` this is exactly [`DilationReport::measure`].
    ///
    /// # Panics
    ///
    /// As [`DilationReport::measure`].
    pub fn sampled(
        g: &Graph,
        spanner: &Graph,
        points: &[Point],
        max_sources: usize,
        seed: u64,
    ) -> Self {
        Self::sampled_with_threads(g, spanner, points, max_sources, seed, parallel::threads())
    }

    /// [`DilationEstimate::sampled`] with an explicit worker count.
    ///
    /// The estimate is byte-identical for every `nthreads`: the sampled
    /// sources are fixed up front, per-source partials fold serially in
    /// source order, and the skip thresholds are frozen before the
    /// parallel stage — the same determinism argument as
    /// [`DilationReport::measure_with_threads`].
    pub fn sampled_with_threads(
        g: &Graph,
        spanner: &Graph,
        points: &[Point],
        max_sources: usize,
        seed: u64,
        nthreads: usize,
    ) -> Self {
        let n = g.node_count();
        if max_sources >= n {
            return Self {
                report: DilationReport::measure_with_threads(g, spanner, points, nthreads),
                sources_sampled: n,
                node_count: n,
                exact: true,
                pair_coverage: 1.0,
            };
        }
        assert_eq!(g.node_count(), spanner.node_count(), "node count mismatch");
        assert_eq!(points.len(), g.node_count(), "one point per node required");
        let k = max_sources.max(1);
        // Even spread over the id space, rotated by the seed: `i·n/k`
        // are k distinct ids (n > k), and adding a constant offset mod n
        // stays injective. Sorted so the serial fold runs in source
        // order, like the exact sweep.
        let off = (seed % n as u64) as usize;
        let mut sources: Vec<NodeId> = (0..k).map(|i| (off + i * n / k) % n).collect();
        sources.sort_unstable();

        let len_g = CsrWeights::euclidean(g, points);
        let len_s = CsrWeights::euclidean(spanner, points);
        let prepass = sources.len().min(GEO_PREPASS_SOURCES);
        let mut thr = GeoThresholds::default();
        let mut partials = Vec::with_capacity(sources.len());
        {
            let mut sg = SearchScratch::new(n);
            let mut ss = SearchScratch::new(n);
            let mut needed = Vec::new();
            for &u in &sources[..prepass] {
                let p = measure_source(
                    g,
                    spanner,
                    points,
                    &len_g,
                    &len_s,
                    &mut sg,
                    &mut ss,
                    &mut needed,
                    u,
                    GeoThresholds::default(),
                    true,
                );
                thr.absorb(&p);
                partials.push(p);
            }
        }
        let rest = &sources[prepass..];
        partials.extend(parallel::map_indices(
            nthreads,
            rest.len(),
            || (SearchScratch::new(n), SearchScratch::new(n), Vec::new()),
            |(sg, ss, needed), i| {
                measure_source(
                    g, spanner, points, &len_g, &len_s, sg, ss, needed, rest[i], thr, true,
                )
            },
        ));

        let pairs = |m: usize| m.saturating_sub(1) * m / 2;
        let total = pairs(n);
        let covered = total - pairs(n - k);
        Self {
            report: fold_partials(partials),
            sources_sampled: k,
            node_count: n,
            exact: false,
            pair_coverage: if total == 0 { 1.0 } else { covered as f64 / total as f64 },
        }
    }
}

/// Lemma 6 as a checkable statement: if `h'(u,v) ≤ α·h(u,v) + β` for all
/// non-adjacent pairs, then `ℓ'(u,v) < 2α·ℓ(u,v) + 2α + β`.
///
/// Returns the worst observed `ℓ' − (2α·ℓ + 2α + β)` (negative means the
/// implication held with room to spare), or `None` if no pair qualified.
pub fn lemma6_worst_slack(
    g: &Graph,
    spanner: &Graph,
    points: &[Point],
    alpha: f64,
    beta: f64,
) -> Option<f64> {
    let n = g.node_count();
    let len_g = CsrWeights::euclidean(g, points);
    let len_s = CsrWeights::euclidean(spanner, points);
    let partials = parallel::map_indices(
        parallel::threads(),
        n,
        || (SearchScratch::new(n), SearchScratch::new(n)),
        |(sg, ss), u| {
            sg.bfs_covering(g, u, u);
            sg.dijkstra_weighted(g, &len_g, u);
            ss.min_hop_max_length_covering(spanner, &len_s, u, u);
            let mut worst: Option<f64> = None;
            for v in (u + 1)..n {
                let Some(hg) = sg.hop(v) else { continue };
                if hg <= 1 {
                    continue;
                }
                let (Some(lg), Some(ls)) = (sg.len_of(v), ss.len_of(v)) else { continue };
                let excess = ls - (2.0 * alpha * lg + 2.0 * alpha + beta);
                if worst.is_none_or(|w| excess > w) {
                    worst = Some(excess);
                }
            }
            worst
        },
    );
    partials
        .into_iter()
        .flatten()
        .fold(None, |acc: Option<f64>, e| {
            Some(acc.map_or(e, |w| if e > w { e } else { w }))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo2::AlgorithmTwo;
    use crate::WcdsConstruction;
    use wcds_geom::deploy;
    use wcds_graph::{traversal, UnitDiskGraph};

    fn connected_udg(n: usize, side: f64, seed: u64) -> Option<UnitDiskGraph> {
        let udg = UnitDiskGraph::build(deploy::uniform(n, side, side, seed), 1.0);
        traversal::is_connected(udg.graph()).then_some(udg)
    }

    #[test]
    fn identity_spanner_has_dilation_one() {
        let udg = connected_udg(80, 4.0, 2).expect("dense deployment connects");
        let r = DilationReport::measure(udg.graph(), udg.graph(), udg.points());
        assert_eq!(r.topological_ratio(), 1.0);
        assert!(r.geometric_ratio() >= 1.0); // max-length min-hop path can exceed ℓ_G
        assert!(r.satisfies_topological_bound());
        assert!(r.satisfies_geometric_bound());
    }

    #[test]
    fn theorem11_bounds_hold_for_algorithm2_spanner() {
        for seed in 0..6 {
            let Some(udg) = connected_udg(120, 6.0, seed) else { continue };
            let result = AlgorithmTwo::new().construct(udg.graph());
            let r = DilationReport::measure(udg.graph(), &result.spanner, udg.points());
            assert!(r.satisfies_topological_bound(), "seed {seed}: {:?}", r.topo_bound_slack);
            assert!(r.satisfies_geometric_bound(), "seed {seed}: {:?}", r.geo_bound_slack);
        }
    }

    #[test]
    fn lemma6_implication_holds_with_measured_alpha_beta() {
        let Some(udg) = connected_udg(100, 5.0, 3) else { return };
        let result = AlgorithmTwo::new().construct(udg.graph());
        // with (α, β) = (3, 2) the paper's geometric bound must hold
        let slack = lemma6_worst_slack(udg.graph(), &result.spanner, udg.points(), 3.0, 2.0);
        if let Some(s) = slack {
            assert!(s < 0.0, "Lemma 6 violated: excess {s}");
        }
    }

    #[test]
    fn thread_count_never_changes_the_report() {
        let Some(udg) = connected_udg(100, 5.0, 5) else { return };
        let result = AlgorithmTwo::new().construct(udg.graph());
        let serial =
            DilationReport::measure_with_threads(udg.graph(), &result.spanner, udg.points(), 1);
        for nthreads in [2, 3, 7, 100] {
            let par = DilationReport::measure_with_threads(
                udg.graph(),
                &result.spanner,
                udg.points(),
                nthreads,
            );
            // bitwise equality, witnesses included — not approximate
            assert_eq!(par, serial, "nthreads {nthreads}");
        }
    }

    #[test]
    #[should_panic(expected = "disconnects")]
    fn disconnected_spanner_panics() {
        let udg = UnitDiskGraph::build(deploy::chain(4, 0.9), 1.0);
        let empty = Graph::empty(4);
        let _ = DilationReport::measure(udg.graph(), &empty, udg.points());
    }

    #[test]
    fn no_qualifying_pairs_yields_trivial_report() {
        // a triangle: every pair adjacent
        let pts = deploy::gaussian_blob(3, 1.0, 1.0, 0.01, 1);
        let udg = UnitDiskGraph::build(pts, 1.0);
        assert_eq!(udg.graph().edge_count(), 3);
        let r = DilationReport::measure(udg.graph(), udg.graph(), udg.points());
        assert!(r.topological.is_none());
        assert!(r.satisfies_topological_bound());
    }

    /// Unfiltered reference implementation: one-shot public searches per
    /// source, no thresholds, no radius bound, no covering early-outs.
    fn measure_reference(g: &Graph, spanner: &Graph, points: &[Point]) -> DilationReport {
        use wcds_graph::shortest_path;
        let n = g.node_count();
        let mut topological: Option<WorstPair> = None;
        let mut geometric: Option<WorstPair> = None;
        let mut topo_slack: Option<f64> = None;
        let mut geo_slack: Option<f64> = None;
        for u in 0..n {
            let hg_all = traversal::bfs_distances(g, u);
            let hs_all = traversal::bfs_distances(spanner, u);
            let lg_all = shortest_path::geometric_distances(g, points, u);
            let ls_all = shortest_path::min_hop_max_length(spanner, points, u);
            for v in (u + 1)..n {
                let Some(hg) = hg_all[v] else { continue };
                if hg <= 1 {
                    continue;
                }
                let hs = hs_all[v].expect("spanner preserves connectivity");
                let (lg, ls) = (lg_all[v].unwrap(), ls_all[v].unwrap());
                let tr = hs as f64 / hg as f64;
                if topological.is_none_or(|w| tr > w.in_spanner / w.in_graph) {
                    topological =
                        Some(WorstPair { u, v, in_graph: hg as f64, in_spanner: hs as f64 });
                }
                let st = (3 * hg + 2) as f64 - hs as f64;
                if topo_slack.is_none_or(|s| st < s) {
                    topo_slack = Some(st);
                }
                let gr = ls / lg;
                if geometric.is_none_or(|w| gr > w.in_spanner / w.in_graph) {
                    geometric = Some(WorstPair { u, v, in_graph: lg, in_spanner: ls });
                }
                let sg = 6.0 * lg + 5.0 - ls;
                if geo_slack.is_none_or(|s| sg < s) {
                    geo_slack = Some(sg);
                }
            }
        }
        DilationReport {
            topological,
            geometric,
            topo_bound_slack: topo_slack,
            geo_bound_slack: geo_slack,
        }
    }

    #[test]
    fn filtered_engine_matches_unfiltered_reference() {
        // the threshold filter + radius-bounded Dijkstra must reproduce
        // the naive sweep bit-for-bit, witnesses included — across
        // instances large enough to exercise the prepass thresholds
        for (n, side, seed) in [(150, 7.0, 1), (200, 8.0, 4), (250, 9.0, 11), (180, 7.5, 23)] {
            let Some(udg) = connected_udg(n, side, seed) else { continue };
            let result = AlgorithmTwo::new().construct(udg.graph());
            let fast = DilationReport::measure(udg.graph(), &result.spanner, udg.points());
            let want = measure_reference(udg.graph(), &result.spanner, udg.points());
            assert_eq!(fast, want, "n={n} seed={seed}");
        }
    }

    #[test]
    fn filtered_engine_matches_reference_on_identity_spanner() {
        // ratio-1 everywhere: thresholds are tight, maximal skipping
        let udg = connected_udg(160, 7.0, 9).expect("dense deployment connects");
        let fast = DilationReport::measure(udg.graph(), udg.graph(), udg.points());
        let want = measure_reference(udg.graph(), udg.graph(), udg.points());
        assert_eq!(fast, want);
    }

    #[test]
    fn sampled_with_full_budget_is_the_exact_measurement() {
        let Some(udg) = connected_udg(120, 6.0, 2) else { return };
        let result = AlgorithmTwo::new().construct(udg.graph());
        let est =
            DilationEstimate::sampled(udg.graph(), &result.spanner, udg.points(), usize::MAX, 9);
        assert!(est.exact);
        assert_eq!(est.sources_sampled, 120);
        assert_eq!(est.pair_coverage, 1.0);
        let exact = DilationReport::measure(udg.graph(), &result.spanner, udg.points());
        assert_eq!(est.report, exact);
    }

    #[test]
    fn sampled_estimate_is_a_certified_one_sided_bound() {
        // sampled extremes are achieved values: ratios can only be
        // under-estimates, slacks only over-estimates, for any seed
        for seed in [0u64, 7, 1234] {
            let Some(udg) = connected_udg(180, 7.5, 4) else { return };
            let result = AlgorithmTwo::new().construct(udg.graph());
            let exact = DilationReport::measure(udg.graph(), &result.spanner, udg.points());
            let est = DilationEstimate::sampled(udg.graph(), &result.spanner, udg.points(), 24, seed);
            assert!(!est.exact);
            assert_eq!(est.sources_sampled, 24);
            assert!(est.pair_coverage > 0.0 && est.pair_coverage < 1.0);
            assert!(est.report.topological_ratio() <= exact.topological_ratio(), "seed {seed}");
            assert!(est.report.geometric_ratio() <= exact.geometric_ratio(), "seed {seed}");
            if let (Some(e), Some(x)) = (est.report.topo_bound_slack, exact.topo_bound_slack) {
                assert!(e >= x, "seed {seed}: sampled topo slack below exact minimum");
            }
            if let (Some(e), Some(x)) = (est.report.geo_bound_slack, exact.geo_bound_slack) {
                assert!(e >= x - 1e-9, "seed {seed}: sampled geo slack below exact minimum");
            }
        }
    }

    #[test]
    fn sampled_thread_count_never_changes_the_estimate() {
        let Some(udg) = connected_udg(150, 7.0, 6) else { return };
        let result = AlgorithmTwo::new().construct(udg.graph());
        let serial = DilationEstimate::sampled_with_threads(
            udg.graph(),
            &result.spanner,
            udg.points(),
            20,
            3,
            1,
        );
        for nthreads in [2, 5, 16] {
            let par = DilationEstimate::sampled_with_threads(
                udg.graph(),
                &result.spanner,
                udg.points(),
                20,
                3,
                nthreads,
            );
            assert_eq!(par, serial, "nthreads {nthreads}");
        }
    }

    #[test]
    fn worst_pair_witnesses_are_consistent() {
        let Some(udg) = connected_udg(90, 5.0, 7) else { return };
        let result = AlgorithmTwo::new().construct(udg.graph());
        let r = DilationReport::measure(udg.graph(), &result.spanner, udg.points());
        if let Some(w) = r.topological {
            let hg = traversal::hop_distance(udg.graph(), w.u, w.v).unwrap();
            let hs = traversal::hop_distance(&result.spanner, w.u, w.v).unwrap();
            assert_eq!(w.in_graph, hg as f64);
            assert_eq!(w.in_spanner, hs as f64);
            assert!(hg >= 2);
        }
    }
}
