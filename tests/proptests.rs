//! Property-based tests over random deployments and random graphs:
//! every invariant the paper proves, checked over seeded random cases.
//!
//! The build environment has no access to crates.io, so `proptest` is
//! unavailable; this harness trades shrinking for deterministic replay.
//! Each property runs [`CASES`] seeded cases — a failure message names
//! the case seed, and re-running that seed reproduces the input exactly.

use wcds::core::algo1::AlgorithmOne;
use wcds::core::algo2::AlgorithmTwo;
use wcds::core::mis::{greedy_mis, RankingMode};
use wcds::core::properties;
use wcds::core::spanner::SpannerStats;
use wcds::core::WcdsConstruction;
use wcds::geom::{deploy, GridIndex, Point};
use wcds::graph::{domination, generators, traversal, Graph, UnitDiskGraph};
use wcds_rng::{ChaCha12Rng, Rng};

/// Cases per property; each derives its input from its own seed.
const CASES: u64 = 48;

/// A random uniform deployment dense enough to usually connect.
fn deployment(case: u64) -> Vec<Point> {
    let mut r = ChaCha12Rng::seed_from_u64(case);
    let n = r.gen_range(20usize..120);
    let side = (n as f64 * std::f64::consts::PI / 14.0).sqrt();
    deploy::uniform(n, side, side, r.gen::<u64>() % 5000)
}

/// An arbitrary connected abstract graph.
fn connected_graph(case: u64) -> Graph {
    let mut r = ChaCha12Rng::seed_from_u64(case.wrapping_mul(0x9E37_79B9) ^ 0x00C0_FFEE);
    let n = r.gen_range(5usize..60);
    let p = r.gen_range(0u32..20) as f64 / 100.0;
    generators::connected_gnp(n, p, r.gen::<u64>() % 5000)
}

#[test]
fn udg_adjacency_is_symmetric_and_radius_consistent() {
    for case in 0..CASES {
        let pts = deployment(case);
        let udg = UnitDiskGraph::build(pts.clone(), 1.0);
        let g = udg.graph();
        for u in g.nodes() {
            for v in g.adj(u) {
                assert!(g.has_edge(v, u), "case {case}: asymmetric edge ({u}, {v})");
                assert!(pts[u].distance(pts[v]) <= 1.0 + 1e-12, "case {case}");
            }
        }
    }
}

#[test]
fn grid_index_agrees_with_brute_force() {
    for case in 0..CASES {
        let pts = deployment(case);
        let probe = case as usize % pts.len();
        let idx = GridIndex::build(&pts, 1.0);
        let mut got = idx.neighbors_within(&pts, pts[probe], 1.0);
        got.sort_unstable();
        let want: Vec<usize> =
            (0..pts.len()).filter(|&i| pts[i].within(pts[probe], 1.0)).collect();
        assert_eq!(got, want, "case {case}");
    }
}

#[test]
fn greedy_mis_is_always_maximal_independent() {
    for case in 0..CASES {
        let g = connected_graph(case);
        for mode in [RankingMode::StaticId, RankingMode::DegreeId] {
            let mis = greedy_mis(&g, mode);
            assert!(
                domination::is_maximal_independent_set(&g, &mis),
                "case {case}, mode {mode:?}"
            );
        }
    }
}

#[test]
fn lemma3_subset_distance_two_or_three() {
    for case in 0..CASES {
        let g = connected_graph(case);
        let mis = greedy_mis(&g, RankingMode::StaticId);
        if mis.len() < 2 {
            continue;
        }
        let d = properties::max_complementary_subset_distance(&g, &mis)
            .expect("connected graph");
        assert!((2..=3).contains(&d), "case {case}: distance {d} outside Lemma 3");
    }
}

#[test]
fn theorem4_level_ranked_mis_distance_exactly_two() {
    for case in 0..CASES {
        let g = connected_graph(case);
        let (_, mis) = AlgorithmOne::new().construct_detailed(&g);
        if mis.len() < 2 {
            continue;
        }
        let d = properties::max_complementary_subset_distance(&g, &mis)
            .expect("connected graph");
        assert_eq!(d, 2, "case {case}");
    }
}

#[test]
fn both_algorithms_always_produce_valid_wcds() {
    for case in 0..CASES {
        let g = connected_graph(case);
        let r1 = AlgorithmOne::new().construct(&g);
        assert!(r1.wcds.is_valid(&g), "case {case}: Algorithm I");
        let r2 = AlgorithmTwo::new().construct(&g);
        assert!(r2.wcds.is_valid(&g), "case {case}: Algorithm II");
        // Algorithm II's bridged set closes every gap to ≤ 2 hops
        if r2.wcds.len() >= 2 {
            let d = properties::max_complementary_subset_distance(&g, r2.wcds.nodes())
                .expect("connected graph");
            assert!(d <= 2, "case {case}: distance {d}");
        }
    }
}

#[test]
fn lemma1_and_lemma2_on_random_udgs() {
    for case in 0..CASES {
        let udg = UnitDiskGraph::build(deployment(case), 1.0);
        let g = udg.graph();
        let mis = greedy_mis(g, RankingMode::StaticId);
        assert!(properties::max_mis_neighbors(g, &mis) <= 5, "case {case}");
        let (m2, m3) = properties::lemma2_maxima(g, &mis);
        assert!(m2 <= 23, "case {case}: m2 = {m2}");
        assert!(m3 <= 47, "case {case}: m3 = {m3}");
    }
}

#[test]
fn spanner_bounds_on_random_udgs() {
    for case in 0..CASES {
        let udg = UnitDiskGraph::build(deployment(case), 1.0);
        let g = udg.graph();
        if !traversal::is_connected(g) {
            continue;
        }
        let r1 = AlgorithmOne::new().construct(g);
        assert!(
            SpannerStats::compute(g, &r1.wcds).satisfies_theorem8_bound(),
            "case {case}: Theorem 8"
        );
        let r2 = AlgorithmTwo::new().construct(g);
        assert!(
            SpannerStats::compute(g, &r2.wcds).satisfies_theorem10_bound(),
            "case {case}: Theorem 10"
        );
    }
}

#[test]
fn weakly_induced_subgraph_laws() {
    for case in 0..CASES {
        let g = connected_graph(case);
        let mask = ChaCha12Rng::seed_from_u64(case).gen::<u64>();
        // pick an arbitrary subset via the mask bits
        let s: Vec<usize> = g.nodes().filter(|&u| mask >> (u % 64) & 1 == 1).collect();
        let w = g.weakly_induced(&s);
        // 1. it is a subgraph
        assert!(g.contains_subgraph(&w), "case {case}");
        // 2. every kept edge touches the set
        let member = g.membership(&s);
        for e in w.edges() {
            let (a, b) = e.endpoints();
            assert!(member[a] || member[b], "case {case}: edge ({a}, {b})");
        }
        // 3. every dropped edge touches no member
        for e in g.edges() {
            let (a, b) = e.endpoints();
            if !w.has_edge(a, b) {
                assert!(!member[a] && !member[b], "case {case}: edge ({a}, {b})");
            }
        }
    }
}

/// The WCDS predicate as first written, the oracle for the copy-free
/// check: copy the weakly induced subgraph `G'`, search it from `s[0]`,
/// and require every member, and every node but an isolated
/// non-member, to be reached.
fn wcds_by_weakly_induced_copy(g: &Graph, s: &[usize]) -> bool {
    if !domination::is_dominating_set(g, s) {
        return false;
    }
    if s.is_empty() {
        return g.node_count() == 0;
    }
    let w = g.weakly_induced(s);
    let dist = traversal::multi_source_bfs(&w, std::iter::once(s[0]));
    g.nodes()
        .all(|u| dist[u].is_some() || (g.degree(u) == 0 && w.degree(u) == 0 && !s.contains(&u)))
        && s.iter().all(|&u| dist[u].is_some())
}

#[test]
fn copy_free_wcds_check_matches_the_weakly_induced_copy() {
    let mut verdicts = [0usize; 2];
    let mut check = |g: &Graph, s: &[usize], what: &str| {
        let want = wcds_by_weakly_induced_copy(g, s);
        assert_eq!(domination::is_weakly_connected_dominating_set(g, s), want, "{what}: {s:?}");
        verdicts[usize::from(want)] += 1;
    };
    check(&Graph::empty(0), &[], "empty graph");
    check(&Graph::empty(1), &[], "isolated node, empty set");
    check(&Graph::empty(1), &[0], "isolated node in the set");
    check(&Graph::empty(3), &[0, 2], "isolated node left out");
    // dominating sets whose G' splits: two disjoint edges, and a path
    // whose middle edge touches no member
    check(&Graph::from_edges(4, [(0, 1), (2, 3)]), &[0, 2], "two components");
    check(&generators::path(6), &[1, 4], "path split in G'");
    check(&generators::path(6), &[1, 3, 4], "path joined in G'");
    for case in 0..CASES {
        let mut r = ChaCha12Rng::seed_from_u64(case ^ 0x5EED);
        let n = r.gen_range(1usize..40);
        // sparse random graphs have isolated nodes and many components
        let sparse = generators::gnp(n, r.gen_range(0u32..25) as f64 / 100.0, case);
        for g in [sparse, connected_graph(case)] {
            for density in [0.0, 0.2, 0.5, 0.9, 1.0] {
                let s: Vec<usize> = g.nodes().filter(|_| r.gen::<f64>() < density).collect();
                check(&g, &s, &format!("case {case} density {density}"));
            }
            let (mis, additional) = AlgorithmTwo::new().construct_parts(&g);
            check(&g, &mis, &format!("case {case} MIS"));
            let all: Vec<usize> = mis.iter().chain(&additional).copied().collect();
            check(&g, &all, &format!("case {case} Algorithm II"));
        }
    }
    assert!(verdicts[0] > 50 && verdicts[1] > 50, "verdicts {verdicts:?}");
}

#[test]
fn bfs_distances_satisfy_triangle_inequality_on_edges() {
    for case in 0..CASES {
        let g = connected_graph(case);
        let d = traversal::bfs_distances(&g, 0);
        for u in g.nodes() {
            for v in g.adj(u) {
                let du = d[u].expect("connected");
                let dv = d[v].expect("connected");
                assert!(du.abs_diff(dv) <= 1, "case {case}: BFS layers differ by >1");
            }
        }
    }
}

#[test]
fn spanning_tree_levels_match_bfs() {
    for case in 0..CASES {
        let g = connected_graph(case);
        let root = case as usize % g.node_count();
        let tree = wcds::graph::spanning::SpanningTree::bfs(&g, root).expect("connected");
        let d = traversal::bfs_distances(&g, root);
        for u in g.nodes() {
            assert_eq!(Some(tree.level(u)), d[u], "case {case}: node {u}");
        }
        assert!(tree.spans(&g), "case {case}");
    }
}

#[test]
fn graph_io_roundtrip() {
    for case in 0..CASES {
        let g = connected_graph(case);
        let doc = wcds::graph::io::from_text(&wcds::graph::io::to_text(&g, None))
            .expect("roundtrip");
        assert_eq!(doc.graph, g, "case {case}");
    }
}

#[test]
fn proximity_spanners_nest_and_preserve_connectivity() {
    for case in 0..CASES {
        use wcds::baselines::proximity::{gabriel_graph, relative_neighborhood_graph};
        let udg = UnitDiskGraph::build(deployment(case), 1.0);
        let rng = relative_neighborhood_graph(&udg);
        let gabriel = gabriel_graph(&udg);
        assert!(udg.graph().contains_subgraph(&gabriel), "case {case}");
        assert!(gabriel.contains_subgraph(&rng), "case {case}");
        // RNG preserves connectivity component-wise: same components
        assert_eq!(
            traversal::connected_components(udg.graph()),
            traversal::connected_components(&rng),
            "case {case}"
        );
    }
}

#[test]
fn distributed_maintenance_survives_one_random_move() {
    for case in 0..CASES {
        use wcds::core::maintenance::distributed::DynamicBackbone;
        let pts = deployment(case);
        let mut r = ChaCha12Rng::seed_from_u64(case ^ 0xDEAD);
        let victim = r.gen_range(0..pts.len());
        let (dx, dy) = (r.gen_range(-0.5f64..=0.5), r.gen_range(-0.5f64..=0.5));
        let mut net = DynamicBackbone::new(pts, 1.0);
        assert!(net.mis_is_valid(), "case {case}: initial MIS invalid");
        let old = net.points()[victim];
        let target = Point::new((old.x + dx).max(0.0), (old.y + dy).max(0.0));
        net.apply_motion(&[(victim, target)])
            .unwrap_or_else(|e| panic!("case {case}: repair did not quiesce: {e:?}"));
        assert!(net.mis_is_valid(), "case {case}: repair left an invalid MIS");
    }
}

#[test]
fn pruned_wcds_is_valid_and_minimal() {
    for case in 0..CASES {
        use wcds::core::postprocess::{is_minimal, prune, PruneOrder};
        let g = connected_graph(case);
        let raw = AlgorithmTwo::new().construct(&g).wcds;
        let pruned = prune(&g, &raw, PruneOrder::DescendingId);
        assert!(pruned.is_valid(&g), "case {case}");
        assert!(pruned.len() <= raw.len(), "case {case}");
        assert!(is_minimal(&g, &pruned), "case {case}");
    }
}

#[test]
fn articulation_points_match_removal_check() {
    for case in 0..CASES {
        use wcds::graph::connectivity;
        let g = connected_graph(case);
        let cuts = connectivity::articulation_points(&g);
        for u in g.nodes() {
            assert_eq!(
                cuts.contains(&u),
                !connectivity::survives_node_removal(&g, u),
                "case {case}: disagreement at node {u}"
            );
        }
    }
}

#[test]
fn csr_graph_matches_reference_adjacency_build() {
    // the CSR storage must be observationally identical to the obvious
    // Vec<Vec<NodeId>> adjacency structure it replaced
    for case in 0..CASES {
        let mut r = ChaCha12Rng::seed_from_u64(case ^ 0x5EED);
        let n = r.gen_range(1usize..80);
        let mut edges = Vec::new();
        let m = r.gen_range(0usize..(n * 3));
        for _ in 0..m {
            let a = r.gen_range(0..n);
            let b = r.gen_range(0..n);
            if a != b {
                edges.push((a, b));
            }
        }
        // reference build: dedup + sort per row
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in &edges {
            if !adj[a].contains(&b) {
                adj[a].push(b);
                adj[b].push(a);
            }
        }
        for row in &mut adj {
            row.sort_unstable();
        }
        let g = Graph::from_edges(n, edges.iter().copied());
        assert_eq!(g.node_count(), n, "case {case}");
        let m_ref: usize = adj.iter().map(Vec::len).sum::<usize>() / 2;
        assert_eq!(g.edge_count(), m_ref, "case {case}");
        for (u, row) in adj.iter().enumerate() {
            assert!(g.adj(u).eq(row.iter().copied()), "case {case}, node {u}");
            assert_eq!(g.degree(u), row.len(), "case {case}, node {u}");
            for v in 0..n {
                let want = row.contains(&v);
                assert_eq!(g.has_edge(u, v), want, "case {case}, pair ({u}, {v})");
                assert_eq!(g.has_edge(v, u), want, "case {case}, pair ({v}, {u})");
            }
        }
        // the raw CSR rows must mirror the per-node views slot for slot
        let (offsets32, targets32) = g.csr32();
        assert_eq!(offsets32.len(), n + 1, "case {case}");
        for u in g.nodes() {
            let row = &targets32[offsets32[u] as usize..offsets32[u + 1] as usize];
            assert_eq!(row, g.neighbors(u), "case {case}, node {u}");
        }
    }
}

#[test]
fn dilation_report_identical_for_any_thread_count() {
    use wcds::core::dilation::DilationReport;
    for case in 0..CASES / 4 {
        let udg = UnitDiskGraph::build(deployment(case), 1.0);
        if !traversal::is_connected(udg.graph()) {
            continue;
        }
        let result = AlgorithmTwo::new().construct(udg.graph());
        let serial = DilationReport::measure_with_threads(
            udg.graph(),
            &result.spanner,
            udg.points(),
            1,
        );
        for nthreads in [2, 5, 16] {
            let par = DilationReport::measure_with_threads(
                udg.graph(),
                &result.spanner,
                udg.points(),
                nthreads,
            );
            assert_eq!(par, serial, "case {case}, nthreads {nthreads}");
        }
    }
}

#[test]
fn spanner_stats_edge_classes_account_for_everything() {
    for case in 0..CASES {
        let udg = UnitDiskGraph::build(deployment(case), 1.0);
        if !traversal::is_connected(udg.graph()) {
            continue;
        }
        let result = AlgorithmTwo::new().construct(udg.graph());
        let s = SpannerStats::compute(udg.graph(), &result.wcds);
        assert_eq!(
            s.gray_mis_edges
                + s.mis_additional_edges
                + s.gray_additional_edges
                + s.additional_additional_edges
                + s.mis_mis_edges,
            s.spanner_edges,
            "case {case}"
        );
        assert_eq!(s.mis_mis_edges, 0, "case {case}");
        assert_eq!(s.nodes - s.gray_nodes, result.wcds.len(), "case {case}");
    }
}
