//! Perf-trajectory benchmarks: wall-clock measurements of the graph
//! core, written as machine-readable `BENCH_*.json` artifacts.
//!
//! Each record compares the current engine against the **pre-CSR
//! baseline** (adjacency as `Vec<Vec<NodeId>>`, per-source allocation,
//! layer sort in the min-hop/max-length pass), reimplemented here
//! verbatim so the speedup denominator stays honest as the fast path
//! evolves. The baselines also double as cross-checks: every benchmark
//! asserts the old and new engines produce identical results before it
//! reports a timing.
//!
//! No `serde` in the dependency tree — the JSON is assembled by hand
//! from flat rows, which is all these artifacts need.

use crate::util::Scale;
use std::collections::VecDeque;
use std::time::Instant;
use wcds_geom::Point;
use wcds_graph::{Graph, NodeId};

/// One benchmark measurement.
#[derive(Debug, Clone)]
pub struct BenchRow {
    /// What was measured (e.g. `"dilation_csr_parallel"`).
    pub name: String,
    /// Node count of the instance.
    pub n: usize,
    /// Edge count of the instance.
    pub edges: usize,
    /// Worker threads used (1 for serial and legacy paths).
    pub threads: usize,
    /// Wall-clock milliseconds.
    pub wall_ms: f64,
    /// Work items per second (sources for sweeps, edges for builds).
    pub throughput: f64,
    /// Process peak resident set size (MiB) when the row was recorded —
    /// the `VmHWM` high-water mark, so it is monotone across rows; the
    /// *first* row to report a jump is the one that paid for it. `0.0`
    /// where `/proc/self/status` is unavailable.
    pub peak_rss_mb: f64,
}

impl BenchRow {
    /// Builds a row from a measured duration and a work-item count,
    /// capturing the current peak RSS.
    pub fn new(
        name: &str,
        n: usize,
        edges: usize,
        threads: usize,
        wall_ms: f64,
        items: usize,
    ) -> Self {
        Self {
            name: name.to_string(),
            n,
            edges,
            threads,
            wall_ms,
            throughput: if wall_ms > 0.0 { items as f64 / (wall_ms / 1000.0) } else { 0.0 },
            peak_rss_mb: peak_rss_mb(),
        }
    }
}

/// This process's peak resident set size in MiB, read from the `VmHWM`
/// line of `/proc/self/status`. Returns `0.0` on platforms without
/// procfs rather than failing the benchmark.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: f64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0.0);
            return kb / 1024.0;
        }
    }
    0.0
}

/// Times `f`, returning `(wall_ms, result)`.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64() * 1000.0, out)
}

/// Serialises rows plus free-form check entries into a small JSON
/// document and writes it to `path`, then says so on stdout.
///
/// Only a full-scale run writes: a [`Scale::Quick`] run prints that it
/// wrote nothing, so smoke runs never overwrite a full-scale record.
/// `checks` values are emitted verbatim, so pass valid JSON scalars
/// (`"true"`, `"3.14"`, `"\"text\""`).
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn write_bench_json(
    scale: Scale,
    path: &str,
    bench: &str,
    rows: &[BenchRow],
    checks: &[(String, String)],
) {
    if scale == Scale::Quick {
        println!("quick run: {path} not written");
        return;
    }
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"bench\": \"{bench}\",\n"));
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"n\": {}, \"edges\": {}, \"threads\": {}, \
             \"wall_ms\": {:.3}, \"throughput\": {:.1}, \"peak_rss_mb\": {:.1}}}{}\n",
            r.name,
            r.n,
            r.edges,
            r.threads,
            r.wall_ms,
            r.throughput,
            r.peak_rss_mb,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"checks\": {\n");
    for (i, (k, v)) in checks.iter().enumerate() {
        out.push_str(&format!(
            "    \"{k}\": {v}{}\n",
            if i + 1 < checks.len() { "," } else { "" }
        ));
    }
    out.push_str("  }\n}\n");
    std::fs::write(path, out).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("wrote {path}");
}

/// The pre-CSR adjacency representation: one heap allocation per node.
pub fn to_vec_adjacency(g: &Graph) -> Vec<Vec<NodeId>> {
    g.nodes().map(|u| g.adj(u).collect()).collect()
}

/// Pre-CSR BFS: fresh `Vec<Option<u32>>` + `VecDeque` per source.
pub fn legacy_bfs(adj: &[Vec<NodeId>], source: NodeId) -> Vec<Option<u32>> {
    let mut dist = vec![None; adj.len()];
    let mut q = VecDeque::new();
    dist[source] = Some(0);
    q.push_back(source);
    while let Some(u) = q.pop_front() {
        let du = dist[u].expect("queued nodes have distances");
        for &v in &adj[u] {
            if dist[v].is_none() {
                dist[v] = Some(du + 1);
                q.push_back(v);
            }
        }
    }
    dist
}

/// Pre-CSR Dijkstra over Euclidean edge lengths.
pub fn legacy_geometric(adj: &[Vec<NodeId>], points: &[Point], source: NodeId) -> Vec<Option<f64>> {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;
    #[derive(PartialEq)]
    struct Entry {
        dist: f64,
        node: NodeId,
    }
    impl Eq for Entry {}
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> Ordering {
            other
                .dist
                .partial_cmp(&self.dist)
                .expect("finite distances")
                .then_with(|| other.node.cmp(&self.node))
        }
    }
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    let mut dist: Vec<Option<f64>> = vec![None; adj.len()];
    let mut heap = BinaryHeap::new();
    dist[source] = Some(0.0);
    heap.push(Entry { dist: 0.0, node: source });
    while let Some(Entry { dist: du, node: u }) = heap.pop() {
        if dist[u].is_some_and(|best| du > best) {
            continue;
        }
        for &v in &adj[u] {
            let cand = du + points[u].distance(points[v]);
            if dist[v].is_none_or(|best| cand < best) {
                dist[v] = Some(cand);
                heap.push(Entry { dist: cand, node: v });
            }
        }
    }
    dist
}

/// Pre-CSR min-hop/max-length: BFS, then an `O(n log n)` layer sort
/// before the DAG pass.
pub fn legacy_min_hop_max_length(
    adj: &[Vec<NodeId>],
    points: &[Point],
    source: NodeId,
) -> Vec<Option<f64>> {
    let hops = legacy_bfs(adj, source);
    let mut len: Vec<Option<f64>> = vec![None; adj.len()];
    len[source] = Some(0.0);
    let mut order: Vec<NodeId> =
        (0..adj.len()).filter(|&u| hops[u].is_some()).collect();
    order.sort_unstable_by_key(|&u| hops[u].expect("filtered reachable"));
    for &u in &order {
        let Some(lu) = len[u] else { continue };
        let hu = hops[u].expect("reachable");
        for &v in &adj[u] {
            if hops[v] == Some(hu + 1) {
                let cand = lu + points[u].distance(points[v]);
                if len[v].is_none_or(|best| cand > best) {
                    len[v] = Some(cand);
                }
            }
        }
    }
    len
}

/// The pre-CSR dilation sweep, exactly as `DilationReport::measure`
/// was implemented before the CSR engine: serial over sources, fresh
/// allocations per source. Returns
/// `(topo_ratio, geo_ratio, topo_slack, geo_slack)`.
pub fn legacy_dilation_sweep(
    adj_g: &[Vec<NodeId>],
    adj_s: &[Vec<NodeId>],
    points: &[Point],
) -> (f64, f64, Option<f64>, Option<f64>) {
    let n = adj_g.len();
    let mut topo_ratio = 1.0f64;
    let mut geo_ratio = 1.0f64;
    let mut topo_slack: Option<f64> = None;
    let mut geo_slack: Option<f64> = None;
    for u in 0..n {
        let h_g = legacy_bfs(adj_g, u);
        let l_g = legacy_geometric(adj_g, points, u);
        let l_s = legacy_min_hop_max_length(adj_s, points, u);
        let h_s = legacy_bfs(adj_s, u);
        for v in (u + 1)..n {
            let Some(hg) = h_g[v] else { continue };
            if hg <= 1 {
                continue;
            }
            let hs = h_s[v].expect("spanner preserves connectivity");
            let lg = l_g[v].expect("hop-connected implies length-connected");
            let ls = l_s[v].expect("hop-connected in spanner");
            topo_ratio = topo_ratio.max(hs as f64 / hg as f64);
            geo_ratio = geo_ratio.max(ls / lg);
            let st = (3 * hg + 2) as f64 - hs as f64;
            if topo_slack.is_none_or(|s| st < s) {
                topo_slack = Some(st);
            }
            let sg = 6.0 * lg + 5.0 - ls;
            if geo_slack.is_none_or(|s| sg < s) {
                geo_slack = Some(sg);
            }
        }
    }
    (topo_ratio, geo_ratio, topo_slack, geo_slack)
}

/// The pre-grid `O(n²)` toroidal UDG construction.
pub fn legacy_torus_edges(points: &[Point], radius: f64, width: f64, height: f64) -> Graph {
    let torus_dist2 = |a: Point, b: Point| -> f64 {
        let dx = (a.x - b.x).abs();
        let dy = (a.y - b.y).abs();
        let dx = dx.min(width - dx);
        let dy = dy.min(height - dy);
        dx * dx + dy * dy
    };
    let mut b = wcds_graph::GraphBuilder::new(points.len());
    for u in 0..points.len() {
        for v in (u + 1)..points.len() {
            if torus_dist2(points[u], points[v]) <= radius * radius {
                b.add_edge(u, v);
            }
        }
    }
    b.build()
}

/// The naive `O(n²)` flat UDG construction (pre-spatial-hash).
pub fn legacy_flat_edges(points: &[Point], radius: f64) -> Graph {
    let mut b = wcds_graph::GraphBuilder::new(points.len());
    let r2 = radius * radius;
    for u in 0..points.len() {
        for v in (u + 1)..points.len() {
            if points[u].distance_squared(points[v]) <= r2 {
                b.add_edge(u, v);
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::{connected_uniform_udg, side_for_avg_degree};
    use wcds_graph::{shortest_path, traversal};

    #[test]
    fn legacy_primitives_match_current_engine() {
        let udg = connected_uniform_udg(80, side_for_avg_degree(80, 10.0), 3);
        let g = udg.graph();
        let adj = to_vec_adjacency(g);
        for src in [0, 13, 79] {
            assert_eq!(legacy_bfs(&adj, src), traversal::bfs_distances(g, src));
            assert_eq!(
                legacy_geometric(&adj, udg.points(), src),
                shortest_path::geometric_distances(g, udg.points(), src)
            );
            assert_eq!(
                legacy_min_hop_max_length(&adj, udg.points(), src),
                shortest_path::min_hop_max_length(g, udg.points(), src)
            );
        }
    }

    #[test]
    fn legacy_constructions_match_current_builders() {
        let pts = wcds_geom::deploy::uniform(150, 5.0, 5.0, 9);
        let flat = wcds_graph::UnitDiskGraph::build(pts.clone(), 1.0);
        assert_eq!(*flat.graph(), legacy_flat_edges(&pts, 1.0));
        let torus = wcds_graph::UnitDiskGraph::build_torus(pts.clone(), 1.0, 5.0, 5.0);
        assert_eq!(*torus.graph(), legacy_torus_edges(&pts, 1.0, 5.0, 5.0));
    }

    #[test]
    fn bench_row_throughput() {
        let r = BenchRow::new("x", 10, 20, 1, 500.0, 1000);
        assert!((r.throughput - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let dir = std::env::temp_dir().join("wcds_bench_json_test.json");
        let path = dir.to_str().unwrap();
        write_bench_json(
            Scale::Full,
            path,
            "demo",
            &[BenchRow::new("a", 1, 2, 1, 3.0, 4)],
            &[("ok".into(), "true".into())],
        );
        let s = std::fs::read_to_string(path).unwrap();
        assert!(s.contains("\"bench\": \"demo\""));
        assert!(s.contains("\"ok\": true"));
        assert!(s.contains("\"peak_rss_mb\": "));
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn quick_runs_write_no_record() {
        let path = std::env::temp_dir().join("wcds_bench_quick_record_test.json");
        let _ = std::fs::remove_file(&path);
        let path = path.to_str().unwrap();
        write_bench_json(Scale::Quick, path, "demo", &[], &[]);
        assert!(!std::path::Path::new(path).exists(), "a quick run wrote {path}");
    }

    #[test]
    fn peak_rss_is_positive_on_linux_and_monotone() {
        let before = peak_rss_mb();
        if cfg!(target_os = "linux") {
            assert!(before > 0.0, "VmHWM should be readable on Linux");
        }
        // touch a few MiB so the high-water mark can only grow
        let ballast = vec![1u8; 8 << 20];
        std::hint::black_box(&ballast);
        assert!(peak_rss_mb() >= before);
    }
}
