//! Resilience benchmark → `BENCH_resilience.json`.
//!
//! Measures what a (2, 2)-resilient backbone buys under a dominator-
//! targeted failure storm, against the plain Algorithm II WCDS on the
//! same deployment:
//!
//! * **availability** — kill 20% of the plain backbone's dominators
//!   (the same physical nodes for both designs: layer 1 of the (2, 2)
//!   backbone *is* the plain construction) and compute, exactly, the
//!   fraction of surviving node pairs still connected over each
//!   design's surviving spanner;
//! * **re-convergence** — wall-clock to rebuild each backbone from
//!   scratch on the survivor deployment (the heal path);
//! * **healing stretch** — sampled hop stretch of the healed (2, 2)
//!   spanner against survivor-graph shortest paths.
//!
//! The storm is drawn through `wcds-sim`'s `FaultPlan`, so the exact
//! kill set replays from `(seed, salt)`. Pass `--quick` for the CI
//! smoke size.

use wcds_bench::perf::{time_ms, write_bench_json, BenchRow};
use wcds_bench::util::{side_for_avg_degree, Scale};
use wcds_core::algo2::AlgorithmTwo;
use wcds_core::resilient::{ResilientBackbone, ResilientParams};
use wcds_core::Wcds;
use wcds_geom::{deploy, Point};
use wcds_graph::{traversal, Graph, NodeId, UnitDiskGraph};
use wcds_sim::FaultPlan;

const SEED: u64 = 42;
const STORM_SEED: u64 = 0xDEAD;
const RADIUS: f64 = 1.0;
const KILL_FRACTION: f64 = 0.2;

/// Sizes of the connected components induced on the survivors by
/// `spanner` edges whose endpoints both survive.
fn survivor_components(spanner: &Graph, dead: &[bool]) -> Vec<usize> {
    let n = spanner.node_count();
    let mut seen = vec![false; n];
    let mut sizes = Vec::new();
    let mut queue = Vec::new();
    for start in 0..n {
        if seen[start] || dead[start] {
            continue;
        }
        let mut size = 0usize;
        seen[start] = true;
        queue.push(start);
        while let Some(u) = queue.pop() {
            size += 1;
            for v in spanner.adj(u) {
                if !seen[v] && !dead[v] {
                    seen[v] = true;
                    queue.push(v);
                }
            }
        }
        sizes.push(size);
    }
    sizes
}

/// Exact pairwise availability from component sizes:
/// Σ cᵢ(cᵢ−1) / S(S−1) over S surviving nodes.
fn availability(sizes: &[usize]) -> f64 {
    let survivors: usize = sizes.iter().sum();
    if survivors < 2 {
        return 1.0;
    }
    let connected: f64 = sizes.iter().map(|&c| (c * c.saturating_sub(1)) as f64).sum();
    connected / (survivors * (survivors - 1)) as f64
}

/// Sampled hop stretch of `spanner` routes against `g` shortest paths:
/// `(max, mean)` over pairs at graph distance ≥ 2 from up to 20 evenly
/// spaced sources.
fn hop_stretch(g: &Graph, spanner: &Graph) -> (f64, f64) {
    let n = g.node_count();
    let sources = 20.min(n);
    let target_stride = (n / 400).max(1);
    let mut max = 1.0f64;
    let mut sum = 0.0f64;
    let mut count = 0u64;
    for i in 0..sources {
        let s = i * n / sources;
        let dg = traversal::bfs_distances(g, s);
        let ds = traversal::bfs_distances(spanner, s);
        for t in (0..n).step_by(target_stride) {
            let (Some(hg), Some(hs)) = (dg[t], ds[t]) else { continue };
            if hg < 2 {
                continue;
            }
            let r = f64::from(hs) / f64::from(hg);
            max = max.max(r);
            sum += r;
            count += 1;
        }
    }
    (max, if count > 0 { sum / count as f64 } else { 1.0 })
}

struct StormResult {
    edges: usize,
    killed: usize,
    plain_size: usize,
    r22_size: usize,
    construct_plain_ms: f64,
    construct_r22_ms: f64,
    avail_plain: f64,
    avail_r22: f64,
    avail_ceiling: f64,
    heal_plain_ms: f64,
    heal_r22_ms: f64,
    stretch_max: f64,
    stretch_mean: f64,
}

fn run_storm(n: usize) -> StormResult {
    let side = side_for_avg_degree(n, 12.0);
    let udg = UnitDiskGraph::build(deploy::uniform(n, side, side, SEED ^ n as u64), RADIUS);
    let g = udg.graph();

    let (construct_plain_ms, plain) = time_ms(|| {
        let (mis, additional) = AlgorithmTwo::new().construct_parts(g);
        Wcds::new(mis, additional)
    });
    let params = ResilientParams::new(2, 2).expect("(2,2) is in range");
    let (construct_r22_ms, r22) = time_ms(|| ResilientBackbone::construct(g, params));

    let plain_spanner = plain.weakly_induced_subgraph(g);
    let r22_spanner = r22.spanner(g);

    // the storm: a seeded, replayable kill of 20% of the plain
    // backbone's dominators — identical physical failures for both
    // designs
    let pool: Vec<NodeId> = plain.nodes().to_vec();
    let fault = FaultPlan::new(STORM_SEED).crash_fraction_of(&pool, KILL_FRACTION, n as u64);
    let mut dead = vec![false; n];
    for c in fault.crashed_nodes() {
        dead[c] = true;
    }
    let killed = dead.iter().filter(|&&d| d).count();

    let avail_plain = availability(&survivor_components(&plain_spanner, &dead));
    let avail_r22 = availability(&survivor_components(&r22_spanner, &dead));
    // what any design could serve: the survivor graph itself
    let avail_ceiling = availability(&survivor_components(g, &dead));

    // re-convergence: rebuild each backbone from scratch on the
    // survivor deployment
    let survivor_points: Vec<Point> = (0..n).filter(|&u| !dead[u]).map(|u| udg.points()[u]).collect();
    let (heal_plain_ms, _) = time_ms(|| {
        let sudg = UnitDiskGraph::build(survivor_points.clone(), RADIUS);
        let (mis, additional) = AlgorithmTwo::new().construct_parts(sudg.graph());
        Wcds::new(mis, additional)
    });
    let (heal_r22_ms, (sudg, healed)) = time_ms(|| {
        let sudg = UnitDiskGraph::build(survivor_points.clone(), RADIUS);
        let healed = ResilientBackbone::construct(sudg.graph(), params);
        (sudg, healed)
    });
    let (stretch_max, stretch_mean) = hop_stretch(sudg.graph(), &healed.spanner(sudg.graph()));

    StormResult {
        edges: g.edge_count(),
        killed,
        plain_size: plain.len(),
        r22_size: r22.len(),
        construct_plain_ms,
        construct_r22_ms,
        avail_plain,
        avail_r22,
        avail_ceiling,
        heal_plain_ms,
        heal_r22_ms,
        stretch_max,
        stretch_mean,
    }
}

fn main() {
    let scale = Scale::from_args();
    let sizes: &[usize] = scale.pick(&[300][..], &[2000, 100_000][..]);

    let mut rows = Vec::new();
    let mut checks = Vec::new();
    for &n in sizes {
        let s = run_storm(n);
        rows.push(BenchRow::new("construct_plain", n, s.edges, 1, s.construct_plain_ms, n));
        rows.push(BenchRow::new("construct_r22", n, s.edges, 1, s.construct_r22_ms, n));
        rows.push(BenchRow::new("reconverge_plain", n, s.edges, 1, s.heal_plain_ms, n));
        rows.push(BenchRow::new("reconverge_r22", n, s.edges, 1, s.heal_r22_ms, n));

        checks.push((format!("killed_dominators_n{n}"), format!("{}", s.killed)));
        checks.push((format!("backbone_plain_n{n}"), format!("{}", s.plain_size)));
        checks.push((format!("backbone_r22_n{n}"), format!("{}", s.r22_size)));
        checks.push((format!("availability_plain_n{n}"), format!("{:.4}", s.avail_plain)));
        checks.push((format!("availability_r22_n{n}"), format!("{:.4}", s.avail_r22)));
        checks.push((format!("availability_ceiling_n{n}"), format!("{:.4}", s.avail_ceiling)));
        checks.push((format!("reconverge_r22_ms_n{n}"), format!("{:.1}", s.heal_r22_ms)));
        checks.push((format!("healing_stretch_max_n{n}"), format!("{:.2}", s.stretch_max)));
        checks.push((format!("healing_stretch_mean_n{n}"), format!("{:.3}", s.stretch_mean)));

        assert!(
            s.avail_r22 >= s.avail_plain,
            "n={n}: (2,2) availability {:.4} below plain {:.4}",
            s.avail_r22,
            s.avail_plain
        );
        if scale == Scale::Full {
            assert!(
                s.avail_r22 >= 0.99,
                "n={n}: (2,2) availability {:.4} misses the 99% floor after a 20% dominator kill",
                s.avail_r22
            );
        }
    }
    checks.push(("kill_fraction".to_string(), format!("{KILL_FRACTION}")));
    checks.push(("storm_seed".to_string(), format!("{STORM_SEED}")));
    checks.push(("r22_dominates_plain".to_string(), "true".to_string()));

    for r in &rows {
        println!(
            "{:<18} n={:<7} m={:<8} {:>10.2} ms  {:>12.0} nodes/s",
            r.name, r.n, r.edges, r.wall_ms, r.throughput
        );
    }
    for (k, v) in &checks {
        println!("  {k} = {v}");
    }
    write_bench_json(scale, "BENCH_resilience.json", "resilience", &rows, &checks);
}
