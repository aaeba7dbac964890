//! Width invariance of the implicit-width entry points.
//!
//! These functions take no worker count: they run on
//! [`parallel::threads`] workers, which `WCDS_THREADS` picks at run
//! time. Each must return the same result at one worker and at two,
//! including the four that have no explicit-width variant to test
//! against (`all_pairs_hops`, `all_pairs_geometric`,
//! `GraphMetrics::compute` and `lemma6_worst_slack`).
//!
//! The test sets a process-wide environment variable, so it must stay
//! the only test in this binary.

use wcds_bench::util::{connected_uniform_udg, side_for_avg_degree};
use wcds_core::algo2::AlgorithmTwo;
use wcds_core::dilation::{lemma6_worst_slack, DilationReport};
use wcds_core::maintenance::{MaintainedWcds, RepairReport};
use wcds_core::partition::PartitionedTwo;
use wcds_core::{Wcds, WcdsConstruction};
use wcds_geom::Point;
use wcds_graph::metrics::GraphMetrics;
use wcds_graph::{parallel, shortest_path, Graph, NodeId, UnitDiskGraph};

const N: usize = 300;
const RADIUS: f64 = 1.0;

/// Everything the implicit-width entry points return on one instance.
struct Outputs {
    udg: Graph,
    hops: Vec<Vec<Option<u32>>>,
    geometric: Vec<Vec<Option<f64>>>,
    metrics: GraphMetrics,
    lemma6_slack: Option<f64>,
    parts: (Vec<NodeId>, Vec<NodeId>),
    maintained: Wcds,
    repairs: Vec<RepairReport>,
    repaired: Wcds,
    dilation: DilationReport,
}

fn outputs(points: &[Point]) -> Outputs {
    let udg = UnitDiskGraph::build(points.to_vec(), RADIUS);
    let g = udg.graph();
    let spanner = AlgorithmTwo::new().construct(g).spanner;
    let mut net = MaintainedWcds::new(points.to_vec(), RADIUS);
    let maintained = net.wcds();
    // a batch spread over the whole graph takes the dense rebuild, which
    // reruns the constructor's sweep over the workers; one around node 0
    // takes the per-anchor refresh, which runs on the calling thread
    let spread: Vec<(NodeId, Point)> = (0..N)
        .step_by(6)
        .map(|u| {
            let p = points[u];
            (u, Point::new(p.x + 0.1 * ((u % 5) as f64 - 2.0), p.y + 0.1 * ((u % 3) as f64 - 1.0)))
        })
        .collect();
    let local: Vec<(NodeId, Point)> = (0..N)
        .filter(|&u| points[u].distance(points[0]) < 1.5)
        .map(|u| (u, Point::new(points[u].x + 0.05, points[u].y - 0.05)))
        .collect();
    let repairs = vec![net.apply_motion(&spread), net.apply_motion(&local)];
    Outputs {
        udg: g.clone(),
        hops: shortest_path::all_pairs_hops(g),
        geometric: shortest_path::all_pairs_geometric(g, points),
        metrics: GraphMetrics::compute(g, true),
        lemma6_slack: lemma6_worst_slack(g, &spanner, points, 3.0, 2.0),
        parts: PartitionedTwo::new().construct_parts(&udg),
        maintained,
        repairs,
        repaired: net.wcds(),
        dilation: DilationReport::measure(g, &spanner, points),
    }
}

#[test]
fn implicit_width_callers_agree_at_one_and_two_workers() {
    let points = connected_uniform_udg(N, side_for_avg_degree(N, 11.0), 7).points().to_vec();

    std::env::set_var("WCDS_THREADS", "1");
    assert_eq!(parallel::threads(), 1);
    let serial = outputs(&points);

    std::env::set_var("WCDS_THREADS", "2");
    let available = std::thread::available_parallelism().map_or(1, |p| p.get());
    assert_eq!(parallel::threads(), available.min(2), "WCDS_THREADS=2 must be honoured");
    let threaded = outputs(&points);

    let (s, t) = (&serial, &threaded);
    for (name, same) in [
        ("UnitDiskGraph::build", t.udg == s.udg),
        ("all_pairs_hops", t.hops == s.hops),
        ("all_pairs_geometric", t.geometric == s.geometric),
        ("GraphMetrics::compute", t.metrics == s.metrics),
        ("lemma6_worst_slack", t.lemma6_slack == s.lemma6_slack),
        ("PartitionedTwo::construct_parts", t.parts == s.parts),
        ("MaintainedWcds::new", t.maintained == s.maintained),
        ("MaintainedWcds::apply_motion", t.repairs == s.repairs && t.repaired == s.repaired),
        ("DilationReport::measure", t.dilation == s.dilation),
    ] {
        assert!(same, "{name} depends on the worker count");
    }
}
