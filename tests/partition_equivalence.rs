//! Threaded Algorithm II ⟷ sequential equivalence.
//!
//! [`PartitionedTwo`] promises *byte-identical* output to
//! [`AlgorithmTwo`] for every thread count — the property the whole
//! city-scale pipeline rests on. Its MIS is the sequential greedy scan,
//! so this suite pins the threaded per-anchor bridge sweep: the
//! construction also self-checks at n ≤ 5000; here the comparison is
//! explicit so the property is exercised at several widths and on
//! adversarial inputs.

use wcds_core::algo2::AlgorithmTwo;
use wcds_core::partition::PartitionedTwo;
use wcds_geom::{deploy, Point};
use wcds_graph::UnitDiskGraph;

/// Thread widths exercised per instance: serial, an odd width that
/// splits the anchors unevenly, and more workers than cores.
const WIDTHS: [usize; 3] = [1, 3, 8];

fn assert_equivalent(udg: &UnitDiskGraph, tag: &str) {
    let seq = AlgorithmTwo::new().construct_parts(udg.graph());
    for nthreads in WIDTHS {
        let got = PartitionedTwo::with_threads(nthreads).construct_parts(udg);
        assert_eq!(got, seq, "{tag}: diverged at {nthreads} threads");
    }
}

fn side_for_avg_degree(n: usize, avg_degree: f64) -> f64 {
    (n as f64 * std::f64::consts::PI / avg_degree).sqrt()
}

#[test]
fn uniform_deployments_match_sequential_small() {
    for n in [200usize, 1000] {
        let side = side_for_avg_degree(n, 11.0);
        for seed in 0..20u64 {
            let udg = UnitDiskGraph::build(deploy::uniform(n, side, side, seed), 1.0);
            assert_equivalent(&udg, &format!("uniform n={n} seed={seed}"));
        }
    }
}

#[test]
fn uniform_deployments_match_sequential_n5000() {
    let side = side_for_avg_degree(5000, 11.0);
    for seed in 0..20u64 {
        let udg = UnitDiskGraph::build(deploy::uniform(5000, side, side, seed), 1.0);
        assert_equivalent(&udg, &format!("uniform n=5000 seed={seed}"));
    }
}

#[test]
fn clustered_and_skewed_deployments_match_sequential() {
    for seed in 0..20u64 {
        let pts = deploy::clustered(800, 12.0, 12.0, 10, 0.8, seed);
        assert_equivalent(
            &UnitDiskGraph::build(pts, 1.0),
            &format!("clustered seed={seed}"),
        );
        // extreme aspect ratio: a near-linear ribbon
        let pts = deploy::uniform(600, 80.0, 0.5, seed);
        assert_equivalent(
            &UnitDiskGraph::build(pts, 1.0),
            &format!("ribbon seed={seed}"),
        );
    }
}

#[test]
fn lattice_points_on_cell_boundaries_match_sequential() {
    // Exact lattices whose link lengths land on or just inside the
    // unit radius, plus coincident duplicates: regular adjacency with
    // many equal-distance ties.
    for (nx, ny, pitch) in [(40usize, 40usize, 0.75), (70, 15, 0.5), (34, 34, 0.9999999)] {
        let mut pts = Vec::new();
        for i in 0..nx {
            for j in 0..ny {
                pts.push(Point::new(i as f64 * pitch, j as f64 * pitch));
            }
        }
        for k in 0..60 {
            // duplicates of lattice sites, including the extreme corner
            let i = (7 * k) % nx;
            let j = (11 * k) % ny;
            pts.push(Point::new(i as f64 * pitch, j as f64 * pitch));
        }
        let udg = UnitDiskGraph::build(pts, 1.0);
        assert_equivalent(&udg, &format!("lattice {nx}x{ny} pitch={pitch}"));
    }
}

#[test]
fn degenerate_extents_match_sequential() {
    // collinear and coincident point sets: zero-extent bounding boxes
    let line: Vec<Point> = (0..500).map(|i| Point::new(i as f64 * 0.6, 2.5)).collect();
    assert_equivalent(&UnitDiskGraph::build(line, 1.0), "collinear");
    let heap: Vec<Point> = (0..300).map(|_| Point::new(1.0, 1.0)).collect();
    assert_equivalent(&UnitDiskGraph::build(heap, 1.0), "coincident");
}
