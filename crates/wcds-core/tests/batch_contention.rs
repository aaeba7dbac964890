//! Adversarial-contention property tests for the batched mutation
//! path (DESIGN.md §4.4).
//!
//! Two extreme workloads bound the coalesced repair:
//!
//! * **one 3-ball** — every move lands in the same neighborhood, so
//!   every move's repair region overlaps every other's;
//! * **maximally spread** — moves in clusters far apart, so no two
//!   repair regions meet.
//!
//! Both apply the batch exactly the way `Store::mutate_batch` does —
//! one coalesced `apply_motion` for the whole run of moves — and assert
//! the final state is **byte-identical** to serial replay in batch
//! order, plus the from-scratch Algorithm II oracle.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use wcds_core::algo2::AlgorithmTwo;
use wcds_core::maintenance::MaintainedWcds;
use wcds_geom::{deploy, Point};
use wcds_graph::{io, NodeId, UnitDiskGraph};
use wcds_rng::{ChaCha12Rng, Rng};

const SEED: u64 = 42;
const RADIUS: f64 = 1.0;

/// The serial-replay oracle plus the from-scratch oracle: `net` must
/// be byte-identical to one-at-a-time application in batch order on a
/// fresh engine, and to Algorithm II on the final points.
fn assert_matches_serial(
    net: &MaintainedWcds,
    initial: &[Point],
    moves: &[(NodeId, Point)],
    label: &str,
) {
    let mut serial = MaintainedWcds::new(initial.to_vec(), RADIUS);
    for &(u, q) in moves {
        serial.apply_motion(&[(u, q)]);
    }
    assert_eq!(net.graph(), serial.graph(), "{label}: CSR diverged from serial replay");
    let (w, sw) = (net.wcds(), serial.wcds());
    assert_eq!(w.mis_dominators(), sw.mis_dominators(), "{label}: MIS diverged");
    assert_eq!(
        w.additional_dominators(),
        sw.additional_dominators(),
        "{label}: bridges diverged"
    );
    assert_eq!(
        io::to_text(net.graph(), Some(net.points())),
        io::to_text(serial.graph(), Some(serial.points())),
        "{label}: exported artifact not byte-identical to serial replay"
    );

    let scratch = UnitDiskGraph::build(net.points().to_vec(), RADIUS);
    assert_eq!(net.graph(), scratch.graph(), "{label}: CSR diverged from scratch build");
    let (mis, additional) = AlgorithmTwo::new().construct_parts(net.graph());
    assert_eq!(w.mis_dominators(), &mis[..], "{label}: MIS diverged from Algorithm II");
    assert_eq!(
        w.additional_dominators(),
        &additional[..],
        "{label}: bridges diverged from Algorithm II"
    );
}

/// Every move targets one 3-ball, so every repair region overlaps
/// every other: the coalesced pass must still equal full
/// serialization (a serial replay) exactly.
#[test]
fn one_ball_batch_fully_serializes_and_matches_serial_replay() {
    const N: usize = 150;
    const SIDE: f64 = 6.0;
    const MOVES: usize = 12;

    let initial = deploy::uniform(N, SIDE, SIDE, SEED);
    let mut rng = ChaCha12Rng::seed_from_u64(SEED ^ 0xba11);
    let hot = Point::new(SIDE / 2.0, SIDE / 2.0);
    let moves: Vec<(NodeId, Point)> = (0..MOVES)
        .map(|_| {
            let u = rng.gen_range(0..N);
            // all destinations inside half a radius of the hot spot —
            // one shared 3-ball, every pair of repair regions overlaps
            let q = Point::new(
                hot.x + (rng.gen::<f64>() - 0.5) * RADIUS,
                hot.y + (rng.gen::<f64>() - 0.5) * RADIUS,
            );
            (u, q)
        })
        .collect();

    let mut net = MaintainedWcds::new(initial.clone(), RADIUS);
    net.apply_motion(&moves);
    assert_matches_serial(&net, &initial, &moves, "one-ball");
}

/// Moves in clusters far apart, each repair region disjoint from the
/// others: the whole batch runs as one wave (one coalesced pass), and
/// the state is exact.
#[test]
fn spread_batch_runs_one_wave_and_matches_serial_replay() {
    const CLUSTERS: usize = 8;
    const PER_CLUSTER: usize = 16;
    // cluster spacing: forty radii keeps every repair region (at most
    // eight radii from its move) disjoint across clusters
    const SPACING: f64 = 40.0;
    const CLUSTER_SIDE: f64 = 3.0;

    let mut initial = Vec::with_capacity(CLUSTERS * PER_CLUSTER);
    for c in 0..CLUSTERS {
        let blob = deploy::uniform(PER_CLUSTER, CLUSTER_SIDE, CLUSTER_SIDE, SEED + c as u64);
        initial.extend(blob.iter().map(|p| Point::new(p.x + c as f64 * SPACING, p.y)));
    }

    let mut rng = ChaCha12Rng::seed_from_u64(SEED ^ 0x5bead);
    let moves: Vec<(NodeId, Point)> = (0..CLUSTERS)
        .map(|c| {
            let u = c * PER_CLUSTER + rng.gen_range(0..PER_CLUSTER);
            let p = initial[u];
            // drift inside the home cluster so the repair stays local
            let q = Point::new(
                (p.x + (rng.gen::<f64>() - 0.5) * 0.8)
                    .clamp(c as f64 * SPACING, c as f64 * SPACING + CLUSTER_SIDE),
                (p.y + (rng.gen::<f64>() - 0.5) * 0.8).clamp(0.0, CLUSTER_SIDE),
            );
            (u, q)
        })
        .collect();

    let mut net = MaintainedWcds::new(initial.clone(), RADIUS);
    net.apply_motion(&moves);
    assert_matches_serial(&net, &initial, &moves, "spread");
}

/// `RepairReport::changed()` is exactly "the WCDS partition changed":
/// true iff the (MIS, bridges) pair differs across the mutation. The
/// sharp direction is role swaps — a bridge absorbed into the MIS
/// while a nearby head drops to bridge leaves the dominator *union*
/// intact, and a union-only diff would report the repair as quiet.
/// `Store::mutate{,_batch}` gate their bundle-patch fast path on
/// `!changed()`, so a lying report ships routing tables derived from
/// the wrong head set (the "WCDS does not dominate the graph" panic).
#[test]
fn report_changed_iff_wcds_partition_changed() {
    const N: usize = 80;
    const SIDE: f64 = 4.0;
    const STEPS: usize = 300;
    const BATCH: usize = 16;
    const DRIFT: f64 = 0.15;
    // this seed's drift trace provokes both sides: ~16 quiet
    // (patchable) ticks and 2 union-preserving role swaps
    const TRACE_SEED: u64 = 12;

    let initial = deploy::uniform(N, SIDE, SIDE, SEED);
    let mut net = MaintainedWcds::new(initial, RADIUS);
    let mut rng = ChaCha12Rng::seed_from_u64(TRACE_SEED);
    let mut role_swaps = 0usize;
    let mut quiet = 0usize;
    for step in 0..STEPS {
        let before = net.wcds();
        let n = net.graph().node_count();
        let moves: Vec<(NodeId, Point)> = (0..BATCH)
            .map(|_| {
                let u = rng.gen_range(0..n);
                let p = net.points()[u];
                let q = Point::new(
                    (p.x + (rng.gen::<f64>() - 0.5) * 2.0 * DRIFT).clamp(0.0, SIDE),
                    (p.y + (rng.gen::<f64>() - 0.5) * 2.0 * DRIFT).clamp(0.0, SIDE),
                );
                (u, q)
            })
            .collect();
        let report = net.apply_motion(&moves);
        let after = net.wcds();
        assert_eq!(
            report.changed(),
            before != after,
            "step {step}: report says changed={}, partition equality says {}\n\
             promoted={:?} demoted={:?} role_changes={:?}",
            report.changed(),
            before != after,
            report.promoted,
            report.demoted,
            report.role_changes,
        );
        // a role swap keeps the union but moves nodes across the
        // MIS/bridge line — the case the union-only diff missed
        if !report.role_changes.is_empty() {
            let union = |w: &wcds_core::wcds::Wcds| -> std::collections::BTreeSet<usize> {
                w.mis_dominators().iter().chain(w.additional_dominators()).copied().collect()
            };
            if union(&before) == union(&after) {
                role_swaps += 1;
            }
        }
        if !report.changed() {
            quiet += 1;
        }
    }
    assert!(
        role_swaps > 0,
        "trace never exercised a union-preserving role swap — densify it"
    );
    assert!(quiet > 0, "trace never exercised the quiet (patchable) path");
}

/// A long randomized drift trace applied tick-by-tick, one coalesced
/// `apply_motion` per tick, stays exact against serial replay.
#[test]
fn randomized_drift_ticks_stay_exact() {
    const N: usize = 120;
    const SIDE: f64 = 5.0;
    const TICKS: usize = 12;
    const BATCH: usize = 8;

    let initial = deploy::uniform(N, SIDE, SIDE, SEED);
    let mut rng = ChaCha12Rng::seed_from_u64(SEED ^ 0xd41f7);
    let ticks: Vec<Vec<(NodeId, Point)>> = (0..TICKS)
        .map(|_| {
            (0..BATCH)
                .map(|_| {
                    let u = rng.gen_range(0..N);
                    let q = Point::new(
                        rng.gen::<f64>() * SIDE,
                        rng.gen::<f64>() * SIDE,
                    );
                    (u, q)
                })
                .collect()
        })
        .collect();

    // serial oracle: every move one at a time, in tick order
    let mut serial = MaintainedWcds::new(initial.clone(), RADIUS);
    for tick in &ticks {
        for &(u, q) in tick {
            serial.apply_motion(&[(u, q)]);
        }
    }

    let mut net = MaintainedWcds::new(initial, RADIUS);
    for tick in &ticks {
        net.apply_motion(tick);
    }
    assert_eq!(net.graph(), serial.graph(), "CSR diverged");
    assert_eq!(
        io::to_text(net.graph(), Some(net.points())),
        io::to_text(serial.graph(), Some(serial.points())),
        "export diverged"
    );
    let (w, sw) = (net.wcds(), serial.wcds());
    assert_eq!(w.mis_dominators(), sw.mis_dominators(), "MIS diverged");
    assert_eq!(w.additional_dominators(), sw.additional_dominators(), "bridges diverged");
}
