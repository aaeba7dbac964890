//! Trace replay: the incremental maintenance engine must be
//! indistinguishable from from-scratch Algorithm II at every step.
//!
//! A long random mutation trace — joins, leaves, small moves, plus
//! flings that disconnect the graph and moves that knit it back — is
//! replayed through [`MaintainedWcds`], and after **every** step:
//!
//! * the incremental MIS + bridge set equals a from-scratch
//!   `AlgorithmTwo` construction on the current graph;
//! * the spliced CSR equals a from-scratch `UnitDiskGraph` build
//!   (release-mode assertion — not only the debug_assert inside
//!   `DynamicUdg`);
//! * the WCDS is valid whenever the graph is connected;
//! * the repair's locality radius — the per-stage propagation distance
//!   (disturbed edges → MIS flips, then disturbance ∪ flips →
//!   dominator-status changes) — is ≤ 3 whenever both the pre- and
//!   post-mutation graphs are connected (the paper's §4.2 claim).

use wcds_core::algo2::AlgorithmTwo;
use wcds_core::maintenance::MaintainedWcds;
use wcds_geom::{deploy, Point};
use wcds_graph::{io, traversal, NodeId, UnitDiskGraph};
use wcds_rng::{ChaCha12Rng, Rng};

const SIDE: f64 = 6.0;
const RADIUS: f64 = 1.0;
const STEPS: usize = 220;

/// One full-equality checkpoint: incremental state vs from-scratch
/// constructions of everything.
fn assert_matches_from_scratch(net: &MaintainedWcds, step: usize) {
    let rebuilt = UnitDiskGraph::build(net.points().to_vec(), RADIUS);
    assert_eq!(
        net.graph(),
        rebuilt.graph(),
        "step {step}: spliced CSR diverged from a from-scratch build"
    );
    let (mis, additional) = AlgorithmTwo::new().construct_parts(net.graph());
    let w = net.wcds();
    assert_eq!(w.mis_dominators(), &mis[..], "step {step}: MIS diverged");
    assert_eq!(w.additional_dominators(), &additional[..], "step {step}: bridges diverged");
    if traversal::is_connected(net.graph()) {
        assert!(w.is_valid(net.graph()), "step {step}: invalid WCDS {w}");
    }
}

#[test]
fn long_mixed_trace_replays_algorithm_two_exactly() {
    let mut net = MaintainedWcds::new(deploy::uniform(200, SIDE, SIDE, 42), RADIUS);
    let mut rng = ChaCha12Rng::seed_from_u64(4242);
    assert_matches_from_scratch(&net, 0);

    let mut max_connected_radius = 0;
    let mut connected_repairs = 0;
    let mut exiled: Vec<NodeId> = Vec::new();

    for step in 1..=STEPS {
        let n = net.graph().node_count();
        let pre_connected = traversal::is_connected(net.graph());
        let report = match step % 11 {
            // joins: in-field, so the backbone absorbs them
            0 | 4 => net.apply_join(Point::new(
                rng.gen::<f64>() * SIDE,
                rng.gen::<f64>() * SIDE,
            )),
            // leaves: compaction renames every id above the victim
            2 | 7 => {
                let victim = rng.gen_range(0..n);
                exiled.retain(|&x| x != victim);
                for x in exiled.iter_mut() {
                    if *x > victim {
                        *x -= 1;
                    }
                }
                net.apply_leave(victim)
            }
            // fling: disconnects the walker from the component
            3 => {
                let u = rng.gen_range(0..n);
                if !exiled.contains(&u) {
                    exiled.push(u);
                }
                net.apply_motion(&[(
                    u,
                    Point::new(100.0 + rng.gen::<f64>(), 100.0 + rng.gen::<f64>()),
                )])
            }
            // return: an exiled node rejoins the field (reconnects)
            8 => match exiled.pop() {
                Some(u) => net.apply_motion(&[(
                    u,
                    Point::new(rng.gen::<f64>() * SIDE, rng.gen::<f64>() * SIDE),
                )]),
                None => {
                    let u = rng.gen_range(0..n);
                    let p = net.points()[u];
                    net.apply_motion(&[(u, p)]) // noop move
                }
            },
            // drift: one node takes a bounded step
            _ => {
                let u = rng.gen_range(0..n);
                let p = net.points()[u];
                let q = Point::new(
                    (p.x + (rng.gen::<f64>() - 0.5) * 0.6).clamp(0.0, SIDE),
                    (p.y + (rng.gen::<f64>() - 0.5) * 0.6).clamp(0.0, SIDE),
                );
                net.apply_motion(&[(u, q)])
            }
        };
        assert_matches_from_scratch(&net, step);

        let post_connected = traversal::is_connected(net.graph());
        if pre_connected && post_connected {
            if let Some(r) = report.locality_radius {
                connected_repairs += 1;
                max_connected_radius = max_connected_radius.max(r);
                assert!(
                    r <= 3,
                    "step {step}: locality radius {r} exceeds the 3-hop claim \
                     on a connected instance (report {report:?})"
                );
            }
        }
        // the counters must reflect a bounded region, never the graph
        if report.affected.is_empty() {
            assert_eq!(report.touched_nodes, 0, "step {step}");
        }
    }

    // the trace must actually have exercised the claim
    assert!(connected_repairs >= 20, "only {connected_repairs} connected repairs");
    assert!(max_connected_radius >= 1, "trace never moved a dominator");
}

#[test]
fn dense_churn_trace_stays_exact() {
    // a second, denser field with a different mutation mix: multi-node
    // motion batches interleaved with join/leave churn
    let mut net = MaintainedWcds::new(deploy::uniform(120, 4.0, 4.0, 7), RADIUS);
    let mut rng = ChaCha12Rng::seed_from_u64(99);
    for step in 1..=60 {
        let n = net.graph().node_count();
        match step % 4 {
            0 => {
                // batch motion: three walkers at once, deltas cancel or
                // compound — repair sees only the net disturbance
                let mut moves: Vec<(NodeId, Point)> = Vec::new();
                for _ in 0..3 {
                    let u = rng.gen_range(0..n);
                    let p = net.points()[u];
                    moves.push((
                        u,
                        Point::new(
                            (p.x + (rng.gen::<f64>() - 0.5) * 0.8).clamp(0.0, 4.0),
                            (p.y + (rng.gen::<f64>() - 0.5) * 0.8).clamp(0.0, 4.0),
                        ),
                    ));
                }
                net.apply_motion(&moves);
            }
            1 => {
                net.apply_join(Point::new(rng.gen::<f64>() * 4.0, rng.gen::<f64>() * 4.0));
            }
            _ => {
                let victim = rng.gen_range(0..n);
                net.apply_leave(victim);
            }
        }
        assert_matches_from_scratch(&net, step);
    }
}

// ---------------------------------------------------------------------
// golden digests: every `RepairReport` field and the final state of a
// seeded mixed trace, pinned so a change to the repair's searches must
// report the same regions, radii and role changes

/// FNV-1a (64-bit) of `text`.
fn fnv(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// A move of `u` (a random node if `None`) to within `reach` of its
/// position on each axis.
fn drift(
    net: &MaintainedWcds,
    rng: &mut ChaCha12Rng,
    side: f64,
    u: Option<NodeId>,
    reach: f64,
) -> (NodeId, Point) {
    let u = u.unwrap_or_else(|| rng.gen_range(0..net.graph().node_count()));
    let p = net.points()[u];
    let q = Point::new(
        (p.x + (rng.gen::<f64>() - 0.5) * 2.0 * reach).clamp(0.0, side),
        (p.y + (rng.gen::<f64>() - 0.5) * 2.0 * reach).clamp(0.0, side),
    );
    (u, q)
}

/// Replays a seeded mixed trace on `n` nodes at average degree about
/// 10 — single moves, a 16-move drift batch, a join, a leave and a
/// batch spread over the whole field — and digests every report (all
/// fields, through `Debug`), the final export and the final WCDS.
fn digest_mixed_trace(n: usize, seed: u64) -> u64 {
    let side = (n as f64 * std::f64::consts::PI / 10.0).sqrt();
    let mut net = MaintainedWcds::new(deploy::uniform(n, side, side, seed), RADIUS);
    let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0x901d);
    let mut reports = Vec::new();
    for _ in 0..8 {
        let m = drift(&net, &mut rng, side, None, 0.4);
        reports.push(net.apply_motion(&[m]));
    }
    let batch: Vec<(NodeId, Point)> =
        (0..16).map(|_| drift(&net, &mut rng, side, None, 0.25)).collect();
    reports.push(net.apply_motion(&batch));
    reports.push(net.apply_join(Point::new(rng.gen::<f64>() * side, rng.gen::<f64>() * side)));
    let victim = rng.gen_range(0..net.graph().node_count());
    reports.push(net.apply_leave(victim));
    let spread: Vec<(NodeId, Point)> = (0..net.graph().node_count())
        .step_by(4)
        .map(|u| drift(&net, &mut rng, side, Some(u), 0.3))
        .collect();
    let dense = net.apply_motion(&spread);
    assert!(
        dense.touched_nodes * 2 >= net.graph().node_count(),
        "n {n}: the spread batch must take the dense rebuild ({} touched)",
        dense.touched_nodes
    );
    reports.push(dense);
    for _ in 0..4 {
        let m = drift(&net, &mut rng, side, None, 0.4);
        reports.push(net.apply_motion(&[m]));
    }
    let w = net.wcds();
    fnv(&format!(
        "{reports:?}\n{}\n{:?} {:?}",
        io::to_text(net.graph(), Some(net.points())),
        w.mis_dominators(),
        w.additional_dominators()
    ))
}

#[test]
fn repair_reports_match_golden_digests() {
    let got: Vec<String> = [(300, 5), (2000, 6)]
        .into_iter()
        .map(|(n, seed)| format!("n {n} seed {seed}: {:#018x}", digest_mixed_trace(n, seed)))
        .collect();
    let expected: Vec<String> =
        GOLDEN.iter().map(|(name, d)| format!("{name}: {d:#018x}")).collect();
    assert_eq!(got, expected);
}

/// Digests recorded before the repair's region and per-anchor searches
/// moved onto `BallTree`.
const GOLDEN: [(&str, u64); 2] =
    [("n 300 seed 5", 0x9070951d4a6ca9ae), ("n 2000 seed 6", 0xeabd348cd981f7b0)];
