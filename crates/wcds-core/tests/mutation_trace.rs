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
use wcds_graph::{traversal, NodeId, UnitDiskGraph};
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
