//! Degraded-mode serving under dominator kill storms (resilience
//! satellite): dominators die through the ordinary mutation API while
//! routes keep being served; after healing, the installed artifacts are
//! byte-identical to a from-scratch resilient build on the surviving
//! graph.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use wcds_core::resilient::{ResilientBackbone, ResilientParams};
use wcds_geom::deploy;
use wcds_graph::{io, Graph, NodeId, UnitDiskGraph};
use wcds_rng::{ChaCha12Rng, Rng};
use wcds_routing::BackboneRouter;
use wcds_service::store::UDG_RADIUS;
use wcds_service::{Mutation, RouteOutcome, Store};

fn payload(n: usize, side: f64, seed: u64) -> String {
    let udg = UnitDiskGraph::build(deploy::uniform(n, side, side, seed), UDG_RADIUS);
    io::to_text(udg.graph(), Some(udg.points()))
}

/// Moves `node` far outside everyone's radio range — the mutation-API
/// equivalent of a crash. Distinct parking spots keep dead nodes
/// isolated from each other too.
fn kill(store: &Store, node: NodeId, slot: usize) {
    let x = 1_000.0 + 10.0 * slot as f64;
    store.mutate("net", &Mutation::Move { node, x, y: 1_000.0 }).unwrap();
}

/// A live MIS dominator of the current bundle. Killed nodes are
/// isolated, which makes each its own MIS dominator in any rebuilt
/// bundle — the `killed` filter keeps the storm aimed at the backbone.
fn pick_victim(store: &Store, killed: &HashSet<NodeId>) -> Option<NodeId> {
    let (bundle, _) = store.bundle("net").unwrap();
    bundle.wcds.mis_dominators().iter().copied().find(|d| !killed.contains(d))
}

/// After healing, the cached artifacts must be byte-identical to a
/// from-scratch (2, 2) construction on the exported survivor graph.
fn assert_healed_matches_oracle(store: &Store) -> Graph {
    while store.heal("net").unwrap() {}
    let (healed, hit) = store.bundle("net").unwrap();
    assert!(hit, "healed bundle must be fresh");
    let doc = io::from_text(&store.export("net").unwrap()).unwrap();
    let g = doc.graph;
    let oracle = ResilientBackbone::construct(&g, ResilientParams::new(2, 2).unwrap());
    assert_eq!(healed.wcds, oracle.merged_wcds(), "healed WCDS diverged from oracle");
    assert_eq!(
        healed.router,
        BackboneRouter::build(&g, &oracle.merged_wcds()),
        "healed router diverged from oracle"
    );
    let summary = healed.resilient.expect("hardened bundle carries a resilient summary");
    assert_eq!(summary.achieved_k, oracle.achieved_connectivity());
    g
}

/// Serial storm: kill five dominators one at a time, checking after
/// every kill that each served route is a genuine path of the *current*
/// graph (degraded or fresh), then heal and compare to the oracle.
#[test]
fn serial_dominator_kill_storm_serves_valid_routes_and_heals() {
    const N: usize = 150;
    let store = Store::new();
    store.create("net", &payload(N, 5.0, 41)).unwrap();
    store.harden("net", 2, 2).unwrap();

    let mut rng = ChaCha12Rng::seed_from_u64(7);
    let mut killed: HashSet<NodeId> = HashSet::new();
    let mut attempted = 0u64;
    let mut served = 0u64;
    for round in 0..5 {
        let dead = pick_victim(&store, &killed).expect("a live dominator remains");
        kill(&store, dead, round);
        killed.insert(dead);

        // the graph is stable between kills: hop validity is exact
        let doc = io::from_text(&store.export("net").unwrap()).unwrap();
        let g = doc.graph;
        for _ in 0..9 {
            let s = rng.gen_range(0..N);
            let t = rng.gen_range(0..N);
            if killed.contains(&s) || killed.contains(&t) {
                continue;
            }
            attempted += 1;
            match store.route("net", s, t).unwrap() {
                RouteOutcome::Path(path) => {
                    served += 1;
                    assert_eq!(path.first(), Some(&s));
                    assert_eq!(path.last(), Some(&t));
                    for w in path.windows(2) {
                        assert!(
                            g.has_edge(w[0], w[1]),
                            "round {round}: hop {}→{} is not a live edge",
                            w[0],
                            w[1]
                        );
                    }
                }
                RouteOutcome::Degraded { unreachable } => {
                    // at minimum the isolated dead nodes are out of reach
                    assert!(unreachable >= killed.len() as u32);
                }
            }
        }
    }
    assert!(attempted >= 30, "storm sampled only {attempted} pairs");
    assert!(
        served * 2 >= attempted,
        "(2,2) backbone served only {served}/{attempted} routes through the storm"
    );

    assert_healed_matches_oracle(&store);
    let stats = store.stats("net").unwrap();
    assert_eq!(stats.routes_ok + stats.routes_degraded + stats.routes_unreachable, attempted);
}

/// Concurrent storm: reader threads hammer `route` while a killer
/// thread drops dominators through the mutation API mid-flight. No
/// route errors, every served path is endpoint-correct, the outcome
/// counters account for every query, and the healed artifacts match
/// the from-scratch oracle.
#[test]
fn concurrent_dominator_kills_mid_stress_heal_to_oracle() {
    const N: usize = 120;
    const READERS: usize = 6;
    const OPS: usize = 50;
    const KILLS: usize = 4;

    let store = Store::new();
    store.create("net", &payload(N, 4.5, 77)).unwrap();
    store.harden("net", 2, 2).unwrap();

    let failed = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let store_ref = &store;
        let failed_ref = &failed;
        scope.spawn(move || {
            let mut killed: HashSet<NodeId> = HashSet::new();
            for round in 0..KILLS {
                match pick_victim(store_ref, &killed) {
                    Some(dead) => {
                        kill(store_ref, dead, round);
                        killed.insert(dead);
                    }
                    None => break,
                }
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        });
        for t in 0..READERS {
            scope.spawn(move || {
                let mut rng = ChaCha12Rng::seed_from_u64(900 + t as u64);
                for _ in 0..OPS {
                    let s = rng.gen_range(0..N);
                    let d = rng.gen_range(0..N);
                    match store_ref.route("net", s, d) {
                        Ok(RouteOutcome::Path(path)) => {
                            assert_eq!(path.first(), Some(&s));
                            assert_eq!(path.last(), Some(&d));
                        }
                        Ok(RouteOutcome::Degraded { .. }) => {}
                        Err(e) => {
                            eprintln!("route({s}, {d}) failed: {e}");
                            failed_ref.store(true, Ordering::SeqCst);
                            return;
                        }
                    }
                }
            });
        }
    });
    assert!(!failed.load(Ordering::SeqCst), "a reader hit an unexpected route error");

    let g = assert_healed_matches_oracle(&store);
    assert!(g.node_count() == N, "moves never change the node count");
    let stats = store.stats("net").unwrap();
    assert_eq!(
        stats.routes_ok + stats.routes_degraded + stats.routes_unreachable,
        (READERS * OPS) as u64,
        "every route query lands in exactly one availability counter"
    );
}
