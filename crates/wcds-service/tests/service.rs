//! End-to-end tests over real TCP: a full scripted session, the
//! concurrency stress satellite (≥ 8 client threads, mixed reads and
//! mutations, serial-replay equivalence) and non-finite coordinates on
//! every ingest path — plus an in-process race between `MutateBatch`
//! and a concurrent `Leave` on the store itself.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;
use wcds_core::maintenance::MaintainedWcds;
use wcds_geom::{deploy, Point};
use wcds_graph::{io, UnitDiskGraph};
use wcds_rng::{ChaCha12Rng, Rng};
use wcds_service::store::UDG_RADIUS;
use wcds_service::{
    BroadcastOutcome, Client, ClientError, ErrorCode, Mutation, RouteOutcome, Server,
    ServerConfig, Store,
};

fn unwrap_path(outcome: RouteOutcome) -> Vec<usize> {
    match outcome {
        RouteOutcome::Path(p) => p,
        RouteOutcome::Degraded { unreachable } => {
            panic!("expected a route, got Degraded {{ unreachable: {unreachable} }}")
        }
    }
}

fn is_bad_payload<T>(r: &Result<T, ClientError>) -> bool {
    matches!(r, Err(ClientError::Server { code: ErrorCode::BadPayload, .. }))
}

fn payload(n: usize, side: f64, seed: u64) -> String {
    let udg = UnitDiskGraph::build(deploy::uniform(n, side, side, seed), UDG_RADIUS);
    io::to_text(udg.graph(), Some(udg.points()))
}

/// The serial-replay oracle: applies `log` one mutation at a time to
/// the `initial` payload and returns the resulting export.
fn serial_replay<'a>(initial: &str, log: impl IntoIterator<Item = &'a Mutation>) -> String {
    let doc = io::from_text(initial).unwrap();
    let mut replay = MaintainedWcds::new(doc.points.unwrap(), UDG_RADIUS);
    for mutation in log {
        match *mutation {
            Mutation::Join { x, y } => {
                replay.apply_join(Point::new(x, y));
            }
            Mutation::Leave { node } => {
                replay.apply_leave(node);
            }
            Mutation::Move { node, x, y } => {
                replay.apply_motion(&[(node, Point::new(x, y))]);
            }
        }
    }
    io::to_text(replay.graph(), Some(replay.points()))
}

/// One client walks the whole API over a real socket: ingest, query,
/// mutate, re-query, administer, shut down. The post-join assertions
/// are the graceful-shutdown acceptance check — `join()` returning
/// proves no worker thread leaked, and a rebind proves the listener
/// closed.
#[test]
fn tcp_session_end_to_end() {
    let handle = Server::bind("127.0.0.1:0", Store::new(), ServerConfig::default()).unwrap();
    let addr = handle.local_addr();
    let mut c = Client::connect_with_timeout(addr, Duration::from_secs(10)).unwrap();

    c.ping().unwrap();
    let initial = payload(70, 4.0, 21);
    let (n, m, mobile) = c.create("net", &initial).unwrap();
    assert_eq!(n, 70);
    assert!(m > 0);
    assert!(mobile);
    assert!(matches!(
        c.create("net", &initial),
        Err(ClientError::Server { code: ErrorCode::AlreadyExists, .. })
    ));

    let (mis, _bridges, spanner_edges, epoch) = c.construct("net").unwrap();
    assert!(mis > 0);
    assert!(spanner_edges > 0);
    assert_eq!(epoch, 0);

    let path = unwrap_path(c.route("net", 0, 69).unwrap());
    assert_eq!(path.first(), Some(&0));
    assert_eq!(path.last(), Some(&69));
    let BroadcastOutcome::Done { forwarders, informed } = c.broadcast("net", 0).unwrap() else {
        panic!("connected deployment must broadcast");
    };
    assert!(forwarders > 0);
    assert_eq!(informed, 70, "connected deployment: broadcast reaches everyone");

    let stats = c.stats("net").unwrap();
    assert_eq!(stats.nodes, 70);
    assert_eq!(stats.epoch, 0);
    assert!(stats.cached, "route/broadcast left a fresh bundle behind");

    // mutate, then check the next query observes the new epoch
    let (epoch, _, _) = c.mutate("net", Mutation::Join { x: 2.0, y: 2.0 }).unwrap();
    assert_eq!(epoch, 1);
    let stats = c.stats("net").unwrap();
    assert_eq!(stats.nodes, 71);
    assert_eq!(stats.epoch, 1);
    let path = unwrap_path(c.route("net", 0, 70).unwrap());
    assert_eq!(path.last(), Some(&70), "post-mutation route reaches the joined node");

    // harden over the wire, then check the stats surface the target
    let out = c.harden("net", 2, 2).unwrap();
    assert_eq!((out.k, out.m), (2, 2));
    assert!(out.achieved_k >= 1);
    let stats = c.stats("net").unwrap();
    assert_eq!((stats.hardened_k, stats.hardened_m), (2, 2));
    assert_eq!(stats.achieved_k, out.achieved_k);
    assert!(matches!(
        c.harden("net", 0, 1),
        Err(ClientError::Server { code: ErrorCode::OutOfRange, .. })
    ));

    // export equals a serial replay of the one-mutation log
    let doc = io::from_text(&initial).unwrap();
    let mut replay = MaintainedWcds::new(doc.points.unwrap(), UDG_RADIUS);
    replay.apply_join(Point::new(2.0, 2.0));
    assert_eq!(c.export("net").unwrap(), io::to_text(replay.graph(), Some(replay.points())));

    assert_eq!(c.list().unwrap(), vec!["net".to_string()]);
    c.drop_topology("net").unwrap();
    assert!(matches!(
        c.route("net", 0, 1),
        Err(ClientError::Server { code: ErrorCode::NotFound, .. })
    ));

    assert!(handle.requests_served() > 10);
    c.shutdown_server().unwrap();
    handle.join(); // returns ⇒ acceptor and every worker exited
    assert!(
        std::net::TcpListener::bind(addr).is_ok(),
        "listener not closed after graceful shutdown"
    );
}

/// A second connection opened mid-session sees the same store, and a
/// malformed frame gets a typed error without killing the server.
#[test]
fn tcp_concurrent_clients_share_state_and_survive_garbage() {
    let handle = Server::bind("127.0.0.1:0", Store::new(), ServerConfig::default()).unwrap();
    let addr = handle.local_addr();

    let mut a = Client::connect(addr).unwrap();
    a.create("shared", "nodes 3\nedge 0 1\nedge 1 2\n").unwrap();

    let mut b = Client::connect(addr).unwrap();
    assert_eq!(unwrap_path(b.route("shared", 0, 2).unwrap()), vec![0, 1, 2]);

    // hand-rolled garbage frame: valid length prefix, junk body — the
    // server answers with a typed error and closes that connection only
    {
        use std::io::{Read, Write};
        let mut raw = std::net::TcpStream::connect(addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        raw.write_all(&3u32.to_le_bytes()).unwrap();
        raw.write_all(&[0xFF, 0xFF, 0xFF]).unwrap();
        let mut buf = Vec::new();
        raw.read_to_end(&mut buf).unwrap();
        assert!(!buf.is_empty(), "expected an error frame before close");
    }

    // both real clients still work afterwards
    a.ping().unwrap();
    assert_eq!(unwrap_path(b.route("shared", 0, 2).unwrap()), vec![0, 1, 2]);
    handle.shutdown();
}

/// Stress satellite: ≥ 8 client threads hammer one mobile topology with
/// a mixed read/mutation workload over TCP. Afterwards:
///
/// * no deadlock (the test finishes) and no poisoned lock (the server
///   keeps answering);
/// * the final exported state equals a **serial replay** of the applied
///   mutation log. Mutations serialize per topology, so the epoch each
///   `Mutated` response carries is that mutation's position in the
///   global order — collecting (epoch, mutation) pairs across threads
///   and sorting by epoch reconstructs the exact applied sequence.
#[test]
fn stress_mixed_readers_and_mutators_match_serial_replay() {
    const CLIENTS: usize = 8;
    const OPS_PER_CLIENT: usize = 40;

    // an executor per client (plus spares), so no offloaded request
    // queues behind another client's
    let config = ServerConfig { workers: CLIENTS + 2 };
    let handle = Server::bind("127.0.0.1:0", Store::new(), config).unwrap();
    let addr = handle.local_addr();

    let initial = payload(60, 4.0, 33);
    Client::connect(addr).unwrap().create("net", &initial).unwrap();

    let log: Arc<Mutex<Vec<(u64, Mutation)>>> = Arc::new(Mutex::new(Vec::new()));
    let failed = Arc::new(AtomicBool::new(false));

    std::thread::scope(|scope| {
        for t in 0..CLIENTS {
            let log = Arc::clone(&log);
            let failed = Arc::clone(&failed);
            let initial_n = 60usize;
            scope.spawn(move || {
                let mut rng = ChaCha12Rng::seed_from_u64(1000 + t as u64);
                let mut c = Client::connect_with_timeout(addr, Duration::from_secs(30))
                    .expect("stress client connect");
                for _ in 0..OPS_PER_CLIENT {
                    // half the threads mutate 1-in-4 ops; the rest only read
                    let mutator = t % 2 == 0;
                    if mutator && rng.gen_range(0..4usize) == 0 {
                        let mutation = match rng.gen_range(0..3usize) {
                            0 => Mutation::Join {
                                x: rng.gen::<f64>() * 4.0,
                                y: rng.gen::<f64>() * 4.0,
                            },
                            // keep indices small so most leaves/moves
                            // stay in range as concurrent leaves shrink n
                            1 => Mutation::Leave { node: rng.gen_range(0..20usize) },
                            _ => Mutation::Move {
                                node: rng.gen_range(0..20usize),
                                x: rng.gen::<f64>() * 4.0,
                                y: rng.gen::<f64>() * 4.0,
                            },
                        };
                        match c.mutate("net", mutation.clone()) {
                            Ok((epoch, _, _)) => {
                                log.lock().unwrap().push((epoch, mutation));
                            }
                            Err(ClientError::Server {
                                code: ErrorCode::OutOfRange, ..
                            }) => {} // racing leave shrank n first; not applied
                            Err(e) => {
                                eprintln!("mutate failed: {e}");
                                failed.store(true, Ordering::SeqCst);
                                return;
                            }
                        }
                    } else {
                        let s = rng.gen_range(0..initial_n);
                        let d = rng.gen_range(0..initial_n);
                        match rng.gen_range(0..3usize) {
                            0 => match c.route("net", s, d) {
                                Ok(RouteOutcome::Path(path)) => {
                                    assert_eq!(path.first(), Some(&s));
                                    assert_eq!(path.last(), Some(&d));
                                }
                                // partitioned mid-flight: typed outcome
                                Ok(RouteOutcome::Degraded { .. }) => {}
                                Err(ClientError::Server {
                                    code: ErrorCode::OutOfRange, ..
                                }) => {} // a racing leave shrank n first
                                Err(e) => {
                                    eprintln!("route failed: {e}");
                                    failed.store(true, Ordering::SeqCst);
                                    return;
                                }
                            },
                            1 => {
                                let stats = c.stats("net").expect("stats");
                                assert!(stats.mobile);
                                assert!(stats.nodes > 0);
                            }
                            _ => {
                                assert!(!c.export("net").expect("export").is_empty());
                            }
                        }
                    }
                }
            });
        }
    });
    assert!(!failed.load(Ordering::SeqCst), "a stress client hit an unexpected error");

    // server is still healthy: no poisoned lock, no wedged worker
    let mut c = Client::connect(addr).unwrap();
    c.ping().unwrap();
    let final_export = c.export("net").unwrap();
    let final_stats = c.stats("net").unwrap();

    // reconstruct the applied order from the epochs and replay serially
    let mut applied = Arc::try_unwrap(log).unwrap().into_inner().unwrap();
    applied.sort_by_key(|&(epoch, _)| epoch);
    let epochs: HashSet<u64> = applied.iter().map(|&(e, _)| e).collect();
    assert_eq!(epochs.len(), applied.len(), "mutation epochs must be unique");
    assert_eq!(final_stats.epoch, applied.len() as u64, "every applied mutation bumped once");

    assert_eq!(
        final_export,
        serial_replay(&initial, applied.iter().map(|(_, m)| m)),
        "concurrent final state diverged from serial replay of the mutation log"
    );

    c.shutdown_server().unwrap();
    handle.join();
}

/// `MutateBatch` over the wire: all-or-nothing validation, commit-order
/// epoch range accounting, the counters kept for wire compatibility,
/// and a final state byte-identical to applying the same mutations one
/// `Mutate` request at a time.
#[test]
fn mutate_batch_matches_serial_replay_and_is_atomic() {
    let handle = Server::bind("127.0.0.1:0", Store::new(), ServerConfig::default()).unwrap();
    let addr = handle.local_addr();
    let mut c = Client::connect_with_timeout(addr, Duration::from_secs(10)).unwrap();

    let initial = payload(60, 4.0, 33);
    c.create("batch", &initial).unwrap();
    c.create("serial", &initial).unwrap();

    // two moves into one hot region (overlapping repairs inside one
    // coalesced run), a join, a spread move, and a leave barrier
    let mutations = vec![
        Mutation::Move { node: 3, x: 2.0, y: 2.0 },
        Mutation::Move { node: 7, x: 2.1, y: 2.1 },
        Mutation::Join { x: 0.5, y: 3.5 },
        Mutation::Move { node: 11, x: 3.8, y: 0.3 },
        Mutation::Leave { node: 5 },
        Mutation::Move { node: 0, x: 1.0, y: 1.0 },
    ];

    let out = c.mutate_batch("batch", &mutations).unwrap();
    assert_eq!(out.applied, mutations.len() as u64);
    // a batch of k starting at epoch 0 occupies epochs 1..=k
    assert_eq!(out.epoch, mutations.len() as u64);
    assert_eq!(out.lease_wait_us, 0, "kept for wire compatibility");

    for m in &mutations {
        c.mutate("serial", m.clone()).unwrap();
    }
    assert_eq!(
        c.export("batch").unwrap(),
        c.export("serial").unwrap(),
        "batched application diverged from serial replay"
    );

    let batch_stats = c.stats("batch").unwrap();
    let serial_stats = c.stats("serial").unwrap();
    assert_eq!(batch_stats.epoch, serial_stats.epoch, "same epoch accounting");
    assert_eq!(batch_stats.mis, serial_stats.mis);
    assert_eq!(batch_stats.bridges, serial_stats.bridges);
    assert_eq!(batch_stats.spanner_edges, serial_stats.spanner_edges);
    assert_eq!(batch_stats.batched_mutations, mutations.len() as u64);
    assert_eq!(serial_stats.batched_mutations, 0);
    // wire-compatibility values: no admission queue, and repairs run
    // one at a time under the topology write lock
    assert_eq!((batch_stats.lease_waits, batch_stats.lease_conflicts), (0, 0));
    assert_eq!(batch_stats.concurrent_repairs_max, 1);

    // all-or-nothing: one out-of-range mutation rejects the whole
    // batch with nothing applied
    let before = c.export("batch").unwrap();
    let bad = vec![
        Mutation::Move { node: 1, x: 0.1, y: 0.1 },
        Mutation::Move { node: 10_000, x: 0.2, y: 0.2 },
    ];
    assert!(matches!(
        c.mutate_batch("batch", &bad),
        Err(ClientError::Server { code: ErrorCode::OutOfRange, .. })
    ));
    assert_eq!(c.export("batch").unwrap(), before, "rejected batch must apply nothing");
    assert_eq!(c.stats("batch").unwrap().epoch, out.epoch, "rejected batch must not bump");

    // an empty batch is a no-op acknowledged at the current epoch
    let empty = c.mutate_batch("batch", &[]).unwrap();
    assert_eq!((empty.applied, empty.epoch), (0, out.epoch));

    // no mutation applied yet: no repair has run
    c.create("idle", &initial).unwrap();
    assert_eq!(c.stats("idle").unwrap().concurrent_repairs_max, 0);

    c.shutdown_server().unwrap();
    handle.join();
}

/// `MutateBatch` stays all-or-nothing while a concurrent `Leave`
/// shrinks the topology. One thread churns `Join` + `Leave { node: 0 }`
/// pairs; the other ships batches whose last move targets the id the
/// batch's own join will get, read from the topology just before. A
/// leave committing between that read and the batch makes the last id
/// invalid, and the batch must then be rejected whole. Afterwards the
/// commit epochs of every reported mutation tile `1..=epoch` — a
/// partly applied batch would advance the epoch unreported — and the
/// final state equals a serial replay in epoch order.
/// A NaN or infinite coordinate is a typed `BadPayload` on every path
/// that carries one over the wire — a single `Mutate`, a `MutateBatch`
/// after a valid move, and a `Create` payload — and never reaches the
/// dynamic graph's finiteness assert under the topology write lock: the
/// epoch stays put and the topology keeps routing and mutating.
#[test]
fn non_finite_coordinates_are_rejected_without_poisoning_the_topology() {
    let handle = Server::bind("127.0.0.1:0", Store::new(), ServerConfig::default()).unwrap();
    let mut c = Client::connect_with_timeout(handle.local_addr(), Duration::from_secs(10)).unwrap();
    c.create("net", &payload(70, 4.0, 21)).unwrap();
    let valid = Mutation::Move { node: 1, x: 2.0, y: 2.0 };
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        for mutation in [
            Mutation::Move { node: 0, x: bad, y: 1.0 },
            Mutation::Join { x: 1.0, y: bad },
        ] {
            let single = c.mutate("net", mutation.clone());
            assert!(is_bad_payload(&single), "{mutation:?}: {single:?}");
            let batch = c.mutate_batch("net", &[valid.clone(), mutation.clone()]);
            assert!(is_bad_payload(&batch), "[valid, {mutation:?}]: {batch:?}");
        }
        let text = format!("nodes 2\nedge 0 1\npoint 0 0 0\npoint 1 {bad} 0.5\n");
        let created = c.create("bad", &text);
        assert!(is_bad_payload(&created), "{text:?}: {created:?}");
        assert_eq!(c.stats("net").unwrap().epoch, 0, "a rejected mutation applied");
    }
    assert_eq!(c.list().unwrap(), vec!["net".to_string()]);
    let path = unwrap_path(c.route("net", 0, 69).unwrap());
    assert_eq!((path.first(), path.last()), (Some(&0), Some(&69)));
    let (epoch, _, _) = c.mutate("net", valid).unwrap();
    assert_eq!(epoch, 1);
    c.shutdown_server().unwrap();
    handle.join();
}

#[test]
fn mutate_batch_is_all_or_nothing_under_a_concurrent_leave() {
    const PAIRS: usize = 150;
    const BATCHES: usize = 150;
    const SIDE: f64 = 4.0;

    let store = Store::new();
    let initial = payload(60, SIDE, 33);
    store.create("net", &initial).unwrap();
    // (first epoch, mutations) per applied request
    let log: Mutex<Vec<(u64, Vec<Mutation>)>> = Mutex::new(Vec::new());
    // both threads start together, so their operations overlap
    let start = Barrier::new(2);

    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut rng = ChaCha12Rng::seed_from_u64(71);
            start.wait();
            for _ in 0..PAIRS {
                let (x, y) = (rng.gen::<f64>() * SIDE, rng.gen::<f64>() * SIDE);
                for mutation in [Mutation::Join { x, y }, Mutation::Leave { node: 0 }] {
                    let (epoch, _) = store.mutate("net", &mutation).unwrap();
                    log.lock().unwrap().push((epoch, vec![mutation]));
                }
            }
        });
        scope.spawn(|| {
            let mut rng = ChaCha12Rng::seed_from_u64(72);
            let mut at = || (rng.gen::<f64>() * SIDE, rng.gen::<f64>() * SIDE);
            start.wait();
            for _ in 0..BATCHES {
                let n = store.stats("net").unwrap().nodes as usize;
                let ((x0, y0), (xj, yj), (xn, yn)) = (at(), at(), at());
                let batch = vec![
                    Mutation::Move { node: 0, x: x0, y: y0 },
                    Mutation::Join { x: xj, y: yj },
                    Mutation::Move { node: n, x: xn, y: yn },
                ];
                match store.mutate_batch("net", &batch) {
                    Ok(out) => {
                        assert_eq!(out.applied, 3);
                        log.lock().unwrap().push((out.epoch + 1 - out.applied, batch));
                    }
                    Err(e) => assert_eq!(e.code, ErrorCode::OutOfRange, "{e}"),
                }
            }
        });
    });

    let mut log = log.into_inner().unwrap();
    log.sort_by_key(|&(first, _)| first);
    let mut next = 1u64;
    for (first, mutations) in &log {
        assert_eq!(*first, next, "epochs skipped: a batch was partly applied");
        next += mutations.len() as u64;
    }
    let epoch = store.stats("net").unwrap().epoch;
    assert_eq!(epoch, next - 1, "the epoch counts exactly the reported mutations");
    assert_eq!(
        store.export("net").unwrap(),
        serial_replay(&initial, log.iter().flat_map(|(_, m)| m)),
        "final state diverged from serial replay in commit order"
    );
}
