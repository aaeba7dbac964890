//! Event-loop acceptance tests over real sockets: pipelined in-order
//! responses, slow-loris isolation, a frame larger than the decoder's
//! run-ahead cap, an oversized length prefix closed while others are
//! served, and a dominator kill storm served entirely over TCP.
//!
//! The replay oracle — the loop answers a serial request log
//! byte-identically to calling the `handle` dispatcher in process —
//! sits beside `handle` in `src/server.rs`'s unit tests.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use wcds_geom::deploy;
use wcds_graph::{io, UnitDiskGraph};
use wcds_rng::{ChaCha12Rng, Rng};
use wcds_service::protocol::{Request, Response, MAX_FRAME_LEN};
use wcds_service::store::UDG_RADIUS;
use wcds_service::{
    BroadcastOutcome, Client, Mutation, RouteOutcome, Server, ServerConfig, Store,
};

fn payload(n: usize, side: f64, seed: u64) -> String {
    let udg = UnitDiskGraph::build(deploy::uniform(n, side, side, seed), UDG_RADIUS);
    io::to_text(udg.graph(), Some(udg.points()))
}

/// Pipelining property: send a burst of requests with pairwise-distinct
/// answers in one write, drain the responses, and check each answer
/// sits at its request's position — in-order, none dropped, none
/// duplicated.
#[test]
fn pipelined_responses_arrive_in_request_order() {
    let handle = Server::bind("127.0.0.1:0", Store::new(), ServerConfig::default()).unwrap();
    let addr = handle.local_addr();
    let mut c = Client::connect_with_timeout(addr, Duration::from_secs(30)).unwrap();

    c.create("pipe", &payload(40, 3.0, 5)).unwrap();
    let BroadcastOutcome::Done { informed, .. } = c.broadcast("pipe", 0).unwrap() else {
        panic!("deployment must be connected for the order check");
    };
    assert_eq!(informed, 40, "pick a connected seed: every route below must succeed");

    // depth 36: routes to 32 distinct destinations, punctuated by pings
    let mut reqs = Vec::new();
    for k in 1..=32u64 {
        if k % 8 == 0 {
            reqs.push(Request::Ping);
        }
        reqs.push(Request::Route { name: "pipe".to_string(), from: 0, to: k as usize });
    }
    let responses = c.pipeline(&reqs).unwrap();
    assert_eq!(responses.len(), reqs.len());
    for (req, resp) in reqs.iter().zip(&responses) {
        match (req, resp) {
            (Request::Ping, Response::Pong) => {}
            (Request::Route { to, .. }, Response::Routed { path }) => {
                assert_eq!(path.first(), Some(&0));
                assert_eq!(path.last(), Some(to), "response out of order or misrouted");
            }
            other => panic!("mismatched (request, response) pair: {other:?}"),
        }
    }

    // the burst was decoded from few readiness wakes: the engine must
    // have observed a multi-frame pipeline on this connection
    let stats = c.stats("pipe").unwrap();
    assert!(
        stats.pipeline_depth_max >= 2,
        "pipelined burst never exceeded depth 1 (got {})",
        stats.pipeline_depth_max
    );
    c.shutdown_server().unwrap();
    handle.join();
}

/// Slow-loris isolation: a peer that sends half a frame and stalls must
/// not degrade anyone else's latency — and the stall sweep must drop it
/// instead of letting it hold its slot forever. A stalled peer costs
/// one slab slot and two sweep ticks, never a thread.
#[test]
fn a_stalled_mid_frame_peer_is_dropped_and_does_not_slow_others() {
    use std::io::{Read as _, Write as _};
    let handle = Server::bind("127.0.0.1:0", Store::new(), ServerConfig::default()).unwrap();
    let addr = handle.local_addr();
    let mut c = Client::connect_with_timeout(addr, Duration::from_secs(30)).unwrap();
    c.create("net", &payload(40, 3.0, 5)).unwrap();
    c.construct("net").unwrap();

    // the loris: a valid length prefix promising 64 bytes, then silence
    let mut loris = TcpStream::connect(addr).unwrap();
    loris.write_all(&64u32.to_le_bytes()).unwrap();
    loris.write_all(&[0xAB, 0xCD]).unwrap();
    loris.flush().unwrap();

    // while the loris stalls, a well-behaved client's requests must keep
    // completing promptly: the stalled fd costs readiness wakes nothing
    let mut worst = Duration::ZERO;
    for k in 0..50usize {
        let t0 = Instant::now();
        if k % 2 == 0 {
            c.ping().unwrap();
        } else {
            let _ = c.route("net", 0, k % 40).unwrap();
        }
        worst = worst.max(t0.elapsed());
    }
    assert!(
        worst < Duration::from_secs(1),
        "a stalled peer degraded a healthy client's worst-case latency to {worst:?}"
    );

    // the sweep drops a mid-frame staller after ~2 sweep ticks;
    // observing EOF on the loris socket proves the reap
    loris.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut buf = [0u8; 16];
    match loris.read(&mut buf) {
        Ok(0) => {} // clean EOF: the server reaped the connection
        Ok(n) => panic!("server answered a half-frame with {n} bytes"),
        Err(e) => panic!("expected EOF from the stall sweep, got {e}"),
    }

    c.shutdown_server().unwrap();
    handle.join();
}

/// One frame larger than the decoder's run-ahead cap must still
/// complete when no request is in flight: a wire `Create` of over
/// 1 MiB is ingested, not left spinning on the readable socket until
/// the stall sweep resets the connection.
#[test]
fn a_create_frame_over_one_mebibyte_is_ingested() {
    let udg = UnitDiskGraph::build(deploy::uniform(12_000, 50.0, 50.0, 8), UDG_RADIUS);
    let text = io::to_text(udg.graph(), None);
    assert!(text.len() >= 1 << 20, "payload is only {} bytes", text.len());

    let handle = Server::bind("127.0.0.1:0", Store::new(), ServerConfig::default()).unwrap();
    let mut c = Client::connect_with_timeout(handle.local_addr(), Duration::from_secs(30)).unwrap();
    let created = c.create("big", &text).unwrap();
    let g = udg.graph();
    assert_eq!(created, (g.node_count() as u64, g.edge_count() as u64, false));
    c.shutdown_server().unwrap();
    handle.join();
}

/// A length prefix above the wire limit closes the connection as soon
/// as it is read, however much the peer streams behind it: the loop
/// neither buffers that stream nor lets it hold the loop thread, so
/// another connection's pings are answered meanwhile.
#[test]
fn an_oversized_length_prefix_is_closed_while_others_are_served() {
    use std::io::{ErrorKind, Read as _, Write as _};
    let handle = Server::bind("127.0.0.1:0", Store::new(), ServerConfig::default()).unwrap();
    let addr = handle.local_addr();
    let mut c = Client::connect_with_timeout(addr, Duration::from_secs(30)).unwrap();
    c.ping().unwrap();

    let mut hostile = TcpStream::connect(addr).unwrap();
    hostile.set_write_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut watcher = hostile.try_clone().unwrap();
    watcher.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let too_long = u32::try_from(MAX_FRAME_LEN + 1).unwrap();
    let t0 = Instant::now();
    // the prefix, then up to 64 MiB of body as fast as the socket takes it
    let streamer = std::thread::spawn(move || {
        hostile.write_all(&too_long.to_le_bytes())?;
        let chunk = vec![0x5A; 64 * 1024];
        for _ in 0..(64 << 20) / chunk.len() {
            hostile.write_all(&chunk)?;
        }
        Ok::<(), std::io::Error>(())
    });

    let mut worst = Duration::ZERO;
    for _ in 0..50 {
        let t = Instant::now();
        c.ping().unwrap();
        worst = worst.max(t.elapsed());
    }
    assert!(
        worst < Duration::from_secs(1),
        "a hostile stream degraded a healthy client's worst-case latency to {worst:?}"
    );

    // both ends see the server's close: the reader an EOF or reset,
    // the streamer a failed write before its 64 MiB are out
    let closed = |k: ErrorKind| {
        matches!(
            k,
            ErrorKind::BrokenPipe | ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted
        )
    };
    let mut buf = [0u8; 16];
    match watcher.read(&mut buf) {
        Ok(0) => {}
        Err(e) if closed(e.kind()) => {}
        Ok(n) => panic!("server answered an oversized prefix with {n} bytes"),
        Err(e) => panic!("expected the server to close the connection, got {e}"),
    }
    match streamer.join().unwrap() {
        Err(e) if closed(e.kind()) => {}
        other => panic!("the server kept reading behind an oversized prefix: {other:?}"),
    }
    assert!(t0.elapsed() < Duration::from_secs(5), "closed only after {:?}", t0.elapsed());

    c.shutdown_server().unwrap();
    handle.join();
}

/// Dominator kill storm served entirely over event-loop TCP: a killer
/// client parks backbone nodes out of radio range through the ordinary
/// mutation API (victims harvested from route interiors — clusterhead
/// paths travel the backbone) while reader clients keep routing. The
/// hardened (2, 2) backbone must keep serving typed outcomes — never an
/// error — and the availability counters must account for every query.
#[test]
fn kill_storm_over_tcp_keeps_routes_servable() {
    const N: usize = 120;
    const READERS: usize = 4;
    const OPS: usize = 40;
    const KILLS: usize = 4;

    let handle = Server::bind("127.0.0.1:0", Store::new(), ServerConfig::default()).unwrap();
    let addr = handle.local_addr();
    let mut admin = Client::connect_with_timeout(addr, Duration::from_secs(30)).unwrap();
    admin.create("net", &payload(N, 4.5, 77)).unwrap();
    let out = admin.harden("net", 2, 2).unwrap();
    assert!(out.achieved_k >= 1);

    let attempted = AtomicU64::new(0);
    let failed = AtomicBool::new(false);
    let kills: Mutex<Vec<usize>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        let attempted = &attempted;
        let failed = &failed;
        let kills = &kills;
        scope.spawn(move || {
            let mut rng = ChaCha12Rng::seed_from_u64(13);
            let mut c = Client::connect_with_timeout(addr, Duration::from_secs(30))
                .expect("killer connect");
            for round in 0..KILLS {
                // probe routes until one crosses the backbone, then
                // park an interior hop (a dominator) out of range
                let victim = loop {
                    let s = rng.gen_range(0..N);
                    let d = rng.gen_range(0..N);
                    attempted.fetch_add(1, Ordering::SeqCst);
                    match c.route("net", s, d) {
                        Ok(RouteOutcome::Path(p)) if p.len() >= 3 => {
                            let mid = p[p.len() / 2];
                            if !kills.lock().unwrap().contains(&mid) {
                                break mid;
                            }
                        }
                        Ok(_) => {}
                        Err(e) => {
                            eprintln!("killer probe failed: {e}");
                            failed.store(true, Ordering::SeqCst);
                            return;
                        }
                    }
                };
                let x = 1_000.0 + 10.0 * round as f64;
                if let Err(e) = c.mutate("net", Mutation::Move { node: victim, x, y: 1_000.0 }) {
                    eprintln!("kill failed: {e}");
                    failed.store(true, Ordering::SeqCst);
                    return;
                }
                kills.lock().unwrap().push(victim);
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        for t in 0..READERS {
            scope.spawn(move || {
                let mut rng = ChaCha12Rng::seed_from_u64(500 + t as u64);
                let mut c = Client::connect_with_timeout(addr, Duration::from_secs(30))
                    .expect("reader connect");
                for _ in 0..OPS {
                    let s = rng.gen_range(0..N);
                    let d = rng.gen_range(0..N);
                    attempted.fetch_add(1, Ordering::SeqCst);
                    match c.route("net", s, d) {
                        Ok(RouteOutcome::Path(path)) => {
                            assert_eq!(path.first(), Some(&s));
                            assert_eq!(path.last(), Some(&d));
                        }
                        Ok(RouteOutcome::Degraded { .. }) => {} // typed, not an error
                        Err(e) => {
                            eprintln!("route({s}, {d}) failed mid-storm: {e}");
                            failed.store(true, Ordering::SeqCst);
                            return;
                        }
                    }
                }
            });
        }
    });
    assert!(!failed.load(Ordering::SeqCst), "a client hit an unexpected error mid-storm");
    let killed = kills.into_inner().unwrap();
    assert_eq!(killed.len(), KILLS, "the storm must land every kill");

    // the server is still healthy and the counters reconcile exactly
    admin.ping().unwrap();
    let stats = admin.stats("net").unwrap();
    assert_eq!(stats.epoch, KILLS as u64, "every kill is one applied mutation");
    assert_eq!(
        stats.routes_ok + stats.routes_degraded + stats.routes_unreachable,
        attempted.load(Ordering::SeqCst),
        "every route query lands in exactly one availability counter"
    );
    assert_eq!(stats.nodes, N as u64, "moves never change the node count");

    admin.shutdown_server().unwrap();
    handle.join();
}
