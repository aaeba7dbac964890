//! TCP front end: one readiness event loop behind a handle.
//!
//! A single loop thread serves every connection: epoll via the
//! raw-syscall bindings in `sys`, nonblocking sockets, incremental
//! per-connection framing, request pipelining, and write backpressure.
//! Slow or stalled peers cost a slab slot, not a thread. Requests that
//! can be answered from a fresh published bundle are handled inline
//! on the loop (the store's cache-hit path); everything else is
//! offloaded to a small executor pool and the response is spliced back
//! in request order. See `eventloop.rs` and DESIGN.md §8.
//!
//! The readiness backend exists on x86_64 and aarch64 Linux only;
//! elsewhere [`Server::bind`] fails with [`io::ErrorKind::Unsupported`].
//!
//! **Shutdown:** a [`Request::Shutdown`] frame or
//! [`ServerHandle::shutdown`] flips a shared flag, nudges the parked
//! loop awake with a loopback connection, and joins every thread; the
//! listener closes when the loop thread returns.
//!
//! Every request is answered through `handle`, the pure
//! request→response dispatcher. The replay test below checks that the
//! loop answers a request log byte-identically to calling `handle`
//! serially in process.

use crate::protocol::{ErrorCode, Request, Response, WireError};
use crate::store::{BroadcastOutcome, RouteOutcome, Store, StoreError};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Executor-pool size: threads running offloaded mutations and
    /// cache rebuilds.
    pub workers: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self { workers: 4 }
    }
}

pub(crate) struct Shared {
    pub(crate) store: Store,
    pub(crate) shutdown: AtomicBool,
    pub(crate) addr: SocketAddr,
    pub(crate) config: ServerConfig,
    pub(crate) served: AtomicU64,
}

impl Shared {
    /// Flips the flag and nudges the parked event loop awake.
    pub(crate) fn trigger_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // a throwaway loopback connection creates listener readiness;
        // if it fails the loop still exits on its next sweep tick
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
    }
}

/// A handle to a running server: its address, a way to stop it, and
/// the join point proving every thread exited.
pub struct ServerHandle {
    shared: Arc<Shared>,
    event_loop: Option<JoinHandle<()>>,
    executors: Vec<JoinHandle<()>>,
}

/// The backbone service.
pub struct Server;

impl Server {
    /// Binds `addr` (port 0 picks a free port) and starts the event
    /// loop and its executor pool over `store`.
    ///
    /// # Errors
    ///
    /// Propagates bind and thread-spawn failures. On a target without
    /// the raw-syscall readiness backend (anything but x86_64 or
    /// aarch64 Linux) it fails with [`io::ErrorKind::Unsupported`].
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        store: Store,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            store,
            shutdown: AtomicBool::new(false),
            addr: local,
            config,
            served: AtomicU64::new(0),
        });
        let (event_loop, executors) = crate::eventloop::spawn(listener, Arc::clone(&shared))?;
        Ok(ServerHandle { shared, event_loop: Some(event_loop), executors })
    }
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Total request frames served so far.
    pub fn requests_served(&self) -> u64 {
        self.shared.served.load(Ordering::Relaxed)
    }

    /// The shared topology store (for in-process inspection in tests
    /// and benchmarks).
    pub fn store(&self) -> &Store {
        &self.shared.store
    }

    /// Requests shutdown and waits for every thread to exit.
    pub fn shutdown(mut self) {
        self.shared.trigger_shutdown();
        self.join_threads();
    }

    /// Waits for the server to stop (a wire `Shutdown` request, or a
    /// prior [`ServerHandle::shutdown`] from another handle clone —
    /// there are none, so in practice: the wire). Joins every thread;
    /// returning proves no worker leaked. Returns the total number of
    /// request frames served over the server's lifetime.
    pub fn join(mut self) -> u64 {
        self.join_threads();
        self.shared.served.load(Ordering::Relaxed)
    }

    fn join_threads(&mut self) {
        if let Some(l) = self.event_loop.take() {
            let _ = l.join();
        }
        for e in self.executors.drain(..) {
            let _ = e.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // dropping the handle without join()/shutdown() still stops the
        // server rather than leaking detached threads
        if !self.shared.shutdown.load(Ordering::SeqCst) {
            self.shared.trigger_shutdown();
        }
        self.join_threads();
    }
}

pub(crate) fn wire_error_response(e: &WireError) -> Response {
    Response::Error { code: ErrorCode::BadPayload, message: format!("malformed request: {e}") }
}

impl From<StoreError> for Response {
    fn from(e: StoreError) -> Self {
        Response::Error { code: e.code, message: e.message }
    }
}

/// Executes one decoded request against the store. Pure
/// request→response; all transport concerns live in the caller. The
/// event loop and its executors dispatch every request through this
/// one function, so a serial in-process call sequence is the loop's
/// replay oracle.
pub(crate) fn handle(store: &Store, req: &Request) -> Response {
    match req {
        Request::Ping => Response::Pong,
        Request::Create { name, payload } => match store.create(name, payload) {
            Ok((nodes, edges, mobile)) => Response::Created { nodes, edges, mobile },
            Err(e) => e.into(),
        },
        Request::Export { name } => match store.export(name) {
            Ok(payload) => Response::Exported { payload },
            Err(e) => e.into(),
        },
        Request::Construct { name } => match store.bundle(name) {
            Ok((bundle, _)) => Response::Constructed {
                mis: bundle.wcds.mis_dominators().len() as u64,
                bridges: bundle.wcds.additional_dominators().len() as u64,
                spanner_edges: bundle.spanner.edge_count() as u64,
                epoch: bundle.epoch,
            },
            Err(e) => e.into(),
        },
        Request::Route { name, from, to } => match store.route(name, *from, *to) {
            Ok(RouteOutcome::Path(path)) => Response::Routed { path },
            Ok(RouteOutcome::Degraded { unreachable }) => Response::Degraded { unreachable },
            Err(e) => e.into(),
        },
        Request::Broadcast { name, source } => match store.broadcast(name, *source) {
            Ok(BroadcastOutcome::Done { forwarders, informed }) => {
                Response::Broadcasted { forwarders, informed }
            }
            Ok(BroadcastOutcome::Degraded { unreachable }) => {
                Response::Degraded { unreachable }
            }
            Err(e) => e.into(),
        },
        Request::Stats { name } => match store.stats(name) {
            Ok(stats) => Response::StatsOk(stats),
            Err(e) => e.into(),
        },
        Request::Mutate { name, mutation } => match store.mutate(name, mutation) {
            Ok((epoch, report)) => {
                Response::Mutated { epoch, promoted: report.promoted, demoted: report.demoted }
            }
            Err(e) => e.into(),
        },
        Request::MutateBatch { name, mutations } => match store.mutate_batch(name, mutations) {
            Ok(out) => Response::BatchMutated {
                epoch: out.epoch,
                applied: out.applied,
                promoted: out.promoted,
                demoted: out.demoted,
                lease_wait_us: out.lease_wait_us,
            },
            Err(e) => e.into(),
        },
        Request::List => match store.list() {
            Ok(names) => Response::Topologies { names },
            Err(e) => e.into(),
        },
        Request::Drop { name } => match store.drop_topology(name) {
            Ok(()) => Response::Dropped,
            Err(e) => e.into(),
        },
        Request::Shutdown => Response::ShuttingDown, // handled by the caller
        Request::Harden { name, k, m } => match store.harden(name, *k, *m) {
            Ok(out) => Response::Hardened {
                k: out.k,
                m: out.m,
                achieved_k: out.achieved_k,
                dominators: out.dominators,
                spanner_edges: out.spanner_edges,
                epoch: out.epoch,
            },
            Err(e) => e.into(),
        },
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::protocol::{read_frame, write_frame, FrameRead, Mutation};
    use crate::store::UDG_RADIUS;
    use wcds_geom::deploy;
    use wcds_graph::UnitDiskGraph;

    fn payload(n: usize, side: f64, seed: u64) -> String {
        let udg = UnitDiskGraph::build(deploy::uniform(n, side, side, seed), UDG_RADIUS);
        wcds_graph::io::to_text(udg.graph(), Some(udg.points()))
    }

    /// A deterministic request log walking the whole API, including typed
    /// failures: exactly what a client session might replay for audit.
    fn replay_log() -> Vec<Request> {
        let name = "net".to_string();
        let mut log = vec![
            Request::Ping,
            Request::Create { name: name.clone(), payload: payload(70, 4.0, 21) },
            Request::Create { name: name.clone(), payload: payload(70, 4.0, 21) }, // AlreadyExists
            Request::Construct { name: name.clone() },
            Request::Route { name: name.clone(), from: 0, to: 69 },
            Request::Broadcast { name: name.clone(), source: 0 },
            Request::Stats { name: name.clone() },
            Request::Mutate { name: name.clone(), mutation: Mutation::Join { x: 2.0, y: 2.0 } },
            Request::Stats { name: name.clone() },
            Request::Route { name: name.clone(), from: 0, to: 70 },
            Request::Harden { name: name.clone(), k: 2, m: 2 },
            Request::Stats { name: name.clone() },
            Request::MutateBatch {
                name: name.clone(),
                mutations: vec![
                    Mutation::Move { node: 3, x: 2.0, y: 2.0 },
                    Mutation::Move { node: 7, x: 2.1, y: 2.1 },
                    Mutation::Join { x: 0.5, y: 3.5 },
                ],
            },
            Request::Stats { name: name.clone() },
            Request::Export { name: name.clone() },
            Request::List,
            Request::Route { name: "ghost".to_string(), from: 0, to: 1 }, // NotFound
            Request::Route { name: name.clone(), from: 0, to: 9_999 },    // OutOfRange
        ];
        // a read burst at the end: the loop answers these inline from
        // the published slot, and each load must count in
        // `snapshot_reads` exactly as the direct `handle` call does
        for k in 1..8 {
            log.push(Request::Route { name: name.clone(), from: 0, to: k });
        }
        log.push(Request::Stats { name });
        log
    }

    /// Serially replays `log` over one raw TCP connection to an
    /// event-loop server, returning every response frame's bytes.
    fn replay_over_tcp(log: &[Request]) -> Vec<Vec<u8>> {
        let server = Server::bind("127.0.0.1:0", Store::new(), ServerConfig::default()).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        stream.set_nodelay(true).unwrap();
        let frames = log
            .iter()
            .map(|req| {
                write_frame(&mut stream, &req.encode()).unwrap();
                match read_frame(&mut stream).unwrap() {
                    FrameRead::Frame(body) => body,
                    other => panic!("replay expected a response frame, got {other:?}"),
                }
            })
            .collect();
        drop(stream);
        server.shutdown();
        frames
    }

    /// Zeroes the loop-diagnostic counters inside a `StatsOk` frame;
    /// every other frame (and every other `StatsOk` field, including
    /// `snapshot_reads`) passes through byte-for-byte.
    fn normalize(raw: &[u8]) -> Vec<u8> {
        match Response::decode(raw) {
            Ok(Response::StatsOk(mut stats)) => {
                stats.syscalls = 0;
                stats.pipeline_depth_max = 0;
                Response::StatsOk(stats).encode()
            }
            _ => raw.to_vec(),
        }
    }

    /// The replay oracle: the event loop (inline fast path, executor
    /// offload, framing) answers a serial replay of one request log
    /// byte-identically to calling `handle` on a fresh store, one
    /// request at a time. Only the two loop-diagnostic counters in
    /// `StatsOk` are zeroed on both sides before the comparison.
    #[test]
    fn the_event_loop_answers_a_serial_replay_like_in_process_handle() {
        let log = replay_log();
        let store = Store::new();
        let direct: Vec<Vec<u8>> = log.iter().map(|req| handle(&store, req).encode()).collect();
        let served = replay_over_tcp(&log);
        assert_eq!(direct.len(), served.len());
        for (i, (a, b)) in direct.iter().zip(&served).enumerate() {
            assert_eq!(
                normalize(a),
                normalize(b),
                "response {i} to {:?} diverged:\n  handle: {:?}\n  served: {:?}",
                log.get(i),
                Response::decode(a),
                Response::decode(b),
            );
        }
    }

    #[test]
    fn handle_is_pure_request_to_response() {
        let store = Store::new();
        assert_eq!(handle(&store, &Request::Ping), Response::Pong);
        assert_eq!(handle(&store, &Request::List), Response::Topologies { names: vec![] });
        let resp = handle(&store, &Request::Stats { name: "ghost".into() });
        assert!(matches!(resp, Response::Error { code: ErrorCode::NotFound, .. }));
        let resp = handle(
            &store,
            &Request::Create { name: "t".into(), payload: "nodes 2\nedge 0 1\n".into() },
        );
        assert_eq!(resp, Response::Created { nodes: 2, edges: 1, mobile: false });
        let resp = handle(&store, &Request::Route { name: "t".into(), from: 0, to: 1 });
        assert_eq!(resp, Response::Routed { path: vec![0, 1] });
    }

    #[test]
    fn bind_and_shutdown_without_traffic() {
        // propagate bind failures as a diagnosed skip, not a panic: an
        // occupied or exhausted ephemeral port range is an environment
        // problem, not a server bug
        let handle = match Server::bind("127.0.0.1:0", Store::new(), ServerConfig::default()) {
            Ok(h) => h,
            Err(e) => {
                eprintln!("skipping bind_and_shutdown_without_traffic: bind failed: {e}");
                return;
            }
        };
        let addr = handle.local_addr();
        assert_ne!(addr.port(), 0);
        handle.shutdown();
        // listener is closed: a fresh bind to the same port succeeds
        let rebound = TcpListener::bind(addr);
        assert!(rebound.is_ok(), "port not released: {rebound:?}");
    }
}
