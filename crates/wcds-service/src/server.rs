//! TCP front end with two serving engines behind one handle.
//!
//! [`Engine::EventLoop`] (the default on supported targets) serves
//! every connection from a single **readiness event loop**: epoll via
//! the raw-syscall bindings in `sys`, nonblocking sockets, incremental
//! per-connection framing, request pipelining, and write backpressure.
//! Slow or stalled peers cost a slab slot, not a thread. Requests that
//! can be answered from a fresh published bundle are handled inline
//! on the loop (the store's cache-hit path); everything else is
//! offloaded to a small executor pool and the response is spliced back
//! in request order. See `eventloop.rs` and DESIGN.md §8.
//!
//! [`Engine::WorkerPool`] is the original blocking thread-per-
//! connection model, kept as the byte-identical replay oracle and as
//! the fallback where the raw epoll bindings are unavailable:
//!
//! * the **acceptor** thread owns the listener and hands accepted
//!   streams to a channel;
//! * `workers` **worker** threads pull connections off the channel and
//!   serve them to completion (a connection may carry any number of
//!   request frames);
//! * read/write **timeouts** bound every socket operation, so a stalled
//!   client mid-frame is dropped instead of wedging its worker, and an
//!   idle worker re-checks the shutdown flag every timeout tick.
//!
//! Both engines share **shutdown** semantics: a [`Request::Shutdown`]
//! frame or [`ServerHandle::shutdown`] flips a shared flag, nudges the
//! blocked acceptor (or parked event loop) awake with a loopback
//! connection, and joins every thread; the listener closes when the
//! serving thread returns. They also share [`handle`], the pure
//! request→response dispatcher, so a request log replayed through
//! either engine produces byte-identical responses.

use crate::protocol::{
    read_frame, write_frame, ErrorCode, FrameRead, Request, Response, WireError,
};
use crate::store::{BroadcastOutcome, RouteOutcome, Store, StoreError};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Which serving engine [`Server::bind`] starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Readiness-driven event loop (epoll, nonblocking sockets,
    /// pipelining). The default; falls back to [`Engine::WorkerPool`]
    /// on targets where the raw epoll bindings are unavailable.
    #[default]
    EventLoop,
    /// Blocking thread-per-connection worker pool (the replay oracle).
    WorkerPool,
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker-pool size (worker pool) or executor-pool size (event
    /// loop: threads running offloaded mutations and cache rebuilds).
    pub workers: usize,
    /// Socket read/write timeout; also the shutdown-poll period and
    /// the event loop's sweep tick.
    pub io_timeout: Duration,
    /// Consecutive idle timeout ticks before an open but silent
    /// connection is dropped (frees its worker for queued peers).
    pub idle_ticks: u32,
    /// Serving engine.
    pub engine: Engine,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            io_timeout: Duration::from_millis(100),
            idle_ticks: 300,
            engine: Engine::EventLoop,
        }
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
    /// Flips the flag and nudges the blocked acceptor (or parked event
    /// loop) awake.
    pub(crate) fn trigger_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // a throwaway loopback connection unblocks `accept()` (worker
        // pool) or creates listener readiness (event loop); if it fails
        // the serving thread still exits on its next timeout tick
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
    }
}

/// A handle to a running server: its address, a way to stop it, and
/// the join point proving every thread exited.
pub struct ServerHandle {
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// The backbone service.
pub struct Server;

impl Server {
    /// Binds `addr` (port 0 picks a free port) and starts the serving
    /// threads for the configured [`Engine`] over `store`.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
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
            config: config.clone(),
            served: AtomicU64::new(0),
        });

        if config.engine == Engine::EventLoop && crate::sys::supported() {
            let (event_loop, executors) =
                crate::eventloop::spawn(listener, Arc::clone(&shared))?;
            return Ok(ServerHandle {
                shared,
                acceptor: Some(event_loop),
                workers: executors,
            });
        }

        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));

        // a failed spawn propagates as io::Error; the threads already
        // running exit on their own once `tx` drops with this frame
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("wcds-worker-{i}"))
                    .spawn(move || worker_loop(&rx, &shared))
            })
            .collect::<io::Result<Vec<JoinHandle<()>>>>()?;

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("wcds-acceptor".into())
                .spawn(move || acceptor_loop(&listener, &tx, &shared))?
        };

        Ok(ServerHandle { shared, acceptor: Some(acceptor), workers })
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

    /// Whether shutdown has been requested (by wire or locally).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
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
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
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

fn acceptor_loop(listener: &TcpListener, tx: &mpsc::Sender<TcpStream>, shared: &Shared) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break; // the nudge connection, or a late arrival
                }
                if tx.send(stream).is_err() {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    // tx drops here: workers drain the queue and exit
}

fn worker_loop(rx: &Arc<Mutex<mpsc::Receiver<TcpStream>>>, shared: &Shared) {
    loop {
        let stream = {
            // a poisoned queue mutex means a sibling worker panicked
            // while *receiving*; the receiver itself is still sound, so
            // keep serving rather than killing the whole pool
            let guard = match rx.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            // analyze: allow(hold-across-io, "the queue mutex exists only to share this receiver; waiting on it IS the guarded operation, and the bounded timeout re-opens the race window every io_timeout")
            match guard.recv_timeout(shared.config.io_timeout) {
                Ok(s) => Some(s),
                Err(mpsc::RecvTimeoutError::Timeout) => None,
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        };
        match stream {
            Some(s) => serve_connection(s, shared),
            None if shared.shutdown.load(Ordering::SeqCst) => break,
            None => {}
        }
    }
}

fn serve_connection(stream: TcpStream, shared: &Shared) {
    let timeout = shared.config.io_timeout;
    if stream.set_read_timeout(Some(timeout)).is_err()
        || stream.set_write_timeout(Some(timeout)).is_err()
        || stream.set_nodelay(true).is_err()
    {
        return;
    }
    // buffered reads pull a frame's length prefix and body out of one
    // syscall; writes go straight to the (NODELAY) socket
    let mut reader = io::BufReader::with_capacity(4096, &stream);
    let mut writer = &stream;
    let mut idle: u32 = 0;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let frame = match read_frame(&mut reader) {
            Ok(FrameRead::Frame(frame)) => frame,
            Ok(FrameRead::Eof) => return, // clean EOF between frames
            Ok(FrameRead::IdleTimeout) => {
                idle += 1;
                if idle > shared.config.idle_ticks {
                    return; // silent connection: free the worker
                }
                continue;
            }
            Err(_) => return, // stalled mid-frame, reset, or garbage
        };
        idle = 0;
        shared.served.fetch_add(1, Ordering::Relaxed);
        let (response, close) = match Request::decode(&frame) {
            Ok(Request::Shutdown) => {
                shared.trigger_shutdown();
                (Response::ShuttingDown, true)
            }
            Ok(req) => (handle(&shared.store, &req), false),
            Err(e) => (wire_error_response(&e), true),
        };
        if write_frame(&mut writer, &response.encode()).is_err() {
            return; // peer gone or write stalled
        }
        if close {
            return;
        }
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
/// request→response; all transport concerns live in the caller. Both
/// engines dispatch through this one function, which is what makes
/// their responses byte-identical on a replayed request log.
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
