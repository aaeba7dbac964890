//! Blocking client for the backbone service.
//!
//! One [`Client`] wraps one TCP connection and issues synchronous
//! request/response round trips. Connections are persistent — any
//! number of requests may flow over one client — and every socket
//! operation is bounded by a timeout so a dead server surfaces as a
//! typed error instead of a hang.
//!
//! [`Client::pipeline`] amortizes round trips: it writes a whole batch
//! of request frames in one burst and then drains exactly as many
//! responses, in request order. The one-shot API is unchanged and the
//! two styles may be mixed freely on the same connection.

use crate::protocol::{
    read_frame, write_frame, ErrorCode, FrameRead, Mutation, Request, Response, TopologyStats,
    WireError,
};
use crate::store::{BatchOutcome, BroadcastOutcome, HardenOutcome, RouteOutcome};
use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;
use wcds_graph::NodeId;

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (connect, read, write, timeout).
    Io(io::Error),
    /// Undecodable response bytes.
    Wire(WireError),
    /// The server answered with an error response.
    Server {
        /// Machine-readable category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The server answered with a response of the wrong kind, or closed
    /// the connection instead of answering.
    Protocol(&'static str),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::Wire(e) => write!(f, "wire: {e}"),
            ClientError::Server { code, message } => write!(f, "server [{code}]: {message}"),
            ClientError::Protocol(what) => write!(f, "protocol: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// A blocking connection to a backbone server.
#[derive(Debug)]
pub struct Client {
    /// Read side is buffered so a response's length prefix and body
    /// arrive in one syscall; writes go through [`io::BufReader::get_mut`]
    /// straight to the (NODELAY) socket.
    stream: io::BufReader<TcpStream>,
}

impl Client {
    /// Default per-operation socket timeout.
    pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(30);

    /// Connects with [`Client::DEFAULT_TIMEOUT`].
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Io`] on resolution or connection failure.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, ClientError> {
        Self::connect_with_timeout(addr, Self::DEFAULT_TIMEOUT)
    }

    /// Connects with an explicit connect/read/write timeout.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError::Io`] on resolution or connection failure.
    pub fn connect_with_timeout<A: ToSocketAddrs>(
        addr: A,
        timeout: Duration,
    ) -> Result<Self, ClientError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let mut last: Option<io::Error> = None;
        for a in &addrs {
            match TcpStream::connect_timeout(a, timeout) {
                Ok(stream) => {
                    stream.set_read_timeout(Some(timeout))?;
                    stream.set_write_timeout(Some(timeout))?;
                    stream.set_nodelay(true)?;
                    return Ok(Self { stream: io::BufReader::with_capacity(4096, stream) });
                }
                Err(e) => last = Some(e),
            }
        }
        Err(ClientError::Io(last.unwrap_or_else(|| {
            io::Error::new(io::ErrorKind::AddrNotAvailable, "no address resolved")
        })))
    }

    /// One raw request/response round trip.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] on transport failure (a quiet server beyond
    /// the timeout included), [`ClientError::Wire`] on an undecodable
    /// response, [`ClientError::Protocol`] if the server closes instead
    /// of answering. Server-side error *responses* are returned as
    /// `Ok(Response::Error { .. })` here; the typed helpers below remap
    /// them to [`ClientError::Server`].
    pub fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        write_frame(self.stream.get_mut(), &req.encode())?;
        match read_frame(&mut self.stream)? {
            FrameRead::Frame(body) => Ok(Response::decode(&body)?),
            FrameRead::Eof => Err(ClientError::Protocol("server closed before responding")),
            FrameRead::IdleTimeout => {
                Err(ClientError::Io(io::Error::new(io::ErrorKind::TimedOut, "response timeout")))
            }
        }
    }

    /// Sends every request as one contiguous burst of frames, then
    /// reads back exactly `reqs.len()` responses, in request order
    /// (the server answers a connection's frames in the order they
    /// arrived).
    ///
    /// One buffered write replaces `reqs.len()` round trips; the
    /// event-loop server drains the whole burst on a single readiness
    /// wake. Note that a [`Request::Shutdown`] or a malformed frame
    /// makes the server close the connection after answering it, so
    /// requests queued behind one will fail with
    /// [`ClientError::Protocol`].
    ///
    /// # Errors
    ///
    /// As [`Client::request`]. On error the connection state is
    /// indeterminate (responses may remain unread); drop the client
    /// rather than reusing it. Per-request server errors are returned
    /// in place as `Response::Error`, not remapped.
    pub fn pipeline(&mut self, reqs: &[Request]) -> Result<Vec<Response>, ClientError> {
        use std::io::Write;
        let mut burst = Vec::new();
        for req in reqs {
            write_frame(&mut burst, &req.encode())?;
        }
        self.stream.get_mut().write_all(&burst)?;
        let mut responses = Vec::with_capacity(reqs.len());
        for _ in reqs {
            match read_frame(&mut self.stream)? {
                FrameRead::Frame(body) => responses.push(Response::decode(&body)?),
                FrameRead::Eof => {
                    return Err(ClientError::Protocol("server closed mid-pipeline"));
                }
                FrameRead::IdleTimeout => {
                    return Err(ClientError::Io(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "pipelined response timeout",
                    )));
                }
            }
        }
        Ok(responses)
    }

    fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        match self.request(req)? {
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            resp => Ok(resp),
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            _ => Err(ClientError::Protocol("expected Pong")),
        }
    }

    /// Ingests a topology from `wcds_graph::io` text; returns
    /// `(nodes, edges, mobile)`.
    ///
    /// # Errors
    ///
    /// See [`Client::request`]; server errors include `already-exists`
    /// and `bad-payload`.
    pub fn create(&mut self, name: &str, payload: &str) -> Result<(u64, u64, bool), ClientError> {
        let req = Request::Create { name: name.into(), payload: payload.into() };
        match self.call(&req)? {
            Response::Created { nodes, edges, mobile } => Ok((nodes, edges, mobile)),
            _ => Err(ClientError::Protocol("expected Created")),
        }
    }

    /// Dumps the current topology as `wcds_graph::io` text.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn export(&mut self, name: &str) -> Result<String, ClientError> {
        match self.call(&Request::Export { name: name.into() })? {
            Response::Exported { payload } => Ok(payload),
            _ => Err(ClientError::Protocol("expected Exported")),
        }
    }

    /// Forces the artifact bundle to exist; returns
    /// `(mis, bridges, spanner_edges, epoch)`.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn construct(&mut self, name: &str) -> Result<(u64, u64, u64, u64), ClientError> {
        match self.call(&Request::Construct { name: name.into() })? {
            Response::Constructed { mis, bridges, spanner_edges, epoch } => {
                Ok((mis, bridges, spanner_edges, epoch))
            }
            _ => Err(ClientError::Protocol("expected Constructed")),
        }
    }

    /// Routes `from → to` over the backbone. An unreachable destination
    /// comes back as `Ok(RouteOutcome::Degraded { unreachable })`, not
    /// an error.
    ///
    /// # Errors
    ///
    /// See [`Client::request`]; server errors include `out-of-range`.
    pub fn route(
        &mut self,
        name: &str,
        from: NodeId,
        to: NodeId,
    ) -> Result<RouteOutcome, ClientError> {
        match self.call(&Request::Route { name: name.into(), from, to })? {
            Response::Routed { path } => Ok(RouteOutcome::Path(path)),
            Response::Degraded { unreachable } => Ok(RouteOutcome::Degraded { unreachable }),
            _ => Err(ClientError::Protocol("expected Routed or Degraded")),
        }
    }

    /// Backbone broadcast from `source`. A partitioned topology comes
    /// back as `Ok(BroadcastOutcome::Degraded { unreachable })`.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn broadcast(
        &mut self,
        name: &str,
        source: NodeId,
    ) -> Result<BroadcastOutcome, ClientError> {
        match self.call(&Request::Broadcast { name: name.into(), source })? {
            Response::Broadcasted { forwarders, informed } => {
                Ok(BroadcastOutcome::Done { forwarders, informed })
            }
            Response::Degraded { unreachable } => {
                Ok(BroadcastOutcome::Degraded { unreachable })
            }
            _ => Err(ClientError::Protocol("expected Broadcasted or Degraded")),
        }
    }

    /// Upgrades the topology to a (k, m)-resilient backbone (degraded-
    /// mode serving included).
    ///
    /// # Errors
    ///
    /// See [`Client::request`]; server errors include `out-of-range`
    /// for k or m outside the supported fold range.
    pub fn harden(&mut self, name: &str, k: u64, m: u64) -> Result<HardenOutcome, ClientError> {
        match self.call(&Request::Harden { name: name.into(), k, m })? {
            Response::Hardened { k, m, achieved_k, dominators, spanner_edges, epoch } => {
                Ok(HardenOutcome { k, m, achieved_k, dominators, spanner_edges, epoch })
            }
            _ => Err(ClientError::Protocol("expected Hardened")),
        }
    }

    /// Topology + cache statistics.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn stats(&mut self, name: &str) -> Result<TopologyStats, ClientError> {
        match self.call(&Request::Stats { name: name.into() })? {
            Response::StatsOk(stats) => Ok(stats),
            _ => Err(ClientError::Protocol("expected StatsOk")),
        }
    }

    /// Applies one maintenance mutation; returns
    /// `(epoch, promoted, demoted)`. Epochs are serialized per
    /// topology, so the returned epoch is this mutation's global
    /// position in the topology's mutation log.
    ///
    /// # Errors
    ///
    /// See [`Client::request`]; server errors include `unsupported`
    /// (static topology), `out-of-range` and `bad-payload` (a
    /// non-finite coordinate).
    pub fn mutate(
        &mut self,
        name: &str,
        mutation: Mutation,
    ) -> Result<(u64, Vec<NodeId>, Vec<NodeId>), ClientError> {
        match self.call(&Request::Mutate { name: name.into(), mutation })? {
            Response::Mutated { epoch, promoted, demoted } => Ok((epoch, promoted, demoted)),
            _ => Err(ClientError::Protocol("expected Mutated")),
        }
    }

    /// Ships a whole mutation batch (a drift tick) in one frame,
    /// applied under one hold of the topology write lock with coalesced
    /// repairs. All-or-nothing: any invalid id or non-finite coordinate
    /// rejects the batch server-side before anything is applied. The returned outcome's
    /// epoch is the batch's final position in the topology's mutation
    /// log — a batch of `applied` mutations occupied epochs
    /// `epoch − applied + 1 ..= epoch`; `lease_wait_us` is always 0,
    /// kept for wire compatibility.
    ///
    /// # Errors
    ///
    /// See [`Client::request`]; server errors include `unsupported`
    /// (static topology), `out-of-range` and `bad-payload`.
    pub fn mutate_batch(
        &mut self,
        name: &str,
        mutations: &[Mutation],
    ) -> Result<BatchOutcome, ClientError> {
        let req = Request::MutateBatch { name: name.into(), mutations: mutations.to_vec() };
        match self.call(&req)? {
            Response::BatchMutated { epoch, applied, promoted, demoted, lease_wait_us } => {
                Ok(BatchOutcome { epoch, applied, promoted, demoted, lease_wait_us })
            }
            _ => Err(ClientError::Protocol("expected BatchMutated")),
        }
    }

    /// Sorted names of all stored topologies.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn list(&mut self) -> Result<Vec<String>, ClientError> {
        match self.call(&Request::List)? {
            Response::Topologies { names } => Ok(names),
            _ => Err(ClientError::Protocol("expected Topologies")),
        }
    }

    /// Removes a topology.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn drop_topology(&mut self, name: &str) -> Result<(), ClientError> {
        match self.call(&Request::Drop { name: name.into() })? {
            Response::Dropped => Ok(()),
            _ => Err(ClientError::Protocol("expected Dropped")),
        }
    }

    /// Asks the server to shut down gracefully; the server acknowledges
    /// and then closes this connection.
    ///
    /// # Errors
    ///
    /// See [`Client::request`].
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            _ => Err(ClientError::Protocol("expected ShuttingDown")),
        }
    }
}
