//! The versioned, length-prefixed binary wire protocol.
//!
//! Every message on the wire is one **frame**:
//!
//! ```text
//! [len: u32 LE] [version: u8] [tag: u8] [body…]      (len counts from `version`)
//! ```
//!
//! Bodies are flat sequences of little-endian scalars and
//! length-prefixed strings — no self-description, no external codec.
//! Graph payloads reuse the `wcds_graph::io` text format (already the
//! repo's persistence format, so server and CLI round-trip the same
//! bytes), carried as a length-prefixed string.
//!
//! Decoding is total: truncated frames, unknown tags, wrong versions,
//! oversized lengths, and trailing bytes all come back as typed
//! [`WireError`]s, never panics — the server feeds these buffers
//! straight from untrusted sockets.

use std::fmt;
use std::io::{self, Read, Write};
use wcds_graph::NodeId;

/// Protocol revision carried in every frame.
pub const PROTOCOL_VERSION: u8 = 1;

/// Upper bound on a frame body; larger declared lengths are rejected
/// before allocation so a hostile peer cannot trigger an OOM abort.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// A decoding failure (always a peer-side defect, never a panic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Frame or field ended before its declared length.
    Truncated,
    /// Frame version byte differs from [`PROTOCOL_VERSION`].
    BadVersion(u8),
    /// Unknown message/enum discriminant.
    UnknownTag { what: &'static str, tag: u8 },
    /// Declared frame length beyond [`MAX_FRAME_LEN`].
    FrameTooLarge(usize),
    /// Bytes left over after a complete decode.
    TrailingBytes(usize),
    /// A length-prefixed string that is not UTF-8.
    InvalidUtf8,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::BadVersion(v) => {
                write!(f, "protocol version {v} (expected {PROTOCOL_VERSION})")
            }
            WireError::UnknownTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            WireError::FrameTooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME_LEN} limit")
            }
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            WireError::InvalidUtf8 => write!(f, "string field is not valid UTF-8"),
        }
    }
}

impl std::error::Error for WireError {}

/// A topology mutation, applied through `wcds_core::maintenance`.
#[derive(Debug, Clone, PartialEq)]
pub enum Mutation {
    /// A node joins at `(x, y)` (it receives the next free id).
    Join { x: f64, y: f64 },
    /// Node `node` leaves; higher ids shift down by one.
    Leave { node: NodeId },
    /// Node `node` moves to `(x, y)`.
    Move { node: NodeId, x: f64, y: f64 },
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Ingest a topology under `name`; `payload` is `wcds_graph::io`
    /// text. Payloads with `point` lines become mobile (mutable)
    /// topologies; edge-only payloads are static.
    Create { name: String, payload: String },
    /// Dump the current topology as `wcds_graph::io` text.
    Export { name: String },
    /// Force the artifact bundle (WCDS + spanner + routing tables) to
    /// be built now and return its summary.
    Construct { name: String },
    /// Clusterhead-route a packet over the cached backbone.
    Route { name: String, from: NodeId, to: NodeId },
    /// Backbone-broadcast from `source`, returning forwarder counts.
    Broadcast { name: String, source: NodeId },
    /// Topology + cache statistics.
    Stats { name: String },
    /// Apply one maintenance mutation (bumps the topology epoch).
    Mutate { name: String, mutation: Mutation },
    /// Names of all stored topologies.
    List,
    /// Remove a topology.
    Drop { name: String },
    /// Ask the server to shut down gracefully.
    Shutdown,
    /// Upgrade the topology to a (k, m)-resilient backbone: non-
    /// dominators covered by ≥ m dominators, induced core k-connected.
    /// Rebuilds the bundle eagerly and enables degraded-mode serving.
    Harden { name: String, k: u64, m: u64 },
    /// Apply a whole vector of mutations in one frame (a drift tick).
    /// The batch is validated and applied under one hold of the
    /// topology write lock: each run of moves coalesces into one
    /// repair, and the final state is byte-identical to applying the
    /// same mutations one [`Request::Mutate`] at a time. Validation is
    /// all-or-nothing: an out-of-range node id or a non-finite
    /// coordinate anywhere in the batch rejects the whole frame before
    /// any mutation applies.
    MutateBatch { name: String, mutations: Vec<Mutation> },
}

/// Machine-readable failure category in an error response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Unknown topology name.
    NotFound,
    /// `Create` for a name already in the store.
    AlreadyExists,
    /// Unparsable graph payload, or a non-finite mutation coordinate.
    BadPayload,
    /// Operation the topology cannot do (mutating a static one).
    Unsupported,
    /// Node id outside the topology.
    OutOfRange,
    /// No backbone route between the endpoints.
    Unroutable,
    /// Anything else (server-side defect).
    Internal,
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorCode::NotFound => "not-found",
            ErrorCode::AlreadyExists => "already-exists",
            ErrorCode::BadPayload => "bad-payload",
            ErrorCode::Unsupported => "unsupported",
            ErrorCode::OutOfRange => "out-of-range",
            ErrorCode::Unroutable => "unroutable",
            ErrorCode::Internal => "internal",
        };
        write!(f, "{s}")
    }
}

/// Per-topology statistics reported by [`Request::Stats`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TopologyStats {
    /// Node count.
    pub nodes: u64,
    /// Edge count.
    pub edges: u64,
    /// Mutation epoch (0 at ingest, +1 per applied mutation).
    pub epoch: u64,
    /// Whether the topology accepts mutations (was ingested with
    /// positions).
    pub mobile: bool,
    /// Whether the artifact bundle was already fresh when this request
    /// arrived (i.e. this very request was a cache hit).
    pub cached: bool,
    /// MIS dominator count of the current WCDS.
    pub mis: u64,
    /// Additional (bridge) dominator count.
    pub bridges: u64,
    /// Edge count of the weakly-induced spanner.
    pub spanner_edges: u64,
    /// Lifetime artifact-cache hits for this topology.
    pub cache_hits: u64,
    /// Lifetime artifact-cache misses.
    pub cache_misses: u64,
    /// Lifetime artifact rebuilds (≤ misses; a miss that finds the
    /// bundle already rebuilt by a racing request does not rebuild).
    pub rebuilds: u64,
    /// Resilience target `k` (0 when the topology is not hardened).
    pub hardened_k: u64,
    /// Resilience target `m` (0 when the topology is not hardened).
    pub hardened_m: u64,
    /// Core connectivity the last built backbone actually achieved
    /// (≤ `hardened_k`; lower only when the host graph falls short).
    pub achieved_k: u64,
    /// Routes served from a fresh bundle.
    pub routes_ok: u64,
    /// Routes served over a stale resilient backbone while a heal was
    /// pending (degraded mode).
    pub routes_degraded: u64,
    /// Route queries answered `Degraded { unreachable }` because no
    /// surviving backbone path existed.
    pub routes_unreachable: u64,
    /// Background heals that installed a fresh bundle.
    pub heals: u64,
    /// Always 0, kept for wire compatibility: mutations wait on the
    /// topology write lock, not in an admission queue.
    pub lease_waits: u64,
    /// Always 0, kept for wire compatibility: no admission scheduler
    /// looks for conflicting mutations.
    pub lease_conflicts: u64,
    /// Mutations received through [`Request::MutateBatch`] frames.
    pub batched_mutations: u64,
    /// 0 until a mutation has been applied, 1 after: repairs run one
    /// at a time under the topology write lock. Kept for wire
    /// compatibility.
    pub concurrent_repairs_max: u64,
    /// Published-slot loads for this topology: every read that cloned
    /// the published bundle out of its slot.
    pub snapshot_reads: u64,
    /// Deepest request pipeline observed on one connection (complete
    /// frames decoded from a single readiness wake). A loop
    /// diagnostic: 0 on a store no server has served.
    pub pipeline_depth_max: u64,
    /// Readiness-loop syscalls issued by the event loop (epoll waits +
    /// ctls, reads, writes, accepts). A loop diagnostic: 0 on a store
    /// no server has served.
    pub syscalls: u64,
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to [`Request::Ping`].
    Pong,
    /// Topology ingested.
    Created {
        /// Node count.
        nodes: u64,
        /// Edge count.
        edges: u64,
        /// Whether it accepts mutations.
        mobile: bool,
    },
    /// The topology as `wcds_graph::io` text.
    Exported {
        /// Text-format document (graph + points when mobile).
        payload: String,
    },
    /// Artifact bundle summary.
    Constructed {
        /// MIS dominator count.
        mis: u64,
        /// Additional (bridge) dominator count.
        bridges: u64,
        /// Spanner edge count.
        spanner_edges: u64,
        /// Epoch the bundle was built at.
        epoch: u64,
    },
    /// A backbone route.
    Routed {
        /// Node path, inclusive of both endpoints.
        path: Vec<NodeId>,
    },
    /// Broadcast outcome.
    Broadcasted {
        /// Retransmitting nodes.
        forwarders: u64,
        /// Nodes reached.
        informed: u64,
    },
    /// Reply to [`Request::Stats`].
    StatsOk(TopologyStats),
    /// Mutation applied.
    Mutated {
        /// Epoch after the mutation; mutations are serialized per
        /// topology, so epoch `k` is the `k`-th applied mutation.
        epoch: u64,
        /// Nodes that became dominators.
        promoted: Vec<NodeId>,
        /// Nodes that stopped being dominators.
        demoted: Vec<NodeId>,
    },
    /// Reply to [`Request::List`].
    Topologies {
        /// Sorted topology names.
        names: Vec<String>,
    },
    /// Topology removed.
    Dropped,
    /// Acknowledgement of [`Request::Shutdown`]; the server stops
    /// accepting connections after sending it.
    ShuttingDown,
    /// Request-level failure.
    Error {
        /// Machine-readable category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Reply to [`Request::Harden`].
    Hardened {
        /// Target connectivity.
        k: u64,
        /// Target coverage multiplicity.
        m: u64,
        /// Core connectivity actually achieved (≤ `k`).
        achieved_k: u64,
        /// Total dominator count of the resilient backbone.
        dominators: u64,
        /// Spanner edge count of the resilient backbone.
        spanner_edges: u64,
        /// Epoch the hardened bundle was built at.
        epoch: u64,
    },
    /// The query was answered in **degraded mode**: the topology (or
    /// its surviving backbone) is partitioned, so part of the network
    /// is out of reach. For a route query this replaces the old
    /// generic `Unroutable` error; for a broadcast it replaces the
    /// generic "partitioned" error.
    Degraded {
        /// How many nodes the source cannot currently reach.
        unreachable: u32,
    },
    /// Reply to [`Request::MutateBatch`]. Reports counts, not per-node
    /// vectors — a drift tick over thousands of nodes should not echo
    /// a proportional payload back.
    BatchMutated {
        /// Epoch after the whole batch; the batch's mutations occupy
        /// epochs `epoch - applied + 1 ..= epoch` in commit order.
        epoch: u64,
        /// Mutations applied (the full batch; validation is
        /// all-or-nothing).
        applied: u64,
        /// Nodes that became dominators over the whole batch.
        promoted: u64,
        /// Nodes that stopped being dominators over the whole batch.
        demoted: u64,
        /// Always 0, kept for wire compatibility: time spent waiting
        /// for the topology lock is service time.
        lease_wait_us: u64,
    },
}

// ---------------------------------------------------------------------
// encoding primitives

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn put_nodes(out: &mut Vec<u8>, nodes: &[NodeId]) {
    put_u64(out, nodes.len() as u64);
    for &u in nodes {
        put_u64(out, u as u64);
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        let s = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        self.take(1)?.first().copied().ok_or(WireError::Truncated)
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let bytes: [u8; 8] = self.take(8)?.try_into().map_err(|_| WireError::Truncated)?;
        Ok(u64::from_le_bytes(bytes))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn node(&mut self) -> Result<NodeId, WireError> {
        usize::try_from(self.u64()?).map_err(|_| WireError::Truncated)
    }

    fn len(&mut self) -> Result<usize, WireError> {
        let n = self.node()?;
        // any honest length fits in what remains of the frame
        if n > self.buf.len().saturating_sub(self.pos) {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }

    fn string(&mut self) -> Result<String, WireError> {
        let n = self.len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::InvalidUtf8)
    }

    fn finish(self) -> Result<(), WireError> {
        let left = self.buf.len() - self.pos;
        if left == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(left))
        }
    }
}

fn read_nodes(r: &mut Reader<'_>) -> Result<Vec<NodeId>, WireError> {
    let count = r.node()?;
    // each element is 8 bytes; bound before allocating
    if count > r.buf.len().saturating_sub(r.pos) / 8 {
        return Err(WireError::Truncated);
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(r.node()?);
    }
    Ok(out)
}

fn read_strings(r: &mut Reader<'_>) -> Result<Vec<String>, WireError> {
    let count = r.node()?;
    if count > r.buf.len().saturating_sub(r.pos) {
        return Err(WireError::Truncated);
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(r.string()?);
    }
    Ok(out)
}

fn put_strings(out: &mut Vec<u8>, strings: &[String]) {
    put_u64(out, strings.len() as u64);
    for s in strings {
        put_str(out, s);
    }
}

fn header(tag: u8) -> Vec<u8> {
    vec![PROTOCOL_VERSION, tag]
}

fn open(buf: &[u8]) -> Result<(u8, Reader<'_>), WireError> {
    let mut r = Reader::new(buf);
    let version = r.u8()?;
    if version != PROTOCOL_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let tag = r.u8()?;
    Ok((tag, r))
}

// ---------------------------------------------------------------------
// message encodings

impl Mutation {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Mutation::Join { x, y } => {
                out.push(0);
                put_f64(out, *x);
                put_f64(out, *y);
            }
            Mutation::Leave { node } => {
                out.push(1);
                put_u64(out, *node as u64);
            }
            Mutation::Move { node, x, y } => {
                out.push(2);
                put_u64(out, *node as u64);
                put_f64(out, *x);
                put_f64(out, *y);
            }
        }
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(Mutation::Join { x: r.f64()?, y: r.f64()? }),
            1 => Ok(Mutation::Leave { node: r.node()? }),
            2 => Ok(Mutation::Move { node: r.node()?, x: r.f64()?, y: r.f64()? }),
            tag => Err(WireError::UnknownTag { what: "mutation", tag }),
        }
    }
}

fn put_mutations(out: &mut Vec<u8>, mutations: &[Mutation]) {
    put_u64(out, mutations.len() as u64);
    for m in mutations {
        m.encode_into(out);
    }
}

fn read_mutations(r: &mut Reader<'_>) -> Result<Vec<Mutation>, WireError> {
    let count = r.node()?;
    // the smallest mutation (Leave) is 9 bytes; bound before allocating
    if count > r.buf.len().saturating_sub(r.pos) / 9 {
        return Err(WireError::Truncated);
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(Mutation::decode_from(r)?);
    }
    Ok(out)
}

impl Request {
    /// Serialises the request into a frame body (version + tag + body).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Request::Ping => header(0),
            Request::Create { name, payload } => {
                let mut out = header(1);
                put_str(&mut out, name);
                put_str(&mut out, payload);
                out
            }
            Request::Export { name } => {
                let mut out = header(2);
                put_str(&mut out, name);
                out
            }
            Request::Construct { name } => {
                let mut out = header(3);
                put_str(&mut out, name);
                out
            }
            Request::Route { name, from, to } => {
                let mut out = header(4);
                put_str(&mut out, name);
                put_u64(&mut out, *from as u64);
                put_u64(&mut out, *to as u64);
                out
            }
            Request::Broadcast { name, source } => {
                let mut out = header(5);
                put_str(&mut out, name);
                put_u64(&mut out, *source as u64);
                out
            }
            Request::Stats { name } => {
                let mut out = header(6);
                put_str(&mut out, name);
                out
            }
            Request::Mutate { name, mutation } => {
                let mut out = header(7);
                put_str(&mut out, name);
                mutation.encode_into(&mut out);
                out
            }
            Request::List => header(8),
            Request::Drop { name } => {
                let mut out = header(9);
                put_str(&mut out, name);
                out
            }
            Request::Shutdown => header(10),
            Request::Harden { name, k, m } => {
                let mut out = header(11);
                put_str(&mut out, name);
                put_u64(&mut out, *k);
                put_u64(&mut out, *m);
                out
            }
            Request::MutateBatch { name, mutations } => {
                let mut out = header(12);
                put_str(&mut out, name);
                put_mutations(&mut out, mutations);
                out
            }
        }
    }

    /// Decodes a frame body produced by [`Request::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on truncation, version or tag mismatch,
    /// bad UTF-8, or trailing bytes.
    pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
        let (tag, mut r) = open(buf)?;
        let req = match tag {
            0 => Request::Ping,
            1 => Request::Create { name: r.string()?, payload: r.string()? },
            2 => Request::Export { name: r.string()? },
            3 => Request::Construct { name: r.string()? },
            4 => Request::Route { name: r.string()?, from: r.node()?, to: r.node()? },
            5 => Request::Broadcast { name: r.string()?, source: r.node()? },
            6 => Request::Stats { name: r.string()? },
            7 => Request::Mutate { name: r.string()?, mutation: Mutation::decode_from(&mut r)? },
            8 => Request::List,
            9 => Request::Drop { name: r.string()? },
            10 => Request::Shutdown,
            11 => Request::Harden { name: r.string()?, k: r.u64()?, m: r.u64()? },
            12 => Request::MutateBatch {
                name: r.string()?,
                mutations: read_mutations(&mut r)?,
            },
            tag => return Err(WireError::UnknownTag { what: "request", tag }),
        };
        r.finish()?;
        Ok(req)
    }
}

impl ErrorCode {
    fn to_tag(self) -> u8 {
        match self {
            ErrorCode::NotFound => 0,
            ErrorCode::AlreadyExists => 1,
            ErrorCode::BadPayload => 2,
            ErrorCode::Unsupported => 3,
            ErrorCode::OutOfRange => 4,
            ErrorCode::Unroutable => 5,
            ErrorCode::Internal => 6,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, WireError> {
        Ok(match tag {
            0 => ErrorCode::NotFound,
            1 => ErrorCode::AlreadyExists,
            2 => ErrorCode::BadPayload,
            3 => ErrorCode::Unsupported,
            4 => ErrorCode::OutOfRange,
            5 => ErrorCode::Unroutable,
            6 => ErrorCode::Internal,
            tag => return Err(WireError::UnknownTag { what: "error code", tag }),
        })
    }
}

impl TopologyStats {
    fn encode_into(&self, out: &mut Vec<u8>) {
        for v in [
            self.nodes,
            self.edges,
            self.epoch,
            self.mis,
            self.bridges,
            self.spanner_edges,
            self.cache_hits,
            self.cache_misses,
            self.rebuilds,
            self.hardened_k,
            self.hardened_m,
            self.achieved_k,
            self.routes_ok,
            self.routes_degraded,
            self.routes_unreachable,
            self.heals,
            self.lease_waits,
            self.lease_conflicts,
            self.batched_mutations,
            self.concurrent_repairs_max,
            self.snapshot_reads,
            self.pipeline_depth_max,
            self.syscalls,
        ] {
            put_u64(out, v);
        }
        out.push(u8::from(self.mobile));
        out.push(u8::from(self.cached));
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut s = TopologyStats {
            nodes: r.u64()?,
            edges: r.u64()?,
            epoch: r.u64()?,
            mis: r.u64()?,
            bridges: r.u64()?,
            spanner_edges: r.u64()?,
            cache_hits: r.u64()?,
            cache_misses: r.u64()?,
            rebuilds: r.u64()?,
            hardened_k: r.u64()?,
            hardened_m: r.u64()?,
            achieved_k: r.u64()?,
            routes_ok: r.u64()?,
            routes_degraded: r.u64()?,
            routes_unreachable: r.u64()?,
            heals: r.u64()?,
            lease_waits: r.u64()?,
            lease_conflicts: r.u64()?,
            batched_mutations: r.u64()?,
            concurrent_repairs_max: r.u64()?,
            snapshot_reads: r.u64()?,
            pipeline_depth_max: r.u64()?,
            syscalls: r.u64()?,
            ..TopologyStats::default()
        };
        s.mobile = r.u8()? != 0;
        s.cached = r.u8()? != 0;
        Ok(s)
    }
}

impl Response {
    /// Serialises the response into a frame body.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Response::Pong => header(0),
            Response::Created { nodes, edges, mobile } => {
                let mut out = header(1);
                put_u64(&mut out, *nodes);
                put_u64(&mut out, *edges);
                out.push(u8::from(*mobile));
                out
            }
            Response::Exported { payload } => {
                let mut out = header(2);
                put_str(&mut out, payload);
                out
            }
            Response::Constructed { mis, bridges, spanner_edges, epoch } => {
                let mut out = header(3);
                put_u64(&mut out, *mis);
                put_u64(&mut out, *bridges);
                put_u64(&mut out, *spanner_edges);
                put_u64(&mut out, *epoch);
                out
            }
            Response::Routed { path } => {
                let mut out = header(4);
                put_nodes(&mut out, path);
                out
            }
            Response::Broadcasted { forwarders, informed } => {
                let mut out = header(5);
                put_u64(&mut out, *forwarders);
                put_u64(&mut out, *informed);
                out
            }
            Response::StatsOk(stats) => {
                let mut out = header(6);
                stats.encode_into(&mut out);
                out
            }
            Response::Mutated { epoch, promoted, demoted } => {
                let mut out = header(7);
                put_u64(&mut out, *epoch);
                put_nodes(&mut out, promoted);
                put_nodes(&mut out, demoted);
                out
            }
            Response::Topologies { names } => {
                let mut out = header(8);
                put_strings(&mut out, names);
                out
            }
            Response::Dropped => header(9),
            Response::ShuttingDown => header(10),
            Response::Error { code, message } => {
                let mut out = header(11);
                out.push(code.to_tag());
                put_str(&mut out, message);
                out
            }
            Response::Hardened { k, m, achieved_k, dominators, spanner_edges, epoch } => {
                let mut out = header(12);
                for v in [k, m, achieved_k, dominators, spanner_edges, epoch] {
                    put_u64(&mut out, *v);
                }
                out
            }
            Response::Degraded { unreachable } => {
                let mut out = header(13);
                put_u64(&mut out, u64::from(*unreachable));
                out
            }
            Response::BatchMutated { epoch, applied, promoted, demoted, lease_wait_us } => {
                let mut out = header(14);
                for v in [epoch, applied, promoted, demoted, lease_wait_us] {
                    put_u64(&mut out, *v);
                }
                out
            }
        }
    }

    /// Decodes a frame body produced by [`Response::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on truncation, version or tag mismatch,
    /// bad UTF-8, or trailing bytes.
    pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
        let (tag, mut r) = open(buf)?;
        let resp = match tag {
            0 => Response::Pong,
            1 => Response::Created {
                nodes: r.u64()?,
                edges: r.u64()?,
                mobile: r.u8()? != 0,
            },
            2 => Response::Exported { payload: r.string()? },
            3 => Response::Constructed {
                mis: r.u64()?,
                bridges: r.u64()?,
                spanner_edges: r.u64()?,
                epoch: r.u64()?,
            },
            4 => Response::Routed { path: read_nodes(&mut r)? },
            5 => Response::Broadcasted { forwarders: r.u64()?, informed: r.u64()? },
            6 => Response::StatsOk(TopologyStats::decode_from(&mut r)?),
            7 => Response::Mutated {
                epoch: r.u64()?,
                promoted: read_nodes(&mut r)?,
                demoted: read_nodes(&mut r)?,
            },
            8 => Response::Topologies { names: read_strings(&mut r)? },
            9 => Response::Dropped,
            10 => Response::ShuttingDown,
            11 => Response::Error {
                code: ErrorCode::from_tag(r.u8()?)?,
                message: r.string()?,
            },
            12 => Response::Hardened {
                k: r.u64()?,
                m: r.u64()?,
                achieved_k: r.u64()?,
                dominators: r.u64()?,
                spanner_edges: r.u64()?,
                epoch: r.u64()?,
            },
            // decoding stays total: a count beyond u32 saturates rather
            // than erroring (an honest peer never sends one)
            13 => Response::Degraded {
                unreachable: u32::try_from(r.u64()?).unwrap_or(u32::MAX),
            },
            14 => Response::BatchMutated {
                epoch: r.u64()?,
                applied: r.u64()?,
                promoted: r.u64()?,
                demoted: r.u64()?,
                lease_wait_us: r.u64()?,
            },
            tag => return Err(WireError::UnknownTag { what: "response", tag }),
        };
        r.finish()?;
        Ok(resp)
    }
}

// ---------------------------------------------------------------------
// framing

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// `InvalidInput` (wrapping [`WireError::FrameTooLarge`]) if `body`
/// exceeds [`MAX_FRAME_LEN`] — nothing is written in that case — plus
/// any I/O error from the underlying stream.
pub fn write_frame<W: Write>(w: &mut W, body: &[u8]) -> io::Result<()> {
    // MAX_FRAME_LEN < u32::MAX, so the bound check also proves the cast
    let len = u32::try_from(body.len())
        .ok()
        .filter(|_| body.len() <= MAX_FRAME_LEN)
        .ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, WireError::FrameTooLarge(body.len()))
        })?;
    // one coalesced write: prefix and body leave in a single
    // syscall/packet, so a NODELAY peer never wakes up for a bare
    // 4-byte length and then sleeps again waiting for the body
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(body);
    w.write_all(&frame)?;
    w.flush()
}

/// Outcome of [`read_frame`] on a timeout-capable stream.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameRead {
    /// A complete frame body.
    Frame(Vec<u8>),
    /// Clean EOF before any byte of a frame (peer closed between
    /// messages).
    Eof,
    /// A read timeout fired before any byte of a frame arrived — the
    /// peer is connected but idle. The stream is still in sync; the
    /// caller may poll a flag and retry.
    IdleTimeout,
}

/// Reads one length-prefixed frame.
///
/// A timeout **between** frames comes back as
/// [`FrameRead::IdleTimeout`] (safe to retry); a timeout **inside** a
/// frame is an error, because the stream position is unknowable and
/// the connection must be dropped — so a peer stalled mid-frame
/// cannot wedge the reader. EOF inside a frame is an
/// `UnexpectedEof` error; an oversized length prefix is `InvalidData`
/// (wrapping [`WireError::FrameTooLarge`]) and is rejected before any
/// allocation.
///
/// # Errors
///
/// Propagates I/O errors (including mid-frame timeouts, as above).
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<FrameRead> {
    let mut len_buf = [0u8; 4];
    match read_full(r, &mut len_buf) {
        FullRead::Eof => return Ok(FrameRead::Eof),
        FullRead::Idle => return Ok(FrameRead::IdleTimeout),
        FullRead::Err(e) => return Err(e),
        FullRead::Ok => {}
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(io::ErrorKind::InvalidData, WireError::FrameTooLarge(len)));
    }
    let mut body = vec![0u8; len];
    match read_full(r, &mut body) {
        FullRead::Eof => Err(io::Error::new(io::ErrorKind::UnexpectedEof, "EOF inside frame")),
        // the length prefix was consumed: a quiet peer here is stalled
        // mid-frame, not idle
        FullRead::Idle => Err(io::Error::new(io::ErrorKind::TimedOut, "stalled inside frame")),
        FullRead::Err(e) => Err(e),
        FullRead::Ok => Ok(FrameRead::Frame(body)),
    }
}

enum FullRead {
    Ok,
    /// Clean EOF before the first byte.
    Eof,
    /// Timeout before the first byte.
    Idle,
    Err(io::Error),
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

fn read_full<R: Read>(r: &mut R, buf: &mut [u8]) -> FullRead {
    let mut filled = 0;
    loop {
        let rest = match buf.get_mut(filled..) {
            Some(rest) if !rest.is_empty() => rest,
            _ => return FullRead::Ok, // filled the whole buffer
        };
        let capacity = rest.len();
        match r.read(rest) {
            Ok(0) if filled == 0 => return FullRead::Eof,
            Ok(0) => {
                return FullRead::Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside frame",
                ))
            }
            Ok(n) if n <= capacity => filled += n,
            // a Read impl reporting more bytes than the buffer holds is
            // broken; fail the frame, never panic
            Ok(_) => {
                return FullRead::Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "reader overran the frame buffer",
                ))
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) && filled == 0 => return FullRead::Idle,
            // a timeout after partial progress means a stalled peer:
            // surface it (the caller drops the connection) instead of
            // spinning forever on a half-frame
            Err(e) => return FullRead::Err(e),
        }
    }
}

// ---------------------------------------------------------------------
// incremental framing

/// Incremental, nonblocking counterpart of [`read_frame`]: a
/// per-connection framing state machine for readiness-driven servers.
///
/// Bytes arrive in whatever chunks the socket produced via
/// [`FrameDecoder::feed`]; [`FrameDecoder::next_frame`] then yields
/// complete frame bodies in arrival order — zero, one, or many per
/// feed, which is what makes request pipelining work. The decoder
/// enforces the same hostility rules as the blocking reader: an
/// oversized length prefix is rejected with
/// [`WireError::FrameTooLarge`] as soon as the four header bytes are
/// present, before a single body byte is buffered.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    /// Raw received bytes not yet consumed by a yielded frame.
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed (compacted lazily so a
    /// pipelined burst doesn't memmove once per frame).
    pos: usize,
}

impl FrameDecoder {
    /// A fresh decoder with nothing buffered.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends newly received bytes to the framing buffer.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > 64 * 1024 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Extracts the next complete frame body, if one is buffered.
    ///
    /// Returns `Ok(None)` when more bytes are needed. After an error
    /// the stream position is unknowable and the connection must be
    /// dropped — exactly as with [`read_frame`].
    ///
    /// # Errors
    ///
    /// [`WireError::FrameTooLarge`] if the length prefix exceeds
    /// [`MAX_FRAME_LEN`]; nothing past the prefix is buffered or
    /// inspected in that case.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        let Some(total) = self.head_frame_len()? else {
            return Ok(None);
        };
        let start = self.pos.saturating_add(4);
        let end = self.pos.saturating_add(total);
        let Some(body) = self.buf.get(start..end) else {
            return Ok(None);
        };
        let frame = body.to_vec();
        self.pos = end;
        Ok(Some(frame))
    }

    /// Bytes the head frame occupies once complete — its 4-byte length
    /// prefix plus the declared body — or `None` while the prefix is
    /// still incomplete. A readiness server bounds its reads by this,
    /// so one large frame can complete without unbounded run-ahead.
    ///
    /// # Errors
    ///
    /// [`WireError::FrameTooLarge`] if the length prefix exceeds
    /// [`MAX_FRAME_LEN`], exactly as [`FrameDecoder::next_frame`].
    pub fn head_frame_len(&self) -> Result<Option<usize>, WireError> {
        let Some(hdr) = self.buf.get(self.pos..self.pos.saturating_add(4)) else {
            return Ok(None);
        };
        let mut len_buf = [0u8; 4];
        len_buf.copy_from_slice(hdr); // the range above is exactly 4 bytes
        let len = u32::from_le_bytes(len_buf) as usize;
        if len > MAX_FRAME_LEN {
            return Err(WireError::FrameTooLarge(len));
        }
        Ok(Some(len.saturating_add(4)))
    }

    /// True when consumed bytes of an incomplete frame (or an unread
    /// header) are buffered — a quiet peer in this state is stalled
    /// *mid-frame*, not idle, and should be dropped on timeout.
    pub fn mid_frame(&self) -> bool {
        self.pos < self.buf.len()
    }

    /// Bytes currently buffered and not yet consumed by a frame.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let buf = req.encode();
        assert_eq!(Request::decode(&buf).unwrap(), req);
    }

    fn roundtrip_response(resp: Response) {
        let buf = resp.encode();
        assert_eq!(Response::decode(&buf).unwrap(), resp);
    }

    #[test]
    fn every_request_roundtrips() {
        roundtrip_request(Request::Ping);
        roundtrip_request(Request::Create {
            name: "net".into(),
            payload: "nodes 2\nedge 0 1\n".into(),
        });
        roundtrip_request(Request::Export { name: "net".into() });
        roundtrip_request(Request::Construct { name: "net".into() });
        roundtrip_request(Request::Route { name: "net".into(), from: 3, to: 99 });
        roundtrip_request(Request::Broadcast { name: "net".into(), source: 0 });
        roundtrip_request(Request::Stats { name: "net".into() });
        for mutation in [
            Mutation::Join { x: 1.5, y: -2.25 },
            Mutation::Leave { node: 7 },
            Mutation::Move { node: 4, x: 0.0, y: 9.75 },
        ] {
            roundtrip_request(Request::Mutate { name: "n".into(), mutation });
        }
        roundtrip_request(Request::List);
        roundtrip_request(Request::Drop { name: "n".into() });
        roundtrip_request(Request::Shutdown);
        roundtrip_request(Request::Harden { name: "net".into(), k: 2, m: 2 });
        roundtrip_request(Request::MutateBatch {
            name: "net".into(),
            mutations: vec![
                Mutation::Move { node: 4, x: 0.5, y: 1.5 },
                Mutation::Join { x: -1.0, y: 2.0 },
                Mutation::Leave { node: 2 },
                Mutation::Move { node: 0, x: 3.25, y: -0.75 },
            ],
        });
        roundtrip_request(Request::MutateBatch { name: "net".into(), mutations: vec![] });
    }

    #[test]
    fn every_response_roundtrips() {
        roundtrip_response(Response::Pong);
        roundtrip_response(Response::Created { nodes: 10, edges: 20, mobile: true });
        roundtrip_response(Response::Exported { payload: "nodes 1\n".into() });
        roundtrip_response(Response::Constructed { mis: 4, bridges: 2, spanner_edges: 31, epoch: 5 });
        roundtrip_response(Response::Routed { path: vec![0, 4, 2, 9] });
        roundtrip_response(Response::Routed { path: vec![] });
        roundtrip_response(Response::Broadcasted { forwarders: 6, informed: 50 });
        roundtrip_response(Response::StatsOk(TopologyStats {
            nodes: 100,
            edges: 400,
            epoch: 3,
            mobile: true,
            cached: false,
            mis: 12,
            bridges: 5,
            spanner_edges: 210,
            cache_hits: 40,
            cache_misses: 4,
            rebuilds: 4,
            hardened_k: 2,
            hardened_m: 2,
            achieved_k: 2,
            routes_ok: 31,
            routes_degraded: 7,
            routes_unreachable: 1,
            heals: 3,
            lease_waits: 9,
            lease_conflicts: 14,
            batched_mutations: 640,
            concurrent_repairs_max: 6,
            snapshot_reads: 77,
            pipeline_depth_max: 32,
            syscalls: 5120,
        }));
        roundtrip_response(Response::Mutated { epoch: 9, promoted: vec![3], demoted: vec![1, 2] });
        roundtrip_response(Response::Topologies { names: vec!["a".into(), "b".into()] });
        roundtrip_response(Response::Dropped);
        roundtrip_response(Response::ShuttingDown);
        for code in [
            ErrorCode::NotFound,
            ErrorCode::AlreadyExists,
            ErrorCode::BadPayload,
            ErrorCode::Unsupported,
            ErrorCode::OutOfRange,
            ErrorCode::Unroutable,
            ErrorCode::Internal,
        ] {
            roundtrip_response(Response::Error { code, message: format!("{code}") });
        }
        roundtrip_response(Response::Hardened {
            k: 2,
            m: 3,
            achieved_k: 2,
            dominators: 44,
            spanner_edges: 161,
            epoch: 9,
        });
        roundtrip_response(Response::Degraded { unreachable: 17 });
        roundtrip_response(Response::Degraded { unreachable: 0 });
        roundtrip_response(Response::BatchMutated {
            epoch: 640,
            applied: 16,
            promoted: 2,
            demoted: 1,
            lease_wait_us: 350,
        });
    }

    #[test]
    fn mutate_batch_with_hostile_count_is_rejected_before_allocation() {
        // declares 2^60 mutations but carries none: must come back as
        // Truncated without attempting the allocation
        let mut buf = vec![PROTOCOL_VERSION, 12];
        put_str(&mut buf, "net");
        put_u64(&mut buf, 1 << 60);
        assert_eq!(Request::decode(&buf).unwrap_err(), WireError::Truncated);
    }

    #[test]
    fn degraded_count_beyond_u32_saturates() {
        let mut buf = vec![PROTOCOL_VERSION, 13];
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            Response::decode(&buf).unwrap(),
            Response::Degraded { unreachable: u32::MAX }
        );
    }

    #[test]
    fn truncation_at_every_prefix_is_a_typed_error() {
        let buf = Request::Mutate {
            name: "topology".into(),
            mutation: Mutation::Move { node: 3, x: 1.0, y: 2.0 },
        }
        .encode();
        for cut in 0..buf.len() {
            let e = Request::decode(&buf[..cut]).unwrap_err();
            assert!(
                matches!(e, WireError::Truncated | WireError::InvalidUtf8),
                "cut at {cut}: {e:?}"
            );
        }
        let buf = Response::Mutated { epoch: 2, promoted: vec![1, 5], demoted: vec![0] }.encode();
        for cut in 0..buf.len() {
            assert!(Response::decode(&buf[..cut]).is_err(), "cut at {cut} decoded");
        }
        let buf = Request::MutateBatch {
            name: "drift".into(),
            mutations: vec![
                Mutation::Move { node: 1, x: 0.5, y: 0.5 },
                Mutation::Join { x: 2.0, y: 2.0 },
            ],
        }
        .encode();
        for cut in 0..buf.len() {
            assert!(Request::decode(&buf[..cut]).is_err(), "cut at {cut} decoded");
        }
    }

    #[test]
    fn bad_version_and_tags_rejected() {
        let mut buf = Request::Ping.encode();
        buf[0] = 77;
        assert_eq!(Request::decode(&buf).unwrap_err(), WireError::BadVersion(77));
        let buf = vec![PROTOCOL_VERSION, 250];
        assert!(matches!(
            Request::decode(&buf).unwrap_err(),
            WireError::UnknownTag { what: "request", tag: 250 }
        ));
        assert!(matches!(
            Response::decode(&buf).unwrap_err(),
            WireError::UnknownTag { what: "response", tag: 250 }
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = Request::List.encode();
        buf.push(0);
        assert_eq!(Request::decode(&buf).unwrap_err(), WireError::TrailingBytes(1));
    }

    #[test]
    fn hostile_length_prefix_does_not_allocate() {
        // Create with a declared string length of u64::MAX
        let mut buf = vec![PROTOCOL_VERSION, 1];
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(Request::decode(&buf).unwrap_err(), WireError::Truncated);
        // Routed with a declared element count far beyond the frame
        let mut buf = vec![PROTOCOL_VERSION, 4];
        buf.extend_from_slice(&(1u64 << 40).to_le_bytes());
        assert_eq!(Response::decode(&buf).unwrap_err(), WireError::Truncated);
    }

    #[test]
    fn frames_roundtrip_over_a_buffer() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Request::Ping.encode()).unwrap();
        write_frame(&mut wire, &Request::List.encode()).unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        let FrameRead::Frame(a) = read_frame(&mut cursor).unwrap() else { panic!("frame") };
        let FrameRead::Frame(b) = read_frame(&mut cursor).unwrap() else { panic!("frame") };
        assert_eq!(Request::decode(&a).unwrap(), Request::Ping);
        assert_eq!(Request::decode(&b).unwrap(), Request::List);
        assert_eq!(read_frame(&mut cursor).unwrap(), FrameRead::Eof);
    }

    #[test]
    fn eof_inside_frame_is_an_error() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &[1, 2, 3, 4, 5]).unwrap();
        wire.truncate(wire.len() - 2);
        let mut cursor = std::io::Cursor::new(wire);
        let e = read_frame(&mut cursor).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_outgoing_frame_is_an_error_not_a_panic() {
        let body = vec![0u8; MAX_FRAME_LEN + 1];
        let mut out = Vec::new();
        let e = write_frame(&mut out, &body).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidInput);
        assert!(out.is_empty(), "nothing may reach the wire for an oversized frame");
    }

    #[test]
    fn oversized_frame_length_rejected_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut cursor = std::io::Cursor::new(wire);
        let e = read_frame(&mut cursor).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn incremental_decoder_yields_frames_across_arbitrary_splits() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Request::Ping.encode()).unwrap();
        write_frame(&mut wire, &Request::Stats { name: "net".into() }.encode()).unwrap();
        write_frame(&mut wire, &Request::List.encode()).unwrap();
        for chunk in [1, 2, 3, 5, 7, wire.len()] {
            let mut dec = FrameDecoder::new();
            let mut frames = Vec::new();
            for piece in wire.chunks(chunk) {
                dec.feed(piece);
                while let Some(body) = dec.next_frame().unwrap() {
                    frames.push(body);
                }
            }
            assert_eq!(frames.len(), 3, "chunk size {chunk}");
            assert_eq!(Request::decode(&frames[0]).unwrap(), Request::Ping);
            assert_eq!(
                Request::decode(&frames[1]).unwrap(),
                Request::Stats { name: "net".into() }
            );
            assert_eq!(Request::decode(&frames[2]).unwrap(), Request::List);
            assert!(!dec.mid_frame(), "chunk size {chunk}: residue left");
        }
    }

    #[test]
    fn incremental_decoder_pipelines_a_coalesced_burst_in_one_feed() {
        let mut wire = Vec::new();
        for _ in 0..32 {
            write_frame(&mut wire, &Request::Ping.encode()).unwrap();
        }
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        let mut n = 0;
        while let Some(body) = dec.next_frame().unwrap() {
            assert_eq!(Request::decode(&body).unwrap(), Request::Ping);
            n += 1;
        }
        assert_eq!(n, 32);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn incremental_decoder_rejects_oversize_header_before_body_arrives() {
        let mut dec = FrameDecoder::new();
        // header declares u32::MAX bytes; only the header is fed
        dec.feed(&u32::MAX.to_le_bytes());
        assert_eq!(dec.next_frame().unwrap_err(), WireError::FrameTooLarge(u32::MAX as usize));
        // the boundary case one past the cap is also rejected
        let mut dec = FrameDecoder::new();
        dec.feed(&u32::try_from(MAX_FRAME_LEN + 1).unwrap().to_le_bytes());
        assert_eq!(dec.head_frame_len().unwrap_err(), WireError::FrameTooLarge(MAX_FRAME_LEN + 1));
        assert_eq!(dec.next_frame().unwrap_err(), WireError::FrameTooLarge(MAX_FRAME_LEN + 1));
        // exactly at the cap the header itself is fine — just incomplete
        let mut dec = FrameDecoder::new();
        dec.feed(&u32::try_from(MAX_FRAME_LEN).unwrap().to_le_bytes());
        assert_eq!(dec.head_frame_len().unwrap(), Some(MAX_FRAME_LEN + 4));
        assert_eq!(dec.next_frame().unwrap(), None);
        assert!(dec.mid_frame());
    }

    #[test]
    fn head_frame_len_tracks_the_frame_at_the_front() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &[7; 10]).unwrap();
        write_frame(&mut wire, &[9; 3]).unwrap();
        let mut dec = FrameDecoder::new();
        dec.feed(&wire[..3]);
        assert_eq!(dec.head_frame_len().unwrap(), None, "prefix still incomplete");
        dec.feed(&wire[3..]);
        assert_eq!(dec.head_frame_len().unwrap(), Some(14));
        assert_eq!(dec.next_frame().unwrap(), Some(vec![7; 10]));
        assert_eq!(dec.head_frame_len().unwrap(), Some(7));
        assert_eq!(dec.next_frame().unwrap(), Some(vec![9; 3]));
        assert_eq!(dec.head_frame_len().unwrap(), None);
    }

    #[test]
    fn incremental_decoder_reports_mid_frame_for_partial_bodies() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &[1, 2, 3, 4, 5]).unwrap();
        let mut dec = FrameDecoder::new();
        dec.feed(&wire[..wire.len() - 2]);
        assert_eq!(dec.next_frame().unwrap(), None);
        assert!(dec.mid_frame(), "a half-delivered body is a stalled frame");
        dec.feed(&wire[wire.len() - 2..]);
        assert_eq!(dec.next_frame().unwrap(), Some(vec![1, 2, 3, 4, 5]));
        assert!(!dec.mid_frame());
    }
}
