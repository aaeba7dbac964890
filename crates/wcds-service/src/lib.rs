//! Backbone-as-a-service: serve WCDS backbones over TCP.
//!
//! This crate turns the static pipeline (`wcds-core` construction,
//! `wcds-routing` backbone routing, `wcds-core::maintenance` mobility)
//! into a long-running concurrent service:
//!
//! * [`protocol`] — a versioned, length-prefixed binary wire protocol.
//!   Every message decodes totally: malformed bytes produce a typed
//!   [`protocol::WireError`], never a panic, and length prefixes are
//!   validated before allocation.
//! * [`store`] — an epoch-cached topology store. Named topologies live
//!   in one `RwLock`ed name map; each carries an epoch counter bumped
//!   by every mutation and a lazily built artifact bundle (Algorithm II
//!   WCDS + spanner + routing tables) stamped with its build epoch and
//!   published in its own `RwLock`ed slot, apart from the topology
//!   lock. The slot is written only under the topology write lock, so
//!   a read is a hit when the bundle's epoch equals the epoch atomic —
//!   never waiting on a repair — and a mutation that keeps every
//!   dominator publishes a patched bundle in the same hold that
//!   advances the epoch.
//! * [`server`] — the TCP front end: one **readiness event loop**
//!   (epoll via raw syscalls, nonblocking sockets, per-connection
//!   incremental framing, request pipelining, write backpressure) with
//!   a small executor pool for mutations and cache rebuilds. It needs
//!   x86_64 or aarch64 Linux; elsewhere [`Server::bind`] fails with
//!   `Unsupported`.
//! * [`client`] — a blocking client with one typed method per request,
//!   plus a pipelined mode (send N frames, drain N responses in order).
//!
//! The crate is dependency-free beyond the workspace compute crates:
//! `std::net` + `std::thread` only (DESIGN.md §7).
//!
//! # Quick start
//!
//! ```
//! use wcds_service::{Client, RouteOutcome, Server, ServerConfig, Store};
//!
//! let handle = Server::bind("127.0.0.1:0", Store::new(), ServerConfig::default()).unwrap();
//! let mut client = Client::connect(handle.local_addr()).unwrap();
//! client.create("demo", "nodes 3\nedge 0 1\nedge 1 2\n").unwrap();
//! let RouteOutcome::Path(path) = client.route("demo", 0, 2).unwrap() else {
//!     panic!("connected topology must route");
//! };
//! assert_eq!(path.first(), Some(&0));
//! assert_eq!(path.last(), Some(&2));
//! client.shutdown_server().unwrap();
//! handle.join(); // returns once every server thread has exited
//! ```

pub mod client;
mod eventloop;
pub mod protocol;
// Audited unsafe island: dependency-free epoll/eventfd bindings need
// raw `asm!` syscalls (DESIGN.md §8 — the service crate links no FFI).
// Confined to `sys`; everything above it is safe code.
#[allow(unsafe_code)]
mod sys;
pub mod server;
pub mod store;

pub use client::{Client, ClientError};
pub use protocol::{ErrorCode, Mutation, Request, Response, TopologyStats, WireError};
pub use server::{Server, ServerConfig, ServerHandle};
pub use store::{
    BroadcastOutcome, HardenOutcome, ResilientSummary, RouteOutcome, Store, StoreError,
};
