//! Deterministic discrete-event simulator for distributed message-passing
//! protocols on (unit-disk) graph topologies.
//!
//! The paper's algorithms are *distributed*: each node runs the same local
//! rules, knows only its 1-hop neighborhood, and communicates by radio
//! broadcast. This crate provides that execution model:
//!
//! * [`Protocol`] — a per-node state machine (`on_start`, `on_message`,
//!   `on_timer`);
//! * [`Context`] — the node's view of the world: its id, its neighbor ids,
//!   and the send primitives. **Positions are never exposed** — the
//!   spanners built on top are "position-less" by construction;
//! * [`Simulator`] — runs one protocol instance per node under a
//!   [`Schedule`]: lock-step synchronous rounds (the model behind the
//!   paper's `O(n)` time bounds) or asynchronous per-message delivery with
//!   seeded pseudo-random delays;
//! * [`SimReport`] / [`MessageStats`] — per-node and per-kind transmission
//!   counts (one *local broadcast* = one charged message, matching the
//!   paper's accounting), plus the virtual completion time;
//! * [`FaultPlan`] — crash/drop/duplicate fault injection for robustness
//!   tests.
//!
//! Runs are deterministic: same topology + same seed + same schedule ⇒
//! identical traces, bit for bit.
//!
//! # Examples
//!
//! A one-shot flooding protocol:
//!
//! ```
//! use wcds_graph::generators;
//! use wcds_sim::{Context, Protocol, Schedule, Simulator};
//!
//! #[derive(Debug, Default)]
//! struct Flood {
//!     informed: bool,
//! }
//!
//! impl Protocol for Flood {
//!     type Message = ();
//!
//!     fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
//!         if ctx.id() == 0 {
//!             self.informed = true;
//!             ctx.broadcast(());
//!         }
//!     }
//!
//!     fn on_message(&mut self, _from: usize, _msg: (), ctx: &mut Context<'_, ()>) {
//!         if !self.informed {
//!             self.informed = true;
//!             ctx.broadcast(());
//!         }
//!     }
//! }
//!
//! let g = generators::path(10);
//! let mut sim = Simulator::new(&g, |_| Flood::default());
//! let report = sim.run(Schedule::synchronous()).unwrap();
//! assert!(sim.nodes().iter().all(|n| n.informed));
//! assert!(report.messages.total() == 10);
//! ```

mod context;
mod fault;
mod scheduler;
mod stats;
mod trace;

pub use context::Context;
pub use fault::FaultPlan;
pub use scheduler::{Schedule, SimError, Simulator};
pub use stats::{MessageStats, SimReport};
pub use trace::{TraceEvent, TraceLog};

/// Identifier of a process (node) in a simulation.
///
/// Equals the [`wcds_graph::NodeId`] of the node in the topology graph.
pub type ProcId = usize;

/// Virtual time. Synchronous runs count rounds; asynchronous runs count
/// abstract delay units.
pub type Time = u64;

/// A per-node distributed protocol.
///
/// One value of the implementing type is instantiated per node; the
/// simulator drives it through the callbacks. A node may only communicate
/// through the [`Context`] it is handed — the type system keeps protocols
/// honest about what a radio node can know.
///
/// Quiescence (no messages or timers in flight, after every node has
/// started) ends the run; protocols do not signal termination explicitly,
/// mirroring how the paper's algorithms simply stop sending.
pub trait Protocol {
    /// The message type exchanged between nodes.
    type Message: Clone + std::fmt::Debug;

    /// Called once at simulation start.
    fn on_start(&mut self, ctx: &mut Context<'_, Self::Message>);

    /// Called for each delivered message.
    fn on_message(&mut self, from: ProcId, msg: Self::Message, ctx: &mut Context<'_, Self::Message>);

    /// Called when a timer set through [`Context::set_timer`] fires.
    fn on_timer(&mut self, _ctx: &mut Context<'_, Self::Message>) {}

    /// A short label for a message, used for per-kind statistics
    /// (e.g. `"GRAY"`, `"BLACK"`). Defaults to a single bucket.
    fn message_kind(_msg: &Self::Message) -> &'static str {
        "msg"
    }

    /// The abstract payload size of a message (e.g. list entries), used
    /// for bandwidth accounting. The paper's complexity results count
    /// *messages*; payload accounting exposes that some of Algorithm
    /// II's messages carry `O(Δ)`-bounded lists. Defaults to 1.
    fn message_payload(_msg: &Self::Message) -> u64 {
        1
    }
}
