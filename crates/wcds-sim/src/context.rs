use crate::{ProcId, Time};

/// What one send primitive produced: a local broadcast or a unicast.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Outgoing<M> {
    /// Delivered to every 1-hop neighbor; charged as **one** message
    /// (radio broadcast).
    Broadcast(M),
    /// Delivered to a single neighbor; also one message.
    Unicast(ProcId, M),
}

/// A node's window onto the network during a callback.
///
/// The context exposes exactly what the paper allows a node to know:
/// its own identifier, the identifiers of its 1-hop neighbors, and the
/// current virtual time. Sending is buffered; the simulator flushes the
/// buffer when the callback returns and hands the emptied buffers to
/// the next callback.
#[derive(Debug)]
pub struct Context<'a, M> {
    id: ProcId,
    neighbors: &'a [ProcId],
    now: Time,
    pub(crate) outgoing: Vec<Outgoing<M>>,
    pub(crate) timers: Vec<Time>,
}

impl<'a, M> Context<'a, M> {
    /// A context writing into the given (empty) send and timer buffers.
    pub(crate) fn new(
        id: ProcId,
        neighbors: &'a [ProcId],
        now: Time,
        outgoing: Vec<Outgoing<M>>,
        timers: Vec<Time>,
    ) -> Self {
        debug_assert!(outgoing.is_empty() && timers.is_empty(), "buffers must be drained");
        Self { id, neighbors, now, outgoing, timers }
    }

    /// This node's identifier.
    #[inline]
    pub fn id(&self) -> ProcId {
        self.id
    }

    /// The sorted identifiers of this node's 1-hop neighbors.
    #[inline]
    pub fn neighbors(&self) -> &[ProcId] {
        self.neighbors
    }

    /// Number of neighbors.
    #[inline]
    pub fn degree(&self) -> usize {
        self.neighbors.len()
    }

    /// Whether `other` is a 1-hop neighbor.
    pub fn is_neighbor(&self, other: ProcId) -> bool {
        self.neighbors.binary_search(&other).is_ok()
    }

    /// Current virtual time (round number under the synchronous schedule).
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Broadcasts `msg` to every 1-hop neighbor.
    ///
    /// Charged as **one** transmitted message regardless of degree — this
    /// is the radio model the paper's `O(n)` message bounds assume ("each
    /// node sends only a constant number of messages").
    pub fn broadcast(&mut self, msg: M) {
        self.outgoing.push(Outgoing::Broadcast(msg));
    }

    /// Sends `msg` to the single neighbor `to`; charged as one message.
    ///
    /// # Panics
    ///
    /// Panics if `to` is not a 1-hop neighbor — a radio cannot address a
    /// node it cannot hear.
    pub fn send(&mut self, to: ProcId, msg: M) {
        assert!(
            self.is_neighbor(to),
            "node {} cannot unicast to non-neighbor {to}",
            self.id
        );
        self.outgoing.push(Outgoing::Unicast(to, msg));
    }

    /// Schedules [`crate::Protocol::on_timer`] to fire after `delay`
    /// time units (at least 1).
    pub fn set_timer(&mut self, delay: Time) {
        self.timers.push(self.now + delay.max(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_reflect_construction() {
        let nbrs = [1, 4, 7];
        let ctx: Context<'_, ()> = Context::new(3, &nbrs, 5, Vec::new(), Vec::new());
        assert_eq!(ctx.id(), 3);
        assert_eq!(ctx.degree(), 3);
        assert_eq!(ctx.now(), 5);
        assert!(ctx.is_neighbor(4));
        assert!(!ctx.is_neighbor(3));
    }

    #[test]
    fn broadcast_buffers_one_entry() {
        let nbrs = [1, 2];
        let mut ctx: Context<'_, u8> = Context::new(0, &nbrs, 0, Vec::new(), Vec::new());
        ctx.broadcast(9);
        assert_eq!(ctx.outgoing.len(), 1);
        assert_eq!(ctx.outgoing[0], Outgoing::Broadcast(9));
    }

    #[test]
    fn unicast_to_neighbor_ok() {
        let nbrs = [2];
        let mut ctx: Context<'_, u8> = Context::new(0, &nbrs, 0, Vec::new(), Vec::new());
        ctx.send(2, 7);
        assert_eq!(ctx.outgoing[0], Outgoing::Unicast(2, 7));
    }

    #[test]
    #[should_panic(expected = "non-neighbor")]
    fn unicast_to_stranger_panics() {
        let nbrs = [2];
        let mut ctx: Context<'_, u8> = Context::new(0, &nbrs, 0, Vec::new(), Vec::new());
        ctx.send(3, 7);
    }

    #[test]
    fn timer_fires_strictly_later() {
        let nbrs: [ProcId; 0] = [];
        let mut ctx: Context<'_, ()> = Context::new(0, &nbrs, 10, Vec::new(), Vec::new());
        ctx.set_timer(0);
        ctx.set_timer(5);
        assert_eq!(ctx.timers, vec![11, 15]);
    }
}
