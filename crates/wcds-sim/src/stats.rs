use crate::{ProcId, Time, TraceLog};
use std::collections::BTreeMap;
use std::fmt;

/// Per-node and per-kind message transmission counters.
///
/// One local broadcast or unicast = one counted message, matching the
/// paper's accounting ("each node sends only a constant number of
/// messages" ⇒ `O(n)` messages total).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MessageStats {
    per_node: Vec<u64>,
    per_kind: BTreeMap<&'static str, u64>,
    payload_per_kind: BTreeMap<&'static str, u64>,
    deliveries: u64,
}

impl MessageStats {
    pub(crate) fn new(n: usize) -> Self {
        Self {
            per_node: vec![0; n],
            per_kind: BTreeMap::new(),
            payload_per_kind: BTreeMap::new(),
            deliveries: 0,
        }
    }

    pub(crate) fn record_send(&mut self, from: ProcId, kind: &'static str, payload: u64) {
        self.per_node[from] += 1;
        *self.per_kind.entry(kind).or_insert(0) += 1;
        *self.payload_per_kind.entry(kind).or_insert(0) += payload;
    }

    pub(crate) fn record_delivery(&mut self) {
        self.deliveries += 1;
    }

    /// Total messages transmitted across all nodes.
    pub fn total(&self) -> u64 {
        self.per_node.iter().sum()
    }

    /// Messages transmitted by node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn sent_by(&self, u: ProcId) -> u64 {
        self.per_node[u]
    }

    /// The maximum number of messages any single node transmitted.
    pub fn max_per_node(&self) -> u64 {
        self.per_node.iter().copied().max().unwrap_or(0)
    }

    /// Messages of a given kind (as labelled by
    /// [`crate::Protocol::message_kind`]).
    pub fn of_kind(&self, kind: &str) -> u64 {
        self.per_kind.get(kind).copied().unwrap_or(0)
    }

    /// Iterator over `(kind, count)` pairs in kind order.
    pub fn kinds(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.per_kind.iter().map(|(&k, &v)| (k, v))
    }

    /// Total point-to-point deliveries (a broadcast to `d` neighbors
    /// counts `d` here but 1 in [`MessageStats::total`]).
    pub fn deliveries(&self) -> u64 {
        self.deliveries
    }

    /// Total abstract payload transmitted (see
    /// [`crate::Protocol::message_payload`]).
    pub fn total_payload(&self) -> u64 {
        self.payload_per_kind.values().sum()
    }

    /// Payload transmitted under a given message kind.
    pub fn payload_of_kind(&self, kind: &str) -> u64 {
        self.payload_per_kind.get(kind).copied().unwrap_or(0)
    }
}

impl fmt::Display for MessageStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} msgs (", self.total())?;
        let mut first = true;
        for (k, v) in &self.per_kind {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{k}: {v}")?;
            first = false;
        }
        write!(f, ")")
    }
}

/// The outcome of a completed simulation.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Synchronous rounds executed (0 for asynchronous runs).
    pub rounds: u64,
    /// Final virtual time (equals `rounds` under the synchronous
    /// schedule; the last delivery instant under the asynchronous one).
    pub time: Time,
    /// Message counters.
    pub messages: MessageStats,
    /// Number of events the scheduler handled: one per start plus one
    /// per dequeued delivery or timer — a proxy for total computation,
    /// not a count of callbacks. A dropped delivery counts and runs no
    /// callback; a duplicated one counts once and runs two. The
    /// asynchronous schedule also counts a delivery addressed to a
    /// crashed node, which the synchronous one skips uncounted.
    pub events: u64,
    /// The event trace, if the schedule enabled tracing (empty
    /// otherwise).
    pub trace: TraceLog,
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "time {} · {} · {} events", self.time, self.messages, self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = MessageStats::new(3);
        s.record_send(0, "A", 1);
        s.record_send(0, "B", 1);
        s.record_send(2, "A", 1);
        assert_eq!(s.total(), 3);
        assert_eq!(s.sent_by(0), 2);
        assert_eq!(s.sent_by(1), 0);
        assert_eq!(s.of_kind("A"), 2);
        assert_eq!(s.of_kind("C"), 0);
        assert_eq!(s.max_per_node(), 2);
    }

    #[test]
    fn kinds_iterates_sorted() {
        let mut s = MessageStats::new(1);
        s.record_send(0, "Z", 1);
        s.record_send(0, "A", 1);
        let kinds: Vec<_> = s.kinds().collect();
        assert_eq!(kinds, vec![("A", 1), ("Z", 1)]);
    }

    #[test]
    fn display_nonempty() {
        let mut s = MessageStats::new(1);
        s.record_send(0, "GRAY", 1);
        assert!(format!("{s}").contains("GRAY"));
        let r =
            SimReport { rounds: 2, time: 2, messages: s, events: 4, trace: TraceLog::disabled() };
        assert!(!format!("{r}").is_empty());
    }

    #[test]
    fn deliveries_separate_from_sends() {
        let mut s = MessageStats::new(2);
        s.record_send(0, "m", 1);
        s.record_delivery();
        s.record_delivery();
        assert_eq!(s.total(), 1);
        assert_eq!(s.deliveries(), 2);
    }
}
