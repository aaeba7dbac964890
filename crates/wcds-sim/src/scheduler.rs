use crate::context::{Context, Outgoing};
use crate::{FaultPlan, MessageStats, ProcId, Protocol, SimReport, Time, TraceEvent, TraceLog};
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::mem;
use std::rc::Rc;
use wcds_graph::Graph;
use wcds_rng::{ChaCha12Rng, Rng};

/// How events are ordered in virtual time.
#[derive(Debug, Clone)]
enum ScheduleKind {
    /// Lock-step rounds: a message sent in round `r` is delivered in
    /// round `r + 1`; all deliveries of a round happen "simultaneously"
    /// (processed in deterministic id order). This is the model behind
    /// the paper's `O(n)` time-complexity claims.
    Synchronous,
    /// Per-message delivery with seeded pseudo-random delays in
    /// `1..=max_delay`. Exercises protocols without the lock-step crutch.
    Asynchronous { seed: u64, max_delay: Time },
}

/// Execution schedule plus run options.
///
/// # Examples
///
/// ```
/// use wcds_sim::{FaultPlan, Schedule};
///
/// let s = Schedule::asynchronous(42)
///     .with_fault_plan(FaultPlan::new(1).crash(3))
///     .with_trace(1000);
/// let _ = s;
/// ```
#[derive(Debug, Clone)]
pub struct Schedule {
    kind: ScheduleKind,
    fault: FaultPlan,
    max_events: u64,
    trace_capacity: usize,
    sync_descending: bool,
}

impl Schedule {
    /// The synchronous, lock-step-rounds schedule.
    pub fn synchronous() -> Self {
        Self {
            kind: ScheduleKind::Synchronous,
            fault: FaultPlan::default(),
            max_events: 50_000_000,
            trace_capacity: 0,
            sync_descending: false,
        }
    }

    /// An asynchronous schedule with per-message delays drawn
    /// deterministically from `seed` (uniform in `1..=8`).
    pub fn asynchronous(seed: u64) -> Self {
        Self {
            kind: ScheduleKind::Asynchronous { seed, max_delay: 8 },
            fault: FaultPlan::default(),
            max_events: 50_000_000,
            trace_capacity: 0,
            sync_descending: false,
        }
    }

    /// Overrides the maximum per-message delay of an asynchronous
    /// schedule (no effect on a synchronous one).
    ///
    /// # Panics
    ///
    /// Panics if `max_delay` is zero.
    pub fn with_max_delay(mut self, max_delay: Time) -> Self {
        assert!(max_delay >= 1, "max_delay must be at least 1");
        if let ScheduleKind::Asynchronous { max_delay: d, .. } = &mut self.kind {
            *d = max_delay;
        }
        self
    }

    /// Attaches a fault plan.
    pub fn with_fault_plan(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }

    /// Caps the number of executed events (defence against non-quiescent
    /// protocols). Default: 50 million.
    pub fn with_max_events(mut self, max_events: u64) -> Self {
        self.max_events = max_events;
        self
    }

    /// Enables event tracing, retaining up to `capacity` events in the
    /// report.
    pub fn with_trace(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Processes each synchronous round's deliveries in **descending**
    /// recipient/sender order instead of ascending — an adversarial
    /// ordering for shaking out hidden order dependencies in protocols
    /// that should be confluent. No effect on asynchronous schedules.
    pub fn with_descending_order(mut self) -> Self {
        self.sync_descending = true;
        self
    }
}

/// A simulation failed to complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The protocol was still generating events after the configured
    /// event budget; it is likely non-quiescent (livelocked).
    EventBudgetExhausted {
        /// The budget that was exceeded.
        budget: u64,
    },
    /// An inspector attached via [`Simulator::run_inspected`] rejected
    /// an intermediate state.
    InvariantViolated {
        /// Virtual time at which the invariant failed.
        time: Time,
        /// The inspector's explanation.
        message: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::EventBudgetExhausted { budget } => {
                write!(f, "protocol still active after {budget} events; likely non-quiescent")
            }
            SimError::InvariantViolated { time, message } => {
                write!(f, "invariant violated at time {time}: {message}")
            }
        }
    }
}

impl Error for SimError {}

/// A scheduled event for node `to`: a delivery from the sender named
/// in `msg`, or a timer when `msg` is `None`. The deliveries of one
/// broadcast share its payload.
struct Event<M> {
    to: ProcId,
    msg: Option<(ProcId, Rc<M>)>,
}

/// Where delivery delays come from.
enum Delays {
    /// Synchronous: every message arrives in the next round.
    NextRound,
    /// Asynchronous: one seeded draw in `1..=max` per delivery.
    Seeded { rng: ChaCha12Rng, max: Time },
}

impl Delays {
    fn next(&mut self) -> Time {
        match self {
            Delays::NextRound => 1,
            Delays::Seeded { rng, max } => rng.gen_range(1..=*max),
        }
    }
}

/// One run's event calendar plus what every callback writes to.
///
/// The calendar files each event into a FIFO bucket keyed by its
/// virtual time. Every delay is at least 1, so a bucket is complete
/// before it is drained, and draining the buckets in time order replays
/// the events in `(time, filing order)`.
struct Run<M> {
    calendar: BTreeMap<Time, Vec<Event<M>>>,
    /// Drained buckets, kept for reuse.
    spare: Vec<Vec<Event<M>>>,
    /// The send and timer buffers each callback's [`Context`] borrows.
    outgoing: Vec<Outgoing<M>>,
    timers: Vec<Time>,
    delays: Delays,
    stats: MessageStats,
    trace: TraceLog,
}

impl<M> Run<M> {
    fn file(&mut self, at: Time, event: Event<M>) {
        let spare = &mut self.spare;
        self.calendar.entry(at).or_insert_with(|| spare.pop().unwrap_or_default()).push(event);
    }
}

/// Runs one [`Protocol`] instance per node of a topology graph.
///
/// The simulator owns the per-node protocol states; inspect them with
/// [`Simulator::nodes`] / [`Simulator::node`] after a run to extract the
/// protocol's output.
#[derive(Debug)]
pub struct Simulator<P: Protocol> {
    /// The topology as CSR: node `u`'s sorted neighbors are
    /// `targets[offsets[u]..offsets[u + 1]]`.
    offsets: Vec<usize>,
    targets: Vec<ProcId>,
    nodes: Vec<P>,
}

/// `graph`'s adjacency as CSR offsets and targets.
fn csr(graph: &Graph) -> (Vec<usize>, Vec<ProcId>) {
    let mut offsets = Vec::with_capacity(graph.node_count() + 1);
    let mut targets = Vec::with_capacity(2 * graph.edge_count());
    offsets.push(0);
    for u in graph.nodes() {
        targets.extend(graph.adj(u));
        offsets.push(targets.len());
    }
    (offsets, targets)
}

/// Node `u`'s neighbors in a CSR (none if `u` is out of range).
fn row<'a>(offsets: &[usize], targets: &'a [ProcId], u: ProcId) -> &'a [ProcId] {
    match (offsets.get(u), offsets.get(u + 1)) {
        (Some(&lo), Some(&hi)) => targets.get(lo..hi).unwrap_or_default(),
        _ => &[],
    }
}

impl<P: Protocol> Simulator<P> {
    /// Instantiates the protocol on every node of `graph`.
    ///
    /// The factory receives each node id; use it to inject per-node
    /// configuration (e.g. protocol-level IDs distinct from indices).
    pub fn new<F>(graph: &Graph, factory: F) -> Self
    where
        F: FnMut(ProcId) -> P,
    {
        let (offsets, targets) = csr(graph);
        let nodes = graph.nodes().map(factory).collect();
        Self { offsets, targets, nodes }
    }

    /// The per-node protocol states.
    pub fn nodes(&self) -> &[P] {
        &self.nodes
    }

    /// The protocol state of node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn node(&self, u: ProcId) -> &P {
        &self.nodes[u]
    }

    /// Mutable access to the protocol state of node `u`.
    ///
    /// Intended for harnesses that drive multi-phase protocols: between
    /// `run` calls they may flip phase flags or inject work. Mutating
    /// state *during* a run is impossible (the simulator holds the
    /// borrow).
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn node_mut(&mut self, u: ProcId) -> &mut P {
        &mut self.nodes[u]
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Replaces the topology between runs (node motion): the next `run`
    /// sees the new adjacency while every node keeps its protocol
    /// state. This is how maintenance protocols are driven — change the
    /// topology, re-run, and let nodes react to what their
    /// [`Context::neighbors`] now reports.
    ///
    /// # Panics
    ///
    /// Panics if the node count differs from the original topology's.
    pub fn set_topology(&mut self, graph: &Graph) {
        assert_eq!(
            graph.node_count(),
            self.nodes.len(),
            "topology change must preserve the node count"
        );
        (self.offsets, self.targets) = csr(graph);
    }

    /// Executes the protocol to quiescence under `schedule`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EventBudgetExhausted`] if the protocol is
    /// still producing events past the schedule's event budget.
    pub fn run(&mut self, schedule: Schedule) -> Result<SimReport, SimError> {
        self.run_inspected(schedule, |_, _| Ok(()))
    }

    /// Like [`Simulator::run`], but calls `inspector` on intermediate
    /// global states: once after the starts, then after every round
    /// under the synchronous schedule (rounds with nothing due
    /// included), and after every dequeued event that ran a callback
    /// under the asynchronous one. Returning `Err` aborts the run.
    ///
    /// This is how tests check *safety* invariants (e.g. "no two
    /// adjacent nodes are ever both MIS dominators") rather than only
    /// the final state.
    ///
    /// # Errors
    ///
    /// [`SimError::EventBudgetExhausted`] as for `run`, or
    /// [`SimError::InvariantViolated`] when the inspector rejects.
    pub fn run_inspected<F>(
        &mut self,
        schedule: Schedule,
        mut inspector: F,
    ) -> Result<SimReport, SimError>
    where
        F: FnMut(Time, &[P]) -> Result<(), String>,
    {
        let Schedule { kind, mut fault, max_events, trace_capacity, sync_descending } = schedule;
        let synchronous = matches!(kind, ScheduleKind::Synchronous);
        let delays = match kind {
            ScheduleKind::Synchronous => Delays::NextRound,
            ScheduleKind::Asynchronous { seed, max_delay } => {
                Delays::Seeded { rng: ChaCha12Rng::seed_from_u64(seed), max: max_delay }
            }
        };
        let mut run = Run {
            calendar: BTreeMap::new(),
            spare: Vec::new(),
            outgoing: Vec::new(),
            timers: Vec::new(),
            delays,
            stats: MessageStats::new(self.nodes.len()),
            trace: TraceLog::with_capacity(trace_capacity),
        };
        let mut inspect = |time: Time, nodes: &[P]| {
            inspector(time, nodes).map_err(|message| SimError::InvariantViolated { time, message })
        };
        let mut events: u64 = 0;

        for node in 0..self.nodes.len() {
            if fault.is_crashed(node) {
                continue;
            }
            events += 1;
            self.dispatch(&mut run, node, 0, Callback::Start);
        }
        inspect(0, &self.nodes)?;

        let mut now: Time = 0;
        while let Some((&next, _)) = run.calendar.first_key_value() {
            // the synchronous schedule steps through every round, also
            // the ones with nothing due
            now = if synchronous { now + 1 } else { next };
            let mut due = run.calendar.remove(&now).unwrap_or_default();
            if synchronous {
                // messages before timers, then by (recipient, sender),
                // ascending or descending; the sort is stable, so equal
                // keys keep their filing order
                if sync_descending {
                    due.sort_by_key(|e| {
                        (e.msg.is_none(), Reverse(e.to), e.msg.as_ref().map(|m| Reverse(m.0)))
                    });
                } else {
                    due.sort_by_key(|e| (e.msg.is_none(), e.to, e.msg.as_ref().map(|m| m.0)));
                }
            }
            for event in due.drain(..) {
                // only the asynchronous schedule counts an event
                // addressed to a crashed node
                if synchronous && fault.is_crashed(event.to) {
                    continue;
                }
                events += 1;
                if events > max_events {
                    return Err(SimError::EventBudgetExhausted { budget: max_events });
                }
                if self.handle(&mut run, &mut fault, now, event) && !synchronous {
                    inspect(now, &self.nodes)?;
                }
            }
            if due.capacity() > 0 {
                run.spare.push(due);
            }
            if synchronous {
                inspect(now, &self.nodes)?;
            }
        }
        let rounds = if synchronous { now } else { 0 };
        Ok(SimReport { rounds, time: now, messages: run.stats, events, trace: run.trace })
    }

    /// Runs one dequeued event under the fault plan. Returns whether a
    /// callback ran: none does for a crashed endpoint or a dropped
    /// delivery, two do for a duplicated one.
    fn handle(
        &mut self,
        run: &mut Run<P::Message>,
        fault: &mut FaultPlan,
        now: Time,
        event: Event<P::Message>,
    ) -> bool {
        let Event { to, msg } = event;
        let Some((from, msg)) = msg else {
            if fault.is_crashed(to) {
                return false;
            }
            self.dispatch(run, to, now, Callback::Timer);
            return true;
        };
        if fault.is_crashed(to) || fault.is_crashed(from) {
            return false;
        }
        let copies = fault.delivery_copies();
        if copies == 0 {
            run.trace.push(TraceEvent::Drop { from, to, time: now });
            return false;
        }
        if copies == 2 {
            self.dispatch(run, to, now, Callback::Message(from, P::Message::clone(&msg)));
        }
        self.dispatch(run, to, now, Callback::Message(from, Rc::unwrap_or_clone(msg)));
        true
    }

    /// Runs one callback on `node` and files what it produced: each
    /// broadcast as one delivery per neighbor (adjacency order, one
    /// shared payload) and each unicast as one delivery, each drawing
    /// its delay in that order, then each timer at its instant.
    fn dispatch(
        &mut self,
        run: &mut Run<P::Message>,
        node: ProcId,
        now: Time,
        callback: Callback<P::Message>,
    ) {
        let neighbors = row(&self.offsets, &self.targets, node);
        let Some(state) = self.nodes.get_mut(node) else {
            return;
        };
        let outgoing = mem::take(&mut run.outgoing);
        let mut ctx = Context::new(node, neighbors, now, outgoing, mem::take(&mut run.timers));
        match callback {
            Callback::Start => {
                run.trace.push(TraceEvent::Start { node, time: now });
                state.on_start(&mut ctx);
            }
            Callback::Message(from, msg) => {
                run.stats.record_delivery();
                let kind = P::message_kind(&msg);
                run.trace.push(TraceEvent::Deliver { from, to: node, kind, time: now });
                state.on_message(from, msg, &mut ctx);
            }
            Callback::Timer => {
                run.trace.push(TraceEvent::Timer { node, time: now });
                state.on_timer(&mut ctx);
            }
        }
        let Context { mut outgoing, mut timers, .. } = ctx;
        for out in outgoing.drain(..) {
            let (to, msg) = match out {
                Outgoing::Broadcast(msg) => (None, msg),
                Outgoing::Unicast(to, msg) => (Some(to), msg),
            };
            let kind = P::message_kind(&msg);
            run.stats.record_send(node, kind, P::message_payload(&msg));
            run.trace.push(TraceEvent::Send { from: node, kind, time: now });
            let msg = Rc::new(msg);
            if let Some(to) = to {
                let at = now + run.delays.next();
                run.file(at, Event { to, msg: Some((node, msg)) });
                continue;
            }
            for &to in neighbors {
                let at = now + run.delays.next();
                run.file(at, Event { to, msg: Some((node, Rc::clone(&msg))) });
            }
        }
        for at in timers.drain(..) {
            run.file(at, Event { to: node, msg: None });
        }
        run.outgoing = outgoing;
        run.timers = timers;
    }
}

/// Which callback a dispatch runs.
enum Callback<M> {
    Start,
    Message(ProcId, M),
    Timer,
}
