//! The serving workloads: the topology loaded with `Store::create`,
//! served by `Server::bind(.., Store, ServerConfig::default())` on
//! loopback, and driven from this process by at most two client
//! threads with one connection each.
//!
//! * `route_read`: one closed-loop connection, one request in flight,
//!   mixing 1/128 `Broadcast`, 1/32 `Stats` and `Route` for the rest.
//!   `op_us` is the median `Route` latency and `aux_ms` the median
//!   `Broadcast` latency; `setup_s` covers create, first bundle and the
//!   first broadcast (which derives the broadcast plan). The median
//!   completions per 1 s window are the `e2e.op_rate` diagnostic.
//! * `drift_serve`: connection A runs the same closed loop with routes
//!   only; connection B sends a `MutateBatch` drift tick on a fixed
//!   schedule. `aux_ms` is the median time from a tick's due time until
//!   the reader is first served after the tick committed, which covers
//!   the tick and the rebuild the next read waits for; the tick latency
//!   alone is the `e2e.tick_p50_ms` diagnostic. `setup_s` covers create
//!   and first bundle.
//!
//! Each run also sends one wire `Create` of the workload's own payload
//! under a throwaway name, to show whether the event loop ingests it.

use crate::trace::Tracer;
use crate::{finish_trace, gen, layer_mean, stats, value, Headline, Outcome, Run};
use std::time::{Duration, Instant};
use wcds_bench::perf::peak_rss_mb;
use wcds_core::maintenance::MaintainedWcds;
use wcds_core::partition::PartitionedTwo;
use wcds_geom::Point;
use wcds_graph::{io, DynamicUdg, NodeId, UnitDiskGraph};
use wcds_rng::{ChaCha12Rng, Rng};
use wcds_routing::{BackboneRouter, BroadcastPlan};
use wcds_service::{
    BroadcastOutcome, Client, ErrorCode, Mutation, Request, Response, RouteOutcome, Server,
    ServerConfig, Store, TopologyStats,
};

/// Name of the measured topology.
const NAME: &str = "bench";
/// Name of the wire-ingest probe's throwaway topology.
const PROBE: &str = "wire-create-probe";
/// Average degree of the served topology.
const SERVE_DEGREE: f64 = 10.0;
/// Largest displacement of a drift move from its deployment position.
const DRIFT: f64 = 0.25;
/// Moves per drift tick.
const TICK_MOVES: usize = 16;
/// Read requests the traced run decomposes into per-layer calls.
const LAYER_PROBES: usize = 20_000;
/// Drift ticks the traced run replays on in-process replicas.
const TICK_PROBES: usize = 40;
/// Socket timeout for every benchmark connection.
const TIMEOUT: Duration = Duration::from_secs(30);

struct Topo {
    points: Vec<Point>,
    side: f64,
    payload: String,
}

fn topology(r: &Run) -> Topo {
    let (udg, side) = gen::deployment(r.sizes.serve_n, SERVE_DEGREE, r.seed);
    let payload = io::to_text(udg.graph(), Some(udg.points()));
    Topo {
        points: udg.points().to_vec(),
        side,
        payload,
    }
}

// ---------------------------------------------------------------------
// inputs

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Route,
    Broadcast,
    Stats,
}

/// The seeded read stream. The same seed and salt give the same
/// requests, so the check and the traced run replay a run exactly.
struct ReadMix {
    rng: ChaCha12Rng,
    n: usize,
    mixed: bool,
}

impl ReadMix {
    fn new(seed: u64, n: usize, mixed: bool) -> Self {
        Self {
            rng: ChaCha12Rng::seed_from_u64(seed ^ 0x7265_6164),
            n,
            mixed,
        }
    }

    fn next(&mut self) -> (Kind, Request) {
        let name = NAME.to_string();
        if self.mixed {
            match self.rng.gen_range(0..128u32) {
                0 => {
                    return (
                        Kind::Broadcast,
                        Request::Broadcast {
                            name,
                            source: self.rng.gen_range(0..self.n),
                        },
                    )
                }
                1..=4 => return (Kind::Stats, Request::Stats { name }),
                _ => {}
            }
        }
        let (from, to) = (self.rng.gen_range(0..self.n), self.rng.gen_range(0..self.n));
        (Kind::Route, Request::Route { name, from, to })
    }
}

/// Source of the set-up's first broadcast.
fn first_source(seed: u64, n: usize) -> NodeId {
    ChaCha12Rng::seed_from_u64(seed ^ 0x6263_6173).gen_range(0..n)
}

/// Drift tick `k`: distinct nodes, each placed within ±[`DRIFT`] of its
/// deployment position.
fn tick_moves(seed: u64, k: usize, topo: &Topo) -> Vec<(NodeId, Point)> {
    let mut rng = ChaCha12Rng::seed_from_u64(
        seed ^ 0x7469_636b ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    let n = topo.points.len();
    let mut out: Vec<(NodeId, Point)> = Vec::with_capacity(TICK_MOVES);
    while out.len() < TICK_MOVES.min(n) {
        let u = rng.gen_range(0..n);
        let (dx, dy) = (rng.gen_range(-DRIFT..DRIFT), rng.gen_range(-DRIFT..DRIFT));
        if out.iter().all(|&(v, _)| v != u) {
            out.push((u, gen::nudged(topo.points[u], dx, dy, topo.side)));
        }
    }
    out
}

fn as_mutations(moves: &[(NodeId, Point)]) -> Vec<Mutation> {
    moves
        .iter()
        .map(|&(node, p)| Mutation::Move {
            node,
            x: p.x,
            y: p.y,
        })
        .collect()
}

// ---------------------------------------------------------------------
// responses

/// Digest of a response's wire bytes. `Stats` fields that only the
/// event loop fills in (its syscall count and deepest pipeline) are
/// zeroed first, exactly as the engine byte-identity tests normalise
/// them, so a loopback response and its in-process replay compare equal.
fn digest(resp: &Response) -> u64 {
    match resp {
        Response::StatsOk(s) => {
            let mut s = s.clone();
            s.syscalls = 0;
            s.pipeline_depth_max = 0;
            gen::fnv1a(&Response::StatsOk(s).encode())
        }
        other => gen::fnv1a(&other.encode()),
    }
}

/// The read requests' in-process answer: the same store call and the
/// same response mapping the server's dispatcher applies.
fn serve_in_process(store: &Store, req: &Request) -> Response {
    match req {
        Request::Route { name, from, to } => match store.route(name, *from, *to) {
            Ok(RouteOutcome::Path(path)) => Response::Routed { path },
            Ok(RouteOutcome::Degraded { unreachable }) => Response::Degraded { unreachable },
            Err(e) => e.into(),
        },
        Request::Broadcast { name, source } => match store.broadcast(name, *source) {
            Ok(BroadcastOutcome::Done {
                forwarders,
                informed,
            }) => Response::Broadcasted {
                forwarders,
                informed,
            },
            Ok(BroadcastOutcome::Degraded { unreachable }) => Response::Degraded { unreachable },
            Err(e) => e.into(),
        },
        Request::Stats { name } => match store.stats(name) {
            Ok(stats) => Response::StatsOk(stats),
            Err(e) => e.into(),
        },
        _ => Response::Error {
            code: ErrorCode::Unsupported,
            message: "not a read".into(),
        },
    }
}

fn store_span(kind: Kind) -> &'static str {
    match kind {
        Kind::Route => "store.route",
        Kind::Broadcast => "store.broadcast",
        Kind::Stats => "store.stats",
    }
}

// ---------------------------------------------------------------------
// set-up, wire probe, server

/// Loads the topology into a fresh store and warms it: create, first
/// bundle and, when `first_broadcast` is set, the first broadcast.
fn set_up(
    topo: &Topo,
    first_broadcast: Option<NodeId>,
    t: &mut Tracer,
) -> Result<(Store, f64), String> {
    let start = Instant::now();
    let store = Store::new();
    t.next_request();
    t.span("store.create", |_| store.create(NAME, &topo.payload))
        .map_err(|e| format!("create: {e}"))?;
    t.span("store.first_bundle", |_| store.bundle(NAME))
        .map_err(|e| format!("first bundle: {e}"))?;
    if let Some(source) = first_broadcast {
        t.span("store.broadcast", |_| store.broadcast(NAME, source))
            .map_err(|e| format!("first broadcast: {e}"))?;
    }
    Ok((store, start.elapsed().as_secs_f64()))
}

/// Runs the set-up `setups` times, reporting the mean as `setup_s` (too
/// few for a median with ten samples beyond it), and keeps the last
/// store.
fn set_up_repeated(
    r: &Run,
    topo: &Topo,
    first_broadcast: Option<NodeId>,
    t: &mut Tracer,
    o: &mut Outcome,
) -> Result<Store, String> {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..r.sizes.setups.max(1) {
        drop(kept.take()); // one store alive at a time keeps peak RSS honest
        let (store, secs) = set_up(topo, first_broadcast, t)?;
        o.op(true);
        times.push(secs);
        kept = Some(store);
    }
    o.set_opt("setup_s", stats::mean(&times), times.len());
    kept.ok_or_else(|| "no set-up ran".into())
}

/// Sends the workload's own payload as one wire `Create` under a
/// throwaway name and reports whether the server ingested it. The
/// measured topology never travels this way: it is loaded with
/// `Store::create`, so a server that resets large frames still gets
/// measured serving. An ingested probe is dropped again.
fn wire_create_probe(addr: std::net::SocketAddr, topo: &Topo, o: &mut Outcome) {
    let ingested = Client::connect_with_timeout(addr, TIMEOUT).and_then(|mut c| {
        let created = c.create(PROBE, &topo.payload)?;
        c.drop_topology(PROBE)?;
        Ok(created)
    });
    let note = match &ingested {
        Ok((nodes, edges, _)) => format!("ingested ({nodes} nodes, {edges} edges)"),
        Err(e) => format!("refused: {e}"),
    };
    o.notes.insert(
        "wire_create",
        format!("{} bytes: {note}", topo.payload.len()),
    );
    o.set(
        "eventloop.wire_create_resets",
        if ingested.is_ok() { 0.0 } else { 1.0 },
        1,
    );
}

// ---------------------------------------------------------------------
// closed-loop reads

struct Done {
    kind: Kind,
    start: f64,
    end: f64,
    digest: u64,
}

#[derive(Default)]
struct ReadPass {
    /// Every answered request, error responses included.
    done: Vec<Done>,
    error_responses: u64,
    /// A transport error ended the pass early.
    broken: bool,
}

impl ReadPass {
    fn record(&self, o: &mut Outcome) {
        let broken = u64::from(self.broken);
        o.ops(
            self.done.len() as u64 + broken,
            self.error_responses + broken,
        );
    }
}

/// One closed-loop connection for `seconds` after `origin`: the next
/// request goes out when the previous response is in. Times are seconds
/// since `origin`; digests are taken after each request's clock stops.
fn read_loop(
    client: &mut Client,
    mix: &mut ReadMix,
    origin: Instant,
    seconds: f64,
    t: &mut Tracer,
) -> ReadPass {
    let mut pass = ReadPass::default();
    loop {
        let start = origin.elapsed().as_secs_f64();
        if start >= seconds {
            break;
        }
        let (kind, req) = mix.next();
        t.next_request();
        let resp = t.span("client.request", |_| client.request(&req));
        let end = origin.elapsed().as_secs_f64();
        match resp {
            Ok(resp) => {
                if matches!(resp, Response::Error { .. }) {
                    pass.error_responses += 1;
                }
                pass.done.push(Done {
                    kind,
                    start,
                    end,
                    digest: digest(&resp),
                });
            }
            Err(_) => {
                // a transport error leaves the stream unusable
                pass.broken = true;
                break;
            }
        }
    }
    pass
}

fn latencies(pass: &ReadPass, kind: Kind, scale: f64) -> Vec<f64> {
    stats::sorted(
        &pass
            .done
            .iter()
            .filter(|d| d.kind == kind)
            .map(|d| (d.end - d.start) * scale)
            .collect::<Vec<_>>(),
    )
}

/// The pass's headline: median route latency, median completions per
/// 1 s window, and the median of `aux` (sorted, in ms).
fn read_headline(pass: &ReadPass, seconds: f64, aux: &[f64]) -> Headline {
    let routes = latencies(pass, Kind::Route, 1e6);
    let ends: Vec<f64> = pass.done.iter().map(|d| d.end).collect();
    Headline {
        op_us: value(stats::percentile(&routes, 50.0), routes.len()),
        op_rate: value(
            stats::windowed_rate(&ends, seconds),
            seconds.floor() as usize,
        ),
        aux_ms: value(stats::percentile(aux, 50.0), aux.len()),
    }
}

/// Replays the recorded requests of the seeded stream against `store`
/// in-process (decode → store call → encode) and returns how many
/// responses differ from the recorded digests. The first
/// [`LAYER_PROBES`] requests are traced, one span per call.
fn replay_reads(store: &Store, mut mix: ReadMix, recorded: &[&Done], tracer: &mut Tracer) -> usize {
    let mut mismatches = 0;
    let mut off = Tracer::off();
    for (i, done) in recorded.iter().enumerate() {
        let (kind, req) = mix.next();
        let bytes = req.encode();
        let t = if i < LAYER_PROBES {
            &mut *tracer
        } else {
            &mut off
        };
        t.next_request();
        let resp = t.span("server.request", |t| {
            let decoded = t.span("protocol.decode", |_| Request::decode(&bytes));
            let resp = match decoded {
                Ok(req) => t.span(store_span(kind), |_| serve_in_process(store, &req)),
                Err(e) => Response::Error {
                    code: ErrorCode::BadPayload,
                    message: format!("malformed request: {e}"),
                },
            };
            t.span("protocol.encode", |_| resp.encode());
            resp
        });
        if kind != done.kind || digest(&resp) != done.digest {
            mismatches += 1;
        }
    }
    mismatches
}

// ---------------------------------------------------------------------
// route_read

pub(crate) fn route_read(r: &Run) -> Result<Outcome, String> {
    let topo = topology(r);
    let n = topo.points.len();
    let source = first_source(r.seed, n);
    let mut o = Outcome::default();
    let mut tracer = if r.trace {
        Tracer::on(Instant::now(), 0)
    } else {
        Tracer::off()
    };
    let store = set_up_repeated(r, &topo, Some(source), &mut tracer, &mut o)?;
    // the end-to-end peak is the loaded topology's: the serving-time peak
    // depends on how rebuilds interleave with reads (a quarter apart run
    // to run on drift_serve), so it is the `e2e.serve_peak_rss_mb`
    // diagnostic
    o.set("peak_rss_mb", peak_rss_mb(), 1);

    let server = Server::bind("127.0.0.1:0", store, ServerConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    wire_create_probe(server.local_addr(), &topo, &mut o);
    let mut client = Client::connect_with_timeout(server.local_addr(), TIMEOUT)
        .map_err(|e| format!("connect: {e}"))?;
    let mut mix = ReadMix::new(r.seed, n, true);

    let untraced = read_loop(
        &mut client,
        &mut mix,
        Instant::now(),
        r.seconds,
        &mut Tracer::off(),
    );
    let bcast = |p: &ReadPass| latencies(p, Kind::Broadcast, 1e3);
    let untraced_head = read_headline(&untraced, r.seconds, &bcast(&untraced));
    untraced_head.report(&mut o);
    o.set("e2e.serve_peak_rss_mb", peak_rss_mb(), 1);

    let traced = if r.trace {
        Some(read_loop(
            &mut client,
            &mut mix,
            Instant::now(),
            r.seconds,
            &mut tracer,
        ))
    } else {
        None
    };
    let served_stats = client
        .stats(NAME)
        .map_err(|e| format!("final stats: {e}"))?;
    let served = server.requests_served();
    drop(client);
    server.shutdown();

    let passes: Vec<&ReadPass> = std::iter::once(&untraced).chain(traced.as_ref()).collect();
    for p in &passes {
        p.record(&mut o);
    }

    // check: the loopback responses equal an in-process replay
    let (replica, _) = set_up(&topo, Some(source), &mut Tracer::off())?;
    let recorded: Vec<&Done> = passes.iter().flat_map(|p| p.done.iter()).collect();
    let mismatches = replay_reads(
        &replica,
        ReadMix::new(r.seed, n, true),
        &recorded,
        &mut tracer,
    );
    o.check(
        "route_read: loopback responses equal the in-process replay",
        mismatches == 0,
    );
    o.notes
        .insert("replayed_requests", recorded.len().to_string());

    if let Some(traced) = &traced {
        let traced_head = read_headline(traced, r.seconds, &bcast(traced));
        let routes = latencies(&untraced, Kind::Route, 1e6);
        o.set_opt(
            "e2e.op_p99_us",
            stats::percentile(&routes, 99.0),
            routes.len(),
        );
        let in_process: Vec<f64> = tracer
            .spans()
            .iter()
            .filter(|s| s.name == "server.request")
            .zip(recorded.iter())
            .filter(|(_, d)| d.kind == Kind::Route)
            .map(|(s, _)| s.duration_ns() as f64 / 1e3)
            .collect();
        let in_process_p50 = stats::percentile(&stats::sorted(&in_process), 50.0);
        if let (Some(wire), Some(local)) = (stats::percentile(&routes, 50.0), in_process_p50) {
            o.set(
                "eventloop.residual_us",
                wire - local,
                routes.len().min(in_process.len()),
            );
        }
        o.set(
            "eventloop.syscalls_per_req",
            served_stats.syscalls as f64 / served.max(1) as f64,
            1,
        );
        let lookups = served_stats.cache_hits + served_stats.cache_misses;
        o.set(
            "store.hit_ratio",
            served_stats.cache_hits as f64 / lookups.max(1) as f64,
            lookups as usize,
        );
        served_rebuilds(&mut o, &served_stats);
        read_layers(&replica, &topo, r.seed, recorded.len(), &mut tracer, &mut o)?;
        finish_trace(r, &mut o, &tracer, &untraced_head, &traced_head)?;
    }
    Ok(o)
}

/// Decomposes the read path into its layers' calls, on the replica
/// after the replay (these calls move the store's counters, so they
/// must not run before the replay's `Stats` answers are compared).
fn read_layers(
    store: &Store,
    topo: &Topo,
    seed: u64,
    count: usize,
    t: &mut Tracer,
    o: &mut Outcome,
) -> Result<(), String> {
    let (bundle, _) = store.bundle(NAME).map_err(|e| format!("bundle: {e}"))?;
    let mut mix = ReadMix::new(seed, topo.points.len(), true);
    for _ in 0..count.min(LAYER_PROBES) {
        t.next_request();
        match mix.next().1 {
            Request::Route { from, to, .. } => {
                t.span("store.bundle", |_| store.bundle(NAME))
                    .map_err(|e| format!("bundle: {e}"))?;
                t.span("router.route", |_| bundle.router.route(from, to));
            }
            Request::Broadcast { source, .. } => {
                if let Some(plan) = bundle.plan() {
                    t.span("broadcast.simulate", |_| {
                        plan.simulate(&bundle.graph, source)
                    });
                }
            }
            _ => {}
        }
    }
    for _ in 0..3 {
        t.next_request();
        t.span("broadcast.plan", |_| {
            BroadcastPlan::for_backbone(&bundle.spanner, &bundle.wcds)
        });
        t.span("router.build", |_| {
            BackboneRouter::build(&bundle.graph, &bundle.wcds)
        });
        t.span("spanner.build", |_| {
            bundle.wcds.weakly_induced_subgraph(&bundle.graph)
        });
        let udg = t.span("udg.build", |_| {
            UnitDiskGraph::build(topo.points.clone(), gen::RADIUS)
        });
        t.span("partition.construct", |_| {
            PartitionedTwo::new().construct_parts(&udg)
        });
    }
    o.set(
        "router.state_entries",
        bundle.router.total_state() as f64,
        1,
    );
    layer_mean(o, t, "protocol.decode_us", "protocol.decode", 1e3);
    layer_mean(o, t, "protocol.encode_us", "protocol.encode", 1e3);
    layer_mean(o, t, "store.create_ms", "store.create", 1.0);
    layer_mean(o, t, "store.first_bundle_ms", "store.first_bundle", 1.0);
    layer_mean(o, t, "store.hit_us", "store.bundle", 1e3);
    layer_mean(o, t, "router.route_us", "router.route", 1e3);
    layer_mean(o, t, "router.build_ms", "router.build", 1.0);
    layer_mean(o, t, "broadcast.plan_ms", "broadcast.plan", 1.0);
    layer_mean(o, t, "broadcast.simulate_ms", "broadcast.simulate", 1.0);
    layer_mean(o, t, "spanner.build_ms", "spanner.build", 1.0);
    layer_mean(o, t, "udg.build_ms", "udg.build", 1.0);
    layer_mean(o, t, "partition.construct_ms", "partition.construct", 1.0);
    Ok(())
}

// ---------------------------------------------------------------------
// drift_serve

struct Tick {
    index: usize,
    due: f64,
    sent: f64,
    done: f64,
    epoch: u64,
    applied: u64,
}

#[derive(Default)]
struct TickPass {
    ticks: Vec<Tick>,
    errors: u64,
}

/// Sends drift ticks `first..` on a fixed schedule that starts at
/// `origin` and lasts `seconds`; each tick is built before its due time
/// and timed from it. Times are seconds since `origin`.
fn tick_loop(
    client: &mut Client,
    r: &Run,
    topo: &Topo,
    first: usize,
    origin: Instant,
    t: &mut Tracer,
) -> TickPass {
    let mut pass = TickPass::default();
    let period = r.sizes.tick_period;
    for k in 0..stats::due_count(r.seconds, period) {
        let index = first + k;
        let mutations = as_mutations(&tick_moves(r.seed, index, topo));
        let due = stats::due_time(k, period);
        let now = origin.elapsed().as_secs_f64();
        if due > now {
            std::thread::sleep(Duration::from_secs_f64(due - now));
        }
        let sent = origin.elapsed().as_secs_f64();
        t.next_request();
        let req = Request::MutateBatch {
            name: NAME.into(),
            mutations,
        };
        let resp = t.span("client.mutate_batch", |_| client.request(&req));
        let done = origin.elapsed().as_secs_f64();
        match resp {
            Ok(Response::BatchMutated { epoch, applied, .. }) => pass.ticks.push(Tick {
                index,
                due,
                sent,
                done,
                epoch,
                applied,
            }),
            Ok(_) => pass.errors += 1,
            Err(_) => {
                pass.errors += 1;
                break;
            }
        }
    }
    pass
}

/// One drift pass: the reader and the ticker run for the run's seconds
/// on one clock, each on its own thread and connection.
fn drift_pass(
    addr: std::net::SocketAddr,
    r: &Run,
    topo: &Topo,
    mix: &mut ReadMix,
    first_tick: usize,
    tracers: (&mut Tracer, &mut Tracer),
) -> Result<(ReadPass, TickPass), String> {
    let mut reader =
        Client::connect_with_timeout(addr, TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    let mut ticker =
        Client::connect_with_timeout(addr, TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    let (read_tracer, tick_tracer) = tracers;
    let origin = Instant::now();
    std::thread::scope(|s| {
        let reads = s.spawn(|| read_loop(&mut reader, mix, origin, r.seconds, read_tracer));
        let ticks = s.spawn(|| tick_loop(&mut ticker, r, topo, first_tick, origin, tick_tracer));
        match (reads.join(), ticks.join()) {
            (Ok(reads), Ok(ticks)) => Ok((reads, ticks)),
            _ => Err("a client thread panicked".to_string()),
        }
    })
}

/// The drift pass's headline: the read figures as on `route_read`, and
/// as `aux_ms` the median time from a tick's due time until the reader
/// is first served after the tick committed.
fn drift_headline(reads: &ReadPass, ticks: &TickPass, seconds: f64) -> Headline {
    let served: Vec<(f64, f64)> = reads.done.iter().map(|d| (d.start, d.end)).collect();
    let visible: Vec<f64> = ticks
        .ticks
        .iter()
        .filter_map(|k| stats::visible_after(k.due, k.done, &served))
        .map(|v| v * 1e3)
        .collect();
    read_headline(reads, seconds, &stats::sorted(&visible))
}

pub(crate) fn drift_serve(r: &Run) -> Result<Outcome, String> {
    let topo = topology(r);
    let n = topo.points.len();
    let mut o = Outcome::default();
    let origin = Instant::now();
    let mut tracer = if r.trace {
        Tracer::on(origin, 0)
    } else {
        Tracer::off()
    };
    let store = set_up_repeated(r, &topo, None, &mut tracer, &mut o)?;
    o.set("peak_rss_mb", peak_rss_mb(), 1);

    let server = Server::bind("127.0.0.1:0", store, ServerConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    wire_create_probe(addr, &topo, &mut o);
    let mut mix = ReadMix::new(r.seed, n, false);

    let (reads, ticks) = drift_pass(
        addr,
        r,
        &topo,
        &mut mix,
        0,
        (&mut Tracer::off(), &mut Tracer::off()),
    )?;
    let untraced_head = drift_headline(&reads, &ticks, r.seconds);
    untraced_head.report(&mut o);
    o.set("e2e.serve_peak_rss_mb", peak_rss_mb(), 1);

    let mut passes = vec![(reads, ticks)];
    let mut traced_head = None;
    if r.trace {
        let mut read_tracer = Tracer::on(origin, 1 << 40);
        let mut tick_tracer = Tracer::on(origin, 2 << 40);
        let first = stats::due_count(r.seconds, r.sizes.tick_period);
        let pass = drift_pass(
            addr,
            r,
            &topo,
            &mut mix,
            first,
            (&mut read_tracer, &mut tick_tracer),
        )?;
        traced_head = Some(drift_headline(&pass.0, &pass.1, r.seconds));
        tracer.absorb(read_tracer);
        tracer.absorb(tick_tracer);
        passes.push(pass);
    }

    let mut control =
        Client::connect_with_timeout(addr, TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    let exported = control.export(NAME).map_err(|e| format!("export: {e}"));
    let served_stats = control.stats(NAME).map_err(|e| format!("stats: {e}"));
    drop(control);
    server.shutdown();
    let (exported, served_stats) = (exported?, served_stats?);

    for (reads, ticks) in &passes {
        reads.record(&mut o);
        o.ops(ticks.ticks.len() as u64 + ticks.errors, ticks.errors);
    }

    // check: the served state equals a serial replay of the tick log in
    // commit-epoch order, and the epoch counts every applied move
    let mut log: Vec<&Tick> = passes.iter().flat_map(|(_, t)| t.ticks.iter()).collect();
    log.sort_by_key(|k| k.epoch);
    let moves: Vec<Vec<(NodeId, Point)>> = log
        .iter()
        .map(|k| tick_moves(r.seed, k.index, &topo))
        .collect();
    let mut serial = MaintainedWcds::new(topo.points.clone(), gen::RADIUS);
    for m in moves.iter().flatten() {
        serial.apply_motion(std::slice::from_ref(m));
    }
    let applied: u64 = log.iter().map(|k| k.applied).sum();
    let total_moves = moves.iter().map(Vec::len).sum::<usize>() as u64;
    o.check(
        "drift_serve: final export equals the serial replay",
        exported == io::to_text(serial.graph(), Some(serial.points())),
    );
    let wcds = serial.wcds();
    let spanner = wcds.weakly_induced_subgraph(serial.graph());
    o.check(
        "drift_serve: served WCDS and spanner sizes equal the serial replay's",
        served_stats.mis == wcds.mis_dominators().len() as u64
            && served_stats.bridges == wcds.additional_dominators().len() as u64
            && served_stats.spanner_edges == spanner.edge_count() as u64,
    );
    o.check(
        "drift_serve: epoch equals applied moves",
        served_stats.epoch == total_moves && applied == total_moves,
    );
    drop((serial, wcds, spanner));

    if let Some(traced_head) = traced_head {
        let (reads, ticks) = &passes[0];
        let routes = latencies(reads, Kind::Route, 1e6);
        o.set_opt(
            "e2e.op_p99_us",
            stats::percentile(&routes, 99.0),
            routes.len(),
        );
        let tick_ms: Vec<f64> = ticks
            .ticks
            .iter()
            .map(|k| stats::latency_from_due(k.due, k.done) * 1e3)
            .collect();
        let tick_ms = stats::sorted(&tick_ms);
        o.set_opt(
            "e2e.tick_p50_ms",
            stats::percentile(&tick_ms, 50.0),
            tick_ms.len(),
        );
        let late: Vec<f64> = ticks.ticks.iter().map(|k| (k.sent - k.due) * 1e3).collect();
        o.set_opt(
            "e2e.tick_late_ms",
            stats::percentile(&stats::sorted(&late), 50.0),
            late.len(),
        );
        let lookups = served_stats.cache_hits + served_stats.cache_misses;
        o.set(
            "store.hit_ratio",
            served_stats.cache_hits as f64 / lookups.max(1) as f64,
            lookups as usize,
        );
        served_rebuilds(&mut o, &served_stats);
        o.set(
            "store.lease_conflicts",
            served_stats.lease_conflicts as f64,
            1,
        );
        o.set(
            "store.concurrent_repairs_max",
            served_stats.concurrent_repairs_max as f64,
            1,
        );
        let served = passes
            .iter()
            .map(|(r, t)| r.done.len() + t.ticks.len())
            .sum::<usize>();
        o.set(
            "eventloop.syscalls_per_req",
            served_stats.syscalls as f64 / served.max(1) as f64,
            1,
        );
        drift_layers(&topo, &moves, &mut tracer, &mut o)?;
        finish_trace(r, &mut o, &tracer, &untraced_head, &traced_head)?;
    }
    Ok(o)
}

/// Rebuilds of the served store while it served: its `Stats.rebuilds`
/// less the set-up's first bundle, which `store.first_bundle_ms` covers.
fn served_rebuilds(o: &mut Outcome, served: &TopologyStats) {
    o.set(
        "store.rebuilds",
        served.rebuilds.saturating_sub(1) as f64,
        1,
    );
}

/// Replays the first ticks on in-process replicas, one per layer: a
/// store (mutate_batch, then the next read's bundle), the maintained
/// WCDS, the dynamic UDG, and the router (rebuilt every tick, patched
/// when the tick left the dominators unchanged).
fn drift_layers(
    topo: &Topo,
    moves: &[Vec<(NodeId, Point)>],
    t: &mut Tracer,
    o: &mut Outcome,
) -> Result<(), String> {
    let store = Store::new();
    t.next_request();
    t.span("store.create", |_| store.create(NAME, &topo.payload))
        .map_err(|e| format!("create: {e}"))?;
    t.span("store.first_bundle", |_| store.bundle(NAME))
        .map_err(|e| format!("bundle: {e}"))?;
    let mut maintained = MaintainedWcds::new(topo.points.clone(), gen::RADIUS);
    let mut dynamic = DynamicUdg::new(topo.points.clone(), gen::RADIUS);
    let mut router = BackboneRouter::build(maintained.graph(), &maintained.wcds());
    for tick in moves.iter().take(TICK_PROBES) {
        t.next_request();
        t.count("drift.ticks", 1.0);
        let mutations = as_mutations(tick);
        let out = t
            .span("store.mutate_batch", |_| {
                store.mutate_batch(NAME, &mutations)
            })
            .map_err(|e| format!("mutate_batch: {e}"))?;
        t.count("store.lease_wait_us", out.lease_wait_us as f64);
        let span = if store.is_fresh(NAME) {
            t.count("router.patched_ticks", 1.0);
            "store.bundle"
        } else {
            "store.rebuild"
        };
        t.span(span, |_| store.bundle(NAME))
            .map_err(|e| format!("bundle: {e}"))?;

        let report = t.span("maintenance.repair", |_| maintained.apply_motion(tick));
        t.count("maintenance.touched_nodes", report.touched_nodes as f64);
        t.span("dynamic.splice", |_| dynamic.move_nodes(tick));
        let wcds = maintained.wcds();
        if report.changed() {
            t.count("maintenance.churned_ticks", 1.0);
        } else {
            let g = maintained.graph();
            t.span("router.patch", |_| {
                router.patched(g, &wcds, &report.edges_added, &report.edges_removed)
            });
        }
        router = t.span("router.build", |_| {
            BackboneRouter::build(maintained.graph(), &wcds)
        });
    }
    let ticks = t.counter("drift.ticks");
    let per_tick = |name: &str| t.counter(name) / ticks.max(1.0);
    o.set(
        "router.patch_ratio",
        per_tick("router.patched_ticks"),
        ticks as usize,
    );
    o.set(
        "maintenance.churn_ratio",
        per_tick("maintenance.churned_ticks"),
        ticks as usize,
    );
    o.set(
        "maintenance.touched_nodes",
        per_tick("maintenance.touched_nodes"),
        ticks as usize,
    );
    o.set(
        "store.lease_wait_ms",
        per_tick("store.lease_wait_us") / 1e3,
        ticks as usize,
    );
    o.set("router.state_entries", router.total_state() as f64, 1);
    layer_mean(o, t, "store.create_ms", "store.create", 1.0);
    layer_mean(o, t, "store.first_bundle_ms", "store.first_bundle", 1.0);
    layer_mean(o, t, "store.rebuild_ms", "store.rebuild", 1.0);
    layer_mean(o, t, "store.hit_us", "store.bundle", 1e3);
    layer_mean(o, t, "store.mutate_batch_ms", "store.mutate_batch", 1.0);
    layer_mean(o, t, "maintenance.repair_ms", "maintenance.repair", 1.0);
    layer_mean(o, t, "dynamic.splice_ms", "dynamic.splice", 1.0);
    layer_mean(o, t, "router.patch_ms", "router.patch", 1.0);
    layer_mean(o, t, "router.build_ms", "router.build", 1.0);
    Ok(())
}
