//! Service load generator → `BENCH_service.json`.
//!
//! Runs an in-process `wcds-service` server on a loopback port and
//! hammers it with concurrent client threads over real TCP, measuring
//! per-operation latency (p50/p95/p99), aggregate throughput, and the
//! topology store's cache hit rate under two workload mixes:
//!
//! * **read-heavy** — 1 drift move per 32 requests (a node jitters
//!   around its deployment position, the patchable-repair common
//!   case), shipped as depth-[`PIPELINE_DEPTH`] pipelined bursts
//!   (write the whole burst, then drain the responses): the epoch
//!   cache and the mutation path's bundle patching should absorb
//!   almost everything, and the event loop should answer cache hits
//!   inline, without a thread handoff. Per-request latency
//!   is the burst round-trip divided by its depth — the closed-loop
//!   pipelined convention;
//! * **mutation-heavy** — 1 drift tick per 4 requests, shipped as a
//!   [`Mutation::Move`] × [`BATCH_MOVES`] `MutateBatch` frame: the
//!   store applies each tick under one hold of the topology write lock,
//!   coalescing its moves into one repair, and every applied move
//!   counts as one operation.
//!
//! The wall clock starts at a barrier *after* every load client has
//! connected — connection setup is reported separately
//! (`*_connect_ms`) instead of polluting the latency rows and the
//! throughput denominator. Mutations are joins/moves only (never
//! leaves), so route endpoints sampled from the initial node range
//! stay valid throughout. Every unpipelined latency is the whole
//! request time, including any wait for the topology lock. The
//! mutation-heavy mix is release-gated on the serial-replay oracle:
//! the final export must be byte-identical to replaying the batch log,
//! sorted by commit epoch, one move at a time. At full scale both
//! mixes run and print before any throughput or tail gate is judged,
//! and a failing run lists every missed gate. Pass `--quick` for the
//! CI smoke size.

use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};
use wcds_bench::perf::{write_bench_json, BenchRow};
use wcds_bench::util::{connected_uniform_udg, side_for_avg_degree, Scale};
use wcds_core::maintenance::MaintainedWcds;
use wcds_geom::Point;
use wcds_graph::io;
use wcds_rng::{ChaCha12Rng, Rng};
use wcds_service::protocol::{Request, Response};
use wcds_service::{Client, Mutation, Server, ServerConfig, Store, TopologyStats};

const SEED: u64 = 42;
/// Moves per drift-tick `MutateBatch` frame in the mutation-heavy mix.
const BATCH_MOVES: usize = 16;
/// Requests per pipelined burst in the read-heavy mix.
const PIPELINE_DEPTH: usize = 32;
/// Single-mutation baselines the batched mutation path must beat
/// (BENCH_service.json at the 8-worker full scale).
const BASELINE_MUTATION_HEAVY_OPS_PER_S: f64 = 2871.9;
const BASELINE_MUTATION_HEAVY_P99_US: f64 = 15_796.2;
/// PR-9 worker-pool read-heavy throughput (BENCH_service.json before
/// the event loop); the readiness engine must clear 4× this floor.
const BASELINE_READ_HEAVY_REQ_PER_S: f64 = 23_741.8;
/// Read-heavy tail ceiling under the event loop (µs, amortized).
const FLOOR_READ_HEAVY_P99_US: f64 = 1_000.0;
/// PR-8 mutation-heavy throughput the event loop must not regress.
const FLOOR_MUTATION_HEAVY_OPS_PER_S: f64 = 19_900.0;

struct MixResult {
    wall_ms: f64,
    /// Per-operation latencies (whole request times; pipelined bursts
    /// amortized over their depth).
    latencies_us: Vec<f64>,
    /// Logical operations: reads + applied mutations.
    ops: usize,
    mutations: u64,
    /// Slowest single client connect (excluded from the wall clock).
    connect_ms: f64,
    /// Readiness-engine syscalls issued during this mix.
    syscalls_delta: u64,
    hit_rate: f64,
    stats: TopologyStats,
    /// `(first epoch, moves)` per batch frame — the replay log.
    batch_log: Vec<(u64, Vec<Mutation>)>,
    final_export: String,
}

/// One burst of the read-heavy mix: request `i + t ≡ 0 (mod period)`
/// is a single drift move (the node jitters around its deployment
/// position — the patchable-repair common case, so the published
/// bundle stays hot), one in eight of the rest is a stats probe, everything else
/// routes between random endpoints.
#[allow(clippy::too_many_arguments)] // single call site, positional config
fn read_burst(
    rng: &mut ChaCha12Rng,
    mix: &str,
    pts: &[Point],
    side: f64,
    n: usize,
    t: usize,
    first: usize,
    depth: usize,
    mutation_period: usize,
) -> Vec<Request> {
    (first..first + depth)
        .map(|i| {
            if (i + t).is_multiple_of(mutation_period) {
                let node = rng.gen_range(0..n);
                let jx = (rng.gen::<f64>() - 0.5) * 0.5;
                let jy = (rng.gen::<f64>() - 0.5) * 0.5;
                let home = pts[node];
                let mutation = Mutation::Move {
                    node,
                    x: (home.x + jx).clamp(0.0, side),
                    y: (home.y + jy).clamp(0.0, side),
                };
                Request::Mutate { name: mix.to_string(), mutation }
            } else if rng.gen_range(0..8usize) == 0 {
                Request::Stats { name: mix.to_string() }
            } else {
                Request::Route {
                    name: mix.to_string(),
                    from: rng.gen_range(0..n),
                    to: rng.gen_range(0..n),
                }
            }
        })
        .collect()
}

/// Runs one workload mix against a fresh topology on `addr`:
/// `threads` clients, each issuing `ops` requests, mutating once every
/// `mutation_period` requests — one mutation per slot when
/// `batch_moves` is 0, a `MutateBatch` drift tick otherwise. A
/// non-zero `pipeline_depth` ships the read mix as pipelined bursts.
#[allow(clippy::too_many_arguments)] // single call site, positional config
fn run_mix(
    addr: std::net::SocketAddr,
    mix: &str,
    payload: &str,
    side: f64,
    n: usize,
    threads: usize,
    ops: usize,
    mutation_period: usize,
    batch_moves: usize,
    pipeline_depth: usize,
) -> MixResult {
    let mut admin = Client::connect(addr).expect("admin connect");
    admin.create(mix, payload).expect("create topology");
    // warm the cache so the steady state, not the first build, is measured
    admin.construct(mix).expect("initial construct");
    let syscalls_before = admin.stats(mix).expect("baseline stats").syscalls;
    // deployment positions anchor the read mix's drift moves
    let pts = io::from_text(payload).expect("payload parses").points.expect("mobile payload");

    let latencies: Mutex<Vec<f64>> = Mutex::new(Vec::with_capacity(threads * ops));
    let batch_log: Mutex<Vec<(u64, Vec<Mutation>)>> = Mutex::new(Vec::new());
    let mutations = std::sync::atomic::AtomicU64::new(0);
    let logical_ops = std::sync::atomic::AtomicU64::new(0);
    let connect_us = std::sync::atomic::AtomicU64::new(0);
    // every client connects before the clock starts: connection setup
    // is reported on its own, not smeared into latency or throughput
    let ready = Barrier::new(threads + 1);
    let mut wall_ms = 0.0;
    std::thread::scope(|scope| {
        let mut load_threads = Vec::with_capacity(threads);
        for t in 0..threads {
            let latencies = &latencies;
            let batch_log = &batch_log;
            let mutations = &mutations;
            let logical_ops = &logical_ops;
            let connect_us = &connect_us;
            let ready = &ready;
            let pts = &pts;
            load_threads.push(scope.spawn(move || {
                let mut rng = ChaCha12Rng::seed_from_u64(SEED + 7 * t as u64);
                let dial = Instant::now();
                let mut c = Client::connect_with_timeout(addr, Duration::from_secs(60))
                    .expect("load client connect");
                let dialed = dial.elapsed().as_micros() as u64;
                connect_us.fetch_max(dialed, std::sync::atomic::Ordering::Relaxed);
                ready.wait();
                let mut local = Vec::with_capacity(ops);
                let mut local_ops = 0u64;
                if let Some(bursts) = ops.checked_div(pipeline_depth) {
                    // pipelined read mix: write the burst, drain it,
                    // amortize the round trip over its depth
                    for b in 0..bursts {
                        let burst = read_burst(
                            &mut rng,
                            mix,
                            pts,
                            side,
                            n,
                            t,
                            b * pipeline_depth,
                            pipeline_depth,
                            mutation_period,
                        );
                        let tick = Instant::now();
                        let responses = c.pipeline(&burst).expect("pipelined burst");
                        let per_req =
                            tick.elapsed().as_secs_f64() * 1e6 / pipeline_depth as f64;
                        for resp in &responses {
                            if matches!(resp, Response::Mutated { .. }) {
                                mutations.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            }
                            local.push(per_req);
                        }
                        local_ops += responses.len() as u64;
                    }
                    latencies.lock().unwrap().extend(local);
                    logical_ops.fetch_add(local_ops, std::sync::atomic::Ordering::Relaxed);
                    return;
                }
                for i in 0..ops {
                    if (i + t).is_multiple_of(mutation_period) {
                        if batch_moves > 0 {
                            // drift tick: one frame, batch_moves moves
                            let tick_moves: Vec<Mutation> = (0..batch_moves)
                                .map(|_| Mutation::Move {
                                    node: rng.gen_range(0..n),
                                    x: rng.gen::<f64>() * side,
                                    y: rng.gen::<f64>() * side,
                                })
                                .collect();
                            let tick = Instant::now();
                            let out = c.mutate_batch(mix, &tick_moves).expect("mutate batch");
                            local.push(tick.elapsed().as_secs_f64() * 1e6);
                            assert_eq!(out.applied as usize, batch_moves);
                            local_ops += out.applied;
                            mutations
                                .fetch_add(out.applied, std::sync::atomic::Ordering::Relaxed);
                            batch_log
                                .lock()
                                .unwrap()
                                .push((out.epoch + 1 - out.applied, tick_moves));
                            continue;
                        }
                        let mutation = if rng.gen_range(0..2usize) == 0 {
                            Mutation::Join {
                                x: rng.gen::<f64>() * side,
                                y: rng.gen::<f64>() * side,
                            }
                        } else {
                            Mutation::Move {
                                node: rng.gen_range(0..n),
                                x: rng.gen::<f64>() * side,
                                y: rng.gen::<f64>() * side,
                            }
                        };
                        let tick = Instant::now();
                        c.mutate(mix, mutation).expect("mutate");
                        local.push(tick.elapsed().as_secs_f64() * 1e6);
                        local_ops += 1;
                        mutations.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    } else {
                        let tick = Instant::now();
                        match rng.gen_range(0..8usize) {
                            0 => {
                                c.stats(mix).expect("stats");
                            }
                            _ => {
                                let s = rng.gen_range(0..n);
                                let d = rng.gen_range(0..n);
                                // Unroutable is impossible here: the
                                // deployment is connected and joins/moves
                                // into the region keep route() total only
                                // up to pathological moves, so tolerate it
                                let _ = c.route(mix, s, d);
                            }
                        }
                        local.push(tick.elapsed().as_secs_f64() * 1e6);
                        local_ops += 1;
                    }
                }
                latencies.lock().unwrap().extend(local);
                logical_ops.fetch_add(local_ops, std::sync::atomic::Ordering::Relaxed);
            }));
        }
        ready.wait();
        let start = Instant::now();
        for h in load_threads {
            h.join().expect("load thread");
        }
        wall_ms = start.elapsed().as_secs_f64() * 1000.0;
    });

    let stats = admin.stats(mix).expect("final stats");
    let final_export = admin.export(mix).expect("final export");
    let queries = stats.cache_hits + stats.cache_misses;
    admin.drop_topology(mix).expect("drop topology");
    MixResult {
        wall_ms,
        latencies_us: latencies.into_inner().unwrap(),
        ops: logical_ops.into_inner() as usize,
        mutations: mutations.into_inner(),
        connect_ms: connect_us.into_inner() as f64 / 1000.0,
        syscalls_delta: stats.syscalls.saturating_sub(syscalls_before),
        hit_rate: if queries > 0 { stats.cache_hits as f64 / queries as f64 } else { 0.0 },
        stats,
        batch_log: batch_log.into_inner().unwrap(),
        final_export,
    }
}

/// The serial-replay oracle: sort the batch log by first commit epoch,
/// apply every move one at a time, and demand byte identity with the
/// server's final export.
fn assert_serial_replay(payload: &str, result: &MixResult) {
    let mut log = result.batch_log.clone();
    log.sort_by_key(|&(first, _)| first);
    let mut expect_next = 1u64;
    for (first, moves) in &log {
        assert_eq!(
            *first, expect_next,
            "batch epoch ranges must tile 1..=mutations with no gap or overlap"
        );
        expect_next += moves.len() as u64;
    }
    assert_eq!(expect_next - 1, result.mutations, "log covers every applied mutation");

    let doc = io::from_text(payload).expect("bench payload parses");
    let mut replay =
        MaintainedWcds::new(doc.points.expect("mobile payload"), wcds_service::store::UDG_RADIUS);
    for (_, moves) in &log {
        for m in moves {
            match *m {
                Mutation::Move { node, x, y } => {
                    replay.apply_motion(&[(node, Point::new(x, y))]);
                }
                _ => unreachable!("mutation-heavy mix ships moves only"),
            }
        }
    }
    assert_eq!(
        result.final_export,
        io::to_text(replay.graph(), Some(replay.points())),
        "concurrent batch application diverged from serial replay in commit order"
    );
}

/// The full-scale throughput and tail gates for one mix: a message per
/// missed gate, empty when the mix clears them all.
fn full_scale_gates(mix: &str, throughput: f64, p99: f64) -> Vec<String> {
    let mut missed = Vec::new();
    if mix == "read_heavy" {
        if throughput < 4.0 * BASELINE_READ_HEAVY_REQ_PER_S {
            missed.push(format!(
                "read_heavy {throughput:.1} req/s is below 4× the worker-pool \
                 baseline ({BASELINE_READ_HEAVY_REQ_PER_S} req/s)"
            ));
        }
        if p99 >= FLOOR_READ_HEAVY_P99_US {
            missed.push(format!(
                "read_heavy p99 {p99:.1} µs breaches the event-loop \
                 tail ceiling ({FLOOR_READ_HEAVY_P99_US} µs)"
            ));
        }
    }
    if mix == "mutation_heavy" {
        if throughput < 4.0 * BASELINE_MUTATION_HEAVY_OPS_PER_S {
            missed.push(format!(
                "mutation_heavy {throughput:.1} ops/s is below 4× the single-mutation \
                 baseline ({BASELINE_MUTATION_HEAVY_OPS_PER_S} req/s)"
            ));
        }
        if throughput < FLOOR_MUTATION_HEAVY_OPS_PER_S {
            missed.push(format!(
                "mutation_heavy {throughput:.1} ops/s fell below the \
                 batched-mutation floor ({FLOOR_MUTATION_HEAVY_OPS_PER_S} ops/s)"
            ));
        }
        if p99 >= BASELINE_MUTATION_HEAVY_P99_US {
            missed.push(format!(
                "mutation_heavy p99 {p99:.1} µs regressed past the \
                 single-mutation tail ({BASELINE_MUTATION_HEAVY_P99_US} µs)"
            ));
        }
    }
    missed
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn main() {
    let scale = Scale::from_args();
    let n = scale.pick(80, 300);
    let threads = scale.pick(4, 8);
    // divisible by PIPELINE_DEPTH so bursts tile the op budget exactly
    let ops = scale.pick(96, 800);
    let side = side_for_avg_degree(n, 10.0);

    let udg = connected_uniform_udg(n, side, SEED);
    let payload = io::to_text(udg.graph(), Some(udg.points()));
    let edges = udg.graph().edge_count();

    // executors > client threads + the admin connection, so offloaded
    // mutations never serialize the load generator
    let config = ServerConfig { workers: threads + 2 };
    let handle =
        Server::bind("127.0.0.1:0", Store::new(), config).expect("bind loopback server");
    let addr = handle.local_addr();

    let mut rows = Vec::new();
    let mut checks = Vec::new();
    // throughput and tail gates are judged after both mixes ran, so a
    // slow read mix cannot hide the mutation mix's numbers
    let mut missed: Vec<String> = Vec::new();
    for (mix, mutation_period, batch_moves, pipeline_depth) in [
        ("read_heavy", 32usize, 0usize, PIPELINE_DEPTH),
        ("mutation_heavy", 4, BATCH_MOVES, 0),
    ] {
        let result = run_mix(
            addr,
            mix,
            &payload,
            side,
            n,
            threads,
            ops,
            mutation_period,
            batch_moves,
            pipeline_depth,
        );
        let requests = result.latencies_us.len();
        assert_eq!(requests, threads * ops, "{mix}: lost requests");
        assert_eq!(
            result.stats.epoch, result.mutations,
            "{mix}: epoch must count exactly the applied mutations"
        );
        if batch_moves > 0 {
            assert_serial_replay(&payload, &result);
            assert_eq!(
                result.stats.batched_mutations, result.mutations,
                "{mix}: every mutation arrived batched"
            );
        }

        let mut sorted = result.latencies_us.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        rows.push(BenchRow::new(mix, n, edges, threads, result.wall_ms, result.ops));
        checks.push((format!("{mix}_p50_us"), format!("{:.1}", percentile(&sorted, 0.50))));
        checks.push((format!("{mix}_p95_us"), format!("{:.1}", percentile(&sorted, 0.95))));
        checks.push((format!("{mix}_p99_us"), format!("{:.1}", percentile(&sorted, 0.99))));
        checks.push((format!("{mix}_cache_hit_rate"), format!("{:.4}", result.hit_rate)));
        checks.push((format!("{mix}_mutations"), format!("{}", result.mutations)));
        checks.push((format!("{mix}_connect_ms"), format!("{:.2}", result.connect_ms)));
        checks.push((
            format!("{mix}_syscalls_per_req"),
            format!("{:.2}", result.syscalls_delta as f64 / requests as f64),
        ));
        checks.push((
            format!("{mix}_snapshot_reads"),
            format!("{}", result.stats.snapshot_reads),
        ));
        checks.push((
            format!("{mix}_pipeline_depth_max"),
            format!("{}", result.stats.pipeline_depth_max),
        ));
        checks.push((
            format!("{mix}_batched_mutations"),
            format!("{}", result.stats.batched_mutations),
        ));

        if scale == Scale::Full {
            let throughput = rows.last().expect("row just pushed").throughput;
            let p99 = percentile(&sorted, 0.99);
            missed.extend(full_scale_gates(mix, throughput, p99));
        }
    }
    checks.push(("epochs_match_mutations".to_string(), "true".to_string()));
    checks.push(("batch_replay_matches_serial".to_string(), "true".to_string()));

    let mut shutdown = Client::connect(addr).expect("shutdown connect");
    shutdown.shutdown_server().expect("graceful shutdown");
    let served = handle.join();
    checks.push(("requests_served".to_string(), format!("{served}")));

    for r in &rows {
        println!(
            "{:<16} n={:<4} threads={:<2} {:>9.1} ms  {:>10.0} ops/s",
            r.name, r.n, r.threads, r.wall_ms, r.throughput
        );
    }
    for (k, v) in &checks {
        println!("  {k} = {v}");
    }
    assert!(
        missed.is_empty(),
        "{} full-scale gate(s) missed:\n  {}",
        missed.len(),
        missed.join("\n  ")
    );
    write_bench_json(scale, "BENCH_service.json", "service", &rows, &checks);
}

