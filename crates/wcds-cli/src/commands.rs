//! Subcommand implementations: parsed [`Command`] → output string.

use crate::args::{Algo, CliError, Command, Model, QueryAction, USAGE};
use std::fmt::Write as _;
use wcds_baselines::{GreedyCds, GreedyWcds, MisTreeCds, WuLiCds};
use wcds_core::algo1::AlgorithmOne;
use wcds_core::algo2::AlgorithmTwo;
use wcds_core::partition::PartitionedTwo;
use wcds_core::postprocess::{prune, PruneOrder};
use wcds_core::spanner::SpannerStats;
use wcds_core::{algo1, algo2, WcdsConstruction};
use wcds_geom::deploy;
use wcds_graph::io::GraphDocument;
use wcds_graph::metrics::GraphMetrics;
use wcds_graph::{domination, io, traversal, UnitDiskGraph};
use wcds_routing::BackboneRouter;
use wcds_service::{
    BroadcastOutcome, Client, ClientError, Request, Response, RouteOutcome, Server,
    ServerConfig, Store,
};
use wcds_sim::Schedule;

impl From<ClientError> for CliError {
    fn from(e: ClientError) -> Self {
        CliError(format!("service: {e}"))
    }
}

/// Executes a parsed command.
///
/// # Errors
///
/// Returns [`CliError`] for I/O failures or command-level problems
/// (disconnected inputs, out-of-range nodes, …).
pub fn execute(cmd: Command) -> Result<String, CliError> {
    match cmd {
        Command::Help => Ok(USAGE.to_string()),
        Command::Generate { model, n, side, seed, output } => generate(model, n, side, seed, &output),
        Command::Stats { input } => stats(&load(&input)?),
        Command::Construct { input, algo, prune } => construct(&load(&input)?, algo, prune),
        Command::Validate { input, set } => validate(&load(&input)?, &set),
        Command::Route { input, from, to } => route(&load(&input)?, from, to),
        Command::Compare { input } => compare(&load(&input)?),
        Command::Render { input, algo, output } => render(&load(&input)?, algo, &output),
        Command::Simulate { input, algo, async_seed } => simulate(&load(&input)?, algo, async_seed),
        Command::Serve { addr, workers } => serve(&addr, workers),
        Command::Query { addr, action, repeat, pipeline } => {
            query(&addr, action, repeat, pipeline)
        }
    }
}

fn load(path: &str) -> Result<GraphDocument, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError(format!("cannot read `{path}`: {e}")))?;
    io::from_text(&text).map_err(|e| CliError(format!("cannot parse `{path}`: {e}")))
}

fn generate(model: Model, n: usize, side: f64, seed: u64, output: &str) -> Result<String, CliError> {
    let points = match model {
        Model::Uniform => deploy::uniform(n, side, side, seed),
        Model::Clustered => deploy::clustered(n, side, side, (n / 40).max(1), side / 12.0, seed),
        Model::Grid => {
            let cols = (n as f64).sqrt().ceil() as usize;
            let rows = n.div_ceil(cols.max(1));
            let pitch = side / cols.max(1) as f64;
            let mut pts = deploy::grid_jitter(cols, rows, pitch, pitch / 4.0, seed);
            pts.truncate(n);
            pts
        }
        Model::Chain => deploy::chain(n, 0.9),
    };
    let udg = UnitDiskGraph::build(points, 1.0);
    let text = io::to_text(udg.graph(), Some(udg.points()));
    if output == "-" {
        return Ok(text);
    }
    std::fs::write(output, &text)?;
    Ok(format!(
        "wrote {} nodes / {} edges to {output} (connected: {})\n",
        udg.node_count(),
        udg.graph().edge_count(),
        traversal::is_connected(udg.graph())
    ))
}

fn stats(doc: &GraphDocument) -> Result<String, CliError> {
    let m = GraphMetrics::compute(&doc.graph, doc.graph.node_count() <= 2000);
    let mut out = format!("{m}\n");
    if let Some(points) = &doc.points {
        let udg = UnitDiskGraph::build(points.clone(), 1.0);
        let _ = writeln!(out, "total link length: {:.2}", udg.total_edge_length());
    }
    Ok(out)
}

fn build_algo(algo: Algo) -> Box<dyn WcdsConstruction> {
    match algo {
        Algo::Algo1 => Box::new(AlgorithmOne::new()),
        Algo::Algo2 => Box::new(AlgorithmTwo::new()),
        Algo::GreedyWcds => Box::new(GreedyWcds::new()),
        Algo::GreedyCds => Box::new(GreedyCds::new()),
        Algo::WuLi => Box::new(WuLiCds::new()),
        Algo::MisTree => Box::new(MisTreeCds::new()),
    }
}

fn require_connected(doc: &GraphDocument) -> Result<(), CliError> {
    if traversal::is_connected(&doc.graph) {
        Ok(())
    } else {
        Err(CliError("input graph is not connected; constructions require connectivity".into()))
    }
}

fn construct(doc: &GraphDocument, algo: Algo, do_prune: bool) -> Result<String, CliError> {
    require_connected(doc)?;
    // Algorithm II takes the threaded bridge sweep (bit-identical
    // output, city-scale speed)
    let construction: Box<dyn WcdsConstruction> = match algo {
        Algo::Algo2 => Box::new(PartitionedTwo::new()),
        _ => build_algo(algo),
    };
    let result = construction.construct(&doc.graph);
    let wcds = if do_prune {
        prune(&doc.graph, &result.wcds, PruneOrder::BridgesFirst)
    } else {
        result.wcds
    };
    let stats = SpannerStats::compute(&doc.graph, &wcds);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "algorithm : {}{}",
        construction.name(),
        if do_prune { " + prune" } else { "" }
    );
    let _ = writeln!(out, "result    : {wcds}");
    let _ = writeln!(out, "valid     : {}", wcds.is_valid(&doc.graph));
    let _ = writeln!(out, "{stats}");
    let _ = writeln!(out, "dominators: {:?}", wcds.nodes());
    Ok(out)
}

fn validate(doc: &GraphDocument, set: &[usize]) -> Result<String, CliError> {
    let g = &doc.graph;
    if let Some(&bad) = set.iter().find(|&&u| u >= g.node_count()) {
        return Err(CliError(format!("node {bad} out of range (n = {})", g.node_count())));
    }
    let mut sorted = set.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let mut out = String::new();
    let _ = writeln!(out, "set                 : {sorted:?}");
    let _ = writeln!(out, "dominating          : {}", domination::is_dominating_set(g, &sorted));
    let _ = writeln!(out, "independent         : {}", domination::is_independent_set(g, &sorted));
    let _ = writeln!(out, "maximal independent : {}", domination::is_maximal_independent_set(g, &sorted));
    let _ = writeln!(out, "weakly-connected DS : {}", domination::is_weakly_connected_dominating_set(g, &sorted));
    let _ = writeln!(out, "connected DS        : {}", domination::is_connected_dominating_set(g, &sorted));
    let undominated = domination::undominated_nodes(g, &sorted);
    if !undominated.is_empty() {
        let _ = writeln!(out, "undominated nodes   : {undominated:?}");
    }
    Ok(out)
}

fn route(doc: &GraphDocument, from: usize, to: usize) -> Result<String, CliError> {
    require_connected(doc)?;
    let g = &doc.graph;
    if from >= g.node_count() || to >= g.node_count() {
        return Err(CliError(format!("endpoint out of range (n = {})", g.node_count())));
    }
    let result = AlgorithmTwo::new().construct(g);
    let router = BackboneRouter::build(g, &result.wcds);
    let path = router
        .route(from, to)
        .ok_or_else(|| CliError("no backbone route (disconnected?)".into()))?;
    let shortest = traversal::hop_distance(g, from, to)
        .ok_or_else(|| CliError("endpoints disconnected".into()))?;
    let mut out = String::new();
    let _ = writeln!(out, "route   : {path:?}");
    let _ = writeln!(out, "hops    : {} (shortest in G: {shortest})", path.len() - 1);
    if shortest > 0 {
        let _ = writeln!(out, "stretch : {:.2}", (path.len() - 1) as f64 / shortest as f64);
    }
    let _ = writeln!(out, "clusterheads: {} -> {}", router.clusterhead(from), router.clusterhead(to));
    Ok(out)
}

fn compare(doc: &GraphDocument) -> Result<String, CliError> {
    require_connected(doc)?;
    let g = &doc.graph;
    let mut out = format!(
        "{:<14} {:>6} {:>6} {:>8} {:>12} {:>9} {:>7}\n",
        "algorithm", "|U|", "MIS", "bridges", "spanner |E'|", "E'/n", "valid"
    );
    for algo in [
        Algo::Algo1,
        Algo::Algo2,
        Algo::GreedyWcds,
        Algo::GreedyCds,
        Algo::WuLi,
        Algo::MisTree,
    ] {
        let construction = build_algo(algo);
        let result = construction.construct(g);
        let stats = SpannerStats::compute(g, &result.wcds);
        let _ = writeln!(
            out,
            "{:<14} {:>6} {:>6} {:>8} {:>12} {:>9.2} {:>7}",
            construction.name(),
            result.wcds.len(),
            result.wcds.mis_dominators().len(),
            result.wcds.additional_dominators().len(),
            stats.spanner_edges,
            stats.edges_per_node(),
            result.wcds.is_valid(g)
        );
    }
    if g.node_count() <= wcds_baselines::exact::EXACT_NODE_LIMIT {
        let opt = wcds_baselines::exact::minimum_wcds(g).len();
        let _ = writeln!(out, "\nexact minimum WCDS: {opt}");
    } else {
        let lb = wcds_baselines::exact::wcds_lower_bound_udg(g);
        let _ = writeln!(out, "\ncertified lower bound (UDG inputs only): {lb}");
    }
    Ok(out)
}

fn render(doc: &GraphDocument, algo: Option<Algo>, output: &str) -> Result<String, CliError> {
    let points = doc
        .points
        .clone()
        .ok_or_else(|| CliError("render needs node positions (`point` lines) in the input".into()))?;
    let udg = UnitDiskGraph::build(points, 1.0);
    let mut scene = wcds_vis::SceneBuilder::new(&udg).background_edges(&doc.graph);
    let caption = match algo {
        Some(a) => {
            require_connected(doc)?;
            let construction = build_algo(a);
            let result = construction.construct(&doc.graph);
            let spanner = result.wcds.weakly_induced_subgraph(&doc.graph);
            scene = scene.highlight_edges(&spanner, "#111111", 1.6).wcds(&result.wcds);
            format!("{} backbone: {}", construction.name(), result.wcds)
        }
        None => format!("unit-disk graph: {} nodes, {} edges", udg.node_count(), doc.graph.edge_count()),
    };
    let svg = scene.caption(caption).render();
    if output == "-" {
        return Ok(svg);
    }
    std::fs::write(output, &svg)?;
    Ok(format!("wrote {output} ({} bytes)\n", svg.len()))
}

fn simulate(doc: &GraphDocument, algo: Algo, async_seed: Option<u64>) -> Result<String, CliError> {
    require_connected(doc)?;
    let g = &doc.graph;
    let mut out = String::new();
    match algo {
        Algo::Algo1 => {
            let run = match async_seed {
                None => algo1::distributed::run_synchronous(g),
                Some(seed) => algo1::distributed::run_asynchronous(g, seed),
            };
            let _ = writeln!(out, "algorithm-1 distributed (leader = {})", run.leader);
            let _ = writeln!(out, "  election : {}", run.election_report);
            let _ = writeln!(out, "  levels   : {}", run.level_report);
            let _ = writeln!(out, "  marking  : {}", run.marking_report);
            let _ = writeln!(out, "  total    : {} messages, time {}", run.total_messages(), run.total_time());
            let _ = writeln!(out, "  result   : {}", run.result.wcds);
            let _ = writeln!(out, "  valid    : {}", run.result.wcds.is_valid(g));
        }
        Algo::Algo2 => {
            let run = match async_seed {
                None => algo2::distributed::run_synchronous(g),
                Some(seed) => algo2::distributed::run(g, Schedule::asynchronous(seed)),
            };
            let _ = writeln!(out, "algorithm-2 distributed");
            let _ = writeln!(out, "  report : {}", run.report);
            let _ = writeln!(out, "  result : {}", run.result.wcds);
            let _ = writeln!(out, "  valid  : {}", run.result.wcds.is_valid(g));
        }
        _ => unreachable!("parser restricts simulate to algo1/algo2"),
    }
    Ok(out)
}

fn serve(addr: &str, workers: usize) -> Result<String, CliError> {
    let config = ServerConfig { workers };
    let handle = Server::bind(addr, Store::new(), config)
        .map_err(|e| CliError(format!("cannot bind `{addr}`: {e}")))?;
    // announced before blocking so scripts know the server is up (and,
    // with port 0, which port it got)
    println!("wcds-service listening on {} ({workers} workers)", handle.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let served = handle.join(); // blocks until a wire shutdown request
    Ok(format!("server stopped after {served} requests\n"))
}

fn query(
    addr: &str,
    action: QueryAction,
    repeat: u64,
    pipeline: bool,
) -> Result<String, CliError> {
    let mut c = Client::connect(addr)
        .map_err(|e| CliError(format!("cannot connect to `{addr}`: {e}")))?;
    if pipeline || repeat > 1 {
        return query_repeated(&mut c, &action, repeat, pipeline);
    }
    query_once(&mut c, action)
}

/// Issues the action `repeat` times — as one pipelined burst when
/// `--pipeline` is set, as sequential round trips otherwise — and
/// reports the aggregate instead of `repeat` copies of the rendering.
fn query_repeated(
    c: &mut Client,
    action: &QueryAction,
    repeat: u64,
    pipeline: bool,
) -> Result<String, CliError> {
    let n = usize::try_from(repeat).map_err(|_| CliError("--repeat too large".into()))?;
    let req = to_request(action)?;
    let start = std::time::Instant::now();
    let responses: Vec<Response> = if pipeline {
        c.pipeline(&vec![req; n])?
    } else {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(c.request(&req)?);
        }
        out
    };
    let elapsed = start.elapsed();
    let errors = responses.iter().filter(|r| matches!(r, Response::Error { .. })).count();
    let rate = if elapsed.as_secs_f64() > 0.0 {
        responses.len() as f64 / elapsed.as_secs_f64()
    } else {
        f64::INFINITY
    };
    let mode = if pipeline { "pipelined" } else { "sequential" };
    Ok(format!(
        "{} responses ({mode}): {} ok, {errors} errors in {elapsed:.2?} ({rate:.0} req/s)\n",
        responses.len(),
        responses.len() - errors,
    ))
}

/// Maps a parsed CLI action to its wire request (`--repeat`/
/// `--pipeline` paths; the one-shot path uses the typed client API).
fn to_request(action: &QueryAction) -> Result<Request, CliError> {
    Ok(match action {
        QueryAction::Ping => Request::Ping,
        QueryAction::List => Request::List,
        QueryAction::Shutdown => Request::Shutdown,
        QueryAction::Create { name, input } => {
            let payload = std::fs::read_to_string(input)
                .map_err(|e| CliError(format!("cannot read `{input}`: {e}")))?;
            Request::Create { name: name.clone(), payload }
        }
        QueryAction::Export { name, .. } => Request::Export { name: name.clone() },
        QueryAction::Construct { name } => Request::Construct { name: name.clone() },
        QueryAction::Route { name, from, to } => {
            Request::Route { name: name.clone(), from: *from, to: *to }
        }
        QueryAction::Broadcast { name, source } => {
            Request::Broadcast { name: name.clone(), source: *source }
        }
        QueryAction::Stats { name } => Request::Stats { name: name.clone() },
        QueryAction::Mutate { name, mutation } => {
            Request::Mutate { name: name.clone(), mutation: mutation.clone() }
        }
        QueryAction::Drop { name } => Request::Drop { name: name.clone() },
        QueryAction::Harden { name, k, m } => {
            Request::Harden { name: name.clone(), k: *k, m: *m }
        }
    })
}

fn query_once(c: &mut Client, action: QueryAction) -> Result<String, CliError> {
    match action {
        QueryAction::Ping => {
            c.ping()?;
            Ok("pong\n".to_string())
        }
        QueryAction::Create { name, input } => {
            let payload = std::fs::read_to_string(&input)
                .map_err(|e| CliError(format!("cannot read `{input}`: {e}")))?;
            let (n, m, mobile) = c.create(&name, &payload)?;
            Ok(format!(
                "created `{name}`: {n} nodes, {m} edges, {}\n",
                if mobile { "mobile" } else { "static" }
            ))
        }
        QueryAction::Export { name, output } => {
            let payload = c.export(&name)?;
            if output == "-" {
                return Ok(payload);
            }
            std::fs::write(&output, &payload)?;
            Ok(format!("wrote {} bytes to {output}\n", payload.len()))
        }
        QueryAction::Construct { name } => {
            let (mis, bridges, spanner_edges, epoch) = c.construct(&name)?;
            Ok(format!(
                "constructed `{name}` @ epoch {epoch}: |MIS| = {mis}, bridges = {bridges}, spanner |E'| = {spanner_edges}\n"
            ))
        }
        QueryAction::Route { name, from, to } => match c.route(&name, from, to)? {
            RouteOutcome::Path(path) => {
                Ok(format!("route   : {path:?}\nhops    : {}\n", path.len().saturating_sub(1)))
            }
            RouteOutcome::Degraded { unreachable } => Ok(format!(
                "degraded: no surviving route {from} → {to} ({unreachable} nodes unreachable)\n"
            )),
        },
        QueryAction::Broadcast { name, source } => match c.broadcast(&name, source)? {
            BroadcastOutcome::Done { forwarders, informed } => Ok(format!(
                "broadcast from {source}: {forwarders} forwarders, {informed} informed\n"
            )),
            BroadcastOutcome::Degraded { unreachable } => Ok(format!(
                "degraded: topology partitioned ({unreachable} nodes unreachable from {source})\n"
            )),
        },
        QueryAction::Harden { name, k, m } => {
            let out = c.harden(&name, k, m)?;
            Ok(format!(
                "hardened `{name}` to ({}, {}): achieved k = {}, {} dominators, spanner |E'| = {} @ epoch {}\n",
                out.k, out.m, out.achieved_k, out.dominators, out.spanner_edges, out.epoch
            ))
        }
        QueryAction::Stats { name } => {
            let s = c.stats(&name)?;
            let mut out = String::new();
            let _ = writeln!(out, "topology     : {name} ({})", if s.mobile { "mobile" } else { "static" });
            let _ = writeln!(out, "nodes/edges  : {} / {}", s.nodes, s.edges);
            let _ = writeln!(out, "epoch        : {} (bundle cached: {})", s.epoch, s.cached);
            let _ = writeln!(out, "backbone     : |MIS| = {}, bridges = {}, spanner |E'| = {}", s.mis, s.bridges, s.spanner_edges);
            let _ = writeln!(out, "cache        : {} hits, {} misses, {} rebuilds", s.cache_hits, s.cache_misses, s.rebuilds);
            let _ = writeln!(out, "batched      : {} mutations", s.batched_mutations);
            if s.hardened_k > 0 {
                let _ = writeln!(out, "resilience   : target ({}, {}), achieved k = {}", s.hardened_k, s.hardened_m, s.achieved_k);
                let _ = writeln!(out, "availability : {} ok, {} degraded, {} unreachable, {} heals", s.routes_ok, s.routes_degraded, s.routes_unreachable, s.heals);
            }
            Ok(out)
        }
        QueryAction::Mutate { name, mutation } => {
            let (epoch, promoted, demoted) = c.mutate(&name, mutation)?;
            Ok(format!(
                "mutated `{name}` → epoch {epoch} (promoted {promoted:?}, demoted {demoted:?})\n"
            ))
        }
        QueryAction::List => {
            let names = c.list()?;
            if names.is_empty() {
                Ok("(no topologies)\n".to_string())
            } else {
                Ok(names.join("\n") + "\n")
            }
        }
        QueryAction::Drop { name } => {
            c.drop_topology(&name)?;
            Ok(format!("dropped `{name}`\n"))
        }
        QueryAction::Shutdown => {
            c.shutdown_server()?;
            Ok("server shutting down\n".to_string())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn temp_path(name: &str) -> String {
        let mut p = std::env::temp_dir();
        p.push(format!("wcds-cli-test-{}-{name}", std::process::id()));
        p.to_string_lossy().into_owned()
    }

    fn run(s: &str) -> Result<String, CliError> {
        execute(parse(&argv(s)).expect("parses"))
    }

    #[test]
    fn generate_then_stats_then_construct() {
        let path = temp_path("pipeline.graph");
        let msg =
            run(&format!("generate --model uniform --n 80 --side 5 --seed 3 -o {path}")).unwrap();
        assert!(msg.contains("80 nodes"));

        let stats = run(&format!("stats -i {path}")).unwrap();
        assert!(stats.contains("n=80"));
        assert!(stats.contains("total link length"));

        let built = run(&format!("construct -i {path} --algo algo2")).unwrap();
        assert!(built.contains("algorithm-2"));
        assert!(built.contains("valid     : true"));

        let pruned = run(&format!("construct -i {path} --algo algo2 --prune")).unwrap();
        assert!(pruned.contains("+ prune"));
        assert!(pruned.contains("valid     : true"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn generate_to_stdout() {
        let text = run("generate --model chain --n 5 -o -").unwrap();
        assert!(text.starts_with("nodes 5"));
        assert!(text.contains("edge 0 1"));
        assert!(text.contains("point 4"));
    }

    #[test]
    fn validate_reports_all_predicates() {
        let path = temp_path("validate.graph");
        run(&format!("generate --model chain --n 5 -o {path}")).unwrap();
        let out = run(&format!("validate -i {path} --set 0,2,4")).unwrap();
        assert!(out.contains("dominating          : true"));
        assert!(out.contains("maximal independent : true"));
        assert!(out.contains("weakly-connected DS : true"));
        assert!(out.contains("connected DS        : false"));

        let bad = run(&format!("validate -i {path} --set 0")).unwrap();
        assert!(bad.contains("dominating          : false"));
        assert!(bad.contains("undominated nodes"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn route_prints_stretch() {
        let path = temp_path("route.graph");
        run(&format!("generate --model chain --n 9 -o {path}")).unwrap();
        let out = run(&format!("route -i {path} --from 0 --to 8")).unwrap();
        assert!(out.contains("route"));
        assert!(out.contains("stretch"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn simulate_both_protocols() {
        let path = temp_path("simulate.graph");
        run(&format!("generate --model uniform --n 40 --side 3 --seed 1 -o {path}")).unwrap();
        let a1 = run(&format!("simulate -i {path} --algo algo1")).unwrap();
        assert!(a1.contains("election"));
        assert!(a1.contains("valid    : true"));
        let a2 = run(&format!("simulate -i {path} --algo algo2 --async-seed 4")).unwrap();
        assert!(a2.contains("valid  : true"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn useful_errors() {
        assert!(run("stats -i /nonexistent/file.graph").unwrap_err().0.contains("cannot read"));
        let path = temp_path("err.graph");
        run(&format!("generate --model uniform --n 30 --side 50 --seed 1 -o {path}")).unwrap();
        // side 50 with 30 nodes is almost surely disconnected
        let err = run(&format!("construct -i {path} --algo algo1")).unwrap_err();
        assert!(err.0.contains("not connected"));
        let err = run(&format!("validate -i {path} --set 999")).unwrap_err();
        assert!(err.0.contains("out of range"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compare_lists_all_algorithms_and_optimum() {
        let path = temp_path("compare.graph");
        run(&format!("generate --model uniform --n 16 --side 2.2 --seed 6 -o {path}")).unwrap();
        // resample until connected (tiny instances can split)
        let mut seed = 6;
        loop {
            let out = run(&format!("construct -i {path} --algo algo2"));
            if out.is_ok() {
                break;
            }
            seed += 1;
            run(&format!("generate --model uniform --n 16 --side 2.2 --seed {seed} -o {path}"))
                .unwrap();
        }
        let out = run(&format!("compare -i {path}")).unwrap();
        for name in ["algorithm-1", "algorithm-2", "greedy-wcds", "greedy-cds", "wu-li", "mis-tree-cds"] {
            assert!(out.contains(name), "missing {name} in:\n{out}");
        }
        assert!(out.contains("exact minimum WCDS"), "{out}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn render_produces_svg() {
        let path = temp_path("render.graph");
        run(&format!("generate --model uniform --n 40 --side 3 --seed 1 -o {path}")).unwrap();
        let svg = run(&format!("render -i {path} -o -")).unwrap();
        assert!(svg.starts_with("<svg"));
        assert!(svg.contains("unit-disk graph"));
        let with_backbone = run(&format!("render -i {path} --algo algo2 -o -")).unwrap();
        assert!(with_backbone.contains("algorithm-2 backbone"));
        // graph files without points cannot be rendered
        let bare = temp_path("render-bare.graph");
        std::fs::write(&bare, "nodes 2\nedge 0 1\n").unwrap();
        let err = run(&format!("render -i {bare} -o -")).unwrap_err();
        assert!(err.0.contains("positions"));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&bare);
    }

    #[test]
    fn help_prints_usage() {
        let out = execute(Command::Help).unwrap();
        assert!(out.contains("USAGE"));
        assert!(out.contains("serve"));
        assert!(out.contains("query"));
    }

    /// The full serve/query session the CI smoke job scripts, run
    /// in-process: serve in a thread, drive it with `wcds query`
    /// invocations, shut it down over the wire, and check the serve
    /// command returns.
    #[test]
    fn serve_and_query_session() {
        // reserve a free port, then hand it to `wcds serve` (the gap is
        // a benign race: nothing else in this test suite binds ports)
        let port = {
            let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            probe.local_addr().unwrap().port()
        };
        let addr = format!("127.0.0.1:{port}");

        let server = {
            let addr = addr.clone();
            std::thread::spawn(move || run(&format!("serve --addr {addr} --workers 2")))
        };
        // wait for the listener to come up
        let mut up = false;
        for _ in 0..100 {
            if std::net::TcpStream::connect(&addr).is_ok() {
                up = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        assert!(up, "server never started listening on {addr}");

        let graph = temp_path("serve-session.graph");
        run(&format!("generate --model uniform --n 50 --side 3.5 --seed 11 -o {graph}")).unwrap();

        assert_eq!(run(&format!("query ping --addr {addr}")).unwrap(), "pong\n");
        let created =
            run(&format!("query create --addr {addr} --name net -i {graph}")).unwrap();
        assert!(created.contains("50 nodes"), "{created}");
        assert!(created.contains("mobile"), "{created}");

        let constructed = run(&format!("query construct --addr {addr} --name net")).unwrap();
        assert!(constructed.contains("epoch 0"), "{constructed}");

        let routed =
            run(&format!("query route --addr {addr} --name net --from 0 --to 49")).unwrap();
        assert!(routed.contains("route"), "{routed}");

        let mutated =
            run(&format!("query mutate --addr {addr} --name net --join 1.0,1.0")).unwrap();
        assert!(mutated.contains("epoch 1"), "{mutated}");

        let rerouted =
            run(&format!("query route --addr {addr} --name net --from 0 --to 50")).unwrap();
        assert!(rerouted.contains("50"), "{rerouted}");

        let stats = run(&format!("query stats --addr {addr} --name net")).unwrap();
        assert!(stats.contains("epoch        : 1"), "{stats}");

        let listed = run(&format!("query list --addr {addr}")).unwrap();
        assert_eq!(listed, "net\n");

        let exported = run(&format!("query export --addr {addr} --name net")).unwrap();
        assert!(exported.starts_with("nodes 51"), "{exported}");

        // errors come back typed, not as hangs or dropped connections
        let err = run(&format!("query stats --addr {addr} --name ghost")).unwrap_err();
        assert!(err.0.contains("not-found"), "{err}");

        assert_eq!(
            run(&format!("query shutdown --addr {addr}")).unwrap(),
            "server shutting down\n"
        );
        let summary = server.join().unwrap().unwrap();
        assert!(summary.contains("server stopped"), "{summary}");
        let _ = std::fs::remove_file(&graph);
    }

    #[test]
    fn every_algorithm_constructs_via_cli() {
        let path = temp_path("algos.graph");
        run(&format!("generate --model uniform --n 60 --side 4 --seed 2 -o {path}")).unwrap();
        for algo in ["algo1", "algo2", "greedy-wcds", "greedy-cds", "wu-li", "mis-tree"] {
            let out = run(&format!("construct -i {path} --algo {algo}")).unwrap();
            assert!(out.contains("valid     : true"), "{algo}: {out}");
        }
        let _ = std::fs::remove_file(&path);
    }
}
