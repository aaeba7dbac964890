//! `sim_algo2`: distributed Algorithm II on the discrete-event
//! simulator — the only workload that runs `wcds-sim`.
//!
//! * `setup_s`: building the simulated network's unit-disk graph from
//!   the deployment (mean of the set-ups).
//! * `op_us`: one `run_asynchronous` with the run's schedule seed. A
//!   run takes about a second, too few fit in a run for a median with
//!   ten samples beyond it, so this is the mean.
//! * `e2e.op_rate` (traced diagnostic): simulated events per second of
//!   `run_asynchronous`.
//! * `aux_ms`: one `run_synchronous` on the same graph (mean).

use crate::trace::Tracer;
use crate::{finish_trace, gen, layer_mean, stats, value, Headline, Outcome, Run};
use std::time::Instant;
use wcds_bench::perf::peak_rss_mb;
use wcds_core::algo2::distributed::{run_asynchronous, run_synchronous, DistributedRun};
use wcds_core::Wcds;
use wcds_graph::{domination, Graph, UnitDiskGraph};

/// Average degree of the simulated network.
const SIM_DEGREE: f64 = 12.0;

/// Message kinds of Algorithm II, as the simulator labels them, with
/// the metric each is reported under.
const KINDS: [(&str, &str); 7] = [
    ("MIS-DOMINATOR", "sim.messages.mis-dominator"),
    ("GRAY", "sim.messages.gray"),
    ("1-HOP-DOMINATORS", "sim.messages.1-hop-dominators"),
    ("2-HOP-DOMINATORS", "sim.messages.2-hop-dominators"),
    ("SELECTION", "sim.messages.selection"),
    ("ADDITIONAL-DOMINATOR", "sim.messages.additional-dominator"),
    ("RELAY", "sim.messages.relay"),
];

pub(crate) fn sim_algo2(r: &Run) -> Result<Outcome, String> {
    let s = &r.sizes;
    let (udg, _) = gen::deployment(s.sim_n, SIM_DEGREE, r.seed);
    let points = udg.points().to_vec();
    drop(udg);
    // one fixed schedule per workload seed
    let schedule_seed = r.seed ^ 0x5c4e_d01e;

    let mut o = Outcome::default();
    let mut tracer = if r.trace {
        Tracer::on(Instant::now(), 0)
    } else {
        Tracer::off()
    };
    let mut setup = Vec::new();
    let mut net = None;
    for _ in 0..s.setups.max(1) {
        drop(net.take());
        tracer.next_request();
        let start = Instant::now();
        net = Some(tracer.span("udg.build", |_| {
            UnitDiskGraph::build(points.clone(), gen::RADIUS)
        }));
        setup.push(start.elapsed().as_secs_f64());
        o.op(true);
    }
    let net = net.ok_or("no set-up ran")?;
    let g = net.graph();
    o.set_opt("setup_s", stats::mean(&setup), setup.len());

    let mut first: Option<Wcds> = None;
    let untraced = sim_loop(r, g, schedule_seed, &mut Tracer::off(), &mut o, &mut first);
    untraced.report(&mut o);
    o.set("peak_rss_mb", peak_rss_mb(), 1);

    if r.trace {
        let traced = sim_loop(r, g, schedule_seed, &mut tracer, &mut o, &mut first);
        let runs = tracer.counter("sim.runs").max(1.0);
        let per_run = |name: &str| tracer.counter(name) / runs;
        let secs = tracer.self_ms("sim.run_asynchronous");
        o.set("sim.events", per_run("sim.events"), secs.len());
        o.set_opt(
            "sim.events_per_s",
            stats::mean(&secs).map(|ms| per_run("sim.events") / (ms / 1e3)),
            secs.len(),
        );
        let nodes = g.node_count() as f64;
        o.set(
            "sim.msgs_per_node",
            per_run("sim.messages") / nodes,
            secs.len(),
        );
        for (_, metric) in KINDS {
            o.set(metric, per_run(metric), secs.len());
        }
        layer_mean(&mut o, &tracer, "udg.build_ms", "udg.build", 1.0);
        finish_trace(r, &mut o, &tracer, &untraced, &traced)?;
    }
    Ok(o)
}

/// Alternates asynchronous and synchronous runs for the run's seconds
/// (at least one of each), checking every result outside the timings.
/// The first asynchronous result is kept in `first`; every later one
/// must equal it, since the schedule seed is fixed.
fn sim_loop(
    r: &Run,
    g: &Graph,
    schedule_seed: u64,
    t: &mut Tracer,
    o: &mut Outcome,
    first: &mut Option<Wcds>,
) -> Headline {
    let mut async_s = Vec::new();
    let mut sync_s = Vec::new();
    let mut rates = Vec::new();
    let start = Instant::now();
    while async_s.is_empty() || start.elapsed().as_secs_f64() < r.seconds {
        t.next_request();
        let t0 = Instant::now();
        let run = t.span("sim.run_asynchronous", |_| {
            run_asynchronous(g, schedule_seed)
        });
        let secs = t0.elapsed().as_secs_f64();
        async_s.push(secs);
        rates.push(run.report.events as f64 / secs);
        t.count("sim.runs", 1.0);
        t.count("sim.events", run.report.events as f64);
        t.count("sim.messages", run.report.messages.total() as f64);
        for (kind, metric) in KINDS {
            t.count(metric, run.report.messages.of_kind(kind) as f64);
        }
        o.op(true);
        check_run(o, g, &run, "asynchronous");
        match first {
            Some(f) => o.check(
                "sim_algo2: fixed schedule repeats its result",
                *f == run.result.wcds,
            ),
            None => *first = Some(run.result.wcds),
        }

        t.next_request();
        let t1 = Instant::now();
        let run = t.span("sim.run_synchronous", |_| run_synchronous(g));
        sync_s.push(t1.elapsed().as_secs_f64());
        o.op(true);
        check_run(o, g, &run, "synchronous");
    }
    Headline {
        op_us: value(stats::mean(&async_s).map(|v| v * 1e6), async_s.len()),
        op_rate: value(stats::mean(&rates), rates.len()),
        aux_ms: value(stats::mean(&sync_s).map(|v| v * 1e3), sync_s.len()),
    }
}

fn check_run(o: &mut Outcome, g: &Graph, run: &DistributedRun, schedule: &str) {
    let wcds = &run.result.wcds;
    o.check(
        format!("sim_algo2: {schedule} result is a WCDS"),
        domination::is_weakly_connected_dominating_set(g, wcds.nodes()),
    );
    o.check(
        format!("sim_algo2: {schedule} MIS is maximal independent"),
        domination::is_maximal_independent_set(g, wcds.mis_dominators()),
    );
}
