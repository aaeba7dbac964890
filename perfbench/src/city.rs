//! `city_build`: construction at city scale, the way
//! `wcds construct --algo algo2` builds from a document —
//! `io::from_text` → `UnitDiskGraph::build` → `PartitionedTwo` →
//! `Wcds::is_valid`. No serving code runs, so the construction layers
//! carry all of the work.
//!
//! * `setup_s`: one text parse (mean of the set-ups).
//! * `op_us`: one build from the parsed document, parse excluded
//!   (median over at least 20 builds).
//! * `e2e.op_rate` (traced diagnostic): nodes built per second, `n / op`.
//! * `aux_ms`: sequential Algorithm II on the same graph — the
//!   reference `PartitionedTwo` must beat to earn its keep, and the
//!   oracle its output is checked against.

use crate::trace::Tracer;
use crate::{finish_trace, gen, layer_mean, stats, value, Headline, Outcome, Run};
use std::time::Instant;
use wcds_bench::perf::peak_rss_mb;
use wcds_core::algo2::AlgorithmTwo;
use wcds_core::partition::PartitionedTwo;
use wcds_core::Wcds;
use wcds_geom::Point;
use wcds_graph::io::{self, GraphDocument};
use wcds_graph::UnitDiskGraph;

/// Average degree of the city deployment.
const CITY_DEGREE: f64 = 12.0;

pub(crate) fn city_build(r: &Run) -> Result<Outcome, String> {
    let s = &r.sizes;
    let (udg, _) = gen::deployment(s.city_n, CITY_DEGREE, r.seed);
    let text = io::to_text(udg.graph(), Some(udg.points()));
    drop(udg);

    let mut o = Outcome::default();
    let mut tracer = if r.trace {
        Tracer::on(Instant::now(), 0)
    } else {
        Tracer::off()
    };
    let mut setup = Vec::new();
    let mut doc = None;
    for _ in 0..s.setups.max(1) {
        drop(doc.take()); // one document alive at a time keeps peak RSS honest
        tracer.next_request();
        let start = Instant::now();
        let parsed = tracer.span("io.parse", |_| io::from_text(&text));
        setup.push(start.elapsed().as_secs_f64());
        o.op(parsed.is_ok());
        doc = Some(parsed.map_err(|e| format!("parse: {e}"))?);
    }
    let doc = doc.ok_or("no set-up ran")?;
    let points = doc
        .points
        .clone()
        .ok_or("the city document lost its positions")?;
    o.set_opt("setup_s", stats::mean(&setup), setup.len());

    let untraced = build_loop(r, &doc, &points, &mut Tracer::off(), &mut o);
    untraced.report(&mut o);
    o.set("peak_rss_mb", peak_rss_mb(), 1);

    if r.trace {
        let traced = build_loop(r, &doc, &points, &mut tracer, &mut o);
        layer_mean(&mut o, &tracer, "io.parse_ms", "io.parse", 1.0);
        layer_mean(&mut o, &tracer, "udg.build_ms", "udg.build", 1.0);
        layer_mean(
            &mut o,
            &tracer,
            "partition.construct_ms",
            "partition.construct",
            1.0,
        );
        layer_mean(&mut o, &tracer, "spanner.build_ms", "spanner.build", 1.0);
        layer_mean(&mut o, &tracer, "wcds.verify_ms", "wcds.verify", 1.0);
        finish_trace(r, &mut o, &tracer, &untraced, &traced)?;
    }
    Ok(o)
}

/// Builds back to back for the run's seconds (and at least
/// `min_builds` times), timing each build and its sequential reference,
/// and checks every result outside both timings.
fn build_loop(
    r: &Run,
    doc: &GraphDocument,
    points: &[Point],
    t: &mut Tracer,
    o: &mut Outcome,
) -> Headline {
    let n = points.len();
    let mut build_s = Vec::new();
    let mut reference_s = Vec::new();
    let start = Instant::now();
    while build_s.len() < r.sizes.min_builds || start.elapsed().as_secs_f64() < r.seconds {
        t.next_request();
        let t0 = Instant::now();
        let (udg, wcds, valid) = t.span("city.build", |t| {
            let udg = t.span("udg.build", |_| {
                UnitDiskGraph::build(points.to_vec(), gen::RADIUS)
            });
            let (mis, additional) = t.span("partition.construct", |_| {
                PartitionedTwo::new().construct_parts(&udg)
            });
            let wcds = Wcds::new(mis, additional);
            let spanner = t.span("spanner.build", |_| {
                wcds.weakly_induced_subgraph(udg.graph())
            });
            let valid = t.span("wcds.verify", |_| wcds.is_valid(udg.graph()));
            drop(spanner);
            (udg, wcds, valid)
        });
        build_s.push(t0.elapsed().as_secs_f64());

        let t1 = Instant::now();
        let (mis, additional) = t.span("algo2.sequential", |_| {
            AlgorithmTwo::new().construct_parts(&doc.graph)
        });
        reference_s.push(t1.elapsed().as_secs_f64());

        o.op(true);
        o.check(
            "city_build: rebuilt graph equals the document's",
            udg.graph() == &doc.graph,
        );
        o.check(
            "city_build: PartitionedTwo equals sequential Algorithm II",
            wcds == Wcds::new(mis, additional),
        );
        o.check("city_build: WCDS is valid", valid);
    }
    let build = stats::percentile(&stats::sorted(&build_s), 50.0);
    Headline {
        op_us: value(build.map(|b| b * 1e6), build_s.len()),
        op_rate: value(build.map(|b| n as f64 / b), build_s.len()),
        aux_ms: value(
            stats::percentile(&stats::sorted(&reference_s), 50.0).map(|v| v * 1e3),
            reference_s.len(),
        ),
    }
}
