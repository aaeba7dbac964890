//! Seeded end-to-end and per-layer benchmark of the wcds workspace.
//!
//! One binary runs one workload per invocation (`--workload`), builds
//! its inputs from `--seed`, measures for `--seconds`, checks every
//! output outside the timed region, and prints one JSON result line.
//! With `--trace 1` it also replays the workload with spans around each
//! call into a layer's public functions and reports per-layer metrics
//! instead of end-to-end ones. `README.md` in this directory defines
//! every metric and the end-to-end metric each layer metric should move.

pub mod stats;
pub mod trace;

mod city;
mod gen;
mod serving;
mod sim;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// End-to-end metrics (name, unit), measured with tracing off. Every
/// workload reports every one; `README.md` gives each workload's
/// definition.
pub const END_TO_END: &[(&str, &str)] = &[
    ("op_us", "us"),
    ("aux_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (name, unit) of the traced run. A layer a workload
/// never calls reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("eventloop.residual_us", "us"),
    ("eventloop.syscalls_per_req", "count"),
    ("eventloop.wire_create_resets", "count"),
    ("protocol.decode_us", "us"),
    ("protocol.encode_us", "us"),
    ("store.create_ms", "ms"),
    ("store.first_bundle_ms", "ms"),
    ("store.hit_us", "us"),
    ("store.hit_ratio", "ratio"),
    ("store.rebuild_ms", "ms"),
    ("store.rebuilds", "count"),
    ("store.mutate_batch_ms", "ms"),
    ("store.lease_wait_ms", "ms"),
    ("store.lease_conflicts", "count"),
    ("store.concurrent_repairs_max", "count"),
    ("router.route_us", "us"),
    ("router.build_ms", "ms"),
    ("router.patch_ms", "ms"),
    ("router.patch_ratio", "ratio"),
    ("router.state_entries", "count"),
    ("broadcast.plan_ms", "ms"),
    ("broadcast.simulate_ms", "ms"),
    ("maintenance.repair_ms", "ms"),
    ("maintenance.touched_nodes", "count"),
    ("maintenance.churn_ratio", "ratio"),
    ("dynamic.splice_ms", "ms"),
    ("io.parse_ms", "ms"),
    ("udg.build_ms", "ms"),
    ("partition.construct_ms", "ms"),
    ("spanner.build_ms", "ms"),
    ("wcds.verify_ms", "ms"),
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.msgs_per_node", "count"),
    ("sim.messages.mis-dominator", "count"),
    ("sim.messages.gray", "count"),
    ("sim.messages.1-hop-dominators", "count"),
    ("sim.messages.2-hop-dominators", "count"),
    ("sim.messages.selection", "count"),
    ("sim.messages.additional-dominator", "count"),
    ("sim.messages.relay", "count"),
    ("e2e.op_rate", "1/s"),
    ("e2e.op_p99_us", "us"),
    ("e2e.serve_peak_rss_mb", "MB"),
    ("e2e.tick_p50_ms", "ms"),
    ("e2e.tick_late_ms", "ms"),
    ("trace.overhead_op_us", "us"),
    ("trace.overhead_op_rate", "1/s"),
    ("trace.overhead_aux_ms", "ms"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop reads (routes, broadcasts, stats) over loopback.
    RouteRead,
    /// Closed-loop route reads beside a 4 Hz drift-tick writer.
    DriftServe,
    /// City-scale construction from `wcds_graph::io` text.
    CityBuild,
    /// Distributed Algorithm II on the discrete-event simulator.
    SimAlgo2,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::RouteRead,
        Workload::DriftServe,
        Workload::CityBuild,
        Workload::SimAlgo2,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RouteRead => "route_read",
            Workload::DriftServe => "drift_serve",
            Workload::CityBuild => "city_build",
            Workload::SimAlgo2 => "sim_algo2",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes and schedule periods. [`Sizes::full`] is the benchmark;
/// [`Sizes::quick`] shrinks every input so the benchmark's own tests
/// can run each workload and all of its checks in seconds.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Nodes of the served topology (route_read, drift_serve).
    pub serve_n: usize,
    /// Nodes of the city deployment.
    pub city_n: usize,
    /// Nodes of the simulated network.
    pub sim_n: usize,
    /// Timed set-ups per run; `setup_s` is their mean.
    pub setups: usize,
    /// Builds a city_build run completes at least (20 leave ten samples
    /// beyond the median).
    pub min_builds: usize,
    /// Drift tick period in seconds.
    pub tick_period: f64,
}

impl Sizes {
    /// The benchmark's sizes.
    pub fn full() -> Self {
        Self {
            serve_n: 10_000,
            city_n: 100_000,
            sim_n: 20_000,
            setups: 5,
            min_builds: 20,
            tick_period: 0.25,
        }
    }

    /// Small inputs for the benchmark's own tests.
    pub fn quick() -> Self {
        Self {
            serve_n: 400,
            city_n: 2_000,
            sim_n: 400,
            setups: 2,
            min_builds: 3,
            // 25 ticks a second leave ten samples beyond the median
            tick_period: 0.04,
        }
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Run {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds (per pass).
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Input sizes.
    pub sizes: Sizes,
    /// Where the traced run writes its spans.
    pub trace_dir: PathBuf,
}

/// A metric value with the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    /// The figure.
    pub value: f64,
    /// Samples it was computed from.
    pub samples: usize,
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Output checks by name: how many times each passed and failed.
    pub checks: BTreeMap<String, (u64, u64)>,
    /// Operations attempted: measured operations plus checks.
    pub attempted: u64,
    /// Operations that failed: error responses, transport errors and
    /// failed checks.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, Value>,
    /// Extra facts recorded beside the result (e.g. the wire probe).
    pub notes: BTreeMap<&'static str, String>,
}

impl Outcome {
    /// Records one output check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        let tally = self.checks.entry(name.into()).or_insert((0, 0));
        if ok {
            tally.0 += 1;
        } else {
            tally.1 += 1;
        }
        self.op(ok);
    }

    /// Records one measured operation.
    pub fn op(&mut self, ok: bool) {
        self.ops(1, u64::from(!ok));
    }

    /// Records `attempted` measured operations, `failed` of which failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.insert(name, Value { value, samples });
    }

    /// Sets a metric when a value exists.
    pub fn set_opt(&mut self, name: &'static str, value: Option<f64>, samples: usize) {
        if let Some(v) = value {
            self.set(name, v, samples);
        }
    }

    /// Whether no operation failed (a failed check counts as one).
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The checks that failed.
    pub fn failed_checks(&self) -> Vec<&str> {
        self.checks
            .iter()
            .filter(|(_, &(_, failed))| failed > 0)
            .map(|(n, _)| n.as_str())
            .collect()
    }
}

/// Runs one workload.
///
/// # Errors
///
/// A message when the run could not be carried out at all (inputs not
/// generated, server not bound); failed checks are reported in the
/// [`Outcome`] instead.
pub fn run(r: &Run) -> Result<Outcome, String> {
    match r.workload {
        Workload::RouteRead => serving::route_read(r),
        Workload::DriftServe => serving::drift_serve(r),
        Workload::CityBuild => city::city_build(r),
        Workload::SimAlgo2 => sim::sim_algo2(r),
    }
}

/// The three headline figures one measured pass produced; each
/// workload defines them (see `README.md`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Headline {
    pub(crate) op_us: Option<Value>,
    pub(crate) op_rate: Option<Value>,
    pub(crate) aux_ms: Option<Value>,
}

impl Headline {
    /// Records the figures: `op_us` and `aux_ms` end to end, and the
    /// rate as the `e2e.op_rate` diagnostic.
    pub(crate) fn report(&self, o: &mut Outcome) {
        for (name, v) in [
            ("op_us", self.op_us),
            ("e2e.op_rate", self.op_rate),
            ("aux_ms", self.aux_ms),
        ] {
            if let Some(v) = v {
                o.metrics.insert(name, v);
            }
        }
    }
}

/// A [`Value`] from an optional figure.
pub(crate) fn value(v: Option<f64>, samples: usize) -> Option<Value> {
    v.map(|value| Value { value, samples })
}

/// Sets per-layer metric `metric` to the mean self time of the spans
/// named `span`, scaled from milliseconds by `scale` (1 for ms, 1000
/// for µs). A mean times its count is the layer's busy time.
pub(crate) fn layer_mean(
    o: &mut Outcome,
    t: &trace::Tracer,
    metric: &'static str,
    span: &str,
    scale: f64,
) {
    let times = t.self_ms(span);
    o.set_opt(metric, stats::mean(&times).map(|m| m * scale), times.len());
}

/// Closes a traced run: the tracing overhead (traced minus untraced
/// headline figures), the span count, and the span file.
pub(crate) fn finish_trace(
    r: &Run,
    o: &mut Outcome,
    t: &trace::Tracer,
    untraced: &Headline,
    traced: &Headline,
) -> Result<(), String> {
    let pairs = [
        ("trace.overhead_op_us", traced.op_us, untraced.op_us),
        ("trace.overhead_op_rate", traced.op_rate, untraced.op_rate),
        ("trace.overhead_aux_ms", traced.aux_ms, untraced.aux_ms),
    ];
    for (name, on, off) in pairs {
        if let (Some(on), Some(off)) = (on, off) {
            o.set(name, on.value - off.value, on.samples.min(off.samples));
        }
    }
    o.notes.insert("trace_spans", t.spans().len().to_string());
    let path = r
        .trace_dir
        .join(format!("trace-{}-{}.csv", r.workload.name(), r.seed));
    t.write_csv(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    o.notes.insert("trace_file", path.display().to_string());
    Ok(())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The result line: `correct`, `attempted`, `failed`, and every
/// end-to-end metric (or, traced, every per-layer metric).
///
/// # Errors
///
/// Names an end-to-end metric the workload failed to produce; per-layer
/// metrics of layers the workload never calls are reported as 0.
pub fn result_line(o: &Outcome, traced: bool) -> Result<String, String> {
    let list = if traced { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in list {
        let value = match o.metrics.get(name) {
            Some(v) => v.value,
            None if traced => 0.0,
            None => return Err(format!("workload produced no value for `{name}`")),
        };
        metrics.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            json_num(value),
            json_str(unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct(),
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    ))
}

/// A JSON line recording the host, build and sample counts behind the
/// result, printed just before it.
pub fn meta_line(r: &Run, o: &Outcome) -> String {
    let samples: Vec<String> = o
        .metrics
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), v.samples))
        .collect();
    let checks: Vec<String> = o
        .checks
        .iter()
        .map(|(k, (passed, failed))| {
            format!(
                "{}: {{\"passed\": {passed}, \"failed\": {failed}}}",
                json_str(k)
            )
        })
        .collect();
    let notes: Vec<String> = o
        .notes
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    format!(
        "{{\"meta\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
         \"features\": \"default\", \"parallel_threads\": {}, \"git_revision\": {}, \
         \"samples\": {{{}}}, \"checks\": {{{}}}, \"notes\": {{{}}}}}}}",
        json_str(r.workload.name()),
        r.seed,
        json_num(r.seconds),
        r.trace,
        gen::nproc(),
        wcds_graph::parallel::threads(),
        json_str(&gen::git_revision()),
        samples.join(", "),
        checks.join(", "),
        notes.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_metric_in_order() {
        let mut o = Outcome::default();
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            o.set(name, i as f64 + 0.5, 3);
        }
        o.op(true);
        let line = result_line(&o, false).expect("all metrics set");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"op_us\": {\"value\": 0.5, \"unit\": \"us\"}"));
        assert!(line.contains("\"peak_rss_mb\": {\"value\": 3.5, \"unit\": \"MB\"}"));
        // traced lines default absent layers to 0
        let traced = result_line(&o, true).expect("per-layer defaults");
        assert!(traced.contains("\"sim.events\": {\"value\": 0, \"unit\": \"count\"}"));
        o.metrics.remove("aux_ms");
        assert!(result_line(&o, false).is_err());
    }

    #[test]
    fn failed_checks_make_the_run_incorrect() {
        let mut o = Outcome::default();
        o.check("a", true);
        assert!(o.correct());
        o.check("b", false);
        assert!(!o.correct());
        assert_eq!(o.failed_checks(), vec!["b"]);
        assert_eq!((o.attempted, o.failed), (2, 1));
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
        assert_eq!(json_str("a\"b\n"), "\"a\\\"b\\u000a\"");
    }
}
