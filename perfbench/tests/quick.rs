//! Quick-size runs of all four workloads. Each runs traced, which also
//! runs its untraced pass, so every end-to-end metric, every per-layer
//! metric the workload can take and every output check is exercised.

use perfbench::{result_line, run, Outcome, Run, Sizes, Workload, END_TO_END, PER_LAYER};
use std::path::PathBuf;

fn quick(workload: Workload) -> Outcome {
    let r = Run {
        workload,
        seed: 3,
        seconds: 1.0,
        trace: true,
        sizes: Sizes::quick(),
        trace_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("quick-traces"),
    };
    let o = run(&r).expect("quick run completes");
    assert!(
        o.correct(),
        "{} failed checks: {:?}",
        workload.name(),
        o.failed_checks()
    );
    assert_eq!(o.failed, 0);
    assert!(o.attempted > 0);
    let e2e = result_line(&o, false).expect("every end-to-end metric measured");
    for (name, unit) in END_TO_END {
        assert!(
            e2e.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} missing"
        );
        assert!(e2e.contains(&format!("\"unit\": \"{unit}\"")));
        assert!(o.metrics[name].value > 0.0, "{name} must never be 0");
    }
    let traced = result_line(&o, true).expect("per-layer line");
    for (name, _) in PER_LAYER {
        assert!(traced.contains(&format!("\"{name}\": ")), "{name} missing");
    }
    o
}

fn assert_checked(o: &Outcome, names: &[&str]) {
    for name in names {
        let (passed, failed) = o
            .checks
            .get(*name)
            .copied()
            .unwrap_or_else(|| panic!("check `{name}` never ran"));
        assert!(
            passed > 0 && failed == 0,
            "{name}: {passed} passed, {failed} failed"
        );
    }
}

fn assert_measured(o: &Outcome, metrics: &[&str]) {
    for m in metrics {
        assert!(o.metrics.contains_key(m), "{m} not measured");
    }
}

#[test]
fn route_read_quick() {
    let o = quick(Workload::RouteRead);
    assert_checked(
        &o,
        &["route_read: loopback responses equal the in-process replay"],
    );
    assert_measured(
        &o,
        &[
            "eventloop.residual_us",
            "eventloop.syscalls_per_req",
            "eventloop.wire_create_resets",
            "protocol.decode_us",
            "protocol.encode_us",
            "store.create_ms",
            "store.first_bundle_ms",
            "store.hit_us",
            "store.hit_ratio",
            "router.route_us",
            "router.build_ms",
            "router.state_entries",
            "broadcast.plan_ms",
            "broadcast.simulate_ms",
            "partition.construct_ms",
            "trace.overhead_op_us",
        ],
    );
    // a payload this small fits the event loop's decoder, so the wire
    // Create is ingested
    assert_eq!(o.metrics["eventloop.wire_create_resets"].value, 0.0);
}

#[test]
fn drift_serve_quick() {
    let o = quick(Workload::DriftServe);
    assert_checked(
        &o,
        &[
            "drift_serve: final export equals the serial replay",
            "drift_serve: served WCDS and spanner sizes equal the serial replay's",
            "drift_serve: epoch equals applied moves",
        ],
    );
    assert_measured(
        &o,
        &[
            "store.mutate_batch_ms",
            "store.lease_wait_ms",
            "store.first_bundle_ms",
            "store.rebuild_ms",
            "store.rebuilds",
            "router.patch_ratio",
            "maintenance.repair_ms",
            "maintenance.touched_nodes",
            "maintenance.churn_ratio",
            "dynamic.splice_ms",
            "e2e.tick_p50_ms",
            "e2e.tick_late_ms",
        ],
    );
    // every tick is followed by a rebuild the next read waits for
    assert!(o.metrics["store.rebuilds"].value > 0.0);
}

#[test]
fn city_build_quick() {
    let o = quick(Workload::CityBuild);
    assert_checked(
        &o,
        &[
            "city_build: rebuilt graph equals the document's",
            "city_build: PartitionedTwo equals sequential Algorithm II",
            "city_build: WCDS is valid",
        ],
    );
    assert_measured(
        &o,
        &[
            "io.parse_ms",
            "udg.build_ms",
            "partition.construct_ms",
            "spanner.build_ms",
            "wcds.verify_ms",
        ],
    );
}

#[test]
fn sim_algo2_quick() {
    let o = quick(Workload::SimAlgo2);
    assert_checked(
        &o,
        &[
            "sim_algo2: asynchronous result is a WCDS",
            "sim_algo2: asynchronous MIS is maximal independent",
            "sim_algo2: synchronous result is a WCDS",
            "sim_algo2: synchronous MIS is maximal independent",
            "sim_algo2: fixed schedule repeats its result",
        ],
    );
    assert_measured(
        &o,
        &[
            "sim.events",
            "sim.events_per_s",
            "sim.msgs_per_node",
            "sim.messages.gray",
        ],
    );
    assert!(o.metrics["sim.msgs_per_node"].value > 1.0);
}
