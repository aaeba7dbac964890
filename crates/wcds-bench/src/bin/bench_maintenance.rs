//! Incremental-maintenance benchmark → `BENCH_maintenance.json`.
//!
//! Replays a fixed-seed trace of single-node motions through two
//! engines on identical point sets:
//!
//! * **incremental** — `MaintainedWcds::apply_motion`: O(Δ) grid-delta
//!   splice plus 3-hop-bounded MIS/bridge repair;
//! * **from-scratch** — rebuild the unit-disk graph and rerun
//!   Algorithm II on the post-mutation points (what the engine did
//!   before the mutation path existed).
//!
//! Every step cross-checks the two engines for exact equality (MIS and
//! bridge set) before any timing is reported, and records the repair's
//! locality radius — the per-stage propagation distance of the repair
//! (disturbed edges → MIS flips, then disturbance ∪ flips →
//! dominator-status changes): on steps where both the pre- and
//! post-mutation graphs are connected it must be ≤ 3 (the paper's §4.2
//! bound). Pass `--quick` for the CI smoke size.

use wcds_bench::perf::{time_ms, write_bench_json, BenchRow};
use wcds_bench::util::{side_for_avg_degree, Scale};
use wcds_core::algo2::AlgorithmTwo;
use wcds_core::maintenance::MaintainedWcds;
use wcds_geom::{deploy, Point};
use wcds_graph::{traversal, UnitDiskGraph};
use wcds_rng::{ChaCha12Rng, Rng};

const SEED: u64 = 42;
const RADIUS: f64 = 1.0;

struct TraceStats {
    incr_ms: f64,
    scratch_ms: f64,
    max_connected_radius: u32,
    connected_steps: usize,
    radius_le3: usize,
    touched_fraction_sum: f64,
    edges: usize,
}

/// Replays `steps` bounded single-node drifts at size `n`, timing both
/// engines and checking them against each other at every step.
fn run_trace(n: usize, steps: usize) -> TraceStats {
    let side = side_for_avg_degree(n, 11.0);
    let points = deploy::uniform(n, side, side, SEED);
    let mut rng = ChaCha12Rng::seed_from_u64(SEED ^ n as u64);
    let mut net = MaintainedWcds::new(points, RADIUS);

    let mut stats = TraceStats {
        incr_ms: 0.0,
        scratch_ms: 0.0,
        max_connected_radius: 0,
        connected_steps: 0,
        radius_le3: 0,
        touched_fraction_sum: 0.0,
        edges: net.graph().edge_count(),
    };

    for step in 0..steps {
        let u = rng.gen_range(0..n);
        let p = net.points()[u];
        let q = Point::new(
            (p.x + (rng.gen::<f64>() - 0.5) * 0.8).clamp(0.0, side),
            (p.y + (rng.gen::<f64>() - 0.5) * 0.8).clamp(0.0, side),
        );
        let pre_connected = traversal::is_connected(net.graph());

        let (ms, report) = time_ms(|| net.apply_motion(&[(u, q)]));
        stats.incr_ms += ms;
        stats.touched_fraction_sum += report.touched_nodes as f64 / n as f64;

        // the from-scratch engine rebuilds everything on the same
        // post-mutation points — and doubles as the per-step oracle
        let pts = net.points().to_vec();
        let (ms, (scratch, mis, additional)) = time_ms(|| {
            let udg = UnitDiskGraph::build(pts, RADIUS);
            let (mis, additional) = AlgorithmTwo::new().construct_parts(udg.graph());
            (udg, mis, additional)
        });
        stats.scratch_ms += ms;
        assert_eq!(net.graph(), scratch.graph(), "n={n} step {step}: CSR diverged");
        let w = net.wcds();
        assert_eq!(w.mis_dominators(), &mis[..], "n={n} step {step}: MIS diverged");
        assert_eq!(
            w.additional_dominators(),
            &additional[..],
            "n={n} step {step}: bridges diverged"
        );

        if pre_connected && traversal::is_connected(net.graph()) {
            if let Some(r) = report.locality_radius {
                stats.connected_steps += 1;
                stats.max_connected_radius = stats.max_connected_radius.max(r);
                if r <= 3 {
                    stats.radius_le3 += 1;
                }
            }
        }
    }
    stats
}

fn main() {
    let scale = Scale::from_args();
    // (n, steps): the city-scale trace replays fewer steps because each
    // step also runs the full from-scratch oracle
    let sizes: &[(usize, usize)] = scale
        .pick(&[(300, 40)][..], &[(500, 200), (1000, 200), (2000, 200), (100_000, 20)][..]);

    let mut rows = Vec::new();
    let mut checks = Vec::new();
    let mut last_speedup = 0.0;

    for &(n, steps) in sizes {
        let s = run_trace(n, steps);
        rows.push(BenchRow::new("maintain_incremental", n, s.edges, 1, s.incr_ms, steps));
        rows.push(BenchRow::new("maintain_from_scratch", n, s.edges, 1, s.scratch_ms, steps));
        last_speedup = s.scratch_ms / s.incr_ms.max(1e-9);
        checks.push((format!("speedup_n{n}"), format!("{last_speedup:.2}")));
        checks.push((
            format!("touched_fraction_n{n}"),
            format!("{:.4}", s.touched_fraction_sum / steps as f64),
        ));
        checks.push((
            format!("locality_max_connected_n{n}"),
            format!("{}", s.max_connected_radius),
        ));
        assert!(
            s.connected_steps == 0 || s.radius_le3 == s.connected_steps,
            "n={n}: {} of {} connected repairs exceeded radius 3",
            s.connected_steps - s.radius_le3,
            s.connected_steps
        );
        checks.push((format!("connected_repairs_n{n}"), format!("{}", s.connected_steps)));
        let per_step_ms = s.incr_ms / steps as f64;
        checks.push((format!("incr_ms_per_step_n{n}"), format!("{per_step_ms:.3}")));
        if scale == Scale::Full && n >= 100_000 {
            assert!(
                per_step_ms < 1000.0,
                "n={n}: {per_step_ms:.1} ms per incremental repair breaks the sub-second target"
            );
        }
    }
    checks.push(("engines_agree".to_string(), "true".to_string()));
    checks.push(("locality_le3_on_connected".to_string(), "true".to_string()));
    if scale == Scale::Full {
        assert!(
            last_speedup >= 10.0,
            "incremental speedup {last_speedup:.2}× at the largest size is below the 10× floor"
        );
    }

    let host_cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    checks.push(("host_parallelism".to_string(), format!("{host_cpus}")));

    for r in &rows {
        println!(
            "{:<22} n={:<5} m={:<6} {:>9.2} ms  {:>10.0} mutations/s",
            r.name, r.n, r.edges, r.wall_ms, r.throughput
        );
    }
    for (k, v) in &checks {
        println!("  {k} = {v}");
    }
    write_bench_json(scale, "BENCH_maintenance.json", "maintenance", &rows, &checks);
}
