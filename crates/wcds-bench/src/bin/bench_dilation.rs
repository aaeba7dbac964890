//! All-sources dilation benchmark → `BENCH_dilation.json`.
//!
//! One fixed-seed connected uniform UDG (n = 2000 at full scale, the
//! acceptance instance; `--quick` shrinks it for CI smoke runs), the
//! Algorithm II spanner on it, then three sweeps of the full dilation
//! measurement:
//!
//! * `dilation_legacy` — the pre-CSR engine (`Vec<Vec<_>>` adjacency,
//!   per-source allocation, layer sort), the speedup denominator;
//! * `dilation_csr_serial` — the CSR + scratch engine on one thread;
//! * `dilation_csr_parallel` — the same engine on
//!   [`wcds_graph::parallel::threads`] workers (set `WCDS_THREADS` to
//!   pick the count; unset, it is 1).
//!
//! The parallel report is asserted **equal** to the serial one
//! (witnesses included), and both must agree with the legacy ratios.

use wcds_bench::perf::{legacy_dilation_sweep, time_ms, to_vec_adjacency, write_bench_json, BenchRow};
use wcds_bench::util::{connected_uniform_udg, side_for_avg_degree, Scale};
use wcds_core::algo2::AlgorithmTwo;
use wcds_core::dilation::DilationReport;
use wcds_core::WcdsConstruction;
use wcds_graph::parallel;

const SEED: u64 = 42;

fn main() {
    let scale = Scale::from_args();
    let n = scale.pick(300, 2000);
    let side = side_for_avg_degree(n, 11.0);
    let udg = connected_uniform_udg(n, side, SEED);
    let g = udg.graph();
    let m = g.edge_count();
    let spanner = AlgorithmTwo::new().construct(g).spanner;
    println!("instance: n={n} m={m} spanner_m={}", spanner.edge_count());

    let adj_g = to_vec_adjacency(g);
    let adj_s = to_vec_adjacency(&spanner);
    let (legacy_ms, (lt, lg, lts, lgs)) =
        time_ms(|| legacy_dilation_sweep(&adj_g, &adj_s, udg.points()));

    let (serial_ms, serial) =
        time_ms(|| DilationReport::measure_with_threads(g, &spanner, udg.points(), 1));

    let nthreads = parallel::threads();
    let (par_ms, par) =
        time_ms(|| DilationReport::measure_with_threads(g, &spanner, udg.points(), nthreads));

    assert_eq!(par, serial, "parallel report must be identical to serial");
    assert_eq!(serial.topological_ratio(), lt, "topological ratio diverged from legacy");
    assert_eq!(serial.geometric_ratio(), lg, "geometric ratio diverged from legacy");
    assert_eq!(serial.topo_bound_slack, lts, "topological slack diverged from legacy");
    assert_eq!(serial.geo_bound_slack, lgs, "geometric slack diverged from legacy");

    let rows = vec![
        BenchRow::new("dilation_legacy", n, m, 1, legacy_ms, n),
        BenchRow::new("dilation_csr_serial", n, m, 1, serial_ms, n),
        BenchRow::new("dilation_csr_parallel", n, m, nthreads, par_ms, n),
    ];
    let checks = vec![
        ("parallel_identical_to_serial".to_string(), "true".to_string()),
        ("agrees_with_legacy".to_string(), "true".to_string()),
        (
            "speedup_serial_vs_legacy".to_string(),
            format!("{:.2}", legacy_ms / serial_ms.max(1e-9)),
        ),
        (
            "speedup_parallel_vs_legacy".to_string(),
            format!("{:.2}", legacy_ms / par_ms.max(1e-9)),
        ),
        ("topological_ratio".to_string(), format!("{:.4}", serial.topological_ratio())),
        ("geometric_ratio".to_string(), format!("{:.4}", serial.geometric_ratio())),
    ];

    for r in &rows {
        println!(
            "{:<22} threads={} {:>9.2} ms  {:>9.1} sources/s",
            r.name, r.threads, r.wall_ms, r.throughput
        );
    }
    println!(
        "speedup vs legacy: serial {:.2}x, parallel {:.2}x ({} threads)",
        legacy_ms / serial_ms.max(1e-9),
        legacy_ms / par_ms.max(1e-9),
        nthreads
    );
    write_bench_json(scale, "BENCH_dilation.json", "dilation", &rows, &checks);
}
