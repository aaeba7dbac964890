//! Quickstart: deploy a network, build its unit-disk graph, run both of
//! the paper's WCDS constructions, and inspect what came out.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use wcds::core::algo1::AlgorithmOne;
use wcds::core::algo2::AlgorithmTwo;
use wcds::core::spanner::SpannerStats;
use wcds::core::WcdsConstruction;
use wcds::geom::deploy;
use wcds::graph::{traversal, UnitDiskGraph};

fn main() {
    // 1. Deploy 300 nodes uniformly at random on a 9×9 field. Every
    //    node has a transmission range of one unit (the paper's model).
    let points = deploy::uniform(300, 9.0, 9.0, 2024);
    let udg = UnitDiskGraph::build(points, 1.0);
    let g = udg.graph();
    println!(
        "network: {} nodes, {} links, avg degree {:.1}, connected: {}",
        g.node_count(),
        g.edge_count(),
        g.avg_degree(),
        traversal::is_connected(g)
    );
    if !traversal::is_connected(g) {
        eprintln!("deployment not connected — try a denser field");
        std::process::exit(1);
    }

    // 2. Algorithm I: leader-rooted, level-ranked MIS. Ratio ≤ 5·opt.
    let r1 = AlgorithmOne::new().construct(g);
    println!("\nAlgorithm I  : {}", r1.wcds);
    println!("  valid WCDS : {}", r1.wcds.is_valid(g));
    println!("  {}", SpannerStats::compute(g, &r1.wcds));

    // 3. Algorithm II: fully localized; MIS dominators plus bridges for
    //    3-hop MIS pairs. O(n) time and messages.
    let r2 = AlgorithmTwo::new().construct(g);
    println!("\nAlgorithm II : {}", r2.wcds);
    println!("  valid WCDS : {}", r2.wcds.is_valid(g));
    println!("  {}", SpannerStats::compute(g, &r2.wcds));

    // 4. The spanner is what you run your routing protocol on: same
    //    nodes, a linear number of edges, constant dilation.
    let kept = 100.0 * r2.spanner.edge_count() as f64 / g.edge_count() as f64;
    println!(
        "\nspanner keeps {}/{} edges ({kept:.0}%) — position-less, dilation ≤ 3 hops",
        r2.spanner.edge_count(),
        g.edge_count()
    );
}
