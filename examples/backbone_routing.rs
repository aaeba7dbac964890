//! Clusterhead routing over the WCDS backbone (§4.2 of the paper).
//!
//! Builds the spanner, assigns every node to a clusterhead, routes a
//! few packets through the dominator hierarchy, and compares the paths
//! against the true shortest paths in `G`.
//!
//! ```text
//! cargo run --example backbone_routing
//! ```

use wcds::core::algo2::AlgorithmTwo;
use wcds::core::WcdsConstruction;
use wcds::geom::deploy;
use wcds::graph::{traversal, UnitDiskGraph};
use wcds::routing::BackboneRouter;

fn main() {
    let udg = UnitDiskGraph::build(deploy::uniform(250, 8.0, 8.0, 7), 1.0);
    let g = udg.graph();
    if !traversal::is_connected(g) {
        eprintln!("deployment not connected — try a denser field");
        std::process::exit(1);
    }

    let result = AlgorithmTwo::new().construct(g);
    let router = BackboneRouter::build(g, &result.wcds);
    println!(
        "backbone: {} dominators over {} nodes; routing state only at dominators",
        result.wcds.len(),
        g.node_count()
    );

    let flows = [(0usize, 249usize), (10, 200), (33, 177), (5, 120)];
    println!("\n{:>5}  {:>5}  {:>9}  {:>9}  {:>8}  route", "src", "dst", "routed", "shortest", "stretch");
    for (s, t) in flows {
        let path = router.route(s, t).expect("connected network");
        let shortest = traversal::hop_distance(g, s, t).expect("connected") as usize;
        let stretch = (path.len() - 1) as f64 / shortest as f64;
        let rendered: Vec<String> = path
            .iter()
            .map(|&u| {
                if result.wcds.contains(u) {
                    format!("[{u}]") // dominators bracketed
                } else {
                    u.to_string()
                }
            })
            .collect();
        println!(
            "{s:>5}  {t:>5}  {:>9}  {shortest:>9}  {stretch:>8.2}  {}",
            path.len() - 1,
            rendered.join(" → ")
        );
    }

    println!("\nclusterhead of node 0 is {}", router.clusterhead(0));
    println!("(bracketed hops are dominators; interior hops are the recorded gateways)");
}
