//! Watching the distributed protocols run, message by message.
//!
//! Runs Algorithm II's fully-localized protocol on a small network with
//! event tracing enabled, prints the message timeline, and then shows
//! the per-phase accounting of Algorithm I's three-phase stack.
//!
//! ```text
//! cargo run --example distributed_trace
//! ```

use wcds::core::{algo1, algo2};
use wcds::geom::deploy;
use wcds::graph::{traversal, UnitDiskGraph};
use wcds::sim::Schedule;

fn main() {
    let udg = UnitDiskGraph::build(deploy::uniform(18, 2.6, 2.6, 4), 1.0);
    let g = udg.graph();
    if !traversal::is_connected(g) {
        eprintln!("deployment not connected — try another seed");
        std::process::exit(1);
    }

    // Algorithm II with tracing: every send and delivery, timestamped.
    let run = algo2::distributed::run(g, Schedule::synchronous().with_trace(60));
    println!("Algorithm II on {} nodes — first traced events:", g.node_count());
    print!("{}", run.report.trace);
    println!("...\nresult: {}  ({} rounds, {})", run.result.wcds, run.report.rounds, run.report.messages);

    // the same construction under an adversarial asynchronous schedule
    let async_run = algo2::distributed::run_asynchronous(g, 9);
    println!(
        "\nasynchronous run (seed 9): same MIS = {}, still valid = {}",
        async_run.result.wcds.mis_dominators() == run.result.wcds.mis_dominators(),
        async_run.result.wcds.is_valid(g)
    );

    // Algorithm I's three phases, with their message budgets
    let run1 = algo1::distributed::run_synchronous(g);
    println!("\nAlgorithm I phases (leader = node {}):", run1.leader);
    println!("  election : {}", run1.election_report);
    println!("  levels   : {}", run1.level_report);
    println!("  marking  : {}", run1.marking_report);
    println!("  total    : {} messages, {} rounds", run1.total_messages(), run1.total_time());
    println!("  result   : {}", run1.result.wcds);
}
