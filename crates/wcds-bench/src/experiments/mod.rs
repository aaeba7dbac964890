//! One module per experiment family; see `DESIGN.md` §5 for the
//! experiment-id ↔ paper-claim index.

pub mod ablation;
pub mod complexity;
pub mod dilation;
pub mod extensions;
pub mod figures;
pub mod lemmas;
pub mod maintenance;
pub mod position;
pub mod ratio;
pub mod routing;
pub mod spanner;
pub mod workloads;

use crate::util::{Scale, Table};

/// One experiment: its tables at the given scale.
pub type Experiment = fn(Scale) -> Vec<Table>;

/// Every experiment by its `expt <name>` name, in DESIGN.md order.
pub const EXPERIMENTS: [(&str, Experiment); 21] = [
    ("fig1_udg", figures::run_fig1),
    ("fig2_wcds", |_| figures::run_fig2()),
    ("lemma1_neighbors", lemmas::run_lemma1),
    ("lemma2_khop", lemmas::run_lemma2),
    ("subset_distance", lemmas::run_subset_distance),
    ("fig6_ranking", |_| figures::run_fig6()),
    ("ratio", ratio::run),
    ("spanner_sparsity", spanner::run),
    ("dilation", dilation::run),
    ("messages", complexity::run_messages),
    ("time", complexity::run_time),
    ("routing", routing::run_unicast),
    ("routing_distributed", routing::run_distributed_unicast),
    ("broadcast", routing::run_broadcast),
    ("maintenance", maintenance::run),
    ("maintenance_distributed", maintenance::run_distributed),
    ("ablation_ranking", ablation::run),
    ("pruning", extensions::run_pruning),
    ("robustness", extensions::run_robustness),
    ("position", position::run),
    ("workloads", workloads::run),
];

/// Runs the entire evaluation, in DESIGN.md order.
pub fn run_all(scale: Scale) -> Vec<Table> {
    EXPERIMENTS.iter().flat_map(|(_, run)| run(scale)).collect()
}
