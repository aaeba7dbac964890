//! Experiment dispatcher; see DESIGN.md §5.
//!
//! `expt <name> [--quick | --full]` prints one experiment's tables,
//! `expt all` prints the entire reproduced evaluation, and
//! `expt render_figures` writes the paper-style figures as SVG artifacts
//! into ./artifacts. Without `--quick` the experiments run at paper
//! scale. A missing or unknown name, or any other argument, prints the
//! list of names and exits with status 2.

use wcds_bench::experiments::{self, figures, EXPERIMENTS};
use wcds_bench::util::parse_args;

fn main() {
    let (scale, name) = parse_args(std::env::args().skip(1), true).unwrap_or_else(|e| usage(&e));
    match name.as_deref() {
        Some("all") => {
            println!("# WCDS paper evaluation — full reproduction ({scale:?} scale)\n");
            for table in experiments::run_all(scale) {
                println!("{table}");
            }
        }
        Some("render_figures") => render_figures(),
        Some(name) => match EXPERIMENTS.iter().find(|(n, _)| *n == name) {
            Some((_, run)) => {
                for table in run(scale) {
                    println!("{table}");
                }
            }
            None => usage(&format!("unknown experiment `{name}`")),
        },
        None => usage("missing experiment name"),
    }
}

fn render_figures() {
    match figures::write_figure_svgs(std::path::Path::new("artifacts")) {
        Ok(paths) => {
            for p in paths {
                println!("wrote {}", p.display());
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn usage(problem: &str) -> ! {
    eprintln!("error: {problem}\nusage: expt <name> [--quick | --full]\nnames:");
    for name in EXPERIMENTS
        .iter()
        .map(|(n, _)| *n)
        .chain(["all", "render_figures"])
    {
        eprintln!("  {name}");
    }
    std::process::exit(2);
}
