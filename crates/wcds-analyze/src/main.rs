//! `wcds-analyze` — the repo's correctness gate.
//!
//! ```text
//! wcds-analyze check            # all four engines (the CI gate)
//! wcds-analyze lints [--root P] # source lints only
//! wcds-analyze callgraph        # interprocedural analyses only
//! wcds-analyze races            # store-rebuild interleaving checker
//! wcds-analyze totality         # decoder totality only
//! ```
//!
//! `check` and `callgraph` write the machine-readable findings to
//! `<root>/artifacts/analyze_findings.json` and compare them against
//! the checked-in baseline `crates/wcds-analyze/analyze_baseline.json`
//! (`--write-baseline` regenerates it after a fix shrinks the debt).
//!
//! Exit code 0 = clean, 1 = violations found, 2 = usage error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use wcds_analyze::{callgraph, lints, races, totality};

fn usage() -> ExitCode {
    eprintln!(
        "usage: wcds-analyze <check|lints|callgraph|races|totality> \
         [--root <repo-root>] [--write-baseline]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut command = None;
    let mut root = default_root();
    let mut write_baseline = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(p) => root = PathBuf::from(p),
                None => return usage(),
            },
            "--write-baseline" => write_baseline = true,
            "check" | "lints" | "callgraph" | "races" | "totality" if command.is_none() => {
                command = Some(arg.clone());
            }
            _ => return usage(),
        }
    }
    let Some(command) = command else { return usage() };

    let mut clean = true;
    if command == "check" || command == "lints" {
        clean &= run_lints(&root);
    }
    if command == "check" || command == "callgraph" {
        clean &= run_callgraph(&root, write_baseline);
    }
    if command == "check" || command == "races" {
        clean &= run_races();
    }
    if command == "check" || command == "totality" {
        clean &= run_totality();
    }
    if clean {
        println!("wcds-analyze: clean");
        ExitCode::SUCCESS
    } else {
        println!("wcds-analyze: FAILED");
        ExitCode::FAILURE
    }
}

/// Repo root when run via `cargo run -p wcds-analyze` from anywhere in
/// the workspace.
fn default_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn run_lints(root: &Path) -> bool {
    println!("== lints ({} strict files) ==", lints::STRICT_FILES.len());
    let report = match lints::run(root) {
        Ok(r) => r,
        Err(e) => {
            println!("  error reading source tree under {}: {e}", root.display());
            return false;
        }
    };
    for v in &report.violations {
        println!("  {v}");
    }
    for s in &report.suppressed {
        println!(
            "  suppressed {}:{} [{}] — {}",
            s.file, s.line, s.lint, s.justification
        );
    }
    println!(
        "  {} files scanned, {} violation(s), {} suppression(s), \
         {} panic site(s) workspace-wide (informational)",
        report.files_scanned,
        report.violations.len(),
        report.suppressed.len(),
        report.workspace_panic_sites
    );
    report.is_clean()
}

/// Path of the checked-in burn-down baseline, relative to the root.
const BASELINE_REL: &str = "crates/wcds-analyze/analyze_baseline.json";

fn run_callgraph(root: &Path, write_baseline: bool) -> bool {
    println!("== callgraph (interprocedural analyses) ==");
    let report = match callgraph::analyze(root) {
        Ok(r) => r,
        Err(e) => {
            println!("  error scanning workspace under {}: {e}", root.display());
            return false;
        }
    };
    println!(
        "  {} files, {} functions, {} call edges, {} entry points, {} reachable, {} ms",
        report.files, report.fns, report.edges, report.entries, report.reachable,
        report.elapsed_ms
    );

    // machine-readable artifact
    let artifact = root.join("artifacts").join("analyze_findings.json");
    let written = std::fs::create_dir_all(root.join("artifacts"))
        .and_then(|()| std::fs::write(&artifact, callgraph::report_json(&report).render()));
    match written {
        Ok(()) => println!("  findings artifact: {}", artifact.display()),
        Err(e) => println!("  warning: could not write {}: {e}", artifact.display()),
    }

    for s in &report.suppressed {
        println!("  suppressed {}:{} [{}] — {}", s.file, s.line, s.lint, s.justification);
    }

    let baseline_path = root.join(BASELINE_REL);
    if write_baseline {
        match std::fs::write(&baseline_path, callgraph::baseline_json(&report).render()) {
            Ok(()) => {
                println!(
                    "  baseline regenerated: {} ({} finding(s) in {} bucket(s))",
                    baseline_path.display(),
                    report.findings.len(),
                    callgraph::bucket(&report.findings).len()
                );
                return true;
            }
            Err(e) => {
                println!("  error writing {}: {e}", baseline_path.display());
                return false;
            }
        }
    }

    let baseline = match std::fs::read_to_string(&baseline_path)
        .map_err(|e| e.to_string())
        .and_then(|text| callgraph::parse_baseline(&text))
    {
        Ok(b) => b,
        Err(e) => {
            println!("  error loading baseline {}: {e}", baseline_path.display());
            return false;
        }
    };
    let diff = callgraph::compare_baseline(&report, &baseline);
    for ((analysis, kind, file, function), cur, base) in &diff.regressions {
        println!(
            "  NEW FINDING [{analysis}/{kind}] {file} fn {function}: {cur} found, {base} baselined"
        );
    }
    for f in &report.findings {
        let key = (
            f.analysis.to_string(),
            f.kind.to_string(),
            f.file.clone(),
            f.function.clone(),
        );
        if diff.regressions.iter().any(|(k, _, _)| *k == key) {
            println!("    {}:{} [{}] {}", f.file, f.line, f.analysis, f.message);
            for w in &f.witness {
                println!("      {w}");
            }
        }
    }
    for ((analysis, kind, file, function), cur, base) in &diff.stale {
        println!(
            "  STALE BASELINE [{analysis}/{kind}] {file} fn {function}: {cur} found, \
             {base} baselined — rerun with --write-baseline"
        );
    }
    println!(
        "  {} finding(s) in baseline, {} suppression(s), {} regression(s), {} stale entr(ies)",
        report.findings.len(),
        report.suppressed.len(),
        diff.regressions.len(),
        diff.stale.len()
    );
    diff.is_clean()
}

fn run_races() -> bool {
    println!("== races (store rebuild protocol) ==");
    match races::run() {
        Ok(report) => {
            for s in &report.scenarios {
                if s.schedules > 0 {
                    println!("  {:<42} {:>6} schedules, {:>7} steps", s.name, s.schedules, s.steps);
                } else {
                    println!("  {:<42} seeded bug caught", s.name);
                }
            }
            println!("  {} schedules explored, zero violations", report.total_schedules);
            true
        }
        Err(e) => {
            println!("  VIOLATION: {e}");
            false
        }
    }
}

fn run_totality() -> bool {
    println!("== totality (wire decoders) ==");
    let fuzz_ok = match totality::run() {
        Ok(report) => {
            println!(
                "  {} frames, {} accepted (all round-tripped), {} rejected with typed errors, zero panics",
                report.frames_tried, report.accepted, report.rejected
            );
            true
        }
        Err(e) => {
            println!("  VIOLATION: {e}");
            false
        }
    };
    let seeds_ok = match totality::verify_seed_tag_coverage() {
        Ok((req, resp)) => {
            println!(
                "  seed corpus covers every recognised tag: {req} request, {resp} response"
            );
            true
        }
        Err(e) => {
            println!("  VIOLATION: {e}");
            false
        }
    };
    fuzz_ok && seeds_ok
}
