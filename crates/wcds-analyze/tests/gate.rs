//! The acceptance gate: the real tree is clean, and the gate actually
//! bites when a forbidden construct is injected — lexically (the
//! injection tests) and interprocedurally (the planted-defect fixture
//! trees under `fixtures/`).

use std::collections::BTreeMap;
use std::path::PathBuf;
use wcds_analyze::{callgraph, lexer, lints, reach, totality};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn fixture_root(tree: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(tree)
}

#[test]
fn the_real_tree_is_lint_clean() {
    let report = lints::run(&repo_root()).expect("source tree readable");
    assert!(
        report.is_clean(),
        "violations in the real tree:\n{}",
        report
            .violations
            .iter()
            .map(|v| format!("  {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert_eq!(report.files_scanned, lints::STRICT_FILES.len());
    // no strict file carries a suppression: a new pragma anywhere in
    // the strict set forces this test (and the exemption audit) to be
    // revisited
    assert!(
        report.suppressed.is_empty(),
        "a strict file carries a suppression — update the audit: {:?}",
        report.suppressed
    );
}

#[test]
fn an_injected_unwrap_in_protocol_rs_is_caught_with_file_and_line() {
    let path = repo_root().join("crates/wcds-service/src/protocol.rs");
    let src = std::fs::read_to_string(&path).expect("protocol.rs readable");
    // inject a forbidden unwrap into the take() helper, in memory
    let poisoned = src.replacen(
        "self.pos = end;",
        "self.pos = end;\n        let _ = self.buf.first().unwrap();",
        1,
    );
    assert_ne!(poisoned, src, "injection anchor not found in protocol.rs");
    let injected_line = 1 + poisoned
        .lines()
        .position(|l| l.contains("self.buf.first().unwrap()"))
        .expect("injected line present");

    let (violations, _) =
        lints::scan_source(&poisoned, "crates/wcds-service/src/protocol.rs", false);
    assert!(
        violations.iter().any(|v| v.lint == "panic-site"
            && v.line == injected_line
            && v.file.ends_with("protocol.rs")),
        "injected unwrap not reported at line {injected_line}: {violations:?}"
    );
    // the report renders as file:line for editor navigation
    let rendered = violations
        .iter()
        .find(|v| v.lint == "panic-site")
        .map(ToString::to_string)
        .unwrap_or_default();
    assert!(
        rendered.starts_with(&format!(
            "crates/wcds-service/src/protocol.rs:{injected_line}:"
        )),
        "unexpected rendering: {rendered}"
    );
}

#[test]
fn an_injected_nested_lock_in_store_rs_is_caught() {
    let path = repo_root().join("crates/wcds-service/src/store.rs");
    let src = std::fs::read_to_string(&path).expect("store.rs readable");
    // acquire the name-map lock while the topology guard is live
    let poisoned = src.replacen(
        "let mut topo = write_guard(&entry.topo)?;",
        "let mut topo = write_guard(&entry.topo)?;\n        \
         let _peek = read_guard(&self.topologies)?;",
        1,
    );
    assert_ne!(poisoned, src, "injection anchor not found in store.rs");
    let (violations, _) =
        lints::scan_source(&poisoned, "crates/wcds-service/src/store.rs", true);
    assert!(
        violations
            .iter()
            .any(|v| v.lint == "nested-lock" && v.message.contains("topo")),
        "injected nested acquisition not reported: {violations:?}"
    );
}

/// The golden snapshot: every planted defect in the defective fixture
/// tree is caught, attributed to the exact file, line, and analysis,
/// and nothing else is reported.
#[test]
fn all_planted_fixture_defects_are_caught_and_attributed() {
    let report = callgraph::analyze(&fixture_root("defective")).expect("fixture tree readable");
    let got: Vec<(String, usize, &str, &str)> = report
        .findings
        .iter()
        .map(|f| (f.file.clone(), f.line, f.analysis, f.kind))
        .collect();
    let want: Vec<(String, usize, &str, &str)> = vec![
        // refresh holds `topo` across util::drain's channel recv
        ("crates/store/src/store.rs".into(), 68, "hold-across-io", "held-across-blocking"),
        // pump writes the socket under the connection-state mutex
        ("crates/wire/src/server.rs".into(), 22, "hold-across-io", "held-across-blocking"),
        // promote/demote disagree on the topo/published order
        ("crates/store/src/store.rs".into(), 51, "lock-order", "lock-cycle"),
        // flush→audit vs rotate→snapshot: cache⇄journal through calls
        ("crates/store/src/store.rs".into(), 58, "lock-order", "lock-cycle"),
        // decode → util::header_tag unwraps on a truncated frame
        ("crates/util/src/lib.rs".into(), 16, "panic-reachability", "panic-site"),
        // mutate → util::checksum walks one past the end
        ("crates/util/src/lib.rs".into(), 25, "panic-reachability", "slice-index"),
    ];
    assert_eq!(got, want, "fixture findings diverged from the golden snapshot");

    // defects planted in `util` must carry a witness path that starts
    // at the *entry point* in another crate — attribution, not just
    // detection
    for f in report.findings.iter().filter(|f| f.analysis == "panic-reachability") {
        assert!(
            f.witness.first().is_some_and(|w| w.starts_with("entry ")),
            "reachability witness must begin at the entry: {:?}",
            f.witness
        );
        assert!(
            f.witness.len() >= 2,
            "cross-crate defect needs a multi-hop witness: {:?}",
            f.witness
        );
    }
    // both lock-cycle findings name the full cycle
    let cycles: Vec<&str> = report
        .findings
        .iter()
        .filter(|f| f.kind == "lock-cycle")
        .map(|f| f.message.as_str())
        .collect();
    assert!(cycles.iter().any(|m| m.contains("published") && m.contains("topo")));
    assert!(cycles.iter().any(|m| m.contains("cache") && m.contains("journal")));

    // the justified-pragma escape hatch works inside fixtures too: the
    // read_frame unwrap is suppressed, audited, and not a finding
    assert_eq!(report.suppressed.len(), 1, "exactly one fixture suppression");
    let s = &report.suppressed[0];
    assert!(s.file.ends_with("wire/src/protocol.rs") && s.lint == "panic-site");
}

/// Negative control: the clean tree mirrors every defective shape
/// (scoped guards, consistent lock order, condvar hand-off, totalised
/// helpers) and must produce nothing at all.
#[test]
fn the_clean_fixture_tree_reports_nothing() {
    let report = callgraph::analyze(&fixture_root("clean")).expect("fixture tree readable");
    assert!(
        report.findings.is_empty(),
        "clean tree produced findings:\n{}",
        report
            .findings
            .iter()
            .map(|f| format!("  {}:{} [{}] {}", f.file, f.line, f.analysis, f.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(report.suppressed.is_empty(), "clean tree needs no pragmas");
    // same entry-point table drives both trees
    assert_eq!(report.entries, 3, "decode, read_frame, and mutate match the entry table");
}

/// The real tree matches the checked-in burn-down baseline exactly —
/// no new findings, no stale entries — and holds the structural
/// invariants the analyses depend on.
#[test]
fn the_real_tree_matches_the_analyzer_baseline() {
    let started = std::time::Instant::now();
    let report = callgraph::analyze(&repo_root()).expect("workspace readable");
    let baseline_text =
        std::fs::read_to_string(repo_root().join("crates/wcds-analyze/analyze_baseline.json"))
            .expect("checked-in baseline present");
    let baseline = callgraph::parse_baseline(&baseline_text).expect("baseline parses");
    let diff = callgraph::compare_baseline(&report, &baseline);
    assert!(
        diff.regressions.is_empty(),
        "new findings above the baseline:\n{:#?}",
        diff.regressions
    );
    assert!(
        diff.stale.is_empty(),
        "baseline is stale (debt shrank) — rerun `wcds-analyze callgraph --write-baseline`:\n{:#?}",
        diff.stale
    );

    // every wire entry point in the table exists in the tree — a
    // rename would silently unroot the reachability analysis
    assert_eq!(
        report.entries,
        reach::ENTRY_POINTS.len(),
        "entry-point table out of sync with the source tree"
    );
    // the burn-down is slice-index debt only: every reachable panic
    // site has been fixed or justified, and no lock-order cycle exists
    assert!(
        report.findings.iter().all(|f| f.kind == "slice-index"),
        "non-slice-index findings appeared: {:?}",
        report
            .findings
            .iter()
            .filter(|f| f.kind != "slice-index")
            .map(|f| format!("{}:{} [{}]", f.file, f.line, f.kind))
            .collect::<Vec<_>>()
    );
    // the analyzer suppression set is pinned like the lexical one:
    // the worker pool's receiver-sharing mutex — nothing else
    assert_eq!(report.suppressed.len(), 1, "suppression count moved: {:?}", report.suppressed);
    assert!(
        report
            .suppressed
            .iter()
            .all(|s| s.lint == "hold-across-io" && s.file.ends_with("server.rs")),
        "unexpected analyzer suppression: {:?}",
        report.suppressed
    );
    // the whole interprocedural pass stays interactive — CI budget
    let elapsed = started.elapsed();
    assert!(elapsed.as_secs() < 10, "analyze took {elapsed:?}, budget is 10 s");
}

/// Per-lint pragma budgets over the whole workspace: a new suppression
/// anywhere — strict files or not — fails this test with the full
/// justification diff, forcing the budget (and the audit) to move in
/// the same commit.
#[test]
fn workspace_pragma_budgets_are_pinned_per_lint() {
    let census = lints::pragma_census(&repo_root()).expect("workspace readable");
    let mut by_lint: BTreeMap<&str, Vec<String>> = BTreeMap::new();
    for s in &census {
        by_lint
            .entry(s.lint.as_str())
            .or_default()
            .push(format!("{}:{} — {}", s.file, s.line, s.justification));
    }
    // budgets count pragma *lines*, not suppressed findings — one
    // pragma covers every finding on its line
    let budgets: &[(&str, usize)] = &[
        ("panic-site", 0),
        ("slice-index", 0),
        ("as-truncation", 0),
        ("nested-lock", 0),
        ("lock-order", 0),
        ("hold-across-io", 1),
    ];
    for &(lint, budget) in budgets {
        let have = by_lint.get(lint).map_or(&[][..], Vec::as_slice);
        assert_eq!(
            have.len(),
            budget,
            "pragma budget for `{lint}` is {budget}, found {}:\n{}",
            have.len(),
            have.join("\n")
        );
    }
    // no pragma outside the budgeted lint vocabulary
    let total: usize = budgets.iter().map(|&(_, b)| b).sum();
    assert_eq!(
        census.len(),
        total,
        "a pragma with an unbudgeted lint name exists: {:?}",
        census
            .iter()
            .filter(|s| !budgets.iter().any(|&(l, _)| l == s.lint))
            .collect::<Vec<_>>()
    );
    // justifications are load-bearing prose, not placeholders
    for s in &census {
        assert!(
            s.justification.trim().len() >= 15,
            "suppression at {}:{} has a throwaway justification: {:?}",
            s.file,
            s.line,
            s.justification
        );
    }
}

/// `(section, key, value)` for every `key = value` line of a Cargo
/// manifest — enough TOML to read its lint tables.
fn manifest_entries(text: &str) -> Vec<(String, String, String)> {
    let mut section = String::new();
    let mut entries = Vec::new();
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            section = name.trim().to_string();
        } else if let Some((key, value)) = line.split_once('=') {
            let value = value.trim().trim_matches('"');
            entries.push((section.clone(), key.trim().to_string(), value.to_string()));
        }
    }
    entries
}

/// The `unsafe` policy in the root `Cargo.toml` and DESIGN.md §9.6
/// names exactly two islands, and the code agrees: every package
/// manifest keeps `unsafe_code` denied (by inheriting the workspace
/// lints or denying it in its own table), and every mention of the
/// lint in workspace code (comments and strings masked out) is an
/// `#[allow(unsafe_code)]` on one of those two module declarations.
/// A third island fails here.
#[test]
fn unsafe_code_is_allowed_only_on_the_two_sanctioned_modules() {
    let root = repo_root();
    let crates: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .expect("crates/ readable")
        .map(|k| k.expect("crate dir readable").path())
        .collect();

    let denies = |v: &str| v == "deny" || v == "forbid";
    let workspace = std::fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    assert!(
        manifest_entries(&workspace)
            .iter()
            .any(|(s, k, v)| s == "workspace.lints.rust" && k == "unsafe_code" && denies(v)),
        "the workspace lint table no longer denies unsafe_code"
    );
    let mut manifests = vec![root.join("Cargo.toml")];
    manifests.extend(crates.iter().map(|k| k.join("Cargo.toml")));
    for manifest in &manifests {
        let rel = manifest.strip_prefix(&root).unwrap_or(manifest).display().to_string();
        let entries = manifest_entries(&std::fs::read_to_string(manifest).expect("manifest"));
        for (s, k, v) in &entries {
            if k.ends_with("unsafe_code") {
                assert!(denies(v), "{rel}: [{s}] {k} = {v}");
            }
        }
        let inherits =
            entries.iter().any(|(s, k, v)| s == "lints" && k == "workspace" && v == "true");
        let own_deny =
            entries.iter().any(|(s, k, v)| s == "lints.rust" && k == "unsafe_code" && denies(v));
        assert!(inherits || own_deny, "{rel}: unsafe_code is not denied for this package");
    }

    // every compiled tree: each crate's src/ and tests/ (not the
    // analyzer's never-compiled fixtures), plus the facade's
    let mut dirs = vec![root.join("src"), root.join("tests"), root.join("examples")];
    for krate in &crates {
        dirs.extend([krate.join("src"), krate.join("tests")]);
    }
    let mut files = Vec::new();
    for dir in dirs.iter().filter(|d| d.is_dir()) {
        lints::collect_rs(dir, &mut files).expect("source tree readable");
    }
    let mut islands = Vec::new();
    for path in &files {
        let src = std::fs::read_to_string(path).expect("source readable");
        let masked = lexer::lex(&src).masked;
        let lines: Vec<&str> = masked.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            let mut idents = line.split(|c: char| !(c.is_alphanumeric() || c == '_'));
            if !idents.any(|t| t == "unsafe_code") {
                continue;
            }
            let rel = path.strip_prefix(&root).unwrap_or(path).to_string_lossy().into_owned();
            assert_eq!(
                line.trim(),
                "#[allow(unsafe_code)]",
                "{rel}:{}: `unsafe_code` outside a plain module-level allow",
                i + 1
            );
            let item = lines[i + 1..].iter().map(|l| l.trim()).find(|l| !l.is_empty());
            islands.push(format!("{rel}: {}", item.unwrap_or("")));
        }
    }
    islands.sort();
    assert_eq!(
        islands,
        [
            "crates/wcds-graph/src/lib.rs: mod scratch;",
            "crates/wcds-service/src/lib.rs: mod sys;",
        ],
        "the unsafe islands changed — update Cargo.toml, DESIGN.md §9.6 and this pin"
    );
}

/// The seed corpus keeps pace with the protocol: every tag either
/// decoder recognises has a canonical seed (probed, not hand-listed).
#[test]
fn totality_seeds_cover_the_full_tag_range() {
    match totality::verify_seed_tag_coverage() {
        Ok((req, resp)) => {
            assert_eq!((req, resp), (13, 15), "protocol tag ranges moved — update the pins");
        }
        Err(e) => panic!("{e}"),
    }
}

#[test]
fn decoders_are_total_over_the_candidate_set() {
    let report = totality::run().unwrap_or_else(|e| panic!("totality: {e}"));
    assert!(report.frames_tried > 65_000);
    assert_eq!(
        report.accepted + report.rejected,
        2 * report.frames_tried,
        "every candidate must hit both decoders"
    );
}
