//! The acceptance gate: the real tree is clean, and the gate actually
//! bites when a forbidden construct is injected — into a strict file
//! (the injection tests) and interprocedurally (the planted-defect
//! fixture trees under `fixtures/`).

use std::path::{Path, PathBuf};
use wcds_analyze::callgraph::{self, Workspace};
use wcds_analyze::{lexer, lints, reach, totality};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn fixture_root(tree: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(tree)
}

fn scan(root: &Path) -> Workspace {
    callgraph::scan(root).expect("source tree readable")
}

/// Reads the strict file `rel`, applies `anchor → replacement` once,
/// and returns the poisoned source with the strict policy's findings.
fn inject(rel: &str, anchor: &str, replacement: &str) -> (String, Vec<lints::Finding>) {
    let src = std::fs::read_to_string(repo_root().join(rel)).expect("strict file readable");
    let poisoned = src.replacen(anchor, replacement, 1);
    assert_ne!(poisoned, src, "injection anchor not found in {rel}");
    let nested_lock = lints::STRICT_FILES.iter().any(|&(f, nested)| f == rel && nested);
    let findings = lints::scan_source(&poisoned, rel, nested_lock);
    (poisoned, findings)
}

/// 1-based line of the first line of `src` containing `needle`.
fn line_of(src: &str, needle: &str) -> usize {
    1 + src.lines().position(|l| l.contains(needle)).expect("injected line present")
}

#[test]
fn the_real_tree_is_lint_clean() {
    let report = lints::check(&scan(&repo_root()));
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
}

#[test]
fn an_injected_unwrap_in_protocol_rs_is_caught_with_file_and_line() {
    // inject a forbidden unwrap into the take() helper, in memory
    let (poisoned, violations) = inject(
        "crates/wcds-service/src/protocol.rs",
        "self.pos = end;",
        "self.pos = end;\n        let _ = self.buf.first().unwrap();",
    );
    let injected_line = line_of(&poisoned, "self.buf.first().unwrap()");
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
    // acquire the name-map lock while the topology guard is live
    let (_, violations) = inject(
        "crates/wcds-service/src/store.rs",
        "let mut topo = write_guard(&entry.topo)?;",
        "let mut topo = write_guard(&entry.topo)?;\n        \
         let _peek = read_guard(&self.topologies)?;",
    );
    assert!(
        violations
            .iter()
            .any(|v| v.lint == "nested-lock" && v.message.contains("topo")),
        "injected nested acquisition not reported: {violations:?}"
    );
}

#[test]
fn a_guard_bound_through_map_err_stays_held() {
    let (poisoned, violations) = inject(
        "crates/wcds-service/src/store.rs",
        "let mut topo = write_guard(&entry.topo)?;",
        "let mut topo = entry\n            .topo\n            .write()\n            \
         .map_err(|_| err(ErrorCode::Internal, \"lock poisoned by a panicked writer\"))?;\n        \
         let _peek = read_guard(&self.topologies)?;",
    );
    let line = line_of(&poisoned, "let _peek = read_guard(&self.topologies)?;");
    assert!(
        violations
            .iter()
            .any(|v| v.lint == "nested-lock" && v.line == line && v.message.contains("topo")),
        "acquisition under a map_err-bound guard not reported at line {line}: {violations:?}"
    );
}

#[test]
fn an_allow_comment_suppresses_nothing() {
    let (poisoned, violations) = inject(
        "crates/wcds-service/src/protocol.rs",
        "self.pos = end;",
        "self.pos = end;\n        \
         // analyze: allow(panic-site, \"the buffer is non-empty once take() succeeds\")\n        \
         let _ = self.buf.first().unwrap();",
    );
    let line = line_of(&poisoned, "self.buf.first().unwrap()");
    assert!(
        violations.iter().any(|v| v.lint == "panic-site" && v.line == line),
        "unwrap under an allow comment not reported at line {line}: {violations:?}"
    );
}

#[test]
fn an_injected_narrowing_cast_is_caught_at_its_line() {
    let (poisoned, violations) = inject(
        "crates/wcds-graph/src/io.rs",
        "    let text = std::str::from_utf8(bytes)",
        "    let _len = bytes.len() as u32;\n    let text = std::str::from_utf8(bytes)",
    );
    let line = line_of(&poisoned, "bytes.len() as u32");
    assert_eq!(
        violations.iter().map(|v| (v.line, v.lint.as_str())).collect::<Vec<_>>(),
        [(line, "as-truncation")]
    );
}

#[test]
fn a_panic_site_outside_every_function_body_is_caught() {
    let (poisoned, violations) = inject(
        "crates/wcds-service/src/protocol.rs",
        "pub const MAX_FRAME_LEN: usize = 64 << 20;",
        "pub const MAX_FRAME_LEN: usize = 64 << 20;\n\n\
         static LOOPBACK: std::sync::LazyLock<std::net::SocketAddr> =\n    \
         std::sync::LazyLock::new(|| \"127.0.0.1:0\".parse().unwrap());",
    );
    let line = line_of(&poisoned, ".parse().unwrap()");
    assert_eq!(
        violations.iter().map(|v| (v.line, v.lint.as_str())).collect::<Vec<_>>(),
        [(line, "panic-site")]
    );
}

#[test]
fn a_strict_file_the_scan_never_found_is_a_policy_violation() {
    // the fixture trees hold none of the strict files
    let report = lints::check(&scan(&fixture_root("clean")));
    assert_eq!(report.files_scanned, 0);
    let missing: Vec<&str> = report
        .violations
        .iter()
        .filter(|v| v.lint == "policy" && v.line == 0)
        .map(|v| v.file.as_str())
        .collect();
    let strict: Vec<&str> = lints::STRICT_FILES.iter().map(|&(f, _)| f).collect();
    assert_eq!(missing, strict);
}

/// The golden snapshot: every planted defect in the defective fixture
/// tree is caught, attributed to the exact file, line, and analysis,
/// and nothing else is reported.
#[test]
fn all_planted_fixture_defects_are_caught_and_attributed() {
    let report = callgraph::analyze(&scan(&fixture_root("defective")));
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
}

/// Negative control: the clean tree mirrors every defective shape
/// (scoped guards, consistent lock order, condvar hand-off, totalised
/// helpers) and must produce nothing at all.
#[test]
fn the_clean_fixture_tree_reports_nothing() {
    let report = callgraph::analyze(&scan(&fixture_root("clean")));
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
    // same entry-point table drives both trees
    assert_eq!(report.entries, 3, "decode, read_frame, and mutate match the entry table");
}

/// The real tree matches the checked-in burn-down baseline exactly —
/// no new findings, no stale entries — and holds the structural
/// invariants the analyses depend on.
#[test]
fn the_real_tree_matches_the_analyzer_baseline() {
    let started = std::time::Instant::now();
    let ws = scan(&repo_root());
    let report = callgraph::analyze(&ws);
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
        "baseline is stale (debt shrank) — rerun `wcds-analyze check --write-baseline`:\n{:#?}",
        diff.stale
    );

    // every row of the wire entry-point table matches a function in
    // the tree — a rename would silently unroot the reachability
    // analysis. Checked row by row: one row can match several
    // functions (`decode` is both `Request::decode` and
    // `Response::decode`), so a count of matched functions cannot tell
    assert_eq!(reach::unmatched_rows(&ws), [], "entry-point rows that match no function");
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
    // the whole interprocedural pass stays interactive — CI budget
    let elapsed = started.elapsed();
    assert!(elapsed.as_secs() < 10, "analyze took {elapsed:?}, budget is 10 s");
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
        callgraph::collect_rs(dir, &mut files).expect("source tree readable");
    }
    let mut islands = Vec::new();
    for path in &files {
        let src = std::fs::read_to_string(path).expect("source readable");
        let masked = lexer::lex(&src);
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
