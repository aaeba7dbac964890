//! Workspace call graph and the interprocedural analysis driver.
//!
//! [`scan`] parses every `crates/*/src` tree (plus the root crate's
//! `src/`) with [`crate::items`] and links call sites to workspace
//! functions. Resolution is deliberately an **over-approximation** —
//! reachability soundness beats precision for a gate:
//!
//! * `Qual::name(…)` links to workspace functions named `name` whose
//!   crate, module, file stem, or `impl` type matches `Qual`; a
//!   qualifier the workspace has never defined (`std` types, external
//!   traits) links to nothing. `Self::name(…)` resolves against the
//!   caller's `impl` type.
//! * `.name(…)` method calls link to every `impl`-block function named
//!   `name` — receiver types are unknown, so all method candidates are
//!   assumed callable (free functions are not: method syntax cannot
//!   reach them).
//! * Free `name(…)` calls prefer same-file, then same-crate, then
//!   workspace-wide matches.
//! * Every resolution is filtered by the caller crate's transitive
//!   `[dependencies]` closure (parsed from the `Cargo.toml`s) — a
//!   service function can't "call into" the benchmark harness just
//!   because a method name collides. Crates without a manifest
//!   (fixture trees) may call anything.
//!
//! The same parse feeds the strict-file lints ([`crate::lints::check`]).
//! [`analyze`] runs the three analyses ([`crate::reach`] panic
//! reachability, [`crate::lockorder`] lock-order cycles and
//! hold-across-blocking-IO) over it, and [`report_json`] renders the
//! machine-readable findings artifact. [`compare_baseline`] diffs
//! a report against the checked-in burn-down baseline, keyed by
//! `(analysis, kind, file, function)` with counts — line-free keys so
//! unrelated edits don't churn the baseline.

use crate::items::{self, FnItem, Site};
use crate::json::Json;
use crate::lexer::lex;
use crate::{lockorder, reach};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Function index into [`Workspace::fns`].
pub type FnId = usize;

/// The parsed workspace.
pub struct Workspace {
    /// Every parsed function.
    pub fns: Vec<FnItem>,
    /// Every scanned file (path relative to the scan root) with its lint
    /// sites outside every function body, which only the strict-file
    /// policy reads.
    pub files: BTreeMap<String, Vec<Site>>,
    by_name: HashMap<String, Vec<FnId>>,
    /// Every name a qualifier can legally target.
    containers: HashSet<String>,
    /// Per crate: the workspace crates it may call (its transitive
    /// `[dependencies]` closure, self included). A crate with no
    /// parsed manifest (fixture trees) has no entry and may call
    /// anything — over-approximation stays sound.
    deps: HashMap<String, HashSet<String>>,
}

/// One resolved call edge.
#[derive(Debug, Clone, Copy)]
pub struct CgEdge {
    /// Caller's call-site index (into `fns[caller].calls`).
    pub call: usize,
    /// Resolved callee.
    pub callee: FnId,
}

/// The resolved call graph: `edges[f]` are `f`'s outgoing edges.
pub struct CallGraph {
    pub edges: Vec<Vec<CgEdge>>,
    /// Total resolved edges.
    pub edge_count: usize,
}

/// Scans `root` (`crates/*/src` and, if present, the root `src/`).
///
/// # Errors
///
/// Propagates directory-walk failures; unreadable single files are
/// skipped (generated or non-UTF-8 sources are not load-bearing).
pub fn scan(root: &Path) -> io::Result<Workspace> {
    let mut sources: Vec<(String, String)> = Vec::new(); // (rel, crate)
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut names: Vec<String> = Vec::new();
        for entry in fs::read_dir(&crates_dir)? {
            let entry = entry?;
            if entry.path().join("src").is_dir() {
                if let Some(name) = entry.file_name().to_str() {
                    names.push(name.to_string());
                }
            }
        }
        names.sort();
        for name in names {
            let mut files = Vec::new();
            collect_rs(&crates_dir.join(&name).join("src"), &mut files)?;
            files.sort();
            for path in files {
                if let Ok(rel) = path.strip_prefix(root) {
                    sources.push((rel.to_string_lossy().into_owned(), name.clone()));
                }
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        let mut files = Vec::new();
        collect_rs(&root_src, &mut files)?;
        files.sort();
        for path in files {
            if let Ok(rel) = path.strip_prefix(root) {
                sources.push((rel.to_string_lossy().into_owned(), "wcds".to_string()));
            }
        }
    }

    let mut crate_names: Vec<String> =
        sources.iter().map(|(_, c)| c.clone()).collect::<HashSet<_>>().into_iter().collect();
    crate_names.sort();
    let mut ws = Workspace {
        fns: Vec::new(),
        files: BTreeMap::new(),
        by_name: HashMap::new(),
        containers: HashSet::new(),
        deps: crate_deps(root, &crate_names),
    };
    for (rel, crate_name) in sources {
        let Ok(src) = fs::read_to_string(root.join(&rel)) else { continue };
        let (fns, loose) = items::parse_file(&lex(&src), &rel, &crate_name);
        ws.fns.extend(fns);
        ws.files.insert(rel, loose);
    }
    for (id, f) in ws.fns.iter().enumerate() {
        ws.by_name.entry(f.name.clone()).or_default().push(id);
        ws.containers.extend(f.containers());
    }
    Ok(ws)
}

/// Appends every `.rs` file under `dir`, recursively, to `out`.
///
/// # Errors
///
/// I/O failure walking the tree.
pub fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Reads each crate's `Cargo.toml` `[dependencies]` section, keeps the
/// keys that name scanned workspace crates, and closes transitively.
/// The root crate (`wcds`) reads the root manifest. Crates whose
/// manifest is missing or unreadable get no entry.
fn crate_deps(root: &Path, names: &[String]) -> HashMap<String, HashSet<String>> {
    let name_set: HashSet<&str> = names.iter().map(String::as_str).collect();
    let mut direct: HashMap<String, HashSet<String>> = HashMap::new();
    for name in names {
        let manifest = if name == "wcds" {
            root.join("Cargo.toml")
        } else {
            root.join("crates").join(name).join("Cargo.toml")
        };
        let Ok(text) = fs::read_to_string(&manifest) else { continue };
        let mut in_deps = false;
        let mut found: HashSet<String> = HashSet::new();
        for line in text.lines() {
            let line = line.trim();
            if line.starts_with('[') {
                in_deps = line == "[dependencies]";
                continue;
            }
            if !in_deps {
                continue;
            }
            let key = line.split(['=', '.', ' ']).next().unwrap_or("").trim();
            if name_set.contains(key) {
                found.insert(key.to_string());
            }
        }
        found.insert(name.clone());
        direct.insert(name.clone(), found);
    }
    // transitive closure (the dep graph is a handful of crates)
    loop {
        let mut changed = false;
        for name in names {
            let Some(cur) = direct.get(name).cloned() else { continue };
            let mut grown = cur.clone();
            for dep in &cur {
                if let Some(dd) = direct.get(dep) {
                    grown.extend(dd.iter().cloned());
                }
            }
            if grown.len() != cur.len() {
                direct.insert(name.clone(), grown);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    direct
}

impl Workspace {
    /// True when `caller`'s crate may depend on `callee`'s crate.
    fn dep_allowed(&self, caller: FnId, callee: FnId) -> bool {
        let a = &self.fns[caller].crate_name;
        let b = &self.fns[callee].crate_name;
        a == b || self.deps.get(a).is_none_or(|d| d.contains(b))
    }

    /// Resolves one call site of `caller` to candidate callees.
    pub fn resolve(&self, caller: FnId, call: &items::CallSite) -> Vec<FnId> {
        if call.name == "drop" {
            return Vec::new();
        }
        let Some(candidates) = self.by_name.get(&call.name) else {
            return Vec::new();
        };
        match &call.qual {
            Some(q) if q == "Self" => {
                let Some(own) = self.fns[caller].qual.clone() else { return Vec::new() };
                candidates
                    .iter()
                    .copied()
                    .filter(|&id| self.fns[id].qual.as_deref() == Some(own.as_str()))
                    .collect()
            }
            Some(q) => {
                if !self.containers.contains(q) {
                    return Vec::new(); // std / external — out of scope
                }
                candidates
                    .iter()
                    .copied()
                    .filter(|&id| {
                        self.fns[id].containers().contains(q) && self.dep_allowed(caller, id)
                    })
                    .collect()
            }
            // method syntax reaches only `impl`-block functions in a
            // crate the caller can see — free functions are never
            // callable as `.name(…)`, and a crate outside the caller's
            // dependency closure is not linkable
            None if call.method => candidates
                .iter()
                .copied()
                .filter(|&id| self.fns[id].qual.is_some() && self.dep_allowed(caller, id))
                .collect(),
            None => {
                let same_file: Vec<FnId> = candidates
                    .iter()
                    .copied()
                    .filter(|&id| self.fns[id].file == self.fns[caller].file)
                    .collect();
                if !same_file.is_empty() {
                    return same_file;
                }
                let same_crate: Vec<FnId> = candidates
                    .iter()
                    .copied()
                    .filter(|&id| self.fns[id].crate_name == self.fns[caller].crate_name)
                    .collect();
                if !same_crate.is_empty() {
                    return same_crate;
                }
                candidates.iter().copied().filter(|&id| self.dep_allowed(caller, id)).collect()
            }
        }
    }

    /// Resolves every call site into a [`CallGraph`].
    pub fn call_graph(&self) -> CallGraph {
        let mut edges = vec![Vec::new(); self.fns.len()];
        let mut edge_count = 0usize;
        for (id, f) in self.fns.iter().enumerate() {
            let mut seen: HashSet<FnId> = HashSet::new();
            for (ci, call) in f.calls.iter().enumerate() {
                for callee in self.resolve(id, call) {
                    // keep one edge per (caller, callee) — the first
                    // call site is the witness — except calls that
                    // hold locks, which each matter for lock analyses
                    if call.held.is_empty() && !seen.insert(callee) {
                        continue;
                    }
                    edges[id].push(CgEdge { call: ci, callee });
                    edge_count += 1;
                }
            }
        }
        CallGraph { edges, edge_count }
    }

    /// `file:line` for a function's body-open line.
    pub fn site(&self, id: FnId) -> String {
        format!("{}:{}", self.fns[id].file, self.fns[id].line)
    }
}

/// One interprocedural finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisFinding {
    /// `panic-reachability`, `lock-order`, or `hold-across-io`.
    pub analysis: &'static str,
    /// Finding kind within the analysis (`panic-site`, `slice-index`,
    /// `lock-cycle`, `held-across-blocking`).
    pub kind: &'static str,
    /// Path relative to the scan root.
    pub file: String,
    /// 1-based line of the witness site.
    pub line: usize,
    /// Enclosing function (display form).
    pub function: String,
    /// What was found.
    pub message: String,
    /// Witness path: entry → … → site, one `file:line fn` per step.
    pub witness: Vec<String>,
}

/// Outcome of the full interprocedural pass.
pub struct AnalysisReport {
    /// Findings, sorted by (analysis, file, line).
    pub findings: Vec<AnalysisFinding>,
    /// Functions parsed.
    pub fns: usize,
    /// Files scanned.
    pub files: usize,
    /// Resolved call edges.
    pub edges: usize,
    /// Entry-point functions matched by [`reach::ENTRY_POINTS`].
    pub entries: usize,
    /// Functions reachable from the entry points.
    pub reachable: usize,
    /// Wall-clock for the call graph and the analyses (the scan they
    /// share with the lints is not counted).
    pub elapsed_ms: u128,
}

impl AnalysisReport {
    /// True when there is no finding.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Runs the full interprocedural pass over a scanned workspace.
pub fn analyze(ws: &Workspace) -> AnalysisReport {
    let started = Instant::now();
    let graph = ws.call_graph();
    let (entries, reachable_count, mut findings) = reach::run(ws, &graph);
    findings.extend(lockorder::run(ws, &graph));
    findings.sort_by(|a, b| {
        (a.analysis, &a.file, a.line, a.kind).cmp(&(b.analysis, &b.file, b.line, b.kind))
    });

    AnalysisReport {
        findings,
        fns: ws.fns.len(),
        files: ws.files.len(),
        edges: graph.edge_count,
        entries,
        reachable: reachable_count,
        elapsed_ms: started.elapsed().as_millis(),
    }
}

/// Renders the machine-readable findings artifact.
pub fn report_json(report: &AnalysisReport) -> Json {
    let findings = report
        .findings
        .iter()
        .map(|f| {
            Json::Obj(vec![
                ("analysis".into(), Json::Str(f.analysis.into())),
                ("kind".into(), Json::Str(f.kind.into())),
                ("file".into(), Json::Str(f.file.clone())),
                ("line".into(), Json::Num(f.line as i64)),
                ("function".into(), Json::Str(f.function.clone())),
                ("message".into(), Json::Str(f.message.clone())),
                (
                    "witness".into(),
                    Json::Arr(f.witness.iter().map(|w| Json::Str(w.clone())).collect()),
                ),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("version".into(), Json::Num(2)),
        (
            "analyses".into(),
            Json::Arr(
                ["panic-reachability", "lock-order", "hold-across-io"]
                    .iter()
                    .map(|a| Json::Str((*a).into()))
                    .collect(),
            ),
        ),
        (
            "stats".into(),
            Json::Obj(vec![
                ("files".into(), Json::Num(report.files as i64)),
                ("functions".into(), Json::Num(report.fns as i64)),
                ("call_edges".into(), Json::Num(report.edges as i64)),
                ("entry_points".into(), Json::Num(report.entries as i64)),
                ("reachable_functions".into(), Json::Num(report.reachable as i64)),
                ("elapsed_ms".into(), Json::Num(report.elapsed_ms as i64)),
            ]),
        ),
        ("findings".into(), Json::Arr(findings)),
    ])
}

/// Baseline key: one burn-down bucket.
pub type BaselineKey = (String, String, String, String); // analysis, kind, file, function

/// Groups findings into baseline buckets with counts.
pub fn bucket(findings: &[AnalysisFinding]) -> BTreeMap<BaselineKey, usize> {
    let mut out: BTreeMap<BaselineKey, usize> = BTreeMap::new();
    for f in findings {
        *out.entry((
            f.analysis.to_string(),
            f.kind.to_string(),
            f.file.clone(),
            f.function.clone(),
        ))
        .or_default() += 1;
    }
    out
}

/// Renders a report's buckets as the checked-in baseline document.
pub fn baseline_json(report: &AnalysisReport) -> Json {
    let entries = bucket(&report.findings)
        .into_iter()
        .map(|((analysis, kind, file, function), count)| {
            Json::Obj(vec![
                ("analysis".into(), Json::Str(analysis)),
                ("kind".into(), Json::Str(kind)),
                ("file".into(), Json::Str(file)),
                ("function".into(), Json::Str(function)),
                ("count".into(), Json::Num(count as i64)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("version".into(), Json::Num(1)),
        ("entries".into(), Json::Arr(entries)),
    ])
}

/// Parses a baseline document into buckets.
///
/// # Errors
///
/// Malformed JSON or a missing field.
pub fn parse_baseline(text: &str) -> Result<BTreeMap<BaselineKey, usize>, String> {
    let doc = crate::json::parse(text)?;
    let entries = doc
        .get("entries")
        .and_then(Json::as_arr)
        .ok_or("baseline: missing `entries` array")?;
    let mut out = BTreeMap::new();
    for e in entries {
        let field = |k: &str| {
            e.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("baseline entry: missing `{k}`"))
        };
        let key = (field("analysis")?, field("kind")?, field("file")?, field("function")?);
        let count = e
            .get("count")
            .and_then(Json::as_i64)
            .ok_or("baseline entry: missing `count`")?;
        *out.entry(key).or_insert(0) += count.max(0) as usize;
    }
    Ok(out)
}

/// Baseline comparison outcome.
#[derive(Debug, Default)]
pub struct BaselineDiff {
    /// Buckets with more findings than the baseline admits
    /// (key, current, baselined) — these fail the gate.
    pub regressions: Vec<(BaselineKey, usize, usize)>,
    /// Baseline buckets with fewer findings than recorded — the debt
    /// shrank and the baseline must be re-generated (kept honest by
    /// the gate test).
    pub stale: Vec<(BaselineKey, usize, usize)>,
}

impl BaselineDiff {
    /// True when the report exactly matches the baseline.
    pub fn is_clean(&self) -> bool {
        self.regressions.is_empty() && self.stale.is_empty()
    }
}

/// Diffs a report against baseline buckets.
pub fn compare_baseline(
    report: &AnalysisReport,
    baseline: &BTreeMap<BaselineKey, usize>,
) -> BaselineDiff {
    let current = bucket(&report.findings);
    let mut diff = BaselineDiff::default();
    for (key, &cur) in &current {
        let base = baseline.get(key).copied().unwrap_or(0);
        if cur > base {
            diff.regressions.push((key.clone(), cur, base));
        }
    }
    for (key, &base) in baseline {
        let cur = current.get(key).copied().unwrap_or(0);
        if cur < base {
            diff.stale.push((key.clone(), cur, base));
        }
    }
    diff
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws_from(files: &[(&str, &str, &str)]) -> Workspace {
        // (rel, crate, src)
        let mut ws = Workspace {
            fns: Vec::new(),
            files: BTreeMap::new(),
            by_name: HashMap::new(),
            containers: HashSet::new(),
            deps: HashMap::new(),
        };
        for (rel, krate, src) in files {
            let (fns, loose) = items::parse_file(&lex(src), rel, krate);
            ws.fns.extend(fns);
            ws.files.insert(rel.to_string(), loose);
        }
        for (id, f) in ws.fns.iter().enumerate() {
            ws.by_name.entry(f.name.clone()).or_default().push(id);
            ws.containers.extend(f.containers());
        }
        ws
    }

    #[test]
    fn qualified_calls_resolve_within_the_named_container() {
        let ws = ws_from(&[
            (
                "crates/a/src/lib.rs",
                "a",
                "pub fn go() { util::helper(); TcpStream::connect(addr); }\n",
            ),
            ("crates/util/src/lib.rs", "util", "pub fn helper() {}\n"),
            ("crates/b/src/lib.rs", "b", "pub fn helper() {}\n"),
        ]);
        let graph = ws.call_graph();
        let go = ws.fns.iter().position(|f| f.name == "go").unwrap();
        let callees: Vec<&str> =
            graph.edges[go].iter().map(|e| ws.fns[e.callee].crate_name.as_str()).collect();
        // util::helper links only into the util crate; TcpStream is
        // unknown to the workspace and links nowhere
        assert_eq!(callees, vec!["util"]);
    }

    #[test]
    fn method_calls_link_to_every_candidate() {
        let ws = ws_from(&[
            ("crates/a/src/lib.rs", "a", "pub fn go(x: &X) { x.apply(); }\n"),
            ("crates/b/src/lib.rs", "b", "impl Y { pub fn apply(&self) {} }\n"),
            ("crates/c/src/lib.rs", "c", "impl Z { pub fn apply(&self) {} }\n"),
        ]);
        let graph = ws.call_graph();
        let go = ws.fns.iter().position(|f| f.name == "go").unwrap();
        assert_eq!(graph.edges[go].len(), 2);
    }

    #[test]
    fn method_syntax_never_reaches_free_functions() {
        let ws = ws_from(&[
            ("crates/a/src/lib.rs", "a", "pub fn go(x: &X) { x.run(); }\n"),
            ("crates/b/src/lib.rs", "b", "pub fn run() {}\n"),
            ("crates/c/src/lib.rs", "c", "impl Z { pub fn run(&self) {} }\n"),
        ]);
        let graph = ws.call_graph();
        let go = ws.fns.iter().position(|f| f.name == "go").unwrap();
        assert_eq!(graph.edges[go].len(), 1);
        assert_eq!(ws.fns[graph.edges[go][0].callee].crate_name, "c");
    }

    #[test]
    fn resolution_respects_the_crate_dependency_closure() {
        let mut ws = ws_from(&[
            ("crates/a/src/lib.rs", "a", "pub fn go(x: &X) { x.apply(); }\n"),
            ("crates/b/src/lib.rs", "b", "impl Y { pub fn apply(&self) {} }\n"),
            ("crates/c/src/lib.rs", "c", "impl Z { pub fn apply(&self) {} }\n"),
        ]);
        // a depends only on b — the name collision in c is unlinkable
        ws.deps.insert("a".into(), ["a".to_string(), "b".to_string()].into_iter().collect());
        let graph = ws.call_graph();
        let go = ws.fns.iter().position(|f| f.name == "go").unwrap();
        assert_eq!(graph.edges[go].len(), 1);
        assert_eq!(ws.fns[graph.edges[go][0].callee].crate_name, "b");
    }

    #[test]
    fn free_calls_prefer_the_same_file() {
        let ws = ws_from(&[
            (
                "crates/a/src/lib.rs",
                "a",
                "pub fn go() { helper(); }\nfn helper() {}\n",
            ),
            ("crates/b/src/lib.rs", "b", "pub fn helper() {}\n"),
        ]);
        let graph = ws.call_graph();
        let go = ws.fns.iter().position(|f| f.name == "go").unwrap();
        assert_eq!(graph.edges[go].len(), 1);
        assert_eq!(ws.fns[graph.edges[go][0].callee].crate_name, "a");
    }

    #[test]
    fn self_calls_resolve_to_the_impl_type() {
        let ws = ws_from(&[(
            "crates/a/src/lib.rs",
            "a",
            "impl Foo { fn go(&self) { Self::helper(); } fn helper() {} }\nimpl Bar { fn helper() {} }\n",
        )]);
        let graph = ws.call_graph();
        let go = ws.fns.iter().position(|f| f.name == "go").unwrap();
        assert_eq!(graph.edges[go].len(), 1);
        assert_eq!(ws.fns[graph.edges[go][0].callee].qual.as_deref(), Some("Foo"));
    }

    #[test]
    fn baseline_round_trip_and_diff() {
        let f = |file: &str, function: &str| AnalysisFinding {
            analysis: "panic-reachability",
            kind: "slice-index",
            file: file.into(),
            line: 3,
            function: function.into(),
            message: String::new(),
            witness: Vec::new(),
        };
        let report = AnalysisReport {
            findings: vec![f("a.rs", "x"), f("a.rs", "x"), f("b.rs", "y")],
            fns: 0,
            files: 0,
            edges: 0,
            entries: 0,
            reachable: 0,
            elapsed_ms: 0,
        };
        let baseline = parse_baseline(&baseline_json(&report).render()).unwrap();
        assert!(compare_baseline(&report, &baseline).is_clean());

        // one extra finding in a known bucket → regression
        let mut more = report.findings.clone();
        more.push(f("b.rs", "y"));
        let worse = AnalysisReport { findings: more, ..report };
        let diff = compare_baseline(&worse, &baseline);
        assert_eq!(diff.regressions.len(), 1);
        assert!(diff.stale.is_empty());

        // a fixed bucket → stale baseline entry
        let better = AnalysisReport {
            findings: vec![worse.findings[0].clone(), worse.findings[1].clone()],
            ..worse
        };
        let diff = compare_baseline(&better, &baseline);
        assert!(diff.regressions.is_empty());
        assert_eq!(diff.stale.len(), 1);
    }
}
