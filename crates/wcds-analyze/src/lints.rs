//! The strict-file policy for the wire-facing modules.
//!
//! Four lints read off the one parse that [`crate::callgraph::scan`]
//! makes of the workspace ([`crate::items`]), for the modules that
//! parse or serve untrusted bytes and the compute modules the service
//! runs on every request:
//!
//! * **panic-site** — `.unwrap()`, `.expect(`, `panic!`,
//!   `unreachable!`, `todo!`, `unimplemented!`. A decoder or server
//!   loop must degrade to a typed error, never abort a worker.
//! * **slice-index** — `x[i]` indexing (which panics out of bounds)
//!   instead of `get`/`get_mut`.
//! * **as-truncation** — `as u8/u16/u32/i8/i16/i32`: silent
//!   truncation of a value that may carry an attacker-chosen length.
//!   Widening casts (`as u64`, `as usize`, `as f64`) are allowed.
//! * **nested-lock** — (store.rs only) acquiring a lock while another
//!   guard is still live in the same function, under the item parser's
//!   guard model — the shape that deadlocks the store under contention.
//!
//! The policy is a filter: every site the line scanners below find in a
//! strict file is a violation, inside a function body or outside one (a
//! `static` initializer), and there is no suppression syntax.
//! `#[cfg(test)]` regions are exempt: tests may unwrap.

use crate::callgraph::Workspace;
use crate::items::{self, FnItem, Site};
use crate::lexer::lex;
use std::fmt;

/// Files under the strict policy, relative to the repo root. The bool
/// marks the one file that additionally runs the nested-lock lint.
///
/// The dynamic-graph and region-repair modules are strict because the
/// service mutation path runs them on every request: a panic there
/// kills a store worker while it holds the topology write lock. The
/// threaded-construction module (`partition.rs`) is strict for the same
/// reason: the service's mobile-ingest path runs its bridge sweep on
/// every `create`, on spawned threads where a panic poisons the join.
pub const STRICT_FILES: [(&str, bool); 10] = [
    ("crates/wcds-service/src/protocol.rs", false),
    ("crates/wcds-service/src/server.rs", false),
    // the readiness event loop multiplexes every connection on one
    // thread — a panic there takes the whole serving plane down, not
    // one worker, so it gets the same policy as the dispatcher
    ("crates/wcds-service/src/eventloop.rs", false),
    ("crates/wcds-service/src/store.rs", true),
    ("crates/wcds-service/src/client.rs", false),
    ("crates/wcds-graph/src/io.rs", false),
    ("crates/wcds-graph/src/dynamic.rs", false),
    ("crates/wcds-core/src/maintenance/region.rs", false),
    ("crates/wcds-core/src/partition.rs", false),
    // the store's harden/heal path rebuilds resilient backbones while
    // topology locks may be queued behind it — same blast radius as
    // the maintenance modules
    ("crates/wcds-core/src/resilient.rs", false),
];

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path relative to the repo root.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Lint name, or `policy` for a strict file the scan did not find.
    pub lint: String,
    /// What was found.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.lint, self.message)
    }
}

/// Outcome of a lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Violations (empty for a clean tree).
    pub violations: Vec<Finding>,
    /// Strict-policy files scanned.
    pub files_scanned: usize,
    /// Informational: panic sites in *all* workspace non-test code
    /// (not gated — tracks the burn-down).
    pub workspace_panic_sites: usize,
}

impl LintReport {
    /// True when no violation was found.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Runs the strict policy over a scanned workspace. A strict file the
/// scan did not find is a `policy` violation.
pub fn check(ws: &Workspace) -> LintReport {
    let mut report = LintReport::default();
    for (rel, nested_lock) in STRICT_FILES {
        let Some(loose) = ws.files.get(rel) else {
            report.violations.push(Finding {
                file: rel.to_string(),
                line: 0,
                lint: "policy".into(),
                message: "strict-policy file missing or unreadable".into(),
            });
            continue;
        };
        report.files_scanned += 1;
        let fns: Vec<&FnItem> = ws.fns.iter().filter(|f| f.file == rel).collect();
        report.violations.extend(file_violations(rel, nested_lock, &fns, loose));
    }
    let fn_sites = ws.fns.iter().flat_map(|f| &f.sites);
    report.workspace_panic_sites =
        fn_sites.chain(ws.files.values().flatten()).filter(|s| s.lint == "panic-site").count();
    report
}

/// Runs the strict policy over one file's source text, as [`check`]
/// does for a scanned file at `rel`.
pub fn scan_source(src: &str, rel: &str, nested_lock: bool) -> Vec<Finding> {
    let (fns, loose) = items::parse_file(&lex(src), rel, "");
    file_violations(rel, nested_lock, &fns.iter().collect::<Vec<_>>(), &loose)
}

/// Every site of one strict file's functions and of its code outside
/// them, plus (with `nested_lock`) every acquisition made while a guard
/// is held, sorted by line.
fn file_violations(rel: &str, nested_lock: bool, fns: &[&FnItem], loose: &[Site]) -> Vec<Finding> {
    let finding = |line: usize, lint: &str, message: String| Finding {
        file: rel.to_string(),
        line,
        lint: lint.to_string(),
        message,
    };
    let sites = fns.iter().flat_map(|f| &f.sites).chain(loose);
    let mut out: Vec<Finding> = sites.map(|s| finding(s.line, s.lint, s.message.clone())).collect();
    if nested_lock {
        for a in fns.iter().flat_map(|f| &f.acquires).filter(|a| !a.held.is_empty()) {
            let message = format!(
                "acquires `{}` while `{}` is still held — \
                 nested acquisition deadlocks under contention",
                a.class,
                a.held.join("`, `")
            );
            out.push(finding(a.line, "nested-lock", message));
        }
    }
    // stable: a line's sites keep their scan order, then its lock
    out.sort_by_key(|f| f.line);
    out
}

// ---------------------------------------------------------------------
// individual lints (all operate on one masked line)

pub(crate) fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Byte offsets of word-bounded occurrences of `word` in `line`.
fn word_positions(line: &str, word: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(off) = line[from..].find(word) {
        let at = from + off;
        let before_ok = line[..at].chars().next_back().is_none_or(|c| !is_ident(c));
        let after_ok =
            line[at + word.len()..].chars().next().is_none_or(|c| !is_ident(c));
        if before_ok && after_ok {
            out.push(at);
        }
        from = at + word.len();
    }
    out
}

fn prev_non_ws(line: &str, at: usize) -> Option<char> {
    line[..at].chars().rev().find(|c| !c.is_whitespace())
}

fn next_non_ws(line: &str, from: usize) -> Option<char> {
    line[from..].chars().find(|c| !c.is_whitespace())
}

pub(crate) fn scan_panic_sites(line: &str, line_no: usize, out: &mut Vec<Site>) {
    for method in ["unwrap", "expect"] {
        for at in word_positions(line, method) {
            if prev_non_ws(line, at) == Some('.')
                && next_non_ws(line, at + method.len()) == Some('(')
            {
                out.push(Site {
                    line: line_no,
                    lint: "panic-site",
                    message: format!(
                        ".{method}() panics on the error path — return a typed error"
                    ),
                });
            }
        }
    }
    for mac in ["panic", "unreachable", "todo", "unimplemented"] {
        for at in word_positions(line, mac) {
            if next_non_ws(line, at + mac.len()) == Some('!') {
                out.push(Site {
                    line: line_no,
                    lint: "panic-site",
                    message: format!("{mac}! aborts the worker — return a typed error"),
                });
            }
        }
    }
}

/// Keywords after which a `[` opens an array/slice literal or pattern,
/// not an index expression.
const NON_INDEX_KEYWORDS: [&str; 22] = [
    "let", "in", "if", "else", "match", "return", "mut", "while", "for", "loop",
    "move", "ref", "break", "const", "static", "as", "impl", "dyn", "where",
    "use", "pub", "fn",
];

pub(crate) fn scan_slice_index(line: &str, line_no: usize, out: &mut Vec<Site>) {
    for (at, c) in line.char_indices() {
        if c != '[' {
            continue;
        }
        let Some(prev) = prev_non_ws(line, at) else { continue };
        let indexes_into = match prev {
            ')' | ']' | '?' => true,
            p if is_ident(p) => {
                // extract the word ending at `prev` (ASCII source)
                let head = line[..at].trim_end();
                let start = head
                    .char_indices()
                    .rev()
                    .take_while(|&(_, c)| is_ident(c))
                    .last()
                    .map_or(0, |(i, _)| i);
                let word = &head[start..];
                // a lifetime (`&'a [u8]`) is a type position, not an index
                let lifetime = head[..start].ends_with('\'');
                !lifetime && !NON_INDEX_KEYWORDS.contains(&word)
            }
            _ => false,
        };
        if indexes_into {
            out.push(Site {
                line: line_no,
                lint: "slice-index",
                message: "indexing panics out of bounds — use .get()/.get_mut()".into(),
            });
        }
    }
}

/// Narrow integer targets a hostile length could silently truncate to.
const NARROW_CASTS: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];

pub(crate) fn scan_as_truncation(line: &str, line_no: usize, out: &mut Vec<Site>) {
    for at in word_positions(line, "as") {
        let rest = line[at + 2..].trim_start();
        let target: String = rest.chars().take_while(|&c| is_ident(c)).collect();
        if NARROW_CASTS.contains(&target.as_str()) {
            out.push(Site {
                line: line_no,
                lint: "as-truncation",
                message: format!(
                    "`as {target}` silently truncates — use {target}::try_from"
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------
// test-region exclusion

/// 1-based lines inside `#[cfg(test)] mod … { … }` regions of a
/// masked file.
pub(crate) fn test_region_lines(masked: &str) -> std::collections::BTreeSet<usize> {
    let mut excluded = std::collections::BTreeSet::new();
    let mut from = 0usize;
    while let Some(off) = masked[from..].find("#[cfg(test)]") {
        let attr_at = from + off;
        let mut i = attr_at + "#[cfg(test)]".len();
        // advance to the region's opening brace; a `;` first means a
        // brace-less item (e.g. `mod tests;`) — nothing to exclude
        let Some(body_off) = masked[i..].find(['{', ';']) else { break };
        i += body_off;
        from = i;
        if masked[i..].starts_with(';') {
            continue;
        }
        let open_line = 1 + masked[..i].matches('\n').count();
        let mut depth = 0usize;
        let mut end = masked.len();
        for (j, c) in masked[i..].char_indices() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = i + j;
                        break;
                    }
                }
                _ => {}
            }
        }
        let close_line = 1 + masked[..end].matches('\n').count();
        // the attribute's own line through the closing brace
        let attr_line = 1 + masked[..attr_at].matches('\n').count();
        excluded.extend(attr_line.min(open_line)..=close_line);
        from = end;
    }
    excluded
}

#[cfg(test)]
mod tests {
    use super::*;

    fn violations(src: &str) -> Vec<Finding> {
        scan_source(src, "test.rs", true)
    }

    #[test]
    fn unwrap_and_expect_calls_are_flagged() {
        let v = violations("fn f(x: Option<u8>) -> u8 { x.unwrap() }\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, "panic-site");
        assert_eq!(v[0].line, 1);
        let v = violations("fn f(x: Option<u8>) -> u8 {\n    x.expect(\"set\")\n}\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn non_panicking_lookalikes_are_not_flagged() {
        // combinators, our own method named like std's, strings, comments
        let clean = concat!(
            "fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }\n",
            "fn g(x: Option<u8>) -> u8 { x.unwrap_or_else(|| 1) }\n",
            "fn h(s: &mut S) { s.call(1); } // .unwrap() in a comment\n",
            "const MSG: &str = \"never unwrap() this\";\n",
        );
        assert!(violations(clean).is_empty(), "{:?}", violations(clean));
    }

    #[test]
    fn panic_family_macros_are_flagged() {
        for src in [
            "fn f() { panic!(\"boom\"); }\n",
            "fn f() { unreachable!() }\n",
            "fn f() { todo!() }\n",
            "fn f() { unimplemented!(\"later\") }\n",
        ] {
            let v = violations(src);
            assert_eq!(v.len(), 1, "{src}");
            assert_eq!(v[0].lint, "panic-site");
        }
        // a `std::panic::catch_unwind` path is not a panic site
        assert!(violations("fn f() { let _ = std::panic::catch_unwind(|| 1); }\n")
            .is_empty());
    }

    #[test]
    fn slice_indexing_is_flagged_but_type_positions_are_not() {
        let v = violations("fn f(a: &[u8], i: usize) -> u8 { a[i] }\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, "slice-index");
        let clean = concat!(
            "fn f(buf: &'a [u8]) -> [u8; 4] { let x: [u8; 4] = [0; 4]; x }\n",
            "fn g() { for u in [1, 2] { let _ = u; } }\n",
            "fn h(n: usize) -> Vec<u8> { vec![0u8; n] }\n",
            "#[cfg(target_os = \"linux\")]\n",
            "fn k(a: &[u8]) -> Option<&u8> { a.get(0) }\n",
        );
        assert!(violations(clean).is_empty(), "{:?}", violations(clean));
    }

    #[test]
    fn chained_indexing_is_flagged() {
        let v = violations("fn f(a: &[Vec<u8>], i: usize) -> u8 { a.to_vec()[i] }\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, "slice-index");
    }

    #[test]
    fn narrowing_as_is_flagged_widening_is_not() {
        let v = violations("fn f(n: usize) -> u32 { n as u32 }\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, "as-truncation");
        let clean = concat!(
            "fn f(n: u32) -> u64 { n as u64 }\n",
            "fn g(n: u32) -> usize { n as usize }\n",
            "fn h(n: u32) -> f64 { n as f64 }\n",
        );
        assert!(violations(clean).is_empty(), "{:?}", violations(clean));
    }

    #[test]
    fn nested_lock_is_flagged() {
        let src = concat!(
            "fn f(a: &RwLock<u8>, b: &RwLock<u8>) {\n",
            "    let g1 = a.read();\n",
            "    let g2 = b.write();\n",
            "}\n",
        );
        let v = violations(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].lint, "nested-lock");
        assert_eq!(v[0].line, 3);
        assert!(v[0].message.contains("while `a` is still held"), "{}", v[0].message);
    }

    #[test]
    fn sequential_scoped_locks_are_clean() {
        // the store's own shape: read in an inner block, then write
        let src = concat!(
            "fn f(l: &RwLock<u8>) {\n",
            "    {\n",
            "        let g = read_guard(l);\n",
            "    }\n",
            "    let w = write_guard(l);\n",
            "}\n",
        );
        assert!(violations(src).is_empty(), "{:?}", violations(src));
    }

    #[test]
    fn explicit_drop_releases_a_guard() {
        let src = concat!(
            "fn f(a: &RwLock<u8>, b: &RwLock<u8>) {\n",
            "    let g = a.read();\n",
            "    drop(g);\n",
            "    let w = b.write();\n",
            "}\n",
        );
        assert!(violations(src).is_empty(), "{:?}", violations(src));
    }

    #[test]
    fn temporary_guard_dies_at_statement_end() {
        let src = concat!(
            "fn f(l: &RwLock<Vec<u8>>) {\n",
            "    let n = read_guard(l).len();\n",
            "    let w = write_guard(l);\n",
            "}\n",
        );
        assert!(violations(src).is_empty(), "{:?}", violations(src));
    }

    #[test]
    fn two_acquisitions_in_one_statement_are_flagged() {
        let src = "fn f(a: &RwLock<u8>, b: &RwLock<u8>) -> u8 { *a.read() + *b.read() }\n";
        let v = violations(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].lint, "nested-lock");
    }

    #[test]
    fn guard_definition_site_is_not_an_acquisition() {
        let src = "fn read_guard<T>(lock: &RwLock<T>) -> G<T> { lock.read() }\n";
        assert!(violations(src).is_empty(), "{:?}", violations(src));
    }

    #[test]
    fn cfg_test_regions_are_exempt() {
        let src = concat!(
            "fn prod(x: Option<u8>) -> Option<u8> { x }\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    #[test]\n",
            "    fn t() { super::prod(Some(1)).unwrap(); }\n",
            "}\n",
        );
        assert!(violations(src).is_empty(), "{:?}", violations(src));
    }
}
