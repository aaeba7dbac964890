//! Source lints for the wire-facing modules.
//!
//! Four lexical lints run over the comment/string-masked source
//! ([`crate::lexer`]) of the modules that parse or serve untrusted
//! bytes:
//!
//! * **panic-site** — `.unwrap()`, `.expect(`, `panic!`,
//!   `unreachable!`, `todo!`, `unimplemented!`. A decoder or server
//!   loop must degrade to a typed error, never abort a worker.
//! * **slice-index** — `x[i]` indexing (which panics out of bounds)
//!   instead of `get`/`get_mut`.
//! * **as-truncation** — `as u8/u16/u32/i8/i16/i32`: silent
//!   truncation of a value that may carry an attacker-chosen length.
//!   Widening casts (`as u64`, `as usize`, `as f64`) are allowed.
//! * **nested-lock** — (store.rs only) acquiring a name-map, topology
//!   or published-slot lock while another guard is still live in the
//!   same function — the shape that deadlocks the store under
//!   contention.
//!
//! `#[cfg(test)]` regions are exempt: tests may unwrap. A violation in
//! non-test code can only be silenced with a justified pragma on the
//! same or the preceding line:
//!
//! ```text
//! // analyze: allow(slice-index, "i < pending.len() from map_indices")
//! ```
//!
//! Pragmas without a justification, or naming an unknown lint, are
//! themselves violations. Every accepted suppression is reported in
//! the summary so the exemption list stays auditable.

use crate::lexer::{lex, Pragma};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The lint names a pragma may reference. The last two belong to the
/// interprocedural analyses ([`crate::lockorder`]); they share the
/// pragma vocabulary so one escape hatch covers the whole gate.
pub const LINT_NAMES: [&str; 6] = [
    "panic-site",
    "slice-index",
    "as-truncation",
    "nested-lock",
    "lock-order",
    "hold-across-io",
];

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
    /// Lint name (one of [`LINT_NAMES`], or `pragma` for a malformed
    /// suppression).
    pub lint: String,
    /// What was found.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.lint, self.message)
    }
}

/// One accepted suppression (reported, never silent).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// Path relative to the repo root.
    pub file: String,
    /// 1-based line of the suppressed site.
    pub line: usize,
    /// The suppressed lint.
    pub lint: String,
    /// The pragma's justification.
    pub justification: String,
}

/// Outcome of a lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Violations (empty for a clean tree).
    pub violations: Vec<Finding>,
    /// Accepted suppressions, for the audit summary.
    pub suppressed: Vec<Suppression>,
    /// Strict-policy files scanned.
    pub files_scanned: usize,
    /// Informational: panic sites in *all* workspace non-test code
    /// (not gated — tracks the burn-down).
    pub workspace_panic_sites: usize,
}

impl LintReport {
    /// True when no violation survived suppression.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// A raw (pre-suppression) hit inside one file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RawFinding {
    pub(crate) line: usize,
    pub(crate) lint: &'static str,
    pub(crate) message: String,
}

/// Runs the strict policy over the repo at `root`.
///
/// # Errors
///
/// I/O failure reading a source tree (a *missing* strict file is a
/// violation, not an error).
pub fn run(root: &Path) -> io::Result<LintReport> {
    let mut report = LintReport::default();
    for (rel, nested_lock) in STRICT_FILES {
        let path = root.join(rel);
        let src = match fs::read_to_string(&path) {
            Ok(s) => s,
            Err(_) => {
                report.violations.push(Finding {
                    file: rel.to_string(),
                    line: 0,
                    lint: "policy".into(),
                    message: "strict-policy file missing or unreadable".into(),
                });
                continue;
            }
        };
        report.files_scanned += 1;
        let (violations, suppressed) = scan_source(&src, rel, nested_lock);
        report.violations.extend(violations);
        report.suppressed.extend(suppressed);
    }
    report.workspace_panic_sites = workspace_panic_sites(root)?;
    Ok(report)
}

/// Scans one file's source text under the strict policy; returns
/// surviving violations and accepted suppressions.
pub fn scan_source(
    src: &str,
    rel: &str,
    nested_lock: bool,
) -> (Vec<Finding>, Vec<Suppression>) {
    let lexed = lex(src);
    let excluded = test_region_lines(&lexed.masked);
    let mut raw = Vec::new();
    for (idx, line) in lexed.masked.lines().enumerate() {
        let line_no = idx + 1;
        if excluded.contains(&line_no) {
            continue;
        }
        scan_panic_sites(line, line_no, &mut raw);
        scan_slice_index(line, line_no, &mut raw);
        scan_as_truncation(line, line_no, &mut raw);
    }
    if nested_lock {
        for f in scan_nested_locks(&lexed.masked) {
            if !excluded.contains(&f.line) {
                raw.push(f);
            }
        }
    }
    apply_pragmas(raw, &lexed.pragmas, &excluded, rel)
}

/// Matches raw findings against pragmas. A pragma on line `L`
/// suppresses findings of its lint on lines `L` and `L + 1` (pragma
/// above the site, or trailing on the same line).
fn apply_pragmas(
    raw: Vec<RawFinding>,
    pragmas: &[Pragma],
    excluded: &std::collections::BTreeSet<usize>,
    rel: &str,
) -> (Vec<Finding>, Vec<Suppression>) {
    let mut violations = Vec::new();
    let mut suppressed = Vec::new();
    let active: Vec<&Pragma> =
        pragmas.iter().filter(|p| !excluded.contains(&p.line)).collect();
    for p in &active {
        if !LINT_NAMES.contains(&p.lint.as_str()) {
            violations.push(Finding {
                file: rel.to_string(),
                line: p.line,
                lint: "pragma".into(),
                message: format!("pragma names unknown lint `{}`", p.lint),
            });
        } else if p.justification.trim().is_empty() {
            violations.push(Finding {
                file: rel.to_string(),
                line: p.line,
                lint: "pragma".into(),
                message: format!(
                    "pragma for `{}` has no justification — `// analyze: allow({}, \"why this is safe\")`",
                    p.lint, p.lint
                ),
            });
        }
    }
    for f in raw {
        let pragma = active.iter().find(|p| {
            p.lint == f.lint
                && !p.justification.trim().is_empty()
                && (p.line == f.line || p.line + 1 == f.line)
        });
        match pragma {
            Some(p) => suppressed.push(Suppression {
                file: rel.to_string(),
                line: f.line,
                lint: f.lint.to_string(),
                justification: p.justification.clone(),
            }),
            None => violations.push(Finding {
                file: rel.to_string(),
                line: f.line,
                lint: f.lint.to_string(),
                message: f.message,
            }),
        }
    }
    violations.sort_by_key(|f| f.line);
    (violations, suppressed)
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

pub(crate) fn scan_panic_sites(line: &str, line_no: usize, out: &mut Vec<RawFinding>) {
    for method in ["unwrap", "expect"] {
        for at in word_positions(line, method) {
            if prev_non_ws(line, at) == Some('.')
                && next_non_ws(line, at + method.len()) == Some('(')
            {
                out.push(RawFinding {
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
                out.push(RawFinding {
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

pub(crate) fn scan_slice_index(line: &str, line_no: usize, out: &mut Vec<RawFinding>) {
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
            out.push(RawFinding {
                line: line_no,
                lint: "slice-index",
                message: "indexing panics out of bounds — use .get()/.get_mut()".into(),
            });
        }
    }
}

/// Narrow integer targets a hostile length could silently truncate to.
const NARROW_CASTS: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];

fn scan_as_truncation(line: &str, line_no: usize, out: &mut Vec<RawFinding>) {
    for at in word_positions(line, "as") {
        let rest = line[at + 2..].trim_start();
        let target: String = rest.chars().take_while(|&c| is_ident(c)).collect();
        if NARROW_CASTS.contains(&target.as_str()) {
            out.push(RawFinding {
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
// nested-lock: a whole-file scan tracking live guards by brace depth

/// A live lock guard in the nested-lock tracker.
struct LiveGuard {
    /// Binding name, `None` for a temporary consumed within its
    /// statement.
    name: Option<String>,
    /// Brace depth at acquisition; the guard dies when depth drops
    /// below this.
    depth: usize,
}

/// Tokens that acquire a lock. `.read()` / `.write()` / `.lock()` are
/// the std primitives; `read_guard(` / `write_guard(` are the store's
/// poison-mapping wrappers.
const ACQUIRE_TOKENS: [&str; 5] =
    [".read()", ".write()", ".lock()", "read_guard(", "write_guard("];

fn scan_nested_locks(masked: &str) -> Vec<RawFinding> {
    let mut out = Vec::new();
    let mut live: Vec<LiveGuard> = Vec::new();
    let mut depth = 0usize;
    let mut line_no = 1usize;
    let bytes = masked.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            b'\n' => line_no += 1,
            b'{' => depth += 1,
            b'}' => {
                depth = depth.saturating_sub(1);
                live.retain(|g| g.depth <= depth);
            }
            b';' => live.retain(|g| g.name.is_some() || g.depth != depth),
            _ => {
                if let Some(tok) = acquire_token_at(masked, i) {
                    if let Some(holding) = live.last() {
                        let held = holding.name.as_deref().unwrap_or("a temporary guard");
                        out.push(RawFinding {
                            line: line_no,
                            lint: "nested-lock",
                            message: format!(
                                "acquires a lock while `{held}` is still held — \
                                 nested acquisition deadlocks under contention"
                            ),
                        });
                    }
                    // the guard outlives its statement only when the
                    // acquisition expression itself is what `let` binds
                    // (runs straight to `;`); `let n = read_guard(l)
                    // .len();` binds the length, the guard is a
                    // temporary
                    let end = guard_expr_end(masked, i, tok);
                    let name = if masked[end..].starts_with(';') {
                        binding_name(masked, i)
                    } else {
                        None
                    };
                    live.push(LiveGuard { name, depth });
                    i += tok.len();
                    continue;
                }
                if masked[i..].starts_with("drop(") {
                    let inner: String = masked[i + 5..]
                        .chars()
                        .take_while(|&c| is_ident(c))
                        .collect();
                    live.retain(|g| g.name.as_deref() != Some(inner.as_str()));
                }
            }
        }
        i += 1;
    }
    out
}

/// The acquisition token starting at byte `i`, if any. Wrapper-call
/// tokens must not be preceded by an identifier character (so the
/// *definition* `fn read_guard<...>` and method paths don't match).
fn acquire_token_at(masked: &str, i: usize) -> Option<&'static str> {
    for tok in ACQUIRE_TOKENS {
        if masked[i..].starts_with(tok) {
            if !tok.starts_with('.') {
                let prev = masked[..i].chars().next_back();
                if prev.is_some_and(is_ident) {
                    return None;
                }
            }
            return Some(tok);
        }
    }
    None
}

/// One past the end of the acquisition expression starting with `tok`
/// at byte `i`: the matched closing paren of a wrapper call, then any
/// trailing `?`s.
fn guard_expr_end(masked: &str, i: usize, tok: &str) -> usize {
    let bytes = masked.as_bytes();
    let mut j = i + tok.len();
    if tok.ends_with('(') {
        let mut depth = 1u32;
        while j < bytes.len() && depth > 0 {
            match bytes[j] {
                b'(' => depth += 1,
                b')' => depth -= 1,
                _ => {}
            }
            j += 1;
        }
    }
    while let Some(c) = masked[j..].chars().next() {
        if c.is_whitespace() || c == '?' {
            j += c.len_utf8();
        } else {
            break;
        }
    }
    j
}

/// If the statement containing byte `i` is `let [mut] NAME = …`,
/// returns `NAME` (the guard outlives the statement); `None` for a
/// temporary.
fn binding_name(masked: &str, i: usize) -> Option<String> {
    let stmt_start = masked[..i]
        .rfind([';', '{', '}'])
        .map_or(0, |p| p + 1);
    let stmt = &masked[stmt_start..i];
    let after_let = stmt.split_once("let ")?.1.trim_start();
    let after_mut = after_let.strip_prefix("mut ").unwrap_or(after_let).trim_start();
    let name: String = after_mut.chars().take_while(|&c| is_ident(c)).collect();
    if name.is_empty() || name == "_" {
        None
    } else {
        Some(name)
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

// ---------------------------------------------------------------------
// informational workspace-wide panic census

/// Counts panic sites in non-test code across every `src/` tree in the
/// workspace (informational; not a gate).
fn workspace_panic_sites(root: &Path) -> io::Result<usize> {
    let mut files = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        for entry in fs::read_dir(&crates)? {
            let src = entry?.path().join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files)?;
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, &mut files)?;
    }
    let mut count = 0usize;
    for path in files {
        let Ok(src) = fs::read_to_string(&path) else { continue };
        let lexed = lex(&src);
        let excluded = test_region_lines(&lexed.masked);
        let mut raw = Vec::new();
        for (idx, line) in lexed.masked.lines().enumerate() {
            if !excluded.contains(&(idx + 1)) {
                scan_panic_sites(line, idx + 1, &mut raw);
            }
        }
        count += raw.len();
    }
    Ok(count)
}

/// Every `// analyze: allow(…)` pragma in non-test workspace code,
/// with file, line, lint, and justification — the raw material for the
/// per-lint suppression budgets pinned in the gate test. Scans the
/// same trees as `workspace_panic_sites` (every `crates/*/src` plus
/// the root `src/`), so a new suppression *anywhere* shows up here.
///
/// # Errors
///
/// I/O failure walking a source tree.
pub fn pragma_census(root: &Path) -> io::Result<Vec<Suppression>> {
    let mut files = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        for entry in fs::read_dir(&crates)? {
            let src = entry?.path().join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files)?;
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, &mut files)?;
    }
    files.sort();
    let mut out = Vec::new();
    for path in files {
        let Ok(src) = fs::read_to_string(&path) else { continue };
        let rel = path
            .strip_prefix(root)
            .map(|p| p.to_string_lossy().into_owned())
            .unwrap_or_else(|_| path.to_string_lossy().into_owned());
        let lexed = lex(&src);
        let excluded = test_region_lines(&lexed.masked);
        for p in lexed.pragmas {
            if excluded.contains(&p.line) {
                continue;
            }
            out.push(Suppression {
                file: rel.clone(),
                line: p.line,
                lint: p.lint,
                justification: p.justification,
            });
        }
    }
    Ok(out)
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

#[cfg(test)]
mod tests {
    use super::*;

    fn violations(src: &str) -> Vec<Finding> {
        scan_source(src, "test.rs", true).0
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
            "#[cfg(feature = \"x\")]\n",
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
        assert!(v[0].message.contains("g1"));
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

    #[test]
    fn pragma_on_previous_line_suppresses_and_is_reported() {
        let src = concat!(
            "fn f(a: &[u8], i: usize) -> u8 {\n",
            "    // analyze: allow(slice-index, \"i is masked to a.len()\")\n",
            "    a[i]\n",
            "}\n",
        );
        let (v, s) = scan_source(src, "test.rs", false);
        assert!(v.is_empty(), "{v:?}");
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].lint, "slice-index");
        assert_eq!(s[0].justification, "i is masked to a.len()");
    }

    #[test]
    fn pragma_does_not_suppress_other_lints_or_far_lines() {
        let src = concat!(
            "// analyze: allow(slice-index, \"justified\")\n",
            "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
            "fn g(a: &[u8]) -> u8 { a[0] }\n",
        );
        let v = violations(src);
        // the unwrap on line 2 (wrong lint) and the index on line 3
        // (out of pragma range) both survive
        assert_eq!(v.len(), 2, "{v:?}");
    }

    #[test]
    fn bad_pragmas_are_violations() {
        let v = violations("// analyze: allow(slice-index)\nfn f() {}\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, "pragma");
        assert!(v[0].message.contains("justification"));
        let v = violations("// analyze: allow(no-such-lint, \"x\")\nfn f() {}\n");
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("unknown lint"));
    }

    #[test]
    fn pragma_without_justification_does_not_suppress() {
        let src = concat!(
            "// analyze: allow(panic-site)\n",
            "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
        );
        let v = violations(src);
        assert_eq!(v.len(), 2, "{v:?}"); // the bad pragma AND the unwrap
    }
}
