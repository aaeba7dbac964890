//! Lightweight Rust item parser over masked source.
//!
//! Extracts from one comment/string-masked file ([`crate::lexer`]) the
//! facts the interprocedural analyses need, per function:
//!
//! * **call sites** — `name(`, `Qual::name(`, `.name(` — with the set
//!   of lock classes held at the call;
//! * **lock acquisitions** — `.read()` / `.write()` / `.lock()` /
//!   `.get_or_init(` and the store's `read_guard(` / `write_guard(`
//!   wrappers — classified by receiver (`entry.topo.read()` acquires
//!   class `topo`), with the classes already held (lock-order edges);
//! * **blocking calls** — socket reads/writes, `thread::sleep`,
//!   channel `recv`, condvar `wait` — with held classes;
//! * **lint sites** — panic sites, slice indexing and narrowing `as`
//!   casts from the lexical scanners in [`crate::lints`], attributed to
//!   their enclosing function; a site outside every function body (a
//!   `static` initializer) is kept per file for the strict-file policy.
//!
//! This is not a Rust parser: it is a brace/statement tracker tuned to
//! the rustfmt-shaped code in this workspace, and it over-approximates
//! on purpose (a guard bound through a `match` or `if let` is assumed
//! to live to the end of its enclosing block). `#[cfg(test)]` regions
//! are excluded — tests may panic and lock freely.
//!
//! Guard liveness, the one model the lock analyses and the store's
//! nested-lock lint share: an acquisition whose statement is a `let`
//! binding (directly, through `.map_err(…)?` chains, or wrapped in
//! `match`/`if let`) lives until its block closes or an explicit
//! `drop(name)`; any other acquisition is a temporary that dies at the
//! end of its statement.

use crate::lints;
use std::collections::BTreeSet;

/// One parsed function with everything the analyses need.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Crate the file belongs to (`wcds-service`, fixture `store`, …).
    pub crate_name: String,
    /// Path relative to the scan root.
    pub file: String,
    /// Enclosing `impl`/`trait` type, if any.
    pub qual: Option<String>,
    /// Enclosing module names (innermost last), excluding the file.
    pub mods: Vec<String>,
    /// The function's name.
    pub name: String,
    /// 1-based line of the body's opening brace.
    pub line: usize,
    /// 1-based line of the body's closing brace.
    pub end_line: usize,
    /// Call sites in source order.
    pub calls: Vec<CallSite>,
    /// Lock acquisitions in source order.
    pub acquires: Vec<Acquire>,
    /// Blocking calls in source order.
    pub blocking: Vec<Blocking>,
    /// Lint sites in the body, by line.
    pub sites: Vec<Site>,
}

impl FnItem {
    /// `file:qual::name` — stable display identity.
    pub fn display(&self) -> String {
        match &self.qual {
            Some(q) => format!("{}::{}", q, self.name),
            None => self.name.clone(),
        }
    }

    /// All names a path qualifier could use to reach this function:
    /// the crate (underscored), enclosing modules, the file stem, and
    /// the `impl` type.
    pub fn containers(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        out.insert(self.crate_name.replace('-', "_"));
        out.extend(self.mods.iter().cloned());
        if let Some(stem) = std::path::Path::new(&self.file)
            .file_stem()
            .and_then(|s| s.to_str())
        {
            if stem != "lib" && stem != "mod" && stem != "main" {
                out.insert(stem.to_string());
            }
        }
        if let Some(q) = &self.qual {
            out.insert(q.clone());
        }
        out
    }
}

/// One call site.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name (the identifier before `(`).
    pub name: String,
    /// Path qualifier: `Foo::bar(` records `Foo`; `Self` is kept
    /// verbatim and resolved against the caller's `impl` type.
    pub qual: Option<String>,
    /// True for `.name(` method syntax.
    pub method: bool,
    /// 1-based line.
    pub line: usize,
    /// Lock classes held when the call runs.
    pub held: Vec<String>,
}

/// One lock acquisition.
#[derive(Debug, Clone)]
pub struct Acquire {
    /// Lock class, derived from the receiver or wrapper argument.
    pub class: String,
    /// 1-based line.
    pub line: usize,
    /// Classes already held at this acquisition (lock-order edges).
    pub held: Vec<String>,
}

/// One blocking call.
#[derive(Debug, Clone)]
pub struct Blocking {
    /// What blocks (`channel recv`, `socket write`, …).
    pub what: &'static str,
    /// 1-based line.
    pub line: usize,
    /// Lock classes held across the call. For condvar `wait(guard)`
    /// the passed guard is already removed (waiting releases it).
    pub held: Vec<String>,
}

/// A lint site found by a lexical scanner.
#[derive(Debug, Clone)]
pub struct Site {
    /// 1-based line.
    pub line: usize,
    /// `panic-site`, `slice-index` or `as-truncation`.
    pub lint: &'static str,
    /// The lint message from the lexical scanner.
    pub message: String,
}

/// Lock-acquisition tokens. Wrapper-call tokens (no leading `.`) must
/// not be preceded by an identifier character, so definitions and
/// paths don't match.
const ACQUIRE_TOKENS: [&str; 6] =
    [".read()", ".write()", ".lock()", ".get_or_init(", "read_guard(", "write_guard("];

/// Blocking-call tokens, most-specific first. `.read(`/`.write(` with
/// a non-empty argument list are handled separately (empty parens are
/// the `RwLock` acquisitions above).
const BLOCKING_TOKENS: [(&str, &str); 12] = [
    (".recv_timeout(", "channel recv_timeout"),
    (".recv()", "channel recv"),
    (".wait_timeout(", "condvar wait_timeout"),
    (".wait(", "condvar wait"),
    (".read_exact(", "socket read"),
    (".read_to_end(", "socket read"),
    (".read_to_string(", "socket read"),
    (".read_line(", "socket read"),
    (".write_all(", "socket write"),
    (".flush()", "socket flush"),
    (".accept()", "socket accept"),
    (".connect(", "socket connect"),
];

/// Blocking tokens in wrapper-call position (checked like wrapper
/// acquisitions: no identifier character before them).
const BLOCKING_FREE_TOKENS: [(&str, &str); 2] =
    [("sleep(", "thread sleep"), ("connect_timeout(", "socket connect")];

const KEYWORDS: [&str; 28] = [
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "as", "in",
    "fn", "let", "mut", "ref", "move", "box", "dyn", "impl", "where", "unsafe", "struct", "enum",
    "mod", "use", "pub", "const", "static",
];

/// A live guard in one function's tracker.
#[derive(Debug)]
struct Guard {
    class: String,
    /// Binding name, `None` for a statement temporary.
    binding: Option<String>,
    /// Brace depth at acquisition; dies when depth drops below this.
    depth: usize,
}

enum FrameKind {
    Block,
    Mod(String),
    Impl(String),
    Fn { idx: usize, guards: Vec<Guard> },
}

/// Parses one masked file into its functions and the lint sites that
/// fall outside every function body.
///
/// `rel` is the path relative to the scan root; `crate_name` the
/// owning crate. Test regions are excluded.
pub fn parse_file(masked: &str, rel: &str, crate_name: &str) -> (Vec<FnItem>, Vec<Site>) {
    let excluded = lints::test_region_lines(masked);
    let bytes = masked.as_bytes();
    let mut fns: Vec<FnItem> = Vec::new();
    let mut stack: Vec<FrameKind> = Vec::new();
    let mut header_start = 0usize;
    let mut line = 1usize;
    let mut i = 0usize;

    while i < bytes.len() {
        match bytes[i] {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b'#' if bytes.get(i + 1) == Some(&b'[') => {
                // skip attributes so `#[derive(…)]` isn't a call site
                let mut depth = 0usize;
                while i < bytes.len() {
                    match bytes[i] {
                        b'[' => depth += 1,
                        b']' => {
                            depth -= 1;
                            if depth == 0 {
                                i += 1;
                                break;
                            }
                        }
                        b'\n' => line += 1,
                        _ => {}
                    }
                    i += 1;
                }
            }
            b'{' => {
                let header = &masked[header_start..i];
                let kind = classify_header(header, &stack, &mut fns, rel, crate_name, line);
                stack.push(kind);
                header_start = i + 1;
                i += 1;
            }
            b'}' => {
                if let Some(FrameKind::Fn { idx, .. }) = stack.pop() {
                    fns[idx].end_line = line;
                }
                let depth = stack.len();
                if let Some(FrameKind::Fn { guards, .. }) = innermost_fn(&mut stack) {
                    guards.retain(|g| g.depth <= depth);
                }
                header_start = i + 1;
                i += 1;
            }
            b';' => {
                let depth = stack.len();
                if let Some(FrameKind::Fn { guards, .. }) = innermost_fn(&mut stack) {
                    guards.retain(|g| g.binding.is_some() || g.depth != depth);
                }
                header_start = i + 1;
                i += 1;
            }
            b if b >= 0x80 => {
                // skip non-ASCII bytes without slicing mid-character
                i += 1;
            }
            _ => {
                if let Some(tok) = acquire_token_at(masked, i) {
                    let held = held_classes(&stack, None);
                    let class = lock_class(masked, i, tok);
                    let end = guard_expr_end(masked, i, tok);
                    let binding = guard_binding(masked, i, end);
                    let depth = stack.len();
                    if let Some(FrameKind::Fn { idx, guards }) = innermost_fn(&mut stack) {
                        if !excluded.contains(&line) {
                            fns[*idx].acquires.push(Acquire {
                                class: class.clone(),
                                line,
                                held,
                            });
                        }
                        guards.push(Guard { class, binding, depth });
                    }
                    i += tok.len();
                } else if let Some((tok, what)) = blocking_token_at(masked, i) {
                    let exempt = if what.starts_with("condvar") {
                        first_arg_ident(masked, i + tok.len())
                    } else {
                        None
                    };
                    let held = held_classes(&stack, exempt.as_deref());
                    if let Some(FrameKind::Fn { idx, .. }) = innermost_fn(&mut stack) {
                        if !excluded.contains(&line) {
                            fns[*idx].blocking.push(Blocking { what, line, held });
                        }
                    }
                    i += tok.len();
                } else if is_ident_start(bytes[i]) && !prev_is_ident(masked, i) {
                    let start = i;
                    while i < bytes.len() && bytes[i] < 0x80 && lints::is_ident(bytes[i] as char) {
                        i += 1;
                    }
                    let name = &masked[start..i];
                    if name == "drop" && bytes.get(i) == Some(&b'(') {
                        if let Some(inner) = first_arg_ident(masked, i + 1) {
                            if let Some(FrameKind::Fn { guards, .. }) = innermost_fn(&mut stack) {
                                guards.retain(|g| g.binding.as_deref() != Some(inner.as_str()));
                            }
                        }
                        continue;
                    }
                    if let Some(call) =
                        call_at(masked, start, i, name, &stack, line)
                    {
                        if !excluded.contains(&line) {
                            if let Some(FrameKind::Fn { idx, .. }) = innermost_fn(&mut stack) {
                                fns[*idx].calls.push(call);
                            }
                        }
                    }
                } else {
                    i += 1;
                }
            }
        }
    }

    fns.retain(|f| !excluded.contains(&f.line));
    let loose = attach_sites(masked, &excluded, &mut fns);
    (fns, loose)
}

/// The innermost enclosing function frame.
fn innermost_fn(stack: &mut [FrameKind]) -> Option<&mut FrameKind> {
    stack.iter_mut().rev().find(|f| matches!(f, FrameKind::Fn { .. }))
}

/// Lock classes currently held, innermost function only, minus the
/// guard bound to `exempt` (a condvar releases the guard it is handed).
fn held_classes(stack: &[FrameKind], exempt: Option<&str>) -> Vec<String> {
    let Some(FrameKind::Fn { guards, .. }) =
        stack.iter().rev().find(|f| matches!(f, FrameKind::Fn { .. }))
    else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut exempted = false;
    for g in guards {
        if !exempted && exempt.is_some() && g.binding.as_deref() == exempt {
            exempted = true;
            continue;
        }
        if !out.contains(&g.class) {
            out.push(g.class.clone());
        }
    }
    out
}

/// Classifies the text between the previous `;`/`{`/`}` and an opening
/// brace, creating a new [`FnItem`] for function headers.
fn classify_header(
    header: &str,
    stack: &[FrameKind],
    fns: &mut Vec<FnItem>,
    rel: &str,
    crate_name: &str,
    line: usize,
) -> FrameKind {
    if let Some(name) = fn_header_name(header) {
        let qual = stack.iter().rev().find_map(|f| match f {
            FrameKind::Impl(t) => Some(t.clone()),
            _ => None,
        });
        let mods: Vec<String> = stack
            .iter()
            .filter_map(|f| match f {
                FrameKind::Mod(m) => Some(m.clone()),
                _ => None,
            })
            .collect();
        fns.push(FnItem {
            crate_name: crate_name.to_string(),
            file: rel.to_string(),
            qual,
            mods,
            name,
            line,
            end_line: line,
            calls: Vec::new(),
            acquires: Vec::new(),
            blocking: Vec::new(),
            sites: Vec::new(),
        });
        return FrameKind::Fn { idx: fns.len() - 1, guards: Vec::new() };
    }
    if has_word(header, "impl") || has_word(header, "trait") {
        if let Some(t) = impl_type(header) {
            return FrameKind::Impl(t);
        }
    }
    if let Some(at) = word_at(header, "mod") {
        let name: String = header[at + 3..]
            .trim_start()
            .chars()
            .take_while(|&c| lints::is_ident(c))
            .collect();
        if !name.is_empty() {
            return FrameKind::Mod(name);
        }
    }
    FrameKind::Block
}

/// The declared name if `header` is a function header: the first word
/// `fn` followed by an identifier (a bare `fn(` is a pointer type).
fn fn_header_name(header: &str) -> Option<String> {
    let mut from = 0;
    while let Some(at) = word_at(&header[from..], "fn") {
        let after = header[from + at + 2..].trim_start();
        let name: String = after.chars().take_while(|&c| lints::is_ident(c)).collect();
        if !name.is_empty() {
            return Some(name);
        }
        from += at + 2;
    }
    None
}

/// Byte offset of the first word-boundary occurrence of `word`.
fn word_at(text: &str, word: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(off) = text[from..].find(word) {
        let at = from + off;
        let before_ok = at == 0 || !lints::is_ident(text[..at].chars().next_back().unwrap_or(' '));
        let after_ok = text[at + word.len()..]
            .chars()
            .next()
            .is_none_or(|c| !lints::is_ident(c));
        if before_ok && after_ok {
            return Some(at);
        }
        from = at + word.len();
    }
    None
}

fn has_word(text: &str, word: &str) -> bool {
    word_at(text, word).is_some()
}

/// The subject type of an `impl`/`trait` header: the identifier after
/// `for` if present (`impl Trait for Type`), else the first identifier
/// after the keyword and its generic parameters.
fn impl_type(header: &str) -> Option<String> {
    if let Some(at) = word_at(header, "for") {
        let name = first_type_ident(&header[at + 3..]);
        if name.is_some() {
            return name;
        }
    }
    let kw = word_at(header, "impl").or_else(|| word_at(header, "trait"))?;
    let mut rest = header[kw..].split_once(char::is_whitespace).map_or("", |(_, r)| r);
    // skip leading generics: `impl<T: Clone> Foo<T>`
    let trimmed = header[kw..].trim_start_matches(|c: char| lints::is_ident(c));
    if trimmed.starts_with('<') {
        let mut depth = 0i32;
        for (j, c) in trimmed.char_indices() {
            match c {
                '<' => depth += 1,
                '>' => {
                    depth -= 1;
                    if depth == 0 {
                        rest = &trimmed[j + 1..];
                        break;
                    }
                }
                _ => {}
            }
        }
    }
    first_type_ident(rest)
}

/// The last identifier of the first `::`-path in `text`, skipping
/// references and whitespace — `&mut fmt::Display` yields `Display`.
fn first_type_ident(text: &str) -> Option<String> {
    let rest = text.trim_start_matches(|c: char| c.is_whitespace() || c == '&' || c == '\'');
    let mut last = None;
    let mut chars = rest.char_indices().peekable();
    while let Some((j, c)) = chars.next() {
        if lints::is_ident(c) {
            let word: String = rest[j..].chars().take_while(|&c| lints::is_ident(c)).collect();
            for _ in 1..word.len() {
                chars.next();
            }
            let after = &rest[j + word.len()..];
            if word == "mut" || word == "dyn" {
                continue;
            }
            last = Some(word);
            if !after.starts_with("::") {
                break;
            }
        } else if c == ':' || c == '<' || (c.is_whitespace() && last.is_none()) {
            continue;
        } else {
            break;
        }
    }
    last
}

/// The acquisition token at byte `i`, if any.
fn acquire_token_at(masked: &str, i: usize) -> Option<&'static str> {
    for tok in ACQUIRE_TOKENS {
        if masked[i..].starts_with(tok) {
            if !tok.starts_with('.') && (prev_is_ident(masked, i) || prev_word_is_fn(masked, i)) {
                return None;
            }
            return Some(tok);
        }
    }
    None
}

/// The blocking token at byte `i`, if any. `.read(`/`.write(` count
/// only with a non-empty argument list (IO, not `RwLock`).
fn blocking_token_at(masked: &str, i: usize) -> Option<(&'static str, &'static str)> {
    for (tok, what) in BLOCKING_TOKENS {
        if masked[i..].starts_with(tok) {
            return Some((tok, what));
        }
    }
    for (tok, what) in BLOCKING_FREE_TOKENS {
        if masked[i..].starts_with(tok)
            && !prev_is_ident(masked, i)
            && !prev_word_is_fn(masked, i)
        {
            return Some((tok, what));
        }
    }
    for (tok, what) in [(".read(", "socket read"), (".write(", "socket write")] {
        if masked[i..].starts_with(tok) {
            let after = masked[i + tok.len()..].trim_start();
            if !after.starts_with(')') {
                return Some((tok, what));
            }
        }
    }
    None
}

/// One past the end of the acquisition expression: the matched closing
/// paren of a call token, then trailing `?`s and whitespace.
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
    skip_ws_q(masked, j)
}

fn skip_ws_q(masked: &str, mut j: usize) -> usize {
    while let Some(c) = masked[j..].chars().next() {
        if c.is_whitespace() || c == '?' {
            j += c.len_utf8();
        } else {
            break;
        }
    }
    j
}

/// The binding a guard outlives its statement under, or `None` for a
/// temporary. The guard survives when the acquisition reaches the end
/// of a `let` statement directly, through `.map_err(…)?` chains, or
/// wrapped in a `match`/`if let` whose arms yield it.
fn guard_binding(masked: &str, i: usize, mut end: usize) -> Option<String> {
    loop {
        if masked[end..].starts_with(".map_err(") {
            let mut depth = 0u32;
            let bytes = masked.as_bytes();
            let mut j = end + ".map_err(".len() - 1;
            while j < bytes.len() {
                match bytes[j] {
                    b'(' => depth += 1,
                    b')' => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            end = skip_ws_q(masked, j);
        } else {
            break;
        }
    }
    if masked[end..].starts_with(';') || masked[end..].starts_with('{') {
        let stmt_start = masked[..i].rfind([';', '{', '}']).map_or(0, |p| p + 1);
        let stmt = &masked[stmt_start..i];
        let after_let = stmt.split_once("let ")?.1.trim_start();
        let mut rest = after_let.strip_prefix("mut ").unwrap_or(after_let).trim_start();
        // descend into `Ok(g)` / `Some(g)` patterns
        for wrapper in ["Ok(", "Some("] {
            if let Some(inner) = rest.strip_prefix(wrapper) {
                rest = inner.trim_start();
            }
        }
        let name: String = rest.chars().take_while(|&c| lints::is_ident(c)).collect();
        if name.is_empty() || name == "_" {
            None
        } else {
            Some(name)
        }
    } else {
        None
    }
}

/// The lock class of an acquisition: the last meaningful identifier of
/// the receiver (`entry.topo.read()` → `topo`, `self.shard(n).read()`
/// → `shard`) or of a wrapper's argument (`read_guard(&e.topo)` →
/// `topo`).
fn lock_class(masked: &str, i: usize, tok: &str) -> String {
    let text = if tok.starts_with('.') {
        receiver_text(masked, i)
    } else {
        let close = guard_call_close(masked, i + tok.len());
        masked[i + tok.len()..close].to_string()
    };
    class_from_expr(&text).unwrap_or_else(|| "lock".to_string())
}

/// The receiver chain before a `.token` at byte `i`, scanned backward
/// over identifiers, `.`/`::`, and balanced `(…)`/`[…]`.
fn receiver_text(masked: &str, i: usize) -> String {
    let bytes = masked.as_bytes();
    let mut j = i;
    while j > 0 {
        let c = bytes[j - 1];
        if lints::is_ident(c as char) || c == b'.' || c == b':' {
            j -= 1;
        } else if c == b')' || c == b']' {
            let (open, close) = if c == b')' { (b'(', b')') } else { (b'[', b']') };
            let mut depth = 0i32;
            while j > 0 {
                let d = bytes[j - 1];
                if d == close {
                    depth += 1;
                } else if d == open {
                    depth -= 1;
                    if depth == 0 {
                        j -= 1;
                        break;
                    }
                }
                j -= 1;
            }
        } else {
            break;
        }
    }
    masked[j..i].to_string()
}

/// Matched close paren of a wrapper call whose `(` is at `open - 1`.
fn guard_call_close(masked: &str, open: usize) -> usize {
    let bytes = masked.as_bytes();
    let mut depth = 1i32;
    let mut j = open;
    while j < bytes.len() {
        match bytes[j] {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

/// Derives a lock class from an expression: the last top-level path
/// component (field, binding, or method name — argument lists are
/// skipped), ignoring `self`/`mut`. `entry.topo` → `topo`,
/// `s.shard(n)` → `shard`, `self.plan` → `plan`.
fn class_from_expr(text: &str) -> Option<String> {
    let mut last = None;
    let bytes = text.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        if is_ident_start(bytes[i]) && !prev_is_ident(text, i) {
            let start = i;
            while i < bytes.len() && bytes[i] < 0x80 && lints::is_ident(bytes[i] as char) {
                i += 1;
            }
            let word = &text[start..i];
            if word == "self" || word == "mut" {
                continue;
            }
            last = Some(word.to_string());
            if bytes.get(i) == Some(&b'(') {
                // skip the argument list — idents inside it are
                // arguments, not path components of the receiver
                let mut depth = 0usize;
                while i < bytes.len() {
                    match bytes[i] {
                        b'(' => depth += 1,
                        b')' => {
                            depth -= 1;
                            if depth == 0 {
                                i += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
            }
        } else {
            i += 1;
        }
    }
    last
}

/// The first identifier in an argument list starting at byte `at`
/// (just after the opening paren) — the guard a condvar `wait`
/// releases.
fn first_arg_ident(masked: &str, at: usize) -> Option<String> {
    let rest = masked[at..].trim_start().trim_start_matches(['&', '*']);
    let name: String = rest.chars().take_while(|&c| lints::is_ident(c)).collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

fn is_ident_start(b: u8) -> bool {
    b == b'_' || (b as char).is_ascii_alphabetic()
}

fn prev_is_ident(masked: &str, i: usize) -> bool {
    masked[..i].chars().next_back().is_some_and(lints::is_ident)
}

/// True when the word before byte `i` (skipping whitespace) is `fn` —
/// the identifier at `i` is a definition, not a call.
fn prev_word_is_fn(masked: &str, i: usize) -> bool {
    let head = masked[..i].trim_end();
    head.ends_with("fn")
        && !head[..head.len() - 2]
            .chars()
            .next_back()
            .is_some_and(lints::is_ident)
}

/// Builds a [`CallSite`] for the identifier spanning `start..end`, or
/// `None` when it isn't a call (keyword, macro, definition, no parens).
fn call_at(
    masked: &str,
    start: usize,
    end: usize,
    name: &str,
    stack: &[FrameKind],
    line: usize,
) -> Option<CallSite> {
    if KEYWORDS.contains(&name) || prev_word_is_fn(masked, start) {
        return None;
    }
    let bytes = masked.as_bytes();
    let mut j = end;
    // turbofish: `collect::<Vec<_>>(…)`
    if masked[j..].starts_with("::<") {
        let mut depth = 0i32;
        let mut k = j + 2;
        while k < bytes.len() {
            match bytes[k] {
                b'<' => depth += 1,
                b'>' => {
                    depth -= 1;
                    if depth == 0 {
                        k += 1;
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        j = k;
    }
    if bytes.get(j) != Some(&b'(') {
        return None;
    }
    if bytes.get(end) == Some(&b'!') {
        return None; // macro
    }
    let head = &masked[..start];
    let (qual, method) = if let Some(stem) = head.strip_suffix("::") {
        let q: String = stem
            .chars()
            .rev()
            .take_while(|&c| lints::is_ident(c))
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
            .collect();
        if q.is_empty() {
            (None, false)
        } else {
            (Some(q), false)
        }
    } else if head.ends_with('.') {
        (None, true)
    } else {
        (None, false)
    };
    Some(CallSite {
        name: name.to_string(),
        qual,
        method,
        line,
        held: held_classes(stack, None),
    })
}

/// Runs the lexical scanners and attributes each site to the innermost
/// function whose body spans its line; returns the sites no function
/// owns.
fn attach_sites(masked: &str, excluded: &BTreeSet<usize>, fns: &mut [FnItem]) -> Vec<Site> {
    let mut sites: Vec<Site> = Vec::new();
    for (idx, line) in masked.lines().enumerate() {
        let line_no = idx + 1;
        if excluded.contains(&line_no) {
            continue;
        }
        lints::scan_panic_sites(line, line_no, &mut sites);
        lints::scan_slice_index(line, line_no, &mut sites);
        lints::scan_as_truncation(line, line_no, &mut sites);
    }
    let mut loose = Vec::new();
    for site in sites {
        // innermost = the latest-starting function containing the line
        let owner = fns
            .iter_mut()
            .filter(|it| it.line <= site.line && site.line <= it.end_line)
            .max_by_key(|it| it.line);
        match owner {
            Some(it) => it.sites.push(site),
            None => loose.push(site),
        }
    }
    loose
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> Vec<FnItem> {
        parse_file(&lex(src), "crates/x/src/a.rs", "x").0
    }

    #[test]
    fn extracts_functions_with_impl_and_mod_context() {
        let src = "mod inner {\n  impl Foo {\n    pub fn bar(&self) -> u8 { 0 }\n  }\n  fn free() {}\n}\n";
        let fns = parse(src);
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].name, "bar");
        assert_eq!(fns[0].qual.as_deref(), Some("Foo"));
        assert_eq!(fns[0].mods, vec!["inner".to_string()]);
        assert_eq!(fns[1].name, "free");
        assert!(fns[1].qual.is_none());
    }

    #[test]
    fn trait_impl_uses_the_subject_type() {
        let src = "impl fmt::Display for Edge {\n  fn fmt(&self) -> u8 { 1 }\n}\n";
        let fns = parse(src);
        assert_eq!(fns[0].qual.as_deref(), Some("Edge"));
    }

    #[test]
    fn records_calls_with_qualifiers() {
        let src = "fn f() {\n  helper(1);\n  util::go(2);\n  x.method(3);\n  Self::own();\n  mac!(nope);\n}\n";
        let fns = parse(src);
        let calls: Vec<(&str, Option<&str>, bool)> = fns[0]
            .calls
            .iter()
            .map(|c| (c.name.as_str(), c.qual.as_deref(), c.method))
            .collect();
        assert_eq!(
            calls,
            vec![
                ("helper", None, false),
                ("go", Some("util"), false),
                ("method", None, true),
                ("own", Some("Self"), false),
            ]
        );
    }

    #[test]
    fn tracks_guards_and_lock_classes() {
        let src = "fn f(e: &E) {\n  let t = e.topo.write();\n  let p = e.published.write();\n  go();\n}\n";
        let fns = parse(src);
        let acq: Vec<(&str, &[String])> = fns[0]
            .acquires
            .iter()
            .map(|a| (a.class.as_str(), a.held.as_slice()))
            .collect();
        assert_eq!(acq.len(), 2);
        assert_eq!(acq[0], ("topo", &[][..]));
        assert_eq!(acq[1].0, "published");
        assert_eq!(acq[1].1, &["topo".to_string()]);
        assert_eq!(fns[0].calls[0].held, vec!["topo".to_string(), "published".to_string()]);
    }

    #[test]
    fn temporaries_die_at_statement_end() {
        let src = "fn f(e: &E) {\n  let n = e.topo.read().len();\n  go();\n}\n";
        let fns = parse(src);
        assert!(fns[0].calls.iter().find(|c| c.name == "go").unwrap().held.is_empty());
    }

    #[test]
    fn match_bound_guard_survives_the_statement() {
        let src = "fn f(rx: &M) {\n  let guard = match rx.lock() {\n    Ok(g) => g,\n    Err(_) => return,\n  };\n  guard.recv_timeout(t);\n}\n";
        let fns = parse(src);
        assert_eq!(fns[0].blocking.len(), 1);
        assert_eq!(fns[0].blocking[0].what, "channel recv_timeout");
        assert_eq!(fns[0].blocking[0].held, vec!["rx".to_string()]);
    }

    #[test]
    fn condvar_wait_releases_the_passed_guard() {
        let src = "fn f(e: &E) {\n  let mut table = e.leases.lock().map_err(|_| x)?;\n  table = e.cv.wait(table).map_err(|_| x)?;\n}\n";
        let fns = parse(src);
        assert_eq!(fns[0].blocking.len(), 1);
        assert!(fns[0].blocking[0].held.is_empty(), "{:?}", fns[0].blocking[0].held);
    }

    #[test]
    fn wrapper_acquisitions_classify_by_argument() {
        let src = "fn f(s: &S) {\n  let t = read_guard(&s.entry.topo)?;\n  let g = write_guard(s.shard(name))?;\n}\n";
        let fns = parse(src);
        assert_eq!(fns[0].acquires[0].class, "topo");
        assert_eq!(fns[0].acquires[1].class, "shard");
    }

    #[test]
    fn io_read_with_args_blocks_but_rwlock_read_does_not() {
        let src = "fn f(s: &mut T, l: &L) {\n  s.read(&mut buf);\n  let g = l.topo.read();\n}\n";
        let fns = parse(src);
        assert_eq!(fns[0].blocking.len(), 1);
        assert_eq!(fns[0].blocking[0].what, "socket read");
        assert_eq!(fns[0].acquires.len(), 1);
    }

    #[test]
    fn drop_releases_a_named_guard() {
        let src = "fn f(e: &E) {\n  let t = e.topo.write();\n  drop(t);\n  go();\n}\n";
        let fns = parse(src);
        // drop(t) is itself a call; the `go()` call afterwards must
        // not see `topo` held
        let go = fns[0].calls.iter().find(|c| c.name == "go").unwrap();
        assert!(go.held.is_empty(), "{:?}", go.held);
    }

    #[test]
    fn attaches_panic_and_index_sites_to_the_enclosing_fn() {
        let src = "fn a(x: Option<u8>) -> u8 { x.unwrap() }\nfn b(v: &[u8], i: usize) -> u8 { v[i] }\n\
                   static N: u32 = LIMIT.get().unwrap();\nfn c(n: usize) -> u8 { n as u8 }\n";
        let (fns, loose) = parse_file(&lex(src), "crates/x/src/a.rs", "x");
        let kinds = |f: &FnItem| f.sites.iter().map(|s| s.lint).collect::<Vec<_>>();
        assert_eq!(kinds(&fns[0]), ["panic-site"]);
        assert_eq!(kinds(&fns[1]), ["slice-index"]);
        assert_eq!(kinds(&fns[2]), ["as-truncation"]);
        // a site outside every body stays with the file
        assert_eq!(loose.iter().map(|s| (s.line, s.lint)).collect::<Vec<_>>(), [(3, "panic-site")]);
    }

    #[test]
    fn test_regions_are_excluded() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n  fn t() { x.unwrap(); }\n}\n";
        let fns = parse(src);
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "a");
    }

    #[test]
    fn get_or_init_holds_its_class_across_the_closure() {
        let src = "fn plan(s: &S) {\n  s.plan.get_or_init(|| build(&s.w));\n}\n";
        let fns = parse(src);
        assert_eq!(fns[0].acquires.len(), 1);
        assert_eq!(fns[0].acquires[0].class, "plan");
        let build = fns[0].calls.iter().find(|c| c.name == "build").unwrap();
        assert_eq!(build.held, vec!["plan".to_string()]);
    }
}
