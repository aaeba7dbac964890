//! Plain-text graph serialization.
//!
//! A minimal, diff-friendly format for persisting experiment topologies
//! and debugging failures:
//!
//! ```text
//! # optional comments
//! nodes 5
//! edge 0 1
//! edge 1 2
//! point 0 0.25 1.5      # optional positions, one per node
//! ```
//!
//! Everything is line-oriented; unknown lines and non-finite
//! coordinates are an error (fail fast rather than silently dropping
//! data or placing a node nowhere).
//!
//! [`from_text`] reads a document in one pass over its bytes. A line
//! ends at `\n`, and a `#` ends its data. Tokens are separated by
//! whitespace as [`char::is_whitespace`] defines it: the six ASCII
//! bytes space, `\t`, `\n`, U+000B, U+000C and `\r`, and every
//! non-ASCII whitespace char (U+00A0, U+3000, …). Ids take
//! `usize::from_str`'s syntax (an optional `+`, then decimal digits) and
//! coordinates `f64::from_str`'s.

use crate::{Graph, NodeId};
use std::error::Error;
use std::fmt::{self, Write as _};
use wcds_geom::Point;

/// Hard cap on the declared node count.
///
/// The parser allocates per-node state, so an adversarial
/// `nodes 99999999999999` line would otherwise abort the process with a
/// failed allocation before a single edge is read. Wire payloads (the
/// service layer reuses this format over TCP) must degrade to a typed
/// error instead.
pub const MAX_NODES: usize = 1 << 24;

/// Longest text, in bytes, that a [`ParseErrorKind::Malformed`] or
/// [`ParseErrorKind::UnknownDirective`] quotes before its `…`.
const QUOTE_BYTES: usize = 64;

/// Error parsing the text graph format.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseGraphError {
    line: usize,
    kind: ParseErrorKind,
}

impl ParseGraphError {
    /// The 1-based line the error was detected on (0 for whole-document
    /// errors such as a missing header or undecodable bytes).
    pub fn line(&self) -> usize {
        self.line
    }

    /// What went wrong.
    pub fn kind(&self) -> &ParseErrorKind {
        &self.kind
    }
}

/// The specific defect [`from_text`] / [`from_bytes`] rejected.
///
/// The quoted text of [`Malformed`](Self::Malformed) and
/// [`UnknownDirective`](Self::UnknownDirective) is clipped to 64 bytes,
/// cut on a char boundary and followed by `…`, so an error about a
/// hostile megabyte-long line stays short.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ParseErrorKind {
    /// No `nodes <n>` header before the first data line (or at all).
    MissingHeader,
    /// A second `nodes` header — accepting it would silently discard
    /// every edge and point read so far.
    DuplicateHeader,
    /// A directive other than `nodes` / `edge` / `point` (clipped).
    UnknownDirective(String),
    /// Wrong token count or an unparsable token (includes lines cut off
    /// mid-way by truncation); carries the line's data, clipped.
    Malformed(String),
    /// A node id at or beyond the declared count.
    OutOfRange(NodeId),
    /// Two `point` lines for one node.
    DuplicatePoint(NodeId),
    /// Declared node count beyond [`MAX_NODES`].
    TooManyNodes(usize),
    /// Byte input that is not valid UTF-8 (e.g. a frame truncated in
    /// the middle of a multi-byte character).
    InvalidUtf8,
}

impl fmt::Display for ParseGraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ParseErrorKind::MissingHeader => {
                write!(f, "line {}: expected `nodes <n>` header", self.line)
            }
            ParseErrorKind::UnknownDirective(d) => {
                write!(f, "line {}: unknown directive `{d}`", self.line)
            }
            ParseErrorKind::Malformed(s) => write!(f, "line {}: malformed line `{s}`", self.line),
            ParseErrorKind::OutOfRange(u) => {
                write!(f, "line {}: node {u} out of declared range", self.line)
            }
            ParseErrorKind::DuplicatePoint(u) => {
                write!(f, "line {}: duplicate point for node {u}", self.line)
            }
            ParseErrorKind::DuplicateHeader => {
                write!(f, "line {}: duplicate `nodes` header", self.line)
            }
            ParseErrorKind::TooManyNodes(n) => {
                write!(f, "line {}: node count {n} exceeds the {MAX_NODES} limit", self.line)
            }
            ParseErrorKind::InvalidUtf8 => write!(f, "input is not valid UTF-8"),
        }
    }
}

impl Error for ParseGraphError {}

/// A parsed document: the graph plus optional node positions.
#[derive(Debug, Clone)]
pub struct GraphDocument {
    /// The adjacency structure.
    pub graph: Graph,
    /// Node positions, if every node had a `point` line.
    pub points: Option<Vec<Point>>,
}

/// Serialises a graph (and optional positions) to the text format.
///
/// Every line is written into one buffer, sized up front for the
/// header and edge lines.
///
/// # Panics
///
/// Panics if `points` is `Some` with a length different from the node
/// count.
pub fn to_text(graph: &Graph, points: Option<&[Point]>) -> String {
    if let Some(p) = points {
        assert_eq!(p.len(), graph.node_count(), "points/nodes length mismatch");
    }
    let n = graph.node_count();
    let id_digits = n.checked_ilog10().map_or(1, |d| d as usize + 1);
    let point_lines = points.map_or(0, <[Point]>::len);
    // a point line's two coordinates usually print in under 40 bytes
    let mut out = String::with_capacity(
        7 + id_digits + graph.edge_count() * (7 + 2 * id_digits) + point_lines * (48 + id_digits),
    );
    // writing into a `String` cannot fail
    let _ = writeln!(out, "nodes {n}");
    for u in graph.nodes() {
        for v in graph.adj(u).filter(|&v| v > u) {
            let _ = writeln!(out, "edge {u} {v}");
        }
    }
    for (i, p) in points.into_iter().flatten().enumerate() {
        let _ = writeln!(out, "point {i} {} {}", p.x, p.y);
    }
    out
}

/// Parses the text format produced by [`to_text`].
///
/// One pass over the bytes: edges go straight into canonical pairs that
/// become the CSR without a sort when they already ascend (as
/// [`to_text`] writes them), and positions into one slot array that the
/// first `point` line allocates.
///
/// # Errors
///
/// Returns [`ParseGraphError`] on any malformed, out-of-range, or unknown
/// line, with the 1-based line number.
pub fn from_text(text: &str) -> Result<GraphDocument, ParseGraphError> {
    let mut p = Parser {
        text,
        pos: 0,
        line: 1,
        line_start: 0,
        n: None,
        pairs: Vec::new(),
        points: Vec::new(),
        placed: 0,
    };
    loop {
        if let Some(directive) = p.token() {
            p.directive(directive)?;
            if p.token().is_some() {
                return Err(p.malformed());
            }
        }
        if !p.next_line() {
            break;
        }
    }
    let n = p.n.ok_or(ParseGraphError { line: 0, kind: ParseErrorKind::MissingHeader })?;
    let points = (p.placed == n).then_some(p.points);
    Ok(GraphDocument { graph: Graph::from_pairs(n, p.pairs), points })
}

/// Parses the text format from raw bytes (e.g. a network frame).
///
/// Identical to [`from_text`] except that undecodable bytes — a frame
/// truncated inside a multi-byte character, or binary garbage — yield a
/// typed [`ParseErrorKind::InvalidUtf8`] instead of requiring the
/// caller to pre-validate.
///
/// # Errors
///
/// Returns [`ParseGraphError`] on invalid UTF-8 or any defect
/// [`from_text`] rejects.
pub fn from_bytes(bytes: &[u8]) -> Result<GraphDocument, ParseGraphError> {
    let text = std::str::from_utf8(bytes)
        .map_err(|_| ParseGraphError { line: 0, kind: ParseErrorKind::InvalidUtf8 })?;
    from_text(text)
}

/// A position slot no `point` line has filled yet: parsed coordinates
/// are finite, so a NaN slot is an empty one.
const UNPLACED: Point = Point { x: f64::NAN, y: f64::NAN };

/// What the char at the cursor is to the tokenizer.
enum Class {
    /// `\n`, `#`, or the end of the text: the line's data is over.
    End,
    /// Whitespace of this many bytes.
    Separator(usize),
    /// A token char of this many bytes.
    Token(usize),
}

/// The state of one [`from_text`] pass.
struct Parser<'a> {
    text: &'a str,
    /// Byte offset of the next unread char, always on a char boundary.
    pos: usize,
    /// The current line's 1-based number and first byte.
    line: usize,
    line_start: usize,
    /// The declared node count, once the header is read.
    n: Option<usize>,
    /// Every `edge` line as a canonical `(u, v)` pair, `u < v`.
    pairs: Vec<(u32, u32)>,
    /// Empty until the first `point` line, then one slot per node.
    points: Vec<Point>,
    /// Slots filled; every slot is filled when this reaches `n`.
    placed: usize,
}

impl<'a> Parser<'a> {
    fn class(&self) -> Class {
        match self.text.as_bytes().get(self.pos) {
            None | Some(b'\n' | b'#') => Class::End,
            Some(b' ' | b'\t' | b'\x0B' | b'\x0C' | b'\r') => Class::Separator(1),
            Some(b) if b.is_ascii() => Class::Token(1),
            Some(_) => match self.text.get(self.pos..).and_then(|rest| rest.chars().next()) {
                Some(c) if c.is_whitespace() => Class::Separator(c.len_utf8()),
                Some(c) => Class::Token(c.len_utf8()),
                // off a char boundary, which the cursor never is
                None => Class::End,
            },
        }
    }

    /// Moves to the start of the line's next token; false at the end of
    /// its data, where the cursor stays.
    fn skip_separators(&mut self) -> bool {
        loop {
            match self.class() {
                Class::End => return false,
                Class::Separator(width) => self.pos += width,
                Class::Token(_) => return true,
            }
        }
    }

    /// The next token of the current line, or `None` at the end of its
    /// data.
    fn token(&mut self) -> Option<&'a str> {
        if !self.skip_separators() {
            return None;
        }
        let start = self.pos;
        while let Class::Token(width) = self.class() {
            self.pos += width;
        }
        self.text.get(start..self.pos)
    }

    /// The next token as a node id or count: `usize::from_str`'s syntax
    /// (an optional `+`, then one or more ASCII digits) in one checked
    /// loop over the bytes; overflow is `None`.
    fn id(&mut self) -> Option<usize> {
        if !self.skip_separators() {
            return None;
        }
        let bytes = self.text.as_bytes().get(self.pos..).unwrap_or_default();
        let signed = usize::from(bytes.first() == Some(&b'+'));
        let mut value = Some(0usize);
        let mut len = 0;
        for &b in bytes.get(signed..).unwrap_or_default() {
            let digit = b.wrapping_sub(b'0');
            if digit > 9 {
                break;
            }
            value = value.and_then(|v| v.checked_mul(10)?.checked_add(usize::from(digit)));
            len += 1;
        }
        self.pos += signed + len;
        if len == 0 || matches!(self.class(), Class::Token(_)) {
            return None;
        }
        value
    }

    /// The next token as a coordinate.
    fn coord(&mut self) -> Option<f64> {
        self.token()?.parse().ok()
    }

    /// Moves to the start of the next line; false at the end of the
    /// text.
    fn next_line(&mut self) -> bool {
        let rest = self.text.as_bytes().get(self.pos..).unwrap_or_default();
        match rest.iter().position(|&b| b == b'\n') {
            Some(at) => {
                self.pos += at + 1;
                self.line += 1;
                self.line_start = self.pos;
                true
            }
            None => false,
        }
    }

    fn fail(&self, kind: ParseErrorKind) -> ParseGraphError {
        ParseGraphError { line: self.line, kind }
    }

    /// A `Malformed` error quoting the current line's data: its text
    /// before any `#`, trimmed, clipped.
    fn malformed(&self) -> ParseGraphError {
        let rest = self.text.get(self.line_start..).unwrap_or_default();
        let data = rest.split(['\n', '#']).next().unwrap_or_default();
        self.fail(ParseErrorKind::Malformed(quote(data.trim())))
    }

    /// Reads the rest of a line that starts with `directive`.
    fn directive(&mut self, directive: &str) -> Result<(), ParseGraphError> {
        match directive {
            "nodes" => {
                if self.n.is_some() {
                    return Err(self.fail(ParseErrorKind::DuplicateHeader));
                }
                let count = self.id().ok_or_else(|| self.malformed())?;
                if count > MAX_NODES {
                    return Err(self.fail(ParseErrorKind::TooManyNodes(count)));
                }
                self.n = Some(count);
            }
            "edge" => {
                let n = self.n.ok_or_else(|| self.fail(ParseErrorKind::MissingHeader))?;
                let u = self.id().ok_or_else(|| self.malformed())?;
                let v = self.id().ok_or_else(|| self.malformed())?;
                for x in [u, v] {
                    if x >= n {
                        return Err(self.fail(ParseErrorKind::OutOfRange(x)));
                    }
                }
                // ids below `n ≤ MAX_NODES` fit u32
                match (u32::try_from(u.min(v)), u32::try_from(u.max(v))) {
                    (Ok(lo), Ok(hi)) if lo < hi => self.pairs.push((lo, hi)),
                    _ => return Err(self.malformed()),
                }
            }
            "point" => {
                let n = self.n.ok_or_else(|| self.fail(ParseErrorKind::MissingHeader))?;
                let u = self.id().ok_or_else(|| self.malformed())?;
                let x = self.coord().ok_or_else(|| self.malformed())?;
                let y = self.coord().ok_or_else(|| self.malformed())?;
                if !(x.is_finite() && y.is_finite()) {
                    return Err(self.malformed());
                }
                if u >= n {
                    return Err(self.fail(ParseErrorKind::OutOfRange(u)));
                }
                if self.points.is_empty() {
                    self.points = vec![UNPLACED; n];
                }
                match self.points.get_mut(u) {
                    Some(slot) if slot.x.is_nan() => *slot = Point::new(x, y),
                    _ => return Err(self.fail(ParseErrorKind::DuplicatePoint(u))),
                }
                self.placed += 1;
            }
            other => return Err(self.fail(ParseErrorKind::UnknownDirective(quote(other)))),
        }
        Ok(())
    }
}

/// `text` clipped to [`QUOTE_BYTES`] on a char boundary, plus `…`.
fn quote(text: &str) -> String {
    if text.len() <= QUOTE_BYTES {
        return text.to_string();
    }
    let cut = (0..=QUOTE_BYTES).rev().find(|&at| text.is_char_boundary(at)).unwrap_or(0);
    format!("{}…", text.get(..cut).unwrap_or_default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::{GraphBuilder, UnitDiskGraph};
    use std::str::FromStr;
    use wcds_geom::deploy;
    use wcds_rng::{ChaCha12Rng, Rng};

    /// The parser before the byte pass, kept as the differential
    /// oracle's reference: `lines` → `split('#')` → `trim` →
    /// `split_whitespace`, every token through `FromStr`, every edge
    /// through a [`GraphBuilder`]. Its quoted text is clipped as
    /// [`from_text`] clips it.
    fn reference_from_text(text: &str) -> Result<GraphDocument, ParseGraphError> {
        let mut n: Option<usize> = None;
        let mut builder: Option<GraphBuilder> = None;
        let mut points: Vec<Option<Point>> = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let Some(directive) = parts.next() else { continue };
            let err = |kind| ParseGraphError { line: line_no, kind };
            match directive {
                "nodes" => {
                    if builder.is_some() {
                        return Err(err(ParseErrorKind::DuplicateHeader));
                    }
                    let count = reference_token::<usize>(parts.next(), line, line_no)?;
                    if count > MAX_NODES {
                        return Err(err(ParseErrorKind::TooManyNodes(count)));
                    }
                    n = Some(count);
                    builder = Some(GraphBuilder::new(count));
                    points = vec![None; count];
                }
                "edge" => {
                    let b = builder.as_mut().ok_or_else(|| err(ParseErrorKind::MissingHeader))?;
                    let u = reference_token::<NodeId>(parts.next(), line, line_no)?;
                    let v = reference_token::<NodeId>(parts.next(), line, line_no)?;
                    let n = n.ok_or_else(|| err(ParseErrorKind::MissingHeader))?;
                    for x in [u, v] {
                        if x >= n {
                            return Err(err(ParseErrorKind::OutOfRange(x)));
                        }
                    }
                    if u == v {
                        return Err(err(ParseErrorKind::Malformed(quote(line))));
                    }
                    b.add_edge(u, v);
                }
                "point" => {
                    if builder.is_none() {
                        return Err(err(ParseErrorKind::MissingHeader));
                    }
                    let u = reference_token::<NodeId>(parts.next(), line, line_no)?;
                    let x = reference_token::<f64>(parts.next(), line, line_no)?;
                    let y = reference_token::<f64>(parts.next(), line, line_no)?;
                    if !(x.is_finite() && y.is_finite()) {
                        return Err(err(ParseErrorKind::Malformed(quote(line))));
                    }
                    let slot =
                        points.get_mut(u).ok_or_else(|| err(ParseErrorKind::OutOfRange(u)))?;
                    if slot.is_some() {
                        return Err(err(ParseErrorKind::DuplicatePoint(u)));
                    }
                    *slot = Some(Point::new(x, y));
                }
                other => return Err(err(ParseErrorKind::UnknownDirective(quote(other)))),
            }
            if parts.next().is_some() {
                return Err(err(ParseErrorKind::Malformed(quote(line))));
            }
        }
        let builder =
            builder.ok_or(ParseGraphError { line: 0, kind: ParseErrorKind::MissingHeader })?;
        let all_points: Option<Vec<Point>> = points.iter().copied().collect();
        Ok(GraphDocument { graph: builder.build(), points: all_points })
    }

    fn reference_from_bytes(bytes: &[u8]) -> Result<GraphDocument, ParseGraphError> {
        let text = std::str::from_utf8(bytes)
            .map_err(|_| ParseGraphError { line: 0, kind: ParseErrorKind::InvalidUtf8 })?;
        reference_from_text(text)
    }

    fn reference_token<T: FromStr>(
        token: Option<&str>,
        line: &str,
        line_no: usize,
    ) -> Result<T, ParseGraphError> {
        token.and_then(|t| t.parse().ok()).ok_or_else(|| ParseGraphError {
            line: line_no,
            kind: ParseErrorKind::Malformed(quote(line)),
        })
    }

    /// [`to_text`] before the single buffer: one `format!` per line.
    fn reference_to_text(graph: &Graph, points: Option<&[Point]>) -> String {
        let mut out = String::new();
        out.push_str(&format!("nodes {}\n", graph.node_count()));
        for e in graph.edges() {
            let (u, v) = e.endpoints();
            out.push_str(&format!("edge {u} {v}\n"));
        }
        if let Some(pts) = points {
            for (i, p) in pts.iter().enumerate() {
                out.push_str(&format!("point {i} {} {}\n", p.x, p.y));
            }
        }
        out
    }

    /// A parse result with coordinates as bit patterns, so that `-0.0`
    /// and `0.0` compare unequal.
    type Outcome = Result<(Graph, Option<Vec<(u64, u64)>>), ParseGraphError>;

    fn outcome(parsed: Result<GraphDocument, ParseGraphError>) -> Outcome {
        parsed.map(|doc| {
            let bits = |ps: Vec<Point>| ps.iter().map(|p| (p.x.to_bits(), p.y.to_bits())).collect();
            (doc.graph, doc.points.map(bits))
        })
    }

    /// Both parsers return the same graph and points, or the same error
    /// kind and line; through `from_bytes` too.
    fn assert_agrees(text: &str) {
        let got = outcome(from_text(text));
        assert_eq!(got, outcome(reference_from_text(text)), "{text:?}");
        assert_eq!(outcome(from_bytes(text.as_bytes())), got, "{text:?} as bytes");
    }

    /// Separators the oracle writes between tokens: every ASCII byte
    /// `char::is_whitespace` accepts but `\n`, and non-ASCII ones.
    const SEPARATORS: [&str; 10] =
        [" ", "  ", "\t", "\u{b}", "\u{c}", "\r", "\u{a0}", "\u{3000}", "\u{85}", " \t\u{2028} "];

    /// Tokens that replace a coordinate: valid and invalid `f64` syntax.
    const ODD_COORDS: [&str; 16] = [
        "1e400", "-0", "-0.0", "inf", "-inf", "NaN", ".5", "5.", "-.5", "+5", "1e-400", "0x10",
        "1_0", "5e", ".", "infinity",
    ];

    /// Tokens that replace a node id: `+`-signed, zero-padded, past
    /// `usize::MAX`, and invalid.
    const ODD_IDS: [&str; 12] = [
        "+1",
        "0001",
        "+0000",
        "18446744073709551615",
        "18446744073709551616",
        "99999999999999999999999",
        "-0",
        "+",
        "++1",
        "1_0",
        "1.0",
        "٣",
    ];

    /// Documents to mutate: `to_text` output of random graphs and of
    /// random deployments with their points.
    fn base_documents() -> Vec<String> {
        let mut docs = vec![to_text(&Graph::empty(0), None), to_text(&Graph::empty(3), None)];
        for seed in 0..6u64 {
            let g = generators::connected_gnp(4 + 7 * seed as usize, 0.25, seed);
            docs.push(to_text(&g, None));
            let pts = deploy::uniform(6 + 5 * seed as usize, 3.0, 3.0, seed);
            let udg = UnitDiskGraph::build(pts, 1.0);
            docs.push(to_text(udg.graph(), Some(udg.points())));
        }
        docs
    }

    fn pick<'a>(rng: &mut ChaCha12Rng, from: &[&'a str]) -> &'a str {
        from.get(rng.gen_range(0..from.len())).copied().unwrap_or(" ")
    }

    /// Edits that keep a document valid: arms 0 to 6 of [`mutate`].
    const BENIGN: u32 = 7;
    /// Every arm of [`mutate`].
    const ARMS: u32 = 13;

    /// One seeded edit of a document's lines, chosen by `arm`.
    fn mutate(lines: &mut Vec<String>, rng: &mut ChaCha12Rng, arm: u32) {
        let edges: Vec<usize> =
            (0..lines.len()).filter(|&i| lines[i].starts_with("edge")).collect();
        let any = |rng: &mut ChaCha12Rng, len: usize| rng.gen_range(0..len.max(1));
        match arm {
            // shuffle the edge lines among their slots
            0 => {
                let mut moved: Vec<String> = edges.iter().map(|&i| lines[i].clone()).collect();
                for i in (1..moved.len()).rev() {
                    moved.swap(i, rng.gen_range(0..=i));
                }
                for (&slot, line) in edges.iter().zip(moved) {
                    lines[slot] = line;
                }
            }
            // reverse the edge lines
            1 => {
                let moved: Vec<String> = edges.iter().rev().map(|&i| lines[i].clone()).collect();
                for (&slot, line) in edges.iter().zip(moved) {
                    lines[slot] = line;
                }
            }
            // repeat an edge line, as written or reversed
            2 if !edges.is_empty() => {
                let line = lines[edges[any(rng, edges.len())]].clone();
                let words: Vec<&str> = line.split_whitespace().collect();
                let copy = match words[..] {
                    [_, u, v, ..] if rng.gen_bool(0.5) => format!("edge {v} {u}"),
                    _ => line.clone(),
                };
                let at = rng.gen_range(1..=lines.len());
                lines.insert(at, copy);
            }
            // comment and blank lines, trailing comments
            3 => {
                let at = rng.gen_range(0..=lines.len());
                let extra = pick(rng, &["# note", "", "   ", "\t", "#", "# é ü", "  # x y z"]);
                lines.insert(at, extra.to_string());
            }
            4 if !lines.is_empty() => {
                let at = any(rng, lines.len());
                let tail = pick(rng, &[" # c", "#c", "# edge 0 1", "\t#\u{a0}", "#\r"]);
                lines[at].push_str(tail);
            }
            // odd separators, leading and trailing whitespace
            5 if !lines.is_empty() => {
                let at = any(rng, lines.len());
                let words: Vec<String> = lines[at].split(' ').map(str::to_string).collect();
                let mut line = pick(rng, &["", "", " ", "\u{3000}", "\t"]).to_string();
                for (k, w) in words.iter().enumerate() {
                    if k > 0 {
                        line.push_str(pick(rng, &SEPARATORS));
                    }
                    line.push_str(w);
                }
                line.push_str(pick(rng, &["", "", " ", "\r", "\u{a0}"]));
                lines[at] = line;
            }
            // `+`-signed and zero-padded ids
            6 if !lines.is_empty() => {
                let at = any(rng, lines.len());
                let t: Vec<String> = lines[at].split(' ').map(str::to_string).collect();
                let padded: Vec<String> = t
                    .iter()
                    .enumerate()
                    .map(|(k, w)| {
                        let is_id = (1..=2).contains(&k) && w.bytes().all(|b| b.is_ascii_digit());
                        if is_id && !(t[0] == "point" && k == 2) {
                            format!("{}{w}", pick(rng, &["+", "0", "00", "+0", ""]))
                        } else {
                            w.clone()
                        }
                    })
                    .collect();
                lines[at] = padded.join(" ");
            }
            // an odd id or coordinate in place of a token
            7 | 8 if !lines.is_empty() => {
                let at = any(rng, lines.len());
                let mut t: Vec<String> = lines[at].split(' ').map(str::to_string).collect();
                if t.len() > 1 {
                    let k = rng.gen_range(1..t.len());
                    let odd =
                        if t[0] == "point" && k >= 2 { &ODD_COORDS[..] } else { &ODD_IDS[..] };
                    t[k] = pick(rng, odd).to_string();
                    lines[at] = t.join(" ");
                }
            }
            // out-of-range ids, self-loops, a second header, a second
            // point, an edge before the header, a stray directive
            9 => {
                let n = lines
                    .iter()
                    .find_map(|l| l.strip_prefix("nodes ").and_then(|c| c.parse::<usize>().ok()))
                    .unwrap_or(0);
                let bad = match rng.gen_range(0..8u32) {
                    0 => format!("edge 0 {}", n + rng.gen_range(0..3usize)),
                    1 => format!("edge {0} {0}", any(rng, n)),
                    2 => format!("nodes {}", any(rng, n + 2)),
                    3 => format!("point {} 0.5 0.5", any(rng, n + 3)),
                    4 => format!("point {} 1 2 3", any(rng, n)),
                    5 => format!("edge {} {} {}", 0, 1, 2),
                    6 => pick(rng, &["vertex 0", "Edge 0 1", "edgé 0 1", "nodes", "point"])
                        .to_string(),
                    _ => "edge 0 1".to_string(),
                };
                let at = rng.gen_range(0..=lines.len());
                lines.insert(at, bad);
            }
            // truncate one line, or drop the header
            10 if !lines.is_empty() => {
                let at = any(rng, lines.len());
                let keep = any(rng, lines[at].len());
                let cut = (0..=keep).rev().find(|&i| lines[at].is_char_boundary(i)).unwrap_or(0);
                lines[at].truncate(cut);
            }
            11 if !lines.is_empty() && lines[0].starts_with("nodes") => {
                lines.remove(0);
            }
            // a line too long to quote whole
            12 => {
                let at = rng.gen_range(0..=lines.len());
                let word = pick(rng, &["x", "é", "𝄞", " 0"]);
                lines.insert(at, format!("edge 0{}", word.repeat(rng.gen_range(20..60usize))));
            }
            _ => {}
        }
    }

    /// Joins lines with `\n`, CRLF, or in some documents one bare `\r`
    /// (which ends no line), with or without a final line end.
    fn join(lines: &[String], rng: &mut ChaCha12Rng) -> String {
        let crlf = rng.gen_bool(0.3);
        let bare =
            if rng.gen_bool(0.15) { rng.gen_range(0..lines.len().max(1)) } else { usize::MAX };
        let mut text = String::new();
        for (i, line) in lines.iter().enumerate() {
            text.push_str(line);
            let last = i + 1 == lines.len();
            if last && rng.gen_bool(0.3) {
                break;
            }
            let end = if i == bare {
                "\r"
            } else if crlf || rng.gen_bool(0.1) {
                "\r\n"
            } else {
                "\n"
            };
            text.push_str(end);
        }
        text
    }

    #[test]
    fn byte_pass_agrees_with_the_reference_on_seeded_documents() {
        let mut rng = ChaCha12Rng::seed_from_u64(28);
        let (mut accepted, mut rejected) = (0, 0);
        for base in base_documents() {
            assert_agrees(&base);
            for _ in 0..60 {
                let mut lines: Vec<String> = base.lines().map(str::to_string).collect();
                for _ in 0..rng.gen_range(1..=4u32) {
                    let arm = rng.gen_range(0..BENIGN);
                    mutate(&mut lines, &mut rng, arm);
                }
                if rng.gen_bool(0.5) {
                    let arm = rng.gen_range(BENIGN..ARMS);
                    mutate(&mut lines, &mut rng, arm);
                }
                let text = join(&lines, &mut rng);
                assert_agrees(&text);
                if from_text(&text).is_ok() {
                    accepted += 1;
                } else {
                    rejected += 1;
                }
            }
        }
        // the corpus exercises both outcomes in earnest
        assert!(accepted > 300 && rejected > 300, "{accepted} accepted, {rejected} rejected");
    }

    #[test]
    fn byte_pass_agrees_with_the_reference_on_hand_written_documents() {
        let long = format!("nodes 2\nedge 0 1 {}\n", "é".repeat(40));
        let cases = [
            "",
            "\n\n",
            "# only a comment",
            "nodes 0\n",
            "nodes 0\npoint 0 0 0\n",
            "nodes 2\n",
            "nodes 3\r\nedge 0 1\r\nedge 1 2\r\n",
            "nodes 3\redge 0 1\n",
            "nodes 3\nedge 0 1\redge 1 2\n",
            "nodes\t3\nedge\u{b}0\u{c}1\nedge\u{a0}1\u{3000}2\r\n",
            "\u{3000}nodes 2\u{a0}\nedge 0 1\u{85}\n",
            "nodes 2\nedge 0\u{200b}1\n",
            "nodes +3\nedge 000 +0002\n",
            "nodes 3\nedge 0 18446744073709551616\n",
            "nodes 3\nedge 0 18446744073709551615\n",
            "nodes 18446744073709551615\n",
            "nodes 99999999999999999999\n",
            "nodes 3\nedge 0 -0\n",
            "nodes 3\nedge + 1\n",
            "nodes 3\nedge ++1 2\n",
            "nodes 3\nedge 1 1\n",
            "nodes 3\nedge 1 9 x\n",
            "nodes 3\nedge 0 1#2\n",
            "nodes 3\nedge 0 1 #2\n",
            "nodes 3\nedge#\n0 1\n",
            "edge 0 1\nnodes 2\n",
            "point 0 0 0\nnodes 1\n",
            "nodes 2\nnodes 2\n",
            "nodes 2\nnodes\n",
            "nodes 1\npoint 0 0 0\npoint 0 0 0\n",
            "nodes 1\npoint 0 0 0 0\n",
            "nodes 1\npoint 5 nan 0\n",
            "nodes 1\npoint 5 0.5 0\n",
            "nodes 1\nvertex 0\n",
            "nodes 1\nEdge 0 1\n",
            "nodes 1\nedgé 0 1\n",
            &long,
        ];
        for text in cases {
            assert_agrees(text);
        }
        for coord in ODD_COORDS {
            assert_agrees(&format!("nodes 2\npoint 0 {coord} 1\npoint 1 0 {coord}\n"));
        }
        for id in ODD_IDS {
            assert_agrees(&format!("nodes 4\nedge {id} 3\npoint {id} 0 0\n"));
            assert_agrees(&format!("nodes {id}\n"));
        }
    }

    #[test]
    fn every_ascii_char_and_a_few_wider_ones_separate_as_the_reference_does() {
        let wide = [
            '\u{85}', '\u{a0}', '\u{1680}', '\u{2000}', '\u{200a}', '\u{200b}', '\u{2028}',
            '\u{2029}', '\u{202f}', '\u{205f}', '\u{3000}', '\u{feff}', 'é', '𝄞',
        ];
        for c in (0..128u8).map(char::from).chain(wide) {
            assert_agrees(&format!("nodes{c}3\nedge{c}0{c}1\npoint 0{c}0.5{c}1\n"));
            assert_agrees(&format!("{c}nodes 3{c}\nedge 1 2{c}{c}\n"));
        }
    }

    #[test]
    fn every_byte_prefix_parses_as_the_reference_does() {
        let doc = "# ü\u{3000}é\nnodes 3\u{a0}\nedge 0 1\r\nedge\t1 2 # 𝄞\npoint 0 0.5 -0\npoint 1 1e-3 .5\npoint 2 5. 1\n";
        let bytes = doc.as_bytes();
        let mut cut_in_a_char = 0;
        for end in 0..=bytes.len() {
            let prefix = &bytes[..end];
            let got = outcome(from_bytes(prefix));
            assert_eq!(got, outcome(reference_from_bytes(prefix)), "prefix of {end} bytes");
            match std::str::from_utf8(prefix) {
                Ok(text) => assert_eq!(outcome(from_text(text)), got, "prefix of {end} bytes"),
                Err(_) => {
                    cut_in_a_char += 1;
                    let e = got.unwrap_err();
                    assert_eq!((e.kind(), e.line()), (&ParseErrorKind::InvalidUtf8, 0));
                }
            }
        }
        assert!(cut_in_a_char >= 8, "{cut_in_a_char}");
        assert!(from_bytes(bytes).unwrap().points.is_some());
    }

    #[test]
    fn quoted_text_is_clipped_on_a_char_boundary() {
        let line = format!("edge 0 1 {}", "x".repeat(1 << 20));
        let e = from_text(&format!("nodes 2\n\n{line}\n")).unwrap_err();
        assert_eq!(e.line(), 3);
        let ParseErrorKind::Malformed(quoted) = e.kind() else { panic!("{e}") };
        assert_eq!(quoted.len(), QUOTE_BYTES + '…'.len_utf8());
        assert!(quoted.ends_with('…') && line.starts_with(quoted.trim_end_matches('…')));
        // 5 + 2k bytes of `é`s: the cut backs off to byte 63
        let wide = format!("edge {}", "é".repeat(40));
        let e = from_text(&format!("nodes 2\n{wide}\n")).unwrap_err();
        let ParseErrorKind::Malformed(quoted) = e.kind() else { panic!("{e}") };
        assert_eq!(quoted.trim_end_matches('…').len(), 63);
        assert!(wide.starts_with(quoted.trim_end_matches('…')));
        let directive = "v".repeat(100);
        let e = from_text(&format!("nodes 1\n{directive} 0\n")).unwrap_err();
        assert_eq!(e.kind(), &ParseErrorKind::UnknownDirective(format!("{}…", &directive[..64])));
        // short text is quoted whole
        let e = from_text("nodes 2\n  edge 0 0  # loop\n").unwrap_err();
        assert_eq!(e.kind(), &ParseErrorKind::Malformed("edge 0 0".into()));
    }

    #[test]
    fn to_text_is_byte_identical_to_the_per_line_format() {
        let odd = [
            -0.0,
            0.0,
            -1.5,
            3.0,
            1e-300,
            5e-324,
            -2.2e-308,
            1e300,
            -1e300,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            0.1,
            -123456.789,
            1e21,
            1e-7,
        ];
        let mut rng = ChaCha12Rng::seed_from_u64(7);
        for seed in 0..8u64 {
            let n = 1 + 9 * seed as usize;
            let g = generators::gnp(n, 0.3, seed);
            assert_eq!(to_text(&g, None), reference_to_text(&g, None));
            let points: Vec<Point> = (0..n)
                .map(|_| {
                    let mut coord = || match rng.gen_range(0..3u32) {
                        0 => odd[rng.gen_range(0..odd.len())],
                        1 => rng.gen_range(-1e6..1e6),
                        _ => rng.gen::<f64>(),
                    };
                    Point::new(coord(), coord())
                })
                .collect();
            let text = to_text(&g, Some(&points));
            assert_eq!(text, reference_to_text(&g, Some(&points)));
            // and it parses back to the same bits
            let back = outcome(from_text(&text)).unwrap();
            let bits: Vec<(u64, u64)> =
                points.iter().map(|p| (p.x.to_bits(), p.y.to_bits())).collect();
            assert_eq!(back, (g, Some(bits)));
        }
        assert_eq!(to_text(&Graph::empty(0), Some(&[])), "nodes 0\n");
    }

    #[test]
    fn roundtrip_graph_only() {
        let g = generators::connected_gnp(20, 0.2, 4);
        let doc = from_text(&to_text(&g, None)).unwrap();
        assert_eq!(doc.graph, g);
        assert!(doc.points.is_none());
    }

    #[test]
    fn roundtrip_with_points() {
        let udg = UnitDiskGraph::build(deploy::uniform(15, 3.0, 3.0, 1), 1.0);
        let doc = from_text(&to_text(udg.graph(), Some(udg.points()))).unwrap();
        assert_eq!(&doc.graph, udg.graph());
        let pts = doc.points.unwrap();
        for (a, b) in pts.iter().zip(udg.points()) {
            assert!(a.distance(*b) < 1e-12);
        }
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let doc = from_text("# hello\n\nnodes 2\nedge 0 1 # inline\n").unwrap();
        assert_eq!(doc.graph.edge_count(), 1);
    }

    #[test]
    fn missing_header_is_error() {
        let e = from_text("edge 0 1\n").unwrap_err();
        assert!(e.to_string().contains("nodes"));
    }

    #[test]
    fn out_of_range_edge_is_error() {
        let e = from_text("nodes 2\nedge 0 5\n").unwrap_err();
        assert!(e.to_string().contains("out of declared range"));
    }

    #[test]
    fn self_loop_is_error() {
        assert!(from_text("nodes 2\nedge 1 1\n").is_err());
    }

    #[test]
    fn unknown_directive_is_error() {
        let e = from_text("nodes 1\nvertex 0\n").unwrap_err();
        assert!(e.to_string().contains("unknown directive"));
    }

    #[test]
    fn trailing_tokens_are_error() {
        assert!(from_text("nodes 2\nedge 0 1 9\n").is_err());
    }

    #[test]
    fn duplicate_point_is_error() {
        let text = "nodes 1\npoint 0 0.0 0.0\npoint 0 1.0 1.0\n";
        let e = from_text(text).unwrap_err();
        assert!(e.to_string().contains("duplicate point"));
    }

    #[test]
    fn partial_points_yield_none() {
        let doc = from_text("nodes 2\nedge 0 1\npoint 0 0.0 0.0\n").unwrap();
        assert!(doc.points.is_none());
    }

    #[test]
    fn duplicate_header_is_error() {
        let e = from_text("nodes 3\nedge 0 1\nnodes 2\n").unwrap_err();
        assert_eq!(e.kind(), &ParseErrorKind::DuplicateHeader);
        assert_eq!(e.line(), 3);
    }

    #[test]
    fn absurd_node_count_is_error_not_abort() {
        let e = from_text("nodes 99999999999999\n").unwrap_err();
        assert!(matches!(e.kind(), ParseErrorKind::TooManyNodes(99999999999999)));
    }

    #[test]
    fn truncated_lines_are_typed_errors() {
        for text in ["nodes", "nodes 2\nedge 0", "nodes 2\nedge", "nodes 1\npoint 0 0.5"] {
            let e = from_text(text).unwrap_err();
            assert!(matches!(e.kind(), ParseErrorKind::Malformed(_)), "{text:?}: {e}");
        }
    }

    #[test]
    fn non_finite_points_are_malformed() {
        for coord in ["NaN", "inf", "-inf", "infinity"] {
            let text = format!("nodes 2\nedge 0 1\npoint 0 0 0\npoint 1 0.5 {coord}\n");
            let e = from_text(&text).unwrap_err();
            assert!(matches!(e.kind(), ParseErrorKind::Malformed(_)), "{coord}: {e}");
            assert_eq!(e.line(), 4);
        }
    }

    #[test]
    fn bytes_roundtrip_and_invalid_utf8() {
        let g = generators::connected_gnp(12, 0.3, 8);
        let doc = from_bytes(to_text(&g, None).as_bytes()).unwrap();
        assert_eq!(doc.graph, g);
        // a frame cut inside a multi-byte character must not panic
        let mut bytes = "nodes 2\nedge 0 1\n# é".as_bytes().to_vec();
        bytes.truncate(bytes.len() - 1);
        let e = from_bytes(&bytes).unwrap_err();
        assert_eq!(e.kind(), &ParseErrorKind::InvalidUtf8);
        assert_eq!(from_bytes(&[0xff, 0xfe, 0x00]).unwrap_err().kind(), &ParseErrorKind::InvalidUtf8);
    }

    #[test]
    fn empty_graph_roundtrip() {
        let doc = from_text("nodes 0\n").unwrap();
        assert_eq!(doc.graph.node_count(), 0);
        assert_eq!(doc.points, None.filter(|_: &Vec<Point>| false).or(Some(vec![])));
    }
}
