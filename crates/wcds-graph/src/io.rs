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

use crate::{Graph, GraphBuilder, NodeId};
use std::error::Error;
use std::fmt;
use std::str::FromStr;
use wcds_geom::Point;

/// Hard cap on the declared node count.
///
/// The parser allocates per-node state up front, so an adversarial
/// `nodes 99999999999999` line would otherwise abort the process with a
/// failed allocation before a single edge is read. Wire payloads (the
/// service layer reuses this format over TCP) must degrade to a typed
/// error instead.
pub const MAX_NODES: usize = 1 << 24;

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
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ParseErrorKind {
    /// No `nodes <n>` header before the first data line (or at all).
    MissingHeader,
    /// A second `nodes` header — accepting it would silently discard
    /// every edge and point read so far.
    DuplicateHeader,
    /// A directive other than `nodes` / `edge` / `point`.
    UnknownDirective(String),
    /// Wrong token count or an unparsable token (includes lines cut off
    /// mid-way by truncation).
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
/// # Panics
///
/// Panics if `points` is `Some` with a length different from the node
/// count.
pub fn to_text(graph: &Graph, points: Option<&[Point]>) -> String {
    if let Some(p) = points {
        assert_eq!(p.len(), graph.node_count(), "points/nodes length mismatch");
    }
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

/// Parses the text format produced by [`to_text`].
///
/// # Errors
///
/// Returns [`ParseGraphError`] on any malformed, out-of-range, or unknown
/// line, with the 1-based line number.
pub fn from_text(text: &str) -> Result<GraphDocument, ParseGraphError> {
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
        // a trimmed non-empty line always has a first token, but stay
        // total: treat the impossible case as a blank line
        let Some(directive) = parts.next() else { continue };
        let err = |kind| ParseGraphError { line: line_no, kind };
        match directive {
            "nodes" => {
                if builder.is_some() {
                    return Err(err(ParseErrorKind::DuplicateHeader));
                }
                let count = parse_token::<usize>(parts.next(), line, line_no)?;
                if count > MAX_NODES {
                    return Err(err(ParseErrorKind::TooManyNodes(count)));
                }
                n = Some(count);
                builder = Some(GraphBuilder::new(count));
                points = vec![None; count];
            }
            "edge" => {
                let b = builder.as_mut().ok_or_else(|| err(ParseErrorKind::MissingHeader))?;
                let u = parse_token::<NodeId>(parts.next(), line, line_no)?;
                let v = parse_token::<NodeId>(parts.next(), line, line_no)?;
                let n = n.ok_or_else(|| err(ParseErrorKind::MissingHeader))?;
                for x in [u, v] {
                    if x >= n {
                        return Err(err(ParseErrorKind::OutOfRange(x)));
                    }
                }
                if u == v {
                    return Err(err(ParseErrorKind::Malformed(line.to_string())));
                }
                b.add_edge(u, v);
            }
            "point" => {
                if builder.is_none() {
                    return Err(err(ParseErrorKind::MissingHeader));
                }
                let u = parse_token::<NodeId>(parts.next(), line, line_no)?;
                let x = parse_token::<f64>(parts.next(), line, line_no)?;
                let y = parse_token::<f64>(parts.next(), line, line_no)?;
                if !(x.is_finite() && y.is_finite()) {
                    return Err(err(ParseErrorKind::Malformed(line.to_string())));
                }
                let slot = points.get_mut(u).ok_or_else(|| err(ParseErrorKind::OutOfRange(u)))?;
                if slot.is_some() {
                    return Err(err(ParseErrorKind::DuplicatePoint(u)));
                }
                *slot = Some(Point::new(x, y));
            }
            other => return Err(err(ParseErrorKind::UnknownDirective(other.to_string()))),
        }
        if parts.next().is_some() {
            return Err(ParseGraphError {
                line: line_no,
                kind: ParseErrorKind::Malformed(line.to_string()),
            });
        }
    }
    let builder = builder.ok_or(ParseGraphError { line: 0, kind: ParseErrorKind::MissingHeader })?;
    let all_points: Option<Vec<Point>> = points.iter().copied().collect();
    Ok(GraphDocument { graph: builder.build(), points: all_points })
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

fn parse_token<T: FromStr>(
    token: Option<&str>,
    line: &str,
    line_no: usize,
) -> Result<T, ParseGraphError> {
    token
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| ParseGraphError { line: line_no, kind: ParseErrorKind::Malformed(line.to_string()) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::UnitDiskGraph;
    use wcds_geom::deploy;

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
