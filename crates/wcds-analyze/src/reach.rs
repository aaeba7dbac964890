//! Panic-reachability from the wire entry points.
//!
//! Replaces the strict-file allowlist with true reachability: BFS over
//! the workspace call graph from every function an untrusted peer can
//! drive (protocol decode, the event loop and its executors, the
//! request dispatcher, every store method it calls, the client's
//! response path), and
//! flag **every** panic site and slice-indexing site in any reached
//! function, whatever crate it lives in. A panic in a `wcds-graph`
//! helper called from the mutation path kills a worker that may hold
//! the topology write lock — the allowlist never saw it; this does.
//!
//! Each finding carries a witness path (entry → … → site) so the fix
//! is a code read, not an archaeology project.

use crate::callgraph::{AnalysisFinding, CallGraph, FnId, Workspace};
use crate::items::FnItem;
use std::collections::VecDeque;

/// Wire entry points as `(file suffix, function name)`. A function
/// matches when its path ends with the suffix and the names agree.
/// The table names real serving-path functions; the fixture trees use
/// the same file/function names so one table drives both.
pub const ENTRY_POINTS: &[(&str, &str)] = &[
    // protocol decode / frame IO — first touch of untrusted bytes
    ("protocol.rs", "decode"),
    ("protocol.rs", "read_frame"),
    ("protocol.rs", "write_frame"),
    // the request dispatcher
    ("server.rs", "handle"),
    // the readiness engine: the loop thread and its executor pool
    ("eventloop.rs", "event_loop"),
    ("eventloop.rs", "executor_loop"),
    // every store method the dispatcher reaches — mutation, batch,
    // heal, and the read paths
    ("store.rs", "create"),
    ("store.rs", "export"),
    ("store.rs", "bundle"),
    ("store.rs", "mutate"),
    ("store.rs", "mutate_batch"),
    ("store.rs", "stats"),
    ("store.rs", "harden"),
    ("store.rs", "route"),
    ("store.rs", "broadcast"),
    ("store.rs", "heal"),
    ("store.rs", "list"),
    ("store.rs", "drop_topology"),
    // client response path — decodes server-controlled bytes
    ("client.rs", "request"),
];

fn matches_row(f: &FnItem, (file, name): (&str, &str)) -> bool {
    f.name == name && f.file.ends_with(file)
}

/// Functions matching [`ENTRY_POINTS`].
pub fn entry_fns(ws: &Workspace) -> Vec<FnId> {
    let mut out = Vec::new();
    for (id, f) in ws.fns.iter().enumerate() {
        if ENTRY_POINTS.iter().any(|&row| matches_row(f, row)) {
            out.push(id);
        }
    }
    out
}

/// [`ENTRY_POINTS`] rows that match no function in `ws`. A renamed or
/// deleted entry point shows up here instead of silently unrooting the
/// reachability analysis (one row may match several functions, so a
/// count of matched functions cannot tell).
pub fn unmatched_rows(ws: &Workspace) -> Vec<(&'static str, &'static str)> {
    ENTRY_POINTS
        .iter()
        .copied()
        .filter(|&row| !ws.fns.iter().any(|f| matches_row(f, row)))
        .collect()
}

/// BFS from `entries`; returns reachability flags and, per reached
/// function, its predecessor `(caller, call line)` for witnesses.
pub fn reachable(
    ws: &Workspace,
    graph: &CallGraph,
    entries: &[FnId],
) -> (Vec<bool>, Vec<Option<(FnId, usize)>>) {
    let mut seen = vec![false; ws.fns.len()];
    let mut pred: Vec<Option<(FnId, usize)>> = vec![None; ws.fns.len()];
    let mut q: VecDeque<FnId> = VecDeque::new();
    for &e in entries {
        if !seen[e] {
            seen[e] = true;
            q.push_back(e);
        }
    }
    while let Some(u) = q.pop_front() {
        for edge in &graph.edges[u] {
            if !seen[edge.callee] {
                seen[edge.callee] = true;
                pred[edge.callee] = Some((u, ws.fns[u].calls[edge.call].line));
                q.push_back(edge.callee);
            }
        }
    }
    (seen, pred)
}

/// The witness path entry → … → `id`, one rendered step per hop.
pub fn witness(ws: &Workspace, pred: &[Option<(FnId, usize)>], id: FnId) -> Vec<String> {
    let mut chain = vec![id];
    let mut cur = id;
    while let Some((p, _)) = pred[cur] {
        chain.push(p);
        cur = p;
        if chain.len() > ws.fns.len() {
            break; // defensive: preds form a tree, but never loop forever
        }
    }
    chain.reverse();
    chain
        .iter()
        .enumerate()
        .map(|(i, &f)| {
            let role = if i == 0 { "entry " } else { "" };
            format!("{role}{} {}", ws.site(f), ws.fns[f].display())
        })
        .collect()
}

/// Runs panic-reachability. Returns `(entry count, reachable count,
/// findings)`.
pub fn run(ws: &Workspace, graph: &CallGraph) -> (usize, usize, Vec<AnalysisFinding>) {
    let entries = entry_fns(ws);
    let (seen, pred) = reachable(ws, graph, &entries);
    let mut findings = Vec::new();
    for (id, f) in ws.fns.iter().enumerate() {
        if !seen[id] {
            continue;
        }
        let path = witness(ws, &pred, id);
        // a narrowing cast cannot panic: it is a strict-file lint only
        for site in f.sites.iter().filter(|s| s.lint != "as-truncation") {
            findings.push(AnalysisFinding {
                analysis: "panic-reachability",
                kind: site.lint,
                file: f.file.clone(),
                line: site.line,
                function: f.display(),
                message: format!("{} — reachable from wire entry point", site.message),
                witness: path.clone(),
            });
        }
    }
    (entries.len(), seen.iter().filter(|&&s| s).count(), findings)
}
