//! Lock-order and hold-across-blocking-IO analyses.
//!
//! Both analyses consume the same per-function facts ([`crate::items`])
//! and the resolved call graph ([`crate::callgraph`]):
//!
//! * **lock-order** — builds the "acquired-while-held" digraph over
//!   lock classes (the store's name-map `RwLock`, per-entry
//!   `topo`/`published` locks, `OnceLock` plan inits, …). An edge
//!   `A → B` means some code path acquires `B` while holding `A`,
//!   directly or through calls. A cycle (including a self-loop: two
//!   instances of the same class, e.g. two entries' `topo` locks) is a
//!   potential deadlock; each strongly-connected component yields one
//!   finding with a witness cycle.
//! * **hold-across-io** — flags any lock guard live across a blocking
//!   call (socket read/write/accept/connect, channel `recv`, condvar
//!   `wait` with a *different* guard, `thread::sleep`), directly or
//!   through a callee that blocks. This is the shape that lets one
//!   slow peer stall a lock for every other client.
//!
//! Transitive facts are computed by fixpoint over the call graph;
//! every transitive step is recorded so findings carry a concrete
//! call-chain witness.

use crate::callgraph::{AnalysisFinding, CallGraph, FnId, Workspace};
use std::collections::{btree_map, BTreeMap, BTreeSet};

/// How a function comes to acquire a lock class.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Acquired directly at this line.
    Direct(usize),
    /// Acquired by calling `FnId` at this line.
    Via(FnId, usize),
}

/// Per-function transitive lock classes, with one witness step each.
fn may_acquire(ws: &Workspace, graph: &CallGraph) -> Vec<BTreeMap<String, Step>> {
    let mut acq: Vec<BTreeMap<String, Step>> = vec![BTreeMap::new(); ws.fns.len()];
    for (id, f) in ws.fns.iter().enumerate() {
        for a in &f.acquires {
            acq[id].entry(a.class.clone()).or_insert(Step::Direct(a.line));
        }
    }
    loop {
        let mut changed = false;
        for id in 0..ws.fns.len() {
            for e in &graph.edges[id] {
                let line = ws.fns[id].calls[e.call].line;
                let classes: Vec<String> = acq[e.callee].keys().cloned().collect();
                for c in classes {
                    if let btree_map::Entry::Vacant(slot) = acq[id].entry(c) {
                        slot.insert(Step::Via(e.callee, line));
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    acq
}

/// Per-function transitive "does it block", with one witness step.
fn may_block(ws: &Workspace, graph: &CallGraph) -> Vec<Option<(Step, &'static str)>> {
    let mut blk: Vec<Option<(Step, &'static str)>> = vec![None; ws.fns.len()];
    for (id, f) in ws.fns.iter().enumerate() {
        if let Some(b) = f.blocking.first() {
            blk[id] = Some((Step::Direct(b.line), b.what));
        }
    }
    loop {
        let mut changed = false;
        for id in 0..ws.fns.len() {
            if blk[id].is_some() {
                continue;
            }
            for e in &graph.edges[id] {
                if let Some((_, what)) = blk[e.callee] {
                    blk[id] =
                        Some((Step::Via(e.callee, ws.fns[id].calls[e.call].line), what));
                    changed = true;
                    break;
                }
            }
        }
        if !changed {
            break;
        }
    }
    blk
}

/// Renders the chain from `id` down to the underlying fact by
/// following witness steps.
fn chain<F>(ws: &Workspace, id: FnId, first: Step, step_of: F) -> Vec<String>
where
    F: Fn(FnId) -> Option<Step>,
{
    let mut out = vec![format!("{} {}", ws.site(id), ws.fns[id].display())];
    let mut cur = first;
    for _ in 0..ws.fns.len() {
        match cur {
            Step::Direct(line) => {
                let file = out
                    .last()
                    .and_then(|s| s.split(':').next())
                    .unwrap_or_default()
                    .to_string();
                out.push(format!("{file}:{line}"));
                return out;
            }
            Step::Via(callee, line) => {
                out.push(format!(
                    "{} {} (called at line {line})",
                    ws.site(callee),
                    ws.fns[callee].display()
                ));
                match step_of(callee) {
                    Some(s) => cur = s,
                    None => return out,
                }
            }
        }
    }
    out
}

/// One acquired-while-held edge with its witness.
#[derive(Debug, Clone)]
struct OrderEdge {
    from: String,
    to: String,
    file: String,
    line: usize,
    function: String,
    /// Rendered chain from the holding function to the acquisition.
    via: Vec<String>,
}

/// Collects every acquired-while-held edge in the workspace.
fn order_edges(
    ws: &Workspace,
    graph: &CallGraph,
    acq: &[BTreeMap<String, Step>],
) -> Vec<OrderEdge> {
    let mut out = Vec::new();
    for (id, f) in ws.fns.iter().enumerate() {
        for a in &f.acquires {
            for h in &a.held {
                out.push(OrderEdge {
                    from: h.clone(),
                    to: a.class.clone(),
                    file: f.file.clone(),
                    line: a.line,
                    function: f.display(),
                    via: Vec::new(),
                });
            }
        }
        for e in &graph.edges[id] {
            let call = &f.calls[e.call];
            if call.held.is_empty() {
                continue;
            }
            for (class, _) in acq[e.callee].iter() {
                for h in &call.held {
                    out.push(OrderEdge {
                        from: h.clone(),
                        to: class.clone(),
                        file: f.file.clone(),
                        line: call.line,
                        function: f.display(),
                        via: chain(ws, e.callee, acq[e.callee][class], |g| {
                            acq[g].get(class).copied()
                        }),
                    });
                }
            }
        }
    }
    out
}

/// Tarjan-free SCC via Kosaraju (the class graph is tiny).
fn sccs(nodes: &BTreeSet<String>, edges: &BTreeSet<(String, String)>) -> Vec<Vec<String>> {
    let idx: BTreeMap<String, usize> =
        nodes.iter().enumerate().map(|(i, n)| (n.clone(), i)).collect();
    let n = nodes.len();
    let mut fwd = vec![Vec::new(); n];
    let mut rev = vec![Vec::new(); n];
    for (a, b) in edges {
        let (Some(&ia), Some(&ib)) = (idx.get(a), idx.get(b)) else { continue };
        fwd[ia].push(ib);
        rev[ib].push(ia);
    }
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    for s in 0..n {
        if seen[s] {
            continue;
        }
        // iterative post-order
        let mut stack = vec![(s, 0usize)];
        seen[s] = true;
        while let Some(&(u, next)) = stack.last() {
            if next < fwd[u].len() {
                if let Some(top) = stack.last_mut() {
                    top.1 += 1;
                }
                let v = fwd[u][next];
                if !seen[v] {
                    seen[v] = true;
                    stack.push((v, 0));
                }
            } else {
                order.push(u);
                stack.pop();
            }
        }
    }
    let mut comp = vec![usize::MAX; n];
    let mut comps: Vec<Vec<String>> = Vec::new();
    let names: Vec<&String> = nodes.iter().collect();
    for &s in order.iter().rev() {
        if comp[s] != usize::MAX {
            continue;
        }
        let c = comps.len();
        let mut members = Vec::new();
        let mut stack = vec![s];
        comp[s] = c;
        while let Some(u) = stack.pop() {
            members.push(names[u].clone());
            for &v in &rev[u] {
                if comp[v] == usize::MAX {
                    comp[v] = c;
                    stack.push(v);
                }
            }
        }
        members.sort();
        comps.push(members);
    }
    comps
}

/// Runs both analyses; returns their findings.
pub fn run(ws: &Workspace, graph: &CallGraph) -> Vec<AnalysisFinding> {
    let acq = may_acquire(ws, graph);
    let mut findings = Vec::new();

    // ---- lock-order: cycles in the acquired-while-held digraph
    let edges = order_edges(ws, graph, &acq);
    let mut nodes: BTreeSet<String> = BTreeSet::new();
    let mut edge_set: BTreeSet<(String, String)> = BTreeSet::new();
    let mut witness_of: BTreeMap<(String, String), &OrderEdge> = BTreeMap::new();
    for e in &edges {
        nodes.insert(e.from.clone());
        nodes.insert(e.to.clone());
        edge_set.insert((e.from.clone(), e.to.clone()));
        witness_of.entry((e.from.clone(), e.to.clone())).or_insert(e);
    }
    for comp in sccs(&nodes, &edge_set) {
        let cyclic = comp.len() > 1
            || (comp.len() == 1 && edge_set.contains(&(comp[0].clone(), comp[0].clone())));
        if !cyclic {
            continue;
        }
        // walk one witness cycle through the component, starting at
        // the lexicographically first class
        let mut cycle = vec![comp[0].clone()];
        let mut cur = comp[0].clone();
        loop {
            let next = comp
                .iter()
                .find(|c| {
                    edge_set.contains(&(cur.clone(), (*c).clone()))
                        && (!cycle.contains(c) || **c == comp[0])
                })
                .cloned();
            match next {
                Some(n) => {
                    let done = n == comp[0];
                    cycle.push(n.clone());
                    cur = n;
                    if done {
                        break;
                    }
                }
                None => break,
            }
        }
        let anchor = witness_of[&(cycle[0].clone(), cycle[1].clone())];
        let mut witness: Vec<String> = Vec::new();
        for pair in cycle.windows(2) {
            if let Some(e) = witness_of.get(&(pair[0].clone(), pair[1].clone())) {
                witness.push(format!(
                    "{} → {} at {}:{} in {}",
                    pair[0], pair[1], e.file, e.line, e.function
                ));
                witness.extend(e.via.iter().map(|v| format!("  via {v}")));
            }
        }
        findings.push(AnalysisFinding {
            analysis: "lock-order",
            kind: "lock-cycle",
            file: anchor.file.clone(),
            line: anchor.line,
            function: anchor.function.clone(),
            message: format!(
                "lock classes form an acquisition cycle: {} — potential deadlock",
                cycle.join(" → ")
            ),
            witness,
        });
    }

    // ---- hold-across-io
    let blk = may_block(ws, graph);
    for (id, f) in ws.fns.iter().enumerate() {
        for b in &f.blocking {
            if b.held.is_empty() {
                continue;
            }
            findings.push(AnalysisFinding {
                analysis: "hold-across-io",
                kind: "held-across-blocking",
                file: f.file.clone(),
                line: b.line,
                function: f.display(),
                message: format!(
                    "holds lock{} `{}` across blocking {} — a slow peer stalls every waiter",
                    if b.held.len() > 1 { "s" } else { "" },
                    b.held.join("`, `"),
                    b.what
                ),
                witness: vec![format!("{} {}", ws.site(id), f.display())],
            });
        }
        for e in &graph.edges[id] {
            let call = &f.calls[e.call];
            if call.held.is_empty() {
                continue;
            }
            if let Some((step, what)) = blk[e.callee] {
                let mut witness = vec![format!("{} {}", ws.site(id), f.display())];
                witness.extend(chain(ws, e.callee, step, |g| blk[g].map(|(s, _)| s)));
                findings.push(AnalysisFinding {
                    analysis: "hold-across-io",
                    kind: "held-across-blocking",
                    file: f.file.clone(),
                    line: call.line,
                    function: f.display(),
                    message: format!(
                        "holds lock{} `{}` across a call to `{}`, which blocks on {}",
                        if call.held.len() > 1 { "s" } else { "" },
                        call.held.join("`, `"),
                        ws.fns[e.callee].display(),
                        what
                    ),
                    witness,
                });
            }
        }
    }
    findings
}
