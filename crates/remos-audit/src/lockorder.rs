//! Lock-order audit: cross-function deadlock-cycle detection plus
//! "lock held across a blocking call" latency hazards.
//!
//! Per function, every `Mutex`/`RwLock` acquisition is extracted with a
//! conservative guard lifetime; lock-sets then propagate along resolved
//! call edges, the union of all "held A while acquiring B" pairs forms
//! the global lock graph, and any strongly connected component in that
//! graph is a potential deadlock.
//!
//! ## Acquisition forms
//!
//! * `recv.lock()` / `recv.read()` / `recv.write()` with **zero
//!   arguments** — the `Mutex`/`RwLock` signatures; `io::Write::write`
//!   and friends take arguments and are not matched;
//! * `lock(&recv)` — the workspace's poison-tolerant free helper
//!   (`remos-core/src/modeler/mod.rs`, `remos-obs`).
//!
//! ## Lock identity
//!
//! `self.field` receivers canonicalize to `Type.field` using the
//! enclosing impl type, so `self.inner.lock()` inside two different
//! `CircuitBreaker` methods is the *same* lock. Bare locals and
//! parameters (generic `Arc<Mutex<_>>` handles like the fx crate's
//! `sim`) canonicalize to `crate:name` — within one crate, one name is
//! assumed to be one lock. That conflation is deliberate: it can only
//! create extra edges (a waivable false cycle), never hide one.
//!
//! ## Guard lifetime
//!
//! * `let g = x.lock();` (optionally through `?` / `.unwrap()` /
//!   `.expect(…)`) — *bound*: held to the end of the enclosing block or
//!   an explicit `drop(g)`;
//! * anything else — *temporary*: held to the end of the statement
//!   (`;` at the acquisition's depth) or, for block-tailed statements
//!   like `if let Some(x) = m.lock().get(k) { … }`, to the `}` that
//!   returns to the acquisition's depth (skipping over an `else`).
//!
//! This models Rust's actual temporary-lifetime rules closely enough
//! that `let now = self.inner.lock().last_now; self.record_failure(now)`
//! is correctly *not* a self-deadlock.

use crate::model::Workspace;
use crate::parse::{calls_in, CallSite};
use crate::{Token, TokenKind, Violation};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

/// Method/free names that are themselves acquisition primitives; never
/// treated as call-graph edges.
const ACQUIRE_NAMES: &[&str] = &["lock", "read", "write"];

/// Calls that stall the caller: collector refresh/poll, solver runs,
/// channel receives, thread parking. Holding any lock across one of
/// these serializes every other holder behind a slow operation.
const BLOCKING_NAMES: &[&str] = &[
    "poll",
    "refresh_topology",
    "solve",
    "solve_refs",
    "recv",
    "recv_timeout",
    "park",
    "sleep",
    "wait",
    "wait_timeout",
];

/// One lock acquisition with its guard's token extent.
#[derive(Debug, Clone)]
pub struct Acq {
    /// Canonical lock id (`CircuitBreaker.inner`, `remos-fx:sim`).
    pub lock: String,
    /// Token index of the acquiring call name.
    pub tok: usize,
    /// 1-based source line.
    pub line: u32,
    /// Exclusive token index where the guard dies.
    pub end: usize,
}

/// Extract every acquisition in the body of workspace function `i`.
pub fn acquisitions(ws: &Workspace, i: usize) -> Vec<Acq> {
    let rec = &ws.fns[i];
    let toks = ws.toks(i);
    let (start, end) = rec.info.body;
    let krate = Workspace::crate_of(&rec.info.file);
    let impl_ty = rec.info.impl_type.as_deref();
    let mut out = Vec::new();
    for k in start..end {
        if toks[k].kind != TokenKind::Ident {
            continue;
        }
        let name = toks[k].text.as_str();
        if !ACQUIRE_NAMES.contains(&name) {
            continue;
        }
        let Some(open) = toks.get(k + 1) else { continue };
        if open.text != "(" {
            continue;
        }
        let method = k > start && toks[k - 1].text == ".";
        let (lock, close) = if method {
            // `recv.lock()` — zero-argument only.
            if toks.get(k + 2).map(|t| t.text.as_str()) != Some(")") {
                continue;
            }
            let chain = recv_chain(toks, k, start);
            if chain.is_empty() {
                continue;
            }
            (canon(&chain, impl_ty, krate), k + 2)
        } else if name == "lock" && !(k > start && toks[k - 1].text == "::") {
            // Free `lock(&x)` helper — single `&`-argument only.
            if toks.get(k + 2).map(|t| t.text.as_str()) != Some("&") {
                continue;
            }
            let mut chain = Vec::new();
            let mut j = k + 3;
            while j < end && toks[j].text != ")" {
                if toks[j].kind == TokenKind::Ident {
                    chain.push(toks[j].text.clone());
                } else if toks[j].text != "." {
                    break;
                }
                j += 1;
            }
            if chain.is_empty() || toks.get(j).map(|t| t.text.as_str()) != Some(")") {
                continue;
            }
            (canon(&chain, impl_ty, krate), j)
        } else {
            continue;
        };
        let guard_end = guard_extent(toks, start, end, k, close);
        out.push(Acq { lock, tok: k, line: toks[k].line, end: guard_end });
    }
    out
}

/// Dotted receiver chain ending just before `.name(` at `k`.
fn recv_chain(toks: &[Token], k: usize, start: usize) -> Vec<String> {
    let mut chain = Vec::new();
    let mut j = k - 1; // the `.`
    while j > start && toks[j].text == "." && toks[j - 1].kind == TokenKind::Ident {
        chain.push(toks[j - 1].text.clone());
        if j < 2 {
            break;
        }
        j -= 2;
    }
    chain.reverse();
    chain
}

/// Canonical lock id for a receiver/argument ident chain.
fn canon(chain: &[String], impl_ty: Option<&str>, krate: &str) -> String {
    if chain.first().map(String::as_str) == Some("self") {
        if let Some(ty) = impl_ty {
            return format!("{ty}.{}", chain[1..].join("."));
        }
    }
    if krate.is_empty() {
        chain.join(".")
    } else {
        format!("{krate}:{}", chain.join("."))
    }
}

/// Exclusive token index where the guard from the acquisition at `k`
/// (argument list closing at `close`) dies.
fn guard_extent(toks: &[Token], start: usize, end: usize, k: usize, close: usize) -> usize {
    // Is this a bound guard? Statement must be
    // `let [mut] g = CHAIN.lock()[?|.unwrap()|.expect(…)]* ;`.
    let stmt_head = stmt_start(toks, start, k);
    let bound_name = bound_guard_name(toks, stmt_head, close, end);
    if let Some(g) = bound_name {
        // Held to the end of the enclosing block, or `drop(g)`.
        let mut depth = 0i32;
        let mut j = close + 1;
        while j < end {
            match toks[j].text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth < 0 {
                        return j;
                    }
                }
                "drop"
                    if depth >= 0
                        && toks.get(j + 1).map(|t| t.text.as_str()) == Some("(")
                        && toks.get(j + 2).map(|t| t.text.as_str()) == Some(g.as_str())
                        && toks.get(j + 3).map(|t| t.text.as_str()) == Some(")") =>
                {
                    return j;
                }
                _ => {}
            }
            j += 1;
        }
        return end;
    }
    // Plain `if` / `while` condition temporaries die when the condition
    // finishes evaluating — at the body's `{`. (Not `if let` / `while
    // let` / `match`: scrutinee temporaries live to the end of the
    // statement on edition 2021.)
    let head = toks.get(stmt_head).map(|t| t.text.as_str());
    let head_is_let = toks.get(stmt_head + 1).map(|t| t.text.as_str()) == Some("let");
    if matches!(head, Some("if") | Some("while")) && !head_is_let {
        let mut depth = 0i32;
        let mut j = close + 1;
        while j < end {
            match toks[j].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth <= 0 => return j,
                _ => {}
            }
            j += 1;
        }
        return end;
    }
    // Temporary: to the `;` at this depth, or the `}` returning to this
    // depth (not followed by `else`) for block-tailed statements.
    let mut brace = 0i32;
    let mut paren = 0i32;
    let mut j = close + 1;
    while j < end {
        match toks[j].text.as_str() {
            "(" | "[" => paren += 1,
            ")" | "]" => paren -= 1,
            "{" => brace += 1,
            "}" => {
                brace -= 1;
                if brace <= 0 && toks.get(j + 1).map(|t| t.text.as_str()) != Some("else") {
                    return j + 1;
                }
            }
            ";" if brace == 0 && paren <= 0 => return j,
            _ => {}
        }
        j += 1;
    }
    end
}

/// Token index of the start of the statement containing `k`: just past
/// the previous `;`, `{`, or `}` at the same nesting.
fn stmt_start(toks: &[Token], start: usize, k: usize) -> usize {
    let mut j = k;
    while j > start {
        match toks[j - 1].text.as_str() {
            ";" | "{" | "}" => return j,
            _ => j -= 1,
        }
    }
    start
}

/// `Some(name)` when the statement head reads `let [mut] name =` and the
/// expression after `close` is only `?` / `.unwrap()` / `.expect(…)`
/// chains ending in `;`.
fn bound_guard_name(toks: &[Token], head: usize, close: usize, end: usize) -> Option<String> {
    if toks.get(head).map(|t| t.text.as_str()) != Some("let") {
        return None;
    }
    let mut j = head + 1;
    if toks.get(j).map(|t| t.text.as_str()) == Some("mut") {
        j += 1;
    }
    let name = toks.get(j).filter(|t| t.kind == TokenKind::Ident)?.text.clone();
    if toks.get(j + 1).map(|t| t.text.as_str()) != Some("=") {
        return None;
    }
    // Tail after the acquisition's closing paren.
    let mut j = close + 1;
    loop {
        match toks.get(j).map(|t| t.text.as_str()) {
            Some(";") => return Some(name),
            Some("?") => j += 1,
            Some(".") => {
                let m = toks.get(j + 1)?;
                if m.text != "unwrap" && m.text != "expect" {
                    return None;
                }
                if toks.get(j + 2).map(|t| t.text.as_str()) != Some("(") {
                    return None;
                }
                // Skip the balanced argument list.
                let mut depth = 0i32;
                let mut p = j + 2;
                while p < end {
                    match toks[p].text.as_str() {
                        "(" => depth += 1,
                        ")" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    p += 1;
                }
                j = p + 1;
            }
            _ => return None,
        }
    }
}

/// One directed edge in the global lock graph: `from` was held while
/// `to` was acquired, witnessed at `file:line` inside `via`.
#[derive(Debug, Clone)]
pub struct LockEdge {
    pub from: String,
    pub to: String,
    pub file: PathBuf,
    pub line: u32,
    pub via: String,
}

/// Full analysis result, exposed for tests and the driver.
pub struct LockReport {
    pub edges: Vec<LockEdge>,
    pub violations: Vec<Violation>,
}

/// Run the lock-order audit across the workspace.
pub fn analyze(ws: &Workspace) -> LockReport {
    let n = ws.fns.len();
    let mut acqs: Vec<Vec<Acq>> = Vec::with_capacity(n);
    let mut calls: Vec<Vec<CallSite>> = Vec::with_capacity(n);
    for i in 0..n {
        if ws.fns[i].info.in_test {
            acqs.push(Vec::new());
            calls.push(Vec::new());
            continue;
        }
        acqs.push(acquisitions(ws, i));
        calls.push(
            calls_in(ws.toks(i), ws.fns[i].info.body)
                .into_iter()
                .filter(|c| !ACQUIRE_NAMES.contains(&c.name.as_str()))
                .collect(),
        );
    }

    // Transitive lock sets: locks a call into fn i may acquire, with one
    // witness location each. Fixpoint over resolved call edges.
    let mut trans: Vec<BTreeMap<String, (PathBuf, u32, String)>> = (0..n)
        .map(|i| {
            acqs[i]
                .iter()
                .map(|a| {
                    (
                        a.lock.clone(),
                        (ws.fns[i].info.file.clone(), a.line, ws.fns[i].info.qname()),
                    )
                })
                .collect()
        })
        .collect();
    // Transitive blocking reach: first blocking call a call into fn i
    // may hit.
    let mut blocking: Vec<Option<(String, PathBuf, u32)>> = (0..n)
        .map(|i| {
            calls[i]
                .iter()
                .find(|c| BLOCKING_NAMES.contains(&c.name.as_str()))
                .map(|c| (c.name.clone(), ws.fns[i].info.file.clone(), c.line))
        })
        .collect();
    // Lock-sets and blocking reach propagate only through *confidently*
    // resolved calls: `self.method()`, `Type::method()`, and free calls
    // (crate-narrowed). Dispatch through a field or local
    // (`self.sim.lock().now()`, `p.fire(...)`) fans out to every
    // same-named method in the workspace, which in practice merges every
    // lock into one giant false cycle — for those call shapes only the
    // direct blocking-name check below applies.
    let confident = |c: &CallSite| {
        c.qual.is_some()
            || (!c.method && c.recv.is_empty())
            || (c.recv.len() == 1 && c.recv[0] == "self")
    };
    let resolved: Vec<Vec<Vec<usize>>> = (0..n)
        .map(|i| {
            calls[i]
                .iter()
                .map(|c| {
                    if !confident(c) {
                        return Vec::new();
                    }
                    ws.resolve(c, &ws.fns[i].info)
                        .into_iter()
                        .filter(|&g| !ws.fns[g].info.in_test)
                        .collect()
                })
                .collect()
        })
        .collect();
    loop {
        let mut changed = false;
        for i in 0..n {
            for callees in &resolved[i] {
                for &g in callees {
                    if g == i {
                        continue;
                    }
                    let add: Vec<_> = trans[g]
                        .iter()
                        .filter(|(l, _)| !trans[i].contains_key(*l))
                        .map(|(l, w)| (l.clone(), w.clone()))
                        .collect();
                    if !add.is_empty() {
                        changed = true;
                        trans[i].extend(add);
                    }
                    if blocking[i].is_none() && blocking[g].is_some() {
                        blocking[i] = blocking[g].clone();
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Edges + held-across-blocking violations.
    let mut edges: Vec<LockEdge> = Vec::new();
    let mut violations = Vec::new();
    let mut seen_block: BTreeSet<(PathBuf, u32, String)> = BTreeSet::new();
    for i in 0..n {
        let info = &ws.fns[i].info;
        for a in &acqs[i] {
            // Nested direct acquisitions.
            for b in &acqs[i] {
                if b.tok > a.tok && b.tok < a.end {
                    edges.push(LockEdge {
                        from: a.lock.clone(),
                        to: b.lock.clone(),
                        file: info.file.clone(),
                        line: b.line,
                        via: info.qname(),
                    });
                }
            }
            for (ci, c) in calls[i].iter().enumerate() {
                if c.tok <= a.tok || c.tok >= a.end {
                    continue;
                }
                // Direct blocking call under a held guard.
                if BLOCKING_NAMES.contains(&c.name.as_str()) {
                    if seen_block.insert((info.file.clone(), c.line, a.lock.clone())) {
                        violations.push(Violation {
                            rule: "lock-across-blocking",
                            file: info.file.clone(),
                            line: c.line,
                            message: format!(
                                "guard on `{}` held across blocking call `{}` in `{}`; \
                                 drop the guard (or copy what you need out) first",
                                a.lock,
                                c.name,
                                info.qname()
                            ),
                            token: c.name.clone(),
                        });
                    }
                    continue;
                }
                for &g in &resolved[i][ci] {
                    if g == i {
                        continue;
                    }
                    // Locks the callee may take while ours is held. A
                    // re-acquisition of `a.lock` itself becomes a
                    // self-loop, which `cycles` reports as an immediate
                    // self-deadlock.
                    for (l, (wf, wl, wvia)) in &trans[g] {
                        edges.push(LockEdge {
                            from: a.lock.clone(),
                            to: l.clone(),
                            file: wf.clone(),
                            line: *wl,
                            via: format!("{} -> {wvia}", info.qname()),
                        });
                    }
                    // Blocking reached through the callee.
                    if let Some((bn, bf, bl)) = &blocking[g] {
                        if seen_block.insert((bf.clone(), *bl, a.lock.clone())) {
                            violations.push(Violation {
                                rule: "lock-across-blocking",
                                file: bf.clone(),
                                line: *bl,
                                message: format!(
                                    "guard on `{}` (held in `{}`, {}:{}) reaches blocking \
                                     call `{bn}` via `{}`",
                                    a.lock,
                                    info.qname(),
                                    info.file.display(),
                                    a.line,
                                    ws.fns[g].info.qname()
                                ),
                                token: bn.clone(),
                            });
                        }
                    }
                }
            }
        }
    }

    violations.extend(cycles(&edges));
    LockReport { edges, violations }
}

/// Find strongly connected components (and self-loops) in the lock
/// graph; one violation per cycle.
fn cycles(edges: &[LockEdge]) -> Vec<Violation> {
    let mut nodes: BTreeSet<&str> = BTreeSet::new();
    for e in edges {
        nodes.insert(&e.from);
        nodes.insert(&e.to);
    }
    let idx: BTreeMap<&str, usize> = nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect();
    let names: Vec<&str> = nodes.into_iter().collect();
    let n = names.len();
    let mut adj: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    for e in edges {
        adj[idx[e.from.as_str()]].insert(idx[e.to.as_str()]);
    }
    // Kosaraju: order by finish time, then assign components on the
    // transposed graph.
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    for s in 0..n {
        if seen[s] {
            continue;
        }
        // Iterative DFS with an explicit post-visit marker.
        let mut stack = vec![(s, false)];
        while let Some((v, post)) = stack.pop() {
            if post {
                order.push(v);
                continue;
            }
            if seen[v] {
                continue;
            }
            seen[v] = true;
            stack.push((v, true));
            for &w in &adj[v] {
                if !seen[w] {
                    stack.push((w, false));
                }
            }
        }
    }
    let mut radj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (v, outs) in adj.iter().enumerate() {
        for &w in outs {
            radj[w].push(v);
        }
    }
    let mut comp = vec![usize::MAX; n];
    let mut ncomp = 0;
    for &s in order.iter().rev() {
        if comp[s] != usize::MAX {
            continue;
        }
        let mut stack = vec![s];
        while let Some(v) = stack.pop() {
            if comp[v] != usize::MAX {
                continue;
            }
            comp[v] = ncomp;
            for &w in &radj[v] {
                if comp[w] == usize::MAX {
                    stack.push(w);
                }
            }
        }
        ncomp += 1;
    }
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); ncomp];
    for v in 0..n {
        members[comp[v]].push(v);
    }
    let mut out = Vec::new();
    for group in members {
        let cyclic = group.len() > 1 || (group.len() == 1 && adj[group[0]].contains(&group[0]));
        if !cyclic {
            continue;
        }
        let locks: Vec<&str> = group.iter().map(|&v| names[v]).collect();
        // Witness: every edge between members of this component.
        let mut wit: Vec<String> = Vec::new();
        let mut first: Option<(&PathBuf, u32)> = None;
        for e in edges {
            let f = idx[e.from.as_str()];
            let t = idx[e.to.as_str()];
            if comp[f] == comp[group[0]]
                && comp[t] == comp[group[0]]
                && (group.len() > 1 || f == t)
            {
                if first.is_none() {
                    first = Some((&e.file, e.line));
                }
                wit.push(format!(
                    "{} -> {} at {}:{} ({})",
                    e.from,
                    e.to,
                    e.file.display(),
                    e.line,
                    e.via
                ));
            }
        }
        let (file, line) = match first {
            Some((f, l)) => (f.clone(), l),
            None => continue,
        };
        wit.sort();
        wit.dedup();
        out.push(Violation {
            rule: "lock-order-cycle",
            file,
            line,
            message: format!(
                "lock-order cycle between {{{}}}: {}",
                locks.join(", "),
                wit.join("; ")
            ),
            token: locks.first().map(|s| s.to_string()).unwrap_or_default(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::from_sources(
            files
                .iter()
                .map(|(p, s)| (PathBuf::from(p), s.to_string()))
                .collect(),
        )
    }

    #[test]
    fn bound_guard_held_to_block_end_and_drop() {
        let w = ws(&[(
            "crates/remos-serve/src/x.rs",
            "impl S {
                fn f(&self) {
                    let g = self.a.lock();
                    self.touch();
                    drop(g);
                    self.after();
                }
            }",
        )]);
        let a = acquisitions(&w, 0);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].lock, "S.a");
        let toks = w.toks(0);
        // Guard dies at `drop`, so `after` is outside the extent.
        let after = toks.iter().position(|t| t.text == "after").unwrap();
        let touch = toks.iter().position(|t| t.text == "touch").unwrap();
        assert!(touch < a[0].end);
        assert!(after > a[0].end);
    }

    #[test]
    fn temporary_guard_dies_at_statement_end() {
        let w = ws(&[(
            "crates/remos-serve/src/x.rs",
            "impl S {
                fn f(&self) {
                    let now = self.inner.lock().last_now;
                    self.record_failure(now);
                }
            }",
        )]);
        let a = acquisitions(&w, 0);
        assert_eq!(a.len(), 1);
        let toks = w.toks(0);
        let rf = toks.iter().position(|t| t.text == "record_failure").unwrap();
        assert!(rf > a[0].end, "temporary must die at the `;`");
    }

    #[test]
    fn if_let_scrutinee_guard_spans_the_body() {
        let w = ws(&[(
            "crates/remos-core/src/x.rs",
            "impl M {
                fn f(&self) {
                    if let Some(c) = lock(&self.cache).get(k) {
                        self.hit();
                    }
                    self.miss();
                }
            }",
        )]);
        let a = acquisitions(&w, 0);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].lock, "M.cache");
        let toks = w.toks(0);
        let hit = toks.iter().position(|t| t.text == "hit").unwrap();
        let miss = toks.iter().position(|t| t.text == "miss").unwrap();
        assert!(hit < a[0].end);
        assert!(miss > a[0].end);
    }

    #[test]
    fn opposite_order_in_two_fns_is_a_cycle() {
        let w = ws(&[(
            "crates/remos-serve/src/x.rs",
            "impl P {
                fn forward(&self) { let g = self.a.lock(); let h = self.b.lock(); }
                fn backward(&self) { let g = self.b.lock(); let h = self.a.lock(); }
            }",
        )]);
        let rep = analyze(&w);
        let cyc: Vec<_> =
            rep.violations.iter().filter(|v| v.rule == "lock-order-cycle").collect();
        assert_eq!(cyc.len(), 1, "edges: {:?}", rep.edges);
        assert!(cyc[0].message.contains("P.a"));
        assert!(cyc[0].message.contains("P.b"));
    }

    #[test]
    fn cross_function_cycle_through_a_call_edge() {
        let w = ws(&[(
            "crates/remos-serve/src/x.rs",
            "impl P {
                fn forward(&self) { let g = self.a.lock(); self.take_b(); }
                fn take_b(&self) { let h = self.b.lock(); }
                fn backward(&self) { let g = self.b.lock(); self.take_a(); }
                fn take_a(&self) { let h = self.a.lock(); }
            }",
        )]);
        let rep = analyze(&w);
        assert!(
            rep.violations.iter().any(|v| v.rule == "lock-order-cycle"),
            "edges: {:?}",
            rep.edges
        );
    }

    #[test]
    fn consistent_order_is_clean() {
        let w = ws(&[(
            "crates/remos-serve/src/x.rs",
            "impl P {
                fn one(&self) { let g = self.a.lock(); let h = self.b.lock(); }
                fn two(&self) { let g = self.a.lock(); self.take_b(); }
                fn take_b(&self) { let h = self.b.lock(); }
            }",
        )]);
        let rep = analyze(&w);
        assert!(rep.violations.is_empty(), "got: {:?}", rep.violations);
    }

    #[test]
    fn guard_across_collector_poll_is_flagged() {
        let w = ws(&[(
            "crates/remos-core/src/x.rs",
            "impl S {
                fn f(&self, col: &mut C) {
                    let g = self.state.lock();
                    col.poll();
                }
            }",
        )]);
        let rep = analyze(&w);
        let v: Vec<_> =
            rep.violations.iter().filter(|v| v.rule == "lock-across-blocking").collect();
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("S.state"));
        assert!(v[0].message.contains("poll"));
    }

    #[test]
    fn transitive_blocking_through_a_callee() {
        let w = ws(&[(
            "crates/remos-core/src/x.rs",
            "impl S {
                fn f(&self) { let g = self.state.lock(); self.helper(); }
                fn helper(&self) { self.col.refresh_topology(); }
            }",
        )]);
        let rep = analyze(&w);
        assert!(
            rep.violations
                .iter()
                .any(|v| v.rule == "lock-across-blocking"
                    && v.message.contains("refresh_topology")),
            "got: {:?}",
            rep.violations
        );
    }

    #[test]
    fn io_write_with_args_is_not_an_acquisition() {
        let w = ws(&[(
            "crates/remos-obs/src/x.rs",
            "fn f(mut out: W, buf: &[u8]) { out.write(buf); out.flush(); }",
        )]);
        assert!(acquisitions(&w, 0).is_empty());
    }
}
