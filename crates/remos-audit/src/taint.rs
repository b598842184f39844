//! Determinism-taint tracking: order-dependent values must not reach
//! order-sensitive sinks.
//!
//! PR 2 fixed a family of real bugs where `HashMap` iteration order
//! leaked into solver inputs and run digests; this pass turns those
//! fixes into an enforced invariant.
//!
//! **Taint roots** — `HashMap`/`HashSet` iteration (`.iter()`,
//! `.keys()`, `.values()`, `.drain()`, `for _ in map`),
//! `thread::current().id()`, unsanctioned wall-clock reads
//! (`Instant::now()` / `SystemTime::now()` outside
//! `remos-obs/src/clock.rs`), and ambient RNG (`thread_rng()`,
//! `from_entropy()`).
//!
//! **Sanitizers** — sorting (`sort`, `sort_unstable`, `sort_by*`),
//! order-statistic selection (`select_nth_unstable*`, which pins
//! exact ranks regardless of input order),
//! collecting into a `BTreeMap`/`BTreeSet`, and order-insensitive
//! aggregates (`len`, `is_empty`, `contains`, `contains_key`, `get`,
//! `max`, `min`). Float `sum` is deliberately NOT a sanitizer: float
//! addition is not associative, so a sum over hash order is still
//! order-dependent.
//!
//! **Sinks** — digests (any callee whose name contains `digest`, plus
//! the server's FNV `fold`), trace/event recording (`record`), solver
//! entry points (`solve*` — flow *ordering* determines the max-min
//! fill order), and `Provenance { … }` literals.
//!
//! Propagation is per-statement within a function, plus cross-function
//! parameter summaries: if `mix(v)` forwards its parameter into
//! `event_digest`, then a tainted `v` at any `mix` call site is a
//! violation at that call site.

use crate::model::Workspace;
use crate::parse::{calls_in, CallSite, FnInfo};
use crate::{Token, TokenKind, Violation};
use std::collections::BTreeSet;

const CONTAINER_TYPES: &[&str] = &["HashMap", "HashSet"];
const SOURCE_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];
const SANITIZER_METHODS: &[&str] = &[
    "sort",
    "sort_unstable",
    "sort_by",
    "sort_by_key",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "select_nth_unstable",
    "select_nth_unstable_by",
    "select_nth_unstable_by_key",
    "len",
    "is_empty",
    "contains",
    "contains_key",
    "get",
    "max",
    "min",
];
/// Callee names that are order-sensitive sinks when given a tainted
/// argument. `fold` is the server digest accumulator (free call only —
/// `Iterator::fold` method calls are not matched).
const SINK_EXACT: &[&str] = &["fold", "record", "solve", "solve_refs", "solve_stage"];

/// The one sanctioned wall-clock source.
const SANCTIONED_CLOCK: &str = "crates/remos-obs/src/clock.rs";

/// Per-function taint summary: which parameter indices flow into a sink
/// inside this function (directly or via callees).
#[derive(Default, Clone, PartialEq)]
pub struct Summary {
    pub param_to_sink: Vec<bool>,
}

/// Run the determinism-taint analysis across the workspace.
pub fn analyze(ws: &Workspace) -> Vec<Violation> {
    let n = ws.fns.len();
    let resolved: Vec<Vec<(CallSite, Vec<usize>)>> = (0..n)
        .map(|i| {
            if ws.fns[i].info.in_test {
                return Vec::new();
            }
            calls_in(ws.toks(i), ws.fns[i].info.body)
                .into_iter()
                .map(|c| {
                    let r = ws
                        .resolve(&c, &ws.fns[i].info)
                        .into_iter()
                        .filter(|&g| !ws.fns[g].info.in_test)
                        .collect();
                    (c, r)
                })
                .collect()
        })
        .collect();

    // Fixpoint over parameter summaries.
    let mut summaries: Vec<Summary> =
        (0..n).map(|i| Summary { param_to_sink: vec![false; ws.fns[i].info.params.len()] }).collect();
    for _ in 0..6 {
        let mut changed = false;
        for i in 0..n {
            let info = &ws.fns[i].info;
            if info.in_test {
                continue;
            }
            for p in 0..info.params.len() {
                if summaries[i].param_to_sink[p] || info.params[p].name == "self" {
                    continue;
                }
                let seed: BTreeSet<String> = [info.params[p].name.clone()].into();
                let hits = flow(ws, i, &resolved[i], &summaries, seed, false);
                if !hits.is_empty() {
                    summaries[i].param_to_sink[p] = true;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Violation pass: seed from local roots, report sink hits.
    let mut out = Vec::new();
    for (i, res) in resolved.iter().enumerate() {
        if ws.fns[i].info.in_test {
            continue;
        }
        let hits = flow(ws, i, res, &summaries, BTreeSet::new(), true);
        out.extend(hits);
    }
    out
}

/// Propagate taint through function `i`. `seed` pre-taints identifiers
/// (used for parameter summaries); when `use_roots` is true, local
/// nondeterminism roots also start tainted. Returns a violation per
/// sink reached.
fn flow(
    ws: &Workspace,
    i: usize,
    resolved: &[(CallSite, Vec<usize>)],
    summaries: &[Summary],
    seed: BTreeSet<String>,
    use_roots: bool,
) -> Vec<Violation> {
    let info = &ws.fns[i].info;
    let toks = ws.toks(i);
    let (start, end) = info.body;

    // Container-typed variables: HashMap/HashSet params and
    // `let x = HashMap::new()` / `let x: HashMap<…> = …` bindings.
    let mut containers: BTreeSet<String> = info
        .params
        .iter()
        .filter(|p| p.ty_idents.iter().any(|t| CONTAINER_TYPES.contains(&t.as_str())))
        .map(|p| p.name.clone())
        .collect();
    let mut tainted = seed;
    let mut out = Vec::new();
    let mut reported: BTreeSet<(u32, String)> = BTreeSet::new();

    // Two forward passes: taint introduced late in pass one reaches
    // earlier loop bodies in pass two.
    for _pass in 0..2 {
        let mut k = start;
        while k < end {
            let stmt_end = statement_end(toks, k, end);
            scan_statement(
                ws,
                info,
                toks,
                (k, stmt_end),
                resolved,
                summaries,
                &mut containers,
                &mut tainted,
                use_roots,
                &mut reported,
                &mut out,
            );
            k = stmt_end.max(k + 1);
        }
    }
    out
}

/// Exclusive end of the statement starting at `k`: past the `;` at
/// paren depth 0, or past an opening `{` (blocks are walked as their
/// own statements).
fn statement_end(toks: &[Token], k: usize, end: usize) -> usize {
    let mut depth = 0i32;
    let mut j = k;
    while j < end {
        match toks[j].text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            ";" if depth <= 0 => return j + 1,
            "{" | "}" if depth <= 0 => return j + 1,
            _ => {}
        }
        j += 1;
    }
    end
}

#[allow(clippy::too_many_arguments)]
fn scan_statement(
    ws: &Workspace,
    info: &FnInfo,
    toks: &[Token],
    range: (usize, usize),
    resolved: &[(CallSite, Vec<usize>)],
    summaries: &[Summary],
    containers: &mut BTreeSet<String>,
    tainted: &mut BTreeSet<String>,
    use_roots: bool,
    reported: &mut BTreeSet<(u32, String)>,
    out: &mut Vec<Violation>,
) {
    let (k, stmt_end) = range;
    let stmt = &toks[k..stmt_end];
    if stmt.is_empty() || stmt.iter().any(|t| t.in_test) {
        return;
    }
    let idents: Vec<&str> = stmt
        .iter()
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text.as_str())
        .collect();

    // `v.sort_unstable();` / `v.select_nth_unstable(k);` style statements
    // sanitize their receiver: a selection establishes the same
    // order-insensitivity for the ranks it pins as a sort does for the
    // whole container.
    if stmt.len() >= 4
        && stmt[0].kind == TokenKind::Ident
        && stmt[1].text == "."
        && SANITIZER_METHODS.contains(&stmt[2].text.as_str())
        && (stmt[2].text.starts_with("sort") || stmt[2].text.starts_with("select_nth"))
    {
        tainted.remove(&stmt[0].text);
        return;
    }

    let has_source = use_roots && statement_has_root(toks, (k, stmt_end), containers, tainted, &info.file);
    let has_taint = has_source || idents.iter().any(|id| tainted.contains(*id));
    let sanitized = statement_sanitizes(stmt);

    // `let [mut] name …=` binding: taint or sanitize the binding.
    if stmt[0].text == "let" {
        let mut b = 1;
        if stmt.get(b).map(|t| t.text.as_str()) == Some("mut") {
            b += 1;
        }
        if let Some(name_tok) = stmt.get(b).filter(|t| t.kind == TokenKind::Ident) {
            let name = name_tok.text.clone();
            // Track new container bindings.
            if idents.iter().any(|id| CONTAINER_TYPES.contains(id)) {
                containers.insert(name.clone());
            }
            if has_taint && !sanitized {
                tainted.insert(name);
            } else if sanitized {
                tainted.remove(&name);
            }
        }
    }

    // `for pat in container {` taints the bound pattern idents.
    if stmt[0].text == "for" {
        if let Some(in_pos) = stmt.iter().position(|t| t.text == "in") {
            let iter_expr: Vec<&str> = stmt[in_pos + 1..]
                .iter()
                .filter(|t| t.kind == TokenKind::Ident)
                .map(|t| t.text.as_str())
                .collect();
            // Iterating a tainted value taints the bound vars in any
            // mode; iterating a hash container is a *root* and only
            // counts when roots are live (violation mode, not the
            // parameter-summary mode).
            let over_tainted = iter_expr.iter().any(|id| tainted.contains(*id));
            let over_container =
                use_roots && iter_expr.iter().any(|id| containers.contains(*id));
            let iter_sanitized = statement_sanitizes(&stmt[in_pos + 1..]);
            if (over_tainted || over_container) && !iter_sanitized {
                for t in &stmt[1..in_pos] {
                    if t.kind == TokenKind::Ident && t.text != "mut" {
                        tainted.insert(t.text.clone());
                    }
                }
            }
        }
    }

    // Sink checks on every call in this statement. (In summary mode the
    // caller only tests whether any hit exists; nothing is printed.)
    for (c, callees) in resolved {
        if c.tok < k || c.tok >= stmt_end {
            continue;
        }
        let args = &toks[c.args.0..c.args.1.min(stmt_end)];
        let arg_tainted = args.iter().any(|t| {
            t.kind == TokenKind::Ident
                && (tainted.contains(&t.text)
                    || (use_roots
                        && containers.contains(&t.text)
                        && args_iterate(args, &t.text)))
        }) || (use_roots && statement_has_root(toks, c.args, containers, tainted, &info.file));
        // Receiver taint counts for `record`-style sinks
        // (`trace.record(tainted)` has the value in args anyway, but
        // `tainted_iter.for_each(...)` does not — keep it simple).
        if !arg_tainted {
            continue;
        }
        let is_sink = c.name.contains("digest")
            || (SINK_EXACT.contains(&c.name.as_str()) && (c.name != "fold" || c.recv.is_empty()))
            || callees.iter().any(|&g| {
                // Argument position → callee parameter summary.
                arg_positions_tainted(toks, c, tainted, containers, use_roots)
                    .iter()
                    .any(|&p| {
                        let s = &summaries[g];
                        let off = usize::from(
                            ws.fns[g].info.params.first().map(|x| x.name == "self").unwrap_or(false),
                        );
                        s.param_to_sink.get(p + off).copied().unwrap_or(false)
                    })
            });
        if is_sink && reported.insert((c.line, c.name.clone())) {
            out.push(Violation {
                rule: "determinism-taint",
                file: info.file.clone(),
                line: c.line,
                message: format!(
                    "order-dependent value reaches order-sensitive sink `{}` in `{}`; \
                     sort the data (or use a BTree collection) before it feeds a \
                     digest, trace, or solver",
                    c.name,
                    info.qname()
                ),
                token: c.name.clone(),
            });
        }
    }

}

/// Does this token range contain a nondeterminism root?
fn statement_has_root(
    toks: &[Token],
    range: (usize, usize),
    containers: &BTreeSet<String>,
    _tainted: &BTreeSet<String>,
    file: &std::path::Path,
) -> bool {
    let (k, end) = range;
    let sanctioned = file.to_string_lossy().replace('\\', "/") == SANCTIONED_CLOCK;
    let mut j = k;
    while j < end {
        let t = &toks[j];
        if t.kind == TokenKind::Ident {
            // container.iter() / container.keys() / …
            if containers.contains(&t.text)
                && toks.get(j + 1).map(|x| x.text.as_str()) == Some(".")
                && toks
                    .get(j + 2)
                    .map(|x| SOURCE_METHODS.contains(&x.text.as_str()))
                    .unwrap_or(false)
            {
                return true;
            }
            // thread::current().id()
            if t.text == "thread"
                && toks.get(j + 1).map(|x| x.text.as_str()) == Some("::")
                && toks.get(j + 2).map(|x| x.text.as_str()) == Some("current")
            {
                return true;
            }
            // Instant::now() / SystemTime::now() outside clock.rs.
            if !sanctioned
                && (t.text == "Instant" || t.text == "SystemTime")
                && toks.get(j + 1).map(|x| x.text.as_str()) == Some("::")
                && toks.get(j + 2).map(|x| x.text.as_str()) == Some("now")
            {
                return true;
            }
            // Ambient RNG.
            if (t.text == "thread_rng" || t.text == "from_entropy")
                && toks.get(j + 1).map(|x| x.text.as_str()) == Some("(")
            {
                return true;
            }
        }
        j += 1;
    }
    false
}

/// Does the statement contain a sanitizer (sort call, BTree collect, or
/// order-insensitive aggregate as the outermost projection)?
fn statement_sanitizes(stmt: &[Token]) -> bool {
    for (j, t) in stmt.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        if t.text.starts_with("BTree") {
            return true;
        }
        if j > 0
            && stmt[j - 1].text == "."
            && SANITIZER_METHODS.contains(&t.text.as_str())
            && stmt.get(j + 1).map(|x| x.text.as_str()) == Some("(")
        {
            return true;
        }
    }
    false
}

/// Within `args`, does the container ident at least get iterated (vs a
/// safe aggregate like `m.len()`)? `digest(m)` passing the map whole is
/// treated as iteration — the callee will walk it.
fn args_iterate(args: &[Token], name: &str) -> bool {
    for (j, t) in args.iter().enumerate() {
        if t.kind == TokenKind::Ident && t.text == name {
            match args.get(j + 1).map(|x| x.text.as_str()) {
                Some(".") => {
                    let m = args.get(j + 2).map(|x| x.text.as_str()).unwrap_or("");
                    if SOURCE_METHODS.contains(&m) {
                        return true;
                    }
                    if SANITIZER_METHODS.contains(&m) {
                        continue;
                    }
                    return true;
                }
                _ => return true,
            }
        }
    }
    false
}

/// Zero-based top-level argument positions of `c` holding a tainted (or
/// iterated-container) identifier.
fn arg_positions_tainted(
    toks: &[Token],
    c: &CallSite,
    tainted: &BTreeSet<String>,
    containers: &BTreeSet<String>,
    use_roots: bool,
) -> Vec<usize> {
    let mut out = Vec::new();
    let (a0, a1) = c.args;
    let mut depth = 0i32;
    let mut pos = 0usize;
    let mut hit = false;
    for t in &toks[a0..a1] {
        match t.text.as_str() {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            "," if depth <= 0 => {
                if hit {
                    out.push(pos);
                }
                pos += 1;
                hit = false;
                continue;
            }
            _ => {}
        }
        if t.kind == TokenKind::Ident
            && (tainted.contains(&t.text) || (use_roots && containers.contains(&t.text)))
        {
            hit = true;
        }
    }
    if hit {
        out.push(pos);
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
    fn hashmap_values_into_digest_is_flagged() {
        let w = ws(&[(
            "crates/remos-core/src/x.rs",
            "fn f(m: &HashMap<u32, u64>) -> u64 {
                let vals: Vec<u64> = m.values().copied().collect();
                event_digest(&vals)
            }
            fn event_digest(v: &[u64]) -> u64 { 0 }",
        )]);
        let got = analyze(&w);
        assert_eq!(got.len(), 1, "got: {got:?}");
        assert_eq!(got[0].rule, "determinism-taint");
        assert_eq!(got[0].line, 3);
    }

    #[test]
    fn fct_digest_inputs_are_a_taint_sink() {
        // The what-if kernel's `fct_digest` is covered by the `digest`
        // name rule: hash-ordered iteration feeding it is a finding.
        let w = ws(&[(
            "crates/remos-net/src/whatif.rs",
            "fn f(m: &HashMap<u32, u64>) -> u64 {
                let sizes: Vec<u64> = m.values().copied().collect();
                fct_digest(&sizes)
            }
            fn fct_digest(v: &[u64]) -> u64 { 0 }",
        )]);
        let got = analyze(&w);
        assert_eq!(got.len(), 1, "got: {got:?}");
        assert_eq!(got[0].rule, "determinism-taint");
    }

    #[test]
    fn sorted_values_are_clean() {
        let w = ws(&[(
            "crates/remos-core/src/x.rs",
            "fn f(m: &HashMap<u32, u64>) -> u64 {
                let mut vals: Vec<u64> = m.values().copied().collect();
                vals.sort_unstable();
                event_digest(&vals)
            }
            fn event_digest(v: &[u64]) -> u64 { 0 }",
        )]);
        assert!(analyze(&w).is_empty());
    }

    #[test]
    fn selected_values_are_clean() {
        // `select_nth_unstable*` pins exact order statistics, so like a
        // sort it sanitizes its receiver.
        let w = ws(&[(
            "crates/remos-core/src/x.rs",
            "fn f(m: &HashMap<u32, u64>) -> u64 {
                let mut vals: Vec<u64> = m.values().copied().collect();
                vals.select_nth_unstable_by(0, u64::cmp);
                event_digest(&vals)
            }
            fn event_digest(v: &[u64]) -> u64 { 0 }",
        )]);
        assert!(analyze(&w).is_empty());
    }

    #[test]
    fn btree_collect_is_clean_and_len_is_not_a_source() {
        let w = ws(&[(
            "crates/remos-core/src/x.rs",
            "fn f(m: &HashMap<u32, u64>) -> u64 {
                let ordered: BTreeMap<u32, u64> = m.iter().map(|(k, v)| (*k, *v)).collect();
                let n = m.len();
                event_digest(n)
            }
            fn event_digest(v: usize) -> u64 { 0 }",
        )]);
        assert!(analyze(&w).is_empty());
    }

    #[test]
    fn cross_function_flow_through_a_helper() {
        let w = ws(&[(
            "crates/remos-core/src/x.rs",
            "fn f(m: &HashMap<u32, u64>) {
                let vals: Vec<u64> = m.values().copied().collect();
                mix(&vals);
            }
            fn mix(v: &[u64]) { event_digest(v); }
            fn event_digest(v: &[u64]) -> u64 { 0 }",
        )]);
        let got = analyze(&w);
        // Two reports: the direct sink inside `mix` never fires (its
        // param is only tainted at the call site), so the one finding is
        // at the `mix(&vals)` call.
        assert_eq!(got.len(), 1, "got: {got:?}");
        assert_eq!(got[0].line, 3);
        assert_eq!(got[0].token, "mix");
    }

    #[test]
    fn for_loop_over_hashmap_into_record_is_flagged() {
        let w = ws(&[(
            "crates/remos-obs/src/x.rs",
            "fn f(m: HashMap<String, u64>, tr: &Trace) {
                for (k, v) in &m {
                    tr.record(k, v);
                }
            }",
        )]);
        let got = analyze(&w);
        assert_eq!(got.len(), 1, "got: {got:?}");
        assert_eq!(got[0].token, "record");
    }

    #[test]
    fn thread_id_into_digest_is_flagged() {
        let w = ws(&[(
            "crates/remos-obs/src/x.rs",
            "fn f() -> u64 {
                let id = thread::current().id();
                run_digest(id)
            }
            fn run_digest(x: ThreadId) -> u64 { 0 }",
        )]);
        let got = analyze(&w);
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn iterator_fold_method_is_not_the_digest_sink() {
        let w = ws(&[(
            "crates/remos-core/src/x.rs",
            "fn f(m: &HashMap<u32, u64>) -> u64 {
                let mut vals: Vec<u64> = m.values().copied().collect();
                vals.sort_unstable();
                vals.iter().fold(0u64, |a, b| a + b)
            }",
        )]);
        assert!(analyze(&w).is_empty());
    }

    #[test]
    fn sanctioned_clock_file_is_exempt() {
        let w = ws(&[(
            "crates/remos-obs/src/clock.rs",
            "fn f() -> u64 {
                let t = Instant::now();
                stamp_digest(t)
            }
            fn stamp_digest(x: Instant) -> u64 { 0 }",
        )]);
        assert!(analyze(&w).is_empty());
    }
}
