//! Item/block parser layered on the audit lexer.
//!
//! The token rules in `lib.rs` see one line at a time; the flow analyses
//! (lock order, determinism taint, error hygiene) need to know *which
//! function* a token belongs to, what that function calls, and what it
//! returns. This module recovers exactly that much structure — no types,
//! no expressions, no full AST — from the token stream:
//!
//! * `mod` / `impl` / `trait` nesting, so every `fn` gets a qualified
//!   name (`CircuitBreaker::allow`) and an owning-type context;
//! * `fn` items with parameter names (and the identifiers mentioned in
//!   each parameter's type, enough to spot `HashMap`-typed inputs) and a
//!   `-> …Result`-shaped return flag;
//! * per-function body token ranges for the analyses to scan.
//!
//! The parser is deliberately lossy: macro bodies, closures, and
//! expression grammar are not modelled. Anything it cannot classify it
//! skips, so a parse surprise degrades to "no finding", never to a crash
//! or a false cycle. That matches the audit's contract: it must run on a
//! bare `rustc` and never be the thing that can't.

use crate::{Token, TokenKind};
use std::path::{Path, PathBuf};

/// One parameter of a parsed function.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Binding name (`self` for receivers, `_` kept as-is).
    pub name: String,
    /// Identifiers appearing in the parameter's type, in order
    /// (`&HashMap<String, u64>` → `["HashMap", "String", "u64"]`).
    pub ty_idents: Vec<String>,
}

/// One function item recovered from a source file.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Bare name (`allow`).
    pub name: String,
    /// Owning `impl`/`trait` type, when inside one (`CircuitBreaker`).
    pub impl_type: Option<String>,
    /// Workspace-relative file.
    pub file: PathBuf,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// True for functions inside `#[cfg(test)]` regions.
    pub in_test: bool,
    /// Parameters in declaration order.
    pub params: Vec<Param>,
    /// Token index range of the body (exclusive of the outer braces);
    /// empty for bodyless trait methods.
    pub body: (usize, usize),
}

impl FnInfo {
    /// `Type::name` when inside an impl/trait, else the bare name.
    pub fn qname(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// Keywords that are never call names even when followed by `(`.
const NON_CALL_KEYWORDS: &[&str] =
    &["if", "while", "for", "match", "return", "loop", "in", "as", "move", "fn"];

/// Parse every `fn` item in a lexed file. `rel` is the workspace-relative
/// path recorded on each item.
pub fn parse_fns(rel: &Path, toks: &[Token]) -> Vec<FnInfo> {
    let mut out = Vec::new();
    parse_items(rel, toks, 0, toks.len(), None, &mut out);
    out
}

/// Scan `toks[i..end]` for items, recursing into `mod`/`impl`/`trait`
/// bodies with the right context.
fn parse_items(
    rel: &Path,
    toks: &[Token],
    mut i: usize,
    end: usize,
    impl_type: Option<&str>,
    out: &mut Vec<FnInfo>,
) {
    while i < end {
        let t = &toks[i];
        if t.kind != TokenKind::Ident {
            i += 1;
            continue;
        }
        match t.text.as_str() {
            "mod" => {
                // `mod name { … }` — recurse; `mod name;` — skip.
                let Some(open) = find_body_open(toks, i + 1, end) else { break };
                if toks[open].text == "{" {
                    let close = matching_brace(toks, open, end);
                    parse_items(rel, toks, open + 1, close, impl_type, out);
                    i = close + 1;
                } else {
                    i = open + 1;
                }
            }
            "impl" | "trait" => {
                let kw_is_impl = t.text == "impl";
                // Find the body `{`, extracting the subject type on the way:
                // `impl<G> Type { …`, `impl<C> Trait for Type<C> { …`,
                // `trait Name { …`.
                let mut j = i + 1;
                let mut ty: Option<String> = None;
                let mut after_for = false;
                while j < end && toks[j].text != "{" && toks[j].text != ";" {
                    if toks[j].text == "<" {
                        j = skip_angles(toks, j, end);
                        continue;
                    }
                    if toks[j].kind == TokenKind::Ident {
                        if toks[j].text == "for" {
                            after_for = true;
                            ty = None;
                        } else if toks[j].text == "where" {
                            break;
                        } else if ty.is_none() || (kw_is_impl && after_for && ty.is_none()) {
                            ty = Some(toks[j].text.clone());
                        }
                    }
                    j += 1;
                }
                while j < end && toks[j].text != "{" && toks[j].text != ";" {
                    j += 1; // where clause
                }
                if j < end && toks[j].text == "{" {
                    let close = matching_brace(toks, j, end);
                    parse_items(rel, toks, j + 1, close, ty.as_deref(), out);
                    i = close + 1;
                } else {
                    i = j + 1;
                }
            }
            "fn" => {
                // `fn` in type position (`fn(usize) -> u32`) has no name.
                let Some(name_tok) = toks.get(i + 1) else { break };
                if name_tok.kind != TokenKind::Ident {
                    i += 1;
                    continue;
                }
                match parse_fn(rel, toks, i, end, impl_type) {
                    Some((info, next)) => {
                        let body = info.body;
                        out.push(info);
                        // Nested `fn` items inside the body are real items.
                        parse_items(rel, toks, body.0, body.1, impl_type, out);
                        i = next;
                    }
                    None => i += 1,
                }
            }
            // Skip token-heavy non-fn items wholesale so struct fields and
            // match arms are never misread as items.
            "struct" | "enum" | "union" | "static" | "const" | "type" | "use" => {
                let Some(open) = find_body_open(toks, i + 1, end) else { break };
                if toks[open].text == "{" {
                    i = matching_brace(toks, open, end) + 1;
                } else {
                    i = open + 1;
                }
            }
            _ => i += 1,
        }
    }
}

/// From `start`, find the first `{` or `;` at angle/paren depth 0.
fn find_body_open(toks: &[Token], start: usize, end: usize) -> Option<usize> {
    let mut depth = 0i32;
    let mut j = start;
    while j < end {
        match toks[j].text.as_str() {
            "<" => depth += 1,
            ">" => depth -= 1,
            "<<" => depth += 2,
            ">>" => depth -= 2,
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" | ";" if depth <= 0 => return Some(j),
            "{" => {
                // A brace inside a const initializer etc.: balance it.
                j = matching_brace(toks, j, end);
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Index of the `}` matching the `{` at `open` (or `end - 1`).
pub fn matching_brace(toks: &[Token], open: usize, end: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().take(end).skip(open) {
        match t.text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
    }
    end.saturating_sub(1)
}

/// Skip a balanced `<…>` generic group starting at `open` (`<`). Returns
/// the index just past the matching `>`.
fn skip_angles(toks: &[Token], open: usize, end: usize) -> usize {
    let mut depth = 0i32;
    let mut j = open;
    while j < end {
        match toks[j].text.as_str() {
            "<" => depth += 1,
            "<<" => depth += 2,
            ">" => depth -= 1,
            ">>" => depth -= 2,
            _ => {}
        }
        j += 1;
        if depth <= 0 {
            return j;
        }
    }
    end
}

/// Parse one `fn` item whose `fn` keyword sits at `at`. Returns the item
/// and the index just past it.
fn parse_fn(
    rel: &Path,
    toks: &[Token],
    at: usize,
    end: usize,
    impl_type: Option<&str>,
) -> Option<(FnInfo, usize)> {
    let name = toks[at + 1].text.clone();
    let line = toks[at].line;
    let in_test = toks[at].in_test;
    let mut j = at + 2;
    if j < end && toks[j].text == "<" {
        j = skip_angles(toks, j, end);
    }
    if j >= end || toks[j].text != "(" {
        return None;
    }
    // Parameters: idents followed by `:` at paren depth 1, plus `self`.
    let mut params = Vec::new();
    let mut depth = 0i32;
    let open_paren = j;
    while j < end {
        match toks[j].text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            "<" => {
                j = skip_angles(toks, j, end);
                continue;
            }
            _ => {}
        }
        if depth == 1 && toks[j].kind == TokenKind::Ident {
            if toks[j].text == "self" && params.is_empty() {
                params.push(Param { name: "self".into(), ty_idents: Vec::new() });
            } else if toks.get(j + 1).is_some_and(|n| n.text == ":")
                && toks[j].text != "mut"
                && j > open_paren
                && !matches!(toks[j - 1].text.as_str(), ":" | "::")
            {
                // `name: Type` — collect type idents up to `,` or `)` at
                // this depth.
                let mut ty = Vec::new();
                let mut k = j + 2;
                let mut d2 = 0i32;
                while k < end {
                    match toks[k].text.as_str() {
                        "(" | "[" => d2 += 1,
                        ")" | "]" if d2 == 0 => break,
                        ")" | "]" => d2 -= 1,
                        "<" => d2 += 1,
                        ">" => d2 -= 1,
                        ">>" => d2 -= 2,
                        "," if d2 <= 0 => break,
                        _ => {}
                    }
                    if toks[k].kind == TokenKind::Ident {
                        ty.push(toks[k].text.clone());
                    }
                    k += 1;
                }
                params.push(Param { name: toks[j].text.clone(), ty_idents: ty });
            }
        }
        j += 1;
    }
    // Return type: tokens between `->` and the body `{` / `;` / `where`.
    j += 1; // past `)`
    if j < end && toks[j].text == "->" {
        j += 1;
        let mut d2 = 0i32;
        while j < end {
            match toks[j].text.as_str() {
                "<" => d2 += 1,
                ">" => d2 -= 1,
                ">>" => d2 -= 2,
                "(" | "[" => d2 += 1,
                ")" | "]" => d2 -= 1,
                "{" | ";" if d2 <= 0 => break,
                _ => {}
            }
            if toks[j].text == "where" && d2 <= 0 {
                break;
            }
            j += 1;
        }
    }
    while j < end && toks[j].text != "{" && toks[j].text != ";" {
        j += 1; // where clause
    }
    if j >= end {
        return None;
    }
    let (body, next) = if toks[j].text == "{" {
        let close = matching_brace(toks, j, end);
        ((j + 1, close), close + 1)
    } else {
        ((j, j), j + 1) // bodyless trait method
    };
    Some((
        FnInfo {
            name,
            impl_type: impl_type.map(str::to_string),
            file: rel.to_path_buf(),
            line,
            in_test,
            params,
            body,
        },
        next,
    ))
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee's last path segment (`poll`, `solve_scoped`).
    pub name: String,
    /// Path qualifier just before `::name(` (`Solver` in
    /// `Solver::solve_scoped(…)`), when present.
    pub qual: Option<String>,
    /// Dotted receiver chain before `.name(` (`["self", "inner"]` for
    /// `self.inner.poll(…)`), empty for free/path calls.
    pub recv: Vec<String>,
    /// True for `.name(` method calls — including calls on an
    /// expression result (`x.lock().step(…)`), whose `recv` is empty
    /// because the receiver is not a plain ident chain.
    pub method: bool,
    /// Token index of the callee identifier.
    pub tok: usize,
    /// Token index range of the argument list (inside the parens).
    pub args: (usize, usize),
    /// 1-based source line.
    pub line: u32,
}

/// Extract every call site in `toks[range]`. Macro invocations
/// (`name!(…)`) are not calls and are skipped.
pub fn calls_in(toks: &[Token], range: (usize, usize)) -> Vec<CallSite> {
    let mut out = Vec::new();
    let (start, end) = range;
    for k in start..end {
        if toks[k].kind != TokenKind::Ident {
            continue;
        }
        let name = toks[k].text.as_str();
        if NON_CALL_KEYWORDS.contains(&name) {
            continue;
        }
        let Some(next) = toks.get(k + 1) else { continue };
        if next.text != "(" {
            continue;
        }
        // `fn name(` is a definition, not a call.
        if k > 0 && toks[k - 1].text == "fn" {
            continue;
        }
        let close = matching_paren(toks, k + 1, end);
        let (qual, recv) = context_of(toks, k);
        let method = k > 0 && toks[k - 1].text == ".";
        out.push(CallSite {
            name: name.to_string(),
            qual,
            recv,
            method,
            tok: k,
            args: (k + 2, close),
            line: toks[k].line,
        });
    }
    out
}

/// Index of the `)` matching the `(` at `open` (or `end - 1`).
fn matching_paren(toks: &[Token], open: usize, end: usize) -> usize {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().take(end).skip(open) {
        match t.text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
    }
    end.saturating_sub(1)
}

/// Qualifier and receiver chain of the call whose name sits at `k`.
fn context_of(toks: &[Token], k: usize) -> (Option<String>, Vec<String>) {
    if k >= 2 && toks[k - 1].text == "::" && toks[k - 2].kind == TokenKind::Ident {
        return (Some(toks[k - 2].text.clone()), Vec::new());
    }
    if k >= 1 && toks[k - 1].text == "." {
        // Walk back over `ident ( . ident )*`.
        let mut chain = Vec::new();
        let mut j = k - 1;
        loop {
            if j == 0 || toks[j].text != "." {
                break;
            }
            let prev = j - 1;
            if toks[prev].kind == TokenKind::Ident {
                chain.push(toks[prev].text.clone());
                if prev == 0 {
                    break;
                }
                j = prev - 1;
            } else {
                break;
            }
        }
        chain.reverse();
        return (None, chain);
    }
    (None, Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex;

    fn fns(src: &str) -> Vec<FnInfo> {
        parse_fns(Path::new("crates/remos-net/src/x.rs"), &lex(src))
    }

    #[test]
    fn free_and_impl_fns_get_qualified_names() {
        let got = fns("
            pub fn free(a: u32) -> CoreResult<u32> { a }
            struct S { f: u32 }
            impl S {
                fn method(&self, m: &HashMap<String, u64>) { let _x = m; }
            }
            impl Clone for S {
                fn clone(&self) -> S { S { f: 0 } }
            }
        ");
        let names: Vec<String> = got.iter().map(|f| f.qname()).collect();
        assert_eq!(names, vec!["free", "S::method", "S::clone"]);
        assert_eq!(got[1].params[0].name, "self");
        assert_eq!(got[1].params[1].name, "m");
        assert!(got[1].params[1].ty_idents.contains(&"HashMap".to_string()));
    }

    #[test]
    fn generic_impl_for_extracts_the_subject_type() {
        let got = fns("
            impl<C: Collector> Collector for BreakerCollector<C> {
                fn poll(&mut self) -> CoreResult<bool> { self.inner.poll() }
            }
        ");
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].qname(), "BreakerCollector::poll");
    }

    #[test]
    fn nested_modules_and_test_gates() {
        let got = fns("
            mod outer {
                pub fn lib_fn() {}
                #[cfg(test)]
                mod tests {
                    fn test_helper() {}
                }
            }
        ");
        assert_eq!(got.len(), 2);
        assert!(!got[0].in_test);
        assert!(got[1].in_test);
    }

    #[test]
    fn trait_methods_with_and_without_bodies() {
        let got = fns("
            trait Collector {
                fn poll(&mut self) -> CoreResult<bool>;
                fn describe(&self) -> String { String::new() }
            }
        ");
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].qname(), "Collector::poll");
        assert_eq!(got[0].body.0, got[0].body.1);
        assert_eq!(got[1].qname(), "Collector::describe");
        assert!(got[1].body.1 > got[1].body.0);
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let got = fns("pub fn takes(f: fn(usize) -> u32) -> u32 { f(1) }");
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].name, "takes");
    }

    #[test]
    fn call_sites_with_receiver_and_qualifier() {
        let src = "fn f(&self) { self.inner.poll(); Solver::solve_scoped(a, b); helper(x); }";
        let toks = lex(src);
        let items = parse_fns(Path::new("x.rs"), &toks);
        let calls = calls_in(&toks, items[0].body);
        assert_eq!(calls.len(), 3);
        assert_eq!(calls[0].name, "poll");
        assert_eq!(calls[0].recv, vec!["self", "inner"]);
        assert_eq!(calls[1].name, "solve_scoped");
        assert_eq!(calls[1].qual.as_deref(), Some("Solver"));
        assert_eq!(calls[2].name, "helper");
        assert!(calls[2].recv.is_empty() && calls[2].qual.is_none());
    }

    #[test]
    fn macros_are_not_calls() {
        let src = "fn f() { panic!(\"x\"); vec![1]; real(1); }";
        let toks = lex(src);
        let items = parse_fns(Path::new("x.rs"), &toks);
        let calls = calls_in(&toks, items[0].body);
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].name, "real");
    }

    #[test]
    fn where_clauses_and_nested_fns() {
        let got = fns("
            pub fn outer<J, R>(jobs: &[J]) -> Vec<R>
            where
                J: Sync,
                R: Send,
            {
                fn inner(x: u32) -> u32 { x }
                inner(1);
                Vec::new()
            }
        ");
        let names: Vec<&str> = got.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "inner"]);
    }
}
