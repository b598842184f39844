//! # remos-audit — determinism & panic-freedom lint pass
//!
//! The paper's results hinge on the modeler's max-min fair sharing being
//! exactly reproducible (§4.2: "Remos will assume the bottleneck link
//! bandwidth will be shared equally by all flows"). Nondeterministic
//! iteration order, float equality on measured quantities, stray panics in
//! library code, and wall-clock reads inside simulated-time code can all
//! silently break that contract. This crate is a source-level audit that
//! makes such code fail CI instead of failing experiments.
//!
//! It deliberately has **zero dependencies**: a hand-written Rust lexer
//! (comments, strings, raw strings, char literals vs lifetimes, nested
//! block comments) feeds token-level rules, in the style of rustc's own
//! `tidy` tool. That keeps the audit buildable with a bare `rustc` on an
//! air-gapped machine — the audit must never be the thing that can't run.
//!
//! ## Rules
//!
//! | id | scope | trigger |
//! |----|-------|---------|
//! | `nondet-collection` | solver/simulation paths (`remos-net`, `remos-core/src/modeler`, `remos-snmp/src/sim.rs`) | `HashMap` / `HashSet` tokens — iteration order can leak into results; use `BTreeMap` / `BTreeSet` or sorted iteration |
//! | `float-eq` | all library crates | `==` / `!=` with a float literal (or `f32`/`f64` path) operand |
//! | `panic-site` | library (non-test) code of `remos-core`, `remos-net`, `remos-snmp`, `remos-serve` — and `examples/`, which are shipped as copy-paste templates | `.unwrap()`, `.expect(..)`, `panic!`, `unreachable!`, `todo!`, `unimplemented!` |
//! | `wall-clock` | all library crates (except `remos-obs/src/clock.rs`, the one sanctioned wall-clock source) | `std::time::Instant` / `SystemTime` in simulated-time code |
//! | `deprecated-shim` | every library source | `.get_graph(` / `.flow_info(` / `.reachable_peers(` — the positional Remos API was removed; build a `Query` and call `Remos::run` |
//! | `unbounded-queue` | `remos-serve` (except `src/queue.rs`, the bounded queue's sanctioned home) | `VecDeque` — ad-hoc buffering in the serving path defeats admission control; route backlog through `FairQueue` |
//! | `blocking-in-handler` | `remos-serve` | `.recv(` / `.park(` / `.sleep(` / `.wait(` (and `_timeout` variants) — the server is a cooperative loop on simulated time; a blocking call stalls every tenant |
//! | `external-dep` | every `Cargo.toml` under the root (see [`manifest`]) | a dependency that is neither a `path = …` crate nor inherited with `workspace = true` — the workspace builds with an empty registry |
//!
//! Violations inside `#[cfg(test)]` modules, doc comments, strings, and
//! `src/bin` / `main.rs` targets are not reported (`examples/` is the one
//! binary tree that IS audited, because its code is written to be
//! copied). Justified sites are recorded in the checked-in `audit.allow`
//! file (rule, file suffix, and a substring of the offending line); stale
//! allowlist entries are reported so the file cannot rot.

pub mod driver;
pub mod hygiene;
pub mod lockorder;
pub mod manifest;
pub mod model;
pub mod parse;
pub mod report;
pub mod taint;

use std::fmt;
use std::path::{Path, PathBuf};

/// A lexed token with enough classification for the audit rules.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// Token kind.
    pub kind: TokenKind,
    /// Text of the token (identifier name, operator spelling, ...).
    pub text: String,
    /// 1-based source line.
    pub line: u32,
    /// True when the token sits inside a `#[cfg(test)]`-gated item.
    pub in_test: bool,
}

/// Coarse token classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword.
    Ident,
    /// Integer literal.
    Int,
    /// Floating-point literal (`1.0`, `2e9`, `3.5f64`, ...).
    Float,
    /// String / char / byte literal (content discarded).
    Literal,
    /// Lifetime (`'a`).
    Lifetime,
    /// Operator or punctuation (`==`, `.`, `{`, ...).
    Punct,
}

/// Lex Rust source into audit tokens. Comments and literal *contents* are
/// discarded; `in_test` is filled by a second pass tracking
/// `#[cfg(test)]`-gated items.
pub fn lex(src: &str) -> Vec<Token> {
    let b = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0usize;
    let mut line: u32 = 1;

    // Two-character operators we must not split (so `<=` never reads as a
    // `<` followed by the `=` of an `==`).
    const TWO: &[&str] = &[
        "==", "!=", "<=", ">=", "=>", "->", "&&", "||", "::", "..", "+=", "-=", "*=", "/=",
        "%=", "^=", "&=", "|=", "<<", ">>",
    ];

    while i < b.len() {
        let c = b[i] as char;
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comment (incl. /// and //!).
        if c == '/' && i + 1 < b.len() && b[i + 1] == b'/' {
            while i < b.len() && b[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        // Block comment, possibly nested.
        if c == '/' && i + 1 < b.len() && b[i + 1] == b'*' {
            let mut depth = 1;
            i += 2;
            while i < b.len() && depth > 0 {
                if b[i] == b'\n' {
                    line += 1;
                    i += 1;
                } else if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                    depth += 1;
                    i += 2;
                } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            continue;
        }
        // Raw strings r"..." / r#"..."# (and br variants). Must be checked
        // before plain identifiers would swallow the `r`.
        if (c == 'r' || c == 'b') && is_raw_string_start(b, i) {
            let start = if c == 'b' { i + 1 } else { i };
            let mut j = start + 1; // past 'r'
            let mut hashes = 0;
            while j < b.len() && b[j] == b'#' {
                hashes += 1;
                j += 1;
            }
            // b[j] == '"' guaranteed by is_raw_string_start.
            j += 1;
            loop {
                if j >= b.len() {
                    break;
                }
                if b[j] == b'\n' {
                    line += 1;
                    j += 1;
                    continue;
                }
                if b[j] == b'"' {
                    let mut k = j + 1;
                    let mut h = 0;
                    while k < b.len() && b[k] == b'#' && h < hashes {
                        h += 1;
                        k += 1;
                    }
                    if h == hashes {
                        j = k;
                        break;
                    }
                }
                j += 1;
            }
            toks.push(Token { kind: TokenKind::Literal, text: String::new(), line, in_test: false });
            i = j;
            continue;
        }
        // Plain or byte string.
        if c == '"' || (c == 'b' && i + 1 < b.len() && b[i + 1] == b'"') {
            let mut j = if c == 'b' { i + 2 } else { i + 1 };
            while j < b.len() {
                match b[j] {
                    b'\\' => j += 2,
                    b'"' => {
                        j += 1;
                        break;
                    }
                    b'\n' => {
                        line += 1;
                        j += 1;
                    }
                    _ => j += 1,
                }
            }
            toks.push(Token { kind: TokenKind::Literal, text: String::new(), line, in_test: false });
            i = j;
            continue;
        }
        // Char literal vs lifetime.
        if c == '\'' {
            // Lifetime: 'ident not followed by a closing quote.
            let is_lifetime = i + 1 < b.len()
                && (b[i + 1].is_ascii_alphabetic() || b[i + 1] == b'_')
                && !(i + 2 < b.len() && b[i + 2] == b'\'');
            if is_lifetime {
                let mut j = i + 1;
                while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                    j += 1;
                }
                toks.push(Token {
                    kind: TokenKind::Lifetime,
                    text: String::new(),
                    line,
                    in_test: false,
                });
                i = j;
                continue;
            }
            // Char literal, e.g. 'x', '\n', '\u{1F600}'.
            let mut j = i + 1;
            while j < b.len() {
                match b[j] {
                    b'\\' => j += 2,
                    b'\'' => {
                        j += 1;
                        break;
                    }
                    _ => j += 1,
                }
            }
            toks.push(Token { kind: TokenKind::Literal, text: String::new(), line, in_test: false });
            i = j;
            continue;
        }
        // Identifier / keyword (incl. raw identifiers r#name).
        if c.is_ascii_alphabetic() || c == '_' {
            let mut j = i;
            if c == 'r' && i + 1 < b.len() && b[i + 1] == b'#' && i + 2 < b.len()
                && (b[i + 2].is_ascii_alphabetic() || b[i + 2] == b'_')
            {
                j = i + 2;
            }
            let start = j;
            while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                j += 1;
            }
            toks.push(Token {
                kind: TokenKind::Ident,
                text: src[start..j].to_string(),
                line,
                in_test: false,
            });
            i = j;
            continue;
        }
        // Number. `1.0`, `1e9`, `0xFF`, `1_000`, `2.5f64`, but `0..n` is
        // two ints around a `..`, and `x.1` tuple indexing stays an int.
        if c.is_ascii_digit() {
            let mut j = i;
            let mut float = false;
            if c == '0' && i + 1 < b.len() && matches!(b[i + 1], b'x' | b'o' | b'b') {
                j += 2;
                while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                    j += 1;
                }
            } else {
                while j < b.len() && (b[j].is_ascii_digit() || b[j] == b'_') {
                    j += 1;
                }
                // Fractional part: a '.' NOT followed by a second '.'
                // (range) or an identifier start (method call / tuple).
                if j < b.len()
                    && b[j] == b'.'
                    && !(j + 1 < b.len()
                        && (b[j + 1] == b'.'
                            || b[j + 1].is_ascii_alphabetic()
                            || b[j + 1] == b'_'))
                {
                    float = true;
                    j += 1;
                    while j < b.len() && (b[j].is_ascii_digit() || b[j] == b'_') {
                        j += 1;
                    }
                }
                // Exponent.
                if j < b.len() && (b[j] == b'e' || b[j] == b'E') {
                    let mut k = j + 1;
                    if k < b.len() && (b[k] == b'+' || b[k] == b'-') {
                        k += 1;
                    }
                    if k < b.len() && b[k].is_ascii_digit() {
                        float = true;
                        j = k;
                        while j < b.len() && (b[j].is_ascii_digit() || b[j] == b'_') {
                            j += 1;
                        }
                    }
                }
                // Type suffix.
                if src[j..].starts_with("f32") || src[j..].starts_with("f64") {
                    float = true;
                    j += 3;
                } else {
                    while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                        j += 1;
                    }
                }
            }
            toks.push(Token {
                kind: if float { TokenKind::Float } else { TokenKind::Int },
                text: src[i..j].to_string(),
                line,
                in_test: false,
            });
            i = j;
            continue;
        }
        // Operator / punctuation: greedy two-char match first.
        if i + 1 < b.len() {
            let two = &src[i..i + 2];
            if TWO.contains(&two) {
                toks.push(Token {
                    kind: TokenKind::Punct,
                    text: two.to_string(),
                    line,
                    in_test: false,
                });
                i += 2;
                continue;
            }
        }
        toks.push(Token { kind: TokenKind::Punct, text: c.to_string(), line, in_test: false });
        i += 1;
    }

    mark_test_regions(&mut toks);
    toks
}

/// True when `b[i..]` starts a raw (possibly byte) string: `r"`, `r#`,
/// `br"`, `br#`.
fn is_raw_string_start(b: &[u8], i: usize) -> bool {
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    if j >= b.len() || b[j] != b'r' {
        return false;
    }
    j += 1;
    while j < b.len() && b[j] == b'#' {
        j += 1;
    }
    j < b.len() && b[j] == b'"'
}

/// Mark every token inside a `#[cfg(test)]`-gated item (or a `#[test]`
/// function) as test code. Tracks brace depth; a pending gate attaches to
/// the next `{ ... }` region at the gate's depth.
fn mark_test_regions(toks: &mut [Token]) {
    let mut depth: i32 = 0;
    // Stack of depths at which a test region opened.
    let mut test_regions: Vec<i32> = Vec::new();
    let mut pending_gate = false;
    let mut k = 0usize;
    while k < toks.len() {
        // Detect `#[cfg(test)]` / `#[cfg(all(test, ...))]` / `#[test]`.
        if toks[k].kind == TokenKind::Punct && toks[k].text == "#" {
            // Scan the attribute's bracket group.
            if k + 1 < toks.len() && toks[k + 1].text == "[" {
                let mut j = k + 2;
                let mut brackets = 1;
                let mut saw_test = false;
                let mut saw_cfg_or_test_attr = false;
                while j < toks.len() && brackets > 0 {
                    match toks[j].text.as_str() {
                        "[" => brackets += 1,
                        "]" => brackets -= 1,
                        "cfg" | "cfg_attr" => saw_cfg_or_test_attr = true,
                        "test" => {
                            saw_test = true;
                            // A bare `#[test]` attribute.
                            if j == k + 2 {
                                saw_cfg_or_test_attr = true;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                if saw_test && saw_cfg_or_test_attr {
                    pending_gate = true;
                }
                // Attribute tokens themselves inherit the current state.
                for t in toks.iter_mut().take(j).skip(k) {
                    t.in_test = !test_regions.is_empty();
                }
                k = j;
                continue;
            }
        }
        match toks[k].text.as_str() {
            "{" => {
                if pending_gate {
                    test_regions.push(depth);
                    pending_gate = false;
                }
                depth += 1;
            }
            "}" => {
                depth -= 1;
                if test_regions.last() == Some(&depth) {
                    // Mark the closing brace itself, then pop.
                    toks[k].in_test = true;
                    test_regions.pop();
                    k += 1;
                    continue;
                }
            }
            // `#[cfg(test)] use ...;` — gate applies to a braceless
            // item; it ends at the semicolon.
            ";" if pending_gate => {
                toks[k].in_test = true;
                pending_gate = false;
            }
            _ => {}
        }
        toks[k].in_test = toks[k].in_test || !test_regions.is_empty() || pending_gate;
        k += 1;
    }
}

/// One reported violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Rule identifier (e.g. `panic-site`).
    pub rule: &'static str,
    /// File the violation is in.
    pub file: PathBuf,
    /// 1-based line.
    pub line: u32,
    /// Human-readable message.
    pub message: String,
    /// The offending token text (used for allowlist matching context).
    pub token: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Which rule families apply to a file, derived from its workspace path.
#[derive(Debug, Clone, Copy, Default)]
pub struct RuleScope {
    /// `nondet-collection` applies (solver/simulation paths).
    pub nondet: bool,
    /// `float-eq` applies.
    pub float_eq: bool,
    /// `panic-site` applies (library code of the core crates).
    pub panic: bool,
    /// `wall-clock` applies (simulated-time code).
    pub wall_clock: bool,
    /// `deprecated-shim` applies (everywhere but the shims' home).
    pub deprecated_shim: bool,
    /// `thread-spawn` applies (everywhere but the sanctioned pool).
    pub thread: bool,
    /// `unbounded-queue` applies (serving path, minus the bounded queue).
    pub unbounded_queue: bool,
    /// `blocking-in-handler` applies (serving path).
    pub blocking: bool,
}

/// Classify a workspace-relative path (`crates/remos-net/src/engine.rs`).
pub fn scope_for(rel: &Path) -> RuleScope {
    let p = rel.to_string_lossy().replace('\\', "/");
    // Examples are binaries, but they are the code users copy first: they
    // must model typed error handling and the QuerySpec API, so the panic
    // and shim rules apply to them even though other binaries are exempt.
    if p.starts_with("examples/") && p.ends_with(".rs") {
        return RuleScope { panic: true, deprecated_shim: true, ..RuleScope::default() };
    }
    // Only library sources are audited; binaries may print/panic freely.
    let in_src = p.contains("/src/");
    if !in_src || p.contains("/src/bin/") || p.ends_with("/main.rs") {
        return RuleScope::default();
    }
    let serve_crate = p.starts_with("crates/remos-serve/");
    let lib_crate = p.starts_with("crates/remos-core/")
        || p.starts_with("crates/remos-net/")
        || p.starts_with("crates/remos-snmp/")
        || serve_crate;
    let audited_crates = lib_crate
        || p.starts_with("crates/remos-fx/")
        || p.starts_with("crates/remos-apps/")
        || p.starts_with("crates/remos-obs/");
    // Shed/admission decisions must be exactly reproducible, so the
    // serving crate is held to the same determinism bar as the solver.
    let solver_path = p.starts_with("crates/remos-net/src/")
        || p.starts_with("crates/remos-core/src/modeler/")
        || serve_crate
        || p == "crates/remos-snmp/src/sim.rs";
    // remos-obs/src/clock.rs is the one sanctioned wall-clock source: it
    // exists to *plug* a clock into Obs, and SimTime-stamped tracing in
    // simulated code never routes through it.
    let sanctioned_clock = p == "crates/remos-obs/src/clock.rs";
    // The shared scoped worker pool is the one sanctioned thread
    // source: it runs pure computation over immutable shared data with
    // deterministic (input-order) result placement, and never touches
    // the simulated clock, the collector, or the trace recorder. It
    // lives in remos-net; the engine (independent solver components)
    // and the facade (batch answers) both import it from there, so this
    // one file is the whole exemption.
    let sanctioned_pool = p == "crates/remos-net/src/pool.rs";
    // queue.rs is the serving crate's one sanctioned VecDeque home: its
    // FairQueue enforces the depth/cost bounds every other module must
    // route backlog through.
    let sanctioned_queue = p == "crates/remos-serve/src/queue.rs";
    RuleScope {
        nondet: solver_path,
        float_eq: audited_crates,
        panic: lib_crate,
        wall_clock: audited_crates && !sanctioned_clock,
        // The positional shims were removed; nothing may call them, and
        // the rule keeps them from creeping back in.
        deprecated_shim: true,
        thread: audited_crates && !sanctioned_pool,
        unbounded_queue: serve_crate && !sanctioned_queue,
        blocking: serve_crate,
    }
}

/// Run every applicable rule over one lexed file.
pub fn check_tokens(file: &Path, toks: &[Token], scope: RuleScope) -> Vec<Violation> {
    let mut out = Vec::new();
    let mk = |rule: &'static str, line: u32, token: &str, message: String| Violation {
        rule,
        file: file.to_path_buf(),
        line,
        message,
        token: token.to_string(),
    };
    for (k, t) in toks.iter().enumerate() {
        if t.in_test {
            continue;
        }
        match t.kind {
            TokenKind::Ident => {
                let name = t.text.as_str();
                if scope.nondet && (name == "HashMap" || name == "HashSet") {
                    out.push(mk(
                        "nondet-collection",
                        t.line,
                        name,
                        format!(
                            "{name} in a solver/simulation path: iteration order can leak \
                             into results; use BTreeMap/BTreeSet or sorted iteration"
                        ),
                    ));
                }
                if scope.wall_clock && (name == "Instant" || name == "SystemTime") {
                    // `Instant` as a bare ident could be a local type; only
                    // flag when it is std::time's (preceded by `time ::` or
                    // followed by `:: now`).
                    let from_std_time = k >= 2
                        && toks[k - 1].text == "::"
                        && toks[k - 2].text == "time";
                    let calls_now = k + 2 < toks.len()
                        && toks[k + 1].text == "::"
                        && toks[k + 2].text == "now";
                    if from_std_time || calls_now || name == "SystemTime" {
                        out.push(mk(
                            "wall-clock",
                            t.line,
                            name,
                            format!(
                                "{name} in simulated-time code: wall-clock reads make runs \
                                 irreproducible; thread SimTime through instead"
                            ),
                        ));
                    }
                }
                if scope.deprecated_shim
                    && matches!(name, "get_graph" | "flow_info" | "reachable_peers")
                {
                    let is_method = k >= 1 && toks[k - 1].text == ".";
                    let is_call = k + 1 < toks.len() && toks[k + 1].text == "(";
                    if is_method && is_call {
                        out.push(mk(
                            "deprecated-shim",
                            t.line,
                            name,
                            format!(
                                ".{name}() is a deprecated positional shim: build the query \
                                 with `Query::..` and execute it with `Remos::run`"
                            ),
                        ));
                    }
                }
                if scope.thread && name == "thread" {
                    // Flag std::thread uses: `std :: thread` before, or
                    // `thread :: <api>` after. Bare `thread` idents
                    // (locals, fields) are left alone.
                    let from_std = k >= 2
                        && toks[k - 1].text == "::"
                        && toks[k - 2].text == "std";
                    let thread_api = k + 2 < toks.len()
                        && toks[k + 1].text == "::"
                        && matches!(
                            toks[k + 2].text.as_str(),
                            "spawn" | "scope" | "sleep" | "Builder" | "available_parallelism"
                        );
                    if from_std || thread_api {
                        out.push(mk(
                            "thread-spawn",
                            t.line,
                            name,
                            "std::thread in library code: OS scheduling leaks into results; \
                             the shared worker pool (remos-net/src/pool.rs) is the \
                             sanctioned exemption"
                                .to_string(),
                        ));
                    }
                }
                if scope.unbounded_queue && name == "VecDeque" {
                    out.push(mk(
                        "unbounded-queue",
                        t.line,
                        name,
                        "VecDeque in the serving path: ad-hoc buffering defeats admission \
                         control; route backlog through the bounded FairQueue (queue.rs)"
                            .to_string(),
                    ));
                }
                if scope.blocking
                    && matches!(
                        name,
                        "recv" | "recv_timeout" | "park" | "park_timeout" | "sleep" | "wait"
                            | "wait_timeout"
                    )
                {
                    // Only calls: `.recv(` / `thread::sleep(` — a field or
                    // local named `wait` is left alone.
                    let is_receiver = k >= 1
                        && (toks[k - 1].text == "." || toks[k - 1].text == "::");
                    let is_call = k + 1 < toks.len() && toks[k + 1].text == "(";
                    if is_receiver && is_call {
                        out.push(mk(
                            "blocking-in-handler",
                            t.line,
                            name,
                            format!(
                                "{name}() in the serving path: the server is a cooperative \
                                 loop on simulated time; a blocking call stalls every tenant"
                            ),
                        ));
                    }
                }
                if scope.panic {
                    let is_method = k >= 1 && toks[k - 1].text == ".";
                    let is_macro = k + 1 < toks.len() && toks[k + 1].text == "!";
                    if (name == "unwrap" || name == "expect") && is_method {
                        out.push(mk(
                            "panic-site",
                            t.line,
                            name,
                            format!(
                                ".{name}() in library code: return a typed error instead \
                                 (or allowlist with a justification)"
                            ),
                        ));
                    }
                    if is_macro
                        && matches!(name, "panic" | "unreachable" | "todo" | "unimplemented")
                    {
                        out.push(mk(
                            "panic-site",
                            t.line,
                            name,
                            format!("{name}! in library code: return a typed error instead"),
                        ));
                    }
                }
            }
            TokenKind::Punct if scope.float_eq && (t.text == "==" || t.text == "!=") => {
                let float_operand = |tok: Option<&Token>| -> bool {
                    match tok {
                        Some(t) => {
                            t.kind == TokenKind::Float
                                || (t.kind == TokenKind::Ident
                                    && (t.text == "f32" || t.text == "f64"))
                        }
                        None => false,
                    }
                };
                if float_operand(k.checked_sub(1).and_then(|j| toks.get(j)))
                    || float_operand(toks.get(k + 1))
                {
                    out.push(mk(
                        "float-eq",
                        t.line,
                        &t.text,
                        format!(
                            "float `{}` comparison: bandwidth/latency values need an \
                             epsilon or ordering comparison",
                            t.text
                        ),
                    ));
                }
            }
            _ => {}
        }
    }
    out
}

/// One allowlist entry: `rule path-suffix needle...`.
#[derive(Debug, Clone, PartialEq)]
pub struct AllowEntry {
    /// Rule the waiver applies to.
    pub rule: String,
    /// Path suffix matched against the violation's file.
    pub path: String,
    /// Substring that must occur in the offending source line.
    pub needle: String,
    /// Line of the allowlist file (for stale-entry reporting).
    pub line: u32,
}

/// Parse `audit.allow`. Lines: `<rule> <path-suffix> <needle ...>`;
/// `#` comments and blank lines ignored.
pub fn parse_allowlist(text: &str) -> Vec<AllowEntry> {
    let mut out = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, char::is_whitespace);
        let (Some(rule), Some(path), Some(needle)) = (parts.next(), parts.next(), parts.next())
        else {
            continue;
        };
        out.push(AllowEntry {
            rule: rule.to_string(),
            path: path.to_string(),
            needle: needle.trim().to_string(),
            line: i as u32 + 1,
        });
    }
    out
}

/// Result of filtering violations through the allowlist.
#[derive(Debug, Default)]
pub struct Filtered {
    /// Violations not covered by any allowlist entry.
    pub rejected: Vec<Violation>,
    /// Violations waived, paired with the entry index that covered them.
    pub waived: Vec<(Violation, usize)>,
    /// Indices of allowlist entries that matched nothing (stale).
    pub stale_entries: Vec<usize>,
}

/// Filter `violations` through the allowlist. `source_line` looks up the
/// text of a violation's line so needles can be matched.
pub fn apply_allowlist(
    violations: Vec<Violation>,
    allow: &[AllowEntry],
    mut source_line: impl FnMut(&Path, u32) -> String,
) -> Filtered {
    let mut used = vec![false; allow.len()];
    let mut out = Filtered::default();
    for v in violations {
        let text = source_line(&v.file, v.line);
        let vpath = v.file.to_string_lossy().replace('\\', "/");
        let hit = allow.iter().position(|a| {
            a.rule == v.rule && vpath.ends_with(&a.path) && text.contains(&a.needle)
        });
        match hit {
            Some(i) => {
                used[i] = true;
                out.waived.push((v, i));
            }
            None => out.rejected.push(v),
        }
    }
    out.stale_entries = used
        .iter()
        .enumerate()
        .filter_map(|(i, &u)| if u { None } else { Some(i) })
        .collect();
    out
}

/// Recursively collect `.rs` files under `dir`, sorted for determinism.
pub fn rust_files(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    files_under(dir, |p| p.extension().is_some_and(|e| e == "rs"))
}

/// Recursively collect the files under `dir` that `keep` accepts, sorted
/// for determinism. `target` and dot-directories are not entered.
pub fn files_under(dir: &Path, keep: impl Fn(&Path) -> bool) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&d)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for p in entries {
            if p.is_dir() {
                let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
                if name != "target" && !name.starts_with('.') {
                    stack.push(p);
                }
            } else if keep(&p) {
                out.push(p);
            }
        }
    }
    out.sort();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Token> {
        lex(src)
    }

    fn all_scope() -> RuleScope {
        RuleScope {
            nondet: true,
            float_eq: true,
            panic: true,
            wall_clock: true,
            deprecated_shim: true,
            thread: true,
            unbounded_queue: true,
            blocking: true,
        }
    }

    fn check(src: &str) -> Vec<Violation> {
        check_tokens(Path::new("crates/remos-net/src/x.rs"), &toks(src), all_scope())
    }

    #[test]
    fn lexer_skips_comments_and_strings() {
        let v = check(
            r##"
            // HashMap in a comment
            /* HashMap in a block /* nested HashMap */ */
            fn f() { let s = "HashMap"; let c = 'H'; let r = r#"HashMap"#; }
            "##,
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn hashmap_flagged_outside_tests_only() {
        let v = check("use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32>; }");
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|v| v.rule == "nondet-collection"));
        let v = check("#[cfg(test)]\nmod tests { use std::collections::HashMap; }");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn cfg_test_region_tracks_braces() {
        let src = "
            #[cfg(test)]
            mod tests {
                fn inner() { x.unwrap(); }
            }
            fn outer() { y.unwrap(); }
        ";
        let v = check(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 6);
    }

    #[test]
    fn unwrap_and_macros_flagged() {
        let v = check("fn f() { a.unwrap(); b.expect(\"x\"); panic!(\"y\"); unreachable!(); }");
        assert_eq!(v.len(), 4, "{v:?}");
        assert!(v.iter().all(|v| v.rule == "panic-site"));
    }

    #[test]
    fn unwrap_or_is_not_flagged() {
        let v = check("fn f() { a.unwrap_or(0); b.unwrap_or_else(|| 1); c.unwrap_or_default(); }");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn float_eq_detected_by_literal_operand() {
        let v = check("fn f() { if x == 0.0 { } if 1.5 != y { } }");
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|v| v.rule == "float-eq"));
        // Integer equality untouched; ranges not misread as floats.
        let v = check("fn f() { if x == 0 { } for i in 0..n { } }");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn float_lexing_edge_cases() {
        let t = toks("1.0 2e9 0.5f64 1_000 0xFF 0..3 x.0");
        let kinds: Vec<TokenKind> = t.iter().map(|t| t.kind).collect();
        assert_eq!(kinds[0], TokenKind::Float);
        assert_eq!(kinds[1], TokenKind::Float);
        assert_eq!(kinds[2], TokenKind::Float);
        assert_eq!(kinds[3], TokenKind::Int);
        assert_eq!(kinds[4], TokenKind::Int);
        // 0..3 lexes int, dotdot, int.
        assert_eq!(&t[5].text, "0");
        assert_eq!(&t[6].text, "..");
        assert_eq!(&t[7].text, "3");
    }

    #[test]
    fn wall_clock_detected() {
        let v = check("fn f() { let t = std::time::Instant::now(); }");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "wall-clock");
        let v = check("fn f() { let t = SystemTime::now(); }");
        assert_eq!(v.len(), 1);
        // A local type named Instant without ::now is not flagged.
        let v = check("struct Instant; fn f(x: Instant) {}");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        // A lifetime must not open a char literal that swallows the rest.
        let v = check("fn f<'a>(x: &'a str) { y.unwrap(); }");
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn test_attribute_gates_next_fn() {
        let src = "
            #[test]
            fn a_test() { x.unwrap(); }
            fn lib() { y.unwrap(); }
        ";
        let v = check(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 4);
    }

    #[test]
    fn scope_classification() {
        let s = scope_for(Path::new("crates/remos-net/src/engine.rs"));
        assert!(s.nondet && s.panic && s.float_eq && s.wall_clock);
        let s = scope_for(Path::new("crates/remos-core/src/api.rs"));
        assert!(!s.nondet && s.panic);
        // The positional shims are gone; api.rs is held to the same bar.
        assert!(s.deprecated_shim);
        let s = scope_for(Path::new("crates/remos-core/src/modeler/mod.rs"));
        assert!(s.nondet && s.deprecated_shim);
        let s = scope_for(Path::new("crates/remos-snmp/src/sim.rs"));
        assert!(s.nondet);
        let s = scope_for(Path::new("crates/remos-fx/src/adapt.rs"));
        assert!(!s.nondet && !s.panic && s.float_eq && s.deprecated_shim);
        let s = scope_for(Path::new("crates/cli/src/commands.rs"));
        assert!(!s.float_eq && !s.panic && s.deprecated_shim);
        let s = scope_for(Path::new("crates/cli/src/main.rs"));
        assert!(!s.float_eq && !s.panic && !s.deprecated_shim);
        let s = scope_for(Path::new("crates/bench/src/bin/fig4.rs"));
        assert!(!s.float_eq && !s.panic && !s.deprecated_shim);
        // remos-obs is audited like the other library crates, except its
        // clock module, which is the sanctioned wall-clock source.
        let s = scope_for(Path::new("crates/remos-obs/src/metrics.rs"));
        assert!(s.float_eq && s.wall_clock && !s.panic);
        let s = scope_for(Path::new("crates/remos-obs/src/clock.rs"));
        assert!(s.float_eq && !s.wall_clock);
        // The shared worker pool is the one sanctioned thread source;
        // everywhere else in the library crates — the modeler that fans
        // batch answers out over it included — threads are flagged.
        let s = scope_for(Path::new("crates/remos-net/src/pool.rs"));
        assert!(!s.thread && s.panic);
        let s = scope_for(Path::new("crates/remos-core/src/modeler/mod.rs"));
        assert!(s.thread && s.panic && s.nondet);
        let s = scope_for(Path::new("crates/remos-core/src/api.rs"));
        assert!(s.thread);
        let s = scope_for(Path::new("crates/remos-fx/src/adapt.rs"));
        assert!(s.thread);
        let s = scope_for(Path::new("crates/bench/src/bin/fig4.rs"));
        assert!(!s.thread);
        // The serving crate: library-grade (panic, determinism) plus its
        // own queue and blocking rules; queue.rs is the sanctioned home.
        let s = scope_for(Path::new("crates/remos-serve/src/server.rs"));
        assert!(s.panic && s.nondet && s.unbounded_queue && s.blocking);
        let s = scope_for(Path::new("crates/remos-serve/src/queue.rs"));
        assert!(!s.unbounded_queue && s.blocking && s.panic);
        // Examples are audited for panics and shim calls — they are the
        // code users copy — but not for solver-path determinism rules.
        let s = scope_for(Path::new("examples/quickstart.rs"));
        assert!(s.panic && s.deprecated_shim);
        assert!(!s.nondet && !s.float_eq && !s.unbounded_queue && !s.blocking);
    }

    #[test]
    fn vecdeque_flagged_outside_sanctioned_queue() {
        let v = check("use std::collections::VecDeque;\nfn f() { let q: VecDeque<u32>; }");
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|v| v.rule == "unbounded-queue"));
        // The sanctioned queue module's scope turns the rule off.
        let mut s = all_scope();
        s.unbounded_queue = false;
        let v = check_tokens(
            Path::new("crates/remos-serve/src/queue.rs"),
            &toks("use std::collections::VecDeque;"),
            s,
        );
        assert!(v.iter().all(|v| v.rule != "unbounded-queue"), "{v:?}");
    }

    #[test]
    fn blocking_calls_flagged_only_as_calls() {
        let v = check("fn f() { rx.recv(); std::thread::sleep(d); cv.wait(guard); }");
        let blocking: Vec<_> =
            v.iter().filter(|v| v.rule == "blocking-in-handler").collect();
        assert_eq!(blocking.len(), 3, "{v:?}");
        // Fields and locals named like blocking APIs are left alone.
        let v = check("fn f(wait: u64) -> u64 { let sleep = wait + 1; sleep }");
        assert!(v.iter().all(|v| v.rule != "blocking-in-handler"), "{v:?}");
        // Test code is exempt, as for every rule.
        let v = check("#[cfg(test)] mod t { fn f() { rx.recv(); } }");
        assert!(v.iter().all(|v| v.rule != "blocking-in-handler"), "{v:?}");
    }

    #[test]
    fn thread_spawn_flagged_outside_pool() {
        let v = check("fn f() { std::thread::spawn(|| {}); }");
        assert!(v.iter().any(|v| v.rule == "thread-spawn"), "{v:?}");
        let v = check("fn f() { thread::scope(|s| { s.spawn(|| {}); }); }");
        assert!(v.iter().any(|v| v.rule == "thread-spawn"), "{v:?}");
        let v = check("fn f() -> usize { thread::available_parallelism().map(|n| n.get()).unwrap_or(1) }");
        assert!(v.iter().any(|v| v.rule == "thread-spawn"), "{v:?}");
        // Bare `thread` idents (locals, fields) are not std::thread.
        let v = check("fn f(thread: usize) -> usize { thread + 1 }");
        assert!(v.iter().all(|v| v.rule != "thread-spawn"), "{v:?}");
        // Test code is exempt, as for every rule.
        let v = check("#[cfg(test)] mod t { fn f() { std::thread::spawn(|| {}); } }");
        assert!(v.iter().all(|v| v.rule != "thread-spawn"), "{v:?}");
    }

    #[test]
    fn deprecated_shim_calls_flagged() {
        let v = check("fn f() { remos.get_graph(&refs, tf); r.flow_info(&req, tf); }");
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|v| v.rule == "deprecated-shim"));
        // Definitions and path references are not calls.
        let v = check("pub fn get_graph(&mut self) {} fn g() { Modeler::flow_info; }");
        assert!(v.is_empty(), "{v:?}");
        // Migrated call sites pass.
        let v = check("fn f() { remos.run(Query::graph([\"a\"])).unwrap(); }");
        assert!(v.iter().all(|v| v.rule != "deprecated-shim"), "{v:?}");
    }

    #[test]
    fn allowlist_waives_and_reports_stale() {
        let allow = parse_allowlist(
            "# comment\n\
             panic-site src/x.rs SimTime overflow\n\
             panic-site src/never.rs no such line\n",
        );
        assert_eq!(allow.len(), 2);
        let v = vec![Violation {
            rule: "panic-site",
            file: PathBuf::from("crates/remos-net/src/x.rs"),
            line: 3,
            message: String::new(),
            token: "expect".into(),
        }];
        let f = apply_allowlist(v, &allow, |_, _| ".expect(\"SimTime overflow\")".to_string());
        assert_eq!(f.waived.len(), 1);
        assert!(f.rejected.is_empty());
        assert_eq!(f.stale_entries, vec![1]);
    }

    #[test]
    fn needle_must_match_line() {
        let allow = parse_allowlist("panic-site src/x.rs some other text\n");
        let v = vec![Violation {
            rule: "panic-site",
            file: PathBuf::from("crates/remos-net/src/x.rs"),
            line: 3,
            message: String::new(),
            token: "unwrap".into(),
        }];
        let f = apply_allowlist(v, &allow, |_, _| "x.unwrap()".to_string());
        assert_eq!(f.rejected.len(), 1);
        assert!(f.waived.is_empty());
    }
}
