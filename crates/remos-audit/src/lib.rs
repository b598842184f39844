//! # remos-audit — determinism & panic-freedom lint pass
//!
//! The paper's results hinge on the modeler's max-min fair sharing being
//! exactly reproducible (§4.2: "Remos will assume the bottleneck link
//! bandwidth will be shared equally by all flows"). Nondeterministic
//! iteration order, float equality on measured quantities, stray panics
//! and wall-clock reads can all silently break that contract. The
//! per-file rules are clippy lints (each crate's `clippy.toml` and
//! crate-root `deny` attributes; see `docs/AUDIT.md`). This crate keeps
//! what clippy cannot express: the `float-eq` token rule (clippy's
//! `float_cmp` misses `x != 0.0`) and the cross-file passes over a
//! workspace call graph — `lock-order-cycle`, `lock-across-blocking`
//! ([`lockorder`]), `determinism-taint` ([`taint`]) and
//! `hot-path-unwrap` ([`hygiene`]).
//!
//! It deliberately has **zero dependencies**: a hand-written Rust lexer
//! (comments, strings, raw strings, char literals vs lifetimes, nested
//! block comments) feeds every pass, in the style of rustc's own `tidy`
//! tool, so the audit builds with a bare `rustc` on an air-gapped
//! machine.
//!
//! `float-eq` flags `==` / `!=` with a float literal (or `f32`/`f64`
//! path) operand in the library sources of the audited crates (see
//! [`float_eq_scoped`]). Violations inside `#[cfg(test)]` modules, doc
//! comments and strings are not reported. Justified sites are recorded
//! in the checked-in `audit.allow` file (rule, file suffix, and a
//! substring of the offending line); stale allowlist entries are
//! reported so the file cannot rot.

pub mod driver;
pub mod hygiene;
pub mod lockorder;
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

/// Does `float-eq` apply to this workspace-relative path
/// (`crates/remos-net/src/engine.rs`)? Library sources of the audited
/// crates only; binaries may compare floats as they please.
pub fn float_eq_scoped(rel: &Path) -> bool {
    let p = rel.to_string_lossy().replace('\\', "/");
    let lib_src = p.contains("/src/") && !p.contains("/src/bin/") && !p.ends_with("/main.rs");
    lib_src
        && ["core", "net", "snmp", "serve", "fx", "apps", "obs"]
            .iter()
            .any(|c| p.starts_with(&format!("crates/remos-{c}/")))
}

/// Run `float-eq` over one lexed file.
pub fn check_tokens(file: &Path, toks: &[Token]) -> Vec<Violation> {
    let float_operand = |t: Option<&Token>| {
        t.is_some_and(|t| {
            t.kind == TokenKind::Float
                || (t.kind == TokenKind::Ident && (t.text == "f32" || t.text == "f64"))
        })
    };
    let mut out = Vec::new();
    for (k, t) in toks.iter().enumerate() {
        if t.in_test || t.kind != TokenKind::Punct || (t.text != "==" && t.text != "!=") {
            continue;
        }
        if float_operand(k.checked_sub(1).and_then(|j| toks.get(j))) || float_operand(toks.get(k + 1))
        {
            out.push(Violation {
                rule: "float-eq",
                file: file.to_path_buf(),
                line: t.line,
                message: format!(
                    "float `{}` comparison: bandwidth/latency values need an \
                     epsilon or ordering comparison",
                    t.text
                ),
                token: t.text.clone(),
            });
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
/// `target` and dot-directories are not entered.
pub fn rust_files(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
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
            } else if p.extension().is_some_and(|e| e == "rs") {
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

    fn check(src: &str) -> Vec<Violation> {
        check_tokens(Path::new("crates/remos-net/src/x.rs"), &lex(src))
    }

    #[test]
    fn lexer_skips_comments_and_strings() {
        let v = check(
            r##"
            // x == 1.0 in a comment
            /* a == 2.0 in a block /* nested b != 0.5 */ */
            fn f() { let s = "x == 1.0"; let c = '='; let r = r#"y != 0.0"#; }
            "##,
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn cfg_test_region_tracks_braces() {
        let src = "
            #[cfg(test)]
            mod tests {
                fn inner() { x == 1.0; }
            }
            fn outer() { y == 1.0; }
        ";
        let v = check(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 6);
    }

    #[test]
    fn float_eq_detected_by_literal_operand() {
        // `x != 0.0` is the shape clippy's `float_cmp` misses, and the
        // reason this rule stays a token rule.
        let v = check("fn f() { if x == 0.0 { } if 1.5 != y { } if x != 0.0 { } }");
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v.iter().all(|v| v.rule == "float-eq"));
        // Integer equality untouched; ranges not misread as floats.
        let v = check("fn f() { if x == 0 { } for i in 0..n { } }");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn float_lexing_edge_cases() {
        let t = lex("1.0 2e9 0.5f64 1_000 0xFF 0..3 x.0");
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
    fn lifetimes_are_not_char_literals() {
        // A lifetime must not open a char literal that swallows the rest.
        let v = check("fn f<'a>(x: &'a str) { y == 1.0; }");
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn test_attribute_gates_next_fn() {
        let src = "
            #[test]
            fn a_test() { x == 1.0; }
            fn lib() { y == 1.0; }
        ";
        let v = check(src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 4);
    }

    #[test]
    fn scope_classification() {
        for p in [
            "crates/remos-net/src/engine.rs",
            "crates/remos-core/src/modeler/mod.rs",
            "crates/remos-snmp/src/sim.rs",
            "crates/remos-serve/src/queue.rs",
            "crates/remos-fx/src/adapt.rs",
            "crates/remos-apps/src/fft.rs",
            "crates/remos-obs/src/clock.rs",
        ] {
            assert!(float_eq_scoped(Path::new(p)), "{p}");
        }
        for p in [
            "crates/cli/src/commands.rs",
            "crates/cli/src/main.rs",
            "crates/bench/src/bin/fig4.rs",
            "crates/remos-net/tests/stepwise.rs",
            "examples/quickstart.rs",
        ] {
            assert!(!float_eq_scoped(Path::new(p)), "{p}");
        }
    }

    #[test]
    fn allowlist_waives_and_reports_stale() {
        let allow = parse_allowlist(
            "# comment\n\
             float-eq src/x.rs points[0].0 != 0.0\n\
             float-eq src/never.rs no such line\n",
        );
        assert_eq!(allow.len(), 2);
        let v = vec![Violation {
            rule: "float-eq",
            file: PathBuf::from("crates/remos-net/src/x.rs"),
            line: 3,
            message: String::new(),
            token: "!=".into(),
        }];
        let f = apply_allowlist(v, &allow, |_, _| "if points[0].0 != 0.0 {".to_string());
        assert_eq!(f.waived.len(), 1);
        assert!(f.rejected.is_empty());
        assert_eq!(f.stale_entries, vec![1]);
    }

    #[test]
    fn needle_must_match_line() {
        let allow = parse_allowlist("float-eq src/x.rs some other text\n");
        let v = vec![Violation {
            rule: "float-eq",
            file: PathBuf::from("crates/remos-net/src/x.rs"),
            line: 3,
            message: String::new(),
            token: "==".into(),
        }];
        let f = apply_allowlist(v, &allow, |_, _| "x == 1.0".to_string());
        assert_eq!(f.rejected.len(), 1);
        assert!(f.waived.is_empty());
    }
}
