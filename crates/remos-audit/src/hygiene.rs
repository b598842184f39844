//! Error-hygiene pass: `hot-path-unwrap`, an `.unwrap()` /
//! `.expect(…)` in any function reachable (over the resolved call graph)
//! from the public serving and query entry points
//! (`Remos::run`/`run_batch`/`run_within`,
//! `Server::submit`/`serve_next`/`drain`). Clippy's `unwrap_used` /
//! `expect_used` bar these in the core crates unconditionally; this rule
//! extends the net to *any* crate a request can actually traverse.
//! (A dropped `Result` is clippy's `let_underscore_must_use`.)

use crate::model::Workspace;
use crate::parse::calls_in;
use crate::{TokenKind, Violation};
use std::collections::BTreeSet;

/// (impl type, method) pairs a request enters the workspace through.
const ENTRY_POINTS: &[(&str, &str)] = &[
    ("Remos", "run"),
    ("Remos", "run_batch"),
    ("Remos", "run_within"),
    ("Server", "submit"),
    ("Server", "serve_next"),
    ("Server", "drain"),
];

/// BFS from the entry points, then flag unwrap/expect in reached code.
pub fn analyze(ws: &Workspace) -> Vec<Violation> {
    let n = ws.fns.len();
    let mut reached = vec![false; n];
    let mut queue: Vec<usize> = (0..n)
        .filter(|&i| {
            let f = &ws.fns[i].info;
            !f.in_test
                && ENTRY_POINTS.iter().any(|(ty, m)| {
                    f.impl_type.as_deref() == Some(*ty) && f.name == *m
                })
        })
        .collect();
    for &i in &queue {
        reached[i] = true;
    }
    while let Some(i) = queue.pop() {
        for c in calls_in(ws.toks(i), ws.fns[i].info.body) {
            for g in ws.resolve(&c, &ws.fns[i].info) {
                if !reached[g] && !ws.fns[g].info.in_test {
                    reached[g] = true;
                    queue.push(g);
                }
            }
        }
    }
    let mut out = Vec::new();
    let mut seen: BTreeSet<(std::path::PathBuf, u32)> = BTreeSet::new();
    for (i, &hit) in reached.iter().enumerate() {
        if !hit {
            continue;
        }
        let info = &ws.fns[i].info;
        let toks = ws.toks(i);
        let (start, end) = info.body;
        for k in start..end {
            let t = &toks[k];
            if t.kind != TokenKind::Ident || t.in_test {
                continue;
            }
            let is_unwrap = t.text == "unwrap" || t.text == "expect";
            if !is_unwrap
                || k == 0
                || toks[k - 1].text != "."
                || toks.get(k + 1).map(|x| x.text.as_str()) != Some("(")
            {
                continue;
            }
            if seen.insert((info.file.clone(), t.line)) {
                out.push(Violation {
                    rule: "hot-path-unwrap",
                    file: info.file.clone(),
                    line: t.line,
                    message: format!(
                        "`.{}(…)` in `{}` is reachable from a serving/query entry point; \
                         a panic here takes down the whole front end — return a typed \
                         RemosError instead",
                        t.text,
                        info.qname()
                    ),
                    token: t.text.clone(),
                });
            }
        }
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
    fn unwrap_reachable_from_entry_point_is_flagged() {
        let w = ws(&[
            (
                "crates/remos-core/src/a.rs",
                "impl Remos {
                    pub fn run(&mut self, q: &Query) -> u32 { helper(q) }
                }
                fn helper(q: &Query) -> u32 { q.first().unwrap() }",
            ),
            (
                "crates/remos-fx/src/b.rs",
                "fn unreached() -> u32 { none().unwrap() }",
            ),
        ]);
        let got = analyze(&w);
        assert_eq!(got.len(), 1, "got: {got:?}");
        assert_eq!(got[0].rule, "hot-path-unwrap");
        assert!(got[0].file.ends_with("a.rs"));
    }

    #[test]
    fn test_code_is_exempt() {
        let w = ws(&[(
            "crates/remos-core/src/a.rs",
            "impl Remos { pub fn run(&self) { helper() } }
             fn helper() {}
             #[cfg(test)]
             mod tests {
                 fn t() { helper(); x.unwrap(); }
             }",
        )]);
        assert!(analyze(&w).is_empty());
    }
}
