//! Reusable audit driver: everything `main.rs` does, callable from
//! tests (and from the fixture suite, which points it at a miniature
//! workspace tree).

use crate::model::Workspace;
use crate::report;
use crate::{
    apply_allowlist, check_tokens, float_eq_scoped, hygiene, lex, lockorder, parse_allowlist,
    rust_files, taint, AllowEntry, Filtered, Violation,
};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Everything one audit run produced.
pub struct RunResult {
    /// Files fed to the `float-eq` token rule.
    pub scanned: usize,
    /// Violations not covered by the allowlist.
    pub rejected: Vec<Violation>,
    /// Violations waived, with the allowlist entry index that matched.
    pub waived: Vec<(Violation, usize)>,
    /// Indices of allowlist entries that matched nothing.
    pub stale_entries: Vec<usize>,
    /// Parsed allowlist (for printing stale entries).
    pub allow: Vec<AllowEntry>,
    /// Where the allowlist lives (`<root>/audit.allow`).
    pub allow_path: PathBuf,
}

/// Should this workspace-relative path be part of the cross-file
/// analysis? Library sources only: binaries may do as they please, and
/// fixture/test trees must never leak into the real workspace model.
fn analyzed(rel: &str) -> bool {
    rel.contains("/src/")
        && !rel.contains("/src/bin/")
        && !rel.ends_with("/main.rs")
        && !rel.contains("/tests/")
        && !rel.contains("/fixtures/")
}

/// Audit the workspace rooted at `root` (must contain `crates/`).
pub fn run(root: &Path) -> Result<RunResult, String> {
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(format!("no `crates/` directory under {}", root.display()));
    }
    let allow_path = root.join("audit.allow");
    let allow = match std::fs::read_to_string(&allow_path) {
        Ok(text) => parse_allowlist(&text),
        Err(_) => Vec::new(),
    };

    let files =
        rust_files(&crates_dir).map_err(|e| format!("cannot walk {}: {e}", crates_dir.display()))?;

    let mut violations = Vec::new();
    let mut sources: BTreeMap<PathBuf, Vec<String>> = BTreeMap::new();
    let mut ws_sources: Vec<(PathBuf, String)> = Vec::new();
    let mut scanned = 0usize;
    for path in &files {
        let rel = path.strip_prefix(root).unwrap_or(path).to_path_buf();
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        let token_scoped = float_eq_scoped(&rel);
        let in_analysis = analyzed(&rel_str);
        if !token_scoped && !in_analysis {
            continue;
        }
        let src = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        if token_scoped {
            scanned += 1;
            let toks = lex(&src);
            violations.extend(check_tokens(&rel, &toks));
        }
        sources.insert(rel.clone(), src.lines().map(str::to_string).collect());
        if in_analysis {
            ws_sources.push((rel, src));
        }
    }

    // Cross-file analyses over the workspace model.
    ws_sources.sort_by(|a, b| a.0.cmp(&b.0));
    let ws = Workspace::from_sources(ws_sources);
    violations.extend(lockorder::analyze(&ws).violations);
    violations.extend(taint::analyze(&ws));
    violations.extend(hygiene::analyze(&ws));
    report::sort_violations(&mut violations);

    let Filtered { rejected, waived, stale_entries } =
        apply_allowlist(violations, &allow, |file, line| {
            sources
                .get(file)
                .and_then(|lines| lines.get(line as usize - 1))
                .cloned()
                .unwrap_or_default()
        });
    Ok(RunResult { scanned, rejected, waived, stale_entries, allow, allow_path })
}

/// Rewrite the allowlist file minus its stale entries (by line number).
/// Comments and blank lines survive. Returns the number of entries
/// removed; `Ok(0)` leaves the file untouched.
pub fn fix_allowlist(result: &RunResult) -> std::io::Result<usize> {
    if result.stale_entries.is_empty() {
        return Ok(0);
    }
    let text = std::fs::read_to_string(&result.allow_path)?;
    let dead: Vec<u32> = result.stale_entries.iter().map(|&i| result.allow[i].line).collect();
    let kept: Vec<&str> = text
        .lines()
        .enumerate()
        .filter(|(n, _)| !dead.contains(&(*n as u32 + 1)))
        .map(|(_, l)| l)
        .collect();
    let mut out = kept.join("\n");
    if !out.is_empty() {
        out.push('\n');
    }
    std::fs::write(&result.allow_path, out)?;
    Ok(dead.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analysis_path_filter() {
        assert!(analyzed("crates/remos-serve/src/queue.rs"));
        assert!(analyzed("crates/remos-core/src/modeler/mod.rs"));
        assert!(!analyzed("crates/remos-serve/src/bin/tool.rs"));
        assert!(!analyzed("crates/cli/src/main.rs"));
        assert!(!analyzed("crates/remos-audit/tests/fixtures/ws/crates/x/src/a.rs"));
        assert!(!analyzed("examples/quickstart.rs"));
    }
}
