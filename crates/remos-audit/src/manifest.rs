//! `external-dep`: every dependency resolves inside the checkout.
//!
//! The workspace builds with no network and an empty cargo registry.
//! That holds only while every `Cargo.toml` names nothing but path
//! dependencies, so this rule reads the manifests — line by line, like
//! every other rule here reads tokens — and flags:
//!
//! * an entry of `[dependencies]`, `[dev-dependencies]`,
//!   `[build-dependencies]` or `[target.*.dependencies]` that is neither
//!   `name.workspace = true` / `{ workspace = true }` nor `{ path = … }`;
//! * an entry of `[workspace.dependencies]` without `path = …`.
//!
//! The table spelling (`[dependencies.name]` followed by its keys) is
//! judged the same way, on the keys up to the next header.

use crate::Violation;
use std::path::Path;

const TABLES: [&str; 3] = ["dependencies", "dev-dependencies", "build-dependencies"];

/// One dependency declaration: where it is, its name, everything to the
/// right of its `=` (or the body of its table), and whether it sits in
/// `[workspace.dependencies]`.
struct Entry {
    line: u32,
    name: String,
    spec: String,
    in_workspace_table: bool,
}

enum Section {
    Other,
    /// Inside a dependency table; each `key = value` line is an entry.
    Deps { in_workspace_table: bool },
    /// Inside `[dependencies.name]`; each line extends the last entry.
    OneDep,
}

/// What the header `[name]` opens, and the entry it declares if it is a
/// `[dependencies.name]` table.
fn open(header: &str, line: u32) -> (Section, Option<Entry>) {
    let in_workspace_table = header.starts_with("workspace.");
    for table in TABLES {
        // `[dependencies]`, `[workspace.dependencies]`, `[target.X.dependencies]`.
        if header == table || header.ends_with(&format!(".{table}")) {
            return (Section::Deps { in_workspace_table }, None);
        }
        // `[dependencies.name]`, `[target.X.dependencies.name]`.
        let dotted = format!("{table}.");
        let name = header
            .strip_prefix(&dotted)
            .or_else(|| header.split_once(&format!(".{dotted}")).map(|(_, name)| name));
        if let Some(name) = name {
            let entry =
                Entry { line, name: name.to_string(), spec: String::new(), in_workspace_table };
            return (Section::OneDep, Some(entry));
        }
    }
    (Section::Other, None)
}

/// Check one manifest (`file` is its workspace-relative path).
pub fn check(file: &Path, text: &str) -> Vec<Violation> {
    let mut entries: Vec<Entry> = Vec::new();
    let mut section = Section::Other;
    for (i, raw) in text.lines().enumerate() {
        let line_no = i as u32 + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if let Some(header) = line.strip_prefix('[') {
            let (opened, entry) = open(header.trim_end_matches(']').trim(), line_no);
            section = opened;
            entries.extend(entry);
            continue;
        }
        match (&section, line.split_once('=')) {
            (Section::Deps { in_workspace_table }, Some((key, value))) => {
                // `name.key = v` reads as `name = { key = v }`.
                let (name, spec) = match key.trim().split_once('.') {
                    Some((name, key)) => (name, format!("{key} = {value}")),
                    None => (key.trim(), value.to_string()),
                };
                entries.push(Entry {
                    line: line_no,
                    name: name.to_string(),
                    spec,
                    in_workspace_table: *in_workspace_table,
                });
            }
            (Section::OneDep, Some(_)) => {
                if let Some(entry) = entries.last_mut() {
                    entry.spec.push_str(line);
                    entry.spec.push(',');
                }
            }
            _ => {}
        }
    }

    // Resolves inside the checkout: names a path, or (outside the
    // workspace table itself) inherits a workspace entry, which is
    // checked where it is declared.
    let local = |e: &Entry| {
        e.spec.split(['{', ',', '}']).filter_map(|part| part.split_once('=')).any(|(key, value)| {
            match key.trim() {
                "path" => true,
                "workspace" => !e.in_workspace_table && value.trim() == "true",
                _ => false,
            }
        })
    };
    entries
        .into_iter()
        .filter(|e| !local(e))
        .map(|e| Violation {
            rule: "external-dep",
            file: file.to_path_buf(),
            line: e.line,
            message: format!(
                "dependency `{}` does not resolve inside the checkout; the workspace builds \
                 with an empty registry, so depend on a `path = …` crate (or inherit one with \
                 `workspace = true`)",
                e.name
            ),
            token: e.name,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flagged(text: &str) -> Vec<(u32, String)> {
        check(Path::new("Cargo.toml"), text).into_iter().map(|v| (v.line, v.token)).collect()
    }

    #[test]
    fn path_and_inherited_entries_are_clean() {
        let text = "\
[package]
name = \"x\"
version = \"0.1.0\"

[workspace.dependencies]
remos-net = { path = \"crates/remos-net\" }

[dependencies]
remos-net.workspace = true
remos-obs = { workspace = true }
local = { path = \"../local\", default-features = false }
dotted.path = \"../dotted\"

[dev-dependencies.remos-prop]
workspace = true

[target.'cfg(unix)'.dependencies]
other = { path = \"../other\" } # rand = \"0.8\"

[profile.release]
debug = \"line-tables-only\"
";
        assert_eq!(flagged(text), []);
    }

    #[test]
    fn registry_git_and_version_entries_are_flagged() {
        let text = "\
[workspace.dependencies]
rand = \"0.8\"
remos-net = { workspace = true }

[dependencies]
regex = { version = \"1\", features = [\"std\"] }
tool = { git = \"https://example.org/tool\" }
bytes.version = \"1\"

[build-dependencies]
cc = \"1\"

[target.x86_64-unknown-linux-gnu.dev-dependencies]
tempfile = \"3\"

[dependencies.libc]
version = \"1\"

[package.metadata.docs]
anything = \"ignored\"
";
        let names: Vec<String> = flagged(text).into_iter().map(|(_, n)| n).collect();
        assert_eq!(
            names,
            ["rand", "remos-net", "regex", "tool", "bytes", "cc", "tempfile", "libc"]
        );
        assert_eq!(flagged(text)[0].0, 2);
        assert_eq!(flagged(text)[7].0, 16, "a table entry is reported at its header");
    }
}
