//! Audit driver: run the `float-eq` token rule over the library crates
//! and the cross-file lock-order / determinism-taint / error-hygiene
//! analyses.
//!
//! ```text
//! cargo run -p remos-audit                         # audit from the workspace root
//! cargo run -p remos-audit -- <root>               # audit an explicit checkout
//! cargo run -p remos-audit -- --format sarif --out remos-audit.sarif
//! cargo run -p remos-audit -- --fix-allowlist      # drop stale audit.allow entries
//! ```
//!
//! Exit status is non-zero when any violation is not covered by the
//! checked-in `audit.allow` file, or when the allowlist contains stale
//! entries (so waivers cannot outlive the code they excuse).
//! `--fix-allowlist` rewrites the allowlist minus the stale entries and
//! exits zero if nothing else is wrong.

use remos_audit::driver::{fix_allowlist, run};
use remos_audit::report;
use std::path::PathBuf;
use std::process::ExitCode;

enum Format {
    Text,
    Json,
    Sarif,
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut format = Format::Text;
    let mut out_path: Option<PathBuf> = None;
    let mut fix = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--format" => match args.next().as_deref() {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                Some("sarif") => format = Format::Sarif,
                other => {
                    eprintln!(
                        "remos-audit: --format expects text|json|sarif, got {:?}",
                        other.unwrap_or("<none>")
                    );
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match args.next() {
                Some(p) => out_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("remos-audit: --out expects a path");
                    return ExitCode::FAILURE;
                }
            },
            "--fix-allowlist" => fix = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: remos-audit [ROOT] [--format text|json|sarif] [--out PATH] [--fix-allowlist]"
                );
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                eprintln!("remos-audit: unknown flag {flag}");
                return ExitCode::FAILURE;
            }
            path => root = Some(PathBuf::from(path)),
        }
    }
    let root = root.unwrap_or_else(find_workspace_root);

    let result = match run(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("remos-audit: {e}");
            return ExitCode::FAILURE;
        }
    };

    let stale: Vec<_> = result.stale_entries.iter().map(|&i| &result.allow[i]).collect();
    let rendered = match format {
        Format::Json => Some(report::to_json(&result.rejected, &stale)),
        Format::Sarif => Some(report::to_sarif(&result.rejected)),
        Format::Text => None,
    };
    match (&rendered, &out_path) {
        (Some(text), Some(path)) => {
            if let Err(e) = std::fs::write(path, text) {
                eprintln!("remos-audit: cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        (Some(text), None) => print!("{text}"),
        (None, _) => {
            for v in &result.rejected {
                println!("{v}");
            }
            for idx in &result.stale_entries {
                let a = &result.allow[*idx];
                println!(
                    "{}:{}: [stale-allow] entry `{} {} {}` matched no violation; remove it",
                    result.allow_path.display(),
                    a.line,
                    a.rule,
                    a.path,
                    a.needle
                );
            }
        }
    }

    let mut stale_count = result.stale_entries.len();
    if fix && stale_count > 0 {
        match fix_allowlist(&result) {
            Ok(n) => {
                eprintln!(
                    "remos-audit: removed {n} stale entr{} from {}",
                    if n == 1 { "y" } else { "ies" },
                    result.allow_path.display()
                );
                stale_count = 0;
            }
            Err(e) => {
                eprintln!(
                    "remos-audit: cannot rewrite {}: {e}",
                    result.allow_path.display()
                );
                return ExitCode::FAILURE;
            }
        }
    }

    eprintln!(
        "remos-audit: {} files scanned, {} violations ({} waived by {}), {} stale allowlist entries",
        result.scanned,
        result.rejected.len(),
        result.waived.len(),
        result.allow_path.file_name().and_then(|n| n.to_str()).unwrap_or("audit.allow"),
        stale_count
    );
    if result.rejected.is_empty() && stale_count == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Walk up from the current directory to the first `Cargo.toml` that
/// declares `[workspace]`; fall back to `.`.
fn find_workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}
