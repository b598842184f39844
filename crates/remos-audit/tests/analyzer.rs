//! Fixture-based golden tests for the cross-file analyzer, plus a
//! real-workspace cleanliness gate.
//!
//! The fixture tree under `tests/fixtures/ws/` is a miniature workspace
//! (its files are analyzed, never compiled) seeding at least one
//! violation per rule — `determinism-taint` seeds two, a cross-function
//! flow and the coordinator's epoch-vector digest — next to the clean
//! patterns the rules must NOT flag. The golden file
//! `tests/fixtures/expected.json` is the byte-exact JSON report the
//! driver must produce for it.

use remos_audit::driver::{fix_allowlist, run, RunResult};
use remos_audit::report::{to_json, to_sarif};
use std::path::{Path, PathBuf};

/// The checkout root: two levels above this package's manifest.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn fixture_result() -> RunResult {
    run(&repo_root().join("crates/remos-audit/tests/fixtures/ws")).expect("fixture run")
}

fn find<'a>(r: &'a RunResult, rule: &str) -> Vec<&'a remos_audit::Violation> {
    r.rejected.iter().filter(|v| v.rule == rule).collect()
}

#[test]
fn golden_json_report() {
    let r = fixture_result();
    let stale: Vec<_> = r.stale_entries.iter().map(|&i| &r.allow[i]).collect();
    let got = to_json(&r.rejected, &stale);
    let golden_path = repo_root().join("crates/remos-audit/tests/fixtures/expected.json");
    let want = std::fs::read_to_string(&golden_path).expect("read golden file");
    assert_eq!(
        got, want,
        "analyzer JSON diverged from {}; if the change is intended, \
         regenerate with `cargo run -p remos-audit -- <fixture-ws> --format json \
         --out <golden>`",
        golden_path.display()
    );
}

#[test]
fn lock_order_cycle_fires_with_location() {
    let r = fixture_result();
    let v = find(&r, "lock-order-cycle");
    assert_eq!(v.len(), 1, "exactly one seeded cycle: {:?}", r.rejected);
    assert_eq!(v[0].file, Path::new("crates/remos-serve/src/lock_cycle.rs"));
    assert_eq!(v[0].line, 14, "witness is the nested `b` acquisition in `forward`");
    assert!(v[0].message.contains("Pair.a"));
    assert!(v[0].message.contains("Pair.b"));
    assert!(v[0].message.contains("Pair::backward"));
}

#[test]
fn lock_across_collector_call_fires_with_location() {
    let r = fixture_result();
    let v = find(&r, "lock-across-blocking");
    assert_eq!(v.len(), 1, "exactly one seeded hazard: {:?}", r.rejected);
    assert_eq!(v[0].file, Path::new("crates/remos-core/src/lock_poll.rs"));
    assert_eq!(v[0].line, 13, "the `col.poll()` call under the guard");
    assert!(v[0].message.contains("SnapshotCache.state"));
}

#[test]
fn determinism_taint_into_digest_fires_with_location() {
    let r = fixture_result();
    let v = find(&r, "determinism-taint");
    assert_eq!(v.len(), 2, "exactly two seeded taint flows: {:?}", r.rejected);
    let direct = v
        .iter()
        .find(|v| v.file == Path::new("crates/remos-core/src/taint_digest.rs"))
        .expect("cross-function flow");
    assert_eq!(direct.line, 9, "the `mix(&vals)` call forwarding hash-ordered values");
    // The flow is cross-function: `mix` itself is not a digest — only
    // its parameter summary reaches one.
    assert_eq!(direct.token, "mix");
}

/// The sharded coordinator's epoch-vector digest is a taint sink by the
/// `digest` name rule: a hash-ordered epoch vector feeding it is a
/// finding, while the scoped pool's index-ordered fan-out over a `Vec`
/// of shards is sanctioned — same sink, no finding.
#[test]
fn epoch_vector_digest_is_a_sink_and_pool_fan_out_is_sanctioned() {
    let r = fixture_result();
    let v = find(&r, "determinism-taint");
    let coord: Vec<_> = v
        .iter()
        .filter(|v| v.file == Path::new("crates/remos-core/src/coordinator.rs"))
        .collect();
    assert_eq!(coord.len(), 1, "exactly the hashed fan-out: {:?}", r.rejected);
    assert_eq!(coord[0].token, "epoch_digest");
    assert!(
        coord[0].message.contains("`hashed_fan_out`"),
        "finding must be in the HashMap path, not the pool fan-out: {}",
        coord[0].message
    );
    // `sanctioned_fan_out` (pool::run_indexed over a Vec) stays
    // clean — checked implicitly by the exact count above and the
    // byte-exact golden.
}

#[test]
fn dropped_result_fires_with_location() {
    let r = fixture_result();
    let v = find(&r, "dropped-result");
    assert_eq!(v.len(), 1, "exactly one seeded drop: {:?}", r.rejected);
    assert_eq!(v[0].file, Path::new("crates/remos-net/src/dropped.rs"));
    assert_eq!(v[0].line, 17, "the `let _ = p.emit();` statement");
    assert_eq!(v[0].token, "emit");
}

#[test]
fn hot_path_unwrap_fires_with_location() {
    let r = fixture_result();
    let v = find(&r, "hot-path-unwrap");
    assert_eq!(v.len(), 1, "exactly one seeded hot-path unwrap: {:?}", r.rejected);
    assert_eq!(v[0].file, Path::new("crates/remos-core/src/hot.rs"));
    assert_eq!(v[0].line, 18, "the `.unwrap()` in the helper reached from Remos::run");
}

#[test]
fn external_dep_fires_on_the_registry_entry_only() {
    let r = fixture_result();
    let v = find(&r, "external-dep");
    assert_eq!(v.len(), 1, "exactly one seeded registry dependency: {:?}", r.rejected);
    assert_eq!(v[0].file, Path::new("crates/remos-net/Cargo.toml"));
    assert_eq!(v[0].line, 11, "`rand = \"0.8\"`, not the path or workspace entries above it");
    assert_eq!(v[0].token, "rand");
}

#[test]
fn sarif_report_covers_every_fixture_rule() {
    let r = fixture_result();
    let sarif = to_sarif(&r.rejected);
    for rule in [
        "lock-order-cycle",
        "lock-across-blocking",
        "determinism-taint",
        "dropped-result",
        "hot-path-unwrap",
        "panic-site",
        "external-dep",
    ] {
        assert!(sarif.contains(&format!("\"id\": \"{rule}\"")), "missing rule {rule}");
        assert!(sarif.contains(&format!("\"ruleId\": \"{rule}\"")), "missing result {rule}");
    }
    assert!(sarif.contains("\"version\": \"2.1.0\""));
    assert!(sarif.contains("\"startLine\": 14"));
}

/// The real workspace must be clean: zero unwaived violations and zero
/// stale allowlist entries. This is the same gate CI's audit job
/// enforces, so a PR cannot land code the analyzer rejects.
#[test]
fn real_workspace_is_clean() {
    let r = run(&repo_root()).expect("workspace run");
    assert!(
        r.rejected.is_empty(),
        "unwaived violations in the real workspace:\n{}",
        r.rejected.iter().map(|v| format!("  {v}\n")).collect::<String>()
    );
    assert!(
        r.stale_entries.is_empty(),
        "stale audit.allow entries: {:?}",
        r.stale_entries.iter().map(|&i| &r.allow[i]).collect::<Vec<_>>()
    );
}

/// `--fix-allowlist` drops exactly the stale entries and keeps
/// comments, blank lines, and live entries.
#[test]
fn fix_allowlist_removes_only_stale_entries() {
    // Build a throwaway workspace: one live panic-site violation plus an
    // allowlist with one live waiver and one stale one.
    let dir = std::env::temp_dir().join(format!("remos-audit-fix-{}", std::process::id()));
    let src_dir = dir.join("crates/remos-net/src");
    std::fs::create_dir_all(&src_dir).expect("mkdir");
    std::fs::write(
        src_dir.join("probe.rs"),
        "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
    )
    .expect("write src");
    std::fs::write(
        dir.join("audit.allow"),
        "# fixture allowlist\n\
         panic-site crates/remos-net/src/probe.rs x.unwrap()\n\
         panic-site crates/remos-net/src/gone.rs no_such_line\n",
    )
    .expect("write allow");

    let r = run(&dir).expect("fixture run");
    assert_eq!(r.rejected.len(), 0, "the live entry waives the unwrap");
    assert_eq!(r.waived.len(), 1);
    assert_eq!(r.stale_entries.len(), 1, "the gone.rs entry is stale");
    let removed = fix_allowlist(&r).expect("rewrite");
    assert_eq!(removed, 1);

    let after = std::fs::read_to_string(dir.join("audit.allow")).expect("reread");
    assert!(after.contains("# fixture allowlist"), "comments survive");
    assert!(after.contains("probe.rs x.unwrap()"), "live entries survive");
    assert!(!after.contains("gone.rs"), "stale entries are gone");

    // Second run: nothing stale remains.
    let r2 = run(&dir).expect("second run");
    assert!(r2.stale_entries.is_empty());
    std::fs::remove_dir_all(&dir).ok();
}
