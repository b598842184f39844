//! Shared helpers for the table/figure regeneration binaries.
//!
//! Every binary prints a human-readable table mirroring the paper's and,
//! with `--json`, machine-readable rows consumed by the EXPERIMENTS.md
//! tooling. The [`experiments`] module holds the shared experiment
//! definitions (rows, node sets, paper values) used by both the table
//! binaries and the `report` generator.

pub mod experiments;

use remos_apps::TestbedHarness;
use remos_fx::runtime::ExecutionReport;
use remos_obs::json::Value;

/// One experiment cell in machine-readable form.
#[derive(Debug)]
pub struct Cell {
    /// Experiment id (e.g. "table1").
    pub experiment: &'static str,
    /// Row label (e.g. "FFT (512) x2").
    pub row: String,
    /// Column label (e.g. "remos-selected").
    pub column: String,
    /// Node set used.
    pub nodes: Vec<String>,
    /// Execution time in simulated seconds.
    pub seconds: f64,
    /// Migrations performed, if adaptive.
    pub migrations: usize,
}

impl Cell {
    /// Build a cell from an execution report.
    pub fn from_report(
        experiment: &'static str,
        row: &str,
        column: &str,
        nodes: &[String],
        rep: &ExecutionReport,
    ) -> Cell {
        Cell {
            experiment,
            row: row.to_string(),
            column: column.to_string(),
            nodes: nodes.to_vec(),
            seconds: rep.elapsed,
            migrations: rep.migrations.len(),
        }
    }
}

/// True when `--json` was passed.
pub fn json_mode() -> bool {
    std::env::args().any(|a| a == "--json")
}

/// Emit a cell as a JSON line if in JSON mode.
pub fn emit(cell: &Cell) {
    if json_mode() {
        let doc = Value::object([
            ("experiment", cell.experiment.into()),
            ("row", cell.row.as_str().into()),
            ("column", cell.column.as_str().into()),
            ("nodes", cell.nodes.iter().map(String::as_str).collect()),
            ("seconds", cell.seconds.into()),
            ("migrations", cell.migrations.into()),
        ]);
        println!("{doc}");
    }
}

/// Percent increase of `b` over `a`.
pub fn pct_increase(a: f64, b: f64) -> f64 {
    (b / a - 1.0) * 100.0
}

/// Compact node-set rendering: `m-4,5,6` style like the paper's tables.
pub fn nodeset(nodes: &[String]) -> String {
    let suffixes: Vec<String> = nodes
        .iter()
        .map(|n| n.strip_prefix("m-").unwrap_or(n).to_string())
        .collect();
    let mut sorted = suffixes;
    sorted.sort_by_key(|s| s.parse::<u32>().unwrap_or(u32::MAX));
    format!("m-{}", sorted.join(","))
}

/// A fresh CMU-testbed harness (one per measurement so runs are
/// independent, like separate program invocations on the real testbed).
pub fn fresh_harness() -> TestbedHarness {
    TestbedHarness::cmu()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct() {
        assert!((pct_increase(1.0, 1.5) - 50.0).abs() < 1e-12);
        assert!((pct_increase(2.0, 1.0) + 50.0).abs() < 1e-12);
    }

    #[test]
    fn nodeset_formatting() {
        let nodes: Vec<String> =
            ["m-5", "m-4", "m-1"].iter().map(|s| s.to_string()).collect();
        assert_eq!(nodeset(&nodes), "m-1,4,5");
    }
}
