//! Shared experiment definitions: the table binaries and the `report`
//! generator run the same code.

use crate::fresh_harness;
use remos_apps::airshed::airshed_program;
use remos_apps::fft::fft_program;
use remos_apps::synthetic::{install_scenario, TrafficScenario};
use remos_apps::testbed::TESTBED_HOSTS;
use remos_fx::Program;
use remos_net::SimDuration;

/// The six program/size rows shared by Tables 1 and 2.
pub struct ProgramRow {
    /// Display label ("FFT (512)").
    pub label: &'static str,
    /// Node count.
    pub nodes: usize,
    /// The program model.
    pub program: Program,
    /// Table 1's "other representative node sets".
    pub table1_others: [&'static [&'static str]; 2],
    /// Table 2's static-capacities-only selection.
    pub table2_static: &'static [&'static str],
    /// Paper values: (t1 remos, t1 other1, t1 other2, t2 dynamic,
    /// t2 static, t2 no-traffic).
    pub paper: [f64; 6],
}

/// The rows, in paper order.
pub fn program_rows() -> Vec<ProgramRow> {
    vec![
        ProgramRow {
            label: "FFT (512)",
            nodes: 2,
            program: fft_program(512, 2),
            table1_others: [&["m-1", "m-4"], &["m-4", "m-8"]],
            table2_static: &["m-4", "m-6"],
            paper: [0.462, 0.468, 0.481, 0.475, 1.40, 0.462],
        },
        ProgramRow {
            label: "FFT (512)",
            nodes: 4,
            program: fft_program(512, 4),
            table1_others: [&["m-1", "m-2", "m-4", "m-5"], &["m-1", "m-4", "m-6", "m-7"]],
            table2_static: &["m-4", "m-5", "m-6", "m-7"],
            paper: [0.266, 0.287, 0.268, 0.322, 0.893, 0.266],
        },
        ProgramRow {
            label: "FFT (1K)",
            nodes: 2,
            program: fft_program(1024, 2),
            table1_others: [&["m-1", "m-4"], &["m-4", "m-8"]],
            table2_static: &["m-4", "m-6"],
            paper: [2.63, 2.66, 2.68, 2.68, 7.38, 2.63],
        },
        ProgramRow {
            label: "FFT (1K)",
            nodes: 4,
            program: fft_program(1024, 4),
            table1_others: [&["m-1", "m-2", "m-4", "m-5"], &["m-1", "m-4", "m-6", "m-7"]],
            table2_static: &["m-4", "m-5", "m-6", "m-7"],
            paper: [1.51, 1.62, 1.61, 2.07, 3.71, 1.51],
        },
        ProgramRow {
            label: "Airshed",
            nodes: 3,
            program: airshed_program(3),
            table1_others: [&["m-4", "m-6", "m-8"], &["m-1", "m-4", "m-7"]],
            table2_static: &["m-4", "m-5", "m-6"],
            paper: [908.0, 907.0, 917.0, 905.0, 2113.0, 908.0],
        },
        ProgramRow {
            label: "Airshed",
            nodes: 5,
            program: airshed_program(5),
            table1_others: [
                &["m-1", "m-2", "m-3", "m-4", "m-5"],
                &["m-1", "m-2", "m-4", "m-5", "m-7"],
            ],
            table2_static: &["m-4", "m-5", "m-6", "m-7", "m-8"],
            paper: [650.0, 647.0, 657.0, 674.0, 1726.0, 650.0],
        },
    ]
}

/// One measured Table 1 row.
#[derive(Debug)]
pub struct Table1Result {
    /// Row label.
    pub label: String,
    /// Node count.
    pub nodes: usize,
    /// The Remos-selected set and its execution time.
    pub remos: (Vec<String>, f64),
    /// The two alternative sets and their times.
    pub others: [(Vec<String>, f64); 2],
    /// Paper values (remos, other1, other2).
    pub paper: [f64; 3],
}

/// Run a program on explicit nodes, with an optional traffic scenario.
pub fn run_on(program: &Program, nodes: &[String], scenario: TrafficScenario) -> f64 {
    let mut h = fresh_harness();
    install_scenario(&h.sim, scenario).expect("scenario installs");
    if scenario != TrafficScenario::None {
        h.sim.lock().run_for(SimDuration::from_secs(1)).expect("warmup");
    }
    let refs: Vec<&str> = nodes.iter().map(String::as_str).collect();
    h.run_fixed(program, &refs).expect("run succeeds").elapsed
}

/// Remos-driven selection under a scenario, then execution.
pub fn select_and_run(
    program: &Program,
    k: usize,
    scenario: TrafficScenario,
) -> (Vec<String>, f64) {
    let mut h = fresh_harness();
    install_scenario(&h.sim, scenario).expect("scenario installs");
    if scenario != TrafficScenario::None {
        h.sim.lock().run_for(SimDuration::from_secs(1)).expect("warmup");
    }
    let selected = h.select_nodes(&TESTBED_HOSTS, "m-4", k).expect("selection");
    let refs: Vec<&str> = selected.iter().map(String::as_str).collect();
    let elapsed = h.run_fixed(program, &refs).expect("run succeeds").elapsed;
    (selected, elapsed)
}

/// Execute all of Table 1.
pub fn run_table1() -> Vec<Table1Result> {
    program_rows()
        .into_iter()
        .map(|row| {
            let remos = select_and_run(&row.program, row.nodes, TrafficScenario::None);
            let others = row.table1_others.map(|set| {
                let names: Vec<String> = set.iter().map(|s| s.to_string()).collect();
                let t = run_on(&row.program, &names, TrafficScenario::None);
                (names, t)
            });
            Table1Result {
                label: row.label.to_string(),
                nodes: row.nodes,
                remos,
                others,
                paper: [row.paper[0], row.paper[1], row.paper[2]],
            }
        })
        .collect()
}

/// One measured Table 2 row.
#[derive(Debug)]
pub struct Table2Result {
    /// Row label.
    pub label: String,
    /// Node count.
    pub nodes: usize,
    /// Dynamic (Remos) selection under traffic: set and time.
    pub dynamic: (Vec<String>, f64),
    /// Static selection under traffic: set and time.
    pub static_sel: (Vec<String>, f64),
    /// The dynamic set with no traffic.
    pub no_traffic: f64,
    /// Paper values (dynamic, static, no-traffic).
    pub paper: [f64; 3],
}

/// Execute all of Table 2.
pub fn run_table2() -> Vec<Table2Result> {
    program_rows()
        .into_iter()
        .map(|row| {
            let dynamic =
                select_and_run(&row.program, row.nodes, TrafficScenario::Interfering1);
            let static_names: Vec<String> =
                row.table2_static.iter().map(|s| s.to_string()).collect();
            let t_static =
                run_on(&row.program, &static_names, TrafficScenario::Interfering1);
            let no_traffic = run_on(&row.program, &dynamic.0, TrafficScenario::None);
            Table2Result {
                label: row.label.to_string(),
                nodes: row.nodes,
                dynamic,
                static_sel: (static_names, t_static),
                no_traffic,
                paper: [row.paper[3], row.paper[4], row.paper[5]],
            }
        })
        .collect()
}

/// One measured Table 3 cell.
#[derive(Debug)]
pub struct Table3Cell {
    /// Scenario label.
    pub scenario: &'static str,
    /// Adaptive or fixed.
    pub adaptive: bool,
    /// Execution time.
    pub seconds: f64,
    /// Migrations performed.
    pub migrations: usize,
    /// The paper's value for this cell.
    pub paper: f64,
}

/// Paper values for Table 3: (fixed, adaptive) per scenario column.
pub const TABLE3_PAPER: [(f64, f64); 4] =
    [(862.0, 941.0), (866.0, 974.0), (1680.0, 1045.0), (1826.0, 955.0)];

/// Execute all of Table 3 (adaptive Airshed, 8 ranks on 5 nodes).
pub fn run_table3() -> Vec<Table3Cell> {
    let active = ["m-4", "m-5", "m-6", "m-7", "m-8"];
    let mut out = Vec::new();
    for adaptive in [false, true] {
        for (i, scenario) in TrafficScenario::all().into_iter().enumerate() {
            let mut h = fresh_harness();
            install_scenario(&h.sim, scenario).expect("scenario installs");
            h.sim.lock().run_for(SimDuration::from_secs(1)).expect("warmup");
            let prog = airshed_program(8);
            let rep = if adaptive {
                h.run_adaptive(&prog, &TESTBED_HOSTS, &active).expect("adaptive run")
            } else {
                h.run_fixed(&prog, &active).expect("fixed run")
            };
            out.push(Table3Cell {
                scenario: scenario.label(),
                adaptive,
                seconds: rep.elapsed,
                migrations: rep.migrations.len(),
                paper: if adaptive { TABLE3_PAPER[i].1 } else { TABLE3_PAPER[i].0 },
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_well_formed() {
        let rows = program_rows();
        assert_eq!(rows.len(), 6);
        for r in &rows {
            assert_eq!(r.program.ranks, r.nodes);
            assert_eq!(r.table2_static.len(), r.nodes);
            for o in r.table1_others {
                assert_eq!(o.len(), r.nodes);
            }
            assert!(r.paper.iter().all(|&v| v > 0.0));
        }
    }

    #[test]
    fn select_and_run_smoke() {
        // The cheapest row end-to-end (FFT 512 x2, unloaded).
        let rows = program_rows();
        let (sel, t) = select_and_run(&rows[0].program, 2, TrafficScenario::None);
        assert_eq!(sel.len(), 2);
        assert!(t > 0.1 && t < 1.0, "{t}");
    }
}
