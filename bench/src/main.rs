//! `remos-e2e`: one served request, end to end, on the wall clock.
//!
//! `remos-e2e --workload W --seed N --seconds S --trace 0|1 [--smoke]
//! [--out DIR]` runs one workload and prints each metric as
//! `workload metric value unit`, then one JSON object as the last line.
//! README.md has the workloads, the metrics and how laps work.

mod alloc;
mod layers;
mod spans;
mod stack;
mod stats;

use stack::{Inputs, Lap, Scale, Stack, Workload};
use stats::{median, percentile, spread};
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Laps a timed run makes at least, so a median over laps exists.
const MIN_LAPS: usize = 3;
/// Stop starting laps here, whatever `--seconds` says: the driver kills
/// a run at 180 s.
const WALL_LIMIT: Duration = Duration::from_secs(120);
/// Direct `Remos::run_within` calls per traced lap.
const DIRECT_CALLS: usize = 16;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: std::path::PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::FabricSteady,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        out: "bench/out".into(),
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    bad(&format!("one of {}", names.join(", ")))
                })?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(bad("between 0 and 60"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => args.out = value.into(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn latencies_us(lap: &Lap) -> Vec<f64> {
    lap.requests
        .iter()
        .map(|r| r.latency_ns as f64 / 1e3)
        .collect()
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What a run reports: the contract's four keys.
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

/// Build a fresh untraced stack and replay the lap's first `requests`
/// operations on it. Returns the lap and the set-up time; the stack is
/// dropped before the next one is built, so peak memory is one stack's.
fn lap_on_fresh_stack(inputs: &Inputs, requests: usize, verify: bool) -> (Lap, f64) {
    let t = Instant::now();
    let mut stack = Stack::build(inputs, false);
    let setup_s = t.elapsed().as_secs_f64();
    (stack.run_lap(inputs, requests, verify), setup_s)
}

/// Every lap replays the same operations from the same initial state,
/// so every lap must fold to the first lap's digest.
fn laps_agree(laps: &[Lap]) -> bool {
    laps.iter()
        .all(|l| l.reference_ok && l.digest == laps[0].digest)
}

/// The timed run: tracing off, laps until `seconds` of measured time.
fn timed_run(inputs: &Inputs, seconds: f64, min_laps: usize) -> Outcome {
    let started = Instant::now();
    let (mut laps, mut setups): (Vec<Lap>, Vec<f64>) = (Vec::new(), Vec::new());
    let mut measured = 0.0;
    while laps.len() < min_laps || (measured < seconds && started.elapsed() < WALL_LIMIT) {
        let (lap, setup_s) = lap_on_fresh_stack(inputs, inputs.requests_per_lap(), laps.is_empty());
        measured += lap.busy_ns as f64 / 1e9;
        setups.push(setup_s);
        laps.push(lap);
    }
    let p50: Vec<f64> = laps
        .iter()
        .map(|l| percentile(&latencies_us(l), 0.5))
        .collect();
    let rate: Vec<f64> = laps
        .iter()
        .map(|l| l.requests.len() as f64 / (l.busy_ns as f64 / 1e9))
        .collect();
    for (name, per_lap) in [
        ("query_p50_us", &p50),
        ("queries_per_s", &rate),
        ("setup_s", &setups),
    ] {
        println!(
            "# {} {name}: {} laps, spread (max-min)/median {:.4}, per lap {per_lap:.5?}",
            inputs.workload.name(),
            per_lap.len(),
            spread(per_lap)
        );
    }
    Outcome {
        correct: laps_agree(&laps),
        attempted: laps.len() * inputs.requests_per_lap(),
        failed: laps.iter().map(|l| l.failed).sum(),
        metrics: vec![
            ("query_p50_us", median(&p50), "us"),
            ("queries_per_s", median(&rate), "1/s"),
            ("setup_s", median(&setups), "s"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
        ],
    }
}

/// The traced run: pairs of an untraced and a traced lap (with its probes)
/// until `seconds` have passed, each over the first third of the lap so
/// several pairs fit; each per-layer metric is its median over the traced
/// laps. The last traced lap's spans go to `out`.
fn traced_run(inputs: &Inputs, seconds: f64, out: &std::path::Path) -> std::io::Result<Outcome> {
    let started = Instant::now();
    let requests = inputs.traced_requests();
    let mut laps = Vec::new();
    // Per traced lap, every `(name, unit, value)` in the same order.
    let mut per_lap: Vec<Vec<(&'static str, &'static str, f64)>> = Vec::new();
    let mut last_spans = Vec::new();
    while laps.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let (untraced, _) = lap_on_fresh_stack(inputs, requests, laps.is_empty());
        let plain = latencies_us(&untraced);

        let mut stack = Stack::build(inputs, true);
        spans::drain();
        let before = stack.counts();
        let lap = stack.run_lap(inputs, requests, false);
        let counts = stack.counts().since(&before);
        let calls = DIRECT_CALLS.min(requests);
        let direct = stack.run_direct(inputs, requests, calls, false);
        let recorded = spans::drain();
        let allocs_before = alloc::totals();
        let counted = stack
            .run_direct(inputs, requests + calls, calls, true)
            .len();
        let allocs = alloc::totals();
        spans::drain();
        let traced = layers::TracedLap {
            lap: &lap,
            direct: &direct,
            counts,
            allocs_per_call: (
                (allocs.0 - allocs_before.0) as f64 / counted.max(1) as f64,
                (allocs.1 - allocs_before.1) as f64 / counted.max(1) as f64,
            ),
            codec_ns_per_pdu: stack.codec_probe(),
            untraced_p50_us: percentile(&plain, 0.5),
            untraced_p99_us: percentile(&plain, 0.99),
        };
        per_lap.push(layers::metrics(&recorded, &traced));
        drop(stack);
        last_spans = recorded;
        laps.push(untraced);
        laps.push(lap);
    }
    std::fs::create_dir_all(out)?;
    spans::write_jsonl(
        &out.join(format!("trace-{}.jsonl", inputs.workload.name())),
        &last_spans,
    )?;
    Ok(Outcome {
        correct: laps_agree(&laps),
        attempted: laps.len() * requests,
        failed: laps.iter().map(|l| l.failed).sum(),
        metrics: (0..per_lap[0].len())
            .map(|i| {
                let values: Vec<f64> = per_lap.iter().map(|lap| lap[i].2).collect();
                (per_lap[0][i].0, median(&values), per_lap[0][i].1)
            })
            .collect(),
    })
}

/// The contract's last line.
fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("remos-e2e: {e}");
            std::process::exit(2);
        }
    };
    let scale = if args.smoke {
        Scale::SMOKE
    } else {
        Scale::FULL
    };
    let inputs = Inputs::generate(args.workload, args.seed, scale);
    let outcome = if args.trace {
        traced_run(
            &inputs,
            if args.smoke { 0.0 } else { args.seconds },
            &args.out,
        )
    } else {
        let (seconds, min_laps) = if args.smoke {
            (0.0, 1)
        } else {
            (args.seconds, MIN_LAPS)
        };
        Ok(timed_run(&inputs, seconds, min_laps))
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!(
                "remos-e2e: cannot write the trace under {}: {e}",
                args.out.display()
            );
            std::process::exit(1);
        }
    };
    if outcome.metrics.iter().any(|(_, v, _)| !v.is_finite()) {
        eprintln!("remos-e2e: a metric is not a finite number");
        std::process::exit(1);
    }
    let name = args.workload.name();
    for (metric, value, unit) in &outcome.metrics {
        println!("{name} {metric} {value} {unit}");
    }
    let json = result_json(&outcome);
    println!("{json}");
    if !outcome.correct {
        eprintln!("remos-e2e: {name}: an answer differed from its reference or between laps");
        std::process::exit(1);
    }
}
