//! # remos-cli — the `remos-sim` command
//!
//! A self-contained front end over the whole stack: load (or pick) a
//! scenario, then query it the way a network-aware application would.
//!
//! ```text
//! remos-sim topology --scenario cmu
//! remos-sim graph    --scenario cmu --nodes m-1,m-4,m-8 --warmup 2
//! remos-sim flows    --scenario cmu --fixed m-1:m-8:2 --independent m-2:m-7
//! remos-sim whatif   --scenario fig4 --synth 7,64,0.2 --window 1
//! remos-sim select   --scenario fig4 --pool m-1,...,m-8 --start m-4 -k 4
//! remos-sim run      --scenario cmu --app fft:512:4 --nodes m-4,m-5,m-6,m-7
//! remos-sim run      --scenario fig4 --app airshed:8:10 --nodes m-4,m-5,m-6,m-7,m-8 --adaptive
//! remos-sim watch    --scenario fig4 --pair m-4:m-8 --interval 1 --duration 10
//! remos-sim obs      --scenario cmu --nodes m-1,m-8 --format prometheus --trace
//! remos-sim example  > my-scenario.json   # then: --scenario my-scenario.json
//! ```
//!
//! Built-in scenarios: `cmu` (the idle Fig 3 testbed) and `fig4` (the
//! testbed with the synthetic m-6 → m-8 traffic).

mod args;
mod commands;
mod serve;

use std::io::Write;

pub use args::{parse_pair, parse_pair_value, Parsed};

/// Top-level dispatch. Writes human-readable output to `out`; errors are
/// returned as strings.
pub fn run(argv: &[String], out: &mut dyn Write) -> Result<(), String> {
    let parsed = args::Parsed::parse(argv)?;
    match parsed.command.as_str() {
        "topology" => commands::topology(&parsed, out),
        "graph" => commands::graph(&parsed, out),
        "query" => commands::query(&parsed, out),
        "flows" => commands::flows(&parsed, out),
        "whatif" => commands::whatif(&parsed, out),
        "select" => commands::select(&parsed, out),
        "run" => commands::run_app(&parsed, out),
        "watch" => commands::watch(&parsed, out),
        "obs" => commands::obs(&parsed, out),
        "serve" => serve::serve(&parsed, out),
        "loadgen" => serve::loadgen(&parsed, out),
        "example" => commands::example(out),
        "help" | "--help" | "-h" => {
            writeln!(out, "{}", HELP).map_err(|e| e.to_string())
        }
        other => Err(format!("unknown command {other:?} (try `remos-sim help`)")),
    }
}

/// Usage text.
pub const HELP: &str = "\
remos-sim — Remos (HPDC'98) reproduction CLI

USAGE: remos-sim <command> [options]

COMMANDS:
  topology  print the scenario's topology as the SNMP collector discovers it
  graph     remos_get_graph over a node set
  query     repeated / batched graph queries with plan-cache statistics
  flows     remos_flow_info (fixed/variable/independent flow classes)
  whatif    estimate flow completion times for a hypothetical workload
  select    Remos-driven node selection (greedy clustering, §7.2)
  run       execute an application model on chosen nodes
  watch     sample available bandwidth of a pair over time
  obs       dump observability state (metrics, optionally traces)
  serve     replay a request file through the overload-safe front end
  loadgen   seeded synthetic load against the front end; shed/rung summary
  example   print an example scenario JSON to stdout
  help      this text

COMMON OPTIONS:
  --scenario <cmu|fig4|file.json>   the network + traffic (default: cmu)
  --warmup <seconds>                let traffic run before measuring (default 1)
  --json                            machine-readable output where supported

COMMAND OPTIONS:
  graph:   --nodes a,b,c            [--window S | --future S] [--dot]
  query:   --nodes a,b,c [--repeat N] | --batch FILE [--repeat N]
           (batch file: one comma-separated node list per line, # comments;
            answered in a single run_batch call; prints plan-cache stats)
  flows:   --fixed src:dst:MBPS     (repeatable)
           --variable src:dst:WEIGHT (repeatable)
           --independent src:dst
  whatif:  --flows FILE.json | --synth SEED,N,LOAD
           [--window S | --future S] [--horizon S] [--json]
           (flow file: JSON array of {src, dst, size_bytes[, arrival]};
            --synth draws N flows at fractional load LOAD, seeded)
  select:  --pool a,b,c --start a -k N
  run:     --app fft:N:P | airshed:P[:ITERS]
           --nodes a,b,...          [--adaptive [--pool a,b,...]]
  watch:   --pair src:dst --interval S --duration S [--window S]
  obs:     [--nodes a,b,...] [--format json|prometheus] [--trace]
  serve:   --requests FILE           (lines: tenant node,node [deadline_s])
  loadgen: [--tenants N] [--count N] [--seed S] [--gap S]
  serve/loadgen also take: --deadline S (0 = none), --rate TOKENS_PER_S,
           --burst TOKENS, --queue-depth N, --kill node:T (repeatable),
           --shards N (split agents over N collectors, one breaker each)
";

#[cfg(test)]
mod tests {
    use super::*;
    use remos_apps::scenario::Scenario;
    use remos_core::HypotheticalFlow;
    use remos_obs::json::{Error, Value};

    fn call(args: &[&str]) -> Result<String, String> {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut buf = Vec::new();
        run(&argv, &mut buf)?;
        Ok(String::from_utf8(buf).expect("utf8 output"))
    }

    #[test]
    fn help_prints() {
        let out = call(&["help"]).unwrap();
        assert!(out.contains("remos-sim"));
        assert!(out.contains("COMMANDS"));
    }

    #[test]
    fn unknown_command_errors() {
        assert!(call(&["frobnicate"]).is_err());
        assert!(call(&[]).is_err());
    }

    #[test]
    fn topology_cmu() {
        let out = call(&["topology", "--scenario", "cmu"]).unwrap();
        assert!(out.contains("timberline"));
        assert!(out.contains("m-8"));
        assert!(out.contains("100 Mbps"));
    }

    #[test]
    fn graph_query() {
        let out =
            call(&["graph", "--scenario", "fig4", "--nodes", "m-1,m-4,m-8"]).unwrap();
        // The m-6->m-8 traffic loads the path toward m-8.
        assert!(out.contains("m-1"), "{out}");
        assert!(out.contains("avail"), "{out}");
    }

    #[test]
    fn graph_dot_mode() {
        let out = call(&[
            "graph", "--scenario", "cmu", "--nodes", "m-1,m-8", "--dot",
        ])
        .unwrap();
        assert!(out.starts_with("graph remos {"), "{out}");
        assert!(out.contains("\"m-1\" -- \"m-8\"") || out.contains("\"m-8\" -- \"m-1\""));
    }

    #[test]
    fn graph_json_mode() {
        let out = call(&[
            "graph", "--scenario", "cmu", "--nodes", "m-1,m-2", "--json",
        ])
        .unwrap();
        let v = Value::parse(&out).expect("valid json");
        assert!(v.get("nodes").is_some());
        assert!(v.get("links").is_some());
    }

    #[test]
    fn query_repeat_reports_cache_hits() {
        let out = call(&[
            "query", "--scenario", "cmu", "--nodes", "m-1,m-8", "--repeat", "3",
            "--window", "1",
        ])
        .unwrap();
        assert!(out.contains("digest"), "{out}");
        assert!(out.contains("later median"), "{out}");
        // One cold plan build, then cache hits on the repeats.
        assert!(out.contains("2 hit(s), 1 miss(es), 0 eviction(s)"), "{out}");
    }

    #[test]
    fn query_batch_file() {
        let path = std::env::temp_dir().join("remos_cli_test_batch.txt");
        std::fs::write(&path, "# two graph queries\nm-1,m-8\nm-2, m-3\n").unwrap();
        let out = call(&[
            "query", "--scenario", "cmu", "--batch", path.to_str().unwrap(),
        ])
        .unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(out.contains("batch round 1: 2 queries"), "{out}");
        assert!(out.contains("[0]"), "{out}");
        assert!(out.contains("[1]"), "{out}");
        assert!(out.contains("plan cache:"), "{out}");
    }

    #[test]
    fn query_bad_options() {
        assert!(call(&["query", "--scenario", "cmu"]).is_err());
        assert!(call(&[
            "query", "--scenario", "cmu", "--nodes", "m-1,m-8", "--batch", "x",
        ])
        .is_err());
        assert!(call(&[
            "query", "--scenario", "cmu", "--nodes", "m-1,m-8", "--repeat", "0",
        ])
        .is_err());
        assert!(call(&["query", "--scenario", "cmu", "--batch", "/nonexistent.txt"]).is_err());
    }

    #[test]
    fn flows_query() {
        let out = call(&[
            "flows",
            "--scenario",
            "cmu",
            "--fixed",
            "m-1:m-8:2",
            "--variable",
            "m-2:m-8:1",
            "--independent",
            "m-3:m-8",
        ])
        .unwrap();
        assert!(out.contains("fixed"), "{out}");
        assert!(out.contains("satisfied"), "{out}");
        assert!(out.contains("independent"), "{out}");
    }

    #[test]
    fn whatif_synth_is_seed_deterministic() {
        let args = ["whatif", "--scenario", "cmu", "--synth", "7,16,0.2"];
        let a = call(&args).unwrap();
        let b = call(&args).unwrap();
        assert_eq!(a, b);
        assert!(a.contains("what-if: 16 flow(s), 16 completed"), "{a}");
        assert!(a.contains("fct ms: p50"), "{a}");
        assert!(a.contains("fct digest:"), "{a}");
        assert!(a.contains("solver whatif-replay/epoch"), "{a}");
    }

    #[test]
    fn whatif_background_traffic_slows_flows() {
        // fig4's greedy m-6 -> m-8 traffic saturates the backbone, so
        // the same seeded workload must lose flows to the horizon that
        // complete easily on the idle testbed.
        let idle = call(&[
            "whatif", "--scenario", "cmu", "--synth", "3,8,0.1", "--horizon", "100",
        ])
        .unwrap();
        let busy = call(&[
            "whatif", "--scenario", "fig4", "--synth", "3,8,0.1", "--horizon", "100",
        ])
        .unwrap();
        assert!(idle.contains("what-if: 8 flow(s), 8 completed"), "{idle}");
        assert!(busy.contains("what-if: 8 flow(s), 4 completed"), "{busy}");
        let digest = |s: &str| {
            s.lines()
                .find(|l| l.contains("fct digest:"))
                .map(str::to_string)
                .expect("digest line")
        };
        assert_ne!(digest(&idle), digest(&busy));
    }

    #[test]
    fn whatif_horizon_cuts_flows_off() {
        // A vanishingly small horizon leaves every flow incomplete.
        let out = call(&[
            "whatif", "--scenario", "cmu", "--synth", "7,16,0.2", "--horizon", "0.000001",
        ])
        .unwrap();
        assert!(out.contains("what-if: 16 flow(s), 0 completed"), "{out}");
    }

    #[test]
    fn whatif_bad_inputs_error() {
        // Needs exactly one of --flows / --synth.
        assert!(call(&["whatif", "--scenario", "cmu"]).is_err());
        assert!(call(&[
            "whatif", "--scenario", "cmu", "--flows", "x.json", "--synth", "1,2,0.5",
        ])
        .is_err());
        assert!(call(&["whatif", "--scenario", "cmu", "--flows", "/nonexistent.json"]).is_err());
        // Malformed --synth triples.
        assert!(call(&["whatif", "--scenario", "cmu", "--synth", "1,2"]).is_err());
        assert!(call(&["whatif", "--scenario", "cmu", "--synth", "1,0,0.5"]).is_err());
        assert!(call(&["whatif", "--scenario", "cmu", "--synth", "1,2,-1"]).is_err());
        assert!(call(&["whatif", "--scenario", "cmu", "--synth", "a,b,c"]).is_err());
    }

    #[test]
    fn whatif_flow_file_json_end_to_end() {
        // One flow with an explicit arrival (in ns), one without.
        let path = std::env::temp_dir().join("remos_cli_test_flows.json");
        std::fs::write(
            &path,
            r#"[{"src": "m-1", "dst": "m-8", "size_bytes": 2500000, "arrival": 1500000},
                {"src": "m-4", "dst": "m-2", "size_bytes": 40000}]"#,
        )
        .unwrap();
        let args = ["whatif", "--scenario", "cmu", "--flows", path.to_str().unwrap()];
        let text = call(&args).unwrap();
        let json = call(&[&args[..], &["--json"]].concat()).unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(text.contains("what-if: 2 flow(s), 2 completed"), "{text}");

        // The JSON report carries the text run's digest exactly (a u64
        // does not fit a double) and echoes every input flow in order.
        let report = Value::parse(&json).expect("valid json");
        let digest = report.field("fct_digest", Value::as_u64).unwrap();
        assert!(text.contains(&format!("fct digest: {digest:016x}")), "{digest:016x} vs {text}");
        let flows = report.field("flows", |f| f.list(Ok)).unwrap();
        let echoed: Vec<(&str, &str, u64, u64)> = flows
            .iter()
            .map(|f| {
                (
                    f.field("src", Value::as_str).unwrap(),
                    f.field("dst", Value::as_str).unwrap(),
                    f.field("size_bytes", Value::as_u64).unwrap(),
                    f.field("started", Value::as_u64).unwrap(),
                )
            })
            .collect();
        assert_eq!(echoed, [("m-1", "m-8", 2_500_000, 1_500_000), ("m-4", "m-2", 40_000, 0)]);
        assert!(flows.iter().all(|f| f.get("completed") == Some(&Value::Bool(true))));
        assert_eq!(
            report.field("provenance", |p| p.field("timeframe", Value::as_str)).unwrap(),
            "Current"
        );
    }

    /// A flow file is outside input: every prefix of a valid 3-flow file
    /// and every single-byte corruption of it reads as flows or as a typed
    /// error (a syntax error, or a shape error under `flows`), never a
    /// panic.
    #[test]
    fn whatif_flow_files_never_panic() {
        const FILE: &str = r#"[{"src":"m-1","dst":"m-8","size_bytes":2500000,"arrival":1500000},
            {"src":"m-4","dst":"m-2","size_bytes":40000},{"src":"m-3","dst":"m-6","size_bytes":0}]"#;
        let read = HypotheticalFlow::list_from_json;
        assert_eq!(read(FILE).map(|flows| flows.len()), Ok(3));
        let typed = |r: Result<Vec<HypotheticalFlow>, Error>| match r {
            Ok(_) | Err(Error::Syntax { .. }) => {}
            Err(Error::Shape { path, .. }) => assert!(path.starts_with("flows"), "{path}"),
        };
        for end in 0..FILE.len() {
            assert!(read(&FILE[..end]).is_err(), "a prefix of {end} bytes read as flows");
        }
        for at in 0..FILE.len() {
            for with in [b'"', b'\\', b'{', b'}', b'[', b']', b',', b':', b'0', b'9', b'-', b'e', 0, 0x7f, 0xc3] {
                let mut bytes = FILE.as_bytes().to_vec();
                bytes[at] = with;
                if let Ok(text) = std::str::from_utf8(&bytes) {
                    typed(read(text));
                }
            }
        }
    }

    /// Every single-byte corruption of `file` at each position, with the
    /// bytes a hand-edited line most plausibly gets wrong.
    fn corruptions(file: &str) -> impl Iterator<Item = Vec<u8>> + '_ {
        (0..file.len()).flat_map(move |at| {
            [b' ', b',', b'\n', b'#', b'-', b'.', b'e', b'9', b'x', 0xff].map(move |with| {
                let mut bytes = file.as_bytes().to_vec();
                bytes[at] = with;
                bytes
            })
        })
    }

    /// Seconds no `SimDuration` holds: `1e300` saturates at the end of the
    /// clock, and the other three are refused.
    const BAD_SECONDS: [&str; 4] = ["1e300", "-1", "nan", "inf"];

    /// A request file is outside input: every prefix of a valid file,
    /// every single-byte corruption of it and a deadline of each of
    /// [`BAD_SECONDS`] is served or refused with an error, never a panic.
    /// A deadline past the end of the clock is served; the others are
    /// refused.
    #[test]
    fn serve_request_files_never_panic() {
        const FILE: &str = "t0 m-1,m-8 0.5\n# c\nt1 m-2,m-4\n";
        let path = std::env::temp_dir().join("remos_cli_test_requests_fuzz.txt");
        let serve = |text: &[u8]| {
            std::fs::write(&path, text).unwrap();
            let path = path.to_str().unwrap();
            call(&["serve", "--scenario", "cmu", "--warmup", "0", "--requests", path])
        };
        assert!(serve(FILE.as_bytes()).is_ok());
        for end in 0..FILE.len() {
            let _ = serve(&FILE.as_bytes()[..end]);
        }
        for bytes in corruptions(FILE) {
            let _ = serve(&bytes);
        }
        for d in BAD_SECONDS {
            let got = serve(format!("t0 m-1,m-2 {d}\n").as_bytes());
            assert_eq!(got.is_ok(), d == "1e300", "{d}: {got:?}");
        }
        // A warm-up to the end of the clock leaves no time to measure in:
        // the request is answered from the topology alone.
        std::fs::write(&path, "t0 m-1,m-2 1\n").unwrap();
        let path = path.to_str().unwrap();
        let warmup = ["serve", "--scenario", "cmu", "--warmup", "1e300", "--requests", path];
        assert!(call(&warmup).is_ok_and(|out| out.contains("1 topology-only")));
        let _ = std::fs::remove_file(path);
    }

    /// A `query --batch` file is outside input too: every prefix, every
    /// single-byte corruption and each of [`BAD_SECONDS`], as a node name
    /// and as the batch's `--window` or `--future`, answers or errors,
    /// never panics or hangs. No history holds a `1e300` s window.
    #[test]
    fn query_batch_files_never_panic() {
        const FILE: &str = "m-1,m-8\n# c\nm-2, m-4,m-5\n";
        let path = std::env::temp_dir().join("remos_cli_test_batch_fuzz.txt");
        let query = |text: &[u8], extra: &[&str]| {
            std::fs::write(&path, text).unwrap();
            let path = path.to_str().unwrap();
            let args = ["query", "--scenario", "cmu", "--warmup", "0", "--batch", path];
            call(&[&args[..], extra].concat())
        };
        assert!(query(FILE.as_bytes(), &[]).is_ok());
        for end in 0..FILE.len() {
            let _ = query(&FILE.as_bytes()[..end], &[]);
        }
        for bytes in corruptions(FILE) {
            let _ = query(&bytes, &[]);
        }
        for d in BAD_SECONDS {
            assert!(query(format!("m-1,{d}\n").as_bytes(), &[]).is_ok(), "{d} as a node");
            for tf in ["--window", "--future"] {
                let got = query(FILE.as_bytes(), &[tf, d]);
                let refused = match d {
                    "1e300" => got.as_ref().is_ok_and(|out| out.contains("could not accumulate")),
                    _ => got.is_err(),
                };
                assert!(refused, "{tf} {d}: {got:?}");
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bad_input_files_name_the_field() {
        let write = |name: &str, text: &str| {
            let path = std::env::temp_dir().join(name);
            std::fs::write(&path, text).unwrap();
            path.to_str().unwrap().to_string()
        };
        let flows = write(
            "remos_cli_test_bad_flows.json",
            r#"[{"src": "m-1", "dst": "m-8", "size_bytes": 1}, {"src": "m-1", "dst": "m-8", "size_bytes": -5}]"#,
        );
        let err = call(&["whatif", "--scenario", "cmu", "--flows", &flows]).unwrap_err();
        assert!(
            err.ends_with("flows[1].size_bytes: expected a non-negative integer, found -5"),
            "{err}"
        );
        std::fs::write(&flows, r#"[{"src": "m-1", "dst""#).unwrap();
        let err = call(&["whatif", "--scenario", "cmu", "--flows", &flows]).unwrap_err();
        assert!(err.ends_with("expected ':' at byte 21"), "{err}");
        let _ = std::fs::remove_file(&flows);

        let scenario = write(
            "remos_cli_test_bad_scenario.json",
            r#"{"nodes": [{"name": "a", "kind": "host"}, {"name": 7, "kind": "host"}], "links": []}"#,
        );
        let err = call(&["topology", "--scenario", &scenario]).unwrap_err();
        assert!(err.ends_with("nodes[1].name: expected a string, found 7"), "{err}");
        let _ = std::fs::remove_file(&scenario);
    }

    #[test]
    fn select_reproduces_fig4() {
        let out = call(&[
            "select",
            "--scenario",
            "fig4",
            "--pool",
            "m-1,m-2,m-3,m-4,m-5,m-6,m-7,m-8",
            "--start",
            "m-4",
            "-k",
            "4",
        ])
        .unwrap();
        for n in ["m-1", "m-2", "m-4", "m-5"] {
            assert!(out.contains(n), "{out}");
        }
        assert!(!out.contains("m-6"), "{out}");
    }

    #[test]
    fn run_fft() {
        let out = call(&[
            "run", "--scenario", "cmu", "--app", "fft:512:2", "--nodes", "m-4,m-5",
        ])
        .unwrap();
        assert!(out.contains("elapsed"), "{out}");
        // Near the calibrated 0.467 s.
        assert!(out.contains("0.4"), "{out}");
    }

    #[test]
    fn run_adaptive_airshed() {
        let out = call(&[
            "run",
            "--scenario",
            "fig4",
            "--app",
            "airshed:5:4",
            "--nodes",
            "m-4,m-5,m-6,m-7,m-8",
            "--adaptive",
        ])
        .unwrap();
        assert!(out.contains("migrations"), "{out}");
    }

    #[test]
    fn watch_produces_series() {
        let out = call(&[
            "watch",
            "--scenario",
            "fig4",
            "--pair",
            "m-4:m-8",
            "--interval",
            "1",
            "--duration",
            "5",
        ])
        .unwrap();
        let lines: Vec<&str> = out.lines().filter(|l| l.contains("Mbps")).collect();
        assert!(lines.len() >= 5, "{out}");
    }

    #[test]
    fn watch_with_window_shows_quartiles() {
        let out = call(&[
            "watch",
            "--scenario",
            "fig4",
            "--pair",
            "m-4:m-8",
            "--interval",
            "1",
            "--duration",
            "4",
            "--window",
            "3",
        ])
        .unwrap();
        assert!(out.contains("[min|q1|median|q3|max]"), "{out}");
        let quartile_lines = out.lines().filter(|l| l.contains("] n=")).count();
        assert!(quartile_lines >= 4, "{out}");
    }

    #[test]
    fn obs_metrics_json() {
        let out = call(&["obs", "--scenario", "cmu", "--nodes", "m-1,m-8"]).unwrap();
        // The graph query bumps the facade counter; collector polls ran.
        assert!(out.contains("\"remos_graph_queries_total\""), "{out}");
        assert!(out.contains("\"collector_polls_total\""), "{out}");
    }

    #[test]
    fn obs_metrics_prometheus_and_trace() {
        let out = call(&[
            "obs", "--scenario", "cmu", "--nodes", "m-1,m-8", "--format", "prometheus",
            "--trace",
        ])
        .unwrap();
        assert!(out.contains("# TYPE remos_graph_queries_total counter"), "{out}");
        assert!(out.contains("# trace digest="), "{out}");
        assert!(call(&["obs", "--scenario", "cmu", "--format", "xml"]).is_err());
    }

    #[test]
    fn serve_replays_request_file() {
        let path = std::env::temp_dir().join("remos_cli_test_requests.txt");
        std::fs::write(&path, "# two tenants\nalice m-1,m-8 5\nbob m-2,m-7\n").unwrap();
        let out = call(&["serve", "--scenario", "cmu", "--requests", path.to_str().unwrap()])
            .unwrap();
        let _ = std::fs::remove_file(&path);
        assert!(out.contains("alice: admitted"), "{out}");
        assert!(out.contains("bob: admitted"), "{out}");
        assert!(out.contains("answered (full)"), "{out}");
        assert!(out.contains("2 submitted, 0 shed"), "{out}");
        assert!(out.contains("decision digest:"), "{out}");
        assert!(out.contains("breaker: Closed"), "{out}");
    }

    #[test]
    fn serve_bad_inputs_error() {
        assert!(call(&["serve", "--scenario", "cmu"]).is_err()); // missing --requests
        assert!(call(&["serve", "--scenario", "cmu", "--requests", "/nonexistent.txt"])
            .is_err());
        let path = std::env::temp_dir().join("remos_cli_test_requests_bad.txt");
        std::fs::write(&path, "only-a-tenant\n").unwrap();
        let res = call(&["serve", "--scenario", "cmu", "--requests", path.to_str().unwrap()]);
        let _ = std::fs::remove_file(&path);
        assert!(res.is_err());
    }

    #[test]
    fn loadgen_summary_is_seed_deterministic() {
        let args = ["loadgen", "--scenario", "cmu", "--count", "12", "--seed", "42"];
        let a = call(&args).unwrap();
        let b = call(&args).unwrap();
        assert_eq!(a, b);
        assert!(a.contains("12 requests"), "{a}");
        assert!(a.contains("decision digest:"), "{a}");
        // Shed counters and the rung breakdown are always reported.
        assert!(a.contains("quota-shed"), "{a}");
        assert!(a.contains("rungs:"), "{a}");
    }

    #[test]
    fn loadgen_overload_sheds_with_typed_outcomes() {
        // A tiny queue and no quota refill force admission shedding.
        let out = call(&[
            "loadgen", "--scenario", "cmu", "--count", "24", "--tenants", "1",
            "--queue-depth", "2", "--rate", "0.5", "--burst", "2", "--gap", "0",
        ])
        .unwrap();
        assert!(out.contains("quota-shed") || out.contains("queue-shed"), "{out}");
        // Some requests must have been refused, and none lost.
        assert!(!out.contains("0 quota-shed, 0 queue-shed"), "{out}");
    }

    #[test]
    fn loadgen_kill_degrades_but_keeps_answering() {
        let out = call(&[
            "loadgen", "--scenario", "cmu", "--count", "16", "--kill", "aspen:2",
            "--kill", "timberline:2", "--kill", "whiteface:2", "--kill", "m-1:2",
            "--kill", "m-2:2", "--kill", "m-3:2", "--kill", "m-4:2", "--kill", "m-5:2",
            "--kill", "m-6:2", "--kill", "m-7:2", "--kill", "m-8:2",
        ])
        .unwrap();
        // The breaker must have tripped and requests degraded past Full.
        assert!(out.contains("opened"), "{out}");
        assert!(!out.contains("opened 0 time(s)"), "{out}");
    }

    #[test]
    fn loadgen_sharded_prints_per_shard_breakers() {
        let args = [
            "loadgen", "--scenario", "cmu", "--count", "12", "--seed", "42", "--shards", "3",
        ];
        let a = call(&args).unwrap();
        let b = call(&args).unwrap();
        assert_eq!(a, b, "sharded loadgen must stay seed-deterministic");
        for shard in ["shard0", "shard1", "shard2"] {
            assert!(a.contains(&format!("breaker[{shard}]:")), "{a}");
        }
        // The legacy single-breaker line is replaced, not duplicated.
        assert!(!a.contains("\nbreaker: "), "{a}");
        assert!(a.contains("decision digest:"), "{a}");
        assert!(call(&["loadgen", "--scenario", "cmu", "--shards", "0"]).is_err());
    }

    #[test]
    fn loadgen_sharded_kill_trips_only_that_shard() {
        // Agents chunk in node order (m-1..m-8, then the routers): with
        // two shards, m-1..m-6 form shard0. Killing exactly those agents
        // must open shard0's breaker while shard1 — which still has its
        // routers and hosts — keeps serving with a Closed breaker.
        let out = call(&[
            "loadgen", "--scenario", "cmu", "--count", "16", "--shards", "2",
            "--kill", "m-1:2", "--kill", "m-2:2", "--kill", "m-3:2",
            "--kill", "m-4:2", "--kill", "m-5:2", "--kill", "m-6:2",
        ])
        .unwrap();
        let s0 = out.lines().find(|l| l.starts_with("breaker[shard0]")).expect("shard0 line");
        let s1 = out.lines().find(|l| l.starts_with("breaker[shard1]")).expect("shard1 line");
        assert!(!s0.contains("opened 0 time(s)"), "shard0 breaker never tripped: {out}");
        assert!(s1.contains("Closed, opened 0 time(s)"), "shard1 breaker disturbed: {out}");
        // The healthy shard kept the stack answering.
        assert!(out.contains("answered"), "{out}");
    }

    #[test]
    fn example_roundtrips_as_scenario() {
        let out = call(&["example"]).unwrap();
        let sc = Scenario::from_json(&out).expect("example is a valid scenario");
        sc.build_topology().expect("example topology builds");
    }

    #[test]
    fn scenario_file_loading() {
        let out = call(&["example"]).unwrap();
        let path = std::env::temp_dir().join("remos_cli_test_scenario.json");
        std::fs::write(&path, &out).unwrap();
        let got = call(&["topology", "--scenario", path.to_str().unwrap()]).unwrap();
        assert!(got.contains("Mbps"));
        let _ = std::fs::remove_file(&path);
        assert!(call(&["topology", "--scenario", "/nonexistent.json"]).is_err());
    }

    #[test]
    fn bad_options_error_cleanly() {
        assert!(call(&["graph", "--scenario", "cmu"]).is_err()); // missing --nodes
        assert!(call(&["flows", "--scenario", "cmu"]).is_err()); // no flows at all
        assert!(call(&["run", "--scenario", "cmu", "--app", "doom:3"]).is_err());
        assert!(call(&["select", "--scenario", "cmu", "--pool", "m-1", "--start", "m-9", "-k", "1"]).is_err());
        assert!(call(&["watch", "--scenario", "cmu", "--pair", "m-1m-2"]).is_err());
    }
}
