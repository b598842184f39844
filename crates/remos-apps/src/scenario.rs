//! Declarative experiment scenarios.
//!
//! A [`Scenario`] describes a topology plus background traffic in plain
//! data, so experiments can be written as JSON files
//! ([`Scenario::to_json`] / [`Scenario::from_json`]) and replayed
//! through the CLI or the harness without code changes.

use crate::calib;
use remos_net::{mbps, NetError, SimDuration, SimTime, Topology, TopologyBuilder};
use remos_obs::json::{self, Value};
use remos_snmp::sim::SharedSim;
use std::collections::HashMap;

/// A node in a scenario topology.
#[derive(Clone, Debug)]
pub struct NodeSpec {
    /// Unique name.
    pub name: String,
    /// "host" or "router".
    pub kind: String,
    /// Host compute rate, Mflops (default 50).
    pub mflops: Option<f64>,
    /// Router internal bandwidth cap, Mbps (Fig 1 semantics).
    pub internal_mbps: Option<f64>,
}

/// A link in a scenario topology.
#[derive(Clone, Debug)]
pub struct LinkSpec {
    /// One endpoint name.
    pub a: String,
    /// Other endpoint name.
    pub b: String,
    /// Capacity in Mbps (default 100).
    pub mbps: Option<f64>,
    /// One-way latency in microseconds (default 100); at most
    /// `u64::MAX / 1000`, so that it fits in nanoseconds.
    pub latency_us: Option<u64>,
}

/// Background traffic in a scenario.
#[derive(Clone, Debug)]
pub enum TrafficSpec {
    /// Constant-bit-rate stream.
    Cbr {
        /// Source host.
        src: String,
        /// Destination host.
        dst: String,
        /// Rate, Mbps.
        mbps: f64,
        /// Start time, seconds (default 0).
        start_s: f64,
        /// Stop time, seconds (default: never).
        stop_s: Option<f64>,
    },
    /// `streams` parallel greedy bulk flows.
    Greedy {
        /// Source host.
        src: String,
        /// Destination host.
        dst: String,
        /// Parallel stream count.
        streams: usize,
        /// Start time, seconds (default 0).
        start_s: f64,
        /// Stop time, seconds (default: never).
        stop_s: Option<f64>,
    },
    /// Exponential on/off bursts.
    Bursty {
        /// Source host.
        src: String,
        /// Destination host.
        dst: String,
        /// Mean burst length, seconds.
        mean_on_s: f64,
        /// Mean gap length, seconds.
        mean_off_s: f64,
        /// RNG seed.
        seed: u64,
    },
    /// A scheduled link failure (and optional repair).
    LinkDown {
        /// One endpoint of the link.
        a: String,
        /// Other endpoint of the link.
        b: String,
        /// Failure time, seconds.
        at_s: f64,
        /// Repair time, seconds (default: never).
        restore_s: Option<f64>,
    },
}

/// A complete scenario.
#[derive(Clone, Debug, Default)]
pub struct Scenario {
    /// Display name.
    pub name: String,
    /// Nodes.
    pub nodes: Vec<NodeSpec>,
    /// Links.
    pub links: Vec<LinkSpec>,
    /// Background traffic and events.
    pub traffic: Vec<TrafficSpec>,
}

/// Error building a scenario.
#[derive(Debug)]
pub enum ScenarioError {
    /// The topology data is invalid.
    Invalid(String),
    /// The underlying network builder rejected it.
    Net(NetError),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Invalid(m) => write!(f, "invalid scenario: {m}"),
            ScenarioError::Net(e) => write!(f, "network error: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<NetError> for ScenarioError {
    fn from(e: NetError) -> Self {
        ScenarioError::Net(e)
    }
}

/// The string member `key` of `v`.
fn string(v: &Value, key: &str) -> Result<String, json::Error> {
    v.field(key, Value::as_str).map(str::to_string)
}

impl TrafficSpec {
    /// An object tagged with `"kind"`: `cbr`, `greedy`, `bursty` or
    /// `link_down`.
    fn to_json(&self) -> Value {
        match self {
            TrafficSpec::Cbr { src, dst, mbps, start_s, stop_s } => Value::object([
                ("kind", "cbr".into()),
                ("src", src.into()),
                ("dst", dst.into()),
                ("mbps", (*mbps).into()),
                ("start_s", (*start_s).into()),
                ("stop_s", (*stop_s).into()),
            ]),
            TrafficSpec::Greedy { src, dst, streams, start_s, stop_s } => Value::object([
                ("kind", "greedy".into()),
                ("src", src.into()),
                ("dst", dst.into()),
                ("streams", (*streams).into()),
                ("start_s", (*start_s).into()),
                ("stop_s", (*stop_s).into()),
            ]),
            TrafficSpec::Bursty { src, dst, mean_on_s, mean_off_s, seed } => Value::object([
                ("kind", "bursty".into()),
                ("src", src.into()),
                ("dst", dst.into()),
                ("mean_on_s", (*mean_on_s).into()),
                ("mean_off_s", (*mean_off_s).into()),
                ("seed", (*seed).into()),
            ]),
            TrafficSpec::LinkDown { a, b, at_s, restore_s } => Value::object([
                ("kind", "link_down".into()),
                ("a", a.into()),
                ("b", b.into()),
                ("at_s", (*at_s).into()),
                ("restore_s", (*restore_s).into()),
            ]),
        }
    }

    fn from_json(v: &Value) -> Result<TrafficSpec, json::Error> {
        let secs = |key| v.field(key, Value::as_f64);
        let opt_secs = |key| v.opt_field(key, Value::as_f64);
        let start_s = || Ok(opt_secs("start_s")?.unwrap_or(0.0));
        match v.field("kind", Value::as_str)? {
            "cbr" => Ok(TrafficSpec::Cbr {
                src: string(v, "src")?,
                dst: string(v, "dst")?,
                mbps: secs("mbps")?,
                start_s: start_s()?,
                stop_s: opt_secs("stop_s")?,
            }),
            "greedy" => Ok(TrafficSpec::Greedy {
                src: string(v, "src")?,
                dst: string(v, "dst")?,
                streams: v.field("streams", |n| {
                    usize::try_from(n.as_u64()?).map_err(|_| n.expected("a stream count"))
                })?,
                start_s: start_s()?,
                stop_s: opt_secs("stop_s")?,
            }),
            "bursty" => Ok(TrafficSpec::Bursty {
                src: string(v, "src")?,
                dst: string(v, "dst")?,
                mean_on_s: secs("mean_on_s")?,
                mean_off_s: secs("mean_off_s")?,
                seed: v.field("seed", Value::as_u64)?,
            }),
            "link_down" => Ok(TrafficSpec::LinkDown {
                a: string(v, "a")?,
                b: string(v, "b")?,
                at_s: secs("at_s")?,
                restore_s: opt_secs("restore_s")?,
            }),
            _ => v.field("kind", |kind| {
                Err(kind.expected("\"cbr\", \"greedy\", \"bursty\" or \"link_down\""))
            }),
        }
    }
}

impl Scenario {
    /// The scenario as a JSON document; [`Scenario::from_json`] reads
    /// it back.
    pub fn to_json(&self) -> Value {
        let node = |n: &NodeSpec| {
            Value::object([
                ("name", (&n.name).into()),
                ("kind", (&n.kind).into()),
                ("mflops", n.mflops.into()),
                ("internal_mbps", n.internal_mbps.into()),
            ])
        };
        let link = |l: &LinkSpec| {
            Value::object([
                ("a", (&l.a).into()),
                ("b", (&l.b).into()),
                ("mbps", l.mbps.into()),
                ("latency_us", l.latency_us.into()),
            ])
        };
        Value::object([
            ("name", (&self.name).into()),
            ("nodes", self.nodes.iter().map(node).collect()),
            ("links", self.links.iter().map(link).collect()),
            ("traffic", self.traffic.iter().map(TrafficSpec::to_json).collect()),
        ])
    }

    /// Read a scenario file. `nodes` and `links` are required; `name`,
    /// `traffic` and the optional per-item fields may be absent or
    /// `null`. Errors name the offending field, e.g. `links[2].mbps:
    /// expected a number, found "fast"`.
    pub fn from_json(text: &str) -> Result<Scenario, json::Error> {
        let node = |v: &Value| {
            Ok(NodeSpec {
                name: string(v, "name")?,
                kind: string(v, "kind")?,
                mflops: v.opt_field("mflops", Value::as_f64)?,
                internal_mbps: v.opt_field("internal_mbps", Value::as_f64)?,
            })
        };
        let link = |v: &Value| {
            Ok(LinkSpec {
                a: string(v, "a")?,
                b: string(v, "b")?,
                mbps: v.opt_field("mbps", Value::as_f64)?,
                latency_us: v.opt_field("latency_us", Value::as_u64)?,
            })
        };
        let doc = Value::parse(text)?;
        Ok(Scenario {
            name: doc.opt_field("name", Value::as_str)?.unwrap_or("").to_string(),
            nodes: doc.field("nodes", |n| n.list(node))?,
            links: doc.field("links", |l| l.list(link))?,
            traffic: doc
                .opt_field("traffic", |t| t.list(TrafficSpec::from_json))?
                .unwrap_or_default(),
        })
    }

    /// The Fig 3 testbed with a chosen traffic pattern, as data.
    pub fn cmu(traffic: Vec<TrafficSpec>) -> Scenario {
        let mut nodes: Vec<NodeSpec> = crate::testbed::TESTBED_HOSTS
            .iter()
            .map(|h| NodeSpec {
                name: h.to_string(),
                kind: "host".into(),
                mflops: Some(calib::NODE_FLOPS / 1e6),
                internal_mbps: None,
            })
            .collect();
        for r in crate::testbed::TESTBED_ROUTERS {
            nodes.push(NodeSpec {
                name: r.to_string(),
                kind: "router".into(),
                mflops: None,
                internal_mbps: None,
            });
        }
        let mut links = Vec::new();
        let mut link = |a: &str, b: &str| {
            links.push(LinkSpec {
                a: a.to_string(),
                b: b.to_string(),
                mbps: Some(100.0),
                latency_us: Some(calib::HOP_LATENCY_US),
            })
        };
        for (h, r) in [
            ("m-1", "aspen"),
            ("m-2", "aspen"),
            ("m-3", "aspen"),
            ("m-4", "timberline"),
            ("m-5", "timberline"),
            ("m-6", "timberline"),
            ("m-7", "whiteface"),
            ("m-8", "whiteface"),
        ] {
            link(h, r);
        }
        link("aspen", "timberline");
        link("timberline", "whiteface");
        Scenario { name: "cmu-testbed".into(), nodes, links, traffic }
    }

    /// Build the topology.
    pub fn build_topology(&self) -> Result<Topology, ScenarioError> {
        if self.nodes.is_empty() {
            return Err(ScenarioError::Invalid("no nodes".into()));
        }
        let mut b = TopologyBuilder::new();
        let mut ids = HashMap::new();
        for n in &self.nodes {
            let id = match n.kind.as_str() {
                "host" => b.compute_with_speed(
                    &n.name,
                    n.mflops.unwrap_or(calib::NODE_FLOPS / 1e6) * 1e6,
                ),
                "router" => match n.internal_mbps {
                    Some(cap) => b.network_with_internal_bw(&n.name, mbps(cap)),
                    None => b.network(&n.name),
                },
                other => {
                    return Err(ScenarioError::Invalid(format!(
                        "node {:?}: kind must be \"host\" or \"router\", got {other:?}",
                        n.name
                    )))
                }
            };
            ids.insert(n.name.clone(), id);
        }
        for (i, l) in self.links.iter().enumerate() {
            let us = l.latency_us.unwrap_or(calib::HOP_LATENCY_US);
            let latency = us.checked_mul(1_000).map(SimDuration::from_nanos).ok_or_else(|| {
                ScenarioError::Invalid(format!(
                    "links[{i}].latency_us: {us} µs does not fit in 64-bit nanoseconds"
                ))
            })?;
            let a = *ids
                .get(&l.a)
                .ok_or_else(|| ScenarioError::Invalid(format!("unknown node {:?}", l.a)))?;
            let bb = *ids
                .get(&l.b)
                .ok_or_else(|| ScenarioError::Invalid(format!("unknown node {:?}", l.b)))?;
            b.link(
                a,
                bb,
                mbps(l.mbps.unwrap_or(100.0)),
                latency,
            )?;
        }
        Ok(b.build()?)
    }

    /// Install the traffic/events into a shared simulator built from this
    /// scenario's topology.
    pub fn install_traffic(&self, sim: &SharedSim) -> Result<(), ScenarioError> {
        for t in &self.traffic {
            match t {
                TrafficSpec::Cbr { src, dst, mbps: rate, start_s, stop_s } => {
                    let mut s = sim.lock();
                    let topo = s.topology_arc();
                    let src = topo.lookup(src)?;
                    let dst = topo.lookup(dst)?;
                    s.add_process(
                        SimTime::from_secs_f64(*start_s),
                        Box::new(remos_net::traffic::CbrTraffic::new(
                            src,
                            dst,
                            mbps(*rate),
                            stop_s.map(SimTime::from_secs_f64),
                        )),
                    );
                }
                TrafficSpec::Greedy { src, dst, streams, start_s, stop_s } => {
                    let mut s = sim.lock();
                    let topo = s.topology_arc();
                    let src = topo.lookup(src)?;
                    let dst = topo.lookup(dst)?;
                    s.add_process(
                        SimTime::from_secs_f64(*start_s),
                        Box::new(remos_net::traffic::GreedyTraffic::new(
                            src,
                            dst,
                            *streams,
                            stop_s.map(SimTime::from_secs_f64),
                        )),
                    );
                }
                TrafficSpec::Bursty { src, dst, mean_on_s, mean_off_s, seed } => {
                    crate::synthetic::add_bursty_traffic(
                        sim,
                        src,
                        dst,
                        SimDuration::from_secs_f64(*mean_on_s),
                        SimDuration::from_secs_f64(*mean_off_s),
                        *seed,
                    )?;
                }
                TrafficSpec::LinkDown { a, b, at_s, restore_s } => {
                    let mut s = sim.lock();
                    let topo = s.topology_arc();
                    let na = topo.lookup(a)?;
                    let nb = topo.lookup(b)?;
                    let link = topo
                        .neighbors(na)
                        .iter()
                        .find(|&&(_, n)| n == nb)
                        .map(|&(l, _)| l)
                        .ok_or_else(|| {
                            ScenarioError::Invalid(format!("no link {a:?} -- {b:?}"))
                        })?;
                    s.schedule_link_state(SimTime::from_secs_f64(*at_s), link, false)?;
                    if let Some(r) = restore_s {
                        s.schedule_link_state(SimTime::from_secs_f64(*r), link, true)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Build the full [`crate::TestbedHarness`] for this scenario.
    pub fn build_harness(&self) -> Result<crate::TestbedHarness, ScenarioError> {
        let topo = self.build_topology()?;
        let h = crate::TestbedHarness::new(topo);
        self.install_traffic(&h.sim)?;
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remos_net::flow::FlowParams;

    fn mini() -> Scenario {
        Scenario {
            name: "mini".into(),
            nodes: vec![
                NodeSpec { name: "a".into(), kind: "host".into(), mflops: Some(100.0), internal_mbps: None },
                NodeSpec { name: "b".into(), kind: "host".into(), mflops: None, internal_mbps: None },
                NodeSpec { name: "r".into(), kind: "router".into(), mflops: None, internal_mbps: Some(50.0) },
            ],
            links: vec![
                LinkSpec { a: "a".into(), b: "r".into(), mbps: Some(100.0), latency_us: None },
                LinkSpec { a: "r".into(), b: "b".into(), mbps: None, latency_us: Some(250) },
            ],
            traffic: vec![TrafficSpec::Cbr {
                src: "a".into(),
                dst: "b".into(),
                mbps: 30.0,
                start_s: 1.0,
                stop_s: Some(3.0),
            }],
        }
    }

    #[test]
    fn builds_topology_with_defaults() {
        let t = mini().build_topology().unwrap();
        assert_eq!(t.node_count(), 3);
        let a = t.lookup("a").unwrap();
        assert_eq!(t.node(a).host.unwrap().compute_flops, 100e6);
        let b = t.lookup("b").unwrap();
        assert_eq!(t.node(b).host.unwrap().compute_flops, calib::NODE_FLOPS);
        let r = t.lookup("r").unwrap();
        assert_eq!(t.node(r).internal_bw, Some(mbps(50.0)));
        // Defaulted capacity and latency.
        let (l0, _) = t.neighbors(a)[0];
        assert_eq!(t.link(l0).capacity, mbps(100.0));
    }

    #[test]
    fn latencies_beyond_nanosecond_range_are_a_typed_error() {
        let with_latency = |us| {
            let mut sc = mini();
            sc.links[1].latency_us = Some(us);
            sc.build_topology()
        };
        let edge = u64::MAX / 1_000;
        assert!(with_latency(edge).is_ok());
        let err = with_latency(edge + 1).unwrap_err().to_string();
        assert!(err.contains("links[1].latency_us"), "{err}");
        assert!(matches!(with_latency(u64::MAX), Err(ScenarioError::Invalid(_))));
    }

    #[test]
    fn huge_path_latencies_still_route() {
        // Each link fits in nanoseconds; their sum does not.
        let mut sc = mini();
        for l in &mut sc.links {
            l.latency_us = Some(18_000_000_000_000_000);
        }
        let t = sc.build_topology().unwrap();
        let (a, b) = (t.lookup("a").unwrap(), t.lookup("b").unwrap());
        let path = remos_net::routing::Routing::new(&t).path(&t, a, b).unwrap();
        assert_eq!(path.hop_count(), 2);
        assert_eq!(path.latency(&t), SimDuration::from_nanos(u64::MAX));
    }

    #[test]
    fn huge_path_latencies_saturate_in_a_graph_query() {
        use remos_core::collector::{oracle::OracleCollector, Collector};
        use remos_core::{Modeler, ModelerConfig, Timeframe};
        let mut sc = mini();
        for l in &mut sc.links {
            l.latency_us = Some(18_000_000_000_000_000);
        }
        let sim = remos_net::Simulator::new(sc.build_topology().unwrap()).unwrap();
        let mut col = OracleCollector::new(remos_snmp::sim::share(sim));
        col.poll().unwrap();
        let names = ["a", "b"].map(String::from);
        let g = Modeler::new(ModelerConfig::default())
            .get_graph(&col, &names, Timeframe::Current)
            .unwrap();
        // `r` forwards a chain of two links, so one logical link remains.
        assert_eq!(g.links.len(), 1);
        assert_eq!(g.links[0].latency, SimDuration::from_nanos(u64::MAX));
        let (a, b) = (g.index_of("a").unwrap(), g.index_of("b").unwrap());
        assert_eq!(g.path_latency(a, b).unwrap(), SimDuration::from_nanos(u64::MAX));
    }

    #[test]
    fn traffic_installs_and_runs() {
        let sc = mini();
        let h = sc.build_harness().unwrap();
        h.sim.lock().run_for(SimDuration::from_secs(5)).unwrap();
        let s = h.sim.lock();
        let topo = s.topology_arc();
        let a = topo.lookup("a").unwrap();
        let (link, _) = topo.neighbors(a)[0];
        // CBR 30 Mbps for 2 s = 7.5 MB.
        let octets = s.iface_out_octets(a, link);
        assert!((octets - 7.5e6).abs() < 100.0, "{octets}");
    }

    #[test]
    fn json_roundtrip() {
        let sc = Scenario::cmu(vec![TrafficSpec::Greedy {
            src: "m-6".into(),
            dst: "m-8".into(),
            streams: 8,
            start_s: 0.0,
            stop_s: None,
        }]);
        let json = format!("{:#}", sc.to_json());
        let back = Scenario::from_json(&json).unwrap();
        assert_eq!(back.nodes.len(), 11);
        assert_eq!(back.links.len(), 10);
        assert_eq!(back.traffic.len(), 1);
        back.build_topology().unwrap();
        // Every field survives, not just the counts.
        assert_eq!(back.to_json(), sc.to_json());
    }

    #[test]
    fn hand_written_files_load_and_bad_ones_name_the_field() {
        // Optional fields left out, integers where floats are meant, a
        // seed above 2^53, and one of every traffic kind.
        let sc = Scenario::from_json(
            r#"{"nodes": [{"name": "a", "kind": "host"},
                          {"name": "r", "kind": "router", "internal_mbps": 50, "mflops": null}],
                "links": [{"a": "a", "b": "r", "latency_us": 250}],
                "traffic": [
                  {"kind": "cbr", "src": "a", "dst": "r", "mbps": 30},
                  {"kind": "greedy", "src": "a", "dst": "r", "streams": 2, "stop_s": 9.5},
                  {"kind": "bursty", "src": "a", "dst": "r", "mean_on_s": 1, "mean_off_s": 0.5,
                   "seed": 18446744073709551615},
                  {"kind": "link_down", "a": "a", "b": "r", "at_s": 1}]}"#,
        )
        .unwrap();
        assert_eq!(sc.name, "");
        assert_eq!(sc.nodes[1].internal_mbps, Some(50.0));
        assert_eq!((sc.links[0].mbps, sc.links[0].latency_us), (None, Some(250)));
        assert!(matches!(
            &sc.traffic[..],
            [
                TrafficSpec::Cbr { start_s: 0.0, stop_s: None, .. },
                TrafficSpec::Greedy { streams: 2, start_s: 0.0, stop_s: Some(9.5), .. },
                TrafficSpec::Bursty { seed: u64::MAX, .. },
                TrafficSpec::LinkDown { at_s: 1.0, restore_s: None, .. },
            ]
        ));
        sc.build_harness().unwrap();
        assert!(Scenario::from_json(r#"{"nodes": [], "links": []}"#).unwrap().traffic.is_empty());

        let err = |text| Scenario::from_json(text).unwrap_err().to_string();
        assert_eq!(
            err(r#"{"nodes": [], "links": [{"a": "a", "b": "r", "mbps": "fast"}]}"#),
            r#"links[0].mbps: expected a number, found "fast""#
        );
        assert_eq!(
            err(r#"{"nodes": [], "links": [], "traffic": [{"kind": "flood"}]}"#),
            r#"traffic[0].kind: expected "cbr", "greedy", "bursty" or "link_down", found "flood""#
        );
        assert_eq!(
            err(r#"{"nodes": [], "links": [], "traffic": [{"kind": "greedy", "src": "a", "dst": "b", "streams": -1}]}"#),
            "traffic[0].streams: expected a non-negative integer, found -1"
        );
        assert_eq!(err(r#"{"links": []}"#), "nodes: expected an array, found null");
        assert_eq!(err("[]"), "expected an object, found an array");
        assert_eq!(err(r#"{"nodes": ["#), "unexpected end of input at byte 11");
    }

    #[test]
    fn bad_scenarios_rejected() {
        let empty = Scenario::default();
        assert!(empty.build_topology().is_err());
        let mut bad_kind = mini();
        bad_kind.nodes[0].kind = "switchboard".into();
        assert!(matches!(bad_kind.build_topology(), Err(ScenarioError::Invalid(_))));
        let mut bad_link = mini();
        bad_link.links[0].a = "nope".into();
        assert!(bad_link.build_topology().is_err());
    }

    #[test]
    fn link_down_event_applies() {
        let mut sc = mini();
        sc.traffic = vec![TrafficSpec::LinkDown {
            a: "a".into(),
            b: "r".into(),
            at_s: 1.0,
            restore_s: Some(2.0),
        }];
        let h = sc.build_harness().unwrap();
        let (a, b, link) = {
            let s = h.sim.lock();
            let topo = s.topology_arc();
            let a = topo.lookup("a").unwrap();
            let b = topo.lookup("b").unwrap();
            let (link, _) = topo.neighbors(a)[0];
            (a, b, link)
        };
        let mut s = h.sim.lock();
        s.start_flow(FlowParams::cbr(a, b, mbps(10.0))).unwrap();
        s.run_for(SimDuration::from_millis(1500)).unwrap();
        assert!(!s.link_is_up(link));
        assert_eq!(s.active_flow_count(), 0, "flow dies with its only route");
        s.run_for(SimDuration::from_secs(1)).unwrap();
        assert!(s.link_is_up(link));
    }
}
