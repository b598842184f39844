//! Work-count gate for the SNMP serving path: one served `Current` graph
//! query on the 8×4 pod network costs an exact number of datagrams.
//!
//! Datagram counts are deterministic for a stack and a request, so this
//! gate holds on any machine, however fast. A poll sends one GET per
//! agent; the rest are the `sysUpTime` reads behind `Collector::now()`,
//! each of which also rebuilds an agent's MIB.

use remos::core::collector::snmp::{SnmpCollector, SnmpCollectorConfig};
use remos::core::collector::SimClock;
use remos::core::{Query, Remos, RemosConfig};
use remos::net::flow::FlowParams;
use remos::net::{gbps, mbps, SimDuration, Simulator, TopologyBuilder};
use remos::obs::Obs;
use remos::serve::{BreakerCollector, BreakerConfig, CircuitBreaker, Rung, ServeRequest, Server};
use remos::snmp::sim::{register_all_agents, share};
use remos::snmp::SimTransport;
use std::sync::Arc;

const PODS: usize = 8;
const HOSTS_PER_POD: usize = 4;
/// Agents on the pod network: the core router, a switch a pod, and its
/// hosts.
const AGENTS: u64 = (1 + PODS + PODS * HOSTS_PER_POD) as u64;
/// Polls a warm served `Current` graph query takes.
const POLLS: u64 = 1;
/// `Collector::now()` reads a served query makes: four in the server
/// (`Server::submit`; in `Server::serve_next` the start, the ladder's
/// deadline check and the finish), the facade's three budget checks, and
/// the circuit breaker's clock note after its poll.
const NOW_READS: u64 = 4 + 3 + 1;

/// The pinned cost: one datagram per agent per poll, plus one `sysUpTime`
/// GET per `now()` read.
const DATAGRAMS_PER_QUERY: u64 = AGENTS * POLLS + NOW_READS;

#[test]
fn a_served_current_graph_query_costs_one_datagram_per_agent_per_poll() {
    let mut b = TopologyBuilder::new();
    let core = b.network("core");
    let lat = SimDuration::from_micros(10);
    let mut hosts = Vec::new();
    for p in 0..PODS {
        let s = b.network(&format!("s{p}"));
        b.link(s, core, gbps(10.0), lat).unwrap();
        for j in 0..HOSTS_PER_POD {
            let h = b.compute(&format!("h{p}x{j}"));
            b.link(h, s, mbps(100.0), lat).unwrap();
            hosts.push(h);
        }
    }
    let sim = share(Simulator::new(b.build().unwrap()).unwrap());
    sim.lock().start_flow(FlowParams::cbr(hosts[0], hosts[5], mbps(40.0))).unwrap();
    let transport = Arc::new(SimTransport::new());
    let agents = register_all_agents(&transport, &sim, "public");
    assert_eq!(agents.len() as u64, AGENTS);
    let mut collector =
        SnmpCollector::new(Arc::clone(&transport), agents, SnmpCollectorConfig::default());
    let breaker = CircuitBreaker::new(BreakerConfig::default());
    collector.set_retry_observer(Arc::clone(&breaker) as _);
    let mut remos = Remos::new(
        Box::new(BreakerCollector::wrap(collector, breaker)),
        Box::new(SimClock(Arc::clone(&sim))),
        RemosConfig::default(),
    );
    remos.set_obs(Obs::new());
    let mut server = Server::new(remos, Default::default());
    let polls = |server: &Server| server.obs().metrics_snapshot().counters["collector_polls_total"];

    let serve = |server: &mut Server| {
        let query = Query::graph(["h0x0", "h1x1", "h5x3"]);
        server.submit(ServeRequest::new("t", query)).unwrap();
        let outcome = server.serve_next().unwrap();
        assert_eq!(outcome.rung, Rung::Full, "{:?}", outcome.result);
    };
    // Discovery and the first baselines happen on the first request.
    serve(&mut server);
    for _ in 0..3 {
        transport.reset_stats();
        let before = polls(&server);
        serve(&mut server);
        assert_eq!(polls(&server) - before, POLLS);
        let stats = transport.stats();
        assert_eq!(stats.requests, DATAGRAMS_PER_QUERY, "{stats:?}");
    }
}
