//! Shared churn scenario for the engine hot-path benchmark.
//!
//! A pod/leaf-spine style network: `pods` switches hang off one core
//! router, each pod serving `hosts_per_pod` hosts. All traffic is
//! intra-pod, so flows in different pods share no resources — the shape
//! the incremental solver is built for: one arrival or departure dirties
//! a single pod's component, not the whole fabric. The full solver must
//! still re-solve every flow on every event, which is exactly the
//! before/after contrast `BENCH_engine.json` records.
//!
//! Used by the `bench_engine` binary (wall-clock measurement lives
//! there; library code is lint-banned from `std::time`).

use remos_net::flow::FlowParams;
use remos_net::{gbps, mbps, FlowHandle, SimDuration, Simulator, SolverMode, Topology,
    TopologyBuilder};
use std::collections::VecDeque;

/// Build the pod network: `pods` switches off a core router, each with
/// `hosts_per_pod` 100 Mbps hosts.
pub fn pod_network(pods: usize, hosts_per_pod: usize) -> Topology {
    let mut b = TopologyBuilder::new();
    let core = b.network("core");
    let lat = SimDuration::from_micros(10);
    for p in 0..pods {
        let s = b.network(&format!("s{p}"));
        b.link(s, core, gbps(10.0), lat).expect("core uplink");
        for j in 0..hosts_per_pod {
            let h = b.compute(&format!("h{p}x{j}"));
            b.link(h, s, mbps(100.0), lat).expect("host link");
        }
    }
    b.build().expect("pod network builds")
}

/// Steady-state churn driver: a constant population of persistent flows,
/// with each step retiring the oldest flow of one pod and admitting a
/// replacement — one departure plus one arrival, coalesced by the engine
/// into a single rate recomputation.
pub struct ChurnBench {
    /// The simulator under test.
    pub sim: Simulator,
    /// Per-pod live flows, oldest first.
    queues: Vec<VecDeque<FlowHandle>>,
    hosts_per_pod: usize,
    /// Monotone counter varying the src/dst pairs and weights over time.
    spawned: u64,
}

impl ChurnBench {
    /// Build the scenario and bring it to steady state: `flows_per_pod`
    /// persistent flows in every pod, rates computed once.
    pub fn new(
        pods: usize,
        hosts_per_pod: usize,
        flows_per_pod: usize,
        mode: SolverMode,
    ) -> ChurnBench {
        let mut sim = Simulator::new(pod_network(pods, hosts_per_pod)).expect("simulator");
        sim.set_solver_mode(mode);
        let mut bench = ChurnBench {
            sim,
            queues: (0..pods).map(|_| VecDeque::new()).collect(),
            hosts_per_pod,
            spawned: 0,
        };
        for _ in 0..flows_per_pod {
            for pod in 0..pods {
                bench.spawn(pod);
            }
        }
        // Settle the initial allocation outside the measured window.
        bench.sim.run_for(SimDuration::from_millis(1)).expect("warmup run");
        bench
    }

    fn spawn(&mut self, pod: usize) {
        let k = self.spawned;
        self.spawned += 1;
        let hpp = self.hosts_per_pod as u64;
        let src_i = k % hpp;
        let dst_i = (src_i + 1 + k / hpp % (hpp - 1)) % hpp;
        let t = self.sim.topology();
        let src = t.lookup(&format!("h{pod}x{src_i}")).expect("src host");
        let dst = t.lookup(&format!("h{pod}x{dst_i}")).expect("dst host");
        let weight = 1.0 + (k % 4) as f64;
        let h = self
            .sim
            .start_flow(FlowParams::greedy(src, dst).with_weight(weight))
            .expect("flow starts");
        self.queues[pod].push_back(h);
    }

    /// One churn event on pod `i % pods`: retire its oldest flow, admit a
    /// replacement, and advance time so the engine recomputes rates (the
    /// departure and arrival coalesce into one solve).
    pub fn step(&mut self, i: usize) {
        let pod = i % self.queues.len();
        if let Some(h) = self.queues[pod].pop_front() {
            self.sim.stop_flow(h).expect("flow stops");
        }
        self.spawn(pod);
        self.sim.run_for(SimDuration::from_micros(100)).expect("advance");
    }

    /// Current live-flow count.
    pub fn live_flows(&self) -> usize {
        self.sim.active_flow_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_holds_population_and_audits_clean() {
        let mut b = ChurnBench::new(8, 4, 3, SolverMode::Incremental);
        b.sim.enable_audit();
        assert_eq!(b.live_flows(), 8 * 3);
        for i in 0..32 {
            b.step(i);
        }
        assert_eq!(b.live_flows(), 8 * 3);
        assert!(b.sim.audit_violations().is_empty(), "{:?}", b.sim.audit_violations());
        assert!(b.sim.scoped_recomputes() > 0);
        assert_eq!(b.sim.full_recomputes(), 0);
    }

    #[test]
    fn both_modes_agree_on_the_churn_scenario() {
        let run = |mode: SolverMode| {
            let mut b = ChurnBench::new(4, 4, 2, mode);
            for i in 0..16 {
                b.step(i);
            }
            (b.sim.rates_digest(), b.sim.event_digest())
        };
        assert_eq!(run(SolverMode::Full), run(SolverMode::Incremental));
    }
}
