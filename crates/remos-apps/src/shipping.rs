//! Function and data shipping (§2).
//!
//! "In some scenarios, a tradeoff is possible between performing a
//! computation locally and performing the computation remotely, and such
//! tradeoffs depend on the availability of network and compute capacity,
//! based on a specific cost model, e.g., when deciding whether to perform
//! a simulation locally or on a remote server."
//!
//! [`decide`] implements that cost model on live Remos measurements
//! (host compute rates via the host-resources interface, transfer
//! bandwidth via a flow query), and [`execute`] carries the decision out
//! against the simulator so the prediction can be validated.

use remos_core::prelude::*;
use remos_core::Remos;
use remos_net::flow::FlowParams;
use remos_snmp::sim::SharedSim;

/// A shippable job.
#[derive(Clone, Copy, Debug)]
pub struct Job {
    /// Computation size, flops.
    pub work_flops: f64,
    /// Input data that must reach the executing node, bytes.
    pub input_bytes: u64,
    /// Result data that must return, bytes.
    pub output_bytes: u64,
}

/// Where to run, with predicted costs.
#[derive(Clone, Debug, PartialEq)]
pub struct ShippingDecision {
    /// True to ship to the server, false to run locally.
    pub ship: bool,
    /// Predicted local execution time, seconds.
    pub local_secs: f64,
    /// Predicted remote execution time (transfers + compute), seconds.
    pub remote_secs: f64,
}

/// Decide local vs remote execution of `job` currently sitting on
/// `client`, with `server` as the candidate remote executor.
pub fn decide(
    remos: &mut Remos,
    client: &str,
    server: &str,
    job: &Job,
) -> CoreResult<ShippingDecision> {
    let client_host = remos.host_info(client)?;
    let server_host = remos.host_info(server)?;
    let local_secs = job.work_flops / client_host.compute_flops.max(1.0);

    // One simultaneous query for both transfer legs (they don't overlap
    // in time, but a simultaneous query is conservative if they share
    // links; §4.2's guidance).
    let req = FlowInfoRequest::new()
        .variable(client, server, 1.0)
        .variable(server, client, 1.0);
    let resp = remos.run(Query::flows(req))?.into_flows()?;
    let up = resp.variable[0].bandwidth.median;
    let down = resp.variable[1].bandwidth.median;
    let up_lat = resp.variable[0].latency.as_secs_f64();
    let down_lat = resp.variable[1].latency.as_secs_f64();

    let transfer = |bytes: u64, bw: f64, lat: f64| {
        if bw <= 0.0 {
            f64::INFINITY
        } else {
            bytes as f64 * 8.0 / bw + lat
        }
    };
    let remote_secs = transfer(job.input_bytes, up, up_lat)
        + job.work_flops / server_host.compute_flops.max(1.0)
        + transfer(job.output_bytes, down, down_lat);

    Ok(ShippingDecision { ship: remote_secs < local_secs, local_secs, remote_secs })
}

/// Execute the job per `decision`; returns measured elapsed seconds.
/// Local compute advances the clock by `work/flops`; shipping performs
/// the real transfers.
pub fn execute(
    sim: &SharedSim,
    client: &str,
    server: &str,
    job: &Job,
    decision: &ShippingDecision,
) -> CoreResult<f64> {
    let mut s = sim.lock();
    let topo = s.topology_arc();
    let c = topo.lookup(client).map_err(remos_core::RemosError::from)?;
    let v = topo.lookup(server).map_err(remos_core::RemosError::from)?;
    let t0 = s.now();
    let compute_secs = |node: remos_net::NodeId| {
        let flops = topo.node(node).host.map_or(0.0, |h| h.compute_flops);
        job.work_flops / flops.max(1.0)
    };
    if decision.ship {
        let f = s
            .start_flow(FlowParams::bulk(c, v, job.input_bytes))
            .map_err(remos_core::RemosError::from)?;
        s.run_until_flows_complete(&[f]).map_err(remos_core::RemosError::from)?;
        s.run_for(remos_net::SimDuration::from_secs_f64(compute_secs(v)))
            .map_err(remos_core::RemosError::from)?;
        let f = s
            .start_flow(FlowParams::bulk(v, c, job.output_bytes))
            .map_err(remos_core::RemosError::from)?;
        s.run_until_flows_complete(&[f]).map_err(remos_core::RemosError::from)?;
    } else {
        s.run_for(remos_net::SimDuration::from_secs_f64(compute_secs(c)))
            .map_err(remos_core::RemosError::from)?;
    }
    Ok(s.now().since(t0).as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib;
    use crate::TestbedHarness;
    use remos_net::{mbps, SimDuration, SimTime, TopologyBuilder};

    /// A slow client and a 10x server behind one router.
    fn asymmetric_harness() -> TestbedHarness {
        let mut b = TopologyBuilder::new();
        let c = b.compute_with_speed("client", calib::NODE_FLOPS);
        let v = b.compute_with_speed("server", calib::NODE_FLOPS * 10.0);
        let r = b.network("r");
        b.link(c, r, mbps(100.0), SimDuration::from_micros(100)).unwrap();
        b.link(r, v, mbps(100.0), SimDuration::from_micros(100)).unwrap();
        TestbedHarness::new(b.build().unwrap())
    }

    #[test]
    fn big_compute_small_data_ships() {
        let mut h = asymmetric_harness();
        // 500 Mflops (10 s local, 1 s remote), 1 MB each way (~0.16 s).
        let job = Job { work_flops: 500e6, input_bytes: 1_000_000, output_bytes: 1_000_000 };
        let d = decide(h.adapter.remos_mut(), "client", "server", &job).unwrap();
        assert!(d.ship, "{d:?}");
        assert!((d.local_secs - 10.0).abs() < 0.01);
        assert!(d.remote_secs < 2.0, "{d:?}");
        // Prediction matches execution.
        let measured = execute(&h.sim, "client", "server", &job, &d).unwrap();
        assert!((measured - d.remote_secs).abs() < d.remote_secs * 0.1, "{measured} vs {d:?}");
    }

    #[test]
    fn small_compute_huge_data_stays_local() {
        let mut h = asymmetric_harness();
        // 50 Mflops (1 s local), 100 MB input (8+ s transfer).
        let job = Job { work_flops: 50e6, input_bytes: 100_000_000, output_bytes: 1_000 };
        let d = decide(h.adapter.remos_mut(), "client", "server", &job).unwrap();
        assert!(!d.ship, "{d:?}");
        let measured = execute(&h.sim, "client", "server", &job, &d).unwrap();
        assert!((measured - d.local_secs).abs() < 1e-6);
    }

    #[test]
    fn congestion_flips_the_decision() {
        let mut h = asymmetric_harness();
        let job = Job { work_flops: 100e6, input_bytes: 10_000_000, output_bytes: 10_000_000 };
        // Idle: remote = 0.2 (compute) + ~1.6 (transfers) < 2.0 local.
        let d_idle = decide(h.adapter.remos_mut(), "client", "server", &job).unwrap();
        assert!(d_idle.ship, "{d_idle:?}");
        // Saturate the path: the transfer price explodes.
        crate::synthetic::add_greedy_traffic(&h.sim, "client", "server", 12, SimTime::ZERO, None)
            .unwrap();
        h.sim.lock().run_for(SimDuration::from_secs(1)).unwrap();
        let d_loaded = decide(h.adapter.remos_mut(), "client", "server", &job).unwrap();
        assert!(!d_loaded.ship, "{d_loaded:?}");
        assert!(d_loaded.remote_secs > d_idle.remote_secs * 2.0);
    }
}
