//! The pod network the serving benchmark (`bench_serve`) runs on: `pods`
//! switches hang off one core router, each pod serving `hosts_per_pod`
//! hosts.

use remos_net::{gbps, mbps, SimDuration, Topology, TopologyBuilder};

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
