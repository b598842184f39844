//! Collectors: the network-oriented half of the Remos implementation.
//!
//! "The Remos implementation has two components, a Collector and Modeler;
//! they are responsible for network-oriented and application-oriented
//! functionality, respectively. A Collector consists of a process that
//! retrieves raw information about the network." (§5)
//!
//! Three collectors are provided, mirroring the paper:
//! * [`snmp::SnmpCollector`] — discovers topology and polls interface
//!   octet counters via the SNMP substrate (the paper's primary collector);
//! * [`benchmark::BenchmarkCollector`] — actively probes host pairs with
//!   short transfers "for environments where the use of SNMP is not
//!   possible or practical";
//! * [`multi::MultiCollector`] — multiple cooperating collectors, each
//!   owning a region, merged into one view ("a large environment may
//!   require multiple cooperating Collectors").

pub mod benchmark;
pub mod multi;
pub mod oracle;
pub mod shard;
pub mod snmp;

use crate::error::{CoreResult, RemosError};
use crate::graph::HostInfo;
use crate::quality::DataQuality;
use remos_net::topology::{DirLink, Topology};
use remos_net::{Bps, SimDuration, SimTime};
use std::collections::VecDeque;
use std::sync::Arc;

/// One utilization sample: per-directed-interface traffic rates observed
/// over the interval ending at `t`, each tagged with the [`DataQuality`]
/// of its measurement (fresh, carried forward from an earlier interval, or
/// missing entirely).
///
/// The two planes are shared, immutable buffers: history entries whose
/// values did not change hold the same `Arc`, and a producer writes a
/// plane only through `Arc::get_mut` (or `make_mut`), i.e. only while no
/// one else holds it. So while a plane is held, an equal pointer means
/// equal bits.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// End of the measurement interval.
    pub t: SimTime,
    /// Length of the interval the rates were averaged over.
    pub interval: SimDuration,
    /// Utilization in bits/s, indexed by [`DirLink::index`] of the
    /// collector's topology.
    pub util: Arc<[Bps]>,
    /// Per-directed-interface measurement quality, parallel to `util`.
    pub quality: Arc<[DataQuality]>,
}

impl Snapshot {
    /// A snapshot whose every entry was freshly measured (the common case
    /// for fault-free collectors).
    pub fn fresh(t: SimTime, interval: SimDuration, util: impl Into<Arc<[Bps]>>) -> Snapshot {
        let util = util.into();
        let quality = std::iter::repeat_n(DataQuality::Fresh, util.len()).collect();
        Snapshot { t, interval, util, quality }
    }

    /// Utilization of one directed interface.
    pub fn util_of(&self, d: DirLink) -> Bps {
        self.util[d.index()]
    }

    /// Measurement quality of one directed interface; indices beyond the
    /// snapshot (topology drift) read as [`DataQuality::Missing`].
    pub fn quality_of(&self, d: DirLink) -> DataQuality {
        self.quality.get(d.index()).copied().unwrap_or(DataQuality::Missing)
    }
}

/// Bounded history of utilization snapshots, newest last.
#[derive(Clone, Debug)]
pub struct SampleHistory {
    samples: VecDeque<Snapshot>,
    max_len: usize,
    /// Monotone counter bumped whenever the sample set changes (a snapshot
    /// appended, or the history cleared on rediscovery). Consumers use it
    /// to tell whether two reads of the history saw the same samples.
    generation: u64,
}

/// Default history bound (samples).
pub const DEFAULT_HISTORY_LEN: usize = 512;

impl Default for SampleHistory {
    fn default() -> Self {
        SampleHistory::new(DEFAULT_HISTORY_LEN)
    }
}

impl SampleHistory {
    /// History bounded to `max_len` samples.
    pub fn new(max_len: usize) -> Self {
        assert!(max_len > 0);
        SampleHistory { samples: VecDeque::new(), max_len, generation: 0 }
    }

    /// The most samples the history holds.
    pub(crate) fn capacity(&self) -> usize {
        self.max_len
    }

    /// Append a snapshot, evicting the oldest if full.
    pub fn push(&mut self, s: Snapshot) {
        if self.samples.len() == self.max_len {
            self.samples.pop_front();
        }
        self.samples.push_back(s);
        self.generation += 1;
    }

    /// Move the latest sample's `t`/`interval` in place: what a re-read
    /// of unchanged values would have pushed. Counts as a change of the
    /// sample set. `false` when there is no sample to restamp.
    pub fn restamp_latest(&mut self, t: SimTime, interval: SimDuration) -> bool {
        let Some(s) = self.samples.back_mut() else { return false };
        (s.t, s.interval) = (t, interval);
        self.generation += 1;
        true
    }

    /// All samples, oldest first.
    pub fn all(&self) -> impl Iterator<Item = &Snapshot> {
        self.samples.iter()
    }

    /// The most recent sample.
    pub fn latest(&self) -> Option<&Snapshot> {
        self.samples.back()
    }

    /// Samples whose interval end lies within `window` of the latest
    /// sample (inclusive), oldest first.
    pub fn within(&self, window: SimDuration) -> Vec<&Snapshot> {
        let Some(latest) = self.latest() else { return Vec::new() };
        self.samples
            .iter()
            .filter(|s| latest.t.saturating_since(s.t) <= window)
            .collect()
    }

    /// Number of stored samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples are stored.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Discard all samples (used when the topology is re-discovered and
    /// interface indices change meaning).
    pub fn clear(&mut self) {
        self.samples.clear();
        self.generation += 1;
    }

    /// Pop the oldest snapshot *for buffer reuse* — only when the history
    /// is full, i.e. exactly the snapshot the next [`push`] would evict
    /// anyway. Steady-state collectors write into its planes in place of
    /// fresh allocations (the zero-alloc contract) when `Arc::get_mut`
    /// grants them, i.e. when no later entry shares them. Bumps the
    /// generation: the sample set changed.
    ///
    /// [`push`]: SampleHistory::push
    pub fn recycle_oldest(&mut self) -> Option<Snapshot> {
        if self.samples.len() < self.max_len {
            return None;
        }
        self.generation += 1;
        self.samples.pop_front()
    }

    /// Monotone snapshot-generation counter: bumped on every push,
    /// restamp, recycle and clear. Equal generations guarantee equal
    /// sample sets.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

/// The collector interface the Modeler builds on.
pub trait Collector: Send {
    /// Discover (or re-discover) the network view. Must be called before
    /// [`Collector::topology`]; re-discovery clears the sample history.
    fn refresh_topology(&mut self) -> CoreResult<()>;

    /// The discovered physical-view topology.
    fn topology(&self) -> CoreResult<Arc<Topology>>;

    /// Compute/memory resources of a named host: the `host` its node in
    /// [`Collector::topology`] carries, [`RemosError::UnknownNode`] for a
    /// switch, an unmeasured host, or a name the topology lacks.
    fn host_info(&self, name: &str) -> CoreResult<HostInfo> {
        let topo = self.topology()?;
        topo.lookup(name)
            .ok()
            .and_then(|id| topo.node(id).host)
            .ok_or_else(|| RemosError::UnknownNode(name.to_string()))
    }

    /// Take one measurement. Returns `true` if a utilization sample was
    /// appended (the first poll after discovery only establishes a counter
    /// baseline and returns `false`).
    fn poll(&mut self) -> CoreResult<bool>;

    /// The accumulated samples.
    fn history(&self) -> &SampleHistory;

    /// Monotone counter identifying the current discovered topology:
    /// bumped on every successful [`Collector::refresh_topology`]
    /// (explicit, trap-triggered, or lazy). Anything derived from the
    /// topology under an older epoch — routing, logicalized structures,
    /// cached query plans — must not be reused once the epoch moves.
    fn topology_epoch(&self) -> u64;

    /// Monotone counter identifying the current sample set (see
    /// [`SampleHistory::generation`]). Lets batch consumers pin one
    /// snapshot selection and detect interleaved polls.
    fn generation(&self) -> u64 {
        self.history().generation()
    }

    /// The collector's notion of the current time (from the measured
    /// system, e.g. agent sysUpTime).
    fn now(&self) -> CoreResult<SimTime>;

    /// Route collector observability (poll counters, agent-health events)
    /// into `obs`. Collectors without instrumentation may ignore this.
    fn set_obs(&mut self, obs: &remos_obs::Obs) {
        let _ = obs;
    }

    /// Short human-readable description of where measurements come from,
    /// stamped into answer [`Provenance`](crate::Provenance). Federated
    /// collectors report how many children contributed current data, so a
    /// failover shows up in the answers served during it.
    fn describe(&self) -> String {
        "collector".to_string()
    }

    /// Directed-interface indices (into this collector's *own* topology,
    /// sorted ascending) this collector actually measures; `None` means
    /// all of them. Region-scoped shard collectors report their slice of
    /// a shared fabric here so a federation can attribute each merged
    /// entry to the children that observe it instead of treating every
    /// child as a full-view contributor.
    fn coverage(&self) -> Option<&[u32]> {
        None
    }
}

/// Boxed collectors forward the whole interface, so decorators like
/// `BreakerCollector<Box<dyn Collector>>` compose over heterogeneous
/// children (the sharded federation wraps each child this way).
impl Collector for Box<dyn Collector> {
    fn refresh_topology(&mut self) -> CoreResult<()> {
        (**self).refresh_topology()
    }

    fn topology(&self) -> CoreResult<Arc<Topology>> {
        (**self).topology()
    }

    fn host_info(&self, name: &str) -> CoreResult<HostInfo> {
        (**self).host_info(name)
    }

    fn poll(&mut self) -> CoreResult<bool> {
        (**self).poll()
    }

    fn history(&self) -> &SampleHistory {
        (**self).history()
    }

    fn topology_epoch(&self) -> u64 {
        (**self).topology_epoch()
    }

    fn generation(&self) -> u64 {
        (**self).generation()
    }

    fn now(&self) -> CoreResult<SimTime> {
        (**self).now()
    }

    fn set_obs(&mut self, obs: &remos_obs::Obs) {
        (**self).set_obs(obs)
    }

    fn describe(&self) -> String {
        (**self).describe()
    }

    fn coverage(&self) -> Option<&[u32]> {
        (**self).coverage()
    }
}

/// A source of unsolicited SNMP notifications (linkDown/linkUp traps).
///
/// Collectors that are handed a trap source re-discover the topology when
/// a link-state trap arrives instead of waiting for the next full scan —
/// the standard way real management systems track "networks \[whose\]
/// topology and behavior … may even change during execution".
pub trait TrapSource: Send {
    /// Drain pending notifications as `(agent name, trap PDU)` pairs.
    fn drain(&mut self) -> Vec<(String, remos_snmp::Pdu)>;
}

impl TrapSource for remos_snmp::sim::SimTrapSource {
    fn drain(&mut self) -> Vec<(String, remos_snmp::Pdu)> {
        remos_snmp::sim::SimTrapSource::drain(self)
    }
}

/// True if a PDU is a linkDown or linkUp trap.
pub fn is_link_state_trap(pdu: &remos_snmp::Pdu) -> bool {
    use remos_snmp::oid::well_known;
    if pdu.pdu_type != remos_snmp::PduType::TrapV2 {
        return false;
    }
    pdu.bindings.iter().any(|b| {
        b.oid == well_known::snmp_trap_oid()
            && matches!(
                &b.value,
                remos_snmp::Value::ObjectId(o)
                    if *o == well_known::link_down_trap() || *o == well_known::link_up_trap()
            )
    })
}

/// Something that can let measured time pass — in the simulated setting,
/// running the network engine forward. The Remos facade uses this between
/// counter reads; the elapsed time *is* the measurement cost the paper
/// attributes to adaptation decisions.
pub trait Clock: Send {
    /// Let `d` of network time elapse.
    fn advance(&mut self, d: SimDuration) -> CoreResult<()>;
}

/// Clock over the shared simulator.
pub struct SimClock(pub remos_snmp::sim::SharedSim);

impl Clock for SimClock {
    fn advance(&mut self, d: SimDuration) -> CoreResult<()> {
        self.0.lock().run_for(d).map_err(RemosError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(t_secs: u64, util: &[f64]) -> Snapshot {
        Snapshot::fresh(SimTime::from_secs(t_secs), SimDuration::from_secs(1), util)
    }

    #[test]
    fn history_bounds_and_order() {
        let mut h = SampleHistory::new(3);
        for i in 0..5 {
            h.push(snap(i, &[i as f64]));
        }
        assert_eq!(h.len(), 3);
        let ts: Vec<u64> = h.all().map(|s| s.t.as_nanos() / 1_000_000_000).collect();
        assert_eq!(ts, vec![2, 3, 4]);
        assert_eq!(h.latest().unwrap().util[0], 4.0);
    }

    #[test]
    fn window_filtering() {
        let mut h = SampleHistory::default();
        for i in 0..10 {
            h.push(snap(i, &[0.0]));
        }
        let recent = h.within(SimDuration::from_secs(3));
        assert_eq!(recent.len(), 4); // t=6,7,8,9
        assert!(h.within(SimDuration::from_secs(100)).len() == 10);
    }

    #[test]
    fn evicted_planes_are_writable_only_while_no_entry_shares_them() {
        let mut h = SampleHistory::new(2);
        assert!(h.recycle_oldest().is_none(), "nothing to recycle until full");
        let first = snap(0, &[1.0]);
        // The second entry shares the first one's quality plane only.
        let second = Snapshot { t: SimTime::from_secs(1), util: Arc::from([2.0]), ..first.clone() };
        h.push(first);
        h.push(second);
        // A restamp moves the stamp and keeps both planes.
        let planes = |s: &Snapshot| (Arc::as_ptr(&s.util), Arc::as_ptr(&s.quality));
        let (before, g) = (planes(h.latest().unwrap()), h.generation());
        assert!(h.restamp_latest(SimTime::from_secs(5), SimDuration::from_secs(4)));
        assert!(h.generation() > g, "a restamp changes the sample set");
        let latest = h.latest().unwrap();
        assert_eq!((latest.t, latest.interval), (SimTime::from_secs(5), SimDuration::from_secs(4)));
        assert_eq!(planes(latest), before);
        // The evicted entry's own util plane is writable; the quality
        // plane the surviving entry still reads is not.
        let mut evicted = h.recycle_oldest().unwrap();
        assert_eq!(Arc::get_mut(&mut evicted.util).map(|u| u[0]), Some(1.0));
        assert!(Arc::get_mut(&mut evicted.quality).is_none(), "a later entry shares it");
        // Rediscovery: interface indices change meaning, so no buffer
        // survives it to be recycled.
        h.push(snap(6, &[3.0]));
        h.clear();
        assert!(!h.restamp_latest(SimTime::from_secs(9), SimDuration::ZERO));
        assert!(h.recycle_oldest().is_none(), "clear leaves nothing to recycle");
        h.push(snap(8, &[5.0]));
        assert!(h.recycle_oldest().is_none());
    }

    #[test]
    fn clear_empties() {
        let mut h = SampleHistory::default();
        h.push(snap(0, &[1.0]));
        assert!(!h.is_empty());
        h.clear();
        assert!(h.is_empty());
        assert!(h.latest().is_none());
    }
}
