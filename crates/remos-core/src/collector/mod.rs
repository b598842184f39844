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
/// The two planes are shared, immutable buffers: a producer writes a
/// plane only through `Arc::get_mut` (or `make_mut`), i.e. only while no
/// one else holds it. So while a plane is held, an equal pointer means
/// equal bits, and a producer that publishes a plane it did not write
/// shares it with the entry before (which a [`SampleHistory`] stores for
/// nothing).
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// End of the measurement interval.
    pub t: SimTime,
    /// Length of the interval the rates were averaged over.
    pub interval: SimDuration,
    /// Utilization in bits/s, indexed by [`DirLink::index`] of the
    /// collector's topology, or in [`Collector::coverage`] order.
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

/// A plane element a history diffs: equal only when bit for bit equal
/// (`-0.0` differs from `0.0`, a NaN equals itself).
trait PlaneValue: Copy {
    fn same(self, other: Self) -> bool;
}

impl PlaneValue for Bps {
    fn same(self, other: Bps) -> bool {
        self.to_bits() == other.to_bits()
    }
}

impl PlaneValue for DataQuality {
    fn same(self, other: DataQuality) -> bool {
        self == other
    }
}

/// What takes one plane of the entry after an older entry back to that
/// entry's plane.
#[derive(Clone, Debug)]
enum Undo<T> {
    /// Set back the last `k` pairs of the history's ring for this plane
    /// kind (0: the planes are equal).
    Pairs(u32),
    /// The older plane itself: smaller than its pairs would be, or of
    /// another length.
    Whole(Arc<[T]>),
}

/// An older history entry: its stamp and its undo against the entry
/// after it.
#[derive(Clone, Debug)]
struct Older {
    t: SimTime,
    interval: SimDuration,
    util: Undo<Bps>,
    quality: Undo<DataQuality>,
}

/// The undo that takes plane `new` back to `old`, its pairs appended to
/// `ring`, and `old` when no undo keeps it (the caller's spare). Costs
/// nothing when the two share a buffer.
fn diff<T: PlaneValue>(
    old: Arc<[T]>,
    new: &Arc<[T]>,
    ring: &mut VecDeque<(u32, T)>,
) -> (Undo<T>, Option<Arc<[T]>>) {
    if Arc::ptr_eq(&old, new) {
        return (Undo::Pairs(0), None);
    }
    if old.len() != new.len() || u32::try_from(old.len()).is_err() {
        return (Undo::Whole(old), None);
    }
    // Pairs pay only while they take less room than the plane.
    let most = (old.len() * size_of::<T>()).saturating_sub(1) / size_of::<(u32, T)>();
    let start = ring.len();
    for (i, (&a, &b)) in (0u32..).zip(old.iter().zip(new.iter())) {
        if !a.same(b) {
            if ring.len() - start == most {
                ring.truncate(start);
                return (Undo::Whole(old), None);
            }
            ring.push_back((i, a));
        }
    }
    (Undo::Pairs((ring.len() - start) as u32), Some(old))
}

/// Drop an evicted undo: its pairs leave the front of `ring`, and its
/// whole plane becomes the spare if there is none.
fn release<T>(undo: Undo<T>, ring: &mut VecDeque<(u32, T)>, spare: &mut Option<Arc<[T]>>) {
    match undo {
        Undo::Pairs(k) => drop(ring.drain(..k as usize)),
        Undo::Whole(plane) => drop(spare.get_or_insert(plane)),
    }
}

/// `src` as a published plane: written into `old` (a history's spare)
/// when `Arc::get_mut` grants it, i.e. no one else holds it, else copied
/// into a new one.
pub(crate) fn refill<T: Copy>(old: Option<Arc<[T]>>, src: &[T]) -> Arc<[T]> {
    if let Some(mut plane) = old {
        if let Some(buf) = Arc::get_mut(&mut plane).filter(|b| b.len() == src.len()) {
            buf.copy_from_slice(src);
            return plane;
        }
    }
    Arc::from(src)
}

/// Bounded history of utilization snapshots.
///
/// The newest entry is kept whole: the [`Snapshot`] [`latest`] returns.
/// Every older entry is stored as its *undo* against the entry after
/// it, per plane: the `(index, old value)` pairs where the two differ,
/// or the whole old plane when that is smaller. A plane pushed
/// pointer-equal (or bit-equal) to the newest costs nothing. So a
/// history whose samples move a few entries a poll holds one pair of
/// whole planes, not one per entry. Older entries are read by
/// rebuilding them newest → oldest, bit for bit, through [`rewind`].
///
/// The pairs of every entry live in one reused ring per plane kind, and
/// a plane [`push`] displaces that no undo keeps is held as a *spare*:
/// the buffer a producer's next publish writes into
/// ([`take_spare_util`]). So a steady-state producer allocates nothing.
///
/// [`latest`]: SampleHistory::latest
/// [`rewind`]: SampleHistory::rewind
/// [`push`]: SampleHistory::push
/// [`take_spare_util`]: SampleHistory::take_spare_util
#[derive(Clone, Debug)]
pub struct SampleHistory {
    newest: Option<Snapshot>,
    /// Entries before the newest, oldest first.
    older: VecDeque<Older>,
    /// The `Pairs` undos of `older`, in its order: an entry's pairs
    /// follow those of every older entry.
    util_pairs: VecDeque<(u32, Bps)>,
    quality_pairs: VecDeque<(u32, DataQuality)>,
    spare_util: Option<Arc<[Bps]>>,
    spare_quality: Option<Arc<[DataQuality]>>,
    max_len: usize,
    /// Monotone counter bumped whenever the sample set changes (a snapshot
    /// appended or restamped, or the history cleared on rediscovery).
    /// Consumers use it to tell whether two reads of the history saw the
    /// same samples.
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
        SampleHistory {
            newest: None,
            older: VecDeque::new(),
            util_pairs: VecDeque::new(),
            quality_pairs: VecDeque::new(),
            spare_util: None,
            spare_quality: None,
            max_len,
            generation: 0,
        }
    }

    /// The most samples the history holds.
    pub(crate) fn capacity(&self) -> usize {
        self.max_len
    }

    /// Append a snapshot, evicting the oldest if full. The entry it
    /// displaces keeps only its undo against `s`; a plane of it that no
    /// undo keeps becomes the spare.
    pub fn push(&mut self, s: Snapshot) {
        self.generation += 1;
        let Some(prev) = self.newest.replace(s) else { return };
        let Some(new) = &self.newest else { return };
        if self.max_len == 1 {
            // No older entry is kept, so nothing is diffed: a plane the
            // new one does not share is spare as it stands.
            if !Arc::ptr_eq(&prev.util, &new.util) {
                self.spare_util = Some(prev.util);
            }
            if !Arc::ptr_eq(&prev.quality, &new.quality) {
                self.spare_quality = Some(prev.quality);
            }
            return;
        }
        if self.older.len() + 1 == self.max_len {
            if let Some(evicted) = self.older.pop_front() {
                release(evicted.util, &mut self.util_pairs, &mut self.spare_util);
                release(evicted.quality, &mut self.quality_pairs, &mut self.spare_quality);
            }
        }
        let (util, spare_util) = diff(prev.util, &new.util, &mut self.util_pairs);
        let (quality, spare_quality) = diff(prev.quality, &new.quality, &mut self.quality_pairs);
        self.spare_util = spare_util.or(self.spare_util.take());
        self.spare_quality = spare_quality.or(self.spare_quality.take());
        self.older.push_back(Older { t: prev.t, interval: prev.interval, util, quality });
    }

    /// Move the latest sample's `t`/`interval` in place: what a re-read
    /// of unchanged values would have pushed. Counts as a change of the
    /// sample set. `false` when there is no sample to restamp.
    pub fn restamp_latest(&mut self, t: SimTime, interval: SimDuration) -> bool {
        let Some(s) = &mut self.newest else { return false };
        (s.t, s.interval) = (t, interval);
        self.generation += 1;
        true
    }

    /// The most recent sample.
    pub fn latest(&self) -> Option<&Snapshot> {
        self.newest.as_ref()
    }

    /// Walk every stored sample, newest → oldest, rebuilding each older
    /// one into `buf` (reused: a warm walk allocates nothing).
    pub fn rewind<'h, 'b>(&'h self, buf: &'b mut RewindBuf) -> Rewind<'h, 'b> {
        Rewind {
            started: false,
            left: self.older.len(),
            util: self.newest.as_ref().map(|s| &s.util[..]),
            quality: self.newest.as_ref().map(|s| &s.quality[..]),
            util_end: self.util_pairs.len(),
            quality_end: self.quality_pairs.len(),
            history: self,
            buf,
        }
    }

    /// The util plane the last [`push`] displaced that no entry keeps, for
    /// a producer to write its next sample into (when `Arc::get_mut`
    /// grants it). Taking it does not change the sample set.
    ///
    /// [`push`]: SampleHistory::push
    pub fn take_spare_util(&mut self) -> Option<Arc<[Bps]>> {
        self.spare_util.take()
    }

    /// The quality plane counterpart of [`take_spare_util`].
    ///
    /// [`take_spare_util`]: SampleHistory::take_spare_util
    pub fn take_spare_quality(&mut self) -> Option<Arc<[DataQuality]>> {
        self.spare_quality.take()
    }

    /// Number of stored samples.
    pub fn len(&self) -> usize {
        usize::from(self.newest.is_some()) + self.older.len()
    }

    /// True when no samples are stored.
    pub fn is_empty(&self) -> bool {
        self.newest.is_none()
    }

    /// Discard all samples (used when the topology is re-discovered and
    /// interface indices change meaning), spares included.
    pub fn clear(&mut self) {
        self.newest = None;
        self.older.clear();
        self.util_pairs.clear();
        self.quality_pairs.clear();
        (self.spare_util, self.spare_quality) = (None, None);
        self.generation += 1;
    }

    /// Whether the newest undo — what takes the latest sample back to the
    /// one before it — is empty, per `[util, quality]` plane: the two
    /// share the plane or equal it bit for bit. `[false; 2]` with fewer
    /// than two samples.
    pub fn newest_undo_is_empty(&self) -> [bool; 2] {
        match self.older.back() {
            Some(o) => [matches!(o.util, Undo::Pairs(0)), matches!(o.quality, Undo::Pairs(0))],
            None => [false; 2],
        }
    }

    /// Monotone snapshot-generation counter: bumped on every push,
    /// restamp and clear. Equal generations guarantee equal sample sets.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

/// Buffers [`SampleHistory::rewind`] rebuilds older samples into.
#[derive(Clone, Debug, Default)]
pub struct RewindBuf {
    util: Vec<Bps>,
    quality: Vec<DataQuality>,
}

/// One stored sample as [`Rewind::next_sample`] rebuilt it.
#[derive(Clone, Copy, Debug)]
pub struct Sample<'a> {
    /// End of the measurement interval.
    pub t: SimTime,
    /// Length of the interval the rates were averaged over.
    pub interval: SimDuration,
    /// The sample's util plane, bit for bit.
    pub util: &'a [Bps],
    /// The sample's quality plane.
    pub quality: &'a [DataQuality],
}

/// A walk over a [`SampleHistory`], newest → oldest (see
/// [`SampleHistory::rewind`]).
pub struct Rewind<'h, 'b> {
    history: &'h SampleHistory,
    buf: &'b mut RewindBuf,
    started: bool,
    /// Older entries not yet visited: `history.older[..left]`.
    left: usize,
    /// Where the current sample's planes are: a stored plane, or `buf`
    /// (`None`).
    util: Option<&'h [Bps]>,
    quality: Option<&'h [DataQuality]>,
    /// End of the ring pairs not yet applied.
    util_end: usize,
    quality_end: usize,
}

impl Rewind<'_, '_> {
    /// The next older sample, or `None` past the oldest.
    pub fn next_sample(&mut self) -> Option<Sample<'_>> {
        let h = self.history;
        let (t, interval) = if self.started {
            self.left = self.left.checked_sub(1)?;
            let o = h.older.get(self.left)?;
            undo(&o.util, &mut self.util, &mut self.buf.util, &h.util_pairs, &mut self.util_end);
            undo(
                &o.quality,
                &mut self.quality,
                &mut self.buf.quality,
                &h.quality_pairs,
                &mut self.quality_end,
            );
            (o.t, o.interval)
        } else {
            let s = h.newest.as_ref()?;
            self.started = true;
            (s.t, s.interval)
        };
        Some(Sample {
            t,
            interval,
            util: self.util.unwrap_or(&self.buf.util),
            quality: self.quality.unwrap_or(&self.buf.quality),
        })
    }
}

/// Apply one undo to the current plane (`cur`, or `buf` when `None`):
/// pairs are set back in `buf`, the ring's `..end` being the pairs not
/// yet applied.
fn undo<'h, T: Copy>(
    undo: &'h Undo<T>,
    cur: &mut Option<&'h [T]>,
    buf: &mut Vec<T>,
    ring: &VecDeque<(u32, T)>,
    end: &mut usize,
) {
    match *undo {
        Undo::Whole(ref plane) => *cur = Some(plane),
        Undo::Pairs(0) => {}
        Undo::Pairs(k) => {
            if let Some(plane) = cur.take() {
                buf.clear();
                buf.extend_from_slice(plane);
            }
            let start = *end - k as usize;
            for &(i, v) in ring.range(start..*end) {
                buf[i as usize] = v;
            }
            *end = start;
        }
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
    /// all of them. A covering collector's [`Snapshot`] entry `k` is
    /// interface `coverage()[k]`, so only a federation reads its samples.
    /// Region-scoped shard collectors report their slice of a shared
    /// fabric here so a federation can attribute each merged entry to the
    /// children that observe it.
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

    /// Every stored sample as rebuilt, newest first: stamp, util bits and
    /// quality.
    type Rebuilt = (SimTime, SimDuration, Vec<u64>, Vec<DataQuality>);

    fn rebuilt(h: &SampleHistory, buf: &mut RewindBuf) -> Vec<Rebuilt> {
        let mut out = Vec::new();
        let mut walk = h.rewind(buf);
        while let Some(s) = walk.next_sample() {
            out.push((
                s.t,
                s.interval,
                s.util.iter().map(|u| u.to_bits()).collect(),
                s.quality.to_vec(),
            ));
        }
        out
    }

    fn owned(s: &Snapshot) -> Rebuilt {
        (s.t, s.interval, s.util.iter().map(|u| u.to_bits()).collect(), s.quality.to_vec())
    }

    #[test]
    fn history_bounds_and_order() {
        let mut h = SampleHistory::new(3);
        for i in 0..5 {
            h.push(snap(i, &[i as f64]));
        }
        assert_eq!(h.len(), 3);
        let newest_first: Vec<(u64, u64)> = rebuilt(&h, &mut RewindBuf::default())
            .iter()
            .map(|(t, _, u, _)| (t.as_nanos() / 1_000_000_000, u[0]))
            .collect();
        let bits = |v: f64| v.to_bits();
        assert_eq!(newest_first, vec![(4, bits(4.0)), (3, bits(3.0)), (2, bits(2.0))]);
        assert_eq!(h.latest().unwrap().util[0], 4.0);
    }

    #[test]
    fn displaced_planes_are_spare_and_writable_only_while_no_one_holds_them() {
        let mut h = SampleHistory::new(2);
        let first = snap(0, &[1.0, 7.0, 7.0, 7.0]);
        // The second entry shares the first one's quality plane only.
        let second = Snapshot {
            t: SimTime::from_secs(1),
            util: Arc::from([2.0, 7.0, 7.0, 7.0]),
            ..first.clone()
        };
        h.push(first);
        assert!(h.take_spare_util().is_none(), "nothing displaced yet");
        h.push(second);
        assert_eq!(h.newest_undo_is_empty(), [false, true]);
        // A restamp moves the stamp and keeps both planes.
        let planes = |s: &Snapshot| (Arc::as_ptr(&s.util), Arc::as_ptr(&s.quality));
        let (before, g) = (planes(h.latest().unwrap()), h.generation());
        assert!(h.restamp_latest(SimTime::from_secs(5), SimDuration::from_secs(4)));
        assert!(h.generation() > g, "a restamp changes the sample set");
        let latest = h.latest().unwrap();
        assert_eq!((latest.t, latest.interval), (SimTime::from_secs(5), SimDuration::from_secs(4)));
        assert_eq!(planes(latest), before);
        // The displaced util plane is spare and writable, and rewriting it
        // leaves the entry it was displaced from intact. The quality plane
        // the newest entry still reads was never displaced.
        let g = h.generation();
        let mut spare = h.take_spare_util().unwrap();
        assert_eq!(h.generation(), g, "taking a spare changes no sample");
        assert!(h.take_spare_quality().is_none(), "the newest entry shares it");
        Arc::get_mut(&mut spare).unwrap().copy_from_slice(&[2.0, 8.0, 7.0, 7.0]);
        let older = rebuilt(&h, &mut RewindBuf::default()).pop().unwrap();
        assert_eq!(older.2, [1.0f64, 7.0, 7.0, 7.0].map(f64::to_bits));
        // Publishing the refilled spare displaces the newest plane; a
        // reader still holds it, so it is spare but not writable.
        let newest = h.latest().unwrap().clone();
        h.push(Snapshot { t: SimTime::from_secs(6), util: spare, ..newest.clone() });
        let reader = newest.util;
        let mut held = h.take_spare_util().unwrap();
        assert!(Arc::ptr_eq(&held, &reader) && Arc::get_mut(&mut held).is_none());
        // Rediscovery: interface indices change meaning, so no buffer
        // survives it to be refilled.
        h.push(snap(7, &[3.0]));
        h.clear();
        assert!(!h.restamp_latest(SimTime::from_secs(9), SimDuration::ZERO));
        assert!(h.take_spare_util().is_none() && h.take_spare_quality().is_none());
        assert_eq!(h.newest_undo_is_empty(), [false; 2]);
    }

    #[test]
    fn clear_empties() {
        let mut h = SampleHistory::default();
        h.push(snap(0, &[1.0]));
        assert!(!h.is_empty());
        h.clear();
        assert!(h.is_empty());
        assert!(h.latest().is_none());
        assert!(rebuilt(&h, &mut RewindBuf::default()).is_empty());
    }

    mod properties {
        use super::*;
        use remos_prop::prelude::*;

        const UTIL: [f64; 6] = [0.0, -0.0, 1.0, 2.5, 1e9, f64::NAN];
        const QUALITY: [DataQuality; 4] = [
            DataQuality::Fresh,
            DataQuality::Stale { age: SimDuration::from_secs(1) },
            DataQuality::Stale { age: SimDuration::from_secs(2) },
            DataQuality::Missing,
        ];

        /// The next sample one tape word asks for, given the reference
        /// history (newest last) and the history's spare planes.
        fn next_sample(
            w: u64,
            width: usize,
            reference: &VecDeque<Snapshot>,
            h: &mut SampleHistory,
        ) -> Snapshot {
            let pick = |k: u32| (w >> k) as usize;
            let t = SimTime::from_secs(
                reference.back().map_or(0, |s| s.t.as_nanos() / 1_000_000_000 + 1),
            );
            let interval = SimDuration::from_millis(pick(40) as u64 % 3);
            let dense = |width: usize| -> Snapshot {
                let util: Vec<f64> =
                    (0..width).map(|i| UTIL[(pick(8) + i * pick(12)) % 6]).collect();
                let quality: Vec<DataQuality> =
                    (0..width).map(|i| QUALITY[(pick(16) + i) % 4]).collect();
                Snapshot { t, interval, util: util.into(), quality: quality.into() }
            };
            let Some(last) = reference.back() else { return dense(width) };
            let mut util = last.util.to_vec();
            let mut quality = last.quality.to_vec();
            match (w >> 4) % 8 {
                // Both planes shared.
                0 | 1 => return Snapshot { t, interval, ..last.clone() },
                // Equal bits in fresh buffers.
                2 => {}
                // A few entries move (to -0.0 and NaN among others), and
                // the quality plane is shared or moves too.
                3 | 4 => {
                    for k in 0..1 + pick(20) % 2 {
                        let i = (pick(24) + k * 5) % util.len().max(1);
                        if let Some(u) = util.get_mut(i) {
                            *u = UTIL[pick(28 + k as u32) % 6];
                        }
                    }
                    if pick(32) % 2 == 0 {
                        return Snapshot {
                            t,
                            interval,
                            util: util.into(),
                            quality: Arc::clone(&last.quality),
                        };
                    }
                    let i = pick(34) % quality.len().max(1);
                    if let Some(q) = quality.get_mut(i) {
                        *q = QUALITY[pick(36) % 4];
                    }
                }
                // Back to the values of the sample before the newest.
                5 => {
                    if let Some(prev) =
                        reference.len().checked_sub(2).and_then(|i| reference.get(i))
                    {
                        (util, quality) = (prev.util.to_vec(), prev.quality.to_vec());
                    }
                }
                // Every entry redrawn, at this width or (drift) another.
                6 => return dense(if pick(44) % 3 == 0 { width + 1 } else { width }),
                // A producer refilling the spare planes where it may.
                _ => {
                    if let Some(u) = util.get_mut(pick(24) % width) {
                        *u = UTIL[pick(28) % 6];
                    }
                    let util = refill(h.take_spare_util(), &util);
                    let quality = refill(h.take_spare_quality(), &quality);
                    return Snapshot { t, interval, util, quality };
                }
            }
            Snapshot { t, interval, util: util.into(), quality: quality.into() }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Replaying a random tape of pushes (shared, bit-equal,
            /// sparse, changing back, dense, drifting in width, refilling
            /// spares), restamps and clears, every rebuilt entry equals a
            /// plain `VecDeque<Snapshot>` reference's bit for bit, newest
            /// first, and so do the length and the generation.
            #[test]
            fn rebuilt_history_matches_a_plain_deque(
                tape in prop::collection::vec(any::<u64>(), 0..80),
                cap in 1usize..7,
                width in 1usize..10,
            ) {
                let mut h = SampleHistory::new(cap);
                let mut reference: VecDeque<Snapshot> = VecDeque::new();
                let mut generation = 0u64;
                let mut buf = RewindBuf::default();
                for (step, &w) in tape.iter().enumerate() {
                    match w % 16 {
                        0 => {
                            let t = SimTime::from_secs(1000 + step as u64);
                            let stamp = (t, SimDuration::from_secs(2));
                            let restamped = h.restamp_latest(stamp.0, stamp.1);
                            prop_assert_eq!(restamped, !reference.is_empty());
                            if let Some(s) = reference.back_mut() {
                                (s.t, s.interval) = stamp;
                                generation += 1;
                            }
                        }
                        1 => {
                            h.clear();
                            reference.clear();
                            generation += 1;
                        }
                        _ => {
                            let s = next_sample(w, width, &reference, &mut h);
                            if reference.len() == cap {
                                reference.pop_front();
                            }
                            reference.push_back(s.clone());
                            h.push(s);
                            generation += 1;
                        }
                    }
                    prop_assert_eq!(h.len(), reference.len());
                    prop_assert_eq!(h.generation(), generation);
                    let want: Vec<Rebuilt> = reference.iter().rev().map(owned).collect();
                    prop_assert_eq!(rebuilt(&h, &mut buf), want, "step {}", step);
                }
            }
        }
    }
}
