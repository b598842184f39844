//! Sharded-coordinator determinism fixtures: the federation's
//! epoch-vector digest is an order-sensitive sink (covered by the
//! `digest` name rule), and the scoped pool's *index-ordered* fan-out
//! is the sanctioned way to collect per-shard results — the pool
//! returns results in input-index order no matter how the workers
//! schedule, so a `Vec` of shards stays order-stable end to end. This
//! file is ANALYZED by the audit's fixture tests, never compiled.

/// CLEAN: shards live in a `Vec` and the pool's fan-out preserves
/// input-index order, so the epoch vector fed to the digest is
/// identical across runs regardless of worker interleaving.
pub fn sanctioned_fan_out(shards: &Vec<Shard>, workers: usize) -> u64 {
    let epochs = pool::run_indexed(shards, workers, |s| s.epoch());
    epoch_digest(&epochs)
}

/// VIOLATION: collecting the per-shard epochs out of a `HashMap` walks
/// it in hash order, so the plan-cache key digests differently between
/// two identical runs.
pub fn hashed_fan_out(shards: &HashMap<u32, Shard>) -> u64 {
    let epochs: Vec<u64> = shards.values().map(|s| s.epoch()).collect();
    epoch_digest(&epochs)
}

/// The epoch-vector digest: FNV-1a over per-shard structure epochs.
/// Order-sensitive by construction, hence a taint sink by name.
fn epoch_digest(epochs: &[u64]) -> u64 {
    let mut d = 0xcbf29ce484222325u64;
    for e in epochs {
        d = (d ^ e).wrapping_mul(0x100000001b3);
    }
    d
}
