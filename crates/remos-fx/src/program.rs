//! Data-parallel program models.
//!
//! A program is a one-time `startup` phase list followed by `iterations`
//! repetitions of `body`. Iteration boundaries are the *migration points*
//! (§8.3: "iterative applications that adapt (if necessary) at the
//! beginning of every iteration of an outer loop"); the runtime guarantees
//! all communication has completed there, matching the paper's
//! replicated-data migration model.

/// A collective communication pattern over the program's ranks.
///
/// Byte counts are *per logical transfer* as seen by the pattern; the
/// runtime turns them into point-to-point flows.
#[derive(Clone, Debug, PartialEq)]
pub enum CommPattern {
    /// Every rank sends `bytes_per_pair` to every other rank (matrix
    /// transpose / redistribution).
    AllToAll {
        /// Bytes each ordered pair exchanges.
        bytes_per_pair: u64,
    },
    /// Rank `root` sends `bytes` to every other rank.
    Broadcast {
        /// Sending rank.
        root: usize,
        /// Bytes per destination.
        bytes: u64,
    },
    /// Every rank but `root` sends `bytes` to `root` (reduction/gather
    /// traffic shape).
    Gather {
        /// Receiving rank.
        root: usize,
        /// Bytes per source.
        bytes: u64,
    },
    /// Rank i sends `bytes` to rank (i+1) mod P (nearest-neighbour shift
    /// / pipeline stage).
    Ring {
        /// Bytes per hop.
        bytes: u64,
    },
}

impl CommPattern {
    /// The point-to-point transfers (src rank, dst rank, bytes) this
    /// pattern induces on `p` ranks.
    pub fn transfers(&self, p: usize) -> Vec<(usize, usize, u64)> {
        match *self {
            CommPattern::AllToAll { bytes_per_pair } => {
                let mut v = Vec::with_capacity(p * (p - 1));
                for s in 0..p {
                    for d in 0..p {
                        if s != d {
                            v.push((s, d, bytes_per_pair));
                        }
                    }
                }
                v
            }
            CommPattern::Broadcast { root, bytes } => {
                (0..p).filter(|&d| d != root % p).map(|d| (root % p, d, bytes)).collect()
            }
            CommPattern::Gather { root, bytes } => {
                (0..p).filter(|&s| s != root % p).map(|s| (s, root % p, bytes)).collect()
            }
            CommPattern::Ring { bytes } => {
                (0..p).map(|s| (s, (s + 1) % p, bytes)).collect()
            }
        }
    }

    /// Total bytes moved on `p` ranks.
    pub fn total_bytes(&self, p: usize) -> u64 {
        self.transfers(p).iter().map(|&(_, _, b)| b).sum()
    }
}

/// One synchronous phase.
#[derive(Clone, Debug, PartialEq)]
pub enum Phase {
    /// Computation: `parallel_flops` split evenly over the ranks, plus
    /// `replicated_flops` performed identically by every rank (the
    /// sequential fraction of codes like Airshed).
    Compute {
        /// Work divided across ranks.
        parallel_flops: f64,
        /// Work replicated on every rank.
        replicated_flops: f64,
    },
    /// Collective communication.
    Comm(CommPattern),
}

/// An iterated data-parallel program.
#[derive(Clone, Debug)]
pub struct Program {
    /// Display name.
    pub name: String,
    /// Rank count the program was compiled for. The runtime may execute
    /// it on fewer *nodes* (ranks are block-distributed), reproducing the
    /// paper's compiled-for-8-run-on-5 imbalance artifact.
    pub ranks: usize,
    /// One-time phases before the outer loop.
    pub startup: Vec<Phase>,
    /// Phases of one outer-loop iteration.
    pub body: Vec<Phase>,
    /// Outer-loop iteration count.
    pub iterations: usize,
}

impl Program {
    /// Total floating-point work of the whole run (startup + iterations),
    /// counting replicated work once per rank.
    pub fn total_flops(&self) -> f64 {
        let phase_flops = |ph: &Phase| match ph {
            Phase::Compute { parallel_flops, replicated_flops } => {
                parallel_flops + replicated_flops * self.ranks as f64
            }
            Phase::Comm(_) => 0.0,
        };
        let startup: f64 = self.startup.iter().map(phase_flops).sum();
        let body: f64 = self.body.iter().map(phase_flops).sum();
        startup + body * self.iterations as f64
    }

    /// Total bytes communicated over the whole run.
    pub fn total_comm_bytes(&self) -> u64 {
        let phase_bytes = |ph: &Phase| match ph {
            Phase::Comm(c) => c.total_bytes(self.ranks),
            Phase::Compute { .. } => 0,
        };
        let startup: u64 = self.startup.iter().map(phase_bytes).sum();
        let body: u64 = self.body.iter().map(phase_bytes).sum();
        startup + body * self.iterations as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_to_all_transfers() {
        let t = CommPattern::AllToAll { bytes_per_pair: 10 }.transfers(3);
        assert_eq!(t.len(), 6);
        assert!(t.contains(&(0, 1, 10)));
        assert!(t.contains(&(2, 0, 10)));
        assert!(!t.iter().any(|&(s, d, _)| s == d));
        assert_eq!(CommPattern::AllToAll { bytes_per_pair: 10 }.total_bytes(3), 60);
    }

    #[test]
    fn broadcast_and_gather() {
        let b = CommPattern::Broadcast { root: 1, bytes: 5 }.transfers(4);
        assert_eq!(b.len(), 3);
        assert!(b.iter().all(|&(s, _, _)| s == 1));
        let g = CommPattern::Gather { root: 0, bytes: 7 }.transfers(4);
        assert_eq!(g.len(), 3);
        assert!(g.iter().all(|&(_, d, _)| d == 0));
    }

    #[test]
    fn ring_wraps() {
        let r = CommPattern::Ring { bytes: 1 }.transfers(3);
        assert_eq!(r, vec![(0, 1, 1), (1, 2, 1), (2, 0, 1)]);
    }

    #[test]
    fn program_totals() {
        let p = Program {
            name: "toy".into(),
            ranks: 4,
            startup: vec![Phase::Compute { parallel_flops: 100.0, replicated_flops: 0.0 }],
            body: vec![
                Phase::Compute { parallel_flops: 40.0, replicated_flops: 10.0 },
                Phase::Comm(CommPattern::AllToAll { bytes_per_pair: 2 }),
            ],
            iterations: 5,
        };
        // startup 100 + 5 * (40 + 10*4)
        assert_eq!(p.total_flops(), 100.0 + 5.0 * 80.0);
        // 5 * 12 pairs * 2 bytes
        assert_eq!(p.total_comm_bytes(), 5 * 12 * 2);
    }
}
