//! Arithmetic the benchmark's numbers rest on: the input generator's
//! PRNG, percentiles, the lap median and spread, span self time, and the
//! digest fold. Nothing here touches the repo's crates.

/// SplitMix64, owned by the generator so inputs do not depend on which
/// `rand` the repo links (the offline harness stubs it).
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2^-40 for
    /// every bound the generator uses.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `(0, 1]`, so `ln` of it is finite.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// `count` distinct values from `0..n`, in draw order.
    pub fn distinct(&mut self, n: u64, count: usize) -> Vec<u64> {
        assert!(
            count as u64 <= n,
            "cannot draw {count} distinct values from 0..{n}"
        );
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            let v = self.below(n);
            if !out.contains(&v) {
                out.push(v);
            }
        }
        out
    }
}

/// Nearest-rank percentile of an unsorted sample; 0 for an empty one.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median: mean of the two middle values for an even count.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(max - min) / median` of the per-lap values of one metric.
pub fn spread(samples: &[f64]) -> f64 {
    let m = median(samples);
    if samples.is_empty() || m == 0.0 {
        return 0.0;
    }
    let max = samples.iter().copied().fold(f64::MIN, f64::max);
    let min = samples.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / m
}

/// Length of `[start, end)` not covered by any child interval. Children
/// may overlap each other (parallel shard polls) and stick out of the
/// parent; the union is clipped to the parent.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let (mut covered, mut reach) = (0, start);
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (end - start).saturating_sub(covered)
}

/// FNV-1a fold of one 64-bit word into a running digest.
pub fn fold(digest: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(digest, |d, &b| {
        (d ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a offset basis: the digest of nothing.
pub const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_the_reference_stream() {
        // First outputs of the reference implementation for seed 0.
        let mut r = SplitMix64::new(0);
        assert_eq!(r.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(r.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(r.next_u64(), 0x06c4_5d18_8009_454f);
    }

    #[test]
    fn splitmix64_helpers_stay_in_range() {
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
            let u = r.unit();
            assert!(u > 0.0 && u <= 1.0);
        }
        let d = r.distinct(16, 16);
        let mut sorted = d.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..16).collect::<Vec<u64>>());
        assert_eq!(
            SplitMix64::new(3).distinct(100, 8),
            SplitMix64::new(3).distinct(100, 8)
        );
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[4.0], 0.5), 4.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn lap_median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(spread(&[10.0, 12.0, 11.0]), 2.0 / 11.0);
        assert_eq!(spread(&[5.0]), 0.0);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Two parallel children overlapping on [20, 30): union is 30 long.
        assert_eq!(self_time(0, 100, &[(10, 30), (20, 40)]), 70);
        // Nested, disjoint, and out-of-order children.
        assert_eq!(self_time(0, 100, &[(50, 60), (10, 40), (15, 20)]), 60);
        // Children are clipped to the parent.
        assert_eq!(self_time(10, 20, &[(0, 12), (18, 50)]), 6);
        assert_eq!(self_time(10, 20, &[(0, 50)]), 0);
        assert_eq!(self_time(10, 20, &[]), 10);
    }

    #[test]
    fn fold_is_fnv1a_over_little_endian_bytes() {
        assert_eq!(fold(DIGEST_SEED, 0), 0xa8c7_f832_281a_39c5);
        assert_ne!(fold(fold(DIGEST_SEED, 1), 2), fold(fold(DIGEST_SEED, 2), 1));
    }
}
