//! The workspace's one digest fold: 64-bit FNV-1a.
//!
//! Every determinism fingerprint — the simulator's event and rate
//! digests, what-if FCT digests, graph digests, federation epochs, trace
//! and serving-decision digests — folds through [`Fnv`]. FNV-1a is tiny,
//! dependency-free and, unlike `DefaultHasher`, stable across Rust
//! releases, platforms and processes. It is *not* collision-resistant:
//! a regression tripwire, not an integrity mechanism.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental, order-sensitive 64-bit FNV-1a fold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv {
    /// A fresh fold (the FNV-1a offset basis).
    pub const fn new() -> Fnv {
        Fnv(OFFSET)
    }

    /// Fold raw bytes.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// Fold a `u64`, little-endian.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Fold an `f64` by bit pattern: exact, so a 1-ulp drift (or
    /// `0.0` against `-0.0`) changes the value.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The value folded so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_fnv_vector() {
        // FNV-1a of "a" is a published test vector.
        let mut d = Fnv::new();
        d.bytes(b"a");
        assert_eq!(d.value(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn order_sensitive() {
        let mut a = Fnv::new();
        a.u64(1);
        a.u64(2);
        let mut b = Fnv::new();
        b.u64(2);
        b.u64(1);
        assert_ne!(a, b);
    }

    #[test]
    fn f64_bit_exact() {
        let fold = |v: f64| {
            let mut d = Fnv::new();
            d.f64(v);
            d
        };
        // 0.1 + 0.2 != 0.3 in binary64; the digest must see the difference.
        assert_ne!(fold(0.1 + 0.2), fold(0.3));
        // Negative zero and zero differ by bit pattern, deliberately.
        assert_ne!(fold(0.0), fold(-0.0));
    }
}
