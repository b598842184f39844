//! Simulation time.
//!
//! Virtual time is kept as an integer number of nanoseconds so that event
//! ordering is exact and runs are bit-for-bit reproducible. Durations derived
//! from fluid-rate computations are rounded up to the next nanosecond, which
//! guarantees progress (a positive remaining volume never yields a zero
//! duration).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Nanoseconds per second.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

/// An instant on the simulation clock (nanoseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulation time (nanoseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; no scheduled event may carry this timestamp.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from whole nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * NANOS_PER_SEC)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from fractional seconds, rounding to the nearest nanosecond.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s >= 0.0 && s.is_finite(), "invalid time: {s}");
        SimTime((s * NANOS_PER_SEC as f64).round() as u64)
    }

    /// Nanoseconds since simulation start.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Time elapsed since `earlier`. Panics if `earlier` is in the future.
    ///
    /// The `SimTime`/`SimDuration` operators cannot return `Result`:
    /// violating their documented preconditions (time going backwards,
    /// u64 nanosecond overflow) is a caller bug, and a panic with a
    /// precise message is the contract. Fallible callers use the
    /// checked/saturating variants instead.
    #[inline]
    #[expect(clippy::expect_used, reason = "a violated precondition is a caller bug; the panic is the contract")]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("SimTime::since: earlier is in the future"),
        )
    }

    /// Saturating difference; zero if `earlier` is in the future.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// `self + d`, or `None` if that is past the end of the clock — for
    /// callers whose span comes from data (the `+` operator panics).
    #[inline]
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from whole nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * NANOS_PER_SEC)
    }

    /// Construct from fractional seconds, rounding *up* to the next
    /// nanosecond so that positive spans never collapse to zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s >= 0.0 && s.is_finite(), "invalid duration: {s}");
        SimDuration((s * NANOS_PER_SEC as f64).ceil() as u64)
    }

    /// Length in nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Length in seconds, as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// True when the duration is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Scale by an integer factor.
    #[inline]
    pub const fn mul_u64(self, k: u64) -> Self {
        SimDuration(self.0 * k)
    }

    /// The sum, clamped at `u64::MAX` nanoseconds instead of overflowing
    /// (how path latencies add up).
    #[inline]
    pub const fn saturating_add(self, rhs: SimDuration) -> Self {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    #[expect(clippy::expect_used, reason = "a violated precondition is a caller bug; the panic is the contract")]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    #[expect(clippy::expect_used, reason = "a violated precondition is a caller bug; the panic is the contract")]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimDuration underflow"))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_secs(3).as_nanos(), 3 * NANOS_PER_SEC);
        assert_eq!(SimTime::from_secs_f64(0.5).as_nanos(), NANOS_PER_SEC / 2);
        assert_eq!(SimDuration::from_millis(1500).as_secs_f64(), 1.5);
        assert_eq!(SimDuration::from_micros(250).as_nanos(), 250_000);
    }

    #[test]
    fn duration_from_secs_rounds_up() {
        // A tiny positive span must not collapse to zero.
        let d = SimDuration::from_secs_f64(1e-12);
        assert!(d.as_nanos() >= 1);
        assert_eq!(SimDuration::from_secs_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(1) + SimDuration::from_millis(500);
        assert_eq!(t.as_secs_f64(), 1.5);
        assert_eq!(t.since(SimTime::from_secs(1)).as_secs_f64(), 0.5);
        assert_eq!(
            SimTime::from_secs(1).saturating_since(t),
            SimDuration::ZERO
        );
    }

    #[test]
    #[should_panic(expected = "earlier is in the future")]
    fn since_panics_when_reversed() {
        let _ = SimTime::from_secs(1).since(SimTime::from_secs(2));
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert!(SimDuration::from_millis(999) < SimDuration::from_secs(1));
    }
}
