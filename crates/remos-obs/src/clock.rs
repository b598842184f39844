//! Explicitly-injected clock sources for latency measurement.
//!
//! Nothing in this workspace may read wall-clock time implicitly — the
//! determinism contract forbids it, and clippy's `disallowed_types`
//! (remos-obs's `clippy.toml`) enforces that. Latency
//! histograms therefore run off a [`ClockSource`] that a *top-level*
//! caller injects deliberately: the CLI's `obs` command installs
//! [`WallClock`] for real measurements; tests install [`ManualClock`];
//! library code installs nothing, and latency observation is skipped
//! entirely.
//!
//! This file is the one sanctioned home of wall-clock reads, so it is
//! the one file that expects the lint.

#![expect(clippy::disallowed_types, reason = "the one sanctioned wall-clock source")]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonic nanosecond source.
pub trait ClockSource: Send {
    /// Nanoseconds since an arbitrary fixed origin.
    fn nanos(&self) -> u64;
}

/// Real monotonic time, anchored at construction. Only ever constructed
/// by top-level binaries that *want* wall-clock latency numbers.
pub struct WallClock {
    origin: std::time::Instant,
}

impl WallClock {
    /// A wall clock starting at zero now.
    pub fn new() -> WallClock {
        WallClock { origin: std::time::Instant::now() }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl ClockSource for WallClock {
    fn nanos(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A hand-driven clock for tests: shared, settable, deterministic.
#[derive(Clone, Default)]
pub struct ManualClock(Arc<AtomicU64>);

impl ManualClock {
    /// A manual clock at zero.
    pub fn new() -> ManualClock {
        ManualClock::default()
    }

    /// Set the current reading.
    pub fn set(&self, nanos: u64) {
        self.0.store(nanos, Ordering::Relaxed);
    }

    /// Advance the reading.
    pub fn advance(&self, nanos: u64) {
        self.0.fetch_add(nanos, Ordering::Relaxed);
    }
}

impl ClockSource for ManualClock {
    fn nanos(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_is_settable() {
        let c = ManualClock::new();
        assert_eq!(c.nanos(), 0);
        c.set(5);
        c.advance(7);
        assert_eq!(c.nanos(), 12);
        // Clones share state.
        let d = c.clone();
        d.advance(1);
        assert_eq!(c.nanos(), 13);
    }

    #[test]
    fn wall_clock_is_monotonic() {
        let c = WallClock::new();
        let a = c.nanos();
        let b = c.nanos();
        assert!(b >= a);
    }
}
