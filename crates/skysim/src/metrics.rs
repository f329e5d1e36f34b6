//! Lock-free metrics primitives shared across the reproduction.
//!
//! Every substrate (database engine, loader, cost models) exposes its
//! behaviour through these counters so experiments can assert on *modeled*
//! quantities (database calls, page writes, lock waits, modeled nanoseconds)
//! independently of wall-clock time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter starting at zero.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Increment by one, returning the previous value.
    #[inline]
    pub fn inc(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed)
    }

    /// Increment by `n`, returning the previous value.
    #[inline]
    pub fn add(&self, n: u64) -> u64 {
        self.0.fetch_add(n, Ordering::Relaxed)
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Accumulated modeled time, in nanoseconds.
///
/// Cost models charge modeled durations here even when the [`TimeScale`]
/// suppresses the real wait, so tests can assert "this configuration modeled
/// X ms of network time" deterministically.
///
/// [`TimeScale`]: crate::time::TimeScale
#[derive(Debug, Default)]
pub struct TimeCharge(AtomicU64);

impl TimeCharge {
    /// A charge accumulator starting at zero.
    pub const fn new() -> Self {
        TimeCharge(AtomicU64::new(0))
    }

    /// Add a modeled duration.
    #[inline]
    pub fn charge(&self, d: Duration) {
        let nanos = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.0.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Total modeled nanoseconds charged.
    #[inline]
    pub fn nanos(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Total modeled time charged.
    #[inline]
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.nanos())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        assert_eq!(c.inc(), 0);
        assert_eq!(c.add(4), 1);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn time_charge_accumulates() {
        let t = TimeCharge::new();
        t.charge(Duration::from_micros(3));
        t.charge(Duration::from_nanos(10));
        assert_eq!(t.nanos(), 3010);
        assert_eq!(t.duration(), Duration::from_nanos(3010));
    }
}
