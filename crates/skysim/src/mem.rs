//! Client memory model: resident-set budget with paging penalties.
//!
//! §4.3 / Fig. 6: "A large array-set may consume too much memory on the
//! client machine and cause excessive memory paging. This slowdown on the
//! client … is reflected in degraded loading performance on the database
//! server." The paper's Condor nodes had 1 GB of RAM; past roughly
//! `array-size ≈ 1000` the array-set outgrew the resident budget and runtime
//! rose again.
//!
//! [`MemoryModel`] reproduces that knee: the loader registers the bytes it
//! keeps resident (the array-set), and touching memory beyond the budget
//! charges page faults at a configurable penalty.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::metrics::{Counter, TimeCharge};
use crate::time::{TimeScale, Waiter};

/// Resident-set budget + page-fault penalty for one client host.
///
/// Cloneable handle; clones share the accounting.
#[derive(Debug, Clone)]
pub struct MemoryModel {
    inner: Arc<MemInner>,
}

#[derive(Debug)]
struct MemInner {
    budget_bytes: u64,
    page_bytes: u64,
    fault_penalty: Duration,
    resident: AtomicI64,
    peak: AtomicI64,
    faults: Counter,
    modeled: TimeCharge,
    waiter: Waiter,
}

impl MemoryModel {
    /// A model with a resident budget, page size and per-fault penalty.
    ///
    /// # Panics
    /// Panics if `page_bytes` is zero.
    pub fn new(
        budget_bytes: u64,
        page_bytes: u64,
        fault_penalty: Duration,
        scale: TimeScale,
    ) -> Self {
        assert!(page_bytes > 0, "page size must be positive");
        MemoryModel {
            inner: Arc::new(MemInner {
                budget_bytes,
                page_bytes,
                fault_penalty,
                resident: AtomicI64::new(0),
                peak: AtomicI64::new(0),
                faults: Counter::new(),
                modeled: TimeCharge::new(),
                waiter: Waiter::new(scale),
            }),
        }
    }

    /// An unconstrained client (no budget pressure, zero penalties).
    pub fn unconstrained() -> Self {
        MemoryModel::new(u64::MAX / 2, 4096, Duration::ZERO, TimeScale::ZERO)
    }

    /// Register `bytes` of newly resident allocation.
    pub fn allocate(&self, bytes: u64) {
        let now = self
            .inner
            .resident
            .fetch_add(bytes as i64, Ordering::Relaxed)
            + bytes as i64;
        self.inner.peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Release `bytes` of resident allocation.
    pub fn release(&self, bytes: u64) {
        self.inner
            .resident
            .fetch_sub(bytes as i64, Ordering::Relaxed);
    }

    /// Currently registered resident bytes.
    pub fn resident(&self) -> u64 {
        self.inner.resident.load(Ordering::Relaxed).max(0) as u64
    }

    /// Peak registered resident bytes.
    pub fn peak(&self) -> u64 {
        self.inner.peak.load(Ordering::Relaxed).max(0) as u64
    }

    /// Bytes currently resident *beyond* the budget (zero if within budget).
    pub fn overcommit(&self) -> u64 {
        self.resident().saturating_sub(self.inner.budget_bytes)
    }

    /// Charge the cost of touching `bytes` of the registered allocation.
    ///
    /// While within budget, touching is free. When the resident set exceeds
    /// the budget, a proportional share of the touched pages is assumed to
    /// fault: touching `b` bytes with an overcommit ratio `o = over/resident`
    /// charges `o * b / page_bytes` faults. This is the standard LRU-under-
    /// uniform-touch approximation and yields the Fig. 6 knee without
    /// simulating an OS.
    pub fn touch(&self, bytes: u64) {
        let resident = self.resident();
        if resident == 0 {
            return;
        }
        let over = self.overcommit();
        if over == 0 {
            return;
        }
        let ratio = over as f64 / resident as f64;
        let faulting_pages = (bytes as f64 * ratio / self.inner.page_bytes as f64).ceil() as u64;
        if faulting_pages == 0 {
            return;
        }
        self.inner.faults.add(faulting_pages);
        let cost =
            Duration::from_nanos(self.inner.fault_penalty.as_nanos() as u64 * faulting_pages);
        self.inner.modeled.charge(cost);
        self.inner.waiter.wait(cost);
    }

    /// Page faults charged so far.
    pub fn faults(&self) -> u64 {
        self.inner.faults.get()
    }

    /// Total modeled paging time.
    pub fn modeled_time(&self) -> Duration {
        self.inner.modeled.duration()
    }

    /// The configured budget in bytes.
    pub fn budget(&self) -> u64 {
        self.inner.budget_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(budget: u64) -> MemoryModel {
        MemoryModel::new(budget, 1024, Duration::from_micros(10), TimeScale::ZERO)
    }

    #[test]
    fn within_budget_is_free() {
        let m = tiny(1_000_000);
        m.allocate(500_000);
        m.touch(500_000);
        assert_eq!(m.faults(), 0);
        assert_eq!(m.modeled_time(), Duration::ZERO);
    }

    #[test]
    fn overcommit_faults_proportionally() {
        let m = tiny(1_000_000);
        m.allocate(2_000_000); // 50% overcommit
        m.touch(1024 * 100); // 100 pages touched → ~50 fault
        assert!(
            m.faults() >= 50 && m.faults() <= 51,
            "faults = {}",
            m.faults()
        );
        assert!(m.modeled_time() >= Duration::from_micros(500));
    }

    #[test]
    fn release_restores_budget() {
        let m = tiny(1_000_000);
        m.allocate(2_000_000);
        assert_eq!(m.overcommit(), 1_000_000);
        m.release(1_500_000);
        assert_eq!(m.overcommit(), 0);
        m.touch(1024 * 100);
        assert_eq!(m.faults(), 0);
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let m = tiny(u64::MAX / 2);
        m.allocate(100);
        m.allocate(200);
        m.release(250);
        m.allocate(10);
        assert_eq!(m.peak(), 300);
        assert_eq!(m.resident(), 60);
    }

    #[test]
    fn unconstrained_never_faults() {
        let m = MemoryModel::unconstrained();
        m.allocate(1 << 40);
        m.touch(1 << 40);
        assert_eq!(m.faults(), 0);
    }
}
