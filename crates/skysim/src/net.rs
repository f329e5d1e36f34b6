//! Network cost model: Gigabit-Ethernet-like round trips between the loader
//! clients and the database server.
//!
//! The paper (§3) identifies the network as "the first bottleneck to fast
//! data loading" and §4.2 motivates bulk loading precisely as a way to
//! minimize "network roundtrip traffic". Every database call in the `skydb`
//! wire layer therefore pays:
//!
//! * one fixed **round-trip latency** (request + response), and
//! * **serialization delay** proportional to the payload size at the modeled
//!   link bandwidth.
//!
//! The defaults approximate the paper's environment: a Gigabit Ethernet
//! interface (~120 MB/s effective) and LAN round trips in the few-hundred
//! microsecond range once JDBC driver overheads are included.

use std::sync::Arc;
use std::time::Duration;

use crate::metrics::{Counter, TimeCharge};
use crate::time::{TimeScale, Waiter};

/// Round-trip + bandwidth cost model for one client↔server link.
///
/// Cloneable handle; clones share counters and the waiter, modeling multiple
/// sessions over the same physical link.
#[derive(Debug, Clone)]
pub struct NetworkModel {
    inner: Arc<Inner>,
}

#[derive(Debug)]
struct Inner {
    rtt: Duration,
    bytes_per_sec: u64,
    waiter: Waiter,
    calls: Counter,
    bytes: Counter,
    modeled: TimeCharge,
}

impl NetworkModel {
    /// Effective Gigabit Ethernet payload bandwidth (bytes/second).
    pub const GIGE_BYTES_PER_SEC: u64 = 120_000_000;

    /// Default modeled round trip: LAN + driver + marshaling overhead.
    pub const DEFAULT_RTT: Duration = Duration::from_micros(300);

    /// A model with explicit round-trip latency and bandwidth.
    ///
    /// # Panics
    /// Panics if `bytes_per_sec` is zero.
    pub fn new(rtt: Duration, bytes_per_sec: u64, scale: TimeScale) -> Self {
        assert!(bytes_per_sec > 0, "bandwidth must be positive");
        NetworkModel {
            inner: Arc::new(Inner {
                rtt,
                bytes_per_sec,
                waiter: Waiter::new(scale),
                calls: Counter::new(),
                bytes: Counter::new(),
                modeled: TimeCharge::new(),
            }),
        }
    }

    /// The paper-like default: GigE bandwidth, 300µs RTT.
    pub fn gige(scale: TimeScale) -> Self {
        NetworkModel::new(Self::DEFAULT_RTT, Self::GIGE_BYTES_PER_SEC, scale)
    }

    /// A free network (no latency, effectively infinite bandwidth). Useful
    /// for isolating server-side costs in ablations.
    pub fn free() -> Self {
        NetworkModel::new(Duration::ZERO, u64::MAX, TimeScale::ZERO)
    }

    /// Modeled cost of one call transferring `bytes` of payload.
    pub fn cost_of(&self, bytes: usize) -> Duration {
        let xfer = if self.inner.bytes_per_sec == u64::MAX {
            Duration::ZERO
        } else {
            Duration::from_nanos(
                (bytes as u128 * 1_000_000_000 / self.inner.bytes_per_sec as u128) as u64,
            )
        };
        self.inner.rtt + xfer
    }

    /// Account (and, depending on the scale, wait out) one round trip
    /// carrying `bytes` of payload. Returns the modeled cost.
    pub fn round_trip(&self, bytes: usize) -> Duration {
        let cost = self.cost_of(bytes);
        self.inner.calls.inc();
        self.inner.bytes.add(bytes as u64);
        self.inner.modeled.charge(cost);
        self.inner.waiter.wait(cost);
        cost
    }

    /// Account (and, depending on the scale, wait out) an extra one-off
    /// delay on the link — a latency spike beyond the modeled round trip
    /// (congestion, a retransmit burst, a GC pause on the far side). Used
    /// by fault injection; charged to the same modeled-time counter as
    /// regular round trips so spikes show up in experiment accounting.
    pub fn delay(&self, spike: Duration) -> Duration {
        self.inner.modeled.charge(spike);
        self.inner.waiter.wait(spike);
        spike
    }

    /// Total round trips accounted so far.
    pub fn calls(&self) -> u64 {
        self.inner.calls.get()
    }

    /// Total payload bytes accounted so far.
    pub fn bytes(&self) -> u64 {
        self.inner.bytes.get()
    }

    /// Total modeled network time.
    pub fn modeled_time(&self) -> Duration {
        self.inner.modeled.duration()
    }

    /// The configured round-trip latency.
    pub fn rtt(&self) -> Duration {
        self.inner.rtt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_is_rtt_plus_transfer() {
        let net = NetworkModel::new(Duration::from_micros(100), 1_000_000, TimeScale::ZERO);
        // 1000 bytes at 1 MB/s = 1 ms transfer.
        assert_eq!(
            net.cost_of(1000),
            Duration::from_micros(100) + Duration::from_millis(1)
        );
    }

    #[test]
    fn round_trip_accounts_without_waiting_at_zero_scale() {
        let net = NetworkModel::gige(TimeScale::ZERO);
        let c = net.round_trip(1200);
        assert_eq!(net.calls(), 1);
        assert_eq!(net.bytes(), 1200);
        assert_eq!(net.modeled_time(), c);
        assert!(c >= NetworkModel::DEFAULT_RTT);
    }

    #[test]
    fn free_network_costs_nothing() {
        let net = NetworkModel::free();
        assert_eq!(net.round_trip(10_000_000), Duration::ZERO);
        assert_eq!(net.modeled_time(), Duration::ZERO);
        assert_eq!(net.calls(), 1);
    }

    #[test]
    fn clones_share_counters() {
        let net = NetworkModel::gige(TimeScale::ZERO);
        let net2 = net.clone();
        net.round_trip(10);
        net2.round_trip(20);
        assert_eq!(net.calls(), 2);
        assert_eq!(net.bytes(), 30);
    }

    #[test]
    fn batching_amortizes_round_trips() {
        // The core premise of Fig. 4: N singleton calls cost ~N RTTs, one
        // batched call carrying the same bytes costs ~1 RTT.
        let net = NetworkModel::gige(TimeScale::ZERO);
        let row = 100usize;
        let n = 40usize;
        let singleton: Duration = (0..n).map(|_| net.round_trip(row)).sum();
        let batched = net.round_trip(row * n);
        assert!(singleton > batched * 10);
    }
}
