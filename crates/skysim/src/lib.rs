//! # skysim — simulated hardware environment for the SkyLoader reproduction
//!
//! The SC 2005 SkyLoader paper ran on hardware we do not have: an 8-processor
//! SGI Altix database server, SAN-attached RAID arrays on three separate disk
//! controllers, Gigabit Ethernet between a Condor cluster and the server, and
//! client nodes with 1 GB of RAM. The *shapes* of the paper's evaluation
//! figures are produced by that hardware: per-database-call network round
//! trips (Figs. 4 and 5), client paging when the `array-set` outgrows memory
//! (Fig. 6), CPU saturation and lock stalls on the server (Fig. 7), and disk
//! service time for data, index and log I/O (Figs. 8 and 9).
//!
//! This crate provides that hardware as a set of explicit, calibratable cost
//! models. All *algorithmic* work in the reproduction (B+-tree maintenance,
//! constraint checking, batching, parsing) is real; only the hardware we lack
//! is injected as precisely timed waits. Every model:
//!
//! * performs an optional **real wait** (hybrid sleep/spin, scaled by a
//!   [`TimeScale`] so unit tests can set the scale to zero and run instantly),
//! * always **accounts** the modeled time into shared [`metrics`] counters so
//!   tests can assert on modeled costs without waiting.
//!
//! The sub-modules are:
//!
//! * [`time`] — virtual [`time::SimClock`], [`TimeScale`], precision waiter.
//! * [`metrics`] — lock-free event counters and modeled-time charges.
//! * [`net`] — [`net::NetworkModel`]: round-trip latency + bandwidth per call.
//! * [`disk`] — [`disk::DiskDevice`] / [`disk::DiskFarm`]: per-page service
//!   times with real queueing across a configurable set of devices.
//! * [`cpu`] — [`cpu::CpuGate`]: an N-permit execution gate modeling the
//!   8-processor database host, plus a general counting [`cpu::Semaphore`].
//! * [`mem`] — [`mem::MemoryModel`]: client resident-set budget with paging
//!   penalties past the budget.
//! * [`cluster`] — Condor-style work distribution: dynamic on-the-fly
//!   assignment versus static partitioning across worker nodes.
//! * [`rng`] — small deterministic PRNG (SplitMix64) for reproducible
//!   workloads without external dependencies.
//! * [`arrival`] — deterministic Poisson file-arrival schedules (with burst
//!   compression) for the live micro-batch ingest mode.

#![warn(missing_docs)]

pub mod arrival;
pub mod cluster;
pub mod cpu;
pub mod disk;
pub mod mem;
pub mod metrics;
pub mod net;
pub mod rng;
pub mod time;

pub use arrival::ArrivalSchedule;
pub use cluster::{run_dynamic, run_static, AssignmentPolicy, NodeSpec};
pub use cpu::{CpuGate, Semaphore};
pub use disk::{DiskDevice, DiskFarm, DiskModel};
pub use mem::MemoryModel;
pub use metrics::{Counter, TimeCharge};
pub use net::NetworkModel;
pub use rng::SplitMix64;
pub use time::{SimClock, TimeScale, Waiter};
