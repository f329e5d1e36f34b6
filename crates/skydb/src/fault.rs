//! The deterministic fault-plan engine.
//!
//! The paper's §3 makes "automatic recovery from errors" a basic
//! requirement of the loading framework; exercising that requirement needs
//! a richer failure source than the original every-Nth connection reset.
//! A [`FaultPlan`] decides, per client call, whether to inject one of six
//! fault kinds — connection reset, transient "server busy", a latency
//! spike, disk-full on the commit's WAL flush, a crash mid-flush (torn log
//! write), or per-batch payload corruption — each with an independently
//! configurable rate or schedule.
//!
//! Every decision is a **pure function of the plan's seed and the call's
//! ordinal** (via [`SplitMix64`]). Class-specific kinds use per-class
//! ordinals, so one seed reproduces them regardless of which loader thread
//! issues a given call: the *n*-th commit tears its flush on every run, the
//! *k*-th batch is corrupt on every run. Connection-level kinds (reset,
//! busy, latency) use the plan-global ordinal: the faulted ordinals are
//! fixed by the seed, but which session's call draws one depends on thread
//! interleaving when several sessions share the plan. A single-session run
//! replays exactly.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use skysim::rng::SplitMix64;

use crate::error::DbError;

/// The injectable fault kinds, in decision-priority order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// Crash during the commit's log flush: a torn WAL write, then every
    /// later call fails with [`DbError::ServerDown`] until recovery.
    CrashOnFlush,
    /// The log device rejects the commit's WAL flush
    /// ([`DbError::DiskFull`]); the transaction stays open and retryable.
    DiskFull,
    /// The server detects a corrupted batch payload and rejects the whole
    /// call before applying any row ([`DbError::Corruption`]).
    Corruption,
    /// Connection reset ([`DbError::Protocol`]), the legacy fault.
    Reset,
    /// Transient overload ([`DbError::ServerBusy`]).
    Busy,
    /// A latency spike: the call stalls for the configured duration, and
    /// fails with [`DbError::Timeout`] if the session's call budget is
    /// shorter than the spike.
    Latency,
    /// A whole loader process dies mid-file (the Condor "job killed" case):
    /// it loads a truncated prefix, then vanishes without releasing its
    /// lease. Decided per file grant, injected by the fleet layer.
    LoaderKill,
    /// A loader freezes mid-file (a "zombie"): it stops heartbeating, its
    /// lease is reclaimed and the file reassigned, and then it wakes up and
    /// tries to flush stale work — which fencing must reject. Decided per
    /// file grant, injected by the fleet layer.
    LoaderStall,
    /// The campaign coordinator crashes at the shadow→live swap point,
    /// after the shadow season is fully loaded but around the atomic
    /// rename. Recovery must either complete the swap or roll it back from
    /// the persisted campaign manifest — never serve a torn catalog.
    /// Decided per swap attempt, injected by the campaign layer.
    SwapCrash,
    /// A burst in the live-mode arrival process: the next few inter-arrival
    /// gaps collapse, piling micro-batches onto the ingest path and
    /// stressing the freshness SLO. Decided per file arrival, injected by
    /// the live-ingest layer.
    ArrivalBurst,
    /// Silent media rot: a bit flips in *stored* state — a heap page or a
    /// durable WAL record — long after the write barrier completed. Unlike
    /// [`FaultKind::Corruption`] (a bad request payload, rejected before
    /// apply), the damage lands in committed data and is only caught by the
    /// at-rest CRCs: the scrubber quarantines rotted heap rows, and WAL
    /// replay stops at the first bad record. Decided per rot opportunity,
    /// injected by the chaos harness.
    BitRot,
    /// A whole shard engine dies mid-ingest: its server stops answering
    /// ([`crate::error::DbError::ServerDown`]) until the shard supervisor
    /// fences the zone's epoch and rebuilds a replacement from the durable
    /// log. Decided per shard-fault opportunity, injected by the
    /// shard-chaos driver.
    ShardCrash,
    /// A shard's heartbeat stops but the engine stays up — the
    /// split-brain shape. The supervisor must fence the zone before
    /// re-granting it, so flushes from the stalled generation are
    /// rejected rather than double-applied. Decided per shard-fault
    /// opportunity, injected by the shard-chaos driver.
    ShardStall,
}

/// Every fault kind, for report iteration.
pub const FAULT_KINDS: [FaultKind; 13] = [
    FaultKind::CrashOnFlush,
    FaultKind::DiskFull,
    FaultKind::Corruption,
    FaultKind::Reset,
    FaultKind::Busy,
    FaultKind::Latency,
    FaultKind::LoaderKill,
    FaultKind::LoaderStall,
    FaultKind::SwapCrash,
    FaultKind::ArrivalBurst,
    FaultKind::BitRot,
    FaultKind::ShardCrash,
    FaultKind::ShardStall,
];

impl FaultKind {
    /// Stable label for report maps.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::CrashOnFlush => "crash_on_flush",
            FaultKind::DiskFull => "disk_full",
            FaultKind::Corruption => "corruption",
            FaultKind::Reset => "reset",
            FaultKind::Busy => "busy",
            FaultKind::Latency => "latency",
            FaultKind::LoaderKill => "loader_kill",
            FaultKind::LoaderStall => "loader_stall",
            FaultKind::SwapCrash => "swap_crash",
            FaultKind::ArrivalBurst => "arrival_burst",
            FaultKind::BitRot => "bit_rot",
            FaultKind::ShardCrash => "shard_crash",
            FaultKind::ShardStall => "shard_stall",
        }
    }

    /// Dense index for counter arrays.
    pub fn index(self) -> usize {
        match self {
            FaultKind::CrashOnFlush => 0,
            FaultKind::DiskFull => 1,
            FaultKind::Corruption => 2,
            FaultKind::Reset => 3,
            FaultKind::Busy => 4,
            FaultKind::Latency => 5,
            FaultKind::LoaderKill => 6,
            FaultKind::LoaderStall => 7,
            FaultKind::SwapCrash => 8,
            FaultKind::ArrivalBurst => 9,
            FaultKind::BitRot => 10,
            FaultKind::ShardCrash => 11,
            FaultKind::ShardStall => 12,
        }
    }
}

/// Which class of server call a fault decision applies to. Class-specific
/// kinds (disk-full, crash-on-flush on commits; corruption on batches) use
/// per-class ordinals so their schedules are independent of how many calls
/// of other classes interleave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallClass {
    /// A single-row insert.
    Single,
    /// A batched insert.
    Batch,
    /// A commit.
    Commit,
    /// A rollback.
    Rollback,
    /// A read query (scan / point lookup / index range). Queries see only
    /// connection-level faults — reset, busy, latency — never the
    /// write-path kinds.
    Query,
}

/// Configuration of a fault plan: one seed plus per-kind rates/schedules.
/// All rates are per-applicable-call Bernoulli probabilities in `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlanConfig {
    /// Seed every schedule derives from.
    pub seed: u64,
    /// Legacy schedule: fail every `n`th call with a connection reset
    /// (0 = off). Kept exact for the `inject_call_faults` shim.
    pub reset_every: u64,
    /// Connection-reset probability per call.
    pub reset_rate: f64,
    /// Server-busy probability per call.
    pub busy_rate: f64,
    /// Latency-spike probability per call.
    pub latency_rate: f64,
    /// Modeled duration of one latency spike.
    pub latency_spike: Duration,
    /// Disk-full probability per commit call.
    pub disk_full_rate: f64,
    /// Batch-corruption probability per batch call.
    pub corruption_rate: f64,
    /// Crash (torn WAL write) on the `n`-th commit call, 1-based.
    pub crash_on_flush_at: Option<u64>,
    /// Loader-kill probability per file grant (fleet-level fault).
    pub loader_kill_rate: f64,
    /// Loader-stall (zombie) probability per file grant (fleet-level fault).
    pub loader_stall_rate: f64,
    /// Kill the loader holding the `n`-th file grant, 1-based.
    pub loader_kill_at: Option<u64>,
    /// Stall the loader holding the `n`-th file grant, 1-based.
    pub loader_stall_at: Option<u64>,
    /// Crash the campaign coordinator at the `n`-th shadow→live swap
    /// attempt, 1-based (campaign-level fault).
    pub swap_crash_at: Option<u64>,
    /// Arrival-burst probability per file arrival (live-ingest fault).
    pub arrival_burst_rate: f64,
    /// Burst on the `n`-th file arrival, 1-based.
    pub arrival_burst_at: Option<u64>,
    /// Bit-rot probability per rot opportunity (the chaos harness polls the
    /// plan between micro-batches; each poll is one opportunity).
    pub bit_rot_rate: f64,
    /// Rot on the `n`-th opportunity, 1-based.
    pub bit_rot_at: Option<u64>,
    /// Shard-crash probability per shard-fault opportunity (the shard
    /// chaos driver polls the plan on a timer; each poll is one
    /// opportunity).
    pub shard_crash_rate: f64,
    /// Crash a shard on the `n`-th opportunity, 1-based.
    pub shard_crash_at: Option<u64>,
    /// Shard-stall (heartbeat freeze) probability per opportunity.
    pub shard_stall_rate: f64,
    /// Stall a shard on the `n`-th opportunity, 1-based.
    pub shard_stall_at: Option<u64>,
}

impl Default for FaultPlanConfig {
    /// Everything off; a 20 ms modeled spike if latency is enabled.
    fn default() -> Self {
        FaultPlanConfig {
            seed: 0,
            reset_every: 0,
            reset_rate: 0.0,
            busy_rate: 0.0,
            latency_rate: 0.0,
            latency_spike: Duration::from_millis(20),
            disk_full_rate: 0.0,
            corruption_rate: 0.0,
            crash_on_flush_at: None,
            loader_kill_rate: 0.0,
            loader_stall_rate: 0.0,
            loader_kill_at: None,
            loader_stall_at: None,
            swap_crash_at: None,
            arrival_burst_rate: 0.0,
            arrival_burst_at: None,
            bit_rot_rate: 0.0,
            bit_rot_at: None,
            shard_crash_rate: 0.0,
            shard_crash_at: None,
            shard_stall_rate: 0.0,
            shard_stall_at: None,
        }
    }
}

impl FaultPlanConfig {
    /// A plan seeded with `seed` and everything off.
    pub fn new(seed: u64) -> Self {
        FaultPlanConfig {
            seed,
            ..FaultPlanConfig::default()
        }
    }

    /// Builder-style: connection-reset rate.
    pub fn with_resets(mut self, rate: f64) -> Self {
        self.reset_rate = rate;
        self
    }

    /// Builder-style: server-busy rate.
    pub fn with_busy(mut self, rate: f64) -> Self {
        self.busy_rate = rate;
        self
    }

    /// Builder-style: latency-spike rate and spike duration.
    pub fn with_latency(mut self, rate: f64, spike: Duration) -> Self {
        self.latency_rate = rate;
        self.latency_spike = spike;
        self
    }

    /// Builder-style: disk-full rate (per commit).
    pub fn with_disk_full(mut self, rate: f64) -> Self {
        self.disk_full_rate = rate;
        self
    }

    /// Builder-style: batch-corruption rate (per batch).
    pub fn with_corruption(mut self, rate: f64) -> Self {
        self.corruption_rate = rate;
        self
    }

    /// Builder-style: crash on the `n`-th commit (1-based).
    pub fn with_crash_on_flush(mut self, nth_commit: u64) -> Self {
        self.crash_on_flush_at = Some(nth_commit);
        self
    }

    /// Builder-style: loader-kill rate (per file grant).
    pub fn with_loader_kills(mut self, rate: f64) -> Self {
        self.loader_kill_rate = rate;
        self
    }

    /// Builder-style: loader-stall rate (per file grant).
    pub fn with_loader_stalls(mut self, rate: f64) -> Self {
        self.loader_stall_rate = rate;
        self
    }

    /// Builder-style: kill the loader holding the `n`-th grant (1-based).
    pub fn with_loader_kill_at(mut self, nth_grant: u64) -> Self {
        self.loader_kill_at = Some(nth_grant);
        self
    }

    /// Builder-style: stall the loader holding the `n`-th grant (1-based).
    pub fn with_loader_stall_at(mut self, nth_grant: u64) -> Self {
        self.loader_stall_at = Some(nth_grant);
        self
    }

    /// Builder-style: crash the coordinator at the `n`-th swap (1-based).
    pub fn with_swap_crash_at(mut self, nth_swap: u64) -> Self {
        self.swap_crash_at = Some(nth_swap);
        self
    }

    /// Builder-style: arrival-burst rate (per file arrival).
    pub fn with_arrival_bursts(mut self, rate: f64) -> Self {
        self.arrival_burst_rate = rate;
        self
    }

    /// Builder-style: burst on the `n`-th file arrival (1-based).
    pub fn with_arrival_burst_at(mut self, nth_arrival: u64) -> Self {
        self.arrival_burst_at = Some(nth_arrival);
        self
    }

    /// Builder-style: bit-rot rate (per rot opportunity).
    pub fn with_bit_rot(mut self, rate: f64) -> Self {
        self.bit_rot_rate = rate;
        self
    }

    /// Builder-style: rot on the `n`-th opportunity (1-based).
    pub fn with_bit_rot_at(mut self, nth_opportunity: u64) -> Self {
        self.bit_rot_at = Some(nth_opportunity);
        self
    }

    /// Builder-style: shard-crash rate (per shard-fault opportunity).
    pub fn with_shard_crashes(mut self, rate: f64) -> Self {
        self.shard_crash_rate = rate;
        self
    }

    /// Builder-style: crash a shard on the `n`-th opportunity (1-based).
    pub fn with_shard_crash_at(mut self, nth_opportunity: u64) -> Self {
        self.shard_crash_at = Some(nth_opportunity);
        self
    }

    /// Builder-style: shard-stall rate (per shard-fault opportunity).
    pub fn with_shard_stalls(mut self, rate: f64) -> Self {
        self.shard_stall_rate = rate;
        self
    }

    /// Builder-style: stall a shard on the `n`-th opportunity (1-based).
    pub fn with_shard_stall_at(mut self, nth_opportunity: u64) -> Self {
        self.shard_stall_at = Some(nth_opportunity);
        self
    }

    /// Validate rates.
    pub fn validate(&self) -> Result<(), String> {
        for (name, r) in [
            ("reset_rate", self.reset_rate),
            ("busy_rate", self.busy_rate),
            ("latency_rate", self.latency_rate),
            ("disk_full_rate", self.disk_full_rate),
            ("corruption_rate", self.corruption_rate),
            ("loader_kill_rate", self.loader_kill_rate),
            ("loader_stall_rate", self.loader_stall_rate),
            ("arrival_burst_rate", self.arrival_burst_rate),
            ("bit_rot_rate", self.bit_rot_rate),
            ("shard_crash_rate", self.shard_crash_rate),
            ("shard_stall_rate", self.shard_stall_rate),
        ] {
            if !(0.0..=1.0).contains(&r) {
                return Err(format!("{name} must be in [0, 1], got {r}"));
            }
        }
        if self.crash_on_flush_at == Some(0) {
            return Err("crash_on_flush_at is 1-based; 0 never fires".into());
        }
        if self.loader_kill_at == Some(0) || self.loader_stall_at == Some(0) {
            return Err("loader_kill_at/loader_stall_at are 1-based; 0 never fires".into());
        }
        if self.swap_crash_at == Some(0) || self.arrival_burst_at == Some(0) {
            return Err("swap_crash_at/arrival_burst_at are 1-based; 0 never fires".into());
        }
        if self.bit_rot_at == Some(0) {
            return Err("bit_rot_at is 1-based; 0 never fires".into());
        }
        if self.shard_crash_at == Some(0) || self.shard_stall_at == Some(0) {
            return Err("shard_crash_at/shard_stall_at are 1-based; 0 never fires".into());
        }
        Ok(())
    }
}

/// What the plan decided for one call.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultDecision {
    /// No fault: dispatch normally.
    Proceed,
    /// Fail the call with this error before dispatch.
    Fail(FaultKind, DbError),
    /// Stall the call by this modeled duration (then dispatch, unless the
    /// session's call budget expires first).
    Delay(Duration),
    /// Tear the commit's WAL flush and crash the server.
    CrashFlush,
}

/// A live fault plan: configuration plus per-class call counters.
#[derive(Debug)]
pub struct FaultPlan {
    cfg: FaultPlanConfig,
    calls_seen: AtomicU64,
    batch_calls: AtomicU64,
    commit_calls: AtomicU64,
    grants: AtomicU64,
    swaps: AtomicU64,
    arrivals: AtomicU64,
    rot_events: AtomicU64,
    shard_events: AtomicU64,
}

impl FaultPlan {
    /// Build a plan from its configuration.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (rates outside `[0, 1]`).
    pub fn new(cfg: FaultPlanConfig) -> Self {
        cfg.validate().expect("valid fault-plan config");
        FaultPlan {
            cfg,
            calls_seen: AtomicU64::new(0),
            batch_calls: AtomicU64::new(0),
            commit_calls: AtomicU64::new(0),
            grants: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
            arrivals: AtomicU64::new(0),
            rot_events: AtomicU64::new(0),
            shard_events: AtomicU64::new(0),
        }
    }

    /// The legacy every-Nth connection-reset schedule, exactly as
    /// `Server::inject_call_faults` always behaved.
    pub fn every_nth(every: u64) -> Self {
        FaultPlan::new(FaultPlanConfig {
            reset_every: every,
            ..FaultPlanConfig::default()
        })
    }

    /// The plan's configuration.
    pub fn config(&self) -> &FaultPlanConfig {
        &self.cfg
    }

    /// Calls this plan has adjudicated.
    pub fn calls_seen(&self) -> u64 {
        self.calls_seen.load(Ordering::Relaxed)
    }

    /// Seed-deterministic Bernoulli draw for (kind, per-class ordinal):
    /// pure, so the schedule is independent of thread interleaving.
    fn fires(seed: u64, kind: FaultKind, ordinal: u64, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        if rate >= 1.0 {
            return true;
        }
        let salt = 0xA076_1D64_78BD_642F_u64.wrapping_mul(kind.index() as u64 + 1);
        let mut rng = SplitMix64::new(seed ^ salt.wrapping_add(ordinal));
        // Discard one output to decorrelate adjacent ordinals.
        rng.next_u64();
        rng.next_f64() < rate
    }

    /// Adjudicate one call. At most one fault fires per call; class-specific
    /// kinds take priority over connection-level kinds.
    pub fn decide(&self, class: CallClass) -> FaultDecision {
        let n = self.calls_seen.fetch_add(1, Ordering::Relaxed) + 1;
        let cfg = &self.cfg;
        match class {
            CallClass::Commit => {
                let c = self.commit_calls.fetch_add(1, Ordering::Relaxed) + 1;
                if cfg.crash_on_flush_at == Some(c) {
                    return FaultDecision::CrashFlush;
                }
                if Self::fires(cfg.seed, FaultKind::DiskFull, c, cfg.disk_full_rate) {
                    return FaultDecision::Fail(
                        FaultKind::DiskFull,
                        DbError::DiskFull("log device out of space (injected fault)".into()),
                    );
                }
            }
            CallClass::Batch => {
                let b = self.batch_calls.fetch_add(1, Ordering::Relaxed) + 1;
                if Self::fires(cfg.seed, FaultKind::Corruption, b, cfg.corruption_rate) {
                    return FaultDecision::Fail(
                        FaultKind::Corruption,
                        DbError::Corruption(
                            "batch payload checksum mismatch (injected fault); nothing applied"
                                .into(),
                        ),
                    );
                }
            }
            CallClass::Single | CallClass::Rollback | CallClass::Query => {}
        }
        if (cfg.reset_every != 0 && n.is_multiple_of(cfg.reset_every))
            || Self::fires(cfg.seed, FaultKind::Reset, n, cfg.reset_rate)
        {
            return FaultDecision::Fail(
                FaultKind::Reset,
                DbError::Protocol("connection reset by peer (injected fault)".into()),
            );
        }
        if Self::fires(cfg.seed, FaultKind::Busy, n, cfg.busy_rate) {
            return FaultDecision::Fail(
                FaultKind::Busy,
                DbError::ServerBusy("too many concurrent requests (injected fault)".into()),
            );
        }
        if Self::fires(cfg.seed, FaultKind::Latency, n, cfg.latency_rate) {
            return FaultDecision::Delay(cfg.latency_spike);
        }
        FaultDecision::Proceed
    }

    /// Adjudicate one file grant for the fleet layer: should the loader
    /// holding it die mid-file ([`FaultKind::LoaderKill`]) or freeze into a
    /// zombie ([`FaultKind::LoaderStall`])? Grant ordinals are 1-based and
    /// global across the plan, so — like every other schedule — the decision
    /// is a pure function of (seed, grant ordinal) and independent of which
    /// loader thread draws the grant. Kill takes priority over stall.
    pub fn decide_loader_fault(&self) -> Option<FaultKind> {
        let g = self.grants.fetch_add(1, Ordering::Relaxed) + 1;
        let cfg = &self.cfg;
        if cfg.loader_kill_at == Some(g)
            || Self::fires(cfg.seed, FaultKind::LoaderKill, g, cfg.loader_kill_rate)
        {
            return Some(FaultKind::LoaderKill);
        }
        if cfg.loader_stall_at == Some(g)
            || Self::fires(cfg.seed, FaultKind::LoaderStall, g, cfg.loader_stall_rate)
        {
            return Some(FaultKind::LoaderStall);
        }
        None
    }

    /// Adjudicate one shadow→live swap attempt for the campaign layer:
    /// should the coordinator crash at the swap point? Swap ordinals are
    /// 1-based and per-plan, so a `swap_crash_at: Some(1)` plan crashes the
    /// first attempt and lets the recovery retry through.
    pub fn decide_swap_fault(&self) -> Option<FaultKind> {
        let s = self.swaps.fetch_add(1, Ordering::Relaxed) + 1;
        if self.cfg.swap_crash_at == Some(s) {
            return Some(FaultKind::SwapCrash);
        }
        None
    }

    /// Adjudicate one file arrival for the live-ingest layer: should the
    /// arrival process burst here? Arrival ordinals are 1-based and pure
    /// functions of (seed, ordinal), so a seed reproduces the same burst
    /// pattern on every run.
    pub fn decide_arrival_fault(&self) -> Option<FaultKind> {
        let a = self.arrivals.fetch_add(1, Ordering::Relaxed) + 1;
        let cfg = &self.cfg;
        if cfg.arrival_burst_at == Some(a)
            || Self::fires(cfg.seed, FaultKind::ArrivalBurst, a, cfg.arrival_burst_rate)
        {
            return Some(FaultKind::ArrivalBurst);
        }
        None
    }

    /// Adjudicate one bit-rot opportunity for the chaos harness: should a
    /// stored bit flip here? Opportunity ordinals are 1-based and — like
    /// every other schedule — the decision is a pure function of
    /// (seed, ordinal), so a seed reproduces the same rot pattern on every
    /// run. The *site* of the rot (which table/row/byte, or which WAL
    /// offset) is derived by the harness from the same ordinal.
    pub fn decide_bit_rot_fault(&self) -> Option<FaultKind> {
        let r = self.rot_events.fetch_add(1, Ordering::Relaxed) + 1;
        let cfg = &self.cfg;
        if cfg.bit_rot_at == Some(r)
            || Self::fires(cfg.seed, FaultKind::BitRot, r, cfg.bit_rot_rate)
        {
            return Some(FaultKind::BitRot);
        }
        None
    }

    /// Adjudicate one shard-fault opportunity for the shard-chaos driver:
    /// should a whole shard engine crash ([`FaultKind::ShardCrash`]) or
    /// its heartbeat freeze ([`FaultKind::ShardStall`])? Opportunity
    /// ordinals are 1-based and pure functions of (seed, ordinal), so a
    /// seed reproduces the same kill schedule on every run; the *victim
    /// zone* is derived by the driver from the same ordinal. Crash takes
    /// priority over stall, mirroring the loader-fault precedence.
    pub fn decide_shard_fault(&self) -> Option<FaultKind> {
        let s = self.shard_events.fetch_add(1, Ordering::Relaxed) + 1;
        let cfg = &self.cfg;
        if cfg.shard_crash_at == Some(s)
            || Self::fires(cfg.seed, FaultKind::ShardCrash, s, cfg.shard_crash_rate)
        {
            return Some(FaultKind::ShardCrash);
        }
        if cfg.shard_stall_at == Some(s)
            || Self::fires(cfg.seed, FaultKind::ShardStall, s, cfg.shard_stall_rate)
        {
            return Some(FaultKind::ShardStall);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(plan: &FaultPlan, classes: &[CallClass]) -> Vec<FaultDecision> {
        classes.iter().map(|c| plan.decide(*c)).collect()
    }

    fn mixed_sequence(n: usize) -> Vec<CallClass> {
        (0..n)
            .map(|i| match i % 7 {
                0..=3 => CallClass::Batch,
                4 => CallClass::Single,
                5 => CallClass::Commit,
                _ => CallClass::Rollback,
            })
            .collect()
    }

    #[test]
    fn same_seed_same_schedule() {
        let cfg = FaultPlanConfig::new(42)
            .with_resets(0.05)
            .with_busy(0.05)
            .with_latency(0.05, Duration::from_millis(5))
            .with_disk_full(0.2)
            .with_corruption(0.1)
            .with_crash_on_flush(40);
        let seq = mixed_sequence(500);
        let a = drive(&FaultPlan::new(cfg.clone()), &seq);
        let b = drive(&FaultPlan::new(cfg), &seq);
        assert_eq!(a, b, "identical seed must reproduce the schedule");
        assert!(
            a.iter().any(|d| !matches!(d, FaultDecision::Proceed)),
            "plan with nonzero rates should fire"
        );
    }

    #[test]
    fn different_seeds_diverge() {
        let mk = |seed| {
            FaultPlanConfig::new(seed)
                .with_resets(0.1)
                .with_busy(0.1)
                .with_corruption(0.1)
        };
        let seq = mixed_sequence(400);
        let a = drive(&FaultPlan::new(mk(1)), &seq);
        let b = drive(&FaultPlan::new(mk(2)), &seq);
        assert_ne!(a, b);
    }

    #[test]
    fn class_specific_ordinals_are_interleave_independent() {
        // The same batch ordinals must get the same corruption decisions no
        // matter how many commits/singles are interleaved between them.
        let cfg = FaultPlanConfig::new(7).with_corruption(0.3);
        let pure_batches = drive(&FaultPlan::new(cfg.clone()), &[CallClass::Batch; 60]);
        let interleaved: Vec<CallClass> = (0..180)
            .map(|i| {
                if i % 3 == 0 {
                    CallClass::Batch
                } else if i % 3 == 1 {
                    CallClass::Single
                } else {
                    CallClass::Commit
                }
            })
            .collect();
        let mixed = drive(&FaultPlan::new(cfg), &interleaved);
        let mixed_batch_decisions: Vec<&FaultDecision> = interleaved
            .iter()
            .zip(mixed.iter())
            .filter(|(c, _)| **c == CallClass::Batch)
            .map(|(_, d)| d)
            .collect();
        for (i, (pure, inter)) in pure_batches.iter().zip(mixed_batch_decisions).enumerate() {
            // Corruption decisions only (connection-level kinds use the
            // global ordinal, which legitimately differs).
            let pure_corrupt = matches!(pure, FaultDecision::Fail(FaultKind::Corruption, _));
            let inter_corrupt = matches!(inter, FaultDecision::Fail(FaultKind::Corruption, _));
            assert_eq!(pure_corrupt, inter_corrupt, "batch ordinal {i}");
        }
    }

    #[test]
    fn every_nth_matches_legacy_semantics() {
        let plan = FaultPlan::every_nth(3);
        let out = drive(&plan, &[CallClass::Single; 9]);
        for (i, d) in out.iter().enumerate() {
            let should_fail = (i + 1) % 3 == 0;
            match d {
                FaultDecision::Fail(FaultKind::Reset, DbError::Protocol(m)) => {
                    assert!(should_fail, "call {} failed unexpectedly", i + 1);
                    assert!(m.contains("connection reset by peer"));
                }
                FaultDecision::Proceed => assert!(!should_fail, "call {} should fail", i + 1),
                other => panic!("unexpected decision {other:?}"),
            }
        }
        assert_eq!(plan.calls_seen(), 9);
    }

    #[test]
    fn crash_fires_on_exact_commit_ordinal() {
        let cfg = FaultPlanConfig::new(9).with_crash_on_flush(3);
        let plan = FaultPlan::new(cfg);
        let seq = [
            CallClass::Batch,
            CallClass::Commit,
            CallClass::Batch,
            CallClass::Commit,
            CallClass::Commit,
        ];
        let out = drive(&plan, &seq);
        assert_eq!(out[4], FaultDecision::CrashFlush, "third commit crashes");
        assert!(out[..4].iter().all(|d| *d == FaultDecision::Proceed));
    }

    #[test]
    fn rates_roughly_honoured() {
        let cfg = FaultPlanConfig::new(123).with_busy(0.2);
        let plan = FaultPlan::new(cfg);
        let fired = drive(&plan, &[CallClass::Single; 5000])
            .iter()
            .filter(|d| matches!(d, FaultDecision::Fail(FaultKind::Busy, _)))
            .count();
        let rate = fired as f64 / 5000.0;
        assert!((rate - 0.2).abs() < 0.03, "busy rate {rate} far from 0.2");
    }

    #[test]
    fn loader_fault_schedule_is_seed_deterministic() {
        let cfg = FaultPlanConfig::new(55)
            .with_loader_kills(0.25)
            .with_loader_stalls(0.25);
        let draw = |cfg: FaultPlanConfig| {
            let plan = FaultPlan::new(cfg);
            (0..200)
                .map(|_| plan.decide_loader_fault())
                .collect::<Vec<_>>()
        };
        let a = draw(cfg.clone());
        let b = draw(cfg);
        assert_eq!(a, b, "identical seed must reproduce the grant schedule");
        assert!(a.contains(&Some(FaultKind::LoaderKill)));
        assert!(a.contains(&Some(FaultKind::LoaderStall)));
    }

    #[test]
    fn loader_fault_exact_ordinals_fire() {
        let plan = FaultPlan::new(
            FaultPlanConfig::new(1)
                .with_loader_kill_at(2)
                .with_loader_stall_at(3),
        );
        assert_eq!(plan.decide_loader_fault(), None);
        assert_eq!(plan.decide_loader_fault(), Some(FaultKind::LoaderKill));
        assert_eq!(plan.decide_loader_fault(), Some(FaultKind::LoaderStall));
        assert_eq!(plan.decide_loader_fault(), None);
    }

    #[test]
    fn swap_crash_fires_on_exact_swap_ordinal() {
        let plan = FaultPlan::new(FaultPlanConfig::new(5).with_swap_crash_at(2));
        assert_eq!(plan.decide_swap_fault(), None);
        assert_eq!(plan.decide_swap_fault(), Some(FaultKind::SwapCrash));
        assert_eq!(plan.decide_swap_fault(), None, "crash fires exactly once");
    }

    #[test]
    fn arrival_burst_schedule_is_seed_deterministic() {
        let cfg = FaultPlanConfig::new(88).with_arrival_bursts(0.3);
        let draw = |cfg: FaultPlanConfig| {
            let plan = FaultPlan::new(cfg);
            (0..200)
                .map(|_| plan.decide_arrival_fault())
                .collect::<Vec<_>>()
        };
        let a = draw(cfg.clone());
        let b = draw(cfg);
        assert_eq!(a, b, "identical seed must reproduce the burst schedule");
        assert!(a.contains(&Some(FaultKind::ArrivalBurst)));
        assert!(a.contains(&None));
    }

    #[test]
    fn arrival_burst_exact_ordinal_fires() {
        let plan = FaultPlan::new(FaultPlanConfig::new(1).with_arrival_burst_at(3));
        assert_eq!(plan.decide_arrival_fault(), None);
        assert_eq!(plan.decide_arrival_fault(), None);
        assert_eq!(plan.decide_arrival_fault(), Some(FaultKind::ArrivalBurst));
        assert_eq!(plan.decide_arrival_fault(), None);
    }

    #[test]
    fn bit_rot_schedule_is_seed_deterministic_and_exact() {
        let cfg = FaultPlanConfig::new(31).with_bit_rot(0.3);
        let draw = |cfg: FaultPlanConfig| {
            let plan = FaultPlan::new(cfg);
            (0..200)
                .map(|_| plan.decide_bit_rot_fault())
                .collect::<Vec<_>>()
        };
        let a = draw(cfg.clone());
        let b = draw(cfg);
        assert_eq!(a, b, "identical seed must reproduce the rot schedule");
        assert!(a.contains(&Some(FaultKind::BitRot)));
        assert!(a.contains(&None));

        let plan = FaultPlan::new(FaultPlanConfig::new(1).with_bit_rot_at(2));
        assert_eq!(plan.decide_bit_rot_fault(), None);
        assert_eq!(plan.decide_bit_rot_fault(), Some(FaultKind::BitRot));
        assert_eq!(plan.decide_bit_rot_fault(), None);
        assert!(FaultPlanConfig {
            bit_rot_at: Some(0),
            ..FaultPlanConfig::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn shard_fault_schedule_is_seed_deterministic_and_exact() {
        let cfg = FaultPlanConfig::new(92)
            .with_shard_crashes(0.2)
            .with_shard_stalls(0.2);
        let draw = |cfg: FaultPlanConfig| {
            let plan = FaultPlan::new(cfg);
            (0..200)
                .map(|_| plan.decide_shard_fault())
                .collect::<Vec<_>>()
        };
        let a = draw(cfg.clone());
        let b = draw(cfg);
        assert_eq!(a, b, "identical seed must reproduce the kill schedule");
        assert!(a.contains(&Some(FaultKind::ShardCrash)));
        assert!(a.contains(&Some(FaultKind::ShardStall)));
        assert!(a.contains(&None));

        // Exact ordinals fire exactly once, crash beating stall on a tie.
        let plan = FaultPlan::new(
            FaultPlanConfig::new(1)
                .with_shard_crash_at(2)
                .with_shard_stall_at(2),
        );
        assert_eq!(plan.decide_shard_fault(), None);
        assert_eq!(plan.decide_shard_fault(), Some(FaultKind::ShardCrash));
        assert_eq!(plan.decide_shard_fault(), None);
        assert!(FaultPlanConfig {
            shard_stall_at: Some(0),
            ..FaultPlanConfig::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn invalid_rates_rejected() {
        assert!(FaultPlanConfig::new(1).with_busy(1.5).validate().is_err());
        assert!(FaultPlanConfig {
            crash_on_flush_at: Some(0),
            ..FaultPlanConfig::default()
        }
        .validate()
        .is_err());
        FaultPlanConfig::new(1).validate().unwrap();
    }
}
