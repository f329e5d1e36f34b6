//! The unified retry / backoff / degradation layer for the loader fleet.
//!
//! §3 of the paper makes "a mechanism of automatic recovery from errors" a
//! basic requirement of the loading framework. This module centralizes the
//! policy that was previously inlined in `parallel`:
//!
//! * **Classification** ([`classify`]): which database errors are worth
//!   retrying (connection resets, busy rejections, timeouts, disk-full,
//!   corrupt payloads), which wait on another open transaction (write
//!   conflicts), which mean the server itself is gone, and which are
//!   permanent.
//! * **Backoff** ([`Backoff`]): exponential delay between retries with
//!   deterministic, seeded jitter — reproducible run to run, but still
//!   decorrelating the fleet's retry storms.
//! * **Circuit breaking** ([`CircuitBreaker`]): after enough consecutive
//!   transport failures on one connection, quarantine it — the loader
//!   reconnects and its file is requeued through dynamic assignment.
//! * **Graceful degradation** ([`Degrader`]): after consecutive failed
//!   attempts the fleet halves its array/batch sizes — falling back to
//!   per-row inserts only for batch-payload corruption ([`degrade_floor`])
//!   — and restores full batch mode once attempts succeed again. Smaller
//!   wire calls shrink the retransmit cost of a failure; per-row inserts
//!   step around per-batch fault modes.
//!
//! All knobs live in [`RetryPolicy`], carried inside
//! [`LoaderConfig`](crate::config::LoaderConfig) so existing entry points
//! keep their signatures.

use std::time::{Duration, Instant};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use skydb::error::DbError;
use skysim::rng::SplitMix64;

use crate::config::{ExecMode, LoaderConfig};

/// How a file-level load error should be handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// Worth retrying on the same server: the call (or its transaction)
    /// can be re-driven without losing or duplicating rows.
    Transient,
    /// A key the call needs is staged by another *still-open*
    /// transaction. Once that transaction resolves, a retry either
    /// succeeds (it rolled back) or surfaces a real duplicate (it
    /// committed). Nothing is wrong with the connection or the load, so
    /// the loader neither degrades nor counts a stalled attempt: it backs
    /// off and returns the file to the lease table, under the file's
    /// requeue budget. Treating it as permanent would skip — and thereby
    /// lose — rows whose conflicting copy never commits.
    Contended,
    /// The server itself is down; retrying on any connection is futile
    /// until the repository is recovered into a fresh server.
    ServerLost,
    /// Retrying cannot help (schema/config errors, closed sessions…).
    Permanent,
    /// The caller's fencing epoch is stale: its lease (file grant or
    /// shard generation) was reclaimed and a successor may already own
    /// the work. Retrying under the stale epoch is futile; retrying
    /// under a *fresh* epoch is the owner's decision — the loader fleet
    /// treats the file as taken away, the shard router requeues the
    /// flush against the zone's new generation. One class, one meaning,
    /// at every call site.
    Fenced,
}

/// Classify a database error for retry purposes. Row-level errors
/// (constraint violations, type errors) never reach this layer — the Fig. 3
/// recovery inside the bulk loader skips those rows — so anything
/// unrecognized here is treated as permanent.
pub fn classify(e: &DbError) -> ErrorClass {
    match e {
        DbError::Protocol(_)
        | DbError::ServerBusy(_)
        | DbError::Timeout(_)
        | DbError::DiskFull(_)
        | DbError::Corruption(_) => ErrorClass::Transient,
        DbError::WriteConflict(_) => ErrorClass::Contended,
        DbError::ServerDown(_) => ErrorClass::ServerLost,
        DbError::Batch { cause, .. } => classify(cause),
        // A fenced-out call means the caller's lease was reclaimed — file
        // grant or shard generation — and the work may already have a new
        // owner. Deliberately not Transient (the stale epoch can never
        // succeed) and not Permanent (the *work* is fine; only this
        // incarnation's claim on it is dead).
        DbError::FencedOut(_) => ErrorClass::Fenced,
        // At-rest rot (a stored CRC failure) never heals on retry: the row
        // must be quarantined by the scrubber and re-derived from its
        // source file by the repair pass, not hammered by the loader.
        DbError::DataCorruption(_) => ErrorClass::Permanent,
        _ => ErrorClass::Permanent,
    }
}

/// Stable label for a retried error, for the report's survived-faults map.
/// Matches the server's [`FaultKind`](skydb::fault::FaultKind) labels where
/// a fault kind maps one-to-one onto a client-visible error.
pub fn fault_label(e: &DbError) -> &'static str {
    match e {
        DbError::Protocol(_) => "reset",
        DbError::ServerBusy(_) => "busy",
        DbError::Timeout(_) => "timeout",
        DbError::DiskFull(_) => "disk_full",
        DbError::Corruption(_) => "corruption",
        DbError::DataCorruption(_) => "data_corruption",
        DbError::WriteConflict(_) => "write_conflict",
        DbError::ServerDown(_) => "server_down",
        DbError::FencedOut(_) => "fenced_out",
        DbError::Batch { cause, .. } => fault_label(cause),
        _ => "other",
    }
}

/// Retry, backoff, circuit-breaker and degradation knobs.
///
/// Serialized with the loader configuration; every field has a default so
/// configuration files written before this layer existed stay valid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct RetryPolicy {
    /// Consecutive file-load attempts *without progress* before the file is
    /// reported failed. Progress — the journal advancing, or the degrader
    /// changing level — refreshes the budget.
    pub max_attempts: usize,
    /// First retry delay.
    #[serde(with = "duration_micros")]
    pub backoff_base: Duration,
    /// Multiplier per retry.
    pub backoff_factor: f64,
    /// Ceiling on the (pre-jitter) delay.
    #[serde(with = "duration_micros")]
    pub backoff_cap: Duration,
    /// Jitter fraction in `[0, 1]`: each delay is scaled by a seeded draw
    /// from `[1 − jitter, 1 + jitter]`.
    pub jitter: f64,
    /// Per-call driver budget handed to every session
    /// ([`Session::set_call_timeout`](skydb::server::Session::set_call_timeout)):
    /// a latency spike beyond it surfaces as a retryable timeout.
    #[serde(with = "opt_duration_micros")]
    pub call_timeout: Option<Duration>,
    /// Consecutive transport failures on one connection before its breaker
    /// trips: the loader reconnects and the file is requeued (0 disables).
    pub breaker_threshold: u64,
    /// Consecutive failed attempts (fleet-wide) before degrading one level
    /// (down to [`degrade_floor`] of the failing error).
    pub degrade_after: u64,
    /// Consecutive successful attempts before restoring full batch mode.
    pub restore_after: u64,
    /// Seed for backoff jitter (forked per node, so the fleet's delays are
    /// decorrelated but reproducible).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            backoff_base: Duration::from_millis(2),
            backoff_factor: 2.0,
            backoff_cap: Duration::from_millis(250),
            jitter: 0.25,
            call_timeout: None,
            breaker_threshold: 5,
            degrade_after: 2,
            restore_after: 4,
            seed: 0x5EED,
        }
    }
}

impl RetryPolicy {
    /// Builder-style: stalled-attempt budget.
    pub fn with_max_attempts(mut self, n: usize) -> Self {
        self.max_attempts = n;
        self
    }

    /// Builder-style: breaker threshold (0 disables).
    pub fn with_breaker_threshold(mut self, n: u64) -> Self {
        self.breaker_threshold = n;
        self
    }

    /// Builder-style: degradation trigger / restore streaks.
    pub fn with_degradation(mut self, degrade_after: u64, restore_after: u64) -> Self {
        self.degrade_after = degrade_after;
        self.restore_after = restore_after;
        self
    }

    /// Builder-style: per-call timeout budget.
    pub fn with_call_timeout(mut self, budget: Duration) -> Self {
        self.call_timeout = Some(budget);
        self
    }

    /// Builder-style: jitter seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validate invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_attempts == 0 {
            return Err("retry.max_attempts must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.jitter) {
            return Err(format!(
                "retry.jitter must be in [0, 1], got {}",
                self.jitter
            ));
        }
        if self.backoff_factor < 1.0 {
            return Err("retry.backoff_factor must be >= 1".into());
        }
        if self.degrade_after == 0 || self.restore_after == 0 {
            return Err("retry.degrade_after and restore_after must be positive".into());
        }
        Ok(())
    }
}

mod duration_micros {
    use serde::{Deserialize, Deserializer, Serialize, Serializer};
    use std::time::Duration;

    pub fn serialize<S: Serializer>(d: &Duration, s: S) -> Result<S::Ok, S::Error> {
        (d.as_micros() as u64).serialize(s)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Duration, D::Error> {
        Ok(Duration::from_micros(u64::deserialize(d)?))
    }
}

mod opt_duration_micros {
    use serde::{Deserialize, Deserializer, Serialize, Serializer};
    use std::time::Duration;

    pub fn serialize<S: Serializer>(d: &Option<Duration>, s: S) -> Result<S::Ok, S::Error> {
        d.map(|d| d.as_micros() as u64).serialize(s)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Option<Duration>, D::Error> {
        Ok(Option::<u64>::deserialize(d)?.map(Duration::from_micros))
    }
}

/// Exponential backoff with deterministic, seeded jitter.
#[derive(Debug)]
pub struct Backoff {
    base: Duration,
    factor: f64,
    cap: Duration,
    jitter: f64,
    rng: SplitMix64,
    attempt: u32,
}

impl Backoff {
    /// A backoff stream for one loader node. `stream` (typically the node
    /// index) decorrelates nodes under one seed.
    pub fn new(policy: &RetryPolicy, stream: u64) -> Backoff {
        Backoff {
            base: policy.backoff_base,
            factor: policy.backoff_factor,
            cap: policy.backoff_cap,
            jitter: policy.jitter,
            rng: SplitMix64::new(policy.seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            attempt: 0,
        }
    }

    /// The next delay: `base · factor^n`, capped, then jittered.
    pub fn next_delay(&mut self) -> Duration {
        let exp = self.base.as_secs_f64() * self.factor.powi(self.attempt as i32);
        self.attempt = self.attempt.saturating_add(1);
        let capped = exp.min(self.cap.as_secs_f64());
        let scale = 1.0 - self.jitter + self.rng.next_f64() * 2.0 * self.jitter;
        Duration::from_secs_f64(capped * scale)
    }

    /// Reset after a success: the next failure starts from `base` again.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

/// Per-connection circuit breaker: counts consecutive transport failures
/// and trips at the threshold, signaling the caller to quarantine the
/// connection (reconnect) and requeue the in-flight file.
#[derive(Debug)]
pub struct CircuitBreaker {
    threshold: u64,
    consecutive: u64,
    trips: u64,
    /// Shared telemetry counter (`breaker_trips`) incremented on every
    /// trip, so the registry sees fleet-wide trips without a final
    /// per-breaker summation pass.
    trips_counter: Option<skyobs::CounterHandle>,
}

impl CircuitBreaker {
    /// A breaker tripping after `threshold` consecutive failures
    /// (0 disables tripping; failures are still counted).
    pub fn new(threshold: u64) -> CircuitBreaker {
        CircuitBreaker {
            threshold,
            consecutive: 0,
            trips: 0,
            trips_counter: None,
        }
    }

    /// Attach a shared telemetry counter that every trip also increments
    /// (the fleet hands every breaker the same `breaker_trips` handle).
    pub fn with_trips_counter(mut self, counter: skyobs::CounterHandle) -> CircuitBreaker {
        self.trips_counter = Some(counter);
        self
    }

    /// Record a transport failure; `true` means the breaker just tripped
    /// and the connection should be replaced.
    pub fn record_failure(&mut self) -> bool {
        self.consecutive += 1;
        if self.threshold > 0 && self.consecutive >= self.threshold {
            self.consecutive = 0;
            self.trips += 1;
            if let Some(c) = &self.trips_counter {
                c.inc();
            }
            return true;
        }
        false
    }

    /// Record a successful attempt.
    pub fn record_success(&mut self) {
        self.consecutive = 0;
    }

    /// Times this breaker has tripped.
    pub fn trips(&self) -> u64 {
        self.trips
    }
}

/// One recorded degradation-ladder move, for the night report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct DegradeTransition {
    /// Level before the move.
    pub from: u32,
    /// Level after the move.
    pub to: u32,
    /// `"degrade"` (failures accumulated) or `"restore"` (healthy again).
    pub trigger: &'static str,
}

/// Highest degradation level: per-row inserts.
pub const MAX_DEGRADE_LEVEL: u32 = 3;

/// Lowest rung a per-call fault (reset, busy, timeout, disk-full) may push
/// the ladder to: arrays halved twice, still in batch
/// mode. Smaller calls shrink the retransmit cost of such a fault, but
/// per-row inserts do not route around it — they only multiply the calls
/// a commit needs, so under a steady fault rate no attempt reaches its
/// commit.
pub const CALL_FAULT_DEGRADE_FLOOR: u32 = 2;

/// How far down the ladder a transient failure may push the fleet. Only
/// batch-payload corruption reaches per-row inserts ([`MAX_DEGRADE_LEVEL`]):
/// a corrupt batch cannot touch a single-row insert, so that rung is the
/// one that genuinely routes around it.
pub fn degrade_floor(e: &DbError) -> u32 {
    match e {
        DbError::Corruption(_) => MAX_DEGRADE_LEVEL,
        DbError::Batch { cause, .. } => degrade_floor(cause),
        _ => CALL_FAULT_DEGRADE_FLOOR,
    }
}

/// The fleet-shared degradation ladder.
///
/// Level 0 is healthy (the configured array/batch sizes). Each degrade step
/// halves both sizes; at [`MAX_DEGRADE_LEVEL`] the loader falls back to
/// per-row inserts ([`ExecMode::Singleton`]), a rung that
/// [`Degrader::note_fault`] reserves for batch-payload corruption. After
/// `restore_after` consecutive successful attempts the ladder restores
/// straight to level 0 — the connection is demonstrably healthy, so there
/// is no reason to creep back up through intermediate sizes.
#[derive(Debug)]
pub struct Degrader {
    degrade_after: u64,
    restore_after: u64,
    inner: Mutex<DegraderInner>,
}

#[derive(Debug)]
struct DegraderInner {
    level: u32,
    fail_streak: u64,
    ok_streak: u64,
    transitions: Vec<DegradeTransition>,
    degraded_since: Option<Instant>,
    degraded_total: Duration,
}

impl Degrader {
    /// A fresh ladder at level 0.
    pub fn new(policy: &RetryPolicy) -> Degrader {
        Degrader {
            degrade_after: policy.degrade_after,
            restore_after: policy.restore_after,
            inner: Mutex::new(DegraderInner {
                level: 0,
                fail_streak: 0,
                ok_streak: 0,
                transitions: Vec::new(),
                degraded_since: None,
                degraded_total: Duration::ZERO,
            }),
        }
    }

    /// The current level.
    pub fn level(&self) -> u32 {
        self.inner.lock().level
    }

    /// The effective loader configuration at the current level.
    pub fn shape(&self, cfg: &LoaderConfig) -> LoaderConfig {
        let level = self.level();
        if level == 0 {
            return cfg.clone();
        }
        let shift = level.min(MAX_DEGRADE_LEVEL);
        let mut out = cfg.clone();
        out.array_size = (cfg.array_size >> shift).max(1);
        out.batch_size = (cfg.batch_size >> shift).max(1).min(out.array_size);
        for v in out.per_table_array_sizes.values_mut() {
            *v = (*v >> shift).max(1);
        }
        if level >= MAX_DEGRADE_LEVEL {
            out.mode = ExecMode::Singleton;
        }
        out
    }

    /// Record a failed attempt; may move the ladder down one level.
    pub fn note_failure(&self) {
        self.note_failure_down_to(MAX_DEGRADE_LEVEL);
    }

    /// Record an attempt that failed with `e`; may move the ladder down one
    /// level, but never below [`degrade_floor`] for that error.
    pub fn note_fault(&self, e: &DbError) {
        self.note_failure_down_to(degrade_floor(e));
    }

    fn note_failure_down_to(&self, floor: u32) {
        let mut g = self.inner.lock();
        g.ok_streak = 0;
        g.fail_streak += 1;
        if g.fail_streak >= self.degrade_after && g.level < floor {
            let from = g.level;
            g.level += 1;
            g.fail_streak = 0;
            let to = g.level;
            g.transitions.push(DegradeTransition {
                from,
                to,
                trigger: "degrade",
            });
            if from == 0 {
                g.degraded_since = Some(Instant::now());
            }
        }
    }

    /// Record a successful attempt; enough in a row restores level 0.
    pub fn note_success(&self) {
        let mut g = self.inner.lock();
        g.fail_streak = 0;
        if g.level == 0 {
            return;
        }
        g.ok_streak += 1;
        if g.ok_streak >= self.restore_after {
            let from = g.level;
            g.level = 0;
            g.ok_streak = 0;
            g.transitions.push(DegradeTransition {
                from,
                to: 0,
                trigger: "restore",
            });
            if let Some(since) = g.degraded_since.take() {
                g.degraded_total += since.elapsed();
            }
        }
    }

    /// Every ladder move so far.
    pub fn transitions(&self) -> Vec<DegradeTransition> {
        self.inner.lock().transitions.clone()
    }

    /// Total wall-clock time spent away from level 0 (an open degraded
    /// interval is counted up to now).
    pub fn degraded_time(&self) -> Duration {
        let g = self.inner.lock();
        g.degraded_total
            + g.degraded_since
                .map(|s| s.elapsed())
                .unwrap_or(Duration::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_covers_the_fault_taxonomy() {
        use ErrorClass::*;
        let cases = [
            (DbError::Protocol("reset".into()), Transient),
            (DbError::ServerBusy("busy".into()), Transient),
            (DbError::Timeout("slow".into()), Transient),
            (DbError::DiskFull("log".into()), Transient),
            (DbError::Corruption("cksum".into()), Transient),
            (DbError::WriteConflict("staged by txn 7".into()), Contended),
            (DbError::ServerDown("crash".into()), ServerLost),
            (DbError::FencedOut("stale epoch".into()), Fenced),
            (DbError::NoTransaction, Permanent),
            (DbError::SessionClosed, Permanent),
            (DbError::InvalidSchema("x".into()), Permanent),
        ];
        for (e, want) in cases {
            assert_eq!(classify(&e), want, "{e}");
        }
        let wrapped = DbError::Batch {
            offset: 1,
            cause: Box::new(DbError::Protocol("reset".into())),
        };
        assert_eq!(classify(&wrapped), Transient);
        assert_eq!(fault_label(&wrapped), "reset");
        let conflict = DbError::Batch {
            offset: 0,
            cause: Box::new(DbError::WriteConflict("staged by txn 7".into())),
        };
        assert_eq!(classify(&conflict), Contended);
        assert_eq!(
            fault_label(&DbError::FencedOut("stale epoch".into())),
            "fenced_out"
        );
    }

    #[test]
    fn backoff_grows_caps_and_is_deterministic() {
        let policy = RetryPolicy::default();
        let mut a = Backoff::new(&policy, 0);
        let mut b = Backoff::new(&policy, 0);
        let da: Vec<Duration> = (0..10).map(|_| a.next_delay()).collect();
        let db: Vec<Duration> = (0..10).map(|_| b.next_delay()).collect();
        assert_eq!(da, db, "same seed, same stream → same delays");
        // Grows (up to jitter) then saturates at the cap.
        assert!(da[3] > da[0]);
        let cap = policy.backoff_cap.as_secs_f64() * (1.0 + policy.jitter);
        for d in &da {
            assert!(d.as_secs_f64() <= cap + 1e-9);
        }
        // Different streams decorrelate.
        let mut c = Backoff::new(&policy, 1);
        let dc: Vec<Duration> = (0..10).map(|_| c.next_delay()).collect();
        assert_ne!(da, dc);
        // Reset restarts the exponent.
        a.reset();
        assert!(a.next_delay() < Duration::from_millis(3));
    }

    #[test]
    fn breaker_trips_on_consecutive_failures_only() {
        let mut b = CircuitBreaker::new(3);
        assert!(!b.record_failure());
        assert!(!b.record_failure());
        b.record_success(); // streak broken
        assert!(!b.record_failure());
        assert!(!b.record_failure());
        assert!(b.record_failure(), "third consecutive failure trips");
        assert_eq!(b.trips(), 1);
        // Disabled breaker never trips.
        let mut off = CircuitBreaker::new(0);
        for _ in 0..100 {
            assert!(!off.record_failure());
        }
    }

    #[test]
    fn degrader_ladder_round_trip() {
        let policy = RetryPolicy::default().with_degradation(2, 3);
        let d = Degrader::new(&policy);
        let cfg = LoaderConfig::test()
            .with_array_size(1000)
            .with_batch_size(40);
        assert_eq!(d.shape(&cfg).array_size, 1000);

        // 2 failures per level; 3 levels to the bottom.
        for _ in 0..6 {
            d.note_failure();
        }
        assert_eq!(d.level(), MAX_DEGRADE_LEVEL);
        let floor = d.shape(&cfg);
        assert_eq!(floor.mode, ExecMode::Singleton);
        assert_eq!(floor.array_size, 125);
        assert_eq!(floor.batch_size, 5);
        floor.validate().unwrap();

        // Intermediate level halves sizes without changing mode.
        let d2 = Degrader::new(&policy);
        d2.note_failure();
        d2.note_failure();
        let half = d2.shape(&cfg);
        assert_eq!(half.array_size, 500);
        assert_eq!(half.batch_size, 20);
        assert_eq!(half.mode, ExecMode::Bulk);

        // Successes restore level 0 after the streak.
        d.note_success();
        d.note_success();
        assert_eq!(d.level(), MAX_DEGRADE_LEVEL, "streak not reached yet");
        d.note_success();
        assert_eq!(d.level(), 0);
        let moves = d.transitions();
        assert_eq!(moves.len(), 4, "3 degrades + 1 restore");
        assert_eq!(moves.last().unwrap().trigger, "restore");
        assert!(d.degraded_time() > Duration::ZERO);
    }

    #[test]
    fn only_batch_corruption_reaches_per_row_inserts() {
        let policy = RetryPolicy::default().with_degradation(1, 1);
        let cfg = LoaderConfig::test()
            .with_array_size(1000)
            .with_batch_size(40);
        let call_faults = [
            DbError::Protocol("reset".into()),
            DbError::ServerBusy("busy".into()),
            DbError::Timeout("slow".into()),
            DbError::Batch {
                offset: 3,
                cause: Box::new(DbError::Protocol("reset".into())),
            },
        ];
        for e in &call_faults {
            let d = Degrader::new(&policy);
            for _ in 0..10 {
                d.note_fault(e);
            }
            assert_eq!(d.level(), CALL_FAULT_DEGRADE_FLOOR, "{e}");
            let shape = d.shape(&cfg);
            assert_eq!(shape.mode, ExecMode::Bulk, "{e}");
            assert_eq!(shape.array_size, 250, "{e}");
        }
        let corruption = [
            DbError::Corruption("cksum".into()),
            DbError::Batch {
                offset: 0,
                cause: Box::new(DbError::Corruption("cksum".into())),
            },
        ];
        for e in &corruption {
            let d = Degrader::new(&policy);
            for _ in 0..10 {
                d.note_fault(e);
            }
            assert_eq!(d.level(), MAX_DEGRADE_LEVEL, "{e}");
            assert_eq!(d.shape(&cfg).mode, ExecMode::Singleton, "{e}");
        }
        // A reset-held ladder still steps down to per-row inserts once
        // corruption arrives.
        let d = Degrader::new(&policy);
        for _ in 0..5 {
            d.note_fault(&call_faults[0]);
        }
        d.note_fault(&corruption[0]);
        assert_eq!(d.level(), MAX_DEGRADE_LEVEL);
    }

    #[test]
    fn degraded_config_always_validates() {
        let policy = RetryPolicy::default().with_degradation(1, 1);
        let d = Degrader::new(&policy);
        let cfg = LoaderConfig::test().with_array_size(3).with_batch_size(2);
        for _ in 0..5 {
            d.note_failure();
            d.shape(&cfg).validate().unwrap();
        }
    }

    #[test]
    fn policy_validation() {
        RetryPolicy::default().validate().unwrap();
        assert!(RetryPolicy::default()
            .with_max_attempts(0)
            .validate()
            .is_err());
        let p = RetryPolicy {
            jitter: 1.5,
            ..RetryPolicy::default()
        };
        assert!(p.validate().is_err());
        let p = RetryPolicy {
            backoff_factor: 0.5,
            ..RetryPolicy::default()
        };
        assert!(p.validate().is_err());
        let p = RetryPolicy {
            degrade_after: 0,
            ..RetryPolicy::default()
        };
        assert!(p.validate().is_err());
    }
}
