//! Loader-fleet supervision: one lease table for every loader night.
//!
//! §4.4's dynamic on-the-fly assignment trusted every Condor node to either
//! finish its file or die loudly. Real fleets misbehave in two quieter
//! ways: a node is **killed** mid-file (Condor evicts the job, the machine
//! reboots) and never reports back, or it **stalls** (GC pause, NFS hang,
//! network partition) long enough to be presumed dead — then wakes up as a
//! *zombie* and keeps flushing rows for a file that has been reassigned.
//!
//! This module closes both holes with a classic lease + fencing design:
//!
//! * every file grant is a [`Lease`] carrying a per-file **epoch** and a
//!   TTL; the holder renews it via [`FleetSupervisor::heartbeat`];
//! * the supervisor reclaims expired leases, bumps the epoch, advances the
//!   server-side fence floor for the file, and requeues it;
//! * every mutating call a loader makes is fenced by its lease epoch
//!   ([`skydb::wire::Fence`]), so a revived zombie's flushes are rejected
//!   at the session layer with [`DbError::FencedOut`] before any row
//!   lands — the new holder's work is never interleaved with stale writes;
//! * exactly-once delivery is preserved by the existing journal watermark:
//!   the reassigned loader resumes past whatever the dead holder committed,
//!   and the journal's per-file epoch manifest
//!   ([`LoadJournal::record_epoch`](crate::recovery::LoadJournal::record_epoch))
//!   lets a restarted coordinator issue strictly newer epochs.
//!
//! The table is the only thing that decides what a loader does next, under
//! either grant policy: **dynamic** assignment draws every file from one
//! shared queue, and **static** assignment (the baseline §4.4 argues
//! against) pins file *i* to node *i mod nodes*, sending only returned and
//! reclaimed files through the shared queue. A loader with nothing
//! grantable blocks in [`FleetSupervisor::next_assignment`] until a file is
//! requeued, every file is settled, or the earliest lease deadline passes.
//!
//! Two per-file budgets bound reassignment, replacing an unbounded
//! requeue loop: a tight **reclaim** budget for leases that expire (a
//! file whose holders keep dying is cursed) and a larger **requeue**
//! budget for voluntary returns (breaker trips are ordinary weather on a
//! flaky link and must not exhaust the crash-recovery budget).

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use serde::{Deserialize, Serialize};
use skysim::cluster::AssignmentPolicy;

/// A granted right to load one file: valid only while the supervisor's
/// lease for `file_idx` still carries this `epoch`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lease {
    /// Index of the file in the night's file list.
    pub file_idx: usize,
    /// Stable fencing key for the file (shared by every epoch of it).
    pub key: u64,
    /// This grant's epoch; the server's fence floor for `key` equals the
    /// newest reclaimed-or-granted epoch, so stale holders are rejected.
    pub epoch: u64,
}

/// Lease-TTL / reclaim / requeue knobs for the fleet supervisor.
///
/// Serialized with the loader configuration; every field has a default so
/// configuration files written before this layer existed stay valid, and
/// unknown fields are ignored.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct FleetPolicy {
    /// How long a grant stays valid without a heartbeat. Expired leases
    /// are reclaimed: epoch bumped, fence advanced, file requeued.
    #[serde(with = "duration_micros", default = "default_lease_ttl")]
    pub lease_ttl: Duration,
    /// How many times one file's lease may expire (holder presumed dead)
    /// before the file is reported failed.
    #[serde(default = "default_max_reclaims")]
    pub max_reclaims_per_file: u64,
    /// How many times one file may be voluntarily returned (circuit
    /// breaker tripped) before it is reported failed. Returns are part of
    /// healthy retry traffic on a flaky link, so this budget is much
    /// larger than the reclaim budget. A loader also waits out at most
    /// this many write conflicts on one grant.
    #[serde(default = "default_max_requeues")]
    pub max_requeues_per_file: u64,
}

fn default_lease_ttl() -> Duration {
    FleetPolicy::default().lease_ttl
}

fn default_max_reclaims() -> u64 {
    FleetPolicy::default().max_reclaims_per_file
}

fn default_max_requeues() -> u64 {
    FleetPolicy::default().max_requeues_per_file
}

impl Default for FleetPolicy {
    fn default() -> Self {
        FleetPolicy {
            lease_ttl: Duration::from_secs(30),
            max_reclaims_per_file: 8,
            max_requeues_per_file: 64,
        }
    }
}

impl FleetPolicy {
    /// Builder: lease TTL.
    pub fn with_lease_ttl(mut self, ttl: Duration) -> Self {
        self.lease_ttl = ttl;
        self
    }

    /// Builder: per-file reclaim budget.
    pub fn with_max_reclaims(mut self, n: u64) -> Self {
        self.max_reclaims_per_file = n;
        self
    }

    /// Builder: per-file voluntary-requeue budget.
    pub fn with_max_requeues(mut self, n: u64) -> Self {
        self.max_requeues_per_file = n;
        self
    }

    /// Validate invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.lease_ttl.is_zero() {
            return Err("fleet.lease_ttl must be positive".into());
        }
        if self.max_reclaims_per_file == 0 {
            return Err("fleet.max_reclaims_per_file must be positive".into());
        }
        if self.max_requeues_per_file == 0 {
            return Err("fleet.max_requeues_per_file must be positive".into());
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

/// Stable fencing key for a file name: the key must survive coordinator
/// restarts (a new process must advance the *same* server-side floor), so
/// it is derived from the name, not from queue position.
pub fn fence_key(name: &str) -> u64 {
    // FNV-1a, 64-bit: tiny, dependency-free, stable across runs.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Why a lease ended without its file completing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LeaseEnd {
    /// TTL expired without a heartbeat: holder presumed dead.
    Expired,
    /// Holder gave the file back (e.g. its circuit breaker tripped).
    Returned,
}

/// A file the supervisor gave up on: its reclaim or requeue budget is spent.
#[derive(Debug, Clone)]
pub struct AbandonedFile {
    /// Index into the night's file list.
    pub file_idx: usize,
    /// Human-readable reason for the report's failed-files list.
    pub reason: String,
}

#[derive(Debug)]
struct FileState {
    /// Fencing key (stable hash of the file name).
    key: u64,
    /// Last epoch issued for this file (0 = never granted; restarts seed
    /// this from the journal manifest so new grants are strictly newer).
    epoch: u64,
    /// When the current lease expires; `None` while no lease is held.
    deadline: Option<Instant>,
    /// How many times this file's lease expired (holder presumed dead).
    reclaims: u64,
    /// How many times the holder voluntarily returned the file.
    returns: u64,
}

impl FileState {
    /// True while `lease` is this file's current, unexpired grant.
    fn held_by(&self, lease: &Lease) -> bool {
        self.epoch == lease.epoch && self.deadline.is_some()
    }
}

#[derive(Debug)]
struct SupervisorInner {
    /// Per-node queues under static assignment (file *i* in queue
    /// *i mod nodes*); empty under dynamic assignment.
    pinned: Vec<VecDeque<usize>>,
    /// The shared queue: every file under dynamic assignment, and every
    /// returned or reclaimed file under either policy.
    shared: VecDeque<usize>,
    states: Vec<FileState>,
    /// Leases currently held (granted, not yet completed/reclaimed).
    outstanding: usize,
    /// Files whose reclaim or requeue budget ran out.
    abandoned: Vec<AbandonedFile>,
}

impl SupervisorInner {
    fn next_file_for(&mut self, node: usize) -> Option<usize> {
        self.pinned
            .get_mut(node)
            .and_then(VecDeque::pop_front)
            .or_else(|| self.shared.pop_front())
    }

    /// Every file completed or abandoned: nothing left to grant, ever.
    fn settled(&self) -> bool {
        self.outstanding == 0
            && self.shared.is_empty()
            && self.pinned.iter().all(VecDeque::is_empty)
    }
}

/// The coordinator-side lease table for one night's file list.
///
/// Thread-safe: workers call [`next_assignment`](Self::next_assignment) /
/// [`heartbeat`](Self::heartbeat) / [`complete`](Self::complete)
/// concurrently. Fence floors are pushed to the database through the
/// `advance_fence` callback at grant and reclaim time, so a reclaimed
/// holder's epoch is invalid *before* its file can be re-granted.
pub struct FleetSupervisor {
    policy: FleetPolicy,
    inner: Mutex<SupervisorInner>,
    /// Signalled whenever the table changes in a way a blocked worker may
    /// act on: a grant (new earliest deadline), a completion, a return or
    /// a reclaim.
    changed: Condvar,
    grants: skyobs::CounterHandle,
    reclaims: skyobs::CounterHandle,
    advance_fence: Box<dyn Fn(u64, u64) + Send + Sync>,
}

impl std::fmt::Debug for FleetSupervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetSupervisor")
            .field("policy", &self.policy)
            .field("grants", &self.grants.get())
            .field("reclaims", &self.reclaims.get())
            .finish_non_exhaustive()
    }
}

impl FleetSupervisor {
    /// Build a supervisor over `files` (name, initial epoch) pairs for a
    /// fleet of `nodes` loaders granting under `assignment`. The initial
    /// epoch is the newest epoch ever issued for the file (from the
    /// journal manifest, max-merged with the server's fence floor); the
    /// first grant uses `initial + 1`. The grant/reclaim counters register
    /// in `obs` (`fleet.grants` / `fleet.reclaims`), and `advance_fence`
    /// pushes `(key, min_valid_epoch)` to the database server.
    pub fn new(
        files: &[(String, u64)],
        policy: FleetPolicy,
        assignment: AssignmentPolicy,
        nodes: usize,
        obs: &skyobs::Registry,
        advance_fence: impl Fn(u64, u64) + Send + Sync + 'static,
    ) -> FleetSupervisor {
        let states = files
            .iter()
            .map(|(name, epoch)| FileState {
                key: fence_key(name),
                epoch: *epoch,
                deadline: None,
                reclaims: 0,
                returns: 0,
            })
            .collect();
        let (pinned, shared) = match assignment {
            AssignmentPolicy::Dynamic => (Vec::new(), (0..files.len()).collect()),
            AssignmentPolicy::Static => {
                let nodes = nodes.max(1);
                let pinned = (0..nodes)
                    .map(|n| (n..files.len()).step_by(nodes).collect())
                    .collect();
                (pinned, VecDeque::new())
            }
        };
        FleetSupervisor {
            policy,
            inner: Mutex::new(SupervisorInner {
                pinned,
                shared,
                states,
                outstanding: 0,
                abandoned: Vec::new(),
            }),
            changed: Condvar::new(),
            grants: obs.counter("fleet.grants"),
            reclaims: obs.counter("fleet.reclaims"),
            advance_fence: Box::new(advance_fence),
        }
    }

    /// Claim the next file for `node`, or `None` once every file is
    /// settled (completed or abandoned). With nothing grantable while
    /// leases are still out, blocks until a file is returned or
    /// reclaimed, the last lease completes, or the earliest lease deadline
    /// passes — the caller runs the reclaim itself, so a single surviving
    /// worker still recovers files whose holders died.
    pub fn next_assignment(&self, node: usize) -> Option<Lease> {
        let mut inner = self.inner.lock();
        loop {
            let now = Instant::now();
            self.reclaim_expired_locked(&mut inner, now);
            if let Some(idx) = inner.next_file_for(node) {
                let st = &mut inner.states[idx];
                st.epoch += 1;
                st.deadline = Some(now + self.policy.lease_ttl);
                let lease = Lease {
                    file_idx: idx,
                    key: st.key,
                    epoch: st.epoch,
                };
                inner.outstanding += 1;
                self.grants.inc();
                // Granting epoch e makes e the floor: every older epoch is
                // fenced out from this moment, the holder itself passes.
                (self.advance_fence)(lease.key, lease.epoch);
                self.changed.notify_all();
                return Some(lease);
            }
            if inner.settled() {
                return None;
            }
            match inner.states.iter().filter_map(|st| st.deadline).min() {
                Some(earliest) => self.changed.wait_until(&mut inner, earliest),
                None => self.changed.wait(&mut inner),
            }
        }
    }

    /// Renew `lease`. Returns `false` if the lease is no longer held by
    /// this grant (expired and reclaimed, or the file completed) — the
    /// caller must stop working on the file and discard its transaction.
    pub fn heartbeat(&self, lease: &Lease) -> bool {
        let mut inner = self.inner.lock();
        let st = &mut inner.states[lease.file_idx];
        if st.held_by(lease) {
            st.deadline = Some(Instant::now() + self.policy.lease_ttl);
            true
        } else {
            false
        }
    }

    /// Block until `lease` is lost: reclaimed once its TTL runs out
    /// without a heartbeat, or already superseded. Drives expiry itself,
    /// so a frozen holder converges even when every other worker is busy.
    pub fn await_loss(&self, lease: &Lease) {
        let mut inner = self.inner.lock();
        loop {
            self.reclaim_expired_locked(&mut inner, Instant::now());
            let st = &inner.states[lease.file_idx];
            match st.deadline {
                Some(deadline) if st.held_by(lease) => {
                    self.changed.wait_until(&mut inner, deadline)
                }
                _ => return,
            }
        }
    }

    /// The holder finished its file (successfully or by reporting a
    /// permanent failure itself). Ignored if the lease was already
    /// reclaimed — the newer holder owns the outcome.
    pub fn complete(&self, lease: &Lease) {
        let mut inner = self.inner.lock();
        let st = &mut inner.states[lease.file_idx];
        if st.held_by(lease) {
            st.deadline = None;
            inner.outstanding -= 1;
            self.changed.notify_all();
        }
    }

    /// The holder voluntarily gives the file back (circuit breaker
    /// tripped, connection quarantined): requeue it under a
    /// bumped fence so the stale session cannot touch it, charging the
    /// requeue budget (not the reclaim budget — the holder is alive and
    /// cooperative).
    pub fn requeue(&self, lease: &Lease) {
        let mut inner = self.inner.lock();
        if inner.states[lease.file_idx].held_by(lease) {
            self.end_lease_locked(&mut inner, lease.file_idx, LeaseEnd::Returned);
        }
    }

    /// Total grants issued (every assignment, including re-grants).
    pub fn grants(&self) -> u64 {
        self.grants.get()
    }

    /// Total leases reclaimed after TTL expiry (not voluntary requeues).
    pub fn reclaims(&self) -> u64 {
        self.reclaims.get()
    }

    /// Files abandoned because their reclaim or requeue budget ran out.
    pub fn take_abandoned(&self) -> Vec<AbandonedFile> {
        std::mem::take(&mut self.inner.lock().abandoned)
    }

    fn reclaim_expired_locked(&self, inner: &mut SupervisorInner, now: Instant) {
        for idx in 0..inner.states.len() {
            if inner.states[idx].deadline.is_some_and(|d| d <= now) {
                self.end_lease_locked(inner, idx, LeaseEnd::Expired);
            }
        }
    }

    /// Terminate the current lease on `idx`: advance the fence past its
    /// epoch, then requeue the file or abandon it if the budget is spent.
    fn end_lease_locked(&self, inner: &mut SupervisorInner, idx: usize, how: LeaseEnd) {
        let st = &mut inner.states[idx];
        st.deadline = None;
        // Invalidate the dead holder's epoch *now*, before any re-grant:
        // from this point its flushes are fenced out at the server.
        (self.advance_fence)(st.key, st.epoch + 1);
        // Expiry reclaims (a presumed-dead holder) and voluntary returns
        // (a loader handing the file back) draw on separate budgets:
        // returns are healthy retry traffic and must not starve a file of
        // its crash-recovery budget.
        let (spent, budget, what) = match how {
            LeaseEnd::Expired => {
                st.reclaims += 1;
                self.reclaims.inc();
                (st.reclaims, self.policy.max_reclaims_per_file, "reclaimed")
            }
            LeaseEnd::Returned => {
                st.returns += 1;
                (st.returns, self.policy.max_requeues_per_file, "requeued")
            }
        };
        inner.outstanding -= 1;
        if spent >= budget {
            inner.abandoned.push(AbandonedFile {
                file_idx: idx,
                reason: format!("lease {what} {budget} times (budget exhausted)"),
            });
        } else {
            inner.shared.push_back(idx);
        }
        self.changed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn policy_ms(ttl: u64) -> FleetPolicy {
        FleetPolicy::default().with_lease_ttl(Duration::from_millis(ttl))
    }

    fn files(names: &[&str]) -> Vec<(String, u64)> {
        names.iter().map(|n| ((*n).to_owned(), 0)).collect()
    }

    /// A dynamic-assignment supervisor over `names`.
    fn dynamic(
        names: &[&str],
        policy: FleetPolicy,
        fence: impl Fn(u64, u64) + Send + Sync + 'static,
    ) -> FleetSupervisor {
        let reg = skyobs::Registry::new();
        FleetSupervisor::new(
            &files(names),
            policy,
            AssignmentPolicy::Dynamic,
            1,
            &reg,
            fence,
        )
    }

    type FenceLog = Arc<Mutex<Vec<(u64, u64)>>>;

    /// Record every fence advance for assertions.
    fn recording() -> (FenceLog, impl Fn(u64, u64)) {
        let log = Arc::new(Mutex::new(Vec::new()));
        let sink = {
            let log = Arc::clone(&log);
            move |k: u64, e: u64| log.lock().push((k, e))
        };
        (log, sink)
    }

    /// Long enough for a blocked worker to have returned if it were not
    /// blocked.
    const SETTLE: Duration = Duration::from_millis(50);

    #[test]
    fn policy_defaults_validate_and_serde_roundtrip() {
        let p = FleetPolicy::default();
        p.validate().unwrap();
        let json = serde_json::to_string(&p).unwrap();
        assert_eq!(serde_json::from_str::<FleetPolicy>(&json).unwrap(), p);
        // Old configs without a fleet section still deserialize.
        assert_eq!(serde_json::from_str::<FleetPolicy>("{}").unwrap(), p);
        // ...and so do configs that still carry the retired heartbeat knob.
        let old = r#"{"lease_ttl":30000000,"heartbeat_interval":10000000}"#;
        assert_eq!(serde_json::from_str::<FleetPolicy>(old).unwrap(), p);
    }

    #[test]
    fn policy_invariants_enforced() {
        assert!(FleetPolicy::default()
            .with_lease_ttl(Duration::ZERO)
            .validate()
            .is_err());
        assert!(FleetPolicy::default()
            .with_max_reclaims(0)
            .validate()
            .is_err());
        assert!(FleetPolicy::default()
            .with_max_requeues(0)
            .validate()
            .is_err());
    }

    #[test]
    fn fence_keys_are_stable_and_distinct() {
        assert_eq!(fence_key("night_001.cat"), fence_key("night_001.cat"));
        assert_ne!(fence_key("night_001.cat"), fence_key("night_002.cat"));
    }

    #[test]
    fn happy_path_grants_every_file_once_then_done() {
        let sup = dynamic(&["a", "b"], policy_ms(1000), |_, _| {});
        let l1 = sup.next_assignment(0).expect("grant");
        let l2 = sup.next_assignment(1).expect("grant");
        assert_eq!((l1.epoch, l2.epoch), (1, 1));
        assert!(sup.heartbeat(&l1));
        std::thread::scope(|s| {
            // Queue drained but leases outstanding: a third worker blocks
            // instead of exiting, and wakes when the last lease completes.
            let idle = s.spawn(|| sup.next_assignment(2));
            std::thread::sleep(SETTLE);
            assert!(!idle.is_finished(), "an idle worker must block");
            sup.complete(&l1);
            std::thread::sleep(SETTLE);
            assert!(!idle.is_finished(), "one lease is still out");
            sup.complete(&l2);
            assert_eq!(idle.join().unwrap(), None);
        });
        assert_eq!(sup.grants(), 2);
        assert_eq!(sup.reclaims(), 0);
        assert!(sup.take_abandoned().is_empty());
    }

    #[test]
    fn blocked_worker_returns_promptly_after_the_last_complete() {
        // The production TTL: a worker must not sit out any fraction of
        // it once the night is over.
        let sup = dynamic(&["a"], FleetPolicy::default(), |_, _| {});
        let lease = sup.next_assignment(0).expect("grant");
        std::thread::scope(|s| {
            let idle = s.spawn(|| {
                let got = sup.next_assignment(1);
                (got, Instant::now())
            });
            std::thread::sleep(SETTLE);
            let completed_at = Instant::now();
            sup.complete(&lease);
            let (got, returned_at) = idle.join().unwrap();
            assert_eq!(got, None);
            assert!(
                returned_at.duration_since(completed_at) < Duration::from_secs(1),
                "idle worker took {:?} to notice the night ended",
                returned_at.duration_since(completed_at)
            );
        });
    }

    #[test]
    fn blocked_worker_wakes_on_expiry_and_takes_the_reclaimed_file() {
        let sup = dynamic(&["a"], policy_ms(40), |_, _| {});
        let dead = sup.next_assignment(0).expect("grant");
        let t0 = Instant::now();
        // Nobody heartbeats `dead`: the waiter itself reclaims it at the
        // deadline and is handed the file under the next epoch.
        let l2 = sup.next_assignment(1).expect("re-grant after expiry");
        assert!(
            t0.elapsed() >= Duration::from_millis(30),
            "woke before the deadline"
        );
        assert_eq!((l2.file_idx, l2.epoch), (dead.file_idx, 2));
        assert_eq!(sup.reclaims(), 1);
        sup.complete(&l2);
        assert_eq!(sup.next_assignment(0), None);
    }

    #[test]
    fn expired_lease_is_reclaimed_fenced_and_regranted() {
        let (log, sink) = recording();
        let sup = dynamic(&["a"], policy_ms(30), sink);
        let l1 = sup.next_assignment(0).expect("grant");
        assert_eq!(l1.epoch, 1);
        // The dead holder's lease is gone once its TTL runs out...
        sup.await_loss(&l1);
        assert!(!sup.heartbeat(&l1), "reclaimed lease must not renew");
        // ...and the file is re-granted under a strictly newer epoch.
        let l2 = sup.next_assignment(1).expect("re-grant");
        assert_eq!(l2.epoch, 2);
        assert_eq!(l2.key, l1.key);
        assert_eq!(sup.reclaims(), 1);
        // Fence floor advanced at grant(1), reclaim(2), re-grant(2):
        // monotone per key, and the reclaim fires before the re-grant.
        assert_eq!(
            log.lock().as_slice(),
            &[(l1.key, 1), (l1.key, 2), (l1.key, 2)]
        );
        // The late completion from the dead holder is ignored: the file
        // is still out, so the night is not over.
        sup.complete(&l1);
        assert!(sup.heartbeat(&l2));
        sup.complete(&l2);
        assert_eq!(sup.next_assignment(2), None);
    }

    #[test]
    fn heartbeats_keep_a_slow_lease_alive() {
        let sup = dynamic(&["a"], policy_ms(40), |_, _| {});
        let l = sup.next_assignment(0).expect("grant");
        for _ in 0..5 {
            std::thread::sleep(Duration::from_millis(15));
            assert!(sup.heartbeat(&l), "renewed lease must stay valid");
        }
        sup.complete(&l);
        assert_eq!(sup.next_assignment(0), None);
        assert_eq!(sup.reclaims(), 0);
    }

    #[test]
    fn reclaim_budget_abandons_a_file_that_keeps_dying() {
        let sup = dynamic(&["cursed"], policy_ms(10).with_max_reclaims(3), |_, _| {});
        for round in 0..3 {
            let l = sup.next_assignment(0).expect("grant");
            assert_eq!(l.epoch, round + 1);
            sup.await_loss(&l);
        }
        // Budget spent: the file is abandoned, not requeued forever.
        assert_eq!(sup.next_assignment(0), None);
        let abandoned = sup.take_abandoned();
        assert_eq!(abandoned.len(), 1);
        assert_eq!(abandoned[0].file_idx, 0);
        assert!(abandoned[0].reason.contains("budget"));
    }

    #[test]
    fn voluntary_requeue_bumps_epoch_without_counting_as_reclaim() {
        let (log, sink) = recording();
        let sup = dynamic(&["a"], policy_ms(1000), sink);
        let l1 = sup.next_assignment(0).expect("grant");
        sup.requeue(&l1);
        assert_eq!(sup.reclaims(), 0, "voluntary return is not a reclaim");
        let l2 = sup.next_assignment(1).expect("re-grant");
        assert_eq!(l2.epoch, 2);
        assert!(log.lock().contains(&(l1.key, 2)));
    }

    #[test]
    fn requeue_wakes_a_blocked_worker() {
        let sup = dynamic(&["a"], FleetPolicy::default(), |_, _| {});
        let l1 = sup.next_assignment(0).expect("grant");
        std::thread::scope(|s| {
            let idle = s.spawn(|| sup.next_assignment(1));
            std::thread::sleep(SETTLE);
            assert!(!idle.is_finished());
            sup.requeue(&l1);
            let l2 = idle.join().unwrap().expect("the returned file");
            assert_eq!(l2.epoch, 2);
        });
    }

    #[test]
    fn requeues_draw_on_their_own_budget_not_the_reclaim_budget() {
        // Many voluntary returns (breaker trips on a flaky link) must not
        // burn the crash-recovery budget: with max_reclaims = 2 the file
        // survives far more than 2 requeues and still completes.
        let sup = dynamic(
            &["a"],
            policy_ms(1000).with_max_reclaims(2).with_max_requeues(64),
            |_, _| {},
        );
        for _ in 0..20 {
            let l = sup
                .next_assignment(0)
                .expect("re-grant after a voluntary return");
            sup.requeue(&l);
        }
        let l = sup.next_assignment(0).expect("grant");
        sup.complete(&l);
        assert_eq!(sup.next_assignment(0), None);
        assert!(sup.take_abandoned().is_empty());
        assert_eq!(sup.reclaims(), 0);
    }

    #[test]
    fn requeue_budget_still_bounds_a_file_no_connection_can_load() {
        let sup = dynamic(&["cursed"], policy_ms(1000).with_max_requeues(3), |_, _| {});
        for _ in 0..3 {
            let l = sup.next_assignment(0).expect("grant");
            sup.requeue(&l);
        }
        assert_eq!(sup.next_assignment(0), None);
        let abandoned = sup.take_abandoned();
        assert_eq!(abandoned.len(), 1);
        assert!(abandoned[0].reason.contains("requeued"));
    }

    #[test]
    fn static_policy_pins_files_round_robin_and_shares_returns() {
        let reg = skyobs::Registry::new();
        let sup = FleetSupervisor::new(
            &files(&["f0", "f1", "f2"]),
            policy_ms(1000),
            AssignmentPolicy::Static,
            2,
            &reg,
            |_, _| {},
        );
        // Node 0 owns files 0 and 2, node 1 owns file 1.
        let a = sup.next_assignment(0).expect("grant");
        let b = sup.next_assignment(1).expect("grant");
        let c = sup.next_assignment(0).expect("grant");
        assert_eq!((a.file_idx, b.file_idx, c.file_idx), (0, 1, 2));
        std::thread::scope(|s| {
            // Node 1's partition is drained; it does not steal, it waits.
            let idle = s.spawn(|| sup.next_assignment(1));
            std::thread::sleep(SETTLE);
            assert!(!idle.is_finished());
            // A returned file goes to the shared queue, open to any node.
            sup.requeue(&c);
            let again = idle.join().unwrap().expect("the returned file");
            assert_eq!((again.file_idx, again.epoch), (2, 2));
            sup.complete(&again);
        });
        sup.complete(&a);
        sup.complete(&b);
        assert_eq!(sup.next_assignment(0), None);
        assert_eq!(sup.next_assignment(1), None);
    }

    #[test]
    fn restart_epochs_resume_past_the_manifest() {
        // A restarted coordinator seeds epochs from the journal manifest:
        // grants must be strictly newer than anything issued before.
        let reg = skyobs::Registry::new();
        let sup = FleetSupervisor::new(
            &[("a".into(), 4), ("b".into(), 0)],
            policy_ms(1000),
            AssignmentPolicy::Dynamic,
            1,
            &reg,
            |_, _| {},
        );
        let la = sup.next_assignment(0).expect("grant");
        let lb = sup.next_assignment(0).expect("grant");
        assert_eq!((la.file_idx, la.epoch), (0, 5));
        assert_eq!((lb.file_idx, lb.epoch), (1, 1));
    }
}
