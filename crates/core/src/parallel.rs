//! Parallel loading across Condor-style nodes (§4.4).
//!
//! "we use as many Condor processes as possible to saturate the CPUs on the
//! database server … we assign unloaded data sets to the Condor nodes 'on
//! the fly' rather than dividing the data sets evenly among the Condor
//! nodes."
//!
//! [`load_night`] runs one loader per node, each with its own database
//! session, in one worker loop over one lease table ([`crate::fleet`]):
//! the table grants from a shared queue (dynamic assignment) or from a
//! round-robin pre-partition (static, the rejected baseline kept for
//! ablation A2), and a loader with nothing grantable blocks on the table
//! until a file comes back, a lease expires, or the night is over.
//!
//! Every grant is a **lease**: it carries a fencing epoch and a TTL,
//! healthy loaders heartbeat between attempts, and the supervisor reclaims
//! expired leases — so a loader killed mid-file has its file reassigned,
//! and a stalled loader that wakes up as a zombie finds its flushes
//! rejected at the session layer ([`DbError::FencedOut`]) before a single
//! stale row lands. The checkpoint journal's watermark keeps reassigned
//! files exactly-once, and its epoch manifest lets a restarted coordinator
//! issue strictly newer leases.

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use skycat::CatalogFile;
use skydb::fault::FaultKind;
use skydb::server::{Server, Session};
use skydb::wire::Fence;
use skysim::cluster::AssignmentPolicy;
use skysim::time::Waiter;

use crate::config::LoaderConfig;
use crate::fleet::{FleetSupervisor, Lease};
use crate::recovery::LoadJournal;
use crate::report::{FailedFile, FileReport, NightReport};
use crate::resilience::{classify, fault_label, Backoff, CircuitBreaker, Degrader, ErrorClass};

/// A night-level orchestration failure: a loader worker died (panicked),
/// or — from [`load_night`] — the night ended with unretirable files.
/// Per-file failures a caller may want to inspect are in
/// [`NightReport::failed_files`]; `NightError` is for the cases where no
/// useful report exists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NightError {
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for NightError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "night load failed: {}", self.message)
    }
}

impl std::error::Error for NightError {}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "loader worker panicked".to_owned()
    }
}

/// Load an observation's files with `nodes` parallel loader processes.
///
/// Returns an error if any file could not be retired within the configured
/// retry/requeue budget, or if a loader worker died (row-level errors are
/// skipped and reported, as in the paper). Callers that prefer a report
/// with the per-file failure list use [`load_night_with_journal`] and
/// inspect [`NightReport::failed_files`].
pub fn load_night(
    server: &Arc<Server>,
    files: &[CatalogFile],
    cfg: &LoaderConfig,
    nodes: usize,
    policy: AssignmentPolicy,
) -> Result<NightReport, NightError> {
    let night = load_night_with_journal(server, files, cfg, nodes, policy, None)?;
    if let Some(f) = night.failed_files.first() {
        return Err(NightError {
            message: format!("loading {} failed: {}", f.file, f.error),
        });
    }
    Ok(night)
}

/// Per-node retry state: the connection's circuit breaker and its seeded
/// backoff stream.
struct NodeState {
    breaker: CircuitBreaker,
    backoff: Backoff,
}

/// How one lease on one file ended.
enum FileOutcome {
    /// Loaded, failed permanently, or given up: do not reassign.
    Retired,
    /// Breaker trip: return the file to the lease table.
    Requeue,
    /// The lease was reclaimed (or the flush fenced out) mid-file: the
    /// new holder owns the outcome; nothing to do here.
    TakenAway,
}

/// The first `keep` lines of `text` (the whole text if it has fewer) —
/// what a loader killed or frozen mid-file managed to consume.
fn line_prefix(text: &str, keep: usize) -> &str {
    if keep == 0 {
        return "";
    }
    match text.split_inclusive('\n').nth(keep - 1) {
        Some(last) => {
            let end = last.as_ptr() as usize - text.as_ptr() as usize + last.len();
            &text[..end]
        }
        None => text,
    }
}

/// [`load_night`] with an optional shared checkpoint journal.
///
/// Connection-level failures (driver timeouts, resets, busy rejections,
/// disk-full commits, corrupt-payload rejections) are retried per
/// `cfg.retry`: roll back the broken transaction, back off with seeded
/// jitter, then reload. With a journal the retry resumes from the last
/// commit and the attempt budget refreshes whenever an attempt *made
/// progress* (the journal advanced) or the fleet changed degradation level
/// — a long file on a flaky link may take many resumes but always
/// converges. Without a journal, any rows committed before the failure
/// re-surface as PK-duplicate skips, so the repository still converges to
/// exactly one copy of every row.
///
/// Every grant is a lease (`cfg.fleet`), under either assignment `policy`:
/// loaders heartbeat between attempts, expired leases are reclaimed and
/// their files reassigned under a bumped fencing epoch, and a zombie
/// holder's stale flushes are rejected by the database before anything
/// applies. A connection whose breaker trips is quarantined: the loader
/// reconnects and the in-flight file is requeued, charging the per-file
/// requeue budget, which is separate from — and larger than — the reclaim
/// budget. A write conflict against another open transaction is waited
/// out in place, on the wall clock, up to the same count, without
/// spending the stalled-attempt budget. Files that cannot be retired (including
/// everything pending when the server crashes) are reported in
/// [`NightReport::failed_files`].
///
/// `Err` is reserved for orchestration failures — a loader worker dying —
/// not for per-file load failures.
pub fn load_night_with_journal(
    server: &Arc<Server>,
    files: &[CatalogFile],
    cfg: &LoaderConfig,
    nodes: usize,
    policy: AssignmentPolicy,
    journal: Option<&LoadJournal>,
) -> Result<NightReport, NightError> {
    assert!(nodes > 0, "need at least one loader node");
    let retry = &cfg.retry;
    // The coordinator's telemetry registry: the server's registry, which by
    // default is also the engine's. Every counter the night report needs is
    // incremented here as the event happens; the report is a view over the
    // closing snapshot delta (the counter-merge-drift fix: final assembly,
    // per-file accounting, and chaos aggregation all read one ledger).
    let obs = server.obs().clone();
    let baseline = obs.snapshot();
    let retries = obs.counter("retries");
    let loader_kills = obs.counter("loader_kills");
    let loader_stalls = obs.counter("loader_stalls");
    let fencing_rejections = obs.counter("fleet.fence_rejections");
    let backoff_waits = obs.counter("backoff.waits");
    let backoff_wait_us = obs.counter("backoff.wait_us");
    let breaker_trips = obs.counter("breaker_trips");
    // One session per node, like one loader process per Condor node. The
    // Mutex allows a tripped connection to be swapped for a fresh one.
    let connect = || {
        let s = server.connect();
        s.set_call_timeout(retry.call_timeout);
        s
    };
    let sessions: Vec<Mutex<Session>> = (0..nodes).map(|_| Mutex::new(connect())).collect();
    let node_states: Vec<Mutex<NodeState>> = (0..nodes)
        .map(|i| {
            Mutex::new(NodeState {
                breaker: CircuitBreaker::new(retry.breaker_threshold)
                    .with_trips_counter(breaker_trips.clone()),
                backoff: Backoff::new(retry, i as u64),
            })
        })
        .collect();
    let degrader = Degrader::new(retry);
    let waiter = Waiter::new(server.engine().scale());
    let reports: Mutex<Vec<FileReport>> = Mutex::new(Vec::with_capacity(files.len()));
    let failed: Mutex<Vec<FailedFile>> = Mutex::new(Vec::new());

    let give_up = |file: &CatalogFile, why: String| {
        failed.lock().push(FailedFile {
            file: file.name.clone(),
            error: why,
        });
    };
    // The connection aborts a broken transaction; the rollback itself
    // crosses the wire and can hit the same flaky link, so insist a little.
    // (Rollback is unfenced, so a superseded holder can always clean up.)
    let roll_back = |node_idx: usize| {
        let s = sessions[node_idx].lock();
        for _ in 0..3 {
            if s.rollback().is_ok() {
                break;
            }
        }
    };
    // The next delay of the node's seeded backoff stream, counted.
    let next_backoff = |node_idx: usize| {
        let delay = node_states[node_idx].lock().backoff.next_delay();
        backoff_waits.inc();
        backoff_wait_us.add(delay.as_micros() as u64);
        delay
    };

    // The lease table: the only thing that decides what a loader does next.
    let initial: Vec<(String, u64)> = files
        .iter()
        .map(|f| {
            let key = crate::fleet::fence_key(&f.name);
            let manifest = journal.map(|j| j.epoch_for(&f.name)).unwrap_or(0);
            // Max-merge with the server's floor so a restarted coordinator
            // (or a reused server) always issues strictly newer epochs
            // than anything fenced before.
            (f.name.clone(), manifest.max(server.fence_floor(key)))
        })
        .collect();
    let supervisor = {
        let server = Arc::clone(server);
        FleetSupervisor::new(
            &initial,
            cfg.fleet.clone(),
            policy,
            nodes,
            &obs,
            move |key, epoch| server.advance_fence(key, epoch),
        )
    };
    let supervisor = &supervisor;
    let fence_session = |node_idx: usize, lease: &Lease| {
        sessions[node_idx].lock().set_fence(Some(Fence {
            key: lease.key,
            epoch: lease.epoch,
        }));
    };

    // The per-attempt retry loop for one lease.
    let drive_file = |node_idx: usize, file: &CatalogFile, lease: &Lease| -> FileOutcome {
        let mut stalled = 0usize;
        let mut conflicts = 0u64;
        let mut attempts = 0u64;
        let mut last_level = degrader.level();
        fence_session(node_idx, lease);
        let outcome = loop {
            // Renew the lease before burning time on an attempt. A failed
            // renewal means we were presumed dead and the file reassigned:
            // discard the half-done transaction and walk away — the new
            // holder resumes from the journal.
            if !supervisor.heartbeat(lease) {
                roll_back(node_idx);
                break FileOutcome::TakenAway;
            }
            // Load under the degradation ladder's current shape.
            let effective = degrader.shape(cfg);
            let progress_before = journal.map(|j| j.committed_lines(&file.name));
            let result = {
                let session = sessions[node_idx].lock();
                match journal {
                    Some(j) => crate::bulk::load_catalog_text_with_journal(
                        &session, &effective, &file.name, &file.text, j,
                    ),
                    None => {
                        crate::bulk::load_catalog_text(&session, &effective, &file.name, &file.text)
                    }
                }
            };
            let err = match result {
                Ok(mut report) => {
                    report.retries = attempts;
                    degrader.note_success();
                    let mut st = node_states[node_idx].lock();
                    st.breaker.record_success();
                    st.backoff.reset();
                    drop(st);
                    reports.lock().push(report);
                    break FileOutcome::Retired;
                }
                Err(e) => e,
            };
            attempts += 1;
            retries.inc();
            let class = classify(&err);
            match class {
                ErrorClass::Fenced => {
                    // Our lease was reclaimed while a call was in flight:
                    // the database rejected the stale flush before
                    // anything applied. The file belongs to its new
                    // holder — roll back the leftover transaction and
                    // abandon silently.
                    fencing_rejections.inc();
                    roll_back(node_idx);
                    break FileOutcome::TakenAway;
                }
                ErrorClass::Permanent => {
                    roll_back(node_idx);
                    give_up(file, err.to_string());
                    break FileOutcome::Retired;
                }
                ErrorClass::ServerLost => {
                    // The server is down; retrying any connection is futile.
                    // Report and let the caller (e.g. the chaos harness)
                    // recover the repository and resume from the journal.
                    give_up(file, err.to_string());
                    break FileOutcome::Retired;
                }
                ErrorClass::Transient | ErrorClass::Contended => {}
            }
            obs.counter(&format!("faults.survived.{}", fault_label(&err)))
                .inc();
            roll_back(node_idx);
            if class == ErrorClass::Contended {
                // Another open transaction holds a key this file needs.
                // Neither smaller calls nor a fresh connection help, and
                // the load has not stalled: wait for the holder, as often
                // as the file's requeue budget allows. The holder runs on
                // the wall clock, so the wait does too, whatever the
                // modeled time scale; it stays well inside the lease so
                // the next attempt can still renew it.
                conflicts += 1;
                if conflicts >= cfg.fleet.max_requeues_per_file {
                    give_up(file, format!("{err} ({conflicts} times)"));
                    break FileOutcome::Retired;
                }
                std::thread::sleep(next_backoff(node_idx).min(cfg.fleet.lease_ttl / 4));
                continue;
            }
            degrader.note_fault(&err);
            let tripped = node_states[node_idx].lock().breaker.record_failure();
            if tripped {
                // Quarantine the sick connection: reconnect, requeue the
                // file for a later grant on a healthy session.
                *sessions[node_idx].lock() = connect();
                break FileOutcome::Requeue;
            }
            // The attempt budget counts only *stalled* attempts: journal
            // progress or a degradation-ladder move refreshes it.
            let progressed = match (progress_before, journal) {
                (Some(before), Some(j)) => j.committed_lines(&file.name) > before,
                _ => false,
            };
            let level = degrader.level();
            if progressed || level != last_level {
                stalled = 0;
            } else {
                stalled += 1;
            }
            last_level = level;
            if stalled >= retry.max_attempts {
                give_up(
                    file,
                    format!("no progress after {} attempts: {err}", retry.max_attempts),
                );
                break FileOutcome::Retired;
            }
            waiter.wait(next_backoff(node_idx));
        };
        sessions[node_idx].lock().set_fence(None);
        outcome
    };

    // Injected loader faults (chaos): a kill loads a truncated prefix and
    // loses its process — the database aborts the dead connection's open
    // transaction, the node restarts with a fresh session, and the lease
    // is never released: TTL expiry is the recovery path. A stall loads a
    // prefix, freezes past its TTL, then wakes as a zombie and flushes the
    // rest under its stale epoch — which fencing rejects before anything
    // applies.
    let truncated_prefix_load = |node_idx: usize, lease: &Lease, file: &CatalogFile| {
        let keep = file.text.lines().count() / 2;
        let prefix = line_prefix(&file.text, keep);
        fence_session(node_idx, lease);
        let s = sessions[node_idx].lock();
        let _ = match journal {
            Some(j) => crate::bulk::load_catalog_text_with_journal(&s, cfg, &file.name, prefix, j),
            None => crate::bulk::load_catalog_text(&s, cfg, &file.name, prefix),
        };
    };
    let kill_loader = |node_idx: usize, lease: &Lease, file: &CatalogFile| {
        server.note_injected_fault(FaultKind::LoaderKill);
        loader_kills.inc();
        truncated_prefix_load(node_idx, lease, file);
        // The dead connection's open transaction is aborted by the
        // database (modeled as a rollback).
        roll_back(node_idx);
        // The Condor node restarts with a fresh loader process; the lease
        // is left to expire.
        *sessions[node_idx].lock() = connect();
    };
    let stall_loader = |node_idx: usize, lease: &Lease, file: &CatalogFile| {
        server.note_injected_fault(FaultKind::LoaderStall);
        loader_stalls.inc();
        truncated_prefix_load(node_idx, lease, file);
        // Freeze: no heartbeats until the supervisor presumes us dead and
        // reassigns the file. (The wait drives expiry itself, so this
        // converges even on a single-node fleet.)
        supervisor.await_loss(lease);
        // Zombie wakes and flushes the remainder under the stale epoch:
        // the fence rejects it before a single row lands. Other injected
        // faults can beat the fence check to the wire, so insist a few
        // times — once the lease is reclaimed the fence verdict is
        // permanent.
        {
            let s = sessions[node_idx].lock();
            for _ in 0..16 {
                let res = match journal {
                    Some(j) => crate::bulk::load_catalog_text_with_journal(
                        &s, cfg, &file.name, &file.text, j,
                    ),
                    None => crate::bulk::load_catalog_text(&s, cfg, &file.name, &file.text),
                };
                match res {
                    Err(e) if classify(&e) == ErrorClass::Fenced => {
                        fencing_rejections.inc();
                        break;
                    }
                    // Transient noise before the fence check; retry.
                    Err(_) => continue,
                    // Nothing left to send (the journal already covers the
                    // whole file): no stale call, nothing landed.
                    Ok(_) => break,
                }
            }
        }
        roll_back(node_idx);
        sessions[node_idx].lock().set_fence(None);
    };

    // The one worker loop: ask the table, load what it grants, report back.
    let worker = |node_idx: usize| -> Duration {
        let mut busy = Duration::ZERO;
        while let Some(lease) = supervisor.next_assignment(node_idx) {
            let t0 = Instant::now();
            let file = &files[lease.file_idx];
            if let Some(j) = journal {
                j.record_epoch(&file.name, lease.epoch);
            }
            match server.fault_plan().and_then(|p| p.decide_loader_fault()) {
                Some(FaultKind::LoaderKill) => kill_loader(node_idx, &lease, file),
                Some(FaultKind::LoaderStall) => stall_loader(node_idx, &lease, file),
                _ => match drive_file(node_idx, file, &lease) {
                    FileOutcome::Retired => supervisor.complete(&lease),
                    FileOutcome::Requeue => supervisor.requeue(&lease),
                    FileOutcome::TakenAway => {} // already reclaimed
                },
            }
            busy += t0.elapsed();
        }
        busy
    };

    let start = Instant::now();
    let busy = run_workers(nodes, &worker)?;
    let makespan = start.elapsed();
    // Files whose reclaim or requeue budget ran out are failures, not limbo.
    for a in supervisor.take_abandoned() {
        give_up(&files[a.file_idx], a.reason);
    }

    // Close out any session-held transactions (loads commit per policy, but
    // be safe if a file had zero commits). Best effort: on a crashed or
    // still-faulty server the commit may fail; the rows at stake were never
    // journaled, so a resumed load re-sends them. Fences are cleared first
    // so a leftover lease token cannot veto the sweep.
    for s in &sessions {
        let s = s.lock();
        s.set_fence(None);
        if s.commit().is_err() {
            let _ = s.rollback();
        }
    }

    // Fold the degrader's wall-clock accounting into the registry before
    // the closing snapshot, so the report and any later `--metrics` dump
    // read the same ledger.
    obs.counter("degrade.time_us")
        .add(degrader.degraded_time().as_micros() as u64);
    obs.counter("degrade.transitions")
        .add(degrader.transitions().len() as u64);

    // The night report's counter fields are a view over the telemetry
    // delta; only run-shape fields are filled in by hand.
    let delta = obs.snapshot().since(&baseline);
    let mut night = NightReport::from_telemetry(&delta);
    night.files = reports.into_inner();
    night.makespan = makespan;
    night.nodes = nodes;
    night.node_imbalance = imbalance(&busy);
    night.degrade_transitions = degrader.transitions();
    night.failed_files = failed.into_inner();
    Ok(night)
}

/// Ratio of the busiest node's busy time to the idlest node's (1.0 is
/// perfectly balanced), mirroring
/// [`ClusterReport::imbalance`](skysim::cluster::ClusterReport::imbalance).
fn imbalance(busy: &[Duration]) -> f64 {
    let max = busy.iter().map(Duration::as_secs_f64).fold(0.0, f64::max);
    let min = busy
        .iter()
        .map(Duration::as_secs_f64)
        .fold(f64::INFINITY, f64::min);
    if min <= 0.0 {
        f64::INFINITY
    } else {
        max / min
    }
}

/// Run one worker closure per node on scoped threads, propagating panics
/// as [`NightError`] instead of unwinding through the caller.
fn run_workers(
    nodes: usize,
    worker: &(impl Fn(usize) -> Duration + Sync),
) -> Result<Vec<Duration>, NightError> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..nodes).map(|i| s.spawn(move || worker(i))).collect();
        let mut busy = Vec::with_capacity(nodes);
        let mut first_panic: Option<String> = None;
        for h in handles {
            match h.join() {
                Ok(b) => busy.push(b),
                Err(p) => {
                    let msg = panic_message(p);
                    first_panic.get_or_insert(msg);
                }
            }
        }
        match first_panic {
            Some(message) => Err(NightError {
                message: format!("loader worker panicked: {message}"),
            }),
            None => Ok(busy),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use skycat::gen::{aggregate_expected, generate_observation, GenConfig};
    use skydb::config::DbConfig;
    use skydb::fault::{FaultPlan, FaultPlanConfig};

    fn fresh_server() -> Arc<Server> {
        let server = Server::start(DbConfig::test());
        skycat::create_all(server.engine()).unwrap();
        skycat::seed_static(server.engine()).unwrap();
        skycat::seed_observation(server.engine(), 1, 100).unwrap();
        server
    }

    /// A fleet policy with timings short enough for tests that actually
    /// exercise reclamation (wall-clock TTLs), but long enough that a
    /// healthy file attempt finishes inside one lease term.
    fn quick_fleet() -> crate::fleet::FleetPolicy {
        crate::fleet::FleetPolicy::default().with_lease_ttl(Duration::from_millis(250))
    }

    #[test]
    fn parallel_night_loads_every_file_exactly() {
        let cfg = GenConfig::night(31, 100).with_files(8);
        let files = generate_observation(&cfg);
        let expected = aggregate_expected(&files);
        let server = fresh_server();
        let report = load_night(
            &server,
            &files,
            &LoaderConfig::test(),
            4,
            AssignmentPolicy::Dynamic,
        )
        .unwrap();
        assert_eq!(report.files.len(), 8);
        assert_eq!(report.rows_loaded(), expected.total_loadable());
        for (table, expect) in &expected.loadable {
            let tid = server.engine().table_id(table).unwrap();
            assert_eq!(server.engine().row_count(tid), *expect, "{table}");
        }
        // A healthy night needs no supervision interventions.
        assert_eq!(report.lease_reclaims, 0);
        assert_eq!(report.fencing_rejections, 0);
    }

    #[test]
    fn pipelined_night_matches_serial_night() {
        // Every loader session runs its own parse/flush pipeline; the
        // night-level outcome must be indistinguishable from serial mode.
        let cfg = GenConfig::night(39, 100)
            .with_files(6)
            .with_error_rate(0.04);
        let files = generate_observation(&cfg);
        let expected = aggregate_expected(&files);
        let run = |loader: &LoaderConfig| {
            let server = fresh_server();
            let night = load_night(&server, &files, loader, 3, AssignmentPolicy::Dynamic).unwrap();
            let counts: Vec<u64> = expected
                .loadable
                .keys()
                .map(|t| {
                    let tid = server.engine().table_id(t).unwrap();
                    server.engine().row_count(tid)
                })
                .collect();
            (night, counts)
        };
        let (serial, serial_counts) = run(&LoaderConfig::test());
        let (piped, piped_counts) =
            run(&LoaderConfig::test().with_pipeline(crate::config::PipelineMode::Double));
        assert_eq!(serial.rows_loaded(), piped.rows_loaded());
        assert_eq!(serial.rows_skipped(), piped.rows_skipped());
        assert_eq!(serial.loaded_by_table(), piped.loaded_by_table());
        assert_eq!(serial_counts, piped_counts);
        assert_eq!(piped.rows_loaded(), expected.total_loadable());
    }

    #[test]
    fn parallel_with_errors_matches_expected_counts() {
        let cfg = GenConfig::night(33, 100)
            .with_files(6)
            .with_error_rate(0.05);
        let files = generate_observation(&cfg);
        let expected = aggregate_expected(&files);
        assert!(expected.corrupted_objects > 0);
        let server = fresh_server();
        let report = load_night(
            &server,
            &files,
            &LoaderConfig::test(),
            3,
            AssignmentPolicy::Dynamic,
        )
        .unwrap();
        assert_eq!(report.rows_loaded(), expected.total_loadable());
        assert_eq!(
            report.rows_skipped(),
            expected.total_emitted() - expected.total_loadable()
        );
    }

    #[test]
    fn static_assignment_loads_the_same_rows() {
        let cfg = GenConfig::night(35, 100).with_files(5);
        let files = generate_observation(&cfg);
        let expected = aggregate_expected(&files);
        let server = fresh_server();
        let report = load_night(
            &server,
            &files,
            &LoaderConfig::test(),
            2,
            AssignmentPolicy::Static,
        )
        .unwrap();
        assert_eq!(report.rows_loaded(), expected.total_loadable());
        assert_eq!(report.nodes, 2);
    }

    #[test]
    fn write_conflict_on_a_held_key_waits_under_the_requeue_budget() {
        // Another open transaction stages a key the night needs and holds
        // it for about 100 ms — longer than the 2 + 4 + 8 + 16 ms that a
        // 4-attempt stall budget would wait. The loader must back off and
        // requeue until the holder resolves, not give the file up.
        let cfg = GenConfig::night(59, 100).with_files(2);
        let files = generate_observation(&cfg);
        let expected = aggregate_expected(&files);
        // One real row of the night, learned from a scratch load.
        let scratch = fresh_server();
        load_night(
            &scratch,
            &files,
            &LoaderConfig::test(),
            1,
            AssignmentPolicy::Dynamic,
        )
        .unwrap();
        let columns = scratch.engine().table_id("ccd_columns").unwrap();
        let row = scratch
            .engine()
            .scan_where(columns, None)
            .unwrap()
            .remove(0);

        let server = fresh_server();
        let engine = server.engine();
        let holder = engine.begin();
        engine.insert_row(holder, columns, &row).unwrap();
        let night = std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(100));
                engine.rollback(holder).unwrap();
            });
            load_night_with_journal(
                &server,
                &files,
                &LoaderConfig::test(),
                1,
                AssignmentPolicy::Dynamic,
                None,
            )
            .unwrap()
        });
        assert!(night.is_complete(), "failed: {:?}", night.failed_files);
        assert!(
            night
                .faults_survived
                .get("write_conflict")
                .copied()
                .unwrap_or(0)
                > 0,
            "the held key never conflicted — vacuous"
        );
        for (table, expect) in &expected.loadable {
            let tid = server.engine().table_id(table).unwrap();
            assert_eq!(server.engine().row_count(tid), *expect, "{table}");
        }
    }

    #[test]
    fn single_node_degenerates_to_serial() {
        let cfg = GenConfig::night(37, 100).with_files(3);
        let files = generate_observation(&cfg);
        let server = fresh_server();
        let report = load_night(
            &server,
            &files,
            &LoaderConfig::test(),
            1,
            AssignmentPolicy::Dynamic,
        )
        .unwrap();
        assert_eq!(report.files.len(), 3);
        assert!(report.rows_loaded() > 0);
        assert!((report.node_imbalance - 1.0).abs() < 1e-9);
    }

    #[test]
    fn failed_night_is_an_error_not_a_panic() {
        // Crash the server on the very first flush: every file fails, and
        // load_night must surface that as Err, never a panic.
        let cfg = GenConfig::night(45, 100).with_files(2);
        let files = generate_observation(&cfg);
        let server = fresh_server();
        server.set_fault_plan(Some(FaultPlan::new(
            FaultPlanConfig::new(9).with_crash_on_flush(1),
        )));
        let err = load_night(
            &server,
            &files,
            &LoaderConfig::test(),
            2,
            AssignmentPolicy::Dynamic,
        )
        .unwrap_err();
        assert!(err.message.contains("failed"), "got: {err}");
    }

    #[test]
    fn degradation_round_trip_under_batch_corruption() {
        use crate::resilience::{RetryPolicy, MAX_DEGRADE_LEVEL};

        // Every batch call is rejected as corrupt, so the fleet must walk
        // the full degradation ladder down to per-row inserts (which the
        // corruption fault cannot touch), then climb back to batch mode
        // after enough clean files.
        let cfg = GenConfig::night(41, 100).with_files(6);
        let files = generate_observation(&cfg);
        let expected = aggregate_expected(&files);
        let server = fresh_server();
        server.set_fault_plan(Some(FaultPlan::new(
            FaultPlanConfig::new(7).with_corruption(1.0),
        )));
        let retry = RetryPolicy::default()
            .with_degradation(1, 2)
            .with_breaker_threshold(100);
        let loader = LoaderConfig::test().with_retry(retry);
        let journal = LoadJournal::new();
        let night = load_night_with_journal(
            &server,
            &files,
            &loader,
            2,
            AssignmentPolicy::Dynamic,
            Some(&journal),
        )
        .unwrap();
        assert!(night.is_complete(), "failed: {:?}", night.failed_files);
        assert_eq!(night.rows_loaded(), expected.total_loadable());
        for (table, expect) in &expected.loadable {
            let tid = server.engine().table_id(table).unwrap();
            assert_eq!(server.engine().row_count(tid), *expect, "{table}");
        }
        // The ladder bottomed out at per-row inserts...
        assert!(
            night
                .degrade_transitions
                .iter()
                .any(|t| t.to == MAX_DEGRADE_LEVEL && t.trigger == "degrade"),
            "never reached per-row fallback: {:?}",
            night.degrade_transitions
        );
        // ...and batch mode was restored once loads went clean again.
        assert!(
            night
                .degrade_transitions
                .iter()
                .any(|t| t.to == 0 && t.trigger == "restore"),
            "never restored batch mode: {:?}",
            night.degrade_transitions
        );
        assert!(night.degraded_time > Duration::ZERO);
        assert!(night.retries > 0);
        assert!(*night.faults_survived.get("corruption").unwrap_or(&0) > 0);
    }

    #[test]
    fn breaker_trip_quarantines_connection_and_requeues_file() {
        use crate::resilience::RetryPolicy;

        // A hair-trigger breaker: the first reset on a connection
        // quarantines it; the file must come back through dynamic
        // assignment on a fresh session and still land exactly once.
        let cfg = GenConfig::night(43, 100).with_files(6);
        let files = generate_observation(&cfg);
        let expected = aggregate_expected(&files);
        let server = fresh_server();
        // Rare faults: each one trips the hair-trigger breaker, but the
        // requeued reload usually gets a long clean window to resume in.
        server.set_fault_plan(Some(skydb::FaultPlan::every_nth(251)));
        let loader = LoaderConfig::test()
            .with_array_size(300)
            .with_commit_policy(crate::config::CommitPolicy::PerFlush)
            .with_retry(RetryPolicy::default().with_breaker_threshold(1));
        let journal = LoadJournal::new();
        let night = load_night_with_journal(
            &server,
            &files,
            &loader,
            2,
            AssignmentPolicy::Dynamic,
            Some(&journal),
        )
        .unwrap();
        assert!(night.is_complete(), "failed: {:?}", night.failed_files);
        assert!(night.breaker_trips > 0);
        assert!(night.retries > 0);
        // Reports from requeued files only count rows loaded after their
        // journal resume point, so the repository itself is the
        // exactly-once oracle.
        assert!(night.rows_loaded() <= expected.total_loadable());
        for (table, expect) in &expected.loadable {
            let tid = server.engine().table_id(table).unwrap();
            assert_eq!(server.engine().row_count(tid), *expect, "{table}");
        }
    }

    #[test]
    fn loader_kill_recovers_via_lease_reclaim() {
        // Kill the very first granted loader mid-file: its lease must
        // expire, the file must be reassigned, and every loadable row must
        // land exactly once (journal watermark + fencing).
        let cfg = GenConfig::night(47, 100).with_files(4);
        let files = generate_observation(&cfg);
        let expected = aggregate_expected(&files);
        let server = fresh_server();
        server.set_fault_plan(Some(FaultPlan::new(
            FaultPlanConfig::new(47).with_loader_kill_at(1),
        )));
        let loader = LoaderConfig::test()
            .with_commit_policy(crate::config::CommitPolicy::PerFlush)
            .with_fleet(quick_fleet());
        let journal = LoadJournal::new();
        let night = load_night_with_journal(
            &server,
            &files,
            &loader,
            2,
            AssignmentPolicy::Dynamic,
            Some(&journal),
        )
        .unwrap();
        assert!(night.is_complete(), "failed: {:?}", night.failed_files);
        assert_eq!(night.loader_kills, 1);
        assert!(
            night.lease_reclaims >= 1,
            "the killed loader's lease was never reclaimed"
        );
        for (table, expect) in &expected.loadable {
            let tid = server.engine().table_id(table).unwrap();
            assert_eq!(server.engine().row_count(tid), *expect, "{table}");
        }
        // The reassigned grant runs at a higher epoch, and the manifest
        // remembers it for coordinator restarts.
        let bumped = files
            .iter()
            .filter(|f| journal.epoch_for(&f.name) >= 2)
            .count();
        assert!(bumped >= 1, "no file was ever re-leased");
    }

    #[test]
    fn loader_stall_zombie_is_fenced_out() {
        // Freeze the first granted loader past its TTL: the file is
        // reassigned, and when the zombie wakes and flushes, fencing must
        // reject it — rows still land exactly once.
        let cfg = GenConfig::night(49, 100).with_files(4);
        let files = generate_observation(&cfg);
        let expected = aggregate_expected(&files);
        let server = fresh_server();
        server.set_fault_plan(Some(FaultPlan::new(
            FaultPlanConfig::new(49).with_loader_stall_at(1),
        )));
        let loader = LoaderConfig::test()
            .with_commit_policy(crate::config::CommitPolicy::PerFlush)
            .with_fleet(quick_fleet());
        let journal = LoadJournal::new();
        let night = load_night_with_journal(
            &server,
            &files,
            &loader,
            2,
            AssignmentPolicy::Dynamic,
            Some(&journal),
        )
        .unwrap();
        assert!(night.is_complete(), "failed: {:?}", night.failed_files);
        assert_eq!(night.loader_stalls, 1);
        assert!(night.lease_reclaims >= 1, "stalled lease never reclaimed");
        assert!(
            night.fencing_rejections >= 1,
            "the zombie's stale flush was never fenced"
        );
        for (table, expect) in &expected.loadable {
            let tid = server.engine().table_id(table).unwrap();
            assert_eq!(server.engine().row_count(tid), *expect, "{table}");
        }
    }

    #[test]
    fn throughput_metric_positive() {
        let cfg = GenConfig::night(39, 100).with_files(4);
        let files = generate_observation(&cfg);
        let server = fresh_server();
        let report = load_night(
            &server,
            &files,
            &LoaderConfig::test(),
            2,
            AssignmentPolicy::Dynamic,
        )
        .unwrap();
        assert!(report.throughput_mb_per_s() > 0.0);
        assert!(report.bytes_read() > 0);
    }

    #[test]
    fn night_report_agrees_with_registry_delta_under_faults() {
        // Regression guard for the old three-way counter drift: the night
        // report and an independently taken registry delta must agree on a
        // 2-loader run under connection weather. (The third path, the
        // chaos re-aggregation, is covered by the chaos metrics test.)
        let cfg = GenConfig::night(53, 100).with_files(4);
        let files = generate_observation(&cfg);
        let server = fresh_server();
        server.set_fault_plan(Some(FaultPlan::new(
            FaultPlanConfig::new(53).with_resets(0.004).with_busy(0.004),
        )));
        let loader = LoaderConfig::test()
            .with_commit_policy(crate::config::CommitPolicy::PerFlush)
            .with_retry(
                crate::resilience::RetryPolicy::default()
                    .with_max_attempts(16)
                    .with_breaker_threshold(100),
            );
        let journal = LoadJournal::new();
        let before = server.obs_snapshot();
        let night = load_night_with_journal(
            &server,
            &files,
            &loader,
            2,
            AssignmentPolicy::Dynamic,
            Some(&journal),
        )
        .unwrap();
        let delta = server.obs_snapshot().since(&before);
        assert!(night.retries > 0, "fault plan injected nothing — vacuous");
        assert_eq!(night.retries, delta.counter("retries"));
        assert_eq!(night.breaker_trips, delta.counter("breaker_trips"));
        assert_eq!(night.loader_kills, delta.counter("loader_kills"));
        assert_eq!(night.loader_stalls, delta.counter("loader_stalls"));
        assert_eq!(night.lease_reclaims, delta.counter("fleet.reclaims"));
        assert_eq!(
            night.fencing_rejections,
            delta.counter("fleet.fence_rejections")
        );
        assert_eq!(night.faults_survived, delta.with_prefix("faults.survived."));
    }

    #[test]
    fn per_file_rows_agree_with_engine_counters_on_a_clean_run() {
        // The second leg of the drift guard: on a clean 2-loader run the
        // per-file reports, the night total, and the engine's own
        // rows_inserted counter all describe the same rows.
        let cfg = GenConfig::night(57, 100).with_files(4);
        let files = generate_observation(&cfg);
        let server = fresh_server();
        let before = server.obs_snapshot();
        let night = load_night(
            &server,
            &files,
            &LoaderConfig::test(),
            2,
            AssignmentPolicy::Dynamic,
        )
        .unwrap();
        let delta = server.obs_snapshot().since(&before);
        let per_file: u64 = night.files.iter().map(|f| f.rows_loaded).sum();
        assert!(per_file > 0);
        assert_eq!(per_file, night.rows_loaded());
        assert_eq!(per_file, delta.counter("engine.rows_inserted"));
    }
}
