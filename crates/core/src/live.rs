//! Live micro-batch ingest: files load as they arrive over the night.
//!
//! The paper's pipeline (§4) assumes the whole night's catalog files are
//! staged before the bulk load begins. A live survey can't wait: the
//! telescope observes all night and the extraction pipeline emits files
//! continuously, so the repository ingests each file as a **fenced
//! micro-batch** the moment it lands — the same exactly-once loader-fleet
//! machinery as the nightly bulk path ([`crate::parallel`]), driven one
//! file at a time.
//!
//! What matters operationally is **freshness**: how stale is the newest
//! committed row relative to its arrival? This module models the night as
//! a deterministic Poisson [`ArrivalSchedule`] (seeded, reproducible) and
//! runs a single-server queueing clock over it: each batch becomes
//! visible at `avail = max(avail, arrival) + modeled_load_cost`, and its
//! freshness lag `avail - arrival` is recorded into the
//! `live.freshness_us` histogram. Bursts — a pipeline node flushing its
//! backlog ([`FaultKind::ArrivalBurst`]) — compress the schedule and show
//! up directly as lag-percentile spikes, which the per-run SLO check
//! ([`LiveReport::slo_met`]) turns into violations.

use std::sync::Arc;
use std::time::Duration;

use serde::Serialize;

use skycat::CatalogFile;
use skydb::fault::FaultKind;
use skydb::server::Server;
use skysim::cluster::AssignmentPolicy;
use skysim::ArrivalSchedule;

use crate::config::LoaderConfig;
use crate::recovery::LoadJournal;
use crate::report::ModeledCost;
use crate::serving::QueueStats;

/// How to drive a live-ingest night.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Seed for the arrival schedule (and anything downstream).
    pub seed: u64,
    /// Loader nodes per micro-batch.
    pub nodes: usize,
    /// Mean modeled inter-arrival gap between files.
    pub mean_interarrival: Duration,
    /// Arrivals compressed per injected burst.
    pub burst_run: usize,
    /// Gap-compression factor of an injected burst.
    pub burst_factor: f64,
    /// Freshness budget: a batch whose arrival→visible lag exceeds this
    /// counts as an SLO violation.
    pub slo_budget: Duration,
    /// Loader settings for each micro-batch.
    pub loader: LoaderConfig,
}

impl LiveConfig {
    /// Test/CI defaults: fast modeled night, generous budget.
    pub fn test(seed: u64) -> Self {
        LiveConfig {
            seed,
            nodes: 2,
            mean_interarrival: Duration::from_millis(5),
            burst_run: 3,
            burst_factor: 8.0,
            slo_budget: Duration::from_millis(250),
            loader: LoaderConfig::test(),
        }
    }
}

/// What a live-ingest night did, batch by batch.
#[derive(Debug, Clone, Serialize)]
pub struct LiveReport {
    /// Seed the arrival schedule derived from.
    pub seed: u64,
    /// Micro-batches ingested (one per arrived file).
    pub batches: usize,
    /// Rows committed across all batches.
    pub rows_loaded: u64,
    /// Rows skipped by per-row policy.
    pub rows_skipped: u64,
    /// Whole files that failed.
    pub failed_files: usize,
    /// Failed file-load attempts retried by the fleet.
    pub retries: u64,
    /// Injected arrival bursts.
    pub arrival_bursts: u64,
    /// Modeled span from night start to the last arrival (micros).
    pub night_span_us: u64,
    /// Arrival→committed-visible lag percentiles (`live.freshness_us`).
    pub freshness: QueueStats,
    /// The configured freshness budget (micros).
    pub slo_budget_us: u64,
    /// Batches whose freshness lag exceeded the budget.
    pub slo_violations: u64,
}

impl LiveReport {
    /// `true` if every batch met the freshness budget.
    pub fn slo_met(&self) -> bool {
        self.slo_violations == 0
    }
}

/// Ingest `files` as they arrive over a modeled night. Each file is one
/// fenced micro-batch through [`crate::parallel::load_night_with_journal`]
/// — per-file leases, epoch fencing and (with `journal`) exactly-once
/// across coordinator crashes, identical to the bulk path. Returns `Err`
/// only on orchestration failure; per-file problems stay in the report.
pub fn run_live(
    server: &Arc<Server>,
    files: &[CatalogFile],
    cfg: &LiveConfig,
    journal: Option<&LoadJournal>,
) -> Result<LiveReport, crate::parallel::NightError> {
    let mut schedule = ArrivalSchedule::poisson(cfg.seed, files.len(), cfg.mean_interarrival);
    let obs = server.obs().clone();
    let freshness_hist = obs.histogram("live.freshness_us");
    let batches_ctr = obs.counter("live.batches");
    let violations_ctr = obs.counter("live.slo_violations");

    let mut report = LiveReport {
        seed: cfg.seed,
        batches: 0,
        rows_loaded: 0,
        rows_skipped: 0,
        failed_files: 0,
        retries: 0,
        arrival_bursts: 0,
        night_span_us: 0,
        freshness: QueueStats::default(),
        slo_budget_us: cfg.slo_budget.as_micros() as u64,
        slo_violations: 0,
    };

    // Single-server queue over the modeled night: `avail` is when the
    // ingest pipe finishes the previous batch.
    let mut avail = Duration::ZERO;
    for (i, file) in files.iter().enumerate() {
        // The fault layer may declare a burst starting at this arrival:
        // this one and the next few land nearly together.
        if let Some(plan) = server.fault_plan() {
            if plan.decide_arrival_fault().is_some() {
                schedule.compress_burst(i, cfg.burst_run, cfg.burst_factor);
                server.note_injected_fault(FaultKind::ArrivalBurst);
                report.arrival_bursts += 1;
            }
        }
        let arrival = schedule.offset(i);

        let before = ModeledCost::measure(server, Duration::ZERO);
        let night = crate::parallel::load_night_with_journal(
            server,
            std::slice::from_ref(file),
            &cfg.loader,
            cfg.nodes,
            AssignmentPolicy::Dynamic,
            journal,
        )?;
        let batch_cost = ModeledCost::measure(server, Duration::ZERO)
            .since(before)
            .total();

        // The batch can't start before it arrives, nor before the pipe
        // drains the previous batch; it becomes visible one modeled
        // load-cost later.
        avail = avail.max(arrival) + batch_cost;
        let lag = avail - arrival;
        freshness_hist.record(lag.as_micros() as u64);
        if lag > cfg.slo_budget {
            report.slo_violations += 1;
            violations_ctr.inc();
        }

        report.batches += 1;
        batches_ctr.inc();
        report.rows_loaded += night.rows_loaded();
        report.rows_skipped += night.rows_skipped();
        report.failed_files += night.failed_files.len();
        report.retries += night.retries;
    }

    report.night_span_us = schedule.span().as_micros() as u64;
    report.freshness = QueueStats::from_histogram(&freshness_hist);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use skycat::gen::{generate_file, GenConfig};
    use skydb::fault::{FaultPlan, FaultPlanConfig};
    use skydb::DbConfig;
    use skysim::time::TimeScale;

    fn night_files(seed: u64, n: usize) -> Vec<CatalogFile> {
        let cfg = GenConfig::small(seed, 100).with_files(n);
        (0..n).map(|i| generate_file(&cfg, i)).collect()
    }

    fn fresh_server() -> Arc<Server> {
        // Paper hardware at zero time-scale: modeled costs are accounted
        // (freshness needs them) without real sleeping.
        let server = Server::start(DbConfig::paper(TimeScale::ZERO));
        skycat::create_all(server.engine()).unwrap();
        skycat::seed_static(server.engine()).unwrap();
        skycat::seed_observation(server.engine(), 1, 100).unwrap();
        server
    }

    #[test]
    fn live_night_loads_every_batch_and_measures_freshness() {
        let server = fresh_server();
        let files = night_files(901, 3);
        let expected: u64 = files.iter().map(|f| f.expected.total_loadable()).sum();
        let report = run_live(&server, &files, &LiveConfig::test(901), None).unwrap();
        assert_eq!(report.batches, 3);
        assert_eq!(report.rows_loaded, expected);
        assert_eq!(report.failed_files, 0);
        // Every batch produced one freshness sample; lag is never zero
        // (each load has modeled cost).
        assert_eq!(report.freshness.count, 3);
        assert!(report.freshness.max_us > 0);
        assert!(report.night_span_us > 0);
        // And the histogram is in the shared registry for `--metrics`.
        let snap = server.obs_snapshot();
        assert_eq!(snap.counter("live.batches"), 3);
    }

    #[test]
    fn arrival_burst_fires_deterministically_and_is_ledgered() {
        let server = fresh_server();
        server.set_fault_plan(Some(FaultPlan::new(
            FaultPlanConfig::new(77).with_arrival_burst_at(2),
        )));
        let files = night_files(903, 4);
        let report = run_live(&server, &files, &LiveConfig::test(903), None).unwrap();
        assert_eq!(report.arrival_bursts, 1);
        assert_eq!(
            server.obs_snapshot().counter("server.faults.arrival_burst"),
            1
        );
        // Burst or not, every row still lands exactly once.
        let expected: u64 = files.iter().map(|f| f.expected.total_loadable()).sum();
        assert_eq!(report.rows_loaded, expected);
    }

    #[test]
    fn slo_accounting_matches_budget() {
        let server = fresh_server();
        let files = night_files(905, 3);
        // An impossible budget: every batch violates.
        let mut tight = LiveConfig::test(905);
        tight.slo_budget = Duration::from_nanos(1);
        let report = run_live(&server, &files, &tight, None).unwrap();
        assert_eq!(report.slo_violations, 3);
        assert!(!report.slo_met());
        assert_eq!(server.obs_snapshot().counter("live.slo_violations"), 3);

        // A generous budget on a fresh server: none do.
        let server2 = fresh_server();
        let mut loose = LiveConfig::test(905);
        loose.slo_budget = Duration::from_secs(3600);
        let report2 = run_live(&server2, &files, &loose, None).unwrap();
        assert_eq!(report2.slo_violations, 0);
        assert!(report2.slo_met());
        assert_eq!(report2.rows_loaded, report.rows_loaded);
    }
}
