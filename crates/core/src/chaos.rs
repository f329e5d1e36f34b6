//! One soak runner for the promises the repository makes under fire:
//! every loadable row lands exactly once, no corrupt row is ever served,
//! no read sees a torn season, and no scatter-gather answer is silently
//! partial.
//!
//! [`run_soak`] loads a seeded synthetic night into one repository while
//! a [`Preset`] picks which drivers run over a shared skeleton:
//!
//! | Preset | Drivers |
//! |---|---|
//! | [`Preset::Chaos`] | bulk night under call faults and one crash-on-flush |
//! | [`Preset::Campaign`] | live night (season 1), then a shadow-swap campaign (season 2) with a loader kill and a coordinator crash at the swap, under season-checking readers |
//! | [`Preset::Scrub`] | live night under seeded bit rot with a background scrubber and readers, optional WAL rot + restart, then journal-driven repair |
//! | [`Preset::Shard`] | live ingest into declination-zone shards with a shard kill, a shard stall, a supervisor and a coordinator restart, under scatter-gather readers |
//!
//! The skeleton is shared: one server factory
//! ([`crate::shardload::fresh_catalog_server`]), one loader and live
//! configuration, one serve-tier reader driver, one ingest-completion step
//! (re-run through the journal every file left unfinished, recovering the
//! server from its durable log whenever a crash-on-flush downs it) and one
//! row-count verdict. Every fault decision derives from
//! [`SoakConfig::seed`], so one seed replays one fault schedule.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::Serialize;

use skycat::gen::{aggregate_expected, generate_observation, CatalogFile, GenConfig};
use skydb::engine::Engine;
use skydb::error::DbError;
use skydb::fault::{FaultKind, FaultPlan, FaultPlanConfig};
use skydb::serve::{FastOutcome, Query, QueryService, ServeConfig, ServeError};
use skydb::{DbConfig, Server};
use skysim::cluster::AssignmentPolicy;

use crate::config::{CommitPolicy, LoaderConfig};
use crate::live::{LiveConfig, LiveReport};
use crate::recovery::LoadJournal;
use crate::repair::RepairReport;
use crate::report::ser_duration;
use crate::resilience::{DegradeTransition, RetryPolicy};
use crate::shardload::fresh_catalog_server;

/// How many crash/recover cycles the completion step tolerates before
/// declaring the soak wedged.
const MAX_RESTARTS: usize = 8;

/// How many load generations (including non-crash retries of failed
/// files) the completion step runs before giving up.
const MAX_GENERATIONS: usize = 24;

/// Lease TTL of the single-engine presets' loader fleets: short, so
/// reclaims happen on a test timescale rather than the production default.
const LEASE_TTL: Duration = Duration::from_millis(250);

/// Shard lease TTL: a heartbeat older than this declares the shard dead.
const SHARD_LEASE_TTL: Duration = Duration::from_millis(60);

/// Per-opportunity probability that the scrub preset's rot driver flips a
/// bit (opportunities are polled on a timer while the night loads).
const ROT_RATE: f64 = 0.35;

/// Real-time interval between background scrub passes.
const SCRUB_INTERVAL: Duration = Duration::from_millis(10);

/// Object ids are `(obs_id * 1000 + file_index + 1) * FILE_SPAN + n`: a
/// disjoint span per catalog file of observation 100.
const FILE_SPAN: i64 = 10_000_000;

/// Which drivers a soak runs. Each preset fixes its fault plan, database
/// configuration, night shape and reader count; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Preset {
    /// Bulk night under call faults and a crash-on-flush.
    Chaos,
    /// Live night, then a reprocessing campaign crashed at its swap.
    Campaign,
    /// Live night under bit rot, scrubbing, and repair.
    Scrub,
    /// Live ingest into zone shards under shard kills and stalls.
    Shard,
}

impl Preset {
    /// Every preset, in CLI order.
    pub const ALL: [Preset; 4] = [
        Preset::Chaos,
        Preset::Campaign,
        Preset::Scrub,
        Preset::Shard,
    ];

    /// The preset's CLI subcommand name.
    pub fn name(self) -> &'static str {
        match self {
            Preset::Chaos => "chaos",
            Preset::Campaign => "campaign",
            Preset::Scrub => "scrub",
            Preset::Shard => "shard-chaos",
        }
    }

    /// The preset a CLI subcommand names, if any.
    pub fn from_name(name: &str) -> Option<Preset> {
        Preset::ALL.into_iter().find(|p| p.name() == name)
    }

    /// Concurrent serve-tier reader threads (0: the preset serves nothing).
    fn readers(self) -> usize {
        match self {
            Preset::Chaos => 0,
            Preset::Campaign => 3,
            Preset::Scrub | Preset::Shard => 2,
        }
    }

    /// The chaos preset runs on the test engine; the others on paper
    /// hardware at zero time-scale, so modeled costs are accounted (the
    /// freshness clock needs them) without real sleeping.
    fn db_config(self) -> DbConfig {
        match self {
            Preset::Chaos => DbConfig::test(),
            _ => DbConfig::paper(skysim::TimeScale::ZERO),
        }
    }
}

/// Knobs for one soak. [`SoakConfig::new`] gives each preset's defaults.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SoakConfig {
    /// Which drivers run.
    pub preset: Preset,
    /// Master seed: the night, the fault plan and every driver's schedule.
    pub seed: u64,
    /// Catalog files in the night (campaign: season 1; season 2 gets one
    /// more, so the two seasons have distinguishable row counts).
    pub files: usize,
    /// Parallel loader nodes; declination zones for [`Preset::Shard`].
    pub nodes: usize,
    /// Quick mode: a smaller night, for CI.
    pub quick: bool,
    /// Kill the loader holding the Nth lease grant (1-based) mid-file.
    pub loader_kill_at: Option<u64>,
    /// Freeze the loader holding the Nth lease grant (1-based) past its
    /// TTL, then let it wake as a zombie and flush under its stale epoch.
    pub loader_stall_at: Option<u64>,
    /// Scrub only: also flip a bit in the durable WAL after the night,
    /// restart the server from the damaged log and widen the repair.
    pub wal_rot: bool,
    /// Campaign only: treat the swap crash as a full server crash and
    /// recover the engine from the durable log before resuming.
    pub restart_server: bool,
}

impl SoakConfig {
    /// The preset's default soak on seed 2005.
    pub fn new(preset: Preset) -> Self {
        let (files, nodes, loader_kill_at) = match preset {
            Preset::Chaos => (6, 3, None),
            Preset::Campaign => (3, 2, Some(2)),
            Preset::Scrub => (3, 2, None),
            Preset::Shard => (6, 3, None),
        };
        SoakConfig {
            preset,
            seed: 2005,
            files,
            nodes,
            quick: false,
            loader_kill_at,
            loader_stall_at: None,
            wal_rot: false,
            restart_server: false,
        }
    }

    /// Reject settings the preset would silently ignore.
    pub fn validate(&self) -> Result<(), String> {
        let name = self.preset.name();
        if self.files == 0 || self.nodes == 0 {
            return Err("a soak needs at least one file and one node".into());
        }
        if self.wal_rot && self.preset != Preset::Scrub {
            return Err(format!("wal rot is a scrub knob, not a {name} one"));
        }
        if self.restart_server && self.preset != Preset::Campaign {
            return Err(format!(
                "restart-server is a campaign knob, not a {name} one"
            ));
        }
        if self.preset == Preset::Shard
            && (self.loader_kill_at.is_some() || self.loader_stall_at.is_some())
        {
            return Err(
                "the shard loader holds no leases: loader kill/stall need another preset".into(),
            );
        }
        Ok(())
    }

    /// The night's files: the preset's generator shape, capped in quick
    /// mode.
    fn night(&self) -> Vec<CatalogFile> {
        let (quick_cap, error_rate) = match self.preset {
            Preset::Chaos => (4, 0.02),
            Preset::Campaign => (3, 0.0),
            Preset::Scrub => (2, 0.0),
            Preset::Shard => (4, 0.05),
        };
        let files = if self.quick {
            self.files.min(quick_cap)
        } else {
            self.files
        };
        generate_observation(
            &GenConfig::night(self.seed, 100)
                .with_files(files.max(1))
                .with_error_rate(error_rate),
        )
    }

    /// The server-side fault plan of a single-engine preset. `first` adds
    /// the one-shot fault the run must survive — chaos: a crash-on-flush
    /// at the 7th commit; campaign: a coordinator crash at the first swap
    /// — and the plan re-armed after it fires drops it. The scrub preset's
    /// bit rot is not injected per call: its rot driver owns it.
    fn fault_plan(&self, first: bool) -> FaultPlanConfig {
        // Rates are per *call*: they must leave clean windows long enough
        // for a whole flush (several batch calls + a commit) to land, or
        // the load cannot make forward progress between faults.
        let base = FaultPlanConfig::new(self.seed);
        let mut plan = match self.preset {
            Preset::Chaos => base
                .with_resets(0.006)
                .with_busy(0.006)
                .with_latency(0.015, Duration::from_millis(20))
                .with_disk_full(0.06)
                .with_corruption(0.01),
            Preset::Campaign => base
                .with_resets(0.004)
                .with_latency(0.01, Duration::from_millis(10))
                .with_arrival_bursts(0.25),
            _ => base
                .with_resets(0.004)
                .with_latency(0.01, Duration::from_millis(10)),
        };
        match self.preset {
            Preset::Chaos if first => plan = plan.with_crash_on_flush(7),
            Preset::Campaign if first => plan = plan.with_swap_crash_at(1),
            _ => {}
        }
        if let Some(n) = self.loader_kill_at {
            plan = plan.with_loader_kill_at(n);
        }
        if let Some(n) = self.loader_stall_at {
            plan = plan.with_loader_stall_at(n);
        }
        plan
    }

    /// Connection weather each shard server runs under, salted so shards
    /// draw different schedules from one seed. Milder than the
    /// single-engine plans: the *shard* faults are the story here, the
    /// weather just keeps the retry paths warm.
    fn shard_weather(&self, salt: u64) -> FaultPlanConfig {
        FaultPlanConfig::new(self.seed ^ salt.wrapping_mul(0x9E37_79B9))
            .with_resets(0.003)
            .with_busy(0.003)
            .with_latency(0.008, Duration::from_millis(5))
    }
}

/// The loader every single-engine preset drives: per-flush commits so the
/// journal advances under fire, a retry policy whose call-timeout budget is
/// tighter than the plans' latency spikes (so spikes surface as timeouts
/// and exercise that path too), and a soak-scale lease TTL.
fn soak_loader(seed: u64) -> LoaderConfig {
    LoaderConfig::test()
        .with_array_size(300)
        .with_commit_policy(CommitPolicy::PerFlush)
        .with_retry(
            RetryPolicy::default()
                .with_seed(seed)
                .with_call_timeout(Duration::from_millis(10)),
        )
        .with_fleet(crate::fleet::FleetPolicy::default().with_lease_ttl(LEASE_TTL))
}

/// Huge fast deadline: no demotions, so no MyDB result tables are created
/// mid-soak (keeps WAL-replay table ids aligned for the restart modes).
fn serve_config() -> ServeConfig {
    ServeConfig::default().with_fast_deadline(Duration::from_secs(3600))
}

/// Faults the ingest fleet survived and what it left undone.
#[derive(Debug, Clone, Default, Serialize)]
pub struct IngestStats {
    /// Generations the ingest-completion step ran: the chaos preset's
    /// whole load (1 = no crash, no stragglers), or the re-runs of files a
    /// live night gave up (0 when it finished every file).
    pub generations: usize,
    /// Crash/recover cycles survived.
    pub restarts: usize,
    /// Client-side retry attempts.
    pub retries: u64,
    /// Circuit-breaker trips.
    pub breaker_trips: u64,
    /// Loader processes killed mid-file by the fault plan.
    pub loader_kills: u64,
    /// Loader processes frozen past their lease TTL by the fault plan.
    pub loader_stalls: u64,
    /// Expired leases the supervisor reclaimed and reassigned.
    pub lease_reclaims: u64,
    /// Stale-epoch operations the database fenced out before anything
    /// applied.
    pub fencing_rejections: u64,
    /// Wall-clock time the fleet spent below full batch mode.
    #[serde(with = "ser_duration")]
    pub degraded_time: Duration,
    /// Every degradation-ladder move of the completion step, in order.
    pub degrade_transitions: Vec<DegradeTransition>,
    /// Files that never loaded (empty on success).
    pub unfinished_files: Vec<String>,
}

/// What the serve-tier readers saw, by category.
#[derive(Debug, Clone, Default, Serialize)]
pub struct ReadStats {
    /// Scans answered, complete or flagged partial.
    pub total: u64,
    /// Campaign: scans that saw exactly season 1's `objects` count.
    pub old_season: u64,
    /// Campaign: scans that saw exactly season 2's `objects` count.
    pub new_season: u64,
    /// Campaign: scans that saw neither season's count (must be 0).
    pub mixed_season: u64,
    /// Scans refused with an at-rest corruption error: the rot was seen
    /// but never served.
    pub blocked: u64,
    /// Scans answered degraded — flagged partial with the missing zones
    /// named, never silently truncated.
    pub partial: u64,
    /// Served rows whose object id lies outside the night's file spans
    /// (must be 0: rot is blocked or quarantined, never served).
    pub corrupt_rows_served: u64,
}

/// The row-count verdict: rows expected against rows present, summed over
/// every check the preset made (campaign: both seasons; shard: every zone,
/// replicated tables once per zone).
#[derive(Debug, Clone, Default, Serialize)]
pub struct RowVerdict {
    /// Rows the checks expected.
    pub expected_rows: u64,
    /// Rows the checked engines hold.
    pub actual_rows: u64,
    /// Rows expected but missing (must be 0).
    pub lost_rows: u64,
    /// Rows present more than once (must be 0).
    pub duplicated_rows: u64,
    /// Phase-tagged mismatches and failed invariants (empty on success).
    pub mismatches: Vec<String>,
}

impl RowVerdict {
    /// Count every table of `expected` on `engine`, tagging mismatches
    /// with `phase`.
    fn check(
        &mut self,
        phase: &str,
        engine: &Engine,
        expected: &BTreeMap<&'static str, u64>,
    ) -> Result<(), String> {
        for (table, &expect) in expected {
            let got = engine.row_count(engine.table_id(table).map_err(|e| e.to_string())?);
            self.expected_rows += expect;
            self.actual_rows += got;
            let kind = if got < expect {
                self.lost_rows += expect - got;
                "lost"
            } else if got > expect {
                self.duplicated_rows += got - expect;
                "duplicated"
            } else {
                continue;
            };
            self.mismatches.push(format!(
                "{phase}: {table} expected {expect}, got {got} ({kind})"
            ));
        }
        Ok(())
    }
}

/// The campaign preset's swap.
#[derive(Debug, Clone, Serialize)]
pub struct CampaignStats {
    /// Campaign resumes after coordinator crashes.
    pub resumes: u64,
    /// Full server crash/recover cycles.
    pub server_restarts: usize,
    /// Whether the campaign's swap completed.
    pub swapped: bool,
    /// Demoted rows purged by the campaign.
    pub purged_rows: u64,
    /// Rows left in the demoted shadow tables (must be 0 after cleanup).
    pub shadow_residual_rows: u64,
}

/// The scrub preset's detect → quarantine → repair loop.
#[derive(Debug, Clone, Serialize)]
pub struct ScrubStats {
    /// Heap-row bits flipped (≥ 1: the soak forces one flip even if the
    /// timed schedule never fired).
    pub heap_rot_injected: u64,
    /// Whether a WAL bit was flipped.
    pub wal_rot_injected: bool,
    /// Whether the server was restarted from its durable log.
    pub recovered_from_log: bool,
    /// Whether log replay itself flagged a CRC failure (it may instead
    /// surface as a torn-tail truncation, depending on which byte rotted).
    pub log_replay_flagged_corruption: bool,
    /// Whether recovery was impossible (replay constraint failure) and the
    /// repository was rebuilt from schema + source files instead.
    pub rebuilt_from_source: bool,
    /// Background, final and verification scrub passes completed.
    pub passes: u64,
    /// Heap pages walked across all passes.
    pub pages: u64,
    /// Rows that failed their CRC across all passes.
    pub bad_records: u64,
    /// Index trees that failed validation (must be 0).
    pub bad_nodes: u64,
    /// Rows quarantined across all passes.
    pub quarantined_rows: u64,
    /// The repair pass's own report (merged across attempts).
    pub repair: RepairReport,
    /// Repair passes run until every target file retired (a reload can
    /// fail under the soak's connection weather and is simply re-run).
    pub repair_attempts: u64,
    /// Rows that still failed a CRC in the verification scrub *after*
    /// repair (must be 0).
    pub post_repair_bad_records: u64,
}

/// The shard preset's failover.
#[derive(Debug, Clone, Serialize)]
pub struct ShardStats {
    /// Shards killed mid-ingest by the driver.
    pub kills: u64,
    /// Shard heartbeats frozen past their TTL by the driver.
    pub stalls: u64,
    /// Shard generations fenced and taken by the supervisor.
    pub reclaims: u64,
    /// Replacement shard servers installed.
    pub rebuilds: u64,
    /// Loader flushes rejected by a fencing epoch and requeued.
    pub fenced_flushes: u64,
    /// Whole-file requeues for any retryable cause.
    pub requeues: u64,
    /// Coordinator restarts performed mid-night.
    pub coordinator_restarts: u64,
    /// Final `objects` row count per zone.
    pub per_zone_rows: Vec<u64>,
}

/// What a soak observed, and its verdict ([`SoakReport::passed`]).
#[derive(Debug, Clone, Serialize)]
pub struct SoakReport {
    /// The configuration the soak ran with.
    pub config: SoakConfig,
    /// Faults injected per kind across every server generation.
    pub faults_by_kind: BTreeMap<String, u64>,
    /// The loader fleet's faults and leftovers.
    pub ingest: IngestStats,
    /// The serve-tier readers' observations.
    pub reads: ReadStats,
    /// Rows expected against rows present.
    pub rows: RowVerdict,
    /// The live night (campaign: season 1; scrub: the rotted night).
    pub live: Option<LiveReport>,
    /// Campaign preset only.
    pub campaign: Option<CampaignStats>,
    /// Scrub preset only.
    pub scrub: Option<ScrubStats>,
    /// Shard preset only.
    pub shard: Option<ShardStats>,
}

impl SoakReport {
    /// Every broken promise, as one line each (empty on success).
    pub fn failures(&self) -> Vec<String> {
        let (rows, reads) = (&self.rows, &self.reads);
        let mut failures = Vec::new();
        let mut fail = |broken: bool, what: String| {
            if broken {
                failures.push(what);
            }
        };
        fail(
            rows.lost_rows > 0,
            format!("{} lost row(s)", rows.lost_rows),
        );
        fail(
            rows.duplicated_rows > 0,
            format!("{} duplicated row(s)", rows.duplicated_rows),
        );
        fail(
            !rows.mismatches.is_empty(),
            format!("{} mismatch(es)", rows.mismatches.len()),
        );
        let unfinished = self.ingest.unfinished_files.len();
        fail(unfinished > 0, format!("{unfinished} unfinished file(s)"));
        fail(
            reads.corrupt_rows_served > 0,
            format!("{} corrupt row(s) served", reads.corrupt_rows_served),
        );
        fail(
            reads.mixed_season > 0,
            format!("{} mixed-season read(s)", reads.mixed_season),
        );
        fail(
            self.config.preset.readers() > 0 && reads.total == 0,
            "the readers never completed a scan".into(),
        );
        if let Some(c) = &self.campaign {
            fail(!c.swapped, "the campaign never swapped".into());
            fail(
                c.shadow_residual_rows > 0,
                format!("{} shadow residual row(s)", c.shadow_residual_rows),
            );
        }
        if let Some(s) = &self.scrub {
            fail(
                s.post_repair_bad_records > 0,
                format!("{} bad record(s) after repair", s.post_repair_bad_records),
            );
            fail(
                !s.repair.complete(),
                format!("repair failed {:?}", s.repair.failed_files),
            );
        }
        failures
    }

    /// Did the soak keep every promise its preset checks?
    pub fn passed(&self) -> bool {
        self.failures().is_empty()
    }

    /// Distinct fault kinds that actually fired.
    pub fn fault_kinds_fired(&self) -> usize {
        self.faults_by_kind.values().filter(|&&n| n > 0).count()
    }

    /// Fill the counters the shared telemetry registry holds.
    fn absorb(&mut self, delta: &skyobs::Snapshot) {
        self.faults_by_kind = delta.with_prefix("server.faults.");
        let i = &mut self.ingest;
        i.retries = delta.counter("retries");
        i.breaker_trips = delta.counter("breaker_trips");
        i.loader_kills = delta.counter("loader_kills");
        i.loader_stalls = delta.counter("loader_stalls");
        i.lease_reclaims = delta.counter("fleet.reclaims");
        i.fencing_rejections = delta.counter("fleet.fence_rejections");
        i.degraded_time = Duration::from_micros(delta.counter("degrade.time_us"));
        if let Some(c) = &mut self.campaign {
            c.resumes = delta.counter("campaign.resumes");
        }
        if let Some(s) = &mut self.scrub {
            s.pages = delta.counter("scrub.pages");
            s.bad_records = delta.counter("scrub.bad_records");
            s.bad_nodes = delta.counter("scrub.bad_nodes");
            s.quarantined_rows = delta.counter("scrub.quarantined");
        }
        if let Some(s) = &mut self.shard {
            s.reclaims = delta.counter("shard.reclaims");
            s.rebuilds = delta.counter("shard.rebuilds");
        }
    }
}

impl std::fmt::Display for SoakReport {
    /// The human summary the `skyload` soak subcommands print.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (cfg, i, r) = (&self.config, &self.ingest, &self.reads);
        writeln!(
            f,
            "soak {}: seed {} · {} generation(s) · {} restart(s) · {} retries · {} breaker trip(s)",
            cfg.preset.name(),
            cfg.seed,
            i.generations,
            i.restarts,
            i.retries,
            i.breaker_trips
        )?;
        writeln!(f, "faults injected:")?;
        for (kind, n) in &self.faults_by_kind {
            writeln!(f, "  {kind:<16} {n:>6}")?;
        }
        if cfg.preset != Preset::Shard {
            writeln!(
            f,
            "fleet: {} loader kill(s) · {} stall(s) · {} lease reclaim(s) · {} fenced operation(s) · {:.2?} degraded across {} ladder move(s)",
            i.loader_kills,
            i.loader_stalls,
            i.lease_reclaims,
            i.fencing_rejections,
            i.degraded_time,
            i.degrade_transitions.len()
        )?;
        }
        if let Some(l) = &self.live {
            writeln!(
                f,
                "live night: {} batch(es) · freshness p50={} us p95={} us p99={} us max={} us · {} SLO violation(s)",
                l.batches,
                l.freshness.p50_us,
                l.freshness.p95_us,
                l.freshness.p99_us,
                l.freshness.max_us,
                l.slo_violations
            )?;
        }
        if let Some(c) = &self.campaign {
            writeln!(
                f,
                "campaign: {} resume(s) · {} server restart(s) · swapped: {} · {} purged · {} shadow residual",
                c.resumes, c.server_restarts, c.swapped, c.purged_rows, c.shadow_residual_rows
            )?;
        }
        if let Some(s) = &self.scrub {
            writeln!(
                f,
                "scrubber: {} heap bit(s) rotted · {} pass(es) · {} page(s) walked · {} bad record(s) · {} bad node(s) · {} quarantined",
                s.heap_rot_injected, s.passes, s.pages, s.bad_records, s.bad_nodes, s.quarantined_rows
            )?;
            if s.wal_rot_injected {
                writeln!(
                    f,
                    "restart: recovered from log: {} · replay flagged corruption: {} · rebuilt from source: {}",
                    s.recovered_from_log, s.log_replay_flagged_corruption, s.rebuilt_from_source
                )?;
            }
            writeln!(
                f,
                "repair: {} file(s) reloaded ({}) in {} attempt(s) · {} row(s) restored · {} survivor(s) deduped · {} unmapped · {} bad after repair",
                s.repair.files_reloaded.len(),
                if s.repair.widened_for_wal_rot {
                    "widened to full night"
                } else {
                    "mapped by id span"
                },
                s.repair_attempts,
                s.repair.rows_restored,
                s.repair.rows_skipped,
                s.repair.unmapped_rows,
                s.post_repair_bad_records
            )?;
        }
        if let Some(s) = &self.shard {
            writeln!(
                f,
                "supervisor: {} shard kill(s) · {} stall(s) · {} reclaim(s) · {} rebuild(s) · {} fenced flush(es) · {} requeue(s) · {} coordinator restart(s)",
                s.kills, s.stalls, s.reclaims, s.rebuilds, s.fenced_flushes, s.requeues, s.coordinator_restarts
            )?;
            for (z, n) in s.per_zone_rows.iter().enumerate() {
                writeln!(f, "  zone {z}: {n} objects row(s)")?;
            }
        }
        if cfg.preset.readers() > 0 {
            writeln!(
                f,
                "readers: {} scan(s) · {} old-season · {} new-season · {} torn · {} blocked by CRC · {} flagged partial · {} corrupt row(s) served",
                r.total, r.old_season, r.new_season, r.mixed_season, r.blocked, r.partial, r.corrupt_rows_served
            )?;
        }
        let rows = &self.rows;
        writeln!(
            f,
            "rows: {} expected, {} present, {} lost, {} duplicated",
            rows.expected_rows, rows.actual_rows, rows.lost_rows, rows.duplicated_rows
        )?;
        for m in &rows.mismatches {
            writeln!(f, "  MISMATCH {m}")?;
        }
        for file in &i.unfinished_files {
            writeln!(f, "  UNFINISHED {file}")?;
        }
        Ok(())
    }
}

/// Run one soak to completion.
///
/// One registry spans every server generation: recovered and rebuilt
/// servers rejoin `obs`, so fault and loader counters accumulate across
/// crash/recover cycles, and the report's counters are a view over the
/// registry's final snapshot (delta since entry) — which is what makes a
/// `--metrics` JSONL dump agree with the report exactly. Never panics on
/// fault-induced failures; the verdict lands in the report.
pub fn run_soak(cfg: &SoakConfig, obs: &Arc<skyobs::Registry>) -> Result<SoakReport, String> {
    run_with_night_plan(cfg, obs, None)
}

/// [`run_soak`], with `night_plan` (when given) replacing the preset's
/// fault plan for the live night only — how a test forces the night to
/// give files up.
fn run_with_night_plan(
    cfg: &SoakConfig,
    obs: &Arc<skyobs::Registry>,
    night_plan: Option<FaultPlanConfig>,
) -> Result<SoakReport, String> {
    cfg.validate()?;
    let baseline = obs.snapshot();
    let mut report = SoakReport {
        config: cfg.clone(),
        faults_by_kind: BTreeMap::new(),
        ingest: IngestStats::default(),
        reads: ReadStats::default(),
        rows: RowVerdict::default(),
        live: None,
        campaign: None,
        scrub: None,
        shard: None,
    };
    let drive: fn(&SoakConfig, &mut Rig, &mut SoakReport) -> Result<(), String> = match cfg.preset {
        Preset::Chaos => drive_chaos,
        Preset::Campaign => drive_campaign,
        Preset::Scrub => drive_scrub,
        Preset::Shard => {
            drive_shard(cfg, obs, &mut report)?;
            report.absorb(&obs.snapshot().since(&baseline));
            return Ok(report);
        }
    };
    let mut rig = Rig::start(cfg, obs, night_plan)?;
    drive(cfg, &mut rig, &mut report)?;
    report.absorb(&rig.server.obs_snapshot().since(&baseline));
    Ok(report)
}

// ---------------------------------------------------------------------
// The shared skeleton.
// ---------------------------------------------------------------------

/// The one repository a single-engine soak runs over: its server, the
/// loader fleet that feeds it, and the readers that watch it.
struct Rig {
    obs: Arc<skyobs::Registry>,
    db: DbConfig,
    loader: LoaderConfig,
    nodes: usize,
    server: Arc<Server>,
    readers: Option<Readers>,
    /// Armed for the live night only, in place of the preset's plan.
    night_plan: Option<FaultPlanConfig>,
}

impl Rig {
    /// A fresh catalog server armed with the preset's first plan.
    fn start(
        cfg: &SoakConfig,
        obs: &Arc<skyobs::Registry>,
        night_plan: Option<FaultPlanConfig>,
    ) -> Result<Rig, String> {
        let loader = soak_loader(cfg.seed);
        loader.validate()?;
        let db = cfg.preset.db_config();
        let rig = Rig {
            server: fresh_catalog_server(db.clone(), obs)?,
            obs: obs.clone(),
            db,
            loader,
            nodes: cfg.nodes,
            readers: None,
            night_plan,
        };
        rig.arm(Some(cfg.fault_plan(true)));
        Ok(rig)
    }

    fn arm(&self, plan: Option<FaultPlanConfig>) {
        self.server.set_fault_plan(plan.map(FaultPlan::new));
    }

    /// Swap in a recovered or rebuilt server, arm `plan` on it, and point
    /// the readers at it.
    fn replace(&mut self, server: Arc<Server>, plan: Option<FaultPlanConfig>) {
        self.server = server;
        self.arm(plan);
        if let Some(readers) = &self.readers {
            readers.retarget(QueryService::start(self.server.clone(), serve_config()));
        }
    }

    fn start_readers(&mut self, n: usize, night_files: usize, seasons: Option<(u64, u64)>) {
        let svc = QueryService::start(self.server.clone(), serve_config());
        self.readers = Some(Readers::start(svc, n, night_files, seasons));
    }

    fn stop_readers(&mut self) -> Result<ReadStats, String> {
        self.readers
            .take()
            .map_or(Ok(ReadStats::default()), Readers::finish)
    }

    /// Ingest `files` as a live micro-batch night through `journal`.
    fn live_night(
        &self,
        cfg: &SoakConfig,
        files: &[CatalogFile],
        journal: &LoadJournal,
    ) -> Result<LiveReport, String> {
        let live = LiveConfig {
            seed: cfg.seed,
            nodes: self.nodes,
            mean_interarrival: Duration::from_millis(5),
            burst_run: 2,
            burst_factor: 8.0,
            slo_budget: Duration::from_secs(600),
            loader: self.loader.clone(),
        };
        if let Some(plan) = &self.night_plan {
            self.arm(Some(plan.clone()));
        }
        let report = crate::live::run_live(&self.server, files, &live, Some(journal));
        if self.night_plan.is_some() {
            self.arm(Some(cfg.fault_plan(true)));
        }
        report.map_err(|e| format!("live night failed: {e}"))
    }

    /// The ingest-completion step: re-run through `journal` every file of
    /// `files` the journal does not show finished, in bounded generations,
    /// recovering the server from its durable log (armed with the preset's
    /// plan minus the one-shot fault) whenever a crash-on-flush downs it.
    fn complete(
        &mut self,
        cfg: &SoakConfig,
        files: &[CatalogFile],
        journal: &LoadJournal,
        ingest: &mut IngestStats,
    ) -> Result<(), String> {
        let mut remaining: Vec<CatalogFile> = files
            .iter()
            .filter(|f| journal.committed_lines(&f.name) < f.text.lines().count() as u64)
            .cloned()
            .collect();
        while !remaining.is_empty() && ingest.generations < MAX_GENERATIONS {
            ingest.generations += 1;
            let night = crate::parallel::load_night_with_journal(
                &self.server,
                &remaining,
                &self.loader,
                self.nodes,
                AssignmentPolicy::Dynamic,
                Some(journal),
            )
            .map_err(|e| e.to_string())?;
            ingest.degrade_transitions.extend(night.degrade_transitions);
            let done: BTreeSet<&str> = night.files.iter().map(|f| f.file.as_str()).collect();
            remaining.retain(|f| !done.contains(f.name.as_str()));
            if remaining.is_empty() {
                break;
            }
            if self.server.is_crashed() {
                // Recover from the durable log. The replacement engine
                // keeps its own private registry (replaying the log must
                // not double the coordinator's counters) while the server
                // rejoins the shared one, so fault counters keep
                // accumulating in place.
                ingest.restarts += 1;
                if ingest.restarts > MAX_RESTARTS {
                    break;
                }
                let log = self.server.engine().durable_log();
                let engine =
                    Engine::recover_from_log(self.db.clone(), skycat::build_schemas(), &log)
                        .map_err(|e| format!("recovery failed: {e}"))?;
                let server = Server::with_engine_and_obs(engine, self.obs.clone());
                self.replace(server, Some(cfg.fault_plan(false)));
            }
            // Not crashed: some files exhausted their budgets. The journal
            // kept their progress; the next generation retries them.
        }
        ingest.unfinished_files = remaining.into_iter().map(|f| f.name).collect();
        Ok(())
    }
}

/// Serve-tier reader threads scanning `objects` in a loop through a
/// swappable service slot, so a recovered or restarted repository can be
/// re-targeted without stopping them. Each thread tallies its own
/// [`ReadStats`]; [`Readers::finish`] sums them.
struct Readers {
    slot: Arc<RwLock<Arc<QueryService>>>,
    stop: Arc<AtomicBool>,
    handles: Vec<JoinHandle<ReadStats>>,
}

impl Readers {
    /// Start `n` readers. A served row is clean only if its object id lies
    /// in one of the first `night_files` file spans; `seasons` (campaign)
    /// are the two `objects` counts a season-atomic scan may see.
    fn start(
        svc: QueryService,
        n: usize,
        night_files: usize,
        seasons: Option<(u64, u64)>,
    ) -> Readers {
        let slot = Arc::new(RwLock::new(Arc::new(svc)));
        let stop = Arc::new(AtomicBool::new(false));
        let spans = 100 * 1000 + 1..=100 * 1000 + night_files as i64;
        let handles = (0..n)
            .map(|r| {
                let (slot, stop, spans) = (slot.clone(), stop.clone(), spans.clone());
                std::thread::spawn(move || {
                    let user = format!("reader{r}");
                    let mut seen = ReadStats::default();
                    while !stop.load(Ordering::Relaxed) {
                        let svc = slot.read().unwrap().clone();
                        let scan = Query::Scan {
                            table: "objects".into(),
                            filter: None,
                        };
                        match svc.fast_query(&user, scan) {
                            Ok(FastOutcome::Done(res)) => {
                                seen.total += 1;
                                seen.partial += u64::from(res.partial);
                                seen.corrupt_rows_served += res
                                    .rows
                                    .iter()
                                    .filter(|row| {
                                        !matches!(row.first(),
                                        Some(skydb::Value::Int(id)) if spans.contains(&(id / FILE_SPAN)))
                                    })
                                    .count() as u64;
                                if let Some((old, new)) = seasons {
                                    match res.rows.len() as u64 {
                                        n if n == old => seen.old_season += 1,
                                        n if n == new => seen.new_season += 1,
                                        _ => seen.mixed_season += 1,
                                    }
                                }
                            }
                            // The engine refused to serve a rotted row:
                            // exactly the contract. Never row data.
                            Err(ServeError::Db(DbError::DataCorruption(_))) => seen.blocked += 1,
                            // Demotions can't happen (huge deadline); queue
                            // rejections are evidence of nothing.
                            Ok(FastOutcome::Demoted(_)) | Err(_) => {}
                        }
                    }
                    seen
                })
            })
            .collect();
        Readers {
            slot,
            stop,
            handles,
        }
    }

    fn retarget(&self, svc: QueryService) {
        *self.slot.write().unwrap() = Arc::new(svc);
    }

    fn finish(self) -> Result<ReadStats, String> {
        self.stop.store(true, Ordering::Relaxed);
        let mut all = ReadStats::default();
        for h in self.handles {
            let r = h.join().map_err(|_| "reader panicked".to_string())?;
            all.total += r.total;
            all.old_season += r.old_season;
            all.new_season += r.new_season;
            all.mixed_season += r.mixed_season;
            all.blocked += r.blocked;
            all.partial += r.partial;
            all.corrupt_rows_served += r.corrupt_rows_served;
        }
        Ok(all)
    }
}

// ---------------------------------------------------------------------
// The preset drivers.
// ---------------------------------------------------------------------

/// Chaos: the completion step *is* the load — the night under the crash
/// plan, recovered and resumed until every file landed.
fn drive_chaos(cfg: &SoakConfig, rig: &mut Rig, report: &mut SoakReport) -> Result<(), String> {
    let night = cfg.night();
    let journal = LoadJournal::new();
    rig.complete(cfg, &night, &journal, &mut report.ingest)?;
    rig.arm(None);
    let expected = aggregate_expected(&night);
    report
        .rows
        .check("after load", rig.server.engine(), &expected.loadable)
}

/// Campaign: live-ingest season 1, then re-derive it as season 2 through
/// a shadow-swap campaign under a loader kill and a coordinator crash at
/// the swap point, with readers checking swap atomicity throughout.
fn drive_campaign(cfg: &SoakConfig, rig: &mut Rig, report: &mut SoakReport) -> Result<(), String> {
    use crate::campaign::{resume_campaign, run_campaign, shadow_schemas, CampaignConfig};

    let season1 = cfg.night();
    // One extra file in season 2: strictly more rows per table, so a
    // scan's row count identifies its season.
    let season2 = generate_observation(
        &GenConfig::night(cfg.seed ^ 0x5EA5_0002, 100).with_files(season1.len() + 1),
    );
    let (expected1, expected2) = (aggregate_expected(&season1), aggregate_expected(&season2));
    let seasons = (expected1.loadable["objects"], expected2.loadable["objects"]);
    assert_ne!(seasons.0, seasons.1, "seasons must be distinguishable");

    let journal = LoadJournal::new();
    report.live = Some(rig.live_night(cfg, &season1, &journal)?);
    rig.complete(cfg, &season1, &journal, &mut report.ingest)?;
    report
        .rows
        .check("after live night", rig.server.engine(), &expected1.loadable)?;
    rig.start_readers(cfg.preset.readers(), season2.len(), Some(seasons));

    let workdir = std::env::temp_dir().join(format!(
        "skyloader-campaign-soak-{}-{}",
        cfg.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&workdir);
    std::fs::create_dir_all(&workdir).map_err(|e| e.to_string())?;
    let manifest = workdir.join("campaign.manifest");
    let campaign_journal = LoadJournal::new();
    let campaign = CampaignConfig {
        campaign_id: cfg.seed,
        nodes: cfg.nodes,
        build_htm_index: false,
        loader: rig.loader.clone(),
    };
    let mut server_restarts = 0usize;
    let first = run_campaign(
        &rig.server,
        &season2,
        &campaign,
        &manifest,
        Some(&campaign_journal),
    );
    let done = match first {
        Ok(r) => r,
        Err(DbError::ServerDown(_)) => {
            // The coordinator died at the swap point. Either the server
            // died with it (recover from the durable log: base + shadow
            // schemas, creation order) or it kept serving.
            if cfg.restart_server {
                server_restarts += 1;
                let log = rig.server.engine().durable_log();
                let mut schemas = skycat::build_schemas();
                schemas.extend(shadow_schemas(&format!("__c{}", campaign.campaign_id)));
                let engine = Engine::recover_from_log(rig.db.clone(), schemas, &log)
                    .map_err(|e| format!("recovery failed: {e}"))?;
                rig.replace(Server::with_engine_and_obs(engine, rig.obs.clone()), None);
            }
            // Either way the resumed coordinator runs without the crash.
            rig.arm(Some(cfg.fault_plan(false)));
            resume_campaign(
                &rig.server,
                &season2,
                &campaign,
                &manifest,
                Some(&campaign_journal),
            )
            .map_err(|e| format!("campaign resume failed: {e}"))?
        }
        Err(e) => return Err(format!("campaign failed: {e}")),
    };
    let _ = std::fs::remove_dir_all(&workdir);

    // Let the readers observe the promoted season before stopping.
    std::thread::sleep(Duration::from_millis(30));
    report.reads = rig.stop_readers()?;
    rig.arm(None);
    let engine = rig.server.engine();
    report
        .rows
        .check("after campaign", engine, &expected2.loadable)?;
    let mut shadow_residual_rows = 0u64;
    for table in skycat::CATALOG_TABLES {
        let shadow = format!("{table}__c{}", campaign.campaign_id);
        shadow_residual_rows +=
            engine.row_count(engine.table_id(&shadow).map_err(|e| e.to_string())?);
    }
    report.campaign = Some(CampaignStats {
        resumes: 0,
        server_restarts,
        swapped: done.swapped,
        purged_rows: done.purged_rows,
        shadow_residual_rows,
    });
    Ok(())
}

/// Scrub: live ingest + serving under seeded bit rot with a concurrent
/// scrubber, optional WAL rot + restart, then journal-driven repair and a
/// row-exact verdict against the generator's ground truth.
fn drive_scrub(cfg: &SoakConfig, rig: &mut Rig, report: &mut SoakReport) -> Result<(), String> {
    use skydb::scrub::{run_scrub, ScrubConfig};

    let night = cfg.night();
    let expected = aggregate_expected(&night);
    rig.start_readers(cfg.preset.readers(), night.len(), None);

    // The background scrubber and the rot driver run while the night
    // loads; each hands its tally back when stopped.
    let stop = Arc::new(AtomicBool::new(false));
    let scrubber = {
        let (server, obs, stop) = (rig.server.clone(), rig.obs.clone(), stop.clone());
        std::thread::spawn(move || {
            let (mut quarantined, mut passes, mut errors) = (Vec::new(), 0u64, Vec::new());
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(SCRUB_INTERVAL);
                match run_scrub(server.engine(), &ScrubConfig::default(), &obs) {
                    Ok(pass) => {
                        passes += 1;
                        quarantined.extend(pass.quarantined);
                    }
                    Err(e) => errors.push(format!("background scrub: {e}")),
                }
            }
            (quarantined, passes, errors)
        })
    };
    // Each tick is one opportunity, decided by the seeded BitRot schedule,
    // so one seed reproduces the same fire-ordinal sequence. Flips
    // alternate between the two biggest child tables.
    let rot_driver = {
        let (server, stop, seed) = (rig.server.clone(), stop.clone(), cfg.seed);
        let plan = FaultPlan::new(FaultPlanConfig::new(seed).with_bit_rot(ROT_RATE));
        std::thread::spawn(move || {
            let tables = ["objects", "fingers"];
            let (mut tick, mut injected) = (0u64, 0u64);
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(2));
                tick += 1;
                if plan.decide_bit_rot_fault().is_some() {
                    let table = tables[(tick % tables.len() as u64) as usize];
                    let salt = seed ^ tick.wrapping_mul(0x9E37);
                    if server.engine().rot_heap_row(table, salt).is_some() {
                        injected += 1;
                        server.note_injected_fault(FaultKind::BitRot);
                    }
                }
            }
            injected
        })
    };

    let journal = LoadJournal::new();
    let live = rig.live_night(cfg, &night, &journal);
    stop.store(true, Ordering::Relaxed);
    let mut heap_rot_injected = rot_driver.join().map_err(|_| "rot driver panicked")?;
    let (mut quarantined, mut passes, scrub_errors) =
        scrubber.join().map_err(|_| "scrubber panicked")?;
    report.live = Some(live?);
    rig.complete(cfg, &night, &journal, &mut report.ingest)?;

    // One guaranteed flip after the night, so the detect→quarantine→repair
    // path is exercised even if every timed opportunity declined.
    if rig
        .server
        .engine()
        .rot_heap_row("objects", cfg.seed ^ 0xF0F0)
        .is_some()
    {
        heap_rot_injected += 1;
        rig.server.note_injected_fault(FaultKind::BitRot);
    }

    let (mut recovered_from_log, mut log_flagged, mut rebuilt_from_source) = (false, false, false);
    if cfg.wal_rot {
        rig.server.engine().checkpoint();
        if rig.server.engine().rot_wal_bit(cfg.seed ^ 0x0A1).is_some() {
            rig.server.note_injected_fault(FaultKind::BitRot);
        }
        let log = rig.server.engine().durable_log();
        let server =
            match Engine::recover_from_log_checked(rig.db.clone(), skycat::build_schemas(), &log) {
                Ok((engine, corrupt)) => {
                    recovered_from_log = true;
                    log_flagged = corrupt;
                    Server::with_engine_and_obs(engine, rig.obs.clone())
                }
                // The lost middle of the log took FK parents with it: replay
                // cannot satisfy constraints. Disaster path — an empty
                // repository re-derived wholly from source files.
                Err(_) => {
                    rebuilt_from_source = true;
                    fresh_catalog_server(rig.db.clone(), &rig.obs)?
                }
            };
        rig.replace(server, None);
    }

    let final_scrub = run_scrub(rig.server.engine(), &ScrubConfig::default(), &rig.obs)
        .map_err(|e| format!("final scrub: {e}"))?;
    passes += 1;
    quarantined.extend(final_scrub.quarantined);

    // Repair runs under the same connection weather as the night: a file
    // whose reload exhausts its retry budget stays in `failed_files`, and
    // the pass is re-run (idempotent — restored rows dedup as PK skips).
    let repair_pass = || {
        crate::repair::run_repair(
            &rig.server,
            &night,
            &quarantined,
            cfg.wal_rot,
            &rig.loader,
            rig.nodes,
            &journal,
        )
    };
    let mut repair = repair_pass()?;
    let mut repair_attempts = 1u64;
    while !repair.complete() && repair_attempts < 4 {
        repair_attempts += 1;
        let again = repair_pass()?;
        repair.rows_restored += again.rows_restored;
        repair.rows_skipped += again.rows_skipped;
        repair.failed_files = again.failed_files;
    }

    // Verification scrub: after repair, nothing may fail a CRC.
    let verify = run_scrub(rig.server.engine(), &ScrubConfig::default(), &rig.obs)
        .map_err(|e| format!("verification scrub: {e}"))?;
    passes += 1;

    report.reads = rig.stop_readers()?;
    rig.arm(None);
    report.rows.mismatches.extend(scrub_errors);
    report
        .rows
        .check("after repair", rig.server.engine(), &expected.loadable)?;
    report.scrub = Some(ScrubStats {
        heap_rot_injected,
        wal_rot_injected: cfg.wal_rot,
        recovered_from_log,
        log_replay_flagged_corruption: log_flagged,
        rebuilt_from_source,
        passes,
        pages: 0,
        bad_records: 0,
        bad_nodes: 0,
        quarantined_rows: 0,
        repair,
        repair_attempts,
        post_repair_bad_records: verify.bad_records(),
    });
    Ok(())
}

/// Shard: live micro-batch ingest into a sharded group + scatter-gather
/// readers + a seeded shard-kill/stall driver + a coordinator restart,
/// then a row-exact per-zone verdict against an independent single-engine
/// reference load.
fn drive_shard(
    cfg: &SoakConfig,
    obs: &Arc<skyobs::Registry>,
    report: &mut SoakReport,
) -> Result<(), String> {
    use crate::shardload::{
        clean_reference, shard_epoch_journal_key, ShardLoadConfig, ShardLoader, ShardRouter,
        ShardSupervisor, ShardSupervisorConfig, ZONED_TABLES,
    };
    use skydb::shard::{GatherPolicy, ShardGroup, ZoneMap};
    use skysim::rng::SplitMix64;

    let night = cfg.night();
    // The generator's four ccds emit decs over [-1.2, 1.2): shard exactly
    // that band so every zone actually receives rows.
    let map = ZoneMap::band(cfg.nodes as u32, -1.2, 1.2);
    let reference = clean_reference(&map, &night)?;
    let db = cfg.preset.db_config();

    // One seeded catalog server per zone, each under its own weather.
    let servers = (0..map.zones())
        .map(|z| {
            let server = fresh_catalog_server(db.clone(), obs)?;
            server.set_fault_plan(Some(FaultPlan::new(cfg.shard_weather(u64::from(z)))));
            Ok(server)
        })
        .collect::<Result<Vec<_>, String>>()?;
    let policy = GatherPolicy::default()
        .with_attempts(8)
        .with_per_shard_timeout(Duration::from_millis(100))
        .with_seed(cfg.seed)
        .with_allow_partial(true);
    let group_slot = Arc::new(RwLock::new(Arc::new(ShardGroup::new(
        map,
        servers,
        &ZONED_TABLES,
        policy.clone(),
        obs,
    ))));
    let journal = Arc::new(LoadJournal::new());
    let sup_cfg =
        ShardSupervisorConfig::soak(db, SHARD_LEASE_TTL).with_fault_plan(cfg.shard_weather(0x5A));
    let start_supervisor = |group: Arc<ShardGroup>| {
        ShardSupervisor::start(group, obs, sup_cfg.clone(), night.clone(), journal.clone())
    };
    let sup_slot = Arc::new(RwLock::new(start_supervisor(
        group_slot.read().unwrap().clone(),
    )));
    let readers = Readers::start(
        QueryService::start_sharded(group_slot.read().unwrap().clone(), serve_config(), obs),
        cfg.preset.readers(),
        night.len(),
        None,
    );

    // The shard-kill/stall driver: a kill at the first shard-fault
    // opportunity, a stall at the second.
    let stop_driver = Arc::new(AtomicBool::new(false));
    let driver = {
        let (group_slot, sup_slot, stop) =
            (group_slot.clone(), sup_slot.clone(), stop_driver.clone());
        let plan = FaultPlan::new(
            FaultPlanConfig::new(cfg.seed)
                .with_shard_crash_at(1)
                .with_shard_stall_at(2),
        );
        let shards = u64::from(map.zones());
        std::thread::spawn(move || {
            let (mut events, mut kills, mut stalls) = (0u64, 0u64, 0u64);
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(2));
                if let Some(kind) = plan.decide_shard_fault() {
                    events += 1;
                    let victim = (events % shards) as u32;
                    let server = group_slot.read().unwrap().server(victim);
                    server.note_injected_fault(kind);
                    match kind {
                        FaultKind::ShardCrash => {
                            server.crash();
                            kills += 1;
                        }
                        FaultKind::ShardStall => {
                            sup_slot.read().unwrap().stall(victim, true);
                            stalls += 1;
                        }
                        _ => {}
                    }
                }
            }
            (kills, stalls)
        })
    };

    // Live micro-batch ingest, with a coordinator restart mid-night.
    let mut router = ShardRouter::new(map);
    let mut pacing = SplitMix64::new(cfg.seed ^ 0x16E57);
    let (mut coordinator_restarts, mut requeues, mut fenced_flushes) = (0u64, 0u64, 0u64);
    for (i, file) in night.iter().enumerate() {
        if i == night.len() / 2 {
            // Coordinator restart: the old group and its supervisor are
            // gone. A fresh coordinator re-adopts the live servers, folds
            // the journal's persisted epochs back in one generation
            // higher — fencing any writer still holding a pre-restart
            // token — and the serve tier re-targets.
            sup_slot.read().unwrap().clone().shutdown();
            let old = group_slot.read().unwrap().clone();
            let servers = (0..old.zones()).map(|z| old.server(z)).collect();
            let group = Arc::new(ShardGroup::new(
                map,
                servers,
                &ZONED_TABLES,
                policy.clone(),
                obs,
            ));
            for z in 0..group.zones() {
                group.restore_epoch(z, journal.epoch_for(&shard_epoch_journal_key(z)) + 1);
            }
            *group_slot.write().unwrap() = group.clone();
            *sup_slot.write().unwrap() = start_supervisor(group.clone());
            readers.retarget(QueryService::start_sharded(group, serve_config(), obs));
            coordinator_restarts += 1;
        }
        let group = group_slot.read().unwrap().clone();
        let loader = ShardLoader::new(group, ShardLoadConfig, obs);
        let r = loader.load_files(&mut router, std::slice::from_ref(file), Some(&journal))?;
        requeues += r.requeues;
        fenced_flushes += r.fenced_flushes;
        // Poisson-ish inter-batch gaps so the drivers interleave with
        // flushes rather than only landing between files.
        std::thread::sleep(Duration::from_micros((pacing.next_f64() * 3000.0) as u64));
    }

    // Drain: stop injecting, let the supervisor heal everything.
    stop_driver.store(true, Ordering::Relaxed);
    let (kills, stalls) = driver.join().map_err(|_| "shard-fault driver panicked")?;
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let group = group_slot.read().unwrap().clone();
        let sup = sup_slot.read().unwrap().clone();
        let healthy = (0..group.zones()).all(|z| !group.server(z).is_crashed())
            && sup.stalled_zones().is_empty();
        if healthy || Instant::now() > deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    // One TTL of settle so a reclaim racing the drain check completes.
    std::thread::sleep(SHARD_LEASE_TTL);
    sup_slot.read().unwrap().clone().shutdown();
    report.reads = readers.finish()?;

    let group = group_slot.read().unwrap().clone();
    for z in 0..group.zones() {
        group.server(z).set_fault_plan(None);
    }
    let rows = &mut report.rows;
    for (table, expect) in &aggregate_expected(&night).loadable {
        if reference.totals[table] != *expect {
            rows.mismatches.push(format!(
                "reference load diverged from generator truth for {table}: {} vs {expect}",
                reference.totals[table]
            ));
        }
    }
    let final_scan = group
        .scan("objects", None)
        .map_err(|e| format!("final scan: {e}"))?;
    if final_scan.partial {
        rows.mismatches.push(format!(
            "final scan degraded: zones {:?} missing",
            final_scan.missing_zones
        ));
    }
    if final_scan.rows.len() as u64 != reference.totals["objects"] {
        rows.mismatches.push(format!(
            "final scatter-gather scan: expected {} objects, got {}",
            reference.totals["objects"],
            final_scan.rows.len()
        ));
    }
    let mut per_zone_rows = Vec::new();
    for zone in 0..group.zones() {
        let server = group.server(zone);
        let engine = server.engine();
        rows.check(
            &format!("zone {zone}"),
            engine,
            &reference.per_zone[zone as usize],
        )?;
        per_zone_rows
            .push(engine.row_count(engine.table_id("objects").map_err(|e| e.to_string())?));
    }
    report.shard = Some(ShardStats {
        kills,
        stalls,
        reclaims: 0,
        rebuilds: 0,
        fenced_flushes,
        requeues,
        coordinator_restarts,
        per_zone_rows,
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn soak(cfg: &SoakConfig) -> SoakReport {
        run_soak(cfg, &Arc::new(skyobs::Registry::new())).unwrap()
    }

    fn quick(preset: Preset, seed: u64) -> SoakConfig {
        SoakConfig {
            seed,
            quick: true,
            ..SoakConfig::new(preset)
        }
    }

    fn assert_passed(r: &SoakReport) {
        assert!(
            r.passed(),
            "{:?} seed {}: {:?} mismatches={:?}",
            r.config.preset,
            r.config.seed,
            r.failures(),
            r.rows.mismatches
        );
    }

    #[test]
    fn every_preset_passes_its_quick_soak() {
        type Check = fn(&SoakReport);
        let rows: [(SoakConfig, Check); 4] = [
            (
                SoakConfig {
                    files: 4,
                    nodes: 2,
                    ..quick(Preset::Chaos, 11)
                },
                |r| {
                    assert!(r.ingest.restarts >= 1, "the crash-on-flush never fired");
                    assert!(
                        r.fault_kinds_fired() >= 4,
                        "only {:?} fired",
                        r.faults_by_kind
                    );
                },
            ),
            (quick(Preset::Campaign, 41), |r| {
                let c = r.campaign.as_ref().unwrap();
                assert!(c.swapped, "the campaign never swapped");
                assert_eq!(r.faults_by_kind.get("swap_crash"), Some(&1));
                assert_eq!(c.resumes, 1, "the coordinator never resumed");
                assert!(r.ingest.loader_kills >= 1, "the loader kill never fired");
                let live = r.live.as_ref().unwrap();
                assert!(
                    live.freshness.count > 0 && live.freshness.max_us > 0,
                    "live freshness histogram was never populated: {:?}",
                    live.freshness
                );
                assert!(live.slo_met(), "freshness SLO blown in a quiet night");
                assert!(c.purged_rows > 0, "season 1 was never purged");
            }),
            (quick(Preset::Scrub, 71), |r| {
                let s = r.scrub.as_ref().unwrap();
                assert!(s.heap_rot_injected >= 1, "no rot was ever injected");
                assert!(
                    s.bad_records >= 1 && s.quarantined_rows >= 1,
                    "the scrubber never caught the rot: {s:?}"
                );
                assert!(
                    !s.repair.files_reloaded.is_empty(),
                    "repair reloaded nothing"
                );
                assert!(s.passes >= 2);
                assert!(r.reads.total > 0, "readers never ran");
                assert_eq!(s.bad_nodes, 0);
            }),
            (quick(Preset::Shard, 2005), |r| {
                let s = r.shard.as_ref().unwrap();
                assert!(s.kills >= 1, "the shard kill never fired");
                assert!(s.stalls >= 1, "the shard stall never fired");
                assert!(
                    s.reclaims >= 2,
                    "expected both faulted shards reclaimed, got {}",
                    s.reclaims
                );
                assert!(s.rebuilds >= 2, "got {} rebuilds", s.rebuilds);
                assert_eq!(s.coordinator_restarts, 1);
                assert!(r.reads.total > 0, "readers never ran");
                assert_eq!(r.rows.actual_rows, r.rows.expected_rows);
                assert!(
                    s.per_zone_rows.iter().all(|&n| n > 0),
                    "every zone should own rows: {:?}",
                    s.per_zone_rows
                );
            }),
        ];
        for (cfg, check) in rows {
            let report = soak(&cfg);
            assert_passed(&report);
            check(&report);
        }
    }

    #[test]
    fn loader_kill_and_zombie_soak_stays_exactly_once() {
        // A loader killed on the first grant and another frozen into a
        // zombie on the second, on top of the usual connection weather:
        // the supervisor must reclaim both leases and the zombie's stale
        // flush must be fenced — with every loadable row landing once.
        let report = soak(&SoakConfig {
            files: 4,
            nodes: 2,
            loader_kill_at: Some(1),
            loader_stall_at: Some(2),
            ..quick(Preset::Chaos, 77)
        });
        assert_passed(&report);
        let i = &report.ingest;
        assert!(i.loader_kills >= 1, "the loader kill never fired");
        assert!(i.loader_stalls >= 1, "the loader stall never fired");
        assert!(
            i.lease_reclaims >= 2,
            "expected both faulted leases reclaimed, got {}",
            i.lease_reclaims
        );
        assert!(
            i.fencing_rejections >= 1,
            "the zombie's stale flush was never fenced"
        );
    }

    #[test]
    fn same_seed_reproduces_the_fault_schedule() {
        // Single-node runs are fully deterministic: two soaks with one
        // seed must observe the identical fault counters.
        let cfg = SoakConfig {
            files: 3,
            nodes: 1,
            ..quick(Preset::Chaos, 29)
        };
        let (a, b) = (soak(&cfg), soak(&cfg));
        assert_eq!(a.faults_by_kind, b.faults_by_kind);
        assert_eq!(a.ingest.retries, b.ingest.retries);
        assert_eq!(a.ingest.generations, b.ingest.generations);
        assert_eq!(a.ingest.restarts, b.ingest.restarts);
        assert!(a.passed() && b.passed());
    }

    #[test]
    fn campaign_soak_survives_full_server_crash_at_swap() {
        let report = soak(&SoakConfig {
            restart_server: true,
            ..quick(Preset::Campaign, 43)
        });
        assert_passed(&report);
        let c = report.campaign.as_ref().unwrap();
        assert_eq!(c.server_restarts, 1);
        assert!(c.swapped);
        // The recovered engine replays the WAL by table id, so the swap
        // (a name-level rebind) is gone after recovery: the resumed
        // coordinator must redo it, not skip it.
        assert_eq!(c.resumes, 1);
    }

    #[test]
    fn scrub_soak_survives_wal_rot_and_restart() {
        let cfg = SoakConfig {
            wal_rot: true,
            ..quick(Preset::Scrub, 72)
        };
        let report = soak(&cfg);
        assert_passed(&report);
        let s = report.scrub.as_ref().unwrap();
        assert!(s.wal_rot_injected);
        assert!(
            s.recovered_from_log || s.rebuilt_from_source,
            "a WAL-rot soak must restart from the log or rebuild from source"
        );
        assert!(s.repair.widened_for_wal_rot);
        assert_eq!(
            s.repair.files_reloaded.len(),
            cfg.files.min(2),
            "widened repair must reload the whole night"
        );
    }

    #[test]
    fn scrub_soak_completes_files_its_live_night_gave_up() {
        // Every call of the live night resets, so the night gives every
        // file up; the preset's own weather returns afterwards. The
        // ingest-completion step must re-run those files through the
        // journal before repair, or the verdict counts them lost.
        let cfg = quick(Preset::Scrub, 71);
        let obs = Arc::new(skyobs::Registry::new());
        let resets = FaultPlanConfig::new(cfg.seed).with_resets(1.0);
        let report = run_with_night_plan(&cfg, &obs, Some(resets)).unwrap();
        assert!(
            report.live.as_ref().unwrap().failed_files > 0,
            "the live night gave nothing up"
        );
        assert_passed(&report);
        assert_eq!(report.rows.lost_rows, 0);
        assert!(report.ingest.generations >= 1, "nothing was re-run");
    }
}
