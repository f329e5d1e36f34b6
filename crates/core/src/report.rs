//! Load reports: per-file and per-night outcomes, skip accounting, and the
//! modeled-cost breakdown the experiments report.

use std::collections::BTreeMap;
use std::time::Duration;

use serde::Serialize;

use skydb::error::{ConstraintKind, DbError};
use skydb::server::Server;
use skyobs::Snapshot;

use crate::resilience::DegradeTransition;

/// Why a row was skipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum SkipKind {
    /// The line could not be parsed (tag/field-count).
    Parse,
    /// The fields could not be transformed into a typed row.
    Transform,
    /// Duplicate primary key at the database.
    PrimaryKey,
    /// Missing foreign-key parent at the database.
    ForeignKey,
    /// Unique-constraint violation at the database.
    Unique,
    /// CHECK-constraint violation at the database.
    Check,
    /// NOT NULL violation at the database.
    NotNull,
    /// Type or arity error at the database.
    Type,
    /// Anything else.
    Other,
}

impl SkipKind {
    /// Classify a database error.
    pub fn from_db_error(e: &DbError) -> SkipKind {
        match e.constraint_kind() {
            Some(ConstraintKind::PrimaryKey) => SkipKind::PrimaryKey,
            Some(ConstraintKind::ForeignKey) => SkipKind::ForeignKey,
            Some(ConstraintKind::Unique) => SkipKind::Unique,
            Some(ConstraintKind::Check) => SkipKind::Check,
            Some(ConstraintKind::NotNull) => SkipKind::NotNull,
            None => match e {
                DbError::TypeMismatch { .. } | DbError::ArityMismatch { .. } => SkipKind::Type,
                _ => SkipKind::Other,
            },
        }
    }

    /// Stable label for report maps.
    pub fn label(self) -> &'static str {
        match self {
            SkipKind::Parse => "parse",
            SkipKind::Transform => "transform",
            SkipKind::PrimaryKey => "primary_key",
            SkipKind::ForeignKey => "foreign_key",
            SkipKind::Unique => "unique",
            SkipKind::Check => "check",
            SkipKind::NotNull => "not_null",
            SkipKind::Type => "type",
            SkipKind::Other => "other",
        }
    }
}

/// Detail of one skipped row (kept up to the config's cap).
#[derive(Debug, Clone, Serialize)]
pub struct SkipRecord {
    /// Destination table (or tag) of the skipped row.
    pub table: String,
    /// Zero-based line number in the source file, when known.
    pub line: Option<u64>,
    /// Why it was skipped.
    pub kind: SkipKind,
    /// Human-readable detail.
    pub reason: String,
}

/// Outcome of loading one catalog file.
#[derive(Debug, Clone, Default, Serialize)]
pub struct FileReport {
    /// Source file name.
    pub file: String,
    /// Rows committed per table.
    pub loaded_by_table: BTreeMap<String, u64>,
    /// Skips per kind label.
    pub skipped_by_kind: BTreeMap<&'static str, u64>,
    /// Total rows committed.
    pub rows_loaded: u64,
    /// Total rows skipped (parse + transform + database).
    pub rows_skipped: u64,
    /// Batched database calls issued.
    pub batch_calls: u64,
    /// Singleton database calls issued.
    pub single_calls: u64,
    /// Commits issued.
    pub commits: u64,
    /// Bulk-loading cycles completed.
    pub cycles: u64,
    /// Bytes of catalog text consumed.
    pub bytes_read: u64,
    /// Wall-clock time on the loader.
    #[serde(with = "ser_duration")]
    pub elapsed: Duration,
    /// Modeled client paging time (Fig. 6's effect).
    #[serde(with = "ser_duration")]
    pub client_paging: Duration,
    /// Client page faults.
    pub client_faults: u64,
    /// Detailed skip records (capped).
    pub skip_details: Vec<SkipRecord>,
    /// Lines resumed past (when loading with a journal).
    pub lines_resumed: u64,
    /// Failed attempts retried before this file loaded (0 = first try).
    pub retries: u64,
    /// Modeled time in the parse stage: input lines × the configured
    /// client parse cost.
    #[serde(with = "ser_duration")]
    pub stage_parse: Duration,
    /// Modeled time in the flush stage: wire + server charges accrued
    /// while draining sealed array-sets (exact for a single-node load; on a
    /// shared server, concurrent loaders' charges bleed in).
    #[serde(with = "ser_duration")]
    pub stage_flush: Duration,
    /// Modeled time the two stages ran concurrently (zero for serial
    /// loads): `stage_parse + stage_flush + client_paging −
    /// modeled_makespan`.
    #[serde(with = "ser_duration")]
    pub stage_overlap: Duration,
    /// Modeled end-to-end time of this load. Serial mode chains every
    /// stage; `PipelineMode::Double` combines per-cycle stage times with
    /// the two-stage pipeline recurrence (see `bulk`).
    #[serde(with = "ser_duration")]
    pub modeled_makespan: Duration,
}

impl FileReport {
    /// Record a successfully loaded row.
    pub fn note_loaded(&mut self, table: &str, n: u64) {
        *self.loaded_by_table.entry(table.to_owned()).or_insert(0) += n;
        self.rows_loaded += n;
    }

    /// Record a skipped row.
    pub fn note_skipped(
        &mut self,
        cap: usize,
        table: &str,
        line: Option<u64>,
        kind: SkipKind,
        reason: String,
    ) {
        *self.skipped_by_kind.entry(kind.label()).or_insert(0) += 1;
        self.rows_skipped += 1;
        if self.skip_details.len() < cap {
            self.skip_details.push(SkipRecord {
                table: table.to_owned(),
                line,
                kind,
                reason,
            });
        }
    }

    /// Total database calls.
    pub fn total_calls(&self) -> u64 {
        self.batch_calls + self.single_calls
    }

    /// Modeled throughput in MB/s: bytes consumed over the modeled
    /// makespan. Comparable across `PipelineMode`s because both account the
    /// same stage charges; only the combining rule differs.
    pub fn modeled_throughput_mb_per_s(&self) -> f64 {
        if self.modeled_makespan.is_zero() {
            return 0.0;
        }
        (self.bytes_read as f64 / 1e6) / self.modeled_makespan.as_secs_f64()
    }
}

/// A file that could not be loaded within the retry/requeue budget.
#[derive(Debug, Clone, Serialize)]
pub struct FailedFile {
    /// Source file name.
    pub file: String,
    /// The last error observed for it.
    pub error: String,
}

/// Outcome of loading a whole observation (many files, possibly parallel).
#[derive(Debug, Clone, Default, Serialize)]
pub struct NightReport {
    /// Per-file reports, in completion order.
    pub files: Vec<FileReport>,
    /// Wall-clock makespan of the run.
    #[serde(with = "ser_duration")]
    pub makespan: Duration,
    /// Worker nodes used.
    pub nodes: usize,
    /// Busiest/idlest node busy-time ratio (1.0 = perfectly balanced).
    pub node_imbalance: f64,
    /// Failed file-load attempts retried across the night.
    pub retries: u64,
    /// Retried transport errors by kind label (the faults the fleet
    /// survived; latency spikes absorbed within the call budget are
    /// invisible here but counted server-side).
    pub faults_survived: BTreeMap<String, u64>,
    /// Circuit-breaker trips (connections quarantined and replaced).
    pub breaker_trips: u64,
    /// Wall-clock time the fleet spent below full batch mode.
    #[serde(with = "ser_duration")]
    pub degraded_time: Duration,
    /// Every degradation-ladder move, in order.
    pub degrade_transitions: Vec<DegradeTransition>,
    /// Loaders killed mid-file by the fault plan (Condor eviction model).
    pub loader_kills: u64,
    /// Loaders frozen mid-file by the fault plan (zombie model).
    pub loader_stalls: u64,
    /// Leases reclaimed after TTL expiry (files reassigned to live nodes).
    pub lease_reclaims: u64,
    /// Stale-epoch flushes rejected at the session layer by fencing.
    pub fencing_rejections: u64,
    /// Files given up on (empty on a fully successful night).
    pub failed_files: Vec<FailedFile>,
}

impl NightReport {
    /// Build the counter-backed fields from a telemetry snapshot (usually a
    /// [`Snapshot::since`] delta over the night). This is the **single**
    /// counter→report mapping: the coordinator's final assembly, the chaos
    /// aggregation, and the CLI metrics dump all read the same registry
    /// names, so the three paths cannot drift.
    ///
    /// Shape-only fields (`files`, `makespan`, `degrade_transitions`, …)
    /// stay default; the caller fills them in.
    pub fn from_telemetry(delta: &Snapshot) -> NightReport {
        NightReport {
            retries: delta.counter("retries"),
            breaker_trips: delta.counter("breaker_trips"),
            degraded_time: Duration::from_micros(delta.counter("degrade.time_us")),
            loader_kills: delta.counter("loader_kills"),
            loader_stalls: delta.counter("loader_stalls"),
            lease_reclaims: delta.counter("fleet.reclaims"),
            fencing_rejections: delta.counter("fleet.fence_rejections"),
            faults_survived: delta.with_prefix("faults.survived."),
            ..NightReport::default()
        }
    }

    /// `true` when every file loaded (possibly after retries/requeues).
    pub fn is_complete(&self) -> bool {
        self.failed_files.is_empty()
    }

    /// Total rows committed.
    pub fn rows_loaded(&self) -> u64 {
        self.files.iter().map(|f| f.rows_loaded).sum()
    }

    /// Total rows skipped.
    pub fn rows_skipped(&self) -> u64 {
        self.files.iter().map(|f| f.rows_skipped).sum()
    }

    /// Total catalog bytes consumed.
    pub fn bytes_read(&self) -> u64 {
        self.files.iter().map(|f| f.bytes_read).sum()
    }

    /// Wall-clock throughput in MB/s (the Fig. 7 metric).
    pub fn throughput_mb_per_s(&self) -> f64 {
        if self.makespan.is_zero() {
            return 0.0;
        }
        (self.bytes_read() as f64 / 1e6) / self.makespan.as_secs_f64()
    }

    /// Total modeled parse-stage time across files.
    pub fn stage_parse(&self) -> Duration {
        self.files.iter().map(|f| f.stage_parse).sum()
    }

    /// Total modeled flush-stage time across files.
    pub fn stage_flush(&self) -> Duration {
        self.files.iter().map(|f| f.stage_flush).sum()
    }

    /// Total modeled stage overlap across files (zero when every file
    /// loaded serially).
    pub fn stage_overlap(&self) -> Duration {
        self.files.iter().map(|f| f.stage_overlap).sum()
    }

    /// Sum of loaded rows per table across files.
    pub fn loaded_by_table(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for f in &self.files {
            for (t, n) in &f.loaded_by_table {
                *out.entry(t.clone()).or_insert(0) += n;
            }
        }
        out
    }
}

/// The modeled serial cost of a load, broken down by resource.
///
/// At `TimeScale::ZERO` nothing is actually waited, but every model still
/// accounts its charges; for a single loader the components are serial, so
/// their sum is the deterministic "runtime" the single-loader experiments
/// (Figs. 4, 5, 6, 8, 9) report.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct ModeledCost {
    /// Network round-trip + transfer time (micros).
    pub network_us: u64,
    /// Server CPU service time (micros).
    pub server_cpu_us: u64,
    /// Disk service time across devices (micros).
    pub disk_us: u64,
    /// Lock-wait penalties (micros).
    pub lock_wait_us: u64,
    /// Cache-writer scan CPU (micros).
    pub cache_scan_us: u64,
    /// Client paging (micros).
    pub client_paging_us: u64,
}

impl ModeledCost {
    /// Snapshot a server's accumulated modeled costs, adding client-side
    /// paging time measured by the loader. A view over the telemetry
    /// snapshot: [`skydb::server::Server::obs_snapshot`] syncs the
    /// `model.*_us` gauges, and this reads them back.
    pub fn measure(server: &Server, client_paging: Duration) -> ModeledCost {
        ModeledCost::from_snapshot(&server.obs_snapshot(), client_paging)
    }

    /// Read the modeled-cost breakdown out of a telemetry snapshot (the
    /// `model.*_us` gauges synced by `Server::obs_snapshot`).
    pub fn from_snapshot(snap: &Snapshot, client_paging: Duration) -> ModeledCost {
        ModeledCost {
            network_us: snap.gauge("model.network_us"),
            server_cpu_us: snap.gauge("model.server_cpu_us"),
            disk_us: snap.gauge("model.disk_us"),
            lock_wait_us: snap.gauge("model.lock_wait_us"),
            cache_scan_us: snap.gauge("model.cache_scan_us"),
            client_paging_us: client_paging.as_micros() as u64,
        }
    }

    /// The difference `self - baseline` (for measuring one run on a shared
    /// server), saturating at zero: the `model.*_us` gauges are
    /// last-writer-wins, so a server restarted onto a shared registry can
    /// read below a baseline taken from its predecessor.
    pub fn since(self, baseline: ModeledCost) -> ModeledCost {
        ModeledCost {
            network_us: self.network_us.saturating_sub(baseline.network_us),
            server_cpu_us: self.server_cpu_us.saturating_sub(baseline.server_cpu_us),
            disk_us: self.disk_us.saturating_sub(baseline.disk_us),
            lock_wait_us: self.lock_wait_us.saturating_sub(baseline.lock_wait_us),
            cache_scan_us: self.cache_scan_us.saturating_sub(baseline.cache_scan_us),
            client_paging_us: self
                .client_paging_us
                .saturating_sub(baseline.client_paging_us),
        }
    }

    /// Total modeled time.
    pub fn total(&self) -> Duration {
        Duration::from_micros(
            self.network_us
                + self.server_cpu_us
                + self.disk_us
                + self.lock_wait_us
                + self.cache_scan_us
                + self.client_paging_us,
        )
    }
}

pub(crate) mod ser_duration {
    //! Serialize a [`Duration`] as integer microseconds.
    use serde::{Serialize, Serializer};
    use std::time::Duration;

    /// Serde `with`-hook: emit the duration as whole microseconds.
    pub fn serialize<S: Serializer>(d: &Duration, s: S) -> Result<S::Ok, S::Error> {
        (d.as_micros() as u64).serialize(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skip_kind_classifies_db_errors() {
        let pk = DbError::constraint(ConstraintKind::PrimaryKey, "p", "t", "d");
        assert_eq!(SkipKind::from_db_error(&pk), SkipKind::PrimaryKey);
        let arity = DbError::ArityMismatch {
            table: "t".into(),
            expected: 2,
            got: 3,
        };
        assert_eq!(SkipKind::from_db_error(&arity), SkipKind::Type);
        assert_eq!(
            SkipKind::from_db_error(&DbError::NoTransaction),
            SkipKind::Other
        );
    }

    #[test]
    fn file_report_accounting() {
        let mut r = FileReport::default();
        r.note_loaded("objects", 10);
        r.note_loaded("objects", 5);
        r.note_loaded("fingers", 40);
        r.note_skipped(10, "objects", Some(3), SkipKind::PrimaryKey, "dup".into());
        r.note_skipped(10, "objects", None, SkipKind::Parse, "bad".into());
        assert_eq!(r.rows_loaded, 55);
        assert_eq!(r.rows_skipped, 2);
        assert_eq!(r.loaded_by_table["objects"], 15);
        assert_eq!(r.skipped_by_kind["primary_key"], 1);
        assert_eq!(r.skip_details.len(), 2);
    }

    #[test]
    fn skip_details_capped_but_counted() {
        let mut r = FileReport::default();
        for i in 0..100 {
            r.note_skipped(5, "t", Some(i), SkipKind::Check, "x".into());
        }
        assert_eq!(r.rows_skipped, 100);
        assert_eq!(r.skip_details.len(), 5);
    }

    #[test]
    fn night_report_aggregates() {
        let mut f1 = FileReport::default();
        f1.note_loaded("objects", 10);
        f1.bytes_read = 1_000_000;
        let mut f2 = FileReport::default();
        f2.note_loaded("objects", 20);
        f2.bytes_read = 2_000_000;
        let night = NightReport {
            files: vec![f1, f2],
            makespan: Duration::from_secs(3),
            nodes: 2,
            node_imbalance: 1.1,
            ..NightReport::default()
        };
        assert!(night.is_complete());
        assert_eq!(night.rows_loaded(), 30);
        assert_eq!(night.bytes_read(), 3_000_000);
        assert!((night.throughput_mb_per_s() - 1.0).abs() < 1e-9);
        assert_eq!(night.loaded_by_table()["objects"], 30);
    }

    #[test]
    fn modeled_cost_arithmetic() {
        let a = ModeledCost {
            network_us: 100,
            server_cpu_us: 50,
            disk_us: 25,
            lock_wait_us: 5,
            cache_scan_us: 10,
            client_paging_us: 10,
        };
        let b = ModeledCost {
            network_us: 40,
            ..Default::default()
        };
        let d = a.since(b);
        assert_eq!(d.network_us, 60);
        assert_eq!(d.total(), Duration::from_micros(160));
    }

    #[test]
    fn modeled_cost_since_a_higher_baseline_saturates_at_zero() {
        // A restarted server's fresh gauges read below the baseline its
        // predecessor left in a shared registry.
        let baseline = ModeledCost {
            network_us: 500,
            disk_us: 90,
            client_paging_us: 3,
            ..Default::default()
        };
        let current = ModeledCost {
            network_us: 200,
            disk_us: 100,
            ..Default::default()
        };
        let d = current.since(baseline);
        assert_eq!((d.network_us, d.disk_us, d.client_paging_us), (0, 10, 0));
        assert_eq!(d.total(), Duration::from_micros(10));
    }

    #[test]
    fn reports_serialize_to_json() {
        let mut r = FileReport {
            file: "f.cat".into(),
            ..Default::default()
        };
        r.note_loaded("objects", 1);
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("\"rows_loaded\":1"));
    }

    #[test]
    fn night_report_counters_come_from_telemetry() {
        let reg = skyobs::Registry::new();
        reg.counter("retries").add(3);
        reg.counter("breaker_trips").add(1);
        reg.counter("fleet.reclaims").add(2);
        reg.counter("fleet.fence_rejections").add(4);
        reg.counter("loader_kills").inc();
        reg.counter("degrade.time_us").add(1500);
        reg.counter("faults.survived.reset").add(2);
        let night = NightReport::from_telemetry(&reg.snapshot());
        assert_eq!(night.retries, 3);
        assert_eq!(night.breaker_trips, 1);
        assert_eq!(night.lease_reclaims, 2);
        assert_eq!(night.fencing_rejections, 4);
        assert_eq!(night.loader_kills, 1);
        assert_eq!(night.degraded_time, Duration::from_micros(1500));
        assert_eq!(night.faults_survived.get("reset"), Some(&2));
    }

    /// Byte-level key compatibility: the snapshot→report mapping must keep
    /// every pre-telemetry JSON field name, so archived `repro-results/*.json`
    /// stay comparable across the refactor.
    #[test]
    fn report_json_keys_are_stable() {
        let mut f = FileReport::default();
        f.note_loaded("objects", 1);
        f.note_skipped(1, "objects", Some(0), SkipKind::Parse, "x".into());
        let file_json = serde_json::to_string(&f).unwrap();
        const FILE_KEYS: &[&str] = &[
            "file",
            "loaded_by_table",
            "skipped_by_kind",
            "rows_loaded",
            "rows_skipped",
            "batch_calls",
            "single_calls",
            "commits",
            "cycles",
            "bytes_read",
            "elapsed",
            "client_paging",
            "client_faults",
            "skip_details",
            "lines_resumed",
            "retries",
            "stage_parse",
            "stage_flush",
            "stage_overlap",
            "modeled_makespan",
        ];
        for key in FILE_KEYS {
            assert!(
                file_json.contains(&format!("\"{key}\":")),
                "FileReport lost key {key}"
            );
        }

        let reg = skyobs::Registry::new();
        reg.counter("faults.survived.reset").inc();
        let night = NightReport {
            makespan: Duration::from_secs(1),
            ..NightReport::from_telemetry(&reg.snapshot())
        };
        let night_json = serde_json::to_string(&night).unwrap();
        const NIGHT_KEYS: &[&str] = &[
            "files",
            "makespan",
            "nodes",
            "node_imbalance",
            "retries",
            "faults_survived",
            "breaker_trips",
            "degraded_time",
            "degrade_transitions",
            "loader_kills",
            "loader_stalls",
            "lease_reclaims",
            "fencing_rejections",
            "failed_files",
        ];
        for key in NIGHT_KEYS {
            assert!(
                night_json.contains(&format!("\"{key}\":")),
                "NightReport lost key {key}"
            );
        }
        // String-keyed faults_survived serializes exactly like the old
        // &'static str keys did.
        assert!(night_json.contains("\"faults_survived\":{\"reset\":1}"));
    }

    #[test]
    fn modeled_cost_reads_model_gauges() {
        let reg = skyobs::Registry::new();
        reg.gauge("model.network_us").set(100);
        reg.gauge("model.disk_us").set(30);
        let cost = ModeledCost::from_snapshot(&reg.snapshot(), Duration::from_micros(7));
        assert_eq!(cost.network_us, 100);
        assert_eq!(cost.disk_us, 30);
        assert_eq!(cost.client_paging_us, 7);
        assert_eq!(cost.total(), Duration::from_micros(137));
    }
}
