//! # skyloader — parallel bulk loading with array buffering
//!
//! A faithful reproduction of the SkyLoader framework from *"Optimized Data
//! Loading for a Multi-Terabyte Sky Survey Repository"* (Cai, Aydt &
//! Brunner, SC 2005): the framework that loads interleaved, multi-table
//! sky-survey catalog data into a relational repository fast enough to keep
//! up with the telescope.
//!
//! The four pillars of the framework (§4) map to modules:
//!
//! 1. **An efficient bulk-loading algorithm** (paper Fig. 3) — [`bulk`]:
//!    batch inserts with exact skip-the-error-row recovery.
//! 2. **An effective buffering data structure** — [`arrayset`]: the
//!    `array-set` of per-table arrays flushed in parent-before-child order,
//!    including the paper's future-work extensions (per-table capacities
//!    from a config file, memory high-water mark).
//! 3. **Optimized parallelism** — [`parallel`]: one loader per cluster
//!    node with on-the-fly file assignment.
//! 4. **Database and system tuning** — [`tune`]: the §4.5 guidelines as
//!    executable presets plus batch/array autotuning sweeps.
//!
//! Plus [`recovery`] (checkpoint journal for crash-resume), [`resilience`]
//! (retry/backoff/circuit-breaker/degradation policy for flaky links) and
//! [`report`] (per-file/night reports and the modeled-cost breakdown).
//!
//! ## Quick start
//!
//! ```
//! use skydb::{DbConfig, Server};
//! use skycat::gen::{generate_file, GenConfig};
//! use skyloader::{load_catalog_file, LoaderConfig};
//!
//! // A database server with the 23-table repository schema.
//! let server = Server::start(DbConfig::test());
//! skycat::create_all(server.engine()).unwrap();
//! skycat::seed_static(server.engine()).unwrap();
//! skycat::seed_observation(server.engine(), 1, 100).unwrap();
//!
//! // A synthetic catalog file and a bulk load.
//! let file = generate_file(&GenConfig::small(42, 100), 0);
//! let session = server.connect();
//! let report = load_catalog_file(&session, &LoaderConfig::paper(), &file).unwrap();
//! assert_eq!(report.rows_loaded, file.expected.total_loadable());
//! ```

#![warn(missing_docs)]

pub mod arrayset;
pub mod audit;
pub mod bulk;
pub mod campaign;
pub mod chaos;
pub mod cli;
pub mod config;
pub mod fleet;
pub mod live;
pub mod parallel;
pub mod recovery;
pub mod repair;
pub mod report;
pub mod reprocess;
pub mod resilience;
pub mod serving;
pub mod shardload;
pub mod tune;
pub mod twophase;

pub use arrayset::{ArraySet, SealedArraySet};
pub use audit::{audit_repository, AuditReport};
pub use bulk::{load_catalog_file, load_catalog_text, load_catalog_text_with_journal};
pub use campaign::{
    resume_campaign, roll_back_campaign, run_campaign, CampaignConfig, CampaignManifest,
    CampaignPhase, CampaignReport,
};
pub use chaos::{run_soak, Preset, SoakConfig, SoakReport};
pub use config::{CommitPolicy, ExecMode, LoaderConfig, PipelineMode};
pub use fleet::{FleetPolicy, FleetSupervisor, Lease};
pub use live::{run_live, LiveConfig, LiveReport};
pub use parallel::{load_night, load_night_with_journal, NightError};
pub use recovery::LoadJournal;
pub use repair::{run_repair, source_file_for, RepairReport};
pub use report::{FailedFile, FileReport, ModeledCost, NightReport, SkipKind, SkipRecord};
pub use reprocess::{
    acquire_reprocess_fence, delete_observation, delete_observation_fenced, reprocess_observation,
    PurgeReport,
};
pub use serving::{run_serve_load, QueueStats, ServeLoadConfig, ServeLoadOutcome, ServeLoadReport};
pub use shardload::{
    clean_reference, fresh_catalog_server, shard_epoch_journal_key, RoutedFile, ShardLoadConfig,
    ShardLoadReport, ShardLoader, ShardReference, ShardRouter, ShardSupervisor,
    ShardSupervisorConfig, ZONED_TABLES,
};

pub use resilience::{
    classify, fault_label, Backoff, CircuitBreaker, DegradeTransition, Degrader, ErrorClass,
    RetryPolicy, MAX_DEGRADE_LEVEL,
};
pub use tune::{autotune_array_size, autotune_batch_size, SweepResult, TuningGuideline};
pub use twophase::{load_two_phase, start_task_server, TwoPhaseReport};

// Re-export the commonly paired substrates so downstream users need only
// one dependency.
pub use skycat;
pub use skydb;
pub use skyhtm;
pub use skyobs;
pub use skysim;
