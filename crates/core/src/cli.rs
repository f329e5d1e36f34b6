//! The `skyload` command-line driver: generate catalog files on disk, load
//! a directory of them into a repository, inspect files, and verify loads
//! against generator manifests.
//!
//! Logic lives here (testable); `src/bin/skyload.rs` is a thin shell.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use skycat::gen::{generate_observation, CatalogFile, ExpectedCounts, GenConfig};
use skydb::{DbConfig, Server};
use skysim::cluster::AssignmentPolicy;
use skysim::time::TimeScale;

use crate::chaos::{Preset, SoakConfig};
use crate::config::{LoaderConfig, PipelineMode};
use crate::parallel::load_night_with_journal;
use crate::recovery::LoadJournal;

/// A manifest written next to generated files so later loads can be
/// verified to the row.
#[derive(Debug, Clone, Default, Serialize, Deserialize, PartialEq, Eq)]
pub struct Manifest {
    /// Rows a correct loader commits, per table.
    pub loadable: BTreeMap<String, u64>,
    /// Lines emitted per table (including corrupted ones).
    pub emitted: BTreeMap<String, u64>,
    /// Observation id the files reference.
    pub obs_id: i64,
}

impl Manifest {
    fn from_expected(e: &ExpectedCounts, obs_id: i64) -> Manifest {
        Manifest {
            loadable: e
                .loadable
                .iter()
                .map(|(k, v)| ((*k).to_owned(), *v))
                .collect(),
            emitted: e
                .emitted
                .iter()
                .map(|(k, v)| ((*k).to_owned(), *v))
                .collect(),
            obs_id,
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Generate an observation into a directory.
    Generate {
        /// Output directory.
        out: PathBuf,
        /// Generator seed.
        seed: u64,
        /// Number of catalog files.
        files: usize,
        /// Object-row corruption rate.
        error_rate: f64,
        /// Observation id.
        obs_id: i64,
    },
    /// Load every `*.cat` file in a directory into a fresh repository.
    Load {
        /// Input directory.
        dir: PathBuf,
        /// Parallel loader nodes.
        nodes: usize,
        /// Loader configuration file (JSON), if any.
        config: Option<PathBuf>,
        /// Journal path for checkpoint/resume.
        journal: Option<PathBuf>,
        /// Write the night report as JSON here.
        report: Option<PathBuf>,
        /// Verify final row counts against the directory's manifest.
        verify: bool,
        /// Run the full integrity audit after loading.
        audit: bool,
        /// Pipeline-mode override (`--pipeline off|double`); `None` keeps
        /// the config file's (or default) setting.
        pipeline: Option<PipelineMode>,
        /// Dump the telemetry registry as JSONL here after the load.
        metrics: Option<PathBuf>,
    },
    /// Parse one catalog file and summarize its contents, or — with
    /// `--top-spans N` — treat the file as a telemetry JSONL dump and
    /// print the N slowest spans it records.
    Inspect {
        /// File to inspect.
        file: PathBuf,
        /// Print the N slowest spans from a `--metrics` JSONL dump.
        top_spans: Option<usize>,
        /// Also show how the rows would route across N declination
        /// zones (per-shard row counts).
        shards: Option<u32>,
    },
    /// Soak a synthetic night under one preset's drivers and fault plan
    /// (`chaos`, `campaign`, `scrub`, `shard-chaos`) and check every
    /// promise the preset covers.
    Soak {
        /// The preset and its knobs.
        config: SoakConfig,
        /// Write the soak report as JSON here.
        report: Option<PathBuf>,
        /// Dump the telemetry registry as JSONL here after the soak.
        metrics: Option<PathBuf>,
    },
    /// Ingest a synthetic night as continuous micro-batches on a modeled
    /// arrival schedule and report per-batch freshness (arrival →
    /// committed-visible) against an SLO budget.
    Live {
        /// Master seed for the night and the arrival schedule.
        seed: u64,
        /// Catalog files (micro-batches) in the night.
        files: usize,
        /// Parallel loader nodes per micro-batch.
        nodes: usize,
        /// Mean inter-arrival gap between micro-batches, in milliseconds.
        mean_interarrival_ms: u64,
        /// Freshness SLO budget per batch, in milliseconds.
        slo_budget_ms: u64,
        /// Smaller night, for CI.
        quick: bool,
        /// Write the live-night report as JSON here.
        report: Option<PathBuf>,
        /// Dump the telemetry registry as JSONL here after the night.
        metrics: Option<PathBuf>,
    },
    /// Serve a CasJobs-style fast/slow query mix against a repository
    /// while a loader fleet ingests a night, and report per-queue
    /// latency percentiles.
    Serve {
        /// Master seed for the catalog, query mix, and ingest night.
        seed: u64,
        /// Concurrent query users.
        users: usize,
        /// Queries each user issues.
        queries: usize,
        /// Parallel loader nodes ingesting during the serve window
        /// (0 = serve-only baseline).
        ingest_nodes: usize,
        /// Fast-queue deadline override, in milliseconds: queries whose
        /// modeled cost overruns it demote to the slow queue.
        fast_deadline_ms: Option<u64>,
        /// Smaller catalog and query mix, for CI.
        quick: bool,
        /// Write the serve report as JSON here.
        report: Option<PathBuf>,
        /// Dump the telemetry registry as JSONL here after the run.
        metrics: Option<PathBuf>,
    },
    /// Print usage.
    Help,
}

/// Parse argv (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let Some(cmd) = it.next() else {
        return Ok(Command::Help);
    };
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut positional = Vec::new();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            match name {
                "verify" | "audit" | "quick" | "restart-server" | "wal-rot" => {
                    flags.insert(name.to_owned(), "true".into());
                }
                _ => {
                    let v = it
                        .next()
                        .ok_or_else(|| format!("--{name} requires a value"))?;
                    flags.insert(name.to_owned(), v.clone());
                }
            }
        } else {
            positional.push(a.clone());
        }
    }
    let get = |k: &str| flags.get(k).cloned();
    let parse_num = |k: &str, default: u64| -> Result<u64, String> {
        get(k)
            .map(|v| v.parse::<u64>().map_err(|e| format!("--{k}: {e}")))
            .unwrap_or(Ok(default))
    };
    match cmd.as_str() {
        "generate" => Ok(Command::Generate {
            out: PathBuf::from(get("out").ok_or("generate needs --out DIR")?),
            seed: parse_num("seed", 2005)?,
            files: parse_num("files", 28)? as usize,
            error_rate: get("error-rate")
                .map(|v| v.parse::<f64>().map_err(|e| format!("--error-rate: {e}")))
                .unwrap_or(Ok(0.0))?,
            obs_id: parse_num("obs-id", 100)? as i64,
        }),
        "load" => Ok(Command::Load {
            dir: PathBuf::from(get("dir").ok_or("load needs --dir DIR")?),
            nodes: parse_num("nodes", 5)? as usize,
            config: get("config").map(PathBuf::from),
            journal: get("journal").map(PathBuf::from),
            report: get("report").map(PathBuf::from),
            verify: flags.contains_key("verify"),
            audit: flags.contains_key("audit"),
            pipeline: get("pipeline")
                .map(|v| match v.as_str() {
                    "off" => Ok(PipelineMode::Off),
                    "double" => Ok(PipelineMode::Double),
                    other => Err(format!(
                        "--pipeline must be `off` or `double`, got {other:?}"
                    )),
                })
                .transpose()?,
            metrics: get("metrics").map(PathBuf::from),
        }),
        "live" => Ok(Command::Live {
            seed: parse_num("seed", 2005)?,
            files: parse_num("files", 12)? as usize,
            nodes: parse_num("nodes", 3)? as usize,
            mean_interarrival_ms: parse_num("mean-interarrival", 50)?,
            slo_budget_ms: {
                let ms = parse_num("slo-budget", 5000)?;
                if ms == 0 {
                    return Err("--slo-budget must be at least 1 ms".into());
                }
                ms
            },
            quick: flags.contains_key("quick"),
            report: get("report").map(PathBuf::from),
            metrics: get("metrics").map(PathBuf::from),
        }),
        "serve" => {
            let defaults = crate::serving::ServeLoadConfig::default();
            Ok(Command::Serve {
                seed: parse_num("seed", defaults.seed)?,
                users: parse_num("users", defaults.users as u64)? as usize,
                queries: parse_num("queries", defaults.queries_per_user as u64)? as usize,
                ingest_nodes: parse_num("ingest-nodes", defaults.ingest_nodes as u64)? as usize,
                fast_deadline_ms: get("fast-deadline")
                    .map(|v| {
                        v.parse::<u64>()
                            .map_err(|e| format!("--fast-deadline: {e}"))
                    })
                    .transpose()?,
                quick: flags.contains_key("quick"),
                report: get("report").map(PathBuf::from),
                metrics: get("metrics").map(PathBuf::from),
            })
        }
        "inspect" => {
            let file = positional
                .first()
                .cloned()
                .or_else(|| get("file"))
                .ok_or("inspect needs a FILE")?;
            Ok(Command::Inspect {
                file: PathBuf::from(file),
                top_spans: get("top-spans")
                    .map(|v| v.parse::<usize>().map_err(|e| format!("--top-spans: {e}")))
                    .transpose()?,
                shards: get("shards")
                    .map(|v| -> Result<u32, String> {
                        let n = v.parse::<u32>().map_err(|e| format!("--shards: {e}"))?;
                        if n == 0 {
                            return Err("--shards must be at least 1".into());
                        }
                        Ok(n)
                    })
                    .transpose()?,
            })
        }
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => match Preset::from_name(other) {
            Some(preset) => parse_soak(preset, &flags),
            None => Err(format!("unknown command {other:?}; try `skyload help`")),
        },
    }
}

/// Flags every soak preset accepts.
const SOAK_FLAGS: [&str; 10] = [
    "seed",
    "files",
    "nodes",
    "quick",
    "loader-kill",
    "loader-stall",
    "wal-rot",
    "restart-server",
    "report",
    "metrics",
];

/// Parse a soak subcommand's flags over its preset's defaults.
fn parse_soak(preset: Preset, flags: &BTreeMap<String, String>) -> Result<Command, String> {
    if let Some(bad) = flags.keys().find(|k| !SOAK_FLAGS.contains(&k.as_str())) {
        return Err(format!(
            "{} does not take --{bad}; its flags are --{}",
            preset.name(),
            SOAK_FLAGS.join(" --")
        ));
    }
    let num = |k: &str| {
        flags
            .get(k)
            .map(|v| v.parse::<u64>().map_err(|e| format!("--{k}: {e}")))
            .transpose()
    };
    let mut config = SoakConfig::new(preset);
    config.seed = num("seed")?.unwrap_or(config.seed);
    config.files = num("files")?.map_or(config.files, |n| n as usize);
    config.nodes = num("nodes")?.map_or(config.nodes, |n| n as usize);
    config.loader_kill_at = num("loader-kill")?.or(config.loader_kill_at);
    config.loader_stall_at = num("loader-stall")?;
    config.quick = flags.contains_key("quick");
    config.wal_rot = flags.contains_key("wal-rot");
    config.restart_server = flags.contains_key("restart-server");
    config.validate()?;
    Ok(Command::Soak {
        config,
        report: flags.get("report").map(PathBuf::from),
        metrics: flags.get("metrics").map(PathBuf::from),
    })
}

/// Usage text.
pub const USAGE: &str = "\
skyload — parallel bulk loading for sky-survey catalogs (SC 2005 reproduction)

USAGE:
  skyload generate --out DIR [--seed N] [--files N] [--error-rate F] [--obs-id N]
      Write a synthetic observation (catalog files + manifest.json).

  skyload load --dir DIR [--nodes N] [--config loader.json]
               [--journal J.json] [--report out.json] [--verify] [--audit]
               [--pipeline off|double] [--metrics out.jsonl]
      Load every *.cat file in DIR into a fresh repository with N
      parallel loaders. --journal enables checkpoint/resume; --verify
      checks final row counts against DIR/manifest.json; --audit runs
      the full post-load integrity audit (FKs, PK indexes, CHECKs,
      recomputed htmid/galactic columns); --pipeline double overlaps
      each loader's parse and flush stages with double buffering;
      --metrics dumps the telemetry registry (counters, gauges,
      histograms, spans) as JSONL.

  skyload inspect FILE [--top-spans N] [--shards N]
      Parse a catalog file and summarize rows per table and bad lines.
      With --shards N, also show how the rows would route across N
      declination zones (per-shard row counts; the band spans the decs
      present in the file). With --top-spans N, FILE is a --metrics
      JSONL dump instead: print the N slowest recorded spans (parse /
      flush / commit timeline).

  skyload chaos|campaign|scrub|shard-chaos [--seed N] [--files N]
                [--nodes N] [--quick] [--loader-kill N] [--loader-stall N]
                [--wal-rot] [--restart-server] [--report out.json]
                [--metrics out.jsonl]
      Soak a synthetic night under one preset's drivers and seeded
      fault plan, then check every promise the preset covers: each
      loadable row lands exactly once, no rotted row is ever served, no
      read sees a torn season, no scatter-gather read is silently
      partial. chaos: a bulk night under call faults and a
      crash-on-flush. campaign: a live night, then a shadow-swap
      campaign with a loader kill and a coordinator crash at the swap,
      under season-checking readers. scrub: a live night under bit rot
      with a background scrubber and readers, then journal-driven
      repair. shard-chaos: live ingest into --nodes declination-zone
      shards through a shard kill, a shard stall and a coordinator
      restart, under scatter-gather readers. --loader-kill N kills the
      loader holding the Nth lease grant mid-file; --loader-stall N
      freezes it into a zombie whose stale flush must be fenced out;
      --wal-rot (scrub) also rots the durable log and restarts from it;
      --restart-server (campaign) escalates the swap crash to a full
      server crash. Same seed, same fault schedule. Exits 1 unless the
      verdict is PASS. --metrics dumps the shared telemetry registry —
      whose counters the report is a view over — as JSONL.

  skyload live [--seed N] [--files N] [--nodes N] [--mean-interarrival MS]
               [--slo-budget MS] [--quick] [--report out.json]
               [--metrics out.jsonl]
      Ingest a synthetic night as continuous micro-batches: files
      arrive on a seeded Poisson schedule (mean gap
      --mean-interarrival) and each is loaded as one fenced,
      journaled micro-batch. The freshness clock measures arrival →
      committed-visible per batch into the live.freshness_us
      histogram; batches whose lag overruns --slo-budget count as SLO
      violations. Prints freshness p50/p95/p99/max and the violation
      count; exits 1 if any row was lost or a batch failed.

  skyload serve [--seed N] [--users N] [--queries N] [--ingest-nodes N]
                [--fast-deadline MS] [--quick] [--report out.json]
                [--metrics out.jsonl]
      Run a CasJobs-style serving mix — point lookups, cone searches
      via the htmid index, and batch scans — from N concurrent users
      while a loader fleet ingests a night into the same repository.
      Fast queries run synchronously under a deadline; overruns demote
      to the slow queue, whose jobs materialize results into per-user
      MyDB scratch tables under row quotas. Prints per-queue
      p50/p95/p99 latency. --ingest-nodes 0 is the serve-only
      baseline; --fast-deadline sets the demotion deadline in
      milliseconds; --metrics dumps the serve.* counters and latency
      histograms as JSONL.

  skyload help
      This message.
";

/// Execute a command, writing human output through `out`. Returns the
/// process exit code.
pub fn execute(cmd: Command, out: &mut dyn std::io::Write) -> Result<i32, String> {
    match cmd {
        Command::Help => {
            writeln!(out, "{USAGE}").map_err(|e| e.to_string())?;
            Ok(0)
        }
        Command::Generate {
            out: dir,
            seed,
            files,
            error_rate,
            obs_id,
        } => {
            std::fs::create_dir_all(&dir).map_err(|e| format!("create {dir:?}: {e}"))?;
            let cfg = GenConfig::night(seed, obs_id)
                .with_files(files)
                .with_error_rate(error_rate);
            let generated = generate_observation(&cfg);
            let mut total = ExpectedCounts::default();
            for f in &generated {
                f.write_to(&dir)
                    .map_err(|e| format!("write {}: {e}", f.name))?;
                total.merge(&f.expected);
            }
            let manifest = Manifest::from_expected(&total, obs_id);
            std::fs::write(
                dir.join("manifest.json"),
                serde_json::to_string_pretty(&manifest).expect("manifest serializes"),
            )
            .map_err(|e| format!("write manifest: {e}"))?;
            writeln!(
                out,
                "wrote {} files ({} rows, {} loadable) + manifest.json to {}",
                generated.len(),
                total.total_emitted(),
                total.total_loadable(),
                dir.display()
            )
            .map_err(|e| e.to_string())?;
            Ok(0)
        }
        Command::Soak {
            config,
            report,
            metrics,
        } => {
            let obs = Arc::new(skyobs::Registry::new());
            let soak = crate::chaos::run_soak(&config, &obs)?;
            write!(out, "{soak}").map_err(|e| e.to_string())?;
            write_telemetry_summary(out, &obs)?;
            if let Some(path) = metrics {
                std::fs::write(&path, obs.to_jsonl())
                    .map_err(|e| format!("write {path:?}: {e}"))?;
                writeln!(out, "metrics written to {}", path.display())
                    .map_err(|e| e.to_string())?;
            }
            if let Some(path) = report {
                std::fs::write(
                    &path,
                    serde_json::to_string_pretty(&soak).expect("soak report serializes"),
                )
                .map_err(|e| format!("write {path:?}: {e}"))?;
                writeln!(out, "report written to {}", path.display()).map_err(|e| e.to_string())?;
            }
            let failures = soak.failures();
            if failures.is_empty() {
                writeln!(out, "verdict: PASS").map_err(|e| e.to_string())?;
                Ok(0)
            } else {
                writeln!(out, "verdict: FAIL · {}", failures.join(" · "))
                    .map_err(|e| e.to_string())?;
                Ok(1)
            }
        }
        Command::Live {
            seed,
            files,
            nodes,
            mean_interarrival_ms,
            slo_budget_ms,
            quick,
            report,
            metrics,
        } => {
            let n_files = if quick { files.min(4) } else { files }.max(1);
            let night_files =
                generate_observation(&GenConfig::night(seed, 100).with_files(n_files));
            let expected = skycat::gen::aggregate_expected(&night_files);
            let obs = Arc::new(skyobs::Registry::new());
            let server: Arc<Server> =
                Server::start_with_obs(DbConfig::paper(TimeScale::ZERO), obs.clone());
            skycat::create_all(server.engine()).map_err(|e| e.to_string())?;
            skycat::seed_static(server.engine()).map_err(|e| e.to_string())?;
            skycat::seed_observation(server.engine(), 1, 100).map_err(|e| e.to_string())?;
            let journal = LoadJournal::new();
            let mut live_cfg = crate::live::LiveConfig::test(seed);
            live_cfg.nodes = nodes;
            live_cfg.mean_interarrival = std::time::Duration::from_millis(mean_interarrival_ms);
            live_cfg.slo_budget = std::time::Duration::from_millis(slo_budget_ms);
            let r = crate::live::run_live(&server, &night_files, &live_cfg, Some(&journal))
                .map_err(|e| e.to_string())?;
            writeln!(
                out,
                "live: seed {} · {} micro-batch(es) on {} node(s) · {} rows loaded ({} skipped) · night span {} us",
                r.seed, r.batches, nodes, r.rows_loaded, r.rows_skipped, r.night_span_us
            )
            .map_err(|e| e.to_string())?;
            writeln!(
                out,
                "freshness: n={:<5} p50={:>8} us  p95={:>8} us  p99={:>8} us  max={:>8} us",
                r.freshness.count,
                r.freshness.p50_us,
                r.freshness.p95_us,
                r.freshness.p99_us,
                r.freshness.max_us
            )
            .map_err(|e| e.to_string())?;
            writeln!(
                out,
                "slo: budget {} us · {} violation(s) · {} arrival burst(s) · {} retries",
                r.slo_budget_us, r.slo_violations, r.arrival_bursts, r.retries
            )
            .map_err(|e| e.to_string())?;
            let mut mismatches = 0;
            for (table, expect) in &expected.loadable {
                let tid = server.engine().table_id(table).map_err(|e| e.to_string())?;
                let got = server.engine().row_count(tid);
                if got != *expect {
                    writeln!(out, "MISMATCH {table}: expected {expect}, got {got}")
                        .map_err(|e| e.to_string())?;
                    mismatches += 1;
                }
            }
            write_telemetry_summary(out, &obs)?;
            if let Some(path) = metrics {
                std::fs::write(&path, obs.to_jsonl())
                    .map_err(|e| format!("write {path:?}: {e}"))?;
                writeln!(out, "metrics written to {}", path.display())
                    .map_err(|e| e.to_string())?;
            }
            if let Some(path) = report {
                std::fs::write(
                    &path,
                    serde_json::to_string_pretty(&r).expect("live report serializes"),
                )
                .map_err(|e| format!("write {path:?}: {e}"))?;
                writeln!(out, "report written to {}", path.display()).map_err(|e| e.to_string())?;
            }
            if r.failed_files > 0 {
                writeln!(out, "  {} micro-batch(es) failed to load", r.failed_files)
                    .map_err(|e| e.to_string())?;
            }
            if mismatches > 0 || r.failed_files > 0 {
                writeln!(out, "live ingest: FAIL").map_err(|e| e.to_string())?;
                return Ok(1);
            }
            writeln!(
                out,
                "live ingest: PASS · freshness SLO {}",
                if r.slo_met() { "MET" } else { "VIOLATED" }
            )
            .map_err(|e| e.to_string())?;
            Ok(0)
        }
        Command::Serve {
            seed,
            users,
            queries,
            ingest_nodes,
            fast_deadline_ms,
            quick,
            report,
            metrics,
        } => {
            let mut cfg = crate::serving::ServeLoadConfig::default()
                .with_seed(seed)
                .with_users(users)
                .with_queries_per_user(queries)
                .with_ingest_nodes(ingest_nodes)
                .with_quick(quick);
            if let Some(ms) = fast_deadline_ms {
                if ms == 0 {
                    return Err("--fast-deadline must be at least 1 ms".into());
                }
                cfg = cfg.with_fast_deadline(std::time::Duration::from_millis(ms));
            }
            let outcome = crate::serving::run_serve_load(&cfg)?;
            let r = &outcome.report;
            writeln!(
                out,
                "serve: seed {} · {} users × {} queries · {} ingest node(s) · makespan {:.2?}",
                r.seed, r.users, queries, r.ingest_nodes, r.makespan
            )
            .map_err(|e| e.to_string())?;
            writeln!(
                out,
                "fast queue: {} admitted · {} completed · {} demoted · {} rejected",
                r.fast_admitted, r.fast_completed, r.fast_demoted, r.fast_rejected
            )
            .map_err(|e| e.to_string())?;
            writeln!(
                out,
                "slow queue: {} submitted · {} completed · {} failed · {} MyDB table(s), {} row(s)",
                r.slow_submitted, r.slow_completed, r.slow_failed, r.mydb_tables, r.mydb_rows
            )
            .map_err(|e| e.to_string())?;
            let q = |label: &str, s: &crate::serving::QueueStats| {
                format!(
                    "  {label:<14} n={:<5} p50={:>8} us  p95={:>8} us  p99={:>8} us  max={:>8} us",
                    s.count, s.p50_us, s.p95_us, s.p99_us, s.max_us
                )
            };
            writeln!(out, "{}", q("fast wall", &r.fast_wall)).map_err(|e| e.to_string())?;
            writeln!(out, "{}", q("fast modeled", &r.fast_modeled)).map_err(|e| e.to_string())?;
            writeln!(out, "{}", q("slow wall", &r.slow_wall)).map_err(|e| e.to_string())?;
            writeln!(out, "{}", q("slow wait", &r.slow_wait)).map_err(|e| e.to_string())?;
            if ingest_nodes > 0 {
                writeln!(
                    out,
                    "ingest: {} row(s) loaded concurrently · complete: {}",
                    r.ingest_rows, r.ingest_complete
                )
                .map_err(|e| e.to_string())?;
            }
            write_telemetry_summary(out, outcome.server.obs())?;
            if let Some(path) = metrics {
                std::fs::write(&path, outcome.server.obs().to_jsonl())
                    .map_err(|e| format!("write {path:?}: {e}"))?;
                writeln!(out, "metrics written to {}", path.display())
                    .map_err(|e| e.to_string())?;
            }
            if let Some(path) = report {
                std::fs::write(
                    &path,
                    serde_json::to_string_pretty(r).expect("serve report serializes"),
                )
                .map_err(|e| format!("write {path:?}: {e}"))?;
                writeln!(out, "report written to {}", path.display()).map_err(|e| e.to_string())?;
            }
            if ingest_nodes > 0 && !r.ingest_complete {
                writeln!(out, "ingest: INCOMPLETE").map_err(|e| e.to_string())?;
                return Ok(1);
            }
            Ok(0)
        }
        Command::Inspect {
            file,
            top_spans,
            shards,
        } => {
            let text = std::fs::read_to_string(&file).map_err(|e| format!("read {file:?}: {e}"))?;
            if let Some(n) = top_spans {
                return inspect_top_spans(out, &file, &text, n);
            }
            let mut by_table: BTreeMap<&'static str, u64> = BTreeMap::new();
            let mut bad = 0u64;
            for line in text.lines() {
                match skycat::parse_line(line) {
                    Ok(rec) => *by_table.entry(rec.tag.table_name()).or_insert(0) += 1,
                    Err(_) => bad += 1,
                }
            }
            writeln!(out, "{}:", file.display()).map_err(|e| e.to_string())?;
            for (t, n) in &by_table {
                writeln!(out, "  {t:<24} {n:>7}").map_err(|e| e.to_string())?;
            }
            writeln!(out, "  unparseable lines: {bad}").map_err(|e| e.to_string())?;
            if let Some(zones) = shards {
                inspect_shards(out, &file, &text, zones)?;
            }
            Ok(0)
        }
        Command::Load {
            dir,
            nodes,
            config,
            journal,
            report,
            verify,
            audit,
            pipeline,
            metrics,
        } => {
            let mut loader_cfg = match config {
                Some(path) => {
                    let json = std::fs::read_to_string(&path)
                        .map_err(|e| format!("read {path:?}: {e}"))?;
                    LoaderConfig::from_json(&json).map_err(|e| format!("parse {path:?}: {e}"))?
                }
                None => LoaderConfig::paper(),
            };
            if let Some(p) = pipeline {
                loader_cfg.pipeline = p;
            }
            loader_cfg.validate()?;

            let files = read_catalog_dir(&dir)?;
            if files.is_empty() {
                return Err(format!("no *.cat files in {}", dir.display()));
            }
            let manifest: Option<Manifest> = {
                let path = dir.join("manifest.json");
                match std::fs::read_to_string(&path) {
                    Ok(json) => Some(
                        serde_json::from_str(&json).map_err(|e| format!("parse {path:?}: {e}"))?,
                    ),
                    Err(_) => None,
                }
            };
            let obs_id = manifest.as_ref().map_or(100, |m| m.obs_id);

            let server: Arc<Server> = Server::start(DbConfig::paper(TimeScale::ZERO));
            skycat::create_all(server.engine()).map_err(|e| e.to_string())?;
            skycat::seed_static(server.engine()).map_err(|e| e.to_string())?;
            skycat::seed_observation(server.engine(), 1, obs_id).map_err(|e| e.to_string())?;

            let journal_store = match &journal {
                Some(path) => Some(LoadJournal::load(path).map_err(|e| e.to_string())?),
                None => None,
            };
            let night = load_night_with_journal(
                &server,
                &files,
                &loader_cfg,
                nodes,
                AssignmentPolicy::Dynamic,
                journal_store.as_ref(),
            )
            .map_err(|e| e.to_string())?;
            if let (Some(path), Some(j)) = (&journal, &journal_store) {
                j.save(path).map_err(|e| e.to_string())?;
            }

            writeln!(
                out,
                "loaded {} rows ({} skipped) from {} files on {} nodes in {:.2?}",
                night.rows_loaded(),
                night.rows_skipped(),
                night.files.len(),
                nodes,
                night.makespan
            )
            .map_err(|e| e.to_string())?;
            // A load where *everything* was skipped is an operational error
            // (wrong file, wrong format), not a successful night.
            if night.rows_loaded() == 0 && night.rows_skipped() > 0 {
                return Err(format!(
                    "all {} rows were skipped — wrong files or a format mismatch? \
                     (re-running an already-loaded night with --journal reports 0 skipped)",
                    night.rows_skipped()
                ));
            }
            for (t, n) in night.loaded_by_table() {
                writeln!(out, "  {t:<24} {n:>7}").map_err(|e| e.to_string())?;
            }
            if night.retries > 0 || night.breaker_trips > 0 {
                writeln!(
                    out,
                    "resilience: {} retries · {} breaker trip(s) · {:.2?} degraded ({} ladder moves)",
                    night.retries,
                    night.breaker_trips,
                    night.degraded_time,
                    night.degrade_transitions.len()
                )
                .map_err(|e| e.to_string())?;
                for (kind, n) in &night.faults_survived {
                    writeln!(out, "  survived {kind:<16} {n:>6}").map_err(|e| e.to_string())?;
                }
            }
            if night.loader_kills + night.loader_stalls + night.lease_reclaims > 0 {
                writeln!(
                    out,
                    "fleet: {} loader kill(s) · {} stall(s) · {} lease reclaim(s) · {} fenced flush(es)",
                    night.loader_kills,
                    night.loader_stalls,
                    night.lease_reclaims,
                    night.fencing_rejections
                )
                .map_err(|e| e.to_string())?;
            }
            let _ = server.obs_snapshot(); // sync model.* gauges into the registry
            write_telemetry_summary(out, server.obs())?;
            if let Some(path) = &metrics {
                std::fs::write(path, server.obs().to_jsonl())
                    .map_err(|e| format!("write {path:?}: {e}"))?;
                writeln!(out, "metrics written to {}", path.display())
                    .map_err(|e| e.to_string())?;
            }
            if !night.is_complete() {
                for f in &night.failed_files {
                    writeln!(out, "  FAILED {}: {}", f.file, f.error).map_err(|e| e.to_string())?;
                }
                return Err(format!(
                    "{} file(s) failed to load; the journal (if any) holds their progress",
                    night.failed_files.len()
                ));
            }

            if let Some(path) = report {
                std::fs::write(
                    &path,
                    serde_json::to_string_pretty(&night).expect("report serializes"),
                )
                .map_err(|e| format!("write {path:?}: {e}"))?;
                writeln!(out, "report written to {}", path.display()).map_err(|e| e.to_string())?;
            }

            if verify {
                let Some(manifest) = manifest else {
                    return Err("--verify requires manifest.json in the directory".into());
                };
                let mut mismatches = 0;
                for (table, expect) in &manifest.loadable {
                    let tid = server.engine().table_id(table).map_err(|e| e.to_string())?;
                    let got = server.engine().row_count(tid);
                    if got != *expect {
                        writeln!(out, "MISMATCH {table}: expected {expect}, got {got}")
                            .map_err(|e| e.to_string())?;
                        mismatches += 1;
                    }
                }
                if mismatches > 0 {
                    return Err(format!("{mismatches} table(s) mismatched the manifest"));
                }
                writeln!(out, "verified against manifest: exact match")
                    .map_err(|e| e.to_string())?;
            }

            if audit {
                let audit_report =
                    crate::audit::audit_repository(server.engine()).map_err(|e| e.to_string())?;
                writeln!(
                    out,
                    "audit: {} rows, {} FK checks, {} CHECK evaluations, {} recomputations",
                    audit_report.rows_checked,
                    audit_report.fk_checks,
                    audit_report.check_evaluations,
                    audit_report.recomputations
                )
                .map_err(|e| e.to_string())?;
                if !audit_report.is_clean() {
                    for f in audit_report.findings.iter().take(20) {
                        writeln!(out, "  AUDIT FINDING [{}] {}", f.table, f.detail)
                            .map_err(|e| e.to_string())?;
                    }
                    return Err(format!(
                        "audit found {} problem(s)",
                        audit_report.findings.len()
                    ));
                }
                writeln!(out, "audit: repository is clean").map_err(|e| e.to_string())?;
            }
            Ok(0)
        }
    }
}

/// One-line telemetry summary: registry population and span-ring state.
fn write_telemetry_summary(
    out: &mut dyn std::io::Write,
    obs: &skyobs::Registry,
) -> Result<(), String> {
    let snap = obs.snapshot();
    writeln!(
        out,
        "telemetry: {} counters · {} gauges · {} span(s) held ({} dropped)",
        snap.counters.len(),
        snap.gauges.len(),
        obs.spans().len(),
        obs.spans_dropped()
    )
    .map_err(|e| e.to_string())
}

/// Print how a catalog file's rows would route across `zones`
/// declination zones. The band spans the declinations actually present
/// in the file so the breakdown is meaningful for any instrument
/// footprint; replicated tables (which broadcast to every shard) are
/// reported once, not per zone.
fn inspect_shards(
    out: &mut dyn std::io::Write,
    file: &Path,
    text: &str,
    zones: u32,
) -> Result<(), String> {
    use skydb::shard::ZoneMap;
    use skydb::Value;
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for line in text.lines() {
        let Ok(rec) = skycat::parse_line(line) else {
            continue;
        };
        let Ok((table, row)) = skycat::transform(&rec) else {
            continue;
        };
        if table == "objects" {
            if let Some(Value::Float(dec)) = row.get(3) {
                lo = lo.min(*dec);
                hi = hi.max(*dec);
            }
        }
    }
    let map = if lo.is_finite() && hi > lo {
        // Nudge the upper edge so the maximum dec itself stays in band.
        ZoneMap::band(zones, lo, hi + (hi - lo) * 1e-9)
    } else {
        ZoneMap::full_sky(zones)
    };
    let mut router = crate::shardload::ShardRouter::new(map);
    let routed = router.route(
        &CatalogFile {
            name: file.display().to_string(),
            text: text.to_owned(),
            expected: ExpectedCounts::default(),
        },
        None,
    );
    writeln!(out, "  routed across {zones} declination zone(s):").map_err(|e| e.to_string())?;
    for z in 0..zones {
        let (zlo, zhi) = map.bounds(z);
        let per_table = routed.zone_rows(z);
        let zoned: u64 = skycat::CATALOG_TABLES
            .iter()
            .enumerate()
            .filter(|(_, t)| crate::shardload::ZONED_TABLES.contains(t))
            .map(|(i, _)| per_table[i].len() as u64)
            .sum();
        let objects = skycat::CATALOG_TABLES
            .iter()
            .position(|t| *t == "objects")
            .map_or(0, |i| per_table[i].len() as u64);
        writeln!(
            out,
            "    zone {z} [{zlo:+9.4}, {zhi:+9.4}):  {objects:>7} objects  {zoned:>7} zoned row(s)"
        )
        .map_err(|e| e.to_string())?;
    }
    let replicated: u64 = skycat::CATALOG_TABLES
        .iter()
        .enumerate()
        .filter(|(_, t)| !crate::shardload::ZONED_TABLES.contains(t))
        .map(|(i, _)| routed.zone_rows(0)[i].len() as u64)
        .sum();
    writeln!(
        out,
        "    + {replicated} replicated row(s) broadcast to every zone"
    )
    .map_err(|e| e.to_string())?;
    Ok(())
}

/// Print the N slowest spans recorded in a `--metrics` JSONL dump.
fn inspect_top_spans(
    out: &mut dyn std::io::Write,
    file: &Path,
    text: &str,
    n: usize,
) -> Result<i32, String> {
    let mut spans: Vec<(u64, u64, String, String, String)> = Vec::new();
    for line in text.lines() {
        if !line.contains("\"type\":\"span\"") {
            continue;
        }
        let (Some(name), Some(attr), Some(outcome)) = (
            json_str_field(line, "name"),
            json_str_field(line, "attr"),
            json_str_field(line, "outcome"),
        ) else {
            continue;
        };
        let (Some(start), Some(dur)) = (
            json_u64_field(line, "start_us"),
            json_u64_field(line, "dur_us"),
        ) else {
            continue;
        };
        spans.push((dur, start, name, attr, outcome));
    }
    if spans.is_empty() {
        writeln!(out, "no spans recorded in {}", file.display()).map_err(|e| e.to_string())?;
        return Ok(0);
    }
    // Slowest first; ties resolve by start time so output is deterministic.
    spans.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    writeln!(
        out,
        "top {} span(s) by duration in {}:",
        n.min(spans.len()),
        file.display()
    )
    .map_err(|e| e.to_string())?;
    for (dur, start, name, attr, outcome) in spans.iter().take(n) {
        writeln!(
            out,
            "  {dur:>10} us  {name:<8} {attr:<28} start={start} us  [{outcome}]"
        )
        .map_err(|e| e.to_string())?;
    }
    Ok(0)
}

/// Extract a `"key":"value"` string field from one JSONL line.
fn json_str_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let rest = &line[line.find(&pat)? + pat.len()..];
    Some(rest[..rest.find('"')?].to_owned())
}

/// Extract a `"key":123` numeric field from one JSONL line.
fn json_u64_field(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat)? + pat.len()..];
    let digits: &str = &rest[..rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len())];
    digits.parse().ok()
}

/// Read every `*.cat` file in a directory, sorted by name.
fn read_catalog_dir(dir: &Path) -> Result<Vec<CatalogFile>, String> {
    let mut files = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read dir {dir:?}: {e}"))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let path = entry.path();
        if path.extension().is_some_and(|e| e == "cat") {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or("unknown.cat")
                .to_owned();
            let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path:?}: {e}"))?;
            files.push(CatalogFile {
                name,
                text,
                expected: ExpectedCounts::default(),
            });
        }
    }
    files.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("skyload-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The chaos soaks are wall-clock sensitive (lease TTLs, scrub
    /// intervals, reader threads); running several at once on a loaded
    /// machine starves their timers. Each soak-running test holds this
    /// lock so they execute one at a time.
    static SOAK_LOCK: parking_lot::Mutex<()> = parking_lot::Mutex::new(());

    #[test]
    fn parse_commands() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert_eq!(parse_args(&args("help")).unwrap(), Command::Help);
        let g = parse_args(&args(
            "generate --out /tmp/x --seed 7 --files 3 --error-rate 0.05",
        ))
        .unwrap();
        assert_eq!(
            g,
            Command::Generate {
                out: PathBuf::from("/tmp/x"),
                seed: 7,
                files: 3,
                error_rate: 0.05,
                obs_id: 100,
            }
        );
        let l = parse_args(&args("load --dir /tmp/x --nodes 3 --verify --audit")).unwrap();
        match l {
            Command::Load {
                nodes,
                verify,
                audit,
                pipeline,
                ..
            } => {
                assert_eq!(nodes, 3);
                assert!(verify);
                assert!(audit);
                assert_eq!(pipeline, None);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_args(&args("bogus")).is_err());
        assert!(parse_args(&args("generate")).is_err());
        assert!(parse_args(&args("load --dir")).is_err());
    }

    #[test]
    fn parse_pipeline_flag() {
        match parse_args(&args("load --dir /tmp/x --pipeline double")).unwrap() {
            Command::Load { pipeline, .. } => assert_eq!(pipeline, Some(PipelineMode::Double)),
            other => panic!("{other:?}"),
        }
        match parse_args(&args("load --dir /tmp/x --pipeline off")).unwrap() {
            Command::Load { pipeline, .. } => assert_eq!(pipeline, Some(PipelineMode::Off)),
            other => panic!("{other:?}"),
        }
        assert!(parse_args(&args("load --dir /tmp/x --pipeline sideways")).is_err());
    }

    #[test]
    fn generate_load_verify_roundtrip() {
        let dir = tmpdir("roundtrip");
        let mut buf = Vec::new();
        let code = execute(
            parse_args(&args(&format!(
                "generate --out {} --seed 9 --files 3 --error-rate 0.05",
                dir.display()
            )))
            .unwrap(),
            &mut buf,
        )
        .unwrap();
        assert_eq!(code, 0);
        assert!(dir.join("manifest.json").exists());
        assert_eq!(
            std::fs::read_dir(&dir)
                .unwrap()
                .filter(|e| e
                    .as_ref()
                    .unwrap()
                    .path()
                    .extension()
                    .is_some_and(|x| x == "cat"))
                .count(),
            3
        );

        let mut buf = Vec::new();
        let report_path = dir.join("report.json");
        let code = execute(
            parse_args(&args(&format!(
                "load --dir {} --nodes 2 --report {} --verify --audit",
                dir.display(),
                report_path.display()
            )))
            .unwrap(),
            &mut buf,
        )
        .unwrap();
        assert_eq!(code, 0);
        let text = String::from_utf8(buf).unwrap();
        assert!(
            text.contains("verified against manifest: exact match"),
            "{text}"
        );
        assert!(text.contains("audit: repository is clean"), "{text}");
        assert!(report_path.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pipelined_load_verifies_against_manifest() {
        let dir = tmpdir("pipelined");
        execute(
            parse_args(&args(&format!(
                "generate --out {} --seed 12 --files 2 --error-rate 0.03",
                dir.display()
            )))
            .unwrap(),
            &mut Vec::new(),
        )
        .unwrap();
        let mut buf = Vec::new();
        let code = execute(
            parse_args(&args(&format!(
                "load --dir {} --nodes 2 --pipeline double --verify",
                dir.display()
            )))
            .unwrap(),
            &mut buf,
        )
        .unwrap();
        assert_eq!(code, 0);
        let text = String::from_utf8(buf).unwrap();
        assert!(
            text.contains("verified against manifest: exact match"),
            "{text}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parse_soak_flags() {
        for preset in Preset::ALL {
            match parse_args(&args(preset.name())).unwrap() {
                Command::Soak {
                    config,
                    report,
                    metrics,
                } => {
                    assert_eq!(config, SoakConfig::new(preset));
                    assert_eq!((report, metrics), (None, None));
                }
                other => panic!("{other:?}"),
            }
        }
        let soak = |line: &str| match parse_args(&args(line)).unwrap() {
            Command::Soak { config, .. } => config,
            other => panic!("{other:?}"),
        };
        assert_eq!(
            soak("chaos --seed 3 --files 2 --nodes 2 --quick --loader-kill 1 --loader-stall 2"),
            SoakConfig {
                seed: 3,
                files: 2,
                nodes: 2,
                quick: true,
                loader_kill_at: Some(1),
                loader_stall_at: Some(2),
                ..SoakConfig::new(Preset::Chaos)
            }
        );
        let campaign = soak("campaign --seed 8 --restart-server");
        assert!(campaign.restart_server);
        assert_eq!(campaign.loader_kill_at, Some(2), "default kills a loader");
        assert!(soak("scrub --wal-rot").wal_rot);
        assert_eq!(soak("shard-chaos --nodes 2").nodes, 2);
        match parse_args(&args("chaos --quick --metrics m.jsonl --report r.json")).unwrap() {
            Command::Soak {
                report, metrics, ..
            } => {
                assert_eq!(report, Some(PathBuf::from("r.json")));
                assert_eq!(metrics, Some(PathBuf::from("m.jsonl")));
            }
            other => panic!("{other:?}"),
        }
        for bad in [
            "chaos --wal-rot",
            "scrub --restart-server",
            "shard-chaos --loader-kill 1",
            "shard-chaos --nodes 0",
            "chaos --lease-ttl 250",
            "scrub --bit-rot 0.5",
            "chaos --seed soon",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad} parsed");
        }
    }

    #[test]
    fn soak_commands_pass_and_write_reports() {
        let _soak = SOAK_LOCK.lock();
        // (command line, summary text, report JSON, metrics counters)
        type Needles = &'static [&'static str];
        let rows: [(&str, Needles, Needles, Needles); 4] = [
            (
                "chaos --seed 11 --files 3 --nodes 2 --quick",
                &["faults injected:"],
                &["\"faults_by_kind\""],
                &["retries", "breaker_trips", "fleet.reclaims"],
            ),
            (
                "shard-chaos --seed 2005 --files 3 --quick",
                &["soak shard-chaos: seed 2005"],
                &["\"per_zone_rows\""],
                &["shard.reclaims", "shard.rebuilds", "shard.gather.queries"],
            ),
            (
                "scrub --seed 71 --quick",
                &["corrupt row(s) served"],
                &["\"bad_records\"", "\"files_reloaded\""],
                &[
                    "scrub.pages",
                    "scrub.bad_records",
                    "scrub.quarantined",
                    "repair.files_reloaded",
                    "repair.rows_restored",
                ],
            ),
            (
                "campaign --seed 23 --quick",
                &["swapped: true", "swap_crash"],
                &["\"mixed_season\": 0", "\"resumes\": 1"],
                &["live.freshness_us", "campaign.swaps"],
            ),
        ];
        for (line, text_has, json_has, counters) in rows {
            let dir = tmpdir("soak");
            let (report_path, metrics_path) = (dir.join("soak.json"), dir.join("soak.jsonl"));
            let mut buf = Vec::new();
            let code = execute(
                parse_args(&args(&format!(
                    "{line} --report {} --metrics {}",
                    report_path.display(),
                    metrics_path.display()
                )))
                .unwrap(),
                &mut buf,
            )
            .unwrap();
            let text = String::from_utf8(buf).unwrap();
            assert_eq!(code, 0, "{line}: {text}");
            assert!(text.contains("verdict: PASS"), "{line}: {text}");
            for needle in text_has {
                assert!(text.contains(needle), "{line}: no {needle:?} in {text}");
            }
            let json = std::fs::read_to_string(&report_path).unwrap();
            for needle in json_has {
                assert!(json.contains(needle), "{line}: no {needle:?} in {json}");
            }
            let jsonl = std::fs::read_to_string(&metrics_path).unwrap();
            for counter in counters {
                assert!(
                    jsonl.contains(counter),
                    "{line}: missing {counter} in {jsonl}"
                );
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn inspect_shards_prints_per_zone_counts() {
        let dir = tmpdir("inspect-shards");
        execute(
            parse_args(&args(&format!(
                "generate --out {} --seed 3 --files 1",
                dir.display()
            )))
            .unwrap(),
            &mut Vec::new(),
        )
        .unwrap();
        let cat = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|x| x == "cat"))
            .unwrap();
        let mut buf = Vec::new();
        let code = execute(
            parse_args(&args(&format!("inspect {} --shards 3", cat.display()))).unwrap(),
            &mut buf,
        )
        .unwrap();
        assert_eq!(code, 0);
        let text = String::from_utf8(buf).unwrap();
        assert!(
            text.contains("routed across 3 declination zone(s):"),
            "{text}"
        );
        assert!(text.contains("zone 0 ["), "{text}");
        assert!(text.contains("zone 2 ["), "{text}");
        assert!(
            text.contains("replicated row(s) broadcast to every zone"),
            "{text}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parse_live_flags() {
        match parse_args(&args(
            "live --seed 4 --files 6 --nodes 2 --mean-interarrival 20 --slo-budget 900 --quick",
        ))
        .unwrap()
        {
            Command::Live {
                seed,
                files,
                nodes,
                mean_interarrival_ms,
                slo_budget_ms,
                quick,
                ..
            } => {
                assert_eq!((seed, files, nodes), (4, 6, 2));
                assert_eq!((mean_interarrival_ms, slo_budget_ms), (20, 900));
                assert!(quick);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_args(&args("live --slo-budget 0")).is_err());
    }

    #[test]
    fn live_command_reports_freshness_and_passes() {
        let _soak = SOAK_LOCK.lock();
        let dir = tmpdir("live");
        let report_path = dir.join("live.json");
        let metrics_path = dir.join("live.jsonl");
        let mut buf = Vec::new();
        let code = execute(
            parse_args(&args(&format!(
                "live --seed 17 --files 3 --nodes 2 --quick --report {} --metrics {}",
                report_path.display(),
                metrics_path.display()
            )))
            .unwrap(),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("freshness: n="), "{text}");
        assert!(text.contains("live ingest: PASS"), "{text}");
        let json = std::fs::read_to_string(&report_path).unwrap();
        assert!(json.contains("\"freshness\""), "{json}");
        assert!(json.contains("\"slo_violations\""), "{json}");
        let jsonl = std::fs::read_to_string(&metrics_path).unwrap();
        assert!(jsonl.contains("live.freshness_us"), "{jsonl}");
        assert!(jsonl.contains("live.batches"), "{jsonl}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parse_serve_flags() {
        match parse_args(&args(
            "serve --seed 7 --users 3 --queries 10 --ingest-nodes 0 --fast-deadline 25 --quick",
        ))
        .unwrap()
        {
            Command::Serve {
                seed,
                users,
                queries,
                ingest_nodes,
                fast_deadline_ms,
                quick,
                ..
            } => {
                assert_eq!((seed, users, queries, ingest_nodes), (7, 3, 10, 0));
                assert_eq!(fast_deadline_ms, Some(25));
                assert!(quick);
            }
            other => panic!("{other:?}"),
        }
        match parse_args(&args("serve")).unwrap() {
            Command::Serve {
                quick,
                fast_deadline_ms,
                ingest_nodes,
                ..
            } => {
                assert!(!quick);
                assert_eq!(fast_deadline_ms, None);
                assert!(ingest_nodes > 0, "default serve runs under ingest");
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_args(&args("serve --fast-deadline soon")).is_err());
    }

    #[test]
    fn serve_command_runs_quick_mix() {
        let _soak = SOAK_LOCK.lock();
        let dir = tmpdir("serve");
        let report_path = dir.join("serve.json");
        let metrics_path = dir.join("serve.jsonl");
        let mut buf = Vec::new();
        let code = execute(
            parse_args(&args(&format!(
                "serve --seed 2005 --users 2 --queries 8 --ingest-nodes 2 --quick \
                 --report {} --metrics {}",
                report_path.display(),
                metrics_path.display()
            )))
            .unwrap(),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("fast queue:"), "{text}");
        assert!(text.contains("slow queue:"), "{text}");
        assert!(text.contains("fast wall"), "{text}");
        assert!(text.contains("ingest:"), "{text}");
        let json = std::fs::read_to_string(&report_path).unwrap();
        assert!(json.contains("\"fast_modeled\""), "{json}");
        let jsonl = std::fs::read_to_string(&metrics_path).unwrap();
        assert!(jsonl.contains("serve.fast.admitted"), "{jsonl}");
        assert!(jsonl.contains("serve.fast.latency_us"), "{jsonl}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parse_metrics_and_top_spans_flags() {
        match parse_args(&args("load --dir /tmp/x --metrics m.jsonl")).unwrap() {
            Command::Load { metrics, .. } => assert_eq!(metrics, Some(PathBuf::from("m.jsonl"))),
            other => panic!("{other:?}"),
        }
        match parse_args(&args("inspect m.jsonl --top-spans 5")).unwrap() {
            Command::Inspect {
                file,
                top_spans,
                shards,
            } => {
                assert_eq!(file, PathBuf::from("m.jsonl"));
                assert_eq!(top_spans, Some(5));
                assert_eq!(shards, None);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse_args(&args("inspect m.jsonl --top-spans five")).is_err());
    }

    #[test]
    fn chaos_metrics_counters_match_report_totals() {
        let _soak = SOAK_LOCK.lock();
        // The acceptance check in miniature: the JSONL dump and the chaos
        // report are two views over one registry, so the headline counters
        // must agree exactly, line for line.
        let cfg = SoakConfig {
            seed: 11,
            files: 3,
            nodes: 2,
            quick: true,
            ..SoakConfig::new(Preset::Chaos)
        };
        let obs = Arc::new(skyobs::Registry::new());
        let soak = crate::chaos::run_soak(&cfg, &obs).unwrap();
        let i = &soak.ingest;
        let jsonl = obs.to_jsonl();
        let line = |name: &str, value: u64| {
            format!("{{\"type\":\"counter\",\"name\":\"{name}\",\"value\":{value}}}")
        };
        for (name, value) in [
            ("retries", i.retries),
            ("breaker_trips", i.breaker_trips),
            ("loader_kills", i.loader_kills),
            ("loader_stalls", i.loader_stalls),
            ("fleet.reclaims", i.lease_reclaims),
            ("fleet.fence_rejections", i.fencing_rejections),
        ] {
            assert!(
                jsonl.lines().any(|l| l == line(name, value)),
                "dump disagrees with report on {name}={value}"
            );
        }
        for (kind, n) in &soak.faults_by_kind {
            assert!(
                jsonl
                    .lines()
                    .any(|l| l == line(&format!("server.faults.{kind}"), *n)),
                "dump disagrees with report on fault kind {kind}={n}"
            );
        }
    }

    #[test]
    fn chaos_metrics_dump_feeds_top_spans() {
        let _soak = SOAK_LOCK.lock();
        let dir = tmpdir("chaos-metrics");
        let metrics_path = dir.join("metrics.jsonl");
        let mut buf = Vec::new();
        let code = execute(
            parse_args(&args(&format!(
                "chaos --seed 11 --files 2 --nodes 2 --quick --metrics {}",
                metrics_path.display()
            )))
            .unwrap(),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("telemetry:"), "{text}");
        assert!(text.contains("metrics written to"), "{text}");
        let jsonl = std::fs::read_to_string(&metrics_path).unwrap();
        for line in jsonl.lines() {
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "not a JSON object line: {line}"
            );
        }
        assert!(jsonl.contains("\"type\":\"span\""), "no spans in dump");

        let mut buf = Vec::new();
        let code = execute(
            parse_args(&args(&format!(
                "inspect {} --top-spans 3",
                metrics_path.display()
            )))
            .unwrap(),
            &mut buf,
        )
        .unwrap();
        assert_eq!(code, 0);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("top 3 span(s) by duration"), "{text}");
        assert!(text.contains("flush"), "{text}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn inspect_summarizes_tables() {
        let dir = tmpdir("inspect");
        let mut buf = Vec::new();
        execute(
            parse_args(&args(&format!(
                "generate --out {} --seed 3 --files 1",
                dir.display()
            )))
            .unwrap(),
            &mut buf,
        )
        .unwrap();
        let cat = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|x| x == "cat"))
            .unwrap();
        let mut buf = Vec::new();
        let code = execute(
            parse_args(&args(&format!("inspect {}", cat.display()))).unwrap(),
            &mut buf,
        )
        .unwrap();
        assert_eq!(code, 0);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("objects"));
        assert!(text.contains("unparseable lines: 0"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_missing_dir_errors_cleanly() {
        let mut buf = Vec::new();
        let err = execute(
            parse_args(&args("load --dir /definitely/not/here")).unwrap(),
            &mut buf,
        )
        .unwrap_err();
        assert!(err.contains("read dir"));
    }

    #[test]
    fn load_with_journal_resumes_across_invocations() {
        let dir = tmpdir("journal");
        let mut buf = Vec::new();
        execute(
            parse_args(&args(&format!(
                "generate --out {} --seed 5 --files 2",
                dir.display()
            )))
            .unwrap(),
            &mut buf,
        )
        .unwrap();
        let journal = dir.join("load.journal");
        // First full load records the journal…
        execute(
            parse_args(&args(&format!(
                "load --dir {} --nodes 1 --journal {} --verify",
                dir.display(),
                journal.display()
            )))
            .unwrap(),
            &mut Vec::new(),
        )
        .unwrap();
        assert!(journal.exists());
        // …and a second invocation (fresh repository, completed journal)
        // loads zero rows: everything is already recorded as committed.
        let mut buf = Vec::new();
        execute(
            parse_args(&args(&format!(
                "load --dir {} --nodes 1 --journal {}",
                dir.display(),
                journal.display()
            )))
            .unwrap(),
            &mut buf,
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("loaded 0 rows"), "{text}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
