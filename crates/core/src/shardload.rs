//! Sharded night loading: route catalog files into declination-zone
//! shards, flush each zone under its fencing epoch, and supervise shard
//! health with the same lease discipline the loader fleet uses.
//!
//! The paper loads one big SQL Server; PAPERS.md's zone papers
//! (Nieto-Santisteban et al.) split the catalog across databases by
//! declination so both loading and spatial queries parallelize. This
//! module is the loading half of that split, on top of
//! [`skydb::shard::ShardGroup`]:
//!
//! * [`ShardRouter`] — a deterministic, content-derived assignment of
//!   every loadable row to a zone. The first eight catalog tables
//!   (detector/frame metadata) are *replicated* to every shard so each
//!   shard's foreign keys stay self-contained; `objects` routes by the
//!   declination of the **first occurrence** of each primary key (a
//!   duplicate-PK row must land where the original landed, so the PK
//!   constraint rejects it there — same verdict a single engine gives);
//!   `fingers` and `object_flags` follow their parent object's zone.
//! * [`ShardLoader`] — flushes one routed file zone-by-zone, each zone
//!   in one transaction fenced with [`ShardGroup::write_fence`]. A flush
//!   that loses a fencing race ([`ErrorClass::Fenced`]) or a shard
//!   ([`ErrorClass::ServerLost`]) requeues the whole file; replays are
//!   idempotent because committed zones reject the replayed rows as
//!   primary-key skips. The journal records a file only after *every*
//!   zone committed.
//! * [`ShardSupervisor`] — per-zone heartbeats with a lease TTL,
//!   generalizing the loader-fleet lease machinery to shards. A crashed
//!   or stalled shard is fenced ([`ShardGroup::fence_and_take`] — the
//!   point of no return for zombie flushes), rebuilt from its durable
//!   log via [`Engine::recover_from_log_checked`] — falling back to a
//!   journal-driven reload from source files when the log is damaged —
//!   and swapped back in with [`ShardGroup::install`]. Each new epoch is
//!   persisted to the [`LoadJournal`] so a restarted coordinator can
//!   [`ShardGroup::restore_epoch`] past every epoch ever issued.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use skycat::gen::CatalogFile;
use skycat::schema::CATALOG_TABLES;
use skydb::engine::Engine;
use skydb::error::DbResult;
use skydb::shard::{ShardGroup, ZoneMap};
use skydb::{DbConfig, FaultPlan, FaultPlanConfig, Row, Server, Session, Value};

use crate::recovery::LoadJournal;
use crate::resilience::{classify, ErrorClass};

/// Catalog tables partitioned by declination zone; every other catalog
/// table is replicated to all shards so per-shard foreign keys resolve
/// locally.
pub const ZONED_TABLES: [&str; 3] = ["objects", "fingers", "object_flags"];

/// How many leading [`CATALOG_TABLES`] entries are replicated to every
/// shard (the detector/frame metadata `objects` rows point at).
const REPLICATED: usize = CATALOG_TABLES.len() - ZONED_TABLES.len();

/// The journal key a zone's fencing epoch persists under.
pub fn shard_epoch_journal_key(zone: u32) -> String {
    format!("shard/{zone}")
}

/// The journal key recording that one zone's share of a file committed.
/// A requeued file skips zones already journaled here, so a transient
/// failure in one zone never replays the others — progress is durable at
/// zone granularity, the way the single-engine loader checkpoints at
/// flush granularity.
pub fn zone_commit_journal_key(file: &str, zone: u32) -> String {
    format!("{file}#z{zone}")
}

/// One catalog file routed into per-zone, per-table row buckets.
pub struct RoutedFile {
    /// Source file name (the journal key).
    pub name: String,
    /// Total source lines (the journal checkpoint once committed).
    pub lines: u64,
    /// `rows[zone][table_index]` in [`CATALOG_TABLES`] order.
    rows: Vec<Vec<Vec<Row>>>,
}

impl RoutedFile {
    /// Rows bound for `zone`, indexed by [`CATALOG_TABLES`] position.
    pub fn zone_rows(&self, zone: u32) -> &[Vec<Row>] {
        &self.rows[zone as usize]
    }

    /// Does `zone` receive any rows from this file?
    pub fn touches_zone(&self, zone: u32) -> bool {
        self.rows[zone as usize].iter().any(|t| !t.is_empty())
    }
}

/// Deterministic, content-derived row → zone assignment.
///
/// The router is stateful: it remembers which zone owns each `object_id`
/// so child rows and duplicate primary keys follow the original across
/// files. Routing the same files in the same order always reproduces the
/// same assignment — which is how a shard rebuilt from source files and a
/// restarted coordinator agree with the original run.
pub struct ShardRouter {
    map: ZoneMap,
    zones: u32,
    owner: HashMap<i64, u32>,
    table_index: HashMap<&'static str, usize>,
}

impl ShardRouter {
    /// A fresh router over `map`.
    pub fn new(map: ZoneMap) -> ShardRouter {
        ShardRouter {
            map,
            zones: map.zones(),
            owner: HashMap::new(),
            table_index: CATALOG_TABLES
                .iter()
                .enumerate()
                .map(|(i, t)| (*t, i))
                .collect(),
        }
    }

    /// The zone that owns `object_id`, if this router has routed it.
    pub fn owner_zone(&self, object_id: i64) -> Option<u32> {
        self.owner.get(&object_id).copied()
    }

    /// Route one file: malformed lines and corrupt records are skipped
    /// (exactly as the single-engine loader skips them), replicated
    /// tables broadcast to every zone, zoned tables route by first-seen
    /// declination. Primes `group`'s pk directory when given.
    pub fn route(&mut self, file: &CatalogFile, group: Option<&ShardGroup>) -> RoutedFile {
        let mut rows: Vec<Vec<Vec<Row>>> = (0..self.zones)
            .map(|_| vec![Vec::new(); CATALOG_TABLES.len()])
            .collect();
        let mut lines = 0u64;
        for line in file.text.lines() {
            lines += 1;
            let rec = match skycat::parse_line(line) {
                Ok(rec) => rec,
                Err(_) => continue,
            };
            let (table, row) = match skycat::transform(&rec) {
                Ok(t) => t,
                Err(_) => continue,
            };
            let idx = self.table_index[table];
            if idx < REPLICATED {
                for z in 0..self.zones {
                    rows[z as usize][idx].push(row.clone());
                }
                continue;
            }
            let zone = if table == "objects" {
                let id = match row.first() {
                    Some(Value::Int(id)) => *id,
                    _ => 0,
                };
                let dec = match row.get(3) {
                    Some(Value::Float(d)) => *d,
                    _ => f64::NAN,
                };
                let map = self.map;
                let zone = *self
                    .owner
                    .entry(id)
                    .or_insert_with(|| map.zone_for_dec(dec));
                if let Some(g) = group {
                    g.note_pk_zone(id, zone);
                }
                zone
            } else {
                // fingers / object_flags carry the parent object_id at
                // column 1; an orphan (parent never routed) goes to zone
                // 0, where its foreign key fails exactly as it would on
                // a single engine.
                let id = match row.get(1) {
                    Some(Value::Int(id)) => *id,
                    _ => 0,
                };
                self.owner.get(&id).copied().unwrap_or(0)
            };
            rows[zone as usize][idx].push(row);
        }
        RoutedFile {
            name: file.name.clone(),
            lines,
            rows,
        }
    }
}

/// Knobs for the sharded loader's flush-and-requeue loop.
#[derive(Debug, Clone)]
pub struct ShardLoadConfig {
    /// Per-call session budget on flushes.
    pub call_timeout: Duration,
    /// How many times one file may requeue (fencing races, shard
    /// failovers, connection weather) before the load fails loudly.
    pub max_file_attempts: u32,
    /// Real-time pause before retrying a requeued file — long enough for
    /// the supervisor to notice a dead shard and rebuild it.
    pub retry_pause: Duration,
    /// Insert batch size per `execute_batch` call.
    pub batch_size: usize,
}

impl Default for ShardLoadConfig {
    fn default() -> Self {
        ShardLoadConfig {
            call_timeout: Duration::from_millis(50),
            max_file_attempts: 200,
            retry_pause: Duration::from_millis(5),
            batch_size: 300,
        }
    }
}

/// What one sharded load did.
#[derive(Debug, Clone, Default)]
pub struct ShardLoadReport {
    /// Files whose every zone committed (journal-recorded).
    pub files_loaded: u64,
    /// Files skipped because the journal already had them.
    pub files_resumed: u64,
    /// Rows applied across all shards (replicated rows count once per
    /// shard; primary-key skips on replay do not count).
    pub rows_applied: u64,
    /// Whole-file requeues (any retryable cause).
    pub requeues: u64,
    /// Requeues caused specifically by a fencing rejection.
    pub fenced_flushes: u64,
}

/// Routes files and flushes them into a [`ShardGroup`] under per-shard
/// fencing epochs.
pub struct ShardLoader {
    group: Arc<ShardGroup>,
    cfg: ShardLoadConfig,
    m_flushes: skyobs::CounterHandle,
    m_rows: skyobs::CounterHandle,
    m_requeues: skyobs::CounterHandle,
    m_fenced: skyobs::CounterHandle,
}

impl ShardLoader {
    /// A loader over `group`, registering `shard.*` counters in `obs`.
    pub fn new(
        group: Arc<ShardGroup>,
        cfg: ShardLoadConfig,
        obs: &skyobs::Registry,
    ) -> ShardLoader {
        ShardLoader {
            group,
            cfg,
            m_flushes: obs.counter("shard.flushes"),
            m_rows: obs.counter("shard.rows_applied"),
            m_requeues: obs.counter("shard.requeues"),
            m_fenced: obs.counter("shard.fenced_flushes"),
        }
    }

    /// Load `files` through `router`, journaling each file once all of
    /// its zones committed. Files already journal-complete are skipped;
    /// requeued replays dedup as primary-key skips in zones that already
    /// committed, so the net effect is exactly-once.
    pub fn load_files(
        &self,
        router: &mut ShardRouter,
        files: &[CatalogFile],
        journal: Option<&LoadJournal>,
    ) -> Result<ShardLoadReport, String> {
        let mut report = ShardLoadReport::default();
        // A private journal when the caller brought none: zone-level
        // progress tracking needs one either way.
        let own = LoadJournal::new();
        let journal = journal.unwrap_or(&own);
        // Route in file order first: owner assignments must be complete
        // before any flush so a requeued file re-flushes identically.
        let routed: Vec<RoutedFile> = files
            .iter()
            .map(|f| router.route(f, Some(&self.group)))
            .collect();
        let mut queue: VecDeque<(usize, u32)> = (0..routed.len()).map(|i| (i, 0)).collect();
        while let Some((i, attempts)) = queue.pop_front() {
            let file = &routed[i];
            if journal.committed_lines(&file.name) >= file.lines && file.lines > 0 {
                report.files_resumed += 1;
                continue;
            }
            match self.flush_file(file, journal) {
                Ok(applied) => {
                    report.rows_applied += applied;
                    report.files_loaded += 1;
                    journal.record(&file.name, file.lines);
                }
                Err(e) => {
                    let class = classify(&e);
                    if class == ErrorClass::Permanent {
                        return Err(format!("file {} failed permanently: {e}", file.name));
                    }
                    if attempts + 1 >= self.cfg.max_file_attempts {
                        return Err(format!(
                            "file {} exhausted {} attempts: {e}",
                            file.name, self.cfg.max_file_attempts
                        ));
                    }
                    if class == ErrorClass::Fenced {
                        report.fenced_flushes += 1;
                        self.m_fenced.inc();
                    }
                    report.requeues += 1;
                    self.m_requeues.inc();
                    queue.push_back((i, attempts + 1));
                    std::thread::sleep(self.cfg.retry_pause);
                }
            }
        }
        Ok(report)
    }

    /// Flush every zone this file touches, one fenced transaction per
    /// zone, journaling each zone as it commits. A zone failing retryably
    /// fails the file up to the requeue loop, which retries only the
    /// zones still missing; a zone replayed anyway (journal lost)
    /// tolerates it as primary-key skips.
    fn flush_file(&self, file: &RoutedFile, journal: &LoadJournal) -> DbResult<u64> {
        let mut applied = 0u64;
        for zone in 0..self.group.zones() {
            if !file.touches_zone(zone) {
                continue;
            }
            let zone_key = zone_commit_journal_key(&file.name, zone);
            if journal.committed_lines(&zone_key) >= file.lines {
                continue;
            }
            applied += self.flush_zone(zone, file.zone_rows(zone))?;
            journal.record(&zone_key, file.lines);
        }
        Ok(applied)
    }

    fn flush_zone(&self, zone: u32, tables: &[Vec<Row>]) -> DbResult<u64> {
        let server = self.group.server(zone);
        let session = server.connect();
        session.set_call_timeout(Some(self.cfg.call_timeout));
        session.set_fence(Some(self.group.write_fence(zone)));
        let outcome = self.flush_zone_inner(&session, tables);
        if outcome.is_err() {
            // The replacement generation must not inherit a half-open
            // transaction. A flaky link may refuse this rollback; dropping
            // the session below then aborts the transaction server-side.
            let _ = session.rollback();
        }
        outcome
    }

    fn flush_zone_inner(&self, session: &Session, tables: &[Vec<Row>]) -> DbResult<u64> {
        let applied = insert_zone_rows(session, tables, self.cfg.batch_size)?;
        self.m_flushes.inc();
        self.m_rows.add(applied);
        Ok(applied)
    }
}

/// Insert one zone's share of a file — each catalog table in batches of at
/// most `batch_size` rows — and commit, returning the rows applied. Same
/// contract as the single-engine bulk path: only proven-bad rows
/// (constraint/type) are skipped; any other failure aborts, leaving the
/// transaction for the caller to roll back.
fn insert_zone_rows(session: &Session, tables: &[Vec<Row>], batch_size: usize) -> DbResult<u64> {
    let mut applied = 0u64;
    for (idx, rows) in tables.iter().enumerate() {
        if rows.is_empty() {
            continue;
        }
        let stmt = session.prepare_insert(CATALOG_TABLES[idx])?;
        let mut first = 0usize;
        while first < rows.len() {
            let end = first + batch_size.min(rows.len() - first);
            let outcome = session.execute_batch(&stmt, &rows[first..end])?;
            applied += outcome.applied as u64;
            match outcome.failed {
                None => first = end,
                Some((offset, err)) if classify(&err) == ErrorClass::Permanent => {
                    first = first + offset + 1;
                }
                Some((_, err)) => return Err(err),
            }
        }
    }
    session.commit()?;
    Ok(applied)
}

/// Knobs for the shard supervisor.
#[derive(Debug, Clone)]
pub struct ShardSupervisorConfig {
    /// A shard whose heartbeat is older than this is declared dead.
    pub lease_ttl: Duration,
    /// Heartbeat pulse interval (TTL/4 is the fleet's convention).
    pub heartbeat_interval: Duration,
    /// Supervisor poll interval.
    pub tick: Duration,
    /// Database configuration for rebuilt shard engines.
    pub db_config: DbConfig,
    /// Fault plan to re-arm on a rebuilt shard (connection weather keeps
    /// blowing after a failover; a rebuilt shard is not a calm shard).
    pub fault_plan: Option<FaultPlanConfig>,
}

impl ShardSupervisorConfig {
    /// Defaults scaled for a chaos soak: short TTL, fast ticks.
    pub fn soak(db_config: DbConfig, lease_ttl: Duration) -> ShardSupervisorConfig {
        ShardSupervisorConfig {
            lease_ttl,
            heartbeat_interval: (lease_ttl / 4).max(Duration::from_millis(1)),
            tick: (lease_ttl / 8).max(Duration::from_millis(1)),
            db_config,
            fault_plan: None,
        }
    }

    /// Builder-style: re-arm rebuilt shards with this fault plan.
    pub fn with_fault_plan(mut self, plan: FaultPlanConfig) -> Self {
        self.fault_plan = Some(plan);
        self
    }
}

struct ZoneHealth {
    /// Milliseconds since supervisor start at the last heartbeat.
    heartbeat: AtomicU64,
    /// A stalled shard's heartbeat thread stops pulsing — the simulated
    /// frozen process the supervisor must detect by TTL expiry.
    stalled: AtomicBool,
}

/// Watches shard heartbeats and rebuilds dead generations, generalizing
/// the loader fleet's lease supervisor to shards.
pub struct ShardSupervisor {
    group: Arc<ShardGroup>,
    obs: Arc<skyobs::Registry>,
    cfg: ShardSupervisorConfig,
    zones: Vec<Arc<ZoneHealth>>,
    stop: Arc<AtomicBool>,
    started: Instant,
    journal: Arc<LoadJournal>,
    /// Source files for the disaster path: a shard whose durable log is
    /// unreadable is reloaded from these, taking only its zone's rows.
    source: Vec<CatalogFile>,
    handles: parking_lot::Mutex<Vec<std::thread::JoinHandle<()>>>,
    m_reclaims: skyobs::CounterHandle,
    m_rebuilds: skyobs::CounterHandle,
}

impl ShardSupervisor {
    /// Start heartbeat threads (one per zone) and the supervisor loop.
    /// `journal` persists fencing epochs; `source` feeds the
    /// rebuild-from-source disaster path.
    pub fn start(
        group: Arc<ShardGroup>,
        obs: &Arc<skyobs::Registry>,
        cfg: ShardSupervisorConfig,
        source: Vec<CatalogFile>,
        journal: Arc<LoadJournal>,
    ) -> Arc<ShardSupervisor> {
        let zones: Vec<Arc<ZoneHealth>> = (0..group.zones())
            .map(|_| {
                Arc::new(ZoneHealth {
                    heartbeat: AtomicU64::new(0),
                    stalled: AtomicBool::new(false),
                })
            })
            .collect();
        let sup = Arc::new(ShardSupervisor {
            group,
            obs: obs.clone(),
            cfg,
            zones,
            stop: Arc::new(AtomicBool::new(false)),
            started: Instant::now(),
            journal,
            source,
            handles: parking_lot::Mutex::new(Vec::new()),
            m_reclaims: obs.counter("shard.reclaims"),
            m_rebuilds: obs.counter("shard.rebuilds"),
        });
        let mut handles = Vec::new();
        for zone in 0..sup.group.zones() {
            let s = sup.clone();
            handles.push(std::thread::spawn(move || s.heartbeat_loop(zone)));
        }
        {
            let s = sup.clone();
            handles.push(std::thread::spawn(move || s.supervise_loop()));
        }
        *sup.handles.lock() = handles;
        sup
    }

    /// Freeze (or thaw) `zone`'s heartbeat — the [`skydb::fault::FaultKind::ShardStall`]
    /// hook. A reclaim clears the stall, modeling the frozen process
    /// being replaced.
    pub fn stall(&self, zone: u32, stalled: bool) {
        self.zones[zone as usize]
            .stalled
            .store(stalled, Ordering::Release);
    }

    /// Shard generations reclaimed so far.
    pub fn reclaims(&self) -> u64 {
        self.m_reclaims.get()
    }

    /// Zones whose heartbeat is currently frozen by a stall (empty once
    /// every stalled generation has been reclaimed).
    pub fn stalled_zones(&self) -> Vec<u32> {
        self.zones
            .iter()
            .enumerate()
            .filter(|(_, z)| z.stalled.load(Ordering::Acquire))
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Stop and join every supervisor thread.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        for h in self.handles.lock().drain(..) {
            let _ = h.join();
        }
    }

    fn elapsed_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    fn heartbeat_loop(&self, zone: u32) {
        let health = &self.zones[zone as usize];
        while !self.stop.load(Ordering::Acquire) {
            // A crashed shard cannot pulse; a stalled one will not.
            if !health.stalled.load(Ordering::Acquire) && !self.group.server(zone).is_crashed() {
                health.heartbeat.store(self.elapsed_ms(), Ordering::Release);
            }
            std::thread::sleep(self.cfg.heartbeat_interval);
        }
    }

    fn supervise_loop(&self) {
        let ttl = self.cfg.lease_ttl.as_millis() as u64;
        while !self.stop.load(Ordering::Acquire) {
            std::thread::sleep(self.cfg.tick);
            for zone in 0..self.group.zones() {
                let server = self.group.server(zone);
                let last = self.zones[zone as usize].heartbeat.load(Ordering::Acquire);
                let stale = self.elapsed_ms().saturating_sub(last) > ttl;
                if server.is_crashed() || stale {
                    self.reclaim(zone);
                }
            }
        }
    }

    /// Fence the zone's current generation (rejecting zombie flushes from
    /// here on), rebuild a replacement from the durable log — or from
    /// source files when the log is damaged — and swap it in.
    fn reclaim(&self, zone: u32) {
        self.m_reclaims.inc();
        let (old, epoch) = self.group.fence_and_take(zone);
        let log = old.engine().durable_log();
        let replacement = match Engine::recover_from_log_checked(
            self.cfg.db_config.clone(),
            skycat::build_schemas(),
            &log,
        ) {
            Ok((engine, false)) => Server::with_engine_and_obs(engine, self.obs.clone()),
            // A flagged or unreadable log cannot be trusted to hold
            // every committed row: fall back to re-deriving this
            // zone wholly from source files.
            Ok((_, true)) | Err(_) => match self.rebuild_from_source(zone) {
                Ok(server) => server,
                Err(e) => {
                    // Leave the zone fenced-but-dead; reads report it
                    // partial and the next tick tries again.
                    self.obs.counter("shard.rebuild_failures").inc();
                    let _ = e;
                    return;
                }
            },
        };
        if let Some(plan) = &self.cfg.fault_plan {
            replacement.set_fault_plan(Some(FaultPlan::new(plan.clone())));
        }
        self.group.install(zone, replacement);
        self.m_rebuilds.inc();
        self.journal
            .record_epoch(&shard_epoch_journal_key(zone), epoch);
        self.zones[zone as usize]
            .heartbeat
            .store(self.elapsed_ms(), Ordering::Release);
        self.stall(zone, false);
    }

    /// Disaster path: a fresh catalog shard fed this zone's rows from
    /// every journal-complete source file. Files still in flight are the
    /// loader's to replay — its journal says they never finished.
    fn rebuild_from_source(&self, zone: u32) -> Result<Arc<Server>, String> {
        let server = fresh_catalog_server(self.cfg.db_config.clone(), &self.obs)?;
        let mut router = ShardRouter::new(*self.group.map());
        for file in &self.source {
            let routed = router.route(file, None);
            // Reload what the journal says this zone already committed —
            // whole files, or this zone's share of an in-flight file
            // (whose remaining zones the loader will still deliver).
            let whole = self.journal.committed_lines(&routed.name) >= routed.lines;
            let zone_done = self
                .journal
                .committed_lines(&zone_commit_journal_key(&routed.name, zone))
                >= routed.lines;
            if !(whole || zone_done) {
                continue;
            }
            insert_zone_rows(&server.connect(), routed.zone_rows(zone), usize::MAX)
                .map_err(|e| e.to_string())?;
        }
        Ok(server)
    }
}

/// One fresh, fault-free shard server carrying the full catalog schema
/// and the static + observation seeds every shard replicates.
pub fn fresh_catalog_server(
    db_config: DbConfig,
    obs: &Arc<skyobs::Registry>,
) -> Result<Arc<Server>, String> {
    let server = Server::start_with_obs(db_config, obs.clone());
    skycat::create_all(server.engine()).map_err(|e| e.to_string())?;
    skycat::seed_static(server.engine()).map_err(|e| e.to_string())?;
    skycat::seed_observation(server.engine(), 1, 100).map_err(|e| e.to_string())?;
    Ok(server)
}

/// Per-zone ground truth for a sharded load, derived from an independent
/// single-engine reference load.
pub struct ShardReference {
    /// `per_zone[zone][table]` — expected row count of every catalog
    /// table on that shard (replicated tables carry the full count).
    pub per_zone: Vec<BTreeMap<&'static str, u64>>,
    /// Whole-catalog totals per table (what a complete scatter-gather
    /// scan must return).
    pub totals: BTreeMap<&'static str, u64>,
}

/// Load `files` into one fresh, faultless, unsharded engine — the
/// production single-engine loader, not the shard router — and derive
/// what every shard must hold: the reference a sharded chaos soak
/// verifies against with exact counts.
pub fn clean_reference(map: &ZoneMap, files: &[CatalogFile]) -> Result<ShardReference, String> {
    let obs = Arc::new(skyobs::Registry::new());
    let server = fresh_catalog_server(DbConfig::test(), &obs)?;
    let loader_cfg = crate::config::LoaderConfig::test();
    for file in files {
        let session = server.connect();
        crate::bulk::load_catalog_text(&session, &loader_cfg, &file.name, &file.text)
            .map_err(|e| format!("reference load of {}: {e}", file.name))?;
    }
    let engine = server.engine();
    let mut totals = BTreeMap::new();
    for table in CATALOG_TABLES {
        let tid = engine.table_id(table).map_err(|e| e.to_string())?;
        totals.insert(table, engine.row_count(tid));
    }
    // Zone ownership of every surviving object, by its stored dec.
    let session = server.connect();
    let objects = session
        .query_scan_named("objects", None)
        .map_err(|e| e.to_string())?;
    let mut owner: HashMap<i64, u32> = HashMap::new();
    let mut per_zone: Vec<BTreeMap<&'static str, u64>> =
        (0..map.zones()).map(|_| BTreeMap::new()).collect();
    for row in &objects.rows {
        let (id, dec) = match (row.first(), row.get(3)) {
            (Some(Value::Int(id)), Some(Value::Float(dec))) => (*id, *dec),
            _ => continue,
        };
        let zone = map.zone_for_dec(dec);
        owner.insert(id, zone);
        *per_zone[zone as usize].entry("objects").or_insert(0) += 1;
    }
    for table in ["fingers", "object_flags"] {
        let reply = session
            .query_scan_named(table, None)
            .map_err(|e| e.to_string())?;
        for row in &reply.rows {
            let id = match row.get(1) {
                Some(Value::Int(id)) => *id,
                _ => continue,
            };
            let zone = owner.get(&id).copied().unwrap_or(0);
            *per_zone[zone as usize].entry(table).or_insert(0) += 1;
        }
    }
    for zone in per_zone.iter_mut() {
        for table in CATALOG_TABLES.iter().take(REPLICATED) {
            zone.insert(table, totals[table]);
        }
        for table in ZONED_TABLES {
            zone.entry(table).or_insert(0);
        }
    }
    Ok(ShardReference { per_zone, totals })
}

#[cfg(test)]
mod tests {
    use super::*;
    use skycat::gen::{aggregate_expected, generate_observation, GenConfig};
    use skydb::shard::GatherPolicy;

    fn night(seed: u64, files: usize) -> Vec<CatalogFile> {
        let cfg = GenConfig::night(seed, 100)
            .with_files(files)
            .with_error_rate(0.05);
        generate_observation(&cfg)
    }

    fn build_group(shards: u32, obs: &Arc<skyobs::Registry>) -> Arc<ShardGroup> {
        let map = ZoneMap::band(shards, -1.2, 1.2);
        let servers = (0..shards)
            .map(|_| fresh_catalog_server(DbConfig::test(), obs).unwrap())
            .collect();
        Arc::new(ShardGroup::new(
            map,
            servers,
            &ZONED_TABLES,
            GatherPolicy::default().with_attempts(3),
            obs,
        ))
    }

    #[test]
    fn sharded_load_matches_single_engine_reference_per_zone() {
        let files = night(2005, 3);
        let obs = Arc::new(skyobs::Registry::new());
        let group = build_group(3, &obs);
        let loader = ShardLoader::new(group.clone(), ShardLoadConfig::default(), &obs);
        let mut router = ShardRouter::new(*group.map());
        let report = loader.load_files(&mut router, &files, None).unwrap();
        assert_eq!(report.files_loaded, 3);
        assert_eq!(report.requeues, 0);

        let reference = clean_reference(group.map(), &files).unwrap();
        for zone in 0..group.zones() {
            let engine_ref = group.server(zone);
            let engine = engine_ref.engine();
            for (table, expect) in &reference.per_zone[zone as usize] {
                let tid = engine.table_id(table).unwrap();
                assert_eq!(engine.row_count(tid), *expect, "zone {zone} table {table}");
            }
        }
        // Scatter-gather totals equal the single-engine totals, and the
        // generator's own ground truth agrees.
        let expected = aggregate_expected(&files);
        let res = group.scan("objects", None).unwrap();
        assert!(!res.partial);
        assert_eq!(res.rows.len() as u64, reference.totals["objects"]);
        assert_eq!(reference.totals["objects"], expected.loadable["objects"]);
    }

    #[test]
    fn replayed_files_dedup_as_pk_skips() {
        let files = night(7, 2);
        let obs = Arc::new(skyobs::Registry::new());
        let group = build_group(2, &obs);
        let loader = ShardLoader::new(group.clone(), ShardLoadConfig::default(), &obs);
        let journal = LoadJournal::new();
        let mut router = ShardRouter::new(*group.map());
        loader
            .load_files(&mut router, &files, Some(&journal))
            .unwrap();
        // A full replay with a fresh journal replays every file; every
        // loadable row must dedup, leaving counts unchanged.
        let before: Vec<u64> = (0..group.zones())
            .map(|z| {
                let s = group.server(z);
                let tid = s.engine().table_id("objects").unwrap();
                s.engine().row_count(tid)
            })
            .collect();
        let mut router2 = ShardRouter::new(*group.map());
        loader.load_files(&mut router2, &files, None).unwrap();
        let after: Vec<u64> = (0..group.zones())
            .map(|z| {
                let s = group.server(z);
                let tid = s.engine().table_id("objects").unwrap();
                s.engine().row_count(tid)
            })
            .collect();
        assert_eq!(before, after, "replays must be idempotent");
        // And a journal-aware pass skips everything outright.
        let mut router3 = ShardRouter::new(*group.map());
        let resumed = loader
            .load_files(&mut router3, &files, Some(&journal))
            .unwrap();
        assert_eq!(resumed.files_resumed, 2);
        assert_eq!(resumed.files_loaded, 0);
    }

    #[test]
    fn supervisor_rebuilds_a_crashed_shard_from_its_log() {
        let files = night(11, 2);
        let obs = Arc::new(skyobs::Registry::new());
        let group = build_group(2, &obs);
        let loader = ShardLoader::new(group.clone(), ShardLoadConfig::default(), &obs);
        let journal = Arc::new(LoadJournal::new());
        let mut router = ShardRouter::new(*group.map());
        loader
            .load_files(&mut router, &files, Some(&journal))
            .unwrap();
        let sup = ShardSupervisor::start(
            group.clone(),
            &obs,
            ShardSupervisorConfig::soak(DbConfig::test(), Duration::from_millis(40)),
            files.clone(),
            journal.clone(),
        );
        let victim = 1u32;
        let victim_server = group.server(victim);
        let tid = victim_server.engine().table_id("objects").unwrap();
        let rows_before = victim_server.engine().row_count(tid);
        victim_server.crash();
        let deadline = Instant::now() + Duration::from_secs(5);
        while group.server(victim).is_crashed() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        sup.shutdown();
        let rebuilt = group.server(victim);
        assert!(!rebuilt.is_crashed(), "supervisor never rebuilt the shard");
        let tid = rebuilt.engine().table_id("objects").unwrap();
        assert_eq!(
            rebuilt.engine().row_count(tid),
            rows_before,
            "log recovery must restore every committed row"
        );
        assert!(sup.reclaims() >= 1);
        assert!(
            group.epoch(victim) >= 1,
            "the dead generation was never fenced"
        );
        assert_eq!(
            journal.epoch_for(&shard_epoch_journal_key(victim)),
            group.epoch(victim),
            "epochs must persist for coordinator restarts"
        );
    }

    #[test]
    fn fenced_flush_requeues_and_lands_exactly_once() {
        let files = night(13, 1);
        let obs = Arc::new(skyobs::Registry::new());
        let group = build_group(2, &obs);
        // Raise zone 0's fence floor on the server *behind the group's
        // back*: the loader's write_fence (epoch 0) is now stale, so its
        // first flush classifies Fenced and requeues. Once that rejection
        // is counted, the coordinator "learns" the newer epoch — exactly
        // what restore_epoch does after a restart — and the retried flush
        // lands under the refreshed fence.
        group
            .server(0)
            .advance_fence(skydb::shard::shard_fence_key(0), 1);
        let g2 = group.clone();
        let fenced = obs.counter("shard.fenced_flushes");
        let heal = std::thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(10);
            while fenced.get() < 1 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            g2.restore_epoch(0, 1);
        });
        let loader = ShardLoader::new(group.clone(), ShardLoadConfig::default(), &obs);
        let mut router = ShardRouter::new(*group.map());
        let report = loader.load_files(&mut router, &files, None).unwrap();
        heal.join().unwrap();
        assert_eq!(report.files_loaded, 1);
        assert!(
            report.fenced_flushes >= 1,
            "the stale fence was never rejected"
        );
        let reference = clean_reference(group.map(), &files).unwrap();
        let res = group.scan("objects", None).unwrap();
        assert!(!res.partial);
        assert_eq!(res.rows.len() as u64, reference.totals["objects"]);
    }
}
