//! CasJobs-style multi-user query serving tier.
//!
//! PAPERS.md's "Batch is back: CasJobs, serving multi-TB data on the Web"
//! (O'Mullane, Li, Nieto-Santisteban, Szalay, Thakar, Gray) describes the
//! architecture this module reproduces on top of [`Server`]:
//!
//! * a **fast queue**: short-deadline queries executed synchronously under
//!   a bounded slot pool, so interactive users get sub-second answers even
//!   while the nightly bulk load is flushing;
//! * a **slow/batch queue**: explicitly submitted (or demoted) jobs with
//!   states submitted → running → done, executed by worker threads, their
//!   results **materialized into per-user MyDB scratch tables** the user
//!   can query later;
//! * **deadline-based demotion**: a fast query whose *modeled* latency
//!   overruns the fast deadline is killed and resubmitted to the slow
//!   queue ([`FastOutcome::Demoted`]), exactly CasJobs' "your query was
//!   moved to the long queue" behavior;
//! * **per-user quotas**: concurrent fast queries, open slow jobs, and
//!   total MyDB rows are all bounded per user.
//!
//! Admission decisions run on *modeled* latency, so they are deterministic
//! at `TimeScale::ZERO` and the same seeds produce the same demotions in
//! CI as on a laptop.
//!
//! Every decision is observable through `serve.*` counters and histograms
//! in the server's [`skyobs::Registry`]: `serve.fast.{admitted, rejected,
//! completed, demoted}`, `serve.slow.{submitted, completed, failed}`,
//! `serve.mydb.{rows, tables}`, and latency histograms
//! `serve.fast.latency_us` / `serve.fast.modeled_us` /
//! `serve.slow.latency_us` / `serve.slow.queue_wait_us`.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use skyhtm::{cone_key_ranges_at, separation_deg, Cone, CATALOG_DEPTH};
use skysim::cpu::Semaphore;

use crate::error::{DbError, DbResult};
use crate::expr::Expr;
use crate::schema::TableSchema;
use crate::server::{QueryReply, Server, Session};
use crate::shard::{GatherResult, ShardGroup};
use crate::value::{Row, Value};

/// Serving-tier configuration: queue shapes, deadlines, and quotas.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Modeled-latency deadline for the fast queue: a fast query whose
    /// end-to-end modeled latency exceeds this is demoted to the slow
    /// queue.
    pub fast_deadline: Duration,
    /// Concurrent fast-query executions (the fast queue's slot pool).
    pub fast_slots: usize,
    /// Background workers draining the slow queue.
    pub slow_workers: usize,
    /// Per-user cap on *concurrent* fast queries.
    pub fast_per_user: usize,
    /// Per-user cap on open (submitted or running) slow jobs.
    pub slow_per_user: usize,
    /// Per-user cap on total rows materialized into MyDB scratch tables.
    pub mydb_row_quota: u64,
    /// Depth the catalog's `htmid` column is computed at; cover ranges
    /// are expressed here so they select stored ids.
    pub htm_depth: u8,
    /// Depth the cone cover subdivides to. Shallower than
    /// [`ServeConfig::htm_depth`]: each coarse trixel widens to its
    /// deep id range, so a cone costs tens of range scans, not tens of
    /// thousands (the cover stays a superset; candidates are re-filtered
    /// by true angular distance).
    pub cover_depth: u8,
    /// Table cone searches run against.
    pub cone_table: String,
    /// The `htmid` secondary index on [`ServeConfig::cone_table`].
    pub cone_index: String,
    /// Right-ascension column name in the cone table (degrees).
    pub ra_column: String,
    /// Declination column name in the cone table (degrees).
    pub dec_column: String,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            fast_deadline: Duration::from_millis(500),
            fast_slots: 8,
            slow_workers: 2,
            fast_per_user: 2,
            slow_per_user: 8,
            mydb_row_quota: 500_000,
            htm_depth: CATALOG_DEPTH,
            cover_depth: 8,
            cone_table: "objects".into(),
            cone_index: "idx_objects_htmid".into(),
            ra_column: "ra".into(),
            dec_column: "dec".into(),
        }
    }
}

impl ServeConfig {
    /// Builder-style: set the fast-queue deadline.
    pub fn with_fast_deadline(mut self, d: Duration) -> Self {
        self.fast_deadline = d;
        self
    }

    /// Builder-style: set the slow worker count.
    pub fn with_slow_workers(mut self, n: usize) -> Self {
        self.slow_workers = n;
        self
    }

    /// Builder-style: set the per-user MyDB row quota.
    pub fn with_mydb_row_quota(mut self, rows: u64) -> Self {
        self.mydb_row_quota = rows;
        self
    }

    /// Builder-style: set the per-user concurrent fast-query cap.
    pub fn with_fast_per_user(mut self, n: usize) -> Self {
        self.fast_per_user = n;
        self
    }

    /// Builder-style: set the per-user open slow-job cap.
    pub fn with_slow_per_user(mut self, n: usize) -> Self {
        self.slow_per_user = n;
        self
    }
}

/// A user query, expressible on either queue.
#[derive(Debug, Clone)]
pub enum Query {
    /// Scan `table` with an optional pushed-down filter.
    Scan {
        /// Table name.
        table: String,
        /// Optional filter evaluated server-side.
        filter: Option<Expr>,
    },
    /// Primary-key point lookup.
    PkLookup {
        /// Table name.
        table: String,
        /// Primary-key values in key-column order.
        key: Row,
    },
    /// Cone search: all rows of the configured cone table within
    /// `radius_arcmin` of (ra, dec), routed through `skyhtm` trixel
    /// covers and re-filtered by true angular distance.
    Cone {
        /// Right ascension of the cone center, degrees.
        ra_deg: f64,
        /// Declination of the cone center, degrees.
        dec_deg: f64,
        /// Cone radius, arcminutes.
        radius_arcmin: f64,
    },
}

/// A completed fast-queue execution.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Result rows.
    pub rows: Vec<Row>,
    /// End-to-end modeled latency (round trips + server CPU service).
    pub modeled: Duration,
    /// Wall-clock execution time observed by the serving tier.
    pub wall: Duration,
    /// `true` when the answer is *degraded*: one or more covering shards
    /// never answered and the group's gather policy opted into partial
    /// reads. A single-server backend always reports `false`. The
    /// contract: an answer is either shard-complete or explicitly
    /// partial — never silently truncated.
    pub partial: bool,
    /// The zones missing from a partial answer (empty when complete).
    pub missing_zones: Vec<u32>,
}

/// Outcome of a fast-queue query.
#[derive(Debug, Clone)]
pub enum FastOutcome {
    /// Completed within the fast deadline.
    Done(QueryResult),
    /// Overran the deadline; resubmitted to the slow queue as this job
    /// (CasJobs' "moved to the long queue").
    Demoted(JobId),
}

/// Identifier of a slow-queue job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "j{}", self.0)
    }
}

/// Lifecycle of a slow-queue job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Queued, not yet picked up by a worker.
    Submitted,
    /// A worker is executing it.
    Running,
    /// Finished; results live in the job's MyDB table.
    Done,
    /// Failed (database error or quota breach); the message says why.
    Failed(String),
}

/// Serving-tier errors (admission and job lookup).
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// An admission-control rejection (per-user quota).
    QuotaExceeded(String),
    /// Unknown job id.
    NoSuchJob(JobId),
    /// The underlying database failed the query.
    Db(DbError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QuotaExceeded(m) => write!(f, "quota exceeded: {m}"),
            ServeError::NoSuchJob(id) => write!(f, "no such job {id}"),
            ServeError::Db(e) => write!(f, "database error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<DbError> for ServeError {
    fn from(e: DbError) -> Self {
        ServeError::Db(e)
    }
}

#[derive(Debug)]
struct Job {
    user: String,
    query: Query,
    state: JobState,
    /// MyDB table holding the results once `Done`.
    result_table: Option<String>,
    /// Rows materialized (once `Done`).
    result_rows: u64,
    submitted_at: Instant,
}

#[derive(Debug, Default)]
struct UserUsage {
    fast_inflight: usize,
    slow_open: usize,
    mydb_rows: u64,
}

#[derive(Debug, Default)]
struct ServeState {
    queue: VecDeque<JobId>,
    jobs: HashMap<JobId, Job>,
    users: HashMap<String, UserUsage>,
}

/// What the serving tier executes queries against: one engine, or a
/// declination-sharded group routed through scatter-gather.
enum Backend {
    /// A single server owns every table.
    Single(Arc<Server>),
    /// A [`ShardGroup`]: zoned tables fan out, replicated tables pick a
    /// live zone, cones fan to covering zones only. MyDB scratch tables
    /// are materialized on the *home* shard (zone 0's current server).
    Sharded(Arc<ShardGroup>),
}

impl Backend {
    /// The server MyDB scratch tables (and catalog introspection for
    /// result schemas) live on. Resolved per call, so a failed-over home
    /// shard picks up its rebuilt replacement.
    fn home(&self) -> Arc<Server> {
        match self {
            Backend::Single(s) => s.clone(),
            Backend::Sharded(g) => g.server(0),
        }
    }
}

struct ServeInner {
    backend: Backend,
    cfg: ServeConfig,
    fast_slots: Semaphore,
    state: Mutex<ServeState>,
    /// Wakes slow workers when a job is queued (or shutdown begins).
    job_ready: Condvar,
    /// Wakes `wait_job` / `drain` callers when a job finishes.
    job_done: Condvar,
    shutdown: AtomicBool,
    next_job: AtomicU64,
    m_fast_admitted: skyobs::CounterHandle,
    m_fast_rejected: skyobs::CounterHandle,
    m_fast_completed: skyobs::CounterHandle,
    m_fast_demoted: skyobs::CounterHandle,
    m_slow_submitted: skyobs::CounterHandle,
    m_slow_completed: skyobs::CounterHandle,
    m_slow_failed: skyobs::CounterHandle,
    m_mydb_rows: skyobs::CounterHandle,
    m_mydb_tables: skyobs::CounterHandle,
    h_fast_latency: skyobs::HistogramHandle,
    h_fast_modeled: skyobs::HistogramHandle,
    h_slow_latency: skyobs::HistogramHandle,
    h_slow_queue_wait: skyobs::HistogramHandle,
}

/// The serving front end: owns the queues, quotas, and slow workers.
///
/// Dropping the service shuts the workers down (queued jobs that have not
/// started are abandoned); call [`QueryService::drain`] first to let the
/// queue empty.
pub struct QueryService {
    inner: Arc<ServeInner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl QueryService {
    /// Start the serving tier on `server` with `cfg`. Metrics register in
    /// the server's observability registry under `serve.*`.
    pub fn start(server: Arc<Server>, cfg: ServeConfig) -> QueryService {
        let obs = server.obs().clone();
        Self::start_backend(Backend::Single(server), cfg, &obs)
    }

    /// Start the serving tier over a declination-sharded group. Zoned
    /// scans and cones scatter-gather across covering shards under the
    /// group's [`crate::shard::GatherPolicy`]; point lookups route by id;
    /// MyDB scratch tables land on the home shard (zone 0). Metrics
    /// register in `obs` under `serve.*`.
    pub fn start_sharded(
        group: Arc<ShardGroup>,
        cfg: ServeConfig,
        obs: &skyobs::Registry,
    ) -> QueryService {
        Self::start_backend(Backend::Sharded(group), cfg, obs)
    }

    fn start_backend(backend: Backend, cfg: ServeConfig, obs: &skyobs::Registry) -> QueryService {
        assert!(cfg.fast_slots > 0, "fast queue needs at least one slot");
        let inner = Arc::new(ServeInner {
            fast_slots: Semaphore::new(cfg.fast_slots),
            state: Mutex::new(ServeState::default()),
            job_ready: Condvar::new(),
            job_done: Condvar::new(),
            shutdown: AtomicBool::new(false),
            next_job: AtomicU64::new(1),
            m_fast_admitted: obs.counter("serve.fast.admitted"),
            m_fast_rejected: obs.counter("serve.fast.rejected"),
            m_fast_completed: obs.counter("serve.fast.completed"),
            m_fast_demoted: obs.counter("serve.fast.demoted"),
            m_slow_submitted: obs.counter("serve.slow.submitted"),
            m_slow_completed: obs.counter("serve.slow.completed"),
            m_slow_failed: obs.counter("serve.slow.failed"),
            m_mydb_rows: obs.counter("serve.mydb.rows"),
            m_mydb_tables: obs.counter("serve.mydb.tables"),
            h_fast_latency: obs.histogram("serve.fast.latency_us"),
            h_fast_modeled: obs.histogram("serve.fast.modeled_us"),
            h_slow_latency: obs.histogram("serve.slow.latency_us"),
            h_slow_queue_wait: obs.histogram("serve.slow.queue_wait_us"),
            backend,
            cfg,
        });
        let workers = (0..inner.cfg.slow_workers.max(1))
            .map(|i| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("serve-slow-{i}"))
                    .spawn(move || slow_worker(&inner))
                    .expect("spawn slow worker")
            })
            .collect();
        QueryService {
            inner,
            workers: Mutex::new(workers),
        }
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.inner.cfg
    }

    /// Execute `query` on the fast queue for `user`.
    ///
    /// Admission can reject ([`ServeError::QuotaExceeded`]) when the user
    /// is already at their concurrent-fast cap. An admitted query runs
    /// synchronously under a fast slot; if its modeled latency overruns
    /// the fast deadline it is demoted: the result is discarded and the
    /// query is resubmitted to the slow queue on the user's behalf.
    pub fn fast_query(&self, user: &str, query: Query) -> Result<FastOutcome, ServeError> {
        let inner = &*self.inner;
        {
            let mut st = inner.state.lock();
            let usage = st.users.entry(user.to_owned()).or_default();
            if usage.fast_inflight >= inner.cfg.fast_per_user {
                drop(st);
                inner.m_fast_rejected.inc();
                return Err(ServeError::QuotaExceeded(format!(
                    "user {user} already has {} fast queries in flight",
                    inner.cfg.fast_per_user
                )));
            }
            usage.fast_inflight += 1;
        }
        inner.m_fast_admitted.inc();

        let result = {
            // Short synchronous queue: block for a slot, run, release.
            let _slot = inner.fast_slots.acquire_guard();
            let wall_start = Instant::now();
            let r = run_backend(&inner.backend, &inner.cfg, &query);
            let wall = wall_start.elapsed();
            r.map(|g| QueryResult {
                rows: g.rows,
                modeled: g.modeled,
                wall,
                partial: g.partial,
                missing_zones: g.missing_zones,
            })
        };

        {
            let mut st = inner.state.lock();
            if let Some(usage) = st.users.get_mut(user) {
                usage.fast_inflight -= 1;
            }
        }

        let result = result.map_err(ServeError::Db)?;
        inner.h_fast_latency.record(result.wall.as_micros() as u64);
        inner
            .h_fast_modeled
            .record(result.modeled.as_micros() as u64);

        if result.modeled > inner.cfg.fast_deadline {
            // CasJobs-style demotion: the interactive answer is withheld
            // and the query reruns as a batch job whose results land in
            // the user's MyDB. A user already at their slow-job quota
            // gets the rejection instead — counted as such, so
            // admitted = completed + demoted + rejected-at-demotion.
            match self.enqueue(user, query) {
                Ok(job) => {
                    inner.m_fast_demoted.inc();
                    return Ok(FastOutcome::Demoted(job));
                }
                Err(e) => {
                    inner.m_fast_rejected.inc();
                    return Err(e);
                }
            }
        }
        inner.m_fast_completed.inc();
        Ok(FastOutcome::Done(result))
    }

    /// Submit `query` to the slow/batch queue for `user`. Returns the job
    /// id; poll with [`QueryService::job_state`] or block with
    /// [`QueryService::wait_job`].
    pub fn submit_slow(&self, user: &str, query: Query) -> Result<JobId, ServeError> {
        self.enqueue(user, query)
    }

    fn enqueue(&self, user: &str, query: Query) -> Result<JobId, ServeError> {
        let inner = &*self.inner;
        let id = JobId(inner.next_job.fetch_add(1, Ordering::Relaxed));
        {
            let mut st = inner.state.lock();
            let usage = st.users.entry(user.to_owned()).or_default();
            if usage.slow_open >= inner.cfg.slow_per_user {
                return Err(ServeError::QuotaExceeded(format!(
                    "user {user} already has {} open slow jobs",
                    inner.cfg.slow_per_user
                )));
            }
            usage.slow_open += 1;
            st.jobs.insert(
                id,
                Job {
                    user: user.to_owned(),
                    query,
                    state: JobState::Submitted,
                    result_table: None,
                    result_rows: 0,
                    submitted_at: Instant::now(),
                },
            );
            st.queue.push_back(id);
        }
        inner.m_slow_submitted.inc();
        inner.job_ready.notify_one();
        Ok(id)
    }

    /// Current state of a job.
    pub fn job_state(&self, job: JobId) -> Option<JobState> {
        self.inner
            .state
            .lock()
            .jobs
            .get(&job)
            .map(|j| j.state.clone())
    }

    /// The MyDB scratch table holding a finished job's results.
    pub fn job_result_table(&self, job: JobId) -> Option<String> {
        self.inner
            .state
            .lock()
            .jobs
            .get(&job)
            .and_then(|j| j.result_table.clone())
    }

    /// Block until `job` reaches a terminal state (`Done` / `Failed`).
    pub fn wait_job(&self, job: JobId) -> Result<JobState, ServeError> {
        let inner = &*self.inner;
        let mut st = inner.state.lock();
        loop {
            match st.jobs.get(&job) {
                None => return Err(ServeError::NoSuchJob(job)),
                Some(j) if matches!(j.state, JobState::Done | JobState::Failed(_)) => {
                    return Ok(j.state.clone());
                }
                Some(_) => inner.job_done.wait(&mut st),
            }
        }
    }

    /// Block until every queued job has reached a terminal state.
    pub fn drain(&self) {
        let inner = &*self.inner;
        let mut st = inner.state.lock();
        while !st.queue.is_empty()
            || st
                .jobs
                .values()
                .any(|j| matches!(j.state, JobState::Submitted | JobState::Running))
        {
            inner.job_done.wait(&mut st);
        }
    }

    /// Rows currently charged against a user's MyDB quota.
    pub fn mydb_rows(&self, user: &str) -> u64 {
        self.inner
            .state
            .lock()
            .users
            .get(user)
            .map_or(0, |u| u.mydb_rows)
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        // Wake every worker so they observe the flag.
        {
            let _st = self.inner.state.lock();
            self.inner.job_ready.notify_all();
        }
        for h in self.workers.lock().drain(..) {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for QueryService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.inner.state.lock();
        f.debug_struct("QueryService")
            .field("queued", &st.queue.len())
            .field("jobs", &st.jobs.len())
            .finish_non_exhaustive()
    }
}

/// Execute one query over a session, returning rows + total modeled
/// latency. Cone searches fan out into one `index_range` per cover range
/// and re-filter candidates by true angular distance.
fn run_query(
    session: &Session,
    cfg: &ServeConfig,
    query: &Query,
) -> DbResult<(Vec<Row>, Duration)> {
    match query {
        Query::Scan { table, filter } => {
            // Season-atomic: resolve-and-scan in one catalog critical
            // section, so a concurrent campaign swap can't slip between
            // the name lookup and the heap read.
            let QueryReply { rows, modeled } = session.query_scan_named(table, filter.clone())?;
            Ok((rows, modeled))
        }
        Query::PkLookup { table, key } => {
            let QueryReply { rows, modeled } = session.query_pk(table, key.clone())?;
            Ok((rows, modeled))
        }
        Query::Cone {
            ra_deg,
            dec_deg,
            radius_arcmin,
        } => {
            let engine = session.server().engine();
            let tid = engine.table_id(&cfg.cone_table)?;
            let schema = engine.schema(tid);
            let ra_col =
                schema
                    .column_index(&cfg.ra_column)
                    .ok_or_else(|| DbError::NoSuchColumn {
                        table: cfg.cone_table.clone(),
                        column: cfg.ra_column.clone(),
                    })?;
            let dec_col =
                schema
                    .column_index(&cfg.dec_column)
                    .ok_or_else(|| DbError::NoSuchColumn {
                        table: cfg.cone_table.clone(),
                        column: cfg.dec_column.clone(),
                    })?;
            let cone = Cone::from_radec_arcmin(*ra_deg, *dec_deg, *radius_arcmin);
            let mut rows = Vec::new();
            let mut modeled = Duration::ZERO;
            for (lo, hi) in cone_key_ranges_at(&cone, cfg.cover_depth, cfg.htm_depth) {
                let reply = session.query_index_range(
                    &cfg.cone_table,
                    &cfg.cone_index,
                    vec![Value::Int(lo)],
                    vec![Value::Int(hi)],
                )?;
                modeled += reply.modeled;
                for row in reply.rows {
                    let (Some(Value::Float(ora)), Some(Value::Float(odec))) =
                        (row.get(ra_col), row.get(dec_col))
                    else {
                        continue;
                    };
                    if separation_deg(*ra_deg, *dec_deg, *ora, *odec) * 60.0 <= *radius_arcmin {
                        rows.push(row);
                    }
                }
            }
            Ok((rows, modeled))
        }
    }
}

/// Execute one query against the backend. A single server runs it on one
/// session; a shard group routes it — zoned scans fan to every zone,
/// point lookups route by id, cones fan to the zones whose declination
/// band intersects the cone — and applies the group's gather policy
/// (per-shard budgets, retries, and the explicit partial-result flag).
fn run_backend(backend: &Backend, cfg: &ServeConfig, query: &Query) -> DbResult<GatherResult> {
    match backend {
        Backend::Single(server) => {
            let session = server.connect();
            let (rows, modeled) = run_query(&session, cfg, query)?;
            Ok(GatherResult {
                rows,
                modeled,
                partial: false,
                missing_zones: Vec::new(),
            })
        }
        Backend::Sharded(group) => match query {
            Query::Scan { table, filter } => group.scan(table, filter.clone()),
            Query::PkLookup { table, key } => group.pk_lookup(table, key.clone()),
            Query::Cone {
                dec_deg,
                radius_arcmin,
                ..
            } => {
                // Only the zones whose declination band intersects the
                // cone are asked — the zone map is the pruning index.
                let r_deg = radius_arcmin / 60.0;
                let zones = if group.is_zoned(&cfg.cone_table) {
                    group.map().covering_zones(dec_deg - r_deg, dec_deg + r_deg)
                } else {
                    vec![0]
                };
                group.gather(&zones, |session, _| run_query(session, cfg, query))
            }
        },
    }
}

/// The source table a query's result schema derives from.
fn source_table<'a>(cfg: &'a ServeConfig, query: &'a Query) -> &'a str {
    match query {
        Query::Scan { table, .. } | Query::PkLookup { table, .. } => table,
        Query::Cone { .. } => &cfg.cone_table,
    }
}

/// MyDB scratch-table name for a user's job. User names are sanitized so
/// arbitrary strings cannot mangle the catalog namespace.
fn mydb_table_name(user: &str, job: JobId) -> String {
    let safe: String = user
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    format!("mydb_{safe}_{job}")
}

fn slow_worker(inner: &ServeInner) {
    loop {
        let (id, job_user, query, submitted_at) = {
            let mut st = inner.state.lock();
            loop {
                if inner.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if let Some(id) = st.queue.pop_front() {
                    let job = st.jobs.get_mut(&id).expect("queued job exists");
                    job.state = JobState::Running;
                    break (id, job.user.clone(), job.query.clone(), job.submitted_at);
                }
                inner.job_ready.wait(&mut st);
            }
        };
        inner
            .h_slow_queue_wait
            .record(submitted_at.elapsed().as_micros() as u64);

        let run_start = Instant::now();
        let outcome = execute_slow_job(inner, id, &job_user, &query);
        inner
            .h_slow_latency
            .record(run_start.elapsed().as_micros() as u64);

        let mut st = inner.state.lock();
        if let Some(u) = st.users.get_mut(&job_user) {
            u.slow_open -= 1;
        }
        let job = st.jobs.get_mut(&id).expect("running job exists");
        match outcome {
            Ok((table, rows)) => {
                job.state = JobState::Done;
                job.result_table = Some(table);
                job.result_rows = rows;
                if let Some(u) = st.users.get_mut(&job_user) {
                    u.mydb_rows += rows;
                }
                inner.m_slow_completed.inc();
            }
            Err(e) => {
                job.state = JobState::Failed(e.to_string());
                inner.m_slow_failed.inc();
            }
        }
        drop(st);
        inner.job_done.notify_all();
    }
}

/// Run a slow job end-to-end: execute the query, enforce the MyDB quota,
/// create the scratch table, and materialize the rows.
fn execute_slow_job(
    inner: &ServeInner,
    id: JobId,
    user: &str,
    query: &Query,
) -> Result<(String, u64), ServeError> {
    let result = run_backend(&inner.backend, &inner.cfg, query).map_err(ServeError::Db)?;
    if result.partial {
        // A batch job materializes results the user queries later, long
        // after the degraded window is forgotten — so a partial answer
        // fails loudly instead of being silently enshrined in MyDB.
        return Err(ServeError::Db(DbError::ServerDown(format!(
            "partial result: zones {:?} unavailable during execution",
            result.missing_zones
        ))));
    }
    let rows = result.rows;

    let n = rows.len() as u64;
    {
        let st = inner.state.lock();
        let used = st.users.get(user).map_or(0, |u| u.mydb_rows);
        if used + n > inner.cfg.mydb_row_quota {
            return Err(ServeError::QuotaExceeded(format!(
                "materializing {n} rows would exceed user {user}'s MyDB quota \
                 ({used}/{} used)",
                inner.cfg.mydb_row_quota
            )));
        }
    }

    // Scratch table: same columns and primary key as the source, no FKs,
    // checks, or uniques — MyDB holds result sets, not curated catalog.
    let home = inner.backend.home();
    let engine = home.engine();
    let src_id = engine
        .table_id(source_table(&inner.cfg, query))
        .map_err(ServeError::Db)?;
    let src = engine.schema(src_id);
    let table_name = mydb_table_name(user, id);
    let scratch = TableSchema {
        name: table_name.clone(),
        columns: src.columns.clone(),
        primary_key: src.primary_key.clone(),
        foreign_keys: Vec::new(),
        uniques: Vec::new(),
        checks: Vec::new(),
    };
    engine.create_table(scratch).map_err(ServeError::Db)?;
    inner.m_mydb_tables.inc();

    if !rows.is_empty() {
        let writer = home.connect();
        let stmt = writer.prepare_insert(&table_name).map_err(ServeError::Db)?;
        let out = writer.execute_batch(&stmt, &rows).map_err(ServeError::Db)?;
        if let Some((offset, e)) = out.failed {
            let _ = writer.rollback();
            return Err(ServeError::Db(DbError::Batch {
                offset,
                cause: Box::new(e),
            }));
        }
        writer.commit().map_err(ServeError::Db)?;
    }
    inner.m_mydb_rows.add(n);
    Ok((table_name, n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DbConfig;
    use crate::expr::CmpOp;
    use crate::schema::TableBuilder;
    use crate::value::DataType;
    use skyhtm::htmid;

    /// A server with a tiny "objects"-shaped catalog: id, ra, dec, htmid.
    fn star_server(points: &[(i64, f64, f64)]) -> Arc<Server> {
        let s = Server::start(DbConfig::test());
        let t = TableBuilder::new("objects")
            .col("object_id", DataType::Int)
            .col("ra", DataType::Float)
            .col("dec", DataType::Float)
            .col("htmid", DataType::Int)
            .pk(&["object_id"])
            .build()
            .unwrap();
        s.engine().create_table(t).unwrap();
        s.engine()
            .create_index("objects", "idx_objects_htmid", &["htmid"], false)
            .unwrap();
        let sess = s.connect();
        let stmt = sess.prepare_insert("objects").unwrap();
        for (id, ra, dec) in points {
            sess.execute(
                &stmt,
                vec![
                    Value::Int(*id),
                    Value::Float(*ra),
                    Value::Float(*dec),
                    Value::Int(htmid(*ra, *dec, CATALOG_DEPTH) as i64),
                ],
            )
            .unwrap();
        }
        sess.commit().unwrap();
        s
    }

    fn stars_near(ra: f64, dec: f64, n: i64) -> Vec<(i64, f64, f64)> {
        (0..n)
            .map(|i| {
                let ang = i as f64 * 0.7;
                let r = 0.02 * (i % 7) as f64;
                (i, ra + ang.cos() * r, dec + ang.sin() * r)
            })
            .collect()
    }

    fn cfg() -> ServeConfig {
        ServeConfig {
            ra_column: "ra".into(),
            dec_column: "dec".into(),
            ..ServeConfig::default()
        }
    }

    #[test]
    fn fast_cone_matches_brute_force() {
        let stars = stars_near(150.0, 10.0, 40);
        let s = star_server(&stars);
        let svc = QueryService::start(s.clone(), cfg());
        let out = svc
            .fast_query(
                "alice",
                Query::Cone {
                    ra_deg: 150.0,
                    dec_deg: 10.0,
                    radius_arcmin: 5.0,
                },
            )
            .unwrap();
        let FastOutcome::Done(res) = out else {
            panic!("test config should not demote")
        };
        let mut got: Vec<i64> = res.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        got.sort_unstable();
        let mut want: Vec<i64> = stars
            .iter()
            .filter(|(_, ra, dec)| separation_deg(150.0, 10.0, *ra, *dec) * 60.0 <= 5.0)
            .map(|(id, _, _)| *id)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);
        assert!(!got.is_empty(), "cone should catch the cluster core");
        assert!(s.obs().snapshot().counter("serve.fast.admitted") >= 1);
        assert!(s.obs().snapshot().counter("serve.fast.completed") >= 1);
    }

    #[test]
    fn slow_job_materializes_into_mydb() {
        let s = star_server(&stars_near(150.0, 10.0, 25));
        let svc = QueryService::start(s.clone(), cfg());
        let job = svc
            .submit_slow(
                "bob",
                Query::Scan {
                    table: "objects".into(),
                    filter: Some(Expr::cmp(0, CmpOp::Lt, 10i64)),
                },
            )
            .unwrap();
        assert_eq!(svc.wait_job(job).unwrap(), JobState::Done);
        let table = svc.job_result_table(job).unwrap();
        assert!(table.starts_with("mydb_bob_"), "got {table}");
        let tid = s.engine().table_id(&table).unwrap();
        assert_eq!(s.engine().row_count(tid), 10);
        assert_eq!(svc.mydb_rows("bob"), 10);
        let snap = s.obs().snapshot();
        assert_eq!(snap.counter("serve.slow.completed"), 1);
        assert_eq!(snap.counter("serve.mydb.tables"), 1);
        assert_eq!(snap.counter("serve.mydb.rows"), 10);
        // The MyDB table is itself queryable through the fast queue.
        let FastOutcome::Done(res) = svc
            .fast_query(
                "bob",
                Query::Scan {
                    table,
                    filter: None,
                },
            )
            .unwrap()
        else {
            panic!("demoted")
        };
        assert_eq!(res.rows.len(), 10);
    }

    #[test]
    fn deadline_demotes_to_slow_queue() {
        // Give queries a real modeled cost and set the deadline below it.
        let db = DbConfig {
            per_call_cpu: Duration::from_millis(2),
            ..DbConfig::test()
        };
        let s = Server::start(db);
        let t = TableBuilder::new("objects")
            .col("object_id", DataType::Int)
            .col("ra", DataType::Float)
            .col("dec", DataType::Float)
            .col("htmid", DataType::Int)
            .pk(&["object_id"])
            .build()
            .unwrap();
        s.engine().create_table(t).unwrap();
        let sess = s.connect();
        let stmt = sess.prepare_insert("objects").unwrap();
        sess.execute(
            &stmt,
            vec![
                Value::Int(1),
                Value::Float(10.0),
                Value::Float(10.0),
                Value::Int(0),
            ],
        )
        .unwrap();
        sess.commit().unwrap();
        let svc = QueryService::start(
            s.clone(),
            cfg().with_fast_deadline(Duration::from_micros(100)),
        );
        let out = svc
            .fast_query(
                "carol",
                Query::Scan {
                    table: "objects".into(),
                    filter: None,
                },
            )
            .unwrap();
        let FastOutcome::Demoted(job) = out else {
            panic!("modeled 2ms call must overrun a 100µs deadline")
        };
        assert_eq!(svc.wait_job(job).unwrap(), JobState::Done);
        let snap = s.obs().snapshot();
        assert_eq!(snap.counter("serve.fast.demoted"), 1);
        assert_eq!(snap.counter("serve.fast.completed"), 0);
        assert_eq!(snap.counter("serve.slow.completed"), 1);
        assert!(svc.job_result_table(job).is_some());
    }

    #[test]
    fn fast_quota_rejects_but_slow_queue_accepts() {
        let s = star_server(&stars_near(150.0, 10.0, 5));
        // Zero concurrent fast queries allowed: every fast attempt bounces.
        let svc = QueryService::start(s.clone(), cfg().with_fast_per_user(0));
        let err = svc
            .fast_query(
                "dave",
                Query::PkLookup {
                    table: "objects".into(),
                    key: vec![Value::Int(1)],
                },
            )
            .unwrap_err();
        assert!(matches!(err, ServeError::QuotaExceeded(_)));
        assert_eq!(s.obs().snapshot().counter("serve.fast.rejected"), 1);
        // The slow queue still serves them.
        let job = svc
            .submit_slow(
                "dave",
                Query::PkLookup {
                    table: "objects".into(),
                    key: vec![Value::Int(1)],
                },
            )
            .unwrap();
        assert_eq!(svc.wait_job(job).unwrap(), JobState::Done);
    }

    #[test]
    fn mydb_quota_fails_oversized_jobs() {
        let s = star_server(&stars_near(150.0, 10.0, 30));
        let svc = QueryService::start(s.clone(), cfg().with_mydb_row_quota(12));
        let ok = svc
            .submit_slow(
                "erin",
                Query::Scan {
                    table: "objects".into(),
                    filter: Some(Expr::cmp(0, CmpOp::Lt, 10i64)),
                },
            )
            .unwrap();
        assert_eq!(svc.wait_job(ok).unwrap(), JobState::Done);
        // Second job would need 30 rows against the 2 remaining.
        let too_big = svc
            .submit_slow(
                "erin",
                Query::Scan {
                    table: "objects".into(),
                    filter: None,
                },
            )
            .unwrap();
        let JobState::Failed(msg) = svc.wait_job(too_big).unwrap() else {
            panic!("oversized job must fail")
        };
        assert!(msg.contains("quota"), "got {msg}");
        assert_eq!(svc.mydb_rows("erin"), 10, "failed job charges nothing");
        assert_eq!(s.obs().snapshot().counter("serve.slow.failed"), 1);
    }

    #[test]
    fn slow_per_user_quota_bounds_open_jobs() {
        let s = star_server(&stars_near(150.0, 10.0, 3));
        let svc = QueryService::start(s.clone(), cfg().with_slow_per_user(1).with_slow_workers(1));
        // Stall the single worker with a first job, then overfill.
        let q = || Query::Scan {
            table: "objects".into(),
            filter: None,
        };
        let j1 = svc.submit_slow("frank", q()).unwrap();
        // Either j1 is still open (quota hit) or it already finished
        // (quota frees) — both are legal; what's illegal is exceeding the
        // cap while j1 is open. Drive to a deterministic point first:
        svc.wait_job(j1).unwrap();
        let j2 = svc.submit_slow("frank", q()).unwrap();
        svc.wait_job(j2).unwrap();
        assert_eq!(s.obs().snapshot().counter("serve.slow.completed"), 2);
    }

    #[test]
    fn histograms_carry_latency_percentiles() {
        let s = star_server(&stars_near(150.0, 10.0, 20));
        let svc = QueryService::start(s.clone(), cfg());
        for i in 0..20 {
            svc.fast_query(
                "grace",
                Query::PkLookup {
                    table: "objects".into(),
                    key: vec![Value::Int(i)],
                },
            )
            .unwrap();
        }
        let h = s.obs().histogram("serve.fast.latency_us");
        assert_eq!(h.count(), 20);
        assert!(h.quantile(0.99) >= h.quantile(0.5));
        assert!(h.quantile(0.99) > 0, "wall latency p99 must be nonzero");
    }

    #[test]
    fn jobs_progress_through_states() {
        let s = star_server(&stars_near(150.0, 10.0, 4));
        let svc = QueryService::start(s.clone(), cfg());
        let job = svc
            .submit_slow(
                "heidi",
                Query::Scan {
                    table: "objects".into(),
                    filter: None,
                },
            )
            .unwrap();
        // Whatever instant we sample, the state is one of the lifecycle
        // states, and the terminal state is Done.
        let st = svc.job_state(job).unwrap();
        assert!(matches!(
            st,
            JobState::Submitted | JobState::Running | JobState::Done
        ));
        assert_eq!(svc.wait_job(job).unwrap(), JobState::Done);
        assert_eq!(svc.job_state(job), Some(JobState::Done));
        assert!(matches!(
            svc.wait_job(JobId(999)).unwrap_err(),
            ServeError::NoSuchJob(_)
        ));
    }

    #[test]
    fn drain_waits_for_queue_to_empty() {
        let s = star_server(&stars_near(150.0, 10.0, 10));
        let svc = QueryService::start(s.clone(), cfg());
        for _ in 0..6 {
            svc.submit_slow(
                "ivan",
                Query::Cone {
                    ra_deg: 150.0,
                    dec_deg: 10.0,
                    radius_arcmin: 10.0,
                },
            )
            .unwrap();
        }
        svc.drain();
        let snap = s.obs().snapshot();
        assert_eq!(
            snap.counter("serve.slow.completed") + snap.counter("serve.slow.failed"),
            6
        );
    }

    #[test]
    fn sharded_backend_serves_scans_cones_and_degraded_reads() {
        use crate::shard::{GatherPolicy, ShardGroup, ZoneMap};

        // Stars straddle dec 10 ± 0.15; shard the band at dec = 10.
        let stars = stars_near(150.0, 10.0, 40);
        let map = ZoneMap::band(2, 9.0, 11.0);
        let by_zone: Vec<Vec<(i64, f64, f64)>> = (0..2)
            .map(|z| {
                stars
                    .iter()
                    .copied()
                    .filter(|(_, _, dec)| map.zone_for_dec(*dec) == z)
                    .collect()
            })
            .collect();
        assert!(
            by_zone.iter().all(|v| !v.is_empty()),
            "test cluster must straddle the zone boundary"
        );
        let servers: Vec<Arc<Server>> = by_zone.iter().map(|v| star_server(v)).collect();
        let obs = skyobs::Registry::new();
        let group = Arc::new(ShardGroup::new(
            map,
            servers,
            &["objects"],
            GatherPolicy::default()
                .with_attempts(2)
                .with_allow_partial(true),
            &obs,
        ));
        let svc = QueryService::start_sharded(group.clone(), cfg(), &obs);

        // Scatter-gather scan sees the union of both zones.
        let FastOutcome::Done(res) = svc
            .fast_query(
                "alice",
                Query::Scan {
                    table: "objects".into(),
                    filter: None,
                },
            )
            .unwrap()
        else {
            panic!("demoted")
        };
        assert!(!res.partial);
        assert_eq!(res.rows.len(), stars.len());

        // Cone fans only to covering zones and matches brute force.
        let FastOutcome::Done(res) = svc
            .fast_query(
                "alice",
                Query::Cone {
                    ra_deg: 150.0,
                    dec_deg: 10.0,
                    radius_arcmin: 5.0,
                },
            )
            .unwrap()
        else {
            panic!("demoted")
        };
        let mut got: Vec<i64> = res.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        got.sort_unstable();
        let mut want: Vec<i64> = stars
            .iter()
            .filter(|(_, ra, dec)| separation_deg(150.0, 10.0, *ra, *dec) * 60.0 <= 5.0)
            .map(|(id, _, _)| *id)
            .collect();
        want.sort_unstable();
        assert_eq!(got, want);

        // Point lookup routes (or broadcasts) to the owning zone.
        let FastOutcome::Done(res) = svc
            .fast_query(
                "alice",
                Query::PkLookup {
                    table: "objects".into(),
                    key: vec![Value::Int(stars[3].0)],
                },
            )
            .unwrap()
        else {
            panic!("demoted")
        };
        assert_eq!(res.rows.len(), 1);

        // Kill zone 1: scans degrade to an explicitly partial answer.
        group.server(1).crash();
        let FastOutcome::Done(res) = svc
            .fast_query(
                "alice",
                Query::Scan {
                    table: "objects".into(),
                    filter: None,
                },
            )
            .unwrap()
        else {
            panic!("demoted")
        };
        assert!(res.partial, "degraded read must carry the partial flag");
        assert_eq!(res.missing_zones, vec![1]);
        assert_eq!(res.rows.len(), by_zone[0].len());

        // A slow job refuses to enshrine a partial answer in MyDB.
        let job = svc
            .submit_slow(
                "alice",
                Query::Scan {
                    table: "objects".into(),
                    filter: None,
                },
            )
            .unwrap();
        let JobState::Failed(msg) = svc.wait_job(job).unwrap() else {
            panic!("partial slow job must fail loudly")
        };
        assert!(msg.contains("partial"), "got {msg}");
    }

    #[test]
    fn scans_never_see_a_torn_season_across_swap() {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

        // Live season: 5 stars. Shadow season loaded behind it: 9 stars.
        // Counts differ, so every scan result identifies its season.
        let s = star_server(&stars_near(150.0, 10.0, 5));
        let shadow = TableBuilder::new("objects__c1")
            .col("object_id", DataType::Int)
            .col("ra", DataType::Float)
            .col("dec", DataType::Float)
            .col("htmid", DataType::Int)
            .pk(&["object_id"])
            .build()
            .unwrap();
        s.engine().create_table(shadow).unwrap();
        let sess = s.connect();
        let stmt = sess.prepare_insert("objects__c1").unwrap();
        for (id, ra, dec) in stars_near(150.0, 10.0, 9) {
            sess.execute(
                &stmt,
                vec![
                    Value::Int(id),
                    Value::Float(ra),
                    Value::Float(dec),
                    Value::Int(htmid(ra, dec, CATALOG_DEPTH) as i64),
                ],
            )
            .unwrap();
        }
        sess.commit().unwrap();

        let svc = Arc::new(QueryService::start(s.clone(), cfg()));
        let stop = Arc::new(AtomicBool::new(false));
        let torn = Arc::new(AtomicU64::new(0));
        let reads = Arc::new(AtomicU64::new(0));
        let readers: Vec<_> = (0..3)
            .map(|r| {
                let (svc, stop, torn, reads) =
                    (svc.clone(), stop.clone(), torn.clone(), reads.clone());
                std::thread::spawn(move || {
                    let user = format!("reader{r}");
                    while !stop.load(Ordering::Relaxed) {
                        match svc.fast_query(
                            &user,
                            Query::Scan {
                                table: "objects".into(),
                                filter: None,
                            },
                        ) {
                            Ok(FastOutcome::Done(res)) => {
                                reads.fetch_add(1, Ordering::Relaxed);
                                let n = res.rows.len();
                                if n != 5 && n != 9 {
                                    torn.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            Ok(FastOutcome::Demoted(_)) => {}
                            // Transient admission rejections are fine;
                            // only season tearing fails the test.
                            Err(_) => {}
                        }
                    }
                })
            })
            .collect();

        // Promote the shadow mid-traffic, then purge the demoted season
        // — the moment a torn read could happen if the swap were not
        // atomic to named scans.
        std::thread::sleep(std::time::Duration::from_millis(15));
        s.engine()
            .swap_tables(&[("objects".into(), "objects__c1".into())])
            .unwrap();
        let engine = s.engine();
        let txn = engine.begin();
        let demoted = engine.table_id("objects__c1").unwrap();
        engine.delete_where(txn, demoted, None).unwrap();
        engine.commit(txn).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(15));

        stop.store(true, Ordering::Relaxed);
        for h in readers {
            h.join().unwrap();
        }
        assert_eq!(torn.load(Ordering::Relaxed), 0, "a scan saw a torn season");
        assert!(reads.load(Ordering::Relaxed) > 0, "no reads completed");
        // Post-swap, the live name serves the new season.
        match svc
            .fast_query(
                "final",
                Query::Scan {
                    table: "objects".into(),
                    filter: None,
                },
            )
            .unwrap()
        {
            FastOutcome::Done(res) => assert_eq!(res.rows.len(), 9),
            FastOutcome::Demoted(_) => panic!("zero-cost scan demoted"),
        }
    }
}
