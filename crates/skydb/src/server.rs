//! The database server and client sessions.
//!
//! One [`Server`] wraps an [`Engine`] behind:
//!
//! * a [`CpuGate`] with one permit per modeled processor (the Altix's 8) —
//!   every request executes while holding a permit and is charged the
//!   modeled SQL-layer CPU service time for its row count and index load;
//! * a shared [`NetworkModel`] — every client call really encodes its
//!   request, charges a round trip for the payload, and decodes the
//!   response on the way back.
//!
//! [`Session`] is the JDBC-connection equivalent: it owns (at most) one
//! open transaction, offers prepared inserts with `add_batch`/
//! `execute_batch` semantics, and reports batch failures as
//! `(applied, offset, error)` exactly as the paper's Fig. 3 recovery logic
//! requires.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::BytesMut;
use parking_lot::Mutex;

use skysim::cpu::CpuGate;
use skysim::net::NetworkModel;

use crate::config::DbConfig;
use crate::engine::{Engine, QueryOutcome};
use crate::error::{DbError, DbResult};
use crate::expr::Expr;
use crate::fault::{CallClass, FaultDecision, FaultKind, FaultPlan, FAULT_KINDS};
use crate::schema::TableId;
use crate::value::{Key, Row};
use crate::wal::TxnId;
use crate::wire::{decode_error_kind, encode_error_kind, Fence, Request, Response};

/// A database server: engine + CPU gate + network endpoint.
pub struct Server {
    engine: Engine,
    cpu: CpuGate,
    net: NetworkModel,
    /// Fault injection: the active plan, if any. Swappable at runtime so a
    /// chaos harness can change the weather mid-load.
    fault_plan: Mutex<Option<Arc<FaultPlan>>>,
    /// The observability registry server-level counters live in. Defaults
    /// to the engine's registry; a chaos coordinator passes its own so
    /// counts survive crash/recover server generations.
    obs: Arc<skyobs::Registry>,
    /// Fault counters by [`FaultKind::index`] — handles into `obs` under
    /// `server.faults.<kind>`. Registry-owned, so counts survive plan swaps
    /// (and, with a shared registry, server restarts).
    fault_counts: [skyobs::CounterHandle; FAULT_KINDS.len()],
    /// Set once a crash-on-flush fault fires; every later call on any
    /// session fails with [`DbError::ServerDown`] until the repository is
    /// recovered into a fresh server.
    crashed: AtomicBool,
    /// Fencing registry: minimum acceptable epoch per fence key. A fenced
    /// request whose epoch is below the floor is rejected before anything
    /// applies ([`DbError::FencedOut`]); the fleet supervisor raises the
    /// floor whenever it reclaims a lease and reassigns the work.
    fences: Mutex<BTreeMap<u64, u64>>,
}

/// Client-side handle to a prepared `INSERT INTO <table> VALUES (…)`.
#[derive(Debug, Clone, Copy)]
pub struct PreparedInsert {
    table: TableId,
    n_cols: usize,
}

impl PreparedInsert {
    /// The destination table.
    pub fn table(&self) -> TableId {
        self.table
    }

    /// The column count the statement binds.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }
}

/// Outcome of `execute_batch`, mirroring JDBC's `BatchUpdateException`
/// information content.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchResult {
    /// Rows applied (prefix before any error).
    pub applied: usize,
    /// Failing offset and reconstructed error, if the batch stopped.
    pub failed: Option<(usize, DbError)>,
}

impl BatchResult {
    /// `true` if the whole batch applied.
    pub fn is_complete(&self) -> bool {
        self.failed.is_none()
    }
}

/// A query result on the client: the rows plus the end-to-end modeled
/// latency (network round trip + server-side CPU service). The serving
/// tier's deadline/demotion decisions run on the modeled figure, so they
/// are deterministic at [`TimeScale::ZERO`].
///
/// [`TimeScale::ZERO`]: skysim::time::TimeScale::ZERO
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReply {
    /// Result rows, visible at read-committed isolation.
    pub rows: Vec<Row>,
    /// End-to-end modeled latency of the call.
    pub modeled: Duration,
}

impl Server {
    /// Start a server with a fresh engine built from `cfg`. Server-level
    /// counters join the engine's registry, so one snapshot covers both.
    pub fn start(cfg: DbConfig) -> Arc<Server> {
        let obs = Arc::new(skyobs::Registry::new());
        Server::start_with_obs(cfg, obs)
    }

    /// Start a server with a fresh engine, registering both engine- and
    /// server-level counters in `obs`. A chaos coordinator passes a shared
    /// registry here so fault and loader counters accumulate across
    /// crash/recover generations.
    pub fn start_with_obs(cfg: DbConfig, obs: Arc<skyobs::Registry>) -> Arc<Server> {
        let cpu = CpuGate::new(cfg.cpus, cfg.scale);
        let net = NetworkModel::new(cfg.net_rtt, cfg.net_bytes_per_sec, cfg.scale);
        Server::assemble(Engine::with_obs(cfg, obs.clone()), cpu, net, obs)
    }

    /// Start a server around an existing engine (used by recovery tests).
    /// Server counters join the engine's registry.
    pub fn with_engine(engine: Engine) -> Arc<Server> {
        let obs = engine.obs().clone();
        Server::with_engine_and_obs(engine, obs)
    }

    /// Start a server around an existing engine with server-level counters
    /// in `obs` (the chaos coordinator's shared registry; the recovered
    /// engine keeps its own per-generation registry so replayed rows are
    /// not double-counted).
    pub fn with_engine_and_obs(engine: Engine, obs: Arc<skyobs::Registry>) -> Arc<Server> {
        let cfg = engine.config();
        let cpu = CpuGate::new(cfg.cpus, cfg.scale);
        let net = NetworkModel::new(cfg.net_rtt, cfg.net_bytes_per_sec, cfg.scale);
        Server::assemble(engine, cpu, net, obs)
    }

    fn assemble(
        engine: Engine,
        cpu: CpuGate,
        net: NetworkModel,
        obs: Arc<skyobs::Registry>,
    ) -> Arc<Server> {
        let fault_counts = std::array::from_fn(|i| {
            obs.counter(&format!("server.faults.{}", FAULT_KINDS[i].label()))
        });
        Arc::new(Server {
            engine,
            cpu,
            net,
            fault_plan: Mutex::new(None),
            obs,
            fault_counts,
            crashed: AtomicBool::new(false),
            fences: Mutex::new(BTreeMap::new()),
        })
    }

    /// The underlying engine (DDL, queries, stats).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The observability registry server-level counters live in.
    pub fn obs(&self) -> &Arc<skyobs::Registry> {
        &self.obs
    }

    /// Snapshot the registry after syncing the modeled-clock gauges
    /// (`model.network_us`, `model.server_cpu_us`, `model.disk_us`,
    /// `model.lock_wait_us`, `model.cache_scan_us`), so reports and the
    /// bench harness can read modeled costs from telemetry instead of
    /// probing each subsystem by hand.
    pub fn obs_snapshot(&self) -> skyobs::Snapshot {
        let e = &self.engine;
        self.obs
            .gauge("model.network_us")
            .set(self.net.modeled_time().as_micros() as u64);
        self.obs
            .gauge("model.server_cpu_us")
            .set((self.cpu.modeled_time() + e.row_service_time()).as_micros() as u64);
        self.obs
            .gauge("model.disk_us")
            .set(e.farm().modeled_time().as_micros() as u64);
        self.obs
            .gauge("model.lock_wait_us")
            .set(e.lock_wait_time().as_micros() as u64);
        self.obs
            .gauge("model.cache_scan_us")
            .set(e.cache().scan_cpu().as_micros() as u64);
        self.obs.snapshot()
    }

    /// The shared network model (for experiment accounting).
    pub fn network(&self) -> &NetworkModel {
        &self.net
    }

    /// The CPU gate (for experiment accounting).
    pub fn cpu(&self) -> &CpuGate {
        &self.cpu
    }

    /// Inject a connection fault on every `n`th client call (0 disables).
    /// Models the flaky links and driver timeouts a multi-hour production
    /// load inevitably hits; loaders must recover without losing or
    /// duplicating rows.
    ///
    /// Thin shim over [`Server::set_fault_plan`]: installs (or, for 0,
    /// removes) a [`FaultPlan::every_nth`] schedule. Call counting starts
    /// from the installation point, exactly as the original counter only
    /// advanced while a schedule was active.
    pub fn inject_call_faults(&self, every: u64) {
        let plan = (every != 0).then(|| FaultPlan::every_nth(every));
        self.set_fault_plan(plan);
    }

    /// Install (or, with `None`, remove) a fault plan. Per-kind fault
    /// counters are owned by the server and survive the swap.
    pub fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        *self.fault_plan.lock() = plan.map(Arc::new);
    }

    /// The active fault plan, if any.
    pub fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.fault_plan.lock().clone()
    }

    /// Faults injected so far, across every kind and every plan this
    /// server has run under.
    pub fn faults_injected(&self) -> u64 {
        self.fault_counts.iter().map(|c| c.get()).sum()
    }

    /// Faults injected so far for one kind.
    pub fn fault_count(&self, kind: FaultKind) -> u64 {
        self.fault_counts[kind.index()].get()
    }

    /// Faults injected so far, labeled by kind (zero counts omitted) — the
    /// `server.faults.*` projection of the registry snapshot. With a shared
    /// chaos registry this is cumulative across server generations.
    pub fn faults_by_kind(&self) -> BTreeMap<String, u64> {
        self.obs.snapshot().with_prefix("server.faults.")
    }

    /// `true` once a crash-on-flush fault has taken the server down.
    /// Recover with [`Engine::durable_log`] + [`Engine::recover_from_log`]
    /// into a fresh [`Server::with_engine`].
    pub fn is_crashed(&self) -> bool {
        self.crashed.load(Ordering::Acquire)
    }

    /// Kill this server as an injected fault: every subsequent call fails
    /// with [`DbError::ServerDown`] until a replacement is rebuilt from
    /// the durable log. This is the shard-chaos hook — a `ShardCrash`
    /// schedule takes a whole zone's engine down the same way a
    /// crash-on-flush fault does, just from outside the call gate.
    pub fn crash(&self) {
        self.crashed.store(true, Ordering::Release);
    }

    fn note_fault(&self, kind: FaultKind) {
        self.fault_counts[kind.index()].inc();
    }

    /// Record a fault injected *outside* the server's own call gate — the
    /// fleet layer kills and stalls whole loaders, but their counts belong
    /// in the same per-kind ledger so [`Server::faults_by_kind`] stays the
    /// one place reports read from.
    pub fn note_injected_fault(&self, kind: FaultKind) {
        self.note_fault(kind);
    }

    /// Raise the fencing floor for `key` to at least `epoch` (max-merge;
    /// floors never move backwards). After this, any fenced call carrying
    /// an epoch `< epoch` for `key` is rejected with
    /// [`DbError::FencedOut`] before anything is applied.
    pub fn advance_fence(&self, key: u64, epoch: u64) {
        let mut fences = self.fences.lock();
        let floor = fences.entry(key).or_insert(0);
        *floor = (*floor).max(epoch);
    }

    /// The current fencing floor for `key` (0 if never fenced).
    pub fn fence_floor(&self, key: u64) -> u64 {
        self.fences.lock().get(&key).copied().unwrap_or(0)
    }

    /// Check one request's fencing token against the registry.
    fn check_fence(&self, fence: Option<Fence>) -> Result<(), Response> {
        let Some(f) = fence else { return Ok(()) };
        let floor = self.fence_floor(f.key);
        if f.epoch < floor {
            let e = DbError::FencedOut(format!(
                "epoch {} below fence floor {} for key {}; lease was reclaimed",
                f.epoch, floor, f.key
            ));
            return Err(Response::Err {
                applied: 0,
                offset: u32::MAX,
                kind: encode_error_kind(&e),
                message: e.to_string(),
            });
        }
        Ok(())
    }

    /// Adjudicate one client call against the crash flag and the active
    /// fault plan. Runs after the round trip is charged and before
    /// dispatch, so an injected failure reaches the server-side state
    /// machine exactly like a dropped connection: nothing was applied.
    fn fault_gate(&self, class: CallClass, txn: TxnId, budget: Option<Duration>) -> DbResult<()> {
        if self.is_crashed() {
            return Err(DbError::ServerDown(
                "server crashed (injected fault); recover from the durable log".into(),
            ));
        }
        let Some(plan) = self.fault_plan.lock().clone() else {
            return Ok(());
        };
        match plan.decide(class) {
            FaultDecision::Proceed => Ok(()),
            FaultDecision::Fail(kind, err) => {
                self.note_fault(kind);
                Err(err)
            }
            FaultDecision::Delay(spike) => {
                self.note_fault(FaultKind::Latency);
                self.net.delay(spike);
                match budget {
                    Some(b) if spike > b => Err(DbError::Timeout(format!(
                        "call exceeded its {}µs budget during a {}µs latency spike",
                        b.as_micros(),
                        spike.as_micros()
                    ))),
                    _ => Ok(()),
                }
            }
            FaultDecision::CrashFlush => {
                self.note_fault(FaultKind::CrashOnFlush);
                // Tear 1–8 bytes off the commit record (it encodes as 9
                // bytes), deterministically from the plan's call count, so
                // the record is always truncated mid-encode.
                let torn = 1 + (plan.calls_seen() % 8) as usize;
                let _ = self.engine.simulate_torn_commit_flush(txn, torn);
                self.crashed.store(true, Ordering::Release);
                Err(DbError::ServerDown(
                    "server crashed during commit flush (injected fault)".into(),
                ))
            }
        }
    }

    /// Open a client session.
    pub fn connect(self: &Arc<Self>) -> Session {
        Session {
            server: Arc::clone(self),
            txn: Mutex::new(None),
            closed: Mutex::new(false),
            call_timeout: Mutex::new(None),
            fence: Mutex::new(None),
        }
    }

    /// Server-side dispatch: decode, execute under a CPU permit, encode.
    fn dispatch(&self, txn: TxnId, request_bytes: &[u8]) -> DbResult<Vec<u8>> {
        let mut rd = request_bytes;
        let request = Request::decode(&mut rd)?;
        let cfg = self.engine.config();

        // Fencing runs before any work: a stale-epoch call must observe
        // "nothing applied" semantics, exactly like a rejected batch.
        if let Err(rejection) = self.check_fence(request.fence()) {
            let mut buf = BytesMut::with_capacity(64);
            rejection.encode(&mut buf);
            return Ok(buf.to_vec());
        }

        let response = match request {
            Request::InsertBatch { table, rows, .. } => {
                let service = self.call_service(request_bytes.len());
                let outcome = self
                    .cpu
                    .run(service, || self.engine.apply_batch(txn, table, &rows));
                match outcome.failed {
                    None => Response::Ok {
                        rows: outcome.applied as u32,
                    },
                    Some((offset, e)) => Response::Err {
                        applied: outcome.applied as u32,
                        offset: offset as u32,
                        kind: encode_error_kind(&e),
                        message: e.to_string(),
                    },
                }
            }
            Request::InsertSingle { table, row, .. } => {
                let service = self.call_service(request_bytes.len());
                let result = self
                    .cpu
                    .run(service, || self.engine.apply_single(txn, table, &row));
                match result {
                    Ok(_) => Response::Ok { rows: 1 },
                    Err(e) => Response::Err {
                        applied: 0,
                        offset: 0,
                        kind: encode_error_kind(&e),
                        message: e.to_string(),
                    },
                }
            }
            Request::Commit { .. } => {
                let service = cfg.per_call_cpu + cfg.commit_cpu;
                let result = self.cpu.run(service, || self.engine.commit(txn));
                match result {
                    Ok(()) => Response::Ok { rows: 0 },
                    Err(e) => Response::Err {
                        applied: 0,
                        offset: u32::MAX,
                        kind: encode_error_kind(&e),
                        message: e.to_string(),
                    },
                }
            }
            Request::Rollback => {
                let service = cfg.per_call_cpu + cfg.commit_cpu;
                let result = self.cpu.run(service, || self.engine.rollback(txn));
                match result {
                    Ok(()) => Response::Ok { rows: 0 },
                    Err(e) => Response::Err {
                        applied: 0,
                        offset: u32::MAX,
                        kind: encode_error_kind(&e),
                        message: e.to_string(),
                    },
                }
            }
            Request::Scan { table, filter } => {
                let base = self.call_service(request_bytes.len());
                let result = match self.table_checked(table) {
                    Ok(_) => self.cpu.run(base, || {
                        self.engine.scan_where_committed(table, filter.as_ref())
                    }),
                    Err(e) => Err(e),
                };
                self.query_response(base, result)
            }
            Request::ScanNamed { table, filter } => {
                let base = self.call_service(request_bytes.len());
                let result = self.cpu.run(base, || {
                    self.engine.scan_named_committed(&table, filter.as_ref())
                });
                self.query_response(base, result)
            }
            Request::PkGet { table, key } => {
                let base = self.call_service(request_bytes.len());
                let result = match self.table_checked(table) {
                    Ok(_) => self.cpu.run(base, || {
                        self.engine
                            .pk_get_committed(table, &Key(key))
                            .map(|row| QueryOutcome {
                                rows: row.into_iter().collect(),
                                examined: 1,
                            })
                    }),
                    Err(e) => Err(e),
                };
                self.query_response(base, result)
            }
            Request::IndexRange {
                table,
                index,
                lo,
                hi,
                ..
            } => {
                let base = self.call_service(request_bytes.len());
                let result = match self.table_checked(table) {
                    Ok(name) => self.cpu.run(base, || {
                        self.engine
                            .index_range_committed(&name, &index, &Key(lo), &Key(hi))
                    }),
                    Err(e) => Err(e),
                };
                self.query_response(base, result)
            }
        };

        let mut buf = BytesMut::with_capacity(64);
        response.encode(&mut buf);
        Ok(buf.to_vec())
    }

    /// Validate a wire-supplied table id, returning the table's name.
    fn table_checked(&self, table: TableId) -> DbResult<String> {
        self.engine
            .table_name(table)
            .ok_or_else(|| DbError::NoSuchTable(format!("table id {}", table.0)))
    }

    /// Finish a query: charge the per-row scan CPU tail, then encode either
    /// the rows (with the total modeled service) or the error.
    fn query_response(&self, base: Duration, result: DbResult<QueryOutcome>) -> Response {
        match result {
            Ok(q) => {
                let cfg = self.engine.config();
                let scan = Duration::from_nanos(cfg.scan_row_cpu.as_nanos() as u64 * q.examined);
                if scan > Duration::ZERO {
                    self.cpu.run(scan, || ());
                }
                Response::Rows {
                    rows: q.rows,
                    modeled_us: (base + scan).as_micros() as u64,
                }
            }
            Err(e) => Response::Err {
                applied: 0,
                offset: u32::MAX,
                kind: encode_error_kind(&e),
                message: e.to_string(),
            },
        }
    }

    /// Modeled per-call CPU (parse + dispatch + bind-array handling) paid
    /// at the processor gate. Per-row service is charged by the engine
    /// while the table insert slot is held.
    fn call_service(&self, payload_bytes: usize) -> Duration {
        let cfg = self.engine.config();
        let mut service = cfg.per_call_cpu;
        // Bind-array spill: payload beyond the server's bind buffer costs
        // extra CPU (workspace copy + temp management). This is the far
        // edge of the Fig. 5 batch-size optimum.
        if payload_bytes > cfg.bind_buffer_bytes {
            let spill = (payload_bytes - cfg.bind_buffer_bytes) as u64;
            self.engine.stats().bind_spills.inc();
            self.engine.stats().bind_spill_bytes.add(spill);
            service += Duration::from_nanos(cfg.spill_cpu_per_byte.as_nanos() as u64 * spill);
        }
        service
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("engine", &self.engine)
            .finish_non_exhaustive()
    }
}

/// One client connection with (at most) one open transaction.
pub struct Session {
    server: Arc<Server>,
    txn: Mutex<Option<TxnId>>,
    closed: Mutex<bool>,
    /// Per-call driver budget: a latency spike longer than this surfaces
    /// as [`DbError::Timeout`] (JDBC `setQueryTimeout` equivalent).
    call_timeout: Mutex<Option<Duration>>,
    /// Fencing token attached to every mutating call (inserts, commits —
    /// never rollbacks) while set. The fleet layer points this at the
    /// session's current lease so a reclaimed lease fences the session out.
    fence: Mutex<Option<Fence>>,
}

impl Session {
    /// Prepare an insert statement for `table`.
    pub fn prepare_insert(&self, table: &str) -> DbResult<PreparedInsert> {
        let tid = self.server.engine.table_id(table)?;
        let schema = self.server.engine.schema(tid);
        Ok(PreparedInsert {
            table: tid,
            n_cols: schema.columns.len(),
        })
    }

    fn ensure_txn(&self) -> DbResult<TxnId> {
        if *self.closed.lock() {
            return Err(DbError::SessionClosed);
        }
        let mut txn = self.txn.lock();
        if let Some(t) = *txn {
            return Ok(t);
        }
        let t = self.server.engine.begin();
        *txn = Some(t);
        Ok(t)
    }

    /// The session's open transaction, if any.
    pub fn current_txn(&self) -> Option<TxnId> {
        *self.txn.lock()
    }

    /// Set (or, with `None`, clear) the per-call timeout budget.
    pub fn set_call_timeout(&self, budget: Option<Duration>) {
        *self.call_timeout.lock() = budget;
    }

    /// Set (or, with `None`, clear) the fencing token attached to this
    /// session's mutating calls.
    pub fn set_fence(&self, fence: Option<Fence>) {
        *self.fence.lock() = fence;
    }

    /// The session's current fencing token, if any.
    pub fn fence(&self) -> Option<Fence> {
        *self.fence.lock()
    }

    fn call(&self, request: &Request) -> DbResult<Response> {
        let txn = self.ensure_txn()?;
        let class = match request {
            Request::InsertBatch { .. } => CallClass::Batch,
            Request::InsertSingle { .. } => CallClass::Single,
            Request::Commit { .. } => CallClass::Commit,
            Request::Rollback => CallClass::Rollback,
            // Reads go through `call_read`; routing one here still treats
            // it as a query for fault purposes.
            Request::Scan { .. }
            | Request::ScanNamed { .. }
            | Request::PkGet { .. }
            | Request::IndexRange { .. } => CallClass::Query,
        };
        // Client-side marshaling: real serialization work.
        let mut buf = BytesMut::with_capacity(256);
        let req_len = request.encode(&mut buf);
        // One round trip carries the request and the (small) response.
        self.server.net.round_trip(req_len + 16);
        self.server
            .fault_gate(class, txn, *self.call_timeout.lock())?;
        let resp_bytes = self.server.dispatch(txn, &buf)?;
        let mut rd = resp_bytes.as_slice();
        Response::decode(&mut rd)
    }

    /// Issue a read request. Reads never open (or touch) a transaction:
    /// the server executes them at read-committed isolation against
    /// whatever is committed at that instant, concurrently with any bulk
    /// load. They are also unfenced — see [`Request::fence`].
    fn call_read(&self, request: &Request) -> DbResult<QueryReply> {
        if *self.closed.lock() {
            return Err(DbError::SessionClosed);
        }
        let txn = self.current_txn().unwrap_or(TxnId(0));
        let mut buf = BytesMut::with_capacity(256);
        let req_len = request.encode(&mut buf);
        let rt = self.server.net.round_trip(req_len + 16);
        self.server
            .fault_gate(CallClass::Query, txn, *self.call_timeout.lock())?;
        let resp_bytes = self.server.dispatch(txn, &buf)?;
        let mut rd = resp_bytes.as_slice();
        match Response::decode(&mut rd)? {
            Response::Rows { rows, modeled_us } => Ok(QueryReply {
                rows,
                modeled: rt + Duration::from_micros(modeled_us),
            }),
            Response::Err { kind, message, .. } => Err(decode_error_kind(kind, message)),
            Response::Ok { .. } => Err(DbError::Protocol("unexpected ok for query".into())),
        }
    }

    /// Read-committed scan of `table` with an optional server-side filter
    /// (predicate pushdown: the expression travels the wire and is
    /// evaluated inside the engine).
    pub fn query_scan(&self, table: &str, filter: Option<Expr>) -> DbResult<QueryReply> {
        let tid = self.server.engine.table_id(table)?;
        self.call_read(&Request::Scan { table: tid, filter })
    }

    /// Season-atomic read-committed scan: the table name travels the wire
    /// and the server resolves it *inside* the same catalog read-guard
    /// the scan runs under, so a concurrent [`Engine::swap_tables`] can
    /// never slip between resolution and execution. Use this (as the
    /// serve tier does) when shadow-swap campaigns may promote tables
    /// mid-query.
    ///
    /// [`Engine::swap_tables`]: crate::engine::Engine::swap_tables
    pub fn query_scan_named(&self, table: &str, filter: Option<Expr>) -> DbResult<QueryReply> {
        self.call_read(&Request::ScanNamed {
            table: table.into(),
            filter,
        })
    }

    /// Read-committed point lookup by primary key. `key` carries the
    /// primary-key values in key-column order; the reply holds zero or one
    /// rows.
    pub fn query_pk(&self, table: &str, key: Row) -> DbResult<QueryReply> {
        let tid = self.server.engine.table_id(table)?;
        self.call_read(&Request::PkGet { table: tid, key })
    }

    /// Read-committed inclusive range scan over a named secondary index —
    /// the access path cone searches use for `htmid` covers.
    pub fn query_index_range(
        &self,
        table: &str,
        index: &str,
        lo: Row,
        hi: Row,
    ) -> DbResult<QueryReply> {
        let tid = self.server.engine.table_id(table)?;
        self.call_read(&Request::IndexRange {
            table: tid,
            index: index.to_owned(),
            lo,
            hi,
        })
    }

    /// Execute a single-row insert (the non-bulk path).
    pub fn execute(&self, stmt: &PreparedInsert, row: Row) -> DbResult<()> {
        self.check_arity(stmt, &row)?;
        match self.call(&Request::InsertSingle {
            table: stmt.table,
            row,
            fence: self.fence(),
        })? {
            Response::Ok { .. } => Ok(()),
            Response::Err { kind, message, .. } => Err(decode_error_kind(kind, message)),
            Response::Rows { .. } => Err(DbError::Protocol("rows response to insert".into())),
        }
    }

    /// Execute a batch insert with JDBC semantics.
    pub fn execute_batch(&self, stmt: &PreparedInsert, rows: &[Row]) -> DbResult<BatchResult> {
        for row in rows {
            self.check_arity(stmt, row)?;
        }
        match self.call(&Request::InsertBatch {
            table: stmt.table,
            rows: rows.to_vec(),
            fence: self.fence(),
        })? {
            Response::Ok { rows } => Ok(BatchResult {
                applied: rows as usize,
                failed: None,
            }),
            Response::Err {
                applied,
                offset,
                kind,
                message,
            } => {
                let e = decode_error_kind(kind, message);
                if matches!(e, DbError::FencedOut(_)) {
                    // A fenced-out batch is a call-level rejection (nothing
                    // applied), not a bad row the caller should skip past.
                    return Err(e);
                }
                Ok(BatchResult {
                    applied: applied as usize,
                    failed: Some((offset as usize, e)),
                })
            }
            Response::Rows { .. } => Err(DbError::Protocol("rows response to batch".into())),
        }
    }

    fn check_arity(&self, stmt: &PreparedInsert, row: &[crate::value::Value]) -> DbResult<()> {
        if row.len() != stmt.n_cols {
            let schema = self.server.engine.schema(stmt.table);
            return Err(DbError::ArityMismatch {
                table: schema.name.clone(),
                expected: stmt.n_cols,
                got: row.len(),
            });
        }
        Ok(())
    }

    /// Commit the open transaction (no-op without one).
    pub fn commit(&self) -> DbResult<()> {
        let had_txn = self.txn.lock().is_some();
        if !had_txn {
            return Ok(());
        }
        let resp = self.call(&Request::Commit {
            fence: self.fence(),
        })?;
        match resp {
            Response::Ok { .. } => {
                *self.txn.lock() = None;
                Ok(())
            }
            Response::Err { kind, message, .. } => {
                let e = decode_error_kind(kind, message);
                // A fenced-out commit was rejected before the server
                // touched the transaction: keep it open client-side so the
                // (unfenced) rollback can still discard the stale work.
                if !matches!(e, DbError::FencedOut(_)) {
                    *self.txn.lock() = None;
                }
                Err(e)
            }
            Response::Rows { .. } => Err(DbError::Protocol("rows response to commit".into())),
        }
    }

    /// Roll back the open transaction (no-op without one).
    pub fn rollback(&self) -> DbResult<()> {
        let had_txn = self.txn.lock().is_some();
        if !had_txn {
            return Ok(());
        }
        let resp = self.call(&Request::Rollback)?;
        *self.txn.lock() = None;
        match resp {
            Response::Ok { .. } => Ok(()),
            Response::Err { kind, message, .. } => Err(decode_error_kind(kind, message)),
            Response::Rows { .. } => Err(DbError::Protocol("rows response to rollback".into())),
        }
    }

    /// Commit any open transaction and close. Further statements fail.
    pub fn close(&self) -> DbResult<()> {
        self.commit()?;
        *self.closed.lock() = true;
        Ok(())
    }

    /// The server this session talks to.
    pub fn server(&self) -> &Arc<Server> {
        &self.server
    }
}

/// A dropped session is a closed connection: the server aborts its open
/// transaction, as a database does for a dead client. The abort is
/// server-side bookkeeping, not a wire call, so no fault can refuse it —
/// otherwise a rollback lost to a flaky link would leave the transaction's
/// staged keys blocking every later writer. A crashed server skips it: its
/// in-memory state is discarded and recovery replays only committed work.
impl Drop for Session {
    fn drop(&mut self) {
        if let Some(txn) = self.txn.get_mut().take() {
            if !self.server.is_crashed() {
                let _ = self.server.engine.rollback(txn);
            }
        }
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("txn", &*self.txn.lock())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ConstraintKind;
    use crate::schema::TableBuilder;
    use crate::value::{DataType, Value};

    fn server() -> Arc<Server> {
        let s = Server::start(DbConfig::test());
        let frames = TableBuilder::new("frames")
            .col("frame_id", DataType::Int)
            .col("exposure", DataType::Float)
            .pk(&["frame_id"])
            .build()
            .unwrap();
        let objects = TableBuilder::new("objects")
            .col("object_id", DataType::Int)
            .col("frame_id", DataType::Int)
            .pk(&["object_id"])
            .fk("fk_objects_frame", &["frame_id"], "frames")
            .build()
            .unwrap();
        s.engine().create_table(frames).unwrap();
        s.engine().create_table(objects).unwrap();
        s
    }

    fn frame(i: i64) -> Row {
        vec![Value::Int(i), Value::Float(30.0)]
    }

    fn object(i: i64, f: i64) -> Row {
        vec![Value::Int(i), Value::Int(f)]
    }

    #[test]
    fn session_insert_commit_visible() {
        let s = server();
        let sess = s.connect();
        let stmt = sess.prepare_insert("frames").unwrap();
        sess.execute(&stmt, frame(1)).unwrap();
        sess.commit().unwrap();
        let fid = s.engine().table_id("frames").unwrap();
        assert_eq!(s.engine().row_count(fid), 1);
        assert_eq!(s.network().calls(), 2, "one insert + one commit");
    }

    #[test]
    fn batch_reports_jdbc_failure_shape() {
        let s = server();
        let sess = s.connect();
        let fstmt = sess.prepare_insert("frames").unwrap();
        sess.execute(&fstmt, frame(1)).unwrap();
        let ostmt = sess.prepare_insert("objects").unwrap();
        let rows: Vec<Row> = vec![
            object(1, 1),
            object(2, 1),
            object(2, 1), // dup PK
            object(3, 1),
        ];
        let out = sess.execute_batch(&ostmt, &rows).unwrap();
        assert_eq!(out.applied, 2);
        let (off, err) = out.failed.unwrap();
        assert_eq!(off, 2);
        assert_eq!(err.constraint_kind(), Some(ConstraintKind::PrimaryKey));
        sess.commit().unwrap();
        let oid = s.engine().table_id("objects").unwrap();
        assert_eq!(s.engine().row_count(oid), 2);
    }

    #[test]
    fn fk_error_travels_the_wire() {
        let s = server();
        let sess = s.connect();
        let ostmt = sess.prepare_insert("objects").unwrap();
        let out = sess.execute_batch(&ostmt, &[object(1, 42)]).unwrap();
        let (_, err) = out.failed.unwrap();
        assert_eq!(err.constraint_kind(), Some(ConstraintKind::ForeignKey));
    }

    #[test]
    fn rollback_discards_work() {
        let s = server();
        let sess = s.connect();
        let stmt = sess.prepare_insert("frames").unwrap();
        sess.execute(&stmt, frame(1)).unwrap();
        sess.rollback().unwrap();
        let fid = s.engine().table_id("frames").unwrap();
        assert_eq!(s.engine().row_count(fid), 0);
        // Session can start a fresh transaction.
        sess.execute(&stmt, frame(1)).unwrap();
        sess.commit().unwrap();
        assert_eq!(s.engine().row_count(fid), 1);
    }

    #[test]
    fn dropped_session_aborts_its_open_transaction() {
        let s = server();
        let sess = s.connect();
        let stmt = sess.prepare_insert("frames").unwrap();
        sess.execute(&stmt, frame(1)).unwrap();
        // The link fails every call, the rollback included: the client
        // cannot end its transaction over the wire.
        s.set_fault_plan(Some(FaultPlan::every_nth(1)));
        assert!(sess.rollback().is_err());
        assert!(sess.current_txn().is_some());
        drop(sess);
        s.set_fault_plan(None);
        let fresh = s.connect();
        fresh.execute(&stmt, frame(1)).unwrap();
        fresh.commit().unwrap();
        let fid = s.engine().table_id("frames").unwrap();
        assert_eq!(s.engine().row_count(fid), 1);
    }

    #[test]
    fn closed_session_rejects_statements() {
        let s = server();
        let sess = s.connect();
        let stmt = sess.prepare_insert("frames").unwrap();
        sess.close().unwrap();
        assert_eq!(sess.execute(&stmt, frame(1)), Err(DbError::SessionClosed));
    }

    #[test]
    fn client_side_arity_check() {
        let s = server();
        let sess = s.connect();
        let stmt = sess.prepare_insert("frames").unwrap();
        let err = sess.execute(&stmt, vec![Value::Int(1)]).unwrap_err();
        assert!(matches!(err, DbError::ArityMismatch { .. }));
        assert_eq!(s.network().calls(), 0, "rejected before hitting the wire");
    }

    #[test]
    fn unknown_table_rejected_at_prepare() {
        let s = server();
        let sess = s.connect();
        assert!(matches!(
            sess.prepare_insert("nope"),
            Err(DbError::NoSuchTable(_))
        ));
    }

    #[test]
    fn bind_spill_accounted_for_large_batches() {
        let cfg = DbConfig {
            bind_buffer_bytes: 256,
            ..DbConfig::test()
        };
        let s = Server::start(cfg);
        let t = TableBuilder::new("t")
            .col("id", DataType::Int)
            .col("pad", DataType::Text(100))
            .pk(&["id"])
            .build()
            .unwrap();
        s.engine().create_table(t).unwrap();
        let sess = s.connect();
        let stmt = sess.prepare_insert("t").unwrap();
        let rows: Vec<Row> = (0..50)
            .map(|i| vec![Value::Int(i), Value::Text("x".repeat(50))])
            .collect();
        sess.execute_batch(&stmt, &rows).unwrap();
        assert!(s.engine().stats().snapshot().bind_spills >= 1);
        assert!(s.engine().stats().snapshot().bind_spill_bytes > 0);
    }

    #[test]
    fn fault_shim_preserves_every_nth_semantics() {
        let s = server();
        s.inject_call_faults(2);
        let sess = s.connect();
        let stmt = sess.prepare_insert("frames").unwrap();
        // Call 1 proceeds, call 2 resets, …
        sess.execute(&stmt, frame(1)).unwrap();
        let err = sess.execute(&stmt, frame(2)).unwrap_err();
        assert!(matches!(err, DbError::Protocol(m) if m.contains("connection reset")));
        assert_eq!(s.fault_count(crate::fault::FaultKind::Reset), 1);
        s.inject_call_faults(0);
        sess.execute(&stmt, frame(2)).unwrap();
        sess.commit().unwrap();
        assert_eq!(s.faults_injected(), 1, "counts survive plan removal");
        assert_eq!(s.faults_by_kind().get("reset"), Some(&1));
    }

    #[test]
    fn busy_fault_surfaces_server_busy() {
        let s = server();
        s.set_fault_plan(Some(FaultPlan::new(
            crate::fault::FaultPlanConfig::new(5).with_busy(1.0),
        )));
        let sess = s.connect();
        let stmt = sess.prepare_insert("frames").unwrap();
        let err = sess.execute(&stmt, frame(1)).unwrap_err();
        assert!(matches!(err, DbError::ServerBusy(_)));
        assert!(s.fault_count(crate::fault::FaultKind::Busy) >= 1);
    }

    #[test]
    fn latency_spike_times_out_only_past_budget() {
        let mk = || {
            let s = server();
            s.set_fault_plan(Some(FaultPlan::new(
                crate::fault::FaultPlanConfig::new(5).with_latency(1.0, Duration::from_millis(10)),
            )));
            s
        };
        // Generous budget: the spike is absorbed, the call succeeds.
        let s = mk();
        let sess = s.connect();
        sess.set_call_timeout(Some(Duration::from_secs(1)));
        let stmt = sess.prepare_insert("frames").unwrap();
        sess.execute(&stmt, frame(1)).unwrap();
        assert!(s.fault_count(crate::fault::FaultKind::Latency) >= 1);
        let spiked = s.network().modeled_time();
        assert!(spiked >= Duration::from_millis(10), "spike charged to net");
        // Tight budget: the same spike now breaches it.
        let s = mk();
        let sess = s.connect();
        sess.set_call_timeout(Some(Duration::from_millis(5)));
        let stmt = sess.prepare_insert("frames").unwrap();
        let err = sess.execute(&stmt, frame(1)).unwrap_err();
        assert!(matches!(err, DbError::Timeout(_)));
    }

    #[test]
    fn disk_full_keeps_transaction_retryable() {
        let s = server();
        let sess = s.connect();
        let stmt = sess.prepare_insert("frames").unwrap();
        sess.execute(&stmt, frame(1)).unwrap();
        s.set_fault_plan(Some(FaultPlan::new(
            crate::fault::FaultPlanConfig::new(5).with_disk_full(1.0),
        )));
        let err = sess.commit().unwrap_err();
        assert!(matches!(err, DbError::DiskFull(_)));
        // The transaction is still open: clearing the plan and retrying
        // the commit lands the row exactly once.
        assert!(sess.current_txn().is_some());
        s.set_fault_plan(None);
        sess.commit().unwrap();
        let fid = s.engine().table_id("frames").unwrap();
        assert_eq!(s.engine().row_count(fid), 1);
    }

    #[test]
    fn corruption_rejects_batch_before_anything_applies() {
        let s = server();
        s.set_fault_plan(Some(FaultPlan::new(
            crate::fault::FaultPlanConfig::new(5).with_corruption(1.0),
        )));
        let sess = s.connect();
        let stmt = sess.prepare_insert("frames").unwrap();
        let err = sess
            .execute_batch(&stmt, &[frame(1), frame(2)])
            .unwrap_err();
        assert!(matches!(err, DbError::Corruption(_)));
        s.set_fault_plan(None);
        sess.rollback().unwrap();
        let fid = s.engine().table_id("frames").unwrap();
        assert_eq!(s.engine().row_count(fid), 0, "nothing applied");
    }

    #[test]
    fn crash_on_flush_downs_server_until_recovery() {
        let s = server();
        let sess = s.connect();
        let stmt = sess.prepare_insert("frames").unwrap();
        sess.execute(&stmt, frame(1)).unwrap();
        sess.commit().unwrap();
        // Crash on the next commit (the plan counts from installation).
        s.set_fault_plan(Some(FaultPlan::new(
            crate::fault::FaultPlanConfig::new(5).with_crash_on_flush(1),
        )));
        sess.execute(&stmt, frame(2)).unwrap();
        let err = sess.commit().unwrap_err();
        assert!(matches!(err, DbError::ServerDown(_)));
        assert!(s.is_crashed());
        // Every further call fails, on any session.
        let sess2 = s.connect();
        let stmt2 = sess2.prepare_insert("frames").unwrap();
        assert!(matches!(
            sess2.execute(&stmt2, frame(3)),
            Err(DbError::ServerDown(_))
        ));
        // Recovery from the durable log sees only the first commit.
        let log = s.engine().durable_log();
        let schemas: Vec<_> = ["frames", "objects"]
            .iter()
            .map(|n| (*s.engine().schema(s.engine().table_id(n).unwrap())).clone())
            .collect();
        let engine = Engine::recover_from_log(DbConfig::test(), schemas, &log).unwrap();
        let s2 = Server::with_engine(engine);
        assert!(!s2.is_crashed());
        let fid = s2.engine().table_id("frames").unwrap();
        assert_eq!(s2.engine().row_count(fid), 1, "torn commit not replayed");
    }

    #[test]
    fn stale_epoch_is_fenced_out_before_anything_applies() {
        let s = server();
        let zombie = s.connect();
        zombie.set_fence(Some(Fence { key: 7, epoch: 1 }));
        let stmt = zombie.prepare_insert("frames").unwrap();
        zombie.execute(&stmt, frame(1)).unwrap();
        // The lease is reclaimed: the floor moves past the zombie's epoch.
        s.advance_fence(7, 2);
        assert_eq!(s.fence_floor(7), 2);
        let err = zombie.execute(&stmt, frame(2)).unwrap_err();
        assert!(matches!(err, DbError::FencedOut(_)), "got {err}");
        let err = zombie.commit().unwrap_err();
        assert!(matches!(err, DbError::FencedOut(_)), "commit fenced: {err}");
        // Rollback is deliberately unfenced, so the zombie can still
        // discard the stale rows it applied before the fence moved…
        assert!(zombie.current_txn().is_some(), "fenced commit keeps txn");
        zombie.rollback().unwrap();
        // …and the new lease holder at the floor epoch proceeds normally.
        let holder = s.connect();
        holder.set_fence(Some(Fence { key: 7, epoch: 2 }));
        let hstmt = holder.prepare_insert("frames").unwrap();
        holder.execute(&hstmt, frame(10)).unwrap();
        holder.commit().unwrap();
        let fid = s.engine().table_id("frames").unwrap();
        assert_eq!(s.engine().row_count(fid), 1, "only the holder's row");
        // Floors are max-merged, never regressed.
        s.advance_fence(7, 1);
        assert_eq!(s.fence_floor(7), 2);
    }

    #[test]
    fn queries_see_committed_rows_only() {
        let s = server();
        let writer = s.connect();
        let stmt = writer.prepare_insert("frames").unwrap();
        writer.execute(&stmt, frame(1)).unwrap();
        writer.commit().unwrap();
        writer.execute(&stmt, frame(2)).unwrap(); // left uncommitted

        let reader = s.connect();
        let reply = reader.query_scan("frames", None).unwrap();
        assert_eq!(reply.rows.len(), 1, "uncommitted frame 2 must be hidden");
        assert_eq!(reply.rows[0][0], Value::Int(1));

        // Point lookups agree on both sides of the commit boundary.
        let hit = reader.query_pk("frames", vec![Value::Int(1)]).unwrap();
        assert_eq!(hit.rows.len(), 1);
        let miss = reader.query_pk("frames", vec![Value::Int(2)]).unwrap();
        assert!(miss.rows.is_empty(), "uncommitted pk entry must be hidden");

        writer.commit().unwrap();
        let reply = reader.query_scan("frames", None).unwrap();
        assert_eq!(reply.rows.len(), 2, "both visible after commit");
    }

    #[test]
    fn query_rollback_never_exposes_rows() {
        let s = server();
        let writer = s.connect();
        let stmt = writer.prepare_insert("frames").unwrap();
        writer.execute(&stmt, frame(7)).unwrap();
        let reader = s.connect();
        assert!(reader.query_scan("frames", None).unwrap().rows.is_empty());
        writer.rollback().unwrap();
        assert!(reader.query_scan("frames", None).unwrap().rows.is_empty());
        assert!(reader
            .query_pk("frames", vec![Value::Int(7)])
            .unwrap()
            .rows
            .is_empty());
    }

    #[test]
    fn scan_filter_pushdown_travels_the_wire() {
        let s = server();
        let sess = s.connect();
        let stmt = sess.prepare_insert("frames").unwrap();
        for i in 0..10 {
            sess.execute(&stmt, frame(i)).unwrap();
        }
        sess.commit().unwrap();
        let reply = sess
            .query_scan(
                "frames",
                Some(crate::expr::Expr::cmp(0, crate::expr::CmpOp::Ge, 7i64)),
            )
            .unwrap();
        assert_eq!(reply.rows.len(), 3);
    }

    #[test]
    fn query_latency_includes_modeled_service() {
        let cfg = DbConfig {
            per_call_cpu: Duration::from_micros(1200),
            scan_row_cpu: Duration::from_micros(2),
            net_rtt: Duration::from_millis(2),
            ..DbConfig::test()
        };
        let s = Server::start(cfg);
        let frames = TableBuilder::new("frames")
            .col("frame_id", DataType::Int)
            .col("exposure", DataType::Float)
            .pk(&["frame_id"])
            .build()
            .unwrap();
        s.engine().create_table(frames).unwrap();
        let sess = s.connect();
        let stmt = sess.prepare_insert("frames").unwrap();
        for i in 0..100 {
            sess.execute(&stmt, frame(i)).unwrap();
        }
        sess.commit().unwrap();
        let reply = sess.query_scan("frames", None).unwrap();
        assert_eq!(reply.rows.len(), 100);
        // RTT (2 ms) + per-call (1.2 ms) + 100 rows × 2 µs = ≥ 3.4 ms.
        assert!(
            reply.modeled >= Duration::from_micros(3400),
            "modeled {:?} too small",
            reply.modeled
        );
        // A pk probe examines one row: strictly cheaper than the scan.
        let probe = sess.query_pk("frames", vec![Value::Int(5)]).unwrap();
        assert!(probe.modeled < reply.modeled);
    }

    #[test]
    fn queries_never_open_a_transaction() {
        let s = server();
        let sess = s.connect();
        sess.query_scan("frames", None).unwrap();
        assert_eq!(sess.current_txn(), None);
    }

    #[test]
    fn query_bad_index_is_an_error_not_a_panic() {
        let s = server();
        let sess = s.connect();
        let err = sess
            .query_index_range(
                "frames",
                "no_such_index",
                vec![Value::Int(0)],
                vec![Value::Int(1)],
            )
            .unwrap_err();
        assert!(
            matches!(err, DbError::Protocol(_) | DbError::NoSuchIndex(_)),
            "got {err}"
        );
        let err = sess.query_scan("nope", None).unwrap_err();
        assert!(matches!(err, DbError::NoSuchTable(_)));
    }

    #[test]
    fn concurrent_sessions_isolated_txns() {
        let s = server();
        let s1 = s.connect();
        let s2 = s.connect();
        let f1 = s1.prepare_insert("frames").unwrap();
        let f2 = s2.prepare_insert("frames").unwrap();
        s1.execute(&f1, frame(1)).unwrap();
        s2.execute(&f2, frame(2)).unwrap();
        assert_ne!(s1.current_txn(), s2.current_txn());
        s1.rollback().unwrap();
        s2.commit().unwrap();
        let fid = s.engine().table_id("frames").unwrap();
        assert_eq!(s.engine().row_count(fid), 1);
    }
}
