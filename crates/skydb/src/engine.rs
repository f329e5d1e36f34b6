//! The relational engine: DDL, constrained inserts, transactions, queries.
//!
//! This is the substrate standing in for Oracle 10g. The insert path does
//! everything the paper's loading measurements depend on:
//!
//! 1. arity + type + NOT NULL validation ("stringent data checking is
//!    performed by the database to guard against hidden corruption", §4.3),
//! 2. CHECK constraint evaluation,
//! 3. foreign-key lookups against parent primary keys,
//! 4. heap append into 8 KiB pages through the block cache,
//! 5. primary-key / unique / secondary B+-tree maintenance,
//! 6. redo logging, with synchronous log flush on commit.
//!
//! Batch application has **JDBC semantics** (§4.3: "when an error is
//! encountered during a bulk load, the remaining data in the batch is
//! ignored"): rows are applied in order; the first failure stops the batch;
//! rows before the failure stay applied; the failing offset is reported.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Mutex, MutexGuard, RwLock, RwLockWriteGuard};

use skysim::disk::{Access, DiskFarm, StorageRole};
use skysim::time::TimeScale;

use crate::btree::{order_for_key_width, BPlusTree, DuplicateKey, Payload};
use crate::cache::BufferPool;
use crate::config::DbConfig;
use crate::error::{ConstraintKind, DbError, DbResult};
use crate::expr::Expr;
use crate::heap::{frame_row, RowId, TableHeap, ROW_CRC_BYTES};
use crate::schema::{Catalog, TableId, TableSchema};
use crate::stats::EngineStats;
use crate::txn::{LockManager, TxnManager, UndoOp};
use crate::value::{decode_row, encode_row, Key, Row, Value};
use crate::wal::{recover_checked, LogRecord, StagedInserts, TxnId, Wal};
use skysim::rng::SplitMix64;

/// A named secondary index on a table.
#[derive(Debug)]
struct SecondaryIndex {
    name: String,
    columns: Vec<usize>,
    tree: BPlusTree,
}

/// Runtime state of one table.
#[derive(Debug)]
struct TableState {
    /// The table's schema snapshot. Behind a lock because a shadow→live
    /// swap ([`Engine::swap_tables`]) rebinds names and rewrites FK parent
    /// references in place; readers clone the `Arc` once per operation so
    /// each insert/delete sees one consistent schema.
    schema: RwLock<Arc<TableSchema>>,
    heap: Mutex<TableHeap>,
    /// Unique index enforcing the primary key.
    pk: RwLock<BPlusTree>,
    /// One unique tree per declared UNIQUE constraint.
    uniques: Vec<RwLock<BPlusTree>>,
    /// Attribute indexes, created/dropped dynamically (§4.5.1).
    secondaries: RwLock<Vec<SecondaryIndex>>,
}

impl TableState {
    /// The current schema snapshot (one cheap `Arc` clone).
    fn schema(&self) -> Arc<TableSchema> {
        self.schema.read().clone()
    }

    /// Every write lock of the table, taken in the engine's lock order:
    /// heap → primary key → UNIQUE trees → secondaries.
    fn lock_for_write(&self) -> TableWriteGuards<'_> {
        TableWriteGuards {
            heap: self.heap.lock(),
            pk: self.pk.write(),
            uniques: self.uniques.iter().map(|u| u.write()).collect(),
            secs: self.secondaries.write(),
        }
    }
}

/// A table's heap and index trees, write-locked for one write segment.
struct TableWriteGuards<'a> {
    heap: MutexGuard<'a, TableHeap>,
    pk: RwLockWriteGuard<'a, BPlusTree>,
    uniques: Vec<RwLockWriteGuard<'a, BPlusTree>>,
    secs: RwLockWriteGuard<'a, Vec<SecondaryIndex>>,
}

/// A key that collided with an existing entry of a unique tree.
struct Collision {
    /// The entry already holding the key.
    incumbent: Payload,
    key: Key,
    kind: ConstraintKind,
    /// The constraint or index name.
    name: String,
}

impl TableWriteGuards<'_> {
    /// Enter one row's primary-key, UNIQUE and secondary keys, returning
    /// the number of entries made. On a collision the entries already made
    /// are removed again.
    fn insert_keys(
        &mut self,
        schema: &TableSchema,
        row: &[Value],
        payload: Payload,
    ) -> Result<u64, Collision> {
        let collision = |dup: DuplicateKey, cols: &[usize], kind, name: &str| Collision {
            incumbent: dup.0,
            key: Key::project(row, cols),
            kind,
            name: name.to_owned(),
        };
        let pk_cols = &schema.primary_key;
        if let Err(dup) = self.pk.insert(Key::project(row, pk_cols), payload) {
            let name = format!("pk_{}", schema.name);
            return Err(collision(dup, pk_cols, ConstraintKind::PrimaryKey, &name));
        }
        let mut failed = None;
        let mut uniques_in = self.uniques.len();
        for (i, (u, udef)) in self.uniques.iter_mut().zip(&schema.uniques).enumerate() {
            if let Err(dup) = u.insert(Key::project(row, &udef.columns), payload) {
                failed = Some(collision(
                    dup,
                    &udef.columns,
                    ConstraintKind::Unique,
                    &udef.name,
                ));
                uniques_in = i;
                break;
            }
        }
        // Attribute indexes are non-unique in the repository; unique
        // secondaries reject like uniques.
        let mut secs_in = 0;
        if failed.is_none() {
            for s in self.secs.iter_mut() {
                if let Err(dup) = s.tree.insert(Key::project(row, &s.columns), payload) {
                    failed = Some(collision(dup, &s.columns, ConstraintKind::Unique, &s.name));
                    break;
                }
                secs_in += 1;
            }
        }
        let Some(c) = failed else {
            return Ok((1 + self.uniques.len() + self.secs.len()) as u64);
        };
        for s in self.secs.iter_mut().take(secs_in) {
            s.tree.remove(&Key::project(row, &s.columns), payload);
        }
        for (u, udef) in self
            .uniques
            .iter_mut()
            .zip(&schema.uniques)
            .take(uniques_in)
        {
            u.remove(&Key::project(row, &udef.columns), payload);
        }
        self.pk.remove(&Key::project(row, pk_cols), payload);
        Err(c)
    }
}

/// Result of applying a batch of rows.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutcome {
    /// Rows applied (the prefix before any error).
    pub applied: usize,
    /// The failing offset and error, if the batch stopped early.
    pub failed: Option<(usize, DbError)>,
}

impl BatchOutcome {
    /// `true` if every row applied.
    pub fn is_complete(&self) -> bool {
        self.failed.is_none()
    }
}

/// What one write segment of [`Engine::insert_batch`] did.
#[derive(Debug, Default)]
struct Segment {
    /// Rows appended and indexed.
    rows: usize,
    /// Index entries made for them.
    entries: u64,
    /// Distinct heap pages written, in row order (a row that failed its
    /// key checks after the append included).
    pages: Vec<u32>,
    /// The row that stopped the segment, if one failed.
    failed: Option<DbError>,
    /// The segment's last row opened the page that is due a writer cycle.
    writer_cycle: bool,
}

/// Result of a read-committed query: the visible rows plus how many heap
/// candidates the executor examined — the serving tier charges per-row
/// scan CPU ([`DbConfig::scan_row_cpu`]) for exactly that count.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// Rows visible at read-committed isolation.
    pub rows: Vec<Row>,
    /// Heap rows examined to produce them (pre-filter candidate count).
    pub examined: u64,
}

/// The database engine.
pub struct Engine {
    cfg: DbConfig,
    catalog: RwLock<Catalog>,
    tables: RwLock<Vec<Arc<TableState>>>,
    cache: BufferPool,
    wal: Wal,
    txns: TxnManager,
    locks: RwLock<LockManager>,
    farm: DiskFarm,
    stats: EngineStats,
    /// The observability registry backing [`EngineStats`] and the cache /
    /// WAL / txn counters. The server attaches itself to the same registry
    /// by default, so one snapshot covers the whole stack.
    obs: Arc<skyobs::Registry>,
    dirty_events: AtomicUsize,
    /// Waits out modeled per-row SQL-layer service *while the table insert
    /// slot is held*, so lock contention sees realistic hold times.
    service_waiter: skysim::time::Waiter,
    row_service: skysim::metrics::TimeCharge,
}

impl Engine {
    /// A fresh engine with the given configuration and its own private
    /// observability registry.
    pub fn new(cfg: DbConfig) -> Self {
        Engine::with_obs(cfg, Arc::new(skyobs::Registry::new()))
    }

    /// A fresh engine registering its counters in the given registry —
    /// used when a coordinator wants one registry spanning several engine
    /// generations (chaos recovery) or the whole loader stack.
    pub fn with_obs(cfg: DbConfig, obs: Arc<skyobs::Registry>) -> Self {
        let farm = if cfg.separate_devices {
            DiskFarm::separated(cfg.disk, cfg.scale)
        } else {
            DiskFarm::shared(cfg.disk, cfg.scale)
        };
        Engine {
            cache: BufferPool::new(cfg.cache_pages, cfg.per_frame_scan, cfg.scale, &obs),
            wal: Wal::new(cfg.log_buffer_bytes, &obs),
            txns: TxnManager::new(cfg.max_concurrent_txns, &obs),
            locks: RwLock::new(LockManager::new(
                0,
                cfg.table_insert_slots,
                cfg.lock_wait_penalty,
                cfg.scale,
                &obs,
            )),
            farm,
            stats: EngineStats::new(&obs),
            obs,
            dirty_events: AtomicUsize::new(0),
            service_waiter: skysim::time::Waiter::new(cfg.scale),
            row_service: skysim::metrics::TimeCharge::new(),
            catalog: RwLock::new(Catalog::new()),
            tables: RwLock::new(Vec::new()),
            cfg,
        }
    }

    /// A test engine (no modeled costs, generous limits).
    pub fn for_tests() -> Self {
        Engine::new(DbConfig::test())
    }

    /// The observability registry this engine's counters live in.
    pub fn obs(&self) -> &Arc<skyobs::Registry> {
        &self.obs
    }

    /// The configuration this engine runs with.
    pub fn config(&self) -> &DbConfig {
        &self.cfg
    }

    // ------------------------------------------------------------------ DDL

    /// Create a table. Parent tables of its foreign keys must exist.
    pub fn create_table(&self, schema: TableSchema) -> DbResult<TableId> {
        // Lock order must match the insert path, which holds the lock
        // manager (insert slot) and then touches the catalog (FK targets)
        // and table state: locks → catalog → tables. Acquiring them in
        // the opposite order deadlocks a concurrent DDL — e.g. a serving
        // tier materializing a MyDB result table — against a running
        // batch insert.
        let mut locks = self.locks.write();
        let mut catalog = self.catalog.write();
        let id = catalog.add_table(schema)?;
        let schema = Arc::new(catalog.table(id).clone());
        let pk_width: usize = schema
            .primary_key
            .iter()
            .map(|&c| schema.columns[c].dtype.width_hint() + 1)
            .sum();
        let uniques = schema
            .uniques
            .iter()
            .map(|u| {
                let w: usize = u
                    .columns
                    .iter()
                    .map(|&c| schema.columns[c].dtype.width_hint() + 1)
                    .sum();
                RwLock::new(BPlusTree::with_key_width(true, w))
            })
            .collect();
        let state = Arc::new(TableState {
            heap: Mutex::new(TableHeap::new(id)),
            pk: RwLock::new(BPlusTree::with_key_width(true, pk_width)),
            uniques,
            secondaries: RwLock::new(Vec::new()),
            schema: RwLock::new(schema),
        });
        let mut tables = self.tables.write();
        tables.push(state);
        locks.ensure_tables(tables.len(), self.cfg.table_insert_slots);
        Ok(id)
    }

    /// Look up a table id by name.
    pub fn table_id(&self, name: &str) -> DbResult<TableId> {
        self.catalog
            .read()
            .table_id(name)
            .ok_or_else(|| DbError::NoSuchTable(name.into()))
    }

    /// The schema of `table`.
    pub fn schema(&self, table: TableId) -> Arc<TableSchema> {
        self.tables.read()[table.index()].schema()
    }

    /// All table ids in parent-before-child order.
    pub fn tables_topological(&self) -> Vec<TableId> {
        self.catalog.read().topological_order()
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.tables.read().len()
    }

    fn state(&self, table: TableId) -> Arc<TableState> {
        self.tables.read()[table.index()].clone()
    }

    /// Create a secondary index over the named columns, bulk-building it
    /// from existing rows (this is the §4.5.1 "rebuild after the catch-up
    /// phase" path).
    pub fn create_index(
        &self,
        table: &str,
        index_name: &str,
        columns: &[&str],
        unique: bool,
    ) -> DbResult<()> {
        let tid = self.table_id(table)?;
        let ts = self.state(tid);
        let schema = ts.schema();
        let cols: Vec<usize> = columns
            .iter()
            .map(|c| {
                schema.column_index(c).ok_or_else(|| DbError::NoSuchColumn {
                    table: table.into(),
                    column: (*c).into(),
                })
            })
            .collect::<DbResult<_>>()?;
        {
            let secs = ts.secondaries.read();
            if secs.iter().any(|s| s.name == index_name) {
                return Err(DbError::AlreadyExists(index_name.into()));
            }
        }
        // Build sorted entries from the current heap contents.
        let mut entries: Vec<(Key, u64)> = Vec::new();
        {
            let heap = ts.heap.lock();
            for (rid, bytes) in heap.scan() {
                let mut slice = bytes;
                let row = decode_row(&mut slice)?;
                entries.push((Key::project(&row, &cols), rid.packed()));
            }
        }
        entries.sort();
        if unique {
            for w in entries.windows(2) {
                if w[0].0 == w[1].0 && !w[0].0.has_null() {
                    return Err(DbError::constraint(
                        ConstraintKind::Unique,
                        index_name,
                        table,
                        format!("duplicate key {} while building unique index", w[0].0),
                    ));
                }
            }
        }
        let width: usize = cols
            .iter()
            .map(|&c| schema.columns[c].dtype.width_hint() + 1)
            .sum();
        let mut tree = BPlusTree::bulk_build(unique, order_for_key_width(width), entries);
        // Building writes every node once, sequentially.
        let built = tree.take_dirty() as u64;
        if built > 0 {
            self.farm
                .device(StorageRole::Index)
                .write_run(built, Access::Sequential);
        }
        ts.secondaries.write().push(SecondaryIndex {
            name: index_name.into(),
            columns: cols,
            tree,
        });
        Ok(())
    }

    /// Drop a secondary index (the §4.5.1 load-phase optimization).
    pub fn drop_index(&self, table: &str, index_name: &str) -> DbResult<()> {
        let tid = self.table_id(table)?;
        let ts = self.state(tid);
        let mut secs = ts.secondaries.write();
        let pos = secs
            .iter()
            .position(|s| s.name == index_name)
            .ok_or_else(|| DbError::NoSuchIndex(index_name.into()))?;
        secs.remove(pos);
        Ok(())
    }

    /// Atomically swap table **name bindings** pairwise — the shadow→live
    /// promotion of a reprocessing campaign. For each `(live, shadow)` pair
    /// the physical table currently answering to `live` is demoted to the
    /// `shadow` name and vice versa; every FK reference crossing the pair
    /// set is rewritten so the FK graph over physical table ids never
    /// changes (see [`Catalog::swap_names`]).
    ///
    /// Holds the lock manager and catalog write locks in the same order as
    /// `create_table` (locks → catalog → tables), so the rebind is atomic
    /// against concurrent inserts and queries: any reader resolving a name
    /// sees the full old binding or the full new binding, never a mix.
    /// Physical state (heaps, B+-trees, the WAL, which replays by table id)
    /// is untouched, which is what makes the swap O(pairs) and crash-safe:
    /// a recovered engine replays rows into the same ids and the campaign
    /// manifest decides whether to re-apply the rebind.
    ///
    /// Returns the `(live_id, shadow_id)` pairs as bound before the swap.
    pub fn swap_tables(&self, pairs: &[(String, String)]) -> DbResult<Vec<(TableId, TableId)>> {
        let _locks = self.locks.write();
        let mut catalog = self.catalog.write();
        let ids = catalog.swap_names(pairs)?;
        // Refresh every cached schema snapshot: the swapped tables changed
        // name, and any table whose FK parents were swapped had its
        // parent_table strings rewritten.
        let tables = self.tables.read();
        for (id, schema) in catalog.iter() {
            *tables[id.index()].schema.write() = Arc::new(schema.clone());
        }
        self.stats.table_swaps.inc();
        Ok(ids)
    }

    /// Names of the secondary indexes on `table`.
    pub fn index_names(&self, table: &str) -> DbResult<Vec<String>> {
        let tid = self.table_id(table)?;
        let ts = self.state(tid);
        let secs = ts.secondaries.read();
        Ok(secs.iter().map(|s| s.name.clone()).collect())
    }

    // ----------------------------------------------------------------- txns

    /// Begin a transaction (blocks at the engine's concurrency limit).
    pub fn begin(&self) -> TxnId {
        let txn = self.txns.begin();
        self.wal
            .append(&LogRecord::Begin(txn), self.farm.device(StorageRole::Log));
        txn
    }

    /// Commit: synchronous log flush + commit processing cost.
    pub fn commit(&self, txn: TxnId) -> DbResult<()> {
        if !self.txns.is_active(txn) {
            return Err(DbError::NoTransaction);
        }
        let log_dev = self.farm.device(StorageRole::Log);
        self.wal.append(&LogRecord::Commit(txn), log_dev);
        // A torn log means the server crashed mid-flush: this commit can
        // never be durable, so it must not be acknowledged.
        self.wal.flush_sync(log_dev)?;
        self.txns.end(txn);
        self.stats.commits.inc();
        Ok(())
    }

    /// Fault injection: a crash in the middle of the commit's log flush.
    ///
    /// The commit record is appended, but the flush tears `torn_tail` bytes
    /// short of its end — the transaction is *not* durably committed and a
    /// redo scan drops all its work, along with any commit another session
    /// appended after it (whose own flush then fails). The transaction is
    /// deliberately left open (the crashed server never answered), so
    /// engine-side state matches what a power cut at this instant would
    /// leave: recovery must come from [`Engine::recover_from_log`] on
    /// [`Engine::durable_log`].
    pub fn simulate_torn_commit_flush(&self, txn: TxnId, torn_tail: usize) -> DbResult<()> {
        if !self.txns.is_active(txn) {
            return Err(DbError::NoTransaction);
        }
        let log_dev = self.farm.device(StorageRole::Log);
        let end = self.wal.append(&LogRecord::Commit(txn), log_dev);
        self.wal.flush_torn(log_dev, end, torn_tail);
        Ok(())
    }

    /// Roll back: reverse every write of the transaction.
    pub fn rollback(&self, txn: TxnId) -> DbResult<()> {
        if !self.txns.is_active(txn) {
            return Err(DbError::NoTransaction);
        }
        // Reverse from a *copy* of the undo log, keeping the log itself in
        // place until the transaction ends: committed-read queries hide
        // exactly the rows recorded in *active* transactions' undo logs,
        // and the insert path attributes staged index entries to their
        // owner through the same records. Draining the log first would
        // open a window where a half-reversed row is neither hidden nor
        // attributed — a concurrent same-key insert would misread the
        // doomed entry as a committed duplicate and skip a row that is
        // about to vanish.
        let undo = self.txns.snapshot_undo(txn);
        for op in undo.into_iter().rev() {
            match op {
                UndoOp::Insert { table, row_id } => {
                    self.remove_row_physical(table, row_id);
                }
                UndoOp::Delete { table, row } => {
                    // The original insert is still committed in the log;
                    // undoing the (never-committed) delete is in-memory only.
                    self.reinsert_unlogged(table, &row);
                }
            }
        }
        self.txns.end(txn);
        self.wal.append(
            &LogRecord::Rollback(txn),
            self.farm.device(StorageRole::Log),
        );
        self.stats.rollbacks.inc();
        Ok(())
    }

    /// Remove a row from heap + all indexes, returning it if it existed.
    fn remove_row_physical(&self, table: TableId, row_id: RowId) -> Option<Row> {
        let ts = self.state(table);
        let row = {
            let mut heap = ts.heap.lock();
            let bytes = heap.get(row_id).map(<[u8]>::to_vec)?;
            heap.delete(row_id);
            let mut slice = bytes.as_slice();
            decode_row(&mut slice).ok()?
        };
        let payload = row_id.packed();
        let schema = ts.schema();
        ts.pk
            .write()
            .remove(&Key::project(&row, &schema.primary_key), payload);
        for (u, udef) in ts.uniques.iter().zip(schema.uniques.iter()) {
            u.write()
                .remove(&Key::project(&row, &udef.columns), payload);
        }
        let mut secs = ts.secondaries.write();
        for s in secs.iter_mut() {
            s.tree.remove(&Key::project(&row, &s.columns), payload);
        }
        Some(row)
    }

    /// Physically re-insert a previously deleted row (rollback of a delete;
    /// bypasses constraint checks and the WAL — the row was valid before).
    fn reinsert_unlogged(&self, table: TableId, row: &[Value]) {
        let ts = self.state(table);
        let rid = ts.heap.lock().insert_framed(frame_row(row)).row_id;
        self.cache
            .note_write((table, rid.page()), self.farm.device(StorageRole::Data));
        let payload = rid.packed();
        let schema = ts.schema();
        ts.pk
            .write()
            .insert(Key::project(row, &schema.primary_key), payload)
            .expect("reinserted PK was unique before the delete");
        for (u, udef) in ts.uniques.iter().zip(schema.uniques.iter()) {
            u.write()
                .insert(Key::project(row, &udef.columns), payload)
                .expect("reinserted unique key was unique before the delete");
        }
        let mut secs = ts.secondaries.write();
        for s in secs.iter_mut() {
            let _ = s.tree.insert(Key::project(row, &s.columns), payload);
        }
    }

    // --------------------------------------------------------------- delete

    /// Delete every row of `table` matching `filter` (all rows if `None`),
    /// under `txn`, enforcing **RESTRICT** semantics: if any other table
    /// holds a foreign-key reference to a row being deleted, the statement
    /// fails atomically with a foreign-key violation.
    ///
    /// Returns the number of rows deleted.
    ///
    /// Deletes are maintenance operations: the RESTRICT check and the
    /// physical deletes are not atomic against *concurrent* inserts into
    /// child tables, so run them while no loaders are writing the affected
    /// tables.
    pub fn delete_where(&self, txn: TxnId, table: TableId, filter: Option<&Expr>) -> DbResult<u64> {
        let ts = self.state(table);
        // 1. Collect victims.
        let mut victims: Vec<(RowId, Row)> = Vec::new();
        {
            let heap = ts.heap.lock();
            for (rid, bytes) in heap.scan() {
                let mut slice = bytes;
                let row = decode_row(&mut slice)?;
                let hit = match filter {
                    Some(f) => f.eval_truth(&row)?.selects(),
                    None => true,
                };
                if hit {
                    victims.push((rid, row));
                }
            }
        }
        if victims.is_empty() {
            return Ok(0);
        }
        // 2. RESTRICT: no child row may reference a victim.
        let schema = ts.schema();
        let victim_keys: std::collections::BTreeSet<Key> = victims
            .iter()
            .map(|(_, row)| Key::project(row, &schema.primary_key))
            .collect();
        let table_name = schema.name.clone();
        let catalog = self.catalog.read();
        let children: Vec<(TableId, String, Vec<usize>)> = catalog
            .iter()
            .flat_map(|(child_id, child)| {
                child
                    .foreign_keys
                    .iter()
                    .filter(|fk| fk.parent_table == table_name)
                    .map(move |fk| (child_id, fk.name.clone(), fk.columns.clone()))
            })
            .collect();
        drop(catalog);
        for (child_id, fk_name, fk_cols) in children {
            let child_ts = self.state(child_id);
            let heap = child_ts.heap.lock();
            for (_, bytes) in heap.scan() {
                let mut slice = bytes;
                let child_row = decode_row(&mut slice)?;
                let key = Key::project(&child_row, &fk_cols);
                if !key.has_null() && victim_keys.contains(&key) {
                    self.stats.fk_violations.inc();
                    return Err(DbError::constraint(
                        ConstraintKind::ForeignKey,
                        fk_name,
                        &child_ts.schema().name,
                        format!("child row references {table_name} key {key} being deleted"),
                    ));
                }
            }
        }
        // 3. Delete, log, and record undo.
        let log_dev = self.farm.device(StorageRole::Log);
        let n = victims.len() as u64;
        for (rid, row) in victims {
            let removed = self.remove_row_physical(table, rid);
            debug_assert!(removed.is_some(), "victim vanished mid-delete");
            let pk_values = Key::project(&row, &schema.primary_key).0;
            let mut pk_bytes = bytes::BytesMut::with_capacity(32);
            encode_row(&pk_values, &mut pk_bytes);
            self.wal.append(
                &LogRecord::Delete {
                    txn,
                    table,
                    pk: pk_bytes.to_vec().into_boxed_slice(),
                },
                log_dev,
            );
            self.txns.push_undo(txn, UndoOp::Delete { table, row });
            self.stats.rows_deleted.inc();
        }
        Ok(n)
    }

    /// Delete one row by primary key (recovery redo path; no WAL, no undo).
    fn delete_by_pk_unlogged(&self, table: TableId, key: &Key) -> bool {
        let ts = self.state(table);
        let Some(payload) = ts.pk.read().get_first(key) else {
            return false;
        };
        self.remove_row_physical(table, RowId::from_packed(payload))
            .is_some()
    }

    // --------------------------------------------------------------- insert

    /// Classify a key collision: if the entry already holding the key was
    /// staged by *another still-active* transaction, whether it is a real
    /// duplicate is unknowable until that transaction resolves — commit
    /// makes it a duplicate, rollback makes the key free. Reporting it as
    /// a constraint violation would let a bulk loader "skip the duplicate"
    /// and lose the row forever if the owner then rolls back (the lease
    /// takeover race: a new holder reloads lines whose rows a fenced
    /// zombie has staged but will never commit). Instead return a
    /// retryable [`DbError::WriteConflict`] — the analogue of a row-lock
    /// wait in a disk RDBMS. Collisions with committed rows (or with the
    /// inserting transaction itself) keep their constraint-violation
    /// semantics.
    ///
    /// Called while the table's write locks are held: removing the
    /// incumbent (a rollback) needs them too, so the owner lookup is
    /// atomic with the collision itself.
    fn classify_collision(
        &self,
        table: TableId,
        txn: TxnId,
        schema: &TableSchema,
        c: Collision,
    ) -> DbError {
        match self.txns.insert_owner(table, c.incumbent) {
            Some(owner) if owner != txn => DbError::WriteConflict(format!(
                "key {} is staged by in-flight transaction {}; retry once it resolves",
                c.key, owner.0
            )),
            _ => DbError::constraint(
                c.kind,
                c.name,
                &schema.name,
                format!("duplicate key {}", c.key),
            ),
        }
    }

    /// Count a rejected row under the counter of its error kind.
    fn count_rejection(&self, e: &DbError) {
        let stats = &self.stats;
        let counter = match e {
            // A conflict is not a bad row: the loader retries it.
            DbError::WriteConflict(_) => {
                stats.write_conflicts.inc();
                return;
            }
            DbError::ArityMismatch { .. } | DbError::TypeMismatch { .. } => &stats.type_errors,
            _ => match e.constraint_kind() {
                Some(ConstraintKind::NotNull) => &stats.not_null_violations,
                Some(ConstraintKind::Check) => &stats.check_violations,
                Some(ConstraintKind::ForeignKey) => &stats.fk_violations,
                Some(ConstraintKind::PrimaryKey) => &stats.pk_violations,
                Some(ConstraintKind::Unique) => &stats.unique_violations,
                None => return,
            },
        };
        counter.inc();
        stats.rows_rejected.inc();
    }

    /// The parent table of each of `schema`'s foreign keys, in declaration
    /// order, resolved under one catalog read.
    fn fk_parents(&self, schema: &TableSchema) -> Vec<Arc<TableState>> {
        if schema.foreign_keys.is_empty() {
            return Vec::new();
        }
        let catalog = self.catalog.read();
        let tables = self.tables.read();
        schema
            .foreign_keys
            .iter()
            .map(|fk| {
                let id = catalog
                    .table_id(&fk.parent_table)
                    .expect("catalog validated FK targets");
                tables[id.index()].clone()
            })
            .collect()
    }

    /// The checks that need no lock of the table itself: arity, types,
    /// NOT NULL, CHECK constraints, and each foreign key's parent probe.
    fn check_row(
        &self,
        schema: &TableSchema,
        parents: &[Arc<TableState>],
        row: &[Value],
    ) -> DbResult<()> {
        // 1. Arity.
        if row.len() != schema.columns.len() {
            return Err(DbError::ArityMismatch {
                table: schema.name.clone(),
                expected: schema.columns.len(),
                got: row.len(),
            });
        }
        // 2. Types + NOT NULL (primary-key columns are implicitly NOT NULL).
        for (i, (v, c)) in row.iter().zip(schema.columns.iter()).enumerate() {
            if v.is_null() {
                if !c.nullable || schema.primary_key.contains(&i) {
                    return Err(DbError::constraint(
                        ConstraintKind::NotNull,
                        format!("nn_{}_{}", schema.name, c.name),
                        &schema.name,
                        format!("column {} is NULL", c.name),
                    ));
                }
                continue;
            }
            if let Err(detail) = v.matches_type(c.dtype) {
                return Err(DbError::TypeMismatch {
                    table: schema.name.clone(),
                    column: c.name.clone(),
                    detail,
                });
            }
        }
        // 3. CHECK constraints.
        for chk in &schema.checks {
            let passes = chk
                .expr
                .eval_truth(row)
                .map(|t| t.passes_check())
                .unwrap_or(false);
            if !passes {
                return Err(DbError::constraint(
                    ConstraintKind::Check,
                    &chk.name,
                    &schema.name,
                    format!("check {} failed", chk.name),
                ));
            }
        }
        // 4. Foreign keys.
        for (fk, parent) in schema.foreign_keys.iter().zip(parents) {
            let key = Key::project(row, &fk.columns);
            if key.has_null() {
                continue; // SQL: NULL FK components pass
            }
            if !parent.pk.read().contains_key(&key) {
                return Err(DbError::constraint(
                    ConstraintKind::ForeignKey,
                    &fk.name,
                    &schema.name,
                    format!("no parent row {} in {}", key, fk.parent_table),
                ));
            }
        }
        Ok(())
    }

    /// Validate and insert one row under `txn` — the one-row case of
    /// [`Engine::insert_batch`]. On failure nothing is left behind.
    pub fn insert_row(&self, txn: TxnId, table: TableId, row: &[Value]) -> DbResult<()> {
        match self.insert_batch(txn, table, &[row]).failed {
            None => Ok(()),
            Some((_, e)) => Err(e),
        }
    }

    /// Validate and insert `rows` under `txn`, in order, with JDBC
    /// semantics: the first failing row stops the batch, the rows before
    /// it stay applied, and the failing row leaves no heap slot, index
    /// entry, undo entry or WAL record. This is the engine's only write
    /// path; [`Engine::insert_row`] is its one-row case.
    ///
    /// Work is done once per batch where it can be: one schema snapshot,
    /// one resolution of the foreign-key parents, one encode of each row
    /// (straight into the CRC-framed allocation the heap keeps, whose
    /// payload the WAL record copies), one publication of the counters.
    /// The lock-free checks of every row (arity, types, NOT NULL, CHECK,
    /// FK probes) run before any table lock is taken; a table is never its
    /// own FK parent (the catalog defines parents first), so checking a row
    /// before the rows ahead of it are written sees what row-at-a-time
    /// inserts would. The rows are then written in *segments* — runs that
    /// end at a row which triggers a database-writer cycle, so usually the
    /// whole batch. A segment takes the heap lock and the PK, UNIQUE and
    /// secondary tree write locks once, in the order `scrub_table` uses,
    /// appends and indexes its rows in order, and records their undo
    /// entries *before* releasing any of those locks: a reader that can
    /// reach a row also sees it as uncommitted. The segment's WAL records
    /// follow under one log lock, then one `note_write` per distinct page,
    /// then the writer cycle — at the row at which row-at-a-time inserts
    /// would run it.
    pub fn insert_batch<R: AsRef<[Value]>>(
        &self,
        txn: TxnId,
        table: TableId,
        rows: &[R],
    ) -> BatchOutcome {
        let ts = self.state(table);
        let schema = ts.schema();
        let parents = self.fk_parents(&schema);

        // Checks that need no table lock, and the one encode of each row.
        let mut failed = None;
        let mut framed = Vec::with_capacity(rows.len());
        for (i, row) in rows.iter().enumerate() {
            if let Err(e) = self.check_row(&schema, &parents, row.as_ref()) {
                failed = Some((i, e));
                break;
            }
            framed.push(frame_row(row.as_ref()));
        }
        let checked = framed.len();
        let payload_bytes = framed.iter().map(|f| f.len() - ROW_CRC_BYTES).sum();
        let mut staged = StagedInserts::with_capacity(checked, payload_bytes);
        for f in &framed {
            staged.push(txn, table, &f[ROW_CRC_BYTES..]);
        }

        let log_dev = self.farm.device(StorageRole::Log);
        let data_dev = self.farm.device(StorageRole::Data);
        let mut framed = framed.into_iter();
        let mut applied = 0usize;
        let mut entries = 0u64;
        while applied < checked {
            let seg = self.write_segment(
                txn,
                table,
                &ts,
                &schema,
                &rows[applied..checked],
                &mut framed,
            );
            let start = applied;
            applied += seg.rows;
            entries += seg.entries;
            self.wal.append_staged(&staged, start..applied, log_dev);
            for &page in &seg.pages {
                self.cache.note_write((table, page), data_dev);
            }
            if let Some(e) = seg.failed {
                failed = Some((applied, e));
                break;
            }
            if seg.writer_cycle {
                self.writer_cycle();
            }
        }

        if let Some((_, e)) = &failed {
            self.count_rejection(e);
        }
        self.stats.rows_inserted.add(applied as u64);
        self.stats.index_entries.add(entries);
        BatchOutcome { applied, failed }
    }

    /// Append and index `rows` (already checked, and framed in `framed`)
    /// under one hold of the table's write locks, stopping after a row
    /// that triggers a writer cycle or at a row whose key collides.
    fn write_segment<R: AsRef<[Value]>>(
        &self,
        txn: TxnId,
        table: TableId,
        ts: &TableState,
        schema: &TableSchema,
        rows: &[R],
        framed: &mut std::vec::IntoIter<Box<[u8]>>,
    ) -> Segment {
        let mut locked = ts.lock_for_write();
        let mut seg = Segment::default();
        let mut rids = Vec::with_capacity(rows.len());
        for (row, stored) in rows.iter().zip(framed) {
            let ins = locked.heap.insert_framed(stored);
            let rid = ins.row_id;
            if seg.pages.last() != Some(&rid.page()) {
                seg.pages.push(rid.page());
            }
            match locked.insert_keys(schema, row.as_ref(), rid.packed()) {
                Ok(entries) => seg.entries += entries,
                Err(c) => {
                    locked.heap.withdraw_last(rid);
                    seg.failed = Some(self.classify_collision(table, txn, schema, c));
                    break;
                }
            }
            rids.push(rid);
            if ins.new_page {
                let events = self.dirty_events.fetch_add(1, Ordering::Relaxed) + 1;
                if events.is_multiple_of(self.cfg.writer_interval_pages) {
                    seg.writer_cycle = true;
                    break;
                }
            }
        }
        seg.rows = rids.len();
        // Before any lock is released: see `insert_batch`.
        self.txns.push_insert_undo(txn, table, &rids);
        seg
    }

    /// Apply a batch of rows with JDBC semantics, holding one table insert
    /// slot for the duration of the call.
    pub fn apply_batch(&self, txn: TxnId, table: TableId, rows: &[Row]) -> BatchOutcome {
        self.stats.batch_calls.inc();
        let locks = self.locks.read();
        let _slot = locks.acquire_insert_slot(table);
        let outcome = self.insert_batch(txn, table, rows);
        // The SQL layer worked on every attempted row (the failing row is
        // detected only after its execution); that service time is paid
        // while the insert slot is held, which is what makes high
        // parallelism contend on hot tables (§4.4).
        let attempted = outcome.applied + usize::from(outcome.failed.is_some());
        self.charge_row_service(table, attempted);
        outcome
    }

    /// Apply a single insert (the non-bulk baseline path).
    pub fn apply_single(&self, txn: TxnId, table: TableId, row: &[Value]) -> DbResult<()> {
        self.stats.single_calls.inc();
        let locks = self.locks.read();
        let _slot = locks.acquire_insert_slot(table);
        let result = self.insert_row(txn, table, row);
        self.charge_row_service(table, 1);
        result
    }

    /// Charge (and, at nonzero time scale, wait out) the modeled SQL-layer
    /// service for `n` rows on `table`.
    fn charge_row_service(&self, table: TableId, n: usize) {
        if n == 0 {
            return;
        }
        let per_row = self.cfg.per_row_cpu + self.maintenance_cost(table);
        let service = Duration::from_nanos(per_row.as_nanos() as u64 * n as u64);
        self.row_service.charge(service);
        self.service_waiter.wait(service);
    }

    /// Total modeled per-row SQL-layer service time.
    pub fn row_service_time(&self) -> Duration {
        self.row_service.duration()
    }

    /// Run one database-writer cycle (cache scan + dirty flush + index
    /// dirty-node writes).
    pub fn writer_cycle(&self) {
        self.cache.writer_cycle(self.farm.device(StorageRole::Data));
        self.flush_index_dirty();
    }

    fn flush_index_dirty(&self) {
        let tables = self.tables.read();
        let idx_dev = self.farm.device(StorageRole::Index);
        for ts in tables.iter() {
            let mut dirty = ts.pk.write().take_dirty() as u64;
            for u in &ts.uniques {
                dirty += u.write().take_dirty() as u64;
            }
            for s in ts.secondaries.write().iter_mut() {
                dirty += s.tree.take_dirty() as u64;
            }
            if dirty > 0 {
                // Index leaves dirtied by scattered keys land scattered on
                // disk: random access.
                idx_dev.write_run(dirty, Access::Random);
            }
        }
    }

    /// Flush everything (end-of-load checkpoint so runs account all I/O).
    pub fn checkpoint(&self) {
        self.writer_cycle();
        // A torn log takes no more bytes; there is nothing to account.
        let _ = self.wal.flush_sync(self.farm.device(StorageRole::Log));
    }

    // --------------------------------------------------------------- query

    /// Full scan with an optional filter.
    pub fn scan_where(&self, table: TableId, filter: Option<&Expr>) -> DbResult<Vec<Row>> {
        let ts = self.state(table);
        let heap = ts.heap.lock();
        let data_dev = self.farm.device(StorageRole::Data);
        let mut out = Vec::new();
        let mut last_page = u32::MAX;
        for (rid, bytes) in heap.scan_checked() {
            if rid.page() != last_page {
                last_page = rid.page();
                self.stats.scan_pages.inc();
                self.cache.note_read((table, rid.page()), data_dev);
            }
            let bytes = bytes.map_err(|()| self.rotted(&ts, rid))?;
            let mut slice = bytes;
            let row = decode_row(&mut slice)?;
            let keep = match filter {
                Some(f) => f.eval_truth(&row)?.selects(),
                None => true,
            };
            if keep {
                out.push(row);
            }
        }
        Ok(out)
    }

    /// Point lookup by primary key.
    pub fn pk_get(&self, table: TableId, key: &Key) -> DbResult<Option<Row>> {
        let ts = self.state(table);
        let Some(payload) = ts.pk.read().get_first(key) else {
            return Ok(None);
        };
        self.fetch_row(&ts, table, RowId::from_packed(payload))
            .map(Some)
    }

    /// Range scan over a secondary index, returning matching rows in key
    /// order.
    pub fn index_range(
        &self,
        table: &str,
        index_name: &str,
        lo: &Key,
        hi: &Key,
    ) -> DbResult<Vec<Row>> {
        let tid = self.table_id(table)?;
        let ts = self.state(tid);
        let secs = ts.secondaries.read();
        let idx = secs
            .iter()
            .find(|s| s.name == index_name)
            .ok_or_else(|| DbError::NoSuchIndex(index_name.into()))?;
        let hits = idx.tree.range(lo, hi);
        drop(secs);
        hits.into_iter()
            .map(|(_, p)| self.fetch_row(&ts, tid, RowId::from_packed(p)))
            .collect()
    }

    /// The at-rest error for a row whose stored CRC failed. Reads *never*
    /// decode rotted bytes into a served row: better a loud
    /// [`DbError::DataCorruption`] than plausible-looking garbage.
    fn rotted(&self, ts: &TableState, rid: RowId) -> DbError {
        self.stats.rot_detected.inc();
        DbError::DataCorruption(format!(
            "stored row {rid:?} of table {} failed its CRC; scrub and repair required",
            ts.schema().name
        ))
    }

    fn fetch_row(&self, ts: &TableState, table: TableId, rid: RowId) -> DbResult<Row> {
        self.cache
            .note_read((table, rid.page()), self.farm.device(StorageRole::Data));
        let heap = ts.heap.lock();
        let bytes = match heap.get_checked(rid) {
            None => return Err(DbError::Protocol(format!("dangling row id {rid:?}"))),
            Some(Err(())) => return Err(self.rotted(ts, rid)),
            Some(Ok(b)) => b,
        };
        let mut slice = bytes;
        decode_row(&mut slice)
    }

    /// As [`Engine::fetch_row`], but a dangling id — a row removed by a
    /// concurrent rollback between the index read and the heap fetch — is
    /// `None` rather than an error. (A quarantined row is also simply gone:
    /// the scrubber de-indexes before the index probe, or the probe's stale
    /// payload dangles here — either way the reader never sees rot.)
    fn fetch_row_opt(&self, ts: &TableState, table: TableId, rid: RowId) -> DbResult<Option<Row>> {
        self.cache
            .note_read((table, rid.page()), self.farm.device(StorageRole::Data));
        let heap = ts.heap.lock();
        let bytes = match heap.get_checked(rid) {
            None => return Ok(None),
            Some(Err(())) => return Err(self.rotted(ts, rid)),
            Some(Ok(b)) => b,
        };
        let mut slice = bytes;
        decode_row(&mut slice).map(Some)
    }

    // ------------------------------------------------ read-committed query

    /// Full scan at read-committed isolation: rows inserted by still-active
    /// transactions (an in-flight loader flush, a future rollback) are
    /// invisible. This is what the serving tier runs while the nightly bulk
    /// load is in progress.
    pub fn scan_where_committed(
        &self,
        table: TableId,
        filter: Option<&Expr>,
    ) -> DbResult<QueryOutcome> {
        let ts = self.state(table);
        let heap = ts.heap.lock();
        // The hidden set is taken under the heap lock: a writer records a
        // row's undo entry before it releases that lock, so every row this
        // pass can see is either committed or in the set.
        let hidden = self.txns.uncommitted_inserts(table);
        let data_dev = self.farm.device(StorageRole::Data);
        let mut rows = Vec::new();
        let mut examined = 0u64;
        let mut last_page = u32::MAX;
        for (rid, bytes) in heap.scan_checked() {
            if rid.page() != last_page {
                last_page = rid.page();
                self.stats.scan_pages.inc();
                self.cache.note_read((table, rid.page()), data_dev);
            }
            examined += 1;
            if hidden.contains(&rid.packed()) {
                continue;
            }
            let bytes = bytes.map_err(|()| self.rotted(&ts, rid))?;
            let mut slice = bytes;
            let row = decode_row(&mut slice)?;
            let keep = match filter {
                Some(f) => f.eval_truth(&row)?.selects(),
                None => true,
            };
            if keep {
                rows.push(row);
            }
        }
        Ok(QueryOutcome { rows, examined })
    }

    /// Read-committed scan addressed by table *name*, with the name
    /// resolution and the scan inside one catalog read-guard.
    ///
    /// This is the **season pin** behind [`Engine::swap_tables`]'
    /// atomicity promise to readers: `swap_tables` rebinds names under
    /// `catalog.write()`, so holding `catalog.read()` across resolve +
    /// scan means every named scan executes entirely against one
    /// binding generation — it can never resolve the pre-swap season and
    /// read the post-swap (or mid-purge) heap. A two-step client
    /// (`table_id` then [`Engine::scan_where_committed`]) cannot make
    /// that promise.
    pub fn scan_named_committed(
        &self,
        table: &str,
        filter: Option<&Expr>,
    ) -> DbResult<QueryOutcome> {
        let catalog = self.catalog.read();
        let tid = catalog
            .table_id(table)
            .ok_or_else(|| DbError::NoSuchTable(table.into()))?;
        // Scan while the guard is live (heap/tables locks order fine:
        // everything orders after `catalog`, same as `create_table`).
        self.scan_where_committed(tid, filter)
    }

    /// Point lookup by primary key at read-committed isolation.
    pub fn pk_get_committed(&self, table: TableId, key: &Key) -> DbResult<Option<Row>> {
        let ts = self.state(table);
        let Some(payload) = ts.pk.read().get_first(key) else {
            return Ok(None);
        };
        // Hidden set is taken *after* the index probe: an entry that
        // committed in between is visible (read-committed allows it), and
        // one that rolled back either shows up hidden or is already gone
        // from the heap (`fetch_row_opt` tolerates the latter).
        if self.txns.uncommitted_inserts(table).contains(&payload) {
            return Ok(None);
        }
        self.fetch_row_opt(&ts, table, RowId::from_packed(payload))
    }

    /// Range scan over a secondary index at read-committed isolation,
    /// returning visible rows in key order plus the candidate count
    /// examined (the serving tier charges per-row scan CPU for it).
    pub fn index_range_committed(
        &self,
        table: &str,
        index_name: &str,
        lo: &Key,
        hi: &Key,
    ) -> DbResult<QueryOutcome> {
        let tid = self.table_id(table)?;
        let ts = self.state(tid);
        let secs = ts.secondaries.read();
        let idx = secs
            .iter()
            .find(|s| s.name == index_name)
            .ok_or_else(|| DbError::NoSuchIndex(index_name.into()))?;
        let hits = idx.tree.range(lo, hi);
        drop(secs);
        let hidden = self.txns.uncommitted_inserts(tid);
        let examined = hits.len() as u64;
        let mut rows = Vec::with_capacity(hits.len());
        for (_, p) in hits {
            if hidden.contains(&p) {
                continue;
            }
            if let Some(row) = self.fetch_row_opt(&ts, tid, RowId::from_packed(p))? {
                rows.push(row);
            }
        }
        Ok(QueryOutcome { rows, examined })
    }

    /// The table's name, if the id is valid.
    pub fn table_name(&self, table: TableId) -> Option<String> {
        self.tables
            .read()
            .get(table.index())
            .map(|ts| ts.schema().name.clone())
    }

    /// Every table name currently bound in the catalog, in name order
    /// (the scrubber's default walk order).
    pub fn table_names(&self) -> Vec<String> {
        let catalog = self.catalog.read();
        let mut names: Vec<String> = catalog.iter().map(|(_, s)| s.name.clone()).collect();
        names.sort();
        names
    }

    /// Live row count of a table.
    pub fn row_count(&self, table: TableId) -> u64 {
        self.state(table).heap.lock().row_count()
    }

    /// Allocated heap pages of a table.
    pub fn page_count(&self, table: TableId) -> usize {
        self.state(table).heap.lock().page_count()
    }

    /// Height of the table's primary-key B+-tree (Fig. 9's log factor).
    pub fn pk_height(&self, table: TableId) -> usize {
        self.state(table).pk.read().height()
    }

    // ----------------------------------------------------------- integrity

    /// One scrub pass over a single table (the worker behind
    /// [`crate::scrub::run_scrub`]).
    ///
    /// Holds the table's heap mutex across verify **and** quarantine, so a
    /// racing committed scan — which takes the same mutex for its whole
    /// pass — observes each rotted row either as a loud
    /// [`DbError::DataCorruption`] (before this pass) or not at all (after
    /// quarantine). Never as data. Rows staged by still-open transactions
    /// are skipped: their fate belongs to their transaction.
    pub fn scrub_table(
        &self,
        table: &str,
    ) -> DbResult<(crate::scrub::TableScrub, Vec<crate::scrub::QuarantinedRow>)> {
        let tid = self.table_id(table)?;
        let ts = self.state(tid);
        let mut quarantined = Vec::new();
        let mut rows = 0u64;
        let pages;
        {
            let mut heap = ts.heap.lock();
            // Under the heap lock, as in `scan_where_committed`.
            let hidden = self.txns.uncommitted_inserts(tid);
            pages = heap.page_count() as u64;
            let mut bad = Vec::new();
            for (rid, check) in heap.scan_checked() {
                if hidden.contains(&rid.packed()) {
                    continue;
                }
                rows += 1;
                if check.is_err() {
                    bad.push(rid);
                }
            }
            for rid in bad {
                let payload = rid.packed();
                heap.delete(rid);
                // The heap bytes are rotted, so the row's identity comes
                // from the PK index: its entry mapping key → this payload is
                // the only trustworthy record of which key the row carried.
                let pk_key = ts.pk.write().remove_payload(payload);
                for u in &ts.uniques {
                    u.write().remove_payload(payload);
                }
                for s in ts.secondaries.write().iter_mut() {
                    s.tree.remove_payload(payload);
                }
                self.stats.rows_quarantined.inc();
                quarantined.push(crate::scrub::QuarantinedRow {
                    table: table.to_string(),
                    row_id: payload,
                    pk: pk_key.map(|k| k.0).unwrap_or_default(),
                });
            }
        }
        let mut bad_nodes = 0u64;
        if ts.pk.read().validate().is_err() {
            bad_nodes += 1;
        }
        for u in &ts.uniques {
            if u.read().validate().is_err() {
                bad_nodes += 1;
            }
        }
        for s in ts.secondaries.read().iter() {
            if s.tree.validate().is_err() {
                bad_nodes += 1;
            }
        }
        Ok((
            crate::scrub::TableScrub {
                table: table.to_string(),
                pages,
                rows,
                bad_records: quarantined.len() as u64,
                bad_nodes,
            },
            quarantined,
        ))
    }

    /// Chaos hook: flip one seed-deterministic bit in one committed row of
    /// `table`. Returns the damaged row id, or `None` when the table has no
    /// committed rows. The flip lands in the stored payload, never the CRC
    /// prefix — either damage is detected identically, but payload damage is
    /// the interesting repro (the checksum is *right* and the data wrong).
    pub fn rot_heap_row(&self, table: &str, salt: u64) -> Option<RowId> {
        let tid = self.table_id(table).ok()?;
        let ts = self.state(tid);
        let mut heap = ts.heap.lock();
        let hidden = self.txns.uncommitted_inserts(tid);
        let live: Vec<RowId> = heap
            .scan()
            .map(|(rid, _)| rid)
            .filter(|rid| !hidden.contains(&rid.packed()))
            .collect();
        if live.is_empty() {
            return None;
        }
        let mut rng = SplitMix64::new(salt);
        let rid = live[(rng.next_u64() % live.len() as u64) as usize];
        let byte = rng.next_u64() as usize;
        let bit = (rng.next_u64() & 7) as u8;
        heap.corrupt_row(rid, byte, bit).then_some(rid)
    }

    /// Chaos hook: flip one seed-deterministic bit somewhere in the durable
    /// WAL image. Recovery replay must then stop at the first record whose
    /// CRC fails instead of trusting length framing into garbage. Returns
    /// the damaged byte offset, or `None` when no bytes are durable yet.
    pub fn rot_wal_bit(&self, salt: u64) -> Option<usize> {
        let len = self.wal.durable_len();
        if len == 0 {
            return None;
        }
        let mut rng = SplitMix64::new(salt);
        let byte = (rng.next_u64() % len as u64) as usize;
        let bit = (rng.next_u64() & 7) as u8;
        self.wal.rot_durable_bit(byte, bit).then_some(byte)
    }

    // ----------------------------------------------------- cost model hooks

    /// Modeled CPU to maintain all indexes of `table` for one row: the
    /// per-entry cost scales with key width, so the 3-float composite index
    /// costs more than the 1-int index (Fig. 8).
    pub fn maintenance_cost(&self, table: TableId) -> Duration {
        let ts = self.state(table);
        let schema = ts.schema();
        let per8_nanos = self.cfg.per_index_entry_cpu.as_nanos() as u64;
        let key_width = |cols: &[usize]| -> u64 {
            cols.iter()
                .map(|&c| schema.columns[c].dtype.width_hint() as u64 + 1)
                .sum()
        };
        // Cost scales continuously with key width (per 8 bytes), so a
        // 3-float composite key really costs ~3x a single-int key.
        let mut width_bytes = key_width(&schema.primary_key);
        for u in &schema.uniques {
            width_bytes += key_width(&u.columns);
        }
        for s in ts.secondaries.read().iter() {
            width_bytes += key_width(&s.columns);
        }
        Duration::from_nanos(per8_nanos * width_bytes / 8)
    }

    // ------------------------------------------------------------ recovery

    /// Rebuild an engine from a crashed one's durable log. The catalog is
    /// re-created from `schema_source` (DDL is assumed re-runnable, as with
    /// any deployment's schema scripts); committed inserts are replayed in
    /// log order.
    pub fn recover_from_log(
        cfg: DbConfig,
        schemas: Vec<TableSchema>,
        log: &[u8],
    ) -> DbResult<Engine> {
        Self::recover_from_log_checked(cfg, schemas, log).map(|(engine, _)| engine)
    }

    /// As [`Engine::recover_from_log`], but also reports whether replay
    /// stopped early because a log record failed its CRC. The tail past the
    /// first bad record is discarded exactly like a torn write — the
    /// difference is the caller *knows*, and can widen its repair scope to
    /// everything the log might have held.
    pub fn recover_from_log_checked(
        cfg: DbConfig,
        schemas: Vec<TableSchema>,
        log: &[u8],
    ) -> DbResult<(Engine, bool)> {
        let engine = Engine::new(cfg);
        for s in schemas {
            engine.create_table(s)?;
        }
        let (ops, corrupt) = recover_checked(log);
        let txn = engine.begin();
        for op in ops {
            match op {
                crate::wal::RecoveredOp::Insert { table, row, .. } => {
                    let mut slice = &row[..];
                    let row = decode_row(&mut slice)?;
                    // Replay bypasses nothing: constraints re-checked. A redo
                    // record that now violates indicates corruption; surface it.
                    engine.insert_row(txn, table, &row)?;
                }
                crate::wal::RecoveredOp::Delete { table, pk, .. } => {
                    let mut slice = &pk[..];
                    let key = Key(decode_row(&mut slice)?);
                    engine.delete_by_pk_unlogged(table, &key);
                }
            }
        }
        engine.commit(txn)?;
        Ok((engine, corrupt))
    }

    /// The durable log bytes (what a crash preserves).
    pub fn durable_log(&self) -> Vec<u8> {
        self.wal.durable_log()
    }

    // ------------------------------------------------------------- metrics

    /// Engine counters.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// The block cache.
    pub fn cache(&self) -> &BufferPool {
        &self.cache
    }

    /// The WAL.
    pub fn wal(&self) -> &Wal {
        &self.wal
    }

    /// The disk farm.
    pub fn farm(&self) -> &DiskFarm {
        &self.farm
    }

    /// Lock waits observed on table insert slots.
    pub fn lock_waits(&self) -> u64 {
        self.locks.read().waits()
    }

    /// Total modeled lock-wait time.
    pub fn lock_wait_time(&self) -> Duration {
        self.locks.read().wait_time()
    }

    /// The engine's time scale.
    pub fn scale(&self) -> TimeScale {
        self.cfg.scale
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("tables", &self.table_count())
            .field("rows_inserted", &self.stats.rows_inserted.get())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use crate::schema::TableBuilder;
    use crate::value::DataType;

    fn two_table_engine() -> (Engine, TableId, TableId) {
        let e = Engine::for_tests();
        let frames = TableBuilder::new("frames")
            .col("frame_id", DataType::Int)
            .col("exposure", DataType::Float)
            .pk(&["frame_id"])
            .build()
            .unwrap();
        let objects = TableBuilder::new("objects")
            .col("object_id", DataType::Int)
            .col("frame_id", DataType::Int)
            .col_null("mag", DataType::Float)
            .pk(&["object_id"])
            .fk("fk_objects_frame", &["frame_id"], "frames")
            .check("chk_mag", Expr::between(2, -5.0f64, 40.0f64))
            .build()
            .unwrap();
        let f = e.create_table(frames).unwrap();
        let o = e.create_table(objects).unwrap();
        (e, f, o)
    }

    fn frame(id: i64) -> Row {
        vec![Value::Int(id), Value::Float(30.0)]
    }

    /// Clone `frames`/`objects` as a shadow pair (FKs pointing within the
    /// shadow set), as a reprocessing campaign does.
    fn add_shadow_pair(e: &Engine) -> (TableId, TableId) {
        let frames = TableBuilder::new("frames__s1")
            .col("frame_id", DataType::Int)
            .col("exposure", DataType::Float)
            .pk(&["frame_id"])
            .build()
            .unwrap();
        let objects = TableBuilder::new("objects__s1")
            .col("object_id", DataType::Int)
            .col("frame_id", DataType::Int)
            .col_null("mag", DataType::Float)
            .pk(&["object_id"])
            .fk("fk_objects_frame", &["frame_id"], "frames__s1")
            .build()
            .unwrap();
        let f = e.create_table(frames).unwrap();
        let o = e.create_table(objects).unwrap();
        (f, o)
    }

    fn object(id: i64, frame: i64, mag: f64) -> Row {
        vec![Value::Int(id), Value::Int(frame), Value::Float(mag)]
    }

    #[test]
    fn insert_and_count() {
        let (e, f, o) = two_table_engine();
        let txn = e.begin();
        e.insert_row(txn, f, &frame(1)).unwrap();
        e.insert_row(txn, o, &object(10, 1, 18.5)).unwrap();
        e.commit(txn).unwrap();
        assert_eq!(e.row_count(f), 1);
        assert_eq!(e.row_count(o), 1);
        assert_eq!(e.stats().snapshot().rows_inserted, 2);
    }

    #[test]
    fn pk_violation_leaves_no_residue() {
        let (e, f, _) = two_table_engine();
        let txn = e.begin();
        e.insert_row(txn, f, &frame(1)).unwrap();
        let err = e.insert_row(txn, f, &frame(1)).unwrap_err();
        assert_eq!(err.constraint_kind(), Some(ConstraintKind::PrimaryKey));
        assert_eq!(e.row_count(f), 1);
        assert_eq!(e.scan_where(f, None).unwrap().len(), 1);
        assert_eq!(e.stats().snapshot().pk_violations, 1);
    }

    #[test]
    fn fk_violation_detected() {
        let (e, _, o) = two_table_engine();
        let txn = e.begin();
        let err = e.insert_row(txn, o, &object(1, 99, 10.0)).unwrap_err();
        assert_eq!(err.constraint_kind(), Some(ConstraintKind::ForeignKey));
        assert_eq!(e.row_count(o), 0);
    }

    #[test]
    fn check_violation_detected() {
        let (e, f, o) = two_table_engine();
        let txn = e.begin();
        e.insert_row(txn, f, &frame(1)).unwrap();
        let err = e.insert_row(txn, o, &object(1, 1, 99.0)).unwrap_err();
        assert_eq!(err.constraint_kind(), Some(ConstraintKind::Check));
    }

    #[test]
    fn null_fk_passes_null_pk_rejected() {
        let (e, f, o) = two_table_engine();
        let txn = e.begin();
        e.insert_row(txn, f, &frame(1)).unwrap();
        // NULL mag is fine (nullable), NULL PK is not.
        let bad_pk = vec![Value::Null, Value::Int(1), Value::Null];
        let err = e.insert_row(txn, o, &bad_pk).unwrap_err();
        assert_eq!(err.constraint_kind(), Some(ConstraintKind::NotNull));
        e.insert_row(txn, o, &[Value::Int(5), Value::Int(1), Value::Null])
            .unwrap();
    }

    #[test]
    fn arity_and_type_rejected() {
        let (e, f, _) = two_table_engine();
        let txn = e.begin();
        assert!(matches!(
            e.insert_row(txn, f, &[Value::Int(1)]),
            Err(DbError::ArityMismatch { .. })
        ));
        assert!(matches!(
            e.insert_row(txn, f, &[Value::Text("x".into()), Value::Float(1.0)]),
            Err(DbError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn batch_stops_at_first_error_keeping_prefix() {
        let (e, f, o) = two_table_engine();
        let txn = e.begin();
        e.insert_row(txn, f, &frame(1)).unwrap();
        let rows: Vec<Row> = vec![
            object(1, 1, 10.0),
            object(2, 1, 11.0),
            object(2, 1, 12.0), // duplicate PK → fails
            object(3, 1, 13.0), // never attempted
        ];
        let out = e.apply_batch(txn, o, &rows);
        assert_eq!(out.applied, 2);
        let (off, err) = out.failed.unwrap();
        assert_eq!(off, 2);
        assert_eq!(err.constraint_kind(), Some(ConstraintKind::PrimaryKey));
        assert_eq!(e.row_count(o), 2, "rows before the error persist");
    }

    #[test]
    fn rollback_reverses_everything() {
        let (e, f, o) = two_table_engine();
        let t1 = e.begin();
        e.insert_row(t1, f, &frame(1)).unwrap();
        e.commit(t1).unwrap();
        let t2 = e.begin();
        e.insert_row(t2, o, &object(1, 1, 10.0)).unwrap();
        e.insert_row(t2, o, &object(2, 1, 11.0)).unwrap();
        e.rollback(t2).unwrap();
        assert_eq!(e.row_count(o), 0);
        // PK is reusable after rollback.
        let t3 = e.begin();
        e.insert_row(t3, o, &object(1, 1, 12.0)).unwrap();
        e.commit(t3).unwrap();
        assert_eq!(e.row_count(o), 1);
    }

    #[test]
    fn collision_with_staged_row_is_a_write_conflict_not_a_duplicate() {
        // The lease-takeover race: txn A stages a key but has not
        // resolved; txn B inserting the same key must get a *retryable*
        // write conflict — calling it a duplicate would let a bulk loader
        // skip the row, which is lost forever if A then rolls back.
        let (e, f, _) = two_table_engine();
        let a = e.begin();
        e.insert_row(a, f, &frame(1)).unwrap();

        let b = e.begin();
        let err = e.insert_row(b, f, &frame(1)).unwrap_err();
        assert!(
            matches!(err, DbError::WriteConflict(_)),
            "expected a write conflict against A's staged row, got {err}"
        );
        assert_eq!(e.stats().snapshot().write_conflicts, 1);
        assert_eq!(e.stats().snapshot().pk_violations, 0);

        // A rolls back: the key is free and B's retry succeeds.
        e.rollback(a).unwrap();
        e.insert_row(b, f, &frame(1)).unwrap();
        e.commit(b).unwrap();
        assert_eq!(e.row_count(f), 1);

        // Against a *committed* incumbent the same insert is a proven
        // duplicate — the skippable kind.
        let c = e.begin();
        let err = e.insert_row(c, f, &frame(1)).unwrap_err();
        assert_eq!(err.constraint_kind(), Some(ConstraintKind::PrimaryKey));
        e.rollback(c).unwrap();

        // A transaction colliding with its *own* staged row is also a
        // plain duplicate: nothing to wait for.
        let d = e.begin();
        e.insert_row(d, f, &frame(2)).unwrap();
        let err = e.insert_row(d, f, &frame(2)).unwrap_err();
        assert_eq!(err.constraint_kind(), Some(ConstraintKind::PrimaryKey));
        e.rollback(d).unwrap();
    }

    #[test]
    fn scan_filter_and_pk_get() {
        let (e, f, o) = two_table_engine();
        let txn = e.begin();
        e.insert_row(txn, f, &frame(1)).unwrap();
        for i in 0..20 {
            e.insert_row(txn, o, &object(i, 1, i as f64)).unwrap();
        }
        e.commit(txn).unwrap();
        let bright = e
            .scan_where(o, Some(&Expr::cmp(2, CmpOp::Lt, 5.0f64)))
            .unwrap();
        assert_eq!(bright.len(), 5);
        let row = e
            .pk_get(o, &Key(vec![Value::Int(7)]))
            .unwrap()
            .expect("row 7 exists");
        assert_eq!(row[2], Value::Float(7.0));
        assert!(e.pk_get(o, &Key(vec![Value::Int(999)])).unwrap().is_none());
    }

    #[test]
    fn secondary_index_lifecycle() {
        let (e, f, o) = two_table_engine();
        let txn = e.begin();
        e.insert_row(txn, f, &frame(1)).unwrap();
        for i in 0..50 {
            e.insert_row(txn, o, &object(i, 1, (i % 10) as f64))
                .unwrap();
        }
        e.commit(txn).unwrap();
        // Create after load (the delayed-index path).
        e.create_index("objects", "idx_mag", &["mag"], false)
            .unwrap();
        assert_eq!(e.index_names("objects").unwrap(), vec!["idx_mag"]);
        let hits = e
            .index_range(
                "objects",
                "idx_mag",
                &Key(vec![Value::Float(3.0)]),
                &Key(vec![Value::Float(4.0)]),
            )
            .unwrap();
        assert_eq!(hits.len(), 10);
        // New inserts maintain it.
        let t2 = e.begin();
        e.insert_row(t2, o, &object(100, 1, 3.5)).unwrap();
        e.commit(t2).unwrap();
        let hits = e
            .index_range(
                "objects",
                "idx_mag",
                &Key(vec![Value::Float(3.0)]),
                &Key(vec![Value::Float(4.0)]),
            )
            .unwrap();
        assert_eq!(hits.len(), 11);
        e.drop_index("objects", "idx_mag").unwrap();
        assert!(e
            .index_range("objects", "idx_mag", &Key(vec![]), &Key(vec![]))
            .is_err());
        assert!(matches!(
            e.drop_index("objects", "idx_mag"),
            Err(DbError::NoSuchIndex(_))
        ));
    }

    #[test]
    fn unique_index_build_rejects_duplicates() {
        let (e, f, _) = two_table_engine();
        let txn = e.begin();
        e.insert_row(txn, f, &frame(1)).unwrap();
        e.insert_row(txn, f, &frame(2)).unwrap();
        e.commit(txn).unwrap();
        // exposure is 30.0 in both rows → unique build must fail.
        let err = e
            .create_index("frames", "u_exposure", &["exposure"], true)
            .unwrap_err();
        assert_eq!(err.constraint_kind(), Some(ConstraintKind::Unique));
    }

    #[test]
    fn crash_recovery_replays_committed_only() {
        let schemas = || {
            vec![TableBuilder::new("frames")
                .col("frame_id", DataType::Int)
                .col("exposure", DataType::Float)
                .pk(&["frame_id"])
                .build()
                .unwrap()]
        };
        let e = Engine::for_tests();
        for s in schemas() {
            e.create_table(s).unwrap();
        }
        let f = e.table_id("frames").unwrap();
        let t1 = e.begin();
        e.insert_row(t1, f, &frame(1)).unwrap();
        e.insert_row(t1, f, &frame(2)).unwrap();
        e.commit(t1).unwrap();
        let t2 = e.begin();
        e.insert_row(t2, f, &frame(3)).unwrap();
        // CRASH: t2 never commits; grab the durable log.
        let log = e.durable_log();
        drop(e);
        let recovered = Engine::recover_from_log(DbConfig::test(), schemas(), &log).unwrap();
        let f2 = recovered.table_id("frames").unwrap();
        assert_eq!(recovered.row_count(f2), 2);
        assert!(recovered
            .pk_get(f2, &Key(vec![Value::Int(3)]))
            .unwrap()
            .is_none());
    }

    #[test]
    fn torn_commit_flush_fails_a_commit_appended_behind_it() {
        // Sessions A and B commit concurrently: A's commit record is
        // appended, then B's, then A's flush tears. B's commit must not be
        // acknowledged, and recovery must hold neither transaction.
        let schemas = || {
            vec![TableBuilder::new("frames")
                .col("frame_id", DataType::Int)
                .col("exposure", DataType::Float)
                .pk(&["frame_id"])
                .build()
                .unwrap()]
        };
        let e = Engine::for_tests();
        for s in schemas() {
            e.create_table(s).unwrap();
        }
        let f = e.table_id("frames").unwrap();
        let a = e.begin();
        e.insert_row(a, f, &frame(1)).unwrap();
        let b = e.begin();
        e.insert_row(b, f, &frame(2)).unwrap();
        let log_dev = e.farm.device(StorageRole::Log);
        let a_end = e.wal.append(&LogRecord::Commit(a), log_dev);
        e.wal.append(&LogRecord::Commit(b), log_dev);
        e.wal.flush_torn(log_dev, a_end, 4);
        assert!(matches!(e.commit(b), Err(DbError::ServerDown(_))));
        let recovered =
            Engine::recover_from_log(DbConfig::test(), schemas(), &e.durable_log()).unwrap();
        let f2 = recovered.table_id("frames").unwrap();
        assert_eq!(recovered.row_count(f2), 0, "neither A nor B is durable");
    }

    #[test]
    fn maintenance_cost_grows_with_indexes_and_width() {
        let (e, _, o) = two_table_engine();
        let base = e.maintenance_cost(o);
        e.create_index("objects", "idx_mag", &["mag"], false)
            .unwrap();
        let one = e.maintenance_cost(o);
        assert!(one >= base);
        // With a nonzero per-entry cost the composite is strictly pricier.
        let cfg = DbConfig {
            per_index_entry_cpu: Duration::from_micros(3),
            ..DbConfig::test()
        };
        let e2 = Engine::new(cfg);
        let t = TableBuilder::new("t")
            .col("a", DataType::Int)
            .col("x", DataType::Float)
            .col("y", DataType::Float)
            .col("z", DataType::Float)
            .pk(&["a"])
            .build()
            .unwrap();
        let tid = e2.create_table(t).unwrap();
        let pk_only = e2.maintenance_cost(tid);
        e2.create_index("t", "i1", &["a"], false).unwrap();
        let with_int = e2.maintenance_cost(tid);
        e2.drop_index("t", "i1").unwrap();
        e2.create_index("t", "i3", &["x", "y", "z"], false).unwrap();
        let with_composite = e2.maintenance_cost(tid);
        assert!(with_int > pk_only);
        assert!(
            with_composite > with_int,
            "3-float composite {with_composite:?} should exceed 1-int {with_int:?}"
        );
    }

    #[test]
    fn concurrent_batches_from_many_threads() {
        let (e, f, o) = two_table_engine();
        let e = Arc::new(e);
        let txn = e.begin();
        e.insert_row(txn, f, &frame(1)).unwrap();
        e.commit(txn).unwrap();
        std::thread::scope(|s| {
            for t in 0..8i64 {
                let e = e.clone();
                s.spawn(move || {
                    let txn = e.begin();
                    let rows: Vec<Row> = (0..500).map(|i| object(t * 1000 + i, 1, 10.0)).collect();
                    for chunk in rows.chunks(40) {
                        let out = e.apply_batch(txn, o, chunk);
                        assert!(out.is_complete(), "{:?}", out.failed);
                    }
                    e.commit(txn).unwrap();
                });
            }
        });
        assert_eq!(e.row_count(o), 4000);
        assert_eq!(e.stats().snapshot().rows_inserted, 4001);
    }

    #[test]
    fn commit_without_txn_errors() {
        let (e, _, _) = two_table_engine();
        let t = e.begin();
        e.commit(t).unwrap();
        assert_eq!(e.commit(t), Err(DbError::NoTransaction));
        assert_eq!(e.rollback(t), Err(DbError::NoTransaction));
    }

    #[test]
    fn writer_cycles_triggered_by_page_allocations() {
        let cfg = DbConfig {
            writer_interval_pages: 4,
            ..DbConfig::test()
        };
        let e = Engine::new(cfg);
        let t = TableBuilder::new("wide")
            .col("id", DataType::Int)
            .col("pad", DataType::Text(4000))
            .pk(&["id"])
            .build()
            .unwrap();
        let tid = e.create_table(t).unwrap();
        let txn = e.begin();
        let pad = "x".repeat(3000);
        for i in 0..40 {
            e.insert_row(txn, tid, &[Value::Int(i), Value::Text(pad.clone())])
                .unwrap();
        }
        e.commit(txn).unwrap();
        assert!(e.cache().writer_cycles() >= 2, "writer should have cycled");
    }

    #[test]
    fn delete_where_removes_matching_rows_and_indexes() {
        let (e, f, o) = two_table_engine();
        let txn = e.begin();
        e.insert_row(txn, f, &frame(1)).unwrap();
        for i in 0..20 {
            e.insert_row(txn, o, &object(i, 1, i as f64)).unwrap();
        }
        e.commit(txn).unwrap();
        e.create_index("objects", "idx_mag", &["mag"], false)
            .unwrap();

        let t2 = e.begin();
        let n = e
            .delete_where(t2, o, Some(&Expr::cmp(2, CmpOp::Lt, 10.0f64)))
            .unwrap();
        e.commit(t2).unwrap();
        assert_eq!(n, 10);
        assert_eq!(e.row_count(o), 10);
        assert_eq!(e.stats().snapshot().rows_deleted, 10);
        // PK and secondary index agree with the heap.
        assert!(e.pk_get(o, &Key(vec![Value::Int(3)])).unwrap().is_none());
        assert!(e.pk_get(o, &Key(vec![Value::Int(15)])).unwrap().is_some());
        let hits = e
            .index_range(
                "objects",
                "idx_mag",
                &Key(vec![Value::Float(0.0)]),
                &Key(vec![Value::Float(9.5)]),
            )
            .unwrap();
        assert!(hits.is_empty(), "deleted rows must leave the index");
        // Deleted PKs are reusable.
        let t3 = e.begin();
        e.insert_row(t3, o, &object(3, 1, 30.0)).unwrap();
        e.commit(t3).unwrap();
    }

    #[test]
    fn delete_restricts_on_referencing_children() {
        let (e, f, o) = two_table_engine();
        let txn = e.begin();
        e.insert_row(txn, f, &frame(1)).unwrap();
        e.insert_row(txn, f, &frame(2)).unwrap();
        e.insert_row(txn, o, &object(10, 1, 5.0)).unwrap();
        e.commit(txn).unwrap();

        // Frame 1 has a child object: deleting all frames must fail whole.
        let t2 = e.begin();
        let err = e.delete_where(t2, f, None).unwrap_err();
        assert_eq!(err.constraint_kind(), Some(ConstraintKind::ForeignKey));
        assert_eq!(e.row_count(f), 2, "RESTRICT is atomic");
        // Deleting only the childless frame 2 succeeds.
        let n = e
            .delete_where(t2, f, Some(&Expr::cmp(0, CmpOp::Eq, 2i64)))
            .unwrap();
        assert_eq!(n, 1);
        e.commit(t2).unwrap();
        assert_eq!(e.row_count(f), 1);
    }

    #[test]
    fn delete_rolls_back_cleanly() {
        let (e, f, o) = two_table_engine();
        let txn = e.begin();
        e.insert_row(txn, f, &frame(1)).unwrap();
        for i in 0..5 {
            e.insert_row(txn, o, &object(i, 1, 10.0)).unwrap();
        }
        e.commit(txn).unwrap();

        let t2 = e.begin();
        assert_eq!(e.delete_where(t2, o, None).unwrap(), 5);
        assert_eq!(e.row_count(o), 0);
        e.rollback(t2).unwrap();
        assert_eq!(e.row_count(o), 5, "rollback restores deleted rows");
        for i in 0..5 {
            assert!(e.pk_get(o, &Key(vec![Value::Int(i)])).unwrap().is_some());
        }
    }

    #[test]
    fn committed_deletes_survive_recovery() {
        let schemas = || {
            vec![TableBuilder::new("frames")
                .col("frame_id", DataType::Int)
                .col("exposure", DataType::Float)
                .pk(&["frame_id"])
                .build()
                .unwrap()]
        };
        let e = Engine::for_tests();
        for s in schemas() {
            e.create_table(s).unwrap();
        }
        let f = e.table_id("frames").unwrap();
        let t1 = e.begin();
        for i in 0..10 {
            e.insert_row(t1, f, &frame(i)).unwrap();
        }
        e.commit(t1).unwrap();
        let t2 = e.begin();
        e.delete_where(t2, f, Some(&Expr::cmp(0, CmpOp::Lt, 4i64)))
            .unwrap();
        e.commit(t2).unwrap();
        // Uncommitted delete: must NOT survive.
        let t3 = e.begin();
        e.delete_where(t3, f, Some(&Expr::cmp(0, CmpOp::Eq, 9i64)))
            .unwrap();
        let log = e.durable_log();
        drop(e);
        let recovered = Engine::recover_from_log(DbConfig::test(), schemas(), &log).unwrap();
        let f2 = recovered.table_id("frames").unwrap();
        assert_eq!(recovered.row_count(f2), 6, "4 committed deletes applied");
        assert!(recovered
            .pk_get(f2, &Key(vec![Value::Int(2)]))
            .unwrap()
            .is_none());
        assert!(
            recovered
                .pk_get(f2, &Key(vec![Value::Int(9)]))
                .unwrap()
                .is_some(),
            "uncommitted delete must not replay"
        );
    }

    #[test]
    fn delete_where_empty_match_is_zero() {
        let (e, f, _) = two_table_engine();
        let txn = e.begin();
        e.insert_row(txn, f, &frame(1)).unwrap();
        let n = e
            .delete_where(txn, f, Some(&Expr::cmp(0, CmpOp::Eq, 999i64)))
            .unwrap();
        assert_eq!(n, 0);
        e.commit(txn).unwrap();
    }

    #[test]
    fn swap_tables_rebinds_names_and_refreshes_fk_resolution() {
        let (e, f, o) = two_table_engine();
        let txn = e.begin();
        e.insert_row(txn, f, &frame(1)).unwrap();
        e.insert_row(txn, o, &object(10, 1, 18.5)).unwrap();
        e.commit(txn).unwrap();

        // Load the shadow season: different frame ids, two objects.
        let (sf, so) = add_shadow_pair(&e);
        let txn = e.begin();
        e.insert_row(txn, sf, &frame(2)).unwrap();
        e.insert_row(txn, so, &object(20, 2, 19.0)).unwrap();
        e.insert_row(txn, so, &object(21, 2, 20.0)).unwrap();
        e.commit(txn).unwrap();

        let ids = e
            .swap_tables(&[
                ("frames".into(), "frames__s1".into()),
                ("objects".into(), "objects__s1".into()),
            ])
            .unwrap();
        assert_eq!(ids, vec![(f, sf), (o, so)]);
        // The live names now resolve to the shadow physical tables.
        assert_eq!(e.table_id("frames").unwrap(), sf);
        assert_eq!(e.table_id("objects").unwrap(), so);
        assert_eq!(e.row_count(e.table_id("objects").unwrap()), 2);
        assert_eq!(e.row_count(e.table_id("objects__s1").unwrap()), 1);
        assert_eq!(e.table_name(sf).as_deref(), Some("frames"));
        assert_eq!(e.stats().snapshot().table_swaps, 1);

        // FK resolution after the swap: inserting into the promoted
        // objects table must check the promoted frames table (id sf), and
        // a row referencing the *demoted* season's frame id 1 must fail.
        let txn = e.begin();
        e.insert_row(txn, so, &object(22, 2, 21.0)).unwrap();
        let err = e.insert_row(txn, so, &object(23, 1, 21.0)).unwrap_err();
        assert_eq!(err.constraint_kind(), Some(ConstraintKind::ForeignKey));
        e.commit(txn).unwrap();

        // Topological order stays parent-before-child for both seasons.
        let order = e.tables_topological();
        let pos = |id: TableId| order.iter().position(|x| *x == id).unwrap();
        assert!(pos(f) < pos(o));
        assert!(pos(sf) < pos(so));
    }

    #[test]
    fn wal_replay_by_id_is_swap_oblivious() {
        // Rows written before AND after a swap replay into the same
        // physical ids: a recovered engine (always fresh-unswapped) holds
        // each season's rows under its original creation-time id, and the
        // campaign manifest decides whether to re-apply the rebind.
        let (e, f, o) = two_table_engine();
        let (sf, so) = add_shadow_pair(&e);
        let txn = e.begin();
        e.insert_row(txn, f, &frame(1)).unwrap();
        e.insert_row(txn, sf, &frame(2)).unwrap();
        e.insert_row(txn, so, &object(20, 2, 19.0)).unwrap();
        e.commit(txn).unwrap();
        e.swap_tables(&[
            ("frames".into(), "frames__s1".into()),
            ("objects".into(), "objects__s1".into()),
        ])
        .unwrap();
        // Post-swap insert through the *live* name lands in the promoted
        // physical table.
        let txn = e.begin();
        let live_objects = e.table_id("objects").unwrap();
        e.insert_row(txn, live_objects, &object(21, 2, 20.0))
            .unwrap();
        e.commit(txn).unwrap();

        let schemas: Vec<TableSchema> = e
            .tables_topological()
            .iter()
            .map(|&id| {
                // Recreate creation-order schemas with creation-time names:
                // ids 0..4 were created as frames, objects, frames__s1,
                // objects__s1 regardless of the current binding.
                (*e.schema(id)).clone()
            })
            .collect();
        // tables_topological is definition-order here (0,1,2,3) but names
        // were swapped; swap them back for the DDL script the recovery
        // runs (the campaign manifest records exactly this).
        let mut schemas = schemas;
        for s in &mut schemas {
            let n = match s.name.as_str() {
                "frames" => "frames__s1",
                "frames__s1" => "frames",
                "objects" => "objects__s1",
                "objects__s1" => "objects",
                other => other,
            };
            s.name = n.to_string();
            for fk in &mut s.foreign_keys {
                fk.parent_table = match fk.parent_table.as_str() {
                    "frames" => "frames__s1".into(),
                    "frames__s1" => "frames".into(),
                    other => other.into(),
                };
            }
        }
        let r = Engine::recover_from_log(DbConfig::test(), schemas, &e.durable_log()).unwrap();
        // Recovered engine is unswapped: id `so` (shadow objects) holds
        // both shadow-season rows, including the one inserted post-swap.
        assert_eq!(r.row_count(so), 2);
        assert_eq!(r.row_count(o), 0);
        assert_eq!(r.row_count(sf), 1);
        assert_eq!(r.row_count(f), 1);
    }
}
