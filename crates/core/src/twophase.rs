//! An SDSS-style **two-phase** loader, for the comparison §6 could not run.
//!
//! The paper contrasts SkyLoader with the Sloan Digital Sky Survey's
//! framework: *"the catalog data is converted to comma-separated-value
//! ASCII files before the two-phase loading begins. The data in each
//! comma-separated-value file is associated with a single database table.
//! … the data is first loaded into Task databases … Then the data is fully
//! validated before being published to its final destination in the
//! Publish database."* SkyLoader instead does everything "in a single
//! pass", and the authors *believe* that is more efficient but "are unable
//! to conduct a direct performance comparison" (§6).
//!
//! This module implements the SDSS recipe against the same substrates so
//! the comparison can finally be made (experiment E7 in DESIGN.md):
//!
//! 1. **Convert** — parse the interleaved catalog file and split it into
//!    per-table row files (SDSS's CSV conversion). Parse errors are
//!    dropped here, as SDSS's converter would.
//! 2. **Task load** — bulk load each per-table file into a *Task database*
//!    with the same schema but **no foreign keys** (SDSS loads per-table
//!    files independently; referential checks happen later). PK/UNIQUE/
//!    CHECK/NOT NULL still apply on insert.
//! 3. **Validate** — run the referential checks over the Task database:
//!    every child row's FK target must exist among the task rows (or the
//!    already-published dimension tables).
//! 4. **Publish** — read the validated rows back and bulk-insert them into
//!    the Publish database in parent-before-child order.
//!
//! The Task database lives on its own server (its own CPU gate, network
//! endpoint and disks), as SDSS's Task DBs did on the cluster nodes. Both
//! bulk loads (steps 2 and 4) run the shard loader's Fig. 3 batch loop,
//! so the comparison differs from single-pass loading only in its phases.

use std::collections::BTreeMap;
use std::sync::Arc;

use serde::Serialize;

use skycat::format::parse_line;
use skycat::transform::transform;
use skycat::CatalogFile;
use skydb::error::DbResult;
use skydb::schema::TableBuilder;
use skydb::server::Server;
use skydb::value::{Key, Row};
use skydb::DbConfig;

use crate::config::LoaderConfig;
use crate::shardload::insert_zone_rows;

/// Outcome of a two-phase load.
#[derive(Debug, Clone, Default, Serialize)]
pub struct TwoPhaseReport {
    /// Rows written to the Task database, per table.
    pub task_rows: BTreeMap<String, u64>,
    /// Rows that failed Task-phase constraints (PK/CHECK/NOT NULL).
    pub task_rejected: u64,
    /// Rows rejected by the validation phase (dangling references).
    pub validation_rejected: u64,
    /// Rows published to the final database, per table.
    pub published: BTreeMap<String, u64>,
    /// Lines dropped at conversion (parse/transform failures).
    pub convert_dropped: u64,
    /// Batched calls against the Task database.
    pub task_calls: u64,
    /// Batched calls against the Publish database.
    pub publish_calls: u64,
}

impl TwoPhaseReport {
    /// Total rows published.
    pub fn total_published(&self) -> u64 {
        self.published.values().sum()
    }
}

/// Build the Task-database schema: the catalog tables with foreign keys
/// stripped (per-table files load independently in SDSS's first phase).
fn task_schemas() -> Vec<skydb::TableSchema> {
    skycat::build_schemas()
        .into_iter()
        .filter(|s| skycat::CATALOG_TABLES.contains(&s.name.as_str()))
        .map(|s| {
            let mut b = TableBuilder::new(s.name.clone());
            for c in &s.columns {
                b = if c.nullable {
                    b.col_null(&c.name, c.dtype)
                } else {
                    b.col(&c.name, c.dtype)
                };
            }
            let pk_names: Vec<&str> = s
                .primary_key
                .iter()
                .map(|&i| s.columns[i].name.as_str())
                .collect();
            b = b.pk(&pk_names);
            for chk in &s.checks {
                b = b.check(&chk.name, chk.expr.clone());
            }
            b.build().expect("task schema")
        })
        .collect()
}

/// Start a Task-database server (same hardware model as the publish
/// server, FK-free catalog tables only).
pub fn start_task_server(cfg: DbConfig) -> Arc<Server> {
    let server = Server::start(cfg);
    for schema in task_schemas() {
        server.engine().create_table(schema).expect("task DDL");
    }
    server
}

/// Run the full SDSS-style pipeline for one catalog file against a
/// dedicated Task server and the final Publish server.
pub fn load_two_phase(
    task: &Arc<Server>,
    publish: &Arc<Server>,
    cfg: &LoaderConfig,
    file: &CatalogFile,
) -> DbResult<TwoPhaseReport> {
    let mut report = TwoPhaseReport::default();

    // The Task database must be dedicated to this load: stale rows from a
    // previous file would be re-validated and re-published in phases 2–3.
    for table_name in skycat::CATALOG_TABLES {
        let tid = task.engine().table_id(table_name)?;
        if task.engine().row_count(tid) != 0 {
            return Err(skydb::DbError::InvalidSchema(format!(
                "task database is not empty ({table_name} has rows); \
                 use a fresh task server per file"
            )));
        }
    }

    // ---- Phase 0: convert the interleaved file to per-table row sets,
    // indexed by CATALOG_TABLES position.
    let mut per_table: Vec<Vec<Row>> = vec![Vec::new(); skycat::CATALOG_TABLES.len()];
    for line in file.text.lines() {
        let Ok(rec) = parse_line(line) else {
            report.convert_dropped += 1;
            continue;
        };
        match transform(&rec) {
            Ok((table, row)) => {
                let idx = skycat::CATALOG_TABLES.iter().position(|t| *t == table);
                per_table[idx.expect("transform yields catalog tables")].push(row);
            }
            Err(_) => report.convert_dropped += 1,
        }
    }

    // ---- Phase 1: bulk load each per-table file into the Task DB.
    let task_out = insert_zone_rows(&task.connect(), &per_table, cfg.batch_size)?;
    report.task_calls = task_out.calls;
    report.task_rejected = task_out.skipped;
    for ((table_name, rows), loaded) in skycat::CATALOG_TABLES
        .iter()
        .zip(&per_table)
        .zip(task_out.applied)
    {
        if !rows.is_empty() {
            report.task_rows.insert((*table_name).to_owned(), loaded);
        }
    }

    // ---- Phase 2: validate referential integrity inside the Task DB.
    // For each child table, check its FK columns against the parent's
    // task rows (or the publish DB's dimension tables for external
    // parents like observations/filters/ccd_chips).
    let task_engine = task.engine();
    let publish_engine = publish.engine();
    let full_schemas: BTreeMap<String, skydb::TableSchema> = skycat::build_schemas()
        .into_iter()
        .map(|s| (s.name.clone(), s))
        .collect();
    let mut validated: Vec<Vec<Row>> = Vec::with_capacity(skycat::CATALOG_TABLES.len());
    let mut surviving_keys: BTreeMap<String, std::collections::BTreeSet<Key>> = BTreeMap::new();
    for table_name in skycat::CATALOG_TABLES {
        let schema = &full_schemas[table_name];
        let tid = task_engine.table_id(table_name)?;
        let rows = task_engine.scan_where(tid, None)?;
        let mut keep = Vec::with_capacity(rows.len());
        'rows: for row in rows {
            for fk in &schema.foreign_keys {
                let key = Key::project(&row, &fk.columns);
                if key.has_null() {
                    continue;
                }
                let parent_is_catalog = skycat::CATALOG_TABLES.contains(&fk.parent_table.as_str());
                let ok = if parent_is_catalog {
                    surviving_keys
                        .get(&fk.parent_table)
                        .is_some_and(|keys| keys.contains(&key))
                } else {
                    let parent = publish_engine.table_id(&fk.parent_table)?;
                    publish_engine.pk_get(parent, &key)?.is_some()
                };
                if !ok {
                    report.validation_rejected += 1;
                    continue 'rows;
                }
            }
            surviving_keys
                .entry(table_name.to_owned())
                .or_default()
                .insert(Key::project(&row, &schema.primary_key));
            keep.push(row);
        }
        validated.push(keep);
    }

    // ---- Phase 3: publish in parent-before-child order.
    let publish_out = insert_zone_rows(&publish.connect(), &validated, cfg.batch_size)?;
    report.publish_calls = publish_out.calls;
    for (table_name, published) in skycat::CATALOG_TABLES.iter().zip(publish_out.applied) {
        report.published.insert((*table_name).to_owned(), published);
    }

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bulk::load_catalog_file;
    use skycat::gen::{generate_file, GenConfig};
    use skysim::time::TimeScale;

    fn publish_server() -> Arc<Server> {
        let server = Server::start(DbConfig::test());
        skycat::create_all(server.engine()).unwrap();
        skycat::seed_static(server.engine()).unwrap();
        skycat::seed_observation(server.engine(), 1, 100).unwrap();
        server
    }

    #[test]
    fn two_phase_publishes_exactly_the_loadable_rows() {
        let file = generate_file(&GenConfig::night(601, 100).with_error_rate(0.06), 0);
        let task = start_task_server(DbConfig::test());
        let publish = publish_server();
        let report = load_two_phase(&task, &publish, &LoaderConfig::test(), &file).unwrap();

        // Same end state as the single-pass loader: the generator's exact
        // loadable counts.
        assert_eq!(report.total_published(), file.expected.total_loadable());
        for (table, expect) in &file.expected.loadable {
            let tid = publish.engine().table_id(table).unwrap();
            assert_eq!(publish.engine().row_count(tid), *expect, "{table}");
        }
        assert!(report.convert_dropped >= file.expected.malformed_lines);
        assert!(report.validation_rejected > 0, "orphans should be caught");
    }

    #[test]
    fn two_phase_agrees_with_single_pass_on_clean_and_dirty_data() {
        for error_rate in [0.0, 0.1] {
            let file = generate_file(&GenConfig::small(603, 100).with_error_rate(error_rate), 0);
            let task = start_task_server(DbConfig::test());
            let publish = publish_server();
            let two = load_two_phase(&task, &publish, &LoaderConfig::test(), &file).unwrap();

            let single_server = publish_server();
            let session = single_server.connect();
            let single = load_catalog_file(&session, &LoaderConfig::test(), &file).unwrap();

            assert_eq!(
                two.total_published(),
                single.rows_loaded,
                "error rate {error_rate}"
            );
            assert_eq!(&two.published, &single.loaded_by_table);
        }
    }

    #[test]
    fn two_phase_moves_data_twice() {
        let file = generate_file(&GenConfig::small(605, 100), 0);
        let task = start_task_server(DbConfig::test());
        let publish = publish_server();
        let report = load_two_phase(&task, &publish, &LoaderConfig::test(), &file).unwrap();
        // Both phases issue roughly the same number of batched calls: the
        // data crosses a wire twice. This is the §6 inefficiency SkyLoader
        // avoids.
        assert!(report.task_calls > 0);
        assert!(report.publish_calls > 0);
        let total_calls = report.task_calls + report.publish_calls;
        assert!(
            total_calls as f64 >= 1.8 * report.publish_calls as f64,
            "two-phase should roughly double the calls"
        );
    }

    #[test]
    fn task_schema_has_no_foreign_keys() {
        for s in task_schemas() {
            assert!(s.foreign_keys.is_empty(), "{} kept FKs", s.name);
            assert!(!s.primary_key.is_empty());
        }
        assert_eq!(task_schemas().len(), skycat::CATALOG_TABLES.len());
    }

    #[test]
    fn two_phase_costs_more_on_the_modeled_hardware() {
        let file = generate_file(&GenConfig::night(607, 100), 0);

        // Single pass on paper hardware.
        let single_server = {
            let server = Server::start(DbConfig::paper(TimeScale::ZERO));
            skycat::create_all(server.engine()).unwrap();
            skycat::seed_static(server.engine()).unwrap();
            skycat::seed_observation(server.engine(), 1, 100).unwrap();
            server
        };
        let session = single_server.connect();
        let single_report = load_catalog_file(&session, &LoaderConfig::paper(), &file).unwrap();
        single_server.engine().checkpoint();
        let single_cost =
            crate::report::ModeledCost::measure(&single_server, single_report.client_paging)
                .total();

        // Two phase on the same hardware (task server is extra hardware —
        // count both sides' modeled time, as SDSS pays both).
        let task = start_task_server(DbConfig::paper(TimeScale::ZERO));
        let publish = {
            let server = Server::start(DbConfig::paper(TimeScale::ZERO));
            skycat::create_all(server.engine()).unwrap();
            skycat::seed_static(server.engine()).unwrap();
            skycat::seed_observation(server.engine(), 1, 100).unwrap();
            server
        };
        let publish_baseline =
            crate::report::ModeledCost::measure(&publish, std::time::Duration::ZERO);
        load_two_phase(&task, &publish, &LoaderConfig::paper(), &file).unwrap();
        task.engine().checkpoint();
        publish.engine().checkpoint();
        let two_cost = crate::report::ModeledCost::measure(&task, std::time::Duration::ZERO)
            .total()
            + crate::report::ModeledCost::measure(&publish, std::time::Duration::ZERO)
                .since(publish_baseline)
                .total();

        assert!(
            two_cost.as_secs_f64() > single_cost.as_secs_f64() * 1.4,
            "two-phase ({two_cost:?}) should cost well over single-pass ({single_cost:?})"
        );
    }
}
