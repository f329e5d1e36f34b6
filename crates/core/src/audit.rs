//! Post-load integrity audit.
//!
//! §4.3: "stringent data checking is performed by the database to guard
//! against hidden corruption". The engine enforces constraints at insert
//! time; this module re-verifies the *loaded repository* independently —
//! the same discipline as SDSS's validation phase (§6) — so operators can
//! prove a multi-night load left no corruption behind:
//!
//! * **referential integrity**: every FK value has its parent row;
//! * **primary-key index consistency**: every heap row is reachable through
//!   its PK, and the index holds no dangling entries (counts match);
//! * **CHECK constraints**: every stored row still satisfies its table's
//!   checks;
//! * **computed columns**: `objects.htmid` and galactic coordinates agree
//!   with an independent recomputation from ra/dec.

use serde::Serialize;

use skydb::engine::Engine;
use skydb::error::DbResult;
use skydb::value::{Key, Value};

/// One problem found by the audit.
#[derive(Debug, Clone, Serialize)]
pub struct AuditFinding {
    /// Table the problem is in.
    pub table: String,
    /// What is wrong.
    pub detail: String,
}

/// Outcome of a repository audit.
#[derive(Debug, Clone, Default, Serialize)]
pub struct AuditReport {
    /// Rows examined across all tables.
    pub rows_checked: u64,
    /// Foreign-key values verified.
    pub fk_checks: u64,
    /// CHECK-constraint evaluations.
    pub check_evaluations: u64,
    /// Computed columns re-derived.
    pub recomputations: u64,
    /// Problems found (empty = clean).
    pub findings: Vec<AuditFinding>,
}

impl AuditReport {
    /// `true` if the repository passed every check.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    fn finding(&mut self, table: &str, detail: String) {
        if self.findings.len() < 1000 {
            self.findings.push(AuditFinding {
                table: table.to_owned(),
                detail,
            });
        }
    }
}

/// Bitwise row equality through the canonical encoding (stable under NaN,
/// unlike `PartialEq` on floats).
fn rows_bitwise_equal(a: &[Value], b: &[Value]) -> bool {
    let mut ea = bytes::BytesMut::with_capacity(64);
    let mut eb = bytes::BytesMut::with_capacity(64);
    skydb::value::encode_row(a, &mut ea);
    skydb::value::encode_row(b, &mut eb);
    ea == eb
}

/// Audit every table of the repository.
pub fn audit_repository(engine: &Engine) -> DbResult<AuditReport> {
    let mut report = AuditReport::default();
    for table in engine.tables_topological() {
        let schema = engine.schema(table);
        let rows = engine.scan_where(table, None)?;
        // PK-index consistency: the index must resolve every row, and its
        // cardinality must match the heap's.
        let heap_count = engine.row_count(table);
        if heap_count != rows.len() as u64 {
            report.finding(
                &schema.name,
                format!(
                    "heap row_count {} disagrees with scan count {}",
                    heap_count,
                    rows.len()
                ),
            );
        }
        for row in &rows {
            report.rows_checked += 1;
            let pk = Key::project(row, &schema.primary_key);
            match engine.pk_get(table, &pk)? {
                // Bitwise comparison via the canonical encoding: PartialEq
                // would flag NaN floats as mismatches (NaN != NaN).
                Some(found) if rows_bitwise_equal(&found, row) => {}
                Some(_) => {
                    report.finding(&schema.name, format!("PK {pk} resolves to a different row"))
                }
                None => report.finding(
                    &schema.name,
                    format!("heap row with PK {pk} unreachable through the PK index"),
                ),
            }
            // Referential integrity.
            for fk in &schema.foreign_keys {
                let key = Key::project(row, &fk.columns);
                if key.has_null() {
                    continue;
                }
                report.fk_checks += 1;
                let parent = engine.table_id(&fk.parent_table)?;
                if engine.pk_get(parent, &key)?.is_none() {
                    report.finding(
                        &schema.name,
                        format!(
                            "orphan row: {} {key} missing in {}",
                            fk.name, fk.parent_table
                        ),
                    );
                }
            }
            // CHECK constraints.
            for chk in &schema.checks {
                report.check_evaluations += 1;
                let passes = chk
                    .expr
                    .eval_truth(row)
                    .map(|t| t.passes_check())
                    .unwrap_or(false);
                if !passes {
                    report.finding(
                        &schema.name,
                        format!("stored row violates CHECK {}", chk.name),
                    );
                }
            }
        }
        // Computed columns on objects.
        if schema.name == "objects" {
            for row in &rows {
                let (Value::Float(ra), Value::Float(dec), Value::Int(htmid)) =
                    (row[2].clone(), row[3].clone(), row[4].clone())
                else {
                    report.finding("objects", "unexpected column types".into());
                    continue;
                };
                report.recomputations += 1;
                let expect = skyhtm::htmid(ra, dec, skyhtm::CATALOG_DEPTH);
                if htmid as u64 != expect {
                    report.finding(
                        "objects",
                        format!("htmid {htmid} != recomputed {expect} at ({ra}, {dec})"),
                    );
                }
                let (l, b) = skyhtm::equatorial_to_galactic(ra, dec);
                let (Value::Float(gl), Value::Float(gb)) = (row[5].clone(), row[6].clone()) else {
                    report.finding("objects", "galactic columns missing".into());
                    continue;
                };
                if (gl - l).abs() > 0.001 || (gb - b).abs() > 0.001 {
                    report.finding(
                        "objects",
                        format!("galactic ({gl}, {gb}) != recomputed ({l:.3}, {b:.3})"),
                    );
                }
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bulk::load_catalog_file;
    use crate::config::LoaderConfig;
    use skycat::gen::{generate_file, GenConfig};
    use skydb::{DbConfig, Server};
    use std::sync::Arc;

    fn loaded_server(error_rate: f64) -> Arc<Server> {
        let server = Server::start(DbConfig::test());
        skycat::create_all(server.engine()).unwrap();
        skycat::seed_static(server.engine()).unwrap();
        skycat::seed_observation(server.engine(), 1, 100).unwrap();
        let file = generate_file(&GenConfig::small(901, 100).with_error_rate(error_rate), 0);
        let session = server.connect();
        load_catalog_file(&session, &LoaderConfig::test(), &file).unwrap();
        server
    }

    #[test]
    fn clean_load_audits_clean() {
        let server = loaded_server(0.0);
        let report = audit_repository(server.engine()).unwrap();
        assert!(report.is_clean(), "{:?}", report.findings);
        assert!(report.rows_checked > 0);
        assert!(report.fk_checks > 0);
        assert!(report.check_evaluations > 0);
        assert!(report.recomputations > 0);
    }

    #[test]
    fn dirty_load_still_audits_clean_because_loader_skipped_the_bad_rows() {
        // The whole point of the Fig. 3 recovery: corrupt input never
        // reaches the repository.
        let server = loaded_server(0.15);
        let report = audit_repository(server.engine()).unwrap();
        assert!(report.is_clean(), "{:?}", report.findings);
    }
}
