//! Batch-at-a-time writes equal row-at-a-time writes.
//!
//! `Engine::insert_batch` checks a whole batch before it takes a table
//! lock, writes it in segments under one hold of the heap and tree locks,
//! and appends the WAL records of a segment together. None of that may be
//! visible: the same rows applied as batches and applied one row per call
//! must give the same outcomes, the same committed rows and index
//! contents, the same durable log bytes, the same counters and the same
//! modeled device totals.

use proptest::prelude::*;

use skydb::engine::{BatchOutcome, Engine};
use skydb::expr::Expr;
use skydb::schema::{TableBuilder, TableId};
use skydb::value::{DataType, Key, Row, Value};
use skydb::DbConfig;
use skysim::disk::{DiskModel, StorageRole};

/// The key the second transaction stages (and never commits) in `items`.
const STAGED_ID: i64 = 1_000;
/// The UNIQUE `code` the second transaction stages.
const STAGED_CODE: i64 = 500;

/// One generated row, by what it should exercise.
#[derive(Debug, Clone)]
enum Kind {
    /// A row drawn from small domains, so PK and UNIQUE duplicates, FK
    /// orphans (`pid` 5), CHECK faults (`mag` -1) and over-long `pad`
    /// text occur naturally.
    Drawn {
        id: i64,
        pid: Option<i64>,
        code: Option<i64>,
        mag: Option<f64>,
        zone: i64,
        pad: usize,
    },
    /// NULL in the NOT NULL `zone` column.
    NullZone(i64),
    /// Text in the Int `zone` column.
    TextZone(i64),
    /// A NULL primary key.
    NullPk,
    /// The primary key the second transaction staged.
    StagedPk,
    /// The UNIQUE code the second transaction staged.
    StagedCode(i64),
}

fn kind() -> impl Strategy<Value = Kind> {
    prop_oneof![
        12 => (
            0i64..40,
            prop_oneof![4 => (0i64..6).prop_map(Some), 1 => Just(None)],
            prop_oneof![3 => (0i64..60).prop_map(Some), 1 => Just(None)],
            prop_oneof![
                4 => Just(Some(5.0f64)),
                1 => Just(Some(-1.0f64)),
                1 => Just(None),
            ],
            0i64..4,
            0usize..2_200,
        )
            .prop_map(|(id, pid, code, mag, zone, pad)| Kind::Drawn {
                id,
                pid,
                code,
                mag,
                zone,
                pad,
            }),
        1 => (0i64..40).prop_map(Kind::NullZone),
        1 => (0i64..40).prop_map(Kind::TextZone),
        1 => Just(Kind::NullPk),
        1 => Just(Kind::StagedPk),
        1 => (100i64..200).prop_map(Kind::StagedCode),
    ]
}

fn row(k: &Kind) -> Row {
    let fill = |id: i64, pid: Option<i64>, code: Option<i64>, mag: Option<f64>, zone: Value| {
        vec![
            Value::Int(id),
            pid.map_or(Value::Null, Value::Int),
            code.map_or(Value::Null, Value::Int),
            mag.map_or(Value::Null, Value::Float),
            zone,
            Value::Text(String::new()),
        ]
    };
    match *k {
        Kind::Drawn {
            id,
            pid,
            code,
            mag,
            zone,
            pad,
        } => {
            let mut r = fill(id, pid, code, mag, Value::Int(zone));
            r[5] = Value::Text("x".repeat(pad));
            r
        }
        Kind::NullZone(id) => fill(id, Some(0), None, None, Value::Null),
        Kind::TextZone(id) => fill(id, Some(0), None, None, Value::Text("z".into())),
        Kind::NullPk => {
            let mut r = fill(0, Some(0), None, None, Value::Int(0));
            r[0] = Value::Null;
            r
        }
        Kind::StagedPk => fill(STAGED_ID, Some(1), None, None, Value::Int(1)),
        Kind::StagedCode(id) => fill(id, Some(1), Some(STAGED_CODE), None, Value::Int(2)),
    }
}

/// An engine with `parents` (ids 0..5 committed) and `items` (PK, FK,
/// CHECK, UNIQUE and a secondary index), a second transaction holding a
/// staged `items` row, and real device and cache models on a zero time
/// scale so every modeled cost is counted but none is waited.
fn engine(writer_interval_pages: usize) -> (Engine, TableId) {
    let e = Engine::new(DbConfig {
        writer_interval_pages,
        cache_pages: 16,
        per_frame_scan: std::time::Duration::from_micros(2),
        disk: DiskModel::raided_sata(),
        log_buffer_bytes: 8_192,
        ..DbConfig::test()
    });
    let parents = e
        .create_table(
            TableBuilder::new("parents")
                .col("pid", DataType::Int)
                .pk(&["pid"])
                .build()
                .unwrap(),
        )
        .unwrap();
    let items = e
        .create_table(
            TableBuilder::new("items")
                .col("id", DataType::Int)
                .col_null("pid", DataType::Int)
                .col_null("code", DataType::Int)
                .col_null("mag", DataType::Float)
                .col("zone", DataType::Int)
                .col("pad", DataType::Text(2_000))
                .pk(&["id"])
                .fk("fk_items_parent", &["pid"], "parents")
                .unique("uq_items_code", &["code"])
                .check("chk_mag", Expr::between(3, 0.0f64, 30.0f64))
                .build()
                .unwrap(),
        )
        .unwrap();
    e.create_index("items", "idx_items_zone", &["zone"], false)
        .unwrap();
    let t = e.begin();
    for pid in 0..5 {
        e.insert_row(t, parents, &[Value::Int(pid)]).unwrap();
    }
    e.commit(t).unwrap();
    (e, items)
}

/// Apply `rows` the way a JDBC loader does — a failed row is skipped and
/// the rest of the batch resent — with `apply` as the write path, and
/// return every call's outcome.
fn load(rows: &[Row], mut apply: impl FnMut(&[Row]) -> BatchOutcome) -> Vec<BatchOutcome> {
    let mut outcomes = Vec::new();
    let mut first = 0;
    while first < rows.len() {
        let out = apply(&rows[first..]);
        first += match &out.failed {
            None => rows.len() - first,
            Some((offset, _)) => offset + 1,
        };
        outcomes.push(out);
    }
    outcomes
}

/// Everything two engines must agree on after the same load.
fn observe(e: &Engine, items: TableId) -> Vec<String> {
    let scan = e.scan_where_committed(items, None).unwrap();
    let all = |lo: i64, hi: i64| (Key(vec![Value::Int(lo)]), Key(vec![Value::Int(hi)]));
    let (lo, hi) = all(i64::MIN, i64::MAX);
    let by_zone = e
        .index_range_committed("items", "idx_items_zone", &lo, &hi)
        .unwrap();
    let by_pk: Vec<Option<Row>> = (0..40)
        .chain([STAGED_ID])
        .map(|id| {
            e.pk_get_committed(items, &Key(vec![Value::Int(id)]))
                .unwrap()
        })
        .collect();
    let farm = e.farm();
    let devices: Vec<String> = [StorageRole::Data, StorageRole::Index, StorageRole::Log]
        .into_iter()
        .map(|r| {
            let d = farm.device(r);
            format!(
                "{r:?} r{} w{} s{} {:?}",
                d.reads(),
                d.writes(),
                d.syncs(),
                d.modeled_time()
            )
        })
        .collect();
    vec![
        format!("scan {:?} examined {}", scan.rows, scan.examined),
        format!("zone index {:?}", by_zone.rows),
        format!("pk {by_pk:?}"),
        format!(
            "row count {} pages {}",
            e.row_count(items),
            e.page_count(items)
        ),
        format!("stats {:?}", e.stats().snapshot()),
        format!("registry {:?}", e.obs().snapshot()),
        format!("devices {devices:?} total {:?}", farm.modeled_time()),
        format!(
            "cache dirty {} resident {}",
            e.cache().dirty_count(),
            e.cache().resident_count()
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn a_batch_equals_its_rows_one_call_each(
        kinds in prop::collection::vec(kind(), 1..80),
        writer_interval_pages in 1usize..4,
    ) {
        let rows: Vec<Row> = kinds.iter().map(row).collect();
        let (batched, bt) = engine(writer_interval_pages);
        let (single, st) = engine(writer_interval_pages);
        let mut logs = Vec::new();
        let mut views = Vec::new();
        let mut all_outcomes = Vec::new();
        for (e, items, one_row_per_call) in [(&batched, bt, false), (&single, st, true)] {
            // The second transaction stages a key and a code first.
            let other = e.begin();
            e.insert_row(other, items, &row(&Kind::Drawn {
                id: STAGED_ID, pid: Some(0), code: Some(STAGED_CODE), mag: None, zone: 3, pad: 0,
            })).unwrap();
            let txn = e.begin();
            let outcomes = load(&rows, |rest| {
                if !one_row_per_call {
                    return e.insert_batch(txn, items, rest);
                }
                let mut applied = 0;
                for (i, r) in rest.iter().enumerate() {
                    if let Err(err) = e.insert_row(txn, items, r) {
                        return BatchOutcome { applied, failed: Some((i, err)) };
                    }
                    applied += 1;
                }
                BatchOutcome { applied, failed: None }
            });
            e.commit(txn).unwrap();
            logs.push(e.durable_log());
            views.push(observe(e, items));
            e.rollback(other).unwrap();
            views.push(observe(e, items));
            all_outcomes.push(outcomes);
        }
        prop_assert_eq!(&all_outcomes[0], &all_outcomes[1]);
        prop_assert!(logs[0] == logs[1], "durable logs differ");
        for (b, s) in views[..2].iter().zip(&views[2..]) {
            prop_assert_eq!(b, s);
        }
    }
}
