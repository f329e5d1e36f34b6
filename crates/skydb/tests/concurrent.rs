//! Concurrency stress: parallel batch inserts, queries, writer cycles and
//! commits racing on one engine must preserve every invariant.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use skydb::engine::Engine;
use skydb::expr::{CmpOp, Expr};
use skydb::schema::TableBuilder;
use skydb::value::{DataType, Key, Row, Value};
use skydb::DbConfig;

fn stress_engine() -> Arc<Engine> {
    let e = Engine::new(DbConfig::test());
    let parents = TableBuilder::new("parents")
        .col("id", DataType::Int)
        .pk(&["id"])
        .build()
        .unwrap();
    let children = TableBuilder::new("children")
        .col("id", DataType::Int)
        .col("parent_id", DataType::Int)
        .col("v", DataType::Float)
        .pk(&["id"])
        .fk("fk_parent", &["parent_id"], "parents")
        .build()
        .unwrap();
    e.create_table(parents).unwrap();
    e.create_table(children).unwrap();
    Arc::new(e)
}

#[test]
fn parallel_writers_readers_and_writer_cycles() {
    let e = stress_engine();
    let parents = e.table_id("parents").unwrap();
    let children = e.table_id("children").unwrap();

    // Seed parents.
    let txn = e.begin();
    for i in 0..8 {
        e.insert_row(txn, parents, &[Value::Int(i)]).unwrap();
    }
    e.commit(txn).unwrap();

    const WRITERS: i64 = 6;
    const ROWS_PER_WRITER: i64 = 2_000;
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        // Writers: batched inserts, each in its own committed transaction.
        for w in 0..WRITERS {
            let e = e.clone();
            s.spawn(move || {
                let txn = e.begin();
                let rows: Vec<Row> = (0..ROWS_PER_WRITER)
                    .map(|i| {
                        let id = w * ROWS_PER_WRITER + i;
                        vec![Value::Int(id), Value::Int(id % 8), Value::Float(id as f64)]
                    })
                    .collect();
                for chunk in rows.chunks(40) {
                    let out = e.apply_batch(txn, children, chunk);
                    assert!(out.is_complete(), "{:?}", out.failed);
                }
                e.commit(txn).unwrap();
            });
        }
        // Readers: point lookups and filtered scans while writes fly.
        for r in 0..2 {
            let e = e.clone();
            let stop = stop.clone();
            s.spawn(move || {
                let mut probes = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let key = Key(vec![Value::Int((probes as i64 * 37 + r) % 12_000)]);
                    // Must never panic or return a corrupt row.
                    if let Some(row) = e.pk_get(children, &key).unwrap() {
                        assert_eq!(row.len(), 3);
                        assert_eq!(row[0], key.0[0]);
                    }
                    if probes.is_multiple_of(50) {
                        let hits = e
                            .scan_where(parents, Some(&Expr::cmp(0, CmpOp::Ge, 0i64)))
                            .unwrap();
                        assert_eq!(hits.len(), 8);
                    }
                    probes += 1;
                }
                assert!(probes > 0);
            });
        }
        // A maintenance thread forcing extra writer cycles.
        {
            let e = e.clone();
            let stop = stop.clone();
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    e.writer_cycle();
                    std::thread::yield_now();
                }
            });
        }
        // Wait for writers by joining scope-spawned writer threads: the
        // writers finish on their own; then flip the stop flag. Easiest
        // within a scope: spawn a watcher that polls the row count.
        let e2 = e.clone();
        let stop2 = stop.clone();
        s.spawn(move || {
            let want = (WRITERS * ROWS_PER_WRITER) as u64;
            while e2.row_count(children) < want {
                std::thread::yield_now();
            }
            stop2.store(true, Ordering::Relaxed);
        });
    });

    // Every row present exactly once, fully indexed, fully scannable.
    let total = (WRITERS * ROWS_PER_WRITER) as u64;
    assert_eq!(e.row_count(children), total);
    assert_eq!(e.scan_where(children, None).unwrap().len() as u64, total);
    assert_eq!(e.stats().snapshot().rows_inserted, total + 8);
    for probe in [0i64, 1, 5_999, 11_999] {
        assert!(
            e.pk_get(children, &Key(vec![Value::Int(probe)]))
                .unwrap()
                .is_some(),
            "row {probe} missing"
        );
    }
    e.checkpoint();
}

#[test]
fn concurrent_duplicate_inserts_admit_exactly_one() {
    // All threads race to insert the SAME primary keys: exactly one copy
    // of each must win, across any interleaving.
    let e = stress_engine();
    let parents = e.table_id("parents").unwrap();
    std::thread::scope(|s| {
        for _ in 0..6 {
            let e = e.clone();
            s.spawn(move || {
                let txn = e.begin();
                for i in 0..500 {
                    let _ = e.insert_row(txn, parents, &[Value::Int(i)]);
                }
                e.commit(txn).unwrap();
            });
        }
    });
    assert_eq!(e.row_count(parents), 500);
    let snap = e.stats().snapshot();
    assert_eq!(snap.rows_inserted, 500);
    // A losing insert sees a PK violation when the winning copy had
    // already committed, or a retryable write conflict while the winner
    // was still in flight; between them every loser is accounted for.
    assert_eq!(snap.pk_violations + snap.write_conflicts, 6 * 500 - 500);
    assert!(snap.pk_violations > 0 || snap.write_conflicts > 0);
}

#[test]
fn delete_under_concurrent_reads() {
    let e = stress_engine();
    let parents = e.table_id("parents").unwrap();
    let txn = e.begin();
    for i in 0..2_000 {
        e.insert_row(txn, parents, &[Value::Int(i)]).unwrap();
    }
    e.commit(txn).unwrap();

    let n_victims = 667u64;
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        let e2 = e.clone();
        let stop2 = stop.clone();
        s.spawn(move || {
            let mut i = 0i64;
            while !stop2.load(Ordering::Relaxed) {
                let _ = e2.pk_get(parents, &Key(vec![Value::Int(i % 2_000)]));
                i += 1;
            }
        });
        let txn = e.begin();
        let filter = Expr::cmp(0, CmpOp::Lt, n_victims as i64);
        let deleted = e.delete_where(txn, parents, Some(&filter)).unwrap();
        e.commit(txn).unwrap();
        assert_eq!(deleted, n_victims);
        stop.store(true, Ordering::Relaxed);
    });
    assert_eq!(e.row_count(parents), 2_000 - n_victims);
    assert!(e
        .pk_get(parents, &Key(vec![Value::Int(3)]))
        .unwrap()
        .is_none());
    assert!(e
        .pk_get(parents, &Key(vec![Value::Int(1_000)]))
        .unwrap()
        .is_some());
}

/// Committed reads never return a row of a transaction that later rolls
/// back. One writer stages 50-row batches and always rolls them back
/// while a scan reader, a primary-key reader and an index-range reader
/// each make a fixed number of reads; none may see a doomed row. The rule
/// that makes this hold whatever the timing: the writer records a row's
/// undo entry before it releases the heap and index locks, and each
/// reader takes the set of uncommitted rows after it has found the row —
/// the scan under the heap lock, the probes after the tree read.
#[test]
fn committed_reads_never_see_a_rolling_back_writer() {
    const DOOMED: i64 = 1_000_000;
    const DOOMED_ZONE: i64 = 99;
    let e = Arc::new(Engine::new(DbConfig::test()));
    let objects = e
        .create_table(
            TableBuilder::new("objects")
                .col("id", DataType::Int)
                .col("zone", DataType::Int)
                .pk(&["id"])
                .build()
                .unwrap(),
        )
        .unwrap();
    e.create_index("objects", "idx_zone", &["zone"], false)
        .unwrap();
    let txn = e.begin();
    let committed: Vec<Row> = (0..200)
        .map(|i| vec![Value::Int(i), Value::Int(i % 10)])
        .collect();
    assert!(e.apply_batch(txn, objects, &committed).is_complete());
    e.commit(txn).unwrap();

    let doomed: Vec<Row> = (0..50)
        .map(|i| vec![Value::Int(DOOMED + i), Value::Int(DOOMED_ZONE)])
        .collect();
    let stop = Arc::new(AtomicBool::new(false));
    let dirty = std::sync::atomic::AtomicU64::new(0);
    let zone = |z: i64| Key(vec![Value::Int(z)]);
    std::thread::scope(|s| {
        let writer = s.spawn(|| {
            // Capped, because rolled-back rows stay as heap tombstones that
            // every later scan walks: a starved reader must not slow down
            // without bound.
            let mut rounds = 0u64;
            while !stop.load(Ordering::Relaxed) && rounds < 4_000 {
                let txn = e.begin();
                assert!(e.apply_batch(txn, objects, &doomed).is_complete());
                e.rollback(txn).unwrap();
                rounds += 1;
            }
            rounds
        });
        let readers = [
            s.spawn(|| {
                for _ in 0..500 {
                    let seen = e.scan_where_committed(objects, None).unwrap();
                    let bad = seen.rows.iter().filter(|r| r[0].as_i64() >= Some(DOOMED));
                    dirty.fetch_add(bad.count() as u64, Ordering::Relaxed);
                    assert!(seen.rows.len() >= committed.len());
                }
            }),
            s.spawn(|| {
                for i in 0..20_000 {
                    let key = Key(vec![Value::Int(DOOMED + i % 50)]);
                    if e.pk_get_committed(objects, &key).unwrap().is_some() {
                        dirty.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }),
            s.spawn(|| {
                for _ in 0..20_000 {
                    let hits = e
                        .index_range_committed(
                            "objects",
                            "idx_zone",
                            &zone(DOOMED_ZONE),
                            &zone(DOOMED_ZONE),
                        )
                        .unwrap();
                    dirty.fetch_add(hits.rows.len() as u64, Ordering::Relaxed);
                }
            }),
        ];
        for r in readers {
            r.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        assert!(writer.join().unwrap() > 0, "the writer ran");
    });
    assert_eq!(
        dirty.load(Ordering::Relaxed),
        0,
        "committed reads returned rolled-back rows"
    );
    assert_eq!(e.row_count(objects), committed.len() as u64);
}
