//! Serving tier under loader chaos: fast queries run concurrently with a
//! fleet night load whose first lease holder is killed mid-file. The
//! queries must never observe a partially flushed batch — every row a
//! committed read returns must still be present once the night settles
//! (read-your-fence consistency) — and the load itself must stay
//! exactly-once against the generator's ground truth, on three seeds.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};

use skycat::gen::{generate_observation, ExpectedCounts, GenConfig};
use skydb::fault::{FaultPlan, FaultPlanConfig};
use skydb::serve::{FastOutcome, Query, QueryService, ServeConfig};
use skydb::{DbConfig, Server};
use skyloader::fleet::FleetPolicy;
use skyloader::recovery::LoadJournal;
use skyloader::{load_night_with_journal, LoaderConfig};
use skysim::cluster::AssignmentPolicy;

const OBS_ID: i64 = 100;
const MAX_GENERATIONS: usize = 5;

fn object_ids(rows: &[Vec<skydb::Value>]) -> impl Iterator<Item = i64> + '_ {
    rows.iter().filter_map(|r| r.first()?.as_i64())
}

#[test]
fn fast_queries_never_observe_a_partial_flush_while_a_loader_dies() {
    for seed in [2005u64, 11, 77] {
        let cfg = GenConfig::night(seed, OBS_ID)
            .with_files(4)
            .with_frames_per_ccd(3)
            .with_objects_per_frame(40);
        let files = generate_observation(&cfg);
        let mut expected = ExpectedCounts::default();
        for f in &files {
            expected.merge(&f.expected);
        }

        let server = Server::start(DbConfig::test());
        skycat::create_all(server.engine()).unwrap();
        skycat::seed_static(server.engine()).unwrap();
        skycat::seed_observation(server.engine(), 1, OBS_ID).unwrap();
        server.set_fault_plan(Some(FaultPlan::new(
            FaultPlanConfig::new(seed).with_loader_kill_at(1),
        )));

        let service = QueryService::start(server.clone(), ServeConfig::default());
        let done = AtomicBool::new(false);
        let mut observed: BTreeSet<i64> = BTreeSet::new();

        std::thread::scope(|scope| {
            let ingest = scope.spawn(|| {
                let journal = LoadJournal::new();
                // A short lease keeps the kill→reclaim→resume cycle from
                // dominating the test's wall clock.
                let loader = LoaderConfig::test().with_fleet(
                    FleetPolicy::default().with_lease_ttl(std::time::Duration::from_millis(250)),
                );
                let mut remaining = files.clone();
                let mut generations = 0;
                while !remaining.is_empty() && generations < MAX_GENERATIONS {
                    generations += 1;
                    let night = load_night_with_journal(
                        &server,
                        &remaining,
                        &loader,
                        2,
                        AssignmentPolicy::Dynamic,
                        Some(&journal),
                    )
                    .unwrap();
                    let loaded: BTreeSet<String> =
                        night.files.iter().map(|f| f.file.clone()).collect();
                    remaining.retain(|f| !loaded.contains(&f.name));
                }
                done.store(true, Ordering::Release);
                assert!(remaining.is_empty(), "seed {seed}: night never completed");
            });

            // Committed reads against `objects` while the fleet flushes
            // and dies. Everything a query returns is recorded; nothing
            // recorded may vanish once the night settles.
            while !done.load(Ordering::Acquire) {
                match service
                    .fast_query(
                        "observer",
                        Query::Scan {
                            table: "objects".into(),
                            filter: None,
                        },
                    )
                    .unwrap_or_else(|e| panic!("seed {seed}: fast scan: {e}"))
                {
                    FastOutcome::Done(result) => observed.extend(object_ids(&result.rows)),
                    FastOutcome::Demoted(_) => {
                        unreachable!("test-config modeled costs never overrun the deadline")
                    }
                }
                // Full-table scans over a growing heap: pace them so the
                // test exercises many flush boundaries, not one busy loop.
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            ingest.join().unwrap();
        });

        // Exactly-once against ground truth, per table.
        server.set_fault_plan(None);
        for (table, expect) in &expected.loadable {
            let tid = server.engine().table_id(table).unwrap();
            let got = server.engine().row_count(tid);
            assert_eq!(
                got, *expect,
                "seed {seed}: table {table} expected {expect} rows, got {got}"
            );
        }

        // The kill actually fired and the fleet recovered the lease.
        let snap = server.obs_snapshot();
        assert!(snap.counter("loader_kills") >= 1, "seed {seed}: no kill");
        assert!(
            snap.counter("fleet.reclaims") >= 1,
            "seed {seed}: the killed loader's lease was never reclaimed"
        );

        // Read-your-fence: every id any concurrent query observed is
        // still present. A partially flushed (later rolled back) batch
        // leaking into a committed read would strand ids here.
        let objects = server.engine().table_id("objects").unwrap();
        let final_ids: BTreeSet<i64> = server
            .engine()
            .scan_where(objects, None)
            .unwrap()
            .iter()
            .filter_map(|r| r.first()?.as_i64())
            .collect();
        let stranded: Vec<i64> = observed.difference(&final_ids).copied().collect();
        assert!(
            stranded.is_empty(),
            "seed {seed}: queries observed {} row(s) that are gone after the night: {:?}",
            stranded.len(),
            &stranded[..stranded.len().min(10)]
        );
    }
}

#[test]
fn quarantine_races_committed_reads_without_serving_rot() {
    // Bit rot lands in committed rows *while* serve-tier scans run and a
    // scrubber quarantines the damage out from under them. A racing read
    // must land on one of exactly three outcomes — clean rows it knows
    // (pre-rot), a DataCorruption refusal (post-rot, pre-quarantine), or
    // clean survivors (post-quarantine) — and never a fabricated row.
    // Afterwards, journal-driven repair must restore the exact catalog.
    use skydb::error::DbError;
    use skydb::scrub::{run_scrub, QuarantinedRow, ScrubConfig};
    use skydb::serve::ServeError;
    use std::sync::atomic::AtomicU64;

    for seed in [17u64, 29, 43] {
        let cfg = GenConfig::night(seed, OBS_ID)
            .with_files(2)
            .with_frames_per_ccd(3)
            .with_objects_per_frame(40);
        let files = generate_observation(&cfg);
        let mut expected = ExpectedCounts::default();
        for f in &files {
            expected.merge(&f.expected);
        }

        let server = Server::start(DbConfig::test());
        skycat::create_all(server.engine()).unwrap();
        skycat::seed_static(server.engine()).unwrap();
        skycat::seed_observation(server.engine(), 1, OBS_ID).unwrap();
        let journal = LoadJournal::new();
        let loader = LoaderConfig::test();
        load_night_with_journal(
            &server,
            &files,
            &loader,
            2,
            AssignmentPolicy::Dynamic,
            Some(&journal),
        )
        .unwrap();

        // Ground truth: every object id the night legitimately loaded.
        let objects = server.engine().table_id("objects").unwrap();
        let valid_ids: BTreeSet<i64> = server
            .engine()
            .scan_where(objects, None)
            .unwrap()
            .iter()
            .filter_map(|r| r.first()?.as_i64())
            .collect();

        let service = QueryService::start(server.clone(), ServeConfig::default());
        let done = AtomicBool::new(false);
        let ok_reads = AtomicU64::new(0);
        let blocked_reads = AtomicU64::new(0);
        let mut quarantined: Vec<QuarantinedRow> = Vec::new();

        std::thread::scope(|scope| {
            for r in 0..2 {
                let (service, done) = (&service, &done);
                let (ok_reads, blocked_reads, valid_ids) = (&ok_reads, &blocked_reads, &valid_ids);
                scope.spawn(move || {
                    let user = format!("racer{r}");
                    while !done.load(Ordering::Acquire) {
                        match service.fast_query(
                            &user,
                            Query::Scan {
                                table: "objects".into(),
                                filter: None,
                            },
                        ) {
                            Ok(FastOutcome::Done(result)) => {
                                ok_reads.fetch_add(1, Ordering::Relaxed);
                                for id in object_ids(&result.rows) {
                                    assert!(
                                        valid_ids.contains(&id),
                                        "seed {seed}: served rotted id {id}"
                                    );
                                }
                            }
                            Err(ServeError::Db(DbError::DataCorruption(_))) => {
                                blocked_reads.fetch_add(1, Ordering::Relaxed);
                            }
                            other => panic!("seed {seed}: unexpected outcome {other:?}"),
                        }
                    }
                });
            }

            // The rot/scrub loop races the readers: damage a committed
            // row, give the scanners a beat to trip over it, scrub it out.
            for round in 0..8u64 {
                if server
                    .engine()
                    .rot_heap_row("objects", seed.wrapping_mul(1000) + round)
                    .is_some()
                {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    let report =
                        run_scrub(server.engine(), &ScrubConfig::default(), server.obs()).unwrap();
                    quarantined.extend(report.quarantined);
                }
            }
            done.store(true, Ordering::Release);
        });

        assert!(!quarantined.is_empty(), "seed {seed}: nothing quarantined");
        assert!(
            ok_reads.load(Ordering::Relaxed) > 0,
            "seed {seed}: readers never completed a scan"
        );
        let got = server.engine().row_count(objects);
        assert_eq!(
            got + quarantined.len() as u64,
            expected.loadable["objects"],
            "seed {seed}: quarantine lost track of rows"
        );

        // Close the loop: repair restores the exact catalog, row for row.
        let repair =
            skyloader::run_repair(&server, &files, &quarantined, false, &loader, 2, &journal)
                .unwrap();
        assert!(repair.complete(), "seed {seed}: {:?}", repair.failed_files);
        assert_eq!(
            repair.rows_restored,
            quarantined.len() as u64,
            "seed {seed}"
        );
        for (table, expect) in &expected.loadable {
            let tid = server.engine().table_id(table).unwrap();
            assert_eq!(
                server.engine().row_count(tid),
                *expect,
                "seed {seed}: {table} after repair"
            );
        }
    }
}
