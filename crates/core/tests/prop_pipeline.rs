//! Property tests for the pipelined (double-buffered) loading mode: for ANY
//! workload shape, tuning, and even ANY injected connection-fault schedule,
//! `PipelineMode::Double` must be observationally identical to serial mode —
//! same rows committed per table, same skip counts per kind, and the same
//! journal state when a load dies mid-flight. Both modes drive the same
//! flush worker, so their wire-call sequences (and therefore the fault's
//! landing point) line up call-for-call.

use proptest::prelude::*;
use std::sync::Arc;

use skycat::gen::{generate_file, GenConfig};
use skydb::{DbConfig, FaultPlan, Server};
use skyloader::{
    load_catalog_file, load_catalog_text_with_journal, CommitPolicy, LoadJournal, LoaderConfig,
    PipelineMode,
};

fn fresh_server() -> Arc<Server> {
    let server = Server::start(DbConfig::test());
    skycat::create_all(server.engine()).unwrap();
    skycat::seed_static(server.engine()).unwrap();
    skycat::seed_observation(server.engine(), 1, 100).unwrap();
    server
}

fn gen_config(seed: u64, error_pct: u32, presorted: bool) -> GenConfig {
    GenConfig {
        seed,
        obs_id: 100,
        files: 1,
        ccds_per_file: 2,
        frames_per_ccd: 2,
        objects_per_frame: 25,
        error_rate: error_pct as f64 / 100.0,
        presorted,
        size_skew: 0.0,
    }
}

/// Row counts for every catalog table actually present on the server.
fn table_counts(server: &Server) -> Vec<(String, u64)> {
    skycat::CATALOG_TABLES
        .iter()
        .map(|t| {
            let tid = server.engine().table_id(t).unwrap();
            ((*t).to_owned(), server.engine().row_count(tid))
        })
        .collect()
}

proptest! {
    // Each case loads full files through the wire in both modes; keep the
    // case count moderate.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Clean-shutdown equivalence, fuzzed over workload and tuning knobs.
    #[test]
    fn pipelined_path_is_observationally_identical(
        seed in any::<u64>(),
        error_pct in 0u32..25,
        batch in 1usize..70,
        array in prop::sample::select(vec![70usize, 150, 400]),
        presorted in any::<bool>(),
    ) {
        prop_assume!(batch <= array);
        let file = generate_file(&gen_config(seed, error_pct, presorted), 0);
        let base = LoaderConfig::test()
            .with_batch_size(batch)
            .with_array_size(array);
        let run = |cfg: &LoaderConfig| {
            let server = fresh_server();
            let report = load_catalog_file(&server.connect(), cfg, &file).unwrap();
            (report, table_counts(&server))
        };
        let (serial, serial_counts) = run(&base);
        let (piped, piped_counts) =
            run(&base.clone().with_pipeline(PipelineMode::Double));

        prop_assert_eq!(serial.rows_loaded, piped.rows_loaded);
        prop_assert_eq!(serial.rows_skipped, piped.rows_skipped);
        prop_assert_eq!(&serial.loaded_by_table, &piped.loaded_by_table);
        prop_assert_eq!(&serial.skipped_by_kind, &piped.skipped_by_kind);
        prop_assert_eq!(serial.batch_calls, piped.batch_calls);
        prop_assert_eq!(serial.commits, piped.commits);
        prop_assert_eq!(serial_counts, piped_counts);
        // And both match the generator's ground truth.
        prop_assert_eq!(piped.rows_loaded, file.expected.total_loadable());
    }

    /// Crash equivalence: with a connection fault injected on the N-th
    /// client call, both modes must fail at the same point, leave the same
    /// journal checkpoint, and — after a faultless resume — converge to the
    /// same exact repository.
    #[test]
    fn pipelined_and_serial_fail_identically(
        seed in any::<u64>(),
        error_pct in 0u32..15,
        every in 5u64..60,
    ) {
        let file = generate_file(&gen_config(seed, error_pct, false), 0);
        let cfg_serial = LoaderConfig::test()
            .with_array_size(150)
            .with_batch_size(25)
            .with_commit_policy(CommitPolicy::PerFlush);
        let cfg_piped = cfg_serial.clone().with_pipeline(PipelineMode::Double);

        let run = |cfg: &LoaderConfig| {
            let server = fresh_server();
            let journal = LoadJournal::default();
            server.set_fault_plan(Some(FaultPlan::every_nth(every)));
            let session = server.connect();
            let outcome =
                load_catalog_text_with_journal(&session, cfg, &file.name, &file.text, &journal);
            let failed = outcome.is_err();
            let checkpoint = journal.committed_lines(&file.name);
            let counts_at_failure = table_counts(&server);
            // Faultless resume from the journal, after rolling back the
            // wounded transaction — what parallel.rs's retry loop does.
            server.set_fault_plan(None);
            session.rollback().unwrap();
            let resumed =
                load_catalog_text_with_journal(&session, cfg, &file.name, &file.text, &journal)
                    .unwrap();
            (failed, checkpoint, counts_at_failure, resumed, table_counts(&server))
        };

        let (s_failed, s_checkpoint, s_counts, s_resumed, s_final) = run(&cfg_serial);
        let (p_failed, p_checkpoint, p_counts, p_resumed, p_final) = run(&cfg_piped);

        // Identical failure point and post-crash state…
        prop_assert_eq!(s_failed, p_failed);
        prop_assert_eq!(s_checkpoint, p_checkpoint);
        prop_assert_eq!(s_counts, p_counts);
        // …identical resume…
        prop_assert_eq!(s_resumed.lines_resumed, p_resumed.lines_resumed);
        prop_assert_eq!(s_resumed.rows_loaded, p_resumed.rows_loaded);
        prop_assert_eq!(&s_resumed.skipped_by_kind, &p_resumed.skipped_by_kind);
        // …and an exact repository at the end.
        prop_assert_eq!(&s_final, &p_final);
        for (table, expect) in &file.expected.loadable {
            let got = p_final
                .iter()
                .find(|(t, _)| t.as_str() == *table)
                .map(|(_, n)| *n)
                .unwrap_or(0);
            prop_assert_eq!(got, *expect, "row count mismatch for {}", table);
        }
    }
}
