//! Process-level recovery under injected connection faults: flaky links
//! must not lose or duplicate a single row (§3: "a mechanism of automatic
//! recovery from errors is a basic requirement").

use std::sync::Arc;

use skycat::gen::{aggregate_expected, generate_file, generate_observation, GenConfig};
use skydb::{DbConfig, FaultPlan, Server};
use skyloader::{
    load_catalog_file, load_night_with_journal, CommitPolicy, LoadJournal, LoaderConfig,
};
use skysim::cluster::AssignmentPolicy;

fn fresh_server() -> Arc<Server> {
    let server = Server::start(DbConfig::test());
    skycat::create_all(server.engine()).expect("schema");
    skycat::seed_static(server.engine()).expect("dimensions");
    skycat::seed_observation(server.engine(), 1, 100).expect("observation");
    server
}

#[test]
fn flaky_connection_with_journal_loads_exactly_once() {
    let files = generate_observation(&GenConfig::night(801, 100).with_files(6));
    let expected = aggregate_expected(&files);
    let server = fresh_server();
    // Fail every 97th database call: several failures over the night.
    server.set_fault_plan(Some(FaultPlan::every_nth(97)));

    let journal = LoadJournal::new();
    let cfg = LoaderConfig::test()
        .with_array_size(300)
        .with_commit_policy(CommitPolicy::PerFlush);
    let report = load_night_with_journal(
        &server,
        &files,
        &cfg,
        2,
        AssignmentPolicy::Dynamic,
        Some(&journal),
    )
    .expect("night load succeeds");
    assert!(
        report.failed_files.is_empty(),
        "every file must retire on a flaky link: {:?}",
        report.failed_files
    );

    assert!(
        server.faults_injected() > 0,
        "the fault plan should have fired"
    );
    server.set_fault_plan(None);
    for (table, expect) in &expected.loadable {
        let tid = server.engine().table_id(table).unwrap();
        assert_eq!(
            server.engine().row_count(tid),
            *expect,
            "{table} after flaky load"
        );
    }
}

#[test]
fn flaky_connection_without_journal_still_converges() {
    // Without a journal, retries re-send already-committed rows; PK
    // enforcement turns them into skips, so the repository still converges
    // to exactly one copy of everything.
    let file = generate_file(&GenConfig::small(803, 100), 0);
    let server = fresh_server();
    server.set_fault_plan(Some(FaultPlan::every_nth(41)));
    load_night_with_journal(
        &server,
        std::slice::from_ref(&file),
        &LoaderConfig::test().with_commit_policy(CommitPolicy::PerFlush),
        1,
        AssignmentPolicy::Dynamic,
        None,
    )
    .expect("night load succeeds");
    server.set_fault_plan(None);
    for (table, expect) in &file.expected.loadable {
        let tid = server.engine().table_id(table).unwrap();
        assert_eq!(server.engine().row_count(tid), *expect, "{table}");
    }
}

#[test]
fn single_load_surfaces_protocol_errors_to_the_caller() {
    // The low-level loader does not retry by itself: a connection failure
    // is reported, not swallowed.
    let file = generate_file(&GenConfig::small(805, 100), 0);
    let server = fresh_server();
    server.set_fault_plan(Some(FaultPlan::every_nth(1))); // every call fails
    let session = server.connect();
    let err = load_catalog_file(&session, &LoaderConfig::test(), &file).unwrap_err();
    assert!(matches!(err, skydb::DbError::Protocol(_)), "{err}");
}
