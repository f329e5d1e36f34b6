//! Chaos soak end to end: a full synthetic night loaded under a seeded
//! multi-kind fault plan (resets, busy rejections, latency spikes,
//! disk-full commits, batch corruption, one crash-on-flush), asserting
//! exactly-once row delivery against the generator's ground truth.

use std::sync::Arc;

use skyloader::{run_soak, Preset, SoakConfig, SoakReport};

fn run_chaos(cfg: &SoakConfig) -> Result<SoakReport, String> {
    run_soak(cfg, &Arc::new(skyobs::Registry::new()))
}

#[test]
fn full_night_survives_a_multi_kind_fault_plan_exactly_once() {
    let cfg = SoakConfig::new(Preset::Chaos);
    assert_eq!(
        (cfg.seed, cfg.files, cfg.nodes, cfg.quick),
        (2005, 6, 3, false)
    );
    let report = run_chaos(&cfg).expect("soak runs");
    assert!(
        report.passed(),
        "{:?} unfinished={:?} mismatches={:?}",
        report.failures(),
        report.ingest.unfinished_files,
        report.rows.mismatches
    );
    // The crash-on-flush downed the server at least once and the load
    // still converged through log recovery + journal resume.
    assert!(report.ingest.restarts >= 1, "crash-on-flush never fired");
    // The plan exercised a genuinely multi-kind schedule.
    assert!(
        report.fault_kinds_fired() >= 4,
        "want >= 4 distinct fault kinds, got {:?}",
        report.faults_by_kind
    );
    assert!(
        *report.faults_by_kind.get("crash_on_flush").unwrap_or(&0) >= 1,
        "{:?}",
        report.faults_by_kind
    );
    // The client-side resilience layer did real work.
    assert!(report.ingest.retries > 0);
}

#[test]
fn killed_loader_hands_its_file_to_the_fleet_exactly_once() {
    // A loader is killed mid-file on the very first lease grant, on top
    // of the full connection-fault weather. The file's lease must expire
    // and be reclaimed (>= 1 reclaim), another loader must finish the
    // file from the journal watermark, and every loadable row must land
    // exactly once — on three distinct fixed seeds.
    for seed in [2005u64, 11, 77] {
        let cfg = SoakConfig {
            seed,
            files: 4,
            nodes: 2,
            quick: true,
            loader_kill_at: Some(1),
            ..SoakConfig::new(Preset::Chaos)
        };
        let report = run_chaos(&cfg).expect("soak runs");
        assert!(
            report.passed(),
            "seed {seed}: {:?} unfinished={:?} mismatches={:?}",
            report.failures(),
            report.ingest.unfinished_files,
            report.rows.mismatches
        );
        assert!(
            report.ingest.loader_kills >= 1,
            "seed {seed}: the loader kill never fired"
        );
        assert!(
            report.ingest.lease_reclaims >= 1,
            "seed {seed}: the killed loader's lease was never reclaimed"
        );
        assert!(
            *report.faults_by_kind.get("loader_kill").unwrap_or(&0) >= 1,
            "seed {seed}: {:?}",
            report.faults_by_kind
        );
    }
}

#[test]
fn chaos_schedule_is_a_pure_function_of_the_seed() {
    // Single-node soaks are fully deterministic end to end: the fault
    // counters, retry counts and generation structure must be identical
    // across runs with the same seed, and must diverge across seeds.
    let run = |seed| {
        run_chaos(&SoakConfig {
            seed,
            files: 3,
            nodes: 1,
            quick: true,
            ..SoakConfig::new(Preset::Chaos)
        })
        .expect("soak runs")
    };
    let a = run(77);
    let b = run(77);
    assert_eq!(a.faults_by_kind, b.faults_by_kind);
    assert_eq!(a.ingest.retries, b.ingest.retries);
    assert_eq!(a.ingest.breaker_trips, b.ingest.breaker_trips);
    assert_eq!(a.ingest.generations, b.ingest.generations);
    assert_eq!(a.ingest.restarts, b.ingest.restarts);
    assert!(a.passed());

    let c = run(78);
    assert!(
        c.faults_by_kind != a.faults_by_kind || c.ingest.retries != a.ingest.retries,
        "different seeds produced an identical schedule"
    );
}
