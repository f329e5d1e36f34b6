//! Telemetry-spine properties, end to end through the facade:
//!
//! * registry snapshots are **monotone** over a load — counters never go
//!   backwards, no matter what the night throws at the loader;
//! * the span ring is **bounded** — a chaos soak with kills, stalls and a
//!   crash never grows the ring past its configured capacity, and drops
//!   are accounted rather than silent.

use std::sync::Arc;

use proptest::prelude::*;

use skydb::{DbConfig, Server};
use skyloader::{run_soak, LoaderConfig, Preset, SoakConfig};

fn fresh_server() -> Arc<Server> {
    let server = Server::start(DbConfig::test());
    skycat::create_all(server.engine()).unwrap();
    skycat::seed_static(server.engine()).unwrap();
    skycat::seed_observation(server.engine(), 1, 100).unwrap();
    server
}

/// Every counter in `a` is ≤ its value in `b` (missing in `b` means 0).
fn monotone(
    a: &std::collections::BTreeMap<String, u64>,
    b: &std::collections::BTreeMap<String, u64>,
) -> bool {
    a.iter().all(|(k, v)| b.get(k).copied().unwrap_or(0) >= *v)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4 })]

    #[test]
    fn snapshots_are_monotone_across_a_load(seed in 0u64..1000, error_rate in 0.0f64..0.1) {
        let files = skycat::gen::generate_observation(
            &skycat::gen::GenConfig::night(seed, 100)
                .with_files(2)
                .with_error_rate(error_rate),
        );
        let server = fresh_server();
        let session = server.connect();
        let mut prev = server.obs_snapshot();
        for f in &files {
            skyloader::load_catalog_file(&session, &LoaderConfig::test(), f).unwrap();
            let cur = server.obs_snapshot();
            prop_assert!(
                monotone(&prev.counters, &cur.counters),
                "a counter went backwards between files"
            );
            prev = cur;
        }
    }

    #[test]
    fn span_ring_stays_bounded_under_chaos(seed in 0u64..64) {
        let obs = Arc::new(skyobs::Registry::with_span_capacity(32));
        let cfg = SoakConfig {
            seed,
            files: 2,
            nodes: 2,
            quick: true,
            loader_kill_at: Some(1),
            loader_stall_at: Some(2),
            ..SoakConfig::new(Preset::Chaos)
        };
        let report = run_soak(&cfg, &obs).unwrap();
        prop_assert!(report.passed(), "soak failed: {:?} {:?}", report.failures(), report.rows.mismatches);
        prop_assert!(
            obs.spans().len() <= obs.span_capacity(),
            "ring holds {} spans over its bound of {}",
            obs.spans().len(),
            obs.span_capacity()
        );
        // A soak this size seals far more than 32 segments, so the ring
        // must have wrapped — and wrapping is accounted, not silent.
        prop_assert!(obs.spans_dropped() > 0, "expected the ring to wrap");
        prop_assert_eq!(obs.spans().len(), obs.span_capacity());
    }
}
