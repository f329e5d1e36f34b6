//! Shard failover end to end: a night live-ingested into declination
//! zones while shards are killed and stalled mid-flush, the supervisor
//! fences each dead generation and rebuilds it from its durable log,
//! the coordinator itself restarts mid-night, and scatter-gather
//! readers run throughout — asserting per-zone row-exact, exactly-once
//! delivery against an independent single-engine reference load.

use std::sync::Arc;

use skyloader::{run_soak, Preset, SoakConfig};

#[test]
fn shard_kill_mid_ingest_fences_rebuilds_and_lands_exactly_once() {
    // Three distinct fixed seeds: a shard engine is crashed at the first
    // shard-fault opportunity and another frozen past its lease at the
    // second, on top of connection weather. The supervisor must fence
    // the dead generation (so zombie flushes reject), rebuild it, and
    // the night must still converge row-exact per zone.
    for seed in [2005u64, 11, 77] {
        let cfg = SoakConfig {
            seed,
            files: 4,
            nodes: 3,
            quick: true,
            ..SoakConfig::new(Preset::Shard)
        };
        let report = run_soak(&cfg, &Arc::new(skyobs::Registry::new())).expect("soak runs");
        assert!(
            report.passed(),
            "seed {seed}: {:?} mismatches={:?}",
            report.failures(),
            report.rows.mismatches,
        );
        let shard = report.shard.as_ref().expect("shard stats");
        assert!(shard.kills >= 1, "seed {seed}: no shard was killed");
        assert!(shard.stalls >= 1, "seed {seed}: no shard was stalled");
        assert!(
            shard.reclaims >= 1 && shard.rebuilds >= 1,
            "seed {seed}: supervisor never fenced+rebuilt (reclaims={} rebuilds={})",
            shard.reclaims,
            shard.rebuilds
        );
        assert_eq!(
            shard.coordinator_restarts, 1,
            "seed {seed}: coordinator restart did not happen"
        );
        assert_eq!(
            report.rows.actual_rows, report.rows.expected_rows,
            "seed {seed}: row totals diverge"
        );
        // Every zone ended up owning real data — the partition is live,
        // not one shard holding everything.
        assert!(
            shard.per_zone_rows.iter().all(|&n| n > 0),
            "seed {seed}: empty zone in {:?}",
            shard.per_zone_rows
        );
        // Readers ran, and any degraded answer was explicitly flagged —
        // corrupt_rows_served == 0 (checked via passed above)
        // proves nothing was silently truncated or invented.
        assert!(report.reads.total > 0, "seed {seed}: readers never ran");
    }
}
