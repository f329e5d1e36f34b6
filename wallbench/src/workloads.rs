//! The four workloads: inputs, the measured rounds, and their checks.
//!
//! Every round loads the seeded night into fresh engines, checks what was
//! committed, builds the `htmid` index and sends one pass of the query
//! mix. A round is always run whole.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use skycat::{generate_observation, CatalogFile, ExpectedCounts, GenConfig, CATALOG_TABLES};
use skydb::{
    DbConfig, GatherPolicy, Key, QueryService, ServeConfig, Server, ShardGroup, Value, ZoneMap,
};
use skyloader::{
    load_night_with_journal, LoadJournal, LoaderConfig, ModeledCost, ShardLoadConfig, ShardLoader, ShardRouter,
    ZONED_TABLES,
};
use skyobs::{Registry, Snapshot};
use skysim::cluster::AssignmentPolicy;
use skysim::time::TimeScale;

use crate::catalog::{self, Reading};
use crate::checks;
use crate::layers::Backend;
use crate::queries::{self, Latencies, Mix, PassCount, Planned};
use crate::sys::{live_heap_bytes, peak_rss_mb};

/// The observation every night belongs to (seeded by [`catalog_server`]).
pub const OBS_ID: i64 = 100;
/// Frames per CCD column: 28 files of about 3 150 objects each.
pub const FRAMES_PER_CCD: usize = 16;
/// Share of object rows corrupted, so the skip-and-repack path runs.
pub const ERROR_RATE: f64 = 0.005;
/// Zones of the sharded workload, over the night's declination strip.
pub const ZONES: u32 = 4;
/// The night's declination strip.
pub const DEC_BAND: (f64, f64) = (-1.2, 1.2);
/// Loadable lines compared field by field after each load.
pub const SAMPLE_ROWS: usize = 400;
/// The query pass every round sends.
const MIX: Mix = Mix {
    pk: 1000,
    cones: 1000,
    scans: 4,
};
/// The secondary index cone searches use.
const HTM_INDEX: &str = "idx_objects_htmid";

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One loader, one engine.
    Night1Loader,
    /// Two loaders under dynamic assignment, one engine.
    Night2Loaders,
    /// The night routed into four declination zones, then queried.
    Zones4,
}

impl Workload {
    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "night_1loader" => Workload::Night1Loader,
            "night_2loaders" => Workload::Night2Loaders,
            "zones4" => Workload::Zones4,
            _ => return None,
        })
    }
}

/// The seeded night. Files do not vary in size (no size skew), so the
/// seed moves values, corrupted rows and object counts per frame but not
/// the size of the night: a metric that totals the night then moves with
/// the program, not with the draw.
pub fn night(seed: u64) -> Vec<CatalogFile> {
    let mut cfg = GenConfig::night(seed, OBS_ID)
        .with_frames_per_ccd(FRAMES_PER_CCD)
        .with_error_rate(ERROR_RATE);
    cfg.size_skew = 0.0;
    generate_observation(&cfg)
}

/// A paper-environment server that accounts modeled costs without waiting
/// them out, with the catalog schema and the static and observation rows.
pub fn catalog_server(obs: Option<&Arc<Registry>>) -> Arc<Server> {
    let cfg = DbConfig::paper(TimeScale::ZERO);
    let server = match obs {
        Some(obs) => Server::start_with_obs(cfg, obs.clone()),
        None => Server::start(cfg),
    };
    let engine = server.engine();
    skycat::create_all(engine).expect("catalog schema");
    skycat::seed_static(engine).expect("static rows");
    skycat::seed_observation(engine, 1, OBS_ID).expect("observation row");
    server
}

/// The zone map of `zones4`.
pub fn zone_map() -> ZoneMap {
    ZoneMap::band(ZONES, DEC_BAND.0, DEC_BAND.1)
}

/// Committed rows per catalog table.
pub fn committed_counts(server: &Server) -> BTreeMap<&'static str, u64> {
    let engine = server.engine();
    CATALOG_TABLES
        .iter()
        .map(|t| {
            (
                *t,
                engine.row_count(engine.table_id(t).expect("catalog table")),
            )
        })
        .collect()
}

/// What one measured load did.
#[derive(Debug)]
pub struct LoadSample {
    /// Unique loadable rows committed.
    pub rows: u64,
    /// Wall time of the load.
    pub wall: Duration,
    /// The load's wall time split into the pieces that ran one after
    /// another, the same pieces in the same order in every round: a
    /// single loader's files by name and then its own time around them,
    /// the shard loader's files, or the whole night where two loaders
    /// overlap. They sum to `wall`.
    pub parts: Vec<Duration>,
    /// The load on the paper's clock, seconds.
    pub modeled_s: f64,
    /// Live heap growth across the load, bytes.
    pub heap_growth: f64,
    /// Catalog files attempted and given up.
    pub files: PassCount,
    /// Telemetry delta across the load (engine, WAL, cache, locks, txns).
    pub delta: Snapshot,
    /// Loader nodes × wall minus the loaders' busy time, seconds.
    pub idle_s: f64,
    /// Busiest over idlest loader busy time.
    pub imbalance: f64,
    /// Rows the shard loader applied (replicated rows once per zone); for
    /// a single engine, rows inserted.
    pub rows_applied: u64,
}

/// The night and everything the checks need about it.
pub struct Inputs {
    /// The catalog files.
    pub files: Vec<CatalogFile>,
    /// The generator's own accounting.
    pub expected: ExpectedCounts,
}

/// Check a single engine after a load: per-table counts against the
/// generator and the benchmark's reading, and the sampled rows.
fn check_single_load(
    server: &Server,
    inputs: &Inputs,
    reading: &Reading,
    loaded_plus_skipped: u64,
) -> Result<(), String> {
    let committed = committed_counts(server);
    checks::check_counts(
        "committed vs generator",
        &inputs.expected.loadable,
        &committed,
    )?;
    checks::check_counts("committed vs source", &reading.loadable, &committed)?;
    checks::check_count(
        "rows loaded + skipped vs lines",
        reading.lines,
        loaded_plus_skipped,
    )?;
    checks::check_count(
        "rows loaded + skipped vs emitted",
        inputs.expected.total_emitted(),
        loaded_plus_skipped,
    )?;
    let engine = server.engine();
    for s in &reading.sample {
        let tid = engine.table_id(s.table).map_err(|e| e.to_string())?;
        let key = Key(vec![Value::Int(catalog::sample_key(s))]);
        match engine
            .pk_get_committed(tid, &key)
            .map_err(|e| e.to_string())?
        {
            Some(row) => catalog::check_row(s, &row)?,
            None => return Err(format!("sampled {} row is missing: {}", s.table, s.line)),
        }
    }
    Ok(())
}

/// Load the night into `server` with `nodes` loaders and check it.
pub fn load_single(
    server: &Arc<Server>,
    inputs: &Inputs,
    reading: &Reading,
    nodes: usize,
) -> Result<LoadSample, String> {
    let before = server.obs_snapshot();
    let heap0 = live_heap_bytes();
    let t = Instant::now();
    let night = load_night_with_journal(
        server,
        &inputs.files,
        &LoaderConfig::paper(),
        nodes,
        AssignmentPolicy::Dynamic,
        None,
    )
    .map_err(|e| e.to_string())?;
    let wall = t.elapsed();
    let heap_growth = live_heap_bytes() as f64 - heap0 as f64;
    let delta = server.obs_snapshot().since(&before);
    let files = PassCount {
        attempted: inputs.files.len() as u64,
        failed: night.failed_files.len() as u64,
    };
    let accounted = night.rows_loaded() + night.rows_skipped();
    if files.failed == 0 {
        check_single_load(server, inputs, reading, accounted)?;
    }
    let busy: Duration = night.files.iter().map(|f| f.elapsed).sum();
    let parts = if nodes == 1 {
        let mut by_name: Vec<_> = night.files.iter().map(|f| (&f.file, f.elapsed)).collect();
        by_name.sort();
        let mut parts: Vec<Duration> = by_name.into_iter().map(|(_, d)| d).collect();
        parts.push(wall.saturating_sub(busy));
        parts
    } else {
        vec![wall]
    };
    Ok(LoadSample {
        rows: night.rows_loaded(),
        wall,
        parts,
        modeled_s: night
            .files
            .iter()
            .map(|f| f.modeled_makespan.as_secs_f64())
            .sum(),
        heap_growth,
        files,
        idle_s: (wall * nodes as u32).saturating_sub(busy).as_secs_f64(),
        imbalance: night.node_imbalance,
        rows_applied: delta.counter("engine.rows_inserted"),
        delta,
    })
}

/// A fresh four-zone group sharing one telemetry registry.
pub fn zone_group(obs: &Arc<Registry>) -> Arc<ShardGroup> {
    let servers = (0..ZONES).map(|_| catalog_server(Some(obs))).collect();
    Arc::new(ShardGroup::new(
        zone_map(),
        servers,
        &ZONED_TABLES,
        GatherPolicy::default(),
        obs,
    ))
}

fn modeled_total_s(group: &ShardGroup) -> f64 {
    (0..group.zones())
        .map(|z| {
            ModeledCost::measure(&group.server(z), Duration::ZERO)
                .total()
                .as_secs_f64()
        })
        .sum()
}

/// Check a zone group after a load: every zone holds each replicated
/// table in full, the zones together hold each zoned table exactly once,
/// every object lies in its zone's band, and the sampled rows match.
fn check_zones(
    group: &ShardGroup,
    inputs: &Inputs,
    reading: &Reading,
    rows_applied: u64,
) -> Result<(), String> {
    let loadable = &inputs.expected.loadable;
    checks::check_counts("source vs generator", loadable, &reading.loadable)?;
    let mut zoned: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut stored = 0u64;
    for z in 0..group.zones() {
        let counts = committed_counts(&group.server(z));
        for (table, n) in &counts {
            stored += n;
            if ZONED_TABLES.contains(table) {
                *zoned.entry(table).or_insert(0) += n;
            } else {
                checks::check_count(&format!("zone {z} {table}"), loadable[table], *n)?;
            }
        }
        let server = group.server(z);
        let engine = server.engine();
        let objects = engine.table_id("objects").map_err(|e| e.to_string())?;
        let band = checks::zone_band(ZONES, DEC_BAND.0, DEC_BAND.1, z);
        for row in engine
            .scan_where(objects, None)
            .map_err(|e| e.to_string())?
        {
            let (Some(Value::Int(id)), Some(Value::Float(dec))) = (row.first(), row.get(3)) else {
                return Err(format!("zone {z} holds a malformed objects row"));
            };
            checks::check_in_band(z, band, *id, *dec)?;
        }
    }
    let zoned_expected: BTreeMap<_, _> = loadable
        .iter()
        .filter(|(t, _)| ZONED_TABLES.contains(t))
        .map(|(t, n)| (*t, *n))
        .collect();
    checks::check_counts("rows over all zones", &zoned_expected, &zoned)?;
    checks::check_count("rows applied vs rows stored", stored, rows_applied)?;
    for s in &reading.sample {
        let key = Key(vec![Value::Int(catalog::sample_key(s))]);
        let mut holders = 0;
        for z in 0..group.zones() {
            let server = group.server(z);
            let engine = server.engine();
            let tid = engine.table_id(s.table).map_err(|e| e.to_string())?;
            if let Some(row) = engine
                .pk_get_committed(tid, &key)
                .map_err(|e| e.to_string())?
            {
                catalog::check_row(s, &row)?;
                holders += 1;
            }
        }
        let want = if ZONED_TABLES.contains(&s.table) {
            1
        } else {
            ZONES
        };
        checks::check_count(&format!("zones holding {}", s.line), want.into(), holders)?;
    }
    Ok(())
}

/// Route and load the night into a fresh zone group and check it.
pub fn load_zones(
    group: Arc<ShardGroup>,
    obs: &Arc<Registry>,
    inputs: &Inputs,
    reading: &Reading,
) -> Result<(Arc<ShardGroup>, LoadSample), String> {
    let loader = ShardLoader::new(group.clone(), ShardLoadConfig::default(), obs);
    let mut router = ShardRouter::new(zone_map());
    let modeled0 = modeled_total_s(&group);
    let before = obs.snapshot();
    let journal = LoadJournal::new();
    let mut parts = Vec::with_capacity(inputs.files.len());
    let mut files = PassCount::default();
    let mut rows_applied = 0;
    let heap0 = live_heap_bytes();
    // One call per file, in file order, through the same router and
    // journal: the router routes in file order either way, and the time
    // of each file is then the benchmark's own clock around its call.
    for file in &inputs.files {
        let t = Instant::now();
        let report = loader.load_files(&mut router, std::slice::from_ref(file), Some(&journal));
        parts.push(t.elapsed());
        files.attempted += 1;
        match report {
            Ok(r) if r.files_loaded == 1 => rows_applied += r.rows_applied,
            _ => files.failed += 1,
        }
    }
    let wall = parts.iter().sum();
    let heap_growth = live_heap_bytes() as f64 - heap0 as f64;
    let modeled_s = modeled_total_s(&group) - modeled0;
    let delta = obs.snapshot().since(&before);
    if files.failed == 0 {
        check_zones(&group, inputs, reading, rows_applied)?;
    }
    let rows = inputs.expected.total_loadable();
    Ok((
        group,
        LoadSample {
            rows,
            wall,
            parts,
            modeled_s,
            heap_growth,
            files,
            delta,
            idle_s: 0.0,
            imbalance: 1.0,
            rows_applied,
        },
    ))
}

/// Build the cone index on every engine of a backend and start its serve
/// tier.
pub fn serve(backend: &Backend, obs: &Registry) -> Result<QueryService, String> {
    let index = |s: &Server| {
        s.engine()
            .create_index("objects", HTM_INDEX, &["htmid"], false)
            .map_err(|e| e.to_string())
    };
    Ok(match backend {
        Backend::Single(s) => {
            index(s)?;
            QueryService::start(s.clone(), ServeConfig::default())
        }
        Backend::Zones(g) => {
            for z in 0..g.zones() {
                index(&g.server(z))?;
            }
            QueryService::start_sharded(g.clone(), ServeConfig::default(), obs)
        }
    })
}

/// Everything a run measured.
#[derive(Default)]
pub struct Measured {
    /// Set-up time from process start to the first measured round,
    /// seconds.
    pub setup_s: f64,
    /// Measured loads, in order.
    pub loads: Vec<LoadSample>,
    /// Query latencies of each timed pass, in order.
    pub passes: Vec<Latencies>,
    /// Peak resident set after the warm-up round, MB. Later rounds reuse
    /// freed memory unevenly across allocator arenas, so only the first
    /// round of the process is counted.
    pub peak_rss_mb: f64,
    /// Files and queries attempted and failed.
    pub ops: PassCount,
}

impl Measured {
    fn add(&mut self, c: PassCount) {
        self.ops.attempted += c.attempted;
        self.ops.failed += c.failed;
    }
}

/// The state a run ends in, for the traced passes.
pub struct Finished {
    /// What was measured.
    pub measured: Measured,
    /// The night.
    pub inputs: Inputs,
    /// The query plan.
    pub plan: Vec<Planned>,
    /// The last round's backend and serve tier.
    pub backend: Backend,
    /// The last round's serve tier.
    pub svc: QueryService,
}

/// Empty engines for one round of `workload`.
fn fresh_backend(workload: Workload, obs: &Arc<Registry>) -> Backend {
    match workload {
        Workload::Zones4 => Backend::Zones(zone_group(obs)),
        _ => Backend::Single(catalog_server(None)),
    }
}

/// What one round left: its serve tier and engines (in that drop order),
/// its load and its timed pass.
struct Round {
    svc: QueryService,
    backend: Backend,
    sample: LoadSample,
    lat: Latencies,
    pass: PassCount,
}

/// Load the night into fresh engines, check it, and send one timed pass.
fn round(
    workload: Workload,
    obs: &Arc<Registry>,
    inputs: &Inputs,
    reading: &Reading,
    plan: &[Planned],
) -> Result<Round, String> {
    let (backend, sample) = match fresh_backend(workload, obs) {
        Backend::Zones(group) => {
            let (group, sample) = load_zones(group, obs, inputs, reading)?;
            (Backend::Zones(group), sample)
        }
        Backend::Single(server) => {
            let nodes = if workload == Workload::Night2Loaders {
                2
            } else {
                1
            };
            let sample = load_single(&server, inputs, reading, nodes)?;
            (Backend::Single(server), sample)
        }
    };
    let svc = serve(&backend, obs)?;
    let mut lat = Latencies::default();
    let pass = queries::run_pass(&svc, plan, Some(&mut lat))?;
    Ok(Round {
        svc,
        backend,
        sample,
        lat,
        pass,
    })
}

/// Run `workload` on the night of `seed` for `seconds`, whole rounds only.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    process_start: Instant,
) -> Result<Finished, String> {
    // Set-up: the inputs, the benchmark's own reading of them and its
    // query plan, and one warm-up round whose figures are not counted.
    // The round lets the allocator and caches reach the state later
    // rounds run in, and a set-up of a few seconds averages over the
    // host's slow spells, where one of half a second lands either inside
    // one or outside it.
    let files = night(seed);
    let expected = skycat::gen::aggregate_expected(&files);
    let inputs = Inputs { files, expected };
    let reading = catalog::read(&inputs.files, seed, SAMPLE_ROWS);
    checks::check_counts(
        "source vs generator",
        &inputs.expected.loadable,
        &reading.loadable,
    )?;
    let plan = queries::plan(&reading, seed, MIX);
    let obs = Arc::new(Registry::new());
    let mut m = Measured::default();
    drop(round(workload, &obs, &inputs, &reading, &plan)?);
    m.peak_rss_mb = peak_rss_mb();
    m.setup_s = process_start.elapsed().as_secs_f64();

    let loop_start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let (backend, svc) = loop {
        // The previous round's engines are dropped before this one
        // builds its own.
        let r = round(workload, &obs, &inputs, &reading, &plan)?;
        m.add(r.sample.files);
        m.loads.push(r.sample);
        m.passes.push(r.lat);
        m.add(r.pass);
        if loop_start.elapsed() >= budget {
            break (r.backend, r.svc);
        }
    };
    Ok(Finished {
        measured: m,
        inputs,
        plan,
        backend,
        svc,
    })
}
