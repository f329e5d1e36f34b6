//! The traced passes: calls into each layer's public functions, timed
//! from here, on the same inputs the untraced rounds used.
//!
//! The night is replayed layer by layer into a fresh engine — parse,
//! transform, array-set, wire encode and decode, `Session::execute_batch`,
//! `Session::commit` — in the batch sequence the production loader sends
//! (parent-before-child flushes, batch-size chunks, skip the failing row
//! and re-pack from the next, Fig. 3). Each phase runs over a whole file
//! at a time, so the clock is read per phase, not per row.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::BytesMut;
use skycat::{parse_line, transform, CatalogFile, CATALOG_TABLES};
use skydb::wire::Request;
use skydb::{Key, QueryService, Row, ServeConfig, Server, ShardGroup, Value};
use skyhtm::{cone_key_ranges_at, Cone};
use skyloader::{ArraySet, LoaderConfig, ShardRouter};
use skysim::mem::MemoryModel;
use skysim::time::TimeScale;

use crate::queries::Planned;
use crate::sys::median;
use crate::workloads::{catalog_server, committed_counts, zone_map};

/// Wall time of each load layer over one replay of the night.
#[derive(Debug, Default)]
pub struct LoadLayers {
    /// Lines read.
    pub lines: u64,
    /// Rows transformed.
    pub rows: u64,
    /// Rows sent in insert batches (a row re-sent after a skip counts again).
    pub rows_sent: u64,
    /// `parse_line` time.
    pub parse: Duration,
    /// `transform` time.
    pub transform: Duration,
    /// `ArraySet::push`/`seal` time.
    pub arrayset: Duration,
    /// `Request::encode` time of the insert batches.
    pub encode: Duration,
    /// `Request::decode` time of the same bytes.
    pub decode: Duration,
    /// Encoded bytes of the insert batches.
    pub wire_bytes: u64,
    /// `Session::execute_batch` time.
    pub execute_batch: Duration,
    /// `Session::commit` time.
    pub commit: Duration,
    /// Commits issued.
    pub commits: u64,
    /// Committed rows per catalog table after the replay.
    pub committed: BTreeMap<&'static str, u64>,
}

fn timed<T>(acc: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed();
    out
}

/// Replay `files` layer by layer into a fresh engine.
pub fn replay_load(files: &[CatalogFile]) -> Result<LoadLayers, String> {
    let cfg = LoaderConfig::paper();
    let server = catalog_server(None);
    let session = server.connect();
    let tables: Vec<String> = CATALOG_TABLES.iter().map(|t| (*t).to_owned()).collect();
    let stmts = tables
        .iter()
        .map(|t| session.prepare_insert(t))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let mut out = LoadLayers::default();
    for file in files {
        let lines: Vec<&str> = file.text.lines().collect();
        out.lines += lines.len() as u64;
        let records: Vec<_> = timed(&mut out.parse, || {
            lines.iter().filter_map(|l| parse_line(l).ok()).collect()
        });
        let rows: Vec<(&'static str, Row)> = timed(&mut out.transform, || {
            records.iter().filter_map(|r| transform(r).ok()).collect()
        });
        out.rows += rows.len() as u64;
        let mem = MemoryModel::new(
            cfg.client_heap_budget,
            4096,
            cfg.client_fault_penalty,
            TimeScale::ZERO,
        );
        let mut set = ArraySet::new(&tables, &cfg, mem);
        let sealed = timed(&mut out.arrayset, || {
            let mut sealed = Vec::new();
            for (table, row) in rows {
                let idx = set.index_of(table).expect("transform emits catalog tables");
                if set.push(idx, row) {
                    sealed.push(set.seal());
                }
            }
            if !set.is_empty() {
                sealed.push(set.seal());
            }
            sealed
        });
        let mut requests = Vec::new();
        for mut s in sealed {
            for (idx, stmt) in stmts.iter().enumerate() {
                let rows = s.take(idx);
                let mut first = 0;
                while first < rows.len() {
                    let end = (first + cfg.batch_size).min(rows.len());
                    let batch = &rows[first..end];
                    let result = timed(&mut out.execute_batch, || {
                        session.execute_batch(stmt, batch)
                    })
                    .map_err(|e| format!("replay of {}: {e}", file.name))?;
                    out.rows_sent += batch.len() as u64;
                    requests.push(Request::InsertBatch {
                        table: stmt.table(),
                        rows: batch.to_vec(),
                        fence: None,
                    });
                    first = match result.failed {
                        None => end,
                        Some((offset, _)) => first + offset + 1,
                    };
                }
            }
        }
        timed(&mut out.commit, || session.commit()).map_err(|e| e.to_string())?;
        out.commits += 1;
        let encoded: Vec<BytesMut> = timed(&mut out.encode, || {
            requests
                .iter()
                .map(|r| {
                    let mut buf = BytesMut::with_capacity(256);
                    r.encode(&mut buf);
                    buf
                })
                .collect()
        });
        out.wire_bytes += encoded.iter().map(|b| b.len() as u64).sum::<u64>();
        timed(&mut out.decode, || {
            for buf in &encoded {
                let mut rd: &[u8] = buf;
                black_box(Request::decode(&mut rd).expect("own encoding decodes"));
            }
        });
    }
    out.committed = committed_counts(&server);
    Ok(out)
}

/// Time `ShardRouter::route` over `files` on the 4-zone map; returns the
/// total time.
pub fn route(files: &[CatalogFile]) -> Duration {
    let mut router = ShardRouter::new(zone_map());
    let t = Instant::now();
    for f in files {
        black_box(router.route(f, None));
    }
    t.elapsed()
}

/// What the serve tier's query path is made of, per query.
#[derive(Debug, Default)]
pub struct QueryLayers {
    /// Median `fast_query` point lookup minus median direct lookup, ns.
    pub serve_overhead_ns: f64,
    /// Median direct `Engine::pk_get_committed`, ns.
    pub pk_get_ns: f64,
    /// Mean `cone_key_ranges_at` time per cone, µs.
    pub cover_us: f64,
    /// Mean cover ranges per cone.
    pub ranges: f64,
    /// Mean `index_range_committed` time per cone over all its ranges and
    /// zones, µs.
    pub index_range_us: f64,
    /// Index candidates examined per row returned.
    pub examined_per_returned: f64,
    /// Mean zones a cone is sent to.
    pub zones_per_cone: f64,
    /// Mean sharded cone time minus the same cone's per-zone calls, µs.
    pub gather_overhead_us: f64,
}

/// The backend a workload's queries run against.
pub enum Backend {
    /// One engine.
    Single(Arc<Server>),
    /// Declination zones.
    Zones(Arc<ShardGroup>),
}

impl Backend {
    fn servers_for_cone(&self, dec: f64, radius_deg: f64) -> Vec<(Arc<Server>, Option<u32>)> {
        match self {
            Backend::Single(s) => vec![(s.clone(), None)],
            Backend::Zones(g) => g
                .map()
                .covering_zones(dec - radius_deg, dec + radius_deg)
                .into_iter()
                .map(|z| (g.server(z), Some(z)))
                .collect(),
        }
    }

    fn server_for_pk(&self, id: i64) -> Arc<Server> {
        match self {
            Backend::Single(s) => s.clone(),
            Backend::Zones(g) => g.server(g.pk_zone(id).unwrap_or(0)),
        }
    }
}

/// Send `plan` through `svc` once more, and beside each query call the
/// layers it is made of directly. Every answer is checked again.
pub fn decompose(
    backend: &Backend,
    svc: &QueryService,
    plan: &[Planned],
) -> Result<QueryLayers, String> {
    let cfg = svc.config().clone();
    let zone_svcs: Vec<QueryService> = match backend {
        Backend::Single(_) => Vec::new(),
        Backend::Zones(g) => (0..g.zones())
            .map(|z| QueryService::start(g.server(z), ServeConfig::default()))
            .collect(),
    };
    let fast = |q: &Planned| -> Result<(Vec<Row>, Duration), String> {
        let t = Instant::now();
        let outcome = svc.fast_query("bench", q.query());
        let took = t.elapsed();
        match outcome {
            Ok(skydb::FastOutcome::Done(r)) if !r.partial => {
                q.check(&r.rows)?;
                Ok((r.rows, took))
            }
            other => Err(format!("traced query was not answered: {other:?}")),
        }
    };
    let (mut fast_pk, mut direct_pk) = (Vec::new(), Vec::new());
    let (mut cones, mut cover, mut ranges, mut index_range) =
        (0u64, Duration::ZERO, 0u64, Duration::ZERO);
    let (mut examined, mut returned, mut zones, mut gather) = (0u64, 0u64, 0u64, 0.0f64);
    for q in plan {
        match q {
            Planned::Pk(o) => {
                let (_, took) = fast(q)?;
                fast_pk.push(took.as_nanos() as f64);
                let server = backend.server_for_pk(o.id);
                let engine = server.engine();
                let tid = engine.table_id("objects").map_err(|e| e.to_string())?;
                let key = Key(vec![Value::Int(o.id)]);
                let t = Instant::now();
                let row = engine.pk_get_committed(tid, &key);
                direct_pk.push(t.elapsed().as_nanos() as f64);
                if !matches!(row, Ok(Some(_))) {
                    return Err(format!("direct lookup of object {} found nothing", o.id));
                }
            }
            Planned::Cone {
                ra,
                dec,
                radius_arcmin,
                ..
            } => {
                let (rows, took) = fast(q)?;
                cones += 1;
                returned += rows.len() as u64;
                let cone = Cone::from_radec_arcmin(*ra, *dec, *radius_arcmin);
                let cover_ranges = timed(&mut cover, || {
                    cone_key_ranges_at(&cone, cfg.cover_depth, cfg.htm_depth)
                });
                ranges += cover_ranges.len() as u64;
                let targets = backend.servers_for_cone(*dec, radius_arcmin / 60.0);
                zones += targets.len() as u64;
                let mut per_zone = Duration::ZERO;
                for (server, zone) in &targets {
                    let engine = server.engine();
                    for (lo, hi) in &cover_ranges {
                        let (lo, hi) = (Key(vec![Value::Int(*lo)]), Key(vec![Value::Int(*hi)]));
                        let hits = timed(&mut index_range, || {
                            engine.index_range_committed(&cfg.cone_table, &cfg.cone_index, &lo, &hi)
                        })
                        .map_err(|e| e.to_string())?;
                        examined += hits.examined;
                    }
                    if let Some(z) = zone {
                        let t = Instant::now();
                        let answered = zone_svcs[*z as usize].fast_query("bench", q.query());
                        per_zone += t.elapsed();
                        if !matches!(answered, Ok(skydb::FastOutcome::Done(_))) {
                            return Err(format!("zone {z} did not answer a cone"));
                        }
                    }
                }
                if !zone_svcs.is_empty() {
                    gather += (took.as_secs_f64() - per_zone.as_secs_f64()) * 1e6;
                }
            }
            Planned::Scan { .. } => {
                fast(q)?;
            }
        }
    }
    let per_cone = |x: f64| x / cones.max(1) as f64;
    Ok(QueryLayers {
        serve_overhead_ns: median(&fast_pk) - median(&direct_pk),
        pk_get_ns: median(&direct_pk),
        cover_us: per_cone(cover.as_secs_f64() * 1e6),
        ranges: per_cone(ranges as f64),
        index_range_us: per_cone(index_range.as_secs_f64() * 1e6),
        examined_per_returned: examined as f64 / returned.max(1) as f64,
        zones_per_cone: per_cone(zones as f64),
        gather_overhead_us: per_cone(gather),
    })
}
