//! Declination-zone sharding: N independent engines behind one coordinator.
//!
//! PAPERS.md's "Large-Scale Query and XMatch, Entering the Parallel Zone"
//! (Nieto-Santisteban, Szalay, Gray) partitions a sky catalog into
//! declination *zones* so both loading and spatial queries parallelize
//! across databases. This module supplies the substrate:
//!
//! * a [`ZoneMap`]: a total, stable assignment from declination to zone —
//!   every dec maps to exactly one zone (out-of-band values clamp to the
//!   edge zones), and zone boundaries round-trip through the routing;
//! * a [`ShardGroup`]: one [`Server`] per zone behind a coordinator that
//!   routes writes by zone under **per-shard fencing epochs** and fans
//!   reads out as **scatter-gather** with per-shard timeout budgets,
//!   deterministic-jitter retries, and an explicit partial-result flag
//!   when a zone is down and the caller opted into degraded reads.
//!
//! The failover contract mirrors the loader fleet's lease machinery: when
//! the supervisor declares a shard dead it calls
//! [`ShardGroup::fence_and_take`], which bumps the zone's epoch and raises
//! the fence floor on the *old* server first — the point of no return for
//! zombie flushes — then rebuilds a replacement and swaps it in with
//! [`ShardGroup::install`]. A flush that was in flight against the old
//! generation commits into [`DbError::FencedOut`] and is requeued by the
//! loader; it can never half-apply into both generations.
//!
//! Reads are deliberately unfenced (matching [`crate::server`]): a scan
//! against a fenced-but-alive shard still answers, because fencing guards
//! *mutations* against split-brain, not reads against staleness.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

use skysim::rng::SplitMix64;

use crate::error::{DbError, DbResult};
use crate::server::{Server, Session};
use crate::value::Row;
use crate::wire::Fence;

/// A total, stable declination → zone assignment: `zones` equal-width
/// bands over `[dec_min, dec_max)`, with out-of-band declinations clamped
/// to the edge zones so the map is total over every float input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZoneMap {
    zones: u32,
    dec_min: f64,
    dec_max: f64,
}

impl ZoneMap {
    /// Equal-width zones over the full sky, dec ∈ [−90, 90).
    pub fn full_sky(zones: u32) -> ZoneMap {
        ZoneMap::band(zones, -90.0, 90.0)
    }

    /// Equal-width zones over a declination band. A survey that only
    /// covers a strip (drift scans cover a few degrees of dec) shards the
    /// strip, so every zone actually receives rows.
    ///
    /// # Panics
    /// Panics on a zero zone count or an empty/non-finite band.
    pub fn band(zones: u32, dec_min: f64, dec_max: f64) -> ZoneMap {
        assert!(zones > 0, "a zone map needs at least one zone");
        assert!(
            dec_min.is_finite() && dec_max.is_finite() && dec_min < dec_max,
            "zone band must be a non-empty finite interval, got [{dec_min}, {dec_max})"
        );
        ZoneMap {
            zones,
            dec_min,
            dec_max,
        }
    }

    /// Number of zones.
    pub fn zones(&self) -> u32 {
        self.zones
    }

    /// The band this map covers, `(dec_min, dec_max)`.
    pub fn dec_range(&self) -> (f64, f64) {
        (self.dec_min, self.dec_max)
    }

    /// Lower boundary of `zone` (the value `bounds` reports).
    fn lower(&self, zone: u32) -> f64 {
        self.dec_min + (self.dec_max - self.dec_min) * zone as f64 / self.zones as f64
    }

    /// The zone owning `dec`. Total: NaN and out-of-band values clamp to
    /// the edge zones. Exact at boundaries: `zone_for_dec(bounds(z).0) ==
    /// z` for every zone, float rounding notwithstanding.
    pub fn zone_for_dec(&self, dec: f64) -> u32 {
        let t = (dec - self.dec_min) / (self.dec_max - self.dec_min);
        // NaN casts to 0; out-of-band saturates into the clamp below.
        let guess = (t * self.zones as f64).floor() as i64;
        let mut z = guess.clamp(0, self.zones as i64 - 1) as u32;
        // The division above can land one zone off at exact boundaries;
        // walk to the unique zone with lower(z) <= dec < lower(z + 1).
        while z > 0 && dec < self.lower(z) {
            z -= 1;
        }
        while z + 1 < self.zones && dec >= self.lower(z + 1) {
            z += 1;
        }
        z
    }

    /// The half-open declination interval `[lo, hi)` a zone owns.
    pub fn bounds(&self, zone: u32) -> (f64, f64) {
        assert!(zone < self.zones, "zone {zone} out of range");
        let hi = if zone + 1 == self.zones {
            self.dec_max
        } else {
            self.lower(zone + 1)
        };
        (self.lower(zone), hi)
    }

    /// Zones intersecting the declination interval `[dec_lo, dec_hi]` —
    /// the fan-out set for a cone search. Clamping keeps the result a
    /// superset for out-of-band intervals, never empty.
    pub fn covering_zones(&self, dec_lo: f64, dec_hi: f64) -> Vec<u32> {
        let (lo, hi) = if dec_lo <= dec_hi {
            (dec_lo, dec_hi)
        } else {
            (dec_hi, dec_lo)
        };
        (self.zone_for_dec(lo)..=self.zone_for_dec(hi)).collect()
    }
}

/// Fence key for a zone: stable FNV-1a of `"shard/<zone>"`, the same
/// construction the loader fleet uses for file leases, so one server-side
/// fence registry serves both.
pub fn shard_fence_key(zone: u32) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("shard/{zone}").bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Scatter-gather behavior: per-shard budgets, retry shape, and whether
/// the caller accepts degraded (partial) answers.
#[derive(Debug, Clone)]
pub struct GatherPolicy {
    /// Attempts per zone before declaring it unavailable.
    pub attempts: u32,
    /// Per-shard call budget: each server call on a gather carries this
    /// session timeout, so one stalled shard cannot absorb the whole
    /// query's latency.
    pub per_shard_timeout: Option<Duration>,
    /// Base real-time delay between retries (doubles per attempt).
    pub backoff_base: Duration,
    /// Retry delay ceiling.
    pub backoff_cap: Duration,
    /// Seed for deterministic retry jitter.
    pub seed: u64,
    /// `true`: a zone that stays down after retries is *reported* —
    /// [`GatherResult::partial`] set, the zone listed in
    /// [`GatherResult::missing_zones`] — and the gather returns what the
    /// live zones answered. `false`: the gather fails with the zone's
    /// error. Either way an answer is never silently truncated.
    pub allow_partial: bool,
}

impl Default for GatherPolicy {
    fn default() -> Self {
        GatherPolicy {
            attempts: 4,
            per_shard_timeout: None,
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(100),
            seed: 0x5EED,
            allow_partial: false,
        }
    }
}

impl GatherPolicy {
    /// Builder-style: attempts per zone.
    pub fn with_attempts(mut self, n: u32) -> Self {
        self.attempts = n.max(1);
        self
    }

    /// Builder-style: per-shard call budget.
    pub fn with_per_shard_timeout(mut self, d: Duration) -> Self {
        self.per_shard_timeout = Some(d);
        self
    }

    /// Builder-style: jitter seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style: opt into degraded (partial) reads.
    pub fn with_allow_partial(mut self, allow: bool) -> Self {
        self.allow_partial = allow;
        self
    }
}

/// What a scatter-gather read returned.
#[derive(Debug, Clone)]
pub struct GatherResult {
    /// Rows from every zone that answered, in zone order.
    pub rows: Vec<Row>,
    /// Summed modeled latency across shard calls (retries included).
    pub modeled: Duration,
    /// `true` when at least one covering zone never answered and the
    /// policy opted into degraded reads — the explicit flag that
    /// distinguishes a degraded answer from a complete one.
    pub partial: bool,
    /// The zones missing from a partial answer (empty when complete).
    pub missing_zones: Vec<u32>,
}

struct ShardSlot {
    server: RwLock<Arc<Server>>,
    epoch: AtomicU64,
}

/// One engine per declination zone behind a routing coordinator.
pub struct ShardGroup {
    map: ZoneMap,
    slots: Vec<ShardSlot>,
    policy: GatherPolicy,
    /// Tables partitioned by zone; everything else is replicated to every
    /// shard (keeping per-shard foreign keys self-contained), so reads of
    /// replicated tables go to one live shard, not all.
    zoned_tables: Vec<String>,
    /// Primary-key → zone cache for zoned point lookups, filled by
    /// broadcast hits and by the loader as it routes.
    directory: RwLock<HashMap<i64, u32>>,
    gather_ordinal: AtomicU64,
    m_queries: skyobs::CounterHandle,
    m_retries: skyobs::CounterHandle,
    m_partial: skyobs::CounterHandle,
    m_zone_failures: skyobs::CounterHandle,
    m_fenced_takes: skyobs::CounterHandle,
}

impl ShardGroup {
    /// Assemble a group from one pre-built server per zone. Metrics
    /// register in `obs` under `shard.gather.*`; `zoned` names the tables
    /// partitioned by declination (all others are treated as replicated).
    ///
    /// # Panics
    /// Panics unless `servers.len() == map.zones()`.
    pub fn new(
        map: ZoneMap,
        servers: Vec<Arc<Server>>,
        zoned: &[&str],
        policy: GatherPolicy,
        obs: &skyobs::Registry,
    ) -> ShardGroup {
        assert_eq!(
            servers.len(),
            map.zones() as usize,
            "one server per zone ({} zones)",
            map.zones()
        );
        let slots = servers
            .into_iter()
            .map(|server| ShardSlot {
                server: RwLock::new(server),
                epoch: AtomicU64::new(0),
            })
            .collect();
        ShardGroup {
            map,
            slots,
            policy,
            zoned_tables: zoned.iter().map(|t| t.to_string()).collect(),
            directory: RwLock::new(HashMap::new()),
            gather_ordinal: AtomicU64::new(0),
            m_queries: obs.counter("shard.gather.queries"),
            m_retries: obs.counter("shard.gather.retries"),
            m_partial: obs.counter("shard.gather.partial"),
            m_zone_failures: obs.counter("shard.gather.zone_failures"),
            m_fenced_takes: obs.counter("shard.fenced_takes"),
        }
    }

    /// The zone map routing this group.
    pub fn map(&self) -> &ZoneMap {
        &self.map
    }

    /// Number of shards (= zones).
    pub fn zones(&self) -> u32 {
        self.map.zones()
    }

    /// The gather policy.
    pub fn policy(&self) -> &GatherPolicy {
        &self.policy
    }

    /// Is `table` partitioned by zone (vs replicated to every shard)?
    pub fn is_zoned(&self, table: &str) -> bool {
        self.zoned_tables.iter().any(|t| t == table)
    }

    /// The current server behind `zone`.
    pub fn server(&self, zone: u32) -> Arc<Server> {
        self.slots[zone as usize].server.read().unwrap().clone()
    }

    /// The current fencing epoch of `zone`.
    pub fn epoch(&self, zone: u32) -> u64 {
        self.slots[zone as usize].epoch.load(Ordering::Acquire)
    }

    /// Raise `zone`'s epoch to at least `epoch` (max-merge) — how a
    /// restarted coordinator folds persisted epochs back in so it can
    /// never issue an epoch an earlier incarnation already fenced.
    pub fn restore_epoch(&self, zone: u32, epoch: u64) {
        let slot = &self.slots[zone as usize];
        slot.epoch.fetch_max(epoch, Ordering::AcqRel);
        let e = slot.epoch.load(Ordering::Acquire);
        self.server(zone).advance_fence(shard_fence_key(zone), e);
    }

    /// The fencing token a writer must attach to flushes for `zone`
    /// *right now*. A writer holds the token for the length of one flush;
    /// if the supervisor fences the zone meanwhile, the flush's commit is
    /// rejected with [`DbError::FencedOut`] and the writer requeues.
    pub fn write_fence(&self, zone: u32) -> Fence {
        Fence {
            key: shard_fence_key(zone),
            epoch: self.epoch(zone),
        }
    }

    /// Declare `zone`'s current generation dead: bump the epoch and raise
    /// the fence floor on the **old** server first, so any zombie flush
    /// still in flight against it is rejected before a replacement
    /// exists. Returns the old server (for log salvage) and the new
    /// epoch. The zone keeps answering through the old server until
    /// [`ShardGroup::install`] swaps the replacement in.
    pub fn fence_and_take(&self, zone: u32) -> (Arc<Server>, u64) {
        let slot = &self.slots[zone as usize];
        let new_epoch = slot.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        let old = self.server(zone);
        // Point of no return: from here the old generation rejects every
        // flush carrying the pre-bump epoch.
        old.advance_fence(shard_fence_key(zone), new_epoch);
        self.m_fenced_takes.inc();
        (old, new_epoch)
    }

    /// Swap a rebuilt server in for `zone`. The replacement's fence floor
    /// is raised to the current epoch before it becomes visible, so the
    /// fencing guarantee survives the swap.
    pub fn install(&self, zone: u32, server: Arc<Server>) {
        let slot = &self.slots[zone as usize];
        server.advance_fence(shard_fence_key(zone), slot.epoch.load(Ordering::Acquire));
        *slot.server.write().unwrap() = server;
    }

    /// Record that a zoned table's primary key lives in `zone` (the
    /// loader primes this as it routes; broadcasts also fill it).
    pub fn note_pk_zone(&self, id: i64, zone: u32) {
        self.directory.write().unwrap().insert(id, zone);
    }

    /// Directory lookup: which zone owns this primary key, if known.
    pub fn pk_zone(&self, id: i64) -> Option<u32> {
        self.directory.read().unwrap().get(&id).copied()
    }

    /// Forget the directory (a restarted coordinator rebuilds it lazily
    /// from broadcasts).
    pub fn clear_directory(&self) {
        self.directory.write().unwrap().clear();
    }

    /// Deterministic retry jitter: factor in `[0.5, 1.5)` derived from
    /// (policy seed, gather ordinal, zone, attempt) — same seed, same
    /// retry timing profile, independent of thread interleaving.
    fn retry_delay(&self, ordinal: u64, zone: u32, attempt: u32) -> Duration {
        let base = self.policy.backoff_base.as_micros() as u64;
        let scaled = base.saturating_mul(1u64 << attempt.min(16));
        let mut rng = SplitMix64::new(
            self.policy.seed
                ^ ordinal.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ ((zone as u64 + 1) << 32)
                ^ attempt as u64,
        );
        rng.next_u64();
        let jittered = (scaled as f64 * (0.5 + rng.next_f64())) as u64;
        Duration::from_micros(jittered).min(self.policy.backoff_cap)
    }

    /// Is this error worth another attempt against the same zone? The
    /// slot is re-read on every attempt, so [`DbError::ServerDown`] is
    /// retryable: the supervisor may install a rebuilt server between
    /// attempts. (Reads are unfenced, so `FencedOut` cannot arise here.)
    fn retryable(e: &DbError) -> bool {
        matches!(
            e,
            DbError::Protocol(_)
                | DbError::ServerBusy(_)
                | DbError::Timeout(_)
                | DbError::Corruption(_)
                | DbError::ServerDown(_)
        )
    }

    fn query_zone<F>(&self, ordinal: u64, zone: u32, f: &F) -> DbResult<(Vec<Row>, Duration)>
    where
        F: Fn(&Session, u32) -> DbResult<(Vec<Row>, Duration)>,
    {
        let mut modeled = Duration::ZERO;
        let mut attempt = 0u32;
        loop {
            // Re-read the slot each attempt: a supervisor swap between
            // attempts is how a downed zone comes back mid-query.
            let server = self.server(zone);
            let session = server.connect();
            session.set_call_timeout(self.policy.per_shard_timeout);
            match f(&session, zone) {
                Ok((rows, m)) => return Ok((rows, modeled + m)),
                Err(e) => {
                    attempt += 1;
                    if attempt >= self.policy.attempts || !Self::retryable(&e) {
                        self.m_zone_failures.inc();
                        return Err(e);
                    }
                    self.m_retries.inc();
                    std::thread::sleep(self.retry_delay(ordinal, zone, attempt - 1));
                    modeled += self.retry_delay(ordinal, zone, attempt - 1);
                }
            }
        }
    }

    /// Scatter-gather over `zones` with the degraded-read contract
    /// applied: complete answers come back `partial: false`; with
    /// [`GatherPolicy::allow_partial`], zones that stay down are listed
    /// in [`GatherResult::missing_zones`] instead of failing the query.
    pub fn gather<F>(&self, zones: &[u32], f: F) -> DbResult<GatherResult>
    where
        F: Fn(&Session, u32) -> DbResult<(Vec<Row>, Duration)>,
    {
        self.m_queries.inc();
        let ordinal = self.gather_ordinal.fetch_add(1, Ordering::Relaxed);
        let mut result = GatherResult {
            rows: Vec::new(),
            modeled: Duration::ZERO,
            partial: false,
            missing_zones: Vec::new(),
        };
        for &zone in zones {
            match self.query_zone(ordinal, zone, &f) {
                Ok((rows, m)) => {
                    result.rows.extend(rows);
                    result.modeled += m;
                }
                Err(e) if self.policy.allow_partial => {
                    result.partial = true;
                    result.missing_zones.push(zone);
                    let _ = e;
                }
                Err(e) => return Err(e),
            }
        }
        if result.partial {
            self.m_partial.inc();
        }
        Ok(result)
    }

    /// Scan `table`: fan out to every zone for a zoned table, or to the
    /// first zone that answers for a replicated one (every shard holds a
    /// full copy, so one healthy shard suffices).
    pub fn scan(&self, table: &str, filter: Option<crate::expr::Expr>) -> DbResult<GatherResult> {
        if self.is_zoned(table) {
            let zones: Vec<u32> = (0..self.zones()).collect();
            let table = table.to_owned();
            self.gather(&zones, move |session, _| {
                let reply = session.query_scan_named(&table, filter.clone())?;
                Ok((reply.rows, reply.modeled))
            })
        } else {
            self.first_live(|session| {
                let reply = session.query_scan_named(table, filter.clone())?;
                Ok((reply.rows, reply.modeled))
            })
        }
    }

    /// Point lookup. Zoned tables route by id through the directory when
    /// it knows the owner, falling back to a broadcast that fills the
    /// directory on a hit; replicated tables ask one live shard.
    pub fn pk_lookup(&self, table: &str, key: Row) -> DbResult<GatherResult> {
        if !self.is_zoned(table) {
            return self.first_live(|session| {
                let reply = session.query_pk(table, key.clone())?;
                Ok((reply.rows, reply.modeled))
            });
        }
        let id = match key.first() {
            Some(crate::value::Value::Int(id)) => Some(*id),
            _ => None,
        };
        let zones: Vec<u32> = match id.and_then(|id| self.pk_zone(id)) {
            Some(zone) => vec![zone],
            None => (0..self.zones()).collect(),
        };
        let table = table.to_owned();
        let key2 = key.clone();
        self.m_queries.inc();
        let ordinal = self.gather_ordinal.fetch_add(1, Ordering::Relaxed);
        let mut result = GatherResult {
            rows: Vec::new(),
            modeled: Duration::ZERO,
            partial: false,
            missing_zones: Vec::new(),
        };
        for &zone in &zones {
            match self.query_zone(ordinal, zone, &|session: &Session, _| {
                let reply = session.query_pk(&table, key2.clone())?;
                Ok((reply.rows, reply.modeled))
            }) {
                Ok((rows, m)) => {
                    result.modeled += m;
                    if !rows.is_empty() {
                        if let Some(id) = id {
                            self.note_pk_zone(id, zone);
                        }
                        result.rows.extend(rows);
                        // A primary key lives in exactly one zone.
                        break;
                    }
                }
                Err(e) if self.policy.allow_partial => {
                    result.partial = true;
                    result.missing_zones.push(zone);
                    let _ = e;
                }
                Err(e) => return Err(e),
            }
        }
        if result.partial {
            self.m_partial.inc();
        }
        Ok(result)
    }

    /// Run a read against the first zone that answers — how replicated
    /// tables are served. Tries zones in order; only if every zone fails
    /// does the error (or, under `allow_partial`, a fully-partial result)
    /// surface.
    fn first_live<F>(&self, f: F) -> DbResult<GatherResult>
    where
        F: Fn(&Session) -> DbResult<(Vec<Row>, Duration)>,
    {
        self.m_queries.inc();
        let ordinal = self.gather_ordinal.fetch_add(1, Ordering::Relaxed);
        let mut last_err: Option<DbError> = None;
        for zone in 0..self.zones() {
            match self.query_zone(ordinal, zone, &|session: &Session, _| f(session)) {
                Ok((rows, m)) => {
                    return Ok(GatherResult {
                        rows,
                        modeled: m,
                        partial: false,
                        missing_zones: Vec::new(),
                    });
                }
                Err(e) => last_err = Some(e),
            }
        }
        let err =
            last_err.unwrap_or_else(|| DbError::ServerDown("shard group has no live zones".into()));
        if self.policy.allow_partial {
            self.m_partial.inc();
            return Ok(GatherResult {
                rows: Vec::new(),
                modeled: Duration::ZERO,
                partial: true,
                missing_zones: (0..self.zones()).collect(),
            });
        }
        Err(err)
    }
}

impl std::fmt::Debug for ShardGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardGroup")
            .field("zones", &self.zones())
            .field("map", &self.map)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DbConfig;
    use crate::schema::TableBuilder;
    use crate::value::{DataType, Value};

    fn obj_server() -> Arc<Server> {
        let s = Server::start(DbConfig::test());
        let t = TableBuilder::new("objects")
            .col("object_id", DataType::Int)
            .col("dec", DataType::Float)
            .pk(&["object_id"])
            .build()
            .unwrap();
        s.engine().create_table(t).unwrap();
        let r = TableBuilder::new("refcat")
            .col("ref_id", DataType::Int)
            .pk(&["ref_id"])
            .build()
            .unwrap();
        s.engine().create_table(r).unwrap();
        s
    }

    fn group(n: u32) -> ShardGroup {
        let map = ZoneMap::band(n, -2.0, 2.0);
        let servers = (0..n).map(|_| obj_server()).collect();
        ShardGroup::new(
            map,
            servers,
            &["objects"],
            GatherPolicy::default().with_attempts(2),
            &skyobs::Registry::new(),
        )
    }

    fn insert_objects(g: &ShardGroup, points: &[(i64, f64)]) {
        for &(id, dec) in points {
            let zone = g.map().zone_for_dec(dec);
            let session = g.server(zone).connect();
            session.set_fence(Some(g.write_fence(zone)));
            let stmt = session.prepare_insert("objects").unwrap();
            session
                .execute(&stmt, vec![Value::Int(id), Value::Float(dec)])
                .unwrap();
            session.commit().unwrap();
            g.note_pk_zone(id, zone);
        }
    }

    #[test]
    fn zone_map_is_total_and_boundaries_round_trip() {
        let map = ZoneMap::band(7, -1.2, 2.4);
        for z in 0..7 {
            let (lo, hi) = map.bounds(z);
            assert_eq!(map.zone_for_dec(lo), z, "lower bound of zone {z}");
            assert!(lo < hi);
        }
        // Out-of-band and pathological inputs clamp, never panic.
        assert_eq!(map.zone_for_dec(-90.0), 0);
        assert_eq!(map.zone_for_dec(90.0), 6);
        assert_eq!(map.zone_for_dec(f64::NAN), 0);
        assert_eq!(map.zone_for_dec(f64::INFINITY), 6);
        assert_eq!(map.zone_for_dec(f64::NEG_INFINITY), 0);
    }

    #[test]
    fn covering_zones_clamp_and_cover() {
        let map = ZoneMap::band(4, 0.0, 4.0);
        assert_eq!(map.covering_zones(0.5, 2.5), vec![0, 1, 2]);
        assert_eq!(map.covering_zones(-10.0, -5.0), vec![0]);
        assert_eq!(map.covering_zones(3.9, 99.0), vec![3]);
        assert_eq!(map.covering_zones(2.5, 0.5), vec![0, 1, 2]);
    }

    #[test]
    fn scatter_gather_scan_concatenates_zones() {
        let g = group(3);
        insert_objects(&g, &[(1, -1.5), (2, 0.0), (3, 1.5), (4, 1.9)]);
        let res = g.scan("objects", None).unwrap();
        assert!(!res.partial);
        let mut ids: Vec<i64> = res.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 3, 4]);
    }

    #[test]
    fn pk_lookup_routes_by_directory_and_broadcast() {
        let g = group(3);
        insert_objects(&g, &[(10, -1.5), (20, 1.5)]);
        // Directory primed by the insert helper: routed lookup.
        let res = g.pk_lookup("objects", vec![Value::Int(10)]).unwrap();
        assert_eq!(res.rows.len(), 1);
        // Forget the directory: broadcast finds it and re-primes.
        g.clear_directory();
        let res = g.pk_lookup("objects", vec![Value::Int(20)]).unwrap();
        assert_eq!(res.rows.len(), 1);
        assert_eq!(g.pk_zone(20), Some(g.map().zone_for_dec(1.5)));
    }

    #[test]
    fn fence_and_take_rejects_zombie_flush_and_install_recovers() {
        let g = group(2);
        insert_objects(&g, &[(1, -1.0)]);
        let zone = g.map().zone_for_dec(-1.0);

        // A writer starts a flush under the current epoch…
        let writer = g.server(zone).connect();
        writer.set_fence(Some(g.write_fence(zone)));
        let stmt = writer.prepare_insert("objects").unwrap();
        writer
            .execute(&stmt, vec![Value::Int(2), Value::Float(-1.1)])
            .unwrap();

        // …the supervisor fences the zone mid-flush…
        let (old, new_epoch) = g.fence_and_take(zone);
        assert_eq!(new_epoch, 1);

        // …and the zombie's commit is rejected before anything applies.
        let err = writer.commit().unwrap_err();
        assert!(matches!(err, DbError::FencedOut(_)), "got {err:?}");
        writer.rollback().unwrap();

        // Replacement rebuilt from the old generation's durable log.
        let log = old.engine().durable_log();
        let schemas = vec![
            old.engine()
                .schema(old.engine().table_id("objects").unwrap())
                .as_ref()
                .clone(),
            old.engine()
                .schema(old.engine().table_id("refcat").unwrap())
                .as_ref()
                .clone(),
        ];
        let engine =
            crate::engine::Engine::recover_from_log(DbConfig::test(), schemas, &log).unwrap();
        g.install(zone, Server::with_engine(engine));

        // The new generation serves the committed row, not the zombie's.
        let res = g.scan("objects", None).unwrap();
        assert_eq!(res.rows.len(), 1);
        // And a write under the *new* epoch lands.
        let session = g.server(zone).connect();
        session.set_fence(Some(g.write_fence(zone)));
        let stmt = session.prepare_insert("objects").unwrap();
        session
            .execute(&stmt, vec![Value::Int(3), Value::Float(-1.2)])
            .unwrap();
        session.commit().unwrap();
    }

    #[test]
    fn partial_reads_are_flagged_never_silent() {
        let g = {
            let map = ZoneMap::band(2, -2.0, 2.0);
            let servers = (0..2).map(|_| obj_server()).collect();
            ShardGroup::new(
                map,
                servers,
                &["objects"],
                GatherPolicy::default()
                    .with_attempts(2)
                    .with_allow_partial(true),
                &skyobs::Registry::new(),
            )
        };
        insert_objects(&g, &[(1, -1.0), (2, 1.0)]);
        g.server(1).crash();
        let res = g.scan("objects", None).unwrap();
        assert!(res.partial, "a downed zone must flag the answer partial");
        assert_eq!(res.missing_zones, vec![1]);
        assert_eq!(res.rows.len(), 1, "the live zone still answers");

        // Without the opt-in, the same read errors instead of truncating.
        let strict = {
            let map = ZoneMap::band(2, -2.0, 2.0);
            let servers = vec![g.server(0), g.server(1)];
            ShardGroup::new(
                map,
                servers,
                &["objects"],
                GatherPolicy::default().with_attempts(2),
                &skyobs::Registry::new(),
            )
        };
        let err = strict.scan("objects", None).unwrap_err();
        assert!(matches!(err, DbError::ServerDown(_)), "got {err:?}");
    }

    #[test]
    fn replicated_tables_fail_over_to_a_live_zone() {
        let g = group(3);
        for zone in 0..3 {
            let session = g.server(zone).connect();
            let stmt = session.prepare_insert("refcat").unwrap();
            session.execute(&stmt, vec![Value::Int(7)]).unwrap();
            session.commit().unwrap();
        }
        g.server(0).crash();
        let res = g.scan("refcat", None).unwrap();
        assert!(!res.partial);
        assert_eq!(res.rows.len(), 1, "one live replica answers");
        let res = g.pk_lookup("refcat", vec![Value::Int(7)]).unwrap();
        assert_eq!(res.rows.len(), 1);
    }

    #[test]
    fn restore_epoch_max_merges_and_fences() {
        let g = group(2);
        g.restore_epoch(0, 5);
        assert_eq!(g.epoch(0), 5);
        g.restore_epoch(0, 3);
        assert_eq!(g.epoch(0), 5, "epochs never move backwards");
        assert_eq!(g.server(0).fence_floor(shard_fence_key(0)), 5);
    }
}
