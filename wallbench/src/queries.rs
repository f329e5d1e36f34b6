//! The fast-queue query mix, its expected answers, and the closed loop
//! that sends it.
//!
//! Expected answers come from the benchmark's own reading of the source
//! ([`crate::catalog`]): cones by brute force over every loadable object
//! position with the benchmark's own great-circle distance, point lookups
//! and scans from the source values.

use std::collections::HashMap;
use std::time::Instant;

use skydb::{CmpOp, Expr, FastOutcome, Query, QueryService, Row, Value};
use skysim::rng::SplitMix64;

use crate::catalog::{Obj, Reading};
use crate::checks;

/// Column of `objects.mag_auto` (scans filter on it).
const MAG_COL: usize = 7;

/// How many queries of each kind one pass sends.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Primary-key lookups of loadable objects.
    pub pk: usize,
    /// Cone searches of 1–6 arcmin around object positions.
    pub cones: usize,
    /// Full `objects` scans filtered on `mag_auto`.
    pub scans: usize,
}

/// One query of the mix with what it must return.
#[derive(Debug, Clone)]
pub enum Planned {
    /// Look up `objects[idx]` by primary key.
    Pk(Obj),
    /// Cone search; the expected ids are sorted.
    Cone {
        /// Centre right ascension, degrees.
        ra: f64,
        /// Centre declination, degrees.
        dec: f64,
        /// Radius, arcminutes.
        radius_arcmin: f64,
        /// What the answer must hold.
        truth: checks::ConeTruth,
    },
    /// Scan `objects` for `mag_auto < mag_lt`.
    Scan {
        /// Magnitude bound.
        mag_lt: f64,
        /// Expected row count.
        count: u64,
        /// Expected sum of object ids.
        id_sum: i64,
    },
}

impl Planned {
    /// The serve-tier query.
    pub fn query(&self) -> Query {
        match self {
            Planned::Pk(o) => Query::PkLookup {
                table: "objects".into(),
                key: vec![Value::Int(o.id)],
            },
            Planned::Cone {
                ra,
                dec,
                radius_arcmin,
                ..
            } => Query::Cone {
                ra_deg: *ra,
                dec_deg: *dec,
                radius_arcmin: *radius_arcmin,
            },
            Planned::Scan { mag_lt, .. } => Query::Scan {
                table: "objects".into(),
                filter: Some(Expr::cmp(MAG_COL, CmpOp::Lt, *mag_lt)),
            },
        }
    }

    /// Check an answer against the expected one.
    pub fn check(&self, rows: &[Row]) -> Result<(), String> {
        match self {
            Planned::Pk(o) => checks::check_pk(o, rows),
            Planned::Cone { truth, .. } => checks::check_cone(truth, &ids(rows)),
            Planned::Scan { count, id_sum, .. } => {
                let got = ids(rows);
                checks::check_count("scan rows", *count, got.len() as u64)?;
                checks::check_count(
                    "scan id sum",
                    *id_sum as u64,
                    got.iter().sum::<i64>() as u64,
                )
            }
        }
    }
}

/// Object ids (column 0) of `rows`, sorted.
pub fn ids(rows: &[Row]) -> Vec<i64> {
    let mut ids: Vec<i64> = rows
        .iter()
        .filter_map(|r| match r.first() {
            Some(Value::Int(id)) => Some(*id),
            _ => None,
        })
        .collect();
    ids.sort_unstable();
    ids
}

/// Great-circle distance in degrees (haversine form).
pub fn great_circle_deg(ra1: f64, dec1: f64, ra2: f64, dec2: f64) -> f64 {
    let (d1, d2) = (dec1.to_radians(), dec2.to_radians());
    let dd = (d2 - d1) / 2.0;
    let dr = (ra2 - ra1).to_radians() / 2.0;
    let h = dd.sin().powi(2) + d1.cos() * d2.cos() * dr.sin().powi(2);
    (2.0 * h.sqrt().min(1.0).asin()).to_degrees()
}

/// Objects bucketed on a coarse ra/dec grid, so a brute-force cone visits
/// only nearby cells. Cells are wider than any cone, so the 3×3
/// neighbourhood of the centre cell holds every candidate.
struct Grid<'a> {
    objects: &'a [Obj],
    cells: HashMap<(i64, i64), Vec<usize>>,
}

const CELL_DEG: f64 = 0.25;

fn cell(ra: f64, dec: f64) -> (i64, i64) {
    (
        (ra / CELL_DEG).floor() as i64,
        (dec / CELL_DEG).floor() as i64,
    )
}

impl<'a> Grid<'a> {
    fn new(objects: &'a [Obj]) -> Self {
        let mut cells: HashMap<(i64, i64), Vec<usize>> = HashMap::new();
        for (i, o) in objects.iter().enumerate() {
            cells.entry(cell(o.ra, o.dec)).or_default().push(i);
        }
        Grid { objects, cells }
    }

    fn cone(&self, ra: f64, dec: f64, radius_deg: f64) -> checks::ConeTruth {
        assert!(radius_deg < CELL_DEG / 2.0, "cone wider than a grid cell");
        let (cr, cd) = cell(ra, dec);
        let mut truth = checks::ConeTruth::default();
        for dr in -1..=1 {
            for dd in -1..=1 {
                for &i in self.cells.get(&(cr + dr, cd + dd)).into_iter().flatten() {
                    let o = &self.objects[i];
                    let d = great_circle_deg(ra, dec, o.ra, o.dec);
                    if (d - radius_deg).abs() <= checks::EDGE_DEG {
                        truth.edge.push(o.id);
                    } else if d < radius_deg {
                        truth.inside.push(o.id);
                    }
                }
            }
        }
        truth.inside.sort_unstable();
        truth.edge.sort_unstable();
        truth
    }
}

/// Plan one pass of `mix` over the loadable objects of `reading`, in a
/// seeded interleaved order.
pub fn plan(reading: &Reading, seed: u64, mix: Mix) -> Vec<Planned> {
    let objects = &reading.objects;
    assert!(!objects.is_empty(), "no loadable objects to query");
    let grid = Grid::new(objects);
    let mut rng = SplitMix64::new(seed ^ 0x9e1e_c7ed_0c0e);
    let pick = |rng: &mut SplitMix64| objects[rng.next_below(objects.len() as u64) as usize];
    let mut out = Vec::with_capacity(mix.pk + mix.cones + mix.scans);
    for _ in 0..mix.pk {
        out.push(Planned::Pk(pick(&mut rng)));
    }
    for _ in 0..mix.cones {
        let o = pick(&mut rng);
        let ra = o.ra + rng.next_f64_range(-0.05, 0.05);
        let dec = o.dec + rng.next_f64_range(-0.05, 0.05);
        let radius_arcmin = rng.next_f64_range(1.0, 6.0);
        let truth = grid.cone(ra, dec, radius_arcmin / 60.0);
        out.push(Planned::Cone {
            ra,
            dec,
            radius_arcmin,
            truth,
        });
    }
    for _ in 0..mix.scans {
        let mag_lt = rng.next_f64_range(14.0, 15.0);
        let hits = objects.iter().filter(|o| o.mag.is_some_and(|m| m < mag_lt));
        let (count, id_sum) = hits.fold((0u64, 0i64), |(n, s), o| (n + 1, s + o.id));
        out.push(Planned::Scan {
            mag_lt,
            count,
            id_sum,
        });
    }
    rng.shuffle(&mut out);
    out
}

/// Wall latencies of one or more passes, in microseconds, by kind.
#[derive(Debug, Default)]
pub struct Latencies {
    /// Point lookups.
    pub pk: Vec<f64>,
    /// Cone searches.
    pub cone: Vec<f64>,
    /// Filtered scans.
    pub scan: Vec<f64>,
}

impl Latencies {
    /// Queries answered per second of query time: one closed-loop client
    /// with no think time, so the inverse of the mean latency.
    pub fn queries_per_s(&self) -> f64 {
        let n = self.pk.len() + self.cone.len() + self.scan.len();
        let busy_us: f64 = self.pk.iter().chain(&self.cone).chain(&self.scan).sum();
        n as f64 / (busy_us / 1e6)
    }
}

/// Outcome counts of a pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct PassCount {
    /// Queries sent.
    pub attempted: u64,
    /// Rejected, demoted, partial or failed queries.
    pub failed: u64,
}

/// Send `plan` once through `svc` from one closed-loop client, timing
/// each query; every answer is checked. `lat` is `None` for an untimed
/// warm-up pass. A wrong answer is an error; a refused one is a failure.
pub fn run_pass(
    svc: &QueryService,
    plan: &[Planned],
    mut lat: Option<&mut Latencies>,
) -> Result<PassCount, String> {
    let mut count = PassCount::default();
    for q in plan {
        count.attempted += 1;
        let query = q.query();
        let t0 = Instant::now();
        let outcome = svc.fast_query("bench", query);
        let us = t0.elapsed().as_secs_f64() * 1e6;
        let result = match outcome {
            Ok(FastOutcome::Done(r)) if !r.partial => r,
            _ => {
                count.failed += 1;
                continue;
            }
        };
        q.check(&result.rows)?;
        if let Some(lat) = lat.as_deref_mut() {
            match q {
                Planned::Pk(_) => lat.pk.push(us),
                Planned::Cone { .. } => lat.cone.push(us),
                Planned::Scan { .. } => lat.scan.push(us),
            }
        }
    }
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn great_circle_distance_matches_known_separations() {
        assert!((great_circle_deg(150.0, 0.0, 151.0, 0.0) - 1.0).abs() < 1e-12);
        assert!((great_circle_deg(10.0, 0.0, 10.0, 0.5) - 0.5).abs() < 1e-12);
        // One degree of right ascension at dec 60 is about half a degree.
        assert!((great_circle_deg(0.0, 60.0, 1.0, 60.0) - 0.49999).abs() < 1e-4);
    }
}
