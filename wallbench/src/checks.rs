//! Output checks. Each compares an answer of the program with a value the
//! benchmark computed apart from it, and says what differs.

use std::collections::BTreeMap;

use skydb::{Row, Value};

use crate::catalog::Obj;

/// Objects this close to a cone's rim (degrees) may fall either side of
/// it: the program and the benchmark compute the distance by different
/// formulas, which agree to far better than this.
pub const EDGE_DEG: f64 = 1e-9;

/// Objects this close to a zone edge (degrees) may sit in either zone:
/// the program and the benchmark compute the edges by different formulas.
pub const ZONE_EDGE_DEG: f64 = 1e-9;

/// The brute-force answer to a cone search.
#[derive(Debug, Clone, Default)]
pub struct ConeTruth {
    /// Ids strictly inside the cone, sorted.
    pub inside: Vec<i64>,
    /// Ids on the rim within [`EDGE_DEG`], sorted.
    pub edge: Vec<i64>,
}

/// A cone answer must hold every id inside the cone, nothing outside it,
/// and no id twice. `got` is sorted.
pub fn check_cone(truth: &ConeTruth, got: &[i64]) -> Result<(), String> {
    if got.windows(2).any(|w| w[0] == w[1]) {
        return Err("cone answer holds an object twice".into());
    }
    if let Some(missing) = truth
        .inside
        .iter()
        .find(|id| got.binary_search(id).is_err())
    {
        return Err(format!(
            "cone answer lacks object {missing} ({} expected, {} returned)",
            truth.inside.len(),
            got.len()
        ));
    }
    let extra = got.iter().find(|id| {
        truth.inside.binary_search(id).is_err() && truth.edge.binary_search(id).is_err()
    });
    if let Some(extra) = extra {
        return Err(format!(
            "cone answer holds object {extra}, which lies outside the cone"
        ));
    }
    Ok(())
}

/// A count must equal the benchmark's own.
pub fn check_count(what: &str, expected: u64, got: u64) -> Result<(), String> {
    if expected == got {
        Ok(())
    } else {
        Err(format!("{what}: expected {expected}, got {got}"))
    }
}

/// Per-table counts must equal the benchmark's own.
pub fn check_counts(
    what: &str,
    expected: &BTreeMap<&'static str, u64>,
    got: &BTreeMap<&'static str, u64>,
) -> Result<(), String> {
    for (table, n) in expected {
        check_count(
            &format!("{what} {table}"),
            *n,
            got.get(table).copied().unwrap_or(0),
        )?;
    }
    for (table, n) in got {
        if !expected.contains_key(table) && *n != 0 {
            return Err(format!("{what} {table}: expected no rows, got {n}"));
        }
    }
    Ok(())
}

/// A point lookup must return exactly the object's row.
pub fn check_pk(obj: &Obj, rows: &[Row]) -> Result<(), String> {
    let [row] = rows else {
        return Err(format!(
            "lookup of object {} returned {} rows",
            obj.id,
            rows.len()
        ));
    };
    let mag = match obj.mag {
        Some(m) => Value::Float(m),
        None => Value::Null,
    };
    let expected = [
        (0, Value::Int(obj.id)),
        (2, Value::Float(obj.ra)),
        (3, Value::Float(obj.dec)),
        (7, mag),
    ];
    for (col, v) in expected {
        if row.get(col) != Some(&v) {
            return Err(format!(
                "lookup of object {}: column {col} is {:?}, source says {v:?}",
                obj.id,
                row.get(col)
            ));
        }
    }
    Ok(())
}

/// The declination band `[lo, hi)` of `zone` among `zones` equal bands
/// over `[dec_min, dec_max)`, computed from the band edges.
pub fn zone_band(zones: u32, dec_min: f64, dec_max: f64, zone: u32) -> (f64, f64) {
    let width = (dec_max - dec_min) / zones as f64;
    (
        dec_min + width * zone as f64,
        dec_min + width * (zone + 1) as f64,
    )
}

/// An object stored in a zone must lie in that zone's band.
pub fn check_in_band(zone: u32, band: (f64, f64), id: i64, dec: f64) -> Result<(), String> {
    let (lo, hi) = band;
    if dec >= lo - ZONE_EDGE_DEG && dec < hi + ZONE_EDGE_DEG {
        Ok(())
    } else {
        Err(format!(
            "object {id} at dec {dec} is stored in zone {zone}, whose band is [{lo}, {hi})"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth() -> ConeTruth {
        ConeTruth {
            inside: vec![3, 5, 8],
            edge: vec![9],
        }
    }

    #[test]
    fn cone_check_accepts_the_brute_force_answer_with_or_without_rim_objects() {
        assert!(check_cone(&truth(), &[3, 5, 8]).is_ok());
        assert!(check_cone(&truth(), &[3, 5, 8, 9]).is_ok());
    }

    #[test]
    fn cone_check_rejects_a_dropped_row() {
        let err = check_cone(&truth(), &[3, 8]).unwrap_err();
        assert!(err.contains("lacks object 5"), "{err}");
    }

    #[test]
    fn cone_check_rejects_an_extra_or_repeated_row() {
        assert!(check_cone(&truth(), &[3, 4, 5, 8]).is_err());
        assert!(check_cone(&truth(), &[3, 5, 5, 8]).is_err());
    }

    #[test]
    fn count_check_rejects_a_count_off_by_one() {
        assert!(check_count("objects", 1000, 1000).is_ok());
        assert!(check_count("objects", 1000, 999).is_err());
        assert!(check_count("objects", 1000, 1001).is_err());
        let expected = BTreeMap::from([("objects", 10), ("fingers", 40)]);
        let got = BTreeMap::from([("objects", 10), ("fingers", 39)]);
        assert!(check_counts("committed", &expected, &expected).is_ok());
        assert!(check_counts("committed", &expected, &got).is_err());
    }

    #[test]
    fn zone_check_rejects_an_object_in_the_wrong_zone() {
        let band = |z| zone_band(4, -1.2, 1.2, z);
        assert!(check_in_band(1, band(1), 7, -0.3).is_ok());
        let err = check_in_band(1, band(1), 7, 0.3).unwrap_err();
        assert!(err.contains("zone 1"), "{err}");
        // An object on an edge may sit in either zone.
        assert!(check_in_band(1, band(1), 7, 0.0).is_ok());
        assert!(check_in_band(2, band(2), 7, 0.0).is_ok());
    }

    #[test]
    fn pk_check_rejects_a_wrong_row() {
        let obj = Obj {
            id: 42,
            ra: 150.5,
            dec: 0.25,
            mag: Some(17.5),
        };
        let mut row = vec![Value::Null; 17];
        row[0] = Value::Int(42);
        row[2] = Value::Float(150.5);
        row[3] = Value::Float(0.25);
        row[7] = Value::Float(17.5);
        assert!(check_pk(&obj, std::slice::from_ref(&row)).is_ok());
        assert!(check_pk(&obj, &[]).is_err());
        row[3] = Value::Float(0.26);
        assert!(check_pk(&obj, &[row]).is_err());
    }
}
