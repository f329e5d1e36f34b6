//! The benchmark's own reading of the generated catalog files.
//!
//! Everything the output checks compare against is computed here from the
//! source lines, apart from the loader: which rows a correct load commits
//! (field counts, key uniqueness, parent rows present, the `objects`
//! value ranges), where every loadable object lies, and a seeded sample of
//! loadable lines to compare field by field with the stored rows.

use std::collections::{BTreeMap, HashMap, HashSet};

use skycat::CatalogFile;
use skydb::Value;
use skysim::rng::SplitMix64;

/// Tag keyword, destination table and field count of every catalog line.
const TAGS: [(&str, &str, usize); 11] = [
    ("CCD", "ccd_columns", 8),
    ("IMG", "ccd_images", 7),
    ("FRM", "ccd_frames", 9),
    ("APR", "ccd_frame_apertures", 6),
    ("FST", "frame_statistics", 6),
    ("AST", "astrometry_solutions", 9),
    ("ZPT", "photometry_zeropoints", 6),
    ("QCH", "quality_checks", 4),
    ("OBJ", "objects", 14),
    ("FNG", "fingers", 6),
    ("OFL", "object_flags", 4),
];

/// Tables whose rows name their parent in field 1, with the parent table.
const PARENT: [(&str, &str); 9] = [
    ("ccd_images", "ccd_columns"),
    ("ccd_frames", "ccd_images"),
    ("ccd_frame_apertures", "ccd_frames"),
    ("frame_statistics", "ccd_frames"),
    ("astrometry_solutions", "ccd_frames"),
    ("photometry_zeropoints", "ccd_frames"),
    ("quality_checks", "ccd_frames"),
    ("fingers", "objects"),
    ("object_flags", "objects"),
];

/// One loadable `objects` row as read from its source line.
#[derive(Debug, Clone, Copy)]
pub struct Obj {
    /// Primary key.
    pub id: i64,
    /// Right ascension, degrees.
    pub ra: f64,
    /// Declination, degrees.
    pub dec: f64,
    /// `mag_auto` in magnitudes, if given.
    pub mag: Option<f64>,
}

/// One sampled loadable line and its destination table.
#[derive(Debug, Clone)]
pub struct SampleLine {
    /// Destination table.
    pub table: &'static str,
    /// The source line.
    pub line: String,
}

/// What a correct load of a night must produce, read from the source.
#[derive(Debug, Default)]
pub struct Reading {
    /// Lines in the night's files.
    pub lines: u64,
    /// Loadable rows per catalog table.
    pub loadable: BTreeMap<&'static str, u64>,
    /// Loadable objects, in load order.
    pub objects: Vec<Obj>,
    /// A seeded sample of loadable lines.
    pub sample: Vec<SampleLine>,
}

fn int(s: &str) -> Option<i64> {
    s.parse().ok()
}

fn float(s: &str) -> Option<f64> {
    s.parse::<f64>().ok().filter(|v| v.is_finite())
}

/// Does an `OBJ` line's content satisfy the `objects` table's checks?
fn object_in_range(f: &[&str]) -> Option<Obj> {
    let ra = float(f[2])?;
    let dec = float(f[3])?;
    let mag = if f[6].is_empty() {
        None
    } else {
        Some(int(f[6])? as f64 / 1000.0)
    };
    let flags = int(f[11])?;
    let ok = (0.0..=360.0).contains(&ra)
        && (-90.0..=90.0).contains(&dec)
        && mag.is_none_or(|m| (-5.0..=40.0).contains(&m))
        && flags >= 0;
    ok.then_some(Obj {
        id: int(f[0])?,
        ra,
        dec,
        mag,
    })
}

/// Does an `FNG` line's content satisfy the `fingers` table's checks?
fn finger_in_range(f: &[&str]) -> bool {
    matches!(int(f[2]), Some(1..=4)) && float(f[5]).is_some_and(|x| (0.0..=1.0).contains(&x))
}

/// Read `files` in load order; keep about `sample_size` loadable lines,
/// chosen from `seed`.
pub fn read(files: &[CatalogFile], seed: u64, sample_size: usize) -> Reading {
    let total_lines: usize = files.iter().map(|f| f.text.lines().count()).sum();
    let p = sample_size as f64 / total_lines.max(1) as f64;
    let mut rng = SplitMix64::new(seed ^ 0x5eed_5a3b_1e00);
    let mut keys: HashMap<&str, HashSet<i64>> = HashMap::new();
    let mut reading = Reading::default();
    for file in files {
        for line in file.text.lines() {
            reading.lines += 1;
            let mut parts = line.split('|');
            let tag = parts.next().unwrap_or("");
            let fields: Vec<&str> = parts.collect();
            let Some(&(_, table, n)) = TAGS.iter().find(|(t, _, _)| *t == tag) else {
                continue;
            };
            if fields.len() != n {
                continue;
            }
            let Some(pk) = int(fields[0]) else { continue };
            if keys.get(table).is_some_and(|k| k.contains(&pk)) {
                continue;
            }
            if let Some(&(_, parent)) = PARENT.iter().find(|(t, _)| *t == table) {
                let parent_id = int(fields[1]);
                if !parent_id.is_some_and(|id| keys.get(parent).is_some_and(|k| k.contains(&id))) {
                    continue;
                }
            }
            match table {
                "objects" => {
                    let frame = int(fields[1]);
                    if !frame
                        .is_some_and(|id| keys.get("ccd_frames").is_some_and(|k| k.contains(&id)))
                    {
                        continue;
                    }
                    let Some(obj) = object_in_range(&fields) else {
                        continue;
                    };
                    reading.objects.push(obj);
                }
                "fingers" if !finger_in_range(&fields) => continue,
                _ => {}
            }
            keys.entry(table).or_default().insert(pk);
            *reading.loadable.entry(table).or_insert(0) += 1;
            if rng.chance(p) {
                reading.sample.push(SampleLine {
                    table,
                    line: line.to_owned(),
                });
            }
        }
    }
    reading
}

/// How a stored `objects` column derives from its source field.
#[derive(Clone, Copy)]
enum Conv {
    /// The field as an integer.
    Int,
    /// The field as a float.
    Float,
    /// An integer field stored as a float.
    IntAsFloat,
    /// Integer millimagnitudes stored as magnitudes.
    Milli,
}

/// `(source field, stored column, conversion)` for `objects`. Columns 4–6
/// (`htmid`, galactic l and b) are computed by the loader; the cone checks
/// cover `htmid`.
const OBJECT_COLUMNS: [(usize, usize, Conv); 14] = [
    (0, 0, Conv::Int),
    (1, 1, Conv::Int),
    (2, 2, Conv::Float),
    (3, 3, Conv::Float),
    (4, 9, Conv::IntAsFloat),
    (5, 10, Conv::Float),
    (6, 7, Conv::Milli),
    (7, 8, Conv::Milli),
    (8, 11, Conv::Float),
    (9, 12, Conv::Float),
    (10, 13, Conv::Float),
    (11, 14, Conv::Int),
    (12, 15, Conv::Float),
    (13, 16, Conv::Float),
];

fn field_matches(field: &str, conv: Conv, stored: &Value) -> bool {
    match (conv, stored) {
        (_, Value::Null) => field.is_empty(),
        (Conv::Int, Value::Int(v)) => int(field) == Some(*v),
        (Conv::Float, Value::Float(v)) => float(field) == Some(*v),
        (Conv::IntAsFloat, Value::Float(v)) => int(field).map(|i| i as f64) == Some(*v),
        (Conv::Milli, Value::Float(v)) => int(field).map(|i| i as f64 / 1000.0) == Some(*v),
        _ => false,
    }
}

/// Compare a stored row with the benchmark's reading of its source line.
pub fn check_row(sample: &SampleLine, row: &[Value]) -> Result<(), String> {
    let fields: Vec<&str> = sample.line.split('|').skip(1).collect();
    let mismatch = |col: usize| {
        Err(format!(
            "{} column {col} is {:?}; source line {:?}",
            sample.table,
            row.get(col),
            sample.line
        ))
    };
    if sample.table == "objects" {
        for (field, col, conv) in OBJECT_COLUMNS {
            if !row
                .get(col)
                .is_some_and(|v| field_matches(fields[field], conv, v))
            {
                return mismatch(col);
            }
        }
        return Ok(());
    }
    if row.len() != fields.len() {
        return Err(format!(
            "{} row has {} columns, source line {} fields",
            sample.table,
            row.len(),
            fields.len()
        ));
    }
    for (col, (field, stored)) in fields.iter().zip(row).enumerate() {
        let ok = match stored {
            Value::Text(s) => s == field,
            Value::Bool(b) => *field == if *b { "1" } else { "0" },
            Value::Int(_) => field_matches(field, Conv::Int, stored),
            _ => field_matches(field, Conv::Float, stored),
        };
        if !ok {
            return mismatch(col);
        }
    }
    Ok(())
}

/// Primary key of a sampled line (field 1 of every catalog line).
pub fn sample_key(sample: &SampleLine) -> i64 {
    sample
        .line
        .split('|')
        .nth(1)
        .and_then(int)
        .expect("sampled lines have an integer key")
}

#[cfg(test)]
mod tests {
    use super::*;
    use skycat::gen::aggregate_expected;
    use skycat::{generate_observation, GenConfig};

    #[test]
    fn reading_agrees_with_the_generator_on_a_dirty_night() {
        let files = generate_observation(&GenConfig::night(3, 100).with_error_rate(0.05));
        let expected = aggregate_expected(&files);
        let reading = read(&files, 3, 50);
        assert!(expected.corrupted_objects > 0);
        assert_eq!(reading.loadable, expected.loadable);
        assert_eq!(reading.lines, expected.total_emitted());
        assert_eq!(reading.objects.len() as u64, expected.loadable["objects"]);
    }

    #[test]
    fn row_check_rejects_a_changed_field() {
        let sample = SampleLine {
            table: "fingers",
            line: "FNG|11|7|2|0.500000|-0.250000|0.125000".into(),
        };
        let mut row = vec![
            Value::Int(11),
            Value::Int(7),
            Value::Int(2),
            Value::Float(0.5),
            Value::Float(-0.25),
            Value::Float(0.125),
        ];
        assert!(check_row(&sample, &row).is_ok());
        row[4] = Value::Float(-0.26);
        assert!(check_row(&sample, &row).is_err());
    }

    #[test]
    fn object_row_check_follows_the_column_map() {
        let sample = SampleLine {
            table: "objects",
            line: "OBJ|42|7|150.500000|0.250000|1000|10.000000|17500|55|1.500000|0.100000|45.000000|0|100.500000|200.500000".into(),
        };
        let mut row = vec![Value::Null; 17];
        for (col, v) in [
            (0, Value::Int(42)),
            (1, Value::Int(7)),
            (2, Value::Float(150.5)),
            (3, Value::Float(0.25)),
            (7, Value::Float(17.5)),
            (8, Value::Float(0.055)),
            (9, Value::Float(1000.0)),
            (10, Value::Float(10.0)),
            (11, Value::Float(1.5)),
            (12, Value::Float(0.1)),
            (13, Value::Float(45.0)),
            (14, Value::Int(0)),
            (15, Value::Float(100.5)),
            (16, Value::Float(200.5)),
        ] {
            row[col] = v;
        }
        assert!(check_row(&sample, &row).is_ok());
        row[7] = Value::Float(17.0);
        assert!(check_row(&sample, &row).is_err());
    }
}
