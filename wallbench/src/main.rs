//! Wall-clock benchmark of the night load, the loader fleet, the serve
//! tier and the zone shards.
//!
//! ```sh
//! cargo run --release --manifest-path wallbench/Cargo.toml -- \
//!     --workload night_1loader --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Prints one JSON object as its last line: `correct`, `attempted`,
//! `failed`, and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). See `wallbench/README.md`.

mod catalog;
mod checks;
mod layers;
mod queries;
mod sys;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use layers::Backend;
use queries::Latencies;
use sys::median;
use workloads::{Finished, Workload};


struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The load's time with each of its pieces at its best round. On a
/// shared host, spells of a few seconds in which a neighbour loads the
/// cores make all work up to 1.7 times slower; a spell only ever adds
/// time, so the best of several rounds is the one it touched least.
fn best_load_s(loads: &[workloads::LoadSample]) -> Result<f64, String> {
    let pieces = loads.first().ok_or("no load was measured")?.parts.len();
    if loads.iter().any(|l| l.parts.len() != pieces) {
        return Err("rounds split their loads differently".into());
    }
    Ok((0..pieces)
        .map(|i| {
            loads
                .iter()
                .map(|l| l.parts[i].as_secs_f64())
                .fold(f64::INFINITY, f64::min)
        })
        .sum())
}

/// The best of the passes' values of `stat`, the lowest or the highest.
fn best_pass(passes: &[Latencies], stat: impl Fn(&Latencies) -> f64, lowest: bool) -> f64 {
    let values = passes.iter().map(stat);
    if lowest {
        values.fold(f64::INFINITY, f64::min)
    } else {
        values.fold(0.0, f64::max)
    }
}

fn end_to_end(f: &Finished) -> Result<Vec<Metric>, String> {
    let ms = &f.measured;
    let loads = &ms.loads;
    let per_load = |g: &dyn Fn(&workloads::LoadSample) -> f64| {
        median(&loads.iter().map(g).collect::<Vec<_>>())
    };
    let passes = &ms.passes;
    if passes.is_empty() || passes.iter().any(|p| p.scan.is_empty()) {
        return Err("no scan samples".into());
    }
    let rows = per_load(&|l| l.rows as f64);
    Ok(vec![
        m("setup_s", "s", ms.setup_s),
        m("load_rows_per_s", "rows/s", rows / best_load_s(loads)?),
        m("modeled_night_s", "s", per_load(&|l| l.modeled_s)),
        m("peak_rss_mb", "MB", ms.peak_rss_mb),
        m(
            "resident_bytes_per_row",
            "B/row",
            per_load(&|l| l.heap_growth / l.rows as f64),
        ),
        m(
            "queries_per_s",
            "queries/s",
            best_pass(passes, Latencies::queries_per_s, false),
        ),
        m("pk_p50_us", "us", best_pass(passes, |p| median(&p.pk), true)),
        m("cone_p50_us", "us", best_pass(passes, |p| median(&p.cone), true)),
        m("scan_p50_us", "us", best_pass(passes, |p| median(&p.scan), true)),
    ])
}

fn per_layer(f: &mut Finished) -> Result<Vec<Metric>, String> {
    let t = Instant::now();
    let replay = layers::replay_load(&f.inputs.files)?;
    checks::check_counts(
        "traced replay vs generator",
        &f.inputs.expected.loadable,
        &replay.committed,
    )?;
    let route = layers::route(&f.inputs.files);
    let q = layers::decompose(&f.backend, &f.svc, &f.plan)?;
    f.measured.ops.attempted += f.plan.len() as u64;
    let overhead = t.elapsed().as_secs_f64();

    let load = f.measured.loads.first().ok_or("no load was measured")?;
    let d = &load.delta;
    let applied = load.rows_applied as f64;
    let unique = f.inputs.expected.total_loadable() as f64;
    let ns = |d: std::time::Duration| d.as_nanos() as f64;
    let sent = replay.rows_sent as f64;
    let shard_flush_ns = match f.backend {
        Backend::Zones(_) => (ns(load.wall) - ns(route)) / applied,
        Backend::Single(_) => 0.0,
    };
    Ok(vec![
        m(
            "format.parse_ns_per_line",
            "ns/line",
            ns(replay.parse) / replay.lines as f64,
        ),
        m(
            "transform.ns_per_row",
            "ns/row",
            ns(replay.transform) / replay.rows as f64,
        ),
        m(
            "arrayset.ns_per_row",
            "ns/row",
            ns(replay.arrayset) / replay.rows as f64,
        ),
        m("wire.encode_ns_per_row", "ns/row", ns(replay.encode) / sent),
        m("wire.decode_ns_per_row", "ns/row", ns(replay.decode) / sent),
        m(
            "wire.bytes_per_row",
            "B/row",
            replay.wire_bytes as f64 / sent,
        ),
        m(
            "server.execute_batch_ns_per_row",
            "ns/row",
            (ns(replay.execute_batch) - ns(replay.encode) - ns(replay.decode)) / sent,
        ),
        m(
            "server.commit_ms_per_commit",
            "ms",
            ns(replay.commit) / 1e6 / replay.commits as f64,
        ),
        m(
            "engine.calls_per_krow",
            "calls/krow",
            (d.counter("engine.batch_calls") + d.counter("engine.single_calls")) as f64 * 1000.0
                / applied,
        ),
        m(
            "engine.index_entries_per_row",
            "entries/row",
            d.counter("engine.index_entries") as f64 / applied,
        ),
        m(
            "engine.bind_spill_bytes_per_row",
            "B/row",
            d.counter("engine.bind_spill_bytes") as f64 / applied,
        ),
        m(
            "wal.bytes_per_row",
            "B/row",
            d.counter("wal.bytes_flushed") as f64 / applied,
        ),
        m("wal.flushes", "count", d.counter("wal.flushes") as f64),
        m(
            "cache.frames_scanned_per_row",
            "frames/row",
            d.counter("cache.frames_scanned") as f64 / applied,
        ),
        m("fleet.idle_loader_s", "s", load.idle_s),
        m("fleet.node_imbalance", "ratio", load.imbalance),
        m("lock.waits", "count", d.counter("lock.waits") as f64),
        m(
            "txn.limit_stalls",
            "count",
            d.counter("txn.limit_stalls") as f64,
        ),
        m("serve.overhead_ns_per_query", "ns", q.serve_overhead_ns),
        m("engine.pk_get_ns", "ns", q.pk_get_ns),
        m("htm.cover_us_per_cone", "us", q.cover_us),
        m("htm.ranges_per_cone", "ranges", q.ranges),
        m("engine.index_range_us_per_cone", "us", q.index_range_us),
        m(
            "cone.rows_examined_per_returned",
            "ratio",
            q.examined_per_returned,
        ),
        m("shardload.route_ns_per_row", "ns/row", ns(route) / unique),
        m("shardload.flush_ns_per_row", "ns/row", shard_flush_ns),
        m(
            "shardload.rows_applied_per_loaded_row",
            "ratio",
            applied / unique,
        ),
        m("shard.zones_per_cone", "zones", q.zones_per_cone),
        m(
            "shard.gather_overhead_us_per_cone",
            "us",
            q.gather_overhead_us,
        ),
        m("trace.overhead_s", "s", overhead),
    ])
}

fn report(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wallbench: {e}");
            eprintln!("usage: wallbench --workload <night_1loader|night_2loaders|zones4> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let outcome =
        workloads::run(args.workload, args.seed, args.seconds, process_start).and_then(|mut f| {
            let walls: Vec<String> = f
                .measured
                .loads
                .iter()
                .map(|l| format!("{:.3}", l.wall.as_secs_f64()))
                .collect();
            eprintln!(
                "wallbench: {} load(s) of {} rows in [{}] s; {} query passes timed",
                walls.len(),
                f.inputs.expected.total_loadable(),
                walls.join(", "),
                f.measured.passes.len()
            );
            let metrics = if args.trace {
                per_layer(&mut f)?
            } else {
                end_to_end(&f)?
            };
            if let Some(bad) = metrics.iter().find(|x| !x.value.is_finite()) {
                return Err(format!("{} is not a finite number", bad.name));
            }
            Ok((f.measured.ops, metrics))
        });
    match outcome {
        Ok((ops, metrics)) => {
            println!("{}", report(true, ops.attempted, ops.failed, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("wallbench: {e}");
            println!("{}", report(false, 1, 0, &[]));
            ExitCode::FAILURE
        }
    }
}
