"""Gate one `skyload` soak run on its JSON report and JSONL metrics dump.

Usage: python3 ci/soak_gate.py REPORT.json METRICS.jsonl

The preset is read from the report. Every preset must parse line for line
as JSONL and end with no lost, duplicated or mismatched rows and no
unfinished file; each preset's gate then checks the counters and report
fields that show its drivers actually fired.
"""

import json
import sys


def load(report_path, metrics_path):
    report = json.load(open(report_path))
    names, counters, histograms = set(), {}, {}
    with open(metrics_path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)  # every line must parse
            if "name" in rec:
                names.add(rec["name"])
            if rec.get("type") == "counter":
                counters[rec["name"]] = rec["value"]
            elif rec.get("type") == "histogram":
                histograms[rec["name"]] = rec
    return report, names, counters, histograms


def require_names(names, required):
    for name in required:
        assert name in names, f"missing metric {name}"


def gate_chaos(report, names, counters, histograms):
    require_names(names, ("retries", "breaker_trips", "fleet.reclaims"))
    cfg, faults = report["config"], report["faults_by_kind"]
    if cfg["loader_kill_at"] is not None:
        assert faults.get("loader_kill", 0) >= 1, f"the loader kill never fired: {faults}"
    if cfg["loader_stall_at"] is not None:
        assert faults.get("loader_stall", 0) >= 1, f"the loader stall never fired: {faults}"
    i = report["ingest"]
    return f"{i['generations']} generation(s), {i['restarts']} restart(s), {len(faults)} fault kind(s)"


def gate_campaign(report, names, counters, histograms):
    fresh = histograms.get("live.freshness_us")
    assert fresh is not None, f"live.freshness_us histogram missing: {sorted(histograms)}"
    for pct in ("p50", "p99"):
        assert fresh[pct] > 0, f"freshness {pct} is zero: {fresh}"
    campaign = report["campaign"]
    assert campaign["swapped"], "campaign never swapped"
    assert campaign["shadow_residual_rows"] == 0, campaign
    assert report["reads"]["mixed_season"] == 0, report["reads"]
    return f"freshness p50={fresh['p50']}us p99={fresh['p99']}us · swap atomic"


def gate_scrub(report, names, counters, histograms):
    require_names(names, ("scrub.pages", "scrub.bad_records", "scrub.quarantined",
                          "repair.files_reloaded", "repair.rows_restored",
                          "engine.rot_detected", "engine.rows_quarantined"))
    assert counters["scrub.bad_records"] >= 1, \
        f"the scrubber never caught the injected rot: {counters}"
    assert counters["repair.files_reloaded"] >= 1, f"repair never reloaded a file: {counters}"
    scrub = report["scrub"]
    for key in ("post_repair_bad_records", "bad_nodes"):
        assert scrub[key] == 0, f"{key}={scrub[key]} (expected 0)"
    assert report["reads"]["corrupt_rows_served"] == 0, report["reads"]
    assert scrub["heap_rot_injected"] >= 1, "no rot was injected"
    return (f"{scrub['heap_rot_injected']} bit(s) rotted, {counters['scrub.bad_records']} caught,"
            f" {counters['repair.files_reloaded']} file(s) reloaded · healed")


def gate_shard(report, names, counters, histograms):
    require_names(names, ("shard.flushes", "shard.rows_applied", "shard.reclaims",
                          "shard.rebuilds", "shard.gather.queries", "shard.fenced_takes"))
    assert counters["shard.reclaims"] >= 1, f"the supervisor never fenced a dead shard: {counters}"
    assert counters["shard.rebuilds"] >= 1, f"no shard was ever rebuilt: {counters}"
    shard = report["shard"]
    assert report["reads"]["corrupt_rows_served"] == 0, report["reads"]
    assert shard["kills"] >= 1, "no shard was killed"
    assert shard["coordinator_restarts"] == 1, "the coordinator never restarted"
    assert all(n > 0 for n in shard["per_zone_rows"]), f"empty zone: {shard['per_zone_rows']}"
    return (f"{shard['kills']} kill(s), {counters['shard.reclaims']} reclaim(s),"
            f" {counters['shard.rebuilds']} rebuild(s), zones {shard['per_zone_rows']}")


GATES = {"Chaos": gate_chaos, "Campaign": gate_campaign, "Scrub": gate_scrub, "Shard": gate_shard}


def main():
    report, names, counters, histograms = load(sys.argv[1], sys.argv[2])
    rows = report["rows"]
    for key in ("lost_rows", "duplicated_rows"):
        assert rows[key] == 0, f"{key}={rows[key]} (expected 0)"
    assert rows["mismatches"] == [], rows["mismatches"]
    assert report["ingest"]["unfinished_files"] == [], report["ingest"]["unfinished_files"]
    cfg = report["config"]
    summary = GATES[cfg["preset"]](report, names, counters, histograms)
    print(f"{cfg['preset']} seed {cfg['seed']}: {summary} · exactly-once clean"
          f" · {len(names)} metric names")


if __name__ == "__main__":
    main()
