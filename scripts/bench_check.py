#!/usr/bin/env python3
"""Validate BENCH_*.json and OpenMetrics files emitted by the harnesses.

Stdlib-only schema check for three document families — JSON files are
dispatched on the top-level "schema" field, *.om files are parsed as
OpenMetrics text expositions:

  * "tempest-bench-v1" — written by bench::Session (bench/session.hpp).
    PMU-less runs are *valid* as long as they say so (pmu.available/
    hardware flags + a captured reason) and still carry timings and
    modelled numbers. env.thp_mode (the host's transparent-huge-page
    mode, or "unavailable") must be a non-empty string.
  * "tempest-survey-v2" — written by the crash-tolerant survey runtime
    (jobs::write_survey_json): per-shot outcomes, retry/degradation
    counts, and throughput/latency aggregates, checked for internal
    consistency (counts add up, aggregates match the rows), plus the obs
    latency histograms, checked for bucket monotonicity and count
    consistency.
  * OpenMetrics textfiles (obs::write_openmetrics, --openmetrics=...):
    metric-name lint, strictly increasing le-bucket bounds, cumulative
    non-decreasing counts, +Inf bucket == _count, terminal `# EOF`.

Used by scripts/check.sh --bench / --chaos and the CI perf-smoke and
chaos jobs.

Usage: bench_check.py FILE [FILE...]
Exit 0 when every file validates; 1 with per-file diagnostics otherwise.
"""

import json
import re
import sys

SCHEMA = "tempest-bench-v1"
VERDICTS = {"pass", "warn", "fail", "unavailable"}


def fail(errors, msg):
    errors.append(msg)


def check_number(errors, obj, key, where, minimum=None):
    v = obj.get(key)
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        fail(errors, f"{where}.{key}: expected a number, got {v!r}")
        return None
    if minimum is not None and v < minimum:
        fail(errors, f"{where}.{key}: {v} < {minimum}")
    return v


def check_case(errors, case, i):
    where = f"cases[{i}]"
    if not isinstance(case.get("name"), str) or not case["name"]:
        fail(errors, f"{where}: missing name")
        where = f"cases[{i}]"
    else:
        where = f"cases[{case['name']!r}]"
    reps = case.get("reps_s")
    if not isinstance(reps, list) or not reps:
        fail(errors, f"{where}.reps_s: expected a non-empty list")
        reps = []
    for r in reps:
        if not isinstance(r, (int, float)) or r < 0:
            fail(errors, f"{where}.reps_s: bad entry {r!r}")
    min_s = check_number(errors, case, "min_s", where, minimum=0.0)
    median_s = check_number(errors, case, "median_s", where, minimum=0.0)
    if reps and min_s is not None and abs(min_s - min(reps)) > 1e-12:
        fail(errors, f"{where}: min_s {min_s} != min(reps_s) {min(reps)}")
    if (min_s is not None and median_s is not None
            and median_s + 1e-12 < min_s):
        fail(errors, f"{where}: median_s {median_s} < min_s {min_s}")
    check_number(errors, case, "point_updates", where, minimum=0)
    counters = case.get("counters")
    if not isinstance(counters, dict):
        fail(errors, f"{where}.counters: expected an object")
        counters = {}
    check_counter_provenance(errors, case, where, reps, counters)
    check_pmu_sample(errors, case.get("pmu"), f"{where}.pmu")
    if not isinstance(case.get("derived"), dict):
        fail(errors, f"{where}.derived: expected an object")


def check_counter_provenance(errors, case, where, reps, counters):
    """Rep times and counter deltas must say how they were taken.

    bench::measure_case times reps with the trace gate off and takes the
    counters from one extra untimed, traced rep (counter_reps 1); when
    --trace/--metrics turned the gate on, the timed reps are traced and
    cover the counters themselves (counter_reps == len(reps_s)); 0 means
    no counters were taken, so every delta must be zero.
    """
    traced = case.get("reps_traced")
    if not isinstance(traced, bool):
        fail(errors, f"{where}.reps_traced: expected a bool, got {traced!r}")
        return
    n = case.get("counter_reps")
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        fail(errors, f"{where}.counter_reps: expected a non-negative int, "
                     f"got {n!r}")
        return
    if n == 0:
        if any(v != 0 for v in counters.values()):
            fail(errors, f"{where}: counter deltas without a counter rep")
    elif traced and n != len(reps):
        fail(errors, f"{where}: traced reps cover the counters, but "
                     f"counter_reps {n} != {len(reps)} reps")
    elif not traced and n != 1:
        fail(errors, f"{where}: untraced reps take the counters from one "
                     f"extra rep, but counter_reps is {n}")


def check_pmu_sample(errors, sample, where):
    if not isinstance(sample, dict):
        fail(errors, f"{where}: expected an object")
        return
    mask = sample.get("valid_mask")
    if not isinstance(mask, int) or mask < 0:
        fail(errors, f"{where}.valid_mask: expected a non-negative int")
        return
    values = sample.get("values")
    if not isinstance(values, dict):
        fail(errors, f"{where}.values: expected an object")
        return
    n_valid = bin(mask).count("1")
    if len(values) != n_valid:
        fail(errors, f"{where}: valid_mask has {n_valid} bits set "
                     f"but values has {len(values)} entries")
    for name, v in values.items():
        if not isinstance(v, int) or v < 0:
            fail(errors, f"{where}.values.{name}: expected a "
                         f"non-negative count, got {v!r}")


def check_validation(errors, v, i):
    where = f"validation[{i}]"
    if not isinstance(v.get("name"), str):
        fail(errors, f"{where}: missing name")
    verdict = v.get("verdict")
    if verdict not in VERDICTS:
        fail(errors, f"{where}.verdict: {verdict!r} not in {VERDICTS}")
    check_number(errors, v, "predicted_bytes", where, minimum=0.0)
    check_number(errors, v, "measured_bytes", where, minimum=0.0)
    # A real verdict must rest on a real measurement.
    if verdict in ("pass", "warn") and v.get("measured_bytes", 0) <= 0:
        fail(errors, f"{where}: verdict {verdict} with no measured bytes")


SURVEY_SCHEMA = "tempest-survey-v2"
SHOT_STATES = {"done", "quarantined", "pending", "running"}


def check_latency_histograms(errors, doc):
    """Validate the "latency_histograms" object: every metric carries a
    cumulative le-bucket list (strictly increasing bounds, non-decreasing
    counts, final cumulative == count), and the shot_seconds sample count
    is consistent with the number of completed shots."""
    hists = doc.get("latency_histograms")
    if not isinstance(hists, dict) or not hists:
        fail(errors, "latency_histograms: expected a non-empty object")
        return
    for name, h in hists.items():
        where = f"latency_histograms.{name}"
        if not isinstance(h, dict):
            fail(errors, f"{where}: expected an object")
            continue
        count = check_number(errors, h, "count", where, minimum=0)
        check_number(errors, h, "sum_seconds", where, minimum=0.0)
        check_number(errors, h, "min_seconds", where, minimum=0.0)
        check_number(errors, h, "max_seconds", where, minimum=0.0)
        buckets = h.get("buckets")
        if not isinstance(buckets, list):
            fail(errors, f"{where}.buckets: expected a list")
            continue
        last_le, last_cum = -1.0, 0
        for i, b in enumerate(buckets):
            le = check_number(errors, b, "le", f"{where}.buckets[{i}]",
                              minimum=0.0)
            cum = check_number(errors, b, "count", f"{where}.buckets[{i}]",
                               minimum=0)
            if le is not None:
                if le <= last_le:
                    fail(errors, f"{where}.buckets[{i}]: le {le} not "
                                 f"strictly increasing (prev {last_le})")
                last_le = le
            if cum is not None:
                if cum < last_cum:
                    fail(errors, f"{where}.buckets[{i}]: cumulative count "
                                 f"{cum} decreased (prev {last_cum})")
                last_cum = cum
        if isinstance(count, int) and buckets and last_cum != count:
            fail(errors, f"{where}: final cumulative {last_cum} != "
                         f"count {count}")
        if isinstance(count, int) and count > 0 and not buckets:
            fail(errors, f"{where}: count {count} but no buckets")
    shot = hists.get("shot_seconds")
    done = doc.get("done")
    if isinstance(shot, dict) and isinstance(done, int):
        n = shot.get("count")
        if isinstance(n, int):
            # Every completed shot records exactly one ShotSeconds sample;
            # a resumed run skips already-done shots, so only a fresh run
            # pins equality.
            if doc.get("recovered") is False and n != done:
                fail(errors, f"latency_histograms.shot_seconds.count {n} "
                             f"!= done {done} on a fresh run")
            if n > done:
                fail(errors, f"latency_histograms.shot_seconds.count {n} "
                             f"> done {done}")


def check_survey_file(doc):
    """Validate a tempest-survey-v2 document for internal consistency."""
    errors = []
    check_latency_histograms(errors, doc)
    for key in ("physics", "requested_schedule"):
        if not isinstance(doc.get(key), str) or not doc[key]:
            fail(errors, f"{key}: missing")
    for key in ("size", "steps", "shots"):
        check_number(errors, doc, key, "survey", minimum=1)
    if not isinstance(doc.get("recovered"), bool):
        fail(errors, "recovered: expected a bool")
    total = check_number(errors, doc, "total_seconds", "survey", minimum=0.0)
    done = check_number(errors, doc, "done", "survey", minimum=0)
    degraded = check_number(errors, doc, "degraded", "survey", minimum=0)
    quarantined = check_number(errors, doc, "quarantined", "survey",
                               minimum=0)
    sph = check_number(errors, doc, "shots_per_hour", "survey", minimum=0.0)
    p50 = check_number(errors, doc, "p50_shot_seconds", "survey",
                       minimum=0.0)
    p99 = check_number(errors, doc, "p99_shot_seconds", "survey",
                       minimum=0.0)
    if p50 is not None and p99 is not None and p50 > p99 + 1e-12:
        fail(errors, f"p50_shot_seconds {p50} > p99_shot_seconds {p99}")

    rows = doc.get("shot_reports")
    if not isinstance(rows, list):
        fail(errors, "shot_reports: expected a list")
        rows = []
    shots = doc.get("shots")
    if isinstance(shots, int) and len(rows) != shots:
        fail(errors, f"shot_reports: {len(rows)} rows for {shots} shots")

    counted = {"done": 0, "quarantined": 0, "degraded": 0}
    for i, row in enumerate(rows):
        where = f"shot_reports[{i}]"
        if row.get("shot") != i:
            fail(errors, f"{where}.shot: expected {i}, got {row.get('shot')}")
        state = row.get("state")
        if state not in SHOT_STATES:
            fail(errors, f"{where}.state: {state!r} not in {SHOT_STATES}")
        check_number(errors, row, "level", where, minimum=0)
        check_number(errors, row, "seconds", where, minimum=0.0)
        if not isinstance(row.get("level_name"), str):
            fail(errors, f"{where}.level_name: missing")
        if not isinstance(row.get("degraded"), bool):
            fail(errors, f"{where}.degraded: expected a bool")
        attempts = check_number(errors, row, "attempts", where, minimum=0)
        # A finished shot must have been attempted at least once.
        if state in ("done", "quarantined") and (attempts or 0) < 1:
            fail(errors, f"{where}: state {state} with no attempts")
        if state in ("done", "quarantined"):
            counted[state] += 1
        if state == "done" and row.get("degraded") is True:
            counted["degraded"] += 1

    # The aggregates must match the rows they summarize.
    for key in ("done", "quarantined", "degraded"):
        if isinstance(doc.get(key), int) and doc[key] != counted[key]:
            fail(errors, f"{key}: header says {doc[key]}, "
                         f"rows add up to {counted[key]}")
    if (done and total and sph is not None
            and abs(sph - done * 3600.0 / total) > 1e-6 * max(1.0, sph)):
        fail(errors, f"shots_per_hour {sph} != done*3600/total_seconds "
                     f"{done * 3600.0 / total}")
    return errors


def check_fig9_parallel(errors, doc):
    """fig9_speedup documents carry the task-parallel provenance fields.

    Every case must be tagged with the worker count and tile shape it ran
    under, and a multi-threaded document must report the pool backend: a
    run claiming threads > 1 while the binary reports a serial backend is a
    serial number masquerading as a parallel one and must not enter the
    perf record.
    """
    config = doc.get("config") if isinstance(doc.get("config"), dict) else {}
    threads_s = config.get("threads")
    if not isinstance(threads_s, str) or not threads_s.isdigit():
        fail(errors, f"config.threads: expected a numeric string, "
                     f"got {threads_s!r}")
        return
    threads = int(threads_s)
    if threads < 1:
        fail(errors, f"config.threads: {threads} < 1")
    backend = config.get("task_backend")
    if backend not in ("serial", "pool"):
        fail(errors, f"config.task_backend: {backend!r} not a known backend")

    for i, case in enumerate(doc.get("cases") or []):
        tags = case.get("tags") if isinstance(case.get("tags"), dict) else {}
        where = f"cases[{i}]"
        if tags.get("threads") != threads_s:
            fail(errors, f"{where}.tags.threads: {tags.get('threads')!r} "
                         f"!= config.threads {threads_s!r}")
        shape = tags.get("tile_shape")
        if (not isinstance(shape, str)
                or len(shape.split("x")) != 3
                or not all(p.isdigit() and int(p) > 0
                           for p in shape.split("x"))):
            fail(errors, f"{where}.tags.tile_shape: expected 'TxXxY' with "
                         f"positive ints, got {shape!r}")

    if threads > 1 and backend == "serial":
        fail(errors, f"config: threads={threads} but task_backend is "
                     f"'serial' — multi-thread run without a parallel "
                     f"substrate")


METRIC_NAME_RE = re.compile(r"^[a-z_][a-z0-9_]*$")


def check_openmetrics_file(path):
    """Lint an OpenMetrics text exposition (obs::write_openmetrics)."""
    errors = []
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        return [f"unreadable: {e}"]
    if not lines or lines[-1] != "# EOF":
        fail(errors, "missing terminal '# EOF' line")

    # Histogram state, keyed by metric base name.
    buckets = {}   # name -> [(le_string, cumulative)]
    counts = {}    # name -> _count value
    for ln, line in enumerate(lines, start=1):
        if not line or line.startswith("#"):
            if line.startswith("# TYPE ") or line.startswith("# UNIT "):
                parts = line.split()
                if len(parts) < 4 or not METRIC_NAME_RE.match(parts[2]):
                    fail(errors, f"line {ln}: bad metric name in {line!r}")
            continue
        # Sample line: name[{labels}] value
        head, _, value = line.rpartition(" ")
        name = head.split("{", 1)[0]
        if not METRIC_NAME_RE.match(name):
            fail(errors, f"line {ln}: metric name {name!r} fails the lint")
            continue
        try:
            float(value)
        except ValueError:
            fail(errors, f"line {ln}: non-numeric sample value {value!r}")
            continue
        if name.endswith("_bucket") and 'le="' in head:
            le = head.split('le="', 1)[1].split('"', 1)[0]
            buckets.setdefault(name[:-len("_bucket")], []).append(
                (le, float(value)))
        elif name.endswith("_count"):
            counts[name[:-len("_count")]] = float(value)

    for metric, series in buckets.items():
        last_le, last_cum = -1.0, -1.0
        inf_cum = None
        for le, cum in series:
            if cum < last_cum:
                fail(errors, f"{metric}: cumulative bucket count {cum} "
                             f"decreased (prev {last_cum})")
            last_cum = cum
            if le == "+Inf":
                inf_cum = cum
            else:
                try:
                    le_v = float(le)
                except ValueError:
                    fail(errors, f"{metric}: unparseable le {le!r}")
                    continue
                if le_v <= last_le:
                    fail(errors, f"{metric}: le {le_v} not strictly "
                                 f"increasing (prev {last_le})")
                last_le = le_v
        if inf_cum is None:
            fail(errors, f"{metric}: no +Inf bucket")
        elif metric in counts and inf_cum != counts[metric]:
            fail(errors, f"{metric}: +Inf bucket {inf_cum} != "
                         f"_count {counts[metric]}")
        if metric not in counts:
            fail(errors, f"{metric}: buckets without a _count series")
    return errors


def check_file(path):
    errors = []
    if path.endswith(".om"):
        return check_openmetrics_file(path)
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [f"unreadable: {e}"]

    if doc.get("schema") == SURVEY_SCHEMA:
        return check_survey_file(doc)

    if doc.get("schema") != SCHEMA:
        fail(errors, f"schema: expected {SCHEMA!r}, got {doc.get('schema')!r}")
    if not isinstance(doc.get("name"), str) or not doc["name"]:
        fail(errors, "name: missing")
    if not isinstance(doc.get("timestamp"), str):
        fail(errors, "timestamp: missing")

    env = doc.get("env")
    if not isinstance(env, dict) or not isinstance(
            env.get("fingerprint"), str):
        fail(errors, "env.fingerprint: missing")
    # The transparent-huge-page mode decides whether large grids sit on
    # huge pages, so no timing is read without it.
    if not isinstance(env, dict) or not isinstance(
            env.get("thp_mode"), str) or not env["thp_mode"]:
        fail(errors, "env.thp_mode: expected a non-empty string")

    pmu = doc.get("pmu")
    if not isinstance(pmu, dict):
        fail(errors, "pmu: expected an object")
    else:
        for key in ("available", "hardware"):
            if not isinstance(pmu.get(key), bool):
                fail(errors, f"pmu.{key}: expected a bool")
        if not isinstance(pmu.get("reason"), str):
            fail(errors, "pmu.reason: expected a string")
        # Degraded runs must be *observable*: no hardware => a reason.
        if pmu.get("hardware") is False and not pmu.get("reason"):
            fail(errors, "pmu: hardware unavailable but no reason captured")
        check_pmu_sample(errors, pmu.get("process_delta"),
                         "pmu.process_delta")

    if not isinstance(doc.get("config"), dict):
        fail(errors, "config: expected an object")

    cases = doc.get("cases")
    if not isinstance(cases, list):
        fail(errors, "cases: expected a list")
        cases = []
    for i, case in enumerate(cases):
        check_case(errors, case, i)

    validations = doc.get("validation")
    if not isinstance(validations, list):
        fail(errors, "validation: expected a list")
        validations = []
    for i, v in enumerate(validations):
        check_validation(errors, v, i)
    # Without a hardware PMU every traffic verdict must be unavailable —
    # a pass/fail claimed off zeroed samples would be silent garbage.
    if isinstance(pmu, dict) and pmu.get("hardware") is False:
        for i, v in enumerate(validations):
            if v.get("verdict") not in ("unavailable",):
                fail(errors, f"validation[{i}]: verdict {v.get('verdict')!r}"
                             " without a hardware PMU")

    runs = doc.get("benchmark_runs", [])
    if not isinstance(runs, list):
        fail(errors, "benchmark_runs: expected a list")
        runs = []
    for i, run in enumerate(runs):
        where = f"benchmark_runs[{i}]"
        if not isinstance(run.get("name"), str):
            fail(errors, f"{where}.name: missing")
        check_number(errors, run, "real_s", where, minimum=0.0)
        check_number(errors, run, "iterations", where, minimum=1)

    if "roofline" in doc:
        roof = doc["roofline"]
        ceilings = roof.get("ceilings") if isinstance(roof, dict) else None
        if not isinstance(ceilings, dict):
            fail(errors, "roofline.ceilings: expected an object")
        else:
            for key in ("peak_gflops", "l1_gbps", "l2_gbps", "l3_gbps",
                        "dram_gbps"):
                check_number(errors, ceilings, key, "roofline.ceilings",
                             minimum=1e-9)
        points = roof.get("points") if isinstance(roof, dict) else None
        if not isinstance(points, list):
            fail(errors, "roofline.points: expected a list")
        else:
            for i, p in enumerate(points):
                check_number(errors, p, "ai", f"roofline.points[{i}]",
                             minimum=0.0)
                check_number(errors, p, "gflops", f"roofline.points[{i}]",
                             minimum=0.0)

    if not cases and not runs:
        fail(errors, "document has neither cases nor benchmark_runs")

    if doc.get("name") == "fig9_speedup":
        check_fig9_parallel(errors, doc)
    return errors


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    bad = 0
    for path in argv[1:]:
        errors = check_file(path)
        if errors:
            bad += 1
            print(f"FAIL {path}")
            for e in errors:
                print(f"  - {e}")
        elif path.endswith(".om"):
            print(f"OK   {path} (OpenMetrics)")
        else:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
            if doc.get("schema") == SURVEY_SCHEMA:
                print(f"OK   {path} ({doc.get('shots')} shots, "
                      f"{doc.get('done')} done, "
                      f"{doc.get('degraded')} degraded, "
                      f"{doc.get('quarantined')} quarantined)")
            else:
                hw = doc.get("pmu", {}).get("hardware")
                n = len(doc.get("cases", [])) + len(doc.get(
                    "benchmark_runs", []))
                print(f"OK   {path} ({n} entries, hardware PMU: {hw})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
