#!/usr/bin/env python3
"""Validate a BENCH_PERF.json emission and gate it against the committed baseline.

Usage:
    tools/check_perf.py MEASURED.json bench/perf_baseline.json

Two checks per point:
  1. Determinism: every count in EXACT_COUNTS must equal the baseline count
     bit-for-bit (all are deterministic for a fixed --scale, so any drift
     means the engine's behaviour changed, not just its speed): dispatched
     events, delivery-lane events (a change that routes network deliveries
     back through the event heap moves them), dispatches per kind (op,
     response and progress deliveries, everything else) and the progress
     outcome split (re-keyed a queued op, found none queued).
  2. Throughput: events/sec must stay >= baseline * (1 - tolerance).  The
     baseline values are deliberately conservative (see the comment field in
     bench/perf_baseline.json) so shared CI runners pass with headroom while
     a real hot-path regression still trips the gate.

Exit status: 0 when every point passes, 1 on any failure, 2 on usage or
schema errors.  Stdlib only -- no third-party imports.
"""

import json
import sys

# Deterministic counts, gated exactly against the baseline.
EXACT_COUNTS = (
    "events",
    "lane_events",
    "op_deliveries",
    "response_deliveries",
    "progress_deliveries",
    "other_events",
    "progress_rekeyed",
    "progress_unqueued",
)

REQUIRED_POINT_KEYS = {
    "point": str,
    **{key: int for key in EXACT_COUNTS},
    "wall_seconds": float,
    "events_per_sec": float,
    "sim_time_us": float,
}


def fail_usage(msg):
    print(f"check_perf: {msg}", file=sys.stderr)
    sys.exit(2)


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail_usage(f"cannot read {path}: {e}")


def validate_measured_schema(doc, path):
    if doc.get("schema_version") != 4:
        fail_usage(f"{path}: schema_version must be 4, got {doc.get('schema_version')!r}")
    if doc.get("experiment") != "perf_throughput":
        fail_usage(f"{path}: experiment must be 'perf_throughput', got {doc.get('experiment')!r}")
    points = doc.get("points")
    if not isinstance(points, list) or not points:
        fail_usage(f"{path}: 'points' must be a non-empty list")
    for i, p in enumerate(points):
        for key, ty in REQUIRED_POINT_KEYS.items():
            if key not in p:
                fail_usage(f"{path}: points[{i}] missing key {key!r}")
            value = p[key]
            # ints are acceptable where floats are expected (JSON does not
            # distinguish 3 from 3.0).
            if ty is float and isinstance(value, int):
                continue
            if not isinstance(value, ty):
                fail_usage(f"{path}: points[{i}].{key} has type {type(value).__name__}, want {ty.__name__}")
        if p["events"] <= 0 or p["wall_seconds"] <= 0 or p["events_per_sec"] <= 0:
            fail_usage(f"{path}: points[{i}] ({p['point']}) has a non-positive measurement")
        if not 0 <= p["lane_events"] <= p["events"]:
            fail_usage(f"{path}: points[{i}] ({p['point']}) has lane_events outside [0, events]")
        kinds = (p["op_deliveries"] + p["response_deliveries"] + p["progress_deliveries"] +
                 p["other_events"])
        if kinds != p["events"]:
            fail_usage(f"{path}: points[{i}] ({p['point']}) per-kind counts sum to {kinds}, "
                       f"not events {p['events']}")
        if p["progress_rekeyed"] + p["progress_unqueued"] > p["progress_deliveries"]:
            fail_usage(f"{path}: points[{i}] ({p['point']}) has more progress outcomes "
                       "than progress deliveries")


def main(argv):
    if len(argv) != 3:
        fail_usage("usage: check_perf.py MEASURED.json BASELINE.json")
    measured_doc = load_json(argv[1])
    baseline_doc = load_json(argv[2])
    validate_measured_schema(measured_doc, argv[1])

    tolerance = baseline_doc.get("tolerance", 0.15)
    measured = {p["point"]: p for p in measured_doc["points"]}
    failures = []

    print(f"{'point':>18}  {'events':>9}  {'lane':>9}  {'meas eps':>12}  {'floor eps':>12}  verdict")
    for base in baseline_doc["points"]:
        name = base["point"]
        if name not in measured:
            failures.append(f"{name}: missing from measured output")
            print(f"{name:>18}  {'-':>9}  {'-':>9}  {'-':>12}  {'-':>12}  MISSING")
            continue
        p = measured[name]
        floor = base["events_per_sec"] * (1.0 - tolerance)
        verdicts = []
        for key in EXACT_COUNTS:
            if p[key] != base[key]:
                verdicts.append(f"{key} {p[key]} != baseline {base[key]} (determinism drift)")
        if p["events_per_sec"] < floor:
            verdicts.append(f"events/sec {p['events_per_sec']:.0f} below floor {floor:.0f}")
        status = "OK" if not verdicts else "FAIL"
        print(f"{name:>18}  {p['events']:>9}  {p['lane_events']:>9}  {p['events_per_sec']:>12.0f}  {floor:>12.0f}  {status}")
        for v in verdicts:
            failures.append(f"{name}: {v}")

    if failures:
        print("\nperf gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nperf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
