#!/usr/bin/env python3
"""check_bench_json: validate BENCH_*.json files emitted by the sweep runner.

The bench binaries (`--json PATH`) write one record per sweep cell. The
perf-trajectory tooling diffs these files across PRs, so the schema is a
contract: this script enforces the same key sets that
tests/test_bench_json.cc pins at the C++ level, but from the outside —
CI's bench smoke job runs it against freshly produced output.

Checks per file:
  * parses as JSON, schema_version == 7
  * top-level keys exactly {schema_version, bench, jobs, cells}
  * every cell carries exactly the pinned cell/spec/metrics/perf/memory/
    detection/incidents key sets
  * incidents: count == len(records); each record has finite
    onset_ms >= 0 and ttd_ms/ttr_ms either -1 (unreached) or >= 0
  * cell ids are unique and non-empty; jobs >= 1
  * ok:true cells have empty error; ok:false cells have a message
  * all metric, memory and detection values are finite numbers (memory and
    detection also non-negative); spec.detect is one of off/sprt/baseline

Usage:
  check_bench_json.py FILE [FILE...]
  check_bench_json.py --require-ok FILE   # additionally fail on any ok:false cell
  check_bench_json.py --expect-equal A B  # A and B must carry identical results
                                          # (schema_version, jobs and the
                                          # determinism-exempt blocks are
                                          # ignored, so a run before a change
                                          # compares against one after it)
  check_bench_json.py --dump-detection F  # print one canonical line per cell
                                          # with the detection counters and the
                                          # decision digest; CI byte-diffs this
                                          # across --jobs (detection decisions
                                          # must be bit-identical even though
                                          # --expect-equal strips the block)

Exit status: 0 all files valid, 1 validation failure, 2 usage/IO error.
Stdlib only — no dependencies.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

TOP_KEYS = {"schema_version", "bench", "jobs", "cells"}
SCHEMA_VERSION = 7
CELL_KEYS = {"id", "ok", "error", "tags", "spec", "metrics", "ledger", "perf",
             "memory", "detection", "incidents", "extra"}
SPEC_KEYS = {
    "linux_server", "config", "clients", "doc", "qos_stream",
    "syn_attack_rate", "cgi_attackers", "warmup_s", "window_s", "detect",
}
METRIC_KEYS = {
    "conns_per_sec", "qos_bytes_per_sec", "completions_total", "client_failures",
    "paths_killed", "syns_dropped_at_demux", "syns_sent", "runaway_detections",
    "kill_cost_mean", "window_cycles", "pd_crossings", "accounting_overhead",
    "ledger_total",
}
PERF_KEYS = {"wall_ms", "events_per_sec"}
MEMORY_KEYS = {
    "pcb_slot_bytes", "pcb_live", "pcb_high_water", "pcb_bytes_reserved",
    "peer_slot_bytes", "peer_live", "peer_high_water", "peer_bytes_reserved",
    "timers_armed", "timer_high_water", "timer_capacity",
    "timer_bytes_reserved", "bytes_per_client",
}
DETECTION_KEYS = {
    "detections", "true_positives", "false_positives",
    "paths_killed_by_detector", "blacklist_size", "first_detection_ms",
    "decision_digest",
}
DETECT_MODES = ("off", "sprt", "baseline")
INCIDENTS_KEYS = {"count", "records"}
INCIDENT_RECORD_KEYS = {
    "trigger", "onset_ms", "detected_ms", "contained_ms", "recovered_ms",
    "ttd_ms", "ttr_ms", "pressure_breaches", "detection_signals",
    "containment_actions",
}

# What --expect-equal strips: anything machine-dependent (perf) or
# layout-dependent (memory). `detection` is stripped too, but NOT because
# it may differ: detection decisions are required to be bit-identical, and
# CI enforces that separately with a --dump-detection byte-diff (the
# stricter check owns the block).
DETERMINISM_EXEMPT_BLOCKS = ("perf", "memory", "detection")


def expect_keys(errors: list, got: dict, want: set, what: str) -> None:
    missing = want - got.keys()
    extra = got.keys() - want
    if missing:
        errors.append(f"{what}: missing keys {sorted(missing)}")
    if extra:
        errors.append(f"{what}: unexpected keys {sorted(extra)} "
                      "(schema change? update tests/test_bench_json.cc and this script together)")


def check_incidents(errors: list, incidents, what: str) -> None:
    if not isinstance(incidents, dict):
        errors.append(f"{what}: 'incidents' must be an object")
        return
    expect_keys(errors, incidents, INCIDENTS_KEYS, f"{what}.incidents")
    records = incidents.get("records")
    if not isinstance(records, list):
        errors.append(f"{what}.incidents.records: not an array")
        return
    if incidents.get("count") != len(records):
        errors.append(f"{what}.incidents: count={incidents.get('count')!r} "
                      f"but records has {len(records)} entries")
    for j, rec in enumerate(records):
        rwhat = f"{what}.incidents.records[{j}]"
        if not isinstance(rec, dict):
            errors.append(f"{rwhat}: not an object")
            continue
        expect_keys(errors, rec, INCIDENT_RECORD_KEYS, rwhat)
        if not isinstance(rec.get("trigger"), str) or not rec.get("trigger"):
            errors.append(f"{rwhat}.trigger: must be a non-empty string")
        for key in ("onset_ms", "detected_ms", "contained_ms", "recovered_ms",
                    "ttd_ms", "ttr_ms"):
            v = rec.get(key)
            if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
                errors.append(f"{rwhat}.{key}: not a finite number: {v!r}")
            elif key == "onset_ms" and v < 0:
                errors.append(f"{rwhat}.onset_ms: negative: {v!r}")
            elif v < 0 and v != -1.0:
                errors.append(f"{rwhat}.{key}: {v!r} is neither >= 0 "
                              "nor the -1 unreached sentinel")
        for key in ("pressure_breaches", "detection_signals", "containment_actions"):
            v = rec.get(key)
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                errors.append(f"{rwhat}.{key}: not a non-negative integer: {v!r}")


def check_numbers(errors: list, obj, what: str, non_negative: bool) -> None:
    if not isinstance(obj, dict):
        return
    for key, value in obj.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or not math.isfinite(value) or (non_negative and value < 0):
            kind = "finite non-negative" if non_negative else "finite"
            errors.append(f"{what}.{key}: not a {kind} number: {value!r}")


def check_file(path: str, require_ok: bool) -> list:
    errors: list = []
    try:
        with open(path, encoding="utf-8") as f:
            root = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [f"{path}: unreadable or invalid JSON: {e}"]

    if not isinstance(root, dict):
        return [f"{path}: top level is not an object"]
    expect_keys(errors, root, TOP_KEYS, f"{path}: top level")
    schema = root.get("schema_version")
    if schema != SCHEMA_VERSION:
        errors.append(f"{path}: schema_version is {schema!r}, expected {SCHEMA_VERSION}")
        return errors
    if not isinstance(root.get("bench"), str) or not root.get("bench"):
        errors.append(f"{path}: 'bench' must be a non-empty string")
    jobs = root.get("jobs")
    if not isinstance(jobs, int) or jobs < 1:
        errors.append(f"{path}: 'jobs' must be an integer >= 1, got {jobs!r}")

    cells = root.get("cells")
    if not isinstance(cells, list) or not cells:
        errors.append(f"{path}: 'cells' must be a non-empty array")
        return errors

    seen_ids: set = set()
    for i, cell in enumerate(cells):
        what = f"{path}: cells[{i}]"
        if not isinstance(cell, dict):
            errors.append(f"{what}: not an object")
            continue
        expect_keys(errors, cell, CELL_KEYS, what)
        cid = cell.get("id")
        if not isinstance(cid, str) or not cid:
            errors.append(f"{what}: 'id' must be a non-empty string")
        elif cid in seen_ids:
            errors.append(f"{what}: duplicate cell id '{cid}'")
        else:
            seen_ids.add(cid)

        ok = cell.get("ok")
        err = cell.get("error")
        if not isinstance(ok, bool):
            errors.append(f"{what}: 'ok' must be a boolean")
        elif ok and err:
            errors.append(f"{what}: ok:true but error is non-empty: {err!r}")
        elif not ok:
            if not err:
                errors.append(f"{what}: ok:false but error message is empty")
            if require_ok:
                errors.append(f"{what}: cell failed ({err!r}) and --require-ok is set")

        for sub, want in (("spec", SPEC_KEYS), ("metrics", METRIC_KEYS),
                          ("perf", PERF_KEYS), ("memory", MEMORY_KEYS)):
            obj = cell.get(sub)
            if not isinstance(obj, dict):
                errors.append(f"{what}: '{sub}' must be an object")
                continue
            expect_keys(errors, obj, want, f"{what}.{sub}")
        detection = cell.get("detection")
        if not isinstance(detection, dict):
            errors.append(f"{what}: 'detection' must be an object")
        else:
            expect_keys(errors, detection, DETECTION_KEYS, f"{what}.detection")
            check_numbers(errors, detection, f"{what}.detection", True)
        check_incidents(errors, cell.get("incidents"), what)
        spec = cell.get("spec")
        if isinstance(spec, dict) and spec.get("detect") not in DETECT_MODES:
            errors.append(f"{what}.spec.detect: {spec.get('detect')!r} "
                          f"not one of {DETECT_MODES}")
        check_numbers(errors, cell.get("metrics"), f"{what}.metrics", False)
        check_numbers(errors, cell.get("memory"), f"{what}.memory", True)
        for sub in ("tags", "ledger", "extra"):
            if not isinstance(cell.get(sub), dict):
                errors.append(f"{what}: '{sub}' must be an object")
    return errors


def normalized_for_equality(root: dict) -> dict:
    """Strips what legitimately differs between two runs of the same grid:
    the top-level schema_version and jobs, and the determinism-exempt cell
    blocks — host and layout detail, not results."""
    out = json.loads(json.dumps(root))  # deep copy
    out.pop("jobs", None)
    out.pop("schema_version", None)
    for cell in out.get("cells", []):
        if isinstance(cell, dict):
            for block in DETERMINISM_EXEMPT_BLOCKS:
                cell.pop(block, None)
    return out


def check_equal(path_a: str, path_b: str) -> list:
    loaded = []
    for path in (path_a, path_b):
        try:
            with open(path, encoding="utf-8") as f:
                loaded.append(json.load(f))
        except (OSError, json.JSONDecodeError) as e:
            return [f"{path}: unreadable or invalid JSON: {e}"]
    a, b = (normalized_for_equality(r) for r in loaded)
    if a == b:
        return []
    errors = [f"{path_a} and {path_b} differ (ignoring schema_version, jobs, "
              f"and {'/'.join(DETERMINISM_EXEMPT_BLOCKS)})"]
    cells_a = {c.get("id"): c for c in a.get("cells", []) if isinstance(c, dict)}
    cells_b = {c.get("id"): c for c in b.get("cells", []) if isinstance(c, dict)}
    for cid in sorted(set(cells_a) | set(cells_b)):
        if cells_a.get(cid) != cells_b.get(cid):
            errors.append(f"  cell '{cid}' differs")
    return errors


def dump_detection(path: str) -> list:
    """Prints one canonical line per cell: id, detection counters, digest.
    The output is a pure function of the detection decision sequence, so CI
    byte-diffs it across --jobs runs of the same grid."""
    try:
        with open(path, encoding="utf-8") as f:
            root = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [f"{path}: unreadable or invalid JSON: {e}"]
    errors: list = []
    for cell in root.get("cells", []):
        if not isinstance(cell, dict):
            continue
        det = cell.get("detection")
        if not isinstance(det, dict):
            errors.append(f"{path}: cell '{cell.get('id')}' has no detection block")
            continue
        print(f"{cell.get('id')} "
              f"detect={cell.get('spec', {}).get('detect')} "
              f"detections={det.get('detections')} "
              f"tp={det.get('true_positives')} "
              f"fp={det.get('false_positives')} "
              f"killed={det.get('paths_killed_by_detector')} "
              f"blacklist={det.get('blacklist_size')} "
              f"first_ms={det.get('first_detection_ms'):.6f} "
              f"digest={det.get('decision_digest')}")
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("files", nargs="+", help="BENCH_*.json files to validate")
    parser.add_argument("--require-ok", action="store_true",
                        help="fail if any cell has ok:false (CI smoke runs use this)")
    parser.add_argument("--expect-equal", action="store_true",
                        help="take exactly two files and require identical results")
    parser.add_argument("--dump-detection", action="store_true",
                        help="print canonical per-cell detection lines for the "
                             "CI detection-determinism byte-diff")
    args = parser.parse_args()

    if args.dump_detection:
        failures = 0
        for path in args.files:
            errors = dump_detection(path)
            if errors:
                failures += 1
                for e in errors:
                    print(e, file=sys.stderr)
        return 1 if failures else 0

    if args.expect_equal:
        if len(args.files) != 2:
            print("--expect-equal takes exactly two files", file=sys.stderr)
            return 2
        errors = check_equal(args.files[0], args.files[1])
        if errors:
            for e in errors:
                print(e, file=sys.stderr)
            return 1
        print(f"{args.files[0]} == {args.files[1]} (modulo schema_version, jobs, "
              f"and {'/'.join(DETERMINISM_EXEMPT_BLOCKS)})")
        return 0

    failures = 0
    for path in args.files:
        errors = check_file(path, args.require_ok)
        if errors:
            failures += 1
            for e in errors:
                print(e, file=sys.stderr)
        else:
            with open(path, encoding="utf-8") as f:
                n = len(json.load(f)["cells"])
            print(f"{path}: valid ({n} cells)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
