#!/usr/bin/env python3
"""report_incidents: render HealthMonitor incident forensics from bench JSON.

Schema-v6 bench documents (sweep --json) carry one `incidents` block per
cell: the onset -> detection -> containment -> recovery timeline the
HealthMonitor (src/server/health.h) recorded, with derived time-to-detect
(TTD) and time-to-recover (TTR). This tool turns those blocks into a
human-readable Markdown report:

  * one timeline section per cell that had an incident, in grid order
  * a cross-cell comparison table (trigger, TTD, TTR, signal counts) so
    fig9 / fig11 / ext_detection runs can be compared defense-by-defense

Usage:
  report_incidents.py FILE [FILE...]            # Markdown to stdout
  report_incidents.py --out report.md FILE...   # Markdown to a file
  report_incidents.py --check FILE...           # CI gate, no rendering noise

--check enforces the acceptance contract of the incident plane:
  * every ATTACK cell (spec.syn_attack_rate > 0 or spec.cgi_attackers > 0)
    reports at least one incident whose ttd_ms and ttr_ms are both finite
    and >= 0 — the defense detected the attack and service recovered;
  * every BENIGN cell reports exactly zero incidents — no false alarms.
Files whose schema_version is not 7 are rejected.

Exit status: 0 ok, 1 check/validation failure, 2 usage/IO error.
Stdlib only — no dependencies.
"""

from __future__ import annotations

import argparse
import json
import sys


def is_attack_cell(cell: dict) -> bool:
    spec = cell.get("spec", {})
    return spec.get("syn_attack_rate", 0) > 0 or spec.get("cgi_attackers", 0) > 0


def fmt_ms(v) -> str:
    """-1 is the serializer's 'milestone never reached' sentinel."""
    if not isinstance(v, (int, float)) or v < 0:
        return "—"
    return f"{v:.2f}"


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as f:
        root = json.load(f)
    if not isinstance(root, dict) or not isinstance(root.get("cells"), list):
        raise ValueError(f"{path}: not a bench JSON document")
    if root.get("schema_version") != 7:
        raise ValueError(
            f"{path}: schema_version {root.get('schema_version')!r}, expected 7")
    return root


def render(root: dict, path: str) -> str:
    lines: list = []
    bench = root.get("bench", path)
    lines.append(f"# Incident report: {bench}")
    lines.append("")
    cells = [c for c in root["cells"] if isinstance(c, dict)]
    with_incidents = [c for c in cells
                      if c.get("incidents", {}).get("records")]

    # Cross-cell comparison table first: the defense-by-defense view.
    lines.append("| cell | load | incidents | trigger | TTD (ms) | TTR (ms) "
                 "| pressure | detections | containment |")
    lines.append("|---|---|---:|---|---:|---:|---:|---:|---:|")
    for cell in cells:
        kind = "attack" if is_attack_cell(cell) else "benign"
        records = cell.get("incidents", {}).get("records", [])
        if not records:
            lines.append(f"| {cell.get('id')} | {kind} | 0 | — | — | — "
                         "| — | — | — |")
            continue
        first = records[0]
        lines.append(
            f"| {cell.get('id')} | {kind} | {len(records)} "
            f"| {first.get('trigger')} | {fmt_ms(first.get('ttd_ms'))} "
            f"| {fmt_ms(first.get('ttr_ms'))} "
            f"| {first.get('pressure_breaches')} "
            f"| {first.get('detection_signals')} "
            f"| {first.get('containment_actions')} |")
    lines.append("")

    # Per-cell timelines for every cell that had an incident.
    for cell in with_incidents:
        cid = cell.get("id")
        kind = "attack" if is_attack_cell(cell) else "benign"
        lines.append(f"## {cid} ({kind})")
        lines.append("")
        for i, rec in enumerate(cell["incidents"]["records"]):
            lines.append(f"Incident {i + 1}: trigger `{rec.get('trigger')}`")
            lines.append("")
            lines.append("| milestone | sim time (ms) |")
            lines.append("|---|---:|")
            lines.append(f"| onset | {fmt_ms(rec.get('onset_ms'))} |")
            lines.append(f"| detected | {fmt_ms(rec.get('detected_ms'))} |")
            lines.append(f"| contained | {fmt_ms(rec.get('contained_ms'))} |")
            lines.append(f"| recovered | {fmt_ms(rec.get('recovered_ms'))} |")
            lines.append("")
            lines.append(f"TTD {fmt_ms(rec.get('ttd_ms'))} ms, "
                         f"TTR {fmt_ms(rec.get('ttr_ms'))} ms; "
                         f"{rec.get('pressure_breaches')} pressure breaches, "
                         f"{rec.get('detection_signals')} detection signals, "
                         f"{rec.get('containment_actions')} containment "
                         "actions over the incident.")
            lines.append("")
    if not with_incidents:
        lines.append("No incidents recorded in any cell.")
        lines.append("")
    return "\n".join(lines) + "\n"


def check(root: dict, path: str) -> list:
    errors: list = []
    for cell in root["cells"]:
        if not isinstance(cell, dict):
            continue
        cid = cell.get("id")
        records = cell.get("incidents", {}).get("records")
        if records is None:
            errors.append(f"{path}: cell '{cid}' has no incidents block")
            continue
        if is_attack_cell(cell):
            if not records:
                errors.append(f"{path}: attack cell '{cid}' reported no "
                              "incident (defense timeline missing)")
                continue
            good = [r for r in records
                    if isinstance(r.get("ttd_ms"), (int, float))
                    and isinstance(r.get("ttr_ms"), (int, float))
                    and r["ttd_ms"] >= 0 and r["ttr_ms"] >= 0]
            if not good:
                errors.append(
                    f"{path}: attack cell '{cid}' has no incident with "
                    f"finite TTD and TTR (records: "
                    f"{[(r.get('trigger'), r.get('ttd_ms'), r.get('ttr_ms')) for r in records]})")
        elif records:
            errors.append(
                f"{path}: benign cell '{cid}' reported "
                f"{len(records)} incident(s) — false alarm: "
                f"{[(r.get('trigger')) for r in records]}")
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("files", nargs="+", help="schema-7 BENCH_*.json files")
    parser.add_argument("--out", help="write the Markdown report here instead of stdout")
    parser.add_argument("--check", action="store_true",
                        help="CI gate: attack cells must have an incident with "
                             "finite TTD/TTR, benign cells must have none")
    args = parser.parse_args()

    roots = []
    for path in args.files:
        try:
            roots.append((path, load(path)))
        except (OSError, ValueError, json.JSONDecodeError) as e:
            print(e, file=sys.stderr)
            return 2

    if args.check:
        failures = 0
        for path, root in roots:
            errors = check(root, path)
            for e in errors:
                print(e, file=sys.stderr)
            if errors:
                failures += 1
            else:
                attack = sum(1 for c in root["cells"]
                             if isinstance(c, dict) and is_attack_cell(c))
                print(f"{path}: ok ({attack} attack cells with finite "
                      f"TTD/TTR, {len(root['cells']) - attack} benign cells "
                      "clean)")
        return 1 if failures else 0

    report = "".join(render(root, path) for path, root in roots)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(report)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
