"""Arithmetic for the repository benchmark (perfbench/run.py).

Everything here is a pure function over plain Python data, so the unit
tests in perfbench/test_stats.py can pin it without building the simulator.
"""

import hashlib
import json
import math
from collections import namedtuple


def dig(record, path):
    """Value at a dotted key path, or None when any key is missing.

    Sweep JSON keys are read this way so that a later schema change makes
    the affected metric show up as missing instead of breaking the run.
    """
    for key in path.split("."):
        if not isinstance(record, dict) or key not in record:
            return None
        record = record[key]
    return record


TimingSummary = namedtuple("TimingSummary", "p50 p99 n beyond_p99")


def nearest_rank(sorted_values, q):
    """Nearest-rank q-quantile (0 < q <= 1) of an ascending list: the
    smallest value with at least q of the samples at or below it."""
    if not sorted_values:
        raise ValueError("no samples")
    if not 0 < q <= 1:
        raise ValueError("quantile must be in (0, 1]")
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def timing_summary(samples, min_beyond=10):
    """Median and p99 of `samples` with the sample count.

    A p99 is reported only when at least `min_beyond` samples lie above its
    rank (1000 samples give 10); fewer raise ValueError.
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(1, math.ceil(0.99 * n))
    beyond = n - rank
    if beyond < min_beyond:
        raise ValueError(
            "p99 of %d samples has %d beyond it; need %d" % (n, beyond, min_beyond))
    return TimingSummary(nearest_rank(ordered, 0.5), ordered[rank - 1], n, beyond)


Ratio = namedtuple("Ratio", "value num base")


def ratio(num, base):
    """num / base, kept with its base. An empty base (0) gives value 0.0:
    nothing happened, so there is nothing to divide; the report prints the
    base so a reader can tell."""
    return Ratio(num / base if base else 0.0, num, base)


def pair_twins(cells):
    """Pairs each attack cell with its no-attack twin by their tags.

    Cells carry tags {"pair": name, "role": "attack"|"twin"}; untagged
    cells are ignored. Returns [(pair, attack_cell, twin_cell)] sorted by
    pair name; a pair missing either role, or with a role twice, raises
    ValueError.
    """
    pairs = {}
    for cell in cells:
        name = dig(cell, "tags.pair")
        role = dig(cell, "tags.role")
        if name is None:
            continue
        if role not in ("attack", "twin"):
            raise ValueError("cell %s: bad role %r" % (cell.get("id"), role))
        slot = pairs.setdefault(name, {})
        if role in slot:
            raise ValueError("pair %s has two %s cells" % (name, role))
        slot[role] = cell
    out = []
    for name in sorted(pairs):
        slot = pairs[name]
        if set(slot) != {"attack", "twin"}:
            raise ValueError("pair %s lacks a %s cell" % (
                name, ({"attack", "twin"} - set(slot)).pop()))
        out.append((name, slot["attack"], slot["twin"]))
    return out


def slowdown_pct(attack_goodput, twin_goodput):
    """Benign goodput lost to the attack, as a percentage of the twin's."""
    if twin_goodput <= 0:
        raise ValueError("twin cell has no goodput to compare against")
    return 100.0 * (1.0 - attack_goodput / twin_goodput)


def covered_ns(intervals, lo, hi):
    """Length of the union of [start, end) intervals, clipped to [lo, hi)."""
    total = 0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of that
    interval its child spans cover. Spans are dicts with start_ns, end_ns
    and parent (an index into `spans`, -1 for a root)."""
    children = [[] for _ in spans]
    for span in spans:
        if span["parent"] >= 0:
            children[span["parent"]].append((span["start_ns"], span["end_ns"]))
    out = []
    for span, kids in zip(spans, children):
        lo, hi = span["start_ns"], span["end_ns"]
        out.append((hi - lo) - covered_ns(kids, lo, hi))
    return out


def self_time_by_name(spans):
    """Total and self nanoseconds per span name, in first-seen order."""
    totals = {}
    for span, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(span["name"], [0, 0, 0])
        entry[0] += 1
        entry[1] += span["end_ns"] - span["start_ns"]
        entry[2] += own
    return totals


def per_op_ns(spans, name):
    """Nanoseconds per call for each batch span called `name`."""
    return [(s["end_ns"] - s["start_ns"]) / s["ops"]
            for s in spans if s["name"] == name and s["ops"] > 0]


# Blocks of a sweep cell that hold simulated (deterministic) results. The
# perf, memory and shard_utilization blocks and extras are host- or
# layout-dependent and stay out of the digest.
SIMULATED_BLOCKS = ("metrics", "ledger", "detection", "incidents")


def cell_digest(cell, blocks=SIMULATED_BLOCKS):
    """Short hash of a cell's simulated results (missing blocks hash as null)."""
    doc = [cell.get("id")] + [cell.get(b) for b in blocks]
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def workload_digest(cell_digests):
    return hashlib.sha256("".join(cell_digests).encode()).hexdigest()[:16]
