#!/usr/bin/env python3
"""Repository benchmark for the Escort simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (the simulator libraries
plus the perfbench driver) into .bench_build/, draws the workload's spec
inputs from --seed, runs the driver for about S seconds at --jobs 1 and
checks its simulated results. Prints a report, then, as the last line, one
JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics of BENCHMARK.json with --trace 0, or its per-layer metrics from a
separate traced run with --trace 1. BENCHMARK.json gives each bounded
metric's unit and direction; perfbench/metrics.json records the rest.
"""

import argparse
import json
import os
import random
import statistics
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

WORKLOADS = ("http_saturated", "attack_mix", "client_scale")
# Either variable silently overrides every spec's warm-up / window, which
# would change the workload.
REFUSED_ENV = ("ESCORT_WARMUP_S", "ESCORT_WINDOW_S")
BUILD_DIR = ".bench_build"
# Every run after the first must end within 180 s; the limit applies to
# the driver, after the (then incremental) build.
RUN_DEADLINE_S = 170
# The ledger is read at the window edges, where one busy segment may
# straddle each edge. A non-yielding segment is bounded by the server's
# 2 ms runaway budget, so the ledger may exceed the window by two of them.
EDGE_SLACK_S = 2 * 0.002
# Blocks whose digest must not change when metrics collection is off
# (collect_metrics=false drops only the incident records).
CORE_BLOCKS = ("metrics", "ledger", "detection")

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
METADATA = json.loads((HERE / "metrics.json").read_text())


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def workload_inputs(seed):
    """Spec-level inputs drawn from the workload seed. Every input is drawn
    for every workload, so one seed means the same inputs everywhere."""
    rng = random.Random(seed)
    return {
        "clients": rng.randint(64, 65),
        "syn_rate": rng.randint(975, 1025),
        "cgi_attackers": rng.randint(8, 9),
        "scale_clients": rng.randint(247_500, 252_500),
    }


def build(root):
    """Configures (once) and builds the driver; returns its path."""
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    build_dir = root / BUILD_DIR
    cache = build_dir / "CMakeCache.txt"
    if cache.is_file() and ("CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE) not in cache.read_text():
        shutil.rmtree(build_dir)  # configured for another source tree
    steps = []
    if not cache.is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append([cmake, "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append([cmake, "--build", str(build_dir), "--target", "perfbench", "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return build_dir / "perfbench"


def run_driver(binary, root, args, inputs, mode, deadline, extra=()):
    out = root / BUILD_DIR / "perfbench-out" / ("%s-%s.json" % (args.workload, mode))
    out.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--mode", mode,
           "--seconds", str(args.seconds), "--seed", str(args.seed),
           "--clients", str(inputs["clients"]), "--syn-rate", str(inputs["syn_rate"]),
           "--cgi-attackers", str(inputs["cgi_attackers"]),
           "--scale-clients", str(inputs["scale_clients"]), "--out", str(out)] + list(extra)
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("driver exceeded the time limit")
    if proc.returncode != 0:
        fail("driver exited with %d" % proc.returncode)
    return json.loads(out.read_text())


# --- correctness --------------------------------------------------------------

def cell_problems(cell):
    if not cell.get("ok", False):
        return ["threw: %s" % cell.get("error", "")]
    ledger = stats.dig(cell, "metrics.ledger_total")
    window = stats.dig(cell, "metrics.window_cycles")
    window_s = stats.dig(cell, "spec.window_s")
    if None in (ledger, window, window_s):
        return []
    slack = EDGE_SLACK_S * window / window_s
    if ledger > window + slack:
        return ["ledger %d cycles exceeds window %d + %d" % (ledger, window, slack)]
    return []


def check_passes(passes):
    """Gates every cell run; returns (attempted, failed, digest, problems).

    The first pass is the reference: every later pass must reproduce each
    cell's simulated blocks exactly (only the incident records may vanish
    in a pass with metrics collection off).
    """
    first = passes[0]["sweep"]["cells"]
    ref_full = {c["id"]: stats.cell_digest(c) for c in first}
    ref_core = {c["id"]: stats.cell_digest(c, CORE_BLOCKS) for c in first}
    attempted = failed = 0
    problems = []
    for i, p in enumerate(passes):
        for cell in p["sweep"]["cells"]:
            attempted += 1
            found = cell_problems(cell)
            if p["kind"] == "no_metrics":
                same = stats.cell_digest(cell, CORE_BLOCKS) == ref_core.get(cell["id"])
            else:
                same = stats.cell_digest(cell) == ref_full.get(cell["id"])
            if not same:
                found.append("simulated results differ from pass 0")
            if found:
                failed += 1
                problems.append("pass %d (%s) cell %s: %s" % (i, p["kind"], cell.get("id"),
                                                              "; ".join(found)))
    digest = stats.workload_digest([ref_full[c["id"]] for c in first])
    return attempted, failed, digest, problems


# --- metrics ------------------------------------------------------------------

def total(cells, path):
    """Sum of a key over cells; None if any cell lacks it."""
    values = [stats.dig(c, path) for c in cells]
    return None if any(v is None for v in values) else sum(values)


def sim_seconds(cells):
    return sum(stats.dig(c, "spec.warmup_s") + stats.dig(c, "spec.window_s") for c in cells)


def window_conns(cells):
    return sum(stats.dig(c, "metrics.conns_per_sec") * stats.dig(c, "spec.window_s")
               for c in cells)


def pass_timing(p):
    """(simulated s, event-queue run s, set-up s, wall s) of one pass."""
    cells = p["sweep"]["cells"]
    run_ms = total(cells, "perf.wall_ms")
    if run_ms is None:
        return None
    return sim_seconds(cells), run_ms / 1000.0, p["wall_s"] - run_ms / 1000.0, p["wall_s"]


def end_to_end(doc, passes):
    """Host metrics bounded in BENCHMARK.json, from the untraced passes:
    each timing is the median over the passes of the run."""
    out = {}
    timings = [t for t in map(pass_timing, passes) if t is not None]
    if timings:
        out["sim_speed"] = statistics.median(sim / run for sim, run, _, _ in timings)
        out["run_s"] = statistics.median(wall for _, _, _, wall in timings)
        out["setup_s"] = statistics.median(setup for _, _, setup, _ in timings)
    out["peak_rss_mb"] = doc["peak_rss_kb"] / 1024.0
    cells = passes[0]["sweep"]["cells"]
    reserved = [total(cells, "memory." + k)
                for k in ("pcb_bytes_reserved", "peer_bytes_reserved", "timer_bytes_reserved")]
    if None not in reserved:
        out["bytes_per_client"] = stats.ratio(sum(reserved), total(cells, "spec.clients")).value
    return out


def simulated(cells, attempted, failed, notes):
    """Simulated end-to-end metrics (deterministic per seed; printed, not
    bounded, because several are zero on some workloads)."""
    out = {}
    out["goodput_conns_per_s"] = (
        sum(stats.dig(c, "metrics.conns_per_sec") for c in cells) / len(cells))
    qos = [stats.dig(c, "metrics.qos_bytes_per_sec") / 1e6
           for c in cells if stats.dig(c, "spec.qos_stream")]
    if qos:
        out["qos_mb_per_s"] = sum(qos) / len(qos)
    pairs = stats.pair_twins(cells)
    if pairs:
        slowdowns = []
        for name, attack, twin in pairs:
            pct = stats.slowdown_pct(stats.dig(attack, "metrics.conns_per_sec"),
                                     stats.dig(twin, "metrics.conns_per_sec"))
            slowdowns.append(pct)
            notes.append("attack_slowdown_pct[%s] = %.4f %%" % (name, pct))
        out["attack_slowdown_pct"] = sum(slowdowns) / len(slowdowns)
    records = [r for c in cells for r in (stats.dig(c, "incidents.records") or [])]
    for key in ("ttd_ms", "ttr_ms"):
        reached = [r[key] for r in records if r.get(key, -1) >= 0]
        notes.append("%s.p50 over %d of %d incident records" % (key, len(reached), len(records)))
        if reached:
            out[key + ".p50"] = statistics.median(reached)
    failures = total(cells, "metrics.client_failures")
    done = total(cells, "metrics.completions_total")
    if None not in (failures, done):
        r = stats.ratio(failures, failures + done)
        out["client_failure_frac"] = r.value
        notes.append("client_failure_frac base: %d attempted requests" % r.base)
    out["failed_frac"] = stats.ratio(failed, attempted).value
    return out


def timing_metrics(spans, span_name, metric, notes):
    out = {}
    samples = stats.per_op_ns(spans, span_name)
    try:
        s = stats.timing_summary(samples)
    except ValueError as e:
        notes.append("%s: %s" % (metric, e))
        return out
    out[metric + ".p50"] = s.p50
    out[metric + ".p99"] = s.p99
    out[metric + ".n"] = s.n
    return out


def layer_shape(cells):
    """Driver arguments for the layer run, read by key from one pass's
    cells. A missing key leaves its argument out, so the drivers that need
    it are skipped and their metrics show as missing."""
    out = []
    for key, flag in (("memory.timer_high_water", "--timer-population"),
                      ("memory.pcb_high_water", "--buffers-in-flight")):
        values = [stats.dig(c, key) for c in cells]
        if None not in values:
            out += [flag, str(max(values))]
    syns, done = total(cells, "metrics.syns_sent"), total(cells, "metrics.completions_total")
    if None not in (syns, done):
        out += ["--syn-per-conn", repr(stats.ratio(syns, done).value)]
    return out


def per_layer(doc, layers, passes, notes):
    spans = layers["spans"]
    out = {}
    for span_name, metric in (
            ("sim.event_queue.op", "sim.event_queue.ns_per_event"),
            ("sim.timer_wheel.op", "sim.timer_wheel.ns_per_timer"),
            ("sim.metrics.op", "sim.metrics.ns_per_sample"),
            ("kernel.dispatch.op", "kernel.dispatch.ns_per_item"),
            ("kernel.iobuffer.op", "kernel.iobuffer.ns_per_alloc"),
            ("net.rx.op", "net.rx.ns_per_frame"),
            ("path.kill.op", "path.kill.ns_per_kill"),
            ("server.detect.op", "server.detect.ns_per_observe")):
        out.update(timing_metrics(spans, span_name, metric, notes))

    plain = [p for p in passes if p["kind"] == "untraced"]
    cells = plain[0]["sweep"]["cells"]
    sim_s = sim_seconds(cells)
    window_cycles = total(cells, "metrics.window_cycles")
    conns = window_conns(cells)

    events = 0
    for c in cells:
        rate, wall_ms = stats.dig(c, "perf.events_per_sec"), stats.dig(c, "perf.wall_ms")
        if rate is None or wall_ms is None:
            events = None
            break
        events += round(rate * wall_ms / 1000.0)
    if events is not None:
        out["sim.event_queue.events_per_sim_s"] = events / sim_s

    # Overheads compare the median pass of each kind.
    if all(pass_timing(p) is not None for p in passes):
        run = {kind: statistics.median(pass_timing(p)[1] for p in passes if p["kind"] == kind)
               for kind in ("untraced", "no_metrics")}
        wall = {kind: statistics.median(p["wall_s"] for p in passes if p["kind"] == kind)
                for kind in ("untraced", "traced")}
        out["sim.metrics.overhead_frac"] = run["untraced"] / run["no_metrics"] - 1
        out["trace.overhead_frac"] = wall["traced"] / wall["untraced"] - 1
        setup = statistics.median([pass_timing(p)[2] for p in plain])
        out["workload.setup_us_per_client"] = stats.ratio(
            setup * 1e6, total(cells, "spec.clients")).value

    counters = layers.get("counters", {})
    hits = stats.ratio(counters.get("kernel.iobuffer.cache_hits", 0),
                       counters.get("kernel.iobuffer.allocs", 0))
    out["kernel.iobuffer.cache_hit_frac"] = hits.value
    notes.append("kernel.iobuffer.cache_hit_frac base: %d allocations" % hits.base)

    ledger = total(cells, "metrics.ledger_total")
    idle = sum(stats.dig(c, "ledger.Idle") or 0 for c in cells)
    if None not in (ledger, window_cycles):
        out["kernel.sim_busy_frac"] = stats.ratio(ledger - idle, window_cycles).value
    overhead = total(cells, "metrics.accounting_overhead")
    if None not in (overhead, window_cycles):
        out["kernel.accounting_overhead_frac"] = stats.ratio(overhead, window_cycles).value
    crossings = total(cells, "metrics.pd_crossings")
    if crossings is not None:
        r = stats.ratio(crossings, conns)
        out["kernel.pd_crossings_per_conn"] = r.value
        notes.append("per-connection base: %.1f connections in the window" % r.base)
    dropped, sent = total(cells, "metrics.syns_dropped_at_demux"), total(cells, "metrics.syns_sent")
    if None not in (dropped, sent):
        r = stats.ratio(dropped, sent)
        out["net.syn_drop_frac"] = r.value
        notes.append("net.syn_drop_frac base: %d SYNs sent" % r.base)
    retransmits = registry_counter(doc, "tcp.retransmits")
    if retransmits is not None:
        out["net.retransmits_per_conn"] = stats.ratio(retransmits, conns).value
    kills = total(cells, "metrics.paths_killed")
    if kills is not None:
        cost = sum(stats.dig(c, "metrics.kill_cost_mean") * stats.dig(c, "metrics.paths_killed")
                   for c in cells)
        out["path.kill_cost_kcycles"] = stats.ratio(cost / 1000.0, kills).value
        out["path.kills_per_sim_s"] = kills / sim_s
        notes.append("path.kill_cost_kcycles base: %d kills" % kills)
    fps = total(cells, "detection.false_positives")
    if fps is not None:
        out["server.detect.false_positives"] = fps
    incidents = total(cells, "incidents.count")
    if incidents is not None:
        out["server.incidents"] = incidents
    return out


def registry_counter(doc, name):
    """Sum of a counter over the cells of the traced pass's registry
    document; None when the document or the counter is missing."""
    path = doc.get("metrics_doc")
    if not path or not Path(path).is_file():
        return None
    values = [c.get("value") for cell in json.loads(Path(path).read_text()).get("cells", [])
              for c in cell.get("counters", []) if c.get("name") == name]
    return sum(values) if values else None


def print_self_times(spans):
    print("host time by span (count, total ms, self ms):")
    for name, (count, total_ns, self_ns) in stats.self_time_by_name(spans).items():
        print("  %-24s %6d %12.3f %12.3f" % (name, count, total_ns / 1e6, self_ns / 1e6))


def declared(section):
    """The metrics BENCHMARK.json declares in `section`, by name."""
    return {m["name"]: m for m in BENCHMARK[section]}


def unit_of(name):
    """A metric's unit: from BENCHMARK.json, or from perfbench/metrics.json
    for the simulated metrics that are printed but not bounded."""
    for section in ("end_to_end", "per_layer"):
        if name in declared(section):
            return declared(section)[name]["unit"]
    if name in METADATA["unbounded"]:
        return METADATA["unbounded"][name]["unit"]
    raise KeyError("metric %s is described in neither BENCHMARK.json nor "
                   "perfbench/metrics.json" % name)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    for name in REFUSED_ENV:
        if name in os.environ:
            fail("refusing to run with %s set: it overrides every cell's spec" % name)
    root = HERE.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail("no simulator sources under %s; run from a repository checkout" % root)

    binary = build(root)
    deadline = time.monotonic() + RUN_DEADLINE_S
    inputs = workload_inputs(args.seed)
    mode = "traced" if args.trace else "untraced"
    doc = run_driver(binary, root, args, inputs, mode, deadline)
    passes = doc["passes"]
    if not passes:
        fail("driver returned no passes")

    attempted, failed, digest, problems = check_passes(passes)
    cells = passes[0]["sweep"]["cells"]
    notes = []
    report = simulated(cells, attempted, failed, notes)
    if args.trace:
        shape = layer_shape(cells)
        notes.append("layer shape from pass 0: %s" % " ".join(shape))
        layers = run_driver(binary, root, args, inputs, "layers", deadline, shape)
        metrics = per_layer(doc, layers, passes, notes)
        wanted = declared("per_layer")
    else:
        metrics = end_to_end(doc, [p for p in passes if p["kind"] == "untraced"])
        wanted = declared("end_to_end")

    print("perfbench %s seed=%d trace=%d inputs=%s" % (
        args.workload, args.seed, args.trace, json.dumps(inputs, sort_keys=True)))
    windows = sorted({(stats.dig(c, "spec.warmup_s"), stats.dig(c, "spec.window_s"))
                      for c in cells})
    for warmup, window in windows:
        print("simulated warmup_s=%s window_s=%s" % (warmup, window))
    print("passes=%d cell runs=%d failed=%d" % (len(passes), attempted, failed))
    for line in problems:
        print("FAILED " + line)
    print("digest %s %s" % (args.workload, digest))
    for name, value in list(report.items()) + list(metrics.items()):
        print("metric %s = %.6g %s" % (name, value, unit_of(name)))
    for line in notes:
        print("note " + line)
    if args.trace:
        print_self_times(doc["spans"])
        print_self_times(layers["spans"])
    for name in wanted:
        if name not in metrics:
            print("missing metric %s" % name)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": wanted[name]["unit"]}
                    for name in wanted if name in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
