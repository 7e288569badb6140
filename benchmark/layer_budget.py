#!/usr/bin/env python3
"""Per-layer modeled-time budget of a traced benchmark run.

A traced trial (dafs_bench --trace 1) dumps every span of its timed phases as
Chrome-trace JSON. Each root span is one benchmark operation: an mpiio call
(layer "mpiio") or, in mdtest, one create/stat/unlink ("bench"). This module
splits every root's interval exactly once among the layers under it: each
instant goes to the deepest span covering it (the shortest one on ties, so
an mpiio phase span does not swallow the driver calls beside it), which is a
span's duration minus what its children cover, with overlapping children
counted once. Summed over roots that is the time the ranks spent inside
operations; the rest of the ranks' timed-phase time is the residual, which
no layer accounts for and which is reported, not hidden.

    python3 benchmark/layer_budget.py .bench_out/<workload>.raw.json

prints the budget of a run that run.py saved; run.py imports budget() to
turn the same dumps into per-layer metrics.
"""

import json
import os
import sys
from collections import defaultdict

# Layer -> per_layer metric (microseconds per timed operation).
LAYERS = {
    "mpiio": "budget.mpiio_us",
    "bench": "budget.bench_us",
    "bench.adio": "budget.bench_adio_us",
    "dafs.client": "budget.dafs_client_us",
    "dafs.server": "budget.dafs_server_us",
    "via": "budget.via_us",
    "fstore": "budget.fstore_us",
}
OTHER = "budget.other_us"
QUEUE = "budget.server_queue_us"  # the admission_wait part of dafs.server
RESIDUAL = "budget.residual_us"
# Tracing must charge no modeled time, so these must not move when it is on.
# They integrate modeled time over whole phases. Latency percentiles are left
# out: a traced run has at most four trials, and ior_stream's read latency is
# bimodal, so its median alone can jump between modes from one run to the next.
MODELED = ["write_ops_per_s", "read_ops_per_s", "ops_per_s", "client_cpu_pct"]


def load_spans(path):
    """Closed spans of a dump: span_id -> (layer, name, start_ns, end_ns, parent)."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans = {}
    for e in events:
        args = e.get("args", {})
        if e.get("ph") != "X" or args.get("in_flight"):
            continue
        start = round(e["ts"] * 1000)
        spans[args["span_id"]] = (e["cat"], e["name"], start,
                                  start + round(e["dur"] * 1000),
                                  args["parent_span_id"])
    return spans


def partition(spans):
    """Split every root's interval among layers. Returns (ns by key, root ns)."""
    children = defaultdict(list)
    for sid, s in spans.items():
        children[s[4]].append(sid)
    out = defaultdict(int)
    root_ns = 0
    for root in children[0]:
        r_lo, r_hi = spans[root][2], spans[root][3]
        root_ns += r_hi - r_lo
        # (start, end, depth, key) of every span under this root, clipped.
        tree, stack = [], [(root, 0)]
        while stack:
            sid, depth = stack.pop()
            layer, name, lo, hi, _ = spans[sid]
            lo, hi = max(lo, r_lo), min(hi, r_hi)
            if hi > lo:
                key = LAYERS.get(layer, OTHER)
                if layer == "dafs.server" and name == "admission_wait":
                    key = QUEUE
                tree.append((lo, hi, depth, key))
            stack.extend((c, depth + 1) for c in children[sid])
        cuts = sorted({p for lo, hi, _, _ in tree for p in (lo, hi)})
        for a, b in zip(cuts, cuts[1:]):
            # Deepest, then shortest (most specific) covering span.
            best = max((depth, lo - hi, key) for lo, hi, depth, key in tree
                       if lo <= a and hi >= b)
            out[best[2]] += b - a
    return out, root_ns


def budget(raw, bounds):
    """Per-layer metrics and problems for one traced run of dafs_bench.

    `raw` is the binary's JSON document; `bounds` maps end-to-end metric
    names to their regression bound (BENCHMARK.json).
    """
    problems = []
    ns = defaultdict(int)
    root_ns = rank_ns = ops = 0
    for d in raw["dumps"]:
        part, roots = partition(load_spans(d["path"]))
        for k, v in part.items():
            ns[k] += v
        root_ns += roots
        rank_ns += d["rank_time_ns"]
        ops += d["ops"]
    residual = rank_ns - root_ns
    if raw["spans_evicted"] != 0:
        problems.append(f"{raw['spans_evicted']} spans evicted before the dump")
    if ops == 0 or root_ns == 0:
        problems.append("the traced run recorded no operations")
    # Operations live inside the ranks' timed phases, so the roots can never
    # outlast them; allow rounding of the dump's microsecond timestamps.
    if residual < -0.001 * rank_ns:
        problems.append(f"root spans cover {root_ns} ns, more than the "
                        f"{rank_ns} ns of rank time in the timed phases")
    attributed = sum(ns.values()) + residual
    if abs(attributed - rank_ns) > 0.001 * rank_ns:
        problems.append(f"layers + residual = {attributed} ns, "
                        f"rank time = {rank_ns} ns")

    def per_op(v):
        return v / 1000.0 / ops if ops else 0.0

    metrics = {name: (per_op(ns.get(name, 0)), "us")
               for name in list(LAYERS.values()) + [OTHER, QUEUE]}
    # The queue wait is reported on its own, and also counts toward the
    # filer's share.
    metrics["budget.dafs_server_us"] = (
        per_op(ns.get("budget.dafs_server_us", 0) + ns.get(QUEUE, 0)), "us")
    metrics[RESIDUAL] = (per_op(residual), "us")
    metrics["host.residual_share"] = (residual / rank_ns if rank_ns else 0.0,
                                      "ratio")
    host = raw["host_s_per_op"]
    metrics["host.tracing_overhead"] = (
        host["traced"] / host["untraced"] - 1.0 if host["untraced"] else 0.0,
        "ratio")
    metrics["host.sim_ops_per_host_s"] = (
        1.0 / host["untraced"] if host["untraced"] else 0.0, "1/s")

    for m in MODELED:
        a = raw["metrics"][m]["value"]
        b = raw["traced_metrics"][m]["value"]
        if a and abs(b - a) / a > bounds[m]:
            problems.append(f"tracing moved {m}: {a:.6g} untraced vs "
                            f"{b:.6g} traced (bound {bounds[m]:.0%})")
    return metrics, problems


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        raw = json.load(f)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    metrics, problems = budget(raw, bounds)
    ops = sum(d["ops"] for d in raw["dumps"])
    print(f"{raw['workload']}: {len(raw['dumps'])} traced trials, {ops} ops")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:12.3f} {unit}")
    for p in problems:
        print("PROBLEM:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
