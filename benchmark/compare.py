#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric and workload by
workload.

    python3 benchmark/compare.py BASE CHANGE

BASE and CHANGE are each a directory of saved run.py outputs or a
comma-separated list of such files; one file is one run (of one workload or
of all four). Every "<workload> <metric> <value> <unit> n=<samples>" line
counts. For each pairing the tool prints both sides' median and quartiles
and, for end-to-end metrics, a verdict against the metric's bound in
BENCHMARK.json:

  within bound  CHANGE's median is not worse than BASE's by more than the bound
  worse         it is
  unresolved    a side's spread (quartile distance over median) exceeds the
                bound, and not every CHANGE run beats every BASE run
  better        the spread exceeds the bound but every CHANGE run beats every
                BASE run

Exit status 0 when no end-to-end pairing is worse or unresolved, else 1.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def read_set(arg):
    """(workload, metric) -> list of values, one per run."""
    p = Path(arg)
    files = sorted(f for f in p.iterdir() if f.is_file()) if p.is_dir() else [
        Path(x) for x in arg.split(",")]
    values = defaultdict(list)
    for f in files:
        for line in f.read_text().splitlines():
            parts = line.split()
            if len(parts) == 5 and parts[4].startswith("n="):
                try:
                    values[(parts[0], parts[1])].append(float(parts[2]))
                except ValueError:
                    pass
    return values


def summary(vs):
    if len(vs) < 2:
        return vs[0], vs[0], vs[0]
    q1, med, q3 = statistics.quantiles(vs, n=4)
    return q1, statistics.median(vs), q3


def verdict(base, change, better, bound):
    b1, bm, b3 = summary(base)
    c1, cm, c3 = summary(change)
    spread = max((b3 - b1) / abs(bm) if bm else 0.0,
                 (c3 - c1) / abs(cm) if cm else 0.0)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (cm - bm) / abs(bm) if bm else 0.0
    if spread > bound:
        wins = (max(change) < min(base)) if better == "lower" else (
            min(change) > max(base))
        return ("better" if wins else "unresolved"), worse_by, spread
    return ("worse" if worse_by > bound else "within bound"), worse_by, spread


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    direction = {m["name"]: m["better"] for m in spec["per_layer"]}
    direction.update({n: m["better"] for n, m in e2e.items()})
    base, change = read_set(argv[1]), read_set(argv[2])
    bad = 0
    print(f"{'workload':14s} {'metric':36s} {'base q1/med/q3':>38s} "
          f"{'change q1/med/q3':>38s} {'worse by':>9s}  verdict")
    for key in sorted(set(base) & set(change)):
        w, m = key
        b, c = summary(base[key]), summary(change[key])
        line = (f"{w:14s} {m:36s} {b[0]:12.5g}/{b[1]:12.5g}/{b[2]:12.5g} "
                f"{c[0]:12.5g}/{c[1]:12.5g}/{c[2]:12.5g}")
        if m in e2e:
            v, worse_by, spread = verdict(base[key], change[key],
                                          e2e[m]["better"], e2e[m]["bound"])
            bad += v in ("worse", "unresolved")
            line += (f" {worse_by:+9.2%}  {v} (bound {e2e[m]['bound']:.0%}, "
                     f"spread {spread:.1%})")
        else:
            line += f" {'':9s}  - ({direction.get(m, '?')} is better)"
        print(line)
    for key in sorted(set(base) ^ set(change)):
        print(f"{key[0]:14s} {key[1]:36s} only in "
              f"{'BASE' if key in base else 'CHANGE'}")
    print(f"{bad} end-to-end pairing(s) worse or unresolved")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
