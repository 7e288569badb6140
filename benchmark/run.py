#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 benchmark/run.py                      # every workload, untraced
    python3 benchmark/run.py --workload mdtest --seed 2 --seconds 15
    python3 benchmark/run.py --trace [--workload W]   # per-layer metrics
    python3 benchmark/run.py --self-check         # decorator changes nothing

The first call builds the library targets of the root CMake project into
.bench_build/repo (Release, as the tier-1 build does) and then the benchmark
project in benchmark/ against those static libraries (.bench_build/bench).
$CARGO_TARGET_DIR, when set, replaces .bench_build.

Every metric is printed as "<workload> <metric> <value> <unit> n=<samples>";
the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Exit status: 0 when every output verified
and every metric BENCHMARK.json names is present; 1 on a verification
failure (after printing the result); 2 when the build or a run fails;
3 when the calibration fingerprint differs from benchmark/calibration.json
(the run is not comparable); 4 when a metric is missing.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True
import layer_budget  # noqa: E402

WORKLOADS = ["ior_stream", "strided_coll", "small_rw", "mdtest"]
OUT = ROOT / ".bench_out"
RUN_TIMEOUT_S = 170


class Failure(Exception):
    def __init__(self, code, msg):
        super().__init__(msg)
        self.code = code


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Build the libraries and the benchmark; return the binary's path."""
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        raise Failure(2, f"no source tree at {ROOT}: nothing to benchmark")
    bd = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    repo, bench = bd / "repo", bd / "bench"
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(os.cpu_count() or 4)
    steps = []
    if not (repo / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT), "-B", str(repo), *gen,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(repo), "--target", "mpiio", "-j", jobs])
    if not (bench / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bench), *gen,
                      "-DCMAKE_BUILD_TYPE=Release", f"-DREPO_ROOT={ROOT}",
                      f"-DREPO_BUILD={repo}"])
    steps.append(["cmake", "--build", str(bench), "-j", jobs])
    # The compiler's scratch files stay inside the checkout too.
    tmp = bd / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        r = subprocess.run(cmd, capture_output=True, text=True, env=env)
        if r.returncode != 0:
            log(r.stdout[-6000:], r.stderr[-6000:])
            raise Failure(2, "build failed: " + " ".join(cmd))
    return bench / "dafs_bench"


def run_binary(binary, workload, seed, seconds, trace, extra=()):
    """One dafs_bench process; returns its JSON document."""
    OUT.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--out-dir", str(OUT), *extra]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise Failure(2, f"{workload}: no result within {RUN_TIMEOUT_S} s")
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        raise Failure(2, f"{workload}: dafs_bench exited with {r.returncode}")
    raw = json.loads(lines[-1])
    pinned = json.loads((HERE / "calibration.json").read_text())
    cal = raw["calibration"]
    if cal["fingerprint"] != pinned["fingerprint"]:
        changed = sorted(set(cal["text"].split()) ^ set(pinned["text"].split()))
        raise Failure(3, "not comparable: calibration fingerprint "
                      f"{cal['fingerprint']} != pinned {pinned['fingerprint']} "
                      f"({' '.join(changed)})")
    (OUT / f"{workload}.raw.json").write_text(json.dumps(raw))
    return raw


def measure(binary, workload, args, bench_spec):
    """Run one workload; returns (metrics, attempted, failed, problems)."""
    raw = run_binary(binary, workload, args.seed, args.seconds, args.trace)
    problems = []
    if raw["verify_error"]:
        problems.append(raw["verify_error"])
    if args.trace:
        bounds = {m["name"]: m["bound"] for m in bench_spec["end_to_end"]}
        extra, budget_problems = layer_budget.budget(raw, bounds)
        problems += budget_problems
        metrics = dict(raw["layers"])
        for name, (value, unit) in extra.items():
            metrics[name] = {"value": value, "unit": unit,
                             "samples": sum(d["ops"] for d in raw["dumps"])}
        wanted = [m["name"] for m in bench_spec["per_layer"]]
    else:
        metrics = raw["metrics"]
        wanted = [m["name"] for m in bench_spec["end_to_end"]]
    missing = [m for m in wanted if m not in metrics]
    if missing:
        raise Failure(4, f"{workload}: missing metrics {', '.join(missing)}")
    metrics = {m: metrics[m] for m in wanted}
    for name, m in metrics.items():
        print(f"{workload} {name} {m['value']:.10g} {m['unit']} "
              f"n={m['samples']}")
    print(f"{workload} ops attempted={raw['attempted']} failed={raw['failed']}")
    for p in problems:
        print(f"{workload} PROBLEM {p}")
    return metrics, raw["attempted"], raw["failed"], problems


def self_check(binary, args, bench_spec):
    """Run the bandwidth workloads with and without the TimedDriver
    decorator; modeled bandwidth must agree within the metric's bound."""
    bounds = {m["name"]: m["bound"] for m in bench_spec["end_to_end"]}
    ok = True
    for w in ("ior_stream", "strided_coll"):
        timed = run_binary(binary, w, args.seed, args.seconds, False,
                           ["--scale", "0.1"])
        bare = run_binary(binary, w, args.seed, args.seconds, False,
                          ["--scale", "0.1", "--no-decorator"])
        for m in ("write_ops_per_s", "read_ops_per_s"):
            a, b = timed["metrics"][m]["value"], bare["metrics"][m]["value"]
            diff = abs(a - b) / b
            good = diff <= bounds[m]
            ok &= good
            print(f"self-check {w} {m}: decorated {a:.6g} bare {b:.6g} "
                  f"diff {diff:.2%} bound {bounds[m]:.0%} "
                  f"{'ok' if good else 'FAIL'}")
    return 0 if ok else 1


def main():
    bench_spec = spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload (default: all four)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    default=float(bench_spec["run_seconds"]))
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=[0, 1])
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()

    try:
        binary = build()
        if args.self_check:
            return self_check(binary, args, bench_spec)
        workloads = [args.workload] if args.workload else WORKLOADS
        results = {}
        for w in workloads:
            results[w] = measure(binary, w, args, bench_spec)
    except Failure as e:
        log(f"run.py: {e}")
        return e.code

    single = len(workloads) == 1
    metrics = {}
    for w, (ms, _, _, _) in results.items():
        for name, m in ms.items():
            metrics[name if single else f"{w}.{name}"] = {
                "value": m["value"], "unit": m["unit"]}
    correct = all(not r[3] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r[1] for r in results.values()),
        "failed": sum(r[2] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
