#!/usr/bin/env bash
# Tier-1 gate: the standard build + full test suite, then an
# AddressSanitizer/UBSan build running the simulator core suite (ctest -L
# sim; the wait module, the worker ActorPool and concurrent Resource
# properties), the store and journal suite (ctest -L fstore; a quorum
# follower imports peer bytes through the journal), the VIA emulation suite
# (ctest -L via; completion queues reap in completion order for every CQ
# user), the fault-injection slice (ctest -L fault), the server
# crash/restart chaos slice (ctest -L chaos), the quorum failover slice
# (ctest -L failover), the causal-tracing slice (ctest -L trace), the
# striped-layout slice (ctest -L stripe), the quorum-replication slice
# (ctest -L raft), the data-integrity slice (ctest -L integrity), the
# live-telemetry slice (ctest -L telemetry), the
# client-cache/delegation slice (ctest -L cache), the MPI runtime and
# MPI-IO suites (ctest -L 'mpi|mpiio'; one-sided RDMA writes land in another
# rank's memory), the DAFS and NFS suites (ctest -L 'dafs|nfs'; the filer
# holds several posted RDMA descriptors per list request, and list I/O over
# NFS gathers from caller memory) and the end-to-end integration and stress
# suites (ctest -L 'integration|stress'; async completion groups, a filer
# stopped under a live session, garbage requests), which stress the paths
# where lifetime bugs would hide. The sanitizer build compiles at -O1 -g
# without -DNDEBUG (CMAKE_CXX_FLAGS_RELEASE="-O1 -g", no CMake option), so
# the assert()s in src/ and the death tests run there; every other build
# keeps NDEBUG. A ThreadSanitizer build then runs the
# store and journal suite and the live-telemetry slice (ctest -L
# 'fstore|telemetry'; counter ops racing a crash replay, workers and the
# stats plane sharing the filer's tables): TSan reports data races and
# lock-order inversions whatever the timing, and any report fails the test.
# (The quorum suite is left out: its seeded sweeps run far too long under
# TSan.) A final
# leg runs traced end-to-end
# benchmarks and validates the emitted Perfetto JSON (ids resolve, spans
# nest, no negative durations) with scripts/check_trace.py — including the
# --mpiio-rooted linkage check against the traced striped collective and the
# traced quorum bench, which must also have recorded a leader election and a
# re-silver burst (--require-span).
# A metrics-validation leg then replays the breakdown and telemetry benches
# with stdout captured and checks their unified metrics JSON (schema,
# dotted-lowercase keys, percentile ordering, monotone time series) with
# scripts/check_metrics.py.
#
# Three source checks come first. dafs::Client is the one public mount, so
# the MPI-IO driver, benches, examples and benchmark never name its internal
# per-filer transport (dafs::Session, dafs/session.hpp), and
# src/dafs/client.hpp only forward-declares it. Every blocking point in
# src/ waits through sim/wait.hpp (sim::Deadline, sim::CondVar, sim::sleep),
# the one reader of a host clock: no .cpp or .hpp under src/ outside src/sim/
# names a std::chrono clock, sleep_for, sleep_until, wait_for, wait_until or
# a condition_variable. And every request a dafs::Session sends, recovery's
# included, leaves through its one send helper: post_send( appears exactly
# once in src/dafs/session.cpp.
#
# Every ctest invocation runs under a per-test timeout so a hung recovery
# path (the exact bug class the chaos suite hunts) fails the gate instead of
# wedging it.
#
# A benchmark leg runs the end-to-end benchmark (benchmark/, a CMake project
# of its own that the standard build never touches) for one second per
# workload. run.py exits non-zero when the build or a run fails (2), when
# the calibration fingerprint no longer matches benchmark/calibration.json
# (3) or when a metric is missing (4), and any of those fails the gate.
#
# Each leg prints its wall time when it ends.
#
# Usage: scripts/tier1.sh [build-dir] [asan-build-dir] [tsan-build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
ASAN_BUILD="${2:-build-asan}"
TSAN_BUILD="${3:-build-tsan}"
JOBS="$(nproc 2>/dev/null || echo 4)"
# Generous per-test watchdog (seconds); sanitizer runs are several times
# slower than the standard build.
TEST_TIMEOUT="${TEST_TIMEOUT:-300}"

# leg <title>: report the wall time of the leg that just ended, then open
# the next one (an empty title only closes the last).
LEG=""
LEG_START=$SECONDS
leg() {
  if [[ -n "$LEG" ]]; then
    echo "-- tier1: $LEG: $((SECONDS - LEG_START)) s"
  fi
  LEG="$1"
  LEG_START=$SECONDS
  if [[ -n "$LEG" ]]; then echo "== tier1: $LEG =="; fi
}

leg "one public mount (dafs::Client)"
if grep -rlwE 'dafs::Session|dafs/session\.hpp' src/mpiio bench examples \
    benchmark; then
  echo "tier1: the files above name dafs::Session; mount a dafs::Client" >&2
  exit 1
fi
if grep -nE '^[[:space:]]*#[[:space:]]*include[[:space:]]*["<](dafs/)?session\.hpp' \
    src/dafs/client.hpp; then
  echo "tier1: src/dafs/client.hpp must only forward-declare Session" >&2
  exit 1
fi

leg "one wait primitive (sim/wait.hpp)"
if grep -rnwE --include='*.cpp' --include='*.hpp' --exclude-dir=sim \
    'steady_clock|system_clock|high_resolution_clock|utc_clock|tai_clock|gps_clock|file_clock|sleep_for|sleep_until|wait_for|wait_until|condition_variable|condition_variable_any' \
    src; then
  echo "tier1: the lines above block or read a clock outside src/sim/;" \
    "wait through sim::Deadline, sim::CondVar and sim::sleep" >&2
  exit 1
fi

leg "one send path (dafs::Session)"
SENDS="$(grep -o 'post_send(' src/dafs/session.cpp | wc -l)"
if [[ "$SENDS" -ne 1 ]]; then
  grep -n 'post_send(' src/dafs/session.cpp >&2 || true
  echo "tier1: src/dafs/session.cpp posts sends in $SENDS places;" \
    "send every request through Session::send" >&2
  exit 1
fi

leg "standard build"
cmake -B "$BUILD" -S . >/dev/null
cmake --build "$BUILD" -j "$JOBS"
ctest --test-dir "$BUILD" --output-on-failure -j "$JOBS" \
  --timeout "$TEST_TIMEOUT"

leg "benchmark leg (benchmark/run.py, 1 s per workload)"
CARGO_TARGET_DIR="$BUILD/bench_smoke" python3 benchmark/run.py --seconds 1

leg "sanitizer leg (ASan+UBSan, sim + fstore + via + fault + chaos + failover + trace + stripe + raft + integrity + telemetry + cache + mpi + mpiio + dafs + nfs + integration + stress labels)"
cmake -B "$ASAN_BUILD" -S . -DDAFS_SANITIZE=ON \
  -DCMAKE_CXX_FLAGS_RELEASE="-O1 -g" >/dev/null
cmake --build "$ASAN_BUILD" -j "$JOBS" --target test_sim --target test_fstore \
  --target test_via --target test_fault --target test_chaos \
  --target test_failover --target test_trace --target test_stripe \
  --target test_quorum \
  --target test_integrity --target test_telemetry --target test_cache \
  --target test_mpi --target test_mpiio --target test_dafs --target test_nfs \
  --target test_integration --target test_stress
ctest --test-dir "$ASAN_BUILD" --output-on-failure -j "$JOBS" \
  --timeout "$TEST_TIMEOUT" \
  -L 'sim|fstore|via|fault|chaos|failover|trace|stripe|raft|integrity|telemetry|cache|mpi|dafs|nfs|integration|stress'

leg "thread-sanitizer leg (TSan, fstore + telemetry labels)"
cmake -B "$TSAN_BUILD" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS=-fsanitize=thread \
  -DCMAKE_EXE_LINKER_FLAGS=-fsanitize=thread >/dev/null
cmake --build "$TSAN_BUILD" -j "$JOBS" --target test_fstore \
  --target test_telemetry
ctest --test-dir "$TSAN_BUILD" --output-on-failure -j "$JOBS" \
  --timeout "$TEST_TIMEOUT" -L 'fstore|telemetry'

leg "trace-validation leg (traced benches -> check_trace.py)"
TRACE_OUT="$BUILD/tier1_trace.json"
DAFS_TRACE="$TRACE_OUT" "$BUILD/bench/bench_e8_breakdown" >/dev/null
python3 scripts/check_trace.py "$TRACE_OUT"
# Striped bench: the E17 sweep runs last in bench_e9_scaling, so the dump is
# a traced striped collective — every per-server sub-transfer must chain up
# to the write_at_all that split it across the layout.
STRIPE_TRACE="$BUILD/tier1_trace_stripe.json"
DAFS_TRACE="$STRIPE_TRACE" "$BUILD/bench/bench_e9_scaling" >/dev/null
python3 scripts/check_trace.py --mpiio-rooted "$STRIPE_TRACE"
# Quorum bench: the kill-the-leader run must leave behind an election span
# (a successor won a term) and a re-silver span (the rebooted ex-leader
# caught its journal up) — proving the traced recovery actually exercised
# both halves of the consensus path, not just that the trace is well-formed.
# Every dafs.client span — including the retries that crossed the crash and
# the chase to the new leader — must also chain up to the mpiio span that
# issued it.
QUORUM_TRACE="$BUILD/tier1_trace_quorum.json"
DAFS_TRACE="$QUORUM_TRACE" "$BUILD/bench/bench_e18_quorum" >/dev/null
python3 scripts/check_trace.py --mpiio-rooted --require-span raft.election \
  --require-span raft.resilver "$QUORUM_TRACE"
# Integrity bench: the dafs_integrity sweep runs with the background
# scrubber on, so the traced dump must record at least one completed
# scrub pass over the store — proving the scrubber actually walked the
# blocks behind the reported verify-overhead numbers.
INTEGRITY_TRACE="$BUILD/tier1_trace_integrity.json"
DAFS_TRACE="$INTEGRITY_TRACE" "$BUILD/bench/bench_e19_integrity" >/dev/null
python3 scripts/check_trace.py --require-span scrub.pass "$INTEGRITY_TRACE"
# Cache bench: the recall episode runs last, so the traced dump must record
# a dafs.deleg.recall span — proving a conflicting open actually drove the
# server through recall-start, holder flush and delegation return.
CACHE_TRACE="$BUILD/tier1_trace_cache.json"
DAFS_TRACE="$CACHE_TRACE" "$BUILD/bench/bench_e21_cache" >/dev/null
python3 scripts/check_trace.py --require-span dafs.deleg.recall "$CACHE_TRACE"

leg "metrics-validation leg (bench JSON -> check_metrics.py)"
# The breakdown bench emits the plain schema (counters/gauges/histograms);
# the telemetry bench additionally arms the time-series sampler, so its
# document must carry a monotone, non-empty "timeseries" section.
METRICS_OUT="$BUILD/tier1_metrics_e8.txt"
"$BUILD/bench/bench_e8_breakdown" >"$METRICS_OUT"
python3 scripts/check_metrics.py "$METRICS_OUT"
TELEMETRY_OUT="$BUILD/tier1_metrics_e20.txt"
"$BUILD/bench/bench_e20_telemetry" >"$TELEMETRY_OUT"
python3 scripts/check_metrics.py --require-timeseries "$TELEMETRY_OUT"
CACHE_OUT="$BUILD/tier1_metrics_e21.txt"
"$BUILD/bench/bench_e21_cache" >"$CACHE_OUT"
python3 scripts/check_metrics.py "$CACHE_OUT"

leg ""
echo "== tier1: all green ($SECONDS s) =="
