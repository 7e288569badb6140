#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "benchmark/timed_driver.hpp"
#include "sim/actor.hpp"
#include "sim/histogram.hpp"

/// \file harness.hpp
/// What one trial of a workload measures. A trial is a fresh testbed (fabric,
/// filers, four rank threads, their mounts), a set-up/warm-up stage, and one
/// or more timed phases; main.cpp repeats trials until the run's time budget
/// is spent and reduces them to the reported metrics.
///
/// Every time here is modeled (virtual) nanoseconds unless its name says
/// host.
namespace bench {

inline constexpr int kRanks = 4;

struct TrialSpec {
  std::uint64_t seed = 1;     // this trial's input seed
  double scale = 1.0;         // multiplier on the workload's op counts
  bool decorator = true;      // wrap the DAFS driver in TimedDriver
  bool traced = false;        // record spans during the timed phases
  std::string dump_path;      // traced: Chrome-trace JSON written here
};

/// One class of timed calls (writes or reads; mdtest: creates or stats).
struct OpClass {
  /// Per-call latency. Collective calls contribute one sample per call: the
  /// slowest rank's time for it.
  std::vector<sim::Time> lat;
  std::uint64_t ops = 0;    // calls issued, summed over ranks
  std::uint64_t bytes = 0;  // payload moved, summed over ranks
  sim::Time elapsed = 0;    // phase time of this class, max over ranks
};

/// Per-server totals of the filer's per-client attribution table.
struct ServerTotals {
  std::uint64_t ops = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t queue_wait_ns = 0;
  std::uint64_t service_ns = 0;
  std::uint64_t sheds = 0;
};

/// Everything the layers reported over the timed phases only (differences
/// of counters taken at the start and end of each phase).
struct LayerTotals {
  std::map<std::string, std::uint64_t> stats;        // fabric Stats
  std::map<std::string, std::uint64_t> store_stats;  // every filer's fstore
  std::map<std::string, sim::Histogram::Snapshot> hists;
  std::uint64_t journal_bytes = 0;          // record-log growth, all filers
  std::uint64_t journal_pending_bytes = 0;  // un-synced intents at phase end
  ServerTotals server;
  /// Per timed phase: bytes on the fuller direction of the filer links.
  std::vector<std::uint64_t> phase_link_bytes;
  sim::BusyBreakdown server_busy;  // all worker actors
  int server_workers = 0;
};

struct TrialResult {
  OpClass write;
  OpClass read;
  std::uint64_t ops = 0;    // every timed call (mdtest: also the unlinks)
  sim::Time elapsed = 0;    // sum of the phase times
  /// Sum over ranks of each rank's own time inside the timed phases: the
  /// rank-time the traced per-layer budget must account for.
  sim::Time rank_time = 0;
  sim::Time setup_model = 0;      // first connect -> end of warm-up
  double setup_host_s = 0.0;      // host wall time of the same stage
  double timed_host_s = 0.0;      // host wall time of the timed phases
  sim::BusyBreakdown client_busy; // rank actors, timed phases only
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string verify_error;       // empty when every check passed

  // Layer inputs (timed phases only).
  CallTable calls;                // DAFS client entry points, all ranks
  std::uint64_t file_calls = 0;   // mpiio::File calls (0 on mdtest)
  sim::Time file_time = 0;        // modeled time inside those calls
  LayerTotals layers;
  double link_util = 0.0;  // filer links, busiest phase
  std::uint64_t spans_recorded = 0;
  std::uint64_t spans_evicted = 0;
};

/// Run one trial of `workload` ("ior_stream", "strided_coll", "small_rw",
/// "mdtest"). Never throws on a failed operation: failures are counted and
/// verification problems land in verify_error.
TrialResult run_trial(const std::string& workload, const TrialSpec& spec);

bool known_workload(const std::string& workload);

/// Op-count multiplier for the traced trials of `workload`.
double trace_scale(const std::string& workload);

inline void operator+=(sim::BusyBreakdown& a, const sim::BusyBreakdown& b) {
  for (std::size_t k = 0; k < a.by_kind.size(); ++k) a.by_kind[k] += b.by_kind[k];
}

/// Fold histogram snapshot `b` into `a` (same bucket layout).
inline void merge_into(sim::Histogram::Snapshot& a,
                       const sim::Histogram::Snapshot& b) {
  if (b.count == 0) return;
  if (a.count == 0) {
    a = b;
    return;
  }
  a.min = std::min(a.min, b.min);
  a.max = std::max(a.max, b.max);
  a.count += b.count;
  a.sum += b.sum;
  for (std::size_t i = 0; i < a.buckets.size(); ++i) a.buckets[i] += b.buckets[i];
}

/// SplitMix64 finalizer: the benchmark's one hash for seeds and keys.
inline std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace bench
