#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "sim/metric_key.hpp"

namespace sim {

/// A log2-bucketed distribution of unsigned samples (latencies in virtual
/// nanoseconds, transfer sizes in bytes). Bucket 0 holds the value 0; bucket
/// b >= 1 holds values in [2^(b-1), 2^b). Cheap enough for per-operation
/// recording on the data path; benchmarks snapshot them to report per-layer
/// latency/size distributions (count, sum, p50, p95, max) instead of the flat
/// event counts `Stats` gives.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  /// Bucket index a value lands in.
  static constexpr std::size_t bucket_of(std::uint64_t v) {
    if (v == 0) return 0;
    std::size_t b = 0;
    while (v != 0) {
      v >>= 1;
      ++b;
    }
    return std::min(b, kBuckets - 1);
  }

  /// Inclusive lower bound of bucket `b`.
  static constexpr std::uint64_t bucket_lo(std::size_t b) {
    return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
  }

  /// Exclusive upper bound of bucket `b` (saturates for the last bucket).
  static constexpr std::uint64_t bucket_hi(std::size_t b) {
    if (b == 0) return 1;
    if (b >= kBuckets - 1) return ~std::uint64_t{0};
    return std::uint64_t{1} << b;
  }

  /// Point-in-time copy of a histogram's state; all percentile math runs on
  /// the snapshot so it is consistent under concurrent recording.
  struct Snapshot {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    std::array<std::uint64_t, kBuckets> buckets{};

    double mean() const {
      return count == 0 ? 0.0
                        : static_cast<double>(sum) / static_cast<double>(count);
    }

    /// Value at quantile `q` in [0, 1]: the representative (upper edge,
    /// clamped to the observed min/max) of the bucket containing the sample
    /// of rank ceil(q * count). Log-bucketed, so the result is exact to
    /// within a factor of two.
    std::uint64_t quantile(double q) const {
      if (count == 0) return 0;
      q = std::clamp(q, 0.0, 1.0);
      auto target = static_cast<std::uint64_t>(
          q * static_cast<double>(count) + 0.9999);
      target = std::clamp<std::uint64_t>(target, 1, count);
      std::uint64_t cum = 0;
      for (std::size_t b = 0; b < kBuckets; ++b) {
        cum += buckets[b];
        if (cum >= target) {
          const std::uint64_t rep = bucket_hi(b) - 1;
          return std::clamp(rep, min, max);
        }
      }
      return max;
    }

    std::uint64_t p50() const { return quantile(0.50); }
    std::uint64_t p95() const { return quantile(0.95); }
  };

  void record(std::uint64_t v) {
    std::lock_guard lock(mu_);
    if (s_.count == 0 || v < s_.min) s_.min = v;
    if (v > s_.max) s_.max = v;
    ++s_.count;
    s_.sum += v;
    ++s_.buckets[bucket_of(v)];
  }

  Snapshot snapshot() const {
    std::lock_guard lock(mu_);
    return s_;
  }

  void reset() {
    std::lock_guard lock(mu_);
    s_ = Snapshot{};
  }

 private:
  mutable std::mutex mu_;
  Snapshot s_;
};

/// Named histograms, registered on demand. Lives in the Fabric next to
/// `Stats` so every layer (VIA, DAFS, MPI-IO) records into one shared
/// registry and benchmarks can snapshot the whole stack at once.
class HistogramRegistry {
 public:
  /// The named histogram, created empty on first use. The reference stays
  /// valid for the registry's lifetime.
  Histogram& get(std::string_view name) {
    assert(valid_metric_key(name) && "histogram keys are dotted lowercase");
    std::lock_guard lock(mu_);
    auto it = hists_.find(name);
    if (it == hists_.end()) {
      it = hists_.emplace(std::string(name), std::make_unique<Histogram>())
               .first;
    }
    return *it->second;
  }

  void record(std::string_view name, std::uint64_t v) { get(name).record(v); }

  /// Snapshots of every histogram with at least one sample.
  std::map<std::string, Histogram::Snapshot> snapshot_all() const {
    std::lock_guard lock(mu_);
    std::map<std::string, Histogram::Snapshot> out;
    for (const auto& [name, h] : hists_) {
      auto s = h->snapshot();
      if (s.count > 0) out.emplace(name, s);
    }
    return out;
  }

  void reset() {
    std::lock_guard lock(mu_);
    for (auto& [name, h] : hists_) h->reset();
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> hists_;
};

}  // namespace sim
