#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "via/nic.hpp"

namespace via {

/// Memory-registration cache: VIA registration pins pages through the
/// kernel, which costs tens of microseconds — far too much to pay per
/// operation. Long-lived communication layers (the DAFS client, the MPI
/// rendezvous path) therefore cache registrations keyed by address range and
/// evict LRU. Not thread-safe; owned by a single endpoint like the
/// structures around it.
class RegCache {
 public:
  /// `eviction_stat`, when set, names a fabric counter bumped per eviction.
  RegCache(Nic& nic, ProtectionTag tag, std::size_t capacity, bool enabled,
           const char* eviction_stat = nullptr)
      : nic_(nic),
        tag_(tag),
        capacity_(capacity),
        enabled_(enabled),
        eviction_stat_(eviction_stat) {}

  ~RegCache() { clear(); }

  RegCache(const RegCache&) = delete;
  RegCache& operator=(const RegCache&) = delete;

  /// Cached handle covering [buf, buf+len), or kInvalidMemHandle: a lookup
  /// that never registers (a hit counts and refreshes the entry's LRU age).
  MemHandle find(const void* buf, std::size_t len) {
    if (!enabled_) return kInvalidMemHandle;
    const auto base = reinterpret_cast<std::uintptr_t>(buf);
    for (auto& e : entries_) {
      if (base >= e.base && base + len <= e.base + e.len) {
        e.last_use = ++clock_;
        ++hits_;
        return e.handle;
      }
    }
    return kInvalidMemHandle;
  }

  /// Handle covering [buf, buf+len), registered with RDMA read+write access.
  /// When caching is disabled the caller owns releasing via `release`.
  MemHandle get(const void* buf, std::size_t len) {
    if (const MemHandle h = find(buf, len); h != kInvalidMemHandle) return h;
    const MemHandle h = pin(buf, len);
    // A failed registration (resource exhaustion) is the caller's problem;
    // never cache the invalid handle.
    if (h == kInvalidMemHandle || !enabled_) return h;
    if (entries_.size() >= capacity_) {
      auto victim =
          std::min_element(entries_.begin(), entries_.end(),
                           [](const Entry& a, const Entry& b) {
                             return a.last_use < b.last_use;
                           });
      drop(victim->handle);
      entries_.erase(victim);
      ++evictions_;
      if (eviction_stat_ != nullptr) nic_.fabric().stats().add(eviction_stat_);
    }
    entries_.push_back(Entry{reinterpret_cast<std::uintptr_t>(buf), len, h,
                             ++clock_});
    return h;
  }

  /// Register [buf, buf+len) outside the cache (counted as a miss); the
  /// caller releases it with `release`.
  MemHandle pin(const void* buf, std::size_t len) {
    ++misses_;
    MemAttrs attrs;
    attrs.enable_rdma_write = true;
    attrs.enable_rdma_read = true;
    return nic_.register_memory(const_cast<void*>(buf), len, tag_, attrs);
  }

  /// Release a handle from `pin` (or from `get` while caching is disabled).
  void release(MemHandle h) {
    if (h != kInvalidMemHandle) drop(h);
  }

  /// Deregister everything (requires an ActorScope for cost accounting).
  void clear() {
    for (const auto& e : entries_) drop(e.handle);
    entries_.clear();
  }

  bool enabled() const { return enabled_; }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }

 private:
  // Every handle we drop was minted by us, so a deregister failure is a
  // registry bug — surface it in the stats rather than swallowing it.
  void drop(MemHandle h) {
    if (nic_.deregister_memory(h) != Status::kSuccess) {
      nic_.fabric().stats().add("via.dereg_failures");
    }
  }

  struct Entry {
    std::uintptr_t base;
    std::size_t len;
    MemHandle handle;
    std::uint64_t last_use;
  };

  Nic& nic_;
  ProtectionTag tag_;
  std::size_t capacity_;
  bool enabled_;
  const char* eviction_stat_;
  std::vector<Entry> entries_;
  std::uint64_t clock_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace via
