#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dafs/mount.hpp"
#include "sim/stats.hpp"

namespace mpiio {

/// MPI_Info: string key/value hints. Every hint this implementation honours
/// (the ROMIO collective-buffering and data-sieving keys and the DAFS
/// `dafs_*` keys) parses through mpiio::HintSet below; kHints is the
/// authoritative table.
class Info {
 public:
  Info() = default;

  void set(const std::string& key, const std::string& value) {
    kv_[key] = value;
  }
  void set(const std::string& key, std::uint64_t value) {
    kv_[key] = std::to_string(value);
  }

  std::optional<std::string> get(const std::string& key) const {
    auto it = kv_.find(key);
    if (it == kv_.end()) return std::nullopt;
    return it->second;
  }

  /// Numeric hint. A malformed or overflowing value is an application bug,
  /// not a reason to abort the rank: it counts as a bad hint (see
  /// bad_hints() / the "mpiio.bad_hint" stat) and the fallback applies, the
  /// same as an absent key. Trailing garbage ("64k", "4MB") is malformed —
  /// suffixed sizes are not part of the hint grammar.
  std::uint64_t get_uint(const std::string& key, std::uint64_t fallback) const {
    auto v = get(key);
    if (!v) return fallback;
    std::uint64_t out = 0;
    const char* first = v->data();
    const char* last = first + v->size();
    const auto [ptr, ec] = std::from_chars(first, last, out);
    if (ec != std::errc{} || ptr != last || first == last) {
      note_bad_hint();
      return fallback;
    }
    return out;
  }

  const std::map<std::string, std::string>& all() const { return kv_; }

  /// Hint values that failed to parse so far (monotone; also mirrored into
  /// the bound fabric stats as "mpiio.bad_hint" when a sink is attached).
  std::uint64_t bad_hints() const { return bad_hints_; }

  /// Attach a fabric stats sink so bad-hint events surface in the unified
  /// metrics; File::open binds its copy to the world's fabric.
  void bind_stats(sim::Stats* stats) { stats_ = stats; }

  /// Count one bad hint. Public because HintSet's validators (unknown
  /// `dafs_*` keys, malformed enum values) report through the same channel
  /// the numeric path uses.
  void note_bad_hint() const {
    ++bad_hints_;
    if (stats_ != nullptr) stats_->add("mpiio.bad_hint");
  }

 private:
  std::map<std::string, std::string> kv_;
  mutable std::uint64_t bad_hints_ = 0;
  sim::Stats* stats_ = nullptr;
};

// ---------------------------------------------------------------------------
// HintSet: the single typed parse point for every hint.
// ---------------------------------------------------------------------------

/// Value grammar of a hint; drives per-key validation in HintSet::parse.
enum class HintKind : std::uint8_t {
  kUint,    // base-10 unsigned integer, nothing else (no size suffixes)
  kEnum,    // one of a fixed word set
  kList,    // comma-separated names, whitespace-trimmed, duplicates dropped
  kSwitch,  // ROMIO tri-state: enable | disable | automatic (true | false)
};

struct HintDesc {
  std::string_view key;
  HintKind kind;
  std::string_view doc;
};

/// The authoritative table of every hint this implementation honours —
/// parsing, validation and documentation all come from here. A `dafs_*` key
/// NOT in this table is a bad hint (typo'd hints should be loud, not
/// silently inert), as is any value that fails its kind's grammar; both
/// bump Info::bad_hints() / "mpiio.bad_hint" and fall back as if the key
/// were absent. Other keys not in the table are ignored, as MPI requires.
///
///   key                        kind   meaning
///   -------------------------  -----  ------------------------------------
///   cb_buffer_size             uint   per-aggregator collective buffer in
///                                     bytes: the most one two-phase round
///                                     moves per aggregator (default 4 MiB,
///                                     at least 64 KiB)
///   cb_nodes                   uint   aggregator ranks (default and cap:
///                                     the communicator size; at least 1)
///   romio_cb_read              switch two-phase collective reads (default
///                                     enable)
///   romio_cb_write             switch two-phase collective writes (default
///                                     enable)
///   ind_rd_buffer_size         uint   data-sieving read window (default
///                                     4 MiB, at least 64 KiB)
///   ind_wr_buffer_size         uint   data-sieving write window (default
///                                     512 KiB, at least 64 KiB)
///   romio_ds_read              switch data sieving for noncontiguous
///                                     independent reads (default: on for
///                                     drivers without list I/O)
///   romio_ds_write             switch same for writes (also needs locks)
///   dafs_endpoints             list   filer services; first = metadata /
///                                     preferred filer, rest failover
///   dafs_stripe_size           uint   stripe width in bytes (0 = default,
///                                     64 KiB); also aligns collective
///                                     file domains
///   dafs_stripe_count          uint   K > 1: first K endpoints become the
///                                     data-server stripe set
///   dafs_retry_attempts        uint   reconnect/resume attempts per endpoint
///   dafs_retry_backoff_ns      uint   base of the jittered exponential
///                                     backoff
///   dafs_retry_backoff_cap_ns  uint   backoff cap
///   dafs_retry_jitter_seed     uint   backoff jitter RNG seed
///   dafs_busy_retries          uint   retransmissions of a kBusy-shed
///                                     request
///   dafs_deadline_ms           uint   per-request deadline, ms (0 = none)
///   dafs_integrity             enum   off | wire | full (CRC-32C coverage)
///   dafs_trace_sample          uint   root a trace span every k-th
///                                     operation (0 = never)
///   dafs_consistency           enum   after_write | after_close | after_job
///                                     (client cache consistency level)
///   dafs_cache_bytes           uint   per-open-file client cache budget in
///                                     bytes; 0 = caching (and delegation
///                                     requests) off
///   dafs_attr_ttl_ms           uint   attribute-cache TTL under a
///                                     delegation, ms (0 = always
///                                     revalidate)
inline constexpr HintDesc kHints[] = {
    {"cb_buffer_size", HintKind::kUint, "collective buffer (bytes)"},
    {"cb_nodes", HintKind::kUint, "aggregator count"},
    {"romio_cb_read", HintKind::kSwitch, "collective buffering, reads"},
    {"romio_cb_write", HintKind::kSwitch, "collective buffering, writes"},
    {"ind_rd_buffer_size", HintKind::kUint, "sieving read window (bytes)"},
    {"ind_wr_buffer_size", HintKind::kUint, "sieving write window (bytes)"},
    {"romio_ds_read", HintKind::kSwitch, "data sieving, reads"},
    {"romio_ds_write", HintKind::kSwitch, "data sieving, writes"},
    {"dafs_endpoints", HintKind::kList, "filer service list"},
    {"dafs_stripe_size", HintKind::kUint, "stripe width (bytes)"},
    {"dafs_stripe_count", HintKind::kUint, "data-server count"},
    {"dafs_retry_attempts", HintKind::kUint, "attempts per endpoint"},
    {"dafs_retry_backoff_ns", HintKind::kUint, "backoff base (ns)"},
    {"dafs_retry_backoff_cap_ns", HintKind::kUint, "backoff cap (ns)"},
    {"dafs_retry_jitter_seed", HintKind::kUint, "jitter RNG seed"},
    {"dafs_busy_retries", HintKind::kUint, "kBusy retransmissions"},
    {"dafs_deadline_ms", HintKind::kUint, "request deadline (ms)"},
    {"dafs_integrity", HintKind::kEnum, "off | wire | full"},
    {"dafs_trace_sample", HintKind::kUint, "trace every k-th op"},
    {"dafs_consistency", HintKind::kEnum,
     "after_write | after_close | after_job"},
    {"dafs_cache_bytes", HintKind::kUint, "client cache budget (bytes)"},
    {"dafs_attr_ttl_ms", HintKind::kUint, "attr-cache TTL (ms)"},
};

/// Every hint, parsed once and validated per kHints, exposed as the typed
/// values the layers below consume: the collective-buffering and sieving
/// knobs of the portable layer, and a dafs::RetryPolicy, a
/// dafs::IntegrityMode, a dafs::MountSpec and the dafs::OpenOptions that
/// select the client cache's consistency level. "Absent keeps the base
/// value" holds per key, so a HintSet layered over an existing policy or
/// mount spec only overrides what the application actually set.
class HintSet {
 public:
  /// THE parse point (File::open). Walks every key in `info`: known hints
  /// validate against their kind, unknown `dafs_*` keys and malformed
  /// values both count as bad hints.
  static HintSet parse(const Info& info) {
    HintSet h;
    h.update(info, info);
    return h;
  }

  /// Layer `delta`'s keys over this set (hints passed to set_view or
  /// set_info after open); bad ones count through `sink`, the file's bound
  /// Info. Keys absent from `delta` keep their current value.
  void update(const Info& delta, const Info& sink) {
    for (const auto& [key, value] : delta.all()) {
      if (const HintDesc* d = find_desc(key); d != nullptr) {
        apply(*d, value, sink);
      } else if (key.starts_with("dafs_")) {
        sink.note_bad_hint();
      }
    }
  }

  /// romio_cb_read / romio_cb_write: two-phase collective buffering.
  bool collective_buffering(bool writing) const {
    return (writing ? cb_write_ : cb_read_).value_or(true);
  }
  /// cb_buffer_size: bytes one aggregator moves per two-phase round.
  std::uint64_t cb_buffer_size() const {
    return std::max<std::uint64_t>(cb_buffer_size_.value_or(4u << 20),
                                   64u << 10);
  }
  /// cb_nodes, clamped to [1, nprocs]: ranks 0..cb_nodes-1 aggregate.
  int cb_nodes(int nprocs) const {
    const std::uint64_t n = static_cast<std::uint64_t>(nprocs);
    return static_cast<int>(std::clamp<std::uint64_t>(
        cb_nodes_.value_or(n), 1, n));
  }
  /// romio_ds_read / romio_ds_write; `fallback` is the driver's default.
  bool data_sieving(bool writing, bool fallback) const {
    return (writing ? ds_write_ : ds_read_).value_or(fallback);
  }
  /// ind_rd_buffer_size / ind_wr_buffer_size: the sieving window.
  std::uint64_t sieve_buffer_size(bool writing) const {
    const std::uint64_t v = writing ? ind_wr_buffer_.value_or(512u << 10)
                                    : ind_rd_buffer_.value_or(4u << 20);
    return std::max<std::uint64_t>(v, 64u << 10);
  }

  /// The consolidated retry/deadline policy shared by client
  /// reconnect/failover, the server replication channel and per-request
  /// deadlines. Absent hints keep `base`'s values; in particular an absent
  /// dafs_deadline_ms must not round-trip base.deadline_ns through
  /// milliseconds (a sub-ms deadline would silently truncate to 0 = none).
  dafs::RetryPolicy retry_policy(dafs::RetryPolicy base = {}) const {
    dafs::RetryPolicy p = base;
    if (retry_attempts_) p.attempts = static_cast<int>(*retry_attempts_);
    if (retry_backoff_ns_) p.backoff_ns = *retry_backoff_ns_;
    if (retry_backoff_cap_ns_) p.backoff_cap_ns = *retry_backoff_cap_ns_;
    if (retry_jitter_seed_) p.jitter_seed = *retry_jitter_seed_;
    if (busy_retries_) p.max_busy_retries = static_cast<int>(*busy_retries_);
    if (deadline_ms_) p.deadline_ns = *deadline_ms_ * 1'000'000;
    return p;
  }

  /// dafs_integrity: "off" (default), "wire" (CRC-32C on every data
  /// payload) or "full" (wire + at-rest verification on reads).
  dafs::IntegrityMode integrity_mode(
      dafs::IntegrityMode base = dafs::IntegrityMode::kOff) const {
    return integrity_.value_or(base);
  }

  /// A full mount description. dafs_endpoints (already trimmed/deduped at
  /// parse) replaces `base`'s endpoint list when non-empty; every endpoint
  /// gets retry_policy(). dafs_stripe_count K > 1 carves the first K
  /// endpoints into the data-server list, metadata staying on the first
  /// endpoint (filer 0), Lustre-style.
  dafs::MountSpec mount_spec(dafs::MountSpec base = {}) const {
    dafs::MountSpec m = std::move(base);
    const dafs::RetryPolicy p = retry_policy(
        m.endpoints.empty() ? dafs::RetryPolicy{} : m.endpoints[0].retry);
    if (!endpoints_.empty()) {
      m.endpoints.clear();
      for (const auto& name : endpoints_) {
        m.endpoints.push_back(dafs::Endpoint{name, p});
      }
    }
    if (m.endpoints.empty()) {
      m.endpoints.push_back(dafs::Endpoint{m.client.service, p});
    } else {
      for (auto& e : m.endpoints) e.retry = p;
    }
    m.client.integrity = integrity_mode(m.client.integrity);
    if (stripe_size_) m.stripe_size = *stripe_size_;
    if (m.stripe_size == 0) m.stripe_size = dafs::kDefaultStripeSize;
    const std::uint64_t sc = stripe_count_.value_or(
        static_cast<std::uint64_t>(m.data_endpoints.size()));
    if (sc > 1) {
      const std::size_t k = std::min<std::size_t>(
          static_cast<std::size_t>(sc), m.endpoints.size());
      m.data_endpoints.assign(m.endpoints.begin(), m.endpoints.begin() + k);
      // Metadata (and its failover chain, if any) stays on filer 0.
      m.endpoints.resize(1);
    }
    for (auto& e : m.data_endpoints) e.retry = p;
    return m;
  }

  /// The typed open-path options for dafs::Client::open: consistency level,
  /// cache budget and attribute TTL. `flags` are the kOpen* protocol flags
  /// the caller computed from the access mode.
  dafs::OpenOptions open_options(std::uint16_t flags = 0) const {
    dafs::OpenOptions o;
    o.flags = flags;
    o.consistency = consistency_.value_or(dafs::Consistency::kAfterWrite);
    o.cache_bytes = cache_bytes_.value_or(0);
    o.attr_ttl_ns = attr_ttl_ms_.value_or(0) * 1'000'000;
    return o;
  }

  /// dafs_trace_sample: root spans on every k-th operation (0 = never).
  std::uint64_t trace_sample() const { return trace_sample_.value_or(1); }

  /// dafs_stripe_size with an explicit fallback (the collective layer
  /// passes the driver's own layout width).
  std::uint64_t stripe_size_or(std::uint64_t fallback) const {
    return stripe_size_.value_or(fallback);
  }

  /// True when the application asked for a client cache at all — the open
  /// path only threads OpenOptions to drivers that can use them.
  bool wants_cache() const { return cache_bytes_.value_or(0) > 0; }

 private:
  static const HintDesc* find_desc(std::string_view key) {
    for (const auto& d : kHints) {
      if (d.key == key) return &d;
    }
    return nullptr;
  }

  static std::optional<std::uint64_t> to_uint(std::string_view v) {
    std::uint64_t out = 0;
    const char* first = v.data();
    const char* last = first + v.size();
    const auto [ptr, ec] = std::from_chars(first, last, out);
    if (ec != std::errc{} || ptr != last || first == last) {
      return std::nullopt;
    }
    return out;
  }

  void apply(const HintDesc& d, const std::string& value, const Info& info) {
    switch (d.kind) {
      case HintKind::kUint: {
        const auto u = to_uint(value);
        if (!u) {
          info.note_bad_hint();
          return;
        }
        if (d.key == "cb_buffer_size") cb_buffer_size_ = *u;
        else if (d.key == "cb_nodes") cb_nodes_ = *u;
        else if (d.key == "ind_rd_buffer_size") ind_rd_buffer_ = *u;
        else if (d.key == "ind_wr_buffer_size") ind_wr_buffer_ = *u;
        else if (d.key == "dafs_stripe_size") stripe_size_ = *u;
        else if (d.key == "dafs_stripe_count") stripe_count_ = *u;
        else if (d.key == "dafs_retry_attempts") retry_attempts_ = *u;
        else if (d.key == "dafs_retry_backoff_ns") retry_backoff_ns_ = *u;
        else if (d.key == "dafs_retry_backoff_cap_ns") retry_backoff_cap_ns_ = *u;
        else if (d.key == "dafs_retry_jitter_seed") retry_jitter_seed_ = *u;
        else if (d.key == "dafs_busy_retries") busy_retries_ = *u;
        else if (d.key == "dafs_deadline_ms") deadline_ms_ = *u;
        else if (d.key == "dafs_trace_sample") trace_sample_ = *u;
        else if (d.key == "dafs_cache_bytes") cache_bytes_ = *u;
        else if (d.key == "dafs_attr_ttl_ms") attr_ttl_ms_ = *u;
        return;
      }
      case HintKind::kEnum: {
        if (d.key == "dafs_integrity") {
          if (value == "off") integrity_ = dafs::IntegrityMode::kOff;
          else if (value == "wire") integrity_ = dafs::IntegrityMode::kWire;
          else if (value == "full") integrity_ = dafs::IntegrityMode::kFull;
          else info.note_bad_hint();
        } else {  // dafs_consistency
          if (value == "after_write") {
            consistency_ = dafs::Consistency::kAfterWrite;
          } else if (value == "after_close") {
            consistency_ = dafs::Consistency::kAfterClose;
          } else if (value == "after_job") {
            consistency_ = dafs::Consistency::kAfterJob;
          } else {
            info.note_bad_hint();
          }
        }
        return;
      }
      case HintKind::kSwitch: {
        std::optional<bool> on;  // "automatic": the implementation decides
        if (value == "enable" || value == "true") {
          on = true;
        } else if (value == "disable" || value == "false") {
          on = false;
        } else if (value != "automatic") {
          info.note_bad_hint();
          return;
        }
        if (d.key == "romio_cb_read") cb_read_ = on;
        else if (d.key == "romio_cb_write") cb_write_ = on;
        else if (d.key == "romio_ds_read") ds_read_ = on;
        else if (d.key == "romio_ds_write") ds_write_ = on;
        return;
      }
      case HintKind::kList: {
        // dafs_endpoints: trim surrounding whitespace ("a, b" must not
        // yield an endpoint named " b" that can never resolve) and drop
        // duplicate names. An all-junk list parses to empty = absent.
        endpoints_.clear();
        std::size_t start = 0;
        while (start <= value.size()) {
          std::size_t comma = value.find(',', start);
          if (comma == std::string::npos) comma = value.size();
          std::string name = value.substr(start, comma - start);
          const auto b = name.find_first_not_of(" \t");
          const auto e = name.find_last_not_of(" \t");
          name = b == std::string::npos ? std::string{}
                                        : name.substr(b, e - b + 1);
          const bool dup = std::any_of(
              endpoints_.begin(), endpoints_.end(),
              [&](const std::string& s) { return s == name; });
          if (!name.empty() && !dup) endpoints_.push_back(std::move(name));
          start = comma + 1;
        }
        return;
      }
    }
  }

  std::optional<bool> cb_read_;
  std::optional<bool> cb_write_;
  std::optional<std::uint64_t> cb_buffer_size_;
  std::optional<std::uint64_t> cb_nodes_;
  std::optional<bool> ds_read_;
  std::optional<bool> ds_write_;
  std::optional<std::uint64_t> ind_rd_buffer_;
  std::optional<std::uint64_t> ind_wr_buffer_;
  std::optional<std::uint64_t> retry_attempts_;
  std::optional<std::uint64_t> retry_backoff_ns_;
  std::optional<std::uint64_t> retry_backoff_cap_ns_;
  std::optional<std::uint64_t> retry_jitter_seed_;
  std::optional<std::uint64_t> busy_retries_;
  std::optional<std::uint64_t> deadline_ms_;
  std::optional<dafs::IntegrityMode> integrity_;
  std::vector<std::string> endpoints_;
  std::optional<std::uint64_t> stripe_size_;
  std::optional<std::uint64_t> stripe_count_;
  std::optional<std::uint64_t> trace_sample_;
  std::optional<dafs::Consistency> consistency_;
  std::optional<std::uint64_t> cache_bytes_;
  std::optional<std::uint64_t> attr_ttl_ms_;
};

}  // namespace mpiio
