#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dafs/proto.hpp"
#include "sim/rng.hpp"

/// \file mount.hpp
/// The client-facing mount description: which filer endpoints a session may
/// bind to (in failover order) and the one retry/deadline/backoff policy
/// type shared by client recovery, server-to-server replication, and the
/// MPI-IO hint layer (parsed in src/mpiio/info.hpp).
namespace dafs {

/// One consolidated retry policy. Previously these knobs were duplicated
/// across ClientConfig (recovery_*), ServerConfig and ad-hoc `dafs_*` MPI-IO
/// hints; every layer that retries — client reconnect/failover, the
/// replication channel, kBusy backoff — now takes a RetryPolicy.
struct RetryPolicy {
  /// Reconnect/resume attempts against one endpoint before giving up on it
  /// (the session dies once every endpoint's budget is exhausted).
  int attempts = 8;
  /// Base and cap (virtual ns) of the jittered exponential backoff between
  /// attempts.
  std::uint64_t backoff_ns = 100'000;         // 100 us
  std::uint64_t backoff_cap_ns = 10'000'000;  // 10 ms
  /// Seed of the backoff jitter RNG.
  std::uint64_t jitter_seed = 1;
  /// Retransmissions of a kBusy-shed request before surfacing kBusy.
  int max_busy_retries = 64;
  /// Per-request deadline budget (virtual ns) stamped on every request;
  /// 0 = no deadline. For a quorum filer's repl_retry this bounds the
  /// commit-barrier wait instead.
  std::uint64_t deadline_ns = 0;
};

/// The one jittered exponential backoff every DAFS retry waits on. `next()`
/// draws a delay uniformly from [b/2, b] with an RNG the caller owns, then
/// doubles b up to the cap; `reset()` starts over at the base. Units are
/// the caller's (virtual ns on the client, modeled ms or ns that the filer
/// waits out through sim::Deadline::modeled). A single jittered wait of about `b` is `Backoff(b, b).next(rng)`.
class Backoff {
 public:
  Backoff(std::uint64_t base, std::uint64_t cap)
      : base_(base), cap_(cap), b_(base) {}

  std::uint64_t next(sim::Rng& rng) {
    const std::uint64_t delay = b_ / 2 + rng.below(b_ / 2 + 1);
    b_ = std::min(b_ * 2, cap_);
    return delay;
  }
  void reset() { b_ = base_; }

 private:
  std::uint64_t base_;
  std::uint64_t cap_;
  std::uint64_t b_;
};

/// The jitter RNG for one user of a RetryPolicy's `jitter_seed`, salted so
/// that users sharing the seed (endpoint rotations, raft peers, scrubbed
/// blocks) draw different schedules.
inline sim::Rng jitter_rng(std::uint64_t seed, std::uint64_t salt) {
  return sim::Rng(seed ^ (0x9e3779b97f4a7c15ULL * salt));
}

/// How much end-to-end integrity checking a session asks for (the
/// `dafs_integrity` MPI-IO hint; E19 sweeps the overhead).
enum class IntegrityMode : std::uint8_t {
  kOff,   // trust the transport's and store's own guarantees
  kWire,  // CRC-32C on every data payload, verified by the consumer
  kFull,  // kWire + the server re-verifies at-rest block checksums on reads
};

constexpr const char* to_string(IntegrityMode m) {
  switch (m) {
    case IntegrityMode::kOff: return "off";
    case IntegrityMode::kWire: return "wire";
    case IntegrityMode::kFull: return "full";
  }
  return "?";
}

/// Session-local knobs (transport sizing, data-path thresholds, identity).
/// The retry/recovery knobs that used to live here moved to RetryPolicy,
/// carried per-endpoint in MountSpec.
struct ClientConfig {
  /// Default service name when a MountSpec names no endpoints.
  std::string service = "dafs";
  std::size_t msg_buf_size = kMsgBufSize;
  /// Max outstanding requests (== request slots == posted receive buffers).
  /// Must not exceed the server's per-session receive credits.
  std::size_t credits = 8;
  /// Transfers at or above this size use direct (RDMA) I/O; below it, data
  /// rides inline in the message. E3 sweeps this crossover.
  std::size_t direct_threshold = 4096;
  /// Cache memory registrations across operations (E10 ablation flag).
  bool reg_cache = true;
  std::size_t reg_cache_entries = 64;
  /// Split direct-I/O segments so no RDMA descriptor exceeds this.
  std::size_t max_rdma_seg = 2u << 20;
  /// Stable client identity for the server's durable duplicate filter
  /// (exactly-once counters across server restarts). 0 = adopt the first
  /// server-assigned session id, which is unique and never reused.
  std::uint64_t client_id = 0;
  /// End-to-end integrity mode (`dafs_integrity` hint).
  IntegrityMode integrity = IntegrityMode::kOff;
};

/// Client-visible consistency level of an open (`dafs_consistency` hint).
/// Selects when other clients observe this open's writes, and therefore how
/// much the client cache is allowed to do under a delegation:
///   - kAfterWrite: every write is visible at the server when the call
///     returns (write-through). Reads may still be served from cache while a
///     delegation guarantees no other writer; on a conflicting file the
///     cache is off entirely — exactly the pre-cache behavior.
///   - kAfterClose: writes become visible no later than close()/sync()
///     (write-back under a write delegation; dirty extents flush on recall,
///     close, sync or lease expiry).
///   - kAfterJob: writes become visible when the client unmounts (Client
///     destruction) or on explicit sync; close() keeps the cache and the
///     delegation warm for re-opens within the same job.
enum class Consistency : std::uint8_t {
  kAfterWrite = 0,
  kAfterClose = 1,
  kAfterJob = 2,
};

constexpr const char* to_string(Consistency c) {
  switch (c) {
    case Consistency::kAfterWrite: return "after_write";
    case Consistency::kAfterClose: return "after_close";
    case Consistency::kAfterJob: return "after_job";
  }
  return "?";
}

/// Typed open-path options (the redesigned open API): consistency level,
/// cache budget and attribute TTL, threaded from the MPI-IO hint layer
/// (mpiio::HintSet) down to Client::open. Plain `open(path, flags)` is the
/// degenerate case — after_write, no cache.
struct OpenOptions {
  /// kOpen* protocol flags (create/excl/trunc).
  std::uint16_t flags = 0;
  Consistency consistency = Consistency::kAfterWrite;
  /// Per-file data-cache budget in bytes; 0 disables caching (and with it
  /// delegation requests) for this open.
  std::uint64_t cache_bytes = 0;
  /// How long a cached getattr answer may be served without revalidating
  /// (virtual ns; 0 = always revalidate).
  std::uint64_t attr_ttl_ns = 0;
};

/// Sentinel for Endpoint::member on a non-quorum mount.
inline constexpr std::uint32_t kNoMember = 0xFFFFFFFFu;

/// One filer endpoint a session may bind to.
struct Endpoint {
  std::string service = "dafs";
  RetryPolicy retry;
  /// Quorum member index this endpoint serves (kNoMember on plain mounts).
  /// A follower's kNotLeader answer carries the leader's member index, and
  /// recovery jumps straight to the endpoint with that `member` instead of
  /// sweeping the list blind.
  std::uint32_t member = kNoMember;
};

/// Default stripe width of a striped mount (Lustre's historical default is
/// 64 KiB too; E17 sweeps this).
inline constexpr std::uint64_t kDefaultStripeSize = 64 * 1024;

/// What `Client::connect` mounts: an ordered endpoint list for filer 0
/// (first is the preferred filer; later entries are failover targets tried
/// in order when the bound endpoint dies or answers kNotLeader) plus the
/// session-local knobs. An empty endpoint list means one default endpoint at
/// `client.service`.
///
/// When `data_endpoints` is non-empty, file data round-robins across those
/// filers in `stripe_size` units while metadata stays on filer 0, which must
/// also be the first data endpoint. Empty `data_endpoints` means all data
/// lives on filer 0.
struct MountSpec {
  std::vector<Endpoint> endpoints;
  ClientConfig client;
  std::vector<Endpoint> data_endpoints;
  std::uint64_t stripe_size = kDefaultStripeSize;
};

/// A single-endpoint mount (the common non-replicated case).
inline MountSpec single_mount(std::string service, RetryPolicy retry = {},
                              ClientConfig client = {}) {
  MountSpec m;
  m.endpoints.push_back(Endpoint{std::move(service), retry});
  m.client = std::move(client);
  return m;
}

/// A quorum mount over a replication group's client services, in member
/// order: `services[i]` is member `i`'s client-facing service. Every
/// endpoint is tagged with its member index so kNotLeader hints resolve to
/// a direct jump. The initial order is rotated per `preferred` so different
/// clients spread their first probes across the group.
inline MountSpec quorum_mount(std::vector<std::string> services,
                              RetryPolicy retry = {},
                              ClientConfig client = {},
                              std::size_t preferred = 0) {
  MountSpec m;
  const std::size_t n = services.size();
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = (preferred + k) % n;
    Endpoint ep{services[i], retry};
    ep.member = static_cast<std::uint32_t>(i);
    m.endpoints.push_back(std::move(ep));
  }
  m.client = std::move(client);
  return m;
}

/// A striped mount over `services`: the first service is the metadata filer
/// (and data server 0), and file data round-robins across all of them in
/// `stripe_size` units. One service degenerates to a single-filer mount.
inline MountSpec striped_mount(std::vector<std::string> services,
                               std::uint64_t stripe_size = kDefaultStripeSize,
                               RetryPolicy retry = {},
                               ClientConfig client = {}) {
  MountSpec m;
  if (!services.empty()) m.endpoints.push_back(Endpoint{services[0], retry});
  for (auto& s : services) {
    m.data_endpoints.push_back(Endpoint{std::move(s), retry});
  }
  m.stripe_size = stripe_size == 0 ? kDefaultStripeSize : stripe_size;
  m.client = std::move(client);
  return m;
}

}  // namespace dafs
