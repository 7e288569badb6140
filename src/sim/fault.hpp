#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/node.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "sim/wait.hpp"

namespace sim {

/// Verdict for one fabric transfer, as decided by the FaultPlan.
struct TransferFault {
  bool drop = false;       // message never arrives (reliable VI => conn break)
  bool duplicate = false;  // message delivered twice
  Time delay = 0;          // extra latency before the wire sees it
  bool corrupt = false;    // flip one payload bit at the receiver
  /// Seed for targeting the flipped bit (byte = seed % len, bit = seed>>16
  /// % 8), drawn from the plan's RNG so a seeded schedule reproduces the
  /// exact same damage.
  std::uint64_t corrupt_seed = 0;
};

/// Seeded, deterministic fault injector consulted by the VIA layer, the
/// fabric and the file store. One plan lives on each Fabric (inert until
/// armed), so every layer of a testbed shares a single schedule and a test
/// can reproduce an exact failure interleaving from a seed.
///
/// Arming methods configure *what* goes wrong; the on_* query methods are
/// called from the hot paths and decide, against the seeded RNG and the
/// armed counters, whether this particular event is the one that fails.
/// All methods are thread-safe; the disarmed fast path is one relaxed
/// atomic load.
class FaultPlan {
 public:
  FaultPlan() = default;

  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  /// Re-seed the RNG and clear every armed fault and counter.
  void arm(std::uint64_t seed);
  /// Disarm everything (e.g. for the recovery phase of a test); counters and
  /// seed survive so a later re-arm of probabilities continues the stream.
  void clear();

  // ---- transfer faults (consulted by via::Vi::post_send) ------------------
  void set_drop_prob(double p);
  void set_duplicate_prob(double p);
  void set_delay(double p, Time delay);
  /// Each matching transfer independently has one payload bit flipped at the
  /// receiver with probability `p` (wire corruption the NIC's own CRC missed).
  void set_corrupt_prob(double p);
  /// Deterministic form: corrupt exactly the next `n` matching transfers
  /// that carry a payload, then disarm.
  void corrupt_next_transfers(std::uint64_t n);
  /// Restrict transfer faults to transfers touching `node` (a filer, say),
  /// leaving e.g. MPI rank-to-rank traffic unharmed. kInvalidNode = all.
  void restrict_to_node(NodeId node);
  /// Restrict transfer faults to connections established under this name
  /// service key (via::Nic::connect / Listener service). Empty = all.
  void restrict_to_conn(std::string conn);

  // ---- link partitions ----------------------------------------------------
  /// Sever the link between nodes `a` and `b` symmetrically: every transfer
  /// in either direction is dropped (a reliable VI breaks on first use) and
  /// new connects between the two nodes fail as if no listener existed.
  /// `heal_after_ms` > 0 heals the partition that many modeled milliseconds
  /// after it was installed (a sim::Deadline::modeled timer); 0 keeps it until heal_partition()/clear(). Deterministic: no
  /// RNG involved, so election and split-brain schedules replay from a seed.
  void partition_nodes(NodeId a, NodeId b, std::uint64_t heal_after_ms = 0);
  /// Remove the partition between `a` and `b` (no-op when none exists).
  void heal_partition(NodeId a, NodeId b);
  /// Remove every installed partition.
  void heal_all_partitions();
  /// True while `a` and `b` are partitioned (lazily applies expired heal
  /// deadlines). Consulted by via::Nic::connect and by tests.
  bool partitioned(NodeId a, NodeId b);

  // ---- connection break ---------------------------------------------------
  /// Break the VI connection named `conn` after its Nth successful
  /// completion (counted across both endpoints and, with `repeat`, across
  /// re-established connections every further N completions).
  void break_conn_after(std::string conn, std::uint64_t n, bool repeat = false);

  // ---- resource faults ----------------------------------------------------
  /// Fail the next `n` memory registrations (VIP kErrorResource upstairs).
  void fail_next_registrations(std::uint64_t n);

  // ---- server crash/restart ----------------------------------------------
  /// Kill the (DAFS) server after it has admitted `n` further requests; the
  /// server discards all volatile state (sessions, locks, replay caches,
  /// un-synced file data) and comes back `restart_delay_ms` of modeled time
  /// later on the same node. One-shot; re-arm for repeated crashes.
  void crash_server_after_requests(std::uint64_t n,
                                   std::uint64_t restart_delay_ms);
  /// Kill the server at the first request admitted at or after virtual time
  /// `t` (same restart semantics).
  void crash_server_at(Time t, std::uint64_t restart_delay_ms);
  /// Restrict the armed server crash to the server on `node`. With a
  /// quorum group in one fabric every member consults the same plan; this
  /// pins the kill to one member (say, the leader).
  /// kInvalidNode = any server. Survives until the next arm().
  void restrict_crash_to_node(NodeId node);

  // ---- file-store faults --------------------------------------------------
  /// Fail the next `n` file-store reads outright.
  void fail_next_fstore_reads(std::uint64_t n);
  /// Each file-store pread independently returns a short count with
  /// probability `p` (at least 1 byte, strictly less than requested).
  void set_short_read_prob(double p);
  /// At-rest bit rot: after `skip` further data-write operations, flip one
  /// seeded bit inside the range the next write stored — *after* its block
  /// checksum was recorded, so the damage is silent until a verifying read
  /// or a scrub pass recomputes the checksum. One-shot; re-arm for more.
  void corrupt_fstore_block_after(std::uint64_t skip);

  // ---- queries (layer-facing) --------------------------------------------
  bool armed() const { return armed_.load(std::memory_order_relaxed); }
  TransferFault on_transfer(const std::string& conn, NodeId src, NodeId dst);
  /// True when this successful completion on `conn` trips a scheduled break.
  bool on_conn_completion(const std::string& conn);
  /// True when this memory registration should fail.
  bool on_register();
  /// True when this file-store read should fail outright; otherwise *len may
  /// be clamped below its incoming value (short read). len == nullptr for
  /// paths that cannot shorten (extent lookups).
  bool on_fstore_read(std::uint64_t* len);
  /// Consulted by the file store once per data-write operation, *after* the
  /// write (and its checksum) landed. True when this write's range should be
  /// silently damaged; *flip receives a seed targeting the flipped bit
  /// (byte = seed % len, bit = seed>>16 % 8).
  bool on_fstore_write(std::uint64_t* flip);
  /// Consulted by the server once per admitted request (`now` = the worker's
  /// virtual clock, `node` = the node the server runs on). True when this
  /// request trips a scheduled crash; *restart_delay_ms receives the armed
  /// restart delay.
  bool on_server_request(Time now, NodeId node,
                         std::uint64_t* restart_delay_ms);

 private:
  static constexpr NodeId kAnyNode = ~NodeId{0};

  bool transfer_candidate_locked(const std::string& conn, NodeId src,
                                 NodeId dst) const;
  bool partitioned_locked(NodeId a, NodeId b);
  void recompute_armed_locked();

  mutable std::mutex mu_;
  Rng rng_{0};
  std::atomic<bool> armed_{false};

  double drop_prob_ = 0.0;
  double dup_prob_ = 0.0;
  double delay_prob_ = 0.0;
  Time delay_ = 0;
  NodeId node_filter_ = kAnyNode;
  std::string conn_filter_;

  struct BreakRule {
    std::uint64_t every = 0;  // break after this many completions
    std::uint64_t seen = 0;
    bool repeat = false;
    bool spent = false;
  };
  std::unordered_map<std::string, BreakRule> breaks_;

  std::uint64_t reg_failures_left_ = 0;
  std::uint64_t fstore_read_failures_left_ = 0;
  double short_read_prob_ = 0.0;

  double corrupt_prob_ = 0.0;
  std::uint64_t corrupt_transfers_left_ = 0;
  bool fstore_corrupt_armed_ = false;
  std::uint64_t fstore_corrupt_skip_ = 0;

  struct CrashRule {
    bool armed = false;
    std::uint64_t after_requests = 0;  // 0 = time-triggered
    std::uint64_t seen = 0;
    Time at_time = 0;                  // 0 = request-count-triggered
    std::uint64_t restart_delay_ms = 0;
  };
  CrashRule crash_;
  NodeId crash_node_filter_ = kAnyNode;

  struct Partition {
    NodeId a = 0;  // normalized: a < b
    NodeId b = 0;
    Deadline heal_at = Deadline::never();
  };
  std::vector<Partition> partitions_;
};

}  // namespace sim
