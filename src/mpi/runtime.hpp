#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "mpi/datatype.hpp"
#include "sim/actor.hpp"
#include "sim/fabric.hpp"

/// \file runtime.hpp
/// The MPI substrate: ranks are threads, each with its own node, NIC and
/// virtual-time actor; point-to-point messaging runs over VIA with an
/// MVICH-style eager/rendezvous protocol (eager copies through pre-posted
/// bounce buffers; rendezvous RTS/CTS/FIN with zero-copy RDMA writes that
/// gather straight from the user's registered buffer); collectives are built
/// from point-to-point. A minimal MPI-2 one-sided subset (Win: put, get,
/// fence) maps directly onto VIA RDMA write and read.
namespace mpi {

class World;
class Endpoint;
class Win;

/// Completion information of a receive.
struct RecvStatus {
  int source = -1;
  int tag = -1;
  std::uint64_t bytes = 0;
};

/// Reduction operators for the typed collective helpers.
enum class Op : std::uint8_t { kSum, kMin, kMax };

struct WorldConfig {
  int nprocs = 1;
  /// External fabric shared with file servers; if null the World owns one.
  sim::Fabric* fabric = nullptr;
  /// Node per rank; created as "rank<i>" when empty.
  std::vector<sim::NodeId> nodes;
  /// Payloads at or below this ride eager (copied); above, rendezvous RDMA.
  std::size_t eager_threshold = 16 * 1024;
  /// Pre-posted receive buffers per peer connection.
  std::size_t credits = 32;
  /// Namespace prefix for the rank listeners on the fabric name service.
  std::string name = "mpi";
  /// Registration-cache entries per rank (rendezvous path).
  std::size_t reg_cache_entries = 64;
};

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// A communicator: a view of the world group. Cheap to copy.
class Comm {
 public:
  int rank() const { return my_index_; }
  int size() const { return static_cast<int>(group_.size()); }

  // ---- point to point --------------------------------------------------------
  void send(const void* buf, std::uint64_t count, const Datatype& type,
            int dst, int tag) const;
  RecvStatus recv(void* buf, std::uint64_t count, const Datatype& type,
                  int src, int tag) const;
  /// Combined exchange, deadlock-free for arbitrary patterns (the receive is
  /// posted before the send runs).
  RecvStatus sendrecv(const void* sbuf, std::uint64_t scount,
                      const Datatype& stype, int dst, int stag, void* rbuf,
                      std::uint64_t rcount, const Datatype& rtype, int src,
                      int rtag) const;

  // ---- collectives ------------------------------------------------------------
  void barrier() const;
  void bcast(void* buf, std::uint64_t count, const Datatype& type,
             int root) const;
  /// Concatenate equal-size contributions from all ranks.
  void allgather(const void* sbuf, std::uint64_t bytes, void* rbuf) const;
  /// Varying contributions: recv_counts/displs in bytes.
  void allgatherv(const void* sbuf, std::uint64_t sbytes, void* rbuf,
                  std::span<const std::uint64_t> counts,
                  std::span<const std::uint64_t> displs) const;
  /// Personalized all-to-all with per-peer byte counts.
  void alltoallv(const void* sbuf, std::span<const std::uint64_t> scounts,
                 std::span<const std::uint64_t> sdispls, void* rbuf,
                 std::span<const std::uint64_t> rcounts,
                 std::span<const std::uint64_t> rdispls) const;

  template <typename T>
  void allreduce(std::span<T> inout, Op op) const;
  template <typename T>
  T exscan_sum(T value) const;  // exclusive prefix sum (rank 0 gets 0)

  // ---- communicator management -------------------------------------------------
  Comm dup() const;
  Comm split(int color, int key) const;

  sim::Actor& actor() const;
  World& world() const { return *world_; }
  int id() const { return comm_id_; }
  /// Global (world) rank of communicator rank `r`.
  int global_rank(int r) const { return group_[static_cast<std::size_t>(r)]; }

 private:
  friend class World;
  friend class Win;
  // Context-explicit transfer primitives: collectives run in a context
  // disjoint from user point-to-point traffic (MPI context separation).
  void send_ctx(const void* buf, std::uint64_t count, const Datatype& type,
                int dst, int tag, int ctx) const;
  RecvStatus recv_ctx(void* buf, std::uint64_t count, const Datatype& type,
                      int src, int tag, int ctx) const;
  RecvStatus sendrecv_ctx(const void* sbuf, std::uint64_t scount,
                          const Datatype& stype, int dst, int stag, void* rbuf,
                          std::uint64_t rcount, const Datatype& rtype, int src,
                          int rtag, int ctx) const;

  Comm(World* w, Endpoint* ep, int comm_id, std::vector<int> group,
       int my_index)
      : world_(w),
        ep_(ep),
        comm_id_(comm_id),
        group_(std::move(group)),
        my_index_(my_index) {}

  void reduce_bytes(void* inout, std::uint64_t bytes,
                    const std::function<void(void*, const void*)>& combine,
                    int root) const;
  /// Charge a host copy of `bytes` (a rank's own block inside a collective,
  /// which never crosses the wire) like every other runtime copy.
  void charge_copy(std::uint64_t bytes) const;

  World* world_;
  Endpoint* ep_;
  int comm_id_;
  std::vector<int> group_;  // global ranks, position = comm rank
  int my_index_;
};

/// Owns the rank threads and (optionally) the fabric. `run` executes `fn`
/// on every rank with the world communicator and joins.
class World {
 public:
  explicit World(WorldConfig cfg);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  sim::Fabric& fabric() { return *fabric_; }
  int size() const { return cfg_.nprocs; }
  sim::NodeId node_of(int rank) const {
    return nodes_[static_cast<std::size_t>(rank)];
  }

  void run(const std::function<void(Comm&)>& fn);

  /// Per-rank CPU breakdown of the most recent run.
  const sim::BusyBreakdown& rank_busy(int rank) const;
  /// Per-rank final virtual time of the most recent run.
  sim::Time rank_time(int rank) const;

 private:
  friend class Comm;
  friend class Win;
  WorldConfig cfg_;
  std::unique_ptr<sim::Fabric> owned_fabric_;
  sim::Fabric* fabric_;
  std::vector<sim::NodeId> nodes_;
  std::vector<std::unique_ptr<sim::Actor>> actors_;
  std::vector<sim::BusyBreakdown> busy_;
  std::vector<sim::Time> times_;
  std::atomic<int> next_comm_id_{1};
};

// ---------------------------------------------------------------------------
// One-sided communication (the MPI-2 RMA subset over VIA RDMA)
// ---------------------------------------------------------------------------

/// One transfer of a Win::put / Win::get batch: `len` bytes between local
/// memory `local` and byte displacement `disp` of rank `target`'s window.
struct RmaOp {
  std::byte* local = nullptr;
  std::uint64_t len = 0;
  int target = 0;
  std::uint64_t disp = 0;
};

/// A window (MPI_Win) over a registered buffer, synchronized by fences.
///  * Construction is collective: every rank registers its [base, base +
///    bytes) once (bytes may be 0) and one allgather exchanges each rank's
///    address and memory handle. Nothing is exchanged per transfer.
///  * put / get post one RDMA write / read per op, straight from / into the
///    caller's memory (registered through the rank's registration cache),
///    and reap them all before returning: the initiator's clock ends at the
///    latest completion, the same rule as the rendezvous RDMA write. An op
///    on the caller's own window is a host copy.
///  * fence is collective and closes an epoch. Each rank tells every other
///    the latest virtual instant its puts and gets of the epoch touched that
///    rank's window, and the fence completes at the target no earlier than
///    that: a notification can backfill into an ingress gap ahead of a
///    delayed put, so its own arrival proves nothing. No rank leaves a fence
///    before every rank has entered it, which separates epochs.
/// Destruction is local; fence (or otherwise synchronize) first.
class Win {
 public:
  Win(const Comm& comm, void* base, std::uint64_t bytes);
  ~Win();

  Win(const Win&) = delete;
  Win& operator=(const Win&) = delete;

  void put(std::span<const RmaOp> ops) { transfer(true, ops); }
  void get(std::span<const RmaOp> ops) { transfer(false, ops); }
  void put(const void* origin, std::uint64_t len, int target,
           std::uint64_t disp) {
    const RmaOp op{static_cast<std::byte*>(const_cast<void*>(origin)), len,
                   target, disp};
    transfer(true, {&op, 1});
  }
  void get(void* origin, std::uint64_t len, int target, std::uint64_t disp) {
    const RmaOp op{static_cast<std::byte*>(origin), len, target, disp};
    transfer(false, {&op, 1});
  }
  void fence();

 private:
  struct Target {
    std::uint64_t addr = 0;
    std::uint64_t handle = 0;
    std::uint64_t bytes = 0;
  };

  void transfer(bool put, std::span<const RmaOp> ops);

  Comm comm_;
  std::byte* base_;
  std::uint64_t bytes_;
  std::uint64_t handle_ = 0;  // via::MemHandle; invalid when bytes_ == 0
  int id_ = 0;
  std::uint32_t epoch_ = 0;
  std::vector<Target> targets_;      // per comm rank
  std::vector<sim::Time> touched_;   // per comm rank, this epoch
};

// ---------------------------------------------------------------------------
// Typed collective helpers
// ---------------------------------------------------------------------------

template <typename T>
void Comm::allreduce(std::span<T> inout, Op op) const {
  auto combine = [op](void* a, const void* b) {
    T* x = static_cast<T*>(a);
    const T* y = static_cast<const T*>(b);
    switch (op) {
      case Op::kSum: *x = *x + *y; break;
      case Op::kMin: *x = *y < *x ? *y : *x; break;
      case Op::kMax: *x = *x < *y ? *y : *x; break;
    }
  };
  // Element-wise reduce at rank 0, then broadcast.
  auto combine_all = [&](void* a, const void* b) {
    T* xs = static_cast<T*>(a);
    const T* ys = static_cast<const T*>(b);
    for (std::size_t i = 0; i < inout.size(); ++i) {
      combine(&xs[i], &ys[i]);
    }
  };
  reduce_bytes(inout.data(), inout.size_bytes(), combine_all, 0);
  bcast(inout.data(), inout.size_bytes(), Datatype::byte(), 0);
}

template <typename T>
T Comm::exscan_sum(T value) const {
  // Gather everyone's contribution, sum the prefix locally. O(n) data but
  // trivially correct; n is small in this system.
  std::vector<T> all(static_cast<std::size_t>(size()));
  allgather(&value, sizeof(T), all.data());
  T acc{};
  for (int i = 0; i < rank(); ++i) acc = acc + all[static_cast<std::size_t>(i)];
  return acc;
}

}  // namespace mpi
