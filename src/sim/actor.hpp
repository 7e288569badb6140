#pragma once

#include <array>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

#include "sim/node.hpp"
#include "sim/time.hpp"

namespace sim {

/// Category a CPU charge is attributed to. The breakdowns feed the paper's
/// CPU-overhead tables (E5) and the latency-breakdown table (E8).
enum class CostKind : std::size_t {
  kProtocol,      // user-level protocol work (header build/parse, matching)
  kCopy,          // data memcpy
  kKernel,        // syscall + kernel stack processing
  kInterrupt,     // device interrupt handling
  kRegistration,  // memory registration / deregistration
  kDispatch,      // server request dispatch + fs layer
  kChecksum,      // payload and block checksums (CRC-32C)
  kCount,
};

constexpr const char* to_string(CostKind k) {
  switch (k) {
    case CostKind::kProtocol: return "protocol";
    case CostKind::kCopy: return "copy";
    case CostKind::kKernel: return "kernel";
    case CostKind::kInterrupt: return "interrupt";
    case CostKind::kRegistration: return "registration";
    case CostKind::kDispatch: return "dispatch";
    case CostKind::kChecksum: return "checksum";
    default: return "?";
  }
}

/// Per-actor CPU time by category.
struct BusyBreakdown {
  std::array<Time, static_cast<std::size_t>(CostKind::kCount)> by_kind{};

  Time total() const {
    Time t = 0;
    for (Time v : by_kind) t += v;
    return t;
  }
  Time operator[](CostKind k) const {
    return by_kind[static_cast<std::size_t>(k)];
  }
};

/// An Actor is a logical execution context (one MPI rank, one server worker)
/// bound to a Node. It owns a virtual clock; CPU charges occupy the node's
/// CPU resource so that co-located actors contend, and are attributed to a
/// CostKind for the overhead tables.
///
/// The current thread's actor is tracked thread-locally (see ActorScope) so
/// that the VIA/DAFS/MPI layers can keep hardware-shaped APIs without an
/// explicit time parameter on every call.
class Actor {
 public:
  Actor(std::string name, Node* node) : name_(std::move(name)), node_(node) {
    assert(node_ != nullptr);
  }

  Actor(const Actor&) = delete;
  Actor& operator=(const Actor&) = delete;

  const std::string& name() const { return name_; }
  Node& node() const { return *node_; }

  Time now() const { return now_.load(std::memory_order_relaxed); }

  /// Move the clock forward to `t` if it is in this actor's future
  /// (synchronizing with an arriving message or completion).
  void sync_to(Time t) {
    Time cur = now_.load(std::memory_order_relaxed);
    while (t > cur &&
           !now_.compare_exchange_weak(cur, t, std::memory_order_relaxed)) {
    }
  }

  /// Pure waiting: advances the clock without consuming CPU.
  void advance(Time d) { now_.fetch_add(d, std::memory_order_relaxed); }

  /// Consume `d` of CPU attributed to `k`. The charge serializes through the
  /// node's CPU resource, so concurrent actors on one node push each other
  /// out (server CPU saturation). Returns the new local time.
  Time charge(CostKind k, Time d) {
    const Time done = node_->cpu.occupy(now(), d);
    busy_.by_kind[static_cast<std::size_t>(k)] += d;
    sync_to(done);
    return done;
  }

  const BusyBreakdown& busy() const { return busy_; }
  void reset_busy() { busy_ = BusyBreakdown{}; }

  /// Thread-local current actor (set by ActorScope). Never null inside
  /// library code paths that charge time; asserted where required.
  static Actor* current();

 private:
  friend class ActorScope;
  std::string name_;
  Node* node_;
  std::atomic<Time> now_{0};
  BusyBreakdown busy_;
};

/// RAII binder: makes `actor` the current actor on this thread for the scope
/// lifetime. Nestable (restores the previous binding).
class ActorScope {
 public:
  explicit ActorScope(Actor& actor);
  ~ActorScope();

  ActorScope(const ActorScope&) = delete;
  ActorScope& operator=(const ActorScope&) = delete;

 private:
  Actor* prev_;
};

/// Interchangeable actors serving one queue, such as a filer's workers. A
/// thread that picks up work borrows the idle actor whose clock is earliest
/// (ties to the one added first) and returns it when the work is done, so
/// work never waits in virtual time behind an actor that is ahead while
/// another one sat idle.
class ActorPool {
 public:
  void add(Actor& a);

  /// Borrows the earliest idle actor and makes it current on this thread
  /// for the lease's lifetime. At least one actor must be idle.
  class Lease {
   public:
    explicit Lease(ActorPool& pool);
    ~Lease();

    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    Actor& actor() const { return actor_; }

   private:
    ActorPool& pool_;
    Actor& actor_;
    ActorScope scope_;
  };

 private:
  Actor& acquire();
  void release(Actor& a);

  std::mutex mu_;
  std::vector<Actor*> members_;  // in add order
  std::vector<bool> lent_;       // under mu_, parallel to members_
};

}  // namespace sim
