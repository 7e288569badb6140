#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "sim/wait.hpp"
#include "via/descriptor.hpp"
#include "via/types.hpp"

namespace via {

class Vi;

/// One reaped work completion: which VI, which descriptor, which queue.
struct Completion {
  Vi* vi = nullptr;
  Descriptor* desc = nullptr;
  bool is_recv = false;
};

/// A VIA completion queue: multiple VIs' work queues can funnel their
/// completions into one CQ so a server thread can wait on many connections
/// at once (this is how the DAFS server and the MPI progress engine multiplex
/// sessions). Reaping a completion charges the reaper the per-completion cost
/// and synchronizes its virtual clock with the completion instant; reaping a
/// send-side completion also records the doorbell->reap latency into the
/// fabric's "via.doorbell_to_reap_ns" histogram.
///
/// Completions come out in completion order, as a NIC writes them: the next
/// one is the entry with the earliest `desc->done_at` among the entries at
/// the head of their work queue (each VI's send and receive queue stays
/// FIFO), ties going to the earlier push. Senders push in host call order,
/// which is not virtual-time order when their clocks differ.
class CompletionQueue {
 public:
  explicit CompletionQueue(std::size_t depth = 4096) : depth_(depth) {}

  CompletionQueue(const CompletionQueue&) = delete;
  CompletionQueue& operator=(const CompletionQueue&) = delete;

  /// Block until a completion is available or `timeout` (a host watchdog)
  /// expires, then reap it.
  [[nodiscard]] Status wait(Completion& out, std::chrono::milliseconds timeout);

  /// Non-blocking reap; kNotDone when empty.
  [[nodiscard]] Status poll(Completion& out);

  /// wait() in two halves, for a reaper that picks the actor to charge only
  /// once it has a completion in hand (a filer's worker pool): `take` blocks
  /// for the next completion and removes it without charging anyone, and
  /// `reap` then charges and synchronizes the current actor for it.
  [[nodiscard]] Status take(Completion& out, std::chrono::milliseconds timeout);
  void reap(const Completion& c);

  std::size_t pending() const {
    std::lock_guard lock(mu_);
    return size_;
  }

  std::size_t depth() const { return depth_; }

 private:
  friend class Vi;
  void push(const Completion& c);
  bool pop_locked(Completion& out);  // mu_ held; false when empty

  /// One work queue's completions, in the order that queue finished them;
  /// `seq` numbers pushes CQ-wide so completion-time ties go in push order.
  struct Entry {
    Completion c;
    std::uint64_t seq = 0;
  };
  struct Lane {
    Vi* vi = nullptr;
    bool is_recv = false;
    std::deque<Entry> q;
  };

  mutable std::mutex mu_;
  sim::CondVar cv_;
  std::vector<Lane> lanes_;  // only non-empty lanes
  std::size_t size_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t depth_;
};

}  // namespace via
