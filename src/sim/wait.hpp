#pragma once

#include <chrono>
#include <compare>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <utility>

#include "sim/time.hpp"

/// \file wait.hpp
/// The one way code outside src/sim/ blocks, and the only reader of a host
/// clock in src/. Each blocking point names the kind of time it waits for
/// through the Deadline it builds:
///  * `Deadline::modeled(ns)` — a protocol timer: election timeout, leader
///    lease, heartbeat, restart delay, grace window, scrub cadence, retry
///    backoff, commit-barrier and request deadlines, a partition's heal.
///    The duration is virtual time. Until the deterministic scheduler
///    (ROADMAP) lands, it elapses in host time, one host ns per virtual ns.
///  * `Deadline::host(d)` — a watchdog that keeps a bug from hanging a test,
///    or a poll that paces a retry loop: host time, whatever the model says.
///  * `Deadline::never()` — only a notify ends the wait.
namespace sim {

/// An instant at which a wait gives up. A default-constructed Deadline has
/// already passed (a lease never granted, a grace window never opened).
class Deadline {
 public:
  Deadline() = default;

  static Deadline modeled(Time ns) {
    return Deadline(Clock::now() + std::chrono::nanoseconds(ns));
  }
  static Deadline host(std::chrono::nanoseconds d) {
    return Deadline(Clock::now() + d);
  }
  static Deadline never() { return Deadline(Clock::time_point::max()); }

  bool passed() const { return Clock::now() >= at_; }

  friend auto operator<=>(const Deadline&, const Deadline&) = default;

 private:
  friend class CondVar;
  friend void sleep(Deadline until);
  using Clock = std::chrono::steady_clock;

  explicit Deadline(Clock::time_point at) : at_(at) {}
  bool is_never() const { return at_ == Clock::time_point::max(); }

  Clock::time_point at_{};
};

/// A condition variable whose waits end at a Deadline.
class CondVar {
 public:
  /// Block until `pred()` holds (true) or `until` passes (then pred()'s
  /// value). `lock` holds the mutex that guards what pred reads.
  template <typename Pred>
  bool wait(std::unique_lock<std::mutex>& lock, Deadline until, Pred pred) {
    if (until.is_never()) {
      cv_.wait(lock, std::move(pred));
      return true;
    }
    return cv_.wait_until(lock, until.at_, std::move(pred));
  }

  /// Block until notified or `until` passes; false once it has passed. For
  /// a loop that re-checks its own state after every wake, spurious ones
  /// included.
  bool wait(std::unique_lock<std::mutex>& lock, Deadline until) {
    if (until.is_never()) {
      cv_.wait(lock);
      return true;
    }
    return cv_.wait_until(lock, until.at_) == std::cv_status::no_timeout;
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

/// Block the calling thread until `until` passes.
inline void sleep(Deadline until) {
  std::this_thread::sleep_until(until.at_);
}

}  // namespace sim
