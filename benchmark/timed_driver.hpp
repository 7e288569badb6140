#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "mpiio/adio.hpp"
#include "sim/actor.hpp"
#include "sim/trace.hpp"

/// \file timed_driver.hpp
/// Layer timing measured from outside the library: an AdioDriver decorator
/// that sits between mpiio::File and the DAFS driver and charges every call
/// to a per-method table in modeled (virtual) time. It adds no modeled cost
/// of its own, so wrapping a driver must leave every end-to-end number
/// unchanged (run.py --self-check verifies this).
namespace bench {

/// The DAFS client entry points the benchmark times, whether reached through
/// the decorator (data workloads) or called directly on dafs::Client
/// (mdtest). kOther times every other forwarded call, so File time minus
/// driver time never counts a driver call as MPI-IO work.
enum class Method : std::size_t {
  kPread,
  kPwrite,
  kReadList,
  kWriteList,
  kOpen,
  kClose,
  kGetattr,
  kRemove,
  kSize,
  kOther,
  kCount,
};

inline constexpr std::size_t kMethods = static_cast<std::size_t>(Method::kCount);

constexpr const char* to_string(Method m) {
  switch (m) {
    case Method::kPread: return "pread";
    case Method::kPwrite: return "pwrite";
    case Method::kReadList: return "read_list";
    case Method::kWriteList: return "write_list";
    case Method::kOpen: return "open";
    case Method::kClose: return "close";
    case Method::kGetattr: return "getattr";
    case Method::kRemove: return "remove";
    case Method::kSize: return "size";
    case Method::kOther: return "other";
    case Method::kCount: break;
  }
  return "?";
}

/// Count, failures, modeled busy time and every duration of one method.
struct CallStats {
  std::uint64_t calls = 0;
  std::uint64_t failed = 0;
  sim::Time busy = 0;
  std::vector<sim::Time> samples;

  void add(sim::Time d, bool ok) {
    ++calls;
    if (!ok) ++failed;
    busy += d;
    samples.push_back(d);
  }
  void merge(const CallStats& o) {
    calls += o.calls;
    failed += o.failed;
    busy += o.busy;
    samples.insert(samples.end(), o.samples.begin(), o.samples.end());
  }
};

using CallTable = std::array<CallStats, kMethods>;

/// This thread's virtual clock (0 outside an ActorScope).
inline sim::Time actor_now() {
  sim::Actor* a = sim::Actor::current();
  return a != nullptr ? a->now() : 0;
}

/// Times one call on the calling rank's virtual clock and, when a trace is
/// open on this thread and `span_layer` is set, records it as a span of that
/// layer — for the decorator a "bench.adio" child of the mpiio root and the
/// parent of the dafs.client request spans the call issues.
class CallTimer {
 public:
  CallTimer(CallTable* table, sim::Tracer& tracer, Method m,
            const char* span_layer = "bench.adio")
      : table_(table), m_(m), t0_(actor_now()) {
    if (span_layer != nullptr) span_.emplace(tracer, span_layer, to_string(m));
  }
  ~CallTimer() {
    if (table_ != nullptr) {
      (*table_)[static_cast<std::size_t>(m_)].add(actor_now() - t0_, ok_);
    }
  }
  CallTimer(const CallTimer&) = delete;
  CallTimer& operator=(const CallTimer&) = delete;

  template <typename R>
  R done(R r) {
    ok_ = r.ok();
    return r;
  }
  mpiio::Err done(mpiio::Err e) {
    ok_ = e == mpiio::Err::kOk;
    return e;
  }

 private:
  CallTable* table_;
  Method m_;
  sim::Time t0_;
  bool ok_ = true;
  std::optional<sim::SpanScope> span_;
};

/// Forwards every AdioDriver virtual to the wrapped driver — including
/// name() (File enables list I/O instead of sieving for "dafs"),
/// stripe_size() (two-phase domains align to stripes), set_open_options()
/// and set_deadline() — so the collective and independent paths take the
/// same decisions as with the bare driver. Records into `table` only while
/// it is non-null (the harness arms it for the timed phases).
class TimedDriver final : public mpiio::AdioDriver {
 public:
  TimedDriver(std::unique_ptr<mpiio::AdioDriver> inner, sim::Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  void arm(CallTable* table) { table_ = table; }

  mpiio::Err open(const std::string& path, std::uint16_t flags) override {
    CallTimer t(table_, tracer_, Method::kOpen);
    return t.done(inner_->open(path, flags));
  }
  mpiio::Err close() override {
    CallTimer t(table_, tracer_, Method::kClose);
    return t.done(inner_->close());
  }
  mpiio::Err remove(const std::string& path) override {
    CallTimer t(table_, tracer_, Method::kRemove);
    return t.done(inner_->remove(path));
  }
  mpiio::Result<std::uint64_t> pread(std::uint64_t off,
                                     std::span<std::byte> out) override {
    CallTimer t(table_, tracer_, Method::kPread);
    return t.done(inner_->pread(off, out));
  }
  mpiio::Result<std::uint64_t> pwrite(std::uint64_t off,
                                      std::span<const std::byte> in) override {
    CallTimer t(table_, tracer_, Method::kPwrite);
    return t.done(inner_->pwrite(off, in));
  }
  mpiio::Result<std::uint64_t> read_list(
      std::span<const mpiio::IoSeg> segs) override {
    CallTimer t(table_, tracer_, Method::kReadList);
    return t.done(inner_->read_list(segs));
  }
  mpiio::Result<std::uint64_t> write_list(
      std::span<const mpiio::IoSeg> segs) override {
    CallTimer t(table_, tracer_, Method::kWriteList);
    return t.done(inner_->write_list(segs));
  }
  mpiio::Result<mpiio::AioHandle> submit_pread(
      std::uint64_t off, std::span<std::byte> out) override {
    CallTimer t(table_, tracer_, Method::kOther);
    return t.done(inner_->submit_pread(off, out));
  }
  mpiio::Result<mpiio::AioHandle> submit_pwrite(
      std::uint64_t off, std::span<const std::byte> in) override {
    CallTimer t(table_, tracer_, Method::kOther);
    return t.done(inner_->submit_pwrite(off, in));
  }
  mpiio::Err aio_wait(mpiio::AioHandle h, std::uint64_t* bytes) override {
    CallTimer t(table_, tracer_, Method::kOther);
    return t.done(inner_->aio_wait(h, bytes));
  }
  mpiio::Result<std::uint64_t> size() override {
    CallTimer t(table_, tracer_, Method::kSize);
    return t.done(inner_->size());
  }
  mpiio::Err set_size(std::uint64_t size) override {
    CallTimer t(table_, tracer_, Method::kOther);
    return t.done(inner_->set_size(size));
  }
  mpiio::Err sync() override {
    CallTimer t(table_, tracer_, Method::kOther);
    return t.done(inner_->sync());
  }
  mpiio::Err lock(std::uint64_t off, std::uint64_t len,
                  bool exclusive) override {
    CallTimer t(table_, tracer_, Method::kOther);
    return t.done(inner_->lock(off, len, exclusive));
  }
  mpiio::Err unlock(std::uint64_t off, std::uint64_t len) override {
    CallTimer t(table_, tracer_, Method::kOther);
    return t.done(inner_->unlock(off, len));
  }
  bool supports_locks() const override { return inner_->supports_locks(); }
  mpiio::Result<std::uint64_t> counter_fetch_add(const std::string& key,
                                                 std::uint64_t delta) override {
    CallTimer t(table_, tracer_, Method::kOther);
    return t.done(inner_->counter_fetch_add(key, delta));
  }
  mpiio::Err counter_set(const std::string& key, std::uint64_t value) override {
    CallTimer t(table_, tracer_, Method::kOther);
    return t.done(inner_->counter_set(key, value));
  }
  bool supports_counters() const override {
    return inner_->supports_counters();
  }
  void set_deadline(std::uint64_t ns) override { inner_->set_deadline(ns); }
  void set_open_options(const dafs::OpenOptions& opts) override {
    inner_->set_open_options(opts);
  }
  std::uint64_t stripe_size() const override { return inner_->stripe_size(); }
  const char* name() const override { return inner_->name(); }

 private:
  std::unique_ptr<mpiio::AdioDriver> inner_;
  sim::Tracer& tracer_;
  CallTable* table_ = nullptr;
};

}  // namespace bench
