#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "sim/actor.hpp"
#include "sim/cost_model.hpp"
#include "sim/fabric.hpp"
#include "sim/resource.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "sim/wait.hpp"

namespace {

using sim::Actor;
using sim::ActorScope;
using sim::CostKind;
using sim::CostModel;
using sim::Fabric;
using sim::Resource;
using sim::Time;
using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Time helpers
// ---------------------------------------------------------------------------

TEST(SimTime, UsecRoundTrips) {
  EXPECT_EQ(sim::usec(1.0), 1'000u);
  EXPECT_EQ(sim::usec(2.5), 2'500u);
  EXPECT_DOUBLE_EQ(sim::to_usec(1'500), 1.5);
  EXPECT_DOUBLE_EQ(sim::to_msec(2'000'000), 2.0);
}

// ---------------------------------------------------------------------------
// CostModel
// ---------------------------------------------------------------------------

TEST(CostModel, WireTimeMatchesRate) {
  CostModel cm;
  cm.link_mbps = 125.0;
  // 125 MB/s == 125 bytes/us -> 125000 bytes take 1000 us.
  EXPECT_EQ(cm.wire_time(125'000), 1'000'000u);
  EXPECT_EQ(cm.wire_time(0), 0u);
}

TEST(CostModel, CopyTimeMatchesRate) {
  CostModel cm;
  cm.memcpy_mbps = 400.0;
  EXPECT_EQ(cm.copy_time(400'000), 1'000'000u);
}

TEST(CostModel, RegistrationScalesWithPages) {
  CostModel cm;
  const Time one_page = cm.reg_time(1);
  const Time ten_pages = cm.reg_time(10 * cm.page_size);
  EXPECT_EQ(one_page, cm.reg_base + cm.reg_per_page);
  EXPECT_EQ(ten_pages, cm.reg_base + 10 * cm.reg_per_page);
}

TEST(CostModel, PacketCountCeils) {
  CostModel cm;
  cm.mtu = 1024;
  EXPECT_EQ(cm.packets(0), 1u);
  EXPECT_EQ(cm.packets(1), 1u);
  EXPECT_EQ(cm.packets(1024), 1u);
  EXPECT_EQ(cm.packets(1025), 2u);
}

TEST(CostModel, TcpSegmentsCeil) {
  CostModel cm;
  EXPECT_EQ(cm.tcp_segments(1460), 1u);
  EXPECT_EQ(cm.tcp_segments(1461), 2u);
}

// ---------------------------------------------------------------------------
// Resource
// ---------------------------------------------------------------------------

TEST(Resource, BackToBackOccupationsSerialize) {
  Resource r;
  EXPECT_EQ(r.occupy(0, 100), 100u);
  EXPECT_EQ(r.occupy(0, 50), 150u);   // pushed behind the first
  EXPECT_EQ(r.occupy(500, 10), 510u); // idle gap honoured
  EXPECT_EQ(r.total_busy(), 160u);
}

TEST(Resource, OccupyNeverStartsBeforeReady) {
  Resource r;
  const Time done = r.occupy(1'000, 1);
  EXPECT_EQ(done, 1'001u);
}

// Regression: a fast-forwarded actor's reservation must not impose phantom
// queueing on causally-unrelated work. The second occupation is ready during
// an idle window that precedes the first reservation, so it backfills the
// gap instead of landing at t=1'000'100.
TEST(Resource, EarlyReadyOccupationBackfillsIdleGap) {
  Resource r;
  EXPECT_EQ(r.occupy(1'000'000, 100), 1'000'100u);
  EXPECT_EQ(r.occupy(0, 50), 50u);
  // A request that does not fit the remaining gap still serializes after
  // the future reservation — contention is real, only phantom waits go.
  EXPECT_EQ(r.occupy(0, 2'000'000), 3'000'100u);
  EXPECT_EQ(r.total_busy(), 2'000'150u);
}

// ---------------------------------------------------------------------------
// Actor
// ---------------------------------------------------------------------------

TEST(Actor, ChargeAdvancesClockAndAccounts) {
  Fabric f;
  auto n = f.add_node("n0");
  Actor a("a", &f.node(n));
  ActorScope scope(a);
  a.charge(CostKind::kCopy, 500);
  a.charge(CostKind::kProtocol, 300);
  EXPECT_EQ(a.now(), 800u);
  EXPECT_EQ(a.busy()[CostKind::kCopy], 500u);
  EXPECT_EQ(a.busy()[CostKind::kProtocol], 300u);
  EXPECT_EQ(a.busy().total(), 800u);
}

TEST(Actor, SyncToOnlyMovesForward) {
  Fabric f;
  auto n = f.add_node("n0");
  Actor a("a", &f.node(n));
  a.sync_to(1'000);
  EXPECT_EQ(a.now(), 1'000u);
  a.sync_to(500);
  EXPECT_EQ(a.now(), 1'000u);
}

TEST(Actor, CoLocatedActorsContendForCpu) {
  Fabric f;
  auto n = f.add_node("n0");
  Actor a("a", &f.node(n));
  Actor b("b", &f.node(n));
  a.charge(CostKind::kCopy, 1'000);
  b.charge(CostKind::kCopy, 1'000);
  // b's charge was pushed behind a's on the shared CPU.
  EXPECT_EQ(b.now(), 2'000u);
}

TEST(Actor, CurrentFollowsScopeNesting) {
  Fabric f;
  auto n = f.add_node("n0");
  Actor a("a", &f.node(n));
  Actor b("b", &f.node(n));
  EXPECT_EQ(Actor::current(), nullptr);
  {
    ActorScope sa(a);
    EXPECT_EQ(Actor::current(), &a);
    {
      ActorScope sb(b);
      EXPECT_EQ(Actor::current(), &b);
    }
    EXPECT_EQ(Actor::current(), &a);
  }
  EXPECT_EQ(Actor::current(), nullptr);
}

TEST(ActorPool, LendsTheEarliestIdleActorTiesToTheFirstAdded) {
  Fabric f;
  auto n = f.add_node("n0");
  Actor a("a", &f.node(n));
  Actor b("b", &f.node(n));
  Actor c("c", &f.node(n));
  a.advance(5'000);
  b.advance(2'000);
  c.advance(2'000);
  sim::ActorPool pool;
  pool.add(a);
  pool.add(b);
  pool.add(c);
  {
    sim::ActorPool::Lease first(pool);
    EXPECT_EQ(&first.actor(), &b);  // earliest; b was added before c
    EXPECT_EQ(Actor::current(), &b);
    {
      sim::ActorPool::Lease second(pool);
      EXPECT_EQ(&second.actor(), &c);  // b is lent out
      sim::ActorPool::Lease third(pool);
      EXPECT_EQ(&third.actor(), &a);
      EXPECT_EQ(Actor::current(), &a);
    }
    EXPECT_EQ(Actor::current(), &b);
    b.advance(10'000);  // b comes back later than a and c
  }
  EXPECT_EQ(Actor::current(), nullptr);
  sim::ActorPool::Lease next(pool);
  EXPECT_EQ(&next.actor(), &c);
}

// ---------------------------------------------------------------------------
// Waits (sim::Deadline, sim::CondVar, sim::sleep)
// ---------------------------------------------------------------------------

TEST(Wait, NotifiedWaitReturnsTrueBeforeItsDeadline) {
  std::mutex mu;
  sim::CondVar cv;
  bool ready = false;
  std::thread notifier([&] {
    std::this_thread::sleep_for(10ms);
    {
      std::lock_guard lock(mu);
      ready = true;
    }
    cv.notify_all();
  });
  const sim::Deadline until = sim::Deadline::host(10s);
  std::unique_lock lock(mu);
  EXPECT_TRUE(cv.wait(lock, until, [&] { return ready; }));
  EXPECT_FALSE(until.passed());
  lock.unlock();
  notifier.join();
}

TEST(Wait, UnnotifiedWaitReturnsFalseOnceItsDeadlineHasPassed) {
  EXPECT_TRUE(sim::Deadline{}.passed());  // the default has passed already
  std::mutex mu;
  sim::CondVar cv;
  std::unique_lock lock(mu);
  const auto t0 = Clock::now();
  const sim::Deadline until = sim::Deadline::modeled(20 * sim::kMsec);
  EXPECT_FALSE(cv.wait(lock, until, [] { return false; }));
  EXPECT_GE(Clock::now() - t0, 20ms);
  EXPECT_TRUE(until.passed());
  EXPECT_FALSE(cv.wait(lock, sim::Deadline::host(20ms)));
  EXPECT_GE(Clock::now() - t0, 40ms);
}

TEST(Wait, NeverWaitWakesOnlyOnANotify) {
  std::mutex mu;
  sim::CondVar cv;
  bool ready = false;
  const auto t0 = Clock::now();
  std::thread notifier([&] {
    std::this_thread::sleep_for(50ms);
    {
      std::lock_guard lock(mu);
      ready = true;
    }
    cv.notify_one();
  });
  std::unique_lock lock(mu);
  EXPECT_TRUE(cv.wait(lock, sim::Deadline::never(), [&] { return ready; }));
  EXPECT_TRUE(ready);
  EXPECT_GE(Clock::now() - t0, 50ms);
  EXPECT_FALSE(sim::Deadline::never().passed());
  lock.unlock();
  notifier.join();
}

TEST(Wait, SleepReturnsNoEarlierThanItsDeadline) {
  const auto t0 = Clock::now();
  const sim::Deadline host = sim::Deadline::host(20ms);
  sim::sleep(host);
  EXPECT_TRUE(host.passed());
  EXPECT_GE(Clock::now() - t0, 20ms);
  const sim::Deadline modeled = sim::Deadline::modeled(5 * sim::kMsec);
  sim::sleep(modeled);
  EXPECT_TRUE(modeled.passed());
}

TEST(FaultPlan, TimedPartitionHealsAfterItsDeadline) {
  Fabric f;
  const auto a = f.add_node("a");
  const auto b = f.add_node("b");
  sim::FaultPlan& plan = f.faults();
  const auto t0 = Clock::now();
  plan.partition_nodes(a, b, 20);
  const auto t1 = Clock::now();  // the heal is due 20 ms after [t0, t1]
  const bool cut = plan.partitioned(b, a);
  // Partitioned until 20 ms have passed (a stall past that may see it heal).
  EXPECT_TRUE(cut || Clock::now() - t0 >= 20ms);
  std::this_thread::sleep_until(t1 + 20ms);
  EXPECT_FALSE(plan.partitioned(a, b));
  EXPECT_FALSE(plan.armed());
}

// ---------------------------------------------------------------------------
// Fabric transfer timing
// ---------------------------------------------------------------------------

TEST(Fabric, SingleSmallMessageLatency) {
  CostModel cm;
  Fabric f(cm);
  auto a = f.add_node("a");
  auto b = f.add_node("b");
  const std::uint64_t bytes = 64;
  const Time arrival = f.transfer(a, b, bytes, 0);
  EXPECT_EQ(arrival, cm.propagation + cm.wire_time(bytes) + cm.per_packet);
}

TEST(Fabric, LargeMessagePipelinesAcrossPackets) {
  CostModel cm;
  Fabric f(cm);
  auto a = f.add_node("a");
  auto b = f.add_node("b");
  const std::uint64_t bytes = 4ull * cm.mtu;
  const Time arrival = f.transfer(a, b, bytes, 0);
  // Pipelined: total ~= serialization of all packets + one propagation.
  const Time ser = cm.wire_time(bytes) + 4 * cm.per_packet;
  EXPECT_EQ(arrival, ser + cm.propagation);
}

TEST(Fabric, LoopbackIsFree) {
  Fabric f;
  auto a = f.add_node("a");
  EXPECT_EQ(f.transfer(a, a, 1 << 20, 42), 42u);
}

TEST(Fabric, TwoSendersSaturateReceiverIngress) {
  CostModel cm;
  Fabric f(cm);
  auto a = f.add_node("a");
  auto b = f.add_node("b");
  auto dst = f.add_node("dst");
  const std::uint64_t bytes = cm.mtu;
  const Time t1 = f.transfer(a, dst, bytes, 0);
  const Time t2 = f.transfer(b, dst, bytes, 0);
  // Second flow serializes behind the first on dst's ingress.
  EXPECT_GE(t2, t1 + cm.wire_time(bytes));
}

TEST(Fabric, BandwidthApproachesLinkRateForLargeTransfers) {
  CostModel cm;
  Fabric f(cm);
  auto a = f.add_node("a");
  auto b = f.add_node("b");
  const std::uint64_t bytes = 8 << 20;
  const Time arrival = f.transfer(a, b, bytes, 0);
  const double mbps = static_cast<double>(bytes) * 1'000.0 /
                      static_cast<double>(arrival);
  EXPECT_GT(mbps, cm.link_mbps * 0.9);
  EXPECT_LE(mbps, cm.link_mbps * 1.01);
}

TEST(Fabric, NameServiceBindLookupUnbind) {
  Fabric f;
  int x = 0;
  f.bind("svc", &x);
  EXPECT_EQ(f.lookup("svc"), &x);
  f.unbind("svc");
  EXPECT_EQ(f.lookup("svc"), nullptr);
  EXPECT_EQ(f.lookup("nope"), nullptr);
}

TEST(Fabric, StatsCountPacketsAndBytes) {
  CostModel cm;
  Fabric f(cm);
  auto a = f.add_node("a");
  auto b = f.add_node("b");
  f.transfer(a, b, 3 * cm.mtu, 0);
  EXPECT_EQ(f.stats().get("fabric.packets"), 3u);
  EXPECT_EQ(f.stats().get("fabric.bytes"), 3ull * cm.mtu);
}

// ---------------------------------------------------------------------------
// Property-style sweeps
// ---------------------------------------------------------------------------

class TransferMonotonicity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TransferMonotonicity, ArrivalGrowsWithSize) {
  CostModel cm;
  Fabric f(cm);
  auto a = f.add_node("a");
  auto b = f.add_node("b");
  const std::uint64_t bytes = GetParam();
  Fabric f2(cm);
  auto a2 = f2.add_node("a");
  auto b2 = f2.add_node("b");
  const Time small = f.transfer(a, b, bytes, 0);
  const Time bigger = f2.transfer(a2, b2, bytes * 2, 0);
  EXPECT_LT(small, bigger);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TransferMonotonicity,
                         ::testing::Values(64, 1024, 32 * 1024, 256 * 1024,
                                           1 << 20));

TEST(ResourceProperty, RandomOccupationsNeverOverlap) {
  sim::Rng rng(7);
  Resource r;
  std::vector<std::pair<Time, Time>> granted;  // [start, end)
  Time total = 0;
  for (int i = 0; i < 1000; ++i) {
    const Time ready = rng.below(10'000);
    const Time dur = 1 + rng.below(100);
    const Time end = r.occupy(ready, dur);
    EXPECT_GE(end, ready + dur);
    granted.emplace_back(end - dur, end);
    total += dur;
  }
  // The resource is serially reusable: no two granted occupations may
  // overlap, regardless of the (gap-filling) placement order.
  std::sort(granted.begin(), granted.end());
  for (std::size_t i = 1; i < granted.size(); ++i) {
    EXPECT_LE(granted[i - 1].second, granted[i].first);
  }
  EXPECT_EQ(r.total_busy(), total);
}

TEST(ResourceProperty, ConcurrentOccupationsConserveBusyTime) {
  Resource r;
  constexpr int kThreads = 4;
  constexpr int kOps = 500;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&r] {
      for (int i = 0; i < kOps; ++i) r.occupy(0, 10);
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(r.total_busy(), static_cast<Time>(kThreads) * kOps * 10);
  EXPECT_EQ(r.busy_until(), static_cast<Time>(kThreads) * kOps * 10);
}

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

TEST(Histogram, BucketBoundaries) {
  using sim::Histogram;
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(7), 3u);
  EXPECT_EQ(Histogram::bucket_of(8), 4u);
  EXPECT_EQ(Histogram::bucket_of(~std::uint64_t{0}), Histogram::kBuckets - 1);
  // Buckets tile the value range: [lo, hi) maps back to the bucket and
  // adjacent buckets share an edge.
  for (std::size_t b = 1; b + 1 < Histogram::kBuckets; ++b) {
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_lo(b)), b) << b;
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_hi(b) - 1), b) << b;
    EXPECT_EQ(Histogram::bucket_lo(b + 1), Histogram::bucket_hi(b)) << b;
  }
}

TEST(Histogram, QuantilesTrackBulkAndTail) {
  sim::Histogram h;
  for (int i = 0; i < 100; ++i) h.record(10);
  h.record(1'000'000);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 101u);
  EXPECT_EQ(s.sum, 100u * 10 + 1'000'000u);
  EXPECT_EQ(s.min, 10u);
  EXPECT_EQ(s.max, 1'000'000u);
  EXPECT_NEAR(s.mean(), (100.0 * 10 + 1e6) / 101.0, 1e-6);
  // p50/p95 fall in the bucket of 10 ([8,16)); the outlier only moves the
  // extreme quantiles. Log-bucketed, so exact within a factor of two.
  EXPECT_GE(s.p50(), 10u);
  EXPECT_LT(s.p50(), 16u);
  EXPECT_GE(s.p95(), 10u);
  EXPECT_LT(s.p95(), 16u);
  EXPECT_EQ(s.quantile(1.0), 1'000'000u);  // clamped to observed max
  EXPECT_LT(s.quantile(0.0), 16u);         // first sample's bucket
}

TEST(Histogram, ZeroValuesAndEmptySnapshot) {
  sim::Histogram h;
  const auto empty = h.snapshot();
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.quantile(0.5), 0u);
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
  h.record(0);
  h.record(0);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 2u);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, 0u);
  EXPECT_EQ(s.p95(), 0u);
}

TEST(Histogram, SnapshotIsStableAndResetClears) {
  sim::Histogram h;
  h.record(5);
  const auto before = h.snapshot();
  h.record(500);  // must not alter the earlier snapshot
  EXPECT_EQ(before.count, 1u);
  EXPECT_EQ(before.max, 5u);
  h.reset();
  const auto after = h.snapshot();
  EXPECT_EQ(after.count, 0u);
  EXPECT_EQ(after.sum, 0u);
  EXPECT_EQ(after.max, 0u);
}

TEST(HistogramRegistry, NamedAccessAndSnapshotAll) {
  sim::HistogramRegistry reg;
  sim::Histogram& a = reg.get("via.send_latency_ns");
  EXPECT_EQ(&a, &reg.get("via.send_latency_ns"));  // stable identity
  reg.record("via.send_latency_ns", 100);
  reg.record("dafs.rtt_ns.read_direct", 2000);
  reg.get("empty.untouched");  // registered but empty -> omitted below
  const auto all = reg.snapshot_all();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all.at("via.send_latency_ns").count, 1u);
  EXPECT_EQ(all.at("dafs.rtt_ns.read_direct").sum, 2000u);
  EXPECT_EQ(all.count("empty.untouched"), 0u);
  reg.reset();
  EXPECT_TRUE(reg.snapshot_all().empty());
}

TEST(HistogramRegistry, LivesInTheFabric) {
  Fabric f;
  f.histograms().record("layer.key_ns", 42);
  const auto all = f.histograms().snapshot_all();
  ASSERT_EQ(all.count("layer.key_ns"), 1u);
  EXPECT_EQ(all.at("layer.key_ns").count, 1u);
}

}  // namespace
