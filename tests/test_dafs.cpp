#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include <unistd.h>

#include "dafs/client.hpp"
#include "dafs/lock_table.hpp"
#include "dafs/server.hpp"
#include "dafs/session.hpp"
#include "sim/fault.hpp"
#include "sim/rng.hpp"

namespace {

using dafs::ClientConfig;
using dafs::Fh;
using dafs::IoVec;
using dafs::kOpenCreate;
using dafs::kOpenExcl;
using dafs::kOpenTrunc;
using dafs::LockTable;
using dafs::PStatus;
using dafs::Server;
using dafs::ServerConfig;
using dafs::Session;
using sim::Actor;
using sim::ActorScope;

std::vector<std::byte> pattern(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng.next() & 0xff);
  return out;
}

/// Fabric + server + one client node; sessions created per test.
class DafsTest : public ::testing::Test {
 protected:
  DafsTest()
      : server_node_(fabric_.add_node("filer")),
        client_node_(fabric_.add_node("client")),
        server_(fabric_, server_node_, ServerConfig{}),
        client_nic_(fabric_, client_node_, "client-nic"),
        client_actor_("client", &fabric_.node(client_node_)) {
    server_.start();
  }

  std::unique_ptr<Session> Connect(ClientConfig cfg = {}) {
    ActorScope scope(client_actor_);
    auto r = Session::connect(client_nic_,
                              dafs::MountSpec{{}, std::move(cfg)});
    EXPECT_TRUE(r.ok());
    return r.ok() ? std::move(r.value()) : nullptr;
  }

  sim::Fabric fabric_;
  sim::NodeId server_node_, client_node_;
  Server server_;
  via::Nic client_nic_;
  Actor client_actor_;
};

// ---------------------------------------------------------------------------
// Backoff: the one jittered retry wait
// ---------------------------------------------------------------------------

TEST(Backoff, SeededDrawsStayInWindowAndDoubleToTheCap) {
  sim::Rng rng(42);
  dafs::Backoff backoff(100, 1'000);
  // b runs 100, 200, 400, 800, then sits at the 1'000 cap.
  const std::uint64_t bounds[] = {100, 200, 400, 800, 1'000, 1'000};
  const std::uint64_t pinned[] = {63, 163, 233, 504, 723, 941};
  std::vector<std::uint64_t> draws;
  for (const std::uint64_t b : bounds) {
    const std::uint64_t d = backoff.next(rng);
    EXPECT_GE(d, b / 2);
    EXPECT_LE(d, b);
    draws.push_back(d);
  }
  EXPECT_EQ(draws, std::vector<std::uint64_t>(std::begin(pinned),
                                              std::end(pinned)));
  // reset() starts the schedule over at the base; only the RNG moved on.
  backoff.reset();
  sim::Rng again(42);
  for (const std::uint64_t d : draws) EXPECT_EQ(backoff.next(again), d);
}

TEST(Backoff, ReproducesTheRaftSenderSchedule) {
  // The quorum sender used to wait b + below(b + 1) ms with b = 1, 2, 4, ...
  // capped at 50, back to 1 after every completed exchange. Backoff(2, 100)
  // draws the same [b, 2b] window from the same RNG, draw for draw.
  sim::Rng old_rng = dafs::jitter_rng(7, 3);
  sim::Rng new_rng = dafs::jitter_rng(7, 3);
  std::uint64_t b = 1;
  dafs::Backoff retry(2, 100);
  for (int i = 0; i < 40; ++i) {
    if (i == 25) {  // a completed exchange
      b = 1;
      retry.reset();
    }
    const std::uint64_t old_ms = b + old_rng.below(b + 1);
    b = std::min<std::uint64_t>(b * 2, 50);
    EXPECT_EQ(retry.next(new_rng), old_ms) << "draw " << i;
  }
}

TEST(Backoff, JitterRngSaltsTheSeed) {
  EXPECT_EQ(dafs::jitter_rng(5, 3).next(),
            sim::Rng(5 ^ (0x9e3779b97f4a7c15ULL * 3)).next());
  EXPECT_NE(dafs::jitter_rng(5, 3).next(), dafs::jitter_rng(5, 4).next());
}

// ---------------------------------------------------------------------------
// LockTable unit tests
// ---------------------------------------------------------------------------

TEST(LockTable, SharedLocksCoexistExclusiveConflicts) {
  LockTable t;
  EXPECT_TRUE(t.try_acquire(1, 0, 100, /*owner=*/1, /*exclusive=*/false));
  EXPECT_TRUE(t.try_acquire(1, 50, 100, 2, false));
  EXPECT_FALSE(t.try_acquire(1, 60, 10, 3, true));
  EXPECT_TRUE(t.try_acquire(1, 200, 10, 3, true));
  EXPECT_FALSE(t.try_acquire(1, 205, 10, 4, false));
}

TEST(LockTable, NonOverlappingRangesAreIndependent) {
  LockTable t;
  EXPECT_TRUE(t.try_acquire(1, 0, 100, 1, true));
  EXPECT_TRUE(t.try_acquire(1, 100, 100, 2, true));
  EXPECT_TRUE(t.try_acquire(2, 0, 100, 3, true));  // different file
}

TEST(LockTable, ZeroLengthMeansToEof) {
  LockTable t;
  EXPECT_TRUE(t.try_acquire(1, 1000, 0, 1, true));
  EXPECT_FALSE(t.try_acquire(1, 5000, 10, 2, true));
  EXPECT_TRUE(t.try_acquire(1, 0, 1000, 2, true));  // below the EOF lock
}

TEST(LockTable, ReleaseTrimsPosixStyle) {
  LockTable t;
  EXPECT_TRUE(t.try_acquire(1, 0, 100, 1, true));
  EXPECT_FALSE(t.release(1, 0, 100, 2));  // wrong owner: nothing released
  EXPECT_TRUE(t.release(1, 0, 50, 1));    // partial release trims the range
  EXPECT_TRUE(t.try_acquire(1, 0, 50, 2, true));    // freed prefix reusable
  EXPECT_FALSE(t.try_acquire(1, 50, 50, 2, true));  // tail still held
  EXPECT_TRUE(t.release(1, 50, 50, 1));
  EXPECT_TRUE(t.try_acquire(1, 50, 50, 2, true));
}

TEST(LockTable, ReleaseOwnerDropsEverything) {
  LockTable t;
  EXPECT_TRUE(t.try_acquire(1, 0, 10, 1, true));
  EXPECT_TRUE(t.try_acquire(2, 0, 10, 1, true));
  EXPECT_TRUE(t.try_acquire(3, 0, 10, 2, true));
  t.release_owner(1);
  EXPECT_EQ(t.held(1), 0u);
  EXPECT_EQ(t.held(2), 0u);
  EXPECT_EQ(t.held(3), 1u);
}

TEST(LockTable, OwnerMayStackOwnRanges) {
  LockTable t;
  EXPECT_TRUE(t.try_acquire(1, 0, 100, 1, true));
  EXPECT_TRUE(t.try_acquire(1, 50, 100, 1, true));
}

// ---------------------------------------------------------------------------
// Session / namespace
// ---------------------------------------------------------------------------

TEST_F(DafsTest, ConnectAssignsSession) {
  auto s = Connect();
  ASSERT_NE(s, nullptr);
  EXPECT_NE(s->session_id(), 0u);
  ActorScope scope(client_actor_);
  s.reset();
}

TEST_F(DafsTest, OpenCreateLookup) {
  auto s = Connect();
  ActorScope scope(client_actor_);
  auto fh = s->open("/data.bin", kOpenCreate);
  ASSERT_TRUE(fh.ok());
  EXPECT_TRUE(fh.value().valid());
  // Plain open finds it again.
  auto fh2 = s->open("/data.bin");
  ASSERT_TRUE(fh2.ok());
  EXPECT_EQ(fh2.value().ino, fh.value().ino);
  // Exclusive create now fails.
  auto fh3 = s->open("/data.bin", kOpenCreate | kOpenExcl);
  ASSERT_FALSE(fh3.ok());
  EXPECT_EQ(fh3.error(), PStatus::kExists);
  // Missing file fails.
  auto fh4 = s->open("/nope");
  ASSERT_FALSE(fh4.ok());
  EXPECT_EQ(fh4.error(), PStatus::kNoEnt);
  s.reset();
}

TEST_F(DafsTest, MkdirNestedCreateAndReaddir) {
  auto s = Connect();
  ActorScope scope(client_actor_);
  ASSERT_EQ(s->mkdir("/exp"), PStatus::kOk);
  ASSERT_EQ(s->mkdir("/exp/run1"), PStatus::kOk);
  ASSERT_TRUE(s->open("/exp/run1/out.dat", kOpenCreate).ok());
  ASSERT_TRUE(s->open("/exp/run1/log.txt", kOpenCreate).ok());
  auto ls = s->readdir("/exp/run1");
  ASSERT_TRUE(ls.ok());
  ASSERT_EQ(ls.value().size(), 2u);
  EXPECT_EQ(ls.value()[0].name, "log.txt");
  EXPECT_EQ(ls.value()[1].name, "out.dat");
  s.reset();
}

TEST_F(DafsTest, ReaddirPaginatesLargeDirectories) {
  auto s = Connect();
  ActorScope scope(client_actor_);
  ASSERT_EQ(s->mkdir("/big"), PStatus::kOk);
  constexpr int kFiles = 700;  // overflows one 16 KiB response
  for (int i = 0; i < kFiles; ++i) {
    ASSERT_TRUE(
        s->open("/big/file_" + std::to_string(10000 + i), kOpenCreate).ok());
  }
  auto ls = s->readdir("/big");
  ASSERT_TRUE(ls.ok());
  EXPECT_EQ(ls.value().size(), static_cast<std::size_t>(kFiles));
  s.reset();
}

TEST_F(DafsTest, RemoveRenameGetattr) {
  auto s = Connect();
  ActorScope scope(client_actor_);
  auto fh = s->open("/a", kOpenCreate);
  ASSERT_TRUE(fh.ok());
  auto data = pattern(100, 1);
  ASSERT_TRUE(s->pwrite(fh.value(), 0, data).ok());
  auto attrs = s->getattr(fh.value());
  ASSERT_TRUE(attrs.ok());
  EXPECT_EQ(attrs.value().size, 100u);
  EXPECT_FALSE(attrs.value().is_dir);
  ASSERT_EQ(s->rename("/a", "/b"), PStatus::kOk);
  EXPECT_EQ(s->open("/a").error(), PStatus::kNoEnt);
  ASSERT_TRUE(s->open("/b").ok());
  ASSERT_EQ(s->remove("/b"), PStatus::kOk);
  EXPECT_EQ(s->open("/b").error(), PStatus::kNoEnt);
  s.reset();
}

TEST_F(DafsTest, TruncOnOpenResetsFile) {
  auto s = Connect();
  ActorScope scope(client_actor_);
  auto fh = s->open("/t", kOpenCreate);
  auto data = pattern(1000, 2);
  ASSERT_TRUE(s->pwrite(fh.value(), 0, data).ok());
  auto fh2 = s->open("/t", kOpenTrunc);
  ASSERT_TRUE(fh2.ok());
  EXPECT_EQ(s->getattr(fh2.value()).value().size, 0u);
  s.reset();
}

TEST_F(DafsTest, SetSizeRoundTrips) {
  auto s = Connect();
  ActorScope scope(client_actor_);
  auto fh = s->open("/sz", kOpenCreate);
  ASSERT_EQ(s->set_size(fh.value(), 1 << 20), PStatus::kOk);
  EXPECT_EQ(s->getattr(fh.value()).value().size, 1u << 20);
  s.reset();
}

// ---------------------------------------------------------------------------
// Filer dispatch
// ---------------------------------------------------------------------------

TEST(DafsDispatch, RequestRunsOnTheEarliestFreeWorker) {
  // Two idle workers whose clocks differ: a client 50 ms ahead in virtual
  // time pushes the worker that serves it forward. The next request, from a
  // client that is behind, must run on the other, earlier worker, so the
  // filer books it no phantom queue wait behind the worker that is ahead.
  // Which worker thread wakes for it is up to the host, so the scenario runs
  // on a few fresh filers.
  constexpr std::uint64_t kIdBehind = 9002;
  constexpr sim::Time kAhead = 50'000'000;  // 50 ms
  for (int round = 0; round < 4; ++round) {
    SCOPED_TRACE(round);
    sim::Fabric fabric;
    const sim::NodeId filer = fabric.add_node("filer");
    const sim::NodeId node_a = fabric.add_node("client-ahead");
    const sim::NodeId node_b = fabric.add_node("client-behind");
    ServerConfig scfg;
    scfg.workers = 2;
    Server server(fabric, filer, scfg);
    server.start();
    via::Nic nic_a(fabric, node_a, "nic-ahead");
    via::Nic nic_b(fabric, node_b, "nic-behind");
    Actor ahead("ahead", &fabric.node(node_a));
    Actor behind("behind", &fabric.node(node_b));

    auto connect = [&](Actor& actor, via::Nic& nic, std::uint64_t id) {
      ActorScope scope(actor);
      ClientConfig ccfg;
      ccfg.client_id = id;
      auto r = Session::connect(nic, dafs::single_mount("dafs", {}, ccfg));
      EXPECT_TRUE(r.ok());
      return r.ok() ? std::move(r.value()) : nullptr;
    };
    auto sa = connect(ahead, nic_a, 9001);
    auto sb = connect(behind, nic_b, kIdBehind);
    ASSERT_NE(sa, nullptr);
    ASSERT_NE(sb, nullptr);
    // A worker returns its actor only after its reply is out; give the ones
    // that served the connects time to go idle, so both are free below.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    ahead.advance(kAhead);
    {
      ActorScope scope(ahead);
      ASSERT_TRUE(sa->open("/ahead.bin", kOpenCreate).ok());
    }
    ASSERT_GE(ahead.now(), kAhead);
    const std::uint64_t wait_before =
        server.client_stats()[kIdBehind].queue_wait_ns;
    {
      ActorScope scope(behind);
      ASSERT_TRUE(sb->open("/behind.bin", kOpenCreate).ok());
    }
    // The request waited for its own reap and dispatch charges (about
    // 4.3 us), not for the worker 50 ms ahead.
    EXPECT_LT(server.client_stats()[kIdBehind].queue_wait_ns - wait_before,
              1'000'000u);
    EXPECT_LT(behind.now(), kAhead / 10);

    {
      ActorScope scope(behind);
      sb.reset();
    }
    ActorScope scope(ahead);
    sa.reset();
  }
}

// ---------------------------------------------------------------------------
// Inline vs direct data path
// ---------------------------------------------------------------------------

class DafsIoSweep : public DafsTest,
                    public ::testing::WithParamInterface<std::size_t> {};

TEST_P(DafsIoSweep, WriteReadRoundTrip) {
  auto s = Connect();
  ActorScope scope(client_actor_);
  const std::size_t n = GetParam();
  auto fh = s->open("/io.bin", kOpenCreate);
  ASSERT_TRUE(fh.ok());
  auto data = pattern(n, n);
  auto w = s->pwrite(fh.value(), 0, data);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w.value(), n);
  std::vector<std::byte> back(n, std::byte{0});
  auto r = s->pread(fh.value(), 0, back);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), n);
  EXPECT_EQ(std::memcmp(data.data(), back.data(), n), 0);
  s.reset();
}

// Spans inline (<4K), the threshold boundary, multi-message inline would-be
// sizes, and multi-chunk/multi-packet direct transfers.
INSTANTIATE_TEST_SUITE_P(Sizes, DafsIoSweep,
                         ::testing::Values(1, 100, 4095, 4096, 4097, 16 * 1024,
                                           64 * 1024, 100 * 1000,
                                           1 << 20));

TEST_F(DafsTest, InlinePathUsedBelowThreshold) {
  auto s = Connect();
  ActorScope scope(client_actor_);
  auto fh = s->open("/x", kOpenCreate);
  auto data = pattern(1024, 3);
  ASSERT_TRUE(s->pwrite(fh.value(), 0, data).ok());
  std::vector<std::byte> back(1024);
  ASSERT_TRUE(s->pread(fh.value(), 0, back).ok());
  EXPECT_GT(fabric_.stats().get("dafs.inline_read_bytes"), 0u);
  EXPECT_GT(fabric_.stats().get("dafs.inline_write_bytes"), 0u);
  EXPECT_EQ(fabric_.stats().get("dafs.direct_read_bytes"), 0u);
  EXPECT_EQ(fabric_.stats().get("dafs.direct_write_bytes"), 0u);
  s.reset();
}

TEST_F(DafsTest, DirectPathUsedAboveThresholdWithZeroClientCopies) {
  auto s = Connect();
  ActorScope scope(client_actor_);
  auto fh = s->open("/big", kOpenCreate);
  auto data = pattern(256 * 1024, 4);
  const std::uint64_t copies_before =
      fabric_.stats().get("dafs.client_copy_bytes");
  ASSERT_TRUE(s->pwrite(fh.value(), 0, data).ok());
  std::vector<std::byte> back(256 * 1024);
  ASSERT_TRUE(s->pread(fh.value(), 0, back).ok());
  EXPECT_EQ(std::memcmp(data.data(), back.data(), back.size()), 0);
  // Zero-copy: the client never touched payload bytes.
  EXPECT_EQ(fabric_.stats().get("dafs.client_copy_bytes"), copies_before);
  EXPECT_EQ(fabric_.stats().get("dafs.direct_read_bytes"), 256u * 1024);
  EXPECT_EQ(fabric_.stats().get("dafs.direct_write_bytes"), 256u * 1024);
  EXPECT_GT(fabric_.stats().get("via.rdma_writes"), 0u);
  EXPECT_GT(fabric_.stats().get("via.rdma_reads"), 0u);
  s.reset();
}

TEST_F(DafsTest, ReadPastEofReturnsShort) {
  auto s = Connect();
  ActorScope scope(client_actor_);
  auto fh = s->open("/short", kOpenCreate);
  auto data = pattern(1000, 5);
  ASSERT_TRUE(s->pwrite(fh.value(), 0, data).ok());
  std::vector<std::byte> back(100'000);
  auto r = s->pread(fh.value(), 0, back);  // direct path (>= threshold)
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 1000u);
  std::vector<std::byte> small(64);
  auto r2 = s->pread(fh.value(), 990, small);  // inline path
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value(), 10u);
  auto r3 = s->pread(fh.value(), 5000, small);
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3.value(), 0u);
  s.reset();
}

TEST_F(DafsTest, SparseWriteAtOffsetPreservesHole) {
  auto s = Connect();
  ActorScope scope(client_actor_);
  auto fh = s->open("/sparse", kOpenCreate);
  auto data = pattern(64 * 1024, 6);
  ASSERT_TRUE(s->pwrite(fh.value(), 1 << 20, data).ok());
  EXPECT_EQ(s->getattr(fh.value()).value().size, (1u << 20) + 64 * 1024);
  std::vector<std::byte> hole(4096, std::byte{0xee});
  ASSERT_TRUE(s->pread(fh.value(), 1000, hole).ok());
  for (auto b : hole) ASSERT_EQ(b, std::byte{0});
  s.reset();
}

TEST_F(DafsTest, BatchListIoRoundTrip) {
  auto s = Connect();
  ActorScope scope(client_actor_);
  auto fh = s->open("/batch", kOpenCreate);
  // Strided write: 8 pieces of 8 KiB every 32 KiB.
  auto data = pattern(8 * 8192, 7);
  std::vector<IoVec> iovs;
  for (int i = 0; i < 8; ++i) {
    iovs.push_back(IoVec{static_cast<std::uint64_t>(i) * 32 * 1024,
                         data.data() + i * 8192, 8192});
  }
  auto w = s->write_batch(fh.value(), iovs);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w.value(), data.size());
  // One request on the wire, not eight.
  EXPECT_EQ(fabric_.stats().get("dafs.direct_write_reqs"), 1u);

  std::vector<std::byte> back(data.size(), std::byte{0});
  std::vector<IoVec> riovs;
  for (int i = 0; i < 8; ++i) {
    riovs.push_back(IoVec{static_cast<std::uint64_t>(i) * 32 * 1024,
                          back.data() + i * 8192, 8192});
  }
  auto r = s->read_batch(fh.value(), riovs);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), data.size());
  EXPECT_EQ(std::memcmp(data.data(), back.data(), data.size()), 0);
  s.reset();
}

TEST_F(DafsTest, ListSegmentsPipelineOnTheWire) {
  // 32 x 4 KiB segments, file-adjacent but every other 4 KiB slot in memory
  // (so nothing merges): the filer keeps a window of segments' RDMA in
  // flight, so each segment past the first adds its wire time, not a round
  // trip. The adjacent segments commit as one journal record.
  constexpr std::uint64_t kSeg = 4096;
  constexpr std::size_t kSegs = 32;
  const sim::CostModel cm;
  auto s = Connect();
  ActorScope scope(client_actor_);
  auto fh = s->open("/pipe", kOpenCreate);
  const auto data = pattern(kSeg * kSegs, 14);
  std::vector<std::byte> mem(2 * data.size());
  std::vector<IoVec> iovs;
  for (std::size_t i = 0; i < kSegs; ++i) {
    std::memcpy(mem.data() + 2 * i * kSeg, data.data() + i * kSeg, kSeg);
    iovs.push_back(IoVec{i * kSeg, mem.data() + 2 * i * kSeg, kSeg});
  }
  // Virtual time of a batch, second run (registrations and slabs warm).
  auto elapsed = [&](std::span<const IoVec> v, bool writing) {
    sim::Time t = 0;
    for (int run = 0; run < 2; ++run) {
      const sim::Time t0 = client_actor_.now();
      auto r = writing ? s->write_batch(fh.value(), v)
                       : s->read_batch(fh.value(), v);
      EXPECT_TRUE(r.ok());
      t = client_actor_.now() - t0;
    }
    return t;
  };
  const sim::Time wire = cm.wire_time(kSeg + via::kWireHeaderBytes) +
                         cm.per_packet;
  const std::uint64_t journal0 =
      server_.store().stats().get("fstore.journal_intents");
  const sim::Time w_one = elapsed(std::span(iovs).first(1), true);
  const sim::Time w_all = elapsed(iovs, true);
  EXPECT_EQ(server_.store().stats().get("fstore.journal_intents") - journal0,
            4u)
      << "one record per write_batch";
  // Serial, each extra segment would also pay the RDMA read's round trip:
  // two propagation delays, the request header and two DMA setups.
  EXPECT_LT(w_all - w_one, (kSegs - 1) * (wire + cm.propagation))
      << "write: " << w_one << " ns for one segment, " << w_all << " for "
      << kSegs;
  std::fill(mem.begin(), mem.end(), std::byte{0});
  const sim::Time r_one = elapsed(std::span(iovs).first(1), false);
  const sim::Time r_all = elapsed(iovs, false);
  // Serial, each extra segment would also pay a doorbell, a DMA setup and
  // a completion with the link idle.
  EXPECT_LT(r_all - r_one,
            (kSegs - 1) * (wire + cm.doorbell + cm.dma_setup + cm.completion))
      << "read: " << r_one << " ns for one segment, " << r_all << " for "
      << kSegs;
  for (std::size_t i = 0; i < kSegs; ++i) {
    ASSERT_EQ(std::memcmp(iovs[i].buf, data.data() + i * kSeg, kSeg), 0)
        << "segment " << i;
  }
  s.reset();
}

TEST_F(DafsTest, FarApartSegmentsRegisterOneCachedHullPerCluster) {
  // Two 32 KiB groups of segments 32 MiB apart in one allocation: no compact
  // hull covers both, so the request registers one hull per group through
  // the cache, and the repeat registers nothing.
  constexpr std::uint64_t kSeg = 4096;
  constexpr std::uint64_t kFar = 32ull << 20;
  auto s = Connect();
  ActorScope scope(client_actor_);
  auto fh = s->open("/far", kOpenCreate);
  std::vector<std::byte> mem(kFar + 16 * kSeg);
  std::vector<IoVec> iovs;
  for (std::uint64_t i = 0; i < 16; ++i) {
    const std::uint64_t at = (i % 2) * kFar + (i / 2) * kSeg;
    iovs.push_back(IoVec{i * 3 * kSeg, mem.data() + at, kSeg});
  }
  auto regs = [&] {
    const std::uint64_t r0 = fabric_.stats().get("via.registrations");
    EXPECT_TRUE(s->write_batch(fh.value(), iovs).ok());
    return fabric_.stats().get("via.registrations") - r0;
  };
  // Warm the server's slab cache, whose registrations count too.
  ASSERT_TRUE(s->pwrite(fh.value(), 0, std::vector<std::byte>(64 * kSeg)).ok());
  EXPECT_EQ(regs(), 2u);
  EXPECT_EQ(regs(), 0u);
  EXPECT_EQ(s->reg_cache_misses(), 3u);  // the pwrite's buffer + two hulls
  s.reset();
}

// ---------------------------------------------------------------------------
// Async I/O
// ---------------------------------------------------------------------------

TEST_F(DafsTest, AsyncWritesOverlapAndComplete) {
  auto s = Connect();
  ActorScope scope(client_actor_);
  auto fh = s->open("/async", kOpenCreate);
  constexpr int kOps = 4;
  std::vector<std::vector<std::byte>> bufs;
  std::vector<dafs::OpId> ops;
  for (int i = 0; i < kOps; ++i) {
    bufs.push_back(pattern(64 * 1024, 100 + i));
    auto op = s->submit_pwrite(fh.value(), static_cast<std::uint64_t>(i) * 64 * 1024,
                               bufs.back());
    ASSERT_TRUE(op.ok());
    ops.push_back(op.value());
  }
  ASSERT_EQ(s->wait_all(ops), PStatus::kOk);
  EXPECT_EQ(s->getattr(fh.value()).value().size, kOps * 64u * 1024);
  // Read everything back through one async read per region.
  std::vector<std::vector<std::byte>> back(kOps,
                                           std::vector<std::byte>(64 * 1024));
  std::vector<dafs::OpId> rops;
  for (int i = 0; i < kOps; ++i) {
    auto op = s->submit_pread(fh.value(), static_cast<std::uint64_t>(i) * 64 * 1024,
                              back[i]);
    ASSERT_TRUE(op.ok());
    rops.push_back(op.value());
  }
  ASSERT_EQ(s->wait_all(rops), PStatus::kOk);
  for (int i = 0; i < kOps; ++i) {
    EXPECT_EQ(std::memcmp(bufs[i].data(), back[i].data(), 64 * 1024), 0);
  }
  s.reset();
}

TEST_F(DafsTest, AsyncTestPollsToCompletion) {
  auto s = Connect();
  ActorScope scope(client_actor_);
  auto fh = s->open("/poll", kOpenCreate);
  auto data = pattern(32 * 1024, 9);
  auto op = s->submit_pwrite(fh.value(), 0, data);
  ASSERT_TRUE(op.ok());
  std::uint64_t bytes = 0;
  for (;;) {
    auto done = s->test(op.value(), &bytes);
    ASSERT_TRUE(done.ok());
    if (done.value()) break;
    std::this_thread::yield();
  }
  EXPECT_EQ(bytes, data.size());
  s.reset();
}

/// How an async op is collected: polled with test(), or picked out of a
/// completion group by wait_any() and then collected with wait().
enum class Collect { kTest, kWaitAny };

class DafsFlippedWrite : public DafsTest,
                         public ::testing::WithParamInterface<Collect> {};

TEST_P(DafsFlippedWrite, RetriedLikeWait) {
  ClientConfig cfg;
  cfg.integrity = dafs::IntegrityMode::kWire;
  auto s = Connect(cfg);
  ActorScope scope(client_actor_);
  const Fh fh = s->open("/flip", kOpenCreate).value();
  // One bit flip on the client's next transfer. The plan's first draw after
  // arm() is the corrupt seed and the flipped byte is that seed modulo the
  // wire length, so size the inline payload to land the flip in the data,
  // not the header.
  constexpr std::uint64_t kSeed = 17;
  std::uint64_t cs = sim::Rng(kSeed).next();
  if (cs == 0) cs = 1;
  std::size_t len = 1000;
  while (cs % (sizeof(dafs::MsgHeader) + len) < sizeof(dafs::MsgHeader)) ++len;
  ASSERT_LT(len, cfg.direct_threshold);
  fabric_.faults().arm(kSeed);
  fabric_.faults().restrict_to_node(client_node_);
  fabric_.faults().corrupt_next_transfers(1);
  const auto data = pattern(len, kSeed);
  auto op = s->submit_pwrite(fh, 0, data);
  ASSERT_TRUE(op.ok());
  std::uint64_t bytes = 0;
  if (GetParam() == Collect::kTest) {
    for (;;) {
      auto done = s->test(op.value(), &bytes);
      ASSERT_TRUE(done.ok()) << "status " << static_cast<int>(done.error());
      if (done.value()) break;
      std::this_thread::yield();
    }
  } else {
    const dafs::OpId ops[] = {op.value()};
    auto idx = s->wait_any(ops);
    ASSERT_TRUE(idx.ok());
    EXPECT_EQ(idx.value(), 0u);
    // The op settles only once its retry has gone through.
    ASSERT_GE(fabric_.stats().get("dafs.corrupt_retries"), 1u);
    EXPECT_EQ(s->wait(op.value(), &bytes), PStatus::kOk);
  }
  fabric_.faults().clear();
  EXPECT_EQ(fabric_.stats().get("fault.transfer_corruptions"), 1u);
  EXPECT_GE(fabric_.stats().get("dafs.integrity_server_rejects"), 1u);
  EXPECT_GE(fabric_.stats().get("dafs.corrupt_retries"), 1u);
  EXPECT_EQ(bytes, len);
  std::vector<std::byte> back(len);
  ASSERT_EQ(s->pread(fh, 0, back).value(), len);
  EXPECT_EQ(back, data);
  s.reset();
}

INSTANTIATE_TEST_SUITE_P(
    Collect, DafsFlippedWrite,
    ::testing::Values(Collect::kTest, Collect::kWaitAny),
    [](const ::testing::TestParamInfo<Collect>& info) {
      return info.param == Collect::kTest ? "Test" : "WaitAny";
    });

TEST_F(DafsTest, HolderAsyncInlineWriteKeepsItsDelegation) {
  auto s = Connect();
  ActorScope scope(client_actor_);
  Session::DelegGrant grant;
  auto fh = s->open("/deleg-async",
                    kOpenCreate | dafs::kOpenWantDeleg |
                        dafs::kOpenWantWriteDeleg,
                    &grant);
  ASSERT_TRUE(fh.ok());
  ASSERT_NE(grant.id, 0u);
  ASSERT_TRUE(grant.write);
  // A small async write rides inline, stamped with the holder's delegation
  // like a synchronous pwrite, so the filer does not recall it.
  const auto data = pattern(100, 21);
  auto op = s->submit_pwrite(fh.value(), 0, data);
  ASSERT_TRUE(op.ok());
  std::uint64_t bytes = 0;
  ASSERT_EQ(s->wait(op.value(), &bytes), PStatus::kOk);
  EXPECT_EQ(bytes, data.size());
  EXPECT_EQ(fabric_.stats().get("dafs.cache.recalls"), 0u);
  EXPECT_EQ(fabric_.stats().get("dafs.deleg_conflict_sheds"), 0u);
  EXPECT_EQ(fabric_.stats().get("dafs.busy_retries"), 0u);
  EXPECT_FALSE(s->recall_pending(fh.value().ino));
  // Charged what pwrite charges: the marshalling copy is counted.
  EXPECT_EQ(fabric_.stats().get("dafs.client_copy_bytes"), data.size());
  s.reset();
}

TEST_F(DafsTest, CreditLimitRefusesExcessOutstandingOps) {
  ClientConfig cfg;
  cfg.credits = 2;
  auto s = Connect(cfg);
  ActorScope scope(client_actor_);
  auto fh = s->open("/credits", kOpenCreate);
  auto data = pattern(64 * 1024, 10);
  auto op1 = s->submit_pwrite(fh.value(), 0, data);
  ASSERT_TRUE(op1.ok());
  auto op2 = s->submit_pwrite(fh.value(), 1 << 20, data);
  ASSERT_TRUE(op2.ok());
  auto op3 = s->submit_pwrite(fh.value(), 2 << 20, data);
  ASSERT_FALSE(op3.ok());
  EXPECT_EQ(op3.error(), PStatus::kInval);
  ASSERT_EQ(s->wait(op1.value()), PStatus::kOk);
  ASSERT_EQ(s->wait(op2.value()), PStatus::kOk);
  s.reset();
}

TEST_F(DafsTest, WaitOnAnOpNotInFlightIsInval) {
  auto s = Connect();
  ActorScope scope(client_actor_);
  const Fh fh = s->open("/twice", kOpenCreate).value();
  const auto data = pattern(4 * 1024, 13);
  // A collected op's slot is free again: a second wait must refuse it, not
  // hand the slot out twice.
  auto op = s->submit_pwrite(fh, 0, data);
  ASSERT_TRUE(op.ok());
  ASSERT_EQ(s->wait(op.value()), PStatus::kOk);
  EXPECT_EQ(s->wait(op.value()), PStatus::kInval);
  // test and wait_any answer the same for the collected op and for one
  // never submitted, and do not wait for a response that is not coming. A
  // child under an alarm runs them, so a hang fails in seconds.
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        alarm(30);
        const dafs::OpId collected = op.value();
        const dafs::OpId never = 1000;
        const auto inval = [](const auto& r) {
          return !r.ok() && r.error() == PStatus::kInval;
        };
        const bool ok = inval(s->test(collected)) && inval(s->test(never)) &&
                        inval(s->wait_any(std::span(&collected, 1))) &&
                        inval(s->wait_any(std::span(&never, 1)));
        std::_Exit(ok ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
  auto a = s->submit_pwrite(fh, 0, data);
  auto b = s->submit_pwrite(fh, 0, data);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a.value(), b.value());
  EXPECT_EQ(s->wait(a.value()), PStatus::kOk);
  EXPECT_EQ(s->wait(b.value()), PStatus::kOk);
  s.reset();

  // The Client keeps the same contract over its own op table.
  auto c = std::move(dafs::Client::connect(client_nic_).value());
  const Fh cfh = c->open("/twice").value();
  auto cop = c->submit_pwrite(cfh, 0, data);
  ASSERT_TRUE(cop.ok());
  ASSERT_EQ(c->wait(cop.value()), PStatus::kOk);
  EXPECT_EQ(c->wait(cop.value()), PStatus::kInval);
  EXPECT_EQ(c->wait(cop.value() + 1), PStatus::kInval);  // never submitted
  auto ca = c->submit_pwrite(cfh, 0, data);
  auto cb = c->submit_pwrite(cfh, 0, data);
  ASSERT_TRUE(ca.ok());
  ASSERT_TRUE(cb.ok());
  EXPECT_NE(ca.value(), cb.value());
  EXPECT_EQ(c->wait(ca.value()), PStatus::kOk);
  EXPECT_EQ(c->wait(cb.value()), PStatus::kOk);
  c.reset();
}

TEST_F(DafsTest, ClientSmallAsyncIoRidesInline) {
  ActorScope scope(client_actor_);
  auto c = std::move(dafs::Client::connect(client_nic_).value());
  const Fh fh = c->open("/small-async", kOpenCreate).value();
  auto stat = [&](const char* key) { return fabric_.stats().get(key); };
  const std::uint64_t direct_reads = stat("dafs.direct_read_reqs");
  const std::uint64_t direct_writes = stat("dafs.direct_write_reqs");
  // Below direct_threshold an async request goes inline, as pread and
  // pwrite do.
  const auto data = pattern(2 * 1024, 14);
  auto w = c->submit_pwrite(fh, 0, data);
  ASSERT_TRUE(w.ok());
  ASSERT_EQ(c->wait(w.value()), PStatus::kOk);
  std::vector<std::byte> back(data.size());
  auto r = c->submit_pread(fh, 0, back);
  ASSERT_TRUE(r.ok());
  std::uint64_t got = 0;
  ASSERT_EQ(c->wait(r.value(), &got), PStatus::kOk);
  EXPECT_EQ(got, data.size());
  EXPECT_EQ(back, data);
  EXPECT_EQ(stat("dafs.direct_read_reqs"), direct_reads);
  EXPECT_EQ(stat("dafs.direct_write_reqs"), direct_writes);
  c.reset();
}

// ---------------------------------------------------------------------------
// Locks / counters
// ---------------------------------------------------------------------------

TEST_F(DafsTest, LocksConflictAcrossSessions) {
  auto s1 = Connect();
  auto s2 = Connect();
  ActorScope scope(client_actor_);
  auto fh = s1->open("/locked", kOpenCreate);
  ASSERT_TRUE(fh.ok());
  auto fh2 = s2->open("/locked");
  ASSERT_TRUE(fh2.ok());
  ASSERT_EQ(s1->try_lock(fh.value(), 0, 100, true), PStatus::kOk);
  EXPECT_EQ(s2->try_lock(fh2.value(), 50, 100, true), PStatus::kLockConflict);
  ASSERT_EQ(s1->unlock(fh.value(), 0, 100), PStatus::kOk);
  EXPECT_EQ(s2->try_lock(fh2.value(), 50, 100, true), PStatus::kOk);
  ASSERT_EQ(s2->unlock(fh2.value(), 50, 100), PStatus::kOk);
  s1.reset();
  s2.reset();
}

TEST_F(DafsTest, DisconnectReleasesLocks) {
  auto s1 = Connect();
  auto s2 = Connect();
  ActorScope scope(client_actor_);
  auto fh = s1->open("/locked2", kOpenCreate);
  ASSERT_EQ(s1->try_lock(fh.value(), 0, 0, true), PStatus::kOk);
  auto fh2 = s2->open("/locked2");
  EXPECT_EQ(s2->try_lock(fh2.value(), 0, 0, true), PStatus::kLockConflict);
  s1.reset();  // disconnect releases the lock server-side
  EXPECT_EQ(s2->lock(fh2.value(), 0, 0, true), PStatus::kOk);
  s2.reset();
}

TEST_F(DafsTest, NamedCountersFetchAdd) {
  auto s1 = Connect();
  auto s2 = Connect();
  ActorScope scope(client_actor_);
  EXPECT_EQ(s1->fetch_add("shared_ptr:/f", 10).value(), 0u);
  EXPECT_EQ(s2->fetch_add("shared_ptr:/f", 5).value(), 10u);
  EXPECT_EQ(s1->fetch_add("shared_ptr:/f", 0).value(), 15u);
  ASSERT_EQ(s1->set_counter("shared_ptr:/f", 0), PStatus::kOk);
  EXPECT_EQ(s2->fetch_add("shared_ptr:/f", 1).value(), 0u);
  s1.reset();
  s2.reset();
}

// ---------------------------------------------------------------------------
// Registration cache
// ---------------------------------------------------------------------------

TEST_F(DafsTest, RegistrationCacheHitsOnRepeatedBuffers) {
  auto s = Connect();
  ActorScope scope(client_actor_);
  auto fh = s->open("/reg", kOpenCreate);
  auto data = pattern(128 * 1024, 11);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(s->pwrite(fh.value(), 0, data).ok());
  }
  EXPECT_EQ(s->reg_cache_misses(), 1u);
  EXPECT_EQ(s->reg_cache_hits(), 4u);
  s.reset();
}

TEST_F(DafsTest, RegistrationCacheDisabledRegistersEachTime) {
  ClientConfig cfg;
  cfg.reg_cache = false;
  auto s = Connect(cfg);
  ActorScope scope(client_actor_);
  auto fh = s->open("/noreg", kOpenCreate);
  auto data = pattern(128 * 1024, 12);
  // Warm the server's slab cache so its one-time slab registration does not
  // land inside the measured window.
  ASSERT_TRUE(s->pwrite(fh.value(), 0, data).ok());
  const auto regs_before = fabric_.stats().get("via.registrations");
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(s->pwrite(fh.value(), 0, data).ok());
  }
  EXPECT_EQ(fabric_.stats().get("via.registrations") - regs_before, 3u);
  EXPECT_EQ(s->reg_cache_hits(), 0u);
  s.reset();
}

// ---------------------------------------------------------------------------
// Virtual-time sanity: direct beats inline for large transfers
// ---------------------------------------------------------------------------

TEST_F(DafsTest, DirectReadIsFasterThanInlineForLargeTransfers) {
  // Force-inline client vs default client on identical workloads.
  ClientConfig inline_cfg;
  inline_cfg.direct_threshold = SIZE_MAX;  // never use direct
  auto prep = Connect();
  ActorScope scope(client_actor_);
  auto fh = prep->open("/perf", kOpenCreate);
  auto data = pattern(1 << 20, 13);
  ASSERT_TRUE(prep->pwrite(fh.value(), 0, data).ok());
  prep.reset();

  std::vector<std::byte> back(1 << 20);

  auto s_inline = Connect(inline_cfg);
  const sim::Time t0 = client_actor_.now();
  ASSERT_TRUE(
      s_inline->pread(s_inline->open("/perf").value(), 0, back).ok());
  const sim::Time inline_cost = client_actor_.now() - t0;
  s_inline.reset();

  auto s_direct = Connect();
  const sim::Time t1 = client_actor_.now();
  ASSERT_TRUE(
      s_direct->pread(s_direct->open("/perf").value(), 0, back).ok());
  const sim::Time direct_cost = client_actor_.now() - t1;
  s_direct.reset();

  EXPECT_LT(direct_cost, inline_cost);
}

}  // namespace
