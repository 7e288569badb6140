#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dafs/client.hpp"
#include "dafs/server.hpp"
#include "dafs/session.hpp"
#include "quorum_bed.hpp"
#include "sim/rng.hpp"

/// \file test_cache.cpp
/// Client cache + delegation suite (ctest label `cache`). A sole opener gets
/// a server-issued delegation at open; while it holds one, reads come from
/// the client cache and — under after_close/after_job — writes buffer dirty
/// and flush on recall, close, sync, budget pressure or teardown. Leases are
/// real: an expired holder stops serving cached bytes and revalidates, and
/// the server fences writes stamped with a lapsed delegation id
/// (kDelegExpired). Capstone: an 8-seed quorum sweep killing the leader
/// mid-recall while the holder's lease runs out — the holder must never
/// serve stale cached bytes afterwards, and its fenced write-back must
/// surface as kDelegExpired, never as silent corruption.

namespace {

using dafs::Consistency;
using dafs::OpenOptions;
using dafs::PStatus;
using sim::Actor;
using sim::ActorScope;

constexpr std::uint64_t kTermNs = 10'000'000;  // ServerConfig::deleg_term_ns

std::vector<std::byte> pattern(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng.next() & 0xff);
  return out;
}

dafs::MountSpec cache_mount(int max_busy_retries = 64) {
  dafs::RetryPolicy retry;
  retry.backoff_ns = 10'000;
  retry.backoff_cap_ns = 500'000;
  retry.max_busy_retries = max_busy_retries;
  return dafs::single_mount("dafs", retry);
}

OpenOptions cached_open(Consistency level,
                        std::uint64_t cache_bytes = 1 << 20,
                        std::uint16_t flags = dafs::kOpenCreate) {
  OpenOptions o;
  o.flags = flags;
  o.consistency = level;
  o.cache_bytes = cache_bytes;
  return o;
}

/// Single-filer bed: one server plus two client nodes (the holder and a
/// conflicting opener), each with its own actor/virtual clock.
class CacheTest : public ::testing::Test {
 protected:
  CacheTest()
      : server_node_(fabric_.add_node("filer")),
        node_a_(fabric_.add_node("client-a")),
        node_b_(fabric_.add_node("client-b")),
        server_(fabric_, server_node_, server_cfg()),
        nic_a_(fabric_, node_a_, "nic-a"),
        nic_b_(fabric_, node_b_, "nic-b"),
        actor_a_("client-a", &fabric_.node(node_a_)),
        actor_b_("client-b", &fabric_.node(node_b_)) {
    server_.start();
  }

  static dafs::ServerConfig server_cfg() {
    dafs::ServerConfig cfg;
    cfg.grace_period_ms = 0;  // grants from the first open
    return cfg;
  }

  std::uint64_t stat(const char* key) { return fabric_.stats().get(key); }

  sim::Fabric fabric_;
  sim::NodeId server_node_, node_a_, node_b_;
  dafs::Server server_;
  via::Nic nic_a_, nic_b_;
  Actor actor_a_, actor_b_;
};

// ---------------------------------------------------------------------------
// Grants and read caching
// ---------------------------------------------------------------------------

TEST_F(CacheTest, SoleOpenerGetsDelegationAndServesReadsLocally) {
  ActorScope scope(actor_a_);
  auto c = std::move(dafs::Client::connect(nic_a_, cache_mount()).value());
  auto fh =
      c->open("/hot.dat", cached_open(Consistency::kAfterWrite)).value();
  EXPECT_TRUE(c->has_delegation(fh));
  EXPECT_GE(stat("dafs.cache.grants"), 1u);

  const auto data = pattern(8 * 1024, 1);
  ASSERT_TRUE(c->pwrite(fh, 0, data).ok());

  // Close discards the cache along with the delegation; the re-open gets a
  // fresh grant, so the first read is an honest miss (server round trip)
  // and the repeats are pure client-side hits.
  EXPECT_EQ(c->close(fh), PStatus::kOk);
  fh = c->open("/hot.dat", cached_open(Consistency::kAfterWrite)).value();
  ASSERT_TRUE(c->has_delegation(fh));
  std::vector<std::byte> back(data.size());
  ASSERT_TRUE(c->pread(fh, 0, back).ok());
  EXPECT_EQ(back, data);
  const std::uint64_t hits0 = stat("dafs.cache.hits");
  for (int i = 0; i < 5; ++i) {
    std::memset(back.data(), 0, back.size());
    auto r = c->pread(fh, 0, back);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), data.size());
    EXPECT_EQ(back, data);
  }
  EXPECT_GE(stat("dafs.cache.hits"), hits0 + 5);
  EXPECT_GE(stat("dafs.cache.misses"), 1u);
  EXPECT_GT(c->cache_bytes(), 0u);
  EXPECT_EQ(c->close(fh), PStatus::kOk);
}

TEST_F(CacheTest, AfterWriteIsWriteThrough) {
  const auto data = pattern(4 * 1024, 2);
  {
    ActorScope scope(actor_a_);
    auto c = std::move(dafs::Client::connect(nic_a_, cache_mount()).value());
    auto fh =
        c->open("/wt.dat", cached_open(Consistency::kAfterWrite)).value();
    ASSERT_TRUE(c->pwrite(fh, 0, data).ok());
    // Write-through: nothing buffers, so nothing ever needs a write-back.
    EXPECT_EQ(stat("dafs.cache.writeback_bytes"), 0u);
    EXPECT_EQ(c->close(fh), PStatus::kOk);
  }
  // The bytes are on the server the moment pwrite returned; close only
  // returned the delegation.
  ActorScope scope(actor_b_);
  auto s = std::move(dafs::Session::connect(nic_b_, cache_mount()).value());
  auto fh = s->open("/wt.dat").value();
  std::vector<std::byte> back(data.size());
  ASSERT_TRUE(s->pread(fh, 0, back).ok());
  EXPECT_EQ(back, data);
}

// ---------------------------------------------------------------------------
// Write-back consistency levels
// ---------------------------------------------------------------------------

TEST_F(CacheTest, AfterCloseBuffersUntilCloseThenFlushes) {
  const auto data = pattern(16 * 1024, 3);
  {
    ActorScope scope(actor_a_);
    auto c = std::move(dafs::Client::connect(nic_a_, cache_mount()).value());
    auto fh =
        c->open("/wb.dat", cached_open(Consistency::kAfterClose)).value();
    ASSERT_TRUE(c->has_delegation(fh));
    auto w = c->pwrite(fh, 0, data);
    ASSERT_TRUE(w.ok());
    EXPECT_EQ(w.value(), data.size());
    // Still buffered client-side.
    EXPECT_EQ(stat("dafs.cache.writeback_bytes"), 0u);

    // Read-your-writes out of the dirty set, and getattr must cover the
    // buffered tail even though the server has never seen a byte.
    std::vector<std::byte> back(data.size());
    ASSERT_TRUE(c->pread(fh, 0, back).ok());
    EXPECT_EQ(back, data);
    auto a = c->getattr(fh);
    ASSERT_TRUE(a.ok());
    EXPECT_GE(a.value().size, data.size());

    EXPECT_EQ(c->close(fh), PStatus::kOk);
    EXPECT_GE(stat("dafs.cache.writeback_bytes"), data.size());
    EXPECT_GE(stat("dafs.cache.writebacks"), 1u);
  }
  ActorScope scope(actor_b_);
  auto s = std::move(dafs::Session::connect(nic_b_, cache_mount()).value());
  auto fh = s->open("/wb.dat").value();
  std::vector<std::byte> back(data.size());
  ASSERT_TRUE(s->pread(fh, 0, back).ok());
  EXPECT_EQ(back, data);
}

TEST_F(CacheTest, AfterJobKeepsCacheWarmAcrossClose) {
  ActorScope scope(actor_a_);
  const auto data = pattern(8 * 1024, 4);
  auto c = std::move(dafs::Client::connect(nic_a_, cache_mount()).value());
  auto fh = c->open("/job.dat", cached_open(Consistency::kAfterJob)).value();
  ASSERT_TRUE(c->pwrite(fh, 0, data).ok());
  EXPECT_EQ(c->close(fh), PStatus::kOk);
  // close() under after_job neither flushed nor returned the delegation.
  EXPECT_EQ(stat("dafs.cache.writeback_bytes"), 0u);

  // Warm re-open: same delegation id, cache intact — the read is a hit.
  auto fh2 = c->open("/job.dat", cached_open(Consistency::kAfterJob)).value();
  EXPECT_TRUE(c->has_delegation(fh2));
  const std::uint64_t hits0 = stat("dafs.cache.hits");
  std::vector<std::byte> back(data.size());
  ASSERT_TRUE(c->pread(fh2, 0, back).ok());
  EXPECT_EQ(back, data);
  EXPECT_GE(stat("dafs.cache.hits"), hits0 + 1);

  // sync() is the explicit job barrier: dirty bytes reach the server.
  ASSERT_EQ(c->sync(fh2), PStatus::kOk);
  EXPECT_GE(stat("dafs.cache.writeback_bytes"), data.size());
}

TEST_F(CacheTest, BudgetPressureFlushesDirtyAndEvictsClean) {
  ActorScope scope(actor_a_);
  auto c = std::move(dafs::Client::connect(nic_a_, cache_mount()).value());
  // A tiny budget: each 4 KiB write overflows the 8 KiB cache quickly.
  auto fh = c->open("/tiny.dat",
                    cached_open(Consistency::kAfterClose, 8 * 1024))
                .value();
  const auto chunk = pattern(4 * 1024, 5);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        c->pwrite(fh, static_cast<std::uint64_t>(i) * chunk.size(), chunk)
            .ok());
  }
  // Dirty data must have been flushed mid-stream (not held past budget) and
  // the cache stayed within its budget via clean eviction.
  EXPECT_GE(stat("dafs.cache.writebacks"), 1u);
  EXPECT_LE(c->cache_bytes(), 8u * 1024u);
  EXPECT_EQ(c->close(fh), PStatus::kOk);

  auto s = std::move(dafs::Session::connect(nic_a_, cache_mount()).value());
  auto vfh = s->open("/tiny.dat").value();
  std::vector<std::byte> back(chunk.size());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        s->pread(vfh, static_cast<std::uint64_t>(i) * chunk.size(), back)
            .ok());
    EXPECT_EQ(back, chunk) << "chunk " << i;
  }
}

// ---------------------------------------------------------------------------
// Async I/O on a cached open goes through the cache
// ---------------------------------------------------------------------------

TEST_F(CacheTest, AsyncWriteOnCachedOpenKeepsTheCacheCoherent) {
  ActorScope scope(actor_a_);
  auto c = std::move(dafs::Client::connect(nic_a_, cache_mount()).value());
  auto fh =
      c->open("/aw.dat", cached_open(Consistency::kAfterWrite)).value();
  ASSERT_TRUE(c->has_delegation(fh));
  const auto before = pattern(4 * 1024, 31);
  const auto after = pattern(4 * 1024, 32);
  ASSERT_TRUE(c->pwrite(fh, 0, before).ok());
  std::vector<std::byte> back(before.size());
  ASSERT_TRUE(c->pread(fh, 0, back).ok());
  ASSERT_EQ(back, before);

  auto op = c->submit_pwrite(fh, 0, after);
  ASSERT_TRUE(op.ok());
  std::uint64_t wrote = 0;
  ASSERT_EQ(c->wait(op.value(), &wrote), PStatus::kOk);
  EXPECT_EQ(wrote, after.size());
  ASSERT_TRUE(c->pread(fh, 0, back).ok());
  EXPECT_EQ(back, after) << "a cached read returned bytes the async write "
                            "had replaced";
  EXPECT_EQ(c->close(fh), PStatus::kOk);
}

TEST_F(CacheTest, AsyncReadOnCachedOpenSeesBufferedWrites) {
  ActorScope scope(actor_a_);
  auto c = std::move(dafs::Client::connect(nic_a_, cache_mount()).value());
  auto fh =
      c->open("/ar.dat", cached_open(Consistency::kAfterClose)).value();
  ASSERT_TRUE(c->has_delegation(fh));
  const auto data = pattern(8 * 1024, 33);
  ASSERT_TRUE(c->pwrite(fh, 0, data).ok());  // buffered: the filer has none

  std::vector<std::byte> back(data.size());
  auto op = c->submit_pread(fh, 0, back);
  ASSERT_TRUE(op.ok());
  std::uint64_t got = 0;
  ASSERT_EQ(c->wait(op.value(), &got), PStatus::kOk);
  EXPECT_EQ(got, data.size());
  EXPECT_EQ(back, data);
  EXPECT_EQ(c->close(fh), PStatus::kOk);
}

// ---------------------------------------------------------------------------
// Recall: a conflicting opener forces the holder to flush and return
// ---------------------------------------------------------------------------

TEST_F(CacheTest, ConflictingReaderTriggersRecallHolderFlushes) {
  const auto v1 = pattern(8 * 1024, 6);
  ActorScope scope_a(actor_a_);
  auto a = std::move(dafs::Client::connect(nic_a_, cache_mount()).value());
  auto afh =
      a->open("/shared.dat", cached_open(Consistency::kAfterClose)).value();
  ASSERT_TRUE(a->has_delegation(afh));
  ASSERT_TRUE(a->pwrite(afh, 0, v1).ok());  // buffered dirty

  // A second client's *open* is the conflict point: the server starts a
  // recall and sheds the opener kBusy. With a tiny busy budget the opener
  // gives up instead of riding out the whole lease.
  {
    ActorScope scope_b(actor_b_);
    auto b = std::move(
        dafs::Session::connect(nic_b_, cache_mount(/*busy*/ 2)).value());
    auto bo = b->open("/shared.dat");
    ASSERT_FALSE(bo.ok());
    EXPECT_EQ(bo.error(), PStatus::kBusy);
    EXPECT_GE(stat("dafs.cache.recalls"), 1u);

    // The holder notices the recall at its next lease-renewal poll: advance
    // its clock past the local horizon (3/4 term) but short of expiry, so
    // the renewal succeeds, carries the recall flag, and the holder flushes
    // the dirty bytes and returns the delegation. (Nested scope: the holder
    // must act on its own virtual clock, not the reader's.)
    {
      ActorScope scope_a2(actor_a_);
      actor_a_.advance(kTermNs * 3 / 4 + kTermNs / 8);
      std::vector<std::byte> mine(v1.size());
      ASSERT_TRUE(a->pread(afh, 0, mine).ok());
      EXPECT_EQ(mine, v1);
      EXPECT_GE(stat("dafs.cache.recalls_serviced"), 1u);
      EXPECT_GE(stat("dafs.cache.writeback_bytes"), v1.size());
      EXPECT_FALSE(a->has_delegation(afh));
    }

    // The opener's retry now goes through and sees the flushed bytes.
    auto bfh = b->open("/shared.dat").value();
    std::vector<std::byte> back(v1.size());
    ASSERT_TRUE(b->pread(bfh, 0, back).ok());
    EXPECT_EQ(back, v1);
  }
  EXPECT_EQ(a->close(afh), PStatus::kOk);
}

TEST_F(CacheTest, IdleHolderLeaseExpiryUnblocksConflictingReader) {
  const auto v1 = pattern(4 * 1024, 7);
  ActorScope scope_a(actor_a_);
  auto a = std::move(dafs::Client::connect(nic_a_, cache_mount()).value());
  auto afh =
      a->open("/idle.dat", cached_open(Consistency::kAfterWrite)).value();
  ASSERT_TRUE(a->pwrite(afh, 0, v1).ok());  // write-through: server has v1

  // The holder goes idle. A conflicting opener with a deep busy budget
  // (each shed advances its clock ~200 us against the 10 ms term) outlasts
  // the lease: the server revokes the delegation and lets the open through.
  ActorScope scope_b(actor_b_);
  auto b = std::move(
      dafs::Session::connect(nic_b_, cache_mount(/*busy*/ 256)).value());
  auto bfh = b->open("/idle.dat").value();
  EXPECT_GE(stat("dafs.deleg_conflict_sheds"), 1u);
  std::vector<std::byte> back(v1.size());
  ASSERT_TRUE(b->pread(bfh, 0, back).ok());
  EXPECT_EQ(back, v1);
}

// ---------------------------------------------------------------------------
// Lease terms: expiry stops cached serving; expired write-backs fence
// ---------------------------------------------------------------------------

TEST_F(CacheTest, ExpiredClientRevalidatesInsteadOfServingCache) {
  ActorScope scope(actor_a_);
  const auto data = pattern(8 * 1024, 8);
  auto c = std::move(dafs::Client::connect(nic_a_, cache_mount()).value());
  auto fh =
      c->open("/lease.dat", cached_open(Consistency::kAfterWrite)).value();
  ASSERT_TRUE(c->pwrite(fh, 0, data).ok());
  std::vector<std::byte> back(data.size());
  ASSERT_TRUE(c->pread(fh, 0, back).ok());  // populate
  ASSERT_TRUE(c->pread(fh, 0, back).ok());  // hit

  // Sleep far past the term with no server contact. The renewal poll finds
  // the delegation gone; the client must drop its cache and re-read.
  actor_a_.advance(kTermNs * 4);
  const std::uint64_t hits0 = stat("dafs.cache.hits");
  std::memset(back.data(), 0, back.size());
  ASSERT_TRUE(c->pread(fh, 0, back).ok());
  EXPECT_EQ(back, data);
  EXPECT_EQ(stat("dafs.cache.hits"), hits0) << "served from a dead lease";
  EXPECT_GE(stat("dafs.cache.client_expiries"), 1u);
  EXPECT_FALSE(c->has_delegation(fh));
}

TEST_F(CacheTest, ExpiredHolderWriteBackIsFenced) {
  ActorScope scope(actor_a_);
  const auto v1 = pattern(8 * 1024, 9);
  const auto v2 = pattern(8 * 1024, 10);
  auto c = std::move(dafs::Client::connect(nic_a_, cache_mount()).value());
  auto fh =
      c->open("/fence.dat", cached_open(Consistency::kAfterClose)).value();
  ASSERT_TRUE(c->pwrite(fh, 0, v1).ok());
  ASSERT_EQ(c->flush(fh), PStatus::kOk);  // v1 is server-backed
  ASSERT_TRUE(c->pwrite(fh, 0, v2).ok());  // v2 buffered dirty

  // The lease lapses before the write-back happens. The flush must be
  // fenced — a lapsed holder's bytes silently landing is exactly the
  // two-writers corruption delegations exist to prevent.
  actor_a_.advance(kTermNs * 4);
  EXPECT_EQ(c->flush(fh), PStatus::kDelegExpired);
  EXPECT_GE(stat("dafs.cache.expired_fences"), 1u);
  EXPECT_FALSE(c->has_delegation(fh));

  // The discarded bytes did NOT land: the file still reads v1.
  std::vector<std::byte> back(v1.size());
  ASSERT_TRUE(c->pread(fh, 0, back).ok());
  EXPECT_EQ(back, v1);
  EXPECT_EQ(c->close(fh), PStatus::kOk);
}

TEST_F(CacheTest, AttrCacheServesWithinTtl) {
  ActorScope scope(actor_a_);
  auto c = std::move(dafs::Client::connect(nic_a_, cache_mount()).value());
  OpenOptions o = cached_open(Consistency::kAfterWrite);
  o.attr_ttl_ns = 500'000;
  auto fh = c->open("/attr.dat", o).value();
  ASSERT_TRUE(c->pwrite(fh, 0, pattern(1024, 11)).ok());
  ASSERT_TRUE(c->getattr(fh).ok());  // miss: fills the attr cache
  const std::uint64_t hits0 = stat("dafs.cache.attr_hits");
  auto a = c->getattr(fh);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.value().size, 1024u);
  EXPECT_GE(stat("dafs.cache.attr_hits"), hits0 + 1);
  // Past the TTL the next getattr revalidates.
  actor_a_.advance(600'000);
  const std::uint64_t hits1 = stat("dafs.cache.attr_hits");
  ASSERT_TRUE(c->getattr(fh).ok());
  EXPECT_EQ(stat("dafs.cache.attr_hits"), hits1);
}

}  // namespace

// ---------------------------------------------------------------------------
// Capstone: recall vs quorum failover, lease running out mid-outage
// ---------------------------------------------------------------------------

namespace {

using dafs_test::QuorumBed;
using dafs_test::wait_restart;

TEST(CacheQuorum, RecallSurvivesLeaderKillNoStaleBytes) {
  // Seeded sweep: the holder buffers dirty bytes under a write delegation, a
  // conflicting reader puts the delegation mid-recall, then the leader dies
  // and the holder's lease runs out during the outage. Required outcome per
  // seed: the holder never serves its dead cache (every post-failover read
  // agrees with a fresh verifier session), and the holder's write-back is
  // either fully applied or fenced with kDelegExpired — nothing in between.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    sim::Fabric fabric;
    QuorumBed g(fabric, 3, "dafs-cq");
    const int l0 = g.wait_leader();
    ASSERT_GE(l0, 0);
    // Grants pause for grace_period_ms after election; ride it out.
    std::this_thread::sleep_for(std::chrono::milliseconds(15));

    const auto node_a = fabric.add_node("holder");
    const auto node_b = fabric.add_node("reader");
    sim::Actor actor_a("holder", &fabric.node(node_a));
    sim::Actor actor_b("reader", &fabric.node(node_b));
    via::Nic nic_a(fabric, node_a, "nic-a");
    via::Nic nic_b(fabric, node_b, "nic-b");

    const auto v1 = pattern(8 * 1024, seed * 2 + 1);
    const auto v2 = pattern(8 * 1024, seed * 2 + 2);

    ActorScope scope_a(actor_a);
    auto a = std::move(
        dafs::Client::connect(nic_a, g.mount(seed, 0)).value());
    auto afh =
        a->open("/q.dat", cached_open(Consistency::kAfterClose)).value();
    if (!a->has_delegation(afh)) {
      // The election ran long and the open landed inside the grace window:
      // re-open once the window has passed (the file stays intact).
      std::this_thread::sleep_for(std::chrono::milliseconds(15));
      ASSERT_EQ(a->close(afh), PStatus::kOk);
      afh = a->open("/q.dat", cached_open(Consistency::kAfterClose)).value();
    }
    ASSERT_TRUE(a->has_delegation(afh));
    ASSERT_TRUE(a->pwrite(afh, 0, v1).ok());
    // sync (not bare flush): plain writes are idempotent and skip the quorum
    // commit barrier, so only the sync pins v1 at a majority before the kill.
    ASSERT_EQ(a->sync(afh), PStatus::kOk);  // v1 replicated at quorum
    ASSERT_TRUE(a->pwrite(afh, 0, v2).ok());  // v2 dirty, client-side only

    // Conflicting opener: its open collides with the write delegation,
    // starts the recall, and gives up on its small busy budget (the recall
    // is now pending server-side).
    {
      ActorScope scope_b(actor_b);
      auto b = std::move(
          dafs::Session::connect(nic_b, g.mount(seed, 1, 0, 2)).value());
      auto bo = b->open("/q.dat");  // kBusy (recall started); data if raced
      if (bo.ok()) {
        std::vector<std::byte> tmp(v1.size());
        (void)b->pread(bo.value(), 0, tmp);
      }
    }
    EXPECT_GE(fabric.stats().get("dafs.cache.recalls"), 1u);

    // Kill the leader mid-recall; its delegation table is volatile and dies
    // with it. The holder's lease expires during the outage.
    g.member(l0).inject_crash(40);
    const int l1 = g.wait_leader(l0);
    ASSERT_GE(l1, 0) << "no new leader";
    actor_a.advance(kTermNs * 4);

    // Holder's next read: the lease is dead and the delegation id names the
    // old incarnation — it must revalidate against the new leader, and its
    // final write-back attempt must fence, not land.
    const std::uint64_t hits0 = fabric.stats().get("dafs.cache.hits");
    std::vector<std::byte> mine(v1.size());
    auto r = a->pread(afh, 0, mine);
    ASSERT_TRUE(r.ok()) << "holder read failed: " << dafs::to_string(r.error());
    EXPECT_EQ(fabric.stats().get("dafs.cache.hits"), hits0)
        << "holder served bytes from a delegation the leader kill revoked";
    EXPECT_FALSE(a->has_delegation(afh));

    // The buffered v2 was fenced (the flush inside the drop recorded the
    // error); close surfaces it exactly once.
    const PStatus st = a->close(afh);
    EXPECT_TRUE(st == PStatus::kDelegExpired || st == PStatus::kOk)
        << dafs::to_string(st);

    // Ground truth from a fresh verifier session on the new leader: the
    // holder's read must agree byte-for-byte, and the file must hold either
    // v1 (write-back fenced) or v2 (write-back applied) — never a mix.
    ActorScope scope_v(actor_b);
    auto v = std::move(
        dafs::Session::connect(nic_b, g.mount(seed, 2)).value());
    auto vfh = v->open("/q.dat").value();
    std::vector<std::byte> truth(v1.size());
    ASSERT_TRUE(v->pread(vfh, 0, truth).ok());
    EXPECT_EQ(mine, truth) << "holder and verifier disagree (stale cache)";
    EXPECT_TRUE(truth == v1 || truth == v2) << "torn write-back";
    if (st == PStatus::kDelegExpired) {
      EXPECT_EQ(truth, v1) << "fenced write-back landed anyway";
      EXPECT_GE(fabric.stats().get("dafs.cache.expired_fences"), 1u);
    }

    wait_restart(g.member(l0));
  }
}

}  // namespace
