#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dafs/client.hpp"
#include "dafs/server.hpp"
#include "dafs/session.hpp"
#include "mpiio/ad_dafs.hpp"
#include "mpiio/file.hpp"
#include "quorum_bed.hpp"
#include "sim/fault.hpp"
#include "sim/rng.hpp"

/// \file test_failover.cpp
/// Client-visible failover over a three-member quorum group (ctest label
/// `failover`). Each test pins a fact the raft suite leaves unasserted: a
/// sync or counter ack means a follower already holds the leader's journal
/// up to that point; a session bound to a killed leader lands on the
/// elected successor exactly once, synced bytes and counters intact; a
/// session that sat out the crash is turned away by the restarted
/// ex-leader with kNotLeader and follows its hint; and an 8-seed, 4-rank
/// crash-mid-collective sweep runs with every rank bound to the leader and
/// with client-link delays on odd seeds.

namespace {

using dafs::PStatus;
using dafs_test::journal_of;
using dafs_test::QuorumBed;
using dafs_test::wait_restart;
using mpi::Comm;
using mpi::Datatype;
using mpiio::Err;
using mpiio::File;
using mpiio::Info;
using sim::Actor;
using sim::ActorScope;

using Role = dafs::Server::Role;

constexpr std::uint64_t kChunk = 32 * 1024;

std::vector<std::byte> pattern(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng.next() & 0xff);
  return out;
}

/// Real-time wait (up to 15 s) until every live member names `l` as the
/// leader, so a mount preferring `l` binds it on its first probe and a
/// follower's kNotLeader carries a hint.
bool wait_known_leader(const QuorumBed& g, int l) {
  for (int i = 0; i < 15'000; ++i) {
    const bool known = std::all_of(
        g.members.begin(), g.members.end(), [l](const auto& m) {
          return m->crashed() || m->leader_member() == l;
        });
    if (known) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

/// True when a follower of leader `l` holds `prefix` at the head of its
/// journal, byte for byte.
bool follower_holds(const QuorumBed& g, int l,
                    const std::vector<std::byte>& prefix) {
  for (std::size_t i = 0; i < g.members.size(); ++i) {
    if (static_cast<int>(i) == l) continue;
    const std::vector<std::byte> j = journal_of(*g.members[i]);
    if (j.size() >= prefix.size() &&
        std::equal(prefix.begin(), prefix.end(), j.begin())) {
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// An ack means a majority already holds the journal
// ---------------------------------------------------------------------------

TEST(Failover, JournalShipsToStandby) {
  sim::Fabric fabric;
  QuorumBed g(fabric, 3, "dafs-f");
  const int l = g.wait_leader();
  ASSERT_GE(l, 0);
  ASSERT_TRUE(wait_known_leader(g, l));
  const auto node = fabric.add_node("client");
  Actor actor("client", &fabric.node(node));
  ActorScope scope(actor);
  via::Nic nic(fabric, node, "nic");
  auto s = std::move(dafs::Session::connect(nic, g.mount(1, 0, l)).value());
  EXPECT_EQ(s->active_service(), g.client_service(l))
      << "a mount preferring the leader binds it";

  // A sync and a counter add are acknowledged only once a majority holds
  // the records they produced; in a group of three that is the leader and a
  // follower. So at the instant each call returns — not after eventual
  // convergence — some follower already holds the leader's whole journal.
  const auto data = pattern(kChunk, 11);
  auto fh = s->open("/ship.dat", dafs::kOpenCreate).value();
  ASSERT_TRUE(s->pwrite(fh, 0, data).ok());
  ASSERT_EQ(s->sync(fh), PStatus::kOk);
  EXPECT_TRUE(follower_holds(g, l, journal_of(g.member(l))))
      << "sync acknowledged before a follower held its records";
  ASSERT_TRUE(s->fetch_add("ship.ctr", 3).ok());
  const std::vector<std::byte> acked = journal_of(g.member(l));
  EXPECT_TRUE(follower_holds(g, l, acked))
      << "fetch_add acknowledged before a follower held its records";
  EXPECT_GE(g.member(l).commit_offset(), acked.size());
  EXPECT_EQ(g.member(l).role(), Role::kLeader);
  s.reset();
}

// ---------------------------------------------------------------------------
// The basic failover: kill the leader, the session lands on the successor
// ---------------------------------------------------------------------------

TEST(Failover, SessionRotatesToPromotedStandby) {
  sim::Fabric fabric;
  QuorumBed g(fabric, 3, "dafs-f");
  const int l = g.wait_leader();
  ASSERT_GE(l, 0);
  ASSERT_TRUE(wait_known_leader(g, l));
  const auto node = fabric.add_node("client");
  Actor actor("client", &fabric.node(node));
  ActorScope scope(actor);
  via::Nic nic(fabric, node, "nic");
  auto s = std::move(dafs::Session::connect(nic, g.mount(2, 0, l)).value());
  ASSERT_EQ(s->active_service(), g.client_service(l));

  // Durable state minted on the leader: synced bytes and a counter.
  const auto data = pattern(2 * kChunk, 21);
  auto fh = s->open("/fo.dat", dafs::kOpenCreate).value();
  ASSERT_TRUE(s->pwrite(fh, 0, data).ok());
  ASSERT_EQ(s->sync(fh), PStatus::kOk);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(s->fetch_add("fo.ctr", 5).ok());
  const std::uint64_t term = g.member(l).epoch();

  // Kill the leader with a restart delay far beyond an election: the
  // successor is the only member that can serve the next op.
  g.member(l).inject_crash(/*restart_delay_ms=*/500);
  const int succ = g.wait_leader(l);
  ASSERT_GE(succ, 0) << "no successor elected";
  EXPECT_GT(g.member(succ).epoch(), term) << "a successor leads a new term";

  // Transparent recovery onto the successor: the synced image and the
  // exactly-once counter history are in the replicated journal.
  std::vector<std::byte> back(data.size());
  ASSERT_TRUE(s->pread(fh, 0, back).ok());
  EXPECT_EQ(std::memcmp(back.data(), data.data(), back.size()), 0)
      << "synced bytes must survive the failover byte-exact";
  EXPECT_EQ(s->active_service(), g.client_service(succ));
  EXPECT_EQ(s->failovers(), 1u);
  EXPECT_GE(fabric.stats().get("dafs.failovers"), 1u);
  auto ctr = s->fetch_add("fo.ctr", 0);
  ASSERT_TRUE(ctr.ok());
  EXPECT_EQ(ctr.value(), 20u) << "counter adds must apply exactly once";

  // The group keeps serving: new writes land on the successor.
  ASSERT_TRUE(s->pwrite(fh, data.size(), pattern(kChunk, 22)).ok());
  ASSERT_EQ(s->sync(fh), PStatus::kOk);
  s.reset();
}

// ---------------------------------------------------------------------------
// Fencing: a restarted ex-leader turns stale sessions away to the successor
// ---------------------------------------------------------------------------

TEST(Failover, DeposedPrimaryFencesItselfAndRejectsStaleSessions) {
  sim::Fabric fabric;
  QuorumBed g(fabric, 3, "dafs-f");
  const int l = g.wait_leader();
  ASSERT_GE(l, 0);
  ASSERT_TRUE(wait_known_leader(g, l));
  const auto node = fabric.add_node("client");
  Actor actor("client", &fabric.node(node));
  ActorScope scope(actor);
  via::Nic nic(fabric, node, "nic");

  // Two sessions bound to the leader. A fails over during the outage; B
  // sits out the crash and only notices once the ex-leader is back.
  auto a = std::move(dafs::Session::connect(nic, g.mount(3, 0, l)).value());
  auto b = std::move(dafs::Session::connect(nic, g.mount(3, 1, l)).value());
  ASSERT_EQ(b->active_service(), g.client_service(l));
  auto fa = a->open("/fence.dat", dafs::kOpenCreate).value();
  ASSERT_TRUE(a->pwrite(fa, 0, pattern(kChunk, 31)).ok());
  ASSERT_EQ(a->sync(fa), PStatus::kOk);
  auto fb = b->open("/fence.dat").value();
  ASSERT_TRUE(b->fetch_add("fence.ctr", 2).ok());

  // The restart delay outlasts an election, so the ex-leader comes back to
  // a successor's term instead of racing for its old seat.
  g.member(l).inject_crash(/*restart_delay_ms=*/250);
  const int succ = g.wait_leader(l);
  ASSERT_GE(succ, 0) << "no successor elected";
  std::vector<std::byte> probe(16);
  ASSERT_TRUE(a->pread(fa, 0, probe).ok());
  EXPECT_EQ(a->active_service(), g.client_service(succ));

  // The ex-leader restarts as a follower and learns who leads now.
  wait_restart(g.member(l));
  ASSERT_TRUE(wait_known_leader(g, succ));
  EXPECT_EQ(g.member(l).role(), Role::kFollower);

  // B wakes up and retries against its old home: the ex-leader refuses the
  // stale session with kNotLeader and a hint, B jumps to the successor,
  // reclaims there and the op succeeds — with the counter history intact.
  const std::uint64_t rejected_before =
      fabric.stats().get("dafs.not_leader_rejections");
  const std::uint64_t hints_before =
      fabric.stats().get("dafs.leader_hints_followed");
  auto ctr = b->fetch_add("fence.ctr", 0);
  ASSERT_TRUE(ctr.ok());
  EXPECT_EQ(ctr.value(), 2u);
  EXPECT_EQ(b->active_service(), g.client_service(succ));
  EXPECT_TRUE(b->pread(fb, 0, probe).ok());
  EXPECT_GT(fabric.stats().get("dafs.not_leader_rejections"), rejected_before)
      << "the restarted ex-leader must have turned B away";
  EXPECT_GT(fabric.stats().get("dafs.leader_hints_followed"), hints_before)
      << "B must have followed the ex-leader's hint";

  // A fresh single-endpoint mount of the ex-leader is refused outright...
  dafs::RetryPolicy fast;
  fast.attempts = 2;
  fast.backoff_ns = 1'000;
  fast.backoff_cap_ns = 4'000;
  auto refused = dafs::Session::connect(
      nic, dafs::single_mount(g.client_service(l), fast));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error(), PStatus::kNotLeader);

  // ...while a group mount that probes it first lands on the successor.
  auto fresh = dafs::Session::connect(nic, g.mount(3, 2, l));
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh.value()->active_service(), g.client_service(succ));
  fresh.value().reset();
  b.reset();
  a.reset();
}

// ---------------------------------------------------------------------------
// The capstone: seeded crash-mid-collective sweep over the group
// ---------------------------------------------------------------------------

/// One seed: a 4-rank world, every rank bound to the leader, writes a
/// durable baseline, then the crash schedule kills the leader
/// mid-collective-write. Every rank must finish through the successor:
/// synced bytes byte-exact and counter mutations exactly-once. Odd seeds
/// also delay transfers on the leader's client links to shake up the
/// interleaving.
void run_failover_world(std::uint64_t seed) {
  const auto wall_start = std::chrono::steady_clock::now();
  constexpr int kRanks = 4;
  constexpr int kAdds = 5;
  constexpr std::uint64_t kDelta = 7;

  sim::Fabric fabric;
  QuorumBed g(fabric, 3, "dafs-f");
  const int l0 = g.wait_leader();
  ASSERT_GE(l0, 0) << "seed " << seed;
  ASSERT_TRUE(wait_known_leader(g, l0)) << "seed " << seed;

  mpi::WorldConfig wcfg;
  wcfg.nprocs = kRanks;
  wcfg.fabric = &fabric;
  wcfg.name = "failover";
  mpi::World world(wcfg);
  world.run([&](Comm& c) {
    via::Nic nic(fabric, world.node_of(c.rank()), "cli");
    auto client = std::move(
        dafs::Client::connect(nic, g.mount(seed, c.rank(), l0)).value());
    EXPECT_EQ(client->active_service(), g.client_service(l0))
        << "rank " << c.rank() << " must start on the leader, seed " << seed;
    auto fa = std::move(File::open(c, "/a.dat",
                                   mpiio::kModeCreate | mpiio::kModeRdwr,
                                   Info{}, mpiio::dafs_driver(*client))
                            .value());
    auto fb = std::move(File::open(c, "/b.dat",
                                   mpiio::kModeCreate | mpiio::kModeRdwr,
                                   Info{}, mpiio::dafs_driver(*client))
                            .value());
    auto poll_fh = client->open("/a.dat").value();

    // Phase 1 (healthy group): durable baseline. The sync's commit barrier
    // means a majority holds the journal carrying these bytes, so the
    // baseline must survive the leader's death byte-exact.
    const std::uint64_t off = c.rank() * kChunk;
    const auto da = pattern(kChunk, 1000 + seed * 10 + c.rank());
    ASSERT_TRUE(fa->write_at_all(off, da.data(), kChunk, Datatype::byte()).ok());
    ASSERT_EQ(fa->sync(), Err::kOk);
    c.barrier();

    // Arm: kill the leader — and only the leader — a handful of admitted
    // requests into phase 2, with a restart delay well past an election, so
    // waiting out the reboot can never be what makes the seed pass. Odd
    // seeds add transfer delays on the leader's client connections.
    if (c.rank() == 0) {
      auto& plan = fabric.faults();
      plan.arm(seed);
      plan.restrict_crash_to_node(g.nodes[static_cast<std::size_t>(l0)]);
      plan.crash_server_after_requests(2 + seed * 3,
                                       /*restart_delay_ms=*/300);
      if (seed % 2 == 1) {
        plan.restrict_to_conn(g.client_service(l0));
        plan.set_delay(0.2, 30'000);
      }
    }
    c.barrier();

    // Phase 2 (crash lands here): collective writes plus counter traffic.
    // Failover is transparent, so every op must eventually succeed.
    const auto db = pattern(kChunk, 2000 + seed * 10 + c.rank());
    bool ok = false;
    for (int t = 0; t < 8 && !ok; ++t) {
      ok = fb->write_at_all(off, db.data(), kChunk, Datatype::byte()).ok();
    }
    ASSERT_TRUE(ok) << "collective write across failover, seed " << seed;
    for (int i = 0; i < kAdds; ++i) {
      auto r = client->fetch_add("fo.ctr", kDelta);
      ASSERT_TRUE(r.ok()) << "fetch_add " << i << ", seed " << seed << ": "
                          << dafs::to_string(r.error());
    }
    c.barrier();

    // Make sure the armed crash actually fired, then wait for a successor.
    if (c.rank() == 0) {
      int guard = 0;
      while (fabric.stats().get("dafs.server_crashes") == 0 && guard++ < 500) {
        (void)client->getattr(poll_fh);
      }
      EXPECT_GE(fabric.stats().get("dafs.server_crashes"), 1u)
          << "seed " << seed;
      EXPECT_GE(g.wait_leader(l0), 0) << "seed " << seed;
      fabric.faults().clear();
    }
    c.barrier();

    // Phase 3 (on the successor): rewrite /b.dat clean and sync — acked but
    // un-synced phase-2 bytes legally died with the leader — then verify
    // the durable baseline never moved.
    ok = false;
    for (int t = 0; t < 8 && !ok; ++t) {
      ok = fb->write_at_all(off, db.data(), kChunk, Datatype::byte()).ok();
    }
    ASSERT_TRUE(ok) << "clean rewrite, seed " << seed;
    ASSERT_EQ(fb->sync(), Err::kOk);

    std::vector<std::byte> back(kChunk);
    ASSERT_TRUE(fa->read_at_all(off, back.data(), kChunk, Datatype::byte()).ok());
    EXPECT_EQ(std::memcmp(back.data(), da.data(), kChunk), 0)
        << "synced baseline after failover, seed " << seed;
    ASSERT_TRUE(fb->read_at_all(off, back.data(), kChunk, Datatype::byte()).ok());
    EXPECT_EQ(std::memcmp(back.data(), db.data(), kChunk), 0);
    EXPECT_GE(client->failovers(), 1u)
        << "rank " << c.rank() << " must have left the killed leader, seed "
        << seed;

    fa->close();
    fb->close();
  });

  // Every rank's session crossed over, and the kill forced an election.
  EXPECT_GE(fabric.stats().get("dafs.failovers"),
            static_cast<std::uint64_t>(kRanks))
      << "seed " << seed;
  EXPECT_GE(fabric.stats().get("dafs.elections_won"), 2u) << "seed " << seed;

  // Exactly-once across the failover, checked through a pristine mount (it
  // finds the live leader on its own).
  {
    const auto node = fabric.add_node("verify");
    Actor actor("verify", &fabric.node(node));
    ActorScope scope(actor);
    via::Nic nic(fabric, node, "vnic");
    auto s = std::move(dafs::Session::connect(nic, g.mount(seed, 99)).value());
    EXPECT_EQ(s->fetch_add("fo.ctr", 0).value(),
              static_cast<std::uint64_t>(kRanks) * kAdds * kDelta)
        << "seed " << seed;
    for (const char* path : {"/a.dat", "/b.dat"}) {
      auto fh = s->open(path).value();
      const std::uint64_t base =
          std::string_view(path) == "/a.dat" ? 1000 : 2000;
      std::vector<std::byte> all(kRanks * kChunk);
      auto rd = s->pread(fh, 0, all);
      EXPECT_TRUE(rd.ok());
      if (!rd.ok()) continue;
      for (int r = 0; r < kRanks; ++r) {
        const auto expect = pattern(kChunk, base + seed * 10 + r);
        EXPECT_EQ(std::memcmp(all.data() + r * kChunk, expect.data(), kChunk),
                  0)
            << path << " rank " << r << " seed " << seed;
      }
    }
    s.reset();
  }

  EXPECT_LT(std::chrono::steady_clock::now() - wall_start,
            std::chrono::seconds(60))
      << "seed " << seed;
}

TEST(Failover, SeededCrashMidCollectiveSweep) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) run_failover_world(seed);
}

}  // namespace
