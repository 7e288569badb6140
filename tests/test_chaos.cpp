#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "dafs/client.hpp"
#include "dafs/server.hpp"
#include "dafs/session.hpp"
#include "mpiio/ad_dafs.hpp"
#include "mpiio/file.hpp"
#include "sim/fault.hpp"
#include "sim/rng.hpp"

/// \file test_chaos.cpp
/// Server crash/restart chaos suite (ctest label `chaos`): seeded fault
/// schedules kill the DAFS server mid-workload — optionally mixed with
/// connection breaks, transfer delays and short reads — and every scenario
/// must end with (1) synced data byte-exact, (2) exactly-once counter
/// mutations across restarts, and (3) completion inside a real-time watchdog
/// bound. Overload, deadline-expiry and lease/stale-handle semantics are
/// covered by dedicated scenarios below the sweep.

namespace {

using dafs::PStatus;
using mpi::Comm;
using mpi::Datatype;
using mpiio::Err;
using mpiio::ErrClass;
using mpiio::File;
using mpiio::Info;
using sim::Actor;
using sim::ActorScope;

constexpr std::uint64_t kChunk = 32 * 1024;

/// Arms the fabric's flight recorder for the enclosing test; if the test has
/// failed by the time the guard dies, dumps everything the recorder holds
/// (closed spans, orphaned in-flight spans, crash/deadline events) and
/// prints the dump path so the failure can be replayed on a timeline.
class FlightDumpOnFailure {
 public:
  explicit FlightDumpOnFailure(sim::Fabric& fabric) : fabric_(fabric) {
    fabric_.trace().set_enabled(true);
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    if (info != nullptr) {
      fabric_.trace().set_dump_path(std::string("chaos_") + info->name() +
                                    ".json");
    }
  }
  ~FlightDumpOnFailure() {
    if (!::testing::Test::HasFailure()) return;
    const std::string path = fabric_.trace().flight_dump("assert");
    if (!path.empty()) {
      std::fprintf(stderr,
                   "[chaos] test failed: flight recorder dumped to %s "
                   "(load in https://ui.perfetto.dev)\n",
                   path.c_str());
    }
  }
  FlightDumpOnFailure(const FlightDumpOnFailure&) = delete;
  FlightDumpOnFailure& operator=(const FlightDumpOnFailure&) = delete;

 private:
  sim::Fabric& fabric_;
};

std::vector<std::byte> pattern(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng.next() & 0xff);
  return out;
}

dafs::MountSpec chaos_cfg(std::uint64_t seed, int rank) {
  dafs::RetryPolicy retry;
  retry.backoff_ns = 20'000;
  retry.backoff_cap_ns = 2'000'000;
  retry.jitter_seed = seed * 131 + static_cast<std::uint64_t>(rank);
  return dafs::single_mount("dafs", retry);
}

/// Wait (real time) until the server's listener is back after a crash.
void wait_restart(dafs::Server& server) {
  while (server.crashed()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// ---------------------------------------------------------------------------
// The capstone: seeded crash-mid-collective sweep with mixed faults
// ---------------------------------------------------------------------------

struct ChaosCounters {
  std::uint64_t crashes = 0;
  std::uint64_t reclaims = 0;
  std::uint64_t replay_hits = 0;
};

/// One seed of the sweep: a 4-rank world writes a durable (synced) baseline
/// file, then runs collective writes + shared counters with the crash
/// schedule armed. The server dies mid-workload and restarts; afterwards the
/// ranks redo the second phase in a clean world and everything is verified
/// byte-exact through a pristine session. Counter totals must show each
/// fetch_add applied exactly once, crash or no crash.
ChaosCounters run_crash_world(std::uint64_t seed) {
  const auto wall_start = std::chrono::steady_clock::now();
  constexpr int kRanks = 4;
  constexpr int kAdds = 5;
  constexpr std::uint64_t kDelta = 7;

  sim::Fabric fabric;
  FlightDumpOnFailure flight(fabric);
  dafs::ServerConfig scfg;
  scfg.grace_period_ms = 10;  // keep reclaim-vs-retry real time short
  dafs::Server server(fabric, fabric.add_node("filer"), scfg);
  server.start();

  mpi::WorldConfig wcfg;
  wcfg.nprocs = kRanks;
  wcfg.fabric = &fabric;
  wcfg.name = "chaos";
  mpi::World world(wcfg);
  world.run([&](Comm& c) {
    via::Nic nic(fabric, world.node_of(c.rank()), "cli");
    auto client = std::move(
        dafs::Client::connect(nic, chaos_cfg(seed, c.rank())).value());
    auto fa = std::move(File::open(c, "/a.dat",
                                   mpiio::kModeCreate | mpiio::kModeRdwr,
                                   Info{}, mpiio::dafs_driver(*client))
                            .value());
    auto fb = std::move(File::open(c, "/b.dat",
                                   mpiio::kModeCreate | mpiio::kModeRdwr,
                                   Info{}, mpiio::dafs_driver(*client))
                            .value());
    // Baseline for rank 0's crash-trip polling below.
    auto poll_fh = client->open("/a.dat").value();

    // Phase 1 (no faults): durable baseline. Synced bytes must survive the
    // crash byte-exact no matter where it lands.
    const std::uint64_t off = c.rank() * kChunk;
    const auto da = pattern(kChunk, 1000 + seed * 10 + c.rank());
    ASSERT_TRUE(fa->write_at_all(off, da.data(), kChunk, Datatype::byte()).ok());
    ASSERT_EQ(fa->sync(), Err::kOk);
    c.barrier();

    // Arm the schedule: a crash a handful of admitted requests in, mixed —
    // per seed — with drops, delays or short reads on the DAFS connections.
    if (c.rank() == 0) {
      auto& plan = fabric.faults();
      plan.arm(seed);
      plan.restrict_to_conn("dafs");
      plan.crash_server_after_requests(2 + seed * 3, /*restart_delay_ms=*/15);
      switch (seed % 3) {
        case 0: plan.set_drop_prob(0.02); break;
        case 1: plan.set_delay(0.3, 50'000); break;
        case 2: plan.set_short_read_prob(0.3); break;
      }
    }
    c.barrier();

    // Phase 2 (faulted): collective writes to a second file plus shared
    // counter traffic. Recovery is transparent, so every op must eventually
    // succeed; the crash legally erases /b.dat's un-synced bytes (they are
    // rewritten clean below) but never the counter's exactly-once history.
    const auto db = pattern(kChunk, 2000 + seed * 10 + c.rank());
    bool ok = false;
    for (int t = 0; t < 8 && !ok; ++t) {
      ok = fb->write_at_all(off, db.data(), kChunk, Datatype::byte()).ok();
    }
    ASSERT_TRUE(ok) << "faulted collective write, seed " << seed;
    for (int i = 0; i < kAdds; ++i) {
      auto r = client->fetch_add("chaos.ctr", kDelta);
      ASSERT_TRUE(r.ok()) << "fetch_add " << i << ", seed " << seed << ": "
                          << dafs::to_string(r.error());
    }
    c.barrier();

    // Make sure the armed crash actually fired before disarming: rank 0
    // pushes idempotent requests until the admitted-request counter trips it.
    if (c.rank() == 0) {
      int guard = 0;
      while (fabric.stats().get("dafs.server_crashes") == 0 && guard++ < 500) {
        (void)client->getattr(poll_fh);
      }
      EXPECT_GE(fabric.stats().get("dafs.server_crashes"), 1u)
          << "seed " << seed;
      wait_restart(server);
      fabric.faults().clear();
    }
    c.barrier();

    // Phase 3 (clean): rewrite the second file and sync — the durable
    // post-state every seed must agree on.
    ok = false;
    for (int t = 0; t < 8 && !ok; ++t) {
      ok = fb->write_at_all(off, db.data(), kChunk, Datatype::byte()).ok();
    }
    ASSERT_TRUE(ok) << "clean rewrite, seed " << seed;
    ASSERT_EQ(fb->sync(), Err::kOk);

    // Read-back through MPI-IO on the (recovered) sessions.
    std::vector<std::byte> back(kChunk);
    ASSERT_TRUE(fa->read_at_all(off, back.data(), kChunk, Datatype::byte()).ok());
    EXPECT_EQ(std::memcmp(back.data(), da.data(), kChunk), 0)
        << "synced baseline, seed " << seed;
    ASSERT_TRUE(fb->read_at_all(off, back.data(), kChunk, Datatype::byte()).ok());
    EXPECT_EQ(std::memcmp(back.data(), db.data(), kChunk), 0);

    fa->close();
    fb->close();
  });

  // Exactly-once: 4 ranks x kAdds adds of kDelta, regardless of how many
  // replays, retransmits and restarts happened in between.
  {
    const auto node = fabric.add_node("verify");
    Actor actor("verify", &fabric.node(node));
    ActorScope scope(actor);
    via::Nic nic(fabric, node, "vnic");
    auto s = std::move(dafs::Session::connect(nic).value());
    EXPECT_EQ(s->fetch_add("chaos.ctr", 0).value(),
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

  // Watchdog: chaos or not, a seed must finish in bounded real time (the
  // virtual-time fabric makes this generous even under sanitizers).
  EXPECT_LT(std::chrono::steady_clock::now() - wall_start,
            std::chrono::seconds(60))
      << "seed " << seed;

  ChaosCounters out;
  out.crashes = fabric.stats().get("dafs.server_crashes");
  out.reclaims = fabric.stats().get("dafs.session_reclaims");
  out.replay_hits = fabric.stats().get("dafs.replay_hits");
  return out;
}

TEST(Chaos, SeededCrashMidCollectiveSweep) {
  ChaosCounters total;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto c = run_crash_world(seed);
    total.crashes += c.crashes;
    total.reclaims += c.reclaims;
    total.replay_hits += c.replay_hits;
  }
  // Every seed crashed at least once, and the lease-reclaim path (server
  // state rebuilt from client leases) ran across the sweep.
  EXPECT_GE(total.crashes, 8u);
  EXPECT_GE(total.reclaims, 8u);
}

// ---------------------------------------------------------------------------
// sync() is the durability barrier
// ---------------------------------------------------------------------------

TEST(Chaos, SyncedDataSurvivesUnsyncedDataVanishes) {
  sim::Fabric fabric;
  FlightDumpOnFailure flight(fabric);
  dafs::ServerConfig scfg;
  scfg.grace_period_ms = 5;
  dafs::Server server(fabric, fabric.add_node("filer"), scfg);
  server.start();
  const auto node = fabric.add_node("client");
  Actor actor("client", &fabric.node(node));
  ActorScope scope(actor);
  via::Nic nic(fabric, node, "nic");
  auto s = std::move(dafs::Session::connect(nic, chaos_cfg(3, 0)).value());

  const auto va = pattern(2 * kChunk, 71);  // spans multiple store chunks
  const auto vb = pattern(2 * kChunk, 72);
  auto fh = s->open("/bar.dat", dafs::kOpenCreate).value();
  ASSERT_TRUE(s->pwrite(fh, 0, va).ok());
  ASSERT_EQ(s->sync(fh), PStatus::kOk);

  // Overwrite without syncing, then kill the server: the overwrite was
  // acknowledged but not durable, so the restarted server must expose the
  // full pre-image — never a mix.
  ASSERT_TRUE(s->pwrite(fh, 0, vb).ok());
  server.inject_crash(5);
  wait_restart(server);
  std::vector<std::byte> back(va.size());
  ASSERT_TRUE(s->pread(fh, 0, back).ok());  // transparent recovery + reclaim
  EXPECT_EQ(std::memcmp(back.data(), va.data(), back.size()), 0)
      << "un-synced overwrite leaked into the durable image";

  // Same overwrite with a sync barrier: now the post-image must survive.
  ASSERT_TRUE(s->pwrite(fh, 0, vb).ok());
  ASSERT_EQ(s->sync(fh), PStatus::kOk);
  server.inject_crash(5);
  wait_restart(server);
  ASSERT_TRUE(s->pread(fh, 0, back).ok());
  EXPECT_EQ(std::memcmp(back.data(), vb.data(), back.size()), 0);
  EXPECT_EQ(server.crash_count(), 2u);
  s.reset();
}

// ---------------------------------------------------------------------------
// Lease reclaim: gen validation surfaces kStale => MPI_ERR_FILE
// ---------------------------------------------------------------------------

TEST(Chaos, StaleHandleAfterFileReplacedUnderRestart) {
  static_assert(mpiio::error_class(Err::kStale) == ErrClass::kFile);
  static_assert(mpiio::error_class(Err::kBusy) == ErrClass::kIo);

  sim::Fabric fabric;
  FlightDumpOnFailure flight(fabric);
  dafs::ServerConfig scfg;
  scfg.grace_period_ms = 5;
  dafs::Server server(fabric, fabric.add_node("filer"), scfg);
  server.start();
  const auto node = fabric.add_node("client");
  Actor actor("client", &fabric.node(node));
  ActorScope scope(actor);
  via::Nic nic(fabric, node, "nic");

  // Client A: two files open, a lock held on the surviving one.
  auto a = std::move(dafs::Session::connect(nic, chaos_cfg(5, 0)).value());
  auto keep = a->open("/keep.dat", dafs::kOpenCreate).value();
  auto doomed = a->open("/doomed.dat", dafs::kOpenCreate).value();
  const auto data = pattern(1024, 81);
  ASSERT_TRUE(a->pwrite(keep, 0, data).ok());
  ASSERT_EQ(a->sync(keep), PStatus::kOk);
  ASSERT_EQ(a->lock(keep, 0, 512, /*exclusive=*/true), PStatus::kOk);

  server.inject_crash(5);
  wait_restart(server);

  // Client B arrives after the restart and replaces /doomed.dat: same path,
  // new (ino, gen) incarnation.
  auto b = std::move(dafs::Session::connect(nic, chaos_cfg(5, 1)).value());
  ASSERT_EQ(b->remove("/doomed.dat"), PStatus::kOk);
  ASSERT_TRUE(b->open("/doomed.dat", dafs::kOpenCreate).ok());

  // A's next op triggers recovery: resume => kBadSession => lease reclaim.
  // /keep.dat revalidates (same gen) and its lock is re-acquired under
  // kLockReclaim; /doomed.dat fails gen validation and goes stale.
  std::vector<std::byte> back(data.size());
  ASSERT_TRUE(a->pread(keep, 0, back).ok());
  EXPECT_EQ(std::memcmp(back.data(), data.data(), back.size()), 0);
  EXPECT_TRUE(a->is_stale(doomed));
  EXPECT_FALSE(a->is_stale(keep));
  EXPECT_EQ(a->stale_count(), 1u);
  auto r = a->pread(doomed, 0, back);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), PStatus::kStale);
  EXPECT_EQ(mpiio::error_class(r.error()), ErrClass::kFile);
  EXPECT_GE(fabric.stats().get("dafs.session_reclaims"), 1u);
  EXPECT_GE(fabric.stats().get("dafs.stale_handles"), 1u);

  // The reclaimed lock is real: B's conflicting acquire is refused.
  while (server.in_grace()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto keep_b = b->open("/keep.dat").value();
  EXPECT_EQ(b->try_lock(keep_b, 0, 512, /*exclusive=*/true),
            PStatus::kLockConflict);
  a.reset();
  b.reset();
}

TEST(Chaos, StaleHandleRefusesInlineWriteToTheRenamedFile) {
  // During the restart client B renames /doomed.dat away and creates a new
  // file at its path. A's reclaim marks its handle stale, and every data
  // request on it answers kStale: the renamed file never sees A's bytes,
  // whichever transfer mode the request would have used.
  sim::Fabric fabric;
  FlightDumpOnFailure flight(fabric);
  dafs::ServerConfig scfg;
  scfg.grace_period_ms = 5;
  dafs::Server server(fabric, fabric.add_node("filer"), scfg);
  server.start();
  const auto node = fabric.add_node("client");
  Actor actor("client", &fabric.node(node));
  ActorScope scope(actor);
  via::Nic nic(fabric, node, "nic");

  auto a = std::move(dafs::Session::connect(nic, chaos_cfg(6, 0)).value());
  auto keep = a->open("/keep.dat", dafs::kOpenCreate).value();
  auto doomed = a->open("/doomed.dat", dafs::kOpenCreate).value();
  const auto data = pattern(1024, 82);
  ASSERT_TRUE(a->pwrite(keep, 0, data).ok());
  ASSERT_EQ(a->sync(keep), PStatus::kOk);

  server.inject_crash(5);
  wait_restart(server);

  auto b = std::move(dafs::Session::connect(nic, chaos_cfg(6, 1)).value());
  ASSERT_EQ(b->rename("/doomed.dat", "/moved.dat"), PStatus::kOk);
  ASSERT_TRUE(b->open("/doomed.dat", dafs::kOpenCreate).ok());

  // A's next op recovers the session and reclaims its leases.
  std::vector<std::byte> back(data.size());
  ASSERT_TRUE(a->pread(keep, 0, back).ok());
  ASSERT_TRUE(a->is_stale(doomed));

  auto expect_stale = [](const auto& r, const char* what) {
    ASSERT_FALSE(r.ok()) << what;
    EXPECT_EQ(r.error(), PStatus::kStale) << what;
  };
  expect_stale(a->pread(doomed, 0, back), "inline read");
  const auto big = pattern(8192, 83);
  expect_stale(a->pwrite(doomed, 0, big), "direct write");
  const auto small = pattern(1024, 84);
  expect_stale(a->pwrite(doomed, 0, small), "inline write");
  expect_stale(a->submit_pwrite(doomed, 0, small), "async inline write");

  auto moved = b->open("/moved.dat");
  ASSERT_TRUE(moved.ok());
  auto attrs = b->getattr(moved.value());
  ASSERT_TRUE(attrs.ok());
  EXPECT_EQ(attrs.value().size, 0u) << "A's bytes reached the renamed file";
  a.reset();
  b.reset();
}

// ---------------------------------------------------------------------------
// Overload: admission queue saturation => kBusy + backoff, bounded memory
// ---------------------------------------------------------------------------

TEST(Chaos, OverloadShedsWithBusyThenDrains) {
  sim::Fabric fabric;
  FlightDumpOnFailure flight(fabric);
  dafs::Server server(fabric, fabric.add_node("filer"));
  server.start();
  const auto node = fabric.add_node("client");
  Actor actor("client", &fabric.node(node));
  ActorScope scope(actor);
  via::Nic nic(fabric, node, "nic");
  dafs::MountSpec mspec = chaos_cfg(9, 0);
  mspec.endpoints[0].retry.max_busy_retries = 4;  // bounded, then kBusy
  auto s = std::move(dafs::Session::connect(nic, mspec).value());
  auto fh = s->open("/busy.dat", dafs::kOpenCreate).value();
  const auto data = pattern(1024, 91);
  ASSERT_TRUE(s->pwrite(fh, 0, data).ok());

  // Saturate: drain mode admits nothing but connection management, so every
  // retry hits kBusy + retry-after until the client's budget runs out.
  server.set_admission_limit(0);
  std::vector<std::byte> shed_buf(1024);
  auto r = s->pread(fh, 0, shed_buf);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), PStatus::kBusy);
  EXPECT_GE(fabric.stats().get("dafs.busy_shed"), 1u);
  EXPECT_GE(fabric.stats().get("dafs.busy_retries"), 1u);

  // The session survives shedding; lifting the limit drains the backlog.
  server.set_admission_limit(256);
  std::vector<std::byte> back(1024);
  ASSERT_TRUE(s->pread(fh, 0, back).ok());
  EXPECT_EQ(std::memcmp(back.data(), data.data(), back.size()), 0);

  // p99 service latency of *admitted* requests is in the histogram registry
  // (shed requests never reach it).
  const auto snap =
      fabric.histograms().get("dafs.server_service_ns").snapshot();
  EXPECT_GT(snap.count, 0u);
  EXPECT_GT(snap.quantile(0.99), 0u);
  EXPECT_GE(snap.quantile(0.99), snap.quantile(0.50));
  s.reset();
}

TEST(Chaos, ReplayCacheBoundedByBytes) {
  sim::Fabric fabric;
  FlightDumpOnFailure flight(fabric);
  dafs::ServerConfig scfg;
  scfg.replay_max_bytes = 256;  // a few header-sized responses
  dafs::Server server(fabric, fabric.add_node("filer"), scfg);
  server.start();
  const auto node = fabric.add_node("client");
  Actor actor("client", &fabric.node(node));
  ActorScope scope(actor);
  via::Nic nic(fabric, node, "nic");
  auto s = std::move(dafs::Session::connect(nic).value());
  auto fh = s->open("/rb.dat", dafs::kOpenCreate).value();

  // Keep all credit slots in flight so the piggybacked cumulative ack cannot
  // advance: the byte cap alone must bound the cache.
  const auto data = pattern(256, 101);
  for (int round = 0; round < 4; ++round) {
    std::vector<dafs::OpId> ops;
    for (int i = 0; i < 8; ++i) {
      auto op = s->submit_pwrite(fh, static_cast<std::uint64_t>(i) * 256,
                                 std::span<const std::byte>(data));
      ASSERT_TRUE(op.ok());
      ops.push_back(op.value());
    }
    ASSERT_EQ(s->wait_all(ops), PStatus::kOk);
  }
  EXPECT_LE(server.replay_cache_bytes(), scfg.replay_max_bytes);
  EXPECT_GE(fabric.stats().get("dafs.replay_forced_evictions"), 1u);
  // Acks did run once slots drained between rounds.
  EXPECT_GE(fabric.stats().get("dafs.replay_acked_evictions"), 1u);
  s.reset();
}

// ---------------------------------------------------------------------------
// Deadlines: propagated end-to-end, expired requests shed without retry
// ---------------------------------------------------------------------------

TEST(Chaos, ExpiredDeadlineIsShedNotRetried) {
  sim::Fabric fabric;
  FlightDumpOnFailure flight(fabric);
  dafs::Server server(fabric, fabric.add_node("filer"));
  server.start();
  const auto node = fabric.add_node("client");
  Actor actor("client", &fabric.node(node));
  ActorScope scope(actor);
  via::Nic nic(fabric, node, "nic");
  auto s = std::move(dafs::Session::connect(nic).value());
  auto fh = s->open("/dl.dat", dafs::kOpenCreate).value();
  const auto data = pattern(1024, 111);
  ASSERT_TRUE(s->pwrite(fh, 0, data).ok());

  // A 1 ns budget cannot survive the wire: the server's (causally synced)
  // clock is past the stamped deadline on arrival, so the request is shed
  // with kBusy and a zero retry hint — the client must not burn retries.
  s->set_deadline(1);
  const auto retries_before = fabric.stats().get("dafs.busy_retries");
  std::vector<std::byte> back(1024);
  auto r = s->pread(fh, 0, back);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), PStatus::kBusy);
  EXPECT_GE(fabric.stats().get("dafs.deadline_expired"), 1u);
  EXPECT_EQ(fabric.stats().get("dafs.busy_retries"), retries_before);

  // Clearing the deadline restores service; a generous one is harmless.
  s->set_deadline(0);
  ASSERT_TRUE(s->pread(fh, 0, back).ok());
  EXPECT_EQ(std::memcmp(back.data(), data.data(), back.size()), 0);
  s->set_deadline(10'000'000'000ull);  // 10 s virtual: never expires here
  ASSERT_TRUE(s->pread(fh, 0, back).ok());
  s.reset();
}

TEST(Chaos, DeadlineHintFlowsThroughMpiIo) {
  sim::Fabric fabric;
  FlightDumpOnFailure flight(fabric);
  dafs::Server server(fabric, fabric.add_node("filer"));
  server.start();
  mpi::WorldConfig wcfg;
  wcfg.nprocs = 2;
  wcfg.fabric = &fabric;
  wcfg.name = "dl";
  mpi::World world(wcfg);
  world.run([&](Comm& c) {
    via::Nic nic(fabric, world.node_of(c.rank()), "cli");
    auto client = std::move(dafs::Client::connect(nic).value());
    Info info;
    info.set("dafs_deadline_ms", std::uint64_t{5000});
    auto f = std::move(File::open(c, "/hint.dat",
                                  mpiio::kModeCreate | mpiio::kModeRdwr, info,
                                  mpiio::dafs_driver(*client))
                           .value());
    // The hint reached the transport: every request now carries the budget.
    EXPECT_EQ(client->deadline(), 5000ull * 1'000'000);
    const auto data = pattern(kChunk, 121 + c.rank());
    ASSERT_TRUE(f->write_at_all(c.rank() * kChunk, data.data(), kChunk,
                                Datatype::byte())
                    .ok());
    std::vector<std::byte> back(kChunk);
    ASSERT_TRUE(f->read_at_all(c.rank() * kChunk, back.data(), kChunk,
                               Datatype::byte())
                    .ok());
    EXPECT_EQ(std::memcmp(back.data(), data.data(), kChunk), 0);
    f->close();
  });
}

}  // namespace
