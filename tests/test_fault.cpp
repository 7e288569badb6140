#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <span>
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

/// \file test_fault.cpp
/// Fault-injection stress suite (ctest label `fault`): the seeded FaultPlan
/// drives transfer drops, scheduled connection breaks, registration failures
/// and storage errors against DAFS sessions and the MPI-IO layers above, and
/// every scenario must end with byte-exact file contents, exactly-once side
/// effects, and — when recovery is exhausted — the same MPI error class on
/// every rank instead of a hang.

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

std::vector<std::byte> pattern(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng.next() & 0xff);
  return out;
}

/// Mount tuned for tests: short (virtual-time) backoffs, per-rank jitter
/// seeds.
dafs::MountSpec recovery_cfg(std::uint64_t seed, int rank) {
  dafs::RetryPolicy retry;
  retry.backoff_ns = 20'000;
  retry.backoff_cap_ns = 2'000'000;
  retry.jitter_seed = seed * 131 + static_cast<std::uint64_t>(rank);
  return dafs::single_mount("dafs", retry);
}

// ---------------------------------------------------------------------------
// FaultPlan determinism
// ---------------------------------------------------------------------------

TEST(Fault, SameSeedSameSchedule) {
  sim::Fabric fabric;
  const auto a = fabric.add_node("a");
  const auto b = fabric.add_node("b");
  auto& plan = fabric.faults();

  auto sample = [&](std::uint64_t seed) {
    plan.arm(seed);
    plan.set_drop_prob(0.4);
    plan.set_duplicate_prob(0.2);
    std::vector<int> verdicts;
    for (int i = 0; i < 64; ++i) {
      const auto f = plan.on_transfer("conn", a, b);
      verdicts.push_back((f.drop ? 1 : 0) | (f.duplicate ? 2 : 0));
    }
    return verdicts;
  };

  const auto first = sample(7);
  const auto again = sample(7);
  const auto other = sample(8);
  EXPECT_EQ(first, again);
  EXPECT_NE(first, other);
  plan.clear();
}

// ---------------------------------------------------------------------------
// Seed x fault-mode sweep against independent and collective MPI-IO
// ---------------------------------------------------------------------------

enum class Mode { kDrop, kDisconnect, kRegFail };

struct SweepCounters {
  std::uint64_t recoveries = 0;
  std::uint64_t conn_breaks = 0;
  std::uint64_t transfer_drops = 0;
  std::uint64_t replay_hits = 0;
  std::uint64_t reg_failures = 0;
};

/// One full scenario: a world of MPI ranks opens two files over DAFS, runs a
/// collective and an independent write and read with the fault plan armed,
/// then disarms it and verifies every byte — through MPI-IO and with a raw
/// whole-file read. Operations that surface an (agreed) error are retried by
/// the application, which must converge once recovery or the armed fault
/// budget runs out.
SweepCounters run_faulted_world(Mode mode, std::uint64_t seed) {
  // Registration faults have no node/connection filter, so they would also
  // hit the MPI runtime's transfer registrations; that mode runs single-rank
  // (no rank-to-rank traffic) and still exercises both MPI-IO entry points.
  const int nprocs = mode == Mode::kRegFail ? 1 : 4;

  sim::Fabric fabric;
  dafs::Server server(fabric, fabric.add_node("filer"));
  server.start();

  mpi::WorldConfig wcfg;
  wcfg.nprocs = nprocs;
  wcfg.fabric = &fabric;
  wcfg.name = "fw";
  mpi::World world(wcfg);
  world.run([&](Comm& c) {
    via::Nic nic(fabric, world.node_of(c.rank()), "cli");
    auto client =
        std::move(dafs::Client::connect(nic, recovery_cfg(seed, c.rank()))
                      .value());
    auto fc = std::move(File::open(c, "/col.dat",
                                   mpiio::kModeCreate | mpiio::kModeRdwr,
                                   Info{}, mpiio::dafs_driver(*client))
                            .value());
    auto fi = std::move(File::open(c, "/ind.dat",
                                   mpiio::kModeCreate | mpiio::kModeRdwr,
                                   Info{}, mpiio::dafs_driver(*client))
                            .value());

    c.barrier();
    if (c.rank() == 0) {
      auto& plan = fabric.faults();
      plan.arm(seed);
      switch (mode) {
        case Mode::kDrop:
          // Only DAFS connections: MPI rank-to-rank traffic stays clean.
          plan.restrict_to_conn("dafs");
          plan.set_drop_prob(0.05);
          break;
        case Mode::kDisconnect:
          plan.break_conn_after("dafs", 5 + seed * 3);
          break;
        case Mode::kRegFail:
          plan.fail_next_registrations(1 + seed % 3);
          break;
      }
    }
    c.barrier();

    const std::uint64_t off = c.rank() * kChunk;
    const auto dc = pattern(kChunk, 1000 + seed * 10 + c.rank());
    const auto di = pattern(kChunk, 2000 + seed * 10 + c.rank());

    // Collective retries are symmetric: finish_collective agrees on the
    // status, so every rank sees the same verdict each attempt.
    bool ok = false;
    for (int t = 0; t < 6 && !ok; ++t) {
      ok = fc->write_at_all(off, dc.data(), kChunk, Datatype::byte()).ok();
    }
    ASSERT_TRUE(ok) << "collective write, seed " << seed;

    ok = false;
    for (int t = 0; t < 6 && !ok; ++t) {
      ok = fi->write_at(off, di.data(), kChunk, Datatype::byte()).ok();
    }
    ASSERT_TRUE(ok) << "independent write, seed " << seed;

    // Reads under the same fault plan: recovery must hand back exact bytes.
    std::vector<std::byte> back(kChunk);
    ok = false;
    for (int t = 0; t < 6 && !ok; ++t) {
      ok = fc->read_at_all(off, back.data(), kChunk, Datatype::byte()).ok();
    }
    ASSERT_TRUE(ok) << "collective read, seed " << seed;
    EXPECT_EQ(std::memcmp(back.data(), dc.data(), kChunk), 0);

    ok = false;
    for (int t = 0; t < 6 && !ok; ++t) {
      ok = fi->read_at(off, back.data(), kChunk, Datatype::byte()).ok();
    }
    ASSERT_TRUE(ok) << "independent read, seed " << seed;
    EXPECT_EQ(std::memcmp(back.data(), di.data(), kChunk), 0);

    c.barrier();
    if (c.rank() == 0) fabric.faults().clear();
    c.barrier();

    fc->close();
    fi->close();
  });

  // Raw whole-file verification with a pristine session.
  {
    const auto node = fabric.add_node("verify");
    Actor actor("verify", &fabric.node(node));
    ActorScope scope(actor);
    via::Nic nic(fabric, node, "vnic");
    auto s = std::move(dafs::Session::connect(nic).value());
    for (const char* path : {"/col.dat", "/ind.dat"}) {
      auto fh = s->open(path).value();
      const std::uint64_t base =
          std::string_view(path) == "/col.dat" ? 1000 : 2000;
      EXPECT_EQ(s->getattr(fh).value().size,
                static_cast<std::uint64_t>(nprocs) * kChunk);
      std::vector<std::byte> all(static_cast<std::size_t>(nprocs) * kChunk);
      auto raw = s->pread(fh, 0, all);
      EXPECT_TRUE(raw.ok());
      if (!raw.ok()) continue;
      for (int r = 0; r < nprocs; ++r) {
        const auto expect = pattern(kChunk, base + seed * 10 + r);
        EXPECT_EQ(std::memcmp(all.data() + r * kChunk, expect.data(), kChunk),
                  0)
            << path << " rank " << r << " seed " << seed;
      }
    }
    s.reset();
  }

  SweepCounters out;
  out.recoveries = fabric.stats().get("dafs.recoveries");
  out.conn_breaks = fabric.stats().get("fault.conn_breaks");
  out.transfer_drops = fabric.stats().get("fault.transfer_drops");
  out.replay_hits = fabric.stats().get("dafs.replay_hits");
  out.reg_failures = fabric.stats().get("fault.reg_failures");
  return out;
}

TEST(Fault, SeedSweepTransferDrops) {
  SweepCounters total;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto c = run_faulted_world(Mode::kDrop, seed);
    total.recoveries += c.recoveries;
    total.transfer_drops += c.transfer_drops;
  }
  // Dropped reliable transfers break the connection; across 8 seeds at 5%
  // the recovery path must have run.
  EXPECT_GE(total.transfer_drops, 1u);
  EXPECT_GE(total.recoveries, 1u);
}

TEST(Fault, SeedSweepDisconnectAfterN) {
  SweepCounters total;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto c = run_faulted_world(Mode::kDisconnect, seed);
    total.recoveries += c.recoveries;
    total.conn_breaks += c.conn_breaks;
  }
  EXPECT_GE(total.conn_breaks, 4u);
  EXPECT_GE(total.recoveries, 4u);
}

TEST(Fault, SeedSweepRegistrationFailures) {
  SweepCounters total;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto c = run_faulted_world(Mode::kRegFail, seed);
    total.reg_failures += c.reg_failures;
  }
  EXPECT_GE(total.reg_failures, 8u);
}

// ---------------------------------------------------------------------------
// Acceptance: 4-rank collective write across a mid-transfer VI break
// ---------------------------------------------------------------------------

TEST(Fault, CollectiveWriteSurvivesMidTransferBreak) {
  std::uint64_t breaks_total = 0;
  std::uint64_t replay_total = 0;
  // Sweep the break position across the first request/response completions
  // of the collective's disk phase, so the connection dies at every point of
  // a write's life: request sent, request received, response sent.
  for (std::uint64_t nth = 1; nth <= 14; ++nth) {
    sim::Fabric fabric;
    dafs::Server server(fabric, fabric.add_node("filer"));
    server.start();
    mpi::WorldConfig wcfg;
    wcfg.nprocs = 4;
    wcfg.fabric = &fabric;
    wcfg.name = "acc";
    mpi::World world(wcfg);
    world.run([&](Comm& c) {
      via::Nic nic(fabric, world.node_of(c.rank()), "cli");
      auto client =
          std::move(dafs::Client::connect(nic, recovery_cfg(nth, c.rank()))
                        .value());
      auto f = std::move(File::open(c, "/acc.dat",
                                    mpiio::kModeCreate | mpiio::kModeRdwr,
                                    Info{}, mpiio::dafs_driver(*client))
                             .value());
      c.barrier();
      // Armed after open: the Nth completion lands inside the collective.
      if (c.rank() == 0) {
        fabric.faults().arm(nth);
        fabric.faults().break_conn_after("dafs", nth);
      }
      c.barrier();

      const auto data = pattern(kChunk, 500 + nth * 10 + c.rank());
      auto w = f->write_at_all(c.rank() * kChunk, data.data(), kChunk,
                               Datatype::byte());
      ASSERT_TRUE(w.ok()) << "nth=" << nth << " rank=" << c.rank();
      EXPECT_EQ(w.value(), kChunk);

      c.barrier();
      if (c.rank() == 0) fabric.faults().clear();
      c.barrier();

      std::vector<std::byte> back(kChunk);
      ASSERT_TRUE(
          f->read_at_all(c.rank() * kChunk, back.data(), kChunk,
                         Datatype::byte())
              .ok());
      EXPECT_EQ(std::memcmp(back.data(), data.data(), kChunk), 0);
      f->close();
    });
    breaks_total += fabric.stats().get("fault.conn_breaks");
    replay_total += fabric.stats().get("dafs.replay_hits") +
                    server.store().stats().get("fstore.dup_filter_hits");
  }
  // The sweep must actually have broken connections, and at least one break
  // must have landed after the server executed a request but before the
  // client saw the response. The retransmission is then served by one of the
  // two exactly-once backstops: the per-session replay cache when the session
  // survived the break, or the durable (client_id, seq) dup filter when the
  // break forced a full session reclaim first — which of the two fires
  // depends on whether the server reaped the session during the client's
  // reconnect backoff, so the test must accept either.
  EXPECT_GE(breaks_total, 4u);
  EXPECT_GE(replay_total, 1u);
}

// ---------------------------------------------------------------------------
// Exactly-once side effects
// ---------------------------------------------------------------------------

TEST(Fault, RetransmitAfterBreakIsExactlyOnce) {
  std::uint64_t replay_total = 0;
  for (std::uint64_t nth = 1; nth <= 16; ++nth) {
    sim::Fabric fabric;
    dafs::Server server(fabric, fabric.add_node("filer"));
    server.start();
    const auto node = fabric.add_node("client");
    Actor actor("client", &fabric.node(node));
    ActorScope scope(actor);
    via::Nic nic(fabric, node, "nic");
    auto s = std::move(
        dafs::Session::connect(nic, recovery_cfg(nth, 0)).value());
    ASSERT_EQ(s->set_counter("ctr", 0), PStatus::kOk);

    fabric.faults().arm(nth);
    fabric.faults().break_conn_after("dafs", nth);
    for (int i = 0; i < 10; ++i) {
      auto r = s->fetch_add("ctr", 7);
      ASSERT_TRUE(r.ok()) << "nth=" << nth << " op " << i;
    }
    fabric.faults().clear();

    // Whatever point the connection broke at — before the request arrived,
    // after execution but before the response, after the response — the
    // counter advanced exactly once per fetch_add.
    EXPECT_EQ(s->fetch_add("ctr", 0).value(), 70u) << "nth=" << nth;
    // A retransmit of an already-executed fetch_add is absorbed by either
    // exactly-once backstop: the session replay cache (session survived) or
    // the durable dup filter (session was reaped and reclaimed while the
    // client backed off — common under sanitizer-slowed runs).
    replay_total += fabric.stats().get("dafs.replay_hits") +
                    server.store().stats().get("fstore.dup_filter_hits");
    s.reset();
  }
  EXPECT_GE(replay_total, 1u);
}

TEST(Fault, DuplicateDeliveryIsExactlyOnce) {
  sim::Fabric fabric;
  dafs::Server server(fabric, fabric.add_node("filer"));
  server.start();
  const auto node = fabric.add_node("client");
  Actor actor("client", &fabric.node(node));
  ActorScope scope(actor);
  via::Nic nic(fabric, node, "nic");
  auto s = std::move(dafs::Session::connect(nic).value());
  ASSERT_EQ(s->set_counter("ctr", 0), PStatus::kOk);

  auto& plan = fabric.faults();
  plan.arm(11);
  plan.restrict_to_conn("dafs");
  plan.set_duplicate_prob(1.0);  // every message delivered twice

  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(s->fetch_add("ctr", 10).ok());
  }
  plan.clear();

  EXPECT_EQ(s->fetch_add("ctr", 0).value(), 100u);
  // Duplicate requests were answered from the replay cache, and duplicate
  // responses were recognized as stale and dropped.
  EXPECT_GE(fabric.stats().get("dafs.replay_hits"), 1u);
  EXPECT_GE(fabric.stats().get("dafs.stale_responses"), 1u);
  s.reset();
}

TEST(Fault, RecoveryWithEveryCreditInFlight) {
  // Every credit is in flight when the connection dies, so recovery's own
  // requests — the resume, and after a restart the fresh connect, the
  // re-open and the re-lock — must ride a slot outside the credit window.
  constexpr std::size_t kCredits = 4;
  constexpr std::uint64_t kWrite = 64 * 1024;
  const auto data = pattern(kCredits * kWrite, 91);
  for (const bool restart : {false, true}) {
    SCOPED_TRACE(restart ? "reclaim" : "resume");
    sim::Fabric fabric;
    dafs::ServerConfig scfg;
    scfg.grace_period_ms = 5;
    dafs::Server server(fabric, fabric.add_node("filer"), scfg);
    server.start();
    const auto node = fabric.add_node("client");
    Actor actor("client", &fabric.node(node));
    ActorScope scope(actor);
    via::Nic nic(fabric, node, "nic");
    dafs::MountSpec spec = recovery_cfg(7, 0);
    spec.client.credits = kCredits;
    auto s = std::move(dafs::Session::connect(nic, spec).value());
    const dafs::Fh fh = s->open("/credits", dafs::kOpenCreate).value();
    if (restart) {
      ASSERT_EQ(s->lock(fh, 0, data.size(), /*exclusive=*/true),
                PStatus::kOk);
    }

    fabric.faults().arm(7);
    if (restart) {
      fabric.faults().crash_server_after_requests(2, /*restart_delay_ms=*/5);
    } else {
      fabric.faults().break_conn_after("dafs", 3);
    }
    std::vector<dafs::OpId> ops;
    for (std::size_t i = 0; i < kCredits; ++i) {
      auto op = s->submit_pwrite(
          fh, i * kWrite, std::span(data).subspan(i * kWrite, kWrite));
      ASSERT_TRUE(op.ok()) << "write " << i;
      ops.push_back(op.value());
    }
    for (const dafs::OpId op : ops) EXPECT_EQ(s->wait(op), PStatus::kOk);
    fabric.faults().clear();
    const std::uint64_t retransmits = fabric.stats().get("dafs.retransmits");
    EXPECT_GE(retransmits, 1u);
    EXPECT_EQ(fabric.stats().get("dafs.session_reclaims"), restart ? 1u : 0u);

    // A resumed session loses nothing. After a restart, a write the filer
    // acknowledged before the crash was never synced and may read back as
    // zeros; every retransmitted one landed on the reborn filer.
    std::size_t zeroed = 0;
    for (std::size_t i = 0; i < kCredits; ++i) {
      std::vector<std::byte> back(kWrite, std::byte{0xAA});
      ASSERT_EQ(s->pread(fh, i * kWrite, back).value(), kWrite);
      const bool own =
          std::memcmp(back.data(), data.data() + i * kWrite, kWrite) == 0;
      const bool zeros = std::all_of(back.begin(), back.end(), [](std::byte b) {
        return b == std::byte{0};
      });
      EXPECT_TRUE(own || (restart && zeros)) << "chunk " << i;
      zeroed += own ? 0 : 1;
    }
    EXPECT_LE(zeroed + std::min<std::uint64_t>(retransmits, kCredits),
              kCredits);

    if (restart) {
      // The re-lock is real: another session's acquire is refused once the
      // grace window no longer sheds it.
      while (server.in_grace()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      auto other =
          std::move(dafs::Session::connect(nic, recovery_cfg(7, 1)).value());
      const dafs::Fh ofh = other->open("/credits").value();
      EXPECT_EQ(other->try_lock(ofh, 0, data.size(), /*exclusive=*/true),
                PStatus::kLockConflict);
      other.reset();
    }
    s.reset();
  }
}

// ---------------------------------------------------------------------------
// Resource and storage faults surface as typed errors
// ---------------------------------------------------------------------------

TEST(Fault, RegistrationFailureSurfacesAsNoResource) {
  static_assert(mpiio::error_class(Err::kNoResource) == ErrClass::kNoSpace);
  static_assert(mpiio::error_class(Err::kConnLost) == ErrClass::kIo);
  static_assert(mpiio::error_class(Err::kLockConflict) == ErrClass::kAccess);

  sim::Fabric fabric;
  dafs::Server server(fabric, fabric.add_node("filer"));
  server.start();
  const auto node = fabric.add_node("client");
  Actor actor("client", &fabric.node(node));
  ActorScope scope(actor);
  via::Nic nic(fabric, node, "nic");
  auto s = std::move(dafs::Session::connect(nic).value());
  auto fh = s->open("/r.dat", dafs::kOpenCreate).value();

  const auto data = pattern(64 * 1024, 21);  // direct path: needs registration
  fabric.faults().arm(21);
  fabric.faults().fail_next_registrations(1);
  auto r = s->pwrite(fh, 0, data);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), PStatus::kNoResource);
  EXPECT_EQ(mpiio::error_class(r.error()), ErrClass::kNoSpace);
  EXPECT_EQ(fabric.stats().get("fault.reg_failures"), 1u);

  // The session survives a resource failure; the retry registers cleanly.
  ASSERT_TRUE(s->pwrite(fh, 0, data).ok());
  fabric.faults().clear();
  std::vector<std::byte> back(data.size());
  ASSERT_TRUE(s->pread(fh, 0, back).ok());
  EXPECT_EQ(std::memcmp(back.data(), data.data(), back.size()), 0);
  s.reset();
}

TEST(Fault, FstoreFaultsSurfaceAsIoErrors) {
  sim::Fabric fabric;
  dafs::Server server(fabric, fabric.add_node("filer"));
  server.start();
  const auto node = fabric.add_node("client");
  Actor actor("client", &fabric.node(node));
  ActorScope scope(actor);
  via::Nic nic(fabric, node, "nic");
  auto s = std::move(dafs::Session::connect(nic).value());
  auto fh = s->open("/io.dat", dafs::kOpenCreate).value();
  const auto data = pattern(64 * 1024, 31);
  ASSERT_TRUE(s->pwrite(fh, 0, data).ok());

  // Outright read failure: inline and direct paths both map to kIo.
  std::vector<std::byte> back(2048);
  fabric.faults().arm(31);
  fabric.faults().fail_next_fstore_reads(1);
  auto r = s->pread(fh, 0, back);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), PStatus::kIo);
  EXPECT_EQ(mpiio::error_class(r.error()), ErrClass::kIo);

  back.resize(64 * 1024);
  fabric.faults().fail_next_fstore_reads(1);
  auto rd = s->pread(fh, 0, back);  // direct path
  ASSERT_FALSE(rd.ok());
  EXPECT_EQ(rd.error(), PStatus::kIo);
  EXPECT_GE(server.store().stats().get("fault.fstore_read_errors"), 2u);

  // Short reads: fewer bytes than asked, never zero, contents still exact.
  fabric.faults().set_short_read_prob(1.0);
  back.assign(2048, std::byte{0});
  auto sr = s->pread(fh, 0, back);
  ASSERT_TRUE(sr.ok());
  EXPECT_GE(sr.value(), 1u);
  EXPECT_LT(sr.value(), 2048u);
  EXPECT_EQ(std::memcmp(back.data(), data.data(), sr.value()), 0);

  fabric.faults().clear();
  back.assign(64 * 1024, std::byte{0});
  ASSERT_TRUE(s->pread(fh, 0, back).ok());
  EXPECT_EQ(std::memcmp(back.data(), data.data(), back.size()), 0);
  s.reset();
}

// ---------------------------------------------------------------------------
// Exhausted retries: every rank agrees on the error class, nobody hangs
// ---------------------------------------------------------------------------

TEST(Fault, ExhaustedRetriesAgreeOnErrorClass) {
  sim::Fabric fabric;
  dafs::Server server(fabric, fabric.add_node("filer"));
  server.start();
  mpi::WorldConfig wcfg;
  wcfg.nprocs = 4;
  wcfg.fabric = &fabric;
  wcfg.name = "ex";
  mpi::World world(wcfg);

  std::array<ErrClass, 4> wclass{};
  std::array<ErrClass, 4> rclass{};
  world.run([&](Comm& c) {
    dafs::MountSpec mspec = recovery_cfg(99, c.rank());
    mspec.endpoints[0].retry.attempts = 2;  // exhaust quickly
    mspec.endpoints[0].retry.backoff_ns = 1'000;
    mspec.endpoints[0].retry.backoff_cap_ns = 4'000;
    via::Nic nic(fabric, world.node_of(c.rank()), "cli");
    auto client = std::move(dafs::Client::connect(nic, mspec).value());
    auto f = std::move(File::open(c, "/dead.dat",
                                  mpiio::kModeCreate | mpiio::kModeRdwr,
                                  Info{}, mpiio::dafs_driver(*client))
                           .value());
    c.barrier();
    if (c.rank() == 0) {
      fabric.faults().arm(99);
      // Every 2nd completion on any DAFS connection kills that connection,
      // including during resume handshakes: recovery cannot win.
      fabric.faults().break_conn_after("dafs", 2, /*repeat=*/true);
    }
    c.barrier();

    const auto data = pattern(kChunk, 600 + c.rank());
    auto w = f->write_at_all(c.rank() * kChunk, data.data(), kChunk,
                             Datatype::byte());
    EXPECT_FALSE(w.ok());
    wclass[static_cast<std::size_t>(c.rank())] =
        w.ok() ? ErrClass::kSuccess : mpiio::error_class(w.error());

    // The collective read path must also exit collectively — a failed
    // aggregator still feeds the reply exchange instead of stranding peers.
    std::vector<std::byte> back(kChunk);
    auto r = f->read_at_all(c.rank() * kChunk, back.data(), kChunk,
                            Datatype::byte());
    EXPECT_FALSE(r.ok());
    rclass[static_cast<std::size_t>(c.rank())] =
        r.ok() ? ErrClass::kSuccess : mpiio::error_class(r.error());

    c.barrier();
    if (c.rank() == 0) fabric.faults().clear();
    // Destructors disconnect dead sessions; errors are counted, not thrown.
  });

  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(wclass[0], wclass[static_cast<std::size_t>(i)]);
    EXPECT_EQ(rclass[0], rclass[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(wclass[0], ErrClass::kIo);  // kConnLost => MPI_ERR_IO
  EXPECT_EQ(rclass[0], ErrClass::kIo);
  EXPECT_GE(fabric.stats().get("dafs.recovery_failures"), 1u);
}

}  // namespace
