#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "dafs/client.hpp"
#include "dafs/server.hpp"
#include "dafs/session.hpp"
#include "mpiio/ad_dafs.hpp"
#include "mpiio/file.hpp"
#include "nfs/client.hpp"
#include "nfs/server.hpp"
#include "sim/rng.hpp"

namespace {

using dafs::PStatus;
using mpi::Comm;
using mpi::Datatype;
using mpiio::Err;
using mpiio::File;
using mpiio::Info;
using sim::Actor;
using sim::ActorScope;

std::vector<std::byte> pattern(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng.next() & 0xff);
  return out;
}

// ---------------------------------------------------------------------------
// Disk model end to end
// ---------------------------------------------------------------------------

TEST(Integration, ColdCacheReadsPayDiskWarmReadsDoNot) {
  dafs::ServerConfig scfg;
  scfg.store.disk_enabled = true;
  scfg.store.cache_chunks = 1024;
  sim::Fabric fabric;
  dafs::Server server(fabric, fabric.add_node("filer"), scfg);
  server.start();
  const auto node = fabric.add_node("client");
  Actor actor("client", &fabric.node(node));
  ActorScope scope(actor);
  via::Nic nic(fabric, node, "nic");
  auto s = std::move(dafs::Session::connect(nic).value());
  auto fh = s->open("/cold.dat", dafs::kOpenCreate).value();
  auto data = pattern(1 << 20, 1);
  ASSERT_TRUE(s->pwrite(fh, 0, data).ok());  // populates the cache

  // Evict by writing a second, much larger file.
  auto fh2 = s->open("/streamer.dat", dafs::kOpenCreate).value();
  auto big = pattern(8 << 20, 2);
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(s->pwrite(fh2, static_cast<std::uint64_t>(i) * big.size(), big)
                    .ok());
  }

  std::vector<std::byte> back(1 << 20);
  const sim::Time t0 = actor.now();
  ASSERT_TRUE(s->pread(fh, 0, back).ok());  // cold: disk misses
  const sim::Time cold = actor.now() - t0;
  EXPECT_EQ(std::memcmp(back.data(), data.data(), back.size()), 0);

  const sim::Time t1 = actor.now();
  ASSERT_TRUE(s->pread(fh, 0, back).ok());  // warm: cache hits
  const sim::Time warm = actor.now() - t1;

  // 16 chunk misses at >=5 ms each dominate the cold read.
  EXPECT_GT(cold, warm * 5);
  EXPECT_GT(server.store().stats().get("fstore.cache_misses"), 0u);
  EXPECT_GT(server.store().stats().get("fstore.cache_evictions"), 0u);
  s.reset();
}

// ---------------------------------------------------------------------------
// Failure injection
// ---------------------------------------------------------------------------

TEST(Integration, DafsServerStopFailsClientCleanly) {
  sim::Fabric fabric;
  auto server = std::make_unique<dafs::Server>(fabric, fabric.add_node("filer"));
  server->start();
  const auto node = fabric.add_node("client");
  Actor actor("client", &fabric.node(node));
  ActorScope scope(actor);
  via::Nic nic(fabric, node, "nic");
  auto s = std::move(dafs::Session::connect(nic).value());
  auto fh = s->open("/f", dafs::kOpenCreate).value();
  auto data = pattern(64 * 1024, 3);
  ASSERT_TRUE(s->pwrite(fh, 0, data).ok());

  server->stop();  // tears down sessions; client VIs flushed

  // Every subsequent operation must fail promptly, never hang.
  auto r = s->pwrite(fh, 0, data);
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(s->getattr(fh).ok());
  EXPECT_FALSE(s->open("/g", dafs::kOpenCreate).ok());
  s.reset();
}

TEST(Integration, NfsServerStopFailsClientCleanly) {
  sim::Fabric fabric;
  auto server = std::make_unique<nfs::Server>(fabric, fabric.add_node("srv"));
  server->start();
  const auto node = fabric.add_node("client");
  Actor actor("client", &fabric.node(node));
  ActorScope scope(actor);
  auto c = std::move(nfs::Client::connect(fabric, node).value());
  auto ino = c->open("/f", nfs::kOpenCreate).value();
  auto data = pattern(16 * 1024, 4);
  ASSERT_TRUE(c->pwrite(ino, 0, data).ok());

  server.reset();  // connection torn down

  std::vector<std::byte> back(1024);
  EXPECT_FALSE(c->pread(ino, 0, back).ok());
  EXPECT_FALSE(c->getattr(ino).ok());
}

TEST(Integration, DafsSessionSurvivesPeerSessionTeardown) {
  sim::Fabric fabric;
  dafs::Server server(fabric, fabric.add_node("filer"));
  server.start();
  const auto node = fabric.add_node("client");
  Actor actor("client", &fabric.node(node));
  ActorScope scope(actor);
  via::Nic nic(fabric, node, "nic");
  auto s1 = std::move(dafs::Session::connect(nic).value());
  auto s2 = std::move(dafs::Session::connect(nic).value());
  auto fh = s1->open("/shared", dafs::kOpenCreate).value();
  auto data = pattern(32 * 1024, 5);
  ASSERT_TRUE(s1->pwrite(fh, 0, data).ok());
  s1.reset();  // one session goes away
  // The other session is unaffected.
  auto fh2 = s2->open("/shared").value();
  std::vector<std::byte> back(32 * 1024);
  ASSERT_TRUE(s2->pread(fh2, 0, back).ok());
  EXPECT_EQ(std::memcmp(back.data(), data.data(), back.size()), 0);
  s2.reset();
}

// ---------------------------------------------------------------------------
// Atomic mode under contention
// ---------------------------------------------------------------------------

TEST(Integration, AtomicModeSerializesWholeRangeAccess) {
  sim::Fabric fabric;
  dafs::Server server(fabric, fabric.add_node("filer"));
  server.start();

  constexpr std::uint64_t kRange = 128 * 1024;
  constexpr int kRounds = 12;
  std::atomic<bool> stop{false};
  std::atomic<int> mixed{0};

  // Writer: repeatedly fills the range with a round-stamped byte under an
  // exclusive whole-range lock (what MPI-IO atomic mode does).
  std::thread writer([&] {
    const auto node = fabric.add_node("writer");
    Actor actor("writer", &fabric.node(node));
    ActorScope scope(actor);
    via::Nic nic(fabric, node, "nic-w");
    auto s = std::move(dafs::Session::connect(nic).value());
    auto fh = s->open("/atomic.dat", dafs::kOpenCreate).value();
    std::vector<std::byte> buf(kRange);
    for (int round = 0; round < kRounds; ++round) {
      std::fill(buf.begin(), buf.end(), std::byte(round & 0xff));
      ASSERT_EQ(s->lock(fh, 0, kRange, true), PStatus::kOk);
      ASSERT_TRUE(s->pwrite(fh, 0, buf).ok());
      ASSERT_EQ(s->unlock(fh, 0, kRange), PStatus::kOk);
    }
    stop.store(true);
    s.reset();
  });

  // Reader: under a shared lock, the range must always be uniform.
  std::thread reader([&] {
    const auto node = fabric.add_node("reader");
    Actor actor("reader", &fabric.node(node));
    ActorScope scope(actor);
    via::Nic nic(fabric, node, "nic-r");
    auto s = std::move(dafs::Session::connect(nic).value());
    dafs::Fh fh;
    while (!fh.valid()) {
      auto r = s->open("/atomic.dat");
      if (r.ok()) fh = r.value();
    }
    std::vector<std::byte> buf(kRange);
    while (!stop.load()) {
      if (s->lock(fh, 0, kRange, false) != PStatus::kOk) continue;
      auto got = s->pread(fh, 0, buf);
      s->unlock(fh, 0, kRange);
      if (!got.ok() || got.value() == 0) continue;
      const std::byte first = buf[0];
      for (std::uint64_t i = 0; i < got.value(); i += 4097) {
        if (buf[i] != first) {
          ++mixed;
          break;
        }
      }
    }
    s.reset();
  });

  writer.join();
  reader.join();
  EXPECT_EQ(mixed.load(), 0);
}

// ---------------------------------------------------------------------------
// Multi-worker server
// ---------------------------------------------------------------------------

TEST(Integration, MultiWorkerServerServesConcurrentSessions) {
  dafs::ServerConfig scfg;
  scfg.workers = 2;
  sim::Fabric fabric;
  dafs::Server server(fabric, fabric.add_node("filer"), scfg);
  server.start();

  constexpr int kClients = 3;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      const auto node = fabric.add_node("c" + std::to_string(i));
      Actor actor("c" + std::to_string(i), &fabric.node(node));
      ActorScope scope(actor);
      via::Nic nic(fabric, node, "nic");
      auto s = std::move(dafs::Session::connect(nic).value());
      auto fh =
          s->open("/w" + std::to_string(i), dafs::kOpenCreate).value();
      auto data = pattern(256 * 1024, 40 + i);
      for (int k = 0; k < 6; ++k) {
        if (!s->pwrite(fh, static_cast<std::uint64_t>(k) * data.size(), data)
                 .ok()) {
          ++failures;
        }
      }
      std::vector<std::byte> back(data.size());
      for (int k = 0; k < 6; ++k) {
        auto r =
            s->pread(fh, static_cast<std::uint64_t>(k) * data.size(), back);
        if (!r.ok() || std::memcmp(back.data(), data.data(), back.size())) {
          ++failures;
        }
      }
      s.reset();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(server.session_count(), static_cast<std::size_t>(kClients));
}

// ---------------------------------------------------------------------------
// Sequential MPI worlds sharing one filer
// ---------------------------------------------------------------------------

TEST(Integration, SecondWorldReadsFirstWorldsFile) {
  sim::Fabric fabric;
  dafs::Server server(fabric, fabric.add_node("filer"));
  server.start();

  constexpr std::uint64_t kChunk = 64 * 1024;
  {
    mpi::WorldConfig cfg;
    cfg.nprocs = 4;
    cfg.fabric = &fabric;
    cfg.name = "w1";
    mpi::World w1(cfg);
    w1.run([&](Comm& c) {
      via::Nic nic(fabric, w1.node_of(c.rank()), "cli");
      auto client = std::move(dafs::Client::connect(nic).value());
      auto f = std::move(File::open(c, "/handoff.dat",
                                    mpiio::kModeCreate | mpiio::kModeRdwr,
                                    Info{}, mpiio::dafs_driver(*client))
                             .value());
      auto data = pattern(kChunk, 70 + c.rank());
      ASSERT_TRUE(
          f->write_at(c.rank() * kChunk, data.data(), kChunk, Datatype::byte())
              .ok());
      f->close();
    });
  }
  {
    mpi::WorldConfig cfg;
    cfg.nprocs = 2;  // different world size
    cfg.fabric = &fabric;
    cfg.name = "w2";
    mpi::World w2(cfg);
    w2.run([&](Comm& c) {
      via::Nic nic(fabric, w2.node_of(c.rank()), "cli");
      auto client = std::move(dafs::Client::connect(nic).value());
      auto f = std::move(File::open(c, "/handoff.dat", mpiio::kModeRdonly,
                                    Info{}, mpiio::dafs_driver(*client))
                             .value());
      // Each of the 2 readers checks two of the 4 chunks.
      for (int k = 0; k < 2; ++k) {
        const int writer = c.rank() * 2 + k;
        std::vector<std::byte> back(kChunk);
        ASSERT_TRUE(f->read_at(writer * kChunk, back.data(), kChunk,
                               Datatype::byte())
                        .ok());
        auto expect = pattern(kChunk, 70 + writer);
        EXPECT_EQ(std::memcmp(back.data(), expect.data(), kChunk), 0);
      }
      f->close();
    });
  }
}

// ---------------------------------------------------------------------------
// Split collectives & wait_any
// ---------------------------------------------------------------------------

TEST(Integration, SplitCollectiveMatchesBlockingCollective) {
  sim::Fabric fabric;
  dafs::Server server(fabric, fabric.add_node("filer"));
  server.start();
  mpi::WorldConfig cfg;
  cfg.nprocs = 4;
  cfg.fabric = &fabric;
  mpi::World world(cfg);
  world.run([&](Comm& c) {
    via::Nic nic(fabric, world.node_of(c.rank()), "cli");
    auto client = std::move(dafs::Client::connect(nic).value());
    auto f = std::move(File::open(c, "/split.dat",
                                  mpiio::kModeCreate | mpiio::kModeRdwr,
                                  Info{}, mpiio::dafs_driver(*client))
                           .value());
    constexpr std::uint64_t kChunk = 32 * 1024;
    auto data = pattern(kChunk, 80 + c.rank());
    ASSERT_EQ(f->write_at_all_begin(c.rank() * kChunk, data.data(), kChunk,
                                    Datatype::byte()),
              Err::kOk);
    // A second outstanding split collective is refused (MPI-2 rule).
    EXPECT_EQ(f->write_at_all_begin(0, data.data(), 1, Datatype::byte()),
              Err::kInval);
    auto w = f->write_at_all_end(data.data());
    ASSERT_TRUE(w.ok());
    EXPECT_EQ(w.value(), kChunk);

    std::vector<std::byte> back(kChunk);
    ASSERT_EQ(f->read_at_all_begin(c.rank() * kChunk, back.data(), kChunk,
                                   Datatype::byte()),
              Err::kOk);
    // Mismatched end pointer is refused.
    EXPECT_FALSE(f->read_at_all_end(data.data()).ok());
    auto r = f->read_at_all_end(back.data());
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(std::memcmp(back.data(), data.data(), kChunk), 0);
    f->close();
  });
}

TEST(Integration, DafsWaitAnyReturnsCompletedOp) {
  sim::Fabric fabric;
  dafs::Server server(fabric, fabric.add_node("filer"));
  server.start();
  const auto node = fabric.add_node("client");
  Actor actor("client", &fabric.node(node));
  ActorScope scope(actor);
  via::Nic nic(fabric, node, "nic");
  auto s = std::move(dafs::Session::connect(nic).value());
  auto fh = s->open("/any.dat", dafs::kOpenCreate).value();
  std::vector<std::vector<std::byte>> bufs;
  std::vector<dafs::OpId> ops;
  for (int i = 0; i < 4; ++i) {
    bufs.push_back(pattern(64 * 1024, 90 + i));
    ops.push_back(s->submit_pwrite(fh, static_cast<std::uint64_t>(i) * 64 * 1024,
                                   bufs.back())
                      .value());
  }
  // One op of the group fails: it reads an ino the filer never issued.
  std::vector<std::byte> back(1024);
  const dafs::OpId bad =
      s->submit_pread(dafs::Fh{fh.ino + 1000}, 0, back).value();
  ops.push_back(bad);
  std::vector<dafs::OpId> remaining = ops;
  int completed = 0;
  while (!remaining.empty()) {
    auto idx = s->wait_any(remaining);
    ASSERT_TRUE(idx.ok());
    // wait_any names a settled op; wait collects its own status.
    const dafs::OpId op = remaining[idx.value()];
    std::uint64_t bytes = 0;
    const PStatus st = s->wait(op, &bytes);
    if (op == bad) {
      EXPECT_EQ(st, PStatus::kStale);
    } else {
      EXPECT_EQ(st, PStatus::kOk);
      EXPECT_EQ(bytes, 64u * 1024);
    }
    remaining.erase(remaining.begin() +
                    static_cast<std::ptrdiff_t>(idx.value()));
    ++completed;
  }
  EXPECT_EQ(completed, 5);
  EXPECT_EQ(s->getattr(fh).value().size, 4u * 64 * 1024);
  std::vector<dafs::OpId> empty;
  EXPECT_FALSE(s->wait_any(empty).ok());
  s.reset();
}

// ---------------------------------------------------------------------------
// Property: random strided views, MPI-IO vs reference model
// ---------------------------------------------------------------------------

TEST(Integration, RandomViewsMatchReferenceModel) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    sim::Rng rng(seed * 7919);
    sim::Fabric fabric;
    dafs::Server server(fabric, fabric.add_node("filer"));
    server.start();
    mpi::WorldConfig cfg;
    cfg.nprocs = 1;
    cfg.fabric = &fabric;
    mpi::World world(cfg);

    // Random strided view: block `b` of every `s` bytes.
    const std::uint32_t block = 64 + static_cast<std::uint32_t>(rng.below(2000));
    const std::uint32_t stride =
        block + 1 + static_cast<std::uint32_t>(rng.below(3000));
    const std::uint64_t disp = rng.below(500);
    const std::uint64_t count = 20 + rng.below(60);  // visible blocks to write
    const std::uint64_t view_off = rng.below(block * 3);

    std::vector<std::byte> reference;  // expected absolute file content
    world.run([&](Comm& c) {
      via::Nic nic(fabric, world.node_of(0), "cli");
      auto client = std::move(dafs::Client::connect(nic).value());
      auto f = std::move(File::open(c, "/prop.dat",
                                    mpiio::kModeCreate | mpiio::kModeRdwr,
                                    Info{}, mpiio::dafs_driver(*client))
                             .value());
      auto ft = mpi::Datatype::resized(
          mpi::Datatype::hvector(1, block, stride, mpi::Datatype::byte()), 0,
          stride);
      ASSERT_EQ(f->set_view(disp, mpi::Datatype::byte(), ft), Err::kOk);

      auto data = pattern(count * block, seed);
      ASSERT_TRUE(
          f->write_at(view_off, data.data(), data.size(), Datatype::byte())
              .ok());

      // Reference: place the same bytes with plain arithmetic.
      for (std::uint64_t i = 0; i < data.size(); ++i) {
        const std::uint64_t stream = view_off + i;  // view byte position
        const std::uint64_t tile = stream / block;
        const std::uint64_t within = stream % block;
        const std::uint64_t abs = disp + tile * stride + within;
        if (reference.size() < abs + 1) reference.resize(abs + 1);
        reference[abs] = data[i];
      }

      // Compare against a raw read of the whole file.
      auto raw = client->open("/prop.dat").value();
      const std::uint64_t fsize = client->getattr(raw).value().size;
      ASSERT_EQ(fsize, reference.size()) << "seed " << seed;
      std::vector<std::byte> all(fsize);
      ASSERT_TRUE(client->pread(raw, 0, all).ok());
      EXPECT_EQ(std::memcmp(all.data(), reference.data(), fsize), 0)
          << "seed " << seed << " block " << block << " stride " << stride;

      // And read back through the view.
      std::vector<std::byte> again(data.size());
      ASSERT_TRUE(
          f->read_at(view_off, again.data(), again.size(), Datatype::byte())
              .ok());
      EXPECT_EQ(std::memcmp(again.data(), data.data(), data.size()), 0);
      f->close();
    });
  }
}

}  // namespace
