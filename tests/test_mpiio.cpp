#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <numeric>
#include <vector>

#include "dafs/server.hpp"
#include "mpiio/ad_dafs.hpp"
#include "mpiio/ad_nfs.hpp"
#include "mpiio/file.hpp"
#include "nfs/server.hpp"
#include "sim/rng.hpp"

namespace {

using mpi::Comm;
using mpi::Datatype;
using mpiio::Err;
using mpiio::File;
using mpiio::Info;
using mpiio::kModeCreate;
using mpiio::kModeDeleteOnClose;
using mpiio::kModeExcl;
using mpiio::kModeRdonly;
using mpiio::kModeRdwr;
using mpiio::kModeWronly;
using mpiio::Whence;

std::vector<std::byte> pattern(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng.next() & 0xff);
  return out;
}

/// A cluster: one fabric carrying a DAFS filer, an NFS server and N compute
/// nodes. Each rank makes its own DAFS or NFS client inside the run lambda.
class MpiioTest : public ::testing::Test {
 protected:
  static constexpr int kNp = 4;

  MpiioTest() {
    fabric_ = std::make_unique<sim::Fabric>();
    dafs_node_ = fabric_->add_node("filer");
    nfs_node_ = fabric_->add_node("nfs-server");
    dafs_server_ = std::make_unique<dafs::Server>(*fabric_, dafs_node_);
    nfs_server_ = std::make_unique<nfs::Server>(*fabric_, nfs_node_);
    dafs_server_->start();
    nfs_server_->start();
    mpi::WorldConfig cfg;
    cfg.nprocs = kNp;
    cfg.fabric = fabric_.get();
    world_ = std::make_unique<mpi::World>(cfg);
  }

  /// Per-rank DAFS context (second NIC on the rank's node).
  struct DafsCtx {
    via::Nic nic;
    std::unique_ptr<dafs::Client> client;
    DafsCtx(sim::Fabric& f, sim::NodeId node, dafs::ClientConfig cfg = {})
        : nic(f, node, "dafs-cli") {
      auto r = dafs::Client::connect(nic, dafs::MountSpec{{}, std::move(cfg)});
      EXPECT_TRUE(r.ok());
      if (r.ok()) client = std::move(r.value());
    }
  };

  std::unique_ptr<File> OpenDafs(Comm& c, DafsCtx& ctx,
                                 const std::string& path, int amode,
                                 const Info& info = {}) {
    auto f = File::open(c, path, amode, info, mpiio::dafs_driver(*ctx.client));
    EXPECT_TRUE(f.ok());
    return f.ok() ? std::move(f.value()) : nullptr;
  }

  std::unique_ptr<File> OpenNfs(Comm& c, nfs::Client& client,
                                const std::string& path, int amode,
                                const Info& info = {}) {
    auto f = File::open(c, path, amode, info, mpiio::nfs_driver(client));
    EXPECT_TRUE(f.ok());
    return f.ok() ? std::move(f.value()) : nullptr;
  }

  std::unique_ptr<sim::Fabric> fabric_;
  sim::NodeId dafs_node_, nfs_node_;
  std::unique_ptr<dafs::Server> dafs_server_;
  std::unique_ptr<nfs::Server> nfs_server_;
  std::unique_ptr<mpi::World> world_;
};

// ---------------------------------------------------------------------------
// Open / close semantics
// ---------------------------------------------------------------------------

TEST_F(MpiioTest, CollectiveOpenCreatesOnce) {
  world_->run([this](Comm& c) {
    DafsCtx ctx(*fabric_, world_->node_of(c.rank()));
    auto f = OpenDafs(c, ctx, "/shared.dat", kModeCreate | kModeExcl | kModeRdwr);
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->close(), Err::kOk);
  });
}

TEST_F(MpiioTest, OpenMissingFileFailsEverywhere) {
  world_->run([this](Comm& c) {
    DafsCtx ctx(*fabric_, world_->node_of(c.rank()));
    auto f = File::open(c, "/missing.dat", kModeRdwr, Info{},
                        mpiio::dafs_driver(*ctx.client));
    EXPECT_FALSE(f.ok());
  });
}

TEST_F(MpiioTest, DeleteOnCloseRemovesFile) {
  world_->run([this](Comm& c) {
    DafsCtx ctx(*fabric_, world_->node_of(c.rank()));
    {
      auto f = OpenDafs(c, ctx, "/temp.dat",
                        kModeCreate | kModeRdwr | kModeDeleteOnClose);
      ASSERT_NE(f, nullptr);
      EXPECT_EQ(f->close(), Err::kOk);
    }
    c.barrier();
    EXPECT_EQ(ctx.client->open("/temp.dat").error(), dafs::PStatus::kNoEnt);
  });
}

TEST_F(MpiioTest, WriteToRdonlyRejected) {
  world_->run([this](Comm& c) {
    DafsCtx ctx(*fabric_, world_->node_of(c.rank()));
    auto f = OpenDafs(c, ctx, "/ro.dat", kModeCreate | kModeRdonly);
    ASSERT_NE(f, nullptr);
    std::byte b{1};
    EXPECT_EQ(f->write_at(0, &b, 1, Datatype::byte()).error(), Err::kInval);
    f->close();
  });
}

// ---------------------------------------------------------------------------
// Independent contiguous I/O (both drivers)
// ---------------------------------------------------------------------------

TEST_F(MpiioTest, ContiguousPerRankRegionsDafs) {
  world_->run([this](Comm& c) {
    DafsCtx ctx(*fabric_, world_->node_of(c.rank()));
    auto f = OpenDafs(c, ctx, "/regions.dat", kModeCreate | kModeRdwr);
    ASSERT_NE(f, nullptr);
    constexpr std::uint64_t kChunk = 256 * 1024;
    auto mine = pattern(kChunk, 100 + c.rank());
    ASSERT_TRUE(f->write_at(c.rank() * kChunk, mine.data(), kChunk,
                            Datatype::byte())
                    .ok());
    c.barrier();
    // Read the next rank's region and verify.
    const int next = (c.rank() + 1) % c.size();
    std::vector<std::byte> theirs(kChunk);
    ASSERT_TRUE(
        f->read_at(next * kChunk, theirs.data(), kChunk, Datatype::byte())
            .ok());
    auto expect = pattern(kChunk, 100 + next);
    EXPECT_EQ(std::memcmp(theirs.data(), expect.data(), kChunk), 0);
    EXPECT_EQ(f->get_size().value(), kChunk * c.size());
    f->close();
  });
}

TEST_F(MpiioTest, ContiguousPerRankRegionsNfs) {
  world_->run([this](Comm& c) {
    auto client =
        nfs::Client::connect(*fabric_, world_->node_of(c.rank())).value();
    auto f = OpenNfs(c, *client, "/regions.dat", kModeCreate | kModeRdwr);
    ASSERT_NE(f, nullptr);
    constexpr std::uint64_t kChunk = 64 * 1024;
    auto mine = pattern(kChunk, 200 + c.rank());
    ASSERT_TRUE(f->write_at(c.rank() * kChunk, mine.data(), kChunk,
                            Datatype::byte())
                    .ok());
    c.barrier();
    const int prev = (c.rank() - 1 + c.size()) % c.size();
    std::vector<std::byte> theirs(kChunk);
    ASSERT_TRUE(
        f->read_at(prev * kChunk, theirs.data(), kChunk, Datatype::byte())
            .ok());
    auto expect = pattern(kChunk, 200 + prev);
    EXPECT_EQ(std::memcmp(theirs.data(), expect.data(), kChunk), 0);
    f->close();
  });
}

TEST_F(MpiioTest, IndividualPointerAndSeek) {
  world_->run([this](Comm& c) {
    Comm self = c.split(c.rank() == 0 ? 0 : 1, 0);  // split is collective
    if (c.rank() != 0) return;
    DafsCtx ctx(*fabric_, world_->node_of(c.rank()));
    auto f = OpenDafs(self, ctx, "/ptr.dat", kModeCreate | kModeRdwr);
    ASSERT_NE(f, nullptr);
    std::vector<std::int32_t> v = {1, 2, 3, 4};
    ASSERT_TRUE(f->write(v.data(), 4, Datatype::int32()).ok());
    EXPECT_EQ(f->position(), 16u);  // byte etype
    ASSERT_EQ(f->seek(-8, Whence::kCur), Err::kOk);
    std::int32_t two = 0;
    ASSERT_TRUE(f->read(&two, 1, Datatype::int32()).ok());
    EXPECT_EQ(two, 3);
    ASSERT_EQ(f->seek(0, Whence::kEnd), Err::kOk);
    EXPECT_EQ(f->position(), 16u);
    ASSERT_EQ(f->seek(0, Whence::kSet), Err::kOk);
    std::int32_t one = 0;
    ASSERT_TRUE(f->read(&one, 1, Datatype::int32()).ok());
    EXPECT_EQ(one, 1);
    EXPECT_EQ(f->seek(-100, Whence::kCur), Err::kInval);
    f->close();
  });
}

// ---------------------------------------------------------------------------
// File views
// ---------------------------------------------------------------------------

TEST_F(MpiioTest, BlockViewPartitionsFile) {
  // Classic block decomposition: rank r sees bytes [r*B, (r+1)*B) of every
  // n*B tile via a subarray filetype.
  world_->run([this](Comm& c) {
    DafsCtx ctx(*fabric_, world_->node_of(c.rank()));
    auto f = OpenDafs(c, ctx, "/view.dat", kModeCreate | kModeRdwr);
    ASSERT_NE(f, nullptr);
    constexpr std::uint32_t kBlock = 1000;
    const std::array<std::uint32_t, 1> sizes = {kBlock * kNp};
    const std::array<std::uint32_t, 1> subsizes = {kBlock};
    const std::array<std::uint32_t, 1> starts = {
        static_cast<std::uint32_t>(c.rank()) * kBlock};
    auto ft = Datatype::subarray(sizes, subsizes, starts, Datatype::byte());
    ASSERT_EQ(f->set_view(0, Datatype::byte(), ft), Err::kOk);

    // Each rank writes 2.5 tiles worth of its own marker bytes.
    std::vector<std::byte> mine(kBlock * 2 + kBlock / 2, std::byte(c.rank() + 1));
    ASSERT_TRUE(f->write_at(0, mine.data(), mine.size(), Datatype::byte()).ok());
    c.barrier();

    // Raw check: byte at absolute position t*kBlock*np + r*kBlock + i must
    // be r+1 for covered tiles.
    auto raw = ctx.client->open("/view.dat").value();
    std::vector<std::byte> all(kBlock * kNp * 3);
    ASSERT_TRUE(ctx.client->pread(raw, 0, all).ok());
    for (int r = 0; r < kNp; ++r) {
      // Tile 0 fully written by rank r.
      const std::size_t base = static_cast<std::size_t>(r) * kBlock;
      EXPECT_EQ(all[base], std::byte(r + 1));
      EXPECT_EQ(all[base + kBlock - 1], std::byte(r + 1));
      // Tile 2 only half written.
      const std::size_t t2 = 2u * kBlock * kNp + static_cast<std::size_t>(r) * kBlock;
      EXPECT_EQ(all[t2 + kBlock / 2 - 1], std::byte(r + 1));
    }
    // Read back through the view and compare.
    std::vector<std::byte> back(mine.size(), std::byte{0});
    ASSERT_TRUE(f->read_at(0, back.data(), back.size(), Datatype::byte()).ok());
    EXPECT_EQ(std::memcmp(mine.data(), back.data(), mine.size()), 0);
    f->close();
  });
}

TEST_F(MpiioTest, ViewWithEtypeOffsets) {
  world_->run([this](Comm& c) {
    Comm self = c.split(c.rank() == 0 ? 0 : 1, 0);  // split is collective
    if (c.rank() != 0) return;
    DafsCtx ctx(*fabric_, world_->node_of(c.rank()));
    auto f = OpenDafs(self, ctx, "/etype.dat", kModeCreate | kModeRdwr);
    ASSERT_NE(f, nullptr);
    // etype = int32; filetype = 2 ints, every other slot. MPI extent of
    // vector(2,1,2) is ((2-1)*2+1)*4 = 12 bytes, so tiles repeat every 3
    // ints: visible int indices (after disp = int 2) are 2,4, 5,7, 8,10...
    auto ft = Datatype::vector(2, 1, 2, Datatype::int32());
    EXPECT_EQ(ft.extent(), 12);
    ASSERT_EQ(f->set_view(8, Datatype::int32(), ft), Err::kOk);
    std::vector<std::int32_t> v = {10, 20, 30, 40};
    // Offset 1 (in etypes) -> second visible int.
    ASSERT_TRUE(f->write_at(1, v.data(), 4, Datatype::int32()).ok());
    // byte_offset: view offset 0 -> disp 8; offset 1 -> disp+8 (skips one).
    EXPECT_EQ(f->byte_offset(0), 8u);
    EXPECT_EQ(f->byte_offset(1), 16u);

    auto raw = ctx.client->open("/etype.dat").value();
    std::vector<std::int32_t> all(12, -1);
    ASSERT_TRUE(ctx.client
                    ->pread(raw, 0,
                            std::span(reinterpret_cast<std::byte*>(all.data()),
                                      48))
                    .ok());
    // We wrote visible ints #1..#4 -> absolute int indices 4, 5, 7, 8.
    EXPECT_EQ(all[4], 10);
    EXPECT_EQ(all[5], 20);
    EXPECT_EQ(all[7], 30);
    EXPECT_EQ(all[8], 40);
    f->close();
  });
}

TEST_F(MpiioTest, SetViewRejectsBadTypes) {
  world_->run([this](Comm& c) {
    DafsCtx ctx(*fabric_, world_->node_of(c.rank()));
    auto f = OpenDafs(c, ctx, "/badview.dat", kModeCreate | kModeRdwr);
    ASSERT_NE(f, nullptr);
    // filetype size not a multiple of etype size.
    auto ft = Datatype::contiguous(3, Datatype::byte());
    EXPECT_EQ(f->set_view(0, Datatype::int32(), ft), Err::kInval);
    f->close();
  });
}

// ---------------------------------------------------------------------------
// Noncontiguous independent access (sieving vs list I/O)
// ---------------------------------------------------------------------------

TEST_F(MpiioTest, StridedIndependentDafsUsesListIo) {
  world_->run([this](Comm& c) {
    Comm self = c.split(c.rank() == 0 ? 0 : 1, 0);  // split is collective
    if (c.rank() != 0) return;
    DafsCtx ctx(*fabric_, world_->node_of(c.rank()));
    auto f = OpenDafs(self, ctx, "/strided.dat", kModeCreate | kModeRdwr);
    ASSERT_NE(f, nullptr);
    // View: 16 KiB of every 64 KiB.
    auto ft = Datatype::vector(1, 16 * 1024, 4, Datatype::contiguous(
                                                    1024, Datatype::byte()));
    // Simpler: hvector with byte child.
    ft = Datatype::hvector(1, 16 * 1024, 64 * 1024, Datatype::byte());
    ft = Datatype::resized(ft, 0, 64 * 1024);
    ASSERT_EQ(f->set_view(0, Datatype::byte(), ft), Err::kOk);
    auto data = pattern(8 * 16 * 1024, 7);
    ASSERT_TRUE(f->write_at(0, data.data(), data.size(), Datatype::byte()).ok());
    std::vector<std::byte> back(data.size());
    ASSERT_TRUE(f->read_at(0, back.data(), back.size(), Datatype::byte()).ok());
    EXPECT_EQ(std::memcmp(data.data(), back.data(), data.size()), 0);
    // The DAFS driver should have used batched direct I/O.
    EXPECT_GT(fabric_->stats().get("dafs.direct_write_reqs"), 0u);
    EXPECT_EQ(fabric_->stats().get("mpiio.sieved_writes"), 0u);
    f->close();
  });
}

TEST_F(MpiioTest, StridedIndependentNfsSievesReads) {
  world_->run([this](Comm& c) {
    Comm self = c.split(c.rank() == 0 ? 0 : 1, 0);  // split is collective
    if (c.rank() != 0) return;
    auto client =
        nfs::Client::connect(*fabric_, world_->node_of(c.rank())).value();
    auto f = OpenNfs(self, *client, "/strided.dat", kModeCreate | kModeRdwr);
    ASSERT_NE(f, nullptr);
    // Populate contiguously first.
    auto data = pattern(512 * 1024, 8);
    ASSERT_TRUE(f->write_at(0, data.data(), data.size(), Datatype::byte()).ok());
    // Strided view: 4 KiB of every 16 KiB.
    auto ft = Datatype::hvector(1, 4 * 1024, 16 * 1024, Datatype::byte());
    ft = Datatype::resized(ft, 0, 16 * 1024);
    ASSERT_EQ(f->set_view(0, Datatype::byte(), ft), Err::kOk);
    std::vector<std::byte> got(32 * 4 * 1024);
    ASSERT_TRUE(f->read_at(0, got.data(), got.size(), Datatype::byte()).ok());
    for (int blk = 0; blk < 32; ++blk) {
      EXPECT_EQ(std::memcmp(got.data() + blk * 4096,
                            data.data() + blk * 16384, 4096),
                0)
          << blk;
    }
    EXPECT_GT(fabric_->stats().get("mpiio.sieved_reads"), 0u);
    f->close();
  });
}

TEST_F(MpiioTest, StridedWriteOnNfsFallsBackToListWrites) {
  // NFS has no locks, so sieving writes (RMW) must be avoided.
  world_->run([this](Comm& c) {
    Comm self = c.split(c.rank() == 0 ? 0 : 1, 0);  // split is collective
    if (c.rank() != 0) return;
    auto client =
        nfs::Client::connect(*fabric_, world_->node_of(c.rank())).value();
    auto f = OpenNfs(self, *client, "/nolock.dat", kModeCreate | kModeRdwr);
    ASSERT_NE(f, nullptr);
    auto base = pattern(64 * 1024, 9);
    ASSERT_TRUE(f->write_at(0, base.data(), base.size(), Datatype::byte()).ok());
    auto ft = Datatype::hvector(1, 512, 4096, Datatype::byte());
    ft = Datatype::resized(ft, 0, 4096);
    ASSERT_EQ(f->set_view(0, Datatype::byte(), ft), Err::kOk);
    std::vector<std::byte> marks(8 * 512, std::byte{0xAB});
    ASSERT_TRUE(f->write_at(0, marks.data(), marks.size(), Datatype::byte()).ok());
    EXPECT_EQ(fabric_->stats().get("mpiio.sieved_writes"), 0u);
    // Untouched gap bytes must be intact.
    ASSERT_EQ(f->set_view(0, Datatype::byte(), Datatype::byte()), Err::kOk);
    std::vector<std::byte> all(64 * 1024);
    ASSERT_TRUE(f->read_at(0, all.data(), all.size(), Datatype::byte()).ok());
    EXPECT_EQ(all[0], std::byte{0xAB});
    EXPECT_EQ(all[511], std::byte{0xAB});
    EXPECT_EQ(all[512], base[512]);
    EXPECT_EQ(all[4096], std::byte{0xAB});
    f->close();
  });
}

// ---------------------------------------------------------------------------
// Collective I/O
// ---------------------------------------------------------------------------

TEST_F(MpiioTest, CollectiveWriteReadBlockCyclic) {
  world_->run([this](Comm& c) {
    DafsCtx ctx(*fabric_, world_->node_of(c.rank()));
    auto f = OpenDafs(c, ctx, "/coll.dat", kModeCreate | kModeRdwr);
    ASSERT_NE(f, nullptr);
    // Block-cyclic view: rank r owns block r of every np-block tile.
    constexpr std::uint32_t kBlock = 4096;
    const std::array<std::uint32_t, 1> sizes = {kBlock * kNp};
    const std::array<std::uint32_t, 1> subsizes = {kBlock};
    const std::array<std::uint32_t, 1> starts = {
        static_cast<std::uint32_t>(c.rank()) * kBlock};
    auto ft = Datatype::subarray(sizes, subsizes, starts, Datatype::byte());
    ASSERT_EQ(f->set_view(0, Datatype::byte(), ft), Err::kOk);

    constexpr int kTiles = 8;
    auto mine = pattern(kBlock * kTiles, 300 + c.rank());
    auto w = f->write_at_all(0, mine.data(), mine.size(), Datatype::byte());
    ASSERT_TRUE(w.ok());
    EXPECT_EQ(w.value(), mine.size());
    EXPECT_GT(fabric_->stats().get("mpiio.twophase_writes"), 0u);

    std::vector<std::byte> back(mine.size(), std::byte{0});
    auto r = f->read_at_all(0, back.data(), back.size(), Datatype::byte());
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(std::memcmp(mine.data(), back.data(), mine.size()), 0);
    EXPECT_GT(fabric_->stats().get("mpiio.twophase_reads"), 0u);

    // Cross-check a couple of absolute positions.
    c.barrier();
    if (c.rank() == 0) {
      auto raw = ctx.client->open("/coll.dat").value();
      std::vector<std::byte> probe(kBlock);
      // Tile 3, block of rank 2.
      ASSERT_TRUE(ctx.client
                      ->pread(raw, 3ull * kBlock * kNp + 2ull * kBlock, probe)
                      .ok());
      auto expect = pattern(kBlock * kTiles, 302);
      EXPECT_EQ(std::memcmp(probe.data(), expect.data() + 3 * kBlock, kBlock),
                0);
    }
    f->close();
  });
}

TEST_F(MpiioTest, CollectiveOnNfsBaselineWorks) {
  world_->run([this](Comm& c) {
    auto client =
        nfs::Client::connect(*fabric_, world_->node_of(c.rank())).value();
    auto f = OpenNfs(c, *client, "/collnfs.dat", kModeCreate | kModeRdwr);
    ASSERT_NE(f, nullptr);
    constexpr std::uint32_t kBlock = 2048;
    const std::array<std::uint32_t, 1> sizes = {kBlock * kNp};
    const std::array<std::uint32_t, 1> subsizes = {kBlock};
    const std::array<std::uint32_t, 1> starts = {
        static_cast<std::uint32_t>(c.rank()) * kBlock};
    auto ft = Datatype::subarray(sizes, subsizes, starts, Datatype::byte());
    ASSERT_EQ(f->set_view(0, Datatype::byte(), ft), Err::kOk);
    auto mine = pattern(kBlock * 4, 400 + c.rank());
    ASSERT_TRUE(
        f->write_at_all(0, mine.data(), mine.size(), Datatype::byte()).ok());
    std::vector<std::byte> back(mine.size());
    ASSERT_TRUE(
        f->read_at_all(0, back.data(), back.size(), Datatype::byte()).ok());
    EXPECT_EQ(std::memcmp(mine.data(), back.data(), mine.size()), 0);
    f->close();
  });
}

TEST_F(MpiioTest, CollectiveDisabledFallsBackToIndependent) {
  world_->run([this](Comm& c) {
    DafsCtx ctx(*fabric_, world_->node_of(c.rank()));
    Info info;
    info.set("romio_cb_write", "disable");
    info.set("romio_cb_read", "disable");
    auto f = OpenDafs(c, ctx, "/nocb.dat", kModeCreate | kModeRdwr, info);
    ASSERT_NE(f, nullptr);
    constexpr std::uint32_t kBlock = 8192;
    auto mine = pattern(kBlock, 500 + c.rank());
    ASSERT_TRUE(f->write_at_all(c.rank() * kBlock, mine.data(), kBlock,
                                Datatype::byte())
                    .ok());
    EXPECT_EQ(fabric_->stats().get("mpiio.twophase_writes"), 0u);
    std::vector<std::byte> back(kBlock);
    ASSERT_TRUE(f->read_at_all(c.rank() * kBlock, back.data(), kBlock,
                               Datatype::byte())
                    .ok());
    EXPECT_EQ(std::memcmp(mine.data(), back.data(), kBlock), 0);
    f->close();
  });
}

TEST_F(MpiioTest, CollectiveWithFewerAggregators) {
  world_->run([this](Comm& c) {
    DafsCtx ctx(*fabric_, world_->node_of(c.rank()));
    Info info;
    info.set("cb_nodes", std::uint64_t{2});
    info.set("cb_buffer_size", std::uint64_t{64 * 1024});
    auto f = OpenDafs(c, ctx, "/aggr2.dat", kModeCreate | kModeRdwr, info);
    ASSERT_NE(f, nullptr);
    constexpr std::uint32_t kBlock = 16 * 1024;
    const std::array<std::uint32_t, 1> sizes = {kBlock * kNp};
    const std::array<std::uint32_t, 1> subsizes = {kBlock};
    const std::array<std::uint32_t, 1> starts = {
        static_cast<std::uint32_t>(c.rank()) * kBlock};
    auto ft = Datatype::subarray(sizes, subsizes, starts, Datatype::byte());
    ASSERT_EQ(f->set_view(0, Datatype::byte(), ft), Err::kOk);
    auto mine = pattern(kBlock * 4, 600 + c.rank());
    ASSERT_TRUE(
        f->write_at_all(0, mine.data(), mine.size(), Datatype::byte()).ok());
    std::vector<std::byte> back(mine.size());
    ASSERT_TRUE(
        f->read_at_all(0, back.data(), back.size(), Datatype::byte()).ok());
    EXPECT_EQ(std::memcmp(mine.data(), back.data(), mine.size()), 0);
    f->close();
  });
}

TEST_F(MpiioTest, CollectiveWithZeroDataRanks) {
  world_->run([this](Comm& c) {
    DafsCtx ctx(*fabric_, world_->node_of(c.rank()));
    auto f = OpenDafs(c, ctx, "/zero.dat", kModeCreate | kModeRdwr);
    ASSERT_NE(f, nullptr);
    // Only even ranks contribute.
    std::vector<std::byte> mine(c.rank() % 2 == 0 ? 8192 : 0,
                                std::byte(c.rank()));
    auto w = f->write_at_all(c.rank() * 8192ull, mine.data(), mine.size(),
                             Datatype::byte());
    ASSERT_TRUE(w.ok());
    EXPECT_EQ(w.value(), mine.size());
    c.barrier();
    std::vector<std::byte> probe(1);
    ASSERT_TRUE(f->read_at(2 * 8192, probe.data(), 1, Datatype::byte()).ok());
    EXPECT_EQ(probe[0], std::byte(2));
    f->close();
  });
}

TEST_F(MpiioTest, CollectiveWriteLeavesHolesUntouched) {
  // Sparse view: rank r owns bytes [r*1 KiB, (r+1)*1 KiB) of every 8 KiB
  // tile, so the upper half of each tile is a hole inside the aggregators'
  // domains. The aggregators must write only the covered runs.
  constexpr std::uint64_t kTile = 8 * 1024;
  constexpr std::uint64_t kTiles = 32;
  const auto before = pattern(kTile * kTiles, 777);
  world_->run([&](Comm& c) {
    DafsCtx ctx(*fabric_, world_->node_of(c.rank()));
    auto f = OpenDafs(c, ctx, "/holes.dat", kModeCreate | kModeRdwr);
    ASSERT_NE(f, nullptr);
    if (c.rank() == 0) {
      ASSERT_TRUE(
          f->write_at(0, before.data(), before.size(), Datatype::byte()).ok());
    }
    c.barrier();
    constexpr std::uint32_t kBlock = 1024;
    const std::array<std::uint32_t, 1> sizes = {kTile};
    const std::array<std::uint32_t, 1> subsizes = {kBlock};
    const std::array<std::uint32_t, 1> starts = {
        static_cast<std::uint32_t>(c.rank()) * kBlock};
    ASSERT_EQ(f->set_view(0, Datatype::byte(),
                          Datatype::subarray(sizes, subsizes, starts,
                                             Datatype::byte())),
              Err::kOk);
    std::vector<std::byte> mine(kBlock * kTiles, std::byte(0xA0 + c.rank()));
    ASSERT_TRUE(
        f->write_at_all(0, mine.data(), mine.size(), Datatype::byte()).ok());
    c.barrier();
    if (c.rank() == 0) {
      auto raw = ctx.client->open("/holes.dat").value();
      std::vector<std::byte> all(kTile * kTiles);
      EXPECT_EQ(ctx.client->pread(raw, 0, all).value(), all.size());
      // No ASSERT inside a rank: bailing out early would strand the other
      // ranks in close().
      std::uint64_t bad = 0;
      while (bad < all.size()) {
        const std::uint64_t in_tile = bad % kTile;
        const std::byte expect =
            in_tile < kNp * kBlock ? std::byte(0xA0 + in_tile / kBlock)
                                   : before[bad];
        if (all[bad] != expect) break;
        ++bad;
      }
      EXPECT_EQ(bad, all.size()) << "first wrong byte";
    }
    f->close();
  });
}

TEST_F(MpiioTest, CollectiveRunsInRoundsWhenDomainExceedsBuffer) {
  // 1 MiB block-cyclic collective with a 64 KiB cb_buffer_size: 256 KiB
  // domains move through each aggregator's buffer in four rounds.
  world_->run([this](Comm& c) {
    DafsCtx ctx(*fabric_, world_->node_of(c.rank()));
    Info info;
    info.set("cb_buffer_size", std::uint64_t{64 * 1024});
    auto f = OpenDafs(c, ctx, "/rounds.dat", kModeCreate | kModeRdwr, info);
    ASSERT_NE(f, nullptr);
    constexpr std::uint32_t kBlock = 4096;
    const std::array<std::uint32_t, 1> sizes = {kBlock * kNp};
    const std::array<std::uint32_t, 1> subsizes = {kBlock};
    const std::array<std::uint32_t, 1> starts = {
        static_cast<std::uint32_t>(c.rank()) * kBlock};
    ASSERT_EQ(f->set_view(0, Datatype::byte(),
                          Datatype::subarray(sizes, subsizes, starts,
                                             Datatype::byte())),
              Err::kOk);
    auto mine = pattern(kBlock * 64, 1200 + c.rank());
    const std::uint64_t fences0 = fabric_->stats().get("mpi.rma_fences");
    ASSERT_TRUE(
        f->write_at_all(0, mine.data(), mine.size(), Datatype::byte()).ok());
    std::vector<std::byte> back(mine.size());
    ASSERT_TRUE(
        f->read_at_all(0, back.data(), back.size(), Datatype::byte()).ok());
    EXPECT_EQ(std::memcmp(mine.data(), back.data(), mine.size()), 0);
    // Four rounds each way: 2 * 4 - 1 fences per call on every rank.
    EXPECT_EQ(fabric_->stats().get("mpi.rma_fences") - fences0,
              2u * 7u * kNp);
    f->close();
  });
}

TEST_F(MpiioTest, SparseCollectiveRunsRoundsOnlyOverAccessedBytes) {
  // Ranks 0 and 3 write 8 KiB each, 64 MiB apart, with a 64 KiB
  // cb_buffer_size: the 16 MiB domains are almost empty, and rounds start
  // at each domain's first accessed byte, so one round covers everything
  // (a fixed grid over the domains would take 256).
  constexpr std::uint64_t kLen = 8 * 1024;
  constexpr std::uint64_t kFar = 64ull << 20;
  world_->run([this](Comm& c) {
    DafsCtx ctx(*fabric_, world_->node_of(c.rank()));
    Info info;
    info.set("cb_buffer_size", std::uint64_t{64 * 1024});
    auto f = OpenDafs(c, ctx, "/sparse.dat", kModeCreate | kModeRdwr, info);
    ASSERT_NE(f, nullptr);
    const bool writer = c.rank() == 0 || c.rank() == 3;
    const std::uint64_t off = c.rank() == 3 ? kFar : 0;
    const auto mine = pattern(writer ? kLen : 0, 1400 + c.rank());
    const std::uint64_t fences0 = fabric_->stats().get("mpi.rma_fences");
    ASSERT_TRUE(
        f->write_at_all(off, mine.data(), mine.size(), Datatype::byte()).ok());
    std::vector<std::byte> back(mine.size());
    ASSERT_TRUE(
        f->read_at_all(off, back.data(), back.size(), Datatype::byte()).ok());
    EXPECT_EQ(back, mine);
    EXPECT_EQ(fabric_->stats().get("mpi.rma_fences") - fences0, 2u * kNp);
    f->close();
  });
}

TEST_F(MpiioTest, BackToBackCollectivesWithUnevenSizes) {
  // Write then read, no barrier in between, with per-rank sizes that differ
  // every iteration: a rank racing into the read must never see a buffer an
  // aggregator is still flushing, nor clobber one still being served.
  world_->run([this](Comm& c) {
    DafsCtx ctx(*fabric_, world_->node_of(c.rank()));
    auto f = OpenDafs(c, ctx, "/b2b.dat", kModeCreate | kModeRdwr);
    ASSERT_NE(f, nullptr);
    const int n = c.size();
    for (std::uint64_t it = 0; it < 6; ++it) {
      std::vector<std::uint64_t> sizes(static_cast<std::size_t>(n));
      std::uint64_t total = 0, at = 0;
      for (int r = 0; r < n; ++r) {
        sizes[static_cast<std::size_t>(r)] =
            1000 + 7919 * ((static_cast<std::uint64_t>(r) + it) % 4) + 13 * it;
        if (r < c.rank()) at += sizes[static_cast<std::size_t>(r)];
        total += sizes[static_cast<std::size_t>(r)];
      }
      const auto mine = pattern(sizes[static_cast<std::size_t>(c.rank())],
                                5000 + it * 10 + c.rank());
      ASSERT_TRUE(
          f->write_at_all(it * total + at, mine.data(), mine.size(),
                          Datatype::byte())
              .ok());
      // Read the next rank's record of this iteration.
      const int next = (c.rank() + 1) % n;
      std::uint64_t next_at = 0;
      for (int r = 0; r < next; ++r) next_at += sizes[static_cast<std::size_t>(r)];
      std::vector<std::byte> got(sizes[static_cast<std::size_t>(next)]);
      ASSERT_TRUE(f->read_at_all(it * total + next_at, got.data(), got.size(),
                                 Datatype::byte())
                      .ok());
      EXPECT_EQ(got, pattern(got.size(), 5000 + it * 10 + next))
          << "iteration " << it;
    }
    f->close();
  });
}

TEST_F(MpiioTest, CollectiveReadWithZeroDataRanksAndStridedMemory) {
  // Ranks 1 and 3 bring no data; ranks 0 and 2 read into every other 512 B
  // slot of a strided memory buffer (a noncontiguous memory datatype).
  constexpr std::uint64_t kLen = 24 * 1024;
  const auto file = pattern(kLen * 2, 61);
  world_->run([&](Comm& c) {
    DafsCtx ctx(*fabric_, world_->node_of(c.rank()));
    auto f = OpenDafs(c, ctx, "/zread.dat", kModeCreate | kModeRdwr);
    ASSERT_NE(f, nullptr);
    if (c.rank() == 0) {
      ASSERT_TRUE(
          f->write_at(0, file.data(), file.size(), Datatype::byte()).ok());
    }
    c.barrier();
    const bool reader = c.rank() % 2 == 0;
    const auto slots = Datatype::resized(
        Datatype::hvector(1, 512, 1024, Datatype::byte()), 0, 1024);
    const std::uint64_t count = reader ? kLen / 512 : 0;
    std::vector<std::byte> mem(kLen * 2, std::byte{0x55});
    const std::uint64_t off = static_cast<std::uint64_t>(c.rank() / 2) * kLen;
    auto r = f->read_at_all(off, mem.data(), count, slots);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), count * 512);
    std::uint64_t s = 0;
    while (s < count &&
           std::memcmp(mem.data() + s * 1024, file.data() + off + s * 512,
                       512) == 0 &&
           mem[s * 1024 + 512] == std::byte{0x55}) {
      ++s;
    }
    EXPECT_EQ(s, count) << "first wrong slot (data or gap)";
    f->close();
  });
}

TEST_F(MpiioTest, CollectiveIoCopiesNothingBeyondMetadata) {
  // 4-rank block-cyclic access with 16 KiB blocks and 64 KiB domains: each
  // rank owns one block of every domain. Peers' blocks move by RDMA between
  // user memory and the aggregator's buffer, and the aggregator's own block
  // rides its list request straight from/to user memory. The only host
  // copies left are the small metadata messages.
  constexpr std::uint32_t kBlock = 16 * 1024;
  const sim::CostModel cm;
  world_->run([&](Comm& c) {
    DafsCtx ctx(*fabric_, world_->node_of(c.rank()));
    auto f = OpenDafs(c, ctx, "/copies.dat", kModeCreate | kModeRdwr);
    ASSERT_NE(f, nullptr);
    const std::array<std::uint32_t, 1> sizes = {kBlock * kNp};
    const std::array<std::uint32_t, 1> subsizes = {kBlock};
    const std::array<std::uint32_t, 1> starts = {
        static_cast<std::uint32_t>(c.rank()) * kBlock};
    ASSERT_EQ(f->set_view(0, Datatype::byte(),
                          Datatype::subarray(sizes, subsizes, starts,
                                             Datatype::byte())),
              Err::kOk);
    auto mine = pattern(kBlock * kNp, 1300 + c.rank());
    std::vector<std::byte> back(mine.size());
    // Warm the window and the registrations first.
    ASSERT_TRUE(
        f->write_at_all(0, mine.data(), mine.size(), Datatype::byte()).ok());
    ASSERT_TRUE(
        f->read_at_all(0, back.data(), back.size(), Datatype::byte()).ok());
    auto copies = [&] { return c.actor().busy()[sim::CostKind::kCopy]; };
    const sim::Time c0 = copies();
    EXPECT_TRUE(
        f->write_at_all(0, mine.data(), mine.size(), Datatype::byte()).ok());
    const sim::Time c1 = copies();
    std::fill(back.begin(), back.end(), std::byte{0});
    EXPECT_TRUE(
        f->read_at_all(0, back.data(), back.size(), Datatype::byte()).ok());
    const sim::Time c2 = copies();
    EXPECT_LT(c1 - c0, cm.copy_time(4096)) << "write, rank " << c.rank();
    EXPECT_LT(c2 - c1, cm.copy_time(4096)) << "read, rank " << c.rank();
    EXPECT_EQ(back, mine);
    f->close();
  });
}

TEST_F(MpiioTest, CollectiveReadPastEofZeroesEveryPiece) {
  // The file holds 20 KiB; every rank reads 16 KiB with its buffer
  // pre-filled, once per layout. Contiguous per-rank regions make each
  // aggregator's own piece the only piece of its domain; 4 KiB blocks dealt
  // round robin make it share its run with its peers'. Either way every
  // byte past EOF must read as zero, never as stale user bytes.
  constexpr std::uint64_t kEof = 20 * 1024;
  constexpr std::uint32_t kPer = 16 * 1024;
  const auto file = pattern(kEof, 71);
  world_->run([&](Comm& c) {
    DafsCtx ctx(*fabric_, world_->node_of(c.rank()));
    auto f = OpenDafs(c, ctx, "/eof.dat", kModeCreate | kModeRdwr);
    ASSERT_NE(f, nullptr);
    if (c.rank() == 0) {
      ASSERT_TRUE(
          f->write_at(0, file.data(), file.size(), Datatype::byte()).ok());
    }
    c.barrier();
    const auto r = static_cast<std::uint32_t>(c.rank());
    constexpr std::uint32_t kBlk = 4096;
    const std::array<std::uint32_t, 2> cyc_sizes = {kPer / kBlk, kBlk * kNp};
    const std::array<std::uint32_t, 2> cyc_sub = {kPer / kBlk, kBlk};
    const std::array<std::uint32_t, 2> cyc_starts = {0, r * kBlk};
    struct Layout {
      const char* name;
      bool contiguous;
      Datatype filetype;
    };
    const Layout layouts[] = {
        {"contiguous", true, Datatype::contiguous(kPer, Datatype::byte())},
        {"block-cyclic", false,
         Datatype::subarray(cyc_sizes, cyc_sub, cyc_starts, Datatype::byte())},
    };
    for (const Layout& l : layouts) {
      const bool contiguous = l.contiguous;
      ASSERT_EQ(f->set_view(contiguous ? r * kPer : 0, Datatype::byte(),
                            l.filetype),
                Err::kOk);
      std::vector<std::byte> got(kPer, std::byte{0x55});
      EXPECT_TRUE(
          f->read_at_all(0, got.data(), got.size(), Datatype::byte()).ok());
      std::uint64_t i = 0;  // first wrong byte
      for (; i < kPer; ++i) {
        const std::uint64_t at =
            contiguous ? r * kPer + i
                       : (i / kBlk) * kBlk * kNp + r * kBlk + i % kBlk;
        if (got[i] != (at < kEof ? file[at] : std::byte{0})) break;
      }
      EXPECT_EQ(i, kPer) << l.name << ", rank " << r;
    }
    f->close();
  });
}

TEST_F(MpiioTest, CollectiveReadOfBytesEveryRankWants) {
  // Every rank reads the same 48 KiB, the last 8 KiB past EOF: each
  // aggregator's own piece overlaps its peers' identical ones, so it meets
  // them in the collective buffer instead of riding the list straight into
  // user memory, and every rank still gets the bytes (and the zeros).
  constexpr std::uint64_t kEof = 40 * 1024;
  constexpr std::uint64_t kLen = 48 * 1024;
  const auto file = pattern(kEof, 91);
  world_->run([&](Comm& c) {
    DafsCtx ctx(*fabric_, world_->node_of(c.rank()));
    auto f = OpenDafs(c, ctx, "/same.dat", kModeCreate | kModeRdwr);
    ASSERT_NE(f, nullptr);
    if (c.rank() == 0) {
      ASSERT_TRUE(
          f->write_at(0, file.data(), file.size(), Datatype::byte()).ok());
    }
    c.barrier();
    std::vector<std::byte> got(kLen, std::byte{0x55});
    EXPECT_TRUE(
        f->read_at_all(0, got.data(), got.size(), Datatype::byte()).ok());
    auto want = file;
    want.resize(kLen, std::byte{0});
    EXPECT_EQ(got, want) << "rank " << c.rank();
    f->close();
  });
}

TEST_F(MpiioTest, CollectiveWithFarApartBuffersRegistersOnlyOnce) {
  // Each rank's data sits at the end of a 33 MiB allocation, tens of MiB
  // from any collective buffer, so no compact hull covers both. The client
  // registers each buffer's cluster once, through its cache: the second
  // collective registers nothing.
  constexpr std::uint32_t kBlock = 4096;
  constexpr std::uint64_t kLen = std::uint64_t{kBlock} * 16;
  constexpr std::uint64_t kFar = 33ull << 20;
  world_->run([&](Comm& c) {
    DafsCtx ctx(*fabric_, world_->node_of(c.rank()));
    auto f = OpenDafs(c, ctx, "/far.dat", kModeCreate | kModeRdwr);
    ASSERT_NE(f, nullptr);
    const std::array<std::uint32_t, 1> sizes = {kBlock * kNp};
    const std::array<std::uint32_t, 1> subsizes = {kBlock};
    const std::array<std::uint32_t, 1> starts = {
        static_cast<std::uint32_t>(c.rank()) * kBlock};
    ASSERT_EQ(f->set_view(0, Datatype::byte(),
                          Datatype::subarray(sizes, subsizes, starts,
                                             Datatype::byte())),
              Err::kOk);
    std::vector<std::byte> far(kFar);
    std::byte* data = far.data() + kFar - kLen;
    const auto mine = pattern(kLen, 1500 + c.rank());
    std::memcpy(data, mine.data(), kLen);
    auto registrations = [&](auto&& call) {
      c.barrier();
      const std::uint64_t r0 = fabric_->stats().get("via.registrations");
      call();
      c.barrier();
      return fabric_->stats().get("via.registrations") - r0;
    };
    for (const bool writing : {true, false}) {
      auto call = [&] {
        auto r = writing ? f->write_at_all(0, data, kLen, Datatype::byte())
                         : f->read_at_all(0, data, kLen, Datatype::byte());
        EXPECT_TRUE(r.ok());
      };
      (void)registrations(call);
      EXPECT_EQ(registrations(call), 0u)
          << (writing ? "write" : "read") << ", rank " << c.rank();
      EXPECT_EQ(std::memcmp(data, mine.data(), kLen), 0);
    }
    f->close();
  });
}

TEST_F(MpiioTest, FileContiguousListOnNfsCostsOneRunsRpcs) {
  // 32 file-contiguous 4 KiB pieces scattered in memory: the NFS driver
  // gathers them into the run's RPC payloads, so the list costs exactly the
  // RPCs of one pwrite (and one pread) of the whole run.
  constexpr std::uint64_t kPiece = 4096;
  constexpr std::size_t kPieces = 32;
  world_->run([&](Comm& c) {
    if (c.rank() != 0) return;
    auto client =
        nfs::Client::connect(*fabric_, world_->node_of(c.rank())).value();
    mpiio::AdNfs drv(*client);
    ASSERT_EQ(drv.open("/nfslist.dat", nfs::kOpenCreate), Err::kOk);
    const auto data = pattern(kPiece * kPieces, 81);
    std::vector<std::byte> mem(2 * data.size());  // every other 4 KiB slot
    std::vector<mpiio::IoSeg> segs;
    for (std::size_t i = 0; i < kPieces; ++i) {
      std::byte* slot = mem.data() + 2 * i * kPiece;
      std::memcpy(slot, data.data() + i * kPiece, kPiece);
      segs.push_back(mpiio::IoSeg{i * kPiece, slot, kPiece});
    }
    auto rpcs = [&](auto&& call) {
      const std::uint64_t r0 = fabric_->stats().get("nfs.requests");
      call();
      return fabric_->stats().get("nfs.requests") - r0;
    };
    const std::uint64_t one_write = rpcs([&] {
      ASSERT_TRUE(drv.pwrite(0, data).ok());
    });
    EXPECT_EQ(rpcs([&] {
                auto w = drv.write_list(segs);
                ASSERT_TRUE(w.ok());
                EXPECT_EQ(w.value(), data.size());
              }),
              one_write);
    std::vector<std::byte> flat(data.size());
    const std::uint64_t one_read = rpcs([&] {
      ASSERT_TRUE(drv.pread(0, flat).ok());
    });
    std::fill(mem.begin(), mem.end(), std::byte{0});
    EXPECT_EQ(rpcs([&] {
                auto r = drv.read_list(segs);
                ASSERT_TRUE(r.ok());
                EXPECT_EQ(r.value(), data.size());
              }),
              one_read);
    for (std::size_t i = 0; i < kPieces; ++i) {
      ASSERT_EQ(std::memcmp(segs[i].mem, data.data() + i * kPiece, kPiece), 0)
          << "piece " << i;
    }
    drv.close();
  });
}

// ---------------------------------------------------------------------------
// Shared file pointers
// ---------------------------------------------------------------------------

TEST_F(MpiioTest, WriteSharedProducesDisjointRecords) {
  world_->run([this](Comm& c) {
    DafsCtx ctx(*fabric_, world_->node_of(c.rank()));
    auto f = OpenDafs(c, ctx, "/log.dat", kModeCreate | kModeRdwr);
    ASSERT_NE(f, nullptr);
    constexpr std::uint64_t kRec = 512;
    std::vector<std::byte> rec(kRec, std::byte(c.rank() + 1));
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(f->write_shared(rec.data(), kRec, Datatype::byte()).ok());
    }
    c.barrier();
    EXPECT_EQ(f->get_size().value(), kRec * 3 * kNp);
    // Every record is homogeneous (no interleaving within a record).
    if (c.rank() == 0) {
      std::vector<std::byte> all(kRec * 3 * kNp);
      ASSERT_TRUE(f->read_at(0, all.data(), all.size(), Datatype::byte()).ok());
      std::vector<int> counts(kNp + 2, 0);
      for (std::uint64_t r = 0; r < 3 * kNp; ++r) {
        const std::byte v = all[r * kRec];
        for (std::uint64_t i = 0; i < kRec; ++i) {
          ASSERT_EQ(all[r * kRec + i], v) << "record " << r;
        }
        ++counts[static_cast<int>(v)];
      }
      for (int r = 1; r <= kNp; ++r) EXPECT_EQ(counts[r], 3);
    }
    f->close();
  });
}

TEST_F(MpiioTest, WriteOrderedLaysOutByRank) {
  world_->run([this](Comm& c) {
    DafsCtx ctx(*fabric_, world_->node_of(c.rank()));
    auto f = OpenDafs(c, ctx, "/ordered.dat", kModeCreate | kModeRdwr);
    ASSERT_NE(f, nullptr);
    // Rank r writes r+1 bytes of value r+1; layout must be rank order.
    std::vector<std::byte> rec(static_cast<std::size_t>(c.rank()) + 1,
                               std::byte(c.rank() + 1));
    ASSERT_TRUE(f->write_ordered(rec.data(), rec.size(), Datatype::byte()).ok());
    // Second round appends after the first.
    ASSERT_TRUE(f->write_ordered(rec.data(), rec.size(), Datatype::byte()).ok());
    c.barrier();
    if (c.rank() == 0) {
      const std::uint64_t round = 1 + 2 + 3 + 4;
      std::vector<std::byte> all(2 * round);
      ASSERT_TRUE(f->read_at(0, all.data(), all.size(), Datatype::byte()).ok());
      const char expect[] = {1, 2, 2, 3, 3, 3, 4, 4, 4, 4,
                             1, 2, 2, 3, 3, 3, 4, 4, 4, 4};
      for (std::size_t i = 0; i < all.size(); ++i) {
        EXPECT_EQ(all[i], static_cast<std::byte>(expect[i])) << i;
      }
    }
    f->close();
  });
}

TEST_F(MpiioTest, ReadOrderedConsumesInRankOrder) {
  world_->run([this](Comm& c) {
    DafsCtx ctx(*fabric_, world_->node_of(c.rank()));
    auto f = OpenDafs(c, ctx, "/rord.dat", kModeCreate | kModeRdwr);
    ASSERT_NE(f, nullptr);
    if (c.rank() == 0) {
      std::vector<std::int32_t> v(kNp);
      std::iota(v.begin(), v.end(), 1000);
      ASSERT_TRUE(f->write_at(0, v.data(), kNp, Datatype::int32()).ok());
    }
    c.barrier();
    ASSERT_EQ(f->seek_shared(0, Whence::kSet), Err::kOk);
    std::int32_t mine = 0;
    ASSERT_TRUE(f->read_ordered(&mine, 1, Datatype::int32()).ok());
    EXPECT_EQ(mine, 1000 + c.rank());
    f->close();
  });
}

TEST_F(MpiioTest, SharedPointerUnsupportedOnNfs) {
  world_->run([this](Comm& c) {
    auto client =
        nfs::Client::connect(*fabric_, world_->node_of(c.rank())).value();
    auto f = OpenNfs(c, *client, "/sfp.dat", kModeCreate | kModeRdwr);
    ASSERT_NE(f, nullptr);
    std::byte b{1};
    EXPECT_EQ(f->write_shared(&b, 1, Datatype::byte()).error(), Err::kInval);
    f->close();
  });
}

// ---------------------------------------------------------------------------
// Nonblocking
// ---------------------------------------------------------------------------

TEST_F(MpiioTest, NonblockingWriteReadOverlap) {
  world_->run([this](Comm& c) {
    DafsCtx ctx(*fabric_, world_->node_of(c.rank()));
    auto f = OpenDafs(c, ctx, "/nb.dat", kModeCreate | kModeRdwr);
    ASSERT_NE(f, nullptr);
    constexpr std::uint64_t kChunk = 128 * 1024;
    auto d0 = pattern(kChunk, 700 + c.rank());
    auto d1 = pattern(kChunk, 800 + c.rank());
    const std::uint64_t base = c.rank() * 2 * kChunk;
    auto r0 = f->iwrite_at(base, d0.data(), kChunk, Datatype::byte());
    auto r1 = f->iwrite_at(base + kChunk, d1.data(), kChunk, Datatype::byte());
    ASSERT_TRUE(r0.ok());
    ASSERT_TRUE(r1.ok());
    std::uint64_t b0 = 0, b1 = 0;
    EXPECT_EQ(f->wait(r0.value(), &b0), Err::kOk);
    EXPECT_EQ(f->wait(r1.value(), &b1), Err::kOk);
    EXPECT_EQ(b0, kChunk);
    EXPECT_EQ(b1, kChunk);
    std::vector<std::byte> back(2 * kChunk);
    auto rr = f->iread_at(base, back.data(), 2 * kChunk, Datatype::byte());
    ASSERT_TRUE(rr.ok());
    EXPECT_EQ(f->wait(rr.value()), Err::kOk);
    EXPECT_EQ(std::memcmp(back.data(), d0.data(), kChunk), 0);
    EXPECT_EQ(std::memcmp(back.data() + kChunk, d1.data(), kChunk), 0);
    f->close();
  });
}

// ---------------------------------------------------------------------------
// Size management / atomicity
// ---------------------------------------------------------------------------

TEST_F(MpiioTest, SetSizePreallocateGetSize) {
  world_->run([this](Comm& c) {
    DafsCtx ctx(*fabric_, world_->node_of(c.rank()));
    auto f = OpenDafs(c, ctx, "/size.dat", kModeCreate | kModeRdwr);
    ASSERT_NE(f, nullptr);
    // MPI consistency: a barrier separates each size check from the next
    // mutation, otherwise a fast rank's next set_size races slow readers.
    ASSERT_EQ(f->set_size(1 << 20), Err::kOk);
    EXPECT_EQ(f->get_size().value(), 1u << 20);
    c.barrier();
    ASSERT_EQ(f->preallocate(512 * 1024), Err::kOk);  // no shrink
    EXPECT_EQ(f->get_size().value(), 1u << 20);
    c.barrier();
    ASSERT_EQ(f->preallocate(2 << 20), Err::kOk);
    EXPECT_EQ(f->get_size().value(), 2u << 20);
    c.barrier();
    ASSERT_EQ(f->set_size(100), Err::kOk);
    EXPECT_EQ(f->get_size().value(), 100u);
    f->close();
  });
}

TEST_F(MpiioTest, AtomicModeSupportedOnlyWithLocks) {
  world_->run([this](Comm& c) {
    DafsCtx ctx(*fabric_, world_->node_of(c.rank()));
    auto fd = OpenDafs(c, ctx, "/atomic.dat", kModeCreate | kModeRdwr);
    ASSERT_NE(fd, nullptr);
    EXPECT_EQ(fd->set_atomicity(true), Err::kOk);
    EXPECT_TRUE(fd->atomicity());
    // Atomic writes still work.
    auto data = pattern(64 * 1024, 900 + c.rank());
    ASSERT_TRUE(fd->write_at(c.rank() * 64 * 1024ull, data.data(), data.size(),
                             Datatype::byte())
                    .ok());
    fd->close();

    auto client =
        nfs::Client::connect(*fabric_, world_->node_of(c.rank())).value();
    auto fn = OpenNfs(c, *client, "/atomicnfs.dat", kModeCreate | kModeRdwr);
    ASSERT_NE(fn, nullptr);
    EXPECT_EQ(fn->set_atomicity(true), Err::kInval);
    fn->close();
  });
}

TEST_F(MpiioTest, ReadPastEofIsShort) {
  world_->run([this](Comm& c) {
    Comm self = c.split(c.rank() == 0 ? 0 : 1, 0);  // split is collective
    if (c.rank() != 0) return;
    DafsCtx ctx(*fabric_, world_->node_of(c.rank()));
    auto f = OpenDafs(self, ctx, "/eof.dat", kModeCreate | kModeRdwr);
    ASSERT_NE(f, nullptr);
    auto data = pattern(1000, 11);
    ASSERT_TRUE(f->write_at(0, data.data(), data.size(), Datatype::byte()).ok());
    std::vector<std::byte> big(100'000);
    auto r = f->read_at(0, big.data(), big.size(), Datatype::byte());
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), 1000u);
    f->close();
  });
}


TEST_F(MpiioTest, ListReadStopsAtFirstShortBatch) {
  // A strided read past EOF whose list is longer than one DAFS request
  // holds (the header leaves room for 508 segments in a 16 KiB message): the
  // first request comes back short, and the client must not issue the
  // second, all-past-EOF one.
  world_->run([this](Comm& c) {
    Comm self = c.split(c.rank() == 0 ? 0 : 1, 0);  // split is collective
    if (c.rank() != 0) return;
    DafsCtx ctx(*fabric_, world_->node_of(c.rank()));
    auto f = OpenDafs(self, ctx, "/batch.dat", kModeCreate | kModeRdwr);
    ASSERT_NE(f, nullptr);
    auto data = pattern(1000, 17);
    ASSERT_TRUE(
        f->write_at(0, data.data(), data.size(), Datatype::byte()).ok());
    // 16 B of every 32 B -> 600 segments, split 508 + 92; EOF at 1000
    // falls inside the first request.
    constexpr std::uint64_t kSegs = 600;
    auto ft = Datatype::resized(
        Datatype::hvector(1, 16, 32, Datatype::byte()), 0, 32);
    ASSERT_EQ(f->set_view(0, Datatype::byte(), ft), Err::kOk);
    const std::uint64_t direct_before =
        fabric_->stats().get("dafs.direct_read_reqs");
    const std::uint64_t reqs_before = fabric_->stats().get("dafs.requests");
    std::vector<std::byte> out(kSegs * 16, std::byte{0});
    auto r = f->read_at(0, out.data(), out.size(), Datatype::byte());
    ASSERT_TRUE(r.ok());
    std::uint64_t expect = 0;  // stride bytes that lie before EOF
    for (std::uint64_t k = 0; k < kSegs && k * 32 < 1000; ++k) {
      expect += std::min<std::uint64_t>(16, 1000 - k * 32);
    }
    EXPECT_EQ(r.value(), expect);
    EXPECT_EQ(fabric_->stats().get("dafs.direct_read_reqs") - direct_before,
              1u);
    EXPECT_EQ(fabric_->stats().get("dafs.requests") - reqs_before, 1u)
        << "nothing issued past the short request";
    // The bytes that do exist arrive intact.
    EXPECT_EQ(std::memcmp(out.data(), data.data(), 16), 0);
    EXPECT_EQ(std::memcmp(out.data() + 16, data.data() + 32, 16), 0);
    f->close();
  });
}

TEST_F(MpiioTest, CollectiveWritePopulatesPhaseHistograms) {
  // The cross-layer tracing tentpole: one collective write/read must leave
  // samples in the VIA, DAFS and MPI-IO phase histograms.
  world_->run([this](Comm& c) {
    DafsCtx ctx(*fabric_, world_->node_of(c.rank()));
    auto f = OpenDafs(c, ctx, "/hist.dat", kModeCreate | kModeRdwr);
    ASSERT_NE(f, nullptr);
    constexpr std::uint32_t kBlock = 4096;
    const std::array<std::uint32_t, 1> sizes = {kBlock * kNp};
    const std::array<std::uint32_t, 1> subsizes = {kBlock};
    const std::array<std::uint32_t, 1> starts = {
        static_cast<std::uint32_t>(c.rank()) * kBlock};
    auto ft = Datatype::subarray(sizes, subsizes, starts, Datatype::byte());
    ASSERT_EQ(f->set_view(0, Datatype::byte(), ft), Err::kOk);
    auto mine = pattern(kBlock * 8, 400 + c.rank());
    ASSERT_TRUE(
        f->write_at_all(0, mine.data(), mine.size(), Datatype::byte()).ok());
    std::vector<std::byte> back(mine.size());
    ASSERT_TRUE(
        f->read_at_all(0, back.data(), back.size(), Datatype::byte()).ok());
    c.barrier();
    if (c.rank() == 0) {
      const auto snaps = fabric_->histograms().snapshot_all();
      for (const char* key :
           {"mpiio.write_at_all_ns", "mpiio.read_at_all_ns",
            "mpiio.twophase_meta_ns", "mpiio.twophase_exchange_ns",
            "mpiio.twophase_disk_ns", "via.send_latency_ns",
            "via.doorbell_to_reap_ns"}) {
        auto it = snaps.find(key);
        ASSERT_NE(it, snaps.end()) << key;
        EXPECT_GT(it->second.count, 0u) << key;
        EXPECT_GT(it->second.sum, 0u) << key;
      }
      // Per-procedure DAFS RTTs: the collective surely did direct writes.
      EXPECT_EQ(snaps.count("dafs.rtt_ns.write_direct"), 1u);
    }
    f->close();
  });
}

TEST_F(MpiioTest, PositionSharedTracksSharedPointer) {
  world_->run([this](Comm& c) {
    DafsCtx ctx(*fabric_, world_->node_of(c.rank()));
    auto f = OpenDafs(c, ctx, "/pos.dat", kModeCreate | kModeRdwr);
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->position_shared().value(), 0u);
    c.barrier();
    std::vector<std::byte> rec(100, std::byte(c.rank()));
    ASSERT_TRUE(f->write_shared(rec.data(), rec.size(), Datatype::byte()).ok());
    c.barrier();
    EXPECT_EQ(f->position_shared().value(),
              100u * static_cast<std::uint64_t>(c.size()));
    EXPECT_EQ(f->amode() & kModeRdwr, kModeRdwr);
    EXPECT_EQ(f->path(), "/pos.dat");
    f->close();
  });
}

}  // namespace
