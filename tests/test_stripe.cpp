#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dafs/client.hpp"
#include "dafs/server.hpp"
#include "mpiio/ad_dafs.hpp"
#include "mpiio/file.hpp"
#include "sim/fault.hpp"
#include "sim/rng.hpp"

/// \file test_stripe.cpp
/// Striped multi-filer suite (ctest label `stripe`): a dafs::Client mounts N
/// single filers as one namespace, round-robining file data across them in
/// stripe_size units while metadata stays on filer 0. Covers byte-exact
/// read-back across stripe boundaries, hole zero-fill and short reads at
/// EOF, one session (and one request per namespace call) per filer, a
/// striped 4-rank MPI-IO collective, and an 8-seed sweep that kills a data
/// server mid-transfer and expects the client to ride out the outage.

namespace {

using dafs::PStatus;
using mpi::Comm;
using mpi::Datatype;
using mpiio::Err;
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

/// N independent filers "dafs0".."dafsN-1", each on its own node of one
/// fabric. Filer 0 doubles as the metadata server of every striped mount.
struct StripedFilers {
  std::vector<sim::NodeId> nodes;
  std::vector<std::unique_ptr<dafs::Server>> servers;
  std::vector<std::string> services;

  StripedFilers(sim::Fabric& fabric, int n, dafs::ServerConfig base = {}) {
    for (int i = 0; i < n; ++i) {
      services.push_back("dafs" + std::to_string(i));
      nodes.push_back(fabric.add_node("filer" + std::to_string(i)));
      dafs::ServerConfig cfg = base;
      cfg.service = services.back();
      servers.push_back(
          std::make_unique<dafs::Server>(fabric, nodes.back(), cfg));
      servers.back()->start();
    }
  }

  ~StripedFilers() {
    for (auto& s : servers) s->stop();
  }
};

/// A striped mount over all of `f`'s filers, with test-speed backoffs and a
/// per-rank jitter stream.
dafs::MountSpec striped_cfg(const StripedFilers& f, std::uint64_t stripe_size,
                            std::uint64_t seed, int rank) {
  dafs::RetryPolicy retry;
  retry.backoff_ns = 20'000;
  retry.backoff_cap_ns = 2'000'000;
  retry.jitter_seed = seed * 131 + static_cast<std::uint64_t>(rank);
  return dafs::striped_mount(f.services, stripe_size, retry);
}

void wait_restart(dafs::Server& server) {
  while (server.crashed()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// ---------------------------------------------------------------------------
// Byte-exact read-back across stripe boundaries
// ---------------------------------------------------------------------------

TEST(Stripe, ByteExactReadbackAcrossBoundaries) {
  constexpr std::uint64_t kStripe = 8 * 1024;
  sim::Fabric fabric;
  StripedFilers filers(fabric, 3);
  const auto node = fabric.add_node("client");
  Actor actor("client", &fabric.node(node));
  ActorScope scope(actor);
  via::Nic nic(fabric, node, "nic");
  auto c = std::move(
      dafs::Client::connect(nic, striped_cfg(filers, kStripe, 1, 0)).value());
  EXPECT_EQ(c->data_servers(), 3u);
  EXPECT_EQ(c->stripe_size(), kStripe);

  auto fh = c->open("/s.dat", dafs::kOpenCreate).value();
  // Every data server past filer 0 opened its subfile at open time; filer
  // 0's file is data server 0's subfile.
  EXPECT_EQ(fabric.stats().get("dafs.data_opens"), 2u);

  // A big write at an unaligned offset: spans ~12 stripes, so every server
  // holds several, and both ends of the extent sit mid-stripe.
  const std::uint64_t off = 3'000;
  const auto data = pattern(100'000, 7);
  auto w = c->pwrite(fh, off, data);
  ASSERT_TRUE(w.ok()) << dafs::to_string(w.error());
  EXPECT_EQ(w.value(), data.size());

  auto attrs = c->getattr(fh);
  ASSERT_TRUE(attrs.ok());
  EXPECT_EQ(attrs.value().size, off + data.size())
      << "logical size is the max over the subfiles";

  // Contiguous read-back of the exact extent.
  std::vector<std::byte> back(data.size());
  auto r = c->pread(fh, off, back);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value(), back.size());
  EXPECT_EQ(std::memcmp(back.data(), data.data(), back.size()), 0);

  // List read with pieces straddling stripe boundaries at odd offsets: each
  // piece covers [b - 100, b + 100) around a boundary b.
  for (std::uint64_t b = kStripe; b + 100 <= off + data.size();
       b += 3 * kStripe) {
    if (b < off + 100) continue;
    std::vector<std::byte> piece(200);
    dafs::IoVec iov{b - 100, piece.data(), piece.size()};
    auto br = c->read_batch(fh, std::span(&iov, 1));
    ASSERT_TRUE(br.ok());
    ASSERT_EQ(br.value(), piece.size());
    EXPECT_EQ(std::memcmp(piece.data(), data.data() + (b - 100 - off),
                          piece.size()),
              0)
        << "boundary " << b;
  }

  // Unaligned list *write* (3 pieces, two crossing boundaries), then verify
  // the whole extent again.
  auto patch = pattern(3 * 512, 99);
  std::vector<std::byte> expect = data;
  std::vector<dafs::IoVec> iovs;
  const std::uint64_t spots[3] = {kStripe - 256, 4 * kStripe - 256,
                                  7 * kStripe + 777};
  for (int i = 0; i < 3; ++i) {
    iovs.push_back(dafs::IoVec{off + spots[i], patch.data() + i * 512, 512});
    std::memcpy(expect.data() + spots[i], patch.data() + i * 512, 512);
  }
  auto bw = c->write_batch(fh, iovs);
  ASSERT_TRUE(bw.ok());
  EXPECT_EQ(bw.value(), 3u * 512u);
  ASSERT_TRUE(c->pread(fh, off, back).ok());
  EXPECT_EQ(std::memcmp(back.data(), expect.data(), back.size()), 0);

  ASSERT_EQ(c->sync(fh), PStatus::kOk);
  ASSERT_EQ(c->close(fh), PStatus::kOk);
  c.reset();
}

// ---------------------------------------------------------------------------
// Holes read as zeros; reads stop short at the striped EOF
// ---------------------------------------------------------------------------

TEST(Stripe, HolesAndShortReadsAtEof) {
  constexpr std::uint64_t kStripe = 8 * 1024;
  sim::Fabric fabric;
  StripedFilers filers(fabric, 3);
  const auto node = fabric.add_node("client");
  Actor actor("client", &fabric.node(node));
  ActorScope scope(actor);
  via::Nic nic(fabric, node, "nic");
  auto c = std::move(
      dafs::Client::connect(nic, striped_cfg(filers, kStripe, 2, 0)).value());

  auto fh = c->open("/holes.dat", dafs::kOpenCreate).value();
  // Two islands with a hole between them. The islands land on different
  // servers, so the hole spans subfiles that never saw a write.
  const auto head = pattern(5'000, 11);
  const auto tail = pattern(5'000, 12);
  ASSERT_TRUE(c->pwrite(fh, 0, head).ok());
  ASSERT_TRUE(c->pwrite(fh, 50'000, tail).ok());
  auto attrs = c->getattr(fh);
  ASSERT_TRUE(attrs.ok());
  ASSERT_EQ(attrs.value().size, 55'000u);

  // Read past EOF: the merge clamps at the logical size, zero-fills the
  // hole, and returns a short count.
  std::vector<std::byte> buf(60'000, std::byte{0xee});
  auto r = c->pread(fh, 0, buf);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 55'000u) << "short read at striped EOF";
  EXPECT_EQ(std::memcmp(buf.data(), head.data(), head.size()), 0);
  for (std::size_t i = 5'000; i < 50'000; ++i) {
    ASSERT_EQ(buf[i], std::byte{0}) << "hole byte " << i;
  }
  EXPECT_EQ(std::memcmp(buf.data() + 50'000, tail.data(), tail.size()), 0);

  // A read wholly past EOF transfers nothing.
  auto past = c->pread(fh, 100'000, buf);
  ASSERT_TRUE(past.ok());
  EXPECT_EQ(past.value(), 0u);

  // An unaligned read straddling EOF: only the in-file prefix counts.
  std::vector<std::byte> straddle(2'000, std::byte{0xee});
  auto sr = c->pread(fh, 54'000, straddle);
  ASSERT_TRUE(sr.ok());
  EXPECT_EQ(sr.value(), 1'000u);
  EXPECT_EQ(std::memcmp(straddle.data(), tail.data() + 4'000, 1'000), 0);

  ASSERT_EQ(c->close(fh), PStatus::kOk);
  c.reset();
}

// ---------------------------------------------------------------------------
// Async striped I/O and the degenerate single-server mount
// ---------------------------------------------------------------------------

TEST(Stripe, AsyncSubmitWaitAndSingleServerDegenerates) {
  constexpr std::uint64_t kStripe = 4 * 1024;
  sim::Fabric fabric;
  StripedFilers filers(fabric, 2);
  const auto node = fabric.add_node("client");
  Actor actor("client", &fabric.node(node));
  ActorScope scope(actor);
  via::Nic nic(fabric, node, "nic");
  auto c = std::move(
      dafs::Client::connect(nic, striped_cfg(filers, kStripe, 3, 0)).value());

  auto fh = c->open("/async.dat", dafs::kOpenCreate).value();
  const auto a = pattern(20'000, 21);
  const auto b = pattern(20'000, 22);
  auto wa = c->submit_pwrite(fh, 0, a);
  auto wb = c->submit_pwrite(fh, 40'000, b);
  ASSERT_TRUE(wa.ok());
  ASSERT_TRUE(wb.ok());
  const dafs::OpId ops[2] = {wa.value(), wb.value()};
  ASSERT_EQ(c->wait_all(ops), PStatus::kOk);

  std::vector<std::byte> back(20'000);
  auto rd = c->submit_pread(fh, 40'000, back);
  ASSERT_TRUE(rd.ok());
  std::uint64_t got = 0;
  ASSERT_EQ(c->wait(rd.value(), &got), PStatus::kOk);
  EXPECT_EQ(got, back.size());
  EXPECT_EQ(std::memcmp(back.data(), b.data(), back.size()), 0);
  ASSERT_EQ(c->close(fh), PStatus::kOk);
  c.reset();

  // One service in the mount: the Client degenerates to a plain session and
  // reports no striping (the collective layer then skips alignment).
  auto single = std::move(
      dafs::Client::connect(
          nic, dafs::striped_mount({filers.services[0]}, kStripe))
          .value());
  EXPECT_EQ(single->data_servers(), 1u);
  auto sfh = single->open("/single.dat", dafs::kOpenCreate).value();
  ASSERT_TRUE(single->pwrite(sfh, 0, a).ok());
  std::vector<std::byte> sback(a.size());
  ASSERT_TRUE(single->pread(sfh, 0, sback).ok());
  EXPECT_EQ(std::memcmp(sback.data(), a.data(), sback.size()), 0);
  single.reset();
}

// ---------------------------------------------------------------------------
// One session per filer
// ---------------------------------------------------------------------------

TEST(Stripe, OneSessionPerFiler) {
  sim::Fabric fabric;
  StripedFilers filers(fabric, 3);
  const auto node = fabric.add_node("client");
  Actor actor("client", &fabric.node(node));
  ActorScope scope(actor);
  via::Nic nic(fabric, node, "nic");
  auto stat = [&](const char* key) { return fabric.stats().get(key); };

  // A one-filer mount binds one session, and a namespace call is one
  // request on it.
  auto single = std::move(
      dafs::Client::connect(nic, dafs::single_mount(filers.services[0]))
          .value());
  EXPECT_EQ(stat("dafs.client_sessions"), 1u);
  std::uint64_t reqs = stat("dafs.requests");
  ASSERT_TRUE(single->open("/one.dat", dafs::kOpenCreate).ok());
  EXPECT_EQ(stat("dafs.requests"), reqs + 1) << "create";
  reqs = stat("dafs.requests");
  ASSERT_EQ(single->remove("/one.dat"), PStatus::kOk);
  EXPECT_EQ(stat("dafs.requests"), reqs + 1) << "remove";
  reqs = stat("dafs.requests");
  ASSERT_EQ(single->mkdir("/d"), PStatus::kOk);
  EXPECT_EQ(stat("dafs.requests"), reqs + 1) << "mkdir";
  single.reset();

  // A three-filer striped mount binds one session per filer, and an open
  // is one request on each.
  const std::uint64_t sessions = stat("dafs.client_sessions");
  auto striped = std::move(
      dafs::Client::connect(nic, dafs::striped_mount(filers.services))
          .value());
  EXPECT_EQ(stat("dafs.client_sessions"), sessions + 3);
  reqs = stat("dafs.requests");
  ASSERT_TRUE(striped->open("/three.dat", dafs::kOpenCreate).ok());
  EXPECT_EQ(stat("dafs.requests"), reqs + 3);
  striped.reset();

  // Filer 0 is also data server 0, so a data list must start there.
  dafs::MountSpec skewed = dafs::striped_mount(filers.services);
  std::swap(skewed.data_endpoints[0], skewed.data_endpoints[1]);
  auto refused = dafs::Client::connect(nic, skewed);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error(), PStatus::kInval);
}

// ---------------------------------------------------------------------------
// One engine: transfers longer than one request, sync or async
// ---------------------------------------------------------------------------

/// Direct segments one request message holds: what the header leaves of the
/// default message buffer.
constexpr std::size_t kSegsPerRequest =
    (dafs::kMsgBufSize - sizeof(dafs::MsgHeader)) / sizeof(dafs::DirectSeg);

TEST(Stripe, AsyncTransferLongerThanOneRequestPerFiler) {
  // Two filers with 4 KiB stripes: 1,200 stripes put 600 pieces on each
  // filer, more than one request holds. The async op carries them in
  // rounds of one request per filer, as the sync call does.
  constexpr std::uint64_t kStripe = 4 * 1024;
  constexpr std::size_t kPerFiler = 600;
  static_assert(kPerFiler > kSegsPerRequest &&
                kPerFiler <= 2 * kSegsPerRequest);
  constexpr std::uint64_t kLen = 2 * kPerFiler * kStripe;
  sim::Fabric fabric;
  StripedFilers filers(fabric, 2);
  const auto node = fabric.add_node("client");
  Actor actor("client", &fabric.node(node));
  ActorScope scope(actor);
  via::Nic nic(fabric, node, "nic");
  auto stat = [&](const char* key) { return fabric.stats().get(key); };
  auto c = std::move(
      dafs::Client::connect(nic, striped_cfg(filers, kStripe, 5, 0)).value());
  auto fh = c->open("/rounds.dat", dafs::kOpenCreate).value();

  const auto data = pattern(kLen, 31);
  const std::uint64_t writes = stat("dafs.direct_write_reqs");
  auto w = c->submit_pwrite(fh, 0, data);
  ASSERT_TRUE(w.ok()) << dafs::to_string(w.error());
  std::uint64_t got = 0;
  ASSERT_EQ(c->wait(w.value(), &got), PStatus::kOk);
  EXPECT_EQ(got, kLen);
  EXPECT_EQ(stat("dafs.direct_write_reqs") - writes, 4u)
      << "two rounds of one request per filer";

  std::vector<std::byte> back(kLen);
  auto r = c->submit_pread(fh, 0, back);
  ASSERT_TRUE(r.ok()) << dafs::to_string(r.error());
  ASSERT_EQ(c->wait(r.value(), &got), PStatus::kOk);
  EXPECT_EQ(got, kLen);
  EXPECT_EQ(std::memcmp(back.data(), data.data(), kLen), 0);

  std::fill(back.begin(), back.end(), std::byte{0});
  auto sr = c->pread(fh, 0, back);
  ASSERT_TRUE(sr.ok());
  EXPECT_EQ(sr.value(), kLen);
  EXPECT_EQ(std::memcmp(back.data(), data.data(), kLen), 0);
  ASSERT_EQ(c->close(fh), PStatus::kOk);
  c.reset();
}

TEST(Stripe, OneFilerListLongerThanOneRequest) {
  // A list of more segments than one request holds goes out in as many
  // requests as it needs on a one-filer mount too: 600 pieces, and 300
  // pieces that the max_rdma_seg split turns into 600 segments.
  sim::Fabric fabric;
  StripedFilers filers(fabric, 1);
  const auto node = fabric.add_node("client");
  Actor actor("client", &fabric.node(node));
  ActorScope scope(actor);
  via::Nic nic(fabric, node, "nic");
  auto stat = [&](const char* key) { return fabric.stats().get(key); };
  struct Case {
    const char* path;
    std::size_t pieces;
    std::uint64_t piece_len;
    std::size_t max_rdma_seg;
  };
  for (const Case& k : {Case{"/list-a.dat", 600, 4096, 2u << 20},
                        Case{"/list-b.dat", 300, 8192, 4096}}) {
    SCOPED_TRACE(k.path);
    dafs::ClientConfig cc;
    cc.max_rdma_seg = k.max_rdma_seg;
    auto c = std::move(
        dafs::Client::connect(
            nic, dafs::single_mount(filers.services[0], {}, cc))
            .value());
    auto fh = c->open(k.path, dafs::kOpenCreate).value();
    // Every other piece-sized slot of the file, so no two pieces touch.
    auto data = pattern(k.pieces * k.piece_len, 41);
    std::vector<std::byte> back(data.size());
    std::vector<dafs::IoVec> out;
    std::vector<dafs::IoVec> in;
    for (std::size_t i = 0; i < k.pieces; ++i) {
      const std::uint64_t at = i * k.piece_len;
      out.push_back(dafs::IoVec{2 * at, data.data() + at, k.piece_len});
      in.push_back(dafs::IoVec{2 * at, back.data() + at, k.piece_len});
    }
    const std::uint64_t writes = stat("dafs.direct_write_reqs");
    auto w = c->write_batch(fh, out);
    ASSERT_TRUE(w.ok()) << dafs::to_string(w.error());
    EXPECT_EQ(w.value(), data.size());
    EXPECT_EQ(stat("dafs.direct_write_reqs") - writes, 2u);
    auto r = c->read_batch(fh, in);
    ASSERT_TRUE(r.ok()) << dafs::to_string(r.error());
    EXPECT_EQ(r.value(), data.size());
    EXPECT_EQ(std::memcmp(back.data(), data.data(), data.size()), 0);
    ASSERT_EQ(c->close(fh), PStatus::kOk);
    c.reset();
  }
}

TEST(Stripe, ForcedInlineAsyncReadSendsInlineMessages) {
  // direct_threshold = SIZE_MAX keeps every transfer inline. An async read
  // longer than one message then goes out as inline messages, exactly as
  // the sync read does, and never as a direct request.
  constexpr std::uint64_t kLen = 64 * 1024;
  sim::Fabric fabric;
  StripedFilers filers(fabric, 1);
  const auto node = fabric.add_node("client");
  Actor actor("client", &fabric.node(node));
  ActorScope scope(actor);
  via::Nic nic(fabric, node, "nic");
  auto stat = [&](const char* key) { return fabric.stats().get(key); };
  dafs::ClientConfig cc;
  cc.direct_threshold = SIZE_MAX;
  auto c = std::move(
      dafs::Client::connect(nic, dafs::single_mount(filers.services[0], {}, cc))
          .value());
  auto fh = c->open("/inline.dat", dafs::kOpenCreate).value();
  const auto data = pattern(kLen, 51);
  ASSERT_TRUE(c->pwrite(fh, 0, data).ok());

  const std::uint64_t direct = stat("dafs.direct_read_reqs");
  std::uint64_t reqs = stat("dafs.requests");
  std::vector<std::byte> back(kLen);
  auto op = c->submit_pread(fh, 0, back);
  ASSERT_TRUE(op.ok());
  std::uint64_t got = 0;
  ASSERT_EQ(c->wait(op.value(), &got), PStatus::kOk);
  EXPECT_EQ(got, kLen);
  EXPECT_EQ(back, data);
  const std::uint64_t async_reqs = stat("dafs.requests") - reqs;
  const std::size_t cap = dafs::kMsgBufSize - sizeof(dafs::MsgHeader);
  EXPECT_EQ(async_reqs, (kLen + cap - 1) / cap) << "one per inline message";

  reqs = stat("dafs.requests");
  std::fill(back.begin(), back.end(), std::byte{0});
  ASSERT_EQ(c->pread(fh, 0, back).value(), kLen);
  EXPECT_EQ(back, data);
  EXPECT_EQ(stat("dafs.requests") - reqs, async_reqs) << "as pread does";
  EXPECT_EQ(stat("dafs.direct_read_reqs"), direct);
  ASSERT_EQ(c->close(fh), PStatus::kOk);
  c.reset();
}

// ---------------------------------------------------------------------------
// Striped MPI-IO collective: 4 ranks, stripe-aligned file domains
// ---------------------------------------------------------------------------

TEST(Stripe, CollectiveWriteReadbackOverStripedClient) {
  constexpr std::uint64_t kStripe = 16 * 1024;
  constexpr int kRanks = 4;
  sim::Fabric fabric;
  StripedFilers filers(fabric, 4);

  mpi::WorldConfig wcfg;
  wcfg.nprocs = kRanks;
  wcfg.fabric = &fabric;
  wcfg.name = "stripe";
  mpi::World world(wcfg);
  world.run([&](Comm& c) {
    via::Nic nic(fabric, world.node_of(c.rank()), "cli");
    auto client = std::move(
        dafs::Client::connect(nic, striped_cfg(filers, kStripe, 4, c.rank()))
            .value());
    auto f = std::move(File::open(c, "/coll.dat",
                                  mpiio::kModeCreate | mpiio::kModeRdwr,
                                  Info{}, mpiio::dafs_driver(*client))
                           .value());

    // Interleaved unaligned blocks: rank r writes kChunk at r*kChunk + 512,
    // so two-phase aggregation has real exchange work and the stripe-aligned
    // domains get exercised off the aligned fast path.
    const std::uint64_t off = c.rank() * kChunk + 512;
    const auto data = pattern(kChunk, 4000 + c.rank());
    ASSERT_TRUE(
        f->write_at_all(off, data.data(), kChunk, Datatype::byte()).ok());
    ASSERT_EQ(f->sync(), Err::kOk);
    c.barrier();

    std::vector<std::byte> back(kChunk);
    ASSERT_TRUE(
        f->read_at_all(off, back.data(), kChunk, Datatype::byte()).ok());
    EXPECT_EQ(std::memcmp(back.data(), data.data(), kChunk), 0)
        << "rank " << c.rank();
    f->close();
  });

  // Every rank opened a subfile on each data filer past filer 0.
  EXPECT_EQ(fabric.stats().get("dafs.data_opens"),
            static_cast<std::uint64_t>(kRanks) * 3u);

  // Cross-check the whole file through a fresh striped mount.
  const auto node = fabric.add_node("verify");
  Actor actor("verify", &fabric.node(node));
  ActorScope scope(actor);
  via::Nic nic(fabric, node, "vnic");
  auto v = std::move(
      dafs::Client::connect(nic, striped_cfg(filers, kStripe, 4, 99)).value());
  auto fh = v->open("/coll.dat").value();
  std::vector<std::byte> all(kRanks * kChunk + 512);
  auto rd = v->pread(fh, 0, all);
  ASSERT_TRUE(rd.ok());
  ASSERT_EQ(rd.value(), all.size());
  for (int r = 0; r < kRanks; ++r) {
    const auto expect = pattern(kChunk, 4000 + r);
    EXPECT_EQ(std::memcmp(all.data() + r * kChunk + 512, expect.data(), kChunk),
              0)
        << "rank " << r;
  }
  v.reset();
}

TEST(Stripe, CollectiveRoundsOverStripeAlignedDomains) {
  // Block-cyclic 3 KiB blocks (never stripe-aligned) over 16 KiB stripes,
  // with a 64 KiB collective buffer: every aggregator's stripe-aligned
  // domain takes several one-sided rounds, and a round's covered run spans
  // stripe boundaries the client then splits across filers.
  constexpr std::uint64_t kStripe = 16 * 1024;
  constexpr std::uint32_t kBlock = 3 * 1024;
  constexpr std::uint64_t kTiles = 40;
  constexpr int kRanks = 4;
  sim::Fabric fabric;
  StripedFilers filers(fabric, 4);

  mpi::WorldConfig wcfg;
  wcfg.nprocs = kRanks;
  wcfg.fabric = &fabric;
  wcfg.name = "stripe-rounds";
  mpi::World world(wcfg);
  world.run([&](Comm& c) {
    via::Nic nic(fabric, world.node_of(c.rank()), "cli");
    auto client = std::move(
        dafs::Client::connect(nic, striped_cfg(filers, kStripe, 5, c.rank()))
            .value());
    Info info;
    info.set("cb_buffer_size", std::uint64_t{64 * 1024});
    auto f = std::move(File::open(c, "/rounds.dat",
                                  mpiio::kModeCreate | mpiio::kModeRdwr, info,
                                  mpiio::dafs_driver(*client))
                           .value());
    const std::array<std::uint32_t, 1> sizes = {kBlock * kRanks};
    const std::array<std::uint32_t, 1> subsizes = {kBlock};
    const std::array<std::uint32_t, 1> starts = {
        static_cast<std::uint32_t>(c.rank()) * kBlock};
    ASSERT_EQ(f->set_view(0, Datatype::byte(),
                          Datatype::subarray(sizes, subsizes, starts,
                                             Datatype::byte())),
              Err::kOk);
    const auto data = pattern(kBlock * kTiles, 4100 + c.rank());
    const std::uint64_t fences0 = fabric.stats().get("mpi.rma_fences");
    ASSERT_TRUE(
        f->write_at_all(0, data.data(), data.size(), Datatype::byte()).ok());
    std::vector<std::byte> back(data.size());
    ASSERT_TRUE(
        f->read_at_all(0, back.data(), back.size(), Datatype::byte()).ok());
    EXPECT_EQ(std::memcmp(back.data(), data.data(), data.size()), 0)
        << "rank " << c.rank();
    // 480 KiB over 4 aggregators -> 128 KiB stripe-aligned domains -> two
    // 64 KiB rounds each way: three fences per call on every rank (no rank
    // can fence before all have entered the write, nor leave the read
    // before all have fenced).
    EXPECT_EQ(fabric.stats().get("mpi.rma_fences") - fences0, 2u * 3u * kRanks);
    f->close();
  });

  const auto node = fabric.add_node("verify");
  Actor actor("verify", &fabric.node(node));
  ActorScope scope(actor);
  via::Nic nic(fabric, node, "vnic");
  auto v = std::move(
      dafs::Client::connect(nic, striped_cfg(filers, kStripe, 5, 99)).value());
  auto fh = v->open("/rounds.dat").value();
  std::vector<std::byte> all(kBlock * kTiles * kRanks);
  ASSERT_EQ(v->pread(fh, 0, all).value(), all.size());
  for (int r = 0; r < kRanks; ++r) {
    const auto expect = pattern(kBlock * kTiles, 4100 + r);
    for (std::uint64_t t = 0; t < kTiles; ++t) {
      ASSERT_EQ(std::memcmp(all.data() + (t * kRanks + r) * kBlock,
                            expect.data() + t * kBlock, kBlock),
                0)
          << "rank " << r << " tile " << t;
    }
  }
  v.reset();
}

// ---------------------------------------------------------------------------
// The capstone: seeded data-server-crash-mid-transfer sweep
// ---------------------------------------------------------------------------

/// One seed: a 4-rank world writes a durable striped baseline, then the
/// crash schedule kills data server 1 (never the metadata filer) a handful
/// of admitted requests into the next collective. Data mounts are
/// single-endpoint, so the only way through is to ride out the outage:
/// sessions reconnect to the restarted filer, reclaim, and finish. Synced
/// baseline bytes must come back byte-exact afterwards.
void run_stripe_world(std::uint64_t seed) {
  const auto wall_start = std::chrono::steady_clock::now();
  constexpr std::uint64_t kStripe = 8 * 1024;
  constexpr int kRanks = 4;

  sim::Fabric fabric;
  dafs::ServerConfig scfg;
  scfg.grace_period_ms = 10;
  StripedFilers filers(fabric, 3, scfg);

  mpi::WorldConfig wcfg;
  wcfg.nprocs = kRanks;
  wcfg.fabric = &fabric;
  wcfg.name = "stripe-fault";
  mpi::World world(wcfg);
  world.run([&](Comm& c) {
    via::Nic nic(fabric, world.node_of(c.rank()), "cli");
    auto client = std::move(
        dafs::Client::connect(nic, striped_cfg(filers, kStripe, seed, c.rank()))
            .value());
    auto fa = std::move(File::open(c, "/a.dat",
                                   mpiio::kModeCreate | mpiio::kModeRdwr,
                                   Info{}, mpiio::dafs_driver(*client))
                            .value());
    auto fb = std::move(File::open(c, "/b.dat",
                                   mpiio::kModeCreate | mpiio::kModeRdwr,
                                   Info{}, mpiio::dafs_driver(*client))
                            .value());
    auto poll_fh = client->open("/a.dat").value();

    // Phase 1 (healthy): durable striped baseline.
    const std::uint64_t off = c.rank() * kChunk;
    const auto da = pattern(kChunk, 5000 + seed * 10 + c.rank());
    ASSERT_TRUE(
        fa->write_at_all(off, da.data(), kChunk, Datatype::byte()).ok());
    ASSERT_EQ(fa->sync(), Err::kOk);
    c.barrier();

    // Arm: kill data server 1 — and only it — a few admitted requests into
    // phase 2, restarting 60 ms later. Odd seeds also delay transfers on
    // its connections to vary where inside a striped batch the crash lands.
    if (c.rank() == 0) {
      auto& plan = fabric.faults();
      plan.arm(seed);
      plan.restrict_crash_to_node(filers.nodes[1]);
      plan.crash_server_after_requests(2 + seed * 3,
                                       /*restart_delay_ms=*/60);
      if (seed % 2 == 1) {
        plan.restrict_to_conn(filers.services[1]);
        plan.set_delay(0.2, 30'000);
      }
    }
    c.barrier();

    // Phase 2 (crash lands here): striped collective writes. Recovery is
    // transparent — each retry rides the data session's reconnect loop.
    const auto db = pattern(kChunk, 6000 + seed * 10 + c.rank());
    bool ok = false;
    for (int t = 0; t < 8 && !ok; ++t) {
      ok = fb->write_at_all(off, db.data(), kChunk, Datatype::byte()).ok();
    }
    ASSERT_TRUE(ok) << "collective write across data-server crash, seed "
                    << seed;
    c.barrier();

    // Make sure the armed crash actually fired, then wait out the restart.
    if (c.rank() == 0) {
      int guard = 0;
      while (fabric.stats().get("dafs.server_crashes") == 0 && guard++ < 500) {
        (void)client->getattr(poll_fh);
      }
      EXPECT_GE(fabric.stats().get("dafs.server_crashes"), 1u)
          << "seed " << seed;
      wait_restart(*filers.servers[1]);
      fabric.faults().clear();
    }
    c.barrier();

    // Phase 3 (healthy again): rewrite /b.dat clean and sync — acked but
    // un-synced phase-2 stripes legally died with the server — then verify
    // the synced baseline never moved.
    ok = false;
    for (int t = 0; t < 8 && !ok; ++t) {
      ok = fb->write_at_all(off, db.data(), kChunk, Datatype::byte()).ok();
    }
    ASSERT_TRUE(ok) << "clean rewrite, seed " << seed;
    ASSERT_EQ(fb->sync(), Err::kOk);

    std::vector<std::byte> back(kChunk);
    ASSERT_TRUE(
        fa->read_at_all(off, back.data(), kChunk, Datatype::byte()).ok());
    EXPECT_EQ(std::memcmp(back.data(), da.data(), kChunk), 0)
        << "synced striped baseline, seed " << seed;
    ASSERT_TRUE(
        fb->read_at_all(off, back.data(), kChunk, Datatype::byte()).ok());
    EXPECT_EQ(std::memcmp(back.data(), db.data(), kChunk), 0);

    fa->close();
    fb->close();
  });

  EXPECT_GE(fabric.stats().get("dafs.server_crashes"), 1u) << "seed " << seed;

  // Byte-exact verify of both striped files through a pristine mount.
  {
    const auto node = fabric.add_node("verify");
    Actor actor("verify", &fabric.node(node));
    ActorScope scope(actor);
    via::Nic nic(fabric, node, "vnic");
    auto v = std::move(
        dafs::Client::connect(nic, striped_cfg(filers, kStripe, seed, 99))
            .value());
    for (const char* path : {"/a.dat", "/b.dat"}) {
      auto fh = v->open(path).value();
      const std::uint64_t base =
          std::string_view(path) == "/a.dat" ? 5000 : 6000;
      std::vector<std::byte> all(kRanks * kChunk);
      auto rd = v->pread(fh, 0, all);
      EXPECT_TRUE(rd.ok()) << path << " seed " << seed;
      if (!rd.ok()) continue;
      for (int r = 0; r < kRanks; ++r) {
        const auto expect = pattern(kChunk, base + seed * 10 + r);
        EXPECT_EQ(
            std::memcmp(all.data() + r * kChunk, expect.data(), kChunk), 0)
            << path << " rank " << r << " seed " << seed;
      }
    }
    v.reset();
  }

  EXPECT_LT(std::chrono::steady_clock::now() - wall_start,
            std::chrono::seconds(60))
      << "seed " << seed;
}

TEST(Stripe, SeededDataServerCrashSweep) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) run_stripe_world(seed);
}

}  // namespace
