#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "dafs/client.hpp"
#include "dafs/server.hpp"
#include "dafs/session.hpp"
#include "fstore/file_store.hpp"
#include "fstore/journal.hpp"
#include "quorum_bed.hpp"
#include "sim/fault.hpp"
#include "sim/rng.hpp"

/// \file test_integrity.cpp
/// End-to-end data-integrity suite (ctest label `integrity`): both CRC
/// codecs match their known answers and a byte-at-a-time reference, the
/// CRC-32C block/wire codec round-trips every block shape, at-rest bit rot is
/// detected before a byte reaches a client and repaired from a quorum
/// replica's verified copy, a filer with no healthy copy demotes the block
/// to a read error (never silent bad bytes), and a wire flip on a write
/// payload is rejected server-side and retried with a fresh sequence so the
/// exactly-once duplicate filter never sees the damaged request. Capstone:
/// an 8-seed chaos sweep over a 3-member quorum group with the background
/// scrubber on.

namespace {

using dafs::PStatus;
using fstore::Errc;
using fstore::FileStore;
using fstore::kRootIno;
using sim::Actor;
using sim::ActorScope;

using dafs_test::QuorumBed;

constexpr std::size_t kBlock = 8 * 1024;

std::vector<std::byte> pattern(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng.next() & 0xff);
  return out;
}

/// Real-time wait for a fabric stat to reach `at_least`.
bool wait_stat(sim::Fabric& fabric, const char* key, std::uint64_t at_least,
               int budget_ms = 15'000) {
  for (int i = 0; i < budget_ms; ++i) {
    if (fabric.stats().get(key) >= at_least) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return fabric.stats().get(key) >= at_least;
}

// ---------------------------------------------------------------------------
// Checksum codec: CRC-32C properties and block-shape round trips
// ---------------------------------------------------------------------------

TEST(IntegrityCodec, Crc32cSeedChainsToWholeBufferChecksum) {
  // Empty input with the default seed is the identity.
  EXPECT_EQ(fstore::crc32c({}), 0u);

  const auto data = pattern(4096, 9);
  const std::uint32_t whole = fstore::crc32c(data);
  // Chaining through the seed equals one pass over the concatenation — the
  // property the client relies on to checksum a scatter/gather iov list and
  // the server relies on to chain across extent spans.
  for (std::size_t cut : {std::size_t{0}, std::size_t{1}, std::size_t{103},
                          std::size_t{2048}, data.size()}) {
    const std::uint32_t part = fstore::crc32c(std::span(data).subspan(0, cut));
    EXPECT_EQ(fstore::crc32c(std::span(data).subspan(cut), part), whole)
        << "cut " << cut;
  }
  // Byte-at-a-time chaining degenerates to the same value.
  std::uint32_t acc = 0;
  for (std::byte b : data) acc = fstore::crc32c({&b, 1}, acc);
  EXPECT_EQ(acc, whole);

  // Castagnoli and the journal's IEEE CRC-32 are distinct codecs: a framed
  // journal record can never masquerade as a verified data block.
  EXPECT_NE(fstore::crc32c(data), fstore::crc32(data));
  // Damage changes the value (the whole point).
  auto bent = data;
  bent[1234] ^= std::byte{0x01};
  EXPECT_NE(fstore::crc32c(bent), whole);
}

/// The classic one-lookup-per-byte table loop over a reflected polynomial:
/// the reference both word-at-a-time codecs must reproduce bit for bit,
/// because journal frames and chunk checksums already hold its values.
class ByteAtATimeCrc {
 public:
  explicit ByteAtATimeCrc(std::uint32_t poly) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1u) ? poly ^ (c >> 1) : c >> 1;
      table_[i] = c;
    }
  }

  std::uint32_t operator()(std::span<const std::byte> data,
                           std::uint32_t seed = 0) const {
    std::uint32_t c = seed ^ 0xFFFFFFFFu;
    for (std::byte b : data) {
      c = table_[(c ^ static_cast<std::uint8_t>(b)) & 0xFFu] ^ (c >> 8);
    }
    return c ^ 0xFFFFFFFFu;
  }

 private:
  std::array<std::uint32_t, 256> table_{};
};

const ByteAtATimeCrc kRefCrc32(0xEDB88320u);
const ByteAtATimeCrc kRefCrc32c(0x82F63B78u);

TEST(IntegrityCodec, KnownAnswers) {
  // The standard check values of both codecs over the ASCII digits.
  const std::string digits = "123456789";
  const auto bytes = std::as_bytes(std::span(digits));
  EXPECT_EQ(fstore::crc32(bytes), 0xCBF43926u);
  EXPECT_EQ(fstore::crc32c(bytes), 0xE3069283u);
  EXPECT_EQ(kRefCrc32(bytes), 0xCBF43926u);
  EXPECT_EQ(kRefCrc32c(bytes), 0xE3069283u);
}

TEST(IntegrityCodec, MatchesByteAtATimeReference) {
  // Every length 0..300 at every start offset within a word, so the word
  // loop, the tail loop and every misalignment of the loads are exercised.
  const auto data = pattern(300 + 8, 11);
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const auto s = std::span(data).subspan(off, len);
      ASSERT_EQ(fstore::crc32(s), kRefCrc32(s)) << "off " << off << " len "
                                                << len;
      ASSERT_EQ(fstore::crc32c(s), kRefCrc32c(s)) << "off " << off << " len "
                                                  << len;
    }
  }
  const auto big = pattern(1 << 20, 12);
  EXPECT_EQ(fstore::crc32(big), kRefCrc32(big));
  EXPECT_EQ(fstore::crc32c(big), kRefCrc32c(big));
  EXPECT_EQ(fstore::crc32c(big, 0xDEADBEEFu), kRefCrc32c(big, 0xDEADBEEFu));
}

TEST(IntegrityCodec, Crc32cSeedChainsAcrossEverySplit) {
  const auto data = pattern(100, 13);
  const std::uint32_t whole = kRefCrc32c(data);
  ASSERT_EQ(fstore::crc32c(data), whole);
  for (std::size_t cut = 0; cut <= data.size(); ++cut) {
    const auto s = std::span(data);
    EXPECT_EQ(fstore::crc32c(s.subspan(cut), fstore::crc32c(s.first(cut))),
              whole)
        << "cut " << cut;
  }
}

TEST(IntegrityCodec, BlockShapesDetectRotAndRepair) {
  sim::FaultPlan plan;
  fstore::Options opt;
  opt.chunk_size = 512;
  opt.faults = &plan;
  FileStore fs(opt);
  auto f = fs.create(kRootIno, "f", true).value();

  // Empty file: verification over any range is trivially clean, and a scrub
  // walk over a store with no allocated blocks completes an (empty) pass.
  EXPECT_EQ(fs.verify_range(f, 0, 4096), Errc::kOk);
  FileStore::ScrubCursor cur;
  EXPECT_TRUE(fs.scrub_step(&cur, 16).bad.empty());

  // Partial tail block (100 of 512 bytes) and a max-size (full-chunk) block.
  const auto tail = pattern(100, 1);
  const auto full = pattern(512, 2);
  ASSERT_TRUE(fs.pwrite(f, 0, tail).ok());
  ASSERT_TRUE(fs.pwrite(f, 512, full).ok());
  EXPECT_EQ(fs.verify_range(f, 0, 1024), Errc::kOk);
  std::vector<std::byte> back(100);
  ASSERT_EQ(fs.pread(f, 0, back, /*verify=*/true).value(), 100u);
  EXPECT_EQ(std::memcmp(back.data(), tail.data(), 100), 0);
  // A sparse hole past the data verifies clean and reads zeros.
  ASSERT_EQ(fs.set_size(f, 4 * 512), Errc::kOk);
  std::vector<std::byte> hole(512, std::byte{0xff});
  ASSERT_EQ(fs.pread(f, 2 * 512, hole, /*verify=*/true).value(), 512u);
  for (auto b : hole) EXPECT_EQ(b, std::byte{0});

  // Silent at-rest rot: the flip lands *after* the checksum was recorded.
  plan.arm(7);
  plan.corrupt_fstore_block_after(0);
  const auto tail2 = pattern(100, 3);
  ASSERT_TRUE(fs.pwrite(f, 0, tail2).ok());
  EXPECT_EQ(fs.stats().get("fault.fstore_bitflips"), 1u);
  // Unverified reads serve the rot without noticing — that is the failure
  // mode the checksum layer exists to close.
  std::vector<std::byte> rotted(100);
  ASSERT_EQ(fs.pread(f, 0, rotted, /*verify=*/false).value(), 100u);
  EXPECT_NE(std::memcmp(rotted.data(), tail2.data(), 100), 0);
  // Verified reads refuse.
  EXPECT_EQ(fs.pread(f, 0, back, /*verify=*/true).error(), Errc::kCorrupt);
  EXPECT_EQ(fs.verify_range(f, 0, 100), Errc::kCorrupt);
  EXPECT_GE(fs.stats().get("fstore.corrupt_blocks_detected"), 1u);

  // A full scrub pass names exactly the damaged chunk (index 0).
  cur = FileStore::ScrubCursor{};
  std::vector<FileStore::ScrubBlock> bad;
  for (;;) {
    const auto step = fs.scrub_step(&cur, 2);
    bad.insert(bad.end(), step.bad.begin(), step.bad.end());
    if (step.wrapped) break;
  }
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0].ino, f);
  EXPECT_EQ(bad[0].chunk, 0u);

  // Repair with the clean bytes (zero-padded to the chunk): byte-exact
  // round trip and a clean verify afterwards.
  ASSERT_EQ(fs.repair_chunk(f, 0, tail2), Errc::kOk);
  EXPECT_EQ(fs.stats().get("fstore.chunks_repaired"), 1u);
  EXPECT_EQ(fs.verify_range(f, 0, 1024), Errc::kOk);
  ASSERT_EQ(fs.pread(f, 0, back, /*verify=*/true).value(), 100u);
  EXPECT_EQ(std::memcmp(back.data(), tail2.data(), 100), 0);
}

// ---------------------------------------------------------------------------
// Per-sector checksums: a write re-hashes only the sectors it touched
// ---------------------------------------------------------------------------

/// Write `data` at `off` through the direct path: fill the chunk pieces
/// ensure_extents exposes (as the filer's RDMA engine does), then commit.
void direct_write(FileStore& fs, fstore::Ino f, std::uint64_t off,
                  std::span<const std::byte> data) {
  auto ext = fs.ensure_extents(f, off, data.size());
  ASSERT_TRUE(ext.ok());
  std::size_t done = 0;
  for (const auto& piece : ext.value()) {
    std::memcpy(piece.data(), data.data() + done, piece.size());
    done += piece.size();
  }
  ASSERT_EQ(done, data.size());
  ASSERT_EQ(fs.commit_write(f, off, data.size()), Errc::kOk);
}

TEST(IntegritySectors, RotOutsideAPartialWriteStaysDetected) {
  // A 2 KiB write into a chunk that rotted in another sector must not
  // re-checksum the rot: the write re-hashes only the sectors it touched,
  // so verification still finds the flipped bit. Both write paths.
  constexpr std::size_t kChunk = 64 * 1024;
  constexpr std::size_t kSectors = kChunk / FileStore::kSectorSize;
  for (const bool direct : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      SCOPED_TRACE(std::string(direct ? "direct" : "inline") + " seed " +
                   std::to_string(seed));
      sim::FaultPlan plan;
      fstore::Options opt;
      opt.chunk_size = kChunk;
      opt.faults = &plan;
      FileStore fs(opt);
      auto f = fs.create(kRootIno, "f", true).value();
      const auto data = pattern(kChunk, seed);
      plan.arm(seed);
      plan.corrupt_fstore_block_after(0);
      ASSERT_TRUE(fs.pwrite(f, 0, data).ok());
      ASSERT_EQ(fs.stats().get("fault.fstore_bitflips"), 1u);
      std::vector<std::byte> back(kChunk);
      ASSERT_EQ(fs.pread(f, 0, back).value(), kChunk);
      std::size_t rot = 0;
      while (rot < kChunk && back[rot] == data[rot]) ++rot;
      ASSERT_LT(rot, kChunk);

      // 2 KiB into the middle of the sector half a chunk away.
      const std::size_t other =
          (rot / FileStore::kSectorSize + kSectors / 2) % kSectors;
      const std::uint64_t off =
          other * FileStore::kSectorSize + FileStore::kSectorSize / 4;
      const auto patch = pattern(2048, seed + 100);
      if (direct) {
        direct_write(fs, f, off, patch);
      } else {
        ASSERT_TRUE(fs.pwrite(f, off, patch).ok());
      }
      EXPECT_EQ(fs.verify_range(f, rot, 1), Errc::kCorrupt);
      std::vector<std::byte> one(1);
      const auto rd = fs.pread(f, rot, one, /*verify=*/true);
      ASSERT_FALSE(rd.ok());
      EXPECT_EQ(rd.error(), Errc::kCorrupt);
    }
  }
}

TEST(IntegritySectors, SeededOpsKeepEverySectorChecksumValid) {
  // Random inline and direct writes, shrinking and growing set_size, syncs
  // and crash replays over a multi-chunk file (the last chunk partial). After
  // every step the whole file verifies, a full scrub pass finds nothing and
  // a verified read matches a reference model: `live` is what reads return,
  // `durable` what a crash replays (set_size is durable at once, writes at
  // their sync).
  for (const std::size_t chunk : {std::size_t{64 * 1024}, std::size_t{512}}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE("chunk " + std::to_string(chunk) + " seed " +
                   std::to_string(seed));
      fstore::Options opt;
      opt.chunk_size = chunk;
      opt.chunks_per_slab = 8;
      opt.journal_enabled = true;
      FileStore fs(opt);
      const auto f = fs.create(kRootIno, "f", true).value();
      const std::size_t span = 4 * chunk + chunk / 2;
      std::vector<std::byte> live;
      std::vector<std::byte> durable;
      sim::Rng rng(seed);
      for (int step = 0; step < 150; ++step) {
        const std::uint64_t op = rng.below(6);
        if (op <= 2) {
          // Half of the writes are small (partial sectors), half up to
          // one and a half chunks.
          const std::size_t off = rng.below(span);
          const std::size_t len =
              1 + rng.below(rng.below(2) == 0 ? chunk / 8 : chunk + chunk / 2);
          const auto data = pattern(len, seed * 1000 + step);
          if (op == 2) {
            direct_write(fs, f, off, data);
          } else {
            ASSERT_TRUE(fs.pwrite(f, off, data).ok());
          }
          if (live.size() < off + len) live.resize(off + len);
          std::memcpy(live.data() + off, data.data(), len);
        } else if (op == 3) {
          const std::size_t size = rng.below(span + chunk);
          ASSERT_EQ(fs.set_size(f, size), Errc::kOk);
          live.resize(size);
          durable.resize(size);
        } else if (op == 4) {
          ASSERT_EQ(fs.sync(f), Errc::kOk);
          durable = live;
        } else {
          ASSERT_EQ(fs.crash(), Errc::kOk);
          live = durable;
        }
        SCOPED_TRACE("step " + std::to_string(step) + " op " +
                     std::to_string(op));
        ASSERT_EQ(fs.getattr(f).value().size, live.size());
        ASSERT_EQ(fs.verify_range(f, 0, live.size()), Errc::kOk);
        FileStore::ScrubCursor cur;
        for (;;) {
          const auto scrub = fs.scrub_step(&cur, 3);
          ASSERT_TRUE(scrub.bad.empty());
          if (scrub.wrapped) break;
        }
        std::vector<std::byte> back(live.size());
        ASSERT_EQ(fs.pread(f, 0, back, /*verify=*/true).value(), live.size());
        const auto same = static_cast<std::size_t>(
            std::mismatch(back.begin(), back.end(), live.begin()).first -
            back.begin());
        ASSERT_EQ(same, back.size()) << "bytes that match the model";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Single filer: no replica to repair from — rot demotes to a read error
// ---------------------------------------------------------------------------

TEST(Integrity, SingleFilerRotDemotesToReadErrorNotSilentBytes) {
  sim::Fabric fabric;
  const auto snode = fabric.add_node("filer");
  dafs::ServerConfig cfg;
  cfg.service = "dafs-int";
  cfg.grace_period_ms = 10;
  cfg.store.chunk_size = kBlock;
  cfg.scrub_enabled = true;
  cfg.scrub_interval_ms = 2;
  cfg.scrub_chunks_per_step = 256;
  dafs::Server server(fabric, snode, cfg);
  server.start();

  const auto cnode = fabric.add_node("client");
  Actor actor("client", &fabric.node(cnode));
  ActorScope scope(actor);
  via::Nic nic(fabric, cnode, "nic");

  dafs::RetryPolicy retry;
  retry.attempts = 4;
  retry.backoff_ns = 20'000;
  retry.backoff_cap_ns = 2'000'000;
  retry.max_busy_retries = 3;  // a permanently rotted block must fail fast
  dafs::ClientConfig cc;
  cc.integrity = dafs::IntegrityMode::kFull;
  cc.direct_threshold = 1u << 20;  // keep the data inline for this test
  auto s = std::move(
      dafs::Session::connect(nic, dafs::single_mount("dafs-int", retry, cc))
          .value());
  auto fh = s->open("/r.dat", dafs::kOpenCreate).value();
  const auto clean = pattern(kBlock, 11);
  ASSERT_TRUE(s->pwrite(fh, 0, clean).ok());
  ASSERT_EQ(s->sync(fh), PStatus::kOk);

  // Arm one at-rest flip; the rewrite records the checksum first, then rots.
  fabric.faults().arm(42);
  fabric.faults().corrupt_fstore_block_after(0);
  const auto rewrite = pattern(kBlock, 12);
  ASSERT_TRUE(s->pwrite(fh, 0, rewrite).ok());
  ASSERT_EQ(s->sync(fh), PStatus::kOk);
  // The flip stat lives on the filer's own store, not the fabric.
  EXPECT_EQ(server.store().stats().get("fault.fstore_bitflips"), 1u);

  // The scrubber finds the block but has no replica group to fetch from:
  // it gives up cleanly and the block stays demoted.
  EXPECT_TRUE(wait_stat(fabric, "dafs.scrub_repair_failed", 1));
  EXPECT_GE(fabric.stats().get("dafs.scrub_corruptions"), 1u);
  EXPECT_EQ(fabric.stats().get("dafs.scrub_repairs"), 0u);

  // A verified read surfaces kCorrupt after its retry budget — an I/O
  // error, never rotted bytes.
  std::vector<std::byte> back(kBlock);
  auto rd = s->pread(fh, 0, back);
  ASSERT_FALSE(rd.ok());
  EXPECT_EQ(rd.error(), PStatus::kCorrupt);
  EXPECT_GE(fabric.stats().get("dafs.corrupt_retries"), 1u);

  // An integrity-off session still reads the block — and gets the rot,
  // silently. That contrast is exactly what `dafs_integrity` buys.
  dafs::ClientConfig off = cc;
  off.integrity = dafs::IntegrityMode::kOff;
  auto s2 = std::move(
      dafs::Session::connect(nic, dafs::single_mount("dafs-int", retry, off))
          .value());
  auto fh2 = s2->open("/r.dat").value();
  ASSERT_EQ(s2->pread(fh2, 0, back).value(), kBlock);
  EXPECT_NE(std::memcmp(back.data(), rewrite.data(), kBlock), 0);
  s2.reset();
  s.reset();
  server.stop();
}

TEST(Integrity, ChecksumCpuIsBilledApartFromCopies) {
  // Every CRC the integrity layer computes is charged as CostKind::kChecksum
  // with the duration it always had, so the per-kind CPU tables can tell
  // checksum work from data copies. Inline data pays one marshalling copy
  // on the client each way; direct data pays none.
  sim::Fabric fabric;
  const auto snode = fabric.add_node("filer");
  dafs::ServerConfig cfg;
  cfg.service = "dafs-cpu";
  cfg.grace_period_ms = 10;
  dafs::Server server(fabric, snode, cfg);
  server.start();

  const auto cnode = fabric.add_node("client");
  Actor actor("client", &fabric.node(cnode));
  ActorScope scope(actor);
  via::Nic nic(fabric, cnode, "nic");
  const auto data = pattern(kBlock, 21);
  const sim::Time wire = fabric.cost().copy_time(kBlock);
  const auto store = static_cast<sim::Time>(static_cast<double>(kBlock) *
                                            1'000.0 / cfg.store.crc_mbps);
  using sim::CostKind;
  for (const bool direct : {false, true}) {
    SCOPED_TRACE(direct ? "direct" : "inline");
    dafs::ClientConfig cc;
    cc.integrity = dafs::IntegrityMode::kFull;
    cc.direct_threshold = direct ? 0 : 1u << 20;
    auto s = std::move(
        dafs::Session::connect(nic, dafs::single_mount("dafs-cpu", {}, cc))
            .value());
    auto fh = s->open(direct ? "/d.dat" : "/i.dat", dafs::kOpenCreate).value();
    const sim::Time copy = direct ? 0 : wire;

    // Write: the client hashes the payload, the filer verifies it.
    auto c0 = actor.busy();
    auto f0 = server.worker_busy();
    ASSERT_TRUE(s->pwrite(fh, 0, data).ok());
    EXPECT_EQ(actor.busy()[CostKind::kChecksum] - c0[CostKind::kChecksum],
              wire);
    EXPECT_EQ(actor.busy()[CostKind::kCopy] - c0[CostKind::kCopy], copy);
    EXPECT_EQ(server.worker_busy()[CostKind::kChecksum] -
                  f0[CostKind::kChecksum],
              wire);

    // Read: the filer verifies the stored blocks and hashes the reply, the
    // client verifies the payload.
    c0 = actor.busy();
    f0 = server.worker_busy();
    std::vector<std::byte> back(kBlock);
    ASSERT_EQ(s->pread(fh, 0, back).value(), kBlock);
    EXPECT_EQ(back, data);
    EXPECT_EQ(actor.busy()[CostKind::kChecksum] - c0[CostKind::kChecksum],
              wire);
    EXPECT_EQ(actor.busy()[CostKind::kCopy] - c0[CostKind::kCopy], copy);
    EXPECT_EQ(server.worker_busy()[CostKind::kChecksum] -
                  f0[CostKind::kChecksum],
              store + wire);
  }
  server.stop();
}

// ---------------------------------------------------------------------------
// Capstone: 8-seed chaos sweep over a scrubbing quorum group
// ---------------------------------------------------------------------------

/// Quorum members with the background scrubber on.
dafs::ServerConfig scrub_config() {
  dafs::ServerConfig cfg = dafs_test::quorum_test_config();
  cfg.store.chunk_size = kBlock;
  cfg.scrub_enabled = true;
  cfg.scrub_interval_ms = 2;
  cfg.scrub_chunks_per_step = 256;
  return cfg;
}

dafs::MountSpec scrub_mount(const QuorumBed& g, std::uint64_t seed) {
  dafs::ClientConfig cc;
  cc.integrity = dafs::IntegrityMode::kFull;
  cc.direct_threshold = 1u << 20;  // inline data path end to end
  // Each kCorrupt retry yields ~1 ms of real time to the scrubber; the
  // budget must comfortably outlast a quorum repair under sanitizer load.
  return g.mount(seed, 5, static_cast<std::size_t>(seed % 3),
                 /*max_busy_retries=*/300, cc);
}

/// One seed of the chaos sweep. Leg 1 (at-rest): a seeded bit flip rots the
/// leader's copy of a block after its checksum (and its journal record,
/// which ships clean bytes to the followers at the sync barrier) were
/// recorded; a verifying read must never surface the rot, and the scrubber
/// must repair the block from a follower's verified copy. Leg 2 (wire): one
/// bit of an inline-write payload flips in flight; the server's payload-CRC
/// check rejects the request *before dispatch*, the client retries with a
/// fresh sequence, and the durable dup filter's exactly-once arithmetic is
/// undisturbed.
void run_integrity_chaos(std::uint64_t seed) {
  const auto wall_start = std::chrono::steady_clock::now();
  constexpr std::uint64_t kDelta = 7;
  constexpr int kAdds = 4;

  sim::Fabric fabric;
  QuorumBed g(fabric, 3, "dafs-qi", scrub_config());
  ASSERT_GE(g.wait_leader(), 0) << "seed " << seed;

  const auto cnode = fabric.add_node("client");
  Actor actor("client", &fabric.node(cnode));
  ActorScope scope(actor);
  via::Nic nic(fabric, cnode, "cli");
  auto s = std::move(
      dafs::Session::connect(nic, scrub_mount(g, seed)).value());
  auto fh = s->open("/chaos.dat", dafs::kOpenCreate).value();

  // Durable baseline: four blocks, committed at majority.
  std::vector<std::vector<std::byte>> blocks;
  for (std::uint64_t b = 0; b < 4; ++b) {
    blocks.push_back(pattern(kBlock, 500 + seed * 10 + b));
    ASSERT_TRUE(s->pwrite(fh, b * kBlock, blocks.back()).ok());
  }
  ASSERT_EQ(s->sync(fh), PStatus::kOk);

  // ---- leg 1: at-rest rot, detected on read, repaired from the quorum ----
  fabric.faults().arm(seed * 977 + 3);
  fabric.faults().corrupt_fstore_block_after(0);
  blocks[1] = pattern(kBlock, 600 + seed);
  ASSERT_TRUE(s->pwrite(fh, kBlock, blocks[1]).ok());
  // Sync ships the clean journal bytes to the followers — the healthy
  // copies the scrubber will repair from. The flip already hit the leader's
  // live chunk (post-checksum), so the rot is now sitting silent.
  ASSERT_EQ(s->sync(fh), PStatus::kOk);
  // Exactly one flip landed, on whichever member executed the write (the
  // leader); follower journal replay never consumes the armed fault.
  std::uint64_t flips = 0;
  for (const auto& m : g.members) {
    flips += m->store().stats().get("fault.fstore_bitflips");
  }
  EXPECT_EQ(flips, 1u) << "seed " << seed;

  // Race the scrubber: a verifying read either rides its retry backoff
  // through the repair (clean bytes) or exhausts it with kCorrupt — but it
  // NEVER returns rotted data.
  std::vector<std::byte> back(kBlock);
  auto rd = s->pread(fh, kBlock, back);
  if (rd.ok()) {
    EXPECT_EQ(std::memcmp(back.data(), blocks[1].data(), kBlock), 0)
        << "verified read surfaced rotted bytes, seed " << seed;
  } else {
    EXPECT_EQ(rd.error(), PStatus::kCorrupt) << "seed " << seed;
  }

  // The scrubber must find the block and restore it from a replica.
  EXPECT_TRUE(wait_stat(fabric, "dafs.scrub_repairs", 1))
      << "no quorum repair, seed " << seed;
  EXPECT_GE(fabric.stats().get("dafs.scrub_corruptions"), 1u);
  ASSERT_EQ(s->pread(fh, kBlock, back).value(), kBlock) << "seed " << seed;
  EXPECT_EQ(std::memcmp(back.data(), blocks[1].data(), kBlock), 0)
      << "repaired block not byte-exact, seed " << seed;

  // ---- leg 2: wire flip on an inline-write payload, exactly-once ----
  for (int i = 0; i < kAdds; ++i) {
    ASSERT_TRUE(s->fetch_add("ic.ctr", kDelta).ok()) << "seed " << seed;
  }
  // The flip target is deterministic: the plan's first RNG draw after arm()
  // becomes the corrupt seed, and the flipped byte is (seed % wire_len).
  // Size the payload so the flip provably lands in data bytes, not the
  // 104-byte header — header damage is the transport CRC's job; this layer
  // owns the payload.
  const std::uint64_t wire_seed = seed * 1313 + 11;
  std::uint64_t cs = sim::Rng(wire_seed).next();
  if (cs == 0) cs = 1;
  std::size_t wlen = 6000;
  while (wlen < 16'000 &&
         cs % (sizeof(dafs::MsgHeader) + wlen) < sizeof(dafs::MsgHeader)) {
    ++wlen;
  }
  ASSERT_LT(cs % (sizeof(dafs::MsgHeader) + wlen), sizeof(dafs::MsgHeader) + wlen);
  ASSERT_GE(cs % (sizeof(dafs::MsgHeader) + wlen), sizeof(dafs::MsgHeader))
      << "seed " << seed;
  fabric.faults().arm(wire_seed);
  fabric.faults().restrict_to_node(cnode);
  fabric.faults().corrupt_next_transfers(1);
  const auto wire_data = pattern(wlen, 700 + seed);
  const std::uint64_t rejects_before =
      fabric.stats().get("dafs.integrity_server_rejects");
  ASSERT_TRUE(s->pwrite(fh, 5 * kBlock, wire_data).ok()) << "seed " << seed;
  fabric.faults().clear();
  EXPECT_GE(fabric.stats().get("fault.transfer_corruptions"), 1u)
      << "seed " << seed;
  EXPECT_GT(fabric.stats().get("dafs.integrity_server_rejects"),
            rejects_before)
      << "server accepted a flipped payload, seed " << seed;
  EXPECT_GE(fabric.stats().get("dafs.corrupt_retries"), 1u) << "seed " << seed;
  for (int i = 0; i < kAdds; ++i) {
    ASSERT_TRUE(s->fetch_add("ic.ctr", kDelta).ok()) << "seed " << seed;
  }
  ASSERT_EQ(s->sync(fh), PStatus::kOk);

  // Exactly-once held: the rejected attempt never executed, the retry
  // executed once. And the write landed byte-exact.
  EXPECT_EQ(s->fetch_add("ic.ctr", 0).value(),
            static_cast<std::uint64_t>(2 * kAdds) * kDelta)
      << "seed " << seed;
  std::vector<std::byte> wback(wlen);
  ASSERT_EQ(s->pread(fh, 5 * kBlock, wback).value(), wlen);
  EXPECT_EQ(std::memcmp(wback.data(), wire_data.data(), wlen), 0)
      << "seed " << seed;
  s.reset();

  // Full-file audit through a pristine verifying mount: every byte of the
  // final image is exactly what the application wrote.
  {
    const auto vnode = fabric.add_node("verify");
    Actor vactor("verify", &fabric.node(vnode));
    ActorScope vscope(vactor);
    via::Nic vnic(fabric, vnode, "vnic");
    auto vs = std::move(
        dafs::Session::connect(vnic, scrub_mount(g, seed + 57)).value());
    auto vfh = vs->open("/chaos.dat").value();
    std::vector<std::byte> model(5 * kBlock + wlen, std::byte{0});
    for (std::uint64_t b = 0; b < 4; ++b) {
      std::memcpy(model.data() + b * kBlock, blocks[b].data(), kBlock);
    }
    std::memcpy(model.data() + 5 * kBlock, wire_data.data(), wlen);
    std::vector<std::byte> all(model.size());
    ASSERT_EQ(vs->pread(vfh, 0, all).value(), all.size()) << "seed " << seed;
    EXPECT_EQ(std::memcmp(all.data(), model.data(), model.size()), 0)
        << "seed " << seed;
    vs.reset();
  }

  EXPECT_LT(std::chrono::steady_clock::now() - wall_start,
            std::chrono::seconds(90))
      << "seed " << seed;
}

TEST(Integrity, SeededChaosSweep) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) run_integrity_chaos(seed);
}

}  // namespace
