#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <span>
#include <thread>
#include <vector>

#include "fstore/file_store.hpp"
#include "sim/rng.hpp"

namespace {

using fstore::Attrs;
using fstore::Errc;
using fstore::FileStore;
using fstore::Ino;
using fstore::kRootIno;
using fstore::Options;

std::span<const std::byte> as_bytes(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

std::vector<std::byte> pattern(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng.next() & 0xff);
  return out;
}

// ---------------------------------------------------------------------------
// Namespace operations
// ---------------------------------------------------------------------------

TEST(FStoreNamespace, CreateAndLookup) {
  FileStore fs;
  auto ino = fs.create(kRootIno, "a.txt", true);
  ASSERT_TRUE(ino.ok());
  auto found = fs.lookup(kRootIno, "a.txt");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value(), ino.value());
  EXPECT_FALSE(fs.lookup(kRootIno, "b.txt").ok());
}

TEST(FStoreNamespace, CreateExclusiveFailsOnExisting) {
  FileStore fs;
  ASSERT_TRUE(fs.create(kRootIno, "a", true).ok());
  auto again = fs.create(kRootIno, "a", true);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.error(), Errc::kExists);
  // Non-exclusive open-create returns the same inode.
  auto open = fs.create(kRootIno, "a", false);
  ASSERT_TRUE(open.ok());
}

TEST(FStoreNamespace, RejectsBadNames) {
  FileStore fs;
  EXPECT_EQ(fs.create(kRootIno, "", true).error(), Errc::kInval);
  EXPECT_EQ(fs.create(kRootIno, "a/b", true).error(), Errc::kInval);
}

TEST(FStoreNamespace, MkdirAndNestedResolve) {
  FileStore fs;
  auto d1 = fs.mkdir(kRootIno, "dir");
  ASSERT_TRUE(d1.ok());
  auto d2 = fs.mkdir(d1.value(), "sub");
  ASSERT_TRUE(d2.ok());
  auto f = fs.create(d2.value(), "file", true);
  ASSERT_TRUE(f.ok());
  auto r = fs.resolve("/dir/sub/file");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), f.value());
  EXPECT_EQ(fs.resolve("").value(), kRootIno);
  EXPECT_EQ(fs.resolve("/").value(), kRootIno);
  EXPECT_EQ(fs.resolve("dir/sub").value(), d2.value());
  EXPECT_EQ(fs.resolve("/dir/none").error(), Errc::kNoEnt);
  EXPECT_EQ(fs.resolve("/dir/sub/file/deeper").error(), Errc::kNotDir);
}

TEST(FStoreNamespace, RemoveFrees) {
  FileStore fs;
  auto f = fs.create(kRootIno, "f", true);
  ASSERT_TRUE(f.ok());
  std::string data = "hello";
  ASSERT_TRUE(fs.pwrite(f.value(), 0, as_bytes(data)).ok());
  EXPECT_EQ(fs.remove(kRootIno, "f"), Errc::kOk);
  EXPECT_EQ(fs.lookup(kRootIno, "f").error(), Errc::kNoEnt);
  EXPECT_EQ(fs.getattr(f.value()).error(), Errc::kStale);
  EXPECT_EQ(fs.remove(kRootIno, "f"), Errc::kNoEnt);
}

TEST(FStoreNamespace, RemoveRejectsDirectories) {
  FileStore fs;
  ASSERT_TRUE(fs.mkdir(kRootIno, "d").ok());
  EXPECT_EQ(fs.remove(kRootIno, "d"), Errc::kIsDir);
  EXPECT_EQ(fs.rmdir(kRootIno, "d"), Errc::kOk);
}

TEST(FStoreNamespace, RmdirRequiresEmpty) {
  FileStore fs;
  auto d = fs.mkdir(kRootIno, "d");
  ASSERT_TRUE(d.ok());
  ASSERT_TRUE(fs.create(d.value(), "f", true).ok());
  EXPECT_EQ(fs.rmdir(kRootIno, "d"), Errc::kNotEmpty);
  EXPECT_EQ(fs.remove(d.value(), "f"), Errc::kOk);
  EXPECT_EQ(fs.rmdir(kRootIno, "d"), Errc::kOk);
}

TEST(FStoreNamespace, RenameMovesAndReplaces) {
  FileStore fs;
  auto f = fs.create(kRootIno, "old", true);
  ASSERT_TRUE(f.ok());
  auto d = fs.mkdir(kRootIno, "dir");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(fs.rename(kRootIno, "old", d.value(), "new"), Errc::kOk);
  EXPECT_FALSE(fs.lookup(kRootIno, "old").ok());
  EXPECT_EQ(fs.lookup(d.value(), "new").value(), f.value());
  // Replace an existing file.
  auto g = fs.create(d.value(), "victim", true);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(fs.rename(d.value(), "new", d.value(), "victim"), Errc::kOk);
  EXPECT_EQ(fs.lookup(d.value(), "victim").value(), f.value());
  EXPECT_EQ(fs.getattr(g.value()).error(), Errc::kStale);
}

TEST(FStoreNamespace, ReaddirListsEntries) {
  FileStore fs;
  ASSERT_TRUE(fs.create(kRootIno, "b", true).ok());
  ASSERT_TRUE(fs.create(kRootIno, "a", true).ok());
  ASSERT_TRUE(fs.mkdir(kRootIno, "d").ok());
  auto list = fs.readdir(kRootIno);
  ASSERT_TRUE(list.ok());
  ASSERT_EQ(list.value().size(), 3u);
  EXPECT_EQ(list.value()[0].name, "a");  // map order: sorted
  EXPECT_EQ(list.value()[1].name, "b");
  EXPECT_EQ(list.value()[2].name, "d");
  EXPECT_TRUE(list.value()[2].is_dir);
}

// ---------------------------------------------------------------------------
// Data path: pread/pwrite
// ---------------------------------------------------------------------------

TEST(FStoreData, WriteReadRoundTrip) {
  FileStore fs;
  auto f = fs.create(kRootIno, "f", true);
  ASSERT_TRUE(f.ok());
  auto data = pattern(10'000, 1);
  ASSERT_EQ(fs.pwrite(f.value(), 0, data).value(), 10'000u);
  std::vector<std::byte> back(10'000);
  ASSERT_EQ(fs.pread(f.value(), 0, back).value(), 10'000u);
  EXPECT_EQ(std::memcmp(data.data(), back.data(), data.size()), 0);
  EXPECT_EQ(fs.getattr(f.value()).value().size, 10'000u);
}

TEST(FStoreData, ReadShortAtEof) {
  FileStore fs;
  auto f = fs.create(kRootIno, "f", true);
  std::string data = "0123456789";
  ASSERT_TRUE(fs.pwrite(f.value(), 0, as_bytes(data)).ok());
  std::vector<std::byte> buf(100);
  EXPECT_EQ(fs.pread(f.value(), 5, buf).value(), 5u);
  EXPECT_EQ(fs.pread(f.value(), 10, buf).value(), 0u);
  EXPECT_EQ(fs.pread(f.value(), 999, buf).value(), 0u);
}

TEST(FStoreData, SparseHolesReadAsZeros) {
  FileStore fs;
  auto f = fs.create(kRootIno, "f", true);
  std::string tail = "end";
  const std::uint64_t far = 1'000'000;
  ASSERT_TRUE(fs.pwrite(f.value(), far, as_bytes(tail)).ok());
  EXPECT_EQ(fs.getattr(f.value()).value().size, far + 3);
  std::vector<std::byte> buf(64, std::byte{0xff});
  ASSERT_EQ(fs.pread(f.value(), 1000, buf).value(), 64u);
  for (auto b : buf) EXPECT_EQ(b, std::byte{0});
}

TEST(FStoreData, CrossChunkWritesAreSeamless) {
  Options opt;
  opt.chunk_size = 256;  // tiny chunks to force many boundaries
  opt.chunks_per_slab = 8;
  FileStore fs(opt);
  auto f = fs.create(kRootIno, "f", true);
  auto data = pattern(10'000, 2);
  // Write in awkward misaligned pieces.
  std::uint64_t off = 0;
  std::size_t piece = 1;
  while (off < data.size()) {
    const std::size_t n = std::min(piece, data.size() - off);
    ASSERT_TRUE(fs.pwrite(f.value(), off,
                          std::span<const std::byte>(data.data() + off, n))
                    .ok());
    off += n;
    piece = piece * 3 + 1;
  }
  std::vector<std::byte> back(data.size());
  ASSERT_EQ(fs.pread(f.value(), 0, back).value(), data.size());
  EXPECT_EQ(std::memcmp(data.data(), back.data(), data.size()), 0);
}

TEST(FStoreData, OverwriteInPlace) {
  FileStore fs;
  auto f = fs.create(kRootIno, "f", true);
  std::string a(100, 'a'), b(10, 'b');
  ASSERT_TRUE(fs.pwrite(f.value(), 0, as_bytes(a)).ok());
  ASSERT_TRUE(fs.pwrite(f.value(), 45, as_bytes(b)).ok());
  EXPECT_EQ(fs.getattr(f.value()).value().size, 100u);
  std::vector<std::byte> back(100);
  ASSERT_TRUE(fs.pread(f.value(), 0, back).ok());
  EXPECT_EQ(static_cast<char>(back[44]), 'a');
  EXPECT_EQ(static_cast<char>(back[45]), 'b');
  EXPECT_EQ(static_cast<char>(back[54]), 'b');
  EXPECT_EQ(static_cast<char>(back[55]), 'a');
}

TEST(FStoreData, DataOpsOnDirectoryFail) {
  FileStore fs;
  auto d = fs.mkdir(kRootIno, "d");
  std::vector<std::byte> buf(10);
  EXPECT_EQ(fs.pread(d.value(), 0, buf).error(), Errc::kIsDir);
  EXPECT_EQ(fs.pwrite(d.value(), 0, buf).error(), Errc::kIsDir);
  EXPECT_EQ(fs.set_size(d.value(), 0), Errc::kIsDir);
}

TEST(FStoreData, SetSizeTruncatesAndZeroFills) {
  FileStore fs;
  auto f = fs.create(kRootIno, "f", true);
  auto data = pattern(100'000, 3);
  ASSERT_TRUE(fs.pwrite(f.value(), 0, data).ok());
  ASSERT_EQ(fs.set_size(f.value(), 50'000), Errc::kOk);
  EXPECT_EQ(fs.getattr(f.value()).value().size, 50'000u);
  // Growing the file again must expose zeros, not stale bytes.
  ASSERT_EQ(fs.set_size(f.value(), 100'000), Errc::kOk);
  std::vector<std::byte> back(50'000);
  ASSERT_EQ(fs.pread(f.value(), 50'000, back).value(), 50'000u);
  for (std::size_t i = 0; i < back.size(); i += 997) {
    EXPECT_EQ(back[i], std::byte{0}) << "offset " << i;
  }
}

TEST(FStoreData, SetSizeExtendsSparsely) {
  FileStore fs;
  auto f = fs.create(kRootIno, "f", true);
  ASSERT_EQ(fs.set_size(f.value(), 1 << 20), Errc::kOk);
  EXPECT_EQ(fs.getattr(f.value()).value().size, 1u << 20);
  EXPECT_EQ(fs.stats().get("fstore.chunks_allocated"), 0u);
}

// ---------------------------------------------------------------------------
// Zero-copy extent path
// ---------------------------------------------------------------------------

TEST(FStoreExtents, EnsureThenCommitBehavesLikeWrite) {
  FileStore fs;
  auto f = fs.create(kRootIno, "f", true);
  auto data = pattern(200'000, 4);
  auto ext = fs.ensure_extents(f.value(), 0, data.size());
  ASSERT_TRUE(ext.ok());
  std::size_t off = 0;
  for (auto s : ext.value()) {
    std::memcpy(s.data(), data.data() + off, s.size());
    off += s.size();
  }
  EXPECT_EQ(off, data.size());
  ASSERT_EQ(fs.commit_write(f.value(), 0, data.size()), Errc::kOk);
  EXPECT_EQ(fs.getattr(f.value()).value().size, data.size());
  std::vector<std::byte> back(data.size());
  ASSERT_TRUE(fs.pread(f.value(), 0, back).ok());
  EXPECT_EQ(std::memcmp(data.data(), back.data(), data.size()), 0);
}

TEST(FStoreExtents, ReadExtentsClampToEof) {
  FileStore fs;
  auto f = fs.create(kRootIno, "f", true);
  auto data = pattern(1000, 5);
  ASSERT_TRUE(fs.pwrite(f.value(), 0, data).ok());
  auto ext = fs.extents_for_read(f.value(), 500, 10'000);
  ASSERT_TRUE(ext.ok());
  std::size_t total = 0;
  for (auto s : ext.value()) total += s.size();
  EXPECT_EQ(total, 500u);
  auto past = fs.extents_for_read(f.value(), 5'000, 100);
  ASSERT_TRUE(past.ok());
  EXPECT_TRUE(past.value().empty());
}

TEST(FStoreExtents, ExtentsExposeLiveChunks) {
  FileStore fs;
  auto f = fs.create(kRootIno, "f", true);
  std::string data = "abcdef";
  ASSERT_TRUE(fs.pwrite(f.value(), 0, as_bytes(data)).ok());
  auto ext = fs.extents_for_read(f.value(), 2, 3);
  ASSERT_TRUE(ext.ok());
  ASSERT_EQ(ext.value().size(), 1u);
  EXPECT_EQ(static_cast<char>(ext.value()[0][0]), 'c');
  // Writing through the span is visible to pread (it IS the cache chunk).
  ext.value()[0][0] = static_cast<std::byte>('C');
  std::vector<std::byte> back(6);
  ASSERT_TRUE(fs.pread(f.value(), 0, back).ok());
  EXPECT_EQ(static_cast<char>(back[2]), 'C');
}

TEST(FStoreExtents, SlabCallbackFiresOnAllocation) {
  Options opt;
  opt.chunk_size = 1024;
  opt.chunks_per_slab = 4;
  std::vector<std::size_t> slab_sizes;
  FileStore fs(opt, [&](std::span<std::byte> s) {
    slab_sizes.push_back(s.size());
  });
  auto f = fs.create(kRootIno, "f", true);
  std::vector<std::byte> data(10 * 1024);
  ASSERT_TRUE(fs.pwrite(f.value(), 0, data).ok());
  // 10 chunks needed -> 3 slabs of 4 chunks.
  EXPECT_EQ(slab_sizes.size(), 3u);
  for (auto s : slab_sizes) EXPECT_EQ(s, 4096u);
}

// ---------------------------------------------------------------------------
// Cache / disk model
// ---------------------------------------------------------------------------

TEST(FStoreCache, MissesChargeDiskAndHitsDoNot) {
  Options opt;
  opt.disk_enabled = true;
  opt.cache_chunks = 16;
  FileStore fs(opt);
  auto f = fs.create(kRootIno, "f", true);
  std::vector<std::byte> data(opt.chunk_size);
  ASSERT_TRUE(fs.pwrite(f.value(), 0, data).ok());  // first touch: miss
  EXPECT_EQ(fs.stats().get("fstore.cache_misses"), 1u);
  std::vector<std::byte> back(opt.chunk_size);
  ASSERT_TRUE(fs.pread(f.value(), 0, back).ok());  // warm: hit
  EXPECT_EQ(fs.stats().get("fstore.cache_hits"), 1u);
  EXPECT_EQ(fs.stats().get("fstore.cache_misses"), 1u);
}

TEST(FStoreCache, LruEvictsColdChunks) {
  Options opt;
  opt.disk_enabled = true;
  opt.cache_chunks = 2;
  opt.chunk_size = 1024;
  FileStore fs(opt);
  auto f = fs.create(kRootIno, "f", true);
  std::vector<std::byte> chunk(1024);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(fs.pwrite(f.value(), i * 1024, chunk).ok());
  }
  EXPECT_EQ(fs.stats().get("fstore.cache_misses"), 4u);
  EXPECT_EQ(fs.stats().get("fstore.cache_evictions"), 2u);
  // Chunk 0 was evicted: re-reading it misses again.
  std::vector<std::byte> back(1024);
  ASSERT_TRUE(fs.pread(f.value(), 0, back).ok());
  EXPECT_EQ(fs.stats().get("fstore.cache_misses"), 5u);
}

// ---------------------------------------------------------------------------
// Named counters
// ---------------------------------------------------------------------------

TEST(FStoreCounters, FetchAddIsSequential) {
  FileStore fs;
  EXPECT_EQ(fs.counter_fetch_add("c", 5), 0u);
  EXPECT_EQ(fs.counter_fetch_add("c", 3), 5u);
  EXPECT_EQ(fs.counter_fetch_add("c", 0), 8u);
  fs.counter_set("c", 100);
  EXPECT_EQ(fs.counter_fetch_add("c", 1), 100u);
  EXPECT_EQ(fs.counter_fetch_add("other", 1), 0u);
}

// ---------------------------------------------------------------------------
// Property: random op sequence matches a reference model
// ---------------------------------------------------------------------------

TEST(FStoreProperty, RandomWritesMatchReferenceModel) {
  Options opt;
  opt.chunk_size = 512;
  FileStore fs(opt);
  auto f = fs.create(kRootIno, "f", true);
  std::vector<std::byte> model;  // reference: a plain flat buffer
  sim::Rng rng(99);
  for (int i = 0; i < 300; ++i) {
    const std::uint64_t off = rng.below(8'192);
    const std::size_t len = 1 + rng.below(1'500);
    auto data = pattern(len, rng.next());
    ASSERT_TRUE(fs.pwrite(f.value(), off, data).ok());
    if (model.size() < off + len) model.resize(off + len);
    std::memcpy(model.data() + off, data.data(), len);
  }
  std::vector<std::byte> back(model.size());
  ASSERT_EQ(fs.pread(f.value(), 0, back).value(), model.size());
  EXPECT_EQ(std::memcmp(model.data(), back.data(), model.size()), 0);
  EXPECT_EQ(fs.getattr(f.value()).value().size, model.size());
}

// ---------------------------------------------------------------------------
// Write-ahead journal: sync is a durability barrier, crash replays it
// ---------------------------------------------------------------------------

Options journal_opt() {
  Options opt;
  opt.chunk_size = 512;  // multi-chunk writes with small buffers
  opt.journal_enabled = true;
  return opt;
}

TEST(FStoreJournal, UnsyncedWritesVanishOnCrash) {
  FileStore fs(journal_opt());
  auto f = fs.create(kRootIno, "f", true).value();
  const auto base = pattern(2'000, 1);
  ASSERT_TRUE(fs.pwrite(f, 0, base).ok());
  ASSERT_EQ(fs.sync(f), Errc::kOk);

  const auto late = pattern(2'000, 2);
  ASSERT_TRUE(fs.pwrite(f, 0, late).ok());  // acknowledged, not durable
  fs.crash();

  // The file (a durable-immediate create) is still there; its data is the
  // synced pre-image, byte for byte.
  ASSERT_EQ(fs.resolve("/f").value(), f);
  std::vector<std::byte> back(base.size());
  ASSERT_EQ(fs.pread(f, 0, back).value(), base.size());
  EXPECT_EQ(std::memcmp(back.data(), base.data(), base.size()), 0);
  EXPECT_EQ(fs.journal_pending_bytes(), 0u);
}

TEST(FStoreJournal, TornMultiBlockWriteIsInvisible) {
  FileStore fs(journal_opt());
  auto f = fs.create(kRootIno, "f", true).value();
  // Durable base image spanning four chunks.
  const auto base = pattern(4 * 512, 10);
  ASSERT_TRUE(fs.pwrite(f, 0, base).ok());
  ASSERT_EQ(fs.sync(f), Errc::kOk);

  // A logical update issued as several block writes ("multi-block write").
  // The crash lands after some blocks but before the sync: the durable image
  // must show the full pre-image — no torn mix.
  const auto update = pattern(4 * 512, 11);
  ASSERT_TRUE(fs.pwrite(f, 0, std::span(update).subspan(0, 512)).ok());
  ASSERT_TRUE(fs.pwrite(f, 512, std::span(update).subspan(512, 512)).ok());
  fs.crash();
  std::vector<std::byte> back(base.size());
  ASSERT_EQ(fs.pread(f, 0, back).value(), base.size());
  EXPECT_EQ(std::memcmp(back.data(), base.data(), base.size()), 0)
      << "crash exposed a torn multi-block write";

  // The same update fully applied and synced commits atomically: after the
  // next crash the full post-image is visible.
  for (std::uint64_t blk = 0; blk < 4; ++blk) {
    ASSERT_TRUE(
        fs.pwrite(f, blk * 512, std::span(update).subspan(blk * 512, 512))
            .ok());
  }
  ASSERT_EQ(fs.sync(f), Errc::kOk);
  fs.crash();
  ASSERT_EQ(fs.pread(f, 0, back).value(), update.size());
  EXPECT_EQ(std::memcmp(back.data(), update.data(), update.size()), 0);
}

TEST(FStoreJournal, MetadataOpsAreDurableImmediately) {
  FileStore fs(journal_opt());
  auto d = fs.mkdir(kRootIno, "dir").value();
  auto f = fs.create(d, "f", true).value();
  const auto gen = fs.getattr(f).value().gen;
  ASSERT_EQ(fs.rename(d, "f", kRootIno, "g"), Errc::kOk);
  fs.crash();
  ASSERT_EQ(fs.resolve("/g").value(), f);
  EXPECT_EQ(fs.getattr(f).value().gen, gen);
  EXPECT_EQ(fs.resolve("/dir/f").error(), Errc::kNoEnt);

  // Remove + recreate across a crash yields a fresh incarnation: the (ino,
  // gen) pair never repeats, which is what lease validation keys on.
  ASSERT_EQ(fs.remove(kRootIno, "g"), Errc::kOk);
  fs.crash();
  EXPECT_EQ(fs.resolve("/g").error(), Errc::kNoEnt);
  auto f2 = fs.create(kRootIno, "g", true).value();
  const auto gen2 = fs.getattr(f2).value().gen;
  EXPECT_TRUE(f2 != f || gen2 != gen);
}

TEST(FStoreJournal, AutosyncBoundsPendingBytes) {
  Options opt = journal_opt();
  opt.journal_autosync_bytes = 4 * 512;
  FileStore fs(opt);
  auto f = fs.create(kRootIno, "f", true).value();
  const auto data = pattern(512, 20);
  for (std::uint64_t i = 0; i < 64; ++i) {
    ASSERT_TRUE(fs.pwrite(f, i * 512, data).ok());
    EXPECT_LE(fs.journal_pending_bytes(), opt.journal_autosync_bytes);
  }
  // The watermark write-backs made earlier stripes durable without an
  // explicit sync: a crash now keeps everything the autosync flushed.
  fs.crash();
  std::vector<std::byte> back(512);
  ASSERT_EQ(fs.pread(f, 0, back).value(), back.size());
  EXPECT_EQ(std::memcmp(back.data(), data.data(), back.size()), 0);
}

TEST(FStoreJournal, CountersAndDupFilterSurviveCrash) {
  FileStore fs(journal_opt());
  EXPECT_EQ(fs.counter_fetch_add_once("c", 5, /*client_id=*/7, /*seq=*/1), 0u);
  EXPECT_EQ(fs.counter_fetch_add_once("c", 5, 7, 2), 5u);
  fs.crash();
  // Retransmits of already-applied mutations return the recorded old value
  // instead of re-applying (exactly-once across restart)...
  EXPECT_EQ(fs.counter_fetch_add_once("c", 5, 7, 1), 0u);
  EXPECT_EQ(fs.counter_fetch_add_once("c", 5, 7, 2), 5u);
  EXPECT_EQ(fs.counter_fetch_add("c", 0), 10u);
  // ...while a fresh seq applies normally.
  EXPECT_EQ(fs.counter_fetch_add_once("c", 5, 7, 3), 10u);
  EXPECT_EQ(fs.counter_fetch_add("c", 0), 15u);

  // Acked records are dropped; a (wrongly) re-sent acked seq re-applies,
  // which is why clients only ack responses they have fully consumed.
  fs.dup_forget(7, 3);
  EXPECT_EQ(fs.counter_fetch_add_once("c", 1, 7, 4), 15u);
}

TEST(FStoreJournal, CounterOpsRacingReplayDoNotDeadlock) {
  // A filer worker applying a client's ack (a counter add, then dup_forget)
  // races a leadership win or restart replaying the store (crash). Both
  // sides must take the counter lock before the journal's, and every add
  // is either replayed or applied after the replay, never lost in between.
  // The replays start once a quarter of the acks are journalled, so each
  // one runs long enough for acks to land inside it, and their count is
  // bounded, so the run stays short under a sanitizer. The race runs in a
  // child under an alarm, so a stall fails in seconds instead of at the
  // ctest timeout.
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        alarm(30);
        constexpr std::uint32_t kAcks = 10'000;
        constexpr int kReplays = 40;
        FileStore fs(journal_opt());
        std::atomic<std::uint32_t> acked{0};
        std::thread acker([&] {
          for (std::uint32_t seq = 1; seq <= kAcks; ++seq) {
            fs.counter_fetch_add_once("ptr", 1, /*client_id=*/7, seq);
            fs.dup_forget(7, seq);
            acked = seq;
          }
        });
        while (acked.load() < kAcks / 4) std::this_thread::yield();
        for (int i = 0; i < kReplays && acked.load() < kAcks; ++i) {
          fs.crash();
        }
        acker.join();
        fs.crash();
        std::exit(fs.counter_fetch_add("ptr", 0) == kAcks ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(FStoreJournal, CorruptTailIsTruncatedOnReplay) {
  FileStore fs(journal_opt());
  auto f = fs.create(kRootIno, "f", true).value();
  const auto first = pattern(512, 40);
  ASSERT_TRUE(fs.pwrite(f, 0, first).ok());
  ASSERT_EQ(fs.sync(f), Errc::kOk);
  // A second synced write ends the log on a payload-bearing kSyncCommit
  // record; flipping a byte in its payload breaks that record's CRC.
  const auto second = pattern(512, 41);
  ASSERT_TRUE(fs.pwrite(f, 512, second).ok());
  ASSERT_EQ(fs.sync(f), Errc::kOk);

  const std::uint64_t full = fs.journal_size();
  fs.journal_log().corrupt_tail_byte();
  fs.crash();

  // Replay detected the corrupt tail record, truncated it off the log, and
  // counted the dropped bytes; the durable image is exactly the first sync.
  EXPECT_LT(fs.journal_size(), full);
  EXPECT_GT(fs.stats().get("fstore.journal_truncated_bytes"), 0u);
  EXPECT_EQ(fs.getattr(f).value().size, 512u);
  std::vector<std::byte> back(512);
  ASSERT_EQ(fs.pread(f, 0, back).value(), 512u);
  EXPECT_EQ(std::memcmp(back.data(), first.data(), 512), 0);

  // The truncated log is self-consistent: a second crash replays cleanly
  // without dropping anything further.
  const std::uint64_t clean = fs.journal_size();
  fs.crash();
  EXPECT_EQ(fs.journal_size(), clean);
  ASSERT_EQ(fs.pread(f, 0, back).value(), 512u);
  EXPECT_EQ(std::memcmp(back.data(), first.data(), 512), 0);
}

TEST(FStoreJournal, InteriorCorruptionRefusesMountWithoutTruncating) {
  FileStore fs(journal_opt());
  auto f = fs.create(kRootIno, "f", true).value();
  const auto first = pattern(512, 80);
  ASSERT_TRUE(fs.pwrite(f, 0, first).ok());
  ASSERT_EQ(fs.sync(f), Errc::kOk);
  const std::uint64_t s1 = fs.journal_size();
  ASSERT_TRUE(fs.pwrite(f, 512, pattern(512, 81)).ok());
  ASSERT_EQ(fs.sync(f), Errc::kOk);
  // A third synced write leaves valid records *after* the frame we damage —
  // the discriminator between bit rot and a torn final write.
  ASSERT_TRUE(fs.pwrite(f, 1024, pattern(512, 82)).ok());
  ASSERT_EQ(fs.sync(f), Errc::kOk);
  const std::uint64_t full = fs.journal_size();

  // Flip one byte inside the second record's payload: its frame starts at
  // s1, so replay must name s1 as the corrupt offset.
  fs.journal_log().corrupt_byte_at(s1 + sizeof(fstore::RecHeader) + 4);
  EXPECT_EQ(fs.crash(), Errc::kCorrupt);
  EXPECT_EQ(fs.journal_corrupt_offset(), s1);
  EXPECT_EQ(fs.stats().get("fstore.journal_interior_corrupt"), 1u);
  // The log was NOT truncated — that would silently erase the valid suffix
  // (the third record). The evidence stays in place for inspection.
  EXPECT_EQ(fs.journal_size(), full);
  EXPECT_EQ(fs.stats().get("fstore.journal_truncated_bytes"), 0u);
  // Only the records before the bad frame were applied: the durable image is
  // exactly the first sync.
  EXPECT_EQ(fs.getattr(f).value().size, 512u);
  std::vector<std::byte> back(512);
  ASSERT_EQ(fs.pread(f, 0, back).value(), 512u);
  EXPECT_EQ(std::memcmp(back.data(), first.data(), 512), 0);
}

TEST(FStoreJournal, ChoppedTailIsLegalTornWrite) {
  FileStore fs(journal_opt());
  auto f = fs.create(kRootIno, "f", true).value();
  const auto first = pattern(512, 85);
  ASSERT_TRUE(fs.pwrite(f, 0, first).ok());
  ASSERT_EQ(fs.sync(f), Errc::kOk);
  const std::uint64_t intact = fs.journal_size();
  ASSERT_TRUE(fs.pwrite(f, 512, pattern(512, 86)).ok());
  ASSERT_EQ(fs.sync(f), Errc::kOk);
  const std::uint64_t full = fs.journal_size();

  // A power cut tears the final record mid-write: only part of its bytes
  // reached stable storage. No valid record follows the break, so this is
  // the legal crash form — truncate and mount.
  fs.journal_log().chop_tail(5);
  EXPECT_EQ(fs.crash(), Errc::kOk);
  EXPECT_EQ(fs.journal_corrupt_offset(), ~std::uint64_t{0});
  EXPECT_EQ(fs.journal_size(), intact);
  EXPECT_EQ(fs.stats().get("fstore.journal_truncated_bytes"),
            full - 5 - intact);
  EXPECT_EQ(fs.stats().get("fstore.journal_interior_corrupt"), 0u);
  EXPECT_EQ(fs.getattr(f).value().size, 512u);
  std::vector<std::byte> back(512);
  ASSERT_EQ(fs.pread(f, 0, back).value(), 512u);
  EXPECT_EQ(std::memcmp(back.data(), first.data(), 512), 0);
}

TEST(FStoreJournal, ImportRejectsCorruptStreamTail) {
  // Build a donor log of framed records, corrupt its tail, and import it
  // into a fresh journal — the standby-side half of torn-tail handling.
  FileStore donor(journal_opt());
  auto f = donor.create(kRootIno, "f", true).value();
  ASSERT_TRUE(donor.pwrite(f, 0, pattern(512, 50)).ok());
  ASSERT_EQ(donor.sync(f), Errc::kOk);
  const std::uint64_t intact = donor.journal_size();
  ASSERT_TRUE(donor.pwrite(f, 512, pattern(512, 51)).ok());
  ASSERT_EQ(donor.sync(f), Errc::kOk);
  donor.journal_log().corrupt_tail_byte();
  const auto stream =
      donor.journal_log().read(0, static_cast<std::size_t>(-1));

  fstore::FStoreJournal target;
  const auto res = target.import(stream);
  EXPECT_TRUE(res.truncated);
  // The longest valid prefix ends where the intact records end: everything
  // before the corrupted tail record was accepted, nothing after.
  EXPECT_EQ(res.accepted, intact);
  EXPECT_EQ(target.size(), intact);

  // Re-importing the same intact prefix from the target round-trips clean.
  fstore::FStoreJournal copy;
  const auto res2 = copy.import(target.read(0, static_cast<std::size_t>(-1)));
  EXPECT_FALSE(res2.truncated);
  EXPECT_EQ(copy.size(), intact);
}

TEST(FStoreJournal, DivergentSuffixTruncation) {
  // The quorum re-silver path: a deposed leader rejoins with journal bytes
  // the new leader never committed, truncates them off, and replays. The
  // truncated log must be a self-consistent prefix — the pre-divergence
  // image byte for byte, nothing torn.
  FileStore fs(journal_opt());
  auto f = fs.create(kRootIno, "f", true).value();
  const auto kept = pattern(512, 60);
  ASSERT_TRUE(fs.pwrite(f, 0, kept).ok());
  ASSERT_EQ(fs.sync(f), Errc::kOk);
  const std::uint64_t match = fs.journal_size();

  // The divergent suffix: writes acknowledged only locally.
  ASSERT_TRUE(fs.pwrite(f, 512, pattern(512, 61)).ok());
  ASSERT_EQ(fs.sync(f), Errc::kOk);
  const std::uint64_t full = fs.journal_size();
  ASSERT_GT(full, match);

  EXPECT_EQ(fs.journal_log().truncate(match), full - match);
  EXPECT_EQ(fs.journal_size(), match);
  fs.crash();

  // Replay of the truncated log: the suffix write is gone, the kept image
  // intact, and nothing further was dropped as torn.
  EXPECT_EQ(fs.journal_size(), match);
  EXPECT_EQ(fs.getattr(f).value().size, 512u);
  std::vector<std::byte> back(512);
  ASSERT_EQ(fs.pread(f, 0, back).value(), 512u);
  EXPECT_EQ(std::memcmp(back.data(), kept.data(), 512), 0);

  // The log still ends on a whole record: a non-mutating scan walks exactly
  // to the truncation point.
  std::uint64_t walked = 0;
  fs.journal_log().scan(
      [&](std::uint64_t off, fstore::RecType, std::span<const std::byte> p) {
        walked = off + sizeof(fstore::RecHeader) + p.size();
      });
  EXPECT_EQ(walked, match);

  // Truncating at or past the end is a no-op.
  EXPECT_EQ(fs.journal_log().truncate(match), 0u);
  EXPECT_EQ(fs.journal_log().truncate(match + 1024), 0u);
}

TEST(FStoreJournal, RepeatedTornTailImportIsIdempotent) {
  // A follower that reconnects mid-catch-up can receive the same journal
  // chunk twice; its handling — truncate back to the chunk's offset, then
  // import — must be idempotent: replaying twice yields byte-identical
  // journal state and an identical durable image, even when the stream
  // carries a torn tail both times.
  FileStore donor(journal_opt());
  auto f = donor.create(kRootIno, "f", true).value();
  const auto first = pattern(512, 70);
  ASSERT_TRUE(donor.pwrite(f, 0, first).ok());
  ASSERT_EQ(donor.sync(f), Errc::kOk);
  const std::uint64_t intact = donor.journal_size();
  ASSERT_TRUE(donor.pwrite(f, 512, pattern(512, 71)).ok());
  ASSERT_EQ(donor.sync(f), Errc::kOk);
  donor.journal_log().corrupt_tail_byte();
  const auto stream =
      donor.journal_log().read(0, static_cast<std::size_t>(-1));

  FileStore t(journal_opt());
  const std::uint64_t base = t.journal_size();  // whatever construction logged
  const auto r1 = t.journal_log().import(stream);
  EXPECT_TRUE(r1.truncated);
  EXPECT_EQ(r1.accepted, intact);
  t.crash();
  const auto image1 =
      t.journal_log().read(0, static_cast<std::size_t>(-1));
  std::vector<std::byte> back1(512);
  ASSERT_EQ(t.pread(f, 0, back1).value(), 512u);
  EXPECT_EQ(std::memcmp(back1.data(), first.data(), 512), 0);

  // Duplicate delivery of the same chunk: truncate to its offset, import
  // again, replay again.
  EXPECT_EQ(t.journal_log().truncate(base), intact);
  const auto r2 = t.journal_log().import(stream);
  EXPECT_TRUE(r2.truncated);
  EXPECT_EQ(r2.accepted, intact);
  t.crash();

  const auto image2 =
      t.journal_log().read(0, static_cast<std::size_t>(-1));
  EXPECT_EQ(image1.size(), image2.size());
  EXPECT_TRUE(image1 == image2) << "second replay diverged from the first";
  std::vector<std::byte> back2(512);
  ASSERT_EQ(t.pread(f, 0, back2).value(), 512u);
  EXPECT_EQ(std::memcmp(back2.data(), back1.data(), 512), 0);
  EXPECT_EQ(t.getattr(f).value().size, 512u);
}

TEST(FStoreJournal, TruncateDurabilityFollowsSync) {
  FileStore fs(journal_opt());
  auto f = fs.create(kRootIno, "f", true).value();
  const auto data = pattern(3 * 512, 30);
  ASSERT_TRUE(fs.pwrite(f, 0, data).ok());
  ASSERT_EQ(fs.sync(f), Errc::kOk);
  ASSERT_EQ(fs.set_size(f, 512), Errc::kOk);
  ASSERT_EQ(fs.sync(f), Errc::kOk);
  fs.crash();
  EXPECT_EQ(fs.getattr(f).value().size, 512u);
  std::vector<std::byte> back(512);
  ASSERT_EQ(fs.pread(f, 0, back).value(), 512u);
  EXPECT_EQ(std::memcmp(back.data(), data.data(), 512), 0);
}

TEST(FStoreJournal, TruncateThenRegrowBeforeSyncDoesNotResurrect) {
  // An unsynced write, a shrink, then a write that grows the file past the
  // dead bytes, then a sync: replay must not bring the dead bytes back,
  // because the live file reads zeros there.
  FileStore fs(journal_opt());
  auto f = fs.create(kRootIno, "f", true).value();
  const auto data = pattern(3 * 512, 31);
  ASSERT_TRUE(fs.pwrite(f, 0, data).ok());
  ASSERT_EQ(fs.set_size(f, 100), Errc::kOk);
  const auto last = pattern(1, 32);
  ASSERT_TRUE(fs.pwrite(f, data.size() - 1, last).ok());
  ASSERT_EQ(fs.sync(f), Errc::kOk);
  std::vector<std::byte> expect(data.size());
  std::memcpy(expect.data(), data.data(), 100);
  expect.back() = last[0];
  for (const bool crashed : {false, true}) {
    if (crashed) ASSERT_EQ(fs.crash(), Errc::kOk);
    std::vector<std::byte> back(data.size());
    ASSERT_EQ(fs.pread(f, 0, back).value(), data.size());
    EXPECT_TRUE(back == expect) << (crashed ? "after replay" : "live");
  }
}

}  // namespace
