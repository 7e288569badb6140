// Unit tests for the portable MPI-IO layer in isolation: a FakeDriver backed
// by a plain byte vector lets us observe exactly which device operations the
// portable code issues (sieving windows, list fan-out, lock usage) without
// any transport underneath.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "mpi/runtime.hpp"
#include "mpiio/file.hpp"
#include "mpiio/info.hpp"
#include "sim/rng.hpp"

namespace {

using mpi::Comm;
using mpi::Datatype;
using mpiio::AdioDriver;
using mpiio::AioHandle;
using mpiio::Err;
using mpiio::File;
using mpiio::Info;
using mpiio::IoSeg;
template <typename T>
using Result = mpiio::Result<T>;

/// In-memory ADIO device that counts operations.
class FakeDriver final : public AdioDriver {
 public:
  struct Counters {
    int preads = 0;
    int pwrites = 0;
    int locks = 0;
    int unlocks = 0;
    std::uint64_t bytes_read = 0;
    std::uint64_t bytes_written = 0;
  };

  explicit FakeDriver(bool with_locks = true, Counters* counters = nullptr)
      : with_locks_(with_locks), counters_(counters) {}

  Err open(const std::string& path, std::uint16_t flags) override {
    path_ = path;
    if (flags & dafs::kOpenTrunc) data_.clear();
    (void)flags;
    return Err::kOk;
  }
  Err close() override { return Err::kOk; }
  Err remove(const std::string&) override {
    data_.clear();
    return Err::kOk;
  }

  Result<std::uint64_t> pread(std::uint64_t off,
                              std::span<std::byte> out) override {
    if (counters_) {
      ++counters_->preads;
      counters_->bytes_read += out.size();
    }
    if (off >= data_.size()) return std::uint64_t{0};
    const std::uint64_t n =
        std::min<std::uint64_t>(out.size(), data_.size() - off);
    std::memcpy(out.data(), data_.data() + off, n);
    return n;
  }

  Result<std::uint64_t> pwrite(std::uint64_t off,
                               std::span<const std::byte> in) override {
    if (counters_) {
      ++counters_->pwrites;
      counters_->bytes_written += in.size();
    }
    if (data_.size() < off + in.size()) data_.resize(off + in.size());
    std::memcpy(data_.data() + off, in.data(), in.size());
    return std::uint64_t{in.size()};
  }

  Result<std::uint64_t> size() override {
    return std::uint64_t{data_.size()};
  }
  Err set_size(std::uint64_t size) override {
    data_.resize(size);
    return Err::kOk;
  }
  Err sync() override { return Err::kOk; }

  Err lock(std::uint64_t, std::uint64_t, bool) override {
    if (!with_locks_) return Err::kInval;
    if (counters_) ++counters_->locks;
    return Err::kOk;
  }
  Err unlock(std::uint64_t, std::uint64_t) override {
    if (!with_locks_) return Err::kInval;
    if (counters_) ++counters_->unlocks;
    return Err::kOk;
  }
  bool supports_locks() const override { return with_locks_; }

  Result<std::uint64_t> counter_fetch_add(const std::string& key,
                                          std::uint64_t delta) override {
    if (fail_fetch_add) return Err::kStale;
    const std::uint64_t old = counters_map_[key];
    counters_map_[key] += delta;
    return old;
  }
  Err counter_set(const std::string& key, std::uint64_t value) override {
    counters_map_[key] = value;
    return Err::kOk;
  }
  bool supports_counters() const override { return true; }

  const char* name() const override { return "fake"; }

  std::vector<std::byte>& data() { return data_; }

  /// Simulated shared-counter outage: fetch_add fails while counter_set
  /// (used at open) still works.
  bool fail_fetch_add = false;

 private:
  bool with_locks_;
  Counters* counters_;
  std::string path_;
  std::vector<std::byte> data_;
  std::map<std::string, std::uint64_t> counters_map_;
};

/// Run `fn` on a single-rank world with a File over a FakeDriver. The
/// FakeDriver instance outlives the File (owned by `drv`).
void with_file(FakeDriver::Counters* counters, const Info& info,
               const std::function<void(File&, FakeDriver&)>& fn,
               bool with_locks = true) {
  mpi::WorldConfig cfg;
  cfg.nprocs = 1;
  mpi::World world(cfg);
  world.run([&](Comm& c) {
    auto drv = std::make_unique<FakeDriver>(with_locks, counters);
    FakeDriver* raw = drv.get();
    auto f = std::move(File::open(c, "/fake",
                                  mpiio::kModeCreate | mpiio::kModeRdwr, info,
                                  std::move(drv))
                           .value());
    fn(*f, *raw);
    f->close();
  });
}

std::vector<std::byte> pattern(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng.next() & 0xff);
  return out;
}

// ---------------------------------------------------------------------------
// Info
// ---------------------------------------------------------------------------

TEST(InfoHints, GettersAndDefaults) {
  Info info;
  EXPECT_FALSE(info.get("missing").has_value());
  EXPECT_EQ(info.get_uint("missing", 42), 42u);

  info.set("cb_buffer_size", std::uint64_t{1024});
  EXPECT_EQ(info.get_uint("cb_buffer_size", 0), 1024u);
  info.set("romio_ds_read", "enable");
  EXPECT_EQ(info.get("romio_ds_read"), "enable");
  EXPECT_EQ(info.all().size(), 2u);
}

TEST(InfoHints, MalformedNumericHintFallsBackInsteadOfThrowing) {
  // Regression: get_uint used to call std::stoull unguarded, so a malformed
  // or overflowing hint aborted the rank with an uncaught exception.
  Info info;
  info.set("dafs_deadline_ms", "abc");
  EXPECT_EQ(info.get_uint("dafs_deadline_ms", 42), 42u);
  EXPECT_EQ(info.bad_hints(), 1u);

  info.set("cb_nodes", "12abc");  // trailing junk is malformed, not "12"
  EXPECT_EQ(info.get_uint("cb_nodes", 7), 7u);
  EXPECT_EQ(info.bad_hints(), 2u);

  info.set("cb_buffer_size", "99999999999999999999999");  // > UINT64_MAX
  EXPECT_EQ(info.get_uint("cb_buffer_size", 9), 9u);

  info.set("ind_rd_buffer_size", "-5");
  EXPECT_EQ(info.get_uint("ind_rd_buffer_size", 3), 3u);

  info.set("ind_wr_buffer_size", "");
  EXPECT_EQ(info.get_uint("ind_wr_buffer_size", 5), 5u);
  EXPECT_EQ(info.bad_hints(), 5u);

  // A well-formed value afterwards still parses.
  info.set("cb_nodes", "16");
  EXPECT_EQ(info.get_uint("cb_nodes", 7), 16u);
  EXPECT_EQ(info.bad_hints(), 5u);
}

TEST(InfoHints, SubMillisecondDeadlineSurvivesAbsentHint) {
  // Regression: the retry parser round-tripped base.deadline_ns through
  // milliseconds even when dafs_deadline_ms was absent, truncating any
  // sub-ms deadline to 0 (= no deadline at all).
  dafs::RetryPolicy base;
  base.deadline_ns = 500'000;  // 0.5 ms
  Info info;
  EXPECT_EQ(mpiio::HintSet::parse(info).retry_policy(base).deadline_ns,
            500'000u);

  info.set("dafs_deadline_ms", std::uint64_t{3});
  EXPECT_EQ(mpiio::HintSet::parse(info).retry_policy(base).deadline_ns,
            3'000'000u);

  info.set("dafs_deadline_ms", std::uint64_t{0});  // explicit "no deadline"
  EXPECT_EQ(mpiio::HintSet::parse(info).retry_policy(base).deadline_ns, 0u);
}

TEST(InfoHints, BusyRetryBudgetFlowsIntoPolicy) {
  // The lease-reclaim loops in dafs::Session honor RetryPolicy's
  // max_busy_retries (they used to hard-code 200); this is the hint that
  // feeds it. Behavioral coverage of the reclaim path itself rides with the
  // crash/failover/stripe fault tests.
  Info info;
  info.set("dafs_busy_retries", std::uint64_t{7});
  EXPECT_EQ(mpiio::HintSet::parse(info).retry_policy().max_busy_retries, 7);
  EXPECT_EQ(mpiio::HintSet::parse(Info{}).retry_policy().max_busy_retries,
            dafs::RetryPolicy{}.max_busy_retries);
}

TEST(InfoHints, UintHintRejectsTrailingGarbage) {
  // Suffixed sizes are not part of the hint grammar: "4k" must not parse as
  // 4 (a 4-byte stripe would shred every access), it must count as a bad
  // hint and keep the fallback.
  Info info;
  info.set("dafs_stripe_size", "4k");
  info.set("dafs_cache_bytes", "1MB");
  info.set("dafs_deadline_ms", "10 ");
  const auto h = mpiio::HintSet::parse(info);
  EXPECT_EQ(h.stripe_size_or(64 * 1024), 64u * 1024u);
  EXPECT_EQ(h.open_options().cache_bytes, 0u);
  EXPECT_EQ(h.retry_policy().deadline_ns, dafs::RetryPolicy{}.deadline_ns);
  EXPECT_EQ(info.bad_hints(), 3u);

  // The same grammar applies through the raw accessor.
  Info raw;
  raw.set("ind_rd_buffer_size", "64k");
  EXPECT_EQ(raw.get_uint("ind_rd_buffer_size", 7), 7u);
  EXPECT_EQ(raw.bad_hints(), 1u);
}

TEST(InfoHints, UnknownDafsKeyIsABadHint) {
  // A typo'd dafs_* hint should be loud, not silently inert; ROMIO keys and
  // other prefixes are not this layer's business.
  Info info;
  info.set("dafs_cache_byte", std::uint64_t{1 << 20});  // typo'd
  info.set("striping_factor", "banana");                // not ours to judge
  (void)mpiio::HintSet::parse(info);
  EXPECT_EQ(info.bad_hints(), 1u);
}

TEST(InfoHints, CollectiveAndSievingHintsAreTyped) {
  // Defaults with no hints at all.
  const auto d = mpiio::HintSet::parse(Info{});
  EXPECT_TRUE(d.collective_buffering(/*writing=*/true));
  EXPECT_TRUE(d.collective_buffering(/*writing=*/false));
  EXPECT_EQ(d.cb_buffer_size(), 4u << 20);
  EXPECT_EQ(d.cb_nodes(4), 4);
  EXPECT_TRUE(d.data_sieving(false, /*fallback=*/true));
  EXPECT_FALSE(d.data_sieving(true, /*fallback=*/false));
  EXPECT_EQ(d.sieve_buffer_size(false), 4u << 20);
  EXPECT_EQ(d.sieve_buffer_size(true), 512u << 10);

  Info info;
  info.set("cb_buffer_size", std::uint64_t{128 * 1024});
  info.set("cb_nodes", std::uint64_t{2});
  info.set("romio_cb_write", "disable");
  info.set("romio_cb_read", "automatic");  // legal: the default applies
  info.set("romio_ds_read", "enable");
  info.set("romio_ds_write", "false");
  info.set("ind_wr_buffer_size", std::uint64_t{1 << 20});
  const auto h = mpiio::HintSet::parse(info);
  EXPECT_EQ(info.bad_hints(), 0u);
  EXPECT_FALSE(h.collective_buffering(true));
  EXPECT_TRUE(h.collective_buffering(false));
  EXPECT_EQ(h.cb_buffer_size(), 128u * 1024u);
  EXPECT_EQ(h.cb_nodes(4), 2);
  EXPECT_TRUE(h.data_sieving(false, /*fallback=*/false));
  EXPECT_FALSE(h.data_sieving(true, /*fallback=*/true));
  EXPECT_EQ(h.sieve_buffer_size(true), 1u << 20);

  // Clamps: a buffer below 64 KiB, zero aggregators, more aggregators than
  // ranks.
  Info edge;
  edge.set("cb_buffer_size", std::uint64_t{1000});
  edge.set("cb_nodes", std::uint64_t{0});
  EXPECT_EQ(mpiio::HintSet::parse(edge).cb_buffer_size(), 64u * 1024u);
  EXPECT_EQ(mpiio::HintSet::parse(edge).cb_nodes(4), 1);
  edge.set("cb_nodes", std::uint64_t{99});
  EXPECT_EQ(mpiio::HintSet::parse(edge).cb_nodes(4), 4);
}

TEST(InfoHints, MalformedCollectiveHintsAreBadHints) {
  Info info;
  info.set("cb_buffer_size", "banana");
  info.set("cb_nodes", "2x");
  info.set("romio_cb_read", "maybe");
  info.set("romio_ds_write", "");
  const auto h = mpiio::HintSet::parse(info);
  EXPECT_EQ(info.bad_hints(), 4u);
  // Each falls back as if absent.
  EXPECT_EQ(h.cb_buffer_size(), 4u << 20);
  EXPECT_EQ(h.cb_nodes(4), 4);
  EXPECT_TRUE(h.collective_buffering(false));
  EXPECT_TRUE(h.data_sieving(true, /*fallback=*/true));
}

TEST(InfoHints, CollectiveHintsParseOncePerOpenNotPerCall) {
  // A malformed hint counts once, at open, however many collective and
  // sieving calls follow: the per-call paths read the typed HintSet.
  constexpr int kNp = 2;
  mpi::WorldConfig cfg;
  cfg.nprocs = kNp;
  mpi::World world(cfg);
  std::array<std::uint64_t, kNp> bad{};
  world.run([&](Comm& c) {
    Info info;
    info.set("cb_nodes", "lots");
    info.set("ind_rd_buffer_size", "64k");
    auto f = std::move(File::open(c, "/once",
                                  mpiio::kModeCreate | mpiio::kModeRdwr, info,
                                  std::make_unique<FakeDriver>())
                           .value());
    auto data = pattern(8192, 21);
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(f->write_at_all(static_cast<std::uint64_t>(c.rank()) * 8192,
                                  data.data(), data.size(), Datatype::byte())
                      .ok());
      ASSERT_TRUE(f->read_at_all(static_cast<std::uint64_t>(c.rank()) * 8192,
                                 data.data(), data.size(), Datatype::byte())
                      .ok());
    }
    auto ft = Datatype::resized(
        Datatype::hvector(1, 128, 1024, Datatype::byte()), 0, 1024);
    ASSERT_EQ(f->set_view(0, Datatype::byte(), ft), Err::kOk);
    std::vector<std::byte> out(4 * 128);
    ASSERT_TRUE(f->read_at(0, out.data(), out.size(), Datatype::byte()).ok());
    bad[static_cast<std::size_t>(c.rank())] = f->info().bad_hints();
    f->close();
  });
  EXPECT_EQ(bad[0], 2u);
  EXPECT_EQ(bad[1], 2u);
  EXPECT_EQ(world.fabric().stats().get("mpiio.bad_hint"), 2u * kNp);
}

TEST(InfoHints, SetInfoAndSetViewLayerOverOpenHints) {
  // The fake driver has no list I/O, so strided reads sieve by default:
  // set_info turns that off, a later set_view hint turns it back on.
  FakeDriver::Counters counters;
  with_file(&counters, Info{}, [&](File& f, FakeDriver&) {
    auto base = pattern(64 * 1024, 22);
    f.write_at(0, base.data(), base.size(), Datatype::byte());
    auto ft = Datatype::resized(
        Datatype::hvector(1, 128, 1024, Datatype::byte()), 0, 1024);
    std::vector<std::byte> out(16 * 128);

    Info off;
    off.set("romio_ds_read", "disable");
    ASSERT_EQ(f.set_info(off), Err::kOk);
    ASSERT_EQ(f.set_view(0, Datatype::byte(), ft), Err::kOk);
    counters = {};
    ASSERT_TRUE(f.read_at(0, out.data(), out.size(), Datatype::byte()).ok());
    EXPECT_EQ(counters.preads, 16);  // one per segment

    Info on;
    on.set("romio_ds_read", "enable");
    ASSERT_EQ(f.set_view(0, Datatype::byte(), ft, on), Err::kOk);
    counters = {};
    ASSERT_TRUE(f.read_at(0, out.data(), out.size(), Datatype::byte()).ok());
    EXPECT_EQ(counters.preads, 1);  // one sieve window
    EXPECT_EQ(std::memcmp(out.data() + 128, base.data() + 1024, 128), 0);
    EXPECT_EQ(f.info().bad_hints(), 0u);
  });
}

TEST(InfoHints, ConsistencyAndCacheHintsMakeOpenOptions) {
  Info info;
  info.set("dafs_consistency", "after_close");
  info.set("dafs_cache_bytes", std::uint64_t{1 << 20});
  info.set("dafs_attr_ttl_ms", std::uint64_t{2});
  const auto h = mpiio::HintSet::parse(info);
  EXPECT_TRUE(h.wants_cache());
  const dafs::OpenOptions o = h.open_options(dafs::kOpenCreate);
  EXPECT_EQ(o.flags, dafs::kOpenCreate);
  EXPECT_EQ(o.consistency, dafs::Consistency::kAfterClose);
  EXPECT_EQ(o.cache_bytes, std::uint64_t{1} << 20);
  EXPECT_EQ(o.attr_ttl_ns, 2'000'000u);

  // A malformed level is a bad hint and keeps the after_write default.
  Info bad;
  bad.set("dafs_consistency", "eventually");
  const auto hb = mpiio::HintSet::parse(bad);
  EXPECT_EQ(hb.open_options().consistency, dafs::Consistency::kAfterWrite);
  EXPECT_EQ(bad.bad_hints(), 1u);

  // Defaults: no hints = no cache, strictest level.
  const dafs::OpenOptions d = mpiio::HintSet::parse(Info{}).open_options();
  EXPECT_EQ(d.consistency, dafs::Consistency::kAfterWrite);
  EXPECT_EQ(d.cache_bytes, 0u);
  EXPECT_FALSE(mpiio::HintSet::parse(Info{}).wants_cache());
}

TEST(InfoHints, EndpointListTrimsWhitespaceAndDropsDuplicates) {
  // Regression: "a, b" used to produce an endpoint literally named " b",
  // which can never resolve against the fabric name service.
  Info info;
  info.set("dafs_endpoints", "filer-a, filer-b ,filer-a,, \t ,filer-c");
  const dafs::MountSpec m = mpiio::HintSet::parse(info).mount_spec();
  ASSERT_EQ(m.endpoints.size(), 3u);
  EXPECT_EQ(m.endpoints[0].service, "filer-a");
  EXPECT_EQ(m.endpoints[1].service, "filer-b");
  EXPECT_EQ(m.endpoints[2].service, "filer-c");

  // All-whitespace list degenerates to the default endpoint.
  Info junk;
  junk.set("dafs_endpoints", " ,  , ");
  const dafs::MountSpec d = mpiio::HintSet::parse(junk).mount_spec();
  ASSERT_EQ(d.endpoints.size(), 1u);
  EXPECT_EQ(d.endpoints[0].service, "dafs");
}

TEST(InfoHints, StripeHintsCarveDataServersOutOfEndpoints) {
  Info info;
  info.set("dafs_endpoints", "f0,f1,f2,f3");
  info.set("dafs_stripe_count", std::uint64_t{3});
  info.set("dafs_stripe_size", std::uint64_t{128 * 1024});
  const dafs::MountSpec m = mpiio::HintSet::parse(info).mount_spec();
  EXPECT_EQ(m.stripe_size, 128u * 1024u);
  ASSERT_EQ(m.data_endpoints.size(), 3u);
  EXPECT_EQ(m.data_endpoints[0].service, "f0");
  EXPECT_EQ(m.data_endpoints[1].service, "f1");
  EXPECT_EQ(m.data_endpoints[2].service, "f2");
  // Metadata stays on filer 0.
  ASSERT_EQ(m.endpoints.size(), 1u);
  EXPECT_EQ(m.endpoints[0].service, "f0");

  // Without a stripe count the endpoint list is a failover chain, not a
  // stripe set.
  Info plain;
  plain.set("dafs_endpoints", "f0,f1");
  const dafs::MountSpec p = mpiio::HintSet::parse(plain).mount_spec();
  EXPECT_EQ(p.endpoints.size(), 2u);
  EXPECT_TRUE(p.data_endpoints.empty());
}

// ---------------------------------------------------------------------------
// ADIO defaults
// ---------------------------------------------------------------------------

TEST(AdioDefaults, ListIoFallsBackToPerSegmentOps) {
  FakeDriver::Counters counters;
  FakeDriver drv(true, &counters);
  drv.open("/x", 0);
  auto data = pattern(3000, 1);
  drv.pwrite(0, data);
  counters = {};

  std::vector<std::byte> out(300);
  std::vector<IoSeg> segs = {
      {0, out.data(), 100}, {1000, out.data() + 100, 100},
      {2000, out.data() + 200, 100}};
  auto r = drv.read_list(segs);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 300u);
  EXPECT_EQ(counters.preads, 3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(std::memcmp(out.data() + i * 100, data.data() + i * 1000, 100),
              0);
  }

  counters = {};
  std::vector<IoSeg> wsegs = {{5000, out.data(), 100},
                              {6000, out.data() + 100, 100}};
  auto w = drv.write_list(wsegs);
  ASSERT_TRUE(w.ok());
  EXPECT_EQ(w.value(), 200u);
  EXPECT_EQ(counters.pwrites, 2);
}

TEST(AdioDefaults, SyncAioCompletesAtSubmit) {
  FakeDriver drv;
  drv.open("/x", 0);
  auto data = pattern(128, 2);
  auto h = drv.submit_pwrite(10, data);
  ASSERT_TRUE(h.ok());
  std::uint64_t bytes = 0;
  EXPECT_EQ(drv.aio_wait(h.value(), &bytes), Err::kOk);
  EXPECT_EQ(bytes, 128u);
  EXPECT_EQ(drv.aio_wait(AioHandle{999}, &bytes), Err::kInval);
}

TEST(AdioDefaults, SyncAioSlotIsRecycledAtWait) {
  // One slot per op not yet collected: a wait frees it for the next submit,
  // and a second wait on the collected handle is refused.
  FakeDriver drv;
  drv.open("/x", 0);
  auto data = pattern(64, 4);
  auto first = drv.submit_pwrite(0, data);
  ASSERT_TRUE(first.ok());
  std::uint64_t bytes = 0;
  EXPECT_EQ(drv.aio_wait(first.value(), &bytes), Err::kOk);
  EXPECT_EQ(drv.aio_wait(first.value(), &bytes), Err::kInval);
  for (int i = 0; i < 3; ++i) {
    std::vector<std::byte> out(data.size());
    auto h = drv.submit_pread(0, out);
    ASSERT_TRUE(h.ok());
    EXPECT_EQ(h.value(), first.value()) << "op " << i;
    EXPECT_EQ(drv.aio_wait(h.value(), &bytes), Err::kOk);
    EXPECT_EQ(bytes, data.size());
    EXPECT_EQ(out, data);
  }
}

// ---------------------------------------------------------------------------
// Sieving behaviour, observed through device op counts
// ---------------------------------------------------------------------------

TEST(Sieving, ReadWindowCoalescesManySmallSegments) {
  FakeDriver::Counters counters;
  Info info;
  info.set("romio_ds_read", "enable");
  with_file(&counters, info, [&](File& f, FakeDriver& drv) {
    auto base = pattern(256 * 1024, 3);
    f.write_at(0, base.data(), base.size(), Datatype::byte());
    // Strided view: 128 B of every 1 KiB -> 256 segments.
    auto ft = Datatype::resized(
        Datatype::hvector(1, 128, 1024, Datatype::byte()), 0, 1024);
    ASSERT_EQ(f.set_view(0, Datatype::byte(), ft), Err::kOk);
    counters = {};
    std::vector<std::byte> out(256 * 128);
    auto r = f.read_at(0, out.data(), out.size(), Datatype::byte());
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), out.size());
    // One sieve window covers everything: exactly one device pread, reading
    // holes and all.
    EXPECT_EQ(counters.preads, 1);
    EXPECT_GE(counters.bytes_read, 255u * 1024);
    // Data must match the strided extraction of the base buffer.
    for (int blk = 0; blk < 256; blk += 17) {
      EXPECT_EQ(std::memcmp(out.data() + blk * 128, base.data() + blk * 1024,
                            128),
                0)
          << blk;
    }
    (void)drv;
  });
}

TEST(Sieving, WriteUsesLockedReadModifyWrite) {
  FakeDriver::Counters counters;
  Info info;
  info.set("romio_ds_write", "enable");
  with_file(&counters, info, [&](File& f, FakeDriver& drv) {
    auto base = pattern(64 * 1024, 4);
    f.write_at(0, base.data(), base.size(), Datatype::byte());
    auto ft = Datatype::resized(
        Datatype::hvector(1, 64, 512, Datatype::byte()), 0, 512);
    ASSERT_EQ(f.set_view(0, Datatype::byte(), ft), Err::kOk);
    counters = {};
    std::vector<std::byte> marks(128 * 64, std::byte{0xCD});
    ASSERT_TRUE(
        f.write_at(0, marks.data(), marks.size(), Datatype::byte()).ok());
    // RMW: one read + one write per window, under a lock.
    EXPECT_EQ(counters.preads, counters.pwrites);
    EXPECT_EQ(counters.locks, counters.pwrites);
    EXPECT_EQ(counters.unlocks, counters.locks);
    EXPECT_GE(counters.locks, 1);
    // Gap bytes intact, marked bytes updated.
    EXPECT_EQ(drv.data()[0], std::byte{0xCD});
    EXPECT_EQ(drv.data()[63], std::byte{0xCD});
    EXPECT_EQ(drv.data()[64], base[64]);
    EXPECT_EQ(drv.data()[512], std::byte{0xCD});
  });
}

TEST(Sieving, WriteWithoutLocksFallsBackToListWrites) {
  FakeDriver::Counters counters;
  Info info;
  info.set("romio_ds_write", "enable");  // asked for, but no locks available
  with_file(
      &counters, info,
      [&](File& f, FakeDriver& drv) {
        auto ft = Datatype::resized(
            Datatype::hvector(1, 64, 512, Datatype::byte()), 0, 512);
        ASSERT_EQ(f.set_view(0, Datatype::byte(), ft), Err::kOk);
        counters = {};
        std::vector<std::byte> marks(16 * 64, std::byte{0xEE});
        ASSERT_TRUE(
            f.write_at(0, marks.data(), marks.size(), Datatype::byte()).ok());
        EXPECT_EQ(counters.locks, 0);
        EXPECT_EQ(counters.pwrites, 16);  // one per segment
        (void)drv;
      },
      /*with_locks=*/false);
}

TEST(Sieving, SmallWindowSplitsIntoMultipleDeviceReads) {
  FakeDriver::Counters counters;
  Info info;
  info.set("romio_ds_read", "enable");
  info.set("ind_rd_buffer_size", std::uint64_t{64 * 1024});
  with_file(&counters, info, [&](File& f, FakeDriver& drv) {
    auto base = pattern(512 * 1024, 5);
    f.write_at(0, base.data(), base.size(), Datatype::byte());
    auto ft = Datatype::resized(
        Datatype::hvector(1, 256, 2048, Datatype::byte()), 0, 2048);
    ASSERT_EQ(f.set_view(0, Datatype::byte(), ft), Err::kOk);
    counters = {};
    std::vector<std::byte> out(256 * 256);
    ASSERT_TRUE(f.read_at(0, out.data(), out.size(), Datatype::byte()).ok());
    // 256 segments spanning 512 KiB with a 64 KiB sieve buffer -> >= 8 reads.
    EXPECT_GE(counters.preads, 8);
    EXPECT_LE(counters.preads, 16);
    (void)drv;
  });
}

TEST(Sieving, ReadPastEofReturnsShortCount) {
  // Strided view whose tail lies past EOF: the sieve window read comes back
  // short and the op must return just the bytes that exist.
  FakeDriver::Counters counters;
  Info info;
  info.set("romio_ds_read", "enable");
  with_file(&counters, info, [&](File& f, FakeDriver& drv) {
    auto base = pattern(10'000, 11);
    f.write_at(0, base.data(), base.size(), Datatype::byte());
    // 700 B of every 1 KiB; EOF at 10 KiB cuts the stride off after 10 blocks.
    auto ft = Datatype::resized(
        Datatype::hvector(1, 700, 1000, Datatype::byte()), 0, 1000);
    ASSERT_EQ(f.set_view(0, Datatype::byte(), ft), Err::kOk);
    counters = {};
    std::vector<std::byte> out(66 * 700, std::byte{0});
    auto r = f.read_at(0, out.data(), out.size(), Datatype::byte());
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), 10u * 700);  // blocks 0..9 exist, the rest are gone
    EXPECT_EQ(counters.preads, 1);    // one short window, no futile re-reads
    for (int blk = 0; blk < 10; ++blk) {
      EXPECT_EQ(std::memcmp(out.data() + blk * 700, base.data() + blk * 1000,
                            700),
                0)
          << blk;
    }
    (void)drv;
  });
}

TEST(Sieving, ReadSegmentLargerThanBufferPastEofTerminates) {
  // Regression: a segment longer than the sieve buffer starting past EOF
  // used to respawn the same window forever (short read -> zero progress on
  // the tail -> identical retry). Must terminate with the bytes before EOF.
  FakeDriver::Counters counters;
  Info info;
  info.set("romio_ds_read", "enable");
  info.set("ind_rd_buffer_size", std::uint64_t{64 * 1024});
  with_file(&counters, info, [&](File& f, FakeDriver& drv) {
    auto base = pattern(10'000, 12);
    f.write_at(0, base.data(), base.size(), Datatype::byte());
    // Two blocks: 100 B in the data, then 70000 B (> the 64 KiB sieve
    // buffer) starting far past EOF.
    const std::array<std::uint32_t, 2> lens = {100, 70'000};
    const std::array<std::int64_t, 2> displs = {0, 100'000};
    auto ft = Datatype::hindexed(lens, displs, Datatype::byte());
    ASSERT_EQ(f.set_view(0, Datatype::byte(), ft), Err::kOk);
    counters = {};
    std::vector<std::byte> out(70'100, std::byte{0});
    auto r = f.read_at(0, out.data(), out.size(), Datatype::byte());
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), 100u);
    EXPECT_LE(counters.preads, 2);  // in-data window + one short probe
    EXPECT_EQ(std::memcmp(out.data(), base.data(), 100), 0);
    (void)drv;
  });
}

// ---------------------------------------------------------------------------
// Portable-layer odds and ends over the fake device
// ---------------------------------------------------------------------------

TEST(PortableLayer, ByteOffsetFollowsViewTiling) {
  with_file(nullptr, Info{}, [&](File& f, FakeDriver&) {
    auto ft = Datatype::resized(
        Datatype::hvector(1, 100, 1000, Datatype::byte()), 0, 1000);
    ASSERT_EQ(f.set_view(5000, Datatype::byte(), ft), Err::kOk);
    EXPECT_EQ(f.byte_offset(0), 5000u);
    EXPECT_EQ(f.byte_offset(99), 5099u);
    EXPECT_EQ(f.byte_offset(100), 6000u);  // next tile
    EXPECT_EQ(f.byte_offset(250), 7050u);
  });
}

TEST(PortableLayer, SharedPointerOpsOverCounters) {
  with_file(nullptr, Info{}, [&](File& f, FakeDriver&) {
    auto data = pattern(100, 6);
    ASSERT_TRUE(f.write_shared(data.data(), 100, Datatype::byte()).ok());
    ASSERT_TRUE(f.write_shared(data.data(), 100, Datatype::byte()).ok());
    EXPECT_EQ(f.get_size().value(), 200u);
    ASSERT_EQ(f.seek_shared(50, mpiio::Whence::kSet), Err::kOk);
    std::vector<std::byte> back(100);
    ASSERT_TRUE(f.read_shared(back.data(), 100, Datatype::byte()).ok());
    EXPECT_EQ(std::memcmp(back.data(), data.data() + 50, 50), 0);
    EXPECT_EQ(std::memcmp(back.data() + 50, data.data(), 50), 0);
  });
}

TEST(PortableLayer, OrderedOpsPropagateCounterFailureToEveryRank) {
  // The ordered ops fetch-add the shared pointer on rank 0 only. When that
  // counter op fails, every rank must see the error — not a silent base of
  // zero on the non-root ranks.
  constexpr int kNp = 2;
  mpi::WorldConfig cfg;
  cfg.nprocs = kNp;
  mpi::World world(cfg);
  std::array<Err, kNp> write_err{};
  std::array<Err, kNp> read_err{};
  world.run([&](Comm& c) {
    auto drv = std::make_unique<FakeDriver>();
    drv->fail_fetch_add = true;  // counter_set at open still succeeds
    auto f = std::move(File::open(c, "/ord",
                                  mpiio::kModeCreate | mpiio::kModeRdwr,
                                  Info{}, std::move(drv))
                           .value());
    auto data = pattern(64, 13);
    auto w = f->write_ordered(data.data(), data.size(), Datatype::byte());
    write_err[c.rank()] = w.ok() ? Err::kOk : w.error();
    std::vector<std::byte> back(64);
    auto r = f->read_ordered(back.data(), back.size(), Datatype::byte());
    read_err[c.rank()] = r.ok() ? Err::kOk : r.error();
    f->close();
  });
  for (int rank = 0; rank < kNp; ++rank) {
    EXPECT_EQ(write_err[rank], Err::kStale) << "rank " << rank;
    EXPECT_EQ(read_err[rank], Err::kStale) << "rank " << rank;
  }
}

TEST(PortableLayer, AppendModePositionsAtEof) {
  mpi::WorldConfig cfg;
  cfg.nprocs = 1;
  mpi::World world(cfg);
  world.run([&](Comm& c) {
    auto drv = std::make_unique<FakeDriver>();
    drv->open("/pre", 0);
    auto data = pattern(500, 7);
    drv->pwrite(0, data);
    auto f = std::move(
        File::open(c, "/pre", mpiio::kModeRdwr | mpiio::kModeAppend, Info{},
                   std::move(drv))
            .value());
    EXPECT_EQ(f->position(), 500u);
    std::byte b{0x11};
    ASSERT_TRUE(f->write(&b, 1, Datatype::byte()).ok());
    EXPECT_EQ(f->get_size().value(), 501u);
    f->close();
  });
}

TEST(PortableLayer, AtomicModeLocksNonblockingIo) {
  // Atomic mode serializes every access on a byte-range lock. A nonblocking
  // request takes it too, completing at submit under the lock, instead of
  // going to the driver's async I/O unlocked.
  FakeDriver::Counters counters;
  with_file(&counters, Info{}, [&](File& f, FakeDriver&) {
    ASSERT_EQ(f.set_atomicity(true), Err::kOk);
    const auto data = pattern(4096, 6);
    counters = {};
    ASSERT_TRUE(
        f.write_at(0, data.data(), data.size(), Datatype::byte()).ok());
    EXPECT_EQ(counters.locks, 1) << "write_at";
    counters = {};
    auto w = f.iwrite_at(4096, data.data(), data.size(), Datatype::byte());
    ASSERT_TRUE(w.ok());
    EXPECT_EQ(counters.locks, 1) << "iwrite_at";
    EXPECT_EQ(counters.unlocks, 1) << "iwrite_at";
    std::uint64_t bytes = 0;
    EXPECT_EQ(f.wait(w.value(), &bytes), Err::kOk);
    EXPECT_EQ(bytes, data.size());
    counters = {};
    std::vector<std::byte> back(data.size());
    auto r = f.iread_at(4096, back.data(), back.size(), Datatype::byte());
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(counters.locks, 1) << "iread_at";
    EXPECT_EQ(counters.unlocks, 1) << "iread_at";
    EXPECT_EQ(f.wait(r.value(), &bytes), Err::kOk);
    EXPECT_EQ(bytes, back.size());
    EXPECT_EQ(back, data);
  });
}

TEST(PortableLayer, ZeroCountOpsSucceedTrivially) {
  with_file(nullptr, Info{}, [&](File& f, FakeDriver&) {
    auto r = f.read_at(0, nullptr, 0, Datatype::byte());
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), 0u);
    auto w = f.write_at(0, nullptr, 0, Datatype::byte());
    ASSERT_TRUE(w.ok());
    EXPECT_EQ(w.value(), 0u);
  });
}

TEST(PortableLayer, IndexedViewGathersOutOfOrderBlocks) {
  with_file(nullptr, Info{}, [&](File& f, FakeDriver& drv) {
    auto base = pattern(4096, 8);
    f.write_at(0, base.data(), base.size(), Datatype::byte());
    // View visiting blocks at displacements 512, 0, 2048 (in that order).
    const std::array<std::uint32_t, 3> lens = {64, 64, 64};
    const std::array<std::int64_t, 3> displs = {512, 0, 2048};
    auto ft = Datatype::hindexed(lens, displs, Datatype::byte());
    ASSERT_EQ(f.set_view(0, Datatype::byte(), ft), Err::kOk);
    std::vector<std::byte> out(192);
    ASSERT_TRUE(f.read_at(0, out.data(), out.size(), Datatype::byte()).ok());
    EXPECT_EQ(std::memcmp(out.data(), base.data() + 512, 64), 0);
    EXPECT_EQ(std::memcmp(out.data() + 64, base.data(), 64), 0);
    EXPECT_EQ(std::memcmp(out.data() + 128, base.data() + 2048, 64), 0);
    (void)drv;
  });
}

}  // namespace
