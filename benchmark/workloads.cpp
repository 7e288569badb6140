// The four workloads, each run as one trial on a fresh testbed: four rank
// threads (nproc on the reference machine), one mount each, closed loop with
// no think time. See README.md for why each workload exists and which layer
// it loads.
#include <algorithm>
#include <array>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>

#include "benchmark/harness.hpp"
#include "dafs/client.hpp"
#include "dafs/server.hpp"
#include "mpi/runtime.hpp"
#include "mpiio/ad_dafs.hpp"
#include "mpiio/file.hpp"
#include "sim/fabric.hpp"
#include "sim/rng.hpp"

namespace bench {
namespace {

using Clock = std::chrono::steady_clock;
using mpi::Datatype;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Set-up failures are not workload failures: a rank that cannot mount or
/// open would strand its peers in the next collective, so stop the process.
template <typename T>
T require(sim::Expected<T, dafs::PStatus> r, const char* what) {
  if (!r.ok()) {
    std::fprintf(stderr, "dafs_bench: %s failed: %s\n", what,
                 dafs::to_string(r.error()));
    std::abort();
  }
  return std::move(r).value();
}

void require_ok(dafs::PStatus st, const char* what) {
  if (st != dafs::PStatus::kOk) {
    std::fprintf(stderr, "dafs_bench: %s failed: %s\n", what,
                 dafs::to_string(st));
    std::abort();
  }
}

std::uint64_t scaled(std::uint64_t n, double scale) {
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::llround(static_cast<double>(n) * scale)));
}

// Data pattern: the 8-byte word at file offset `o` written under `key` is
// key ^ (o/8 + 1) * golden, so a read-back checks content and placement at
// once, and generating it costs the host one multiply per word.
std::uint64_t pattern_word(std::uint64_t key, std::uint64_t off) {
  return key ^ ((off >> 3) + 1) * 0x9e3779b97f4a7c15ULL;
}

void fill_pattern(std::byte* p, std::size_t n, std::uint64_t key,
                  std::uint64_t off) {
  for (std::size_t i = 0; i < n; i += 8) {
    const std::uint64_t w = pattern_word(key, off + i);
    std::memcpy(p + i, &w, sizeof(w));
  }
}

bool check_pattern(const std::byte* p, std::size_t n, std::uint64_t key,
                   std::uint64_t off) {
  bool same = true;
  for (std::size_t i = 0; i < n; i += 8) {
    const std::uint64_t w = pattern_word(key, off + i);
    same &= std::memcmp(p + i, &w, sizeof(w)) == 0;
  }
  return same;
}

sim::BusyBreakdown operator-(const sim::BusyBreakdown& a,
                             const sim::BusyBreakdown& b) {
  sim::BusyBreakdown d;
  for (std::size_t k = 0; k < d.by_kind.size(); ++k) {
    d.by_kind[k] = a.by_kind[k] - b.by_kind[k];
  }
  return d;
}

// ---------------------------------------------------------------------------
// Testbed and timed-phase bookkeeping
// ---------------------------------------------------------------------------

/// Filers on their own nodes of one fabric. The fstore disk model stays off
/// (warm server cache, as in the paper's experiments) and every other
/// setting is the library default unless a workload names it.
struct Bed {
  sim::Fabric fabric;
  std::vector<std::unique_ptr<dafs::Server>> servers;
  std::vector<std::string> services;

  Bed(int nservers, int workers, bool traced) {
    // Every span of the traced phases must survive until the dump.
    if (traced) fabric.trace().set_ring_capacity(std::size_t{1} << 26);
    for (int i = 0; i < nservers; ++i) {
      dafs::ServerConfig cfg;
      cfg.service = "dafs" + std::to_string(i);
      if (workers > 0) cfg.workers = workers;
      services.push_back(cfg.service);
      servers.push_back(std::make_unique<dafs::Server>(
          fabric, fabric.add_node("filer" + std::to_string(i)), cfg));
      servers.back()->start();
    }
  }

  void stop() {
    for (auto& s : servers) s->stop();
  }
};

/// Layer counters at one instant.
struct Counters {
  std::map<std::string, std::uint64_t> stats;
  std::map<std::string, std::uint64_t> store;
  std::uint64_t journal = 0;
  ServerTotals server;
  sim::BusyBreakdown busy;
};

Counters take_counters(Bed& bed) {
  Counters c;
  c.stats = bed.fabric.stats().snapshot();
  for (auto& s : bed.servers) {
    for (const auto& [k, v] : s->store().stats().snapshot()) c.store[k] += v;
    c.journal += s->store().journal_size();
    for (const auto& [id, cs] : s->client_stats()) {
      c.server.ops += cs.ops_read + cs.ops_write + cs.ops_meta;
      c.server.bytes_in += cs.bytes_in;
      c.server.bytes_out += cs.bytes_out;
      c.server.queue_wait_ns += cs.queue_wait_ns;
      c.server.service_ns += cs.service_ns;
      c.server.sheds += cs.sheds;
    }
    c.busy += s->worker_busy();
  }
  return c;
}

void add_delta(std::map<std::string, std::uint64_t>& into,
               const std::map<std::string, std::uint64_t>& after,
               const std::map<std::string, std::uint64_t>& before) {
  for (const auto& [k, v] : after) {
    auto it = before.find(k);
    const std::uint64_t b = it == before.end() ? 0 : it->second;
    if (v > b) into[k] += v - b;
  }
}

/// The start and finish line of a timed phase, shared by the rank threads
/// of one trial. Ranks first align their modeled clocks with an MPI barrier
/// (outside the timed phase), then meet at a host barrier whose completion
/// step runs while every rank is parked between calls: it takes the layer
/// counters, starts or stops the host clock and, on a traced trial, arms the
/// tracer. Nothing on this line charges modeled time.
class Window {
 public:
  Window(Bed& bed, bool traced, Clock::time_point trial_start)
      : bed_(bed), traced_(traced), trial_start_(trial_start) {}

  void begin(const mpi::Comm& world) {
    world.barrier();
    barrier_.arrive_and_wait();
  }
  void end() { barrier_.arrive_and_wait(); }

  LayerTotals totals;
  double setup_host_s = 0.0;
  double timed_host_s = 0.0;

 private:
  void step() noexcept {
    if (!inside_) {
      if (!started_) {
        setup_host_s = seconds_since(trial_start_);
        started_ = true;
        // Armed once and left on: the tracer drops records made while it is
        // off, and the filers finish recording a reply span after the client
        // has already seen the reply. Outside the timed phases no operation
        // opens a root span, so nothing else gets traced.
        if (traced_) bed_.fabric.trace().set_enabled(true);
      }
      before_ = take_counters(bed_);
      bed_.fabric.histograms().reset();
      t_begin_ = Clock::now();
      inside_ = true;
      return;
    }
    timed_host_s += seconds_since(t_begin_);
    const Counters after = take_counters(bed_);
    add_delta(totals.stats, after.stats, before_.stats);
    add_delta(totals.store_stats, after.store, before_.store);
    totals.journal_bytes += after.journal - before_.journal;
    std::uint64_t pending = 0;
    for (auto& s : bed_.servers) pending += s->store().journal_pending_bytes();
    totals.journal_pending_bytes = std::max(totals.journal_pending_bytes, pending);
    ServerTotals& st = totals.server;
    st.ops += after.server.ops - before_.server.ops;
    st.queue_wait_ns += after.server.queue_wait_ns - before_.server.queue_wait_ns;
    st.service_ns += after.server.service_ns - before_.server.service_ns;
    st.sheds += after.server.sheds - before_.server.sheds;
    totals.phase_link_bytes.push_back(
        std::max(after.server.bytes_in - before_.server.bytes_in,
                 after.server.bytes_out - before_.server.bytes_out));
    totals.server_busy += after.busy - before_.busy;
    for (const auto& [k, snap] : bed_.fabric.histograms().snapshot_all()) {
      merge_into(totals.hists[k], snap);
    }
    inside_ = false;
  }

  struct Step {
    Window* w;
    void operator()() noexcept { w->step(); }
  };

  Bed& bed_;
  bool traced_;
  Clock::time_point trial_start_;
  bool started_ = false;
  bool inside_ = false;
  Clock::time_point t_begin_;
  Counters before_;
  std::barrier<Step> barrier_{kRanks, Step{this}};
};

inline constexpr int kMaxPhases = 3;

/// What one rank thread records.
struct RankCtx {
  TimedDriver* driver = nullptr;  // null when run without the decorator
  CallTable calls;
  std::vector<sim::Time> wlat;
  std::vector<sim::Time> rlat;
  std::uint64_t wops = 0, rops = 0, other_ops = 0;
  std::uint64_t wbytes = 0, rbytes = 0;
  std::array<sim::Time, kMaxPhases> phase{};
  sim::Time first_t0 = 0;
  bool started = false;
  std::uint64_t file_calls = 0;
  sim::Time file_time = 0;
  std::uint64_t attempted = 0, failed = 0;
  std::string verify_error;
  sim::BusyBreakdown busy;

  void fail_verify(std::string what) {
    if (verify_error.empty()) verify_error = std::move(what);
  }
};

struct Shared {
  const TrialSpec& spec;
  Bed& bed;
  mpi::World& world;
  Window& window;
  std::array<RankCtx, kRanks> ranks;
  /// Host-only barrier between collective calls (see strided_coll).
  std::barrier<> lockstep{kRanks};
};

/// One rank's side of a timed phase: everything from construction to stop()
/// is this rank's own phase time and CPU.
class PhaseClock {
 public:
  PhaseClock(Shared& sh, const mpi::Comm& world, RankCtx& r, int idx)
      : sh_(sh), r_(r), idx_(idx), actor_(&world.actor()) {
    sh_.window.begin(world);
    if (r_.driver != nullptr) r_.driver->arm(&r_.calls);
    t0_ = actor_->now();
    busy0_ = actor_->busy();
    if (!r_.started) {
      r_.first_t0 = t0_;
      r_.started = true;
    }
  }
  void stop() {
    r_.phase[static_cast<std::size_t>(idx_)] += actor_->now() - t0_;
    r_.busy += actor_->busy() - busy0_;
    if (r_.driver != nullptr) r_.driver->arm(nullptr);
    sh_.window.end();
  }

 private:
  Shared& sh_;
  RankCtx& r_;
  int idx_;
  sim::Actor* actor_;
  sim::Time t0_ = 0;
  sim::BusyBreakdown busy0_;
};

std::unique_ptr<mpiio::AdioDriver> make_driver(Shared& sh, dafs::Client& client,
                                               RankCtx& r) {
  auto inner = mpiio::dafs_driver(client);
  if (!sh.spec.decorator) return inner;
  auto timed = std::make_unique<TimedDriver>(std::move(inner),
                                             sh.bed.fabric.trace());
  r.driver = timed.get();
  return timed;
}

/// Time one mpiio::File call on this rank's clock.
template <typename F>
sim::Time file_call(RankCtx& r, F&& f, bool* ok) {
  const sim::Time t0 = actor_now();
  auto res = f();
  const sim::Time d = actor_now() - t0;
  ++r.file_calls;
  r.file_time += d;
  ++r.attempted;
  *ok = res.ok();
  if (!*ok) ++r.failed;
  return d;
}

// ---------------------------------------------------------------------------
// ior_stream: IOR segmented shared file over a 2-filer striped mount
// ---------------------------------------------------------------------------

constexpr std::uint64_t kIorBlock = 4u << 20;  // per rank per segment
constexpr std::uint64_t kIorXfer = 1u << 20;
constexpr std::uint64_t kIorSegments = 4;      // per trial at scale 1
constexpr std::uint64_t kIorStripe = 256 * 1024;

void ior_stream(Shared& sh, const mpi::Comm& c, RankCtx& r) {
  via::Nic nic(sh.bed.fabric, sh.world.node_of(c.rank()), "cli");
  auto client = require(
      dafs::Client::connect(nic, dafs::striped_mount(sh.bed.services, kIorStripe)),
      "mount");
  auto f = require(mpiio::File::open(c, "/ior.dat",
                                     mpiio::kModeCreate | mpiio::kModeRdwr,
                                     mpiio::Info{}, make_driver(sh, *client, r)),
                   "open");
  const std::uint64_t segs = scaled(kIorSegments, sh.spec.scale);
  const std::uint64_t per_block = kIorBlock / kIorXfer;
  const std::uint64_t np = static_cast<std::uint64_t>(c.size());
  const std::uint64_t key = mix(sh.spec.seed);
  auto off_of = [&](std::uint64_t s, std::uint64_t k) {
    return s * np * kIorBlock + static_cast<std::uint64_t>(c.rank()) * kIorBlock +
           k * kIorXfer;
  };
  std::vector<std::byte> buf(kIorXfer);
  const auto byte = Datatype::byte();

  // Warm-up: one transfer each way (registration cache, subfiles).
  fill_pattern(buf.data(), buf.size(), key, off_of(0, 0));
  require(f->write_at(off_of(0, 0), buf.data(), kIorXfer, byte), "warm-up write");
  require(f->read_at(off_of(0, 0), buf.data(), kIorXfer, byte), "warm-up read");

  PhaseClock wp(sh, c, r, 0);
  for (std::uint64_t s = 0; s < segs; ++s) {
    for (std::uint64_t k = 0; k < per_block; ++k) {
      fill_pattern(buf.data(), buf.size(), key, off_of(s, k));
      bool ok = false;
      r.wlat.push_back(file_call(r, [&] {
        return f->write_at(off_of(s, k), buf.data(), kIorXfer, byte);
      }, &ok));
      ++r.wops;
      if (ok) r.wbytes += kIorXfer;
    }
  }
  wp.stop();

  PhaseClock rp(sh, c, r, 1);
  for (std::uint64_t s = 0; s < segs; ++s) {
    for (std::uint64_t k = 0; k < per_block; ++k) {
      std::fill(buf.begin(), buf.end(), std::byte{0});
      bool ok = false;
      r.rlat.push_back(file_call(r, [&] {
        return f->read_at(off_of(s, k), buf.data(), kIorXfer, byte);
      }, &ok));
      ++r.rops;
      if (ok) r.rbytes += kIorXfer;
      if (!check_pattern(buf.data(), buf.size(), key, off_of(s, k))) {
        r.fail_verify("ior_stream: read-back mismatch at offset " +
                      std::to_string(off_of(s, k)));
      }
    }
  }
  rp.stop();
  require_ok(f->close(), "close");
}

// ---------------------------------------------------------------------------
// strided_coll: block-cyclic subarray view, two-phase collective I/O
// ---------------------------------------------------------------------------

constexpr std::uint32_t kStridedBlock = 4096;
constexpr std::uint64_t kStridedTiles = 64;   // blocks per rank per call
constexpr std::uint64_t kStridedCalls = 128;  // per phase per trial at scale 1
constexpr std::uint64_t kStridedRegions = 16; // file regions the calls rotate over

void strided_coll(Shared& sh, const mpi::Comm& c, RankCtx& r) {
  via::Nic nic(sh.bed.fabric, sh.world.node_of(c.rank()), "cli");
  auto client = require(
      dafs::Client::connect(nic, dafs::single_mount(sh.bed.services[0])), "mount");
  auto f = require(mpiio::File::open(c, "/strided.dat",
                                     mpiio::kModeCreate | mpiio::kModeRdwr,
                                     mpiio::Info{}, make_driver(sh, *client, r)),
                   "open");
  const auto np = static_cast<std::uint32_t>(c.size());
  const std::array<std::uint32_t, 1> sizes = {kStridedBlock * np};
  const std::array<std::uint32_t, 1> subsizes = {kStridedBlock};
  const std::array<std::uint32_t, 1> starts = {
      static_cast<std::uint32_t>(c.rank()) * kStridedBlock};
  require_ok(f->set_view(0, Datatype::byte(),
                         Datatype::subarray(sizes, subsizes, starts,
                                            Datatype::byte())),
             "set_view");

  const std::uint64_t mine = kStridedTiles * kStridedBlock;  // per rank per call
  const std::uint64_t region = mine * np;                    // file bytes per call
  const std::uint64_t calls = scaled(kStridedCalls, sh.spec.scale);
  auto key_of = [&](std::uint64_t call) { return mix(sh.spec.seed ^ (call << 20)); };
  // Fill (or check) this rank's blocks of call `call`'s region under `key`.
  auto blocks = [&](std::byte* p, std::uint64_t call, std::uint64_t key,
                    bool check) {
    const std::uint64_t base = (call % kStridedRegions) * region;
    for (std::uint64_t b = 0; b < kStridedTiles; ++b) {
      const std::uint64_t off = base + b * kStridedBlock * np +
                                static_cast<std::uint64_t>(c.rank()) * kStridedBlock;
      std::byte* q = p + b * kStridedBlock;
      if (!check) {
        fill_pattern(q, kStridedBlock, key, off);
      } else if (!check_pattern(q, kStridedBlock, key, off)) {
        return false;
      }
    }
    return true;
  };
  auto view_off = [&](std::uint64_t call) { return (call % kStridedRegions) * mine; };
  std::vector<std::byte> buf(mine);
  const auto byte = Datatype::byte();

  // Warm-up collective each way on region 0 (overwritten below).
  blocks(buf.data(), 0, key_of(~0ull), false);
  require(f->write_at_all(view_off(0), buf.data(), mine, byte), "warm-up write");
  require(f->read_at_all(view_off(0), buf.data(), mine, byte), "warm-up read");

  // Every rank finishes call k on the host before any starts call k+1. The
  // simulator grants resources in host call order and a rank's clock jumps to
  // any message it reaps, so a rank racing ahead into the next collective
  // inflates its peers' modeled time by an amount that follows thread timing
  // (up to 27% here). The barrier charges no modeled time.
  PhaseClock wp(sh, c, r, 0);
  for (std::uint64_t k = 0; k < calls; ++k) {
    blocks(buf.data(), k, key_of(k), false);
    bool ok = false;
    r.wlat.push_back(file_call(r, [&] {
      return f->write_at_all(view_off(k), buf.data(), mine, byte);
    }, &ok));
    ++r.wops;
    if (ok) r.wbytes += mine;
    sh.lockstep.arrive_and_wait();
  }
  wp.stop();

  PhaseClock rp(sh, c, r, 1);
  for (std::uint64_t k = 0; k < calls; ++k) {
    std::fill(buf.begin(), buf.end(), std::byte{0});
    bool ok = false;
    r.rlat.push_back(file_call(r, [&] {
      return f->read_at_all(view_off(k), buf.data(), mine, byte);
    }, &ok));
    ++r.rops;
    if (ok) r.rbytes += mine;
    sh.lockstep.arrive_and_wait();
    // The region's last writer decides its content.
    std::uint64_t last = k;
    while (last + kStridedRegions < calls) last += kStridedRegions;
    if (!blocks(buf.data(), k, key_of(last), true)) {
      r.fail_verify("strided_coll: read-back mismatch in call " +
                    std::to_string(k));
    }
  }
  rp.stop();
  require_ok(f->close(), "close");
}

// ---------------------------------------------------------------------------
// small_rw: file per process, random small reads and writes
// ---------------------------------------------------------------------------

constexpr std::uint64_t kSmallFile = 16u << 20;  // preloaded per rank
constexpr std::uint64_t kSmallOps = 3000;        // per rank per trial at scale 1
constexpr std::uint64_t kSmallInline = 2048;     // below direct_threshold
constexpr std::uint64_t kSmallDirect = 16384;    // at or above it

void small_rw(Shared& sh, const mpi::Comm& c, RankCtx& r) {
  via::Nic nic(sh.bed.fabric, sh.world.node_of(c.rank()), "cli");
  auto client = require(
      dafs::Client::connect(nic, dafs::single_mount(sh.bed.services[0])), "mount");
  const mpi::Comm self = c.split(c.rank(), 0);
  auto f = require(mpiio::File::open(self, "/small." + std::to_string(c.rank()),
                                     mpiio::kModeCreate | mpiio::kModeRdwr,
                                     mpiio::Info{}, make_driver(sh, *client, r)),
                   "open");
  const auto byte = Datatype::byte();
  const std::uint64_t seed = mix(sh.spec.seed ^ (std::uint64_t(c.rank()) << 40));
  // The file's expected content, updated by every write.
  std::vector<std::byte> shadow(kSmallFile);
  fill_pattern(shadow.data(), shadow.size(), seed, 0);
  for (std::uint64_t off = 0; off < kSmallFile; off += 1u << 20) {
    require(f->write_at(off, shadow.data() + off, 1u << 20, byte), "preload");
  }

  std::vector<std::byte> buf(kSmallDirect);
  sim::Rng rng(seed);
  std::uint64_t op_index = 0;
  auto one_op = [&](bool timed) {
    const bool is_read = rng.below(10) < 7;
    const std::uint64_t len = rng.below(2) == 0 ? kSmallInline : kSmallDirect;
    const std::uint64_t off = rng.below(kSmallFile / len) * len;
    bool ok = false;
    sim::Time d = 0;
    if (is_read) {
      std::fill(buf.begin(), buf.end(), std::byte{0});
      d = file_call(r, [&] { return f->read_at(off, buf.data(), len, byte); }, &ok);
      if (std::memcmp(buf.data(), shadow.data() + off, len) != 0) {
        r.fail_verify("small_rw: read-back mismatch at offset " +
                      std::to_string(off));
      }
    } else {
      fill_pattern(buf.data(), len, mix(seed ^ ++op_index), off);
      std::memcpy(shadow.data() + off, buf.data(), len);
      d = file_call(r, [&] { return f->write_at(off, buf.data(), len, byte); }, &ok);
    }
    if (!timed) return;
    (is_read ? r.rlat : r.wlat).push_back(d);
    ++(is_read ? r.rops : r.wops);
    if (ok) (is_read ? r.rbytes : r.wbytes) += len;
  };

  // Warm-up: a few of each size and direction (not counted).
  for (int i = 0; i < 32; ++i) one_op(false);
  r.attempted = r.failed = r.file_calls = 0;
  r.file_time = 0;

  const std::uint64_t ops = scaled(kSmallOps, sh.spec.scale);
  PhaseClock mp(sh, c, r, 0);
  for (std::uint64_t i = 0; i < ops; ++i) one_op(true);
  mp.stop();
  require_ok(f->close(), "close");
}

// ---------------------------------------------------------------------------
// mdtest: private directory per client, create / stat / unlink
// ---------------------------------------------------------------------------

constexpr std::uint64_t kMdFiles = 2500;  // per client per trial at scale 1
constexpr std::uint64_t kMdWarmup = 16;

void mdtest(Shared& sh, const mpi::Comm& c, RankCtx& r) {
  via::Nic nic(sh.bed.fabric, sh.world.node_of(c.rank()), "cli");
  auto client = require(
      dafs::Client::connect(nic, dafs::single_mount(sh.bed.services[0])), "mount");
  sim::Tracer& tracer = sh.bed.fabric.trace();
  const std::string dir = "/mdtest." + std::to_string(c.rank());
  require_ok(client->mkdir(dir), "mkdir");
  const std::uint64_t seed = mix(sh.spec.seed ^ (std::uint64_t(c.rank()) << 40));
  const std::uint64_t n = scaled(kMdFiles, sh.spec.scale);
  auto name_of = [&](std::uint64_t i) {
    char b[40];
    std::snprintf(b, sizeof(b), "/f%016llx",
                  static_cast<unsigned long long>(mix(seed ^ i)));
    return dir + b;
  };

  // Client calls are timed straight into the rank's table (no ADIO layer).
  CallTable* table = nullptr;
  auto timed = [&](Method m, auto&& fn) {
    CallTimer t(table, tracer, m, nullptr);
    return t.done(fn());
  };
  std::vector<fstore::Ino> inos(n + kMdWarmup, fstore::kInvalidIno);
  auto count = [&](bool ok) {
    ++r.attempted;
    if (!ok) ++r.failed;
  };
  auto do_create = [&](std::uint64_t i) {
    sim::SpanScope root(tracer, "bench", "create", /*make_root=*/true);
    auto fh = timed(Method::kOpen, [&] {
      return client->open(name_of(i), dafs::kOpenCreate | dafs::kOpenExcl);
    });
    count(fh.ok());
    if (!fh.ok()) return;
    inos[i] = fh.value().ino;
    timed(Method::kClose, [&] { return client->close(fh.value()); });
  };
  auto do_stat = [&](std::uint64_t i) {
    sim::SpanScope root(tracer, "bench", "stat", /*make_root=*/true);
    auto fh = timed(Method::kOpen, [&] { return client->open(name_of(i), 0); });
    count(fh.ok());
    if (!fh.ok()) return;
    auto a = timed(Method::kGetattr, [&] { return client->getattr(fh.value()); });
    if (!a.ok()) {
      ++r.failed;
    } else if (a.value().ino != inos[i] || fh.value().ino != inos[i] ||
               a.value().is_dir) {
      r.fail_verify("mdtest: stat of " + name_of(i) + " returned another inode");
    }
    timed(Method::kClose, [&] { return client->close(fh.value()); });
  };
  auto do_unlink = [&](std::uint64_t i) {
    sim::SpanScope root(tracer, "bench", "unlink", /*make_root=*/true);
    count(timed(Method::kRemove, [&] { return client->remove(name_of(i)); }) ==
          dafs::PStatus::kOk);
  };
  auto timed_op = [&](auto&& op, std::uint64_t i, std::vector<sim::Time>* lat) {
    const sim::Time t0 = actor_now();
    op(i);
    if (lat != nullptr) lat->push_back(actor_now() - t0);
  };

  for (std::uint64_t i = n; i < n + kMdWarmup; ++i) do_create(i);
  for (std::uint64_t i = n; i < n + kMdWarmup; ++i) do_stat(i);
  for (std::uint64_t i = n; i < n + kMdWarmup; ++i) do_unlink(i);
  r.attempted = r.failed = 0;

  // Stats run in a seeded random order (mdtest -R), so the seed decides the
  // order of requests and not only the file names.
  std::vector<std::uint64_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  sim::Rng rng(seed);
  for (std::uint64_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);

  table = &r.calls;
  PhaseClock cp(sh, c, r, 0);
  for (std::uint64_t i = 0; i < n; ++i) timed_op(do_create, i, &r.wlat);
  cp.stop();
  r.wops = n;

  PhaseClock sp(sh, c, r, 1);
  for (std::uint64_t i : order) timed_op(do_stat, i, &r.rlat);
  sp.stop();
  r.rops = n;

  PhaseClock up(sh, c, r, 2);
  for (std::uint64_t i = 0; i < n; ++i) timed_op(do_unlink, i, nullptr);
  up.stop();
  r.other_ops = n;
  table = nullptr;

  auto left = require(client->readdir(dir), "readdir");
  if (!left.empty()) {
    r.fail_verify("mdtest: " + std::to_string(left.size()) + " entries left in " +
                  dir + " after unlink");
  }
  require_ok(client->rmdir(dir), "rmdir");
}

// ---------------------------------------------------------------------------
// Trial driver
// ---------------------------------------------------------------------------

struct Shape {
  void (*body)(Shared&, const mpi::Comm&, RankCtx&);
  int servers;
  int workers;         // 0 = library default
  int write_phase;     // phase index of each latency class
  int read_phase;
  int phases;
  bool collective;     // one latency sample per call: the slowest rank
  double trace_scale;  // op-count multiplier of a traced trial
};

// Traced trials of the op-heavy workloads run a tenth of the op count to keep
// span dumps to a few MB; the bandwidth workloads issue few calls per trial,
// and a tenth of a trial would measure little beyond its start-up.
const std::map<std::string, Shape>& shapes() {
  static const std::map<std::string, Shape> m = {
      // 2 workers per filer: with 1, read bandwidth wandered between runs.
      {"ior_stream", {ior_stream, 2, 2, 0, 1, 2, false, 1.0}},
      // One worker per rank, as in E17. With one, the worker serves the four
      // aggregators' requests in host arrival order and its clock charges
      // later ones for waits that follow thread timing, not the model: the
      // same seed measured 263, 284 and 327 write calls/s.
      {"strided_coll", {strided_coll, 1, kRanks, 0, 1, 2, true, 1.0}},
      {"small_rw", {small_rw, 1, 0, 0, 0, 1, false, 0.1}},
      {"mdtest", {mdtest, 1, 0, 0, 1, 3, false, 0.1}},
  };
  return m;
}

}  // namespace

bool known_workload(const std::string& workload) {
  return shapes().count(workload) != 0;
}

double trace_scale(const std::string& workload) {
  return shapes().at(workload).trace_scale;
}

TrialResult run_trial(const std::string& workload, const TrialSpec& spec) {
  const Shape& shape = shapes().at(workload);
  const auto trial_start = Clock::now();
  Bed bed(shape.servers, shape.workers, spec.traced);
  Window window(bed, spec.traced, trial_start);
  mpi::WorldConfig wc;
  wc.nprocs = kRanks;
  wc.fabric = &bed.fabric;
  mpi::World world(wc);
  Shared sh{spec, bed, world, window, {}};
  world.run([&](mpi::Comm& c) {
    shape.body(sh, c, sh.ranks[static_cast<std::size_t>(c.rank())]);
  });
  bed.stop();

  TrialResult out;
  out.setup_host_s = window.setup_host_s;
  out.timed_host_s = window.timed_host_s;
  out.layers = std::move(window.totals);
  for (auto& s : bed.servers) out.layers.server_workers += s->config().workers;

  auto phase_max = [&](int p) {
    sim::Time m = 0;
    for (const RankCtx& r : sh.ranks) m = std::max(m, r.phase[static_cast<std::size_t>(p)]);
    return m;
  };
  for (int p = 0; p < shape.phases; ++p) out.elapsed += phase_max(p);
  // Filer links in the busiest phase: bytes on the fuller direction over
  // what the filers' links carry in that phase's time.
  const double link_bytes_per_ns = sim::CostModel{}.link_mbps * 1e-3;
  for (std::size_t p = 0; p < out.layers.phase_link_bytes.size(); ++p) {
    const double cap = link_bytes_per_ns * shape.servers *
                       static_cast<double>(phase_max(static_cast<int>(p)));
    if (cap > 0) {
      out.link_util = std::max(
          out.link_util,
          static_cast<double>(out.layers.phase_link_bytes[p]) / cap);
    }
  }
  out.write.elapsed = phase_max(shape.write_phase);
  out.read.elapsed = phase_max(shape.read_phase);

  for (const RankCtx& r : sh.ranks) {
    for (int p = 0; p < shape.phases; ++p) out.rank_time += r.phase[static_cast<std::size_t>(p)];
    out.setup_model = std::max(out.setup_model, r.first_t0);
    out.write.ops += r.wops;
    out.read.ops += r.rops;
    out.write.bytes += r.wbytes;
    out.read.bytes += r.rbytes;
    out.ops += r.wops + r.rops + r.other_ops;
    out.client_busy += r.busy;
    out.attempted += r.attempted;
    out.failed += r.failed;
    out.file_calls += r.file_calls;
    out.file_time += r.file_time;
    for (std::size_t m = 0; m < kMethods; ++m) out.calls[m].merge(r.calls[m]);
    if (out.verify_error.empty()) out.verify_error = r.verify_error;
  }
  auto latencies = [&](std::vector<sim::Time> RankCtx::*field) {
    std::vector<sim::Time> lat;
    if (!shape.collective) {
      for (const RankCtx& r : sh.ranks) {
        lat.insert(lat.end(), (r.*field).begin(), (r.*field).end());
      }
      return lat;
    }
    lat = sh.ranks[0].*field;
    for (const RankCtx& r : sh.ranks) {
      for (std::size_t i = 0; i < lat.size() && i < (r.*field).size(); ++i) {
        lat[i] = std::max(lat[i], (r.*field)[i]);
      }
    }
    return lat;
  };
  out.write.lat = latencies(&RankCtx::wlat);
  out.read.lat = latencies(&RankCtx::rlat);

  if (spec.traced) {
    sim::Tracer& tr = bed.fabric.trace();
    out.spans_recorded = tr.spans_recorded();
    out.spans_evicted = tr.spans_evicted();
    if (!spec.dump_path.empty() && !tr.dump_json(spec.dump_path)) {
      std::fprintf(stderr, "dafs_bench: cannot write %s\n", spec.dump_path.c_str());
      std::abort();
    }
  }
  return out;
}

}  // namespace bench
