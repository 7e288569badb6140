// E21 (client caching, beyond the paper): what a server-issued delegation
// buys small repeated I/O, swept through the typed MPI-IO hint set:
//   - off:         no dafs_cache_bytes hint — every record op is a full
//                  client/filer round trip (the paper-era DAFS fast path).
//   - after_write: write-through with delegated read caching — writes still
//                  pay the wire, repeated reads are local.
//   - after_close: write-back — dirty records buffer client-side and flush
//                  as batched extents at close/sync/recall; repeated reads
//                  and rewrites are both local.
//   - after_job:   after_close plus a delegation (and cache) that survives
//                  close, for open/close-heavy jobs.
// The headline is per-op latency of the repeated passes relative to "off";
// the after_close row is the acceptance bar (>= 5x lower per-op latency).
//
// A second client then stages the episode the lease machinery exists for: a
// conflicting open against a holder with buffered dirty bytes. The server
// starts a recall, sheds the intruder kBusy, and the holder's next renewal
// poll flushes the dirty extents and returns the delegation — leaving the
// dafs.deleg.recall span in a traced run (tier1.sh validates it via
// scripts/check_trace.py --require-span) and the dafs.cache.* counters in
// the unified metrics JSON (scripts/check_metrics.py).
#include <cstring>
#include <string>

#include "bench/common.hpp"
#include "mpiio/ad_dafs.hpp"
#include "mpiio/file.hpp"
#include "mpiio/info.hpp"

using namespace bench;

namespace {

constexpr std::size_t kRecord = 2 * 1024;
constexpr int kRecords = 32;
constexpr int kPasses = 8;
constexpr std::uint64_t kSeed = 21;

struct RunResult {
  std::uint64_t read_ns_per_op = 0;
  std::uint64_t write_ns_per_op = 0;
  std::uint64_t total_ns = 0;
};

/// One consistency level end to end through the MPI-IO hint path: populate
/// kRecords x kRecord, then kPasses of read-modify-write over every record.
/// Only the repeated passes are timed — the population pass is cold for
/// every mode.
RunResult run_level(const char* level) {
  sim::Fabric fabric;
  const auto server_node = fabric.add_node("filer");
  dafs::Server server(fabric, server_node, {});
  server.start();

  mpiio::Info info;
  if (level != nullptr) {
    info.set("dafs_consistency", level);
    info.set("dafs_cache_bytes", std::uint64_t{1} << 20);
  }
  const dafs::MountSpec mspec = mpiio::HintSet::parse(info).mount_spec();

  mpi::WorldConfig wcfg;
  wcfg.nprocs = 1;
  wcfg.fabric = &fabric;
  mpi::World world(wcfg);

  RunResult out;
  const auto data = make_data(static_cast<std::size_t>(kRecords) * kRecord,
                              kSeed);
  world.run([&](mpi::Comm& c) {
    via::Nic nic(fabric, world.node_of(c.rank()), "cli");
    auto client = std::move(dafs::Client::connect(nic, mspec).value());
    auto f = std::move(mpiio::File::open(c, "/e21",
                                         mpiio::kModeCreate | mpiio::kModeRdwr,
                                         info, mpiio::dafs_driver(*client))
                           .value());
    for (int i = 0; i < kRecords; ++i) {
      const std::uint64_t off = static_cast<std::uint64_t>(i) * kRecord;
      const auto w = f->write_at(off, data.data() + off, kRecord,
                                 mpi::Datatype::byte());
      if (!w.ok() || w.value() != kRecord) {
        std::fprintf(stderr, "bench: populate record %d failed\n", i);
        std::abort();
      }
    }
    require_ok(f->sync(), "populate sync");

    std::vector<std::byte> rec(kRecord);
    std::uint64_t read_ns = 0;
    std::uint64_t write_ns = 0;
    for (int pass = 0; pass < kPasses; ++pass) {
      for (int i = 0; i < kRecords; ++i) {
        const std::uint64_t off = static_cast<std::uint64_t>(i) * kRecord;
        const sim::Time r0 = c.actor().now();
        const auto r = f->read_at(off, rec.data(), kRecord,
                                  mpi::Datatype::byte());
        read_ns += c.actor().now() - r0;
        if (!r.ok() || r.value() != kRecord ||
            std::memcmp(rec.data(), data.data() + off, kRecord) != 0) {
          std::fprintf(stderr, "bench: pass %d record %d read wrong\n", pass,
                       i);
          std::abort();
        }
        const sim::Time w0 = c.actor().now();
        const auto w = f->write_at(off, data.data() + off, kRecord,
                                   mpi::Datatype::byte());
        write_ns += c.actor().now() - w0;
        if (!w.ok() || w.value() != kRecord) {
          std::fprintf(stderr, "bench: pass %d record %d rewrite failed\n",
                       pass, i);
          std::abort();
        }
      }
    }
    const std::uint64_t ops =
        static_cast<std::uint64_t>(kPasses) * kRecords;
    out.read_ns_per_op = read_ns / ops;
    out.write_ns_per_op = write_ns / ops;
    out.total_ns = read_ns + write_ns;
    require_ok(f->close(), "close");
  });
  server.stop();
  return out;
}

/// The recall episode: a holder with buffered dirty bytes, a conflicting
/// opener shed kBusy while the server recalls, the holder's renewal poll
/// flushing and returning the delegation. Run last so a traced invocation's
/// dump carries the dafs.deleg.recall span, and emit the unified metrics
/// JSON from this fabric (grants, recalls, write-back bytes, the recall
/// latency histogram).
void run_recall() {
  sim::Fabric fabric;
  const auto server_node = fabric.add_node("filer");
  const auto node_a = fabric.add_node("holder");
  const auto node_b = fabric.add_node("reader");
  dafs::ServerConfig scfg;
  scfg.grace_period_ms = 0;
  dafs::Server server(fabric, server_node, scfg);
  via::Nic nic_a(fabric, node_a, "nic-a");
  via::Nic nic_b(fabric, node_b, "nic-b");
  sim::Actor actor_a("holder", &fabric.node(node_a));
  sim::Actor actor_b("reader", &fabric.node(node_b));
  server.start();
  const std::uint64_t term_ns = dafs::ServerConfig{}.deleg_term_ns;

  dafs::RetryPolicy retry;
  retry.backoff_ns = 10'000;
  retry.backoff_cap_ns = 500'000;
  dafs::RetryPolicy retry_b = retry;
  retry_b.max_busy_retries = 2;

  const auto dirty = make_data(8 * 1024, kSeed + 1);
  {
    sim::ActorScope scope_a(actor_a);
    auto holder = std::move(
        dafs::Client::connect(nic_a, dafs::single_mount("dafs", retry))
            .value());
    dafs::OpenOptions o;
    o.flags = dafs::kOpenCreate;
    o.consistency = dafs::Consistency::kAfterClose;
    o.cache_bytes = 1 << 20;
    auto fh = require(holder->open("/recall.dat", o), "holder open");
    if (!holder->has_delegation(fh)) {
      std::fprintf(stderr, "bench: sole opener got no delegation\n");
      std::abort();
    }
    if (!holder->pwrite(fh, 0, dirty).ok()) {
      std::fprintf(stderr, "bench: buffered write failed\n");
      std::abort();
    }

    {
      sim::ActorScope scope_b(actor_b);
      auto reader = std::move(
          dafs::Client::connect(nic_b, dafs::single_mount("dafs", retry_b))
              .value());
      auto bo = reader->open("/recall.dat");
      if (bo.ok()) {
        std::fprintf(stderr, "bench: conflicting open was not shed\n");
        std::abort();
      }

      // Holder notices the recall at its renewal poll: flushes the dirty
      // extents, returns the delegation.
      {
        sim::ActorScope scope_a2(actor_a);
        actor_a.advance(term_ns * 3 / 4 + term_ns / 8);
        std::vector<std::byte> mine(dirty.size());
        if (!holder->pread(fh, 0, mine).ok()) {
          std::fprintf(stderr, "bench: holder read failed\n");
          std::abort();
        }
      }

      // The intruder's retry goes through and sees the flushed bytes.
      auto bfh = require(reader->open("/recall.dat"), "reader re-open");
      std::vector<std::byte> back(dirty.size());
      const auto r = reader->pread(bfh, 0, back);
      if (!r.ok() || r.value() != dirty.size() || back != dirty) {
        std::fprintf(stderr, "bench: reader missed the write-back\n");
        std::abort();
      }
    }
    sim::ActorScope scope_a3(actor_a);
    require_ok(holder->close(fh), "holder close");
  }

  if (fabric.stats().get("dafs.cache.recalls") == 0 ||
      fabric.stats().get("dafs.cache.recalls_serviced") == 0 ||
      fabric.stats().get("dafs.cache.writeback_bytes") < dirty.size()) {
    std::fprintf(stderr, "bench: recall episode left no recall behind\n");
    std::abort();
  }
  emit_metrics_json(fabric, "e21_cache",
                    "{\"record\":2048,\"records\":32,\"passes\":8,"
                    "\"dirty_bytes\":8192,\"seed\":21}");
  server.stop();
}

std::string speedup(std::uint64_t base, std::uint64_t v) {
  if (v == 0) return "-";
  return fmt(static_cast<double>(base) / static_cast<double>(v)) + "x";
}

}  // namespace

int main() {
  std::printf(
      "E21 [client cache]: %d passes of read-modify-write over %d x %zu B "
      "records per consistency level (dafs_consistency/dafs_cache_bytes "
      "hints). off = no cache, every op a filer round trip; after_write = "
      "write-through + read caching; after_close/after_job = write-back "
      "under a server-issued delegation. Then a conflicting open stages a "
      "recall: holder flushes and returns, intruder reads the write-back.\n\n",
      kPasses, kRecords, kRecord);

  const RunResult off = run_level(nullptr);
  const RunResult aw = run_level("after_write");
  const RunResult ac = run_level("after_close");
  const RunResult aj = run_level("after_job");

  Table t({"mode", "read ns/op", "write ns/op", "speedup"});
  t.row({"off", std::to_string(off.read_ns_per_op),
         std::to_string(off.write_ns_per_op), "-"});
  t.row({"after_write", std::to_string(aw.read_ns_per_op),
         std::to_string(aw.write_ns_per_op),
         speedup(off.total_ns, aw.total_ns)});
  t.row({"after_close", std::to_string(ac.read_ns_per_op),
         std::to_string(ac.write_ns_per_op),
         speedup(off.total_ns, ac.total_ns)});
  t.row({"after_job", std::to_string(aj.read_ns_per_op),
         std::to_string(aj.write_ns_per_op),
         speedup(off.total_ns, aj.total_ns)});
  t.print();

  // Acceptance bar: write-back caching must be >= 5x lower per-op latency
  // than the uncached path on this workload.
  if (ac.total_ns * 5 > off.total_ns) {
    std::fprintf(stderr,
                 "bench: after_close per-op latency not >=5x lower than "
                 "cache-off (%llu vs %llu total ns)\n",
                 static_cast<unsigned long long>(ac.total_ns),
                 static_cast<unsigned long long>(off.total_ns));
    std::abort();
  }
  std::printf(
      "cache effect: after_close runs %s faster per op than the uncached "
      "path on small repeated I/O; the recall episode below left "
      "dafs.cache.* counters and a dafs.deleg.recall span behind.\n\n",
      speedup(off.total_ns, ac.total_ns).c_str());

  run_recall();
  return 0;
}
