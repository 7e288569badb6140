// E19 (integrity, beyond the paper): the price of end-to-end data integrity
// on the DAFS path, swept through the `dafs_integrity` MPI-IO hint:
//   - off:  the paper-era fast path — no payload CRC, no at-rest verify.
//   - wire: CRC-32C on every data payload (inline and direct), verified on
//           both sides of the transfer.
//   - full: wire + server-side at-rest verification on reads (the store
//           recomputes the block checksum before serving bytes).
// The background scrubber runs in every scenario, so the reported write/read
// bandwidths already include its steady-state interference. The headline is
// the modeled-bandwidth overhead of "wire" and "full" relative to "off".
//
// The "full" run then stages the failure the modes exist for: a seeded
// at-rest bit flip lands after a block's checksum was recorded, the
// verifying read demotes the block to MPI_ERR_IO instead of returning rotted
// bytes (a single filer has no replica to repair from), and an app-level
// rewrite heals it. A traced run (DAFS_TRACE=...) must record at least one
// completed scrubber pass: tier1.sh validates the scrub.pass span via
// scripts/check_trace.py --require-span.
#include <cstring>
#include <thread>

#include "bench/common.hpp"
#include "mpiio/ad_dafs.hpp"
#include "mpiio/file.hpp"
#include "mpiio/info.hpp"

using namespace bench;

namespace {

constexpr std::size_t kChunk = 64 * 1024;
constexpr int kChunks = 32;
constexpr std::uint64_t kSeed = 19;

struct RunResult {
  double write_mbps = 0;
  double read_mbps = 0;
  std::uint64_t write_ns = 0;
  std::uint64_t read_ns = 0;
};

/// One integrity mode end to end: stream kChunks x kChunk through MPI-IO,
/// sync, read it back, and (in "full" mode) stage the rot episode.
RunResult run_mode(const char* mode, bool stage_rot) {
  sim::Fabric fabric;
  const auto server_node = fabric.add_node("filer");
  dafs::ServerConfig scfg;
  scfg.scrub_enabled = true;
  scfg.scrub_interval_ms = 2;
  scfg.scrub_chunks_per_step = 256;
  dafs::Server server(fabric, server_node, scfg);
  server.start();

  mpiio::Info info;
  info.set("dafs_integrity", mode);
  // A permanently rotted block on a single filer must fail fast, not ride
  // the full busy budget.
  info.set("dafs_busy_retries", std::uint64_t{3});
  const dafs::MountSpec mspec = mpiio::HintSet::parse(info).mount_spec();

  mpi::WorldConfig wcfg;
  wcfg.nprocs = 1;
  wcfg.fabric = &fabric;
  mpi::World world(wcfg);

  RunResult out;
  const auto data = make_data(static_cast<std::size_t>(kChunks) * kChunk,
                              kSeed);
  world.run([&](mpi::Comm& c) {
    via::Nic nic(fabric, world.node_of(c.rank()), "cli");
    auto client = std::move(dafs::Client::connect(nic, mspec).value());
    auto f = std::move(mpiio::File::open(c, "/e19",
                                         mpiio::kModeCreate | mpiio::kModeRdwr,
                                         info, mpiio::dafs_driver(*client))
                           .value());
    const sim::Time w0 = c.actor().now();
    for (int i = 0; i < kChunks; ++i) {
      const std::uint64_t off = static_cast<std::uint64_t>(i) * kChunk;
      const auto r = f->write_at(off, data.data() + off, kChunk,
                                 mpi::Datatype::byte());
      if (!r.ok() || r.value() != kChunk) {
        std::fprintf(stderr, "bench: write chunk %d failed\n", i);
        std::abort();
      }
    }
    require_ok(f->sync(), "sync");
    out.write_ns = c.actor().now() - w0;

    std::vector<std::byte> back(data.size());
    const sim::Time r0 = c.actor().now();
    for (int i = 0; i < kChunks; ++i) {
      const std::size_t off = static_cast<std::size_t>(i) * kChunk;
      const auto r = f->read_at(off, back.data() + off, kChunk,
                                mpi::Datatype::byte());
      if (!r.ok() || r.value() != kChunk) {
        std::fprintf(stderr, "bench: read chunk %d failed\n", i);
        std::abort();
      }
    }
    out.read_ns = c.actor().now() - r0;
    if (std::memcmp(back.data(), data.data(), data.size()) != 0) {
      std::fprintf(stderr, "bench: read-back not byte-exact (%s)\n", mode);
      std::abort();
    }

    if (stage_rot) {
      // Silent at-rest rot: the flip lands after the rewrite's checksum was
      // recorded. The verifying read must demote the block to an I/O error —
      // never serve the rot — and an app-level rewrite heals it.
      fabric.faults().arm(kSeed * 977);
      fabric.faults().corrupt_fstore_block_after(0);
      const auto w = f->write_at(0, data.data(), kChunk,
                                 mpi::Datatype::byte());
      if (!w.ok() || w.value() != kChunk) {
        std::fprintf(stderr, "bench: rot-stage rewrite failed\n");
        std::abort();
      }
      require_ok(f->sync(), "rot-stage sync");
      fabric.faults().clear();
      const auto rot = f->read_at(0, back.data(), kChunk,
                                  mpi::Datatype::byte());
      if (rot.ok()) {
        std::fprintf(stderr,
                     "bench: verifying read served a rotted block\n");
        std::abort();
      }
      const auto heal = f->write_at(0, data.data(), kChunk,
                                    mpi::Datatype::byte());
      if (!heal.ok() || heal.value() != kChunk) {
        std::fprintf(stderr, "bench: healing rewrite failed\n");
        std::abort();
      }
      const auto again = f->read_at(0, back.data(), kChunk,
                                    mpi::Datatype::byte());
      if (!again.ok() || again.value() != kChunk ||
          std::memcmp(back.data(), data.data(), kChunk) != 0) {
        std::fprintf(stderr, "bench: block not byte-exact after heal\n");
        std::abort();
      }
    }
    require_ok(f->close(), "close");
  });

  // Let the scrubber finish at least one whole pass over the store so the
  // scrub gauges are meaningful — and, on a traced run, so the dump holds
  // the scrub.pass span tier1.sh asserts on.
  const std::uint64_t passes0 = server.scrub_passes();
  for (int spin = 0; spin < 15000 && server.scrub_passes() <= passes0;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (server.scrub_passes() <= passes0) {
    std::fprintf(stderr, "bench: scrubber never completed a pass\n");
    std::abort();
  }
  if (stage_rot) {
    if (fabric.stats().get("dafs.scrub_corruptions") == 0) {
      std::fprintf(stderr, "bench: scrubber never saw the rotted block\n");
      std::abort();
    }
    emit_metrics_json(fabric, "e19_integrity",
                      "{\"chunk\":65536,\"chunks\":32,\"mode\":\"full\","
                      "\"scrub_interval_ms\":2,\"seed\":19}");
  }
  server.stop();

  const std::uint64_t bytes = static_cast<std::uint64_t>(kChunks) * kChunk;
  out.write_mbps = mbps(bytes, out.write_ns);
  out.read_mbps = mbps(bytes, out.read_ns);
  return out;
}

std::string overhead(std::uint64_t ns, std::uint64_t base_ns) {
  if (base_ns == 0) return "-";
  return fmt(100.0 * (static_cast<double>(ns) - static_cast<double>(base_ns)) /
                 static_cast<double>(base_ns)) +
         "%";
}

}  // namespace

int main() {
  std::printf(
      "E19 [integrity]: %d x 64 KiB MPI-IO writes + read-back per integrity "
      "mode (dafs_integrity hint), background scrubber always on. off = no "
      "checks; wire = CRC-32C on every data payload; full = wire + at-rest "
      "verify on reads. The full run then stages a seeded at-rest bit flip: "
      "the verifying read must fail, never serve rot.\n\n",
      kChunks);

  const RunResult off = run_mode("off", false);
  const RunResult wire = run_mode("wire", false);
  const RunResult full = run_mode("full", true);

  Table t({"mode", "write MB/s", "read MB/s", "write ovh", "read ovh"});
  t.row({"off", fmt(off.write_mbps), fmt(off.read_mbps), "-", "-"});
  t.row({"wire", fmt(wire.write_mbps), fmt(wire.read_mbps),
         overhead(wire.write_ns, off.write_ns),
         overhead(wire.read_ns, off.read_ns)});
  t.row({"full", fmt(full.write_mbps), fmt(full.read_mbps),
         overhead(full.write_ns, off.write_ns),
         overhead(full.read_ns, off.read_ns)});
  t.print();
  std::printf(
      "verify cost: full-mode write %s / read %s slower than off; the flip "
      "staged in the full run surfaced as a read error, not silent bytes.\n",
      overhead(full.write_ns, off.write_ns).c_str(),
      overhead(full.read_ns, off.read_ns).c_str());
  return 0;
}
