// E7 (paper Fig. 6, reconstructed): access-strategy comparison for the
// classic ROMIO strided (block-cyclic) pattern, on both drivers:
//   - independent: one request per strided piece (the naive pattern)
//   - native:      one noncontiguous request (DAFS -> batched direct list
//                  I/O; NFS -> data sieving for reads, per-piece writes)
//   - two-phase:   collective buffering via aggregators
// Expected shape: on NFS, two-phase rescues the pattern (orders of
// magnitude over naive); on DAFS, batched list-I/O already recovers most of
// the loss in ONE request, so two-phase's extra redistribution hop only
// pays off as piece size shrinks — exactly the trade-off an MPI-IO-on-DAFS
// implementation paper highlights.
#include <array>
#include <atomic>

#include "bench/common.hpp"
#include "mpiio/ad_dafs.hpp"
#include "mpiio/ad_nfs.hpp"
#include "mpiio/file.hpp"

using namespace bench;

namespace {

constexpr std::uint32_t kBlock = 1024;  // per-rank block in each tile
constexpr int kTiles = 64;

enum class Mode { kIndependent, kNative, kCollective };

double run(bool use_dafs, int np, Mode mode, bool writing) {
  sim::Fabric fabric;
  dafs::Server dserver(fabric, fabric.add_node("filer"));
  nfs::Server nserver(fabric, fabric.add_node("nfs-server"));
  dserver.start();
  nserver.start();
  mpi::WorldConfig cfg;
  cfg.nprocs = np;
  cfg.fabric = &fabric;
  mpi::World world(cfg);

  std::atomic<std::uint64_t> elapsed{0};
  world.run([&](mpi::Comm& c) {
    std::unique_ptr<via::Nic> nic;
    std::unique_ptr<dafs::Client> mount;
    std::unique_ptr<nfs::Client> client;
    auto make_driver = [&]() -> std::unique_ptr<mpiio::AdioDriver> {
      if (use_dafs) {
        if (!nic) {
          nic = std::make_unique<via::Nic>(fabric, world.node_of(c.rank()),
                                           "cli");
          mount = std::move(dafs::Client::connect(*nic).value());
        }
        return mpiio::dafs_driver(*mount);
      }
      if (!client) {
        client = std::move(
            nfs::Client::connect(fabric, world.node_of(c.rank())).value());
      }
      return mpiio::nfs_driver(*client);
    };

    auto f = std::move(mpiio::File::open(c, "/strided.dat",
                                         mpiio::kModeCreate | mpiio::kModeRdwr,
                                         mpiio::Info{}, make_driver())
                           .value());
    // Block-cyclic view: rank r owns block r of each np-block tile.
    const std::array<std::uint32_t, 1> sizes = {
        kBlock * static_cast<std::uint32_t>(np)};
    const std::array<std::uint32_t, 1> subsizes = {kBlock};
    const std::array<std::uint32_t, 1> starts = {
        static_cast<std::uint32_t>(c.rank()) * kBlock};
    auto ft =
        mpi::Datatype::subarray(sizes, subsizes, starts, mpi::Datatype::byte());
    bench::require_ok(f->set_view(0, mpi::Datatype::byte(), ft), "set_view");

    auto data = make_data(kBlock * kTiles, 10 + c.rank());
    bench::require(f->write_at_all(0, data.data(), data.size(), mpi::Datatype::byte()),
        "write_at_all");
    c.barrier();

    const sim::Time t0 = c.actor().now();
    std::vector<std::byte> back(data.size());
    switch (mode) {
      case Mode::kIndependent:
        for (int tile = 0; tile < kTiles; ++tile) {
          const std::uint64_t off = static_cast<std::uint64_t>(tile) * kBlock;
          if (writing) {
            bench::require(
                f->write_at(off, data.data() + tile * kBlock, kBlock,
                        mpi::Datatype::byte()),
                "write_at");
          } else {
            bench::require(
                f->read_at(off, back.data() + tile * kBlock, kBlock,
                       mpi::Datatype::byte()),
                "read_at");
          }
        }
        break;
      case Mode::kNative:
        if (writing) {
          bench::require(f->write_at(0, data.data(), data.size(), mpi::Datatype::byte()),
              "write_at");
        } else {
          bench::require(f->read_at(0, back.data(), back.size(), mpi::Datatype::byte()),
              "read_at");
        }
        break;
      case Mode::kCollective:
        if (writing) {
          bench::require(f->write_at_all(0, data.data(), data.size(), mpi::Datatype::byte()),
              "write_at_all");
        } else {
          bench::require(f->read_at_all(0, back.data(), back.size(), mpi::Datatype::byte()),
              "read_at_all");
        }
        break;
    }
    std::uint64_t dt = c.actor().now() - t0;
    std::vector<std::uint64_t> mv = {dt};
    c.allreduce(std::span<std::uint64_t>(mv), mpi::Op::kMax);
    if (c.rank() == 0) elapsed.store(mv[0]);
    bench::require_ok(f->close(), "close");
  });
  emit_metrics_json(
      fabric, "e7_collective",
      std::string("{\"driver\":\"") + (use_dafs ? "dafs" : "nfs") +
          "\",\"np\":" + std::to_string(np) + ",\"mode\":\"" +
          (mode == Mode::kIndependent
               ? "independent"
               : mode == Mode::kNative ? "native" : "two_phase") +
          "\",\"op\":\"" + (writing ? "write" : "read") + "\"}");
  return mbps(static_cast<std::uint64_t>(np) * kBlock * kTiles,
              elapsed.load());
}

}  // namespace

int main() {
  std::printf(
      "E7 [reconstructed Fig.6]: strided access strategies, both drivers\n"
      "(block-cyclic, %u B blocks, %d tiles, aggregate MB/s)\n\n",
      kBlock, kTiles);
  for (bool writing : {false, true}) {
    std::printf("%s:\n", writing ? "WRITE" : "READ");
    Table t({"np", "nfs indep", "nfs native", "nfs 2-phase", "dafs indep",
             "dafs list-io", "dafs 2-phase"});
    for (int np : {2, 4, 8}) {
      t.row({std::to_string(np), fmt(run(false, np, Mode::kIndependent, writing)),
             fmt(run(false, np, Mode::kNative, writing)),
             fmt(run(false, np, Mode::kCollective, writing)),
             fmt(run(true, np, Mode::kIndependent, writing)),
             fmt(run(true, np, Mode::kNative, writing)),
             fmt(run(true, np, Mode::kCollective, writing))});
    }
    t.print();
  }
  std::printf(
      "\nExpected shape: independent worst everywhere (per-piece requests).\n"
      "On NFS, two-phase is the big win (few large RPCs). On DAFS, batched\n"
      "list-I/O already collapses the pattern into one request, so it rivals\n"
      "or beats two-phase — the flexibility DAFS gives an MPI-IO driver.\n");
  return 0;
}
