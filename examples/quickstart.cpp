// Quickstart: the smallest end-to-end MPI-IO-on-DAFS program.
//
// Builds a simulated cluster (one DAFS filer + 4 compute nodes), runs 4 MPI
// ranks, and has each rank write and read back its slice of a shared file
// through the MPI-IO API over the DAFS driver. Reports modeled time.
#include <cstdio>
#include <numeric>
#include <vector>

#include "dafs/server.hpp"
#include "mpiio/ad_dafs.hpp"
#include "mpiio/file.hpp"

int main() {
  // 1. The cluster: a fabric with a DAFS filer on its own node.
  sim::Fabric fabric;
  dafs::Server filer(fabric, fabric.add_node("filer"));
  filer.start();

  // 2. An MPI world of 4 ranks (threads), one node each, same fabric.
  mpi::WorldConfig cfg;
  cfg.nprocs = 4;
  cfg.fabric = &fabric;
  mpi::World world(cfg);

  world.run([&](mpi::Comm& comm) {
    // 3. Each rank owns a uDAFS session to the filer.
    via::Nic nic(fabric, world.node_of(comm.rank()), "client-nic");
    auto client = std::move(dafs::Client::connect(nic).value());

    // 4. Collective open through MPI-IO.
    auto file = std::move(
        mpiio::File::open(comm, "/quickstart.dat",
                          mpiio::kModeCreate | mpiio::kModeRdwr, mpiio::Info{},
                          mpiio::dafs_driver(*client))
            .value());

    // 5. Write this rank's slice: 64 Ki int32 values.
    constexpr std::uint64_t kCount = 64 * 1024;
    std::vector<std::int32_t> mine(kCount);
    std::iota(mine.begin(), mine.end(), comm.rank() * 1'000'000);
    const std::uint64_t offset = comm.rank() * kCount * sizeof(std::int32_t);
    auto wr = file->write_at(offset, mine.data(), kCount,
                             mpi::Datatype::int32());
    if (!wr.ok()) {
      std::fprintf(stderr, "write_at failed: %s\n",
                   mpiio::to_string(mpiio::error_class(wr.error())));
    }
    comm.barrier();

    // 6. Read the next rank's slice and check it.
    const int next = (comm.rank() + 1) % comm.size();
    std::vector<std::int32_t> theirs(kCount);
    auto rr = file->read_at(next * kCount * sizeof(std::int32_t),
                            theirs.data(), kCount, mpi::Datatype::int32());
    bool ok = rr.ok();
    for (std::uint64_t i = 0; i < kCount; ++i) {
      if (theirs[i] != static_cast<std::int32_t>(next * 1'000'000 + i)) {
        ok = false;
        break;
      }
    }
    std::printf("rank %d: verified rank %d's slice: %s (modeled time %.2f ms)\n",
                comm.rank(), next, ok ? "OK" : "CORRUPT",
                sim::to_msec(comm.actor().now()));
    if (auto st = file->close(); st != mpiio::Err::kOk) {
      std::fprintf(stderr, "close failed: %s\n",
                   mpiio::to_string(mpiio::error_class(st)));
    }
  });

  const auto stats = fabric.stats().snapshot();
  std::printf("\nTransport summary:\n");
  std::printf("  direct (RDMA) bytes : %llu\n",
              static_cast<unsigned long long>(
                  fabric.stats().get("dafs.direct_read_bytes") +
                  fabric.stats().get("dafs.direct_write_bytes")));
  std::printf("  client copy bytes   : %llu  <- zero-copy data path\n",
              static_cast<unsigned long long>(
                  fabric.stats().get("dafs.client_copy_bytes")));
  std::printf("  DAFS requests       : %llu\n",
              static_cast<unsigned long long>(
                  fabric.stats().get("dafs.requests")));
  (void)stats;
  return 0;
}
