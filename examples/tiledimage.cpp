// Tiled-image access: a 2048x2048 byte "image" stored row-major in one file;
// each rank repeatedly extracts a 256x256 tile that is *noncontiguous* on
// disk (one 256-byte run per row). Compares the three access strategies for
// noncontiguous independent I/O on the DAFS driver:
//   per-row requests, data sieving, and batched direct list-I/O.
#include <cstdio>
#include <vector>

#include "dafs/server.hpp"
#include "mpiio/ad_dafs.hpp"
#include "mpiio/file.hpp"

namespace {

constexpr std::uint32_t kImage = 2048;
constexpr std::uint32_t kTile = 256;

}  // namespace

int main() {
  sim::Fabric fabric;
  dafs::Server filer(fabric, fabric.add_node("filer"));
  filer.start();

  mpi::WorldConfig cfg;
  cfg.nprocs = 4;
  cfg.fabric = &fabric;
  mpi::World world(cfg);

  world.run([&](mpi::Comm& comm) {
    via::Nic nic(fabric, world.node_of(comm.rank()), "client-nic");
    auto client = std::move(dafs::Client::connect(nic).value());

    // Rank 0 writes the source image once (contiguous).
    {
      auto f = std::move(
          mpiio::File::open(comm, "/image.raw",
                            mpiio::kModeCreate | mpiio::kModeRdwr,
                            mpiio::Info{}, mpiio::dafs_driver(*client))
              .value());
      if (comm.rank() == 0) {
        std::vector<std::byte> image(kImage * kImage);
        for (std::uint32_t i = 0; i < image.size(); ++i) {
          image[i] = static_cast<std::byte>((i * 31) & 0xff);
        }
        auto w = f->write_at(0, image.data(), image.size(),
                             mpi::Datatype::byte());
        if (!w.ok()) {
          std::fprintf(stderr, "image write failed: %s\n",
                       mpiio::to_string(mpiio::error_class(w.error())));
        }
      }
      // Collective; includes the visibility barrier.
      if (auto st = f->close(); st != mpiio::Err::kOk) {
        std::fprintf(stderr, "close failed: %s\n",
                     mpiio::to_string(mpiio::error_class(st)));
      }
    }

    // Each rank owns one tile per strategy run.
    const std::uint32_t tr = (comm.rank() / 2) * kTile * 4;
    const std::uint32_t tc = (comm.rank() % 2) * kTile * 4;
    const std::array<std::uint32_t, 2> sizes = {kImage, kImage};
    const std::array<std::uint32_t, 2> sub = {kTile, kTile};
    const std::array<std::uint32_t, 2> start = {tr, tc};
    auto tile_view =
        mpi::Datatype::subarray(sizes, sub, start, mpi::Datatype::byte());

    auto run = [&](const char* label, const char* ds_hint,
                   bool per_row) {
      mpiio::Info info;
      if (ds_hint) info.set("romio_ds_read", ds_hint);
      auto f = std::move(mpiio::File::open(comm, "/image.raw",
                                           mpiio::kModeRdonly, info,
                                           mpiio::dafs_driver(*client))
                             .value());
      std::vector<std::byte> tile(kTile * kTile);
      const sim::Time t0 = comm.actor().now();
      if (per_row) {
        // Naive: one request per tile row.
        for (std::uint32_t r = 0; r < kTile; ++r) {
          if (!f->read_at(static_cast<std::uint64_t>(tr + r) * kImage + tc,
                          tile.data() + r * kTile, kTile,
                          mpi::Datatype::byte())
                   .ok()) {
            std::fprintf(stderr, "per-row read_at failed\n");
          }
        }
      } else {
        if (f->set_view(0, mpi::Datatype::byte(), tile_view) !=
            mpiio::Err::kOk) {
          std::fprintf(stderr, "set_view failed\n");
        }
        if (!f->read_at(0, tile.data(), tile.size(), mpi::Datatype::byte())
                 .ok()) {
          std::fprintf(stderr, "tile read_at failed\n");
        }
      }
      const sim::Time dt = comm.actor().now() - t0;
      // Verify a few pixels.
      bool ok = true;
      for (std::uint32_t r = 0; r < kTile; r += 37) {
        const std::uint64_t abs = static_cast<std::uint64_t>(tr + r) * kImage +
                                  tc + (r % kTile);
        if (tile[r * kTile + (r % kTile)] !=
            static_cast<std::byte>((abs * 31) & 0xff)) {
          ok = false;
        }
      }
      if (comm.rank() == 0) {
        std::printf("  %-28s %8.2f ms  (%s)\n", label, sim::to_msec(dt),
                    ok ? "verified" : "CORRUPT");
      }
      if (auto st = f->close(); st != mpiio::Err::kOk) {
        std::fprintf(stderr, "close failed: %s\n",
                     mpiio::to_string(mpiio::error_class(st)));
      }
    };

    if (comm.rank() == 0) {
      std::printf("256x256 tile extraction from a %ux%u image (rank 0 "
                  "modeled time):\n",
                  kImage, kImage);
    }
    run("per-row requests", nullptr, /*per_row=*/true);
    run("data sieving", "enable", /*per_row=*/false);
    run("batched direct list-I/O", "disable", /*per_row=*/false);
  });
  return 0;
}
