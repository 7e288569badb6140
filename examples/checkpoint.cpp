// Checkpoint/restart of a block-distributed matrix — the canonical parallel
// I/O workload the paper's introduction motivates.
//
// A 1024x1024 double matrix is row-block distributed over 4 ranks. Each rank
// checkpoints its block into a single shared file through a subarray file
// view with *collective* writes (two-phase buffering), then the matrix is
// restored into a different decomposition (column blocks) using another
// view, demonstrating that views decouple in-memory and on-disk layouts.
#include <cmath>
#include <cstdio>
#include <vector>

#include "dafs/server.hpp"
#include "mpiio/ad_dafs.hpp"
#include "mpiio/file.hpp"

namespace {

constexpr std::uint32_t kN = 1024;  // matrix is kN x kN doubles
constexpr int kNp = 4;

double cell(std::uint32_t r, std::uint32_t c) {
  return std::sin(0.001 * r) * 1000.0 + c;
}

/// Fail loudly instead of silently reporting numbers from a failed op.
void expect_ok(mpiio::Err st, const char* what) {
  if (st != mpiio::Err::kOk) {
    std::fprintf(stderr, "%s failed: %s\n", what,
                 mpiio::to_string(mpiio::error_class(st)));
  }
}

}  // namespace

int main() {
  sim::Fabric fabric;
  dafs::Server filer(fabric, fabric.add_node("filer"));
  filer.start();

  mpi::WorldConfig cfg;
  cfg.nprocs = kNp;
  cfg.fabric = &fabric;
  mpi::World world(cfg);

  world.run([&](mpi::Comm& comm) {
    via::Nic nic(fabric, world.node_of(comm.rank()), "client-nic");
    auto client = std::move(dafs::Client::connect(nic).value());

    mpiio::Info info;
    info.set("cb_buffer_size", std::uint64_t{1} << 20);
    auto file = std::move(
        mpiio::File::open(comm, "/matrix.ckpt",
                          mpiio::kModeCreate | mpiio::kModeRdwr, info,
                          mpiio::dafs_driver(*client))
            .value());

    // ---- checkpoint: row-block decomposition ------------------------------
    constexpr std::uint32_t kRows = kN / kNp;
    std::vector<double> block(kRows * kN);
    const std::uint32_t row0 = comm.rank() * kRows;
    for (std::uint32_t r = 0; r < kRows; ++r) {
      for (std::uint32_t c = 0; c < kN; ++c) {
        block[r * kN + c] = cell(row0 + r, c);
      }
    }

    const std::array<std::uint32_t, 2> sizes = {kN, kN};
    const std::array<std::uint32_t, 2> row_sub = {kRows, kN};
    const std::array<std::uint32_t, 2> row_start = {row0, 0};
    auto row_view = mpi::Datatype::subarray(sizes, row_sub, row_start,
                                            mpi::Datatype::float64());
    expect_ok(file->set_view(0, mpi::Datatype::float64(), row_view),
              "set_view");

    const sim::Time t0 = comm.actor().now();
    auto wr = file->write_at_all(0, block.data(), block.size(),
                                 mpi::Datatype::float64());
    if (!wr.ok()) expect_ok(wr.error(), "write_at_all");
    const sim::Time t_ckpt = comm.actor().now() - t0;

    // ---- restart: column-block decomposition ------------------------------
    constexpr std::uint32_t kCols = kN / kNp;
    const std::uint32_t col0 = comm.rank() * kCols;
    const std::array<std::uint32_t, 2> col_sub = {kN, kCols};
    const std::array<std::uint32_t, 2> col_start = {0, col0};
    auto col_view = mpi::Datatype::subarray(sizes, col_sub, col_start,
                                            mpi::Datatype::float64());
    expect_ok(file->set_view(0, mpi::Datatype::float64(), col_view),
              "set_view");

    std::vector<double> cols(kN * kCols);
    const sim::Time t1 = comm.actor().now();
    auto rr = file->read_at_all(0, cols.data(), cols.size(),
                                mpi::Datatype::float64());
    if (!rr.ok()) expect_ok(rr.error(), "read_at_all");
    const sim::Time t_rest = comm.actor().now() - t1;

    // Verify the re-decomposed data.
    std::uint64_t bad = 0;
    for (std::uint32_t r = 0; r < kN; ++r) {
      for (std::uint32_t c = 0; c < kCols; ++c) {
        if (cols[r * kCols + c] != cell(r, col0 + c)) ++bad;
      }
    }
    const double mb =
        static_cast<double>(kRows) * kN * sizeof(double) / 1e6;
    std::printf(
        "rank %d: checkpoint %.1f MB in %.2f ms (%.1f MB/s), restore as "
        "column blocks in %.2f ms — %s\n",
        comm.rank(), mb, sim::to_msec(t_ckpt),
        mb * 1000.0 / sim::to_msec(t_ckpt), sim::to_msec(t_rest),
        bad == 0 ? "verified" : "CORRUPT");
    expect_ok(file->close(), "close");
  });
  return 0;
}
