// E8 (paper Table 2, reconstructed): latency breakdown of a single
// MPI_File_write_at on the DAFS driver — where does the time go?
// Components: client CPU (MPI-IO + uDAFS protocol, registration), server
// CPU (dispatch + fs), and the remainder (wire serialization, propagation
// and DMA — time nobody's CPU burns). Expected shape: small writes dominated
// by fixed per-op costs/round trip; large writes dominated by wire time with
// a near-constant CPU floor.
//
// Each configuration also emits a histogram-snapshot JSON line (see
// EXPERIMENTS.md, "Histogram JSON") with the per-layer latency
// distributions: VIA doorbell->completion, DAFS request RTT by procedure,
// and MPI-IO op/phase times.
#include <array>

#include "bench/common.hpp"
#include "mpiio/ad_dafs.hpp"
#include "mpiio/file.hpp"

using namespace bench;

namespace {

struct Row {
  double total_us;
  double client_proto_us;
  double client_reg_us;
  double client_copy_us;
  double server_us;
  double wire_us;  // residual
};

Row run(std::size_t size) {
  sim::Fabric fabric;
  const auto server_node = fabric.add_node("filer");
  dafs::Server server(fabric, server_node);
  server.start();
  mpi::WorldConfig cfg;
  cfg.nprocs = 1;
  cfg.fabric = &fabric;
  mpi::World world(cfg);

  Row out{};
  world.run([&](mpi::Comm& c) {
    via::Nic nic(fabric, world.node_of(c.rank()), "cli");
    auto client = std::move(dafs::Client::connect(nic).value());
    auto f = std::move(mpiio::File::open(c, "/f",
                                         mpiio::kModeCreate | mpiio::kModeRdwr,
                                         mpiio::Info{},
                                         mpiio::dafs_driver(*client))
                           .value());
    auto data = make_data(size, 5);
    bench::require(f->write_at(0, data.data(), size, mpi::Datatype::byte()),
        "write_at");  // warm + reg

    constexpr int kIters = 20;
    fabric.histograms().reset();  // distributions cover the measured loop only
    c.actor().reset_busy();
    const sim::BusyBreakdown server_before = server.worker_busy();
    const sim::Time t0 = c.actor().now();
    for (int i = 0; i < kIters; ++i) {
      bench::require(f->write_at(0, data.data(), size, mpi::Datatype::byte()),
          "write_at");
    }
    const sim::Time total = c.actor().now() - t0;
    const auto& cb = c.actor().busy();
    const sim::BusyBreakdown server_after = server.worker_busy();

    const double n = kIters;
    out.total_us = sim::to_usec(total) / n;
    out.client_proto_us = sim::to_usec(cb[sim::CostKind::kProtocol]) / n;
    out.client_reg_us = sim::to_usec(cb[sim::CostKind::kRegistration]) / n;
    out.client_copy_us = sim::to_usec(cb[sim::CostKind::kCopy]) / n;
    out.server_us =
        sim::to_usec(server_after.total() - server_before.total()) / n;
    out.wire_us = out.total_us - out.client_proto_us - out.client_reg_us -
                  out.client_copy_us - out.server_us;
    emit_metrics_json(fabric, "e8_breakdown",
                      "{\"op\":\"write_at\",\"size\":" +
                          std::to_string(size) + "}");
    bench::require_ok(f->close(), "close");
  });
  return out;
}

// Two-phase collective write on 4 ranks: populates the per-phase breakdown
// histograms (metadata exchange, data exchange, aggregator disk time) that
// a single-rank independent write cannot.
void collective_breakdown() {
  constexpr int kNp = 4;
  constexpr std::uint32_t kBlock = 4096;
  constexpr int kTiles = 32;

  sim::Fabric fabric;
  dafs::Server server(fabric, fabric.add_node("filer"));
  server.start();
  mpi::WorldConfig cfg;
  cfg.nprocs = kNp;
  cfg.fabric = &fabric;
  mpi::World world(cfg);

  world.run([&](mpi::Comm& c) {
    via::Nic nic(fabric, world.node_of(c.rank()), "cli");
    auto client = std::move(dafs::Client::connect(nic).value());
    auto f = std::move(mpiio::File::open(c, "/coll.dat",
                                         mpiio::kModeCreate | mpiio::kModeRdwr,
                                         mpiio::Info{},
                                         mpiio::dafs_driver(*client))
                           .value());
    // Block-cyclic view: rank r owns block r of each kNp-block tile.
    const std::array<std::uint32_t, 1> sizes = {kBlock * kNp};
    const std::array<std::uint32_t, 1> subsizes = {kBlock};
    const std::array<std::uint32_t, 1> starts = {
        static_cast<std::uint32_t>(c.rank()) * kBlock};
    auto ft =
        mpi::Datatype::subarray(sizes, subsizes, starts, mpi::Datatype::byte());
    bench::require_ok(f->set_view(0, mpi::Datatype::byte(), ft), "set_view");

    auto data = make_data(kBlock * kTiles, 20 + c.rank());
    bench::require(f->write_at_all(0, data.data(), data.size(), mpi::Datatype::byte()),
        "write_at_all");
    c.barrier();
    if (c.rank() == 0) fabric.histograms().reset();
    c.barrier();

    bench::require(f->write_at_all(0, data.data(), data.size(), mpi::Datatype::byte()),

        "write_at_all");
    std::vector<std::byte> back(data.size());
    bench::require(f->read_at_all(0, back.data(), back.size(), mpi::Datatype::byte()),
        "read_at_all");
    c.barrier();
    if (c.rank() == 0) {
      const auto snaps = fabric.histograms().snapshot_all();
      Table t({"phase", "count", "mean us", "p50 us", "p95 us", "max us"});
      for (const char* key :
           {"mpiio.write_at_all_ns", "mpiio.read_at_all_ns",
            "mpiio.twophase_meta_ns", "mpiio.twophase_exchange_ns",
            "mpiio.twophase_disk_ns"}) {
        auto it = snaps.find(key);
        if (it == snaps.end()) continue;
        const auto& s = it->second;
        t.row({key, std::to_string(s.count), fmt(s.mean() / 1000.0),
               fmt(sim::to_usec(s.p50())), fmt(sim::to_usec(s.p95())),
               fmt(sim::to_usec(s.max))});
      }
      t.print();
      emit_metrics_json(fabric, "e8_breakdown",
                        "{\"op\":\"write_read_at_all\",\"nprocs\":4}");
    }
    bench::require_ok(f->close(), "close");
  });
}

}  // namespace

int main() {
  std::printf(
      "E8 [reconstructed Table 2]: MPI_File_write_at latency breakdown\n"
      "(DAFS driver, single rank, per-op modeled microseconds)\n\n");
  Table t({"size", "total us", "client proto", "client reg", "client copy",
           "server cpu", "wire+dma"});
  for (std::size_t size :
       {std::size_t{4096}, std::size_t{65536}, std::size_t{1048576}}) {
    const Row r = run(size);
    t.row({size_label(size), fmt(r.total_us), fmt(r.client_proto_us),
           fmt(r.client_reg_us), fmt(r.client_copy_us), fmt(r.server_us),
           fmt(r.wire_us)});
  }
  t.print();
  std::printf(
      "\nExpected shape: 4 KiB dominated by fixed round-trip costs; 1 MiB\n"
      "dominated by wire time (~8000 us at 125 MB/s) with a small, nearly\n"
      "size-independent CPU component (zero client copies on direct I/O).\n");
  std::printf(
      "\nTwo-phase collective breakdown (4 ranks, block-cyclic view):\n");
  collective_breakdown();
  return 0;
}
