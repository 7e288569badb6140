// E9 (paper Fig. 7, reconstructed): aggregate bandwidth vs number of
// concurrent clients, DAFS vs NFS, 256 KiB streaming reads from a warm
// server. Expected shape: DAFS scales until the server *link* saturates
// (~125 MB/s) and stays flat; NFS saturates earlier and lower because every
// byte also burns server CPU (copies + stack), which becomes the bottleneck.
// The striped addendum (E17): the same aggregate-bandwidth question asked of
// the *server* side — one filer vs a striped multi-filer mount. A 4-rank
// collective write lands on 1/2/4 data servers through dafs::Client; with
// one filer the server link is the ceiling, with N the stripes spread the
// bytes and aggregate bandwidth scales until the client links saturate.
#include <atomic>
#include <memory>
#include <thread>

#include "bench/common.hpp"
#include "mpiio/ad_dafs.hpp"
#include "mpiio/file.hpp"

using namespace bench;

namespace {

constexpr std::size_t kReq = 256 * 1024;
constexpr int kIters = 10;

double run_dafs(int nclients) {
  sim::Fabric fabric;
  const auto server_node = fabric.add_node("filer");
  dafs::Server server(fabric, server_node);
  server.start();

  std::vector<std::thread> threads;
  std::vector<sim::Time> done(static_cast<std::size_t>(nclients), 0);
  for (int i = 0; i < nclients; ++i) {
    threads.emplace_back([&, i] {
      const auto node = fabric.add_node("client" + std::to_string(i));
      sim::Actor actor("client" + std::to_string(i), &fabric.node(node));
      sim::ActorScope scope(actor);
      via::Nic nic(fabric, node, "cli");
      auto client = std::move(dafs::Client::connect(nic).value());
      auto fh = client
                    ->open("/f" + std::to_string(i), dafs::kOpenCreate)
                    .value();
      auto data = make_data(kReq, 20 + i);
      bench::require(client->pwrite(fh, 0, data), "pwrite");  // warm
      std::vector<std::byte> back(kReq);
      for (int k = 0; k < kIters; ++k) bench::require(client->pread(fh, 0, back), "pread");
      done[static_cast<std::size_t>(i)] = actor.now();
    });
  }
  for (auto& t : threads) t.join();
  emit_metrics_json(fabric, "e9_scaling",
                    "{\"driver\":\"dafs\",\"clients\":" +
                        std::to_string(nclients) + "}");
  sim::Time finish = 0;
  for (sim::Time t : done) finish = std::max(finish, t);
  return mbps(static_cast<std::uint64_t>(nclients) * kIters * kReq, finish);
}

double run_nfs(int nclients) {
  sim::Fabric fabric;
  const auto server_node = fabric.add_node("nfs-server");
  nfs::Server server(fabric, server_node);
  server.start();

  std::vector<std::thread> threads;
  std::vector<sim::Time> done(static_cast<std::size_t>(nclients), 0);
  for (int i = 0; i < nclients; ++i) {
    threads.emplace_back([&, i] {
      const auto node = fabric.add_node("client" + std::to_string(i));
      sim::Actor actor("client" + std::to_string(i), &fabric.node(node));
      sim::ActorScope scope(actor);
      auto client = std::move(nfs::Client::connect(fabric, node).value());
      auto ino =
          client->open("/f" + std::to_string(i), nfs::kOpenCreate).value();
      auto data = make_data(kReq, 30 + i);
      bench::require(client->pwrite(ino, 0, data), "pwrite");
      std::vector<std::byte> back(kReq);
      for (int k = 0; k < kIters; ++k) bench::require(client->pread(ino, 0, back), "pread");
      done[static_cast<std::size_t>(i)] = actor.now();
    });
  }
  for (auto& t : threads) t.join();
  emit_metrics_json(fabric, "e9_scaling",
                    "{\"driver\":\"nfs\",\"clients\":" +
                        std::to_string(nclients) + "}");
  sim::Time finish = 0;
  for (sim::Time t : done) finish = std::max(finish, t);
  return mbps(static_cast<std::uint64_t>(nclients) * kIters * kReq, finish);
}

constexpr std::uint64_t kStripedChunk = 4u << 20;  // per-rank collective block
constexpr std::uint64_t kStripeSize = 256 * 1024;
constexpr int kStripedRanks = 4;
constexpr int kStripedIters = 2;

/// E17 leg: 4 ranks collectively write 1 MiB each to one shared file striped
/// across `nservers` filers (stripe 256 KiB, metadata on filer 0). Reported
/// bandwidth is aggregate over the timed iterations, modeled time.
double run_striped(int nservers) {
  sim::Fabric fabric;
  std::vector<std::unique_ptr<dafs::Server>> servers;
  std::vector<std::string> services;
  for (int i = 0; i < nservers; ++i) {
    services.push_back("dafs" + std::to_string(i));
    dafs::ServerConfig cfg;
    cfg.service = services.back();
    // One worker per rank: a blocked RDMA pull from one client must not
    // convoy the other aggregators' sub-transfers behind it (the link, not
    // the service loop, should be the contended resource at every width).
    cfg.workers = kStripedRanks;
    servers.push_back(std::make_unique<dafs::Server>(
        fabric, fabric.add_node("filer" + std::to_string(i)), cfg));
    servers.back()->start();
  }

  mpi::WorldConfig wcfg;
  wcfg.nprocs = kStripedRanks;
  wcfg.fabric = &fabric;
  wcfg.name = "e9-striped";
  mpi::World world(wcfg);
  std::atomic<std::uint64_t> elapsed{0};
  world.run([&](mpi::Comm& c) {
    via::Nic nic(fabric, world.node_of(c.rank()), "cli");
    auto client = std::move(
        dafs::Client::connect(nic, dafs::striped_mount(services, kStripeSize))
            .value());
    auto f = std::move(
        mpiio::File::open(c, "/striped.dat",
                          mpiio::kModeCreate | mpiio::kModeRdwr, mpiio::Info{},
                          mpiio::dafs_driver(*client))
            .value());
    auto data = make_data(kStripedChunk, 40 + c.rank());
    const std::uint64_t off =
        static_cast<std::uint64_t>(c.rank()) * kStripedChunk;
    bench::require(
        f->write_at_all(off, data.data(), data.size(), mpi::Datatype::byte()),
        "write_at_all");  // warm (subfiles created, registrations cached)
    c.barrier();
    const sim::Time t0 = c.actor().now();
    for (int k = 0; k < kStripedIters; ++k) {
      bench::require(
          f->write_at_all(off, data.data(), data.size(), mpi::Datatype::byte()),
          "write_at_all");
    }
    std::uint64_t dt = c.actor().now() - t0;
    std::vector<std::uint64_t> mv = {dt};
    c.allreduce(std::span<std::uint64_t>(mv), mpi::Op::kMax);
    if (c.rank() == 0) elapsed.store(mv[0]);
    bench::require_ok(f->close(), "close");
  });
  emit_metrics_json(fabric, "e9_scaling",
                    "{\"driver\":\"dafs-striped\",\"servers\":" +
                        std::to_string(nservers) + "}");
  return mbps(static_cast<std::uint64_t>(kStripedRanks) * kStripedIters *
                  kStripedChunk,
              elapsed.load());
}

}  // namespace

int main() {
  std::printf(
      "E9 [reconstructed Fig.7]: aggregate read bandwidth vs client count\n"
      "(256 KiB requests, warm cache, modeled time)\n\n");
  Table t({"clients", "DAFS MB/s", "NFS MB/s", "speedup"});
  for (int n : {1, 2, 4, 6, 8}) {
    const double d = run_dafs(n);
    const double f = run_nfs(n);
    t.row({std::to_string(n), fmt(d), fmt(f), fmt(d / f, 2) + "x"});
  }
  t.print();
  std::printf(
      "\nExpected shape: DAFS climbs to the ~125 MB/s server link and\n"
      "flattens; NFS flattens earlier/lower (server CPU-bound on copies).\n");

  // E17: the striped sweep runs last so a DAFS_TRACE of this binary ends on
  // the striped collective (the tier-1 trace leg validates that dump).
  std::printf(
      "\nE17: striped multi-filer collective writes (%d ranks, %s/rank,\n"
      "%s stripes, aggregate MB/s vs data-server count)\n\n",
      kStripedRanks, size_label(kStripedChunk).c_str(),
      size_label(kStripeSize).c_str());
  Table ts({"servers", "MB/s", "vs 1 filer"});
  double base = 0.0;
  for (int n : {1, 2, 4}) {
    const double bw = run_striped(n);
    if (n == 1) base = bw;
    ts.row({std::to_string(n), fmt(bw),
            fmt(base > 0 ? bw / base : 0.0, 2) + "x"});
  }
  ts.print();
  std::printf(
      "\nExpected shape: one filer pins the collective at its server link;\n"
      "striping spreads the stripes, so aggregate bandwidth scales with the\n"
      "server count until the client links saturate.\n");
  return 0;
}
