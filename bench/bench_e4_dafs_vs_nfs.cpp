// E4 (paper Fig. 4, reconstructed): single-client file bandwidth vs request
// size — DAFS (user-level, direct I/O) against the NFS/TCP baseline.
// Expected shape: NFS plateaus at the kernel/copy-limited rate well below
// the wire; DAFS approaches wire rate for large requests: a 1.5-2.5x win.
#include "bench/common.hpp"

using namespace bench;

namespace {

struct Point {
  double read_mbps;
  double write_mbps;
};

Point run_dafs(std::size_t size, int iters) {
  DafsBed bed;
  sim::ActorScope scope(*bed.client_actor);
  auto fh = bed.client->open("/bench.dat", dafs::kOpenCreate).value();
  auto data = make_data(size, 1);
  bench::require(bed.client->pwrite(fh, 0, data), "pwrite");
  const sim::Time w0 = bed.client_actor->now();
  for (int i = 0; i < iters; ++i) {
    bench::require(bed.client->pwrite(fh, (static_cast<std::uint64_t>(i) % 8) * size, data), "pwrite");
  }
  const sim::Time wt = bed.client_actor->now() - w0;
  std::vector<std::byte> back(size);
  const sim::Time r0 = bed.client_actor->now();
  for (int i = 0; i < iters; ++i) {
    bench::require(bed.client->pread(fh, (static_cast<std::uint64_t>(i) % 8) * size, back), "pread");
  }
  const sim::Time rt = bed.client_actor->now() - r0;
  const std::uint64_t total = static_cast<std::uint64_t>(iters) * size;
  emit_metrics_json(bed.fabric, "e4_dafs_vs_nfs",
                    "{\"driver\":\"dafs\",\"size\":" + std::to_string(size) +
                        "}");
  return Point{mbps(total, rt), mbps(total, wt)};
}

Point run_nfs(std::size_t size, int iters) {
  NfsBed bed;
  sim::ActorScope scope(*bed.client_actor);
  auto ino = bed.client->open("/bench.dat", nfs::kOpenCreate).value();
  auto data = make_data(size, 2);
  bench::require(bed.client->pwrite(ino, 0, data), "pwrite");
  const sim::Time w0 = bed.client_actor->now();
  for (int i = 0; i < iters; ++i) {
    bench::require(bed.client->pwrite(ino, (static_cast<std::uint64_t>(i) % 8) * size, data), "pwrite");
  }
  const sim::Time wt = bed.client_actor->now() - w0;
  std::vector<std::byte> back(size);
  const sim::Time r0 = bed.client_actor->now();
  for (int i = 0; i < iters; ++i) {
    bench::require(bed.client->pread(ino, (static_cast<std::uint64_t>(i) % 8) * size, back), "pread");
  }
  const sim::Time rt = bed.client_actor->now() - r0;
  const std::uint64_t total = static_cast<std::uint64_t>(iters) * size;
  emit_metrics_json(bed.fabric, "e4_dafs_vs_nfs",
                    "{\"driver\":\"nfs\",\"size\":" + std::to_string(size) +
                        "}");
  return Point{mbps(total, rt), mbps(total, wt)};
}

}  // namespace

int main() {
  std::printf(
      "E4 [reconstructed Fig.4]: DAFS vs NFS/TCP bandwidth vs request size\n"
      "(single client, warm cache, modeled time)\n\n");
  Table t({"request", "DAFS rd", "NFS rd", "rd speedup", "DAFS wr", "NFS wr",
           "wr speedup"});
  constexpr int kIters = 16;
  for (std::size_t size :
       {std::size_t{4096}, std::size_t{16384}, std::size_t{65536},
        std::size_t{262144}, std::size_t{1048576}}) {
    const Point d = run_dafs(size, kIters);
    const Point n = run_nfs(size, kIters);
    t.row({size_label(size), fmt(d.read_mbps), fmt(n.read_mbps),
           fmt(d.read_mbps / n.read_mbps, 2) + "x", fmt(d.write_mbps),
           fmt(n.write_mbps), fmt(d.write_mbps / n.write_mbps, 2) + "x"});
  }
  t.print();
  std::printf(
      "\nExpected shape: NFS plateaus (copies+interrupts bound) well below\n"
      "wire; DAFS direct approaches 125 MB/s -> 1.5-2.5x at large sizes.\n");
  return 0;
}
