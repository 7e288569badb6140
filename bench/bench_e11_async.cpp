// E11 (paper Fig. 8, reconstructed): asynchronous DAFS I/O — overlap benefit
// vs queue depth. With depth 1 every operation pays the full round trip
// serially; deeper pipelines overlap request processing, server time and
// wire transfer until a resource (the wire, for large requests) saturates.
#include "bench/common.hpp"

using namespace bench;

namespace {

double throughput(std::size_t size, int depth, int total_ops) {
  dafs::ClientConfig cfg;
  cfg.credits = 16;
  DafsBed bed(cfg);
  sim::ActorScope scope(*bed.client_actor);
  auto fh = bed.client->open("/f", dafs::kOpenCreate).value();
  auto data = make_data(size, 4);
  bench::require(bed.client->pwrite(fh, 0, data), "pwrite");  // warm
  std::vector<std::vector<std::byte>> bufs(static_cast<std::size_t>(depth),
                                           std::vector<std::byte>(size));
  const sim::Time t0 = bed.client_actor->now();
  std::vector<dafs::OpId> inflight;
  int submitted = 0, completed = 0;
  while (completed < total_ops) {
    while (static_cast<int>(inflight.size()) < depth &&
           submitted < total_ops) {
      auto op = bed.client->submit_pread(
          fh, 0, bufs[static_cast<std::size_t>(submitted % depth)]);
      inflight.push_back(op.value());
      ++submitted;
    }
    bench::require_ok(bed.client->wait(inflight.front()), "wait");
    inflight.erase(inflight.begin());
    ++completed;
  }
  const double rate = mbps(static_cast<std::uint64_t>(total_ops) * size,
                           bed.client_actor->now() - t0);
  emit_metrics_json(bed.fabric, "e11_async",
                    "{\"size\":" + std::to_string(size) +
                        ",\"depth\":" + std::to_string(depth) + "}");
  return rate;
}

}  // namespace

int main() {
  std::printf(
      "E11 [reconstructed Fig.8]: async DAFS read throughput vs queue depth\n"
      "(modeled time, warm cache)\n\n");
  Table t({"depth", "64KiB MB/s", "256KiB MB/s"});
  for (int depth : {1, 2, 4, 8}) {
    t.row({std::to_string(depth), fmt(throughput(64 * 1024, depth, 24)),
           fmt(throughput(256 * 1024, depth, 24))});
  }
  t.print();
  std::printf(
      "\nExpected shape: depth 1 pays the full round trip per op; deeper\n"
      "queues overlap toward the wire limit, with diminishing returns once\n"
      "the link saturates.\n");
  return 0;
}
