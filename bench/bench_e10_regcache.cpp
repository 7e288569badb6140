// E10 (reconstructed ablation table): effect of the client registration
// cache on direct-I/O latency. Registration pins pages through the kernel
// (tens of microseconds) — paying it per operation erases much of the
// zero-copy win for medium transfers; caching amortizes it to ~zero for
// reused buffers.
#include "bench/common.hpp"

using namespace bench;

namespace {

double per_op_us(bool cache_on, std::size_t size) {
  dafs::ClientConfig cfg;
  cfg.direct_threshold = 0;  // always direct
  cfg.reg_cache = cache_on;
  DafsBed bed(cfg);
  sim::ActorScope scope(*bed.client_actor);
  auto fh = bed.client->open("/f", dafs::kOpenCreate).value();
  auto data = make_data(size, 3);
  bench::require(bed.client->pwrite(fh, 0, data), "pwrite");  // warm store + (maybe) cache
  constexpr int kIters = 20;
  const sim::Time t0 = bed.client_actor->now();
  for (int i = 0; i < kIters; ++i) bench::require(bed.client->pwrite(fh, 0, data), "pwrite");
  const double us = sim::to_usec(bed.client_actor->now() - t0) / kIters;
  emit_metrics_json(bed.fabric, "e10_regcache",
                    std::string("{\"reg_cache\":") +
                        (cache_on ? "true" : "false") +
                        ",\"size\":" + std::to_string(size) + "}");
  return us;
}

}  // namespace

int main() {
  std::printf(
      "E10 [reconstructed Table 3]: registration cache ablation\n"
      "(direct writes, reused buffer, per-op modeled microseconds)\n\n");
  Table t({"size", "cache on (us)", "cache off (us)", "penalty"});
  for (std::size_t size :
       {std::size_t{8192}, std::size_t{32768}, std::size_t{131072},
        std::size_t{524288}, std::size_t{1048576}}) {
    const double on = per_op_us(true, size);
    const double off = per_op_us(false, size);
    t.row({size_label(size), fmt(on), fmt(off), fmt(off - on) + " us"});
  }
  t.print();
  std::printf(
      "\nExpected shape: a roughly constant-plus-per-page registration\n"
      "penalty without the cache; relative impact largest for medium sizes\n"
      "where wire time does not yet dominate.\n");
  return 0;
}
