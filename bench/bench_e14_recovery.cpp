// E14 (recovery, beyond the paper): bandwidth timeline of a steady DAFS
// write stream across injected VI connection breaks. The fault plan breaks
// the "dafs" connection every N completions; the session layer reconnects
// with seeded jittered backoff, resumes, and retransmits the in-flight
// request, so the stream completes byte-identical — the cost shows up as a
// bandwidth dip in the window holding the break, quantified against a
// fault-free run of the same stream. Ends with the one-line histogram JSON
// (including dafs.reconnect_ns) for the plotting pipeline.
#include <cstring>

#include "bench/common.hpp"

using namespace bench;

namespace {

constexpr std::size_t kChunk = 64 * 1024;  // direct path
constexpr int kChunks = 96;
constexpr int kWindow = 8;              // chunks per timeline row
constexpr std::uint64_t kBreakEvery = 40;  // completions between breaks

struct StreamResult {
  std::vector<double> window_mbps;  // one entry per kWindow chunks
  double total_mbps = 0;
};

/// Write kChunks chunks of kChunk bytes and record per-window bandwidth in
/// virtual time. Aborts on any error: with recovery on, every chunk must
/// succeed even across breaks.
StreamResult run_stream(DafsBed& bed, const std::vector<std::byte>& data) {
  sim::ActorScope scope(*bed.client_actor);
  auto fh = bed.client->open("/e14", dafs::kOpenCreate);
  if (!fh.ok()) {
    std::fprintf(stderr, "bench: open failed\n");
    std::abort();
  }
  StreamResult out;
  const sim::Time start = bed.client_actor->now();
  sim::Time window_t0 = start;
  for (int i = 0; i < kChunks; ++i) {
    auto r = bed.client->pwrite(
        fh.value(), static_cast<std::uint64_t>(i) * kChunk,
        std::span(data.data() + static_cast<std::size_t>(i) * kChunk, kChunk));
    if (!r.ok() || r.value() != kChunk) {
      std::fprintf(stderr, "bench: pwrite chunk %d failed\n", i);
      std::abort();
    }
    if ((i + 1) % kWindow == 0) {
      const sim::Time now = bed.client_actor->now();
      out.window_mbps.push_back(
          mbps(static_cast<std::uint64_t>(kWindow) * kChunk, now - window_t0));
      window_t0 = now;
    }
  }
  out.total_mbps = mbps(static_cast<std::uint64_t>(kChunks) * kChunk,
                        bed.client_actor->now() - start);
  return out;
}

void verify_stream(DafsBed& bed, const std::vector<std::byte>& data) {
  sim::ActorScope scope(*bed.client_actor);
  auto fh = bed.client->open("/e14");
  std::vector<std::byte> back(data.size());
  auto r = bed.client->pread(fh.value(), 0, back);
  if (!r.ok() || r.value() != back.size() ||
      std::memcmp(back.data(), data.data(), back.size()) != 0) {
    std::fprintf(stderr, "bench: post-recovery readback mismatch\n");
    std::abort();
  }
}

}  // namespace

int main() {
  std::printf("E14 [recovery]: 96 x 64 KiB DAFS writes, VI break every %llu "
              "completions, session recovery on\n\n",
              static_cast<unsigned long long>(kBreakEvery));

  const auto data = make_data(static_cast<std::size_t>(kChunks) * kChunk, 14);

  dafs::RetryPolicy retry;
  retry.attempts = 8;
  retry.backoff_ns = 100'000;
  retry.backoff_cap_ns = 10'000'000;
  retry.jitter_seed = 14;
  const dafs::MountSpec mspec = dafs::single_mount("dafs", retry);

  DafsBed clean(mspec);
  const StreamResult base = run_stream(clean, data);

  DafsBed faulted(mspec);
  faulted.fabric.faults().arm(14);
  faulted.fabric.faults().break_conn_after("dafs", kBreakEvery,
                                           /*repeat=*/true);
  const StreamResult hurt = run_stream(faulted, data);
  faulted.fabric.faults().clear();
  verify_stream(faulted, data);

  Table t({"window", "clean MB/s", "faulted MB/s", "ratio"});
  for (std::size_t w = 0; w < hurt.window_mbps.size(); ++w) {
    t.row({std::to_string(w * kWindow) + "-" +
               std::to_string((w + 1) * kWindow - 1),
           fmt(base.window_mbps[w]), fmt(hurt.window_mbps[w]),
           fmt(hurt.window_mbps[w] / base.window_mbps[w], 2)});
  }
  t.print();
  std::printf("total: clean %.1f MB/s, faulted %.1f MB/s\n", base.total_mbps,
              hurt.total_mbps);

  // Recovery counters (fault.conn_breaks, dafs.recoveries, retransmits,
  // replay_hits, ...) ride in the unified metrics document.
  emit_metrics_json(faulted.fabric, "e14_recovery",
                    "{\"chunk\":65536,\"chunks\":96,\"break_every\":40,"
                    "\"seed\":14}");
  return 0;
}
