// E15 (server crash, beyond the paper): bandwidth timeline of a steady DAFS
// write stream with per-window sync checkpoints across a full server
// crash/restart. The fault plan kills the filer after its Nth request and
// restarts it after a delay with ALL volatile state discarded; the
// write-ahead journal keeps every synced checkpoint durable, the client
// reclaims its session/handles through the lease protocol, and the stream
// resumes. Chunks acked after the last checkpoint but never synced legally
// vanish — the bench counts them, proves they are confined to the crash
// window, repairs them app-side (checkpoint-restart), and verifies the file
// byte-exact. A final overload phase saturates the admission queue to show
// kBusy shedding with bounded replay-cache memory. Ends with the one-line
// histogram JSON (including dafs.server_service_ns, whose p99 is the
// admitted-request latency) for the plotting pipeline.
#include <cstring>

#include "bench/common.hpp"

using namespace bench;

namespace {

constexpr std::size_t kChunk = 64 * 1024;  // direct path
constexpr int kChunks = 96;
constexpr int kWindow = 8;                   // chunks per checkpoint window
constexpr std::uint64_t kCrashAfter = 40;    // server requests before crash
constexpr std::uint64_t kRestartMs = 20;     // real-time restart delay

struct StreamResult {
  std::vector<double> window_mbps;  // one entry per kWindow chunks
  double total_mbps = 0;
};

/// Write kChunks chunks with a sync checkpoint after every window, recording
/// per-window bandwidth in virtual time. Aborts on any error: with recovery
/// on, every chunk must succeed even across the crash.
StreamResult run_stream(DafsBed& bed, const std::vector<std::byte>& data) {
  sim::ActorScope scope(*bed.client_actor);
  auto fh = require(bed.client->open("/e15", dafs::kOpenCreate), "open");
  StreamResult out;
  const sim::Time start = bed.client_actor->now();
  sim::Time window_t0 = start;
  for (int i = 0; i < kChunks; ++i) {
    auto r = bed.client->pwrite(
        fh, static_cast<std::uint64_t>(i) * kChunk,
        std::span(data.data() + static_cast<std::size_t>(i) * kChunk, kChunk));
    if (!r.ok() || r.value() != kChunk) {
      std::fprintf(stderr, "bench: pwrite chunk %d failed\n", i);
      std::abort();
    }
    if ((i + 1) % kWindow == 0) {
      // Checkpoint: everything up to chunk i is durable from here on.
      require_ok(bed.client->sync(fh), "sync");
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

/// Read the file back and return the indices of chunks that do not match the
/// written data (those acked after the last checkpoint before the crash).
std::vector<int> lost_chunks(DafsBed& bed, const std::vector<std::byte>& data) {
  sim::ActorScope scope(*bed.client_actor);
  auto fh = require(bed.client->open("/e15"), "open for verify");
  std::vector<std::byte> back(data.size());
  auto r = bed.client->pread(fh, 0, back);
  if (!r.ok()) {
    std::fprintf(stderr, "bench: verify pread failed\n");
    std::abort();
  }
  std::vector<int> lost;
  for (int i = 0; i < kChunks; ++i) {
    const std::size_t off = static_cast<std::size_t>(i) * kChunk;
    if (r.value() < off + kChunk ||
        std::memcmp(back.data() + off, data.data() + off, kChunk) != 0) {
      lost.push_back(i);
    }
  }
  return lost;
}

/// Rewrite the lost chunks and sync — the application-level restart step a
/// checkpointing workload would take — then require byte-exactness.
void repair_and_verify(DafsBed& bed, const std::vector<std::byte>& data,
                       const std::vector<int>& lost) {
  {
    sim::ActorScope scope(*bed.client_actor);
    auto fh = require(bed.client->open("/e15"), "open for repair");
    for (int i : lost) {
      const std::size_t off = static_cast<std::size_t>(i) * kChunk;
      auto w = bed.client->pwrite(fh, off, std::span(data.data() + off,
                                                      kChunk));
      if (!w.ok() || w.value() != kChunk) {
        std::fprintf(stderr, "bench: repair pwrite chunk %d failed\n", i);
        std::abort();
      }
    }
    require_ok(bed.client->sync(fh), "repair sync");
  }
  if (!lost_chunks(bed, data).empty()) {
    std::fprintf(stderr, "bench: file not byte-exact after repair\n");
    std::abort();
  }
}

/// Saturate the admission queue with concurrent async writes against a tiny
/// limit: excess requests are shed with kBusy, the client backs off and
/// retries, and the bounded replay cache keeps server memory flat.
void overload_phase(DafsBed& bed, const std::vector<std::byte>& data) {
  sim::ActorScope scope(*bed.client_actor);
  auto fh = require(bed.client->open("/e15"), "open for overload");
  bed.server->set_admission_limit(2);
  constexpr int kInflight = 8;
  constexpr int kRounds = 4;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<dafs::OpId> ops;
    for (int j = 0; j < kInflight; ++j) {
      auto h = bed.client->submit_pwrite(
          fh, static_cast<std::uint64_t>(j) * kChunk,
          std::span(data.data(), kChunk));
      if (h.ok()) ops.push_back(h.value());
    }
    require_ok(bed.client->wait_all(ops), "overload wait_all");
  }
  bed.server->set_admission_limit(256);
}

}  // namespace

int main() {
  std::printf("E15 [server crash]: 96 x 64 KiB DAFS writes, sync every %d "
              "chunks, server killed after request %llu and restarted %llu ms "
              "later with volatile state discarded\n\n",
              kWindow, static_cast<unsigned long long>(kCrashAfter),
              static_cast<unsigned long long>(kRestartMs));

  const auto data = make_data(static_cast<std::size_t>(kChunks) * kChunk, 15);

  dafs::RetryPolicy retry;
  retry.attempts = 8;
  retry.backoff_ns = 100'000;
  retry.backoff_cap_ns = 10'000'000;
  retry.jitter_seed = 15;
  const dafs::MountSpec mspec = dafs::single_mount("dafs", retry);

  dafs::ServerConfig scfg;
  scfg.grace_period_ms = 5;  // short grace so the bench stays quick

  DafsBed clean(mspec, scfg);
  const StreamResult base = run_stream(clean, data);

  DafsBed crashed(mspec, scfg);
  crashed.fabric.faults().arm(15);
  crashed.fabric.faults().crash_server_after_requests(kCrashAfter, kRestartMs);
  const StreamResult hurt = run_stream(crashed, data);
  crashed.fabric.faults().clear();

  const std::vector<int> lost = lost_chunks(crashed, data);
  // Un-synced loss must be confined to the single window the crash landed
  // in: every checkpointed chunk came back byte-exact.
  if (static_cast<int>(lost.size()) > kWindow ||
      (!lost.empty() && lost.back() - lost.front() >= kWindow)) {
    std::fprintf(stderr, "bench: lost chunks not confined to one window\n");
    std::abort();
  }
  repair_and_verify(crashed, data, lost);

  Table t({"window", "clean MB/s", "crashed MB/s", "ratio"});
  for (std::size_t w = 0; w < hurt.window_mbps.size(); ++w) {
    t.row({std::to_string(w * kWindow) + "-" +
               std::to_string((w + 1) * kWindow - 1),
           fmt(base.window_mbps[w]), fmt(hurt.window_mbps[w]),
           fmt(hurt.window_mbps[w] / base.window_mbps[w], 2)});
  }
  t.print();
  std::printf("total: clean %.1f MB/s, crashed %.1f MB/s\n", base.total_mbps,
              hurt.total_mbps);
  std::printf("un-synced chunks lost to the crash: %zu (confined to one "
              "%d-chunk window, repaired and re-synced)\n",
              lost.size(), kWindow);

  overload_phase(crashed, data);

  // Crash/recovery counters (dafs.server_crashes, session_reclaims,
  // retransmits, busy_shed, ...), the replay-cache gauge and the
  // service-latency percentiles all ride in the unified metrics document.
  emit_metrics_json(crashed.fabric, "e15_server_crash",
                    "{\"chunk\":65536,\"chunks\":96,\"sync_every\":8,"
                    "\"crash_after\":40,\"restart_ms\":20,\"seed\":15}");
  return 0;
}
