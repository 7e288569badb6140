// E20 (live telemetry, beyond the paper): can the filer's in-band stats
// plane identify a misbehaving client *while* the data plane is shedding
// load? One greedy client floods async direct writes into a tiny admission
// limit alongside two well-behaved mixed clients; a fourth session polls
// kStatsQuery concurrently. Every poll must succeed (the stats plane
// bypasses admission control), and the final per-client attribution table
// must name the flooder: most bytes in, most kBusy sheds. The run also arms
// the fabric time-series sampler, so the closing metrics JSON carries a
// "timeseries" section with the queue-depth/shed history for plotting.
#include <cstring>

#include "bench/common.hpp"

using namespace bench;

namespace {

constexpr std::size_t kChunk = 32 * 1024;  // direct path
constexpr int kRounds = 6;
constexpr int kGreedyInflight = 8;
constexpr std::uint64_t kGreedyId = 101;
constexpr std::uint64_t kModestIdA = 102;
constexpr std::uint64_t kModestIdB = 103;
constexpr std::uint64_t kMonitorId = 104;

/// One client: its own node, NIC, actor and session (distinct client_id so
/// the server's attribution table keeps the rows apart).
struct Rig {
  sim::NodeId node;
  std::unique_ptr<via::Nic> nic;
  std::unique_ptr<sim::Actor> actor;
  std::unique_ptr<dafs::Client> client;

  Rig(sim::Fabric& fabric, const std::string& name, std::uint64_t client_id) {
    node = fabric.add_node(name);
    nic = std::make_unique<via::Nic>(fabric, node, name + "-nic");
    actor = std::make_unique<sim::Actor>(name, &fabric.node(node));
    dafs::MountSpec spec;
    spec.client.client_id = client_id;
    sim::ActorScope scope(*actor);
    client = std::move(dafs::Client::connect(*nic, spec).value());
  }
  ~Rig() {
    sim::ActorScope scope(*actor);
    client.reset();
  }
};

struct Poll {
  std::uint64_t now_ns = 0;
  std::uint64_t queue = 0;
  std::uint64_t busy_sheds = 0;
  std::uint64_t greedy_bytes_in = 0;
  std::uint64_t greedy_sheds = 0;
};

Poll record_poll(const dafs::StatsSnapshot& snap) {
  Poll p;
  p.now_ns = snap.header.now_ns;
  p.queue = snap.header.admission_queue_depth;
  p.busy_sheds = snap.header.busy_sheds;
  if (const auto* g = snap.find_client(kGreedyId)) {
    p.greedy_bytes_in = g->bytes_in;
    p.greedy_sheds = g->sheds;
  }
  return p;
}

}  // namespace

int main() {
  std::printf("E20 [telemetry]: one greedy client flooding %d x %zu KiB async "
              "writes into admission limit 2 beside two modest clients; a "
              "monitor session polls kStatsQuery through the overload\n\n",
              kGreedyInflight, kChunk / 1024);

  sim::Fabric fabric;
  // Sample the admission/shed history on the server's virtual clock; the
  // rings land in the metrics JSON as the "timeseries" section.
  sim::TimeSeriesConfig tscfg;
  tscfg.interval_ns = 20'000;  // 20 us virtual cadence
  tscfg.capacity = 512;
  tscfg.counters = {"dafs.requests", "dafs.busy_shed"};
  fabric.metrics().enable_timeseries(tscfg);

  const auto filer_node = fabric.add_node("filer");
  dafs::ServerConfig scfg;
  scfg.workers = 1;  // one worker: queue depth is load, not parallelism
  dafs::Server filer(fabric, filer_node, scfg);
  filer.start();

  Rig greedy(fabric, "greedy", kGreedyId);
  Rig modest_a(fabric, "modest-a", kModestIdA);
  Rig modest_b(fabric, "modest-b", kModestIdB);
  Rig monitor(fabric, "monitor", kMonitorId);

  const auto data = make_data(kChunk * kGreedyInflight, 20);

  // Warm-up: every workload client creates its file before the squeeze.
  dafs::Fh gfh, afh, bfh;
  {
    sim::ActorScope scope(*greedy.actor);
    gfh = require(greedy.client->open("/greedy.bin", dafs::kOpenCreate),
                  "open greedy");
  }
  {
    sim::ActorScope scope(*modest_a.actor);
    afh = require(modest_a.client->open("/a.bin", dafs::kOpenCreate),
                  "open a");
    require(modest_a.client->pwrite(afh, 0, std::span(data.data(), kChunk)),
            "seed a");
  }
  {
    sim::ActorScope scope(*modest_b.actor);
    bfh = require(modest_b.client->open("/b.bin", dafs::kOpenCreate),
                  "open b");
    require(modest_b.client->pwrite(bfh, 0, std::span(data.data(), kChunk)),
            "seed b");
  }

  // Overload: tiny admission limit; the greedy client keeps kGreedyInflight
  // async writes in flight while the monitor polls mid-flood.
  filer.set_admission_limit(2);
  std::vector<Poll> polls;
  int failed_polls = 0;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<dafs::OpId> ops;
    {
      sim::ActorScope scope(*greedy.actor);
      for (int j = 0; j < kGreedyInflight; ++j) {
        auto h = greedy.client->submit_pwrite(
            gfh, static_cast<std::uint64_t>(j) * kChunk,
            std::span(data.data() + static_cast<std::size_t>(j) * kChunk,
                      kChunk));
        if (h.ok()) ops.push_back(h.value());
      }
    }
    // Poll while the flood is in flight and the queue is saturated.
    {
      sim::ActorScope scope(*monitor.actor);
      auto snap = monitor.client->query_stats();
      if (snap.ok()) {
        polls.push_back(record_poll(snap.value()));
      } else {
        ++failed_polls;
      }
    }
    // The modest clients stay modest: one read + one getattr per round.
    {
      sim::ActorScope scope(*modest_a.actor);
      std::vector<std::byte> back(kChunk);
      modest_a.client->pread(afh, 0, back);
      modest_a.client->getattr(afh);
    }
    {
      sim::ActorScope scope(*modest_b.actor);
      std::vector<std::byte> back(kChunk);
      modest_b.client->pread(bfh, 0, back);
      modest_b.client->getattr(bfh);
    }
    sim::ActorScope scope(*greedy.actor);
    require_ok(greedy.client->wait_all(ops), "greedy wait_all");
  }
  filer.set_admission_limit(scfg.admission_max_queue);

  // Final snapshot: the attribution table must name the flooder.
  sim::ActorScope scope(*monitor.actor);
  auto final_snap = require(monitor.client->query_stats(), "final stats");
  const auto* g = final_snap.find_client(kGreedyId);
  const auto* a = final_snap.find_client(kModestIdA);
  const auto* b = final_snap.find_client(kModestIdB);
  if (g == nullptr || a == nullptr || b == nullptr) {
    std::fprintf(stderr, "bench: attribution table missing a client\n");
    std::abort();
  }
  if (failed_polls != 0) {
    std::fprintf(stderr, "bench: %d stats polls failed under overload\n",
                 failed_polls);
    std::abort();
  }
  if (g->bytes_in <= a->bytes_in || g->bytes_in <= b->bytes_in) {
    std::fprintf(stderr, "bench: flooder does not lead bytes_in\n");
    std::abort();
  }
  if (g->sheds == 0 || g->sheds < a->sheds || g->sheds < b->sheds) {
    std::fprintf(stderr, "bench: flooder does not lead kBusy sheds\n");
    std::abort();
  }

  Table t({"client", "bytes_in", "bytes_out", "reads", "writes", "sheds",
           "retx"});
  for (const auto* c : {g, a, b}) {
    t.row({std::to_string(c->client_id), std::to_string(c->bytes_in),
           std::to_string(c->bytes_out), std::to_string(c->ops_read),
           std::to_string(c->ops_write), std::to_string(c->sheds),
           std::to_string(c->retransmits)});
  }
  t.print();
  std::printf("verdict: client %llu is the flooder (%llu bytes in, %llu "
              "sheds); %zu/%d mid-flood stats polls answered\n\n",
              static_cast<unsigned long long>(g->client_id),
              static_cast<unsigned long long>(g->bytes_in),
              static_cast<unsigned long long>(g->sheds), polls.size(),
              kRounds);

  // Poll timeline as one JSON line (distinct from the metrics document —
  // this is the monitor's external view, sampled in-band).
  std::printf("{\"timeline\":\"e20_polls\",\"polls\":[");
  for (std::size_t i = 0; i < polls.size(); ++i) {
    const Poll& p = polls[i];
    std::printf("%s{\"t_ns\":%llu,\"queue\":%llu,\"busy_sheds\":%llu,"
                "\"greedy_bytes_in\":%llu,\"greedy_sheds\":%llu}",
                i == 0 ? "" : ",",
                static_cast<unsigned long long>(p.now_ns),
                static_cast<unsigned long long>(p.queue),
                static_cast<unsigned long long>(p.busy_sheds),
                static_cast<unsigned long long>(p.greedy_bytes_in),
                static_cast<unsigned long long>(p.greedy_sheds));
  }
  std::printf("]}\n");

  emit_metrics_json(fabric, "e20_telemetry",
                    "{\"chunk\":32768,\"rounds\":6,\"greedy_inflight\":8,"
                    "\"admission_limit\":2,\"seed\":20}");
  return 0;
}
