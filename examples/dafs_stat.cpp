// dafs_stat: a "top for the filer" — one session generates mixed file
// traffic while a second session polls the in-band kStatsQuery snapshot and
// prints the server's live state: role/term, queue depth, aggregate
// counters, and the per-client attribution table. The stats plane is served
// outside admission control, so exactly this tool keeps working while the
// filer sheds load.
#include <cstdio>
#include <vector>

#include "dafs/client.hpp"
#include "dafs/server.hpp"

namespace {

const char* role_name(std::uint32_t r) {
  switch (static_cast<dafs::Server::Role>(r)) {
    case dafs::Server::Role::kLeader: return "leader";
    case dafs::Server::Role::kFollower: return "follower";
    case dafs::Server::Role::kCandidate: return "candidate";
  }
  return "?";
}

void print_snapshot(const dafs::StatsSnapshot& snap) {
  const dafs::WireStatsHeader& h = snap.header;
  std::printf("filer @ %.3f ms virtual: role=%s term=%llu sessions=%llu "
              "queue=%llu/%llu replay_cache=%lluB requests=%llu sheds=%llu%s\n",
              sim::to_msec(h.now_ns), role_name(h.role),
              static_cast<unsigned long long>(h.term),
              static_cast<unsigned long long>(h.sessions_live),
              static_cast<unsigned long long>(h.admission_queue_depth),
              static_cast<unsigned long long>(h.admission_limit),
              static_cast<unsigned long long>(h.replay_cache_bytes),
              static_cast<unsigned long long>(h.requests_total),
              static_cast<unsigned long long>(h.busy_sheds),
              h.truncated != 0 ? " (truncated)" : "");
  std::printf("  %-10s %12s %12s %8s %8s %8s %6s %6s\n", "client", "bytes_in",
              "bytes_out", "reads", "writes", "meta", "retx", "sheds");
  for (const dafs::WireSessionStats& s : snap.sessions) {
    std::printf("  %-10llu %12llu %12llu %8llu %8llu %8llu %6llu %6llu\n",
                static_cast<unsigned long long>(s.client_id),
                static_cast<unsigned long long>(s.bytes_in),
                static_cast<unsigned long long>(s.bytes_out),
                static_cast<unsigned long long>(s.ops_read),
                static_cast<unsigned long long>(s.ops_write),
                static_cast<unsigned long long>(s.ops_meta),
                static_cast<unsigned long long>(s.retransmits),
                static_cast<unsigned long long>(s.sheds));
  }
}

}  // namespace

int main() {
  sim::Fabric fabric;
  dafs::Server filer(fabric, fabric.add_node("filer"));
  filer.start();

  // The workload session and the monitor session live on separate nodes —
  // the monitor is an observer, not part of the load.
  const auto work_node = fabric.add_node("worker");
  const auto mon_node = fabric.add_node("monitor");
  via::Nic work_nic(fabric, work_node, "work-nic");
  via::Nic mon_nic(fabric, mon_node, "mon-nic");
  sim::Actor work_actor("worker", &fabric.node(work_node));
  sim::Actor mon_actor("monitor", &fabric.node(mon_node));

  std::unique_ptr<dafs::Client> worker;
  {
    sim::ActorScope scope(work_actor);
    worker = std::move(dafs::Client::connect(work_nic).value());
  }
  std::unique_ptr<dafs::Client> monitor;
  {
    sim::ActorScope scope(mon_actor);
    monitor = std::move(dafs::Client::connect(mon_nic).value());
  }

  // Interleave load with polls: each round writes/reads a chunk, then the
  // monitor samples the live snapshot.
  std::vector<std::byte> chunk(64 * 1024);
  for (std::size_t i = 0; i < chunk.size(); ++i) {
    chunk[i] = static_cast<std::byte>(i & 0xff);
  }
  dafs::Fh fh;
  {
    sim::ActorScope scope(work_actor);
    fh = worker->open("/stat-demo.bin", dafs::kOpenCreate).value();
  }
  for (int round = 0; round < 4; ++round) {
    {
      sim::ActorScope scope(work_actor);
      for (int k = 0; k < 8; ++k) {
        worker->pwrite(fh, static_cast<std::uint64_t>(k) * chunk.size(),
                       chunk);
      }
      std::vector<std::byte> back(chunk.size());
      worker->pread(fh, 0, back);
      worker->getattr(fh);
    }
    sim::ActorScope scope(mon_actor);
    auto snap = monitor->query_stats();
    if (!snap.ok()) {
      std::printf("stats query failed: %s\n", dafs::to_string(snap.error()));
      continue;
    }
    print_snapshot(snap.value());
  }

  {
    sim::ActorScope scope(work_actor);
    worker.reset();
  }
  sim::ActorScope scope(mon_actor);
  monitor.reset();
  return 0;
}
