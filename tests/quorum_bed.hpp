#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dafs/mount.hpp"
#include "dafs/server.hpp"
#include "fstore/journal.hpp"
#include "sim/fabric.hpp"

/// \file quorum_bed.hpp
/// The quorum test bed the replicated-filer suites share: N members on
/// their own nodes of one fabric, member i serving clients at "<prefix><i>"
/// and running consensus over "<prefix>-raft-<i>" (every member lists the
/// whole group, index = member id), plus the real-time waits and the
/// test-speed mount those suites need.
namespace dafs_test {

/// Server knobs for a fast test group: a 10 ms reclaim grace window and a
/// 50 ms commit-barrier budget, so a partitioned leader demotes requests
/// quickly.
inline dafs::ServerConfig quorum_test_config() {
  dafs::ServerConfig cfg;
  cfg.grace_period_ms = 10;
  cfg.repl_retry.deadline_ns = 50'000'000;
  return cfg;
}

struct QuorumBed {
  sim::Fabric& fabric;
  std::string prefix;
  std::vector<sim::NodeId> nodes;
  std::vector<std::unique_ptr<dafs::Server>> members;

  QuorumBed(sim::Fabric& f, std::size_t n, std::string service_prefix,
            dafs::ServerConfig base = quorum_test_config())
      : fabric(f), prefix(std::move(service_prefix)) {
    std::vector<std::string> group;
    for (std::size_t i = 0; i < n; ++i) {
      group.push_back(prefix + "-raft-" + std::to_string(i));
    }
    for (std::size_t i = 0; i < n; ++i) {
      nodes.push_back(f.add_node("filer-" + std::to_string(i)));
      dafs::ServerConfig cfg = base;
      cfg.service = client_service(i);
      cfg.quorum_group = group;
      cfg.member_id = static_cast<std::uint32_t>(i);
      cfg.repl_retry.jitter_seed = 100 + i;
      members.push_back(std::make_unique<dafs::Server>(f, nodes.back(), cfg));
    }
    for (auto& m : members) m->start();
  }

  ~QuorumBed() {
    for (auto it = members.rbegin(); it != members.rend(); ++it) {
      (*it)->stop();
    }
  }

  QuorumBed(const QuorumBed&) = delete;
  QuorumBed& operator=(const QuorumBed&) = delete;

  std::string client_service(std::size_t i) const {
    return prefix + std::to_string(i);
  }

  std::vector<std::string> services() const {
    std::vector<std::string> out;
    for (std::size_t i = 0; i < members.size(); ++i) {
      out.push_back(client_service(i));
    }
    return out;
  }

  dafs::Server& member(int i) const {
    return *members[static_cast<std::size_t>(i)];
  }

  /// Index of a live leader, -1 if none right now.
  int leader() const {
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (!members[i]->crashed() &&
          members[i]->role() == dafs::Server::Role::kLeader) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }

  /// Real-time wait (up to 15 s) for some live member other than `not_this`
  /// to hold leadership; -1 when none did.
  int wait_leader(int not_this = -1) const {
    for (int i = 0; i < 15'000; ++i) {
      const int l = leader();
      if (l >= 0 && l != not_this) return l;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return -1;
  }

  /// A quorum mount with test-speed backoffs and a jitter stream per
  /// (seed, rank). `preferred` rotates the initial probe order, so clients
  /// spread across the group (or a test binds a chosen member first).
  /// Recovery spends one endpoint pass per kNotLeader probe, so the
  /// ride-out budget for an election is roughly members * attempts paced
  /// probes; sanitizer builds on a loaded core stretch elections well past
  /// the default budget, hence 20 attempts.
  dafs::MountSpec mount(std::uint64_t seed, int rank,
                        std::size_t preferred = 0, int max_busy_retries = 64,
                        dafs::ClientConfig client = {}) const {
    dafs::RetryPolicy retry;
    retry.attempts = 20;
    retry.backoff_ns = 20'000;
    retry.backoff_cap_ns = 2'000'000;
    retry.jitter_seed = seed * 131 + static_cast<std::uint64_t>(rank);
    retry.max_busy_retries = max_busy_retries;
    return dafs::quorum_mount(services(), retry, std::move(client), preferred);
  }
};

/// Real-time wait for a crashed member to come back up.
inline void wait_restart(dafs::Server& server) {
  while (server.crashed()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

/// The member's whole journal, byte for byte.
inline std::vector<std::byte> journal_of(dafs::Server& s) {
  return s.store().journal_log().read(0, static_cast<std::size_t>(-1));
}

}  // namespace dafs_test
