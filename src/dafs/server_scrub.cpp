#include "dafs/server.hpp"

#include <algorithm>

#include "dafs/repl.hpp"

namespace dafs {

using sim::Actor;
using sim::ActorScope;

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// Background scrub
// ---------------------------------------------------------------------------

void Server::scrub_loop() {
  Actor actor("dafs-scrub", &fabric_.node(node_));
  ActorScope scope(actor);
  fstore::FileStore::ScrubCursor cursor;
  bool pass_open = false;
  sim::Time pass_t0 = 0;
  std::uint64_t pass_checked = 0;
  std::uint64_t pass_bad = 0;
  while (running_.load()) {
    sim::sleep(sim::Deadline::modeled(cfg_.scrub_interval_ms * sim::kMsec));
    if (!running_.load()) break;
    // Only a serving filer scrubs: a crashed one has no live image, and in a
    // quorum a follower's image is only materialized on election — the
    // leader scrubs and repairs from its followers' verified copies.
    if (crash_pending_.load() ||
        role_.load(std::memory_order_acquire) != Role::kLeader) {
      continue;
    }
    if (!pass_open) {
      pass_open = true;
      pass_t0 = actor.now();
      pass_checked = 0;
      pass_bad = 0;
    }
    const fstore::FileStore::ScrubStep step =
        store_->scrub_step(&cursor, cfg_.scrub_chunks_per_step);
    pass_checked += step.checked;
    if (step.checked > 0) {
      fabric_.stats().add("dafs.scrub_blocks_verified", step.checked);
    }
    for (const fstore::FileStore::ScrubBlock& bad : step.bad) {
      ++pass_bad;
      fabric_.stats().add("dafs.scrub_corruptions");
      if (scrub_repair_block(bad.ino, bad.chunk)) {
        fabric_.stats().add("dafs.scrub_repairs");
      } else {
        // No healthy copy anywhere: the block stays rotted, and verified
        // reads keep demoting it to kCorrupt — a read error, never silent
        // bad bytes.
        fabric_.stats().add("dafs.scrub_repair_failed");
      }
    }
    if (step.wrapped) {
      scrub_passes_.fetch_add(1, std::memory_order_relaxed);
      sim::record_span(fabric_, "dafs.server", "scrub.pass", pass_t0,
                       std::max(actor.now(), pass_t0), sim::SpanParent::root(),
                       {{"checked", pass_checked}, {"bad", pass_bad}});
      pass_open = false;
    }
  }
}

bool Server::scrub_repair_block(fstore::Ino ino, std::uint64_t chunk) {
  if (!quorum() || cfg_.quorum_group.size() < 2) return false;
  const std::size_t chunk_size = cfg_.store.chunk_size;
  // One fetch per connection: a header out, and a header plus up to one
  // chunk back within 500 ms, polled in 20 ms slices.
  const std::unique_ptr<ReplLink> link = new_repl_link();
  link->add_recv_buffers(1, sizeof(ReplHeader) + chunk_size);
  link->add_send_buffer(sizeof(ReplHeader));
  sim::Rng jitter = jitter_rng(cfg_.repl_retry.jitter_seed, ino + chunk + 1);
  // Capped, jittered exponential backoff between sweeps of the group, in
  // modeled ns.
  const std::uint64_t cap = cfg_.repl_retry.backoff_cap_ns;
  Backoff backoff(
      std::min(std::max<std::uint64_t>(cfg_.repl_retry.backoff_ns, 1), cap),
      cap);
  bool repaired = false;
  const int attempts = std::max(1, cfg_.repl_retry.attempts);
  for (int a = 0;
       a < attempts && !repaired && running_.load() && !crash_pending_.load();
       ++a) {
    if (a > 0) {
      sim::sleep(sim::Deadline::modeled(backoff.next(jitter)));
    }
    for (std::uint32_t peer = 0;
         peer < cfg_.quorum_group.size() && !repaired; ++peer) {
      if (peer == cfg_.member_id) continue;
      if (!link->connect(cfg_.quorum_group[peer],
                         std::chrono::milliseconds(200))) {
        continue;
      }
      ReplHeader req;
      req.op = ReplOp::kBlockFetch;
      req.epoch = epoch_.load(std::memory_order_relaxed);
      req.offset = chunk * chunk_size;
      req.len = static_cast<std::uint32_t>(chunk_size);
      req.commit = ino;
      req.member = cfg_.member_id;
      ReplLink::Frame resp;
      bool got = link->send(req) &&
                 link->recv(resp, sim::Deadline::host(500ms), 20ms);
      if (got && resp.header.op != ReplOp::kBlockData) {
        fabric_.stats().add("dafs.raft_malformed");  // not an answer to a fetch
        got = false;
      }
      link->drop();
      if (!got || resp.header.status != 1) continue;
      if (store_->repair_chunk(ino, chunk, resp.payload) ==
          fstore::Errc::kOk) {
        repaired = true;
      }
    }
  }
  return repaired;
}

}  // namespace dafs
