#include "dafs/server.hpp"

#include <cstring>
#include <string>

namespace dafs {

using sim::Actor;
using sim::CostKind;

// ---------------------------------------------------------------------------
// Live telemetry (kStatsQuery + per-client attribution)
// ---------------------------------------------------------------------------

void Server::account_client(std::uint64_t client_id, const ClientStat& delta) {
  // 0 is "no identity yet" — only a client's very first kConnect, before the
  // server has minted it a session to adopt as its id.
  if (client_id == 0) return;
  std::lock_guard lock(cstats_mu_);
  ClientStat& c = cstats_[client_id];
  c.bytes_in += delta.bytes_in;
  c.bytes_out += delta.bytes_out;
  c.ops_read += delta.ops_read;
  c.ops_write += delta.ops_write;
  c.ops_meta += delta.ops_meta;
  c.queue_wait_ns += delta.queue_wait_ns;
  c.service_ns += delta.service_ns;
  c.retransmits += delta.retransmits;
  c.sheds += delta.sheds;
}

std::map<std::uint64_t, Server::ClientStat> Server::client_stats() const {
  std::lock_guard lock(cstats_mu_);
  return cstats_;
}

void Server::do_stats(MsgView& resp) {
  Actor* actor = Actor::current();
  WireStatsHeader h;
  h.role = static_cast<std::uint32_t>(
      static_cast<int>(role_.load(std::memory_order_acquire)));
  h.term = epoch_.load(std::memory_order_relaxed);
  h.now_ns = actor->now();
  h.sessions_live = session_count();
  h.admission_queue_depth = recv_cq_.pending();
  h.admission_limit = admission_limit();
  h.replay_cache_bytes = replay_cache_bytes();
  h.requests_total = fabric_.stats().get("dafs.requests");
  h.busy_sheds = fabric_.stats().get("dafs.busy_shed");
  h.crash_count = crash_count();
  h.scrub_passes = scrub_passes();
  h.scrub_blocks = fabric_.stats().get("dafs.scrub_blocks_verified");
  h.resilver_bytes = resilver_bytes();
  h.commit_offset = commit_offset();

  resp.header().name_len = 0;
  std::byte* base = resp.data_payload();
  const std::size_t cap = resp.inline_capacity(0);
  std::size_t off = sizeof(WireStatsHeader);

  // Session table. Holding cstats_mu_ here is safe: nothing below takes it
  // (the gauge sampling further down runs after the guard is released).
  {
    std::lock_guard lock(cstats_mu_);
    for (const auto& [cid, cs] : cstats_) {
      if (off + sizeof(WireSessionStats) > cap) {
        h.truncated = 1;
        break;
      }
      WireSessionStats w;
      w.client_id = cid;
      w.bytes_in = cs.bytes_in;
      w.bytes_out = cs.bytes_out;
      w.ops_read = cs.ops_read;
      w.ops_write = cs.ops_write;
      w.ops_meta = cs.ops_meta;
      w.queue_wait_ns = cs.queue_wait_ns;
      w.service_ns = cs.service_ns;
      w.retransmits = cs.retransmits;
      w.sheds = cs.sheds;
      std::memcpy(base + off, &w, sizeof(w));
      off += sizeof(w);
      ++h.nsessions;
    }
  }

  // Key/value section: every fabric counter, then every gauge (sampled
  // now). Clipped, never split — a key that does not fit whole is dropped
  // and the snapshot marked truncated.
  const auto put_kv = [&](const std::string& key, std::uint64_t value) {
    const std::size_t need = sizeof(WireStatsKv) + key.size();
    if (off + need > cap) {
      h.truncated = 1;
      return false;
    }
    WireStatsKv kv;
    kv.value = value;
    kv.key_len = static_cast<std::uint32_t>(key.size());
    std::memcpy(base + off, &kv, sizeof(kv));
    std::memcpy(base + off + sizeof(kv), key.data(), key.size());
    off += need;
    ++h.nkv;
    return true;
  };
  for (const auto& [key, value] : fabric_.stats().snapshot()) {
    if (!put_kv(key, value)) break;
  }
  if (h.truncated == 0) {
    for (const auto& [key, value] : fabric_.metrics().sample_gauges()) {
      if (!put_kv(key, value)) break;
    }
  }

  std::memcpy(base, &h, sizeof(h));
  resp.header().data_len = static_cast<std::uint32_t>(off);
  resp.header().len = off;
  actor->charge(CostKind::kCopy, fabric_.cost().copy_time(off));
}

}  // namespace dafs
