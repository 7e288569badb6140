#include "sim/fault.hpp"

#include <utility>

namespace sim {

void FaultPlan::arm(std::uint64_t seed) {
  std::lock_guard lock(mu_);
  rng_ = Rng(seed);
  drop_prob_ = dup_prob_ = delay_prob_ = 0.0;
  delay_ = 0;
  node_filter_ = kAnyNode;
  conn_filter_.clear();
  breaks_.clear();
  reg_failures_left_ = 0;
  fstore_read_failures_left_ = 0;
  short_read_prob_ = 0.0;
  corrupt_prob_ = 0.0;
  corrupt_transfers_left_ = 0;
  fstore_corrupt_armed_ = false;
  fstore_corrupt_skip_ = 0;
  crash_ = CrashRule{};
  crash_node_filter_ = kAnyNode;
  partitions_.clear();
  armed_.store(false, std::memory_order_relaxed);
}

void FaultPlan::clear() {
  std::lock_guard lock(mu_);
  drop_prob_ = dup_prob_ = delay_prob_ = 0.0;
  delay_ = 0;
  breaks_.clear();
  reg_failures_left_ = 0;
  fstore_read_failures_left_ = 0;
  short_read_prob_ = 0.0;
  corrupt_prob_ = 0.0;
  corrupt_transfers_left_ = 0;
  fstore_corrupt_armed_ = false;
  fstore_corrupt_skip_ = 0;
  crash_ = CrashRule{};
  partitions_.clear();
  armed_.store(false, std::memory_order_relaxed);
}

void FaultPlan::recompute_armed_locked() {
  const bool any = drop_prob_ > 0.0 || dup_prob_ > 0.0 || delay_prob_ > 0.0 ||
                   !breaks_.empty() || reg_failures_left_ > 0 ||
                   fstore_read_failures_left_ > 0 || short_read_prob_ > 0.0 ||
                   corrupt_prob_ > 0.0 || corrupt_transfers_left_ > 0 ||
                   fstore_corrupt_armed_ || crash_.armed ||
                   !partitions_.empty();
  armed_.store(any, std::memory_order_relaxed);
}

void FaultPlan::set_drop_prob(double p) {
  std::lock_guard lock(mu_);
  drop_prob_ = p;
  recompute_armed_locked();
}

void FaultPlan::set_duplicate_prob(double p) {
  std::lock_guard lock(mu_);
  dup_prob_ = p;
  recompute_armed_locked();
}

void FaultPlan::set_delay(double p, Time delay) {
  std::lock_guard lock(mu_);
  delay_prob_ = p;
  delay_ = delay;
  recompute_armed_locked();
}

void FaultPlan::restrict_to_node(NodeId node) {
  std::lock_guard lock(mu_);
  node_filter_ = node;
}

void FaultPlan::restrict_to_conn(std::string conn) {
  std::lock_guard lock(mu_);
  conn_filter_ = std::move(conn);
}

void FaultPlan::break_conn_after(std::string conn, std::uint64_t n,
                                 bool repeat) {
  std::lock_guard lock(mu_);
  breaks_[std::move(conn)] = BreakRule{n, 0, repeat, false};
  recompute_armed_locked();
}

void FaultPlan::fail_next_registrations(std::uint64_t n) {
  std::lock_guard lock(mu_);
  reg_failures_left_ = n;
  recompute_armed_locked();
}

void FaultPlan::crash_server_after_requests(std::uint64_t n,
                                            std::uint64_t restart_delay_ms) {
  std::lock_guard lock(mu_);
  crash_ = CrashRule{};
  crash_.armed = true;
  crash_.after_requests = n == 0 ? 1 : n;
  crash_.restart_delay_ms = restart_delay_ms;
  recompute_armed_locked();
}

void FaultPlan::crash_server_at(Time t, std::uint64_t restart_delay_ms) {
  std::lock_guard lock(mu_);
  crash_ = CrashRule{};
  crash_.armed = true;
  crash_.at_time = t;
  crash_.restart_delay_ms = restart_delay_ms;
  recompute_armed_locked();
}

void FaultPlan::restrict_crash_to_node(NodeId node) {
  std::lock_guard lock(mu_);
  crash_node_filter_ = node;
}

void FaultPlan::partition_nodes(NodeId a, NodeId b, std::uint64_t heal_after_ms) {
  if (a == b) return;
  if (a > b) std::swap(a, b);
  const Deadline heal_at = heal_after_ms > 0
                               ? Deadline::modeled(heal_after_ms * kMsec)
                               : Deadline::never();
  std::lock_guard lock(mu_);
  for (auto& p : partitions_) {
    if (p.a == a && p.b == b) {
      p.heal_at = heal_at;
      return;
    }
  }
  Partition p;
  p.a = a;
  p.b = b;
  p.heal_at = heal_at;
  partitions_.push_back(p);
  recompute_armed_locked();
}

void FaultPlan::heal_partition(NodeId a, NodeId b) {
  if (a > b) std::swap(a, b);
  std::lock_guard lock(mu_);
  std::erase_if(partitions_,
                [&](const Partition& p) { return p.a == a && p.b == b; });
  recompute_armed_locked();
}

void FaultPlan::heal_all_partitions() {
  std::lock_guard lock(mu_);
  partitions_.clear();
  recompute_armed_locked();
}

bool FaultPlan::partitioned_locked(NodeId a, NodeId b) {
  if (partitions_.empty()) return false;
  if (a > b) std::swap(a, b);
  // Lazily retire partitions whose heal deadline has passed.
  const std::size_t before = partitions_.size();
  std::erase_if(partitions_,
                [](const Partition& p) { return p.heal_at.passed(); });
  if (partitions_.size() != before) recompute_armed_locked();
  for (const Partition& p : partitions_) {
    if (p.a == a && p.b == b) return true;
  }
  return false;
}

bool FaultPlan::partitioned(NodeId a, NodeId b) {
  if (!armed()) return false;
  std::lock_guard lock(mu_);
  return partitioned_locked(a, b);
}

void FaultPlan::fail_next_fstore_reads(std::uint64_t n) {
  std::lock_guard lock(mu_);
  fstore_read_failures_left_ = n;
  recompute_armed_locked();
}

void FaultPlan::set_short_read_prob(double p) {
  std::lock_guard lock(mu_);
  short_read_prob_ = p;
  recompute_armed_locked();
}

void FaultPlan::set_corrupt_prob(double p) {
  std::lock_guard lock(mu_);
  corrupt_prob_ = p;
  recompute_armed_locked();
}

void FaultPlan::corrupt_next_transfers(std::uint64_t n) {
  std::lock_guard lock(mu_);
  corrupt_transfers_left_ = n;
  recompute_armed_locked();
}

void FaultPlan::corrupt_fstore_block_after(std::uint64_t skip) {
  std::lock_guard lock(mu_);
  fstore_corrupt_armed_ = true;
  fstore_corrupt_skip_ = skip;
  recompute_armed_locked();
}

bool FaultPlan::transfer_candidate_locked(const std::string& conn, NodeId src,
                                          NodeId dst) const {
  if (node_filter_ != kAnyNode && src != node_filter_ && dst != node_filter_) {
    return false;
  }
  return conn_filter_.empty() || conn == conn_filter_;
}

TransferFault FaultPlan::on_transfer(const std::string& conn, NodeId src,
                                     NodeId dst) {
  TransferFault f;
  if (!armed()) return f;
  std::lock_guard lock(mu_);
  // Partitions cut the link unconditionally (both directions, every conn),
  // independent of the node/conn filters that scope the probabilistic faults.
  if (partitioned_locked(src, dst)) {
    f.drop = true;
    return f;
  }
  if (!transfer_candidate_locked(conn, src, dst)) return f;
  if (drop_prob_ > 0.0 && rng_.unit() < drop_prob_) {
    f.drop = true;
    return f;  // a dropped message can't also be duplicated or delayed
  }
  if (dup_prob_ > 0.0 && rng_.unit() < dup_prob_) f.duplicate = true;
  if (delay_prob_ > 0.0 && rng_.unit() < delay_prob_) f.delay = delay_;
  if (corrupt_transfers_left_ > 0) {
    --corrupt_transfers_left_;
    f.corrupt = true;
    if (corrupt_transfers_left_ == 0) recompute_armed_locked();
  } else if (corrupt_prob_ > 0.0 && rng_.unit() < corrupt_prob_) {
    f.corrupt = true;
  }
  if (f.corrupt) {
    f.corrupt_seed = rng_.next();
    if (f.corrupt_seed == 0) f.corrupt_seed = 1;  // 0 = "intact" downstream
  }
  return f;
}

bool FaultPlan::on_conn_completion(const std::string& conn) {
  if (!armed()) return false;
  std::lock_guard lock(mu_);
  auto it = breaks_.find(conn);
  if (it == breaks_.end()) return false;
  BreakRule& r = it->second;
  if (r.spent) return false;
  if (++r.seen < r.every) return false;
  r.seen = 0;
  if (!r.repeat) r.spent = true;
  return true;
}

bool FaultPlan::on_register() {
  if (!armed()) return false;
  std::lock_guard lock(mu_);
  if (reg_failures_left_ == 0) return false;
  --reg_failures_left_;
  return true;
}

bool FaultPlan::on_fstore_read(std::uint64_t* len) {
  if (!armed()) return false;
  std::lock_guard lock(mu_);
  if (fstore_read_failures_left_ > 0) {
    --fstore_read_failures_left_;
    return true;
  }
  if (len != nullptr && *len > 1 && short_read_prob_ > 0.0 &&
      rng_.unit() < short_read_prob_) {
    *len = 1 + rng_.below(*len - 1);  // short but never empty
  }
  return false;
}

bool FaultPlan::on_fstore_write(std::uint64_t* flip) {
  if (!armed()) return false;
  std::lock_guard lock(mu_);
  if (!fstore_corrupt_armed_) return false;
  if (fstore_corrupt_skip_ > 0) {
    --fstore_corrupt_skip_;
    return false;
  }
  fstore_corrupt_armed_ = false;  // one-shot
  if (flip != nullptr) *flip = rng_.next();
  recompute_armed_locked();
  return true;
}

bool FaultPlan::on_server_request(Time now, NodeId node,
                                  std::uint64_t* restart_delay_ms) {
  if (!armed()) return false;
  std::lock_guard lock(mu_);
  if (!crash_.armed) return false;
  if (crash_node_filter_ != kAnyNode && node != crash_node_filter_) {
    return false;
  }
  bool trip = false;
  if (crash_.after_requests > 0) {
    trip = ++crash_.seen >= crash_.after_requests;
  } else {
    trip = now >= crash_.at_time;
  }
  if (!trip) return false;
  if (restart_delay_ms != nullptr) *restart_delay_ms = crash_.restart_delay_ms;
  crash_ = CrashRule{};  // one-shot
  recompute_armed_locked();
  return true;
}

}  // namespace sim
