#include "dafs/server.hpp"

#include <algorithm>

namespace dafs {

using sim::Actor;
using sim::CostKind;

PStatus Server::deleg_gate(std::uint64_t ino, std::uint64_t deleg_id,
                           bool write_class, MsgView& resp) {
  std::lock_guard lock(deleg_mu_);
  Actor* actor = Actor::current();
  const sim::Time now = actor != nullptr ? actor->now() : 0;
  auto it = delegs_.find(ino);
  if (it == delegs_.end()) {
    if (deleg_id != 0 && write_class) {
      // A write stamped with a delegation this server does not hold live:
      // the lease lapsed and was revoked, the holder disconnected, or a
      // crash/failover produced an incarnation that never issued it. The
      // cached bytes behind it may be stale relative to writes the server
      // admitted since — fence.
      resp.header().status = PStatus::kDelegExpired;
      fabric_.stats().add("dafs.cache.expired_fences");
      return PStatus::kDelegExpired;
    }
    return PStatus::kOk;
  }
  Deleg& d = it->second;
  if (deleg_id == d.id) {
    // The holder. Expiry is checked against the server clock — a holder
    // whose lease ran out is indistinguishable from a dead one and gets the
    // same fence its stale id would earn after revocation.
    if (now >= d.expires_at) {
      finish_recall_locked(ino, d, "expired");
      delegs_.erase(it);
      if (write_class) {
        resp.header().status = PStatus::kDelegExpired;
        fabric_.stats().add("dafs.cache.expired_fences");
        return PStatus::kDelegExpired;
      }
      return PStatus::kOk;
    }
    // Live holder: every request renews the lease, and a pending recall
    // rides back on the response flags.
    d.expires_at = now + cfg_.deleg_term_ns;
    if (d.recalling) resp.header().flags |= kFlagDelegRecall;
    return PStatus::kOk;
  }
  // Foreign access to a delegated file.
  if (now >= d.expires_at) {
    // The holder never returned it within the term: revoke unilaterally and
    // admit this access. The holder is fenced by id mismatch from here on.
    finish_recall_locked(ino, d, "revoked");
    delegs_.erase(it);
    if (deleg_id != 0 && write_class) {
      resp.header().status = PStatus::kDelegExpired;
      fabric_.stats().add("dafs.cache.expired_fences");
      return PStatus::kDelegExpired;
    }
    return PStatus::kOk;
  }
  if (deleg_id != 0 && write_class) {
    // A writer carrying some other (dead) delegation's id while a different
    // client holds this file: its cache was built under a revoked lease.
    resp.header().status = PStatus::kDelegExpired;
    fabric_.stats().add("dafs.cache.expired_fences");
    return PStatus::kDelegExpired;
  }
  // A read delegation only promises "no other writer": foreign reads pass.
  if (!d.write && !write_class) return PStatus::kOk;
  // Conflict. Start the recall (idempotently) and hold the intruder off
  // with the ordinary busy-retry protocol; its retry loop outlasts the
  // lease term, so it gets in once the holder returns or the lease lapses.
  if (!d.recalling) {
    d.recalling = true;
    d.recall_started = now;
    fabric_.stats().add("dafs.cache.recalls");
  }
  resp.header().status = PStatus::kBusy;
  resp.header().aux = cfg_.busy_retry_ns;
  fabric_.stats().add("dafs.deleg_conflict_sheds");
  return PStatus::kBusy;
}

void Server::do_deleg(MsgView& req, MsgView& resp) {
  Actor::current()->charge(CostKind::kDispatch, fabric_.cost().fs_op);
  const std::uint64_t ino = req.header().ino;
  const std::uint64_t id = req.header().deleg;
  std::lock_guard lock(deleg_mu_);
  Actor* actor = Actor::current();
  const sim::Time now = actor != nullptr ? actor->now() : 0;
  auto it = delegs_.find(ino);
  if (req.header().proc == Proc::kDelegReturn) {
    // Always succeeds: returning something we no longer track is a no-op.
    if (it != delegs_.end() && it->second.id == id) {
      finish_recall_locked(ino, it->second, "returned");
      delegs_.erase(it);
    }
    return;
  }
  // kDelegRecall: the holder's renewal/recall poll.
  if (it == delegs_.end() || it->second.id != id) {
    resp.header().status = PStatus::kDelegExpired;
    return;
  }
  Deleg& d = it->second;
  if (now >= d.expires_at) {
    finish_recall_locked(ino, d, "expired");
    delegs_.erase(it);
    resp.header().status = PStatus::kDelegExpired;
    return;
  }
  d.expires_at = now + cfg_.deleg_term_ns;
  resp.header().aux = cfg_.deleg_term_ns;
  if (d.recalling) resp.header().flags |= kFlagDelegRecall;
}

void Server::maybe_grant_deleg(Session& s, const MsgHeader& req, MsgView& resp,
                               std::uint64_t ino) {
  // No fresh leases during the post-restart grace window: a pre-crash holder
  // may still believe in a delegation this incarnation knows nothing about,
  // and granting now would let two caches think they are alone.
  if (in_grace()) return;
  Actor* actor = Actor::current();
  const sim::Time now = actor != nullptr ? actor->now() : 0;
  std::lock_guard lock(deleg_mu_);
  auto it = delegs_.find(ino);
  if (it != delegs_.end()) {
    Deleg& d = it->second;
    if (req.deleg == d.id && now < d.expires_at && !d.recalling) {
      // The holder re-opening its own delegated file: re-arm the lease and
      // re-advertise the grant.
      d.expires_at = now + cfg_.deleg_term_ns;
      resp.header().deleg = d.id;
      resp.header().aux = cfg_.deleg_term_ns;
      if (d.write) resp.header().flags |= kFlagDelegWrite;
      return;
    }
    if (now < d.expires_at) return;  // someone else holds it live
    finish_recall_locked(ino, d, "expired");
    delegs_.erase(it);
  }
  // Grant only to a sole opener: any other session with the file open could
  // already be reading bytes the new holder would cache-and-mutate.
  auto op = openers_.find(ino);
  if (op != openers_.end()) {
    for (const auto& [sid, count] : op->second) {
      if (sid != s.id && count > 0) return;
    }
  }
  Deleg d;
  // Ids must never collide across server incarnations or quorum members:
  // a stale id from before a crash/failover has to fence, not alias a fresh
  // grant. Salt the counter with the member slot and the crash count
  // (next_deleg_ itself is deliberately not reset on crash).
  d.id = ((static_cast<std::uint64_t>(cfg_.member_id) + 1) << 56) |
         ((crash_count_.load(std::memory_order_relaxed) & 0xFFFF) << 40) |
         (next_deleg_++ & 0xFFFFFFFFFFull);
  d.session_id = s.id;
  d.write = (req.flags & kOpenWantWriteDeleg) != 0;
  d.expires_at = now + cfg_.deleg_term_ns;
  delegs_.emplace(ino, d);
  fabric_.stats().add("dafs.cache.grants");
  resp.header().deleg = d.id;
  resp.header().aux = cfg_.deleg_term_ns;
  if (d.write) resp.header().flags |= kFlagDelegWrite;
}

void Server::finish_recall_locked(std::uint64_t ino, Deleg& d,
                                  const char* how) {
  if (!d.recalling) return;
  d.recalling = false;
  Actor* actor = Actor::current();
  // Rooted span: the recall outlives the request that triggered it and
  // completes under whichever request observes the return/expiry.
  sim::record_span(
      fabric_, "dafs.server", "dafs.deleg.recall", d.recall_started,
      actor != nullptr ? std::max(actor->now(), d.recall_started)
                       : d.recall_started,
      sim::SpanParent::root(), {{"ino", ino}, {"deleg", d.id}, {"how", how}},
      "dafs.deleg.recall_ns");
}

void Server::release_session_delegs(std::uint64_t session_id) {
  std::lock_guard lock(deleg_mu_);
  for (auto it = delegs_.begin(); it != delegs_.end();) {
    if (it->second.session_id == session_id) {
      // A disconnect is an implicit return: the cache dies with the session.
      finish_recall_locked(it->first, it->second, "returned");
      it = delegs_.erase(it);
    } else {
      ++it;
    }
  }
  auto so = session_opens_.find(session_id);
  if (so != session_opens_.end()) {
    for (std::uint64_t ino : so->second) {
      auto op = openers_.find(ino);
      if (op == openers_.end()) continue;
      op->second.erase(session_id);
      if (op->second.empty()) openers_.erase(op);
    }
    session_opens_.erase(so);
  }
}

}  // namespace dafs
