#include "dafs/server.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstring>
#include <span>

#include "fstore/journal.hpp"

namespace dafs {

using sim::Actor;
using sim::CostKind;
using via::DataSegment;
using via::Descriptor;
using via::DescStatus;

// ---------------------------------------------------------------------------
// Request dispatch
// ---------------------------------------------------------------------------

std::size_t Server::post_and_reap(Session& s, std::span<Descriptor> ds) {
  std::size_t posted = 0;
  std::size_t ok = 0;
  std::uint64_t in_flight = 0;
  bool stop = false;  // a post was refused or a completion failed
  // Every posted descriptor is reaped before the descriptors go out of
  // scope, failed or not: the send queue must not keep pointers into them.
  for (std::size_t reaped = 0; reaped < ds.size(); ++reaped) {
    // Top up the window; the oldest unreaped descriptor always goes.
    while (!stop && posted < ds.size() &&
           (posted == reaped ||
            in_flight + ds[posted].total_bytes() <= kRdmaWindowBytes)) {
      if (s.vi->post_send(ds[posted]) != via::Status::kSuccess) {
        stop = true;
        break;
      }
      in_flight += ds[posted++].total_bytes();
    }
    if (reaped == posted) break;  // nothing in flight
    Descriptor* done = nullptr;
    if (s.vi->send_wait(done, kSendWait) != via::Status::kSuccess) break;
    assert(done == &ds[reaped]);
    in_flight -= done->total_bytes();
    if (done->status != DescStatus::kSuccess) {
      stop = true;
    } else if (ok == reaped) {
      ++ok;
    }
  }
  return ok;
}

void Server::send_response(Session& s, MsgBuf& out) {
  // Child of the request's service span (inert outside one).
  sim::SpanScope span(fabric_.trace(), "dafs.server", "reply_send");
  MsgView view(out.mem.data(), out.mem.size());
  out.desc = Descriptor{};
  out.desc.op = via::Opcode::kSend;
  out.desc.segs = {DataSegment{out.mem.data(), out.handle,
                               static_cast<std::uint32_t>(view.wire_size())}};
  std::lock_guard lock(s.send_mu);
  // A lost response is not rolled back: the operation has executed, and the
  // client's retransmission is answered from the replay cache.
  if (post_and_reap(s, std::span(&out.desc, 1)) != 1) {
    fabric_.stats().add("dafs.response_send_failures");
  }
}

void Server::handle_request(Session& s, MsgBuf& req_buf, MsgBuf& out) {
  Actor* actor = Actor::current();
  const sim::CostModel& cm = fabric_.cost();
  actor->charge(CostKind::kDispatch, cm.request_dispatch);

  // Trust only the bytes that arrived. Shorter than a header, the header is
  // an earlier message's leftovers in this buffer: drop the sender.
  const std::uint64_t arrived = req_buf.desc.length;
  if (arrived < sizeof(MsgHeader)) {
    fabric_.stats().add("dafs.malformed_requests");
    s.vi->disconnect();
    return;
  }
  MsgView req(req_buf.mem.data(), req_buf.mem.size());
  MsgView resp(out.mem.data(), out.mem.size());
  resp.header() = MsgHeader{};
  resp.header().proc = req.header().proc;
  resp.header().request_id = req.header().request_id;
  resp.header().session_id = s.id;
  resp.header().seq = req.header().seq;
  resp.header().status = PStatus::kOk;
  // Refuse a name and data longer than what arrived, and a direct request's
  // segment list longer than its data.
  const MsgHeader& rh = req.header();
  if (req.wire_size() > arrived ||
      ((rh.proc == Proc::kReadDirect || rh.proc == Proc::kWriteDirect) &&
       std::uint64_t{rh.nseg} * sizeof(DirectSeg) > rh.data_len)) {
    resp.header().status = PStatus::kInval;
    fabric_.stats().add("dafs.malformed_requests");
    send_response(s, out);
    return;
  }

  // Server-side service span, parented under the client's request span via
  // the ids the request carried across the wire (inert when it carried
  // none). Everything below — admission, journal appends in the store, RDMA
  // in the via layer, the reply send — nests under it via the thread-local
  // context this scope establishes.
  sim::Tracer& tracer = fabric_.trace();
  sim::SpanScope svc(tracer, "dafs.server", proc_name(req.header().proc),
                     req.header().trace_id, req.header().parent_span_id);
  if (svc.active()) {
    svc.attr("seq", std::uint64_t{req.header().seq});
    svc.attr("session", s.id);
    // Queue wait: NIC completion of the request message -> worker pickup.
    // Parented under the *client's* span, as a sibling preceding service.
    if (req_buf.desc.done_at != 0 && actor->now() > req_buf.desc.done_at) {
      sim::record_span(fabric_, "dafs.server", "admission_wait",
                       req_buf.desc.done_at, actor->now(),
                       sim::SpanParent::ids(svc.trace_id(),
                                            req.header().parent_span_id));
    }
  }

  // Queue wait this request experienced (NIC completion -> worker pickup),
  // attributed to the issuing client whether the request is served or shed.
  const std::uint64_t entry_now = actor->now();
  const std::uint64_t wait_ns =
      req_buf.desc.done_at != 0 && entry_now > req_buf.desc.done_at
          ? entry_now - req_buf.desc.done_at
          : 0;

  // Live-telemetry fast path. kStatsQuery is answered ahead of every
  // data-plane refusal — a follower still reports its role/term, and an
  // overloaded server still reports who is flooding it
  // (the query never reaches the admission check below). A stats plane that
  // sheds with the data plane is useless during exactly the incidents it
  // exists to observe.
  if (req.header().proc == Proc::kStatsQuery) {
    if (req.header().session_id != s.id) {
      resp.header().status = PStatus::kBadSession;
    } else {
      do_stats(resp);
      ClientStat d;
      d.ops_meta = 1;
      d.bytes_in = req.wire_size();
      d.bytes_out = resp.wire_size();
      d.queue_wait_ns = wait_ns;
      d.service_ns = actor->now() - entry_now;
      account_client(req.header().client_id, d);
    }
    fabric_.stats().add("dafs.stats_queries");
    send_response(s, out);
    return;
  }

  // A quorum follower (or candidate) serves nothing but redirects: the
  // kNotLeader answer carries 1 + the leader's member index in aux so the
  // client jumps straight to the leader instead of round-robin probing. A
  // deposed leader is a follower too, so its stale sessions land here.
  if (role_.load(std::memory_order_acquire) != Role::kLeader &&
      req.header().proc != Proc::kDisconnect) {
    resp.header().status = PStatus::kNotLeader;
    resp.header().aux = leader_hint();
    fabric_.stats().add("dafs.not_leader_rejections");
    send_response(s, out);
    return;
  }

  if (req.header().proc != Proc::kConnect &&
      req.header().session_id != s.id) {
    resp.header().status = PStatus::kBadSession;
    send_response(s, out);
    return;
  }

  const Proc proc = req.header().proc;
  const std::uint64_t t0 = actor->now();

  // Piggybacked cumulative ack: everything the client has seen answered can
  // leave the replay cache (and the durable duplicate filter).
  if (req.header().ack_seq != 0) apply_ack(s, req.header());

  // Admission control + deadlines. A request popped into an over-full queue,
  // or one whose deadline already passed, is shed with kBusy + a retry-after
  // hint instead of executed. Connection management always passes — a client
  // that cannot even connect or disconnect can never drain the overload.
  if (proc != Proc::kConnect && proc != Proc::kDisconnect) {
    const std::size_t limit = admission_limit_.load(std::memory_order_relaxed);
    const bool overloaded = limit == 0 || recv_cq_.pending() > limit;
    const bool expired =
        req.header().deadline != 0 && t0 > req.header().deadline;
    if (overloaded || expired) {
      resp.header().status = PStatus::kBusy;
      resp.header().aux = overloaded ? cfg_.busy_retry_ns : 0;
      fabric_.stats().add(overloaded ? "dafs.busy_shed"
                                     : "dafs.deadline_expired");
      ClientStat d;
      d.sheds = 1;
      d.queue_wait_ns = wait_ns;
      account_client(req.header().client_id, d);
      if (expired && tracer.enabled()) {
        char attrs[96];
        std::snprintf(attrs, sizeof(attrs),
                      "\"seq\":%u,\"deadline\":%llu", req.header().seq,
                      static_cast<unsigned long long>(req.header().deadline));
        tracer.event("deadline_expired", t0, attrs);
        tracer.flight_dump("deadline");
      }
      send_response(s, out);
      return;
    }
  }

  // Exactly-once replay: a retransmitted non-idempotent request whose
  // original execution already succeeded is answered with the cached
  // response, never re-applied.
  const bool replay_protected = req.header().seq != 0 &&
                                proc != Proc::kConnect && !is_idempotent(proc);
  if (replay_protected) {
    std::lock_guard rlock(s.replay_mu);
    for (const CachedResp& c : s.replay) {
      if (c.seq == req.header().seq) {
        std::memcpy(out.mem.data(), c.bytes.data(), c.bytes.size());
        fabric_.stats().add("dafs.replay_hits");
        ClientStat d;
        d.retransmits = 1;
        d.queue_wait_ns = wait_ns;
        account_client(req.header().client_id, d);
        send_response(s, out);
        return;
      }
    }
  }

  // Delegation gate: a data-plane access to a delegated file either renews
  // the holder's lease (matching id), triggers a recall against a foreign
  // holder (kBusy + retry-after until returned or lapsed), or fences a
  // write-back whose delegation died (kDelegExpired). Runs after the replay
  // lookup — a replayed response was already applied under a live lease.
  {
    bool write_class = false;
    bool read_class = false;
    switch (proc) {
      case Proc::kWriteInline:
      case Proc::kWriteDirect:
      case Proc::kSetSize:
        write_class = true;
        break;
      case Proc::kReadInline:
      case Proc::kReadDirect:
        read_class = true;
        break;
      default:
        break;
    }
    if ((write_class || read_class) &&
        deleg_gate(req.header().ino, req.header().deleg, write_class, resp) !=
            PStatus::kOk) {
      ClientStat d;
      d.sheds = 1;
      d.queue_wait_ns = wait_ns;
      account_client(req.header().client_id, d);
      send_response(s, out);
      return;
    }
  }

  switch (req.header().proc) {
    case Proc::kConnect:
      if (req.header().flags & kConnectResume) {
        do_resume(s, req, resp);
      } else {
        resp.header().aux = s.id;
        // Replicate the session-id watermark so a successor leader mints ids
        // the deposed one could never have issued (no id reuse across the
        // group) — the same guarantee the journal gives a local restart.
        if (quorum()) {
          store_->journal_server_state(s.id + 1,
                                       epoch_.load(std::memory_order_relaxed));
        }
      }
      break;
    case Proc::kDisconnect:
      locks_.release_owner(s.id);
      release_session_delegs(s.id);
      s.closing = true;
      break;
    case Proc::kOpen:
      do_open(s, req, resp);
      break;
    case Proc::kDelegRecall:
    case Proc::kDelegReturn:
      do_deleg(req, resp);
      break;
    case Proc::kGetattr:
    case Proc::kSetSize:
    case Proc::kRemove:
    case Proc::kMkdir:
    case Proc::kRmdir:
    case Proc::kRename:
    case Proc::kSync:
    case Proc::kFetchAdd:
    case Proc::kSetCounter:
      do_namespace(req, resp);
      break;
    case Proc::kReaddir:
      do_readdir(req, resp);
      break;
    case Proc::kReadInline:
      do_read_inline(req, resp);
      break;
    case Proc::kWriteInline:
      do_write_inline(req, resp);
      break;
    case Proc::kReadDirect:
      do_read_direct(s, req, resp);
      break;
    case Proc::kWriteDirect:
      do_write_direct(s, req, resp);
      break;
    case Proc::kLock:
    case Proc::kUnlock:
      do_lock(s, req, resp);
      break;
    default:
      resp.header().status = PStatus::kProtoError;  // unknown procedure
      break;
  }
  // Cache the response *before* sending: if the send is lost to a transport
  // failure the operation has still executed, and only the cache can answer
  // the retransmission without applying it twice. Failed executions are not
  // cached — re-running them is safe (the op never took effect) and lets a
  // transient error clear.
  if (replay_protected && proc != Proc::kDisconnect &&
      resp.header().status == PStatus::kOk) {
    std::lock_guard rlock(s.replay_mu);
    s.replay.push_back(CachedResp{
        req.header().seq,
        std::vector<std::byte>(out.mem.data(),
                               out.mem.data() + resp.wire_size())});
    s.replay_bytes += s.replay.back().bytes.size();
    // Bounded by entry count and by bytes; the entry just added always
    // survives (a retransmission of *this* request must find it).
    while (s.replay.size() > 1 &&
           (s.replay.size() > cfg_.replay_entries ||
            s.replay_bytes > cfg_.replay_max_bytes)) {
      if (s.replay.size() <= cfg_.replay_entries) {
        fabric_.stats().add("dafs.replay_forced_evictions");
      }
      s.replay_bytes -= s.replay.front().bytes.size();
      s.replay.pop_front();
    }
  }
  // Quorum commit barrier: a successful op whose loss a leader change could
  // not hide (non-idempotent execution, or a sync that just made data
  // durable) is held until a majority holds the records it produced —
  // otherwise an acknowledged write could vanish with the leader, and the
  // client would never retransmit it. The barrier never degrades: an op a
  // majority does not hold is either dropped (crash; the client retransmits
  // against the survivors) or demoted to kNotLeader so the client re-runs it
  // against the real leader (safe: the durable dup filter and idempotent
  // rewrites make the retry exactly-once).
  if (quorum() && resp.header().status == PStatus::kOk &&
      (replay_protected || proc == Proc::kSync)) {
    switch (quorum_commit_barrier()) {
      case QuorumAck::kOk:
        break;
      case QuorumAck::kDrop:
        fabric_.stats().add("dafs.acks_dropped_in_crash");
        return;
      case QuorumAck::kNotLeader:
        resp.header().status = PStatus::kNotLeader;
        resp.header().aux = leader_hint();
        fabric_.stats().add("dafs.quorum_barrier_demotions");
        // The kOk response was optimistically cached above; a later
        // retransmission must not be answered with an ack the group never
        // committed.
        if (replay_protected) {
          std::lock_guard rlock(s.replay_mu);
          for (auto it = s.replay.begin(); it != s.replay.end(); ++it) {
            if (it->seq == req.header().seq) {
              s.replay_bytes -= it->bytes.size();
              s.replay.erase(it);
              break;
            }
          }
        }
        break;
    }
  }
  fabric_.stats().add("dafs.requests");
  fabric_.histograms().record("dafs.server_service_ns", actor->now() - t0);
  // Per-client attribution for the executed op. Direct transfers move their
  // payload by RDMA, outside the message wire image, so those bytes are
  // added from the transfer length the handler reported in header().len.
  {
    ClientStat d;
    d.bytes_in = req.wire_size() +
                 (proc == Proc::kWriteDirect ? resp.header().len : 0);
    d.bytes_out = resp.wire_size() +
                  (proc == Proc::kReadDirect ? resp.header().len : 0);
    if (proc == Proc::kReadInline || proc == Proc::kReadDirect) {
      d.ops_read = 1;
    } else if (proc == Proc::kWriteInline || proc == Proc::kWriteDirect) {
      d.ops_write = 1;
    } else {
      d.ops_meta = 1;
    }
    d.queue_wait_ns = wait_ns;
    d.service_ns = actor->now() - t0;
    account_client(req.header().client_id, d);
  }
  send_response(s, out);
}

void Server::apply_ack(Session& s, const MsgHeader& req) {
  std::uint64_t evicted = 0;
  {
    std::lock_guard rlock(s.replay_mu);
    for (auto it = s.replay.begin(); it != s.replay.end();) {
      if (it->seq <= req.ack_seq) {
        s.replay_bytes -= it->bytes.size();
        it = s.replay.erase(it);
        ++evicted;
      } else {
        ++it;
      }
    }
  }
  if (evicted > 0) fabric_.stats().add("dafs.replay_acked_evictions", evicted);
  if (req.client_id != 0) store_->dup_forget(req.client_id, req.ack_seq);
}

void Server::do_resume(Session& s, MsgView& req, MsgView& resp) {
  const std::uint64_t old_id = req.header().aux;
  Session* old = nullptr;
  {
    std::lock_guard lock(sessions_mu_);
    for (auto& sess : sessions_) {
      // A closing session is unresumable: either the client disconnected
      // cleanly or the server crashed since — its locks, replay cache and
      // un-synced writes are gone, and pretending otherwise would hide lost
      // state. kBadSession tells the client to reclaim from its leases.
      if (sess->id == old_id && sess.get() != &s && !sess->closing) {
        old = sess.get();
        break;
      }
    }
    if (old == nullptr) {
      resp.header().status = PStatus::kBadSession;
      return;
    }
    // Adopt the old identity wholesale: retransmitted requests carry the old
    // session id, byte-range locks are owned by it, and the replay cache
    // must follow the client to the new connection.
    {
      std::scoped_lock rlock(s.replay_mu, old->replay_mu);
      s.replay = std::move(old->replay);
      s.replay_bytes = old->replay_bytes;
      old->replay_bytes = 0;
    }
    s.id = old_id;
    old->closing = true;
  }
  // The old VI already died with the connection; this just flushes any
  // descriptors still posted on it. The record itself stays in sessions_
  // (a worker may still hold a pointer); it is reaped in stop().
  old->vi->disconnect();
  resp.header().session_id = s.id;
  resp.header().aux = s.id;
  fabric_.stats().add("dafs.session_resumes");
}

// ---------------------------------------------------------------------------
// Handlers
// ---------------------------------------------------------------------------

namespace {

/// Split "/a/b/c" into the directory path "/a/b" and the leaf "c".
std::pair<std::string_view, std::string_view> split_path(
    std::string_view path) {
  while (!path.empty() && path.back() == '/') path.remove_suffix(1);
  const auto pos = path.rfind('/');
  if (pos == std::string_view::npos) return {"", path};
  return {path.substr(0, pos), path.substr(pos + 1)};
}

void put_attrs(MsgView& resp, const fstore::Attrs& attrs) {
  resp.header().data_len = sizeof(fstore::Attrs);
  std::memcpy(resp.data_payload(), &attrs, sizeof(attrs));
}

}  // namespace

void Server::do_open(Session& s, MsgView& req, MsgView& resp) {
  Actor::current()->charge(CostKind::kDispatch, fabric_.cost().fs_op);
  // A striped client opening a layout's per-server subfile; semantically a
  // plain open, but counted so striped traffic is visible in the stats.
  if (req.header().flags & kOpenDataServer) {
    fabric_.stats().add("dafs.data_opens");
  }
  const auto [dir_path, leaf] = split_path(req.name());
  fstore::Ino ino = fstore::kInvalidIno;
  if (leaf.empty()) {
    ino = fstore::kRootIno;  // opening the root directory
  } else {
    auto dir = store_->resolve(dir_path);
    if (!dir.ok()) {
      resp.header().status = to_pstatus(dir.error());
      return;
    }
    if (req.header().flags & kOpenCreate) {
      auto r = store_->create(dir.value(), leaf,
                              (req.header().flags & kOpenExcl) != 0);
      if (!r.ok()) {
        resp.header().status = to_pstatus(r.error());
        return;
      }
      ino = r.value();
    } else {
      auto r = store_->lookup(dir.value(), leaf);
      if (!r.ok()) {
        resp.header().status = to_pstatus(r.error());
        return;
      }
      ino = r.value();
    }
  }
  // An open is a conflict point for delegations: a foreign open of a
  // write-delegated file (or a truncating open of any delegated file) must
  // recall the holder before this opener proceeds — gated here, before the
  // truncate below mutates anything.
  if (deleg_gate(ino, req.header().deleg,
                 (req.header().flags & kOpenTrunc) != 0,
                 resp) != PStatus::kOk) {
    return;
  }
  if (req.header().flags & kOpenTrunc) {
    if (const fstore::Errc e = store_->set_size(ino, 0);
        e != fstore::Errc::kOk) {
      resp.header().status = to_pstatus(e);
      return;
    }
  }
  auto attrs = store_->getattr(ino);
  if (!attrs.ok()) {
    resp.header().status = to_pstatus(attrs.error());
    return;
  }
  resp.header().ino = ino;
  put_attrs(resp, attrs.value());
  // Opener refcount, keyed (ino, session): the sole-opener grant check and
  // the disconnect sweep both read it.
  {
    std::lock_guard lock(deleg_mu_);
    int& count = openers_[ino][s.id];
    if (count++ == 0) session_opens_[s.id].push_back(ino);
  }
  if ((req.header().flags & kOpenWantDeleg) != 0) {
    maybe_grant_deleg(s, req.header(), resp, ino);
  }
}

void Server::do_namespace(MsgView& req, MsgView& resp) {
  Actor::current()->charge(CostKind::kDispatch, fabric_.cost().fs_op);
  switch (req.header().proc) {
    case Proc::kGetattr: {
      auto attrs = store_->getattr(req.header().ino);
      if (!attrs.ok()) {
        resp.header().status = to_pstatus(attrs.error());
        return;
      }
      resp.header().ino = req.header().ino;
      put_attrs(resp, attrs.value());
      return;
    }
    case Proc::kSetSize:
      resp.header().status =
          to_pstatus(store_->set_size(req.header().ino, req.header().aux));
      return;
    case Proc::kRemove: {
      const auto [dir_path, leaf] = split_path(req.name());
      auto dir = store_->resolve(dir_path);
      if (!dir.ok()) {
        resp.header().status = to_pstatus(dir.error());
        return;
      }
      resp.header().status = to_pstatus(store_->remove(dir.value(), leaf));
      return;
    }
    case Proc::kMkdir: {
      const auto [dir_path, leaf] = split_path(req.name());
      auto dir = store_->resolve(dir_path);
      if (!dir.ok()) {
        resp.header().status = to_pstatus(dir.error());
        return;
      }
      auto r = store_->mkdir(dir.value(), leaf);
      if (!r.ok()) {
        resp.header().status = to_pstatus(r.error());
        return;
      }
      resp.header().ino = r.value();
      return;
    }
    case Proc::kRmdir: {
      const auto [dir_path, leaf] = split_path(req.name());
      auto dir = store_->resolve(dir_path);
      if (!dir.ok()) {
        resp.header().status = to_pstatus(dir.error());
        return;
      }
      resp.header().status = to_pstatus(store_->rmdir(dir.value(), leaf));
      return;
    }
    case Proc::kRename: {
      const std::string_view both = req.name();
      const auto nul = both.find('\0');
      if (nul == std::string_view::npos) {
        resp.header().status = PStatus::kInval;
        return;
      }
      const auto [fd_path, f_leaf] = split_path(both.substr(0, nul));
      const auto [td_path, t_leaf] = split_path(both.substr(nul + 1));
      auto fd = store_->resolve(fd_path);
      auto td = store_->resolve(td_path);
      if (!fd.ok() || !td.ok()) {
        resp.header().status =
            to_pstatus(!fd.ok() ? fd.error() : td.error());
        return;
      }
      resp.header().status = to_pstatus(
          store_->rename(fd.value(), f_leaf, td.value(), t_leaf));
      return;
    }
    case Proc::kSync:
      resp.header().status = to_pstatus(store_->sync(req.header().ino));
      return;
    case Proc::kFetchAdd:
      // Exactly-once across crashes: the volatile replay cache dies with the
      // server, so the store keeps a durable (client_id, seq) filter and
      // returns the original old value to a retransmission.
      resp.header().aux = store_->counter_fetch_add_once(
          std::string(req.name()), req.header().aux, req.header().client_id,
          req.header().seq);
      return;
    case Proc::kSetCounter:
      store_->counter_set(std::string(req.name()), req.header().aux);
      return;
    default:
      resp.header().status = PStatus::kProtoError;
      return;
  }
}

void Server::do_readdir(MsgView& req, MsgView& resp) {
  Actor::current()->charge(CostKind::kDispatch, fabric_.cost().fs_op);
  auto dir = store_->resolve(req.name());
  if (!dir.ok()) {
    resp.header().status = to_pstatus(dir.error());
    return;
  }
  auto entries = store_->readdir(dir.value());
  if (!entries.ok()) {
    resp.header().status = to_pstatus(entries.error());
    return;
  }
  const std::uint64_t cookie = req.header().offset;
  std::byte* out = resp.data_payload();
  const std::byte* end = resp.raw() + resp.capacity();
  std::uint64_t i = cookie;
  std::uint32_t packed = 0;
  for (; i < entries.value().size(); ++i) {
    const auto& e = entries.value()[i];
    const std::size_t need = sizeof(WireDirent) + e.name.size();
    if (out + need > end) break;
    WireDirent wd;
    wd.ino = e.ino;
    wd.is_dir = e.is_dir ? 1 : 0;
    wd.name_len = static_cast<std::uint32_t>(e.name.size());
    std::memcpy(out, &wd, sizeof(wd));
    std::memcpy(out + sizeof(wd), e.name.data(), e.name.size());
    out += need;
    ++packed;
  }
  resp.header().len = packed;
  resp.header().aux = i;  // next cookie
  resp.header().flags = (i >= entries.value().size()) ? 1 : 0;
  resp.header().data_len =
      static_cast<std::uint32_t>(out - resp.data_payload());
}

void Server::do_read_inline(MsgView& req, MsgView& resp) {
  Actor::current()->charge(CostKind::kDispatch, fabric_.cost().fs_op);
  const std::size_t cap = resp.inline_capacity(0);
  const std::uint64_t want = std::min<std::uint64_t>(req.header().len, cap);
  auto r = store_->pread(
      req.header().ino, req.header().offset,
      std::span<std::byte>(resp.data_payload(), want),
      (req.header().flags & kFlagVerifyStore) != 0);
  if (!r.ok()) {
    resp.header().status = to_pstatus(r.error());
    return;
  }
  resp.header().len = r.value();
  resp.header().data_len = static_cast<std::uint32_t>(r.value());
  if ((req.header().flags & kFlagPayloadCrc) != 0 && r.value() > 0) {
    resp.header().flags |= kFlagPayloadCrc;
    resp.header().payload_crc = fstore::crc32c({resp.data_payload(), r.value()});
    Actor::current()->charge(CostKind::kChecksum,
                             fabric_.cost().copy_time(r.value()));
    fabric_.stats().add("dafs.integrity_crc_bytes", r.value());
  }
  fabric_.stats().add("dafs.inline_read_bytes", r.value());
}

void Server::do_write_inline(MsgView& req, MsgView& resp) {
  Actor::current()->charge(CostKind::kDispatch, fabric_.cost().fs_op);
  if ((req.header().flags & kFlagPayloadCrc) != 0 && req.header().data_len > 0) {
    Actor::current()->charge(CostKind::kChecksum,
                             fabric_.cost().copy_time(req.header().data_len));
    fabric_.stats().add("dafs.integrity_crc_bytes", req.header().data_len);
    if (fstore::crc32c({req.data_payload(), req.header().data_len}) !=
        req.header().payload_crc) {
      // The payload rotted on the wire: refuse before any byte lands. The
      // kCorrupt answer is never replay-cached (only kOk is), so the
      // client's fresh-seq rewrite re-executes cleanly — exactly once.
      resp.header().status = PStatus::kCorrupt;
      fabric_.stats().add("dafs.integrity_server_rejects");
      return;
    }
  }
  auto r = store_->pwrite(
      req.header().ino, req.header().offset,
      std::span<const std::byte>(req.data_payload(), req.header().data_len));
  if (!r.ok()) {
    resp.header().status = to_pstatus(r.error());
    return;
  }
  resp.header().len = r.value();
  fabric_.stats().add("dafs.inline_write_bytes", r.value());
}

namespace {
/// CRC-32C chained over the local side of RDMA descriptors, in order.
std::uint32_t crc_of(std::span<const Descriptor> ds) {
  std::uint32_t crc = 0;
  for (const Descriptor& d : ds) {
    for (const DataSegment& g : d.segs) {
      crc = fstore::crc32c({g.addr, g.len}, crc);
    }
  }
  return crc;
}
}  // namespace

void Server::do_read_direct(Session& s, MsgView& req, MsgView& resp) {
  Actor* actor = Actor::current();
  actor->charge(CostKind::kDispatch, fabric_.cost().fs_op);
  const bool verify = (req.header().flags & kFlagVerifyStore) != 0;
  const bool stamp = (req.header().flags & kFlagPayloadCrc) != 0;
  // One RDMA write per segment that has bytes before EOF, posted ahead of
  // the reaps: the segments pipeline on the link instead of each paying a
  // round trip.
  std::vector<Descriptor> ds;
  std::uint64_t total = 0;
  for (const DirectSeg& seg : req.segs()) {
    auto extents = store_->extents_for_read(req.header().ino, seg.file_off,
                                            seg.len, verify);
    if (!extents.ok()) {
      resp.header().status = to_pstatus(extents.error());
      return;
    }
    if (extents.value().empty()) continue;  // read past EOF: nothing to move
    Descriptor& d = ds.emplace_back();
    d.op = via::Opcode::kRdmaWrite;
    d.remote = {seg.addr, seg.mem};
    for (const auto& span : extents.value()) {
      d.segs.push_back(DataSegment{span.data(), slab_handle(span.data()),
                                   static_cast<std::uint32_t>(span.size())});
      total += span.size();
    }
  }
  {
    std::lock_guard lock(s.send_mu);
    if (post_and_reap(s, ds) != ds.size()) {
      resp.header().status = PStatus::kProtoError;
      return;
    }
  }
  resp.header().len = total;
  if (stamp && total > 0) {
    // Chained over the moved bytes in segment order — the same order a
    // contiguous client buffer receives them, so the client can re-hash its
    // landed prefix against payload_crc.
    resp.header().flags |= kFlagPayloadCrc;
    resp.header().payload_crc = crc_of(ds);
    actor->charge(CostKind::kChecksum, fabric_.cost().copy_time(total));
    fabric_.stats().add("dafs.integrity_crc_bytes", total);
  }
  fabric_.stats().add("dafs.direct_read_bytes", total);
}

void Server::do_write_direct(Session& s, MsgView& req, MsgView& resp) {
  Actor* actor = Actor::current();
  actor->charge(CostKind::kDispatch, fabric_.cost().fs_op);
  const bool check = (req.header().flags & kFlagPayloadCrc) != 0;
  const auto segs = req.segs();
  // One RDMA read per segment, pipelined like the reads above.
  std::vector<Descriptor> ds;
  ds.reserve(segs.size());
  for (const DirectSeg& seg : segs) {
    auto extents =
        store_->ensure_extents(req.header().ino, seg.file_off, seg.len);
    if (!extents.ok()) {
      resp.header().status = to_pstatus(extents.error());
      return;
    }
    Descriptor& d = ds.emplace_back();
    d.op = via::Opcode::kRdmaRead;
    d.remote = {seg.addr, seg.mem};
    for (const auto& span : extents.value()) {
      d.segs.push_back(DataSegment{span.data(), slab_handle(span.data()),
                                   static_cast<std::uint32_t>(span.size())});
    }
  }
  std::size_t pulled = 0;
  {
    std::lock_guard lock(s.send_mu);
    pulled = post_and_reap(s, ds);
  }
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < pulled; ++i) total += segs[i].len;
  // With a payload CRC, nothing commits until every segment has been pulled
  // and the whole-request checksum verified, so a damaged transfer never
  // reaches the durable image (size, mtime and journal untouched). The
  // pulled bytes do land in cache chunks transiently; the client's
  // fresh-seq rewrite overwrites them — and their checksums — either way.
  // Without one, whatever landed before a transport failure commits.
  if (pulled < ds.size()) resp.header().status = PStatus::kProtoError;
  if (check) {
    if (pulled < ds.size()) return;
    if (total > 0) {
      actor->charge(CostKind::kChecksum, fabric_.cost().copy_time(total));
      fabric_.stats().add("dafs.integrity_crc_bytes", total);
    }
    if (crc_of(ds) != req.header().payload_crc) {
      resp.header().status = PStatus::kCorrupt;
      fabric_.stats().add("dafs.integrity_server_rejects");
      return;
    }
  }
  // One commit per file-contiguous range: each commit re-checksums the
  // chunks it touches and journals one record.
  for (std::size_t i = 0; i < pulled;) {
    const std::uint64_t off = segs[i].file_off;
    std::uint64_t end = off + segs[i].len;
    while (++i < pulled && segs[i].file_off == end) end += segs[i].len;
    store_->commit_write(req.header().ino, off, end - off);
  }
  if (resp.header().status != PStatus::kOk) return;
  resp.header().len = total;
  fabric_.stats().add("dafs.direct_write_bytes", total);
}

void Server::do_lock(Session& s, MsgView& req, MsgView& resp) {
  Actor::current()->charge(CostKind::kDispatch, fabric_.cost().fs_op);
  if (req.header().proc == Proc::kLock) {
    // Post-restart grace: only lease *reclaims* may take locks until the
    // grace period ends, so surviving clients re-establish their ranges
    // before fresh acquires can race into them.
    if (in_grace() && !(req.header().aux & kLockReclaim)) {
      resp.header().status = PStatus::kBusy;
      resp.header().aux = cfg_.busy_retry_ns;
      fabric_.stats().add("dafs.grace_rejections");
      return;
    }
    const bool ok = locks_.try_acquire(
        req.header().ino, req.header().offset, req.header().len, s.id,
        (req.header().aux & kLockExclusive) != 0);
    resp.header().status = ok ? PStatus::kOk : PStatus::kLockConflict;
  } else {
    locks_.release(req.header().ino, req.header().offset, req.header().len,
                   s.id);
  }
}

}  // namespace dafs
