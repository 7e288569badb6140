#include "dafs/server.hpp"

#include <pthread.h>

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdio>
#include <cstring>
#include <functional>
#include <span>

#include "dafs/repl.hpp"
#include "fstore/journal.hpp"
#include "sim/rng.hpp"

namespace dafs {

using sim::Actor;
using sim::ActorScope;
using sim::CostKind;
using via::DataSegment;
using via::Descriptor;
using via::DescStatus;
using via::MemAttrs;

namespace {
using namespace std::chrono_literals;
constexpr auto kPollPeriod = 50ms;
constexpr auto kSendWait = std::chrono::milliseconds(5'000);
/// RDMA bytes one request keeps in flight. Enough to cover a round trip
/// many times over (64 KiB is about 0.5 ms on the wire, a round trip about
/// 10 us), so small segments stream back to back; a large segment goes out
/// alone, so one request never books a client's link for a whole batch in
/// one go, much as a NIC bounds its outstanding RDMA reads.
constexpr std::uint64_t kRdmaWindowBytes = 64 * 1024;
}  // namespace

Server::Server(sim::Fabric& fabric, sim::NodeId node, ServerConfig cfg)
    : fabric_(fabric),
      node_(node),
      cfg_(std::move(cfg)),
      nic_(fabric, node, "dafs-server-nic"),
      ptag_(nic_.create_ptag()) {
  // One switchboard drives fault injection at every layer: the store's read
  // paths consult the same plan the fabric uses for transfers.
  cfg_.store.faults = &fabric_.faults();
  // The filer journals so sync is a durability barrier and crash() replays.
  cfg_.store.journal_enabled = cfg_.journal;
  admission_limit_.store(cfg_.admission_max_queue, std::memory_order_relaxed);
  // A quorum member starts as a follower — it listens for clients (answering
  // kNotLeader with a hint) but serves nothing until it wins an election.
  // The journal is the replicated log, so it must be on.
  if (quorum()) {
    cfg_.store.journal_enabled = true;
    role_.store(Role::kFollower, std::memory_order_release);
    epoch_.store(0, std::memory_order_relaxed);  // terms count from 0
    const std::size_t n = cfg_.quorum_group.size();
    match_off_.assign(n, 0);
    next_off_.assign(n, 0);
    peer_lease_.assign(n, sim::Deadline{});
    raft_rng_ = std::make_unique<sim::Rng>(
        jitter_rng(cfg_.repl_retry.jitter_seed, cfg_.member_id + 1));
  }
  // The store registers every buffer-cache slab with the NIC as it is
  // allocated; direct I/O then DMAs straight out of / into the cache.
  // Journal appends run under the worker's open request span; the tracer
  // pointer lets the store parent them correctly (same pattern as faults).
  cfg_.store.tracer = &fabric_.trace();
  store_ = std::make_unique<fstore::FileStore>(
      cfg_.store, [this](std::span<std::byte> slab) {
        const via::MemHandle h =
            nic_.register_memory(slab.data(), slab.size(), ptag_, MemAttrs{});
        std::lock_guard lock(slabs_mu_);
        slabs_.emplace_back(slab.data(),
                            std::make_pair(slab.size(), h));
      });
  // Point-in-time server state for the unified metrics export. RAII scopes:
  // the callbacks capture `this`, and gauges_ is the last-declared member,
  // so they unregister before anything they read starts tearing down.
  sim::MetricsRegistry& m = fabric_.metrics();
  gauges_.emplace_back(m, "dafs.admission_queue_depth",
                       [this] { return std::uint64_t{recv_cq_.pending()}; });
  gauges_.emplace_back(m, "dafs.replay_cache_bytes",
                       [this] { return std::uint64_t{replay_cache_bytes()}; });
  gauges_.emplace_back(m, "dafs.sessions_live",
                       [this] { return std::uint64_t{session_count()}; });
  gauges_.emplace_back(m, "fstore.journal_pending_bytes",
                       [this] { return store_->journal_pending_bytes(); });
  // Quorum gauges (one member registers last and wins; benches sample them
  // per-phase, not per-member).
  if (quorum()) {
    gauges_.emplace_back(m, "dafs.role", [this] {
      return static_cast<std::uint64_t>(static_cast<int>(role()));
    });
    gauges_.emplace_back(m, "dafs.term", [this] { return epoch(); });
    gauges_.emplace_back(m, "dafs.resilver_bytes",
                         [this] { return resilver_bytes(); });
  }
  if (cfg_.scrub_enabled) {
    gauges_.emplace_back(m, "dafs.scrub_passes",
                         [this] { return scrub_passes(); });
  }
}

Server::~Server() { stop(); }

void Server::start() {
  if (running_.exchange(true)) return;
  accept_actor_ =
      std::make_unique<Actor>("dafs-accept", &fabric_.node(node_));
  for (int i = 0; i < cfg_.workers; ++i) {
    worker_actors_.push_back(std::make_unique<Actor>(
        "dafs-worker" + std::to_string(i), &fabric_.node(node_)));
    worker_pool_.add(*worker_actors_.back());
    auto buf = std::make_unique<MsgBuf>();
    buf->mem.resize(cfg_.msg_buf_size);
    {
      ActorScope scope(*worker_actors_.back());
      buf->handle =
          nic_.register_memory(buf->mem.data(), buf->mem.size(), ptag_, {});
    }
    worker_send_bufs_.push_back(std::move(buf));
  }
  accept_thread_ = std::thread([this] {
    pthread_setname_np(pthread_self(), "dafs-accept");
    accept_loop();
  });
  for (int i = 0; i < cfg_.workers; ++i) {
    worker_threads_.emplace_back([this, i] {
      pthread_setname_np(pthread_self(),
                         ("dafs-w" + std::to_string(i)).c_str());
      worker_loop(i);
    });
  }
  if (cfg_.scrub_enabled) {
    scrub_thread_ = std::thread([this] {
      pthread_setname_np(pthread_self(), "dafs-scrub");
      scrub_loop();
    });
  }
  if (quorum()) {
    // Rebuild the term-run table from the (possibly pre-existing) journal
    // before any peer can ask about it.
    {
      std::lock_guard rlock(raft_mu_);
      rebuild_term_runs_locked();
      reset_election_deadline_locked();
    }
    quorum_listener_thread_ = std::thread([this] {
      pthread_setname_np(pthread_self(), "dafs-raft-l");
      quorum_listener_loop();
    });
    quorum_tick_thread_ = std::thread([this] {
      pthread_setname_np(pthread_self(), "dafs-raft-t");
      quorum_tick_loop();
    });
    for (std::uint32_t p = 0; p < cfg_.quorum_group.size(); ++p) {
      if (p == cfg_.member_id) continue;
      quorum_sender_threads_.emplace_back([this, p] {
        pthread_setname_np(pthread_self(), "dafs-raft-s");
        quorum_sender_loop(p);
      });
    }
  }
}

void Server::stop() {
  if (!running_.exchange(false)) return;
  raft_cv_.notify_all();  // release any commit-barrier waiter
  if (accept_thread_.joinable()) accept_thread_.join();
  for (auto& t : worker_threads_) {
    if (t.joinable()) t.join();
  }
  worker_threads_.clear();
  if (scrub_thread_.joinable()) scrub_thread_.join();
  if (quorum_tick_thread_.joinable()) quorum_tick_thread_.join();
  for (auto& t : quorum_sender_threads_) {
    if (t.joinable()) t.join();
  }
  quorum_sender_threads_.clear();
  if (quorum_listener_thread_.joinable()) quorum_listener_thread_.join();
  {
    // Handler threads exit once running_ is false and their VI dies; sever
    // the VIs so none of them sits out a full recv poll.
    std::lock_guard qlock(quorum_mu_);
    for (via::Vi* vi : quorum_conn_vis_) vi->disconnect();
  }
  for (;;) {
    std::vector<std::unique_ptr<ConnSlot>> conns;
    {
      std::lock_guard qlock(quorum_mu_);
      conns.swap(quorum_conn_threads_);
    }
    if (conns.empty()) break;
    for (auto& slot : conns) {
      if (slot->thread.joinable()) slot->thread.join();
    }
  }
  std::lock_guard lock(sessions_mu_);
  for (auto& s : sessions_) {
    if (s->vi) s->vi->disconnect();
  }
  sessions_.clear();
  by_vi_.clear();
}

sim::BusyBreakdown Server::worker_busy() const {
  sim::BusyBreakdown total;
  for (const auto& a : worker_actors_) {
    const auto& b = a->busy();
    for (std::size_t i = 0; i < b.by_kind.size(); ++i) {
      total.by_kind[i] += b.by_kind[i];
    }
  }
  return total;
}

std::size_t Server::session_count() const {
  std::lock_guard lock(sessions_mu_);
  return sessions_.size();
}

via::MemHandle Server::slab_handle(const std::byte* p) const {
  std::lock_guard lock(slabs_mu_);
  for (const auto& [base, info] : slabs_) {
    if (p >= base && p < base + info.first) return info.second;
  }
  return via::kInvalidMemHandle;
}

// ---------------------------------------------------------------------------
// Accept / worker loops
// ---------------------------------------------------------------------------

void Server::accept_loop() {
  ActorScope scope(*accept_actor_);
  // A quorum follower listens too: it answers kNotLeader with a leader hint,
  // so clients discover the leader instead of probing dead air.
  while (running_.load()) {
    {
      // The listener lives only while the server is "up". Destroying it on a
      // crash makes new connects fail with kNoMatchingListener — exactly what
      // clients of a dead filer observe — until the restart delay elapses.
      via::Listener listener(nic_, cfg_.service);
      while (running_.load() && !crash_pending_.load()) {
        // Build the session fully armed *before* accepting: receive buffers
        // posted (legal on an idle VI) and the VI already registered with the
        // dispatch map, so the client's first request — which can arrive the
        // instant the handshake completes — always finds its session. The
        // armed session is reused across accept timeouts and only consumed by
        // a real connection (or abandoned on crash/shutdown).
        auto session = std::make_unique<Session>();
        session->id = next_session_++;
        session->vi = std::make_unique<via::Vi>(nic_, via::ViAttrs{}, nullptr,
                                                &recv_cq_);
        for (std::size_t i = 0; i < cfg_.recv_credits; ++i) {
          auto buf = std::make_unique<MsgBuf>();
          buf->mem.resize(cfg_.msg_buf_size);
          buf->handle =
              nic_.register_memory(buf->mem.data(), buf->mem.size(), ptag_, {});
          buf->desc.segs = {DataSegment{
              buf->mem.data(), buf->handle,
              static_cast<std::uint32_t>(buf->mem.size())}};
          const via::Status st = session->vi->post_recv(buf->desc);
          assert(st == via::Status::kSuccess && "pre-arm post_recv on idle VI");
          (void)st;
          session->recv_bufs.push_back(std::move(buf));
        }
        via::Vi* vi = session->vi.get();
        {
          std::lock_guard lock(sessions_mu_);
          // Checked under sessions_mu_ so an arm can't interleave with the
          // crash teardown sweep: do_crash publishes crash_pending_ before
          // taking this lock, so either the flag is visible here (abandon the
          // session, never register it) or this registration completes first
          // and the sweep — which runs strictly after — tears it down. A
          // session registered after the sweep would otherwise be served
          // straight through the outage. The abandoned session is kept, not
          // destroyed: destroying its VI would flush its posted receives
          // into the shared CQ after their buffers were freed.
          if (crash_pending_.load()) {
            session->closing = true;
            sessions_.push_back(std::move(session));
            break;
          }
          by_vi_.emplace(vi, session.get());
          sessions_.push_back(std::move(session));
        }
        bool accepted = false;
        while (running_.load() && !crash_pending_.load()) {
          if (listener.accept(*vi, kPollPeriod) == via::Status::kSuccess) {
            accepted = true;
            break;
          }
        }
        if (!accepted) break;  // crash/shutdown; armed session is abandoned
        fabric_.stats().add("dafs.sessions");
      }
    }
    if (!running_.load()) break;
    // Reap sessions that slipped past the crash teardown: a session armed
    // concurrently with do_crash re-enters the dispatch map after it was
    // cleared, and a connection accepted in that window would otherwise be
    // served straight through the outage. This runs on the arming thread
    // after the listener died, so the sweep is complete by construction.
    {
      std::lock_guard lock(sessions_mu_);
      for (auto& sess : sessions_) {
        if (sess->closing) continue;
        sess->closing = true;
        if (sess->vi && sess->vi->state() != via::Vi::State::kIdle) {
          sess->vi->disconnect();
        }
      }
      by_vi_.clear();
    }
    // Down: hold the outage for the scheduled restart delay, then come
    // back with a fresh listener and a lease-reclaim grace period.
    sim::Deadline until;
    {
      std::lock_guard lock(crash_mu_);
      until = restart_at_;
    }
    while (running_.load() && !until.passed()) {
      sim::sleep(sim::Deadline::host(1ms));
    }
    crash_pending_.store(false);
    arm_grace();
    fabric_.stats().add("dafs.server_restarts");
  }
}

void Server::arm_grace() {
  grace_until_.store(
      sim::Deadline::modeled(cfg_.grace_period_ms * sim::kMsec));
}

bool Server::in_grace() const {
  return !grace_until_.load(std::memory_order_relaxed).passed();
}

sim::Deadline Server::lease_from_now() const {
  return sim::Deadline::modeled(2 * cfg_.election_timeout_max_ms * sim::kMsec);
}

void Server::inject_crash(std::uint64_t restart_delay_ms) {
  do_crash(restart_delay_ms);
}

void Server::do_crash(std::uint64_t restart_delay_ms) {
  std::lock_guard crash_lock(crash_mu_);
  if (crash_pending_.load()) return;  // already down
  restart_at_ = sim::Deadline::modeled(restart_delay_ms * sim::kMsec);
  crash_count_.fetch_add(1);
  fabric_.stats().add("dafs.server_crashes");
  // Flight recorder: stamp the crash into the timeline and dump everything —
  // the in-flight spans it orphans are exactly the requests that died.
  if (sim::Tracer& tracer = fabric_.trace(); tracer.enabled()) {
    Actor* actor = Actor::current();
    char attrs[64];
    std::snprintf(attrs, sizeof(attrs), "\"restart_delay_ms\":%llu",
                  static_cast<unsigned long long>(restart_delay_ms));
    tracer.event("server_crash", actor != nullptr ? actor->now() : 0, attrs);
    tracer.flight_dump("crash");
  }
  // Publish the crash BEFORE tearing anything down. Both the accept loop's
  // arming path (under sessions_mu_) and the commit barrier key off this
  // flag: setting it first closes the window where a session armed
  // concurrently with the teardown sweep would be served straight through
  // the outage, and makes a barrier waiter drop its reply instead of
  // acknowledging. restart_at_ is read under crash_mu_, which this function
  // holds end to end, so the flag can never be observed with a stale
  // restart time.
  crash_pending_.store(true);
  reset_incarnation();
  if (quorum()) {
    // A crashed member loses its leadership (volatile) but keeps its term
    // and vote (the durable Raft metadata a real filer fsyncs beside the
    // journal — deliberately not reset here). It rejoins as a follower and
    // re-silvers from whoever leads when it comes back.
    {
      std::lock_guard rlock(raft_mu_);
      role_.store(Role::kFollower, std::memory_order_release);
      leader_member_.store(-1, std::memory_order_relaxed);
      // store_->crash() above replayed the journal and may have truncated a
      // torn tail; the term table and commit view must match the bytes that
      // survived.
      rebuild_term_runs_locked();
      const std::uint64_t jsize = store_->journal_size();
      if (commit_off_.load(std::memory_order_relaxed) > jsize) {
        commit_off_.store(jsize, std::memory_order_relaxed);
      }
      reset_election_deadline_locked();
    }
    // Sever the peer connections with the process so the group observes the
    // death promptly instead of waiting out poll timeouts.
    {
      std::lock_guard qlock(quorum_mu_);
      for (via::Vi* vi : quorum_conn_vis_) vi->disconnect();
    }
    raft_cv_.notify_all();
  }
}

void Server::reset_incarnation() {
  {
    std::lock_guard lock(sessions_mu_);
    for (auto& sess : sessions_) {
      if (sess->closing) continue;
      sess->closing = true;
      {
        std::lock_guard rlock(sess->replay_mu);
        sess->replay.clear();
        sess->replay_bytes = 0;
      }
      // Connected VIs die with the incarnation, so clients re-enter through
      // connect/resume. Idle (armed, pre-accept) VIs are left alone: the
      // accept loop may be linking one right now, and the worker-side
      // unknown-session fallback reaps that race.
      if (sess->vi && sess->vi->state() != via::Vi::State::kIdle) {
        sess->vi->disconnect();
      }
    }
    by_vi_.clear();
  }
  locks_.clear();  // volatile: clients re-acquire via lease reclaim
  {
    // Delegations are volatile leader state: a new incarnation never honors
    // old ids (they fence by mismatch) and re-grants from scratch.
    std::lock_guard dlock(deleg_mu_);
    delegs_.clear();
    openers_.clear();
    session_opens_.clear();
  }
  store_->crash();  // un-synced data vanishes; journal replays durable image
}

std::size_t Server::replay_cache_bytes() const {
  std::lock_guard lock(sessions_mu_);
  std::size_t total = 0;
  for (const auto& s : sessions_) {
    std::lock_guard rlock(s->replay_mu);
    total += s->replay_bytes;
  }
  return total;
}

void Server::worker_loop(int idx) {
  while (running_.load()) {
    // First come, first served in virtual time: the earliest completed
    // request runs on the earliest-clock idle worker actor.
    via::Completion c;
    if (recv_cq_.take(c, kPollPeriod) != via::Status::kSuccess) continue;
    sim::ActorPool::Lease worker(worker_pool_);
    recv_cq_.reap(c);
    if (c.desc->status != DescStatus::kSuccess) continue;  // flushed recv
    // Scheduled crash: the fault plan may kill the server on this request.
    // The tripping request dies unanswered, like every other in-flight op.
    std::uint64_t restart_ms = 0;
    if (fabric_.faults().on_server_request(worker.actor().now(), node_,
                                           &restart_ms)) {
      do_crash(restart_ms);
      continue;
    }
    if (crash_pending_.load()) {
      // The filer is crashing: every request in flight dies unanswered, like
      // the rest of the process state. Killing the VI (instead of silently
      // dropping) makes the client observe the death immediately and start
      // its failover probe rather than waiting out an I/O timeout.
      c.vi->disconnect();
      continue;
    }
    Session* session = nullptr;
    {
      std::lock_guard lock(sessions_mu_);
      auto it = by_vi_.find(c.vi);
      if (it != by_vi_.end()) session = it->second;
    }
    if (session == nullptr) {
      // A VI that delivered a request but has no session was connected across
      // a crash teardown (accept raced do_crash). Kill it so the client fails
      // fast and reconnects against the restarted listener instead of
      // waiting out its I/O timeout.
      c.vi->disconnect();
      continue;
    }
    // Recover which MsgBuf this descriptor belongs to.
    MsgBuf* req = nullptr;
    for (auto& b : session->recv_bufs) {
      if (&b->desc == c.desc) {
        req = b.get();
        break;
      }
    }
    assert(req != nullptr);
    handle_request(*session, *req, *worker_send_bufs_[idx]);
    // Time-series heartbeat: the sampler itself decides (by cadence) whether
    // this tick records a snapshot; a no-op unless enable_timeseries() ran.
    fabric_.metrics().tick(worker.actor().now());
    // Return the buffer to the session's receive pool (credit restored). A
    // failed repost means the connection died; the session is torn down (or
    // resumed onto a fresh VI) elsewhere.
    req->desc.segs = {DataSegment{
        req->mem.data(), req->handle,
        static_cast<std::uint32_t>(req->mem.size())}};
    if (session->vi->post_recv(req->desc) != via::Status::kSuccess) {
      fabric_.stats().add("dafs.server_repost_failures");
    }
  }
}

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

  MsgView req(req_buf.mem.data(), req_buf.mem.size());
  MsgView resp(out.mem.data(), out.mem.size());
  resp.header() = MsgHeader{};
  resp.header().proc = req.header().proc;
  resp.header().request_id = req.header().request_id;
  resp.header().session_id = s.id;
  resp.header().seq = req.header().seq;
  resp.header().status = PStatus::kOk;

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
      sim::Span w;
      w.trace_id = svc.trace_id();
      w.span_id = tracer.new_id();
      w.parent_span_id = req.header().parent_span_id;
      w.t_start = req_buf.desc.done_at;
      w.t_end = actor->now();
      w.layer = "dafs.server";
      w.name = "admission_wait";
      tracer.record(std::move(w));
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

// ---------------------------------------------------------------------------
// Live telemetry (kStatsQuery + per-client attribution)
// ---------------------------------------------------------------------------

void Server::account_client(std::uint64_t client_id, const ClientStat& delta) {
  // 0 is "no identity yet" — only a client's very first kConnect, before the
  // server has minted it a session to adopt as its id.
  if (client_id == 0) return;
  std::lock_guard lock(cstats_mu_);
  auto [it, fresh] = cstats_.try_emplace(client_id);
  ClientStat& c = it->second;
  c.bytes_in += delta.bytes_in;
  c.bytes_out += delta.bytes_out;
  c.ops_read += delta.ops_read;
  c.ops_write += delta.ops_write;
  c.ops_meta += delta.ops_meta;
  c.queue_wait_ns += delta.queue_wait_ns;
  c.service_ns += delta.service_ns;
  c.retransmits += delta.retransmits;
  c.sheds += delta.sheds;
  if (!fresh) return;
  // First sight of this client: surface its row in the metrics JSON (and
  // the time-series sampler) as dafs.session.<client_id>.*. The callbacks
  // re-find the row so they stay valid across map rebalancing.
  sim::MetricsRegistry& m = fabric_.metrics();
  const std::string prefix =
      "dafs.session." + std::to_string(client_id) + ".";
  const auto field = [this, client_id](std::uint64_t ClientStat::* f) {
    return [this, client_id, f]() -> std::uint64_t {
      std::lock_guard lock(cstats_mu_);
      const auto it = cstats_.find(client_id);
      return it == cstats_.end() ? 0 : it->second.*f;
    };
  };
  session_gauges_.emplace_back(m, prefix + "bytes_in",
                               field(&ClientStat::bytes_in));
  session_gauges_.emplace_back(m, prefix + "bytes_out",
                               field(&ClientStat::bytes_out));
  session_gauges_.emplace_back(m, prefix + "ops_read",
                               field(&ClientStat::ops_read));
  session_gauges_.emplace_back(m, prefix + "ops_write",
                               field(&ClientStat::ops_write));
  session_gauges_.emplace_back(m, prefix + "ops_meta",
                               field(&ClientStat::ops_meta));
  session_gauges_.emplace_back(m, prefix + "queue_wait_ns",
                               field(&ClientStat::queue_wait_ns));
  session_gauges_.emplace_back(m, prefix + "service_ns",
                               field(&ClientStat::service_ns));
  session_gauges_.emplace_back(m, prefix + "retransmits",
                               field(&ClientStat::retransmits));
  session_gauges_.emplace_back(m, prefix + "sheds",
                               field(&ClientStat::sheds));
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

// ---------------------------------------------------------------------------
// Quorum (Raft-style) replication
// ---------------------------------------------------------------------------

std::uint64_t Server::leader_hint() const {
  const std::int32_t lm = leader_member_.load(std::memory_order_relaxed);
  return lm >= 0 ? static_cast<std::uint64_t>(lm) + 1 : 0;
}

std::uint64_t Server::term_at_locked(std::uint64_t off) const {
  // Term of the byte *preceding* `off` — the "term of the entry at
  // prevLogIndex" in Raft, with byte offsets as log indices. The empty
  // prefix (off == 0) is term 0 by convention, as are any bytes predating
  // the first kTermMark.
  std::uint64_t term = 0;
  for (const TermRun& r : term_runs_) {
    if (r.start_off < off) {
      term = r.term;
    } else {
      break;
    }
  }
  return term;
}

void Server::rebuild_term_runs_locked() {
  term_runs_.clear();
  store_->journal_log().scan([this](std::uint64_t off, fstore::RecType type,
                                    std::span<const std::byte> payload) {
    if (type != fstore::RecType::kTermMark) return;
    fstore::RecReader r(payload);
    const std::uint64_t term = r.u64();
    if (r.ok()) term_runs_.push_back(TermRun{off, term});
  });
}

void Server::reset_election_deadline_locked() {
  const std::uint64_t lo = cfg_.election_timeout_min_ms;
  const std::uint64_t hi = std::max(cfg_.election_timeout_max_ms, lo + 1);
  election_deadline_ =
      sim::Deadline::modeled(raft_rng_->range(lo, hi) * sim::kMsec);
}

void Server::become_follower_locked(std::uint64_t term) {
  const std::uint64_t cur = epoch_.load(std::memory_order_relaxed);
  if (term > cur) {
    epoch_.store(term, std::memory_order_relaxed);
    voted_for_ = kNoVote;
    leader_member_.store(-1, std::memory_order_relaxed);
  }
  const Role r = role_.load(std::memory_order_acquire);
  if (r == Role::kLeader || r == Role::kCandidate) {
    if (r == Role::kLeader) {
      fabric_.stats().add("dafs.leader_stepdowns");
      leader_member_.store(-1, std::memory_order_relaxed);
    }
    role_.store(Role::kFollower, std::memory_order_release);
    // Barrier waiters must re-check: their ops can no longer be committed
    // by this member and will be demoted to kNotLeader.
    raft_cv_.notify_all();
  }
}

void Server::run_election_locked() {
  const std::uint64_t term = epoch_.load(std::memory_order_relaxed) + 1;
  epoch_.store(term, std::memory_order_relaxed);
  voted_for_ = cfg_.member_id;
  votes_ = 1;  // own vote
  votes_term_ = term;
  leader_member_.store(-1, std::memory_order_relaxed);
  role_.store(Role::kCandidate, std::memory_order_release);
  Actor* actor = Actor::current();
  election_started_ = actor != nullptr ? actor->now() : 0;
  reset_election_deadline_locked();
  fabric_.stats().add("dafs.elections_started");
  raft_cv_.notify_all();
  // A single-member group is its own majority.
  if (cfg_.quorum_group.size() == 1) become_leader_locked();
}

void Server::on_vote_granted(std::uint64_t term) {
  std::lock_guard lock(raft_mu_);
  if (epoch_.load(std::memory_order_relaxed) != term || votes_term_ != term ||
      role_.load(std::memory_order_acquire) != Role::kCandidate) {
    return;
  }
  ++votes_;
  const auto majority =
      static_cast<std::uint32_t>(cfg_.quorum_group.size() / 2 + 1);
  if (votes_ >= majority) become_leader_locked();
}

void Server::become_leader_locked() {
  const std::uint64_t term = epoch_.load(std::memory_order_relaxed);
  fabric_.stats().add("dafs.elections_won");
  leader_member_.store(static_cast<std::int32_t>(cfg_.member_id),
                       std::memory_order_relaxed);
  // The election span the bench's unavailability analysis keys on: start of
  // candidacy to leadership. Rooted — elections happen outside any request.
  sim::Tracer& tracer = fabric_.trace();
  Actor* actor = Actor::current();
  if (tracer.enabled()) {
    sim::Span s;
    s.trace_id = tracer.new_id();
    s.span_id = tracer.new_id();
    s.t_start = election_started_;
    s.t_end = actor != nullptr ? std::max(actor->now(), election_started_)
                               : election_started_;
    s.layer = "dafs.server";
    s.name = "raft.election";
    char attrs[64];
    std::snprintf(attrs, sizeof(attrs), "\"term\":%llu,\"member\":%u",
                  static_cast<unsigned long long>(term), cfg_.member_id);
    s.attrs = attrs;
    tracer.record(std::move(s));
  }
  // Open this term's run in the replicated byte log. This is Raft's no-op
  // entry: once a majority holds the mark, every prior-term byte before it
  // is committed at *this* term, so advance_commit's current-term gate can
  // pass. It also fences: any ex-leader's unreplicated suffix now conflicts
  // at this boundary and will be truncated when it rejoins.
  fstore::RecWriter w;
  w.u64(term);
  store_->journal_log().append(fstore::RecType::kTermMark, w.out());
  rebuild_term_runs_locked();
  // Materialize the replicated journal into the live image and drop every
  // piece of client-facing volatile state — a leadership win is a restart
  // from the journal's point of view. Sessions from a previous stint (or
  // from clients that probed this member while it followed) are severed so
  // clients re-enter through connect/resume against the rebuilt image, and
  // delegations issued while (or before) this member last led fence by id
  // mismatch against this incarnation.
  reset_incarnation();
  {
    // Mint session ids no earlier leader could have issued.
    std::lock_guard lock(sessions_mu_);
    next_session_ =
        std::max(next_session_, store_->server_state_watermark() + 1024);
  }
  arm_grace();
  const std::uint64_t jsize = store_->journal_size();
  const sim::Deadline lease = lease_from_now();
  for (std::size_t p = 0; p < cfg_.quorum_group.size(); ++p) {
    match_off_[p] = 0;
    next_off_[p] = jsize;
    peer_lease_[p] = lease;
  }
  role_.store(Role::kLeader, std::memory_order_release);
  raft_cv_.notify_all();
}

void Server::advance_commit_locked() {
  if (role_.load(std::memory_order_acquire) != Role::kLeader) return;
  std::vector<std::uint64_t> offs;
  offs.reserve(cfg_.quorum_group.size());
  offs.push_back(store_->journal_size());  // self
  for (std::uint32_t p = 0; p < cfg_.quorum_group.size(); ++p) {
    if (p == cfg_.member_id) continue;
    offs.push_back(match_off_[p]);
  }
  std::sort(offs.begin(), offs.end(), std::greater<>());
  // Largest offset held by a majority; commit only when the bytes at its
  // boundary were appended under the current term (Raft's commit gate — a
  // majority-held prior-term suffix may still be overwritten).
  const std::uint64_t cand = offs[cfg_.quorum_group.size() / 2];
  if (cand > commit_off_.load(std::memory_order_relaxed) &&
      term_at_locked(cand) == epoch_.load(std::memory_order_relaxed)) {
    commit_off_.store(cand, std::memory_order_relaxed);
    raft_cv_.notify_all();
  }
}

Server::QuorumAck Server::quorum_commit_barrier() {
  const std::uint64_t target = store_->journal_size();
  const std::uint64_t budget_ns = cfg_.repl_retry.deadline_ns != 0
                                      ? cfg_.repl_retry.deadline_ns
                                      : 200'000'000;
  const sim::Deadline deadline = sim::Deadline::modeled(budget_ns);
  std::unique_lock lock(raft_mu_);
  advance_commit_locked();   // single-member groups commit on the spot
  raft_cv_.notify_all();     // kick idle per-peer senders out of their
                             // heartbeat wait so the new bytes ship now
  for (;;) {
    if (crash_pending_.load() || !running_.load()) return QuorumAck::kDrop;
    if (role_.load(std::memory_order_acquire) != Role::kLeader) {
      return QuorumAck::kNotLeader;
    }
    if (commit_off_.load(std::memory_order_relaxed) >= target) {
      return QuorumAck::kOk;
    }
    if (!raft_cv_.wait(lock, deadline)) {
      fabric_.stats().add("dafs.quorum_barrier_timeouts");
      return crash_pending_.load() ? QuorumAck::kDrop : QuorumAck::kNotLeader;
    }
  }
}

void Server::quorum_tick_loop() {
  Actor actor("dafs-raft-tick", &fabric_.node(node_));
  ActorScope scope(actor);
  while (running_.load()) {
    sim::sleep(sim::Deadline::host(1ms));
    if (crash_pending_.load()) {
      std::lock_guard lock(raft_mu_);
      reset_election_deadline_locked();  // the dead start no elections
      continue;
    }
    std::lock_guard lock(raft_mu_);
    const Role r = role_.load(std::memory_order_acquire);
    if (r == Role::kLeader) {
      // Step down once a majority of the group has been silent for a lease.
      std::uint32_t heard = 1;  // self
      for (std::uint32_t p = 0; p < cfg_.quorum_group.size(); ++p) {
        if (p != cfg_.member_id && !peer_lease_[p].passed()) ++heard;
      }
      if (heard < cfg_.quorum_group.size() / 2 + 1) {
        fabric_.stats().add("dafs.leader_lease_expirations");
        become_follower_locked(epoch_.load(std::memory_order_relaxed));
        reset_election_deadline_locked();
      }
    } else if (r == Role::kFollower || r == Role::kCandidate) {
      if (election_deadline_.passed()) {
        run_election_locked();
      }
    }
  }
}

void Server::quorum_listener_loop() {
  Actor actor("dafs-raft-listen", &fabric_.node(node_));
  ActorScope scope(actor);
  // The listener lives for the whole server lifetime — a crashed member
  // stops *answering* (handlers check crash_pending_), not listening, and
  // rejoins the moment it restarts.
  via::Listener listener(nic_, cfg_.quorum_group[cfg_.member_id]);
  while (running_.load()) {
    // Declared before the VI so the exit paths destroy the VI first: its
    // destructor flushes still-posted recv descriptors, which live inside
    // these buffers.
    std::vector<std::unique_ptr<MsgBuf>> bufs;
    auto vi = std::make_unique<via::Vi>(nic_, via::ViAttrs{});
    // Pre-arm the connection before accepting (legal on an idle VI), so a
    // vote request racing the handshake finds its buffers posted.
    bool armed = true;
    for (int i = 0; i < 4 && armed; ++i) {
      auto b = std::make_unique<MsgBuf>();
      b->mem.resize(kReplBufSize);
      b->handle = nic_.register_memory(b->mem.data(), b->mem.size(), ptag_, {});
      b->desc.segs = {DataSegment{
          b->mem.data(), b->handle, static_cast<std::uint32_t>(b->mem.size())}};
      armed = vi->post_recv(b->desc) == via::Status::kSuccess;
      bufs.push_back(std::move(b));
    }
    if (!armed) break;  // NIC out of resources; the member goes deaf
    bool accepted = false;
    while (running_.load()) {
      if (listener.accept(*vi, kPollPeriod) == via::Status::kSuccess) {
        accepted = true;
        break;
      }
    }
    if (!accepted) break;
    // Reap handlers whose connections already died: join them now (instant —
    // `done` is only set on the way out) so churny peers can't pile up
    // finished-but-unjoined threads between here and stop().
    std::vector<std::unique_ptr<ConnSlot>> finished;
    {
      std::lock_guard qlock(quorum_mu_);
      for (auto& slot : quorum_conn_threads_) {
        if (slot->done.load(std::memory_order_acquire)) {
          finished.push_back(std::move(slot));
        }
      }
      std::erase_if(quorum_conn_threads_,
                    [](const std::unique_ptr<ConnSlot>& s) { return !s; });
    }
    for (auto& slot : finished) {
      if (slot->thread.joinable()) slot->thread.join();
    }
    auto slot = std::make_unique<ConnSlot>();
    ConnSlot* raw = slot.get();
    std::lock_guard qlock(quorum_mu_);
    quorum_conn_vis_.push_back(vi.get());
    raw->thread = std::thread(
        [this, raw, v = std::move(vi), bs = std::move(bufs)]() mutable {
          pthread_setname_np(pthread_self(), "dafs-raft-h");
          quorum_conn_loop(std::move(v), std::move(bs));
          raw->done.store(true, std::memory_order_release);
        });
    quorum_conn_threads_.push_back(std::move(slot));
  }
}

void Server::quorum_conn_loop(std::unique_ptr<via::Vi> vi,
                              std::vector<std::unique_ptr<MsgBuf>> bufs) {
  Actor actor("dafs-raft-conn", &fabric_.node(node_));
  ActorScope scope(actor);
  // Sized for the largest reply: a kBlockData response carrying one whole
  // store chunk after the header (everything else is header-only).
  std::vector<std::byte> resp_buf(sizeof(ReplHeader) + cfg_.store.chunk_size);
  const via::MemHandle resp_h =
      nic_.register_memory(resp_buf.data(), resp_buf.size(), ptag_, {});
  // Sends the header plus h.len payload bytes the caller already placed at
  // resp_buf + sizeof(ReplHeader).
  const auto send_resp = [&](const ReplHeader& h) {
    std::memcpy(resp_buf.data(), &h, sizeof(h));
    Descriptor d;
    d.op = via::Opcode::kSend;
    d.segs = {DataSegment{resp_buf.data(), resp_h,
                          static_cast<std::uint32_t>(sizeof(h) + h.len)}};
    if (vi->post_send(d) != via::Status::kSuccess) return false;
    Descriptor* done = nullptr;
    return vi->send_wait(done, kSendWait) == via::Status::kSuccess &&
           done->status == DescStatus::kSuccess;
  };
  // Re-silvering accounting: one span per catch-up burst, opened when this
  // follower starts importing while behind the leader's commit (or had a
  // divergent suffix truncated), closed when it has caught up.
  bool resilver_open = false;
  sim::Time resilver_t0 = 0;
  std::uint64_t resilver_span_bytes = 0;
  sim::Tracer& tracer = fabric_.trace();
  const auto close_resilver = [&] {
    if (!resilver_open) return;
    resilver_open = false;
    fabric_.stats().add("dafs.resilvers");
    if (!tracer.enabled()) return;
    sim::Span s;
    s.trace_id = tracer.new_id();
    s.span_id = tracer.new_id();
    s.t_start = resilver_t0;
    s.t_end = std::max(actor.now(), resilver_t0);
    s.layer = "dafs.server";
    s.name = "raft.resilver";
    char attrs[64];
    std::snprintf(attrs, sizeof(attrs), "\"bytes\":%llu,\"member\":%u",
                  static_cast<unsigned long long>(resilver_span_bytes),
                  cfg_.member_id);
    s.attrs = attrs;
    tracer.record(std::move(s));
  };

  while (running_.load()) {
    Descriptor* d = nullptr;
    const via::Status st = vi->recv_wait(d, std::chrono::milliseconds(100));
    if (st == via::Status::kTimeout) continue;
    if (st != via::Status::kSuccess || d->status != DescStatus::kSuccess) break;
    if (crash_pending_.load()) break;  // the dead neither vote nor ack
    MsgBuf* b = nullptr;
    for (auto& cand : bufs) {
      if (&cand->desc == d) {
        b = cand.get();
        break;
      }
    }
    assert(b != nullptr);
    // Parse only the bytes that arrived: a short message, or a kAppend whose
    // header claims a payload other than the one sent, would otherwise be
    // read out of an earlier message's leftovers in this buffer (or past its
    // end) and imported as journal records. Such a peer is dropped.
    ReplHeader h;
    if (d->length >= sizeof(h)) std::memcpy(&h, b->mem.data(), sizeof(h));
    if (d->length < sizeof(h) || h.magic != kReplMagic ||
        (h.op == ReplOp::kAppend &&
         d->length != sizeof(h) + std::uint64_t{h.len})) {
      fabric_.stats().add("dafs.raft_malformed");
      break;
    }
    ReplHeader r;
    r.member = cfg_.member_id;
    bool progressed = false;   // imported or truncated bytes this message
    bool caught_up = false;    // at/past the leader's commit afterwards
    std::uint64_t moved = 0;   // bytes imported (catch-up volume)
    if (h.op == ReplOp::kVoteReq) {
      r.op = ReplOp::kVoteResp;
      std::lock_guard lock(raft_mu_);
      if (h.epoch > epoch_.load(std::memory_order_relaxed)) {
        become_follower_locked(h.epoch);
      }
      const std::uint64_t term = epoch_.load(std::memory_order_relaxed);
      const std::uint64_t my_size = store_->journal_size();
      const std::uint64_t my_last = term_at_locked(my_size);
      // Raft's up-to-date check over (last term, byte length).
      const bool up_to_date =
          h.prev_term > my_last ||
          (h.prev_term == my_last && h.offset >= my_size);
      const bool grant = h.epoch == term && up_to_date &&
                         (voted_for_ == kNoVote || voted_for_ == h.member);
      if (grant) {
        voted_for_ = h.member;
        reset_election_deadline_locked();
        fabric_.stats().add("dafs.votes_granted");
      }
      r.status = grant ? 1 : 0;
      r.epoch = term;
    } else if (h.op == ReplOp::kAppend) {
      r.op = ReplOp::kAppendResp;
      std::lock_guard lock(raft_mu_);
      const std::uint64_t cur = epoch_.load(std::memory_order_relaxed);
      if (h.epoch < cur) {
        // Stale leader: our term fences it (it steps down on this reply).
        r.status = 0;
        r.epoch = cur;
        r.offset = store_->journal_size();
      } else {
        become_follower_locked(h.epoch);  // also: candidate yields to leader
        leader_member_.store(static_cast<std::int32_t>(h.member),
                             std::memory_order_relaxed);
        reset_election_deadline_locked();
        r.epoch = epoch_.load(std::memory_order_relaxed);
        const std::uint64_t my_size = store_->journal_size();
        if (h.offset > my_size) {
          // Hole: we are shorter than the leader thinks. Back it off to our
          // end.
          r.status = 0;
          r.offset = my_size;
          fabric_.stats().add("dafs.append_rejects");
        } else if (term_at_locked(h.offset) != h.prev_term) {
          // Divergent at the boundary: skip back past our whole conflicting
          // term run so the leader retries from before it.
          std::uint64_t hint = 0;
          for (const TermRun& run : term_runs_) {
            if (run.start_off < h.offset) {
              hint = run.start_off;
            } else {
              break;
            }
          }
          r.status = 0;
          r.offset = hint;
          fabric_.stats().add("dafs.append_rejects");
        } else {
          const bool behind = my_size < h.commit;
          if (h.offset < my_size) {
            // Divergent suffix (our unreplicated bytes from a deposed
            // stint): cut back to the leader's matching prefix.
            const std::uint64_t dropped =
                store_->journal_log().truncate(h.offset);
            fabric_.stats().add("dafs.resilver_truncated_bytes", dropped);
            progressed = true;
          }
          if (h.len > 0) {
            const auto res = store_->journal_log().import(std::span(
                b->mem.data() + sizeof(ReplHeader), std::size_t{h.len}));
            moved = res.accepted;
            progressed = progressed || res.accepted > 0;
          }
          if (progressed) rebuild_term_runs_locked();
          const std::uint64_t new_size = store_->journal_size();
          const std::uint64_t new_commit = std::min(h.commit, new_size);
          if (new_commit > commit_off_.load(std::memory_order_relaxed)) {
            commit_off_.store(new_commit, std::memory_order_relaxed);
          }
          r.status = 1;
          r.offset = new_size;
          caught_up = new_size >= h.commit;
          progressed = progressed && behind;
        }
      }
    } else if (h.op == ReplOp::kBlockFetch) {
      // Scrub repair: the leader asks for a verified copy of one block. A
      // follower's live image is only materialized when it wins an
      // election, so replay the imported journal first (one replay per
      // fetch — repairs are rare), then serve the block only when it passes
      // its own checksum: a peer whose copy is itself rotten answers
      // status=0 rather than spreading the rot.
      r.op = ReplOp::kBlockData;
      r.epoch = epoch_.load(std::memory_order_relaxed);
      r.offset = h.offset;
      r.commit = h.commit;
      r.status = 0;
      std::lock_guard lock(raft_mu_);
      const std::size_t want =
          std::min<std::size_t>(h.len, cfg_.store.chunk_size);
      if (role_.load(std::memory_order_acquire) == Role::kFollower &&
          want > 0 && store_->crash() == fstore::Errc::kOk) {
        auto got = store_->pread(
            h.commit, h.offset,
            std::span<std::byte>(resp_buf.data() + sizeof(ReplHeader), want),
            /*verify=*/true);
        if (got.ok()) {
          r.status = 1;
          r.len = static_cast<std::uint32_t>(got.value());
          fabric_.stats().add("dafs.scrub_blocks_served");
        }
      }
    } else {
      break;  // not a quorum op: not a peer we can talk to
    }
    if (progressed) {
      if (!resilver_open) {
        resilver_open = true;
        resilver_t0 = actor.now();
        resilver_span_bytes = 0;
      }
      resilver_span_bytes += moved;
      resilver_bytes_.fetch_add(moved, std::memory_order_relaxed);
    }
    if (caught_up) close_resilver();
    b->desc.segs = {DataSegment{b->mem.data(), b->handle,
                                static_cast<std::uint32_t>(b->mem.size())}};
    if (!send_resp(r) || vi->post_recv(b->desc) != via::Status::kSuccess) {
      break;
    }
  }
  close_resilver();
  {
    std::lock_guard qlock(quorum_mu_);
    quorum_conn_vis_.erase(
        std::remove(quorum_conn_vis_.begin(), quorum_conn_vis_.end(), vi.get()),
        quorum_conn_vis_.end());
  }
  vi->disconnect();
}

void Server::quorum_sender_loop(std::uint32_t peer) {
  Actor actor("dafs-raft-send" + std::to_string(peer), &fabric_.node(node_));
  ActorScope scope(actor);
  std::vector<std::byte> chunk(kReplBufSize);
  via::MemHandle chunk_h =
      nic_.register_memory(chunk.data(), chunk.size(), ptag_, {});
  // A single journal record larger than the default chunk (a max-size client
  // write plus its header) must still ship whole; grow and re-register.
  const auto reserve_chunk = [&](std::size_t need) {
    if (need <= chunk.size()) return;
    [[maybe_unused]] const via::Status ds = nic_.deregister_memory(chunk_h);
    assert(ds == via::Status::kSuccess);
    chunk.assign(need, std::byte{});
    chunk_h = nic_.register_memory(chunk.data(), chunk.size(), ptag_, {});
  };
  constexpr std::size_t kRespBufs = 4;
  std::array<MsgBuf, kRespBufs> resps;
  for (auto& a : resps) {
    a.mem.resize(sizeof(ReplHeader));
    a.handle = nic_.register_memory(a.mem.data(), a.mem.size(), ptag_, {});
  }
  std::unique_ptr<via::Vi> vi;
  sim::Rng jitter = jitter_rng(cfg_.repl_retry.jitter_seed, peer + 1);
  // Modeled ms: b runs 2, 4, ... 100, so a wait is 1-2 ms at first and
  // 50-100 ms at the cap.
  Backoff retry(2, 100);
  std::uint64_t last_vote_term = 0;

  // Shared connect/exchange backoff: escalates on every failed attempt
  // (unreachable peer OR a broken exchange on a live connection) and resets
  // only on a completed request/response. Without pacing the exchange
  // failures too, a persistent fault turns the loop into a reconnect storm —
  // each cycle costs the peer an accepted VI and a handler thread.
  const auto backoff = [&] {
    sim::sleep(sim::Deadline::modeled(retry.next(jitter) * sim::kMsec));
  };
  const auto drop_conn = [&] {
    if (vi) {
      vi->disconnect();
      vi.reset();
    }
  };
  const auto repost = [&](MsgBuf& a) {
    a.desc = Descriptor{};
    a.desc.segs = {DataSegment{a.mem.data(), a.handle,
                               static_cast<std::uint32_t>(a.mem.size())}};
    return vi->post_recv(a.desc) == via::Status::kSuccess;
  };
  const auto send_msg = [&](const ReplHeader& h,
                            std::span<const std::byte> payload) {
    reserve_chunk(sizeof(h) + payload.size());
    std::memcpy(chunk.data(), &h, sizeof(h));
    if (!payload.empty()) {
      std::memcpy(chunk.data() + sizeof(h), payload.data(), payload.size());
    }
    Descriptor d;
    d.op = via::Opcode::kSend;
    d.segs = {DataSegment{
        chunk.data(), chunk_h,
        static_cast<std::uint32_t>(sizeof(h) + payload.size())}};
    if (vi->post_send(d) != via::Status::kSuccess) return false;
    Descriptor* done = nullptr;
    if (vi->send_wait(done, kSendWait) != via::Status::kSuccess) return false;
    return done->status == DescStatus::kSuccess;
  };
  // Parses only a whole header: a shorter reply would fill the rest of `out`
  // from an earlier reply's leftovers. A malformed reply drops the
  // connection like any broken exchange.
  const auto wait_resp = [&](ReplHeader& out) {
    const sim::Deadline deadline = sim::Deadline::host(200ms);
    for (;;) {
      Descriptor* d = nullptr;
      const via::Status st = vi->recv_wait(d, 20ms);
      if (st == via::Status::kTimeout) {
        if (!running_.load() || crash_pending_.load() || deadline.passed()) {
          return false;
        }
        continue;
      }
      if (st != via::Status::kSuccess || d->status != DescStatus::kSuccess) {
        return false;
      }
      const auto a =
          std::find_if(resps.begin(), resps.end(),
                       [&](const MsgBuf& m) { return &m.desc == d; });
      assert(a != resps.end());
      const bool whole = d->length >= sizeof(out);
      if (whole) std::memcpy(&out, a->mem.data(), sizeof(out));
      if (!whole || out.magic != kReplMagic) {
        fabric_.stats().add("dafs.raft_malformed");
        return false;
      }
      return repost(*a);
    }
  };

  while (running_.load()) {
    if (crash_pending_.load()) {
      drop_conn();
      sim::sleep(sim::Deadline::host(1ms));
      continue;
    }
    const Role r = role_.load(std::memory_order_acquire);
    const std::uint64_t term = epoch_.load(std::memory_order_relaxed);
    const bool want_vote = r == Role::kCandidate && last_vote_term < term;
    if (!want_vote && r != Role::kLeader) {
      sim::sleep(sim::Deadline::host(1ms));
      continue;
    }
    if (!vi) {
      auto v = std::make_unique<via::Vi>(nic_, via::ViAttrs{});
      if (nic_.connect(*v, cfg_.quorum_group[peer],
                       std::chrono::milliseconds(200)) !=
          via::Status::kSuccess) {
        backoff();
        continue;
      }
      vi = std::move(v);
      if (!std::all_of(resps.begin(), resps.end(), repost)) {
        drop_conn();
        backoff();
        continue;
      }
    }
    if (want_vote) {
      ReplHeader h;
      h.op = ReplOp::kVoteReq;
      h.epoch = term;
      h.member = cfg_.member_id;
      {
        std::lock_guard lock(raft_mu_);
        h.offset = store_->journal_size();
        h.prev_term = term_at_locked(h.offset);
      }
      ReplHeader resp;
      if (!send_msg(h, {}) || !wait_resp(resp)) {
        drop_conn();
        backoff();
        continue;
      }
      retry.reset();
      last_vote_term = term;
      if (resp.op == ReplOp::kVoteResp) {
        if (resp.epoch > term) {
          std::lock_guard lock(raft_mu_);
          become_follower_locked(resp.epoch);
        } else if (resp.status == 1) {
          on_vote_granted(term);
        }
      }
      continue;
    }
    // Leader: ship what the peer is missing, or an empty heartbeat.
    std::uint64_t next = 0;
    std::uint64_t prev_term = 0;
    std::uint64_t commit = 0;
    {
      std::lock_guard lock(raft_mu_);
      if (role_.load(std::memory_order_acquire) != Role::kLeader ||
          epoch_.load(std::memory_order_relaxed) != term) {
        continue;
      }
      next = std::min(next_off_[peer], store_->journal_size());
      prev_term = term_at_locked(next);
      commit = commit_off_.load(std::memory_order_relaxed);
    }
    std::vector<std::byte> payload;
    if (next < store_->journal_size()) {
      payload =
          store_->journal_log().read(next, kReplBufSize - sizeof(ReplHeader));
    }
    ReplHeader h;
    h.op = ReplOp::kAppend;
    h.epoch = term;
    h.offset = next;
    h.prev_term = prev_term;
    h.commit = commit;
    h.member = cfg_.member_id;
    h.len = static_cast<std::uint32_t>(payload.size());
    ReplHeader resp;
    if (!send_msg(h, payload) || !wait_resp(resp) ||
        resp.op != ReplOp::kAppendResp) {
      drop_conn();
      backoff();
      continue;
    }
    retry.reset();
    bool in_sync = false;
    {
      std::lock_guard lock(raft_mu_);
      peer_lease_[peer] = lease_from_now();
      if (resp.epoch > epoch_.load(std::memory_order_relaxed)) {
        become_follower_locked(resp.epoch);
        continue;
      }
      if (role_.load(std::memory_order_acquire) == Role::kLeader &&
          epoch_.load(std::memory_order_relaxed) == term) {
        if (resp.status == 1) {
          match_off_[peer] = resp.offset;
          next_off_[peer] = resp.offset;
          fabric_.stats().add("dafs.quorum_shipped_bytes", h.len);
          advance_commit_locked();
          in_sync = resp.offset >= store_->journal_size();
        } else {
          // Conflict hint: back off (never forward) and retry immediately.
          next_off_[peer] = std::min(resp.offset, next);
          fabric_.stats().add("dafs.append_backoffs");
        }
      }
    }
    if (in_sync) {
      // Nothing to ship: heartbeat cadence, but wake instantly when the
      // commit barrier signals fresh journal bytes.
      std::unique_lock lock(raft_mu_);
      raft_cv_.wait(lock,
                    sim::Deadline::modeled(cfg_.heartbeat_ms * sim::kMsec));
    }
  }
  drop_conn();
}

// ---------------------------------------------------------------------------
// Background scrub
// ---------------------------------------------------------------------------

void Server::scrub_loop() {
  Actor actor("dafs-scrub", &fabric_.node(node_));
  ActorScope scope(actor);
  sim::Tracer& tracer = fabric_.trace();
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
      if (tracer.enabled()) {
        sim::Span sp;
        sp.trace_id = tracer.new_id();
        sp.span_id = tracer.new_id();
        sp.t_start = pass_t0;
        sp.t_end = std::max(actor.now(), pass_t0);
        sp.layer = "dafs.server";
        sp.name = "scrub.pass";
        char attrs[96];
        std::snprintf(attrs, sizeof(attrs), "\"checked\":%llu,\"bad\":%llu",
                      static_cast<unsigned long long>(pass_checked),
                      static_cast<unsigned long long>(pass_bad));
        sp.attrs = attrs;
        tracer.record(std::move(sp));
      }
      pass_open = false;
    }
  }
}

bool Server::scrub_repair_block(fstore::Ino ino, std::uint64_t chunk) {
  if (!quorum() || cfg_.quorum_group.size() < 2) return false;
  const std::size_t chunk_size = cfg_.store.chunk_size;
  std::vector<std::byte> data_buf(sizeof(ReplHeader) + chunk_size);
  const via::MemHandle data_h =
      nic_.register_memory(data_buf.data(), data_buf.size(), ptag_, {});
  std::vector<std::byte> req_buf(sizeof(ReplHeader));
  const via::MemHandle req_h =
      nic_.register_memory(req_buf.data(), req_buf.size(), ptag_, {});
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
      via::Vi vi(nic_, via::ViAttrs{});
      Descriptor recv_d;
      recv_d.segs = {DataSegment{data_buf.data(), data_h,
                                 static_cast<std::uint32_t>(data_buf.size())}};
      if (vi.post_recv(recv_d) != via::Status::kSuccess) continue;
      if (nic_.connect(vi, cfg_.quorum_group[peer],
                       std::chrono::milliseconds(200)) !=
          via::Status::kSuccess) {
        continue;
      }
      ReplHeader req;
      req.op = ReplOp::kBlockFetch;
      req.epoch = epoch_.load(std::memory_order_relaxed);
      req.offset = chunk * chunk_size;
      req.len = static_cast<std::uint32_t>(chunk_size);
      req.commit = ino;
      req.member = cfg_.member_id;
      std::memcpy(req_buf.data(), &req, sizeof(req));
      Descriptor d;
      d.op = via::Opcode::kSend;
      d.segs = {DataSegment{req_buf.data(), req_h,
                            static_cast<std::uint32_t>(sizeof(req))}};
      bool sent = vi.post_send(d) == via::Status::kSuccess;
      if (sent) {
        Descriptor* done = nullptr;
        sent = vi.send_wait(done, kSendWait) == via::Status::kSuccess &&
               done->status == DescStatus::kSuccess;
      }
      ReplHeader resp{};
      bool got = false;
      if (sent) {
        const sim::Deadline deadline = sim::Deadline::host(500ms);
        while (running_.load() && !crash_pending_.load()) {
          Descriptor* rd = nullptr;
          const via::Status st = vi.recv_wait(rd, 20ms);
          if (st == via::Status::kTimeout) {
            if (deadline.passed()) break;
            continue;
          }
          if (st == via::Status::kSuccess && rd->status == DescStatus::kSuccess) {
            // Trust the header only when it arrived whole and the payload it
            // claims is exactly what followed it; anything else skips the
            // peer.
            const bool whole = rd->length >= sizeof(resp);
            if (whole) std::memcpy(&resp, data_buf.data(), sizeof(resp));
            got = whole &&
                  rd->length == sizeof(resp) + std::uint64_t{resp.len} &&
                  resp.magic == kReplMagic && resp.op == ReplOp::kBlockData;
            if (!got) fabric_.stats().add("dafs.raft_malformed");
          }
          break;
        }
      }
      vi.disconnect();
      if (!got || resp.status != 1) continue;
      const std::size_t len = std::min<std::size_t>(resp.len, chunk_size);
      if (store_->repair_chunk(
              ino, chunk,
              {data_buf.data() + sizeof(ReplHeader), len}) ==
          fstore::Errc::kOk) {
        repaired = true;
      }
    }
  }
  [[maybe_unused]] const via::Status d1 = nic_.deregister_memory(data_h);
  [[maybe_unused]] const via::Status d2 = nic_.deregister_memory(req_h);
  return repaired;
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
  const sim::Time now =
      actor != nullptr ? std::max(actor->now(), d.recall_started)
                       : d.recall_started;
  fabric_.histograms().record("dafs.deleg.recall_ns", now - d.recall_started);
  sim::Tracer& tracer = fabric_.trace();
  if (!tracer.enabled()) return;
  // Rooted span: the recall outlives the request that triggered it and
  // completes under whichever request observes the return/expiry.
  sim::Span sp;
  sp.trace_id = tracer.new_id();
  sp.span_id = tracer.new_id();
  sp.t_start = d.recall_started;
  sp.t_end = now;
  sp.layer = "dafs.server";
  sp.name = "dafs.deleg.recall";
  char attrs[96];
  std::snprintf(attrs, sizeof(attrs),
                "\"ino\":%llu,\"deleg\":%llu,\"how\":\"%s\"",
                static_cast<unsigned long long>(ino),
                static_cast<unsigned long long>(d.id), how);
  sp.attrs = attrs;
  tracer.record(std::move(sp));
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
