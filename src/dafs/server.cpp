#include "dafs/server.hpp"

#include <pthread.h>

#include <cassert>
#include <cstdio>
#include <span>

namespace dafs {

using sim::Actor;
using sim::ActorScope;
using via::DataSegment;
using via::DescStatus;
using via::MemAttrs;

using namespace std::chrono_literals;

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

}  // namespace dafs
