#include "dafs/server.hpp"

#include <pthread.h>

#include <algorithm>
#include <functional>
#include <span>

#include "dafs/repl.hpp"
#include "fstore/journal.hpp"

namespace dafs {

using sim::Actor;
using sim::ActorScope;

using namespace std::chrono_literals;

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
  Actor* actor = Actor::current();
  sim::record_span(
      fabric_, "dafs.server", "raft.election", election_started_,
      actor != nullptr ? std::max(actor->now(), election_started_)
                       : election_started_,
      sim::SpanParent::root(), {{"term", term}, {"member", cfg_.member_id}});
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
    // Pre-arm the connection before accepting, so a vote request racing the
    // handshake finds its buffers posted.
    std::unique_ptr<ReplLink> link = new_repl_link();
    link->add_recv_buffers(4, kReplBufSize);
    if (!link->arm()) break;  // NIC out of resources; the member goes deaf
    bool accepted = false;
    while (running_.load()) {
      if (listener.accept(link->vi(), kPollPeriod) == via::Status::kSuccess) {
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
    quorum_conn_vis_.push_back(&link->vi());
    raw->thread = std::thread([this, raw, l = std::move(link)]() mutable {
      pthread_setname_np(pthread_self(), "dafs-raft-h");
      quorum_conn_loop(std::move(l));
      raw->done.store(true, std::memory_order_release);
    });
    quorum_conn_threads_.push_back(std::move(slot));
  }
}

void Server::quorum_conn_loop(std::unique_ptr<ReplLink> link) {
  Actor actor("dafs-raft-conn", &fabric_.node(node_));
  ActorScope scope(actor);
  // Sized for the largest reply: a kBlockData response carrying one whole
  // store chunk after the header (everything else is header-only).
  link->add_send_buffer(sizeof(ReplHeader) + cfg_.store.chunk_size);
  // Re-silvering accounting: one span per catch-up burst, opened when this
  // follower starts importing while behind the leader's commit (or had a
  // divergent suffix truncated), closed when it has caught up.
  bool resilver_open = false;
  sim::Time resilver_t0 = 0;
  std::uint64_t resilver_span_bytes = 0;
  const auto close_resilver = [&] {
    if (!resilver_open) return;
    resilver_open = false;
    fabric_.stats().add("dafs.resilvers");
    sim::record_span(fabric_, "dafs.server", "raft.resilver", resilver_t0,
                     std::max(actor.now(), resilver_t0),
                     sim::SpanParent::root(),
                     {{"bytes", resilver_span_bytes},
                      {"member", cfg_.member_id}});
  };

  // A frame that fails the link's frame check (say, a kAppend claiming
  // bytes it did not send) drops the peer; so does a stop or a crash: the
  // dead neither vote nor ack.
  ReplLink::Frame f;
  while (link->recv(f, sim::Deadline::never(), std::chrono::milliseconds(100))) {
    const ReplHeader& h = f.header;
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
            const auto res = store_->journal_log().import(f.payload);
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
        auto got = store_->pread(h.commit, h.offset, link->payload(want),
                                 /*verify=*/true);
        if (got.ok()) {
          r.status = 1;
          r.len = static_cast<std::uint32_t>(got.value());
          fabric_.stats().add("dafs.scrub_blocks_served");
        }
      }
    } else {
      break;  // a reply is no request: not a peer we can talk to
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
    if (!link->send(r, r.len)) break;
  }
  close_resilver();
  {
    std::lock_guard qlock(quorum_mu_);
    quorum_conn_vis_.erase(std::remove(quorum_conn_vis_.begin(),
                                       quorum_conn_vis_.end(), &link->vi()),
                           quorum_conn_vis_.end());
  }
  link->drop();
}

std::unique_ptr<ReplLink> Server::new_repl_link() {
  return std::make_unique<ReplLink>(nic_, ptag_, kSendWait, [this] {
    return !running_.load() || crash_pending_.load();
  });
}

void Server::quorum_sender_loop(std::uint32_t peer) {
  Actor actor("dafs-raft-send" + std::to_string(peer), &fabric_.node(node_));
  ActorScope scope(actor);
  // Each exchange waits 200 ms for its reply, polled in 20 ms slices.
  const std::unique_ptr<ReplLink> link = new_repl_link();
  link->add_send_buffer(kReplBufSize);
  link->add_recv_buffers(4, sizeof(ReplHeader));
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

  while (running_.load()) {
    if (crash_pending_.load()) {
      link->drop();
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
    if (!link->connected() &&
        !link->connect(cfg_.quorum_group[peer], std::chrono::milliseconds(200))) {
      backoff();
      continue;
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
      ReplLink::Frame resp;
      if (!link->send(h) || !link->recv(resp, sim::Deadline::host(200ms), 20ms)) {
        link->drop();
        backoff();
        continue;
      }
      retry.reset();
      last_vote_term = term;
      if (resp.header.op == ReplOp::kVoteResp) {
        if (resp.header.epoch > term) {
          std::lock_guard lock(raft_mu_);
          become_follower_locked(resp.header.epoch);
        } else if (resp.header.status == 1) {
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
    std::size_t len = 0;
    if (next < store_->journal_size()) {
      const std::vector<std::byte> bytes =
          store_->journal_log().read(next, kReplBufSize - sizeof(ReplHeader));
      std::copy(bytes.begin(), bytes.end(), link->payload(bytes.size()).begin());
      len = bytes.size();
    }
    ReplHeader h;
    h.op = ReplOp::kAppend;
    h.epoch = term;
    h.offset = next;
    h.prev_term = prev_term;
    h.commit = commit;
    h.member = cfg_.member_id;
    h.len = static_cast<std::uint32_t>(len);
    ReplLink::Frame f;
    if (!link->send(h, len) ||
        !link->recv(f, sim::Deadline::host(200ms), 20ms) ||
        f.header.op != ReplOp::kAppendResp) {
      link->drop();
      backoff();
      continue;
    }
    const ReplHeader& resp = f.header;
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
}

}  // namespace dafs
