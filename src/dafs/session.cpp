#include "dafs/session.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <thread>

#include "fstore/journal.hpp"
#include "sim/actor.hpp"
#include "sim/wait.hpp"

namespace dafs {

using sim::Actor;
using sim::CostKind;

namespace {
using namespace std::chrono_literals;
constexpr auto kIoWait = std::chrono::milliseconds(10'000);
constexpr sim::Time kLockBackoffBase = 20'000;  // 20 us virtual, first retry
constexpr sim::Time kLockBackoffCap = 1'280'000;
constexpr int kLockRetries = 100'000;
// Bound on how often one request may chase a restarting server through the
// kBadSession-response path (each pass runs a full recover()); repeated
// kBadSession beyond this means the server is crash-looping.
constexpr int kSlotReclaimRetries = 4;
/// A filer that is coming up or restarting has no listener yet: a dial polls
/// for it every kDialPause, kDialPolls times (2 s) for the first connect and
/// for a one-endpoint mount's recovery, which has nowhere else to go, and
/// kProbePolls times when recovery can rotate to another member instead.
constexpr auto kDialPause = 1ms;
constexpr int kDialPolls = 2000;
constexpr int kProbePolls = 8;
/// The pause after a kNotLeader redirect, while leadership settles: short
/// after jumping to the leader a follower named, longer after demoting one
/// that named none (an election is in progress).
constexpr auto kJumpPause = 2ms;
constexpr auto kDemotePause = 10ms;

/// One transport wait, `wait(until)`. Its patience is the generous host
/// watchdog kIoWait or, with a request deadline, that modeled budget, floored
/// at 100 ms of host time so scheduling noise cannot starve a short-deadline
/// request of its one chance to complete. The watchdog goes down as a
/// duration, so a completion already queued costs no clock read.
template <typename Wait>
via::Status io_wait(std::uint64_t deadline_ns, Wait wait) {
  if (deadline_ns == 0) return wait(kIoWait);
  return wait(std::clamp(sim::Deadline::modeled(deadline_ns),
                         sim::Deadline::host(100ms),
                         sim::Deadline::host(kIoWait)));
}

via::ViAttrs session_vi_attrs(via::ProtectionTag tag) {
  via::ViAttrs attrs;
  attrs.ptag = tag;  // inbound RDMA must match our registrations
  return attrs;
}

/// The attributes an open or getattr reply carries (defaults when short).
fstore::Attrs attrs_of(std::span<const std::byte> payload) {
  fstore::Attrs a;
  if (payload.size() >= sizeof(a)) std::memcpy(&a, payload.data(), sizeof(a));
  return a;
}
}  // namespace

Session::Session(via::Nic& nic, MountSpec spec)
    : nic_(nic),
      cfg_(std::move(spec.client)),
      eps_(std::move(spec.endpoints)),
      ptag_(nic.create_ptag()),
      vi_(std::make_unique<via::Vi>(nic, session_vi_attrs(ptag_))),
      backoff_rng_(1),
      reg_cache_(nic, ptag_, cfg_.reg_cache_entries, cfg_.reg_cache,
                 "dafs.regcache_evictions") {
  // Normalize: an empty endpoint list means one default endpoint at the
  // ClientConfig's service (also what the deprecated shim produces).
  if (eps_.empty()) eps_.push_back(Endpoint{cfg_.service, RetryPolicy{}});
  backoff_rng_ = sim::Rng(eps_[0].retry.jitter_seed);
  deadline_ns_ = eps_[0].retry.deadline_ns;
}

Result<std::unique_ptr<Session>> Session::connect(via::Nic& nic,
                                                  const MountSpec& spec) {
  auto s = std::unique_ptr<Session>(new Session(nic, spec));
  if (const PStatus st = s->do_connect(); st != PStatus::kOk) return st;
  return s;
}

void Session::advance_endpoint() {
  if (eps_.size() > 1) nic_.fabric().stats().add("dafs.endpoint_rotations");
  ep_ = (ep_ + 1) % eps_.size();
  // Reseed the jitter RNG per rotation so two passes through the same
  // endpoint list do not replay the same backoff schedule.
  backoff_rng_ = jitter_rng(eps_[ep_].retry.jitter_seed, ++rotations_);
}

void Session::demote_endpoint() {
  if (eps_.size() > 1) {
    nic_.fabric().stats().add("dafs.endpoint_demotions");
    // Physically move the refusing endpoint to the back of the list so a
    // later full sweep reprobes it last, then bind whatever slid into its
    // place (wrapping when it was already last).
    Endpoint demoted = std::move(eps_[ep_]);
    eps_.erase(eps_.begin() + static_cast<std::ptrdiff_t>(ep_));
    eps_.push_back(std::move(demoted));
    if (ep_ >= eps_.size() - 1) ep_ = 0;
  }
  backoff_rng_ = jitter_rng(eps_[ep_].retry.jitter_seed, ++rotations_);
}

bool Session::follow_leader_hint(std::uint64_t aux) {
  if (aux == 0) return false;
  const auto member = static_cast<std::uint32_t>(aux - 1);
  for (std::size_t i = 0; i < eps_.size(); ++i) {
    if (eps_[i].member != member) continue;
    if (i == ep_) return false;  // the hint names the endpoint we just tried
    ep_ = i;
    backoff_rng_ = jitter_rng(eps_[ep_].retry.jitter_seed, ++rotations_);
    nic_.fabric().stats().add("dafs.leader_hints_followed");
    return true;
  }
  return false;
}

PStatus Session::do_connect() {
  assert(Actor::current() && "Session::connect outside an ActorScope");
  // A quorum group caught mid-election answers kNotLeader everywhere with no
  // hint until a leader emerges, so passes that land in that window burn
  // budget without progress; the redirect pauses span the election across
  // the passes. Twice one pass per endpoint plus slack, at kDemotePause
  // each, rides out about 220 ms on a three-member mount: two election
  // timeouts, so one split vote fits. The service may still be coming up,
  // so each pass polls for it, and with several endpoints alternates
  // between them: whichever one is up answers first.
  for (std::size_t pass = 0; pass < 2 * (eps_.size() + 8); ++pass) {
    if (const PStatus st = dial(kDialPolls, eps_.size() > 1);
        st != PStatus::kOk) {
      return st;
    }
    const Reply r = call(Proc::kConnect);
    if (r.status == PStatus::kNotLeader) {
      redirect();
      continue;
    }
    if (r.status != PStatus::kOk) return r.status;
    session_id_ = r.hdr.aux;
    // Session ids are unique and never reused (they survive server
    // restarts), so the first one makes a stable client identity for the
    // durable duplicate filter unless the caller supplied its own.
    if (client_id_ == 0) {
      client_id_ = cfg_.client_id != 0 ? cfg_.client_id : session_id_;
    }
    nic_.fabric().stats().add("dafs.client_sessions");
    return PStatus::kOk;
  }
  return PStatus::kNotLeader;
}

PStatus Session::dial(int polls, bool rotate) {
  // A VI that has connected (or failed) once is finished. The NIC
  // registrations behind the session's buffers are independent of it and
  // survive, so the server can still RDMA against the same client buffers.
  vi_->disconnect();
  vi_ = std::make_unique<via::Vi>(nic_, session_vi_attrs(ptag_));
  via::Status cst = via::Status::kNoMatchingListener;
  for (int i = 0; i < polls; ++i) {
    cst = nic_.connect(*vi_, active_service(), kIoWait);
    if (cst != via::Status::kNoMatchingListener) break;
    if (rotate) advance_endpoint();
    sim::sleep(sim::Deadline::host(kDialPause));
  }
  if (cst != via::Status::kSuccess) return PStatus::kProtoError;
  // The first dial allocates and registers the message buffers: the
  // receive ring, and a send buffer per slot (the credit window plus
  // recovery's spare). Later dials reuse them on the fresh VI.
  if (recv_bufs_.empty()) {
    recv_bufs_.resize(cfg_.credits);
    for (auto& rb : recv_bufs_) {
      rb.mem.resize(cfg_.msg_buf_size);
      rb.handle =
          nic_.register_memory(rb.mem.data(), rb.mem.size(), ptag_, {});
      if (rb.handle == via::kInvalidMemHandle) return PStatus::kNoResource;
    }
    slots_.resize(cfg_.credits + 1);
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      auto& sl = slots_[i];
      sl.send_buf.resize(cfg_.msg_buf_size);
      sl.send_handle = nic_.register_memory(sl.send_buf.data(),
                                            sl.send_buf.size(), ptag_, {});
      if (sl.send_handle == via::kInvalidMemHandle) {
        return PStatus::kNoResource;
      }
      if (i < cfg_.credits) free_slots_.push_back(static_cast<OpId>(i));
    }
  }
  // Receive buffers must be posted before the first request leaves: the
  // credit contract with the server.
  return repost_all() ? PStatus::kOk : PStatus::kProtoError;
}

void Session::redirect() {
  // A quorum follower answered. Jump straight to the leader it named when
  // the mount knows that endpoint; otherwise demote the follower behind the
  // rest of the rotation. Either way leadership is still settling (an
  // election in progress, or a hint chasing a heartbeat behind), and that is
  // a host-time wait: pace the passes instead of burning their budget
  // before a leader can possibly emerge.
  const bool jumped = follow_leader_hint(leader_hint_);
  if (!jumped) demote_endpoint();
  sim::sleep(sim::Deadline::host(jumped ? kJumpPause : kDemotePause));
}

Session::~Session() {
  // A failed farewell must not abort teardown, but it must not vanish
  // either: a filer that missed the disconnect keeps the session (and its
  // locks) alive until it expires.
  if (!dead_ && session_id_ != 0 &&
      call(Proc::kDisconnect).status != PStatus::kOk) {
    nic_.fabric().stats().add("dafs.disconnect_errors");
  }
  vi_->disconnect();
  // Message-buffer registrations are dropped with the registry; the
  // registration cache deregisters its entries as it is destroyed.
}

// ---------------------------------------------------------------------------
// Slot management & transport
// ---------------------------------------------------------------------------

Result<OpId> Session::alloc_slot(sim::SpanContext trace) {
  if (dead_) return PStatus::kConnLost;
  OpId id = spare_slot();
  if (!recovering_) {
    if (free_slots_.empty()) return PStatus::kInval;  // credit limit exceeded
    id = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& sl = slots_[id];
  assert(!sl.in_use);
  sl.in_use = true;
  sl.done = false;
  sl.t_submit = 0;
  sl.busy_retries = 0;
  sl.reclaim_retries = 0;
  // Trace identity, captured once per request. Busy retries and recovery's
  // retransmissions carry these ids, so every retry of this request links
  // back to the original root.
  sl.trace_id = 0;
  sl.span_id = 0;
  sl.parent_span = 0;
  if (sim::Tracer& tracer = nic_.fabric().trace();
      tracer.enabled() && trace.active()) {
    sl.trace_id = trace.trace_id;
    sl.parent_span = trace.span_id;
    sl.span_id = tracer.new_id();
  }
  sl.user_buf = nullptr;
  sl.user_cap = 0;
  sl.verify_buf = nullptr;
  sl.payload.clear();
  sl.temp_handles.clear();
  return id;
}

void Session::free_slot(OpId id) {
  Slot& sl = slots_[id];
  for (const via::MemHandle h : sl.temp_handles) reg_cache_.release(h);
  sl.temp_handles.clear();
  sl.in_use = false;
  if (id != spare_slot()) free_slots_.push_back(id);
}

PStatus Session::transmit(OpId id) {
  Actor* actor = Actor::current();
  assert(actor && "DAFS op outside an ActorScope");
  actor->charge(CostKind::kProtocol, nic_.cost().client_op);

  Slot& sl = slots_[id];
  MsgView msg(sl.send_buf.data(), sl.send_buf.size());
  msg.header().request_id = id;
  msg.header().session_id = session_id_;
  // Stamp the request with its session sequence number exactly once: a
  // retransmission after recovery must carry the same seq so the server's
  // replay cache can recognize it.
  sl.seq = next_seq_++;
  msg.header().seq = sl.seq;
  msg.header().client_id = client_id_;
  msg.header().deadline =
      io_deadline() == 0 ? 0 : actor->now() + io_deadline();
  // Piggybacked cumulative ack: every seq below the oldest still-outstanding
  // request has been answered, so the server may drop those replay entries.
  std::uint32_t ack = sl.seq - 1;
  for (const Slot& o : slots_) {
    if (&o != &sl && o.in_use && !o.done && o.seq != 0 && o.seq <= ack) {
      ack = o.seq - 1;
    }
  }
  msg.header().ack_seq = ack;
  msg.header().trace_id = sl.trace_id;
  msg.header().parent_span_id = sl.span_id;
  sl.proc = msg.header().proc;
  sl.wire_len = msg.wire_size();
  // First transmission only: a busy/corrupt retry re-enters here, and the
  // request span (and end-to-end RTT) must keep covering the failed
  // attempts — re-stamping would start the span after the server-side spans
  // those attempts already recorded.
  if (sl.t_submit == 0) sl.t_submit = actor->now();
  if (send(sl)) return PStatus::kOk;
  // Transport failure. This slot is in flight (in_use, not done), so a
  // successful recovery has already retransmitted it. During recovery,
  // recover() refuses, and the failure ends that recovery attempt.
  return recover() ? PStatus::kOk : PStatus::kConnLost;
}

bool Session::send(Slot& sl) {
  sl.send_desc = via::Descriptor{};
  sl.send_desc.op = via::Opcode::kSend;
  sl.send_desc.segs = {
      via::DataSegment{sl.send_buf.data(), sl.send_handle,
                       static_cast<std::uint32_t>(sl.wire_len)}};
  via::Descriptor* done = nullptr;
  return vi_->post_send(sl.send_desc) == via::Status::kSuccess &&
         io_wait(io_deadline(),
                 [&](auto until) { return vi_->send_wait(done, until); }) ==
             via::Status::kSuccess &&
         done->status == via::DescStatus::kSuccess;
}

bool Session::pump_one(bool block) {
  for (;;) {
    via::Descriptor* d = nullptr;
    const via::Status st =
        block ? io_wait(io_deadline(),
                        [&](auto until) { return vi_->recv_wait(d, until); })
              : vi_->recv_done(d);
    if (st == via::Status::kNotDone) return false;  // nothing has arrived
    if (st == via::Status::kSuccess &&
        d->status == via::DescStatus::kSuccess) {
      if (d->length >= sizeof(MsgHeader)) {
        process_response(recv_buf(d));
        return true;
      }
      // Shorter than a header: its fields would be an earlier reply's
      // leftovers in this buffer, so the connection is no longer trusted.
      nic_.fabric().stats().add("dafs.malformed_replies");
    }
    // Connection died (or a fault flushed the receive ring). Recovery
    // retransmits everything in flight; responses arrive on the new VI.
    if (!recover() || !block) return false;
  }
}

Session::RecvBuf& Session::recv_buf(const via::Descriptor* d) {
  const auto it = std::find_if(recv_bufs_.begin(), recv_bufs_.end(),
                               [&](const RecvBuf& b) { return &b.desc == d; });
  assert(it != recv_bufs_.end());
  return *it;
}

bool Session::repost(RecvBuf& rb) {
  rb.desc = via::Descriptor{};
  rb.desc.segs = {via::DataSegment{
      rb.mem.data(), rb.handle, static_cast<std::uint32_t>(rb.mem.size())}};
  return vi_->post_recv(rb.desc) == via::Status::kSuccess;
}

bool Session::repost_all() {
  return std::all_of(recv_bufs_.begin(), recv_bufs_.end(),
                     [&](RecvBuf& rb) { return repost(rb); });
}

bool Session::process_response(RecvBuf& rb) {
  MsgView resp(rb.mem.data(), rb.mem.size());
  const MsgHeader h = resp.header();
  const OpId id = h.request_id;
  // A duplicated response, or one for a request that was already answered
  // before a retransmission, maps to no live slot: drop it.
  const bool live = id < slots_.size() && slots_[id].in_use &&
                    !slots_[id].done && slots_[id].seq == h.seq;
  if (live) {
    Slot& sl = slots_[id];
    sl.resp = h;
    // Trust only the bytes that arrived, and a direct read's length only up
    // to what it asked for: a reply claiming more ends its request with
    // kProtoError before any byte it claims is read.
    bool rejected = resp.wire_size() > rb.desc.length ||
                    (sl.verify_buf != nullptr && h.len > sl.user_cap);
    if (rejected) {
      nic_.fabric().stats().add("dafs.malformed_replies");
      sl.resp.status = PStatus::kProtoError;
    }
    // Wire-payload verification: the server stamped a CRC-32C over the data
    // it produced (inline payload bytes, or the direct bytes it RDMA-wrote
    // into our contiguous buffer). Verify before any byte reaches the
    // caller; a mismatch turns the response into kCorrupt so settle()
    // retries it instead of surfacing damaged data.
    if (!rejected && h.status == PStatus::kOk &&
        (h.flags & kFlagPayloadCrc) != 0) {
      std::span<const std::byte> covered;
      if (h.data_len > 0) {
        covered = {resp.data_payload(), h.data_len};
      } else if (sl.verify_buf != nullptr && h.len > 0) {
        covered = {sl.verify_buf, h.len};
      }
      if (!covered.empty()) {
        Actor::current()->charge(CostKind::kChecksum,
                                 nic_.cost().copy_time(covered.size()));
        nic_.fabric().stats().add("dafs.integrity_crc_bytes", covered.size());
        if (fstore::crc32c(covered) != h.payload_crc) {
          nic_.fabric().stats().add("dafs.integrity_client_rejects");
          sl.resp.status = PStatus::kCorrupt;
          rejected = true;
        }
      }
    }
    if (h.data_len > 0 && !rejected) {
      Actor* actor = Actor::current();
      const std::uint32_t n = h.data_len;
      if (sl.user_buf != nullptr) {
        // Inline read payload: the copy the direct path avoids.
        const std::uint64_t take = std::min<std::uint64_t>(n, sl.user_cap);
        std::memcpy(sl.user_buf, resp.data_payload(), take);
        actor->charge(CostKind::kCopy, nic_.cost().copy_time(take));
        nic_.fabric().stats().add("dafs.client_copy_bytes", take);
      } else {
        sl.payload.assign(resp.data_payload(), resp.data_payload() + n);
        actor->charge(CostKind::kCopy, nic_.cost().copy_time(n));
      }
    }
    // Recall notification: the server piggybacks kFlagDelegRecall on any
    // response to a holder's request. Sticky until the cache owner services
    // it — a response flag alone would be lost on ops that discard flags.
    if ((h.flags & kFlagDelegRecall) != 0 &&
        sl.ino != fstore::kInvalidIno) {
      recalled_.insert(sl.ino);
    }
    sl.done = true;
    record_rtt(sl);
  } else {
    nic_.fabric().stats().add("dafs.stale_responses");
  }
  // Return the receive buffer to the pool. A repost failure means the
  // connection just died again; the next pump recovers and reposts the ring.
  if (!repost(rb)) nic_.fabric().stats().add("dafs.repost_failures");
  return live;
}

PStatus Session::wait_slot(OpId id) {
  Slot& sl = slots_[id];
  do {
    while (!sl.done) {
      if (!pump_one()) return PStatus::kConnLost;
    }
  } while (!settle(id));
  return sl.resp.status;
}

bool Session::settle(OpId id) {
  Slot& sl = slots_[id];
  const PStatus st = sl.resp.status;
  // Remember a follower's leader hint even when the error surfaces:
  // do_connect and recover() both consume it to jump straight to the leader
  // instead of sweeping the mount blind.
  if (st == PStatus::kNotLeader) leader_hint_ = sl.resp.aux;
  // A kBadSession *response* (not a transport failure) means the server
  // restarted but kept our idle VI alive: it forgot the session, not the
  // connection. A kNotLeader answer to a bound session means leadership
  // moved underneath us. Either way recovery rebuilds the session (resume
  // against the new leader, reclaim from our leases) and retransmits; the
  // slot is marked un-done so recovery's replay includes it. Recovery's own
  // requests hand both answers back to the recovery code instead.
  if (!recovering_ &&
      (st == PStatus::kBadSession ||
       (st == PStatus::kNotLeader && session_id_ != 0)) &&
      sl.reclaim_retries < kSlotReclaimRetries) {
    ++sl.reclaim_retries;
    sl.done = false;
    if (recover()) return false;
    sl.resp.status = PStatus::kConnLost;
    sl.done = true;
    return true;
  }
  // Damaged data, not damaged state: the server never executed (writes) or
  // can safely re-execute (reads) this request. A wire flip is transient,
  // and the host-time yield gives the filer's scrubber the chance to repair
  // an at-rest flip between attempts.
  if (st == PStatus::kCorrupt) {
    return !retry_after(id,
                        std::max<std::uint64_t>(policy().backoff_ns, 100'000),
                        "dafs.corrupt_retries", 1ms);
  }
  // Shed by the server: honor the retry-after hint; the host-time yield lets
  // the admission queue actually drain. aux == 0 marks a deadline expiry,
  // not overload: retrying cannot help.
  if (st == PStatus::kBusy && sl.resp.aux != 0) {
    return !retry_after(id, sl.resp.aux, "dafs.busy_retries", 500us);
  }
  return true;
}

bool Session::retry_after(OpId id, std::uint64_t wait_ns, const char* counter,
                          std::chrono::microseconds yield) {
  Slot& sl = slots_[id];
  if (sl.busy_retries >= policy().max_busy_retries) return false;
  ++sl.busy_retries;
  nic_.fabric().stats().add(counter);
  Actor::current()->advance(Backoff(wait_ns, wait_ns).next(backoff_rng_));
  sim::sleep(sim::Deadline::host(yield));
  sl.done = false;
  // A shed or kCorrupt-answered request never executed (or is an idempotent
  // read), and the server never replay-caches failures, so the fresh seq
  // transmit() stamps makes this a new submission, not a replay-protected
  // retransmission.
  if (transmit(id) == PStatus::kOk) return true;
  sl.resp.status = PStatus::kConnLost;
  sl.done = true;
  return false;
}

std::uint16_t Session::integrity_flags() const {
  switch (cfg_.integrity) {
    case IntegrityMode::kOff: return 0;
    case IntegrityMode::kWire: return kFlagPayloadCrc;
    case IntegrityMode::kFull: return kFlagPayloadCrc | kFlagVerifyStore;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Transport-failure recovery
// ---------------------------------------------------------------------------

bool Session::recover() {
  if (recovering_ || dead_) return false;
  recovering_ = true;
  // Whatever we reconnect to may be a different incarnation (restart,
  // failover, new leader) that never issued our delegations. The ids keep
  // fencing correctly end-to-end; this only tells caches to stop trusting
  // locally-held bytes until revalidated.
  ++recovery_epoch_;
  struct Reset {
    bool& flag;
    ~Reset() { flag = false; }
  } reset{recovering_};

  Actor* actor = Actor::current();
  assert(actor && "recovery outside an ActorScope");
  auto& stats = nic_.fabric().stats();
  // Identify the starting endpoint by service, not index: demotion reorders
  // eps_, so after a refusing home is pushed to the back the survivor we
  // land on may occupy the very slot we started from.
  const std::string home = eps_[ep_].service;
  const sim::Time t_fail = actor->now();
  // Passes run the bound endpoint's retry budget; a follower's redirect (or
  // a dead listener on a multi-endpoint mount) cuts a pass short and
  // rotates. A single-endpoint mount gets one pass of long-polling through
  // the outage; a multi-endpoint mount instead keeps sweeping the endpoint
  // list — an election is not instant, so the new leader may answer only
  // some sweeps later — and spends its whole per-endpoint budget on short
  // cross-endpoint probes.
  const std::size_t max_passes =
      eps_.size() == 1
          ? 1
          : eps_.size() *
                static_cast<std::size_t>(std::max(1, eps_[ep_].retry.attempts));
  for (std::size_t pass = 0; pass < max_passes; ++pass) {
    const RetryPolicy retry = eps_[ep_].retry;  // by value: eps_ reorders
    Backoff backoff(retry.backoff_ns, retry.backoff_cap_ns);
    // Set when the pass already repositioned ep_ itself (a redirect);
    // suppresses the blind advance at the pass end.
    bool moved = false;
    for (int attempt = 1; attempt <= retry.attempts; ++attempt) {
      stats.add("dafs.recovery_attempts");
      // Capped exponential backoff, jittered so a herd of clients that died
      // together does not reconnect in lockstep.
      actor->advance(backoff.next(backoff_rng_));

      const sim::Time t0 = actor->now();
      // A crashed server takes its listener down for the whole restart
      // delay. A single-endpoint mount has nowhere else to go, so it polls
      // through the outage; a multi-endpoint mount probes briefly and
      // rotates to the surviving members instead.
      if (dial(eps_.size() == 1 ? kDialPolls : kProbePolls, false) !=
          PStatus::kOk) {
        if (eps_.size() > 1) break;
        continue;
      }
      // Resume the session on the fresh VI. A quorum follower redirects;
      // kBadSession means the server restarted (or a new leader never saw
      // us), so rebuild its state from our leases before retransmitting.
      const Reply r = call(Proc::kConnect, {}, Fh{}, 0, 0, session_id_,
                           kConnectResume);
      if (r.status == PStatus::kNotLeader) {
        redirect();
        moved = true;
        break;
      }
      const bool resumed =
          r.status == PStatus::kOk && r.hdr.aux == session_id_;
      if (!resumed &&
          (r.status != PStatus::kBadSession || !reclaim_session())) {
        continue;
      }
      if (!retransmit_inflight()) continue;
      nic_.fabric().histograms().record("dafs.reconnect_ns",
                                        actor->now() - t0);
      stats.add("dafs.recoveries");
      if (eps_[ep_].service != home) {
        ++failovers_;
        stats.add("dafs.failovers");
        nic_.fabric().histograms().record("dafs.failover_ns",
                                          actor->now() - t_fail);
      }
      return true;
    }
    if (!moved) advance_endpoint();
  }
  dead_ = true;
  stats.add("dafs.recovery_failures");
  return false;
}

bool Session::reclaim_session() {
  auto& stats = nic_.fabric().stats();
  // A transport loss, a leadership change, a spent busy-retry budget or a
  // server that forgot the fresh session mid-reclaim aborts the whole
  // reclaim so recovery retries or rotates: none of them may condemn a live
  // handle as stale or drop a lease.
  const auto aborts = [](PStatus st) {
    return st == PStatus::kConnLost || st == PStatus::kNotLeader ||
           st == PStatus::kBusy || st == PStatus::kBadSession;
  };
  // 1. A fresh session: the old identity died with the server.
  const Reply fresh = call(Proc::kConnect);
  if (fresh.status != PStatus::kOk) return false;
  session_id_ = fresh.hdr.aux;
  // 2. Re-open every leased path and validate that the handle still names
  // the same file incarnation. A plain open — never create/truncate — so
  // validation cannot destroy data.
  for (const OpenLease& lease : leases_) {
    if (stale_.count(lease.ino) != 0) continue;
    const Reply r = call(Proc::kOpen, lease.path);
    if (aborts(r.status)) return false;
    if (r.status == PStatus::kOk && r.hdr.ino == lease.ino &&
        r.payload.size() >= sizeof(fstore::Attrs) &&
        attrs_of(r.payload).gen == lease.gen) {
      continue;  // same file, same incarnation: the handle survives
    }
    // Gone, replaced, or unreadable: the handle is stale for good.
    stale_.insert(lease.ino);
    stats.add("dafs.stale_handles");
    // In-flight requests against the stale handle complete locally with
    // kStale — the server-side file they targeted no longer exists.
    for (auto& sl : slots_) {
      if (!sl.in_use || sl.done) continue;
      MsgView m(sl.send_buf.data(), sl.send_buf.size());
      if (m.header().ino == lease.ino) {
        sl.resp = MsgHeader{};
        sl.resp.status = PStatus::kStale;
        sl.done = true;
      }
    }
    std::erase_if(lock_leases_, [&](const LockLease& l) {
      return l.ino == lease.ino;
    });
  }
  // 3. Re-acquire leased byte-range locks, flagged as reclaims so the
  // server's post-restart grace period admits them. The same aborts apply:
  // recovery must see them rather than a silently lost lease.
  Actor* actor = Actor::current();
  for (auto it = lock_leases_.begin(); it != lock_leases_.end();) {
    const auto relock = [&] {
      return call(Proc::kLock, {}, Fh{it->ino}, it->start, it->len,
                  (it->exclusive ? kLockExclusive : 0) | kLockReclaim)
          .status;
    };
    PStatus st = relock();
    // Another reclaimer holds the range right now: back off as lock() does,
    // and give it host time to finish its own reclaim.
    Backoff backoff(kLockBackoffBase, kLockBackoffCap);
    for (int tries = 0;
         st == PStatus::kLockConflict && tries < policy().max_busy_retries;
         ++tries) {
      actor->advance(backoff.next(backoff_rng_));
      sim::sleep(sim::Deadline::host(1ms));
      st = relock();
    }
    if (aborts(st)) return false;
    if (st == PStatus::kOk) {
      ++it;
    } else {
      // The lock could not be re-established (another client raced into the
      // range). The lease is gone; surface it in stats rather than deadlock.
      stats.add("dafs.reclaim_lock_failures");
      it = lock_leases_.erase(it);
    }
  }
  stats.add("dafs.session_reclaims");
  return true;
}

bool Session::retransmit_inflight() {
  // Replay every request whose response is still owed, oldest first, so the
  // server sees them in the original submission order.
  std::vector<OpId> pending;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].in_use && !slots_[i].done) {
      pending.push_back(static_cast<OpId>(i));
    }
  }
  std::sort(pending.begin(), pending.end(), [&](OpId a, OpId b) {
    return slots_[a].seq < slots_[b].seq;
  });
  for (const OpId id : pending) {
    Slot& sl = slots_[id];
    // Restamp the wire identity with the *current* session: a reclaim
    // replaced it, and one that died partway (transport loss between the
    // fresh connect and the lease replay) leaves slots carrying the dead
    // session's id, which a later resume-only recovery would otherwise
    // replay verbatim into kBadSession forever. The seq is deliberately left
    // untouched — it is the replay-protection key the server's dup filter
    // matches on.
    MsgView(sl.send_buf.data(), sl.send_buf.size()).header().session_id =
        session_id_;
    if (!send(sl)) return false;
    nic_.fabric().stats().add("dafs.retransmits");
  }
  return true;
}

void Session::record_rtt(const Slot& sl) {
  Actor* actor = Actor::current();
  if (actor == nullptr) return;
  // Close the client-side request span (opened implicitly at transmit; submit
  // and completion are separate calls, so no RAII scope can span them).
  const std::string hist = std::string("dafs.rtt_ns.") + proc_name(sl.proc);
  sim::record_span(
      nic_.fabric(), "dafs.client", {"request.", proc_name(sl.proc)},
      sl.t_submit, actor->now(),
      sim::SpanParent::ids(sl.trace_id, sl.parent_span, sl.span_id),
      {{"seq", sl.seq}, {"status", static_cast<std::uint64_t>(sl.resp.status)}},
      hist);
}

// ---------------------------------------------------------------------------
// Registration
// ---------------------------------------------------------------------------

Result<std::vector<via::MemHandle>> Session::register_segments(
    std::span<const IoVec> iovs, OpId slot) {
  // Segments inside a cached registration need nothing more. The rest are
  // sorted by address and cut into clusters wherever the hull would outgrow
  // both 16x the bytes it carries and 1 MiB; each cluster's hull is one
  // registration through the cache. A list mixing two buffers (a collective
  // buffer and user memory) thus settles into two cached registrations
  // wherever the allocator put them. A request that needs more handles than
  // the cache holds pins its clusters for its own lifetime instead, so it
  // cannot evict a handle an earlier segment of it still needs.
  std::vector<via::MemHandle> handles(iovs.size(), via::kInvalidMemHandle);
  std::vector<std::size_t> todo;  // segments still needing a handle
  for (std::size_t i = 0; i < iovs.size(); ++i) {
    if (iovs[i].len == 0) continue;
    handles[i] = reg_cache_.find(iovs[i].buf, iovs[i].len);
    if (handles[i] == via::kInvalidMemHandle) todo.push_back(i);
  }
  std::sort(todo.begin(), todo.end(), [&](std::size_t a, std::size_t b) {
    return iovs[a].buf < iovs[b].buf;
  });
  struct Cluster {
    std::byte* lo;
    std::byte* hi;
    std::size_t end;  // todo[..end) belong to this or an earlier cluster
  };
  std::vector<Cluster> clusters;
  std::uint64_t bytes = 0;  // carried by the open cluster
  for (std::size_t j = 0; j < todo.size(); ++j) {
    const IoVec& v = iovs[todo[j]];
    if (!clusters.empty()) {
      Cluster& c = clusters.back();
      std::byte* hi = std::max(c.hi, v.buf + v.len);
      if (static_cast<std::uint64_t>(hi - c.lo) <=
          std::max<std::uint64_t>(16 * (bytes + v.len), 1 << 20)) {
        c.hi = hi;
        c.end = j + 1;
        bytes += v.len;
        continue;
      }
    }
    clusters.push_back(Cluster{v.buf, v.buf + v.len, j + 1});
    bytes = v.len;
  }
  const std::size_t found = iovs.size() - todo.size();
  const bool cache = reg_cache_.enabled() &&
                     clusters.size() + found <= reg_cache_.capacity();
  std::size_t j = 0;
  for (const Cluster& c : clusters) {
    const auto len = static_cast<std::size_t>(c.hi - c.lo);
    const via::MemHandle h =
        cache ? reg_cache_.get(c.lo, len) : reg_cache_.pin(c.lo, len);
    // Registration can fail (NIC out of resources); the caller turns that
    // into kNoResource.
    if (h == via::kInvalidMemHandle) return PStatus::kNoResource;
    if (!cache) slots_[slot].temp_handles.push_back(h);
    for (; j < c.end; ++j) handles[todo[j]] = h;
  }
  return handles;
}

// ---------------------------------------------------------------------------
// Request builders
// ---------------------------------------------------------------------------

Session::Reply Session::call(Proc proc, std::string_view name, Fh fh,
                             std::uint64_t offset, std::uint64_t len,
                             std::uint64_t aux, std::uint16_t flags) {
  Reply r;
  if (fh.valid() && stale_.count(fh.ino) != 0) {
    r.status = PStatus::kStale;
    return r;
  }
  auto id = alloc_slot();
  if (!id.ok()) {
    r.status = id.error();
    return r;
  }
  Slot& sl = slots_[id.value()];
  sl.ino = fh.ino;
  MsgView msg(sl.send_buf.data(), sl.send_buf.size());
  msg.header() = MsgHeader{};
  msg.header().proc = proc;
  msg.header().flags = flags;
  msg.header().ino = fh.ino;
  msg.header().offset = offset;
  msg.header().len = len;
  msg.header().aux = aux;
  msg.header().deleg = deleg_of(fh.ino);
  msg.set_name(name);
  r.status = transmit(id.value());
  if (r.status == PStatus::kOk) {
    r.status = wait_slot(id.value());
    r.hdr = sl.resp;
    // The slot keeps its payload until it is next allocated.
    r.payload = sl.payload;
  }
  free_slot(id.value());
  return r;
}

Session::Fit Session::fit(std::span<const IoVec> iovs) const {
  Fit f;
  for (const IoVec& v : iovs) f.total += v.len;
  // The sync crossover. An empty list goes out as a direct request without
  // segments, as list I/O always has.
  f.direct = f.total >= cfg_.direct_threshold || iovs.empty();
  if (!f.direct) {
    // Inline: one file range, as much of it as one message holds.
    f.bytes = std::min<std::uint64_t>(
        iovs[0].len, MsgView(nullptr, cfg_.msg_buf_size).inline_capacity(0));
    return f;
  }
  // Direct: the segment table fills the message after its header, and a
  // piece takes one segment per max_rdma_seg bytes.
  std::uint64_t room =
      (cfg_.msg_buf_size - sizeof(MsgHeader)) / sizeof(DirectSeg);
  for (const IoVec& v : iovs) {
    const std::uint64_t segs =
        (v.len + cfg_.max_rdma_seg - 1) / cfg_.max_rdma_seg;
    if (segs > room) {
      f.bytes += room * cfg_.max_rdma_seg;
      break;
    }
    room -= segs;
    f.bytes += v.len;
  }
  return f;
}

Result<Session::DataReq> Session::submit_data(Fh fh,
                                              std::span<const IoVec> iovs,
                                              bool writing,
                                              sim::SpanContext trace) {
  if (fh.valid() && stale_.count(fh.ino) != 0) return PStatus::kStale;
  const Fit f = fit(iovs);
  if (f.bytes == 0 && f.total > 0) return PStatus::kInval;  // no room
  DataReq req;
  req.bytes = f.bytes;
  std::uint64_t left = f.bytes;
  for (const IoVec& v : iovs) {
    if (left == 0) break;
    const std::uint64_t n = std::min(v.len, left);
    req.iovs.push_back(IoVec{v.file_off, v.buf, n});
    left -= n;
  }
  auto id = alloc_slot(trace);
  if (!id.ok()) return id.error();
  req.op = id.value();
  Slot& sl = slots_[req.op];
  sl.ino = fh.ino;
  MsgView msg(sl.send_buf.data(), sl.send_buf.size());
  msg.header() = MsgHeader{};
  msg.header().ino = fh.ino;
  msg.header().deleg = deleg_of(fh.ino);
  const std::uint16_t integ = integrity_flags();
  Actor* actor = Actor::current();
  if (!f.direct) {
    msg.header().offset = iovs[0].file_off;
    msg.header().len = f.bytes;
    if (writing) {
      msg.header().proc = Proc::kWriteInline;
      // Marshalling copy into the message buffer — the cost inline writes
      // pay.
      if (f.bytes > 0) {
        std::memcpy(msg.data_payload(), iovs[0].buf, f.bytes);
        actor->charge(CostKind::kCopy, nic_.cost().copy_time(f.bytes));
      }
      nic_.fabric().stats().add("dafs.client_copy_bytes", f.bytes);
      msg.header().data_len = static_cast<std::uint32_t>(f.bytes);
      if ((integ & kFlagPayloadCrc) != 0 && f.bytes > 0) {
        msg.header().flags |= kFlagPayloadCrc;
        msg.header().payload_crc =
            fstore::crc32c({msg.data_payload(), f.bytes});
        actor->charge(CostKind::kChecksum, nic_.cost().copy_time(f.bytes));
        nic_.fabric().stats().add("dafs.integrity_crc_bytes", f.bytes);
      }
    } else {
      msg.header().proc = Proc::kReadInline;
      msg.header().flags = integ;
      sl.user_buf = iovs[0].buf;
      sl.user_cap = f.bytes;
    }
  } else {
    msg.header().proc = writing ? Proc::kWriteDirect : Proc::kReadDirect;
    if ((integ & kFlagPayloadCrc) != 0) {
      msg.header().flags |= writing ? kFlagPayloadCrc : integ;
      if (writing) {
        // Direct write: CRC over the outgoing bytes in segment order (the
        // order the server pulls and verifies them in).
        std::uint32_t crc = 0;
        for (const IoVec& v : req.iovs) {
          crc = fstore::crc32c({v.buf, v.len}, crc);
        }
        msg.header().payload_crc = crc;
        actor->charge(CostKind::kChecksum, nic_.cost().copy_time(f.bytes));
        nic_.fabric().stats().add("dafs.integrity_crc_bytes", f.bytes);
      } else {
        // Direct read: the server's response CRC covers the moved bytes in
        // segment order. Only a contiguous ascending batch (memory and file)
        // makes those bytes a prefix of one flat buffer we can re-hash —
        // EOF clamps a contiguous range to a prefix, never a gap.
        const std::vector<IoVec>& v = req.iovs;
        bool contig = !v.empty();
        for (std::size_t i = 1; i < v.size() && contig; ++i) {
          contig = v[i - 1].buf + v[i - 1].len == v[i].buf &&
                   v[i - 1].file_off + v[i - 1].len == v[i].file_off;
        }
        if (contig) {
          sl.verify_buf = v[0].buf;
          sl.user_cap = f.bytes;
        }
      }
    }
    auto handles = register_segments(req.iovs, req.op);
    if (!handles.ok()) {
      free_slot(req.op);
      return handles.error();
    }
    // The segment list, split at max_rdma_seg.
    std::vector<DirectSeg> segs;
    for (std::size_t i = 0; i < req.iovs.size(); ++i) {
      const IoVec& v = req.iovs[i];
      const via::MemHandle h = handles.value()[i];
      std::uint64_t off = 0;
      while (off < v.len) {
        const std::uint64_t n = std::min<std::uint64_t>(
            v.len - off, cfg_.max_rdma_seg);
        DirectSeg s;
        s.file_off = v.file_off + off;
        s.addr = reinterpret_cast<std::uint64_t>(v.buf + off);
        s.mem = h;
        s.len = static_cast<std::uint32_t>(n);
        segs.push_back(s);
        off += n;
      }
    }
    assert(sizeof(MsgHeader) + segs.size() * sizeof(DirectSeg) <=
           sl.send_buf.size());
    msg.set_segs(segs);
    nic_.fabric().stats().add(writing ? "dafs.direct_write_reqs"
                                      : "dafs.direct_read_reqs");
  }
  if (const PStatus st = transmit(req.op); st != PStatus::kOk) {
    free_slot(req.op);
    return st;
  }
  return req;
}

Result<std::uint64_t> Session::run_data(Fh fh, std::span<const IoVec> iovs,
                                        bool writing) {
  // A piece of no bytes carries nothing, so a transfer of none sends nothing.
  std::vector<IoVec> rest;
  for (const IoVec& v : iovs) {
    if (v.len > 0) rest.push_back(v);
  }
  std::uint64_t done = 0;
  while (!rest.empty()) {
    auto req = submit_data(fh, rest, writing);
    if (!req.ok()) return req.error();
    std::uint64_t got = 0;
    if (const PStatus st = wait(req.value().op, &got); st != PStatus::kOk) {
      return st;
    }
    done += got;
    if (got < req.value().bytes) break;  // EOF
    drop_front(rest, req.value().bytes);
  }
  return done;
}

Result<OpId> Session::submit_one(Fh fh, std::span<const IoVec> iovs,
                                 bool writing) {
  if (const Fit f = fit(iovs); f.bytes < f.total) return PStatus::kInval;
  auto req = submit_data(fh, iovs, writing);
  if (!req.ok()) return req.error();
  return req.value().op;
}

void drop_front(std::vector<IoVec>& iovs, std::uint64_t bytes) {
  std::size_t n = 0;
  while (n < iovs.size() && bytes >= iovs[n].len) bytes -= iovs[n++].len;
  iovs.erase(iovs.begin(), iovs.begin() + static_cast<std::ptrdiff_t>(n));
  if (bytes > 0) {
    IoVec& v = iovs.front();
    v.file_off += bytes;
    v.buf += bytes;
    v.len -= bytes;
  }
}

// ---------------------------------------------------------------------------
// Namespace operations
// ---------------------------------------------------------------------------

Result<Fh> Session::open(std::string_view path, std::uint16_t flags,
                         DelegGrant* grant) {
  // A re-open of a path leased to a file we hold a delegation on goes out
  // under that ino, which stamps the request with the holder's id.
  Fh held;
  if (const OpenLease* l = find_open_lease(path);
      l != nullptr && deleg_of(l->ino) != 0 && !is_stale(Fh{l->ino})) {
    held.ino = l->ino;
  }
  const Reply r = call(Proc::kOpen, path, held, 0, 0, 0, flags);
  if (r.status != PStatus::kOk) return r.status;
  const Fh fh{r.hdr.ino};
  const std::uint64_t granted = r.hdr.deleg;
  if (grant != nullptr) {
    grant->id = granted;
    grant->write = (r.hdr.flags & kFlagDelegWrite) != 0;
    grant->term_ns = granted ? r.hdr.aux : 0;
  }
  if (granted != 0) set_deleg(fh.ino, granted);
  // Lease: enough client-side state to re-open and re-validate this handle
  // ((ino, gen) names one file incarnation) after a server restart.
  record_open_lease(path, fh.ino, attrs_of(r.payload).gen);
  return fh;
}

Result<std::uint64_t> Session::deleg_renew(Fh fh) {
  const Reply r = call(Proc::kDelegRecall, {}, fh);
  if (r.status != PStatus::kOk) {
    if (r.status == PStatus::kDelegExpired) clear_deleg(fh.ino);
    return r.status;
  }
  if ((r.hdr.flags & kFlagDelegRecall) != 0) recalled_.insert(fh.ino);
  return r.hdr.aux;
}

PStatus Session::deleg_return(Fh fh) {
  if (deleg_of(fh.ino) == 0) return PStatus::kOk;
  const PStatus st = call(Proc::kDelegReturn, {}, fh).status;
  clear_deleg(fh.ino);
  clear_recall(fh.ino);
  return st;
}

const Session::OpenLease* Session::find_open_lease(
    std::string_view path) const {
  const auto it = lease_index_.find(path);
  return it == lease_index_.end() ? nullptr : &leases_[it->second];
}

void Session::record_open_lease(std::string_view path, fstore::Ino ino,
                                std::uint64_t gen) {
  if (const auto it = lease_index_.find(path); it != lease_index_.end()) {
    leases_[it->second].ino = ino;
    leases_[it->second].gen = gen;
    return;
  }
  lease_index_.emplace(path, leases_.size());
  leases_.push_back(OpenLease{std::string(path), ino, gen});
}

void Session::record_lock_lease(fstore::Ino ino, std::uint64_t start,
                                std::uint64_t len, bool exclusive) {
  for (auto& l : lock_leases_) {
    if (l.ino == ino && l.start == start && l.len == len) {
      l.exclusive = exclusive;
      return;
    }
  }
  lock_leases_.push_back(LockLease{ino, start, len, exclusive});
}

void Session::drop_lock_lease(fstore::Ino ino, std::uint64_t start,
                              std::uint64_t len) {
  const std::uint64_t re = len == 0 ? UINT64_MAX : start + len;
  std::erase_if(lock_leases_, [&](const LockLease& l) {
    const std::uint64_t le = l.len == 0 ? UINT64_MAX : l.start + l.len;
    return l.ino == ino && l.start >= start && le <= re;
  });
}

Result<fstore::Attrs> Session::getattr(Fh fh) {
  const Reply r = call(Proc::kGetattr, {}, fh);
  if (r.status != PStatus::kOk) return r.status;
  return attrs_of(r.payload);
}

PStatus Session::set_size(Fh fh, std::uint64_t size) {
  return call(Proc::kSetSize, {}, fh, 0, 0, size).status;
}

PStatus Session::remove(std::string_view path) {
  return call(Proc::kRemove, path).status;
}

PStatus Session::mkdir(std::string_view path) {
  return call(Proc::kMkdir, path).status;
}

PStatus Session::rmdir(std::string_view path) {
  return call(Proc::kRmdir, path).status;
}

PStatus Session::rename(std::string_view from, std::string_view to) {
  std::string both;
  both.reserve(from.size() + 1 + to.size());
  both.append(from);
  both.push_back('\0');
  both.append(to);
  return call(Proc::kRename, both).status;
}

namespace {
/// Decode `count` readdir entries (WireDirent layout in proto.hpp) onto
/// `out`. Every read is bounds-checked: entries that run past the payload
/// are a protocol error, never an out-of-bounds read.
bool parse_dirents(std::span<const std::byte> payload, std::uint64_t count,
                   std::vector<fstore::DirEntry>& out) {
  const std::byte* p = payload.data();
  const std::byte* end = p + payload.size();
  for (std::uint64_t i = 0; i < count; ++i) {
    WireDirent wd;
    if (static_cast<std::size_t>(end - p) < sizeof(wd)) return false;
    std::memcpy(&wd, p, sizeof(wd));
    p += sizeof(wd);
    if (static_cast<std::size_t>(end - p) < wd.name_len) return false;
    fstore::DirEntry e;
    e.ino = wd.ino;
    e.is_dir = wd.is_dir != 0;
    e.name.assign(reinterpret_cast<const char*>(p), wd.name_len);
    p += wd.name_len;
    out.push_back(std::move(e));
  }
  return true;
}
}  // namespace

Result<std::vector<fstore::DirEntry>> Session::readdir(std::string_view path) {
  std::vector<fstore::DirEntry> out;
  std::uint64_t cookie = 0;
  for (;;) {
    const Reply r = call(Proc::kReaddir, path, Fh{}, cookie);
    if (r.status != PStatus::kOk) return r.status;
    if (!parse_dirents(r.payload, r.hdr.len, out)) return PStatus::kProtoError;
    if (r.hdr.flags != 0) return out;
    cookie = r.hdr.aux;
  }
}

PStatus Session::sync(Fh fh) { return call(Proc::kSync, {}, fh).status; }

// ---------------------------------------------------------------------------
// Data path
// ---------------------------------------------------------------------------

Result<std::uint64_t> Session::pread(Fh fh, std::uint64_t off,
                                     std::span<std::byte> out) {
  const IoVec v{off, out.data(), out.size()};
  return run_data(fh, std::span(&v, 1), false);
}

Result<std::uint64_t> Session::pwrite(Fh fh, std::uint64_t off,
                                      std::span<const std::byte> in) {
  const IoVec v{off, const_cast<std::byte*>(in.data()), in.size()};
  return run_data(fh, std::span(&v, 1), true);
}

Result<std::uint64_t> Session::read_batch(Fh fh, std::span<const IoVec> iovs) {
  return run_data(fh, iovs, false);
}

Result<std::uint64_t> Session::write_batch(Fh fh, std::span<const IoVec> iovs) {
  return run_data(fh, iovs, true);
}

// ---------------------------------------------------------------------------
// Asynchronous I/O
// ---------------------------------------------------------------------------

Result<OpId> Session::submit_pread(Fh fh, std::uint64_t off,
                                   std::span<std::byte> out) {
  const IoVec v{off, out.data(), out.size()};
  return submit_one(fh, std::span(&v, 1), false);
}

Result<OpId> Session::submit_pwrite(Fh fh, std::uint64_t off,
                                    std::span<const std::byte> in) {
  const IoVec v{off, const_cast<std::byte*>(in.data()), in.size()};
  return submit_one(fh, std::span(&v, 1), true);
}

PStatus Session::wait(OpId op, std::uint64_t* bytes) {
  if (!in_flight(op)) return PStatus::kInval;
  const PStatus st = wait_slot(op);
  if (bytes != nullptr) *bytes = slots_[op].resp.len;
  free_slot(op);
  return st;
}

Result<bool> Session::test(OpId op, std::uint64_t* bytes) {
  if (!in_flight(op)) return PStatus::kInval;
  if (dead_) return PStatus::kConnLost;
  if (!slots_[op].done) {
    // Opportunistically drain anything already delivered. A flushed ring
    // recovers (which retransmits everything in flight) and reports "not
    // yet done".
    while (pump_one(false)) {
    }
    if (dead_) return PStatus::kConnLost;
  }
  // A retried request is back in flight: "not yet done". A settled one is
  // collected by wait(), which returns at once.
  if (!slots_[op].done || !settle(op)) return false;
  if (const PStatus st = wait(op, bytes); st != PStatus::kOk) return st;
  return true;
}

Result<std::size_t> Session::wait_any(std::span<const OpId> ops) {
  if (ops.empty() || !std::all_of(ops.begin(), ops.end(), [&](OpId op) {
        return in_flight(op);
      })) {
    return PStatus::kInval;
  }
  for (;;) {
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (slots_[ops[i]].done && settle(ops[i])) {
        return i;
      }
    }
    if (!pump_one()) return PStatus::kConnLost;
  }
}

PStatus Session::wait_all(std::span<const OpId> ops) {
  PStatus worst = PStatus::kOk;
  for (const OpId op : ops) {
    const PStatus st = wait(op);
    if (st != PStatus::kOk) worst = st;
  }
  return worst;
}

// ---------------------------------------------------------------------------
// Locks & counters
// ---------------------------------------------------------------------------

PStatus Session::try_lock(Fh fh, std::uint64_t start, std::uint64_t len,
                          bool exclusive) {
  const PStatus st =
      call(Proc::kLock, {}, fh, start, len, exclusive ? kLockExclusive : 0)
          .status;
  if (st == PStatus::kOk) record_lock_lease(fh.ino, start, len, exclusive);
  return st;
}

PStatus Session::lock(Fh fh, std::uint64_t start, std::uint64_t len,
                      bool exclusive) {
  Actor* actor = Actor::current();
  // Jittered exponential backoff between conflict retries: fixed spacing
  // keeps contending clients phase-locked, re-colliding on every probe.
  Backoff backoff(kLockBackoffBase, kLockBackoffCap);
  for (int i = 0; i < kLockRetries; ++i) {
    const PStatus st = try_lock(fh, start, len, exclusive);
    if (st != PStatus::kLockConflict) return st;
    actor->advance(backoff.next(backoff_rng_));
    std::this_thread::yield();
  }
  return PStatus::kLockConflict;
}

PStatus Session::unlock(Fh fh, std::uint64_t start, std::uint64_t len) {
  const PStatus st = call(Proc::kUnlock, {}, fh, start, len).status;
  if (st == PStatus::kOk) drop_lock_lease(fh.ino, start, len);
  return st;
}

Result<std::uint64_t> Session::fetch_add(std::string_view key,
                                         std::uint64_t delta) {
  const Reply r = call(Proc::kFetchAdd, key, Fh{}, 0, 0, delta);
  if (r.status != PStatus::kOk) return r.status;
  return r.hdr.aux;
}

PStatus Session::set_counter(std::string_view key, std::uint64_t value) {
  return call(Proc::kSetCounter, key, Fh{}, 0, 0, value).status;
}

// ---------------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------------

namespace {
/// Parse a kStatsQuery response payload (layout in proto.hpp). Every read is
/// bounds-checked: a short or internally-inconsistent snapshot is a protocol
/// error, never an out-of-bounds read.
bool parse_stats_payload(std::span<const std::byte> payload,
                         StatsSnapshot& out) {
  const std::byte* p = payload.data();
  const std::byte* end = p + payload.size();
  if (payload.size() < sizeof(WireStatsHeader)) return false;
  std::memcpy(&out.header, p, sizeof(out.header));
  p += sizeof(out.header);
  if (out.header.version != kStatsVersion) return false;
  out.sessions.resize(out.header.nsessions);
  for (WireSessionStats& s : out.sessions) {
    if (p + sizeof(WireSessionStats) > end) return false;
    std::memcpy(&s, p, sizeof(s));
    p += sizeof(s);
  }
  out.kv.reserve(out.header.nkv);
  for (std::uint32_t i = 0; i < out.header.nkv; ++i) {
    WireStatsKv kv;
    if (p + sizeof(kv) > end) return false;
    std::memcpy(&kv, p, sizeof(kv));
    p += sizeof(kv);
    if (p + kv.key_len > end) return false;
    out.kv.emplace_back(
        std::string(reinterpret_cast<const char*>(p), kv.key_len), kv.value);
    p += kv.key_len;
  }
  return true;
}
}  // namespace

Result<StatsSnapshot> Session::query_stats() {
  const Reply r = call(Proc::kStatsQuery);
  if (r.status != PStatus::kOk) return r.status;
  StatsSnapshot snap;
  if (!parse_stats_payload(r.payload, snap)) return PStatus::kProtoError;
  return snap;
}

}  // namespace dafs
