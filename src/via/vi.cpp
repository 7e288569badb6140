#include "via/vi.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <iterator>
#include <type_traits>

#include "sim/actor.hpp"

namespace via {

using sim::Actor;
using sim::CostKind;
using sim::Time;

namespace {

constexpr auto kLenientRecvWait = std::chrono::seconds(5);

/// Saturating virtual-time delta (flush/error completions can carry a
/// done_at from another actor's clock).
Time since(Time from, Time to) { return to > from ? to - from : 0; }

/// Apply a TransferFault's wire corruption to a scattered payload of `total`
/// bytes: flip bit `(seed>>16) % 8` of byte `seed % total`, walking the
/// segment list to find the owning segment.
template <typename Segs>
void flip_scattered_bit(Segs& segs, std::uint64_t total, std::uint64_t seed) {
  std::uint64_t t = seed % total;
  const std::byte mask{static_cast<unsigned char>(1u << ((seed >> 16) % 8))};
  for (auto& seg : segs) {
    if (t < seg.len) {
      seg.addr[t] ^= mask;
      return;
    }
    t -= seg.len;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// CompletionQueue
// ---------------------------------------------------------------------------

void CompletionQueue::push(const Completion& c) {
  {
    std::lock_guard lock(mu_);
    auto lane = std::find_if(lanes_.begin(), lanes_.end(), [&](const Lane& l) {
      return l.vi == c.vi && l.is_recv == c.is_recv;
    });
    if (lane == lanes_.end()) {
      lane = lanes_.insert(lanes_.end(), Lane{c.vi, c.is_recv, {}});
    }
    lane->q.push_back(Entry{c, next_seq_++});
    ++size_;
  }
  cv_.notify_all();
}

bool CompletionQueue::pop_locked(Completion& out) {
  if (size_ == 0) return false;
  auto best = lanes_.begin();
  for (auto it = std::next(best); it != lanes_.end(); ++it) {
    const Entry& e = it->q.front();
    const Entry& b = best->q.front();
    if (e.c.desc->done_at < b.c.desc->done_at ||
        (e.c.desc->done_at == b.c.desc->done_at && e.seq < b.seq)) {
      best = it;
    }
  }
  out = best->q.front().c;
  best->q.pop_front();
  --size_;
  if (best->q.empty()) {
    // Lane order carries no meaning (ties go by seq): move the last lane in.
    if (best != std::prev(lanes_.end())) *best = std::move(lanes_.back());
    lanes_.pop_back();
  }
  return true;
}

void CompletionQueue::reap(const Completion& c) {
  Actor* actor = Actor::current();
  assert(actor && "CQ reaped outside an ActorScope");
  actor->sync_to(c.desc->done_at);
  actor->charge(CostKind::kProtocol, c.vi->nic().cost().completion);
  if (!c.is_recv && c.desc->posted_at != 0) {
    c.vi->nic().fabric().histograms().record(
        "via.doorbell_to_reap_ns", since(c.desc->posted_at, actor->now()));
  }
}

Status CompletionQueue::take(Completion& out,
                             std::chrono::milliseconds timeout) {
  std::unique_lock lock(mu_);
  if (!cv_.wait(lock, sim::Deadline::host(timeout),
                [&] { return size_ != 0; })) {
    return Status::kTimeout;
  }
  pop_locked(out);
  return Status::kSuccess;
}

Status CompletionQueue::wait(Completion& out, std::chrono::milliseconds timeout) {
  const Status st = take(out, timeout);
  if (st == Status::kSuccess) reap(out);
  return st;
}

Status CompletionQueue::poll(Completion& out) {
  {
    std::lock_guard lock(mu_);
    if (!pop_locked(out)) return Status::kNotDone;
  }
  reap(out);
  return Status::kSuccess;
}

// ---------------------------------------------------------------------------
// Vi lifecycle / channel plumbing
// ---------------------------------------------------------------------------

Vi::Vi(Nic& nic, ViAttrs attrs, CompletionQueue* send_cq,
       CompletionQueue* recv_cq)
    : nic_(nic), attrs_(attrs), send_cq_(send_cq), recv_cq_(recv_cq) {}

Vi::~Vi() { disconnect(); }

void Vi::link(Vi& x, Vi& y) {
  auto chan = std::make_shared<Channel>();
  chan->a = &x;
  chan->b = &y;
  {
    std::lock_guard lx(x.mu_);
    x.chan_ = chan;
    x.state_ = State::kConnected;
  }
  {
    std::lock_guard ly(y.mu_);
    y.chan_ = chan;
    y.state_ = State::kConnected;
  }
}

Vi::PeerPin Vi::pin_peer() {
  PeerPin pin;
  {
    std::lock_guard lock(mu_);
    pin.chan = chan_;
  }
  if (!pin.chan) return pin;
  std::lock_guard lock(pin.chan->ptr_mu);
  if (pin.chan->a == this) {
    if (pin.chan->b) {
      ++pin.chan->use_b;
      pin.pinned_a = false;
    }
    pin.vi = pin.chan->b;
  } else {
    if (pin.chan->a) {
      ++pin.chan->use_a;
      pin.pinned_a = true;
    }
    pin.vi = pin.chan->a;
  }
  return pin;
}

void Vi::unpin_peer(const PeerPin& pin) {
  if (!pin.chan || pin.vi == nullptr) return;
  {
    std::lock_guard lock(pin.chan->ptr_mu);
    // The peer may have cleared its slot while we held the pin; the recorded
    // side, not the (possibly nulled) pointer, names the counter.
    if (pin.pinned_a) {
      --pin.chan->use_a;
    } else {
      --pin.chan->use_b;
    }
  }
  pin.chan->cv.notify_all();
}

void Vi::unlink() {
  std::shared_ptr<Channel> chan;
  {
    std::lock_guard lock(mu_);
    chan = chan_;
    chan_.reset();
  }
  if (!chan) return;
  std::unique_lock lock(chan->ptr_mu);
  if (chan->a != this && chan->b != this) return;
  const bool is_a = chan->a == this;
  (is_a ? chan->a : chan->b) = nullptr;
  const int& uses = is_a ? chan->use_a : chan->use_b;
  chan->cv.wait(lock, sim::Deadline::never(), [&] { return uses == 0; });
}

void Vi::disconnect() {
  // Tell the peer first (it may be blocked waiting for receives).
  if (PeerPin pin = pin_peer(); pin.vi != nullptr) {
    Vi* peer = pin.vi;
    {
      std::lock_guard lock(peer->mu_);
      if (peer->state_ == State::kConnected) {
        peer->state_ = State::kDisconnected;
        Actor* actor = Actor::current();
        peer->flush_recvs_locked(actor ? actor->now() : 0);
      }
    }
    peer->cv_.notify_all();
    unpin_peer(pin);
  }
  // Then this end, before waiting for pins to drain: a peer's sender parked
  // in deposit() holds a pin on this VI and waits for exactly this change.
  {
    std::lock_guard lock(mu_);
    if (state_ == State::kConnected || state_ == State::kIdle) {
      state_ = State::kDisconnected;
    }
    Actor* actor = Actor::current();
    flush_recvs_locked(actor ? actor->now() : 0);
  }
  cv_.notify_all();
  unlink();
}

Vi::State Vi::state() const {
  std::lock_guard lock(mu_);
  return state_;
}

std::size_t Vi::posted_recvs() const {
  std::lock_guard lock(mu_);
  return recv_posted_.size();
}

void Vi::flush_recvs_locked(Time t) {
  while (!recv_posted_.empty()) {
    Descriptor* d = recv_posted_.front();
    recv_posted_.pop_front();
    d->status = DescStatus::kFlushed;
    d->length = 0;
    d->done_at = t;
    complete_recv_locked(*d);
  }
}

// ---------------------------------------------------------------------------
// Completion delivery
// ---------------------------------------------------------------------------

void Vi::complete_send(Descriptor& d) {
  if (send_cq_ != nullptr) {
    send_cq_->push(Completion{this, &d, /*is_recv=*/false});
    return;
  }
  {
    std::lock_guard lock(mu_);
    send_done_q_.push_back(&d);
  }
  cv_.notify_all();
}

void Vi::complete_recv_locked(Descriptor& d) {
  if (recv_cq_ != nullptr) {
    recv_cq_->push(Completion{this, &d, /*is_recv=*/true});
    return;
  }
  recv_done_q_.push_back(&d);
  cv_.notify_all();
}

// ---------------------------------------------------------------------------
// Posting
// ---------------------------------------------------------------------------

Status Vi::post_recv(Descriptor& d) {
  if (d.op != Opcode::kReceive && d.op != Opcode::kSend) {
    // Tolerate callers reusing a descriptor; normalize to receive.
  }
  d.op = Opcode::kReceive;
  for (const auto& seg : d.segs) {
    if (seg.len != 0 &&
        !nic_.memory().validate_local(seg.handle, seg.addr, seg.len)) {
      return Status::kInvalidMemory;
    }
  }
  {
    std::lock_guard lock(mu_);
    if (state_ == State::kError) return Status::kInvalidState;
    d.status = DescStatus::kPosted;
    d.length = 0;
    d.recv_has_immediate = false;
    recv_posted_.push_back(&d);
  }
  cv_.notify_all();
  nic_.fabric().stats().add("via.recv_posted");
  return Status::kSuccess;
}

Status Vi::post_send(Descriptor& d) {
  Actor* actor = Actor::current();
  assert(actor && "post_send outside an ActorScope");
  const sim::CostModel& cm = nic_.cost();

  if (d.op == Opcode::kReceive) return Status::kInvalidParameter;
  {
    std::lock_guard lock(mu_);
    if (state_ != State::kConnected) return Status::kInvalidState;
  }
  if (d.op == Opcode::kRdmaRead &&
      attrs_.reliability == ReliabilityLevel::kUnreliable) {
    return Status::kInvalidRdmaOp;
  }
  const std::uint64_t total = d.total_bytes();
  if (total > attrs_.max_transfer) return Status::kInvalidParameter;

  // Local gather/scatter segments must be registered.
  for (const auto& seg : d.segs) {
    if (seg.len != 0 &&
        !nic_.memory().validate_local(seg.handle, seg.addr, seg.len)) {
      d.status = DescStatus::kProtectionError;
      d.done_at = actor->now();
      complete_send(d);
      return Status::kSuccess;  // error is reported via the completion
    }
  }

  d.status = DescStatus::kPosted;
  actor->charge(CostKind::kProtocol, cm.doorbell);
  d.posted_at = actor->now();
  const Time wire_start = actor->now() + cm.dma_setup;

  PeerPin pin = pin_peer();
  Vi* peer = pin.vi;
  if (peer == nullptr) {
    d.status = DescStatus::kFlushed;
    d.done_at = actor->now();
    complete_send(d);
    return Status::kSuccess;
  }

  const sim::NodeId src = nic_.node_id();
  const sim::NodeId dst = peer->nic().node_id();
  sim::Fabric& fabric = nic_.fabric();
  const bool lenient = !attrs_.strict_no_recv_error;

  // Consult the fabric's fault plan (inert unless a test armed it). A drop
  // on a reliable VI is a delivery-guarantee violation: VIA semantics are
  // that the connection breaks and the descriptor flushes. On an unreliable
  // VI the message just vanishes.
  const sim::TransferFault tf =
      fabric.faults().on_transfer(conn_name_, src, dst);
  if (tf.drop) {
    fabric.stats().add("fault.transfer_drops");
    if (attrs_.reliability == ReliabilityLevel::kUnreliable) {
      d.status = DescStatus::kSuccess;  // fire-and-forget; nothing arrives
      d.length = static_cast<std::uint32_t>(total);
      d.done_at = wire_start;
    } else {
      fault_break(peer, actor->now());
      d.status = DescStatus::kFlushed;
      d.done_at = actor->now();
    }
    unpin_peer(pin);
    complete_send(d);
    return Status::kSuccess;
  }
  const Time faulted_start = wire_start + tf.delay;
  if (tf.delay != 0) fabric.stats().add("fault.transfer_delays");

  switch (d.op) {
    case Opcode::kSend: {
      const Time arrival =
          fabric.transfer(src, dst, kWireHeaderBytes + total, faulted_start);
      DepositOutcome out = peer->deposit(&d, static_cast<std::uint32_t>(total),
                                         d.has_immediate, d.immediate, arrival,
                                         lenient,
                                         tf.corrupt ? tf.corrupt_seed : 0);
      if (tf.duplicate && out.sender_status == DescStatus::kSuccess) {
        // Deliver the same message a second time (e.g. a spurious transport
        // retransmit); exercises duplicate suppression upstairs.
        fabric.stats().add("fault.transfer_dups");
        const Time again =
            fabric.transfer(src, dst, kWireHeaderBytes + total, arrival);
        (void)peer->deposit(&d, static_cast<std::uint32_t>(total),
                            d.has_immediate, d.immediate, again, lenient);
      }
      d.status = out.sender_status;
      d.length = static_cast<std::uint32_t>(total);
      d.done_at = attrs_.reliability == ReliabilityLevel::kReliableReception
                      ? std::max(arrival, out.delivered)
                      : std::max(wire_start, arrival - cm.propagation);
      if (out.broke) {
        std::lock_guard lock(mu_);
        state_ = State::kError;
      }
      fabric.stats().add("via.sends");
      fabric.stats().add("via.send_bytes", total);
      break;
    }
    case Opcode::kRdmaWrite: {
      const Status vs = peer->nic().memory().validate_rdma(
          d.remote.handle, d.remote.addr, total, /*is_write=*/true,
          peer->attrs().ptag);
      if (vs != Status::kSuccess) {
        d.status = DescStatus::kRdmaProtectionError;
        d.done_at = actor->now();
        break;
      }
      // The NIC's DMA engine moves the data; no host CPU is charged.
      auto* dst_mem = reinterpret_cast<std::byte*>(d.remote.addr);
      std::uint64_t off = 0;
      for (const auto& seg : d.segs) {
        std::memcpy(dst_mem + off, seg.addr, seg.len);
        off += seg.len;
      }
      if (tf.corrupt && total > 0) {
        dst_mem[tf.corrupt_seed % total] ^= std::byte{
            static_cast<unsigned char>(1u << ((tf.corrupt_seed >> 16) % 8))};
        fabric.stats().add("fault.transfer_corruptions");
      }
      const Time arrival =
          fabric.transfer(src, dst, kWireHeaderBytes + total, faulted_start);
      if (d.has_immediate) {
        DepositOutcome out =
            peer->deposit(nullptr, static_cast<std::uint32_t>(total),
                          /*has_imm=*/true, d.immediate, arrival, lenient);
        if (out.sender_status != DescStatus::kSuccess &&
            out.sender_status != DescStatus::kDropped) {
          d.status = out.sender_status;
          d.done_at = arrival;
          if (out.broke) {
            std::lock_guard lock(mu_);
            state_ = State::kError;
          }
          break;
        }
      }
      d.status = DescStatus::kSuccess;
      d.length = static_cast<std::uint32_t>(total);
      d.done_at = attrs_.reliability == ReliabilityLevel::kReliableReception
                      ? arrival
                      : std::max(wire_start, arrival - cm.propagation);
      fabric.stats().add("via.rdma_writes");
      fabric.stats().add("via.rdma_write_bytes", total);
      break;
    }
    case Opcode::kRdmaRead: {
      const Status vs = peer->nic().memory().validate_rdma(
          d.remote.handle, d.remote.addr, total, /*is_write=*/false,
          peer->attrs().ptag);
      if (vs != Status::kSuccess) {
        d.status = DescStatus::kRdmaProtectionError;
        d.done_at = actor->now();
        break;
      }
      const auto* src_mem = reinterpret_cast<const std::byte*>(d.remote.addr);
      std::uint64_t off = 0;
      for (const auto& seg : d.segs) {
        std::memcpy(seg.addr, src_mem + off, seg.len);
        off += seg.len;
      }
      if (tf.corrupt && total > 0) {
        flip_scattered_bit(d.segs, total, tf.corrupt_seed);
        fabric.stats().add("fault.transfer_corruptions");
      }
      // Request goes out, data comes back: one round trip plus the payload.
      const Time req_arrival =
          fabric.transfer(src, dst, kWireHeaderBytes, faulted_start);
      const Time arrival = fabric.transfer(
          dst, src, kWireHeaderBytes + total, req_arrival + cm.dma_setup);
      d.status = DescStatus::kSuccess;
      d.length = static_cast<std::uint32_t>(total);
      d.done_at = arrival;
      fabric.stats().add("via.rdma_reads");
      fabric.stats().add("via.rdma_read_bytes", total);
      break;
    }
    case Opcode::kReceive:
      break;  // unreachable; handled above
  }

  // Doorbell->completion latency and transfer-size distributions, per op.
  const char* lat_key = nullptr;
  const char* size_key = nullptr;
  switch (d.op) {
    case Opcode::kSend:
      lat_key = "via.send_latency_ns";
      size_key = "via.send_size_bytes";
      break;
    case Opcode::kRdmaWrite:
      lat_key = "via.rdma_write_latency_ns";
      size_key = "via.rdma_write_size_bytes";
      break;
    case Opcode::kRdmaRead:
      lat_key = "via.rdma_read_latency_ns";
      size_key = "via.rdma_read_size_bytes";
      break;
    case Opcode::kReceive:
      break;
  }
  if (lat_key != nullptr) {
    // Doorbell->completion span, child of whatever request span is open on
    // this thread (the DAFS client request or the server's service span).
    sim::record_span(fabric, "via",
                     d.op == Opcode::kSend        ? "send"
                     : d.op == Opcode::kRdmaWrite ? "rdma_write"
                                                  : "rdma_read",
                     d.posted_at, d.done_at, sim::SpanParent::inherit(),
                     {{"bytes", total},
                      {"status", static_cast<std::uint64_t>(d.status)}},
                     lat_key);
    fabric.histograms().record(size_key, total);
  }

  // Scheduled break: the Nth completion on a named connection succeeds, then
  // the connection dies under the next operation.
  if (d.status == DescStatus::kSuccess && !conn_name_.empty() &&
      fabric.faults().on_conn_completion(conn_name_)) {
    fabric.stats().add("fault.conn_breaks");
    fault_break(peer, d.done_at);
  }

  unpin_peer(pin);
  complete_send(d);
  return Status::kSuccess;
}

void Vi::fault_break(Vi* peer, Time t) {
  if (peer != nullptr) {
    {
      std::lock_guard lock(peer->mu_);
      if (peer->state_ == State::kConnected) {
        peer->state_ = State::kError;
        peer->flush_recvs_locked(t);
      }
    }
    peer->cv_.notify_all();
  }
  {
    std::lock_guard lock(mu_);
    if (state_ == State::kConnected) {
      state_ = State::kError;
      flush_recvs_locked(t);
    }
  }
  cv_.notify_all();
}

// ---------------------------------------------------------------------------
// Deposit (runs on the sender's thread, against the receiving VI)
// ---------------------------------------------------------------------------

Vi::DepositOutcome Vi::deposit(const Descriptor* gather,
                               std::uint32_t report_len, bool has_imm,
                               std::uint32_t imm, Time arrival,
                               bool lenient_wait,
                               std::uint64_t corrupt_seed) {
  std::unique_lock lock(mu_);
  if (state_ != State::kConnected) {
    return DepositOutcome{DescStatus::kFlushed, false};
  }

  if (recv_posted_.empty()) {
    if (attrs_.reliability == ReliabilityLevel::kUnreliable) {
      nic_.fabric().stats().add("via.unreliable_drops");
      return DepositOutcome{DescStatus::kDropped, false};
    }
    if (lenient_wait) {
      // Emulated link-level flow control: give the receiver a moment (host
      // time) to replenish its descriptor pool.
      cv_.wait(lock, sim::Deadline::host(kLenientRecvWait), [&] {
        return !recv_posted_.empty() || state_ != State::kConnected;
      });
      if (state_ != State::kConnected) {
        return DepositOutcome{DescStatus::kFlushed, false};
      }
    }
    if (recv_posted_.empty()) {
      // Strict VIA semantics: the connection breaks.
      state_ = State::kError;
      flush_recvs_locked(arrival);
      nic_.fabric().stats().add("via.no_recv_errors");
      return DepositOutcome{DescStatus::kFlushed, true};
    }
  }

  Descriptor* r = recv_posted_.front();
  recv_posted_.pop_front();

  std::uint32_t copied = 0;
  if (gather != nullptr) {
    // Two-sided delivery: the receiving NIC fetches the descriptor and sets
    // up the scatter — the per-message work RDMA avoids.
    arrival += nic_.cost().recv_descriptor;
    // Scatter the gathered bytes into the receive descriptor's segments.
    std::uint64_t capacity = r->total_bytes();
    if (gather->total_bytes() > capacity) {
      // Message longer than the posted buffer: both sides see an error.
      r->status = DescStatus::kFormatError;
      r->length = 0;
      r->done_at = arrival;
      complete_recv_locked(*r);
      return DepositOutcome{DescStatus::kFormatError, false};
    }
    auto dst_it = r->segs.begin();
    std::uint32_t dst_off = 0;
    for (const auto& sseg : gather->segs) {
      std::uint32_t src_off = 0;
      while (src_off < sseg.len) {
        while (dst_it != r->segs.end() && dst_it->len == dst_off) {
          ++dst_it;
          dst_off = 0;
        }
        assert(dst_it != r->segs.end());
        const std::uint32_t n =
            std::min(sseg.len - src_off, dst_it->len - dst_off);
        std::memcpy(dst_it->addr + dst_off, sseg.addr + src_off, n);
        src_off += n;
        dst_off += n;
        copied += n;
      }
    }
    if (corrupt_seed != 0 && copied > 0) {
      // Wire corruption survived the link CRC: one bit of the delivered
      // copy flips; the sender's gather buffers stay intact (a retransmit
      // re-reads clean bytes).
      flip_scattered_bit(r->segs, copied, corrupt_seed);
      nic_.fabric().stats().add("fault.transfer_corruptions");
    }
    r->length = copied;
  } else {
    r->length = report_len;  // RDMA write w/ immediate: data already placed
  }

  r->status = DescStatus::kSuccess;
  r->recv_has_immediate = has_imm;
  r->recv_immediate = imm;
  r->done_at = arrival;
  complete_recv_locked(*r);
  return DepositOutcome{DescStatus::kSuccess, false, arrival};
}

// ---------------------------------------------------------------------------
// Reaping
// ---------------------------------------------------------------------------

template <typename Until>
Status Vi::reap(std::deque<Descriptor*>& q, Descriptor*& out, Until until) {
  Descriptor* d = nullptr;
  {
    std::unique_lock lock(mu_);
    if (q.empty()) {
      if constexpr (std::is_null_pointer_v<Until>) {
        return Status::kNotDone;
      } else {
        // A broken/disconnected VI will never complete more work: wake and
        // report kConnectionLost instead of burning the full timeout
        // (already delivered completions — including flushed ones — drain
        // first).
        auto live = [&] {
          return state_ == State::kConnected || state_ == State::kIdle;
        };
        cv_.wait(lock, until(), [&] { return !q.empty() || !live(); });
        if (q.empty()) {
          return live() ? Status::kTimeout : Status::kConnectionLost;
        }
      }
    }
    d = q.front();
    q.pop_front();
  }
  Actor* actor = Actor::current();
  assert(actor && "reap outside an ActorScope");
  actor->sync_to(d->done_at);
  actor->charge(CostKind::kProtocol, nic_.cost().completion);
  if (d->op != Opcode::kReceive && d->posted_at != 0) {
    nic_.fabric().histograms().record("via.doorbell_to_reap_ns",
                                      since(d->posted_at, actor->now()));
  }
  out = d;
  return Status::kSuccess;
}

Status Vi::send_done(Descriptor*& out) {
  return reap(send_done_q_, out, nullptr);
}

Status Vi::recv_done(Descriptor*& out) {
  return reap(recv_done_q_, out, nullptr);
}

Status Vi::send_wait(Descriptor*& out, std::chrono::milliseconds timeout) {
  return reap(send_done_q_, out,
              [timeout] { return sim::Deadline::host(timeout); });
}

Status Vi::recv_wait(Descriptor*& out, std::chrono::milliseconds timeout) {
  return reap(recv_done_q_, out,
              [timeout] { return sim::Deadline::host(timeout); });
}

Status Vi::send_wait(Descriptor*& out, sim::Deadline until) {
  return reap(send_done_q_, out, [until] { return until; });
}

Status Vi::recv_wait(Descriptor*& out, sim::Deadline until) {
  return reap(recv_done_q_, out, [until] { return until; });
}

}  // namespace via
