#include "nfs/tcp.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace nfs {

using sim::Actor;
using sim::CostKind;
using sim::Time;

TcpStream::TcpStream(sim::Fabric& fabric, sim::NodeId node,
                     std::shared_ptr<Conn> conn, bool is_a)
    : fabric_(fabric), node_(node), conn_(std::move(conn)), is_a_(is_a) {}

TcpStream::~TcpStream() { close(); }

void TcpStream::close() {
  if (!conn_) return;
  {
    std::lock_guard lock(conn_->mu);
    (is_a_ ? conn_->a_closed : conn_->b_closed) = true;
  }
  conn_->cv.notify_all();
}

bool TcpStream::closed() const {
  if (!conn_) return true;
  std::lock_guard lock(conn_->mu);
  return is_a_ ? conn_->b_closed : conn_->a_closed;
}

bool TcpStream::send(std::span<const std::byte> data) {
  Actor* actor = Actor::current();
  assert(actor && "TcpStream::send outside an ActorScope");
  const sim::CostModel& cm = fabric_.cost();

  {
    std::lock_guard lock(conn_->mu);
    if (conn_->a_closed || conn_->b_closed) return false;
  }

  // Sender kernel path: trap, user->kernel copy, per-segment stack work.
  const std::uint64_t segs = cm.tcp_segments(data.size());
  actor->charge(CostKind::kKernel, cm.syscall);
  actor->charge(CostKind::kCopy, cm.copy_time(data.size()));
  actor->charge(CostKind::kKernel, segs * cm.tcp_per_segment);

  const Time arrival = fabric_.transfer(
      node_, peer_node_, data.size() + segs * cm.tcp_header_bytes,
      actor->now());

  Chunk c;
  c.data.assign(data.begin(), data.end());
  c.arrival = arrival;
  c.segments = segs;
  {
    std::lock_guard lock(conn_->mu);
    (is_a_ ? conn_->to_b : conn_->to_a).push_back(std::move(c));
  }
  conn_->cv.notify_all();
  fabric_.stats().add("tcp.bytes_sent", data.size());
  fabric_.stats().add("tcp.segments", segs);
  return true;
}

bool TcpStream::recv_exact(std::span<std::byte> out) {
  Actor* actor = Actor::current();
  assert(actor && "TcpStream::recv outside an ActorScope");
  const sim::CostModel& cm = fabric_.cost();

  std::size_t got = 0;
  // One read() syscall for the whole request (the RPC layer sizes reads to
  // message boundaries).
  actor->charge(CostKind::kKernel, cm.syscall);
  std::unique_lock lock(conn_->mu);
  auto& q = is_a_ ? conn_->to_a : conn_->to_b;
  while (got < out.size()) {
    if (q.empty()) {
      // EOF on peer close, and on local close too: a read on a socket this
      // endpoint has shut down must not block. The server relies on this to
      // unpark nfsd threads during stop().
      const bool peer_closed = is_a_ ? conn_->b_closed : conn_->a_closed;
      const bool self_closed = is_a_ ? conn_->a_closed : conn_->b_closed;
      if (peer_closed || self_closed) return false;
      conn_->cv.wait(lock,
                     sim::Deadline::host(std::chrono::milliseconds(100)));
      continue;
    }
    Chunk& c = q.front();
    if (c.segments > 0) {
      // Receiver kernel path for this chunk: (coalesced) interrupts plus
      // per-segment stack processing, charged once on first touch.
      const std::uint64_t irqs =
          (c.segments + cm.interrupt_coalesce - 1) / cm.interrupt_coalesce;
      actor->sync_to(c.arrival);
      actor->charge(CostKind::kInterrupt, irqs * cm.interrupt);
      actor->charge(CostKind::kKernel, c.segments * cm.tcp_per_segment);
      c.segments = 0;
    }
    const std::size_t n =
        std::min(out.size() - got, c.data.size() - c.consumed);
    std::memcpy(out.data() + got, c.data.data() + c.consumed, n);
    actor->charge(CostKind::kCopy, cm.copy_time(n));  // kernel -> user
    got += n;
    c.consumed += n;
    if (c.consumed == c.data.size()) q.pop_front();
  }
  fabric_.stats().add("tcp.bytes_received", got);
  return true;
}

std::unique_ptr<TcpStream> TcpStream::connect(
    sim::Fabric& fabric, sim::NodeId node, const std::string& service,
    std::chrono::milliseconds timeout) {
  Actor* actor = Actor::current();
  assert(actor && "TcpStream::connect outside an ActorScope");
  auto* listener =
      static_cast<TcpListener*>(fabric.lookup("tcp:" + service));
  if (listener == nullptr) return nullptr;

  TcpListener::Pending req;
  req.client_node = node;
  req.conn = std::make_shared<Conn>();
  // connect(2): one syscall plus a 1.5-RTT three-way handshake.
  actor->charge(CostKind::kKernel, fabric.cost().syscall);
  req.client_time = actor->now();

  std::unique_lock lock(listener->mu_);
  if (listener->closed_) return nullptr;
  listener->pending_.push_back(&req);
  listener->cv_.notify_all();
  if (!req.cv.wait(lock, sim::Deadline::host(timeout),
                   [&] { return req.done; })) {
    auto it = std::find(listener->pending_.begin(), listener->pending_.end(),
                        &req);
    if (it != listener->pending_.end()) {
      listener->pending_.erase(it);
      return nullptr;
    }
    req.cv.wait(lock, sim::Deadline::never(), [&] { return req.done; });
  }
  if (!req.taken) return nullptr;  // listener closed before accepting us
  actor->advance(3 * fabric.cost().propagation);  // handshake RTTs

  auto stream = std::unique_ptr<TcpStream>(
      new TcpStream(fabric, node, req.conn, /*is_a=*/true));
  stream->peer_node_ = req.server_node;
  fabric.stats().add("tcp.connects");
  return stream;
}

TcpListener::TcpListener(sim::Fabric& fabric, sim::NodeId node,
                         std::string service)
    : fabric_(fabric), node_(node), key_("tcp:" + service) {
  fabric_.bind(key_, this);
}

TcpListener::~TcpListener() {
  fabric_.unbind(key_);
  std::lock_guard lock(mu_);
  closed_ = true;
  for (Pending* p : pending_) {
    p->done = true;
    p->cv.notify_all();
  }
  pending_.clear();
}

std::unique_ptr<TcpStream> TcpListener::accept(
    std::chrono::milliseconds timeout) {
  Actor* actor = Actor::current();
  assert(actor && "TcpListener::accept outside an ActorScope");
  Pending* req = nullptr;
  {
    std::unique_lock lock(mu_);
    if (!cv_.wait(lock, sim::Deadline::host(timeout),
                  [&] { return !pending_.empty() || closed_; })) {
      return nullptr;
    }
    if (closed_ || pending_.empty()) return nullptr;
    req = pending_.front();
    pending_.pop_front();
  }
  actor->charge(CostKind::kKernel, fabric_.cost().syscall);  // accept(2)
  actor->sync_to(req->client_time + fabric_.cost().propagation);
  auto stream = std::unique_ptr<TcpStream>(
      new TcpStream(fabric_, node_, req->conn, /*is_a=*/false));
  stream->peer_node_ = req->client_node;
  {
    std::lock_guard lock(mu_);
    req->taken = true;
    req->server_node = node_;
    req->done = true;
    req->cv.notify_all();
  }
  return stream;
}

}  // namespace nfs
