#include "via/nic.hpp"

#include <algorithm>
#include <cassert>

#include "sim/actor.hpp"
#include "via/vi.hpp"

namespace via {

using sim::Actor;
using sim::CostKind;
using sim::Time;

Nic::Nic(sim::Fabric& fabric, sim::NodeId node, std::string name)
    : fabric_(fabric), node_(node), name_(std::move(name)) {}

Nic::~Nic() = default;

MemHandle Nic::register_memory(void* base, std::size_t len, ProtectionTag tag,
                               MemAttrs attrs) {
  // Registration cost under the caller's open request span, if any: cache
  // misses in the client's registration cache show up on the timeline.
  sim::SpanScope span(fabric_.trace(), "via", "register_memory");
  if (span.active()) span.attr("bytes", std::uint64_t{len});
  if (Actor* actor = Actor::current()) {
    actor->charge(CostKind::kRegistration, cost().reg_time(len));
  }
  if (fabric_.faults().on_register()) {
    fabric_.stats().add("fault.reg_failures");
    return kInvalidMemHandle;
  }
  fabric_.stats().add("via.registrations");
  fabric_.stats().add("via.registered_bytes", len);
  return memory_.register_region(base, len, tag, attrs);
}

Status Nic::deregister_memory(MemHandle h) {
  if (Actor* actor = Actor::current()) {
    actor->charge(CostKind::kRegistration, cost().dereg_base);
  }
  fabric_.stats().add("via.deregistrations");
  return memory_.deregister(h);
}

Status Nic::connect(Vi& vi, const std::string& service,
                    std::chrono::milliseconds timeout) {
  Actor* actor = Actor::current();
  assert(actor && "connect outside an ActorScope");
  if (vi.state() != Vi::State::kIdle) return Status::kInvalidState;

  vi.conn_name_ = service;

  Listener::Request req;
  req.client_vi = &vi;
  req.client_time = actor->now();

  // Enqueue under the fabric registry lock: a Listener unbinds itself (same
  // lock) before its destructor tears anything down, so a listener resolved
  // here is alive for the whole enqueue, and a request enqueued here is
  // visible to that destructor's fail-pending sweep. A bare lookup() would
  // race destruction — the listener lives on its accept loop's stack.
  const std::string key = "via:" + service;
  bool enqueued = false;
  fabric_.with_bound(key, [&](void* ep) {
    auto* listener = static_cast<Listener*>(ep);
    if (listener == nullptr) return;
    // A severed link also swallows the connect handshake: to a partitioned
    // peer the listener is indistinguishable from absent.
    if (fabric_.faults().partitioned(node_, listener->nic_.node_id())) return;
    std::lock_guard lk(listener->mu_);
    if (listener->closed_) return;
    listener->pending_.push_back(&req);
    listener->cv_.notify_all();
    enqueued = true;
  });
  if (!enqueued) return Status::kNoMatchingListener;

  // From here on the listener pointer is dead to us: whoever resolves the
  // request — accept, reject, or the destructor's sweep — finds it through
  // pending_ and completes the rendezvous under the request's own mutex.
  std::unique_lock lock(req.mu);
  const bool got = req.cv.wait(lock, sim::Deadline::host(timeout),
                               [&] { return req.done; });

  if (!got) {
    // Withdraw the request if the listener still exists and has not claimed
    // it yet. Re-resolve under the registry lock — the listener (even a
    // different incarnation rebound to the same service) is alive while we
    // search its queue; if the request is in neither a live listener's
    // queue nor withdrawn, someone claimed or failed it and the resolution
    // is imminent.
    lock.unlock();
    bool withdrawn = false;
    fabric_.with_bound(key, [&](void* ep) {
      auto* listener = static_cast<Listener*>(ep);
      if (listener == nullptr) return;
      std::lock_guard lk(listener->mu_);
      auto it = std::find(listener->pending_.begin(),
                          listener->pending_.end(), &req);
      if (it != listener->pending_.end()) {
        listener->pending_.erase(it);
        withdrawn = true;
      }
    });
    if (withdrawn) return Status::kTimeout;
    lock.lock();
    req.cv.wait(lock, sim::Deadline::never(), [&] { return req.done; });
  }

  if (!req.accepted) return Status::kRejected;
  // The handshake costs a round trip plus setup on each side; complete at
  // the same (agreed) instant on both ends.
  actor->charge(CostKind::kProtocol, cost().connect_setup);
  actor->sync_to(req.server_time + cost().propagation);
  fabric_.stats().add("via.connects");
  return Status::kSuccess;
}

// ---------------------------------------------------------------------------
// Listener
// ---------------------------------------------------------------------------

Listener::Listener(Nic& nic, std::string service)
    : nic_(nic), service_(std::move(service)), key_("via:" + service_) {
  nic_.fabric().bind(key_, this);
}

Listener::~Listener() {
  // Unbind first: after this returns no connector can reach us (resolution
  // and enqueue happen under the registry lock), so the sweep below sees
  // every request that will ever be enqueued.
  nic_.fabric().unbind(key_);
  std::lock_guard lock(mu_);
  closed_ = true;
  for (Request* req : pending_) {
    // Notify while holding the request's mutex: the waiter cannot wake,
    // return, and pop its stack frame (destroying the request) before the
    // notify has finished touching it.
    std::lock_guard rlock(req->mu);
    req->done = true;
    req->accepted = false;
    req->cv.notify_all();
  }
  pending_.clear();
}

Status Listener::take_request(Request*& out, std::chrono::milliseconds timeout) {
  std::unique_lock lock(mu_);
  if (!cv_.wait(lock, sim::Deadline::host(timeout),
                [&] { return !pending_.empty() || closed_; })) {
    return Status::kTimeout;
  }
  if (closed_ || pending_.empty()) return Status::kInvalidState;
  out = pending_.front();
  pending_.pop_front();
  return Status::kSuccess;
}

Status Listener::accept(Vi& vi, std::chrono::milliseconds timeout) {
  Actor* actor = Actor::current();
  assert(actor && "accept outside an ActorScope");
  if (vi.state() != Vi::State::kIdle) return Status::kInvalidState;

  Request* req = nullptr;
  if (Status st = take_request(req, timeout); st != Status::kSuccess) {
    return st;
  }

  vi.conn_name_ = service_;
  Vi::link(*req->client_vi, vi);
  actor->charge(CostKind::kProtocol, nic_.cost().connect_setup);
  const Time agreed = std::max(actor->now(), req->client_time +
                                                 nic_.cost().connect_setup);
  actor->sync_to(agreed + nic_.cost().propagation);

  std::lock_guard lock(req->mu);
  req->server_time = agreed;
  req->done = true;
  req->accepted = true;
  req->cv.notify_all();
  return Status::kSuccess;
}

Status Listener::reject(std::chrono::milliseconds timeout) {
  Request* req = nullptr;
  if (Status st = take_request(req, timeout); st != Status::kSuccess) {
    return st;
  }
  std::lock_guard lock(req->mu);
  req->done = true;
  req->accepted = false;
  req->cv.notify_all();
  return Status::kSuccess;
}

}  // namespace via
