#include "sim/actor.hpp"

namespace sim {

namespace {
thread_local Actor* g_current_actor = nullptr;
}  // namespace

Actor* Actor::current() { return g_current_actor; }

ActorScope::ActorScope(Actor& actor) : prev_(g_current_actor) {
  g_current_actor = &actor;
}

ActorScope::~ActorScope() { g_current_actor = prev_; }

void ActorPool::add(Actor& a) {
  std::lock_guard lock(mu_);
  members_.push_back(&a);
  lent_.push_back(false);
}

Actor& ActorPool::acquire() {
  std::lock_guard lock(mu_);
  const std::size_t none = members_.size();
  std::size_t best = none;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (lent_[i]) continue;
    if (best == none || members_[i]->now() < members_[best]->now()) best = i;
  }
  assert(best != none && "every pooled actor is lent out");
  lent_[best] = true;
  return *members_[best];
}

void ActorPool::release(Actor& a) {
  std::lock_guard lock(mu_);
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (members_[i] == &a) lent_[i] = false;
  }
}

ActorPool::Lease::Lease(ActorPool& pool)
    : pool_(pool), actor_(pool.acquire()), scope_(actor_) {}

ActorPool::Lease::~Lease() { pool_.release(actor_); }

}  // namespace sim
