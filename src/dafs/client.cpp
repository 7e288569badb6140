#include "dafs/client.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>

#include "dafs/session.hpp"
#include "sim/actor.hpp"

namespace dafs {

using sim::Actor;
using sim::CostKind;

Client::Client(std::uint64_t stripe_size) : stripe_size_(stripe_size) {}

Client::~Client() {
  // End-of-job flush: after_job opens buffer until unmount. Errors have
  // nowhere to surface from a destructor; the fence counters record them.
  for (auto& of : open_files_) {
    if (of.cache == nullptr) continue;
    flush_dirty(of);
    if (of.deleg != 0) meta().deleg_return(of.meta);
  }
}

Result<std::unique_ptr<Client>> Client::connect(via::Nic& nic,
                                                const MountSpec& spec) {
  // Filer 0 is the metadata filer and data server 0 at once, so a data list
  // must start there.
  if (!spec.data_endpoints.empty() &&
      spec.data_endpoints.front().service !=
          (spec.endpoints.empty() ? spec.client.service
                                  : spec.endpoints.front().service)) {
    return PStatus::kInval;
  }
  auto c = std::unique_ptr<Client>(new Client(
      spec.stripe_size == 0 ? kDefaultStripeSize : spec.stripe_size));
  // Session 0 binds spec.endpoints, failover chain included.
  auto s0 = Session::connect(nic, spec);
  if (!s0.ok()) return s0.error();
  c->sessions_.push_back(std::move(s0.value()));
  // One session per further data server: its own VI, credit window and
  // registration cache, so per-server sub-transfers overlap.
  for (std::size_t i = 1; i < spec.data_endpoints.size(); ++i) {
    MountSpec dm;
    dm.endpoints = {spec.data_endpoints[i]};
    dm.client = spec.client;
    // Data sessions adopt their (unique) session id as client identity: a
    // caller-pinned client_id shared across N seq spaces would alias entries
    // in the server's durable duplicate filter.
    dm.client.client_id = 0;
    auto s = Session::connect(nic, dm);
    if (!s.ok()) return s.error();
    c->sessions_.push_back(std::move(s.value()));
  }
  // Consecutive mounts get consecutive skews, so N clients of an N-wide
  // layout start their fan-out on N different servers.
  static std::atomic<std::size_t> next_skew{0};
  c->skew_ = next_skew.fetch_add(1, std::memory_order_relaxed) %
             c->sessions_.size();
  c->fabric_ = &nic.fabric();
  c->gauges_.emplace_back(c->fabric_->metrics(), "dafs.cache.bytes",
                          [p = c.get()] { return p->cache_bytes(); });
  return c;
}

Client::OpenFile* Client::lookup(Fh fh) {
  for (auto& of : open_files_) {
    if (of.meta.ino == fh.ino) return &of;
  }
  return nullptr;
}

std::uint64_t Client::cache_bytes() const {
  std::uint64_t total = 0;
  for (const auto& of : open_files_) {
    if (of.cache != nullptr) total += of.cache->bytes();
  }
  return total;
}

bool Client::has_delegation(Fh fh) const {
  for (const auto& of : open_files_) {
    if (of.meta.ino == fh.ino) return of.deleg != 0;
  }
  return false;
}

void Client::renew_local(OpenFile& of) {
  Actor* actor = Actor::current();
  const std::uint64_t now = actor != nullptr ? actor->now() : 0;
  // Conservative local horizon: a quarter-term safety margin under the
  // server-side expiry absorbs clock skew accumulated since the renewing
  // response was timestamped (virtual clocks sync on message delivery, then
  // drift apart as each actor charges local costs).
  of.lease_expires = now + of.term_ns - of.term_ns / 4;
}

void Client::drop_deleg(OpenFile& of) {
  if (of.deleg != 0 && of.cache != nullptr && of.cache->has_dirty()) {
    // Final flush attempt under the (possibly lapsed) delegation: the
    // server's id check decides — a fence lands in pending_error and the
    // buffered bytes are gone, exactly the relaxed-consistency contract.
    if (const PStatus st = flush_dirty(of); st != PStatus::kOk) {
      of.pending_error = st;
    }
  }
  of.deleg = 0;
  of.attrs_valid = false;
  if (of.cache != nullptr) of.cache->clear();
  meta().clear_deleg(of.meta.ino);
  meta().clear_recall(of.meta.ino);
}

PStatus Client::flush_dirty(OpenFile& of) {
  if (of.cache == nullptr || !of.cache->has_dirty()) return PStatus::kOk;
  PStatus worst = PStatus::kOk;
  std::uint64_t flushed = 0;
  for (FileCache::Extent& x : of.cache->take_dirty()) {
    const IoVec v{x.off, x.data.data(), x.data.size()};
    auto r = run(of, std::span(&v, 1), true);
    if (!r.ok()) {
      worst = r.error();
      continue;
    }
    flushed += r.value();
  }
  if (fabric_ != nullptr && flushed > 0) {
    fabric_->stats().add("dafs.cache.writeback_bytes", flushed);
    fabric_->stats().add("dafs.cache.writebacks");
  }
  if (worst != PStatus::kOk) {
    of.pending_error = worst;
    // take_dirty re-marked the extents clean optimistically; a failed flush
    // means some of them never reached the server — nothing cached is
    // authoritative anymore.
    of.cache->clear();
  }
  return worst;
}

void Client::service_recall(OpenFile& of) {
  if (fabric_ != nullptr) fabric_->stats().add("dafs.cache.recalls_serviced");
  flush_dirty(of);  // failure lands in pending_error
  meta().deleg_return(of.meta);
  drop_deleg(of);
}

void Client::check_recall(OpenFile& of) {
  if (of.deleg != 0 && meta().recall_pending(of.meta.ino)) {
    service_recall(of);
  }
}

bool Client::cache_live(OpenFile& of) {
  if (of.cache == nullptr || of.deleg == 0) return false;
  if (meta().recovery_epoch() != of.grant_epoch) {
    // A transport recovery may have rebound to an incarnation that never
    // issued this delegation. Server-side id fencing keeps writes safe
    // either way; dropping here keeps *reads* safe too — a conflicting
    // writer could already have gotten in through the new incarnation.
    drop_deleg(of);
    return false;
  }
  Actor* actor = Actor::current();
  const std::uint64_t now = actor != nullptr ? actor->now() : 0;
  if (now >= of.lease_expires) {
    // The lease horizon passed without a renewing server op (cache hits are
    // local). One renewal poll decides: renewed, or expired server-side.
    auto term = meta().deleg_renew(of.meta);
    if (!term.ok()) {
      if (fabric_ != nullptr) {
        fabric_->stats().add("dafs.cache.client_expiries");
      }
      drop_deleg(of);
      return false;
    }
    of.term_ns = term.value();
    renew_local(of);
  }
  if (meta().recall_pending(of.meta.ino)) {
    service_recall(of);
    return false;
  }
  return true;
}

void Client::set_deadline(std::uint64_t ns) {
  for (auto& s : sessions_) s->set_deadline(ns);
}

const ClientConfig& Client::config() const { return meta().config(); }
std::uint64_t Client::deadline() const { return meta().deadline(); }
bool Client::is_stale(Fh fh) const { return meta().is_stale(fh); }
const std::string& Client::active_service() const {
  return meta().active_service();
}
std::uint64_t Client::failovers() const { return meta().failovers(); }

std::uint64_t Client::reg_cache_hits() const {
  std::uint64_t n = 0;
  for (const auto& s : sessions_) n += s->reg_cache_hits();
  return n;
}

std::uint64_t Client::reg_cache_misses() const {
  std::uint64_t n = 0;
  for (const auto& s : sessions_) n += s->reg_cache_misses();
  return n;
}

Result<StatsSnapshot> Client::query_stats() { return meta().query_stats(); }

Result<Fh> Client::open(std::string_view path, std::uint16_t flags) {
  OpenOptions opts;
  opts.flags = flags;
  return open(path, opts);
}

Result<Fh> Client::open(std::string_view path, const OpenOptions& opts) {
  // A delegation covers one ino on one filer, so caching is only offered on
  // single-data-server mounts (where meta and data are the same file).
  const bool want_cache = opts.cache_bytes > 0 && sessions_.size() == 1;
  std::uint16_t mflags = opts.flags;
  if (want_cache) {
    // Always ask for the write flavor: OpenOptions carries no access mode,
    // and a read delegation would turn the first buffered write into a
    // self-conflict.
    mflags |= kOpenWantDeleg | kOpenWantWriteDeleg;
  }
  Session::DelegGrant grant;
  auto fh = meta().open(path, mflags, want_cache ? &grant : nullptr);
  if (!fh.ok()) return fh;
  OpenFile of;
  of.meta = fh.value();
  of.data_fh.push_back(of.meta);  // filer 0's file is data server 0's subfile
  of.opts = opts;
  // Subfile open on every further data server: always create (a reader may
  // touch a stripe whose server never saw a write — the sparse subfile reads
  // as zeros), never exclusive, truncate only when the caller truncates.
  const std::uint16_t dflags =
      kOpenCreate | kOpenDataServer |
      static_cast<std::uint16_t>(opts.flags & kOpenTrunc);
  for (std::size_t i = 1; i < sessions_.size(); ++i) {
    auto dfh = sessions_[i]->open(path, dflags);
    if (!dfh.ok()) return dfh.error();
    of.data_fh.push_back(dfh.value());
  }
  if (want_cache && grant.id != 0) {
    of.deleg = grant.id;
    of.deleg_write = grant.write;
    of.term_ns = grant.term_ns;
    of.grant_epoch = meta().recovery_epoch();
    of.cache = std::make_unique<FileCache>(opts.cache_bytes);
    renew_local(of);
  }
  for (auto& e : open_files_) {
    if (e.meta.ino == of.meta.ino) {
      if (e.cache != nullptr && e.deleg != 0 && e.deleg == of.deleg &&
          (opts.flags & kOpenTrunc) == 0) {
        // Same delegation across the re-open: the cached bytes are still
        // exactly what the server would serve — keep them warm.
        of.cache = std::move(e.cache);
        of.attrs = e.attrs;
        of.attrs_at = e.attrs_at;
        of.attrs_valid = e.attrs_valid;
        of.pending_error = e.pending_error;
      }
      e = std::move(of);
      return fh;
    }
  }
  open_files_.push_back(std::move(of));
  return fh;
}

PStatus Client::close(Fh fh) {
  OpenFile* of = lookup(fh);
  if (of == nullptr) return PStatus::kOk;
  PStatus st = of->pending_error;
  of->pending_error = PStatus::kOk;
  if (of->cache != nullptr &&
      of->opts.consistency == Consistency::kAfterJob && of->deleg != 0) {
    // after_job: the cache and delegation stay warm across close; dirty
    // data flushes at sync, recall, budget pressure or Client teardown.
    return st;
  }
  if (of->cache != nullptr) {
    if (const PStatus fst = flush_dirty(*of); fst != PStatus::kOk) st = fst;
    if (of->deleg != 0) meta().deleg_return(of->meta);
    meta().clear_deleg(of->meta.ino);
    meta().clear_recall(of->meta.ino);
  }
  // Otherwise client-side bookkeeping only: sessions have no close RPC
  // (handles are leases, reclaimed or expired server-side).
  std::erase_if(open_files_,
                [&](const OpenFile& e) { return e.meta.ino == fh.ino; });
  return st;
}

Result<std::uint64_t> Client::logical_size(OpenFile& of) {
  // The striped logical size: subfiles store stripes at logical offsets, so
  // it is the max over the subfile sizes.
  std::uint64_t size = 0;
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    auto a = sessions_[i]->getattr(of.data_fh[i]);
    if (!a.ok()) return a.error();
    size = std::max(size, a.value().size);
  }
  return size;
}

Result<fstore::Attrs> Client::getattr(Fh fh) {
  OpenFile* cof = lookup(fh);
  if (cof != nullptr && cof->cache != nullptr && cache_live(*cof)) {
    Actor* actor = Actor::current();
    const std::uint64_t now = actor != nullptr ? actor->now() : 0;
    if (cof->attrs_valid && cof->opts.attr_ttl_ns > 0 &&
        now < cof->attrs_at + cof->opts.attr_ttl_ns) {
      if (fabric_ != nullptr) fabric_->stats().add("dafs.cache.attr_hits");
      return cof->attrs;
    }
  }
  auto a = meta().getattr(fh);
  if (!a.ok()) return a;
  fstore::Attrs attrs = a.value();
  if (OpenFile* of = lookup(fh); of != nullptr && sessions_.size() > 1) {
    auto sz = logical_size(*of);
    if (!sz.ok()) return sz.error();
    attrs.size = std::max(attrs.size, sz.value());
  }
  if (cof != nullptr && cof->cache != nullptr && cof->deleg != 0) {
    // Under write-back the server has not seen the dirty tail yet: the
    // logical size covers whatever is buffered past the server's EOF.
    attrs.size = std::max(attrs.size, cof->cache->dirty_end());
    cof->attrs = attrs;
    Actor* actor = Actor::current();
    cof->attrs_at = actor != nullptr ? actor->now() : 0;
    cof->attrs_valid = true;
    renew_local(*cof);
    check_recall(*cof);
  }
  return attrs;
}

PStatus Client::set_size(Fh fh, std::uint64_t size) {
  OpenFile* of = lookup(fh);
  if (of == nullptr) return meta().set_size(fh, size);
  // Every subfile gets the logical size: a shrink discards stripes past the
  // end everywhere, an extend makes the new range read as hole-zeros, and
  // the max-over-subfiles logical size comes out exactly `size`.
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    if (const PStatus st = sessions_[i]->set_size(of->data_fh[i], size);
        st != PStatus::kOk) {
      return st;
    }
  }
  return PStatus::kOk;
}

PStatus Client::remove(std::string_view path) {
  const PStatus st = meta().remove(path);
  // Subfiles: kNoEnt is expected wherever the file never existed.
  for (std::size_t i = 1; i < sessions_.size(); ++i) {
    const PStatus dst = sessions_[i]->remove(path);
    if (dst != PStatus::kOk && dst != PStatus::kNoEnt) return dst;
  }
  return st;
}

PStatus Client::mkdir(std::string_view path) {
  const PStatus st = meta().mkdir(path);
  if (st != PStatus::kOk) return st;
  // Mirror directories onto the further data servers so subfile creates
  // resolve; one left behind by an earlier mirror is as good as a new one.
  for (std::size_t i = 1; i < sessions_.size(); ++i) {
    const PStatus dst = sessions_[i]->mkdir(path);
    if (dst != PStatus::kOk && dst != PStatus::kExists) return dst;
  }
  return PStatus::kOk;
}

PStatus Client::rmdir(std::string_view path) {
  const PStatus st = meta().rmdir(path);
  for (std::size_t i = 1; i < sessions_.size(); ++i) {
    const PStatus dst = sessions_[i]->rmdir(path);
    if (dst != PStatus::kOk && dst != PStatus::kNoEnt &&
        dst != PStatus::kNotEmpty) {
      return dst;
    }
  }
  return st;
}

PStatus Client::rename(std::string_view from, std::string_view to) {
  const PStatus st = meta().rename(from, to);
  if (st != PStatus::kOk) return st;
  for (std::size_t i = 1; i < sessions_.size(); ++i) {
    const PStatus dst = sessions_[i]->rename(from, to);
    if (dst != PStatus::kOk && dst != PStatus::kNoEnt) return dst;
  }
  return PStatus::kOk;
}

Result<std::vector<fstore::DirEntry>> Client::readdir(std::string_view path) {
  return meta().readdir(path);
}

PStatus Client::sync(Fh fh) {
  OpenFile* of = lookup(fh);
  if (of == nullptr) return meta().sync(fh);
  // Dirty write-back extents reach the server before the durability fan-out,
  // so "synced" covers them too. A fence (kDelegExpired) surfaces here: the
  // buffered bytes were discarded, not written.
  PStatus worst = flush_dirty(*of);
  if (of->pending_error != PStatus::kOk) {
    if (worst == PStatus::kOk) worst = of->pending_error;
    of->pending_error = PStatus::kOk;
  }
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    if (const PStatus st = sessions_[i]->sync(of->data_fh[i]);
        st != PStatus::kOk) {
      worst = st;
    }
  }
  return worst;
}

PStatus Client::flush(Fh fh) {
  OpenFile* of = lookup(fh);
  if (of == nullptr) return PStatus::kInval;
  PStatus st = flush_dirty(*of);
  if (st == PStatus::kOk) {
    st = of->pending_error;
  }
  // Whatever flush reports is surfaced here, once — close() must not see it
  // again.
  of->pending_error = PStatus::kOk;
  if (st == PStatus::kDelegExpired) {
    // The server fenced the write-back: this delegation is dead on its side
    // and every byte cached under it is suspect. Drop it now (flush_dirty
    // already discarded the rejected extents) instead of limping on until
    // the next lease check.
    drop_deleg(*of);
  }
  return st;
}

// ---- data: one engine for every read and write ----

std::vector<std::vector<IoVec>> Client::split(
    std::span<const IoVec> iovs) const {
  std::vector<std::vector<IoVec>> per(sessions_.size());
  if (sessions_.size() == 1) {
    // One filer holds everything: no split, and the list keeps its order.
    for (const IoVec& v : iovs) {
      if (v.len > 0) per[0].push_back(v);
    }
    return per;
  }
  for (const IoVec& v : iovs) {
    std::uint64_t off = v.file_off;
    std::byte* buf = v.buf;
    std::uint64_t left = v.len;
    while (left > 0) {
      const std::uint64_t in_stripe = stripe_size_ - off % stripe_size_;
      const std::uint64_t n = std::min(left, in_stripe);
      per[server_of(off)].push_back(IoVec{off, buf, n});
      off += n;
      buf += n;
      left -= n;
    }
  }
  // Sorted per server: the short-count merge distributes a server's returned
  // byte count prefix-wise over its pieces, which is exact when per-piece
  // actual reads are monotone (sorted offsets, non-overlapping pieces).
  for (auto& pieces : per) {
    std::stable_sort(pieces.begin(), pieces.end(),
                     [](const IoVec& a, const IoVec& b) {
                       return a.file_off < b.file_off;
                     });
  }
  return per;
}

Result<Client::Pending> Client::start(OpenFile& of,
                                      std::span<const IoVec> iovs,
                                      bool writing) {
  Pending p;
  p.fh = of.meta;
  p.writing = writing;
  p.trace = sim::Tracer::current();
  p.queue = split(iovs);
  if (const PStatus st = issue(&of, p); st != PStatus::kOk) {
    // Drain what went out: those requests reference the caller's buffers.
    for (const SubOp& sub : p.subs) sessions_[sub.server]->wait(sub.op);
    return st;
  }
  return p;
}

PStatus Client::issue(const OpenFile* of, Pending& p) {
  for (std::size_t i = 0; i < p.queue.size(); ++i) {
    const std::size_t s = (skew_ + i) % p.queue.size();
    std::vector<IoVec>& q = p.queue[s];
    if (q.empty()) continue;
    if (of == nullptr) return PStatus::kInval;
    auto req = sessions_[s]->submit_data(of->data_fh[s], q, p.writing,
                                         p.trace);
    if (!req.ok()) return req.error();
    drop_front(q, req.value().bytes);
    p.subs.push_back(SubOp{s, req.value().op, std::move(req.value().iovs)});
  }
  return PStatus::kOk;
}

PStatus Client::finish(Pending& p, std::uint64_t* bytes) {
  OpenFile* of = lookup(p.fh);
  PStatus worst = p.status;
  bool more = true;
  while (!p.subs.empty()) {
    for (const SubOp& sub : p.subs) {
      std::uint64_t got = 0;
      const PStatus st = sessions_[sub.server]->wait(sub.op, &got);
      if (st != PStatus::kOk) {
        if (worst == PStatus::kOk) worst = st;
        continue;
      }
      std::uint64_t want = 0;
      for (const IoVec& v : sub.iovs) want += v.len;
      if (got >= want) {
        p.bytes += want;
        continue;
      }
      if (p.writing || sessions_.size() == 1) {
        // A one-filer request comes back short at EOF (or where the filer
        // stopped accepting), and the op ends there: the pieces after it
        // lie past that point.
        p.bytes += got;
        if (sessions_.size() == 1) more = false;
        continue;
      }
      // Short read: this subfile ends before the logical file does (later
      // stripes live on other servers). Bytes inside the logical size are
      // holes on this server — zeros by definition — so fill and count them;
      // bytes past the logical size stay short (EOF).
      if (!p.have_size) {
        auto sz = of != nullptr ? logical_size(*of)
                                : Result<std::uint64_t>(PStatus::kInval);
        if (!sz.ok()) {
          if (worst == PStatus::kOk) worst = sz.error();
          continue;
        }
        p.size = sz.value();
        p.have_size = true;
      }
      std::uint64_t rem = got;
      for (const IoVec& v : sub.iovs) {
        const std::uint64_t take = std::min(v.len, rem);
        rem -= take;
        const std::uint64_t expected =
            p.size > v.file_off ? std::min(v.len, p.size - v.file_off) : 0;
        if (expected > take) std::memset(v.buf + take, 0, expected - take);
        p.bytes += std::max(expected, take);
      }
    }
    p.subs.clear();
    if (worst != PStatus::kOk || !more) break;
    // A failed issue leaves what it did send in p.subs, for the next pass
    // to collect.
    if (const PStatus st = issue(of, p); st != PStatus::kOk) worst = st;
  }
  if (bytes != nullptr) *bytes = p.bytes;
  return worst;
}

Result<std::uint64_t> Client::run(OpenFile& of, std::span<const IoVec> iovs,
                                  bool writing) {
  auto p = start(of, iovs, writing);
  if (!p.ok()) return p.error();
  std::uint64_t bytes = 0;
  if (const PStatus st = finish(p.value(), &bytes); st != PStatus::kOk) {
    return st;
  }
  return bytes;
}

Result<std::uint64_t> Client::pread(Fh fh, std::uint64_t off,
                                    std::span<std::byte> out) {
  OpenFile* of = lookup(fh);
  if (of == nullptr) return PStatus::kInval;
  const IoVec v{off, out.data(), out.size()};
  if (of->cache != nullptr && cache_live(*of)) {
    if (!out.empty() && of->cache->read(off, out)) {
      // A hit is local but not free: the copy out of the cache is charged
      // at memory-bandwidth cost, so cached and uncached per-op latencies
      // stay comparable in the model.
      if (Actor* actor = Actor::current();
          actor != nullptr && fabric_ != nullptr) {
        actor->charge(CostKind::kCopy, fabric_->cost().copy_time(out.size()));
      }
      if (fabric_ != nullptr) fabric_->stats().add("dafs.cache.hits");
      return out.size();
    }
    if (fabric_ != nullptr) fabric_->stats().add("dafs.cache.misses");
    auto r = run(*of, std::span(&v, 1), false);
    if (!r.ok()) return r;
    renew_local(*of);
    check_recall(*of);
    if (of->deleg == 0) return r;  // recall serviced mid-read: stop caching
    // Populate with the server's bytes (put_clean skips dirty ranges), zero
    // the tail the server did not cover, then overlay the dirty extents so
    // read-your-writes holds — buffered writes past the server's EOF extend
    // the readable range.
    of->cache->put_clean(off, out.subspan(0, r.value()));
    std::memset(out.data() + r.value(), 0, out.size() - r.value());
    of->cache->overlay_dirty(off, out);
    const std::uint64_t dirty_tail = of->cache->dirty_end();
    const std::uint64_t n =
        dirty_tail > off
            ? std::max<std::uint64_t>(
                  r.value(), std::min<std::uint64_t>(dirty_tail - off,
                                                     out.size()))
            : r.value();
    return n;
  }
  return run(*of, std::span(&v, 1), false);
}

Result<std::uint64_t> Client::pwrite(Fh fh, std::uint64_t off,
                                     std::span<const std::byte> in) {
  OpenFile* of = lookup(fh);
  if (of == nullptr) return PStatus::kInval;
  const IoVec v{off, const_cast<std::byte*>(in.data()), in.size()};
  if (of->cache != nullptr && cache_live(*of) && of->deleg_write) {
    if (of->opts.consistency != Consistency::kAfterWrite) {
      // Write-back: buffer dirty, no server round trip — but the marshalling
      // copy into the cache is real client work and is charged as such.
      // Visibility is owed at close (after_close) or sync/unmount
      // (after_job); recall, lease expiry and budget pressure flush earlier.
      if (Actor* actor = Actor::current();
          actor != nullptr && fabric_ != nullptr) {
        actor->charge(CostKind::kCopy, fabric_->cost().copy_time(in.size()));
      }
      of->cache->put_dirty(off, in);
      if (of->attrs_valid) {
        of->attrs.size = std::max(of->attrs.size, off + in.size());
      }
      if (of->cache->over_budget()) {
        if (const PStatus st = flush_dirty(*of); st != PStatus::kOk) {
          return st;
        }
      }
      return in.size();
    }
    // after_write: write-through, but keep the cache coherent for reads.
    auto r = run(*of, std::span(&v, 1), true);
    if (!r.ok()) return r;
    renew_local(*of);
    check_recall(*of);
    if (of->deleg != 0) {
      of->cache->put_clean(off, in.subspan(0, r.value()));
      if (of->attrs_valid) {
        of->attrs.size = std::max(of->attrs.size, off + r.value());
      }
    }
    return r;
  }
  return run(*of, std::span(&v, 1), true);
}

Result<std::uint64_t> Client::read_batch(Fh fh, std::span<const IoVec> iovs) {
  OpenFile* of = lookup(fh);
  if (of == nullptr) return PStatus::kInval;
  return run(*of, iovs, false);
}

Result<std::uint64_t> Client::write_batch(Fh fh, std::span<const IoVec> iovs) {
  OpenFile* of = lookup(fh);
  if (of == nullptr) return PStatus::kInval;
  return run(*of, iovs, true);
}

// ---- asynchronous I/O ----

Result<OpId> Client::submit(Fh fh, IoVec v, bool writing) {
  OpenFile* of = lookup(fh);
  if (of == nullptr) return PStatus::kInval;
  Pending p;
  if (of->cache != nullptr) {
    // A cached open completes at submit through the cache, exactly as
    // pread/pwrite do, so async I/O never bypasses buffered or cached bytes.
    p.fh = fh;
    p.writing = writing;
    auto r = writing ? pwrite(fh, v.file_off, {v.buf, v.len})
                     : pread(fh, v.file_off, {v.buf, v.len});
    if (r.ok()) {
      p.bytes = r.value();
    } else {
      p.status = r.error();
    }
  } else {
    auto s = start(*of, std::span(&v, 1), writing);
    if (!s.ok()) return s.error();
    p = std::move(s.value());
  }
  p.in_flight = true;
  OpId id;
  if (!free_ops_.empty()) {
    id = free_ops_.back();
    free_ops_.pop_back();
    pending_[id] = std::move(p);
  } else {
    id = static_cast<OpId>(pending_.size());
    pending_.push_back(std::move(p));
  }
  return id;
}

Result<OpId> Client::submit_pread(Fh fh, std::uint64_t off,
                                  std::span<std::byte> out) {
  return submit(fh, IoVec{off, out.data(), out.size()}, false);
}

Result<OpId> Client::submit_pwrite(Fh fh, std::uint64_t off,
                                   std::span<const std::byte> in) {
  return submit(fh, IoVec{off, const_cast<std::byte*>(in.data()), in.size()},
                true);
}

PStatus Client::wait(OpId op, std::uint64_t* bytes) {
  if (op >= pending_.size() || !pending_[op].in_flight) return PStatus::kInval;
  Pending p = std::move(pending_[op]);
  pending_[op] = Pending{};
  free_ops_.push_back(op);
  return finish(p, bytes);
}

PStatus Client::wait_all(std::span<const OpId> ops) {
  PStatus worst = PStatus::kOk;
  for (const OpId op : ops) {
    if (const PStatus st = wait(op); st != PStatus::kOk) worst = st;
  }
  return worst;
}

// ---- locks & counters (filer 0) ----

PStatus Client::lock(Fh fh, std::uint64_t start, std::uint64_t len,
                     bool exclusive) {
  return meta().lock(fh, start, len, exclusive);
}

PStatus Client::try_lock(Fh fh, std::uint64_t start, std::uint64_t len,
                         bool exclusive) {
  return meta().try_lock(fh, start, len, exclusive);
}

PStatus Client::unlock(Fh fh, std::uint64_t start, std::uint64_t len) {
  return meta().unlock(fh, start, len);
}

Result<std::uint64_t> Client::fetch_add(std::string_view key,
                                        std::uint64_t delta) {
  return meta().fetch_add(key, delta);
}

PStatus Client::set_counter(std::string_view key, std::uint64_t value) {
  return meta().set_counter(key, value);
}

}  // namespace dafs
