#include "sim/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "sim/actor.hpp"
#include "sim/fabric.hpp"

namespace sim {

namespace {

/// Bound on buffered flight-recorder events (crashes, expiries, faults).
constexpr std::size_t kMaxEvents = 4096;

/// Process-global tracer generation counter (see Tracer::gen_).
std::atomic<std::uint64_t> g_tracer_gen{1};

Time now_or_zero() {
  Actor* a = Actor::current();
  return a != nullptr ? a->now() : 0;
}

/// The innermost open spans of this thread, innermost last. Owned by the
/// SpanScopes themselves; tracer-agnostic because a thread nests scopes of
/// at most one fabric at a time.
thread_local std::vector<SpanContext> t_context_stack;

/// Minimal JSON string escaping (names and layers are ASCII identifiers;
/// this guards the odd path or key with a quote or backslash).
void append_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

/// Render one attribute the way the trace JSON carries it.
void append_attr(std::string& out, const SpanAttr& a) {
  if (a.str == nullptr) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%llu", out.empty() ? "" : ",",
                  a.key, static_cast<unsigned long long>(a.num));
    out += buf;
    return;
  }
  if (!out.empty()) out += ',';
  out += '"';
  out += a.key;
  out += "\":\"";
  append_escaped(out, a.str);
  out += '"';
}

void append_span_json(std::string& out, const Span& s, std::size_t tid,
                      bool in_flight) {
  char buf[256];
  out += "{\"ph\":\"X\",\"name\":\"";
  append_escaped(out, s.name);
  out += "\",\"cat\":\"";
  out += s.layer;
  const double ts = static_cast<double>(s.t_start) / 1000.0;
  const double dur =
      in_flight || s.t_end < s.t_start
          ? 0.0
          : static_cast<double>(s.t_end - s.t_start) / 1000.0;
  std::snprintf(buf, sizeof(buf),
                "\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%zu,"
                "\"args\":{\"trace_id\":%llu,\"span_id\":%llu,"
                "\"parent_span_id\":%llu",
                ts, dur, tid, static_cast<unsigned long long>(s.trace_id),
                static_cast<unsigned long long>(s.span_id),
                static_cast<unsigned long long>(s.parent_span_id));
  out += buf;
  if (!s.attrs.empty()) {
    out += ',';
    out += s.attrs;
  }
  if (in_flight) out += ",\"in_flight\":1";
  out += "}}";
}

}  // namespace

/// One thread's bounded span ring plus its open-span table. The mutex is
/// effectively uncontended: only the owning thread records, other threads
/// touch it only during snapshots and dumps.
struct Tracer::Ring {
  mutable std::mutex mu;
  std::thread::id owner;
  std::size_t cap = 0;
  std::vector<Span> buf;  // circular once buf.size() == cap
  std::size_t next = 0;   // overwrite cursor once full

  // In-flight spans, stable slots (SpanScope holds an index).
  std::vector<Span> open;
  std::vector<bool> open_used;
};

Tracer::Tracer() : gen_(g_tracer_gen.fetch_add(1, std::memory_order_relaxed)) {}

Tracer::~Tracer() = default;

void Tracer::configure_from_env() {
  const char* path = std::getenv("DAFS_TRACE");
  if (path != nullptr && path[0] != '\0') {
    dump_path_ = path;
    set_enabled(true);
  }
}

void Tracer::set_dump_path(std::string path) { dump_path_ = std::move(path); }

Tracer::Ring& Tracer::ring_for_this_thread() {
  // One-entry thread-local cache; the generation check makes a stale entry
  // (a dead Tracer whose address was reused) miss instead of aliasing.
  struct Cache {
    const Tracer* key = nullptr;
    std::uint64_t gen = 0;
    Ring* ring = nullptr;
  };
  thread_local Cache cache;
  if (cache.key == this && cache.gen == gen_) return *cache.ring;

  const std::thread::id me = std::this_thread::get_id();
  std::lock_guard lock(rings_mu_);
  Ring* ring = nullptr;
  for (auto& r : rings_) {
    if (r->owner == me) {
      ring = r.get();
      break;
    }
  }
  if (ring == nullptr) {
    rings_.push_back(std::make_unique<Ring>());
    ring = rings_.back().get();
    ring->owner = me;
    ring->cap = ring_capacity_.load(std::memory_order_relaxed);
    ring->buf.reserve(std::min<std::size_t>(ring->cap, 1024));
  }
  cache = Cache{this, gen_, ring};
  return *ring;
}

void Tracer::record(Span s) {
  if (!enabled()) return;
  Ring& ring = ring_for_this_thread();
  {
    std::lock_guard lock(ring.mu);
    if (ring.buf.size() < ring.cap) {
      ring.buf.push_back(std::move(s));
    } else {
      ring.buf[ring.next] = std::move(s);
      ring.next = (ring.next + 1) % ring.cap;
      evicted_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  recorded_.fetch_add(1, std::memory_order_relaxed);
}

void Tracer::event(std::string name, Time t, std::string attrs) {
  if (!enabled()) return;
  std::lock_guard lock(events_mu_);
  if (events_.size() >= kMaxEvents) {
    events_.erase(events_.begin());  // keep newest
  }
  events_.push_back(TraceEvent{t, std::move(name), std::move(attrs)});
}

std::vector<Span> Tracer::snapshot() const {
  std::vector<Span> out;
  std::lock_guard lock(rings_mu_);
  for (const auto& r : rings_) {
    std::lock_guard rlock(r->mu);
    if (r->buf.size() < r->cap) {
      out.insert(out.end(), r->buf.begin(), r->buf.end());
    } else {
      // Oldest first: the overwrite cursor points at the oldest entry.
      out.insert(out.end(), r->buf.begin() + static_cast<std::ptrdiff_t>(r->next),
                 r->buf.end());
      out.insert(out.end(), r->buf.begin(),
                 r->buf.begin() + static_cast<std::ptrdiff_t>(r->next));
    }
  }
  return out;
}

std::vector<Span> Tracer::open_spans() const {
  std::vector<Span> out;
  std::lock_guard lock(rings_mu_);
  for (const auto& r : rings_) {
    std::lock_guard rlock(r->mu);
    for (std::size_t i = 0; i < r->open.size(); ++i) {
      if (r->open_used[i]) out.push_back(r->open[i]);
    }
  }
  return out;
}

std::vector<TraceEvent> Tracer::events() const {
  std::lock_guard lock(events_mu_);
  return events_;
}

void Tracer::reset() {
  {
    std::lock_guard lock(rings_mu_);
    for (auto& r : rings_) {
      std::lock_guard rlock(r->mu);
      r->buf.clear();
      r->next = 0;
      r->cap = ring_capacity_.load(std::memory_order_relaxed);
    }
  }
  {
    std::lock_guard lock(events_mu_);
    events_.clear();
  }
  recorded_.store(0, std::memory_order_relaxed);
  evicted_.store(0, std::memory_order_relaxed);
}

bool Tracer::dump_json(const std::string& path) const {
  std::string out;
  out.reserve(1 << 16);
  out += "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) out += ",\n";
    first = false;
  };
  {
    std::lock_guard lock(rings_mu_);
    for (std::size_t ri = 0; ri < rings_.size(); ++ri) {
      const Ring& r = *rings_[ri];
      std::lock_guard rlock(r.mu);
      auto emit = [&](const Span& s, bool in_flight) {
        sep();
        append_span_json(out, s, ri + 1, in_flight);
      };
      if (r.buf.size() < r.cap) {
        for (const Span& s : r.buf) emit(s, false);
      } else {
        for (std::size_t i = r.next; i < r.buf.size(); ++i) emit(r.buf[i], false);
        for (std::size_t i = 0; i < r.next; ++i) emit(r.buf[i], false);
      }
      for (std::size_t i = 0; i < r.open.size(); ++i) {
        if (r.open_used[i]) emit(r.open[i], true);
      }
    }
  }
  {
    std::lock_guard lock(events_mu_);
    for (const TraceEvent& e : events_) {
      sep();
      char buf[128];
      out += "{\"ph\":\"i\",\"name\":\"";
      append_escaped(out, e.name);
      std::snprintf(buf, sizeof(buf),
                    "\",\"ts\":%.3f,\"pid\":1,\"tid\":0,\"s\":\"g\"",
                    static_cast<double>(e.t) / 1000.0);
      out += buf;
      if (!e.attrs.empty()) {
        out += ",\"args\":{";
        out += e.attrs;
        out += '}';
      }
      out += '}';
    }
  }
  out += "]}\n";

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  std::fclose(f);
  return ok;
}

std::string Tracer::flight_dump(const char* reason) {
  if (!enabled()) return {};
  std::string path = dump_path_.empty() ? std::string("dafs_flight")
                                        : dump_path_;
  path += '.';
  path += reason;
  path += ".json";
  if (!dump_json(path)) return {};
  return path;
}

void Tracer::dump_final() {
  if (!enabled() || dump_path_.empty()) return;
  if (recorded_.load(std::memory_order_relaxed) == 0) return;
  (void)dump_json(dump_path_);
}

// ---------------------------------------------------------------------------
// SpanScope
// ---------------------------------------------------------------------------

SpanScope::SpanScope(Tracer& t, const char* layer, const char* name,
                     bool make_root) {
  if (!t.enabled()) return;
  if (make_root) {
    open(t, layer, name, t.new_id(), 0);
    return;
  }
  const SpanContext parent = Tracer::current();
  if (!parent.active()) return;  // no trace in progress: stay inert
  open(t, layer, name, parent.trace_id, parent.span_id);
}

SpanScope::SpanScope(Tracer& t, const char* layer, const char* name,
                     std::uint64_t trace_id, std::uint64_t parent_span_id) {
  if (!t.enabled() || trace_id == 0) return;
  open(t, layer, name, trace_id, parent_span_id);
}

void SpanScope::open(Tracer& t, const char* layer, const char* name,
                     std::uint64_t trace_id, std::uint64_t parent_span_id) {
  tracer_ = &t;
  active_ = true;
  span_.trace_id = trace_id;
  span_.parent_span_id = parent_span_id;
  span_.span_id = t.new_id();
  span_.layer = layer;
  span_.name = name;
  span_.t_start = now_or_zero();
  t_context_stack.push_back(SpanContext{span_.trace_id, span_.span_id});
  // Register as in-flight so a crash dump can show orphaned work.
  ring_ = &t.ring_for_this_thread();
  std::lock_guard lock(ring_->mu);
  for (std::size_t i = 0; i < ring_->open.size(); ++i) {
    if (!ring_->open_used[i]) {
      open_slot_ = i;
      ring_->open[i] = span_;
      ring_->open_used[i] = true;
      return;
    }
  }
  open_slot_ = ring_->open.size();
  ring_->open.push_back(span_);
  ring_->open_used.push_back(true);
}

SpanScope::~SpanScope() {
  if (!active_) return;
  span_.t_end = now_or_zero();
  if (!t_context_stack.empty()) t_context_stack.pop_back();
  {
    std::lock_guard lock(ring_->mu);
    ring_->open_used[open_slot_] = false;
    ring_->open[open_slot_] = Span{};
  }
  tracer_->record(std::move(span_));
}

SpanContext Tracer::current() {
  if (t_context_stack.empty()) return SpanContext{};
  return t_context_stack.back();
}

void SpanScope::attr(const char* key, std::uint64_t v) {
  if (active_) append_attr(span_.attrs, {key, v});
}

void SpanScope::attr(const char* key, const char* v) {
  if (active_) append_attr(span_.attrs, {key, v});
}

void record_span(Fabric& fabric, const char* layer, SpanName name,
                 Time t_start, Time t_end, SpanParent parent,
                 std::initializer_list<SpanAttr> attrs, std::string_view hist) {
  if (!hist.empty()) {
    fabric.histograms().record(hist, t_end > t_start ? t_end - t_start : 0);
  }
  Tracer& tracer = fabric.trace();
  if (!tracer.enabled()) return;
  SpanContext up{parent.trace_id, parent.parent_span_id};
  if (parent.kind == SpanParent::Kind::kInherit) up = Tracer::current();
  if (parent.kind == SpanParent::Kind::kRoot) up = {tracer.new_id(), 0};
  if (!up.active()) return;  // no trace to join
  Span s;
  s.trace_id = up.trace_id;
  s.parent_span_id = up.span_id;
  s.span_id = parent.span_id != 0 ? parent.span_id : tracer.new_id();
  s.t_start = t_start;
  s.t_end = t_end;
  s.layer = layer;
  s.name = name.head;
  s.name += name.tail;
  for (const SpanAttr& a : attrs) append_attr(s.attrs, a);
  tracer.record(std::move(s));
}

}  // namespace sim
