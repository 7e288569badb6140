#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hpp"

/// \file trace.hpp
/// Causal, cross-layer request tracing with crash-safe flight recording.
///
/// Every MPI-IO operation opens a *root span*; each layer underneath (DAFS
/// client, wire, server admission/journal/service/reply, VIA transfers,
/// fstore) opens child spans that carry the root's `trace_id` and their
/// parent's `span_id`, so one collective write can be followed end to end.
/// The ids cross the wire in `dafs::MsgHeader`, which is how server-side
/// spans parent correctly under a different thread on a different node —
/// including across session reclaim/retransmit, where the retried attempt
/// keeps the original ids and therefore links to the original root.
///
/// Spans land in per-thread bounded ring buffers (the flight recorder):
/// recording is a push onto a thread-private ring under an uncontended
/// per-ring mutex, cheap enough to leave on. The newest spans survive,
/// oldest are evicted. On a crash, an expired deadline, or a failed
/// chaos assertion the recorder dumps everything it holds — closed spans,
/// still-open (orphaned) spans, and fault events — as Chrome-trace-event
/// JSON loadable in Perfetto (https://ui.perfetto.dev) or chrome://tracing.
///
/// Control: the `DAFS_TRACE=<path>` environment variable enables tracing
/// and names the final dump file (written when the Fabric dies); tests and
/// tools use `set_enabled()`/`set_dump_path()` directly. The MPI-IO hint
/// `dafs_trace_sample` gates root-span creation per file (0 = off).
namespace sim {

/// One completed (or, in a flight dump, still-open) span. Times are virtual
/// nanoseconds from the recording actor's clock.
struct Span {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_span_id = 0;
  Time t_start = 0;
  Time t_end = 0;
  const char* layer = "";  // "mpiio", "dafs.client", "dafs.server", "via", "fstore"
  std::string name;
  /// Pre-rendered JSON fragment of extra attributes ("\"size\":4096,...");
  /// empty for none. Kept as a flat string so recording never walks a map.
  std::string attrs;
};

/// A point event in the flight recorder (server crash, expired deadline,
/// injected fault) — rendered as a Perfetto instant event.
struct TraceEvent {
  Time t = 0;
  std::string name;
  std::string attrs;
};

/// The identifiers a child span needs from its parent. `trace_id == 0`
/// means "no active trace": children become no-ops.
struct SpanContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  bool active() const { return trace_id != 0; }
};

/// Per-fabric tracing hub: id allocation, the per-thread span rings, the
/// event ring, and the JSON dumper. Lives on the Fabric next to Stats and
/// the HistogramRegistry.
class Tracer {
 public:
  Tracer();
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Fast gate every recording site checks first.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  /// Read DAFS_TRACE from the environment: non-empty value enables tracing
  /// and becomes the dump path. Called by the Fabric constructor.
  void configure_from_env();

  /// Dump file for `dump_final()`; reason-suffixed variants derive from it.
  void set_dump_path(std::string path);
  const std::string& dump_path() const { return dump_path_; }

  /// Ring capacity (spans kept per thread). Applies to rings created after
  /// the call; tests shrink it to exercise eviction.
  void set_ring_capacity(std::size_t n) {
    ring_capacity_.store(n == 0 ? 1 : n, std::memory_order_relaxed);
  }

  /// Fresh non-zero id (process-unique; shared by trace and span ids).
  std::uint64_t new_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  // ---- thread-local span context -------------------------------------------
  /// The innermost open span on this thread (inactive context if none).
  static SpanContext current();

  /// Record a completed span (SpanScope's close and `record_span` land
  /// here).
  void record(Span s);

  /// Record a flight-recorder event (crash, deadline expiry, fault).
  void event(std::string name, Time t, std::string attrs = {});

  /// Everything the rings currently hold: closed spans from every thread's
  /// ring, oldest first within a ring. In-flight spans are excluded (see
  /// `open_spans`).
  std::vector<Span> snapshot() const;
  /// Spans opened but not yet closed (orphaned in-flight work at dump time).
  /// Their `t_end` is 0.
  std::vector<Span> open_spans() const;
  std::vector<TraceEvent> events() const;

  /// Spans ever recorded (not capped by ring eviction) — the cheap overhead
  /// check: with sampling off this must not move.
  std::uint64_t spans_recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }
  std::uint64_t spans_evicted() const {
    return evicted_.load(std::memory_order_relaxed);
  }

  /// Drop all recorded spans and events (rings stay allocated).
  void reset();

  /// Write a Chrome-trace-event JSON file with every closed span, open span
  /// and event currently held. Returns false on I/O failure.
  bool dump_json(const std::string& path) const;

  /// Flight-recorder dump triggered by `reason` ("crash", "deadline",
  /// "assert"). Writes to `<dump_path>.<reason>.json` (or
  /// `dafs_flight.<reason>.json` when no dump path is set), overwriting —
  /// repeated triggers rewrite one bounded file. Returns the path written,
  /// or empty on failure/disabled.
  std::string flight_dump(const char* reason);

  /// Final dump to the configured DAFS_TRACE path; no-op when disabled, no
  /// path is set, or nothing was recorded (so a fabric that traced nothing
  /// cannot clobber an earlier fabric's dump).
  void dump_final();

 private:
  struct Ring;
  friend class SpanScope;

  Ring& ring_for_this_thread();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::size_t> ring_capacity_{4096};
  std::atomic<std::uint64_t> recorded_{0};
  std::atomic<std::uint64_t> evicted_{0};
  /// Process-unique generation, so a thread's cached ring pointer can never
  /// alias a different Tracer reusing this object's address.
  std::uint64_t gen_;

  mutable std::mutex rings_mu_;
  std::vector<std::unique_ptr<Ring>> rings_;

  mutable std::mutex events_mu_;
  std::vector<TraceEvent> events_;

  std::string dump_path_;
};

/// Where a span recorded by `record_span` hangs in its trace.
struct SpanParent {
  enum class Kind : std::uint8_t { kRoot, kInherit, kIds };
  Kind kind = Kind::kRoot;
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span_id = 0;
  std::uint64_t span_id = 0;

  /// The first span of a trace of its own.
  static SpanParent root() { return {}; }
  /// Child of the span open on this thread; no span when there is none.
  static SpanParent inherit() { return {Kind::kInherit}; }
  /// Explicit ids, as carried on the wire or allocated when the work began;
  /// `span_id` 0 draws a fresh one. No span when `trace_id` is 0.
  static SpanParent ids(std::uint64_t trace_id, std::uint64_t parent_span_id,
                        std::uint64_t span_id = 0) {
    return {Kind::kIds, trace_id, parent_span_id, span_id};
  }
};

/// One attribute of a recorded span: an unsigned number or a string.
struct SpanAttr {
  SpanAttr(const char* k, std::uint64_t v) : key(k), num(v) {}
  SpanAttr(const char* k, const char* v) : key(k), str(v) {}
  const char* key;
  std::uint64_t num = 0;
  const char* str = nullptr;  // set for a string attribute
};

/// A span name in up to two pieces (say "request." and a procedure), joined
/// only when the span is recorded.
struct SpanName {
  SpanName(const char* n) : head(n) {}  // implicit: a plain name converts
  SpanName(const char* h, const char* t) : head(h), tail(t) {}
  const char* head;
  const char* tail = "";
};

class Fabric;

/// The one call that records a span built by hand, for work whose ends are
/// separate calls or that closes under another request: `name` in `layer`,
/// from `t_start` to `t_end`, under `parent`, with `attrs`. It records
/// `t_end - t_start` into the histogram `hist` (none when empty) every time,
/// and the span only when tracing is on and `parent` resolves to a trace, so
/// the two cannot disagree. With tracing off nothing is formatted: the name
/// and the attributes are rendered only for a span that is recorded.
void record_span(Fabric& fabric, const char* layer, SpanName name,
                 Time t_start, Time t_end, SpanParent parent,
                 std::initializer_list<SpanAttr> attrs = {},
                 std::string_view hist = {});

/// RAII span: opens on construction (child of the thread's current span, or
/// an explicit wire parent), pushes itself as the thread's current context,
/// records on destruction. Inert — no allocation, no locking — when the
/// tracer is disabled or, for the child form, when there is no active trace.
class SpanScope {
 public:
  /// Child of the span currently open on this thread; inert when there is
  /// none (so helper-layer spans never start stray traces). `make_root`
  /// instead opens a fresh trace unconditionally.
  SpanScope(Tracer& t, const char* layer, const char* name,
            bool make_root = false);
  /// Child of an explicit remote parent (ids from the wire header). Inert
  /// when `trace_id` is 0.
  SpanScope(Tracer& t, const char* layer, const char* name,
            std::uint64_t trace_id, std::uint64_t parent_span_id);
  ~SpanScope();

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  bool active() const { return active_; }
  std::uint64_t trace_id() const { return span_.trace_id; }
  std::uint64_t span_id() const { return span_.span_id; }

  /// Append an attribute (rendered into the span's JSON args).
  void attr(const char* key, std::uint64_t v);
  void attr(const char* key, const char* v);

 private:
  void open(Tracer& t, const char* layer, const char* name,
            std::uint64_t trace_id, std::uint64_t parent_span_id);

  Tracer* tracer_ = nullptr;
  bool active_ = false;
  Span span_;
  /// Slot index of this span in its ring's open-span table.
  std::size_t open_slot_ = 0;
  Tracer::Ring* ring_ = nullptr;
};

}  // namespace sim
