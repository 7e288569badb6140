#pragma once

#include <string_view>

namespace sim {

/// The metric-key naming convention, enforced (debug builds assert) at every
/// registration point — `Stats::add`, `HistogramRegistry::get/record`,
/// `MetricsRegistry::register_gauge` — so the namespace stays greppable as
/// it grows:
///
///   - dotted: at least one '.', separating "<layer>.<name>[.<detail>...]"
///     (e.g. "dafs.busy_shed", "dafs.rtt_ns.read_inline",
///     "dafs.deleg.recall_ns")
///   - lowercase: only [a-z0-9_] between the dots; no empty components
///
/// Latency keys end in `_ns` (virtual nanoseconds) and size keys in
/// `_bytes`; that half of the convention is documentation, not enforcement.
constexpr bool valid_metric_key(std::string_view key) {
  if (key.empty() || key.front() == '.' || key.back() == '.') return false;
  bool dotted = false;
  char prev = '.';
  for (const char c : key) {
    if (c == '.') {
      if (prev == '.') return false;  // empty component
      dotted = true;
    } else if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                 c == '_')) {
      return false;
    }
    prev = c;
  }
  return dotted;
}

}  // namespace sim
