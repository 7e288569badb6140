// dafs_bench: runs one workload of the end-to-end benchmark in this process
// and prints its measurements as one JSON line (the last line of stdout).
// benchmark/run.py builds and drives it; see README.md.
//
//   dafs_bench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//              [--scale F] [--no-decorator] [--out-dir D]
//
// Untraced (--trace 0): trials repeat until --seconds of host time is spent;
// the end-to-end metrics reduce every trial. Traced (--trace 1): pairs of an
// untraced and a traced trial with the same inputs (a tenth of the op count
// on small_rw and mdtest); the per-layer metrics come from the traced ones,
// whose spans are dumped to --out-dir for layer_budget.py.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "benchmark/harness.hpp"
#include "dafs/mount.hpp"
#include "dafs/server.hpp"
#include "fstore/file_store.hpp"
#include "mpi/runtime.hpp"
#include "sim/cost_model.hpp"

namespace {

using bench::operator+=;
using bench::TrialResult;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double scale = 1.0;
  bool decorator = true;
  std::string out_dir = ".";
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "dafs_bench: %s\nusage: dafs_bench --workload <ior_stream|"
               "strided_coll|small_rw|mdtest> [--seed N] [--seconds S] "
               "[--trace 0|1] [--scale F] [--no-decorator] [--out-dir D]\n",
               msg);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + k).c_str());
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = val();
    } else if (k == "--seed") {
      a.seed = std::strtoull(val().c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(val().c_str());
    } else if (k == "--trace") {
      a.trace = val() != "0";
    } else if (k == "--scale") {
      a.scale = std::atof(val().c_str());
    } else if (k == "--no-decorator") {
      a.decorator = false;
    } else if (k == "--out-dir") {
      a.out_dir = val();
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (!bench::known_workload(a.workload)) usage("unknown or missing --workload");
  if (a.seconds <= 0 || a.scale <= 0) usage("--seconds and --scale must be > 0");
  return a;
}

// ---------------------------------------------------------------------------
// Calibration fingerprint: every cost-model default plus the library defaults
// the workloads rely on. A recalibration changes modeled time without any
// code getting faster, so run.py refuses to compare across fingerprints.
// ---------------------------------------------------------------------------

std::string calibration_text() {
  const sim::CostModel cm;
  const dafs::ServerConfig sc;
  const dafs::ClientConfig cc;
  const fstore::Options fo;
  const mpi::WorldConfig wc;
  char b[2048];
  std::snprintf(
      b, sizeof(b),
      "cost.link_mbps=%g cost.propagation=%llu cost.mtu=%u cost.per_packet=%llu "
      "cost.doorbell=%llu cost.completion=%llu cost.dma_setup=%llu "
      "cost.recv_descriptor=%llu cost.connect_setup=%llu cost.reg_base=%llu "
      "cost.reg_per_page=%llu cost.page_size=%u cost.dereg_base=%llu "
      "cost.memcpy_mbps=%g cost.syscall=%llu cost.interrupt=%llu "
      "cost.tcp_mss=%u cost.tcp_per_segment=%llu cost.tcp_header_bytes=%u "
      "cost.interrupt_coalesce=%u cost.request_dispatch=%llu cost.fs_op=%llu "
      "cost.client_op=%llu server.workers=%d server.recv_credits=%zu "
      "server.msg_buf_size=%zu server.admission_max_queue=%zu "
      "server.journal=%d client.credits=%zu client.direct_threshold=%zu "
      "client.reg_cache=%d client.reg_cache_entries=%zu "
      "client.max_rdma_seg=%zu client.msg_buf_size=%zu "
      "fstore.chunk_size=%zu fstore.disk_enabled=%d fstore.memcpy_mbps=%g "
      "fstore.crc_mbps=%g mpi.eager_threshold=%zu mpi.credits=%zu "
      "mpi.reg_cache_entries=%zu",
      cm.link_mbps, static_cast<unsigned long long>(cm.propagation), cm.mtu,
      static_cast<unsigned long long>(cm.per_packet),
      static_cast<unsigned long long>(cm.doorbell),
      static_cast<unsigned long long>(cm.completion),
      static_cast<unsigned long long>(cm.dma_setup),
      static_cast<unsigned long long>(cm.recv_descriptor),
      static_cast<unsigned long long>(cm.connect_setup),
      static_cast<unsigned long long>(cm.reg_base),
      static_cast<unsigned long long>(cm.reg_per_page), cm.page_size,
      static_cast<unsigned long long>(cm.dereg_base), cm.memcpy_mbps,
      static_cast<unsigned long long>(cm.syscall),
      static_cast<unsigned long long>(cm.interrupt), cm.tcp_mss,
      static_cast<unsigned long long>(cm.tcp_per_segment), cm.tcp_header_bytes,
      cm.interrupt_coalesce, static_cast<unsigned long long>(cm.request_dispatch),
      static_cast<unsigned long long>(cm.fs_op),
      static_cast<unsigned long long>(cm.client_op), sc.workers, sc.recv_credits,
      sc.msg_buf_size, sc.admission_max_queue, sc.journal ? 1 : 0, cc.credits,
      cc.direct_threshold, cc.reg_cache ? 1 : 0, cc.reg_cache_entries,
      cc.max_rdma_seg, cc.msg_buf_size, fo.chunk_size, fo.disk_enabled ? 1 : 0,
      fo.memcpy_mbps, fo.crc_mbps, wc.eager_threshold, wc.credits,
      wc.reg_cache_entries);
  return b;
}

std::string fingerprint(const std::string& text) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a 64
  for (const unsigned char ch : text) {
    h ^= ch;
    h *= 1099511628211ULL;
  }
  char b[32];
  std::snprintf(b, sizeof(b), "%016llx", static_cast<unsigned long long>(h));
  return b;
}

// ---------------------------------------------------------------------------
// Reduction
// ---------------------------------------------------------------------------

/// Linear interpolation between order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double h = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(h));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (h - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Mid-distribution quantile (Parzen) of latency samples. Modeled latencies
/// take few distinct values, so a plain sample quantile sits on the same one
/// run after run and hides any shift in how often it occurs; interpolating
/// the mid-CDF, F(x-) + P(x)/2, between distinct values keeps the estimate
/// sensitive to that split.
double mid_quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  double prev_x = v.front(), prev_m = -1.0;
  for (std::size_t i = 0; i < v.size();) {
    std::size_t j = i;
    while (j < v.size() && v[j] == v[i]) ++j;
    const double m = (static_cast<double>(i) + static_cast<double>(j - i) / 2.0) / n;
    if (q <= m) {
      if (prev_m < 0) return v[i];
      return prev_x + (q - prev_m) / (m - prev_m) * (v[i] - prev_x);
    }
    prev_x = v[i];
    prev_m = m;
    i = j;
  }
  return prev_x;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double usec(double ns) { return ns / 1000.0; }

double secs(sim::Time ns) { return static_cast<double>(ns) / 1e9; }

struct Metric {
  std::string name;
  double value;
  const char* unit;
  std::uint64_t samples;
};

/// The end-to-end metrics over a set of trials: latency percentiles pool
/// every call of every trial, everything else is the median over trials.
std::vector<Metric> end_to_end(const std::vector<TrialResult>& ts) {
  std::vector<double> w_rate, r_rate, rate, cpu, host, setup;
  std::vector<double> wlat, rlat;
  for (const TrialResult& t : ts) {
    w_rate.push_back(ratio(static_cast<double>(t.write.ops), secs(t.write.elapsed)));
    r_rate.push_back(ratio(static_cast<double>(t.read.ops), secs(t.read.elapsed)));
    rate.push_back(ratio(static_cast<double>(t.ops), secs(t.elapsed)));
    cpu.push_back(100.0 * ratio(static_cast<double>(t.client_busy.total()),
                                static_cast<double>(t.rank_time)));
    host.push_back(ratio(t.timed_host_s * 1e6, static_cast<double>(t.ops)));
    setup.push_back(t.setup_host_s);
    for (sim::Time l : t.write.lat) wlat.push_back(usec(static_cast<double>(l)));
    for (sim::Time l : t.read.lat) rlat.push_back(usec(static_cast<double>(l)));
  }
  const auto n = static_cast<std::uint64_t>(ts.size());
  return {
      {"write_ops_per_s", median(w_rate), "1/s", n},
      {"read_ops_per_s", median(r_rate), "1/s", n},
      {"ops_per_s", median(rate), "1/s", n},
      {"write_p50_us", mid_quantile(wlat, 0.50), "us", wlat.size()},
      {"write_p99_us", mid_quantile(wlat, 0.99), "us", wlat.size()},
      {"read_p50_us", mid_quantile(rlat, 0.50), "us", rlat.size()},
      {"read_p99_us", mid_quantile(rlat, 0.99), "us", rlat.size()},
      {"client_cpu_pct", median(cpu), "%", n},
      {"setup_s", median(setup), "s", n},
      {"host_us_per_op", median(host), "us", n},
  };
}

/// Sum of several traced trials' layer inputs.
struct LayerSum {
  bench::CallTable calls;
  std::map<std::string, std::uint64_t> stats, store;
  std::map<std::string, sim::Histogram::Snapshot> hists;
  bench::ServerTotals server;
  sim::BusyBreakdown server_busy, client_busy;
  std::uint64_t journal = 0, pending = 0;
  std::uint64_t ops = 0, file_calls = 0, wbytes = 0, rbytes = 0;
  sim::Time file_time = 0, server_capacity = 0, setup_model = 0;
  std::uint64_t spans = 0;
  double link_util = 0.0;  // mean over trials

  std::uint64_t stat(const char* k) const {
    auto it = stats.find(k);
    return it == stats.end() ? 0 : it->second;
  }
  std::uint64_t store_stat(const char* k) const {
    auto it = store.find(k);
    return it == store.end() ? 0 : it->second;
  }
  const sim::Histogram::Snapshot& hist(const std::string& k) const {
    static const sim::Histogram::Snapshot kEmpty;
    auto it = hists.find(k);
    return it == hists.end() ? kEmpty : it->second;
  }
};

LayerSum sum_layers(const std::vector<TrialResult>& ts) {
  LayerSum s;
  for (const TrialResult& t : ts) {
    for (std::size_t m = 0; m < bench::kMethods; ++m) s.calls[m].merge(t.calls[m]);
    for (const auto& [k, v] : t.layers.stats) s.stats[k] += v;
    for (const auto& [k, v] : t.layers.store_stats) s.store[k] += v;
    for (const auto& [k, h] : t.layers.hists) bench::merge_into(s.hists[k], h);
    const bench::ServerTotals& v = t.layers.server;
    s.server.ops += v.ops;
    s.server.queue_wait_ns += v.queue_wait_ns;
    s.server.service_ns += v.service_ns;
    s.server.sheds += v.sheds;
    s.server_busy += t.layers.server_busy;
    s.client_busy += t.client_busy;
    s.journal += t.layers.journal_bytes;
    s.pending = std::max(s.pending, t.layers.journal_pending_bytes);
    s.ops += t.ops;
    s.file_calls += t.file_calls;
    s.file_time += t.file_time;
    s.wbytes += t.write.bytes;
    s.rbytes += t.read.bytes;
    s.server_capacity += t.elapsed * static_cast<sim::Time>(t.layers.server_workers);
    s.setup_model = std::max(s.setup_model, t.setup_model);
    s.spans += t.spans_recorded;
    s.link_util += t.link_util / static_cast<double>(ts.size());
  }
  return s;
}

/// Per-layer metrics, all measured from outside the library: the
/// decorator's and the benchmark's own timings, the public counters and
/// histograms, and the filers' attribution tables and worker CPU.
std::vector<Metric> per_layer(const std::vector<TrialResult>& traced) {
  const LayerSum s = sum_layers(traced);
  std::vector<Metric> out;
  const double ops = static_cast<double>(s.ops);
  const double fcalls = static_cast<double>(s.file_calls);
  auto add = [&](std::string name, double v, const char* unit) {
    out.push_back({std::move(name), v, unit, s.ops});
  };
  auto hist_us = [&](const std::string& key, double q) {
    const auto& h = s.hist(key);
    return q < 0 ? usec(h.mean()) : usec(static_cast<double>(h.quantile(q)));
  };

  // mpiio: File-call time the driver calls underneath do not account for.
  sim::Time driver_time = 0;
  std::uint64_t driver_calls = 0;
  for (const bench::CallStats& c : s.calls) {
    driver_time += c.busy;
    driver_calls += c.calls;
  }
  const bool have_file = s.file_calls > 0;
  add("mpiio.self_us_per_call",
      have_file ? usec(ratio(static_cast<double>(s.file_time - std::min(s.file_time, driver_time)), fcalls)) : 0.0,
      "us");
  add("mpiio.driver_calls_per_call", have_file ? ratio(static_cast<double>(driver_calls), fcalls) : 0.0,
      "count");
  for (const char* phase : {"meta", "exchange", "disk"}) {
    const std::string key = std::string("mpiio.twophase_") + phase + "_ns";
    add(std::string("mpiio.twophase_") + phase + "_us", hist_us(key, -1), "us");
    add(std::string("mpiio.twophase_") + phase + "_p99_us", hist_us(key, 0.99), "us");
  }
  add("mpiio.twophase_ops_per_call",
      ratio(static_cast<double>(s.stat("mpiio.twophase_writes") + s.stat("mpiio.twophase_reads")), fcalls),
      "count");
  add("mpiio.sieved_ops_per_call",
      ratio(static_cast<double>(s.stat("mpiio.sieved_writes") + s.stat("mpiio.sieved_reads")), fcalls),
      "count");

  // mpi: point-to-point traffic under the collectives.
  const double msgs = static_cast<double>(s.stat("mpi.eager_msgs") + s.stat("mpi.rndv_msgs"));
  add("mpi.msgs_per_call", ratio(msgs, ops), "count");
  add("mpi.bytes_per_call",
      ratio(static_cast<double>(s.stat("mpi.eager_bytes") + s.stat("mpi.rndv_bytes")), ops), "B");
  add("mpi.rndv_share", ratio(static_cast<double>(s.stat("mpi.rndv_msgs")), msgs), "ratio");

  // dafs.client: the entry points, timed from outside.
  for (std::size_t m = 0; m + 1 < bench::kMethods; ++m) {
    const bench::CallStats& c = s.calls[m];
    const std::string p = std::string("dafs.client.") + bench::to_string(static_cast<bench::Method>(m));
    std::vector<double> d(c.samples.begin(), c.samples.end());
    add(p + ".calls", static_cast<double>(c.calls), "count");
    add(p + ".busy_us", usec(static_cast<double>(c.busy)), "us");
    add(p + ".p50_us", usec(mid_quantile(d, 0.50)), "us");
    add(p + ".p99_us", usec(mid_quantile(d, 0.99)), "us");
    add(p + ".failed", static_cast<double>(c.failed), "count");
  }
  for (const char* proc : {"read_inline", "write_inline", "read_direct", "write_direct",
                           "open", "getattr", "remove"}) {
    const std::string key = std::string("dafs.rtt_ns.") + proc;
    add(std::string("dafs.client.rtt_p50_us.") + proc, hist_us(key, 0.50), "us");
    add(std::string("dafs.client.rtt_p99_us.") + proc, hist_us(key, 0.99), "us");
  }
  add("dafs.client.cpu_us_per_op.protocol",
      usec(ratio(static_cast<double>(s.client_busy[sim::CostKind::kProtocol]), ops)), "us");
  add("dafs.client.cpu_us_per_op.copy",
      usec(ratio(static_cast<double>(s.client_busy[sim::CostKind::kCopy]), ops)), "us");
  add("dafs.client.cpu_us_per_op.registration",
      usec(ratio(static_cast<double>(s.client_busy[sim::CostKind::kRegistration]), ops)), "us");
  const double user_bytes = static_cast<double>(s.wbytes + s.rbytes);
  add("dafs.client.copy_bytes_per_byte",
      ratio(static_cast<double>(s.stat("dafs.client_copy_bytes")), user_bytes), "ratio");
  const double direct = static_cast<double>(s.stat("dafs.direct_read_bytes") +
                                            s.stat("dafs.direct_write_bytes"));
  const double inline_b = static_cast<double>(s.stat("dafs.inline_read_bytes") +
                                              s.stat("dafs.inline_write_bytes"));
  add("dafs.client.direct_share", ratio(direct, direct + inline_b), "ratio");
  const double retries = static_cast<double>(s.stat("dafs.busy_retries") +
                                             s.stat("dafs.corrupt_retries") +
                                             s.stat("dafs.retransmits"));
  const double requests = static_cast<double>(s.stat("dafs.requests"));
  add("dafs.client.retries", retries, "count");
  add("dafs.client.useful_ratio", ratio(requests, requests + retries), "ratio");

  // dafs.server: queueing and service per request, worker CPU per call.
  const double reqs = static_cast<double>(s.server.ops);
  add("dafs.server.queue_wait_us_per_req", usec(ratio(static_cast<double>(s.server.queue_wait_ns), reqs)), "us");
  add("dafs.server.service_us_per_req", usec(ratio(static_cast<double>(s.server.service_ns), reqs)), "us");
  add("dafs.server.service_p50_us", hist_us("dafs.server_service_ns", 0.50), "us");
  add("dafs.server.service_p99_us", hist_us("dafs.server_service_ns", 0.99), "us");
  add("dafs.server.busy_frac",
      ratio(static_cast<double>(s.server_busy.total()), static_cast<double>(s.server_capacity)), "ratio");
  for (const auto kind : {sim::CostKind::kDispatch, sim::CostKind::kCopy,
                          sim::CostKind::kProtocol, sim::CostKind::kRegistration}) {
    add(std::string("dafs.server.cpu_us_per_op.") + sim::to_string(kind),
        usec(ratio(static_cast<double>(s.server_busy[kind]), ops)), "us");
  }
  add("dafs.server.requests_per_call", ratio(reqs, ops), "count");
  add("dafs.server.sheds", static_cast<double>(s.server.sheds), "count");

  // fstore: bytes the store writes and reads per byte the user moved.
  const double wbytes = static_cast<double>(s.wbytes);
  const double landed = static_cast<double>(s.store_stat("fstore.pwrite_bytes") +
                                            s.stat("dafs.direct_write_bytes"));
  const double fetched = static_cast<double>(s.store_stat("fstore.pread_bytes") +
                                             s.stat("dafs.direct_read_bytes"));
  add("fstore.write_amp", ratio(landed + static_cast<double>(s.journal), wbytes), "ratio");
  add("fstore.journal_bytes_per_user_byte", ratio(static_cast<double>(s.journal), wbytes), "ratio");
  add("fstore.journal_bytes_per_op", ratio(static_cast<double>(s.journal), ops), "B");
  add("fstore.read_amp", ratio(fetched, static_cast<double>(s.rbytes)), "ratio");
  add("fstore.journal_pending_bytes", static_cast<double>(s.pending), "B");

  // via: descriptor latencies, work per call, and the filer links' load.
  for (const auto& [name, key] :
       std::vector<std::pair<const char*, const char*>>{
           {"doorbell_to_reap", "via.doorbell_to_reap_ns"},
           {"send", "via.send_latency_ns"},
           {"rdma_write", "via.rdma_write_latency_ns"},
           {"rdma_read", "via.rdma_read_latency_ns"}}) {
    add(std::string("via.") + name + "_p50_us", hist_us(key, 0.50), "us");
    add(std::string("via.") + name + "_p99_us", hist_us(key, 0.99), "us");
  }
  add("via.sends_per_call", ratio(static_cast<double>(s.stat("via.sends")), ops), "count");
  add("via.rdma_ops_per_call",
      ratio(static_cast<double>(s.stat("via.rdma_writes") + s.stat("via.rdma_reads")), ops), "count");
  add("via.registrations_per_call", ratio(static_cast<double>(s.stat("via.registrations")), ops), "count");
  add("via.link_util", s.link_util, "ratio");

  add("sim.setup_model_ms", static_cast<double>(s.setup_model) / 1e6, "ms");
  add("sim.spans_per_op", ratio(static_cast<double>(s.spans), ops), "count");
  return out;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      o += ' ';
      continue;
    }
    o += c;
  }
  return o + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char b[64];
  std::snprintf(b, sizeof(b), "%.17g", v);
  return b;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string o = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) o += ",";
    o += json_str(ms[i].name) + ":{\"value\":" + json_num(ms[i].value) +
         ",\"unit\":" + json_str(ms[i].unit) +
         ",\"samples\":" + std::to_string(ms[i].samples) + "}";
  }
  return o + "}";
}

double host_s_per_op(const std::vector<TrialResult>& ts) {
  double host = 0.0, ops = 0.0;
  for (const TrialResult& t : ts) {
    host += t.timed_host_s;
    ops += static_cast<double>(t.ops);
  }
  return ratio(host, ops);
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const std::string cal = calibration_text();
  const auto start = Clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };

  std::vector<TrialResult> untraced, traced;
  std::vector<std::string> dumps;
  const double scale =
      args.scale * (args.trace ? bench::trace_scale(args.workload) : 1.0);
  // Traced pairs are capped: a few dumps already cover thousands of calls.
  const int cap = args.trace ? 4 : 1 << 20;
  for (int k = 0; k < cap; ++k) {
    if (k > 0 && elapsed() * (k + 1) / k > args.seconds) break;
    bench::TrialSpec spec;
    spec.seed = bench::mix((args.seed << 16) ^ static_cast<std::uint64_t>(k));
    spec.scale = scale;
    spec.decorator = args.decorator;
    untraced.push_back(bench::run_trial(args.workload, spec));
    if (args.trace) {
      spec.traced = true;
      spec.dump_path = args.out_dir + "/" + args.workload + ".trace." +
                       std::to_string(k) + ".json";
      traced.push_back(bench::run_trial(args.workload, spec));
      dumps.push_back(spec.dump_path);
    }
    const TrialResult& t = args.trace ? traced.back() : untraced.back();
    std::fprintf(stderr,
                 "trial %d: %llu ops, %.1f modeled ms, setup %.3f s, timed %.3f "
                 "host s%s\n",
                 k, static_cast<unsigned long long>(t.ops),
                 static_cast<double>(t.elapsed) / 1e6, t.setup_host_s,
                 t.timed_host_s, t.verify_error.empty() ? "" : " VERIFY FAILED");
  }

  std::uint64_t attempted = 0, failed = 0, evicted = 0;
  std::string verify_error;
  for (const auto* set : {&untraced, &traced}) {
    for (const TrialResult& t : *set) {
      attempted += t.attempted;
      failed += t.failed;
      evicted += t.spans_evicted;
      if (verify_error.empty()) verify_error = t.verify_error;
    }
  }

  std::string o = "{\"workload\":" + json_str(args.workload) +
                  ",\"seed\":" + std::to_string(args.seed) +
                  ",\"calibration\":{\"fingerprint\":" + json_str(fingerprint(cal)) +
                  ",\"text\":" + json_str(cal) + "}" +
                  ",\"trials\":" + std::to_string(untraced.size()) +
                  ",\"verify_error\":" + json_str(verify_error) +
                  ",\"attempted\":" + std::to_string(attempted) +
                  ",\"failed\":" + std::to_string(failed) +
                  ",\"metrics\":" + metrics_json(end_to_end(untraced));
  if (args.trace) {
    o += ",\"traced_metrics\":" + metrics_json(end_to_end(traced));
    o += ",\"layers\":" + metrics_json(per_layer(traced));
    o += ",\"host_s_per_op\":{\"untraced\":" + json_num(host_s_per_op(untraced)) +
         ",\"traced\":" + json_num(host_s_per_op(traced)) + "}";
    o += ",\"spans_evicted\":" + std::to_string(evicted);
    o += ",\"dumps\":[";
    for (std::size_t i = 0; i < dumps.size(); ++i) {
      const TrialResult& t = traced[i];
      if (i > 0) o += ",";
      o += "{\"path\":" + json_str(dumps[i]) +
           ",\"rank_time_ns\":" + std::to_string(t.rank_time) +
           ",\"ops\":" + std::to_string(t.ops) + "}";
    }
    o += "]";
  }
  o += "}";
  std::printf("%s\n", o.c_str());
  return 0;
}
