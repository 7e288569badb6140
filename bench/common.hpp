#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "dafs/client.hpp"
#include "dafs/server.hpp"
#include "mpi/runtime.hpp"
#include "nfs/client.hpp"
#include "nfs/server.hpp"
#include "sim/fabric.hpp"
#include "sim/rng.hpp"

/// \file common.hpp
/// Shared scaffolding for the figure/table reproduction binaries. All
/// reported times/bandwidths are **modeled (virtual) time** from the cost
/// engine — deterministic and calibrated to the paper-era hardware — never
/// host wall-clock.
namespace bench {

/// Abort loudly on an unexpected VIA failure — benches have no recovery
/// story, and a silent error would corrupt the reported numbers.
inline void require_ok(via::Status st, const char* what) {
  if (st != via::Status::kSuccess) {
    std::fprintf(stderr, "bench: %s failed: %s\n", what, via::to_string(st));
    std::abort();
  }
}

/// Same contract for protocol statuses (mpiio::Err is dafs::PStatus).
inline void require_ok(dafs::PStatus st, const char* what) {
  if (st != dafs::PStatus::kOk) {
    std::fprintf(stderr, "bench: %s failed: %s\n", what, dafs::to_string(st));
    std::abort();
  }
}

/// Unwrap a Result<T>, aborting loudly on error (timed loops must not
/// silently measure failed operations).
template <typename T>
inline T require(sim::Expected<T, dafs::PStatus> r, const char* what) {
  if (!r.ok()) require_ok(r.error(), what);
  return std::move(r).value();
}

/// MB/s (1 MB = 1e6 bytes) from bytes moved in virtual nanoseconds.
inline double mbps(std::uint64_t bytes, sim::Time ns) {
  if (ns == 0) return 0.0;
  return static_cast<double>(bytes) * 1'000.0 / static_cast<double>(ns);
}

inline std::vector<std::byte> make_data(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng.next() & 0xff);
  return out;
}

/// Pretty size for row labels.
inline std::string size_label(std::uint64_t n) {
  char buf[32];
  if (n >= (1u << 20) && n % (1u << 20) == 0) {
    std::snprintf(buf, sizeof(buf), "%lluMiB",
                  static_cast<unsigned long long>(n >> 20));
  } else if (n >= 1024 && n % 1024 == 0) {
    std::snprintf(buf, sizeof(buf), "%lluKiB",
                  static_cast<unsigned long long>(n >> 10));
  } else {
    std::snprintf(buf, sizeof(buf), "%lluB",
                  static_cast<unsigned long long>(n));
  }
  return buf;
}

/// Simple aligned table printer.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  void print() const {
    std::vector<std::size_t> w(headers_.size());
    for (std::size_t i = 0; i < headers_.size(); ++i) w[i] = headers_[i].size();
    for (const auto& r : rows_) {
      for (std::size_t i = 0; i < r.size() && i < w.size(); ++i) {
        w[i] = std::max(w[i], r[i].size());
      }
    }
    auto line = [&] {
      std::printf("+");
      for (std::size_t i = 0; i < w.size(); ++i) {
        for (std::size_t k = 0; k < w[i] + 2; ++k) std::printf("-");
        std::printf("+");
      }
      std::printf("\n");
    };
    line();
    std::printf("|");
    for (std::size_t i = 0; i < headers_.size(); ++i) {
      std::printf(" %-*s |", static_cast<int>(w[i]), headers_[i].c_str());
    }
    std::printf("\n");
    line();
    for (const auto& r : rows_) {
      std::printf("|");
      for (std::size_t i = 0; i < r.size(); ++i) {
        std::printf(" %*s |", static_cast<int>(w[i]), r[i].c_str());
      }
      std::printf("\n");
    }
    line();
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(double v, int prec = 1) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

/// Emit the fabric's unified metrics — Stats counters, registered gauges and
/// every histogram with at least one sample — as one single-line JSON object
/// next to the bench's human-readable tables. One schema, one writer, for
/// every bench (documented in EXPERIMENTS.md "Unified metrics JSON"):
///   {"bench": "<name>", "params": <object>,
///    "counters": {"<key>": u64, ...},
///    "gauges": {"<key>": u64, ...},
///    "histograms": {"<key>": {"count": u64, "sum": u64, "min": u64,
///                             "max": u64, "mean": f64, "p50": u64,
///                             "p95": u64, "p99": u64}, ...}}
/// Latency keys end in _ns (virtual nanoseconds), size keys in _bytes.
inline void emit_metrics_json(sim::Fabric& fabric, const std::string& bench,
                              const std::string& params_json = "{}") {
  std::printf("%s\n", fabric.metrics().to_json(bench, params_json).c_str());
}

/// A ready-to-use DAFS testbed: fabric, filer, one client node + mount.
struct DafsBed {
  sim::Fabric fabric;
  sim::NodeId server_node;
  sim::NodeId client_node;
  std::unique_ptr<dafs::Server> server;
  std::unique_ptr<via::Nic> client_nic;
  std::unique_ptr<sim::Actor> client_actor;
  std::unique_ptr<dafs::Client> client;

  explicit DafsBed(dafs::MountSpec spec, dafs::ServerConfig scfg = {}) {
    server_node = fabric.add_node("filer");
    client_node = fabric.add_node("client0");
    server = std::make_unique<dafs::Server>(fabric, server_node, scfg);
    server->start();
    client_nic = std::make_unique<via::Nic>(fabric, client_node, "cli-nic");
    client_actor =
        std::make_unique<sim::Actor>("client0", &fabric.node(client_node));
    sim::ActorScope scope(*client_actor);
    client = std::move(dafs::Client::connect(*client_nic, spec).value());
  }

  /// Client-knob convenience: one default endpoint at ccfg.service.
  explicit DafsBed(dafs::ClientConfig ccfg = {}, dafs::ServerConfig scfg = {})
      : DafsBed(dafs::MountSpec{{}, std::move(ccfg)}, std::move(scfg)) {}

  ~DafsBed() {
    sim::ActorScope scope(*client_actor);
    client.reset();
  }
};

/// An NFS testbed mirror.
struct NfsBed {
  sim::Fabric fabric;
  sim::NodeId server_node;
  sim::NodeId client_node;
  std::unique_ptr<nfs::Server> server;
  std::unique_ptr<sim::Actor> client_actor;
  std::unique_ptr<nfs::Client> client;

  explicit NfsBed(nfs::ClientConfig ccfg = {}) {
    server_node = fabric.add_node("nfs-server");
    client_node = fabric.add_node("client0");
    server = std::make_unique<nfs::Server>(fabric, server_node);
    server->start();
    client_actor =
        std::make_unique<sim::Actor>("client0", &fabric.node(client_node));
    sim::ActorScope scope(*client_actor);
    client = std::move(nfs::Client::connect(fabric, client_node, ccfg).value());
  }
};

}  // namespace bench
