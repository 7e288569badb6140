#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dafs/client.hpp"
#include "dafs/server.hpp"
#include "dafs/session.hpp"
#include "mpiio/ad_dafs.hpp"
#include "mpiio/file.hpp"
#include "sim/trace.hpp"

/// \file test_trace.cpp
/// Causal-tracing suite (ctest label `trace`): cross-wire span parenting,
/// retry-after-crash linking to the original trace, flight-recorder ring
/// eviction, JSON dump well-formedness, and the sampling-off overhead
/// guarantee (counter-verified).

namespace {

using mpi::Comm;
using mpi::Datatype;
using mpiio::File;
using mpiio::Info;
using sim::Actor;
using sim::ActorScope;
using sim::Span;
using sim::SpanScope;
using sim::Tracer;

constexpr std::uint64_t kChunk = 16 * 1024;

std::vector<std::byte> pattern(std::size_t n) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<std::byte>(i & 0xff);
  return out;
}

std::vector<Span> spans_of(const std::vector<Span>& all, std::uint64_t trace,
                           const char* layer) {
  std::vector<Span> out;
  for (const Span& s : all) {
    if (s.trace_id == trace && std::string_view(s.layer) == layer) {
      out.push_back(s);
    }
  }
  return out;
}

bool has_span(const std::vector<Span>& all, std::uint64_t id) {
  return std::any_of(all.begin(), all.end(),
                     [&](const Span& s) { return s.span_id == id; });
}

// ---------------------------------------------------------------------------
// Cross-wire parenting: one collective write, four layers, one trace
// ---------------------------------------------------------------------------

TEST(Trace, CollectiveWriteParentsAcrossAllLayers) {
  sim::Fabric fabric;
  Tracer& tracer = fabric.trace();
  tracer.set_enabled(true);
  dafs::Server server(fabric, fabric.add_node("filer"));
  server.start();

  mpi::WorldConfig wcfg;
  wcfg.nprocs = 2;
  wcfg.fabric = &fabric;
  wcfg.name = "trace";
  mpi::World world(wcfg);
  world.run([&](Comm& c) {
    via::Nic nic(fabric, world.node_of(c.rank()), "cli");
    auto client = std::move(dafs::Client::connect(nic).value());
    auto f = std::move(File::open(c, "/t.dat",
                                  mpiio::kModeCreate | mpiio::kModeRdwr,
                                  Info{}, mpiio::dafs_driver(*client))
                           .value());
    const auto data = pattern(kChunk);
    ASSERT_TRUE(f->write_at_all(c.rank() * kChunk, data.data(), kChunk,
                                Datatype::byte())
                    .ok());
    f->close();
  });

  const auto all = tracer.snapshot();

  // Find a root: an MPI-IO collective-write span with no parent.
  std::uint64_t trace_id = 0;
  Span root;
  for (const Span& s : all) {
    if (std::string_view(s.layer) == "mpiio" && s.name == "write_at_all" &&
        s.parent_span_id == 0) {
      root = s;
      trace_id = s.trace_id;
      break;
    }
  }
  ASSERT_NE(trace_id, 0u) << "no MPI-IO root span recorded";

  // The root's trace reaches every layer.
  const auto cli = spans_of(all, trace_id, "dafs.client");
  const auto srv = spans_of(all, trace_id, "dafs.server");
  const auto via_spans = spans_of(all, trace_id, "via");
  const auto fst = spans_of(all, trace_id, "fstore");
  EXPECT_FALSE(cli.empty()) << "no client request span in the trace";
  EXPECT_FALSE(srv.empty()) << "no server span crossed the wire";
  EXPECT_FALSE(via_spans.empty()) << "no VIA transfer span in the trace";
  EXPECT_FALSE(fst.empty()) << "no fstore span under the service span";

  // Client request spans parent under an MPI-IO span of the same trace.
  const auto mpiio_spans = spans_of(all, trace_id, "mpiio");
  for (const Span& s : cli) {
    EXPECT_TRUE(has_span(mpiio_spans, s.parent_span_id))
        << "client span " << s.name << " not parented under MPI-IO";
  }

  // Server spans parent either directly under a *client* span (the service
  // and admission_wait spans — their ids crossed the wire) or under another
  // server span of the same trace (reply_send nests inside the service
  // span). Either way every parent must resolve inside the trace.
  bool any_wire_parented = false;
  for (const Span& s : srv) {
    const bool under_client = has_span(cli, s.parent_span_id);
    any_wire_parented = any_wire_parented || under_client;
    EXPECT_TRUE(under_client || has_span(srv, s.parent_span_id))
        << "server span " << s.name << " (parent " << s.parent_span_id
        << ") dangles outside the trace";
  }
  EXPECT_TRUE(any_wire_parented)
      << "no server span parented under a client span: ids did not cross "
         "the wire";

  // Parent/child time containment for the spans we can pair up.
  for (const Span& child : srv) {
    for (const Span& parent : cli) {
      if (parent.span_id != child.parent_span_id) continue;
      EXPECT_GE(child.t_start, parent.t_start);
      EXPECT_LE(child.t_end, parent.t_end);
    }
  }
  EXPECT_GE(root.t_end, root.t_start);
}

// ---------------------------------------------------------------------------
// Crash + reclaim: the retried attempt stays in the original trace
// ---------------------------------------------------------------------------

TEST(Trace, RetryAfterCrashLinksToOriginalTrace) {
  sim::Fabric fabric;
  Tracer& tracer = fabric.trace();
  tracer.set_enabled(true);
  tracer.set_dump_path("trace_retry.json");
  dafs::ServerConfig scfg;
  scfg.grace_period_ms = 5;
  dafs::Server server(fabric, fabric.add_node("filer"), scfg);
  server.start();
  const auto node = fabric.add_node("client");
  Actor actor("client", &fabric.node(node));
  ActorScope scope(actor);
  via::Nic nic(fabric, node, "nic");
  dafs::RetryPolicy retry;
  retry.backoff_ns = 20'000;
  auto s = std::move(
      dafs::Session::connect(nic, dafs::single_mount("dafs", retry)).value());
  auto fh = s->open("/r.dat", dafs::kOpenCreate).value();
  const auto data = pattern(kChunk);
  ASSERT_TRUE(s->pwrite(fh, 0, data).ok());
  ASSERT_EQ(s->sync(fh), dafs::PStatus::kOk);

  // Arm a crash on the next admitted request: it fires while the read is
  // in flight, so the client recovers (reclaim) and retransmits — and the
  // retried wire attempt must carry the ORIGINAL ids, so everything lands
  // in root's trace.
  fabric.faults().arm(7);
  fabric.faults().crash_server_after_requests(1, /*restart_delay_ms=*/5);
  std::uint64_t trace_id = 0;
  {
    SpanScope root(tracer, "test", "read_across_crash", /*make_root=*/true);
    ASSERT_TRUE(root.active());
    trace_id = root.trace_id();
    std::vector<std::byte> back(kChunk);
    ASSERT_TRUE(s->pread(fh, 0, back).ok());
  }
  fabric.faults().clear();
  EXPECT_GE(fabric.stats().get("dafs.server_crashes"), 1u);
  EXPECT_GE(fabric.stats().get("dafs.session_reclaims"), 1u);

  // The crash auto-dumped the flight recorder, capturing the crash event
  // and the then-open (orphaned) root span of the interrupted read.
  {
    std::ifstream in("trace_retry.json.crash.json");
    ASSERT_TRUE(in.good()) << "crash did not auto-dump the flight recorder";
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string doc = ss.str();
    EXPECT_NE(doc.find("server_crash"), std::string::npos);
    EXPECT_NE(doc.find("\"in_flight\":1"), std::string::npos);
    EXPECT_NE(doc.find("read_across_crash"), std::string::npos);
  }
  std::remove("trace_retry.json.crash.json");
  tracer.set_dump_path("");  // keep the fabric dtor from writing a final dump

  const auto all = tracer.snapshot();
  const auto cli = spans_of(all, trace_id, "dafs.client");
  const auto srv = spans_of(all, trace_id, "dafs.server");
  ASSERT_FALSE(cli.empty());
  ASSERT_FALSE(srv.empty()) << "replayed request did not link to the root";
  // Exactly one client-visible read span: submit-to-completion covers the
  // whole recovery, however many wire attempts it took.
  const auto reads = std::count_if(cli.begin(), cli.end(), [](const Span& s) {
    return s.name.rfind("request.read", 0) == 0;
  });
  EXPECT_EQ(reads, 1);
  for (const Span& s : srv) {
    EXPECT_TRUE(has_span(cli, s.parent_span_id) ||
                has_span(srv, s.parent_span_id))
        << "server span " << s.name << " escaped the original trace";
  }
}

// ---------------------------------------------------------------------------
// Flight recorder: bounded ring evicts oldest, keeps newest
// ---------------------------------------------------------------------------

TEST(Trace, RingEvictionKeepsNewest) {
  Tracer t;
  t.set_enabled(true);
  t.set_ring_capacity(4);
  for (std::uint64_t i = 1; i <= 10; ++i) {
    Span s;
    s.trace_id = 1;
    s.span_id = i;
    s.t_start = i;
    s.t_end = i + 1;
    s.layer = "test";
    s.name = "s" + std::to_string(i);
    t.record(std::move(s));
  }
  EXPECT_EQ(t.spans_recorded(), 10u);
  EXPECT_EQ(t.spans_evicted(), 6u);
  const auto kept = t.snapshot();
  ASSERT_EQ(kept.size(), 4u);
  // Newest four, oldest first.
  for (std::size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(kept[i].span_id, 7 + i);
  }
}

// ---------------------------------------------------------------------------
// Dump: well-formed JSON, escaping, open spans flagged in-flight
// ---------------------------------------------------------------------------

TEST(Trace, DumpJsonIsWellFormed) {
  Tracer t;
  t.set_enabled(true);
  {
    SpanScope a(t, "test", "outer", /*make_root=*/true);
    a.attr("bytes", std::uint64_t{4096});
    a.attr("note", "quo\"te\\and\nnewline");
    SpanScope b(t, "test", "inner");
    EXPECT_TRUE(b.active());
    EXPECT_EQ(b.trace_id(), a.trace_id());
  }
  t.event("server_crash", 42, "\"restart_delay_ms\":5");

  const char* path = "trace_test_dump.json";  // test cwd (build tree)
  ASSERT_TRUE(t.dump_json(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string doc = ss.str();
  std::remove(path);

  ASSERT_FALSE(doc.empty());
  EXPECT_EQ(doc.front(), '{');
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"outer\""), std::string::npos);
  EXPECT_NE(doc.find("\"inner\""), std::string::npos);
  EXPECT_NE(doc.find("server_crash"), std::string::npos);
  // The quote, backslash and newline in the attr were escaped.
  EXPECT_NE(doc.find("quo\\\"te\\\\and\\nnewline"), std::string::npos);
  // Braces balance (no quoting ambiguity: all strings above are escaped).
  int depth = 0;
  bool in_str = false;
  for (std::size_t i = 0; i < doc.size(); ++i) {
    const char ch = doc[i];
    if (in_str) {
      if (ch == '\\') {
        ++i;
      } else if (ch == '"') {
        in_str = false;
      }
      continue;
    }
    if (ch == '"') in_str = true;
    if (ch == '{') ++depth;
    if (ch == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_str);
}

TEST(Trace, FlightDumpIncludesOpenSpans) {
  Tracer t;
  t.set_enabled(true);
  t.set_dump_path("trace_test_flight.json");
  SpanScope open_span(t, "test", "still_running", /*make_root=*/true);
  const std::string path = t.flight_dump("assert");
  ASSERT_EQ(path, "trace_test_flight.json.assert.json");
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string doc = ss.str();
  std::remove(path.c_str());
  EXPECT_NE(doc.find("\"still_running\""), std::string::npos);
  EXPECT_NE(doc.find("\"in_flight\":1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Sampling: hint 0 disables root spans; nothing records anywhere
// ---------------------------------------------------------------------------

TEST(Trace, SampleHintZeroRecordsNothing) {
  sim::Fabric fabric;
  Tracer& tracer = fabric.trace();
  tracer.set_enabled(true);

  dafs::Server server(fabric, fabric.add_node("filer"));
  server.start();
  mpi::WorldConfig wcfg;
  wcfg.nprocs = 1;
  wcfg.fabric = &fabric;
  wcfg.name = "off";
  mpi::World world(wcfg);
  world.run([&](Comm& c) {
    via::Nic nic(fabric, world.node_of(c.rank()), "cli");
    auto client = std::move(dafs::Client::connect(nic).value());
    Info info;
    info.set("dafs_trace_sample", std::uint64_t{0});
    auto f = std::move(File::open(c, "/off.dat",
                                  mpiio::kModeCreate | mpiio::kModeRdwr, info,
                                  mpiio::dafs_driver(*client))
                           .value());
    const auto data = pattern(kChunk);
    const std::uint64_t before = tracer.spans_recorded();
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(
          f->write_at(i * kChunk, data.data(), kChunk, Datatype::byte()).ok());
    }
    std::vector<std::byte> back(kChunk);
    ASSERT_TRUE(f->read_at(0, back.data(), kChunk, Datatype::byte()).ok());
    // No root span ever opened, so no layer had an active context to attach
    // to: the recorded-span counter must not have moved at all.
    EXPECT_EQ(tracer.spans_recorded(), before);
    f->close();
  });
  EXPECT_EQ(tracer.snapshot().size(), 0u);
}

TEST(Trace, DisabledTracerIsInert) {
  Tracer t;  // never enabled
  {
    SpanScope root(t, "test", "root", /*make_root=*/true);
    EXPECT_FALSE(root.active());
    SpanScope child(t, "test", "child");
    EXPECT_FALSE(child.active());
  }
  EXPECT_EQ(t.spans_recorded(), 0u);
  EXPECT_FALSE(Tracer::current().active());
}

}  // namespace
