#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "dafs/client.hpp"
#include "dafs/server.hpp"
#include "dafs/session.hpp"
#include "sim/histogram.hpp"
#include "sim/metric_key.hpp"
#include "sim/metrics.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/timeseries.hpp"

/// \file test_telemetry.cpp
/// Live-telemetry suite (ctest label `telemetry`): the metric-key hygiene
/// predicate, JSON escaping in the metrics exporter, RAII gauge scopes, the
/// bounded time-series sampler, and the in-band kStatsQuery plane — the
/// snapshot must match independently-accumulated per-client ground truth,
/// the query must succeed while admission control is shedding everything,
/// and a seeded crash/restart sweep must leave no dangling gauges and no
/// time-regression in the sampled rings.

namespace {

using dafs::ClientConfig;
using dafs::Fh;
using dafs::PStatus;
using dafs::Server;
using dafs::ServerConfig;
using dafs::Session;
using dafs::StatsSnapshot;
using sim::Actor;
using sim::ActorScope;

std::vector<std::byte> pattern(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng.next() & 0xff);
  return out;
}

// ---------------------------------------------------------------------------
// Metric-key hygiene (sim/metric_key.hpp)
// ---------------------------------------------------------------------------

TEST(MetricKey, AcceptsDottedLowercase) {
  EXPECT_TRUE(sim::valid_metric_key("dafs.busy_shed"));
  EXPECT_TRUE(sim::valid_metric_key("dafs.rtt_ns.read_inline"));
  EXPECT_TRUE(sim::valid_metric_key("dafs.session.42.bytes_in"));
  EXPECT_TRUE(sim::valid_metric_key("a.b"));
  EXPECT_TRUE(sim::valid_metric_key("via.rdma_write_bytes"));
}

TEST(MetricKey, RejectsMalformedKeys) {
  EXPECT_FALSE(sim::valid_metric_key(""));
  EXPECT_FALSE(sim::valid_metric_key("nodots"));
  EXPECT_FALSE(sim::valid_metric_key(".leading.dot"));
  EXPECT_FALSE(sim::valid_metric_key("trailing.dot."));
  EXPECT_FALSE(sim::valid_metric_key("empty..component"));
  EXPECT_FALSE(sim::valid_metric_key("Upper.Case"));
  EXPECT_FALSE(sim::valid_metric_key("bad key.space"));
  EXPECT_FALSE(sim::valid_metric_key("bad\"quote.key"));
  EXPECT_FALSE(sim::valid_metric_key("hy-phen.key"));
}

#ifndef NDEBUG
TEST(MetricKeyDeathTest, CounterRegistrationAsserts) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  sim::Stats stats;
  EXPECT_DEATH_IF_SUPPORTED(stats.add("NotAValidKey"), "dotted lowercase");
}
#endif

// ---------------------------------------------------------------------------
// JSON escaping in the exporter
// ---------------------------------------------------------------------------

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(sim::json_escape("plain.key"), "plain.key");
  EXPECT_EQ(sim::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(sim::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(sim::json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(sim::json_escape(std::string_view("a\x01z", 3)), "a\\u0001z");
  EXPECT_EQ(sim::json_escape("\r\b\f"), "\\r\\b\\f");
}

#ifdef NDEBUG
// Release builds compile the hygiene asserts out, so a hostile key CAN reach
// the exporter — and must corrupt only its own name, never the document.
TEST(JsonEscape, HostileGaugeKeyStaysValidJson) {
  sim::Stats stats;
  sim::HistogramRegistry hists;
  sim::MetricsRegistry reg(stats, hists);
  reg.register_gauge("evil\"key\\with\ncontrols", [] {
    return std::uint64_t{7};
  });
  const std::string doc = reg.to_json("hostile");
  EXPECT_NE(doc.find("evil\\\"key\\\\with\\ncontrols"), std::string::npos);
  // No raw quote-injection survived: every '"' is structural or escaped.
  EXPECT_EQ(doc.find("evil\"key"), std::string::npos);
  reg.unregister_gauge("evil\"key\\with\ncontrols");
}
#endif

// ---------------------------------------------------------------------------
// GaugeScope + registry semantics
// ---------------------------------------------------------------------------

TEST(GaugeScope, RegistersAndUnregistersRaii) {
  sim::Stats stats;
  sim::HistogramRegistry hists;
  sim::MetricsRegistry reg(stats, hists);
  {
    sim::GaugeScope g(reg, "test.gauge", [] { return std::uint64_t{11}; });
    EXPECT_TRUE(g.armed());
    auto s = reg.sample_gauges();
    ASSERT_EQ(s.count("test.gauge"), 1u);
    EXPECT_EQ(s["test.gauge"], 11u);
  }
  EXPECT_EQ(reg.sample_gauges().count("test.gauge"), 0u);
}

TEST(GaugeScope, MoveTransfersOwnershipAndResetIsIdempotent) {
  sim::Stats stats;
  sim::HistogramRegistry hists;
  sim::MetricsRegistry reg(stats, hists);
  sim::GaugeScope a(reg, "test.moved", [] { return std::uint64_t{1}; });
  sim::GaugeScope b(std::move(a));
  EXPECT_FALSE(a.armed());  // NOLINT(bugprone-use-after-move): testing it
  EXPECT_TRUE(b.armed());
  EXPECT_EQ(reg.sample_gauges().count("test.moved"), 1u);
  b.reset();
  b.reset();  // idempotent
  EXPECT_EQ(reg.sample_gauges().count("test.moved"), 0u);
}

TEST(MetricsRegistry, GaugeReplacementLastWins) {
  sim::Stats stats;
  sim::HistogramRegistry hists;
  sim::MetricsRegistry reg(stats, hists);
  reg.register_gauge("test.replaced", [] { return std::uint64_t{1}; });
  reg.register_gauge("test.replaced", [] { return std::uint64_t{2}; });
  auto s = reg.sample_gauges();
  ASSERT_EQ(s.count("test.replaced"), 1u);
  EXPECT_EQ(s["test.replaced"], 2u);
  reg.unregister_gauge("test.replaced");
  EXPECT_EQ(reg.sample_gauges().count("test.replaced"), 0u);
}

TEST(MetricsRegistry, ConcurrentRegisterAndExport) {
  sim::Stats stats;
  sim::HistogramRegistry hists;
  sim::MetricsRegistry reg(stats, hists);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&reg, w] {
      const std::string key = "test.worker" + std::to_string(w) + ".val";
      for (int i = 0; i < 400; ++i) {
        sim::GaugeScope g(reg, key, [i] {
          return static_cast<std::uint64_t>(i);
        });
        // Scope dies each iteration: register/unregister churn under export.
      }
    });
  }
  std::thread reader([&] {
    while (!stop.load()) {
      const std::string doc = reg.to_json("concurrent");
      EXPECT_FALSE(doc.empty());
      (void)reg.sample_gauges();
    }
  });
  for (auto& t : writers) t.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(reg.sample_gauges().size(), 0u);
}

// ---------------------------------------------------------------------------
// Time-series sampler
// ---------------------------------------------------------------------------

TEST(TimeSeries, RingsAreBoundedAndStrictlyMonotone) {
  sim::Stats stats;
  sim::HistogramRegistry hists;
  sim::MetricsRegistry reg(stats, hists);
  std::uint64_t gauge_val = 0;
  reg.register_gauge("test.depth", [&gauge_val] { return gauge_val; });

  sim::TimeSeriesConfig cfg;
  cfg.interval_ns = 10;
  cfg.capacity = 4;
  cfg.counters = {"test.events"};
  reg.enable_timeseries(cfg);
  sim::TimeSeries* ts = reg.timeseries();
  ASSERT_NE(ts, nullptr);

  for (std::uint64_t t = 10; t <= 100; t += 10) {
    gauge_val = t;
    stats.add("test.events", 3);
    reg.tick(t);
    reg.tick(t);      // same timestamp: ignored
    reg.tick(t - 5);  // time going backwards: ignored
  }
  const auto rings = ts->snapshot();
  ASSERT_EQ(rings.count("test.depth"), 1u);
  ASSERT_EQ(rings.count("test.events"), 1u);
  for (const auto& [key, pts] : rings) {
    ASSERT_LE(pts.size(), cfg.capacity) << key;
    ASSERT_EQ(pts.size(), cfg.capacity) << key;  // 10 samples into 4 slots
    for (std::size_t i = 1; i < pts.size(); ++i) {
      EXPECT_LT(pts[i - 1].t, pts[i].t) << key;
    }
  }
  // Oldest points dropped: the ring ends at the last sample time.
  EXPECT_EQ(rings.at("test.depth").back().t, 100u);
  EXPECT_EQ(rings.at("test.depth").back().v, 100u);
  // Counters are deltas per interval, not cumulative counts.
  for (const auto& p : rings.at("test.events")) EXPECT_EQ(p.v, 3u);
  EXPECT_EQ(ts->samples(), 10u);
  reg.unregister_gauge("test.depth");
}

TEST(TimeSeries, IntervalGatesSampling) {
  sim::Stats stats;
  sim::HistogramRegistry hists;
  sim::MetricsRegistry reg(stats, hists);
  sim::TimeSeriesConfig cfg;
  cfg.interval_ns = 100;
  cfg.counters = {"test.ticks"};
  reg.enable_timeseries(cfg);
  reg.tick(5);    // first tick always samples
  reg.tick(50);   // inside the interval: ignored
  reg.tick(104);  // 99 ns after the first: still inside
  reg.tick(105);  // exactly one interval later: samples
  EXPECT_EQ(reg.timeseries()->samples(), 2u);
}

TEST(TimeSeries, ExportedInMetricsJson) {
  sim::Stats stats;
  sim::HistogramRegistry hists;
  sim::MetricsRegistry reg(stats, hists);
  EXPECT_EQ(reg.to_json("plain").find("\"timeseries\""), std::string::npos);
  sim::TimeSeriesConfig cfg;
  cfg.interval_ns = 1;
  cfg.counters = {"test.c"};
  reg.enable_timeseries(cfg);
  stats.add("test.c", 2);
  reg.tick(7);
  const std::string doc = reg.to_json("with_ts");
  EXPECT_NE(doc.find("\"timeseries\""), std::string::npos);
  EXPECT_NE(doc.find("\"interval_ns\":1"), std::string::npos);
  EXPECT_NE(doc.find("\"test.c\""), std::string::npos);
  reg.disable_timeseries();
  EXPECT_EQ(reg.to_json("off").find("\"timeseries\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// In-band kStatsQuery plane
// ---------------------------------------------------------------------------

/// Fabric + filer + two client rigs with fixed client ids, so the server's
/// attribution table is diffable against ground truth.
class TelemetryTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kIdA = 7001;
  static constexpr std::uint64_t kIdB = 7002;

  TelemetryTest()
      : server_node_(fabric_.add_node("filer")),
        node_a_(fabric_.add_node("client-a")),
        node_b_(fabric_.add_node("client-b")),
        server_(fabric_, server_node_, ServerConfig{}),
        nic_a_(fabric_, node_a_, "nic-a"),
        nic_b_(fabric_, node_b_, "nic-b"),
        actor_a_("client-a", &fabric_.node(node_a_)),
        actor_b_("client-b", &fabric_.node(node_b_)) {
    server_.start();
  }

  static dafs::MountSpec spec_for(std::uint64_t client_id,
                                  int max_busy_retries = 64) {
    dafs::RetryPolicy retry;
    retry.backoff_ns = 10'000;
    retry.backoff_cap_ns = 500'000;
    retry.max_busy_retries = max_busy_retries;
    dafs::ClientConfig ccfg;
    ccfg.client_id = client_id;
    return dafs::single_mount("dafs", retry, ccfg);
  }

  std::unique_ptr<Session> Connect(Actor& actor, via::Nic& nic,
                                   dafs::MountSpec spec) {
    ActorScope scope(actor);
    auto r = Session::connect(nic, std::move(spec));
    EXPECT_TRUE(r.ok());
    return r.ok() ? std::move(r.value()) : nullptr;
  }

  sim::Fabric fabric_;
  sim::NodeId server_node_, node_a_, node_b_;
  Server server_;
  via::Nic nic_a_, nic_b_;
  Actor actor_a_, actor_b_;
};

TEST_F(TelemetryTest, SnapshotMatchesPerSessionGroundTruth) {
  auto sa = Connect(actor_a_, nic_a_, spec_for(kIdA));
  auto sb = Connect(actor_b_, nic_b_, spec_for(kIdB));
  ASSERT_NE(sa, nullptr);
  ASSERT_NE(sb, nullptr);

  const auto small = pattern(512, 1);     // inline path
  const auto large = pattern(64 * 1024, 2);  // direct path
  {
    ActorScope scope(actor_a_);
    auto fh = sa->open("/a.bin", dafs::kOpenCreate);
    ASSERT_TRUE(fh.ok());
    for (int i = 0; i < 3; ++i) {
      auto w = sa->pwrite(fh.value(), i * 512u, small);
      ASSERT_TRUE(w.ok());
    }
    std::vector<std::byte> back(512);
    ASSERT_TRUE(sa->pread(fh.value(), 0, back).ok());
    ASSERT_TRUE(sa->pread(fh.value(), 512, back).ok());
    ASSERT_TRUE(sa->getattr(fh.value()).ok());
  }
  {
    ActorScope scope(actor_b_);
    auto fh = sb->open("/b.bin", dafs::kOpenCreate);
    ASSERT_TRUE(fh.ok());
    ASSERT_TRUE(sb->pwrite(fh.value(), 0, large).ok());
    std::vector<std::byte> back(large.size());
    ASSERT_TRUE(sb->pread(fh.value(), 0, back).ok());
  }

  // Both clients are idle now, so the table the query snapshots is the one
  // the server holds just before it (the query is attributed afterwards).
  const auto before = server_.client_stats();
  StatsSnapshot snap;
  {
    ActorScope scope(actor_a_);
    auto r = sa->query_stats();
    ASSERT_TRUE(r.ok());
    snap = std::move(r).value();
  }
  EXPECT_EQ(snap.header.version, dafs::kStatsVersion);
  EXPECT_EQ(snap.header.truncated, 0u);
  // 2 connected clients + the pre-armed session the accept loop keeps ready
  // for the next connect (it lives in the session table before accept).
  EXPECT_GE(snap.header.sessions_live, 2u);
  EXPECT_LE(snap.header.sessions_live, 3u);
  EXPECT_EQ(snap.header.crash_count, 0u);

  const auto* a = snap.find_client(kIdA);
  const auto* b = snap.find_client(kIdB);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  // Ground truth, client A: 3 inline writes, 2 inline reads, open + getattr
  // as metadata. (The first kConnect carries no identity yet, so it is not
  // attributed — exactly the 0-sentinel contract.)
  EXPECT_EQ(a->ops_write, 3u);
  EXPECT_EQ(a->ops_read, 2u);
  EXPECT_EQ(a->ops_meta, 2u);
  EXPECT_EQ(a->sheds, 0u);
  EXPECT_EQ(a->retransmits, 0u);
  EXPECT_GT(a->bytes_in, 3u * 512u);  // payloads ride in the request wire
  EXPECT_GT(a->bytes_out, 2u * 512u);
  // Client B: 1 direct write, 1 direct read; the RDMA payload bytes must be
  // attributed even though they never ride the message wire.
  EXPECT_EQ(b->ops_write, 1u);
  EXPECT_EQ(b->ops_read, 1u);
  EXPECT_GT(b->bytes_in, 64u * 1024u);
  EXPECT_GT(b->bytes_out, 64u * 1024u);
  EXPECT_GT(a->service_ns, 0u);
  EXPECT_GT(b->service_ns, 0u);

  // The wire table must agree exactly with the server's own accounting.
  const auto truth = server_.client_stats();
  ASSERT_EQ(truth.count(kIdB), 1u);
  const auto& tb = truth.at(kIdB);
  EXPECT_EQ(b->bytes_in, tb.bytes_in);
  EXPECT_EQ(b->bytes_out, tb.bytes_out);
  EXPECT_EQ(b->ops_read, tb.ops_read);
  EXPECT_EQ(b->ops_write, tb.ops_write);
  EXPECT_EQ(b->ops_meta, tb.ops_meta);
  EXPECT_EQ(b->service_ns, tb.service_ns);
  EXPECT_EQ(b->queue_wait_ns, tb.queue_wait_ns);

  // kv section carries the aggregate counters the header summarizes.
  EXPECT_EQ(snap.value("dafs.requests"), snap.header.requests_total);
  EXPECT_GE(snap.value("dafs.sessions_live"), 2u);

  // The per-client table is exported once, as the session table: no
  // dafs.session.<client_id>.* key repeats it in the kv section, and every
  // row equals client_stats().
  for (const auto& [key, value] : snap.kv) {
    EXPECT_NE(key.rfind("dafs.session.", 0), 0u) << key;
  }
  ASSERT_EQ(snap.sessions.size(), before.size());
  for (const dafs::WireSessionStats& w : snap.sessions) {
    ASSERT_EQ(before.count(w.client_id), 1u) << w.client_id;
    const auto& t = before.at(w.client_id);
    EXPECT_EQ(w.bytes_in, t.bytes_in);
    EXPECT_EQ(w.bytes_out, t.bytes_out);
    EXPECT_EQ(w.ops_read, t.ops_read);
    EXPECT_EQ(w.ops_write, t.ops_write);
    EXPECT_EQ(w.ops_meta, t.ops_meta);
    EXPECT_EQ(w.queue_wait_ns, t.queue_wait_ns);
    EXPECT_EQ(w.service_ns, t.service_ns);
    EXPECT_EQ(w.retransmits, t.retransmits);
    EXPECT_EQ(w.sheds, t.sheds);
  }

  ActorScope sb_scope(actor_b_);
  sb.reset();
  ActorScope sa_scope(actor_a_);
  sa.reset();
}

TEST_F(TelemetryTest, StatsQueryServedWhileAdmissionSheds) {
  // Tiny busy-retry budget: the data plane must *fail* with kBusy while the
  // stats plane keeps answering.
  auto sa = Connect(actor_a_, nic_a_, spec_for(kIdA, /*max_busy_retries=*/2));
  auto sb = Connect(actor_b_, nic_b_, spec_for(kIdB));
  ASSERT_NE(sa, nullptr);
  ASSERT_NE(sb, nullptr);

  Fh fh;
  const auto small = pattern(512, 3);
  {
    ActorScope scope(actor_a_);
    auto r = sa->open("/shed.bin", dafs::kOpenCreate);
    ASSERT_TRUE(r.ok());
    fh = r.value();
  }

  server_.set_admission_limit(0);  // drain mode: shed every data-plane op
  {
    ActorScope scope(actor_a_);
    auto w = sa->pwrite(fh, 0, small);
    ASSERT_FALSE(w.ok());
    EXPECT_EQ(w.error(), PStatus::kBusy);
  }
  // The monitor's query rides the same saturated server and must succeed.
  StatsSnapshot snap;
  {
    ActorScope scope(actor_b_);
    auto r = sb->query_stats();
    ASSERT_TRUE(r.ok()) << "stats query must bypass admission control";
    snap = std::move(r).value();
  }
  EXPECT_EQ(snap.header.admission_limit, 0u);
  EXPECT_GE(snap.header.busy_sheds, 1u);
  const auto* a = snap.find_client(kIdA);
  ASSERT_NE(a, nullptr);
  EXPECT_GE(a->sheds, 1u) << "sheds must be attributed to the shed client";

  server_.set_admission_limit(256);
  {
    ActorScope scope(actor_a_);
    auto w = sa->pwrite(fh, 0, small);
    EXPECT_TRUE(w.ok()) << "data plane recovers once the limit is restored";
  }
  ActorScope sb_scope(actor_b_);
  sb.reset();
  ActorScope sa_scope(actor_a_);
  sa.reset();
}

// ---------------------------------------------------------------------------
// Crash/restart chaos: gauges must never dangle, rings must never regress
// ---------------------------------------------------------------------------

TEST(TelemetryChaos, CrashRestartLeavesNoDanglingGaugesAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    sim::Fabric fabric;
    sim::TimeSeriesConfig tscfg;
    tscfg.interval_ns = 5'000;
    tscfg.counters = {"dafs.requests", "dafs.busy_shed"};
    fabric.metrics().enable_timeseries(tscfg);

    const auto server_node = fabric.add_node("filer");
    const auto client_node = fabric.add_node("client");
    ServerConfig scfg;
    scfg.grace_period_ms = 5;
    auto server = std::make_unique<Server>(fabric, server_node, scfg);
    server->start();

    via::Nic nic(fabric, client_node, "nic");
    Actor actor("client", &fabric.node(client_node));
    dafs::RetryPolicy retry;
    retry.backoff_ns = 20'000;
    retry.backoff_cap_ns = 2'000'000;
    retry.jitter_seed = seed;
    ClientConfig ccfg;
    ccfg.client_id = 9000 + seed;
    std::unique_ptr<Session> session;
    {
      ActorScope scope(actor);
      auto r = Session::connect(nic, dafs::single_mount("dafs", retry, ccfg));
      ASSERT_TRUE(r.ok());
      session = std::move(r).value();
    }

    const auto data = pattern(8 * 1024, seed);
    Fh fh;
    {
      ActorScope scope(actor);
      auto r = session->open("/chaos.bin", dafs::kOpenCreate);
      ASSERT_TRUE(r.ok());
      fh = r.value();
      for (int i = 0; i < 4 + static_cast<int>(seed % 3); ++i) {
        ASSERT_TRUE(session->pwrite(fh, i * data.size(), data).ok());
      }
      ASSERT_EQ(session->sync(fh), PStatus::kOk);
    }

    server->inject_crash(3 + seed % 4);
    // Export while the server is down: every gauge callback must still be
    // backed by a live object (the Server is crashed, not destroyed).
    EXPECT_FALSE(fabric.metrics().to_json("mid_crash").empty());
    while (server->crashed()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    {
      // The next op rides session recovery (reconnect + lease reclaim).
      ActorScope scope(actor);
      ASSERT_TRUE(session->pwrite(fh, 0, data).ok());
      auto snap = session->query_stats();
      ASSERT_TRUE(snap.ok());
      EXPECT_GE(snap.value().header.crash_count, 1u);
      const auto* me = snap.value().find_client(9000 + seed);
      ASSERT_NE(me, nullptr);
      EXPECT_GE(me->ops_write, 5u) << "attribution survives the restart";
    }

    // Rings stay strictly monotone in sim time across the crash.
    ASSERT_NE(fabric.metrics().timeseries(), nullptr);
    const auto rings = fabric.metrics().timeseries()->snapshot();
    EXPECT_FALSE(rings.empty());
    for (const auto& [key, pts] : rings) {
      for (std::size_t i = 1; i < pts.size(); ++i) {
        ASSERT_LT(pts[i - 1].t, pts[i].t) << key;
      }
    }

    {
      ActorScope scope(actor);
      session.reset();
    }
    server.reset();
    // Every dafs.* / fstore.* gauge must be gone with the server; a sample
    // or export now must neither crash nor show stale keys.
    const auto gauges = fabric.metrics().sample_gauges();
    for (const auto& [key, value] : gauges) {
      EXPECT_EQ(key.rfind("dafs.", 0), std::string::npos) << key;
      EXPECT_EQ(key.rfind("fstore.", 0), std::string::npos) << key;
    }
    EXPECT_FALSE(fabric.metrics().to_json("post_teardown").empty());
  }
}

}  // namespace
