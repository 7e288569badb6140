#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dafs/client.hpp"
#include "dafs/repl.hpp"
#include "dafs/server.hpp"
#include "dafs/session.hpp"
#include "mpiio/ad_dafs.hpp"
#include "mpiio/file.hpp"
#include "quorum_bed.hpp"
#include "sim/fault.hpp"
#include "sim/rng.hpp"

/// \file test_quorum.cpp
/// Quorum-replicated filer group suite (ctest label `raft`): N >= 3 filers
/// elect a leader with randomized timeouts over the replication channel, the
/// leader ships journal bytes with (term, offset) matching and acknowledges
/// non-idempotent work only at majority commit, and the fencing epoch is the
/// consensus term. Followers answer clients kNotLeader with a leader hint;
/// the client mount follows the hint (or demotes the refusing endpoint to
/// the back of its rotation). Capstones: seeded kill-the-leader and
/// partition-the-leader sweeps mid-collective-write at 3 and 5 replicas —
/// no acknowledged write lost, counters exactly-once, and the deposed
/// member re-silvers back to a byte-identical journal without help.

namespace {

using dafs::PStatus;
using mpi::Comm;
using mpi::Datatype;
using mpiio::Err;
using mpiio::File;
using mpiio::Info;
using sim::Actor;
using sim::ActorScope;

using dafs_test::journal_of;
using dafs_test::QuorumBed;
using dafs_test::wait_restart;
using Role = dafs::Server::Role;

constexpr std::uint64_t kChunk = 32 * 1024;

std::vector<std::byte> pattern(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng.next() & 0xff);
  return out;
}

/// Real-time wait for b's journal to converge byte-identical to a's
/// (re-silvering done). Compares snapshots, so it only returns true once
/// both sides are simultaneously equal.
bool wait_journal_match(dafs::Server& a, dafs::Server& b,
                        int budget_ms = 15'000) {
  for (int i = 0; i < budget_ms; ++i) {
    if (journal_of(a) == journal_of(b)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

// ---------------------------------------------------------------------------
// Election: one leader emerges, the term is the fencing epoch
// ---------------------------------------------------------------------------

TEST(Quorum, ElectsSingleLeader) {
  sim::Fabric fabric;
  QuorumBed g(fabric, 3, "dafs-q");
  const int l = g.wait_leader();
  ASSERT_GE(l, 0) << "no leader elected";
  // Let a few heartbeat rounds settle, then: exactly one leader, a positive
  // term shared by everyone, and every follower knows who leads.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  int leaders = 0;
  for (const auto& m : g.members) {
    if (m->role() == Role::kLeader) ++leaders;
  }
  EXPECT_EQ(leaders, 1);
  const int ll = g.leader();
  ASSERT_GE(ll, 0);
  const std::uint64_t term = g.members[ll]->epoch();
  EXPECT_GE(term, 1u) << "a won election bumps the term";
  for (const auto& m : g.members) {
    EXPECT_EQ(m->epoch(), term);
    EXPECT_EQ(m->leader_member(), ll);
  }
  EXPECT_GE(fabric.stats().get("dafs.elections_won"), 1u);
}

// ---------------------------------------------------------------------------
// Client leader discovery: followers hint, the mount follows
// ---------------------------------------------------------------------------

TEST(Quorum, ClientFollowsLeaderHint) {
  sim::Fabric fabric;
  QuorumBed g(fabric, 3, "dafs-q");
  const int l = g.wait_leader();
  ASSERT_GE(l, 0);
  // Wait until every follower has heard the leader's first append (that is
  // where the hint comes from).
  for (const auto& m : g.members) {
    while (m->leader_member() != l) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  const auto node = fabric.add_node("client");
  Actor actor("client", &fabric.node(node));
  ActorScope scope(actor);
  via::Nic nic(fabric, node, "nic");

  // Mount with a follower first: the kNotLeader answer must carry the
  // leader's member index and the session must jump straight there.
  const auto follower = static_cast<std::size_t>((l + 1) % 3);
  auto s = std::move(
      dafs::Session::connect(nic, g.mount(1, 0, follower)).value());
  EXPECT_EQ(s->active_service(), g.client_service(l));
  EXPECT_GE(fabric.stats().get("dafs.leader_hints_followed"), 1u);
  EXPECT_GE(fabric.stats().get("dafs.not_leader_rejections"), 1u);

  // Work through the leader: a synced write and a counter commit at
  // majority, so every follower's journal converges on the leader's bytes.
  const auto data = pattern(kChunk, 7);
  auto fh = s->open("/hint.dat", dafs::kOpenCreate).value();
  ASSERT_TRUE(s->pwrite(fh, 0, data).ok());
  ASSERT_EQ(s->sync(fh), PStatus::kOk);
  ASSERT_TRUE(s->fetch_add("hint.ctr", 3).ok());
  EXPECT_GE(g.members[l]->commit_offset(), 1u);
  for (int i = 0; i < 3; ++i) {
    if (i == l) continue;
    EXPECT_TRUE(wait_journal_match(*g.members[l], *g.members[i]))
        << "follower " << i << " never converged";
  }
  s.reset();
}

TEST(Quorum, FollowerOnlyMountDemotesAndGivesUp) {
  // A mount naming only followers (no endpoint carries the hinted leader's
  // member id) must demote each refusing endpoint to the back of its
  // rotation — not hammer the same one — and surface kNotLeader.
  sim::Fabric fabric;
  QuorumBed g(fabric, 3, "dafs-q");
  const int l = g.wait_leader();
  ASSERT_GE(l, 0);
  const auto node = fabric.add_node("client");
  Actor actor("client", &fabric.node(node));
  ActorScope scope(actor);
  via::Nic nic(fabric, node, "nic");

  dafs::RetryPolicy fast;
  fast.attempts = 2;
  fast.backoff_ns = 1'000;
  fast.backoff_cap_ns = 4'000;
  dafs::MountSpec m;
  for (int i = 0; i < 3; ++i) {
    if (i == l) continue;
    dafs::Endpoint ep{g.client_service(i), fast};
    ep.member = static_cast<std::uint32_t>(i);
    m.endpoints.push_back(std::move(ep));
  }
  const std::uint64_t demoted_before =
      fabric.stats().get("dafs.endpoint_demotions");
  auto refused = dafs::Session::connect(nic, m);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error(), PStatus::kNotLeader);
  EXPECT_GT(fabric.stats().get("dafs.endpoint_demotions"), demoted_before);
}

TEST(Quorum, MountDuringFirstElectionRidesItOut) {
  // A mount made the moment the group starts: every member answers
  // kNotLeader with no hint until the first leader emerges, so the first
  // connect demotes and pauses pass after pass. Its budget must span an
  // election that outlasts one timeout window (a split vote does): here no
  // member may even stand before 120 ms, past the 110 ms that one pass per
  // endpoint plus slack, at one demotion pause each, would ride out.
  sim::Fabric fabric;
  dafs::ServerConfig cfg = dafs_test::quorum_test_config();
  cfg.election_timeout_min_ms = 120;
  cfg.election_timeout_max_ms = 140;
  QuorumBed g(fabric, 3, "dafs-q", cfg);
  const auto node = fabric.add_node("client");
  Actor actor("client", &fabric.node(node));
  ActorScope scope(actor);
  via::Nic nic(fabric, node, "nic");

  auto s = dafs::Session::connect(nic, g.mount(1, 0));
  ASSERT_TRUE(s.ok()) << dafs::to_string(s.error());
  const int l = g.leader();
  ASSERT_GE(l, 0);
  EXPECT_EQ(s.value()->active_service(), g.client_service(l));
  EXPECT_GE(fabric.stats().get("dafs.endpoint_demotions"), 1u);
  EXPECT_TRUE(s.value()->fetch_add("elect.ctr", 1).ok());
  s.value().reset();
}

// ---------------------------------------------------------------------------
// Hostile wire: the replication channel's one frame check
// ---------------------------------------------------------------------------

TEST(ReplFrame, RefusesEveryMalformedFrameOfEveryOp) {
  using dafs::ReplOp;
  // Every op of the channel; for kAppend and kBlockData `len` counts the
  // payload that must follow the header, for the rest it is payload-free
  // (a kBlockFetch names the bytes it wants).
  struct OpCase {
    ReplOp op;
    bool payload;
  };
  constexpr OpCase kOps[] = {
      {ReplOp::kVoteReq, false},    {ReplOp::kVoteResp, false},
      {ReplOp::kAppend, true},      {ReplOp::kAppendResp, false},
      {ReplOp::kBlockFetch, false}, {ReplOp::kBlockData, true},
  };
  constexpr std::uint32_t kLen = 24;
  constexpr std::size_t kHdr = sizeof(dafs::ReplHeader);
  // A mutation of a well-formed frame and whether the check must accept it.
  struct Case {
    const char* what;
    std::function<void(std::vector<std::byte>&)> mutate;
    bool payload_only;  // applies to kAppend and kBlockData only
    bool accept;
  };
  const auto set_op = [](std::vector<std::byte>& f, std::uint8_t op) {
    std::memcpy(f.data() + offsetof(dafs::ReplHeader, op), &op, 1);
  };
  const std::vector<Case> cases = {
      {"well formed", [](auto&) {}, false, true},
      {"empty", [](auto& f) { f.clear(); }, false, false},
      {"one byte short of a header",
       [](auto& f) { f.resize(kHdr - 1); }, false, false},
      {"wrong magic",
       [](auto& f) { f[0] ^= std::byte{1}; }, false, false},
      {"unknown op 0", [&](auto& f) { set_op(f, 0); }, false, false},
      {"unknown op 7", [&](auto& f) { set_op(f, 7); }, false, false},
      {"unknown op 255", [&](auto& f) { set_op(f, 255); }, false,
       false},
      {"payload one byte short", [](auto& f) { f.pop_back(); }, true,
       false},
      {"payload one byte long",
       [](auto& f) { f.push_back(std::byte{0}); }, true, false},
  };
  for (const OpCase& oc : kOps) {
    for (const Case& c : cases) {
      if (c.payload_only && !oc.payload) continue;
      SCOPED_TRACE(::testing::Message()
                   << "op " << static_cast<int>(oc.op) << ": " << c.what);
      dafs::ReplHeader h;
      h.op = oc.op;
      h.epoch = 7;
      h.len = kLen;
      std::vector<std::byte> frame(kHdr + (oc.payload ? kLen : 0));
      std::memcpy(frame.data(), &h, kHdr);
      c.mutate(frame);
      dafs::ReplHeader out;
      out.epoch = 0;
      ASSERT_EQ(dafs::parse_repl_frame(frame, out), c.accept);
      if (c.accept) {
        EXPECT_EQ(out.op, oc.op);
        EXPECT_EQ(out.epoch, 7u);
        EXPECT_EQ(out.len, kLen);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Hostile wire: an append is only the bytes that arrived
// ---------------------------------------------------------------------------

TEST(Quorum, AppendClaimingUnsentBytesIsRefused) {
  // One live member of a three-member group. Its peers never start and its
  // election timer is a minute away, so it follows whoever sends appends.
  sim::Fabric fabric;
  dafs::ServerConfig cfg = dafs_test::quorum_test_config();
  cfg.service = "dafs-h0";
  cfg.quorum_group = {"dafs-h-raft-0", "dafs-h-raft-1", "dafs-h-raft-2"};
  cfg.election_timeout_min_ms = 60'000;
  cfg.election_timeout_max_ms = 120'000;
  dafs::Server follower(fabric, fabric.add_node("filer-0"), cfg);
  follower.start();

  const auto node = fabric.add_node("peer");
  Actor actor("peer", &fabric.node(node));
  ActorScope scope(actor);
  via::Nic nic(fabric, node, "nic");
  const via::ProtectionTag tag = nic.create_ptag();
  via::Vi vi(nic, via::ViAttrs{});
  std::vector<std::byte> reply(sizeof(dafs::ReplHeader));
  const via::MemHandle reply_h =
      nic.register_memory(reply.data(), reply.size(), tag, {});
  via::Descriptor reply_d;
  const auto post_reply = [&] {
    reply_d = via::Descriptor{};
    reply_d.segs = {via::DataSegment{
        reply.data(), reply_h, static_cast<std::uint32_t>(reply.size())}};
    return vi.post_recv(reply_d) == via::Status::kSuccess;
  };
  // The member's replication listener comes up on its own thread.
  via::Status cst = via::Status::kNoMatchingListener;
  for (int i = 0; i < 5'000 && cst == via::Status::kNoMatchingListener; ++i) {
    cst = nic.connect(vi, "dafs-h-raft-0", std::chrono::milliseconds(500));
    if (cst != via::Status::kSuccess) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_EQ(cst, via::Status::kSuccess);
  ASSERT_TRUE(post_reply());

  // Real journal records to ship: one term mark from a donor log.
  constexpr std::uint64_t kTerm = 7;
  fstore::FStoreJournal donor;
  fstore::RecWriter w;
  w.u64(kTerm);
  donor.append(fstore::RecType::kTermMark, w.out());
  const std::vector<std::byte> records = donor.read(0, SIZE_MAX);

  std::vector<std::byte> msg(dafs::kReplBufSize);
  const via::MemHandle msg_h =
      nic.register_memory(msg.data(), msg.size(), tag, {});
  // Sends `payload_sent` bytes of payload behind a header claiming `len`.
  const auto send_append = [&](std::uint64_t offset, std::uint64_t prev_term,
                               std::size_t payload_sent) {
    dafs::ReplHeader h;
    h.op = dafs::ReplOp::kAppend;
    h.epoch = kTerm;
    h.offset = offset;
    h.prev_term = prev_term;
    h.member = 1;
    h.len = static_cast<std::uint32_t>(records.size());
    std::memcpy(msg.data(), &h, sizeof(h));
    std::memcpy(msg.data() + sizeof(h), records.data(), payload_sent);
    via::Descriptor d;
    d.op = via::Opcode::kSend;
    d.segs = {via::DataSegment{
        msg.data(), msg_h,
        static_cast<std::uint32_t>(sizeof(h) + payload_sent)}};
    via::Descriptor* done = nullptr;
    return vi.post_send(d) == via::Status::kSuccess &&
           vi.send_wait(done, std::chrono::milliseconds(500)) ==
               via::Status::kSuccess &&
           done->status == via::DescStatus::kSuccess;
  };

  // Well-formed appends of the same records at offset 0, once per receive
  // buffer the follower keeps posted, so every one of them still holds the
  // records after its own message was served.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(send_append(0, 0, records.size()));
    via::Descriptor* got = nullptr;
    ASSERT_EQ(vi.recv_wait(got, std::chrono::milliseconds(2'000)),
              via::Status::kSuccess);
    dafs::ReplHeader r;
    std::memcpy(&r, reply.data(), sizeof(r));
    ASSERT_EQ(r.op, dafs::ReplOp::kAppendResp);
    ASSERT_EQ(r.status, 1);
    ASSERT_EQ(r.offset, records.size());
    ASSERT_TRUE(post_reply());
  }
  const std::vector<std::byte> before = journal_of(follower);
  ASSERT_EQ(before, records);

  // A header that claims the records again but arrives alone. Trusting it
  // would import the previous message's leftovers as fresh journal records.
  const std::uint64_t malformed = fabric.stats().get("dafs.raft_malformed");
  ASSERT_TRUE(send_append(records.size(), kTerm, 0));
  for (int i = 0; i < 2'000 && vi.state() == via::Vi::State::kConnected; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_NE(vi.state(), via::Vi::State::kConnected)
      << "the follower must drop a peer that lies about its payload";
  EXPECT_EQ(journal_of(follower), before);
  EXPECT_EQ(fabric.stats().get("dafs.raft_malformed"), malformed + 1);
  vi.disconnect();
  follower.stop();
}

// ---------------------------------------------------------------------------
// Hostile wire: a vote is a whole reply
// ---------------------------------------------------------------------------

TEST(Quorum, ShortVoteReplyIsNotAGrantedVote) {
  // Member 0 of a three-member group. Member 2 never starts; member 1 is a
  // fake that answers every vote request with only the first 8 bytes of a
  // granted kVoteResp (magic, op, status=1). Counting that stub as a vote
  // would hand member 0 a majority.
  sim::Fabric fabric;
  dafs::ServerConfig cfg = dafs_test::quorum_test_config();
  cfg.service = "dafs-v0";
  cfg.quorum_group = {"dafs-v-raft-0", "dafs-v-raft-1", "dafs-v-raft-2"};
  const auto peer_node = fabric.add_node("peer");
  dafs::Server member(fabric, fabric.add_node("filer-0"), cfg);

  std::atomic<bool> stop{false};
  std::atomic<int> stubs{0};
  std::thread peer([&] {
    Actor actor("fake-peer", &fabric.node(peer_node));
    ActorScope scope(actor);
    via::Nic nic(fabric, peer_node, "nic");
    const via::ProtectionTag tag = nic.create_ptag();
    via::Listener listener(nic, "dafs-v-raft-1");
    std::vector<std::byte> in(dafs::kReplBufSize);
    std::vector<std::byte> out(sizeof(dafs::ReplHeader));
    const via::MemHandle in_h =
        nic.register_memory(in.data(), in.size(), tag, {});
    const via::MemHandle out_h =
        nic.register_memory(out.data(), out.size(), tag, {});
    while (!stop.load()) {
      // Declared before the VI, whose destructor flushes the posted receive.
      via::Descriptor rd;
      via::Vi vi(nic, via::ViAttrs{});
      const auto post = [&] {
        rd = via::Descriptor{};
        rd.segs = {via::DataSegment{in.data(), in_h,
                                    static_cast<std::uint32_t>(in.size())}};
        return vi.post_recv(rd) == via::Status::kSuccess;
      };
      if (!post() || listener.accept(vi, std::chrono::milliseconds(20)) !=
                         via::Status::kSuccess) {
        continue;
      }
      while (!stop.load()) {
        via::Descriptor* got = nullptr;
        const via::Status st =
            vi.recv_wait(got, std::chrono::milliseconds(20));
        if (st == via::Status::kTimeout) continue;
        if (st != via::Status::kSuccess ||
            got->status != via::DescStatus::kSuccess) {
          break;
        }
        dafs::ReplHeader req;
        std::memcpy(&req, in.data(), sizeof(req));
        if (req.op != dafs::ReplOp::kVoteReq || !post()) break;
        dafs::ReplHeader stub;
        stub.op = dafs::ReplOp::kVoteResp;
        stub.status = 1;
        std::memcpy(out.data(), &stub, 8);
        via::Descriptor sd;
        sd.op = via::Opcode::kSend;
        sd.segs = {via::DataSegment{out.data(), out_h, 8}};
        via::Descriptor* sent = nullptr;
        if (vi.post_send(sd) != via::Status::kSuccess ||
            vi.send_wait(sent, std::chrono::milliseconds(500)) !=
                via::Status::kSuccess) {
          break;
        }
        ++stubs;
      }
      vi.disconnect();
    }
  });

  member.start();
  // Several election timeouts (50-100 ms each) of stub replies.
  bool led = false;
  for (int i = 0; i < 600 && !(led && stubs.load() > 0); ++i) {
    led = led || member.role() == Role::kLeader;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const int stubbed = stubs.load();
  member.stop();
  stop.store(true);
  peer.join();

  ASSERT_GT(stubbed, 0) << "the fake peer never answered a vote request";
  EXPECT_FALSE(led) << "an 8-byte reply counted as a granted vote";
  EXPECT_EQ(fabric.stats().get("dafs.elections_won"), 0u);
  EXPECT_GE(fabric.stats().get("dafs.raft_malformed"), 1u);
}

// ---------------------------------------------------------------------------
// Capstone 1: seeded kill-the-leader sweep mid-collective-write
// ---------------------------------------------------------------------------

/// One seed: a 4-rank world writes a durable baseline through the leader,
/// then the crash schedule kills the leader mid-collective-write. The group
/// elects a successor, every rank finishes through it (synced bytes
/// byte-exact, counter mutations exactly-once through the durable dup
/// filter), and the deposed member restarts, rejoins as a follower and
/// re-silvers to a byte-identical journal — all without a manual restart.
void run_kill_world(std::uint64_t seed, std::size_t replicas) {
  const auto wall_start = std::chrono::steady_clock::now();
  constexpr int kRanks = 4;
  constexpr int kAdds = 5;
  constexpr std::uint64_t kDelta = 7;

  sim::Fabric fabric;
  QuorumBed g(fabric, replicas, "dafs-q");
  const int l0 = g.wait_leader();
  ASSERT_GE(l0, 0) << "seed " << seed;

  mpi::WorldConfig wcfg;
  wcfg.nprocs = kRanks;
  wcfg.fabric = &fabric;
  wcfg.name = "quorum-kill";
  mpi::World world(wcfg);
  world.run([&](Comm& c) {
    via::Nic nic(fabric, world.node_of(c.rank()), "cli");
    auto client = std::move(
        dafs::Client::connect(
            nic, g.mount(seed, c.rank(),
                         static_cast<std::size_t>(c.rank()) % replicas))
            .value());
    auto fa = std::move(File::open(c, "/a.dat",
                                   mpiio::kModeCreate | mpiio::kModeRdwr,
                                   Info{}, mpiio::dafs_driver(*client))
                            .value());
    auto fb = std::move(File::open(c, "/b.dat",
                                   mpiio::kModeCreate | mpiio::kModeRdwr,
                                   Info{}, mpiio::dafs_driver(*client))
                            .value());
    auto poll_fh = client->open("/a.dat").value();

    // Phase 1 (healthy group): durable baseline. Sync means the journal
    // bytes carrying it were committed at majority, so the baseline must
    // survive the leader's death byte-exact.
    const std::uint64_t off = c.rank() * kChunk;
    const auto da = pattern(kChunk, 1000 + seed * 10 + c.rank());
    ASSERT_TRUE(
        fa->write_at_all(off, da.data(), kChunk, Datatype::byte()).ok());
    ASSERT_EQ(fa->sync(), Err::kOk);
    c.barrier();

    // Arm: kill the leader — and only the leader — a few admitted requests
    // into phase 2, with a restart delay well past the election time.
    if (c.rank() == 0) {
      auto& plan = fabric.faults();
      plan.arm(seed);
      plan.restrict_crash_to_node(g.nodes[static_cast<std::size_t>(l0)]);
      plan.crash_server_after_requests(2 + seed * 3,
                                       /*restart_delay_ms=*/60);
    }
    c.barrier();

    // Phase 2 (crash lands here): collective writes plus counter traffic.
    const auto db = pattern(kChunk, 2000 + seed * 10 + c.rank());
    bool ok = false;
    for (int t = 0; t < 8 && !ok; ++t) {
      ok = fb->write_at_all(off, db.data(), kChunk, Datatype::byte()).ok();
    }
    ASSERT_TRUE(ok) << "collective write across leader death, seed " << seed;
    for (int i = 0; i < kAdds; ++i) {
      auto r = client->fetch_add("qk.ctr", kDelta);
      ASSERT_TRUE(r.ok()) << "fetch_add " << i << ", seed " << seed << ": "
                          << dafs::to_string(r.error());
    }
    c.barrier();

    // Make sure the armed crash actually fired, then wait for a successor.
    if (c.rank() == 0) {
      int guard = 0;
      while (fabric.stats().get("dafs.server_crashes") == 0 && guard++ < 500) {
        (void)client->getattr(poll_fh);
      }
      EXPECT_GE(fabric.stats().get("dafs.server_crashes"), 1u)
          << "seed " << seed;
      EXPECT_GE(g.wait_leader(), 0) << "seed " << seed;
      fabric.faults().clear();
    }
    c.barrier();

    // Phase 3 (on the successor): rewrite /b.dat clean and sync — acked but
    // un-synced phase-2 bytes legally died with the leader — then verify the
    // durable baseline never moved.
    ok = false;
    for (int t = 0; t < 8 && !ok; ++t) {
      ok = fb->write_at_all(off, db.data(), kChunk, Datatype::byte()).ok();
    }
    ASSERT_TRUE(ok) << "clean rewrite, seed " << seed;
    ASSERT_EQ(fb->sync(), Err::kOk);

    std::vector<std::byte> back(kChunk);
    ASSERT_TRUE(
        fa->read_at_all(off, back.data(), kChunk, Datatype::byte()).ok());
    EXPECT_EQ(std::memcmp(back.data(), da.data(), kChunk), 0)
        << "synced baseline after leader death, seed " << seed;
    ASSERT_TRUE(
        fb->read_at_all(off, back.data(), kChunk, Datatype::byte()).ok());
    EXPECT_EQ(std::memcmp(back.data(), db.data(), kChunk), 0);

    fa->close();
    fb->close();
  });

  // Exactly-once across the change of leadership, checked through a
  // pristine mount (it discovers the live leader on its own).
  {
    const auto node = fabric.add_node("verify");
    Actor actor("verify", &fabric.node(node));
    ActorScope scope(actor);
    via::Nic nic(fabric, node, "vnic");
    auto s = std::move(
        dafs::Session::connect(nic, g.mount(seed, 99)).value());
    EXPECT_EQ(s->fetch_add("qk.ctr", 0).value(),
              static_cast<std::uint64_t>(kRanks) * kAdds * kDelta)
        << "seed " << seed;
    for (const char* path : {"/a.dat", "/b.dat"}) {
      auto fh = s->open(path).value();
      const std::uint64_t base =
          std::string_view(path) == "/a.dat" ? 1000 : 2000;
      std::vector<std::byte> all(kRanks * kChunk);
      auto rd = s->pread(fh, 0, all);
      EXPECT_TRUE(rd.ok());
      if (!rd.ok()) continue;
      for (int r = 0; r < kRanks; ++r) {
        const auto expect = pattern(kChunk, base + seed * 10 + r);
        EXPECT_EQ(
            std::memcmp(all.data() + r * kChunk, expect.data(), kChunk), 0)
            << path << " rank " << r << " seed " << seed;
      }
    }
    s.reset();
  }

  // Automatic rejoin + re-silver: the deposed member comes back on its own
  // restart schedule and catches up until its journal is byte-identical to
  // the leader's — no manual intervention anywhere.
  wait_restart(g.member(l0));
  const int lf = g.wait_leader();
  ASSERT_GE(lf, 0) << "seed " << seed;
  EXPECT_TRUE(wait_journal_match(g.member(lf), g.member(l0)))
      << "deposed member never re-silvered, seed " << seed;
  EXPECT_GE(fabric.stats().get("dafs.elections_won"), 2u) << "seed " << seed;

  EXPECT_LT(std::chrono::steady_clock::now() - wall_start,
            std::chrono::seconds(90))
      << "seed " << seed;
}

TEST(Quorum, SeededKillLeaderSweep3) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) run_kill_world(seed, 3);
}

TEST(Quorum, SeededKillLeaderSweep5) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) run_kill_world(seed, 5);
}

// ---------------------------------------------------------------------------
// Capstone 2: seeded partition-the-leader sweep (term-based fencing)
// ---------------------------------------------------------------------------

/// One seed: sever both directions between the leader and every other
/// member mid-collective-write (clients can still reach it — the dangerous
/// case). The stranded leader's lease expires and it steps down, so it can
/// never acknowledge a write the majority side does not have; the rest
/// elect a successor and every rank finishes there. The partition heals on
/// its own and the ex-leader truncates its divergent suffix and re-silvers
/// back to byte-identical journal state.
void run_partition_world(std::uint64_t seed, std::size_t replicas) {
  const auto wall_start = std::chrono::steady_clock::now();
  constexpr int kRanks = 4;
  constexpr int kAdds = 5;
  constexpr std::uint64_t kDelta = 7;

  sim::Fabric fabric;
  QuorumBed g(fabric, replicas, "dafs-q");
  const int l0 = g.wait_leader();
  ASSERT_GE(l0, 0) << "seed " << seed;

  mpi::WorldConfig wcfg;
  wcfg.nprocs = kRanks;
  wcfg.fabric = &fabric;
  wcfg.name = "quorum-part";
  mpi::World world(wcfg);
  world.run([&](Comm& c) {
    via::Nic nic(fabric, world.node_of(c.rank()), "cli");
    auto client = std::move(
        dafs::Client::connect(
            nic, g.mount(seed, c.rank(),
                         static_cast<std::size_t>(c.rank()) % replicas))
            .value());
    auto fa = std::move(File::open(c, "/a.dat",
                                   mpiio::kModeCreate | mpiio::kModeRdwr,
                                   Info{}, mpiio::dafs_driver(*client))
                            .value());

    // Durable baseline through the healthy group.
    const std::uint64_t off = c.rank() * kChunk;
    const auto da = pattern(kChunk, 3000 + seed * 10 + c.rank());
    ASSERT_TRUE(
        fa->write_at_all(off, da.data(), kChunk, Datatype::byte()).ok());
    ASSERT_EQ(fa->sync(), Err::kOk);
    c.barrier();

    // Strand the leader: sever it from every other member (both
    // directions), healing automatically after 400 ms. Client links stay
    // up, so the stranded leader keeps *receiving* requests — term fencing
    // is what must stop it acknowledging them.
    if (c.rank() == 0) {
      for (std::size_t i = 0; i < replicas; ++i) {
        if (static_cast<int>(i) == l0) continue;
        fabric.faults().partition_nodes(
            g.nodes[static_cast<std::size_t>(l0)], g.nodes[i],
            /*heal_after_ms=*/400);
      }
    }
    c.barrier();

    // Mid-partition collective writes plus counter traffic: requests that
    // reached the stranded leader come back kNotLeader (commit barrier
    // cannot reach majority), and recovery routes everything to the
    // successor.
    const auto db = pattern(kChunk, 4000 + seed * 10 + c.rank());
    bool ok = false;
    for (int t = 0; t < 10 && !ok; ++t) {
      ok = fa->write_at_all(off + kRanks * kChunk, db.data(), kChunk,
                            Datatype::byte())
               .ok();
    }
    ASSERT_TRUE(ok) << "collective write across partition, seed " << seed;
    for (int i = 0; i < kAdds; ++i) {
      auto r = client->fetch_add("qp.ctr", kDelta);
      ASSERT_TRUE(r.ok()) << "fetch_add " << i << ", seed " << seed << ": "
                          << dafs::to_string(r.error());
    }
    ASSERT_EQ(fa->sync(), Err::kOk);
    c.barrier();

    // The durable baseline never moved.
    std::vector<std::byte> back(kChunk);
    ASSERT_TRUE(
        fa->read_at_all(off, back.data(), kChunk, Datatype::byte()).ok());
    EXPECT_EQ(std::memcmp(back.data(), da.data(), kChunk), 0)
        << "synced baseline across partition, seed " << seed;

    fa->close();
  });

  // The stranded leader must have stepped down (lease expiry beats the
  // partition healing), and a successor must have taken over.
  EXPECT_GE(fabric.stats().get("dafs.leader_lease_expirations"), 1u)
      << "seed " << seed;
  EXPECT_GE(fabric.stats().get("dafs.leader_stepdowns"), 1u)
      << "seed " << seed;

  // Exactly-once through a pristine mount.
  {
    const auto node = fabric.add_node("verify");
    Actor actor("verify", &fabric.node(node));
    ActorScope scope(actor);
    via::Nic nic(fabric, node, "vnic");
    auto s = std::move(
        dafs::Session::connect(nic, g.mount(seed, 99)).value());
    EXPECT_EQ(s->fetch_add("qp.ctr", 0).value(),
              static_cast<std::uint64_t>(kRanks) * kAdds * kDelta)
        << "seed " << seed;
    auto fh = s->open("/a.dat").value();
    std::vector<std::byte> all(2 * kRanks * kChunk);
    auto rd = s->pread(fh, 0, all);
    EXPECT_TRUE(rd.ok());
    if (rd.ok()) {
      for (int r = 0; r < kRanks; ++r) {
        const auto base = pattern(kChunk, 3000 + seed * 10 + r);
        const auto mid = pattern(kChunk, 4000 + seed * 10 + r);
        EXPECT_EQ(
            std::memcmp(all.data() + r * kChunk, base.data(), kChunk), 0)
            << "baseline rank " << r << " seed " << seed;
        EXPECT_EQ(std::memcmp(all.data() + (kRanks + r) * kChunk, mid.data(),
                              kChunk),
                  0)
            << "mid-partition rank " << r << " seed " << seed;
      }
    }
    s.reset();
  }

  // Healed: the ex-leader rejoins as a follower, truncates whatever suffix
  // it journaled but never committed, and catches up to byte-identical
  // journal state.
  const int lf = g.wait_leader();
  ASSERT_GE(lf, 0) << "seed " << seed;
  EXPECT_TRUE(wait_journal_match(g.member(lf), g.member(l0)))
      << "ex-leader never re-silvered, seed " << seed;
  EXPECT_TRUE(g.member(l0).resilver_bytes() > 0 ||
              fabric.stats().get("dafs.resilver_truncated_bytes") > 0)
      << "no re-silver happened at all, seed " << seed;

  EXPECT_LT(std::chrono::steady_clock::now() - wall_start,
            std::chrono::seconds(90))
      << "seed " << seed;
}

TEST(Quorum, SeededPartitionLeaderSweep3) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    run_partition_world(seed, 3);
  }
}

TEST(Quorum, SeededPartitionLeaderSweep5) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    run_partition_world(seed, 5);
  }
}

}  // namespace
