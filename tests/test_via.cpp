#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <numeric>
#include <thread>
#include <vector>

#include "sim/actor.hpp"
#include "sim/fabric.hpp"
#include "via/vi.hpp"

namespace {

using namespace std::chrono_literals;
using sim::Actor;
using sim::ActorScope;
using sim::Fabric;
using via::CompletionQueue;
using via::DataSegment;
using via::Descriptor;
using via::DescStatus;
using via::Listener;
using via::MemAttrs;
using via::MemHandle;
using via::Nic;
using via::Opcode;
using via::ProtectionTag;
using via::ReliabilityLevel;
using via::Status;
using via::Vi;
using via::ViAttrs;

constexpr auto kWait = 2000ms;

/// Two nodes, two NICs, a connected VI pair, and an actor per side.
class ViaPairTest : public ::testing::Test {
 protected:
  ViaPairTest()
      : na_(fabric_.add_node("client")),
        nb_(fabric_.add_node("server")),
        nic_a_(fabric_, na_, "nicA"),
        nic_b_(fabric_, nb_, "nicB"),
        actor_a_("client", &fabric_.node(na_)),
        actor_b_("server", &fabric_.node(nb_)) {}

  void Connect(ViAttrs attrs = {}, CompletionQueue* send_cq_a = nullptr,
               CompletionQueue* recv_cq_a = nullptr,
               CompletionQueue* send_cq_b = nullptr,
               CompletionQueue* recv_cq_b = nullptr) {
    vi_a_ = std::make_unique<Vi>(nic_a_, attrs, send_cq_a, recv_cq_a);
    vi_b_ = std::make_unique<Vi>(nic_b_, attrs, send_cq_b, recv_cq_b);
    Listener lis(nic_b_, "svc");
    std::thread server([&] {
      ActorScope scope(actor_b_);
      ASSERT_EQ(lis.accept(*vi_b_, kWait), Status::kSuccess);
    });
    {
      ActorScope scope(actor_a_);
      ASSERT_EQ(nic_a_.connect(*vi_a_, "svc", kWait), Status::kSuccess);
    }
    server.join();
  }

  MemHandle Register(Nic& nic, Actor& actor, void* p, std::size_t n,
                     MemAttrs attrs = {}) {
    ActorScope scope(actor);
    return nic.register_memory(p, n, nic.create_ptag(), attrs);
  }

  Fabric fabric_;
  sim::NodeId na_, nb_;
  Nic nic_a_, nic_b_;
  Actor actor_a_, actor_b_;
  std::unique_ptr<Vi> vi_a_, vi_b_;
};

// ---------------------------------------------------------------------------
// Memory registration
// ---------------------------------------------------------------------------

TEST_F(ViaPairTest, RegisterValidateDeregister) {
  std::vector<std::byte> buf(4096);
  const MemHandle h = Register(nic_a_, actor_a_, buf.data(), buf.size());
  EXPECT_NE(h, via::kInvalidMemHandle);
  EXPECT_TRUE(nic_a_.memory().validate_local(h, buf.data(), buf.size()));
  EXPECT_TRUE(nic_a_.memory().validate_local(h, buf.data() + 100, 10));
  EXPECT_FALSE(nic_a_.memory().validate_local(h, buf.data() + 1, buf.size()));
  EXPECT_FALSE(nic_a_.memory().validate_local(h + 99, buf.data(), 1));
  ActorScope scope(actor_a_);
  EXPECT_EQ(nic_a_.deregister_memory(h), Status::kSuccess);
  EXPECT_FALSE(nic_a_.memory().validate_local(h, buf.data(), 1));
  EXPECT_EQ(nic_a_.deregister_memory(h), Status::kInvalidParameter);
}

TEST_F(ViaPairTest, RegistrationChargesPinningCost) {
  std::vector<std::byte> buf(64 * 1024);
  const sim::Time before = actor_a_.busy()[sim::CostKind::kRegistration];
  Register(nic_a_, actor_a_, buf.data(), buf.size());
  const sim::Time after = actor_a_.busy()[sim::CostKind::kRegistration];
  EXPECT_EQ(after - before, fabric_.cost().reg_time(buf.size()));
}

TEST_F(ViaPairTest, RdmaValidationRespectsAccessFlags) {
  std::vector<std::byte> buf(4096);
  MemAttrs wr;
  wr.enable_rdma_write = true;
  const MemHandle h = Register(nic_a_, actor_a_, buf.data(), buf.size(), wr);
  const auto addr = reinterpret_cast<std::uint64_t>(buf.data());
  EXPECT_EQ(nic_a_.memory().validate_rdma(h, addr, 100, true),
            Status::kSuccess);
  EXPECT_EQ(nic_a_.memory().validate_rdma(h, addr, 100, false),
            Status::kInvalidRdmaOp);
  EXPECT_EQ(nic_a_.memory().validate_rdma(h, addr + 4000, 1000, true),
            Status::kInvalidMemory);
  EXPECT_EQ(nic_a_.memory().validate_rdma(h + 7, addr, 1, true),
            Status::kInvalidMemory);
}

// ---------------------------------------------------------------------------
// Connection management
// ---------------------------------------------------------------------------

TEST_F(ViaPairTest, ConnectAcceptEstablishesBothEnds) {
  Connect();
  EXPECT_TRUE(vi_a_->connected());
  EXPECT_TRUE(vi_b_->connected());
  EXPECT_GT(actor_a_.now(), 0u);
  EXPECT_GT(actor_b_.now(), 0u);
}

TEST_F(ViaPairTest, ConnectToUnknownServiceFails) {
  Vi vi(nic_a_, {});
  ActorScope scope(actor_a_);
  EXPECT_EQ(nic_a_.connect(vi, "nobody-home", 100ms),
            Status::kNoMatchingListener);
  EXPECT_FALSE(vi.connected());
}

TEST_F(ViaPairTest, ConnectTimesOutWithoutAccept) {
  Vi vi(nic_a_, {});
  Listener lis(nic_b_, "svc");
  ActorScope scope(actor_a_);
  EXPECT_EQ(nic_a_.connect(vi, "svc", 50ms), Status::kTimeout);
}

TEST_F(ViaPairTest, RejectRefusesConnection) {
  Vi vi(nic_a_, {});
  Listener lis(nic_b_, "svc");
  std::thread server([&] {
    ActorScope scope(actor_b_);
    EXPECT_EQ(lis.reject(kWait), Status::kSuccess);
  });
  ActorScope scope(actor_a_);
  EXPECT_EQ(nic_a_.connect(vi, "svc", kWait), Status::kRejected);
  server.join();
  EXPECT_FALSE(vi.connected());
}

TEST_F(ViaPairTest, ListenerDestructionRejectsWaiters) {
  Vi vi(nic_a_, {});
  auto lis = std::make_unique<Listener>(nic_b_, "svc");
  std::thread closer([&] {
    std::this_thread::sleep_for(50ms);
    lis.reset();
  });
  ActorScope scope(actor_a_);
  EXPECT_EQ(nic_a_.connect(vi, "svc", kWait), Status::kRejected);
  closer.join();
}

TEST_F(ViaPairTest, AcceptTimesOutWithNoConnector) {
  Vi vi(nic_b_, {});
  Listener lis(nic_b_, "svc");
  ActorScope scope(actor_b_);
  EXPECT_EQ(lis.accept(vi, 50ms), Status::kTimeout);
}

// ---------------------------------------------------------------------------
// Send / receive
// ---------------------------------------------------------------------------

TEST_F(ViaPairTest, SendDeliversBytesToPostedReceive) {
  Connect();
  std::vector<std::byte> src(1024), dst(1024);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<std::byte>(i & 0xff);
  }
  const MemHandle hs = Register(nic_a_, actor_a_, src.data(), src.size());
  const MemHandle hd = Register(nic_b_, actor_b_, dst.data(), dst.size());

  Descriptor recv;
  recv.segs = {DataSegment{dst.data(), hd, 1024}};
  ASSERT_EQ(vi_b_->post_recv(recv), Status::kSuccess);

  Descriptor send;
  send.op = Opcode::kSend;
  send.segs = {DataSegment{src.data(), hs, 1024}};
  {
    ActorScope scope(actor_a_);
    ASSERT_EQ(vi_a_->post_send(send), Status::kSuccess);
    Descriptor* done = nullptr;
    ASSERT_EQ(vi_a_->send_wait(done, kWait), Status::kSuccess);
    EXPECT_EQ(done, &send);
    EXPECT_EQ(done->status, DescStatus::kSuccess);
    EXPECT_EQ(done->length, 1024u);
  }
  {
    ActorScope scope(actor_b_);
    Descriptor* done = nullptr;
    ASSERT_EQ(vi_b_->recv_wait(done, kWait), Status::kSuccess);
    EXPECT_EQ(done, &recv);
    EXPECT_EQ(done->status, DescStatus::kSuccess);
    EXPECT_EQ(done->length, 1024u);
  }
  EXPECT_EQ(std::memcmp(src.data(), dst.data(), 1024), 0);
}

TEST_F(ViaPairTest, GatherScatterAcrossUnevenSegments) {
  Connect();
  std::vector<std::byte> s1(300), s2(724), d1(100), d2(512), d3(412);
  for (std::size_t i = 0; i < s1.size(); ++i) s1[i] = std::byte{0x5a};
  for (std::size_t i = 0; i < s2.size(); ++i) s2[i] = std::byte{0xa5};
  const MemHandle h1 = Register(nic_a_, actor_a_, s1.data(), s1.size());
  const MemHandle h2 = Register(nic_a_, actor_a_, s2.data(), s2.size());
  const MemHandle g1 = Register(nic_b_, actor_b_, d1.data(), d1.size());
  const MemHandle g2 = Register(nic_b_, actor_b_, d2.data(), d2.size());
  const MemHandle g3 = Register(nic_b_, actor_b_, d3.data(), d3.size());

  Descriptor recv;
  recv.segs = {DataSegment{d1.data(), g1, 100}, DataSegment{d2.data(), g2, 512},
               DataSegment{d3.data(), g3, 412}};
  ASSERT_EQ(vi_b_->post_recv(recv), Status::kSuccess);

  Descriptor send;
  send.segs = {DataSegment{s1.data(), h1, 300}, DataSegment{s2.data(), h2, 724}};
  ActorScope scope(actor_a_);
  ASSERT_EQ(vi_a_->post_send(send), Status::kSuccess);
  Descriptor* done = nullptr;
  ASSERT_EQ(vi_a_->send_wait(done, kWait), Status::kSuccess);

  // Reconstruct and compare the concatenated streams.
  std::vector<std::byte> expect;
  expect.insert(expect.end(), s1.begin(), s1.end());
  expect.insert(expect.end(), s2.begin(), s2.end());
  std::vector<std::byte> got;
  got.insert(got.end(), d1.begin(), d1.end());
  got.insert(got.end(), d2.begin(), d2.end());
  got.insert(got.end(), d3.begin(), d3.end());
  EXPECT_EQ(std::memcmp(expect.data(), got.data(), expect.size()), 0);
}

TEST_F(ViaPairTest, ImmediateDataTravelsWithSend) {
  Connect();
  Descriptor recv;
  ASSERT_EQ(vi_b_->post_recv(recv), Status::kSuccess);
  Descriptor send;
  send.has_immediate = true;
  send.immediate = 0xdeadbeef;
  ActorScope scope(actor_a_);
  ASSERT_EQ(vi_a_->post_send(send), Status::kSuccess);
  ActorScope scope_b(actor_b_);
  Descriptor* done = nullptr;
  ASSERT_EQ(vi_b_->recv_wait(done, kWait), Status::kSuccess);
  EXPECT_TRUE(done->recv_has_immediate);
  EXPECT_EQ(done->recv_immediate, 0xdeadbeefu);
  EXPECT_EQ(done->length, 0u);
}

TEST_F(ViaPairTest, SendLongerThanReceiveBufferErrorsBothSides) {
  Connect();
  std::vector<std::byte> src(2048), dst(512);
  const MemHandle hs = Register(nic_a_, actor_a_, src.data(), src.size());
  const MemHandle hd = Register(nic_b_, actor_b_, dst.data(), dst.size());
  Descriptor recv;
  recv.segs = {DataSegment{dst.data(), hd, 512}};
  ASSERT_EQ(vi_b_->post_recv(recv), Status::kSuccess);
  Descriptor send;
  send.segs = {DataSegment{src.data(), hs, 2048}};
  ActorScope scope(actor_a_);
  ASSERT_EQ(vi_a_->post_send(send), Status::kSuccess);
  Descriptor* done = nullptr;
  ASSERT_EQ(vi_a_->send_wait(done, kWait), Status::kSuccess);
  EXPECT_EQ(done->status, DescStatus::kFormatError);
  ActorScope scope_b(actor_b_);
  Descriptor* rdone = nullptr;
  ASSERT_EQ(vi_b_->recv_wait(rdone, kWait), Status::kSuccess);
  EXPECT_EQ(rdone->status, DescStatus::kFormatError);
}

TEST_F(ViaPairTest, UnregisteredSendSegmentCompletesWithProtectionError) {
  Connect();
  std::vector<std::byte> src(128);
  Descriptor send;
  send.segs = {DataSegment{src.data(), 12345, 128}};
  ActorScope scope(actor_a_);
  ASSERT_EQ(vi_a_->post_send(send), Status::kSuccess);
  Descriptor* done = nullptr;
  ASSERT_EQ(vi_a_->send_wait(done, kWait), Status::kSuccess);
  EXPECT_EQ(done->status, DescStatus::kProtectionError);
}

TEST_F(ViaPairTest, PostRecvRejectsUnregisteredMemory) {
  Connect();
  std::vector<std::byte> dst(128);
  Descriptor recv;
  recv.segs = {DataSegment{dst.data(), 999, 128}};
  EXPECT_EQ(vi_b_->post_recv(recv), Status::kInvalidMemory);
}

TEST_F(ViaPairTest, PostSendOnIdleViFails) {
  Vi vi(nic_a_, {});
  Descriptor d;
  ActorScope scope(actor_a_);
  EXPECT_EQ(vi.post_send(d), Status::kInvalidState);
}

TEST_F(ViaPairTest, OversizedSendRejectedSynchronously) {
  ViAttrs attrs;
  attrs.max_transfer = 1024;
  Connect(attrs);
  std::vector<std::byte> src(2048);
  const MemHandle hs = Register(nic_a_, actor_a_, src.data(), src.size());
  Descriptor send;
  send.segs = {DataSegment{src.data(), hs, 2048}};
  ActorScope scope(actor_a_);
  EXPECT_EQ(vi_a_->post_send(send), Status::kInvalidParameter);
}

TEST_F(ViaPairTest, MessagesArriveInPostOrder) {
  Connect();
  std::vector<std::byte> dst(16);
  const MemHandle hd = Register(nic_b_, actor_b_, dst.data(), dst.size());
  std::vector<std::byte> src(16);
  const MemHandle hs = Register(nic_a_, actor_a_, src.data(), src.size());

  constexpr int kMsgs = 8;
  std::vector<Descriptor> recvs(kMsgs);
  for (auto& r : recvs) {
    r.segs = {DataSegment{dst.data(), hd, 16}};
    ASSERT_EQ(vi_b_->post_recv(r), Status::kSuccess);
  }
  std::vector<Descriptor> sends(kMsgs);
  ActorScope scope(actor_a_);
  for (int i = 0; i < kMsgs; ++i) {
    src[0] = static_cast<std::byte>(i);
    sends[i].segs = {DataSegment{src.data(), hs, 16}};
    ASSERT_EQ(vi_a_->post_send(sends[i]), Status::kSuccess);
  }
  ActorScope scope_b(actor_b_);
  sim::Time prev = 0;
  for (int i = 0; i < kMsgs; ++i) {
    Descriptor* done = nullptr;
    ASSERT_EQ(vi_b_->recv_wait(done, kWait), Status::kSuccess);
    EXPECT_EQ(done, &recvs[i]);  // FIFO on the VI
    EXPECT_GE(done->done_at, prev);
    prev = done->done_at;
  }
}

TEST_F(ViaPairTest, UnreliableViDropsWhenNoReceivePosted) {
  ViAttrs attrs;
  attrs.reliability = ReliabilityLevel::kUnreliable;
  Connect(attrs);
  std::vector<std::byte> src(64);
  const MemHandle hs = Register(nic_a_, actor_a_, src.data(), src.size());
  Descriptor send;
  send.segs = {DataSegment{src.data(), hs, 64}};
  ActorScope scope(actor_a_);
  ASSERT_EQ(vi_a_->post_send(send), Status::kSuccess);
  Descriptor* done = nullptr;
  ASSERT_EQ(vi_a_->send_wait(done, kWait), Status::kSuccess);
  // Fire-and-forget: the sender sees a dropped-frame completion, the
  // connection stays up.
  EXPECT_EQ(done->status, DescStatus::kDropped);
  EXPECT_TRUE(vi_a_->connected());
  EXPECT_EQ(fabric_.stats().get("via.unreliable_drops"), 1u);
}

TEST_F(ViaPairTest, StrictModeBreaksConnectionWhenNoReceivePosted) {
  ViAttrs attrs;
  attrs.strict_no_recv_error = true;
  Connect(attrs);
  std::vector<std::byte> src(64);
  const MemHandle hs = Register(nic_a_, actor_a_, src.data(), src.size());
  Descriptor send;
  send.segs = {DataSegment{src.data(), hs, 64}};
  ActorScope scope(actor_a_);
  ASSERT_EQ(vi_a_->post_send(send), Status::kSuccess);
  Descriptor* done = nullptr;
  ASSERT_EQ(vi_a_->send_wait(done, kWait), Status::kSuccess);
  EXPECT_EQ(done->status, DescStatus::kFlushed);
  EXPECT_EQ(vi_a_->state(), Vi::State::kError);
  EXPECT_EQ(vi_b_->state(), Vi::State::kError);
}

TEST_F(ViaPairTest, LenientModeWaitsForLateReceive) {
  Connect();
  std::vector<std::byte> src(64), dst(64);
  const MemHandle hs = Register(nic_a_, actor_a_, src.data(), src.size());
  const MemHandle hd = Register(nic_b_, actor_b_, dst.data(), dst.size());
  Descriptor recv;
  recv.segs = {DataSegment{dst.data(), hd, 64}};
  std::thread late([&] {
    std::this_thread::sleep_for(100ms);
    ASSERT_EQ(vi_b_->post_recv(recv), Status::kSuccess);
  });
  Descriptor send;
  send.segs = {DataSegment{src.data(), hs, 64}};
  ActorScope scope(actor_a_);
  ASSERT_EQ(vi_a_->post_send(send), Status::kSuccess);
  Descriptor* done = nullptr;
  ASSERT_EQ(vi_a_->send_wait(done, kWait), Status::kSuccess);
  EXPECT_EQ(done->status, DescStatus::kSuccess);
  late.join();
}

TEST_F(ViaPairTest, DisconnectFlushesPostedReceives) {
  Connect();
  std::vector<std::byte> dst(64);
  const MemHandle hd = Register(nic_b_, actor_b_, dst.data(), dst.size());
  Descriptor recv;
  recv.segs = {DataSegment{dst.data(), hd, 64}};
  ASSERT_EQ(vi_b_->post_recv(recv), Status::kSuccess);
  {
    ActorScope scope(actor_a_);
    vi_a_->disconnect();
  }
  ActorScope scope(actor_b_);
  Descriptor* done = nullptr;
  ASSERT_EQ(vi_b_->recv_wait(done, kWait), Status::kSuccess);
  EXPECT_EQ(done->status, DescStatus::kFlushed);
  EXPECT_EQ(vi_b_->state(), Vi::State::kDisconnected);
}

TEST_F(ViaPairTest, DisconnectWakesASenderAwaitingAReceive) {
  // No receive is posted on b, so a's send parks in b's lenient wait while
  // pinning b. Disconnecting b must wake it at once (the send flushes), not
  // sit out the lenient wait for that pin to drain.
  Connect();
  std::vector<std::byte> src(64);
  const MemHandle hs = Register(nic_a_, actor_a_, src.data(), src.size());
  Descriptor send;
  send.segs = {DataSegment{src.data(), hs, 64}};
  Status posted = Status::kInvalidState;
  Status reaped = Status::kInvalidState;
  Descriptor* done = nullptr;
  std::thread sender([&] {
    ActorScope scope(actor_a_);
    posted = vi_a_->post_send(send);
    reaped = vi_a_->send_wait(done, kWait);
  });
  std::this_thread::sleep_for(100ms);
  const auto t0 = std::chrono::steady_clock::now();
  {
    ActorScope scope(actor_b_);
    vi_b_->disconnect();
  }
  const auto took = std::chrono::steady_clock::now() - t0;
  sender.join();
  EXPECT_LT(took, 1s);
  ASSERT_EQ(posted, Status::kSuccess);
  ASSERT_EQ(reaped, Status::kSuccess);
  EXPECT_EQ(done->status, DescStatus::kFlushed);
}

TEST_F(ViaPairTest, SendAfterPeerDisconnectFailsSynchronously) {
  Connect();
  {
    ActorScope scope(actor_b_);
    vi_b_->disconnect();
  }
  // The disconnect propagated: this endpoint is no longer connected and the
  // post is refused up front (VIPL VIP_ERROR_STATE behaviour).
  EXPECT_EQ(vi_a_->state(), Vi::State::kDisconnected);
  std::vector<std::byte> src(64);
  const MemHandle hs = Register(nic_a_, actor_a_, src.data(), src.size());
  Descriptor send;
  send.segs = {DataSegment{src.data(), hs, 64}};
  ActorScope scope(actor_a_);
  EXPECT_EQ(vi_a_->post_send(send), Status::kInvalidState);
}

// ---------------------------------------------------------------------------
// RDMA
// ---------------------------------------------------------------------------

TEST_F(ViaPairTest, RdmaWritePlacesDataWithoutReceiveDescriptor) {
  Connect();
  std::vector<std::byte> src(4096), dst(4096);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<std::byte>(i * 7 & 0xff);
  }
  const MemHandle hs = Register(nic_a_, actor_a_, src.data(), src.size());
  MemAttrs attrs;
  attrs.enable_rdma_write = true;
  const MemHandle hd =
      Register(nic_b_, actor_b_, dst.data(), dst.size(), attrs);

  Descriptor w;
  w.op = Opcode::kRdmaWrite;
  w.segs = {DataSegment{src.data(), hs, 4096}};
  w.remote = {reinterpret_cast<std::uint64_t>(dst.data()), hd};
  ActorScope scope(actor_a_);
  ASSERT_EQ(vi_a_->post_send(w), Status::kSuccess);
  Descriptor* done = nullptr;
  ASSERT_EQ(vi_a_->send_wait(done, kWait), Status::kSuccess);
  EXPECT_EQ(done->status, DescStatus::kSuccess);
  EXPECT_EQ(std::memcmp(src.data(), dst.data(), 4096), 0);
  EXPECT_EQ(fabric_.stats().get("via.rdma_writes"), 1u);
}

TEST_F(ViaPairTest, RdmaWriteWithImmediateConsumesReceive) {
  Connect();
  std::vector<std::byte> src(256), dst(256);
  const MemHandle hs = Register(nic_a_, actor_a_, src.data(), src.size());
  MemAttrs attrs;
  attrs.enable_rdma_write = true;
  const MemHandle hd =
      Register(nic_b_, actor_b_, dst.data(), dst.size(), attrs);

  Descriptor recv;  // zero data segments: notification only
  ASSERT_EQ(vi_b_->post_recv(recv), Status::kSuccess);

  Descriptor w;
  w.op = Opcode::kRdmaWrite;
  w.segs = {DataSegment{src.data(), hs, 256}};
  w.remote = {reinterpret_cast<std::uint64_t>(dst.data()), hd};
  w.has_immediate = true;
  w.immediate = 42;
  ActorScope scope(actor_a_);
  ASSERT_EQ(vi_a_->post_send(w), Status::kSuccess);
  ActorScope scope_b(actor_b_);
  Descriptor* done = nullptr;
  ASSERT_EQ(vi_b_->recv_wait(done, kWait), Status::kSuccess);
  EXPECT_EQ(done->recv_immediate, 42u);
  EXPECT_EQ(done->length, 256u);  // reports the RDMA length
}

TEST_F(ViaPairTest, RdmaWriteWithoutPermissionFails) {
  Connect();
  std::vector<std::byte> src(64), dst(64);
  const MemHandle hs = Register(nic_a_, actor_a_, src.data(), src.size());
  const MemHandle hd = Register(nic_b_, actor_b_, dst.data(), dst.size());
  Descriptor w;
  w.op = Opcode::kRdmaWrite;
  w.segs = {DataSegment{src.data(), hs, 64}};
  w.remote = {reinterpret_cast<std::uint64_t>(dst.data()), hd};
  ActorScope scope(actor_a_);
  ASSERT_EQ(vi_a_->post_send(w), Status::kSuccess);
  Descriptor* done = nullptr;
  ASSERT_EQ(vi_a_->send_wait(done, kWait), Status::kSuccess);
  EXPECT_EQ(done->status, DescStatus::kRdmaProtectionError);
}

TEST_F(ViaPairTest, RdmaReadPullsRemoteData) {
  Connect();
  std::vector<std::byte> remote(8192), local(8192);
  for (std::size_t i = 0; i < remote.size(); ++i) {
    remote[i] = static_cast<std::byte>((i * 13) & 0xff);
  }
  MemAttrs attrs;
  attrs.enable_rdma_read = true;
  const MemHandle hr =
      Register(nic_b_, actor_b_, remote.data(), remote.size(), attrs);
  const MemHandle hl = Register(nic_a_, actor_a_, local.data(), local.size());

  Descriptor r;
  r.op = Opcode::kRdmaRead;
  r.segs = {DataSegment{local.data(), hl, 8192}};
  r.remote = {reinterpret_cast<std::uint64_t>(remote.data()), hr};
  ActorScope scope(actor_a_);
  ASSERT_EQ(vi_a_->post_send(r), Status::kSuccess);
  Descriptor* done = nullptr;
  ASSERT_EQ(vi_a_->send_wait(done, kWait), Status::kSuccess);
  EXPECT_EQ(done->status, DescStatus::kSuccess);
  EXPECT_EQ(std::memcmp(remote.data(), local.data(), 8192), 0);
  // RDMA read costs a round trip: strictly more than one propagation + wire.
  EXPECT_GT(done->done_at,
            fabric_.cost().propagation + fabric_.cost().wire_time(8192));
}

TEST_F(ViaPairTest, RdmaRequiresMatchingProtectionTag) {
  // Endpoints carry ptag 7; a region registered under a different tag must
  // be refused as an RDMA target even with the right access flags.
  ViAttrs attrs;
  attrs.ptag = 7;
  Connect(attrs);
  std::vector<std::byte> src(64), good(64), bad(64);
  const MemHandle hs = Register(nic_a_, actor_a_, src.data(), src.size());
  MemAttrs rw;
  rw.enable_rdma_write = true;
  MemHandle hg, hb;
  {
    ActorScope scope(actor_b_);
    hg = nic_b_.register_memory(good.data(), good.size(), 7, rw);
    hb = nic_b_.register_memory(bad.data(), bad.size(), 99, rw);
  }
  ActorScope scope(actor_a_);
  Descriptor w;
  w.op = Opcode::kRdmaWrite;
  w.segs = {DataSegment{src.data(), hs, 64}};
  w.remote = {reinterpret_cast<std::uint64_t>(bad.data()), hb};
  ASSERT_EQ(vi_a_->post_send(w), Status::kSuccess);
  Descriptor* done = nullptr;
  ASSERT_EQ(vi_a_->send_wait(done, kWait), Status::kSuccess);
  EXPECT_EQ(done->status, DescStatus::kRdmaProtectionError);

  Descriptor w2;
  w2.op = Opcode::kRdmaWrite;
  w2.segs = {DataSegment{src.data(), hs, 64}};
  w2.remote = {reinterpret_cast<std::uint64_t>(good.data()), hg};
  ASSERT_EQ(vi_a_->post_send(w2), Status::kSuccess);
  ASSERT_EQ(vi_a_->send_wait(done, kWait), Status::kSuccess);
  EXPECT_EQ(done->status, DescStatus::kSuccess);
}

TEST_F(ViaPairTest, ReliableReceptionCompletesSendAtArrival) {
  ViAttrs rr;
  rr.reliability = ReliabilityLevel::kReliableReception;
  Connect(rr);
  std::vector<std::byte> src(32 * 1024), dst(32 * 1024);
  const MemHandle hs = Register(nic_a_, actor_a_, src.data(), src.size());
  const MemHandle hd = Register(nic_b_, actor_b_, dst.data(), dst.size());
  Descriptor recv;
  recv.segs = {DataSegment{dst.data(), hd, 32 * 1024}};
  ASSERT_EQ(vi_b_->post_recv(recv), Status::kSuccess);
  Descriptor send;
  send.segs = {DataSegment{src.data(), hs, 32 * 1024}};
  ActorScope scope(actor_a_);
  ASSERT_EQ(vi_a_->post_send(send), Status::kSuccess);
  Descriptor* sd = nullptr;
  ASSERT_EQ(vi_a_->send_wait(sd, kWait), Status::kSuccess);
  ActorScope scope_b(actor_b_);
  Descriptor* rd = nullptr;
  ASSERT_EQ(vi_b_->recv_wait(rd, kWait), Status::kSuccess);
  // Reliable reception: sender completion coincides with delivery.
  EXPECT_EQ(sd->done_at, rd->done_at);
}

TEST_F(ViaPairTest, RdmaReadForbiddenOnUnreliableVi) {
  ViAttrs attrs;
  attrs.reliability = ReliabilityLevel::kUnreliable;
  Connect(attrs);
  Descriptor r;
  r.op = Opcode::kRdmaRead;
  ActorScope scope(actor_a_);
  EXPECT_EQ(vi_a_->post_send(r), Status::kInvalidRdmaOp);
}

// ---------------------------------------------------------------------------
// Completion queues
// ---------------------------------------------------------------------------

TEST_F(ViaPairTest, CompletionQueueMultiplexesManyVis) {
  CompletionQueue cq;
  // Two VI pairs, both receive-completing into one CQ on the server side.
  Vi a1(nic_a_, {}), a2(nic_a_, {});
  Vi b1(nic_b_, {}, nullptr, &cq), b2(nic_b_, {}, nullptr, &cq);
  Listener lis(nic_b_, "svc");
  std::thread server([&] {
    ActorScope scope(actor_b_);
    ASSERT_EQ(lis.accept(b1, kWait), Status::kSuccess);
    ASSERT_EQ(lis.accept(b2, kWait), Status::kSuccess);
  });
  {
    ActorScope scope(actor_a_);
    ASSERT_EQ(nic_a_.connect(a1, "svc", kWait), Status::kSuccess);
    ASSERT_EQ(nic_a_.connect(a2, "svc", kWait), Status::kSuccess);
  }
  server.join();

  std::vector<std::byte> dst1(64), dst2(64), dst3(64), src(64);
  const MemHandle hd1 = Register(nic_b_, actor_b_, dst1.data(), dst1.size());
  const MemHandle hd2 = Register(nic_b_, actor_b_, dst2.data(), dst2.size());
  const MemHandle hd3 = Register(nic_b_, actor_b_, dst3.data(), dst3.size());
  const MemHandle hs = Register(nic_a_, actor_a_, src.data(), src.size());
  Descriptor r1, r2, r3;
  r1.segs = {DataSegment{dst1.data(), hd1, 64}};
  r2.segs = {DataSegment{dst2.data(), hd2, 64}};
  r3.segs = {DataSegment{dst3.data(), hd3, 64}};
  ASSERT_EQ(b1.post_recv(r1), Status::kSuccess);
  ASSERT_EQ(b2.post_recv(r2), Status::kSuccess);
  ASSERT_EQ(b1.post_recv(r3), Status::kSuccess);

  // The senders' clocks differ: the one 1 ms ahead pushes r1's completion
  // first, the one behind then pushes r2's and r3's, which complete earlier.
  Actor behind("behind", &fabric_.node(na_));
  actor_a_.advance(1'000'000);
  Descriptor s1, s2, s3;
  s1.segs = {DataSegment{src.data(), hs, 64}};
  s2.segs = {DataSegment{src.data(), hs, 64}};
  s3.segs = {DataSegment{src.data(), hs, 64}};
  {
    ActorScope scope(actor_a_);
    ASSERT_EQ(a1.post_send(s1), Status::kSuccess);
  }
  {
    ActorScope scope(behind);
    ASSERT_EQ(a2.post_send(s2), Status::kSuccess);
    ASSERT_EQ(a1.post_send(s3), Status::kSuccess);
  }
  ASSERT_LT(r2.done_at, r1.done_at);
  ASSERT_LT(r3.done_at, r1.done_at);

  // Completion order, as a NIC writes its CQ: the virtually earliest head
  // first (r2, though pushed after r1), and each VI's receive queue stays
  // FIFO (r3 completed before r1 but was posted after it on b1).
  ActorScope scope(actor_b_);
  via::Completion c1, c2, c3;
  ASSERT_EQ(cq.wait(c1, kWait), Status::kSuccess);
  EXPECT_EQ(c1.vi, &b2);
  EXPECT_EQ(c1.desc, &r2);
  EXPECT_LT(actor_b_.now(), r1.done_at);  // synced to r2 only
  ASSERT_EQ(cq.wait(c2, kWait), Status::kSuccess);
  ASSERT_EQ(cq.poll(c3), Status::kSuccess);
  EXPECT_EQ(c2.vi, &b1);
  EXPECT_EQ(c2.desc, &r1);
  EXPECT_EQ(c3.vi, &b1);
  EXPECT_EQ(c3.desc, &r3);
  EXPECT_TRUE(c1.is_recv && c2.is_recv && c3.is_recv);
  EXPECT_GE(actor_b_.now(), r1.done_at);
  EXPECT_EQ(cq.pending(), 0u);
  via::Completion none;
  EXPECT_EQ(cq.poll(none), Status::kNotDone);
}

TEST_F(ViaPairTest, ReapSynchronizesVirtualClock) {
  Connect();
  std::vector<std::byte> src(32 * 1024), dst(32 * 1024);
  const MemHandle hs = Register(nic_a_, actor_a_, src.data(), src.size());
  const MemHandle hd = Register(nic_b_, actor_b_, dst.data(), dst.size());
  Descriptor recv;
  recv.segs = {DataSegment{dst.data(), hd, 32 * 1024}};
  ASSERT_EQ(vi_b_->post_recv(recv), Status::kSuccess);
  Descriptor send;
  send.segs = {DataSegment{src.data(), hs, 32 * 1024}};
  ActorScope scope(actor_a_);
  ASSERT_EQ(vi_a_->post_send(send), Status::kSuccess);
  ActorScope scope_b(actor_b_);
  Descriptor* done = nullptr;
  const sim::Time before = actor_b_.now();
  ASSERT_EQ(vi_b_->recv_wait(done, kWait), Status::kSuccess);
  EXPECT_GE(actor_b_.now(), done->done_at);
  EXPECT_GE(actor_b_.now(), before);
  // The receiver's clock must now include the wire time of the payload.
  EXPECT_GE(done->done_at, fabric_.cost().wire_time(32 * 1024));
}

// ---------------------------------------------------------------------------
// Parameterized integrity sweep
// ---------------------------------------------------------------------------

class ViaSizeSweep : public ViaPairTest,
                     public ::testing::WithParamInterface<std::size_t> {};

TEST_P(ViaSizeSweep, SendIntegrityAcrossSizes) {
  Connect();
  const std::size_t n = GetParam();
  std::vector<std::byte> src(n), dst(n, std::byte{0});
  for (std::size_t i = 0; i < n; ++i) {
    src[i] = static_cast<std::byte>((i ^ (i >> 8)) & 0xff);
  }
  const MemHandle hs = Register(nic_a_, actor_a_, src.data(), n);
  const MemHandle hd = Register(nic_b_, actor_b_, dst.data(), n);
  Descriptor recv;
  recv.segs = {DataSegment{dst.data(), hd, static_cast<std::uint32_t>(n)}};
  ASSERT_EQ(vi_b_->post_recv(recv), Status::kSuccess);
  Descriptor send;
  send.segs = {DataSegment{src.data(), hs, static_cast<std::uint32_t>(n)}};
  ActorScope scope(actor_a_);
  ASSERT_EQ(vi_a_->post_send(send), Status::kSuccess);
  ActorScope scope_b(actor_b_);
  Descriptor* done = nullptr;
  ASSERT_EQ(vi_b_->recv_wait(done, kWait), Status::kSuccess);
  ASSERT_EQ(done->length, n);
  EXPECT_EQ(std::memcmp(src.data(), dst.data(), n), 0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ViaSizeSweep,
                         ::testing::Values(1, 63, 64, 65, 1024, 4096,
                                           32 * 1024, 32 * 1024 + 1,
                                           256 * 1024));

}  // namespace
