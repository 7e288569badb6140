// Property/stress tests across the stack: randomized traffic shapes that a
// scripted unit test would not reach.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "dafs/client.hpp"
#include "dafs/server.hpp"
#include "dafs/session.hpp"
#include "mpi/runtime.hpp"
#include "mpiio/ad_dafs.hpp"
#include "mpiio/file.hpp"
#include "sim/rng.hpp"
#include "via/vi.hpp"

namespace {

using namespace std::chrono_literals;
using sim::Actor;
using sim::ActorScope;

// ---------------------------------------------------------------------------
// VIA: randomized message streams keep FIFO order and integrity
// ---------------------------------------------------------------------------

TEST(ViaStress, RandomSizedStreamPreservesOrderAndBytes) {
  sim::Fabric fabric;
  const auto na = fabric.add_node("a");
  const auto nb = fabric.add_node("b");
  via::Nic nic_a(fabric, na, "nicA");
  via::Nic nic_b(fabric, nb, "nicB");
  Actor actor_a("a", &fabric.node(na));
  Actor actor_b("b", &fabric.node(nb));
  via::Vi vi_a(nic_a, {});
  via::Vi vi_b(nic_b, {});
  via::Listener lis(nic_b, "svc");
  std::thread acc([&] {
    ActorScope scope(actor_b);
    ASSERT_EQ(lis.accept(vi_b, 5000ms), via::Status::kSuccess);
  });
  {
    ActorScope scope(actor_a);
    ASSERT_EQ(nic_a.connect(vi_a, "svc", 5000ms), via::Status::kSuccess);
  }
  acc.join();

  constexpr int kMsgs = 200;
  constexpr std::size_t kMaxSize = 40'000;
  sim::Rng size_rng(123);
  std::vector<std::size_t> sizes;
  for (int i = 0; i < kMsgs; ++i) {
    sizes.push_back(1 + size_rng.below(kMaxSize));
  }

  // Receiver thread: pre-posts a window of receives and keeps replenishing,
  // one receive per message still to come, so none is left posted into its
  // buffers when it returns (vi_b's teardown would flush it into freed
  // descriptors).
  std::atomic<int> bad{0};
  std::thread receiver([&] {
    ActorScope scope(actor_b);
    const auto tag = nic_b.create_ptag();
    constexpr int kWindow = 16;
    std::vector<std::vector<std::byte>> bufs(kWindow,
                                             std::vector<std::byte>(kMaxSize));
    std::vector<via::MemHandle> handles;
    std::vector<via::Descriptor> descs(kWindow);
    for (int i = 0; i < kWindow; ++i) {
      handles.push_back(
          nic_b.register_memory(bufs[i].data(), kMaxSize, tag, {}));
      descs[i].segs = {via::DataSegment{
          bufs[i].data(), handles[i], static_cast<std::uint32_t>(kMaxSize)}};
      ASSERT_EQ(vi_b.post_recv(descs[i]), via::Status::kSuccess);
    }
    sim::Rng check(999);
    sim::Time prev = 0;
    for (int m = 0; m < kMsgs; ++m) {
      via::Descriptor* d = nullptr;
      ASSERT_EQ(vi_b.recv_wait(d, 10'000ms), via::Status::kSuccess);
      if (d->length != sizes[static_cast<std::size_t>(m)]) ++bad;
      // Message m is filled with byte (m & 0xff) by the sender.
      const auto* base = d->segs[0].addr;
      for (std::uint32_t i = 0; i < d->length; i += 997) {
        if (base[i] != static_cast<std::byte>(m & 0xff)) {
          ++bad;
          break;
        }
      }
      if (d->done_at < prev) ++bad;  // FIFO in virtual time
      prev = d->done_at;
      (void)check;
      if (m + kWindow < kMsgs) {
        ASSERT_EQ(vi_b.post_recv(*d), via::Status::kSuccess);
      }
    }
  });

  // Sender: stream all messages as fast as flow control allows.
  {
    ActorScope scope(actor_a);
    const auto tag = nic_a.create_ptag();
    std::vector<std::byte> buf(kMaxSize);
    const auto h = nic_a.register_memory(buf.data(), kMaxSize, tag, {});
    for (int m = 0; m < kMsgs; ++m) {
      std::fill(buf.begin(),
                buf.begin() + static_cast<std::ptrdiff_t>(
                                  sizes[static_cast<std::size_t>(m)]),
                static_cast<std::byte>(m & 0xff));
      via::Descriptor s;
      s.segs = {via::DataSegment{
          buf.data(), h,
          static_cast<std::uint32_t>(sizes[static_cast<std::size_t>(m)])}};
      ASSERT_EQ(vi_a.post_send(s), via::Status::kSuccess);
      via::Descriptor* done = nullptr;
      ASSERT_EQ(vi_a.send_wait(done, 10'000ms), via::Status::kSuccess);
      ASSERT_EQ(done->status, via::DescStatus::kSuccess);
    }
  }
  receiver.join();
  EXPECT_EQ(bad.load(), 0);
}

// ---------------------------------------------------------------------------
// DAFS server: malformed traffic must not wedge or crash the filer
// ---------------------------------------------------------------------------

TEST(DafsRobustness, GarbageRequestsGetErrorsNotHangs) {
  sim::Fabric fabric;
  dafs::Server server(fabric, fabric.add_node("filer"));
  server.start();
  const auto node = fabric.add_node("attacker");
  Actor actor("attacker", &fabric.node(node));
  ActorScope scope(actor);
  via::Nic nic(fabric, node, "nic");

  // Raw VI straight to the DAFS service, bypassing the client library.
  via::Vi vi(nic, {});
  const auto tag = nic.create_ptag();
  std::vector<std::byte> rbuf(dafs::kMsgBufSize);
  const auto rh = nic.register_memory(rbuf.data(), rbuf.size(), tag, {});
  via::Descriptor recv;
  recv.segs = {via::DataSegment{rbuf.data(), rh,
                                static_cast<std::uint32_t>(rbuf.size())}};
  via::Status st = via::Status::kNoMatchingListener;
  for (int attempt = 0; attempt < 200; ++attempt) {
    st = nic.connect(vi, "dafs", 2000ms);
    if (st != via::Status::kNoMatchingListener) break;
    std::this_thread::sleep_for(5ms);
  }
  ASSERT_EQ(st, via::Status::kSuccess);
  ASSERT_EQ(vi.post_recv(recv), via::Status::kSuccess);

  std::vector<std::byte> sbuf(dafs::kMsgBufSize);
  const auto sh = nic.register_memory(sbuf.data(), sbuf.size(), tag, {});
  dafs::MsgView msg(sbuf.data(), sbuf.size());
  via::Descriptor send;
  // Send the first `wire` bytes of sbuf, whatever its header claims.
  const auto transmit = [&](std::size_t wire) {
    send = via::Descriptor{};
    send.segs = {via::DataSegment{sbuf.data(), sh,
                                  static_cast<std::uint32_t>(wire)}};
    ASSERT_EQ(vi.post_send(send), via::Status::kSuccess);
    via::Descriptor* sd = nullptr;
    ASSERT_EQ(vi.send_wait(sd, 5000ms), via::Status::kSuccess);
  };
  // The server must answer, not wedge: the response header, with the
  // receive posted again for the next exchange.
  const auto exchange = [&](std::size_t wire) {
    dafs::MsgHeader h;
    transmit(wire);
    via::Descriptor* rd = nullptr;
    EXPECT_EQ(vi.recv_wait(rd, 5000ms), via::Status::kSuccess);
    std::memcpy(&h, rbuf.data(), sizeof(h));
    recv.segs = {via::DataSegment{rbuf.data(), rh,
                                  static_cast<std::uint32_t>(rbuf.size())}};
    EXPECT_EQ(vi.post_recv(recv), via::Status::kSuccess);
    return h;
  };
  const auto request = [&](dafs::Proc proc, std::uint64_t session) {
    msg.header() = dafs::MsgHeader{};
    msg.header().proc = proc;
    msg.header().session_id = session;
    return &msg.header();
  };

  // A header full of nonsense: unknown proc and bad session.
  request(static_cast<dafs::Proc>(250), 0xdeadbeef);
  EXPECT_NE(exchange(msg.wire_size()).status, dafs::PStatus::kOk);

  // A proper session and file, then headers whose lengths claim bytes that
  // never arrived: each is refused before any handler reads past the message.
  request(dafs::Proc::kConnect, 0);
  const dafs::MsgHeader conn = exchange(msg.wire_size());
  ASSERT_EQ(conn.status, dafs::PStatus::kOk);
  const std::uint64_t sid = conn.session_id;
  request(dafs::Proc::kOpen, sid)->flags = dafs::kOpenCreate;
  msg.set_name("/victim");
  const dafs::MsgHeader opened = exchange(msg.wire_size());
  ASSERT_EQ(opened.status, dafs::PStatus::kOk);
  const std::uint64_t refused0 = fabric.stats().get("dafs.malformed_requests");

  request(dafs::Proc::kOpen, sid)->name_len = 60'000;
  EXPECT_EQ(exchange(sizeof(dafs::MsgHeader)).status, dafs::PStatus::kInval);
  for (const std::uint32_t claimed : {60'000u, 1'000u}) {
    dafs::MsgHeader* h = request(dafs::Proc::kWriteInline, sid);
    h->ino = opened.ino;
    h->data_len = claimed;
    h->len = claimed;
    EXPECT_EQ(exchange(sizeof(dafs::MsgHeader)).status, dafs::PStatus::kInval)
        << claimed << " bytes claimed";
  }
  // A direct write whose segment list overruns the data it carries.
  dafs::MsgHeader* h = request(dafs::Proc::kWriteDirect, sid);
  h->ino = opened.ino;
  h->nseg = 4;
  h->data_len = sizeof(dafs::DirectSeg);
  EXPECT_EQ(exchange(msg.wire_size()).status, dafs::PStatus::kInval);
  EXPECT_EQ(fabric.stats().get("dafs.malformed_requests"), refused0 + 4);

  // Less than a header: its fields would be an earlier message's leftovers,
  // so the filer drops the VI instead of answering.
  transmit(sizeof(dafs::MsgHeader) / 2);
  via::Descriptor* rd = nullptr;
  const via::Status dropped = vi.recv_wait(rd, 5000ms);
  EXPECT_TRUE(dropped != via::Status::kSuccess ||
              rd->status != via::DescStatus::kSuccess);
  EXPECT_EQ(fabric.stats().get("dafs.malformed_requests"), refused0 + 5);

  // No refused write landed a byte, and a well-behaved session still works.
  auto s = std::move(dafs::Session::connect(nic).value());
  const auto victim = s->open("/victim");
  ASSERT_TRUE(victim.ok());
  EXPECT_EQ(s->getattr(victim.value()).value().size, 0u);
  EXPECT_TRUE(s->open("/ok", dafs::kOpenCreate).ok());
  s.reset();
  vi.disconnect();
}

TEST(DafsRobustness, LyingRepliesGetErrorsNotOverreads) {
  // A fake filer on a raw listener answers the handshake as a filer does,
  // then lies about the lengths in its replies. The session trusts only the
  // bytes that arrived: a reply claiming more ends its request with
  // kProtoError, a reply shorter than a header is a broken connection the
  // session recovers from, and no lie reads past a buffer (the sanitizer leg
  // runs this suite).
  sim::Fabric fabric;
  const auto fnode = fabric.add_node("fake-filer");
  via::Nic fnic(fabric, fnode, "fnic");
  via::Listener lis(fnic, "fake");
  std::atomic<bool> stop{false};
  std::thread filer([&] {
    Actor factor("fake-filer", &fabric.node(fnode));
    ActorScope fscope(factor);
    const auto tag = fnic.create_ptag();
    std::vector<std::byte> rbuf(dafs::kMsgBufSize);
    std::vector<std::byte> sbuf(dafs::kMsgBufSize);
    const auto rh = fnic.register_memory(rbuf.data(), rbuf.size(), tag, {});
    const auto sh = fnic.register_memory(sbuf.data(), sbuf.size(), tag, {});
    int getattrs = 0;
    while (!stop) {
      via::Vi vi(fnic, {});
      if (lis.accept(vi, 50ms) != via::Status::kSuccess) continue;
      for (;;) {  // one request, one reply, until the client hangs up
        via::Descriptor recv;
        recv.segs = {via::DataSegment{rbuf.data(), rh,
                                      static_cast<std::uint32_t>(rbuf.size())}};
        if (vi.post_recv(recv) != via::Status::kSuccess) break;
        via::Descriptor* rd = nullptr;
        via::Status st = via::Status::kTimeout;
        while (!stop && st == via::Status::kTimeout) {
          st = vi.recv_wait(rd, 50ms);
        }
        if (st != via::Status::kSuccess || !rd->ok()) break;
        const dafs::MsgHeader req =
            dafs::MsgView(rbuf.data(), rbuf.size()).header();
        dafs::MsgView resp(sbuf.data(), sbuf.size());
        dafs::MsgHeader& h = resp.header();
        h = dafs::MsgHeader{};
        h.proc = req.proc;
        h.request_id = req.request_id;
        h.seq = req.seq;
        h.session_id = 7;
        std::size_t wire = 0;  // 0: the header and the payload it claims
        switch (req.proc) {
          case dafs::Proc::kConnect:  // a fresh session and a resume alike
            h.aux = 7;
            break;
          case dafs::Proc::kGetattr:
            if (++getattrs == 1) {
              h.data_len = 60'000;  // bytes it never sends
              wire = sizeof(h);
            } else if (getattrs == 2) {
              wire = 8;  // less than a header
            } else {
              // The retransmission after the short reply gets the truth.
              fstore::Attrs a;
              a.size = 1234;
              h.data_len = sizeof(a);
              std::memcpy(resp.data_payload(), &a, sizeof(a));
            }
            break;
          case dafs::Proc::kReaddir: {
            // One entry whose name runs past the payload it arrived in.
            dafs::WireDirent wd;
            wd.ino = 9;
            wd.name_len = 5000;
            std::memcpy(resp.data_payload(), &wd, sizeof(wd));
            std::memcpy(resp.data_payload() + sizeof(wd), "abc", 3);
            h.len = 1;
            h.flags = 1;  // last batch
            h.data_len = sizeof(wd) + 3;
            break;
          }
          case dafs::Proc::kReadDirect:
            // "Moved" far more than the read asked for, under a payload CRC
            // the client checks against its own buffer.
            h.flags = dafs::kFlagPayloadCrc;
            h.len = 1 << 20;
            break;
          default:  // the farewell
            break;
        }
        if (wire == 0) wire = resp.wire_size();
        via::Descriptor send;
        send.segs = {via::DataSegment{sbuf.data(), sh,
                                      static_cast<std::uint32_t>(wire)}};
        via::Descriptor* sd = nullptr;
        if (vi.post_send(send) != via::Status::kSuccess ||
            vi.send_wait(sd, 5000ms) != via::Status::kSuccess) {
          break;
        }
      }
    }
  });

  const auto cnode = fabric.add_node("client");
  Actor actor("client", &fabric.node(cnode));
  ActorScope scope(actor);
  via::Nic nic(fabric, cnode, "nic");
  dafs::ClientConfig ccfg;
  ccfg.integrity = dafs::IntegrityMode::kWire;
  auto s = std::move(
      dafs::Session::connect(nic, dafs::single_mount("fake", {}, ccfg))
          .value());
  const auto malformed = [&] {
    return fabric.stats().get("dafs.malformed_replies");
  };
  const dafs::Fh fh{5};

  const auto lied = s->getattr(fh);
  ASSERT_FALSE(lied.ok());
  EXPECT_EQ(lied.error(), dafs::PStatus::kProtoError);
  const auto dir = s->readdir("/d");
  ASSERT_FALSE(dir.ok());
  EXPECT_EQ(dir.error(), dafs::PStatus::kProtoError);
  std::vector<std::byte> buf(8192);  // a direct read, verified in place
  const auto read = s->pread(fh, 0, buf);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.error(), dafs::PStatus::kProtoError);
  EXPECT_EQ(malformed(), 2u);  // the dirent is the payload's own lie
  EXPECT_EQ(fabric.stats().get("dafs.recoveries"), 0u);

  // Less than a header: the session resumes on a fresh connection and
  // retransmits, and the honest answer arrives.
  const auto honest = s->getattr(fh);
  ASSERT_TRUE(honest.ok());
  EXPECT_EQ(honest.value().size, 1234u);
  EXPECT_EQ(malformed(), 3u);
  EXPECT_EQ(fabric.stats().get("dafs.recoveries"), 1u);
  EXPECT_EQ(fabric.stats().get("dafs.retransmits"), 1u);
  s.reset();
  stop = true;
  filer.join();
}

// ---------------------------------------------------------------------------
// DAFS: randomized op soup against a reference model
// ---------------------------------------------------------------------------

TEST(DafsStress, RandomOpsMatchReferenceModel) {
  sim::Fabric fabric;
  dafs::Server server(fabric, fabric.add_node("filer"));
  server.start();
  const auto node = fabric.add_node("client");
  Actor actor("client", &fabric.node(node));
  ActorScope scope(actor);
  via::Nic nic(fabric, node, "nic");
  auto s = std::move(dafs::Session::connect(nic).value());
  auto fh = s->open("/soup", dafs::kOpenCreate).value();

  std::vector<std::byte> model;
  sim::Rng rng(2026);
  for (int op = 0; op < 120; ++op) {
    switch (rng.below(4)) {
      case 0: {  // write random extent (inline or direct by size)
        const std::uint64_t off = rng.below(200'000);
        const std::size_t len = 1 + rng.below(30'000);
        std::vector<std::byte> data(len);
        for (auto& b : data) b = static_cast<std::byte>(rng.next() & 0xff);
        ASSERT_TRUE(s->pwrite(fh, off, data).ok());
        if (model.size() < off + len) model.resize(off + len);
        std::memcpy(model.data() + off, data.data(), len);
        break;
      }
      case 1: {  // read random extent, compare
        if (model.empty()) break;
        const std::uint64_t off = rng.below(model.size());
        const std::size_t len = 1 + rng.below(30'000);
        std::vector<std::byte> got(len, std::byte{0xAA});
        auto r = s->pread(fh, off, got);
        ASSERT_TRUE(r.ok());
        const std::uint64_t expect =
            off >= model.size()
                ? 0
                : std::min<std::uint64_t>(len, model.size() - off);
        ASSERT_EQ(r.value(), expect);
        EXPECT_EQ(std::memcmp(got.data(), model.data() + off, expect), 0)
            << "op " << op;
        break;
      }
      case 2: {  // truncate/extend
        const std::uint64_t size = rng.below(250'000);
        ASSERT_EQ(s->set_size(fh, size), dafs::PStatus::kOk);
        const std::size_t old = model.size();
        model.resize(size);
        if (size > old) {
          // growth exposes zeros (resize already zero-fills)
        }
        break;
      }
      case 3: {  // verify attributes
        EXPECT_EQ(s->getattr(fh).value().size, model.size());
        break;
      }
    }
  }
  s.reset();
}

// ---------------------------------------------------------------------------
// fstore: concurrent writers to disjoint files
// ---------------------------------------------------------------------------

TEST(FstoreStress, ParallelWritersToDistinctFiles) {
  fstore::FileStore fs;
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::atomic<int> bad{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto f = fs.create(fstore::kRootIno, "f" + std::to_string(t), true);
      ASSERT_TRUE(f.ok());
      sim::Rng rng(static_cast<std::uint64_t>(t) + 1);
      std::vector<std::byte> model;
      for (int op = 0; op < 150; ++op) {
        const std::uint64_t off = rng.below(50'000);
        const std::size_t len = 1 + rng.below(5'000);
        std::vector<std::byte> data(len);
        for (auto& b : data) b = static_cast<std::byte>(rng.next() & 0xff);
        if (!fs.pwrite(f.value(), off, data).ok()) ++bad;
        if (model.size() < off + len) model.resize(off + len);
        std::memcpy(model.data() + off, data.data(), len);
      }
      std::vector<std::byte> back(model.size());
      auto r = fs.pread(f.value(), 0, back);
      if (!r.ok() || r.value() != model.size() ||
          std::memcmp(back.data(), model.data(), model.size()) != 0) {
        ++bad;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0);
}

// ---------------------------------------------------------------------------
// MPI-IO: noncontiguous *memory* types (buftype), not just file views
// ---------------------------------------------------------------------------

TEST(MpiioBuftype, StridedMemoryGatherAndScatter) {
  sim::Fabric fabric;
  dafs::Server server(fabric, fabric.add_node("filer"));
  server.start();
  mpi::WorldConfig cfg;
  cfg.nprocs = 1;
  cfg.fabric = &fabric;
  mpi::World world(cfg);
  world.run([&](mpi::Comm& c) {
    via::Nic nic(fabric, world.node_of(0), "cli");
    auto client = std::move(dafs::Client::connect(nic).value());
    auto f = std::move(
        mpiio::File::open(c, "/mem.dat",
                          mpiio::kModeCreate | mpiio::kModeRdwr,
                          mpiio::Info{}, mpiio::dafs_driver(*client))
            .value());
    // Memory: every other int32 of a 64-int array (gather on write).
    auto stride2 = mpi::Datatype::vector(32, 1, 2, mpi::Datatype::int32());
    std::vector<std::int32_t> mem(64);
    for (int i = 0; i < 64; ++i) mem[static_cast<std::size_t>(i)] = i * 3;
    ASSERT_TRUE(f->write_at(0, mem.data(), 1, stride2).ok());
    // On disk the gathered values are contiguous.
    std::vector<std::int32_t> disk(32, -1);
    ASSERT_TRUE(f->read_at(0, disk.data(), 32, mpi::Datatype::int32()).ok());
    for (int i = 0; i < 32; ++i) {
      EXPECT_EQ(disk[static_cast<std::size_t>(i)], i * 2 * 3) << i;
    }
    // Scatter on read: read back into the odd slots via an offset view of
    // the same memory type.
    std::vector<std::int32_t> back(64, -1);
    ASSERT_TRUE(f->read_at(0, back.data(), 1, stride2).ok());
    for (int i = 0; i < 64; ++i) {
      if (i % 2 == 0) {
        EXPECT_EQ(back[static_cast<std::size_t>(i)], i * 3) << i;
      } else {
        EXPECT_EQ(back[static_cast<std::size_t>(i)], -1) << i;
      }
    }
    f->close();
  });
}

TEST(MpiioBuftype, StridedMemoryMeetsStridedViewInCollective) {
  sim::Fabric fabric;
  dafs::Server server(fabric, fabric.add_node("filer"));
  server.start();
  mpi::WorldConfig cfg;
  cfg.nprocs = 4;
  cfg.fabric = &fabric;
  mpi::World world(cfg);
  world.run([&](mpi::Comm& c) {
    via::Nic nic(fabric, world.node_of(c.rank()), "cli");
    auto client = std::move(dafs::Client::connect(nic).value());
    auto f = std::move(
        mpiio::File::open(c, "/both.dat",
                          mpiio::kModeCreate | mpiio::kModeRdwr,
                          mpiio::Info{}, mpiio::dafs_driver(*client))
            .value());
    // File view: block-cyclic by rank (1 KiB blocks).
    constexpr std::uint32_t kBlock = 1024;
    const std::array<std::uint32_t, 1> sizes = {kBlock * 4};
    const std::array<std::uint32_t, 1> subsizes = {kBlock};
    const std::array<std::uint32_t, 1> starts = {
        static_cast<std::uint32_t>(c.rank()) * kBlock};
    auto ft = mpi::Datatype::subarray(sizes, subsizes, starts,
                                      mpi::Datatype::byte());
    ASSERT_EQ(f->set_view(0, mpi::Datatype::byte(), ft), mpiio::Err::kOk);
    // Memory: 512-byte pieces every 1024 bytes (half the buffer is gaps).
    auto mt = mpi::Datatype::resized(
        mpi::Datatype::hvector(1, 512, 1024, mpi::Datatype::byte()), 0, 1024);
    std::vector<std::byte> mem(16 * 1024, std::byte(c.rank() + 1));
    for (std::size_t i = 0; i < mem.size(); i += 1024) {
      // mark the gap region differently; it must never reach the file
      std::fill(mem.begin() + static_cast<std::ptrdiff_t>(i) + 512,
                mem.begin() + static_cast<std::ptrdiff_t>(i) + 1024,
                std::byte{0xEE});
    }
    ASSERT_TRUE(f->write_at_all(0, mem.data(), 16, mt).ok());
    c.barrier();
    // Verify: the file contains only rank-marker bytes, never 0xEE.
    if (c.rank() == 0) {
      auto raw = client->open("/both.dat").value();
      const auto size = client->getattr(raw).value().size;
      EXPECT_EQ(size, 4u * 16 * 512);  // 4 ranks x 16 pieces x 512 B
      std::vector<std::byte> all(size);
      ASSERT_TRUE(client->pread(raw, 0, all).ok());
      for (std::size_t i = 0; i < all.size(); ++i) {
        ASSERT_NE(all[i], std::byte{0xEE}) << i;
        ASSERT_NE(all[i], std::byte{0}) << i;
      }
    }
    f->close();
  });
}

}  // namespace
