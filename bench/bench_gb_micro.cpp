// Google-benchmark microbenchmarks of the emulation substrate itself (real
// host time, not modeled time): datatype flattening, resource arithmetic,
// the fabric transfer computation, completion-queue reaping, the CRC
// codecs and the file store's inline overwrite. These guard against the
// cost engine itself becoming the bottleneck of large experiments.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "fstore/file_store.hpp"
#include "fstore/journal.hpp"
#include "mpi/datatype.hpp"
#include "sim/actor.hpp"
#include "sim/fabric.hpp"
#include "sim/resource.hpp"
#include "via/vi.hpp"

namespace {

void BM_ResourceOccupy(benchmark::State& state) {
  sim::Resource r;
  sim::Time t = 0;
  for (auto _ : state) {
    t = r.occupy(t, 100);
    benchmark::DoNotOptimize(t);
  }
}
BENCHMARK(BM_ResourceOccupy);

void BM_FabricTransfer(benchmark::State& state) {
  sim::Fabric f;
  const auto a = f.add_node("a");
  const auto b = f.add_node("b");
  const auto bytes = static_cast<std::uint64_t>(state.range(0));
  sim::Time t = 0;
  for (auto _ : state) {
    t = f.transfer(a, b, bytes, t);
    benchmark::DoNotOptimize(t);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_FabricTransfer)->Arg(4096)->Arg(262144)->Arg(1 << 20);

void BM_DatatypeFlattenVector(benchmark::State& state) {
  const auto blocks = static_cast<std::uint32_t>(state.range(0));
  auto t = mpi::Datatype::vector(blocks, 16, 32, mpi::Datatype::int32());
  for (auto _ : state) {
    auto segs = t.flatten_n(4);
    benchmark::DoNotOptimize(segs.data());
  }
}
BENCHMARK(BM_DatatypeFlattenVector)->Arg(16)->Arg(256)->Arg(4096);

void BM_DatatypeSubarray2d(benchmark::State& state) {
  const std::array<std::uint32_t, 2> sizes = {1024, 1024};
  const std::array<std::uint32_t, 2> subsizes = {256, 256};
  const std::array<std::uint32_t, 2> starts = {128, 128};
  auto t =
      mpi::Datatype::subarray(sizes, subsizes, starts, mpi::Datatype::byte());
  for (auto _ : state) {
    std::vector<mpi::Segment> segs;
    t.flatten(segs);
    benchmark::DoNotOptimize(segs.data());
  }
}
BENCHMARK(BM_DatatypeSubarray2d);

void BM_DatatypePackStrided(benchmark::State& state) {
  auto t = mpi::Datatype::vector(64, 16, 32, mpi::Datatype::int32());
  std::vector<std::byte> src(1 << 20);
  std::vector<std::byte> out;
  for (auto _ : state) {
    t.pack(src.data(), 4, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 4 *
                          static_cast<std::int64_t>(t.size()));
}
BENCHMARK(BM_DatatypePackStrided);

// One reap from a receive CQ that holds `depth` pending receives, spread
// over up to 16 VIs as a filer's sessions spread theirs (256 is the filer's
// default admission bound). After each reap the sender refills the receive,
// so the depth stays put; only the reap is timed. Completion-order reaping
// scans the head of every VI's queue for the earliest completion.
void BM_CqReap(benchmark::State& state) {
  using namespace std::chrono_literals;
  const auto depth = static_cast<std::size_t>(state.range(0));
  const std::size_t vis = std::min<std::size_t>(depth, 16);
  sim::Fabric f;
  const auto na = f.add_node("client");
  const auto nb = f.add_node("filer");
  via::Nic nic_a(f, na, "nic-a");
  via::Nic nic_b(f, nb, "nic-b");
  sim::Actor client("client", &f.node(na));
  sim::Actor filer("filer", &f.node(nb));
  via::CompletionQueue cq;
  std::vector<std::unique_ptr<via::Vi>> senders, receivers;
  for (std::size_t v = 0; v < vis; ++v) {
    senders.push_back(std::make_unique<via::Vi>(nic_a, via::ViAttrs{}));
    receivers.push_back(
        std::make_unique<via::Vi>(nic_b, via::ViAttrs{}, nullptr, &cq));
  }
  {
    via::Listener lis(nic_b, "svc");
    std::thread acceptor([&] {
      sim::ActorScope scope(filer);
      for (auto& r : receivers) (void)lis.accept(*r, 2s);
    });
    sim::ActorScope scope(client);
    for (auto& s : senders) (void)nic_a.connect(*s, "svc", 2s);
    acceptor.join();
  }
  std::vector<std::byte> src(64), dst(64 * depth);
  via::MemHandle hs, hd;
  {
    sim::ActorScope scope(client);
    hs = nic_a.register_memory(src.data(), src.size(), nic_a.create_ptag(), {});
  }
  {
    sim::ActorScope scope(filer);
    hd = nic_b.register_memory(dst.data(), dst.size(), nic_b.create_ptag(), {});
  }
  std::vector<via::Descriptor> recvs(depth);
  via::Descriptor send;
  send.segs = {via::DataSegment{src.data(), hs, 64}};
  // Receive i lives on VI i % vis.
  auto refill = [&](std::size_t i) {
    recvs[i].segs = {via::DataSegment{dst.data() + 64 * i, hd, 64}};
    (void)receivers[i % vis]->post_recv(recvs[i]);
    sim::ActorScope scope(client);
    (void)senders[i % vis]->post_send(send);
    via::Descriptor* done = nullptr;
    (void)senders[i % vis]->send_done(done);
  };
  for (std::size_t i = 0; i < depth; ++i) refill(i);
  sim::ActorScope scope(filer);
  for (auto _ : state) {
    via::Completion c;
    const auto t0 = std::chrono::steady_clock::now();
    const via::Status st = cq.poll(c);
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(c);
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());
    if (st != via::Status::kSuccess) {
      state.SkipWithError("CQ ran dry");
      break;
    }
    refill(static_cast<std::size_t>(c.desc - recvs.data()));
  }
  for (auto& r : receivers) r->disconnect();
}
BENCHMARK(BM_CqReap)->Arg(1)->Arg(16)->Arg(256)->UseManualTime();

// The journal's CRC-32 and the integrity layer's CRC-32C over one 4 KiB
// page (a checksum sector, what the filer re-hashes for every sector a
// write touches), one 64 KiB chunk (what verification hashes per chunk)
// and 1 MiB. These are the simulator's largest per-byte host cost.
template <typename Crc>
void crc_bench(benchmark::State& state, Crc crc) {
  std::vector<std::byte> buf(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::byte>(i * 131 + 7);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc(std::span<const std::byte>(buf)));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(buf.size()));
}

void BM_Crc32(benchmark::State& state) {
  crc_bench(state,
            [](std::span<const std::byte> b) { return fstore::crc32(b); });
}
BENCHMARK(BM_Crc32)->Arg(4096)->Arg(64 << 10)->Arg(1 << 20);

void BM_Crc32c(benchmark::State& state) {
  crc_bench(state,
            [](std::span<const std::byte> b) { return fstore::crc32c(b); });
}
BENCHMARK(BM_Crc32c)->Arg(4096)->Arg(64 << 10)->Arg(1 << 20);

// One FileStore::pwrite of 2 KiB, 16 KiB or 64 KiB at aligned offsets of an
// already-written 16 MiB file (64 KiB chunks, journal off): the filer's
// inline write path with its checksum upkeep. 2 KiB and 16 KiB are
// small_rw's request sizes; 64 KiB covers whole chunks, as ior_stream's
// writes do.
void BM_FStoreOverwrite(benchmark::State& state) {
  constexpr std::size_t kFile = 16 << 20;
  fstore::FileStore fs;
  const fstore::Ino f = fs.create(fstore::kRootIno, "f", true).value();
  std::vector<std::byte> buf(kFile);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<std::byte>(i * 131 + 7);
  }
  if (!fs.pwrite(f, 0, buf).ok()) state.SkipWithError("preload failed");
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto piece = std::span<const std::byte>(buf).first(n);
  std::uint64_t off = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fs.pwrite(f, off, piece));
    off = (off + n) % kFile;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FStoreOverwrite)->Arg(2048)->Arg(16384)->Arg(65536);

}  // namespace

BENCHMARK_MAIN();
