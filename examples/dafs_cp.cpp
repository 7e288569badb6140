// dafs_cp: a plain (non-MPI) uDAFS client session exercising the file
// protocol directly — mkdir, create, write, copy, rename, listing — the way
// a user-space tool on a DAFS-attached host would.
#include <cstdio>
#include <vector>

#include "dafs/client.hpp"
#include "dafs/server.hpp"

int main() {
  sim::Fabric fabric;
  dafs::Server filer(fabric, fabric.add_node("filer"));
  filer.start();

  const auto node = fabric.add_node("workstation");
  sim::Actor actor("workstation", &fabric.node(node));
  sim::ActorScope scope(actor);
  via::Nic nic(fabric, node, "nic");
  auto s = std::move(dafs::Client::connect(nic).value());

  // Build a small tree and a source file.
  s->mkdir("/data");
  s->mkdir("/data/raw");
  auto src = s->open("/data/raw/input.bin", dafs::kOpenCreate).value();
  std::vector<std::byte> payload(3 * 1024 * 1024);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>((i ^ (i >> 9)) & 0xff);
  }
  s->pwrite(src, 0, payload);
  std::printf("wrote /data/raw/input.bin (%zu bytes)\n", payload.size());

  // Copy: stream through a 256 KiB buffer (direct I/O both directions).
  auto dst = s->open("/data/copy.bin", dafs::kOpenCreate).value();
  std::vector<std::byte> buf(256 * 1024);
  std::uint64_t off = 0;
  const sim::Time t0 = actor.now();
  for (;;) {
    auto got = s->pread(src, off, buf);
    if (!got.ok() || got.value() == 0) break;
    s->pwrite(dst, off, std::span<const std::byte>(buf.data(), got.value()));
    off += got.value();
  }
  const sim::Time dt = actor.now() - t0;
  std::printf("copied %llu bytes in %.2f ms modeled (%.1f MB/s effective)\n",
              static_cast<unsigned long long>(off), sim::to_msec(dt),
              static_cast<double>(off) * 1000.0 / static_cast<double>(dt));

  // Verify.
  std::vector<std::byte> back(payload.size());
  s->pread(dst, 0, back);
  std::printf("verify: %s\n",
              back == payload ? "copies identical" : "MISMATCH");

  // Rename + listing.
  s->rename("/data/copy.bin", "/data/raw/copy.bin");
  auto ls = s->readdir("/data/raw").value();
  std::printf("/data/raw:\n");
  for (const auto& e : ls) {
    auto attrs = s->getattr(s->open("/data/raw/" + e.name).value()).value();
    std::printf("  %-12s %10llu bytes\n", e.name.c_str(),
                static_cast<unsigned long long>(attrs.size));
  }

  std::printf("registration cache: %llu hits / %llu misses\n",
              static_cast<unsigned long long>(s->reg_cache_hits()),
              static_cast<unsigned long long>(s->reg_cache_misses()));
  s.reset();
  return 0;
}
