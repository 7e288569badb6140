#pragma once

#include <memory>

#include "dafs/client.hpp"
#include "mpiio/adio.hpp"

namespace mpiio {

/// The paper's contribution in driver form: MPI-IO over a uDAFS client.
/// Large/contiguous accesses become DAFS direct I/O (server-driven RDMA,
/// zero client copies); list I/O maps onto a single batched direct request;
/// locks and shared counters come from the DAFS server, so sieving writes,
/// atomic mode and shared file pointers all work without extra
/// infrastructure. The client is borrowed (one per rank, owned by the app);
/// a striped one also reports its stripe width so the collective layer can
/// align file domains.
class AdDafs final : public AdioDriver {
 public:
  explicit AdDafs(dafs::Client& client) : client_(client) {}

  Err open(const std::string& path, std::uint16_t open_flags) override {
    dafs::OpenOptions o = opts_;
    o.flags = open_flags;
    auto r = client_.open(path, o);
    if (!r.ok()) return r.error();
    fh_ = r.value();
    return Err::kOk;
  }

  Err close() override {
    client_.close(fh_);
    fh_ = dafs::Fh{};
    return Err::kOk;
  }

  Err remove(const std::string& path) override { return client_.remove(path); }

  Result<std::uint64_t> pread(std::uint64_t off,
                              std::span<std::byte> out) override {
    return client_.pread(fh_, off, out);
  }
  Result<std::uint64_t> pwrite(std::uint64_t off,
                               std::span<const std::byte> in) override {
    return client_.pwrite(fh_, off, in);
  }

  Result<std::uint64_t> read_list(std::span<const IoSeg> segs) override;
  Result<std::uint64_t> write_list(std::span<const IoSeg> segs) override;

  Result<AioHandle> submit_pread(std::uint64_t off,
                                 std::span<std::byte> out) override {
    auto r = client_.submit_pread(fh_, off, out);
    if (!r.ok()) return r.error();
    return static_cast<AioHandle>(r.value());
  }
  Result<AioHandle> submit_pwrite(std::uint64_t off,
                                  std::span<const std::byte> in) override {
    auto r = client_.submit_pwrite(fh_, off, in);
    if (!r.ok()) return r.error();
    return static_cast<AioHandle>(r.value());
  }
  Err aio_wait(AioHandle h, std::uint64_t* bytes) override {
    return client_.wait(static_cast<dafs::OpId>(h), bytes);
  }

  Result<std::uint64_t> size() override {
    auto a = client_.getattr(fh_);
    if (!a.ok()) return a.error();
    return a.value().size;
  }
  Err set_size(std::uint64_t size) override {
    return client_.set_size(fh_, size);
  }
  Err sync() override { return client_.sync(fh_); }

  Err lock(std::uint64_t off, std::uint64_t len, bool exclusive) override {
    return client_.lock(fh_, off, len, exclusive);
  }
  Err unlock(std::uint64_t off, std::uint64_t len) override {
    return client_.unlock(fh_, off, len);
  }
  bool supports_locks() const override { return true; }

  Result<std::uint64_t> counter_fetch_add(const std::string& key,
                                          std::uint64_t delta) override {
    return client_.fetch_add(key, delta);
  }
  Err counter_set(const std::string& key, std::uint64_t value) override {
    return client_.set_counter(key, value);
  }
  bool supports_counters() const override { return true; }

  void set_deadline(std::uint64_t ns) override { client_.set_deadline(ns); }

  void set_open_options(const dafs::OpenOptions& opts) override {
    opts_ = opts;
  }

  std::uint64_t stripe_size() const override {
    // Striped layouts matter to the collective layer only when data
    // actually spans multiple servers.
    return client_.data_servers() > 1 ? client_.stripe_size() : 0;
  }

  const char* name() const override { return "dafs"; }

 private:
  dafs::Client& client_;
  dafs::Fh fh_;
  dafs::OpenOptions opts_;
};

inline std::unique_ptr<AdioDriver> dafs_driver(dafs::Client& client) {
  return std::make_unique<AdDafs>(client);
}

}  // namespace mpiio
