#include "mpiio/adio.hpp"

#include <cstring>

namespace mpiio {

namespace {

/// Runs `io(file_off, mem, len)` once per file-contiguous run of `segs`, so
/// a driver without native list I/O issues one request per run, not one per
/// piece. A run whose pieces are not contiguous in memory goes through a
/// staging buffer; that memcpy is the mechanism, not an extra modeled cost:
/// the per-byte copy the transport already charges (RPC payload, inline
/// message) is the gather. Reads stop at the first short run (EOF).
template <typename Io>
Result<std::uint64_t> per_run(std::span<const IoSeg> segs, bool writing,
                              Io&& io) {
  std::vector<std::byte> stage;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < segs.size();) {
    std::size_t j = i + 1;
    std::uint64_t len = segs[i].len;
    bool flat = true;  // pieces also contiguous in memory
    for (; j < segs.size() && segs[j].file_off == segs[i].file_off + len; ++j) {
      flat = flat && segs[j].mem == segs[j - 1].mem + segs[j - 1].len;
      len += segs[j].len;
    }
    const auto run = segs.subspan(i, j - i);
    std::byte* mem = run[0].mem;
    if (!flat) {
      stage.resize(len);
      mem = stage.data();
      if (writing) {
        std::byte* at = mem;
        for (const IoSeg& s : run) {
          std::memcpy(at, s.mem, s.len);
          at += s.len;
        }
      }
    }
    auto r = io(run[0].file_off, mem, len);
    if (!r.ok()) return r;
    if (!flat && !writing) {
      std::uint64_t left = r.value();
      for (const IoSeg& s : run) {
        const std::uint64_t n = std::min(left, s.len);
        std::memcpy(s.mem, mem, n);
        mem += n;
        left -= n;
      }
    }
    total += r.value();
    if (!writing && r.value() < len) break;  // EOF
    i = j;
  }
  return total;
}

}  // namespace

Result<std::uint64_t> AdioDriver::read_list(std::span<const IoSeg> segs) {
  return per_run(segs, false,
                 [this](std::uint64_t off, std::byte* mem, std::uint64_t len) {
                   return pread(off, std::span<std::byte>(mem, len));
                 });
}

Result<std::uint64_t> AdioDriver::write_list(std::span<const IoSeg> segs) {
  return per_run(segs, true,
                 [this](std::uint64_t off, std::byte* mem, std::uint64_t len) {
                   return pwrite(off, std::span<const std::byte>(mem, len));
                 });
}

Result<AioHandle> AdioDriver::submit_pread(std::uint64_t off,
                                           std::span<std::byte> out) {
  return complete_at_submit(pread(off, out));
}

Result<AioHandle> AdioDriver::submit_pwrite(std::uint64_t off,
                                            std::span<const std::byte> in) {
  return complete_at_submit(pwrite(off, in));
}

AioHandle AdioDriver::complete_at_submit(const Result<std::uint64_t>& r) {
  const SyncAio a{r.ok() ? Err::kOk : r.error(), r.ok() ? r.value() : 0,
                  true};
  if (!free_aio_.empty()) {
    const AioHandle h = free_aio_.back();
    free_aio_.pop_back();
    sync_aio_[h] = a;
    return h;
  }
  sync_aio_.push_back(a);
  return static_cast<AioHandle>(sync_aio_.size() - 1);
}

Err AdioDriver::aio_wait(AioHandle h, std::uint64_t* bytes) {
  if (h >= sync_aio_.size() || !sync_aio_[h].in_use) return Err::kInval;
  sync_aio_[h].in_use = false;
  free_aio_.push_back(h);
  if (bytes != nullptr) *bytes = sync_aio_[h].bytes;
  return sync_aio_[h].status;
}

}  // namespace mpiio
