#include "mpiio/ad_dafs.hpp"

#include <vector>

namespace mpiio {

namespace {

/// DAFS batch requests carry the segment list in the request message; split
/// oversized lists so each request fits.
constexpr std::size_t kMaxSegsPerRequest = 400;

std::vector<dafs::IoVec> to_iovecs(std::span<const IoSeg> segs) {
  std::vector<dafs::IoVec> out;
  out.reserve(segs.size());
  for (const IoSeg& s : segs) {
    out.push_back(dafs::IoVec{s.file_off, s.mem, s.len});
  }
  return out;
}

}  // namespace

Result<std::uint64_t> AdDafs::read_list(std::span<const IoSeg> segs) {
  // Small segments would each pay a direct-I/O registration; fall back to
  // the default per-run path (inline transfers) when everything is tiny.
  std::uint64_t total_len = 0;
  for (const IoSeg& s : segs) total_len += s.len;
  if (total_len < client_.config().direct_threshold) {
    return AdioDriver::read_list(segs);
  }
  std::uint64_t total = 0;
  auto iovs = to_iovecs(segs);
  for (std::size_t i = 0; i < iovs.size(); i += kMaxSegsPerRequest) {
    const std::size_t n = std::min(kMaxSegsPerRequest, iovs.size() - i);
    std::uint64_t want = 0;
    for (std::size_t k = i; k < i + n; ++k) want += iovs[k].len;
    auto r = client_.read_batch(fh_, std::span(iovs.data() + i, n));
    if (!r.ok()) return r;
    total += r.value();
    // A short batch means EOF inside it; later batches lie wholly past EOF,
    // and issuing them would over-report the transfer across the hole.
    if (r.value() < want) break;
  }
  return total;
}

Result<std::uint64_t> AdDafs::write_list(std::span<const IoSeg> segs) {
  std::uint64_t total_len = 0;
  for (const IoSeg& s : segs) total_len += s.len;
  if (total_len < client_.config().direct_threshold) {
    return AdioDriver::write_list(segs);
  }
  std::uint64_t total = 0;
  auto iovs = to_iovecs(segs);
  for (std::size_t i = 0; i < iovs.size(); i += kMaxSegsPerRequest) {
    const std::size_t n = std::min(kMaxSegsPerRequest, iovs.size() - i);
    std::uint64_t want = 0;
    for (std::size_t k = i; k < i + n; ++k) want += iovs[k].len;
    auto r = client_.write_batch(fh_, std::span(iovs.data() + i, n));
    if (!r.ok()) return r;
    total += r.value();
    // Stop on a short batch: the device accepted less than asked, so
    // continuing would misstate how much of the list actually landed.
    if (r.value() < want) break;
  }
  return total;
}

}  // namespace mpiio
