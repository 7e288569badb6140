#include "mpiio/ad_dafs.hpp"

#include <vector>

namespace mpiio {

namespace {

std::vector<dafs::IoVec> to_iovecs(std::span<const IoSeg> segs) {
  std::vector<dafs::IoVec> out;
  out.reserve(segs.size());
  for (const IoSeg& s : segs) {
    out.push_back(dafs::IoVec{s.file_off, s.mem, s.len});
  }
  return out;
}

std::uint64_t total_len(std::span<const IoSeg> segs) {
  std::uint64_t n = 0;
  for (const IoSeg& s : segs) n += s.len;
  return n;
}

}  // namespace

// The whole list goes to the client, which decides how many requests it
// takes. Small segments would each pay a direct-I/O registration, so a list
// that is tiny overall takes the default per-run path (inline transfers).

Result<std::uint64_t> AdDafs::read_list(std::span<const IoSeg> segs) {
  if (total_len(segs) < client_.config().direct_threshold) {
    return AdioDriver::read_list(segs);
  }
  return client_.read_batch(fh_, to_iovecs(segs));
}

Result<std::uint64_t> AdDafs::write_list(std::span<const IoSeg> segs) {
  if (total_len(segs) < client_.config().direct_threshold) {
    return AdioDriver::write_list(segs);
  }
  return client_.write_batch(fh_, to_iovecs(segs));
}

}  // namespace mpiio
