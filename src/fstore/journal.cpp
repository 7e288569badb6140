#include "fstore/journal.hpp"

#include <algorithm>
#include <array>
#include <bit>

namespace fstore {

namespace {

// Slice-by-8 tables for a reflected polynomial. t[0] is the classic byte
// table; t[k][i] is the register after byte i is followed by k zero bytes,
// so the eight bytes of one step fold into the register with eight
// independent lookups instead of a chain of eight dependent ones.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables(std::uint32_t poly) {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? poly ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
    }
  }
  return t;
}

constexpr CrcTables kCrc32Tables = make_crc_tables(0xEDB88320u);
constexpr CrcTables kCrc32cTables = make_crc_tables(0x82F63B78u);

// The word loop reads the first byte of the stream from the low end of the
// 8-byte load, which is the byte order a reflected CRC consumes.
static_assert(std::endian::native == std::endian::little,
              "slice-by-8 CRC assumes little-endian word loads");

// Advances the (pre-inverted) CRC register `c` over `data`: eight bytes per
// step, then one table lookup per tail byte.
std::uint32_t crc_update(const CrcTables& t, std::uint32_t c,
                         std::span<const std::byte> data) {
  const std::byte* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, sizeof(w));
    w ^= c;
    c = t[7][w & 0xFFu] ^ t[6][(w >> 8) & 0xFFu] ^ t[5][(w >> 16) & 0xFFu] ^
        t[4][(w >> 24) & 0xFFu] ^ t[3][(w >> 32) & 0xFFu] ^
        t[2][(w >> 40) & 0xFFu] ^ t[1][(w >> 48) & 0xFFu] ^ t[0][w >> 56];
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ static_cast<std::uint8_t>(*p)) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

}  // namespace

std::uint32_t crc32(std::span<const std::byte> data) {
  return crc_update(kCrc32Tables, 0xFFFFFFFFu, data) ^ 0xFFFFFFFFu;
}

std::uint32_t crc32c(std::span<const std::byte> data, std::uint32_t seed) {
  return crc_update(kCrc32cTables, seed ^ 0xFFFFFFFFu, data) ^ 0xFFFFFFFFu;
}

std::uint64_t FStoreJournal::valid_prefix(std::span<const std::byte> log,
                                          std::size_t* records) {
  std::size_t pos = 0;
  std::size_t count = 0;
  while (log.size() - pos >= sizeof(RecHeader)) {
    RecHeader h;
    std::memcpy(&h, log.data() + pos, sizeof(h));
    if (h.magic != kRecMagic) break;
    if (log.size() - pos - sizeof(RecHeader) < h.len) break;  // torn tail
    const auto payload = log.subspan(pos + sizeof(RecHeader), h.len);
    if (crc32(payload) != h.crc) break;  // bit rot / partial overwrite
    pos += sizeof(RecHeader) + h.len;
    ++count;
  }
  if (records != nullptr) *records = count;
  return pos;
}

bool FStoreJournal::has_valid_record(std::span<const std::byte> tail) {
  // Scan every byte offset for a complete, CRC-clean frame. A torn write
  // leaves only the interrupted suffix (no full frame can follow the break),
  // so finding one proves the damage sits *inside* otherwise-intact storage.
  for (std::size_t pos = 0; pos + sizeof(RecHeader) <= tail.size(); ++pos) {
    RecHeader h;
    std::memcpy(&h, tail.data() + pos, sizeof(h));
    if (h.magic != kRecMagic) continue;
    if (tail.size() - pos - sizeof(RecHeader) < h.len) continue;
    if (crc32(tail.subspan(pos + sizeof(RecHeader), h.len)) == h.crc) {
      return true;
    }
  }
  return false;
}

std::uint64_t FStoreJournal::append(RecType type,
                                    std::span<const std::byte> payload) {
  RecHeader h;
  h.magic = kRecMagic;
  h.len = static_cast<std::uint32_t>(payload.size());
  h.crc = crc32(payload);
  h.type = static_cast<std::uint8_t>(type);
  std::lock_guard lock(mu_);
  const auto* hb = reinterpret_cast<const std::byte*>(&h);
  log_.insert(log_.end(), hb, hb + sizeof(h));
  log_.insert(log_.end(), payload.begin(), payload.end());
  return log_.size();
}

std::uint64_t FStoreJournal::size() const {
  std::lock_guard lock(mu_);
  return log_.size();
}

std::vector<std::byte> FStoreJournal::read(std::uint64_t from,
                                           std::size_t max_bytes) const {
  std::lock_guard lock(mu_);
  std::vector<std::byte> out;
  if (from >= log_.size()) return out;
  std::size_t pos = from;
  while (log_.size() - pos >= sizeof(RecHeader)) {
    RecHeader h;
    std::memcpy(&h, log_.data() + pos, sizeof(h));
    if (h.magic != kRecMagic) break;  // caller's offset was not a boundary
    const std::size_t rec = sizeof(RecHeader) + h.len;
    if (log_.size() - pos < rec) break;
    // Stop before exceeding the budget — unless this is the first record,
    // which is returned whole so an oversized record cannot wedge a reader
    // that pages through the log in max_bytes steps.
    if (pos != from && (pos + rec) - from > max_bytes) break;
    pos += rec;
    if (pos - from >= max_bytes) break;
  }
  out.assign(log_.begin() + static_cast<std::ptrdiff_t>(from),
             log_.begin() + static_cast<std::ptrdiff_t>(pos));
  return out;
}

FStoreJournal::ImportResult FStoreJournal::import(
    std::span<const std::byte> stream) {
  ImportResult res;
  res.accepted = valid_prefix(stream, nullptr);
  res.truncated = res.accepted < stream.size();
  if (res.accepted > 0) {
    std::lock_guard lock(mu_);
    log_.insert(log_.end(), stream.begin(),
                stream.begin() + static_cast<std::ptrdiff_t>(res.accepted));
  }
  return res;
}

FStoreJournal::ReplayResult FStoreJournal::replay(
    const std::function<void(RecType, std::span<const std::byte>)>& fn) {
  std::lock_guard lock(mu_);
  ReplayResult res;
  const std::uint64_t good = valid_prefix(log_, nullptr);
  if (good < log_.size()) {
    if (has_valid_record(std::span<const std::byte>(log_).subspan(
            good + 1))) {
      // Interior corruption: valid records live past the bad frame, so this
      // is bit rot, not a torn final write. Truncating would silently erase
      // a legal journal suffix — keep the log intact (evidence included)
      // and let the caller refuse the mount.
      res.interior_corrupt = true;
      res.corrupt_offset = good;
    } else {
      res.torn_bytes = log_.size() - good;
      log_.resize(good);
    }
  }
  std::size_t pos = 0;
  while (pos < good) {
    RecHeader h;
    std::memcpy(&h, log_.data() + pos, sizeof(h));
    fn(static_cast<RecType>(h.type),
       std::span<const std::byte>(log_).subspan(pos + sizeof(RecHeader),
                                                h.len));
    pos += sizeof(RecHeader) + h.len;
  }
  return res;
}

void FStoreJournal::scan(
    const std::function<void(std::uint64_t, RecType,
                             std::span<const std::byte>)>& fn) const {
  std::lock_guard lock(mu_);
  const std::uint64_t good = valid_prefix(log_, nullptr);
  std::size_t pos = 0;
  while (pos < good) {
    RecHeader h;
    std::memcpy(&h, log_.data() + pos, sizeof(h));
    fn(pos, static_cast<RecType>(h.type),
       std::span<const std::byte>(log_).subspan(pos + sizeof(RecHeader),
                                                h.len));
    pos += sizeof(RecHeader) + h.len;
  }
}

std::uint64_t FStoreJournal::truncate(std::uint64_t size) {
  std::lock_guard lock(mu_);
  if (size >= log_.size()) return 0;
  const std::uint64_t dropped = log_.size() - size;
  log_.resize(size);
  return dropped;
}

void FStoreJournal::corrupt_tail_byte() {
  std::lock_guard lock(mu_);
  if (log_.empty()) return;
  log_.back() ^= std::byte{0x01};
}

void FStoreJournal::corrupt_byte_at(std::uint64_t off) {
  std::lock_guard lock(mu_);
  if (off >= log_.size()) return;
  log_[off] ^= std::byte{0x01};
}

void FStoreJournal::chop_tail(std::uint64_t n) {
  std::lock_guard lock(mu_);
  log_.resize(log_.size() - std::min<std::uint64_t>(n, log_.size()));
}

void FStoreJournal::reset() {
  std::lock_guard lock(mu_);
  log_.clear();
}

}  // namespace fstore
