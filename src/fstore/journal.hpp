#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace fstore {

/// CRC-32 (IEEE 802.3 polynomial, reflected) over a byte span. Both codecs
/// share one slice-by-8 kernel (eight bytes per step through compile-time
/// tables); the values are those of the classic byte-at-a-time table loop.
std::uint32_t crc32(std::span<const std::byte> data);

/// CRC-32C (Castagnoli polynomial, reflected) — the block/wire checksum of
/// the integrity layer (at-rest sector checksums, DAFS payload checksums).
/// Kept distinct from the journal's CRC-32 so a framed journal record can
/// never masquerade as a verified data block. `seed` chains incremental
/// computations: pass the previous call's return value to extend a running
/// checksum over a scatter/gather byte stream.
std::uint32_t crc32c(std::span<const std::byte> data, std::uint32_t seed = 0);

/// Record types in the store's write-ahead log. The log *is* the durable
/// image: local crash-restart replays it from offset 0, and a quorum leader
/// ships its raw bytes to followers which import them verbatim, so every
/// member applies exactly the same record stream.
enum class RecType : std::uint8_t {
  kCreate = 1,   // dir, ino, gen, mtime, is_dir, name
  kRemove,       // dir, name (also the rmdir form)
  kRename,       // from_dir, to_dir, from, to (replaces a file target)
  kSetSize,      // ino, size, mtime
  kSyncCommit,   // ino, size, mtime, n x (off, bytes): one sync, atomically
  kCounterSet,   // value, key
  kCounterAdd,   // delta, client_id, seq, old, key (dup-filter record)
  kDupForget,    // client_id, upto_seq
  kServerState,  // next_session, epoch — opaque to the store, read by the
                 // DAFS server so a new leader mints session ids past every
                 // earlier leader's watermark
  kTermMark,     // term — opaque to the store; a quorum leader appends one on
                 // election so the byte log carries term boundaries and a
                 // follower can locate/truncate a divergent suffix
};

/// Frame prefixed to every record. `crc` covers the payload only, so a torn
/// or bit-flipped tail is detected record-by-record and replay truncates the
/// log back to the last fully-valid frame instead of applying garbage.
struct RecHeader {
  std::uint32_t magic = 0;
  std::uint32_t len = 0;  // payload bytes following this header
  std::uint32_t crc = 0;  // CRC-32 of the payload
  std::uint8_t type = 0;
  std::uint8_t pad[3] = {};
};
static_assert(sizeof(RecHeader) == 16);

inline constexpr std::uint32_t kRecMagic = 0x4653'4A31;  // "FSJ1"

/// Upper bound on the data bytes one kSyncCommit record carries. The
/// replication layers (pair shipping and quorum catch-up) move raw record
/// frames through fixed 256 KiB message buffers and must ship every record
/// whole, so a sync that folds more than this is journalled as several
/// consecutive records rather than one unbounded batch.
inline constexpr std::size_t kSyncRecDataCap = 128 * 1024;

/// Append-only payload builder for journal records (native-endian PODs,
/// length-prefixed strings/blobs; the log never leaves the process except
/// over the in-process simulated fabric).
class RecWriter {
 public:
  void u8(std::uint8_t v) { raw(&v, 1); }
  void u32(std::uint32_t v) { raw(&v, sizeof(v)); }
  void u64(std::uint64_t v) { raw(&v, sizeof(v)); }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }
  void bytes(std::span<const std::byte> b) {
    u32(static_cast<std::uint32_t>(b.size()));
    raw(b.data(), b.size());
  }
  std::span<const std::byte> out() const { return buf_; }

 private:
  void raw(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::byte*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  std::vector<std::byte> buf_;
};

/// Cursor over a record payload. Out-of-bounds reads poison the reader
/// (`ok()` goes false) and return zero values; the CRC makes this a
/// should-never-happen belt-and-braces check, not the torn-tail detector.
class RecReader {
 public:
  explicit RecReader(std::span<const std::byte> in) : in_(in) {}

  std::uint8_t u8() { return pod<std::uint8_t>(); }
  std::uint32_t u32() { return pod<std::uint32_t>(); }
  std::uint64_t u64() { return pod<std::uint64_t>(); }
  std::string str() {
    const std::uint32_t n = u32();
    if (!take(n)) return {};
    std::string s(reinterpret_cast<const char*>(in_.data() + pos_ - n), n);
    return s;
  }
  std::span<const std::byte> bytes() {
    const std::uint32_t n = u32();
    if (!take(n)) return {};
    return in_.subspan(pos_ - n, n);
  }
  bool ok() const { return ok_; }

 private:
  template <typename T>
  T pod() {
    if (!take(sizeof(T))) return T{};
    T v;
    std::memcpy(&v, in_.data() + pos_ - sizeof(T), sizeof(T));
    return v;
  }
  bool take(std::size_t n) {
    if (!ok_ || in_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    pos_ += n;
    return true;
  }
  std::span<const std::byte> in_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// The store's write-ahead record log: a flat byte stream of CRC-framed
/// records. One instance per FileStore; appends come from the store's
/// mutation paths (and the DAFS server's session-watermark records), reads
/// from the replication sender, imports from the replication receiver, and
/// replay from crash-restart. All entry points are internally locked so the
/// sender thread can stream while workers append.
class FStoreJournal {
 public:
  /// Frame `payload` as one record and append it. Returns the log size after
  /// the append (the record's end offset — the value replication acks).
  std::uint64_t append(RecType type, std::span<const std::byte> payload);

  /// Current log size in bytes.
  std::uint64_t size() const;

  /// Copy out whole records starting at byte offset `from` (which must be a
  /// record boundary — `0`, a previous append's return, or an ack). At most
  /// `max_bytes`, but always at least one record when any remain, so a
  /// single oversized record still makes progress through a bounded pipe.
  std::vector<std::byte> read(std::uint64_t from, std::size_t max_bytes) const;

  struct ImportResult {
    std::uint64_t accepted = 0;  // bytes appended (whole valid records)
    bool truncated = false;      // stream had a torn/corrupt tail we dropped
  };
  /// Validate `stream` frame-by-frame (magic, bounds, CRC) and append the
  /// longest valid prefix — the follower-side half of torn-tail truncation.
  ImportResult import(std::span<const std::byte> stream);

  struct ReplayResult {
    std::uint64_t torn_bytes = 0;      // tail bytes truncated off the log
    bool interior_corrupt = false;     // a bad frame had valid records after it
    std::uint64_t corrupt_offset = 0;  // offset of the bad frame when interior
  };
  /// Iterate every valid record in order. A *torn tail* — an invalid frame
  /// with no valid record anywhere after it, i.e. an interrupted final write
  /// — is truncated off the log in place and counted in `torn_bytes`; that
  /// is the legal crash form. A bad frame *followed by* at least one valid
  /// record is interior corruption (bit rot inside stable storage): replay
  /// refuses to truncate — truncating would silently erase the valid suffix
  /// — applies only the records before the bad frame, and surfaces the bad
  /// frame's offset so the mount can be refused / the store marked kCorrupt.
  /// `fn` runs under the journal lock and must not call back into the log.
  ReplayResult replay(
      const std::function<void(RecType, std::span<const std::byte>)>& fn);

  /// Iterate every valid record with its start offset, without mutating the
  /// log (a torn tail is skipped, not truncated). Used to rebuild term-run
  /// tables from kTermMark records. Same locking contract as replay().
  void scan(const std::function<void(std::uint64_t, RecType,
                                     std::span<const std::byte>)>& fn) const;

  /// Discard every byte at or past `size` — the divergent-suffix half of
  /// quorum re-silvering (a rejoining follower cuts back to the leader's
  /// matching offset before catching up). Returns the bytes dropped; a
  /// `size` at or past the current end is a no-op.
  std::uint64_t truncate(std::uint64_t size);

  /// Test hook: flip one byte in the last record's payload, simulating a
  /// torn/corrupted tail on stable storage.
  void corrupt_tail_byte();
  /// Test hook: flip one byte at absolute log offset `off`, simulating bit
  /// rot *inside* the record stream (interior corruption when valid records
  /// follow the damaged frame).
  void corrupt_byte_at(std::uint64_t off);
  /// Test hook: chop `n` bytes off the end of the log, simulating a write
  /// torn mid-record by a power cut.
  void chop_tail(std::uint64_t n);

  void reset();

 private:
  /// Byte length of the valid record prefix of `log` (frames parse, CRCs
  /// match); sets `*records` to the count when non-null.
  static std::uint64_t valid_prefix(std::span<const std::byte> log,
                                    std::size_t* records);
  /// True when a complete valid record exists anywhere in `tail` — the
  /// torn-vs-interior discriminator: a torn write leaves only garbage after
  /// the break, while bit rot leaves the undamaged suffix intact.
  static bool has_valid_record(std::span<const std::byte> tail);

  mutable std::mutex mu_;
  std::vector<std::byte> log_;
};

}  // namespace fstore
