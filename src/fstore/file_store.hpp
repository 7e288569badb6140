#pragma once

#include <cstddef>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/expected.hpp"
#include "sim/stats.hpp"
#include "fstore/journal.hpp"
#include "fstore/types.hpp"

namespace sim {
class FaultPlan;
class Tracer;
}

namespace fstore {

template <typename T>
using Result = sim::Expected<T, Errc>;

/// Configuration for the store.
struct Options {
  /// Extent chunk size. File data lives in fixed-size chunks carved out of
  /// large slabs so a DAFS server can register whole slabs with its NIC once
  /// and RDMA straight out of the buffer cache.
  std::size_t chunk_size = 64 * 1024;
  /// Chunks per slab.
  std::size_t chunks_per_slab = 256;
  /// Model a disk behind the buffer cache. Off by default: the paper's
  /// bandwidth experiments run against a warm server cache.
  bool disk_enabled = false;
  /// Buffer-cache capacity in chunks when the disk model is on.
  std::size_t cache_chunks = 4096;
  /// Disk service parameters (charged per missing chunk).
  std::uint64_t disk_latency_ns = 5'000'000;  // 5 ms seek+rotate
  double disk_mbps = 40.0;
  /// Host copy rate for the copying data path (keep in sync with the
  /// fabric's CostModel::memcpy_mbps).
  double memcpy_mbps = 400.0;
  /// Modeled CRC-32C throughput, charged per byte verified on the
  /// verify-on-read path and by the scrubber (software checksumming on
  /// paper-era hosts runs well above the copy rate but is not free — E19
  /// sweeps the resulting overhead).
  double crc_mbps = 2000.0;
  /// Optional fault plan consulted on the read paths (short reads and
  /// injected media errors). Not owned; the DAFS server wires the fabric's
  /// plan in here so one switchboard drives every layer.
  sim::FaultPlan* faults = nullptr;
  /// Optional request tracer (sim/trace.hpp). Not owned; the DAFS server
  /// wires the fabric's tracer in so journal appends and data-path service
  /// appear as spans under the worker's open request span.
  sim::Tracer* tracer = nullptr;
  /// Write-ahead record journal, making `sync` a real durability barrier:
  /// data writes are held as volatile intents and become one CRC-framed
  /// `kSyncCommit` record when their inode is synced (all of an inode's
  /// un-synced intents commit atomically — a torn multi-block write is never
  /// partially visible after `crash()`); namespace/metadata ops and named
  /// counters append records durable-immediately. The record log is the
  /// durable image: crash replay rebuilds live state from it, and a DAFS
  /// quorum leader ships its raw bytes to the followers. Off by
  /// default (the NFS baseline and raw benches model an always-up store);
  /// the DAFS server turns it on.
  bool journal_enabled = false;
  /// Watermark on un-synced intent bytes: crossing it triggers an internal
  /// write-back of every pending intent (an early sync is always legal), so
  /// journal memory stays bounded under sync-free streaming workloads.
  std::size_t journal_autosync_bytes = 32u << 20;
};

/// The file server's storage substrate: an in-memory inode-based file system
/// with directory tree, sparse chunked extents, attributes, and an optional
/// buffer-cache/disk model. Thread-safe (single internal lock: the vnode
/// layer serializes, which is also how the CPU-contention model wants it).
///
/// Two data paths mirror what a DAFS filer does:
///  * `pread`/`pwrite`: copy in/out of a caller buffer (the inline path and
///    the NFS baseline). Charges host memcpy time to the calling actor.
///  * `extents_for_read`/`ensure_extents`: expose the cache chunks
///    themselves so the caller can DMA from/to them with zero host copies
///    (the direct path). Only per-op vnode costs are charged.
class FileStore {
 public:
  /// `on_new_slab` fires whenever the store allocates a fresh slab; the DAFS
  /// server uses it to register slab memory with its NIC.
  explicit FileStore(Options opt = {},
                     std::function<void(std::span<std::byte>)> on_new_slab = {});

  FileStore(const FileStore&) = delete;
  FileStore& operator=(const FileStore&) = delete;

  // ---- namespace ----------------------------------------------------------
  Result<Ino> lookup(Ino dir, std::string_view name) const;
  /// Resolve a '/'-separated path from the root. Empty or "/" is the root.
  Result<Ino> resolve(std::string_view path) const;
  Result<Ino> create(Ino dir, std::string_view name, bool exclusive);
  Result<Ino> mkdir(Ino dir, std::string_view name);
  Errc remove(Ino dir, std::string_view name);
  Errc rmdir(Ino dir, std::string_view name);
  Errc rename(Ino from_dir, std::string_view from, Ino to_dir,
              std::string_view to);
  Result<std::vector<DirEntry>> readdir(Ino dir) const;

  // ---- attributes ----------------------------------------------------------
  Result<Attrs> getattr(Ino ino) const;
  Errc set_size(Ino ino, std::uint64_t size);

  // ---- data: copying path --------------------------------------------------
  /// Read up to out.size() bytes at `off`; returns bytes read (short at EOF).
  /// With `verify`, every sector of every touched chunk is re-hashed against
  /// its stored CRC-32C first — a mismatch returns kCorrupt instead of
  /// serving rotted bytes (and charges modeled checksum time).
  Result<std::uint64_t> pread(Ino ino, std::uint64_t off,
                              std::span<std::byte> out, bool verify = false);
  /// Write in.size() bytes at `off`, extending the file as needed.
  Result<std::uint64_t> pwrite(Ino ino, std::uint64_t off,
                               std::span<const std::byte> in);

  // ---- data: zero-copy (DMA) path -------------------------------------------
  /// Chunk-pieces covering [off, off+len) of existing file data, clamped to
  /// EOF. The spans point into the buffer cache; valid until the file is
  /// truncated or removed. `verify` as in pread: checksum-check every chunk
  /// before exposing it as a DMA source.
  Result<std::vector<std::span<std::byte>>> extents_for_read(
      Ino ino, std::uint64_t off, std::uint64_t len, bool verify = false);
  /// Allocate (if needed) and return chunk-pieces covering [off, off+len)
  /// for an incoming write; call `commit_write` afterwards to update size
  /// and mtime.
  Result<std::vector<std::span<std::byte>>> ensure_extents(
      Ino ino, std::uint64_t off, std::uint64_t len);
  Errc commit_write(Ino ino, std::uint64_t off, std::uint64_t len);

  /// Durability barrier: atomically commit every un-synced intent of `ino`
  /// to the durable image. After it returns, the data survives `crash()`.
  Errc sync(Ino ino);
  /// Commit every pending intent (all inodes).
  void sync_all();

  // ---- crash / restart ------------------------------------------------------
  /// Simulate the server process dying and restarting: discard all volatile
  /// state (un-synced intents, live inode table, buffer-cache model) and
  /// replay the record journal from offset 0, truncating any torn or
  /// corrupt tail first. Cache slabs are recycled, never freed, so NIC
  /// registrations held against them stay valid across the crash. Counters
  /// and the duplicate filter are rebuilt from their synchronously-journaled
  /// records and so survive. A quorum member that imported a leader's
  /// journal stream calls this to materialize the shipped state.
  ///
  /// Returns kOk, or kCorrupt when replay found *interior* journal
  /// corruption — a bad frame with valid records after it. A torn tail is
  /// legal (the interrupted final write never acknowledged) and is truncated
  /// as before; interior rot is not: replay applies only the records before
  /// the bad frame, leaves the log untruncated (truncation would silently
  /// erase the valid suffix), and `journal_corrupt_offset()` names the bad
  /// frame so the mount can be refused.
  Errc crash();
  /// Offset of the interior-corrupt journal frame found by the last crash()
  /// replay, or ~0ull when the journal replayed clean.
  std::uint64_t journal_corrupt_offset() const;
  /// Un-synced intent bytes currently pending (not yet folded into a
  /// kSyncCommit record).
  std::size_t journal_pending_bytes() const;

  // ---- record log (replication surface) -------------------------------------
  /// The CRC-framed record log backing durability. A DAFS quorum leader
  /// streams its raw bytes to followers (`read`) and they import them
  /// (`import`); every member replays identically.
  FStoreJournal& journal_log() { return jlog_; }
  const FStoreJournal& journal_log() const { return jlog_; }
  /// Current record-log size in bytes (the replication high-water mark).
  std::uint64_t journal_size() const { return jlog_.size(); }
  /// Append an opaque server-state record (session-id watermark + epoch).
  /// The store ignores it on replay except to remember the latest values,
  /// which `server_state_watermark` exposes to a new quorum leader.
  void journal_server_state(std::uint64_t next_session, std::uint64_t epoch);
  std::uint64_t server_state_watermark() const;

  // ---- named atomic counters (DAFS extension backing MPI shared pointers) --
  /// Atomically add `delta` to the counter `key`, returning the old value.
  std::uint64_t counter_fetch_add(const std::string& key, std::uint64_t delta);
  void counter_set(const std::string& key, std::uint64_t value);
  /// Exactly-once variant: if this (client_id, seq) mutation was already
  /// applied — the client is retransmitting into a restarted server whose
  /// volatile replay cache died — return the recorded old value instead of
  /// re-applying. client_id == 0 or seq == 0 bypasses the filter.
  std::uint64_t counter_fetch_add_once(const std::string& key,
                                       std::uint64_t delta,
                                       std::uint64_t client_id,
                                       std::uint32_t seq);
  /// Drop duplicate-filter records the client has acknowledged (all seqs
  /// <= upto_seq), bounding filter memory.
  void dup_forget(std::uint64_t client_id, std::uint32_t upto_seq);

  // ---- block integrity (checksums at rest) ---------------------------------
  /// Checksum granularity at rest: one CRC-32C per 4 KiB sector of each
  /// allocated chunk (the cost model's page), capped at the chunk size, so
  /// the last sector of a chunk may be short. A write re-hashes only the
  /// sectors it touched; verification still checks every sector of every
  /// chunk it touches.
  static constexpr std::size_t kSectorSize = 4 * 1024;

  /// Recompute the CRC-32C of every sector of every chunk overlapping
  /// [off, off+len) of `ino` (clamped to EOF) against the stored sector
  /// checksums. kOk when all match, kCorrupt on the first mismatch. Holes
  /// verify trivially.
  Errc verify_range(Ino ino, std::uint64_t off, std::uint64_t len);

  /// Scrub cursor: an (inode, chunk) position in the store's block walk.
  struct ScrubCursor {
    Ino ino = 0;
    std::uint64_t chunk = 0;
  };
  struct ScrubBlock {
    Ino ino = kInvalidIno;
    std::uint64_t chunk = 0;
  };
  struct ScrubStep {
    std::size_t checked = 0;       // chunks verified this step
    bool wrapped = false;          // the walk completed a full pass
    std::vector<ScrubBlock> bad;   // chunks whose checksum mismatched
  };
  /// Verify up to `max_chunks` allocated chunks starting at `*cursor`,
  /// advancing the cursor; the background scrubber calls this at a paced
  /// rate. When the walk falls off the end of the inode table the cursor
  /// resets and `wrapped` reports a completed pass. Charges modeled checksum
  /// time for the bytes verified.
  ScrubStep scrub_step(ScrubCursor* cursor, std::size_t max_chunks);

  /// Overwrite one allocated chunk with `data` (zero-padded to the chunk
  /// size) and recompute its sector checksums — the scrub-repair write path.
  /// Deliberately journal-free: repair restores bytes the journal already
  /// vouches for, it does not create new history.
  Errc repair_chunk(Ino ino, std::uint64_t chunk,
                    std::span<const std::byte> data);

  sim::Stats& stats() { return stats_; }
  const Options& options() const { return opt_; }

 private:
  /// One allocated chunk: its cache bytes and the CRC-32C of each of its
  /// sectors (tail bytes past EOF are kept zeroed, so every sector checksum
  /// is well defined). Every mutation path re-hashes the sectors it touched.
  struct Chunk {
    std::byte* data = nullptr;
    std::vector<std::uint32_t> sums;
  };
  struct Inode {
    Attrs attrs;
    std::map<std::string, Ino> entries;        // directories
    std::map<std::uint64_t, Chunk> chunks;     // files: chunk idx -> chunk
  };

  /// One pending write intent (data captured at write time, folded into a
  /// single kSyncCommit record when the inode is synced).
  struct Intent {
    Ino ino = kInvalidIno;
    std::uint64_t off = 0;
    std::vector<std::byte> bytes;
  };

  Inode* find_locked(Ino ino);
  const Inode* find_locked(Ino ino) const;
  /// The bytes of sector `s` of a chunk.
  std::span<const std::byte> sector(const Chunk& c, std::size_t s) const;
  /// Recompute and store the checksum of every sector of `c` that overlaps
  /// bytes [from, to) of the chunk; the range is never empty.
  void rehash_locked(Chunk& c, std::uint64_t from, std::uint64_t to);
  /// True when every sector of the chunk still matches its stored checksum
  /// (a hole is clean).
  bool chunk_clean_locked(const Inode& node, std::uint64_t chunk_idx) const;
  /// Charge modeled CRC time for `bytes` to the calling actor.
  void charge_crc(std::uint64_t bytes) const;
  /// Post-write fault hook: flip one seeded bit in the just-written range
  /// when the plan armed at-rest corruption (the checksum was recorded
  /// first, so the rot is detectable).
  void maybe_corrupt_written_locked(Inode& node, std::uint64_t off,
                                    std::uint64_t len);
  Result<Ino> insert_child_locked(Ino dir, std::string_view name,
                                  bool exclusive, bool is_dir);
  Chunk* chunk_for_locked(Inode& node, std::uint64_t chunk_idx,
                          bool allocate);
  void free_file_data_locked(Inode& node);
  void touch_cache_locked(Ino ino, std::uint64_t chunk_idx);
  std::uint64_t now() const;

  // ---- journal internals (all under mu_ unless noted) ----
  /// Append a write intent for [off, off+data.size()) of `ino`; may trigger
  /// an autosync write-back when the watermark is crossed.
  void record_intent_locked(Ino ino, std::uint64_t off,
                            std::span<const std::byte> data);
  /// Fold all pending intents of `ino` into one kSyncCommit record carrying
  /// the live size/mtime, so the whole batch replays atomically (and a
  /// truncate between write and sync never resurrects dead bytes — replay
  /// re-truncates to the recorded size after applying the writes).
  void commit_intents_locked(Ino ino);
  /// Write `data` at `off` of a live inode's chunks (replay data path).
  void apply_bytes_locked(Inode& n, std::uint64_t off,
                          std::span<const std::byte> data);
  /// Drop whole chunks past the new EOF and zero the tail of the last one.
  void truncate_chunks_locked(Inode& n, std::uint64_t size);
  /// Apply one journal record to live state (crash replay). The caller
  /// holds mu_ and counters_mu_ (the counter and dup-filter records touch
  /// the counter maps). Returns data bytes applied.
  std::uint64_t apply_record_locked(RecType type,
                                    std::span<const std::byte> payload);

  Options opt_;
  std::function<void(std::span<std::byte>)> on_new_slab_;

  mutable std::mutex mu_;
  Ino next_ino_ = kRootIno + 1;
  std::uint64_t next_gen_ = 1;
  std::unordered_map<Ino, Inode> inodes_;

  // Pending (volatile) write intents + the durable record log. Creates are
  // journaled durable-immediately, so next_ino_/next_gen_ never regress
  // across a crash and handle (ino, gen) pairs stay unique for the lifetime
  // of the store. The record log only grows (no compaction yet — ROADMAP).
  std::vector<Intent> journal_;
  std::size_t journal_bytes_ = 0;
  FStoreJournal jlog_;
  // Latest kServerState record seen (appended locally or replayed).
  std::uint64_t srv_next_session_ = 0;
  std::uint64_t srv_epoch_ = 0;
  // Checksum sector size (kSectorSize capped at the chunk size), the sector
  // checksums of an all-zero chunk (fresh allocations start checksummed) and
  // the interior-corruption verdict of the last crash() replay.
  std::size_t sector_size_ = 0;
  std::vector<std::uint32_t> zero_sums_;
  std::uint64_t journal_corrupt_offset_ = ~std::uint64_t{0};

  // Slab allocator for chunks.
  std::vector<std::unique_ptr<std::byte[]>> slabs_;
  std::vector<std::byte*> free_chunks_;

  // Buffer-cache model (only consulted when the disk model is enabled):
  // LRU over (ino, chunk) keys; a miss charges disk service time.
  struct CacheKey {
    Ino ino;
    std::uint64_t chunk;
    bool operator==(const CacheKey&) const = default;
  };
  struct CacheKeyHash {
    std::size_t operator()(const CacheKey& k) const {
      return std::hash<std::uint64_t>()(k.ino * 0x9e3779b97f4a7c15ULL ^
                                        k.chunk);
    }
  };
  std::list<CacheKey> lru_;
  std::unordered_map<CacheKey, std::list<CacheKey>::iterator, CacheKeyHash>
      cache_;

  // Lock order: mu_ -> counters_mu_ -> the journal's lock. The counter ops
  // append under counters_mu_, and crash() holds it through the replay.
  std::mutex counters_mu_;
  std::unordered_map<std::string, std::uint64_t> counters_;

  // Durable duplicate filter for counter mutations: (client_id, seq) -> the
  // old value returned when first applied. Survives crash() — models the
  // synchronous journaling real filers give non-idempotent metadata RPCs.
  struct DupKey {
    std::uint64_t client_id;
    std::uint32_t seq;
    bool operator==(const DupKey&) const = default;
  };
  struct DupKeyHash {
    std::size_t operator()(const DupKey& k) const {
      return std::hash<std::uint64_t>()(k.client_id * 0x9e3779b97f4a7c15ULL ^
                                        k.seq);
    }
  };
  std::unordered_map<DupKey, std::uint64_t, DupKeyHash> dup_;

  sim::Stats stats_;
};

}  // namespace fstore
