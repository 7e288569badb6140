#include "fstore/file_store.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <optional>

#include "sim/actor.hpp"
#include "sim/cost_model.hpp"
#include "sim/fault.hpp"
#include "sim/trace.hpp"

namespace fstore {

using sim::Actor;
using sim::CostKind;

namespace {
// One all-zero checksum sector: fresh chunks are born with its checksums,
// and a repair candidate is zero-padded with it.
constexpr std::byte kZeroSector[FileStore::kSectorSize] = {};
}  // namespace

FileStore::FileStore(Options opt,
                     std::function<void(std::span<std::byte>)> on_new_slab)
    : opt_(opt),
      on_new_slab_(std::move(on_new_slab)),
      sector_size_(std::min(kSectorSize, opt_.chunk_size)) {
  // Fresh chunks are zero-filled, so they are born with these checksums.
  for (std::size_t at = 0; at < opt_.chunk_size; at += sector_size_) {
    zero_sums_.push_back(crc32c(std::span(kZeroSector).first(
        std::min(sector_size_, opt_.chunk_size - at))));
  }
  Inode root;
  root.attrs.ino = kRootIno;
  root.attrs.is_dir = true;
  root.attrs.nlink = 2;
  root.attrs.gen = next_gen_++;
  // The root is implicit (recreated by crash replay before any records
  // apply), so an empty — or journal-less — store still restarts with a
  // valid file system.
  inodes_.emplace(kRootIno, std::move(root));
}

std::uint64_t FileStore::now() const {
  Actor* actor = Actor::current();
  return actor ? actor->now() : 0;
}

// ---------------------------------------------------------------------------
// Internals
// ---------------------------------------------------------------------------

FileStore::Inode* FileStore::find_locked(Ino ino) {
  auto it = inodes_.find(ino);
  return it == inodes_.end() ? nullptr : &it->second;
}

const FileStore::Inode* FileStore::find_locked(Ino ino) const {
  auto it = inodes_.find(ino);
  return it == inodes_.end() ? nullptr : &it->second;
}

FileStore::Chunk* FileStore::chunk_for_locked(Inode& node,
                                              std::uint64_t chunk_idx,
                                              bool allocate) {
  auto it = node.chunks.find(chunk_idx);
  if (it != node.chunks.end()) return &it->second;
  if (!allocate) return nullptr;
  if (free_chunks_.empty()) {
    const std::size_t slab_bytes = opt_.chunk_size * opt_.chunks_per_slab;
    slabs_.push_back(std::make_unique<std::byte[]>(slab_bytes));
    std::byte* base = slabs_.back().get();
    std::memset(base, 0, slab_bytes);
    if (on_new_slab_) on_new_slab_(std::span<std::byte>(base, slab_bytes));
    for (std::size_t i = 0; i < opt_.chunks_per_slab; ++i) {
      free_chunks_.push_back(base + i * opt_.chunk_size);
    }
    stats_.add("fstore.slabs");
  }
  std::byte* data = free_chunks_.back();
  free_chunks_.pop_back();
  std::memset(data, 0, opt_.chunk_size);
  stats_.add("fstore.chunks_allocated");
  return &node.chunks.emplace(chunk_idx, Chunk{data, zero_sums_})
              .first->second;
}

void FileStore::free_file_data_locked(Inode& node) {
  for (auto& [idx, c] : node.chunks) free_chunks_.push_back(c.data);
  node.chunks.clear();
}

// ---------------------------------------------------------------------------
// Block integrity
// ---------------------------------------------------------------------------

std::span<const std::byte> FileStore::sector(const Chunk& c,
                                             std::size_t s) const {
  const std::size_t at = s * sector_size_;
  return {c.data + at, std::min(sector_size_, opt_.chunk_size - at)};
}

void FileStore::rehash_locked(Chunk& c, std::uint64_t from, std::uint64_t to) {
  for (std::size_t s = from / sector_size_; s * sector_size_ < to; ++s) {
    c.sums[s] = crc32c(sector(c, s));
  }
}

bool FileStore::chunk_clean_locked(const Inode& node,
                                   std::uint64_t chunk_idx) const {
  auto it = node.chunks.find(chunk_idx);
  if (it == node.chunks.end()) return true;  // hole: nothing stored to rot
  const Chunk& c = it->second;
  for (std::size_t s = 0; s < c.sums.size(); ++s) {
    if (crc32c(sector(c, s)) != c.sums[s]) return false;
  }
  return true;
}

void FileStore::charge_crc(std::uint64_t bytes) const {
  if (bytes == 0) return;
  if (Actor* actor = Actor::current()) {
    actor->charge(CostKind::kChecksum,
                  static_cast<sim::Time>(static_cast<double>(bytes) * 1'000.0 /
                                         opt_.crc_mbps));
  }
}

void FileStore::maybe_corrupt_written_locked(Inode& node, std::uint64_t off,
                                             std::uint64_t len) {
  if (opt_.faults == nullptr || len == 0 || !opt_.faults->armed()) return;
  std::uint64_t flip = 0;
  if (!opt_.faults->on_fstore_write(&flip)) return;
  // Flip one seeded bit inside the freshly-written range. The checksum was
  // recorded before this hook runs, so the rot is silent until a verifying
  // read or the scrubber recomputes the block checksum.
  const std::uint64_t pos = off + flip % len;
  const std::uint64_t ci = pos / opt_.chunk_size;
  auto it = node.chunks.find(ci);
  if (it == node.chunks.end()) return;
  it->second.data[pos % opt_.chunk_size] ^=
      static_cast<std::byte>(1u << ((flip >> 16) % 8));
  stats_.add("fault.fstore_bitflips");
}

Errc FileStore::verify_range(Ino ino, std::uint64_t off, std::uint64_t len) {
  std::lock_guard lock(mu_);
  const Inode* n = find_locked(ino);
  if (n == nullptr) return Errc::kStale;
  if (n->attrs.is_dir) return Errc::kIsDir;
  if (off >= n->attrs.size) return Errc::kOk;
  len = std::min(len, n->attrs.size - off);
  std::uint64_t checked = 0;
  for (std::uint64_t ci = off / opt_.chunk_size;
       ci <= (off + len - 1) / opt_.chunk_size; ++ci) {
    if (n->chunks.count(ci) != 0) checked += opt_.chunk_size;
    if (!chunk_clean_locked(*n, ci)) {
      charge_crc(checked);
      stats_.add("fstore.corrupt_blocks_detected");
      return Errc::kCorrupt;
    }
  }
  charge_crc(checked);
  return Errc::kOk;
}

FileStore::ScrubStep FileStore::scrub_step(ScrubCursor* cursor,
                                           std::size_t max_chunks) {
  std::lock_guard lock(mu_);
  ScrubStep out;
  std::uint64_t crc_bytes = 0;
  while (out.checked < max_chunks) {
    // Smallest live inode at or past the cursor (the table is unordered, so
    // scan — store scale in the sim keeps this cheap).
    const Inode* best = nullptr;
    Ino best_ino = ~Ino{0};
    for (const auto& [ino, node] : inodes_) {
      if (ino < cursor->ino || node.attrs.is_dir || node.chunks.empty()) {
        continue;
      }
      if (ino < best_ino) {
        best = &node;
        best_ino = ino;
      }
    }
    if (best == nullptr) {
      // Walk fell off the end of the table: one pass is complete.
      out.wrapped = true;
      *cursor = ScrubCursor{};
      break;
    }
    auto it = best->chunks.lower_bound(cursor->chunk);
    for (; it != best->chunks.end() && out.checked < max_chunks; ++it) {
      ++out.checked;
      crc_bytes += opt_.chunk_size;
      if (!chunk_clean_locked(*best, it->first)) {
        out.bad.push_back(ScrubBlock{best_ino, it->first});
      }
    }
    if (it == best->chunks.end()) {
      cursor->ino = best_ino + 1;
      cursor->chunk = 0;
    } else {
      cursor->ino = best_ino;
      cursor->chunk = it->first;
    }
  }
  charge_crc(crc_bytes);
  stats_.add("fstore.scrub_chunks_checked", out.checked);
  return out;
}

Errc FileStore::repair_chunk(Ino ino, std::uint64_t chunk,
                             std::span<const std::byte> data) {
  std::lock_guard lock(mu_);
  Inode* n = find_locked(ino);
  if (n == nullptr) return Errc::kStale;
  if (n->attrs.is_dir) return Errc::kIsDir;
  auto it = n->chunks.find(chunk);
  if (it == n->chunks.end()) return Errc::kNoEnt;
  Chunk& c = it->second;
  const std::size_t len = std::min(data.size(), opt_.chunk_size);
  // The stored checksums were recorded at write time, before any rot, so
  // they name the bytes this chunk is supposed to hold. A candidate copy
  // that does not hash to them, sector by sector and zero-padded to the
  // chunk, is stale (fetched from a replica whose journal is behind) —
  // installing it would silently rewind an acknowledged write.
  for (std::size_t s = 0; s < c.sums.size(); ++s) {
    const std::size_t at = s * sector_size_;
    const std::size_t want = sector(c, s).size();
    const std::size_t have = at < len ? std::min(want, len - at) : 0;
    const std::uint32_t crc =
        crc32c(std::span(kZeroSector).first(want - have),
               crc32c(data.subspan(std::min(at, len), have)));
    if (crc != c.sums[s]) {
      stats_.add("fstore.repair_rejected_stale");
      return Errc::kCorrupt;
    }
  }
  if (len > 0) std::memcpy(c.data, data.data(), len);
  if (len < opt_.chunk_size) {
    std::memset(c.data + len, 0, opt_.chunk_size - len);
  }
  rehash_locked(c, 0, opt_.chunk_size);
  stats_.add("fstore.chunks_repaired");
  return Errc::kOk;
}

// ---------------------------------------------------------------------------
// Journal / durable image
// ---------------------------------------------------------------------------

void FileStore::apply_bytes_locked(Inode& n, std::uint64_t off,
                                   std::span<const std::byte> data) {
  std::uint64_t done = 0;
  while (done < data.size()) {
    const std::uint64_t pos = off + done;
    const std::uint64_t ci = pos / opt_.chunk_size;
    const std::uint64_t co = pos % opt_.chunk_size;
    const std::uint64_t n_here =
        std::min<std::uint64_t>(data.size() - done, opt_.chunk_size - co);
    Chunk* chunk = chunk_for_locked(n, ci, /*allocate=*/true);
    std::memcpy(chunk->data + co, data.data() + done, n_here);
    rehash_locked(*chunk, co, co + n_here);
    done += n_here;
  }
}

void FileStore::truncate_chunks_locked(Inode& n, std::uint64_t size) {
  const std::uint64_t first_dead =
      (size + opt_.chunk_size - 1) / opt_.chunk_size;
  for (auto it = n.chunks.lower_bound(first_dead); it != n.chunks.end();) {
    free_chunks_.push_back(it->second.data);
    it = n.chunks.erase(it);
  }
  const std::uint64_t tail = size % opt_.chunk_size;
  if (tail != 0) {
    auto it = n.chunks.find(size / opt_.chunk_size);
    if (it != n.chunks.end()) {
      std::memset(it->second.data + tail, 0, opt_.chunk_size - tail);
      rehash_locked(it->second, tail, opt_.chunk_size);
    }
  }
}

void FileStore::commit_intents_locked(Ino ino) {
  const Inode* n = find_locked(ino);
  std::size_t committed = 0;
  std::vector<Intent> batch;
  for (auto it = journal_.begin(); it != journal_.end();) {
    if (it->ino != ino) {
      ++it;
      continue;
    }
    journal_bytes_ -= it->bytes.size();
    if (n != nullptr) {
      committed += it->bytes.size();
      batch.push_back(std::move(*it));
    }
    it = journal_.erase(it);
  }
  // The batch (plus the final size, which a truncate between write and sync
  // may have shrunk — replay re-applies it, never resurrecting dead bytes)
  // is journalled in kSyncRecDataCap-bounded records: the replication
  // message buffers are fixed-size and every record must ship whole.
  // Intents pack into a record until the cap, and a single oversized intent
  // is sliced into adjacent sub-ranges — replay applies records in order,
  // which folds to the same bytes. Torn-tail truncation can now surface a
  // prefix of the batch after a local crash, which is legal: the sync never
  // acknowledged, and each record re-applies the final size itself.
  if (n != nullptr && committed > 0 && opt_.journal_enabled) {
    std::size_t i = 0;   // next intent
    std::size_t sub = 0; // bytes of batch[i] already journalled
    while (i < batch.size()) {
      RecWriter body;
      std::uint32_t nintents = 0;
      std::size_t rec_bytes = 0;
      while (i < batch.size() && rec_bytes < kSyncRecDataCap) {
        const Intent& in = batch[i];
        const std::size_t take =
            std::min(in.bytes.size() - sub, kSyncRecDataCap - rec_bytes);
        body.u64(in.off + sub);
        body.bytes(std::span(in.bytes).subspan(sub, take));
        ++nintents;
        rec_bytes += take;
        sub += take;
        if (sub == in.bytes.size()) {
          sub = 0;
          ++i;
        }
      }
      RecWriter w;
      w.u64(ino);
      w.u64(n->attrs.size);
      w.u64(n->attrs.mtime);
      w.u32(nintents);
      std::vector<std::byte> payload(w.out().begin(), w.out().end());
      payload.insert(payload.end(), body.out().begin(), body.out().end());
      jlog_.append(RecType::kSyncCommit, payload);
    }
  }
  if (committed > 0) stats_.add("fstore.journal_committed_bytes", committed);
}

void FileStore::record_intent_locked(Ino ino, std::uint64_t off,
                                     std::span<const std::byte> data) {
  if (!opt_.journal_enabled || data.empty()) return;
  // Child of the worker's open request span (inert outside one).
  std::optional<sim::SpanScope> span;
  if (opt_.tracer != nullptr) {
    span.emplace(*opt_.tracer, "fstore", "journal_append");
    if (span->active()) span->attr("bytes", data.size());
  }
  Intent intent;
  intent.ino = ino;
  intent.off = off;
  intent.bytes.assign(data.begin(), data.end());
  journal_bytes_ += intent.bytes.size();
  journal_.push_back(std::move(intent));
  stats_.add("fstore.journal_intents");
  // Watermark write-back: an early commit is always legal (durability may
  // only exceed the contract), and it bounds journal memory under sync-free
  // streaming workloads.
  while (journal_bytes_ > opt_.journal_autosync_bytes && !journal_.empty()) {
    stats_.add("fstore.journal_autosyncs");
    commit_intents_locked(journal_.front().ino);
  }
}

void FileStore::sync_all() {
  std::lock_guard lock(mu_);
  while (!journal_.empty()) commit_intents_locked(journal_.front().ino);
}

std::size_t FileStore::journal_pending_bytes() const {
  std::lock_guard lock(mu_);
  return journal_bytes_;
}

std::uint64_t FileStore::apply_record_locked(RecType type,
                                             std::span<const std::byte> p) {
  RecReader r(p);
  switch (type) {
    case RecType::kCreate: {
      const Ino dir = r.u64();
      const Ino ino = r.u64();
      const std::uint64_t gen = r.u64();
      const std::uint64_t mtime = r.u64();
      const bool is_dir = r.u8() != 0;
      const std::string name = r.str();
      if (!r.ok()) break;
      Inode* d = find_locked(dir);
      if (d == nullptr) break;
      Inode node;
      node.attrs.ino = ino;
      node.attrs.is_dir = is_dir;
      node.attrs.nlink = is_dir ? 2 : 1;
      node.attrs.mtime = mtime;
      node.attrs.gen = gen;
      inodes_.emplace(ino, std::move(node));
      d->entries[name] = ino;
      // Id watermarks never regress: a new leader keeps minting fresh
      // (ino, gen) pairs past everything an earlier leader handed out.
      next_ino_ = std::max(next_ino_, ino + 1);
      next_gen_ = std::max(next_gen_, gen + 1);
      break;
    }
    case RecType::kRemove: {
      const Ino dir = r.u64();
      const std::string name = r.str();
      if (!r.ok()) break;
      Inode* d = find_locked(dir);
      if (d == nullptr) break;
      auto it = d->entries.find(name);
      if (it == d->entries.end()) break;
      if (Inode* child = find_locked(it->second)) {
        free_file_data_locked(*child);
        inodes_.erase(it->second);
      }
      d->entries.erase(it);
      break;
    }
    case RecType::kRename: {
      const Ino from_dir = r.u64();
      const Ino to_dir = r.u64();
      const std::string from = r.str();
      const std::string to = r.str();
      if (!r.ok()) break;
      Inode* fd = find_locked(from_dir);
      Inode* td = find_locked(to_dir);
      if (fd == nullptr || td == nullptr) break;
      auto it = fd->entries.find(from);
      if (it == fd->entries.end()) break;
      const Ino moved = it->second;
      auto tgt = td->entries.find(to);
      if (tgt != td->entries.end()) {
        if (Inode* dead = find_locked(tgt->second)) {
          free_file_data_locked(*dead);
          inodes_.erase(tgt->second);
        }
        td->entries.erase(tgt);
      }
      fd->entries.erase(it);
      td->entries[to] = moved;
      break;
    }
    case RecType::kSetSize: {
      const Ino ino = r.u64();
      const std::uint64_t size = r.u64();
      const std::uint64_t mtime = r.u64();
      if (!r.ok()) break;
      if (Inode* n = find_locked(ino)) {
        truncate_chunks_locked(*n, size);
        n->attrs.size = size;
        n->attrs.mtime = mtime;
      }
      break;
    }
    case RecType::kSyncCommit: {
      const Ino ino = r.u64();
      const std::uint64_t size = r.u64();
      const std::uint64_t mtime = r.u64();
      const std::uint32_t n_intents = r.u32();
      Inode* n = find_locked(ino);
      std::uint64_t applied = 0;
      for (std::uint32_t i = 0; i < n_intents && r.ok(); ++i) {
        const std::uint64_t off = r.u64();
        const auto data = r.bytes();
        if (!r.ok() || n == nullptr) continue;
        apply_bytes_locked(*n, off, data);
        applied += data.size();
      }
      if (n != nullptr && r.ok()) {
        // Recorded size last: a truncate that raced the writes must win.
        n->attrs.size = size;
        truncate_chunks_locked(*n, size);
        n->attrs.mtime = mtime;
      }
      return applied;
    }
    case RecType::kCounterSet: {
      const std::uint64_t value = r.u64();
      const std::string key = r.str();
      if (!r.ok()) break;
      counters_[key] = value;
      break;
    }
    case RecType::kCounterAdd: {
      const std::uint64_t delta = r.u64();
      const std::uint64_t client_id = r.u64();
      const std::uint32_t seq = r.u32();
      const std::uint64_t old = r.u64();
      const std::string key = r.str();
      if (!r.ok()) break;
      counters_[key] = old + delta;
      if (client_id != 0 && seq != 0) {
        dup_.emplace(DupKey{client_id, seq}, old);
      }
      break;
    }
    case RecType::kDupForget: {
      const std::uint64_t client_id = r.u64();
      const std::uint32_t upto_seq = r.u32();
      if (!r.ok()) break;
      std::erase_if(dup_, [&](const auto& kv) {
        return kv.first.client_id == client_id && kv.first.seq <= upto_seq;
      });
      break;
    }
    case RecType::kServerState: {
      const std::uint64_t next_session = r.u64();
      const std::uint64_t epoch = r.u64();
      if (!r.ok()) break;
      srv_next_session_ = std::max(srv_next_session_, next_session);
      srv_epoch_ = std::max(srv_epoch_, epoch);
      break;
    }
    case RecType::kTermMark:
      // Consensus bookkeeping only; the DAFS server rebuilds its term-run
      // table from these via journal_log().scan().
      break;
  }
  return 0;
}

Errc FileStore::crash() {
  std::lock_guard lock(mu_);
  stats_.add("fstore.crashes");
  journal_corrupt_offset_ = ~std::uint64_t{0};
  if (journal_bytes_ > 0) {
    stats_.add("fstore.journal_dropped_bytes", journal_bytes_);
  }
  journal_.clear();
  journal_bytes_ = 0;
  // All volatile state dies: live inode table (chunks recycled into the free
  // pool — slabs are NIC-registered and must never be freed), the cache
  // model's LRU. next_ino_/next_gen_ survive (creates journal durably).
  for (auto& [ino, node] : inodes_) free_file_data_locked(node);
  inodes_.clear();
  cache_.clear();
  lru_.clear();
  Inode root;
  root.attrs.ino = kRootIno;
  root.attrs.is_dir = true;
  root.attrs.nlink = 2;
  root.attrs.gen = 1;
  inodes_.emplace(kRootIno, std::move(root));
  if (!opt_.journal_enabled) return Errc::kOk;  // counters survive, files don't
  // Counters and the dup filter are rebuilt from their records, so clear
  // the live maps first (a follower importing a leader's stream starts from
  // nothing and must converge to exactly the shipped state). The counter
  // lock is held through the replay, before the journal's: the counter ops
  // append to the journal under it, so taking it inside the replay would
  // invert the order.
  std::lock_guard clock(counters_mu_);
  counters_.clear();
  dup_.clear();
  // Journal replay: truncate a torn tail (the legal crash form), then apply
  // every record in order to rebuild the live tree. Interior corruption is
  // *not* truncated — the valid prefix is applied so the damage can be
  // inspected, but kCorrupt tells the caller to refuse the mount.
  std::uint64_t replayed = 0;
  const FStoreJournal::ReplayResult rep = jlog_.replay(
      [&](RecType type, std::span<const std::byte> payload) {
        replayed += apply_record_locked(type, payload);
      });
  if (rep.torn_bytes > 0) {
    stats_.add("fstore.journal_truncated_bytes", rep.torn_bytes);
  }
  stats_.add("fstore.journal_replayed_bytes", replayed);
  if (rep.interior_corrupt) {
    journal_corrupt_offset_ = rep.corrupt_offset;
    stats_.add("fstore.journal_interior_corrupt");
    return Errc::kCorrupt;
  }
  return Errc::kOk;
}

std::uint64_t FileStore::journal_corrupt_offset() const {
  std::lock_guard lock(mu_);
  return journal_corrupt_offset_;
}

void FileStore::journal_server_state(std::uint64_t next_session,
                                     std::uint64_t epoch) {
  std::lock_guard lock(mu_);
  srv_next_session_ = std::max(srv_next_session_, next_session);
  srv_epoch_ = std::max(srv_epoch_, epoch);
  if (!opt_.journal_enabled) return;
  RecWriter w;
  w.u64(next_session);
  w.u64(epoch);
  jlog_.append(RecType::kServerState, w.out());
}

std::uint64_t FileStore::server_state_watermark() const {
  std::lock_guard lock(mu_);
  return srv_next_session_;
}

void FileStore::touch_cache_locked(Ino ino, std::uint64_t chunk_idx) {
  if (!opt_.disk_enabled) return;
  const CacheKey key{ino, chunk_idx};
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    stats_.add("fstore.cache_hits");
    return;
  }
  // Miss: charge disk service for one chunk, evict if over capacity.
  stats_.add("fstore.cache_misses");
  if (Actor* actor = Actor::current()) {
    const auto xfer = static_cast<sim::Time>(
        static_cast<double>(opt_.chunk_size) * 1'000.0 / opt_.disk_mbps);
    actor->advance(opt_.disk_latency_ns + xfer);  // I/O wait, not CPU
  }
  lru_.push_front(key);
  cache_.emplace(key, lru_.begin());
  while (cache_.size() > opt_.cache_chunks) {
    cache_.erase(lru_.back());
    lru_.pop_back();
    stats_.add("fstore.cache_evictions");
  }
}

// ---------------------------------------------------------------------------
// Namespace
// ---------------------------------------------------------------------------

Result<Ino> FileStore::lookup(Ino dir, std::string_view name) const {
  std::lock_guard lock(mu_);
  const Inode* d = find_locked(dir);
  if (d == nullptr) return Errc::kStale;
  if (!d->attrs.is_dir) return Errc::kNotDir;
  auto it = d->entries.find(std::string(name));
  if (it == d->entries.end()) return Errc::kNoEnt;
  return it->second;
}

Result<Ino> FileStore::resolve(std::string_view path) const {
  Ino cur = kRootIno;
  std::size_t pos = 0;
  while (pos < path.size()) {
    while (pos < path.size() && path[pos] == '/') ++pos;
    if (pos >= path.size()) break;
    std::size_t end = path.find('/', pos);
    if (end == std::string_view::npos) end = path.size();
    auto r = lookup(cur, path.substr(pos, end - pos));
    if (!r.ok()) return r.error();
    cur = r.value();
    pos = end;
  }
  return cur;
}

Result<Ino> FileStore::insert_child_locked(Ino dir, std::string_view name,
                                           bool exclusive, bool is_dir) {
  Inode* d = find_locked(dir);
  if (d == nullptr) return Errc::kStale;
  if (!d->attrs.is_dir) return Errc::kNotDir;
  if (name.empty() || name.find('/') != std::string_view::npos) {
    return Errc::kInval;
  }
  auto it = d->entries.find(std::string(name));
  if (it != d->entries.end()) {
    if (exclusive) return Errc::kExists;
    const Inode* existing = find_locked(it->second);
    if (existing != nullptr && existing->attrs.is_dir != is_dir) {
      return is_dir ? Errc::kNotDir : Errc::kIsDir;
    }
    return it->second;
  }
  const Ino ino = next_ino_++;
  Inode node;
  node.attrs.ino = ino;
  node.attrs.is_dir = is_dir;
  node.attrs.nlink = is_dir ? 2 : 1;
  node.attrs.mtime = now();
  node.attrs.gen = next_gen_++;
  const std::uint64_t mtime = node.attrs.mtime;
  const std::uint64_t gen = node.attrs.gen;
  inodes_.emplace(ino, std::move(node));
  d->entries.emplace(std::string(name), ino);
  d->attrs.mtime = now();
  // Creates are metadata: journaled durable immediately, so the name — and
  // its generation number — survives a crash even before any data is synced.
  if (opt_.journal_enabled) {
    RecWriter w;
    w.u64(dir);
    w.u64(ino);
    w.u64(gen);
    w.u64(mtime);
    w.u8(is_dir ? 1 : 0);
    w.str(name);
    jlog_.append(RecType::kCreate, w.out());
  }
  return ino;
}

Result<Ino> FileStore::create(Ino dir, std::string_view name, bool exclusive) {
  std::lock_guard lock(mu_);
  auto r = insert_child_locked(dir, name, exclusive, /*is_dir=*/false);
  if (r.ok()) stats_.add("fstore.creates");
  return r;
}

Result<Ino> FileStore::mkdir(Ino dir, std::string_view name) {
  std::lock_guard lock(mu_);
  return insert_child_locked(dir, name, /*exclusive=*/true, /*is_dir=*/true);
}

Errc FileStore::remove(Ino dir, std::string_view name) {
  std::lock_guard lock(mu_);
  Inode* d = find_locked(dir);
  if (d == nullptr) return Errc::kStale;
  if (!d->attrs.is_dir) return Errc::kNotDir;
  auto it = d->entries.find(std::string(name));
  if (it == d->entries.end()) return Errc::kNoEnt;
  Inode* child = find_locked(it->second);
  const Ino child_ino = it->second;
  if (child != nullptr) {
    if (child->attrs.is_dir) return Errc::kIsDir;
    free_file_data_locked(*child);
    inodes_.erase(child_ino);
  }
  d->entries.erase(it);
  d->attrs.mtime = now();
  if (opt_.journal_enabled) {
    std::size_t dropped = 0;
    std::erase_if(journal_, [&](const Intent& i) {
      if (i.ino != child_ino) return false;
      dropped += i.bytes.size();
      return true;
    });
    journal_bytes_ -= dropped;
    RecWriter w;
    w.u64(dir);
    w.str(name);
    jlog_.append(RecType::kRemove, w.out());
  }
  stats_.add("fstore.removes");
  return Errc::kOk;
}

Errc FileStore::rmdir(Ino dir, std::string_view name) {
  std::lock_guard lock(mu_);
  Inode* d = find_locked(dir);
  if (d == nullptr) return Errc::kStale;
  if (!d->attrs.is_dir) return Errc::kNotDir;
  auto it = d->entries.find(std::string(name));
  if (it == d->entries.end()) return Errc::kNoEnt;
  Inode* child = find_locked(it->second);
  if (child == nullptr) return Errc::kStale;
  if (!child->attrs.is_dir) return Errc::kNotDir;
  if (!child->entries.empty()) return Errc::kNotEmpty;
  inodes_.erase(it->second);
  const std::string gone = it->first;
  d->entries.erase(it);
  d->attrs.mtime = now();
  if (opt_.journal_enabled) {
    RecWriter w;
    w.u64(dir);
    w.str(gone);
    jlog_.append(RecType::kRemove, w.out());
  }
  return Errc::kOk;
}

Errc FileStore::rename(Ino from_dir, std::string_view from, Ino to_dir,
                       std::string_view to) {
  std::lock_guard lock(mu_);
  Inode* fd = find_locked(from_dir);
  Inode* td = find_locked(to_dir);
  if (fd == nullptr || td == nullptr) return Errc::kStale;
  if (!fd->attrs.is_dir || !td->attrs.is_dir) return Errc::kNotDir;
  auto it = fd->entries.find(std::string(from));
  if (it == fd->entries.end()) return Errc::kNoEnt;
  if (to.empty() || to.find('/') != std::string_view::npos) return Errc::kInval;
  const Ino moved = it->second;
  // Replace any existing target (file only).
  auto tgt = td->entries.find(std::string(to));
  if (tgt != td->entries.end()) {
    Inode* existing = find_locked(tgt->second);
    if (existing != nullptr && existing->attrs.is_dir) return Errc::kIsDir;
    const Ino dead = tgt->second;
    if (existing != nullptr) {
      free_file_data_locked(*existing);
      inodes_.erase(dead);
    }
    td->entries.erase(tgt);
    if (opt_.journal_enabled) {
      std::size_t dropped = 0;
      std::erase_if(journal_, [&](const Intent& i) {
        if (i.ino != dead) return false;
        dropped += i.bytes.size();
        return true;
      });
      journal_bytes_ -= dropped;
    }
  }
  fd->entries.erase(it);
  td->entries.emplace(std::string(to), moved);
  fd->attrs.mtime = now();
  td->attrs.mtime = now();
  // One record covers the whole move, including the replaced target: replay
  // mirrors the live logic above.
  if (opt_.journal_enabled) {
    RecWriter w;
    w.u64(from_dir);
    w.u64(to_dir);
    w.str(from);
    w.str(to);
    jlog_.append(RecType::kRename, w.out());
  }
  return Errc::kOk;
}

Result<std::vector<DirEntry>> FileStore::readdir(Ino dir) const {
  std::lock_guard lock(mu_);
  const Inode* d = find_locked(dir);
  if (d == nullptr) return Errc::kStale;
  if (!d->attrs.is_dir) return Errc::kNotDir;
  std::vector<DirEntry> out;
  out.reserve(d->entries.size());
  for (const auto& [name, ino] : d->entries) {
    const Inode* child = find_locked(ino);
    out.push_back(DirEntry{name, ino, child != nullptr && child->attrs.is_dir});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Attributes
// ---------------------------------------------------------------------------

Result<Attrs> FileStore::getattr(Ino ino) const {
  std::lock_guard lock(mu_);
  const Inode* n = find_locked(ino);
  if (n == nullptr) return Errc::kStale;
  return n->attrs;
}

Errc FileStore::set_size(Ino ino, std::uint64_t size) {
  std::lock_guard lock(mu_);
  Inode* n = find_locked(ino);
  if (n == nullptr) return Errc::kStale;
  if (n->attrs.is_dir) return Errc::kIsDir;
  if (size < n->attrs.size) {
    truncate_chunks_locked(*n, size);
    // Pending intents lose the dead bytes too: a write that grows the file
    // again before the sync would otherwise lift the kSyncCommit record's
    // final size past them, and replay would resurrect them.
    for (Intent& i : journal_) {
      if (i.ino != ino || i.off + i.bytes.size() <= size) continue;
      const std::size_t keep = i.off < size ? size - i.off : 0;
      journal_bytes_ -= i.bytes.size() - keep;
      i.bytes.resize(keep);
    }
    std::erase_if(journal_, [](const Intent& i) { return i.bytes.empty(); });
  }
  n->attrs.size = size;
  n->attrs.mtime = now();
  // set_size is metadata: durable immediately. Pending intents past the new
  // EOF must not resurrect dead bytes when folded later, which the
  // kSyncCommit record guarantees by carrying — and replay re-applying —
  // the final size after the writes.
  if (opt_.journal_enabled) {
    RecWriter w;
    w.u64(ino);
    w.u64(size);
    w.u64(n->attrs.mtime);
    jlog_.append(RecType::kSetSize, w.out());
  }
  return Errc::kOk;
}

// ---------------------------------------------------------------------------
// Data
// ---------------------------------------------------------------------------

Result<std::uint64_t> FileStore::pread(Ino ino, std::uint64_t off,
                                       std::span<std::byte> out, bool verify) {
  std::optional<sim::SpanScope> span;
  if (opt_.tracer != nullptr) span.emplace(*opt_.tracer, "fstore", "pread");
  std::lock_guard lock(mu_);
  Inode* n = find_locked(ino);
  if (n == nullptr) return Errc::kStale;
  if (n->attrs.is_dir) return Errc::kIsDir;
  if (off >= n->attrs.size) return std::uint64_t{0};
  std::uint64_t len =
      std::min<std::uint64_t>(out.size(), n->attrs.size - off);
  if (opt_.faults != nullptr && opt_.faults->on_fstore_read(&len)) {
    stats_.add("fault.fstore_read_errors");
    return Errc::kIo;
  }

  std::uint64_t done = 0;
  while (done < len) {
    const std::uint64_t pos = off + done;
    const std::uint64_t ci = pos / opt_.chunk_size;
    const std::uint64_t co = pos % opt_.chunk_size;
    const std::uint64_t n_here = std::min(len - done, opt_.chunk_size - co);
    touch_cache_locked(ino, ci);
    if (verify && !chunk_clean_locked(*n, ci)) {
      charge_crc(done + n_here);
      stats_.add("fstore.corrupt_blocks_detected");
      return Errc::kCorrupt;
    }
    const Chunk* chunk = chunk_for_locked(*n, ci, /*allocate=*/false);
    if (chunk == nullptr) {
      std::memset(out.data() + done, 0, n_here);  // hole reads as zeros
    } else {
      std::memcpy(out.data() + done, chunk->data + co, n_here);
    }
    done += n_here;
  }
  if (verify) charge_crc(len);
  if (Actor* actor = Actor::current()) {
    actor->charge(CostKind::kCopy,
                  static_cast<sim::Time>(static_cast<double>(len) * 1'000.0 /
                                         opt_.memcpy_mbps));
  }
  stats_.add("fstore.pread_bytes", len);
  return len;
}

Result<std::uint64_t> FileStore::pwrite(Ino ino, std::uint64_t off,
                                        std::span<const std::byte> in) {
  std::optional<sim::SpanScope> span;
  if (opt_.tracer != nullptr) span.emplace(*opt_.tracer, "fstore", "pwrite");
  std::lock_guard lock(mu_);
  Inode* n = find_locked(ino);
  if (n == nullptr) return Errc::kStale;
  if (n->attrs.is_dir) return Errc::kIsDir;

  std::uint64_t done = 0;
  while (done < in.size()) {
    const std::uint64_t pos = off + done;
    const std::uint64_t ci = pos / opt_.chunk_size;
    const std::uint64_t co = pos % opt_.chunk_size;
    const std::uint64_t n_here =
        std::min<std::uint64_t>(in.size() - done, opt_.chunk_size - co);
    touch_cache_locked(ino, ci);
    Chunk* chunk = chunk_for_locked(*n, ci, /*allocate=*/true);
    std::memcpy(chunk->data + co, in.data() + done, n_here);
    rehash_locked(*chunk, co, co + n_here);
    done += n_here;
  }
  n->attrs.size = std::max(n->attrs.size, off + in.size());
  n->attrs.mtime = now();
  record_intent_locked(ino, off, in);
  maybe_corrupt_written_locked(*n, off, in.size());
  if (Actor* actor = Actor::current()) {
    actor->charge(CostKind::kCopy,
                  static_cast<sim::Time>(static_cast<double>(in.size()) *
                                         1'000.0 / opt_.memcpy_mbps));
  }
  stats_.add("fstore.pwrite_bytes", in.size());
  return std::uint64_t{in.size()};
}

Result<std::vector<std::span<std::byte>>> FileStore::extents_for_read(
    Ino ino, std::uint64_t off, std::uint64_t len, bool verify) {
  std::optional<sim::SpanScope> span;
  if (opt_.tracer != nullptr) {
    span.emplace(*opt_.tracer, "fstore", "extents_for_read");
  }
  std::lock_guard lock(mu_);
  Inode* n = find_locked(ino);
  if (n == nullptr) return Errc::kStale;
  if (n->attrs.is_dir) return Errc::kIsDir;
  std::vector<std::span<std::byte>> out;
  if (off >= n->attrs.size) return out;
  len = std::min(len, n->attrs.size - off);
  // Zero-copy reads cannot be short (the spans *are* the cache), so only the
  // hard-failure half of the fault plan applies here.
  if (opt_.faults != nullptr && opt_.faults->on_fstore_read(nullptr)) {
    stats_.add("fault.fstore_read_errors");
    return Errc::kIo;
  }
  std::uint64_t done = 0;
  while (done < len) {
    const std::uint64_t pos = off + done;
    const std::uint64_t ci = pos / opt_.chunk_size;
    const std::uint64_t co = pos % opt_.chunk_size;
    const std::uint64_t n_here = std::min(len - done, opt_.chunk_size - co);
    touch_cache_locked(ino, ci);
    // Checksum-gate the chunk *before* it becomes a DMA source: a verifying
    // server must never RDMA rotted bytes into a client buffer.
    if (verify && !chunk_clean_locked(*n, ci)) {
      charge_crc(done + n_here);
      stats_.add("fstore.corrupt_blocks_detected");
      return Errc::kCorrupt;
    }
    // DMA source must be materialized even for holes.
    Chunk* chunk = chunk_for_locked(*n, ci, /*allocate=*/true);
    out.emplace_back(chunk->data + co, n_here);
    done += n_here;
  }
  if (verify) charge_crc(len);
  return out;
}

Result<std::vector<std::span<std::byte>>> FileStore::ensure_extents(
    Ino ino, std::uint64_t off, std::uint64_t len) {
  std::lock_guard lock(mu_);
  Inode* n = find_locked(ino);
  if (n == nullptr) return Errc::kStale;
  if (n->attrs.is_dir) return Errc::kIsDir;
  std::vector<std::span<std::byte>> out;
  std::uint64_t done = 0;
  while (done < len) {
    const std::uint64_t pos = off + done;
    const std::uint64_t ci = pos / opt_.chunk_size;
    const std::uint64_t co = pos % opt_.chunk_size;
    const std::uint64_t n_here = std::min(len - done, opt_.chunk_size - co);
    touch_cache_locked(ino, ci);
    Chunk* chunk = chunk_for_locked(*n, ci, /*allocate=*/true);
    out.emplace_back(chunk->data + co, n_here);
    done += n_here;
  }
  return out;
}

Errc FileStore::commit_write(Ino ino, std::uint64_t off, std::uint64_t len) {
  std::optional<sim::SpanScope> span;
  if (opt_.tracer != nullptr) {
    span.emplace(*opt_.tracer, "fstore", "commit_write");
  }
  std::lock_guard lock(mu_);
  Inode* n = find_locked(ino);
  if (n == nullptr) return Errc::kStale;
  if (n->attrs.is_dir) return Errc::kIsDir;
  n->attrs.size = std::max(n->attrs.size, off + len);
  n->attrs.mtime = now();
  // The DMA mutated the chunks behind the checksums' back: re-checksum the
  // sectors the committed range touches. Direct (RDMA) writes land straight
  // in the cache chunks, so the journal intent is captured here too, from
  // the chunks the DMA just filled.
  std::vector<std::byte> data(opt_.journal_enabled ? len : 0);
  for (std::uint64_t done = 0; done < len;) {
    const std::uint64_t pos = off + done;
    const std::uint64_t ci = pos / opt_.chunk_size;
    const std::uint64_t co = pos % opt_.chunk_size;
    const std::uint64_t n_here = std::min(len - done, opt_.chunk_size - co);
    Chunk* chunk = chunk_for_locked(*n, ci, /*allocate=*/false);
    if (chunk != nullptr) rehash_locked(*chunk, co, co + n_here);
    if (!data.empty()) {
      if (chunk == nullptr) {
        std::memset(data.data() + done, 0, n_here);
      } else {
        std::memcpy(data.data() + done, chunk->data + co, n_here);
      }
    }
    done += n_here;
  }
  record_intent_locked(ino, off, data);
  maybe_corrupt_written_locked(*n, off, len);
  return Errc::kOk;
}

Errc FileStore::sync(Ino ino) {
  std::lock_guard lock(mu_);
  if (find_locked(ino) == nullptr) return Errc::kStale;
  commit_intents_locked(ino);
  stats_.add("fstore.syncs");
  return Errc::kOk;
}

std::uint64_t FileStore::counter_fetch_add(const std::string& key,
                                           std::uint64_t delta) {
  return counter_fetch_add_once(key, delta, 0, 0);
}

void FileStore::counter_set(const std::string& key, std::uint64_t value) {
  std::lock_guard lock(counters_mu_);
  counters_[key] = value;
  if (opt_.journal_enabled) {
    RecWriter w;
    w.u64(value);
    w.str(key);
    jlog_.append(RecType::kCounterSet, w.out());
  }
}

std::uint64_t FileStore::counter_fetch_add_once(const std::string& key,
                                                std::uint64_t delta,
                                                std::uint64_t client_id,
                                                std::uint32_t seq) {
  std::lock_guard lock(counters_mu_);
  const bool filtered = client_id != 0 && seq != 0;
  if (filtered) {
    auto it = dup_.find(DupKey{client_id, seq});
    if (it != dup_.end()) {
      stats_.add("fstore.dup_filter_hits");
      return it->second;
    }
  }
  const std::uint64_t old = counters_[key];
  counters_[key] = old + delta;
  if (filtered) dup_.emplace(DupKey{client_id, seq}, old);
  // Counter mutations — and their dup-filter records — are synchronously
  // journaled, which is what makes them exactly-once across crash-restart
  // *and* across a failover to any member the record was shipped to.
  if (opt_.journal_enabled) {
    RecWriter w;
    w.u64(delta);
    w.u64(client_id);
    w.u32(seq);
    w.u64(old);
    w.str(key);
    jlog_.append(RecType::kCounterAdd, w.out());
  }
  return old;
}

void FileStore::dup_forget(std::uint64_t client_id, std::uint32_t upto_seq) {
  std::lock_guard lock(counters_mu_);
  std::erase_if(dup_, [&](const auto& kv) {
    return kv.first.client_id == client_id && kv.first.seq <= upto_seq;
  });
  if (opt_.journal_enabled) {
    RecWriter w;
    w.u64(client_id);
    w.u32(upto_seq);
    jlog_.append(RecType::kDupForget, w.out());
  }
}

}  // namespace fstore
