#include "mpiio/file.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <optional>

#include "sim/actor.hpp"

namespace mpiio {

using mpi::Datatype;
using sim::Actor;
using sim::CostKind;

namespace {

void charge_copy(std::uint64_t bytes) {
  if (bytes == 0) return;
  if (Actor* a = Actor::current()) {
    a->charge(CostKind::kCopy, sim::CostModel{}.copy_time(bytes));
  }
}

/// This rank's virtual clock, or 0 outside an ActorScope (phase timings are
/// then skipped — see File::record_phase).
sim::Time actor_now() {
  Actor* a = Actor::current();
  return a != nullptr ? a->now() : 0;
}

}  // namespace

void File::record_phase(const char* key, sim::Time t0) const {
  Actor* a = Actor::current();
  if (a == nullptr) return;
  // Same measurement as a span, nested under this operation's root — the
  // two-phase breakdown shows up as children on the trace timeline.
  sim::record_span(comm_.world().fabric(), "mpiio", key, t0, a->now(),
                   sim::SpanParent::inherit(), {}, key);
}

sim::Tracer& File::tracer() const { return comm_.world().fabric().trace(); }

bool File::trace_sampled() const {
  const std::uint64_t every = hints_.trace_sample();
  if (!tracer().enabled() || every == 0) return false;
  return trace_ops_++ % every == 0;
}

void File::apply_info(const Info& info) {
  for (const auto& [k, v] : info.all()) info_.set(k, v);
  hints_.update(info, info_);
}

// ---------------------------------------------------------------------------
// Open / close
// ---------------------------------------------------------------------------

File::File(mpi::Comm comm, std::string path, int amode, Info info,
           std::unique_ptr<AdioDriver> driver)
    : comm_(comm),
      path_(std::move(path)),
      amode_(amode),
      info_(std::move(info)),
      driver_(std::move(driver)),
      etype_(Datatype::byte()),
      filetype_(Datatype::byte()) {
  sfp_key_ = "mpiio.sfp:" + path_;
}

Result<std::unique_ptr<File>> File::open(const mpi::Comm& comm,
                                         std::string path, int amode,
                                         const Info& info,
                                         std::unique_ptr<AdioDriver> driver) {
  auto f = std::unique_ptr<File>(
      new File(comm, std::move(path), amode, info, std::move(driver)));

  // Malformed hint values surface in the fabric's unified metrics
  // ("mpiio.bad_hint") instead of aborting the rank.
  f->info_.bind_stats(&comm.world().fabric().stats());

  // Every hint parses once, through the one typed HintSet. The consolidated
  // retry policy's deadline applies to every request this file issues,
  // including the opens below, so plumb it into the driver before anything
  // else; likewise the cache/consistency options must reach the driver
  // before open for a delegation to be requested.
  f->hints_ = HintSet::parse(f->info_);
  const dafs::RetryPolicy rpolicy = f->hints_.retry_policy();
  if (rpolicy.deadline_ns != 0) f->driver_->set_deadline(rpolicy.deadline_ns);
  f->driver_->set_open_options(f->hints_.open_options());

  std::uint16_t flags = 0;
  if (amode & kModeCreate) flags |= dafs::kOpenCreate;
  if (amode & kModeExcl) flags |= dafs::kOpenExcl;

  // Rank 0 applies the creation flags; everyone else opens plain after it
  // succeeded, so create-exclusive has single-open semantics.
  Err st = Err::kOk;
  if (f->comm_.rank() == 0) {
    st = f->driver_->open(f->path_, flags);
    if (st == Err::kOk && f->driver_->supports_counters()) {
      f->driver_->counter_set(f->sfp_key_, 0);
    }
  }
  int ok = (f->comm_.rank() != 0 || st == Err::kOk) ? 1 : 0;
  f->comm_.bcast(&ok, sizeof(ok), Datatype::byte(), 0);
  if (!ok) {
    // Propagate rank 0's failure everywhere.
    int code = static_cast<int>(st);
    f->comm_.bcast(&code, sizeof(code), Datatype::byte(), 0);
    return static_cast<Err>(code);
  }
  if (f->comm_.rank() != 0) {
    st = f->driver_->open(f->path_, 0);
    if (st != Err::kOk) return st;
  }
  f->comm_.barrier();

  f->set_view(0, Datatype::byte(), Datatype::byte());
  if (amode & kModeAppend) {
    // Applied after the default view: set_view resets the file pointer.
    auto size = f->driver_->size();
    if (size.ok()) f->pos_ = size.value();  // etype is byte at open
  }
  return f;
}

File::~File() {
  if (driver_) driver_->close();
}

Err File::close() {
  comm_.barrier();
  Err st = driver_->close();
  if ((amode_ & kModeDeleteOnClose) && comm_.rank() == 0) {
    driver_->remove(path_);
  }
  comm_.barrier();
  return st;
}

// ---------------------------------------------------------------------------
// Views
// ---------------------------------------------------------------------------

Err File::set_view(std::uint64_t disp, const Datatype& etype,
                   const Datatype& filetype, const Info& info) {
  if (!etype.valid() || !filetype.valid()) return Err::kInval;
  if (filetype.size() == 0 || etype.size() == 0) return Err::kInval;
  if (filetype.size() % etype.size() != 0) return Err::kInval;
  disp_ = disp;
  etype_ = etype;
  filetype_ = filetype;
  apply_info(info);

  view_runs_.clear();
  filetype_.flatten(view_runs_);
  view_prefix_.assign(view_runs_.size() + 1, 0);
  for (std::size_t i = 0; i < view_runs_.size(); ++i) {
    view_prefix_[i + 1] = view_prefix_[i] + view_runs_[i].len;
  }
  ft_size_ = filetype_.size();
  ft_extent_ = filetype_.extent();
  trivial_view_ =
      filetype_.is_contiguous() &&
      ft_size_ == static_cast<std::uint64_t>(ft_extent_) &&
      view_runs_.size() == 1 && view_runs_[0].offset == 0;
  pos_ = 0;
  return Err::kOk;
}

Err File::set_info(const Info& info) {
  apply_info(info);
  return Err::kOk;
}

std::vector<File::FileRun> File::map_view(std::uint64_t pos,
                                          std::uint64_t nbytes) const {
  std::vector<FileRun> out;
  if (nbytes == 0) return out;
  if (trivial_view_) {
    out.push_back(FileRun{disp_ + pos, nbytes});
    return out;
  }
  std::uint64_t tile = pos / ft_size_;
  std::uint64_t r = pos % ft_size_;  // data offset within the tile
  auto emit = [&out](std::uint64_t off, std::uint64_t len) {
    if (len == 0) return;
    if (!out.empty() && out.back().off + out.back().len == off) {
      out.back().len += len;
      return;
    }
    out.push_back(FileRun{off, len});
  };
  while (nbytes > 0) {
    // First run whose data interval contains r.
    const auto it = std::upper_bound(view_prefix_.begin(), view_prefix_.end(),
                                     r) -
                    1;
    std::size_t i = static_cast<std::size_t>(it - view_prefix_.begin());
    for (; i < view_runs_.size() && nbytes > 0; ++i) {
      const std::uint64_t skip = r - view_prefix_[i];
      const std::uint64_t avail = view_runs_[i].len - skip;
      const std::uint64_t take = std::min(avail, nbytes);
      const std::int64_t file_off =
          static_cast<std::int64_t>(disp_) +
          static_cast<std::int64_t>(tile) * ft_extent_ +
          view_runs_[i].offset + static_cast<std::int64_t>(skip);
      emit(static_cast<std::uint64_t>(file_off), take);
      nbytes -= take;
      r += take;
    }
    ++tile;
    r = 0;
  }
  return out;
}

std::uint64_t File::byte_offset(std::uint64_t view_offset) const {
  const auto runs = map_view(view_offset * etype_.size(), 1);
  return runs.empty() ? disp_ : runs[0].off;
}

// ---------------------------------------------------------------------------
// Access construction
// ---------------------------------------------------------------------------

std::vector<IoSeg> File::build_segs(std::uint64_t offset_etypes,
                                    std::byte* buf, std::uint64_t count,
                                    const Datatype& type,
                                    std::uint64_t* total_bytes) const {
  const std::uint64_t total = count * type.size();
  *total_bytes = total;
  std::vector<IoSeg> segs;
  if (total == 0) return segs;

  const auto file_runs = map_view(offset_etypes * etype_.size(), total);
  const auto mem_runs = type.flatten_n(count);

  // Two-cursor merge: both lists describe exactly `total` bytes.
  std::size_t fi = 0, mi = 0;
  std::uint64_t foff = 0, moff = 0;
  while (fi < file_runs.size() && mi < mem_runs.size()) {
    const std::uint64_t n = std::min(file_runs[fi].len - foff,
                                     mem_runs[mi].len - moff);
    IoSeg seg;
    seg.file_off = file_runs[fi].off + foff;
    seg.mem = buf + mem_runs[mi].offset + static_cast<std::int64_t>(moff);
    seg.len = n;
    // Merge with the previous segment when both sides are adjacent.
    if (!segs.empty() && segs.back().file_off + segs.back().len == seg.file_off &&
        segs.back().mem + segs.back().len == seg.mem) {
      segs.back().len += n;
    } else {
      segs.push_back(seg);
    }
    foff += n;
    moff += n;
    if (foff == file_runs[fi].len) {
      ++fi;
      foff = 0;
    }
    if (moff == mem_runs[mi].len) {
      ++mi;
      moff = 0;
    }
  }
  return segs;
}

std::uint64_t File::etypes_of(std::uint64_t count,
                              const Datatype& type) const {
  return count * type.size() / etype_.size();
}

Err File::check_writable() const {
  return (amode_ & kModeRdonly) ? Err::kInval : Err::kOk;
}

Err File::check_readable() const {
  return (amode_ & kModeWronly) ? Err::kInval : Err::kOk;
}

// ---------------------------------------------------------------------------
// Data sieving
// ---------------------------------------------------------------------------

bool File::use_sieving(bool writing, const std::vector<IoSeg>& segs) const {
  if (segs.size() <= 1) return false;
  const bool native_list = std::string_view(driver_->name()) == "dafs";
  // Sieve by default only on drivers without list I/O.
  if (!hints_.data_sieving(writing, /*fallback=*/!native_list)) return false;
  if (writing && !driver_->supports_locks()) return false;  // RMW needs locks
  return true;
}

Result<std::uint64_t> File::sieved_read(std::vector<IoSeg> segs) {
  std::sort(segs.begin(), segs.end(),
            [](const IoSeg& a, const IoSeg& b) { return a.file_off < b.file_off; });
  const std::uint64_t buf_size = hints_.sieve_buffer_size(/*writing=*/false);
  std::vector<std::byte> sieve(buf_size);
  std::uint64_t total = 0;
  std::size_t i = 0;
  while (i < segs.size()) {
    const std::uint64_t wlo = segs[i].file_off;
    // Extend the window while the next segment still starts inside it.
    std::size_t j = i;
    std::uint64_t whi = wlo;
    while (j < segs.size() && segs[j].file_off < wlo + buf_size) {
      whi = std::max(whi, segs[j].file_off + segs[j].len);
      ++j;
    }
    whi = std::min(whi, wlo + buf_size);
    const sim::Time t_window = actor_now();
    auto r = driver_->pread(wlo, std::span(sieve.data(), whi - wlo));
    if (!r.ok()) return r;
    record_phase("mpiio.sieve_read_window_ns", t_window);
    const std::uint64_t got = r.value();
    for (std::size_t k = i; k < j; ++k) {
      const IoSeg& s = segs[k];
      std::uint64_t off = s.file_off - wlo;
      std::uint64_t take = 0;
      if (off < got) take = std::min(s.len, got - off);
      if (take > 0) {
        std::memcpy(s.mem, sieve.data() + off, take);
        charge_copy(take);
        total += take;
      }
      if (s.file_off + s.len > whi) {
        // Segment continues past the window; handle the tail next round.
        segs[k].file_off += take;
        segs[k].mem += take;
        segs[k].len -= take;
        j = k;
        break;
      }
    }
    if (got < whi - wlo) {
      // Short device read: EOF fell inside the window. Every remaining
      // segment starts at or past the file end, so stop here with a short
      // count (re-reading the window can never make progress).
      break;
    }
    i = j;
  }
  comm_.world().fabric().stats().add("mpiio.sieved_reads");
  return total;
}

Result<std::uint64_t> File::sieved_write(std::vector<IoSeg> segs) {
  std::sort(segs.begin(), segs.end(),
            [](const IoSeg& a, const IoSeg& b) { return a.file_off < b.file_off; });
  const std::uint64_t buf_size = hints_.sieve_buffer_size(/*writing=*/true);
  std::vector<std::byte> sieve(buf_size);
  std::uint64_t total = 0;
  std::size_t i = 0;
  while (i < segs.size()) {
    const std::uint64_t wlo = segs[i].file_off;
    std::size_t j = i;
    std::uint64_t whi = wlo;
    while (j < segs.size() && segs[j].file_off < wlo + buf_size &&
           segs[j].file_off + segs[j].len <= wlo + buf_size) {
      whi = std::max(whi, segs[j].file_off + segs[j].len);
      ++j;
    }
    if (j == i) {
      // Single segment larger than the buffer: write it directly.
      auto r = driver_->pwrite(segs[i].file_off,
                               std::span<const std::byte>(segs[i].mem,
                                                          segs[i].len));
      if (!r.ok()) return r;
      total += r.value();
      ++i;
      continue;
    }
    const std::uint64_t wlen = whi - wlo;
    // Read-modify-write under an exclusive lock.
    if (driver_->lock(wlo, wlen, /*exclusive=*/true) != Err::kOk) {
      return Err::kLockConflict;
    }
    const sim::Time t_hold = actor_now();
    auto r = driver_->pread(wlo, std::span(sieve.data(), wlen));
    if (!r.ok()) {
      driver_->unlock(wlo, wlen);
      return r;
    }
    for (std::size_t k = i; k < j; ++k) {
      std::memcpy(sieve.data() + (segs[k].file_off - wlo), segs[k].mem,
                  segs[k].len);
      charge_copy(segs[k].len);
      total += segs[k].len;
    }
    auto wr = driver_->pwrite(wlo, std::span<const std::byte>(sieve.data(),
                                                              wlen));
    driver_->unlock(wlo, wlen);
    record_phase("mpiio.rmw_lock_hold_ns", t_hold);
    if (!wr.ok()) return wr;
    i = j;
  }
  comm_.world().fabric().stats().add("mpiio.sieved_writes");
  return total;
}

// ---------------------------------------------------------------------------
// Independent I/O
// ---------------------------------------------------------------------------

Result<std::uint64_t> File::independent_io(bool writing,
                                           std::uint64_t offset_etypes,
                                           void* buf, std::uint64_t count,
                                           const Datatype& type) {
  std::uint64_t total = 0;
  auto segs = build_segs(offset_etypes, static_cast<std::byte*>(buf), count,
                         type, &total);
  if (total == 0) return std::uint64_t{0};

  // Atomic mode: serialize the whole affected byte range.
  const bool lock_range = atomic_ && driver_->supports_locks();
  std::uint64_t lo = segs.front().file_off;
  std::uint64_t hi = 0;
  for (const auto& s : segs) {
    lo = std::min(lo, s.file_off);
    hi = std::max(hi, s.file_off + s.len);
  }
  if (lock_range) {
    if (driver_->lock(lo, hi - lo, writing) != Err::kOk) {
      return Err::kLockConflict;
    }
  }

  Result<std::uint64_t> result = std::uint64_t{0};
  if (segs.size() == 1) {
    result = writing
                 ? driver_->pwrite(segs[0].file_off,
                                   std::span<const std::byte>(segs[0].mem,
                                                              segs[0].len))
                 : driver_->pread(segs[0].file_off,
                                  std::span<std::byte>(segs[0].mem,
                                                       segs[0].len));
  } else if (use_sieving(writing, segs)) {
    result = writing ? sieved_write(std::move(segs))
                     : sieved_read(std::move(segs));
  } else {
    result = writing ? driver_->write_list(segs) : driver_->read_list(segs);
  }

  if (lock_range) driver_->unlock(lo, hi - lo);
  return result;
}

Result<std::uint64_t> File::read_at(std::uint64_t offset, void* buf,
                                    std::uint64_t count,
                                    const Datatype& type) {
  if (const Err st = check_readable(); st != Err::kOk) return st;
  std::optional<sim::SpanScope> root;
  if (trace_sampled()) {
    root.emplace(tracer(), "mpiio", "read_at", /*make_root=*/true);
    root->attr("bytes", count * type.size());
  }
  const sim::Time t0 = actor_now();
  auto r = independent_io(false, offset, buf, count, type);
  record_phase("mpiio.read_at_ns", t0);
  return r;
}

Result<std::uint64_t> File::write_at(std::uint64_t offset, const void* buf,
                                     std::uint64_t count,
                                     const Datatype& type) {
  if (const Err st = check_writable(); st != Err::kOk) return st;
  std::optional<sim::SpanScope> root;
  if (trace_sampled()) {
    root.emplace(tracer(), "mpiio", "write_at", /*make_root=*/true);
    root->attr("bytes", count * type.size());
  }
  const sim::Time t0 = actor_now();
  auto r = independent_io(true, offset, const_cast<void*>(buf), count, type);
  record_phase("mpiio.write_at_ns", t0);
  return r;
}

Result<std::uint64_t> File::read(void* buf, std::uint64_t count,
                                 const Datatype& type) {
  auto r = read_at(pos_, buf, count, type);
  if (r.ok()) pos_ += etypes_of(count, type);
  return r;
}

Result<std::uint64_t> File::write(const void* buf, std::uint64_t count,
                                  const Datatype& type) {
  auto r = write_at(pos_, buf, count, type);
  if (r.ok()) pos_ += etypes_of(count, type);
  return r;
}

Err File::seek(std::int64_t offset, Whence whence) {
  switch (whence) {
    case Whence::kSet:
      if (offset < 0) return Err::kInval;
      pos_ = static_cast<std::uint64_t>(offset);
      return Err::kOk;
    case Whence::kCur: {
      const std::int64_t np = static_cast<std::int64_t>(pos_) + offset;
      if (np < 0) return Err::kInval;
      pos_ = static_cast<std::uint64_t>(np);
      return Err::kOk;
    }
    case Whence::kEnd: {
      auto size = driver_->size();
      if (!size.ok()) return size.error();
      const std::int64_t end_etypes =
          static_cast<std::int64_t>(size.value() / etype_.size());
      const std::int64_t np = end_etypes + offset;
      if (np < 0) return Err::kInval;
      pos_ = static_cast<std::uint64_t>(np);
      return Err::kOk;
    }
  }
  return Err::kInval;
}

// ---------------------------------------------------------------------------
// Collective I/O (two-phase, one-sided aggregation)
// ---------------------------------------------------------------------------

namespace {

struct Piece {
  std::uint64_t off;
  std::uint64_t len;
};

}  // namespace

Result<std::uint64_t> File::finish_collective(Result<std::uint64_t> r) {
  // A max-allreduce of the per-rank status code doubles as the exit
  // synchronization a bare barrier used to provide, with one difference that
  // matters under fault injection: when any rank failed, every rank leaves
  // with the same (highest-coded) error instead of most ranks reporting
  // success for a collective that did not complete.
  std::vector<std::uint64_t> code = {
      static_cast<std::uint64_t>(r.ok() ? Err::kOk : r.error())};
  comm_.allreduce(std::span<std::uint64_t>(code), mpi::Op::kMax);
  const Err agreed = static_cast<Err>(code[0]);
  if (agreed != Err::kOk) return agreed;
  return r;
}

void File::ensure_cb_window(std::uint64_t round_len, int naggr) {
  if (cb_win_ && round_len <= cb_round_len_ && naggr == cb_naggr_) return;
  // Safe to drop the old window here: every rank finished its puts and gets
  // of the previous collective before any rank left its exit agreement.
  cb_win_.reset();
  const bool aggregator = comm_.rank() < naggr;
  cb_buf_ = aggregator ? std::make_unique_for_overwrite<std::byte[]>(round_len)
                       : nullptr;
  cb_win_.emplace(comm_, cb_buf_.get(), aggregator ? round_len : 0);
  cb_round_len_ = round_len;
  cb_naggr_ = naggr;
}

Result<std::uint64_t> File::collective_io(bool writing,
                                          std::uint64_t offset_etypes,
                                          void* buf, std::uint64_t count,
                                          const Datatype& type) {
  const int n = comm_.size();
  const int me = comm_.rank();
  std::uint64_t total = 0;
  auto segs = build_segs(offset_etypes, static_cast<std::byte*>(buf), count,
                         type, &total);

  if (n == 1 || !hints_.collective_buffering(writing)) {
    auto r = independent_io(writing, offset_etypes, buf, count, type);
    if (n > 1) return finish_collective(std::move(r));
    return r;
  }

  // Metadata phase: extent agreement + piece-list exchange with aggregators.
  const sim::Time t_meta = actor_now();

  // Global extent of the collective access.
  std::uint64_t lo = ~0ull, hi = 0;
  for (const auto& s : segs) {
    lo = std::min(lo, s.file_off);
    hi = std::max(hi, s.file_off + s.len);
  }
  std::vector<std::uint64_t> mm = {~lo, hi};  // encode min via max(~lo)
  comm_.allreduce(std::span<std::uint64_t>(mm), mpi::Op::kMax);
  const std::uint64_t gmin = ~mm[0];
  const std::uint64_t gmax = mm[1];
  if (gmax <= gmin) {
    return finish_collective(std::uint64_t{0});  // nobody has data
  }

  const int naggr = hints_.cb_nodes(n);
  // Striped layouts: align file domains to stripe boundaries so each
  // aggregator's two-phase exchange covers whole stripes and talks to a
  // minimal data-server subset. base <= gmin plus dlen rounded up to a
  // stripe multiple keeps the domain count <= naggr.
  const std::uint64_t ss = hints_.stripe_size_or(driver_->stripe_size());
  const std::uint64_t base = ss > 0 ? gmin - gmin % ss : gmin;
  const std::uint64_t span = gmax - base;
  std::uint64_t dlen = (span + static_cast<std::uint64_t>(naggr) - 1) /
                       static_cast<std::uint64_t>(naggr);
  if (ss > 0) dlen = (dlen + ss - 1) / ss * ss;
  auto domain_end = [&](int d) {
    return base + (static_cast<std::uint64_t>(d) + 1) * dlen;
  };

  // Split my segments at domain boundaries.
  struct Mine {
    Piece p;
    std::byte* mem;
    int d;
    std::uint64_t k;  // round
  };
  std::vector<Mine> mine;
  std::vector<std::vector<Piece>> out_pieces(static_cast<std::size_t>(naggr));
  for (const auto& seg : segs) {
    std::uint64_t off = seg.file_off;
    std::byte* mem = seg.mem;
    std::uint64_t left = seg.len;
    while (left > 0) {
      const auto d = static_cast<int>((off - base) / dlen);
      const std::uint64_t take = std::min(left, domain_end(d) - off);
      out_pieces[static_cast<std::size_t>(d)].push_back(Piece{off, take});
      mine.push_back(Mine{Piece{off, take}, mem, d, 0});
      off += take;
      mem += take;
      left -= take;
    }
  }

  // Everyone learns, per aggregator, how much metadata each rank sends it
  // and the file extent its pieces span there.
  struct Summary {
    std::uint64_t bytes = 0;
    std::uint64_t lo = ~0ull;
    std::uint64_t hi = 0;
  };
  const auto na = static_cast<std::size_t>(naggr);
  std::vector<Summary> my_sum(na);
  for (std::size_t d = 0; d < na; ++d) {
    for (const Piece& p : out_pieces[d]) {
      my_sum[d].bytes += sizeof(Piece);
      my_sum[d].lo = std::min(my_sum[d].lo, p.off);
      my_sum[d].hi = std::max(my_sum[d].hi, p.off + p.len);
    }
  }
  std::vector<Summary> all_sum(static_cast<std::size_t>(n) * na);
  comm_.allgather(my_sum.data(), na * sizeof(Summary), all_sum.data());
  // Each domain's rounds start at its first accessed byte and cover at most
  // cb_buffer_size bytes, so a sparse domain pays no empty rounds around
  // its data (ROMIO's st_loc/end_loc), and the buffer is sized to the
  // largest round any domain actually uses.
  std::vector<std::uint64_t> dom_lo(na, ~0ull), dom_hi(na, 0);
  for (std::size_t i = 0; i < all_sum.size(); ++i) {
    dom_lo[i % na] = std::min(dom_lo[i % na], all_sum[i].lo);
    dom_hi[i % na] = std::max(dom_hi[i % na], all_sum[i].hi);
  }
  std::uint64_t widest = 0;
  for (std::size_t d = 0; d < na; ++d) {
    if (dom_hi[d] > dom_lo[d]) widest = std::max(widest, dom_hi[d] - dom_lo[d]);
  }
  const std::uint64_t round_len = std::min(widest, hints_.cb_buffer_size());
  std::uint64_t rounds = 0;
  for (std::size_t d = 0; d < na; ++d) {
    if (dom_hi[d] > dom_lo[d]) {
      rounds = std::max(rounds,
                        (dom_hi[d] - dom_lo[d] + round_len - 1) / round_len);
    }
  }
  auto round_base = [&](int d, std::uint64_t k) {
    return dom_lo[static_cast<std::size_t>(d)] + k * round_len;
  };
  // Split a domain piece at its round boundaries.
  auto for_each_round = [&](int d, Piece p, auto&& emit) {
    while (p.len > 0) {
      const std::uint64_t k =
          (p.off - dom_lo[static_cast<std::size_t>(d)]) / round_len;
      const std::uint64_t take =
          std::min(p.len, round_base(d, k) + round_len - p.off);
      emit(Piece{p.off, take}, k);
      p.off += take;
      p.len -= take;
    }
  };
  std::vector<Mine> rounds_of_mine;
  for (const Mine& m : mine) {
    for_each_round(m.d, m.p, [&](const Piece& p, std::uint64_t k) {
      rounds_of_mine.push_back(Mine{p, m.mem + (p.off - m.p.off), m.d, k});
    });
  }
  mine = std::move(rounds_of_mine);
  // Round by round, each rank starts on a different aggregator (ring order),
  // so no aggregator's link takes every rank's first transfer at once.
  auto ring = [&](int d) { return (d - me + n) % n; };
  std::stable_sort(mine.begin(), mine.end(), [&](const Mine& a, const Mine& b) {
    return a.k != b.k ? a.k < b.k : ring(a.d) < ring(b.d);
  });

  // Exchange piece lists (metadata) with the aggregators.
  std::vector<std::uint64_t> meta_scounts(static_cast<std::size_t>(n), 0);
  std::vector<std::uint64_t> meta_sdispls(static_cast<std::size_t>(n), 0);
  std::vector<std::byte> meta_out;
  for (std::size_t d = 0; d < na; ++d) {
    const auto& ps = out_pieces[d];
    meta_sdispls[d] = meta_out.size();
    meta_scounts[d] = ps.size() * sizeof(Piece);
    const std::size_t at = meta_out.size();
    meta_out.resize(at + ps.size() * sizeof(Piece));
    if (!ps.empty()) {
      std::memcpy(meta_out.data() + at, ps.data(), ps.size() * sizeof(Piece));
    }
  }
  const bool aggregator = me < naggr;
  std::vector<std::uint64_t> meta_rcounts(static_cast<std::size_t>(n), 0);
  std::vector<std::uint64_t> meta_rdispls(static_cast<std::size_t>(n), 0);
  std::uint64_t meta_in_total = 0;
  for (std::size_t s = 0; s < static_cast<std::size_t>(n); ++s) {
    meta_rcounts[s] =
        aggregator ? all_sum[s * na + static_cast<std::size_t>(me)].bytes : 0;
    meta_rdispls[s] = meta_in_total;
    meta_in_total += meta_rcounts[s];
  }
  // Received straight into Piece storage: an aggregator's view of every
  // rank's pieces of its domain, split at round boundaries and sorted into
  // file order, so each round's pieces are one contiguous stretch.
  std::vector<Piece> received(meta_in_total / sizeof(Piece));
  comm_.alltoallv(meta_out.data(), meta_scounts, meta_sdispls,
                  received.data(), meta_rcounts, meta_rdispls);
  std::vector<Piece> theirs;
  for (const Piece& p : received) {
    for_each_round(me, p, [&](const Piece& q, std::uint64_t) {
      theirs.push_back(q);
    });
  }
  auto by_extent = [](const Piece& a, const Piece& b) {
    return a.off != b.off ? a.off < b.off : a.len < b.len;
  };
  std::sort(theirs.begin(), theirs.end(), by_extent);
  ensure_cb_window(round_len, naggr);
  record_phase("mpiio.twophase_meta_ns", t_meta);

  // Data phase. Writes: every rank RDMA-puts its pieces straight from user
  // memory into the owning aggregator's buffer, a fence makes them visible,
  // and the aggregator writes the round with one list request. Reads: the
  // aggregator reads the round with one list request, a fence publishes the
  // buffer, and every rank RDMA-gets its pieces straight into user memory.
  // The list covers the round's covered runs in file order (holes stay
  // untouched): peers' pieces point into the buffer, the aggregator's own
  // point at user memory, and the NIC gathers and scatters, so no host copy
  // remains. An own piece that overlaps another meets it in the buffer
  // through the window instead, so the list names each file byte once. A
  // failure is remembered, not returned: the fences are collective, so every
  // rank runs every round.
  Err disk_st = Err::kOk;
  bool did_disk = false;
  std::byte* const cb = cb_buf_.get();
  std::vector<IoSeg> list;
  std::vector<mpi::RmaOp> ops;
  auto add_seg = [&](std::uint64_t off, std::byte* mem, std::uint64_t len) {
    IoSeg* last = list.empty() ? nullptr : &list.back();
    if (last != nullptr && last->file_off + last->len == off &&
        last->mem + last->len == mem) {
      last->len += len;
    } else {
      list.push_back(IoSeg{off, mem, len});
    }
  };
  auto next = mine.begin();  // first piece of the current round
  std::size_t ti = 0;        // theirs[ti..): this round onwards
  for (std::uint64_t k = 0; k < rounds; ++k) {
    // File offset of my buffer this round (aggregators only).
    const std::uint64_t rb = aggregator ? round_base(me, k) : 0;
    const auto first = next;
    next = std::find_if(first, mine.end(),
                        [k](const Mine& m) { return m.k != k; });
    // Own pieces lead the round (ring distance 0); sort them like theirs.
    const auto own_end = std::find_if(
        first, next, [me](const Mine& m) { return m.d != me; });
    std::sort(first, own_end, [&](const Mine& a, const Mine& b) {
      return by_extent(a.p, b.p);
    });
    ops.clear();
    for (auto it = own_end; it != next; ++it) {
      ops.push_back(mpi::RmaOp{it->mem, it->p.len, it->d,
                               it->p.off - round_base(it->d, k)});
    }
    list.clear();
    std::uint64_t covered = rb;  // this round's file bytes below are listed
    auto own = first;            // theirs holds my pieces in the same order
    for (; aggregator && ti < theirs.size() && theirs[ti].off < rb + round_len;
         ++ti) {
      const Piece& p = theirs[ti];
      const std::uint64_t end = p.off + p.len;
      std::byte* mem = cb + (p.off - rb);
      if (own != own_end && own->p.off == p.off && own->p.len == p.len) {
        const bool alone =
            p.off >= covered &&
            (ti + 1 == theirs.size() || theirs[ti + 1].off >= end);
        if (alone) {
          mem = own->mem;
        } else {
          ops.push_back(mpi::RmaOp{own->mem, p.len, me, p.off - rb});
        }
        ++own;
      }
      if (end > covered) {
        const std::uint64_t from = std::max(p.off, covered);
        add_seg(from, mem + (from - p.off), end - from);
        covered = end;
      }
    }

    // The previous round's buffer is flushed (writes) or served (reads)
    // before anyone touches it again.
    if (k > 0) cb_win_->fence();
    if (writing) {
      const sim::Time t_exchange = actor_now();
      cb_win_->put(ops);
      cb_win_->fence();
      record_phase("mpiio.twophase_exchange_ns", t_exchange);
      if (!list.empty()) {
        const sim::Time t_disk = actor_now();
        if (disk_st == Err::kOk) {
          auto w = driver_->write_list(list);
          if (!w.ok()) disk_st = w.error();
        }
        did_disk = true;
        record_phase("mpiio.twophase_disk_ns", t_disk);
      }
    } else {
      if (!list.empty()) {
        const sim::Time t_disk = actor_now();
        if (disk_st == Err::kOk) {
          auto got = driver_->read_list(list);
          if (!got.ok()) {
            disk_st = got.error();
          } else {
            // Past EOF: every piece beyond the returned prefix reads as
            // zeros, in the buffer and in user memory alike.
            std::uint64_t left = got.value();
            for (const IoSeg& sg : list) {
              const std::uint64_t n = std::min(left, sg.len);
              if (n < sg.len) std::memset(sg.mem + n, 0, sg.len - n);
              left -= n;
            }
          }
        }
        did_disk = true;
        record_phase("mpiio.twophase_disk_ns", t_disk);
      }
      const sim::Time t_exchange = actor_now();
      cb_win_->fence();
      cb_win_->get(ops);
      record_phase("mpiio.twophase_exchange_ns", t_exchange);
    }
  }
  if (did_disk) {
    comm_.world().fabric().stats().add(writing ? "mpiio.twophase_writes"
                                               : "mpiio.twophase_reads");
  }
  // Writes visible (and failures agreed on) before anyone proceeds.
  if (disk_st != Err::kOk) return finish_collective(disk_st);
  return finish_collective(total);
}

Result<std::uint64_t> File::read_at_all(std::uint64_t offset, void* buf,
                                        std::uint64_t count,
                                        const Datatype& type) {
  if (const Err st = check_readable(); st != Err::kOk) return st;
  std::optional<sim::SpanScope> root;
  if (trace_sampled()) {
    root.emplace(tracer(), "mpiio", "read_at_all", /*make_root=*/true);
    root->attr("rank", std::uint64_t{static_cast<unsigned>(comm_.rank())});
  }
  const sim::Time t0 = actor_now();
  auto r = collective_io(false, offset, buf, count, type);
  record_phase("mpiio.read_at_all_ns", t0);
  return r;
}

Result<std::uint64_t> File::write_at_all(std::uint64_t offset, const void* buf,
                                         std::uint64_t count,
                                         const Datatype& type) {
  if (const Err st = check_writable(); st != Err::kOk) return st;
  std::optional<sim::SpanScope> root;
  if (trace_sampled()) {
    root.emplace(tracer(), "mpiio", "write_at_all", /*make_root=*/true);
    root->attr("rank", std::uint64_t{static_cast<unsigned>(comm_.rank())});
  }
  const sim::Time t0 = actor_now();
  auto r = collective_io(true, offset, const_cast<void*>(buf), count, type);
  record_phase("mpiio.write_at_all_ns", t0);
  return r;
}

Result<std::uint64_t> File::read_all(void* buf, std::uint64_t count,
                                     const Datatype& type) {
  auto r = read_at_all(pos_, buf, count, type);
  if (r.ok()) pos_ += etypes_of(count, type);
  return r;
}

Result<std::uint64_t> File::write_all(const void* buf, std::uint64_t count,
                                      const Datatype& type) {
  auto r = write_at_all(pos_, buf, count, type);
  if (r.ok()) pos_ += etypes_of(count, type);
  return r;
}

// ---------------------------------------------------------------------------
// Shared file pointer
// ---------------------------------------------------------------------------

Result<std::uint64_t> File::read_shared(void* buf, std::uint64_t count,
                                        const Datatype& type) {
  if (!driver_->supports_counters()) return Err::kInval;
  const std::uint64_t n_etypes = etypes_of(count, type);
  auto base = driver_->counter_fetch_add(sfp_key_, n_etypes);
  if (!base.ok()) return base.error();
  return read_at(base.value(), buf, count, type);
}

Result<std::uint64_t> File::write_shared(const void* buf, std::uint64_t count,
                                         const Datatype& type) {
  if (!driver_->supports_counters()) return Err::kInval;
  const std::uint64_t n_etypes = etypes_of(count, type);
  auto base = driver_->counter_fetch_add(sfp_key_, n_etypes);
  if (!base.ok()) return base.error();
  return write_at(base.value(), buf, count, type);
}

Result<std::uint64_t> File::ordered_base(std::uint64_t total_etypes) {
  // Rank 0 advances the shared counter for everyone and broadcasts both the
  // base offset and the status: a failed fetch_add must surface on every
  // rank, not leave them all silently operating at offset 0 (matching the
  // error-broadcast discipline of seek_shared).
  struct Shared {
    std::uint64_t base;
    int code;
  } sh{0, static_cast<int>(Err::kOk)};
  if (comm_.rank() == 0) {
    auto r = driver_->counter_fetch_add(sfp_key_, total_etypes);
    if (r.ok()) {
      sh.base = r.value();
    } else {
      sh.code = static_cast<int>(r.error());
    }
  }
  comm_.bcast(&sh, sizeof(sh), Datatype::byte(), 0);
  if (static_cast<Err>(sh.code) != Err::kOk) return static_cast<Err>(sh.code);
  return sh.base;
}

Result<std::uint64_t> File::read_ordered(void* buf, std::uint64_t count,
                                         const Datatype& type) {
  if (!driver_->supports_counters()) return Err::kInval;
  const std::uint64_t mine = etypes_of(count, type);
  const std::uint64_t prefix = comm_.exscan_sum(mine);
  std::vector<std::uint64_t> tot = {mine};
  comm_.allreduce(std::span<std::uint64_t>(tot), mpi::Op::kSum);
  auto base = ordered_base(tot[0]);
  if (!base.ok()) return finish_collective(base.error());
  auto r = read_at(base.value() + prefix, buf, count, type);
  return finish_collective(std::move(r));
}

Result<std::uint64_t> File::write_ordered(const void* buf, std::uint64_t count,
                                          const Datatype& type) {
  if (!driver_->supports_counters()) return Err::kInval;
  const std::uint64_t mine = etypes_of(count, type);
  const std::uint64_t prefix = comm_.exscan_sum(mine);
  std::vector<std::uint64_t> tot = {mine};
  comm_.allreduce(std::span<std::uint64_t>(tot), mpi::Op::kSum);
  auto base = ordered_base(tot[0]);
  if (!base.ok()) return finish_collective(base.error());
  auto r = write_at(base.value() + prefix, buf, count, type);
  return finish_collective(std::move(r));
}

Err File::seek_shared(std::int64_t offset, Whence whence) {
  if (!driver_->supports_counters()) return Err::kInval;
  Err st = Err::kOk;
  if (comm_.rank() == 0) {
    std::int64_t target = offset;
    if (whence == Whence::kCur) {
      auto cur = driver_->counter_fetch_add(sfp_key_, 0);
      if (!cur.ok()) st = cur.error();
      target += cur.ok() ? static_cast<std::int64_t>(cur.value()) : 0;
    } else if (whence == Whence::kEnd) {
      auto size = driver_->size();
      if (!size.ok()) st = size.error();
      target += size.ok() ? static_cast<std::int64_t>(size.value() /
                                                      etype_.size())
                          : 0;
    }
    if (st == Err::kOk) {
      if (target < 0) {
        st = Err::kInval;
      } else {
        st = driver_->counter_set(sfp_key_, static_cast<std::uint64_t>(target));
      }
    }
  }
  int code = static_cast<int>(st);
  comm_.bcast(&code, sizeof(code), Datatype::byte(), 0);
  comm_.barrier();
  return static_cast<Err>(code);
}

Result<std::uint64_t> File::position_shared() {
  if (!driver_->supports_counters()) return Err::kInval;
  return driver_->counter_fetch_add(sfp_key_, 0);
}

// ---------------------------------------------------------------------------
// Nonblocking
// ---------------------------------------------------------------------------

Result<Request> File::iread_at(std::uint64_t offset, void* buf,
                               std::uint64_t count, const Datatype& type) {
  if (const Err st = check_readable(); st != Err::kOk) return st;
  std::uint64_t total = 0;
  auto segs = build_segs(offset, static_cast<std::byte*>(buf), count, type,
                         &total);
  Request req;
  if (segs.size() == 1 && !atomic_) {
    auto h = driver_->submit_pread(segs[0].file_off,
                                   std::span(segs[0].mem, segs[0].len));
    if (!h.ok()) return h.error();
    req.kind = Request::Kind::kDriverAio;
    req.handle = h.value();
    return req;
  }
  // Noncontiguous, or atomic mode (the byte-range lock must cover the whole
  // transfer, as ROMIO does it): perform eagerly; the request is born
  // complete.
  auto r = independent_io(false, offset, buf, count, type);
  req.kind = Request::Kind::kDone;
  req.status = r.ok() ? Err::kOk : r.error();
  req.bytes = r.ok() ? r.value() : 0;
  return req;
}

Result<Request> File::iwrite_at(std::uint64_t offset, const void* buf,
                                std::uint64_t count, const Datatype& type) {
  if (const Err st = check_writable(); st != Err::kOk) return st;
  std::uint64_t total = 0;
  auto segs = build_segs(offset, static_cast<std::byte*>(const_cast<void*>(buf)),
                         count, type, &total);
  Request req;
  if (segs.size() == 1 && !atomic_) {
    auto h = driver_->submit_pwrite(
        segs[0].file_off, std::span<const std::byte>(segs[0].mem, segs[0].len));
    if (!h.ok()) return h.error();
    req.kind = Request::Kind::kDriverAio;
    req.handle = h.value();
    return req;
  }
  auto r = independent_io(true, offset, const_cast<void*>(buf), count, type);
  req.kind = Request::Kind::kDone;
  req.status = r.ok() ? Err::kOk : r.error();
  req.bytes = r.ok() ? r.value() : 0;
  return req;
}

Err File::wait(Request& req, std::uint64_t* bytes) {
  switch (req.kind) {
    case Request::Kind::kInvalid:
      return Err::kInval;
    case Request::Kind::kDone:
      if (bytes != nullptr) *bytes = req.bytes;
      req.kind = Request::Kind::kInvalid;
      return req.status;
    case Request::Kind::kDriverAio: {
      std::uint64_t got = 0;
      const Err st = driver_->aio_wait(req.handle, &got);
      if (bytes != nullptr) *bytes = got;
      req.kind = Request::Kind::kInvalid;
      return st;
    }
  }
  return Err::kInval;
}

// ---------------------------------------------------------------------------
// Split collectives
// ---------------------------------------------------------------------------

Err File::read_at_all_begin(std::uint64_t offset, void* buf,
                            std::uint64_t count, const mpi::Datatype& type) {
  if (split_state_ != SplitState::kNone) return Err::kInval;
  auto r = read_at_all(offset, buf, count, type);
  split_state_ = SplitState::kRead;
  split_buf_ = buf;
  split_err_ = r.ok() ? Err::kOk : r.error();
  split_bytes_ = r.ok() ? r.value() : 0;
  return Err::kOk;
}

Result<std::uint64_t> File::read_at_all_end(void* buf) {
  if (split_state_ != SplitState::kRead || buf != split_buf_) {
    return Err::kInval;
  }
  split_state_ = SplitState::kNone;
  if (split_err_ != Err::kOk) return split_err_;
  return split_bytes_;
}

Err File::write_at_all_begin(std::uint64_t offset, const void* buf,
                             std::uint64_t count, const mpi::Datatype& type) {
  if (split_state_ != SplitState::kNone) return Err::kInval;
  auto r = write_at_all(offset, buf, count, type);
  split_state_ = SplitState::kWrite;
  split_buf_ = buf;
  split_err_ = r.ok() ? Err::kOk : r.error();
  split_bytes_ = r.ok() ? r.value() : 0;
  return Err::kOk;
}

Result<std::uint64_t> File::write_at_all_end(const void* buf) {
  if (split_state_ != SplitState::kWrite || buf != split_buf_) {
    return Err::kInval;
  }
  split_state_ = SplitState::kNone;
  if (split_err_ != Err::kOk) return split_err_;
  return split_bytes_;
}

// ---------------------------------------------------------------------------
// Management
// ---------------------------------------------------------------------------

Result<std::uint64_t> File::get_size() { return driver_->size(); }

Err File::set_size(std::uint64_t size) {
  Err st = Err::kOk;
  if (comm_.rank() == 0) st = driver_->set_size(size);
  int code = static_cast<int>(st);
  comm_.bcast(&code, sizeof(code), Datatype::byte(), 0);
  comm_.barrier();
  return static_cast<Err>(code);
}

Err File::preallocate(std::uint64_t size) {
  // Collective: rank 0 decides whether growth is needed and broadcasts the
  // decision. Each rank deciding from its own getattr would race with
  // concurrent growth and leave ranks disagreeing about whether the
  // set_size collective below happens — deadlocking the communicator.
  struct Decision {
    int code;
    int need;
  } d{static_cast<int>(Err::kOk), 0};
  if (comm_.rank() == 0) {
    auto cur = driver_->size();
    if (!cur.ok()) {
      d.code = static_cast<int>(cur.error());
    } else {
      d.need = cur.value() < size ? 1 : 0;
    }
  }
  comm_.bcast(&d, sizeof(d), Datatype::byte(), 0);
  if (static_cast<Err>(d.code) != Err::kOk) return static_cast<Err>(d.code);
  if (!d.need) return Err::kOk;
  return set_size(size);
}

Err File::sync() { return driver_->sync(); }

Err File::set_atomicity(bool atomic) {
  if (atomic && !driver_->supports_locks()) return Err::kInval;
  atomic_ = atomic;
  return Err::kOk;
}

}  // namespace mpiio
