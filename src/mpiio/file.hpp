#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mpi/runtime.hpp"
#include "mpiio/adio.hpp"
#include "mpiio/info.hpp"

/// \file file.hpp
/// The portable MPI-IO layer (the MPI-2 I/O chapter) over the ADIO drivers:
/// file views from derived datatypes, independent and collective reads and
/// writes (two-phase collective buffering with one-sided aggregation over
/// RDMA), data sieving for noncontiguous independent access, shared file
/// pointers, nonblocking operations, hints and atomic mode.
namespace mpiio {

// Access modes (MPI_MODE_*).
inline constexpr int kModeRdonly = 0x01;
inline constexpr int kModeRdwr = 0x02;
inline constexpr int kModeWronly = 0x04;
inline constexpr int kModeCreate = 0x08;
inline constexpr int kModeExcl = 0x10;
inline constexpr int kModeDeleteOnClose = 0x20;
inline constexpr int kModeAppend = 0x40;

enum class Whence : std::uint8_t { kSet, kCur, kEnd };

/// A nonblocking I/O request (MPI_Request for file ops).
struct Request {
  enum class Kind : std::uint8_t { kInvalid, kDriverAio, kDone };
  Kind kind = Kind::kInvalid;
  AioHandle handle = kInvalidAio;
  Err status = Err::kOk;
  std::uint64_t bytes = 0;
};

class File {
 public:
  /// Collective open. The driver instance is this rank's device connection.
  /// Rank 0 applies create/excl/trunc; the others open plain (ROMIO rule).
  static Result<std::unique_ptr<File>> open(const mpi::Comm& comm,
                                            std::string path, int amode,
                                            const Info& info,
                                            std::unique_ptr<AdioDriver> driver);
  ~File();

  File(const File&) = delete;
  File& operator=(const File&) = delete;

  /// Collective close (handles delete-on-close).
  Err close();

  // ---- views -----------------------------------------------------------------
  /// Collective. Offsets in subsequent calls are in units of `etype` within
  /// the view described by `filetype` displaced by `disp` bytes.
  Err set_view(std::uint64_t disp, const mpi::Datatype& etype,
               const mpi::Datatype& filetype, const Info& info = {});
  /// Layer more hints over the open-time ones (MPI_File_set_info). The
  /// collective and sieving hints apply from the next operation on; the
  /// dafs_* transport hints are fixed at open.
  Err set_info(const Info& info);
  std::uint64_t view_disp() const { return disp_; }
  const mpi::Datatype& etype() const { return etype_; }
  const mpi::Datatype& filetype() const { return filetype_; }
  /// Absolute byte offset of a view offset (MPI_File_get_byte_offset).
  std::uint64_t byte_offset(std::uint64_t view_offset) const;

  // ---- independent I/O, explicit offsets (in etypes) ---------------------------
  Result<std::uint64_t> read_at(std::uint64_t offset, void* buf,
                                std::uint64_t count,
                                const mpi::Datatype& type);
  Result<std::uint64_t> write_at(std::uint64_t offset, const void* buf,
                                 std::uint64_t count,
                                 const mpi::Datatype& type);

  // ---- individual file pointer ---------------------------------------------------
  Result<std::uint64_t> read(void* buf, std::uint64_t count,
                             const mpi::Datatype& type);
  Result<std::uint64_t> write(const void* buf, std::uint64_t count,
                              const mpi::Datatype& type);
  Err seek(std::int64_t offset, Whence whence);
  std::uint64_t position() const { return pos_; }

  // ---- collective I/O -------------------------------------------------------------
  Result<std::uint64_t> read_at_all(std::uint64_t offset, void* buf,
                                    std::uint64_t count,
                                    const mpi::Datatype& type);
  Result<std::uint64_t> write_at_all(std::uint64_t offset, const void* buf,
                                     std::uint64_t count,
                                     const mpi::Datatype& type);
  Result<std::uint64_t> read_all(void* buf, std::uint64_t count,
                                 const mpi::Datatype& type);
  Result<std::uint64_t> write_all(const void* buf, std::uint64_t count,
                                  const mpi::Datatype& type);

  // ---- shared file pointer -----------------------------------------------------------
  Result<std::uint64_t> read_shared(void* buf, std::uint64_t count,
                                    const mpi::Datatype& type);
  Result<std::uint64_t> write_shared(const void* buf, std::uint64_t count,
                                     const mpi::Datatype& type);
  /// Collective, rank-ordered shared-pointer access.
  Result<std::uint64_t> read_ordered(void* buf, std::uint64_t count,
                                     const mpi::Datatype& type);
  Result<std::uint64_t> write_ordered(const void* buf, std::uint64_t count,
                                      const mpi::Datatype& type);
  Err seek_shared(std::int64_t offset, Whence whence);  // collective
  /// Current shared-pointer value, in etypes (MPI_File_get_position_shared).
  Result<std::uint64_t> position_shared();

  // ---- nonblocking ---------------------------------------------------------------------
  Result<Request> iread_at(std::uint64_t offset, void* buf,
                           std::uint64_t count, const mpi::Datatype& type);
  Result<Request> iwrite_at(std::uint64_t offset, const void* buf,
                            std::uint64_t count, const mpi::Datatype& type);
  Err wait(Request& req, std::uint64_t* bytes = nullptr);

  // ---- split collectives (MPI_File_..._at_all_begin/end) ---------------------------------
  /// One split collective may be outstanding per file (MPI-2 rule). The
  /// buffer must stay untouched between begin and end.
  Err read_at_all_begin(std::uint64_t offset, void* buf, std::uint64_t count,
                        const mpi::Datatype& type);
  Result<std::uint64_t> read_at_all_end(void* buf);
  Err write_at_all_begin(std::uint64_t offset, const void* buf,
                         std::uint64_t count, const mpi::Datatype& type);
  Result<std::uint64_t> write_at_all_end(const void* buf);

  // ---- management -------------------------------------------------------------------------
  Result<std::uint64_t> get_size();
  Err set_size(std::uint64_t size);   // collective
  Err preallocate(std::uint64_t size);
  Err sync();
  Err set_atomicity(bool atomic);
  bool atomicity() const { return atomic_; }
  const Info& info() const { return info_; }
  const mpi::Comm& comm() const { return comm_; }
  AdioDriver& driver() { return *driver_; }
  int amode() const { return amode_; }              // MPI_File_get_amode
  const std::string& path() const { return path_; }

 private:
  File(mpi::Comm comm, std::string path, int amode, Info info,
       std::unique_ptr<AdioDriver> driver);

  struct FileRun {
    std::uint64_t off;
    std::uint64_t len;
  };

  /// File-byte runs for `nbytes` of view data starting at view stream
  /// position `pos` (bytes of data within the view, not file bytes).
  std::vector<FileRun> map_view(std::uint64_t pos, std::uint64_t nbytes) const;

  /// Pair the file runs of an access with the memory runs of the buffer.
  std::vector<IoSeg> build_segs(std::uint64_t offset_etypes, std::byte* buf,
                                std::uint64_t count, const mpi::Datatype& type,
                                std::uint64_t* total_bytes) const;

  Result<std::uint64_t> independent_io(bool writing,
                                       std::uint64_t offset_etypes, void* buf,
                                       std::uint64_t count,
                                       const mpi::Datatype& type);
  Result<std::uint64_t> collective_io(bool writing,
                                      std::uint64_t offset_etypes, void* buf,
                                      std::uint64_t count,
                                      const mpi::Datatype& type);
  /// Collective: make sure every aggregator (ranks below `naggr`) exposes a
  /// collective buffer of at least `round_len` bytes in cb_win_. Both
  /// arguments derive from values all ranks agree on, so all ranks regrow
  /// together.
  void ensure_cb_window(std::uint64_t round_len, int naggr);
  /// Fetch-add the shared file pointer by `total_etypes` on rank 0 and
  /// broadcast base + status, so a counter failure surfaces on every rank.
  Result<std::uint64_t> ordered_base(std::uint64_t total_etypes);
  /// Collective exit agreement: allreduce this rank's status with every
  /// other rank's and return the agreed verdict (the rank-local result when
  /// all succeeded). Every exit path of a collective operation must funnel
  /// through this so a rank whose transport died cannot strand its peers in
  /// a barrier, and so all ranks report the same error class.
  Result<std::uint64_t> finish_collective(Result<std::uint64_t> r);
  Result<std::uint64_t> sieved_read(std::vector<IoSeg> segs);
  Result<std::uint64_t> sieved_write(std::vector<IoSeg> segs);
  bool use_sieving(bool writing, const std::vector<IoSeg>& segs) const;
  /// Record `now - t0` into the fabric histogram `key` (no-op outside an
  /// ActorScope, where there is no virtual clock to read). When a trace is
  /// active on this thread, also records the phase as a span under it.
  void record_phase(const char* key, sim::Time t0) const;
  sim::Tracer& tracer() const;
  /// Should this operation open a root trace span? Consults the
  /// `dafs_trace_sample` hint: 0 never, k every k-th operation (default 1).
  bool trace_sampled() const;
  /// Merge `info` into info_ and layer its hints over hints_.
  void apply_info(const Info& info);
  Err check_writable() const;
  Err check_readable() const;
  std::uint64_t etypes_of(std::uint64_t count, const mpi::Datatype& type) const;

  mpi::Comm comm_;
  std::string path_;
  int amode_;
  Info info_;
  /// Every hint, parsed at open and updated by set_view / set_info; the
  /// collective, sieving and trace paths read from here instead of
  /// re-parsing strings per operation.
  HintSet hints_;
  std::unique_ptr<AdioDriver> driver_;

  // One-sided two-phase aggregation: on aggregators, a registered buffer
  // holding one round of the rank's file domain in file order, exposed to
  // every rank through cb_win_. Kept for the file's lifetime and regrown
  // only when a larger round (or another aggregator set) is needed.
  std::unique_ptr<std::byte[]> cb_buf_;
  std::optional<mpi::Win> cb_win_;
  std::uint64_t cb_round_len_ = 0;
  int cb_naggr_ = 0;

  // view
  std::uint64_t disp_ = 0;
  mpi::Datatype etype_;
  mpi::Datatype filetype_;
  std::vector<mpi::Segment> view_runs_;    // one filetype instance
  std::vector<std::uint64_t> view_prefix_; // cumulative data before run i
  std::uint64_t ft_size_ = 0;
  std::int64_t ft_extent_ = 0;
  bool trivial_view_ = true;  // byte-contiguous view

  std::uint64_t pos_ = 0;  // individual pointer, in etypes
  bool atomic_ = false;
  std::string sfp_key_;

  // Tracing: operations so far, divided by the dafs_trace_sample hint.
  mutable std::uint64_t trace_ops_ = 0;

  // Split-collective state: the access runs at begin (the standard permits
  // completing the work at either call); end validates pairing and returns
  // the result.
  enum class SplitState : std::uint8_t { kNone, kRead, kWrite };
  SplitState split_state_ = SplitState::kNone;
  const void* split_buf_ = nullptr;
  Err split_err_ = Err::kOk;
  std::uint64_t split_bytes_ = 0;
};

}  // namespace mpiio
