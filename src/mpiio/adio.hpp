#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dafs/mount.hpp"
#include "dafs/proto.hpp"
#include "sim/expected.hpp"

/// \file adio.hpp
/// The abstract device layer under the portable MPI-IO code (ROMIO's ADIO).
/// One driver instance exists per rank per open file; drivers wrap the
/// rank's file-access endpoint (DAFS session or NFS client).
namespace mpiio {

/// MPI-IO reuses the DAFS status vocabulary (both sides map fstore::Errc).
using Err = dafs::PStatus;

template <typename T>
using Result = sim::Expected<T, Err>;

/// MPI error classes (the MPI_ERR_* subset the I/O chapter raises). Driver
/// statuses collapse onto these before they reach application code, so a
/// DAFS session whose recovery exhausted its retries surfaces as the same
/// class on every rank (MPI_ERR_IO), not as a transport-specific code.
enum class ErrClass : std::uint8_t {
  kSuccess = 0,
  kArg,         // MPI_ERR_ARG: invalid parameter / unsupported feature
  kAmode,       // MPI_ERR_AMODE: access mode forbids the operation
  kNoSuchFile,  // MPI_ERR_NO_SUCH_FILE
  kFileExists,  // MPI_ERR_FILE_EXISTS
  kBadFile,     // MPI_ERR_BAD_FILE: not a usable file (directory, non-empty)
  kAccess,      // MPI_ERR_ACCESS: permission / lock denied
  kNoSpace,     // MPI_ERR_NO_SPACE: device or NIC resources exhausted
  kIo,          // MPI_ERR_IO: transport lost or backend storage failure
  kFile,        // MPI_ERR_FILE: the handle no longer names the file it was
                // opened on (server restarted and found it removed/replaced)
};

constexpr ErrClass error_class(Err e) {
  switch (e) {
    case Err::kOk: return ErrClass::kSuccess;
    case Err::kNoEnt: return ErrClass::kNoSuchFile;
    case Err::kExists: return ErrClass::kFileExists;
    case Err::kIsDir:
    case Err::kNotDir:
    case Err::kNotEmpty: return ErrClass::kBadFile;
    case Err::kInval: return ErrClass::kArg;
    case Err::kLockConflict: return ErrClass::kAccess;
    case Err::kNoResource: return ErrClass::kNoSpace;
    // A stale handle is not a transport hiccup: recovery reconnected fine but
    // the file truly changed underneath the open. MPI_ERR_FILE, not _IO.
    case Err::kStale: return ErrClass::kFile;
    case Err::kBadSession:
    case Err::kProtoError:
    case Err::kConnLost:
    case Err::kBusy:       // deadline/backpressure budget exhausted end-to-end
    case Err::kNotLeader:  // no reachable quorum leader: transport-class
    case Err::kCorrupt:    // checksum mismatch survived every retry: the
                           // data is gone, not the transport — still the
                           // I/O-failure class MPI applications handle
    case Err::kDelegExpired:  // a fenced write-back from a lapsed delegation
                              // holder: the cached bytes were discarded, the
                              // write did not happen
    case Err::kIo: return ErrClass::kIo;
  }
  return ErrClass::kIo;
}

constexpr const char* to_string(ErrClass c) {
  switch (c) {
    case ErrClass::kSuccess: return "MPI_SUCCESS";
    case ErrClass::kArg: return "MPI_ERR_ARG";
    case ErrClass::kAmode: return "MPI_ERR_AMODE";
    case ErrClass::kNoSuchFile: return "MPI_ERR_NO_SUCH_FILE";
    case ErrClass::kFileExists: return "MPI_ERR_FILE_EXISTS";
    case ErrClass::kBadFile: return "MPI_ERR_BAD_FILE";
    case ErrClass::kAccess: return "MPI_ERR_ACCESS";
    case ErrClass::kNoSpace: return "MPI_ERR_NO_SPACE";
    case ErrClass::kIo: return "MPI_ERR_IO";
    case ErrClass::kFile: return "MPI_ERR_FILE";
  }
  return "?";
}

/// One element of a list-I/O access: a file range paired with memory.
struct IoSeg {
  std::uint64_t file_off = 0;
  std::byte* mem = nullptr;
  std::uint64_t len = 0;
};

/// Handle for a driver-level asynchronous operation.
using AioHandle = std::uint64_t;
inline constexpr AioHandle kInvalidAio = ~0ull;

class AdioDriver {
 public:
  virtual ~AdioDriver() = default;

  virtual Err open(const std::string& path, std::uint16_t open_flags) = 0;
  virtual Err close() = 0;
  virtual Err remove(const std::string& path) = 0;

  virtual Result<std::uint64_t> pread(std::uint64_t off,
                                      std::span<std::byte> out) = 0;
  virtual Result<std::uint64_t> pwrite(std::uint64_t off,
                                       std::span<const std::byte> in) = 0;

  /// Scatter/gather list I/O. Default: one operation per file-contiguous
  /// run of segments; drivers with native batch support (DAFS) override.
  virtual Result<std::uint64_t> read_list(std::span<const IoSeg> segs);
  virtual Result<std::uint64_t> write_list(std::span<const IoSeg> segs);

  /// Asynchronous contiguous I/O. Default: synchronous execution at submit
  /// (completion at wait is immediate; a handle is good for one wait, then
  /// kInval); the DAFS driver overrides with real overlapped operations.
  virtual Result<AioHandle> submit_pread(std::uint64_t off,
                                         std::span<std::byte> out);
  virtual Result<AioHandle> submit_pwrite(std::uint64_t off,
                                          std::span<const std::byte> in);
  virtual Err aio_wait(AioHandle h, std::uint64_t* bytes);

  virtual Result<std::uint64_t> size() = 0;
  virtual Err set_size(std::uint64_t size) = 0;
  virtual Err sync() = 0;

  /// Byte-range locks (needed for read-modify-write sieving and atomic
  /// mode). Drivers without lock support return kInval; the portable layer
  /// then avoids strategies that need them.
  virtual Err lock(std::uint64_t off, std::uint64_t len, bool exclusive) = 0;
  virtual Err unlock(std::uint64_t off, std::uint64_t len) = 0;
  virtual bool supports_locks() const = 0;

  /// Named shared counters (back MPI shared file pointers). Drivers without
  /// support return kInval.
  virtual Result<std::uint64_t> counter_fetch_add(const std::string& key,
                                                  std::uint64_t delta) = 0;
  virtual Err counter_set(const std::string& key, std::uint64_t value) = 0;
  virtual bool supports_counters() const = 0;

  /// Per-request deadline budget (virtual ns) for all subsequent operations;
  /// 0 = none. Plumbed from the MPI-IO "dafs_deadline_ms" hint down to the
  /// transport. Default: drivers without deadline support ignore it.
  virtual void set_deadline(std::uint64_t /*ns*/) {}

  /// Typed open-path options (consistency level, client cache budget, attr
  /// TTL) from the dafs_consistency / dafs_cache_bytes / dafs_attr_ttl_ms
  /// hints; must be set before open() to take effect. Default: drivers
  /// without a client cache ignore them.
  virtual void set_open_options(const dafs::OpenOptions& /*opts*/) {}

  /// Stripe width of the file's layout, when the backing store stripes data
  /// across servers (the striped DAFS client); 0 = unstriped. The collective
  /// layer aligns two-phase file domains to this so each aggregator talks to
  /// a minimal server subset.
  virtual std::uint64_t stripe_size() const { return 0; }

  virtual const char* name() const = 0;

 protected:
  /// Bookkeeping for the default (synchronous) async implementation: one
  /// slot per op not yet collected, recycled at aio_wait.
  struct SyncAio {
    Err status = Err::kOk;
    std::uint64_t bytes = 0;
    bool in_use = false;  // completed and not yet collected
  };
  AioHandle complete_at_submit(const Result<std::uint64_t>& r);
  std::vector<SyncAio> sync_aio_;
  std::vector<AioHandle> free_aio_;
};

/// Factory helpers (definitions in ad_dafs.cpp / ad_nfs.cpp).
namespace detail {}

}  // namespace mpiio
