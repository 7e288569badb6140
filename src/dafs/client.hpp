#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dafs/cache.hpp"
#include "dafs/mount.hpp"
#include "dafs/proto.hpp"
#include "fstore/types.hpp"
#include "sim/expected.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"
#include "via/nic.hpp"

namespace dafs {

template <typename T>
using Result = sim::Expected<T, PStatus>;

/// An open file handle (DAFS handles carry more state; the inode suffices
/// for the emulated server).
struct Fh {
  fstore::Ino ino = fstore::kInvalidIno;
  bool valid() const { return ino != fstore::kInvalidIno; }
};

/// One element of a batch ("list I/O") access.
struct IoVec {
  std::uint64_t file_off = 0;
  std::byte* buf = nullptr;
  std::uint64_t len = 0;
};

/// Identifier of an in-flight asynchronous operation.
using OpId = std::uint32_t;

/// Parsed kStatsQuery snapshot (wire format in proto.hpp): server state
/// header, the per-client attribution table, and the counter/gauge kv list.
struct StatsSnapshot {
  WireStatsHeader header;
  std::vector<WireSessionStats> sessions;
  std::vector<std::pair<std::string, std::uint64_t>> kv;

  /// The attribution row for `client_id`, or nullptr when the server has
  /// not seen that client (or clipped it from a truncated snapshot).
  const WireSessionStats* find_client(std::uint64_t client_id) const {
    for (const WireSessionStats& s : sessions) {
      if (s.client_id == client_id) return &s;
    }
    return nullptr;
  }
  /// The kv entry named `key`, or 0 when absent.
  std::uint64_t value(std::string_view key) const {
    for (const auto& [k, v] : kv) {
      if (k == key) return v;
    }
    return 0;
  }
};

/// The DAFS transport to one filer (one VI, credit window and registration
/// cache); internal to the client, declared in dafs/session.hpp.
class Session;

/// A uDAFS-style client mount: a user-space file-access library speaking the
/// DAFS protocol, one Session per filer. Small transfers ride inline in
/// messages; large ones are *direct*: the client registers the user buffer
/// (with a registration cache) and the server RDMAs the data, so the client
/// CPU never touches payload bytes.
///
/// Filer 0 — MountSpec::endpoints, failover chain included — serves every
/// namespace, attr, lock, lease, counter and delegation request and is also
/// data server 0. MountSpec::data_endpoints, when non-empty, stripes file
/// data over filer 0 and the filers after it, each bound by its own
/// single-endpoint session.
///
/// Every read and write — one range or a list, sync or async — runs through
/// one engine: the transfer is split at stripe boundaries into one queue of
/// pieces per filer, and each round puts at most one request per filer on
/// the wire, the filers' requests overlapping over their own VIs. What one
/// request carries, and whether inline or direct, is the session's request
/// builder's call. The rounds are collected in submission order, the next
/// issued after each, and the partial statuses and short counts merged into
/// one result. A sync call is a submit followed by its wait.
///
/// Data placement is Lustre-style round-robin: data server `s` owns stripe
/// `k` iff `k % nservers == s`. Each data server stores its stripes in a
/// subfile at the *logical* offsets (the store's sparse chunks make the gaps
/// free and read as zeros), so the logical file size is the max over the
/// subfile sizes and no offset translation exists anywhere. A one-filer
/// mount sends exactly the requests of its one session.
///
/// Concurrency contract: a Client is owned by one thread (each MPI rank
/// mounts its own), matching the DAFS provider model.
class Client {
 public:
  /// Mount `spec`: session 0 binds spec.endpoints with its failover chain,
  /// and one session binds each spec.data_endpoints entry after the first.
  /// kInval when data_endpoints does not start at the metadata filer; fails
  /// if any connect fails.
  static Result<std::unique_ptr<Client>> connect(via::Nic& nic,
                                                 const MountSpec& spec = {});
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // ---- namespace (filer 0, plus data-subfile fan-out) ----------------------
  Result<Fh> open(std::string_view path, std::uint16_t flags = 0);
  /// The typed open path: consistency level, cache budget and attr TTL.
  /// A non-zero cache_bytes on a single-data-server mount asks the server
  /// for a (write) delegation; while it is held, reads are served from the
  /// client cache and — under after_close/after_job — writes are buffered
  /// dirty and flushed on recall, close, sync, budget pressure or teardown.
  /// Striped (multi-server) mounts ignore the cache request: a delegation is
  /// per-ino on one filer and cannot cover a striped file.
  Result<Fh> open(std::string_view path, const OpenOptions& opts);
  PStatus close(Fh fh);
  /// Metadata attrs with size = the striped logical size (max over subfiles).
  Result<fstore::Attrs> getattr(Fh fh);
  PStatus set_size(Fh fh, std::uint64_t size);
  PStatus remove(std::string_view path);
  PStatus mkdir(std::string_view path);
  PStatus rmdir(std::string_view path);
  PStatus rename(std::string_view from, std::string_view to);
  Result<std::vector<fstore::DirEntry>> readdir(std::string_view path);
  PStatus sync(Fh fh);

  // ---- cache ---------------------------------------------------------------
  /// Flush `fh`'s dirty write-back extents now (close/sync do this
  /// implicitly). kDelegExpired means the server fenced the write-back: the
  /// delegation lapsed and the buffered bytes were discarded, not written.
  PStatus flush(Fh fh);
  /// Cached bytes across every open file (the dafs.cache.bytes gauge).
  std::uint64_t cache_bytes() const;
  /// Whether a live delegation currently backs `fh`'s cache (test probe;
  /// does not renew or revalidate).
  bool has_delegation(Fh fh) const;

  // ---- data (striped) -------------------------------------------------------
  Result<std::uint64_t> pread(Fh fh, std::uint64_t off,
                              std::span<std::byte> out);
  Result<std::uint64_t> pwrite(Fh fh, std::uint64_t off,
                               std::span<const std::byte> in);
  Result<std::uint64_t> read_batch(Fh fh, std::span<const IoVec> iovs);
  Result<std::uint64_t> write_batch(Fh fh, std::span<const IoVec> iovs);

  // ---- asynchronous I/O -----------------------------------------------------
  /// Submit puts the first round on the wire; wait issues any later rounds.
  /// On a cached open the call completes at submit through the cache, as
  /// pread/pwrite do, and wait only collects the result.
  Result<OpId> submit_pread(Fh fh, std::uint64_t off, std::span<std::byte> out);
  Result<OpId> submit_pwrite(Fh fh, std::uint64_t off,
                             std::span<const std::byte> in);
  /// Collect `op`; kInval when `op` is not in flight (never submitted, or
  /// already collected).
  PStatus wait(OpId op, std::uint64_t* bytes = nullptr);
  PStatus wait_all(std::span<const OpId> ops);

  // ---- locks & counters (filer 0) -------------------------------------------
  PStatus lock(Fh fh, std::uint64_t start, std::uint64_t len, bool exclusive);
  PStatus try_lock(Fh fh, std::uint64_t start, std::uint64_t len,
                   bool exclusive);
  PStatus unlock(Fh fh, std::uint64_t start, std::uint64_t len);
  Result<std::uint64_t> fetch_add(std::string_view key, std::uint64_t delta);
  PStatus set_counter(std::string_view key, std::uint64_t value);

  // ---- telemetry (filer 0) --------------------------------------------------
  Result<StatsSnapshot> query_stats();

  /// The layout every file opened through this mount gets.
  std::uint64_t stripe_size() const { return stripe_size_; }
  std::size_t data_servers() const { return sessions_.size(); }
  const ClientConfig& config() const;
  void set_deadline(std::uint64_t ns);
  /// Per-request deadline budget of filer 0's session (virtual ns).
  std::uint64_t deadline() const;
  bool is_stale(Fh fh) const;
  /// Service name filer 0's session is bound to (changes on failover).
  const std::string& active_service() const;
  /// Times filer 0's session rotated to a different endpoint.
  std::uint64_t failovers() const;
  /// Registration-cache counters, summed over the sessions.
  std::uint64_t reg_cache_hits() const;
  std::uint64_t reg_cache_misses() const;

 private:
  struct OpenFile {
    Fh meta;                   // handle on filer 0
    std::vector<Fh> data_fh;   // parallel to sessions_ (data_fh[0] == meta)
    OpenOptions opts;
    /// Data cache; null when this open runs uncached (cache_bytes == 0,
    /// striped mount, or no delegation granted).
    std::unique_ptr<FileCache> cache;
    std::uint64_t deleg = 0;          // delegation id (0 = none held)
    bool deleg_write = false;
    std::uint64_t term_ns = 0;        // lease term at grant
    std::uint64_t lease_expires = 0;  // local conservative expiry (virtual ns)
    std::uint64_t grant_epoch = 0;    // session 0's recovery epoch at grant
    /// Attr cache under the delegation (serves getattr within attr_ttl_ns).
    fstore::Attrs attrs{};
    std::uint64_t attrs_at = 0;
    bool attrs_valid = false;
    /// First error of a background flush (recall/expiry/budget write-back):
    /// surfaced and cleared by the next flush/sync/close.
    PStatus pending_error = PStatus::kOk;
  };
  struct SubOp {
    std::size_t server = 0;    // index into sessions_
    OpId op = 0;               // that session's op id
    /// Pieces of the split transfer this request carries, in order (read
    /// merge distributes the server's short count over them).
    std::vector<IoVec> iovs;
  };
  /// One read or write in the engine.
  struct Pending {
    Fh fh;  // the Client-level handle (size fixup on short reads)
    bool writing = false;
    bool in_flight = false;  // submitted and not yet collected by wait
    /// Per filer (parallel to sessions_): the pieces no request has carried
    /// yet.
    std::vector<std::vector<IoVec>> queue;
    /// The round on the wire, at most one request per filer, in submission
    /// order.
    std::vector<SubOp> subs;
    /// The span open at submit: rounds issued from wait join it too.
    sim::SpanContext trace;
    /// An op completed at submit (cached open) carries its result here;
    /// wait adds whatever its requests return.
    PStatus status = PStatus::kOk;
    std::uint64_t bytes = 0;
    /// Logical size, fetched at the op's first short striped read.
    std::uint64_t size = 0;
    bool have_size = false;
  };

  Client(std::uint64_t stripe_size);

  /// Is the cache servable right now? Checks the grant epoch, renews an
  /// expiring lease (one kDelegRecall poll), and services a pending recall.
  /// False means: go to the server (and the deleg may have been dropped).
  bool cache_live(OpenFile& of);
  /// Push the local lease horizon after a server-renewed operation.
  void renew_local(OpenFile& of);
  /// Forget the delegation and every cached byte (stamps cleared; dirty data
  /// is attempted as a final flush first — its failure lands in
  /// pending_error, not in the caller's result).
  void drop_deleg(OpenFile& of);
  PStatus flush_dirty(OpenFile& of);
  /// Flush + return + drop, in response to a server recall.
  void service_recall(OpenFile& of);
  /// Act on a recall notification piggybacked on a completed operation.
  void check_recall(OpenFile& of);

  OpenFile* lookup(Fh fh);
  /// Filer 0's session: metadata, and data server 0.
  Session& meta() const { return *sessions_[0]; }
  std::size_t server_of(std::uint64_t off) const {
    return static_cast<std::size_t>((off / stripe_size_) % sessions_.size());
  }
  /// Split `iovs` at stripe boundaries into per-server piece lists, sorted
  /// by offset; a one-filer mount keeps the list as given. Pieces of no
  /// bytes carry nothing and are dropped.
  std::vector<std::vector<IoVec>> split(std::span<const IoVec> iovs) const;
  /// Striped logical size: max over the data subfile sizes.
  Result<std::uint64_t> logical_size(OpenFile& of);

  // ---- the engine ----------------------------------------------------------
  /// Split the transfer and put its first round on the wire.
  Result<Pending> start(OpenFile& of, std::span<const IoVec> iovs,
                        bool writing);
  /// One round: the next request of every filer with pieces left, in
  /// skew_ order. kInval when `of` is gone (closed with rounds left).
  PStatus issue(const OpenFile* of, Pending& p);
  /// Collect the rounds in submission order, issuing the next after each,
  /// and merge the counts. A one-filer op stops at its first short request.
  PStatus finish(Pending& p, std::uint64_t* bytes);
  /// A sync call: start, then finish.
  Result<std::uint64_t> run(OpenFile& of, std::span<const IoVec> iovs,
                            bool writing);
  Result<OpId> submit(Fh fh, IoVec v, bool writing);

  std::uint64_t stripe_size_ = kDefaultStripeSize;
  /// Per-client rotation of the sub-batch fan-out order. Without it every
  /// client submits to server 0 first, so under a collective all N servers
  /// service the same client's request concurrently and convoy on that one
  /// client link; skewing the start index by client identity gives each
  /// server a different first client (a Latin-square-ish schedule).
  std::size_t skew_ = 0;
  /// One session per filer in layout order; sessions_[0] is filer 0.
  std::vector<std::unique_ptr<Session>> sessions_;
  std::vector<OpenFile> open_files_;
  std::vector<Pending> pending_;
  std::vector<OpId> free_ops_;
  sim::Fabric* fabric_ = nullptr;
  /// Gauge registrations (dafs.cache.bytes). Declared last so gauges die
  /// before anything they sample.
  std::vector<sim::GaugeScope> gauges_;
};

}  // namespace dafs
