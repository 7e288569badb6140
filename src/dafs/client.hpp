#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dafs/cache.hpp"
#include "dafs/mount.hpp"
#include "dafs/proto.hpp"
#include "fstore/types.hpp"
#include "sim/expected.hpp"
#include "sim/metrics.hpp"
#include "sim/rng.hpp"
#include "via/reg_cache.hpp"
#include "via/vi.hpp"

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

/// A uDAFS-style client session: a user-space file-access library speaking
/// the DAFS protocol over one VI. Small transfers ride inline in messages;
/// large ones are *direct*: the client registers the user buffer (with a
/// registration cache) and the server RDMAs the data, so the client CPU
/// never touches payload bytes.
///
/// Concurrency contract: a Session is owned by one thread (each MPI rank
/// opens its own session), matching the DAFS provider model.
class Session {
 public:
  /// Mount `spec` and bind to its first reachable endpoint. Later endpoints
  /// are failover targets: the recovery path rotates to them when the bound
  /// filer stays unreachable or answers kNotLeader (a quorum follower).
  static Result<std::unique_ptr<Session>> connect(via::Nic& nic,
                                                  const MountSpec& spec = {});
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// What the server granted at open (all zero when it granted nothing).
  struct DelegGrant {
    std::uint64_t id = 0;       // delegation id (a pure capability token)
    bool write = false;         // write delegation (else read-only)
    std::uint64_t term_ns = 0;  // lease term; renewed by every stamped op
  };

  // ---- namespace -----------------------------------------------------------
  /// Open `path`. With `grant`, the request asks for a delegation (the
  /// caller must also set kOpenWantDeleg in `flags`) and `*grant` reports
  /// what the server issued. `deleg` pre-stamps the request with an id this
  /// session did not earn itself — the striped Client passes the meta
  /// session's grant into its data-subfile opens so the server recognizes
  /// them as the holder's own plumbing; the id is then recorded as this
  /// session's stamp for the opened ino.
  Result<Fh> open(std::string_view path, std::uint16_t flags = 0,
                  DelegGrant* grant = nullptr, std::uint64_t deleg = 0);
  Result<fstore::Attrs> getattr(Fh fh);
  PStatus set_size(Fh fh, std::uint64_t size);
  PStatus remove(std::string_view path);
  PStatus mkdir(std::string_view path);
  PStatus rmdir(std::string_view path);
  PStatus rename(std::string_view from, std::string_view to);
  Result<std::vector<fstore::DirEntry>> readdir(std::string_view path);
  PStatus sync(Fh fh);

  // ---- delegations ----------------------------------------------------------
  /// Renewal/recall poll: renews the lease on the delegation stamped for
  /// `fh` and returns the renewed term (ns). kDelegExpired once the server
  /// no longer honors the id (also clears the local stamp). A pending recall
  /// surfaces through recall_pending().
  Result<std::uint64_t> deleg_renew(Fh fh);
  /// Voluntarily return the delegation stamped for `fh` (no-op when none).
  PStatus deleg_return(Fh fh);
  /// The delegation id stamped on every request for `ino` (0 = none).
  std::uint64_t deleg_of(fstore::Ino ino) const {
    auto it = delegs_.find(ino);
    return it == delegs_.end() ? 0 : it->second;
  }
  void set_deleg(fstore::Ino ino, std::uint64_t id) { delegs_[ino] = id; }
  void clear_deleg(fstore::Ino ino) { delegs_.erase(ino); }
  /// Sticky recall notification: set when any response for `ino` carried
  /// kFlagDelegRecall; the cache owner services it and clears the flag.
  bool recall_pending(fstore::Ino ino) const {
    return recalled_.count(ino) != 0;
  }
  void clear_recall(fstore::Ino ino) { recalled_.erase(ino); }
  /// Bumped at every transport recovery. A recovery can land the session on
  /// a different server incarnation that never issued our delegations, so a
  /// cache compares the epoch it recorded at grant before serving bytes.
  std::uint64_t recovery_epoch() const { return recovery_epoch_; }

  // ---- data -----------------------------------------------------------------
  Result<std::uint64_t> pread(Fh fh, std::uint64_t off,
                              std::span<std::byte> out);
  Result<std::uint64_t> pwrite(Fh fh, std::uint64_t off,
                               std::span<const std::byte> in);
  /// Scatter/gather list I/O: each IoVec names its own file offset. Uses one
  /// direct request when possible, minimizing round trips.
  Result<std::uint64_t> read_batch(Fh fh, std::span<const IoVec> iovs);
  Result<std::uint64_t> write_batch(Fh fh, std::span<const IoVec> iovs);
  /// Asynchronous list I/O: submit the batch and return the op id without
  /// waiting. The striped Client uses these to drive one in-flight batch per
  /// data server; wait()/test()/wait_all() complete them like any other op.
  Result<OpId> submit_read_batch(Fh fh, std::span<const IoVec> iovs);
  Result<OpId> submit_write_batch(Fh fh, std::span<const IoVec> iovs);

  // ---- asynchronous I/O ------------------------------------------------------
  Result<OpId> submit_pread(Fh fh, std::uint64_t off, std::span<std::byte> out);
  Result<OpId> submit_pwrite(Fh fh, std::uint64_t off,
                             std::span<const std::byte> in);
  /// Block until `op` completes; optionally return bytes transferred.
  PStatus wait(OpId op, std::uint64_t* bytes = nullptr);
  /// Non-blocking completion check; frees the op when it returns done=true
  /// and returns its error when it failed.
  Result<bool> test(OpId op, std::uint64_t* bytes = nullptr);
  PStatus wait_all(std::span<const OpId> ops);
  /// Completion-group wait: block until any of `ops` has completed and
  /// returns its index within `ops`. The op stays allocated:
  /// `wait(ops[i], &bytes)` collects its status and byte count without
  /// blocking. kInval on an empty span.
  Result<std::size_t> wait_any(std::span<const OpId> ops);

  // ---- locks & counters -------------------------------------------------------
  /// Acquire with bounded retry on conflict.
  PStatus lock(Fh fh, std::uint64_t start, std::uint64_t len, bool exclusive);
  PStatus try_lock(Fh fh, std::uint64_t start, std::uint64_t len,
                   bool exclusive);
  PStatus unlock(Fh fh, std::uint64_t start, std::uint64_t len);
  Result<std::uint64_t> fetch_add(std::string_view key, std::uint64_t delta);
  PStatus set_counter(std::string_view key, std::uint64_t value);

  // ---- telemetry -------------------------------------------------------------
  /// Live stats snapshot from the bound filer. Served outside the server's
  /// admission control (succeeds while the data plane sheds kBusy) and by
  /// quorum followers (which report their role/term instead of refusing).
  Result<StatsSnapshot> query_stats();

  std::uint64_t session_id() const { return session_id_; }
  std::uint64_t client_id() const { return client_id_; }
  via::Nic& nic() { return nic_; }
  const ClientConfig& config() const { return cfg_; }
  /// Endpoint list this session was mounted with (never empty).
  const std::vector<Endpoint>& endpoints() const { return eps_; }
  /// Index of the endpoint the session is currently bound to.
  std::size_t endpoint_index() const { return ep_; }
  /// Service name of the bound endpoint.
  const std::string& active_service() const { return eps_[ep_].service; }
  /// Retry policy of the bound endpoint.
  const RetryPolicy& policy() const { return eps_[ep_].retry; }
  /// Times the session rotated to a different endpoint (failovers).
  std::uint64_t failovers() const { return failovers_; }
  /// Registration-cache counters (hits/misses/evictions).
  std::uint64_t reg_cache_hits() const { return reg_cache_.hits(); }
  std::uint64_t reg_cache_misses() const { return reg_cache_.misses(); }
  /// Change the per-request deadline budget (virtual ns, 0 = none).
  void set_deadline(std::uint64_t ns) { deadline_ns_ = ns; }
  std::uint64_t deadline() const { return deadline_ns_; }
  /// Handles invalidated by a server restart that found the file changed
  /// underneath them (removed / recreated): ops on them return kStale.
  bool is_stale(Fh fh) const { return stale_.count(fh.ino) != 0; }
  std::size_t stale_count() const { return stale_.size(); }

 private:
  struct Slot {
    bool in_use = false;
    bool done = false;
    Proc proc{};                 // procedure in flight (RTT attribution)
    fstore::Ino ino = fstore::kInvalidIno;  // target file (recall routing)
    std::uint32_t seq = 0;       // session sequence number of the request
    int busy_retries = 0;        // kBusy retransmissions so far
    int reclaim_retries = 0;     // kBadSession-triggered reclaims so far
    std::size_t wire_len = 0;    // request bytes (for retransmission)
    sim::Time t_submit = 0;      // virtual doorbell time of the request
    std::uint64_t trace_id = 0;  // trace the request belongs to (0 = none)
    std::uint64_t span_id = 0;   // this request's client-side span id
    std::uint64_t parent_span = 0;  // span open at submit (the MPI-IO op)
    MsgHeader resp;
    std::vector<std::byte> payload;   // small response payloads (attrs, dirents)
    std::byte* user_buf = nullptr;    // inline-read destination
    std::uint64_t user_cap = 0;
    /// Direct-read destination when the request's segments were contiguous
    /// (memory and file): the server's payload CRC then covers exactly the
    /// first resp.len bytes here. Null = skip client-side wire verification.
    std::byte* verify_buf = nullptr;
    std::vector<via::MemHandle> temp_handles;  // released on completion
    std::vector<std::byte> send_buf;
    via::MemHandle send_handle = via::kInvalidMemHandle;
    via::Descriptor send_desc;
  };

  struct RecvBuf {
    std::vector<std::byte> mem;
    via::MemHandle handle = via::kInvalidMemHandle;
    via::Descriptor desc;
  };

  Session(via::Nic& nic, MountSpec spec);
  PStatus do_connect();
  /// One establishment pass against the bound endpoint (connect retry loop,
  /// buffer arming, kConnect RPC). do_connect rotates endpoints between
  /// passes when the answer is kNotLeader.
  PStatus connect_once();
  /// Rotate to the next endpoint in the mount order (wraps; reseeds the
  /// backoff jitter from the new endpoint's policy).
  void advance_endpoint();
  /// Demote the bound endpoint to the back of the rotation and bind the
  /// next one. Used when the endpoint *answered* but refused service
  /// (kNotLeader): it is alive yet useless for now, so it should be the
  /// last thing reprobed — unlike a transport failure, where the plain
  /// in-place rotation of advance_endpoint is right.
  void demote_endpoint();
  /// Bind the endpoint tagged with quorum member `aux - 1` (the wire
  /// encoding of a kNotLeader leader hint; aux == 0 means no hint). Returns
  /// false when the hint is empty, unknown, or names the bound endpoint.
  bool follow_leader_hint(std::uint64_t aux);

  /// Allocate a free request slot; kProtoError if the session is dead,
  /// kInval if the caller exceeded the credit limit.
  Result<OpId> alloc_slot();
  void free_slot(OpId id);
  /// Build+transmit the request in slot `id`. MsgView over the slot's send
  /// buffer must already be finalized.
  PStatus transmit(OpId id);
  /// Pump one response off the VI (blocking). Returns false if the session
  /// died.
  bool pump_one();
  /// Handle one successfully-received response buffer: complete the matching
  /// slot (or count it as stale) and repost the buffer. Returns true when it
  /// completed a live slot.
  bool process_response(RecvBuf& rb);
  /// The receive buffer a completed receive descriptor scatters into.
  RecvBuf& recv_buf(const via::Descriptor* d);
  /// Post `rb` on the VI's receive queue (false: the VI is dead).
  bool repost(RecvBuf& rb);
  /// Post every receive buffer: the credit contract with the server.
  bool repost_all();
  /// Pump responses until slot `id` has settled; returns its final status.
  PStatus wait_slot(OpId id);
  /// The one completion rule for a slot whose response arrived, shared by
  /// wait, test and wait_any. kBusy with a retry-after hint and kCorrupt go
  /// back on the wire after a jittered wait; kBadSession, and kNotLeader on
  /// a bound session, recover the session and retransmit (at most
  /// kSlotReclaimRetries times). Returns true when resp.status is final
  /// (including kConnLost when a retransmission failed), false when the
  /// request is in flight again.
  bool settle(OpId id);
  /// Retransmit slot `id` after a jittered virtual wait of about `wait_ns`
  /// plus a real-time `yield`, counting the retry under `counter`. False
  /// once the slot's retry budget is spent.
  bool retry_after(OpId id, std::uint64_t wait_ns, const char* counter,
                   std::chrono::microseconds yield);

  // ---- transport-failure recovery ----
  /// Reconnect, resume the session, and retransmit in-flight requests, with
  /// capped jittered exponential backoff between attempts. Returns false
  /// (and marks the session dead) once attempts are exhausted.
  bool recover();
  enum class ResumeOutcome {
    kFailed,     // transport error / garbled answer: retry the attempt
    kResumed,    // server still had the session (connection-level failure)
    kLostState,  // kBadSession: server restarted, reclaim from leases
    kNotLeader,  // quorum follower: follow its leader hint (or demote)
  };
  ResumeOutcome resume_session();
  /// Rebuild server-side state from client leases after a server restart:
  /// fresh connect, re-open leased paths (validating (ino, gen) identity;
  /// mismatches mark the handle stale), re-acquire leased byte-range locks
  /// with kLockReclaim, then repoint in-flight requests at the new session.
  bool reclaim_session();
  bool retransmit_inflight();
  /// One synchronous RPC over the dedicated resume buffer (usable while all
  /// regular slots are occupied by in-flight requests). The caller builds
  /// the request in resume_buf_; identity/seq stamping happens here.
  struct RawResp {
    bool transport_ok = false;  // false: send/recv died, retry the attempt
    PStatus status = PStatus::kProtoError;
    MsgHeader hdr{};
    fstore::Attrs attrs{};
    bool have_attrs = false;
  };
  RawResp raw_rpc();
  /// The wait between lease-reclaim RPCs the restarting filer shed (kBusy)
  /// or refused (kLockConflict): the server's hint, floored at `floor_ns`,
  /// then a real-time yield. False once `tries` reaches the busy-retry
  /// budget, or at once for a deadline shed (kBusy with no hint).
  bool reclaim_backoff(const RawResp& r, int& tries, sim::Time floor_ns);
  /// Header flags the session's IntegrityMode asks for on data procedures.
  std::uint16_t integrity_flags() const;
  /// Record the request's submit->response RTT into the fabric histogram
  /// registry, keyed by procedure ("dafs.rtt_ns.<proc>").
  void record_rtt(const Slot& sl);

  /// One NIC handle per segment of a direct request (kNoResource when a
  /// registration failed). Handles pinned outside the cache land in the
  /// slot's temp_handles and are released with it.
  Result<std::vector<via::MemHandle>> register_segments(
      std::span<const IoVec> iovs, OpId slot);

  Result<OpId> submit_io(Proc proc, Fh fh, std::span<const IoVec> iovs,
                         bool writing);
  /// Marshal `in` (at most one message's inline capacity) into an inline
  /// write request stamped with the ino's delegation, and transmit it.
  Result<OpId> submit_write_inline(Fh fh, std::uint64_t off,
                                   std::span<const std::byte> in);
  Result<std::uint64_t> run_sync(OpId id);
  /// `deleg` overrides the per-ino stamp (opens resolve by path, so the fh
  /// carries no ino to look the stamp up by); 0 = use the stamp map.
  Result<OpId> submit_simple(Proc proc, std::string_view name, Fh fh,
                             std::uint64_t offset, std::uint64_t len,
                             std::uint64_t aux, std::uint16_t flags,
                             std::uint64_t deleg = 0);

  /// Leases: the client-side record of server state it can rebuild after a
  /// crash-restart wiped the server's volatile tables.
  struct OpenLease {
    std::string path;
    fstore::Ino ino = fstore::kInvalidIno;
    std::uint64_t gen = 0;  // (ino, gen) names one file incarnation
  };
  struct LockLease {
    fstore::Ino ino = fstore::kInvalidIno;
    std::uint64_t start = 0;
    std::uint64_t len = 0;
    bool exclusive = false;
  };
  void record_open_lease(std::string_view path, fstore::Ino ino,
                         std::uint64_t gen);
  void record_lock_lease(fstore::Ino ino, std::uint64_t start,
                         std::uint64_t len, bool exclusive);
  void drop_lock_lease(fstore::Ino ino, std::uint64_t start,
                       std::uint64_t len);

  via::Nic& nic_;
  ClientConfig cfg_;
  /// Normalized endpoint list from the MountSpec (never empty) and the
  /// index of the endpoint currently bound.
  std::vector<Endpoint> eps_;
  std::size_t ep_ = 0;
  std::uint64_t failovers_ = 0;
  std::uint64_t rotations_ = 0;
  /// Last kNotLeader leader hint seen (wire encoding: member index + 1,
  /// 0 = none). Recorded wherever a kNotLeader answer lands — connect,
  /// resume, wait — and consumed by the recovery rotation.
  std::uint64_t leader_hint_ = 0;
  via::ProtectionTag ptag_;
  /// Owned by pointer so recovery can replace the endpoint: a VI that has
  /// seen a transport failure is dead for good, but the NIC registrations
  /// backing the session's buffers survive it.
  std::unique_ptr<via::Vi> vi_;
  std::uint64_t session_id_ = 0;
  std::uint64_t client_id_ = 0;
  std::uint64_t deadline_ns_ = 0;
  std::uint32_t next_seq_ = 1;
  bool dead_ = false;
  bool recovering_ = false;
  sim::Rng backoff_rng_;

  std::vector<OpenLease> leases_;
  std::vector<LockLease> lock_leases_;
  std::unordered_set<fstore::Ino> stale_;
  /// Per-ino delegation stamp: every request for the ino carries this id in
  /// MsgHeader::deleg, which is both the server's holder check and the
  /// per-request lease renewal.
  std::unordered_map<fstore::Ino, std::uint64_t> delegs_;
  std::unordered_set<fstore::Ino> recalled_;
  std::uint64_t recovery_epoch_ = 0;

  std::vector<Slot> slots_;
  std::vector<OpId> free_slots_;
  std::vector<RecvBuf> recv_bufs_;

  /// Dedicated send buffer for the resume handshake: every regular slot may
  /// already be occupied by an in-flight request when the connection dies.
  std::vector<std::byte> resume_buf_;
  via::MemHandle resume_handle_ = via::kInvalidMemHandle;
  via::Descriptor resume_desc_;

  via::RegCache reg_cache_;
};

/// The striped multi-filer client: one metadata Session (filer 0) plus one
/// data Session per entry in MountSpec::data_endpoints, with a client-held
/// Layout per open file. Data requests are split at stripe boundaries, the
/// per-server sub-batches issued in parallel over each server's own VI, and
/// the partial statuses/short counts merged back into one result.
///
/// Data placement is Lustre-style round-robin: data server `s` owns stripe
/// `k` iff `k % nservers == s`. Each data server stores its stripes in a
/// subfile at the *logical* offsets (the store's sparse chunks make the gaps
/// free and read as zeros), so the logical file size is the max over the
/// subfile sizes and no offset translation exists anywhere.
///
/// Metadata — create/attrs/locks/leases/counters — all goes to the metadata
/// session. A one-data-server mount behaves exactly like a plain Session
/// (the degenerate layout), so callers can use Client unconditionally.
///
/// Concurrency contract: like Session, one owning thread.
class Client {
 public:
  /// Mount `spec`: connect the metadata session to spec.endpoints and one
  /// data session per spec.data_endpoints entry (empty data_endpoints means
  /// data lives on the metadata filer). Fails if any connect fails.
  static Result<std::unique_ptr<Client>> connect(via::Nic& nic,
                                                 const MountSpec& spec);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // ---- namespace (metadata session, plus data-subfile fan-out) -------------
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
  Result<OpId> submit_pread(Fh fh, std::uint64_t off, std::span<std::byte> out);
  Result<OpId> submit_pwrite(Fh fh, std::uint64_t off,
                             std::span<const std::byte> in);
  PStatus wait(OpId op, std::uint64_t* bytes = nullptr);
  PStatus wait_all(std::span<const OpId> ops);

  // ---- locks & counters (metadata session) ----------------------------------
  PStatus lock(Fh fh, std::uint64_t start, std::uint64_t len, bool exclusive);
  PStatus try_lock(Fh fh, std::uint64_t start, std::uint64_t len,
                   bool exclusive);
  PStatus unlock(Fh fh, std::uint64_t start, std::uint64_t len);
  Result<std::uint64_t> fetch_add(std::string_view key, std::uint64_t delta);
  PStatus set_counter(std::string_view key, std::uint64_t value);

  // ---- telemetry (metadata session; use data_session(i) for data filers) ----
  Result<StatsSnapshot> query_stats() { return meta_->query_stats(); }

  /// The layout every file opened through this mount gets.
  std::uint64_t stripe_size() const { return stripe_size_; }
  std::size_t data_servers() const { return data_.size(); }
  /// Layout handed out at open for `fh` (default layout if unknown).
  Layout layout_of(Fh fh) const;
  Session& meta_session() { return *meta_; }
  Session& data_session(std::size_t i) { return *data_[i]; }
  const ClientConfig& config() const { return meta_->config(); }
  void set_deadline(std::uint64_t ns);
  bool is_stale(Fh fh) const { return meta_->is_stale(fh); }

 private:
  struct OpenFile {
    Fh meta;                   // handle on the metadata session
    std::vector<Fh> data_fh;   // parallel to data_ (subfile handles)
    std::string path;          // open path (warm re-open matching)
    OpenOptions opts;
    /// Data cache; null when this open runs uncached (cache_bytes == 0,
    /// striped mount, or no delegation granted).
    std::unique_ptr<FileCache> cache;
    std::uint64_t deleg = 0;          // delegation id (0 = none held)
    bool deleg_write = false;
    std::uint64_t term_ns = 0;        // lease term at grant
    std::uint64_t lease_expires = 0;  // local conservative expiry (virtual ns)
    std::uint64_t grant_epoch = 0;    // sessions' recovery epoch at grant
    /// Attr cache under the delegation (serves getattr within attr_ttl_ns).
    fstore::Attrs attrs{};
    std::uint64_t attrs_at = 0;
    bool attrs_valid = false;
    /// First error of a background flush (recall/expiry/budget write-back):
    /// surfaced and cleared by the next flush/sync/close.
    PStatus pending_error = PStatus::kOk;
  };
  struct SubOp {
    std::size_t server = 0;    // index into data_
    OpId op = 0;               // that session's op id
    /// Pieces of the split batch this sub-op carries, in submission order
    /// (read merge distributes the server's short count over them).
    std::vector<IoVec> iovs;
  };
  struct Pending {
    Fh fh;  // the Client-level handle (size fixup on short reads)
    std::vector<SubOp> subs;
    bool writing = false;
  };

  Client(std::uint64_t stripe_size);

  /// Combined recovery epoch of the sessions a delegation spans.
  std::uint64_t sessions_epoch() const;
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
  OpenFile* lookup_path(std::string_view path);

  OpenFile* lookup(Fh fh);
  std::size_t server_of(std::uint64_t off) const {
    return static_cast<std::size_t>((off / stripe_size_) % data_.size());
  }
  /// Split `iovs` at stripe boundaries into per-server piece lists.
  std::vector<std::vector<IoVec>> split(std::span<const IoVec> iovs) const;
  /// Striped logical size: max over the data subfile sizes.
  Result<std::uint64_t> logical_size(OpenFile& of);
  Result<std::uint64_t> run_batch(Fh fh, std::span<const IoVec> iovs,
                                  bool writing);
  Result<OpId> submit_batch(Fh fh, std::span<const IoVec> iovs, bool writing);
  PStatus finish(Pending& p, std::uint64_t* bytes);

  std::uint64_t stripe_size_ = kDefaultStripeSize;
  /// Per-client rotation of the sub-batch fan-out order. Without it every
  /// client submits to server 0 first, so under a collective all N servers
  /// service the same client's request concurrently and convoy on that one
  /// client link; skewing the start index by client identity gives each
  /// server a different first client (a Latin-square-ish schedule).
  std::size_t skew_ = 0;
  std::unique_ptr<Session> meta_;
  /// Data sessions in layout order. data_[0] targets the same filer as
  /// meta_ (its own VI and credits; same store, so the same subfile).
  std::vector<std::unique_ptr<Session>> data_;
  std::vector<std::string> data_services_;
  std::vector<OpenFile> open_files_;
  std::vector<Pending> pending_;
  std::vector<OpId> free_ops_;
  sim::Fabric* fabric_ = nullptr;
  /// Gauge registrations (dafs.cache.bytes). Declared last so gauges die
  /// before anything they sample.
  std::vector<sim::GaugeScope> gauges_;
};

}  // namespace dafs
