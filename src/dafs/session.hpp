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

#include "dafs/client.hpp"
#include "dafs/mount.hpp"
#include "dafs/proto.hpp"
#include "fstore/types.hpp"
#include "sim/rng.hpp"
#include "sim/trace.hpp"
#include "via/reg_cache.hpp"
#include "via/vi.hpp"

namespace dafs {

/// The DAFS transport to one filer, internal to dafs::Client (which binds
/// one per filer of its mount): the protocol over one VI with its credit
/// window, registration cache, retries and transport-failure recovery.
/// Small transfers ride inline in messages; large ones are *direct*: the
/// client registers the user buffer (with a registration cache) and the
/// server RDMAs the data, so the client CPU never touches payload bytes.
///
/// Concurrency contract: a Session is owned by one thread (its Client's),
/// matching the DAFS provider model.
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
  /// what the server issued. Re-opening a path whose file this session
  /// holds a delegation on stamps that id, so the server re-advertises the
  /// holder's own grant instead of recalling it.
  Result<Fh> open(std::string_view path, std::uint16_t flags = 0,
                  DelegGrant* grant = nullptr);
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
  /// One data request on the wire: its op id and the front of the transfer
  /// it carries.
  struct DataReq {
    OpId op = 0;
    /// The pieces it carries, in transfer order; the last may be cut short.
    std::vector<IoVec> iovs;
    std::uint64_t bytes = 0;  // their total
  };
  /// The one data-request builder: transmit one request carrying the
  /// longest prefix of `iovs` that fits. The transfer rides inline when it
  /// is below direct_threshold (one range, at most a message's inline
  /// capacity) and direct otherwise (as many segments as one message holds
  /// after the max_rdma_seg split). The request joins the trace of `trace`.
  /// wait() collects it like any other op.
  Result<DataReq> submit_data(Fh fh, std::span<const IoVec> iovs,
                              bool writing,
                              sim::SpanContext trace = sim::Tracer::current());

  /// Synchronous I/O: as many requests as the transfer needs, one at a time;
  /// a read stops at its first short request (EOF). Each IoVec of a list
  /// names its own file offset.
  Result<std::uint64_t> pread(Fh fh, std::uint64_t off,
                              std::span<std::byte> out);
  Result<std::uint64_t> pwrite(Fh fh, std::uint64_t off,
                               std::span<const std::byte> in);
  Result<std::uint64_t> read_batch(Fh fh, std::span<const IoVec> iovs);
  Result<std::uint64_t> write_batch(Fh fh, std::span<const IoVec> iovs);

  // ---- asynchronous I/O ------------------------------------------------------
  /// One request each: kInval when the transfer does not fit in one
  /// (dafs::Client runs a longer one as rounds of submit_data).
  Result<OpId> submit_pread(Fh fh, std::uint64_t off, std::span<std::byte> out);
  Result<OpId> submit_pwrite(Fh fh, std::uint64_t off,
                             std::span<const std::byte> in);
  /// Block until `op` completes; optionally return bytes transferred.
  /// kInval when `op` is not in flight (never submitted, or collected).
  PStatus wait(OpId op, std::uint64_t* bytes = nullptr);
  /// Non-blocking completion check; frees the op when it returns done=true
  /// and returns its error when it failed. kInval when `op` is not in
  /// flight.
  Result<bool> test(OpId op, std::uint64_t* bytes = nullptr);
  PStatus wait_all(std::span<const OpId> ops);
  /// Completion-group wait: block until any of `ops` has completed and
  /// returns its index within `ops`. The op stays allocated:
  /// `wait(ops[i], &bytes)` collects its status and byte count without
  /// blocking. kInval on an empty span or when an op is not in flight.
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
    std::uint64_t user_cap = 0;       // bytes the read asked for
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
  /// Bind the first endpoint that answers kConnect, redirecting past
  /// followers (at most one pass per endpoint plus eight).
  PStatus do_connect();
  /// The one dial, shared by the first connect and recovery: take a fresh
  /// VI, connect it to the bound endpoint while polling up to `polls` times
  /// for the listener (with `rotate`, moving to the next endpoint after each
  /// miss), and post the receive ring. The first dial allocates and
  /// registers the message buffers (kNoResource when that fails).
  PStatus dial(int polls, bool rotate);
  /// The one redirect rule, for a kNotLeader answer to a connect or a
  /// resume: follow the leader hint or demote the follower, then pause while
  /// leadership settles.
  void redirect();
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

  /// Allocate a free request slot joining the trace of `trace`; kConnLost
  /// if the session is dead, kInval if the caller exceeded the credit limit.
  /// While recovering, the slot is the spare one: recovery's own requests
  /// never take a credit, all of which may be in flight.
  Result<OpId> alloc_slot(sim::SpanContext trace = sim::Tracer::current());
  void free_slot(OpId id);
  /// The slot beyond the credit window, never on the free list.
  OpId spare_slot() const { return static_cast<OpId>(cfg_.credits); }
  /// A caller's op: a credit slot that is allocated.
  bool in_flight(OpId op) const {
    return op < cfg_.credits && slots_[op].in_use;
  }
  /// Stamp and transmit the request in slot `id`. MsgView over the slot's
  /// send buffer must already be finalized.
  PStatus transmit(OpId id);
  /// The one send post: the slot's request bytes as they stand (a
  /// retransmission keeps its seq), waiting for the send to complete.
  bool send(Slot& sl);
  /// The request deadline budget; none while recovering, whose waits take
  /// the kIoWait watchdog.
  std::uint64_t io_deadline() const { return recovering_ ? 0 : deadline_ns_; }
  /// Take one response off the VI and process it. Blocking, waits for one;
  /// otherwise takes only one already delivered. A transport failure
  /// recovers the session (a blocking pump then waits on). Returns false
  /// when nothing was taken: the session died, recovery refused (it is
  /// already running), or nothing had arrived.
  bool pump_one(bool block = true);
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
  /// wait, test, wait_any and recovery's own requests. kBusy with a
  /// retry-after hint and kCorrupt go back on the wire after a jittered
  /// wait; kBadSession, and kNotLeader on a bound session, recover the
  /// session and retransmit (at most kSlotReclaimRetries times), except
  /// during recovery, which takes both answers itself. Returns true when
  /// resp.status is final (including kConnLost when a retransmission
  /// failed), false when the request is in flight again.
  bool settle(OpId id);
  /// Retransmit slot `id` after a jittered virtual wait of about `wait_ns`
  /// plus a host-time `yield`, counting the retry under `counter`. False
  /// once the slot's retry budget is spent.
  bool retry_after(OpId id, std::uint64_t wait_ns, const char* counter,
                   std::chrono::microseconds yield);

  // ---- transport-failure recovery ----
  /// Reconnect, resume the session, and retransmit in-flight requests, with
  /// capped jittered exponential backoff between attempts. Returns false
  /// (and marks the session dead) once attempts are exhausted.
  bool recover();
  /// Rebuild server-side state from client leases after a server restart:
  /// fresh connect, re-open leased paths (validating (ino, gen) identity;
  /// mismatches mark the handle stale), re-acquire leased byte-range locks
  /// with kLockReclaim.
  bool reclaim_session();
  /// Resend every in-flight request on the fresh VI, repointed at the
  /// current session.
  bool retransmit_inflight();
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

  /// The one fit rule: how one request carries the front of `iovs`.
  struct Fit {
    bool direct = false;
    std::uint64_t bytes = 0;  // of the transfer's prefix the request carries
    std::uint64_t total = 0;  // of the whole transfer
  };
  Fit fit(std::span<const IoVec> iovs) const;
  /// submit_data, then wait, until the transfer is done or a request
  /// comes back short.
  Result<std::uint64_t> run_data(Fh fh, std::span<const IoVec> iovs,
                                 bool writing);
  /// submit_data for a transfer that must fit in one request.
  Result<OpId> submit_one(Fh fh, std::span<const IoVec> iovs, bool writing);

  /// A settled exchange: the final status, the response header and its
  /// small payload (attrs, dirents, stats), a view of the slot's buffer
  /// that holds until the next request.
  struct Reply {
    PStatus status = PStatus::kProtoError;
    MsgHeader hdr{};
    std::span<const std::byte> payload;
  };
  /// The one request/response exchange, for every request but data: build
  /// the request in a slot, transmit it, wait for it to settle, free the
  /// slot. kStale without sending when `fh` is a stale handle.
  Reply call(Proc proc, std::string_view name = {}, Fh fh = {},
             std::uint64_t offset = 0, std::uint64_t len = 0,
             std::uint64_t aux = 0, std::uint16_t flags = 0);

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
  /// The lease recorded for `path`, or nullptr.
  const OpenLease* find_open_lease(std::string_view path) const;
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

  /// One lease per path ever opened, in first-open order (the order
  /// reclaim_session re-opens them), and each path's position in it, so an
  /// open does not walk every path this mount has opened.
  std::vector<OpenLease> leases_;
  struct PathHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view p) const {
      return std::hash<std::string_view>{}(p);
    }
  };
  std::unordered_map<std::string, std::size_t, PathHash, std::equal_to<>>
      lease_index_;
  std::vector<LockLease> lock_leases_;
  std::unordered_set<fstore::Ino> stale_;
  /// Per-ino delegation stamp: every request for the ino carries this id in
  /// MsgHeader::deleg, which is both the server's holder check and the
  /// per-request lease renewal.
  std::unordered_map<fstore::Ino, std::uint64_t> delegs_;
  std::unordered_set<fstore::Ino> recalled_;
  std::uint64_t recovery_epoch_ = 0;

  /// The credit window's slots, then the spare slot.
  std::vector<Slot> slots_;
  std::vector<OpId> free_slots_;
  std::vector<RecvBuf> recv_bufs_;

  via::RegCache reg_cache_;
};

/// Drop the first `bytes` of a transfer, the part one request carried:
/// whole pieces leave `iovs`, and a piece the request cut keeps its tail.
void drop_front(std::vector<IoVec>& iovs, std::uint64_t bytes);

}  // namespace dafs
