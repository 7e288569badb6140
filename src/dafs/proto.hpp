#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>

#include "fstore/types.hpp"

/// \file proto.hpp
/// The DAFS wire protocol, as exchanged over a session VI. Modelled on the
/// DAFS 1.0 protocol (itself derived from NFSv4): session-oriented, with
/// *inline* operations carrying data in the message and *direct* operations
/// where the server moves file data with RDMA against client-registered
/// buffers. Extensions beyond the spec are marked [ext] and documented in
/// DESIGN.md (named atomic counters backing MPI shared file pointers).
namespace dafs {

/// Protocol procedures.
enum class Proc : std::uint8_t {
  kConnect = 1,
  kDisconnect,
  kOpen,         // path [+ create/excl/trunc flags] -> ino + attrs
  kGetattr,
  kSetSize,
  kRemove,       // path
  kMkdir,        // path
  kRmdir,        // path
  kRename,       // payload: old-path \0 new-path
  kReaddir,      // cookie in `offset`; packed entries back
  kReadInline,   // data returned in the response message
  kWriteInline,  // data carried in the request message
  kReadDirect,   // server RDMA-writes into client segments
  kWriteDirect,  // server RDMA-reads from client segments
  kSync,
  kLock,         // byte-range lock; offset/len; aux bit0 = exclusive
  kUnlock,
  kFetchAdd,     // [ext] named atomic counter; name payload, delta in aux
  kSetCounter,   // [ext]
  kStatsQuery,   // [ext] live telemetry snapshot: WireStatsHeader + tables
                 // in the response payload. Served outside admission control
                 // and by quorum followers — the management plane must
                 // answer precisely when the data plane is refusing.
  kDelegRecall,  // [ext] delegation lease renewal / recall poll: `ino` names
                 // the delegated file, `deleg` the delegation id. A valid
                 // holder gets kOk with the renewed term (ns) in `aux`; when
                 // the server wants the delegation back the response carries
                 // kFlagDelegRecall — the client must flush and return it.
                 // An unknown or expired id answers kDelegExpired.
  kDelegReturn,  // [ext] voluntary delegation return (after flushing dirty
                 // state): `ino` + `deleg`. Always answers kOk — returning a
                 // delegation the server already revoked is a no-op, which
                 // also makes the op safely re-executable after a reconnect.
};

/// True when a procedure can safely be re-executed after a connection loss
/// left its outcome unknown. Everything else must go through the server's
/// replay cache so a retransmitted request is answered, not re-applied.
constexpr bool is_idempotent(Proc p) {
  switch (p) {
    case Proc::kGetattr:
    case Proc::kReaddir:
    case Proc::kReadInline:
    case Proc::kReadDirect:
    case Proc::kSync:
    case Proc::kStatsQuery:
    // Delegation leases are volatile leader state, never journaled: renewing
    // twice is harmless and returning an already-dropped delegation is kOk,
    // so neither needs the replay cache.
    case Proc::kDelegRecall:
    case Proc::kDelegReturn:
      return true;
    default:
      return false;
  }
}

/// Stable lowercase names, used as histogram-key suffixes ("dafs.rtt_ns.<proc>").
constexpr const char* proc_name(Proc p) {
  switch (p) {
    case Proc::kConnect: return "connect";
    case Proc::kDisconnect: return "disconnect";
    case Proc::kOpen: return "open";
    case Proc::kGetattr: return "getattr";
    case Proc::kSetSize: return "setsize";
    case Proc::kRemove: return "remove";
    case Proc::kMkdir: return "mkdir";
    case Proc::kRmdir: return "rmdir";
    case Proc::kRename: return "rename";
    case Proc::kReaddir: return "readdir";
    case Proc::kReadInline: return "read_inline";
    case Proc::kWriteInline: return "write_inline";
    case Proc::kReadDirect: return "read_direct";
    case Proc::kWriteDirect: return "write_direct";
    case Proc::kSync: return "sync";
    case Proc::kLock: return "lock";
    case Proc::kUnlock: return "unlock";
    case Proc::kFetchAdd: return "fetch_add";
    case Proc::kSetCounter: return "set_counter";
    case Proc::kStatsQuery: return "stats_query";
    case Proc::kDelegRecall: return "deleg_recall";
    case Proc::kDelegReturn: return "deleg_return";
  }
  return "?";
}

/// Protocol status codes.
enum class PStatus : std::uint8_t {
  kOk = 0,
  kNoEnt,
  kExists,
  kIsDir,
  kNotDir,
  kNotEmpty,
  kInval,
  kStale,
  kBadSession,
  kLockConflict,
  kProtoError,
  kConnLost,     // transport failed and recovery exhausted its retries
  kNoResource,   // server/NIC out of resources (e.g. memory registration)
  kIo,           // backend storage error
  kBusy,         // server shed the request (admission queue full / restart
                 // grace period); retry-after hint (virtual ns) in aux
  kNotLeader,    // quorum follower (or deposed/stepped-down leader): only the
                 // group leader serves clients. aux carries a leader hint —
                 // 1 + the leader's member index when known, 0 when unknown —
                 // so the client jumps straight to the leader instead of
                 // probing the rotation blind
  kCorrupt,      // checksum mismatch: an at-rest block failed verification,
                 // or a wire payload arrived damaged. Never carries data; a
                 // client treats it like kBusy for reads (retry — a scrub
                 // repair may restore the block) and rewrites for writes
  kDelegExpired, // the request carried a delegation id the server does not
                 // hold live: the lease term lapsed, the delegation was
                 // revoked, or a failover produced a leader that never
                 // issued it. Writes are *fenced* (not applied) — the holder
                 // must discard its cache and revalidate before retrying
};

constexpr PStatus to_pstatus(fstore::Errc e) {
  switch (e) {
    case fstore::Errc::kOk: return PStatus::kOk;
    case fstore::Errc::kNoEnt: return PStatus::kNoEnt;
    case fstore::Errc::kExists: return PStatus::kExists;
    case fstore::Errc::kIsDir: return PStatus::kIsDir;
    case fstore::Errc::kNotDir: return PStatus::kNotDir;
    case fstore::Errc::kNotEmpty: return PStatus::kNotEmpty;
    case fstore::Errc::kInval: return PStatus::kInval;
    case fstore::Errc::kStale: return PStatus::kStale;
    case fstore::Errc::kIo: return PStatus::kIo;
    case fstore::Errc::kCorrupt: return PStatus::kCorrupt;
  }
  return PStatus::kProtoError;
}

constexpr fstore::Errc to_errc(PStatus s) {
  switch (s) {
    case PStatus::kOk: return fstore::Errc::kOk;
    case PStatus::kNoEnt: return fstore::Errc::kNoEnt;
    case PStatus::kExists: return fstore::Errc::kExists;
    case PStatus::kIsDir: return fstore::Errc::kIsDir;
    case PStatus::kNotDir: return fstore::Errc::kNotDir;
    case PStatus::kNotEmpty: return fstore::Errc::kNotEmpty;
    case PStatus::kInval: return fstore::Errc::kInval;
    case PStatus::kStale: return fstore::Errc::kStale;
    case PStatus::kIo: return fstore::Errc::kIo;
    case PStatus::kCorrupt: return fstore::Errc::kCorrupt;
    default: return fstore::Errc::kInval;
  }
}

constexpr const char* to_string(PStatus s) {
  switch (s) {
    case PStatus::kOk: return "ok";
    case PStatus::kNoEnt: return "no-entry";
    case PStatus::kExists: return "exists";
    case PStatus::kIsDir: return "is-directory";
    case PStatus::kNotDir: return "not-directory";
    case PStatus::kNotEmpty: return "not-empty";
    case PStatus::kInval: return "invalid";
    case PStatus::kStale: return "stale";
    case PStatus::kBadSession: return "bad-session";
    case PStatus::kLockConflict: return "lock-conflict";
    case PStatus::kProtoError: return "protocol-error";
    case PStatus::kConnLost: return "connection-lost";
    case PStatus::kNoResource: return "no-resource";
    case PStatus::kIo: return "io-error";
    case PStatus::kBusy: return "busy";
    case PStatus::kNotLeader: return "not-leader";
    case PStatus::kCorrupt: return "corrupt";
    case PStatus::kDelegExpired: return "deleg-expired";
  }
  return "?";
}

/// Open flags (header.flags).
inline constexpr std::uint16_t kOpenCreate = 0x1;
inline constexpr std::uint16_t kOpenExcl = 0x2;
inline constexpr std::uint16_t kOpenTrunc = 0x4;
/// [ext] This open targets a striped subfile: the striped dafs::Client is
/// opening the per-data-server backing file of a layout, not the logical
/// file. Semantically identical to a plain open (the subfile stores its
/// stripes at the logical offsets, sparse); servers count these opens
/// ("dafs.data_opens") so striped traffic is visible in the stats.
inline constexpr std::uint16_t kOpenDataServer = 0x8;
/// [ext] The opener asks for a read delegation: if it is the only opener of
/// the file (and no other delegation is live), the server returns a
/// delegation id in the response's `deleg` field and the lease term (virtual
/// ns) in `aux` — until recall or expiry the holder may serve reads from a
/// local cache without revalidating.
inline constexpr std::uint16_t kOpenWantDeleg = 0x40;
/// [ext] Combined with kOpenWantDeleg: ask for a *write* delegation (the
/// response sets kFlagDelegWrite when granted). A write delegation
/// additionally permits local write-back: dirty extents are flushed on
/// recall, close, sync or term expiry, stamped with the delegation id.
inline constexpr std::uint16_t kOpenWantWriteDeleg = 0x80;

/// kConnect flags (header.flags): resume an existing session after a
/// transport failure instead of minting a new one. The old session id rides
/// in header.aux.
inline constexpr std::uint16_t kConnectResume = 0x1;

/// Integrity flags (header.flags on data procedures, [ext]):
/// `payload_crc` holds the CRC-32C of the message's data payload (inline
/// data bytes, or — for direct transfers — the file bytes the RDMA moved, in
/// segment order). Set by whichever side produced the bytes; the consumer
/// verifies before trusting them.
inline constexpr std::uint16_t kFlagPayloadCrc = 0x10;
/// The client asks the server to recompute at-rest block checksums on the
/// read path ("full" integrity mode) instead of trusting the stored bytes.
inline constexpr std::uint16_t kFlagVerifyStore = 0x20;

/// Delegation flags (header.flags, [ext]).
/// On an open response: the granted delegation is a write delegation.
inline constexpr std::uint16_t kFlagDelegWrite = 0x100;
/// On any response to a request that carried a live delegation id: the
/// server wants that delegation back. The holder must flush its dirty
/// extents (writes stamped with the id), then send kDelegReturn. While the
/// recall is pending, conflicting requests from other sessions are shed
/// with kBusy + a retry-after hint; if the holder's lease term lapses first
/// the server revokes unilaterally and fences stragglers (kDelegExpired).
inline constexpr std::uint16_t kFlagDelegRecall = 0x200;

/// Lock flags (header.aux bit 0).
inline constexpr std::uint64_t kLockExclusive = 0x1;
/// Lock flags (header.aux bit 1): this acquire *reclaims* a lock the client
/// already held before a server crash. Reclaims are admitted during the
/// post-restart grace period, while fresh acquires get kBusy — so surviving
/// clients can re-establish their state before new lock traffic races them.
inline constexpr std::uint64_t kLockReclaim = 0x2;

/// Fixed message header. The message body is: `name_len` bytes of name/path
/// payload, then either `data_len` bytes of inline data or `nseg` packed
/// DirectSeg records.
struct MsgHeader {
  Proc proc = Proc::kConnect;
  PStatus status = PStatus::kOk;
  std::uint16_t flags = 0;
  std::uint32_t request_id = 0;
  std::uint64_t session_id = 0;
  std::uint64_t ino = 0;
  std::uint64_t offset = 0;   // file offset / readdir cookie
  std::uint64_t len = 0;      // request length / bytes transferred
  std::uint64_t aux = 0;      // setsize target, lock mode, counter delta, ...
  std::uint32_t name_len = 0;
  std::uint32_t data_len = 0;
  std::uint32_t nseg = 0;
  std::uint32_t seq = 0;      // session sequence number (replay detection)
  /// Absolute virtual-time deadline (ns) for this request; 0 = none. Stamped
  /// by the client from the MPI-IO / session deadline and checked by the
  /// server at admission: an already-expired request is shed with kBusy
  /// rather than serviced into a void.
  std::uint64_t deadline = 0;
  /// Stable client identity surviving reconnects *and* server restarts
  /// (unlike session_id, which a crashed server forgets). Keys the server's
  /// durable duplicate filter for counter mutations.
  std::uint64_t client_id = 0;
  /// Cumulative acknowledgement: every response with seq <= ack_seq has been
  /// received by this client. The server may evict acknowledged entries from
  /// its replay cache — the piggybacked-ack bound on replay memory.
  std::uint32_t ack_seq = 0;
  /// CRC-32C of the data payload when kFlagPayloadCrc is set (see the flag
  /// for exactly which bytes it covers); 0 otherwise.
  std::uint32_t payload_crc = 0;
  /// Request-tracing identifiers (sim/trace.hpp): the root trace this
  /// request belongs to and the client span to parent server-side spans
  /// under. Zero when tracing is off. Retransmissions resend the original
  /// buffer, so a retried request keeps these ids and the server's spans
  /// for the retry link back to the original root.
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span_id = 0;
  /// Delegation id this request rides under ([ext]; 0 = none). Stamped by
  /// the holder on every request touching a delegated file — data I/O,
  /// subfile opens, renewals, the return. The server uses it two ways: a
  /// matching live id marks the request as the holder's own (renewing the
  /// lease instead of triggering a recall against itself), and a write
  /// carrying a dead id is fenced with kDelegExpired. On an open response it
  /// carries the granted delegation id (0 = not granted).
  std::uint64_t deleg = 0;
};
static_assert(sizeof(MsgHeader) == 112, "fixed wire header layout");

/// One client-buffer segment in a direct-I/O request. Each segment carries
/// its own file offset, so a single request can describe a scatter/gather
/// ("list I/O") access — which is what the MPI-IO noncontiguous driver
/// batches into.
struct DirectSeg {
  std::uint64_t file_off = 0;
  std::uint64_t addr = 0;  // client virtual address
  std::uint64_t mem = 0;   // client memory handle
  std::uint32_t len = 0;
  std::uint32_t pad = 0;
};
static_assert(sizeof(DirectSeg) == 32);

/// ---- kStatsQuery snapshot wire format [ext] -------------------------------
/// The response payload is, in order:
///   1. one WireStatsHeader (`version` guards layout drift)
///   2. `nsessions` packed WireSessionStats records (per-client attribution)
///   3. `nkv` packed key/value records: WireStatsKv then `key_len` key bytes
///      (selected fabric counters and gauges, by dotted name)
/// The whole snapshot must fit one message buffer; when the session table or
/// kv section would overflow it, the server clips and sets `truncated`.

inline constexpr std::uint32_t kStatsVersion = 1;

struct WireStatsHeader {
  std::uint32_t version = kStatsVersion;
  std::uint32_t nsessions = 0;  // WireSessionStats records following
  std::uint32_t nkv = 0;        // WireStatsKv records after the table
  std::uint32_t truncated = 0;  // 1 = clipped to the message buffer
  std::uint32_t role = 0;       // dafs::Server::Role numeric value
  std::uint32_t pad = 0;
  std::uint64_t term = 0;       // fencing epoch / consensus term
  std::uint64_t now_ns = 0;     // server virtual clock at snapshot time
  std::uint64_t sessions_live = 0;
  std::uint64_t admission_queue_depth = 0;
  std::uint64_t admission_limit = 0;
  std::uint64_t replay_cache_bytes = 0;
  std::uint64_t requests_total = 0;     // "dafs.requests"
  std::uint64_t busy_sheds = 0;         // "dafs.busy_shed"
  std::uint64_t crash_count = 0;
  std::uint64_t scrub_passes = 0;       // completed whole-store passes
  std::uint64_t scrub_blocks = 0;       // blocks verified so far (progress)
  std::uint64_t resilver_bytes = 0;
  std::uint64_t commit_offset = 0;      // quorum majority-committed offset
};
static_assert(sizeof(WireStatsHeader) == 128);

/// Per-client accounting row, keyed by the stable client_id (survives
/// reconnects and server restarts, unlike session ids).
struct WireSessionStats {
  std::uint64_t client_id = 0;
  std::uint64_t bytes_in = 0;       // request wire bytes + RDMA-read payload
  std::uint64_t bytes_out = 0;      // response wire bytes + RDMA-written payload
  std::uint64_t ops_read = 0;       // kReadInline + kReadDirect
  std::uint64_t ops_write = 0;      // kWriteInline + kWriteDirect
  std::uint64_t ops_meta = 0;       // everything else this client sent
  std::uint64_t queue_wait_ns = 0;  // total NIC-completion -> worker pickup
  std::uint64_t service_ns = 0;     // total execution time of admitted ops
  std::uint64_t retransmits = 0;    // replay-cache hits (dup seq arrivals)
  std::uint64_t sheds = 0;          // kBusy sheds (overload or deadline)
};
static_assert(sizeof(WireSessionStats) == 80);

struct WireStatsKv {
  std::uint64_t value = 0;
  std::uint32_t key_len = 0;  // key bytes follow this record
  std::uint32_t pad = 0;
};
static_assert(sizeof(WireStatsKv) == 16);

/// Packed readdir entry: header then name bytes.
struct WireDirent {
  std::uint64_t ino = 0;
  std::uint8_t is_dir = 0;
  std::uint8_t pad[3] = {};
  std::uint32_t name_len = 0;
};

/// Helpers to build/parse messages in a flat buffer.
class MsgView {
 public:
  MsgView(std::byte* buf, std::size_t cap) : buf_(buf), cap_(cap) {}

  MsgHeader& header() { return *reinterpret_cast<MsgHeader*>(buf_); }
  const MsgHeader& header() const {
    return *reinterpret_cast<const MsgHeader*>(buf_);
  }

  std::byte* name_payload() { return buf_ + sizeof(MsgHeader); }
  const std::byte* name_payload() const { return buf_ + sizeof(MsgHeader); }
  std::byte* data_payload() {
    return buf_ + sizeof(MsgHeader) + header().name_len;
  }
  const std::byte* data_payload() const {
    return buf_ + sizeof(MsgHeader) + header().name_len;
  }

  std::string_view name() const {
    return {reinterpret_cast<const char*>(name_payload()), header().name_len};
  }

  void set_name(std::string_view s) {
    header().name_len = static_cast<std::uint32_t>(s.size());
    // An empty view may carry a null data() — UB to hand to memcpy.
    if (!s.empty()) std::memcpy(name_payload(), s.data(), s.size());
  }

  std::span<const DirectSeg> segs() const {
    return {reinterpret_cast<const DirectSeg*>(data_payload()), header().nseg};
  }
  void set_segs(std::span<const DirectSeg> segs) {
    header().nseg = static_cast<std::uint32_t>(segs.size());
    header().data_len =
        static_cast<std::uint32_t>(segs.size() * sizeof(DirectSeg));
    std::memcpy(data_payload(), segs.data(), segs.size_bytes());
  }

  std::size_t wire_size() const {
    return sizeof(MsgHeader) + header().name_len + header().data_len;
  }
  std::size_t capacity() const { return cap_; }
  std::byte* raw() { return buf_; }

  /// Bytes of inline data that fit after a name of `name_len` bytes.
  std::size_t inline_capacity(std::size_t name_len) const {
    const std::size_t used = sizeof(MsgHeader) + name_len;
    return used >= cap_ ? 0 : cap_ - used;
  }

 private:
  std::byte* buf_;
  std::size_t cap_;
};

/// Default session message-buffer size (limits inline transfer size).
inline constexpr std::size_t kMsgBufSize = 16 * 1024;

}  // namespace dafs
