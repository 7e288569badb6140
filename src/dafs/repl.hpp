#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sim/wait.hpp"
#include "via/vi.hpp"

/// \file repl.hpp
/// Wire format of the filer-to-filer replication channel: a Raft-style
/// group of N >= 3 filers. The byte offset into the shared journal is the
/// log index; kTermMark records embedded in the log carry term boundaries.
/// A candidate solicits votes with its (last_off, last_term); the leader
/// ships journal bytes with (prev_off, prev_term) matching and commits at
/// majority ack. The fencing epoch IS the consensus term, so a partitioned
/// ex-leader can never acknowledge a write the new leader does not have.
namespace dafs {

enum class ReplOp : std::uint8_t {
  kVoteReq = 1,  // candidate -> peer: term=candidate term, offset=last_off,
                 //   prev_term=last_term, member=candidate index
  kVoteResp,     // peer -> candidate: status=1 granted, term=peer term
  kAppend,       // leader -> follower: term, offset=prev_off,
                 //   prev_term=term at prev_off, commit=leader commit
                 //   offset, member=leader index, len journal bytes follow
  kAppendResp,   // follower -> leader: status=1 ok (offset=match_off) or
                 //   0 reject (term newer, or offset=conflict backoff hint)

  // ---- scrub repair ----
  kBlockFetch,  // scrubbing member -> peer: fetch a verified copy of one
                //   block. epoch=requester term, offset=file offset,
                //   len=bytes wanted (<= chunk size), commit=ino,
                //   member=requester index
  kBlockData,   // peer -> scrubber: status=1 + `len` payload bytes when the
                //   peer's copy verified clean; status=0, no payload when
                //   the peer's copy is missing or itself corrupt. The last
                //   op: parse_repl_frame refuses any value past it.
};

inline constexpr std::uint32_t kReplMagic = 0x5245504C;  // "REPL"

struct ReplHeader {
  std::uint32_t magic = kReplMagic;
  ReplOp op = ReplOp::kVoteReq;
  std::uint8_t status = 0;    // 0 = denied/rejected, 1 = granted/accepted
  std::uint16_t pad = 0;
  std::uint64_t epoch = 0;    // term
  std::uint64_t offset = 0;   // journal offset: prev/match/last
  std::uint32_t len = 0;      // payload bytes following the header
  std::uint32_t member = 0;   // sender's member index
  std::uint64_t prev_term = 0;  // term at `offset` (append/vote)
  std::uint64_t commit = 0;     // leader's commit offset
};
static_assert(sizeof(ReplHeader) == 48, "fixed replication header layout");

/// Replication message buffer size: one header plus up to this many journal
/// bytes per kAppend chunk.
inline constexpr std::size_t kReplBufSize = 256 * 1024;

/// The replication channel's one frame check, over the bytes that arrived:
/// a whole ReplHeader with kReplMagic and a ReplOp, and for kAppend and
/// kBlockData exactly the `len` payload bytes it claims. Anything else would
/// be read out of an earlier message's leftovers (or past the buffer). On
/// success `out` holds the header.
bool parse_repl_frame(std::span<const std::byte> bytes, ReplHeader& out);

/// One end of a replication connection: its registered buffers, its VI and
/// a request/response exchange. The leader's sender toward each peer, the
/// handler of each inbound peer connection and scrub repair's block fetch
/// all run through one. Registration is modeled time charged to the calling
/// actor, so each owner registers its buffers where it chooses.
class ReplLink {
 public:
  /// A checked frame. `payload`, the bytes after the header, lives in a
  /// receive buffer until the next recv(), arm() or connect().
  struct Frame {
    ReplHeader header;
    std::span<const std::byte> payload;
  };

  /// `send_wait` bounds each send; receive waits end once `stopped` holds.
  ReplLink(via::Nic& nic, via::ProtectionTag ptag,
           std::chrono::milliseconds send_wait, std::function<bool()> stopped);
  /// Drops the connection, then deregisters the buffers.
  ~ReplLink();
  ReplLink(const ReplLink&) = delete;
  ReplLink& operator=(const ReplLink&) = delete;

  void add_recv_buffers(std::size_t count, std::size_t bytes);
  void add_send_buffer(std::size_t bytes);  // header included

  /// A fresh idle VI with every receive buffer posted, so a message racing
  /// the handshake finds one. False, keeping no VI, when a post fails.
  bool arm();
  /// arm(), then connect within `timeout`; false, keeping no VI, on failure.
  bool connect(const std::string& service, std::chrono::milliseconds timeout);
  bool connected() const { return vi_ != nullptr; }
  via::Vi& vi() { return *vi_; }
  void drop();  // disconnect and destroy the VI, if any

  /// Room for `bytes` of payload after the header. The send buffer grows
  /// (registered again), so one record larger than a chunk still ships whole.
  std::span<std::byte> payload(std::size_t bytes);
  /// Send `h` and the first `payload_bytes` bytes of payload().
  bool send(const ReplHeader& h, std::size_t payload_bytes = 0);
  /// The next frame, polled in `slice`s until `deadline`, once the previous
  /// frame's buffer is posted again. `stopped` is checked before each poll
  /// and after a receive; a frame parse_repl_frame refuses counts
  /// `dafs.raft_malformed`. False on any failure: the caller drops the link.
  bool recv(Frame& out, sim::Deadline deadline,
            std::chrono::milliseconds slice);

 private:
  struct Buf {
    std::vector<std::byte> mem;
    via::MemHandle handle = via::kInvalidMemHandle;
    via::Descriptor desc;
  };
  void register_buf(Buf& b, std::size_t bytes);
  bool post(Buf& b);

  via::Nic& nic_;
  via::ProtectionTag ptag_;
  std::chrono::milliseconds send_wait_;
  std::function<bool()> stopped_;
  // Before the VI, which dies first: it flushes receives posted into them.
  std::vector<std::unique_ptr<Buf>> recv_bufs_;
  Buf send_buf_;
  Buf* held_ = nullptr;  // the buffer of the frame recv() last returned
  std::unique_ptr<via::Vi> vi_;
};

}  // namespace dafs
