#pragma once

#include <cstddef>
#include <cstdint>

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
                //   the peer's copy is missing or itself corrupt
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

}  // namespace dafs
