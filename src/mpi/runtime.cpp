#include "mpi/runtime.hpp"

#include <pthread.h>
#include <cstdio>

#include <algorithm>
#include <cassert>
#include <cstring>
#include <deque>
#include <map>
#include <thread>
#include <unordered_map>

#include "sim/wait.hpp"
#include "via/reg_cache.hpp"
#include "via/vi.hpp"

namespace mpi {

using sim::Actor;
using sim::ActorScope;
using sim::CostKind;

namespace {

using namespace std::chrono_literals;
constexpr auto kProgressWait = 100ms;
constexpr auto kConnWait = 5'000ms;

// Reserved tag space for collectives (user tags must be < kTagBase).
constexpr int kTagBase = 1 << 24;
constexpr int kTagBarrier = kTagBase + 1;
constexpr int kTagBcast = kTagBase + 2;
constexpr int kTagReduce = kTagBase + 3;
constexpr int kTagRing = kTagBase + 4;
constexpr int kTagA2A = kTagBase + 5;
constexpr int kTagCommMgmt = kTagBase + 6;

/// Bytes per RDMA descriptor; larger transfers are split.
constexpr std::uint64_t kMaxRdmaPiece = 2u << 20;

enum class MsgKind : std::uint8_t {
  kHello = 1,  // first message on an accepted VI: announces the peer rank
  kEager,      // payload rides in the message
  kRts,        // rendezvous request-to-send
  kCts,        // rendezvous clear-to-send (carries the target buffer)
  kFin,        // rendezvous data placed
  kFence,      // Win::fence notification (comm = window, seq = epoch,
               // addr = latest instant the sender's ops touched the target)
};

struct WireHdr {
  MsgKind kind = MsgKind::kEager;
  std::uint8_t pad = 0;
  std::uint16_t flags = 0;
  std::int32_t src = -1;
  std::int32_t tag = -1;
  std::int32_t comm = -1;
  std::uint32_t seq = 0;
  std::uint64_t len = 0;
  std::uint64_t addr = 0;
  std::uint64_t mem = 0;
};
static_assert(sizeof(WireHdr) == 48);

}  // namespace

// ---------------------------------------------------------------------------
// Endpoint: one rank's communication state
// ---------------------------------------------------------------------------

class Endpoint {
 public:
  Endpoint(World& world, const WorldConfig& cfg, sim::Fabric& fabric, int rank,
           sim::NodeId node)
      : world_(world),
        cfg_(cfg),
        fabric_(fabric),
        rank_(rank),
        nic_(fabric, node, cfg.name + "-nic" + std::to_string(rank)),
        ptag_(nic_.create_ptag()),
        listener_(nic_, cfg.name + ":" + std::to_string(rank)),
        reg_cache_(nic_, ptag_, cfg.reg_cache_entries, /*enabled=*/true),
        peers_(static_cast<std::size_t>(cfg.nprocs)) {}

  ~Endpoint() {
    for (auto& p : peers_) {
      if (p && p->vi) p->vi->disconnect();
    }
    for (auto& p : anonymous_) {
      if (p && p->vi) p->vi->disconnect();
    }
  }

  /// An in-flight receive. Stack-allocated by callers.
  struct RecvOp {
    // matching key
    int src = kAnySource;
    int tag = kAnyTag;
    int comm = 0;
    // destination
    std::byte* base = nullptr;
    std::uint64_t count = 0;
    Datatype type;
    // state
    bool done = false;
    RecvStatus status;
    bool awaiting_fin = false;
    std::uint32_t fin_seq = 0;
    int fin_src = -1;
    bool staged = false;
    std::vector<std::byte> staging;
    via::MemHandle staging_handle = via::kInvalidMemHandle;
  };

  void bootstrap();

  void send(const void* buf, std::uint64_t count, const Datatype& type,
            int dst_global, int tag, int comm);
  void start_recv(RecvOp& op, void* buf, std::uint64_t count,
                  const Datatype& type, int src_global, int tag, int comm);
  void finish_recv(RecvOp& op);

  int rank() const { return rank_; }
  via::Nic& nic() { return nic_; }

 private:
  friend class Win;

  struct MsgBuf {
    std::vector<std::byte> mem;
    via::MemHandle handle = via::kInvalidMemHandle;
    via::Descriptor desc;
  };

  struct Peer {
    std::unique_ptr<via::Vi> vi;
    std::vector<std::unique_ptr<MsgBuf>> recv_bufs;
    std::vector<std::unique_ptr<MsgBuf>> send_bufs;
    std::size_t next_send = 0;
  };

  struct Unexpected {
    WireHdr hdr;
    std::vector<std::byte> data;
  };

  std::size_t buf_size() const {
    return sizeof(WireHdr) + cfg_.eager_threshold;
  }

  std::unique_ptr<Peer> make_armed_peer();
  Peer& peer_for(int global_rank);

  /// Transmit header + payload built by `fill` (may be null for header-only)
  /// on peer `p`'s VI.
  void post_msg(Peer& p, const WireHdr& hdr,
                const std::function<void(std::byte*)>& fill,
                std::uint64_t payload_len);

  /// RDMA-write the gather list `runs` (offsets from `base`, all inside the
  /// registration `local`) to the peer's contiguous (addr, mem), one
  /// descriptor per kMaxRdmaPiece bytes.
  void rdma_write(Peer& p, const std::byte* base,
                  std::span<const Segment> runs, via::MemHandle local,
                  std::uint64_t addr, std::uint64_t mem);

  /// Process one inbound completion. Returns false on (host-time) timeout.
  bool progress(bool block);
  void handle_eager(const WireHdr& hdr, std::span<const std::byte> payload);
  void handle_rts(const WireHdr& hdr);
  void handle_fin(const WireHdr& hdr);
  void begin_rndv_recv(RecvOp& op, const WireHdr& rts);
  static bool matches(const RecvOp& op, const WireHdr& hdr) {
    return op.comm == hdr.comm && (op.src == kAnySource || op.src == hdr.src) &&
           (op.tag == kAnyTag || op.tag == hdr.tag);
  }
  void complete_eager(RecvOp& op, const WireHdr& hdr,
                      std::span<const std::byte> payload);
  void erase_posted(RecvOp* op) {
    posted_.erase(std::remove(posted_.begin(), posted_.end(), op),
                  posted_.end());
  }

  World& world_;
  const WorldConfig& cfg_;
  sim::Fabric& fabric_;
  int rank_;
  via::Nic nic_;
  via::ProtectionTag ptag_;
  via::Listener listener_;
  via::CompletionQueue recv_cq_;
  via::RegCache reg_cache_;

  std::vector<std::unique_ptr<Peer>> peers_;
  std::vector<std::unique_ptr<Peer>> anonymous_;  // accepted, no hello yet
  int mapped_ = 0;
  std::unordered_map<via::Descriptor*, MsgBuf*> recv_index_;

  std::vector<RecvOp*> posted_;
  std::deque<Unexpected> unexpected_;
  std::deque<WireHdr> pending_rts_;
  std::unordered_map<std::uint32_t, WireHdr> cts_;
  /// Win::fence notifications received, by (window, epoch): how many peers
  /// have entered the fence and the latest instant they touched this rank.
  struct FenceAcc {
    int count = 0;
    sim::Time touched = 0;
  };
  std::map<std::pair<int, std::uint32_t>, FenceAcc> fences_;
  std::uint32_t next_seq_ = 1;
  int stall_count_ = 0;
};

std::unique_ptr<Endpoint::Peer> Endpoint::make_armed_peer() {
  auto p = std::make_unique<Peer>();
  via::ViAttrs attrs;
  attrs.ptag = ptag_;  // rendezvous RDMA lands in ptag_-tagged registrations
  p->vi = std::make_unique<via::Vi>(nic_, attrs, nullptr, &recv_cq_);
  for (std::size_t i = 0; i < cfg_.credits; ++i) {
    auto b = std::make_unique<MsgBuf>();
    b->mem.resize(buf_size());
    b->handle = nic_.register_memory(b->mem.data(), b->mem.size(), ptag_, {});
    b->desc.segs = {via::DataSegment{
        b->mem.data(), b->handle, static_cast<std::uint32_t>(b->mem.size())}};
    const via::Status st = p->vi->post_recv(b->desc);
    assert(st == via::Status::kSuccess && "pre-arm post_recv on idle VI");
    (void)st;
    recv_index_[&b->desc] = b.get();
    p->recv_bufs.push_back(std::move(b));
  }
  for (std::size_t i = 0; i < cfg_.credits; ++i) {
    auto b = std::make_unique<MsgBuf>();
    b->mem.resize(buf_size());
    b->handle = nic_.register_memory(b->mem.data(), b->mem.size(), ptag_, {});
    p->send_bufs.push_back(std::move(b));
  }
  return p;
}

void Endpoint::bootstrap() {
  // Connect to every lower rank (they are already listening: rank r only
  // reaches its accept phase after connecting to all ranks below it, and
  // rank 0 listens immediately).
  for (int j = 0; j < rank_; ++j) {
    auto peer = make_armed_peer();
    via::Status st = via::Status::kNoMatchingListener;
    for (int attempt = 0; attempt < 500; ++attempt) {
      st = nic_.connect(*peer->vi, cfg_.name + ":" + std::to_string(j),
                        kConnWait);
      if (st != via::Status::kNoMatchingListener) break;
      sim::sleep(sim::Deadline::host(5ms));
    }
    assert(st == via::Status::kSuccess && "mpi bootstrap connect failed");
    WireHdr hello;
    hello.kind = MsgKind::kHello;
    hello.src = rank_;
    post_msg(*peer, hello, nullptr, 0);
    peers_[static_cast<std::size_t>(j)] = std::move(peer);
    ++mapped_;
  }
  // Accept one connection from every higher rank.
  const int expect = cfg_.nprocs - 1 - rank_;
  for (int k = 0; k < expect; ++k) {
    auto peer = make_armed_peer();
    via::Status st;
    do {
      st = listener_.accept(*peer->vi, kConnWait);
    } while (st == via::Status::kTimeout);
    assert(st == via::Status::kSuccess && "mpi bootstrap accept failed");
    anonymous_.push_back(std::move(peer));
  }
  // Drain hellos until every peer is identified.
  while (mapped_ < cfg_.nprocs - 1) progress(true);
}

Endpoint::Peer& Endpoint::peer_for(int global_rank) {
  assert(global_rank != rank_ && "self-sends are handled by the caller");
  auto& p = peers_[static_cast<std::size_t>(global_rank)];
  while (!p) progress(true);  // hello not yet processed
  return *p;
}

void Endpoint::post_msg(Peer& p, const WireHdr& hdr,
                        const std::function<void(std::byte*)>& fill,
                        std::uint64_t payload_len) {
  // Reclaim completed sends so the ring can be reused.
  via::Descriptor* done = nullptr;
  while (p.vi->send_done(done) == via::Status::kSuccess) {
  }
  MsgBuf& b = *p.send_bufs[p.next_send % p.send_bufs.size()];
  ++p.next_send;
  assert(sizeof(WireHdr) + payload_len <= b.mem.size());
  std::memcpy(b.mem.data(), &hdr, sizeof(hdr));
  if (fill) fill(b.mem.data() + sizeof(WireHdr));
  b.desc = via::Descriptor{};
  b.desc.op = via::Opcode::kSend;
  b.desc.segs = {via::DataSegment{
      b.mem.data(), b.handle,
      static_cast<std::uint32_t>(sizeof(WireHdr) + payload_len)}};
  const via::Status st = p.vi->post_send(b.desc);
  assert(st == via::Status::kSuccess);
  (void)st;
}

void Endpoint::rdma_write(Peer& p, const std::byte* base,
                          std::span<const Segment> runs, via::MemHandle local,
                          std::uint64_t addr, std::uint64_t mem) {
  via::Descriptor d;
  std::uint64_t placed = 0;  // bytes already at the peer
  std::uint64_t queued = 0;  // bytes gathered into d
  auto post = [&] {
    d.op = via::Opcode::kRdmaWrite;
    d.remote = {addr + placed, mem};
    const via::Status st = p.vi->post_send(d);
    assert(st == via::Status::kSuccess);
    (void)st;
    via::Descriptor* done = nullptr;
    while (p.vi->send_done(done) == via::Status::kSuccess) {
    }
    placed += queued;
    queued = 0;
    d = via::Descriptor{};
  };
  for (const Segment& s : runs) {
    for (std::uint64_t off = 0; off < s.len;) {
      const std::uint64_t n = std::min(s.len - off, kMaxRdmaPiece - queued);
      d.segs.push_back(via::DataSegment{
          const_cast<std::byte*>(base + s.offset) + off, local,
          static_cast<std::uint32_t>(n)});
      queued += n;
      off += n;
      if (queued == kMaxRdmaPiece) post();
    }
  }
  if (queued > 0) post();
}

// ---------------------------------------------------------------------------
// Send
// ---------------------------------------------------------------------------

void Endpoint::send(const void* buf, std::uint64_t count, const Datatype& type,
                    int dst_global, int tag, int comm) {
  Actor* actor = Actor::current();
  const std::uint64_t bytes = count * type.size();
  const auto* base = static_cast<const std::byte*>(buf);

  if (dst_global == rank_) {
    // Self-send: stash as an unexpected eager message.
    Unexpected u;
    u.hdr.kind = MsgKind::kEager;
    u.hdr.src = rank_;
    u.hdr.tag = tag;
    u.hdr.comm = comm;
    u.hdr.len = bytes;
    type.pack(base, count, u.data);
    if (bytes > 0) actor->charge(CostKind::kCopy, nic_.cost().copy_time(bytes));
    unexpected_.push_back(std::move(u));
    return;
  }

  Peer& p = peer_for(dst_global);
  if (bytes <= cfg_.eager_threshold) {
    WireHdr hdr;
    hdr.kind = MsgKind::kEager;
    hdr.src = rank_;
    hdr.tag = tag;
    hdr.comm = comm;
    hdr.len = bytes;
    post_msg(
        p, hdr,
        bytes == 0 ? std::function<void(std::byte*)>{}
                   : std::function<void(std::byte*)>([&](std::byte* dst) {
                       // Eager copy into the bounce buffer (the cost eager
                       // pays; rendezvous avoids it).
                       if (type.is_contiguous()) {
                         std::memcpy(dst, base, bytes);
                       } else {
                         for (const auto& s : type.flatten_n(count)) {
                           std::memcpy(dst, base + s.offset, s.len);
                           dst += s.len;
                         }
                       }
                     }),
        bytes);
    if (bytes > 0) {
      actor->charge(CostKind::kCopy, nic_.cost().copy_time(bytes));
    }
    fabric_.stats().add("mpi.eager_msgs");
    fabric_.stats().add("mpi.eager_bytes", bytes);
    return;
  }

  // Rendezvous.
  const std::uint32_t seq = next_seq_++;
  WireHdr rts;
  rts.kind = MsgKind::kRts;
  rts.src = rank_;
  rts.tag = tag;
  rts.comm = comm;
  rts.len = bytes;
  rts.seq = seq;
  post_msg(p, rts, nullptr, 0);
  while (cts_.find(seq) == cts_.end()) progress(true);
  const WireHdr cts = cts_[seq];
  cts_.erase(seq);

  // Zero-copy for any layout: the RDMA write gathers the datatype's runs
  // straight out of user memory, under one cached registration of the
  // extent they span.
  const std::vector<Segment> runs = type.flatten_n(count);
  std::int64_t lo = runs.front().offset;
  std::int64_t hi = lo;
  for (const Segment& s : runs) {
    lo = std::min(lo, s.offset);
    hi = std::max(hi, s.offset + static_cast<std::int64_t>(s.len));
  }
  const via::MemHandle h =
      reg_cache_.get(base + lo, static_cast<std::size_t>(hi - lo));
  rdma_write(p, base, runs, h, cts.addr, cts.mem);
  WireHdr fin;
  fin.kind = MsgKind::kFin;
  fin.src = rank_;
  fin.tag = tag;
  fin.comm = comm;
  fin.seq = seq;
  fin.len = bytes;
  post_msg(p, fin, nullptr, 0);
  fabric_.stats().add("mpi.rndv_msgs");
  fabric_.stats().add("mpi.rndv_bytes", bytes);
}

// ---------------------------------------------------------------------------
// Receive
// ---------------------------------------------------------------------------

void Endpoint::complete_eager(RecvOp& op, const WireHdr& hdr,
                              std::span<const std::byte> payload) {
  const std::uint64_t took = op.type.unpack(payload, op.base, op.count);
  if (took > 0) {
    Actor::current()->charge(CostKind::kCopy, nic_.cost().copy_time(took));
  }
  op.status = RecvStatus{hdr.src, hdr.tag, took};
  op.done = true;
}

void Endpoint::begin_rndv_recv(RecvOp& op, const WireHdr& rts) {
  const std::uint64_t capacity = op.count * op.type.size();
  const std::uint64_t len = std::min(rts.len, capacity);
  std::uint64_t addr = 0;
  via::MemHandle mem = via::kInvalidMemHandle;
  if (op.type.is_contiguous() && len == rts.len) {
    mem = reg_cache_.get(op.base, len);
    addr = reinterpret_cast<std::uint64_t>(op.base);
  } else {
    op.staging.resize(rts.len);
    op.staging_handle = nic_.register_memory(op.staging.data(),
                                             op.staging.size(), ptag_, {});
    op.staged = true;
    addr = reinterpret_cast<std::uint64_t>(op.staging.data());
    mem = op.staging_handle;
  }
  WireHdr cts;
  cts.kind = MsgKind::kCts;
  cts.src = rank_;
  cts.tag = rts.tag;
  cts.comm = rts.comm;
  cts.seq = rts.seq;
  cts.addr = addr;
  cts.mem = mem;
  post_msg(peer_for(rts.src), cts, nullptr, 0);
  op.awaiting_fin = true;
  op.fin_seq = rts.seq;
  op.fin_src = rts.src;
  op.status = RecvStatus{rts.src, rts.tag, rts.len};
}

void Endpoint::start_recv(RecvOp& op, void* buf, std::uint64_t count,
                          const Datatype& type, int src_global, int tag,
                          int comm) {
  op.src = src_global;
  op.tag = tag;
  op.comm = comm;
  op.base = static_cast<std::byte*>(buf);
  op.count = count;
  op.type = type;
  op.done = false;
  op.awaiting_fin = false;
  op.staged = false;

  // Unexpected eager messages first (MPI ordering: match arrival order).
  for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
    if (matches(op, it->hdr)) {
      complete_eager(op, it->hdr, it->data);
      unexpected_.erase(it);
      return;
    }
  }
  // Pending rendezvous requests.
  for (auto it = pending_rts_.begin(); it != pending_rts_.end(); ++it) {
    if (matches(op, *it)) {
      const WireHdr rts = *it;
      pending_rts_.erase(it);
      begin_rndv_recv(op, rts);
      posted_.push_back(&op);
      return;
    }
  }
  posted_.push_back(&op);
}

void Endpoint::finish_recv(RecvOp& op) {
  while (!op.done) progress(true);
}

// ---------------------------------------------------------------------------
// Progress engine
// ---------------------------------------------------------------------------

void Endpoint::handle_eager(const WireHdr& hdr,
                            std::span<const std::byte> payload) {
  for (RecvOp* op : posted_) {
    if (!op->awaiting_fin && matches(*op, hdr)) {
      complete_eager(*op, hdr, payload);
      erase_posted(op);
      return;
    }
  }
  Unexpected u;
  u.hdr = hdr;
  u.data.assign(payload.begin(), payload.end());
  if (!payload.empty()) {
    Actor::current()->charge(CostKind::kCopy,
                             nic_.cost().copy_time(payload.size()));
  }
  unexpected_.push_back(std::move(u));
  fabric_.stats().add("mpi.unexpected_msgs");
}

void Endpoint::handle_rts(const WireHdr& hdr) {
  for (RecvOp* op : posted_) {
    if (!op->awaiting_fin && matches(*op, hdr)) {
      begin_rndv_recv(*op, hdr);
      return;
    }
  }
  pending_rts_.push_back(hdr);
}

void Endpoint::handle_fin(const WireHdr& hdr) {
  for (RecvOp* op : posted_) {
    if (op->awaiting_fin && op->fin_seq == hdr.seq &&
        op->fin_src == hdr.src) {
      if (op->staged) {
        const std::uint64_t took =
            op->type.unpack(op->staging, op->base, op->count);
        Actor::current()->charge(CostKind::kCopy, nic_.cost().copy_time(took));
        if (nic_.deregister_memory(op->staging_handle) !=
            via::Status::kSuccess) {
          fabric_.stats().add("via.dereg_failures");
        }
        op->staging.clear();
        op->status.bytes = took;
      }
      op->done = true;
      erase_posted(op);
      return;
    }
  }
  assert(false && "FIN without matching rendezvous receive");
}

bool Endpoint::progress(bool block) {
  via::Completion c;
  const via::Status st =
      block ? recv_cq_.wait(c, kProgressWait) : recv_cq_.poll(c);
  if (st != via::Status::kSuccess) {
    // Diagnostic: dump matcher state if we have been stalled a long time.
    if (block && ++stall_count_ == 80) {
      std::fprintf(stderr,
                   "[mpi stall] rank=%d posted=%zu unexpected=%zu rts=%zu "
                   "cts=%zu fences=%zu mapped=%d\n",
                   rank_, posted_.size(), unexpected_.size(),
                   pending_rts_.size(), cts_.size(), fences_.size(), mapped_);
      for (const RecvOp* op : posted_) {
        std::fprintf(stderr,
                     "[mpi stall]   rank=%d posted src=%d tag=%d comm=%d "
                     "awaiting_fin=%d\n",
                     rank_, op->src, op->tag, op->comm, op->awaiting_fin);
      }
      for (const Unexpected& u : unexpected_) {
        std::fprintf(stderr,
                     "[mpi stall]   rank=%d unexpected kind=%d src=%d tag=%d "
                     "comm=%d len=%llu\n",
                     rank_, static_cast<int>(u.hdr.kind), u.hdr.src, u.hdr.tag,
                     u.hdr.comm,
                     static_cast<unsigned long long>(u.hdr.len));
      }
    }
    return false;
  }
  stall_count_ = 0;
  if (c.desc->status != via::DescStatus::kSuccess) return true;  // flushed

  MsgBuf* mb = recv_index_.at(c.desc);
  WireHdr hdr;
  std::memcpy(&hdr, mb->mem.data(), sizeof(hdr));
  const std::span<const std::byte> payload(mb->mem.data() + sizeof(WireHdr),
                                           hdr.kind == MsgKind::kEager
                                               ? hdr.len
                                               : 0);
  switch (hdr.kind) {
    case MsgKind::kHello: {
      for (auto it = anonymous_.begin(); it != anonymous_.end(); ++it) {
        if ((*it)->vi.get() == c.vi) {
          peers_[static_cast<std::size_t>(hdr.src)] = std::move(*it);
          anonymous_.erase(it);
          ++mapped_;
          break;
        }
      }
      break;
    }
    case MsgKind::kEager:
      handle_eager(hdr, payload);
      break;
    case MsgKind::kRts:
      handle_rts(hdr);
      break;
    case MsgKind::kCts:
      cts_[hdr.seq] = hdr;
      break;
    case MsgKind::kFin:
      handle_fin(hdr);
      break;
    case MsgKind::kFence: {
      FenceAcc& f = fences_[{hdr.comm, hdr.seq}];
      ++f.count;
      f.touched = std::max<sim::Time>(f.touched, hdr.addr);
      break;
    }
  }
  // Return the buffer to its VI's receive pool. A repost can fail if the
  // connection died under us; the buffer then just sits out the rest of the
  // run (teardown still frees it).
  mb->desc.segs = {via::DataSegment{
      mb->mem.data(), mb->handle, static_cast<std::uint32_t>(mb->mem.size())}};
  if (c.vi->post_recv(mb->desc) != via::Status::kSuccess) {
    fabric_.stats().add("mpi.repost_failures");
  }
  return true;
}

// ---------------------------------------------------------------------------
// Comm
// ---------------------------------------------------------------------------

sim::Actor& Comm::actor() const { return *sim::Actor::current(); }

void Comm::charge_copy(std::uint64_t bytes) const {
  if (bytes > 0) {
    actor().charge(CostKind::kCopy, world_->fabric().cost().copy_time(bytes));
  }
}

namespace {
// Each communicator owns two matching contexts, exactly as the MPI standard
// requires: user point-to-point traffic and internal collective traffic must
// never match each other, even through MPI_ANY_SOURCE / MPI_ANY_TAG.
constexpr int p2p_ctx(int comm_id) { return comm_id * 2; }
constexpr int coll_ctx(int comm_id) { return comm_id * 2 + 1; }
}  // namespace

void Comm::send_ctx(const void* buf, std::uint64_t count, const Datatype& type,
                    int dst, int tag, int ctx) const {
  ep_->send(buf, count, type, global_rank(dst), tag, ctx);
}

RecvStatus Comm::recv_ctx(void* buf, std::uint64_t count, const Datatype& type,
                          int src, int tag, int ctx) const {
  Endpoint::RecvOp op;
  const int src_global = src == kAnySource ? kAnySource : global_rank(src);
  ep_->start_recv(op, buf, count, type, src_global, tag, ctx);
  ep_->finish_recv(op);
  // Translate the source back into this communicator's numbering.
  RecvStatus st = op.status;
  if (st.source >= 0) {
    auto it = std::find(group_.begin(), group_.end(), st.source);
    if (it != group_.end()) {
      st.source = static_cast<int>(it - group_.begin());
    }
  }
  return st;
}

RecvStatus Comm::sendrecv_ctx(const void* sbuf, std::uint64_t scount,
                              const Datatype& stype, int dst, int stag,
                              void* rbuf, std::uint64_t rcount,
                              const Datatype& rtype, int src, int rtag,
                              int ctx) const {
  Endpoint::RecvOp op;
  const int src_global = src == kAnySource ? kAnySource : global_rank(src);
  ep_->start_recv(op, rbuf, rcount, rtype, src_global, rtag, ctx);
  ep_->send(sbuf, scount, stype, global_rank(dst), stag, ctx);
  ep_->finish_recv(op);
  RecvStatus st = op.status;
  if (st.source >= 0) {
    auto it = std::find(group_.begin(), group_.end(), st.source);
    if (it != group_.end()) st.source = static_cast<int>(it - group_.begin());
  }
  return st;
}

void Comm::send(const void* buf, std::uint64_t count, const Datatype& type,
                int dst, int tag) const {
  send_ctx(buf, count, type, dst, tag, p2p_ctx(comm_id_));
}

RecvStatus Comm::recv(void* buf, std::uint64_t count, const Datatype& type,
                      int src, int tag) const {
  return recv_ctx(buf, count, type, src, tag, p2p_ctx(comm_id_));
}

RecvStatus Comm::sendrecv(const void* sbuf, std::uint64_t scount,
                          const Datatype& stype, int dst, int stag, void* rbuf,
                          std::uint64_t rcount, const Datatype& rtype, int src,
                          int rtag) const {
  return sendrecv_ctx(sbuf, scount, stype, dst, stag, rbuf, rcount, rtype,
                      src, rtag, p2p_ctx(comm_id_));
}

void Comm::barrier() const {
  // Dissemination barrier: log2(n) rounds of zero-byte exchanges.
  const int n = size();
  if (n == 1) return;
  for (int k = 1; k < n; k <<= 1) {
    const int to = (rank() + k) % n;
    const int from = (rank() - k + n) % n;
    sendrecv_ctx(nullptr, 0, Datatype::byte(), to, kTagBarrier, nullptr, 0,
                 Datatype::byte(), from, kTagBarrier, coll_ctx(comm_id_));
  }
}

void Comm::bcast(void* buf, std::uint64_t count, const Datatype& type,
                 int root) const {
  const int n = size();
  if (n == 1) return;
  const int rel = (rank() - root + n) % n;
  int mask = 1;
  while (mask < n) {
    if (rel & mask) {
      const int src = (rel - mask + root) % n;
      recv_ctx(buf, count, type, src, kTagBcast, coll_ctx(comm_id_));
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (rel + mask < n) {
      const int dst = (rel + mask + root) % n;
      send_ctx(buf, count, type, dst, kTagBcast, coll_ctx(comm_id_));
    }
    mask >>= 1;
  }
}

void Comm::reduce_bytes(
    void* inout, std::uint64_t bytes,
    const std::function<void(void*, const void*)>& combine, int root) const {
  const int n = size();
  if (n == 1) return;
  const int rel = (rank() - root + n) % n;
  std::vector<std::byte> tmp(bytes);
  int mask = 1;
  while (mask < n) {
    if (rel & mask) {
      const int dst = (rel - mask + root) % n;
      send_ctx(inout, bytes, Datatype::byte(), dst, kTagReduce,
               coll_ctx(comm_id_));
      return;
    }
    const int src_rel = rel + mask;
    if (src_rel < n) {
      const int src = (src_rel + root) % n;
      recv_ctx(tmp.data(), bytes, Datatype::byte(), src, kTagReduce,
               coll_ctx(comm_id_));
      combine(inout, tmp.data());
    }
    mask <<= 1;
  }
}

void Comm::allgather(const void* sbuf, std::uint64_t bytes, void* rbuf) const {
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(size()), bytes);
  std::vector<std::uint64_t> displs(static_cast<std::size_t>(size()));
  for (std::size_t i = 0; i < displs.size(); ++i) displs[i] = i * bytes;
  allgatherv(sbuf, bytes, rbuf, counts, displs);
}

void Comm::allgatherv(const void* sbuf, std::uint64_t sbytes, void* rbuf,
                      std::span<const std::uint64_t> counts,
                      std::span<const std::uint64_t> displs) const {
  const int n = size();
  auto* out = static_cast<std::byte*>(rbuf);
  std::memcpy(out + displs[static_cast<std::size_t>(rank())], sbuf, sbytes);
  charge_copy(sbytes);
  if (n == 1) return;
  // Ring: at step s, pass along the block originally from (rank - s + 1).
  const int right = (rank() + 1) % n;
  const int left = (rank() - 1 + n) % n;
  int have = rank();  // newest block we hold
  for (int s = 1; s < n; ++s) {
    const int incoming = (rank() - s + n) % n;
    sendrecv_ctx(out + displs[static_cast<std::size_t>(have)],
                 counts[static_cast<std::size_t>(have)], Datatype::byte(),
                 right, kTagRing,
                 out + displs[static_cast<std::size_t>(incoming)],
                 counts[static_cast<std::size_t>(incoming)], Datatype::byte(),
                 left, kTagRing, coll_ctx(comm_id_));
    have = incoming;
  }
}

void Comm::alltoallv(const void* sbuf, std::span<const std::uint64_t> scounts,
                     std::span<const std::uint64_t> sdispls, void* rbuf,
                     std::span<const std::uint64_t> rcounts,
                     std::span<const std::uint64_t> rdispls) const {
  const int n = size();
  const auto* in = static_cast<const std::byte*>(sbuf);
  auto* out = static_cast<std::byte*>(rbuf);
  const auto me = static_cast<std::size_t>(rank());
  if (scounts[me] > 0) {
    // sbuf/rbuf may legally be null when every local count is zero.
    std::memcpy(out + rdispls[me], in + sdispls[me], scounts[me]);
    charge_copy(scounts[me]);
  }
  for (int s = 1; s < n; ++s) {
    const auto to = static_cast<std::size_t>((rank() + s) % n);
    const auto from = static_cast<std::size_t>((rank() - s + n) % n);
    sendrecv_ctx(in + sdispls[to], scounts[to], Datatype::byte(),
                 static_cast<int>(to), kTagA2A, out + rdispls[from],
                 rcounts[from], Datatype::byte(), static_cast<int>(from),
                 kTagA2A, coll_ctx(comm_id_));
  }
}

Comm Comm::dup() const {
  int id = 0;
  if (rank() == 0) id = world_->next_comm_id_.fetch_add(1);
  bcast(&id, sizeof(id), Datatype::byte(), 0);
  return Comm(world_, ep_, id, group_, my_index_);
}

Comm Comm::split(int color, int key) const {
  int id = 0;
  if (rank() == 0) id = world_->next_comm_id_.fetch_add(1);
  bcast(&id, sizeof(id), Datatype::byte(), 0);

  struct Trip {
    int color, key, grank;
  };
  std::vector<Trip> all(static_cast<std::size_t>(size()));
  const Trip mine{color, key, group_[static_cast<std::size_t>(my_index_)]};
  allgather(&mine, sizeof(Trip), all.data());

  std::vector<Trip> members;
  for (const Trip& t : all) {
    if (t.color == color) members.push_back(t);
  }
  std::sort(members.begin(), members.end(), [](const Trip& a, const Trip& b) {
    return std::tie(a.key, a.grank) < std::tie(b.key, b.grank);
  });
  std::vector<int> group;
  int idx = -1;
  for (std::size_t i = 0; i < members.size(); ++i) {
    group.push_back(members[i].grank);
    if (members[i].grank == mine.grank) idx = static_cast<int>(i);
  }
  return Comm(world_, ep_, id, std::move(group), idx);
}

// ---------------------------------------------------------------------------
// Win
// ---------------------------------------------------------------------------

Win::Win(const Comm& comm, void* base, std::uint64_t bytes)
    : comm_(comm),
      base_(static_cast<std::byte*>(base)),
      bytes_(bytes),
      touched_(static_cast<std::size_t>(comm.size()), 0) {
  Endpoint& ep = *comm_.ep_;
  if (bytes_ > 0) {
    via::MemAttrs attrs;
    attrs.enable_rdma_write = true;
    attrs.enable_rdma_read = true;
    handle_ = ep.nic_.register_memory(base_, bytes_, ep.ptag_, attrs);
  }
  // One allgather publishes every rank's region; rank 0 also draws the
  // window id that keys fence notifications.
  struct Entry {
    std::uint64_t addr, handle, bytes;
    std::int64_t id;
  };
  const Entry mine{reinterpret_cast<std::uint64_t>(base_), handle_, bytes_,
                   comm_.rank() == 0 ? comm_.world_->next_comm_id_.fetch_add(1)
                                     : 0};
  std::vector<Entry> all(static_cast<std::size_t>(comm_.size()));
  comm_.allgather(&mine, sizeof(Entry), all.data());
  id_ = static_cast<int>(all[0].id);
  for (const Entry& e : all) targets_.push_back({e.addr, e.handle, e.bytes});
}

Win::~Win() {
  Endpoint& ep = *comm_.ep_;
  if (handle_ != via::kInvalidMemHandle &&
      ep.nic_.deregister_memory(handle_) != via::Status::kSuccess) {
    ep.fabric_.stats().add("via.dereg_failures");
  }
}

void Win::transfer(bool put, std::span<const RmaOp> ops) {
  Endpoint& ep = *comm_.ep_;
  const int me = comm_.rank();
  // The local side needs one registration covering every op's memory (a
  // registration-cache hit once warm) and one descriptor per piece.
  const std::byte* lo = nullptr;
  const std::byte* hi = nullptr;
  std::size_t pieces = 0;
  for (const RmaOp& op : ops) {
    if (op.len == 0 || op.target == me) continue;
    lo = lo == nullptr ? op.local : std::min<const std::byte*>(lo, op.local);
    hi = std::max<const std::byte*>(hi, op.local + op.len);
    pieces += (op.len + kMaxRdmaPiece - 1) / kMaxRdmaPiece;
  }
  const via::MemHandle local =
      pieces > 0 ? ep.reg_cache_.get(lo, static_cast<std::size_t>(hi - lo))
                 : via::kInvalidMemHandle;

  // Post everything, then reap: the VI pipelines the descriptors on the
  // wire, and the reaps sync this rank's clock to the last completion.
  std::vector<via::Descriptor> descs;
  descs.reserve(pieces);  // posted descriptors must not move
  std::vector<int> target_of;
  std::vector<via::Vi*> vis;
  std::uint64_t bytes = 0;
  for (const RmaOp& op : ops) {
    if (op.len == 0) continue;
    const Target& t = targets_[static_cast<std::size_t>(op.target)];
    assert(op.disp + op.len <= t.bytes && "RMA op outside the target window");
    if (op.target == me) {
      if (put) {
        std::memcpy(base_ + op.disp, op.local, op.len);
      } else {
        std::memcpy(op.local, base_ + op.disp, op.len);
      }
      comm_.charge_copy(op.len);
      continue;
    }
    Endpoint::Peer& p = ep.peer_for(comm_.global_rank(op.target));
    if (std::find(vis.begin(), vis.end(), p.vi.get()) == vis.end()) {
      vis.push_back(p.vi.get());
    }
    for (std::uint64_t off = 0; off < op.len; off += kMaxRdmaPiece) {
      via::Descriptor& d = descs.emplace_back();
      d.op = put ? via::Opcode::kRdmaWrite : via::Opcode::kRdmaRead;
      d.segs = {via::DataSegment{
          op.local + off, local,
          static_cast<std::uint32_t>(std::min(op.len - off, kMaxRdmaPiece))}};
      d.remote = {t.addr + op.disp + off, t.handle};
      const via::Status st = p.vi->post_send(d);
      assert(st == via::Status::kSuccess);
      (void)st;
      target_of.push_back(op.target);
    }
    bytes += op.len;
  }
  via::Descriptor* done = nullptr;
  for (via::Vi* vi : vis) {
    while (vi->send_done(done) == via::Status::kSuccess) {
    }
  }
  // What the next fence must tell each target: when its window was last
  // touched. A get is done with the target's memory by its own completion;
  // a write on a reliable-delivery VI completes once on the wire and lands
  // one propagation delay later.
  const sim::Time lag = ep.nic_.cost().propagation;
  for (std::size_t i = 0; i < descs.size(); ++i) {
    sim::Time& t = touched_[static_cast<std::size_t>(target_of[i])];
    t = std::max(t, descs[i].done_at + (put ? lag : 0));
  }
  sim::Stats& stats = ep.fabric_.stats();
  stats.add(put ? "mpi.rma_puts" : "mpi.rma_gets", descs.size());
  stats.add(put ? "mpi.rma_put_bytes" : "mpi.rma_get_bytes", bytes);
}

void Win::fence() {
  Endpoint& ep = *comm_.ep_;
  const int n = comm_.size();
  for (int r = 0; r < n; ++r) {
    if (r == comm_.rank()) continue;
    WireHdr hdr;
    hdr.kind = MsgKind::kFence;
    hdr.src = ep.rank_;
    hdr.comm = id_;
    hdr.seq = epoch_;
    hdr.addr = touched_[static_cast<std::size_t>(r)];
    ep.post_msg(ep.peer_for(comm_.global_rank(r)), hdr, nullptr, 0);
  }
  const std::pair<int, std::uint32_t> key{id_, epoch_};
  while (ep.fences_[key].count < n - 1) ep.progress(true);
  Actor::current()->sync_to(ep.fences_[key].touched);
  ep.fences_.erase(key);
  std::fill(touched_.begin(), touched_.end(), 0);
  ++epoch_;
  ep.fabric_.stats().add("mpi.rma_fences");
  ep.fabric_.stats().add("mpi.rma_sync_msgs", static_cast<std::uint64_t>(n - 1));
}

// ---------------------------------------------------------------------------
// World
// ---------------------------------------------------------------------------

World::World(WorldConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.fabric == nullptr) {
    owned_fabric_ = std::make_unique<sim::Fabric>();
    fabric_ = owned_fabric_.get();
  } else {
    fabric_ = cfg_.fabric;
  }
  if (cfg_.nodes.empty()) {
    for (int i = 0; i < cfg_.nprocs; ++i) {
      nodes_.push_back(fabric_->add_node("rank" + std::to_string(i)));
    }
  } else {
    nodes_ = cfg_.nodes;
  }
  assert(nodes_.size() == static_cast<std::size_t>(cfg_.nprocs));
}

World::~World() = default;

void World::run(const std::function<void(Comm&)>& fn) {
  const int n = cfg_.nprocs;
  actors_.clear();
  busy_.assign(static_cast<std::size_t>(n), {});
  times_.assign(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    actors_.push_back(std::make_unique<Actor>("rank" + std::to_string(i),
                                              &fabric_->node(nodes_[i])));
  }
  std::vector<int> group(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) group[static_cast<std::size_t>(i)] = i;

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    threads.emplace_back([this, i, n, &fn, &group] {
      pthread_setname_np(pthread_self(),
                         ("rank" + std::to_string(i)).c_str());
      ActorScope scope(*actors_[static_cast<std::size_t>(i)]);
      auto ep = std::make_unique<Endpoint>(*this, cfg_, *fabric_, i,
                                           nodes_[static_cast<std::size_t>(i)]);
      ep->bootstrap();
      Comm world_comm(this, ep.get(), /*comm_id=*/0, group, i);
      fn(world_comm);
      world_comm.barrier();
      busy_[static_cast<std::size_t>(i)] =
          actors_[static_cast<std::size_t>(i)]->busy();
      times_[static_cast<std::size_t>(i)] =
          actors_[static_cast<std::size_t>(i)]->now();
      ep.reset();
    });
  }
  for (auto& t : threads) t.join();
  (void)n;
}

const sim::BusyBreakdown& World::rank_busy(int rank) const {
  return busy_[static_cast<std::size_t>(rank)];
}

sim::Time World::rank_time(int rank) const {
  return times_[static_cast<std::size_t>(rank)];
}

}  // namespace mpi
