#include "dafs/repl.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

namespace dafs {

bool parse_repl_frame(std::span<const std::byte> bytes, ReplHeader& out) {
  ReplHeader h;
  if (bytes.size() < sizeof(h)) return false;
  std::memcpy(&h, bytes.data(), sizeof(h));
  const bool payload = h.op == ReplOp::kAppend || h.op == ReplOp::kBlockData;
  if (h.magic != kReplMagic || h.op < ReplOp::kVoteReq ||
      h.op > ReplOp::kBlockData ||
      (payload && bytes.size() != sizeof(h) + std::uint64_t{h.len})) {
    return false;
  }
  out = h;
  return true;
}

ReplLink::ReplLink(via::Nic& nic, via::ProtectionTag ptag,
                   std::chrono::milliseconds send_wait,
                   std::function<bool()> stopped)
    : nic_(nic),
      ptag_(ptag),
      send_wait_(send_wait),
      stopped_(std::move(stopped)) {}

ReplLink::~ReplLink() {
  drop();
  for (const auto& b : recv_bufs_) (void)nic_.deregister_memory(b->handle);
  if (!send_buf_.mem.empty()) (void)nic_.deregister_memory(send_buf_.handle);
}

void ReplLink::register_buf(Buf& b, std::size_t bytes) {
  b.mem.assign(bytes, std::byte{});
  b.handle = nic_.register_memory(b.mem.data(), b.mem.size(), ptag_, {});
}

void ReplLink::add_recv_buffers(std::size_t count, std::size_t bytes) {
  for (std::size_t i = 0; i < count; ++i) {
    register_buf(*recv_bufs_.emplace_back(std::make_unique<Buf>()), bytes);
  }
}

void ReplLink::add_send_buffer(std::size_t bytes) {
  register_buf(send_buf_, bytes);
}

bool ReplLink::post(Buf& b) {
  b.desc = via::Descriptor{};
  b.desc.segs = {via::DataSegment{b.mem.data(), b.handle,
                                  static_cast<std::uint32_t>(b.mem.size())}};
  return vi_->post_recv(b.desc) == via::Status::kSuccess;
}

bool ReplLink::arm() {
  drop();
  vi_ = std::make_unique<via::Vi>(nic_, via::ViAttrs{});
  for (const auto& b : recv_bufs_) {
    if (!post(*b)) {
      vi_.reset();
      return false;
    }
  }
  return true;
}

bool ReplLink::connect(const std::string& service,
                       std::chrono::milliseconds timeout) {
  if (arm() && nic_.connect(*vi_, service, timeout) == via::Status::kSuccess) {
    return true;
  }
  vi_.reset();
  return false;
}

void ReplLink::drop() {
  held_ = nullptr;
  vi_.reset();  // ~Vi disconnects
}

std::span<std::byte> ReplLink::payload(std::size_t bytes) {
  if (sizeof(ReplHeader) + bytes > send_buf_.mem.size()) {
    [[maybe_unused]] const via::Status st =
        nic_.deregister_memory(send_buf_.handle);
    assert(st == via::Status::kSuccess);
    register_buf(send_buf_, sizeof(ReplHeader) + bytes);
  }
  return {send_buf_.mem.data() + sizeof(ReplHeader), bytes};
}

bool ReplLink::send(const ReplHeader& h, std::size_t payload_bytes) {
  std::memcpy(send_buf_.mem.data(), &h, sizeof(h));
  send_buf_.desc = via::Descriptor{};
  send_buf_.desc.op = via::Opcode::kSend;
  send_buf_.desc.segs = {via::DataSegment{
      send_buf_.mem.data(), send_buf_.handle,
      static_cast<std::uint32_t>(sizeof(h) + payload_bytes)}};
  via::Descriptor* done = nullptr;
  return vi_->post_send(send_buf_.desc) == via::Status::kSuccess &&
         vi_->send_wait(done, send_wait_) == via::Status::kSuccess &&
         done->status == via::DescStatus::kSuccess;
}

bool ReplLink::recv(Frame& out, sim::Deadline deadline,
                    std::chrono::milliseconds slice) {
  if (Buf* b = std::exchange(held_, nullptr); b != nullptr && !post(*b)) {
    return false;
  }
  via::Status st = via::Status::kTimeout;
  via::Descriptor* d = nullptr;
  while (st == via::Status::kTimeout) {
    if (stopped_()) return false;
    st = vi_->recv_wait(d, slice);
    if (st == via::Status::kTimeout && deadline.passed()) return false;
  }
  if (st != via::Status::kSuccess || d->status != via::DescStatus::kSuccess ||
      stopped_()) {
    return false;
  }
  const auto b = std::find_if(
      recv_bufs_.begin(), recv_bufs_.end(),
      [&](const std::unique_ptr<Buf>& c) { return &c->desc == d; });
  assert(b != recv_bufs_.end());
  held_ = b->get();
  const std::span<const std::byte> bytes(held_->mem.data(), d->length);
  if (!parse_repl_frame(bytes, out.header)) {
    nic_.fabric().stats().add("dafs.raft_malformed");
    return false;
  }
  out.payload = bytes.subspan(sizeof(ReplHeader));
  return true;
}

}  // namespace dafs
