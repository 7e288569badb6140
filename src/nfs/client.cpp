#include "nfs/client.hpp"

#include <cassert>
#include <cstring>

#include "sim/actor.hpp"
#include "sim/wait.hpp"

namespace nfs {

using sim::Actor;
using sim::CostKind;

namespace {
using namespace std::chrono_literals;
constexpr auto kConnectWait = 5'000ms;
}  // namespace

Client::Client(std::unique_ptr<TcpStream> stream, ClientConfig cfg)
    : stream_(std::move(stream)), cfg_(std::move(cfg)) {}

Result<std::unique_ptr<Client>> Client::connect(sim::Fabric& fabric,
                                                sim::NodeId node,
                                                ClientConfig cfg) {
  // The server may still be binding its listener; retry briefly.
  std::unique_ptr<TcpStream> stream;
  for (int attempt = 0; attempt < 200 && !stream; ++attempt) {
    stream = TcpStream::connect(fabric, node, cfg.service, kConnectWait);
    if (!stream) sim::sleep(sim::Deadline::host(10ms));
  }
  if (!stream) return PStatus::kProtoError;
  return std::unique_ptr<Client>(new Client(std::move(stream), cfg));
}

PStatus Client::call(Proc proc, std::string_view name, fstore::Ino ino,
                     std::uint64_t offset, std::uint64_t len,
                     std::uint64_t aux, std::uint16_t flags,
                     std::span<const std::byte> data) {
  Actor* actor = Actor::current();
  assert(actor && "NFS call outside an ActorScope");
  actor->charge(CostKind::kKernel, stream_ ? 500 : 0);  // VFS entry

  RpcHeader h;
  h.proc = proc;
  h.xid = next_xid_++;
  h.ino = ino;
  h.offset = offset;
  h.len = len;
  h.aux = aux;
  h.flags = flags;
  h.name_len = static_cast<std::uint32_t>(name.size());
  h.data_len = static_cast<std::uint32_t>(data.size());

  req_.resize(sizeof(h) + name.size() + data.size());
  std::memcpy(req_.data(), &h, sizeof(h));
  if (!name.empty()) {
    std::memcpy(req_.data() + sizeof(h), name.data(), name.size());
  }
  if (!data.empty()) {
    // Marshalling the write payload into the RPC buffer is part of the send
    // copy already charged by the TCP layer; this memcpy is the mechanism.
    std::memcpy(req_.data() + sizeof(h) + name.size(), data.data(),
                data.size());
  }
  if (!stream_->send(req_)) return PStatus::kProtoError;

  RpcHeader rh;
  if (!stream_->recv_exact(
          std::span(reinterpret_cast<std::byte*>(&rh), sizeof(rh)))) {
    return PStatus::kProtoError;
  }
  resp_.resize(sizeof(rh) + rh.name_len + rh.data_len);
  std::memcpy(resp_.data(), &rh, sizeof(rh));
  if (rh.name_len + rh.data_len > 0) {
    if (!stream_->recv_exact(
            std::span(resp_.data() + sizeof(rh), rh.name_len + rh.data_len))) {
      return PStatus::kProtoError;
    }
  }
  return rh.status;
}

Result<fstore::Ino> Client::open(std::string_view path, std::uint16_t flags) {
  const PStatus st = call(Proc::kOpen, path, 0, 0, 0, 0, flags, {});
  if (st != PStatus::kOk) return st;
  return resp_header().ino;
}

Result<fstore::Attrs> Client::getattr(fstore::Ino ino) {
  Actor* actor = Actor::current();
  if (cfg_.attr_cache_us > 0) {
    auto it = attr_cache_.find(ino);
    if (it != attr_cache_.end() &&
        actor->now() - it->second.fetched_at < cfg_.attr_cache_us * 1'000) {
      return it->second.attrs;  // possibly stale — that is the point
    }
  }
  const PStatus st = call(Proc::kGetattr, {}, ino, 0, 0, 0, 0, {});
  if (st != PStatus::kOk) return st;
  fstore::Attrs attrs;
  std::memcpy(&attrs, resp_data(), sizeof(attrs));
  if (cfg_.attr_cache_us > 0) {
    attr_cache_[ino] = CachedAttrs{attrs, actor->now()};
  }
  return attrs;
}

PStatus Client::set_size(fstore::Ino ino, std::uint64_t size) {
  attr_cache_.erase(ino);
  return call(Proc::kSetSize, {}, ino, 0, 0, size, 0, {});
}

PStatus Client::remove(std::string_view path) {
  return call(Proc::kRemove, path, 0, 0, 0, 0, 0, {});
}

PStatus Client::mkdir(std::string_view path) {
  return call(Proc::kMkdir, path, 0, 0, 0, 0, 0, {});
}

PStatus Client::rmdir(std::string_view path) {
  return call(Proc::kRmdir, path, 0, 0, 0, 0, 0, {});
}

PStatus Client::rename(std::string_view from, std::string_view to) {
  std::string both;
  both.append(from);
  both.push_back('\0');
  both.append(to);
  return call(Proc::kRename, both, 0, 0, 0, 0, 0, {});
}

Result<std::vector<fstore::DirEntry>> Client::readdir(std::string_view path) {
  std::vector<fstore::DirEntry> out;
  std::uint64_t cookie = 0;
  for (;;) {
    const PStatus st = call(Proc::kReaddir, path, 0, cookie, 0, 0, 0, {});
    if (st != PStatus::kOk) return st;
    const RpcHeader& rh = resp_header();
    const std::byte* p = resp_data();
    const std::byte* end = p + rh.data_len;
    for (std::uint64_t i = 0;
         i < rh.len && p + sizeof(dafs::WireDirent) <= end; ++i) {
      dafs::WireDirent wd;
      std::memcpy(&wd, p, sizeof(wd));
      p += sizeof(wd);
      fstore::DirEntry e;
      e.ino = wd.ino;
      e.is_dir = wd.is_dir != 0;
      e.name.assign(reinterpret_cast<const char*>(p), wd.name_len);
      p += wd.name_len;
      out.push_back(std::move(e));
    }
    cookie = rh.aux;
    if (rh.flags != 0) return out;
  }
}

PStatus Client::sync(fstore::Ino ino) {
  return call(Proc::kSync, {}, ino, 0, 0, 0, 0, {});
}

Result<std::uint64_t> Client::pread(fstore::Ino ino, std::uint64_t off,
                                    std::span<std::byte> out) {
  std::uint64_t done = 0;
  while (done < out.size() || (out.empty() && done == 0)) {
    const std::uint64_t want =
        std::min<std::uint64_t>(out.size() - done, cfg_.rsize);
    const PStatus st = call(Proc::kRead, {}, ino, off + done, want, 0, 0, {});
    if (st != PStatus::kOk) return st;
    const std::uint64_t got = resp_header().len;
    // Move the payload to the caller's buffer. The user-visible copy was
    // already charged by the stream receive; this memcpy is the mechanism,
    // not an extra modelled cost.
    std::memcpy(out.data() + done, resp_data(), got);
    done += got;
    if (got < want || out.empty()) break;
  }
  return done;
}

Result<std::uint64_t> Client::pwrite(fstore::Ino ino, std::uint64_t off,
                                     std::span<const std::byte> in) {
  attr_cache_.erase(ino);  // local writes invalidate cached attributes
  std::uint64_t done = 0;
  while (done < in.size() || (in.empty() && done == 0)) {
    const std::uint64_t want =
        std::min<std::uint64_t>(in.size() - done, cfg_.wsize);
    const PStatus st = call(Proc::kWrite, {}, ino, off + done, want, 0, 0,
                            in.subspan(done, want));
    if (st != PStatus::kOk) return st;
    done += resp_header().len;
    if (resp_header().len < want || in.empty()) break;
  }
  return done;
}

}  // namespace nfs
