#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "sim/actor.hpp"
#include "sim/fabric.hpp"
#include "sim/wait.hpp"

/// \file tcp.hpp
/// An emulated kernel TCP/IP byte stream over the same fabric the VIA NICs
/// use. This is the baseline transport: every send/recv is a system call,
/// every byte crosses the user/kernel boundary twice (copy on send, copy on
/// receive), the stack pays per-segment processing, and the receiver pays
/// (coalesced) interrupts. These are exactly the costs VIA was designed to
/// eliminate, so the DAFS-vs-NFS comparisons inherit the right cause.
namespace nfs {

class TcpListener;

/// One endpoint of an established TCP connection.
class TcpStream {
 public:
  ~TcpStream();

  TcpStream(const TcpStream&) = delete;
  TcpStream& operator=(const TcpStream&) = delete;

  /// Blocking connect to "tcp:<service>" on the fabric name service.
  static std::unique_ptr<TcpStream> connect(sim::Fabric& fabric,
                                            sim::NodeId node,
                                            const std::string& service,
                                            std::chrono::milliseconds timeout);

  /// Send all of `data`. Returns false if the peer closed.
  bool send(std::span<const std::byte> data);

  /// Receive exactly out.size() bytes (blocking). Returns false on EOF /
  /// peer close before enough bytes arrived.
  bool recv_exact(std::span<std::byte> out);

  void close();
  bool closed() const;

  sim::NodeId node() const { return node_; }

 private:
  friend class TcpListener;

  struct Chunk {
    std::vector<std::byte> data;
    std::size_t consumed = 0;
    sim::Time arrival = 0;
    std::uint64_t segments = 0;  // receiver-side costs still to charge
  };

  /// Shared connection state; one queue per direction.
  struct Conn {
    std::mutex mu;
    sim::CondVar cv;
    std::deque<Chunk> to_a;
    std::deque<Chunk> to_b;
    bool a_closed = false;
    bool b_closed = false;
  };

  TcpStream(sim::Fabric& fabric, sim::NodeId node, std::shared_ptr<Conn> conn,
            bool is_a);

  sim::Fabric& fabric_;
  sim::NodeId node_;
  std::shared_ptr<Conn> conn_;
  bool is_a_;
  sim::NodeId peer_node_ = 0;
};

/// Passive side: binds "tcp:<service>" and accepts connections.
class TcpListener {
 public:
  TcpListener(sim::Fabric& fabric, sim::NodeId node, std::string service);
  ~TcpListener();

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  /// Wait for a connection; nullptr on timeout.
  std::unique_ptr<TcpStream> accept(std::chrono::milliseconds timeout);

 private:
  friend class TcpStream;
  struct Pending {
    sim::NodeId client_node;
    std::shared_ptr<TcpStream::Conn> conn;
    sim::Time client_time;
    bool taken = false;
    sim::NodeId server_node = 0;  // filled by accept
    sim::CondVar cv;
    bool done = false;
  };

  sim::Fabric& fabric_;
  sim::NodeId node_;
  std::string key_;
  std::mutex mu_;
  sim::CondVar cv_;
  std::deque<Pending*> pending_;
  bool closed_ = false;
};

}  // namespace nfs
