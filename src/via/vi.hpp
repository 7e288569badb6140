#pragma once

#include <chrono>
#include <deque>
#include <memory>
#include <mutex>
#include <string>

#include "sim/wait.hpp"
#include "via/completion_queue.hpp"
#include "via/descriptor.hpp"
#include "via/nic.hpp"
#include "via/types.hpp"

namespace via {

/// A Virtual Interface: one endpoint of a point-to-point connection, with a
/// send work queue and a receive work queue (VipCreateVi). Completions are
/// delivered either to the per-queue done lists (reaped with
/// send_done/recv_done/..._wait, VIPL VipSendDone style) or, when the VI was
/// created with CQs, funnelled into those CQs.
///
/// Emulation notes (see DESIGN.md §2):
///  * Data really moves: a send memcpys the gather segments into the peer's
///    posted receive descriptor's scatter segments; RDMA ops memcpy directly
///    between registered regions. Host CPU is charged only for doorbells and
///    completion reaping — the "DMA" itself consumes no actor CPU, which is
///    exactly the property DAFS direct I/O exploits.
///  * Completion *times* are computed analytically against the fabric's link
///    resources at post time; waiting threads synchronize their virtual
///    clocks to those instants when they reap.
class Vi {
 public:
  Vi(Nic& nic, ViAttrs attrs, CompletionQueue* send_cq = nullptr,
     CompletionQueue* recv_cq = nullptr);
  ~Vi();

  Vi(const Vi&) = delete;
  Vi& operator=(const Vi&) = delete;

  enum class State : std::uint8_t { kIdle, kConnected, kDisconnected, kError };

  // ---- posting ------------------------------------------------------------
  /// Post a receive descriptor (scatter list). Allowed before connection.
  [[nodiscard]] Status post_recv(Descriptor& d);
  /// Post a send-side descriptor: kSend, kRdmaWrite or kRdmaRead.
  [[nodiscard]] Status post_send(Descriptor& d);

  // ---- reaping (per-VI; only when no CQ is attached to that queue) -------
  [[nodiscard]] Status send_done(Descriptor*& out);  // poll; kNotDone if empty
  [[nodiscard]] Status recv_done(Descriptor*& out);
  /// Block for the queue's head until `timeout` (a host watchdog) expires or
  /// `until` (say, a request's modeled deadline) passes.
  [[nodiscard]] Status send_wait(Descriptor*& out,
                                 std::chrono::milliseconds timeout);
  [[nodiscard]] Status recv_wait(Descriptor*& out,
                                 std::chrono::milliseconds timeout);
  [[nodiscard]] Status send_wait(Descriptor*& out, sim::Deadline until);
  [[nodiscard]] Status recv_wait(Descriptor*& out, sim::Deadline until);

  // ---- connection ----------------------------------------------------------
  /// Tear the connection down; flushes posted receives on both endpoints.
  void disconnect();

  State state() const;
  bool connected() const { return state() == State::kConnected; }
  const ViAttrs& attrs() const { return attrs_; }
  /// Name-service key this connection was established under (fault plans
  /// target connections by this name). Empty before establishment.
  const std::string& conn_name() const { return conn_name_; }
  Nic& nic() const { return nic_; }
  /// Receive descriptors currently posted (credit accounting upstairs).
  std::size_t posted_recvs() const;

 private:
  friend class Nic;
  friend class Listener;

  /// Control block shared by the two endpoints of a connection. Senders pin
  /// the peer with a use count so a Vi can be destroyed safely while traffic
  /// is in flight in the other direction.
  struct Channel {
    std::mutex ptr_mu;
    sim::CondVar cv;
    Vi* a = nullptr;
    Vi* b = nullptr;
    int use_a = 0;
    int use_b = 0;
  };

  static void link(Vi& x, Vi& y);  // establish a connected channel

  /// Pin + return the peer endpoint (vi == nullptr if gone). The pin keeps
  /// the peer alive (its unlink() blocks) until unpin_peer().
  struct PeerPin {
    Vi* vi = nullptr;
    std::shared_ptr<Channel> chan;
    bool pinned_a = false;  // which use counter the pin incremented
  };
  PeerPin pin_peer();
  static void unpin_peer(const PeerPin& pin);
  void unlink();  // clear own slot, wait for in-flight users to drain

  /// Deposit path, run on the *sender's* thread against this (receiving) VI.
  /// Consumes one posted receive descriptor; scatters `gather`'s bytes into
  /// it when non-null (plain send), or just reports `report_len` (RDMA write
  /// with immediate). Returns the status the sender's descriptor should
  /// complete with and whether the connection broke.
  struct DepositOutcome {
    DescStatus sender_status = DescStatus::kSuccess;
    bool broke = false;
    sim::Time delivered = 0;  // arrival incl. receive-descriptor processing
  };
  /// `corrupt_seed` != 0 flips one seeded bit in the scattered bytes after
  /// the copy (wire corruption the link CRC missed); 0 = deliver intact.
  DepositOutcome deposit(const Descriptor* gather, std::uint32_t report_len,
                         bool has_imm, std::uint32_t imm, sim::Time arrival,
                         bool lenient_wait, std::uint64_t corrupt_seed = 0);

  void complete_send(Descriptor& d);          // push to done list / CQ
  void complete_recv_locked(Descriptor& d);   // mu_ held
  void flush_recvs_locked(sim::Time t);

  /// Injected transport failure: both endpoints go to error state and flush
  /// their posted receives so blocked reapers wake with kConnectionLost.
  void fault_break(Vi* peer, sim::Time t);

  /// Pop `q`'s head. When it is empty, kNotDone if `until` is nullptr;
  /// otherwise block until the Deadline `until()` (called only then).
  template <typename Until>
  Status reap(std::deque<Descriptor*>& q, Descriptor*& out, Until until);

  Nic& nic_;
  ViAttrs attrs_;
  CompletionQueue* send_cq_;
  CompletionQueue* recv_cq_;
  std::string conn_name_;  // written during establishment only
  std::shared_ptr<Channel> chan_;

  mutable std::mutex mu_;
  sim::CondVar cv_;
  State state_ = State::kIdle;
  std::deque<Descriptor*> recv_posted_;
  std::deque<Descriptor*> recv_done_q_;
  std::deque<Descriptor*> send_done_q_;
};

/// Accept side of connection establishment (VipConnectWait+Accept). Binding
/// is through the fabric name service under "via:<service>".
class Listener {
 public:
  Listener(Nic& nic, std::string service);
  ~Listener();

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Wait for a connection request and bind it to `vi` (which must be idle).
  [[nodiscard]] Status accept(Vi& vi, std::chrono::milliseconds timeout);

  /// Wait for a request and refuse it.
  [[nodiscard]] Status reject(std::chrono::milliseconds timeout);

  const std::string& service() const { return service_; }

 private:
  friend class Nic;
  struct Request {
    Vi* client_vi = nullptr;
    sim::Time client_time = 0;
    // Rendezvous state, under the request's OWN mutex — never the
    // listener's. The request outlives the exchange (it sits on the
    // connecting thread's stack until `done`), the listener need not: its
    // accept loop can destroy it (stack unwind on shutdown or crash) while
    // connectors are still waiting, so a waiter must never need to touch
    // listener memory to wake up or to finish waking up.
    std::mutex mu;
    bool done = false;
    bool accepted = false;
    sim::Time server_time = 0;
    sim::CondVar cv;
  };

  Status take_request(Request*& out, std::chrono::milliseconds timeout);

  Nic& nic_;
  std::string service_;
  std::string key_;
  std::mutex mu_;
  sim::CondVar cv_;
  std::deque<Request*> pending_;
  bool closed_ = false;
};

}  // namespace via
