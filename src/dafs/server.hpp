#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "dafs/lock_table.hpp"
#include "dafs/mount.hpp"
#include "dafs/proto.hpp"
#include "fstore/file_store.hpp"
#include "sim/actor.hpp"
#include "sim/fabric.hpp"
#include "sim/rng.hpp"
#include "sim/wait.hpp"
#include "via/vi.hpp"

namespace dafs {

class ReplLink;

struct ServerConfig {
  std::string service = "dafs";
  std::size_t msg_buf_size = kMsgBufSize;
  /// Receive descriptors pre-posted per session; clients must keep no more
  /// than this many requests outstanding (credit contract).
  std::size_t recv_credits = 16;
  /// Worker threads servicing the shared receive CQ.
  int workers = 1;
  fstore::Options store;
  /// Write-ahead journal in the store (sync = durability barrier, crash
  /// replay). Always copied into `store.journal_enabled`; the filer journals
  /// by default — the NFS baseline and raw fstore users do not.
  bool journal = true;
  /// Admission bound: when a popped request finds more than this many
  /// completions still pending in the receive CQ, it is shed with kBusy +
  /// retry-after instead of executed. 0 admits nothing but connection
  /// management (drain mode — deterministic overload for tests). Runtime
  /// adjustable via set_admission_limit().
  std::size_t admission_max_queue = 256;
  /// Retry-after hint carried in a kBusy response (virtual ns).
  std::uint64_t busy_retry_ns = 200'000;  // 200 us
  /// Window (modeled milliseconds) after a restart in which only lease
  /// *reclaims* may take locks; fresh acquires are shed with kBusy so surviving clients can
  /// re-establish state before new traffic races them.
  std::uint64_t grace_period_ms = 50;
  /// Delegation lease term (virtual ns). Every grant and every holder
  /// request re-arms the term; a holder that stays silent this long is
  /// revoked (its cached bytes must not be served — the client enforces the
  /// same deadline locally) and its late write-backs are fenced with
  /// kDelegExpired. Must comfortably exceed busy_retry_ns so a recalled
  /// holder gets a chance to flush before the conflicting writer's retries
  /// outlast the lease, and must dwarf the virtual cost of a single data
  /// op (an 8 KiB transfer runs ~2 ms of simulated work) or ordinary
  /// traffic expires leases as a side effect.
  std::uint64_t deleg_term_ns = 10'000'000;  // 10 ms
  /// Replay-cache bounds per session: entry count and total cached response
  /// bytes. Entries acknowledged by the client's piggybacked ack_seq are
  /// evicted first; the byte cap forces out the oldest beyond it.
  std::size_t replay_entries = 64;
  std::size_t replay_max_bytes = 256 * 1024;
  /// Policy of the quorum group's replication traffic: `deadline_ns` bounds
  /// the commit-barrier wait before a reply is demoted to kNotLeader,
  /// `jitter_seed` salts the election timers and peer reconnect jitter, and
  /// `attempts`/backoff pace scrub repair's sweeps of the group.
  RetryPolicy repl_retry{.attempts = 4,
                         .backoff_ns = 200'000,
                         .backoff_cap_ns = 5'000'000,
                         .jitter_seed = 1,
                         .max_busy_retries = 64,
                         .deadline_ns = 200'000'000};
  /// Quorum-replicated group (Raft-style, N >= 3). Every member lists the
  /// *whole* group's replication services here in the same order (index =
  /// member id) and names its own slot in `member_id`. Members elect a
  /// leader with randomized timeouts, the leader ships journal bytes with
  /// (term, offset) matching and commits at majority ack, and the fencing
  /// epoch IS the consensus term. Followers answer clients kNotLeader with a
  /// leader hint instead of going dark. Empty (default) = unreplicated.
  std::vector<std::string> quorum_group;
  std::uint32_t member_id = 0;
  /// Randomized election timeout window and leader heartbeat period
  /// (modeled milliseconds, like grace_period_ms).
  std::uint64_t election_timeout_min_ms = 50;
  std::uint64_t election_timeout_max_ms = 100;
  std::uint64_t heartbeat_ms = 10;
  /// Background integrity scrub: walk the store's allocated blocks at a
  /// paced rate, re-verifying every block checksum; in a quorum group a
  /// rotted block is repaired from a healthy replica's verified copy. Off by
  /// default (E19 sweeps the verify/scrub overhead).
  bool scrub_enabled = false;
  /// Modeled milliseconds between scrub steps (like the raft timers).
  std::uint64_t scrub_interval_ms = 5;
  /// Chunks verified per scrub step.
  std::size_t scrub_chunks_per_step = 64;
};

/// The DAFS file server ("filer"): accepts sessions over VIA, serves the
/// protocol out of an in-memory FileStore whose cache slabs are registered
/// with the NIC so direct I/O RDMAs straight between the buffer cache and
/// client memory, with zero server-side data copies.
class Server {
 public:
  Server(sim::Fabric& fabric, sim::NodeId node, ServerConfig cfg = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  void start();
  void stop();

  fstore::FileStore& store() { return *store_; }
  via::Nic& nic() { return nic_; }
  const ServerConfig& config() const { return cfg_; }
  sim::Fabric& fabric() { return fabric_; }

  /// Aggregate CPU breakdown across all worker actors (E5/E8 tables).
  sim::BusyBreakdown worker_busy() const;
  std::size_t session_count() const;

  /// Crash the server now (tests drive this directly; the FaultPlan's
  /// crash_server_* arming takes the same path from a worker). All volatile
  /// state — sessions, locks, replay caches, un-synced data — is discarded;
  /// the listener goes away for `restart_delay_ms` of modeled time and the
  /// server then restarts with a lease-reclaim grace period.
  void inject_crash(std::uint64_t restart_delay_ms);
  /// Times the server has crashed (and restarted) so far.
  std::uint64_t crash_count() const { return crash_count_.load(); }
  /// True while the server is down between crash and restart.
  bool crashed() const { return crash_pending_.load(); }
  /// True during the post-restart reclaim grace period.
  bool in_grace() const;
  /// Adjust the admission bound at runtime (see ServerConfig). 0 = drain.
  void set_admission_limit(std::size_t n) {
    admission_limit_.store(n, std::memory_order_relaxed);
  }
  std::size_t admission_limit() const {
    return admission_limit_.load(std::memory_order_relaxed);
  }
  /// Total bytes currently pinned by all sessions' replay caches.
  std::size_t replay_cache_bytes() const;

  /// Quorum role: kLeader serves clients, kFollower answers them kNotLeader
  /// with a leader hint, kCandidate solicits votes. An unreplicated filer
  /// is always kLeader. The numbers are the `dafs.role` gauge and the
  /// kStatsQuery role field.
  enum class Role : int { kLeader = 0, kFollower = 1, kCandidate = 3 };
  Role role() const { return role_.load(std::memory_order_acquire); }
  /// Fencing epoch: 1 on an unreplicated filer; in quorum mode the
  /// consensus term.
  std::uint64_t epoch() const { return epoch_.load(std::memory_order_relaxed); }

  /// Quorum mode (non-empty ServerConfig::quorum_group)?
  bool quorum() const { return !cfg_.quorum_group.empty(); }
  /// Majority-committed journal offset (quorum leader/follower view).
  std::uint64_t commit_offset() const {
    return commit_off_.load(std::memory_order_relaxed);
  }
  /// Member index of the leader this member believes in, or -1 when unknown.
  std::int32_t leader_member() const {
    return leader_member_.load(std::memory_order_relaxed);
  }
  /// Total journal bytes this member imported while catching up from a
  /// leader (re-silvering) since construction.
  std::uint64_t resilver_bytes() const {
    return resilver_bytes_.load(std::memory_order_relaxed);
  }
  /// Completed background-scrub passes over the whole store.
  std::uint64_t scrub_passes() const {
    return scrub_passes_.load(std::memory_order_relaxed);
  }

  /// Cumulative per-client attribution (the kStatsQuery session table).
  /// Keyed by the stable client_id, so the row survives reconnects — and
  /// crash/restarts: this is telemetry about the clients, not volatile
  /// session state, so do_crash deliberately leaves it alone.
  struct ClientStat {
    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
    std::uint64_t ops_read = 0;
    std::uint64_t ops_write = 0;
    std::uint64_t ops_meta = 0;
    std::uint64_t queue_wait_ns = 0;
    std::uint64_t service_ns = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t sheds = 0;
  };
  /// Point-in-time copy of the per-client table (tests diff it against
  /// independently-accumulated ground truth).
  std::map<std::uint64_t, ClientStat> client_stats() const;

 private:
  // Host watchdogs and bounds shared by the server's concern files.
  /// Period of the accept and completion-queue polls.
  static constexpr std::chrono::milliseconds kPollPeriod{50};
  /// Watchdog on one send's completion.
  static constexpr std::chrono::milliseconds kSendWait{5'000};
  /// RDMA bytes one request keeps in flight. Enough to cover a round trip
  /// many times over (64 KiB is about 0.5 ms on the wire, a round trip about
  /// 10 us), so small segments stream back to back; a large segment goes out
  /// alone, so one request never books a client's link for a whole batch in
  /// one go, much as a NIC bounds its outstanding RDMA reads.
  static constexpr std::uint64_t kRdmaWindowBytes = 64 * 1024;

  struct MsgBuf {
    std::vector<std::byte> mem;
    via::MemHandle handle = via::kInvalidMemHandle;
    via::Descriptor desc;
  };

  /// One cached response in a session's replay window.
  struct CachedResp {
    std::uint32_t seq = 0;
    std::vector<std::byte> bytes;  // full wire image (header + payload)
  };

  struct Session {
    std::uint64_t id = 0;
    std::unique_ptr<via::Vi> vi;
    std::vector<std::unique_ptr<MsgBuf>> recv_bufs;
    std::mutex send_mu;  // serializes response transmission per session
    bool closing = false;
    /// Duplicate-request cache: successful non-idempotent responses, keyed
    /// by session sequence number. A client that retransmits after a
    /// connection loss gets the original answer instead of a re-execution —
    /// exactly-once semantics for writes, creates, locks and counters.
    std::mutex replay_mu;
    std::deque<CachedResp> replay;
    std::size_t replay_bytes = 0;  // under replay_mu
  };

  void accept_loop();
  /// Serve requests off the shared receive CQ. `idx` names the thread's
  /// reply buffer; the worker actor is borrowed per request.
  void worker_loop(int idx);
  /// Start a new incarnation from the journal: sever every connected
  /// session and clear its replay cache, drop locks and delegations, and
  /// replay the store (un-synced data vanishes). Takes sessions_mu_, then
  /// deleg_mu_. Shared by a crash and a leadership win.
  void reset_incarnation();
  /// Open the post-restart reclaim window (grace_period_ms from now).
  void arm_grace();
  /// The leader lease, starting now: twice the longest election timeout, so
  /// a partitioned ex-leader steps down strictly before a new leader
  /// (elected after one election timeout) can diverge.
  sim::Deadline lease_from_now() const;

  // ---- quorum (Raft-style) machinery; all inert unless quorum() ----------
  /// What the commit barrier tells handle_request to do with a successful
  /// replicated op.
  enum class QuorumAck {
    kOk,         // majority holds the records: acknowledge
    kDrop,       // filer is crashing: the op dies unanswered
    kNotLeader,  // lost leadership mid-wait: answer kNotLeader, client retries
  };
  /// Hold a successful replicated op until a majority of the group holds the
  /// journal records it produced (commit_off_ >= journal size at entry).
  /// Never degrades: a quorum that cannot be reached within the deadline
  /// demotes the answer to kNotLeader instead of acknowledging unreplicated.
  QuorumAck quorum_commit_barrier();
  /// Accept loop for the member's replication service: one handler thread
  /// per inbound peer connection.
  void quorum_listener_loop();
  /// Serve kVoteReq/kAppend/kBlockFetch from one peer connection until it
  /// dies. `link` is the connection the listener armed and accepted.
  void quorum_conn_loop(std::unique_ptr<ReplLink> link);
  /// A replication link on this member's NIC whose waits end once the
  /// member stops or crashes. Each user registers its own buffers.
  std::unique_ptr<ReplLink> new_repl_link();
  /// Election timers (follower/candidate) and leader lease (step down when a
  /// majority has been unreachable for a full lease window).
  void quorum_tick_loop();
  /// Outbound half toward one peer: vote requests while candidate, append
  /// streams + heartbeats while leader.
  void quorum_sender_loop(std::uint32_t peer);
  /// Become candidate for a fresh term and solicit votes (raft_mu_ held).
  void run_election_locked();
  /// Count a granted vote for `term`; wins the election at majority.
  void on_vote_granted(std::uint64_t term);
  /// Adopt `term` (if newer) and drop to follower (raft_mu_ held).
  void become_follower_locked(std::uint64_t term);
  /// Candidate -> leader: fence with a kTermMark, materialize the journal,
  /// reset client-facing volatile state, start serving (raft_mu_ held).
  void become_leader_locked();
  /// Advance commit_off_ to the majority-held offset, current-term gated
  /// (raft_mu_ held, leader only).
  void advance_commit_locked();
  /// Term at byte offset `off` per the kTermMark run table (raft_mu_ held).
  std::uint64_t term_at_locked(std::uint64_t off) const;
  /// Rebuild the term-run table by scanning the journal (raft_mu_ held).
  void rebuild_term_runs_locked();
  /// Reset the randomized election deadline (raft_mu_ held).
  void reset_election_deadline_locked();
  /// 1 + leader member index for the kNotLeader aux hint (0 = unknown).
  std::uint64_t leader_hint() const;

  /// Background scrubber: paced walk over the store's allocated blocks, one
  /// "scrub.pass" span per completed pass. Corrupt blocks are repaired from
  /// a quorum peer when one holds a verified copy; otherwise they stay
  /// rotted and reads keep demoting to kCorrupt instead of serving bad
  /// bytes.
  void scrub_loop();
  /// Fetch a verified copy of block `chunk` of `ino` from a healthy quorum
  /// peer (kBlockFetch) and overwrite the rotted local block. Sweeps the
  /// group under cfg_.repl_retry's capped, jittered backoff; false when no
  /// peer could supply a clean copy within the budget.
  bool scrub_repair_block(fstore::Ino ino, std::uint64_t chunk);

  void handle_request(Session& s, MsgBuf& req, MsgBuf& out);
  /// Fill a kStatsQuery response: WireStatsHeader + per-client session table
  /// + counter/gauge kv section, clipped to the message buffer (truncated
  /// flag set when anything was dropped).
  void do_stats(MsgView& resp);
  /// Merge an accounting delta into the per-client table. client_id 0 (a
  /// client's very first kConnect, before it has an identity) is ignored.
  void account_client(std::uint64_t client_id, const ClientStat& delta);
  void send_response(Session& s, MsgBuf& out);
  /// Tear down all volatile state and schedule the restart (crash path).
  void do_crash(std::uint64_t restart_delay_ms);
  /// Evict replay entries (and durable dup-filter records) the client has
  /// acknowledged via the piggybacked cumulative ack.
  void apply_ack(Session& s, const MsgHeader& req);
  /// Post send-side descriptors on the session VI ahead of their reaps,
  /// within a window of bytes in flight, and reap every one posted, in
  /// order (the worker syncs to the last completion). Returns how many
  /// leading descriptors succeeded; posting stops at the first refusal or
  /// failed completion. Caller must hold s.send_mu.
  std::size_t post_and_reap(Session& s, std::span<via::Descriptor> ds);

  // ---- delegations (volatile leader state; see proto.hpp [ext]) ----------
  /// One live delegation. Never journaled or replicated: a restart or a
  /// quorum leader change invalidates every id, and a stale holder's
  /// write-back is fenced by id mismatch (kDelegExpired).
  struct Deleg {
    std::uint64_t id = 0;
    std::uint64_t session_id = 0;  // granting (metadata) session
    bool write = false;
    sim::Time expires_at = 0;      // renewed by every holder request
    bool recalling = false;
    sim::Time recall_started = 0;  // "dafs.deleg.recall" span start
  };
  /// Admission gate for data-plane requests touching `ino` (deleg_mu_ taken
  /// inside). A live holder's request (matching `deleg` id) renews the lease
  /// and picks up a pending recall flag; a foreign access triggers a recall
  /// (kBusy + retry-after until the holder returns or the term lapses); a
  /// write carrying a dead id is fenced with kDelegExpired. Returns the
  /// status already written into `resp` (kOk = proceed with the op).
  PStatus deleg_gate(std::uint64_t ino, std::uint64_t deleg_id,
                     bool write_class, MsgView& resp);
  /// kDelegRecall (lease renewal / recall poll) and kDelegReturn.
  void do_deleg(MsgView& req, MsgView& resp);
  /// Try to grant a delegation for a successful open (deleg_mu_ taken
  /// inside): sole opener, no live delegation, not in the reclaim grace
  /// window. Writes grant id/term/kind into the open response.
  void maybe_grant_deleg(Session& s, const MsgHeader& req, MsgView& resp,
                         std::uint64_t ino);
  /// Record the "dafs.deleg.recall" span for a recall that just completed
  /// (deleg_mu_ held). `how` lands in the span attrs: returned / expired /
  /// revoked.
  void finish_recall_locked(std::uint64_t ino, Deleg& d, const char* how);
  /// Drop every delegation and opener record `session_id` holds (clean
  /// disconnect path; crash paths clear the whole tables instead).
  void release_session_delegs(std::uint64_t session_id);

  // Request handlers; `req` is the parsed request, `resp` the response being
  // built (header pre-initialized from the request).
  void do_open(Session& s, MsgView& req, MsgView& resp);
  void do_namespace(MsgView& req, MsgView& resp);
  void do_read_inline(MsgView& req, MsgView& resp);
  void do_write_inline(MsgView& req, MsgView& resp);
  void do_read_direct(Session& s, MsgView& req, MsgView& resp);
  void do_write_direct(Session& s, MsgView& req, MsgView& resp);
  void do_readdir(MsgView& req, MsgView& resp);
  void do_lock(Session& s, MsgView& req, MsgView& resp);
  /// kConnect with kConnectResume: rebind a reconnected client to its old
  /// session identity (locks, replay cache) after a transport failure.
  void do_resume(Session& s, MsgView& req, MsgView& resp);

  /// Memory handle covering a buffer-cache span (slab registration lookup).
  via::MemHandle slab_handle(const std::byte* p) const;

  sim::Fabric& fabric_;
  sim::NodeId node_;
  ServerConfig cfg_;
  via::Nic nic_;
  via::ProtectionTag ptag_;
  std::unique_ptr<fstore::FileStore> store_;
  LockTable locks_;

  via::CompletionQueue recv_cq_;

  mutable std::mutex slabs_mu_;
  std::vector<std::pair<const std::byte*, std::pair<std::size_t, via::MemHandle>>>
      slabs_;

  /// Delegation table and opener tracking, all under deleg_mu_. `openers_`
  /// refcounts (ino, session) opens so grants only go to sole openers;
  /// `session_opens_` is the reverse index a disconnect sweeps.
  mutable std::mutex deleg_mu_;
  std::unordered_map<std::uint64_t, Deleg> delegs_;
  std::unordered_map<std::uint64_t, std::map<std::uint64_t, int>> openers_;
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>> session_opens_;
  /// Monotonic grant counter, deliberately NOT reset by do_crash (the Server
  /// object outlives its crashes), salted with the member id and crash count
  /// so no two incarnations ever mint the same delegation id.
  std::uint64_t next_deleg_ = 1;

  mutable std::mutex sessions_mu_;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::unordered_map<via::Vi*, Session*> by_vi_;
  std::uint64_t next_session_ = 1;

  std::atomic<bool> running_{false};
  std::atomic<bool> crash_pending_{false};
  std::atomic<std::uint64_t> crash_count_{0};
  std::atomic<std::size_t> admission_limit_{0};
  /// Grace-period end (a default Deadline has passed: no grace).
  std::atomic<sim::Deadline> grace_until_{};
  mutable std::mutex crash_mu_;
  sim::Deadline restart_at_;  // under crash_mu_
  std::thread accept_thread_;
  std::vector<std::thread> worker_threads_;
  std::vector<std::unique_ptr<sim::Actor>> worker_actors_;
  /// Lends each picked-up request the earliest-clock idle worker actor.
  /// There are as many actors as worker threads, and a thread holds at most
  /// one, so a thread with a request in hand always finds one idle.
  sim::ActorPool worker_pool_;
  std::unique_ptr<sim::Actor> accept_actor_;
  std::vector<std::unique_ptr<MsgBuf>> worker_send_bufs_;

  std::atomic<Role> role_{Role::kLeader};
  std::atomic<std::uint64_t> epoch_{1};

  // Quorum (Raft) state, inert when cfg_.quorum_group is empty. The current
  // term lives in epoch_ (the fencing epoch IS the term); epoch_ and
  // voted_for_ are deliberately NOT cleared by do_crash — they model the
  // durable Raft metadata a real filer would fsync beside its journal.
  /// One run of journal bytes appended under a single term: [start_off,
  /// next run's start_off) carries `term`. Rebuilt from kTermMark records.
  struct TermRun {
    std::uint64_t start_off = 0;
    std::uint64_t term = 0;
  };
  static constexpr std::uint32_t kNoVote = UINT32_MAX;
  mutable std::mutex raft_mu_;
  sim::CondVar raft_cv_;
  std::vector<TermRun> term_runs_;             // under raft_mu_
  std::uint32_t voted_for_ = kNoVote;          // under raft_mu_ (durable)
  std::uint32_t votes_ = 0;                    // under raft_mu_ (candidate)
  std::uint64_t votes_term_ = 0;               // under raft_mu_
  std::vector<std::uint64_t> match_off_;       // under raft_mu_ (leader)
  std::vector<std::uint64_t> next_off_;        // under raft_mu_ (leader)
  std::vector<sim::Deadline> peer_lease_;      // under raft_mu_ (leader)
  sim::Deadline election_deadline_;            // under raft_mu_
  sim::Time election_started_{0};              // under raft_mu_ (span start)
  std::unique_ptr<sim::Rng> raft_rng_;         // under raft_mu_
  std::atomic<std::uint64_t> commit_off_{0};
  std::atomic<std::int32_t> leader_member_{-1};
  std::atomic<std::uint64_t> resilver_bytes_{0};
  /// Inbound peer-connection VIs, so do_crash can sever them and the peers
  /// observe the death promptly.
  std::mutex quorum_mu_;
  std::vector<via::Vi*> quorum_conn_vis_;      // under quorum_mu_
  /// One inbound-connection handler thread per accepted peer VI. `done` is
  /// set by the handler on exit so the listener can reap finished slots
  /// eagerly — connection churn must not accumulate unjoined threads (each
  /// one pins its stack mapping until joined).
  struct ConnSlot {
    std::thread thread;
    std::atomic<bool> done{false};
  };
  std::vector<std::unique_ptr<ConnSlot>> quorum_conn_threads_;  // quorum_mu_
  std::thread quorum_listener_thread_;
  std::thread quorum_tick_thread_;
  std::vector<std::thread> quorum_sender_threads_;

  // Background scrub state (inert unless cfg_.scrub_enabled).
  std::thread scrub_thread_;
  std::atomic<std::uint64_t> scrub_passes_{0};

  // Per-client attribution table (see ClientStat). Deliberately survives
  // do_crash: the rows describe client behavior, not volatile session state.
  mutable std::mutex cstats_mu_;
  std::map<std::uint64_t, ClientStat> cstats_;  // under cstats_mu_

  // RAII gauge registrations. Declared LAST so they are destroyed FIRST:
  // every callback captures `this` (and the members above), so the scopes
  // must unregister before anything they read starts tearing down.
  std::vector<sim::GaugeScope> gauges_;
};

}  // namespace dafs
