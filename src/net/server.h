// StreamServer — the networked face of the DSMS (Figure 1's server proper):
// data providers push tuples + sps and query specifiers register subjects,
// queries and result subscriptions, all over the binary wire protocol
// (net/wire.h, docs/NETWORK.md).
//
// Concurrency model (documented choice): an EPOLL REACTOR with a SHARDED
// SESSION ENGINE. N event-loop threads (`net_loops`, one per core by
// default) each own an epoll instance, a timer wheel and a shard of the
// connections; sockets are non-blocking and edge-triggered, and each
// connection is a small state machine (net/conn_state.h) instead of a
// dedicated reader thread — 10k connections cost O(net_loops) threads.
// Loops never touch the engine: they stage decoded frames into a per-loop
// MPSC ingress queue drained by ONE engine thread, which owns every
// session/credit/subscription decision and runs epochs. The engine thread
// is woken by the loops and by EngineService's work notifier, so accepting,
// parsing and writing scale across cores while the engine's single-threaded
// invariant holds trivially. Each loop binds its own SO_REUSEPORT listener on
// the server's port, so the kernel spreads accepts across loops.
//
// Backpressure is credit-based: every connection is granted
// `options.initial_credits` element credits at HELLO_ACK; each element in a
// PUSH frame consumes one. After each epoch the engine thread replenishes
// exactly the credits that epoch drained — coalesced into ONE CREDIT frame
// per connection per epoch, not one per admitted batch — so a connection
// can never have more than `initial_credits` elements buffered inside the
// engine. A client that overdraws its window is a protocol violator and is
// disconnected. Subscribers whose socket stays write-blocked longer than
// `send_timeout_ms` (or whose buffered output exceeds `max_outbound_bytes`)
// are evicted so one stalled consumer cannot wedge the epoch loop.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "engine/engine_service.h"
#include "net/conn_state.h"
#include "net/event_loop.h"
#include "net/wire.h"
#include "stream/element_queue.h"

namespace spstream {

struct StreamServerOptions {
  /// Element credits granted to each connection at HELLO_ACK.
  uint64_t initial_credits = 256;
  /// A subscriber whose socket stays write-blocked this long is evicted.
  int send_timeout_ms = 5000;
  /// A connection that sends no frame (not even a PING heartbeat) for this
  /// long is evicted with its session preserved for resume. 0 disables.
  int idle_timeout_ms = 0;
  /// How long a detached session (abrupt disconnect / preserved eviction)
  /// stays resumable before the linger timer expires it.
  int session_linger_ms = 10000;
  /// Event-loop threads, each with its own SO_REUSEPORT listener. 0 = one
  /// per hardware thread.
  int net_loops = 0;
  /// Buffered outbound bytes per connection before the subscriber is
  /// declared dead and evicted. 0 = uncapped.
  size_t max_outbound_bytes = 64u << 20;
};

class StreamServer {
 public:
  /// \brief Serve `service` (not owned; must outlive the server).
  StreamServer(EngineService* service, StreamServerOptions options = {});
  ~StreamServer();

  StreamServer(const StreamServer&) = delete;
  StreamServer& operator=(const StreamServer&) = delete;

  /// \brief Bind one loopback listener per loop (port 0 = kernel-chosen)
  /// and start the event-loop and engine threads. Fails, with nothing left
  /// open, when any listener cannot bind (e.g. the port is taken).
  Status Start(uint16_t port);

  /// \brief Stop serving: join every thread, close every fd. Idempotent.
  void Stop();

  /// \brief The bound port (after Start; resolves port-0 binds).
  uint16_t port() const { return port_; }

  /// \brief Connections accepted over the server's lifetime.
  int64_t connections_accepted() const;
  /// \brief Slow-subscriber / protocol-violation evictions.
  int64_t evictions() const;
  /// \brief Reconnects that successfully resumed a detached session.
  int64_t sessions_resumed() const;
  /// \brief Detached sessions dropped after `session_linger_ms`.
  int64_t sessions_expired() const;
  /// \brief Sessions currently tracked (attached + detached).
  size_t session_count() const;

  /// \brief PUSH frames discarded whole by shed-before-decode.
  int64_t frames_shed() const;

  /// \brief Event-loop threads actually running (after Start).
  int net_loops() const { return static_cast<int>(shards_.size()); }

 private:
  /// Capacity of each loop's ingress queue.
  static constexpr size_t kIngressCapacity = 4096;

  /// One staged unit of work for the engine thread. Loops decode what they
  /// can without the engine (frame boundaries, PUSH payloads) and forward
  /// the rest; a kClosed event is the single handoff of a dead connection.
  struct IngressEvent {
    enum class Kind : uint8_t { kFrame, kPush, kClosed };
    Kind kind = Kind::kFrame;
    std::shared_ptr<ConnState> conn;
    Frame frame;                              // kFrame
    std::unique_ptr<PushPayload> push;        // kPush (decoded on the loop)
    std::string reason;                       // kClosed
    bool evicted = false;                     // kClosed: count + audit
    bool preserve_session = false;            // kClosed: detach vs erase
  };

  /// Per-event-loop state. Everything except `ingress` is owned by the
  /// loop's thread.
  struct LoopShard {
    std::unique_ptr<EventLoop> loop;
    std::thread thread;
    int listen_fd = -1;
    /// Events staged for the engine thread; a full queue pauses this
    /// loop's reads, never drops events.
    BoundedQueue<IngressEvent> ingress{kIngressCapacity};
    // fd -> connection; stale epoll events miss harmlessly after erase.
    std::unordered_map<int, std::shared_ptr<ConnState>> conns;
    // Events staged since the last tick, flushed to `ingress` in one batch.
    std::vector<IngressEvent> egress;
    bool stalled = false;      ///< ingress was full; reads are paused
    bool retry_armed = false;  ///< egress retry timer scheduled
    std::vector<std::shared_ptr<ConnState>> pending_reads;
  };

  /// A client identity that survives its TCP connection. Created at HELLO,
  /// detached (subscriptions snapshotted) on abrupt disconnect or preserved
  /// eviction, resumed when a later HELLO presents the matching id + token,
  /// erased on BYE / protocol violation / linger expiry. At-most-once
  /// delivery across the gap: RESULT frames in flight when the connection
  /// died are lost, never re-sent — a resumed subscriber can miss epochs
  /// but can never receive a duplicate or another session's results.
  struct Session {
    uint64_t id = 0;
    uint64_t token = 0;  // secret; resuming requires presenting it
    std::string client_name;
    std::vector<QueryId> subscriptions;
    int64_t detached_at_ms = -1;  // -1 while a connection is attached
  };

  // ---- loop-thread side ---------------------------------------------------
  void LoopIo(size_t shard_index, const EpollBackend::Ready& ready);
  void LoopTick(size_t shard_index);
  void AcceptReady(size_t shard_index);
  void AdoptConnection(size_t shard_index, int fd, int id);
  void HandleReadable(size_t shard_index,
                      const std::shared_ptr<ConnState>& conn);
  /// Dispatch one parsed frame on the loop: PING/BYE/shed fast paths stay
  /// here, PUSH is decoded here, everything else is staged for the engine.
  void LoopDispatch(size_t shard_index, const std::shared_ptr<ConnState>& conn,
                    Frame frame);
  /// Enqueue the coalesced CREDIT frame covering frames shed this pass.
  void MaterializeShedCredit(const std::shared_ptr<ConnState>& conn);
  /// Loop-thread Enqueue + flush-or-evict (PONG, SHED_NOTICE, CREDIT).
  void LoopEnqueue(size_t shard_index, const std::shared_ptr<ConnState>& conn,
                   FrameType type, std::string_view payload);
  /// Queue exactly one flush task on the connection's loop (deduped).
  void ScheduleFlush(const std::shared_ptr<ConnState>& conn);
  /// Arm the write-blocked eviction timer (send_timeout_ms).
  void ArmBlockedTimer(const std::shared_ptr<ConnState>& conn);
  /// Arm the 1ms retry timer for a stalled ingress queue.
  void ArmEgressRetry(size_t shard_index);
  /// Flush the connection's outbound queue; manages EPOLLOUT interest and
  /// the write-blocked eviction timer.
  void LoopFlush(const std::shared_ptr<ConnState>& conn);
  /// Close the fd, unregister the connection and stage the kClosed event
  /// (the engine does the bookkeeping exactly once).
  void LoopClose(size_t shard_index, const std::shared_ptr<ConnState>& conn,
                 std::string reason, bool evicted, bool preserve_session);
  /// Engine-evicted connection: flush what is queued (the ERROR frame),
  /// then close — bounded by `send_timeout_ms`.
  void LoopDrainAndClose(const std::shared_ptr<ConnState>& conn);
  /// Push staged egress events into the ingress queue (all-or-nothing to
  /// keep per-connection FIFO); on a full queue pause reads and retry.
  void FlushEgress(size_t shard_index);
  void ScheduleIdleCheck(const std::shared_ptr<ConnState>& conn,
                         int64_t delay_ms);

  // ---- engine-thread side -------------------------------------------------
  void EngineMain();
  /// Drain every shard's ingress queue and run any pending epochs until
  /// both are quiet.
  void DrainAndRun(std::vector<IngressEvent>* batch);
  void ProcessEvent(IngressEvent& event);
  void Handshake(const std::shared_ptr<ConnState>& conn, const Frame& frame);
  /// Handle one post-handshake frame; non-OK return evicts the client.
  Status HandleFrame(const std::shared_ptr<ConnState>& conn,
                     const Frame& frame);
  Status HandlePush(const std::shared_ptr<ConnState>& conn, PushPayload push);
  Status HandleRun(const std::shared_ptr<ConnState>& conn);
  /// Run one epoch, ship RESULT frames to subscribers and the per-epoch
  /// coalesced CREDIT replenishment, then publish gauges.
  void RunEpochAndFlush();

  /// Buffer a frame on the connection and schedule a flush on its loop;
  /// an outbound-cap overflow evicts the subscriber.
  void EnqueueFrame(const std::shared_ptr<ConnState>& conn, FrameType type,
                    std::string_view payload);
  void EnqueueOk(const std::shared_ptr<ConnState>& conn, uint64_t value);
  void EnqueueError(const std::shared_ptr<ConnState>& conn,
                    const Status& error);

  /// Engine-initiated eviction: bookkeeping now (synchronously, so counters
  /// and audit trail are visible the moment the decision is made), then the
  /// loop flushes pending frames and closes.
  void EvictFromEngine(const std::shared_ptr<ConnState>& conn,
                       const std::string& reason, bool preserve_session);
  /// Shared close bookkeeping; runs exactly once per connection (guarded by
  /// ConnState::finalized).
  void FinalizeBookkeeping(const std::shared_ptr<ConnState>& conn,
                           const std::string& reason, bool evicted,
                           bool preserve_session);
  /// Detach (preserve=true) or erase the connection's session.
  void ReleaseSession(const std::shared_ptr<ConnState>& conn, bool preserve);

  /// Mirror a session into the WAL (docs/DURABILITY.md) so a client can
  /// resume across a server RESTART, not just a dropped connection. Caller
  /// holds sessions_mu_; the durability manager has its own leaf mutex.
  void PersistSessionLocked(const Session& session,
                            const std::vector<QueryId>* subscriptions,
                            int64_t detached_at_ms);
  /// Expire detached sessions past the linger window; re-arms itself while
  /// any detached session remains. Runs on shard 0's timer wheel.
  void SweepSessions();
  void ScheduleSessionSweep(int64_t delay_ms);

  void PublishConnGauges(const ConnState& conn);
  void NotifyEngine();

  EngineService* service_;
  StreamServerOptions options_;
  /// Raw pointer grabbed once at Start() under the engine lock; null when
  /// the engine runs without a data dir. Outlives the server (the engine
  /// owns it and `service_` must outlive us).
  storage::DurabilityManager* durability_ = nullptr;

  std::vector<std::unique_ptr<LoopShard>> shards_;
  uint16_t port_ = 0;
  bool started_ = false;
  std::atomic<bool> stopping_{false};

  std::thread engine_thread_;
  std::mutex wake_mu_;
  std::condition_variable wake_cv_;
  bool wake_pending_ = false;  // guarded by wake_mu_
  bool engine_stop_ = false;   // guarded by wake_mu_

  // ---- engine-thread state (no lock needed) -------------------------------
  /// Registered (post-HELLO) connections by id, for replenish + gauges.
  std::unordered_map<int, std::shared_ptr<ConnState>> engine_conns_;
  /// query id -> subscribed connection (one subscriber per query: results
  /// are drained, so a second subscriber would silently split the stream).
  std::unordered_map<QueryId, std::shared_ptr<ConnState>> subscribers_;

  /// Session table. Guarded by sessions_mu_: mutated by the engine thread
  /// (HELLO/detach) and the linger timer; read by accessor threads.
  mutable std::mutex sessions_mu_;
  std::unordered_map<uint64_t, Session> sessions_;
  uint64_t next_session_id_ = 1;
  Rng session_rng_;  // tokens gate resume, not cryptographic identity
  int64_t sessions_resumed_ = 0;
  int64_t sessions_expired_ = 0;
  bool sweep_armed_ = false;

  std::atomic<int> next_conn_id_{0};
  std::atomic<int64_t> connections_accepted_{0};
  std::atomic<int64_t> evictions_{0};

  std::atomic<int64_t> frames_shed_{0};
};

}  // namespace spstream
