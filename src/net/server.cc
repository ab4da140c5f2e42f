#include "net/server.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/trace.h"
#include "engine/overload.h"
#include "net/socket.h"
#include "security/sp_codec.h"

namespace spstream {

StreamServer::StreamServer(EngineService* service, StreamServerOptions options)
    : service_(service),
      options_(options),
      // Tokens need to differ across server instances, not be secure
      // randomness: mix wall-progress into the deterministic Rng.
      session_rng_(static_cast<uint64_t>(
          std::chrono::steady_clock::now().time_since_epoch().count())) {}

StreamServer::~StreamServer() { Stop(); }

Status StreamServer::Start(uint16_t port) {
  if (started_) return Status::InvalidArgument("server already started");
  stopping_.store(false, std::memory_order_release);
  // Adopt the engine's durable session table (if any): sessions that were
  // attached or lingering when the previous process died come back as
  // detached-as-of-now, so their clients get a full linger window to
  // reconnect and resume across the restart.
  service_->WithEngine([this](SpStreamEngine* engine) {
    durability_ = engine->durability();
    if (durability_ == nullptr) return;
    std::lock_guard<std::mutex> lock(sessions_mu_);
    const int64_t now = EventLoopNowMs();
    for (const storage::DurableSession& d : engine->recovered_sessions()) {
      Session s;
      s.id = d.id;
      s.token = d.token;
      s.client_name = d.client_name;
      for (uint32_t q : d.subscriptions) {
        s.subscriptions.push_back(static_cast<QueryId>(q));
      }
      s.detached_at_ms = now;
      next_session_id_ = std::max(next_session_id_, s.id + 1);
      sessions_.emplace(s.id, std::move(s));
    }
    next_session_id_ =
        std::max(next_session_id_, engine->recovered_next_session_id());
  });

  const unsigned hardware_threads = std::thread::hardware_concurrency();
  const int nloops =
      options_.net_loops > 0
          ? options_.net_loops
          : std::max(1, static_cast<int>(hardware_threads));
  // Undo a partial start: close every listener bound so far and drop the
  // loops (their epoll and wakeup fds close with them).
  auto fail = [this](Status st) {
    for (auto& shard : shards_) {
      if (shard->listen_fd >= 0) CloseSocket(shard->listen_fd);
    }
    shards_.clear();
    return st;
  };
  shards_.clear();
  for (int i = 0; i < nloops; ++i) {
    LoopShard& shard = *shards_.emplace_back(std::make_unique<LoopShard>());
    shard.loop = std::make_unique<EventLoop>();
    Status st = shard.loop->Init();
    if (!st.ok()) return fail(st);
    // Loop 0 binds the requested port; the others join the port it got.
    Result<int> fd = TcpListenReusePort(i == 0 ? port : port_);
    if (!fd.ok()) return fail(fd.status());
    shard.listen_fd = *fd;
    if (i == 0) {
      Result<uint16_t> bound = TcpLocalPort(*fd);
      if (!bound.ok()) return fail(bound.status());
      port_ = *bound;
    }
    st = shard.loop->backend()->Add(*fd, /*want_write=*/false);
    if (!st.ok()) return fail(st);
    const size_t index = static_cast<size_t>(i);
    shard.loop->set_io_handler(
        [this, index](const EpollBackend::Ready& r) { LoopIo(index, r); });
    shard.loop->set_tick_handler([this, index] { LoopTick(index); });
  }

  started_ = true;
  for (auto& shard : shards_) {
    EventLoop* loop = shard->loop.get();
    shard->thread = std::thread([loop] { loop->Run(); });
  }
  service_->SetWorkNotifier([this] { NotifyEngine(); });
  engine_thread_ = std::thread([this] { EngineMain(); });
  // Recovered sessions start their linger clock now.
  bool any_recovered;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    any_recovered = !sessions_.empty();
  }
  if (any_recovered) ScheduleSessionSweep(options_.session_linger_ms + 6);
  return Status::OK();
}

void StreamServer::Stop() {
  if (!started_) return;
  started_ = false;
  stopping_.store(true, std::memory_order_release);
  // Wake WaitEpoch/PollResults waiters and the engine thread, join it, then
  // stop the loops. Engine first: it Posts to loops, never the reverse
  // while stopping.
  service_->Stop();
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    engine_stop_ = true;
  }
  wake_cv_.notify_all();
  if (engine_thread_.joinable()) engine_thread_.join();
  service_->SetWorkNotifier(nullptr);
  for (auto& shard : shards_) shard->loop->RequestStop();
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
  // Single-threaded from here: close every fd (the FIN/RST unblocks any
  // client still parked in a read).
  for (auto& shard : shards_) {
    for (auto& [fd, conn] : shard->conns) {
      conn->phase = ConnState::Phase::kClosed;
      conn->closed.store(true, std::memory_order_release);
      CloseSocket(fd);
    }
    shard->conns.clear();
    shard->egress.clear();
    shard->pending_reads.clear();
    if (shard->listen_fd >= 0) {
      CloseSocket(shard->listen_fd);
      shard->listen_fd = -1;
    }
    shard->ingress.Close();
  }
  engine_conns_.clear();
  subscribers_.clear();
}

int64_t StreamServer::connections_accepted() const {
  return connections_accepted_.load(std::memory_order_relaxed);
}

int64_t StreamServer::evictions() const {
  return evictions_.load(std::memory_order_relaxed);
}

int64_t StreamServer::sessions_resumed() const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  return sessions_resumed_;
}

int64_t StreamServer::sessions_expired() const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  return sessions_expired_;
}

size_t StreamServer::session_count() const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  return sessions_.size();
}

int64_t StreamServer::frames_shed() const {
  return frames_shed_.load(std::memory_order_relaxed);
}

// ---- loop-thread side ------------------------------------------------------

void StreamServer::LoopIo(size_t shard_index, const EpollBackend::Ready& r) {
  LoopShard& shard = *shards_[shard_index];
  if (r.fd == shard.listen_fd) {
    AcceptReady(shard_index);
    return;
  }
  auto it = shard.conns.find(r.fd);
  if (it == shard.conns.end()) return;  // stale event for a recycled fd
  std::shared_ptr<ConnState> conn = it->second;
  if (r.writable && conn->phase != ConnState::Phase::kClosed) LoopFlush(conn);
  if ((r.readable || r.hangup) && conn->phase == ConnState::Phase::kOpen) {
    HandleReadable(shard_index, conn);
  }
}

void StreamServer::LoopTick(size_t shard_index) { FlushEgress(shard_index); }

void StreamServer::AcceptReady(size_t shard_index) {
  LoopShard& shard = *shards_[shard_index];
  for (;;) {
    Result<int> fd = TcpAcceptNonBlocking(shard.listen_fd);
    if (!fd.ok()) return;  // listener broken: shutting down
    if (*fd < 0) return;   // drained
    if (stopping_.load(std::memory_order_acquire)) {
      CloseSocket(*fd);
      return;
    }
    const int id = next_conn_id_.fetch_add(1, std::memory_order_relaxed);
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    service_->metrics()->AddCounter("net.connections_total");
    AdoptConnection(shard_index, *fd, id);
  }
}

void StreamServer::AdoptConnection(size_t shard_index, int fd, int id) {
  LoopShard& shard = *shards_[shard_index];
  auto conn = std::make_shared<ConnState>(id, fd, static_cast<int>(shard_index),
                                          shard.loop.get());
  conn->last_activity_ms = EventLoopNowMs();
  Status st = shard.loop->backend()->Add(fd, /*want_write=*/false);
  if (!st.ok()) {
    CloseSocket(fd);
    return;
  }
  shard.conns.emplace(fd, std::move(conn));
  if (options_.idle_timeout_ms > 0) {
    ScheduleIdleCheck(shard.conns[fd], options_.idle_timeout_ms);
  }
}

void StreamServer::HandleReadable(size_t shard_index,
                                  const std::shared_ptr<ConnState>& conn) {
  LoopShard& shard = *shards_[shard_index];
  if (shard.stalled) {
    // Ingress is full: pause this read (edge-triggered, so remember it) and
    // resume once the engine drains the queue.
    if (!conn->read_pending) {
      conn->read_pending = true;
      shard.pending_reads.push_back(conn);
    }
    return;
  }
  std::vector<Frame> frames;
  const bool keep = conn->ReadFrames(&frames);
  if (!frames.empty()) conn->last_activity_ms = EventLoopNowMs();
  for (Frame& frame : frames) {
    if (conn->phase != ConnState::Phase::kOpen) break;
    LoopDispatch(shard_index, conn, std::move(frame));
  }
  if (conn->phase == ConnState::Phase::kOpen) {
    MaterializeShedCredit(conn);
    if (!keep) {
      // Clean EOF / reset / broken framing: detach, resumable.
      LoopClose(shard_index, conn, "disconnect", /*evicted=*/false,
                /*preserve_session=*/true);
    }
  }
}

void StreamServer::LoopDispatch(size_t shard_index,
                                const std::shared_ptr<ConnState>& conn,
                                Frame frame) {
  const bool registered = conn->registered.load(std::memory_order_acquire);
  switch (frame.type) {
    case FrameType::kBye:
      // Graceful goodbye forfeits the session.
      LoopClose(shard_index, conn, "bye", /*evicted=*/false,
                /*preserve_session=*/false);
      return;
    case FrameType::kPing:
      if (registered) {
        // Any coalesced shed CREDIT ships first: the heartbeat reply must
        // not overtake the credits that make the client's window whole.
        MaterializeShedCredit(conn);
        LoopEnqueue(shard_index, conn, FrameType::kPong, frame.payload);
        return;
      }
      break;  // pre-handshake PING: the engine rejects the bad first frame
    case FrameType::kPush: {
      if (!registered) break;
      // Shed-before-decode: while the engine is in kShed, pure-data PUSH
      // frames are discarded on the loop thread before a single Tuple is
      // materialized. The scan walks kind bytes + varint skips only, and
      // any frame carrying an sp or a control boundary is exempt — *shed
      // data, never shed security*. The frame never consumes server-side
      // credits; the coalesced CREDIT below makes the client whole again.
      // The tier read is the controller's own atomic (no cached copy): the
      // moment the engine publishes kShed, every loop thread's gate is
      // armed — no stale window between the epoch that tripped the
      // deadline and the next frame off the socket.
      const OverloadState state = service_->overload_state();
      if (state == OverloadState::kShed) {
        Result<PushScan> scan = ScanPush(frame.payload);
        if (scan.ok() && !scan->carries_security) {
          frames_shed_.fetch_add(1, std::memory_order_relaxed);
          service_->metrics()->AddCounter("net.frames_shed");
          service_->metrics()->AddCounter(
              "net.tuples_shed", static_cast<int64_t>(scan->element_count));
          ShedNoticePayload notice;
          notice.dropped = scan->element_count;
          notice.state = static_cast<uint8_t>(state);
          std::string np;
          EncodeShedNotice(notice, &np);
          LoopEnqueue(shard_index, conn, FrameType::kShedNotice, np);
          conn->shed_credit_owed += scan->element_count;
          return;
        }
        // A scan error falls through to the full decoder for its proper
        // malformed-frame error path; a security-carrying frame is
        // admitted losslessly below.
      }
      Result<PushPayload> push = DecodePush(frame.payload);
      if (!push.ok()) {
        // Malformed data plane: protocol violation, session forfeited.
        LoopClose(shard_index, conn, push.status().message(),
                  /*evicted=*/true, /*preserve_session=*/false);
        return;
      }
      IngressEvent ev;
      ev.kind = IngressEvent::Kind::kPush;
      ev.conn = conn;
      ev.push = std::make_unique<PushPayload>(std::move(*push));
      shards_[shard_index]->egress.push_back(std::move(ev));
      return;
    }
    default:
      break;
  }
  IngressEvent ev;
  ev.kind = IngressEvent::Kind::kFrame;
  ev.conn = conn;
  ev.frame = std::move(frame);
  shards_[shard_index]->egress.push_back(std::move(ev));
}

void StreamServer::MaterializeShedCredit(
    const std::shared_ptr<ConnState>& conn) {
  if (conn->shed_credit_owed == 0) return;
  std::string payload;
  PutVarint(conn->shed_credit_owed, &payload);
  conn->shed_credit_owed = 0;
  LoopEnqueue(static_cast<size_t>(conn->loop_index), conn, FrameType::kCredit,
              payload);
}

void StreamServer::LoopEnqueue(size_t shard_index,
                               const std::shared_ptr<ConnState>& conn,
                               FrameType type, std::string_view payload) {
  switch (conn->Enqueue(type, payload, options_.max_outbound_bytes)) {
    case ConnState::EnqueueStatus::kQueued:
      ScheduleFlush(conn);
      return;
    case ConnState::EnqueueStatus::kOverflow:
      LoopClose(shard_index, conn, "slow subscriber: outbound buffer overflow",
                /*evicted=*/true, /*preserve_session=*/true);
      return;
    case ConnState::EnqueueStatus::kClosed:
      return;
  }
}

void StreamServer::ScheduleFlush(const std::shared_ptr<ConnState>& conn) {
  if (conn->flush_scheduled.exchange(true, std::memory_order_acq_rel)) return;
  conn->loop->Post([this, conn] {
    conn->flush_scheduled.store(false, std::memory_order_release);
    if (!conn->closed.load(std::memory_order_acquire)) LoopFlush(conn);
  });
}

void StreamServer::LoopFlush(const std::shared_ptr<ConnState>& conn) {
  if (conn->phase == ConnState::Phase::kClosed) return;
  const size_t shard_index = static_cast<size_t>(conn->loop_index);
  std::string err;
  switch (conn->Flush(&err)) {
    case ConnState::FlushStatus::kDrained:
      conn->blocked_since_ms = -1;
      if (conn->want_write) {
        conn->want_write = false;
        (void)shards_[shard_index]->loop->backend()->Mod(conn->fd,
                                                         /*want_write=*/false);
      }
      if (conn->phase == ConnState::Phase::kDraining) {
        LoopClose(shard_index, conn, conn->pending_close_reason,
                  conn->pending_close_evicted, conn->pending_close_preserve);
      }
      return;
    case ConnState::FlushStatus::kBlocked:
      if (conn->blocked_since_ms < 0) conn->blocked_since_ms = EventLoopNowMs();
      if (!conn->want_write) {
        conn->want_write = true;
        (void)shards_[shard_index]->loop->backend()->Mod(conn->fd,
                                                         /*want_write=*/true);
      }
      ArmBlockedTimer(conn);
      return;
    case ConnState::FlushStatus::kError:
      // A failed delivery is the peer's (or the network's) fault, not a
      // protocol violation — keep the session resumable. The frames that
      // failed are dropped, never re-sent: at-most-once delivery.
      LoopClose(shard_index, conn, "slow subscriber: " + err,
                /*evicted=*/true, /*preserve_session=*/true);
      return;
  }
}

void StreamServer::ArmBlockedTimer(const std::shared_ptr<ConnState>& conn) {
  if (conn->blocked_timer_armed) return;
  conn->blocked_timer_armed = true;
  const size_t shard_index = static_cast<size_t>(conn->loop_index);
  const int64_t deadline = conn->blocked_since_ms + options_.send_timeout_ms;
  std::weak_ptr<ConnState> weak = conn;
  shards_[shard_index]->loop->timers().Schedule(
      deadline - EventLoopNowMs(), [this, shard_index, weak] {
        std::shared_ptr<ConnState> c = weak.lock();
        if (!c) return;
        c->blocked_timer_armed = false;
        if (c->phase == ConnState::Phase::kClosed) return;
        if (c->blocked_since_ms < 0) return;  // drained in the meantime
        if (EventLoopNowMs() - c->blocked_since_ms >=
            options_.send_timeout_ms) {
          LoopClose(shard_index, c,
                    "slow subscriber: send timed out after " +
                        std::to_string(options_.send_timeout_ms) + "ms",
                    /*evicted=*/true, /*preserve_session=*/true);
        } else {
          ArmBlockedTimer(c);  // re-blocked later; wait out the remainder
        }
      });
}

void StreamServer::LoopClose(size_t shard_index,
                             const std::shared_ptr<ConnState>& conn,
                             std::string reason, bool evicted,
                             bool preserve_session) {
  if (conn->phase == ConnState::Phase::kClosed) return;
  conn->phase = ConnState::Phase::kClosed;
  conn->closed.store(true, std::memory_order_release);
  LoopShard& shard = *shards_[shard_index];
  (void)shard.loop->backend()->Del(conn->fd);
  CloseSocket(conn->fd);
  shard.conns.erase(conn->fd);
  IngressEvent ev;
  ev.kind = IngressEvent::Kind::kClosed;
  ev.conn = conn;
  ev.reason = std::move(reason);
  ev.evicted = evicted;
  ev.preserve_session = preserve_session;
  shard.egress.push_back(std::move(ev));
}

void StreamServer::LoopDrainAndClose(const std::shared_ptr<ConnState>& conn) {
  if (conn->phase == ConnState::Phase::kClosed) return;
  // The engine already did the eviction bookkeeping; the kClosed event this
  // eventually stages is deduped by `finalized`, so the verdict is inert.
  conn->phase = ConnState::Phase::kDraining;
  conn->pending_close_reason = "evicted";
  conn->pending_close_evicted = false;
  conn->pending_close_preserve = false;
  LoopFlush(conn);
}

void StreamServer::FlushEgress(size_t shard_index) {
  LoopShard& shard = *shards_[shard_index];
  if (shard.egress.empty()) return;
  Status st = shard.ingress.TryPushBatch(&shard.egress);
  if (st.ok()) {
    shard.stalled = false;
    NotifyEngine();
    if (!shard.pending_reads.empty()) {
      std::vector<std::shared_ptr<ConnState>> pending;
      pending.swap(shard.pending_reads);
      for (auto& conn : pending) {
        conn->read_pending = false;
        if (conn->phase == ConnState::Phase::kOpen) {
          HandleReadable(shard_index, conn);
        }
      }
      // Resumed reads may have staged fresh egress; try once more now
      // rather than waiting out a poll.
      if (!shard.egress.empty()) {
        st = shard.ingress.TryPushBatch(&shard.egress);
        if (st.ok()) {
          NotifyEngine();
        } else if (st.code() != StatusCode::kCancelled) {
          shard.stalled = true;
          ArmEgressRetry(shard_index);
        }
      }
    }
    return;
  }
  if (st.code() == StatusCode::kCancelled) {
    shard.egress.clear();  // queue closed: shutting down
    return;
  }
  shard.stalled = true;
  ArmEgressRetry(shard_index);
}

void StreamServer::ArmEgressRetry(size_t shard_index) {
  LoopShard& shard = *shards_[shard_index];
  if (shard.retry_armed) return;
  shard.retry_armed = true;
  shard.loop->timers().Schedule(1, [this, shard_index] {
    shards_[shard_index]->retry_armed = false;
    FlushEgress(shard_index);
  });
}

void StreamServer::ScheduleIdleCheck(const std::shared_ptr<ConnState>& conn,
                                     int64_t delay_ms) {
  const size_t shard_index = static_cast<size_t>(conn->loop_index);
  std::weak_ptr<ConnState> weak = conn;
  shards_[shard_index]->loop->timers().Schedule(
      delay_ms, [this, shard_index, weak] {
        std::shared_ptr<ConnState> c = weak.lock();
        if (!c || c->phase != ConnState::Phase::kOpen) return;
        const int64_t idle = EventLoopNowMs() - c->last_activity_ms;
        if (idle >= options_.idle_timeout_ms) {
          // Heartbeat supervision: any frame (PING included) resets the
          // clock; silence past the deadline detaches the session.
          LoopClose(shard_index, c,
                    "idle timeout (" +
                        std::to_string(options_.idle_timeout_ms) +
                        "ms without a frame)",
                    /*evicted=*/true, /*preserve_session=*/true);
        } else {
          ScheduleIdleCheck(c, options_.idle_timeout_ms - idle);
        }
      });
}

// ---- engine-thread side ----------------------------------------------------

void StreamServer::NotifyEngine() {
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    wake_pending_ = true;
  }
  wake_cv_.notify_one();
}

void StreamServer::EngineMain() {
  std::vector<IngressEvent> batch;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(wake_mu_);
      wake_cv_.wait(lock, [&] { return wake_pending_ || engine_stop_; });
      if (engine_stop_) return;
      wake_pending_ = false;
    }
    DrainAndRun(&batch);
  }
}

void StreamServer::DrainAndRun(std::vector<IngressEvent>* batch) {
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto& shard : shards_) {
      while (shard->ingress.TryDrainInto(batch)) {
        progress = true;
        for (IngressEvent& ev : *batch) ProcessEvent(ev);
      }
    }
    if (service_->PollWork()) {
      RunEpochAndFlush();
      progress = true;
    }
  }
}

void StreamServer::ProcessEvent(IngressEvent& ev) {
  switch (ev.kind) {
    case IngressEvent::Kind::kClosed:
      if (!ev.conn->finalized.exchange(true, std::memory_order_acq_rel)) {
        FinalizeBookkeeping(ev.conn, ev.reason, ev.evicted,
                            ev.preserve_session);
      }
      return;
    case IngressEvent::Kind::kPush: {
      if (ev.conn->finalized.load(std::memory_order_acquire)) return;
      Status st = HandlePush(ev.conn, std::move(*ev.push));
      if (!st.ok()) {
        EvictFromEngine(ev.conn, st.message(), /*preserve_session=*/false);
      }
      return;
    }
    case IngressEvent::Kind::kFrame: {
      if (ev.conn->finalized.load(std::memory_order_acquire)) return;
      if (!ev.conn->registered.load(std::memory_order_acquire)) {
        Handshake(ev.conn, ev.frame);
        return;
      }
      Status st = HandleFrame(ev.conn, ev.frame);
      if (!st.ok()) {
        EvictFromEngine(ev.conn, st.message(), /*preserve_session=*/false);
      }
      return;
    }
  }
}

void StreamServer::Handshake(const std::shared_ptr<ConnState>& conn,
                             const Frame& frame) {
  // The first frame must be HELLO; the ack carries the stream catalog
  // (schema negotiation), this connection's credit window, and the session
  // it is attached to (fresh, or a resumed detached one).
  auto fail = [&](const std::string& why) {
    if (!conn->finalized.exchange(true, std::memory_order_acq_rel)) {
      FinalizeBookkeeping(conn, why, /*evicted=*/false,
                          /*preserve_session=*/false);
      conn->loop->Post([this, conn] { LoopDrainAndClose(conn); });
    }
  };
  if (frame.type != FrameType::kHello) {
    fail("handshake violation");
    return;
  }
  Result<HelloPayload> h = DecodeHello(frame.payload);
  if (!h.ok()) {
    EnqueueError(conn, Status::ParseError("malformed HELLO: " +
                                          h.status().message()));
    fail("malformed HELLO");
    return;
  }
  if (h->version < kMinWireProtocolVersion ||
      h->version > kWireProtocolVersion) {
    EnqueueError(conn, Status::InvalidArgument(
                           "unsupported protocol version " +
                           std::to_string(h->version) + " (server speaks " +
                           std::to_string(kWireProtocolVersion) + ")"));
    fail("unsupported protocol version");
    return;
  }
  conn->name = h->client_name;
  HelloAckPayload ack;
  ack.initial_credits = options_.initial_credits;
  ack.streams = service_->ListStreams();
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    Session* resumed = nullptr;
    if (h->session_id != 0) {
      auto it = sessions_.find(h->session_id);
      // The token gates resume; a detached_at_ms < 0 session still has a
      // live connection attached and cannot be hijacked. An unknown /
      // expired / mismatched id falls through to a fresh session
      // (resumed=0): the client learns its old identity is gone and
      // re-subscribes itself.
      if (it != sessions_.end() && it->second.token == h->session_token &&
          it->second.detached_at_ms >= 0) {
        resumed = &it->second;
      }
    }
    if (resumed != nullptr) {
      resumed->detached_at_ms = -1;
      conn->session_id = resumed->id;
      if (!resumed->client_name.empty()) conn->name = resumed->client_name;
      // Reinstate the session's result routing, skipping any query a newer
      // subscriber claimed during the gap.
      for (QueryId q : resumed->subscriptions) {
        auto [it2, inserted] = subscribers_.emplace(q, conn);
        (void)it2;
        if (inserted) conn->subscriptions.push_back(q);
      }
      resumed->subscriptions.clear();
      ++sessions_resumed_;
      ack.resumed = 1;
      ack.session_id = resumed->id;
      ack.session_token = resumed->token;
      PersistSessionLocked(*resumed, &conn->subscriptions, -1);
    } else {
      Session fresh;
      fresh.id = next_session_id_++;
      fresh.token = session_rng_.Next();
      fresh.client_name = conn->name;
      conn->session_id = fresh.id;
      ack.session_id = fresh.id;
      ack.session_token = fresh.token;
      auto [sit, inserted] = sessions_.emplace(fresh.id, std::move(fresh));
      (void)inserted;
      PersistSessionLocked(sit->second, nullptr, -1);
    }
  }
  conn->credits = options_.initial_credits;
  conn->registered.store(true, std::memory_order_release);
  engine_conns_.emplace(conn->id, conn);
  std::string payload;
  EncodeHelloAck(ack, &payload);
  EnqueueFrame(conn, FrameType::kHelloAck, payload);
  if (ack.resumed != 0) {
    service_->metrics()->AddCounter("net.sessions_resumed");
  }
}

Status StreamServer::HandleFrame(const std::shared_ptr<ConnState>& conn,
                                 const Frame& frame) {
  switch (frame.type) {
    case FrameType::kRegisterRole: {
      size_t off = 0;
      Result<std::string> name = GetLengthPrefixed(frame.payload, &off);
      if (!name.ok()) return name.status();
      const RoleId id = service_->RegisterRole(*name);
      EnqueueOk(conn, id);
      return Status::OK();
    }
    case FrameType::kRegisterStream: {
      size_t off = 0;
      Result<SchemaPtr> schema = DecodeSchema(frame.payload, &off);
      if (!schema.ok()) return schema.status();
      Result<StreamId> sid = service_->RegisterStream(std::move(*schema));
      if (!sid.ok()) {
        EnqueueError(conn, sid.status());
        return Status::OK();
      }
      EnqueueOk(conn, *sid);
      return Status::OK();
    }
    case FrameType::kRegisterSubject: {
      Result<RegisterSubjectPayload> p = DecodeRegisterSubject(frame.payload);
      if (!p.ok()) return p.status();
      Status st = service_->RegisterSubject(p->name, p->roles);
      if (!st.ok()) {
        EnqueueError(conn, st);
        return Status::OK();
      }
      EnqueueOk(conn, 0);
      return Status::OK();
    }
    case FrameType::kRegisterQuery: {
      Result<RegisterQueryPayload> p = DecodeRegisterQuery(frame.payload);
      if (!p.ok()) return p.status();
      Result<QueryId> qid = service_->RegisterQuery(p->subject, p->sql);
      if (!qid.ok()) {
        EnqueueError(conn, qid.status());
        return Status::OK();
      }
      EnqueueOk(conn, *qid);
      return Status::OK();
    }
    case FrameType::kSubscribe: {
      size_t off = 0;
      Result<uint64_t> qid = GetVarint(frame.payload, &off);
      if (!qid.ok()) return qid.status();
      const QueryId id = static_cast<QueryId>(*qid);
      const size_t nqueries = service_->WithEngine(
          [](SpStreamEngine* e) { return e->query_count(); });
      if (id >= nqueries) {
        EnqueueError(conn, Status::NotFound("subscribe: no query with id " +
                                            std::to_string(id)));
        return Status::OK();
      }
      auto [it, inserted] = subscribers_.emplace(id, conn);
      const bool taken = !inserted && it->second != conn;
      if (inserted) {
        conn->subscriptions.push_back(id);
        // Mirror eagerly: the subscription must be in the WAL before the
        // client can observe the OK, or a crash right after the ack would
        // lose the resume linkage.
        if (conn->session_id != 0) {
          std::lock_guard<std::mutex> lock(sessions_mu_);
          auto sit = sessions_.find(conn->session_id);
          if (sit != sessions_.end()) {
            PersistSessionLocked(sit->second, &conn->subscriptions, -1);
          }
        }
      }
      if (taken) {
        EnqueueError(conn,
                     Status::AlreadyExists(
                         "query " + std::to_string(id) +
                         " already has a subscriber (results are drained; "
                         "one subscriber per query)"));
        return Status::OK();
      }
      EnqueueOk(conn, id);
      return Status::OK();
    }
    case FrameType::kInsertSp: {
      size_t off = 0;
      Result<std::string> sql = GetLengthPrefixed(frame.payload, &off);
      if (!sql.ok()) return sql.status();
      Status st = service_->ExecuteInsertSp(*sql);
      if (!st.ok()) {
        EnqueueError(conn, st);
        return Status::OK();
      }
      EnqueueOk(conn, 0);
      return Status::OK();
    }
    case FrameType::kPush: {
      // Normally decoded on the loop; a PUSH that raced the handshake (same
      // read pass as HELLO) arrives here still encoded.
      Result<PushPayload> push = DecodePush(frame.payload);
      if (!push.ok()) return push.status();
      return HandlePush(conn, std::move(*push));
    }
    case FrameType::kRun:
      return HandleRun(conn);
    case FrameType::kPing:
      // Heartbeat racing the handshake (the loop answers once registered).
      EnqueueFrame(conn, FrameType::kPong, frame.payload);
      return Status::OK();
    default:
      // Anything else from a client is a protocol violation.
      EnqueueError(conn, Status::InvalidArgument(
                             std::string("unexpected frame ") +
                             FrameTypeName(frame.type)));
      return Status::InvalidArgument("protocol violation: unexpected frame");
  }
}

Status StreamServer::HandlePush(const std::shared_ptr<ConnState>& conn,
                                PushPayload push) {
  const uint64_t cost = push.elements.size();
  // Join the client's trace when the frame carries v3 context; otherwise
  // (older client, or client-side tracing off) derive the sp-batch trace
  // server-side so the push still connects to the engine's install spans.
  TraceId push_trace = push.trace_id;
  if (push_trace == 0 && SP_TRACE_ENABLED()) {
    for (const StreamElement& e : push.elements) {
      if (e.is_sp() && Tracer::Global().SampleSpBatch(e.ts())) {
        push_trace = SpBatchTraceId(e.ts());
        break;
      }
    }
  }
  TraceSpan push_span(TraceCat::kNet, "server.push", push_trace,
                      static_cast<int64_t>(cost),
                      static_cast<int64_t>(push.stream),
                      /*parent=*/push.span_id != 0 ? push.span_id
                                                   : kInheritParent);
  ScopedTraceContext push_ctx(push_trace);
  if (cost > conn->credits) {
    EnqueueError(conn, Status::InvalidArgument(
                           "credit overdraft: pushed " + std::to_string(cost) +
                           " elements with " + std::to_string(conn->credits) +
                           " credits"));
    return Status::InvalidArgument("credit overdraft");
  }
  conn->credits -= cost;
  if (conn->credits == 0) {
    conn->credit_stalls.fetch_add(1, std::memory_order_relaxed);
  }
  // Credits were reserved above; a rejected batch refunds them (the
  // elements never reached the engine, so no epoch will replenish them).
  Result<std::string> stream = service_->StreamName(push.stream);
  if (!stream.ok()) {
    conn->credits += cost;
    EnqueueError(conn, stream.status());
    return Status::OK();
  }
  // unacked is bumped inside the engine lock, atomically with admission:
  // the replenish pass runs under the same lock, so a CREDIT frame can only
  // ever cover elements an epoch has actually drained — never elements
  // still queued behind a running epoch.
  Status st = service_->Push(*stream, std::move(push.elements),
                             [&] { conn->unacked += cost; });
  if (!st.ok()) {
    conn->credits += cost;
    EnqueueError(conn, st);
    return Status::OK();
  }
  service_->metrics()->AddCounter("net.elements_pushed",
                                  static_cast<int64_t>(cost));
  return Status::OK();  // pipelined: no per-push ack, credits are the flow
}

Status StreamServer::HandleRun(const std::shared_ptr<ConnState>& conn) {
  const uint64_t target = service_->RequestEpoch();
  // The engine thread is the sole epoch runner: consume the work mark and
  // run the requested epoch inline, then ack. Per-socket FIFO guarantees
  // the RUN ack never overtakes the epoch's RESULT frames.
  if (service_->PollWork()) RunEpochAndFlush();
  EnqueueOk(conn, target);
  return Status::OK();
}

void StreamServer::RunEpochAndFlush() {
  struct Outbound {
    std::shared_ptr<ConnState> conn;
    FrameType type;
    std::string payload;
  };
  std::vector<Outbound> out;
  const uint64_t epoch = service_->RunEpoch([&](SpStreamEngine* engine) {
    // Under the engine lock: drain each subscriber's results and
    // snapshot credit consumption, atomically with the epoch.
    for (auto& [qid, conn] : subscribers_) {
      Result<std::vector<Tuple>> rows = engine->TakeResults(qid);
      if (!rows.ok() || rows->empty()) continue;
      // Chunked: an epoch whose output amplifies past the frame limit
      // ships as several RESULT frames the subscriber banks by query id.
      for (std::string& payload : EncodeResultChunks(qid, *rows)) {
        out.push_back({conn, FrameType::kResult, std::move(payload)});
      }
    }
    // Coalesced replenishment: ONE CREDIT frame per connection per epoch,
    // covering every element the epoch drained across all of its batches.
    for (auto& [id, conn] : engine_conns_) {
      if (conn->unacked == 0) continue;
      std::string payload;
      PutVarint(conn->unacked, &payload);
      conn->credits += conn->unacked;
      conn->unacked = 0;
      out.push_back({conn, FrameType::kCredit, std::move(payload)});
    }
  });
  // Enqueues happen outside the engine lock: a slow subscriber stalls only
  // itself (until the write-block timer or outbound cap evicts it), never
  // the epoch loop.
  for (Outbound& ob : out) {
    // Delivery spans attach to the trace of the epoch that produced the
    // frames (still published by the engine after Run() returns).
    TraceSpan send_span(TraceCat::kNet,
                        ob.type == FrameType::kResult ? "server.send_result"
                                                      : "server.send_credit",
                        Tracer::Global().epoch_trace(),
                        static_cast<int64_t>(ob.payload.size()),
                        static_cast<int64_t>(ob.conn->id));
    EnqueueFrame(ob.conn, ob.type, ob.payload);
    if (ob.type == FrameType::kResult) {
      service_->metrics()->AddCounter("net.result_frames");
    } else {
      service_->metrics()->AddCounter("net.credit_frames");
    }
  }
  service_->MarkEpochComplete(epoch);
  // Refresh per-connection observability gauges once per epoch.
  for (auto& [id, conn] : engine_conns_) PublishConnGauges(*conn);
  service_->metrics()->SetGauge("net.connections_active",
                                static_cast<int64_t>(engine_conns_.size()));
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    service_->metrics()->SetGauge("net.sessions",
                                  static_cast<int64_t>(sessions_.size()));
  }
}

void StreamServer::EnqueueFrame(const std::shared_ptr<ConnState>& conn,
                                FrameType type, std::string_view payload) {
  switch (conn->Enqueue(type, payload, options_.max_outbound_bytes)) {
    case ConnState::EnqueueStatus::kQueued:
      ScheduleFlush(conn);
      return;
    case ConnState::EnqueueStatus::kOverflow:
      EvictFromEngine(conn,
                      "slow subscriber: outbound buffer overflow (>" +
                          std::to_string(options_.max_outbound_bytes) +
                          " bytes buffered)",
                      /*preserve_session=*/true);
      return;
    case ConnState::EnqueueStatus::kClosed:
      return;  // at-most-once: frames racing a close are dropped
  }
}

void StreamServer::EnqueueOk(const std::shared_ptr<ConnState>& conn,
                             uint64_t value) {
  std::string payload;
  PutVarint(value, &payload);
  EnqueueFrame(conn, FrameType::kOk, payload);
}

void StreamServer::EnqueueError(const std::shared_ptr<ConnState>& conn,
                                const Status& error) {
  std::string payload;
  EncodeError(error, &payload);
  EnqueueFrame(conn, FrameType::kError, payload);
}

void StreamServer::EvictFromEngine(const std::shared_ptr<ConnState>& conn,
                                   const std::string& reason,
                                   bool preserve_session) {
  if (conn->finalized.exchange(true, std::memory_order_acq_rel)) return;
  // Bookkeeping runs NOW, synchronously: counters and the audit trail are
  // visible the moment the decision is made, even though the loop flushes
  // the farewell ERROR frame and closes the fd asynchronously.
  FinalizeBookkeeping(conn, reason, /*evicted=*/true, preserve_session);
  conn->loop->Post([this, conn] { LoopDrainAndClose(conn); });
}

void StreamServer::FinalizeBookkeeping(const std::shared_ptr<ConnState>& conn,
                                       const std::string& reason, bool evicted,
                                       bool preserve_session) {
  for (QueryId q : conn->subscriptions) {
    auto it = subscribers_.find(q);
    if (it != subscribers_.end() && it->second == conn) subscribers_.erase(it);
  }
  // BYE / protocol violations forfeit the session (preserve=false); abrupt
  // disconnects and preserved evictions detach it for resume.
  ReleaseSession(conn, preserve_session);
  conn->subscriptions.clear();
  engine_conns_.erase(conn->id);
  if (evicted) {
    evictions_.fetch_add(1, std::memory_order_relaxed);
    service_->metrics()->AddCounter("net.evictions");
    // Flight-recorder dump: an eviction (slow subscriber, idle timeout,
    // protocol violation) is an incident worth the recent span history.
    const TraceId evict_trace = Tracer::Global().epoch_trace();
    Tracer::Global().NoteIncident("net_eviction", evict_trace);
    AuditEvent e;
    e.kind = AuditEventKind::kNetEviction;
    e.scope = "net.conn" + std::to_string(conn->id);
    e.detail = "evicted '" + conn->name + "': " + reason;
    e.trace_id = evict_trace;
    service_->audit()->Append(std::move(e));
    if (durability_ != nullptr) {
      // Incident dump: the eviction just snapshotted the flight recorder;
      // persist the audit tail (including the event above) alongside it.
      (void)durability_->FlushAuditTail(*service_->audit());
    }
  }
  // Retire the connection's gauge namespace. Without this a server with
  // connection churn grows the metrics registry forever.
  service_->metrics()->RemoveGaugesWithPrefix(
      "net.conn" + std::to_string(conn->id) + ".");
}

void StreamServer::ReleaseSession(const std::shared_ptr<ConnState>& conn,
                                  bool preserve) {
  if (conn->session_id == 0) return;
  bool schedule_sweep = false;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    auto it = sessions_.find(conn->session_id);
    if (it != sessions_.end()) {
      if (preserve) {
        it->second.subscriptions = conn->subscriptions;
        it->second.detached_at_ms = EventLoopNowMs();
        PersistSessionLocked(it->second, &it->second.subscriptions,
                             it->second.detached_at_ms);
        schedule_sweep = true;
      } else {
        if (durability_ != nullptr) {
          (void)durability_->LogSessionErase(it->first);
        }
        sessions_.erase(it);
      }
    }
  }
  conn->session_id = 0;
  if (schedule_sweep) ScheduleSessionSweep(options_.session_linger_ms + 6);
}

void StreamServer::PersistSessionLocked(
    const Session& session, const std::vector<QueryId>* subscriptions,
    int64_t detached_at_ms) {
  if (durability_ == nullptr) return;
  storage::DurableSession d;
  d.id = session.id;
  d.token = session.token;
  d.client_name = session.client_name;
  if (subscriptions != nullptr) {
    d.subscriptions.reserve(subscriptions->size());
    for (QueryId q : *subscriptions) {
      d.subscriptions.push_back(static_cast<uint32_t>(q));
    }
  }
  d.detached_at_ms = detached_at_ms;
  (void)durability_->LogSessionUpsert(d);
}

void StreamServer::SweepSessions() {
  const int64_t now = EventLoopNowMs();
  int64_t next_delay = -1;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    sweep_armed_ = false;
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      if (it->second.detached_at_ms >= 0 &&
          now - it->second.detached_at_ms > options_.session_linger_ms) {
        // Expired: the resume token is gone and a later HELLO presenting
        // it starts fresh.
        if (durability_ != nullptr) {
          (void)durability_->LogSessionErase(it->first);
        }
        it = sessions_.erase(it);
        ++sessions_expired_;
      } else {
        if (it->second.detached_at_ms >= 0) {
          const int64_t due = it->second.detached_at_ms +
                              options_.session_linger_ms + 1 - now;
          if (next_delay < 0 || due < next_delay) next_delay = due;
        }
        ++it;
      }
    }
  }
  if (next_delay >= 0) ScheduleSessionSweep(next_delay + 5);
}

void StreamServer::ScheduleSessionSweep(int64_t delay_ms) {
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    if (sweep_armed_) return;
    sweep_armed_ = true;
  }
  if (shards_.empty()) return;
  // The linger timer lives on shard 0's wheel; SweepSessions() itself is
  // safe from any thread (sessions_mu_).
  EventLoop* loop = shards_[0]->loop.get();
  loop->Post([this, loop, delay_ms] {
    loop->timers().Schedule(delay_ms, [this] { SweepSessions(); });
  });
}

void StreamServer::PublishConnGauges(const ConnState& conn) {
  MetricsRegistry* m = service_->metrics();
  const std::string prefix = "net.conn" + std::to_string(conn.id) + ".";
  m->SetGauge(prefix + "frames_in",
              conn.frames_in.load(std::memory_order_relaxed));
  m->SetGauge(prefix + "frames_out",
              conn.frames_out.load(std::memory_order_relaxed));
  m->SetGauge(prefix + "bytes_in",
              conn.bytes_in.load(std::memory_order_relaxed));
  m->SetGauge(prefix + "bytes_out",
              conn.bytes_out.load(std::memory_order_relaxed));
  m->SetGauge(prefix + "credit_stalls",
              conn.credit_stalls.load(std::memory_order_relaxed));
}

}  // namespace spstream
