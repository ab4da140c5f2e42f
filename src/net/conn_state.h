// Per-connection state machine for the reactor server (docs/NETWORK.md).
//
// A ConnState replaces the old per-connection reader thread: its read side
// accumulates bytes from a non-blocking socket into a partial-frame buffer
// and extracts whole wire frames; its write side is a buffered outbound
// queue flushed with writev scatter-gather when the socket is writable.
//
// Thread ownership (enforced by convention, verified under TSan):
//   - read buffer, phase, timers, flush      -> the owning loop thread only
//   - credits, session, subscriptions, name  -> the engine thread only
//   - outbound queue                         -> out_mu (engine enqueues,
//                                               loop enqueues + flushes)
//   - counters and flags                     -> atomics
// The loop thread is the single closer of the fd; the engine thread learns
// of the close through exactly one kClosed ingress event.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/engine.h"  // QueryId
#include "net/wire.h"

namespace spstream {

class EventLoop;

struct ConnState {
  enum class Phase : uint8_t {
    kOpen,      ///< reading frames
    kDraining,  ///< close requested; flushing the outbound queue first
    kClosed,    ///< fd closed; kClosed event emitted
  };

  enum class EnqueueStatus {
    kQueued,    ///< frame buffered; schedule a flush
    kOverflow,  ///< outbound cap exceeded — a subscriber that stopped reading
    kClosed,    ///< connection already torn down; frame dropped
  };

  enum class FlushStatus {
    kDrained,  ///< outbound queue empty
    kBlocked,  ///< kernel buffer full (EAGAIN) — arm EPOLLOUT
    kError,    ///< write failed (peer gone, injected fault)
  };

  ConnState(int id, int fd, int loop_index, EventLoop* loop);

  /// \brief Loop thread: drain the socket to EAGAIN, appending every
  /// complete frame to `frames`. Returns true to keep the connection open,
  /// false when it must close (clean EOF, reset, or broken framing — all of
  /// which detach rather than evict, matching the blocking server).
  bool ReadFrames(std::vector<Frame>* frames);

  /// \brief Any thread: append one encoded frame to the outbound queue.
  /// `max_outbound_bytes` caps buffered output (0 = uncapped).
  EnqueueStatus Enqueue(FrameType type, std::string_view payload,
                        size_t max_outbound_bytes);

  /// \brief Loop thread: writev the outbound queue until drained or EAGAIN.
  /// On kError `error` holds the reason (eviction audit detail).
  FlushStatus Flush(std::string* error);

  // ---- identity --------------------------------------------------------
  const int id;
  const int fd;
  const int loop_index;
  EventLoop* const loop;

  // ---- loop-thread state ----------------------------------------------
  Phase phase = Phase::kOpen;
  int64_t last_activity_ms = 0;
  bool want_write = false;        ///< EPOLLOUT interest currently armed
  int64_t blocked_since_ms = -1;  ///< flush blocked since (-1 = not blocked)
  bool blocked_timer_armed = false;
  bool idle_timer_armed = false;
  bool read_pending = false;  ///< readable while ingress was stalled
  uint64_t shed_credit_owed = 0;  ///< coalesced CREDIT for shed frames
  // Deferred close verdict while kDraining (set by the close request).
  std::string pending_close_reason;
  bool pending_close_evicted = false;
  bool pending_close_preserve = false;

  // ---- engine-thread state --------------------------------------------
  std::string name;  ///< client-announced, for audit events
  uint64_t credits = 0;
  uint64_t unacked = 0;  ///< elements the next epoch's CREDIT covers
  std::vector<QueryId> subscriptions;
  uint64_t session_id = 0;

  // ---- shared ----------------------------------------------------------
  std::atomic<bool> registered{false};  ///< HELLO completed (loop: PING gate)
  std::atomic<bool> closed{false};      ///< fd closed by the loop
  /// First finalizer (engine eviction or kClosed processing) wins; the
  /// other side becomes a no-op, so eviction bookkeeping runs exactly once.
  std::atomic<bool> finalized{false};
  /// Set while a flush task is queued on the loop (dedups flush posts).
  std::atomic<bool> flush_scheduled{false};

  std::atomic<int64_t> frames_in{0};
  std::atomic<int64_t> frames_out{0};
  std::atomic<int64_t> bytes_in{0};
  std::atomic<int64_t> bytes_out{0};
  std::atomic<int64_t> credit_stalls{0};

 private:
  /// Extract complete frames from rbuf_; false on broken framing.
  bool ParseFrames(std::vector<Frame>* frames);

  // Partial-frame read buffer: unconsumed bytes live at [rpos_, size).
  std::string rbuf_;
  size_t rpos_ = 0;

  mutable std::mutex out_mu_;
  std::deque<std::string> outq_;  // encoded frames, FIFO
  size_t out_head_ = 0;           // bytes of outq_.front() already written
  size_t out_bytes_ = 0;
};

}  // namespace spstream
