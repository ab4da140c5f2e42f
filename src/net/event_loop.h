// The reactor's event-loop layer (docs/NETWORK.md "Threading model").
//
// An EventLoop owns one epoll instance, a set of non-blocking fds
// registered by the server, a cross-thread task queue woken through an
// eventfd, and a coarse timer wheel for idle/linger/flush deadlines. The loop thread is the ONLY thread that touches its fds —
// other threads communicate exclusively via Post()/Wakeup().
//
// Edge-triggered contract: the backend registers fds EPOLLET, so the
// io_handler must drain reads to EAGAIN and re-arm write interest itself;
// readiness events are hints keyed by fd (never pointers), which makes a
// stale event for a closed-and-recycled fd a harmless no-op lookup miss.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "common/status.h"

namespace spstream {

/// \brief The epoll(7) readiness surface (EPOLLET | EPOLLRDHUP), used from
/// its loop's thread only; cross-thread wakeup goes through an fd registered
/// like any other.
class EpollBackend {
 public:
  struct Ready {
    int fd = -1;
    bool readable = false;
    bool writable = false;
    /// Peer hangup / error: the fd needs a read pass (to observe EOF) and
    /// then teardown.
    bool hangup = false;
  };

  EpollBackend() = default;
  ~EpollBackend();

  EpollBackend(const EpollBackend&) = delete;
  EpollBackend& operator=(const EpollBackend&) = delete;

  /// \brief Create the epoll instance; call once, before any other method.
  Status Open();

  /// \brief Register `fd` for read (always) and, when `want_write`, write
  /// readiness. Edge-triggered by default; `edge_triggered=false` registers
  /// level-triggered — used for the wakeup eventfd, where level semantics
  /// make lost wakeups structurally impossible (an undrained write keeps
  /// the next Wait from blocking).
  Status Add(int fd, bool want_write, bool edge_triggered = true);
  /// \brief Change write-readiness interest for a registered fd.
  Status Mod(int fd, bool want_write);
  /// \brief Unregister; callers close the fd afterwards.
  Status Del(int fd);
  /// \brief Block up to `timeout_ms` (-1 = forever) and append readiness
  /// records to `out` (cleared first). Returns the number delivered; 0 on
  /// timeout. EINTR is retried internally.
  Result<size_t> Wait(std::vector<Ready>* out, int timeout_ms);

 private:
  Status Ctl(int op, int fd, bool want_write, bool edge_triggered);

  int epfd_ = -1;
};

/// \brief Coarse hashed timer wheel: deadlines bucketed into `tick_ms`
/// slots, fired from the loop thread by Advance(). One-shot callbacks; a
/// deadline further out than the wheel's horizon simply re-buckets as the
/// cursor passes it (classic hashed wheel), so precision is ~one tick and
/// cost is O(1) per schedule/fire. Loop-thread only.
class TimerWheel {
 public:
  explicit TimerWheel(int64_t now_ms, int tick_ms = 5, size_t slots = 512);

  /// \brief Fire `fn` once, ~`delay_ms` from now (rounded up to a tick).
  void Schedule(int64_t delay_ms, std::function<void()> fn);

  /// \brief Fire everything due at `now_ms`.
  void Advance(int64_t now_ms);

  /// \brief Poll timeout for the owning loop: -1 when nothing is armed,
  /// else the ms until the next tick boundary.
  int NextTimeoutMs(int64_t now_ms) const;

 private:
  struct Entry {
    int64_t due_ms;
    std::function<void()> fn;
  };

  const int tick_ms_;
  std::vector<std::vector<Entry>> slots_;
  int64_t last_tick_;  // wheel time in ticks, already advanced through
  size_t armed_ = 0;
};

/// \brief Steady-clock milliseconds (the loop's and wheel's time base).
int64_t EventLoopNowMs();

class EventLoop {
 public:
  /// Called on the loop thread for every readiness event on a registered
  /// fd (the wakeup eventfd is filtered out internally).
  using IoHandler = std::function<void(const EpollBackend::Ready&)>;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// \brief Open the epoll instance, create the wakeup eventfd and register
  /// it; call before Run().
  Status Init();

  void set_io_handler(IoHandler handler) { io_handler_ = std::move(handler); }
  /// \brief Invoked once per loop iteration after events and timers — the
  /// server retries ingress overflow and stalled reads here.
  void set_tick_handler(std::function<void()> handler) {
    tick_handler_ = std::move(handler);
  }

  /// \brief The loop body; returns when RequestStop() was called. Runs on
  /// the loop's dedicated thread.
  void Run();

  /// \brief Cross-thread: make Run() return after the current iteration.
  void RequestStop();

  /// \brief Cross-thread: run `task` on the loop thread (FIFO, before the
  /// next poll's events are handled).
  void Post(std::function<void()> task);

  /// \brief Cross-thread: force the loop out of Wait().
  void Wakeup();

  EpollBackend* backend() { return &backend_; }
  /// Loop-thread only.
  TimerWheel& timers() { return timers_; }

 private:
  void DrainWakeupFd();

  EpollBackend backend_;
  IoHandler io_handler_;
  std::function<void()> tick_handler_;
  TimerWheel timers_;
  int wakeup_fd_ = -1;

  std::mutex task_mu_;
  std::vector<std::function<void()>> tasks_;  // guarded by task_mu_
  bool stop_requested_ = false;               // guarded by task_mu_
};

}  // namespace spstream
