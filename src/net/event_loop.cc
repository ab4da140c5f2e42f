#include "net/event_loop.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>
#include <utility>

namespace spstream {

int64_t EventLoopNowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- epoll backend ---------------------------------------------------------

namespace {
constexpr int kMaxEvents = 256;
}  // namespace

EpollBackend::~EpollBackend() {
  if (epfd_ >= 0) ::close(epfd_);
}

Status EpollBackend::Open() {
  epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epfd_ < 0) {
    return Status::Internal(std::string("net: epoll_create1: ") +
                            std::strerror(errno));
  }
  return Status::OK();
}

Status EpollBackend::Add(int fd, bool want_write, bool edge_triggered) {
  return Ctl(EPOLL_CTL_ADD, fd, want_write, edge_triggered);
}

Status EpollBackend::Mod(int fd, bool want_write) {
  return Ctl(EPOLL_CTL_MOD, fd, want_write, /*edge_triggered=*/true);
}

Status EpollBackend::Del(int fd) {
  if (::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr) < 0) {
    return Status::Internal(std::string("net: epoll_ctl(DEL): ") +
                            std::strerror(errno));
  }
  return Status::OK();
}

Result<size_t> EpollBackend::Wait(std::vector<Ready>* out, int timeout_ms) {
  out->clear();
  epoll_event events[kMaxEvents];
  int n;
  for (;;) {
    n = ::epoll_wait(epfd_, events, kMaxEvents, timeout_ms);
    if (n >= 0) break;
    if (errno == EINTR) continue;
    return Status::Internal(std::string("net: epoll_wait: ") +
                            std::strerror(errno));
  }
  out->reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    Ready r;
    r.fd = events[i].data.fd;
    r.readable = (events[i].events & (EPOLLIN | EPOLLRDHUP)) != 0;
    r.writable = (events[i].events & EPOLLOUT) != 0;
    r.hangup = (events[i].events & (EPOLLHUP | EPOLLERR | EPOLLRDHUP)) != 0;
    out->push_back(r);
  }
  return static_cast<size_t>(n);
}

Status EpollBackend::Ctl(int op, int fd, bool want_write, bool edge_triggered) {
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLRDHUP;
  if (edge_triggered) ev.events |= EPOLLET;
  if (want_write) ev.events |= EPOLLOUT;
  ev.data.fd = fd;
  if (::epoll_ctl(epfd_, op, fd, &ev) < 0) {
    return Status::Internal(std::string("net: epoll_ctl: ") +
                            std::strerror(errno));
  }
  return Status::OK();
}

// ---- timer wheel -----------------------------------------------------------

TimerWheel::TimerWheel(int64_t now_ms, int tick_ms, size_t slots)
    : tick_ms_(tick_ms > 0 ? tick_ms : 1),
      slots_(slots > 0 ? slots : 1),
      last_tick_(now_ms / tick_ms_) {}

void TimerWheel::Schedule(int64_t delay_ms, std::function<void()> fn) {
  if (delay_ms < 0) delay_ms = 0;
  const int64_t due_ms = last_tick_ * tick_ms_ + delay_ms;
  // Bucket by due tick; Advance() re-checks due_ms, so a deadline past the
  // wheel's horizon just lingers in its slot across extra revolutions.
  const int64_t due_tick = (due_ms + tick_ms_ - 1) / tick_ms_;
  slots_[static_cast<size_t>(due_tick) % slots_.size()].push_back(
      {due_ms, std::move(fn)});
  ++armed_;
}

void TimerWheel::Advance(int64_t now_ms) {
  const int64_t now_tick = now_ms / tick_ms_;
  if (now_tick <= last_tick_) return;
  // Cap the walk at one full revolution: beyond that every slot has been
  // visited once, which is all a hashed wheel needs per Advance.
  const int64_t steps =
      std::min<int64_t>(now_tick - last_tick_,
                        static_cast<int64_t>(slots_.size()));
  for (int64_t i = 1; i <= steps; ++i) {
    const int64_t tick = last_tick_ + i;
    auto& slot = slots_[static_cast<size_t>(tick) % slots_.size()];
    for (size_t j = 0; j < slot.size();) {
      if (slot[j].due_ms <= now_ms) {
        auto fn = std::move(slot[j].fn);
        slot[j] = std::move(slot.back());
        slot.pop_back();
        --armed_;
        fn();  // may Schedule(); safe: appends to (possibly this) slot
      } else {
        ++j;
      }
    }
  }
  last_tick_ = now_tick;
}

int TimerWheel::NextTimeoutMs(int64_t now_ms) const {
  if (armed_ == 0) return -1;
  const int64_t next_tick_ms = (now_ms / tick_ms_ + 1) * tick_ms_;
  const int64_t wait = next_tick_ms - now_ms;
  return static_cast<int>(wait > 0 ? wait : 0);
}

// ---- event loop ------------------------------------------------------------

EventLoop::EventLoop() : timers_(EventLoopNowMs()) {}

EventLoop::~EventLoop() {
  if (wakeup_fd_ >= 0) ::close(wakeup_fd_);
}

Status EventLoop::Init() {
  SP_RETURN_NOT_OK(backend_.Open());
  wakeup_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wakeup_fd_ < 0) {
    return Status::Internal(std::string("net: eventfd: ") +
                            std::strerror(errno));
  }
  // Level-triggered: a Wakeup() racing the drain below leaves the counter
  // nonzero, which keeps the next Wait from blocking — an edge-triggered
  // registration could have its edge consumed by a drain that ran before
  // the corresponding task/stop flag was visible, losing the wakeup.
  return backend_.Add(wakeup_fd_, /*want_write=*/false,
                       /*edge_triggered=*/false);
}

void EventLoop::Run() {
  std::vector<EpollBackend::Ready> ready;
  std::vector<std::function<void()>> tasks;
  for (;;) {
    const int timeout_ms = timers_.NextTimeoutMs(EventLoopNowMs());
    Result<size_t> n = backend_.Wait(&ready, timeout_ms);
    if (!n.ok()) return;  // backend broken: nothing sane left to do
    // Drain BEFORE reading the stop flag / task queue: wakers write their
    // state first and the eventfd second, so anything drained here is
    // visible in the swap below. A write landing after this drain leaves
    // the (level-triggered) counter nonzero and re-wakes the next Wait.
    DrainWakeupFd();
    {
      std::lock_guard<std::mutex> lock(task_mu_);
      if (stop_requested_) return;
      tasks.swap(tasks_);
    }
    // Tasks first: cross-thread work (frame enqueues, closes) must land
    // before this poll's readiness hints are interpreted.
    for (auto& task : tasks) task();
    tasks.clear();
    for (const EpollBackend::Ready& r : ready) {
      if (r.fd == wakeup_fd_) continue;  // drained above
      if (io_handler_) io_handler_(r);
    }
    timers_.Advance(EventLoopNowMs());
    if (tick_handler_) tick_handler_();
  }
}

void EventLoop::RequestStop() {
  {
    std::lock_guard<std::mutex> lock(task_mu_);
    stop_requested_ = true;
  }
  Wakeup();
}

void EventLoop::Post(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(task_mu_);
    tasks_.push_back(std::move(task));
  }
  Wakeup();
}

void EventLoop::Wakeup() {
  if (wakeup_fd_ < 0) return;
  const uint64_t one = 1;
  ssize_t r;
  do {
    r = ::write(wakeup_fd_, &one, sizeof(one));
  } while (r < 0 && errno == EINTR);
  // EAGAIN means the counter is saturated — the loop is already waking.
}

void EventLoop::DrainWakeupFd() {
  uint64_t count = 0;
  while (::read(wakeup_fd_, &count, sizeof(count)) > 0) {
  }
}

}  // namespace spstream
