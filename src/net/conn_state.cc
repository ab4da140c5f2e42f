#include "net/conn_state.h"

#include <cerrno>
#include <cstring>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include "common/fault.h"

namespace spstream {

namespace {
// Compact the read buffer once the consumed prefix crosses this threshold;
// below it, moving bytes costs more than the memory is worth.
constexpr size_t kCompactThreshold = 1 << 20;
// writev batch width per syscall.
constexpr size_t kMaxIov = 16;
}  // namespace

ConnState::ConnState(int id_in, int fd_in, int loop_index_in,
                     EventLoop* loop_in)
    : id(id_in), fd(fd_in), loop_index(loop_index_in), loop(loop_in) {}

bool ConnState::ReadFrames(std::vector<Frame>* frames) {
  char chunk[64 * 1024];
  for (;;) {
    const ssize_t r = ::recv(fd, chunk, sizeof(chunk), 0);
    if (r > 0) {
      rbuf_.append(chunk, static_cast<size_t>(r));
      if (!ParseFrames(frames)) return false;
      continue;  // edge-triggered: drain to EAGAIN
    }
    if (r == 0) return false;  // clean EOF
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    return false;  // reset/torn connection: detach like an EOF
  }
}

bool ConnState::ParseFrames(std::vector<Frame>* frames) {
  for (;;) {
    // Varint frame length, then one type byte + payload.
    uint64_t len = 0;
    int shift = 0;
    size_t p = rpos_;
    bool have_len = false;
    while (p < rbuf_.size()) {
      const uint8_t b = static_cast<uint8_t>(rbuf_[p++]);
      len |= static_cast<uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) {
        have_len = true;
        break;
      }
      shift += 7;
      if (shift >= 64) return false;  // overlong varint: broken framing
    }
    if (!have_len) break;  // need more bytes for the length itself
    if (len == 0 || len > kMaxFrameBytes) return false;
    if (rbuf_.size() - p < len) {
      rbuf_.reserve(p + len);  // we know the frame size; one allocation
      break;
    }
    Frame frame;
    frame.type = static_cast<FrameType>(rbuf_[p]);
    frame.payload.assign(rbuf_, p + 1, len - 1);
    frames->push_back(std::move(frame));
    rpos_ = p + len;
    frames_in.fetch_add(1, std::memory_order_relaxed);
    bytes_in.fetch_add(static_cast<int64_t>(len) + 1,
                       std::memory_order_relaxed);
  }
  if (rpos_ == rbuf_.size()) {
    rbuf_.clear();
    rpos_ = 0;
  } else if (rpos_ > kCompactThreshold) {
    rbuf_.erase(0, rpos_);
    rpos_ = 0;
  }
  return true;
}

ConnState::EnqueueStatus ConnState::Enqueue(FrameType type,
                                            std::string_view payload,
                                            size_t max_outbound_bytes) {
  std::string encoded;
  encoded.reserve(payload.size() + 6);
  if (!AppendFrame(type, payload, &encoded).ok()) return EnqueueStatus::kOverflow;
  std::lock_guard<std::mutex> lock(out_mu_);
  if (closed.load(std::memory_order_acquire)) return EnqueueStatus::kClosed;
  if (max_outbound_bytes > 0 &&
      out_bytes_ + encoded.size() > max_outbound_bytes) {
    return EnqueueStatus::kOverflow;
  }
  out_bytes_ += encoded.size();
  outq_.push_back(std::move(encoded));
  frames_out.fetch_add(1, std::memory_order_relaxed);
  bytes_out.fetch_add(static_cast<int64_t>(payload.size()) + 2,
                      std::memory_order_relaxed);
  return EnqueueStatus::kQueued;
}

ConnState::FlushStatus ConnState::Flush(std::string* error) {
  bool fault_checked = false;
  for (;;) {
    iovec iov[kMaxIov];
    size_t iov_count = 0;
    {
      std::lock_guard<std::mutex> lock(out_mu_);
      size_t head = out_head_;
      for (const std::string& buf : outq_) {
        if (iov_count == kMaxIov) break;
        iov[iov_count].iov_base = const_cast<char*>(buf.data() + head);
        iov[iov_count].iov_len = buf.size() - head;
        ++iov_count;
        head = 0;
      }
    }
    if (iov_count == 0) return FlushStatus::kDrained;
    if (!fault_checked) {
      fault_checked = true;
      if (SP_FAULT_FIRED(fault::kNetWrite)) {
        *error = "injected fault: net.write";
        return FlushStatus::kError;
      }
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = iov_count;
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return FlushStatus::kBlocked;
      *error = std::string("net: send: ") + std::strerror(errno);
      return FlushStatus::kError;
    }
    std::lock_guard<std::mutex> lock(out_mu_);
    size_t remaining = static_cast<size_t>(n);
    out_bytes_ -= remaining;
    while (remaining > 0) {
      const size_t front_left = outq_.front().size() - out_head_;
      if (remaining >= front_left) {
        remaining -= front_left;
        outq_.pop_front();
        out_head_ = 0;
      } else {
        out_head_ += remaining;
        remaining = 0;
      }
    }
  }
}

}  // namespace spstream
