#include "net/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

namespace spstream {

namespace {

Status Errno(const std::string& what) {
  return Status::Internal("net: " + what + ": " + std::strerror(errno));
}

/// Read exactly n bytes; kOutOfRange on EOF before any byte when
/// `clean_eof_ok`, kInternal on every other failure.
Status ReadExact(int fd, char* buf, size_t n, bool clean_eof_ok) {
  size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, buf + got, n - got, 0);
    if (r == 0) {
      if (got == 0 && clean_eof_ok) {
        return Status::OutOfRange("net: connection closed");
      }
      return Status::Internal("net: connection closed mid-frame");
    }
    if (r < 0) {
      if (errno == EINTR) continue;
      return Errno("recv");
    }
    got += static_cast<size_t>(r);
  }
  return Status::OK();
}

}  // namespace

Result<int> TcpListenReusePort(uint16_t port) {
  // listen(2) backlog per listener; with one listener per loop the kernel
  // queue is this many times the loop count.
  constexpr int kListenBacklog = 128;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) return Errno("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) < 0) {
    Status st = Errno("setsockopt(SO_REUSEPORT)");
    ::close(fd);
    return st;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status st = Errno("bind");
    ::close(fd);
    return st;
  }
  if (::listen(fd, kListenBacklog) < 0) {
    Status st = Errno("listen");
    ::close(fd);
    return st;
  }
  return fd;
}

Result<uint16_t> TcpLocalPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    return Errno("getsockname");
  }
  return ntohs(addr.sin_port);
}

Result<int> TcpAcceptNonBlocking(int listen_fd) {
  for (;;) {
    const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd >= 0) {
      // Small frames (CREDIT, OK, PONG) must not sit behind Nagle.
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return fd;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return -1;
    return Errno("accept");
  }
}

Result<int> TcpConnect(const std::string& host, uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const int rc =
      ::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints, &res);
  if (rc != 0) {
    return Status::Internal("net: getaddrinfo(" + host +
                            "): " + gai_strerror(rc));
  }
  Status last = Status::Internal("net: no addresses for " + host);
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last = Errno("socket");
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      ::freeaddrinfo(res);
      return fd;
    }
    last = Errno("connect");
    ::close(fd);
  }
  ::freeaddrinfo(res);
  return last;
}

Result<bool> WaitReadable(int fd, int timeout_ms) {
  pollfd pfd{};
  pfd.fd = fd;
  pfd.events = POLLIN;
  for (;;) {
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc > 0) return true;
    if (rc == 0) return false;
    if (errno == EINTR) continue;
    return Errno("poll");
  }
}

Status WriteAll(int fd, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t r =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    sent += static_cast<size_t>(r);
  }
  return Status::OK();
}

void CloseSocket(int fd) {
  if (fd >= 0) ::close(fd);
}

Result<Frame> ReadFrame(int fd) {
  // Frame length arrives as a varint; read it byte by byte (≤ 10 bytes, and
  // the first byte decides clean-EOF vs torn-frame).
  uint64_t len = 0;
  int shift = 0;
  for (int i = 0;; ++i) {
    char c;
    SP_RETURN_NOT_OK(ReadExact(fd, &c, 1, /*clean_eof_ok=*/i == 0));
    const uint8_t b = static_cast<uint8_t>(c);
    len |= static_cast<uint64_t>(b & 0x7f) << shift;
    if (!(b & 0x80)) break;
    shift += 7;
    if (shift >= 64) {
      return Status::ParseError("net: overlong frame-length varint");
    }
  }
  if (len == 0) return Status::ParseError("net: empty frame");
  if (len > kMaxFrameBytes) {
    return Status::ParseError("net: frame of " + std::to_string(len) +
                              " bytes exceeds limit");
  }
  std::string body(len, '\0');
  SP_RETURN_NOT_OK(ReadExact(fd, body.data(), len, /*clean_eof_ok=*/false));
  Frame f;
  f.type = static_cast<FrameType>(static_cast<uint8_t>(body[0]));
  f.payload = body.substr(1);
  return f;
}

Status WriteFrame(int fd, FrameType type, std::string_view payload) {
  std::string buf;
  buf.reserve(payload.size() + 6);
  SP_RETURN_NOT_OK(AppendFrame(type, payload, &buf));
  return WriteAll(fd, buf);
}

}  // namespace spstream
