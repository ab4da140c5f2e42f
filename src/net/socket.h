// Thin POSIX TCP wrappers used by StreamServer/StreamClient: fallible
// Status/Result versions of listen/accept/connect plus framed I/O that moves
// whole wire frames (net/wire.h) across a blocking socket.
//
// Error taxonomy (callers branch on these):
//   - clean peer close at a frame boundary  -> StatusCode::kOutOfRange
//   - anything else (torn frame, ECONNRESET, EPIPE) -> kInternal
// Read timeouts never surface as errors: timed reads go through
// WaitReadable(), which returns Result<bool> (false == timed out) before
// the blocking ReadFrame() is entered.
#pragma once

#include <cstdint>
#include <string>

#include "common/status.h"
#include "net/wire.h"

namespace spstream {

/// \brief Non-blocking loopback listener on `port` (0 = kernel-chosen) with
/// SO_REUSEPORT set, so several listeners (one per event loop) can bind the
/// same port and the kernel load-balances accepts across them. Binding a
/// port that a socket without SO_REUSEPORT holds fails. Returns the fd.
Result<int> TcpListenReusePort(uint16_t port);

/// \brief The local port an fd is bound to (resolves port-0 listens).
Result<uint16_t> TcpLocalPort(int fd);

/// \brief Non-blocking accept for reactor loops: returns the connection fd
/// (TCP_NODELAY + O_NONBLOCK already set), or -1 when no connection is
/// pending (EAGAIN — wait for the next EPOLLIN on the listener).
Result<int> TcpAcceptNonBlocking(int listen_fd);

/// \brief Blocking connect to host:port (numeric or resolvable name).
Result<int> TcpConnect(const std::string& host, uint16_t port);

/// \brief Block until fd is readable; false on timeout (-1 = no timeout).
Result<bool> WaitReadable(int fd, int timeout_ms);

/// \brief Write all of `data` to a blocking socket (retrying short writes
/// and EINTR). Blocks while the peer does not read; a send error surfaces
/// as kInternal "net: send: <strerror>".
Status WriteAll(int fd, std::string_view data);

/// \brief Half-close + close, ignoring errors (idempotent teardown).
void CloseSocket(int fd);

// ---- framed I/O ------------------------------------------------------------

/// \brief Read one whole frame (blocking). Clean EOF at a frame boundary
/// returns kOutOfRange("net: connection closed"); torn frames and oversized
/// lengths are kInternal/kParseError.
Result<Frame> ReadFrame(int fd);

/// \brief Encode and write one frame.
Status WriteFrame(int fd, FrameType type, std::string_view payload);

}  // namespace spstream
