// Thin POSIX socket helpers shared by the serving layer, its tools, and the
// tests: loopback TCP listeners with ephemeral-port support, non-blocking
// mode, and EINTR-safe read/write wrappers. Everything here is mechanism —
// policy (framing, backpressure, rate limits) lives in src/serve.
//
// All failures throw icn::util::IoError naming the operation, consistent
// with the store/stream I/O boundaries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

namespace icn::util {

/// RAII file descriptor. Closes on destruction; movable, not copyable.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd();
  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept;
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  void close();

 private:
  int fd_ = -1;
};

/// Puts a descriptor in non-blocking mode. Throws IoError on failure.
void set_nonblocking(int fd);

/// Disables Nagle batching on a TCP socket (request/reply traffic sends
/// small frames that must not wait for an ACK). Best-effort: failure is
/// ignored, e.g. for non-TCP descriptors in tests.
void set_tcp_nodelay(int fd);

/// A non-blocking loopback (127.0.0.1) TCP listener. `port` 0 binds an
/// ephemeral port; the bound port is available as port().
class TcpListener {
 public:
  explicit TcpListener(std::uint16_t port, int backlog = 128);

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] int fd() const { return fd_.get(); }

  /// Accepts one pending connection as a non-blocking descriptor. Returns an
  /// invalid Fd when no connection is pending (EAGAIN). Throws IoError on
  /// other failures.
  [[nodiscard]] Fd accept_nonblocking();

 private:
  Fd fd_;
  std::uint16_t port_ = 0;
};

/// Blocking loopback connect, for clients (tools, tests, benches).
[[nodiscard]] Fd connect_loopback(std::uint16_t port);

/// Loopback connect with a deadline. Returns an invalid Fd on timeout or
/// connection failure, with the failing errno in *error_out (0 = timeout);
/// throws IoError only on local setup failures (socket/fcntl). The returned
/// descriptor is in blocking mode with TCP_NODELAY set. timeout_ms < 0
/// means wait indefinitely.
[[nodiscard]] Fd try_connect_loopback(std::uint16_t port, int timeout_ms,
                                      int* error_out);

/// EINTR-safe poll() on one descriptor: waits up to timeout_ms for any of
/// `events`, recomputing the remaining time across signal interruptions.
/// Returns the ready revents mask, or 0 on timeout. timeout_ms < 0 waits
/// indefinitely. Throws IoError on hard poll failures.
short poll_fd(int fd, short events, int timeout_ms);

/// One non-blocking read. Returns the byte count (> 0), 0 on EAGAIN, and -1
/// on orderly EOF. Throws IoError on hard errors (connection reset is
/// reported as EOF, not an error: a vanished client is normal server load).
std::ptrdiff_t read_some(int fd, std::span<std::uint8_t> buf);

/// One non-blocking write. Returns bytes written (>= 0; 0 on EAGAIN).
/// Throws IoError on hard errors other than EPIPE/ECONNRESET, which are
/// reported as -1 (peer is gone).
std::ptrdiff_t write_some(int fd, std::span<const std::uint8_t> buf);

/// Blocking write of all of buf, for client-side request/reply exchanges.
void write_all(int fd, std::span<const std::uint8_t> buf);

}  // namespace icn::util
