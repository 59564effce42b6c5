#include "util/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "util/error.h"

namespace icn::util {
namespace {

[[noreturn]] void fail_errno(const char* op) {
  throw IoError(std::string("socket: ") + op + " failed: " +
                std::strerror(errno));
}

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) != 1) {
    fail_errno("inet_pton");
  }
  return addr;
}

}  // namespace

Fd::~Fd() { close(); }

Fd& Fd::operator=(Fd&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Fd::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) fail_errno("fcntl(F_GETFL)");
  if (::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    fail_errno("fcntl(F_SETFL)");
  }
}

void set_tcp_nodelay(int fd) {
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

TcpListener::TcpListener(std::uint16_t port, int backlog) {
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0));
  if (!fd.valid()) fail_errno("socket");
  const int one = 1;
  if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) !=
      0) {
    fail_errno("setsockopt(SO_REUSEADDR)");
  }
  sockaddr_in addr = loopback_addr(port);
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    fail_errno("bind");
  }
  if (::listen(fd.get(), backlog) != 0) fail_errno("listen");
  socklen_t len = sizeof(addr);
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    fail_errno("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  fd_ = std::move(fd);
}

Fd TcpListener::accept_nonblocking() {
  const int fd = ::accept4(fd_.get(), nullptr, nullptr,
                           SOCK_CLOEXEC | SOCK_NONBLOCK);
  if (fd < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ECONNABORTED ||
        errno == EINTR) {
      return Fd();
    }
    fail_errno("accept4");
  }
  Fd out(fd);
  set_tcp_nodelay(out.get());
  return out;
}

short poll_fd(int fd, short events, int timeout_ms) {
  // Recompute the remaining budget across EINTR so a signal storm cannot
  // stretch the deadline.
  const auto started = std::chrono::steady_clock::now();
  int remaining = timeout_ms;
  while (true) {
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = events;
    const int n = ::poll(&pfd, 1, remaining);
    if (n > 0) return pfd.revents;
    if (n == 0) return 0;  // Timeout.
    if (errno != EINTR) fail_errno("poll");
    if (timeout_ms >= 0) {
      const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - started);
      remaining = timeout_ms - static_cast<int>(elapsed.count());
      if (remaining <= 0) return 0;
    }
  }
}

Fd try_connect_loopback(std::uint16_t port, int timeout_ms, int* error_out) {
  if (error_out != nullptr) *error_out = 0;
  // Non-blocking connect + poll: retrying a blocking connect() after EINTR
  // is wrong (the handshake continues asynchronously, so the retry reports
  // EALREADY), and a blocking connect has no deadline at all.
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0));
  if (!fd.valid()) fail_errno("socket");
  const sockaddr_in addr = loopback_addr(port);
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    if (errno != EINPROGRESS && errno != EINTR) {
      if (error_out != nullptr) *error_out = errno;
      return Fd();
    }
    const short revents = poll_fd(fd.get(), POLLOUT, timeout_ms);
    if (revents == 0) return Fd();  // Timeout; *error_out stays 0.
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
      fail_errno("getsockopt(SO_ERROR)");
    }
    if (err != 0) {
      if (error_out != nullptr) *error_out = err;
      return Fd();
    }
  }
  // Restore blocking mode for the synchronous client helpers.
  const int flags = ::fcntl(fd.get(), F_GETFL, 0);
  if (flags < 0) fail_errno("fcntl(F_GETFL)");
  if (::fcntl(fd.get(), F_SETFL, flags & ~O_NONBLOCK) < 0) {
    fail_errno("fcntl(F_SETFL)");
  }
  set_tcp_nodelay(fd.get());
  return fd;
}

Fd connect_loopback(std::uint16_t port) {
  int err = 0;
  Fd fd = try_connect_loopback(port, -1, &err);
  if (!fd.valid()) {
    errno = err;
    fail_errno("connect");
  }
  return fd;
}

std::ptrdiff_t read_some(int fd, std::span<std::uint8_t> buf) {
  while (true) {
    const ssize_t n = ::read(fd, buf.data(), buf.size());
    if (n > 0) return n;
    if (n == 0) return -1;  // Orderly EOF.
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
    if (errno == ECONNRESET) return -1;
    fail_errno("read");
  }
}

std::ptrdiff_t write_some(int fd, std::span<const std::uint8_t> buf) {
  while (true) {
    const ssize_t n = ::send(fd, buf.data(), buf.size(), MSG_NOSIGNAL);
    if (n >= 0) return n;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
    if (errno == EPIPE || errno == ECONNRESET) return -1;
    fail_errno("send");
  }
}

void write_all(int fd, std::span<const std::uint8_t> buf) {
  std::size_t at = 0;
  while (at < buf.size()) {
    const ssize_t n =
        ::send(fd, buf.data() + at, buf.size() - at, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_errno("send");
    }
    at += static_cast<std::size_t>(n);
  }
}

}  // namespace icn::util
