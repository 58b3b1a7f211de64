#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

namespace pera::net {

namespace {

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " +
                           std::strerror(errno));  // NOLINT(concurrency-mt-unsafe)
}

}  // namespace

void Fd::reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Fd listen_loopback(std::uint16_t port, int backlog) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) throw_errno("socket");
  int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  const sockaddr_in addr = loopback_addr(port);
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    throw_errno("bind");
  }
  if (::listen(fd.get(), backlog) != 0) throw_errno("listen");
  if (!set_nonblocking(fd.get())) throw_errno("fcntl O_NONBLOCK");
  return fd;
}

std::uint16_t local_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    throw_errno("getsockname");
  }
  return ntohs(addr.sin_port);
}

Fd connect_loopback(std::uint16_t port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) throw_errno("socket");
  if (!set_nonblocking(fd.get())) throw_errno("fcntl O_NONBLOCK");
  set_nodelay(fd.get());
  const sockaddr_in addr = loopback_addr(port);
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0 &&
      errno != EINPROGRESS) {
    throw_errno("connect");
  }
  return fd;
}

bool connect_finished(int fd) {
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) return false;
  return err == 0;
}

Fd connect_loopback_blocking(std::uint16_t port, int timeout_ms) {
  Fd fd;
  try {
    fd = connect_loopback(port);
  } catch (const std::exception&) {
    return {};
  }
  pollfd p{fd.get(), POLLOUT, 0};
  const int rc = ::poll(&p, 1, timeout_ms);
  if (rc <= 0 || !connect_finished(fd.get())) return {};
  return fd;
}

IoResult read_some(int fd, std::uint8_t* buf, std::size_t buf_len) {
  for (;;) {
    const ssize_t n = ::read(fd, buf, buf_len);
    if (n > 0) return {IoStatus::kOk, static_cast<std::size_t>(n)};
    if (n == 0) return {IoStatus::kClosed, 0};
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return {IoStatus::kWouldBlock, 0};
    }
    return {IoStatus::kError, 0};
  }
}

IoResult write_vec(int fd, const IoSlice* iov, std::size_t n) {
  constexpr std::size_t kMaxIov = 64;
  iovec vec[kMaxIov];
  const std::size_t count = n < kMaxIov ? n : kMaxIov;
  for (std::size_t i = 0; i < count; ++i) {
    vec[i].iov_base = const_cast<std::uint8_t*>(iov[i].data);
    vec[i].iov_len = iov[i].len;
  }
  msghdr msg{};
  msg.msg_iov = vec;
  msg.msg_iovlen = count;
  for (;;) {
    // sendmsg, not writev: MSG_NOSIGNAL turns a write to a reset peer
    // into EPIPE instead of a process-killing SIGPIPE.
    const ssize_t w = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (w >= 0) return {IoStatus::kOk, static_cast<std::size_t>(w)};
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return {IoStatus::kWouldBlock, 0};
    }
    return {IoStatus::kError, 0};
  }
}

std::uint64_t ensure_fd_limit(std::uint64_t want) {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return 0;
  if (lim.rlim_cur >= want) return lim.rlim_cur;
  rlimit raised = lim;
  raised.rlim_cur = want < lim.rlim_max ? want : lim.rlim_max;
  if (::setrlimit(RLIMIT_NOFILE, &raised) == 0) return raised.rlim_cur;
  return lim.rlim_cur;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t deadline_after_ms(int timeout_ms) {
  return now_ns() + std::int64_t{timeout_ms} * 1'000'000;
}

int remaining_ms(std::int64_t deadline_ns) {
  const std::int64_t left = deadline_ns - now_ns();
  if (left <= 0) return 0;
  return static_cast<int>(left / 1'000'000) + 1;
}

// --- Link -------------------------------------------------------------------

void Link::queue(crypto::Bytes& outbox) {
  if (outbox.empty()) return;
  out_bytes_ += outbox.size();
  outq_.push_back(std::move(outbox));
  outbox.clear();
}

IoResult Link::flush() {
  constexpr std::size_t kMaxSlices = 64;
  std::size_t written = 0;
  while (!outq_.empty()) {
    IoSlice slices[kMaxSlices];
    std::size_t n = 0;
    for (const crypto::Bytes& chunk : outq_) {
      if (n == kMaxSlices) break;
      const std::size_t off = n == 0 ? out_head_ : 0;
      slices[n++] = {chunk.data() + off, chunk.size() - off};
    }
    const IoResult res = write_vec(fd_.get(), slices, n);
    if (res.status != IoStatus::kOk) return {res.status, written};
    written += res.bytes;
    out_bytes_ -= res.bytes;
    // Retire the chunks the kernel took; a partial one keeps its offset.
    out_head_ += res.bytes;
    while (!outq_.empty() && out_head_ >= outq_.front().size()) {
      out_head_ -= outq_.front().size();
      outq_.pop_front();
    }
  }
  return {IoStatus::kOk, written};
}

IoStatus Link::flush_until(std::int64_t deadline_ns) {
  for (;;) {
    const IoStatus status = flush().status;
    if (status != IoStatus::kWouldBlock) return status;
    const int wait = remaining_ms(deadline_ns);
    if (wait == 0) return IoStatus::kWouldBlock;
    pollfd p{fd_.get(), POLLOUT, 0};
    if (::poll(&p, 1, wait) < 0 && errno != EINTR) return IoStatus::kError;
  }
}

crypto::Bytes& Link::read_buffer() {
  thread_local crypto::Bytes buf(64 * 1024);
  return buf;
}

bool Link::wait_readable(std::int64_t deadline_ns) const {
  pollfd p{fd_.get(), POLLIN, 0};
  return ::poll(&p, 1, remaining_ms(deadline_ns)) > 0;
}

}  // namespace pera::net
