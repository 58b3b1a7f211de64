// Thin POSIX socket layer under every endpoint: RAII fd ownership,
// nonblocking loopback listen/connect, the read/write wrappers, and the
// one socket driver (`Link`) the server and all clients move bytes
// through. No protocol knowledge lives here.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <utility>

#include "crypto/bytes.h"

namespace pera::net {

/// Owning file descriptor. Move-only; closes on destruction.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }

  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  Fd(Fd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }

  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int release() { return std::exchange(fd_, -1); }
  void reset();

 private:
  int fd_ = -1;
};

/// Make a TCP listen socket on 127.0.0.1:`port` (0 = ephemeral),
/// nonblocking, SO_REUSEADDR, backlog deep enough for connection storms.
/// Throws std::runtime_error on failure.
[[nodiscard]] Fd listen_loopback(std::uint16_t port, int backlog = 4096);

/// Port a listen socket is bound to.
[[nodiscard]] std::uint16_t local_port(int fd);

/// Begin a nonblocking connect to 127.0.0.1:`port`. The socket is
/// created nonblocking with TCP_NODELAY; the connect may still be in
/// progress when this returns (poll for writability, then check
/// SO_ERROR via connect_finished). Throws std::runtime_error on
/// immediate failure.
[[nodiscard]] Fd connect_loopback(std::uint16_t port);

/// After a nonblocking connect became writable: true when the connect
/// succeeded, false when it failed.
[[nodiscard]] bool connect_finished(int fd);

/// Blocking connect with a timeout (milliseconds). Returns an invalid Fd
/// on failure or timeout.
[[nodiscard]] Fd connect_loopback_blocking(std::uint16_t port, int timeout_ms);

/// Set O_NONBLOCK (true on success).
bool set_nonblocking(int fd);

/// Disable Nagle (best effort).
void set_nodelay(int fd);

enum class IoStatus : std::uint8_t {
  kOk,        // made progress
  kWouldBlock,
  kClosed,    // orderly EOF (reads only)
  kError,
};

struct IoResult {
  IoStatus status = IoStatus::kOk;
  std::size_t bytes = 0;
};

/// Read once into `buf` (up to buf_len). kOk means bytes > 0.
[[nodiscard]] IoResult read_some(int fd, std::uint8_t* buf,
                                 std::size_t buf_len);

/// Gather-write the byte ranges in `iov` (at most 64 per call) to a
/// socket; partial writes return kOk with the short count. A peer that
/// has gone away yields kError, never SIGPIPE.
struct IoSlice {
  const std::uint8_t* data = nullptr;
  std::size_t len = 0;
};
[[nodiscard]] IoResult write_vec(int fd, const IoSlice* iov, std::size_t n);

/// Best-effort bump of RLIMIT_NOFILE to at least `want` descriptors
/// (capped at the hard limit). Returns the resulting soft limit.
std::uint64_t ensure_fd_limit(std::uint64_t want);

/// Monotonic clock in nanoseconds: deadlines, timers, certificate stamps.
[[nodiscard]] std::int64_t now_ns();

/// The deadline `timeout_ms` milliseconds from now.
[[nodiscard]] std::int64_t deadline_after_ms(int timeout_ms);

/// Milliseconds left until `deadline_ns`, rounded up; 0 once it passed.
[[nodiscard]] int remaining_ms(std::int64_t deadline_ns);

/// The socket driver: one socket, its outbound chunk queue (written with
/// writev, up to 64 chunks a call) and its read loop. The offset into
/// the first chunk persists across flushes, so a byte the kernel took is
/// never offered again, however the flush that wrote it ended.
class Link {
 public:
  Link() = default;
  explicit Link(Fd fd) : fd_(std::move(fd)) {}

  [[nodiscard]] int fd() const { return fd_.get(); }
  [[nodiscard]] bool valid() const { return fd_.valid(); }

  /// Close the socket and drop whatever is still queued.
  void close() { *this = Link(); }

  /// Move `outbox` to the back of the write queue, leaving it empty.
  void queue(crypto::Bytes& outbox);

  /// Bytes queued and not yet written.
  [[nodiscard]] std::size_t pending_bytes() const { return out_bytes_; }

  /// Write without blocking until the queue is empty (kOk) or the socket
  /// is full (kWouldBlock). kError means the connection failed. `bytes`
  /// counts what this call wrote.
  IoResult flush();

  /// Write, waiting for the socket to take more, until the queue is
  /// empty (kOk), `deadline_ns` passes (kWouldBlock: the unsent rest
  /// stays queued) or the connection fails (kError).
  IoStatus flush_until(std::int64_t deadline_ns);

  /// Wait until the socket is readable (or hung up) or `deadline_ns`.
  [[nodiscard]] bool wait_readable(std::int64_t deadline_ns) const;

  /// Read until the socket is drained, handing each chunk to `on_bytes`
  /// (`bool(crypto::BytesView)`; false stops the loop). Returns
  /// kWouldBlock once drained, kOk when `on_bytes` stopped it, and
  /// kClosed or kError when the peer is gone. `bytes` counts what was
  /// read, including chunks handed over before a close.
  template <class OnBytes>
  IoResult read(OnBytes&& on_bytes) {
    crypto::Bytes& buf = read_buffer();
    std::size_t total = 0;
    for (;;) {
      const IoResult res = read_some(fd_.get(), buf.data(), buf.size());
      if (res.status != IoStatus::kOk) return {res.status, total};
      total += res.bytes;
      if (!on_bytes(crypto::BytesView{buf.data(), res.bytes})) {
        return {IoStatus::kOk, total};
      }
      // A short read drained the socket; skip the read that would say so.
      if (res.bytes < buf.size()) return {IoStatus::kWouldBlock, total};
    }
  }

 private:
  /// The calling thread's 64 KiB read buffer, shared by its links.
  static crypto::Bytes& read_buffer();

  Fd fd_;
  std::deque<crypto::Bytes> outq_;
  std::size_t out_head_ = 0;   // bytes of outq_.front() already written
  std::size_t out_bytes_ = 0;  // queued bytes not yet written
};

}  // namespace pera::net
