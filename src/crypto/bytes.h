// Byte-buffer primitives shared by the whole crypto substrate, and the
// one byte codec every wire format is built on.
//
// Everything in pera is deterministic and in-memory, so a plain
// std::vector<uint8_t> is the universal currency for octet strings.
// Encoders write with the free append* functions; decoders read with a
// ByteReader, which bounds every read and reports malformed input as
// std::invalid_argument.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace pera::crypto {

/// Octet string. Owned, growable.
using Bytes = std::vector<std::uint8_t>;

/// Non-owning view over an octet string.
using BytesView = std::span<const std::uint8_t>;

/// A 256-bit digest (output of SHA-256 / HMAC-SHA-256).
struct Digest {
  std::array<std::uint8_t, 32> v{};

  friend bool operator==(const Digest&, const Digest&) = default;
  friend auto operator<=>(const Digest&, const Digest&) = default;

  /// Render as lowercase hex (64 chars).
  [[nodiscard]] std::string hex() const;

  /// First 8 hex chars — handy for logs and pseudonyms.
  [[nodiscard]] std::string short_hex() const;

  [[nodiscard]] Bytes to_bytes() const { return Bytes(v.begin(), v.end()); }

  [[nodiscard]] bool is_zero() const {
    for (auto b : v) {
      if (b != 0) return false;
    }
    return true;
  }
};

/// Encode arbitrary bytes as lowercase hex.
[[nodiscard]] std::string to_hex(BytesView data);

/// Decode lowercase/uppercase hex. Throws std::invalid_argument on bad input.
[[nodiscard]] Bytes from_hex(std::string_view hex);

/// View over the bytes of a std::string (no copy).
[[nodiscard]] inline BytesView as_bytes(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

/// Copy a string into an owned byte buffer.
[[nodiscard]] inline Bytes to_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

/// Append `src` to `dst`.
inline void append(Bytes& dst, BytesView src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

inline void append(Bytes& dst, const Digest& d) {
  dst.insert(dst.end(), d.v.begin(), d.v.end());
}

/// Append a big-endian 32-bit integer.
void append_u32(Bytes& dst, std::uint32_t x);

/// Append a big-endian 64-bit integer.
void append_u64(Bytes& dst, std::uint64_t x);

/// Append a u32 length prefix followed by the bytes of `src`.
inline void append_blob(Bytes& dst, BytesView src) {
  append_u32(dst, static_cast<std::uint32_t>(src.size()));
  append(dst, src);
}

/// Append a u32 length prefix followed by the characters of `s`.
inline void append_str(Bytes& dst, std::string_view s) {
  append_blob(dst, as_bytes(s));
}

/// Bounded cursor over an encoded message: the one decoder behind every
/// wire format. Integers are big-endian; strings and blobs carry a u32
/// length prefix (the inverse of append_str / append_blob). Every read
/// checks the bytes that remain before touching them, and every failure
/// throws std::invalid_argument naming `what` (the message being decoded).
/// The error text is built only when a check fails, so decoding a valid
/// message allocates nothing here.
class ByteReader {
 public:
  static constexpr std::size_t kNoLimit = static_cast<std::size_t>(-1);

  explicit ByteReader(BytesView data, const char* what = "decode")
      : rest_(data), what_(what) {}

  [[nodiscard]] std::size_t remaining() const { return rest_.size(); }

  [[nodiscard]] std::uint8_t u8() { return take(1, "truncated u8")[0]; }

  [[nodiscard]] std::uint32_t u32() {
    const BytesView b = take(4, "truncated u32");
    return (static_cast<std::uint32_t>(b[0]) << 24) |
           (static_cast<std::uint32_t>(b[1]) << 16) |
           (static_cast<std::uint32_t>(b[2]) << 8) |
           static_cast<std::uint32_t>(b[3]);
  }

  [[nodiscard]] std::uint64_t u64() {
    const std::uint64_t hi = u32();
    return (hi << 32) | u32();
  }

  [[nodiscard]] Digest digest() {
    const BytesView b = take(32, "truncated digest");
    Digest d;
    std::copy(b.begin(), b.end(), d.v.begin());
    return d;
  }

  /// The next `n` bytes, as a view into the input (no copy).
  [[nodiscard]] BytesView bytes(std::size_t n) {
    return take(n, "truncated bytes");
  }

  /// A u32-length-prefixed byte string of at most `max` bytes, as a view.
  [[nodiscard]] BytesView blob(std::size_t max = kNoLimit) {
    const std::uint32_t len = u32();
    if (len > max) fail("length exceeds cap");
    return take(len, "truncated blob");
  }

  /// A u32-length-prefixed string of at most `max` bytes.
  [[nodiscard]] std::string str(std::size_t max = kNoLimit) {
    const BytesView b = blob(max);
    return std::string(reinterpret_cast<const char*>(b.data()), b.size());
  }

  /// A u32 item count, at most `max`. Each item needs at least
  /// `min_item_bytes` of the remaining input, so a count the payload cannot
  /// hold is rejected before the caller reserves memory for it.
  [[nodiscard]] std::size_t count(std::size_t min_item_bytes,
                                  std::size_t max = kNoLimit) {
    const std::uint32_t n = u32();
    if (n > max) fail("count exceeds cap");
    if (min_item_bytes > 0 && n > remaining() / min_item_bytes) {
      fail("count exceeds payload");
    }
    return n;
  }

  /// Reject trailing bytes: the message must end exactly here.
  void finish() const {
    if (!rest_.empty()) fail("trailing bytes");
  }

  /// Throw std::invalid_argument("<what>: <why>").
  [[noreturn]] void fail(const char* why) const {
    throw std::invalid_argument(std::string(what_) + ": " + why);
  }

 private:
  BytesView take(std::size_t n, const char* why) {
    if (n > rest_.size()) fail(why);
    const BytesView out = rest_.first(n);
    rest_ = rest_.subspan(n);
    return out;
  }

  BytesView rest_;  // the bytes not yet read
  const char* what_;
};

/// Constant-time equality for fixed-size secrets.
[[nodiscard]] bool ct_equal(BytesView a, BytesView b);

}  // namespace pera::crypto
