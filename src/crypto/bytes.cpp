#include "crypto/bytes.h"

#include <stdexcept>

namespace pera::crypto {

namespace {
constexpr char kHexDigits[] = "0123456789abcdef";

int hex_nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

std::string to_hex(BytesView data) {
  std::string out;
  out.reserve(data.size() * 2);
  for (std::uint8_t b : data) {
    out.push_back(kHexDigits[b >> 4]);
    out.push_back(kHexDigits[b & 0xf]);
  }
  return out;
}

Bytes from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0) {
    throw std::invalid_argument("from_hex: odd-length input");
  }
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = hex_nibble(hex[i]);
    const int lo = hex_nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      throw std::invalid_argument("from_hex: non-hex character");
    }
    out.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
  }
  return out;
}

std::string Digest::hex() const { return to_hex(BytesView{v.data(), v.size()}); }

std::string Digest::short_hex() const { return hex().substr(0, 8); }

void append_u32(Bytes& dst, std::uint32_t x) {
  dst.push_back(static_cast<std::uint8_t>(x >> 24));
  dst.push_back(static_cast<std::uint8_t>(x >> 16));
  dst.push_back(static_cast<std::uint8_t>(x >> 8));
  dst.push_back(static_cast<std::uint8_t>(x));
}

void append_u64(Bytes& dst, std::uint64_t x) {
  append_u32(dst, static_cast<std::uint32_t>(x >> 32));
  append_u32(dst, static_cast<std::uint32_t>(x));
}

bool ct_equal(BytesView a, BytesView b) {
  if (a.size() != b.size()) return false;
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) acc |= a[i] ^ b[i];
  return acc == 0;
}

}  // namespace pera::crypto
