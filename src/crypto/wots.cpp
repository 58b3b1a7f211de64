#include "crypto/wots.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "crypto/hmac.h"
#include "crypto/sha256_backend.h"

namespace pera::crypto::wots {

namespace {

using engine::kMaxLanes;

// Every chain step hashes a 40-byte domain-separated message:
// be32(chain) || be32(position) || value. That fits one padded SHA-256
// block, so a step is exactly one compression from H(0) over a
// stack-resident block template — no heap, no streaming context. Only
// the position word and the value bytes change between steps.
constexpr std::size_t kStepMsgLen = 40;

inline void store_be32(std::uint8_t* p, std::uint32_t x) {
  p[0] = static_cast<std::uint8_t>(x >> 24);
  p[1] = static_cast<std::uint8_t>(x >> 16);
  p[2] = static_cast<std::uint8_t>(x >> 8);
  p[3] = static_cast<std::uint8_t>(x);
}

// Constant parts of a chain-step block: chain index, the 0x80 padding
// byte after the 40-byte message, and the 320-bit length.
inline void init_step_block(std::uint8_t block[64], std::uint32_t chain) {
  std::memset(block, 0, 64);
  store_be32(block, chain);
  block[kStepMsgLen] = 0x80;
  const std::uint64_t bits = kStepMsgLen * 8;  // 320 = 0x0140
  block[62] = static_cast<std::uint8_t>(bits >> 8);
  block[63] = static_cast<std::uint8_t>(bits);
}

inline void extract_be(const std::uint32_t st[8], std::uint8_t out[32]) {
  for (int i = 0; i < 8; ++i) {
#if defined(__GNUC__) || defined(__clang__)
    std::uint32_t x = st[i];
    if constexpr (std::endian::native == std::endian::little) {
      x = __builtin_bswap32(x);
    }
    std::memcpy(out + 4 * i, &x, 4);
#else
    store_be32(out + 4 * i, st[i]);
#endif
  }
}

// Advance n independent chains, chain i by steps[i] single-compression
// steps starting at position from[i], through the backend's multi-buffer
// lanes in lockstep: each occupied lane owns one chain's block template;
// every round compresses all occupied lanes at once, and a finished
// chain's lane is refilled with the next pending chain. out[i] receives
// the final value (== start[i] when steps[i] == 0); `out` must not alias
// `start`... except element-wise copies are fine since each out[i] is
// written exactly once after start[i] was last read.
void run_chains(std::size_t n, const std::uint32_t* chain_index,
                const std::uint8_t* from, const std::uint8_t* steps,
                const Digest* start, Digest* out) {
  const engine::Backend& be = engine::active();
  const std::size_t lanes = std::clamp<std::size_t>(be.lanes, 1, kMaxLanes);

  alignas(32) std::uint8_t blk[kMaxLanes][64];
  std::uint32_t st[kMaxLanes][8];
  std::uint32_t pos[kMaxLanes];
  std::uint32_t rem[kMaxLanes];
  std::size_t owner[kMaxLanes];
  std::size_t next = 0;  // next chain to load into a free lane
  std::size_t m = 0;     // occupied lanes: always slots [0, m)

  auto seed = [&](std::size_t slot) -> bool {
    while (next < n && steps[next] == 0) {
      out[next] = start[next];
      ++next;
    }
    if (next == n) return false;
    init_step_block(blk[slot], chain_index[next]);
    std::memcpy(blk[slot] + 8, start[next].v.data(), 32);
    pos[slot] = from[next];
    rem[slot] = steps[next];
    owner[slot] = next;
    ++next;
    return true;
  };

  while (m < lanes && seed(m)) ++m;

  while (m > 0) {
    for (std::size_t s = 0; s < m; ++s) {
      store_be32(blk[s] + 4, pos[s]);
      std::memcpy(st[s], engine::kInit, sizeof(st[s]));
    }
    be.compress_multi(st, blk, m);
    for (std::size_t s = 0; s < m; ++s) {
      extract_be(st[s], blk[s] + 8);  // digest becomes the next value
      ++pos[s];
      --rem[s];
    }
    for (std::size_t s = 0; s < m;) {
      if (rem[s] > 0) {
        ++s;
        continue;
      }
      std::memcpy(out[owner[s]].v.data(), blk[s] + 8, 32);
      if (seed(s)) {
        ++s;
        continue;
      }
      // No pending chain: close the hole with the last occupied lane.
      --m;
      if (s != m) {
        std::memcpy(blk[s], blk[m], 64);
        pos[s] = pos[m];
        rem[s] = rem[m];
        owner[s] = owner[m];
      }
    }
  }
  // Trailing zero-step chains never enter a lane.
  for (; next < n; ++next) out[next] = start[next];
}

// Step all kLen chains of `start`, chain i from position from[i] by
// steps[i], into `ends`.
void run_all_chains(const std::array<std::uint8_t, kLen>& from,
                    const std::array<std::uint8_t, kLen>& steps,
                    const std::array<Digest, kLen>& start,
                    std::array<Digest, kLen>& ends) {
  std::array<std::uint32_t, kLen> idx;
  for (std::size_t i = 0; i < kLen; ++i) {
    idx[i] = static_cast<std::uint32_t>(i);
  }
  run_chains(kLen, idx.data(), from.data(), steps.data(), start.data(),
             ends.data());
}

Digest compress_ends(const std::array<Digest, kLen>& ends) {
  Sha256 compress;
  for (const Digest& d : ends) compress.update(d);
  return compress.finish();
}

}  // namespace

std::array<std::uint8_t, kLen> chunk_message(const Digest& message) {
  std::array<std::uint8_t, kLen> chunks{};
  // 64 message chunks: 4 bits each, big-endian nibbles.
  for (std::size_t i = 0; i < 32; ++i) {
    chunks[2 * i] = message.v[i] >> 4;
    chunks[2 * i + 1] = message.v[i] & 0xf;
  }
  // Checksum: sum of (w-1 - chunk) over message chunks, base-w little chunks.
  std::uint32_t csum = 0;
  for (std::size_t i = 0; i < kLen1; ++i) {
    csum += static_cast<std::uint32_t>(kW - 1 - chunks[i]);
  }
  for (std::size_t i = 0; i < kLen2; ++i) {
    chunks[kLen1 + i] = static_cast<std::uint8_t>((csum >> (4 * i)) & 0xf);
  }
  return chunks;
}

SecretKey keygen_secret(const Digest& seed, std::uint64_t address) {
  SecretKey sk;
  std::uint8_t root[40];
  std::memcpy(root, seed.v.data(), 32);
  for (int i = 0; i < 8; ++i) {
    root[32 + i] = static_cast<std::uint8_t>(address >> (56 - 8 * i));
  }
  derive_keys_into(BytesView{root, sizeof(root)}, "pera.wots.chain",
                   sk.chains.data(), kLen);
  return sk;
}

PublicKey derive_public(const SecretKey& sk) {
  std::array<std::uint8_t, kLen> from{};
  std::array<std::uint8_t, kLen> steps;
  steps.fill(kW - 1);
  std::array<Digest, kLen> ends;
  run_all_chains(from, steps, sk.chains, ends);
  return PublicKey{compress_ends(ends)};
}

Signature sign(const SecretKey& sk, const Digest& message) {
  const auto chunks = chunk_message(message);
  const std::array<std::uint8_t, kLen> from{};
  Signature sig;
  run_all_chains(from, chunks, sk.chains, sig.chains);
  return sig;
}

PublicKey recover_public(const Signature& sig, const Digest& message) {
  const auto chunks = chunk_message(message);
  std::array<std::uint8_t, kLen> steps;
  for (std::size_t i = 0; i < kLen; ++i) {
    steps[i] = static_cast<std::uint8_t>(kW - 1 - chunks[i]);
  }
  std::array<Digest, kLen> ends;
  run_all_chains(chunks, steps, sig.chains, ends);
  return PublicKey{compress_ends(ends)};
}

bool verify(const PublicKey& pk, const Digest& message, const Signature& sig) {
  return recover_public(sig, message) == pk;
}

Bytes Signature::serialize() const {
  Bytes out;
  out.reserve(kWireSize);
  for (const auto& d : chains) append(out, d);
  return out;
}

Signature Signature::deserialize(BytesView data) {
  ByteReader r(data, "wots::Signature::deserialize");
  Signature sig;
  for (auto& d : sig.chains) d = r.digest();
  r.finish();
  return sig;
}

}  // namespace pera::crypto::wots
