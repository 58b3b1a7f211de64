// Winternitz one-time signatures (WOTS) over SHA-256.
//
// This is the public-key primitive behind Copland's `!` (sign) operator in
// our reproduction. Hash-based signatures were chosen because they are real
// public-key crypto implementable from scratch (no bignum arithmetic), with
// the same sign/verify asymmetry an attestation ASIC would expose.
//
// Parameters: n = 32 bytes, w = 16 (4-bit chunks) =>
//   len1 = 64 message chunks, len2 = 3 checksum chunks, len = 67 chains.
#pragma once

#include <cstdint>

#include "crypto/bytes.h"
#include "crypto/drbg.h"
#include "crypto/sha256.h"

namespace pera::crypto::wots {

inline constexpr std::size_t kW = 16;        // Winternitz parameter
inline constexpr std::size_t kLen1 = 64;     // 256 bits / 4 bits per chunk
inline constexpr std::size_t kLen2 = 3;      // checksum chunks
inline constexpr std::size_t kLen = kLen1 + kLen2;  // 67 chains

/// A WOTS secret key: one 32-byte start value per chain.
struct SecretKey {
  std::array<Digest, kLen> chains{};
};

/// A WOTS public key, compressed to a single digest.
struct PublicKey {
  Digest compressed{};

  friend bool operator==(const PublicKey&, const PublicKey&) = default;
};

/// A WOTS signature: one intermediate chain value per chain.
struct Signature {
  std::array<Digest, kLen> chains{};

  /// Serialized size in bytes.
  static constexpr std::size_t kWireSize = kLen * 32;

  [[nodiscard]] Bytes serialize() const;
  /// Throws std::invalid_argument unless `data` is exactly kWireSize bytes.
  [[nodiscard]] static Signature deserialize(BytesView data);
};

/// Deterministically generate a secret key from a seed and address. The
/// address keeps distinct leaves of a Merkle tree from sharing chains.
[[nodiscard]] SecretKey keygen_secret(const Digest& seed, std::uint64_t address);

/// Derive the public key for a secret key.
[[nodiscard]] PublicKey derive_public(const SecretKey& sk);

/// Sign a 256-bit message digest.
[[nodiscard]] Signature sign(const SecretKey& sk, const Digest& message);

/// Recompute the public key a signature implies for `message`. Verification
/// succeeds when this equals the signer's public key.
[[nodiscard]] PublicKey recover_public(const Signature& sig,
                                       const Digest& message);

/// Convenience: full verification.
[[nodiscard]] bool verify(const PublicKey& pk, const Digest& message,
                          const Signature& sig);

/// Split a digest into kLen base-w chunks (message chunks + checksum).
/// Exposed for tests.
[[nodiscard]] std::array<std::uint8_t, kLen> chunk_message(const Digest& message);

}  // namespace pera::crypto::wots
