// Unified signing/verification interface for attestation principals.
//
// Two concrete signers model the paper's "trustworthy evidence-producing
// hardware components" (§3 threat model):
//
//  * HmacSigner — a symmetric device key shared with the appraiser, like a
//    TPM-held HMAC key. Cheap; verifier must hold the key.
//  * XmssSigner — a hash-based public-key signer. Anyone holding the public
//    root can verify; each signature consumes a one-time key.
//
// A Signature tags which scheme produced it so evidence bundles can mix
// signers along a path.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "crypto/bytes.h"
#include "crypto/hmac.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"

namespace pera::crypto {

enum class SignatureScheme : std::uint8_t {
  kHmacDeviceKey = 1,
  kXmss = 2,
  /// A Merkle-batched signature: the payload carries (root, auth path,
  /// inner signature over the root). The signed message is a leaf of the
  /// tree; one inner signature covers a whole batch (see pera::
  /// EvidenceBatcher). Verified via verify_any().
  kBatched = 3,
};

[[nodiscard]] std::string to_string(SignatureScheme s);

/// A signature over a message digest, together with the scheme and the
/// signer's identity (key id = SHA-256 of the public material).
struct Signature {
  SignatureScheme scheme = SignatureScheme::kHmacDeviceKey;
  Digest key_id{};   // identifies the signing key
  Bytes payload;     // scheme-specific signature bytes

  [[nodiscard]] Bytes serialize() const;
  /// Throws std::invalid_argument on malformed input.
  [[nodiscard]] static Signature deserialize(BytesView data);
  [[nodiscard]] std::size_t wire_size() const;

  friend bool operator==(const Signature&, const Signature&) = default;
};

/// Abstract signer held by an attesting element.
class Signer {
 public:
  virtual ~Signer() = default;

  /// Sign a message digest (Copland `!`).
  [[nodiscard]] virtual Signature sign(const Digest& message) = 0;

  /// Key id this signer produces.
  [[nodiscard]] virtual Digest key_id() const = 0;

  [[nodiscard]] virtual SignatureScheme scheme() const = 0;
};

/// Abstract verifier held by an appraiser.
class Verifier {
 public:
  virtual ~Verifier() = default;

  [[nodiscard]] virtual bool verify(const Digest& message,
                                    const Signature& sig) const = 0;

  [[nodiscard]] virtual Digest key_id() const = 0;
};

/// Provisioned verifiers by key id: the one lookup copland::appraise
/// checks signatures through (KeyStore, pipeline::VerifierSet).
class VerifierLookup {
 public:
  virtual ~VerifierLookup() = default;
  /// nullptr when no provisioned key matches.
  [[nodiscard]] virtual const Verifier* verifier_by_key_id(
      const Digest& key_id) const = 0;
};

/// Symmetric device-key signer (simulated TPM HMAC key). The HMAC key
/// schedule (ipad/opad compressions) is precomputed at construction;
/// sign() clones the midstates instead of re-deriving them per signature.
class HmacSigner final : public Signer {
 public:
  explicit HmacSigner(Digest device_key);

  [[nodiscard]] Signature sign(const Digest& message) override;
  [[nodiscard]] Digest key_id() const override { return key_id_; }
  [[nodiscard]] SignatureScheme scheme() const override {
    return SignatureScheme::kHmacDeviceKey;
  }

 private:
  HmacKey schedule_;
  Digest key_id_;
};

/// Verifier counterpart of HmacSigner (requires the shared key).
class HmacVerifier final : public Verifier {
 public:
  explicit HmacVerifier(Digest device_key);

  [[nodiscard]] bool verify(const Digest& message,
                            const Signature& sig) const override;
  [[nodiscard]] Digest key_id() const override { return key_id_; }

 private:
  HmacKey schedule_;
  Digest key_id_;
};

/// Hash-based public-key signer (stateful; 2^height signatures).
class XmssSigner final : public Signer {
 public:
  XmssSigner(const Digest& seed, unsigned height);

  [[nodiscard]] Signature sign(const Digest& message) override;
  [[nodiscard]] Digest key_id() const override { return key_id_; }
  [[nodiscard]] SignatureScheme scheme() const override {
    return SignatureScheme::kXmss;
  }

  [[nodiscard]] const Digest& public_root() const {
    return keypair_.public_root();
  }
  [[nodiscard]] std::uint64_t signatures_remaining() const {
    return keypair_.capacity() - keypair_.signatures_used();
  }

 private:
  XmssKeyPair keypair_;
  Digest key_id_;
};

/// Verifier counterpart of XmssSigner (holds only the public root).
class XmssVerifier final : public Verifier {
 public:
  explicit XmssVerifier(Digest public_root);

  [[nodiscard]] bool verify(const Digest& message,
                            const Signature& sig) const override;
  [[nodiscard]] Digest key_id() const override { return key_id_; }

 private:
  Digest public_root_;
  Digest key_id_;
};

/// Key id convention: SHA-256 over a scheme label and the public material.
[[nodiscard]] Digest make_key_id(SignatureScheme scheme, const Digest& material);

/// Wrap a batch membership into a Signature: `root_sig` is the inner
/// signature over `root`; `proof` authenticates the leaf this signature
/// will be attached to. The wrapped signature keeps the inner key id so
/// appraisers resolve the same verifier.
[[nodiscard]] Signature wrap_batched(const Digest& root,
                                     const MerkleProof& proof,
                                     const Signature& root_sig);

/// Scheme-dispatching verification: direct schemes go to the verifier;
/// kBatched signatures are decomposed (leaf-in-tree, then inner signature
/// over the root). Use this wherever evidence signatures are checked.
[[nodiscard]] bool verify_any(const Verifier& verifier, const Digest& message,
                              const Signature& sig);

}  // namespace pera::crypto
