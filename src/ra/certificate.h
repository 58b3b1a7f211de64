// Attestation Results (RATS terminology) issued by an appraiser after
// verifying evidence — the ➃ arrows of Fig. 1 and Fig. 2.
#pragma once

#include <string>
#include <utility>

#include "crypto/nonce.h"
#include "crypto/signer.h"

namespace pera::ra {

/// A signed attestation result. The appraiser binds:
/// verdict + evidence digest + nonce + appraiser identity.
struct Certificate {
  std::string appraiser;
  crypto::Nonce nonce{};          // all-zero when no nonce was used
  crypto::Digest evidence_digest{};
  bool verdict = false;
  std::int64_t issued_at = 0;     // SimTime
  crypto::Signature sig;

  /// The one issuer: signs `verdict` on the appraised `evidence` bytes for
  /// `nonce`; evidence_digest is their SHA-256 (= copland::digest).
  [[nodiscard]] static Certificate issue(
      std::string appraiser, const crypto::Nonce& nonce,
      crypto::BytesView evidence, bool verdict, std::int64_t issued_at,
      crypto::Signer& signer) {
    Certificate cert{std::move(appraiser), nonce, crypto::sha256(evidence),
                     verdict, issued_at, {}};
    cert.sig = signer.sign(cert.signing_payload());
    return cert;
  }

  /// The digest the appraiser signs.
  [[nodiscard]] crypto::Digest signing_payload() const;

  [[nodiscard]] crypto::Bytes serialize() const;
  /// Throws std::invalid_argument on malformed input.
  [[nodiscard]] static Certificate deserialize(crypto::BytesView data);

  /// Verify the appraiser's signature with its verifier.
  [[nodiscard]] bool verify(const crypto::Verifier& v) const;
};

}  // namespace pera::ra
