// Attestation Results (RATS terminology) issued by an appraiser after
// verifying evidence — the ➃ arrows of Fig. 1 and Fig. 2.
#pragma once

#include <string>

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

  /// The digest the appraiser signs.
  [[nodiscard]] crypto::Digest signing_payload() const;

  [[nodiscard]] crypto::Bytes serialize() const;
  /// Throws std::invalid_argument on malformed input.
  [[nodiscard]] static Certificate deserialize(crypto::BytesView data);

  /// Verify the appraiser's signature with its verifier.
  [[nodiscard]] bool verify(const crypto::Verifier& v) const;
};

}  // namespace pera::ra
