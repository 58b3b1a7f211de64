// Endorsements — the RATS architecture's Reference Value Provider role.
//
// In a real deployment the appraiser does not conjure golden values: a
// vendor (or the operator's build pipeline) signs statements like
// "firewall v5 for PERA-1000 hashes to X". The appraiser verifies the
// endorser's signature before admitting the value into its golden set,
// closing the provisioning half of the §3 trust chain.
#pragma once

#include <string>

#include "crypto/signer.h"

namespace pera::ra {

/// A signed reference value: (place?, target, value) with provenance.
/// `place` may be empty for product-wide endorsements ("any PERA-1000
/// running firewall v5"); the appraiser pins them per place on install.
struct Endorsement {
  std::string endorser;     // vendor / build-pipeline identity
  std::string place;        // "" = applies to any place
  std::string target;       // "Program", "Hardware", ...
  std::string description;  // "firewall v5, build 2209"
  crypto::Digest value{};
  crypto::Signature sig;

  /// The digest the endorser signs.
  [[nodiscard]] crypto::Digest signing_payload() const;

  /// Create and sign an endorsement.
  [[nodiscard]] static Endorsement make(std::string endorser,
                                        std::string place, std::string target,
                                        std::string description,
                                        const crypto::Digest& value,
                                        crypto::Signer& signer);

  /// Verify the endorser's signature.
  [[nodiscard]] bool verify(const crypto::Verifier& v) const;

  [[nodiscard]] crypto::Bytes serialize() const;
  /// Throws std::invalid_argument on malformed input.
  [[nodiscard]] static Endorsement deserialize(crypto::BytesView data);
};

}  // namespace pera::ra
