// Principal key registry.
//
// Models the out-of-band provisioning step every RA deployment needs: the
// appraiser is provisioned with verification keys (or shared device keys)
// for the attesting elements it will appraise. Keys are indexed by
// principal name (a place name in Copland terms) and by key id.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "crypto/drbg.h"
#include "crypto/signer.h"

namespace pera::crypto {

/// Registry mapping principal names to signers (attester side) and
/// verifiers (appraiser side). A single KeyStore instance models the
/// deployment's key-provisioning authority; real deployments would split
/// it, which the API supports via export_verifiers().
class KeyStore final : public VerifierLookup {
 public:
  explicit KeyStore(std::uint64_t seed) : drbg_(seed) {}

  /// Provision an HMAC device-key signer for `principal`. Returns signer.
  /// Idempotent per principal: re-provisioning replaces keys.
  Signer& provision_hmac(const std::string& principal);

  /// Provision an HMAC signer/verifier under a caller-supplied key — the
  /// out-of-band import path for a key that already exists elsewhere
  /// (e.g. a socket appraiser's certificate key shared with a relying
  /// party's registry).
  Signer& provision_hmac_key(const std::string& principal, const Digest& key);

  /// Provision an XMSS signer with 2^height one-time keys.
  Signer& provision_xmss(const std::string& principal, unsigned height = 6);

  /// Signer for a principal, or nullptr if none provisioned.
  [[nodiscard]] Signer* signer_for(const std::string& principal);

  /// Verifier for a principal, or nullptr.
  [[nodiscard]] const Verifier* verifier_for(const std::string& principal) const;

  /// Verifier by key id, or nullptr — used when appraising signatures whose
  /// producer is identified only by key id.
  [[nodiscard]] const Verifier* verifier_by_key_id(
      const Digest& key_id) const override;

  /// Principal name owning `key_id`, if known.
  [[nodiscard]] std::optional<std::string> principal_of(const Digest& key_id) const;

  [[nodiscard]] bool has(const std::string& principal) const {
    return signers_.contains(principal);
  }

  [[nodiscard]] std::size_t size() const { return signers_.size(); }

 private:
  void index(const std::string& principal, std::unique_ptr<Signer> signer,
             std::unique_ptr<Verifier> verifier);

  Drbg drbg_;
  std::map<std::string, std::unique_ptr<Signer>> signers_;
  std::map<std::string, std::unique_ptr<Verifier>> verifiers_;
  std::map<Digest, std::string> by_key_id_;
};

}  // namespace pera::crypto
