// The three RA principals of Fig. 1, built on the Copland evidence model:
//
//   RelyingParty --Claim/Challenge--> Attester --Evidence--> Appraiser
//   RelyingParty <------------------- Result (Certificate) --/
//
// These classes are transport-agnostic: the core module moves their
// messages over netsim; tests call them directly.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "copland/evidence.h"
#include "copland/testbed.h"
#include "crypto/keystore.h"
#include "crypto/nonce.h"
#include "ra/certificate.h"
#include "ra/endorsement.h"

namespace pera::ra {

using copland::EvidencePtr;

/// A claim the attester can back with a measurement: a named target plus
/// the function that measures it *now* (hooked to live switch state).
struct ClaimSource {
  std::string target;                          // "Hardware", "Program", ...
  std::function<crypto::Digest()> measure;     // live measurement
  std::string claim_text;
};

/// Produces evidence about its platform (Fig. 1 "Attester").
class Attester {
 public:
  /// `signer` must outlive the attester.
  Attester(std::string name, crypto::Signer& signer)
      : name_(std::move(name)), signer_(&signer) {}

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Register a measurable target.
  void add_claim_source(ClaimSource source);
  [[nodiscard]] std::vector<std::string> targets() const;

  /// Produce evidence for the named targets (all registered targets when
  /// `targets` is empty), bound to `nonce` if given, hashed first when
  /// `hash_before_sign` (the `# -> !` of expression (3)), and signed.
  /// Throws std::invalid_argument for unknown targets.
  [[nodiscard]] EvidencePtr attest(
      const std::vector<std::string>& targets = {},
      const std::optional<crypto::Nonce>& nonce = std::nullopt,
      bool hash_before_sign = false);

  /// Number of attestations produced.
  [[nodiscard]] std::uint64_t attest_count() const { return attest_count_; }

 private:
  std::string name_;
  crypto::Signer* signer_;
  std::vector<ClaimSource> sources_;
  std::uint64_t attest_count_ = 0;
};

/// The appraiser's verdict (Fig. 1 "Attestation Result" ➃).
struct AttestationResult {
  bool ok = false;
  copland::AppraisalResult detail;
  std::optional<Certificate> certificate;
};

/// Verifies evidence and issues certificates (Fig. 1 "Appraiser").
class Appraiser {
 public:
  Appraiser(std::string name, crypto::KeyStore& keys)
      : name_(std::move(name)), keys_(&keys), nonces_(0xA99A) {}

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Provision a golden value for (place, target).
  void set_golden(const std::string& place, const std::string& target,
                  const crypto::Digest& value);
  [[nodiscard]] const copland::Goldens& goldens()
      const {
    return goldens_;
  }

  /// Provision a golden value from a signed endorsement (the RATS
  /// Reference Value Provider path). The endorser's key must verify under
  /// the key store; product-wide endorsements (empty place) are pinned to
  /// `pin_place`. Returns false (and installs nothing) on a bad
  /// signature or unknown endorser.
  bool accept_endorsement(const Endorsement& endorsement,
                          const std::string& pin_place = "");

  /// Require every appraised record to carry a measurement of `target`
  /// from `place`, with `place` signed (AppraisalReport::signed_place).
  /// This is what defeats challenge-downgrade attacks: evidence that omits
  /// a required measurement fails even if everything present is genuine.
  void require(const std::string& place, const std::string& target);
  /// Required targets by place, in the order they were first required.
  [[nodiscard]] const std::map<std::string, std::vector<std::string>>&
  requirements() const {
    return required_;
  }

  /// Appraise evidence, given as its canonical encoding (bytes that do
  /// not decode fail). When `expected_nonce` is set and nonzero, the
  /// evidence must contain it; with `enforce_freshness`, replays of it
  /// are also rejected (disable for per-flow evidence where one nonce
  /// deliberately covers many packets — that is what enables caching).
  /// When `certify` is true and the appraiser's place has a signer, a
  /// Certificate is issued and stored under the nonce (expressions
  /// (3)/(4) "certify -> store"). A non-null `report` receives what the
  /// appraisal walk read (copland::appraise).
  [[nodiscard]] AttestationResult appraise(
      crypto::BytesView evidence,
      const std::optional<crypto::Nonce>& expected_nonce = std::nullopt,
      bool certify = true, std::int64_t now = 0,
      bool enforce_freshness = true,
      copland::AppraisalReport* report = nullptr);
  /// The same for an evidence tree, appraised as its encoding.
  [[nodiscard]] AttestationResult appraise(
      const EvidencePtr& evidence,
      const std::optional<crypto::Nonce>& expected_nonce = std::nullopt,
      bool certify = true, std::int64_t now = 0,
      bool enforce_freshness = true) {
    return appraise(copland::encode(evidence), expected_nonce, certify, now,
                    enforce_freshness);
  }

  /// Retrieve a stored certificate by nonce (expression (3) RP2 path).
  [[nodiscard]] std::optional<Certificate> retrieve(
      const crypto::Nonce& n) const;

  /// UC4: the audit trail. Certificates issued in [from, to] (simulated
  /// time, inclusive), newest last.
  [[nodiscard]] std::vector<Certificate> certificates_between(
      std::int64_t from, std::int64_t to) const;

  /// UC4: failed attestations in the store — the documentation a
  /// court-order application would cite.
  [[nodiscard]] std::vector<Certificate> failed_certificates() const;

  [[nodiscard]] std::size_t stored_count() const { return cert_store_.size(); }

  [[nodiscard]] std::uint64_t appraisal_count() const {
    return appraisal_count_;
  }

  /// Replayed nonces rejected by freshness enforcement — duplicate
  /// out-of-band evidence is rejected exactly once per replay.
  [[nodiscard]] std::uint64_t replays_rejected() const {
    return replays_rejected_;
  }

 private:
  std::string name_;
  crypto::KeyStore* keys_;
  crypto::NonceRegistry nonces_;
  copland::Goldens goldens_;
  std::map<crypto::Digest, Certificate> cert_store_;
  std::map<std::string, std::vector<std::string>> required_;
  std::uint64_t appraisal_count_ = 0;
  std::uint64_t replays_rejected_ = 0;
};

/// Requests attestations and consumes results (Fig. 1 "Relying Party").
class RelyingParty {
 public:
  RelyingParty(std::string name, std::uint64_t seed)
      : name_(std::move(name)), nonces_(seed) {}

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Issue a fresh challenge nonce.
  [[nodiscard]] crypto::Nonce challenge() { return nonces_.issue(); }

  /// Accept a certificate: the nonce must be one we issued and unused, and
  /// the signature must verify against the appraiser's key.
  [[nodiscard]] bool accept(const Certificate& cert,
                            const crypto::Verifier& appraiser_key);

  [[nodiscard]] std::size_t accepted_count() const { return accepted_; }

 private:
  std::string name_;
  crypto::NonceRegistry nonces_;
  std::size_t accepted_ = 0;
};

}  // namespace pera::ra
