// A concrete Platform for evaluating Copland terms over a set of software
// components — the host-side substrate for the bank example of §4.2 and
// the repair-attack experiments (Ramsdell et al.).
//
// Components live at (place, name) and have content; measuring a component
// hashes its current content. An adversary mutates content between
// evaluation steps via the EvalObserver hooks. Appraisal compares measured
// values against golden digests recorded at provisioning time.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "copland/semantics.h"
#include "crypto/keystore.h"
#include "crypto/nonce.h"

namespace pera::copland {

/// Key for components and golden values: (place, component name).
using ComponentId = std::pair<std::string, std::string>;

/// Orders ComponentIds, and (place, target) views against them, so the
/// appraisal walk looks goldens up without building strings.
struct ComponentLess {
  using is_transparent = void;
  using View = std::pair<std::string_view, std::string_view>;
  bool operator()(View a, View b) const { return a < b; }
};

/// Golden values by component.
using Goldens = std::map<ComponentId, crypto::Digest, ComponentLess>;

/// Handler signature for named Copland functions (appraise, certify, ...).
using FuncHandler = std::function<EvidencePtr(
    Evaluator& ev, const std::string& place, const std::vector<TermPtr>& args,
    const EvidencePtr& input)>;

class TestbedPlatform final : public Platform {
 public:
  /// `keys` provides signers per place; unprovisioned places get an HMAC
  /// signer on first use.
  explicit TestbedPlatform(crypto::KeyStore& keys) : keys_(keys) {}

  // --- component management ---------------------------------------------

  /// Install a component and record its current content hash as golden.
  void install(const std::string& place, const std::string& name,
               const std::string& content);

  /// Mutate a component's content without touching the golden value
  /// (what an adversary does).
  void corrupt(const std::string& place, const std::string& name,
               const std::string& content);

  /// Restore a component to content matching its golden value.
  void repair(const std::string& place, const std::string& name);

  [[nodiscard]] bool is_corrupt(const std::string& place,
                                const std::string& name) const;

  [[nodiscard]] std::optional<crypto::Digest> golden(
      const std::string& place, const std::string& name) const;

  /// All golden values (for appraisal).
  [[nodiscard]] const Goldens& goldens() const {
    return golden_;
  }

  // --- guard tests ---------------------------------------------------------

  /// Register the result of a named Boolean test at a place.
  void set_test(const std::string& place, const std::string& name, bool value);

  // --- function registry -----------------------------------------------------

  /// Register a handler for a named Copland function. Overwrites.
  void register_func(const std::string& name, FuncHandler handler);

  /// Install default handlers: attest, appraise, certify, store, retrieve.
  /// `registry` is used by certify/store/retrieve for nonce bookkeeping.
  void install_default_funcs(crypto::NonceRegistry& registry);

  /// Evidence stored by the default `store(n)` handler, by nonce.
  [[nodiscard]] std::optional<EvidencePtr> stored(const crypto::Nonce& n) const;

  // --- Platform interface ------------------------------------------------
  [[nodiscard]] MeasurementResult measure(const std::string& place,
                                          const std::string& asp,
                                          const std::string& target) override;
  [[nodiscard]] crypto::Signature sign(const std::string& place,
                                       const crypto::Digest& d) override;
  [[nodiscard]] EvidencePtr call(Evaluator& ev, const std::string& place,
                                 const std::string& func,
                                 const std::vector<TermPtr>& args,
                                 const EvidencePtr& input) override;
  [[nodiscard]] bool test(const std::string& place,
                          const std::string& name) override;

  [[nodiscard]] crypto::KeyStore& keys() { return keys_; }

 private:
  crypto::KeyStore& keys_;
  std::map<ComponentId, std::string> content_;
  std::map<ComponentId, std::string> shadow_content_;  // pristine copies
  Goldens golden_;
  std::map<ComponentId, bool> tests_;
  std::map<std::string, FuncHandler> funcs_;
  std::map<crypto::Digest, EvidencePtr> store_;
};

// --- appraisal -------------------------------------------------------------

/// One appraisal finding.
struct AppraisalFinding {
  enum class Kind {
    kBadMeasurement,     // measured value != golden value
    kUnknownComponent,   // no golden value provisioned
    kBadSignature,       // signature failed to verify
    kUnknownSigner,      // no verifier for the signing key
    kMissingNonce,       // expected nonce not present in evidence
    kStaleNonce,         // nonce replayed
    kMalformed,          // evidence bytes do not decode
  };
  Kind kind;
  std::string place;
  std::string detail;
};

struct AppraisalResult {
  bool ok = true;
  std::vector<AppraisalFinding> findings;
  std::size_t measurements_checked = 0;
  std::size_t signatures_checked = 0;
  bool decoded = false;  // the evidence decoded (no kMalformed finding)
  /// copland::digest of the evidence under the top signature (the whole
  /// term when unsigned).
  crypto::Digest content_digest{};

  void add(AppraisalFinding f) {
    ok = false;
    findings.push_back(std::move(f));
  }
};

/// What one appraisal walk read, for the callers that ask: the hops of a
/// path, the measurements behind a requirement or a fleet fingerprint,
/// and the nonces.
struct AppraisalReport {
  /// A signature, or a measurement no signature covers (a hop of its
  /// own), in post-order: a signature follows every hop inside it.
  struct Hop {
    std::string place;  // the signature's place; a stray measurement's
    bool is_signature = false;
    bool signature_ok = false;  // a signature that verified
  };
  struct Measurement {
    std::string place;
    std::string target;
    crypto::Digest value;
    /// Index in `hops`: the innermost signature covering it, or its own
    /// hop when none does.
    std::size_t hop = 0;
  };
  std::vector<Hop> hops;
  std::vector<Measurement> measurements;  // pre-order
  std::vector<crypto::Nonce> nonces;      // pre-order

  /// Some measurement of (place, target) appears.
  [[nodiscard]] bool measured(std::string_view place,
                              std::string_view target) const;
  /// A signature names `place`, or covers one of its measurements. Whether
  /// that signature verified is the verdict's business, not this answer's.
  [[nodiscard]] bool signed_place(std::string_view place) const;
};

/// The appraisal core, the one verdict function on every path. One walk
/// over the canonical encoding checks that every signature verifies under
/// a key `keys` resolves by key id, that measurements match `goldens` when
/// the caller holds them (non-null), and that the evidence contains
/// `round_nonce` if nonzero. It builds no tree: a signature's child is one
/// contiguous span of the pre-order encoding, and since the codec is
/// canonical that span is the child's encoding, so it is hashed in place.
/// Bytes that decode() would reject fail with a single kMalformed finding
/// instead of throwing. With a non-null `report`, the walk also fills it
/// (left empty when the bytes do not decode); without one it allocates
/// nothing for it.
[[nodiscard]] AppraisalResult appraise(
    crypto::BytesView evidence, const Goldens* goldens,
    const crypto::VerifierLookup& keys, const crypto::Nonce& round_nonce = {},
    AppraisalReport* report = nullptr);

/// The same over a tree: encodes it once and walks the bytes (with no
/// depth budget, as the tree is already in memory).
[[nodiscard]] AppraisalResult appraise(
    const EvidencePtr& evidence, const Goldens* goldens,
    const crypto::VerifierLookup& keys, const crypto::Nonce& round_nonce = {},
    AppraisalReport* report = nullptr);

[[nodiscard]] std::string to_string(AppraisalFinding::Kind k);

}  // namespace pera::copland
