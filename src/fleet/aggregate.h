// Evidence composition trees for delegated appraisal.
//
// Per wave, a regional appraiser runs one attestation round against each
// member, appraises the evidence locally, and folds the per-switch
// outcomes into ONE signed Aggregate: a Merkle tree over per-member leaf
// digests plus the wave nonce, signed with the regional's device key. The
// root verifies a single signature + Merkle recompute per region per
// wave instead of `fanout` certificates, recovers per-switch verdicts
// from the entries, and spot-audits carried raw evidence against its own
// golden values to keep the regional honest.
//
// Freshness is layered:
//  * member evidence binds a *derived* nonce
//    H(wave_nonce ‖ attempt ‖ place) — the root can re-derive it during
//    audits without another message, so a regional replaying last wave's
//    evidence is caught deterministically;
//  * the regional's signature covers (region ‖ appraiser ‖ wave ‖ nonce ‖
//    merkle_root ‖ count), binding the whole composition to the wave.
//
// Leaf digests are nonce-INDEPENDENT (place ‖ outcome ‖ verdict ‖
// measurement_root): a member whose state did not change between waves
// keeps its leaf, so the regional's incremental Merkle tree re-hashes
// O(changed members · log fanout) per wave, not O(fanout).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "copland/evidence.h"
#include "crypto/incremental_merkle.h"
#include "crypto/keystore.h"
#include "crypto/nonce.h"
#include "crypto/signer.h"
#include "nac/detail.h"
#include "ra/roles.h"

namespace pera::fleet {

/// How one member's round ended, as recorded in the aggregate.
enum class EntryOutcome : std::uint8_t {
  kPass = 0,
  kFail = 1,
  kTimeout = 2,
};

[[nodiscard]] const char* to_string(EntryOutcome o);

/// One member's slot in a composition tree.
struct AggregateEntry {
  std::string place;
  EntryOutcome outcome = EntryOutcome::kTimeout;
  bool verdict = false;
  std::uint32_t attempts = 0;
  /// Digest over the evidence's measurement values in order (zero when no
  /// evidence arrived). Nonce-independent: stable across waves while the
  /// member's measured state is stable.
  crypto::Digest measurement_root{};
  /// copland::digest of the member's evidence (zero when none).
  crypto::Digest evidence_digest{};
  /// Raw encoded evidence, carried for root-side audits (may be empty —
  /// e.g. timeouts, or transports that cannot carry evidence).
  crypto::Bytes evidence;

  /// The Merkle leaf: H("pera.fleet.entry.v1" ‖ place ‖ outcome ‖
  /// verdict ‖ measurement_root).
  [[nodiscard]] crypto::Digest leaf_digest() const;
};

/// One signed composition tree: everything the root needs per region per
/// wave.
struct Aggregate {
  std::string region;
  std::string appraiser;  // the regional that signed
  std::uint64_t wave = 0;
  crypto::Nonce nonce{};  // the root's wave nonce
  std::vector<AggregateEntry> entries;  // sorted by place
  crypto::Digest merkle_root{};
  crypto::Signature sig;

  /// The digest the regional signs: H("pera.fleet.aggregate.v1" ‖ region
  /// ‖ appraiser ‖ wave ‖ nonce ‖ merkle_root ‖ count).
  [[nodiscard]] crypto::Digest signing_payload() const;

  [[nodiscard]] crypto::Bytes serialize() const;
  /// Throws std::invalid_argument on malformed input (fuzzed surface).
  [[nodiscard]] static Aggregate deserialize(crypto::BytesView data);
};

/// The root's wave instruction to a regional appraiser.
struct WaveCommand {
  std::string region;
  std::uint64_t wave = 0;
  crypto::Nonce nonce{};
  nac::DetailMask detail = 0;
  bool carry_evidence = true;  // entries must ship raw evidence for audits
  std::vector<std::string> members;

  [[nodiscard]] crypto::Bytes serialize() const;
  /// Throws std::invalid_argument on malformed input (fuzzed surface).
  [[nodiscard]] static WaveCommand deserialize(crypto::BytesView data);
};

/// The nonce a member's attempt binds: H("pera.fleet.member-nonce" ‖
/// wave_nonce ‖ attempt ‖ place). Derivable by regional and root alike.
[[nodiscard]] crypto::Nonce derive_member_nonce(const crypto::Nonce& wave_nonce,
                                                const std::string& place,
                                                std::uint64_t attempt);

/// Digest over the measurements an appraisal walk read, in pre-order (zero
/// when there are none) — the nonce-independent state fingerprint leaves
/// are built from.
[[nodiscard]] crypto::Digest measurement_root_of(
    const copland::AppraisalReport& report);

/// Render an aggregate as a Copland evidence term: the regional's
/// signature over seq(wave nonce, canonical par-fold of the per-member
/// leaf digests). Structural/composition view — authoritative
/// verification is verify_aggregate().
[[nodiscard]] copland::EvidencePtr to_evidence(const Aggregate& agg);

/// Builds a region's composition tree across waves, re-hashing only the
/// members whose leaf changed (O(Δ) via IncrementalMerkleTree).
class EvidenceAggregator {
 public:
  EvidenceAggregator(std::string region, std::string appraiser,
                     std::vector<std::string> members);

  /// Replace the member set (rehome/split). Resets the tree.
  void set_members(std::vector<std::string> members);
  [[nodiscard]] const std::vector<std::string>& members() const {
    return members_;
  }

  /// Start a wave: all slots become pending; leaves persist from the
  /// previous wave.
  void begin_wave(std::uint64_t wave, const crypto::Nonce& nonce);

  /// Record one member's entry for the current wave. Throws
  /// std::invalid_argument for unknown members.
  void record(AggregateEntry entry);

  [[nodiscard]] std::size_t recorded() const { return recorded_; }
  [[nodiscard]] bool complete() const { return recorded_ == members_.size(); }

  /// Build and sign the aggregate for the current wave. Missing members
  /// are filled with kTimeout entries, so seal() is always total.
  [[nodiscard]] Aggregate seal(crypto::Signer& signer);

  [[nodiscard]] const crypto::IncrementalMerkleTree::Stats& tree_stats()
      const {
    return tree_.stats();
  }

 private:
  std::string region_;
  std::string appraiser_;
  std::vector<std::string> members_;  // sorted
  std::map<std::string, std::size_t> index_;
  crypto::IncrementalMerkleTree tree_;
  std::vector<std::optional<AggregateEntry>> entries_;
  std::vector<crypto::Digest> leaves_;
  std::uint64_t wave_ = 0;
  crypto::Nonce nonce_{};
  std::size_t recorded_ = 0;
};

/// Per-switch verdict recovered from a valid aggregate.
struct PerSwitchVerdict {
  EntryOutcome outcome = EntryOutcome::kTimeout;
  bool verdict = false;
};

struct VerifyOptions {
  /// Must hold the regional's verifier.
  const crypto::KeyStore* keys = nullptr;
  /// Root-side appraiser holding golden values; audited evidence is
  /// re-appraised against it (non-const: appraisal counts). nullptr
  /// disables audits.
  ra::Appraiser* root_appraiser = nullptr;
  /// Carried-evidence entries audited per aggregate (seeded choice).
  std::size_t audit_entries = 2;
  std::uint64_t audit_seed = 0;
  /// Attempts tried when re-deriving a member nonce.
  std::uint32_t max_attempts = 8;
  /// Reject kPass entries that carry no evidence (set when the wave
  /// command demanded carried evidence): a regional cannot vouch for a
  /// member without something auditable.
  bool require_evidence = false;
};

struct AggregateCheck {
  bool valid = false;
  std::string reason;  // first failure, empty when valid
  std::size_t audited = 0;
  /// Audited places whose evidence failed re-verification — where blame
  /// lands when a composition tree lies.
  std::vector<std::string> blamed;
  std::map<std::string, PerSwitchVerdict> per_switch;
};

/// Root-side verification of one aggregate: regional signature, wave and
/// nonce binding, exact member coverage, Merkle recompute, derived-nonce
/// freshness of every carried evidence blob, and a seeded audit that
/// re-appraises a sample against the root's goldens.
[[nodiscard]] AggregateCheck verify_aggregate(
    const Aggregate& agg, const std::vector<std::string>& expected_members,
    const crypto::Nonce& expected_nonce, std::uint64_t expected_wave,
    const VerifyOptions& opts);

}  // namespace pera::fleet
