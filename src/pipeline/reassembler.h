// Appraiser-side reassembly of shard-interleaved evidence streams.
//
// Appraisal runs each record through copland::appraise (per-shard device
// keys derived from the pipeline's root; the item's nonce) and folds it into
// its flow's running transcript (FlowFold: O(1) state per flow, no
// buffered records) under the policy's composition mode (§5.2, Fig. 4):
//   chained    H("pera.pipeline.chained"   ‖ d₁ ‖ … ‖ dₙ ‖ ok)
//   pointwise  H("pera.pipeline.pointwise" ‖ d₁ ‖ s₁ ‖ … ‖ dₙ ‖ sₙ)
// dᵢ is the digest of record i's *signed content* (the evidence under the
// signature node) in sequence order, sᵢ its verification outcome; a
// record that fails to decode adds no digest but clears `ok`. Signature
// bytes stay out: shard keys differ by shard, so only content-covering
// transcripts are shard-count invariant.
//
// Two appraisers share this core, so their verdicts are bit-identical by
// construction: ShardedAppraiser, the serial reference, buffers
// everything and fold_flow()s each flow after a sort by sequence number;
// ParallelAppraiser (appraiser.h) folds each record as it pops it, which
// is already sequence order (ShardWorker emits in order, a flow never
// splits across shards, rings are FIFO).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "crypto/sha256.h"
#include "crypto/signer.h"
#include "nac/binder.h"
#include "pipeline/worker.h"

namespace pera::pipeline {

struct FlowVerdict {
  std::uint64_t flow = 0;
  std::size_t records = 0;
  std::size_t signature_failures = 0;
  bool ok = false;               // all records present-and-verified
  crypto::Digest transcript{};   // composition-mode-sensitive fold
};

/// The per-shard verifiers an appraiser provisions from the shared root
/// key: one per derived device key, resolved by key id. Supports the
/// symmetric HmacSigner scheme and the hash-based XmssSigner scheme
/// (whose WOTS chain walk rides the multi-lane SHA-256 engine).
class VerifierSet final : public crypto::VerifierLookup {
 public:
  VerifierSet(const crypto::Digest& root_key, std::string_view label,
              std::size_t max_shards,
              crypto::SignatureScheme scheme =
                  crypto::SignatureScheme::kHmacDeviceKey,
              unsigned xmss_height = 8);

  /// nullptr when no provisioned key matches.
  [[nodiscard]] const crypto::Verifier* verifier_by_key_id(
      const crypto::Digest& id) const override;

  [[nodiscard]] std::size_t size() const { return verifiers_.size(); }

 private:
  std::vector<std::unique_ptr<crypto::Verifier>> verifiers_;
  std::map<crypto::Digest, std::size_t> by_key_id_;
};

/// One evidence record after appraisal, ready for the per-flow fold.
/// `sig_ok` is copland::appraise's verdict (implies `decoded`);
/// `content_digest` is copland::digest() of the signed content (or of the
/// whole unsigned term), meaningful only when `decoded`.
struct AppraisedRecord {
  std::uint64_t seq = 0;
  std::uint32_t shard = 0;
  bool decoded = false;
  bool sig_ok = false;
  crypto::Digest content_digest{};
};

/// Appraise one evidence item through copland::appraise, without goldens
/// (the parallelizable per-record work). Counts
/// pipeline.appraise.sig_ok/.sig_fail.
[[nodiscard]] AppraisedRecord appraise_record(const EvidenceItem& item,
                                              const VerifierSet& verifiers);

/// The running per-flow appraisal: add() each record in fold order, then
/// finish() once.
class FlowFold {
 public:
  explicit FlowFold(nac::CompositionMode mode);

  void add(const AppraisedRecord& rec);
  [[nodiscard]] FlowVerdict finish(std::uint64_t flow);

 private:
  nac::CompositionMode mode_;
  crypto::Sha256 transcript_;
  std::size_t records_ = 0;
  std::size_t failures_ = 0;
  bool ok_ = true;
};

/// Order `records` by (seq, shard) — stable, so same-packet records keep
/// their emission order — and fold them into the flow verdict under
/// `mode`. Consumes the record order in place.
[[nodiscard]] FlowVerdict fold_flow(std::uint64_t flow,
                                    std::vector<AppraisedRecord>& records,
                                    nac::CompositionMode mode);

class ShardedAppraiser {
 public:
  /// Provision verifiers for up to `max_shards` derived device keys (the
  /// appraiser does not know the attester's shard count; signatures are
  /// resolved by key id).
  ShardedAppraiser(const crypto::Digest& root_key, std::string_view label,
                   std::size_t max_shards,
                   nac::CompositionMode mode = nac::CompositionMode::kChained,
                   crypto::SignatureScheme scheme =
                       crypto::SignatureScheme::kHmacDeviceKey,
                   unsigned xmss_height = 8);

  /// Feed one record; any order, any interleaving.
  void ingest(const EvidenceItem& item);
  void ingest(const std::vector<EvidenceItem>& items) {
    for (const EvidenceItem& i : items) ingest(i);
  }

  /// Verify + reassemble every buffered flow. Deterministic: flows are
  /// keyed and records ordered by (seq, shard).
  [[nodiscard]] std::map<std::uint64_t, FlowVerdict> appraise() const;

  /// Digest over all flow transcripts — one value to compare across
  /// shard counts (the determinism tests' fixed point).
  [[nodiscard]] static crypto::Digest summary(
      const std::map<std::uint64_t, FlowVerdict>& verdicts);

  [[nodiscard]] std::size_t flows() const { return flows_.size(); }

 private:
  nac::CompositionMode mode_;
  VerifierSet verifiers_;
  std::map<std::uint64_t, std::vector<EvidenceItem>> flows_;
};

}  // namespace pera::pipeline
