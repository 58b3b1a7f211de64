#include "pipeline/reassembler.h"

#include <algorithm>

#include "copland/testbed.h"
#include "crypto/hmac.h"
#include "obs/obs.h"
#include "pipeline/pipeline.h"

namespace pera::pipeline {

VerifierSet::VerifierSet(const crypto::Digest& root_key,
                         std::string_view label, std::size_t max_shards,
                         crypto::SignatureScheme scheme,
                         unsigned xmss_height) {
  const std::vector<crypto::Digest> keys =
      PeraPipeline::shard_keys(root_key, label, max_shards);
  verifiers_.reserve(keys.size());
  for (const crypto::Digest& k : keys) {
    if (scheme == crypto::SignatureScheme::kXmss) {
      // The appraiser re-derives the shard's XMSS keypair from the
      // shared derived seed to learn the public root (symmetric
      // provisioning, like the HMAC device keys), then keeps only the
      // public-root verifier.
      const crypto::XmssSigner provision(k, xmss_height);
      verifiers_.push_back(
          std::make_unique<crypto::XmssVerifier>(provision.public_root()));
    } else {
      verifiers_.push_back(std::make_unique<crypto::HmacVerifier>(k));
    }
    by_key_id_[verifiers_.back()->key_id()] = verifiers_.size() - 1;
  }
}

const crypto::Verifier* VerifierSet::verifier_by_key_id(
    const crypto::Digest& id) const {
  const auto it = by_key_id_.find(id);
  return it == by_key_id_.end() ? nullptr : verifiers_[it->second].get();
}

AppraisedRecord appraise_record(const EvidenceItem& item,
                                const VerifierSet& verifiers) {
  const copland::AppraisalResult res =
      copland::appraise(item.evidence, nullptr, verifiers, item.nonce);
  const AppraisedRecord rec{item.seq, item.shard, res.decoded,
                            res.ok, res.content_digest};
  PERA_OBS_COUNT(rec.sig_ok ? "pipeline.appraise.sig_ok"
                            : "pipeline.appraise.sig_fail");
  return rec;
}

FlowFold::FlowFold(nac::CompositionMode mode) : mode_(mode) {
  transcript_.update(mode_ == nac::CompositionMode::kChained
                         ? "pera.pipeline.chained"
                         : "pera.pipeline.pointwise");
}

void FlowFold::add(const AppraisedRecord& rec) {
  ++records_;
  if (!rec.sig_ok) {
    ok_ = false;
    ++failures_;
  }
  if (!rec.decoded) return;
  // Fold the signed content (shard-key independent) into the transcript.
  transcript_.update(rec.content_digest);
  if (mode_ == nac::CompositionMode::kPointwise) {
    const std::uint8_t sig_byte = rec.sig_ok ? 1 : 0;
    transcript_.update(crypto::BytesView{&sig_byte, 1});
  }
}

FlowVerdict FlowFold::finish(std::uint64_t flow) {
  if (mode_ == nac::CompositionMode::kChained) {
    const std::uint8_t ok_byte = ok_ ? 1 : 0;
    transcript_.update(crypto::BytesView{&ok_byte, 1});
  }
  const FlowVerdict verdict{flow, records_, failures_, ok_,
                            transcript_.finish()};
  PERA_OBS_EVENT(obs::SpanKind::kAppraise, "pipeline", 0,
                 verdict.ok ? 1 : 0);
  return verdict;
}

FlowVerdict fold_flow(std::uint64_t flow,
                      std::vector<AppraisedRecord>& records,
                      nac::CompositionMode mode) {
  // Restore per-flow order: the dispatcher's sequence numbers are
  // global, so they order a flow's records no matter which shard (or
  // how many shards) produced them. Stable, so the several records one
  // packet can emit keep their emission order.
  std::stable_sort(records.begin(), records.end(),
                   [](const AppraisedRecord& a, const AppraisedRecord& b) {
                     if (a.seq != b.seq) return a.seq < b.seq;
                     return a.shard < b.shard;
                   });
  FlowFold fold(mode);
  for (const AppraisedRecord& rec : records) fold.add(rec);
  return fold.finish(flow);
}

ShardedAppraiser::ShardedAppraiser(const crypto::Digest& root_key,
                                   std::string_view label,
                                   std::size_t max_shards,
                                   nac::CompositionMode mode,
                                   crypto::SignatureScheme scheme,
                                   unsigned xmss_height)
    : mode_(mode), verifiers_(root_key, label, max_shards, scheme,
                              xmss_height) {}

void ShardedAppraiser::ingest(const EvidenceItem& item) {
  flows_[item.flow].push_back(item);
}

std::map<std::uint64_t, FlowVerdict> ShardedAppraiser::appraise() const {
  std::map<std::uint64_t, FlowVerdict> out;
  for (const auto& [flow, records] : flows_) {
    std::vector<AppraisedRecord> appraised;
    appraised.reserve(records.size());
    for (const EvidenceItem& r : records) {
      appraised.push_back(appraise_record(r, verifiers_));
    }
    out[flow] = fold_flow(flow, appraised, mode_);
  }
  return out;
}

crypto::Digest ShardedAppraiser::summary(
    const std::map<std::uint64_t, FlowVerdict>& verdicts) {
  crypto::Sha256 h;
  h.update("pera.pipeline.summary");
  for (const auto& [flow, v] : verdicts) {
    crypto::Bytes b;
    crypto::append_u64(b, flow);
    crypto::append_u64(b, v.records);
    crypto::append_u64(b, v.signature_failures);
    b.push_back(v.ok ? 1 : 0);
    h.update(crypto::BytesView{b.data(), b.size()});
    h.update(v.transcript);
  }
  return h.finish();
}

}  // namespace pera::pipeline
