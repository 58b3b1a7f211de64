#include "pera/engine.h"

#include "obs/obs.h"

namespace pera::pera {

using copland::Evidence;
using copland::EvidencePtr;

netsim::SimTime EvidenceEngine::sign_cost() const {
  return signer_->scheme() == crypto::SignatureScheme::kXmss
             ? costs_.sign_cost_xmss
             : costs_.sign_cost_hmac;
}

EngineResult EvidenceEngine::create(const nac::HopInstruction& inst,
                                    const crypto::Nonce& nonce,
                                    const crypto::Bytes* packet_bytes,
                                    const GuardTest* guard) {
  EngineResult res;
  obs::ScopedSpan span(obs::SpanKind::kEvidenceCreate, place_);

  if (!inst.guard.empty()) {
    // "Fail early and avoid the attestation effort" (§5.1).
    const bool pass = guard == nullptr || (*guard)(inst.guard);
    if (!pass) {
      res.evidence = Evidence::empty();
      res.guard_failed = true;
      res.cost = costs_.cache_lookup_cost;  // a test is about as cheap
      PERA_OBS_COUNT("pera.engine.guard_failures");
      span.set_cost(res.cost);
      return res;
    }
  }

  const nac::DetailMask detail =
      inst.detail == 0
          ? nac::mask_of(nac::EvidenceDetail::kProgram)
          : inst.detail;

  // Same detail with different hash/sign flags or custom targets must not
  // share cache slots.
  CacheVariant variant{
      static_cast<std::uint8_t>((inst.hash_evidence ? 1 : 0) |
                                (inst.sign_evidence ? 2 : 0)),
      inst.custom_targets};

  // Cache covers everything but packet-level freshness.
  res.cost += costs_.cache_lookup_cost;
  if (const CachedEvidence* cached =
          cache_->lookup(detail, nonce, *mu_, variant)) {
    res.evidence = cached->evidence;
    res.encoded = cached->encoded;
    res.from_cache = true;
    span.set_cost(res.cost);
    span.set_value(1);  // served from cache
    return res;
  }

  EvidencePtr acc = Evidence::empty();
  if (!nonce.value.is_zero()) {
    acc = Evidence::extend(acc, Evidence::nonce_ev(nonce));
  }
  for (nac::EvidenceDetail level : nac::kAllLevels) {
    if (!nac::has_detail(detail, level)) continue;
    const crypto::Digest value = mu_->measure(level, packet_bytes);
    acc = Evidence::extend(
        acc, Evidence::measurement(place_, place_, nac::to_string(level),
                                   value, mu_->claim_text(level)));
    res.cost += costs_.measure_cost;
  }
  for (const std::string& target : inst.custom_targets) {
    // Custom properties are folded in as named measurements of the
    // program configuration.
    const crypto::Digest value =
        mu_->measure(nac::EvidenceDetail::kProgram, nullptr);
    acc = Evidence::extend(
        acc, Evidence::measurement(place_, place_, target, value,
                                   "property " + target));
    res.cost += costs_.measure_cost;
  }

  if (inst.hash_evidence) {
    const std::size_t sz = copland::wire_size(acc);
    acc = Evidence::hashed(place_, copland::digest(acc));
    res.cost += costs_.hash_cost_per_kb *
                static_cast<netsim::SimTime>(sz / 1024 + 1);
    PERA_OBS_COUNT("pera.engine.hashes");
  }
  if (inst.sign_evidence) {
    crypto::Signature sig = signer_->sign(copland::digest(acc));
    acc = Evidence::signature(place_, acc, std::move(sig));
    res.cost += sign_cost();
    PERA_OBS_COUNT("pera.sign.count");
    PERA_OBS_OBSERVE("pera.sign.sim_ns", sign_cost());
    PERA_OBS_EVENT(obs::SpanKind::kSign, place_, sign_cost());
  }

  res.encoded = copland::encode(acc);
  cache_->store(detail, nonce, acc, *mu_, std::move(variant));
  res.evidence = std::move(acc);
  span.set_cost(res.cost);
  return res;
}

EngineResult EvidenceEngine::compose(const EvidencePtr& prior,
                                     const EvidencePtr& fresh,
                                     nac::CompositionMode mode) const {
  EngineResult res;
  res.cost = costs_.compose_cost;
  PERA_OBS_EVENT(obs::SpanKind::kEvidenceCompose, place_, res.cost,
                 mode == nac::CompositionMode::kChained ? 1 : 0);
  if (!prior || prior->kind == copland::EvidenceKind::kEmpty) {
    res.evidence = fresh;
    return res;
  }
  if (mode == nac::CompositionMode::kChained) {
    res.evidence = Evidence::seq(prior, fresh);
  } else {
    res.evidence = Evidence::par(prior, fresh);
  }
  return res;
}

std::pair<std::vector<EvidencePtr>, netsim::SimTime> EvidenceEngine::inspect(
    const nac::EvidenceCarrier& carrier) const {
  std::vector<EvidencePtr> out;
  netsim::SimTime cost = 0;
  out.reserve(carrier.records.size());
  for (const auto& rec : carrier.records) {
    out.push_back(copland::decode(
        crypto::BytesView{rec.evidence.data(), rec.evidence.size()}));
    cost += costs_.compose_cost;
  }
  PERA_OBS_EVENT(obs::SpanKind::kEvidenceInspect, place_, cost,
                 carrier.records.size());
  return {std::move(out), cost};
}

}  // namespace pera::pera
