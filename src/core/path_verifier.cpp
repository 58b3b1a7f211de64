#include "core/path_verifier.h"

#include <algorithm>

namespace pera::core {

using copland::Evidence;
using copland::EvidenceKind;
using copland::EvidencePtr;

std::vector<std::string> PathVerdict::places() const {
  std::vector<std::string> out;
  out.reserve(hops.size());
  for (const auto& h : hops) out.push_back(h.place);
  return out;
}

namespace {

// Walk evidence in order, grouping measurements under the signature that
// covers them into per-place hops.
void collect_hops(const EvidencePtr& e, const crypto::KeyStore& keys,
                  std::vector<AttestedHop>& hops,
                  AttestedHop* current) {
  if (!e) return;
  switch (e->kind) {
    case EvidenceKind::kSignature: {
      AttestedHop hop;
      hop.place = e->place;
      const crypto::Verifier* v = keys.verifier_by_key_id(e->sig.key_id);
      hop.signature_ok =
          v != nullptr &&
          crypto::verify_any(*v, copland::digest(e->child), e->sig);
      collect_hops(e->child, keys, hops, &hop);
      hops.push_back(std::move(hop));
      return;
    }
    case EvidenceKind::kMeasurement:
      if (current != nullptr) {
        current->measurements[e->target] = e->value;
        if (current->place.empty()) current->place = e->place;
      } else {
        // Unsigned stray measurement: record as its own (unverified) hop.
        AttestedHop hop;
        hop.place = e->place;
        hop.measurements[e->target] = e->value;
        hop.signature_ok = false;
        hops.push_back(std::move(hop));
      }
      return;
    case EvidenceKind::kSeq:
    case EvidenceKind::kPar:
      collect_hops(e->left, keys, hops, current);
      collect_hops(e->right, keys, hops, current);
      return;
    case EvidenceKind::kFuncOut:
    case EvidenceKind::kHashed:
      collect_hops(e->child, keys, hops, current);
      return;
    case EvidenceKind::kEmpty:
    case EvidenceKind::kNonce:
      return;
  }
}

}  // namespace

PathVerdict PathVerifier::verify(const EvidencePtr& evidence) const {
  PathVerdict v;
  v.appraisal = copland::appraise(evidence, goldens_, *keys_);
  collect_hops(evidence, *keys_, v.hops, nullptr);
  v.all_signatures_ok =
      !v.hops.empty() &&
      std::all_of(v.hops.begin(), v.hops.end(),
                  [](const AttestedHop& h) { return h.signature_ok; });
  v.all_measurements_ok = v.appraisal.ok;
  return v;
}

bool PathVerifier::crosses_in_order(const PathVerdict& verdict,
                                    const std::vector<std::string>& required) {
  if (!verdict.ok()) return false;
  std::size_t next = 0;
  for (const auto& hop : verdict.hops) {
    if (next < required.size() && hop.place == required[next]) ++next;
  }
  return next == required.size();
}

bool PathVerifier::matches_expected_path(
    const PathVerdict& verdict,
    const std::vector<std::string>& expected_places) {
  return verdict.ok() && verdict.places() == expected_places;
}

}  // namespace pera::core
