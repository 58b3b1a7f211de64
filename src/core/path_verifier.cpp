#include "core/path_verifier.h"

#include <algorithm>

namespace pera::core {

using copland::EvidencePtr;

std::vector<std::string> PathVerdict::places() const {
  std::vector<std::string> out;
  out.reserve(hops.size());
  for (const auto& h : hops) out.push_back(h.place);
  return out;
}

PathVerdict PathVerifier::verify(const EvidencePtr& evidence) const {
  PathVerdict v;
  copland::AppraisalReport report;
  v.appraisal = copland::appraise(evidence, goldens_, *keys_, {}, &report);
  v.hops.reserve(report.hops.size());
  for (const auto& h : report.hops) {
    v.hops.push_back({h.place, {}, h.signature_ok});
  }
  // A hop holds the measurements whose innermost signature it is; an
  // unnamed signature takes its first measurement's place.
  for (const auto& m : report.measurements) {
    AttestedHop& hop = v.hops[m.hop];
    if (hop.place.empty()) hop.place = m.place;
    hop.measurements[m.target] = m.value;
  }
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
