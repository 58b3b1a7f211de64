// Path-evidence verification — the consumer side of UC2 (authentication)
// and UC3 (authorization tags).
//
// Given the composite evidence a flow accumulated, PathVerifier appraises
// it once (copland::appraise, which verifies every signature and
// measurement) and reads the attested (place, program) sequence from that
// walk's report: one hop per signature, in post-order, holding the
// measurements whose innermost signature it is, plus one unverified hop
// per measurement no signature covers. It then answers policy questions
// such as "did this flow cross firewall_v5 and the DPI appliance, in that
// order?" — the FlowTags-style decisions of UC3 and the path-as-auth-factor
// of UC2. A hop's place is the place string its signature names; binding
// it to the signing key's owner is still open.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "copland/evidence.h"
#include "copland/testbed.h"
#include "crypto/keystore.h"

namespace pera::core {

/// One attested hop extracted from path evidence.
struct AttestedHop {
  std::string place;
  std::map<std::string, crypto::Digest> measurements;  // target -> value
  bool signature_ok = false;
};

struct PathVerdict {
  bool all_signatures_ok = false;
  bool all_measurements_ok = false;
  std::vector<AttestedHop> hops;
  copland::AppraisalResult appraisal;

  [[nodiscard]] bool ok() const {
    return all_signatures_ok && all_measurements_ok;
  }

  /// Place names in path order.
  [[nodiscard]] std::vector<std::string> places() const;
};

class PathVerifier {
 public:
  PathVerifier(const copland::Goldens& goldens,
               const crypto::KeyStore& keys)
      : goldens_(&goldens), keys_(&keys) {}

  /// Verify composite path evidence (chained or a folded sequence of
  /// pointwise records).
  [[nodiscard]] PathVerdict verify(const copland::EvidencePtr& evidence) const;

  /// UC3: does the verified path include all `required` places, in order?
  [[nodiscard]] static bool crosses_in_order(
      const PathVerdict& verdict, const std::vector<std::string>& required);

  /// UC2: a path-based authentication factor — the path must verify and
  /// match `expected_places` exactly.
  [[nodiscard]] static bool matches_expected_path(
      const PathVerdict& verdict,
      const std::vector<std::string>& expected_places);

 private:
  const copland::Goldens* goldens_;
  const crypto::KeyStore* keys_;
};

}  // namespace pera::core
