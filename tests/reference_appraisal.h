// Reference appraisal for differential checks of copland::appraise: decode
// the bytes into a tree, then walk the tree in pre-order, hashing each
// signature's child by re-encoding it. tests/test_fuzz.cpp and
// fuzz/fuzz_evidence_decoder.cpp hold the byte walk to it.
//
// The walk's report (copland::AppraisalReport) is held to the tree walks
// its readers used before they read the report: PathVerifier's hop
// grouping (collect_hops), the required-measurement policy's observations
// and the fleet's measurement fingerprint over a tree.
//
// Also here: the fixed keys, goldens and nonce both checks appraise under,
// and helpers that build genuine records under them.
#pragma once

#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "copland/evidence.h"
#include "copland/testbed.h"
#include "core/path_verifier.h"
#include "crypto/keystore.h"
#include "fleet/aggregate.h"

namespace pera::reference {

/// Decode `bytes` and appraise the tree; a kMalformed finding when decode
/// throws.
inline copland::AppraisalResult appraise(crypto::BytesView bytes,
                                         const copland::Goldens* goldens,
                                         const crypto::VerifierLookup& keys,
                                         const crypto::Nonce& round_nonce) {
  using copland::AppraisalFinding;
  using copland::EvidenceKind;
  using copland::EvidencePtr;
  copland::AppraisalResult res;
  EvidencePtr evidence;
  try {
    evidence = copland::decode(bytes);
  } catch (const std::invalid_argument& e) {
    res.add({AppraisalFinding::Kind::kMalformed, "", e.what()});
    return res;
  }
  res.decoded = true;
  bool nonce_seen = false;
  const auto visit = [&](const auto& self, const EvidencePtr& e) -> void {
    if (!e) return;
    if (e->kind == EvidenceKind::kMeasurement && goldens != nullptr) {
      ++res.measurements_checked;
      const auto it = goldens->find(copland::ComponentId{e->place, e->target});
      if (it == goldens->end()) {
        res.add({AppraisalFinding::Kind::kUnknownComponent, e->place, ""});
      } else if (it->second != e->value) {
        res.add({AppraisalFinding::Kind::kBadMeasurement, e->place, ""});
      }
    } else if (e->kind == EvidenceKind::kNonce) {
      nonce_seen = nonce_seen || e->nonce == round_nonce;
    } else if (e->kind == EvidenceKind::kSignature) {
      const crypto::Digest content = copland::digest(e->child);
      if (res.signatures_checked++ == 0) res.content_digest = content;
      const crypto::Verifier* v = keys.verifier_by_key_id(e->sig.key_id);
      if (v == nullptr) {
        res.add({AppraisalFinding::Kind::kUnknownSigner, e->place, ""});
      } else if (!crypto::verify_any(*v, content, e->sig)) {
        res.add({AppraisalFinding::Kind::kBadSignature, e->place, ""});
      }
    }
    self(self, e->child);
    self(self, e->left);
    self(self, e->right);
  };
  visit(visit, evidence);
  if (!round_nonce.value.is_zero() && !nonce_seen) {
    res.add({AppraisalFinding::Kind::kMissingNonce, "", ""});
  }
  if (evidence->kind != EvidenceKind::kSignature) {
    res.content_digest = copland::digest(evidence);
  }
  return res;
}

/// Where two results differ in what the walk must reproduce (verdict,
/// finding kinds and places in order, counts, content digest, decoded);
/// empty when they agree.
inline std::string difference(const copland::AppraisalResult& walk,
                              const copland::AppraisalResult& ref) {
  if (walk.ok != ref.ok) return "ok";
  if (walk.decoded != ref.decoded) return "decoded";
  if (walk.findings.size() != ref.findings.size()) return "finding count";
  for (std::size_t i = 0; i < walk.findings.size(); ++i) {
    if (walk.findings[i].kind != ref.findings[i].kind) {
      return "finding " + std::to_string(i) + " kind";
    }
    if (walk.findings[i].place != ref.findings[i].place) {
      return "finding " + std::to_string(i) + " place";
    }
  }
  if (walk.signatures_checked != ref.signatures_checked) return "signatures";
  if (walk.measurements_checked != ref.measurements_checked) {
    return "measurements";
  }
  if (walk.content_digest != ref.content_digest) return "content digest";
  return "";
}

/// Walk evidence in order, grouping measurements under the signature that
/// covers them into per-place hops (post-order; an unsigned stray
/// measurement is a hop of its own).
inline void collect_hops(const copland::EvidencePtr& e,
                         const crypto::VerifierLookup& keys,
                         std::vector<core::AttestedHop>& hops,
                         core::AttestedHop* current) {
  using copland::EvidenceKind;
  if (!e) return;
  switch (e->kind) {
    case EvidenceKind::kSignature: {
      core::AttestedHop hop;
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
        core::AttestedHop hop;
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

/// What the required-measurement policy observed in a tree: every
/// measured (place, target), and every signed place (one a signature
/// names, or one with a measurement under some signature).
struct Observations {
  std::set<std::pair<std::string, std::string>> measurements;
  std::set<std::string> signed_places;

  void collect(const copland::EvidencePtr& e, bool under_signature) {
    using copland::EvidenceKind;
    if (!e) return;
    switch (e->kind) {
      case EvidenceKind::kMeasurement:
        measurements.insert({e->place, e->target});
        if (under_signature) signed_places.insert(e->place);
        return;
      case EvidenceKind::kSignature:
        signed_places.insert(e->place);
        collect(e->child, true);
        return;
      default:
        collect(e->child, under_signature);
        collect(e->left, under_signature);
        collect(e->right, under_signature);
        return;
    }
  }
};

/// The fleet's measurement fingerprint over a tree.
inline crypto::Digest measurement_root_of(const copland::EvidencePtr& e) {
  const auto ms = copland::measurements_of(e);
  if (ms.empty()) return crypto::Digest{};
  crypto::Sha256 h;
  h.update("pera.fleet.measurements.v1");
  for (const auto* m : ms) {
    h.update(m->target);
    h.update(m->value);
  }
  return h.finish();
}

inline std::string hop_difference(const std::vector<core::AttestedHop>& got,
                                  const std::vector<core::AttestedHop>& want) {
  if (got.size() != want.size()) return "hop count";
  for (std::size_t i = 0; i < got.size(); ++i) {
    const std::string at = "hop " + std::to_string(i);
    if (got[i].place != want[i].place) return at + " place";
    if (got[i].signature_ok != want[i].signature_ok) return at + " signature";
    if (got[i].measurements != want[i].measurements) {
      return at + " measurements";
    }
  }
  return "";
}

/// Where the report of decodable `bytes` differs from the references;
/// empty when it agrees. Checks the hops as PathVerifier reads them from
/// the report (places, order, measurements, signature_ok), the
/// measurements in pre-order, the required-pair and
/// signed-place answers for every place and target in the evidence plus
/// some absent ones, the fleet measurement root and the nonces.
inline std::string report_difference(crypto::BytesView bytes,
                                     const copland::AppraisalReport& report,
                                     const copland::Goldens& goldens,
                                     const crypto::KeyStore& keys) {
  const copland::EvidencePtr tree = copland::decode(bytes);
  std::vector<core::AttestedHop> want;
  collect_hops(tree, keys, want, nullptr);
  const core::PathVerdict path = core::PathVerifier(goldens, keys).verify(tree);
  if (std::string d = hop_difference(path.hops, want); !d.empty()) return d;

  const auto ms = copland::measurements_of(tree);
  if (report.measurements.size() != ms.size()) return "measurement count";
  std::set<std::string> places = {"", "sw1", "sw2", "xsw", "absent"};
  std::set<std::string> targets = {"", "program", "nosuch", "absent"};
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const auto& m = report.measurements[i];
    if (m.place != ms[i]->place || m.target != ms[i]->target ||
        m.value != ms[i]->value) {
      return "measurement " + std::to_string(i);
    }
    places.insert(m.place);
    targets.insert(m.target);
  }
  for (const auto& s : copland::signatures_of(tree)) places.insert(s->place);

  Observations obs;
  obs.collect(tree, false);
  for (const auto& p : places) {
    if (report.signed_place(p) != obs.signed_places.contains(p)) {
      return "signed place " + p;
    }
    for (const auto& t : targets) {
      if (report.measured(p, t) != obs.measurements.contains({p, t})) {
        return "required pair " + p + "/" + t;
      }
    }
  }

  if (fleet::measurement_root_of(report) != measurement_root_of(tree)) {
    return "measurement root";
  }
  const auto ns = copland::nonces_of(tree);
  if (report.nonces.size() != ns.size()) return "nonce count";
  for (std::size_t i = 0; i < ns.size(); ++i) {
    if (report.nonces[i] != ns[i]->nonce) return "nonce " + std::to_string(i);
  }
  return "";
}

/// Fixed keys (HMAC at sw1 and sw2, XMSS at xsw), goldens and a round
/// nonce.
struct AppraisalSetup {
  crypto::KeyStore keys{2024};
  copland::Goldens goldens;
  crypto::Nonce nonce{crypto::sha256("reference.round")};

  AppraisalSetup() {
    (void)keys.provision_hmac("sw1");
    (void)keys.provision_hmac("sw2");
    (void)keys.provision_xmss("xsw", 3);
    for (const char* place : {"sw1", "sw2", "xsw"}) {
      goldens[{place, "program"}] = crypto::sha256(std::string("program@") +
                                                   place);
    }
  }

  /// The measurement `place` reports for `target`: the golden one unless
  /// `tampered`.
  [[nodiscard]] copland::EvidencePtr measured(const std::string& place,
                                              const std::string& target,
                                              bool tampered = false) const {
    return copland::Evidence::measurement(
        "hash", place, target,
        crypto::sha256(std::string(tampered ? "tampered@" : "program@") +
                       place),
        "hashed " + target);
  }

  /// `body` signed by `place`'s key.
  [[nodiscard]] copland::EvidencePtr sign(const std::string& place,
                                          const copland::EvidencePtr& body) {
    return copland::Evidence::signature(
        place, body, keys.signer_for(place)->sign(copland::digest(body)));
  }

  /// A round's record at `place`: the nonce and its program measurement.
  [[nodiscard]] copland::EvidencePtr round(const std::string& place,
                                           bool tampered = false) const {
    return copland::Evidence::seq(copland::Evidence::nonce_ev(nonce),
                                  measured(place, "program", tampered));
  }
};

}  // namespace pera::reference
