// Reference appraisal for differential checks of copland::appraise: decode
// the bytes into a tree, then walk the tree in pre-order, hashing each
// signature's child by re-encoding it. tests/test_fuzz.cpp and
// fuzz/fuzz_evidence_decoder.cpp hold the byte walk to it.
//
// Also here: the fixed keys, goldens and nonce both checks appraise under,
// and helpers that build genuine records under them.
#pragma once

#include <stdexcept>
#include <string>

#include "copland/evidence.h"
#include "copland/testbed.h"
#include "crypto/keystore.h"

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
