#include "ra/roles.h"

#include <algorithm>
#include <stdexcept>

#include "obs/obs.h"

namespace pera::ra {

using copland::Evidence;

void Attester::add_claim_source(ClaimSource source) {
  sources_.push_back(std::move(source));
}

std::vector<std::string> Attester::targets() const {
  std::vector<std::string> out;
  out.reserve(sources_.size());
  for (const auto& s : sources_) out.push_back(s.target);
  return out;
}

EvidencePtr Attester::attest(const std::vector<std::string>& targets,
                             const std::optional<crypto::Nonce>& nonce,
                             bool hash_before_sign) {
  ++attest_count_;
  EvidencePtr acc = Evidence::empty();
  if (nonce) acc = Evidence::extend(acc, Evidence::nonce_ev(*nonce));

  const auto measure_one = [&](const ClaimSource& s) {
    acc = Evidence::extend(
        acc, Evidence::measurement(name_, name_, s.target, s.measure(),
                                   s.claim_text));
  };

  if (targets.empty()) {
    for (const auto& s : sources_) measure_one(s);
  } else {
    for (const auto& t : targets) {
      const auto it = std::find_if(
          sources_.begin(), sources_.end(),
          [&](const ClaimSource& s) { return s.target == t; });
      if (it == sources_.end()) {
        throw std::invalid_argument("attester " + name_ +
                                    ": unknown claim target '" + t + "'");
      }
      measure_one(*it);
    }
  }

  if (hash_before_sign) {
    acc = Evidence::hashed(name_, copland::digest(acc));
  }
  crypto::Signature sig = signer_->sign(copland::digest(acc));
  PERA_OBS_COUNT("ra.attest.count");
  PERA_OBS_EVENT(obs::SpanKind::kSign, name_);
  return Evidence::signature(name_, acc, std::move(sig));
}

void Appraiser::set_golden(const std::string& place, const std::string& target,
                           const crypto::Digest& value) {
  goldens_[copland::ComponentId{place, target}] = value;
}

void Appraiser::require(const std::string& place, const std::string& target) {
  std::vector<std::string>& targets = required_[place];
  if (std::find(targets.begin(), targets.end(), target) == targets.end()) {
    targets.push_back(target);
  }
}

bool Appraiser::accept_endorsement(const Endorsement& endorsement,
                                   const std::string& pin_place) {
  const crypto::Verifier* v = keys_->verifier_for(endorsement.endorser);
  if (v == nullptr || !endorsement.verify(*v)) return false;
  const std::string& place =
      endorsement.place.empty() ? pin_place : endorsement.place;
  if (place.empty()) return false;  // nowhere to pin a product-wide value
  set_golden(place, endorsement.target, endorsement.value);
  return true;
}

AttestationResult Appraiser::appraise(
    crypto::BytesView evidence,
    const std::optional<crypto::Nonce>& expected_nonce, bool certify,
    std::int64_t now, bool enforce_freshness,
    copland::AppraisalReport* report) {
  ++appraisal_count_;
  obs::ScopedSpan span(obs::SpanKind::kAppraise, name_);
  const crypto::Nonce nonce = expected_nonce.value_or(crypto::Nonce{});
  copland::AppraisalReport own;
  if (report == nullptr && !required_.empty()) report = &own;
  AttestationResult result;
  result.detail =
      copland::appraise(evidence, &goldens_, *keys_, nonce, report);

  // Nonce replay detection: the same nonce may only be appraised once.
  if (enforce_freshness && !nonce.value.is_zero() && result.detail.ok) {
    if (!nonces_.observe(nonce)) {
      ++replays_rejected_;
      PERA_OBS_COUNT("ra.appraise.replay");
      result.detail.add({copland::AppraisalFinding::Kind::kStaleNonce, name_,
                         "nonce " + nonce.value.short_hex() +
                             " already appraised"});
    }
  }

  // Required coverage, answered from what the walk read.
  if (result.detail.decoded) {
    for (const auto& [place, targets] : required_) {
      for (const auto& target : targets) {
        if (!report->measured(place, target)) {
          result.detail.add({copland::AppraisalFinding::Kind::kBadMeasurement,
                             place,
                             "policy: missing required measurement of " +
                                 target});
        }
      }
      if (!report->signed_place(place)) {
        result.detail.add({copland::AppraisalFinding::Kind::kBadMeasurement,
                           place,
                           "policy: evidence from this place is not signed"});
      }
    }
  }
  result.ok = result.detail.ok;
  span.set_value(result.ok ? 1 : 0);
  PERA_OBS_COUNT(result.ok ? "ra.appraise.ok" : "ra.appraise.fail");

  if (certify) {
    crypto::Signer* signer = keys_->signer_for(name_);
    if (signer != nullptr) {
      Certificate cert =
          Certificate::issue(name_, nonce, evidence, result.ok, now, *signer);
      cert_store_[cert.nonce.value] = cert;
      result.certificate = std::move(cert);
      PERA_OBS_COUNT("ra.certificates.issued");
    }
  }
  return result;
}

std::optional<Certificate> Appraiser::retrieve(const crypto::Nonce& n) const {
  const auto it = cert_store_.find(n.value);
  if (it == cert_store_.end()) return std::nullopt;
  return it->second;
}

std::vector<Certificate> Appraiser::certificates_between(
    std::int64_t from, std::int64_t to) const {
  std::vector<Certificate> out;
  for (const auto& [nonce, cert] : cert_store_) {
    if (cert.issued_at >= from && cert.issued_at <= to) out.push_back(cert);
  }
  std::sort(out.begin(), out.end(),
            [](const Certificate& a, const Certificate& b) {
              return a.issued_at < b.issued_at;
            });
  return out;
}

std::vector<Certificate> Appraiser::failed_certificates() const {
  std::vector<Certificate> out;
  for (const auto& [nonce, cert] : cert_store_) {
    if (!cert.verdict) out.push_back(cert);
  }
  return out;
}

bool RelyingParty::accept(const Certificate& cert,
                          const crypto::Verifier& appraiser_key) {
  PERA_OBS_EVENT(obs::SpanKind::kVerify, name_);
  if (!cert.verify(appraiser_key)) return false;
  const bool fresh_nonce = cert.nonce.value.is_zero()
                               ? true
                               : nonces_.issued(cert.nonce) &&
                                     nonces_.observe(cert.nonce);
  if (!fresh_nonce) return false;
  if (!cert.verdict) return false;
  ++accepted_;
  PERA_OBS_COUNT("ra.rp.accepted");
  return true;
}

}  // namespace pera::ra
