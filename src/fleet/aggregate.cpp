#include "fleet/aggregate.h"

#include <algorithm>
#include <stdexcept>

#include "crypto/drbg.h"
#include "obs/obs.h"

namespace pera::fleet {

using crypto::Bytes;
using crypto::BytesView;
using crypto::Digest;

namespace {

constexpr std::size_t kMaxName = 1 << 12;       // place/region names
constexpr std::size_t kMaxEntries = 1 << 20;    // members per aggregate
constexpr std::size_t kMaxEvidence = 1 << 20;   // carried evidence bytes
constexpr std::size_t kMaxSig = 1 << 16;

// A lookup that knows no key: an appraisal under it verifies nothing.
struct NoKeys final : crypto::VerifierLookup {
  const crypto::Verifier* verifier_by_key_id(const Digest&) const override {
    return nullptr;
  }
};

}  // namespace

const char* to_string(EntryOutcome o) {
  switch (o) {
    case EntryOutcome::kPass:
      return "pass";
    case EntryOutcome::kFail:
      return "fail";
    case EntryOutcome::kTimeout:
      return "timeout";
  }
  return "?";
}

Digest AggregateEntry::leaf_digest() const {
  crypto::Sha256 h;
  h.update("pera.fleet.entry.v1");
  Bytes hdr;
  crypto::append_u32(hdr, static_cast<std::uint32_t>(place.size()));
  h.update(BytesView{hdr.data(), hdr.size()});
  h.update(place);
  const std::uint8_t tag[2] = {static_cast<std::uint8_t>(outcome),
                               static_cast<std::uint8_t>(verdict ? 1 : 0)};
  h.update(BytesView{tag, 2});
  h.update(measurement_root);
  return h.finish();
}

Digest Aggregate::signing_payload() const {
  crypto::Sha256 h;
  h.update("pera.fleet.aggregate.v1");
  Bytes meta;
  crypto::append_str(meta, region);
  crypto::append_str(meta, appraiser);
  crypto::append_u64(meta, wave);
  h.update(BytesView{meta.data(), meta.size()});
  h.update(nonce.value);
  h.update(merkle_root);
  Bytes count;
  crypto::append_u32(count, static_cast<std::uint32_t>(entries.size()));
  h.update(BytesView{count.data(), count.size()});
  return h.finish();
}

Bytes Aggregate::serialize() const {
  Bytes out;
  crypto::append_str(out, region);
  crypto::append_str(out, appraiser);
  crypto::append_u64(out, wave);
  crypto::append(out, nonce.value);
  crypto::append(out, merkle_root);
  crypto::append_u32(out, static_cast<std::uint32_t>(entries.size()));
  for (const auto& e : entries) {
    crypto::append_str(out, e.place);
    out.push_back(static_cast<std::uint8_t>(e.outcome));
    out.push_back(e.verdict ? 1 : 0);
    crypto::append_u32(out, e.attempts);
    crypto::append(out, e.measurement_root);
    crypto::append(out, e.evidence_digest);
    crypto::append_blob(out, BytesView{e.evidence.data(), e.evidence.size()});
  }
  const Bytes sig = this->sig.serialize();
  crypto::append_blob(out, BytesView{sig.data(), sig.size()});
  PERA_OBS_COUNT("wire.fleet_aggregate.encoded_bytes", out.size());
  return out;
}

Aggregate Aggregate::deserialize(BytesView data) {
  crypto::ByteReader r(data, "Aggregate");
  Aggregate a;
  a.region = r.str(kMaxName);
  a.appraiser = r.str(kMaxName);
  a.wave = r.u64();
  a.nonce.value = r.digest();
  a.merkle_root = r.digest();
  // An entry is at least a name, two flag bytes, attempts, two digests
  // and an evidence length: 4 + 2 + 4 + 64 + 4 bytes.
  const std::size_t count = r.count(78, kMaxEntries);
  a.entries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    AggregateEntry e;
    e.place = r.str(kMaxName);
    const std::uint8_t outcome = r.u8();
    if (outcome > static_cast<std::uint8_t>(EntryOutcome::kTimeout)) {
      r.fail("bad entry outcome");
    }
    e.outcome = static_cast<EntryOutcome>(outcome);
    e.verdict = r.u8() != 0;
    e.attempts = r.u32();
    e.measurement_root = r.digest();
    e.evidence_digest = r.digest();
    const BytesView ev = r.blob(kMaxEvidence);
    e.evidence.assign(ev.begin(), ev.end());
    a.entries.push_back(std::move(e));
  }
  const BytesView sig = r.blob(kMaxSig);
  r.finish();
  a.sig = crypto::Signature::deserialize(sig);
  PERA_OBS_COUNT("wire.fleet_aggregate.decoded_bytes", data.size());
  return a;
}

Bytes WaveCommand::serialize() const {
  Bytes out;
  crypto::append_str(out, region);
  crypto::append_u64(out, wave);
  crypto::append(out, nonce.value);
  out.push_back(detail);
  out.push_back(carry_evidence ? 1 : 0);
  crypto::append_u32(out, static_cast<std::uint32_t>(members.size()));
  for (const auto& m : members) crypto::append_str(out, m);
  return out;
}

WaveCommand WaveCommand::deserialize(BytesView data) {
  crypto::ByteReader r(data, "WaveCommand");
  WaveCommand c;
  c.region = r.str(kMaxName);
  c.wave = r.u64();
  c.nonce.value = r.digest();
  c.detail = r.u8();
  c.carry_evidence = r.u8() != 0;
  const std::size_t count = r.count(4, kMaxEntries);  // >= 4 bytes per name
  c.members.reserve(count);
  for (std::size_t i = 0; i < count; ++i) c.members.push_back(r.str(kMaxName));
  r.finish();
  return c;
}

crypto::Nonce derive_member_nonce(const crypto::Nonce& wave_nonce,
                                  const std::string& place,
                                  std::uint64_t attempt) {
  crypto::Sha256 h;
  h.update("pera.fleet.member-nonce");
  h.update(wave_nonce.value);
  Bytes a;
  crypto::append_u64(a, attempt);
  h.update(BytesView{a.data(), a.size()});
  h.update(place);
  return crypto::Nonce{h.finish()};
}

Digest measurement_root_of(const copland::AppraisalReport& report) {
  if (report.measurements.empty()) return Digest{};
  crypto::Sha256 h;
  h.update("pera.fleet.measurements.v1");
  for (const auto& m : report.measurements) {
    h.update(m.target);
    h.update(m.value);
  }
  return h.finish();
}

copland::EvidencePtr to_evidence(const Aggregate& agg) {
  std::vector<copland::EvidencePtr> leaves;
  leaves.reserve(agg.entries.size());
  for (const auto& e : agg.entries) {
    leaves.push_back(copland::Evidence::hashed(e.place, e.leaf_digest()));
  }
  const auto body = copland::Evidence::seq(
      copland::Evidence::nonce_ev(agg.nonce),
      copland::fold_par_canonical(std::move(leaves)));
  return copland::Evidence::signature(agg.appraiser, body, agg.sig);
}

EvidenceAggregator::EvidenceAggregator(std::string region,
                                       std::string appraiser,
                                       std::vector<std::string> members)
    : region_(std::move(region)), appraiser_(std::move(appraiser)) {
  set_members(std::move(members));
}

void EvidenceAggregator::set_members(std::vector<std::string> members) {
  std::sort(members.begin(), members.end());
  members_ = std::move(members);
  index_.clear();
  for (std::size_t i = 0; i < members_.size(); ++i) index_[members_[i]] = i;
  leaves_.assign(members_.size(), Digest{});
  tree_.assign(leaves_);
  entries_.assign(members_.size(), std::nullopt);
  recorded_ = 0;
}

void EvidenceAggregator::begin_wave(std::uint64_t wave,
                                    const crypto::Nonce& nonce) {
  wave_ = wave;
  nonce_ = nonce;
  entries_.assign(members_.size(), std::nullopt);
  recorded_ = 0;
}

void EvidenceAggregator::record(AggregateEntry entry) {
  const auto it = index_.find(entry.place);
  if (it == index_.end()) {
    throw std::invalid_argument("EvidenceAggregator: unknown member " +
                                entry.place);
  }
  const std::size_t i = it->second;
  if (!entries_[i]) ++recorded_;
  const Digest leaf = entry.leaf_digest();
  if (leaf != leaves_[i]) {
    leaves_[i] = leaf;
    tree_.set_leaf(i, leaf);
  }
  entries_[i] = std::move(entry);
}

Aggregate EvidenceAggregator::seal(crypto::Signer& signer) {
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (entries_[i]) continue;
    AggregateEntry e;
    e.place = members_[i];
    e.outcome = EntryOutcome::kTimeout;
    record(std::move(e));
  }
  Aggregate agg;
  agg.region = region_;
  agg.appraiser = appraiser_;
  agg.wave = wave_;
  agg.nonce = nonce_;
  agg.entries.reserve(members_.size());
  for (const auto& e : entries_) agg.entries.push_back(*e);
  agg.merkle_root = tree_.root();
  agg.sig = signer.sign(agg.signing_payload());
  return agg;
}

AggregateCheck verify_aggregate(
    const Aggregate& agg, const std::vector<std::string>& expected_members,
    const crypto::Nonce& expected_nonce, std::uint64_t expected_wave,
    const VerifyOptions& opts) {
  AggregateCheck out;
  const auto fail = [&out](std::string reason) -> AggregateCheck {
    out.valid = false;
    out.reason = std::move(reason);
    PERA_OBS_COUNT("fleet.aggregate.rejected");
    return out;
  };

  if (opts.keys == nullptr) return fail("no key store");
  const crypto::Verifier* v = opts.keys->verifier_for(agg.appraiser);
  if (v == nullptr) return fail("unknown regional " + agg.appraiser);
  if (!crypto::verify_any(*v, agg.signing_payload(), agg.sig)) {
    return fail("bad regional signature");
  }
  if (agg.wave != expected_wave) return fail("wave mismatch");
  if (agg.nonce != expected_nonce) return fail("nonce mismatch");

  std::vector<std::string> expected = expected_members;
  std::sort(expected.begin(), expected.end());
  if (agg.entries.size() != expected.size()) {
    return fail("member count mismatch");
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (agg.entries[i].place != expected[i]) {
      return fail("member coverage mismatch at " + agg.entries[i].place);
    }
  }

  std::vector<Digest> leaves;
  leaves.reserve(agg.entries.size());
  for (const auto& e : agg.entries) leaves.push_back(e.leaf_digest());
  crypto::IncrementalMerkleTree recompute(std::move(leaves));
  if (recompute.root() != agg.merkle_root) return fail("merkle root mismatch");

  // Deterministic freshness pass over every carried evidence blob: one
  // appraisal walk, digest check, and derived-nonce binding. A regional
  // replaying an old wave's evidence fails here on every aggregate, not
  // only when audited. The pass reads structure and nonces only, so the
  // walk resolves no key and its signature findings are ignored.
  const NoKeys no_keys;
  struct Decoded {
    std::size_t index;
    crypto::Nonce nonce;
  };
  std::vector<Decoded> decoded;
  for (std::size_t i = 0; i < agg.entries.size(); ++i) {
    const AggregateEntry& e = agg.entries[i];
    if (e.evidence.empty()) {
      if (opts.require_evidence && e.outcome == EntryOutcome::kPass) {
        out.blamed.push_back(e.place);
        return fail("pass entry without evidence: " + e.place);
      }
      continue;
    }
    const BytesView bytes{e.evidence.data(), e.evidence.size()};
    copland::AppraisalReport report;
    if (!copland::appraise(bytes, nullptr, no_keys, {}, &report).decoded) {
      out.blamed.push_back(e.place);
      return fail("undecodable evidence: " + e.place);
    }
    if (crypto::sha256(bytes) != e.evidence_digest) {
      out.blamed.push_back(e.place);
      return fail("evidence digest mismatch: " + e.place);
    }
    const std::uint32_t tries =
        std::min(std::max(e.attempts, std::uint32_t{1}), opts.max_attempts);
    std::optional<crypto::Nonce> matched;
    for (std::uint32_t a = 1; a <= tries && !matched; ++a) {
      const crypto::Nonce want = derive_member_nonce(expected_nonce, e.place, a);
      if (std::find(report.nonces.begin(), report.nonces.end(), want) !=
          report.nonces.end()) {
        matched = want;
      }
    }
    if (!matched) {
      out.blamed.push_back(e.place);
      return fail("stale or unbound evidence nonce: " + e.place);
    }
    decoded.push_back(Decoded{i, *matched});
  }

  // Seeded audit: re-appraise a sample of the carried evidence against
  // the root's own goldens; the regional's verdicts must agree.
  if (opts.root_appraiser != nullptr && opts.audit_entries > 0 &&
      !decoded.empty()) {
    crypto::Drbg rng(opts.audit_seed ^ agg.wave);
    std::vector<std::size_t> order(decoded.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.uniform(i)]);
    }
    const std::size_t n_audit = std::min(opts.audit_entries, decoded.size());
    for (std::size_t k = 0; k < n_audit; ++k) {
      const Decoded& d = decoded[order[k]];
      const AggregateEntry& e = agg.entries[d.index];
      const ra::AttestationResult res = opts.root_appraiser->appraise(
          e.evidence, d.nonce, /*certify=*/false, /*now=*/0,
          /*enforce_freshness=*/false);
      ++out.audited;
      PERA_OBS_COUNT("fleet.audit.entries");
      if (res.ok != e.verdict) {
        out.blamed.push_back(e.place);
        return fail("audit verdict mismatch: " + e.place);
      }
    }
  }

  for (const auto& e : agg.entries) {
    out.per_switch[e.place] = PerSwitchVerdict{e.outcome, e.verdict};
  }
  out.valid = true;
  return out;
}

}  // namespace pera::fleet
