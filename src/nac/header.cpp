#include "nac/header.h"

namespace pera::nac {

using crypto::Bytes;
using crypto::BytesView;

Bytes PolicyHeader::serialize() const {
  Bytes out;
  out.push_back(static_cast<std::uint8_t>(kMagic >> 8));
  out.push_back(static_cast<std::uint8_t>(kMagic & 0xff));
  out.push_back(kVersion);
  out.push_back(flags);
  out.push_back(sampling_log2);
  crypto::append(out, nonce.value);
  crypto::append(out, policy_id);
  crypto::append_str(out, appraiser);
  crypto::append_u32(out, static_cast<std::uint32_t>(hops.size()));
  for (const auto& h : hops) {
    crypto::append_str(out, h.place);
    crypto::append_str(out, h.guard);
    std::uint8_t hflags = 0;
    if (h.wildcard) hflags |= 1;
    if (h.hash_evidence) hflags |= 2;
    if (h.sign_evidence) hflags |= 4;
    if (h.is_collector) hflags |= 8;
    if (h.out_of_band) hflags |= 16;
    out.push_back(hflags);
    out.push_back(h.detail);
    crypto::append_u32(out, static_cast<std::uint32_t>(h.custom_targets.size()));
    for (const auto& t : h.custom_targets) crypto::append_str(out, t);
  }
  return out;
}

PolicyHeader PolicyHeader::deserialize(BytesView data) {
  crypto::ByteReader r(data, "PolicyHeader");
  if (r.u8() != (kMagic >> 8) || r.u8() != (kMagic & 0xff)) {
    r.fail("bad magic");
  }
  if (r.u8() != kVersion) r.fail("unsupported version");
  PolicyHeader h;
  h.flags = r.u8();
  h.sampling_log2 = r.u8();
  h.nonce.value = r.digest();
  h.policy_id = r.digest();
  h.appraiser = r.str();
  // A hop needs at least two length-prefixed strings + flags + detail +
  // target count = 14 bytes.
  const std::size_t n = r.count(14);
  h.hops.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    HopInstruction hop;
    hop.place = r.str();
    hop.guard = r.str();
    const std::uint8_t hflags = r.u8();
    hop.wildcard = (hflags & 1) != 0;
    hop.hash_evidence = (hflags & 2) != 0;
    hop.sign_evidence = (hflags & 4) != 0;
    hop.is_collector = (hflags & 8) != 0;
    hop.out_of_band = (hflags & 16) != 0;
    hop.detail = r.u8();
    const std::size_t nt = r.count(4);  // >= 4 bytes per string
    hop.custom_targets.reserve(nt);
    for (std::size_t j = 0; j < nt; ++j) hop.custom_targets.push_back(r.str());
    h.hops.push_back(std::move(hop));
  }
  r.finish();
  return h;
}

std::vector<const HopInstruction*> PolicyHeader::instructions_for(
    const std::string& place) const {
  std::vector<const HopInstruction*> out;
  bool pinned = false;
  for (const auto& h : hops) {
    if (!h.wildcard && h.place == place && !h.is_collector) {
      out.push_back(&h);
      pinned = true;
    }
  }
  if (!pinned) {
    for (const auto& h : hops) {
      if (h.wildcard && !h.is_collector) out.push_back(&h);
    }
  }
  return out;
}

PolicyHeader make_header(const CompiledPolicy& policy,
                         const crypto::Nonce& nonce, bool in_band,
                         std::uint8_t sampling_log2) {
  PolicyHeader h;
  h.flags = 0;
  if (in_band) h.flags |= kFlagInBand;
  if (policy.composition == CompositionMode::kChained) {
    h.flags |= kFlagChained;
  }
  h.sampling_log2 = sampling_log2;
  h.nonce = nonce;
  h.policy_id = policy.policy_id;
  h.appraiser = policy.appraiser;
  h.hops = policy.hops;
  return h;
}

void EvidenceCarrier::add(std::string place, Bytes evidence) {
  records.push_back(EvidenceRecord{std::move(place), std::move(evidence)});
}

Bytes EvidenceCarrier::serialize() const {
  Bytes out;
  crypto::append_u32(out, static_cast<std::uint32_t>(records.size()));
  for (const auto& r : records) {
    crypto::append_str(out, r.place);
    crypto::append_blob(out, BytesView{r.evidence.data(), r.evidence.size()});
  }
  return out;
}

EvidenceCarrier EvidenceCarrier::deserialize(BytesView data) {
  crypto::ByteReader r(data, "EvidenceCarrier");
  EvidenceCarrier c;
  const std::size_t n = r.count(8);  // >= 8 bytes per record
  c.records.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    EvidenceRecord rec;
    rec.place = r.str();
    const BytesView ev = r.blob();
    rec.evidence.assign(ev.begin(), ev.end());
    c.records.push_back(std::move(rec));
  }
  r.finish();
  return c;
}

std::size_t EvidenceCarrier::wire_size() const { return serialize().size(); }

}  // namespace pera::nac
