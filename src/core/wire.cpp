#include "core/wire.h"

#include "obs/obs.h"

namespace pera::core {

using crypto::Bytes;
using crypto::BytesView;

void FlowBundle::to_message(netsim::Message& msg) const {
  msg.headers.clear();
  const Bytes policy_bytes = policy ? policy->serialize() : Bytes{};
  crypto::append_blob(msg.headers,
                      BytesView{policy_bytes.data(), policy_bytes.size()});
  const Bytes carrier_bytes = carrier.serialize();
  crypto::append_blob(msg.headers,
                      BytesView{carrier_bytes.data(), carrier_bytes.size()});

  msg.payload.clear();
  crypto::append_u32(msg.payload, raw.port);
  crypto::append(msg.payload, BytesView{raw.data.data(), raw.data.size()});
  PERA_OBS_COUNT("wire.flow_bundle.encoded_bytes",
                 msg.headers.size() + msg.payload.size());
  PERA_OBS_EVENT(obs::SpanKind::kWireEncode, "flow_bundle", 0,
                 msg.headers.size() + msg.payload.size());
}

FlowBundle FlowBundle::from_message(const netsim::Message& msg) {
  FlowBundle b;
  crypto::ByteReader hdr(BytesView{msg.headers.data(), msg.headers.size()},
                         "FlowBundle");
  const BytesView policy_bytes = hdr.blob();
  if (!policy_bytes.empty()) {
    b.policy = nac::PolicyHeader::deserialize(policy_bytes);
  }
  b.carrier = nac::EvidenceCarrier::deserialize(hdr.blob());
  hdr.finish();

  crypto::ByteReader pay(BytesView{msg.payload.data(), msg.payload.size()},
                         "FlowBundle payload");
  b.raw.port = pay.u32();
  const BytesView data = pay.bytes(pay.remaining());
  b.raw.data.assign(data.begin(), data.end());
  PERA_OBS_COUNT("wire.flow_bundle.decoded_bytes",
                 msg.headers.size() + msg.payload.size());
  PERA_OBS_EVENT(obs::SpanKind::kWireDecode, "flow_bundle", 0,
                 msg.headers.size() + msg.payload.size());
  return b;
}

Bytes Challenge::serialize() const {
  Bytes out;
  crypto::append(out, nonce.value);
  out.push_back(detail);
  out.push_back(hash_before_sign ? 1 : 0);
  out.push_back(in_band_reply ? 1 : 0);
  crypto::append_str(out, appraiser);
  PERA_OBS_COUNT("wire.challenge.encoded_bytes", out.size());
  PERA_OBS_EVENT(obs::SpanKind::kWireEncode, "challenge", 0, out.size());
  return out;
}

Challenge Challenge::deserialize(BytesView data) {
  crypto::ByteReader r(data, "Challenge");
  Challenge c;
  c.nonce.value = r.digest();
  c.detail = r.u8();
  c.hash_before_sign = r.u8() != 0;
  c.in_band_reply = r.u8() != 0;
  c.appraiser = r.str();
  r.finish();
  return c;
}

Bytes EvidenceMsg::serialize() const {
  Bytes out;
  crypto::append(out, nonce.value);
  crypto::append_blob(out, BytesView{evidence.data(), evidence.size()});
  PERA_OBS_COUNT("wire.evidence.encoded_bytes", out.size());
  PERA_OBS_EVENT(obs::SpanKind::kWireEncode, "evidence", 0, out.size());
  return out;
}

EvidenceMsg EvidenceMsg::deserialize(BytesView data) {
  crypto::ByteReader r(data, "EvidenceMsg");
  EvidenceMsg m;
  m.nonce.value = r.digest();
  const BytesView ev = r.blob();
  r.finish();
  m.evidence.assign(ev.begin(), ev.end());
  PERA_OBS_COUNT("wire.evidence.decoded_bytes", data.size());
  PERA_OBS_EVENT(obs::SpanKind::kWireDecode, "evidence", 0, data.size());
  return m;
}

Bytes NonceMsg::serialize() const {
  Bytes out;
  crypto::append(out, nonce.value);
  return out;
}

NonceMsg NonceMsg::deserialize(BytesView data) {
  crypto::ByteReader r(data, "NonceMsg");
  NonceMsg m;
  m.nonce.value = r.digest();
  r.finish();
  return m;
}

}  // namespace pera::core
