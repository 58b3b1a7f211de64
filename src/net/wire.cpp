#include "net/wire.h"

#include "crypto/sha256.h"

namespace pera::net {

using crypto::Bytes;
using crypto::BytesView;

const char* to_string(RejectReason r) {
  switch (r) {
    case RejectReason::kNone: return "none";
    case RejectReason::kBadQuote: return "bad_quote";
    case RejectReason::kUnknownPlace: return "unknown_place";
    case RejectReason::kReplayedNonce: return "replayed_nonce";
    case RejectReason::kMalformed: return "malformed";
    case RejectReason::kServerFull: return "server_full";
    case RejectReason::kRoleRefused: return "role_refused";
  }
  return "unknown";
}

crypto::Digest Quote::signing_payload() const {
  crypto::Sha256 h;
  h.update("pera.net.quote.v1");
  Bytes t;
  crypto::append_str(t, place);
  h.update(BytesView{t.data(), t.size()});
  h.update(nonce.value);
  h.update(measurement);
  return h.finish();
}

Quote Quote::make(std::string place, const crypto::Nonce& nonce,
                  const crypto::Digest& measurement, crypto::Signer& signer) {
  Quote q;
  q.place = std::move(place);
  q.nonce = nonce;
  q.measurement = measurement;
  q.sig = signer.sign(q.signing_payload());
  return q;
}

bool Quote::verify(const crypto::Verifier& v) const {
  return crypto::verify_any(v, signing_payload(), sig);
}

Bytes Quote::serialize() const {
  Bytes out;
  crypto::append_str(out, place);
  crypto::append(out, nonce.value);
  crypto::append(out, measurement);
  const Bytes sig_bytes = sig.serialize();
  crypto::append_blob(out, BytesView{sig_bytes.data(), sig_bytes.size()});
  return out;
}

Quote Quote::deserialize(BytesView data) {
  crypto::ByteReader r(data, "Quote");
  Quote q;
  q.place = r.str();
  q.nonce.value = r.digest();
  q.measurement = r.digest();
  const BytesView sig = r.blob();
  r.finish();
  q.sig = crypto::Signature::deserialize(sig);
  return q;
}

Bytes HelloMsg::serialize() const {
  Bytes out;
  out.push_back(version);
  out.push_back(static_cast<std::uint8_t>(role));
  out.push_back(want_mutual ? 1 : 0);
  crypto::append_str(out, place);
  crypto::append(out, session_nonce.value);
  crypto::append_blob(out, BytesView{quote.data(), quote.size()});
  return out;
}

HelloMsg HelloMsg::deserialize(BytesView data) {
  crypto::ByteReader r(data, "HelloMsg");
  HelloMsg m;
  m.version = r.u8();
  const std::uint8_t role = r.u8();
  if (role != static_cast<std::uint8_t>(SessionRole::kSwitch) &&
      role != static_cast<std::uint8_t>(SessionRole::kRelyingParty)) {
    r.fail("unknown role");
  }
  m.role = static_cast<SessionRole>(role);
  m.want_mutual = r.u8() != 0;
  m.place = r.str();
  m.session_nonce.value = r.digest();
  const BytesView quote = r.blob();
  m.quote.assign(quote.begin(), quote.end());
  r.finish();
  return m;
}

Bytes HelloAckMsg::serialize() const {
  Bytes out;
  out.push_back(version);
  out.push_back(admitted ? 1 : 0);
  out.push_back(static_cast<std::uint8_t>(reject));
  crypto::append(out, server_nonce.value);
  crypto::append_blob(out, BytesView{quote.data(), quote.size()});
  return out;
}

HelloAckMsg HelloAckMsg::deserialize(BytesView data) {
  crypto::ByteReader r(data, "HelloAckMsg");
  HelloAckMsg m;
  m.version = r.u8();
  m.admitted = r.u8() != 0;
  const std::uint8_t reject = r.u8();
  if (reject > static_cast<std::uint8_t>(RejectReason::kRoleRefused)) {
    r.fail("unknown reject reason");
  }
  m.reject = static_cast<RejectReason>(reject);
  m.server_nonce.value = r.digest();
  const BytesView quote = r.blob();
  m.quote.assign(quote.begin(), quote.end());
  r.finish();
  return m;
}

Bytes ChallengeFrame::serialize() const {
  Bytes out;
  crypto::append_str(out, place);
  const Bytes ch = challenge.serialize();
  crypto::append_blob(out, BytesView{ch.data(), ch.size()});
  return out;
}

ChallengeFrame ChallengeFrame::deserialize(BytesView data) {
  crypto::ByteReader r(data, "ChallengeFrame");
  ChallengeFrame f;
  f.place = r.str();
  const BytesView ch = r.blob();
  r.finish();
  f.challenge = core::Challenge::deserialize(ch);
  return f;
}

crypto::Digest derive_quote_key(const crypto::Digest& root,
                                const std::string& place) {
  crypto::Sha256 h;
  h.update("pera.net.quotekey.v1");
  h.update(root);
  h.update(place);
  return h.finish();
}

crypto::Digest session_id(const std::string& place,
                          const crypto::Nonce& client_nonce,
                          const crypto::Nonce& server_nonce) {
  crypto::Sha256 h;
  h.update("pera.net.session.v1");
  h.update(place);
  h.update(client_nonce.value);
  h.update(server_nonce.value);
  return h.finish();
}

}  // namespace pera::net
