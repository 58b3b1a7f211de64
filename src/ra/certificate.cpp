#include "ra/certificate.h"

namespace pera::ra {

crypto::Digest Certificate::signing_payload() const {
  crypto::Sha256 h;
  h.update("pera.ra.certificate.v1");
  h.update(appraiser);
  h.update(nonce.value);
  h.update(evidence_digest);
  const std::uint8_t v = verdict ? 1 : 0;
  h.update(crypto::BytesView{&v, 1});
  crypto::Bytes t;
  crypto::append_u64(t, static_cast<std::uint64_t>(issued_at));
  h.update(crypto::BytesView{t.data(), t.size()});
  return h.finish();
}

crypto::Bytes Certificate::serialize() const {
  crypto::Bytes out;
  crypto::append_str(out, appraiser);
  crypto::append(out, nonce.value);
  crypto::append(out, evidence_digest);
  out.push_back(verdict ? 1 : 0);
  crypto::append_u64(out, static_cast<std::uint64_t>(issued_at));
  const crypto::Bytes sig_bytes = sig.serialize();
  crypto::append_blob(out,
                      crypto::BytesView{sig_bytes.data(), sig_bytes.size()});
  return out;
}

Certificate Certificate::deserialize(crypto::BytesView data) {
  crypto::ByteReader r(data, "Certificate::deserialize");
  Certificate c;
  c.appraiser = r.str();
  c.nonce.value = r.digest();
  c.evidence_digest = r.digest();
  c.verdict = r.u8() != 0;
  c.issued_at = static_cast<std::int64_t>(r.u64());
  const crypto::BytesView sig = r.blob();
  r.finish();
  c.sig = crypto::Signature::deserialize(sig);
  return c;
}

bool Certificate::verify(const crypto::Verifier& v) const {
  return v.verify(signing_payload(), sig);
}

}  // namespace pera::ra
