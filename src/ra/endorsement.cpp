#include "ra/endorsement.h"

namespace pera::ra {

crypto::Digest Endorsement::signing_payload() const {
  crypto::Sha256 h;
  h.update("pera.ra.endorsement.v1");
  h.update(endorser);
  h.update(std::string_view{"\x00", 1});
  h.update(place);
  h.update(std::string_view{"\x00", 1});
  h.update(target);
  h.update(std::string_view{"\x00", 1});
  h.update(description);
  h.update(value);
  return h.finish();
}

Endorsement Endorsement::make(std::string endorser, std::string place,
                              std::string target, std::string description,
                              const crypto::Digest& value,
                              crypto::Signer& signer) {
  Endorsement e;
  e.endorser = std::move(endorser);
  e.place = std::move(place);
  e.target = std::move(target);
  e.description = std::move(description);
  e.value = value;
  e.sig = signer.sign(e.signing_payload());
  return e;
}

bool Endorsement::verify(const crypto::Verifier& v) const {
  return v.verify(signing_payload(), sig);
}

crypto::Bytes Endorsement::serialize() const {
  crypto::Bytes out;
  crypto::append_str(out, endorser);
  crypto::append_str(out, place);
  crypto::append_str(out, target);
  crypto::append_str(out, description);
  crypto::append(out, value);
  const crypto::Bytes sig_bytes = sig.serialize();
  crypto::append_blob(out,
                      crypto::BytesView{sig_bytes.data(), sig_bytes.size()});
  return out;
}

Endorsement Endorsement::deserialize(crypto::BytesView data) {
  crypto::ByteReader r(data, "Endorsement");
  Endorsement e;
  e.endorser = r.str();
  e.place = r.str();
  e.target = r.str();
  e.description = r.str();
  e.value = r.digest();
  const crypto::BytesView sig = r.blob();
  r.finish();
  e.sig = crypto::Signature::deserialize(sig);
  return e;
}

}  // namespace pera::ra
