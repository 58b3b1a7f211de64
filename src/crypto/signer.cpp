#include "crypto/signer.h"

#include <stdexcept>

#include "crypto/hmac.h"

namespace pera::crypto {

std::string to_string(SignatureScheme s) {
  switch (s) {
    case SignatureScheme::kHmacDeviceKey:
      return "hmac-device-key";
    case SignatureScheme::kXmss:
      return "xmss";
    case SignatureScheme::kBatched:
      return "merkle-batched";
  }
  return "unknown";
}

Signature wrap_batched(const Digest& root, const MerkleProof& proof,
                       const Signature& root_sig) {
  Signature out;
  out.scheme = SignatureScheme::kBatched;
  out.key_id = root_sig.key_id;
  append(out.payload, root);
  const Bytes proof_bytes = proof.serialize();
  append_blob(out.payload, BytesView{proof_bytes.data(), proof_bytes.size()});
  const Bytes inner = root_sig.serialize();
  append_blob(out.payload, BytesView{inner.data(), inner.size()});
  return out;
}

bool verify_any(const Verifier& verifier, const Digest& message,
                const Signature& sig) {
  if (sig.scheme != SignatureScheme::kBatched) {
    return verifier.verify(message, sig);
  }
  try {
    ByteReader r(BytesView{sig.payload.data(), sig.payload.size()},
                 "batched signature");
    const Digest root = r.digest();
    const MerkleProof proof = MerkleProof::deserialize(r.blob());
    const Signature inner = Signature::deserialize(r.blob());
    r.finish();
    if (inner.scheme == SignatureScheme::kBatched) return false;  // no nesting
    return MerkleTree::verify(root, message, proof) &&
           verifier.verify(root, inner);
  } catch (const std::invalid_argument&) {
    return false;
  }
}

Digest make_key_id(SignatureScheme scheme, const Digest& material) {
  Sha256 h;
  h.update("pera.keyid.");
  h.update(to_string(scheme));
  h.update(material);
  return h.finish();
}

Bytes Signature::serialize() const {
  Bytes out;
  out.push_back(static_cast<std::uint8_t>(scheme));
  append(out, key_id);
  append_blob(out, BytesView{payload.data(), payload.size()});
  return out;
}

Signature Signature::deserialize(BytesView data) {
  ByteReader r(data, "Signature::deserialize");
  Signature sig;
  sig.scheme = static_cast<SignatureScheme>(r.u8());
  if (sig.scheme != SignatureScheme::kHmacDeviceKey &&
      sig.scheme != SignatureScheme::kXmss &&
      sig.scheme != SignatureScheme::kBatched) {
    r.fail("unknown scheme");
  }
  sig.key_id = r.digest();
  const BytesView payload = r.blob();
  r.finish();
  sig.payload.assign(payload.begin(), payload.end());
  return sig;
}

std::size_t Signature::wire_size() const { return 37 + payload.size(); }

HmacSigner::HmacSigner(Digest device_key)
    : schedule_(BytesView{device_key.v.data(), device_key.v.size()}),
      key_id_(make_key_id(SignatureScheme::kHmacDeviceKey,
                          sha256(BytesView{device_key.v.data(),
                                           device_key.v.size()}))) {}

Signature HmacSigner::sign(const Digest& message) {
  Signature sig;
  sig.scheme = SignatureScheme::kHmacDeviceKey;
  sig.key_id = key_id_;
  sig.payload = schedule_.mac(message).to_bytes();
  return sig;
}

HmacVerifier::HmacVerifier(Digest device_key)
    : schedule_(BytesView{device_key.v.data(), device_key.v.size()}),
      key_id_(make_key_id(SignatureScheme::kHmacDeviceKey,
                          sha256(BytesView{device_key.v.data(),
                                           device_key.v.size()}))) {}

bool HmacVerifier::verify(const Digest& message, const Signature& sig) const {
  if (sig.scheme != SignatureScheme::kHmacDeviceKey) return false;
  if (sig.key_id != key_id_) return false;
  const Digest expect = schedule_.mac(message);
  return ct_equal(BytesView{expect.v.data(), expect.v.size()},
                  BytesView{sig.payload.data(), sig.payload.size()});
}

XmssSigner::XmssSigner(const Digest& seed, unsigned height)
    : keypair_(seed, height),
      key_id_(make_key_id(SignatureScheme::kXmss, keypair_.public_root())) {}

Signature XmssSigner::sign(const Digest& message) {
  Signature sig;
  sig.scheme = SignatureScheme::kXmss;
  sig.key_id = key_id_;
  sig.payload = keypair_.sign(message).serialize();
  return sig;
}

XmssVerifier::XmssVerifier(Digest public_root)
    : public_root_(public_root),
      key_id_(make_key_id(SignatureScheme::kXmss, public_root)) {}

bool XmssVerifier::verify(const Digest& message, const Signature& sig) const {
  if (sig.scheme != SignatureScheme::kXmss) return false;
  if (sig.key_id != key_id_) return false;
  XmssSignature parsed;
  try {
    parsed = XmssSignature::deserialize(
        BytesView{sig.payload.data(), sig.payload.size()});
  } catch (const std::invalid_argument&) {
    return false;  // malformed payload
  }
  return XmssKeyPair::verify(public_root_, message, parsed);
}

}  // namespace pera::crypto
