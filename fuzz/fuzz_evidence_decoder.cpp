// Fuzz harness for every wire decoder an attacker can reach over the
// network: the Copland evidence codec, the challenge / evidence / nonce
// message formats, the in-band policy header and evidence carrier, and
// the signature formats (plain, Merkle proof, XMSS) plus endorsements.
// The invariant: arbitrary bytes either decode or throw
// std::invalid_argument — never another exception, a crash, a hang, or an
// out-of-bounds read.
//
// Differential: copland::appraise's walk over the bytes must agree with
// decode() plus the reference tree walk (tests/reference_appraisal.h) on
// the verdict, the finding kinds, the counts and the content digest, and
// must report kMalformed exactly when decode() throws. On bytes that
// decode, the walk's report must match the reference tree walks too: the
// hops PathVerifier reads from it, the measurements, the required-pair and
// signed-place answers, the fleet measurement root and the nonces. Both
// appraise under the reference's fixed HMAC/XMSS keys, goldens and nonce;
// a disagreement aborts.
//
// Built by -DPERA_FUZZ=ON: with libFuzzer under clang, or with the
// standalone replay/mutation driver (standalone_driver.cpp) elsewhere.
// Seed corpus: tests/fixtures/fuzz/*.bin (genuine serialized messages,
// plus evidence_deep_seq.bin: 100 KB of nested seq tags, and
// evidence_batched.bin: a Merkle-batched record signed by the reference's
// sw2 key, and evidence_nested.bin: an unnamed sw1 signature over a nested
// sw2 signature, beside stray unsigned measurements).
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>

#include "copland/evidence.h"
#include "core/wire.h"
#include "crypto/bytes.h"
#include "crypto/merkle.h"
#include "crypto/signer.h"
#include "nac/header.h"
#include "ra/endorsement.h"
#include "reference_appraisal.h"

namespace {

template <typename Fn>
void decode_or_reject(Fn&& fn) {
  try {
    (void)fn();
  } catch (const std::invalid_argument&) {
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using namespace pera;
  const crypto::BytesView view{data, size};
  decode_or_reject([&] { return copland::decode(view); });
  decode_or_reject([&] { return core::Challenge::deserialize(view); });
  decode_or_reject([&] { return core::EvidenceMsg::deserialize(view); });
  decode_or_reject([&] { return core::NonceMsg::deserialize(view); });
  decode_or_reject([&] { return nac::PolicyHeader::deserialize(view); });
  decode_or_reject([&] { return nac::EvidenceCarrier::deserialize(view); });
  decode_or_reject([&] { return ra::Endorsement::deserialize(view); });
  decode_or_reject([&] { return crypto::Signature::deserialize(view); });
  decode_or_reject([&] { return crypto::MerkleProof::deserialize(view); });
  decode_or_reject([&] { return crypto::XmssSignature::deserialize(view); });

  static reference::AppraisalSetup setup;
  copland::AppraisalReport report;
  const copland::AppraisalResult walk =
      copland::appraise(view, &setup.goldens, setup.keys, setup.nonce, &report);
  const copland::AppraisalResult ref =
      reference::appraise(view, &setup.goldens, setup.keys, setup.nonce);
  if (!reference::difference(walk, ref).empty()) std::abort();
  if (walk.decoded &&
      !reference::report_difference(view, report, setup.goldens, setup.keys)
           .empty()) {
    std::abort();
  }
  return 0;
}
