// Fuzz harness for the fleet control-plane wire surfaces: the signed
// per-switch Certificate, the per-region Aggregate (composition tree),
// and the root's WaveCommand. A compromised regional appraiser — or
// anyone on the path — controls these bytes, so the invariant is the
// usual one: arbitrary input either decodes or throws
// std::invalid_argument — never another exception, a crash, a hang, or an
// out-of-bounds read. Whatever does decode is then pushed through the
// verification layer (signature, coverage, Merkle recomputation) against
// an empty key store, which must reject it gracefully.
//
// Built by -DPERA_FUZZ=ON: with libFuzzer under clang, or with the
// standalone replay/mutation driver (standalone_driver.cpp) elsewhere.
// Seed corpus: tests/fixtures/fuzz/{certificate,aggregate,wave_cmd}.bin.
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "crypto/bytes.h"
#include "crypto/keystore.h"
#include "fleet/aggregate.h"
#include "ra/certificate.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const pera::crypto::BytesView view{data, size};
  try {
    (void)pera::ra::Certificate::deserialize(view);
  } catch (const std::invalid_argument&) {
  }
  try {
    const pera::fleet::Aggregate agg =
        pera::fleet::Aggregate::deserialize(view);
    // Decoded aggregates feed the root's verifier: with no provisioned
    // keys every one must be rejected, never crash.
    static const pera::crypto::KeyStore empty_keys(0);
    pera::fleet::VerifyOptions opts;
    opts.keys = &empty_keys;
    std::vector<std::string> members;
    members.reserve(agg.entries.size());
    for (const auto& e : agg.entries) members.push_back(e.place);
    const auto check =
        pera::fleet::verify_aggregate(agg, members, agg.nonce, agg.wave, opts);
    if (check.valid) __builtin_trap();  // unsigned input must never verify
  } catch (const std::invalid_argument&) {
  }
  try {
    (void)pera::fleet::WaveCommand::deserialize(view);
  } catch (const std::invalid_argument&) {
  }
  return 0;
}
