// Fig. 1 — Principals in Remote Attestation.
//
// Regenerates the cost structure of the Claim -> Evidence -> Result loop:
// evidence production at the attester (per claim count and signer scheme),
// appraisal at the appraiser, and the full RP-driven loop. The paper's
// figure is architectural; the series here quantify each arrow of it.
#include <benchmark/benchmark.h>

#include "ra/roles.h"

namespace {

using namespace pera;

struct Bed {
  explicit Bed(bool xmss, int claims)
      : keys(42),
        attester("switch1", xmss ? keys.provision_xmss("switch1", 12)
                                 : keys.provision_hmac("switch1")),
        appraiser("Appraiser", keys),
        rp("RP1", 43) {
    keys.provision_hmac("Appraiser");
    for (int i = 0; i < claims; ++i) {
      const std::string target = "component" + std::to_string(i);
      const crypto::Digest value = crypto::sha256("contents of " + target);
      attester.add_claim_source(
          {target, [value] { return value; }, "digest of " + target});
      appraiser.set_golden("switch1", target, value);
    }
  }

  crypto::KeyStore keys;
  ra::Attester attester;
  ra::Appraiser appraiser;
  ra::RelyingParty rp;
};

// ➀->➁ : the attester turns a claim set into signed evidence.
void BM_Fig1_ProduceEvidence(benchmark::State& state) {
  const bool xmss = state.range(0) != 0;
  const int claims = static_cast<int>(state.range(1));
  Bed bed(xmss, claims);
  std::size_t bytes = 0;
  for (auto _ : state) {
    const crypto::Nonce n = bed.rp.challenge();
    const auto evidence = bed.attester.attest({}, n);
    benchmark::DoNotOptimize(evidence);
    bytes = copland::wire_size(evidence);
  }
  state.counters["evidence_bytes"] = static_cast<double>(bytes);
  state.SetLabel(xmss ? "xmss" : "hmac");
}
BENCHMARK(BM_Fig1_ProduceEvidence)
    ->ArgsProduct({{0, 1}, {1, 4, 16, 64}});

// ➂ : the appraiser verifies evidence against golden values.
void BM_Fig1_Appraise(benchmark::State& state) {
  const bool xmss = state.range(0) != 0;
  const int claims = static_cast<int>(state.range(1));
  Bed bed(xmss, claims);
  const crypto::Nonce n = bed.rp.challenge();
  const auto evidence = bed.attester.attest({}, n);
  for (auto _ : state) {
    const auto res = bed.appraiser.appraise(evidence, n, /*certify=*/true, 0,
                                            /*enforce_freshness=*/false);
    benchmark::DoNotOptimize(res);
  }
  state.SetLabel(xmss ? "xmss" : "hmac");
}
BENCHMARK(BM_Fig1_Appraise)->ArgsProduct({{0, 1}, {1, 4, 16, 64}});

// ➀->➃ : the complete loop including the RP's acceptance check.
void BM_Fig1_FullLoop(benchmark::State& state) {
  const bool xmss = state.range(0) != 0;
  Bed bed(xmss, 4);
  const crypto::Verifier& v = *bed.keys.verifier_for("Appraiser");
  std::size_t accepted = 0;
  for (auto _ : state) {
    const crypto::Nonce n = bed.rp.challenge();
    const auto evidence = bed.attester.attest({}, n);
    const auto res = bed.appraiser.appraise(evidence, n);
    if (res.certificate && bed.rp.accept(*res.certificate, v)) ++accepted;
  }
  state.counters["accept_rate"] =
      static_cast<double>(accepted) / static_cast<double>(state.iterations());
  state.SetLabel(xmss ? "xmss" : "hmac");
}
BENCHMARK(BM_Fig1_FullLoop)->Arg(0)->Arg(1);

// Certificate issue/verify, the ➃ arrow alone.
void BM_Fig1_CertificateVerify(benchmark::State& state) {
  Bed bed(false, 4);
  const crypto::Nonce n = bed.rp.challenge();
  const auto res = bed.appraiser.appraise(bed.attester.attest({}, n), n);
  const crypto::Verifier& v = *bed.keys.verifier_for("Appraiser");
  for (auto _ : state) {
    benchmark::DoNotOptimize(res.certificate->verify(v));
  }
  state.counters["cert_bytes"] =
      static_cast<double>(res.certificate->serialize().size());
}
BENCHMARK(BM_Fig1_CertificateVerify);

}  // namespace
