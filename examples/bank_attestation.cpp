// UC5 — Cross-referenced attestation: the bank example of §4.2 and AP1.
//
// Host-side Copland attestation (av measures bmon, bmon scans the browser
// extensions) is composed with network path attestation into one policy:
// Table 1's AP1. The example also replays the Ramsdell et al. repair
// attack to show why the sequential composition in expression (2) matters.
#include <cstdio>

#include "adversary/attacks.h"
#include "copland/analysis.h"
#include "copland/parser.h"
#include "copland/pretty.h"
#include "copland/semantics.h"
#include "copland/testbed.h"
#include "nac/binder.h"

using namespace pera;

namespace {

constexpr const char* kExpr1 =
    "*bank : @ks [av us bmon] -~- @us [bmon us exts]";
constexpr const char* kAP1 =
    "*bank<n, X> : forall hop, client : "
    "(@hop [Khop |> attest(n, X) -> !] -<+ @Appraiser [appraise -> store(n)]) "
    "*=> @client [Kclient |> @ks [av us bmon -> !] -<- @us [bmon us exts -> !]]";

struct ClientDevice {
  ClientDevice() : keys(2022), platform(keys), nonces(1114) {
    platform.install("ks", "av", "antivirus 9.1, kernel module");
    platform.install("us", "bmon", "browser monitor 4.2");
    platform.install("us", "exts", "adblock, password manager");
    platform.install_default_funcs(nonces);
    keys.provision_hmac("ks");
    keys.provision_hmac("us");
  }

  crypto::KeyStore keys;
  copland::TestbedPlatform platform;
  crypto::NonceRegistry nonces;
};

}  // namespace

int main() {
  std::printf("== UC5: the bank's cross-referenced attestation ==\n\n");

  // --- Part 1: why the naive policy is unsafe -------------------------------
  std::printf("expression (1): %s\n", kExpr1);
  const copland::Request naive = copland::parse_request(kExpr1);
  const auto vulns =
      copland::find_repair_vulnerabilities(naive.body, "bank", {"av"});
  std::printf("static trust analysis: %zu vulnerability(ies)\n",
              vulns.size());
  for (const auto& v : vulns) {
    std::printf("  - %s@%s: %s\n", v.component.c_str(), v.place.c_str(),
                v.detail.c_str());
  }

  // Execute the attack against (1): a compromised device evades detection.
  {
    ClientDevice dev;
    dev.platform.corrupt("us", "exts", "adblock + credential stealer");
    dev.platform.corrupt("us", "bmon", "browser monitor, trojaned");
    adversary::SlowAdversary adv(dev.platform, "us", "bmon");
    copland::Evaluator ev(dev.platform, &adv);
    const auto evidence = ev.eval(naive, copland::Evidence::empty());
    const auto verdict =
        copland::appraise(evidence, &dev.platform.goldens(), dev.keys);
    std::printf("repair attack on (1): appraisal says %s "
                "(the bank is deceived)\n\n",
                verdict.ok ? "CLEAN" : "compromised");
  }

  // The fix: sequential composition, as in expression (2) / AP1's tail.
  {
    ClientDevice dev;
    dev.platform.corrupt("us", "exts", "adblock + credential stealer");
    dev.platform.corrupt("us", "bmon", "browser monitor, trojaned");
    adversary::SlowAdversary adv(dev.platform, "us", "bmon");
    copland::Evaluator ev(dev.platform, &adv);
    const copland::Request fixed = copland::parse_request(
        "*bank : @ks [av us bmon -> !] -<- @us [bmon us exts -> !]");
    const auto evidence = ev.eval(fixed, copland::Evidence::empty());
    const auto verdict =
        copland::appraise(evidence, &dev.platform.goldens(), dev.keys);
    std::printf("same attack on (2):   appraisal says %s\n\n",
                verdict.ok ? "CLEAN (!!)" : "COMPROMISED — detected");
  }

  // --- Part 2: AP1 — the same policy, path-aware ------------------------------
  std::printf("AP1: %s\n\n", kAP1);
  const copland::Request ap1 = copland::parse_request(kAP1);

  // The bank's traffic happens to cross s1 and s2 today; bind the policy
  // to that path (Prim1/Prim2 made concrete).
  ClientDevice dev;
  nac::PathBinding binding;
  binding.hops = {"s1", "s2"};
  binding.bindings = {{"client", "laptop"}};
  for (const auto& hop : binding.hops) {
    dev.platform.install(hop, "n", "nonce echo");
    dev.platform.install(hop, "X", "P4 program + tables on " + hop);
  }
  const copland::TermPtr bound = nac::bind_path(ap1.body, binding);
  std::printf("bound against path [s1 s2], client=laptop:\n  %s\n\n",
              copland::to_string(bound).c_str());

  copland::Evaluator ev(dev.platform);
  const auto evidence = ev.eval(bound, ap1.relying_party,
                                copland::Evidence::empty());
  const auto verdict =
      copland::appraise(evidence, &dev.platform.goldens(), dev.keys);
  std::printf("composite host+path evidence: %zu measurements, "
              "%zu signatures, %zu B\n",
              copland::measurements_of(evidence).size(),
              copland::signatures_of(evidence).size(),
              copland::wire_size(evidence));
  std::printf("appraisal of the healthy device + path: %s\n",
              verdict.ok ? "CLEAN" : "compromised");

  return (vulns.size() == 1 && verdict.ok) ? 0 : 1;
}
