// Ablation benches for the DESIGN.md design choices:
//   * batched Merkle signing vs per-item signatures (Fig. 3 D variant),
//   * guard "fail early" (§5.1) vs unconditional attestation,
//   * the NetKAT model of a program vs the switch itself (cost of the
//     verification-side substrate),
//   * Prim3 reachability checking cost by topology size.
#include <benchmark/benchmark.h>

#include <memory>

#include "core/deployment.h"
#include "core/netkat_bridge.h"
#include "core/reachability.h"
#include "crypto/keystore.h"
#include "pera/batcher.h"
#include "pera/pera_switch.h"

namespace {

using namespace pera;
using PeraSwitchT = ::pera::pera::PeraSwitch;

// --- batched signing -----------------------------------------------------------

void BM_Ablation_BatchSigning(benchmark::State& state) {
  const bool xmss = state.range(0) != 0;
  const std::size_t batch = static_cast<std::size_t>(state.range(1));
  crypto::KeyStore keys(51);
  // XMSS keys are finite; keep the tree small and renew on exhaustion so
  // the bench can run arbitrarily many iterations.
  std::unique_ptr<crypto::XmssSigner> xmss_signer;
  std::unique_ptr<crypto::HmacSigner> hmac_signer;
  crypto::Drbg rng(52);
  const auto fresh_signer = [&]() -> crypto::Signer& {
    if (xmss) {
      xmss_signer =
          std::make_unique<crypto::XmssSigner>(rng.digest(), 8);  // 256 sigs
      return *xmss_signer;
    }
    hmac_signer = std::make_unique<crypto::HmacSigner>(rng.digest());
    return *hmac_signer;
  };
  auto batcher = std::make_unique<::pera::pera::EvidenceBatcher>(
      fresh_signer(), batch);
  std::size_t receipt_bytes = 0;
  std::size_t produced = 0;
  std::size_t signed_in_tree = 0;
  for (auto _ : state) {
    if (xmss && signed_in_tree >= 250) {
      state.PauseTiming();
      batcher = std::make_unique<::pera::pera::EvidenceBatcher>(
          fresh_signer(), batch);
      signed_in_tree = 0;
      state.ResumeTiming();
    }
    const auto receipts = batcher->add(rng.digest());
    if (receipts) {
      ++signed_in_tree;
      receipt_bytes = (*receipts)[0].wire_size();
      produced += receipts->size();
    }
    benchmark::DoNotOptimize(receipts);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(produced));
  state.counters["receipt_bytes"] = static_cast<double>(receipt_bytes);
  state.SetLabel(std::string(xmss ? "xmss" : "hmac") + " batch=" +
                 std::to_string(batch));
}
BENCHMARK(BM_Ablation_BatchSigning)
    ->ArgsProduct({{0, 1}, {1, 8, 64, 256}});

void BM_Ablation_BatchVerify(benchmark::State& state) {
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  crypto::KeyStore keys(53);
  crypto::Signer& s = keys.provision_hmac("sw");
  const crypto::Verifier& v = *keys.verifier_for("sw");
  ::pera::pera::EvidenceBatcher batcher(s, batch);
  crypto::Drbg rng(54);
  std::vector<crypto::Digest> items;
  std::optional<std::vector<::pera::pera::BatchedSignature>> receipts;
  for (std::size_t i = 0; i < batch; ++i) {
    items.push_back(rng.digest());
    receipts = batcher.add(items.back());
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t k = i++ % batch;
    benchmark::DoNotOptimize(
        ::pera::pera::EvidenceBatcher::verify(v, items[k], (*receipts)[k]));
  }
}
BENCHMARK(BM_Ablation_BatchVerify)->Arg(1)->Arg(8)->Arg(64)->Arg(256);

// --- guard fail-early ---------------------------------------------------------------

void BM_Ablation_GuardFailEarly(benchmark::State& state) {
  const bool guard_passes = state.range(0) != 0;
  crypto::KeyStore keys(55);
  PeraSwitchT sw("sw1", dataplane::make_router(), keys.provision_hmac("sw1"));
  sw.set_guard("P", [guard_passes](const dataplane::ParsedPacket&) {
    return guard_passes;
  });
  nac::CompiledPolicy pol;
  nac::HopInstruction inst;
  inst.wildcard = true;
  inst.guard = "P";
  inst.detail = nac::EvidenceDetail::kProgram | nac::EvidenceDetail::kPacket;
  inst.sign_evidence = true;
  pol.hops = {inst};
  const nac::PolicyHeader hdr =
      nac::make_header(pol, crypto::Nonce{crypto::sha256("n")}, true);
  const dataplane::RawPacket pkt = dataplane::make_tcp_packet({});
  for (auto _ : state) {
    nac::EvidenceCarrier carrier;
    benchmark::DoNotOptimize(sw.process(pkt, &hdr, &carrier));
  }
  state.counters["sim_ns_per_pkt"] =
      static_cast<double>(sw.ra_stats().ra_time_total) /
      static_cast<double>(state.iterations());
  state.SetLabel(guard_passes ? "guard passes: full attestation"
                              : "guard fails early: test only");
}
BENCHMARK(BM_Ablation_GuardFailEarly)->Arg(1)->Arg(0);

// --- NetKAT model vs switch ------------------------------------------------------------

void BM_Ablation_NetkatModelEval(benchmark::State& state) {
  const auto program = dataplane::make_firewall();
  const netkat::PolicyPtr model = core::to_netkat(*program);
  dataplane::PisaSwitch sw(program);
  const auto parsed = sw.parse(dataplane::make_tcp_packet({}));
  const netkat::Packet input = core::abstract_packet(parsed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(netkat::eval(model, input));
  }
  state.SetLabel("NetKAT model of firewall");
}
BENCHMARK(BM_Ablation_NetkatModelEval);

void BM_Ablation_TranslateProgram(benchmark::State& state) {
  const auto program = dataplane::make_firewall();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::to_netkat(*program));
  }
  state.SetLabel("to_netkat(firewall)");
}
BENCHMARK(BM_Ablation_TranslateProgram);

void BM_Ablation_TranslationValidation(benchmark::State& state) {
  const auto program = dataplane::make_firewall();
  const dataplane::RawPacket raw = dataplane::make_tcp_packet({});
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::behaviors_agree(program, raw));
  }
}
BENCHMARK(BM_Ablation_TranslationValidation);

// --- batched signing on the data path ---------------------------------------------------

void BM_Ablation_BatchedOobFlow(benchmark::State& state) {
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  const std::size_t packets = 64;
  double failures = 0;
  double certs = 0;
  for (auto _ : state) {
    core::DeploymentOptions opts;
    opts.pera_config.oob_batch_size = batch;
    core::Deployment dep(netsim::topo::chain(1), opts);
    dep.provision_goldens();
    const nac::CompiledPolicy pol = nac::compile(std::string(
        "*rp<n> : forall hop : @hop [attest(Program) -> !] *=> "
        "@Appraiser [appraise]"));
    const core::FlowReport rep =
        dep.send_flow("client", "server", pol, packets, /*in_band=*/false);
    failures = static_cast<double>(rep.appraisal_failures);
    certs = static_cast<double>(rep.certificates);
    benchmark::DoNotOptimize(rep);
  }
  state.counters["appraised"] = certs;
  state.counters["failures"] = failures;
  state.SetLabel("oob batch=" + std::to_string(batch));
}
BENCHMARK(BM_Ablation_BatchedOobFlow)->Arg(1)->Arg(8)->Arg(32);

// --- Prim3 reachability cost ------------------------------------------------------------

void BM_Ablation_ReachabilityCheck(benchmark::State& state) {
  const std::size_t hops = static_cast<std::size_t>(state.range(0));
  const netsim::Topology topo = netsim::topo::chain(hops);
  const nac::CompiledPolicy pol = nac::compile(std::string(
      "*rp<n> : forall hop : @hop [attest(Program) -> !] *=> "
      "@Appraiser [appraise]"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::check_collector_reachable(topo, pol));
  }
  state.counters["nodes"] = static_cast<double>(topo.node_count());
}
BENCHMARK(BM_Ablation_ReachabilityCheck)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

}  // namespace
