// Table 1 — Attestation Policies in Network-aware Copland (AP1-AP3).
//
// Regenerates the executable face of the table: for each policy, the cost
// to parse+compile it, the wire size of the resulting options header, the
// cost to bind it against concrete paths of increasing length, and the
// cost (and evidence size) of evaluating the bound policy end-to-end.
#include <benchmark/benchmark.h>

#include "copland/parser.h"
#include "copland/pretty.h"
#include "copland/semantics.h"
#include "copland/testbed.h"
#include "nac/binder.h"
#include "nac/header.h"

namespace {

using namespace pera;

const char* policy_source(int which) {
  switch (which) {
    case 1:
      return "*bank<n, X> : forall hop, client : "
             "(@hop [Khop |> attest(n, X) -> !] -<+ "
             "@Appraiser [appraise -> store(n)]) "
             "*=> @client [Kclient |> @ks [av us bmon -> !] -<- "
             "@us [bmon us exts -> !]]";
    case 2:
      return "*scanner<P> : @scanner [P |> attest(P) -> !] -<+ "
             "@Appraiser [appraise -> store]";
    case 3:
      return "*pathCheck<F1, F2, Peer1, Peer2> : "
             "forall p, q, r, peer1, peer2 : "
             "(@peer1 [Peer1 |> !] -<+ @p [attest(F1) -> !] -<+ "
             "@q [attest(F2) -> !] -<+ @Appraiser [appraise -> store]) *=> "
             "(@r [Q |> !] -<+ @peer2 [Peer2 |> !] -<+ "
             "@Appraiser [appraise -> store])";
    default:
      return "";
  }
}

// Parse + compile the policy into per-hop instructions.
void BM_Table1_Compile(benchmark::State& state) {
  const std::string src = policy_source(static_cast<int>(state.range(0)));
  std::size_t hops = 0;
  std::size_t header_bytes = 0;
  for (auto _ : state) {
    const nac::CompiledPolicy pol = nac::compile(src);
    hops = pol.hops.size();
    header_bytes =
        nac::make_header(pol, {}, true).wire_size();
    benchmark::DoNotOptimize(pol);
  }
  state.counters["hop_instructions"] = static_cast<double>(hops);
  state.counters["header_bytes"] = static_cast<double>(header_bytes);
  state.SetLabel("AP" + std::to_string(state.range(0)));
}
BENCHMARK(BM_Table1_Compile)->Arg(1)->Arg(2)->Arg(3);

// Bind AP1 against concrete paths of increasing length (Prim1/Prim2).
void BM_Table1_BindAP1(benchmark::State& state) {
  const auto req = copland::parse_request(policy_source(1));
  const std::size_t hops = static_cast<std::size_t>(state.range(0));
  nac::PathBinding binding;
  for (std::size_t i = 1; i <= hops; ++i) {
    binding.hops.push_back("s" + std::to_string(i));
  }
  binding.bindings = {{"client", "laptop"}};
  std::size_t term_size = 0;
  for (auto _ : state) {
    const copland::TermPtr bound = nac::bind_path(req.body, binding);
    term_size = copland::size(bound);
    benchmark::DoNotOptimize(bound);
  }
  state.counters["bound_term_nodes"] = static_cast<double>(term_size);
}
BENCHMARK(BM_Table1_BindAP1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

// Full evaluation of the bound AP1 over a testbed path: evidence size and
// cost scale with path length (chained composition).
void BM_Table1_EvaluateAP1(benchmark::State& state) {
  const auto req = copland::parse_request(policy_source(1));
  const std::size_t hops = static_cast<std::size_t>(state.range(0));

  crypto::KeyStore keys(17);
  copland::TestbedPlatform platform(keys);
  crypto::NonceRegistry nonces(18);
  platform.install_default_funcs(nonces);
  nac::PathBinding binding;
  for (std::size_t i = 1; i <= hops; ++i) {
    const std::string name = "s" + std::to_string(i);
    binding.hops.push_back(name);
    platform.install(name, "n", "nonce echo");
    platform.install(name, "X", "program+tables property on " + name);
  }
  binding.bindings = {{"client", "laptop"}};
  platform.install("ks", "av", "antivirus");
  platform.install("us", "bmon", "browser monitor");
  platform.install("us", "exts", "extensions");

  const copland::TermPtr bound = nac::bind_path(req.body, binding);
  copland::Evaluator ev(platform);
  std::size_t evidence_bytes = 0;
  for (auto _ : state) {
    const copland::EvidencePtr e =
        ev.eval(bound, req.relying_party, copland::Evidence::empty());
    evidence_bytes = copland::wire_size(e);
    benchmark::DoNotOptimize(e);
  }
  state.counters["evidence_bytes"] = static_cast<double>(evidence_bytes);
  state.counters["signatures"] =
      static_cast<double>(ev.stats().signatures) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_Table1_EvaluateAP1)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

// AP2: the scanner policy is a single-place policy; compilation plus
// guarded evaluation (pattern hit vs miss — "fail early").
void BM_Table1_EvaluateAP2(benchmark::State& state) {
  const bool pattern_hits = state.range(0) != 0;
  const auto req = copland::parse_request(policy_source(2));
  crypto::KeyStore keys(19);
  copland::TestbedPlatform platform(keys);
  crypto::NonceRegistry nonces(20);
  platform.install_default_funcs(nonces);
  platform.install("scanner", "P", "traffic pattern");
  platform.set_test("scanner", "P", pattern_hits);
  copland::Evaluator ev(platform);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ev.eval(req.body, req.relying_party, copland::Evidence::empty()));
  }
  state.SetLabel(pattern_hits ? "pattern hit: attest+store"
                              : "pattern miss: fail early");
}
BENCHMARK(BM_Table1_EvaluateAP2)->Arg(1)->Arg(0);

// AP3: two attested path segments with pinned abstract places.
void BM_Table1_EvaluateAP3(benchmark::State& state) {
  const auto req = copland::parse_request(policy_source(3));
  crypto::KeyStore keys(23);
  copland::TestbedPlatform platform(keys);
  crypto::NonceRegistry nonces(24);
  platform.install_default_funcs(nonces);
  for (const char* place : {"alice", "s1", "s2", "s3", "bob"}) {
    platform.install(place, "F1", "fn F1");
    platform.install(place, "F2", "fn F2");
  }
  nac::PathBinding binding;
  binding.bindings = {{"p", "s1"},
                      {"q", "s2"},
                      {"r", "s3"},
                      {"peer1", "alice"},
                      {"peer2", "bob"}};
  const copland::TermPtr bound = nac::bind_path(req.body, binding);
  copland::Evaluator ev(platform);
  std::size_t evidence_bytes = 0;
  for (auto _ : state) {
    const copland::EvidencePtr e =
        ev.eval(bound, req.relying_party, copland::Evidence::empty());
    evidence_bytes = copland::wire_size(e);
    benchmark::DoNotOptimize(e);
  }
  state.counters["evidence_bytes"] = static_cast<double>(evidence_bytes);
}
BENCHMARK(BM_Table1_EvaluateAP3);

// Round-trip parse -> print -> parse, the language-tooling cost.
void BM_Table1_ParseRoundTrip(benchmark::State& state) {
  const std::string src = policy_source(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const copland::Request req = copland::parse_request(src);
    const std::string printed = copland::to_string(req);
    benchmark::DoNotOptimize(copland::parse_request(printed));
  }
  state.SetLabel("AP" + std::to_string(state.range(0)));
}
BENCHMARK(BM_Table1_ParseRoundTrip)->Arg(1)->Arg(2)->Arg(3);

}  // namespace
