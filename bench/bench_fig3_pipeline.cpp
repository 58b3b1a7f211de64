// Fig. 3 — An RA-capable programmable switch.
//
// Regenerates the per-stage cost breakdown of the PERA pipeline: parse
// (A), match+action (B/C), evidence create/compose (E) and sign/verify
// (D). Real CPU time per packet for a baseline PISA switch vs the PERA
// switch at increasing evidence detail, plus microbenches for the
// sign/verify unit under both signer schemes.
#include <benchmark/benchmark.h>

#include "crypto/keystore.h"
#include "nac/compiler.h"
#include "pera/pera_switch.h"

namespace {

using namespace pera;
using PeraSwitchT = ::pera::pera::PeraSwitch;
using dataplane::make_tcp_packet;

const dataplane::RawPacket& test_packet() {
  static const dataplane::RawPacket pkt = make_tcp_packet({});
  return pkt;
}

// (A) alone: the programmable parser.
void BM_Fig3_ParseOnly(benchmark::State& state) {
  const dataplane::ParserProgram parser = dataplane::standard_parser();
  for (auto _ : state) {
    benchmark::DoNotOptimize(parser.parse(test_packet()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Fig3_ParseOnly);

// (A)+(B)+(C): the full baseline PISA pipeline without RA.
void BM_Fig3_BaselinePipeline(benchmark::State& state) {
  dataplane::PisaSwitch sw(dataplane::make_router());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sw.process(test_packet()));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("PISA, no RA");
}
BENCHMARK(BM_Fig3_BaselinePipeline);

// Firewall variant (two tables, ternary ACL).
void BM_Fig3_BaselineFirewall(benchmark::State& state) {
  dataplane::PisaSwitch sw(dataplane::make_firewall());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sw.process(test_packet()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Fig3_BaselineFirewall);

nac::PolicyHeader header_for(nac::DetailMask detail, bool fresh_nonce_each,
                             int i = 0) {
  nac::CompiledPolicy pol;
  nac::HopInstruction inst;
  inst.wildcard = true;
  inst.detail = detail;
  inst.sign_evidence = true;
  pol.hops = {inst};
  pol.appraiser = "Appraiser";
  const crypto::Nonce n{crypto::sha256(
      fresh_nonce_each ? "nonce" + std::to_string(i) : "flow-nonce")};
  return nac::make_header(pol, n, /*in_band=*/true);
}

// (A)-(E): PERA with evidence creation at increasing detail. The cache is
// warm (per-flow nonce), so this is the steady-state per-packet cost.
void BM_Fig3_PeraPipeline(benchmark::State& state) {
  crypto::KeyStore keys(7);
  PeraSwitchT sw("sw1", dataplane::make_router(),
                      keys.provision_hmac("sw1"));
  const auto detail = static_cast<nac::DetailMask>(state.range(0));
  const nac::PolicyHeader hdr = header_for(detail, false);
  for (auto _ : state) {
    nac::EvidenceCarrier carrier;
    benchmark::DoNotOptimize(sw.process(test_packet(), &hdr, &carrier));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(nac::describe_mask(detail));
  state.counters["sim_ns_per_pkt"] =
      static_cast<double>(sw.ra_stats().ra_time_total) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_Fig3_PeraPipeline)
    ->Arg(nac::mask_of(nac::EvidenceDetail::kHardware))
    ->Arg(nac::mask_of(nac::EvidenceDetail::kProgram))
    ->Arg(nac::EvidenceDetail::kHardware | nac::EvidenceDetail::kProgram)
    ->Arg(nac::EvidenceDetail::kHardware | nac::EvidenceDetail::kProgram |
          nac::EvidenceDetail::kTables)
    ->Arg(nac::kAllDetail);

// Worst case: packet-level evidence, uncacheable, every packet signed.
void BM_Fig3_PerPacketEvidence(benchmark::State& state) {
  crypto::KeyStore keys(7);
  PeraSwitchT sw("sw1", dataplane::make_router(),
                      keys.provision_hmac("sw1"));
  const nac::PolicyHeader hdr =
      header_for(nac::mask_of(nac::EvidenceDetail::kPacket), false);
  for (auto _ : state) {
    nac::EvidenceCarrier carrier;
    benchmark::DoNotOptimize(sw.process(test_packet(), &hdr, &carrier));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("per-packet, uncacheable");
}
BENCHMARK(BM_Fig3_PerPacketEvidence);

// (D) microbenches: the sign/verify unit.
void BM_Fig3_SignHmac(benchmark::State& state) {
  crypto::KeyStore keys(9);
  crypto::Signer& s = keys.provision_hmac("sw");
  const crypto::Digest d = crypto::sha256("evidence digest");
  for (auto _ : state) benchmark::DoNotOptimize(s.sign(d));
}
BENCHMARK(BM_Fig3_SignHmac);

void BM_Fig3_SignXmss(benchmark::State& state) {
  crypto::KeyStore keys(9);
  crypto::Signer& s = keys.provision_xmss("sw", 12);
  const crypto::Digest d = crypto::sha256("evidence digest");
  for (auto _ : state) benchmark::DoNotOptimize(s.sign(d));
}
BENCHMARK(BM_Fig3_SignXmss)->Iterations(2048);

void BM_Fig3_VerifyHmac(benchmark::State& state) {
  crypto::KeyStore keys(9);
  crypto::Signer& s = keys.provision_hmac("sw");
  const crypto::Digest d = crypto::sha256("evidence digest");
  const crypto::Signature sig = s.sign(d);
  const crypto::Verifier* v = keys.verifier_for("sw");
  for (auto _ : state) benchmark::DoNotOptimize(v->verify(d, sig));
}
BENCHMARK(BM_Fig3_VerifyHmac);

void BM_Fig3_VerifyXmss(benchmark::State& state) {
  crypto::KeyStore keys(9);
  crypto::Signer& s = keys.provision_xmss("sw", 10);
  const crypto::Digest d = crypto::sha256("evidence digest");
  const crypto::Signature sig = s.sign(d);
  const crypto::Verifier* v = keys.verifier_for("sw");
  for (auto _ : state) benchmark::DoNotOptimize(v->verify(d, sig));
}
BENCHMARK(BM_Fig3_VerifyXmss);

// (E) compose: folding a fresh record into accumulated path evidence.
void BM_Fig3_Compose(benchmark::State& state) {
  crypto::KeyStore keys(9);
  PeraSwitchT sw("sw1", dataplane::make_router(),
                      keys.provision_hmac("sw1"));
  const copland::EvidencePtr fresh = sw.attest_challenge(
      nac::mask_of(nac::EvidenceDetail::kProgram),
      crypto::Nonce{crypto::sha256("n")}, false);
  copland::EvidencePtr acc = copland::Evidence::empty();
  for (auto _ : state) {
    const auto r =
        sw.engine().compose(acc, fresh, nac::CompositionMode::kChained);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_Fig3_Compose);

// SHA-256 throughput anchors the hash-unit cost model.
void BM_Fig3_Sha256(benchmark::State& state) {
  const crypto::Bytes data(static_cast<std::size_t>(state.range(0)), 0xa5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::sha256(crypto::BytesView{data.data(), data.size()}));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Fig3_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

}  // namespace
