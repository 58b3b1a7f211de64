// Fig. 2 — PERA with in-band vs out-of-band evidence.
//
// Regenerates the trade-off the figure sketches: the out-of-band variant
// (expression (3)) needs an extra retrieval exchange before RP2 learns the
// result, while the in-band variant (expression (4)) delivers evidence on
// the traffic path. Series: simulated completion time, message count, and
// bytes on the wire, swept over path length.
#include <benchmark/benchmark.h>

#include "core/deployment.h"

namespace {

using namespace pera;

void BM_Fig2_OutOfBand(benchmark::State& state) {
  const std::size_t hops = static_cast<std::size_t>(state.range(0));
  double rtt_us = 0;
  double messages = 0;
  double bytes = 0;
  for (auto _ : state) {
    core::Deployment dep(netsim::topo::chain(hops));
    dep.provision_goldens();
    const core::ChallengeReport rep = dep.run_out_of_band(
        "client", "s" + std::to_string(hops),
        nac::EvidenceDetail::kHardware | nac::EvidenceDetail::kProgram,
        "server");
    rtt_us = netsim::to_us(rep.rtt);
    messages = static_cast<double>(rep.messages);
    bytes = static_cast<double>(rep.bytes_on_wire);
    benchmark::DoNotOptimize(rep);
  }
  state.counters["sim_rtt_us"] = rtt_us;
  state.counters["messages"] = messages;
  state.counters["wire_bytes"] = bytes;
  state.SetLabel("expr(3) out-of-band + RP2 retrieve");
}
BENCHMARK(BM_Fig2_OutOfBand)->DenseRange(1, 9, 2)->Arg(16);

void BM_Fig2_InBand(benchmark::State& state) {
  const std::size_t hops = static_cast<std::size_t>(state.range(0));
  double rtt_us = 0;
  double messages = 0;
  double bytes = 0;
  for (auto _ : state) {
    core::Deployment dep(netsim::topo::chain(hops));
    dep.provision_goldens();
    const core::ChallengeReport rep = dep.run_in_band(
        "client", "s" + std::to_string(hops), "server",
        nac::EvidenceDetail::kHardware | nac::EvidenceDetail::kProgram);
    rtt_us = netsim::to_us(rep.rtt);
    messages = static_cast<double>(rep.messages);
    bytes = static_cast<double>(rep.bytes_on_wire);
    benchmark::DoNotOptimize(rep);
  }
  state.counters["sim_rtt_us"] = rtt_us;
  state.counters["messages"] = messages;
  state.counters["wire_bytes"] = bytes;
  state.SetLabel("expr(4) in-band via RP2");
}
BENCHMARK(BM_Fig2_InBand)->DenseRange(1, 9, 2)->Arg(16);

// Per-flow variants: evidence rides with every packet (in-band) vs leaves
// at each hop (out-of-band). Series: per-packet wire bytes and oob load.
void BM_Fig2_FlowInBandVsOob(benchmark::State& state) {
  const bool in_band = state.range(0) != 0;
  const std::size_t packets = 32;
  double evidence_bytes = 0;
  double oob_messages = 0;
  double latency_us = 0;
  for (auto _ : state) {
    core::Deployment dep(netsim::topo::chain(4));
    dep.provision_goldens();
    const nac::CompiledPolicy pol = nac::compile(std::string(
        "*rp<n> : forall hop : @hop [attest(Program) -> !] *=> "
        "@Appraiser [appraise]"));
    const core::FlowReport rep =
        dep.send_flow("client", "server", pol, packets, in_band);
    evidence_bytes =
        static_cast<double>(rep.evidence_bytes_inband) / packets;
    oob_messages = static_cast<double>(rep.oob_messages) / packets;
    latency_us = rep.mean_latency_us;
    benchmark::DoNotOptimize(rep);
  }
  state.counters["evidence_B_per_pkt"] = evidence_bytes;
  state.counters["oob_msgs_per_pkt"] = oob_messages;
  state.counters["sim_latency_us"] = latency_us;
  state.SetLabel(in_band ? "in-band carrier" : "out-of-band per hop");
}
BENCHMARK(BM_Fig2_FlowInBandVsOob)->Arg(1)->Arg(0);

}  // namespace
