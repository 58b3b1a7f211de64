// Fig. 4 — Inertia, Detail and Composition: the PERA design space.
//
// Regenerates the figure's three axes as measured series:
//   * inertia  — per-packet cost of attesting each level with the cache on
//                vs off (high-inertia evidence caches; packets never do);
//   * sampling — attestation overhead at 1/2^k packet sampling;
//   * composition — chained vs pointwise evidence growth along a path.
// Counters report the simulated per-packet RA cost and cache hit rates.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "core/deployment.h"
#include "crypto/keystore.h"

namespace {

using namespace pera;
using PeraSwitchT = ::pera::pera::PeraSwitch;
using dataplane::make_tcp_packet;

nac::PolicyHeader header_for(nac::DetailMask detail,
                             std::uint8_t sampling_log2 = 0,
                             const std::string& flow = "flow") {
  nac::CompiledPolicy pol;
  nac::HopInstruction inst;
  inst.wildcard = true;
  inst.detail = detail;
  inst.sign_evidence = true;
  pol.hops = {inst};
  pol.appraiser = "Appraiser";
  return nac::make_header(pol, crypto::Nonce{crypto::sha256(flow)},
                          /*in_band=*/true, sampling_log2);
}

// --- Inertia axis: one level at a time, cache on/off -------------------------

void BM_Fig4_InertiaLevel(benchmark::State& state) {
  const auto level = static_cast<nac::EvidenceDetail>(state.range(0));
  const bool cache = state.range(1) != 0;
  ::pera::pera::PeraConfig cfg;
  cfg.cache_enabled = cache;
  crypto::KeyStore keys(11);
  PeraSwitchT sw("sw1", dataplane::make_router(),
                      keys.provision_hmac("sw1"), cfg);
  const nac::PolicyHeader hdr = header_for(nac::mask_of(level));
  const dataplane::RawPacket pkt = make_tcp_packet({});
  for (auto _ : state) {
    nac::EvidenceCarrier carrier;
    benchmark::DoNotOptimize(sw.process(pkt, &hdr, &carrier));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["sim_ns_per_pkt"] =
      static_cast<double>(sw.ra_stats().ra_time_total) /
      static_cast<double>(state.iterations());
  state.counters["cache_hit_rate"] = sw.cache().stats().hit_rate();
  state.SetLabel(nac::to_string(level) +
                 std::string(cache ? " cache=on" : " cache=off"));
}
BENCHMARK(BM_Fig4_InertiaLevel)
    ->ArgsProduct({{static_cast<long>(nac::EvidenceDetail::kHardware),
                    static_cast<long>(nac::EvidenceDetail::kProgram),
                    static_cast<long>(nac::EvidenceDetail::kTables),
                    static_cast<long>(nac::EvidenceDetail::kProgState),
                    static_cast<long>(nac::EvidenceDetail::kPacket)},
                   {1, 0}});

// Cache expiry under churn: control-plane table updates every k packets
// invalidate the Tables-level evidence — lower inertia, lower hit rate.
// Each update rewrites one of a fixed set of /32 routes in place, so the
// table's size does not follow the iteration count.
void BM_Fig4_InertiaChurn(benchmark::State& state) {
  constexpr std::size_t kChurnRoutes = 16;
  const long update_every = state.range(0);
  crypto::KeyStore keys(12);
  PeraSwitchT sw("sw1", dataplane::make_router(),
                      keys.provision_hmac("sw1"));
  dataplane::Table& route = *sw.dataplane().program().table("route");
  const std::size_t first = route.entry_count();
  for (std::size_t k = 0; k < kChurnRoutes; ++k) {
    dataplane::TableEntry e;
    e.keys = {dataplane::KeyMatch::lpm(0xC1000000 | k, 32)};
    e.action = "forward";
    e.action_params = {1};
    sw.update_table("route", e);
  }
  const nac::PolicyHeader hdr =
      header_for(nac::mask_of(nac::EvidenceDetail::kTables));
  const dataplane::RawPacket pkt = make_tcp_packet({});
  long i = 0;
  for (auto _ : state) {
    if (update_every > 0 && ++i % update_every == 0) {
      const auto k = static_cast<std::size_t>(i / update_every) % kChurnRoutes;
      route.entry_mut(first + k).keys = {dataplane::KeyMatch::lpm(
          0xC0000000 | static_cast<std::uint64_t>(i), 32)};
    }
    nac::EvidenceCarrier carrier;
    benchmark::DoNotOptimize(sw.process(pkt, &hdr, &carrier));
  }
  state.counters["cache_hit_rate"] = sw.cache().stats().hit_rate();
  state.counters["sim_ns_per_pkt"] =
      static_cast<double>(sw.ra_stats().ra_time_total) /
      static_cast<double>(state.iterations());
  state.SetLabel(update_every == 0
                     ? "no table churn"
                     : "table update every " + std::to_string(update_every));
}
BENCHMARK(BM_Fig4_InertiaChurn)->Arg(0)->Arg(64)->Arg(8)->Arg(1);

// Flows that each carry their own repeating policy nonce, interleaved
// packet by packet: a flow's entry must outlast the other flows' stores
// until its next packet. Past EvidenceCache::kRecurrenceWindow flows in
// strict rotation, every packet misses.
void BM_Fig4_InterleavedFlows(benchmark::State& state) {
  const auto flows = static_cast<std::size_t>(state.range(0));
  crypto::KeyStore keys(14);
  PeraSwitchT sw("sw1", dataplane::make_router(),
                      keys.provision_hmac("sw1"));
  std::vector<nac::PolicyHeader> headers;
  for (std::size_t f = 0; f < flows; ++f) {
    headers.push_back(header_for(nac::mask_of(nac::EvidenceDetail::kProgram),
                                 0, "flow" + std::to_string(f)));
  }
  const dataplane::RawPacket pkt = make_tcp_packet({});
  std::size_t next = 0;
  for (auto _ : state) {
    nac::EvidenceCarrier carrier;
    benchmark::DoNotOptimize(sw.process(pkt, &headers[next], &carrier));
    next = (next + 1) % flows;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["cache_hit_rate"] = sw.cache().stats().hit_rate();
  state.SetLabel(std::to_string(flows) + " interleaved flow nonces");
}
BENCHMARK(BM_Fig4_InterleavedFlows)
    ->Arg(1)->Arg(2)->Arg(64)->Arg(256)->Arg(257);

// --- Sampling axis ---------------------------------------------------------------

void BM_Fig4_Sampling(benchmark::State& state) {
  const auto k = static_cast<std::uint8_t>(state.range(0));
  crypto::KeyStore keys(13);
  PeraSwitchT sw("sw1", dataplane::make_router(),
                      keys.provision_hmac("sw1"));
  // Packet-level detail: uncacheable, so sampling is the only relief.
  const nac::PolicyHeader hdr = header_for(
      nac::EvidenceDetail::kProgram | nac::EvidenceDetail::kPacket, k);
  const dataplane::RawPacket pkt = make_tcp_packet({});
  for (auto _ : state) {
    nac::EvidenceCarrier carrier;
    benchmark::DoNotOptimize(sw.process(pkt, &hdr, &carrier));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["sim_ns_per_pkt"] =
      static_cast<double>(sw.ra_stats().ra_time_total) /
      static_cast<double>(state.iterations());
  state.counters["attest_fraction"] =
      static_cast<double>(sw.ra_stats().attestations) /
      static_cast<double>(state.iterations());
  state.SetLabel("sample 1/" + std::to_string(1u << k));
}
BENCHMARK(BM_Fig4_Sampling)->Arg(0)->Arg(1)->Arg(3)->Arg(5)->Arg(10);

// --- Composition axis -------------------------------------------------------------

void BM_Fig4_Composition(benchmark::State& state) {
  const bool chained = state.range(0) != 0;
  const std::size_t hops = static_cast<std::size_t>(state.range(1));
  const std::size_t packets = 16;
  double evidence_bytes = 0;
  double oob = 0;
  for (auto _ : state) {
    core::Deployment dep(netsim::topo::chain(hops));
    dep.provision_goldens();
    const nac::CompiledPolicy pol = nac::compile(
        std::string("*rp<n> : forall hop : @hop [attest(Program) -> !] *=> "
                    "@Appraiser [appraise]"),
        chained ? nac::CompositionMode::kChained
                : nac::CompositionMode::kPointwise);
    const core::FlowReport rep =
        dep.send_flow("client", "server", pol, packets, /*in_band=*/chained);
    evidence_bytes = static_cast<double>(rep.evidence_bytes_inband) / packets;
    oob = static_cast<double>(rep.oob_messages) / packets;
    benchmark::DoNotOptimize(rep);
  }
  state.counters["evidence_B_per_pkt"] = evidence_bytes;
  state.counters["appraiser_msgs_per_pkt"] = oob;
  state.SetLabel(chained ? "chained (in-band, evidence grows with path)"
                         : "pointwise (per-hop messages to appraiser)");
}
BENCHMARK(BM_Fig4_Composition)
    ->ArgsProduct({{1, 0}, {2, 4, 8}});

// --- Detail axis: cumulative masks on a fixed path ----------------------------------

void BM_Fig4_DetailSweep(benchmark::State& state) {
  const auto detail = static_cast<nac::DetailMask>(state.range(0));
  crypto::KeyStore keys(14);
  PeraSwitchT sw("sw1", dataplane::make_router(),
                      keys.provision_hmac("sw1"));
  const nac::PolicyHeader hdr = header_for(detail);
  const dataplane::RawPacket pkt = make_tcp_packet({});
  std::size_t evidence_bytes = 0;
  for (auto _ : state) {
    nac::EvidenceCarrier carrier;
    benchmark::DoNotOptimize(sw.process(pkt, &hdr, &carrier));
    if (!carrier.records.empty()) {
      evidence_bytes = carrier.records[0].evidence.size();
    }
  }
  state.counters["evidence_bytes"] = static_cast<double>(evidence_bytes);
  state.SetLabel(nac::describe_mask(detail));
}
BENCHMARK(BM_Fig4_DetailSweep)
    ->Arg(nac::mask_of(nac::EvidenceDetail::kHardware))
    ->Arg(nac::EvidenceDetail::kHardware | nac::EvidenceDetail::kProgram)
    ->Arg(nac::EvidenceDetail::kHardware | nac::EvidenceDetail::kProgram |
          nac::EvidenceDetail::kTables)
    ->Arg(nac::EvidenceDetail::kHardware | nac::EvidenceDetail::kProgram |
          nac::EvidenceDetail::kTables | nac::EvidenceDetail::kProgState)
    ->Arg(nac::kAllDetail);

}  // namespace
