// End-to-end integration tests over the full deployment: the Fig. 2
// attestation variants, policy-carrying flows, the Athens-Affair program
// swap (UC1), path verification (UC2/UC3), on-path tampering, and the
// design-space behaviours (caching, sampling) the benches measure.
#include <gtest/gtest.h>

#include "adversary/attacks.h"
#include "core/deployment.h"
#include "core/path_verifier.h"

namespace pera::core {
namespace {

using nac::CompositionMode;
using nac::EvidenceDetail;

nac::CompiledPolicy per_hop_policy(
    CompositionMode mode = CompositionMode::kChained) {
  return nac::compile(
      std::string("*rp<n> : forall hop : @hop [attest(Hardware -~- Program) "
                  "-> !] *=> @Appraiser [appraise]"),
      mode);
}

// --- Fig. 2 variants -----------------------------------------------------------

TEST(Fig2, OutOfBandChallengeAccepted) {
  Deployment dep(netsim::topo::chain(3));
  dep.provision_goldens();
  const ChallengeReport rep = dep.run_out_of_band(
      "client", "s2", EvidenceDetail::kHardware | EvidenceDetail::kProgram);
  EXPECT_TRUE(rep.completed);
  EXPECT_TRUE(rep.accepted);
  EXPECT_GT(rep.rtt, 0);
  EXPECT_GE(rep.messages, 3u);  // challenge, evidence, result
}

TEST(Fig2, OutOfBandWithRp2Retrieval) {
  Deployment dep(netsim::topo::chain(3));
  dep.provision_goldens();
  const ChallengeReport rep = dep.run_out_of_band(
      "client", "s2", nac::mask_of(EvidenceDetail::kProgram), "server");
  EXPECT_TRUE(rep.completed);
  EXPECT_GE(rep.messages, 5u);  // + retrieve, + second result
}

TEST(Fig2, InBandVariantReachesRp2) {
  Deployment dep(netsim::topo::chain(3));
  dep.provision_goldens();
  const ChallengeReport rep = dep.run_in_band(
      "client", "s2", "server", nac::mask_of(EvidenceDetail::kProgram));
  EXPECT_TRUE(rep.completed);
  EXPECT_TRUE(rep.accepted);
}

TEST(Fig2, InBandUsesFewerMessagesThanOobWithRp2) {
  Deployment dep1(netsim::topo::chain(3));
  dep1.provision_goldens();
  const auto oob = dep1.run_out_of_band(
      "client", "s2", nac::mask_of(EvidenceDetail::kProgram), "server");
  Deployment dep2(netsim::topo::chain(3));
  dep2.provision_goldens();
  const auto ib = dep2.run_in_band("client", "s2", "server",
                                   nac::mask_of(EvidenceDetail::kProgram));
  // In-band saves RP2's separate retrieval round (paper §5).
  EXPECT_LT(ib.messages, oob.messages);
}

// --- UC1: the Athens Affair -----------------------------------------------------

TEST(Athens, SwapDetectedByAttestation) {
  Deployment dep(netsim::topo::isp());
  dep.provision_goldens();

  // Before the attack: attestation of core2 passes.
  const auto clean = dep.run_out_of_band(
      "client", "core2", nac::mask_of(EvidenceDetail::kProgram));
  EXPECT_TRUE(clean.accepted);

  // The attacker swaps in the interceptor.
  const adversary::SwapRecord rec =
      adversary::program_swap_attack(dep, "core2");
  EXPECT_NE(rec.before, rec.after);

  const auto compromised = dep.run_out_of_band(
      "client", "core2", nac::mask_of(EvidenceDetail::kProgram));
  EXPECT_TRUE(compromised.completed);
  EXPECT_FALSE(compromised.accepted) << "rogue program must fail appraisal";

  // Covering tracks: restoring the honest program passes again.
  adversary::program_restore(dep, "core2");
  const auto restored = dep.run_out_of_band(
      "client", "core2", nac::mask_of(EvidenceDetail::kProgram));
  EXPECT_TRUE(restored.accepted);
}

TEST(Athens, RogueTrafficIndistinguishableWithoutRa) {
  // The control experiment: plain forwarding sees no difference, which is
  // why the real attack went unnoticed for months.
  Deployment honest_dep(netsim::topo::isp());
  Deployment rogue_dep(netsim::topo::isp());
  (void)adversary::program_swap_attack(rogue_dep, "core2");
  dataplane::PacketSpec spec;
  spec.ip_dst = 0x0a000202;
  const FlowReport a = honest_dep.send_plain_flow("client", "pm_phone", 20, spec);
  const FlowReport b = rogue_dep.send_plain_flow("client", "pm_phone", 20, spec);
  EXPECT_EQ(a.packets_delivered, b.packets_delivered);
}

// --- policy-carrying flows -------------------------------------------------------

TEST(Flows, InBandFlowGathersPerHopEvidence) {
  Deployment dep(netsim::topo::chain(4));
  dep.provision_goldens();
  const FlowReport rep = dep.send_flow(
      "client", "server", per_hop_policy(), 10, /*in_band=*/true);
  EXPECT_EQ(rep.packets_delivered, 10u);
  EXPECT_EQ(rep.attestations, 40u);  // 4 switches x 10 packets
  EXPECT_GT(rep.evidence_bytes_inband, 0u);
  EXPECT_EQ(rep.appraisal_failures, 0u);
  EXPECT_EQ(rep.certificates, 10u);  // one carrier appraisal per packet
}

TEST(Flows, OutOfBandFlowSendsEvidenceMessages) {
  Deployment dep(netsim::topo::chain(4));
  dep.provision_goldens();
  const FlowReport rep = dep.send_flow(
      "client", "server", per_hop_policy(), 5, /*in_band=*/false);
  EXPECT_EQ(rep.packets_delivered, 5u);
  EXPECT_EQ(rep.evidence_bytes_inband, 0u);
  EXPECT_GE(rep.oob_messages, 20u);  // 4 switches x 5 packets evidence msgs
}

TEST(Flows, PlainFlowHasNoRaOverhead) {
  Deployment dep(netsim::topo::chain(4));
  const FlowReport rep = dep.send_plain_flow("client", "server", 10);
  EXPECT_EQ(rep.packets_delivered, 10u);
  EXPECT_EQ(rep.attestations, 0u);
  EXPECT_EQ(rep.evidence_bytes_inband, 0u);
}

TEST(Flows, RaFlowSlowerThanPlain) {
  Deployment dep(netsim::topo::chain(4));
  dep.provision_goldens();
  const FlowReport plain = dep.send_plain_flow("client", "server", 10);
  const FlowReport ra = dep.send_flow("client", "server", per_hop_policy(),
                                      10, true);
  EXPECT_GT(ra.mean_latency_us, plain.mean_latency_us);
  EXPECT_GT(ra.bytes_on_wire, plain.bytes_on_wire);
}

TEST(Flows, SamplingReducesAttestations) {
  Deployment dep(netsim::topo::chain(2));
  dep.provision_goldens();
  const FlowReport all = dep.send_flow("client", "server", per_hop_policy(),
                                       32, true, /*sampling_log2=*/0);
  const FlowReport sampled = dep.send_flow(
      "client", "server", per_hop_policy(), 32, true, /*sampling_log2=*/3);
  EXPECT_EQ(all.attestations, 64u);
  EXPECT_EQ(sampled.attestations, 8u);  // 1 in 8 of 32 pkts x 2 switches
}

TEST(Flows, CachingKicksInAcrossPacketsOfAFlow) {
  Deployment dep(netsim::topo::chain(2));
  dep.provision_goldens();
  const FlowReport rep = dep.send_flow("client", "server", per_hop_policy(),
                                       16, true);
  // Same nonce + unchanged program: first packet misses, rest hit.
  EXPECT_EQ(rep.cache_misses, 2u);
  EXPECT_EQ(rep.cache_hits, 30u);
}

TEST(Flows, CacheDisabledMissesAlways) {
  DeploymentOptions opts;
  opts.pera_config.cache_enabled = false;
  Deployment dep(netsim::topo::chain(2), opts);
  dep.provision_goldens();
  const FlowReport rep = dep.send_flow("client", "server", per_hop_policy(),
                                       16, true);
  EXPECT_EQ(rep.cache_hits, 0u);
  EXPECT_EQ(rep.cache_misses, 32u);
}

TEST(Flows, SwappedProgramFailsFlowAppraisal) {
  Deployment dep(netsim::topo::chain(3));
  dep.provision_goldens();
  (void)adversary::program_swap_attack(dep, "s2");
  const FlowReport rep = dep.send_flow("client", "server", per_hop_policy(),
                                       4, true);
  EXPECT_EQ(rep.appraisal_failures, 4u);
}

TEST(Flows, XmssDeploymentWorks) {
  DeploymentOptions opts;
  opts.use_xmss = true;
  opts.xmss_height = 6;
  Deployment dep(netsim::topo::chain(2), opts);
  dep.provision_goldens();
  const FlowReport rep = dep.send_flow("client", "server", per_hop_policy(),
                                       3, true);
  EXPECT_EQ(rep.appraisal_failures, 0u);
  EXPECT_GT(rep.evidence_bytes_inband, 0u);
}

// --- on-path adversaries -----------------------------------------------------------

struct TamperBed {
  explicit TamperBed(adversary::TamperingNode::Mode mode)
      : dep(netsim::topo::chain(3)),
        tamper(&dep.switch_node("s2"), mode, 99) {
    dep.provision_goldens();
    // Interpose the tamperer on the middle switch.
    dep.network().attach("s2", &tamper);
  }

  Deployment dep;
  adversary::TamperingNode tamper;
};

TEST(Tampering, ForgedEvidenceFailsAppraisal) {
  TamperBed bed(adversary::TamperingNode::Mode::kForge);
  const FlowReport rep = bed.dep.send_flow("client", "server",
                                           per_hop_policy(), 4, true);
  EXPECT_GT(bed.tamper.tampered_count(), 0u);
  EXPECT_EQ(rep.appraisal_failures, 4u);
}

TEST(Tampering, DroppedEvidenceShrinksCarrier) {
  TamperBed bed(adversary::TamperingNode::Mode::kDrop);
  const FlowReport rep = bed.dep.send_flow("client", "server",
                                           per_hop_policy(), 4, true);
  // s1's records are stripped at s2; only s2/s3 evidence arrives. The
  // appraisal of what remains passes, but the path is visibly shorter —
  // which the path verifier below turns into a rejection.
  EXPECT_GT(bed.tamper.tampered_count(), 0u);
  EXPECT_LT(rep.evidence_bytes_inband,
            [&] {
              Deployment clean(netsim::topo::chain(3));
              clean.provision_goldens();
              return clean
                  .send_flow("client", "server", per_hop_policy(), 4, true)
                  .evidence_bytes_inband;
            }());
}

// --- path verification (UC2 / UC3) ----------------------------------------------

struct PathBed {
  PathBed() : dep(netsim::topo::chain(3)) {
    dep.provision_goldens();
  }

  // Gather one packet's worth of chained path evidence by running the flow
  // and reading the carrier the server received.
  copland::EvidencePtr gather() {
    HostNode& server = dep.host("server");
    const std::size_t before = server.received().size();
    (void)dep.send_flow("client", "server", per_hop_policy(), 1, true);
    EXPECT_GT(server.received().size(), before);
    // Reconstruct from the last carrier: we need the raw records, so rerun
    // capturing via a fresh flow (records also live in the appraiser, but
    // the verdict API is simpler to test through PathVerifier directly).
    return last_carrier_evidence;
  }

  Deployment dep;
  copland::EvidencePtr last_carrier_evidence;
};

TEST(PathVerifier, VerifiesChainAndOrder) {
  Deployment dep(netsim::topo::chain(3));
  dep.provision_goldens();

  // Build path evidence directly from the switches, in path order.
  copland::EvidencePtr acc = copland::Evidence::empty();
  const crypto::Nonce n{crypto::sha256("path nonce")};
  for (const char* name : {"s1", "s2", "s3"}) {
    auto& sw = dep.switch_node(name).pera();
    acc = copland::Evidence::extend(
        acc, sw.attest_challenge(
                 EvidenceDetail::kHardware | EvidenceDetail::kProgram, n,
                 /*hash_before_sign=*/false));
  }

  const PathVerifier verifier(dep.appraiser().appraiser().goldens(),
                              dep.keys());
  const PathVerdict verdict = verifier.verify(acc);
  EXPECT_TRUE(verdict.ok());
  EXPECT_EQ(verdict.places(),
            (std::vector<std::string>{"s1", "s2", "s3"}));
  EXPECT_TRUE(PathVerifier::crosses_in_order(verdict, {"s1", "s3"}));
  EXPECT_FALSE(PathVerifier::crosses_in_order(verdict, {"s3", "s1"}));
  EXPECT_TRUE(PathVerifier::matches_expected_path(verdict,
                                                  {"s1", "s2", "s3"}));
  EXPECT_FALSE(
      PathVerifier::matches_expected_path(verdict, {"s1", "s2"}));
}

TEST(PathVerifier, RejectsSwappedProgramOnPath) {
  Deployment dep(netsim::topo::chain(3));
  dep.provision_goldens();
  (void)adversary::program_swap_attack(dep, "s2");

  copland::EvidencePtr acc = copland::Evidence::empty();
  for (const char* name : {"s1", "s2", "s3"}) {
    auto& sw = dep.switch_node(name).pera();
    acc = copland::Evidence::extend(
        acc, sw.attest_challenge(nac::mask_of(EvidenceDetail::kProgram),
                                 crypto::Nonce{crypto::sha256("n")}, false));
  }
  const PathVerifier verifier(dep.appraiser().appraiser().goldens(),
                              dep.keys());
  const PathVerdict verdict = verifier.verify(acc);
  EXPECT_FALSE(verdict.ok());
  EXPECT_TRUE(verdict.all_signatures_ok);      // signatures are real...
  EXPECT_FALSE(verdict.all_measurements_ok);   // ...but the program lies
}

TEST(PathVerifier, MissingHopFailsExpectedPath) {
  Deployment dep(netsim::topo::chain(3));
  dep.provision_goldens();
  copland::EvidencePtr acc = copland::Evidence::empty();
  for (const char* name : {"s1", "s3"}) {  // s2's evidence dropped
    auto& sw = dep.switch_node(name).pera();
    acc = copland::Evidence::extend(
        acc, sw.attest_challenge(nac::mask_of(EvidenceDetail::kProgram),
                                 crypto::Nonce{crypto::sha256("n")}, false));
  }
  const PathVerifier verifier(dep.appraiser().appraiser().goldens(),
                              dep.keys());
  const PathVerdict verdict = verifier.verify(acc);
  EXPECT_FALSE(
      PathVerifier::matches_expected_path(verdict, {"s1", "s2", "s3"}));
  // UC3: DDoS posture — traffic without full path evidence gets dropped.
  EXPECT_FALSE(PathVerifier::crosses_in_order(verdict, {"s1", "s2", "s3"}));
}

TEST(PathVerifier, NestedSignatureHopsInPostOrder) {
  Deployment dep(netsim::topo::chain(3));
  dep.provision_goldens();
  // s2 signs over s1's signed record plus its own Hardware measurement.
  auto& s1 = dep.switch_node("s1").pera();
  auto& s2 = dep.switch_node("s2").pera();
  const copland::EvidencePtr inner = s1.attest_challenge(
      nac::mask_of(EvidenceDetail::kProgram),
      crypto::Nonce{crypto::sha256("nested")}, /*hash_before_sign=*/false);
  const copland::EvidencePtr content = copland::Evidence::extend(
      inner, copland::Evidence::measurement(
                 "s2", "s2", "Hardware",
                 s2.measurement().measure(EvidenceDetail::kHardware),
                 s2.measurement().claim_text(EvidenceDetail::kHardware)));
  const copland::EvidencePtr outer = copland::Evidence::signature(
      "s2", content, s2.engine().signer().sign(copland::digest(content)));

  const PathVerifier verifier(dep.appraiser().appraiser().goldens(),
                              dep.keys());
  const PathVerdict verdict = verifier.verify(outer);
  EXPECT_TRUE(verdict.ok());
  // The inner signature's hop comes first, and each hop holds only the
  // measurements it is the innermost signature of.
  EXPECT_EQ(verdict.places(), (std::vector<std::string>{"s1", "s2"}));
  ASSERT_EQ(verdict.hops.size(), 2u);
  EXPECT_EQ(verdict.hops[0].measurements.count("Program"), 1u);
  EXPECT_EQ(verdict.hops[0].measurements.count("Hardware"), 0u);
  EXPECT_EQ(verdict.hops[1].measurements.count("Hardware"), 1u);
  EXPECT_EQ(verdict.hops[1].measurements.count("Program"), 0u);
  EXPECT_TRUE(PathVerifier::crosses_in_order(verdict, {"s1", "s2"}));
  EXPECT_FALSE(PathVerifier::crosses_in_order(verdict, {"s2", "s1"}));
}

// --- guards over live packets (AP2 / UC4) ------------------------------------------

TEST(Guards, ScannerPolicyOnlyFiresOnMatchingTraffic) {
  Deployment dep(netsim::topo::chain(2));
  dep.provision_goldens();
  // AP2: a scanner policy guarded on traffic pattern P = dport 31337.
  auto& s1 = dep.switch_node("s1").pera();
  s1.set_guard("P", [](const dataplane::ParsedPacket& pkt) {
    return pkt.has("tcp") && pkt.get("tcp.dport") == 31337;
  });
  auto& s2 = dep.switch_node("s2").pera();
  s2.set_guard("P", [](const dataplane::ParsedPacket& pkt) {
    return pkt.has("tcp") && pkt.get("tcp.dport") == 31337;
  });

  const nac::CompiledPolicy pol = nac::compile(std::string(
      "*scanner<P> : forall hop : @hop [P |> attest(Packet) -> !] *=> "
      "@Appraiser [appraise -> store]"));

  dataplane::PacketSpec benign;
  benign.ip_dst = 0x0a000202;
  benign.dport = 443;
  const FlowReport quiet =
      dep.send_flow("client", "server", pol, 8, true, 0, benign);
  EXPECT_EQ(quiet.attestations, 0u);

  dataplane::PacketSpec c2 = benign;
  c2.dport = 31337;  // the malware C2 fingerprint of UC4
  const FlowReport noisy =
      dep.send_flow("client", "server", pol, 8, true, 0, c2);
  EXPECT_EQ(noisy.attestations, 16u);
}

}  // namespace
}  // namespace pera::core
