// Tests for the extension modules: the NetKAT<->dataplane bridge
// (translation validation and refinement), Prim3 collector reachability,
// link failures and rerouting, batched evidence signing, and the
// appraiser's required measurements.
#include <gtest/gtest.h>

#include "adversary/attacks.h"
#include "core/deployment.h"
#include "core/netkat_bridge.h"
#include "core/reachability.h"
#include "crypto/drbg.h"
#include "pera/batcher.h"
#include "ra/roles.h"

namespace pera::core {
namespace {

using dataplane::make_tcp_packet;
using dataplane::PacketSpec;

// --- NetKAT bridge -----------------------------------------------------------------

std::vector<dataplane::RawPacket> packet_universe(std::uint64_t seed,
                                                  std::size_t n) {
  crypto::Drbg rng(seed);
  std::vector<dataplane::RawPacket> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    PacketSpec spec;
    spec.ingress_port = static_cast<std::uint32_t>(rng.uniform(8));
    // Mix of routable, unroutable, allowed and denied traffic.
    spec.ip_src = static_cast<std::uint32_t>(0x0a000000 | rng.uniform(1 << 16));
    spec.ip_dst = rng.chance(0.8)
                      ? static_cast<std::uint32_t>(
                            0x0a000000 | (rng.uniform(10) << 8) |
                            rng.uniform(256))
                      : static_cast<std::uint32_t>(rng.next_u64());
    const std::uint64_t ports[] = {443, 80, 22, 25, 6667, 31337, 8080, 53};
    spec.dport = static_cast<std::uint16_t>(ports[rng.uniform(8)]);
    spec.sport = static_cast<std::uint16_t>(1024 + rng.uniform(60000));
    out.push_back(make_tcp_packet(spec));
  }
  return out;
}

TEST(Bridge, AbstractPacketCarriesFieldsAndValidity) {
  dataplane::PisaSwitch sw(dataplane::make_router());
  const auto parsed = sw.parse(make_tcp_packet({}));
  const netkat::Packet p = abstract_packet(parsed);
  EXPECT_EQ(p.get("valid.ipv4"), 1u);
  EXPECT_EQ(p.get("valid.tcp"), 1u);
  EXPECT_EQ(p.get("ipv4.dst"), 0x0a000202u);
  EXPECT_EQ(p.get("tcp.dport"), 443u);
}

TEST(Bridge, RouterTranslationValidates) {
  const auto program = dataplane::make_router();
  for (const auto& raw : packet_universe(301, 200)) {
    EXPECT_TRUE(behaviors_agree(program, raw));
  }
}

TEST(Bridge, FirewallTranslationValidates) {
  const auto program = dataplane::make_firewall();
  for (const auto& raw : packet_universe(302, 200)) {
    EXPECT_TRUE(behaviors_agree(program, raw));
  }
}

TEST(Bridge, AclTranslationValidates) {
  const auto program = dataplane::make_acl();
  for (const auto& raw : packet_universe(303, 200)) {
    EXPECT_TRUE(behaviors_agree(program, raw));
  }
}

TEST(Bridge, RogueRouterTranslationValidates) {
  const auto program = dataplane::make_rogue_router();
  for (const auto& raw : packet_universe(304, 200)) {
    EXPECT_TRUE(behaviors_agree(program, raw));
  }
}

TEST(Bridge, StatefulProgramRejected) {
  EXPECT_THROW((void)to_netkat(*dataplane::make_monitor()), BridgeError);
}

TEST(Bridge, RouterRefinesReachabilitySpec) {
  // Spec: the router may forward 10.0.x.0/24 only out of port x (x<=8),
  // or drop. Expressed as the union of all allowed outcomes.
  std::vector<netkat::PolicyPtr> allowed;
  for (std::uint64_t x = 1; x <= 8; ++x) {
    allowed.push_back(netkat::Policy::seq(
        netkat::Policy::filter(netkat::Predicate::test_masked(
            "ipv4.dst", 0x0a000000ULL | (x << 8), 0xffffff00ULL)),
        netkat::Policy::mod("pt", x)));
  }
  const netkat::PolicyPtr spec = netkat::union_all(allowed);
  EXPECT_TRUE(refines(dataplane::make_router(), spec,
                      packet_universe(305, 150)));
}

TEST(Bridge, ViolatingProgramFailsRefinement) {
  // A "router" that sends everything out port 7 violates the spec above.
  auto bad = dataplane::make_router();
  bad->table("route")->clear();
  dataplane::TableEntry e;
  e.keys = {dataplane::KeyMatch::lpm(0x0a000000, 8)};
  e.action = "forward";
  e.action_params = {7};
  bad->table("route")->add_entry(e);

  std::vector<netkat::PolicyPtr> allowed;
  for (std::uint64_t x = 1; x <= 8; ++x) {
    allowed.push_back(netkat::Policy::seq(
        netkat::Policy::filter(netkat::Predicate::test_masked(
            "ipv4.dst", 0x0a000000ULL | (x << 8), 0xffffff00ULL)),
        netkat::Policy::mod("pt", x)));
  }
  EXPECT_FALSE(refines(bad, netkat::union_all(allowed),
                       packet_universe(306, 150)));
}

// Property: translation validation holds across many random programs built
// from random routing entries.
class BridgeProperty : public ::testing::TestWithParam<int> {};

TEST_P(BridgeProperty, RandomRoutersValidate) {
  crypto::Drbg rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  auto program = dataplane::make_router();
  dataplane::Table* route = program->table("route");
  route->clear();
  const std::size_t entries = 1 + rng.uniform(12);
  for (std::size_t i = 0; i < entries; ++i) {
    dataplane::TableEntry e;
    const unsigned plen = 8 + static_cast<unsigned>(rng.uniform(25));
    e.keys = {dataplane::KeyMatch::lpm(
        static_cast<std::uint64_t>(rng.next_u64()) & 0xffffffffULL, plen)};
    e.action = rng.chance(0.85) ? "forward" : "drop";
    if (e.action == "forward") e.action_params = {1 + rng.uniform(8)};
    route->add_entry(std::move(e));
  }
  for (const auto& raw : packet_universe(1000 + GetParam(), 60)) {
    EXPECT_TRUE(behaviors_agree(program, raw));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BridgeProperty, ::testing::Range(0, 10));

// --- Prim3 reachability --------------------------------------------------------------

TEST(Reachability, EncodeAndConnectivity) {
  const netsim::Topology topo = netsim::topo::chain(3);
  const NetkatTopology nt = encode_topology(topo);
  EXPECT_TRUE(reachable_in(nt, "client", "server"));
  EXPECT_TRUE(reachable_in(nt, "s3", "Appraiser"));
  EXPECT_TRUE(reachable_in(nt, "Appraiser", "client"));
}

TEST(Reachability, PolicyDeployableOnChain) {
  const nac::CompiledPolicy pol = nac::compile(std::string(
      "*rp<n> : forall hop : @hop [attest(Program) -> !] *=> "
      "@Appraiser [appraise]"));
  const CollectorReachability rep =
      check_collector_reachable(netsim::topo::chain(4), pol);
  EXPECT_TRUE(rep.deployable());
  EXPECT_EQ(rep.reachable_from.size(), 4u);
}

TEST(Reachability, PartitionedElementDetected) {
  netsim::Topology topo = netsim::topo::chain(3);
  // Cut s3 off from everything: both its links go down.
  topo.set_link_state("s2", "s3", false);
  topo.set_link_state("s3", "server", false);
  const nac::CompiledPolicy pol = nac::compile(std::string(
      "*rp<n> : forall hop : @hop [attest(Program) -> !] *=> "
      "@Appraiser [appraise]"));
  const CollectorReachability rep = check_collector_reachable(topo, pol);
  EXPECT_FALSE(rep.deployable());
  ASSERT_EQ(rep.unreachable_from.size(), 1u);
  EXPECT_EQ(rep.unreachable_from[0], "s3");
}

TEST(Reachability, MissingCollectorNotDeployable) {
  netsim::Topology topo;
  topo.add_node("h", netsim::NodeKind::kHost);
  topo.add_node("s", netsim::NodeKind::kSwitch);
  topo.add_link("h", "s");
  nac::CompiledPolicy pol = nac::compile(std::string(
      "*rp<n> : forall hop : @hop [attest(Program) -> !] *=> "
      "@Appraiser [appraise]"));
  const CollectorReachability rep = check_collector_reachable(topo, pol);
  EXPECT_FALSE(rep.deployable());
}

TEST(Reachability, PinnedPolicyChecksOnlyItsPlaces) {
  const nac::CompiledPolicy pol = nac::compile(std::string(
      "*scanner<P> : @s2 [P |> attest(P) -> !] -<+ "
      "@Appraiser [appraise -> store]"));
  const CollectorReachability rep =
      check_collector_reachable(netsim::topo::chain(3), pol);
  EXPECT_TRUE(rep.deployable());
  EXPECT_EQ(rep.reachable_from, (std::vector<std::string>{"s2"}));
}

// --- link failures & rerouting -------------------------------------------------------

TEST(Rerouting, ShortestPathAdapts) {
  netsim::Topology topo = netsim::topo::isp();
  const auto before = topo.names(topo.shortest_path("edge1", "edge2"));
  topo.set_link_state("core1", "core2", false);
  const auto after = topo.names(topo.shortest_path("edge1", "edge2"));
  EXPECT_NE(before, after);
  EXPECT_FALSE(after.empty());
  topo.set_link_state("core1", "core2", true);
  EXPECT_EQ(topo.names(topo.shortest_path("edge1", "edge2")), before);
}

TEST(Rerouting, WildcardPolicySurvivesReroute) {
  // The §5.1 motivation: paths change without warning. A wildcard policy
  // (Prim1/Prim2) keeps attesting on the new path; nothing breaks.
  core::Deployment dep(netsim::topo::isp());
  dep.provision_goldens();
  const nac::CompiledPolicy pol = nac::compile(std::string(
      "*rp<n> : forall hop : @hop [attest(Program) -> !] *=> "
      "@Appraiser [appraise]"));

  const FlowReport before = dep.send_flow("client", "pm_phone", pol, 4, true);
  EXPECT_GT(before.attestations, 0u);
  EXPECT_EQ(before.appraisal_failures, 0u);

  // Primary core link fails mid-deployment; traffic reroutes via core3.
  dep.network().topology().set_link_state("core1", "core2", false);
  const FlowReport after = dep.send_flow("client", "pm_phone", pol, 4, true);
  EXPECT_EQ(after.packets_delivered, 4u);
  EXPECT_GT(after.attestations, 0u);
  EXPECT_EQ(after.appraisal_failures, 0u);
}

TEST(Rerouting, UnreachableDestinationThrows) {
  netsim::Topology topo = netsim::topo::chain(1);
  topo.set_link_state("client", "s1", false);
  netsim::Network net(std::move(topo));
  netsim::Message m;
  m.src = net.topology().require("client");
  m.dst = net.topology().require("server");
  EXPECT_THROW(net.send(std::move(m)), std::invalid_argument);
}

// --- batched evidence signing -------------------------------------------------------

TEST(Batcher, ReceiptsVerify) {
  crypto::KeyStore keys(81);
  crypto::Signer& s = keys.provision_hmac("sw");
  const crypto::Verifier& v = *keys.verifier_for("sw");
  pera::EvidenceBatcher batcher(s, 8);

  std::vector<crypto::Digest> items;
  std::optional<std::vector<pera::BatchedSignature>> receipts;
  for (int i = 0; i < 8; ++i) {
    items.push_back(crypto::sha256("evidence " + std::to_string(i)));
    receipts = batcher.add(items.back());
  }
  ASSERT_TRUE(receipts.has_value());
  ASSERT_EQ(receipts->size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(
        pera::EvidenceBatcher::verify(v, items[i], (*receipts)[i]))
        << i;
  }
  EXPECT_EQ(batcher.batches_signed(), 1u);
}

TEST(Batcher, WrongItemFails) {
  crypto::KeyStore keys(82);
  crypto::Signer& s = keys.provision_hmac("sw");
  pera::EvidenceBatcher batcher(s, 2);
  (void)batcher.add(crypto::sha256("a"));
  const auto receipts = batcher.add(crypto::sha256("b"));
  ASSERT_TRUE(receipts.has_value());
  EXPECT_FALSE(pera::EvidenceBatcher::verify(
      *keys.verifier_for("sw"), crypto::sha256("c"), (*receipts)[0]));
}

TEST(Batcher, PartialFlush) {
  crypto::KeyStore keys(83);
  crypto::Signer& s = keys.provision_hmac("sw");
  pera::EvidenceBatcher batcher(s, 100);
  EXPECT_FALSE(batcher.add(crypto::sha256("a")).has_value());
  EXPECT_FALSE(batcher.add(crypto::sha256("b")).has_value());
  EXPECT_EQ(batcher.pending(), 2u);
  const auto receipts = batcher.flush();
  EXPECT_EQ(receipts.size(), 2u);
  EXPECT_EQ(batcher.pending(), 0u);
  EXPECT_TRUE(batcher.flush().empty());
}

TEST(Batcher, OneSignaturePerBatch) {
  crypto::KeyStore keys(84);
  crypto::Signer& s = keys.provision_xmss("sw", 4);  // only 16 signatures!
  pera::EvidenceBatcher batcher(s, 64);
  // 256 items cost 4 XMSS signatures instead of 256.
  for (int i = 0; i < 256; ++i) {
    (void)batcher.add(crypto::sha256(std::to_string(i)));
  }
  EXPECT_EQ(batcher.batches_signed(), 4u);
}

TEST(Batcher, ZeroBatchSizeRejected) {
  crypto::KeyStore keys(85);
  crypto::Signer& s = keys.provision_hmac("sw");
  EXPECT_THROW(pera::EvidenceBatcher(s, 0), std::invalid_argument);
}

// --- required measurements ---------------------------------------------------------

struct RequirementBed {
  RequirementBed()
      : keys(91),
        attester("s1", keys.provision_hmac("s1")),
        appraiser("appraiser", keys) {
    vetted = crypto::sha256("firewall v5");
    current = vetted;
    attester.add_claim_source(
        {"Program", [this] { return current; }, "program digest"});
    attester.add_claim_source(
        {"Hardware", [] { return crypto::sha256("hw"); }, "hardware"});
    appraiser.set_golden("s1", "Program", vetted);
    appraiser.set_golden("s1", "Hardware", crypto::sha256("hw"));
  }

  ra::AttestationResult appraise(const copland::EvidencePtr& e) {
    return appraiser.appraise(e, std::nullopt, /*certify=*/false);
  }

  crypto::KeyStore keys;
  ra::Attester attester;
  ra::Appraiser appraiser;
  crypto::Digest vetted, current;
};

TEST(AppraiserRequirements, CompleteSignedRecordPasses) {
  RequirementBed bed;
  bed.appraiser.require("s1", "Program");
  bed.appraiser.require("s1", "Hardware");
  const auto res = bed.appraise(bed.attester.attest({}));
  EXPECT_TRUE(res.ok);
  EXPECT_TRUE(res.detail.findings.empty());
}

TEST(AppraiserRequirements, RejectsUnvettedVersion) {
  RequirementBed bed;
  bed.appraiser.require("s1", "Program");
  bed.current = crypto::sha256("firewall v7-rc1, never reviewed");
  const auto res = bed.appraise(bed.attester.attest({}));
  ASSERT_FALSE(res.ok);
  ASSERT_EQ(res.detail.findings.size(), 1u);
  EXPECT_EQ(res.detail.findings[0].kind,
            copland::AppraisalFinding::Kind::kBadMeasurement);
}

TEST(AppraiserRequirements, MissingTargetFails) {
  RequirementBed bed;
  bed.appraiser.require("s1", "Tables");
  const auto res = bed.appraise(bed.attester.attest({"Program"}));
  ASSERT_FALSE(res.ok);
  ASSERT_EQ(res.detail.findings.size(), 1u);
  EXPECT_EQ(res.detail.findings[0].place, "s1");
  EXPECT_EQ(res.detail.findings[0].detail,
            "policy: missing required measurement of Tables");
}

TEST(AppraiserRequirements, UnsignedEvidenceFails) {
  RequirementBed bed;
  bed.appraiser.require("s1", "Program");
  // Hand-built unsigned measurement of the golden value.
  const auto bare = copland::Evidence::measurement("s1", "s1", "Program",
                                                   bed.vetted, "claim");
  const auto res = bed.appraise(bare);
  ASSERT_FALSE(res.ok);
  ASSERT_EQ(res.detail.findings.size(), 1u);
  EXPECT_EQ(res.detail.findings[0].detail,
            "policy: evidence from this place is not signed");
}

}  // namespace
}  // namespace pera::core
