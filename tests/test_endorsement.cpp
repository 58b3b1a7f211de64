// Tests for endorsement-based golden provisioning (RATS Reference Value
// Provider) and the appraiser-side coverage policy — including the
// challenge-downgrade attack it defeats.
#include <gtest/gtest.h>

#include "adversary/attacks.h"
#include "core/deployment.h"
#include "dataplane/p4mini.h"
#include "ra/roles.h"

namespace pera::ra {
namespace {

struct Bed {
  Bed() : keys(61), appraiser("Appraiser", keys) {
    keys.provision_hmac("Appraiser");
    vendor = &keys.provision_hmac("vendor");
    mallory = &keys.provision_hmac("mallory");
  }

  crypto::KeyStore keys;
  Appraiser appraiser;
  crypto::Signer* vendor;
  crypto::Signer* mallory;
};

TEST(Endorsement, SignVerifyRoundTrip) {
  Bed bed;
  const Endorsement e = Endorsement::make(
      "vendor", "s1", "Program", "firewall v5 build 2209",
      crypto::sha256("firewall v5 image"), *bed.vendor);
  EXPECT_TRUE(e.verify(*bed.keys.verifier_for("vendor")));
  EXPECT_FALSE(e.verify(*bed.keys.verifier_for("mallory")));
}

TEST(Endorsement, SerializeRoundTrip) {
  Bed bed;
  const Endorsement e = Endorsement::make(
      "vendor", "", "Program", "router v1", crypto::sha256("img"),
      *bed.vendor);
  const crypto::Bytes ser = e.serialize();
  const Endorsement back =
      Endorsement::deserialize(crypto::BytesView{ser.data(), ser.size()});
  EXPECT_EQ(back.endorser, "vendor");
  EXPECT_EQ(back.target, "Program");
  EXPECT_EQ(back.value, e.value);
  EXPECT_TRUE(back.verify(*bed.keys.verifier_for("vendor")));
}

TEST(Endorsement, TamperedFieldsFail) {
  Bed bed;
  Endorsement e = Endorsement::make("vendor", "s1", "Program", "v5",
                                    crypto::sha256("img"), *bed.vendor);
  Endorsement altered = e;
  altered.value = crypto::sha256("rogue img");
  EXPECT_FALSE(altered.verify(*bed.keys.verifier_for("vendor")));
  altered = e;
  altered.place = "s2";
  EXPECT_FALSE(altered.verify(*bed.keys.verifier_for("vendor")));
}

TEST(Endorsement, AppraiserAcceptsOnlyKnownEndorsers) {
  Bed bed;
  const Endorsement good = Endorsement::make(
      "vendor", "s1", "Program", "v5", crypto::sha256("img"), *bed.vendor);
  EXPECT_TRUE(bed.appraiser.accept_endorsement(good));
  EXPECT_TRUE(bed.appraiser.goldens().contains({"s1", "Program"}));

  // Mallory signs with her own key but claims to be the vendor.
  Endorsement forged = Endorsement::make(
      "vendor", "s2", "Program", "v5", crypto::sha256("rogue"), *bed.mallory);
  EXPECT_FALSE(bed.appraiser.accept_endorsement(forged));
  EXPECT_FALSE(bed.appraiser.goldens().contains({"s2", "Program"}));

  // Unknown endorser identity.
  Endorsement unknown = Endorsement::make(
      "nobody", "s3", "Program", "v5", crypto::sha256("x"), *bed.mallory);
  EXPECT_FALSE(bed.appraiser.accept_endorsement(unknown));
}

TEST(Endorsement, ProductWideEndorsementPinsToPlace) {
  Bed bed;
  const Endorsement e = Endorsement::make(
      "vendor", "", "Program", "router v1 for all PERA-1000",
      crypto::sha256("img"), *bed.vendor);
  EXPECT_FALSE(bed.appraiser.accept_endorsement(e));  // nowhere to pin
  EXPECT_TRUE(bed.appraiser.accept_endorsement(e, "s7"));
  EXPECT_TRUE(bed.appraiser.goldens().contains({"s7", "Program"}));
}

TEST(Endorsement, VendorSignsP4MiniBuilds) {
  // The full provisioning chain: vendor compiles the P4-mini source,
  // endorses its digest, appraiser installs it, attestation succeeds.
  core::Deployment dep(netsim::topo::chain(1));
  crypto::Signer& vendor = dep.keys().provision_hmac("vendor");

  // Load the switch from source.
  auto program = dataplane::compile_p4mini(dataplane::p4src::router_v1());
  dep.switch_node("s1").pera().load_program(program);

  const Endorsement e = Endorsement::make(
      "vendor", "", "Program", "router v1 (p4mini build)",
      program->program_digest(), vendor);
  ASSERT_TRUE(dep.appraiser().appraiser().accept_endorsement(e, "s1"));
  // Hardware golden comes from the operator's own inventory.
  dep.appraiser().appraiser().set_golden(
      "s1", "Hardware",
      dep.switch_node("s1").pera().measurement().measure(
          nac::EvidenceDetail::kHardware));

  const auto rep = dep.run_out_of_band(
      "client", "s1",
      nac::EvidenceDetail::kHardware | nac::EvidenceDetail::kProgram);
  EXPECT_TRUE(rep.accepted);
}

// --- the downgrade attack -----------------------------------------------------

// An on-path adversary rewrites the RP's challenge to request only
// Hardware detail, hoping a genuine-but-empty attestation sails through.
struct DowngradeNode final : netsim::NodeBehavior {
  netsim::TransitResult on_transit(netsim::Network&, netsim::NodeId,
                                   netsim::Message& msg) override {
    if (msg.type == "challenge") {
      auto ch = core::Challenge::deserialize(
          crypto::BytesView{msg.payload.data(), msg.payload.size()});
      ch.detail = nac::mask_of(nac::EvidenceDetail::kHardware);  // strip
      msg.payload = ch.serialize();
      ++downgraded;
    }
    return {};
  }
  int downgraded = 0;
};

TEST(Downgrade, SucceedsWithoutCoveragePolicy) {
  core::Deployment dep(netsim::topo::chain(2));
  dep.provision_goldens();
  DowngradeNode mitm;
  dep.network().attach("s1", &mitm);

  const auto rep = dep.run_out_of_band(
      "client", "s2",
      nac::EvidenceDetail::kHardware | nac::EvidenceDetail::kProgram);
  // The downgraded evidence is genuine (hardware only) and, with no
  // coverage policy, the appraiser has no reason to reject it.
  EXPECT_GT(mitm.downgraded, 0);
  EXPECT_TRUE(rep.accepted) << "this is the vulnerability";
}

TEST(Downgrade, DefeatedByCoveragePolicy) {
  core::Deployment dep(netsim::topo::chain(2));
  dep.provision_goldens();
  DowngradeNode mitm;
  dep.network().attach("s1", &mitm);

  // The appraiser is configured with what the deployment REQUIRES every
  // s2 attestation to contain.
  dep.appraiser().appraiser().require("s2", "Program");

  const auto rep = dep.run_out_of_band(
      "client", "s2",
      nac::EvidenceDetail::kHardware | nac::EvidenceDetail::kProgram);
  EXPECT_GT(mitm.downgraded, 0);
  EXPECT_TRUE(rep.completed);
  EXPECT_FALSE(rep.accepted)
      << "missing Program measurement must fail the coverage policy";
}

}  // namespace
}  // namespace pera::ra
