// Tests for the trust analysis and the repair-attack experiment of §4.2:
// expression (1) is vulnerable to the Ramsdell et al. repair attack and
// our analysis flags it; expression (2) sequences the measurements and is
// safe — and the executable SlowAdversary confirms both outcomes.
#include <gtest/gtest.h>

#include "adversary/attacks.h"
#include "copland/analysis.h"
#include "copland/parser.h"
#include "copland/semantics.h"
#include "copland/testbed.h"

namespace pera::copland {
namespace {

constexpr const char* kExpr1 =
    "*bank : @ks [av us bmon] -~- @us [bmon us exts]";
constexpr const char* kExpr2 =
    "*bank : @ks [av us bmon -> !] -<- @us [bmon us exts -> !]";

// --- static analysis ----------------------------------------------------------

TEST(EventGraph, PipeOrdersEvents) {
  const EventGraph g =
      build_event_graph(parse_term("a us b -> b us c"), "p");
  ASSERT_EQ(g.measurements.size(), 2u);
  EXPECT_TRUE(g.precedes(g.measurements[0].id, g.measurements[1].id));
  EXPECT_FALSE(g.precedes(g.measurements[1].id, g.measurements[0].id));
}

TEST(EventGraph, ParallelLeavesEventsUnordered) {
  const EventGraph g =
      build_event_graph(parse_term("a us b -~- b us c"), "p");
  ASSERT_EQ(g.measurements.size(), 2u);
  EXPECT_FALSE(g.precedes(g.measurements[0].id, g.measurements[1].id));
  EXPECT_FALSE(g.precedes(g.measurements[1].id, g.measurements[0].id));
}

TEST(EventGraph, SeqBranchOrders) {
  const EventGraph g =
      build_event_graph(parse_term("a us b -<- b us c"), "p");
  EXPECT_TRUE(g.precedes(g.measurements[0].id, g.measurements[1].id));
}

TEST(EventGraph, TransitiveClosure) {
  const EventGraph g = build_event_graph(
      parse_term("a us b -> b us c -> c us d"), "p");
  ASSERT_EQ(g.measurements.size(), 3u);
  EXPECT_TRUE(g.precedes(g.measurements[0].id, g.measurements[2].id));
}

TEST(EventGraph, PlaceContextTracked) {
  const EventGraph g = build_event_graph(parse_term("@ks [av us bmon]"), "bank");
  ASSERT_EQ(g.measurements.size(), 1u);
  EXPECT_EQ(g.measurements[0].asp_place, "ks");
  EXPECT_EQ(g.measurements[0].target_place, "us");
}

TEST(RepairAnalysis, Expr1IsVulnerable) {
  const Request req = parse_request(kExpr1);
  const auto vulns = find_repair_vulnerabilities(req.body, "bank", {"av"});
  ASSERT_EQ(vulns.size(), 1u);
  EXPECT_EQ(vulns[0].component, "bmon");
  EXPECT_EQ(vulns[0].place, "us");
  EXPECT_NE(vulns[0].detail.find("unordered"), std::string::npos);
}

TEST(RepairAnalysis, Expr2IsSafe) {
  const Request req = parse_request(kExpr2);
  const auto vulns = find_repair_vulnerabilities(req.body, "bank", {"av"});
  EXPECT_TRUE(vulns.empty());
}

TEST(RepairAnalysis, UntrustedRootMeasurerFlagged) {
  const Request req = parse_request(kExpr2);
  // Without declaring av trusted, av itself is never measured -> flagged.
  const auto vulns = find_repair_vulnerabilities(req.body, "bank", {});
  ASSERT_EQ(vulns.size(), 1u);
  EXPECT_EQ(vulns[0].component, "av");
  EXPECT_NE(vulns[0].detail.find("never measured"), std::string::npos);
}

TEST(RepairAnalysis, SelfMeasurementExempt) {
  const auto vulns =
      find_repair_vulnerabilities(parse_term("a us a"), "p", {});
  EXPECT_TRUE(vulns.empty());
}

TEST(UnsignedAnalysis, Expr1AllUnsigned) {
  const Request req = parse_request(kExpr1);
  EXPECT_EQ(find_unsigned_measurements(req.body, "bank").size(), 2u);
}

TEST(UnsignedAnalysis, Expr2AllSigned) {
  const Request req = parse_request(kExpr2);
  EXPECT_TRUE(find_unsigned_measurements(req.body, "bank").empty());
}

TEST(UnsignedAnalysis, PartialCoverage) {
  const auto missing =
      find_unsigned_measurements(parse_term("a us b -> ! -<- c us d"), "p");
  ASSERT_EQ(missing.size(), 1u);
  EXPECT_EQ(missing[0].asp, "c");
}

// --- executable repair attack ----------------------------------------------------

struct AttackBed {
  AttackBed() : keys(7), platform(keys), nonces(8) {
    platform.install("ks", "av", "antivirus");
    platform.install("us", "bmon", "browser monitor v1");
    platform.install("us", "exts", "extensions");
    platform.install_default_funcs(nonces);
    keys.provision_hmac("ks");
    keys.provision_hmac("us");
    // The standing compromise: malware in exts, and bmon corrupted to
    // vouch for it.
    platform.corrupt("us", "exts", "extensions + credential stealer");
    platform.corrupt("us", "bmon", "browser monitor, trojaned");
  }

  crypto::KeyStore keys;
  TestbedPlatform platform;
  crypto::NonceRegistry nonces;
};

TEST(RepairAttack, DefeatsParallelComposition) {
  AttackBed bed;
  adversary::SlowAdversary adv(bed.platform, "us", "bmon");
  Evaluator ev(bed.platform, &adv);
  const Request req = parse_request(kExpr1);
  const EvidencePtr e = ev.eval(req, Evidence::empty());
  // The adversary ran C2 first (corrupt bmon lies about exts), repaired
  // bmon, then let av measure it: all measurements appraise clean.
  const AppraisalResult res = appraise(e, &bed.platform.goldens(), bed.keys);
  EXPECT_TRUE(res.ok) << "repair attack should evade expression (1)";
  EXPECT_GE(adv.repairs_performed(), 1u);
}

TEST(RepairAttack, DetectedBySequentialComposition) {
  AttackBed bed;
  adversary::SlowAdversary adv(bed.platform, "us", "bmon");
  Evaluator ev(bed.platform, &adv);
  const Request req = parse_request(kExpr2);
  const EvidencePtr e = ev.eval(req, Evidence::empty());
  // Sequencing forces av's measurement of bmon before bmon's use. The
  // adversary's only evasion is to repair bmon first — after which the
  // honest bmon truthfully reports the malicious exts.
  const AppraisalResult res = appraise(e, &bed.platform.goldens(), bed.keys);
  EXPECT_FALSE(res.ok) << "expression (2) must detect the compromise";
  bool exts_flagged = false;
  for (const auto& f : res.findings) {
    if (f.detail.find("exts") != std::string::npos) exts_flagged = true;
  }
  EXPECT_TRUE(exts_flagged);
}

TEST(RepairAttack, NoAdversaryMeansDetectionEitherWay) {
  AttackBed bed;
  Evaluator ev(bed.platform);  // no adversary scheduling
  for (const char* src : {kExpr1, kExpr2}) {
    const EvidencePtr e = ev.eval(parse_request(src), Evidence::empty());
    EXPECT_FALSE(appraise(e, &bed.platform.goldens(), bed.keys).ok) << src;
  }
}

TEST(RepairAttack, AnalysisPredictsAttackOutcome) {
  // The static analysis and the executable attack agree: vulnerable
  // policies are exactly the ones the adversary evades.
  for (const auto& [src, vulnerable] :
       std::vector<std::pair<const char*, bool>>{{kExpr1, true},
                                                 {kExpr2, false}}) {
    const Request req = parse_request(src);
    const bool flagged =
        !find_repair_vulnerabilities(req.body, "bank", {"av"}).empty();
    EXPECT_EQ(flagged, vulnerable) << src;

    AttackBed bed;
    adversary::SlowAdversary adv(bed.platform, "us", "bmon");
    Evaluator ev(bed.platform, &adv);
    const EvidencePtr e = ev.eval(req, Evidence::empty());
    const bool evaded = appraise(e, &bed.platform.goldens(), bed.keys).ok;
    EXPECT_EQ(evaded, vulnerable) << src;
  }
}

}  // namespace
}  // namespace pera::copland
