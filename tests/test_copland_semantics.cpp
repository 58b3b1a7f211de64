// Tests for the Copland evaluator (CVM), evidence terms, the testbed
// platform, appraisal, and the default function handlers.
#include <gtest/gtest.h>

#include "copland/analysis.h"
#include "copland/parser.h"
#include "copland/semantics.h"
#include "copland/testbed.h"

namespace pera::copland {
namespace {

struct Fixture : ::testing::Test {
  Fixture() : keys(111), platform(keys), nonces(222), evaluator(platform) {
    platform.install("us", "bmon", "bmon-v1.0 binary");
    platform.install("us", "exts", "benign extension set");
    platform.install("ks", "av", "antivirus kernel module");
    platform.install_default_funcs(nonces);
    keys.provision_hmac("ks");
    keys.provision_hmac("us");
    keys.provision_hmac("Switch");
    keys.provision_hmac("Appraiser");
  }

  crypto::KeyStore keys;
  TestbedPlatform platform;
  crypto::NonceRegistry nonces;
  Evaluator evaluator;
};

// --- evidence model ---------------------------------------------------------

TEST_F(Fixture, MeasurementEvidence) {
  const EvidencePtr e =
      evaluator.eval(parse_term("av us bmon"), "ks", Evidence::empty());
  ASSERT_EQ(e->kind, EvidenceKind::kMeasurement);
  EXPECT_EQ(e->asp, "av");
  EXPECT_EQ(e->place, "us");
  EXPECT_EQ(e->target, "bmon");
  EXPECT_EQ(e->value, crypto::sha256("bmon-v1.0 binary"));
}

TEST_F(Fixture, PipeAccumulatesEvidence) {
  const EvidencePtr e = evaluator.eval(
      parse_term("av us bmon -> bmon us exts"), "ks", Evidence::empty());
  ASSERT_EQ(e->kind, EvidenceKind::kSeq);
  EXPECT_EQ(e->left->kind, EvidenceKind::kMeasurement);
  EXPECT_EQ(e->right->kind, EvidenceKind::kMeasurement);
}

TEST_F(Fixture, SignWrapsEvidence) {
  const EvidencePtr e = evaluator.eval(parse_term("av us bmon -> !"), "ks",
                                       Evidence::empty());
  ASSERT_EQ(e->kind, EvidenceKind::kSignature);
  EXPECT_EQ(e->place, "ks");
  const crypto::Verifier* v = keys.verifier_for("ks");
  EXPECT_TRUE(v->verify(digest(e->child), e->sig));
}

TEST_F(Fixture, HashCollapsesEvidence) {
  const TermPtr meas = parse_term("av us bmon");
  const EvidencePtr full = evaluator.eval(meas, "ks", Evidence::empty());
  const EvidencePtr hashed =
      evaluator.eval(parse_term("av us bmon -> #"), "ks", Evidence::empty());
  ASSERT_EQ(hashed->kind, EvidenceKind::kHashed);
  EXPECT_EQ(hashed->hash_value, digest(full));
  EXPECT_LT(wire_size(hashed), wire_size(full) + 40);
}

TEST_F(Fixture, AtPlaceSwitchesPlace) {
  const EvidencePtr e =
      evaluator.eval(parse_term("@us [exts -> !]"), "bank", Evidence::empty());
  ASSERT_EQ(e->kind, EvidenceKind::kSignature);
  EXPECT_EQ(e->place, "us");
}

TEST_F(Fixture, BranchEvidencePassingFlags) {
  // With -<- neither arm receives the incoming nonce evidence.
  const EvidencePtr nonce_ev =
      Evidence::nonce_ev(crypto::Nonce{crypto::sha256("n")});
  const EvidencePtr minus = evaluator.eval(
      parse_term("av us bmon -<- bmon us exts"), "ks", nonce_ev);
  ASSERT_EQ(minus->kind, EvidenceKind::kSeq);
  EXPECT_EQ(minus->left->kind, EvidenceKind::kMeasurement);

  // With +<+ both arms extend the incoming evidence.
  const EvidencePtr plus = evaluator.eval(
      parse_term("av us bmon +<+ bmon us exts"), "ks", nonce_ev);
  ASSERT_EQ(plus->kind, EvidenceKind::kSeq);
  ASSERT_EQ(plus->left->kind, EvidenceKind::kSeq);
  EXPECT_EQ(plus->left->left->kind, EvidenceKind::kNonce);
}

TEST_F(Fixture, ParBranchProducesParEvidence) {
  const EvidencePtr e = evaluator.eval(
      parse_term("av us bmon -~- bmon us exts"), "ks", Evidence::empty());
  EXPECT_EQ(e->kind, EvidenceKind::kPar);
}

TEST_F(Fixture, NilPassesThrough) {
  const EvidencePtr in = Evidence::nonce_ev(crypto::Nonce{crypto::sha256("n")});
  EXPECT_TRUE(equal(evaluator.eval(parse_term("{}"), "p", in), in));
}

TEST_F(Fixture, GuardFailSkips) {
  platform.set_test("sw", "P", false);
  const EvidencePtr e = evaluator.eval(parse_term("@sw [P |> av us bmon]"),
                                       "bank", Evidence::empty());
  EXPECT_EQ(e->kind, EvidenceKind::kEmpty);
  EXPECT_EQ(evaluator.stats().guard_tests, 1u);
}

TEST_F(Fixture, GuardPassEvaluates) {
  platform.set_test("sw", "P", true);
  const EvidencePtr e = evaluator.eval(parse_term("@sw [P |> av us bmon]"),
                                       "bank", Evidence::empty());
  EXPECT_EQ(e->kind, EvidenceKind::kMeasurement);
}

TEST_F(Fixture, UnknownGuardDefaultsTrue) {
  const EvidencePtr e = evaluator.eval(parse_term("@sw [Q |> av us bmon]"),
                                       "bank", Evidence::empty());
  EXPECT_EQ(e->kind, EvidenceKind::kMeasurement);
}

TEST_F(Fixture, NetworkAwareTermsThrow) {
  EXPECT_THROW(
      (void)evaluator.eval(parse_term("a *=> b"), "p", Evidence::empty()),
      EvalError);
  EXPECT_THROW((void)evaluator.eval(parse_term("forall p : @p [a]"), "q",
                                    Evidence::empty()),
               EvalError);
}

TEST_F(Fixture, StatsCount) {
  (void)evaluator.eval(parse_term("@sw [av us bmon -> # -> !]"), "bank",
                       Evidence::empty());
  EXPECT_EQ(evaluator.stats().measurements, 1u);
  EXPECT_EQ(evaluator.stats().hashes, 1u);
  EXPECT_EQ(evaluator.stats().signatures, 1u);
  EXPECT_EQ(evaluator.stats().place_hops, 1u);
}

// --- default function handlers ------------------------------------------------

TEST_F(Fixture, AttestEvaluatesArgs) {
  const EvidencePtr e = evaluator.eval(
      parse_term("@us [attest(bmon, exts)]"), "bank", Evidence::empty());
  const auto ms = measurements_of(e);
  ASSERT_EQ(ms.size(), 2u);
  EXPECT_EQ(ms[0]->target, "bmon");
  EXPECT_EQ(ms[1]->target, "exts");
}

TEST_F(Fixture, AppraiseReportsVerdict) {
  const EvidencePtr e = evaluator.eval(
      parse_term("@us [attest(bmon)] -> @Appraiser [appraise]"), "bank",
      Evidence::empty());
  ASSERT_EQ(e->kind, EvidenceKind::kFuncOut);
  ASSERT_EQ(e->output.size(), 1u);
  EXPECT_EQ(e->output[0], 1);  // clean component appraises OK
}

TEST_F(Fixture, AppraiseFlagsCorruption) {
  platform.corrupt("us", "exts", "malicious extension");
  const EvidencePtr e = evaluator.eval(
      parse_term("@us [attest(exts)] -> @Appraiser [appraise]"), "bank",
      Evidence::empty());
  ASSERT_EQ(e->output.size(), 1u);
  EXPECT_EQ(e->output[0], 0);
}

TEST_F(Fixture, StoreAndRetrieveByNonce) {
  const crypto::Nonce n = nonces.issue();
  const EvidencePtr in = Evidence::nonce_ev(n);
  (void)evaluator.eval(parse_term("@us [attest(bmon)] -> @Appraiser [store]"),
                       "bank", in);
  const auto stored = platform.stored(n);
  ASSERT_TRUE(stored.has_value());
  const EvidencePtr got = evaluator.eval(
      parse_term("@Appraiser [retrieve(n)]"), "bank", Evidence::nonce_ev(n));
  EXPECT_TRUE(equal(got, *stored));
}

TEST_F(Fixture, RetrieveWithoutNonceThrows) {
  EXPECT_THROW((void)evaluator.eval(parse_term("@Appraiser [retrieve(n)]"),
                                    "bank", Evidence::empty()),
               EvalError);
}

TEST_F(Fixture, UnknownFuncThrows) {
  EXPECT_THROW((void)evaluator.eval(parse_term("frobnicate()"), "p",
                                    Evidence::empty()),
               EvalError);
}

// --- evidence encoding ----------------------------------------------------------

class EvidenceRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(EvidenceRoundTrip, EncodeDecodeIdentity) {
  crypto::KeyStore keys(1);
  TestbedPlatform platform(keys);
  crypto::NonceRegistry nonces(2);
  platform.install("us", "bmon", "x");
  platform.install("us", "exts", "y");
  platform.install_default_funcs(nonces);
  Evaluator ev(platform);
  const EvidencePtr e = ev.eval(parse_term(GetParam()), "bank",
                                Evidence::nonce_ev(crypto::Nonce{
                                    crypto::sha256("round trip nonce")}));
  const crypto::Bytes enc = encode(e);
  const EvidencePtr back = decode(crypto::BytesView{enc.data(), enc.size()});
  EXPECT_TRUE(equal(e, back));
  EXPECT_EQ(digest(e), digest(back));
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, EvidenceRoundTrip,
    ::testing::Values("{}", "@us [bmon]", "@us [bmon -> !]",
                      "@us [bmon -> # -> !]", "@us [bmon -<- exts]",
                      "@us [bmon +~+ exts]",
                      "@us [attest(bmon, exts) -> !] -> @us [appraise]",
                      "@us [store]", "@us [bmon] -> @us [exts -> !]"));

TEST(EvidenceCodec, DecodeRejectsTruncation) {
  const EvidencePtr e = Evidence::measurement("a", "p", "t",
                                              crypto::sha256("v"), "claim");
  crypto::Bytes enc = encode(e);
  enc.pop_back();
  EXPECT_THROW((void)decode(crypto::BytesView{enc.data(), enc.size()}),
               std::invalid_argument);
}

TEST(EvidenceCodec, DecodeRejectsTrailing) {
  crypto::Bytes enc = encode(Evidence::empty());
  enc.push_back(0);
  EXPECT_THROW((void)decode(crypto::BytesView{enc.data(), enc.size()}),
               std::invalid_argument);
}

TEST(EvidenceCodec, DecodeRejectsUnknownKind) {
  crypto::Bytes enc = {0x77};
  EXPECT_THROW((void)decode(crypto::BytesView{enc.data(), enc.size()}),
               std::invalid_argument);
}

TEST(EvidenceCodec, DigestIsStructural) {
  const EvidencePtr a = Evidence::seq(Evidence::empty(), Evidence::empty());
  const EvidencePtr b = Evidence::par(Evidence::empty(), Evidence::empty());
  EXPECT_NE(digest(a), digest(b));
}

TEST(EvidenceCodec, DescribeMentionsStructure) {
  const EvidencePtr e = Evidence::seq(
      Evidence::measurement("av", "us", "bmon", crypto::sha256("v"), "c"),
      Evidence::hashed("us", crypto::sha256("h")));
  const std::string d = describe(e);
  EXPECT_NE(d.find("seq:"), std::string::npos);
  EXPECT_NE(d.find("bmon"), std::string::npos);
  EXPECT_NE(d.find("hashed at us"), std::string::npos);
}

TEST(EvidenceCodec, ExtendFoldsEmpty) {
  const EvidencePtr m =
      Evidence::measurement("a", "p", "t", crypto::sha256("v"), "");
  EXPECT_TRUE(equal(Evidence::extend(Evidence::empty(), m), m));
  const EvidencePtr two = Evidence::extend(m, m);
  EXPECT_EQ(two->kind, EvidenceKind::kSeq);
}

// --- appraisal -------------------------------------------------------------------

TEST_F(Fixture, AppraisalOkForCleanEvidence) {
  const EvidencePtr e = evaluator.eval(
      parse_term("@us [attest(bmon, exts) -> !]"), "bank", Evidence::empty());
  const AppraisalResult res = appraise(e, &platform.goldens(), keys);
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.measurements_checked, 2u);
  EXPECT_EQ(res.signatures_checked, 1u);
}

TEST_F(Fixture, AppraisalFlagsBadMeasurement) {
  platform.corrupt("us", "bmon", "trojaned");
  const EvidencePtr e = evaluator.eval(parse_term("@us [attest(bmon)]"),
                                       "bank", Evidence::empty());
  const AppraisalResult res = appraise(e, &platform.goldens(), keys);
  ASSERT_FALSE(res.ok);
  ASSERT_EQ(res.findings.size(), 1u);
  EXPECT_EQ(res.findings[0].kind, AppraisalFinding::Kind::kBadMeasurement);
}

TEST_F(Fixture, AppraisalFlagsUnknownComponent) {
  const EvidencePtr e = evaluator.eval(parse_term("@us [attest(ghost)]"),
                                       "bank", Evidence::empty());
  const AppraisalResult res = appraise(e, &platform.goldens(), keys);
  ASSERT_FALSE(res.ok);
  EXPECT_EQ(res.findings[0].kind, AppraisalFinding::Kind::kUnknownComponent);
}

TEST_F(Fixture, AppraisalFlagsUnknownSigner) {
  // Sign at a place whose key the appraiser never provisioned — build a
  // separate keystore to simulate that.
  crypto::KeyStore other(999);
  TestbedPlatform rogue(other);
  rogue.install("us", "bmon", "bmon-v1.0 binary");
  crypto::NonceRegistry rogue_nonces(1000);
  rogue.install_default_funcs(rogue_nonces);
  Evaluator ev2(rogue);
  const EvidencePtr e = ev2.eval(parse_term("@us [attest(bmon) -> !]"),
                                 "bank", Evidence::empty());
  const AppraisalResult res = appraise(e, &platform.goldens(), keys);
  ASSERT_FALSE(res.ok);
  EXPECT_EQ(res.findings[0].kind, AppraisalFinding::Kind::kUnknownSigner);
}

TEST_F(Fixture, AppraisalFlagsMissingNonce) {
  const EvidencePtr e = evaluator.eval(parse_term("@us [attest(bmon)]"),
                                       "bank", Evidence::empty());
  const crypto::Nonce expected{crypto::sha256("expected")};
  const AppraisalResult res =
      appraise(e, &platform.goldens(), keys, expected);
  ASSERT_FALSE(res.ok);
  EXPECT_EQ(res.findings[0].kind, AppraisalFinding::Kind::kMissingNonce);
}

TEST_F(Fixture, AppraisalAcceptsPresentNonce) {
  const crypto::Nonce n{crypto::sha256("fresh")};
  const EvidencePtr e = evaluator.eval(parse_term("@us [attest(bmon)]"),
                                       "bank", Evidence::nonce_ev(n));
  EXPECT_TRUE(appraise(e, &platform.goldens(), keys, n).ok);
}

TEST_F(Fixture, AppraisalOfBytesMatchesTheTree) {
  const crypto::Nonce n{crypto::sha256("bytes")};
  const EvidencePtr e = evaluator.eval(parse_term("@us [attest(bmon) -> !]"),
                                       "bank", Evidence::nonce_ev(n));
  const crypto::Bytes enc = encode(e);
  const crypto::BytesView bytes{enc};
  const AppraisalResult tree = appraise(e, &platform.goldens(), keys, n);
  const AppraisalResult wire = appraise(bytes, &platform.goldens(), keys, n);
  EXPECT_TRUE(tree.ok);
  EXPECT_TRUE(wire.ok);
  EXPECT_EQ(wire.signatures_checked, tree.signatures_checked);
  EXPECT_EQ(wire.measurements_checked, tree.measurements_checked);
  ASSERT_EQ(e->kind, EvidenceKind::kSignature);
  EXPECT_EQ(tree.content_digest, digest(e->child));
  EXPECT_EQ(wire.content_digest, tree.content_digest);
  EXPECT_TRUE(wire.decoded);
  EXPECT_TRUE(tree.decoded);

  // A round nonce the evidence does not carry fails both.
  const crypto::Nonce other{crypto::sha256("other round")};
  EXPECT_FALSE(appraise(e, &platform.goldens(), keys, other).ok);
  const AppraisalResult stale =
      appraise(bytes, &platform.goldens(), keys, other);
  ASSERT_FALSE(stale.ok);
  EXPECT_EQ(stale.findings.back().kind, AppraisalFinding::Kind::kMissingNonce);
}

TEST_F(Fixture, AppraisalOfUndecodableBytesFailsWithoutThrowing) {
  const crypto::Bytes garbage{0xDE, 0xAD, 0xBE, 0xEF};
  AppraisalResult res;
  EXPECT_NO_THROW(res = appraise(crypto::BytesView{garbage},
                                 &platform.goldens(), keys));
  EXPECT_FALSE(res.ok);
  ASSERT_EQ(res.findings.size(), 1u);
  EXPECT_EQ(res.findings[0].kind, AppraisalFinding::Kind::kMalformed);
  EXPECT_FALSE(res.decoded);
  EXPECT_TRUE(res.content_digest.is_zero());
}

TEST_F(Fixture, AppraisalWithoutGoldensChecksOnlySignaturesAndNonce) {
  platform.corrupt("us", "bmon", "tampered bmon");
  const EvidencePtr e = evaluator.eval(parse_term("@us [attest(bmon) -> !]"),
                                       "bank", Evidence::empty());
  EXPECT_FALSE(appraise(e, &platform.goldens(), keys).ok);
  const AppraisalResult res = appraise(e, nullptr, keys);
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.measurements_checked, 0u);
  EXPECT_EQ(res.signatures_checked, 1u);
}

TEST_F(Fixture, TamperedSignatureDetected) {
  const EvidencePtr e = evaluator.eval(
      parse_term("@us [attest(bmon) -> !]"), "bank", Evidence::empty());
  // Re-parent the signature onto altered child evidence.
  const EvidencePtr forged = Evidence::signature(
      e->place,
      Evidence::measurement("us", "us", "bmon", crypto::sha256("lie"),
                            "forged"),
      e->sig);
  const AppraisalResult res = appraise(forged, &platform.goldens(), keys);
  ASSERT_FALSE(res.ok);
  bool saw_bad_sig = false;
  for (const auto& f : res.findings) {
    if (f.kind == AppraisalFinding::Kind::kBadSignature) saw_bad_sig = true;
  }
  EXPECT_TRUE(saw_bad_sig);
}

// --- testbed platform ------------------------------------------------------------

TEST_F(Fixture, CorruptAndRepair) {
  EXPECT_FALSE(platform.is_corrupt("us", "bmon"));
  platform.corrupt("us", "bmon", "evil");
  EXPECT_TRUE(platform.is_corrupt("us", "bmon"));
  platform.repair("us", "bmon");
  EXPECT_FALSE(platform.is_corrupt("us", "bmon"));
}

TEST_F(Fixture, CorruptUnknownComponentThrows) {
  EXPECT_THROW(platform.corrupt("us", "nope", "x"), std::invalid_argument);
  EXPECT_THROW(platform.repair("us", "nope"), std::invalid_argument);
}

TEST_F(Fixture, CorruptMeasurerLies) {
  platform.corrupt("us", "exts", "malware");
  platform.corrupt("us", "bmon", "corrupt monitor");
  // Corrupt bmon measures corrupt exts: reports the golden value (a lie).
  const MeasurementResult r = platform.measure("us", "bmon", "exts");
  EXPECT_EQ(r.value, *platform.golden("us", "exts"));
  // An honest measurer sees the truth.
  const MeasurementResult honest = platform.measure("us", "av", "exts");
  EXPECT_NE(honest.value, *platform.golden("us", "exts"));
}

}  // namespace
}  // namespace pera::copland
