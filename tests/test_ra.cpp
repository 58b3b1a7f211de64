// Tests for the RA roles (Fig. 1), certificates, and evidence redaction.
#include <gtest/gtest.h>

#include "ra/redaction.h"
#include "ra/roles.h"

namespace pera::ra {
namespace {

struct Bed {
  Bed()
      : keys(71),
        attester("switch1", keys.provision_hmac("switch1")),
        appraiser("Appraiser", keys),
        rp("RP1", 72) {
    keys.provision_hmac("Appraiser");
    program_value = crypto::sha256("program contents v5");
    attester.add_claim_source(
        {"Program", [this] { return program_value; }, "program digest"});
    attester.add_claim_source(
        {"Hardware", [] { return crypto::sha256("PERA-1000/sn42"); },
         "hardware id"});
    appraiser.set_golden("switch1", "Program", program_value);
    appraiser.set_golden("switch1", "Hardware",
                         crypto::sha256("PERA-1000/sn42"));
  }

  crypto::KeyStore keys;
  Attester attester;
  Appraiser appraiser;
  RelyingParty rp;
  crypto::Digest program_value;
};

// --- the Fig. 1 loop -----------------------------------------------------------

TEST(Roles, FullLoopAccepted) {
  Bed bed;
  const crypto::Nonce n = bed.rp.challenge();
  const copland::EvidencePtr evidence = bed.attester.attest({}, n);
  const AttestationResult res = bed.appraiser.appraise(evidence, n);
  EXPECT_TRUE(res.ok);
  ASSERT_TRUE(res.certificate.has_value());
  EXPECT_TRUE(bed.rp.accept(*res.certificate,
                            *bed.keys.verifier_for("Appraiser")));
  EXPECT_EQ(bed.rp.accepted_count(), 1u);
}

TEST(Roles, TamperedProgramRejected) {
  Bed bed;
  bed.program_value = crypto::sha256("rogue program");  // live value drifts
  const crypto::Nonce n = bed.rp.challenge();
  const copland::EvidencePtr evidence = bed.attester.attest({}, n);
  const AttestationResult res = bed.appraiser.appraise(evidence, n);
  EXPECT_FALSE(res.ok);
  ASSERT_TRUE(res.certificate.has_value());
  EXPECT_FALSE(res.certificate->verdict);
  EXPECT_FALSE(bed.rp.accept(*res.certificate,
                             *bed.keys.verifier_for("Appraiser")));
}

TEST(Roles, SelectiveTargets) {
  Bed bed;
  const copland::EvidencePtr e = bed.attester.attest({"Hardware"});
  const auto ms = copland::measurements_of(e);
  ASSERT_EQ(ms.size(), 1u);
  EXPECT_EQ(ms[0]->target, "Hardware");
  EXPECT_THROW((void)bed.attester.attest({"Nonexistent"}),
               std::invalid_argument);
}

TEST(Roles, HashBeforeSignShrinksEvidence) {
  Bed bed;
  const copland::EvidencePtr full = bed.attester.attest({}, std::nullopt, false);
  const copland::EvidencePtr hashed = bed.attester.attest({}, std::nullopt, true);
  EXPECT_LT(copland::wire_size(hashed), copland::wire_size(full));
  ASSERT_EQ(hashed->kind, copland::EvidenceKind::kSignature);
  EXPECT_EQ(hashed->child->kind, copland::EvidenceKind::kHashed);
}

TEST(Roles, NonceReplayRejected) {
  Bed bed;
  const crypto::Nonce n = bed.rp.challenge();
  const copland::EvidencePtr evidence = bed.attester.attest({}, n);
  EXPECT_TRUE(bed.appraiser.appraise(evidence, n).ok);
  // Same nonce appraised again: stale.
  const AttestationResult replay = bed.appraiser.appraise(evidence, n);
  EXPECT_FALSE(replay.ok);
  bool stale = false;
  for (const auto& f : replay.detail.findings) {
    if (f.kind == copland::AppraisalFinding::Kind::kStaleNonce) stale = true;
  }
  EXPECT_TRUE(stale);
}

TEST(Roles, MissingNonceRejected) {
  Bed bed;
  const crypto::Nonce n = bed.rp.challenge();
  const copland::EvidencePtr evidence = bed.attester.attest({});  // no nonce
  EXPECT_FALSE(bed.appraiser.appraise(evidence, n).ok);
}

TEST(Roles, CertificateStoreRetrieve) {
  Bed bed;
  const crypto::Nonce n = bed.rp.challenge();
  const auto res = bed.appraiser.appraise(bed.attester.attest({}, n), n);
  const auto cert = bed.appraiser.retrieve(n);
  ASSERT_TRUE(cert.has_value());
  EXPECT_EQ(cert->evidence_digest, res.certificate->evidence_digest);
  EXPECT_FALSE(bed.appraiser.retrieve(crypto::Nonce{crypto::sha256("x")})
                   .has_value());
}

TEST(Roles, RpRejectsForeignNonce) {
  Bed bed;
  // Certificate bound to a nonce this RP never issued.
  const crypto::Nonce foreign{crypto::sha256("foreign")};
  const auto res =
      bed.appraiser.appraise(bed.attester.attest({}, foreign), foreign);
  ASSERT_TRUE(res.certificate.has_value());
  EXPECT_FALSE(bed.rp.accept(*res.certificate,
                             *bed.keys.verifier_for("Appraiser")));
}

TEST(Roles, RpRejectsReusedCertificate) {
  Bed bed;
  const crypto::Nonce n = bed.rp.challenge();
  const auto res = bed.appraiser.appraise(bed.attester.attest({}, n), n);
  const crypto::Verifier& v = *bed.keys.verifier_for("Appraiser");
  EXPECT_TRUE(bed.rp.accept(*res.certificate, v));
  EXPECT_FALSE(bed.rp.accept(*res.certificate, v));  // double-spend
}

// --- certificates ------------------------------------------------------------------

TEST(Certificate, SerializeRoundTrip) {
  Bed bed;
  const crypto::Nonce n = bed.rp.challenge();
  const auto res = bed.appraiser.appraise(bed.attester.attest({}, n), n,
                                          true, 12345);
  ASSERT_TRUE(res.certificate.has_value());
  const crypto::Bytes ser = res.certificate->serialize();
  const Certificate back =
      Certificate::deserialize(crypto::BytesView{ser.data(), ser.size()});
  EXPECT_EQ(back.appraiser, "Appraiser");
  EXPECT_EQ(back.nonce, n);
  EXPECT_EQ(back.issued_at, 12345);
  EXPECT_TRUE(back.verify(*bed.keys.verifier_for("Appraiser")));
}

TEST(Certificate, TamperedFieldsFailVerification) {
  Bed bed;
  const crypto::Nonce n = bed.rp.challenge();
  const auto res = bed.appraiser.appraise(bed.attester.attest({}, n), n);
  Certificate cert = *res.certificate;
  const crypto::Verifier& v = *bed.keys.verifier_for("Appraiser");
  EXPECT_TRUE(cert.verify(v));
  Certificate flipped = cert;
  flipped.verdict = !flipped.verdict;
  EXPECT_FALSE(flipped.verify(v));
  Certificate redigested = cert;
  redigested.evidence_digest = crypto::sha256("other evidence");
  EXPECT_FALSE(redigested.verify(v));
}

TEST(Certificate, DeserializeRejectsGarbage) {
  const crypto::Bytes junk(10, 0xab);
  EXPECT_THROW((void)Certificate::deserialize(
                   crypto::BytesView{junk.data(), junk.size()}),
               std::exception);
}

// --- redaction -----------------------------------------------------------------------

TEST(Redaction, PseudonymsDeterministicPerUser) {
  PseudonymTable table(crypto::sha256("operator key"));
  const std::string p1 = table.pseudonym("alice", "switch1");
  EXPECT_EQ(table.pseudonym("alice", "switch1"), p1);
  EXPECT_NE(table.pseudonym("bob", "switch1"), p1);  // unlinkable across users
  EXPECT_EQ(p1.rfind("pseu-", 0), 0u);
}

TEST(Redaction, LiftRecoversRealName) {
  PseudonymTable table(crypto::sha256("operator key"));
  const std::string p = table.pseudonym("alice", "switch1");
  EXPECT_EQ(table.lift(p), "switch1");
  EXPECT_FALSE(table.lift("pseu-000000000000").has_value());
}

TEST(Redaction, PlacesRenamedInEvidence) {
  Bed bed;
  const copland::EvidencePtr e = bed.attester.attest({});
  PseudonymTable table(crypto::sha256("k"));
  RedactionPolicy policy;
  const copland::EvidencePtr red = redact(e, "alice", table, policy);
  for (const auto* m : copland::measurements_of(red)) {
    EXPECT_EQ(m->place.rfind("pseu-", 0), 0u);
  }
  // Values survive by default (the compliance officer can still check).
  EXPECT_EQ(copland::measurements_of(red)[0]->value,
            copland::measurements_of(e)[0]->value);
}

TEST(Redaction, DropClaimsAndCollapseValues) {
  Bed bed;
  const copland::EvidencePtr e = bed.attester.attest({});
  PseudonymTable table(crypto::sha256("k"));
  RedactionPolicy policy;
  policy.drop_claims = true;
  policy.collapse_measurement_values = true;
  policy.pseudonymize_targets = true;
  const copland::EvidencePtr red = redact(e, "alice", table, policy);
  for (const auto* m : copland::measurements_of(red)) {
    EXPECT_TRUE(m->claim.empty());
    EXPECT_NE(m->value, bed.program_value);
    EXPECT_EQ(m->target.rfind("pseu-", 0), 0u);
  }
}

TEST(Redaction, ResignMakesRedactionVerifiable) {
  Bed bed;
  crypto::Signer& op_signer = bed.keys.provision_hmac("operator");
  const copland::EvidencePtr e = bed.attester.attest({});
  PseudonymTable table(crypto::sha256("k"));
  const copland::EvidencePtr red = redact_and_resign(
      e, "alice", table, RedactionPolicy{}, "operator", op_signer);
  ASSERT_EQ(red->kind, copland::EvidenceKind::kSignature);
  EXPECT_EQ(red->place, "operator");
  EXPECT_TRUE(bed.keys.verifier_for("operator")
                  ->verify(copland::digest(red->child), red->sig));
}

TEST(Redaction, RedactedEvidenceFailsOriginalGoldens) {
  // Renamed places no longer match golden entries — the appraiser-facing
  // copy and the compliance-facing copy are deliberately different views.
  Bed bed;
  const copland::EvidencePtr e = bed.attester.attest({});
  PseudonymTable table(crypto::sha256("k"));
  const copland::EvidencePtr red = redact(e, "alice", table, RedactionPolicy{});
  const auto res =
      copland::appraise(red, &bed.appraiser.goldens(), bed.keys);
  EXPECT_FALSE(res.ok);
}

}  // namespace
}  // namespace pera::ra
