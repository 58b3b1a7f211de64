// Robustness fuzzing: random byte mutations of every wire format must
// either decode to something well-formed or throw — never crash, hang, or
// read out of bounds. (Run under ASAN for full effect; the invariant
// checked here is "throws std::invalid_argument or succeeds" for the
// binary decoders, "throws std::exception or succeeds" for the text
// parsers.)
#include <gtest/gtest.h>

#include "copland/evidence.h"
#include "core/wire.h"
#include "crypto/drbg.h"
#include "crypto/keystore.h"
#include "crypto/merkle.h"
#include "copland/parser.h"
#include "dataplane/builder.h"
#include "dataplane/p4mini.h"
#include "nac/header.h"
#include "netkat/parser.h"
#include "pera/batcher.h"
#include "ra/certificate.h"
#include "ra/roles.h"
#include "ra/endorsement.h"
#include "reference_appraisal.h"

namespace pera {
namespace {

using crypto::Bytes;
using crypto::BytesView;

// Apply `n` random mutations (byte flips, truncations, extensions).
Bytes mutate(Bytes data, crypto::Drbg& rng, int n) {
  for (int i = 0; i < n; ++i) {
    if (data.empty()) {
      data.push_back(static_cast<std::uint8_t>(rng.uniform(256)));
      continue;
    }
    switch (rng.uniform(4)) {
      case 0:  // flip a byte
        data[rng.uniform(data.size())] ^=
            static_cast<std::uint8_t>(1 + rng.uniform(255));
        break;
      case 1:  // truncate
        data.resize(rng.uniform(data.size()) );
        break;
      case 2:  // extend with junk
        data.push_back(static_cast<std::uint8_t>(rng.uniform(256)));
        break;
      default:  // overwrite a run
        for (std::size_t j = rng.uniform(data.size());
             j < data.size() && rng.chance(0.7); ++j) {
          data[j] = static_cast<std::uint8_t>(rng.uniform(256));
        }
        break;
    }
  }
  return data;
}

template <typename DecodeFn>
void fuzz_decoder(const Bytes& seed_bytes, std::uint64_t seed, int rounds,
                  DecodeFn decode) {
  crypto::Drbg rng(seed);
  for (int i = 0; i < rounds; ++i) {
    const Bytes mutated = mutate(seed_bytes, rng, 1 + static_cast<int>(rng.uniform(6)));
    try {
      decode(BytesView{mutated.data(), mutated.size()});
    } catch (const std::invalid_argument&) {
      // expected for malformed input; any other exception fails the test
    }
  }
}

TEST(Fuzz, EvidenceDecoder) {
  const copland::EvidencePtr e = copland::Evidence::seq(
      copland::Evidence::measurement("a", "p", "t", crypto::sha256("v"), "c"),
      copland::Evidence::nonce_ev(crypto::Nonce{crypto::sha256("n")}));
  fuzz_decoder(copland::encode(e), 11, 400,
               [](BytesView d) { (void)copland::decode(d); });
}

TEST(Fuzz, PolicyHeaderDecoder) {
  nac::CompiledPolicy pol;
  pol.policy_id = crypto::sha256("p");
  nac::HopInstruction h;
  h.wildcard = true;
  h.guard = "K";
  h.detail = nac::kAllDetail;
  h.sign_evidence = true;
  h.custom_targets = {"x", "y"};
  pol.hops = {h};
  pol.appraiser = "Appraiser";
  fuzz_decoder(nac::make_header(pol, {}, true, 3).serialize(), 12, 400,
               [](BytesView d) { (void)nac::PolicyHeader::deserialize(d); });
}

TEST(Fuzz, EvidenceCarrierDecoder) {
  nac::EvidenceCarrier c;
  c.add("s1", Bytes{1, 2, 3, 4, 5});
  c.add("s2", Bytes(40, 0xcd));
  fuzz_decoder(c.serialize(), 13, 400,
               [](BytesView d) { (void)nac::EvidenceCarrier::deserialize(d); });
}

TEST(Fuzz, CertificateDecoder) {
  crypto::KeyStore keys(14);
  crypto::Signer& s = keys.provision_hmac("app");
  ra::Certificate cert;
  cert.appraiser = "app";
  cert.evidence_digest = crypto::sha256("e");
  cert.verdict = true;
  cert.sig = s.sign(cert.signing_payload());
  fuzz_decoder(cert.serialize(), 15, 400,
               [](BytesView d) { (void)ra::Certificate::deserialize(d); });
}

TEST(Fuzz, EndorsementDecoder) {
  crypto::KeyStore keys(16);
  const ra::Endorsement e = ra::Endorsement::make(
      "vendor", "s1", "Program", "v5", crypto::sha256("img"),
      keys.provision_hmac("vendor"));
  fuzz_decoder(e.serialize(), 17, 400,
               [](BytesView d) { (void)ra::Endorsement::deserialize(d); });
}

TEST(Fuzz, SignatureDecoder) {
  crypto::KeyStore keys(18);
  const crypto::Signature sig =
      keys.provision_hmac("x").sign(crypto::sha256("m"));
  fuzz_decoder(sig.serialize(), 19, 400,
               [](BytesView d) { (void)crypto::Signature::deserialize(d); });
}

TEST(Fuzz, MerkleProofDecoder) {
  std::vector<crypto::Digest> leaves;
  for (int i = 0; i < 9; ++i) leaves.push_back(crypto::sha256(std::to_string(i)));
  const crypto::MerkleTree tree(leaves);
  fuzz_decoder(tree.prove(4).serialize(), 20, 400,
               [](BytesView d) { (void)crypto::MerkleProof::deserialize(d); });
}

TEST(Fuzz, FlowBundleDecoder) {
  core::FlowBundle bundle;
  bundle.raw = dataplane::make_tcp_packet({});
  netsim::Message msg;
  bundle.to_message(msg);
  crypto::Drbg rng(21);
  for (int i = 0; i < 300; ++i) {
    netsim::Message m = msg;
    m.headers = mutate(m.headers, rng, 1 + static_cast<int>(rng.uniform(4)));
    m.payload = mutate(m.payload, rng, 1 + static_cast<int>(rng.uniform(4)));
    try {
      (void)core::FlowBundle::from_message(m);
    } catch (const std::invalid_argument&) {
    }
  }
}

TEST(Fuzz, XmssSignatureDecoder) {
  crypto::XmssKeyPair kp(crypto::sha256("xmss"), 2);
  fuzz_decoder(kp.sign(crypto::sha256("m")).serialize(), 27, 400,
               [](BytesView d) { (void)crypto::XmssSignature::deserialize(d); });
}

// One error contract: a length prefix that runs past the input is a
// malformed message (std::invalid_argument), not a bounds error.
TEST(Fuzz, TruncatedLengthsThrowInvalidArgument) {
  const Bytes one = {0x01};
  EXPECT_THROW((void)copland::decode(BytesView{one.data(), one.size()}),
               std::invalid_argument);
  EXPECT_THROW((void)nac::EvidenceCarrier::deserialize({}),
               std::invalid_argument);
  EXPECT_THROW((void)ra::Certificate::deserialize({}), std::invalid_argument);
  core::FlowBundle bundle;
  bundle.raw = dataplane::make_tcp_packet({});
  netsim::Message msg;
  bundle.to_message(msg);
  msg.payload = {0x00};
  EXPECT_THROW((void)core::FlowBundle::from_message(msg),
               std::invalid_argument);
}

// Nesting budget: depth - 1 nested seq tags (0x05) followed by `depth`
// empty leaves (0x00) encode a left-deep tree `depth` nodes deep.
Bytes nested_seq(std::size_t depth) {
  Bytes b(depth - 1, 0x05);
  b.resize(2 * depth - 1, 0x00);
  return b;
}

TEST(Fuzz, EvidenceAtDepthBudgetDecodes) {
  const Bytes b = nested_seq(copland::kMaxEvidenceDepth);
  const copland::EvidencePtr e = copland::decode(BytesView{b.data(), b.size()});
  EXPECT_EQ(copland::node_count(e), b.size());
  EXPECT_EQ(copland::encode(e), b);
}

TEST(Fuzz, EvidenceOneLevelPastBudgetThrows) {
  const Bytes b = nested_seq(copland::kMaxEvidenceDepth + 1);
  EXPECT_THROW((void)copland::decode(BytesView{b.data(), b.size()}),
               std::invalid_argument);
}

// Without the budget, decode recurses once per tag here and overflows the
// stack.
TEST(Fuzz, DeepSeqBufferThrowsInsteadOfCrashing) {
  const Bytes b(100 * 1024, 0x05);
  EXPECT_THROW((void)copland::decode(BytesView{b.data(), b.size()}),
               std::invalid_argument);
}

// The genuine records the appraisal differential mutates: HMAC-, XMSS- and
// Merkle-batch-signed rounds; a signed par/seq with a nested signature, a
// tampered measurement and an unknown component; a nested record whose
// outer signature covers measurements before and after the inner one and
// names no place; and a record with a stray (unsigned) measurement on
// each side of a signed round.
std::vector<Bytes> genuine_records(reference::AppraisalSetup& s) {
  using copland::Evidence;
  std::vector<Bytes> out;
  out.push_back(copland::encode(s.sign("sw1", s.round("sw1"))));
  out.push_back(copland::encode(s.sign("xsw", s.round("xsw"))));
  const std::vector<copland::EvidencePtr> batch = {
      s.round("sw2"), s.round("sw2", /*tampered=*/true),
      s.measured("sw2", "program")};
  pera::EvidenceBatcher batcher(*s.keys.signer_for("sw2"), batch.size() + 1);
  for (const auto& body : batch) (void)batcher.add(copland::digest(body));
  const std::vector<crypto::Signature> sigs = batcher.flush_wrapped();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    out.push_back(
        copland::encode(Evidence::signature("sw2", batch[i], sigs[i])));
  }
  out.push_back(copland::encode(s.sign(
      "sw1", Evidence::par(s.sign("sw2", s.round("sw2")),
                           Evidence::seq(s.round("sw1", /*tampered=*/true),
                                         s.measured("sw1", "nosuch"))))));
  const copland::EvidencePtr nested_body = Evidence::seq(
      s.measured("sw1", "program"),
      Evidence::seq(s.sign("sw2", s.round("sw2")),
                    Evidence::seq(s.measured("sw1", "nosuch"),
                                  Evidence::nonce_ev(s.nonce))));
  out.push_back(copland::encode(Evidence::signature(
      "", nested_body,
      s.keys.signer_for("sw1")->sign(copland::digest(nested_body)))));
  out.push_back(copland::encode(Evidence::seq(
      s.measured("sw2", "program"),
      Evidence::seq(s.sign("sw1", s.round("sw1")),
                    s.measured("xsw", "program", /*tampered=*/true)))));
  return out;
}

TEST(Fuzz, AppraisalWalkMatchesDecodeThenTreeWalk) {
  reference::AppraisalSetup s;
  const std::vector<Bytes> records = genuine_records(s);
  const auto verdict = [&s](const Bytes& b) {
    return copland::appraise(BytesView{b.data(), b.size()}, &s.goldens,
                             s.keys, s.nonce);
  };
  EXPECT_TRUE(verdict(records[0]).ok);  // HMAC
  EXPECT_TRUE(verdict(records[1]).ok);  // XMSS
  EXPECT_TRUE(verdict(records[2]).ok);  // Merkle-batched
  EXPECT_EQ(verdict(records[5]).signatures_checked, 2u);
  EXPECT_EQ(verdict(records[6]).signatures_checked, 2u);

  // The nested record's hops: the inner signature first, each measurement
  // under its innermost signature, the unnamed outer one at sw1.
  {
    const BytesView v{records[6].data(), records[6].size()};
    const core::PathVerdict path =
        core::PathVerifier(s.goldens, s.keys).verify(copland::decode(v));
    ASSERT_EQ(path.places(), (std::vector<std::string>{"sw2", "sw1"}));
    EXPECT_EQ(path.hops[0].measurements.size(), 1u);
    EXPECT_EQ(path.hops[1].measurements.size(), 2u);
    EXPECT_TRUE(path.all_signatures_ok);
  }
  // The stray record: each unsigned measurement is an unverified hop.
  {
    copland::AppraisalReport report;
    const BytesView v{records[7].data(), records[7].size()};
    (void)copland::appraise(v, &s.goldens, s.keys, s.nonce, &report);
    ASSERT_EQ(report.hops.size(), 3u);
    EXPECT_FALSE(report.hops[0].is_signature);
    EXPECT_TRUE(report.hops[1].signature_ok);
    EXPECT_FALSE(report.hops[2].signature_ok);
    EXPECT_TRUE(report.signed_place("sw1"));
    EXPECT_FALSE(report.signed_place("sw2"));
    EXPECT_EQ(report.nonces.size(), 1u);
  }

  crypto::Drbg rng(29);
  for (std::size_t r = 0; r < records.size(); ++r) {
    for (int i = 0; i < 300; ++i) {
      const Bytes b =
          i == 0 ? records[r]
                 : mutate(records[r], rng, 1 + static_cast<int>(rng.uniform(6)));
      const BytesView v{b.data(), b.size()};
      // With and without goldens and a round nonce.
      const bool full = i % 2 == 0;
      const copland::Goldens* goldens = full ? &s.goldens : nullptr;
      const crypto::Nonce nonce = full ? s.nonce : crypto::Nonce{};
      copland::AppraisalReport report;
      const copland::AppraisalResult walk =
          copland::appraise(v, goldens, s.keys, nonce, &report);
      ASSERT_EQ(reference::difference(
                    walk, reference::appraise(v, goldens, s.keys, nonce)),
                "")
          << "record " << r << " mutation " << i;
      if (walk.decoded) {
        ASSERT_EQ(reference::report_difference(v, report, s.goldens, s.keys),
                  "")
            << "record " << r << " mutation " << i;
      }
    }
  }
}

// Text-format fuzzing: mutated sources must parse or throw, never crash.
TEST(Fuzz, CoplandParser) {
  const std::string seed_src =
      "*bank<n, X> : forall hop, client : (@hop [Khop |> attest(n, X) -> !] "
      "-<+ @Appraiser [appraise -> store(n)]) *=> @client [x]";
  crypto::Drbg rng(22);
  for (int i = 0; i < 400; ++i) {
    std::string src = seed_src;
    const int mutations = 1 + static_cast<int>(rng.uniform(5));
    for (int m = 0; m < mutations; ++m) {
      if (src.empty()) break;
      const std::size_t pos = rng.uniform(src.size());
      switch (rng.uniform(3)) {
        case 0: src[pos] = static_cast<char>(32 + rng.uniform(95)); break;
        case 1: src.erase(pos, 1 + rng.uniform(4)); break;
        default: src.insert(pos, 1, static_cast<char>(32 + rng.uniform(95)));
      }
    }
    try {
      (void)copland::parse_request(src);
    } catch (const std::exception&) {
    }
  }
}

TEST(Fuzz, P4MiniCompiler) {
  const std::string seed_src = dataplane::p4src::acl_v3();
  crypto::Drbg rng(23);
  for (int i = 0; i < 200; ++i) {
    std::string src = seed_src;
    const int mutations = 1 + static_cast<int>(rng.uniform(4));
    for (int m = 0; m < mutations; ++m) {
      const std::size_t pos = rng.uniform(src.size());
      switch (rng.uniform(3)) {
        case 0: src[pos] = static_cast<char>(32 + rng.uniform(95)); break;
        case 1: src.erase(pos, 1 + rng.uniform(8)); break;
        default: src.insert(pos, 1, static_cast<char>(32 + rng.uniform(95)));
      }
    }
    try {
      (void)dataplane::compile_p4mini(src);
    } catch (const std::exception&) {
    }
  }
}

TEST(Fuzz, NetkatParser) {
  const std::string seed_src =
      "filter (sw = 1 & !(pt = 9) + dst & 0xff00 = 0x1200) ; pt := 2 + drop";
  crypto::Drbg rng(24);
  for (int i = 0; i < 300; ++i) {
    std::string src = seed_src;
    const int mutations = 1 + static_cast<int>(rng.uniform(5));
    for (int m = 0; m < mutations; ++m) {
      if (src.empty()) break;
      const std::size_t pos = rng.uniform(src.size());
      switch (rng.uniform(3)) {
        case 0: src[pos] = static_cast<char>(32 + rng.uniform(95)); break;
        case 1: src.erase(pos, 1 + rng.uniform(4)); break;
        default: src.insert(pos, 1, static_cast<char>(32 + rng.uniform(95)));
      }
    }
    try {
      (void)netkat::parse_policy(src);
    } catch (const std::exception&) {
    }
  }
}

// Audit query API (UC4).
TEST(AuditQueries, CertificatesBetweenAndFailed) {
  crypto::KeyStore keys(25);
  ra::Appraiser app("Appraiser", keys);
  keys.provision_hmac("Appraiser");
  ra::Attester att("s1", keys.provision_hmac("s1"));
  crypto::Digest live = crypto::sha256("good");
  att.add_claim_source({"Program", [&live] { return live; }, "prog"});
  app.set_golden("s1", "Program", crypto::sha256("good"));

  crypto::NonceRegistry nonces(26);
  for (int t = 1; t <= 5; ++t) {
    if (t == 4) live = crypto::sha256("rogue");  // compromise at t=4
    const crypto::Nonce n = nonces.issue();
    (void)app.appraise(att.attest({}, n), n, true, t * 100);
  }
  EXPECT_EQ(app.stored_count(), 5u);
  EXPECT_EQ(app.certificates_between(200, 400).size(), 3u);
  const auto window = app.certificates_between(200, 400);
  EXPECT_LE(window.front().issued_at, window.back().issued_at);
  const auto failed = app.failed_certificates();
  ASSERT_EQ(failed.size(), 2u);  // t=4 and t=5
  for (const auto& c : failed) EXPECT_GE(c.issued_at, 400);
}

}  // namespace
}  // namespace pera
