// Property-based tests over randomly generated Copland terms and
// dataplane workloads:
//   * parse(print(t)) == t for arbitrary well-formed terms,
//   * evaluation is deterministic and evidence encoding round-trips,
//   * the event-graph analysis is consistent with evaluation order,
//   * PolicyHeader serialization round-trips for arbitrary instructions.
#include <gtest/gtest.h>

#include "copland/analysis.h"
#include "copland/parser.h"
#include "copland/pretty.h"
#include "copland/semantics.h"
#include "copland/testbed.h"
#include "crypto/drbg.h"
#include "nac/header.h"

namespace pera::copland {
namespace {

/// Random well-formed Copland term generator. Components are drawn from a
/// small closed vocabulary so the testbed can pre-install them all.
class TermGen {
 public:
  explicit TermGen(std::uint64_t seed) : rng_(seed) {}

  static const std::vector<std::string>& places() {
    static const std::vector<std::string> kPlaces = {"p0", "p1", "p2", "p3"};
    return kPlaces;
  }
  static const std::vector<std::string>& components() {
    static const std::vector<std::string> kComps = {"c0", "c1", "c2", "c3",
                                                    "c4"};
    return kComps;
  }

  TermPtr gen(int depth = 0) {
    const int max_depth = 5;
    // Leaves dominate as depth grows.
    const std::uint64_t choice =
        depth >= max_depth ? rng_.uniform(4) : rng_.uniform(9);
    switch (choice) {
      case 0:
        return Term::atom(pick(components()));
      case 1:
        return Term::measure(pick(components()), pick(places()),
                             pick(components()));
      case 2:
        return Term::nil();
      case 3:
        // sign/hash must follow something; wrap a leaf in a pipe.
        return rng_.chance(0.5)
                   ? Term::pipe(Term::atom(pick(components())), Term::sign())
                   : Term::pipe(Term::atom(pick(components())), Term::hash());
      case 4:
        return Term::at(pick(places()), gen(depth + 1));
      case 5:
        return Term::pipe(gen(depth + 1), gen(depth + 1));
      case 6:
        return Term::seq(gen(depth + 1), gen(depth + 1), rng_.chance(0.5),
                         rng_.chance(0.5));
      case 7:
        return Term::par(gen(depth + 1), gen(depth + 1), rng_.chance(0.5),
                         rng_.chance(0.5));
      default:
        return Term::guard("G" + std::to_string(rng_.uniform(3)),
                           gen(depth + 1));
    }
  }

 private:
  const std::string& pick(const std::vector<std::string>& v) {
    return v[rng_.uniform(v.size())];
  }

  crypto::Drbg rng_;
};

struct PropertyBed {
  PropertyBed() : keys(4242), platform(keys), nonces(2424) {
    for (const auto& place : TermGen::places()) {
      for (const auto& comp : TermGen::components()) {
        platform.install(place, comp, place + "/" + comp + " contents");
      }
      keys.provision_hmac(place);
    }
    // Components also live at the root place for bare atoms.
    for (const auto& comp : TermGen::components()) {
      platform.install("root", comp, "root/" + comp);
    }
    keys.provision_hmac("root");
    platform.install_default_funcs(nonces);
  }

  crypto::KeyStore keys;
  TestbedPlatform platform;
  crypto::NonceRegistry nonces;
};

class RandomTerms : public ::testing::TestWithParam<int> {};

TEST_P(RandomTerms, PrintParseRoundTrip) {
  TermGen gen(static_cast<std::uint64_t>(GetParam()) * 101);
  for (int i = 0; i < 20; ++i) {
    const TermPtr t = gen.gen();
    const std::string printed = to_string(t);
    TermPtr back;
    ASSERT_NO_THROW(back = parse_term(printed)) << printed;
    EXPECT_TRUE(equal(t, back)) << printed << "\n  vs  " << to_string(back);
  }
}

TEST_P(RandomTerms, EvaluationDeterministic) {
  TermGen gen(static_cast<std::uint64_t>(GetParam()) * 211);
  PropertyBed bed1;
  PropertyBed bed2;
  Evaluator ev1(bed1.platform);
  Evaluator ev2(bed2.platform);
  for (int i = 0; i < 10; ++i) {
    const TermPtr t = gen.gen();
    const EvidencePtr a = ev1.eval(t, "root", Evidence::empty());
    const EvidencePtr b = ev2.eval(t, "root", Evidence::empty());
    EXPECT_TRUE(equal(a, b)) << to_string(t);
  }
}

TEST_P(RandomTerms, EvidenceEncodingRoundTrips) {
  TermGen gen(static_cast<std::uint64_t>(GetParam()) * 307);
  PropertyBed bed;
  Evaluator ev(bed.platform);
  for (int i = 0; i < 10; ++i) {
    const TermPtr t = gen.gen();
    const EvidencePtr e = ev.eval(t, "root", Evidence::empty());
    const crypto::Bytes enc = encode(e);
    const EvidencePtr back = decode(crypto::BytesView{enc.data(), enc.size()});
    EXPECT_TRUE(equal(e, back)) << to_string(t);
    EXPECT_EQ(digest(e), digest(back));
  }
}

TEST_P(RandomTerms, CleanPlatformAlwaysAppraises) {
  // Invariant: with no corruption and all keys known, every random policy
  // produces evidence that appraises clean.
  TermGen gen(static_cast<std::uint64_t>(GetParam()) * 401);
  PropertyBed bed;
  Evaluator ev(bed.platform);
  for (int i = 0; i < 10; ++i) {
    const TermPtr t = gen.gen();
    const EvidencePtr e = ev.eval(t, "root", Evidence::empty());
    const AppraisalResult res = appraise(e, &bed.platform.goldens(), bed.keys);
    EXPECT_TRUE(res.ok) << to_string(t) << "\n" << describe(e);
  }
}

TEST_P(RandomTerms, EventGraphMatchesEvaluatorEventOrder) {
  // The static happens-before must be consistent with the dynamic event
  // order the evaluator produces (left-first scheduling): if the graph
  // says a < b, the evaluator must fire a before b.
  struct Recorder final : EvalObserver {
    std::vector<std::pair<std::string, std::string>> measures;  // asp,target
    void on_event(const Term& term, const std::string&) override {
      if (term.kind == TermKind::kMeasure) {
        measures.emplace_back(term.asp, term.target);
      } else if (term.kind == TermKind::kAtom) {
        measures.emplace_back("", term.target);
      }
    }
  };

  TermGen gen(static_cast<std::uint64_t>(GetParam()) * 503);
  PropertyBed bed;
  for (int i = 0; i < 10; ++i) {
    const TermPtr t = gen.gen();
    Recorder rec;
    Evaluator ev(bed.platform, &rec);
    (void)ev.eval(t, "root", Evidence::empty());

    const EventGraph g = build_event_graph(t, "root");
    ASSERT_EQ(g.measurements.size(), rec.measures.size()) << to_string(t);
    // Events are generated in the same traversal order under left-first
    // scheduling, so index order must already respect happens-before.
    for (std::size_t a = 0; a < g.measurements.size(); ++a) {
      for (std::size_t b = 0; b < a; ++b) {
        EXPECT_FALSE(g.precedes(g.measurements[a].id, g.measurements[b].id))
            << "event " << a << " precedes earlier event " << b << " in "
            << to_string(t);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTerms, ::testing::Range(1, 13));

// --- random policy headers -------------------------------------------------------

class RandomHeaders : public ::testing::TestWithParam<int> {};

TEST_P(RandomHeaders, SerializationRoundTrips) {
  crypto::Drbg rng(static_cast<std::uint64_t>(GetParam()) * 613);
  nac::CompiledPolicy pol;
  pol.relying_party = "rp";
  pol.policy_id = rng.digest();
  pol.appraiser = rng.chance(0.5) ? "Appraiser" : "";
  const std::size_t hops = 1 + rng.uniform(6);
  for (std::size_t i = 0; i < hops; ++i) {
    nac::HopInstruction h;
    h.wildcard = rng.chance(0.3);
    if (!h.wildcard) h.place = "place" + std::to_string(rng.uniform(5));
    if (rng.chance(0.4)) h.guard = "K" + std::to_string(rng.uniform(3));
    h.detail = static_cast<nac::DetailMask>(rng.uniform(32));
    h.hash_evidence = rng.chance(0.3);
    h.sign_evidence = rng.chance(0.8);
    h.is_collector = rng.chance(0.2);
    h.out_of_band = rng.chance(0.3);
    const std::size_t nt = rng.uniform(3);
    for (std::size_t j = 0; j < nt; ++j) {
      h.custom_targets.push_back("prop" + std::to_string(rng.uniform(4)));
    }
    pol.hops.push_back(std::move(h));
  }
  const crypto::Nonce nonce{rng.digest()};
  const nac::PolicyHeader hdr = nac::make_header(
      pol, nonce, rng.chance(0.5), static_cast<std::uint8_t>(rng.uniform(11)));
  const crypto::Bytes ser = hdr.serialize();
  const nac::PolicyHeader back =
      nac::PolicyHeader::deserialize(crypto::BytesView{ser.data(), ser.size()});
  EXPECT_EQ(back.serialize(), ser);
  ASSERT_EQ(back.hops.size(), hdr.hops.size());
  for (std::size_t i = 0; i < hdr.hops.size(); ++i) {
    EXPECT_EQ(back.hops[i], hdr.hops[i]);
  }
}

TEST_P(RandomHeaders, TruncationAlwaysRejected) {
  crypto::Drbg rng(static_cast<std::uint64_t>(GetParam()) * 709);
  nac::CompiledPolicy pol;
  pol.policy_id = rng.digest();
  nac::HopInstruction h;
  h.wildcard = true;
  h.detail = nac::kAllDetail;
  h.custom_targets = {"x"};
  pol.hops = {h};
  const crypto::Bytes ser = nac::make_header(pol, {}, true).serialize();
  // Any strict prefix must be rejected, never crash.
  for (std::size_t cut = 0; cut < ser.size(); cut += 1 + rng.uniform(5)) {
    EXPECT_THROW((void)nac::PolicyHeader::deserialize(
                     crypto::BytesView{ser.data(), cut}),
                 std::exception)
        << "prefix length " << cut;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomHeaders, ::testing::Range(1, 9));

}  // namespace
}  // namespace pera::copland
