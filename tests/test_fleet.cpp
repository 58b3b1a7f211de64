// Fleet-scale hierarchical appraisal (src/fleet): delegation-tree
// partitioning and failover, evidence composition trees (wire format,
// signatures, Merkle recompute, derived-nonce freshness, seeded audits),
// storm-free wave pacing (token bucket, region sessions, jittered
// scheduler), the end-to-end delegated loop on the fleet topology —
// including parity with flat per-switch appraisal and the
// compromised-regional failover — and the same composition machinery
// driven over the PR 9 socket backend.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "adversary/attacks.h"
#include "core/deployment.h"
#include "crypto/sha256.h"
#include "ctrl/transport.h"
#include "ctrl/trust.h"
#include "fleet/aggregate.h"
#include "fleet/controller.h"
#include "fleet/delegation.h"
#include "fleet/wave.h"
#include "net/backend.h"
#include "net/client.h"
#include "net/server.h"
#include "netsim/topology.h"
#include "pipeline/pipeline.h"
#include "reference_appraisal.h"

namespace {

using namespace pera;
using ctrl::TrustState;
using fleet::AggregateEntry;
using fleet::EntryOutcome;

core::DeploymentOptions seeded(std::uint64_t seed) {
  core::DeploymentOptions o;
  o.seed = seed;
  return o;
}

crypto::Digest d(const std::string& s) { return crypto::sha256(s); }

std::vector<std::string> names(const char* prefix, std::size_t n) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(prefix + std::to_string(i));
  return out;
}

// Malformed wire input must surface as std::invalid_argument — never UB,
// a crash, another exception type, or silent acceptance.
template <typename Fn>
::testing::AssertionResult rejects_malformed(Fn&& fn) {
  try {
    (void)fn();
  } catch (const std::invalid_argument&) {
    return ::testing::AssertionSuccess();
  } catch (const std::exception& e) {
    return ::testing::AssertionFailure()
           << "threw unexpected exception: " << e.what();
  }
  return ::testing::AssertionFailure() << "parsed without throwing";
}

// ---------------------------------------------------------- delegation --

TEST(FleetDelegation, BuildPartitionsWithBoundedFanout) {
  const auto members = fleet::fleet_switch_names(100);
  const auto regionals = fleet::fleet_regional_names(100, 8);
  const auto tree = fleet::DelegationTree::build(members, regionals, {8});
  EXPECT_EQ(tree.region_count(), 13u);
  std::size_t covered = 0;
  for (const fleet::Region* r : tree.regions()) {
    EXPECT_LE(r->members.size(), 8u);
    EXPECT_TRUE(std::is_sorted(r->members.begin(), r->members.end()));
    EXPECT_TRUE(std::find(regionals.begin(), regionals.end(), r->appraiser) !=
                regionals.end());
    for (const auto& m : r->members) {
      ++covered;
      ASSERT_NE(tree.region_of_member(m), nullptr);
      EXPECT_EQ(tree.region_of_member(m)->name, r->name);
    }
  }
  EXPECT_EQ(covered, 100u);
  auto all = tree.all_members();
  auto expect = members;
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(all, expect);
  EXPECT_EQ(tree.region_of_member("no-such-switch"), nullptr);
  EXPECT_THROW(fleet::DelegationTree::build(members, {}, {8}),
               std::invalid_argument);
}

TEST(FleetDelegation, RehomeMovesEveryDomainOfAnAppraiser) {
  auto tree =
      fleet::DelegationTree::build(names("sw", 12), {"r0", "r1"}, {4});
  std::vector<std::string> from_r0;
  for (const fleet::Region* r : tree.regions()) {
    if (r->appraiser == "r0") from_r0.push_back(r->name);
  }
  ASSERT_FALSE(from_r0.empty());
  EXPECT_EQ(tree.rehome("r0", "r1"), from_r0.size());
  for (const fleet::Region* r : tree.regions()) {
    EXPECT_EQ(r->appraiser, "r1");
  }
  // Membership is untouched by a rehome.
  EXPECT_EQ(tree.all_members().size(), 12u);
  EXPECT_EQ(tree.rehome("r0", "r1"), 0u) << "nothing left to move";
}

TEST(FleetDelegation, SplitHalvesARegionAndKeepsTheAppraiser) {
  auto tree = fleet::DelegationTree::build(names("sw", 16), {"r0"}, {16});
  ASSERT_EQ(tree.region_count(), 1u);
  const std::string name = tree.regions()[0]->name;
  const auto halves = tree.split(name, 4);
  ASSERT_TRUE(halves.has_value());
  EXPECT_EQ(tree.region_count(), 2u);
  const auto& a = tree.region(halves->first);
  const auto& b = tree.region(halves->second);
  EXPECT_EQ(a.members.size() + b.members.size(), 16u);
  EXPECT_EQ(a.appraiser, "r0");
  EXPECT_EQ(b.appraiser, "r0");
  EXPECT_THROW((void)tree.region(name), std::invalid_argument)
      << "split retires the old region";
  // Too small to split further once below 2 * min_size.
  auto small = fleet::DelegationTree::build(names("sw", 6), {"r0"}, {16});
  EXPECT_FALSE(small.split(small.regions()[0]->name, 4).has_value());
}

TEST(FleetDelegation, SiblingRingSkipsExcludedAppraisers) {
  const auto tree = fleet::DelegationTree::build(
      names("sw", 8), {"r0", "r1", "r2", "r3"}, {2});
  EXPECT_EQ(tree.sibling_of("r1"), "r2");
  EXPECT_EQ(tree.sibling_of("r3"), "r0") << "ring wraps";
  EXPECT_EQ(tree.sibling_of("r1", {"r2", "r3"}), "r0");
  EXPECT_FALSE(tree.sibling_of("r1", {"r0", "r2", "r3"}).has_value());
}

TEST(FleetDelegation, PolicyTermRendersForallPhrase) {
  const auto tree =
      fleet::DelegationTree::build({"swA", "swB"}, {"r0"}, {8});
  const std::string term = fleet::policy_term(*tree.regions()[0]);
  EXPECT_NE(term.find("@r0"), std::string::npos);
  EXPECT_NE(term.find("forall"), std::string::npos);
  EXPECT_NE(term.find("swA"), std::string::npos);
  EXPECT_NE(term.find("swB"), std::string::npos);
  EXPECT_NE(term.find("attest"), std::string::npos);
}

TEST(FleetDelegation, FleetNamesMatchTopologyBuilder) {
  const netsim::Topology topo = netsim::topo::fleet(10, 4);
  for (const auto& n : fleet::fleet_switch_names(10)) {
    EXPECT_NO_THROW((void)topo.require(n));
  }
  for (const auto& r : fleet::fleet_regional_names(10, 4)) {
    EXPECT_NO_THROW((void)topo.require(r));
  }
  EXPECT_EQ(fleet::fleet_regional_names(10, 4).size(), 3u);
}

// ----------------------------------------------------------- aggregate --

AggregateEntry entry_of(const std::string& place, EntryOutcome o, bool verdict,
                        const crypto::Digest& meas) {
  AggregateEntry e;
  e.place = place;
  e.outcome = o;
  e.verdict = verdict;
  e.attempts = 1;
  e.measurement_root = meas;
  return e;
}

TEST(FleetAggregate, LeafDigestTracksStateNotAttempts) {
  AggregateEntry a = entry_of("sw0", EntryOutcome::kPass, true, d("m"));
  AggregateEntry b = a;
  b.attempts = 7;
  b.evidence = {1, 2, 3};  // carried bytes are not part of the leaf
  EXPECT_EQ(a.leaf_digest(), b.leaf_digest())
      << "leaf must be stable across waves when measured state is stable";
  AggregateEntry c = a;
  c.verdict = false;
  c.outcome = EntryOutcome::kFail;
  EXPECT_NE(a.leaf_digest(), c.leaf_digest());
  AggregateEntry e = a;
  e.measurement_root = d("other");
  EXPECT_NE(a.leaf_digest(), e.leaf_digest());
}

fleet::Aggregate sealed_aggregate(crypto::KeyStore& ks,
                                  const crypto::Nonce& nonce,
                                  std::uint64_t wave = 3) {
  fleet::EvidenceAggregator agg("g0", "r0", {"sw0", "sw1", "sw2"});
  agg.begin_wave(wave, nonce);
  agg.record(entry_of("sw1", EntryOutcome::kPass, true, d("m1")));
  agg.record(entry_of("sw0", EntryOutcome::kFail, false, d("m0")));
  // sw2 unrecorded: seal fills a timeout slot.
  return agg.seal(*ks.signer_for("r0"));
}

TEST(FleetAggregate, SerializeRoundtripsByteIdentical) {
  crypto::KeyStore ks(0xF1EE7);
  ks.provision_hmac("r0");
  const crypto::Nonce nonce{d("wave-nonce")};
  fleet::Aggregate agg = sealed_aggregate(ks, nonce);
  agg.entries[1].evidence = {9, 8, 7, 6};
  const crypto::Bytes wire = agg.serialize();
  const fleet::Aggregate back = fleet::Aggregate::deserialize(
      crypto::BytesView{wire.data(), wire.size()});
  EXPECT_EQ(back.region, "g0");
  EXPECT_EQ(back.appraiser, "r0");
  EXPECT_EQ(back.wave, 3u);
  EXPECT_EQ(back.nonce, nonce);
  ASSERT_EQ(back.entries.size(), 3u);
  EXPECT_EQ(back.entries[0].place, "sw0");
  EXPECT_EQ(back.entries[1].place, "sw1");
  EXPECT_EQ(back.entries[2].place, "sw2");
  EXPECT_EQ(back.entries[2].outcome, EntryOutcome::kTimeout);
  EXPECT_EQ(back.entries[1].evidence, agg.entries[1].evidence);
  EXPECT_EQ(back.merkle_root, agg.merkle_root);
  EXPECT_EQ(back.serialize(), wire);
}

TEST(FleetAggregate, DeserializeRejectsTruncationAndTrailingBytes) {
  crypto::KeyStore ks(0xF1EE8);
  ks.provision_hmac("r0");
  const crypto::Bytes wire = sealed_aggregate(ks, crypto::Nonce{d("n")})
                                 .serialize();
  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_TRUE(rejects_malformed([&] {
      return fleet::Aggregate::deserialize(crypto::BytesView{wire.data(), len});
    })) << "prefix of length " << len << " must not parse";
  }
  crypto::Bytes extra = wire;
  extra.push_back(0);
  EXPECT_THROW((void)fleet::Aggregate::deserialize(
                   crypto::BytesView{extra.data(), extra.size()}),
               std::invalid_argument);
}

TEST(FleetAggregate, WaveCommandRoundtrips) {
  fleet::WaveCommand cmd;
  cmd.region = "g7";
  cmd.wave = 42;
  cmd.nonce = crypto::Nonce{d("cmd")};
  cmd.detail = nac::mask_of(nac::EvidenceDetail::kProgram);
  cmd.carry_evidence = false;
  cmd.members = {"sw9", "sw10"};
  const crypto::Bytes wire = cmd.serialize();
  const fleet::WaveCommand back = fleet::WaveCommand::deserialize(
      crypto::BytesView{wire.data(), wire.size()});
  EXPECT_EQ(back.region, cmd.region);
  EXPECT_EQ(back.wave, cmd.wave);
  EXPECT_EQ(back.nonce, cmd.nonce);
  EXPECT_EQ(back.detail, cmd.detail);
  EXPECT_EQ(back.carry_evidence, cmd.carry_evidence);
  EXPECT_EQ(back.members, cmd.members);
  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_TRUE(rejects_malformed([&] {
      return fleet::WaveCommand::deserialize(
          crypto::BytesView{wire.data(), len});
    })) << "prefix of length " << len << " must not parse";
  }
}

TEST(FleetAggregate, DerivedMemberNoncesAreDistinctAndDeterministic) {
  const crypto::Nonce w1{d("w1")};
  const crypto::Nonce w2{d("w2")};
  const auto n = fleet::derive_member_nonce(w1, "sw0", 1);
  EXPECT_EQ(n, fleet::derive_member_nonce(w1, "sw0", 1));
  EXPECT_NE(n, fleet::derive_member_nonce(w1, "sw0", 2));
  EXPECT_NE(n, fleet::derive_member_nonce(w1, "sw1", 1));
  EXPECT_NE(n, fleet::derive_member_nonce(w2, "sw0", 1));
}

fleet::VerifyOptions bare_verify(const crypto::KeyStore& ks) {
  fleet::VerifyOptions opts;
  opts.keys = &ks;
  opts.root_appraiser = nullptr;  // no audits in wire-level tests
  return opts;
}

TEST(FleetAggregate, SignedAggregateVerifiesAndRecoversVerdicts) {
  crypto::KeyStore ks(0xF1EE9);
  ks.provision_hmac("r0");
  const crypto::Nonce nonce{d("wave")};
  const fleet::Aggregate agg = sealed_aggregate(ks, nonce);
  const auto check = fleet::verify_aggregate(
      agg, {"sw0", "sw1", "sw2"}, nonce, 3, bare_verify(ks));
  ASSERT_TRUE(check.valid) << check.reason;
  EXPECT_EQ(check.per_switch.at("sw0").outcome, EntryOutcome::kFail);
  EXPECT_FALSE(check.per_switch.at("sw0").verdict);
  EXPECT_TRUE(check.per_switch.at("sw1").verdict);
  EXPECT_EQ(check.per_switch.at("sw2").outcome, EntryOutcome::kTimeout);
}

TEST(FleetAggregate, TamperedAggregatesAreRejected) {
  crypto::KeyStore ks(0xF1EEA);
  ks.provision_hmac("r0");
  ks.provision_hmac("r1");
  const crypto::Nonce nonce{d("wave")};
  const std::vector<std::string> members = {"sw0", "sw1", "sw2"};
  const fleet::Aggregate agg = sealed_aggregate(ks, nonce);
  const auto opts = bare_verify(ks);

  fleet::Aggregate flipped = agg;
  flipped.entries[0].verdict = true;  // lie about sw0's verdict...
  flipped.entries[0].outcome = EntryOutcome::kPass;
  auto check = fleet::verify_aggregate(flipped, members, nonce, 3, opts);
  EXPECT_FALSE(check.valid);
  EXPECT_NE(check.reason.find("merkle"), std::string::npos);

  // ...and recomputing the Merkle root without re-signing breaks the sig.
  std::vector<crypto::Digest> leaves;
  for (const auto& e : flipped.entries) leaves.push_back(e.leaf_digest());
  flipped.merkle_root = crypto::IncrementalMerkleTree(std::move(leaves)).root();
  check = fleet::verify_aggregate(flipped, members, nonce, 3, opts);
  EXPECT_FALSE(check.valid);
  EXPECT_NE(check.reason.find("signature"), std::string::npos);

  // A different signer than the claimed appraiser is caught too.
  fleet::Aggregate wrong_key = agg;
  wrong_key.sig = ks.signer_for("r1")->sign(wrong_key.signing_payload());
  EXPECT_FALSE(
      fleet::verify_aggregate(wrong_key, members, nonce, 3, opts).valid);

  EXPECT_FALSE(
      fleet::verify_aggregate(agg, members, crypto::Nonce{d("old")}, 3, opts)
          .valid);
  EXPECT_FALSE(fleet::verify_aggregate(agg, members, nonce, 4, opts).valid);
  EXPECT_FALSE(
      fleet::verify_aggregate(agg, {"sw0", "sw1"}, nonce, 3, opts).valid);
  EXPECT_FALSE(fleet::verify_aggregate(agg, {"sw0", "sw1", "swX"}, nonce, 3,
                                       opts)
                   .valid);
}

TEST(FleetAggregate, RequireEvidenceRejectsBarePassEntries) {
  crypto::KeyStore ks(0xF1EEB);
  ks.provision_hmac("r0");
  const crypto::Nonce nonce{d("wave")};
  const fleet::Aggregate agg = sealed_aggregate(ks, nonce);
  auto opts = bare_verify(ks);
  opts.require_evidence = true;
  const auto check =
      fleet::verify_aggregate(agg, {"sw0", "sw1", "sw2"}, nonce, 3, opts);
  EXPECT_FALSE(check.valid);
  ASSERT_EQ(check.blamed.size(), 1u);
  EXPECT_EQ(check.blamed[0], "sw1") << "the evidence-free pass entry";
}

// Evidence bound to the *current* wave's derived nonce passes; evidence
// replayed from an older wave fails deterministically on every
// aggregate — no audit lottery involved.
TEST(FleetAggregate, DerivedNonceBindingCatchesReplayedEvidence) {
  crypto::KeyStore ks(0xF1EEC);
  ks.provision_hmac("r0");
  const crypto::Nonce fresh{d("wave-now")};
  const crypto::Nonce stale{d("wave-past")};

  const auto evidence_bound_to = [](const crypto::Nonce& wave) {
    using copland::Evidence;
    return Evidence::seq(
        Evidence::nonce_ev(fleet::derive_member_nonce(wave, "sw0", 1)),
        Evidence::measurement("attest", "sw0", "program", d("prog"), ""));
  };

  const auto build = [&](const copland::EvidencePtr& ev) {
    fleet::EvidenceAggregator agg("g0", "r0", {"sw0"});
    agg.begin_wave(5, fresh);
    AggregateEntry e = entry_of("sw0", EntryOutcome::kPass, true,
                                reference::measurement_root_of(ev));
    e.evidence = copland::encode(ev);
    e.evidence_digest = copland::digest(ev);
    agg.record(std::move(e));
    return agg.seal(*ks.signer_for("r0"));
  };

  auto opts = bare_verify(ks);
  opts.require_evidence = true;
  const auto good = fleet::verify_aggregate(build(evidence_bound_to(fresh)),
                                            {"sw0"}, fresh, 5, opts);
  EXPECT_TRUE(good.valid) << good.reason;
  const auto replay = fleet::verify_aggregate(build(evidence_bound_to(stale)),
                                              {"sw0"}, fresh, 5, opts);
  EXPECT_FALSE(replay.valid);
  EXPECT_NE(replay.reason.find("stale"), std::string::npos);
  ASSERT_EQ(replay.blamed.size(), 1u);
  EXPECT_EQ(replay.blamed[0], "sw0");
}

TEST(FleetAggregate, SeededAuditCatchesVerdictLies) {
  crypto::KeyStore ks(0xF1EED);
  ks.provision_hmac("r0");
  const crypto::Nonce nonce{d("wave")};
  using copland::Evidence;
  // Unsigned evidence with a wrong measurement: any honest appraisal
  // says false, but the entry claims a pass.
  const auto ev = Evidence::seq(
      Evidence::nonce_ev(fleet::derive_member_nonce(nonce, "sw0", 1)),
      Evidence::measurement("attest", "sw0", "program", d("rogue"), ""));
  fleet::EvidenceAggregator agg("g0", "r0", {"sw0"});
  agg.begin_wave(9, nonce);
  AggregateEntry e = entry_of("sw0", EntryOutcome::kPass, true,
                              reference::measurement_root_of(ev));
  e.evidence = copland::encode(ev);
  e.evidence_digest = copland::digest(ev);
  agg.record(std::move(e));
  const fleet::Aggregate sealed = agg.seal(*ks.signer_for("r0"));

  ra::Appraiser root("root-appraiser", ks);
  root.set_golden("sw0", "program", d("golden-prog"));
  fleet::VerifyOptions opts;
  opts.keys = &ks;
  opts.root_appraiser = &root;
  opts.audit_entries = 1;
  const auto check = fleet::verify_aggregate(sealed, {"sw0"}, nonce, 9, opts);
  EXPECT_FALSE(check.valid);
  EXPECT_NE(check.reason.find("audit"), std::string::npos);
  EXPECT_EQ(check.audited, 1u);
  ASSERT_FALSE(check.blamed.empty());
  EXPECT_EQ(check.blamed.back(), "sw0");
}

// --------------------------------------------- composition determinism --

TEST(FleetComposition, CanonicalParFoldIsPermutationInvariant) {
  std::vector<copland::EvidencePtr> items;
  for (int i = 0; i < 7; ++i) {
    items.push_back(
        copland::Evidence::hashed("sw" + std::to_string(i),
                                  d("leaf" + std::to_string(i))));
  }
  const crypto::Bytes canonical =
      copland::encode(copland::fold_par_canonical(items));
  std::vector<copland::EvidencePtr> shuffled = items;
  std::reverse(shuffled.begin(), shuffled.end());
  EXPECT_EQ(copland::encode(copland::fold_par_canonical(shuffled)), canonical);
  std::rotate(shuffled.begin(), shuffled.begin() + 3, shuffled.end());
  EXPECT_EQ(copland::encode(copland::fold_par_canonical(shuffled)), canonical);
  // Singleton and empty folds stay well-defined.
  EXPECT_EQ(copland::encode(copland::fold_par_canonical({items[0]})),
            copland::encode(items[0]));
  EXPECT_EQ(copland::fold_par_canonical({})->kind,
            copland::Evidence::empty()->kind);
}

TEST(FleetComposition, RecordOrderDoesNotChangeTheAggregate) {
  crypto::KeyStore ks(0xF1EEE);
  ks.provision_hmac("r0");
  const crypto::Nonce nonce{d("wave")};
  std::vector<AggregateEntry> entries;
  for (int i = 0; i < 6; ++i) {
    entries.push_back(entry_of("sw" + std::to_string(i),
                               i % 2 ? EntryOutcome::kPass : EntryOutcome::kFail,
                               i % 2, d("m" + std::to_string(i))));
  }
  const auto build = [&](const std::vector<AggregateEntry>& order) {
    fleet::EvidenceAggregator agg("g0", "r0", names("sw", 6));
    agg.begin_wave(1, nonce);
    for (const auto& e : order) agg.record(e);
    return agg.seal(*ks.signer_for("r0"));
  };
  std::vector<AggregateEntry> permuted = entries;
  std::reverse(permuted.begin(), permuted.end());
  std::rotate(permuted.begin(), permuted.begin() + 2, permuted.end());
  const fleet::Aggregate a = build(entries);
  const fleet::Aggregate b = build(permuted);
  EXPECT_EQ(a.serialize(), b.serialize())
      << "canonical aggregate must be byte-identical across record orders";
  EXPECT_EQ(copland::encode(fleet::to_evidence(a)),
            copland::encode(fleet::to_evidence(b)));
}

// ----------------------------------------------------------- wave flow --

TEST(FleetWave, TokenBucketAccruesDeterministically) {
  fleet::TokenBucket bucket(1000.0, 2.0);  // 1 token per ms, burst 2
  EXPECT_TRUE(bucket.try_take(0));
  EXPECT_TRUE(bucket.try_take(0));
  EXPECT_FALSE(bucket.try_take(0)) << "burst exhausted";
  const netsim::SimTime ready = bucket.next_ready(0);
  EXPECT_GT(ready, 0);
  EXPECT_LE(ready, netsim::kMillisecond + 1);
  EXPECT_FALSE(bucket.try_take(ready / 2));
  EXPECT_TRUE(bucket.try_take(ready));
  EXPECT_TRUE(bucket.try_take(10 * netsim::kSecond)) << "refill caps at burst";
  EXPECT_TRUE(bucket.try_take(10 * netsim::kSecond));
  EXPECT_FALSE(bucket.try_take(10 * netsim::kSecond));
}

struct SessionRig {
  netsim::EventQueue events;
  std::vector<std::string> started;
  std::size_t finished_calls = 0;

  fleet::RegionSession make(std::size_t members, std::size_t window,
                            fleet::TokenBucket* bucket = nullptr) {
    return fleet::RegionSession(
        names("sw", members), {window, bucket}, [this] { return events.now(); },
        [this](netsim::SimTime delay, std::function<void()> fn) {
          events.schedule_in(delay, std::move(fn));
        },
        [this](const std::string& m) { started.push_back(m); },
        [this] { ++finished_calls; });
  }
};

TEST(FleetWave, RegionSessionBoundsConcurrencyAtTheWindow) {
  SessionRig rig;
  auto session = rig.make(10, 3);
  session.run();
  EXPECT_EQ(rig.started.size(), 3u) << "window admits exactly 3 rounds";
  EXPECT_EQ(session.inflight(), 3u);
  while (session.completed() < 10) {
    ASSERT_FALSE(rig.started.empty());
    session.complete(rig.started[session.completed()]);
    EXPECT_LE(session.peak_inflight(), 3u);
  }
  EXPECT_TRUE(session.finished());
  EXPECT_EQ(rig.finished_calls, 1u);
  EXPECT_EQ(rig.started.size(), 10u);
  session.complete("sw0");
  EXPECT_EQ(rig.finished_calls, 1u) << "late completion after finish: no-op";
}

TEST(FleetWave, RegionSessionPacesThroughTheTokenBucket) {
  SessionRig rig;
  fleet::TokenBucket bucket(1000.0, 1.0);  // one round per millisecond
  auto session = rig.make(4, 8, &bucket);
  session.run();
  EXPECT_EQ(rig.started.size(), 1u) << "only one token at t=0";
  // Completions return instantly; admission is token-limited, so the
  // remaining rounds start on bucket timers as the queue advances.
  std::size_t completed = 0;
  while (!session.finished() && rig.events.now() < netsim::kSecond) {
    while (completed < rig.started.size()) {
      session.complete(rig.started[completed++]);
    }
    if (!rig.events.step()) break;
  }
  while (completed < rig.started.size()) {
    session.complete(rig.started[completed++]);
  }
  EXPECT_TRUE(session.finished());
  EXPECT_EQ(rig.started.size(), 4u);
  EXPECT_GE(rig.events.now(), 2 * netsim::kMillisecond)
      << "4 rounds at 1/ms cannot finish before ~3ms of accrual";
}

TEST(FleetWave, AbandonedSessionStopsAdmitting) {
  SessionRig rig;
  auto session = rig.make(6, 2);
  session.run();
  ASSERT_EQ(rig.started.size(), 2u);
  session.abandon();
  session.complete(rig.started[0]);
  EXPECT_EQ(rig.started.size(), 2u) << "no new rounds after abandon";
  EXPECT_FALSE(session.finished());
  EXPECT_EQ(rig.finished_calls, 0u);
}

TEST(FleetWave, SchedulerStaggersRegionsAndHonorsRetirement) {
  netsim::EventQueue events;
  fleet::WaveConfig cfg;
  cfg.interval = 10 * netsim::kMillisecond;
  fleet::WaveScheduler sched(events, cfg, 77);
  for (int i = 0; i < 8; ++i) sched.add_region("g" + std::to_string(i));
  std::map<std::string, std::vector<netsim::SimTime>> fires;
  sched.start([&](const std::string& region, std::uint64_t wave) {
    EXPECT_EQ(wave, fires[region].size() + 1) << "waves number consecutively";
    fires[region].push_back(events.now());
  });
  events.run(35 * netsim::kMillisecond);
  ASSERT_EQ(fires.size(), 8u);
  std::set<netsim::SimTime> first_fires;
  for (const auto& [region, times] : fires) {
    ASSERT_GE(times.size(), 2u);
    first_fires.insert(times.front());
  }
  EXPECT_GE(first_fires.size(), 6u)
      << "staggered starts must not synchronize the fleet into one burst";

  const std::uint64_t g0_waves = sched.waves_of("g0");
  sched.remove_region("g0");
  sched.trigger_now("g0");
  EXPECT_EQ(sched.waves_of("g0"), g0_waves) << "retired region stays quiet";
  sched.trigger_now("g1");
  EXPECT_EQ(fires["g1"].back(), events.now()) << "manual wave fires inline";
  events.run(60 * netsim::kMillisecond);
  EXPECT_EQ(sched.waves_of("g0"), g0_waves);
  EXPECT_GT(sched.waves_of("g1"), 2u);
  sched.stop();
}

// ------------------------------------------------ incremental composition --

TEST(FleetMerkleIncremental, UnchangedWavesRehashNothingChangedWavesDelta) {
  crypto::KeyStore ks(0xF1EEF);
  ks.provision_hmac("r0");
  const std::size_t n = 64;
  fleet::EvidenceAggregator agg("g0", "r0", names("sw", n));
  const auto run_wave = [&](std::uint64_t wave, std::size_t flipped) {
    agg.begin_wave(wave, crypto::Nonce{d("w" + std::to_string(wave))});
    for (std::size_t i = 0; i < n; ++i) {
      const bool flip = i < flipped;
      agg.record(entry_of("sw" + std::to_string(i),
                          flip ? EntryOutcome::kFail : EntryOutcome::kPass,
                          !flip, d("m" + std::to_string(i))));
    }
    return agg.seal(*ks.signer_for("r0"));
  };

  const fleet::Aggregate w1 = run_wave(1, 0);
  const std::uint64_t after_w1 = agg.tree_stats().nodes_rehashed;
  const fleet::Aggregate w2 = run_wave(2, 0);
  EXPECT_EQ(agg.tree_stats().nodes_rehashed, after_w1)
      << "identical state across waves must rehash zero nodes";
  EXPECT_EQ(w2.merkle_root, w1.merkle_root);
  EXPECT_NE(w2.signing_payload(), w1.signing_payload())
      << "wave + nonce still bind the signature to THIS wave";

  const fleet::Aggregate w3 = run_wave(3, 1);
  const std::uint64_t delta = agg.tree_stats().nodes_rehashed - after_w1;
  EXPECT_GT(delta, 0u);
  EXPECT_LE(delta, 16u) << "one flipped member rehashes O(log n), not O(n)";
  EXPECT_NE(w3.merkle_root, w1.merkle_root);
  EXPECT_EQ(agg.tree_stats().full_rebuilds, 1u)
      << "only the initial build walks the whole tree";
}

// ----------------------------------------------------------- end to end --

fleet::FleetConfig fast_fleet_config(std::size_t fanout = 8) {
  fleet::FleetConfig cfg;
  cfg.fanout = fanout;
  cfg.wave.interval = 20 * netsim::kMillisecond;
  cfg.wave_timeout = 15 * netsim::kMillisecond;
  cfg.transport.timeout = 4 * netsim::kMillisecond;
  cfg.root_transport.timeout = 4 * netsim::kMillisecond;
  cfg.trust.quarantine_after = 3;
  cfg.trust.reinstate_after = 2;
  cfg.admit_rate = 200'000.0;
  cfg.admit_burst = static_cast<double>(fanout);
  return cfg;
}

struct FleetRig {
  core::Deployment dep;
  fleet::FleetController controller;

  FleetRig(std::size_t n, std::size_t fanout, std::uint64_t seed,
           fleet::FleetConfig cfg)
      : dep(netsim::topo::fleet(n, fanout), seeded(seed)),
        controller(dep, "root",
                   fleet::DelegationTree::build(
                       fleet::fleet_switch_names(n),
                       fleet::fleet_regional_names(n, fanout), {fanout}),
                   cfg, seed) {
    dep.provision_goldens();
  }
};

TEST(FleetEndToEnd, HealthyFleetStaysTrustedWithBoundedLoad) {
  FleetRig rig(24, 8, 0xFEE7, fast_fleet_config());
  rig.controller.start();
  rig.dep.network().run(300 * netsim::kMillisecond);
  rig.controller.stop();
  rig.dep.network().run();

  const fleet::FleetStats& st = rig.controller.stats();
  EXPECT_GT(st.waves_launched, 8u);
  EXPECT_GT(st.aggregates_valid, 8u);
  EXPECT_EQ(st.aggregates_invalid, 0u);
  EXPECT_EQ(st.aggregates_timeout, 0u);
  EXPECT_GT(st.entries_applied, 24u);
  EXPECT_EQ(st.region_splits, 0u);
  EXPECT_EQ(st.domains_rehomed, 0u);
  EXPECT_TRUE(rig.controller.timeline().empty())
      << "healthy fleet: no trust transitions at all";
  for (const auto& m : rig.controller.tree().all_members()) {
    EXPECT_EQ(rig.controller.trust(m).state(), TrustState::kTrusted);
    EXPECT_TRUE(rig.controller.last_verdicts().at(m));
  }
  for (const auto& r : rig.controller.tree().appraisers()) {
    EXPECT_EQ(rig.controller.trust(r).state(), TrustState::kTrusted);
    EXPECT_EQ(rig.controller.delegation_trust(r).state(),
              TrustState::kTrusted);
    EXPECT_LE(rig.controller.regional(r).peak_inflight(), 8u)
        << "regional member window is the fanout bound";
  }
  EXPECT_LE(rig.controller.peak_root_inflight(), 8u)
      << "root admission gate is the fanout bound";
}

TEST(FleetEndToEnd, SwappedMemberIsQuarantinedAndMatchesFlatAppraisal) {
  FleetRig rig(24, 8, 0xFEE8, fast_fleet_config());
  auto& net = rig.dep.network();
  net.events().schedule_at(50 * netsim::kMillisecond, [&] {
    adversary::program_swap_attack(rig.dep, "sw5");
  });
  rig.controller.start();
  net.run(500 * netsim::kMillisecond);
  rig.controller.stop();
  net.run();

  const auto q = rig.controller.first_transition("sw5",
                                                 TrustState::kQuarantined);
  ASSERT_TRUE(q.has_value());
  EXPECT_GE(*q, 50 * netsim::kMillisecond);
  EXPECT_LE(*q, 200 * netsim::kMillisecond)
      << "3 consecutive failing waves at 20ms cadence must land fast";
  const auto s = rig.controller.first_transition("sw5", TrustState::kSuspect);
  ASSERT_TRUE(s.has_value());
  EXPECT_LT(*s, *q);
  for (const auto& e : rig.controller.timeline()) EXPECT_EQ(e.place, "sw5");
  EXPECT_TRUE(rig.controller.quarantine().is_quarantined("sw5"));

  // Parity: the hierarchy's recovered verdicts must agree bit-for-bit
  // with flat per-switch appraisal by the root against its own goldens.
  ra::Appraiser& root = rig.dep.appraiser().appraiser();
  for (const auto& m : rig.controller.tree().all_members()) {
    const crypto::Nonce nonce{d("flat-" + m)};
    const auto ev = rig.dep.switch_node(m).pera().attest_challenge(
        fast_fleet_config().detail, nonce, /*hash_before_sign=*/false);
    const bool flat =
        root.appraise(ev, nonce, /*certify=*/false,
                      static_cast<std::int64_t>(net.now()),
                      /*enforce_freshness=*/false)
            .ok;
    ASSERT_TRUE(rig.controller.last_verdicts().contains(m)) << m;
    EXPECT_EQ(rig.controller.last_verdicts().at(m), flat) << m;
    EXPECT_EQ(flat, m != "sw5");
  }
  EXPECT_GT(rig.controller.stats().aggregates_valid, 0u);
  EXPECT_EQ(rig.controller.stats().aggregates_invalid, 0u)
      << "an honest regional reporting a bad member is a VALID aggregate";
}

// A regional appraises with a copy of the root's required measurements.
// The root requires Tables from sw5 and the waves attest only Hardware and
// Program. A requirement binds every record (it names a place, not the
// record's sender), so every member fails at its regional, exactly as the
// root's own appraiser judges the same evidence; without the copy every
// regional verdict would be a pass (HealthyFleetStaysTrustedWithBoundedLoad).
TEST(FleetEndToEnd, RegionalEnforcesTheRootsRequiredMeasurements) {
  fleet::FleetConfig cfg = fast_fleet_config();
  cfg.detail = nac::EvidenceDetail::kHardware | nac::EvidenceDetail::kProgram;
  FleetRig rig(16, 8, 0xFEEA, cfg);
  ra::Appraiser& root = rig.dep.appraiser().appraiser();
  root.require("sw5", "Tables");
  rig.controller.start();
  rig.dep.network().run(100 * netsim::kMillisecond);
  rig.controller.stop();
  rig.dep.network().run();

  for (const auto& m : rig.controller.tree().all_members()) {
    const crypto::Nonce nonce{d("flat-" + m)};
    const auto ev = rig.dep.switch_node(m).pera().attest_challenge(
        cfg.detail, nonce, /*hash_before_sign=*/false);
    const ra::AttestationResult flat =
        root.appraise(ev, nonce, /*certify=*/false, /*now=*/0,
                      /*enforce_freshness=*/false);
    EXPECT_FALSE(flat.ok) << m;
    ASSERT_FALSE(flat.detail.findings.empty()) << m;
    EXPECT_EQ(flat.detail.findings[0].place, "sw5");
    EXPECT_EQ(flat.detail.findings[0].detail,
              "policy: missing required measurement of Tables");
    ASSERT_TRUE(rig.controller.last_verdicts().contains(m)) << m;
    EXPECT_FALSE(rig.controller.last_verdicts().at(m)) << m;
  }
  EXPECT_EQ(rig.controller.stats().aggregates_invalid, 0u);
}

TEST(FleetEndToEnd, TimelineIsDeterministicPerSeed) {
  const auto run_scenario = [](std::uint64_t seed) {
    fleet::FleetConfig cfg = fast_fleet_config();
    FleetRig rig(16, 8, seed, cfg);
    rig.dep.network().set_loss(0.02, seed + 3);
    auto& net = rig.dep.network();
    net.events().schedule_at(40 * netsim::kMillisecond, [&] {
      adversary::program_swap_attack(rig.dep, "sw3");
    });
    rig.controller.start();
    net.run(400 * netsim::kMillisecond);
    rig.controller.stop();
    net.run();
    std::vector<std::tuple<std::string, int, int, netsim::SimTime>> out;
    for (const auto& e : rig.controller.timeline()) {
      out.emplace_back(e.place, static_cast<int>(e.transition.from),
                       static_cast<int>(e.transition.to), e.transition.at);
    }
    return out;
  };
  const auto a = run_scenario(4321);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, run_scenario(4321));
}

// A regional that forges passing entries (replaying stale evidence) is
// caught by the root's derived-nonce check, loses delegation trust, and
// its domains fail over to a sibling that re-attests them honestly.
TEST(FleetFailover, ForgingRegionalIsQuarantinedAndDomainsRehome) {
  fleet::FleetConfig cfg = fast_fleet_config();
  cfg.split_after_failures = 1000;  // isolate the failover path
  FleetRig rig(24, 8, 0xFEE9, cfg);
  auto& net = rig.dep.network();
  net.events().schedule_at(70 * netsim::kMillisecond, [&] {
    rig.controller.regional("r0").forge_member("sw1", true);
  });
  rig.controller.start();
  net.run(800 * netsim::kMillisecond);
  rig.controller.stop();
  net.run();

  const fleet::FleetStats& st = rig.controller.stats();
  EXPECT_GT(st.aggregates_invalid, 0u);
  EXPECT_GT(rig.controller.regional("r0").forged_entries(), 0u);
  EXPECT_EQ(rig.controller.delegation_trust("r0").state(),
            TrustState::kQuarantined);
  EXPECT_GE(st.domains_rehomed, 1u);
  EXPECT_GT(st.probe_rounds, 0u) << "invalid aggregates trigger direct probes";
  for (const fleet::Region* r : rig.controller.tree().regions()) {
    EXPECT_NE(r->appraiser, "r0") << "no domain left on the liar";
  }
  // The forged-about member was honest all along: after the bulk wave
  // through the new home it climbs back out of quarantine.
  const auto sw1 = rig.controller.trust("sw1").state();
  EXPECT_TRUE(sw1 == TrustState::kTrusted || sw1 == TrustState::kReinstated)
      << "state " << static_cast<int>(sw1);
  for (const auto& m : rig.controller.tree().all_members()) {
    const auto state = rig.controller.trust(m).state();
    EXPECT_TRUE(state == TrustState::kTrusted ||
                state == TrustState::kReinstated)
        << m << " stuck in state " << static_cast<int>(state);
  }
  EXPECT_EQ(rig.controller.trust("r0").state(), TrustState::kTrusted)
      << "device trust is separate: the forger's switch stack was honest";
}

TEST(FleetFailover, ChronicallyInvalidRegionSplitsInHalf) {
  fleet::FleetConfig cfg = fast_fleet_config();
  cfg.split_after_failures = 2;
  cfg.min_split_size = 2;
  // Never quarantine the regional in this test: splits are the blast-
  // radius tool for a region that keeps failing while its appraiser
  // stays below the quarantine threshold.
  cfg.trust.quarantine_after = 1000;
  FleetRig rig(8, 8, 0xFEEA, cfg);
  auto& net = rig.dep.network();
  net.events().schedule_at(30 * netsim::kMillisecond, [&] {
    rig.controller.regional("r0").forge_member("sw0", true);
  });
  rig.controller.start();
  net.run(400 * netsim::kMillisecond);
  rig.controller.stop();
  net.run();

  EXPECT_GE(rig.controller.stats().region_splits, 1u);
  EXPECT_GE(rig.controller.tree().region_count(), 2u);
  std::size_t members = 0;
  for (const fleet::Region* r : rig.controller.tree().regions()) {
    members += r->members.size();
  }
  EXPECT_EQ(members, 8u) << "splits must not lose members";
}

// ------------------------------------------------- netsim route cache --

TEST(FleetRouteCache, RepeatRoutesHitAndTopologyChangesInvalidate) {
  core::Deployment dep(netsim::topo::fleet(8, 4), seeded(0xCACE));
  dep.provision_goldens();
  auto& net = dep.network();
  const auto send_one = [&] {
    netsim::Message pkt;
    pkt.src = net.topology().require("root");
    pkt.dst = net.topology().require("sw7");
    // Control-type traffic: routed (and route-cached) like any message
    // but not parsed as a flow bundle by the switch dataplane.
    pkt.type = "probe";
    pkt.payload = {1, 2, 3};
    net.send(std::move(pkt));
    net.run();
  };
  send_one();
  const std::uint64_t cold = net.route_cache_hits();
  send_one();
  send_one();
  EXPECT_GT(net.route_cache_hits(), cold)
      << "repeated root->sw7 sends must reuse cached next-hops";
  // A topology change bumps the generation; the stale cache must not
  // serve the old route (delivery still works, hits restart from cold).
  net.topology().add_node("late-host", netsim::NodeKind::kHost);
  net.topology().add_link("late-host", "r0", 10 * netsim::kMicrosecond);
  const std::uint64_t before = net.route_cache_hits();
  send_one();  // cache rebuilt on this pass
  send_one();
  EXPECT_GT(net.route_cache_hits(), before);
  EXPECT_GT(net.stats().messages_delivered, 0u);
}

// ------------------------------------------------------- socket parity --

// Drives one wave of the shared RegionSession + EvidenceAggregator
// machinery over an arbitrary EvidenceTransport; the caller supplies the
// clock, the timer hook and the "make progress" pump.
fleet::Aggregate run_parity_wave(
    ctrl::EvidenceTransport& transport, crypto::Signer& signer,
    const std::vector<std::string>& members, const crypto::Nonce& wave_nonce,
    const std::function<netsim::SimTime()>& now,
    const fleet::RegionSession::ScheduleIn& schedule_in,
    const std::function<void(std::function<void()>)>& post,
    const std::function<void(const std::atomic<bool>& done)>& drive) {
  fleet::EvidenceAggregator agg("g0", "regional", members);
  agg.begin_wave(1, wave_nonce);
  std::atomic<bool> done{false};
  fleet::RegionSession* session_ptr = nullptr;
  fleet::RegionSession session(
      members, {2, nullptr}, now, schedule_in,
      [&](const std::string& member) {
        transport.begin_round(
            member, nac::mask_of(nac::EvidenceDetail::kProgram),
            [&](const std::string& p, const ctrl::RoundOutcome& out) {
              AggregateEntry e;
              e.place = p;
              e.attempts = static_cast<std::uint32_t>(out.attempts);
              e.outcome = !out.completed ? EntryOutcome::kTimeout
                          : out.verdict  ? EntryOutcome::kPass
                                         : EntryOutcome::kFail;
              e.verdict = out.completed && out.verdict;
              agg.record(std::move(e));
              session_ptr->complete(p);
            });
      },
      [&done] { done.store(true, std::memory_order_release); });
  session_ptr = &session;
  // Everything that touches the transport runs wherever the transport's
  // timers and results run (the sim loop / the backend loop thread).
  post([&session, &transport, wave_nonce] {
    transport.set_nonce_source(
        [wave_nonce](const std::string& place, std::size_t attempt) {
          return fleet::derive_member_nonce(wave_nonce, place, attempt);
        });
    session.run();
  });
  drive(done);
  EXPECT_TRUE(done.load(std::memory_order_acquire));
  EXPECT_LE(session.peak_inflight(), 2u);
  return agg.seal(signer);
}

// The identical RegionSession + EvidenceAggregator machinery drives one
// wave over netsim and over real sockets (PR 9 SocketBackend): the two
// sealed aggregates must verify and agree entry for entry.
TEST(FleetSocketParity, WaveOverSocketBackendMatchesNetsim) {
  const std::vector<std::string> members = {"sw0", "sw1", "sw2"};
  const crypto::Nonce wave_nonce{d("parity-wave")};
  crypto::KeyStore agg_keys(0xBA11AD);
  crypto::Signer& signer = agg_keys.provision_hmac("regional");

  // --- netsim side ---------------------------------------------------
  core::Deployment dep(netsim::topo::fleet(3, 3), seeded(0xBA11));
  dep.provision_goldens();
  auto& net = dep.network();
  ctrl::TransportConfig sim_cfg;
  sim_cfg.timeout = 10 * netsim::kMillisecond;
  ctrl::EvidenceTransport sim_transport(
      net, net.topology().require("root"), dep.appraiser_name(), dep.keys(),
      sim_cfg, 0xBA12);
  struct Tap final : netsim::NodeBehavior {
    ctrl::EvidenceTransport* transport = nullptr;
    void on_deliver(netsim::Network& n, netsim::NodeId,
                    netsim::Message msg) override {
      if (msg.type != "result") return;
      (void)transport->on_result(
          ra::Certificate::deserialize(
              crypto::BytesView{msg.payload.data(), msg.payload.size()}),
          n.now());
    }
  } tap;
  tap.transport = &sim_transport;
  net.attach("root", &tap);
  const fleet::Aggregate sim_agg = run_parity_wave(
      sim_transport, signer, members, wave_nonce, [&] { return net.now(); },
      [&](netsim::SimTime delay, std::function<void()> fn) {
        net.events().schedule_in(delay, std::move(fn));
      },
      [](std::function<void()> fn) { fn(); },
      [&](const std::atomic<bool>&) { net.run(); });

  // --- socket side ---------------------------------------------------
  const crypto::Digest quote_root = d("parity-quote-root");
  const crypto::Digest golden = d("parity-golden");
  const crypto::Digest evidence_root = d("parity-evidence-root");
  const crypto::Digest cert_key = d("parity-cert-key");
  net::ServerConfig sc;
  sc.quote_root_key = quote_root;
  sc.golden_measurement = golden;
  sc.evidence_root_key = evidence_root;
  sc.cert_key = cert_key;
  sc.appraiser_measurement = d("parity-appraiser");
  net::AppraiserServer server(sc);
  server.start();

  const auto device_keys = pipeline::PeraPipeline::shard_keys(
      evidence_root, "pera.net.device", 16);
  std::vector<std::unique_ptr<net::SwitchClient>> switches;
  std::vector<std::thread> serve_threads;
  std::atomic<bool> stop_serving{false};
  for (std::size_t i = 0; i < members.size(); ++i) {
    net::ClientIdentity id;
    id.place = members[i];
    id.quote_root_key = quote_root;
    id.measurement = golden;
    id.device_key = device_keys[0];
    id.cert_key = cert_key;
    id.appraiser_golden = sc.appraiser_measurement;
    id.nonce_seed = 0xBA20 + i;
    switches.push_back(std::make_unique<net::SwitchClient>(id));
    ASSERT_TRUE(switches.back()->connect(server.port(), 2000))
        << switches.back()->error_text();
    net::SwitchClient* sw = switches.back().get();
    serve_threads.emplace_back([sw, &stop_serving] {
      (void)sw->serve(20'000, &stop_serving);
    });
  }

  net::SocketBackend::Config bc;
  bc.port = server.port();
  net::SocketBackend backend(bc);
  crypto::KeyStore rp_keys(0xBA21);
  rp_keys.provision_hmac_key("appraiser", cert_key);
  ctrl::TransportConfig tc;
  tc.timeout = 2'000 * netsim::kMillisecond;
  tc.max_attempts = 2;
  ctrl::EvidenceTransport sock_transport(backend, "appraiser", rp_keys, tc,
                                         0xBA22);
  backend.set_result_sink([&](const ra::Certificate& cert) {
    (void)sock_transport.on_result(cert, backend.now());
  });
  ASSERT_TRUE(backend.connect()) << backend.error_text();
  const fleet::Aggregate sock_agg = run_parity_wave(
      sock_transport, signer, members, wave_nonce,
      [&] { return backend.now(); },
      [&](netsim::SimTime delay, std::function<void()> fn) {
        backend.schedule_in(delay, std::move(fn));
      },
      [&](std::function<void()> fn) { backend.post(std::move(fn)); },
      // Progress happens on the backend's loop thread; the main thread
      // just waits for the finished flag.
      [](const std::atomic<bool>& done) {
        for (int i = 0;
             i < 1000 && !done.load(std::memory_order_acquire); ++i) {
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
      });
  stop_serving.store(true, std::memory_order_release);
  for (auto& t : serve_threads) t.join();
  backend.stop();
  for (auto& sw : switches) sw->close();
  server.stop();

  // --- parity --------------------------------------------------------
  ASSERT_EQ(sim_agg.entries.size(), sock_agg.entries.size());
  for (std::size_t i = 0; i < sim_agg.entries.size(); ++i) {
    EXPECT_EQ(sim_agg.entries[i].place, sock_agg.entries[i].place);
    EXPECT_EQ(sim_agg.entries[i].outcome, sock_agg.entries[i].outcome);
    EXPECT_EQ(sim_agg.entries[i].verdict, sock_agg.entries[i].verdict);
    EXPECT_EQ(sim_agg.entries[i].outcome, EntryOutcome::kPass);
  }
  fleet::VerifyOptions opts;
  opts.keys = &agg_keys;
  for (const fleet::Aggregate* agg : {&sim_agg, &sock_agg}) {
    const auto check =
        fleet::verify_aggregate(*agg, members, wave_nonce, 1, opts);
    EXPECT_TRUE(check.valid) << check.reason;
    for (const auto& m : members) {
      EXPECT_TRUE(check.per_switch.at(m).verdict) << m;
    }
  }
  EXPECT_EQ(sim_agg.merkle_root, sock_agg.merkle_root)
      << "identical per-member state must compose to the same tree root";
}

}  // namespace
