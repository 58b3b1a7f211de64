// Tests for PERA: the measurement unit's inertia levels and epochs, the
// inertia-aware evidence cache, the evidence engine (Fig. 3 D/E), and the
// PERA switch's per-packet policy execution.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <string>

#include "crypto/keystore.h"
#include "nac/compiler.h"
#include "pera/pera_switch.h"

namespace pera::pera {
namespace {

using dataplane::make_router;
using dataplane::make_tcp_packet;
using dataplane::PacketSpec;

struct Bed {
  Bed() : keys(21), signer(&keys.provision_hmac("sw1")) {}

  [[nodiscard]] PeraSwitch make_switch(PeraConfig cfg = {}) {
    return PeraSwitch("sw1", make_router(), *signer, cfg);
  }

  crypto::KeyStore keys;
  crypto::Signer* signer;
};

nac::HopInstruction program_inst(bool sign = true) {
  nac::HopInstruction inst;
  inst.detail = nac::mask_of(nac::EvidenceDetail::kProgram);
  inst.sign_evidence = sign;
  return inst;
}

// --- measurement unit ----------------------------------------------------------

TEST(MeasurementUnit, LevelsProduceDistinctDigests) {
  Bed bed;
  PeraSwitch sw = bed.make_switch();
  const MeasurementUnit& mu = sw.measurement();
  const crypto::Bytes pkt = make_tcp_packet({}).data;
  std::set<crypto::Digest> values;
  values.insert(mu.measure(nac::EvidenceDetail::kHardware));
  values.insert(mu.measure(nac::EvidenceDetail::kProgram));
  values.insert(mu.measure(nac::EvidenceDetail::kTables));
  values.insert(mu.measure(nac::EvidenceDetail::kProgState));
  values.insert(mu.measure(nac::EvidenceDetail::kPacket, &pkt));
  EXPECT_EQ(values.size(), 5u);
}

TEST(MeasurementUnit, PacketLevelNeedsBytes) {
  Bed bed;
  PeraSwitch sw = bed.make_switch();
  EXPECT_THROW((void)sw.measurement().measure(nac::EvidenceDetail::kPacket),
               std::invalid_argument);
}

TEST(MeasurementUnit, ProgramMeasurementMatchesDigest) {
  Bed bed;
  PeraSwitch sw = bed.make_switch();
  EXPECT_EQ(sw.measurement().measure(nac::EvidenceDetail::kProgram),
            sw.dataplane().program().program_digest());
}

TEST(MeasurementUnit, EpochsAdvanceWithState) {
  Bed bed;
  PeraSwitch sw = bed.make_switch();
  MeasurementUnit& mu = sw.measurement();
  EXPECT_EQ(mu.epoch(nac::EvidenceDetail::kHardware), 0u);
  const auto prog0 = mu.epoch(nac::EvidenceDetail::kProgram);
  sw.load_program(make_router("v2"));
  EXPECT_GT(mu.epoch(nac::EvidenceDetail::kProgram), prog0);

  const auto tab0 = mu.epoch(nac::EvidenceDetail::kTables);
  dataplane::TableEntry e;
  e.keys = {dataplane::KeyMatch::lpm(0xC0A80000, 16)};
  e.action = "forward";
  e.action_params = {2};
  sw.update_table("route", e);
  EXPECT_GT(mu.epoch(nac::EvidenceDetail::kTables), tab0);

  const auto st0 = mu.epoch(nac::EvidenceDetail::kProgState);
  sw.dataplane().registers().declare("r", 2);
  sw.dataplane().registers().write("r", 0, 1);
  EXPECT_GT(mu.epoch(nac::EvidenceDetail::kProgState), st0);
}

TEST(MeasurementUnit, UpdateTheProgramCannotRunChangesNothing) {
  Bed bed;
  PeraSwitch sw = bed.make_switch();
  const auto tab0 = sw.measurement().epoch(nac::EvidenceDetail::kTables);
  const std::size_t routes = sw.dataplane().program().table("route")->entry_count();
  dataplane::TableEntry e;
  e.keys = {dataplane::KeyMatch::lpm(0x0a000000, 8)};
  e.action = "bogus";
  EXPECT_THROW(sw.update_table("route", e), std::invalid_argument);
  e.action = "forward";  // reads one parameter; binds none
  EXPECT_THROW(sw.update_table("route", e), std::invalid_argument);
  e.action_params = {1};
  EXPECT_THROW(sw.update_table("nosuch", e), std::invalid_argument);
  e.keys.push_back(dataplane::KeyMatch::exact(1));
  EXPECT_THROW(sw.update_table("route", e), std::invalid_argument);
  EXPECT_EQ(sw.dataplane().program().table("route")->entry_count(), routes);
  EXPECT_EQ(sw.measurement().epoch(nac::EvidenceDetail::kTables), tab0);
}

TEST(MeasurementUnit, SwapChangesProgramMeasurement) {
  Bed bed;
  PeraSwitch sw = bed.make_switch();
  const crypto::Digest before =
      sw.measurement().measure(nac::EvidenceDetail::kProgram);
  sw.load_program(dataplane::make_rogue_router("v1"));
  EXPECT_NE(sw.measurement().measure(nac::EvidenceDetail::kProgram), before);
}

// --- cache ----------------------------------------------------------------------

TEST(Cache, HitOnSecondLookup) {
  Bed bed;
  PeraSwitch sw = bed.make_switch();
  const crypto::Nonce n{crypto::sha256("n")};
  (void)sw.attest_challenge(nac::mask_of(nac::EvidenceDetail::kProgram), n);
  (void)sw.attest_challenge(nac::mask_of(nac::EvidenceDetail::kProgram), n);
  EXPECT_EQ(sw.cache().stats().hits, 1u);
  EXPECT_EQ(sw.cache().stats().misses, 1u);
}

TEST(Cache, FreshNonceDefeatsCache) {
  Bed bed;
  PeraSwitch sw = bed.make_switch();
  (void)sw.attest_challenge(nac::mask_of(nac::EvidenceDetail::kProgram),
                            crypto::Nonce{crypto::sha256("n1")});
  (void)sw.attest_challenge(nac::mask_of(nac::EvidenceDetail::kProgram),
                            crypto::Nonce{crypto::sha256("n2")});
  EXPECT_EQ(sw.cache().stats().hits, 0u);
}

// Up to kRecurrenceWindow repeating nonces may interleave at one switch,
// as flows with their own policy nonces do: each misses once, then hits.
TEST(Cache, InterleavedRepeatingNoncesHit) {
  for (const std::size_t flows : {std::size_t{2}, std::size_t{3},
                                  EvidenceCache::kRecurrenceWindow}) {
    Bed bed;
    PeraSwitch sw = bed.make_switch();
    std::vector<crypto::Nonce> nonces;
    for (std::size_t f = 0; f < flows; ++f) {
      nonces.push_back(
          crypto::Nonce{crypto::sha256("flow" + std::to_string(f))});
    }
    for (int round = 0; round < 4; ++round) {
      for (const crypto::Nonce& n : nonces) {
        (void)sw.attest_challenge(nac::mask_of(nac::EvidenceDetail::kProgram),
                                  n);
      }
    }
    EXPECT_EQ(sw.cache().stats().misses, flows) << flows << " flows";
    EXPECT_EQ(sw.cache().stats().hits, 3 * flows) << flows << " flows";
    EXPECT_EQ(sw.cache().size(), flows);
  }
}

// Fresh nonces never recur: past kRecurrenceWindow of them, each new entry
// drops the oldest entry never hit. An entry that was hit stays.
TEST(Cache, FreshNoncesHoldOnlyTheWindow) {
  Bed bed;
  PeraSwitch sw = bed.make_switch();
  const auto mask = nac::mask_of(nac::EvidenceDetail::kProgram);
  const auto fresh = [](std::size_t i) {
    return crypto::Nonce{crypto::sha256("fresh" + std::to_string(i))};
  };
  const std::size_t rounds = 3 * EvidenceCache::kRecurrenceWindow;
  const crypto::Nonce policy{crypto::sha256("policy")};
  (void)sw.attest_challenge(mask, policy);
  (void)sw.attest_challenge(mask, policy);
  for (std::size_t i = 0; i < rounds; ++i) {
    (void)sw.attest_challenge(mask, fresh(i));
  }
  EXPECT_EQ(sw.cache().size(), EvidenceCache::kRecurrenceWindow + 1);
  (void)sw.attest_challenge(mask, policy);
  EXPECT_EQ(sw.cache().stats().hits, 2u);
  // The oldest fresh entries are gone, the newest still hit.
  (void)sw.attest_challenge(mask, fresh(0));
  EXPECT_EQ(sw.cache().stats().hits, 2u);
  (void)sw.attest_challenge(mask, fresh(rounds - 1));
  EXPECT_EQ(sw.cache().stats().hits, 3u);
  EXPECT_EQ(sw.cache().size(), EvidenceCache::kRecurrenceWindow + 1);
}

TEST(Cache, ProgramSwapInvalidates) {
  Bed bed;
  PeraSwitch sw = bed.make_switch();
  const crypto::Nonce n{crypto::sha256("n")};
  (void)sw.attest_challenge(nac::mask_of(nac::EvidenceDetail::kProgram), n);
  sw.load_program(dataplane::make_rogue_router("v1"));
  (void)sw.attest_challenge(nac::mask_of(nac::EvidenceDetail::kProgram), n);
  EXPECT_EQ(sw.cache().stats().hits, 0u);
  EXPECT_EQ(sw.cache().stats().invalidations, 1u);
}

TEST(Cache, RegisterWriteInvalidatesStateEvidence) {
  Bed bed;
  PeraSwitch sw = bed.make_switch();
  sw.dataplane().registers().declare("r", 2);
  const crypto::Nonce n{crypto::sha256("n")};
  const auto mask = nac::mask_of(nac::EvidenceDetail::kProgState);
  (void)sw.attest_challenge(mask, n);
  sw.dataplane().registers().write("r", 0, 7);
  (void)sw.attest_challenge(mask, n);
  EXPECT_EQ(sw.cache().stats().invalidations, 1u);
}

TEST(Cache, PacketLevelNeverCached) {
  EvidenceCache cache(true);
  Bed bed;
  PeraSwitch sw = bed.make_switch();
  const auto mask = nac::EvidenceDetail::kProgram | nac::EvidenceDetail::kPacket;
  cache.store(mask, {}, copland::Evidence::empty(), sw.measurement());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.lookup(mask, {}, sw.measurement()), nullptr);
}

TEST(Cache, DisabledAlwaysMisses) {
  PeraConfig cfg;
  cfg.cache_enabled = false;
  Bed bed;
  PeraSwitch sw = bed.make_switch(cfg);
  const crypto::Nonce n{crypto::sha256("n")};
  (void)sw.attest_challenge(nac::mask_of(nac::EvidenceDetail::kProgram), n);
  (void)sw.attest_challenge(nac::mask_of(nac::EvidenceDetail::kProgram), n);
  EXPECT_EQ(sw.cache().stats().hits, 0u);
  EXPECT_EQ(sw.cache().stats().misses, 2u);
}

TEST(Cache, HitRate) {
  CacheStats s;
  EXPECT_EQ(s.hit_rate(), 0.0);
  s.hits = 3;
  s.misses = 1;
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.75);
}

// --- engine -----------------------------------------------------------------------

TEST(Engine, CreateSignsAndBindsNonce) {
  Bed bed;
  PeraSwitch sw = bed.make_switch();
  const crypto::Nonce n{crypto::sha256("fresh")};
  const copland::EvidencePtr e = sw.attest_challenge(
      nac::EvidenceDetail::kHardware | nac::EvidenceDetail::kProgram, n,
      /*hash_before_sign=*/false);
  ASSERT_EQ(e->kind, copland::EvidenceKind::kSignature);
  const auto ms = copland::measurements_of(e);
  EXPECT_EQ(ms.size(), 2u);
  bool has_nonce = false;
  std::function<void(const copland::EvidencePtr&)> scan =
      [&](const copland::EvidencePtr& node) {
        if (!node) return;
        if (node->kind == copland::EvidenceKind::kNonce &&
            node->nonce == n) {
          has_nonce = true;
        }
        scan(node->child);
        scan(node->left);
        scan(node->right);
      };
  scan(e);
  EXPECT_TRUE(has_nonce);
}

TEST(Engine, HashBeforeSignCollapses) {
  Bed bed;
  PeraSwitch sw = bed.make_switch();
  const copland::EvidencePtr e = sw.attest_challenge(
      nac::mask_of(nac::EvidenceDetail::kProgram),
      crypto::Nonce{crypto::sha256("n")}, /*hash_before_sign=*/true);
  ASSERT_EQ(e->kind, copland::EvidenceKind::kSignature);
  EXPECT_EQ(e->child->kind, copland::EvidenceKind::kHashed);
}

TEST(Engine, GuardFailureProducesNoEvidence) {
  Bed bed;
  PeraSwitch sw = bed.make_switch();
  sw.set_guard("never", [](const dataplane::ParsedPacket&) { return false; });

  nac::HopInstruction inst = program_inst();
  inst.guard = "never";
  inst.wildcard = true;
  nac::CompiledPolicy pol;
  pol.hops = {inst};
  pol.appraiser = "Appraiser";
  const nac::PolicyHeader hdr = nac::make_header(pol, {}, /*in_band=*/true);

  nac::EvidenceCarrier carrier;
  const PeraResult res =
      sw.process(make_tcp_packet({.ip_dst = 0x0a000202}), &hdr, &carrier);
  EXPECT_TRUE(res.forwarded.has_value());
  EXPECT_FALSE(res.attested);
  EXPECT_TRUE(carrier.records.empty());
  EXPECT_EQ(sw.ra_stats().guard_failures, 1u);
}

TEST(Engine, ComposeModes) {
  Bed bed;
  PeraSwitch sw = bed.make_switch();
  const copland::EvidencePtr a = copland::Evidence::hashed("x", crypto::sha256("a"));
  const copland::EvidencePtr b = copland::Evidence::hashed("y", crypto::sha256("b"));
  const EngineResult chained =
      sw.engine().compose(a, b, nac::CompositionMode::kChained);
  EXPECT_EQ(chained.evidence->kind, copland::EvidenceKind::kSeq);
  const EngineResult pointwise =
      sw.engine().compose(a, b, nac::CompositionMode::kPointwise);
  EXPECT_EQ(pointwise.evidence->kind, copland::EvidenceKind::kPar);
  const EngineResult empty_prior = sw.engine().compose(
      copland::Evidence::empty(), b, nac::CompositionMode::kChained);
  EXPECT_TRUE(copland::equal(empty_prior.evidence, b));
}

TEST(Engine, CostsAccrue) {
  Bed bed;
  PeraSwitch sw = bed.make_switch();
  nac::HopInstruction inst = program_inst();
  const EngineResult r =
      sw.engine().create(inst, crypto::Nonce{crypto::sha256("n")}, nullptr,
                         nullptr);
  EXPECT_GT(r.cost, 0);
  EXPECT_FALSE(r.from_cache);
  const EngineResult r2 =
      sw.engine().create(inst, crypto::Nonce{crypto::sha256("n")}, nullptr,
                         nullptr);
  EXPECT_TRUE(r2.from_cache);
  EXPECT_LT(r2.cost, r.cost);
}

// --- encoded evidence served from the cache ---------------------------------------

// One signed, out-of-band instruction for every switch at `detail`.
nac::PolicyHeader oob_header(nac::DetailMask detail) {
  nac::CompiledPolicy pol;
  nac::HopInstruction inst;
  inst.wildcard = true;
  inst.detail = detail;
  inst.sign_evidence = true;
  inst.out_of_band = true;
  pol.hops = {inst};
  pol.appraiser = "Appraiser";
  return nac::make_header(pol, crypto::Nonce{crypto::sha256("n")}, true);
}

// The evidence bytes the switch emits for one packet.
crypto::Bytes emitted(PeraSwitch& sw, const nac::PolicyHeader& hdr) {
  nac::EvidenceCarrier carrier;
  const PeraResult res =
      sw.process(make_tcp_packet({.ip_dst = 0x0a000202}), &hdr, &carrier);
  EXPECT_EQ(res.out_of_band.size(), 1u);
  return res.out_of_band.empty() ? crypto::Bytes{}
                                 : res.out_of_band[0].evidence;
}

TEST(CacheBytes, HitServesEncodingOfReturnedTree) {
  Bed bed;
  PeraSwitch sw = bed.make_switch();
  const nac::HopInstruction inst = program_inst();
  const crypto::Nonce n{crypto::sha256("n")};
  const EngineResult miss = sw.engine().create(inst, n, nullptr, nullptr);
  const EngineResult hit = sw.engine().create(inst, n, nullptr, nullptr);
  ASSERT_FALSE(miss.from_cache);
  ASSERT_TRUE(hit.from_cache);
  EXPECT_EQ(miss.encoded, copland::encode(miss.evidence));
  EXPECT_EQ(hit.encoded, copland::encode(hit.evidence));
  EXPECT_EQ(hit.encoded, miss.encoded);

  const nac::PolicyHeader hdr =
      oob_header(nac::mask_of(nac::EvidenceDetail::kProgram));
  // Same nonce and instruction variant: both packets hit the entry above.
  const crypto::Bytes first = emitted(sw, hdr);
  const crypto::Bytes second = emitted(sw, hdr);
  EXPECT_EQ(sw.cache().stats().hits, 3u);
  EXPECT_EQ(first, miss.encoded);
  EXPECT_EQ(second, first);
  EXPECT_EQ(second, copland::encode(copland::decode(
                        crypto::BytesView{second.data(), second.size()})));
}

TEST(CacheBytes, VariantsDoNotShareEntries) {
  Bed bed;
  PeraSwitch sw = bed.make_switch();
  const crypto::Nonce n{crypto::sha256("n")};
  nac::HopInstruction hashed = program_inst();
  hashed.hash_evidence = true;
  nac::HopInstruction custom = program_inst();
  custom.custom_targets = {"Firmware"};
  const EngineResult plain =
      sw.engine().create(program_inst(), n, nullptr, nullptr);
  for (const nac::HopInstruction& inst : {hashed, custom}) {
    const EngineResult res = sw.engine().create(inst, n, nullptr, nullptr);
    EXPECT_FALSE(res.from_cache);
    EXPECT_NE(res.encoded, plain.encoded);
  }
  EXPECT_EQ(sw.cache().size(), 3u);
  EXPECT_TRUE(sw.engine().create(custom, n, nullptr, nullptr).from_cache);
}

// After `mutate`, the next packet carries a fresh encoding of the new
// evidence — the bytes an uncached switch in the same state emits — not
// the bytes cached before.
void expect_fresh_bytes_after(const std::function<void(PeraSwitch&)>& mutate) {
  Bed bed;
  PeraConfig uncached;
  uncached.cache_enabled = false;
  PeraSwitch sw = bed.make_switch();
  PeraSwitch twin = bed.make_switch(uncached);
  const nac::PolicyHeader hdr =
      oob_header(nac::EvidenceDetail::kProgram | nac::EvidenceDetail::kTables |
                 nac::EvidenceDetail::kProgState);
  std::vector<crypto::Bytes> seen[2];
  PeraSwitch* switches[2] = {&sw, &twin};
  for (int i = 0; i < 2; ++i) {
    switches[i]->dataplane().registers().declare("r", 2);
    seen[i].push_back(emitted(*switches[i], hdr));
    seen[i].push_back(emitted(*switches[i], hdr));
    mutate(*switches[i]);
    seen[i].push_back(emitted(*switches[i], hdr));
    seen[i].push_back(emitted(*switches[i], hdr));
  }
  EXPECT_EQ(sw.cache().stats().hits, 2u);
  EXPECT_EQ(sw.cache().stats().invalidations, 1u);
  EXPECT_EQ(seen[0][1], seen[0][0]);
  EXPECT_NE(seen[0][2], seen[0][1]);
  EXPECT_EQ(seen[0][3], seen[0][2]);
  EXPECT_EQ(seen[0], seen[1]);
  // The memoised measurements equal the uncached reference digests.
  const dataplane::PisaSwitch& dp = sw.dataplane();
  const MeasurementUnit& mu = sw.measurement();
  EXPECT_EQ(mu.measure(nac::EvidenceDetail::kProgram),
            dp.program().program_digest());
  EXPECT_EQ(mu.measure(nac::EvidenceDetail::kTables),
            dp.program().tables_digest_full());
  EXPECT_EQ(mu.measure(nac::EvidenceDetail::kProgState),
            dp.registers().state_digest_full());
}

TEST(CacheBytes, TableUpdateServesFreshBytes) {
  expect_fresh_bytes_after([](PeraSwitch& sw) {
    dataplane::TableEntry e;
    e.keys = {dataplane::KeyMatch::lpm(0xC0A80000, 16)};
    e.action = "forward";
    e.action_params = {2};
    sw.update_table("route", e);
  });
}

TEST(CacheBytes, RegisterWriteServesFreshBytes) {
  expect_fresh_bytes_after([](PeraSwitch& sw) {
    sw.dataplane().registers().write("r", 0, 7);
  });
}

TEST(CacheBytes, ProgramLoadServesFreshBytes) {
  expect_fresh_bytes_after([](PeraSwitch& sw) {
    sw.load_program(dataplane::make_rogue_router("v1"));
  });
}

// Mutations made on the dataplane directly, past PeraSwitch's control
// plane: the epochs read live state, so each of them expires the cache.
TEST(CacheBytes, DataplaneProgramLoadServesFreshBytes) {
  expect_fresh_bytes_after([](PeraSwitch& sw) {
    // The same tables and registers as the running program: only the
    // load itself tells the Program measurement apart.
    auto next = make_router("v2");
    next->declare_register("r", 2);
    sw.dataplane().load_program(std::move(next));
  });
}

TEST(CacheBytes, RegisterDeclarationServesFreshBytes) {
  expect_fresh_bytes_after([](PeraSwitch& sw) {
    sw.dataplane().program().declare_register("extra", 4);
  });
}

TEST(CacheBytes, ActionAddedServesFreshBytes) {
  expect_fresh_bytes_after([](PeraSwitch& sw) {
    sw.dataplane().program().add_action(dataplane::stdaction::noop());
  });
}

TEST(CacheBytes, TableAddedServesFreshBytes) {
  expect_fresh_bytes_after([](PeraSwitch& sw) {
    (void)sw.dataplane().program().add_table(
        "acl", {dataplane::KeySpec{{"tcp", "dport"},
                                   dataplane::MatchKind::kExact, 16}});
  });
}

TEST(CacheBytes, MutationProfileServesFreshBytes) {
  expect_fresh_bytes_after([](PeraSwitch& sw) {
    sw.dataplane().program().table("route")->set_mutation_profile(
        true, 64, dataplane::EvictionPolicy::kLru);
  });
}

TEST(CacheBytes, EntryRewriteServesFreshBytes) {
  expect_fresh_bytes_after([](PeraSwitch& sw) {
    sw.dataplane().program().table("route")->entry_mut(0).action_params = {
        7};
  });
}

// Everything one fixed configuration emits — forwarded frames, out-of-band
// and in-band evidence, over misses and hits — hashed and pinned to the
// value the bit-at-a-time header codec and per-packet evidence encoding
// produced.
TEST(CacheBytes, PinnedEmittedBytesDigest) {
  Bed bed;
  PeraSwitch sw = bed.make_switch();
  nac::CompiledPolicy pol;
  nac::HopInstruction oob;
  oob.wildcard = true;
  oob.detail = nac::EvidenceDetail::kProgram | nac::EvidenceDetail::kTables;
  oob.sign_evidence = true;
  oob.out_of_band = true;
  nac::HopInstruction inband;
  inband.wildcard = true;
  inband.detail = nac::mask_of(nac::EvidenceDetail::kProgram);
  inband.hash_evidence = true;
  inband.sign_evidence = true;
  pol.hops = {oob, inband};
  pol.appraiser = "Appraiser";
  const nac::PolicyHeader hdr =
      nac::make_header(pol, crypto::Nonce{crypto::sha256("pinned")}, true);

  crypto::Sha256 h;
  const auto absorb = [&h](const crypto::Bytes& b) {
    h.update(crypto::BytesView{b.data(), b.size()});
  };
  for (const std::uint16_t sport : {40000, 40001, 40000}) {
    nac::EvidenceCarrier carrier;
    const PeraResult res = sw.process(
        make_tcp_packet({.ip_dst = 0x0a000203,
                         .ttl = 17,
                         .sport = sport,
                         .payload_len = 21}),
        &hdr, &carrier);
    ASSERT_TRUE(res.forwarded.has_value());
    ASSERT_EQ(res.out_of_band.size(), 1u);
    ASSERT_EQ(carrier.records.size(), 1u);
    absorb(res.forwarded->data);
    absorb(res.out_of_band[0].evidence);
    absorb(carrier.records[0].evidence);
  }
  EXPECT_EQ(sw.cache().stats().hits, 4u);
  EXPECT_EQ(h.finish().hex(),
            "1e5de7f6d976b22f6f16cd0dac1345586268c9981b2ff66a37e90741cd85a3be");
}

// --- PERA switch packet path ----------------------------------------------------

TEST(PeraSwitchPath, InBandAppendsToCarrier) {
  Bed bed;
  PeraSwitch sw = bed.make_switch();
  nac::CompiledPolicy pol;
  nac::HopInstruction inst = program_inst();
  inst.wildcard = true;
  pol.hops = {inst};
  pol.appraiser = "Appraiser";
  const nac::PolicyHeader hdr =
      nac::make_header(pol, crypto::Nonce{crypto::sha256("n")}, true);

  nac::EvidenceCarrier carrier;
  const PeraResult res =
      sw.process(make_tcp_packet({.ip_dst = 0x0a000202}), &hdr, &carrier);
  ASSERT_TRUE(res.forwarded.has_value());
  EXPECT_TRUE(res.attested);
  ASSERT_EQ(carrier.records.size(), 1u);
  EXPECT_EQ(carrier.records[0].place, "sw1");
  EXPECT_TRUE(res.out_of_band.empty());
  EXPECT_GT(res.inband_bytes_added, 0u);
}

TEST(PeraSwitchPath, OutOfBandEmitsEvidence) {
  Bed bed;
  PeraSwitch sw = bed.make_switch();
  nac::CompiledPolicy pol;
  nac::HopInstruction inst = program_inst();
  inst.wildcard = true;
  inst.out_of_band = true;
  pol.hops = {inst};
  pol.appraiser = "Appraiser";
  const nac::PolicyHeader hdr =
      nac::make_header(pol, crypto::Nonce{crypto::sha256("n")}, true);

  nac::EvidenceCarrier carrier;
  const PeraResult res =
      sw.process(make_tcp_packet({.ip_dst = 0x0a000202}), &hdr, &carrier);
  EXPECT_TRUE(carrier.records.empty());
  ASSERT_EQ(res.out_of_band.size(), 1u);
  EXPECT_EQ(res.out_of_band[0].to, "Appraiser");
  const copland::EvidencePtr e = copland::decode(crypto::BytesView{
      res.out_of_band[0].evidence.data(), res.out_of_band[0].evidence.size()});
  EXPECT_EQ(e->kind, copland::EvidenceKind::kSignature);
}

TEST(PeraSwitchPath, NoHeaderMeansPlainForwarding) {
  Bed bed;
  PeraSwitch sw = bed.make_switch();
  const PeraResult res =
      sw.process(make_tcp_packet({.ip_dst = 0x0a000202}), nullptr, nullptr);
  ASSERT_TRUE(res.forwarded.has_value());
  EXPECT_FALSE(res.attested);
  EXPECT_EQ(res.ra_latency, 0);
  EXPECT_EQ(sw.ra_stats().attestations, 0u);
}

TEST(PeraSwitchPath, SamplingSkipsPackets) {
  Bed bed;
  PeraSwitch sw = bed.make_switch();
  nac::CompiledPolicy pol;
  nac::HopInstruction inst = program_inst();
  inst.wildcard = true;
  pol.hops = {inst};
  const nac::PolicyHeader hdr = nac::make_header(
      pol, crypto::Nonce{crypto::sha256("n")}, true, /*sampling_log2=*/2);

  nac::EvidenceCarrier carrier;
  int attested = 0;
  for (int i = 0; i < 16; ++i) {
    const PeraResult res =
        sw.process(make_tcp_packet({.ip_dst = 0x0a000202}), &hdr, &carrier);
    if (res.attested) ++attested;
  }
  EXPECT_EQ(attested, 4);  // 1 in 2^2
  EXPECT_EQ(sw.ra_stats().skipped_by_sampling, 12u);
}

// Which packets two interleaved flows attest, pinned: the sampler counts
// per flow nonce, and a third flow that attests every packet, interleaved
// with them, leaves their sequences as they were. Each flow's nonce
// misses the evidence cache once; its later attestations hit.
TEST(PeraSwitchPath, SamplingDecisionSequencePerFlow) {
  for (const std::uint8_t log2 : {1, 3}) {
    Bed bed;
    PeraSwitch sw = bed.make_switch();
    nac::CompiledPolicy pol;
    nac::HopInstruction inst = program_inst();
    inst.wildcard = true;
    pol.hops = {inst};
    const nac::PolicyHeader a =
        nac::make_header(pol, crypto::Nonce{crypto::sha256("a")}, true, log2);
    const nac::PolicyHeader b =
        nac::make_header(pol, crypto::Nonce{crypto::sha256("b")}, true, log2);
    const nac::PolicyHeader every =
        nac::make_header(pol, crypto::Nonce{crypto::sha256("c")}, true, 0);
    std::string decisions;
    for (int i = 0; i < 16; ++i) {
      for (const nac::PolicyHeader* hdr : {&a, &every, &b}) {
        nac::EvidenceCarrier carrier;
        const PeraResult res = sw.process(
            make_tcp_packet({.ip_dst = 0x0a000202}), hdr, &carrier);
        if (hdr == &every) {
          EXPECT_TRUE(res.attested);
        } else {
          decisions += res.attested ? '1' : '0';
        }
      }
    }
    EXPECT_EQ(decisions, log2 == 1 ? "11001100110011001100110011001100"
                                   : "11000000000000001100000000000000")
        << "sampling_log2 " << int{log2};
    const auto sampled = static_cast<std::uint64_t>(
        std::count(decisions.begin(), decisions.end(), '1'));
    EXPECT_EQ(sw.cache().stats().misses, 3u);
    EXPECT_EQ(sw.cache().stats().hits, 16 + sampled - 3);
  }
}

TEST(PeraSwitchPath, PinnedInstructionOnlyOnNamedSwitch) {
  Bed bed;
  PeraSwitch sw = bed.make_switch();
  nac::CompiledPolicy pol;
  nac::HopInstruction inst = program_inst();
  inst.place = "other-switch";
  pol.hops = {inst};
  const nac::PolicyHeader hdr = nac::make_header(pol, {}, true);
  nac::EvidenceCarrier carrier;
  const PeraResult res =
      sw.process(make_tcp_packet({.ip_dst = 0x0a000202}), &hdr, &carrier);
  EXPECT_FALSE(res.attested);
  EXPECT_TRUE(carrier.records.empty());
}

TEST(PeraSwitchPath, DroppedPacketStillAttests) {
  // A firewall-dropped packet can still produce evidence (UC3: evidence of
  // the drop decision), but nothing is forwarded.
  Bed bed;
  PeraSwitch sw = bed.make_switch();
  nac::CompiledPolicy pol;
  nac::HopInstruction inst = program_inst();
  inst.wildcard = true;
  pol.hops = {inst};
  const nac::PolicyHeader hdr = nac::make_header(pol, {}, true);
  nac::EvidenceCarrier carrier;
  const PeraResult res = sw.process(
      make_tcp_packet({.ip_dst = 0xC0A80001}), &hdr, &carrier);  // no route
  EXPECT_FALSE(res.forwarded.has_value());
  EXPECT_TRUE(res.attested);
}

TEST(PeraSwitchPath, RaLatencyAccounted) {
  Bed bed;
  PeraSwitch sw = bed.make_switch();
  nac::CompiledPolicy pol;
  nac::HopInstruction inst = program_inst();
  inst.wildcard = true;
  pol.hops = {inst};
  const nac::PolicyHeader hdr = nac::make_header(pol, {}, true);
  nac::EvidenceCarrier carrier;
  const PeraResult res =
      sw.process(make_tcp_packet({.ip_dst = 0x0a000202}), &hdr, &carrier);
  EXPECT_GT(res.ra_latency, 0);
  EXPECT_EQ(sw.ra_stats().ra_time_total, res.ra_latency);
}

TEST(PeraSwitchPath, XmssSignerWorksEndToEnd) {
  crypto::KeyStore keys(31);
  crypto::Signer& signer = keys.provision_xmss("sw1", 4);
  PeraSwitch sw("sw1", make_router(), signer);
  const copland::EvidencePtr e = sw.attest_challenge(
      nac::mask_of(nac::EvidenceDetail::kProgram),
      crypto::Nonce{crypto::sha256("n")}, false);
  ASSERT_EQ(e->kind, copland::EvidenceKind::kSignature);
  EXPECT_TRUE(keys.verifier_for("sw1")->verify(copland::digest(e->child),
                                               e->sig));
}

}  // namespace
}  // namespace pera::pera
