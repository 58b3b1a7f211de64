// Tests for the sharded multi-worker PERA pipeline: SPSC ring semantics,
// flow hashing, the seqlock epoch block, shard-count-invariant evidence
// verdicts, queue overflow/backpressure, and the epoch-invalidation race
// (the threaded tests are the TSan targets wired into scripts/check.sh).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <numeric>
#include <set>
#include <thread>

#include "obs/profiler.h"
#include "pipeline/pipeline.h"
#include "pipeline/reassembler.h"

namespace pera::pipeline {
namespace {

using dataplane::make_router;
using dataplane::make_tcp_packet;
using dataplane::PacketSpec;

crypto::Digest root_key() { return crypto::sha256("pipeline-root-key"); }

ProgramFactory router_factory() {
  return [] { return make_router(); };
}

nac::PolicyHeader make_policy_header(bool out_of_band, bool sign = true) {
  nac::HopInstruction inst;
  inst.detail = nac::mask_of(nac::EvidenceDetail::kProgram);
  inst.sign_evidence = sign;
  inst.wildcard = true;
  inst.out_of_band = out_of_band;
  nac::CompiledPolicy pol;
  pol.hops = {inst};
  pol.appraiser = "Appraiser";
  // sampling_log2 stays 0: per-shard sampler counters would otherwise make
  // attest/skip decisions depend on the shard count.
  return nac::make_header(pol, crypto::Nonce{crypto::sha256("n")}, true);
}

/// A packet stream spread over `flows` distinct 5-tuples, round-robin.
std::vector<dataplane::RawPacket> make_stream(std::size_t packets,
                                              std::size_t flows) {
  std::vector<dataplane::RawPacket> out;
  out.reserve(packets);
  for (std::size_t i = 0; i < packets; ++i) {
    PacketSpec spec;
    spec.sport = static_cast<std::uint16_t>(40000 + i % flows);
    spec.ip_src = 0x0a000100 + static_cast<std::uint32_t>(i % flows);
    out.push_back(make_tcp_packet(spec));
  }
  return out;
}

/// Run a full pipeline pass over `stream` and return the appraiser summary.
struct RunResult {
  crypto::Digest summary;
  std::map<std::uint64_t, FlowVerdict> verdicts;
  PipelineReport report;
  std::vector<EvidenceItem> evidence;
};

RunResult run_pipeline(std::size_t shards,
                       const std::vector<dataplane::RawPacket>& stream,
                       const nac::PolicyHeader& hdr,
                       ::pera::pera::PeraConfig pera_cfg = {},
                       nac::CompositionMode mode =
                           nac::CompositionMode::kChained) {
  PipelineOptions opt;
  opt.shards = shards;
  opt.pera = pera_cfg;
  opt.drop_on_full = false;  // lossless: determinism tests need every packet
  PeraPipeline pipe("sw1", router_factory(), root_key(), opt);
  pipe.start();
  for (const dataplane::RawPacket& raw : stream) {
    (void)pipe.submit(raw, &hdr);
  }
  pipe.stop();

  RunResult r;
  r.evidence = pipe.collect_evidence();
  ShardedAppraiser appraiser(root_key(), pipe.options().shard_key_label,
                             /*max_shards=*/8, mode);
  appraiser.ingest(r.evidence);
  r.verdicts = appraiser.appraise();
  r.summary = ShardedAppraiser::summary(r.verdicts);
  r.report = pipe.report();
  return r;
}

// --- SPSC queue -----------------------------------------------------------------

TEST(SpscQueue, FifoOrderAndCapacityRounding) {
  SpscQueue<int> q(3);  // rounds up to 4
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_TRUE(q.try_push(3));
  EXPECT_TRUE(q.try_push(4));
  EXPECT_FALSE(q.try_push(5));  // full
  int v = 0;
  EXPECT_TRUE(q.try_pop(v));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(q.try_push(5));  // slot freed
  for (const int want : {2, 3, 4, 5}) {
    ASSERT_TRUE(q.try_pop(v));
    EXPECT_EQ(v, want);
  }
  EXPECT_FALSE(q.try_pop(v));
  EXPECT_TRUE(q.empty());
}

TEST(SpscQueue, FailedPushLeavesValueIntact) {
  SpscQueue<std::string> q(1);
  ASSERT_TRUE(q.try_push("a"));
  std::string keep = "survivor";
  EXPECT_FALSE(q.try_push(std::move(keep)));
  EXPECT_EQ(keep, "survivor");  // not moved-from on failure
}

TEST(SpscQueue, ConcurrentProducerConsumerDeliversEverything) {
  constexpr int kItems = 20000;
  SpscQueue<int> q(64);
  std::int64_t sum = 0;
  std::thread consumer([&] {
    int v = 0;
    int got = 0;
    while (got < kItems) {
      if (q.try_pop(v)) {
        sum += v;
        ++got;
      } else {
        std::this_thread::yield();
      }
    }
  });
  for (int i = 1; i <= kItems; ++i) {
    while (!q.try_push(std::move(i))) std::this_thread::yield();
  }
  consumer.join();
  EXPECT_EQ(sum, static_cast<std::int64_t>(kItems) * (kItems + 1) / 2);
}

// --- flow hashing ---------------------------------------------------------------

TEST(FlowHash, SameTupleSameHashDifferentTupleDiffers) {
  const dataplane::RawPacket a = make_tcp_packet({.sport = 40000});
  const dataplane::RawPacket b = make_tcp_packet({.sport = 40000});
  const dataplane::RawPacket c = make_tcp_packet({.sport = 40001});
  EXPECT_EQ(flow_hash(extract_flow_key(a)), flow_hash(extract_flow_key(b)));
  EXPECT_NE(flow_hash(extract_flow_key(a)), flow_hash(extract_flow_key(c)));
}

TEST(FlowHash, ExtractsTupleFromWire) {
  const FlowKey key = extract_flow_key(make_tcp_packet(
      {.ip_src = 0x0a000101, .ip_dst = 0x0a000202, .sport = 1234,
       .dport = 443}));
  EXPECT_TRUE(key.valid);
  EXPECT_EQ(key.src_ip, 0x0a000101u);
  EXPECT_EQ(key.dst_ip, 0x0a000202u);
  EXPECT_EQ(key.sport, 1234);
  EXPECT_EQ(key.dport, 443);
  EXPECT_EQ(key.proto, 6);
}

TEST(FlowHash, NonIpFramesStillHashDeterministically) {
  dataplane::RawPacket junk;
  junk.data = {0xde, 0xad, 0xbe, 0xef};
  const std::uint64_t h1 = flow_hash(extract_flow_key(junk));
  const std::uint64_t h2 = flow_hash(extract_flow_key(junk));
  EXPECT_EQ(h1, h2);
  EXPECT_NE(h1, 0u);
  EXPECT_LT(shard_of(junk, 4), 4u);
}

TEST(FlowHash, ShardOfCoversAllShardsAcrossFlows) {
  std::set<std::size_t> seen;
  for (std::uint16_t p = 0; p < 64; ++p) {
    seen.insert(shard_of(make_tcp_packet({.sport =
                             static_cast<std::uint16_t>(40000 + p)}),
                         4));
  }
  EXPECT_EQ(seen.size(), 4u);  // 64 flows should hit all 4 shards
  EXPECT_EQ(shard_of(make_tcp_packet({}), 1), 0u);
}

// --- epoch block ----------------------------------------------------------------

TEST(EpochBlock, VersionIsEvenAndMonotonic) {
  EpochBlock block;
  EXPECT_EQ(block.version(), 0u);
  ControlOp op;
  op.kind = ControlOp::Kind::kLoadProgram;
  op.factory = router_factory();
  block.publish(std::move(op));
  EXPECT_EQ(block.version(), 2u);
  EXPECT_EQ(block.op_count(), 1u);
}

TEST(EpochBlock, OpsSinceReplaysOnlyUnapplied) {
  EpochBlock block;
  for (int i = 0; i < 3; ++i) {
    ControlOp op;
    op.kind = ControlOp::Kind::kUpdateTable;
    op.table = "route";
    block.publish(std::move(op));
  }
  std::vector<ControlOp> ops;
  EXPECT_EQ(block.ops_since(1, ops), block.version());
  EXPECT_EQ(ops.size(), 2u);
}

// --- shard-count invariance (the tentpole property) -----------------------------

TEST(PipelineDeterminism, OutOfBandVerdictsInvariantAcrossShardCounts) {
  const std::vector<dataplane::RawPacket> stream = make_stream(96, 12);
  const nac::PolicyHeader hdr = make_policy_header(/*out_of_band=*/true);
  const RunResult one = run_pipeline(1, stream, hdr);
  const RunResult two = run_pipeline(2, stream, hdr);
  const RunResult four = run_pipeline(4, stream, hdr);

  EXPECT_EQ(one.verdicts.size(), 12u);
  for (const auto& [flow, v] : one.verdicts) {
    EXPECT_TRUE(v.ok) << "flow " << flow;
    EXPECT_EQ(v.signature_failures, 0u);
  }
  // Bit-identical per-flow transcripts, summarized in one digest.
  EXPECT_EQ(one.summary, two.summary);
  EXPECT_EQ(one.summary, four.summary);
  EXPECT_EQ(one.report.processed(), 96u);
  EXPECT_EQ(four.report.processed(), 96u);
}

TEST(PipelineDeterminism, InBandVerdictsInvariantAcrossShardCounts) {
  const std::vector<dataplane::RawPacket> stream = make_stream(64, 8);
  const nac::PolicyHeader hdr = make_policy_header(/*out_of_band=*/false);
  const RunResult one = run_pipeline(1, stream, hdr);
  const RunResult four = run_pipeline(4, stream, hdr);
  EXPECT_EQ(one.verdicts.size(), 8u);
  EXPECT_EQ(one.summary, four.summary);
  for (const auto& [flow, v] : four.verdicts) {
    EXPECT_TRUE(v.ok) << "flow " << flow;
  }
}

TEST(PipelineDeterminism, BatchedSigningPreservesVerdicts) {
  // Merkle-batched deferred signing changes the signature scheme, not the
  // signed content — verdict transcripts must match the unbatched run.
  const std::vector<dataplane::RawPacket> stream = make_stream(64, 8);
  const nac::PolicyHeader hdr = make_policy_header(/*out_of_band=*/true);
  ::pera::pera::PeraConfig batched;
  batched.oob_batch_size = 32;
  const RunResult plain = run_pipeline(2, stream, hdr);
  const RunResult merkle = run_pipeline(2, stream, hdr, batched);
  ASSERT_EQ(plain.evidence.size(), merkle.evidence.size());
  EXPECT_EQ(plain.summary, merkle.summary);
}

TEST(PipelineDeterminism, PointwiseAndChainedTranscriptsDiffer) {
  const std::vector<dataplane::RawPacket> stream = make_stream(32, 4);
  const nac::PolicyHeader hdr = make_policy_header(/*out_of_band=*/true);
  const RunResult chained = run_pipeline(2, stream, hdr, {},
                                         nac::CompositionMode::kChained);
  const RunResult pointwise = run_pipeline(2, stream, hdr, {},
                                           nac::CompositionMode::kPointwise);
  EXPECT_NE(chained.summary, pointwise.summary);
  // ...but both modes agree the evidence verifies.
  for (const auto& [flow, v] : pointwise.verdicts) {
    EXPECT_TRUE(v.ok) << "flow " << flow;
  }
}

TEST(PipelineDeterminism, FlowsNeverSplitAcrossShards) {
  const std::vector<dataplane::RawPacket> stream = make_stream(64, 8);
  const nac::PolicyHeader hdr = make_policy_header(/*out_of_band=*/true);
  const RunResult r = run_pipeline(4, stream, hdr);
  std::map<std::uint64_t, std::set<std::uint32_t>> shards_by_flow;
  for (const EvidenceItem& item : r.evidence) {
    shards_by_flow[item.flow].insert(item.shard);
  }
  for (const auto& [flow, shards] : shards_by_flow) {
    EXPECT_EQ(shards.size(), 1u) << "flow " << flow << " split";
  }
}

TEST(PipelineDeterminism, TamperedEvidenceFailsAppraisal) {
  const std::vector<dataplane::RawPacket> stream = make_stream(8, 2);
  const nac::PolicyHeader hdr = make_policy_header(/*out_of_band=*/true);
  PipelineOptions opt;
  opt.shards = 2;
  opt.drop_on_full = false;
  PeraPipeline pipe("sw1", router_factory(), root_key(), opt);
  pipe.start();
  for (const dataplane::RawPacket& raw : stream) (void)pipe.submit(raw, &hdr);
  pipe.stop();

  std::vector<EvidenceItem> evidence = pipe.collect_evidence();
  ASSERT_FALSE(evidence.empty());
  evidence.front().evidence.back() ^= 0xff;  // flip a signature byte

  ShardedAppraiser appraiser(root_key(), pipe.options().shard_key_label, 8);
  appraiser.ingest(evidence);
  const auto verdicts = appraiser.appraise();
  std::size_t failures = 0;
  for (const auto& [flow, v] : verdicts) failures += v.signature_failures;
  EXPECT_EQ(failures, 1u);
  EXPECT_TRUE(std::any_of(verdicts.begin(), verdicts.end(),
                          [](const auto& kv) { return !kv.second.ok; }));
}

// --- queue overflow / backpressure ----------------------------------------------

TEST(PipelineBackpressure, DropOnFullCountsDrops) {
  PipelineOptions opt;
  opt.shards = 1;
  opt.queue_capacity = 8;
  opt.drop_on_full = true;
  PeraPipeline pipe("sw1", router_factory(), root_key(), opt);
  // Workers not started: the ring fills after 8 packets.
  const dataplane::RawPacket pkt = make_tcp_packet({});
  int accepted = 0;
  for (int i = 0; i < 20; ++i) {
    if (pipe.submit(pkt, nullptr)) ++accepted;
  }
  EXPECT_EQ(accepted, 8);
  pipe.start();
  pipe.stop();
  const PipelineReport rep = pipe.report();
  EXPECT_EQ(rep.submitted, 20u);
  EXPECT_EQ(rep.dropped, 12u);
  EXPECT_EQ(rep.processed(), 8u);
}

TEST(PipelineBackpressure, LosslessModeDeliversEverything) {
  PipelineOptions opt;
  opt.shards = 2;
  opt.queue_capacity = 8;  // tiny ring: the dispatcher must wait
  opt.drop_on_full = false;
  PeraPipeline pipe("sw1", router_factory(), root_key(), opt);
  pipe.start();
  const nac::PolicyHeader hdr = make_policy_header(true);
  for (const dataplane::RawPacket& raw : make_stream(400, 16)) {
    EXPECT_TRUE(pipe.submit(raw, &hdr));
  }
  pipe.stop();
  const PipelineReport rep = pipe.report();
  EXPECT_EQ(rep.dropped, 0u);
  EXPECT_EQ(rep.processed(), 400u);
}

// --- epoch invalidation ---------------------------------------------------------

TEST(PipelineEpoch, ControlOpsInvalidateShardCaches) {
  // Inline (no threads): one worker, deterministic interleaving.
  EpochBlock epochs;
  ShardWorker worker(0, "sw1", router_factory(),
                     crypto::sha256("k0"), epochs, {}, 16, 100);
  const nac::PolicyHeader hdr = make_policy_header(/*out_of_band=*/true);
  const dataplane::RawPacket pkt = make_tcp_packet({});
  const std::uint64_t flow = flow_hash(extract_flow_key(pkt));

  worker.process(PacketJob{pkt, &hdr, flow, 0, 0});
  worker.process(PacketJob{pkt, &hdr, flow, 1, 0});
  EXPECT_EQ(worker.report().cache.hits, 1u);  // warm second packet

  ControlOp op;
  op.kind = ControlOp::Kind::kLoadProgram;
  op.factory = [] { return make_router("v2"); };
  epochs.publish(std::move(op));

  worker.process(PacketJob{pkt, &hdr, flow, 2, 0});
  const ShardReport rep = worker.report();
  EXPECT_EQ(rep.epoch_syncs, 1u);
  EXPECT_EQ(rep.cache.invalidations, 1u);  // program epoch moved
  EXPECT_EQ(rep.processed, 3u);
}

TEST(PipelineEpoch, ConcurrentControlOpsConvergeAcrossShards) {
  // The TSan race target: a control thread swaps programs and writes
  // tables while the dispatcher streams packets. After a final round of
  // packets (every shard must observe the last epoch), all shards agree
  // on the program digest.
  PipelineOptions opt;
  opt.shards = 4;
  opt.drop_on_full = false;
  PeraPipeline pipe("sw1", router_factory(), root_key(), opt);
  pipe.start();
  const nac::PolicyHeader hdr = make_policy_header(/*out_of_band=*/true);
  const std::vector<dataplane::RawPacket> stream = make_stream(256, 32);

  std::thread control([&] {
    for (int i = 0; i < 8; ++i) {
      dataplane::TableEntry e;
      e.keys = {dataplane::KeyMatch::lpm(0xC0A80000 + i, 24)};
      e.action = "forward";
      e.action_params = {2};
      pipe.update_table("route", e);
      if (i % 3 == 2) {
        pipe.load_program([i] {
          return make_router("v" + std::to_string(i));
        });
      }
      std::this_thread::yield();
    }
  });
  for (const dataplane::RawPacket& raw : stream) (void)pipe.submit(raw, &hdr);
  control.join();
  // Final round after the last publish: make_stream(64, 32) revisits the
  // same 32 flows, which cover all four shards.
  for (const dataplane::RawPacket& raw : make_stream(64, 32)) {
    (void)pipe.submit(raw, &hdr);
  }
  pipe.stop();

  EXPECT_EQ(pipe.epochs().version() % 2, 0u);
  std::set<crypto::Digest> program_digests;
  for (std::size_t i = 0; i < pipe.shards(); ++i) {
    program_digests.insert(
        pipe.worker(i).pera_switch().dataplane().program().program_digest());
    EXPECT_GT(pipe.worker(i).report().epoch_syncs, 0u);
  }
  EXPECT_EQ(program_digests.size(), 1u);  // all shards converged

  // Evidence from a stream crossing epochs still verifies shard-by-shard.
  ShardedAppraiser appraiser(root_key(), pipe.options().shard_key_label, 8);
  appraiser.ingest(pipe.collect_evidence());
  for (const auto& [flow, v] : appraiser.appraise()) {
    EXPECT_TRUE(v.ok) << "flow " << flow;
  }
}

/// Run a one-shard pipeline with its appraiser, try `bad_op` halfway
/// through the stream, and check that it throws std::invalid_argument and
/// that every packet still comes out appraised ok.
void expect_rejected_midstream(
    const std::function<void(PeraPipeline&)>& bad_op) {
  PipelineOptions opt;
  opt.shards = 1;
  opt.appraisers = 1;
  opt.drop_on_full = false;
  PeraPipeline pipe("sw1", router_factory(), root_key(), opt);
  pipe.start();
  const nac::PolicyHeader hdr = make_policy_header(/*out_of_band=*/true);
  const std::vector<dataplane::RawPacket> stream = make_stream(64, 8);
  for (std::size_t i = 0; i < 32; ++i) (void)pipe.submit(stream[i], &hdr);
  EXPECT_THROW(bad_op(pipe), std::invalid_argument);
  for (std::size_t i = 32; i < stream.size(); ++i) {
    (void)pipe.submit(stream[i], &hdr);
  }
  pipe.stop();
  EXPECT_EQ(pipe.appraiser()->records(), stream.size());
  EXPECT_FALSE(pipe.appraiser()->verdicts().empty());
  for (const auto& [flow, v] : pipe.appraiser()->verdicts()) {
    EXPECT_TRUE(v.ok) << "flow " << flow;
  }
}

TEST(PipelineEpoch, UpdateOfUnknownTableIsRejectedOnTheCallersThread) {
  expect_rejected_midstream([](PeraPipeline& pipe) {
    dataplane::TableEntry e;
    e.keys = {dataplane::KeyMatch::lpm(0x0a000000, 8)};
    e.action = "forward";
    e.action_params = {1};
    pipe.update_table("nosuch", e);
  });
}

TEST(PipelineEpoch, RouteToUnknownActionIsRejectedBeforeAnyPacketMatchesIt) {
  // A /8 at priority 100 would win every lookup of the stream.
  expect_rejected_midstream([](PeraPipeline& pipe) {
    dataplane::TableEntry e;
    e.keys = {dataplane::KeyMatch::lpm(0x0a000000, 8)};
    e.priority = 100;
    e.action = "bogus";
    e.action_params = {1};
    pipe.update_table("route", e);
  });
}

// --- parallel appraisal ---------------------------------------------------------

/// Run the pipeline with the in-pipeline ParallelAppraiser streaming
/// evidence concurrently (the threaded TSan target for appraisal).
RunResult run_parallel(std::size_t shards, std::size_t appraisers,
                       const std::vector<dataplane::RawPacket>& stream,
                       const nac::PolicyHeader& hdr,
                       ::pera::pera::PeraConfig pera_cfg = {},
                       nac::CompositionMode mode =
                           nac::CompositionMode::kChained,
                       crypto::SignatureScheme scheme =
                           crypto::SignatureScheme::kHmacDeviceKey) {
  PipelineOptions opt;
  opt.shards = shards;
  opt.pera = pera_cfg;
  opt.drop_on_full = false;
  opt.appraisers = appraisers;
  opt.appraise_mode = mode;
  opt.scheme = scheme;
  PeraPipeline pipe("sw1", router_factory(), root_key(), opt);
  pipe.start();
  for (const dataplane::RawPacket& raw : stream) {
    (void)pipe.submit(raw, &hdr);
  }
  pipe.stop();

  RunResult r;
  r.verdicts = pipe.appraiser()->verdicts();
  r.summary = pipe.appraiser()->summary();
  r.report = pipe.report();
  EXPECT_EQ(pipe.appraiser()->dropped(), 0u);
  return r;
}

TEST(PipelineParallelAppraise, VerdictsBitIdenticalToSerialAcrossShardCounts) {
  // The equivalence property: the same trace pushed through 1/2/4/8
  // shards with concurrent per-shard appraiser workers must produce
  // verdicts bit-identical to the serial ShardedAppraiser reference —
  // same flows, same transcripts, same summary digest.
  const std::vector<dataplane::RawPacket> stream = make_stream(96, 12);
  const nac::PolicyHeader hdr = make_policy_header(/*out_of_band=*/true);
  const RunResult serial = run_pipeline(1, stream, hdr);
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    const RunResult par = run_parallel(shards, shards, stream, hdr);
    EXPECT_EQ(par.summary, serial.summary) << shards << " shards";
    ASSERT_EQ(par.verdicts.size(), serial.verdicts.size());
    for (const auto& [flow, v] : serial.verdicts) {
      const auto it = par.verdicts.find(flow);
      ASSERT_NE(it, par.verdicts.end()) << "flow " << flow << " missing";
      EXPECT_EQ(it->second.transcript, v.transcript) << "flow " << flow;
      EXPECT_EQ(it->second.records, v.records);
      EXPECT_EQ(it->second.ok, v.ok);
    }
  }
}

TEST(PipelineParallelAppraise, AppraiserCountDoesNotChangeVerdicts) {
  // Worker count only partitions the flow space; the merged verdict map
  // must not depend on it.
  const std::vector<dataplane::RawPacket> stream = make_stream(64, 16);
  const nac::PolicyHeader hdr = make_policy_header(/*out_of_band=*/true);
  const RunResult one = run_parallel(4, 1, stream, hdr);
  const RunResult three = run_parallel(4, 3, stream, hdr);
  const RunResult eight = run_parallel(4, 8, stream, hdr);
  EXPECT_EQ(one.summary, three.summary);
  EXPECT_EQ(one.summary, eight.summary);
  EXPECT_EQ(one.verdicts.size(), 16u);
}

TEST(PipelineParallelAppraise, PointwiseModeMatchesSerialToo) {
  const std::vector<dataplane::RawPacket> stream = make_stream(48, 6);
  const nac::PolicyHeader hdr = make_policy_header(/*out_of_band=*/true);
  const RunResult serial =
      run_pipeline(2, stream, hdr, {}, nac::CompositionMode::kPointwise);
  const RunResult par = run_parallel(4, 2, stream, hdr, {},
                                     nac::CompositionMode::kPointwise);
  EXPECT_EQ(par.summary, serial.summary);
}

TEST(PipelineParallelAppraise, XmssSchemeVerifiesThroughMultiLaneEngine) {
  // kXmss signs shard evidence with WOTS chains (verification walks the
  // chains through the multi-lane SHA-256 engine). Verdicts must still
  // verify and stay shard-count invariant.
  const std::vector<dataplane::RawPacket> stream = make_stream(24, 4);
  const nac::PolicyHeader hdr = make_policy_header(/*out_of_band=*/true);
  const RunResult two =
      run_parallel(2, 2, stream, hdr, {}, nac::CompositionMode::kChained,
                   crypto::SignatureScheme::kXmss);
  const RunResult four =
      run_parallel(4, 4, stream, hdr, {}, nac::CompositionMode::kChained,
                   crypto::SignatureScheme::kXmss);
  EXPECT_EQ(two.verdicts.size(), 4u);
  for (const auto& [flow, v] : two.verdicts) {
    EXPECT_TRUE(v.ok) << "flow " << flow;
    EXPECT_EQ(v.signature_failures, 0u);
  }
  EXPECT_EQ(two.summary, four.summary);

  // The HMAC run folds the same signed content, so transcripts (which
  // cover content + outcome, not signature bytes) must match it as well.
  const RunResult hmac = run_parallel(2, 2, stream, hdr);
  EXPECT_EQ(two.summary, hmac.summary);
}

// --- end-of-stream drain order --------------------------------------------------

TEST(PipelineDrainOrder, FinalBatchVerdictsSurviveTinyStreams) {
  // Regression: with an evidence batcher configured, the last (partial)
  // batch only surfaces at flush_pending(). The defined drain order —
  // ring dry, then batcher flush, both on the worker thread, then
  // appraiser finish — must deliver those final-batch verdicts at any
  // batch size and packet count, including streams smaller than one
  // batch.
  const nac::PolicyHeader hdr = make_policy_header(/*out_of_band=*/true);
  for (const std::size_t batch : {1u, 7u}) {
    ::pera::pera::PeraConfig cfg;
    cfg.oob_batch_size = batch;
    for (const std::size_t packets : {1u, 2u, 7u, 13u}) {
      const std::vector<dataplane::RawPacket> stream =
          make_stream(packets, std::min<std::size_t>(packets, 4));
      const RunResult serial = run_pipeline(8, stream, hdr, cfg);
      const RunResult par = run_parallel(8, 8, stream, hdr, cfg);
      std::size_t serial_records = 0;
      for (const auto& [flow, v] : serial.verdicts) {
        serial_records += v.records;
      }
      std::size_t par_records = 0;
      for (const auto& [flow, v] : par.verdicts) par_records += v.records;
      EXPECT_GT(serial_records, 0u)
          << "batch " << batch << " packets " << packets;
      EXPECT_EQ(par_records, serial_records)
          << "batch " << batch << " packets " << packets
          << ": final-batch evidence dropped";
      EXPECT_EQ(par.summary, serial.summary)
          << "batch " << batch << " packets " << packets;
    }
  }
}

// --- streaming fold -------------------------------------------------------------

/// One in-band and one out-of-band wildcard hop: every packet emits a
/// carrier record at once and a record the batcher may defer.
nac::PolicyHeader make_mixed_header() {
  nac::HopInstruction inband;
  inband.detail = nac::mask_of(nac::EvidenceDetail::kProgram);
  inband.sign_evidence = true;
  inband.wildcard = true;
  nac::HopInstruction oob = inband;
  oob.out_of_band = true;
  nac::CompiledPolicy pol;
  pol.hops = {inband, oob};
  pol.appraiser = "Appraiser";
  return nac::make_header(pol, crypto::Nonce{crypto::sha256("n")}, true);
}

/// A decoded, verified record whose content digest encodes `seq`.
AppraisedRecord synthetic_record(std::uint64_t seq) {
  AppraisedRecord r;
  r.seq = seq;
  r.decoded = true;
  r.sig_ok = true;
  std::memcpy(r.content_digest.v.data(), &seq, sizeof(seq));
  return r;
}

TEST(PipelineStreamingFold, ShardEmitsEachFlowInSeqOrder) {
  // Regression: in-band records used to leave the shard at once while
  // out-of-band records of earlier packets still waited in the batcher,
  // so a flow's records reached the appraiser out of order and the
  // streaming fold diverged from the sorted serial fold.
  const std::vector<dataplane::RawPacket> stream = make_stream(16, 2);
  const nac::PolicyHeader hdr = make_mixed_header();
  ::pera::pera::PeraConfig cfg;
  cfg.oob_batch_size = 4;
  const RunResult serial = run_pipeline(1, stream, hdr, cfg);
  const RunResult par = run_parallel(1, 1, stream, hdr, cfg);
  EXPECT_EQ(par.summary, serial.summary);
  std::size_t records = 0;
  for (const auto& [flow, v] : par.verdicts) {
    records += v.records;
    EXPECT_TRUE(v.ok) << "flow " << flow;
  }
  EXPECT_EQ(records, 32u);

  // The emission order itself, before any reassembly sort.
  PipelineOptions opt;
  opt.shards = 1;
  opt.pera = cfg;
  opt.drop_on_full = false;
  PeraPipeline pipe("sw1", router_factory(), root_key(), opt);
  pipe.start();
  for (const dataplane::RawPacket& raw : stream) (void)pipe.submit(raw, &hdr);
  pipe.stop();
  const std::vector<EvidenceItem>& emitted = pipe.worker(0).evidence();
  ASSERT_EQ(emitted.size(), 32u);
  EXPECT_TRUE(std::is_sorted(
      emitted.begin(), emitted.end(),
      [](const EvidenceItem& a, const EvidenceItem& b) {
        return a.seq < b.seq;
      }));
}

TEST(PipelineTranscript, ChainedTranscriptBindsRecordOrder) {
  std::vector<AppraisedRecord> ordered = {
      synthetic_record(0), synthetic_record(1), synthetic_record(2)};
  std::vector<AppraisedRecord> swapped = ordered;
  std::swap(swapped[0].content_digest, swapped[1].content_digest);
  const FlowVerdict a =
      fold_flow(1, ordered, nac::CompositionMode::kChained);
  const FlowVerdict b =
      fold_flow(1, swapped, nac::CompositionMode::kChained);
  EXPECT_TRUE(a.ok);
  EXPECT_TRUE(b.ok);
  EXPECT_EQ(a.records, b.records);
  EXPECT_NE(a.transcript, b.transcript);
}

TEST(PipelineTranscript, UndecodableRecordCountsAndClearsOk) {
  const std::vector<dataplane::RawPacket> stream = make_stream(8, 1);
  const nac::PolicyHeader hdr = make_policy_header(/*out_of_band=*/true);
  const RunResult clean = run_pipeline(1, stream, hdr);
  ASSERT_EQ(clean.evidence.size(), 8u);
  ASSERT_EQ(clean.verdicts.size(), 1u);
  ASSERT_TRUE(clean.verdicts.begin()->second.ok);

  const std::string label = PipelineOptions{}.shard_key_label;
  EvidenceItem garbage = clean.evidence.back();
  garbage.seq += 1;
  garbage.evidence = crypto::Bytes{0xDE, 0xAD, 0xBE, 0xEF};
  const VerifierSet verifiers(root_key(), label, 8);
  EXPECT_FALSE(appraise_record(garbage, verifiers).decoded);

  ShardedAppraiser appraiser(root_key(), label, 8);
  appraiser.ingest(clean.evidence);
  appraiser.ingest(garbage);
  const auto verdicts = appraiser.appraise();
  ASSERT_EQ(verdicts.size(), 1u);
  const FlowVerdict& v = verdicts.begin()->second;
  EXPECT_EQ(v.records, 9u);
  EXPECT_EQ(v.signature_failures, 1u);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.transcript, clean.verdicts.begin()->second.transcript);
}

TEST(PipelineTranscript, RecordBoundToAnotherNonceFails) {
  const std::vector<dataplane::RawPacket> stream = make_stream(4, 1);
  const nac::PolicyHeader hdr = make_policy_header(/*out_of_band=*/true);
  const RunResult clean = run_pipeline(1, stream, hdr);
  ASSERT_EQ(clean.evidence.size(), 4u);
  ASSERT_TRUE(clean.verdicts.begin()->second.ok);

  const std::string label = PipelineOptions{}.shard_key_label;
  const VerifierSet verifiers(root_key(), label, 8);
  const AppraisedRecord good = appraise_record(clean.evidence[0], verifiers);
  EXPECT_TRUE(good.decoded && good.sig_ok);

  // The same signed bytes presented under another round's nonce.
  std::vector<EvidenceItem> replayed = clean.evidence;
  replayed[1].nonce = crypto::Nonce{crypto::sha256("another round")};
  const AppraisedRecord rec = appraise_record(replayed[1], verifiers);
  EXPECT_TRUE(rec.decoded);
  EXPECT_FALSE(rec.decoded && rec.sig_ok);
  EXPECT_EQ(rec.content_digest,
            appraise_record(clean.evidence[1], verifiers).content_digest);

  // A zero nonce asks for no binding.
  EvidenceItem unbound = clean.evidence[2];
  unbound.nonce = crypto::Nonce{};
  EXPECT_TRUE(appraise_record(unbound, verifiers).sig_ok);

  ShardedAppraiser appraiser(root_key(), label, 8);
  appraiser.ingest(replayed);
  const auto verdicts = appraiser.appraise();
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_FALSE(verdicts.begin()->second.ok);
  EXPECT_EQ(verdicts.begin()->second.signature_failures, 1u);
}

TEST(PipelineTranscript, PointwiseTranscriptBytesAreStable) {
  // A pinned value: the pointwise transcript bytes are part of the
  // verdict format, so no change to how records are folded may move them.
  const RunResult r =
      run_pipeline(1, make_stream(32, 4),
                   make_policy_header(/*out_of_band=*/true), {},
                   nac::CompositionMode::kPointwise);
  EXPECT_EQ(r.summary.hex(), "4fc6d20e988b2fdc613c1508dbf66e8535356f69b1306fde3755b3e96876b9c2");
}

TEST(PipelineLongFlow, OneFlowOfManyPacketsFoldsToOneVerdict) {
  // Regression: chained appraisal used to build one left-deep evidence
  // term per flow and walk it recursively, which overflowed the stack on
  // a single long flow. The running transcript is O(1) state per flow.
  constexpr std::size_t kPackets = 150'000;
  PipelineOptions opt;
  opt.shards = 1;
  opt.appraisers = 1;
  opt.drop_on_full = false;
  PeraPipeline pipe("sw1", router_factory(), root_key(), opt);
  pipe.start();
  const dataplane::RawPacket pkt = make_tcp_packet({});
  const nac::PolicyHeader hdr = make_policy_header(/*out_of_band=*/true);
  for (std::size_t i = 0; i < kPackets; ++i) (void)pipe.submit(pkt, &hdr);
  pipe.stop();
  const std::map<std::uint64_t, FlowVerdict>& verdicts =
      pipe.appraiser()->verdicts();
  ASSERT_EQ(verdicts.size(), 1u);
  const FlowVerdict& v = verdicts.begin()->second;
  EXPECT_TRUE(v.ok);
  EXPECT_EQ(v.records, kPackets);
  EXPECT_EQ(v.signature_failures, 0u);
}

TEST(PipelineLongFlow, FoldFlowOverAMillionRecords) {
  constexpr std::size_t kRecords = 1'000'000;
  std::vector<AppraisedRecord> records;
  records.reserve(kRecords);
  FlowFold in_order(nac::CompositionMode::kChained);
  for (std::size_t i = 0; i < kRecords; ++i) {
    in_order.add(synthetic_record(i));
  }
  // Hand fold_flow the records newest first: it must restore seq order.
  for (std::size_t i = kRecords; i-- > 0;) {
    records.push_back(synthetic_record(i));
  }
  const FlowVerdict v =
      fold_flow(7, records, nac::CompositionMode::kChained);
  EXPECT_TRUE(v.ok);
  EXPECT_EQ(v.records, kRecords);
  EXPECT_EQ(v.transcript, in_order.finish(7).transcript);
}

// --- buffer pool ----------------------------------------------------------------

TEST(PipelinePool, RecycleRingReusesBuffersUnderBackpressure) {
  // With a tiny ring the dispatcher outpaces the worker, waits, and by
  // then spent buffers are available for capacity reuse.
  PipelineOptions opt;
  opt.shards = 1;
  opt.queue_capacity = 8;
  opt.drop_on_full = false;
  opt.appraisers = 1;
  PeraPipeline pipe("sw1", router_factory(), root_key(), opt);
  pipe.start();
  const nac::PolicyHeader hdr = make_policy_header(/*out_of_band=*/true);
  for (const dataplane::RawPacket& raw : make_stream(300, 8)) {
    EXPECT_TRUE(pipe.submit(raw, &hdr));
  }
  pipe.stop();
  const PipelineReport rep = pipe.report();
  EXPECT_EQ(rep.processed(), 300u);
  EXPECT_GT(rep.pool_reused, 0u);
  EXPECT_EQ(rep.pool_reused + rep.pool_fresh, 300u);
  EXPECT_EQ(pipe.appraiser()->flows(), 8u);
}

// --- stage profiler -------------------------------------------------------------

TEST(PipelineProfiler, AttributesThreadTimeToStages) {
  namespace prof = obs::profiler;
  prof::set_enabled(true);
  prof::reset();
  {
    const prof::ScopedThread reg("test", prof::Stage::kIdle);
    prof::enter(prof::Stage::kShardWork);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      const prof::ScopedStage verify(prof::Stage::kWotsVerify);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }  // restores kShardWork
    prof::enter(prof::Stage::kMerge);
  }
  const prof::StageTotals t = prof::totals();
  const auto ns_of = [&t](prof::Stage s) {
    return t.wall_ns[static_cast<std::size_t>(s)];
  };
  EXPECT_GE(ns_of(prof::Stage::kShardWork), 2'000'000u);
  EXPECT_GE(ns_of(prof::Stage::kWotsVerify), 1'000'000u);
  EXPECT_GT(t.window_ns, 0u);
  // The invariant the bench gate relies on: a registered thread is always
  // inside exactly one stage, so the stage sums cover its whole window.
  EXPECT_GE(t.accounted_share(), 0.95);
  EXPECT_LE(t.accounted_ns(), t.window_ns + 1'000'000u);  // clock slop

  const std::string json = prof::to_json();
  for (const char* key :
       {"dispatch", "ring_transit", "shard_work", "reassembly",
        "wots_verify", "merge", "idle", "accounted_share"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_NE(json.find("\"role\":\"test\""), std::string::npos);

  prof::reset();
  EXPECT_EQ(prof::totals().window_ns, 0u);
  prof::set_enabled(false);
}

TEST(PipelineProfiler, DisabledProfilerRecordsNothing) {
  namespace prof = obs::profiler;
  prof::set_enabled(false);
  prof::reset();
  {
    const prof::ScopedThread reg("ghost", prof::Stage::kIdle);
    prof::enter(prof::Stage::kShardWork);  // all no-ops while disabled
  }
  EXPECT_EQ(prof::totals().window_ns, 0u);
  EXPECT_EQ(prof::totals().accounted_share(), 1.0);
}

TEST(PipelineProfiler, ResetInvalidatesLiveThreadCursors) {
  namespace prof = obs::profiler;
  prof::set_enabled(true);
  prof::reset();
  prof::thread_begin("stale", prof::Stage::kIdle);
  prof::reset();  // bumps the generation: the cursor must go quiet
  prof::enter(prof::Stage::kShardWork);
  prof::thread_end();
  EXPECT_EQ(prof::totals().window_ns, 0u);
  prof::set_enabled(false);
}

// --- report ---------------------------------------------------------------------

TEST(PipelineReporting, SimThroughputScalesWithShards) {
  // The simulated clock is the methodology-level throughput metric: the
  // dispatcher is the serial fraction, shards process in parallel.
  const std::vector<dataplane::RawPacket> stream = make_stream(256, 32);
  const nac::PolicyHeader hdr = make_policy_header(/*out_of_band=*/true);
  const RunResult one = run_pipeline(1, stream, hdr);
  const RunResult four = run_pipeline(4, stream, hdr);
  EXPECT_GT(one.report.sim_packets_per_sec, 0.0);
  EXPECT_GT(four.report.sim_packets_per_sec,
            2.0 * one.report.sim_packets_per_sec);
  EXPECT_GE(one.report.latency_percentile(0.99),
            one.report.latency_percentile(0.50));
}

}  // namespace
}  // namespace pera::pipeline
