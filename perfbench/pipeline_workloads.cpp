// pipeline_cached and pipeline_rule_churn: the sharded PERA pipeline with
// its in-pipeline appraiser, fed from the benchmark thread.
//
// Each pass builds a PeraPipeline (1 shard, 1 appraiser worker: with the
// benchmark thread that is 3 threads), submits the same seeded stream of
// minimum-size TCP packets over 4096 flows, stops it and checks every
// verdict. The first pass is a discarded warm-up. set-up is the pipeline's
// construction and start(); a pass's wall window runs from the first
// submit until stop() has returned with all verdicts in, which is also
// when each packet's verdict becomes visible, so a packet's latency is
// that moment minus its submit time.
#include <algorithm>
#include <cstdio>
#include <map>

#include "bench.h"
#include "inputs.h"
#include "pera/pera_switch.h"
#include "pipeline/pipeline.h"
#include "pipeline/reassembler.h"
#include "ra/roles.h"
#include "replay.h"

namespace perfbench {

namespace {

namespace pd = pera::dataplane;
namespace pp = pera::pipeline;

constexpr char kPlace[] = "sw1";
constexpr std::size_t kUpdateEvery = 1024;    // packets per added route
constexpr std::size_t kLatencyStride = 16;    // every 16th packet is timed
constexpr std::size_t kLiveSpanCap = 500'000;

struct Inputs {
  std::vector<pd::RawPacket> flows;  // one frame per flow
  std::vector<std::uint32_t> stream; // flow index of each packet
  pera::nac::PolicyHeader header;
  std::vector<pd::TableEntry> routes;  // rule churn: one per update
  Digest root_key{};
};

Inputs make_inputs(const Options& opt, bool churn) {
  const std::size_t flows = opt.small ? 256 : 4096;
  const std::size_t packets = opt.small ? 4096 : 32768;
  std::mt19937_64 rng(opt.seed);
  Inputs in;
  in.flows = make_flow_packets(rng, flows);
  in.stream.reserve(packets);
  for (std::size_t i = 0; i < packets; ++i) {
    in.stream.push_back(static_cast<std::uint32_t>(rng() % flows));
  }
  // The relying party that compiled the policy issued its one nonce.
  pera::ra::RelyingParty rp("rp", opt.seed);
  const pera::nac::DetailMask detail =
      churn ? (pera::nac::EvidenceDetail::kProgram |
               pera::nac::EvidenceDetail::kTables)
            : pera::nac::mask_of(pera::nac::EvidenceDetail::kProgram);
  in.header = make_policy_header(detail, rp.challenge());
  if (churn) {
    for (std::size_t i = kUpdateEvery; i < packets; i += kUpdateEvery) {
      in.routes.push_back(make_host_route(rng));
    }
  }
  in.root_key = seeded_key(opt.seed, "pipeline-root");
  return in;
}

pp::PipelineOptions pipeline_options() {
  pp::PipelineOptions o;
  o.shards = 1;
  o.appraisers = 1;
  o.queue_capacity = 4096;
  o.drop_on_full = false;  // lossless: the dispatcher waits on a full ring
  o.pera.cache_enabled = true;
  o.pera.oob_batch_size = 1;
  o.pera.composition = pera::nac::CompositionMode::kChained;
  o.appraise_mode = pera::nac::CompositionMode::kChained;
  return o;
}

pp::ProgramFactory router_factory() {
  return [] { return pd::make_router(); };
}

/// Shard 0's device key, as PeraPipeline derives it.
Digest shard_key(const Inputs& in, const pp::PipelineOptions& o) {
  return pp::PeraPipeline::shard_keys(in.root_key, o.shard_key_label, 1)[0];
}

/// The serial reference: the stream through one PeraSwitch keyed like
/// shard 0, appraised by the serial ShardedAppraiser.
Digest reference_summary(const Inputs& in, const pp::PipelineOptions& o) {
  pera::crypto::HmacSigner signer(shard_key(in, o));
  pera::pera::PeraSwitch sw(kPlace, pd::make_router(), signer, o.pera);
  pp::ShardedAppraiser appraiser(in.root_key, o.shard_key_label, 1,
                                 o.appraise_mode);
  for (std::size_t i = 0; i < in.stream.size(); ++i) {
    const pd::RawPacket& raw = in.flows[in.stream[i]];
    pera::pera::PeraResult res = sw.process(raw, &in.header, nullptr);
    for (pera::pera::OutOfBandEvidence& ev : res.out_of_band) {
      pp::EvidenceItem item;
      item.flow = pp::flow_hash(pp::extract_flow_key(raw));
      item.seq = i;
      item.evidence = std::move(ev.evidence);
      item.nonce = ev.nonce;
      appraiser.ingest(item);
    }
  }
  return pp::ShardedAppraiser::summary(appraiser.appraise());
}

struct PassResult {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t packets = 0;
  std::vector<Metric> gauges;  // cache and route-table state at the end
};

PassResult run_pass(const Inputs& in, const pp::PipelineOptions& o,
                    const Digest* reference, Tracer& live,
                    std::vector<double>* latencies_us, Outcome& out) {
  PassResult pr;
  const std::int64_t s0 = now_ns();
  pp::PeraPipeline pipe(kPlace, router_factory(), in.root_key, o);
  pipe.start();
  const std::int64_t s1 = now_ns();
  pr.setup_s = static_cast<double>(s1 - s0) * 1e-9;

  const std::size_t n = in.stream.size();
  std::vector<std::int64_t> submitted_at;
  submitted_at.reserve(n / kLatencyStride + 1);
  std::uint64_t rejected = 0;
  std::size_t next_route = 0;

  const double cpu0 = cpu_seconds();
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0 && i % kUpdateEvery == 0 && next_route < in.routes.size()) {
      const Tracer::Scope s(live, "pipeline.update_table", i);
      pipe.update_table("route", in.routes[next_route++]);
    }
    if (i % kLatencyStride == 0) submitted_at.push_back(now_ns());
    const Tracer::Scope s(live, "pipeline.submit", i);
    if (!pipe.submit(in.flows[in.stream[i]], &in.header)) ++rejected;
  }
  {
    const Tracer::Scope s(live, "pipeline.stop", n);
    pipe.stop();
  }
  const std::int64_t t1 = now_ns();
  pr.cpu_s = cpu_seconds() - cpu0;
  pr.wall_s = static_cast<double>(t1 - t0) * 1e-9;
  pr.packets = n;
  if (latencies_us != nullptr) {
    for (const std::int64_t at : submitted_at) {
      latencies_us->push_back(static_cast<double>(t1 - at) / 1e3);
    }
  }

  // Checks: nothing dropped, one record per packet, every flow ok, and
  // (cached) the same appraisal summary as the serial reference.
  const pp::PipelineReport rep = pipe.report();
  const pp::ParallelAppraiser& app = *pipe.appraiser();
  std::uint64_t failed = rejected + rep.dropped + app.dropped();
  if (rejected + rep.dropped > 0) out.fail("pipeline dropped packets");
  if (app.records() != n) {
    out.fail("appraised records " + std::to_string(app.records()) +
             " != packets " + std::to_string(n));
    failed += n > app.records() ? n - app.records() : 0;
  }
  for (const auto& [flow, v] : app.verdicts()) {
    if (!v.ok) failed += v.records;
  }
  if (failed > 0) out.fail("a flow's verdict is not ok");
  if (reference != nullptr && app.summary() != *reference) {
    out.fail("appraisal summary differs from the serial reference");
    failed = n;
  }
  out.failed += std::min<std::uint64_t>(failed, n);

  const pera::pera::PeraSwitch& sw = pipe.worker(0).pera_switch();
  const pera::pera::CacheStats& cache = sw.cache().stats();
  std::size_t routes = 0;
  for (const auto& table : sw.dataplane().program().tables()) {
    if (table->name() == "route") routes = table->entry_count();
  }
  pr.gauges = {
      {"cache_hit_ratio", cache.hit_rate(), "ratio"},
      {"cache_entries", static_cast<double>(sw.cache().size()), "count"},
      {"route_entries", static_cast<double>(routes), "count"},
  };
  return pr;
}

}  // namespace

Outcome run_pipeline_workload(const Options& opt, bool rule_churn) {
  Outcome out;
  const Inputs in = make_inputs(opt, rule_churn);
  const pp::PipelineOptions o = pipeline_options();
  // Cache hits make every pass's verdicts a pure function of the stream,
  // so a serial run fixes them. Under rule churn they depend on when the
  // shard applies each update, so only the per-flow checks apply.
  Digest reference{};
  if (!rule_churn) reference = reference_summary(in, o);
  const Digest* ref = rule_churn ? nullptr : &reference;

  Tracer live(opt.trace ? kLiveSpanCap : 0);
  // A discarded warm-up pass; its checks and ops still count.
  out.attempted += run_pass(in, o, ref, live, nullptr, out).packets;

  PassSeries series;
  std::vector<double> latencies_us;
  TraceTotals totals;
  std::vector<Metric> gauges;
  std::size_t live_spans_per_pass = 0;
  const std::size_t min_passes = opt.small ? 2 : 3;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  for (std::size_t pass = 0;
       pass < min_passes || now_ns() < deadline; ++pass) {
    // Traced runs alternate untraced and traced passes, so both see the
    // same host conditions; the traced ones stop when the span budget
    // would overflow.
    const bool traced =
        opt.trace && pass % 2 == 1 &&
        live.size() + live_spans_per_pass < kLiveSpanCap;
    const std::size_t spans_before = live.size();
    live.set_enabled(traced);
    const PassResult pr = run_pass(in, o, ref, live,
                                   opt.trace ? nullptr : &latencies_us, out);
    live.set_enabled(false);
    std::fprintf(stderr,
                 "pass %zu%s: %.0f ops/s, %.3f us cpu/op, p50 %.1f us, "
                 "p99 %.1f us\n",
                 pass, traced ? " (traced)" : "",
                 static_cast<double>(pr.packets) / pr.wall_s,
                 pr.cpu_s * 1e6 / static_cast<double>(pr.packets),
                 percentile(latencies_us, 0.50),
                 percentile(latencies_us, 0.99));
    out.attempted += pr.packets;
    series.setup_s.push_back(pr.setup_s);
    if (traced) {
      live_spans_per_pass = live.size() - spans_before;
      totals.traced_ops += pr.packets;
      totals.traced_wall_s += pr.wall_s;
      totals.traced_cpu_s += pr.cpu_s;
      gauges = pr.gauges;
    } else {
      totals.untraced_ops += pr.packets;
      totals.untraced_wall_s += pr.wall_s;
      series.add(pr.packets, pr.wall_s, pr.cpu_s, latencies_us);
      latencies_us.clear();
    }
  }

  if (!opt.trace) {
    series.report(out);
    return out;
  }

  // Serial replay of the stream's first packets, updates included.
  ReplaySetup rs;
  rs.places = {kPlace};
  rs.device_keys = {shard_key(in, o)};
  rs.verify_root = in.root_key;
  rs.verify_label = o.shard_key_label;
  rs.verify_keys = 1;
  rs.factory = router_factory();
  rs.config = o.pera;
  rs.header = in.header;
  const std::size_t replay_n =
      std::min<std::size_t>(in.stream.size(), opt.small ? 1024 : 16384);
  std::vector<ReplayRound> rounds(replay_n);
  std::size_t next_route = 0;
  for (std::size_t i = 0; i < replay_n; ++i) {
    rounds[i].packet = &in.flows[in.stream[i]];
    rounds[i].nonce = in.header.nonce;
    if (i > 0 && i % kUpdateEvery == 0 && next_route < in.routes.size()) {
      rounds[i].update = &in.routes[next_route++];
    }
  }
  Tracer replay_spans(replay_n * 24 + 1024);
  replay_spans.set_enabled(true);
  const std::uint64_t replayed = replay(replay_spans, rs, rounds, gauges, out);

  // One packet's path: the dispatcher's submit (flow hash and ring push,
  // or the wait for a free slot) and route updates on the benchmark
  // thread, then the shard and appraiser layers from the replay.
  finish_trace(opt, live, replay_spans, replayed,
               {"pipeline.submit", "pipeline.update_table"},
               {"pera.update_table", "dataplane.parse", "dataplane.pipeline",
                "pera.create_hit", "pera.create_miss", "copland.encode",
                "dataplane.deparse", "pipeline.appraise_record",
                "pipeline.fold"},
               totals, gauges, out);
  return out;
}

}  // namespace perfbench
