// Sharded-pipeline throughput benchmark — with in-pipeline parallel
// appraisal and per-stage wall-clock attribution.
//
// Sweeps the shard count (default 1/2/4/8; each cell also runs one
// appraiser worker per shard), evidence cache (on/off) and out-of-band
// signing batch (1/32) over a fixed multi-flow packet stream, emitting
// BENCH_throughput.json. Two measurements per cell:
//
//   * simulated packets/sec — the methodology-level number. The
//     dispatcher clock (serial fraction) and per-shard pipe clocks use
//     the same deterministic CostModel as the rest of the reproduction,
//     so this scales with shards regardless of host core count.
//   * wall-clock packets/sec — the host-dependent number. Unlike the
//     pre-appraiser bench, the wall window now covers the *whole* job:
//     dispatch + shard processing + concurrent appraisal + verdict
//     merge, so it is an end-to-end number, not a produce-only number.
//
// Asserted gates (exit nonzero on violation; docs/PERFORMANCE.md has the
// full rationale):
//   * sim scaling   — max-shard sim pps >= 3x the 1-shard sim pps, per
//                     (cache, batch) combo; checked when the sweep covers
//                     shards 1 and >= 8. Host-independent.
//   * wall scaling  — host-aware: on a C-core host the same ratio must
//                     reach min(3.0, C/2.0); on 1-2 cores that degrades
//                     to a no-collapse floor of 0.5 (threading overhead
//                     must not halve throughput when there is nothing to
//                     run in parallel on).
//   * bit-identity  — every cell's appraisal summary digest must be
//                     identical across shard counts for a fixed
//                     (cache, batch); checked whenever the sweep covers
//                     >= 2 shard counts.
//   * attribution   — with --profile-json, every cell's profiler
//                     accounted_share must be >= 0.95.
//
// Flags (usage in main): --shards, --packets, --flows, --warmup and
// --repeat (each cell reports its median pass by wall pps), --scheme,
// --pin, --profile-json, plus bench/harness.h's common ones.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"
#include "obs/profiler.h"
#include "pipeline/affinity.h"
#include "pipeline/pipeline.h"
#include "pipeline/reassembler.h"

namespace {

using namespace pera;
using pipeline::PeraPipeline;
using pipeline::PipelineOptions;
using pipeline::PipelineReport;
namespace prof = obs::profiler;

struct SweepConfig {
  std::size_t packets = 4096;
  std::size_t flows = 64;
  std::vector<std::size_t> shard_counts = {1, 2, 4, 8};
  std::size_t warmup = 0;  // discarded passes per cell
  std::size_t repeat = 1;  // measured passes; median reported
  crypto::SignatureScheme scheme = crypto::SignatureScheme::kHmacDeviceKey;
  bool pin = false;
  std::string profile_path;  // non-empty = profiler on
};

std::vector<dataplane::RawPacket> make_stream(std::size_t packets,
                                              std::size_t flows) {
  std::vector<dataplane::RawPacket> out;
  out.reserve(packets);
  for (std::size_t i = 0; i < packets; ++i) {
    dataplane::PacketSpec spec;
    spec.sport = static_cast<std::uint16_t>(40000 + i % flows);
    spec.ip_src = 0x0a000100 + static_cast<std::uint32_t>(i % flows);
    out.push_back(dataplane::make_tcp_packet(spec));
  }
  return out;
}

nac::PolicyHeader make_policy_header() {
  nac::HopInstruction inst;
  inst.detail = nac::mask_of(nac::EvidenceDetail::kProgram);
  inst.sign_evidence = true;
  inst.wildcard = true;
  inst.out_of_band = true;
  nac::CompiledPolicy pol;
  pol.hops = {inst};
  pol.appraiser = "Appraiser";
  return nac::make_header(pol, crypto::Nonce{crypto::sha256("bench")}, true);
}

struct CellResult {
  std::size_t shards = 0;
  bool cache = false;
  std::size_t batch = 0;
  PipelineReport report;
  double wall_pps = 0.0;
  // End-to-end appraisal results (inside the wall window).
  std::size_t appraised_flows = 0;
  std::uint64_t appraised_records = 0;
  std::string summary_hex;  // appraisal summary digest (shard-invariant)
  // Stage attribution for this pass (profiler enabled only).
  double accounted_share = 1.0;
  std::string profile_json;
};

CellResult run_cell(std::size_t shards, bool cache, std::size_t batch,
                    const std::vector<dataplane::RawPacket>& stream,
                    const nac::PolicyHeader& hdr, const SweepConfig& cfg) {
  PipelineOptions opt;
  opt.shards = shards;
  opt.queue_capacity = 4096;
  opt.drop_on_full = false;
  opt.pera.cache_enabled = cache;
  opt.pera.oob_batch_size = batch;
  opt.appraisers = shards;  // one appraiser worker per shard
  opt.scheme = cfg.scheme;
  opt.pin_cores = cfg.pin;
  PeraPipeline pipe("sw1", [] { return dataplane::make_router(); },
                    crypto::sha256("bench-root"), opt);

  const bool profiling = prof::enabled();
  if (profiling) prof::reset();

  const auto t0 = std::chrono::steady_clock::now();
  {
    // The submitting thread is the dispatch stage; its submit() calls
    // attribute to dispatch / ring_transit once registered.
    const prof::ScopedThread dispatcher("dispatch", prof::Stage::kIdle);
    pipe.start();
    for (const dataplane::RawPacket& raw : stream) {
      (void)pipe.submit(raw, &hdr);
    }
    pipe.stop();  // defined drain order: shards flush, appraiser merges
  }
  const auto t1 = std::chrono::steady_clock::now();

  CellResult cell;
  cell.shards = shards;
  cell.cache = cache;
  cell.batch = batch;
  cell.report = pipe.report();
  cell.appraised_flows = pipe.appraiser()->flows();
  cell.appraised_records = pipe.appraiser()->records();
  cell.summary_hex = pipe.appraiser()->summary().hex();
  const double wall_s =
      std::chrono::duration_cast<std::chrono::duration<double>>(t1 - t0)
          .count();
  if (wall_s > 0) {
    cell.wall_pps = static_cast<double>(cell.report.processed()) / wall_s;
  }
  if (profiling) {
    cell.accounted_share = prof::totals().accounted_share();
    cell.profile_json = prof::to_json();
    // Fold this cell's totals into the metrics registry before the next
    // cell's reset() clears them; the --metrics-json export then carries
    // pipeline.stage.* accumulated across the whole sweep.
    prof::publish_metrics();
  }
  return cell;
}

// Warmup passes are discarded; of the measured passes the median by
// wall-clock pps is reported, which is what actually varies between runs
// (the simulated numbers and summary digests are deterministic).
CellResult run_cell_repeated(std::size_t shards, bool cache, std::size_t batch,
                             const std::vector<dataplane::RawPacket>& stream,
                             const nac::PolicyHeader& hdr,
                             const SweepConfig& cfg) {
  for (std::size_t i = 0; i < cfg.warmup; ++i) {
    (void)run_cell(shards, cache, batch, stream, hdr, cfg);
  }
  const std::size_t reps = cfg.repeat == 0 ? 1 : cfg.repeat;
  std::vector<CellResult> runs;
  runs.reserve(reps);
  for (std::size_t i = 0; i < reps; ++i) {
    runs.push_back(run_cell(shards, cache, batch, stream, hdr, cfg));
  }
  std::sort(runs.begin(), runs.end(),
            [](const CellResult& a, const CellResult& b) {
              return a.wall_pps < b.wall_pps;
            });
  return runs[runs.size() / 2];
}

/// The asserted gates, each verdict reported through the harness.
void check_gates(bench::Harness& h, const std::vector<CellResult>& cells,
                 const SweepConfig& cfg) {
  if (cells.empty()) return;
  const auto [min_it, max_it] =
      std::ranges::minmax_element(cells, {}, &CellResult::shards);
  const std::size_t min_shards = min_it->shards, max_shards = max_it->shards;
  const auto find_cell = [&cells](std::size_t shards, bool cache,
                                  std::size_t batch) -> const CellResult* {
    const auto it = std::ranges::find_if(cells, [&](const CellResult& c) {
      return c.shards == shards && c.cache == cache && c.batch == batch;
    });
    return it == cells.end() ? nullptr : &*it;
  };

  // Bit-identity: the appraisal summary digest must not depend on the
  // shard count (and hence not on the appraiser count, which tracks it).
  if (min_shards < max_shards) {
    for (const CellResult& c : cells) {
      const CellResult* base = find_cell(min_shards, c.cache, c.batch);
      if (base == nullptr || base == &c) continue;
      h.gate("bit-identity", base->summary_hex == c.summary_hex,
             "cache=%d batch=%zu summary at %zu vs %zu shards",
             c.cache ? 1 : 0, c.batch, min_shards, c.shards);
    }
  }

  // Scaling gates need the full span (1 shard and >= 8 shards).
  if (min_shards == 1 && max_shards >= 8) {
    const unsigned cores = pipeline::core_count();
    // Host-aware wall target: C/2 up to the asserted 3x; a 1-2 core host
    // cannot run threads in parallel, so only guard against collapse.
    const double wall_required =
        cores <= 2 ? 0.5 : std::min(3.0, static_cast<double>(cores) / 2.0);
    for (const bool cache : {true, false}) {
      for (const std::size_t batch : {std::size_t{1}, std::size_t{32}}) {
        const CellResult* lo = find_cell(1, cache, batch);
        const CellResult* hi = find_cell(max_shards, cache, batch);
        if (lo == nullptr || hi == nullptr) continue;
        const double sim_x =
            lo->report.sim_packets_per_sec > 0
                ? hi->report.sim_packets_per_sec /
                      lo->report.sim_packets_per_sec
                : 0.0;
        h.gate("sim-scaling", sim_x >= 3.0,
               "cache=%d batch=%zu sim %zux/1x = %.2fx, need 3.0x",
               cache ? 1 : 0, batch, max_shards, sim_x);
        const double wall_x =
            lo->wall_pps > 0 ? hi->wall_pps / lo->wall_pps : 0.0;
        h.gate("wall-scaling", wall_x >= wall_required,
               "cache=%d batch=%zu wall %.2fx, need %.2fx (host has %u cores)",
               cache ? 1 : 0, batch, wall_x, wall_required, cores);
      }
    }
  }

  // Attribution: the named stages must cover >= 95% of every thread
  // window (otherwise the profiler is lying about where time goes).
  if (!cfg.profile_path.empty()) {
    for (const CellResult& c : cells) {
      h.gate("attribution", c.accounted_share >= 0.95,
             "shards=%zu cache=%d batch=%zu accounted_share %.3f, need 0.95",
             c.shards, c.cache ? 1 : 0, c.batch, c.accounted_share);
    }
  }
}

std::vector<CellResult> run_sweep(const SweepConfig& cfg) {
  const std::vector<dataplane::RawPacket> stream =
      make_stream(cfg.packets, cfg.flows);
  const nac::PolicyHeader hdr = make_policy_header();
  if (!cfg.profile_path.empty()) prof::set_enabled(true);

  std::vector<CellResult> cells;
  for (const std::size_t shards : cfg.shard_counts) {
    for (const bool cache : {true, false}) {
      for (const std::size_t batch : {1u, 32u}) {
        cells.push_back(
            run_cell_repeated(shards, cache, batch, stream, hdr, cfg));
        const CellResult& c = cells.back();
        std::printf(
            "shards=%zu cache=%-3s batch=%-2zu  sim=%10.0f pps  "
            "p50=%6lld ns  p99=%6lld ns  wall=%9.0f pps  flows=%zu\n",
            c.shards, c.cache ? "on" : "off", c.batch,
            c.report.sim_packets_per_sec,
            static_cast<long long>(c.report.latency_percentile(0.50)),
            static_cast<long long>(c.report.latency_percentile(0.99)),
            c.wall_pps, c.appraised_flows);
      }
    }
  }
  return cells;
}

// A Google-Benchmark view of the same cell (wall time per full stream
// pass), so this binary also composes with the standard bench tooling.
void BM_PipelineStream(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  const std::vector<dataplane::RawPacket> stream = make_stream(512, 32);
  const nac::PolicyHeader hdr = make_policy_header();
  const SweepConfig cfg;
  double sim_pps = 0.0;
  for (auto _ : state) {
    const CellResult c = run_cell(shards, true, 1, stream, hdr, cfg);
    sim_pps = c.report.sim_packets_per_sec;
    benchmark::DoNotOptimize(c.report.makespan);
  }
  state.SetItemsProcessed(state.iterations() * 512);
  state.counters["sim_pps"] = sim_pps;
}
BENCHMARK(BM_PipelineStream)->Arg(1)->Arg(2)->Arg(4);

}  // namespace

int main(int argc, char** argv) {
  SweepConfig cfg;
  bench::Harness h(bench::Runner::kGoogleBenchmark, "BENCH_throughput.json");
  h.flag("shards", cfg.shard_counts, "shard counts (default 1,2,4,8)");
  h.flag("packets", cfg.packets, "stream length per cell");
  h.flag("flows", cfg.flows, "distinct 5-tuples in the stream");
  h.flag("warmup", cfg.warmup, "unrecorded passes per cell");
  h.flag("repeat", cfg.repeat,
         "measured passes per cell; the median by wall pps is reported");
  h.flag(
      "scheme",
      [&cfg](std::string_view v) {
        if (v != "hmac" && v != "xmss") return false;
        cfg.scheme = v == "xmss" ? crypto::SignatureScheme::kXmss
                                 : crypto::SignatureScheme::kHmacDeviceKey;
        return true;
      },
      "hmac (default) or xmss (2^height signatures per shard)");
  h.flag("pin", cfg.pin, "pin shard/appraiser threads over the cores");
  h.output("profile-json", cfg.profile_path,
           "enable the stage profiler and write per-cell attribution");
  if (const int rc = h.parse(argc, argv); rc != 0) return rc;

  const std::vector<CellResult> cells = run_sweep(cfg);
  bench::Json record, profile;
  record.field("packets", cfg.packets).field("flows", cfg.flows)
      .field("warmup", cfg.warmup).field("repeat", cfg.repeat)
      .field("host_cores", pipeline::core_count())
      .field("sha256_backend", crypto::engine::active().name)
      .field("scheme", cfg.scheme == crypto::SignatureScheme::kXmss ? "xmss"
                                                                    : "hmac")
      .array("cells");
  profile.array("cells");
  for (const CellResult& c : cells) {
    record.object().field("shards", c.shards).field("cache", c.cache)
        .field("batch", c.batch)
        .field("sim_packets_per_sec", c.report.sim_packets_per_sec, 1)
        .field("sim_latency_p50_ns", c.report.latency_percentile(0.50))
        .field("sim_latency_p99_ns", c.report.latency_percentile(0.99))
        .field("sim_makespan_ns", c.report.makespan)
        .field("wall_packets_per_sec", c.wall_pps, 1)
        .field("processed", c.report.processed())
        .field("dropped", c.report.dropped)
        .field("appraised_flows", c.appraised_flows)
        .field("appraised_records", c.appraised_records)
        .field("pool_reused", c.report.pool_reused)
        .field("pool_fresh", c.report.pool_fresh)
        .field("summary", c.summary_hex).end();
    profile.object().field("shards", c.shards).field("cache", c.cache)
        .field("batch", c.batch).raw("profile", c.profile_json).end();
  }
  h.write(record);
  if (!cfg.profile_path.empty()) h.write(profile, cfg.profile_path);
  check_gates(h, cells, cfg);
  if (h.gates_passed()) h.run_benchmarks();
  return h.finish();
}
