// perfbench — the repository's end-to-end benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--small] [--trace-dir DIR]
//
// Workloads: e2e_fresh, pipeline_cached, pipeline_rule_churn (README.md
// in this directory says what each stresses and why). The last stdout
// line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
// are the per-layer ones from a traced run plus a serial replay. Any
// failed check makes the exit code nonzero.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "bench.h"
#include "crypto/sha256_backend.h"

namespace perfbench {

void Outcome::fail(const std::string& why) {
  correct = false;
  static int printed = 0;
  if (printed++ < 10) std::fprintf(stderr, "perfbench: check failed: %s\n",
                                   why.c_str());
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  const std::size_t idx = rank == 0 ? 0 : std::min(rank, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

double median(std::vector<double> v) { return percentile(v, 0.5); }

void PassSeries::add(std::uint64_t ops, double wall_s, double cpu_s,
                     std::vector<double>& latencies_us) {
  ops_per_s.push_back(static_cast<double>(ops) / wall_s);
  p50_us.push_back(percentile(latencies_us, 0.50));
  p99_us.push_back(percentile(latencies_us, 0.99));
  total_ops += ops;
  total_cpu_s += cpu_s;
}

void PassSeries::report(Outcome& out) {
  out.add("setup_s", median(setup_s), "s");
  out.add("ops_per_s", percentile(ops_per_s, 1.0 - kBestShare), "1/s");
  out.add("latency_p50_us", percentile(p50_us, kBestShare), "us");
  out.add("latency_p99_us", median(p99_us), "us");
  out.add("cpu_us_per_op",
          total_cpu_s * 1e6 /
              static_cast<double>(std::max<std::uint64_t>(total_ops, 1)),
          "us");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
}

namespace {

/// How a per-layer metric is read off the traces.
enum class From : std::uint8_t {
  kSelfPerCall,    // mean self time of the named span, ns
  kTotalPerCallMs, // mean duration of the named span, ms
  kCallsPerOp,     // live span calls per traced op
  kShareOfWall,    // live span time / traced wall time
  kGauge,          // value the workload measured directly
};

struct LayerMetric {
  const char* name;
  const char* unit;
  From from;
  const char* span;  // span or gauge name
};

// Every per-layer metric, in BENCHMARK.json order. A layer the workload
// does not run reports 0.
constexpr LayerMetric kLayerMetrics[] = {
    {"pipeline.submit_ns", "ns", From::kSelfPerCall, "pipeline.submit"},
    {"pipeline.flow_hash_ns", "ns", From::kSelfPerCall, "pipeline.flow_hash"},
    {"pipeline.stop_ms", "ms", From::kTotalPerCallMs, "pipeline.stop"},
    {"pipeline.update_table_ns", "ns", From::kSelfPerCall,
     "pipeline.update_table"},
    {"pipeline.appraise_record_ns", "ns", From::kSelfPerCall,
     "pipeline.appraise_record"},
    {"pipeline.fold_ns_per_record", "ns", From::kGauge, "fold_ns_per_record"},
    {"dataplane.parse_ns", "ns", From::kSelfPerCall, "dataplane.parse"},
    {"dataplane.pipeline_ns", "ns", From::kSelfPerCall, "dataplane.pipeline"},
    {"dataplane.deparse_ns", "ns", From::kSelfPerCall, "dataplane.deparse"},
    {"dataplane.route_entries", "count", From::kGauge, "route_entries"},
    {"pera.process_ns", "ns", From::kSelfPerCall, "pera.process"},
    {"pera.create_hit_ns", "ns", From::kSelfPerCall, "pera.create_hit"},
    {"pera.create_miss_ns", "ns", From::kSelfPerCall, "pera.create_miss"},
    {"pera.measure_ns.program", "ns", From::kSelfPerCall,
     "pera.measure.program"},
    {"pera.measure_ns.tables", "ns", From::kSelfPerCall,
     "pera.measure.tables"},
    {"pera.cache_hit_ratio", "ratio", From::kGauge, "cache_hit_ratio"},
    {"pera.cache_entries", "count", From::kGauge, "cache_entries"},
    {"crypto.sign_ns", "ns", From::kSelfPerCall, "crypto.sign"},
    {"crypto.verify_ns", "ns", From::kSelfPerCall, "crypto.verify"},
    {"copland.encode_ns", "ns", From::kSelfPerCall, "copland.encode"},
    {"copland.decode_ns", "ns", From::kSelfPerCall, "copland.decode"},
    {"copland.digest_ns", "ns", From::kSelfPerCall, "copland.digest"},
    {"copland.evidence_bytes", "bytes", From::kGauge, "evidence_bytes"},
    {"net.send_evidence_ns", "ns", From::kSelfPerCall, "net.send_evidence"},
    {"net.on_bytes_ns", "ns", From::kSelfPerCall, "net.on_bytes"},
    {"net.read_calls_per_round", "count", From::kCallsPerOp, "net.read"},
    {"net.write_calls_per_round", "count", From::kCallsPerOp, "net.write"},
    {"net.bytes_in_per_round", "bytes", From::kGauge, "bytes_in_per_round"},
    {"net.bytes_out_per_round", "bytes", From::kGauge, "bytes_out_per_round"},
    {"net.poll_wait_share", "ratio", From::kShareOfWall, "net.poll"},
    {"ra.challenge_ns", "ns", From::kSelfPerCall, "ra.challenge"},
    {"ra.accept_ns", "ns", From::kSelfPerCall, "ra.accept"},
};

double gauge(const std::vector<Metric>& gauges, const char* name) {
  for (const Metric& g : gauges) {
    if (g.name == name) return g.value;
  }
  return 0.0;
}

void print_host(const Options& opt) {
  std::printf(
      "host: {\"nproc\": %u, \"sha256_backend\": \"%s\", \"compiler\": "
      "\"%s\", \"build_type\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d}\n",
      std::thread::hardware_concurrency(),
      pera::crypto::engine::active().name, PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE, opt.workload.c_str(),
      static_cast<unsigned long long>(opt.seed), opt.seconds,
      opt.trace ? 1 : 0);
}

void print_result(const Outcome& out) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload e2e_fresh|pipeline_cached|"
               "pipeline_rule_churn --seed N --seconds S --trace 0|1 "
               "[--small] [--trace-dir DIR]\n");
  return 2;
}

}  // namespace

void finish_trace(const Options& opt, const Tracer& live,
                  const Tracer& replay, std::uint64_t replay_ops,
                  const std::vector<std::string>& live_path,
                  const std::vector<std::string>& replay_path,
                  const TraceTotals& totals,
                  const std::vector<Metric>& gauges, Outcome& out) {
  const auto live_layers = live.layers();
  const auto replay_layers = replay.layers();
  const auto ops = static_cast<double>(std::max<std::uint64_t>(
      totals.traced_ops, 1));

  // A span name recorded live wins over the same name in the replay.
  const auto find = [&](const char* span) -> const Tracer::LayerStat* {
    if (auto it = live_layers.find(span); it != live_layers.end()) {
      return &it->second;
    }
    if (auto it = replay_layers.find(span); it != replay_layers.end()) {
      return &it->second;
    }
    return nullptr;
  };

  for (const LayerMetric& m : kLayerMetrics) {
    double v = 0.0;
    const Tracer::LayerStat* l = find(m.span);
    switch (m.from) {
      case From::kSelfPerCall:
        if (l != nullptr && l->calls > 0) {
          v = static_cast<double>(l->self_ns) / static_cast<double>(l->calls);
        }
        break;
      case From::kTotalPerCallMs:
        if (l != nullptr && l->calls > 0) {
          v = static_cast<double>(l->total_ns) /
              static_cast<double>(l->calls) / 1e6;
        }
        break;
      case From::kCallsPerOp:
        if (auto it = live_layers.find(m.span); it != live_layers.end()) {
          v = static_cast<double>(it->second.calls) / ops;
        }
        break;
      case From::kShareOfWall:
        if (auto it = live_layers.find(m.span);
            it != live_layers.end() && totals.traced_wall_s > 0) {
          v = static_cast<double>(it->second.total_ns) /
              (totals.traced_wall_s * 1e9);
        }
        break;
      case From::kGauge:
        v = gauge(gauges, m.span);
        break;
    }
    out.add(m.name, v, m.unit);
  }

  double layer_sum = 0.0;
  for (const std::string& name : live_path) {
    if (auto it = live_layers.find(name); it != live_layers.end()) {
      layer_sum += static_cast<double>(it->second.self_ns) / ops;
    }
  }
  const auto rops =
      static_cast<double>(std::max<std::uint64_t>(replay_ops, 1));
  for (const std::string& name : replay_path) {
    if (auto it = replay_layers.find(name); it != replay_layers.end()) {
      layer_sum += static_cast<double>(it->second.self_ns) / rops;
    }
  }
  const double wall_ns_per_op = totals.traced_wall_s * 1e9 / ops;
  const double untraced_ns_per_op =
      totals.untraced_ops == 0
          ? 0.0
          : totals.untraced_wall_s * 1e9 /
                static_cast<double>(totals.untraced_ops);
  out.add("trace.wall_ns_per_op", wall_ns_per_op, "ns");
  out.add("trace.untraced_wall_ns_per_op", untraced_ns_per_op, "ns");
  out.add("trace.overhead_ratio",
          untraced_ns_per_op > 0 ? wall_ns_per_op / untraced_ns_per_op : 0.0,
          "ratio");
  out.add("trace.layer_sum_ns_per_op", layer_sum, "ns");
  out.add("trace.cpu_us_per_op", totals.traced_cpu_s * 1e6 / ops, "us");

  std::fprintf(stderr,
               "perfbench: traced %llu ops (%zu live spans, %llu dropped), "
               "replayed %llu ops (%zu spans)\n",
               static_cast<unsigned long long>(totals.traced_ops),
               live.size(), static_cast<unsigned long long>(live.dropped()),
               static_cast<unsigned long long>(replay_ops), replay.size());
  if (!opt.trace_dir.empty()) {
    const std::string stem = opt.trace_dir + "/" + opt.workload;
    if (!live.write(stem + ".live.tsv") ||
        !replay.write(stem + ".replay.tsv")) {
      std::fprintf(stderr, "perfbench: cannot write spans under %s\n",
                   opt.trace_dir.c_str());
    }
  }
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
      have_trace = true;
    } else if (arg == "--trace-dir" && has_value) {
      opt.trace_dir = argv[++i];
    } else if (arg == "--small") {
      opt.small = true;
    } else {
      return usage();
    }
  }
  if (opt.workload.empty() || !have_trace || !(opt.seconds > 0)) {
    return usage();
  }

  print_host(opt);
  Outcome out;
  try {
    if (opt.workload == "e2e_fresh") {
      out = run_e2e_fresh(opt);
    } else if (opt.workload == "pipeline_cached") {
      out = run_pipeline_workload(opt, /*rule_churn=*/false);
    } else if (opt.workload == "pipeline_rule_churn") {
      out = run_pipeline_workload(opt, /*rule_churn=*/true);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   opt.workload.c_str());
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (out.attempted == 0) out.fail("no operation was attempted");
  if (out.failed > 0) out.correct = false;
  print_result(out);
  return out.correct ? 0 : 1;
}
