// Shared plumbing of the end-to-end benchmark: options, the result every
// workload fills in, process resource probes and small statistics.
//
// The benchmark measures the program only from outside: every number comes
// from timing calls into public functions of src/ modules, from the
// program's own public reports, or from getrusage().
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny passes and inputs, for the smoke test.
  bool small = false;
  /// Directory the traced run writes its span files into ("" = none).
  std::string trace_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload reports: correctness, op counts and metrics by name.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  /// Record a failed check (printed to stderr, first few only).
  void fail(const std::string& why);
  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
};

/// Process user + system CPU seconds so far (all threads).
[[nodiscard]] double cpu_seconds();
/// Peak resident set size of the process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Nearest-rank percentile (p in [0,1]); reorders `v`. 0 when empty.
[[nodiscard]] double percentile(std::vector<double>& v, double p);
[[nodiscard]] double median(std::vector<double> v);

/// End-to-end figures per measured pass. Other tenants of the host only
/// ever slow a pass down, and the host's speed drifts over tens of
/// seconds, so a run's median pass follows the host while its best passes
/// follow the program. A run therefore reports throughput and p50 latency
/// at their best decile over the passes (the 90th percentile of rates, the
/// 10th of latencies); p99 latency as the median pass, because the tail
/// is the disturbed rounds and a best decile would hide it; CPU per op
/// over all passes together; and set-up time as the median repetition.
struct PassSeries {
  static constexpr double kBestShare = 0.1;

  std::vector<double> setup_s;
  std::vector<double> ops_per_s;
  std::vector<double> p50_us;
  std::vector<double> p99_us;
  std::uint64_t total_ops = 0;
  double total_cpu_s = 0.0;

  /// Add one pass; consumes (reorders) its latency samples.
  void add(std::uint64_t ops, double wall_s, double cpu_s,
           std::vector<double>& latencies_us);
  /// Every end-to-end metric, as above, plus peak RSS.
  void report(Outcome& out);
};

/// Traced runs of every workload share this tail: live spans from the
/// benchmark thread, replay spans from the serial replay, and the run
/// totals that put them per op.
struct TraceTotals {
  std::uint64_t untraced_ops = 0;
  double untraced_wall_s = 0.0;
  std::uint64_t traced_ops = 0;
  double traced_wall_s = 0.0;
  double traced_cpu_s = 0.0;
};

/// Turn the two tracers into every per-layer metric (zero for layers the
/// workload does not run) and write the span files. `live_path` and
/// `replay_path` name the disjoint layers whose self times add up to one
/// op of this workload; `replay_ops` is the number of replayed ops.
void finish_trace(const Options& opt, const Tracer& live,
                  const Tracer& replay, std::uint64_t replay_ops,
                  const std::vector<std::string>& live_path,
                  const std::vector<std::string>& replay_path,
                  const TraceTotals& totals,
                  const std::vector<Metric>& gauges, Outcome& out);

// Workload entry points.
Outcome run_pipeline_workload(const Options& opt, bool rule_churn);
Outcome run_e2e_fresh(const Options& opt);

}  // namespace perfbench
