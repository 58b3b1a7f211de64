#include "pera/tuning.h"

#include <algorithm>
#include <cmath>

namespace pera::pera {

namespace {

// Epoch-change rate (per second) of a detail level under the workload —
// the quantitative reading of Fig. 4's inertia axis.
double churn_rate(nac::EvidenceDetail level, const WorkloadProfile& w) {
  switch (level) {
    case nac::EvidenceDetail::kHardware:
      return 0.0;  // never changes
    case nac::EvidenceDetail::kProgram:
      return 1.0 / (30 * 24 * 3600.0);  // reprogrammed ~monthly
    case nac::EvidenceDetail::kTables:
      return w.table_updates_per_second;
    case nac::EvidenceDetail::kProgState:
      return w.register_writes_per_packet * w.packets_per_second;
    case nac::EvidenceDetail::kPacket:
      return w.packets_per_second;  // every packet differs
  }
  return 0.0;
}

// Probability that a cached entry covering `detail` is still valid for the
// next packet: every covered level must not have churned in between.
double cache_hit_rate(nac::DetailMask detail, const WorkloadProfile& w) {
  if (nac::has_detail(detail, nac::EvidenceDetail::kPacket)) return 0.0;
  double hit = 1.0;
  const double per_packet_interval = 1.0 / std::max(w.packets_per_second, 1.0);
  for (nac::EvidenceDetail level : nac::kAllLevels) {
    if (!nac::has_detail(detail, level)) continue;
    const double rate = churn_rate(level, w);
    // P(no change during one inter-packet gap), Poisson arrivals.
    hit *= std::exp(-rate * per_packet_interval);
  }
  return hit;
}

// Cost of creating evidence from scratch (miss path).
double miss_cost_ns(const PeraConfig& config, nac::DetailMask detail) {
  double cost = static_cast<double>(config.costs.cache_lookup_cost);
  for (nac::EvidenceDetail level : nac::kAllLevels) {
    if (nac::has_detail(detail, level)) {
      cost += static_cast<double>(config.costs.measure_cost);
    }
  }
  cost += static_cast<double>(config.costs.sign_cost_hmac);
  cost += static_cast<double>(config.costs.hash_cost_per_kb);  // <=1 KiB
  return cost;
}

}  // namespace

double predict_overhead_ns(const PeraConfig& config,
                           const WorkloadProfile& workload,
                           nac::DetailMask detail) {
  const double sample_fraction =
      1.0 / static_cast<double>(std::uint64_t{1} << config.sampling_log2);
  const double hit =
      config.cache_enabled ? cache_hit_rate(detail, workload) : 0.0;
  const double hit_cost = static_cast<double>(config.costs.cache_lookup_cost);
  const double miss_cost = miss_cost_ns(config, detail);
  const double per_attested_packet = hit * hit_cost + (1.0 - hit) * miss_cost;
  return sample_fraction * per_attested_packet;
}

netsim::SimTime ReattestCadence::interval_for(nac::EvidenceDetail level) const {
  switch (level) {
    case nac::EvidenceDetail::kHardware: return hardware;
    case nac::EvidenceDetail::kProgram: return program;
    case nac::EvidenceDetail::kTables: return tables;
    case nac::EvidenceDetail::kProgState: return prog_state;
    case nac::EvidenceDetail::kPacket: return packet;
  }
  return program;
}

ReattestCadence ReattestCadence::scaled(double factor) const {
  const auto scale = [factor](netsim::SimTime t) {
    const double s = static_cast<double>(t) * factor;
    return s < 1.0 ? netsim::SimTime{1} : static_cast<netsim::SimTime>(s);
  };
  ReattestCadence out;
  out.hardware = scale(hardware);
  out.program = scale(program);
  out.tables = scale(tables);
  out.prog_state = scale(prog_state);
  out.packet = scale(packet);
  return out;
}

ReattestCadence recommend_cadence(const WorkloadProfile& workload,
                                  netsim::SimTime min_interval,
                                  netsim::SimTime max_interval) {
  const auto interval = [&](nac::EvidenceDetail level) {
    const double rate = churn_rate(level, workload);  // epoch changes / s
    if (rate <= 0.0) return max_interval;
    const double ns = 1e9 / rate;  // one expected change, in sim ns
    if (ns >= static_cast<double>(max_interval)) return max_interval;
    if (ns <= static_cast<double>(min_interval)) return min_interval;
    return static_cast<netsim::SimTime>(ns);
  };
  ReattestCadence c;
  c.hardware = interval(nac::EvidenceDetail::kHardware);
  c.program = interval(nac::EvidenceDetail::kProgram);
  c.tables = interval(nac::EvidenceDetail::kTables);
  c.prog_state = interval(nac::EvidenceDetail::kProgState);
  c.packet = interval(nac::EvidenceDetail::kPacket);
  return c;
}

TuningRecommendation recommend_config(const WorkloadProfile& workload,
                                      const AssuranceRequirements& req,
                                      const CostModel& costs) {
  TuningRecommendation rec;
  rec.config.costs = costs;
  rec.config.default_detail = req.detail;
  rec.config.cache_enabled = true;
  rec.config.composition = req.require_path_order
                               ? nac::CompositionMode::kChained
                               : nac::CompositionMode::kPointwise;

  rec.predicted_cache_hit_rate = cache_hit_rate(req.detail, workload);

  // Raise sampling (halving attested packets each step) until the
  // predicted overhead fits, unless per-packet evidence is demanded.
  const std::uint8_t max_log2 = req.every_packet ? 0 : 12;
  std::uint8_t chosen = 0;
  double overhead = predict_overhead_ns(rec.config, workload, req.detail);
  while (overhead > static_cast<double>(req.max_overhead_ns) &&
         chosen < max_log2) {
    ++chosen;
    rec.config.sampling_log2 = chosen;
    overhead = predict_overhead_ns(rec.config, workload, req.detail);
  }
  rec.config.sampling_log2 = chosen;
  rec.predicted_overhead_ns = overhead;
  rec.satisfiable = overhead <= static_cast<double>(req.max_overhead_ns);

  rec.rationale =
      "detail=" + nac::describe_mask(req.detail) +
      ", cache hit rate ~" +
      std::to_string(static_cast<int>(rec.predicted_cache_hit_rate * 100)) +
      "%, sampling 1/" +
      std::to_string(std::uint64_t{1} << chosen) + ", " +
      (rec.config.composition == nac::CompositionMode::kChained
           ? "chained"
           : "pointwise") +
      " composition; predicted " +
      std::to_string(static_cast<long long>(rec.predicted_overhead_ns)) +
      " ns/pkt vs budget " + std::to_string(req.max_overhead_ns) + " ns";
  if (!rec.satisfiable) {
    rec.rationale +=
        " — UNSATISFIABLE: lower the detail level or raise the budget";
  }
  return rec;
}

}  // namespace pera::pera
