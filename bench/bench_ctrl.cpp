// Control-plane benchmark: what does continuous re-attestation buy, and
// what does it cost?
//
// For each (re-attestation interval, loss probability) cell the bench
// replays the core2 program-swap scenario on the ISP topology and
// measures, averaged over several seeds:
//
//   * detection latency — swap to first Quarantined transition of core2;
//     should fall monotonically as the re-attestation frequency rises
//     (and the acceptance gate below asserts exactly that, per loss rate)
//   * control overhead — control-plane messages and bytes per simulated
//     second (the bench injects no data traffic, so every message on the
//     wire is attestation control)
//
// A second sweep thins the *full-detail* (tables-level) rounds by
// 2^sampling_log2 while the cheap partial heartbeats stay at the base
// cadence: detection latency degrades with the full-detail sampling rate
// while message overhead barely moves.
//
// Flags: --smoke (one tiny cell), --seeds=N and bench/harness.h's common
// ones. Results land in BENCH_ctrl.json (committed).
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "adversary/attacks.h"
#include "core/deployment.h"
#include "ctrl/controller.h"
#include "harness.h"
#include "netsim/topology.h"

namespace {

using namespace pera;

constexpr netsim::SimTime kSwapAt = 500 * netsim::kMillisecond;
constexpr netsim::SimTime kDeadline = 30 * netsim::kSecond;

struct RunResult {
  bool detected = false;
  double detect_ms = 0.0;
  double ctl_msgs_per_s = 0.0;
  double ctl_kbytes_per_s = 0.0;
  double rounds_per_s = 0.0;
  double timeout_rate = 0.0;
};

RunResult run_once(std::int64_t interval_ms, double loss, int sampling_log2,
                   std::uint64_t seed) {
  core::DeploymentOptions dopt;
  dopt.seed = seed;
  core::Deployment dep(netsim::topo::isp(), dopt);
  dep.provision_goldens();
  if (loss > 0) dep.network().set_loss(loss, seed + 7);

  ctrl::ControllerConfig cfg;
  cfg.trust.quarantine_after = 2;
  cfg.trust.reinstate_after = 2;
  cfg.transport.max_attempts = 5;
  const netsim::SimTime base = interval_ms * netsim::kMillisecond;
  cfg.scheduler.cadence.hardware = base;
  cfg.scheduler.cadence.program = base;
  // Only tables-level rounds carry the full detail mask; thinning them is
  // the control plane's sampling knob.
  cfg.scheduler.cadence.tables = base << sampling_log2;
  cfg.transport.timeout = std::min<netsim::SimTime>(
      20 * netsim::kMillisecond, base / 2 > 0 ? base / 2 : base);
  ctrl::AttestationController controller(dep, "client", cfg, seed);

  auto& net = dep.network();
  net.events().schedule_at(kSwapAt, [&] {
    adversary::program_swap_attack(dep, "core2");
  });

  controller.start();
  std::optional<netsim::SimTime> detected_at;
  for (netsim::SimTime t = 100 * netsim::kMillisecond; t <= kDeadline;
       t += 100 * netsim::kMillisecond) {
    net.run(t);
    const auto q =
        controller.first_transition("core2", ctrl::TrustState::kQuarantined);
    if (q && *q >= kSwapAt) {
      detected_at = *q;
      break;
    }
  }
  controller.stop();
  net.run();

  RunResult r;
  const double sim_s = static_cast<double>(net.now()) / 1e9;
  const auto& stats = net.stats();
  const auto& tstats = controller.transport().stats();
  if (detected_at) {
    r.detected = true;
    r.detect_ms = static_cast<double>(*detected_at - kSwapAt) / 1e6;
  }
  if (sim_s > 0) {
    r.ctl_msgs_per_s = static_cast<double>(stats.messages_sent) / sim_s;
    r.ctl_kbytes_per_s =
        static_cast<double>(stats.bytes_sent) / 1024.0 / sim_s;
    r.rounds_per_s = static_cast<double>(tstats.rounds) / sim_s;
  }
  if (tstats.rounds > 0) {
    r.timeout_rate =
        static_cast<double>(tstats.rounds_timed_out) /
        static_cast<double>(tstats.rounds);
  }
  return r;
}

struct Cell {
  std::int64_t interval_ms = 0;
  double loss = 0.0;
  int sampling_log2 = 0;
  std::size_t seeds = 0;
  std::size_t detected = 0;
  double detect_ms_mean = 0.0;
  double detect_ms_min = 0.0;
  double detect_ms_max = 0.0;
  double ctl_msgs_per_s = 0.0;
  double ctl_kbytes_per_s = 0.0;
  double rounds_per_s = 0.0;
  double timeout_rate = 0.0;
};

Cell run_cell(std::int64_t interval_ms, double loss, int sampling_log2,
              std::size_t seeds) {
  Cell c;
  c.interval_ms = interval_ms;
  c.loss = loss;
  c.sampling_log2 = sampling_log2;
  c.seeds = seeds;
  double sum = 0.0;
  for (std::size_t s = 0; s < seeds; ++s) {
    const RunResult r = run_once(interval_ms, loss, sampling_log2, 1000 + s);
    if (r.detected) {
      if (c.detected == 0 || r.detect_ms < c.detect_ms_min)
        c.detect_ms_min = r.detect_ms;
      if (c.detected == 0 || r.detect_ms > c.detect_ms_max)
        c.detect_ms_max = r.detect_ms;
      sum += r.detect_ms;
      ++c.detected;
    }
    c.ctl_msgs_per_s += r.ctl_msgs_per_s / static_cast<double>(seeds);
    c.ctl_kbytes_per_s += r.ctl_kbytes_per_s / static_cast<double>(seeds);
    c.rounds_per_s += r.rounds_per_s / static_cast<double>(seeds);
    c.timeout_rate += r.timeout_rate / static_cast<double>(seeds);
  }
  if (c.detected > 0) c.detect_ms_mean = sum / static_cast<double>(c.detected);
  return c;
}

void print_cell(const char* tag, const Cell& c) {
  std::printf(
      "%s interval=%4lldms loss=%.2f s=%d  detect=%8.1f ms "
      "[%6.1f, %6.1f]  ctl=%7.0f msg/s %8.1f KiB/s  timeouts=%.3f\n",
      tag, static_cast<long long>(c.interval_ms), c.loss, c.sampling_log2,
      c.detect_ms_mean, c.detect_ms_min, c.detect_ms_max, c.ctl_msgs_per_s,
      c.ctl_kbytes_per_s, c.timeout_rate);
}

void add_cells(bench::Json& j, std::string_view key,
               const std::vector<Cell>& cells) {
  j.array(key);
  for (const Cell& c : cells) {
    j.object().field("interval_ms", c.interval_ms).field("loss", c.loss, 2)
        .field("sampling_log2", c.sampling_log2).field("seeds", c.seeds)
        .field("detected", c.detected)
        .field("detect_ms_mean", c.detect_ms_mean, 1)
        .field("detect_ms_min", c.detect_ms_min, 1)
        .field("detect_ms_max", c.detect_ms_max, 1)
        .field("ctl_msgs_per_s", c.ctl_msgs_per_s, 1)
        .field("ctl_kbytes_per_s", c.ctl_kbytes_per_s, 1)
        .field("rounds_per_s", c.rounds_per_s, 1)
        .field("timeout_rate", c.timeout_rate, 4).end();
  }
  j.end();
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::size_t seeds = 5;
  bench::Harness h(bench::Runner::kPlain, "BENCH_ctrl.json");
  h.flag("smoke", smoke, "one tiny cell, no gate");
  h.flag("seeds", seeds, "seeds averaged per cell");
  if (const int rc = h.parse(argc, argv); rc != 0) return rc;
  if (seeds == 0) seeds = 1;

  std::vector<Cell> cells;
  std::vector<Cell> sampling_cells;
  if (smoke) {
    cells.push_back(run_cell(100, 0.02, 0, 1));
    print_cell("smoke", cells.back());
  } else {
    for (const double loss : {0.0, 0.02, 0.05}) {
      for (const std::int64_t interval : {50LL, 100LL, 200LL, 400LL}) {
        cells.push_back(run_cell(interval, loss, 0, seeds));
        print_cell("grid ", cells.back());
      }
    }
    for (const int s : {0, 1, 2}) {
      sampling_cells.push_back(run_cell(100, 0.02, s, seeds));
      print_cell("sampl", sampling_cells.back());
    }
  }

  bench::Json j;
  j.field("scenario", "core2 program swap on isp() at " +
                          std::to_string(kSwapAt / netsim::kMillisecond) +
                          " ms")
      .field("seeds", seeds);
  add_cells(j, "cells", cells);
  add_cells(j, "sampling_cells", sampling_cells);
  h.write(j);

  // Acceptance gate: within every loss rate, mean detection latency must
  // rise with the interval (monotone in re-attestation frequency).
  if (!smoke) {
    for (const double loss : {0.0, 0.02, 0.05}) {
      double prev = -1.0;
      bool monotone = true;
      for (const Cell& c : cells) {
        if (c.loss != loss || c.detected == 0) continue;
        if (prev >= 0 && c.detect_ms_mean < prev) monotone = false;
        prev = c.detect_ms_mean;
      }
      h.gate("monotone-detection", monotone,
             "detection latency rises with the interval at loss=%.2f", loss);
    }
  }
  return h.finish();
}
