// Fleet-scale hierarchical appraisal benchmark: does delegation keep
// detection fast and appraiser load flat as the fleet grows 100 -> 10k?
//
// Each cell builds a fleet topology (n switches behind fanout-bounded
// regional appraisers), runs the hierarchical control plane, hot-swaps
// one victim switch's program mid-run, and measures:
//
//   * detection latency — swap to the victim's first Quarantined
//     transition at the root
//   * control messages per switch per wave — total wire messages
//     normalised by fleet size and waves launched (storm indicator)
//   * peak per-appraiser concurrent load — root direct rounds and every
//     regional's member window high-water mark
//
// Exit gates (the bench fails the build when violated):
//
//   G1  detection latency at 10k switches <= 2x the 100-switch baseline
//       (same fanout, same loss) — hierarchy amortises scale
//   G2  peak concurrent appraisal load <= fanout at the root AND at
//       every regional, in every cell — fan-out bounded at every tier
//   G3  the hierarchy's recovered verdicts match flat per-switch central
//       appraisal bit-for-bit on the parity cell
//
// Flags: --smoke (one small cell + gates G2/G3) and bench/harness.h's
// common ones. Results land in BENCH_fleet.json (committed).
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adversary/attacks.h"
#include "core/deployment.h"
#include "dataplane/builder.h"
#include "fleet/controller.h"
#include "harness.h"
#include "netsim/topology.h"

namespace {

using namespace pera;

constexpr netsim::SimTime kSwapAt = 300 * netsim::kMillisecond;
constexpr netsim::SimTime kDeadline = 5 * netsim::kSecond;

struct RunResult {
  bool detected = false;
  bool load_ok = false;
  bool parity_ok = true;  // only evaluated when check_parity is set
  double detect_ms = 0.0;
  double msgs_per_switch_per_wave = 0.0;
  std::size_t peak_root_load = 0;
  std::size_t peak_regional_load = 0;
  std::uint64_t waves = 0;
  std::uint64_t aggregates_valid = 0;
  std::uint64_t aggregates_invalid = 0;
};

RunResult run_once(std::size_t n, std::size_t fanout, double loss,
                   std::uint64_t seed, bool check_parity) {
  core::DeploymentOptions dopt;
  dopt.seed = seed;
  // One shared router program across the fleet: at 10k switches the
  // per-node program build would dominate setup for no measurement gain.
  const auto shared_router = dataplane::make_router();
  dopt.program_for = [shared_router](const netsim::NodeInfo&) {
    return shared_router;
  };
  core::Deployment dep(netsim::topo::fleet(n, fanout), dopt);
  dep.provision_goldens();
  if (loss > 0) dep.network().set_loss(loss, seed + 7);

  fleet::FleetConfig cfg;
  cfg.fanout = fanout;
  cfg.wave.interval = 100 * netsim::kMillisecond;
  cfg.wave_timeout = 75 * netsim::kMillisecond;
  cfg.transport.timeout = 20 * netsim::kMillisecond;
  cfg.root_transport.timeout = 20 * netsim::kMillisecond;
  cfg.trust.quarantine_after = 3;
  cfg.trust.reinstate_after = 2;
  cfg.admit_burst = static_cast<double>(fanout);
  // The bench measures steady-state scaling, not blast-radius surgery.
  cfg.split_after_failures = 1000;

  fleet::FleetController controller(
      dep, "root",
      fleet::DelegationTree::build(fleet::fleet_switch_names(n),
                                   fleet::fleet_regional_names(n, fanout),
                                   {fanout}),
      cfg, seed);

  const std::string victim = "sw" + std::to_string(n / 2);
  auto& net = dep.network();
  net.events().schedule_at(kSwapAt, [&] {
    adversary::program_swap_attack(dep, victim);
  });

  controller.start();
  std::optional<netsim::SimTime> detected_at;
  for (netsim::SimTime t = 100 * netsim::kMillisecond; t <= kDeadline;
       t += 100 * netsim::kMillisecond) {
    net.run(t);
    const auto q =
        controller.first_transition(victim, ctrl::TrustState::kQuarantined);
    if (q && *q >= kSwapAt) {
      detected_at = *q;
      break;
    }
  }
  controller.stop();
  net.run();

  RunResult r;
  if (detected_at) {
    r.detected = true;
    r.detect_ms = static_cast<double>(*detected_at - kSwapAt) / 1e6;
  }
  r.waves = controller.stats().waves_launched;
  r.aggregates_valid = controller.stats().aggregates_valid;
  r.aggregates_invalid = controller.stats().aggregates_invalid;
  if (r.waves > 0) {
    r.msgs_per_switch_per_wave =
        static_cast<double>(net.stats().messages_sent) /
        static_cast<double>(n) / static_cast<double>(r.waves);
  }
  r.peak_root_load = controller.peak_root_inflight();
  for (const auto& a : controller.tree().appraisers()) {
    r.peak_regional_load =
        std::max(r.peak_regional_load, controller.regional(a).peak_inflight());
  }
  r.load_ok =
      r.peak_root_load <= fanout && r.peak_regional_load <= fanout;

  if (check_parity) {
    // G3: the hierarchy's recovered verdicts vs flat central appraisal.
    ra::Appraiser& root = dep.appraiser().appraiser();
    for (const auto& m : controller.tree().all_members()) {
      const crypto::Nonce nonce{crypto::sha256("flat-" + m)};
      const auto ev = dep.switch_node(m).pera().attest_challenge(
          cfg.detail, nonce, /*hash_before_sign=*/false);
      const bool flat = root.appraise(ev, nonce, /*certify=*/false,
                                      static_cast<std::int64_t>(net.now()),
                                      /*enforce_freshness=*/false)
                            .ok;
      const auto it = controller.last_verdicts().find(m);
      if (it == controller.last_verdicts().end() || it->second != flat) {
        r.parity_ok = false;
        std::fprintf(stderr, "parity violation at %s\n", m.c_str());
      }
    }
  }
  return r;
}

struct Cell {
  std::size_t switches = 0;
  std::size_t fanout = 0;
  double loss = 0.0;
  RunResult r;
};

void print_cell(const Cell& c) {
  std::printf(
      "n=%6zu fanout=%3zu loss=%.2f  detect=%8.1f ms  "
      "msgs/sw/wave=%6.2f  load root=%zu regional=%zu  "
      "agg=%llu/%llu valid/invalid%s\n",
      c.switches, c.fanout, c.loss, c.r.detect_ms,
      c.r.msgs_per_switch_per_wave, c.r.peak_root_load,
      c.r.peak_regional_load,
      static_cast<unsigned long long>(c.r.aggregates_valid),
      static_cast<unsigned long long>(c.r.aggregates_invalid),
      c.r.load_ok ? "" : "  LOAD-BOUND VIOLATED");
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bench::Harness h(bench::Runner::kPlain, "BENCH_fleet.json");
  h.flag("smoke", smoke, "one small cell, gates G2 and G3 only");
  if (const int rc = h.parse(argc, argv); rc != 0) return rc;

  const std::uint64_t seed = 1000;
  std::vector<Cell> cells;

  if (smoke) {
    Cell c{100, 16, 0.01, run_once(100, 16, 0.01, seed, /*parity=*/true)};
    print_cell(c);
    cells.push_back(c);
    h.gate("smoke-detection", c.r.detected, "victim detected");
  } else {
    for (const double loss : {0.0, 0.01}) {
      for (const std::size_t n : {std::size_t{100}, std::size_t{1000},
                                  std::size_t{10000}}) {
        const bool parity = n == 100;  // G3 on the small cell per loss rate
        Cell c{n, 32, loss, run_once(n, 32, loss, seed, parity)};
        print_cell(c);
        cells.push_back(c);
      }
    }
    // G1: scale gate per loss rate — 10k detection within 2x of 100.
    for (const double loss : {0.0, 0.01}) {
      const Cell* small = nullptr;
      const Cell* large = nullptr;
      for (const Cell& c : cells) {
        if (c.loss != loss) continue;
        if (c.switches == 100) small = &c;
        if (c.switches == 10000) large = &c;
      }
      if (small == nullptr || large == nullptr || !small->r.detected ||
          !large->r.detected) {
        h.gate("G1-scale", false, "missing detection at loss=%.2f", loss);
        continue;
      }
      h.gate("G1-scale", large->r.detect_ms <= 2.0 * small->r.detect_ms,
             "10k detect %.1f ms vs 2x 100-switch %.1f ms (loss=%.2f)",
             large->r.detect_ms, small->r.detect_ms, loss);
    }
  }
  for (const Cell& c : cells) {
    h.gate("G2-load-bound", c.r.load_ok,
           "appraiser load within fanout at n=%zu", c.switches);
    h.gate("G3-parity", c.r.parity_ok,
           "hierarchy matches flat verdicts at n=%zu", c.switches);
  }

  bench::Json j;
  j.field("scenario", "victim program swap at " +
                          std::to_string(kSwapAt / netsim::kMillisecond) +
                          " ms, hierarchical appraisal on topo::fleet")
      .field("wave_interval_ms", 100)
      .field("gates", h.gates_passed() ? "pass" : "FAIL").array("cells");
  for (const Cell& c : cells) {
    j.object().field("switches", c.switches).field("fanout", c.fanout)
        .field("loss", c.loss, 2).field("detected", c.r.detected)
        .field("detect_ms", c.r.detect_ms, 1)
        .field("msgs_per_switch_per_wave", c.r.msgs_per_switch_per_wave, 2)
        .field("peak_root_load", c.r.peak_root_load)
        .field("peak_regional_load", c.r.peak_regional_load)
        .field("waves", c.r.waves)
        .field("aggregates_valid", c.r.aggregates_valid)
        .field("aggregates_invalid", c.r.aggregates_invalid)
        .field("load_ok", c.r.load_ok).end();
  }
  h.write(j);
  return h.finish();
}
