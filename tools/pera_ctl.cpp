// pera_ctl — closed-loop control-plane scenario runner.
//
// Replays the Athens-affair storyline against the ISP topology with the
// continuous attestation control plane engaged: the controller on
// "client" re-attests every switch; mid-run the adversary hot-swaps
// core2's dataplane program for the rogue lookalike; the control plane
// detects the digest change, walks core2 Trusted -> Suspect ->
// Quarantined, steers the client->pm_phone data path onto the core1-core3
// backup link, and — once the attacker restores the legitimate program —
// reinstates core2 and returns traffic to the primary path.
//
// Everything is seed-deterministic: the same flags print the same
// timeline, byte for byte. Exit code 0 iff the full story held.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "adversary/attacks.h"
#include "core/deployment.h"
#include "core/wire.h"
#include "ctrl/controller.h"
#include "netsim/topology.h"

using namespace pera;

namespace {

struct Options {
  std::uint64_t seed = 42;
  double loss = 0.05;
  std::int64_t interval_ms = 100;  // fastest (tables-level) cadence
  std::int64_t swap_at_ms = 1000;
  std::int64_t restore_at_ms = 4000;
  std::int64_t duration_ms = 10000;
};

constexpr const char* kUsage =
    "usage: pera_ctl [--seed=N] [--loss=P] [--interval-ms=N]\n"
    "                [--swap-at-ms=N] [--restore-at-ms=N] [--duration-ms=N]\n";

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto num = [&](const char* prefix) -> std::optional<double> {
      if (arg.rfind(prefix, 0) != 0) return std::nullopt;
      return std::strtod(arg.c_str() + std::strlen(prefix), nullptr);
    };
    if (const auto v = num("--seed=")) o.seed = static_cast<std::uint64_t>(*v);
    else if (const auto v = num("--loss=")) o.loss = *v;
    else if (const auto v = num("--interval-ms=")) o.interval_ms = static_cast<std::int64_t>(*v);
    else if (const auto v = num("--swap-at-ms=")) o.swap_at_ms = static_cast<std::int64_t>(*v);
    else if (const auto v = num("--restore-at-ms=")) o.restore_at_ms = static_cast<std::int64_t>(*v);
    else if (const auto v = num("--duration-ms=")) o.duration_ms = static_cast<std::int64_t>(*v);
    else if (arg == "--help" || arg == "-h") {
      std::printf("%s", kUsage);
      std::exit(0);
    } else {
      std::fprintf(stderr, "pera_ctl: unknown flag %s\n%s", arg.c_str(), kUsage);
      std::exit(2);
    }
  }
  return o;
}

std::string data_path(core::Deployment& dep) {
  auto& topo = dep.network().topology();
  const auto path = topo.shortest_path_avoiding(
      topo.require("client"), topo.require("pm_phone"),
      dep.network().quarantined_nodes());
  if (path.empty()) return "(unreachable)";
  std::string out;
  for (const auto& name : topo.names(path)) {
    if (!out.empty()) out += " -> ";
    out += name;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const auto ms = [](std::int64_t v) { return v * netsim::kMillisecond; };

  core::DeploymentOptions dopt;
  dopt.seed = opt.seed;
  core::Deployment dep(netsim::topo::isp(), dopt);
  dep.provision_goldens();
  dep.network().set_loss(opt.loss, opt.seed + 7);

  ctrl::ControllerConfig cfg;
  cfg.trust.quarantine_after = 2;
  cfg.trust.reinstate_after = 2;
  // All three monitored levels on the same fast cadence: the demo is
  // about detection latency, not about per-level heartbeat economics.
  cfg.scheduler.cadence.hardware = ms(opt.interval_ms);
  cfg.scheduler.cadence.program = ms(opt.interval_ms);
  cfg.scheduler.cadence.tables = ms(opt.interval_ms);
  cfg.transport.timeout = ms(opt.interval_ms) / 2;
  ctrl::AttestationController controller(dep, "client", cfg, opt.seed);

  std::printf("== pera_ctl: Athens-affair closed loop ==\n");
  std::printf(
      "seed=%llu loss=%.2f interval=%lldms swap@%lldms restore@%lldms "
      "duration=%lldms\n",
      static_cast<unsigned long long>(opt.seed), opt.loss,
      static_cast<long long>(opt.interval_ms),
      static_cast<long long>(opt.swap_at_ms),
      static_cast<long long>(opt.restore_at_ms),
      static_cast<long long>(opt.duration_ms));
  std::printf("data path at start:   %s\n\n", data_path(dep).c_str());

  controller.on_transition([&](const std::string& place,
                               const ctrl::TrustTransition& t) {
    std::printf("t=%8.1f ms  %-6s %-11s -> %-11s  (%s)\n",
                static_cast<double>(t.at) / 1e6, place.c_str(),
                ctrl::to_string(t.from), ctrl::to_string(t.to),
                t.reason.c_str());
    if (t.to == ctrl::TrustState::kQuarantined ||
        t.from == ctrl::TrustState::kQuarantined) {
      std::printf("              data path now: %s\n", data_path(dep).c_str());
    }
  });

  auto& events = dep.network().events();

  // Background subscriber traffic, one packet every 20 ms: while core2 is
  // quarantined these packets detour over the core1-core3 backup link
  // (visible in stats.data_rerouted).
  const netsim::NodeId client_id = dep.network().topology().require("client");
  const netsim::NodeId phone_id = dep.network().topology().require("pm_phone");
  std::function<void()> inject = [&] {
    core::FlowBundle bundle;
    bundle.raw = dataplane::make_tcp_packet({});
    netsim::Message pkt;
    pkt.src = client_id;
    pkt.dst = phone_id;
    pkt.type = "data";
    bundle.to_message(pkt);
    dep.network().send(std::move(pkt));
    if (dep.network().now() + ms(20) < ms(opt.duration_ms)) {
      events.schedule_in(ms(20), [&] { inject(); });
    }
  };
  events.schedule_in(ms(20), [&] { inject(); });

  events.schedule_at(ms(opt.swap_at_ms), [&] {
    adversary::program_swap_attack(dep, "core2");
    std::printf("t=%8.1f ms  [adversary] rogue program hot-swapped on core2\n",
                static_cast<double>(dep.network().now()) / 1e6);
  });
  events.schedule_at(ms(opt.restore_at_ms), [&] {
    adversary::program_restore(dep, "core2");
    std::printf(
        "t=%8.1f ms  [adversary] legitimate program restored on core2\n",
        static_cast<double>(dep.network().now()) / 1e6);
  });

  controller.start();
  dep.network().run(ms(opt.duration_ms));
  controller.stop();
  dep.network().run();  // drain in-flight rounds; scheduler is stopped

  const auto quarantined_at =
      controller.first_transition("core2", ctrl::TrustState::kQuarantined);
  const auto reinstated_at =
      controller.first_transition("core2", ctrl::TrustState::kReinstated);

  std::printf("\ndata path at end:     %s\n", data_path(dep).c_str());
  std::printf("rounds: %llu pass, %llu fail, %llu timeout (%llu retries)\n",
              static_cast<unsigned long long>(controller.rounds_passed()),
              static_cast<unsigned long long>(controller.rounds_failed()),
              static_cast<unsigned long long>(controller.rounds_timed_out()),
              static_cast<unsigned long long>(
                  controller.transport().stats().retries));
  const auto& net_stats = dep.network().stats();
  std::printf("rerouted data hops: %llu (fallbacks: %llu)\n",
              static_cast<unsigned long long>(net_stats.data_rerouted),
              static_cast<unsigned long long>(net_stats.reroute_fallbacks));

  bool ok = true;
  if (!quarantined_at || *quarantined_at < ms(opt.swap_at_ms)) {
    std::printf("FAIL: core2 was not quarantined after the swap\n");
    ok = false;
  } else {
    std::printf("detection latency:  %.1f ms (swap -> quarantine)\n",
                static_cast<double>(*quarantined_at - ms(opt.swap_at_ms)) /
                    1e6);
  }
  if (!reinstated_at || *reinstated_at < ms(opt.restore_at_ms)) {
    std::printf("FAIL: core2 was not reinstated after the restore\n");
    ok = false;
  } else {
    std::printf("reinstatement lag:  %.1f ms (restore -> reinstated)\n",
                static_cast<double>(*reinstated_at - ms(opt.restore_at_ms)) /
                    1e6);
  }
  if (controller.trust("core2").state() == ctrl::TrustState::kQuarantined) {
    std::printf("FAIL: core2 still quarantined at end of run\n");
    ok = false;
  }
  std::printf("%s\n", ok ? "OK: closed loop held" : "SCENARIO FAILED");
  return ok ? 0 : 1;
}
