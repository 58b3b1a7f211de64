// pera_fleet — fleet-scale hierarchical appraisal scenario runner.
//
// A 24-switch fleet under delegated appraisal: the root on "root"
// partitions the switches into fanout-bounded regions, each served by a
// regional appraiser that runs paced member rounds and returns one
// signed composition tree per wave. Two adversaries strike mid-run:
//
//   1. A classic program hot-swap on one member switch. The regional's
//      next wave carries the bad verdict up in its aggregate and the
//      root walks the member Trusted -> Suspect -> Quarantined.
//
//   2. A compromised regional appraiser that starts vouching for one of
//      its members without challenging it (replaying stale evidence).
//      The root's derived-nonce freshness pass rejects every forged
//      aggregate, the regional's delegation trust drains to Quarantined,
//      its domains are re-homed onto a sibling appraiser, and the moved
//      members re-attest cleanly under the new regional.
//
// Everything is seed-deterministic: the same flags print the same
// timeline, byte for byte. Exit code 0 iff the full story held.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "adversary/attacks.h"
#include "core/deployment.h"
#include "fleet/controller.h"
#include "netsim/topology.h"

using namespace pera;

namespace {

struct Options {
  std::uint64_t seed = 42;
  double loss = 0.01;
  std::size_t switches = 24;
  std::size_t fanout = 8;
  std::int64_t wave_ms = 25;
  std::int64_t swap_at_ms = 120;
  std::int64_t forge_at_ms = 400;
  std::int64_t duration_ms = 1200;
};

constexpr const char* kUsage =
    "usage: pera_fleet [--seed=N] [--loss=P] [--switches=N] [--fanout=N]\n"
    "                  [--wave-ms=N] [--swap-at-ms=N] [--forge-at-ms=N]\n"
    "                  [--duration-ms=N]\n";

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
    else if (const auto v = num("--switches=")) o.switches = static_cast<std::size_t>(*v);
    else if (const auto v = num("--fanout=")) o.fanout = static_cast<std::size_t>(*v);
    else if (const auto v = num("--wave-ms=")) o.wave_ms = static_cast<std::int64_t>(*v);
    else if (const auto v = num("--swap-at-ms=")) o.swap_at_ms = static_cast<std::int64_t>(*v);
    else if (const auto v = num("--forge-at-ms=")) o.forge_at_ms = static_cast<std::int64_t>(*v);
    else if (const auto v = num("--duration-ms=")) o.duration_ms = static_cast<std::int64_t>(*v);
    else if (arg == "--help" || arg == "-h") {
      std::printf("%s", kUsage);
      std::exit(0);
    } else {
      std::fprintf(stderr, "pera_fleet: unknown flag %s\n%s", arg.c_str(), kUsage);
      std::exit(2);
    }
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  const auto ms = [](std::int64_t v) { return v * netsim::kMillisecond; };

  core::DeploymentOptions dopt;
  dopt.seed = opt.seed;
  core::Deployment dep(netsim::topo::fleet(opt.switches, opt.fanout), dopt);
  dep.provision_goldens();
  dep.network().set_loss(opt.loss, opt.seed + 7);

  fleet::FleetConfig cfg;
  cfg.fanout = opt.fanout;
  cfg.wave.interval = ms(opt.wave_ms);
  cfg.wave_timeout = ms(opt.wave_ms) * 3 / 4;
  cfg.transport.timeout = ms(opt.wave_ms) / 5;
  cfg.root_transport.timeout = ms(opt.wave_ms) / 5;
  cfg.trust.quarantine_after = 3;
  cfg.trust.reinstate_after = 2;
  cfg.admit_burst = static_cast<double>(opt.fanout);
  // Keep chronic-failure splitting out of the forged-regional story: the
  // rogue regional must drain to Quarantined and re-home, not shrink.
  cfg.split_after_failures = 1000;

  fleet::FleetController controller(
      dep, "root",
      fleet::DelegationTree::build(
          fleet::fleet_switch_names(opt.switches),
          fleet::fleet_regional_names(opt.switches, opt.fanout),
          {opt.fanout}),
      cfg, opt.seed);

  const std::string victim = "sw" + std::to_string(opt.switches / 4);
  const std::string rogue_regional = "r" +
      std::to_string((opt.switches / opt.fanout) / 2);
  const std::string vouched =
      controller.tree().regions().empty()
          ? std::string{}
          : [&] {
              for (const fleet::Region* r : controller.tree().regions()) {
                if (r->appraiser == rogue_regional && !r->members.empty()) {
                  return r->members.front();
                }
              }
              return std::string{};
            }();

  std::printf("== pera_fleet: hierarchical appraisal under attack ==\n");
  std::printf(
      "seed=%llu loss=%.2f switches=%zu fanout=%zu wave=%lldms "
      "swap@%lldms(%s) forge@%lldms(%s->%s) duration=%lldms\n",
      static_cast<unsigned long long>(opt.seed), opt.loss, opt.switches,
      opt.fanout, static_cast<long long>(opt.wave_ms),
      static_cast<long long>(opt.swap_at_ms), victim.c_str(),
      static_cast<long long>(opt.forge_at_ms), rogue_regional.c_str(),
      vouched.c_str(), static_cast<long long>(opt.duration_ms));
  std::printf("regions: %zu, members: %zu\n\n",
              controller.tree().region_count(),
              controller.tree().all_members().size());

  controller.on_transition([&](const std::string& place,
                               const ctrl::TrustTransition& t) {
    std::printf("t=%8.1f ms  %-6s %-11s -> %-11s  (%s)\n",
                static_cast<double>(t.at) / 1e6, place.c_str(),
                ctrl::to_string(t.from), ctrl::to_string(t.to),
                t.reason.c_str());
  });

  auto& events = dep.network().events();
  events.schedule_at(ms(opt.swap_at_ms), [&] {
    adversary::program_swap_attack(dep, victim);
    std::printf("t=%8.1f ms  [adversary] rogue program hot-swapped on %s\n",
                static_cast<double>(dep.network().now()) / 1e6,
                victim.c_str());
  });
  events.schedule_at(ms(opt.forge_at_ms), [&] {
    controller.regional(rogue_regional).forge_member(vouched, true);
    std::printf(
        "t=%8.1f ms  [adversary] %s now forges entries for %s "
        "(stale evidence, no challenge)\n",
        static_cast<double>(dep.network().now()) / 1e6,
        rogue_regional.c_str(), vouched.c_str());
  });

  controller.start();
  dep.network().run(ms(opt.duration_ms));
  controller.stop();
  dep.network().run();  // drain in-flight rounds; scheduler is stopped

  const fleet::FleetStats& st = controller.stats();
  std::printf("\nwaves launched: %llu, aggregates: %llu valid / %llu invalid "
              "/ %llu timed out\n",
              static_cast<unsigned long long>(st.waves_launched),
              static_cast<unsigned long long>(st.aggregates_valid),
              static_cast<unsigned long long>(st.aggregates_invalid),
              static_cast<unsigned long long>(st.aggregates_timeout));
  std::printf("entries applied: %llu, probes: %llu, rounds subsumed: %llu\n",
              static_cast<unsigned long long>(st.entries_applied),
              static_cast<unsigned long long>(st.probe_rounds),
              static_cast<unsigned long long>(st.rounds_subsumed));
  std::printf("domains re-homed: %llu, region splits: %llu, "
              "forged entries emitted: %llu\n",
              static_cast<unsigned long long>(st.domains_rehomed),
              static_cast<unsigned long long>(st.region_splits),
              static_cast<unsigned long long>(
                  controller.regional(rogue_regional).forged_entries()));
  std::printf("peak root inflight: %zu (fanout bound %zu)\n",
              controller.peak_root_inflight(), opt.fanout);

  bool ok = true;
  const auto victim_quarantined =
      controller.first_transition(victim, ctrl::TrustState::kQuarantined);
  if (!victim_quarantined || *victim_quarantined < ms(opt.swap_at_ms)) {
    std::printf("FAIL: %s was not quarantined after the program swap\n",
                victim.c_str());
    ok = false;
  } else {
    std::printf("member detection latency:   %.1f ms (swap -> quarantine)\n",
                static_cast<double>(*victim_quarantined - ms(opt.swap_at_ms)) /
                    1e6);
  }
  const auto rogue_quarantined = controller.first_transition(
      rogue_regional, ctrl::TrustState::kQuarantined);
  if (!rogue_quarantined || *rogue_quarantined < ms(opt.forge_at_ms)) {
    std::printf("FAIL: forging regional %s was never quarantined\n",
                rogue_regional.c_str());
    ok = false;
  } else {
    std::printf("regional detection latency: %.1f ms (forge -> quarantine)\n",
                static_cast<double>(*rogue_quarantined - ms(opt.forge_at_ms)) /
                    1e6);
  }
  if (st.domains_rehomed == 0) {
    std::printf("FAIL: no domains were re-homed off the rogue regional\n");
    ok = false;
  }
  for (const fleet::Region* r : controller.tree().regions()) {
    if (r->appraiser == rogue_regional) {
      std::printf("FAIL: region %s still homed on the rogue regional\n",
                  r->name.c_str());
      ok = false;
    }
  }
  if (controller.peak_root_inflight() > opt.fanout) {
    std::printf("FAIL: root appraisal load exceeded the fanout bound\n");
    ok = false;
  }
  std::size_t healthy = 0;
  for (const auto& m : controller.tree().all_members()) {
    if (m == victim) continue;
    if (controller.trust(m).state() == ctrl::TrustState::kTrusted) ++healthy;
  }
  if (healthy + 1 < controller.tree().all_members().size()) {
    std::printf("FAIL: %zu healthy members not Trusted at end\n",
                controller.tree().all_members().size() - 1 - healthy);
    ok = false;
  }
  if (controller.trust(victim).state() != ctrl::TrustState::kQuarantined) {
    std::printf("FAIL: %s not quarantined at end of run\n", victim.c_str());
    ok = false;
  }

  std::printf("\n%s\n", ok ? "SCENARIO PASSED" : "SCENARIO FAILED");
  return ok ? 0 : 1;
}
