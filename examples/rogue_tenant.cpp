// Rogue tenant: one misbehaving video customer on a shared MMR port.
//
// A rack of compliant CBR video connections shares the router with a few
// connections whose sources ignore their admitted contract and inject 4x
// their declared rate.  Run once unprotected and once with injection
// policing, and compare who pays for the overload.
//
//   ./rogue_tenant [key=value ...]        (see src/mmr/sim/config.hpp)
//
// Examples:
//   ./rogue_tenant police=drop
//   ./rogue_tenant police=shape,penalty:64 rogue=count:4,scale:6
//   ./rogue_tenant police=demote,wd_window:256 measure=200000

#include <cstdio>
#include <iostream>

#include "mmr/core/report.hpp"
#include "mmr/core/simulation.hpp"

namespace {

mmr::SimulationMetrics run_once(mmr::SimConfig config) {
  mmr::Rng rng(config.seed, /*stream=*/1);
  mmr::CbrMixSpec mix;
  mix.target_load = 0.55;
  mix.classes = {mmr::kCbrHigh, mmr::kCbrMedium};
  mix.class_weights = {3.0, 1.0};
  return mmr::run_or_exit(config, mmr::build_cbr_mix(config, mix, rng));
}

}  // namespace

int main(int argc, char** argv) {
  mmr::SimConfig config;
  config.measure_cycles = 100'000;
  // A quarter of the tenants break their contract at 6x the admitted rate
  // — enough aggregate excess to saturate output links and push compliant
  // video past its deadline when nothing polices the ingress.
  config.rogue_spec = "frac:0.25,scale:6";
  config.police_spec = "demote";

  mmr::configure(config, {argv + 1, argv + argc});

  std::printf("Rogue tenant: %ux%u router, %s arbiter, rogue=%s\n\n",
              config.ports, config.ports, config.arbiter.c_str(),
              config.rogue_spec.c_str());

  // Pass 1: same rogues, no protection.
  mmr::SimConfig unprotected = config;
  unprotected.police_spec.clear();
  const mmr::SimulationMetrics before = run_once(unprotected);
  std::printf("--- unprotected ---\n");
  std::printf("  compliant deadline violations: %.2f%% (%llu of %llu)\n",
              before.overload.compliant_violation_rate() * 100.0,
              static_cast<unsigned long long>(
                  before.overload.compliant_violations),
              static_cast<unsigned long long>(
                  before.overload.compliant_delivered));
  std::printf("  end-of-run backlog: %llu flits\n\n",
              static_cast<unsigned long long>(before.backlog_flits));

  // Pass 2: injection policing on.
  const mmr::SimulationMetrics after = run_once(config);
  std::printf("--- police=%s ---\n", config.police_spec.c_str());
  mmr::print_overload_summary(std::cout, after);
  std::cout << '\n' << mmr::overload_table(after).render() << '\n';
  std::printf(
      "Compliant violations %.2f%% -> %.2f%%: the policer confines the "
      "overload to the\ntenants that caused it.\n",
      before.overload.compliant_violation_rate() * 100.0,
      after.overload.compliant_violation_rate() * 100.0);
  return 0;
}
