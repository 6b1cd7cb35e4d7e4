// Overload-protection soak: many seeds x {drop, shape, demote} x {coa, wfa}
// on short rogue-heavy runs, with the policer's internal invariants checked
// (token non-negativity, penalty-queue bounds, backlog accounting) and the
// cross-run protection properties asserted after every run:
//   - compliant CBR connections are never policed (their pacing conforms)
//   - the rogue excess is always policed
//   - only rogue connections ever become noncompliant
//   - watchdog stage cycles partition the run exactly
// Exit status 0 only on a clean soak; registered with ctest under the
// `tier2` label at seeds=200 (scripts/check.sh runs it).

#include <cstdint>
#include <iostream>
#include <string>

#include "bench_util.hpp"
#include "mmr/core/simulation.hpp"

int main(int argc, char** argv) {
  using namespace mmr;
  struct Options { std::uint32_t seeds = 200; } options;
  const spec::Grammar grammar{"overload_soak", '=',
                              {bench::seeds<&Options::seeds>()}};
  spec::parse_command_line(grammar, &options, argc, argv);
  const std::uint32_t seeds = options.seeds;

  const char* policies[3] = {"drop", "shape,penalty:48", "demote"};
  const char* arbiters[2] = {"coa", "wfa"};
  // The queue-discipline axis rides along: policing happens at NIC
  // injection, so its guarantees must hold identically over VOQ and CICQ
  // buffering (cicq deliberately cycles both stabilization settings).
  const char* qds[4] = {"", "voq", "cicq,stab:0", "cicq,stab:1"};

  std::cout << "==== Overload-protection soak: " << seeds
            << " seeds x {drop, shape, demote} x {vc, voq, cicq} ====\n";

  std::uint64_t failures = 0;
  const auto fail = [&failures](std::uint64_t seed, const std::string& why) {
    std::cerr << "seed " << seed << ": " << why << '\n';
    ++failures;
  };

  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    SimConfig config;
    config.ports = 4;
    config.vcs_per_link = 32;
    config.warmup_cycles = 500;
    config.measure_cycles = 4'000;
    config.seed = seed;
    config.arbiter = arbiters[seed % 2];
    config.audit_every = 256;  // periodic SimAuditor sweeps ride along
    config.police_spec = policies[seed % 3];
    config.qd_spec = qds[seed % 4];
    // Two guaranteed rogues; scale and load wobble with the seed so the
    // policer sees both mild and saturating excess.
    // Scale starts at 3x: a 2x burst on a one-slot connection fits the
    // minimum bucket depth of 2 and would legitimately pass unpoliced.
    config.rogue_spec = "count:2,scale:" + std::to_string(3 + seed % 4) +
                        ",seed:" + std::to_string(seed);

    Rng rng(config.seed, 1);
    CbrMixSpec mix;
    // The 64 Kbps class emits less than one flit in a soak-length run, so a
    // rogue landing on it could legitimately go unpoliced; keep the classes
    // whose inter-arrival fits the window.
    mix.classes = {kCbrHigh, kCbrMedium};
    mix.class_weights = {3.0, 1.0};
    mix.target_load = 0.35 + 0.05 * static_cast<double>(seed % 5);
    MmrSimulation simulation(config, build_cbr_mix(config, mix, rng));
    const SimulationMetrics m = simulation.run();
    simulation.check_invariants();
    const OverloadMetrics& o = m.overload;

    if (!o.enabled) {
      fail(seed, "overload metrics not enabled");
      continue;
    }
    if (o.rogue_connections != 2) {
      fail(seed, "expected 2 rogue connections, got " +
                     std::to_string(o.rogue_connections));
    }
    if (o.compliant_policed != 0) {
      fail(seed, "compliant CBR connections were policed (" +
                     std::to_string(o.compliant_policed) + " actions)");
    }
    if (o.rogue_policed == 0) {
      fail(seed, "rogue excess was never policed");
    }
    if (o.noncompliant_connections > o.rogue_connections) {
      fail(seed, "a compliant connection was marked noncompliant");
    }
    const std::uint64_t staged = o.cycles_in_stage[0] + o.cycles_in_stage[1] +
                                 o.cycles_in_stage[2] + o.cycles_in_stage[3];
    if (staged != config.total_cycles()) {
      fail(seed, "watchdog stage cycles do not partition the run (" +
                     std::to_string(staged) + " vs " +
                     std::to_string(config.total_cycles()) + ")");
    }
  }

  if (failures != 0) {
    std::cout << "soak FAILED: " << failures << " violations\n";
    return 1;
  }
  std::cout << "soak clean: " << seeds << " seeds\n";
  return 0;
}
