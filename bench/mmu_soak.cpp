// Shared-buffer MMU soak: many seeds x {credit, shared} x {coa, wfa} on
// short incast-heavy runs with rogue bursts, the SimAuditor's periodic
// MMU-conservation sweeps riding along.  After every run:
//   - shared regime: zero lossless-class drops (the survival guarantee),
//     pool books balanced against the router (admissions == accepted flits),
//     pause/resume events balanced (at most the port count still open)
//   - credit regime: MMU accounting stays disabled (bit-identical path)
// Exit status 0 only on a clean soak; registered with ctest under the
// `tier2` label at seeds=200 (scripts/check.sh runs it).

#include <cstdint>
#include <iostream>
#include <string>

#include "bench_util.hpp"
#include "mmr/core/simulation.hpp"
#include "mmr/snapshot/signals.hpp"
#include "mmr/snapshot/spec.hpp"

int main(int argc, char** argv) {
  using namespace mmr;
  struct Options { std::uint32_t seeds = 200; std::string snap; } options;
  const spec::Grammar grammar{"mmu_soak", '=',
                              {bench::seeds<&Options::seeds>(),
                               spec::bind<&Options::snap>({.name = "snap"})}};
  spec::parse_command_line(grammar, &options, argc, argv);
  const auto& [seeds, snap_spec] = options;
  if (!snap_spec.empty())  // fail fast on bad grammar
    spec::or_exit([&] { (void)snapshot::SnapSpec::parse(snap_spec); });

  // A soak is exactly the run one wants to stop cleanly: poll for
  // SIGINT/SIGTERM between seeds so a partial soak still reports its
  // verdict-so-far and exits with the conventional 128+signo status.
  snapshot::SignalGuard signals;

  const char* arbiters[2] = {"coa", "wfa"};
  // Queue disciplines ride along: the shared-buffer books are kept at the
  // accept/departure boundary, so pool conservation and the survival
  // guarantee must hold whether flits sit in VC FIFOs, VOQs or crosspoints.
  const char* qds[3] = {"", "voq", "cicq"};

  std::cout << "==== MMU soak: " << seeds
            << " seeds x {credit, shared} x {coa, wfa} x {vc, voq, cicq} "
               "====\n";

  std::uint64_t failures = 0;
  const auto fail = [&failures](std::uint64_t seed, const std::string& regime,
                                const std::string& why) {
    std::cerr << "seed " << seed << " (" << regime << "): " << why << '\n';
    ++failures;
  };

  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    if (const int sig = snapshot::SignalGuard::consume()) {
      std::cout << "soak interrupted by signal " << sig << " after "
                << (seed - 1) << "/" << seeds << " seeds, " << failures
                << " violations so far\n";
      return snapshot::exit_status_for_signal(sig);
    }
    for (const bool shared : {false, true}) {
      SimConfig config;
      config.ports = 4;
      config.vcs_per_link = 64;
      config.warmup_cycles = 500;
      config.measure_cycles = 4'000;
      config.seed = seed;
      config.arbiter = arbiters[seed % 2];
      config.audit_every = 512;  // MMU-aware auditor sweeps ride along
      config.qd_spec = qds[seed % 3];
      config.flow_spec = shared ? "shared" : "";
      config.police_spec = shared ? "demote" : "";
      // One guaranteed rogue with bursty inflation; load and scale wobble
      // with the seed so the MMU sees both mild and saturating incast.
      config.rogue_spec = "count:1,scale:" + std::to_string(3 + seed % 4) +
                          ",burst_scale:2,burst_period:1500,burst_len:" +
                          std::to_string(300 + 100 * (seed % 3)) +
                          ",class:cbr,seed:" + std::to_string(seed);

      Rng rng(config.seed, 1);
      CbrMixSpec mix;
      mix.classes = {kCbrHigh};
      mix.class_weights = {1.0};
      mix.hot_output = 0;  // incast onto one output
      mix.target_load =
          (1.2 + 0.2 * static_cast<double>(seed % 5)) /
          static_cast<double>(config.ports);
      config.snap_spec = snap_spec;
      MmrSimulation simulation(config, build_cbr_mix(config, mix, rng));
      SimulationMetrics m;
      try {
        m = simulation.run();
      } catch (const snapshot::Interrupted& stop) {
        std::cout << "soak interrupted by signal " << stop.signal_number()
                  << " mid-run (seed " << seed << "), " << failures
                  << " violations so far";
        if (!stop.checkpoint().empty())
          std::cout << "; post-mortem checkpoint: " << stop.checkpoint();
        std::cout << '\n';
        return snapshot::exit_status_for_signal(stop.signal_number());
      }
      simulation.check_invariants();
      const std::string regime = shared ? "shared" : "credit";

      if (!shared) {
        if (m.mmu.enabled) {
          fail(seed, regime, "MMU accounting enabled without flow=shared");
        }
        continue;
      }
      if (!m.mmu.enabled) {
        fail(seed, regime, "MMU accounting not enabled");
        continue;
      }
      if (m.mmu.drops_lossless != 0) {
        fail(seed, regime,
             std::to_string(m.mmu.drops_lossless) + " lossless-class drops");
      }
      const std::uint64_t admitted = m.mmu.admitted_reserved +
                                     m.mmu.admitted_shared +
                                     m.mmu.admitted_headroom;
      if (admitted != simulation.router().flits_accepted()) {
        fail(seed, regime,
             "pool admissions (" + std::to_string(admitted) +
                 ") disagree with router-accepted flits (" +
                 std::to_string(simulation.router().flits_accepted()) + ")");
      }
      if (m.mmu.resume_events > m.mmu.pause_events) {
        fail(seed, regime, "more Xon resumes than Xoff pauses");
      }
      if (m.mmu.pause_events - m.mmu.resume_events > config.ports) {
        fail(seed, regime, "more open pauses than ports");
      }
    }
  }

  if (failures != 0) {
    std::cout << "soak FAILED: " << failures << " violations\n";
    return 1;
  }
  std::cout << "soak clean: " << seeds << " seeds x 2 regimes\n";
  return 0;
}
